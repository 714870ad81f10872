//! Per-layer probes for the traced run. Each one times calls into one
//! layer's public functions on a fixed input — the same on every
//! workload — inside a span named after the layer.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tss::address_net::{build_address_net, AddrDelivery, AddressNet};
use tss::experiment::ExperimentGrid;
use tss::{CellStore, GridReport, NetworkModelSpec, ProtocolKind, System, Timing, TopologyKind};
use tss_net::{MsgClass, NodeId, UnicastNet, VnetOrdering};
use tss_sim::rng::SimRng;
use tss_sim::{EventQueue, Gt, Time};
use tss_workloads::paper;

use crate::grid::{GridKind, CONTENDED_OCC_NS, CONTENTION_SCALE};
use crate::server::{miss_request, Client, Reply, Running};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Metric;

fn ns_per(started: Instant, n: u64) -> f64 {
    started.elapsed().as_nanos() as f64 / n as f64
}

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// `sim`: a hold-model run of the event calendar — pop the head, schedule
/// one event a pseudo-random distance ahead.
fn sim(t: &mut Tracer, out: &mut Vec<Metric>) {
    const PENDING: u64 = 1_024;
    const OPS: u64 = 400_000;
    let mut rng = SimRng::from_seed_and_stream(1, 0x51);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..PENDING {
        queue.schedule(Time::from_ns(rng.gen_range(0..2_000)), i);
    }
    let started = Instant::now();
    t.span("sim.queue", 0, |_| {
        for _ in 0..OPS {
            let (now, ev) = queue.pop().expect("the hold model keeps the queue full");
            queue.schedule(
                Time::from_ns(now.as_ns() + 1 + rng.gen_range(0..2_000)),
                black_box(ev),
            );
        }
    });
    out.push(Metric::new(
        "sim.queue_ns_per_op",
        ns_per(started, OPS),
        "ns",
    ));
}

/// `workloads`: iterate every CPU's reference stream of Figure 3's OLTP.
fn workloads(t: &mut Tracer, out: &mut Vec<Metric>) {
    let spec = paper::oltp(crate::grid::PAPER_SCALE);
    let started = Instant::now();
    let items = t.span("workloads.stream", 0, |_| {
        let mut items = 0u64;
        for cpu in 0..16 {
            for item in spec.stream(cpu, 16, 0) {
                black_box(item);
                items += 1;
            }
        }
        items
    });
    out.push(Metric::new(
        "workloads.gen_ns_per_item",
        ns_per(started, items),
        "ns",
    ));
}

/// Injects `bursts` bursts of one broadcast per node, `gap_ns` apart, and
/// polls the net like `System` does. Returns (broadcasts, mean ordering
/// delay ns, idle waves skipped).
fn drive_address_net(net: &mut dyn AddressNet<u64>, bursts: u64, gap_ns: u64) -> (u64, f64, u64) {
    let mut out: Vec<AddrDelivery<u64>> = Vec::new();
    let mut injected_at: Vec<Time> = Vec::new();
    let (mut delay_ns, mut copies) = (0u128, 0u64);
    let mut account = |out: &mut Vec<AddrDelivery<u64>>, injected_at: &[Time]| {
        for d in out.drain(..) {
            delay_ns += u128::from(d.ordered_at.since(injected_at[*d.payload as usize]).as_ns());
            copies += 1;
        }
    };
    for b in 0..bursts {
        let now = Time::from_ns(b * gap_ns);
        while let Some(at) = net.next_ready().filter(|&at| at <= now) {
            net.drain_into(at, &mut out);
            account(&mut out, &injected_at);
        }
        for src in 0..16u16 {
            injected_at.push(now);
            net.inject(now, NodeId(src), injected_at.len() as u64 - 1);
        }
    }
    while let Some(at) = net.next_ready() {
        net.drain_into(at, &mut out);
        account(&mut out, &injected_at);
    }
    (
        injected_at.len() as u64,
        delay_ns as f64 / copies as f64,
        net.waves_skipped(),
    )
}

/// `net`: the fast ordered net, the detailed token net, the unicast
/// nets, and fabric construction.
fn net(t: &mut Tracer, out: &mut Vec<Metric>) {
    let timing = Timing::default();
    let fabric = Arc::new(TopologyKind::Butterfly16.build());
    let mut fast = build_address_net::<u64>(NetworkModelSpec::Fast, &timing, fabric, Gt::ZERO, 0);
    let started = Instant::now();
    let (n, _, _) = t.span("net.fast", 0, |_| {
        drive_address_net(fast.as_mut(), 4_000, 40)
    });
    out.push(Metric::new(
        "net.fast_ns_per_broadcast",
        ns_per(started, n),
        "ns",
    ));

    let torus = Arc::new(TopologyKind::Torus4x4.build());
    let spec = NetworkModelSpec::detailed(CONTENDED_OCC_NS);
    let mut token = build_address_net::<u64>(spec, &timing, torus, Gt::ZERO, 0);
    let started = Instant::now();
    let (n, delay, skipped) = t.span("net.token", 0, |_| {
        drive_address_net(token.as_mut(), 400, 2_000)
    });
    out.push(Metric::new(
        "net.token_ns_per_broadcast",
        ns_per(started, n),
        "ns",
    ));
    out.push(Metric::new(
        "net.token_waves_skipped",
        skipped as f64,
        "count",
    ));
    out.push(Metric::new("net.token_ordering_delay_ns", delay, "ns"));

    const SENDS: u64 = 1_000_000;
    let mut unicast = UnicastNet::new(
        Arc::new(TopologyKind::Torus4x4.build()),
        VnetOrdering::PointToPoint,
    );
    let mut rng = SimRng::from_seed_and_stream(2, 0x0c);
    let started = Instant::now();
    t.span("net.unicast", 0, |_| {
        for i in 0..SENDS {
            let (src, dst) = (rng.index(16) as u16, rng.index(16) as u16);
            black_box(unicast.send(
                Time::from_ns(i),
                NodeId(src),
                NodeId(dst),
                MsgClass::Data,
                tss_sim::Duration::ZERO,
            ));
        }
    });
    out.push(Metric::new(
        "net.unicast_ns_per_msg",
        ns_per(started, SENDS),
        "ns",
    ));

    let builds: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            t.span("net.fabric_build", 0, |_| {
                black_box(TopologyKind::Butterfly16.build());
                black_box(TopologyKind::Torus4x4.build());
            });
            ms(started)
        })
        .collect();
    out.push(Metric::new("net.fabric_build_ms", median(&builds), "ms"));
}

/// `proto`: each engine through the loopback harness, verification on.
fn proto(t: &mut Tracer, out: &mut Vec<Metric>) -> Result<(), String> {
    let spec = paper::oltp(CONTENTION_SCALE);
    for kind in ProtocolKind::WITH_TARDIS {
        let (name, span) = match kind {
            ProtocolKind::TsSnoop => ("tssnoop", "proto.tssnoop"),
            ProtocolKind::DirClassic => ("dirclassic", "proto.dirclassic"),
            ProtocolKind::DirOpt => ("diropt", "proto.diropt"),
            ProtocolKind::Tardis => ("tardis", "proto.tardis"),
        };
        let s = t.span(span, 0, |_| crate::proto_loop::run(kind, &spec, 16, 0))?;
        out.push(Metric::new(
            &format!("proto.{name}.ns_per_op"),
            s.host_ns as f64 / s.ops as f64,
            "ns",
        ));
        out.push(Metric::new(
            &format!("proto.{name}.misses_per_kop"),
            s.misses as f64 * 1e3 / s.ops as f64,
            "count",
        ));
        out.push(Metric::new(
            &format!("proto.{name}.msgs_per_miss"),
            s.msgs as f64 / s.misses as f64,
            "count",
        ));
    }
    Ok(())
}

/// `core`: system assembly, one run per cell family, cell identity, the
/// report JSON codec and the cell store.
fn core(t: &mut Tracer, out: &mut Vec<Metric>, run_dir: &Path) -> Result<(), String> {
    let builds: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            t.span("core.build", 0, |_| {
                black_box(
                    System::builder()
                        .protocol(ProtocolKind::TsSnoop)
                        .topology(TopologyKind::Butterfly16)
                        .workload(paper::oltp(crate::grid::PAPER_SCALE))
                        .build()
                        .expect("the paper configuration is valid"),
                )
            });
            ms(started)
        })
        .collect();
    out.push(Metric::new("core.build_ms", median(&builds), "ms"));

    let spec = paper::oltp(CONTENTION_SCALE);
    let families = [
        (
            "core.run_ns_per_op.tssnoop",
            ProtocolKind::TsSnoop,
            NetworkModelSpec::Fast,
        ),
        (
            "core.run_ns_per_op.dirclassic",
            ProtocolKind::DirClassic,
            NetworkModelSpec::Fast,
        ),
        (
            "core.run_ns_per_op.diropt",
            ProtocolKind::DirOpt,
            NetworkModelSpec::Fast,
        ),
        (
            "core.run_ns_per_op.tardis",
            ProtocolKind::Tardis,
            NetworkModelSpec::Fast,
        ),
        (
            "core.run_ns_per_op.contended",
            ProtocolKind::TsSnoop,
            NetworkModelSpec::detailed(CONTENDED_OCC_NS),
        ),
        (
            "core.run_ns_per_op.unloaded",
            ProtocolKind::TsSnoop,
            NetworkModelSpec::detailed(0),
        ),
    ];
    let mut reference = None;
    for (name, protocol, net) in families {
        let system = System::builder()
            .protocol(protocol)
            .topology(TopologyKind::Torus4x4)
            .network(net)
            .workload(spec.clone())
            .build()
            .map_err(|e| e.to_string())?;
        let started = Instant::now();
        let result = t.span("core.run", 0, |_| system.run());
        out.push(Metric::new(
            name,
            ns_per(started, spec.ops_per_cpu * 16),
            "ns",
        ));
        reference = Some(result);
    }
    // Deterministic counts of the unloaded detailed run (the one that
    // skips idle token waves): a host-only change must leave every one of
    // them identical.
    let r = reference.expect("families ran");
    let s = &r.stats;
    for (name, value, unit) in [
        ("core.ref.runtime_ns", s.runtime.as_ns() as f64, "ns"),
        ("core.ref.misses", s.protocol.misses as f64, "count"),
        ("core.ref.c2c_fraction", s.c2c_fraction(), "ratio"),
        ("core.ref.data_bytes", s.traffic.data_bytes as f64, "bytes"),
        (
            "core.ref.request_bytes",
            s.traffic.request_bytes as f64,
            "bytes",
        ),
        (
            "core.ref.miss_latency_ns",
            s.miss_latency.mean_ns().unwrap_or(0.0),
            "ns",
        ),
        (
            "core.ref.waves_skipped",
            r.perf.waves_skipped as f64,
            "count",
        ),
        (
            "core.ref.action_allocs_avoided",
            r.perf.action_allocs_avoided as f64,
            "count",
        ),
    ] {
        out.push(Metric::new(name, value, unit));
    }

    let grid: ExperimentGrid = GridKind::PaperFast.grid(0);
    let plan = grid.plan().map_err(|e| e.to_string())?;
    let started = Instant::now();
    t.span("core.cellkey", 0, |_| {
        for _ in 0..10 {
            for c in &plan.cells {
                black_box(tss::CellKey::compute(&c.cfg, &c.spec, c.runs));
            }
        }
    });
    out.push(Metric::new(
        "core.cellkey_us",
        ns_per(started, 10 * plan.cells.len() as u64) / 1e3,
        "us",
    ));

    let text = std::fs::read_to_string("results/fig3.json")
        .map_err(|e| format!("results/fig3.json: {e}"))?;
    let mut parse = Vec::new();
    let mut write = Vec::new();
    let mut report = None;
    for _ in 0..5 {
        let started = Instant::now();
        let r = t
            .span("core.report_json_parse", 0, |_| {
                GridReport::from_json(&text)
            })
            .map_err(|e| e.to_string())?;
        parse.push(ms(started));
        let started = Instant::now();
        let written = t.span("core.report_json_write", 0, |_| r.to_json());
        write.push(ms(started));
        if written + "\n" != text {
            return Err("results/fig3.json does not round-trip through GridReport".into());
        }
        report = Some(r);
    }
    out.push(Metric::new(
        "core.report_json_parse_ms",
        median(&parse),
        "ms",
    ));
    out.push(Metric::new(
        "core.report_json_write_ms",
        median(&write),
        "ms",
    ));

    let cells = report.expect("parsed").cells;
    let dir = run_dir.join("layer-store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = CellStore::open(&dir).map_err(|e| e.to_string())?;
    let keyed: Vec<_> = cells
        .iter()
        .filter_map(|c| Some((c.cell_key?, c)))
        .collect();
    let started = Instant::now();
    t.span("core.cellstore_store", 0, |_| {
        keyed.iter().try_for_each(|(k, c)| store.store(*k, c))
    })
    .map_err(|e| e.to_string())?;
    out.push(Metric::new(
        "core.cellstore_store_ms",
        ms(started) / keyed.len() as f64,
        "ms",
    ));
    let started = Instant::now();
    let loaded = t.span("core.cellstore_load", 0, |_| {
        keyed
            .iter()
            .filter(|(k, _)| store.load(*k).is_some())
            .count()
    });
    out.push(Metric::new(
        "core.cellstore_load_ms",
        ms(started) / keyed.len() as f64,
        "ms",
    ));
    let _ = std::fs::remove_dir_all(&dir);
    if loaded != keyed.len() {
        return Err(format!(
            "cell store served {loaded} of {} cells",
            keyed.len()
        ));
    }
    Ok(())
}

/// `server`: a grid whose seed axis repeats a seed (deduplicated in
/// flight), the same grid again (served from the store), then cell
/// fetches, half revalidating. Needs a recording tracer.
fn server(t: &mut Tracer, out: &mut Vec<Metric>, run_dir: &Path) -> Result<(), String> {
    let running = Running::start(run_dir.join("layer-server"))?;
    let client = Client::new(&running.server);
    let mut request = miss_request(0);
    request.seeds = vec![request.seeds[0]; 2];
    let result = (|| {
        let mut keys = Vec::new();
        for unit in 0..2 {
            match t.span("server.request", unit, |_| client.grid(&request))? {
                Reply::Grid { report, .. } => {
                    keys = report.cells.iter().filter_map(|c| c.cell_key).collect()
                }
                Reply::Cell { .. } => return Err("expected a grid reply".to_string()),
            }
        }
        let fetches = t.spans().len();
        for unit in 0..20u64 {
            let key = keys[unit as usize % keys.len()].to_hex();
            match t.span("server.request", unit, |t| {
                client.cell_traced(t, unit, &key, unit % 2 == 1)
            })? {
                Reply::Cell {
                    status: 200 | 304, ..
                } => {}
                _ => return Err(format!("cell {key} fetch failed")),
            }
        }
        let span_ms = |name: &str| -> Vec<f64> {
            t.spans()[fetches..]
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                .collect()
        };
        Ok((
            span_ms("server.ttfb"),
            span_ms("server.body"),
            client.stats()?,
        ))
    })();
    running.stop();
    let (ttfb, body, stats) = result?;
    let cells = stats.get("cells").ok_or("stats without cells")?;
    let counter = |name: &str| match cells.get(name) {
        Some(serde_json::Value::U64(n)) => Ok(*n as f64),
        _ => Err(format!("stats without cells.{name}")),
    };
    out.push(Metric::new("server.ttfb_ms", median(&ttfb), "ms"));
    out.push(Metric::new("server.body_ms", median(&body), "ms"));
    out.push(Metric::new(
        "server.cache_hit_ratio",
        counter("cache_hits")? / counter("requested")?,
        "ratio",
    ));
    out.push(Metric::new(
        "server.executed",
        counter("executed")?,
        "count",
    ));
    out.push(Metric::new("server.deduped", counter("deduped")?, "count"));
    Ok(())
}

/// Runs every probe; returns the per-layer metrics.
pub fn run_all(t: &mut Tracer, run_dir: &Path) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    sim(t, &mut out);
    workloads(t, &mut out);
    net(t, &mut out);
    proto(t, &mut out)?;
    core(t, &mut out, run_dir)?;
    server(t, &mut out, run_dir)?;
    Ok(out)
}
