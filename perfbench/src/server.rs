//! `server_mixed`: an in-process `SweepServer` (one cell worker, a fresh
//! store per set-up) driven by one closed-loop client that holds one
//! connection at a time and sends a seeded mix of three request classes.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde_json::Value;
use tss::experiment::{run_or_load_cell, CellPlan, CELL_REV};
use tss::{GridReport, NetworkModelSpec, ProtocolKind, RunReport, TopologyKind};
use tss_server::http::{self, ResponseHead};
use tss_server::{client, GridRequest, ServerConfig, SweepServer};
use tss_sim::rng::SimRng;

use crate::golden::Goldens;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Metric, Outcome, GOLDEN_SEEDS, SETUP_SAMPLES};

/// Every paper workload at this scale sits on its 2,000-ops-per-CPU floor.
pub const SCALE: f64 = 1.0 / 4096.0;
/// Requests per `--seconds`, calibrated so the baseline spends about
/// `--seconds` on them. The sequence length is fixed rather than timed so
/// every fresh-seed cell a run can ask for has a golden.
pub const REQUESTS_PER_SECOND: u64 = 25;
/// Of every 20 requests: 14 hits, 3 warm grids, 3 misses.
const MIX: [(Class, u64); 3] = [(Class::Hit, 14), (Class::Grid, 3), (Class::Miss, 3)];
/// Longest `--seconds` the golden pool of miss grids covers.
pub const MAX_SECONDS: u64 = 60;
/// Distinct miss grids with goldens.
pub const MISS_POOL: u64 = REQUESTS_PER_SECOND * MAX_SECONDS * 3 / 20;
const MISS_SEED_BASE: u64 = 1_000;
const WORKLOADS: [&str; 5] = ["oltp", "dss", "apache", "altavista", "barnes"];

/// A request class; each has its own latency metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `GET /v1/cells/{key}` of a warm cell.
    Hit,
    /// The warm grid: POST plus its progress stream, every cell cached.
    Grid,
    /// A grid of fresh-seed cells the server must compute and store.
    Miss,
}

/// One request of the sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// Fetch warm cell `key` (an index into the warm plan), with
    /// `If-None-Match` when `revalidate` (answered 304).
    Hit {
        /// Warm-plan cell index.
        key: usize,
        /// Send the current ETag.
        revalidate: bool,
    },
    /// Re-request the warm grid.
    Grid,
    /// Request miss grid `entry` of the pool.
    Miss {
        /// Pool entry.
        entry: u64,
    },
}

impl Req {
    /// The request's class.
    pub fn class(self) -> Class {
        match self {
            Req::Hit { .. } => Class::Hit,
            Req::Grid => Class::Grid,
            Req::Miss { .. } => Class::Miss,
        }
    }
}

/// The warm set: three protocols × two fabrics × five workloads.
pub fn warm_request(ws: u64) -> GridRequest {
    GridRequest {
        name: "warm".into(),
        scale: SCALE,
        protocols: ProtocolKind::ALL.to_vec(),
        topologies: TopologyKind::PAPER.to_vec(),
        nets: vec![NetworkModelSpec::Fast],
        workloads: Vec::new(),
        seeds: vec![ws],
        perturbation_ns: 4,
        perturbation_runs: 1,
    }
}

/// Miss grid `entry`: one workload and protocol on both fabrics, at a
/// seed no warm set uses.
pub fn miss_request(entry: u64) -> GridRequest {
    GridRequest {
        name: "miss".into(),
        protocols: vec![ProtocolKind::ALL[(entry / 5 % 3) as usize]],
        workloads: vec![WORKLOADS[(entry % 5) as usize].into()],
        seeds: vec![MISS_SEED_BASE + entry / 15],
        ..warm_request(0)
    }
}

fn plan_of(request: &GridRequest) -> Vec<CellPlan> {
    request
        .to_grid()
        .and_then(|g| g.plan().map_err(|e| e.to_string()))
        .expect("benchmark grids are valid")
        .cells
}

fn unit_id(cell: &CellPlan) -> String {
    format!(
        "s{}/{}/{}/{}",
        cell.cfg.seed, cell.spec.name, cell.cfg.topology, cell.cfg.protocol
    )
}

/// The request sequence for `seed` and `seconds`: fixed class counts in a
/// seeded order, seeded hit keys, half of the hits revalidating, and
/// distinct miss-pool entries.
pub fn sequence(seed: u64, seconds: u64) -> Vec<Req> {
    let blocks = REQUESTS_PER_SECOND * seconds / 20;
    let mut classes: Vec<Class> = MIX
        .iter()
        .flat_map(|&(class, per_block)| std::iter::repeat_n(class, (per_block * blocks) as usize))
        .collect();
    let mut rng = SimRng::from_seed_and_stream(seed, 0x5e9_0e5);
    for i in (1..classes.len()).rev() {
        classes.swap(i, rng.index(i + 1));
    }
    let warm_cells = ProtocolKind::ALL.len() * TopologyKind::PAPER.len() * WORKLOADS.len();
    let offset = rng.gen_range(0..MISS_POOL);
    let (mut hits, mut misses) = (0u64, 0u64);
    classes
        .into_iter()
        .map(|class| match class {
            Class::Hit => {
                hits += 1;
                Req::Hit {
                    key: rng.index(warm_cells),
                    revalidate: hits % 2 == 0,
                }
            }
            Class::Grid => Req::Grid,
            Class::Miss => {
                misses += 1;
                Req::Miss {
                    entry: (offset + misses - 1) % MISS_POOL,
                }
            }
        })
        .collect()
}

/// The benchmark's view of one server: cell fetches and grids go through
/// the repository's own client (`tss_server::client`); only the traced
/// probe uses [`Client::cell_traced`], which splits a fetch into
/// time-to-first-byte and body.
pub struct Client {
    authority: String,
    base_url: String,
}

/// What one exchange returned.
pub enum Reply {
    /// A cell fetch.
    Cell {
        /// Status code.
        status: u16,
        /// The `ETag` header.
        etag: Option<String>,
        /// The cell, when the status is 200.
        cell: Option<RunReport>,
    },
    /// A finished grid stream.
    Grid {
        /// The `cached` flag of every progress event, in order.
        cached: Vec<bool>,
        /// The final report.
        report: GridReport,
    },
}

fn etag_of(key: &str) -> String {
    format!("\"{CELL_REV}-{key}\"")
}

fn cell_reply(head: &ResponseHead, body: Vec<u8>) -> Result<Reply, String> {
    let cell = if head.status == 200 {
        let text = String::from_utf8(body).map_err(|e| e.to_string())?;
        Some(serde_json::from_str::<RunReport>(&text).map_err(|e| format!("bad cell body: {e}"))?)
    } else {
        None
    };
    Ok(Reply::Cell {
        status: head.status,
        etag: head.header("etag").map(str::to_string),
        cell,
    })
}

impl Client {
    /// A client for `server`.
    pub fn new(server: &SweepServer) -> Client {
        let authority = server.local_addr().to_string();
        Client {
            base_url: format!("http://{authority}"),
            authority,
        }
    }

    /// `GET /v1/cells/{key}`, optionally revalidating.
    pub fn cell(&self, key: &str, revalidate: bool) -> Result<Reply, String> {
        let etag = etag_of(key);
        let conditional = [("If-None-Match", etag.as_str())];
        let headers: &[(&str, &str)] = if revalidate { &conditional } else { &[] };
        let (head, body) = client::get(&self.base_url, &format!("/v1/cells/{key}"), headers)
            .map_err(|e| e.to_string())?;
        cell_reply(&head, body)
    }

    /// The same fetch with the response head read inside a `server.ttfb`
    /// span (connect, request, head) and the body inside `server.body`.
    pub fn cell_traced(
        &self,
        t: &mut Tracer,
        unit: u64,
        key: &str,
        revalidate: bool,
    ) -> Result<Reply, String> {
        let authority = &self.authority;
        let conditional = if revalidate {
            format!("If-None-Match: {}\r\n", etag_of(key))
        } else {
            String::new()
        };
        let (mut reader, head) = t.span("server.ttfb", unit, |_| {
            let mut stream = TcpStream::connect(authority).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .map_err(|e| e.to_string())?;
            write!(
                stream,
                "GET /v1/cells/{key} HTTP/1.1\r\nHost: {authority}\r\n{conditional}\
                 Connection: close\r\n\r\n"
            )
            .and_then(|_| stream.flush())
            .map_err(|e| e.to_string())?;
            let mut reader = BufReader::new(stream);
            let head = http::read_response_head(&mut reader).map_err(|e| e.to_string())?;
            Ok::<_, String>((reader, head))
        })?;
        let body = t
            .span("server.body", unit, |_| http::read_body(&mut reader, &head))
            .map_err(|e| e.to_string())?;
        cell_reply(&head, body)
    }

    /// `POST /v1/grids`, then the progress stream to its final report.
    pub fn grid(&self, request: &GridRequest) -> Result<Reply, String> {
        let mut cached = Vec::new();
        let report = client::run_remote(&self.base_url, request, |p| cached.push(p.cached))
            .map_err(|e| e.to_string())?;
        Ok(Reply::Grid { cached, report })
    }

    /// `GET /v1/stats`.
    pub fn stats(&self) -> Result<Value, String> {
        let (_, body) = client::get(&self.base_url, "/v1/stats", &[]).map_err(|e| e.to_string())?;
        serde_json::from_str(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string())
    }
}

/// The references for one workload seed: the warm plan and the goldens.
struct Refs {
    goldens: Goldens,
    warm: Vec<CellPlan>,
    warm_request: GridRequest,
}

impl Refs {
    fn check_grid(
        &self,
        reply: &Reply,
        plan: &[CellPlan],
        want_cached: bool,
    ) -> Result<(), String> {
        let Reply::Grid { cached, report } = reply else {
            return Err("expected a grid reply".into());
        };
        if cached.len() != plan.len() || cached.iter().any(|&c| c != want_cached) {
            return Err(format!(
                "grid cells cached {cached:?}, wanted all {want_cached}"
            ));
        }
        if report.cells.len() != plan.len() {
            return Err("grid report cell count differs from the plan".into());
        }
        for (cell, got) in plan.iter().zip(&report.cells) {
            if got.cell_key != Some(cell.key) {
                return Err(format!(
                    "grid report cell out of order at {}",
                    unit_id(cell)
                ));
            }
            self.goldens.check(&unit_id(cell), &got.stats)?;
        }
        Ok(())
    }

    fn check(&self, req: Req, reply: &Reply) -> Result<(), String> {
        match (req, reply) {
            (Req::Hit { key, revalidate }, Reply::Cell { status, etag, cell }) => {
                let plan = &self.warm[key];
                let want = format!("\"{CELL_REV}-{}\"", plan.key.to_hex());
                if etag.as_deref() != Some(want.as_str()) {
                    return Err(format!("cell {} ETag {etag:?}, wanted {want}", plan.key));
                }
                match (revalidate, status, cell) {
                    (true, 304, None) => Ok(()),
                    (false, 200, Some(cell)) => self.goldens.check(&unit_id(plan), &cell.stats),
                    _ => Err(format!(
                        "cell {} answered {status} (revalidate {revalidate})",
                        plan.key
                    )),
                }
            }
            (Req::Grid, reply) => self.check_grid(reply, &self.warm, true),
            (Req::Miss { entry }, reply) => {
                self.check_grid(reply, &plan_of(&miss_request(entry)), false)
            }
            _ => Err("reply does not match the request".into()),
        }
    }
}

fn send(
    client: &Client,
    refs: &Refs,
    t: &mut Tracer,
    unit: u64,
    req: Req,
) -> Result<Reply, String> {
    match req {
        Req::Hit { key, revalidate } => {
            let key = refs.warm[key].key.to_hex();
            if t.is_on() {
                client.cell_traced(t, unit, &key, revalidate)
            } else {
                client.cell(&key, revalidate)
            }
        }
        Req::Grid => client.grid(&refs.warm_request),
        Req::Miss { entry } => client.grid(&miss_request(entry)),
    }
}

/// A running server with its fresh store.
pub struct Running {
    /// The server.
    pub server: SweepServer,
    /// Its store directory, removed by [`Running::stop`].
    pub dir: PathBuf,
}

impl Running {
    /// Starts a server with one cell worker on a fresh store in `dir`.
    pub fn start(dir: PathBuf) -> Result<Running, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let server = SweepServer::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            store_dir: dir.clone(),
            workers: 1,
        })
        .map_err(|e| format!("cannot start the sweep server: {e}"))?;
        Ok(Running { server, dir })
    }

    /// Drains the server, waits for its threads, removes the store.
    pub fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Set-up: start the server, pre-populate the warm set through it, and
/// send one untimed warm-up hit.
fn setup(refs: &Refs, dir: PathBuf) -> Result<(Running, f64), String> {
    let started = Instant::now();
    let running = Running::start(dir)?;
    let client = Client::new(&running.server);
    let reply = client.grid(&refs.warm_request)?;
    refs.check_grid(&reply, &refs.warm, false)?;
    let warmup = Req::Hit {
        key: 0,
        revalidate: false,
    };
    let reply = send(&client, refs, &mut Tracer::off(), 0, warmup)?;
    refs.check(warmup, &reply)?;
    Ok((running, started.elapsed().as_secs_f64()))
}

/// One timed request.
struct Sent {
    req: Req,
    ms: f64,
    verdict: Result<(), String>,
}

/// Sends `seq`, whose first request is request `first` of the whole
/// sequence, timing each one; the replies are checked after the last.
fn run_sequence(
    client: &Client,
    refs: &Refs,
    first: usize,
    seq: &[Req],
    t: &mut Tracer,
) -> Vec<Sent> {
    let mut replies = Vec::with_capacity(seq.len());
    for (i, &req) in seq.iter().enumerate() {
        let unit = (first + i) as u64;
        let started = Instant::now();
        let reply = t.span("server.request", unit, |t| send(client, refs, t, unit, req));
        replies.push((req, started.elapsed().as_secs_f64() * 1e3, reply));
    }
    replies
        .into_iter()
        .map(|(req, ms, reply)| Sent {
            req,
            ms,
            verdict: reply.and_then(|r| refs.check(req, &r)),
        })
        .collect()
}

fn load_refs(ws: u64) -> Result<Refs, String> {
    let warm_request = warm_request(ws);
    Ok(Refs {
        goldens: Goldens::load("server_mixed")?,
        warm: plan_of(&warm_request),
        warm_request,
    })
}

fn count_failures(sent: &[Sent]) -> u64 {
    let mut failed = 0;
    for s in sent {
        if let Err(e) = &s.verdict {
            eprintln!("FAILED: {:?}: {e}", s.req);
            failed += 1;
        }
    }
    failed
}

fn class_ms(sent: &[Sent], class: Class) -> Vec<f64> {
    sent.iter()
        .filter(|s| s.req.class() == class && s.verdict.is_ok())
        .map(|s| s.ms)
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn measure(seed: u64, ws: u64, seconds: u64, run_dir: &Path) -> Result<Outcome, String> {
    let refs = load_refs(ws)?;
    let seq = sequence(seed, seconds);
    let (running, first_setup) = setup(&refs, run_dir.join("store-0"))?;
    let client = Client::new(&running.server);

    // The sequence runs in SETUP_SAMPLES stretches; between two of them
    // another server is set up on its own fresh store and stopped again,
    // so the set-up samples span the same stretch of host time as the
    // requests. Only the requests count towards the window.
    let mut setups = vec![first_setup];
    let mut sent = Vec::with_capacity(seq.len());
    let mut window_s = 0.0;
    for (k, part) in seq.chunks(seq.len().div_ceil(SETUP_SAMPLES)).enumerate() {
        if k > 0 {
            let (other, s) = setup(&refs, run_dir.join(format!("store-{k}")))?;
            other.stop();
            setups.push(s);
        }
        let started = Instant::now();
        sent.extend(run_sequence(
            &client,
            &refs,
            sent.len(),
            part,
            &mut Tracer::off(),
        ));
        window_s += started.elapsed().as_secs_f64();
    }
    let stats = client.stats();
    running.stop();

    let failed = count_failures(&sent);
    let hit = class_ms(&sent, Class::Hit);
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("throughput_per_s", seq.len() as f64 / window_s, "1/s"),
        Metric::new("p50_ms", percentile(&hit, 50.0)?, "ms"),
        Metric::new("tail_ms", percentile(&hit, 90.0)?, "ms"),
        Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MB"),
    ];
    let count = |c: Class| Value::U64(seq.iter().filter(|r| r.class() == c).count() as u64);
    let stamp = vec![
        ("scale".into(), Value::F64(SCALE)),
        (
            "units_per_class".into(),
            Value::Object(vec![
                ("hit".into(), count(Class::Hit)),
                ("grid".into(), count(Class::Grid)),
                ("miss".into(), count(Class::Miss)),
            ]),
        ),
        (
            "grid_p50_ms".into(),
            Value::F64(percentile(&class_ms(&sent, Class::Grid), 50.0)?),
        ),
        (
            "miss_p50_ms".into(),
            Value::F64(percentile(&class_ms(&sent, Class::Miss), 50.0)?),
        ),
        ("window_s".into(), Value::F64(window_s)),
        (
            "setup_samples_s".into(),
            Value::Array(setups.into_iter().map(Value::F64).collect()),
        ),
        ("server_stats".into(), stats.unwrap_or(Value::Null)),
    ];
    Ok(Outcome {
        correct: failed == 0,
        attempted: seq.len() as u64,
        failed,
        metrics,
        stamp,
    })
}

/// The traced run: the sequence once untraced, once traced.
pub fn traced(
    seed: u64,
    ws: u64,
    seconds: u64,
    run_dir: &Path,
    t: &mut Tracer,
) -> Result<Outcome, String> {
    let refs = load_refs(ws)?;
    let seq = sequence(seed, seconds);
    let mut rates = Vec::new();
    let mut failed = 0;
    for (i, tracer) in [&mut Tracer::off(), t].into_iter().enumerate() {
        let (running, _) = setup(&refs, run_dir.join(format!("store-{i}")))?;
        let client = Client::new(&running.server);
        let started = Instant::now();
        let sent = run_sequence(&client, &refs, 0, &seq, tracer);
        rates.push(seq.len() as f64 / started.elapsed().as_secs_f64());
        running.stop();
        failed += count_failures(&sent);
    }
    let stamp = vec![
        ("scale".into(), Value::F64(SCALE)),
        ("requests".into(), Value::U64(seq.len() as u64)),
        ("untraced_throughput_per_s".into(), Value::F64(rates[0])),
        ("traced_throughput_per_s".into(), Value::F64(rates[1])),
        (
            "trace_overhead_pct".into(),
            Value::F64((rates[0] / rates[1] - 1.0) * 100.0),
        ),
    ];
    Ok(Outcome {
        correct: failed == 0,
        attempted: 2 * seq.len() as u64,
        failed,
        metrics: Vec::new(),
        stamp,
    })
}

/// Records goldens for every warm set and every miss-pool grid.
pub fn record() -> Goldens {
    let mut goldens = Goldens::empty("server_mixed");
    let mut cells: Vec<CellPlan> = (0..GOLDEN_SEEDS)
        .flat_map(|ws| plan_of(&warm_request(ws)))
        .collect();
    cells.extend((0..MISS_POOL).flat_map(|e| plan_of(&miss_request(e))));
    for cell in &cells {
        goldens.record(unit_id(cell), &run_or_load_cell(None, cell).stats);
    }
    goldens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sequence_is_fixed_by_the_seed() {
        let a = sequence(5, 10);
        assert_eq!(a, sequence(5, 10));
        assert_ne!(a, sequence(6, 10));
        // 25 requests per second, in whole blocks of 20.
        assert_eq!(a.len(), 240);
        let count = |c: Class| a.iter().filter(|r| r.class() == c).count();
        assert_eq!(count(Class::Hit), 168);
        assert_eq!(count(Class::Grid), 36);
        assert_eq!(count(Class::Miss), 36);
        let revalidating = a
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Req::Hit {
                        revalidate: true,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(revalidating, 84);
    }

    #[test]
    fn miss_grids_are_distinct_in_the_longest_run() {
        let seq = sequence(3, MAX_SECONDS);
        let mut entries: Vec<u64> = seq
            .iter()
            .filter_map(|r| match r {
                Req::Miss { entry } => Some(*entry),
                _ => None,
            })
            .collect();
        let n = entries.len();
        entries.sort_unstable();
        entries.dedup();
        assert_eq!(entries.len(), n);
        let mut keys: Vec<_> = (0..MISS_POOL)
            .flat_map(|e| plan_of(&miss_request(e)))
            .map(|c| c.key)
            .collect();
        keys.extend(
            (0..GOLDEN_SEEDS)
                .flat_map(|ws| plan_of(&warm_request(ws)))
                .map(|c| c.key),
        );
        let total = keys.len();
        keys.sort_unstable_by_key(|k| k.to_hex());
        keys.dedup();
        assert_eq!(
            keys.len(),
            total,
            "miss cells never collide with each other or a warm set"
        );
    }
}
