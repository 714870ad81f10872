//! The two grid workloads: cells of an `ExperimentGrid`, run one at a
//! time on the calling thread through `plan()` + `run_or_load_cell`, each
//! one timed.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use serde_json::Value;
use tss::experiment::{run_or_load_cell, CellPlan, ExperimentGrid, GridPlan};
use tss::{
    GridReport, NetworkModelSpec, ProtocolKind, RunReport, System, SystemStats, TopologyKind,
};
use tss_workloads::{paper, TraceItem};

use crate::calib::{self, Calibrator};
use crate::golden::Goldens;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Metric, Outcome, SETUP_SAMPLES};

/// Figure 3's default scale; the committed `results/fig3.json` uses it.
pub const PAPER_SCALE: f64 = 1.0 / 64.0;
/// Below scale ≈ 1/310 every paper workload sits on its 2,000-ops-per-CPU
/// floor, so this is the cheapest detailed cell there is.
pub const CONTENTION_SCALE: f64 = 1.0 / 512.0;
/// Link occupancy (ns) of the heavily contended detailed network.
pub const CONTENDED_OCC_NS: u64 = 20;
/// Every cell is timed in at least three passes, so one slow stretch of
/// the host moves a third of a cell's samples, not half.
const MIN_PASSES: usize = 3;

/// Which grid workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridKind {
    /// Figure 3: four protocols × two fabrics × five workloads, fast net.
    PaperFast,
    /// TS-Snoop on the detailed token network, unloaded and contended.
    Contention,
}

impl GridKind {
    /// The workload name on the command line and in golden files.
    pub fn name(self) -> &'static str {
        match self {
            GridKind::PaperFast => "paper_fast",
            GridKind::Contention => "contention_detailed",
        }
    }

    /// Workload scale factor.
    pub fn scale(self) -> f64 {
        match self {
            GridKind::PaperFast => PAPER_SCALE,
            GridKind::Contention => CONTENTION_SCALE,
        }
    }

    /// The grid for workload seed `ws`.
    pub fn grid(self, ws: u64) -> ExperimentGrid {
        let base = ExperimentGrid::new(self.name())
            .workloads(paper::all(self.scale()))
            .seeds([ws]);
        match self {
            GridKind::PaperFast => base.protocols(ProtocolKind::WITH_TARDIS).perturbation(4, 3),
            GridKind::Contention => base
                .protocols([ProtocolKind::TsSnoop])
                .nets([
                    NetworkModelSpec::detailed(0),
                    NetworkModelSpec::detailed(CONTENDED_OCC_NS),
                ])
                .perturbation(4, 1),
        }
    }

    /// The tail percentile: the highest of p90 and p75 that keeps at least
    /// ten samples beyond it over the three-pass minimum (120 cells leave
    /// 12 beyond p90; 60 cells leave 15 beyond p75, 6 beyond p90). It is
    /// fixed per workload so that a run with more passes reports the same
    /// percentile.
    fn tail_p(self) -> f64 {
        match self {
            GridKind::PaperFast => 90.0,
            GridKind::Contention => 75.0,
        }
    }

    /// The untimed warm-up unit of set-up: the smallest workload
    /// (Barnes) with TS-Snoop on the torus.
    fn warmup(self, plan: &GridPlan) -> usize {
        plan.cells
            .iter()
            .position(|c| {
                c.spec.name == "Barnes"
                    && c.cfg.protocol == ProtocolKind::TsSnoop
                    && c.cfg.topology == TopologyKind::Torus4x4
            })
            .expect("every grid has a Barnes TS-Snoop torus cell")
    }
}

/// The golden id of one cell.
pub fn unit_id(cell: &CellPlan) -> String {
    format!(
        "s{}/{}/{}/{}/{}",
        cell.cfg.seed, cell.spec.name, cell.cfg.topology, cell.cfg.net, cell.cfg.protocol
    )
}

/// Simulated CPU memory operations one cell executes (every perturbed
/// run simulates the whole workload).
pub fn cell_ops(cell: &CellPlan) -> u64 {
    let nodes = cell.cfg.topology.build().num_nodes() as u64;
    cell.spec.ops_per_cpu * nodes * cell.runs
}

/// The references units are checked against.
struct References {
    goldens: Goldens,
    /// At workload seed 0 of `paper_fast`: `results/fig3.json`, by cell key.
    fig3: Option<(String, HashMap<String, String>)>,
}

impl References {
    fn load(kind: GridKind, ws: u64) -> Result<References, String> {
        let goldens = Goldens::load(kind.name())?;
        let fig3 = if kind == GridKind::PaperFast && ws == 0 {
            let text = std::fs::read_to_string("results/fig3.json")
                .map_err(|e| format!("cannot read results/fig3.json: {e}"))?;
            let report =
                GridReport::from_json(&text).map_err(|e| format!("results/fig3.json: {e}"))?;
            let cells = report
                .cells
                .iter()
                .filter_map(|c| Some((c.cell_key?.to_hex(), compact(c))))
                .collect();
            Some((text, cells))
        } else {
            None
        };
        Ok(References { goldens, fig3 })
    }

    fn check(&self, cell: &CellPlan, report: &RunReport) -> Result<(), String> {
        if let Some((_, fig3)) = &self.fig3 {
            if ProtocolKind::ALL.contains(&cell.cfg.protocol) {
                let key = cell.key.to_hex();
                let want = fig3
                    .get(&key)
                    .ok_or_else(|| format!("cell {key} is not in results/fig3.json"))?;
                return if *want == compact(report) {
                    Ok(())
                } else {
                    Err(format!(
                        "cell {key} ({}) differs from results/fig3.json",
                        unit_id(cell)
                    ))
                };
            }
        }
        self.goldens.check(&unit_id(cell), &report.stats)
    }

    /// At seed 0, the three-protocol cells reassembled into Figure 3's
    /// report must reproduce `results/fig3.json` byte for byte.
    fn check_document(&self, plan: &GridPlan, reports: &[Option<RunReport>]) -> Result<(), String> {
        let Some((text, _)) = &self.fig3 else {
            return Ok(());
        };
        let fig3 = ExperimentGrid::new("fig3")
            .workloads(paper::all(PAPER_SCALE))
            .perturbation(4, 3)
            .plan()
            .map_err(|e| e.to_string())?;
        let by_key: HashMap<_, _> = plan
            .cells
            .iter()
            .zip(reports)
            .filter_map(|(c, r)| Some((c.key, r.clone()?)))
            .collect();
        let cells = fig3
            .cells
            .iter()
            .map(|c| by_key.get(&c.key).cloned().ok_or("a Figure 3 cell failed"))
            .collect::<Result<Vec<_>, _>>()?;
        // `GridReport::write_json` ends the file with a newline.
        if fig3.report(cells).to_json() + "\n" == *text {
            Ok(())
        } else {
            Err("reassembled Figure 3 report differs from results/fig3.json".into())
        }
    }
}

/// A cell report as compact JSON with run provenance canonicalised, the
/// form a complete report serializes its cells in.
fn compact(report: &RunReport) -> String {
    let mut report = report.clone();
    report.cached = false;
    serde_json::to_string(&report).expect("value rendering is infallible")
}

/// One timed unit.
struct Unit {
    cell: usize,
    ms: f64,
    report: Option<RunReport>,
}

fn run_unit(plan: &GridPlan, cell: usize) -> Unit {
    let started = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| {
        run_or_load_cell(None, &plan.cells[cell])
    }))
    .ok();
    Unit {
        cell,
        ms: started.elapsed().as_secs_f64() * 1e3,
        report,
    }
}

/// Runs every cell once through the public decomposition of
/// `run_or_load_cell` — workload generation, `System::new`, `System::run`
/// per perturbed run — with a span around each step.
fn run_unit_traced(plan: &GridPlan, cell: usize, t: &mut Tracer) -> Option<RunReport> {
    let cell_plan = &plan.cells[cell];
    let unit = cell as u64;
    catch_unwind(AssertUnwindSafe(|| {
        t.span("core.unit", unit, |t| {
            let mut best: Option<SystemStats> = None;
            for s in 0..cell_plan.runs {
                let mut cfg = cell_plan.cfg.clone();
                cfg.perturbation_stream = s;
                if s > 0 && cfg.perturbation_ns == 0 {
                    break;
                }
                let nodes = cfg.topology.build().num_nodes();
                let traces: Vec<Vec<TraceItem>> = t.span("workloads.gen", unit, |_| {
                    (0..nodes)
                        .map(|c| cell_plan.spec.stream(c, nodes, cfg.seed).collect())
                        .collect()
                });
                let boxed = traces
                    .into_iter()
                    .map(|tr| {
                        Box::new(tr.into_iter()) as Box<dyn Iterator<Item = TraceItem> + Send>
                    })
                    .collect();
                let system = t.span("core.build", unit, |_| System::new(cfg.clone(), boxed));
                let result = t.span("core.run", unit, |_| system.run());
                if best
                    .as_ref()
                    .is_none_or(|b| result.stats.runtime < b.runtime)
                {
                    best = Some(result.stats);
                }
            }
            let stats = best.expect("at least one run");
            let mut report = RunReport::from_stats(
                cell_plan.spec.name.clone(),
                &cell_plan.cfg,
                cell_plan.runs,
                stats,
            );
            report.cell_key = Some(cell_plan.key);
            report
        })
    }))
    .ok()
}

/// Set-up: plan the grid and run one untimed warm-up unit.
fn setup(kind: GridKind, ws: u64) -> Result<(GridPlan, f64), String> {
    let started = Instant::now();
    let plan = kind.grid(ws).plan().map_err(|e| e.to_string())?;
    let warm = kind.warmup(&plan);
    run_or_load_cell(None, &plan.cells[warm]);
    Ok((plan, started.elapsed().as_secs_f64()))
}

/// Checks every unit against its reference; returns the failure count.
fn check_units(refs: &References, plan: &GridPlan, units: &[Unit]) -> u64 {
    let mut failed = 0;
    for u in units {
        let verdict = match &u.report {
            None => Err(format!("unit {} panicked", unit_id(&plan.cells[u.cell]))),
            Some(r) => refs.check(&plan.cells[u.cell], r),
        };
        if let Err(e) = verdict {
            eprintln!("FAILED: {e}");
            failed += 1;
        }
    }
    failed
}

fn class_counts(plan: &GridPlan, units: &[Unit]) -> Value {
    let mut counts: Vec<(String, Value)> = Vec::new();
    for u in units {
        let c = &plan.cells[u.cell];
        let class = format!("{}/{}", c.cfg.protocol, c.cfg.net);
        match counts.iter_mut().find(|(k, _)| *k == class) {
            Some((_, Value::U64(n))) => *n += 1,
            _ => counts.push((class, Value::U64(1))),
        }
    }
    Value::Object(counts)
}

/// The untraced run: end-to-end metrics. Every host time in them — each
/// cell's and each set-up's — is calibrated to the reference host's speed
/// by kernel samples taken just before and just after it (see
/// [`crate::calib`]); the stamp keeps the raw wall-clock figures.
pub fn measure(kind: GridKind, ws: u64, seconds: u64) -> Result<Outcome, String> {
    let refs = References::load(kind, ws)?;
    let mut cal = Calibrator::new();
    let (plan, first_setup) = setup(kind, ws)?;
    let mut setups = vec![cal.calibrate(first_setup)];

    // Cells run in whole passes until `seconds` of cell wall time have
    // passed. Set-up is repeated between cells, every `seconds /
    // SETUP_SAMPLES` of cell time, so the set-up samples span the same
    // stretch of host time as the cells; only cell time counts towards
    // the window.
    let spacing = seconds as f64 / SETUP_SAMPLES as f64;
    let mut units = Vec::new();
    let mut wall_ms = Vec::new();
    let mut pass_s = Vec::new();
    let mut window_s = 0.0;
    while pass_s.len() < MIN_PASSES || window_s < seconds as f64 {
        let mut pass = 0.0;
        for i in 0..plan.cells.len() {
            if setups.len() < SETUP_SAMPLES && window_s + pass >= setups.len() as f64 * spacing {
                let wall = setup(kind, ws)?.1;
                setups.push(cal.calibrate(wall));
            }
            let mut unit = run_unit(&plan, i);
            pass += unit.ms / 1e3;
            wall_ms.push(unit.ms);
            unit.ms = cal.calibrate(unit.ms);
            units.push(unit);
        }
        window_s += pass;
        pass_s.push(Value::F64(pass));
    }
    while setups.len() < SETUP_SAMPLES {
        let wall = setup(kind, ws)?.1;
        setups.push(cal.calibrate(wall));
    }

    let failed = check_units(&refs, &plan, &units);
    let first_pass: Vec<_> = units[..plan.cells.len()]
        .iter()
        .map(|u| u.report.clone())
        .collect();
    let mut correct = true;
    if let Err(e) = refs.check_document(&plan, &first_pass) {
        eprintln!("FAILED: {e}");
        correct = false;
    }
    let ok: Vec<usize> = (0..units.len())
        .filter(|&i| units[i].report.is_some())
        .collect();
    let ms: Vec<f64> = ok.iter().map(|&i| units[i].ms).collect();
    let raw_ms: Vec<f64> = ok.iter().map(|&i| wall_ms[i]).collect();
    let ops: u64 = ok
        .iter()
        .map(|&i| cell_ops(&plan.cells[units[i].cell]))
        .sum();
    let cell_s: f64 = ms.iter().sum::<f64>() / 1e3;
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("throughput_per_s", ops as f64 / cell_s, "1/s"),
        Metric::new("p50_ms", percentile(&ms, 50.0)?, "ms"),
        Metric::new("tail_ms", percentile(&ms, kind.tail_p())?, "ms"),
        Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MB"),
    ];
    let stamp = vec![
        ("scale".into(), Value::F64(kind.scale())),
        ("cells_per_pass".into(), Value::U64(plan.cells.len() as u64)),
        ("tail_percentile".into(), Value::F64(kind.tail_p())),
        ("pass_s".into(), Value::Array(pass_s)),
        ("units_per_class".into(), class_counts(&plan, &units)),
        ("window_s".into(), Value::F64(window_s)),
        (
            "setup_samples_s".into(),
            Value::Array(setups.iter().copied().map(Value::F64).collect()),
        ),
        ("sim_ops".into(), Value::U64(ops)),
        (
            "calibration_reference_ms".into(),
            Value::F64(calib::REFERENCE_MS),
        ),
        (
            "calibration_median_ms".into(),
            Value::F64(median(cal.samples())),
        ),
        (
            "wall_throughput_per_s".into(),
            Value::F64(ops as f64 / (raw_ms.iter().sum::<f64>() / 1e3)),
        ),
        ("wall_p50_ms".into(), Value::F64(percentile(&raw_ms, 50.0)?)),
        (
            "wall_tail_ms".into(),
            Value::F64(percentile(&raw_ms, kind.tail_p())?),
        ),
    ];
    Ok(Outcome {
        correct: correct && failed == 0,
        attempted: units.len() as u64,
        failed,
        metrics,
        stamp,
    })
}

/// The traced run's workload part: one untraced pass, then one traced
/// pass whose spans land in `t`; the kernel samples between cells lie
/// outside every span.
pub fn traced(kind: GridKind, ws: u64, t: &mut Tracer) -> Result<Outcome, String> {
    let refs = References::load(kind, ws)?;
    let (plan, _) = setup(kind, ws)?;
    let ops: u64 = plan.cells.iter().map(cell_ops).sum();

    // Both passes are calibrated cell by cell, as in the untraced run, so
    // the overhead compares the passes rather than the host's speed.
    let mut cal = Calibrator::new();
    let mut untraced_s = 0.0;
    let units: Vec<Unit> = (0..plan.cells.len())
        .map(|i| {
            let unit = run_unit(&plan, i);
            untraced_s += cal.calibrate(unit.ms) / 1e3;
            unit
        })
        .collect();
    let mut traced_s = 0.0;
    let traced_units: Vec<Unit> = (0..plan.cells.len())
        .map(|i| {
            let started = Instant::now();
            let report = run_unit_traced(&plan, i, t);
            traced_s += cal.calibrate(started.elapsed().as_secs_f64());
            Unit {
                cell: i,
                ms: 0.0,
                report,
            }
        })
        .collect();
    let (untraced, traced) = (ops as f64 / untraced_s, ops as f64 / traced_s);

    let failed = check_units(&refs, &plan, &units) + check_units(&refs, &plan, &traced_units);
    let stamp = vec![
        ("scale".into(), Value::F64(kind.scale())),
        ("cells_per_pass".into(), Value::U64(plan.cells.len() as u64)),
        ("units_per_class".into(), class_counts(&plan, &units)),
        ("untraced_throughput_per_s".into(), Value::F64(untraced)),
        ("traced_throughput_per_s".into(), Value::F64(traced)),
        (
            "trace_overhead_pct".into(),
            Value::F64((untraced / traced - 1.0) * 100.0),
        ),
    ];
    Ok(Outcome {
        correct: failed == 0,
        attempted: 2 * plan.cells.len() as u64,
        failed,
        metrics: Vec::new(),
        stamp,
    })
}
