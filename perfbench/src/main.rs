//! The repository benchmark. See `perfbench/README.md` for the workloads,
//! the metrics and which layer should move which number.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! perfbench --record-goldens
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics traced). The line before it stamps the run.

mod calib;
mod golden;
mod grid;
mod layers;
mod proto_loop;
mod server;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::Value;

use grid::GridKind;
use trace::Tracer;

/// Workload seeds with goldens: `--seed n` runs workload seed `n % 8`.
pub const GOLDEN_SEEDS: u64 = 8;
/// Set-ups per untraced run, one before the measured window and the rest
/// spread over it; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 9;

const USAGE: &str = "usage: perfbench --workload <paper_fast|contention_detailed|server_mixed> \
--seed <n> --seconds <1-60> --trace <0|1>\n       perfbench --record-goldens";

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric `name` of `value` in `unit`.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Every unit matched its reference.
    pub correct: bool,
    /// Units attempted.
    pub attempted: u64,
    /// Units that panicked, failed in transport, or differed from their
    /// reference.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Run-specific stamp fields.
    pub stamp: Vec<(String, Value)>,
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Command {
    Run(Args),
    RecordGoldens,
}

fn parse(argv: &[String]) -> Result<Command, String> {
    if argv == ["--record-goldens"] {
        return Ok(Command::RecordGoldens);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["paper_fast", "contention_detailed", "server_mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=server::MAX_SECONDS).contains(&seconds) {
        return Err(format!("--seconds must be 1..={}", server::MAX_SECONDS));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Command::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    }))
}

fn record_goldens() -> Result<(), String> {
    let save = |g: golden::Goldens, what: &str| {
        g.save().map_err(|e| format!("cannot write goldens: {e}"))?;
        eprintln!("recorded {} {what} goldens", g.len());
        Ok::<(), String>(())
    };
    for kind in [GridKind::PaperFast, GridKind::Contention] {
        let mut goldens = golden::Goldens::empty(kind.name());
        for ws in 0..GOLDEN_SEEDS {
            let plan = kind.grid(ws).plan().map_err(|e| e.to_string())?;
            for (cell, report) in plan.cells.iter().zip(plan.execute(None, 0)) {
                goldens.record(grid::unit_id(cell), &report.stats);
            }
        }
        save(goldens, kind.name())?;
    }
    save(server::record(), "server_mixed")
}

fn run(args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let ws = args.seed % GOLDEN_SEEDS;
    let kind = match args.workload.as_str() {
        "paper_fast" => Some(GridKind::PaperFast),
        "contention_detailed" => Some(GridKind::Contention),
        _ => None,
    };
    if !args.trace {
        return match kind {
            Some(kind) => grid::measure(kind, ws, args.seconds),
            None => server::measure(args.seed, ws, args.seconds, run_dir),
        };
    }
    let mut t = Tracer::on();
    let mut outcome = match kind {
        Some(kind) => grid::traced(kind, ws, &mut t)?,
        None => server::traced(args.seed, ws, args.seconds, run_dir, &mut t)?,
    };
    outcome.metrics = layers::run_all(&mut t, run_dir)?;

    let spans =
        Path::new(".bench_out").join(format!("trace-{}-seed{}.ndjson", args.workload, args.seed));
    t.write_ndjson(&spans)
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    let layers = t.layer_self_times();
    let all: u64 = layers.values().map(|l| l.self_ns).sum();
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>7}",
        "layer", "spans", "total_ms", "self_ms", "self%"
    );
    for (layer, l) in &layers {
        println!(
            "{layer:<10} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            l.count,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            100.0 * l.self_ns as f64 / all as f64
        );
    }
    for (name, s) in t.self_times() {
        println!(
            "  {name:<28} {:>8} {:>12.3} {:>12.3}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        );
    }
    if let Some(Value::F64(pct)) = outcome
        .stamp
        .iter()
        .find(|(k, _)| k == "trace_overhead_pct")
        .map(|(_, v)| v)
    {
        println!("trace overhead: {pct:+.2}% host time, traced pass vs untraced pass");
    }
    println!("spans written to {}", spans.display());
    Ok(outcome)
}

fn result_line(o: &Outcome) -> Result<String, String> {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            if m.value.is_finite() {
                Ok(format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                ))
            } else {
                Err(format!("metric {} is not a finite number", m.name))
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Command::Run(args)) => args,
        Ok(Command::RecordGoldens) => {
            return match record_goldens() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_dir: PathBuf = Path::new(".bench_out").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("error: cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    let line = outcome.and_then(|o| Ok((result_line(&o)?, o)));
    match line {
        Ok((line, outcome)) => {
            let mut stamp: Vec<(String, Value)> = vec![
                ("workload".into(), Value::Str(args.workload.clone())),
                ("seed".into(), Value::U64(args.seed)),
                ("workload_seed".into(), Value::U64(args.seed % GOLDEN_SEEDS)),
                ("seconds".into(), Value::U64(args.seconds)),
                ("trace".into(), Value::Bool(args.trace)),
                (
                    "host_cpus".into(),
                    Value::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
                ),
                (
                    "revision".into(),
                    Value::Str(std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".into())),
                ),
            ];
            stamp.extend(outcome.stamp);
            let stamp = serde_json::to_string(&Value::Object(stamp))
                .expect("value rendering is infallible");
            println!("stamp: {stamp}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
