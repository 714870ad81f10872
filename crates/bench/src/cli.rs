//! The one command-line layer every experiment binary shares.
//!
//! Replaces the per-binary `Options` plumbing of the seed repo: parsing,
//! axis filters, workload construction and JSON emission all live here, so
//! a binary is just "build a grid, print a table, [`Cli::emit`] the
//! report".

use std::path::PathBuf;

use tss::experiment::{ExperimentGrid, GridReport};
use tss::{NetworkModelSpec, ProtocolKind, TopologyKind};
use tss_workloads::{paper, WorkloadSpec};

use crate::{DEFAULT_PERTURBATION_NS, DEFAULT_SCALE, DEFAULT_SEEDS};

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Workload scale factor (fraction of the paper's footprints).
    pub scale: f64,
    /// Perturbation runs per configuration (§4.3 methodology).
    pub seeds: u64,
    /// Maximum response jitter (ns).
    pub perturbation_ns: u64,
    /// Workload seed.
    pub seed: u64,
    /// Protocol axis filter (defaults to all three).
    pub protocols: Vec<ProtocolKind>,
    /// Topology axis filter (defaults to the two paper fabrics).
    pub topologies: Vec<TopologyKind>,
    /// Workload name filter (`None` = every paper workload).
    pub workloads: Option<Vec<String>>,
    /// Address-network model (default: the closed-form fast model; see
    /// `--net` / `--contention`).
    pub net: NetworkModelSpec,
    /// Cell-store directory for `--resume`: finished cells are reused,
    /// fresh ones written back (kill-and-resume for long sweeps).
    pub resume: Option<PathBuf>,
    /// `--shard I/N`: run only this round-robin partition of each grid,
    /// emitting a partial report for `grid-merge`. `(0, 1)` = everything.
    pub shard: (u32, u32),
    /// `--gt-origin`: raw guarantee-time value every GT counter starts
    /// at. Harness knob for the wraparound stress check — results (and
    /// cell keys) are origin-invariant, so any value must reproduce the
    /// origin-0 artifact byte for byte.
    pub gt_origin: u64,
    /// `--remote <url>`: submit the grid to a running `sweep-server`
    /// instead of simulating locally. The artifact is byte-identical to
    /// a local run; only `grid` accepts it (see [`Cli::forbid_remote`]).
    pub remote: Option<String>,
    /// Where to write the run's [`GridReport`] JSON, if anywhere.
    pub json: Option<PathBuf>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: DEFAULT_SCALE,
            seeds: DEFAULT_SEEDS,
            perturbation_ns: DEFAULT_PERTURBATION_NS,
            seed: 0,
            protocols: ProtocolKind::ALL.to_vec(),
            topologies: TopologyKind::PAPER.to_vec(),
            workloads: None,
            net: NetworkModelSpec::Fast,
            resume: None,
            shard: (0, 1),
            gt_origin: 0,
            remote: None,
            json: None,
        }
    }
}

/// The usage text printed on `--help` or a parse error.
pub const USAGE: &str = "\
options:
  --scale <f>         workload scale factor (default 1/64)
  --seeds <n>         perturbation runs per cell (default 3)
  --perturbation <ns> max response jitter in ns (default 4)
  --seed <n>          workload seed (default 0)
  --protocols <list>  comma-separated: ts-snoop,dir-classic,dir-opt,tardis
                      (default is the paper's three; add tardis to
                      compare lease-renewal vs broadcast traffic)
  --topologies <list> comma-separated: butterfly,torus,torus:WxH,butterfly:RxSxP
  --workloads <list>  comma-separated: oltp,dss,apache,altavista,barnes
  --net <model>       address network: fast (default) or
                      detailed[:occ=<ns>,slack=<ticks>,depth=<entries>]
  --contention <ns>   link occupancy in ns; implies --net detailed
                      (0 = unloaded detailed run; TS-Snoop cells only,
                      expect runs several times slower than --net fast)
  --resume <dir>      content-addressed cell store: reuse finished cells,
                      write new ones back (a killed sweep resumes where
                      it stopped; the final artifact is byte-identical)
  --shard <i>/<n>     run only cells at grid index = i (mod n) and emit a
                      partial report (needs --json or --resume);
                      reassemble with grid-merge. Single-grid binaries
                      only; composite ones (latency, table2, ablations,
                      contention) reject it
  --gt-origin <n>     start every guarantee-time counter at raw Gt value
                      n (default 0). Stress knob: results are provably
                      origin-invariant, so seeding just below an era
                      rollover must reproduce the origin-0 artifact
                      byte for byte
  --remote <url>      submit the grid to a running sweep-server at
                      http://host:port instead of simulating locally;
                      the JSON artifact is byte-identical to a local
                      run (grid only; execution knobs --shard,
                      --resume and --gt-origin stay local-side)
  --json <path>       write the run's GridReport JSON artifact
  --help              print this message";

impl Cli {
    /// Parses `std::env::args`, printing usage and exiting on error or
    /// `--help`.
    pub fn parse() -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Cli::parse_from(&args) {
            Ok(cli) => cli,
            Err(msg) => {
                if msg == "help" {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                eprintln!("error: {msg}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (testable core of [`Cli::parse`]).
    pub fn parse_from(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut explicit_net: Option<NetworkModelSpec> = None;
        let mut contention_ns: Option<u64> = None;
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if flag == "--help" || flag == "-h" {
                return Err("help".into());
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("{flag} needs a value"))?;
            match flag {
                "--scale" => {
                    cli.scale = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| {
                            format!("--scale must be a positive number, got {value:?}")
                        })?;
                }
                "--seeds" => {
                    cli.seeds = value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(|| {
                            format!("--seeds must be a positive integer, got {value:?}")
                        })?;
                }
                "--perturbation" => {
                    cli.perturbation_ns = value
                        .parse()
                        .map_err(|_| format!("bad --perturbation {value:?}"))?;
                }
                "--seed" => {
                    cli.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?;
                }
                "--protocols" => {
                    cli.protocols = value
                        .split(',')
                        .map(|p| p.parse().map_err(|e| format!("{e}")))
                        .collect::<Result<_, _>>()?;
                }
                "--topologies" => {
                    cli.topologies = value
                        .split(',')
                        .map(|t| t.parse().map_err(|e| format!("{e}")))
                        .collect::<Result<_, _>>()?;
                }
                "--workloads" => {
                    cli.workloads =
                        Some(value.split(',').map(|w| w.to_ascii_lowercase()).collect());
                }
                "--net" => {
                    explicit_net = Some(value.parse().map_err(|e| format!("{e}"))?);
                }
                "--contention" => {
                    contention_ns = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad --contention {value:?}"))?,
                    );
                }
                "--resume" => cli.resume = Some(PathBuf::from(value)),
                "--shard" => {
                    let parsed = value
                        .split_once('/')
                        .and_then(|(i, n)| Some((i.parse::<u32>().ok()?, n.parse::<u32>().ok()?)));
                    cli.shard = parsed
                        .filter(|(i, n)| *n > 0 && i < n)
                        .ok_or_else(|| format!("--shard wants I/N with I < N, got {value:?}"))?;
                }
                "--gt-origin" => {
                    cli.gt_origin = value
                        .parse()
                        .map_err(|_| format!("bad --gt-origin {value:?}"))?;
                }
                "--remote" => cli.remote = Some(value.clone()),
                "--json" => cli.json = Some(PathBuf::from(value)),
                other => {
                    return Err(format!("unknown option {other}"));
                }
            }
            i += 2;
        }
        cli.net = match (explicit_net, contention_ns) {
            (None, None) => NetworkModelSpec::Fast,
            (Some(net), None) => net,
            // --contention alone opts into the detailed model.
            (None, Some(ns)) => NetworkModelSpec::detailed(ns),
            (Some(NetworkModelSpec::Fast), Some(_)) => {
                return Err(
                    "--contention needs the detailed model; drop --net fast or use \
                     --net detailed"
                        .into(),
                );
            }
            (
                Some(NetworkModelSpec::Detailed {
                    initial_slack,
                    buffer_depth,
                    ..
                }),
                Some(ns),
            ) => NetworkModelSpec::Detailed {
                link_occupancy: tss_sim::Duration::from_ns(ns),
                initial_slack,
                buffer_depth,
            },
        };
        // Surface bad workload names at parse time, not after a sweep.
        cli.paper_workloads()?;
        // A sharded run that writes neither a partial report nor a cell
        // store would simulate its slice and throw the results away.
        if cli.shard.1 > 1 && cli.json.is_none() && cli.resume.is_none() {
            return Err(
                "--shard needs --json <path> (the partial report is grid-merge's \
                 input) or --resume <dir> (to warm a shared cell store)"
                    .into(),
            );
        }
        // `--remote` moves execution to the server; the local execution
        // knobs would be silently ignored there, which is worse than an
        // error (the server shards nothing, resumes from *its own* store,
        // and always runs origin 0 — origin-invariant, but not what an
        // explicit flag asked for).
        if cli.remote.is_some() {
            if cli.shard.1 > 1 {
                return Err("--remote runs the whole grid server-side; drop --shard".into());
            }
            if cli.resume.is_some() {
                return Err("--remote caches in the server's own cell store; drop --resume".into());
            }
            if cli.gt_origin != 0 {
                return Err("--remote always simulates at gt-origin 0; drop --gt-origin".into());
            }
        }
        Ok(cli)
    }

    /// Aborts (exit 2) when `--shard` was given to a binary whose report
    /// is assembled from multiple grids or hand-measured cells: such a
    /// composite is not one round-robin slice of one grid, so its parts
    /// could neither merge nor safely pose as complete reports.
    pub fn forbid_shard(&self, bin: &str) {
        if self.shard.1 > 1 {
            eprintln!(
                "error: {bin} assembles a composite report that cannot be sharded; \
                 use the single-grid binaries (grid, fig3, fig4, scaling, table3, \
                 bandwidth_bound) with --shard, or run {bin} unsharded"
            );
            std::process::exit(2);
        }
    }

    /// Aborts (exit 2) when `--resume` was given to a binary that runs
    /// its cells outside [`Cli::grid`]: silently ignoring the flag would
    /// let the user believe finished work was being cached.
    pub fn forbid_resume(&self, bin: &str) {
        if self.resume.is_some() {
            eprintln!(
                "error: {bin} measures its cells outside the experiment grid, so \
                 --resume has nothing to cache; drop the flag"
            );
            std::process::exit(2);
        }
    }

    /// Aborts (exit 2) when `--remote` was given to a binary other than
    /// `grid`: the composite and fixed-axis binaries post-process their
    /// cells locally, so shipping the grid to a sweep-server would change
    /// what the binary means, not just where it runs.
    pub fn forbid_remote(&self, bin: &str) {
        if self.remote.is_some() {
            eprintln!(
                "error: {bin} does not speak to a sweep-server; use \
                 `grid --remote` for remote sweeps"
            );
            std::process::exit(2);
        }
    }

    /// The paper workloads selected by `--workloads`, at `--scale`, in
    /// Table 1 order ([`paper::select`]; `None` = all five).
    pub fn paper_workloads(&self) -> Result<Vec<WorkloadSpec>, String> {
        paper::select(self.scale, self.workloads.as_deref().unwrap_or(&[]))
    }

    /// An [`ExperimentGrid`] preloaded with this CLI's axes, seed and
    /// perturbation methodology. Workloads default to the `--workloads`
    /// selection; override with [`ExperimentGrid::workloads`] afterwards
    /// for binaries with a fixed workload.
    pub fn grid(&self, name: &str) -> ExperimentGrid {
        let mut grid = ExperimentGrid::new(name)
            .protocols(self.protocols.iter().copied())
            .topologies(self.topologies.iter().copied())
            .nets([self.net])
            .workloads(
                self.paper_workloads()
                    .expect("names validated at parse time"),
            )
            .seeds([self.seed])
            .perturbation(self.perturbation_ns, self.seeds)
            .shard(self.shard.0, self.shard.1)
            .gt_origin(self.gt_origin);
        if let Some(dir) = &self.resume {
            grid = grid.resume(dir);
        }
        grid
    }

    /// Runs a grid, reporting an invalid configuration (e.g. a degenerate
    /// `--topologies` entry) as a clean CLI error instead of a panic.
    pub fn run_grid(&self, grid: ExperimentGrid) -> GridReport {
        grid.run().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Writes the report to `--json` (if given) and mirrors *complete*
    /// reports to `results/<name>.json` for EXPERIMENTS.md bookkeeping —
    /// a `--shard` part must never overwrite the canonical committed
    /// artifact. IO errors on the mirror are ignored, errors on an
    /// explicit `--json` path abort.
    pub fn emit(&self, report: &GridReport) {
        if let Some(path) = &self.json {
            report.write_json(path).unwrap_or_else(|e| {
                eprintln!("error: cannot write --json {}: {e}", path.display());
                std::process::exit(2);
            });
            println!("\nwrote {}", path.display());
        }
        if report.is_complete() {
            let _ = report.write_json(format!("results/{}.json", report.name));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_match_documented_methodology() {
        let cli = Cli::parse_from(&[]).unwrap();
        assert!((cli.scale - 1.0 / 64.0).abs() < 1e-12);
        assert_eq!(cli.seeds, 3);
        assert_eq!(cli.perturbation_ns, 4);
        assert_eq!(cli.protocols, ProtocolKind::ALL.to_vec());
        assert_eq!(cli.topologies, TopologyKind::PAPER.to_vec());
        assert!(cli.json.is_none());
    }

    #[test]
    fn filters_parse() {
        let cli = Cli::parse_from(&args(&[
            "--protocols",
            "ts-snoop,dir-opt",
            "--topologies",
            "torus,torus:8x8",
            "--workloads",
            "oltp,barnes",
            "--json",
            "out.json",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(
            cli.protocols,
            vec![ProtocolKind::TsSnoop, ProtocolKind::DirOpt]
        );
        assert_eq!(
            cli.topologies,
            vec![
                TopologyKind::Torus4x4,
                TopologyKind::Torus {
                    width: 8,
                    height: 8
                }
            ]
        );
        let specs = cli.paper_workloads().unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "OLTP");
        assert_eq!(specs[1].name, "Barnes");
        assert_eq!(cli.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert_eq!(cli.seed, 9);
    }

    #[test]
    fn net_and_contention_flags_parse() {
        let cli = Cli::parse_from(&[]).unwrap();
        assert_eq!(cli.net, NetworkModelSpec::Fast);

        // --contention alone opts into the detailed model.
        let cli = Cli::parse_from(&args(&["--contention", "5"])).unwrap();
        assert_eq!(cli.net, NetworkModelSpec::detailed(5));

        // --net detailed with an explicit occupancy override.
        let cli = Cli::parse_from(&args(&[
            "--net",
            "detailed:slack=4,depth=32",
            "--contention",
            "7",
        ]))
        .unwrap();
        assert_eq!(
            cli.net,
            NetworkModelSpec::Detailed {
                link_occupancy: tss_sim::Duration::from_ns(7),
                initial_slack: 4,
                buffer_depth: 32,
            }
        );

        // The acceptance-path spelling.
        let cli = Cli::parse_from(&args(&["--net", "detailed", "--contention", "5"])).unwrap();
        assert_eq!(cli.net, NetworkModelSpec::detailed(5));

        // Contradictions and junk are rejected.
        assert!(Cli::parse_from(&args(&["--net", "fast", "--contention", "5"])).is_err());
        assert!(Cli::parse_from(&args(&["--net", "slow"])).is_err());
        assert!(Cli::parse_from(&args(&["--contention", "x"])).is_err());
    }

    #[test]
    fn resume_and_shard_flags_parse() {
        let cli = Cli::parse_from(&[]).unwrap();
        assert_eq!(cli.shard, (0, 1));
        assert!(cli.resume.is_none());

        let cli = Cli::parse_from(&args(&["--shard", "2/3", "--resume", "/tmp/cells"])).unwrap();
        assert_eq!(cli.shard, (2, 3));
        assert_eq!(
            cli.resume.as_deref(),
            Some(std::path::Path::new("/tmp/cells"))
        );

        for bad in ["3/3", "1/0", "2", "a/b", "-1/3", "1/3/5"] {
            assert!(
                Cli::parse_from(&args(&["--shard", bad])).is_err(),
                "--shard {bad:?} should be rejected"
            );
        }

        // A shard whose output goes nowhere is wasted simulation.
        let err = Cli::parse_from(&args(&["--shard", "0/2"])).unwrap_err();
        assert!(err.contains("--json"), "{err}");
        assert!(Cli::parse_from(&args(&["--shard", "0/2", "--json", "p.json"])).is_ok());
        assert!(Cli::parse_from(&args(&["--shard", "0/2", "--resume", "/tmp/c"])).is_ok());
    }

    #[test]
    fn sharded_grid_emits_a_partial_report() {
        let cli = Cli::parse_from(&args(&[
            "--workloads",
            "barnes",
            "--scale",
            "0.001",
            "--seeds",
            "1",
            "--topologies",
            "torus",
            "--shard",
            "1/3",
            "--json",
            "/tmp/unused-part.json", // required with --shard; not written here
        ]))
        .unwrap();
        let report = cli.grid("cli-shard-unit").run().unwrap();
        assert!(!report.is_complete());
        assert_eq!(report.shard.index, 1);
        assert_eq!(report.shard.total, 3);
        // 3 cells total (one workload x one topology x three protocols);
        // shard 1 of 3 holds exactly the middle one.
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].protocol, ProtocolKind::DirClassic);
    }

    #[test]
    fn remote_flag_parses_and_rejects_local_execution_knobs() {
        let cli = Cli::parse_from(&args(&["--remote", "http://127.0.0.1:7070"])).unwrap();
        assert_eq!(cli.remote.as_deref(), Some("http://127.0.0.1:7070"));

        for (extra, needle) in [
            (&["--shard", "0/2", "--json", "p.json"][..], "--shard"),
            (&["--resume", "/tmp/cells"][..], "--resume"),
            (&["--gt-origin", "7"][..], "--gt-origin"),
        ] {
            let mut argv = args(&["--remote", "http://h:1"]);
            argv.extend(args(extra));
            let err = Cli::parse_from(&argv).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
        // gt-origin 0 is the server's behaviour anyway: allowed.
        assert!(Cli::parse_from(&args(&["--remote", "http://h:1", "--gt-origin", "0"])).is_ok());
    }

    #[test]
    fn gt_origin_flag_parses() {
        let cli = Cli::parse_from(&[]).unwrap();
        assert_eq!(cli.gt_origin, 0);

        // The CI wraparound stress seeds a few ticks below the era edge.
        let near_edge = ((1u64 << 48) - 64).to_string();
        let cli = Cli::parse_from(&args(&["--gt-origin", &near_edge])).unwrap();
        assert_eq!(cli.gt_origin, (1 << 48) - 64);

        assert!(Cli::parse_from(&args(&["--gt-origin", "-1"])).is_err());
        assert!(Cli::parse_from(&args(&["--gt-origin", "soon"])).is_err());
    }

    #[test]
    fn threads_flag_parses_and_stays_local() {
        // Cells run serially; the one thread knob is grid-level fan-out
        // (`ExperimentGrid::threads`), a library setting the CLI does not
        // expose. `--threads` is an unknown option locally and remotely.
        let err = Cli::parse_from(&args(&["--threads", "2"])).unwrap_err();
        assert_eq!(err, "unknown option --threads");
        let err =
            Cli::parse_from(&args(&["--remote", "http://h:1", "--threads", "4"])).unwrap_err();
        assert_eq!(err, "unknown option --threads");
        assert!(Cli::parse_from(&args(&["--remote", "http://h:1"])).is_ok());
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(Cli::parse_from(&args(&["--scale", "0"])).is_err());
        assert!(Cli::parse_from(&args(&["--scale", "-1"])).is_err());
        assert!(Cli::parse_from(&args(&["--seeds", "0"])).is_err());
        assert!(Cli::parse_from(&args(&["--protocols", "mesi"])).is_err());
        assert!(Cli::parse_from(&args(&["--topologies", "ring"])).is_err());
        assert!(Cli::parse_from(&args(&["--workloads", "specint"])).is_err());
        assert!(Cli::parse_from(&args(&["--json"])).is_err());
        assert!(Cli::parse_from(&args(&["--frobnicate", "1"])).is_err());
    }

    #[test]
    fn grid_carries_cli_axes() {
        let cli = Cli::parse_from(&args(&[
            "--protocols",
            "dir-opt",
            "--workloads",
            "barnes",
            "--scale",
            "0.001",
            "--seeds",
            "2",
            "--perturbation",
            "5",
        ]))
        .unwrap();
        let report = cli.grid("cli-unit").run().unwrap();
        assert_eq!(report.protocols, vec![ProtocolKind::DirOpt]);
        assert_eq!(report.workloads, vec!["Barnes".to_string()]);
        assert_eq!(report.perturbation_ns, 5);
        assert_eq!(report.perturbation_runs, 2);
        assert_eq!(report.cells.len(), 2); // one workload x two topologies
    }
}
