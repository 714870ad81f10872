//! The one command-line layer every experiment binary shares.
//!
//! Replaces the per-binary `Options` plumbing of the seed repo: parsing,
//! axis filters, workload construction and JSON emission all live here, so
//! a binary is just "build a grid, print a table, [`Cli::emit`] the
//! report". Each binary parses as itself ([`Cli::parse`] takes its
//! [`Bin`]), and one `match` in `Bin::reads` declares the flags it reads:
//! any other flag is a parse error naming the binary and the flag, never
//! a silent no-op.

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
    /// a local run; only `grid` reads it.
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

/// One usage row per flag; [`Bin::usage`] prints the rows a binary reads.
const USAGE: &str = "\
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
                      reassemble with grid-merge
  --gt-origin <n>     start every guarantee-time counter at raw Gt value
                      n (default 0). Stress knob: results are provably
                      origin-invariant, so seeding just below an era
                      rollover must reproduce the origin-0 artifact
                      byte for byte
  --remote <url>      submit the grid to a running sweep-server at
                      http://host:port instead of simulating locally;
                      the JSON artifact is byte-identical to a local
                      run (the execution knobs --shard, --resume and
                      --gt-origin stay local-side)
  --json <path>       write the run's GridReport JSON artifact
  --help              print this message";

/// One flag of the shared command line; see [`USAGE`] for each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flag {
    Scale,
    Seeds,
    Perturbation,
    Seed,
    Protocols,
    Topologies,
    Workloads,
    Net,
    Contention,
    Resume,
    Shard,
    GtOrigin,
    Remote,
    Json,
}

impl Flag {
    /// Every flag, in usage order.
    pub(crate) const ALL: [Flag; 14] = [
        Flag::Scale,
        Flag::Seeds,
        Flag::Perturbation,
        Flag::Seed,
        Flag::Protocols,
        Flag::Topologies,
        Flag::Workloads,
        Flag::Net,
        Flag::Contention,
        Flag::Resume,
        Flag::Shard,
        Flag::GtOrigin,
        Flag::Remote,
        Flag::Json,
    ];

    /// The flag as typed on the command line.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Flag::Scale => "--scale",
            Flag::Seeds => "--seeds",
            Flag::Perturbation => "--perturbation",
            Flag::Seed => "--seed",
            Flag::Protocols => "--protocols",
            Flag::Topologies => "--topologies",
            Flag::Workloads => "--workloads",
            Flag::Net => "--net",
            Flag::Contention => "--contention",
            Flag::Resume => "--resume",
            Flag::Shard => "--shard",
            Flag::GtOrigin => "--gt-origin",
            Flag::Remote => "--remote",
            Flag::Json => "--json",
        }
    }
}

/// The bench binaries that parse a [`Cli`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bin {
    /// The fully declarative runner.
    Grid,
    /// Figure 3 (normalised runtime).
    Fig3,
    /// Figure 4 (normalised link traffic).
    Fig4,
    /// Table 2 (unloaded latencies).
    Table2,
    /// Table 3 (benchmark characteristics).
    Table3,
    /// §5 bandwidth accounting.
    BandwidthBound,
    /// Design-choice ablations.
    Ablations,
    /// System-size sweep.
    Scaling,
    /// Single-miss latencies.
    Latency,
    /// Detailed-network occupancy × slack sweep.
    Contention,
}

impl Bin {
    /// The binary's name, as built by cargo.
    pub fn name(self) -> &'static str {
        match self {
            Bin::Grid => "grid",
            Bin::Fig3 => "fig3",
            Bin::Fig4 => "fig4",
            Bin::Table2 => "table2",
            Bin::Table3 => "table3",
            Bin::BandwidthBound => "bandwidth_bound",
            Bin::Ablations => "ablations",
            Bin::Scaling => "scaling",
            Bin::Latency => "latency",
            Bin::Contention => "contention",
        }
    }

    /// Whether this binary reads `flag`: the one declaration of each
    /// binary's command line. A binary that fixes an axis, measures its
    /// cells outside [`Cli::grid`] or assembles its report from several
    /// grids does not read the flags it would ignore. Only `grid` talks
    /// to a sweep-server.
    pub(crate) fn reads(self, flag: Flag) -> bool {
        use Flag::*;
        match self {
            Bin::Grid => true,
            Bin::Fig3 | Bin::Fig4 => flag != Remote,
            Bin::Table3 => !matches!(flag, Remote | Protocols | Topologies),
            Bin::Scaling => !matches!(flag, Remote | Protocols | Topologies | Workloads),
            Bin::BandwidthBound => !matches!(flag, Remote | Protocols | Workloads),
            // Two interleaved grids make one report: not one shardable grid.
            Bin::Contention => !matches!(flag, Remote | Shard | Protocols),
            Bin::Latency => matches!(flag, Protocols | Topologies | Json),
            Bin::Ablations => matches!(flag, Scale | Seed | Perturbation | Json),
            Bin::Table2 => flag == Json,
        }
    }

    /// The usage text, listing exactly the flags this binary reads.
    pub fn usage(self) -> String {
        let mut rows = USAGE.split("\n  --");
        let head = rows.next().unwrap_or_default();
        let mut text = format!("usage: {} [options]\n{head}", self.name());
        for row in rows {
            let name = format!("--{}", row.split(' ').next().unwrap_or_default());
            let flag = Flag::ALL.into_iter().find(|f| f.name() == name);
            // `--help` is no `Flag`: every binary takes it.
            if flag.is_none_or(|f| self.reads(f)) {
                text += "\n  --";
                text += row;
            }
        }
        text
    }
}

impl Cli {
    /// Parses `std::env::args` as binary `bin`, printing its usage and
    /// exiting on error (status 2) or `--help` (status 0).
    pub fn parse(bin: Bin) -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Cli::parse_from(bin, &args) {
            Ok(cli) => cli,
            Err(msg) => {
                if msg == "help" {
                    println!("{}", bin.usage());
                    std::process::exit(0);
                }
                eprintln!("error: {msg}\n{}", bin.usage());
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list as binary `bin` (testable core
    /// of [`Cli::parse`]). A flag `bin` does not read is an error.
    pub fn parse_from(bin: Bin, args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut explicit_net: Option<NetworkModelSpec> = None;
        let mut contention_ns: Option<u64> = None;
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_str();
            if arg == "--help" || arg == "-h" {
                return Err("help".into());
            }
            let flag = Flag::ALL
                .into_iter()
                .find(|f| f.name() == arg)
                .ok_or_else(|| format!("unknown option {arg}"))?;
            if !bin.reads(flag) {
                return Err(format!("{} does not take {arg}", bin.name()));
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("{arg} needs a value"))?;
            match flag {
                Flag::Scale => {
                    cli.scale = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| {
                            format!("--scale must be a positive number, got {value:?}")
                        })?;
                }
                Flag::Seeds => {
                    cli.seeds = value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(|| {
                            format!("--seeds must be a positive integer, got {value:?}")
                        })?;
                }
                Flag::Perturbation => {
                    cli.perturbation_ns = value
                        .parse()
                        .map_err(|_| format!("bad --perturbation {value:?}"))?;
                }
                Flag::Seed => {
                    cli.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?;
                }
                Flag::Protocols => {
                    cli.protocols = value
                        .split(',')
                        .map(|p| p.parse().map_err(|e| format!("{e}")))
                        .collect::<Result<_, _>>()?;
                }
                Flag::Topologies => {
                    cli.topologies = value
                        .split(',')
                        .map(|t| t.parse().map_err(|e| format!("{e}")))
                        .collect::<Result<_, _>>()?;
                }
                Flag::Workloads => {
                    cli.workloads =
                        Some(value.split(',').map(|w| w.to_ascii_lowercase()).collect());
                }
                Flag::Net => {
                    explicit_net = Some(value.parse().map_err(|e| format!("{e}"))?);
                }
                Flag::Contention => {
                    contention_ns = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad --contention {value:?}"))?,
                    );
                }
                Flag::Resume => cli.resume = Some(PathBuf::from(value)),
                Flag::Shard => {
                    let parsed = value
                        .split_once('/')
                        .and_then(|(i, n)| Some((i.parse::<u32>().ok()?, n.parse::<u32>().ok()?)));
                    cli.shard = parsed
                        .filter(|(i, n)| *n > 0 && i < n)
                        .ok_or_else(|| format!("--shard wants I/N with I < N, got {value:?}"))?;
                }
                Flag::GtOrigin => {
                    cli.gt_origin = value
                        .parse()
                        .map_err(|_| format!("bad --gt-origin {value:?}"))?;
                }
                Flag::Remote => cli.remote = Some(value.clone()),
                Flag::Json => cli.json = Some(PathBuf::from(value)),
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

    /// Parses as `grid`, the binary that reads every flag.
    fn grid(s: &[&str]) -> Result<Cli, String> {
        Cli::parse_from(Bin::Grid, &args(s))
    }

    #[test]
    fn defaults_match_documented_methodology() {
        let cli = grid(&[]).unwrap();
        assert!((cli.scale - 1.0 / 64.0).abs() < 1e-12);
        assert_eq!(cli.seeds, 3);
        assert_eq!(cli.perturbation_ns, 4);
        assert_eq!(cli.protocols, ProtocolKind::ALL.to_vec());
        assert_eq!(cli.topologies, TopologyKind::PAPER.to_vec());
        assert!(cli.json.is_none());
    }

    #[test]
    fn filters_parse() {
        let cli = grid(&[
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
        ])
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
        let cli = grid(&[]).unwrap();
        assert_eq!(cli.net, NetworkModelSpec::Fast);

        // --contention alone opts into the detailed model.
        let cli = grid(&["--contention", "5"]).unwrap();
        assert_eq!(cli.net, NetworkModelSpec::detailed(5));

        // --net detailed with an explicit occupancy override.
        let cli = grid(&["--net", "detailed:slack=4,depth=32", "--contention", "7"]).unwrap();
        assert_eq!(
            cli.net,
            NetworkModelSpec::Detailed {
                link_occupancy: tss_sim::Duration::from_ns(7),
                initial_slack: 4,
                buffer_depth: 32,
            }
        );

        // The acceptance-path spelling.
        let cli = grid(&["--net", "detailed", "--contention", "5"]).unwrap();
        assert_eq!(cli.net, NetworkModelSpec::detailed(5));

        // Contradictions and junk are rejected.
        assert!(grid(&["--net", "fast", "--contention", "5"]).is_err());
        assert!(grid(&["--net", "slow"]).is_err());
        assert!(grid(&["--contention", "x"]).is_err());
    }

    #[test]
    fn resume_and_shard_flags_parse() {
        let cli = grid(&[]).unwrap();
        assert_eq!(cli.shard, (0, 1));
        assert!(cli.resume.is_none());

        let cli = grid(&["--shard", "2/3", "--resume", "/tmp/cells"]).unwrap();
        assert_eq!(cli.shard, (2, 3));
        assert_eq!(
            cli.resume.as_deref(),
            Some(std::path::Path::new("/tmp/cells"))
        );

        for bad in ["3/3", "1/0", "2", "a/b", "-1/3", "1/3/5"] {
            assert!(
                grid(&["--shard", bad]).is_err(),
                "--shard {bad:?} should be rejected"
            );
        }

        // A shard whose output goes nowhere is wasted simulation.
        let err = grid(&["--shard", "0/2"]).unwrap_err();
        assert!(err.contains("--json"), "{err}");
        assert!(grid(&["--shard", "0/2", "--json", "p.json"]).is_ok());
        assert!(grid(&["--shard", "0/2", "--resume", "/tmp/c"]).is_ok());
    }

    #[test]
    fn sharded_grid_emits_a_partial_report() {
        let cli = grid(&[
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
        ])
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
        let cli = grid(&["--remote", "http://127.0.0.1:7070"]).unwrap();
        assert_eq!(cli.remote.as_deref(), Some("http://127.0.0.1:7070"));

        for (extra, needle) in [
            (&["--shard", "0/2", "--json", "p.json"][..], "--shard"),
            (&["--resume", "/tmp/cells"][..], "--resume"),
            (&["--gt-origin", "7"][..], "--gt-origin"),
        ] {
            let mut argv = args(&["--remote", "http://h:1"]);
            argv.extend(args(extra));
            let err = Cli::parse_from(Bin::Grid, &argv).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
        // gt-origin 0 is the server's behaviour anyway: allowed.
        assert!(grid(&["--remote", "http://h:1", "--gt-origin", "0"]).is_ok());
    }

    #[test]
    fn gt_origin_flag_parses() {
        let cli = grid(&[]).unwrap();
        assert_eq!(cli.gt_origin, 0);

        // The CI wraparound stress seeds a few ticks below the era edge.
        let near_edge = ((1u64 << 48) - 64).to_string();
        let cli = grid(&["--gt-origin", &near_edge]).unwrap();
        assert_eq!(cli.gt_origin, (1 << 48) - 64);

        assert!(grid(&["--gt-origin", "-1"]).is_err());
        assert!(grid(&["--gt-origin", "soon"]).is_err());
    }

    #[test]
    fn threads_flag_parses_and_stays_local() {
        // Cells run serially; the one thread knob is grid-level fan-out
        // (`ExperimentGrid::threads`), a library setting the CLI does not
        // expose. `--threads` is an unknown option locally and remotely.
        let err = grid(&["--threads", "2"]).unwrap_err();
        assert_eq!(err, "unknown option --threads");
        let err = grid(&["--remote", "http://h:1", "--threads", "4"]).unwrap_err();
        assert_eq!(err, "unknown option --threads");
        assert!(grid(&["--remote", "http://h:1"]).is_ok());
    }

    /// Each binary's flag contract, stated here independently of
    /// [`Bin::reads`]: a flag parses exactly where the table lists it, a
    /// refusal names the binary and the flag, `--help` lists the same
    /// set, and every invocation written down in the results script, CI,
    /// the verify notes and the README still parses (the argument-free
    /// ones trivially do).
    #[test]
    fn each_binary_reads_exactly_its_declared_flags() {
        use Flag::*;
        let all_but = |skip: &[Flag]| {
            Flag::ALL
                .into_iter()
                .filter(|f| !skip.contains(f))
                .collect()
        };
        let table: [(Bin, Vec<Flag>); 10] = [
            (Bin::Grid, Flag::ALL.to_vec()),
            (Bin::Fig3, all_but(&[Remote])),
            (Bin::Fig4, all_but(&[Remote])),
            (Bin::Table3, all_but(&[Remote, Protocols, Topologies])),
            (
                Bin::Scaling,
                all_but(&[Remote, Protocols, Topologies, Workloads]),
            ),
            (
                Bin::BandwidthBound,
                all_but(&[Remote, Protocols, Workloads]),
            ),
            (Bin::Contention, all_but(&[Remote, Shard, Protocols])),
            (Bin::Latency, vec![Protocols, Topologies, Json]),
            (Bin::Ablations, vec![Scale, Seed, Perturbation, Json]),
            (Bin::Table2, vec![Json]),
        ];
        let sample = "--scale 0.01 --seeds 2 --perturbation 5 --seed 1 --protocols dir-opt \
             --topologies torus --workloads oltp --net detailed --contention 5 \
             --resume /tmp/cells --shard 0/2 --gt-origin 7 --remote http://h:1 --json out.json";
        let sample = args(&sample.split_whitespace().collect::<Vec<_>>());
        for (bin, reads) in &table {
            let usage = bin.usage();
            for (flag, pair) in Flag::ALL.into_iter().zip(sample.chunks(2)) {
                let mut argv = pair.to_vec();
                if flag == Shard {
                    argv.extend(args(&["--json", "part.json"]));
                }
                let listed = reads.contains(&flag);
                match Cli::parse_from(*bin, &argv) {
                    Ok(_) => assert!(listed, "{bin:?} accepted {}", flag.name()),
                    Err(err) => {
                        assert_eq!(err, format!("{} does not take {}", bin.name(), flag.name()))
                    }
                }
                let in_usage = usage.contains(&format!("\n  {} ", flag.name()));
                assert_eq!(in_usage, listed, "{bin:?} usage vs {}", flag.name());
            }
        }

        for line in [
            // scripts/regen-results.sh
            "fig3 --json results/fig3.json",
            "grid --contention 5 --json results/grid.json",
            "contention --seeds 1 --topologies torus --json results/contention.json",
            // CI workflow
            "grid --workloads barnes --scale 0.002 --seeds 1 --topologies torus \
             --net detailed --contention 5 --gt-origin 281474976710640 --json /tmp/g.json",
            "latency --json /tmp/latency.json",
            "grid --workloads barnes,oltp --scale 0.002 --seeds 2 --shard 2/3 --json part-2.json",
            "grid --workloads barnes,oltp --scale 0.002 --seeds 2 --resume cells --json warm.json",
            "grid --workloads barnes --scale 0.002 --seeds 1 --topologies torus \
             --remote http://127.0.0.1:7171 --json remote.json",
            // Verify notes
            "fig3 --scale 0.004 --seeds 1",
            "contention --scale 0.005 --seeds 1 --topologies torus",
            "grid --protocols ts-snoop,dir-classic,dir-opt,tardis --workloads barnes \
             --scale 0.002 --seeds 1 --topologies torus --json four.json",
            // README and binary docs
            "grid --protocols ts-snoop,dir-opt --topologies torus:8x8 \
             --workloads oltp,dss --scale 0.005 --json results/big-torus.json",
            "contention --workloads oltp,barnes --topologies torus --json results/contention.json",
            "grid --topologies torus:16x16 --net detailed --contention 5 --json t.json",
            "grid --topologies torus:8x8 --resume /tmp/cells --json results/big.json",
            "grid --remote http://127.0.0.1:7070 --json results/full.json",
        ] {
            let words: Vec<&str> = line.split_whitespace().collect();
            let (bin, _) = table.iter().find(|(b, _)| b.name() == words[0]).unwrap();
            if let Err(err) = Cli::parse_from(*bin, &args(&words[1..])) {
                panic!("{line}: {err}");
            }
        }
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(grid(&["--scale", "0"]).is_err());
        assert!(grid(&["--scale", "-1"]).is_err());
        assert!(grid(&["--seeds", "0"]).is_err());
        assert!(grid(&["--protocols", "mesi"]).is_err());
        assert!(grid(&["--topologies", "ring"]).is_err());
        assert!(grid(&["--workloads", "specint"]).is_err());
        assert!(grid(&["--json"]).is_err());
        assert!(grid(&["--frobnicate", "1"]).is_err());
    }

    #[test]
    fn grid_carries_cli_axes() {
        let cli = grid(&[
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
        ])
        .unwrap();
        let report = cli.grid("cli-unit").run().unwrap();
        assert_eq!(report.protocols, vec![ProtocolKind::DirOpt]);
        assert_eq!(report.workloads, vec!["Barnes".to_string()]);
        assert_eq!(report.perturbation_ns, 5);
        assert_eq!(report.perturbation_runs, 2);
        assert_eq!(report.cells.len(), 2); // one workload x two topologies
    }
}
