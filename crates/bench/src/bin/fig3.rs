//! Regenerates **Figure 3: Normalized Runtime with Butterfly (left) and
//! Torus (right)** — runtimes of TS-Snoop, DirClassic and DirOpt on the
//! five workloads, normalised to TS-Snoop (smaller is better).
//!
//! Paper result: TS-Snoop runs 10–28 % / 6–28 % faster than DirClassic /
//! DirOpt on the butterfly, and 15–29 % / 6–23 % on the torus; DirClassic
//! on DSS is pathological (> 2× — the paper omits those bars).
//!
//! With a `--protocols` filter the table renders whatever protocols ran,
//! normalised to the first one listed.

use tss::ProtocolKind;
use tss_bench::{Bin, Cli};

fn main() {
    let cli = Cli::parse(Bin::Fig3);
    // Normalise to TS-Snoop when present (the paper's baseline), else to
    // the first protocol the user asked for.
    let baseline = if cli.protocols.contains(&ProtocolKind::TsSnoop) {
        ProtocolKind::TsSnoop
    } else {
        cli.protocols[0]
    };
    println!(
        "Figure 3: Normalized runtime ({baseline} = 1.00; scale {:.4}, min of {} perturbed runs)",
        cli.scale, cli.seeds
    );
    let report = cli.run_grid(cli.grid("fig3"));
    for &topo in &report.topologies {
        println!("\n[{}]", topo.label());
        print!("{:<10}", "workload");
        for &p in &report.protocols {
            print!(" {:>11}", p.to_string());
        }
        println!("  (slower-than-{baseline} %)");
        for workload in &report.workloads {
            let Some(base) = report.cell(workload, topo, baseline) else {
                continue;
            };
            let base = base.runtime_ns() as f64;
            print!("{workload:<10}");
            let mut pcts = Vec::new();
            for &p in &report.protocols {
                // "X is n% faster than Y" means TimeY/TimeX - 1 = n%
                // (paper footnote 4).
                match report.cell(workload, topo, p) {
                    Some(c) => {
                        let ratio = c.runtime_ns() as f64 / base;
                        print!(" {ratio:>11.2}");
                        if p != baseline {
                            pcts.push(format!("{}: {:+.0}%", p, (ratio - 1.0) * 100.0));
                        }
                    }
                    None => print!(" {:>11}", "-"),
                }
            }
            println!("  {}", pcts.join("  "));
        }
    }
    cli.emit(&report);
}
