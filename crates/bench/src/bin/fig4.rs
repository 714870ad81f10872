//! Regenerates **Figure 4: Normalized Link Traffic with Butterfly (left)
//! and Torus (right)** — per-link traffic of the three protocols split
//! into Data / Request / Nack / Misc classes, normalised to TS-Snoop.
//!
//! Paper result: TS-Snoop uses 13–43 % more link bandwidth than the
//! directory protocols on the butterfly and 17–37 % more on the torus
//! (equivalently, directories use 12–30 % less).

use tss::ProtocolKind;
use tss_bench::{Bin, Cli};

fn main() {
    let cli = Cli::parse(Bin::Fig4);
    // Normalise to TS-Snoop when present (the paper's baseline), else to
    // the first protocol the user asked for.
    let baseline = if cli.protocols.contains(&ProtocolKind::TsSnoop) {
        ProtocolKind::TsSnoop
    } else {
        cli.protocols[0]
    };
    println!(
        "Figure 4: Normalized link traffic ({baseline} = 1.00; scale {:.4})",
        cli.scale
    );
    let report = cli.run_grid(cli.grid("fig4"));
    for &topo in &report.topologies {
        println!("\n[{}]", topo.label());
        println!(
            "{:<10} {:<11} {:>6} {:>7} {:>6} {:>6} {:>7} {:>11}",
            "workload", "protocol", "Data", "Request", "Nack", "Misc", "total", "(base extra)"
        );
        for workload in &report.workloads {
            let Some(base_cell) = report.cell(workload, topo, baseline) else {
                continue;
            };
            let base = base_cell.total_bytes() as f64;
            for &p in &report.protocols {
                let Some(c) = report.cell(workload, topo, p) else {
                    continue;
                };
                let t = c.total_bytes() as f64;
                let share = |x: u64| x as f64 / base;
                let extra = if c.protocol == baseline {
                    String::new()
                } else {
                    format!("{:>+9.0}%", (base / t - 1.0) * 100.0)
                };
                println!(
                    "{:<10} {:<11} {:>6.2} {:>7.2} {:>6.2} {:>6.2} {:>7.2} {:>11}",
                    c.workload,
                    c.protocol.to_string(),
                    share(c.stats.traffic.data_bytes),
                    share(c.stats.traffic.request_bytes),
                    share(c.stats.traffic.nack_bytes),
                    share(c.stats.traffic.misc_bytes),
                    t / base,
                    extra
                );
            }
        }
    }
    println!("\n(base extra) = how much more link bandwidth {baseline} uses than that protocol.");
    cli.emit(&report);
}
