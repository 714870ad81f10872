//! Regenerates **Table 3: Benchmark Characteristics** — total data
//! touched, total misses, and the percentage of misses that are
//! cache-to-cache transfers ("3-hop misses"), per workload.
//!
//! The paper's column 3/4 values are averages over its runs; ours come
//! from a TS-Snoop run on the butterfly (protocols agree on these
//! workload-level characteristics to within noise). Paper targets shown
//! alongside for comparison; note the miss counts scale with `--scale`.

use tss::{ProtocolKind, TopologyKind};
use tss_bench::{Bin, Cli};

fn main() {
    let cli = Cli::parse(Bin::Table3);
    println!(
        "Table 3: Benchmark Characteristics (scale {:.4})",
        cli.scale
    );
    println!(
        "{:<10} {:>12} {:>12} {:>10} | {:>14} {:>12} {:>8}",
        "Benchmark", "Touched(MB)", "Misses", "3-Hop", "paper MB", "paper misses", "paper"
    );
    let paper_rows = [
        ("OLTP", 47.1, 5.3e6, 43),
        ("DSS", 8.7, 1.7e6, 60),
        ("Apache", 13.3, 2.3e6, 40),
        ("AltaVista", 15.3, 2.4e6, 40),
        ("Barnes", 4.0, 1.0e6, 43),
    ];
    let report = cli.run_grid(
        cli.grid("table3")
            .protocols([ProtocolKind::TsSnoop])
            .topologies([TopologyKind::Butterfly16]),
    );
    for cell in &report.cells {
        let (_, mb, misses, pct) = paper_rows
            .iter()
            .find(|(name, ..)| *name == cell.workload)
            .copied()
            .unwrap_or((/* non-paper workload */ "", f64::NAN, f64::NAN, 0));
        println!(
            "{:<10} {:>12.1} {:>12} {:>9.0}% | {:>14.1} {:>12.1e} {:>7}%",
            cell.workload,
            cell.stats.data_touched_mb,
            cell.stats.protocol.misses,
            100.0 * cell.c2c_fraction(),
            mb,
            misses,
            pct
        );
    }
    cli.emit(&report);
}
