//! Regenerates the **§5 back-of-the-envelope bandwidth accounting**:
//!
//! * one timestamp-snooping miss on the 16-node butterfly moves
//!   21·8 + 3·72 = **384 bytes** of link traffic; a minimal directory miss
//!   moves 3·8 + 3·72 = **240 bytes**, so snooping's extra bandwidth per
//!   miss is bounded by **60 %**;
//! * doubling the block size to 128 bytes drops the bound to **33 %**;
//! * growing the system grows the bound (broadcast cost), shrinking it
//!   shrinks it.
//!
//! A small measured grid (TS-Snoop vs DirOpt on OLTP) runs alongside to
//! show the simulator's observed premium stays inside the analytic bound.

use tss::analytic::bandwidth_bound;
use tss::ProtocolKind;
use tss_bench::{Bin, Cli};
use tss_net::Fabric;
use tss_workloads::paper;

fn row(label: &str, fabric: &Fabric, block: u64) {
    let b = bandwidth_bound(fabric, block);
    println!(
        "{:<34} {:>5}B {:>10.0} {:>10.0} {:>9.0}%",
        label,
        block,
        b.snooping_bytes,
        b.directory_bytes,
        100.0 * b.extra_fraction()
    );
}

fn main() {
    let cli = Cli::parse(Bin::BandwidthBound);
    println!("Section 5 bandwidth accounting (per miss, link-bytes)");
    println!(
        "{:<34} {:>6} {:>10} {:>10} {:>10}",
        "configuration", "block", "snooping", "directory", "TS extra"
    );
    let bf16 = Fabric::butterfly16();
    row("16-node butterfly (paper: 384/240)", &bf16, 64);
    row("16-node butterfly (paper: 33%)", &bf16, 128);
    row("16-node butterfly", &bf16, 256);
    let torus = Fabric::torus4x4();
    row("4x4 torus", &torus, 64);
    row("4x4 torus", &torus, 128);
    println!();
    println!("System-size sensitivity (64-byte blocks):");
    row(
        "4-node butterfly (radix-2)",
        &Fabric::butterfly(2, 2, 1),
        64,
    );
    row(
        "16-node butterfly (radix-4)",
        &Fabric::butterfly(4, 2, 1),
        64,
    );
    row(
        "64-node butterfly (radix-4)",
        &Fabric::butterfly(4, 3, 1),
        64,
    );
    row("2x2 torus (4 nodes)", &Fabric::torus(2, 2), 64);
    row("4x2 torus (8 nodes)", &Fabric::torus(4, 2), 64);
    row("4x4 torus (16 nodes)", &Fabric::torus(4, 4), 64);
    row("8x8 torus (64 nodes)", &Fabric::torus(8, 8), 64);

    // Measured cross-check: the simulator's actual premium vs the bound.
    let scale = (cli.scale / 4.0).min(1.0 / 256.0);
    let report = cli.run_grid(
        cli.grid("bandwidth_bound")
            .protocols([ProtocolKind::TsSnoop, ProtocolKind::DirOpt])
            .workloads(vec![paper::oltp(scale)]),
    );
    println!("\nMeasured premium (OLTP at scale {scale:.5}):");
    println!(
        "{:<16} {:>14} {:>14} {:>10} {:>8}",
        "topology", "TS bytes", "DirOpt bytes", "measured", "bound"
    );
    for &topo in &report.topologies {
        let ts = report.cell("OLTP", topo, ProtocolKind::TsSnoop);
        let dopt = report.cell("OLTP", topo, ProtocolKind::DirOpt);
        if let (Some(ts), Some(dopt)) = (ts, dopt) {
            let measured = ts.total_bytes() as f64 / dopt.total_bytes() as f64 - 1.0;
            let bound = bandwidth_bound(&topo.build(), 64).extra_fraction();
            println!(
                "{:<16} {:>14} {:>14} {:>9.0}% {:>7.0}%",
                topo.label(),
                ts.total_bytes(),
                dopt.total_bytes(),
                100.0 * measured,
                100.0 * bound
            );
        }
    }
    println!(
        "\n\"At larger number of processors, directory protocols [...] become\n\
         increasingly attractive. Conversely, reducing system size to 8 or 4\n\
         processors reduces the bandwidth requirements of timestamp snooping.\""
    );
    cli.emit(&report);
}
