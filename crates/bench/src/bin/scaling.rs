//! System-size scaling (§5 sensitivity discussion, §1's "snooping for
//! small systems, directories for large"): runs one workload on 4-, 16-
//! and 64-node tori and reports how timestamp snooping's runtime
//! advantage and bandwidth premium move as the system grows.
//!
//! Expected shape: the runtime win persists (unloaded model — latency
//! ratios barely change) while the bandwidth premium grows steeply with
//! node count, which is precisely why "at larger numbers of processors,
//! directory protocols [...] become increasingly attractive" once real
//! links saturate.

use tss::{ProtocolKind, TopologyKind};
use tss_bench::{Bin, Cli};
use tss_workloads::paper;

fn main() {
    let mut cli = Cli::parse(Bin::Scaling);
    cli.scale = cli.scale.min(1.0 / 128.0); // keep 64-node runs snappy
    println!(
        "System-size scaling: OLTP at scale {:.4}, torus fabrics, TS-Snoop vs DirOpt",
        cli.scale
    );
    let topologies = [
        TopologyKind::Torus {
            width: 2,
            height: 2,
        },
        TopologyKind::Torus4x4,
        TopologyKind::Torus {
            width: 8,
            height: 8,
        },
    ];
    let report = cli.run_grid(
        cli.grid("scaling")
            .protocols([ProtocolKind::TsSnoop, ProtocolKind::DirOpt])
            .topologies(topologies)
            .workloads(vec![paper::oltp(cli.scale)]),
    );
    println!(
        "{:>6} {:>14} {:>14} {:>10} {:>12} {:>12} {:>10}",
        "nodes", "TS runtime", "DirOpt rt", "TS faster", "TS bytes", "DirOpt bytes", "TS extra"
    );
    for &topology in &report.topologies {
        let ts = report.cell("OLTP", topology, ProtocolKind::TsSnoop);
        let dopt = report.cell("OLTP", topology, ProtocolKind::DirOpt);
        let (Some(ts), Some(dopt)) = (ts, dopt) else {
            continue;
        };
        println!(
            "{:>6} {:>12}ns {:>12}ns {:>9.0}% {:>12} {:>12} {:>9.0}%",
            topology.validate().expect("grid validated"),
            ts.runtime_ns(),
            dopt.runtime_ns(),
            100.0 * (dopt.runtime_ns() as f64 / ts.runtime_ns() as f64 - 1.0),
            ts.total_bytes(),
            dopt.total_bytes(),
            100.0 * (ts.total_bytes() as f64 / dopt.total_bytes() as f64 - 1.0),
        );
    }
    println!(
        "\nThe unloaded model keeps the latency win roughly flat; the broadcast\n\
         bandwidth premium grows with node count (cf. bandwidth_bound), which\n\
         is what eventually caps snooping's viable system size."
    );
    cli.emit(&report);
}
