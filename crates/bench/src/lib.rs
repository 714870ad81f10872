//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! Each binary in `src/bin/` reproduces one table or figure (or sweeps
//! beyond the paper):
//!
//! | target | artifact |
//! |---|---|
//! | `table2` | Table 2 — unloaded network latencies (analytic + measured) |
//! | `table3` | Table 3 — benchmark characteristics |
//! | `fig3` | Figure 3 — normalised runtime, butterfly & torus |
//! | `fig4` | Figure 4 — normalised link traffic by message class |
//! | `bandwidth_bound` | §5 bandwidth accounting, analytic + measured |
//! | `ablations` | slack sweep, block-size sensitivity, prefetch & contention ablations |
//! | `scaling` | 4/16/64-node system-size sweep (§5 sensitivity) |
//! | `latency` | per-protocol single-miss latencies vs the Table 2 closed forms |
//! | `grid` | fully declarative runner: every axis from the command line |
//! | `contention` | detailed-token-network sweep: link occupancy × initial slack vs the fast model |
//! | `perf` | simulator hot-path benchmarks → `BENCH_hotpath.json` (the perf trajectory; own CLI, see its docs) |
//! | `grid-merge` | reassembles `--shard I/N` partial reports into the canonical grid artifact |
//! | `cellstore` | cell-store maintenance: `gc [--purge] <dir>` (own CLI, see its docs) |
//!
//! The binaries above `perf` share one CLI ([`Cli`]), and each reads only
//! the flags it can honour (`Bin::reads`); any other flag is a parse
//! error (exit 2) naming the binary and the flag:
//!
//! | binary | reads |
//! |---|---|
//! | `grid` | every flag |
//! | `fig3`, `fig4` | all but `--remote` |
//! | `table3` | all but `--remote`, `--protocols`, `--topologies` |
//! | `scaling` | all but `--remote`, `--protocols`, `--topologies`, `--workloads` |
//! | `bandwidth_bound` | all but `--remote`, `--protocols`, `--workloads` |
//! | `contention` | all but `--remote`, `--shard`, `--protocols` |
//! | `latency` | `--protocols`, `--topologies`, `--json` |
//! | `ablations` | `--scale`, `--seed`, `--perturbation`, `--json` |
//! | `table2` | `--json` |
//!
//! `--help` on each binary describes its flags. The binaries construct
//! systems exclusively through [`tss::SystemBuilder`] /
//! [`tss::experiment::ExperimentGrid`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod harness;

pub use cli::{Bin, Cli};

/// Default workload scale for figure runs: 1/64 of the paper's footprint
/// and reference counts keeps a full Figure 3 grid under a few minutes.
pub const DEFAULT_SCALE: f64 = 1.0 / 64.0;

/// Default perturbation-seed count (the paper ran "a set" of perturbed
/// simulations; we default to 3).
pub const DEFAULT_SEEDS: u64 = 3;

/// Default response jitter in nanoseconds.
pub const DEFAULT_PERTURBATION_NS: u64 = 4;

/// Formats `x` as a ratio with two decimals relative to `base`.
pub fn norm(x: u64, base: u64) -> String {
    if base == 0 {
        "-".to_string()
    } else {
        format!("{:.2}", x as f64 / base as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_formats_and_guards_zero() {
        assert_eq!(norm(150, 100), "1.50");
        assert_eq!(norm(1, 0), "-");
    }
}
