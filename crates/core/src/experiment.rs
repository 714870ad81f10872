//! The declarative experiment API: define a grid of
//! {protocol × topology × network model × workload × seed} axes, run
//! every cell in parallel under the §4.3 perturbation methodology, and
//! get a stable, serializable [`GridReport`] back.
//!
//! The paper's whole evaluation is a grid — Figures 3/4 are
//! {TS-Snoop, DirClassic, DirOpt} × {butterfly, torus} × five workloads —
//! and Tardis-style timestamp protocols live or die by systematic sweeps,
//! so this module makes the grid the first-class object: every bench
//! binary, example, and integration test plugs a [`ExperimentGrid`] (or a
//! hand-assembled [`GridReport`]) into the same JSON schema. The
//! [`ExperimentGrid::nets`] axis extends the evaluation past the paper's
//! unloaded assumption: put [`NetworkModelSpec::Fast`] first as the
//! baseline and detailed/contended variants after it.
//!
//! ```
//! use tss::experiment::ExperimentGrid;
//! use tss::{NetworkModelSpec, ProtocolKind, TopologyKind};
//! use tss_workloads::paper;
//!
//! let report = ExperimentGrid::new("doc-demo")
//!     .protocols([ProtocolKind::TsSnoop])
//!     .topologies([TopologyKind::Torus4x4])
//!     .nets([NetworkModelSpec::Fast, NetworkModelSpec::detailed(5)])
//!     .workloads(vec![paper::barnes(0.001)])
//!     .seeds([1])
//!     .run()
//!     .expect("valid grid");
//! assert_eq!(report.cells.len(), 2); // one fast cell, one contended cell
//! let json = report.to_json();
//! let back = tss::experiment::GridReport::from_json(&json).unwrap();
//! assert_eq!(back.nets.len(), 2);
//! ```

use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Mutex;

use tss_proto::CacheConfig;
use tss_workloads::WorkloadSpec;

use crate::cellstore::CellStore;
use crate::config::{
    ConfigError, NetworkModelSpec, ProtocolKind, SystemConfig, Timing, TopologyKind,
};
use crate::methodology::min_over_perturbations_with_perf;
use crate::scheduler::WorkStealScheduler;
use crate::system::{HostPerf, SystemStats};

/// Version stamp of the [`GridReport`] JSON schema. Bump when a field is
/// renamed, removed, or changes meaning; additions are backward-safe for
/// readers but still get a bump so [`GridReport::from_json`] can fill the
/// older documents in (the migration path ROADMAP asks for).
///
/// History:
/// * **1** — initial schema (PR 2).
/// * **2** — adds the network-model axis: `nets` on the report, `net` on
///   every cell. v1 documents predate the axis and migrate by filling in
///   `"fast"`, which is what every v1 run actually used.
/// * **3** — content-addressed cells and sharding: `cell_key` and `cached`
///   on every cell, `shard` on the report. v2 documents migrate with
///   `cell_key = null` (the key hashes configuration details a serialized
///   cell does not carry, so it cannot be reconstructed), `cached = false`
///   and the unsharded `shard` stamp.
pub const SCHEMA_VERSION: u32 = 3;

/// The code-revision salt mixed into every [`CellKey`].
///
/// Bump this whenever a change makes the simulator produce *different
/// results* for the same configuration (new timing model, protocol fix,
/// workload-generator change …) so stale [`CellStore`] entries keyed by
/// the old revision stop matching instead of silently resurrecting
/// results the current code would not produce. Pure performance work that
/// keeps reports byte-identical (the `queue_swap_pin` guarantee) must NOT
/// bump it — that is the whole point of a content address.
pub const CELL_REV: u32 = 4;

/// The content address of one experiment cell: a 128-bit fingerprint over
/// everything that determines the cell's [`RunReport`] — protocol,
/// topology, network model, cache geometry, Table 2 timing, processor
/// rate, the full [`WorkloadSpec`] (not just its name), the workload
/// seed, the §4.3 perturbation methodology (jitter bound and run count) —
/// plus the [`CELL_REV`] code-revision salt.
///
/// Because a grid cell is a pure function of those inputs (the
/// byte-identical `GridReport` guarantee), the key is a valid *identity*:
/// two cells with equal keys would produce equal reports, so a finished
/// cell can be cached in a [`CellStore`], skipped on resume, or computed
/// by a different process or CI job and merged back in. Fields that
/// cannot change the reported stats (`verify`, `record_observations`, the
/// internally-swept `perturbation_stream`) are canonicalised out. The
/// grid *name* is deliberately excluded: the same configuration run by
/// `fig3` and by `grid` is the same cell.
///
/// Serialized as a fixed-width 32-digit lowercase hex string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey(u128);

impl CellKey {
    /// Computes the key for one grid cell.
    pub fn compute(cfg: &SystemConfig, spec: &WorkloadSpec, perturbation_runs: u64) -> CellKey {
        // Canonicalise the fields that cannot affect the reported stats,
        // so e.g. a verifying test run and a bare benchmark run of the
        // same cell share one identity.
        let mut canon = cfg.clone();
        canon.perturbation_stream = 0;
        canon.verify = false;
        canon.record_observations = false;
        let doc = serde_json::Value::Object(vec![
            ("rev".into(), serde_json::Value::U64(u64::from(CELL_REV))),
            ("config".into(), serde_json::to_value(&canon)),
            ("workload".into(), serde_json::to_value(spec)),
            (
                "perturbation_runs".into(),
                serde_json::Value::U64(perturbation_runs),
            ),
        ]);
        let text = serde_json::to_string(&doc).expect("value rendering is infallible");
        CellKey(tss_sim::hash::fingerprint128(text.as_bytes()))
    }

    /// The fixed-width hex form used in JSON and [`CellStore`] filenames.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl FromStr for CellKey {
    type Err = serde_json::Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 {
            return Err(serde_json::Error::msg(format!(
                "cell key must be 32 hex digits, got {} chars",
                s.len()
            )));
        }
        u128::from_str_radix(s, 16)
            .map(CellKey)
            .map_err(|_| serde_json::Error::msg(format!("invalid cell key {s:?}")))
    }
}

impl serde::Serialize for CellKey {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_hex())
    }
}

impl serde::Deserialize for CellKey {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => s.parse(),
            _ => Err(serde::Error::msg("expected a hex cell-key string")),
        }
    }
}

/// Which slice of a grid a [`GridReport`] covers: shard `index` of
/// `total` round-robin partitions of the cell list. `{0, 1}` — the whole
/// grid — is the unsharded stamp every complete report carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ShardSpec {
    /// Which partition this report holds (`< total`).
    pub index: u32,
    /// How many partitions the grid was split into.
    pub total: u32,
}

impl ShardSpec {
    /// The unsharded stamp: the single shard covering the whole grid.
    pub const FULL: ShardSpec = ShardSpec { index: 0, total: 1 };
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.total)
    }
}

/// One measured cell of an experiment grid: the configuration echo plus
/// everything the run recorded.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RunReport {
    /// Content address of this cell ([`CellKey`], schema ≥ 3). `None`
    /// (JSON `null`) for cells measured outside an [`ExperimentGrid`] —
    /// hand-assembled latency/ablation reports and migrated pre-v3
    /// documents — which carry no full [`WorkloadSpec`] to hash.
    pub cell_key: Option<CellKey>,
    /// Workload name (a [`WorkloadSpec::name`], possibly annotated by
    /// ablation harnesses, e.g. `"OLTP[S=8]"`).
    pub workload: String,
    /// The protocol that ran.
    pub protocol: ProtocolKind,
    /// The fabric it ran on.
    pub topology: TopologyKind,
    /// The address-network model it ran under.
    pub net: NetworkModelSpec,
    /// Workload seed.
    pub seed: u64,
    /// §4.3 response-jitter bound (ns) applied to each run.
    pub perturbation_ns: u64,
    /// How many perturbed runs the reported minimum was taken over.
    pub perturbation_runs: u64,
    /// Whether this cell was served from a [`CellStore`] instead of being
    /// simulated (schema ≥ 3). Run provenance, not cell identity: partial
    /// (sharded) reports serialize it faithfully so CI can see what a
    /// resume skipped, while complete reports canonicalise it to `false`
    /// — see [`GridReport::to_json`].
    pub cached: bool,
    /// The minimum-runtime run's measurements.
    pub stats: SystemStats,
}

impl RunReport {
    /// Wraps stats measured outside an [`ExperimentGrid`] (latency
    /// microbenchmarks, ablation sweeps) in the grid cell schema.
    pub fn from_stats(
        workload: impl Into<String>,
        cfg: &SystemConfig,
        perturbation_runs: u64,
        stats: SystemStats,
    ) -> RunReport {
        RunReport {
            cell_key: None,
            workload: workload.into(),
            protocol: cfg.protocol,
            topology: cfg.topology,
            net: cfg.net,
            seed: cfg.seed,
            perturbation_ns: cfg.perturbation_ns,
            perturbation_runs,
            cached: false,
            stats,
        }
    }

    /// Simulated runtime in nanoseconds (Figure 3's quantity).
    pub fn runtime_ns(&self) -> u64 {
        self.stats.runtime.as_ns()
    }

    /// Total link-bytes over all classes (Figure 4's quantity).
    pub fn total_bytes(&self) -> u64 {
        self.stats.traffic.total()
    }

    /// Fraction of misses served cache-to-cache (Table 3 "3-hop misses").
    pub fn c2c_fraction(&self) -> f64 {
        self.stats.c2c_fraction()
    }
}

/// A complete, diffable experiment artifact: the grid definition echoed
/// back plus one [`RunReport`] per cell, in deterministic
/// workload-major → topology → protocol → seed order.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GridReport {
    /// JSON schema version ([`SCHEMA_VERSION`]).
    pub schema: u32,
    /// What produced this report (binary or experiment name).
    pub name: String,
    /// Which slice of the grid this report covers (schema ≥ 3). The axis
    /// echoes below always describe the *whole* grid, so
    /// [`GridReport::merge`] can validate that partial reports belong
    /// together and reassemble them.
    pub shard: ShardSpec,
    /// Protocol axis, in run order.
    pub protocols: Vec<ProtocolKind>,
    /// Topology axis, in run order.
    pub topologies: Vec<TopologyKind>,
    /// Network-model axis, in run order (schema ≥ 2; v1 documents
    /// migrate to `[fast]`).
    pub nets: Vec<NetworkModelSpec>,
    /// Workload axis (names), in run order.
    pub workloads: Vec<String>,
    /// Seed axis, in run order.
    pub seeds: Vec<u64>,
    /// §4.3 response-jitter bound (ns).
    pub perturbation_ns: u64,
    /// Perturbed runs per cell.
    pub perturbation_runs: u64,
    /// The measured cells.
    pub cells: Vec<RunReport>,
}

impl GridReport {
    /// Assembles a report from independently measured cells, deriving the
    /// axis echoes from the cells themselves (first-seen order).
    pub fn from_cells(name: impl Into<String>, cells: Vec<RunReport>) -> GridReport {
        let mut protocols = Vec::new();
        let mut topologies = Vec::new();
        let mut nets = Vec::new();
        let mut workloads = Vec::new();
        let mut seeds = Vec::new();
        for c in &cells {
            if !protocols.contains(&c.protocol) {
                protocols.push(c.protocol);
            }
            if !topologies.contains(&c.topology) {
                topologies.push(c.topology);
            }
            if !nets.contains(&c.net) {
                nets.push(c.net);
            }
            if !workloads.contains(&c.workload) {
                workloads.push(c.workload.clone());
            }
            if !seeds.contains(&c.seed) {
                seeds.push(c.seed);
            }
        }
        let perturbation_ns = cells.first().map_or(0, |c| c.perturbation_ns);
        let perturbation_runs = cells.first().map_or(1, |c| c.perturbation_runs);
        GridReport {
            schema: SCHEMA_VERSION,
            name: name.into(),
            shard: ShardSpec::FULL,
            protocols,
            topologies,
            nets,
            workloads,
            seeds,
            perturbation_ns,
            perturbation_runs,
            cells,
        }
    }

    /// Whether this report covers its whole grid (the unsharded
    /// [`ShardSpec::FULL`] stamp) rather than one partition of it.
    pub fn is_complete(&self) -> bool {
        self.shard.total == 1
    }

    /// How many of this report's cells were served from a [`CellStore`].
    pub fn cached_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.cached).count()
    }

    /// Finds the cell for one (workload, topology, protocol) at the first
    /// net and seed run, if any. With a multi-model grid this is the
    /// first entry of the `nets` axis — conventionally the fast baseline;
    /// use [`GridReport::cell_for_net`] to pick a specific model.
    pub fn cell(
        &self,
        workload: &str,
        topology: TopologyKind,
        protocol: ProtocolKind,
    ) -> Option<&RunReport> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.topology == topology && c.protocol == protocol)
    }

    /// Finds the cell for one (workload, topology, protocol, net) at the
    /// first seed, if it was run.
    pub fn cell_for_net(
        &self,
        workload: &str,
        topology: TopologyKind,
        protocol: ProtocolKind,
        net: NetworkModelSpec,
    ) -> Option<&RunReport> {
        self.cells.iter().find(|c| {
            c.workload == workload
                && c.topology == topology
                && c.protocol == protocol
                && c.net == net
        })
    }

    /// Renders the report as pretty JSON. Deterministic: the same grid run
    /// with the same seeds produces byte-identical output.
    ///
    /// A **complete** report (see [`GridReport::is_complete`]) serializes
    /// in canonical form: every cell's `cached` provenance flag is
    /// normalised to `false`, so the artifact is a pure function of the
    /// grid definition — byte-identical whether the grid ran cold, was
    /// killed and resumed from a [`CellStore`], or was sharded across
    /// processes and reassembled by [`GridReport::merge`]. Partial
    /// (sharded) reports keep their `cached` flags so CI logs show what a
    /// resume actually skipped.
    pub fn to_json(&self) -> String {
        let mut value = serde_json::to_value(self);
        if self.is_complete() {
            if let Some(serde_json::Value::Array(cells)) = value_get_mut(&mut value, "cells") {
                for cell in cells {
                    if let Some(cached) = value_get_mut(cell, "cached") {
                        *cached = serde_json::Value::Bool(false);
                    }
                }
            }
        }
        serde_json::to_string_pretty(&value).expect("report serialization is infallible")
    }

    /// Parses a report back from JSON, migrating older schema versions
    /// forward: a v1 document (which predates the network-model axis)
    /// loads with `nets = [fast]` and `net = fast` on every cell — what
    /// every v1 run actually used. Unknown future schemas are an error,
    /// not a guess.
    pub fn from_json(text: &str) -> Result<GridReport, serde_json::Error> {
        let mut value: serde_json::Value = serde_json::from_str(text)?;
        migrate_report_value(&mut value)?;
        serde_json::from_value(&value)
    }

    /// Reassembles the complete grid report from one partial report per
    /// shard, in any order.
    ///
    /// Validates that the parts describe the *same* grid (schema, name,
    /// every axis, perturbation methodology), that they form exactly one
    /// disjoint cover of `0..total` shard indices, and that each part
    /// holds exactly the cells its round-robin stamp implies — then
    /// interleaves the cells back into grid order and re-checks every
    /// cell's configuration echo against the grid position it landed in.
    /// The result carries the unsharded [`ShardSpec::FULL`] stamp and
    /// canonical provenance, so its [`GridReport::to_json`] is
    /// byte-identical to a single-process run of the same grid.
    pub fn merge(mut parts: Vec<GridReport>) -> Result<GridReport, MergeError> {
        if parts.is_empty() {
            return Err(MergeError::NoParts);
        }
        parts.sort_by_key(|p| p.shard.index);
        let first = &parts[0];
        let total = first.shard.total;
        for p in &parts {
            let mismatch = |field| MergeError::GridMismatch {
                field,
                shard: p.shard.index,
            };
            if p.schema != first.schema {
                return Err(mismatch("schema"));
            }
            if p.name != first.name {
                return Err(mismatch("name"));
            }
            if p.shard.total != total {
                return Err(mismatch("shard total"));
            }
            if p.protocols != first.protocols {
                return Err(mismatch("protocols"));
            }
            if p.topologies != first.topologies {
                return Err(mismatch("topologies"));
            }
            if p.nets != first.nets {
                return Err(mismatch("nets"));
            }
            if p.workloads != first.workloads {
                return Err(mismatch("workloads"));
            }
            if p.seeds != first.seeds {
                return Err(mismatch("seeds"));
            }
            if p.perturbation_ns != first.perturbation_ns {
                return Err(mismatch("perturbation_ns"));
            }
            if p.perturbation_runs != first.perturbation_runs {
                return Err(mismatch("perturbation_runs"));
            }
        }
        for pair in parts.windows(2) {
            if pair[0].shard.index == pair[1].shard.index {
                return Err(MergeError::DuplicateShard {
                    index: pair[0].shard.index,
                });
            }
        }
        for (at, p) in parts.iter().enumerate() {
            if p.shard.index != at as u32 {
                return Err(MergeError::MissingShard {
                    index: at as u32,
                    total,
                });
            }
        }
        if parts.len() != total as usize {
            // Indices 0..len were contiguous, so the missing one is len.
            return Err(MergeError::MissingShard {
                index: parts.len() as u32,
                total,
            });
        }

        let cell_count = first.workloads.len()
            * first.topologies.len()
            * first.nets.len()
            * first.protocols.len()
            * first.seeds.len();
        for p in &parts {
            // Round-robin: shard i holds the cells at global index ≡ i.
            let expected = (0..cell_count).filter(|j| j % parts.len() == p.shard.index as usize);
            let expected = expected.count();
            if p.cells.len() != expected {
                return Err(MergeError::CellCountMismatch {
                    shard: p.shard.index,
                    expected,
                    got: p.cells.len(),
                });
            }
        }

        let mut merged = GridReport {
            schema: first.schema,
            name: first.name.clone(),
            shard: ShardSpec::FULL,
            protocols: first.protocols.clone(),
            topologies: first.topologies.clone(),
            nets: first.nets.clone(),
            workloads: first.workloads.clone(),
            seeds: first.seeds.clone(),
            perturbation_ns: first.perturbation_ns,
            perturbation_runs: first.perturbation_runs,
            cells: Vec::with_capacity(cell_count),
        };
        for j in 0..cell_count {
            let mut cell = parts[j % parts.len()].cells[j / parts.len()].clone();
            // The merged report is a fresh complete artifact; provenance
            // of the individual parts does not survive into it.
            cell.cached = false;
            merged.cells.push(cell);
        }
        // Defense in depth: the interleave above trusts the parts' cell
        // order; re-derive the grid order and check every echo.
        let mut j = 0;
        for workload in &merged.workloads {
            for &topology in &merged.topologies {
                for &net in &merged.nets {
                    for &protocol in &merged.protocols {
                        for &seed in &merged.seeds {
                            let c = &merged.cells[j];
                            if c.workload != *workload
                                || c.topology != topology
                                || c.net != net
                                || c.protocol != protocol
                                || c.seed != seed
                            {
                                return Err(MergeError::CellOrderMismatch { index: j });
                            }
                            j += 1;
                        }
                    }
                }
            }
        }
        Ok(merged)
    }

    /// Writes pretty JSON (plus a trailing newline) to `path`, creating
    /// parent directories as needed.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json() + "\n")
    }
}

/// Mutable lookup of one object field (the serde stub's [`serde::Value`]
/// has no `get_mut`).
fn value_get_mut<'v>(v: &'v mut serde_json::Value, key: &str) -> Option<&'v mut serde_json::Value> {
    match v {
        serde_json::Value::Object(entries) => entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, value)| value),
        _ => None,
    }
}

/// Upgrades an older [`GridReport`] JSON document in place to
/// [`SCHEMA_VERSION`], one released schema per step, so a saved artifact
/// from any prior PR keeps loading (ROADMAP: "add a migration path in
/// `GridReport::from_json` rather than bumping blindly").
fn migrate_report_value(v: &mut serde_json::Value) -> Result<(), serde_json::Error> {
    loop {
        let schema = match v.get("schema") {
            Some(serde_json::Value::U64(s)) => *s,
            _ => {
                return Err(serde_json::Error::msg(
                    "GridReport JSON has no schema stamp",
                ))
            }
        };
        match schema {
            1 => migrate_v1_to_v2(v)?,
            2 => migrate_v2_to_v3(v)?,
            s if s == u64::from(SCHEMA_VERSION) => return Ok(()),
            newer => {
                return Err(serde_json::Error::msg(format!(
                    "unsupported GridReport schema {newer} (this build reads 1..={SCHEMA_VERSION})"
                )))
            }
        }
    }
}

/// v1 → v2: the network-model axis did not exist; every run used the fast
/// model. Insert the axis next to `topologies` and stamp each cell,
/// keeping field positions deterministic.
fn migrate_v1_to_v2(v: &mut serde_json::Value) -> Result<(), serde_json::Error> {
    let fast = || serde_json::Value::Str("fast".into());
    let serde_json::Value::Object(fields) = v else {
        return Err(serde_json::Error::msg("expected a GridReport object"));
    };
    let at = fields
        .iter()
        .position(|(k, _)| k == "topologies")
        .map_or(fields.len(), |i| i + 1);
    fields.insert(at, ("nets".into(), serde_json::Value::Array(vec![fast()])));
    for (key, value) in fields.iter_mut() {
        match (key.as_str(), value) {
            ("schema", value) => *value = serde_json::Value::U64(2),
            ("cells", serde_json::Value::Array(cells)) => {
                for cell in cells {
                    let serde_json::Value::Object(cell_fields) = cell else {
                        continue;
                    };
                    let at = cell_fields
                        .iter()
                        .position(|(k, _)| k == "topology")
                        .map_or(cell_fields.len(), |i| i + 1);
                    cell_fields.insert(at, ("net".into(), fast()));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// v2 → v3: content addressing and sharding did not exist. Every v2
/// document is a complete, cold run, so it gets the unsharded `shard`
/// stamp and `cached = false` on every cell. `cell_key` hashes the full
/// cell configuration (workload spec, cache, timing …), which a
/// serialized cell does not carry — it migrates as `null`, the same
/// "no identity" marker hand-assembled cells use.
fn migrate_v2_to_v3(v: &mut serde_json::Value) -> Result<(), serde_json::Error> {
    let serde_json::Value::Object(fields) = v else {
        return Err(serde_json::Error::msg("expected a GridReport object"));
    };
    let at = fields
        .iter()
        .position(|(k, _)| k == "name")
        .map_or(fields.len(), |i| i + 1);
    let shard = serde_json::Value::Object(vec![
        ("index".into(), serde_json::Value::U64(0)),
        ("total".into(), serde_json::Value::U64(1)),
    ]);
    fields.insert(at, ("shard".into(), shard));
    for (key, value) in fields.iter_mut() {
        match (key.as_str(), value) {
            ("schema", value) => *value = serde_json::Value::U64(3),
            ("cells", serde_json::Value::Array(cells)) => {
                for cell in cells {
                    let serde_json::Value::Object(cell_fields) = cell else {
                        continue;
                    };
                    cell_fields.insert(0, ("cell_key".into(), serde_json::Value::Null));
                    let at = cell_fields
                        .iter()
                        .position(|(k, _)| k == "perturbation_runs")
                        .map_or(cell_fields.len(), |i| i + 1);
                    cell_fields.insert(at, ("cached".into(), serde_json::Value::Bool(false)));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Why [`GridReport::merge`] refused a set of partial reports.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// No parts were supplied.
    NoParts,
    /// A part's grid definition (name, axes, methodology or schema)
    /// disagrees with the first part's.
    GridMismatch {
        /// Which field disagreed.
        field: &'static str,
        /// The shard index of the offending part.
        shard: u32,
    },
    /// Two parts claim the same shard index.
    DuplicateShard {
        /// The index claimed twice.
        index: u32,
    },
    /// A shard of the declared partition count is missing.
    MissingShard {
        /// The absent index.
        index: u32,
        /// The partition count the parts declare.
        total: u32,
    },
    /// A part does not hold exactly the cells its shard stamp implies.
    CellCountMismatch {
        /// The offending shard index.
        shard: u32,
        /// Cells the shard stamp implies.
        expected: usize,
        /// Cells the part holds.
        got: usize,
    },
    /// A reassembled cell's configuration echo does not match the grid
    /// position it landed in (a part was produced by a different grid
    /// despite matching axes, or was edited).
    CellOrderMismatch {
        /// Global cell index that disagreed.
        index: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoParts => f.write_str("no partial reports to merge"),
            MergeError::GridMismatch { field, shard } => {
                write!(
                    f,
                    "shard {shard} was run on a different grid: {field} differs"
                )
            }
            MergeError::DuplicateShard { index } => {
                write!(f, "two parts claim shard index {index}")
            }
            MergeError::MissingShard { index, total } => {
                write!(f, "shard {index}/{total} is missing from the parts")
            }
            MergeError::CellCountMismatch {
                shard,
                expected,
                got,
            } => {
                write!(
                    f,
                    "shard {shard} holds {got} cells but its stamp implies {expected}"
                )
            }
            MergeError::CellOrderMismatch { index } => {
                write!(
                    f,
                    "reassembled cell {index} does not match its grid position"
                )
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// A declarative grid of experiment axes — see the module docs.
///
/// Cells run in parallel (scoped threads, one queue, deterministic result
/// order) and each cell applies the §4.3 min-over-perturbations
/// methodology internally.
#[derive(Debug, Clone)]
pub struct ExperimentGrid {
    name: String,
    protocols: Vec<ProtocolKind>,
    topologies: Vec<TopologyKind>,
    nets: Vec<NetworkModelSpec>,
    workloads: Vec<WorkloadSpec>,
    seeds: Vec<u64>,
    perturbation_ns: u64,
    perturbation_runs: u64,
    timing: Timing,
    cache: CacheConfig,
    verify: bool,
    threads: usize,
    resume: Option<PathBuf>,
    shard: ShardSpec,
    gt_origin: u64,
}

impl ExperimentGrid {
    /// Starts a grid with the paper's fixed axes prefilled: all three
    /// protocols, both Figure 2 topologies, seed 0, no perturbation, and
    /// paper timing/caches. Workloads start empty and must be supplied.
    pub fn new(name: impl Into<String>) -> ExperimentGrid {
        ExperimentGrid {
            name: name.into(),
            protocols: ProtocolKind::ALL.to_vec(),
            topologies: TopologyKind::PAPER.to_vec(),
            nets: vec![NetworkModelSpec::Fast],
            workloads: Vec::new(),
            seeds: vec![0],
            perturbation_ns: 0,
            perturbation_runs: 1,
            timing: Timing::default(),
            cache: CacheConfig::paper_default(),
            verify: false,
            threads: 0,
            resume: None,
            shard: ShardSpec::FULL,
            gt_origin: 0,
        }
    }

    /// Attaches a [`CellStore`] directory: finished cells found there are
    /// loaded instead of re-simulated (marked `cached` in the returned
    /// report), and freshly simulated cells are written back — so a
    /// killed sweep resumes where it stopped, and concurrent shards can
    /// share one warm store. The directory is created if missing.
    pub fn resume(mut self, dir: impl Into<PathBuf>) -> Self {
        self.resume = Some(dir.into());
        self
    }

    /// Restricts the run to shard `index` of `total` round-robin
    /// partitions of the cell list (cells at global index ≡ `index` mod
    /// `total`), producing a partial report for [`GridReport::merge`].
    /// Round-robin — rather than contiguous chunks — spreads the slow
    /// detailed-net and large-workload cells evenly across shards. The
    /// default `(0, 1)` runs the whole grid.
    pub fn shard(mut self, index: u32, total: u32) -> Self {
        self.shard = ShardSpec { index, total };
        self
    }

    /// Replaces the protocol axis.
    pub fn protocols(mut self, protocols: impl IntoIterator<Item = ProtocolKind>) -> Self {
        self.protocols = protocols.into_iter().collect();
        self
    }

    /// Replaces the topology axis.
    pub fn topologies(mut self, topologies: impl IntoIterator<Item = TopologyKind>) -> Self {
        self.topologies = topologies.into_iter().collect();
        self
    }

    /// Replaces the network-model axis (default: the closed-form fast
    /// model only, the paper's unloaded assumption). Put the baseline
    /// first: [`GridReport::cell`] resolves to the first entry.
    pub fn nets(mut self, nets: impl IntoIterator<Item = NetworkModelSpec>) -> Self {
        self.nets = nets.into_iter().collect();
        self
    }

    /// Replaces the workload axis.
    pub fn workloads(mut self, workloads: Vec<WorkloadSpec>) -> Self {
        self.workloads = workloads;
        self
    }

    /// Replaces the seed axis (one grid pass per seed).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the §4.3 methodology: jitter bound and number of perturbed
    /// runs per cell (the reported stats are the minimum-runtime run's).
    pub fn perturbation(mut self, ns: u64, runs: u64) -> Self {
        self.perturbation_ns = ns;
        self.perturbation_runs = runs;
        self
    }

    /// Overrides Table 2 timing for every cell.
    pub fn timing(mut self, timing: Timing) -> Self {
        self.timing = timing;
        self
    }

    /// Overrides the L2 geometry for every cell.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Runs every cell with the coherence checker on (slower; tests).
    pub fn verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Seeds every guarantee-time counter at `origin` raw [`tss_sim::Gt`]
    /// ticks. A harness knob, not cell identity: it is excluded from the
    /// serialized [`SystemConfig`] (and thus from [`CellKey`]) because a
    /// run seeded just below the era rollover must be byte-identical to
    /// the same run at origin 0 — that equivalence is exactly what the CI
    /// wraparound stress check asserts.
    pub fn gt_origin(mut self, origin: u64) -> Self {
        self.gt_origin = origin;
        self
    }

    /// Caps worker threads (0 = one per available core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Number of cells this grid will run.
    pub fn cell_count(&self) -> usize {
        self.workloads.len()
            * self.topologies.len()
            * self.nets.len()
            * self.protocols.len()
            * self.seeds.len()
    }

    /// Validates the axes and compiles this grid (or this process's shard
    /// of it) into a [`GridPlan`]: the flat, self-contained cell list the
    /// run loop — local or remote — executes.
    ///
    /// Validation is all-up-front: no simulation starts unless every cell
    /// of the grid is well-formed, so a typo in one axis cannot waste a
    /// half-finished sweep. The *whole* grid is validated, not just this
    /// shard, so every shard of an invalid grid fails identically.
    pub fn plan(&self) -> Result<GridPlan, ConfigError> {
        for (axis, empty) in [
            ("protocols", self.protocols.is_empty()),
            ("topologies", self.topologies.is_empty()),
            ("nets", self.nets.is_empty()),
            ("workloads", self.workloads.is_empty()),
            ("seeds", self.seeds.is_empty()),
        ] {
            if empty {
                return Err(ConfigError::EmptyAxis { axis });
            }
        }
        if self.perturbation_runs == 0 {
            return Err(ConfigError::ZeroPerturbationRuns);
        }
        if self.shard.total == 0 || self.shard.index >= self.shard.total {
            return Err(ConfigError::BadShard {
                index: self.shard.index,
                total: self.shard.total,
            });
        }

        // Deterministic cell order: workload-major, then topology, net,
        // protocol, seed — the order the paper's figures read in, with
        // the network model varying slowest inside a figure block.
        let runs = self.perturbation_runs;
        let mut cells: Vec<CellPlan> = Vec::new();
        let mut index = 0usize;
        for spec in &self.workloads {
            for &topology in &self.topologies {
                for &net in &self.nets {
                    for &protocol in &self.protocols {
                        for &seed in &self.seeds {
                            let cfg = SystemConfig {
                                protocol,
                                topology,
                                cache: self.cache,
                                timing: self.timing,
                                net,
                                instructions_per_ns: 4,
                                perturbation_ns: self.perturbation_ns,
                                perturbation_stream: 0,
                                seed,
                                verify: self.verify,
                                record_observations: false,
                                gt_origin: self.gt_origin,
                            };
                            // Fail fast on any invalid cell, including the
                            // cells other shards would run.
                            cfg.validate()?;
                            crate::builder::validate_workload(spec)?;
                            // This process's slice: round-robin over the
                            // global order, keys computed up front (cheap
                            // next to any simulation).
                            if index % self.shard.total as usize == self.shard.index as usize {
                                cells.push(CellPlan {
                                    index,
                                    key: CellKey::compute(&cfg, spec, runs),
                                    cfg,
                                    spec: spec.clone(),
                                    runs,
                                });
                            }
                            index += 1;
                        }
                    }
                }
            }
        }

        Ok(GridPlan {
            name: self.name.clone(),
            shard: self.shard,
            protocols: self.protocols.clone(),
            topologies: self.topologies.clone(),
            nets: self.nets.clone(),
            workloads: self.workloads.iter().map(|w| w.name.clone()).collect(),
            seeds: self.seeds.clone(),
            perturbation_ns: self.perturbation_ns,
            perturbation_runs: self.perturbation_runs,
            cells,
        })
    }

    /// Validates the axes, runs every cell (in parallel, work-stealing),
    /// and reports. Equivalent to [`ExperimentGrid::plan`] +
    /// [`GridPlan::execute`] + [`GridPlan::report`].
    pub fn run(self) -> Result<GridReport, ConfigError> {
        self.run_with_perf().map(|(report, _)| report)
    }

    /// Like [`ExperimentGrid::run`], but also returns the host-side
    /// counters accumulated over every simulated (non-cached) cell (e.g.
    /// the detailed net's event counts `perf` prints). The counters never
    /// enter the report bytes.
    pub fn run_with_perf(self) -> Result<(GridReport, HostPerf), ConfigError> {
        let store = match &self.resume {
            None => None,
            Some(dir) => Some(CellStore::open(dir).map_err(|e| ConfigError::BadResumeDir {
                path: dir.display().to_string(),
                reason: e.to_string(),
            })?),
        };
        let plan = self.plan()?;
        let (cells, perf) = plan.execute_with_perf(store.as_ref(), self.threads);
        Ok((plan.report(cells), perf))
    }
}

/// One fully-resolved grid cell, ready to execute: its global position in
/// the grid's deterministic cell order, its content address, and every
/// input [`run_or_load_cell`] needs. Self-contained (the workload spec is
/// owned) so plans can be queued, shipped to worker threads, or held by a
/// long-running service without borrowing the grid that produced them.
#[derive(Debug, Clone)]
pub struct CellPlan {
    /// Global index in the grid's deterministic cell order (not the index
    /// within a shard's slice).
    pub index: usize,
    /// The cell's content address.
    pub key: CellKey,
    /// The complete system configuration for this cell.
    pub cfg: SystemConfig,
    /// The workload it runs.
    pub spec: WorkloadSpec,
    /// §4.3 perturbed runs the reported minimum is taken over.
    pub runs: u64,
}

/// A validated, flattened grid: the axis echoes a [`GridReport`] carries
/// plus one [`CellPlan`] per cell of this shard's slice, in deterministic
/// grid order. Produced by [`ExperimentGrid::plan`]; consumed by the local
/// run loop ([`GridPlan::execute`]) and by the sweep server, which feeds
/// the cells of many plans into one shared scheduler.
#[derive(Debug, Clone)]
pub struct GridPlan {
    /// What produced this plan (binary or experiment name).
    pub name: String,
    /// Which slice of the grid the plan covers.
    pub shard: ShardSpec,
    /// Protocol axis, in run order.
    pub protocols: Vec<ProtocolKind>,
    /// Topology axis, in run order.
    pub topologies: Vec<TopologyKind>,
    /// Network-model axis, in run order.
    pub nets: Vec<NetworkModelSpec>,
    /// Workload axis (names), in run order.
    pub workloads: Vec<String>,
    /// Seed axis, in run order.
    pub seeds: Vec<u64>,
    /// §4.3 response-jitter bound (ns).
    pub perturbation_ns: u64,
    /// Perturbed runs per cell.
    pub perturbation_runs: u64,
    /// The cells of this shard's slice, in grid order.
    pub cells: Vec<CellPlan>,
}

impl GridPlan {
    /// Executes every cell on a [`WorkStealScheduler`] with `threads`
    /// workers (0 = one per available core) and returns the reports in
    /// plan order — execution order is whatever stealing makes of it, but
    /// each result lands in its cell's slot, so the output (and therefore
    /// the report bytes) is deterministic.
    pub fn execute(&self, store: Option<&CellStore>, threads: usize) -> Vec<RunReport> {
        self.execute_with_perf(store, threads).0
    }

    /// Like [`GridPlan::execute`], but also returns the [`HostPerf`]
    /// counters summed over every cell that actually simulated (cached
    /// cells contribute nothing — no host work happened). The sum is
    /// order-independent, so work stealing cannot perturb it.
    pub fn execute_with_perf(
        &self,
        store: Option<&CellStore>,
        threads: usize,
    ) -> (Vec<RunReport>, HostPerf) {
        let workers = if threads > 0 {
            threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
        .min(self.cells.len())
        .max(1);

        let sched: WorkStealScheduler<usize> = WorkStealScheduler::new(workers);
        sched.submit_batch(0..self.cells.len());
        sched.close();
        let slots: Mutex<Vec<Option<RunReport>>> = Mutex::new(vec![None; self.cells.len()]);
        let perf: Mutex<HostPerf> = Mutex::new(HostPerf::default());

        std::thread::scope(|scope| {
            for w in 0..workers {
                let (sched, slots, perf) = (&sched, &slots, &perf);
                scope.spawn(move || {
                    while let Some(i) = sched.next(w) {
                        let (report, cell_perf) =
                            run_or_load_cell_with_perf(store, &self.cells[i]);
                        perf.lock()
                            .expect("no worker panicked holding the lock")
                            .absorb(&cell_perf);
                        slots.lock().expect("no worker panicked holding the lock")[i] =
                            Some(report);
                    }
                });
            }
        });

        let reports = slots
            .into_inner()
            .expect("workers joined")
            .into_iter()
            .map(|c| c.expect("every cell ran"))
            .collect();
        (reports, perf.into_inner().expect("workers joined"))
    }

    /// Assembles the [`GridReport`] for this plan from its cells' reports,
    /// which must be in plan order (as [`GridPlan::execute`] returns them).
    ///
    /// # Panics
    ///
    /// Panics if `cells` does not hold exactly one report per planned
    /// cell — that is a harness bug, not a runtime condition.
    pub fn report(&self, cells: Vec<RunReport>) -> GridReport {
        assert_eq!(cells.len(), self.cells.len(), "one report per planned cell");
        GridReport {
            schema: SCHEMA_VERSION,
            name: self.name.clone(),
            shard: self.shard,
            protocols: self.protocols.clone(),
            topologies: self.topologies.clone(),
            nets: self.nets.clone(),
            workloads: self.workloads.clone(),
            seeds: self.seeds.clone(),
            perturbation_ns: self.perturbation_ns,
            perturbation_runs: self.perturbation_runs,
            cells,
        }
    }
}

/// Executes one planned cell: served from the store when a matching entry
/// exists (marked `cached`), simulated — and written back, best-effort —
/// otherwise. This is the unit of work both the local grid runner and the
/// sweep server schedule.
pub fn run_or_load_cell(store: Option<&CellStore>, plan: &CellPlan) -> RunReport {
    run_or_load_cell_with_perf(store, plan).0
}

/// Like [`run_or_load_cell`], but also returns the host-side counters of
/// the simulation (default/zero for cells served from the store — no
/// host work happened, which is exactly what the counters measure).
pub fn run_or_load_cell_with_perf(
    store: Option<&CellStore>,
    plan: &CellPlan,
) -> (RunReport, HostPerf) {
    let (key, cfg, spec, runs) = (plan.key, &plan.cfg, &plan.spec, plan.runs);
    if let Some(store) = store {
        if let Some(mut cell) = store.load(key) {
            // Trust but verify: the configuration echo must match the
            // plan, or the entry is a key collision / foreign artifact
            // and gets re-simulated (and overwritten) instead of used.
            if cell.workload == spec.name
                && cell.protocol == cfg.protocol
                && cell.topology == cfg.topology
                && cell.net == cfg.net
                && cell.seed == cfg.seed
                && cell.perturbation_ns == cfg.perturbation_ns
                && cell.perturbation_runs == runs
            {
                cell.cell_key = Some(key);
                cell.cached = true;
                return (cell, HostPerf::default());
            }
        }
    }
    let (stats, perf) = min_over_perturbations_with_perf(cfg, spec, runs);
    let mut report = RunReport::from_stats(spec.name.clone(), cfg, runs, stats);
    report.cell_key = Some(key);
    if let Some(store) = store {
        // Best-effort write-back: a full disk or read-only store must not
        // kill a sweep that can still finish in memory.
        let _ = store.store(key, &report);
    }
    (report, perf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_workloads::paper;

    fn tiny_grid() -> ExperimentGrid {
        ExperimentGrid::new("unit")
            .protocols([ProtocolKind::TsSnoop, ProtocolKind::DirOpt])
            .topologies([TopologyKind::Torus4x4])
            .workloads(vec![paper::barnes(0.001)])
            .seeds([1])
            .cache(CacheConfig::tiny(512, 4))
    }

    #[test]
    fn grid_runs_every_cell_in_order() {
        let report = tiny_grid().run().unwrap();
        assert_eq!(report.schema, SCHEMA_VERSION);
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].protocol, ProtocolKind::TsSnoop);
        assert_eq!(report.cells[1].protocol, ProtocolKind::DirOpt);
        for c in &report.cells {
            assert!(c.stats.protocol.misses > 0);
            assert!(c.runtime_ns() > 0);
        }
        assert!(report
            .cell("Barnes", TopologyKind::Torus4x4, ProtocolKind::DirOpt)
            .is_some());
    }

    #[test]
    fn grid_is_deterministic_across_thread_counts() {
        let a = tiny_grid().threads(1).run().unwrap();
        let b = tiny_grid().threads(4).run().unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn grid_rejects_empty_axes() {
        let err = ExperimentGrid::new("e").run().unwrap_err();
        assert_eq!(err, ConfigError::EmptyAxis { axis: "workloads" });
        let err = tiny_grid().protocols([]).run().unwrap_err();
        assert_eq!(err, ConfigError::EmptyAxis { axis: "protocols" });
        let err = tiny_grid().seeds([]).run().unwrap_err();
        assert_eq!(err, ConfigError::EmptyAxis { axis: "seeds" });
    }

    #[test]
    fn grid_rejects_invalid_cells_before_running() {
        let err = tiny_grid()
            .topologies([TopologyKind::Torus {
                width: 0,
                height: 3,
            }])
            .run()
            .unwrap_err();
        assert!(matches!(err, ConfigError::DegenerateTopology { .. }));
        let err = tiny_grid().perturbation(4, 0).run().unwrap_err();
        assert_eq!(err, ConfigError::ZeroPerturbationRuns);
    }

    #[test]
    fn report_json_round_trips() {
        let report = tiny_grid().run().unwrap();
        let json = report.to_json();
        let back = GridReport::from_json(&json).unwrap();
        assert_eq!(back.to_json(), json);
        assert_eq!(back.cells.len(), report.cells.len());
        assert_eq!(
            back.cells[0].stats.protocol.misses,
            report.cells[0].stats.protocol.misses
        );
    }

    #[test]
    fn cell_keys_identify_configuration_not_run_harness() {
        let cfg = SystemConfig::paper_default(ProtocolKind::TsSnoop, TopologyKind::Torus4x4);
        let spec = paper::barnes(0.001);
        let key = CellKey::compute(&cfg, &spec, 3);
        assert_eq!(key, CellKey::compute(&cfg, &spec, 3), "deterministic");
        assert_eq!(key.to_hex().len(), 32);
        assert_eq!(key.to_hex().parse::<CellKey>().unwrap(), key);

        // Everything that changes the result changes the key...
        let mut other = cfg.clone();
        other.seed = 1;
        assert_ne!(key, CellKey::compute(&other, &spec, 3));
        let mut other = cfg.clone();
        other.protocol = ProtocolKind::DirOpt;
        assert_ne!(key, CellKey::compute(&other, &spec, 3));
        let mut other = cfg.clone();
        other.net = NetworkModelSpec::detailed(5);
        assert_ne!(key, CellKey::compute(&other, &spec, 3));
        let mut other = cfg.clone();
        other.timing.d_mem = tss_sim::Duration::from_ns(81);
        assert_ne!(key, CellKey::compute(&other, &spec, 3));
        let mut other = cfg.clone();
        other.cache = CacheConfig::tiny(512, 4);
        assert_ne!(key, CellKey::compute(&other, &spec, 3));
        assert_ne!(key, CellKey::compute(&cfg, &spec, 4), "run count counts");
        // The full workload spec counts, not just its name: a different
        // scale (above the clamping floors) is a different cell.
        assert_ne!(
            CellKey::compute(&cfg, &paper::barnes(0.5), 3),
            CellKey::compute(&cfg, &paper::barnes(1.0), 3),
        );

        // ...and the harness knobs that cannot are canonicalised out:
        // a gt-shifted run is byte-identical to the origin-0 run, so
        // cached cells must stay valid across them.
        let mut same = cfg.clone();
        same.verify = true;
        same.record_observations = true;
        same.perturbation_stream = 7;
        same.gt_origin = u64::MAX - 3;
        assert_eq!(key, CellKey::compute(&same, &spec, 3));
    }

    #[test]
    fn bad_cell_keys_are_rejected() {
        assert!("zz".parse::<CellKey>().is_err());
        assert!("g".repeat(32).parse::<CellKey>().is_err());
        assert!(serde_json::from_value::<CellKey>(&serde_json::Value::U64(7)).is_err());
    }

    #[test]
    fn sharded_runs_partition_round_robin_and_merge_byte_identically() {
        let full = tiny_grid().run().unwrap();
        assert_eq!(full.shard, ShardSpec::FULL);
        assert!(full.is_complete());

        let parts: Vec<GridReport> = (0..2)
            .map(|i| tiny_grid().shard(i, 2).run().unwrap())
            .collect();
        assert!(!parts[0].is_complete());
        // Round-robin: shard 0 gets global cells 0, shard 1 gets cell 1;
        // both echo the whole grid's axes.
        assert_eq!(parts[0].cells.len(), 1);
        assert_eq!(parts[1].cells.len(), 1);
        assert_eq!(parts[0].cells[0].protocol, ProtocolKind::TsSnoop);
        assert_eq!(parts[1].cells[0].protocol, ProtocolKind::DirOpt);
        assert_eq!(parts[0].protocols, full.protocols);

        // Merge (in any order) reassembles the exact unsharded artifact.
        let merged = GridReport::merge(vec![parts[1].clone(), parts[0].clone()]).unwrap();
        assert_eq!(merged.to_json(), full.to_json());

        // Shard JSON round-trips through the partial (faithful) form.
        let back = GridReport::from_json(&parts[0].to_json()).unwrap();
        assert_eq!(back.shard, ShardSpec { index: 0, total: 2 });
        assert_eq!(back.to_json(), parts[0].to_json());
    }

    #[test]
    fn invalid_shards_and_merges_are_rejected() {
        let err = tiny_grid().shard(3, 2).run().unwrap_err();
        assert_eq!(err, ConfigError::BadShard { index: 3, total: 2 });
        let err = tiny_grid().shard(0, 0).run().unwrap_err();
        assert_eq!(err, ConfigError::BadShard { index: 0, total: 0 });

        assert_eq!(GridReport::merge(vec![]).unwrap_err(), MergeError::NoParts);

        let full = tiny_grid().run().unwrap();
        let s0 = tiny_grid().shard(0, 2).run().unwrap();
        let s1 = tiny_grid().shard(1, 2).run().unwrap();

        // Same shard twice.
        let err = GridReport::merge(vec![s0.clone(), s0.clone()]).unwrap_err();
        assert_eq!(err, MergeError::DuplicateShard { index: 0 });
        // A shard missing.
        let err = GridReport::merge(vec![s1.clone()]).unwrap_err();
        assert_eq!(err, MergeError::MissingShard { index: 0, total: 2 });
        // Mixed partition counts.
        let err = GridReport::merge(vec![s0.clone(), full.clone()]).unwrap_err();
        assert!(matches!(
            err,
            MergeError::GridMismatch {
                field: "shard total",
                ..
            }
        ));
        // Different grid entirely.
        let mut foreign = tiny_grid().seeds([9]).shard(1, 2).run().unwrap();
        let err = GridReport::merge(vec![s0.clone(), foreign.clone()]).unwrap_err();
        assert!(matches!(
            err,
            MergeError::GridMismatch { field: "seeds", .. }
        ));
        // Matching axes but the wrong cells inside.
        foreign.seeds = s1.seeds.clone();
        foreign.cells[0].seed = s1.cells[0].seed;
        foreign.cells[0].protocol = ProtocolKind::TsSnoop; // wrong position
        let err = GridReport::merge(vec![s0, foreign]).unwrap_err();
        assert_eq!(err, MergeError::CellOrderMismatch { index: 1 });
        // Errors display usefully.
        assert!(err.to_string().contains("cell 1"), "{err}");
    }

    #[test]
    fn resume_serves_cached_cells_and_canonicalises_the_artifact() {
        let dir = std::env::temp_dir().join(format!("tss-resume-unit-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let cold = tiny_grid().run().unwrap();
        let first = tiny_grid().resume(&dir).run().unwrap();
        assert_eq!(first.cached_cells(), 0, "empty store: everything fresh");
        assert_eq!(first.to_json(), cold.to_json());

        let second = tiny_grid().resume(&dir).run().unwrap();
        assert_eq!(second.cached_cells(), 2, "warm store: everything cached");
        assert!(second.cells.iter().all(|c| c.cached));
        // Provenance stays in memory; the complete artifact is canonical.
        assert_eq!(second.to_json(), cold.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn from_cells_derives_axes() {
        let report = tiny_grid().run().unwrap();
        let rebuilt = GridReport::from_cells("rebuilt", report.cells.clone());
        assert_eq!(
            rebuilt.protocols,
            vec![ProtocolKind::TsSnoop, ProtocolKind::DirOpt]
        );
        assert_eq!(rebuilt.topologies, vec![TopologyKind::Torus4x4]);
        assert_eq!(rebuilt.workloads, vec!["Barnes".to_string()]);
        assert_eq!(rebuilt.seeds, vec![1]);
    }

    /// Guard for the Tardis protocol-axis extension: adding the fourth
    /// `ProtocolKind` variant must not move a single pre-existing cell
    /// key, and the code-revision salt must not bump (existing results
    /// did not change). Same style as the `gt_origin`
    /// exclusion guard in `config.rs`: the canonical serialized
    /// identity is pinned byte-for-byte via its fingerprint.
    #[test]
    fn tardis_variant_leaves_existing_cell_keys_unchanged() {
        assert_eq!(CELL_REV, 4, "adding a protocol must not salt old cells");
        let spec = paper::oltp(1.0 / 64.0);
        let pinned = [
            (ProtocolKind::TsSnoop, "d1e481f52e10406c2d843a2b85ee5367"),
            (ProtocolKind::DirClassic, "836af557c65d7970a0f49e41e53d3f50"),
            (ProtocolKind::DirOpt, "43f4f0900a69360ffacf45072058119a"),
        ];
        for (p, hex) in pinned {
            let cfg = SystemConfig::paper_default(p, TopologyKind::Butterfly16);
            assert_eq!(
                CellKey::compute(&cfg, &spec, 3).to_hex(),
                hex,
                "{p}: pre-Tardis cell key moved"
            );
        }
        // Tardis cells get their own fresh keys, colliding with none.
        let cfg = SystemConfig::paper_default(ProtocolKind::Tardis, TopologyKind::Butterfly16);
        let tardis = CellKey::compute(&cfg, &spec, 3).to_hex();
        assert_eq!(tardis, "c475c13174faeca65681e453f4bf7a61");
        assert!(pinned.iter().all(|(_, h)| *h != tardis));
    }

    /// The serialized protocol names feed the cell-key hash and every
    /// committed artifact: pin them (the derive serializes by variant
    /// name, so a rename would silently re-key the store).
    #[test]
    fn protocol_names_serialize_canonically() {
        use serde::Serialize;
        for (p, name) in [
            (ProtocolKind::TsSnoop, "TsSnoop"),
            (ProtocolKind::DirClassic, "DirClassic"),
            (ProtocolKind::DirOpt, "DirOpt"),
            (ProtocolKind::Tardis, "Tardis"),
        ] {
            assert_eq!(p.to_value(), serde_json::Value::Str(name.into()));
        }
    }
}
