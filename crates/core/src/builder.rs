//! The fluent, validated construction path for [`System`]s.
//!
//! The seed repo's experiment harnesses assembled systems by mutating raw
//! [`SystemConfig`] fields, which deferred every inconsistency (degenerate
//! torus dimensions, node counts overflowing the `u16` id space, zero
//! processor rates) to a panic somewhere mid-run. [`SystemBuilder`] front-
//! loads those checks: `build()` either returns a runnable [`System`] or a
//! typed [`ConfigError`] naming exactly what is wrong.
//!
//! ```
//! use tss::{ProtocolKind, System, TopologyKind};
//! use tss_workloads::paper;
//!
//! let result = System::builder()
//!     .protocol(ProtocolKind::TsSnoop)
//!     .topology(TopologyKind::Torus4x4)
//!     .workload(paper::dss(0.001))
//!     .seed(7)
//!     .verify(true)
//!     .build()
//!     .expect("a valid paper configuration")
//!     .run();
//! assert!(result.stats.protocol.misses > 0);
//! ```

use tss_proto::CacheConfig;
use tss_workloads::{TraceItem, WorkloadSpec};

use crate::config::{
    ConfigError, NetworkModelSpec, ProtocolKind, SystemConfig, Timing, TopologyKind,
};
use crate::system::System;

/// What drives the CPUs of a built system.
#[derive(Debug, Clone)]
enum Drive {
    /// Every CPU idles (useful for latency microbenchmarks that splice
    /// their own traces in).
    Idle,
    /// One synthetic reference stream per CPU, generated from the spec.
    Workload(WorkloadSpec),
    /// Explicit per-CPU traces (missing CPUs idle).
    Traces(Vec<Vec<TraceItem>>),
}

/// Fluent, validated builder for [`System`]s — see the module docs.
///
/// Defaults mirror [`SystemConfig::paper_default`]: Table 2 timing, the
/// paper's 4 MB caches, four instructions per nanosecond, no perturbation,
/// checker off.
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    protocol: ProtocolKind,
    topology: TopologyKind,
    cache: CacheConfig,
    timing: Timing,
    net: NetworkModelSpec,
    instructions_per_ns: u64,
    perturbation_ns: u64,
    seed: u64,
    verify: bool,
    record_observations: bool,
    gt_origin: u64,
    drive: Drive,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        let base = SystemConfig::paper_default(ProtocolKind::TsSnoop, TopologyKind::Butterfly16);
        SystemBuilder {
            protocol: base.protocol,
            topology: base.topology,
            cache: base.cache,
            timing: base.timing,
            net: base.net,
            instructions_per_ns: base.instructions_per_ns,
            perturbation_ns: base.perturbation_ns,
            seed: base.seed,
            verify: base.verify,
            record_observations: base.record_observations,
            gt_origin: base.gt_origin,
            drive: Drive::Idle,
        }
    }
}

impl SystemBuilder {
    /// Starts from the paper defaults (equivalent to [`System::builder`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the coherence protocol (default: TS-Snoop).
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Selects the interconnect (default: the 16-node butterfly).
    pub fn topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// Overrides the Table 2 timing knobs.
    pub fn timing(mut self, timing: Timing) -> Self {
        self.timing = timing;
        self
    }

    /// Selects the address-network model (default: the closed-form
    /// [`NetworkModelSpec::Fast`] model — the paper's own unloaded
    /// assumption). Only TS-Snoop builds an address network, so this is a
    /// no-op for the directory protocols.
    ///
    /// ```
    /// use tss::{NetworkModelSpec, System, TopologyKind};
    /// use tss_workloads::micro;
    ///
    /// let detailed = System::builder()
    ///     .topology(TopologyKind::Torus4x4)
    ///     .network(NetworkModelSpec::detailed(5)) // 5 ns link occupancy
    ///     .traces(micro::ping_pong(10, 200))
    ///     .build()
    ///     .expect("valid config")
    ///     .run();
    /// assert!(detailed.stats.runtime.as_ns() > 0);
    /// ```
    pub fn network(mut self, net: NetworkModelSpec) -> Self {
        self.net = net;
        self
    }

    /// Overrides the L2 geometry (default: paper 4 MB / 4-way / 64 B).
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Drives every CPU with this synthetic workload.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.drive = Drive::Workload(spec);
        self
    }

    /// Drives CPUs with explicit traces (CPUs beyond `traces.len()` idle).
    pub fn traces(mut self, traces: Vec<Vec<TraceItem>>) -> Self {
        self.drive = Drive::Traces(traces);
        self
    }

    /// Sets the workload-generation seed (default 0). Perturbation noise
    /// derives from the same seed on an independent stream.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the §4.3 response-jitter bound in nanoseconds (0 disables).
    pub fn perturbation_ns(mut self, ns: u64) -> Self {
        self.perturbation_ns = ns;
        self
    }

    /// Sets the processor speed in instructions per nanosecond (paper: 4).
    pub fn instructions_per_ns(mut self, ips: u64) -> Self {
        self.instructions_per_ns = ips;
        self
    }

    /// Turns the coherence checker on or off (default off).
    pub fn verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Records per-operation observed values (litmus tests; default off).
    pub fn record_observations(mut self, on: bool) -> Self {
        self.record_observations = on;
        self
    }

    /// Seeds every guarantee-time counter at this raw [`tss_sim::Gt`]
    /// value (default 0). A harness knob for wraparound stress runs:
    /// results must be — and CI checks they are — identical to origin 0,
    /// so it is excluded from the configuration's serialized identity.
    pub fn gt_origin(mut self, origin: u64) -> Self {
        self.gt_origin = origin;
        self
    }

    /// Validates the configuration without building (cheap — no fabric
    /// construction), returning the would-be [`SystemConfig`].
    pub fn build_config(&self) -> Result<SystemConfig, ConfigError> {
        self.validated().map(|(cfg, _)| cfg)
    }

    /// The single validation pass: every rule runs exactly once here, and
    /// the node count it computed is reused by [`SystemBuilder::build`].
    fn validated(&self) -> Result<(SystemConfig, usize), ConfigError> {
        let cfg = SystemConfig {
            protocol: self.protocol,
            topology: self.topology,
            cache: self.cache,
            timing: self.timing,
            net: self.net,
            instructions_per_ns: self.instructions_per_ns,
            perturbation_ns: self.perturbation_ns,
            perturbation_stream: 0,
            seed: self.seed,
            verify: self.verify,
            record_observations: self.record_observations,
            gt_origin: self.gt_origin,
        };
        let nodes = cfg.validate()? as usize;
        match &self.drive {
            Drive::Idle => {}
            Drive::Workload(spec) => validate_workload(spec)?,
            Drive::Traces(traces) => {
                if traces.len() > nodes {
                    return Err(ConfigError::TooManyTraces {
                        traces: traces.len(),
                        nodes,
                    });
                }
            }
        }
        Ok((cfg, nodes))
    }

    /// Validates and assembles the system, ready to [`System::run`].
    pub fn build(self) -> Result<System, ConfigError> {
        let (cfg, nodes) = self.validated()?;
        let streams: Vec<Box<dyn Iterator<Item = TraceItem> + Send>> = match self.drive {
            Drive::Idle => Vec::new(),
            Drive::Workload(spec) => (0..nodes)
                .map(|c| {
                    Box::new(spec.stream(c, nodes, cfg.seed))
                        as Box<dyn Iterator<Item = TraceItem> + Send>
                })
                .collect(),
            Drive::Traces(traces) => traces
                .into_iter()
                .map(|t| Box::new(t.into_iter()) as Box<dyn Iterator<Item = TraceItem> + Send>)
                .collect(),
        };
        Ok(System::new(cfg, streams))
    }
}

/// The workload-level consistency rules (e.g. a spec built with zero
/// scale and zero floors would issue no references). Shared with the
/// [`crate::experiment::ExperimentGrid`] axis validation.
pub(crate) fn validate_workload(spec: &WorkloadSpec) -> Result<(), ConfigError> {
    if spec.ops_per_cpu == 0 {
        return Err(ConfigError::EmptyWorkload {
            name: spec.name.clone(),
            reason: "ops_per_cpu is zero",
        });
    }
    let w = &spec.weights;
    let classes = [w.private, w.shared_ro, w.migratory, w.prodcons, w.lock];
    let total: f64 = classes.iter().sum();
    if total <= 0.0 || total.is_nan() || classes.iter().any(|c| !c.is_finite() || *c < 0.0) {
        return Err(ConfigError::EmptyWorkload {
            name: spec.name.clone(),
            reason: "class weights must be non-negative, finite, and sum positive",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_workloads::{micro, paper};

    #[test]
    fn builder_defaults_match_paper_defaults() {
        let cfg = System::builder().build_config().unwrap();
        let paper = SystemConfig::paper_default(ProtocolKind::TsSnoop, TopologyKind::Butterfly16);
        assert_eq!(cfg.protocol, paper.protocol);
        assert_eq!(cfg.topology, paper.topology);
        assert_eq!(cfg.cache, paper.cache);
        assert_eq!(cfg.instructions_per_ns, paper.instructions_per_ns);
        assert_eq!(cfg.seed, paper.seed);
        assert!(!cfg.verify);
    }

    #[test]
    fn builder_runs_a_workload() {
        let result = System::builder()
            .protocol(ProtocolKind::DirOpt)
            .topology(TopologyKind::Torus4x4)
            .cache(CacheConfig::tiny(256, 4))
            .workload(paper::barnes(0.002))
            .seed(3)
            .verify(true)
            .build()
            .unwrap()
            .run();
        assert!(result.stats.protocol.misses > 0);
        assert!(result.stats.runtime.as_ns() > 0);
    }

    #[test]
    fn builder_runs_traces_with_idle_tail() {
        let result = System::builder()
            .topology(TopologyKind::Torus4x4)
            .traces(micro::ping_pong(20, 40))
            .verify(true)
            .build()
            .unwrap()
            .run();
        assert_eq!(
            result.stats.protocol.misses + result.stats.protocol.hits,
            40
        );
    }

    #[test]
    fn builder_rejects_degenerate_torus() {
        let err = System::builder()
            .topology(TopologyKind::Torus {
                width: 0,
                height: 4,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::DegenerateTopology { .. }));
    }

    #[test]
    fn builder_rejects_node_overflow() {
        let err = System::builder()
            .topology(TopologyKind::Torus {
                width: 1000,
                height: 1000,
            })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooManyNodes {
                nodes: 1_000_000,
                max: 65_535
            }
        );
    }

    #[test]
    fn builder_rejects_zero_processor_rate() {
        let err = System::builder()
            .instructions_per_ns(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroProcessorRate);
    }

    #[test]
    fn builder_rejects_empty_workload() {
        let mut spec = paper::barnes(0.01);
        spec.ops_per_cpu = 0;
        let err = System::builder().workload(spec).build().unwrap_err();
        assert!(matches!(err, ConfigError::EmptyWorkload { .. }));
    }

    #[test]
    fn builder_rejects_bad_weights() {
        let mut spec = paper::barnes(0.01);
        spec.weights.private = f64::NAN;
        let err = System::builder().workload(spec).build().unwrap_err();
        assert!(matches!(err, ConfigError::EmptyWorkload { .. }));
    }

    #[test]
    fn builder_rejects_too_many_traces() {
        let err = System::builder()
            .topology(TopologyKind::Torus4x4)
            .traces(vec![Vec::new(); 17])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooManyTraces {
                traces: 17,
                nodes: 16
            }
        );
    }
}
