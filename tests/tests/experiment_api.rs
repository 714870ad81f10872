//! Integration tests for the experiment API surface: the validated
//! builder, the declarative grid runner, and the JSON report artifacts.

use tss::experiment::{ExperimentGrid, GridReport, SCHEMA_VERSION};
use tss::{ConfigError, NetworkModelSpec, ProtocolKind, System, TopologyKind};
use tss_bench::{Bin, Cli};
use tss_proto::CacheConfig;
use tss_workloads::paper;

fn tiny_grid(seed: u64) -> ExperimentGrid {
    ExperimentGrid::new("api-test")
        .workloads(vec![paper::barnes(0.001), paper::dss(0.001)])
        .topologies([TopologyKind::Torus4x4])
        .seeds([seed])
        .cache(CacheConfig::tiny(1024, 4))
        .perturbation(3, 2)
}

// ---------------------------------------------------------- builder errors

#[test]
fn builder_reports_typed_errors_for_each_inconsistency() {
    // Torus dims inconsistent with a usable node count.
    let err = System::builder()
        .topology(TopologyKind::Torus {
            width: 1,
            height: 9,
        })
        .build()
        .unwrap_err();
    assert!(
        matches!(err, ConfigError::DegenerateTopology { .. }),
        "{err}"
    );

    // Node count overflowing u16.
    let err = System::builder()
        .topology(TopologyKind::Butterfly {
            radix: 4,
            stages: 9,
            planes: 1,
        })
        .build()
        .unwrap_err();
    assert!(matches!(err, ConfigError::TooManyNodes { .. }), "{err}");

    // Zero processor rate ("zero scale").
    let err = System::builder()
        .instructions_per_ns(0)
        .build()
        .unwrap_err();
    assert_eq!(err, ConfigError::ZeroProcessorRate);

    // A workload that would issue nothing.
    let mut empty = paper::barnes(0.01);
    empty.ops_per_cpu = 0;
    let err = System::builder().workload(empty).build().unwrap_err();
    assert!(matches!(err, ConfigError::EmptyWorkload { .. }), "{err}");

    // Errors are std::error::Error with useful messages.
    let err: Box<dyn std::error::Error> = Box::new(ConfigError::ZeroTick);
    assert!(err.to_string().contains("tick"));
}

#[test]
fn grid_validates_every_cell_before_running() {
    let err = tiny_grid(0)
        .topologies([
            TopologyKind::Torus4x4,
            TopologyKind::Torus {
                width: 0,
                height: 2,
            },
        ])
        .run()
        .unwrap_err();
    assert!(
        matches!(err, ConfigError::DegenerateTopology { .. }),
        "{err}"
    );
    let err = tiny_grid(0).workloads(vec![]).run().unwrap_err();
    assert_eq!(err, ConfigError::EmptyAxis { axis: "workloads" });
}

// ------------------------------------------------------------ determinism

#[test]
fn same_grid_same_seed_is_byte_identical() {
    let a = tiny_grid(7).run().unwrap().to_json();
    let b = tiny_grid(7).threads(1).run().unwrap().to_json();
    assert_eq!(a, b, "same grid + same seed must produce identical JSON");
    let c = tiny_grid(8).run().unwrap().to_json();
    assert_ne!(a, c, "a different seed must show up in the artifact");
}

// ------------------------------------------------------------- round trip

#[test]
fn report_round_trips_through_serde_json() {
    let report = tiny_grid(1).run().unwrap();
    assert_eq!(report.schema, SCHEMA_VERSION);
    assert_eq!(report.cells.len(), 2 * 3); // 2 workloads x 1 topology x 3 protocols

    let json = report.to_json();
    let back = GridReport::from_json(&json).unwrap();
    assert_eq!(back.to_json(), json, "parse → re-render is the identity");

    // Typed content survives, not just the bytes.
    assert_eq!(back.name, "api-test");
    assert_eq!(back.perturbation_ns, 3);
    assert_eq!(back.perturbation_runs, 2);
    for (orig, parsed) in report.cells.iter().zip(&back.cells) {
        assert_eq!(orig.protocol, parsed.protocol);
        assert_eq!(orig.topology, parsed.topology);
        assert_eq!(orig.runtime_ns(), parsed.runtime_ns());
        assert_eq!(orig.stats.protocol.misses, parsed.stats.protocol.misses);
        assert_eq!(orig.stats.traffic.total(), parsed.stats.traffic.total());
        assert_eq!(
            orig.stats.miss_latency.count(),
            parsed.stats.miss_latency.count()
        );
    }

    // And the generic value layer agrees with the typed layer.
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(
        value.get("schema"),
        Some(&serde_json::Value::U64(u64::from(SCHEMA_VERSION)))
    );
}

#[test]
fn v1_and_v2_reports_migrate_forward_to_the_current_schema() {
    let report = tiny_grid(3).run().unwrap();
    let v3 = report.to_json();
    // What any migration can reconstruct: everything except the cell
    // keys, which hash configuration details (full workload spec, cache
    // geometry, timing) a serialized cell does not carry.
    let mut keyless = report.clone();
    for c in &mut keyless.cells {
        c.cell_key = None;
    }
    let v3_keyless = keyless.to_json();

    // Fabricate a genuine v2 document: schema 3 is exactly schema 2 plus
    // the shard stamp and the per-cell cell_key/cached fields, so
    // stripping those and restamping reproduces what PR 3/4 wrote.
    let v2: String = v3
        .replace("\"schema\": 3", "\"schema\": 2")
        .replace(
            "  \"shard\": {\n    \"index\": 0,\n    \"total\": 1\n  },\n",
            "",
        )
        .replace("      \"cached\": false,\n", "")
        .lines()
        .filter(|l| !l.contains("\"cell_key\""))
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(v2, v3, "the v2 fixture must actually drop the new fields");
    for gone in ["shard", "cell_key", "cached"] {
        assert!(!v2.contains(gone), "v2 fixture still mentions {gone:?}");
    }

    let migrated = GridReport::from_json(&v2).expect("v2 documents stay loadable");
    assert_eq!(migrated.schema, SCHEMA_VERSION);
    assert!(migrated.is_complete(), "v2 runs were never sharded");
    assert!(migrated.cells.iter().all(|c| c.cell_key.is_none()));
    assert!(migrated.cells.iter().all(|c| !c.cached));
    // Migration fills the fields at their canonical positions, so the
    // round trip lands byte-for-byte on the keyless v3 rendering.
    assert_eq!(migrated.to_json(), v3_keyless);

    // And a genuine v1 document (pre network-model axis) chains through
    // both migrations. tiny_grid runs the fast model, which is exactly
    // what the v1→v2 arm fills in.
    let v1 = v2
        .replace("\"schema\": 2", "\"schema\": 1")
        .replace("  \"nets\": [\n    \"fast\"\n  ],\n", "")
        .replace("      \"net\": \"fast\",\n", "");
    assert!(!v1.contains("net"), "v1 fixture still mentions the axis");
    let migrated = GridReport::from_json(&v1).expect("v1 documents stay loadable");
    assert_eq!(migrated.schema, SCHEMA_VERSION);
    assert_eq!(migrated.nets, vec![NetworkModelSpec::Fast]);
    assert!(migrated
        .cells
        .iter()
        .all(|c| c.net == NetworkModelSpec::Fast));
    assert_eq!(migrated.to_json(), v3_keyless);

    // Unknown future schemas are refused, not guessed at.
    let v99 = v3.replace("\"schema\": 3", "\"schema\": 99");
    let err = GridReport::from_json(&v99).unwrap_err();
    assert!(err.to_string().contains("unsupported"), "{err}");
}

#[test]
fn nets_axis_runs_detailed_cells_no_faster_than_fast() {
    let report = ExperimentGrid::new("nets-axis")
        .workloads(vec![paper::barnes(0.001)])
        .topologies([TopologyKind::Torus4x4])
        .protocols([ProtocolKind::TsSnoop])
        .nets([NetworkModelSpec::Fast, NetworkModelSpec::detailed(5)])
        .seeds([1])
        .cache(CacheConfig::tiny(1024, 4))
        .run()
        .unwrap();
    assert_eq!(report.cells.len(), 2);
    let fast = report
        .cell_for_net(
            "Barnes",
            TopologyKind::Torus4x4,
            ProtocolKind::TsSnoop,
            NetworkModelSpec::Fast,
        )
        .expect("fast cell ran");
    let detailed = report
        .cell_for_net(
            "Barnes",
            TopologyKind::Torus4x4,
            ProtocolKind::TsSnoop,
            NetworkModelSpec::detailed(5),
        )
        .expect("detailed cell ran");
    // The acceptance bar: on the same seed, the detailed token network
    // never serves misses faster than the closed-form unloaded model.
    assert!(
        detailed.stats.miss_latency.mean_ns() >= fast.stats.miss_latency.mean_ns(),
        "detailed {:?} vs fast {:?}",
        detailed.stats.miss_latency.mean_ns(),
        fast.stats.miss_latency.mean_ns()
    );
    assert!(detailed.runtime_ns() >= fast.runtime_ns());
    // And the axis is faithfully echoed into the artifact.
    let back = GridReport::from_json(&report.to_json()).unwrap();
    assert_eq!(
        back.nets,
        vec![NetworkModelSpec::Fast, NetworkModelSpec::detailed(5)]
    );

    // An invalid detailed spec is rejected up front, before any cell runs.
    let err = ExperimentGrid::new("bad-net")
        .workloads(vec![paper::barnes(0.001)])
        .nets([NetworkModelSpec::Detailed {
            link_occupancy: tss_sim::Duration::from_ns(5),
            initial_slack: 0,
            buffer_depth: 64,
        }])
        .run()
        .unwrap_err();
    assert!(matches!(err, ConfigError::BadNetworkModel { .. }), "{err}");
    let err = tiny_grid(0).nets([]).run().unwrap_err();
    assert_eq!(err, ConfigError::EmptyAxis { axis: "nets" });
}

#[test]
fn json_flag_writes_a_loadable_artifact() {
    let dir = std::env::temp_dir().join(format!("tss-api-test-{}", std::process::id()));
    let path = dir.join("nested/report.json");
    let args: Vec<String> = [
        "--workloads",
        "barnes",
        "--scale",
        "0.001",
        "--seeds",
        "1",
        "--topologies",
        "torus",
        "--json",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([path.to_string_lossy().into_owned()])
    .collect();
    let cli = Cli::parse_from(Bin::Grid, &args).unwrap();
    let report = cli.grid("json-flag-test").run().unwrap();
    report.write_json(&path).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.ends_with('\n'), "artifact ends with a newline");
    let back = GridReport::from_json(&text).unwrap();
    assert_eq!(back.cells.len(), report.cells.len());
    assert_eq!(back.to_json() + "\n", text);
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------------ api surface

#[test]
fn cell_lookup_and_helpers_agree_with_stats() {
    let report = tiny_grid(2).run().unwrap();
    let cell = report
        .cell("Barnes", TopologyKind::Torus4x4, ProtocolKind::TsSnoop)
        .expect("cell exists");
    assert_eq!(cell.runtime_ns(), cell.stats.runtime.as_ns());
    assert_eq!(cell.total_bytes(), cell.stats.traffic.total());
    assert!((cell.c2c_fraction() - cell.stats.c2c_fraction()).abs() < 1e-12);
    assert!(report
        .cell("Barnes", TopologyKind::Butterfly16, ProtocolKind::TsSnoop)
        .is_none());
}

#[test]
fn builder_and_legacy_paths_agree() {
    // The builder is a strict front-end: same config, same deterministic
    // simulation as the SystemConfig path it replaced.
    let spec = paper::barnes(0.001);
    let via_builder = System::builder()
        .protocol(ProtocolKind::DirClassic)
        .topology(TopologyKind::Torus4x4)
        .workload(spec.clone())
        .seed(5)
        .build()
        .unwrap()
        .run();
    let mut cfg =
        tss::SystemConfig::paper_default(ProtocolKind::DirClassic, TopologyKind::Torus4x4);
    cfg.seed = 5;
    let via_config = System::run_workload(cfg, &spec);
    assert_eq!(via_builder.stats.runtime, via_config.stats.runtime);
    assert_eq!(
        via_builder.stats.protocol.misses,
        via_config.stats.protocol.misses
    );
    assert_eq!(
        via_builder.stats.traffic.total(),
        via_config.stats.traffic.total()
    );
}
