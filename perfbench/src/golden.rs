//! Reference results: a 128-bit fingerprint of each unit's simulated
//! statistics, recorded once from a known-good build and kept under
//! `perfbench/golden/`. A host-only change must reproduce every
//! fingerprint; a unit whose stats differ in any field is a failed unit.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde_json::Value;
use tss::SystemStats;

/// Directory of the golden files, relative to the repository root.
pub const DIR: &str = "perfbench/golden";

/// The fingerprint of `stats` as 32 hex digits.
pub fn fingerprint(stats: &SystemStats) -> String {
    let text = serde_json::to_string(stats).expect("value rendering is infallible");
    format!("{:032x}", tss_sim::hash::fingerprint128(text.as_bytes()))
}

/// One workload's golden table.
#[derive(Debug, Default)]
pub struct Goldens {
    path: PathBuf,
    units: BTreeMap<String, String>,
}

impl Goldens {
    /// Loads `<DIR>/<workload>.json`.
    pub fn load(workload: &str) -> Result<Goldens, String> {
        let path = Path::new(DIR).join(format!("{workload}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read goldens {}: {e}", path.display()))?;
        let doc: Value = serde_json::from_str(&text)
            .map_err(|e| format!("bad goldens {}: {e}", path.display()))?;
        let units = doc
            .get("units")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{} has no units object", path.display()))?
            .iter()
            .map(|(id, v)| (id.clone(), v.as_str().unwrap_or_default().to_string()))
            .collect();
        Ok(Goldens { path, units })
    }

    /// An empty table that [`Goldens::save`] writes to `<DIR>/<workload>.json`.
    pub fn empty(workload: &str) -> Goldens {
        Goldens {
            path: Path::new(DIR).join(format!("{workload}.json")),
            units: BTreeMap::new(),
        }
    }

    /// Checks one unit's stats against its recorded fingerprint.
    pub fn check(&self, id: &str, stats: &SystemStats) -> Result<(), String> {
        match self.units.get(id) {
            None => Err(format!("no golden recorded for unit {id}")),
            Some(want) if *want == fingerprint(stats) => Ok(()),
            Some(want) => Err(format!(
                "unit {id}: stats fingerprint {} != golden {want} (runtime {} ns, {} misses)",
                fingerprint(stats),
                stats.runtime.as_ns(),
                stats.protocol.misses
            )),
        }
    }

    /// Records (or overwrites) one unit's fingerprint.
    pub fn record(&mut self, id: String, stats: &SystemStats) {
        self.units.insert(id, fingerprint(stats));
    }

    /// Units recorded.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Writes the table, sorted by unit id.
    pub fn save(&self) -> std::io::Result<()> {
        let units = self
            .units
            .iter()
            .map(|(id, fp)| (id.clone(), Value::Str(fp.clone())))
            .collect();
        let doc = Value::Object(vec![
            ("schema".into(), Value::U64(1)),
            ("units".into(), Value::Object(units)),
        ]);
        let text = serde_json::to_string_pretty(&doc).expect("value rendering is infallible");
        std::fs::write(&self.path, text + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss::{ProtocolKind, System, TopologyKind};

    #[test]
    fn a_single_mutated_stat_fails_the_check() {
        let stats = System::builder()
            .protocol(ProtocolKind::TsSnoop)
            .topology(TopologyKind::Torus4x4)
            .workload(tss_workloads::paper::barnes(1.0 / 4096.0))
            .build()
            .expect("valid configuration")
            .run()
            .stats;
        let mut goldens = Goldens::empty("unit-test");
        goldens.record("cell".into(), &stats);
        assert_eq!(goldens.check("cell", &stats), Ok(()));
        assert!(goldens.check("other", &stats).is_err());

        let mut mutated = stats.clone();
        mutated.protocol.hits += 1;
        assert!(goldens.check("cell", &mutated).is_err());
        let mut mutated = stats.clone();
        mutated.miss_latency_per_node[5] = mutated.miss_latency_per_node[4];
        assert!(goldens.check("cell", &mutated).is_err());
        let mut mutated = stats;
        mutated.traffic.per_link_mean += 0.5;
        assert!(goldens.check("cell", &mutated).is_err());
    }
}
