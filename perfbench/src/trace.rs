//! Benchmark-side spans: name, start, end, parent span and unit id,
//! recorded around calls into each layer's public functions. Spans stay
//! in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, `layer.what` (the layer is the part before
    /// the first dot).
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit (cell or request) the span belongs to.
    pub unit: u64,
}

/// Records nested spans when on; a pass-through when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Aggregated time of one span name or layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    /// Spans aggregated.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the time their child spans cover.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `unit`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        unit: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            unit,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: count, total and self time.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(children);
        }
        out
    }

    /// Self time summed per layer (the span-name prefix before the first
    /// dot).
    pub fn layer_self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (name, t) in self.self_times() {
            let layer = name.split('.').next().unwrap_or(name).to_string();
            let entry = out.entry(layer).or_default();
            entry.count += t.count;
            entry.total_ns += t.total_ns;
            entry.self_ns += t.self_ns;
        }
        out
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}",
                s.name, s.start_ns, s.end_ns, s.unit
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on();
        t.span("core.unit", 7, |t| {
            t.span("core.build", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("sim.run", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].unit, 7);
        let times = t.self_times();
        let unit = times["core.unit"];
        assert_eq!(
            unit.total_ns - unit.self_ns,
            spans[1].end_ns - spans[1].start_ns + spans[2].end_ns - spans[2].start_ns
        );
        let layers = t.layer_self_times();
        assert_eq!(layers["core"].count, 2);
        assert_eq!(layers["sim"].count, 1);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("core.unit", 0, |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
