//! A loopback harness for one protocol engine: CPU operations go in
//! through `Protocol::cpu_op`, and every `ProtoAction` the engine emits is
//! fed back through one FIFO with no network model — a broadcast reaches
//! every node at once, a message arrives next in line, a completion issues
//! the node's next operation. What remains on the clock is the engine
//! itself.

use std::collections::VecDeque;
use std::time::Instant;

use tss::{ProtocolKind, Timing};
use tss_net::NodeId;
use tss_proto::{
    CacheConfig, CpuOp, DirClassic, DirOpt, DirTiming, ProtoAction, ProtoEvent, Protocol,
    SnoopTiming, Tardis, TsSnoop,
};
use tss_sim::{Duration, Gt, Time};
use tss_workloads::WorkloadSpec;

/// What one loopback run did.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopStats {
    /// CPU operations completed.
    pub ops: u64,
    /// Misses the engine counted.
    pub misses: u64,
    /// Broadcasts plus point-to-point messages the engine emitted.
    pub msgs: u64,
    /// Host time inside the dispatch loop.
    pub host_ns: u64,
}

enum Item {
    Issue(NodeId, CpuOp),
    Event(ProtoEvent),
}

/// Builds the engine a [`ProtocolKind`] names with the paper's timing and
/// caches, coherence verification on.
pub fn engine(kind: ProtocolKind, n: usize) -> Box<dyn Protocol> {
    let t = Timing::default();
    let cache = CacheConfig::paper_default();
    let dir = DirTiming {
        d_mem: t.d_mem,
        d_cache: t.d_cache,
    };
    match kind {
        ProtocolKind::TsSnoop => Box::new(TsSnoop::new(
            n,
            cache,
            SnoopTiming {
                d_mem: t.d_mem,
                d_cache: t.d_cache,
                prefetch: t.prefetch,
            },
            true,
        )),
        ProtocolKind::DirClassic => Box::new(DirClassic::new(n, cache, dir, true)),
        ProtocolKind::DirOpt => Box::new(DirOpt::new(n, cache, dir, true)),
        ProtocolKind::Tardis => Box::new(Tardis::new(n, cache, dir, true, Gt::ZERO)),
    }
}

/// Runs `spec` (workload seed `seed`) on `n` nodes through `kind`'s engine
/// until every node has completed its stream, then checks for lost
/// updates.
pub fn run(
    kind: ProtocolKind,
    spec: &WorkloadSpec,
    n: usize,
    seed: u64,
) -> Result<LoopStats, String> {
    let mut proto = engine(kind, n);
    let mut streams: Vec<_> = (0..n).map(|c| spec.stream(c, n, seed)).collect();
    let mut fifo: VecDeque<Item> = VecDeque::new();
    for (c, s) in streams.iter_mut().enumerate() {
        if let Some(item) = s.next() {
            fifo.push_back(Item::Issue(NodeId(c as u16), item.op));
        }
    }
    let mut stats = LoopStats::default();
    let mut actions: Vec<ProtoAction> = Vec::new();
    let mut now = Time::ZERO;
    let started = Instant::now();
    while let Some(item) = fifo.pop_front() {
        now += Duration::from_ns(1);
        match item {
            Item::Issue(node, op) => proto.cpu_op(now, node, op, &mut actions),
            Item::Event(event) => proto.handle(now, event, &mut actions),
        }
        for action in actions.drain(..) {
            match action {
                ProtoAction::Broadcast { txn, .. } => {
                    stats.msgs += 1;
                    fifo.extend((0..n).map(|d| {
                        Item::Event(ProtoEvent::Snooped {
                            dest: NodeId(d as u16),
                            txn,
                            arrival: now,
                        })
                    }));
                }
                ProtoAction::Send { dst, msg, .. } => {
                    stats.msgs += 1;
                    fifo.push_back(Item::Event(ProtoEvent::Delivered { dest: dst, msg }));
                }
                ProtoAction::Complete { node, .. } => {
                    stats.ops += 1;
                    if let Some(item) = streams[node.index()].next() {
                        fifo.push_back(Item::Issue(node, item.op));
                    }
                }
            }
        }
    }
    stats.host_ns = started.elapsed().as_nanos() as u64;
    let expected = spec.ops_per_cpu * n as u64;
    if stats.ops != expected {
        return Err(format!(
            "{kind} loopback stalled: {} of {expected} operations completed",
            stats.ops
        ));
    }
    proto.check_lost_updates()?;
    stats.misses = proto.stats().misses;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_engines_complete_with_lost_update_check() {
        let spec = tss_workloads::paper::oltp(1.0 / 4096.0);
        for kind in ProtocolKind::WITH_TARDIS {
            let stats = run(kind, &spec, 16, 3).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(stats.ops, spec.ops_per_cpu * 16, "{kind}");
            assert!(stats.misses > 0 && stats.msgs > 0, "{kind}: {stats:?}");
        }
    }
}
