//! The [`AddressNet`] abstraction: one interface over both models of the
//! timestamp-ordered address network, so [`crate::System`] (and every
//! future fabric variant) plugs into the event loop the same way.
//!
//! The paper's evaluation models the address network two ways:
//!
//! * the **fast** closed-form model ([`tss_net::FastOrderedNet`]) — the
//!   unloaded assumption of §4.3, where every broadcast's ordering
//!   instant is computed analytically;
//! * the **detailed** token-passing model ([`tss_net::DetailedNet`],
//!   composed per plane by [`tss_net::MultiPlaneNet`]) — every token and
//!   transaction hop simulated, with optional link occupancy creating
//!   the contention the paper leaves unmeasured.
//!
//! [`AddressNet`] is the seam between them. It is a *polled* interface
//! built around three calls:
//!
//! 1. [`AddressNet::inject`] broadcasts a payload and returns a **poll
//!    hint** — the earliest instant at which draining may make progress;
//! 2. [`AddressNet::drain_into`] advances the model to `now` and appends
//!    every endpoint copy whose ordering instant has been reached to a
//!    caller-owned (and caller-reused) buffer;
//! 3. [`AddressNet::next_ready`] reports when to poll again (`None` once
//!    nothing is pending, which lets the caller's event loop quiesce even
//!    though the detailed model's token wave never stops).
//!
//! The fast model's hints are exact (the closed form knows each ordering
//! instant at injection); the detailed model's hints walk the simulation
//! forward one internal event horizon at a time, so occupancy-induced GT
//! stalls push ordering instants later *and the caller observes them
//! later* — the feedback loop the `--contention` axis measures.
//!
//! # Equivalence
//!
//! Unloaded (`link_occupancy = 0`), the two models establish the same
//! total order at the same instants, up to the detailed model's one
//! conservative tick: an endpoint closes ordering tick `X` only when the
//! token advancing its guarantee time past `X` arrives, one link latency
//! after the fast model's just-in-time deadline. A fast model configured
//! with [`OrderedNetTiming::uniform`]`(link, S + 1)` therefore produces
//! **byte-identical ordering instants** to a detailed model with initial
//! slack `S` — asserted per delivery by
//! `tests/tests/equivalence.rs::address_net_unloaded_instants_match_fast_model`.
//!
//! ```
//! use std::sync::Arc;
//! use tss::address_net::{AddressNet, DetailedAddressNet, FastAddressNet};
//! use tss_net::{DetailedNetConfig, Fabric, NodeId, OrderedNetTiming};
//! use tss_sim::{Duration, Time};
//!
//! let fabric = Arc::new(Fabric::torus4x4());
//! // Detailed model: 15 ns links, slack 2, unloaded. Fast model: uniform
//! // 15 ns links, slack 3 = 2 + the detailed model's conservative tick.
//! let mut detailed =
//!     DetailedAddressNet::new(Arc::clone(&fabric), DetailedNetConfig::default(), 64);
//! let mut fast = FastAddressNet::new(
//!     fabric,
//!     OrderedNetTiming::uniform(Duration::from_ns(15), 3),
//! );
//!
//! let hint = fast.inject(Time::from_ns(40), NodeId(1), "GETS A");
//! let mut fast_out = Vec::new();
//! fast.drain_into(hint, &mut fast_out);
//! let fast_instant = fast_out[0].ordered_at;
//!
//! detailed.inject(Time::from_ns(40), NodeId(1), "GETS A");
//! let mut out = Vec::new();
//! while out.is_empty() {
//!     let at = detailed.next_ready().expect("copies outstanding");
//!     detailed.drain_into(at, &mut out);
//! }
//! assert_eq!(out.len(), 16); // snooped by every endpoint, same instant
//! assert_eq!(out[0].ordered_at, fast_instant);
//! ```

use std::sync::Arc;

use tss_net::{
    DetailedNetConfig, Fabric, FastOrderedNet, MultiPlaneNet, NodeId, OrderedNetTiming,
    TrafficLedger,
};
use tss_sim::{Gt, Time};

use crate::config::{NetworkModelSpec, Timing};

/// One endpoint copy of a broadcast, delivered in the established total
/// order.
#[derive(Debug, Clone)]
pub struct AddrDelivery<P> {
    /// The endpoint this copy was delivered to.
    pub dest: NodeId,
    /// Source node of the broadcast.
    pub src: NodeId,
    /// Physical arrival time of this copy at `dest` (drives the §3
    /// prefetch optimisation: controllers may start a memory access at
    /// arrival and respond once ordered).
    pub arrival: Time,
    /// The instant this copy became processable in the total order. All
    /// copies share one instant in the unloaded models; under contention
    /// the detailed model's endpoints can skew.
    pub ordered_at: Time,
    /// The broadcast payload, shared across the endpoint copies.
    pub payload: Arc<P>,
}

/// A model of the timestamp-ordered address network — see the module
/// docs for the polling contract.
pub trait AddressNet<P>: Send {
    /// Broadcasts `payload` from `src` at `now`, which must be
    /// non-decreasing across calls. Returns the earliest instant at which
    /// [`AddressNet::drain_into`] may make progress on this broadcast.
    fn inject(&mut self, now: Time, src: NodeId, payload: P) -> Time;

    /// Advances the model to `now` (non-decreasing across calls, and at
    /// least as late as every prior `inject`) and appends all endpoint
    /// copies whose ordering instants have been reached to `out`, in the
    /// total order within each endpoint. Appending into a caller-owned
    /// buffer lets the event loop reuse one allocation across every poll.
    fn drain_into(&mut self, now: Time, out: &mut Vec<AddrDelivery<P>>);

    /// When to poll [`AddressNet::drain_into`] next: `Some` while any
    /// endpoint copy is still pending, `None` once quiescent. Callers
    /// re-arm one poll event from this after every drain.
    fn next_ready(&self) -> Option<Time>;

    /// Request-class traffic recorded so far.
    fn ledger(&self) -> &TrafficLedger;

    /// Idle token waves skipped in closed form so far (detailed model
    /// instrumentation; the fast model has no waves to skip).
    fn waves_skipped(&self) -> u64 {
        0
    }

    /// Calendar entries the detailed model's token networks popped, summed
    /// over planes (0 for the fast model). Host-side instrumentation only
    /// — never part of the simulated state.
    fn net_events(&self) -> u64 {
        0
    }

    /// Per-link token arrivals those calendar entries stood for (0 for
    /// the fast model). Host-side instrumentation only.
    fn token_deliveries(&self) -> u64 {
        0
    }
}

/// [`AddressNet`] over the closed-form unloaded model
/// ([`FastOrderedNet`]) — the default, and the paper's own evaluation
/// assumption.
#[derive(Debug)]
pub struct FastAddressNet<P> {
    net: FastOrderedNet<P>,
    /// Reusable buffer for the raw deliveries of one drain.
    scratch: Vec<tss_net::Delivery<P>>,
}

impl<P> FastAddressNet<P> {
    /// Builds the fast model over `fabric` with the given timing.
    pub fn new(fabric: Arc<Fabric>, timing: OrderedNetTiming) -> Self {
        FastAddressNet {
            net: FastOrderedNet::new(fabric, timing),
            scratch: Vec::new(),
        }
    }
}

impl<P: Send + Sync> AddressNet<P> for FastAddressNet<P> {
    fn inject(&mut self, now: Time, src: NodeId, payload: P) -> Time {
        // The closed form knows the exact ordering instant at injection.
        self.net.inject(now, src, payload)
    }

    fn drain_into(&mut self, now: Time, out: &mut Vec<AddrDelivery<P>>) {
        self.net.drain_into(now, &mut self.scratch);
        out.extend(self.scratch.drain(..).map(|d| AddrDelivery {
            dest: d.dest,
            src: d.src,
            arrival: d.arrival,
            ordered_at: d.ordered_at,
            payload: d.payload,
        }));
    }

    fn next_ready(&self) -> Option<Time> {
        self.net.next_ordered_at()
    }

    fn ledger(&self) -> &TrafficLedger {
        self.net.ledger()
    }
}

/// [`AddressNet`] over the detailed token-passing model: one
/// [`tss_net::DetailedNet`] per fabric plane, injections assigned
/// round-robin, deliveries merged at the min-GT frontier (all via
/// [`MultiPlaneNet`]).
///
/// Positive link occupancy makes transactions queue in switches and
/// zero-slack transactions stall the token wave, so guarantee times — and
/// with them every ordering instant the coherence protocol observes —
/// slip later. That is the contention feedback the fast model cannot
/// express.
#[derive(Debug)]
pub struct DetailedAddressNet<P> {
    net: MultiPlaneNet<P>,
    buffer_depth: u32,
}

impl<P> DetailedAddressNet<P> {
    /// Builds one detailed network per fabric plane (the `plane` field of
    /// `cfg` is ignored). `buffer_depth` is the provisioned per-switch
    /// transaction buffering; exceeding it panics (see
    /// [`NetworkModelSpec::Detailed`]).
    pub fn new(fabric: Arc<Fabric>, cfg: DetailedNetConfig, buffer_depth: u32) -> Self {
        DetailedAddressNet {
            net: MultiPlaneNet::new(fabric, cfg),
            buffer_depth,
        }
    }

    fn check_buffers(&self) {
        let high = self.net.switch_buffer_high_water();
        assert!(
            high <= self.buffer_depth as usize,
            "detailed address network exceeded its provisioned switch \
             buffering: high water {high} > buffer_depth {}",
            self.buffer_depth
        );
    }
}

impl<P: Send + Sync + 'static> AddressNet<P> for DetailedAddressNet<P> {
    fn inject(&mut self, now: Time, src: NodeId, payload: P) -> Time {
        self.net.inject(now, src, payload);
        self.check_buffers();
        // The ordering instant is not known in closed form; hand back the
        // next internal event horizon and let the poll chain walk forward.
        self.net
            .next_event_at()
            .expect("token circulation never stops")
    }

    fn drain_into(&mut self, now: Time, out: &mut Vec<AddrDelivery<P>>) {
        self.net.run_until(now);
        self.check_buffers();
        out.extend(
            self.net
                .drain_released()
                .map(|(gate_open, d)| AddrDelivery {
                    dest: d.dest,
                    src: d.src,
                    arrival: d.arrival,
                    // The exact instant the min-GT gate opened for this copy —
                    // correct even if the caller drains later than that.
                    ordered_at: gate_open,
                    payload: d.payload,
                }),
        );
    }

    fn next_ready(&self) -> Option<Time> {
        if self.net.outstanding() == 0 {
            return None;
        }
        self.net.next_event_at()
    }

    fn ledger(&self) -> &TrafficLedger {
        self.net.ledger()
    }

    fn waves_skipped(&self) -> u64 {
        self.net.waves_skipped()
    }

    fn net_events(&self) -> u64 {
        self.net.net_events()
    }

    fn token_deliveries(&self) -> u64 {
        self.net.token_deliveries()
    }
}

/// Builds the address-network model a [`NetworkModelSpec`] describes,
/// taking link timing from the Table 2 knobs: the fast model charges
/// `d_ovh + d_switch·hops` with `timing.tick` GT cadence, the detailed
/// model charges a uniform `d_switch` per link (its token wave's cadence).
///
/// `gt_origin` seeds every guarantee-time counter; `Gt::ZERO` in normal
/// runs, near the era rollover in wraparound stress runs (which must be
/// observationally identical — every GT comparison is wrapping-safe).
///
/// `threads` is ignored: both models run serially. It is kept so existing
/// callers of this five-argument signature keep building.
pub fn build_address_net<P: Send + Sync + 'static>(
    spec: NetworkModelSpec,
    timing: &Timing,
    fabric: Arc<Fabric>,
    gt_origin: Gt,
    _threads: usize,
) -> Box<dyn AddressNet<P>> {
    match spec {
        NetworkModelSpec::Fast => Box::new(FastAddressNet::new(
            fabric,
            OrderedNetTiming {
                hops: tss_net::HopTiming::Weighted {
                    d_ovh: timing.d_ovh,
                    d_switch: timing.d_switch,
                },
                tick: timing.tick,
                initial_slack: timing.initial_slack,
                gt_origin,
            },
        )),
        NetworkModelSpec::Detailed {
            link_occupancy,
            initial_slack,
            buffer_depth,
        } => {
            Box::new(DetailedAddressNet::new(
                fabric,
                DetailedNetConfig {
                    link_latency: timing.d_switch,
                    link_occupancy,
                    initial_slack,
                    plane: 0, // MultiPlaneNet drives every plane itself
                    gt_origin,
                },
                buffer_depth,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_sim::Duration;

    fn poll_all<P>(net: &mut dyn AddressNet<P>, expected: usize) -> Vec<AddrDelivery<P>> {
        let mut out = Vec::new();
        while out.len() < expected {
            let at = net.next_ready().expect("deliveries still outstanding");
            net.drain_into(at, &mut out);
        }
        assert!(net.next_ready().is_none(), "net should be quiescent");
        out
    }

    #[test]
    fn fast_adapter_preserves_closed_form_instants() {
        let fabric = Arc::new(Fabric::butterfly16());
        let mut net = FastAddressNet::new(fabric, OrderedNetTiming::paper_default());
        let hint = net.inject(Time::from_ns(100), NodeId(0), 7u32);
        assert_eq!(hint, Time::from_ns(149)); // Table 2 one-way latency
        assert_eq!(net.next_ready(), Some(hint));
        let mut out = Vec::new();
        net.drain_into(hint, &mut out);
        assert_eq!(out.len(), 16);
        assert!(out.iter().all(|d| d.ordered_at == hint));
        assert!(net.next_ready().is_none());
    }

    #[test]
    fn detailed_adapter_delivers_everywhere_and_quiesces() {
        let fabric = Arc::new(Fabric::butterfly16());
        let mut net: DetailedAddressNet<u32> =
            DetailedAddressNet::new(fabric, DetailedNetConfig::default(), 64);
        for i in 0..6 {
            net.inject(Time::from_ns(40 + 3 * i), NodeId(i as u16), i as u32);
        }
        let out = poll_all(&mut net, 6 * 16);
        assert_eq!(out.len(), 6 * 16);
        // Every endpoint saw every broadcast, in one consistent order.
        let mut orders: Vec<Vec<u32>> = vec![Vec::new(); 16];
        for d in &out {
            orders[d.dest.index()].push(*d.payload);
        }
        for o in &orders[1..] {
            assert_eq!(o, &orders[0]);
        }
    }

    #[test]
    fn detailed_adapter_contention_delays_ordering() {
        let run = |occ: u64| {
            let fabric = Arc::new(Fabric::torus4x4());
            let mut net: DetailedAddressNet<u32> = DetailedAddressNet::new(
                fabric,
                DetailedNetConfig {
                    link_occupancy: Duration::from_ns(occ),
                    ..DetailedNetConfig::default()
                },
                64,
            );
            for i in 0..8 {
                net.inject(Time::from_ns(40 + i), NodeId(0), i as u32);
            }
            poll_all(&mut net, 8 * 16)
                .iter()
                .map(|d| d.ordered_at.as_ns())
                .max()
                .unwrap()
        };
        assert!(
            run(40) > run(0),
            "occupancy-induced stalls must push ordering instants later"
        );
    }

    #[test]
    #[should_panic(expected = "provisioned switch buffering")]
    fn detailed_adapter_enforces_buffer_depth() {
        let fabric = Arc::new(Fabric::torus4x4());
        let mut net: DetailedAddressNet<u32> = DetailedAddressNet::new(
            fabric,
            DetailedNetConfig {
                link_occupancy: Duration::from_ns(60),
                ..DetailedNetConfig::default()
            },
            1, // one buffer entry per fabric: any queueing trips it
        );
        for i in 0..16 {
            net.inject(Time::from_ns(40 + i), NodeId(0), i as u32);
        }
        let mut sink = Vec::new();
        while net.next_ready().is_some() {
            let at = net.next_ready().unwrap();
            net.drain_into(at, &mut sink);
        }
    }

    #[test]
    fn build_from_spec_selects_the_model() {
        let timing = Timing::default();
        let fast: Box<dyn AddressNet<u32>> = build_address_net(
            NetworkModelSpec::Fast,
            &timing,
            Arc::new(Fabric::torus4x4()),
            Gt::ZERO,
            0,
        );
        assert!(fast.next_ready().is_none());
        let mut detailed: Box<dyn AddressNet<u32>> = build_address_net(
            NetworkModelSpec::detailed(0),
            &timing,
            Arc::new(Fabric::torus4x4()),
            Gt::ZERO,
            0,
        );
        detailed.inject(Time::from_ns(0), NodeId(0), 1);
        assert!(detailed.next_ready().is_some());
    }

    /// `build_address_net` ignores its `threads` argument: asking for a
    /// parallel detailed net yields the serial one, delivery for delivery,
    /// on a single-plane torus and on the four-plane butterfly.
    #[test]
    fn parallel_detailed_adapter_matches_serial_deliveries() {
        let run = |fabric: Fabric, threads: usize| {
            let mut net: Box<dyn AddressNet<u32>> = build_address_net(
                NetworkModelSpec::detailed(5),
                &Timing::default(),
                Arc::new(fabric),
                Gt::ZERO,
                threads,
            );
            for i in 0..12 {
                net.inject(Time::from_ns(40 + i), NodeId((i % 16) as u16), i as u32);
            }
            let log: Vec<(u16, u16, u64, u64, u32)> = poll_all(net.as_mut(), 12 * 16)
                .iter()
                .map(|d| {
                    (
                        d.dest.0,
                        d.src.0,
                        d.arrival.as_ns(),
                        d.ordered_at.as_ns(),
                        *d.payload,
                    )
                })
                .collect();
            (log, net.net_events(), net.token_deliveries())
        };
        for fabric in [Fabric::torus4x4, Fabric::butterfly16] {
            let serial = run(fabric(), 0);
            assert!(serial.1 > 0, "the detailed net popped nothing");
            for threads in [2, 4] {
                assert_eq!(
                    run(fabric(), threads),
                    serial,
                    "diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn detailed_adapter_counts_its_net_events() {
        let fabric = Arc::new(Fabric::torus4x4());
        let mut fast = FastAddressNet::new(Arc::clone(&fabric), OrderedNetTiming::paper_default());
        let mut net: DetailedAddressNet<u32> = DetailedAddressNet::new(
            fabric,
            DetailedNetConfig {
                link_occupancy: Duration::from_ns(40),
                ..DetailedNetConfig::default()
            },
            64,
        );
        for i in 0..12 {
            fast.inject(Time::from_ns(40 + i), NodeId((i % 16) as u16), i as u32);
            net.inject(Time::from_ns(40 + i), NodeId((i % 16) as u16), i as u32);
        }
        poll_all(&mut fast, 12 * 16);
        poll_all(&mut net, 12 * 16);
        assert_eq!((fast.net_events(), fast.token_deliveries()), (0, 0));
        // Every popped entry is counted, and each token batch stands for
        // at least one per-link arrival (several on switches).
        assert!(net.net_events() > 0);
        assert!(net.token_deliveries() > net.net_events());
    }
}
