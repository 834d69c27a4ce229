//! The TCP implementation of the engine's [`Transport`] trait, and the
//! [`EffectEnv`] both node workers and the cluster client dispatch through.
//!
//! # Guarantees (and non-guarantees)
//!
//! Unlike the simulated runtimes, [`ServiceNet`] promises only what TCP
//! promises: per-peer FIFO delivery and at-most-once semantics (a peer
//! that dies loses whatever was in flight to it). *Sending* means encoding
//! the frame into the peer's outbound buffer ([`PeerLinks`]'s flush rule):
//! [`ServiceNet::sent`] counts it from that moment, and it reaches the wire
//! at the owner's next [`ServiceNet::flush`] — which every owner calls
//! before it waits for anything. There is no global
//! delivery order — cross-node interleaving is whatever the scheduler
//! produces — which is exactly the nondeterminism the record/replay
//! harness in the facade crate exercises. Routing is one hop: the full
//! membership view resolves the owner locally
//! ([`ClusterView::successor_of`]), so a routed message costs one network
//! message, accounted as a single-hop path.

use crate::clock::ServiceClock;
use crate::error::TransportError;
use crate::peers::PeerLinks;
use crate::view::ClusterView;
use crate::wire::ServiceMessage;
use rand::rngs::StdRng;
use rjoin_core::pipeline::{choose_candidate, EffectEnv, RicCounters};
use rjoin_core::split::SplitMap;
use rjoin_core::{NodeState, PlacementStrategy, RJoinMessage, RicEntry, RIC_WINDOW};
use rjoin_dht::{DhtError, Id, LookupResult};
use rjoin_net::{account_route, KeyRouter, SimTime, TrafficClass, TrafficStats, Transport};
use rjoin_query::IndexLevel;
use std::sync::Arc;

/// The networked transport of one process: a membership view to route by,
/// a connection cache to send through, a hybrid wall clock, and local
/// traffic/quiescence counters.
#[derive(Debug)]
pub struct ServiceNet {
    /// This process's identity (ring member or client).
    pub self_id: Id,
    /// The routing view. Replaced wholesale on `View` messages.
    pub view: ClusterView,
    /// This process's clock.
    pub clock: Arc<ServiceClock>,
    /// The delay bound δ in ticks, stamped onto scheduled deliveries.
    pub delay_ticks: SimTime,
    /// Outbound connections.
    pub links: PeerLinks,
    /// Local per-node traffic counters (the paper's cost model, accounted
    /// at the sender).
    pub traffic: TrafficStats,
    /// Engine messages accepted for sending (the quiescence counter).
    pub sent: u64,
    /// Direct sends dropped because the peer was unreachable (answers lost
    /// to a dead client, exactly as in a real deployment).
    pub dropped_directs: u64,
    /// The most recent connection-level failure, kept with full detail
    /// because the [`Transport`] trait can only surface a [`DhtError`].
    pub last_error: Option<TransportError>,
}

impl ServiceNet {
    /// A transport for `self_id`, routing by `view`.
    pub fn new(
        self_id: Id,
        view: ClusterView,
        clock: Arc<ServiceClock>,
        delay_ticks: SimTime,
    ) -> Self {
        ServiceNet {
            self_id,
            view,
            clock,
            delay_ticks,
            links: PeerLinks::new(),
            traffic: TrafficStats::default(),
            sent: 0,
            dropped_directs: 0,
            last_error: None,
        }
    }

    /// Queues an uncounted control frame for an addressable process.
    pub fn send_control(&mut self, to: Id, msg: &ServiceMessage) -> Result<(), TransportError> {
        self.links.send_to(to, &self.view, msg)
    }

    /// Writes every peer's buffered frames to its socket.
    pub fn flush(&mut self) -> Result<(), TransportError> {
        self.links.flush()
    }

    /// Queues one engine message for `to`, stamped for `at`. Counted.
    fn deliver(&mut self, to: Id, at: SimTime, msg: RJoinMessage) -> Result<(), TransportError> {
        self.links.send_to(to, &self.view, &ServiceMessage::Engine { at, msg })?;
        self.sent += 1;
        Ok(())
    }
}

impl KeyRouter for ServiceNet {
    fn owner_of(&self, key_id: Id) -> Result<Id, DhtError> {
        self.view.successor_of(key_id)
    }
}

impl Transport<RJoinMessage> for ServiceNet {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn delay(&self) -> SimTime {
        self.delay_ticks
    }

    fn send(
        &mut self,
        from: Id,
        key_id: Id,
        msg: RJoinMessage,
        class: TrafficClass,
    ) -> Result<LookupResult, DhtError> {
        let owner = self.view.successor_of(key_id)?;
        let at = self.clock.now() + self.delay_ticks;
        if let Err(e) = self.deliver(owner, at, msg) {
            self.last_error = Some(e);
            // The trait's error type is the routing layer's: an unreachable
            // owner is indistinguishable from a node that left the ring.
            return Err(DhtError::UnknownNode { id: owner });
        }
        let route = LookupResult::direct(from, owner);
        account_route(&mut self.traffic, route.path(), class);
        Ok(route)
    }

    fn send_direct(&mut self, from: Id, to: Id, msg: RJoinMessage, class: TrafficClass) {
        let at = self.clock.now() + self.delay_ticks;
        match self.deliver(to, at, msg) {
            Ok(()) => self.traffic.record_sent(from, class),
            Err(e) => {
                // `sendDirect` has no error channel (the simulated queues
                // cannot fail): the message is lost, as it would be to a
                // crashed peer, and the failure is kept for diagnostics.
                self.dropped_directs += 1;
                self.last_error = Some(e);
            }
        }
    }

    fn charge_route(
        &mut self,
        from: Id,
        key_id: Id,
        class: TrafficClass,
    ) -> Result<LookupResult, DhtError> {
        let owner = self.view.successor_of(key_id)?;
        let route = LookupResult::direct(from, owner);
        account_route(&mut self.traffic, route.path(), class);
        Ok(route)
    }

    fn charge_direct(&mut self, from: Id, class: TrafficClass) {
        self.traffic.record_sent(from, class);
    }
}

/// The [`EffectEnv`] of a networked process: placement dispatch over a
/// [`ServiceNet`].
///
/// RIC information is strictly local: a node answers rate queries about
/// keys *it* owns from its own tracker and treats every remote candidate
/// as rate 0 (no synchronous cross-node RIC exchange — placement quality
/// degrades gracefully, answer correctness is unaffected, which is the
/// property the record/replay harness checks). The cluster client runs the
/// same environment with no node state at all.
pub struct NetEnv<'a> {
    /// The transport to send through.
    pub net: &'a mut ServiceNet,
    /// Placement randomness.
    pub rng: &'a mut StdRng,
    /// Hot-key splits (always empty in networked mode: splitting is a
    /// quiescent-point simulator feature).
    pub splits: &'a SplitMap,
    /// The local node state, when dispatching from a ring member (`None`
    /// at the client).
    pub state: Option<&'a mut NodeState>,
}

impl EffectEnv for NetEnv<'_> {
    type Net = ServiceNet;

    fn net(&mut self) -> &mut ServiceNet {
        self.net
    }

    fn now(&self) -> SimTime {
        self.net.clock.now()
    }

    fn cached_ric(&self, node: Id, ring: u64, now: SimTime) -> Option<RicEntry> {
        match &self.state {
            Some(state) if state.id == node => state.cached_ric(ring, now),
            _ => None,
        }
    }

    fn cache_ric(&mut self, node: Id, ring: u64, entry: RicEntry) {
        if let Some(state) = &mut self.state {
            if state.id == node {
                state.cache_ric(ring, entry);
            }
        }
    }

    fn note_ric(&mut self, node: Id, dispatch: &RicCounters) {
        if let Some(state) = &mut self.state {
            if state.id == node {
                state.note_ric(dispatch);
            }
        }
    }

    fn observed_rate(&mut self, owner: Id, ring: u64, now: SimTime) -> u64 {
        match &self.state {
            Some(state) if state.id == owner => state.ric().rate_at(ring, now, RIC_WINDOW),
            _ => 0,
        }
    }

    fn choose(
        &mut self,
        candidates: &[IndexLevel],
        rates: &[u64],
        strategy: PlacementStrategy,
    ) -> usize {
        choose_candidate(candidates, rates, strategy, self.rng)
    }

    fn splits(&self) -> &SplitMap {
        self.splits
    }

    fn note_query_fanout(&mut self, _extra: u64) {}
}
