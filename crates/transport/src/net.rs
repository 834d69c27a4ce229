//! The TCP implementation of the engine's [`Transport`] trait.
//!
//! Node workers and the cluster client dispatch through a [`ServiceNet`] in
//! the engine's one [`DispatchEnv`](rjoin_core::pipeline::DispatchEnv), the
//! environment the simulator's effect phase runs in. Over TCP it reads no
//! RIC tracker but the dispatching node's own, so a remote candidate's rate
//! is unknown: it counts as 0 in the choice and is neither cached nor
//! piggy-backed. Tie-breaks are seeded from a lineage of the process's own:
//! a node's identifier salted with its count of handled frames, the
//! client's salted with its submission count, so a process's choices
//! depend only on the order messages reach it.
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
use rjoin_core::RJoinMessage;
use rjoin_dht::{DhtError, Id, LookupResult};
use rjoin_net::{account_route, KeyRouter, SimTime, TrafficClass, TrafficStats, Transport};
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
