//! The transport abstraction: the messaging API a driver sees.
//!
//! The paper's system model needs exactly three primitives — `send`,
//! `multiSend` and `sendDirect` — plus the cost-only accounting variants the
//! engine uses to model synchronous RIC exchanges. Two traits capture them:
//!
//! * [`KeyRouter`] is the *pure routing* concern: mapping a ring identifier
//!   to the node currently responsible for it, with no clock, no delivery
//!   and no traffic accounting. Anything that knows the membership of the
//!   ring can implement it — the simulated Chord ring resolves successors
//!   through (possibly stale) per-node routing state, while a deployment
//!   can resolve them from a replicated membership view.
//! * [`Transport`] adds the *delivery and clock* concerns on top: a sender
//!   clock, the delay bound δ, scheduled delivery of messages and per-class
//!   traffic accounting. The engine's effect phase is written once against
//!   this trait and runs unchanged on every implementation.
//!
//! # Implementations and their guarantees
//!
//! | impl | clock | ordering | routing |
//! |------|-------|----------|---------|
//! | [`Network`](crate::Network) and its [`ShardHandle`](crate::ShardHandle)s | virtual ticks, one clock per shard, advanced in global tick rounds | total `(at, lineage)` order: every delivery of a run is totally ordered and replayed identically, whatever the shard and thread counts | Chord lookups over per-node routing state (`O(log N)` hops, each hop accounted); `multiSend` as one forwarding tree |
//! | `rjoin_transport::TcpTransport` (separate crate) | real wall clock, coarse ticks, monotone via high-water marking | per-peer FIFO only (TCP streams); *no* global order — cross-node interleaving is nondeterministic | one hop to the owner from a full-membership view (no overlay hops); `multiSend` is one frame per item (the trait default) |
//!
//! The simulated runtime delivers every message exactly once and in a
//! deterministic global order, which is what makes them usable as
//! correctness oracles. A real transport only guarantees per-connection
//! FIFO and at-most-once delivery (a crashed peer loses messages), so
//! protocols built on this trait must not rely on cross-peer ordering —
//! the record/replay harness in the facade crate checks exactly that.

use crate::{SimTime, TrafficClass};
use rjoin_dht::{DhtError, Id, LookupResult};

/// The pure routing concern: who is responsible for a ring identifier.
///
/// Split out of [`Transport`] so ownership can be resolved — by placement
/// logic, by state re-homing, by harnesses — without dragging in a clock or
/// a delivery queue. Resolving ownership sends nothing and accounts no
/// traffic (an ownership oracle).
pub trait KeyRouter {
    /// Resolves the node currently responsible for `key_id`.
    fn owner_of(&self, key_id: Id) -> Result<Id, DhtError>;
}

/// The messaging surface of a network runtime: [`KeyRouter`] plus clocks,
/// scheduled delivery and traffic accounting.
///
/// All implementations share the same cost model: a routed message is one
/// message sent per hop of its lookup path (creation + routing), a direct
/// message is one message, and every delivery is scheduled the delay bound
/// δ after the sender's current clock. A `multiSend` costs one message per
/// hop of the transport's wire: one forwarding tree over the overlay in the
/// simulated runtime, one frame per item on a transport without one.
pub trait Transport<M>: KeyRouter {
    /// The sender-side clock: the time deliveries are scheduled relative
    /// to. Virtual ticks under simulation, a coarse-ticked wall clock on a
    /// real transport.
    fn now(&self) -> SimTime;

    /// The configured per-message delay bound δ.
    fn delay(&self) -> SimTime;

    /// `send(msg, id)`: routes `msg` from `from` to `Successor(key_id)`,
    /// accounting one message per hop under `class`, and schedules delivery
    /// after the delay bound.
    fn send(
        &mut self,
        from: Id,
        key_id: Id,
        msg: M,
        class: TrafficClass,
    ) -> Result<LookupResult, DhtError>;

    /// `multiSend(M, I)`: delivers each `(key_id, msg)` pair to
    /// `Successor(key_id)`.
    ///
    /// The simulated runtime overrides it with one forwarding tree
    /// ([`account_multicast`](crate::account_multicast)): items whose routes
    /// share hops share those messages, and every owner is resolved before
    /// anything is sent. This default — one independent
    /// [`send`](Self::send) per item, stopping at the first failure — is
    /// only for transports that really write one frame per item.
    fn multi_send(
        &mut self,
        from: Id,
        items: Vec<(Id, M)>,
        class: TrafficClass,
    ) -> Result<(), DhtError> {
        for (key_id, msg) in items {
            self.send(from, key_id, msg, class)?;
        }
        Ok(())
    }

    /// `sendDirect(msg, addr)`: delivers `msg` to a known address in one
    /// hop.
    fn send_direct(&mut self, from: Id, to: Id, msg: M, class: TrafficClass);

    /// Accounts the traffic of routing one message to `Successor(key_id)`
    /// without scheduling a delivery (synchronous request/response whose
    /// cost must still be charged).
    fn charge_route(
        &mut self,
        from: Id,
        key_id: Id,
        class: TrafficClass,
    ) -> Result<LookupResult, DhtError>;

    /// Accounts one direct (single-hop) message without scheduling a
    /// delivery. Companion of [`charge_route`](Self::charge_route).
    fn charge_direct(&mut self, from: Id, class: TrafficClass);
}
