//! Discrete-event network simulation and the messaging API used by RJoin.
//!
//! The paper assumes a relaxed asynchronous system: there is a known upper
//! bound δ on message delay, and messages are delivered through the DHT
//! using three primitives (Section 2):
//!
//! * `send(msg, id)` — deliver `msg` to `Successor(id)` in `O(log N)` hops,
//! * `multiSend(msg, I)` / `multiSend(M, I)` — deliver one or more messages
//!   to the successors of a set of identifiers; the simulated runtime routes
//!   them as one forwarding tree, the union of the items' unicast routes,
//!   so shared hops are paid once ([`account_multicast`]),
//! * `sendDirect(msg, addr)` — deliver `msg` to a known address in one hop.
//!
//! Two traits capture the messaging surface. [`KeyRouter`] is the *pure
//! routing* half — resolving which node is responsible for a ring
//! identifier, with no clock and no delivery. [`Transport`] (a supertrait
//! of which is `KeyRouter`) adds the *delivery and clock* half: those three
//! primitives plus the cost-only `charge_*` variants used to model
//! synchronous request/response exchanges, accounting **network traffic the
//! way the paper measures it**: every hop of a routed message is one
//! message sent by the node at the start of the hop, attributed to a
//! caller-chosen [`TrafficClass`] ([`account_route`]; a `multiSend` tree
//! pays each of its edges once, [`account_multicast`]). The split exists because a real
//! deployment resolves ownership from a membership view (no event queue in
//! sight) while re-homing state or placing queries — see the [`transport`
//! module](crate::Transport) docs for the per-implementation guarantee
//! table (ordering, clocks). The simulated runtime implements the full
//! trait on its [`ShardHandle`]s; the `rjoin_transport` crate adds the real
//! one over TCP.
//!
//! # The runtime ([`Network`])
//!
//! The ring's nodes are partitioned into shards by contiguous identifier
//! range ([`ShardMap`], fixed for the network's lifetime; one shard unless
//! a driver asks for more). Each shard owns a constant-δ bucket queue — one
//! FIFO bucket per delivery tick, O(1) push and pop, since every message
//! lands δ after a monotone clock — its clock, a traffic buffer and a route
//! memo; cross-shard messages go through the receiving shard's inbox. A
//! driver advances every shard in **tick rounds** (documented on
//! [`ShardHandle`]): take the global minimum tick, run every shard's
//! handlers for it, then every shard's effects. With the uniform link
//! delay δ ≥ 1 no effect can land at or before the round's tick, and since
//! every handler of a tick runs before any of its effects, an effect reads
//! remote node state without waiting. A round's phases touch disjoint
//! shard state, so a driver may spread them over threads.
//! [`Network::pop_tick`] is the round-less way out: every shard's earliest
//! bucket at once.
//!
//! Within a tick, deliveries are ordered by **lineage**
//! ([`root_lineage`]/[`child_lineage`]): 128-bit causal identities chained
//! from each message's parent, invariant across shard counts and thread
//! interleavings. Messages sent from outside any round are roots, numbered
//! in send order.
//!
//! Message payloads are generic: the RJoin engine defines its own message
//! enum and drives the simulation in rounds over the shards' queues.

mod network;
mod queue;
mod shard;
mod time;
mod traffic;
mod transport;

pub use network::{Delivery, Network, NetworkConfig};
pub use queue::BucketQueue;
pub use shard::{child_lineage, lineage_seed, root_lineage, Lineage, ShardHandle, ShardMap};
pub use time::SimTime;
pub use traffic::{account_multicast, account_route, TrafficClass, TrafficStats};
pub use transport::{KeyRouter, Transport};
