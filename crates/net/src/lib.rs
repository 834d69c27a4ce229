//! Discrete-event network simulation and the messaging API used by RJoin.
//!
//! The paper assumes a relaxed asynchronous system: there is a known upper
//! bound δ on message delay, and messages are delivered through the DHT
//! using three primitives (Section 2):
//!
//! * `send(msg, id)` — deliver `msg` to `Successor(id)` in `O(log N)` hops,
//! * `multiSend(msg, I)` / `multiSend(M, I)` — deliver one or more messages
//!   to the successors of a set of identifiers,
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
//! caller-chosen [`TrafficClass`]. The split exists because a real
//! deployment resolves ownership from a membership view (no event queue in
//! sight) while re-homing state or placing queries — see the [`transport`
//! module](crate::Transport) docs for the per-implementation guarantee
//! table (ordering, clocks). Two simulated runtimes implement the full
//! trait in this crate; the `rjoin_transport` crate adds the real one over
//! TCP:
//!
//! # The single-queue runtime ([`Network`])
//!
//! One global event queue driven by one thread. Because the delay bound δ
//! is a constant and the clock is monotone, arrival times are scheduled in
//! non-decreasing order, so the in-flight queue is a *bucket queue* — one
//! FIFO bucket per delivery tick — with O(1) push and pop. Two drain APIs
//! expose the same total `(at, seq)` order: [`Network::pop_next`] (single
//! stepping) and [`Network::pop_tick`] (a whole tick at once, which lets a
//! driver fan one tick's handlers out across cores).
//!
//! # The sharded runtime ([`ShardedNetwork`])
//!
//! N per-shard bucket queues, each with its own local virtual clock. Shards
//! own disjoint, contiguous ranges of the ring ([`ShardMap`]); intra-shard
//! messages never leave their shard's queue, cross-shard messages go
//! through the receiving shard's inbox. The driver advances every shard in
//! **tick rounds** (documented on [`ShardedNetwork`]): drain the inboxes and
//! take the global minimum tick, run every shard's handlers for it, then
//! every shard's effects. With the uniform link delay δ ≥ 1 no effect can
//! land at or before the round's tick, so the round order is the single
//! queue's tick order; and since every handler of a tick runs before any of
//! its effects, an effect reads remote node state without waiting. A round's
//! phases touch disjoint shard state, so a driver may spread them over
//! threads.
//!
//! Intra-tick determinism under sharding comes from **lineages**
//! ([`root_lineage`]/[`child_lineage`]): 128-bit causal identities chained
//! from each message's parent, invariant across shard counts and thread
//! interleavings, which replace the single queue's global sequence numbers
//! as the intra-tick order key.
//!
//! Message payloads are generic: the RJoin engine defines its own message
//! enum and drives the simulation by draining the queue(s).

mod network;
mod queue;
mod shard;
mod time;
mod traffic;
mod transport;

pub use network::{Delivery, Network, NetworkConfig};
pub use queue::BucketQueue;
pub use shard::{
    child_lineage, lineage_seed, root_lineage, Lineage, ShardDelivery, ShardHandle, ShardLocal,
    ShardMap, ShardedNetwork,
};
pub use time::SimTime;
pub use traffic::{account_route, TrafficClass, TrafficStats};
pub use transport::{KeyRouter, Transport};
