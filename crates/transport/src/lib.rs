//! The first real [`Transport`](rjoin_net::Transport): RJoin over TCP.
//!
//! Everything below the engine's [`Transport`](rjoin_net::Transport)
//! trait was simulated until
//! now — virtual queues, a virtual clock, one process. This crate lifts
//! the algorithm onto `std::net` TCP with no async runtime: length-prefixed
//! frames carry binary-encoded service messages, one OS thread serves each
//! connection, and real wall clocks (quantized into engine ticks, with a
//! Lamport-style floor) replace virtual time.
//!
//! # Pieces
//!
//! - [`frame`]: the wire format — a 4-byte little-endian length prefix, a
//!   format version byte, then the positional binary rendering of a
//!   [`ServiceMessage`]; truncation and garbage are classified, not
//!   panicked on.
//! - [`peers`]: one outbound connection and byte buffer per peer, flushed
//!   when the sender runs out of work.
//! - [`ServiceClock`]: hybrid wall/logical ticks.
//! - [`ClusterView`]: full-membership successor routing — the same
//!   ownership function the simulated Chord ring converges to, proven
//!   against it in tests.
//! - [`ServiceNet`]: the [`Transport`](rjoin_net::Transport)
//!   implementation — per-peer FIFO, at-most-once, one-hop routing.
//! - [`NodeProcess`]: one node's `NodeState` and dispatch pipeline behind
//!   a TCP listener; threads in one process for tests, or the
//!   `rjoin_node` binary for one process per node.
//! - [`Cluster`]: the service-facing client — submits queries, publishes
//!   tuples, settles on a quiescence barrier, and drives graceful
//!   join/leave with state re-homing.
//!
//! Both the node workers and the client dispatch through
//! [`rjoin_core::pipeline`] — the *same* functions the simulated engine
//! runs — so the deterministic simulator doubles as an oracle: the
//! record/replay harness in the facade crate replays a simulated
//! scenario over loopback TCP and asserts per-query answer-set equality.

pub mod clock;
pub mod error;
pub mod frame;
pub mod net;
pub mod node;
pub mod peers;
pub mod service;
pub mod view;
pub mod wire;

pub use clock::ServiceClock;
pub use error::TransportError;
pub use net::ServiceNet;
pub use node::{NodeBoot, NodeProcess, NodeStats};
pub use service::{Cluster, ClusterConfig};
pub use view::{ClusterView, Member};
pub use wire::{ServiceMessage, StateTransfer, WireQuery};
