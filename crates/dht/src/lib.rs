//! Chord DHT simulation for the RJoin reproduction.
//!
//! RJoin (EDBT 2008) runs on top of a DHT and only relies on the standard
//! `lookup` API; the paper uses Chord for its examples and experiments. This
//! crate provides a faithful, deterministic, single-process simulation of a
//! Chord network:
//!
//! * [`Id`] — 64-bit identifiers on the Chord ring, produced by hashing keys
//!   with a from-scratch [SHA-1 implementation](sha1),
//! * [`ChordNode`] — per-node routing state: successor list, predecessor and
//!   finger table,
//! * [`ChordNetwork`] — the ring itself: join/leave/fail, periodic
//!   stabilization, iterative finger-table lookups with per-hop tracing
//!   (used by the network layer to account routed messages), and
//! * [`balance`] — the identifier-movement load-balancing technique of
//!   Karger & Ruhl used in the paper's Figure 9 experiment.
//!
//! # Example
//!
//! ```
//! use rjoin_dht::{ChordNetwork, Id};
//!
//! let mut net = ChordNetwork::new(8);
//! let ids: Vec<Id> = (0..32).map(|i| Id::hash_key(&format!("node-{i}"))).collect();
//! for id in &ids {
//!     net.join(*id).unwrap();
//! }
//! net.full_stabilize();
//!
//! let key = Id::hash_key("R+A+i:17");
//! let result = net.lookup(ids[0], key).unwrap();
//! assert_eq!(result.owner, net.successor_of(key).unwrap());
//! assert!(result.hops() <= 32);
//! ```

pub mod balance;
mod error;
mod id;
mod key;
mod node;
mod ring;
pub mod sha1;

pub use error::DhtError;
pub use id::Id;
pub use key::{mix64, HashedKey, RingBuildHasher, RingHasher, RingMap, RingSet};
pub use node::{ChordNode, FingerTable, SUCCESSOR_LIST_LEN};
pub use ring::{ChordNetwork, LookupResult, RouteMemo};

/// Number of bits in ring identifiers (`m` in the Chord paper).
pub const ID_BITS: u32 = 64;
