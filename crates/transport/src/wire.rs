//! The service protocol: everything that crosses a TCP connection.
//!
//! Engine messages ([`RJoinMessage`]) are wrapped in
//! [`ServiceMessage::Engine`] with their delivery stamp; around them sits
//! a small control plane — configuration, membership views, state
//! transfer for graceful churn, and the quiescence barrier the cluster
//! client's `settle` is built on.

use crate::view::ClusterView;
use rjoin_core::{
    DrainedAlttBucket, DrainedState, EngineConfig, PendingQuery, RJoinMessage, StoredQuery,
};
use rjoin_dht::{HashedKey, Id};
use rjoin_net::SimTime;
use rjoin_query::IndexLevel;
use rjoin_relation::{Catalog, Tuple};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One frame of the service protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServiceMessage {
    /// An engine message, stamped with the tick at which the sender's
    /// clock scheduled its delivery (sender clock + delay bound). The
    /// receiver observes the stamp before handling, so causality survives
    /// clock skew.
    Engine {
        /// Scheduled delivery tick.
        at: SimTime,
        /// The wrapped algorithm message.
        msg: RJoinMessage,
    },
    /// Bootstrap for a process started without parameters (the `rjoin_node`
    /// binary): the engine configuration, the schema catalog and the
    /// initial membership view.
    Configure {
        /// Engine configuration shared by every node.
        config: EngineConfig,
        /// The schema catalog.
        catalog: Catalog,
        /// The initial membership view.
        view: ClusterView,
    },
    /// A membership change: replace the routing view.
    View {
        /// The new view.
        view: ClusterView,
    },
    /// Passive state insertion: buckets re-homed to this node by churn.
    /// Absorbed state is *not* re-evaluated — re-sending stored queries as
    /// `Eval`s would duplicate answers.
    Absorb {
        /// The re-homed buckets.
        transfer: StateTransfer,
    },
    /// After a view change: drain every bucket the current view assigns to
    /// someone else and ship each share to its new owner.
    Rehome,
    /// Graceful leave: drain *all* state to the current owners (the leaver
    /// is already out of the shipped view), then confirm.
    Drain {
        /// Who to send [`ServiceMessage::DrainDone`] to.
        reply_to: Id,
    },
    /// Confirmation that a [`ServiceMessage::Drain`] finished.
    DrainDone {
        /// Number of re-homed items.
        moved: u64,
    },
    /// Quiescence probe: asks a node for its send/process counters.
    Ping {
        /// Echoed in the matching [`ServiceMessage::Pong`].
        token: u64,
        /// Who to send the reply to.
        reply_to: Id,
    },
    /// Reply to [`ServiceMessage::Ping`]: cumulative counted messages this
    /// node has sent and processed (engine messages and state transfers;
    /// control frames are not counted).
    Pong {
        /// The probe's token.
        token: u64,
        /// Counted messages sent.
        sent: u64,
        /// Counted messages processed.
        processed: u64,
    },
    /// Stop the worker loop after draining already-queued messages.
    Shutdown,
}

impl ServiceMessage {
    /// Whether this frame participates in the quiescence conservation
    /// equation (Σ sent == Σ processed): engine messages and state
    /// transfers do; pure control frames don't.
    pub fn is_counted(&self) -> bool {
        matches!(self, ServiceMessage::Engine { .. } | ServiceMessage::Absorb { .. })
    }
}

/// A stored query on the wire: the serializable identity of a
/// [`StoredQuery`]. Caches (the input query's plan, sub-join
/// fingerprints) and the `DISTINCT` duplicate filter are rebuilt at the
/// receiver — per-query answer *sets* are unaffected.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireQuery {
    /// The query and its metadata.
    pub pending: PendingQuery,
    /// The interned key it was stored under.
    pub key: HashedKey,
    /// Attribute- or value-level placement of that key.
    pub level: IndexLevel,
}

/// A serializable [`DrainedState`]: the buckets churn re-homes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StateTransfer {
    /// Stored queries.
    pub queries: Vec<WireQuery>,
    /// Value-level tuple buckets, by key ring id.
    pub tuples: Vec<(u64, Vec<Arc<Tuple>>)>,
    /// ALTT buckets (tuple + retention deadline), by key ring id.
    pub altt: Vec<DrainedAlttBucket>,
}

impl StateTransfer {
    /// Serializable snapshot of drained state.
    pub fn from_drained(drained: DrainedState) -> Self {
        StateTransfer {
            queries: drained
                .queries
                .into_iter()
                .map(|sq| WireQuery { pending: sq.pending, key: sq.key, level: sq.level })
                .collect(),
            tuples: drained.tuples,
            altt: drained.altt,
        }
    }

    /// Rebuilds engine-side drained state (fresh caches and dedup filters).
    pub fn into_drained(self) -> DrainedState {
        DrainedState {
            queries: self
                .queries
                .into_iter()
                .map(|wq| StoredQuery::new(wq.pending, wq.key, wq.level))
                .collect(),
            tuples: self.tuples,
            altt: self.altt,
        }
    }

    /// Total number of transferred items.
    pub fn len(&self) -> usize {
        self.queries.len()
            + self.tuples.iter().map(|(_, b)| b.len()).sum::<usize>()
            + self.altt.iter().map(|(_, b)| b.len()).sum::<usize>()
    }

    /// Whether the transfer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
