//! Error types of the RJoin engine.

use rjoin_dht::{DhtError, Id};
use rjoin_query::QueryError;
use rjoin_relation::RelationError;
use std::fmt;

/// Errors raised by the RJoin engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The referenced node is not part of the network.
    UnknownNode {
        /// The missing node.
        id: Id,
    },
    /// The query failed validation against the catalog or has no candidate
    /// index key.
    Query(QueryError),
    /// A query has no key it could be indexed under (no conjuncts at all and
    /// more than one relation).
    NoCandidateKey,
    /// The published tuple failed catalog validation.
    Relation(RelationError),
    /// The underlying DHT reported an error (e.g. lookup failure after
    /// massive un-repaired churn).
    Dht(DhtError),
    /// The operation re-homes stored state and needs a quiescent network,
    /// but messages are still in flight.
    NotQuiescent {
        /// Messages in flight when the operation was refused.
        in_flight: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownNode { id } => write!(f, "node {id} is not part of the network"),
            EngineError::Query(e) => write!(f, "invalid query: {e}"),
            EngineError::NoCandidateKey => {
                write!(f, "the query has no relation-attribute pair to index it under")
            }
            EngineError::Relation(e) => write!(f, "invalid tuple: {e}"),
            EngineError::Dht(e) => write!(f, "DHT error: {e}"),
            EngineError::NotQuiescent { in_flight } => {
                write!(f, "{in_flight} messages in flight; drain the network first")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Query(e) => Some(e),
            EngineError::Relation(e) => Some(e),
            EngineError::Dht(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for EngineError {
    fn from(e: QueryError) -> Self {
        EngineError::Query(e)
    }
}

impl From<RelationError> for EngineError {
    fn from(e: RelationError) -> Self {
        EngineError::Relation(e)
    }
}

impl From<DhtError> for EngineError {
    fn from(e: DhtError) -> Self {
        EngineError::Dht(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        use std::error::Error;
        let e: EngineError = QueryError::EmptyFrom.into();
        assert!(e.source().is_some());
        let e: EngineError = DhtError::EmptyRing.into();
        assert!(e.to_string().contains("DHT"));
        let e = EngineError::NoCandidateKey;
        assert!(e.source().is_none());
    }
}
