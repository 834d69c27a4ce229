//! Error types for query construction, parsing and rewriting.

use crate::ast::QualifiedAttr;
use rjoin_relation::RelationError;
use std::fmt;

/// Errors raised by query construction, validation, parsing or rewriting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The `FROM` clause is empty.
    EmptyFrom,
    /// The `SELECT` list is empty.
    EmptySelect,
    /// The same relation appears twice in the `FROM` clause.
    DuplicateRelation {
        /// The repeated relation name.
        relation: String,
    },
    /// An attribute references a relation that is not in the `FROM` clause.
    UnknownQueryRelation {
        /// The offending attribute reference.
        attr: QualifiedAttr,
    },
    /// A join conjunct relates a relation to itself (self-joins are not
    /// supported).
    SelfJoin {
        /// One side of the offending conjunct.
        attr: QualifiedAttr,
    },
    /// A relation/attribute failed catalog validation.
    Relation(RelationError),
    /// The SQL text could not be parsed.
    Parse {
        /// Human-readable description of the problem.
        message: String,
        /// Byte offset in the input where the problem was detected.
        position: usize,
    },
    /// `rewrite` was invoked with a tuple whose relation is not part of the
    /// query's `FROM` clause.
    IrrelevantTuple {
        /// Relation of the tuple.
        relation: String,
    },
    /// `rewrite` was invoked with a schema that does not match the tuple.
    SchemaMismatch {
        /// Relation of the tuple.
        tuple_relation: String,
        /// Relation of the supplied schema.
        schema_relation: String,
    },
    /// An attribute in the query does not exist in the supplied schema.
    UnknownAttribute {
        /// The offending attribute reference.
        attr: QualifiedAttr,
    },
    /// A tuple carries fewer values than the resolved column offset of an
    /// attribute requires. Distinct from [`UnknownAttribute`]: the attribute
    /// name *is* part of the schema, but the tuple is arity-short, which
    /// points at a malformed tuple (or a compiled-program offset bug), not a
    /// schema typo.
    ///
    /// [`UnknownAttribute`]: QueryError::UnknownAttribute
    ArityMismatch {
        /// The attribute whose resolved offset was out of range.
        attr: QualifiedAttr,
        /// The column offset that was probed.
        index: usize,
        /// The tuple's actual arity.
        arity: usize,
    },
    /// The query's join graph contains a cycle (e.g. `R.A = S.A AND
    /// S.B = T.B AND T.C = R.C`) and the hypercube planner is disabled: the
    /// rewrite pipeline has no plan for cyclic shapes, so the query is
    /// rejected outright rather than silently dropping the cycle-closing
    /// conjunct or looping through rewrite stages.
    CyclicShape,
    /// Rewriting resolved the whole `WHERE` clause (and emptied the `FROM`
    /// list) while a `SELECT` item is still an unresolved attribute
    /// reference — the query can never produce its answer row. Only queries
    /// built without validation (deserialization, unchecked construction)
    /// can reach this state; the constructor requires every `SELECT`
    /// attribute to belong to a `FROM` relation.
    UnresolvedSelect {
        /// The `SELECT` item that can no longer be resolved.
        attr: QualifiedAttr,
    },
    /// The query joins more relations than a rewrite plan has slot bits
    /// for (64).
    TooManyRelations {
        /// The number of relations in `FROM`.
        count: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EmptyFrom => write!(f, "the FROM clause is empty"),
            QueryError::EmptySelect => write!(f, "the SELECT list is empty"),
            QueryError::DuplicateRelation { relation } => {
                write!(f, "relation `{relation}` appears more than once in FROM")
            }
            QueryError::UnknownQueryRelation { attr } => {
                write!(f, "attribute `{attr}` references a relation that is not in FROM")
            }
            QueryError::SelfJoin { attr } => {
                write!(f, "self-joins are not supported (conjunct involving `{attr}`)")
            }
            QueryError::Relation(e) => write!(f, "{e}"),
            QueryError::Parse { message, position } => {
                write!(f, "parse error at byte {position}: {message}")
            }
            QueryError::IrrelevantTuple { relation } => {
                write!(f, "tuple of relation `{relation}` is not referenced by the query")
            }
            QueryError::SchemaMismatch { tuple_relation, schema_relation } => {
                write!(
                    f,
                    "tuple belongs to `{tuple_relation}` but schema describes `{schema_relation}`"
                )
            }
            QueryError::UnknownAttribute { attr } => {
                write!(f, "attribute `{attr}` does not exist in the relation schema")
            }
            QueryError::ArityMismatch { attr, index, arity } => {
                write!(
                    f,
                    "attribute `{attr}` resolves to column {index} but the tuple only carries \
                     {arity} values"
                )
            }
            QueryError::CyclicShape => {
                write!(f, "the query's join graph is cyclic and the hypercube planner is disabled")
            }
            QueryError::UnresolvedSelect { attr } => {
                write!(
                    f,
                    "WHERE clause is fully resolved but SELECT item `{attr}` is still an \
                     attribute reference"
                )
            }
            QueryError::TooManyRelations { count } => {
                write!(f, "the query joins {count} relations; a rewrite plan binds at most 64")
            }
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for QueryError {
    fn from(e: RelationError) -> Self {
        QueryError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_context() {
        let err = QueryError::Parse { message: "expected FROM".into(), position: 12 };
        assert!(err.to_string().contains("12"));
        assert!(err.to_string().contains("expected FROM"));
    }

    #[test]
    fn relation_error_wraps_with_source() {
        use std::error::Error;
        let err: QueryError = RelationError::UnknownRelation { relation: "R".into() }.into();
        assert!(err.source().is_some());
    }
}
