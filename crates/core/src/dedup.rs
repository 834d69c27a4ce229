//! Duplicate elimination for `SELECT DISTINCT` queries (Section 4).

use rjoin_query::{Conjunct, JoinQuery, SelectItem};
use rjoin_relation::{Schema, Tuple, Value};
use std::collections::HashSet;

/// The per-stored-query filter implementing the paper's set-semantics rule:
///
/// > let `A1, ..., Ak` be the attributes of `R` in the select or where
/// > clause of `q'`; a new tuple `τ'` may trigger `q'` only if its
/// > projection on `A1, ..., Ak` has not occurred in one of the tuples that
/// > already triggered `q'`.
#[derive(Debug, Clone, Default)]
pub struct DedupFilter {
    seen: HashSet<Vec<Option<Value>>>,
}

impl DedupFilter {
    /// Creates an empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct projections recorded so far.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether no projection has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Returns `true` (and records the projection) if the tuple's projection
    /// on the query's attributes of the tuple's relation has not been seen
    /// before; returns `false` if it is a duplicate and must not trigger the
    /// query again.
    pub fn admit(&mut self, query: &JoinQuery, tuple: &Tuple, schema: &Schema) -> bool {
        self.admit_projection(projection(query, tuple, schema))
    }

    /// [`admit`](Self::admit) for a projection already taken — by the
    /// engine, on the offsets the query's plan fixes per relation
    /// ([`RewritePlan::dedup_offsets`](rjoin_query::RewritePlan::dedup_offsets)).
    pub fn admit_projection(&mut self, projection: Vec<Option<Value>>) -> bool {
        self.seen.insert(projection)
    }
}

/// Computes the projection `π_{A1..Ak}(τ)` where `A1..Ak` are the attributes
/// of the tuple's relation that appear in the query's `SELECT` list or
/// `WHERE` clause (in schema order, so equal projections compare equal).
///
/// The projection is **total**: every selected position yields exactly one
/// entry, with `None` marking an attribute the tuple does not carry (e.g. a
/// short tuple). Silently skipping missing values would let two tuples with
/// different missing-attribute patterns collapse onto the same projection
/// and wrongly suppress answers.
pub fn projection(query: &JoinQuery, tuple: &Tuple, schema: &Schema) -> Vec<Option<Value>> {
    let relation = tuple.relation();
    let mut wanted: Vec<usize> = Vec::new();
    let mut add = |attr_name: &str| {
        if let Some(idx) = schema.index_of(attr_name) {
            if !wanted.contains(&idx) {
                wanted.push(idx);
            }
        }
    };
    for item in query.select() {
        if let SelectItem::Attr(a) = item {
            if a.relation == relation {
                add(&a.attribute);
            }
        }
    }
    for conjunct in query.conjuncts() {
        match conjunct {
            Conjunct::JoinEq(a, b) => {
                if a.relation == relation {
                    add(&a.attribute);
                }
                if b.relation == relation {
                    add(&b.attribute);
                }
            }
            Conjunct::ConstEq(a, _) => {
                if a.relation == relation {
                    add(&a.attribute);
                }
            }
        }
    }
    wanted.sort_unstable();
    wanted.into_iter().map(|idx| tuple.value(idx).cloned()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjoin_query::parse_query;

    fn schema() -> Schema {
        Schema::new("S", ["B1", "B2", "B3"]).unwrap()
    }

    fn tuple(values: [i64; 3]) -> Tuple {
        Tuple::new("S", values.iter().map(|v| Value::from(*v)).collect(), 0)
    }

    /// The exact scenario of Example 2 in the paper: tuples (b,2,c) and
    /// (b,2,e) of S both join with (1,2,3) of R and would produce the answer
    /// (1, b) twice; the projection on {B1, B2} is identical, so the second
    /// tuple must be rejected.
    #[test]
    fn example_two_duplicate_is_rejected() {
        // The rewritten query after R's tuple (1,2,3) arrived:
        // select 1, S.B1 from S where S.B2 = 2
        let q = parse_query("SELECT 1, S.B1 FROM S WHERE S.B2 = 2").unwrap();
        let mut filter = DedupFilter::new();
        let t1 = Tuple::new("S", vec![Value::from("b"), Value::from(2), Value::from("c")], 2);
        let t2 = Tuple::new("S", vec![Value::from("b"), Value::from(2), Value::from("e")], 3);
        assert!(filter.admit(&q, &t1, &schema()));
        assert!(!filter.admit(&q, &t2, &schema()), "same projection must be rejected");
        assert_eq!(filter.len(), 1);
    }

    #[test]
    fn different_projection_is_admitted() {
        let q = parse_query("SELECT 1, S.B1 FROM S WHERE S.B2 = 2").unwrap();
        let mut filter = DedupFilter::new();
        assert!(filter.admit(&q, &tuple([7, 2, 1]), &schema()));
        assert!(filter.admit(&q, &tuple([8, 2, 1]), &schema()));
        assert_eq!(filter.len(), 2);
    }

    #[test]
    fn projection_ignores_unreferenced_attributes() {
        let q = parse_query("SELECT 1, S.B1 FROM S WHERE S.B2 = 2").unwrap();
        // B3 differs but is not referenced, so the projections are equal.
        let p1 = projection(&q, &tuple([5, 2, 100]), &schema());
        let p2 = projection(&q, &tuple([5, 2, 999]), &schema());
        assert_eq!(p1, p2);
        assert_eq!(p1, vec![Some(Value::from(5)), Some(Value::from(2))]);
    }

    /// Regression: the projection used to `filter_map` over missing values,
    /// silently shrinking when a tuple did not carry a referenced attribute.
    /// The projection is now **total**: every referenced attribute yields one
    /// positional entry, with an explicit absent marker, so a tuple missing a
    /// referenced value can never collapse onto the projection of a tuple
    /// that carries one.
    #[test]
    fn projection_is_total_with_explicit_absent_markers() {
        // The query references B1 and B2 of S.
        let q = parse_query("SELECT S.B1 FROM S, R WHERE S.B2 = R.A").unwrap();
        let missing_b2 = Tuple::new("S", vec![Value::from(7)], 0);
        let full = Tuple::new("S", vec![Value::from(7), Value::from(7)], 0);
        let p_short = projection(&q, &missing_b2, &schema());
        let p_full = projection(&q, &full, &schema());
        // Both projections cover both referenced attributes — the absent B2
        // is an explicit `None`, not a silently dropped entry.
        assert_eq!(p_short, vec![Some(Value::from(7)), None]);
        assert_eq!(p_full, vec![Some(Value::from(7)), Some(Value::from(7))]);
        assert_ne!(p_short, p_full);

        // The filter therefore admits both: different missing-attribute
        // patterns are different projections.
        let mut filter = DedupFilter::new();
        assert!(filter.admit(&q, &missing_b2, &schema()));
        assert!(
            filter.admit(&q, &full, &schema()),
            "a tuple carrying a value where another was absent must not be suppressed"
        );
        assert_eq!(filter.len(), 2);
    }

    #[test]
    fn projection_is_in_schema_order_regardless_of_query_order() {
        let q1 = parse_query("SELECT S.B2, S.B1 FROM S, R WHERE S.B1 = R.A").unwrap();
        let q2 = parse_query("SELECT S.B1, S.B2 FROM S, R WHERE S.B1 = R.A").unwrap();
        let t = tuple([1, 2, 3]);
        assert_eq!(projection(&q1, &t, &schema()), projection(&q2, &t, &schema()));
    }

    #[test]
    fn projection_for_other_relation_is_empty() {
        let q = parse_query("SELECT R.A FROM R WHERE R.A = 1").unwrap();
        assert!(projection(&q, &tuple([1, 2, 3]), &schema()).is_empty());
    }
}
