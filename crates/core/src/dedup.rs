//! Duplicate elimination for `SELECT DISTINCT` queries (Section 4).

use rjoin_relation::Value;
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

    /// Returns `true` (and records `projection`) if it has not been seen
    /// before; returns `false` if it is a duplicate and must not trigger
    /// the query again. The engine takes a tuple's projection on the
    /// offsets the query's plan fixes for the tuple's relation
    /// ([`RewritePlan::dedup_offsets`](rjoin_query::RewritePlan::dedup_offsets)),
    /// in schema order, so equal projections compare equal.
    ///
    /// The projection is **total**: every offset yields exactly one entry,
    /// with `None` marking an attribute the tuple does not carry (e.g. a
    /// short tuple). Skipping missing values would let two tuples with
    /// different missing-attribute patterns collapse onto the same
    /// projection and wrongly suppress answers.
    pub fn admit_projection(&mut self, projection: Vec<Option<Value>>) -> bool {
        self.seen.insert(projection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjoin_query::{parse_query, RewritePlan};
    use rjoin_relation::{Catalog, Schema, Tuple};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.register(Schema::new("R", ["A", "B", "C"]).unwrap()).unwrap();
        catalog.register(Schema::new("S", ["B1", "B2", "B3"]).unwrap()).unwrap();
        catalog
    }

    fn plan(sql: &str) -> RewritePlan {
        RewritePlan::new(Arc::new(parse_query(sql).unwrap()), &catalog()).unwrap()
    }

    fn tuple(values: &[i64]) -> Tuple {
        Tuple::new("S", values.iter().map(|v| Value::from(*v)).collect(), 0)
    }

    /// A tuple's projection as the engine takes it: its values at the
    /// offsets `plan` fixes for its relation's slot (none for a relation
    /// outside the query).
    fn projection(plan: &RewritePlan, tuple: &Tuple) -> Vec<Option<Value>> {
        let slot = plan.trigger_slot(0, tuple.relation());
        let offsets = slot.map_or(&[][..], |slot| plan.dedup_offsets(slot));
        offsets.iter().map(|&at| tuple.value(at).cloned()).collect()
    }

    /// The exact scenario of Example 2 in the paper: tuples (b,2,c) and
    /// (b,2,e) of S both join with (1,2,3) of R and would produce the answer
    /// (1, b) twice; the projection on {B1, B2} is identical, so the second
    /// tuple must be rejected.
    #[test]
    fn example_two_duplicate_is_rejected() {
        let plan = plan("SELECT DISTINCT R.A, S.B1 FROM R, S WHERE R.B = S.B2");
        let mut filter = DedupFilter::new();
        let t1 = Tuple::new("S", vec![Value::from("b"), Value::from(2), Value::from("c")], 2);
        let t2 = Tuple::new("S", vec![Value::from("b"), Value::from(2), Value::from("e")], 3);
        assert!(filter.admit_projection(projection(&plan, &t1)));
        assert!(
            !filter.admit_projection(projection(&plan, &t2)),
            "same projection must be rejected"
        );
        assert_eq!(filter.len(), 1);
    }

    #[test]
    fn different_projection_is_admitted() {
        let plan = plan("SELECT DISTINCT R.A, S.B1 FROM R, S WHERE R.B = S.B2");
        let mut filter = DedupFilter::new();
        assert!(filter.admit_projection(projection(&plan, &tuple(&[7, 2, 1]))));
        assert!(filter.admit_projection(projection(&plan, &tuple(&[8, 2, 1]))));
        assert_eq!(filter.len(), 2);
    }

    #[test]
    fn projection_ignores_unreferenced_attributes() {
        let plan = plan("SELECT DISTINCT R.A, S.B1 FROM R, S WHERE R.B = S.B2");
        // B3 differs but is not referenced, so the projections are equal.
        let p1 = projection(&plan, &tuple(&[5, 2, 100]));
        let p2 = projection(&plan, &tuple(&[5, 2, 999]));
        assert_eq!(p1, p2);
        assert_eq!(p1, vec![Some(Value::from(5)), Some(Value::from(2))]);
    }

    /// A tuple that does not carry a referenced value projects to an
    /// explicit absent marker in its place, so it can never collapse onto
    /// the projection of a tuple that carries one.
    #[test]
    fn projection_is_total_with_explicit_absent_markers() {
        // The query references B1 and B2 of S.
        let plan = plan("SELECT DISTINCT S.B1 FROM S, R WHERE S.B2 = R.A");
        let missing_b2 = tuple(&[7]);
        let full = tuple(&[7, 7]);
        let p_short = projection(&plan, &missing_b2);
        let p_full = projection(&plan, &full);
        assert_eq!(p_short, vec![Some(Value::from(7)), None]);
        assert_eq!(p_full, vec![Some(Value::from(7)), Some(Value::from(7))]);

        // The filter therefore admits both: different missing-attribute
        // patterns are different projections.
        let mut filter = DedupFilter::new();
        assert!(filter.admit_projection(p_short));
        assert!(
            filter.admit_projection(p_full),
            "a tuple carrying a value where another was absent must not be suppressed"
        );
        assert_eq!(filter.len(), 2);
    }

    #[test]
    fn projection_is_in_schema_order_regardless_of_query_order() {
        let q1 = plan("SELECT DISTINCT S.B2, S.B1 FROM S, R WHERE S.B1 = R.A");
        let q2 = plan("SELECT DISTINCT S.B1, S.B2 FROM S, R WHERE S.B1 = R.A");
        let t = tuple(&[1, 2, 3]);
        assert_eq!(projection(&q1, &t), projection(&q2, &t));
        assert_eq!(projection(&q1, &t), vec![Some(Value::from(1)), Some(Value::from(2))]);
    }

    #[test]
    fn projection_for_other_relation_is_empty() {
        let plan = plan("SELECT DISTINCT R.A FROM R WHERE R.A = 1");
        assert!(projection(&plan, &tuple(&[1, 2, 3])).is_empty());
    }
}
