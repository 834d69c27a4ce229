//! The plan-and-bindings trigger the engine runs is the rewrite cascade.
//!
//! A rewritten query is never built: the engine keeps the input query's
//! `RewritePlan` and the tuples bound so far, and derives from the plan
//! everything it used to read off the rewritten `JoinQuery`. For random
//! chain and star queries — every window kind, `DISTINCT` or not — and
//! random tuple sequences, each step checks the plan against
//! `rjoin_query::rewrite` on the query the cascade reached:
//!
//! * the same outcome — mismatch, the same answer row, or a child that is
//!   the same query;
//! * the child's candidate keys, from the plan's per-mask memo, in
//!   `candidate_keys` order;
//! * the trigger-index pins of the tuple's relation, in `WHERE` order, and
//!   the sub-join fingerprint;
//! * the same `DISTINCT` duplicate admissions.

use proptest::prelude::*;
use rjoin_core::DedupFilter;
use rjoin_query::{
    candidate_keys, fingerprint, probe_pins, rewrite, subjoin_fingerprint, Bindings, Conjunct,
    JoinQuery, QualifiedAttr, RewritePlan, RewriteResult, SelectItem, SubJoin, Trigger, WindowSpec,
};
use rjoin_relation::{Catalog, Name, Schema, Tuple, Value};
use std::sync::Arc;

const RELATIONS: usize = 5;

/// The `DISTINCT` projection read off the rewritten query itself: the
/// tuple's values on the attributes of its relation that the query's
/// `SELECT` list or `WHERE` clause names, in schema order, `None` where the
/// tuple is short.
fn reference_projection(query: &JoinQuery, tuple: &Tuple, schema: &Schema) -> Vec<Option<Value>> {
    let selected = query.select().iter().filter_map(|item| match item {
        SelectItem::Attr(attr) => Some(attr),
        _ => None,
    });
    let constrained = query.conjuncts().iter().flat_map(|conjunct| match conjunct {
        Conjunct::JoinEq(a, b) => [Some(a), Some(b)],
        Conjunct::ConstEq(a, _) => [Some(a), None],
    });
    let mut wanted: Vec<usize> = selected
        .chain(constrained.flatten())
        .filter(|attr| attr.relation == tuple.relation())
        .filter_map(|attr| schema.index_of(&attr.attribute))
        .collect();
    wanted.sort_unstable();
    wanted.dedup();
    wanted.into_iter().map(|at| tuple.value(at).cloned()).collect()
}

fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for i in 0..RELATIONS {
        catalog.register(Schema::new(format!("R{i}"), ["A0", "A1", "A2", "A3"]).unwrap()).unwrap();
    }
    catalog
}

fn arb_window() -> impl Strategy<Value = WindowSpec> {
    prop_oneof![
        Just(WindowSpec::None),
        (1u64..50).prop_map(WindowSpec::sliding_tuples),
        (1u64..50).prop_map(WindowSpec::sliding_time),
        (1u64..50).prop_map(WindowSpec::tumbling_time),
    ]
}

/// Chains `R0 - R1 - …` or stars around `R0`, on random attributes, with up
/// to two constant selections and a `SELECT` list over every relation.
fn arb_query() -> impl Strategy<Value = JoinQuery> {
    (
        2usize..=RELATIONS,
        proptest::bool::ANY,
        proptest::collection::vec(0usize..4, 10),
        proptest::collection::vec((0usize..RELATIONS, 0usize..4, 0i64..3), 0..3),
        proptest::bool::ANY,
        arb_window(),
    )
        .prop_map(|(relations, star, attrs, consts, distinct, window)| {
            let rels: Vec<Name> = (0..relations).map(|i| Name::from(format!("R{i}"))).collect();
            let attr = |i: usize| format!("A{}", attrs[i % attrs.len()]);
            let mut conjuncts: Vec<Conjunct> = (1..relations)
                .map(|i| {
                    let left = if star { 0 } else { i - 1 };
                    Conjunct::JoinEq(
                        QualifiedAttr::new(rels[left].clone(), attr(2 * i)),
                        QualifiedAttr::new(rels[i].clone(), attr(2 * i + 1)),
                    )
                })
                .collect();
            for (rel, a, v) in consts {
                let attr = QualifiedAttr::new(rels[rel % relations].clone(), format!("A{a}"));
                conjuncts.push(Conjunct::ConstEq(attr, Value::from(v)));
            }
            let select = rels
                .iter()
                .enumerate()
                .map(|(i, rel)| SelectItem::Attr(QualifiedAttr::new(rel.clone(), attr(i + 3))))
                .collect();
            JoinQuery::new(distinct, select, rels, conjuncts, window).expect("well-formed query")
        })
}

/// Steps: a relation pick among the unbound ones, the tuple's values, and
/// the values of a second tuple the duplicate filters are also shown.
fn arb_steps() -> impl Strategy<Value = Vec<(usize, Vec<i64>, Vec<i64>)>> {
    let values = || proptest::collection::vec(0i64..3, 4);
    proptest::collection::vec((0usize..RELATIONS, values(), values()), 1..12)
}

fn tuple(relation: &Name, values: &[i64]) -> Arc<Tuple> {
    Arc::new(Tuple::new(relation.clone(), values.iter().copied().map(Value::from).collect(), 0))
}

proptest! {
    #[test]
    fn the_plan_and_bindings_trigger_is_the_rewrite_cascade(
        query in arb_query(),
        steps in arb_steps(),
    ) {
        let catalog = catalog();
        let plan = RewritePlan::new(Arc::new(query.clone()), &catalog).unwrap();
        let mut current = query;
        let mut bound = Bindings::default();
        for (pick, values, other) in steps {
            prop_assert_eq!(&plan.materialize(&bound), &current);
            prop_assert_eq!(
                subjoin_fingerprint(SubJoin::Bound(&plan, &bound)),
                fingerprint(&current)
            );
            let relations: Vec<Name> = plan.unbound_relations(bound.mask()).cloned().collect();
            let relation = &relations[pick % relations.len()];
            let schema = catalog.schema(relation).unwrap();
            let arrival = tuple(relation, &values);

            // The trigger index files an entry under the first pin of the
            // key relation: the plan lists the rewritten query's pins.
            let planned_pins: Vec<(&QualifiedAttr, &Value)> = plan
                .pins(&bound)
                .filter(|(_, attr, _)| attr.relation == *relation)
                .map(|(_, attr, value)| (attr, value))
                .collect();
            let pins: Vec<_> = probe_pins(&current, relation).collect();
            prop_assert_eq!(planned_pins, pins);

            let slot = plan.trigger_slot(bound.mask(), relation).expect("an unbound relation");
            if current.distinct() {
                let (mut reference, mut planned) = (DedupFilter::new(), DedupFilter::new());
                let offsets = plan.dedup_offsets(slot);
                for t in [&arrival, &arrival, &tuple(relation, &other)] {
                    let projection = offsets.iter().map(|&at| t.value(at).cloned()).collect();
                    prop_assert_eq!(
                        planned.admit_projection(projection),
                        reference.admit_projection(reference_projection(&current, t, schema))
                    );
                }
            }

            let expected = rewrite(&current, &arrival, schema).unwrap();
            match plan.trigger(&bound, slot, &arrival) {
                Trigger::Mismatch => prop_assert_eq!(expected, RewriteResult::Mismatch),
                Trigger::Answer(row) => {
                    prop_assert_eq!(expected, RewriteResult::Complete(row));
                    break;
                }
                Trigger::Child => {
                    let RewriteResult::Partial(child) = expected else {
                        return Err(TestCaseError::fail(format!("a child where rewrite gave {expected:?}")));
                    };
                    let next = bound.with(slot, &arrival);
                    let keys: Vec<_> = plan
                        .keys(next.mask())
                        .iter()
                        .map(|key| key.index_key(&plan, &next))
                        .collect();
                    prop_assert_eq!(keys, candidate_keys(&child));
                    (current, bound) = (child, next);
                }
            }
        }
    }
}
