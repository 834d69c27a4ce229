//! Property-based tests for the query model: parser/printer round-trips and
//! invariants of the rewriting step.

use proptest::prelude::*;
use rjoin_query::{
    candidate_keys, compile_subjoin, parse_query, rewrite, Bindings, Conjunct, IndexLevel,
    JoinQuery, QualifiedAttr, RewritePlan, RewriteResult, SelectItem, Trigger, WindowSpec,
};
use rjoin_relation::{Catalog, Schema, Tuple, Value};
use std::sync::Arc;

/// Strategy producing random chain-join queries over relations `R0..R5` with
/// attributes `A0..A3`.
fn arb_chain_query() -> impl Strategy<Value = JoinQuery> {
    (
        2usize..=5,                               // number of relations in the chain
        proptest::collection::vec(0usize..4, 10), // attribute picks
        proptest::bool::ANY,                      // distinct
        prop_oneof![
            Just(WindowSpec::None),
            (1u64..200).prop_map(WindowSpec::sliding_tuples),
            (1u64..200).prop_map(WindowSpec::sliding_time),
        ],
        proptest::option::of(0i64..5), // optional constant predicate value
    )
        .prop_map(|(relations, attrs, distinct, window, const_pred)| {
            let rels: Vec<rjoin_relation::Name> =
                (0..relations).map(|i| rjoin_relation::Name::from(format!("R{i}"))).collect();
            let attr = |i: usize| format!("A{}", attrs[i % attrs.len()]);
            let mut conjuncts = Vec::new();
            for (i, pair) in rels.windows(2).enumerate() {
                conjuncts.push(Conjunct::JoinEq(
                    QualifiedAttr::new(pair[0].clone(), attr(2 * i)),
                    QualifiedAttr::new(pair[1].clone(), attr(2 * i + 1)),
                ));
            }
            if let Some(v) = const_pred {
                conjuncts.push(Conjunct::ConstEq(
                    QualifiedAttr::new(rels[0].clone(), "A0"),
                    Value::from(v),
                ));
            }
            let select = vec![
                SelectItem::Attr(QualifiedAttr::new(rels[0].clone(), attr(7))),
                SelectItem::Attr(QualifiedAttr::new(rels[rels.len() - 1].clone(), attr(8))),
            ];
            JoinQuery::new(distinct, select, rels, conjuncts, window).expect("well-formed chain")
        })
}

/// Strategy producing random star-join queries: `R0` joined to each of
/// `R1..R4` on randomly picked attributes (so one centre attribute can sit in
/// several join conjuncts), plus up to two constant predicates anywhere.
fn arb_star_query() -> impl Strategy<Value = JoinQuery> {
    (
        2usize..=5,
        proptest::collection::vec(0usize..4, 10),
        proptest::collection::vec((0usize..5, 0usize..4, 0i64..5), 0..3),
    )
        .prop_map(|(relations, attrs, consts)| {
            let rels: Vec<rjoin_relation::Name> =
                (0..relations).map(|i| rjoin_relation::Name::from(format!("R{i}"))).collect();
            let attr = |i: usize| format!("A{}", attrs[i % attrs.len()]);
            let mut conjuncts: Vec<Conjunct> = (1..relations)
                .map(|i| {
                    Conjunct::JoinEq(
                        QualifiedAttr::new(rels[0].clone(), attr(2 * i)),
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
                .map(|(i, rel)| SelectItem::Attr(QualifiedAttr::new(rel.clone(), attr(i))))
                .collect();
            JoinQuery::new(false, select, rels, conjuncts, WindowSpec::None).expect("star")
        })
}

fn arb_query() -> impl Strategy<Value = JoinQuery> {
    prop_oneof![arb_chain_query(), arb_star_query()]
}

/// A stream of `(relation pick, tuple values)` steps.
fn arb_steps() -> impl Strategy<Value = Vec<(usize, Vec<i64>)>> {
    proptest::collection::vec((0usize..5, proptest::collection::vec(0i64..5, 4)), 1..12)
}

fn tuple_of(relation: &str, values: &[i64]) -> Tuple {
    Tuple::new(relation, values.iter().copied().map(Value::from).collect(), 0)
}

fn schema_for(relation: &str) -> Schema {
    Schema::new(relation, ["A0", "A1", "A2", "A3"]).unwrap()
}

/// `R0..R5`, each with the attributes of [`schema_for`].
fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for i in 0..6 {
        catalog.register(schema_for(&format!("R{i}"))).unwrap();
    }
    catalog
}

/// One rewrite step on the plan, as the rewrite cascade reports it: the
/// answer row, the child (bindings plus the tuple) built, or a mismatch —
/// with the child's bindings.
fn plan_step(
    plan: &RewritePlan,
    bound: &Bindings,
    tuple: &Arc<Tuple>,
) -> (RewriteResult, Option<Bindings>) {
    let Some(slot) = plan.trigger_slot(bound.mask(), tuple.relation()) else {
        return (RewriteResult::Mismatch, None);
    };
    match plan.trigger(bound, slot, tuple) {
        Trigger::Mismatch => (RewriteResult::Mismatch, None),
        Trigger::Answer(row) => (RewriteResult::Complete(row), None),
        Trigger::Child => {
            let child = bound.with(slot, tuple);
            (RewriteResult::Partial(plan.materialize(&child)), Some(child))
        }
    }
}

fn arb_tuple_for(relation: String) -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(0i64..5, 4).prop_map(move |vals| {
        Tuple::new(relation.clone(), vals.into_iter().map(Value::from).collect(), 0)
    })
}

proptest! {
    /// Printing a query and re-parsing it yields an identical query.
    #[test]
    fn display_parse_round_trip(query in arb_chain_query()) {
        let printed = query.to_string();
        let reparsed = parse_query(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse `{printed}`: {e}"));
        prop_assert_eq!(reparsed, query);
    }

    /// Rewriting with a tuple of relation `R` removes `R` from the FROM list,
    /// never increases the number of join conjuncts, and preserves DISTINCT
    /// and the window declaration.
    #[test]
    fn rewrite_shrinks_query(
        query in arb_chain_query(),
        tuple_vals in proptest::collection::vec(0i64..5, 4),
    ) {
        let relation = query.relations()[0].clone();
        let schema = schema_for(&relation);
        let tuple = Tuple::new(
            relation.clone(),
            tuple_vals.into_iter().map(Value::from).collect(),
            0,
        );
        match rewrite(&query, &tuple, &schema).unwrap() {
            RewriteResult::Partial(rewritten) => {
                prop_assert!(!rewritten.references_relation(&relation));
                prop_assert!(rewritten.join_count() < query.join_count()
                    || query.join_count() == 0);
                prop_assert_eq!(rewritten.relations().len(), query.relations().len() - 1);
                prop_assert_eq!(rewritten.distinct(), query.distinct());
                prop_assert_eq!(rewritten.window(), query.window());
            }
            RewriteResult::Complete(row) => {
                prop_assert_eq!(row.len(), query.select().len());
                prop_assert_eq!(query.relations().len(), 1);
            }
            RewriteResult::Mismatch => {
                // Only possible when the query constrains the relation with a
                // constant predicate.
                prop_assert!(query
                    .conjuncts()
                    .iter()
                    .any(|c| matches!(c, Conjunct::ConstEq(a, _) if a.relation == relation)));
            }
        }
    }

    /// Repeatedly rewriting a chain query with matching tuples (one per
    /// relation, sharing the join values) always terminates in a complete
    /// answer after exactly `relations` steps.
    #[test]
    fn full_rewrite_chain_completes(query in arb_chain_query()) {
        // Build tuples whose every attribute is 0 so that all join conjuncts
        // match; a constant predicate on value v != 0 may legitimately
        // mismatch, in which case the chain stops early.
        let mut current = query.clone();
        let mut steps = 0usize;
        while let Some(relation) = current.relations().first().cloned() {
            let schema = schema_for(&relation);
            let tuple = Tuple::new(
                relation.clone(),
                vec![Value::from(0); 4],
                0,
            );
            match rewrite(&current, &tuple, &schema).unwrap() {
                RewriteResult::Partial(next) => {
                    current = next;
                    steps += 1;
                    prop_assert!(steps <= query.relations().len());
                }
                RewriteResult::Complete(row) => {
                    prop_assert_eq!(row.len(), query.select().len());
                    prop_assert_eq!(steps + 1, query.relations().len());
                    break;
                }
                RewriteResult::Mismatch => {
                    // The optional constant predicate did not match value 0.
                    break;
                }
            }
        }
    }

    /// Differential: on a random query driven through a random tuple stream,
    /// the compiled predicate program and the AST interpreter must produce
    /// identical `RewriteResult`s at every step — the same mismatches, the
    /// same byte-identical children and answer rows. The stream keeps
    /// stepping through interpreter children, so rewritten queries (heavy in
    /// `ConstEq` residue and resolved `SELECT` slots) are exercised too.
    #[test]
    fn compiled_program_matches_interpreter(
        query in arb_chain_query(),
        picks in proptest::collection::vec((0usize..5, proptest::collection::vec(0i64..5, 4)), 1..12),
    ) {
        let mut current = query;
        for (rel_pick, vals) in picks {
            if current.relations().is_empty() {
                break;
            }
            let relation = current.relations()[rel_pick % current.relations().len()].clone();
            let schema = schema_for(&relation);
            let tuple = Tuple::new(
                relation.clone(),
                vals.into_iter().map(Value::from).collect(),
                0,
            );
            let interpreted = rewrite(&current, &tuple, &schema).unwrap();
            let program = compile_subjoin(&current, &schema).unwrap();
            let compiled = program.execute(&current, &tuple).unwrap();
            prop_assert_eq!(&compiled, &interpreted);
            match interpreted {
                RewriteResult::Partial(next) => current = next,
                RewriteResult::Complete(_) | RewriteResult::Mismatch => break,
            }
        }
    }

    /// One plan serves every query its input query spawns: driving two
    /// bindings of one input query through the same relations but
    /// **different tuples** yields, step by step, two rewritten queries of
    /// one shape with different constants. The input query's plan, run on
    /// either binding, produces exactly what the interpreter produces for
    /// the query that binding denotes: the same mismatches, byte-identical
    /// children and answer rows.
    #[test]
    fn a_program_serves_every_query_of_its_shape(
        query in arb_query(),
        steps in arb_steps(),
        other_values in proptest::collection::vec(proptest::collection::vec(0i64..5, 4), 12),
    ) {
        let catalog = catalog();
        let plan = RewritePlan::new(Arc::new(query.clone()), &catalog).unwrap();
        let (mut ours, mut theirs) = (Bindings::default(), Bindings::default());
        for (step, (rel_pick, values)) in steps.into_iter().enumerate() {
            let relations: Vec<_> = plan.unbound_relations(ours.mask()).cloned().collect();
            let relation = relations[rel_pick % relations.len()].clone();
            let schema = schema_for(&relation);
            let mut next = Vec::new();
            for (bound, values) in [(&ours, &values), (&theirs, &values), (&theirs, &other_values[step])] {
                let tuple = Arc::new(tuple_of(&relation, values));
                let (planned, child) = plan_step(&plan, bound, &tuple);
                prop_assert_eq!(&planned, &rewrite(&plan.materialize(bound), &tuple, &schema).unwrap());
                next.push(child);
            }
            // Advance both over the same relation with their own tuples;
            // stop as soon as either leaves the common shape.
            match (next.swap_remove(0), next.swap_remove(1)) {
                (Some(a), Some(b)) => (ours, theirs) = (a, b),
                _ => break,
            }
        }
    }

    /// The candidate keys a plan memoises for a child's bound mask are
    /// `candidate_keys(child)`, element for element and in the same order,
    /// and interning through the plan equals interning the key.
    #[test]
    fn child_key_templates_equal_candidate_keys_of_the_child(
        query in arb_query(),
        steps in arb_steps(),
    ) {
        let plan = RewritePlan::new(Arc::new(query), &catalog()).unwrap();
        let mut bound = Bindings::default();
        for (rel_pick, values) in steps {
            let relations: Vec<_> = plan.unbound_relations(bound.mask()).cloned().collect();
            let relation = relations[rel_pick % relations.len()].clone();
            let tuple = Arc::new(tuple_of(&relation, &values));
            let (_, Some(child)) = plan_step(&plan, &bound, &tuple) else { break };
            let expected = candidate_keys(&plan.materialize(&child));
            let keys = plan.keys(child.mask());
            prop_assert_eq!(keys.len(), expected.len());
            for (planned, key) in keys.iter().zip(&expected) {
                prop_assert_eq!(planned.level(), key.level());
                prop_assert_eq!(&planned.index_key(&plan, &child), key);
                prop_assert_eq!(planned.hashed(&plan, &child), key.hashed());
            }
            bound = child;
        }
    }

    /// Candidate keys are non-empty for any query with at least one conjunct,
    /// deduplicated, and every value-level candidate also has its
    /// attribute-level counterpart or stems from a constant predicate.
    #[test]
    fn candidate_keys_cover_conjuncts(query in arb_chain_query()) {
        let keys = candidate_keys(&query);
        prop_assert!(!keys.is_empty());
        let mut sorted = keys.clone();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), keys.len(), "candidates must be deduplicated");
        // Every join conjunct contributes its two attribute-level keys.
        for conjunct in query.conjuncts() {
            if let Conjunct::JoinEq(a, b) = conjunct {
                prop_assert!(keys.iter().any(|k| k.level() == IndexLevel::Attribute
                    && k.relation() == a.relation
                    && k.attribute_name() == a.attribute));
                prop_assert!(keys.iter().any(|k| k.level() == IndexLevel::Attribute
                    && k.relation() == b.relation
                    && k.attribute_name() == b.attribute));
            }
        }
    }

    /// Key strings are injective over the candidate set: two distinct keys
    /// never produce the same hashed string.
    #[test]
    fn key_strings_are_unique(query in arb_chain_query(), tuple in arb_tuple_for("R0".to_string())) {
        let schema = schema_for("R0");
        let mut keys = candidate_keys(&query);
        keys.extend(rjoin_query::tuple_index_keys(&tuple, &schema));
        keys.sort();
        keys.dedup();
        let mut strings: Vec<String> = keys.iter().map(|k| k.to_key_string()).collect();
        strings.sort();
        let before = strings.len();
        strings.dedup();
        prop_assert_eq!(strings.len(), before);
    }
}
