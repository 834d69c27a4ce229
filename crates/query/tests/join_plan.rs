//! A join driven by a [`JoinPlan`] against the stepwise rewrite cascade it
//! replaces inside hypercube cells.
//!
//! Both sides see the same stream: tuples arrive one by one in some order,
//! and each arrival is joined with every combination of the tuples that
//! arrived before it (so every combination is assembled exactly once, at
//! its latest member's arrival, as in a cell). The **cascade** rewrites the
//! query with the arrival and then binds the first remaining `FROM`
//! relation, rewrite by rewrite, checking the window span of the tuples it
//! bound. The **plan** admits the arrival to its slot and binds the slot
//! with the shortest pinned candidate list (or scans the first unbound
//! slot), checking join edges by offset. The two must return the same bag
//! of rows for every shape, constant selection, constant `SELECT` item,
//! window kind and arrival order.

use proptest::prelude::*;
use rjoin_query::{
    rewrite, Conjunct, JoinPlan, JoinQuery, QualifiedAttr, RewriteResult, SelectItem, WindowSpec,
};
use rjoin_relation::{Catalog, Schema, Timestamp, Tuple, Value};

const ATTRIBUTES: usize = 4;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for r in 0..4 {
        c.register(Schema::new(format!("R{r}"), ["A0", "A1", "A2", "A3"]).unwrap()).unwrap();
    }
    c
}

/// A join edge `(relation, attribute) = (relation, attribute)`.
type Edge = ((usize, usize), (usize, usize));

/// The join edges over `R0..R3` of the chain, star, triangle, 4-cycle,
/// 4-clique and disconnected shapes, with the number of relations each uses.
fn shape(index: usize) -> (usize, Vec<Edge>) {
    match index {
        0 => (3, vec![((0, 0), (1, 0)), ((1, 1), (2, 1))]),
        1 => (4, vec![((0, 0), (1, 0)), ((0, 1), (2, 1)), ((0, 2), (3, 2))]),
        2 => (3, vec![((0, 0), (1, 0)), ((1, 1), (2, 1)), ((2, 2), (0, 2))]),
        3 => (4, vec![((0, 0), (1, 0)), ((1, 1), (2, 1)), ((2, 2), (3, 2)), ((3, 0), (0, 1))]),
        4 => (
            4,
            vec![
                ((0, 0), (1, 0)),
                ((0, 1), (2, 1)),
                ((0, 2), (3, 2)),
                ((1, 1), (2, 2)),
                ((1, 2), (3, 0)),
                ((2, 0), (3, 1)),
            ],
        ),
        _ => (4, vec![((0, 0), (1, 0)), ((2, 1), (3, 1))]),
    }
}

fn attr((relation, attribute): (usize, usize)) -> QualifiedAttr {
    QualifiedAttr::new(format!("R{relation}"), format!("A{attribute}"))
}

/// Builds one query of shape `shape_index` with the constant selections
/// `consts` (relation, attribute, value) spread over its `WHERE` clause and
/// a `SELECT` list of `(constant?, relation, attribute, value)` items.
fn query(
    shape_index: usize,
    consts: &[(usize, usize, i64)],
    select: &[(bool, usize, usize, i64)],
    window: WindowSpec,
) -> JoinQuery {
    let (relations, edges) = shape(shape_index);
    let mut conjuncts: Vec<Conjunct> =
        edges.into_iter().map(|(a, b)| Conjunct::JoinEq(attr(a), attr(b))).collect();
    for (i, &(r, a, v)) in consts.iter().enumerate() {
        let at = (i * 3) % (conjuncts.len() + 1);
        conjuncts.insert(at, Conjunct::ConstEq(attr((r % relations, a)), Value::from(v)));
    }
    let select = select
        .iter()
        .map(|&(constant, r, a, v)| {
            if constant {
                SelectItem::Const(Value::from(v))
            } else {
                SelectItem::Attr(attr((r % relations, a)))
            }
        })
        .collect();
    let from = (0..relations).map(|r| format!("R{r}").into()).collect();
    JoinQuery::new(false, select, from, conjuncts, window).expect("well-formed shape")
}

/// The rewrite cascade over the tuples that arrived before `driver`.
fn cascade_rows(
    catalog: &Catalog,
    q: &JoinQuery,
    driver: &Tuple,
    earlier: &[&Tuple],
) -> Vec<Vec<Value>> {
    fn extend(
        catalog: &Catalog,
        partial: &JoinQuery,
        earlier: &[&Tuple],
        (lo, hi): (Timestamp, Timestamp),
        out: &mut Vec<Vec<Value>>,
    ) {
        let next = &partial.relations()[0];
        for candidate in earlier.iter().filter(|t| t.relation() == next.as_str()) {
            let span = (lo.min(candidate.pub_time()), hi.max(candidate.pub_time()));
            if !partial.window().within(span.0, span.1) {
                continue;
            }
            let schema = catalog.schema(candidate.relation()).unwrap();
            match rewrite(partial, candidate, schema).unwrap() {
                RewriteResult::Complete(row) => out.push(row),
                RewriteResult::Partial(child) => extend(catalog, &child, earlier, span, out),
                RewriteResult::Mismatch => {}
            }
        }
    }
    let mut out = Vec::new();
    let schema = catalog.schema(driver.relation()).unwrap();
    match rewrite(q, driver, schema).unwrap() {
        RewriteResult::Complete(row) => out.push(row),
        RewriteResult::Partial(partial) => {
            let p = driver.pub_time();
            extend(catalog, &partial, earlier, (p, p), &mut out);
        }
        RewriteResult::Mismatch => {}
    }
    out
}

/// The plan-driven nested join over the same tuples.
fn plan_rows(plan: &JoinPlan, driver: &Tuple, earlier: &[&Tuple]) -> Vec<Vec<Value>> {
    fn extend<'a>(
        plan: &JoinPlan,
        earlier: &[&'a Tuple],
        bound: &mut Vec<Option<&'a Tuple>>,
        (lo, hi): (Timestamp, Timestamp),
        out: &mut Vec<Vec<Value>>,
    ) {
        let Some(first_unbound) = bound.iter().position(Option::is_none) else {
            out.push(plan.project(bound));
            return;
        };
        let of_slot =
            |slot: usize| earlier.iter().copied().filter(move |t| plan.admit(t) == Some(slot));
        // The shortest pinned candidate list, as a cell's index would give.
        let mut best: Option<(usize, Vec<&'a Tuple>)> = None;
        for (at, value) in plan.pins(bound) {
            let list: Vec<&Tuple> =
                of_slot(at.slot).filter(|t| t.values()[at.offset] == *value).collect();
            if best.as_ref().is_none_or(|(_, b)| list.len() < b.len()) {
                best = Some((at.slot, list));
            }
        }
        let (slot, candidates) =
            best.unwrap_or_else(|| (first_unbound, of_slot(first_unbound).collect()));
        for candidate in candidates {
            let span = (lo.min(candidate.pub_time()), hi.max(candidate.pub_time()));
            if !plan.window().within(span.0, span.1) || !plan.joins(slot, candidate, bound) {
                continue;
            }
            bound[slot] = Some(candidate);
            extend(plan, earlier, bound, span, out);
            bound[slot] = None;
        }
    }
    let mut out = Vec::new();
    if let Some(slot) = plan.admit(driver) {
        let mut bound = vec![None; plan.relations().len()];
        bound[slot] = Some(driver);
        let p = driver.pub_time();
        extend(plan, earlier, &mut bound, (p, p), &mut out);
    }
    out
}

/// Runs a stream through both joins, arrival by arrival, and returns the
/// two bags sorted.
fn both(q: &JoinQuery, tuples: &[Tuple], order: &[usize]) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let catalog = catalog();
    let plan = JoinPlan::new(q, &catalog).unwrap();
    let (mut cascade, mut planned) = (Vec::new(), Vec::new());
    for (k, &i) in order.iter().enumerate() {
        let earlier: Vec<&Tuple> = order[..k].iter().map(|&j| &tuples[j]).collect();
        cascade.extend(cascade_rows(&catalog, q, &tuples[i], &earlier));
        planned.extend(plan_rows(&plan, &tuples[i], &earlier));
    }
    cascade.sort();
    planned.sort();
    (cascade, planned)
}

fn tuple(relation: usize, values: [i64; 4], pub_time: Timestamp) -> Tuple {
    Tuple::new(format!("R{relation}"), values.map(Value::from).to_vec(), pub_time)
}

proptest! {
    #[test]
    fn a_plan_driven_join_returns_the_rewrite_cascades_bag(
        shape_index in 0usize..6,
        consts in proptest::collection::vec((0usize..4, 0usize..ATTRIBUTES, 0i64..2), 0..3),
        // About one `SELECT` item in three is a constant.
        select in proptest::collection::vec((0u8..3, 0usize..4, 0usize..ATTRIBUTES, 0i64..9), 1..4),
        window in prop_oneof![
            Just(WindowSpec::None),
            (1u64..8).prop_map(WindowSpec::sliding_tuples),
            (1u64..8).prop_map(WindowSpec::tumbling_time),
        ],
        rows in proptest::collection::vec((0usize..4, proptest::collection::vec(0i64..2, 4)), 3..14),
        shuffle in proptest::collection::vec(0u32..1_000, 14),
    ) {
        let select: Vec<_> = select.into_iter().map(|(c, r, a, v)| (c == 0, r, a, v)).collect();
        let q = query(shape_index, &consts, &select, window);
        let relations = q.relations().len();
        let tuples: Vec<Tuple> = rows
            .iter()
            .enumerate()
            .map(|(i, (r, v))| tuple(r % relations, [v[0], v[1], v[2], v[3]], 100 + i as u64))
            .collect();
        let mut order: Vec<usize> = (0..tuples.len()).collect();
        order.sort_by_key(|&i| (shuffle[i], i));
        let (cascade, planned) = both(&q, &tuples, &order);
        prop_assert_eq!(planned, cascade, "{}", q);
    }
}

/// The rejections both sides must agree on: a tuple failing a constant
/// selection is never admitted (the cascade's rewrite mismatches it), and a
/// combination whose publication times do not fit one window never joins,
/// whichever of its tuples arrives last.
#[test]
fn constant_mismatches_and_over_wide_spans_are_rejected() {
    let catalog = catalog();
    let triangle = query(2, &[(1, 3, 1)], &[(false, 0, 3, 0), (true, 0, 0, 7)], WindowSpec::None);
    let plan = JoinPlan::new(&triangle, &catalog).unwrap();
    // R1.A3 = 1 is required: the first R1 tuple passes, the second does not.
    let (r0, r1, r2) =
        (tuple(0, [1, 0, 3, 4], 1), tuple(1, [1, 2, 0, 1], 2), tuple(2, [0, 2, 3, 0], 3));
    let mismatch = tuple(1, [1, 2, 0, 0], 4);
    assert_eq!(plan.admit(&r1), Some(1));
    assert_eq!(plan.admit(&mismatch), None);
    let schema = catalog.schema("R1").unwrap();
    assert_eq!(rewrite(&triangle, &mismatch, schema).unwrap(), RewriteResult::Mismatch);
    let (cascade, planned) =
        both(&triangle, &[r0.clone(), r1.clone(), r2.clone(), mismatch], &[0, 3, 1, 2]);
    assert_eq!(cascade, [[Value::from(4), Value::from(7)]]);
    assert_eq!(planned, cascade, "exactly the combination with the admitted R1 tuple");

    // A sliding window of 3 admits spans of at most two ticks: R0 at 1 and
    // R2 at 3 fit with R1 at 2, but not once R2 is published at 4.
    let windowed = triangle.clone().with_window(WindowSpec::sliding_tuples(3));
    let late = tuple(2, [0, 2, 3, 0], 4);
    for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
        let (cascade, planned) = both(&windowed, &[r0.clone(), r1.clone(), r2.clone()], &order);
        assert_eq!((cascade.len(), planned.len()), (1, 1), "span 1..=3 fits");
        let (cascade, planned) = both(&windowed, &[r0.clone(), r1.clone(), late.clone()], &order);
        assert!(cascade.is_empty() && planned.is_empty(), "span 1..=4 does not");
    }
}
