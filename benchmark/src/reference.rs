//! The one reference evaluator the benchmark owns.
//!
//! A centralized, incremental evaluation of continuous equi-join queries
//! under bag semantics: every published tuple is joined against the
//! earlier tuples still inside its window, and each completed combination
//! is attributed to the publication unit of its newest tuple. The answer
//! rule is the `windowed_oracle_answers` rule of
//! `crates/core/tests/oracle.rs`: one tuple per `FROM` relation, every
//! conjunct satisfied, every publication time `>=` the query's insertion
//! time, and the oldest and newest publication times within one window.
//!
//! Queries are grouped by sub-join (identical `FROM` / `WHERE` / window,
//! `SELECT` abstracted), so 2 000 overlapping queries over 40 patterns cost
//! 40 join evaluations per tuple; members of a group differ only in their
//! insertion time and projection.
//!
//! It shares no code with the engine under test beyond the AST and value
//! types, and it never runs inside a timed region.

use rjoin::query::{Conjunct, JoinQuery, SelectItem, WindowSpec};
use rjoin::relation::{Catalog, Name, Tuple, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Publication / insertion time (the workspace's `Timestamp`).
pub type Time = u64;

/// What the engine must deliver for one epoch.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Per publication unit: `(query index, answers this unit completes)`,
    /// ascending by query index, zero counts omitted.
    pub per_unit: Vec<Vec<(u32, u32)>>,
    /// Per query: total expected answers.
    pub totals: Vec<u64>,
    /// Per query: wrapping sum of [`row_hash`] over the expected rows — an
    /// order-independent digest of the expected answer bag.
    pub checksums: Vec<u64>,
}

/// Deterministic digest of one answer row (SipHash with the fixed default
/// keys, so both sides of a comparison agree across processes).
pub fn row_hash(row: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    row.hash(&mut h);
    h.finish()
}

/// What was actually delivered, per query index: answer counts and the
/// same order-independent digest [`Expected::checksums`] carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    pub counts: Vec<u64>,
    pub checksums: Vec<u64>,
}

impl Tally {
    pub fn new(queries: usize) -> Self {
        Tally { counts: vec![0; queries], checksums: vec![0; queries] }
    }

    pub fn record(&mut self, query: usize, row: &[Value]) {
        self.counts[query] += 1;
        self.checksums[query] = self.checksums[query].wrapping_add(row_hash(row));
    }
}

/// Delivered vs expected, summed over queries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Σ expected answers.
    pub expected: u64,
    /// Σ min(delivered, expected) — the numerator of `answer_recall`.
    pub matched: u64,
    /// Expected answers that never arrived.
    pub missing: u64,
    /// Answers beyond the expected count, plus one per query whose count
    /// matches but whose rows do not.
    pub spurious: u64,
}

impl Verdict {
    pub fn recall(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.matched as f64 / self.expected as f64
        }
    }

    pub fn merge(&mut self, other: &Verdict) {
        self.expected += other.expected;
        self.matched += other.matched;
        self.missing += other.missing;
        self.spurious += other.spurious;
    }
}

/// Compares a delivery tally against the expectation.
pub fn verify(expected: &Expected, delivered: &Tally) -> Verdict {
    let mut v = Verdict::default();
    for (q, &want) in expected.totals.iter().enumerate() {
        let got = delivered.counts[q];
        v.expected += want;
        v.matched += got.min(want);
        v.missing += want.saturating_sub(got);
        v.spurious += got.saturating_sub(want);
        if got == want && delivered.checksums[q] != expected.checksums[q] {
            v.spurious += 1;
        }
    }
    v
}

/// `(FROM position, column)` of an attribute reference.
type Slot = (usize, usize);

#[derive(Debug)]
enum Filter {
    Join(Slot, Slot),
    Const(Slot, Value),
}

/// Binds one more `FROM` relation: candidates come from an index lookup on
/// `lookup` (or a full scan when the relation is not connected to what is
/// already bound), then must pass `filters`.
#[derive(Debug)]
struct Step {
    position: usize,
    store: usize,
    /// `(column of this relation, already-bound slot it must equal)`.
    lookup: Option<(usize, Slot)>,
    filters: Vec<Filter>,
}

/// The join order used when a tuple of `FROM[trigger]` arrives.
#[derive(Debug)]
struct Plan {
    trigger_filters: Vec<Filter>,
    steps: Vec<Step>,
}

#[derive(Debug)]
enum Projection {
    Slot(Slot),
    Const(Value),
}

#[derive(Debug)]
struct Member {
    query: u32,
    insert_time: Time,
    select: Vec<Projection>,
}

#[derive(Debug)]
struct Group {
    window: WindowSpec,
    /// One plan per `FROM` position.
    plans: Vec<Plan>,
    /// Ascending by insertion time, so the members eligible for a
    /// combination are a prefix.
    members: Vec<Member>,
}

#[derive(Default)]
struct RelationStore<'a> {
    tuples: Vec<&'a Tuple>,
    /// column → value → positions in `tuples`, ascending (= publication
    /// order).
    indexes: HashMap<usize, HashMap<&'a Value, Vec<u32>>>,
}

fn slot_of(catalog: &Catalog, relations: &[Name], relation: &str, attribute: &str) -> Slot {
    let position = relations
        .iter()
        .position(|r| r.as_ref() == relation)
        .expect("validated queries reference FROM relations only");
    let column = catalog
        .schema(relation)
        .and_then(|s| s.index_of(attribute))
        .expect("validated queries reference existing attributes");
    (position, column)
}

fn filter_of(catalog: &Catalog, relations: &[Name], conjunct: &Conjunct) -> Filter {
    match conjunct {
        Conjunct::JoinEq(a, b) => Filter::Join(
            slot_of(catalog, relations, &a.relation, &a.attribute),
            slot_of(catalog, relations, &b.relation, &b.attribute),
        ),
        Conjunct::ConstEq(a, v) => {
            Filter::Const(slot_of(catalog, relations, &a.relation, &a.attribute), v.clone())
        }
    }
}

fn positions_of(filter: &Filter) -> Vec<usize> {
    match filter {
        Filter::Join(a, b) => vec![a.0, b.0],
        Filter::Const(a, _) => vec![a.0],
    }
}

fn build_plan(
    catalog: &Catalog,
    query: &JoinQuery,
    trigger: usize,
    store_ids: &HashMap<Name, usize>,
) -> Plan {
    let relations = query.relations();
    let mut pending: Vec<Option<Filter>> =
        query.conjuncts().iter().map(|c| Some(filter_of(catalog, relations, c))).collect();
    let mut bound = vec![false; relations.len()];
    bound[trigger] = true;

    // Moves every not-yet-applied conjunct whose relations are all bound.
    fn take_ready(pending: &mut [Option<Filter>], bound: &[bool]) -> Vec<Filter> {
        let mut ready = Vec::new();
        for slot in pending.iter_mut() {
            if slot.as_ref().is_some_and(|f| positions_of(f).iter().all(|&p| bound[p])) {
                ready.extend(slot.take());
            }
        }
        ready
    }

    let trigger_filters = take_ready(&mut pending, &bound);
    let mut steps = Vec::new();
    while bound.iter().any(|b| !b) {
        // Prefer a relation joined to something already bound, so its
        // candidates come from an index lookup.
        let mut choice: Option<(usize, usize, (usize, Slot))> = None;
        for (i, filter) in pending.iter().enumerate() {
            if let Some(Filter::Join(a, b)) = filter {
                let link = match (bound[a.0], bound[b.0]) {
                    (true, false) => Some((b.0, (b.1, *a))),
                    (false, true) => Some((a.0, (a.1, *b))),
                    _ => None,
                };
                if let Some((position, lookup)) = link {
                    choice = Some((i, position, lookup));
                    break;
                }
            }
        }
        let (position, lookup) = match choice {
            Some((i, position, lookup)) => {
                pending[i] = None;
                (position, Some(lookup))
            }
            None => (bound.iter().position(|b| !b).expect("an unbound relation remains"), None),
        };
        bound[position] = true;
        steps.push(Step {
            position,
            store: store_ids[&relations[position]],
            lookup,
            filters: take_ready(&mut pending, &bound),
        });
    }
    Plan { trigger_filters, steps }
}

fn passes(filters: &[Filter], combo: &[Option<&Tuple>]) -> bool {
    let value = |slot: &Slot| combo[slot.0].and_then(|t| t.value(slot.1));
    filters.iter().all(|f| match f {
        Filter::Join(a, b) => value(a) == value(b),
        Filter::Const(a, v) => value(a) == Some(v),
    })
}

/// Depth-first enumeration of the combinations completed by the newest
/// tuple (already placed in `combo`); pushes each combination's oldest
/// publication time and, through `on_combo`, the combination itself.
fn extend<'a>(
    steps: &[Step],
    stores: &[RelationStore<'a>],
    window: &WindowSpec,
    newest: Time,
    combo: &mut Vec<Option<&'a Tuple>>,
    on_combo: &mut dyn FnMut(&[Option<&'a Tuple>], Time),
) {
    let Some((step, rest)) = steps.split_first() else {
        let oldest = combo.iter().flatten().map(|t| t.pub_time()).min().unwrap_or(newest);
        if window.within(oldest, newest) {
            on_combo(combo, oldest);
        }
        return;
    };
    // Stored tuples are in publication order, so under a sliding window the
    // admissible ones are a suffix: walk backwards and stop at the first
    // tuple that is too old. (Pruning only — `within` decides.)
    let floor = match window {
        WindowSpec::Sliding { duration, .. } => newest.saturating_sub(duration.saturating_sub(1)),
        _ => 0,
    };
    let store = &stores[step.store];
    let mut visit = |candidate: &'a Tuple, combo: &mut Vec<Option<&'a Tuple>>| {
        combo[step.position] = Some(candidate);
        if passes(&step.filters, combo) {
            extend(rest, stores, window, newest, combo, on_combo);
        }
        combo[step.position] = None;
    };
    match step.lookup {
        Some((column, from)) => {
            let key = combo[from.0].and_then(|t| t.value(from.1)).expect("bound slot has a value");
            let Some(hits) = store.indexes.get(&column).and_then(|index| index.get(key)) else {
                return;
            };
            for &i in hits.iter().rev() {
                let candidate = store.tuples[i as usize];
                if candidate.pub_time() < floor {
                    break;
                }
                visit(candidate, combo);
            }
        }
        None => {
            for &candidate in store.tuples.iter().rev() {
                if candidate.pub_time() < floor {
                    break;
                }
                visit(candidate, combo);
            }
        }
    }
}

/// Evaluates `queries` (each with its insertion time) over `tuples`,
/// published in order in units of `unit_len` tuples.
///
/// # Panics
/// Panics on `SELECT DISTINCT` queries (bag semantics only — no benchmark
/// workload uses DISTINCT) and on queries that do not validate against
/// `catalog`.
pub fn evaluate(
    catalog: &Catalog,
    queries: &[(JoinQuery, Time)],
    tuples: &[Tuple],
    unit_len: usize,
) -> Expected {
    assert!(unit_len > 0, "a publication unit holds at least one tuple");
    let store_ids: HashMap<Name, usize> =
        catalog.schemas().enumerate().map(|(i, s)| (s.relation_name().clone(), i)).collect();

    // ---- group the queries by sub-join --------------------------------
    let mut group_ids: HashMap<(&[Name], &[Conjunct], WindowSpec), usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    let mut groups_by_store: Vec<Vec<(usize, usize)>> = vec![Vec::new(); store_ids.len()];
    let mut indexed_columns: Vec<Vec<usize>> = vec![Vec::new(); store_ids.len()];
    for (q, (query, insert_time)) in queries.iter().enumerate() {
        assert!(!query.distinct(), "the reference evaluator is bag-semantics only");
        query.validate(catalog).expect("reference queries validate against the catalog");
        let relations = query.relations();
        let key = (relations, query.conjuncts(), *query.window());
        let g = *group_ids.entry(key).or_insert_with(|| {
            let plans: Vec<Plan> = (0..relations.len())
                .map(|trigger| build_plan(catalog, query, trigger, &store_ids))
                .collect();
            for (trigger, plan) in plans.iter().enumerate() {
                groups_by_store[store_ids[&relations[trigger]]].push((groups.len(), trigger));
                for step in &plan.steps {
                    if let Some((column, _)) = step.lookup {
                        if !indexed_columns[step.store].contains(&column) {
                            indexed_columns[step.store].push(column);
                        }
                    }
                }
            }
            groups.push(Group { window: *query.window(), plans, members: Vec::new() });
            groups.len() - 1
        });
        let select = query
            .select()
            .iter()
            .map(|item| match item {
                SelectItem::Attr(a) => {
                    Projection::Slot(slot_of(catalog, relations, &a.relation, &a.attribute))
                }
                SelectItem::Const(v) => Projection::Const(v.clone()),
            })
            .collect();
        groups[g].members.push(Member { query: q as u32, insert_time: *insert_time, select });
    }
    for group in &mut groups {
        group.members.sort_by_key(|m| (m.insert_time, m.query));
    }

    // ---- stream the tuples --------------------------------------------
    let mut stores: Vec<RelationStore> = (0..store_ids.len()).map(|_| Default::default()).collect();
    let mut expected = Expected {
        per_unit: Vec::with_capacity(tuples.len().div_ceil(unit_len)),
        totals: vec![0; queries.len()],
        checksums: vec![0; queries.len()],
    };
    let mut unit_counts = vec![0u32; queries.len()];
    let mut touched: Vec<u32> = Vec::new();
    let mut row: Vec<Value> = Vec::new();
    for unit in tuples.chunks(unit_len) {
        for tuple in unit {
            let store_id = *store_ids
                .get(tuple.relation_name())
                .expect("reference tuples belong to catalog relations");
            let newest = tuple.pub_time();
            for &(g, trigger) in &groups_by_store[store_id] {
                let group = &groups[g];
                let plan = &group.plans[trigger];
                let mut combo: Vec<Option<&Tuple>> = vec![None; group.plans.len()];
                combo[trigger] = Some(tuple);
                if !passes(&plan.trigger_filters, &combo) {
                    continue;
                }
                let mut on_combo = |combo: &[Option<&Tuple>], oldest: Time| {
                    let eligible = group.members.partition_point(|m| m.insert_time <= oldest);
                    for member in &group.members[..eligible] {
                        row.clear();
                        row.extend(member.select.iter().map(|p| {
                            match p {
                                Projection::Slot((position, column)) => combo[*position]
                                    .and_then(|t| t.value(*column))
                                    .expect("complete combination")
                                    .clone(),
                                Projection::Const(v) => v.clone(),
                            }
                        }));
                        let q = member.query as usize;
                        if unit_counts[q] == 0 {
                            touched.push(member.query);
                        }
                        unit_counts[q] += 1;
                        expected.totals[q] += 1;
                        expected.checksums[q] = expected.checksums[q].wrapping_add(row_hash(&row));
                    }
                };
                extend(&plan.steps, &stores, &group.window, newest, &mut combo, &mut on_combo);
            }
            let store = &mut stores[store_id];
            let position = store.tuples.len() as u32;
            store.tuples.push(tuple);
            for &column in &indexed_columns[store_id] {
                let value = tuple.value(column).expect("catalog-valid tuple");
                store.indexes.entry(column).or_default().entry(value).or_default().push(position);
            }
        }
        touched.sort_unstable();
        expected.per_unit.push(
            touched.drain(..).map(|q| (q, std::mem::take(&mut unit_counts[q as usize]))).collect(),
        );
    }
    expected
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjoin::query::parse_query;
    use rjoin::relation::Schema;

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        for relation in ["R", "S", "T"] {
            catalog.register(Schema::new(relation, ["A", "B"]).unwrap()).unwrap();
        }
        catalog
    }

    fn tuple(relation: &str, a: i64, b: i64, pub_time: Time) -> Tuple {
        Tuple::new(relation, vec![Value::Int(a), Value::Int(b)], pub_time)
    }

    fn rows(rows: &[[i64; 2]]) -> u64 {
        rows.iter()
            .map(|r| row_hash(&[Value::Int(r[0]), Value::Int(r[1])]))
            .fold(0u64, u64::wrapping_add)
    }

    #[test]
    fn two_way_join_counts_each_pair_at_its_newer_tuple() {
        let q = parse_query("SELECT R.A, S.B FROM R, S WHERE R.B = S.A").unwrap();
        let tuples = vec![
            tuple("R", 1, 7, 1),
            tuple("S", 7, 10, 2), // joins R@1
            tuple("S", 8, 11, 3), // no partner
            tuple("R", 2, 7, 4),  // joins S@2
            tuple("S", 7, 12, 5), // joins R@1 and R@4
        ];
        let e = evaluate(&catalog(), &[(q, 0)], &tuples, 1);
        assert_eq!(
            e.per_unit,
            vec![vec![], vec![(0, 1)], vec![], vec![(0, 1)], vec![(0, 2)]],
            "answers are attributed to the unit of the newest contributing tuple"
        );
        assert_eq!(e.totals, vec![4]);
        assert_eq!(e.checksums, vec![rows(&[[1, 10], [2, 10], [1, 12], [2, 12]])]);
    }

    #[test]
    fn insertion_time_excludes_older_tuples_per_member_of_a_shared_group() {
        // Same sub-join, different SELECT and insertion time: one group.
        let early = parse_query("SELECT R.A, S.B FROM R, S WHERE R.B = S.A").unwrap();
        let late = parse_query("SELECT S.B, R.A FROM R, S WHERE R.B = S.A").unwrap();
        let tuples = vec![tuple("R", 1, 7, 1), tuple("S", 7, 10, 2), tuple("R", 2, 7, 3)];
        let e = evaluate(&catalog(), &[(early, 0), (late, 2)], &tuples, 3);
        // early: (R@1,S@2), (R@3,S@2); late: only (R@3,S@2) — R@1 predates it.
        assert_eq!(e.totals, vec![2, 1]);
        assert_eq!(e.per_unit, vec![vec![(0, 2), (1, 1)]]);
        assert_eq!(e.checksums, vec![rows(&[[1, 10], [2, 10]]), rows(&[[10, 2]])]);
    }

    #[test]
    fn windowed_three_way_chain_keeps_only_combinations_within_one_window() {
        let q = parse_query("SELECT R.A, T.B FROM R, S, T WHERE R.B = S.A AND S.B = T.A")
            .unwrap()
            .with_window(WindowSpec::sliding_tuples(3));
        let tuples = vec![
            tuple("R", 1, 5, 10),
            tuple("S", 5, 6, 11),
            tuple("T", 6, 100, 12), // span 10..12 = 3 ticks: inside
            tuple("T", 6, 200, 13), // span 10..13 = 4 ticks: outside
            tuple("R", 2, 5, 13),   // span 11..13 with T@12 and with T@13: inside, twice
        ];
        let e = evaluate(&catalog(), &[(q, 0)], &tuples, 1);
        assert_eq!(e.per_unit, vec![vec![], vec![], vec![(0, 1)], vec![], vec![(0, 2)]]);
        assert_eq!(e.checksums, vec![rows(&[[1, 100], [2, 100], [2, 200]])]);
    }

    #[test]
    fn triangle_needs_all_three_edges() {
        let q =
            parse_query("SELECT R.A, T.A FROM R, S, T WHERE R.B = S.A AND S.B = T.A AND T.B = R.A")
                .unwrap();
        let tuples = vec![
            tuple("R", 1, 2, 1),
            tuple("S", 2, 3, 2),
            tuple("T", 3, 9, 3), // closes R-S-T but T.B != R.A
            tuple("T", 3, 1, 4), // closes the triangle 1-2-3
            tuple("S", 2, 3, 5), // a second S copy: one more triangle with T@4
        ];
        let e = evaluate(&catalog(), &[(q, 0)], &tuples, 2);
        assert_eq!(e.per_unit, vec![vec![], vec![(0, 1)], vec![(0, 1)]]);
        assert_eq!(e.totals, vec![2]);
        assert_eq!(e.checksums, vec![rows(&[[1, 3], [1, 3]])]);
    }

    #[test]
    fn verify_separates_missing_from_spurious() {
        let expected = Expected {
            per_unit: Vec::new(),
            totals: vec![3, 2, 1],
            checksums: vec![0, 0, rows(&[[1, 1]])],
        };
        let mut delivered = Tally::new(3);
        delivered.counts = vec![2, 4, 1];
        delivered.checksums[2] = rows(&[[9, 9]]); // right count, wrong row
        let v = verify(&expected, &delivered);
        assert_eq!(v, Verdict { expected: 6, matched: 5, missing: 1, spurious: 3 });
        assert!((v.recall() - 5.0 / 6.0).abs() < 1e-12);
    }
}
