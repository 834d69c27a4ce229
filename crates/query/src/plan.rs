//! Query planning: join-graph shape classification and hypercube share
//! allocation.
//!
//! The paper's evaluation strategy (Sections 6–7) is a **pipeline of
//! rewrites**: each arriving tuple peels one relation off the query, and the
//! shrinking residue hops from index key to index key. That strategy is built
//! around *acyclic* conjunctive chains. A cycle-closing `WHERE` clause —
//! `R.A = S.A AND S.B = T.B AND T.C = R.C` — has no chain decomposition: no
//! single rewrite order covers the closing conjunct without revisiting a
//! relation, so cyclic shapes need a different plan.
//!
//! # The join graph and GYO classification
//!
//! The `WHERE` clause induces a **join graph**: its vertices are the
//! equivalence classes of join attributes (the transitive closure of the
//! `JoinEq` conjuncts, the same union-find [`crate::candidate_keys`] runs), and
//! each `FROM` relation contributes one hyperedge — the set of classes its
//! attributes participate in. Shape classification is textbook
//! **GYO ear removal**: repeatedly (a) delete every vertex contained in at
//! most one hyperedge and (b) delete every hyperedge contained in another,
//! until nothing changes. The query is **α-acyclic** iff the reduction
//! consumes every hyperedge; a non-empty residue is a cycle
//! ([`QueryShape::Cyclic`]).
//!
//! # The hypercube plan (shares)
//!
//! Cyclic shapes are planned as a **one-shot hypercube placement** in the
//! style of Afrati, Ullman & Vasilakopoulos: each join-attribute class
//! becomes one axis of a virtual grid of `s_1 × … × s_k` cells, and
//! [`allocate_shares`] apportions a cell budget across the axes — the
//! k-dimensional generalization of `rjoin_core::split::choose_grid`'s 2-D
//! tuple×Eval split. A tuple routes to the axis-aligned *subcube* fixed by
//! its bound attributes (hash of the attribute value on each axis its
//! relation participates in, replicated across the axes it does not); the
//! query replicates to **all** cells. Any full joining combination agrees on
//! every class value, so it pins every axis coordinate and its tuples
//! co-occur in **exactly one** cell — each answer is produced exactly once
//! without cross-cell coordination.
//!
//! # The cost model
//!
//! [`plan_query`] chooses between the two plans per query, in units of
//! query-placement messages: the pipeline pays one (re-)indexing hop per
//! rewrite stage (`joins + 1`), the hypercube pays one replicated cell
//! placement per cell. Cyclic shapes have no pipeline plan at all (their
//! pipeline cost is infinite); acyclic shapes take the hypercube only if it
//! is strictly cheaper, which under realistic budgets it never is — so the
//! paper's figures keep their pipeline trace while triangles, 4-cycles and
//! cliques become plannable instead of an error path. Tuple-side replication
//! is the hypercube's running cost and is reported through the engine's
//! planner counters, not folded into the one-shot placement comparison.

use crate::ast::{Conjunct, JoinQuery, QualifiedAttr};
use crate::keys::AttrUnionFind;
use rjoin_relation::Name;

/// The shape of a query's join graph under GYO reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryShape {
    /// The join graph is α-acyclic: the paper's pipeline of rewrites covers
    /// it.
    Acyclic,
    /// The join graph contains a cycle: only the hypercube plan covers it.
    Cyclic,
}

/// One equivalence class of join attributes (one vertex of the join graph,
/// one axis of a hypercube plan). Members are sorted `(relation, attribute)`
/// and deduplicated, so the class list is deterministic for a given query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrClass {
    /// The attribute references equated by the `WHERE` closure.
    pub members: Vec<QualifiedAttr>,
}

impl AttrClass {
    /// Whether some member belongs to `relation`.
    pub fn binds(&self, relation: &str) -> bool {
        self.members.iter().any(|a| a.relation == relation)
    }
}

/// The join graph of a query: join-attribute equivalence classes as
/// vertices, relations as hyperedges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinGraph {
    /// The vertices: `JoinEq`-induced attribute equivalence classes.
    pub classes: Vec<AttrClass>,
    /// The hyperedges: per `FROM` relation, the sorted class indices its
    /// attributes participate in.
    pub relations: Vec<(Name, Vec<usize>)>,
}

impl JoinGraph {
    /// Builds the join graph of `query` from the transitive closure of its
    /// `JoinEq` conjuncts (`ConstEq` selections do not affect the topology).
    pub fn build(query: &JoinQuery) -> JoinGraph {
        let mut uf = AttrUnionFind::with_capacity(query.conjuncts().len() * 2);
        for conjunct in query.conjuncts() {
            if let Conjunct::JoinEq(a, b) = conjunct {
                let ia = uf.id(a);
                let ib = uf.id(b);
                uf.union(ia, ib);
            }
        }
        // Group members by root, then order classes (and their members) by
        // the smallest member so the axis order is a pure function of the
        // query text.
        let mut groups: Vec<(usize, Vec<QualifiedAttr>)> = Vec::new();
        for id in 0..uf.len() {
            let root = uf.find(id);
            let attr = uf.attr(id).clone();
            match groups.iter_mut().find(|(r, _)| *r == root) {
                Some((_, members)) => members.push(attr),
                None => groups.push((root, vec![attr])),
            }
        }
        let mut classes: Vec<AttrClass> = groups
            .into_iter()
            .map(|(_, mut members)| {
                members.sort_by(|a, b| {
                    (a.relation.as_str(), a.attribute.as_str())
                        .cmp(&(b.relation.as_str(), b.attribute.as_str()))
                });
                members.dedup();
                AttrClass { members }
            })
            .collect();
        classes.sort_by(|a, b| {
            let ka = (a.members[0].relation.as_str(), a.members[0].attribute.as_str());
            let kb = (b.members[0].relation.as_str(), b.members[0].attribute.as_str());
            ka.cmp(&kb)
        });
        let relations = query
            .relations()
            .iter()
            .map(|rel| {
                let edge: Vec<usize> =
                    (0..classes.len()).filter(|&c| classes[c].binds(rel)).collect();
                (rel.clone(), edge)
            })
            .collect();
        JoinGraph { classes, relations }
    }

    /// Classifies the graph via GYO ear removal: acyclic iff the reduction
    /// consumes every hyperedge.
    pub fn shape(&self) -> QueryShape {
        let mut edges: Vec<Vec<usize>> = self.relations.iter().map(|(_, e)| e.clone()).collect();
        let mut alive: Vec<bool> = vec![true; edges.len()];
        loop {
            let mut changed = false;
            // (a) Remove every vertex contained in at most one live edge.
            for v in 0..self.classes.len() {
                let only_holder = {
                    let mut holders =
                        (0..edges.len()).filter(|&e| alive[e] && edges[e].contains(&v));
                    match (holders.next(), holders.next()) {
                        (Some(holder), None) => Some(holder),
                        _ => None,
                    }
                };
                if let Some(holder) = only_holder {
                    edges[holder].retain(|&x| x != v);
                    changed = true;
                }
            }
            // (b) Remove every edge contained in another live edge (an empty
            // edge is contained in any other; the last empty edge standing
            // is removed outright).
            for i in 0..edges.len() {
                if !alive[i] {
                    continue;
                }
                let absorbed = edges[i].is_empty()
                    || (0..edges.len()).any(|j| {
                        j != i && alive[j] && edges[i].iter().all(|v| edges[j].contains(v))
                    });
                if absorbed {
                    alive[i] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if alive.iter().any(|&a| a) {
            QueryShape::Cyclic
        } else {
            QueryShape::Acyclic
        }
    }

    /// Builds the hypercube plan for this graph: one axis per class, shares
    /// allocated by [`allocate_shares`] with each class's member count as
    /// its load proxy (more participating attributes ⇒ more tuples
    /// partitioned along that axis).
    pub fn hypercube_plan(&self, cell_budget: u32) -> HypercubePlan {
        self.plan_with(self.shares(cell_budget))
    }

    /// The shares [`hypercube_plan`](Self::hypercube_plan) allocates.
    fn shares(&self, cell_budget: u32) -> Vec<u32> {
        let loads: Vec<u64> = self.classes.iter().map(|c| c.members.len() as u64).collect();
        allocate_shares(cell_budget, &loads)
    }

    /// The hypercube plan with one axis per class, of these `shares`.
    fn plan_with(&self, shares: Vec<u32>) -> HypercubePlan {
        HypercubePlan {
            axes: self
                .classes
                .iter()
                .zip(shares)
                .map(|(class, share)| HypercubeAxis { share, members: class.members.clone() })
                .collect(),
        }
    }
}

/// One axis of a hypercube plan: a join-attribute class and the share
/// (partition count) allocated to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HypercubeAxis {
    /// Number of partitions along this axis (`1` = the axis is not actually
    /// partitioned; tuples bound on it still pin a single coordinate).
    pub share: u32,
    /// The attribute references hashed onto this axis.
    pub members: Vec<QualifiedAttr>,
}

/// A hypercube placement plan: `k` axes spanning `s_1 × … × s_k` cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HypercubePlan {
    /// The axes, in deterministic class order.
    pub axes: Vec<HypercubeAxis>,
}

impl HypercubePlan {
    /// Total number of cells (`∏ s_i`, `1` for an axis-free plan).
    pub fn cells(&self) -> u32 {
        self.axes.iter().map(|a| a.share).product()
    }

    /// The per-axis shares.
    pub fn shares(&self) -> Vec<u32> {
        self.axes.iter().map(|a| a.share).collect()
    }
}

/// Apportions a cell budget across `k` axes in proportion to their loads:
/// among all share vectors with `∏ s_i <= cell_budget`, picks the one whose
/// sorted per-axis residual loads `load_i / s_i` are lexicographically
/// smallest (minimize the dominant per-cell stream, then the second, …);
/// remaining ties prefer fewer cells (cheaper replication), then the first
/// vector in lexicographic enumeration order. This is `choose_grid`'s
/// minimize-the-dominant-stream rule generalized from exact 2-D
/// factorizations to a k-dimensional budget.
///
/// The enumeration is exhaustive but tiny: share vectors under a budget `B`
/// number O(B · log^(k-1) B), and budgets are small constants (the engine's
/// default is 8 cells).
pub fn allocate_shares(cell_budget: u32, loads: &[u64]) -> Vec<u32> {
    if loads.is_empty() {
        return Vec::new();
    }
    let budget = u64::from(cell_budget.max(1));
    let mut cur = vec![1u32; loads.len()];
    let mut best: Option<(Vec<u64>, u64, Vec<u32>)> = None;
    enumerate_shares(0, 1, budget, loads, &mut cur, &mut best);
    best.expect("the all-ones vector always fits the budget").2
}

/// Recursive enumeration behind [`allocate_shares`]: tries every share for
/// axis `i` that keeps the cell product within budget, scoring complete
/// vectors by (sorted residual loads, cells).
fn enumerate_shares(
    i: usize,
    prod: u64,
    budget: u64,
    loads: &[u64],
    cur: &mut Vec<u32>,
    best: &mut Option<(Vec<u64>, u64, Vec<u32>)>,
) {
    if i == loads.len() {
        let mut residuals: Vec<u64> =
            loads.iter().zip(cur.iter()).map(|(&l, &s)| l / u64::from(s)).collect();
        residuals.sort_unstable_by(|a, b| b.cmp(a));
        let better = match best {
            None => true,
            Some((bres, bcells, _)) => (&residuals, prod) < (bres, *bcells),
        };
        if better {
            *best = Some((residuals, prod, cur.clone()));
        }
        return;
    }
    let mut s = 1u32;
    while prod * u64::from(s) <= budget {
        cur[i] = s;
        enumerate_shares(i + 1, prod * u64::from(s), budget, loads, cur, best);
        s += 1;
    }
    cur[i] = 1;
}

/// The per-query plan decision of the cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryPlan {
    /// The paper's pipeline of rewrites (Sections 6–7).
    Rewrite,
    /// One-shot hypercube placement over the plan's cells.
    Hypercube(HypercubePlan),
}

/// The pipeline's one-shot placement cost in query-indexing messages: one
/// hop per rewrite stage. `None` for cyclic shapes — the pipeline has no
/// plan for them.
pub fn pipeline_cost(query: &JoinQuery, shape: QueryShape) -> Option<u64> {
    match shape {
        QueryShape::Acyclic => Some(query.join_count() as u64 + 1),
        QueryShape::Cyclic => None,
    }
}

/// The one-shot placement cost of a hypercube plan with these `shares`:
/// one replicated query copy per cell.
pub fn hypercube_cost(shares: &[u32]) -> u64 {
    u64::from(shares.iter().product::<u32>())
}

/// Chooses the evaluation plan for `query` under a hypercube cell budget:
/// builds the join graph, classifies its shape, and compares the two plans'
/// placement costs. Cyclic shapes always take the hypercube (the pipeline
/// cannot express them); acyclic shapes take it only when strictly cheaper.
/// Queries with no join classes at all (single-relation selections) always
/// stay on the rewrite path.
pub fn plan_query(query: &JoinQuery, cell_budget: u32) -> QueryPlan {
    let graph = JoinGraph::build(query);
    if graph.classes.is_empty() {
        return QueryPlan::Rewrite;
    }
    let shape = graph.shape();
    // The axes are built only for the plan that wins.
    let shares = graph.shares(cell_budget);
    match pipeline_cost(query, shape) {
        Some(pipe) if hypercube_cost(&shares) >= pipe => QueryPlan::Rewrite,
        _ => QueryPlan::Hypercube(graph.plan_with(shares)),
    }
}

/// Classifies the shape of `query`'s join graph (convenience over
/// [`JoinGraph::build`] + [`JoinGraph::shape`]).
pub fn classify_shape(query: &JoinQuery) -> QueryShape {
    JoinGraph::build(query).shape()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn triangle() -> JoinQuery {
        parse_query("SELECT R.A FROM R, S, T WHERE R.A = S.A AND S.B = T.B AND T.C = R.C").unwrap()
    }

    #[test]
    fn chain_is_acyclic() {
        let q = parse_query("SELECT R.A FROM R, S, T WHERE R.A = S.A AND S.B = T.B").unwrap();
        assert_eq!(classify_shape(&q), QueryShape::Acyclic);
    }

    #[test]
    fn triangle_is_cyclic() {
        assert_eq!(classify_shape(&triangle()), QueryShape::Cyclic);
    }

    #[test]
    fn four_cycle_is_cyclic() {
        let q = parse_query(
            "SELECT R.A FROM R, S, T, U \
             WHERE R.A = S.A AND S.B = T.B AND T.C = U.C AND U.D = R.D",
        )
        .unwrap();
        assert_eq!(classify_shape(&q), QueryShape::Cyclic);
    }

    #[test]
    fn star_on_one_class_is_acyclic() {
        // Three conjuncts closing a "triangle" on a single attribute class
        // collapse to one vertex: semantically a star join, which GYO
        // correctly reduces.
        let q = parse_query("SELECT R.A FROM R, S, T WHERE R.A = S.A AND S.A = T.A AND T.A = R.A")
            .unwrap();
        let graph = JoinGraph::build(&q);
        assert_eq!(graph.classes.len(), 1);
        assert_eq!(graph.shape(), QueryShape::Acyclic);
    }

    #[test]
    fn parallel_conjuncts_between_two_relations_are_acyclic() {
        let q = parse_query("SELECT R.A FROM R, S WHERE R.A = S.A AND R.B = S.B").unwrap();
        assert_eq!(classify_shape(&q), QueryShape::Acyclic);
    }

    #[test]
    fn selection_only_query_has_no_classes() {
        let q = parse_query("SELECT R.A FROM R WHERE R.A = 5").unwrap();
        let graph = JoinGraph::build(&q);
        assert!(graph.classes.is_empty());
        assert_eq!(graph.shape(), QueryShape::Acyclic);
        assert_eq!(plan_query(&q, 8), QueryPlan::Rewrite);
    }

    #[test]
    fn const_conjuncts_do_not_affect_topology() {
        let q = parse_query(
            "SELECT R.A FROM R, S, T \
             WHERE R.A = S.A AND S.B = T.B AND T.C = R.C AND R.A = 7",
        )
        .unwrap();
        assert_eq!(classify_shape(&q), QueryShape::Cyclic);
    }

    #[test]
    fn join_graph_is_deterministic_and_sorted() {
        let graph = JoinGraph::build(&triangle());
        assert_eq!(graph.classes.len(), 3);
        // Classes ordered by smallest member; members sorted.
        let firsts: Vec<String> = graph.classes.iter().map(|c| c.members[0].to_string()).collect();
        assert_eq!(firsts, vec!["R.A", "R.C", "S.B"]);
        // Each relation's hyperedge touches exactly two classes.
        for (_, edge) in &graph.relations {
            assert_eq!(edge.len(), 2);
        }
        assert_eq!(graph, JoinGraph::build(&triangle()));
    }

    #[test]
    fn allocate_shares_balances_uniform_loads() {
        assert_eq!(allocate_shares(8, &[2, 2, 2]), vec![2, 2, 2]);
    }

    #[test]
    fn allocate_shares_degenerates_to_pure_split_under_skew() {
        // One dominant axis takes the whole budget, mirroring choose_grid's
        // pure tuple/query splits.
        assert_eq!(allocate_shares(8, &[400, 1, 1]), vec![8, 1, 1]);
    }

    #[test]
    fn allocate_shares_two_axes_mirror_choose_grid() {
        // Balanced 2-D loads under a budget of 8: the dominant stream is
        // minimized at L/2 by splitting the first axis in two, and the spare
        // budget then shrinks the secondary stream (2×4, not 2×2).
        assert_eq!(allocate_shares(8, &[100, 100]), vec![2, 4]);
        assert_eq!(allocate_shares(8, &[400, 90]), vec![8, 1]);
    }

    #[test]
    fn allocate_shares_respects_budget() {
        for budget in 1..=16u32 {
            let shares = allocate_shares(budget, &[5, 3, 2]);
            let cells: u32 = shares.iter().product();
            assert!(cells <= budget.max(1));
            assert!(shares.iter().all(|&s| s >= 1));
        }
        assert!(allocate_shares(8, &[]).is_empty());
    }

    #[test]
    fn plan_query_chooses_hypercube_for_cyclic_and_pipeline_for_acyclic() {
        let chain = parse_query("SELECT R.A FROM R, S, T WHERE R.A = S.A AND S.B = T.B").unwrap();
        assert_eq!(plan_query(&chain, 8), QueryPlan::Rewrite);
        match plan_query(&triangle(), 8) {
            QueryPlan::Hypercube(plan) => {
                assert_eq!(plan.axes.len(), 3);
                assert_eq!(plan.shares(), vec![2, 2, 2]);
                assert_eq!(plan.cells(), 8);
            }
            other => panic!("triangle must take the hypercube, got {other:?}"),
        }
    }

    #[test]
    fn cost_model_units() {
        let shape = classify_shape(&triangle());
        assert_eq!(pipeline_cost(&triangle(), shape), None, "no pipeline plan for cycles");
        let chain = parse_query("SELECT R.A FROM R, S, T WHERE R.A = S.A AND S.B = T.B").unwrap();
        assert_eq!(pipeline_cost(&chain, QueryShape::Acyclic), Some(3));
        let plan = JoinGraph::build(&triangle()).hypercube_plan(8);
        assert_eq!(hypercube_cost(&plan.shares()), 8);
    }

    #[test]
    fn tiny_budget_still_plans_cycles() {
        let plan = JoinGraph::build(&triangle()).hypercube_plan(1);
        assert_eq!(plan.cells(), 1, "a 1-cell hypercube is a centralized fallback");
    }
}
