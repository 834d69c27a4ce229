//! Positional join plans: a query compiled once into slots and column
//! offsets, for joins that bind whole tuples instead of rewriting the AST.
//!
//! [`rewrite`](crate::rewrite()) is the paper's step: bind one tuple, get a
//! smaller query back, ship it to the next key. A join that happens entirely
//! inside one node — a hypercube cell (`rjoin_core`'s `cell` module) joining
//! an arriving tuple with the tuples that reached the cell before it — never
//! ships the intermediate query, so building, cloning and dropping one per
//! bound tuple is pure overhead. A [`JoinPlan`] is the query with that
//! overhead compiled away, once per query:
//!
//! * the `FROM` list becomes numbered **slots**;
//! * every attribute reference becomes a [`SlotColumn`] — a slot and the
//!   attribute's column offset, resolved against the catalog;
//! * every constant selection becomes an `(offset, value)` filter of its
//!   slot, every join predicate an edge between two slot columns, both kept
//!   in `WHERE` order;
//! * every `SELECT` item becomes a slot column or a constant, read straight
//!   off the bound tuples.
//!
//! A join over a plan holds one tuple reference per bound slot. An arrival
//! is [admitted](JoinPlan::admit) by its slot's constant filters; a candidate
//! for another slot [joins](JoinPlan::joins) when it agrees with every bound
//! slot on every edge between them; the [pins](JoinPlan::pins) — the values
//! the bound tuples and the constants force on the columns of unbound slots,
//! in the order the rewritten query would list them as `ConstEq` conjuncts —
//! are what an index is probed with; a full binding is
//! [projected](JoinPlan::project) into the answer row. Such a join returns
//! the same bag of rows as the stepwise rewrite cascade over the same
//! tuples (property-tested in `tests/join_plan.rs` over chains, stars,
//! triangles, 4-cycles, 4-cliques and disconnected shapes, every window kind
//! and arrival order).

use crate::ast::{Conjunct, JoinQuery, QualifiedAttr, SelectItem};
use crate::{QueryError, WindowSpec};
use rjoin_relation::{AttrIndex, Catalog, Name, Tuple, Value};

/// A column of one plan slot: the relation at position `slot` of the `FROM`
/// list, and the offset of the attribute in that relation's schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotColumn {
    /// Position of the relation in the query's `FROM` list.
    pub slot: usize,
    /// Column offset of the attribute in the relation's schema.
    pub offset: AttrIndex,
}

/// One `WHERE` conjunct of a [`JoinPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum PlanConjunct {
    /// A constant selection `R.A = v`: a filter of `R`'s slot.
    Const(SlotColumn, Value),
    /// A join predicate `R.A = S.B`: an edge between two slots.
    Join(SlotColumn, SlotColumn),
}

/// One `SELECT` item of a [`JoinPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum PlanItem {
    /// The value of a column of a bound tuple.
    Column(SlotColumn),
    /// A constant of the query's `SELECT` list.
    Const(Value),
}

/// A query compiled into slots and column offsets (see the module docs).
///
/// Joins driven by a plan keep their bound tuples in a slice with one entry
/// per slot (`bound[slot]`, `None` while unbound); every tuple in it must
/// have been [admitted](JoinPlan::admit) to its slot, which is what makes
/// the plan's column offsets safe to read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPlan {
    relations: Vec<Name>,
    /// The smallest arity a tuple of each slot needs for every offset the
    /// plan reads from it.
    arity: Vec<usize>,
    conjuncts: Vec<PlanConjunct>,
    select: Vec<PlanItem>,
    window: WindowSpec,
}

impl JoinPlan {
    /// Compiles `query` against `catalog`.
    ///
    /// Fails on what would make the rewrite cascade fail on every tuple of a
    /// relation: an attribute of a relation outside `FROM`
    /// ([`QueryError::UnknownQueryRelation`]), a relation or attribute the
    /// catalog does not know, and — since a slot is bound by one tuple — a
    /// join predicate within one relation ([`QueryError::SelfJoin`], which
    /// [`JoinQuery::new`] rejects too).
    pub fn new(query: &JoinQuery, catalog: &Catalog) -> Result<Self, QueryError> {
        let relations = query.relations().to_vec();
        let mut arity = vec![0; relations.len()];
        let mut column = |attr: &QualifiedAttr| -> Result<SlotColumn, QueryError> {
            let slot = relations
                .iter()
                .position(|r| *r == attr.relation)
                .ok_or_else(|| QueryError::UnknownQueryRelation { attr: attr.clone() })?;
            let schema = catalog.require_schema(&attr.relation).map_err(QueryError::Relation)?;
            let offset = schema
                .index_of(&attr.attribute)
                .ok_or_else(|| QueryError::UnknownAttribute { attr: attr.clone() })?;
            arity[slot] = arity[slot].max(offset + 1);
            Ok(SlotColumn { slot, offset })
        };
        let mut conjuncts = Vec::with_capacity(query.conjuncts().len());
        for conjunct in query.conjuncts() {
            conjuncts.push(match conjunct {
                Conjunct::JoinEq(a, b) if a.relation == b.relation => {
                    return Err(QueryError::SelfJoin { attr: a.clone() });
                }
                Conjunct::JoinEq(a, b) => PlanConjunct::Join(column(a)?, column(b)?),
                Conjunct::ConstEq(a, value) => PlanConjunct::Const(column(a)?, value.clone()),
            });
        }
        let mut select = Vec::with_capacity(query.select().len());
        for item in query.select() {
            select.push(match item {
                SelectItem::Attr(a) => PlanItem::Column(column(a)?),
                SelectItem::Const(value) => PlanItem::Const(value.clone()),
            });
        }
        Ok(JoinPlan { relations, arity, conjuncts, select, window: *query.window() })
    }

    /// The relation of every slot (the query's `FROM` list).
    pub fn relations(&self) -> &[Name] {
        &self.relations
    }

    /// The query's window: a combination joins only if the publication
    /// times of its tuples fit one window.
    pub fn window(&self) -> &WindowSpec {
        &self.window
    }

    /// Every column a join edge reads, once each, in `WHERE` order (left
    /// side first): the columns worth indexing for [`pins`](Self::pins).
    pub fn join_columns(&self) -> Vec<SlotColumn> {
        let mut columns: Vec<SlotColumn> = Vec::new();
        for conjunct in &self.conjuncts {
            if let PlanConjunct::Join(a, b) = conjunct {
                for column in [a, b] {
                    if !columns.contains(column) {
                        columns.push(*column);
                    }
                }
            }
        }
        columns
    }

    /// The slot `tuple` binds, if it can contribute to an answer at all: its
    /// relation is in `FROM`, it carries every column the plan reads from
    /// it, and it passes its slot's constant filters. Everything else about
    /// a tuple is checked by [`joins`](Self::joins) once the tuples it
    /// combines with are known.
    pub fn admit(&self, tuple: &Tuple) -> Option<usize> {
        let slot = self.relations.iter().position(|r| *r == *tuple.relation())?;
        let values = tuple.values();
        let admitted = values.len() >= self.arity[slot]
            && self.conjuncts.iter().all(|conjunct| match conjunct {
                PlanConjunct::Const(at, value) if at.slot == slot => values[at.offset] == *value,
                _ => true,
            });
        admitted.then_some(slot)
    }

    /// Whether `tuple`, admitted to `slot`, agrees with every bound slot on
    /// every join edge between them.
    pub fn joins(&self, slot: usize, tuple: &Tuple, bound: &[Option<&Tuple>]) -> bool {
        let values = tuple.values();
        let agrees = |here: &SlotColumn, there: &SlotColumn| {
            bound[there.slot]
                .is_none_or(|other| other.values()[there.offset] == values[here.offset])
        };
        self.conjuncts.iter().all(|conjunct| match conjunct {
            PlanConjunct::Join(a, b) if a.slot == slot => agrees(a, b),
            PlanConjunct::Join(a, b) if b.slot == slot => agrees(b, a),
            _ => true,
        })
    }

    /// The values forced on the columns of unbound slots — by a constant
    /// selection, or by a join edge whose other side is bound — in `WHERE`
    /// order: exactly the `ConstEq` conjuncts over unbound relations the
    /// rewrite cascade would have produced by binding the same tuples. A
    /// tuple can only extend the binding if it carries every pinned value
    /// of its slot.
    pub fn pins<'a>(
        &'a self,
        bound: &'a [Option<&'a Tuple>],
    ) -> impl Iterator<Item = (SlotColumn, &'a Value)> + 'a {
        self.conjuncts.iter().filter_map(move |conjunct| match conjunct {
            PlanConjunct::Const(at, value) if bound[at.slot].is_none() => Some((*at, value)),
            PlanConjunct::Const(..) => None,
            PlanConjunct::Join(a, b) => match (bound[a.slot], bound[b.slot]) {
                (Some(tuple), None) => Some((*b, &tuple.values()[a.offset])),
                (None, Some(tuple)) => Some((*a, &tuple.values()[b.offset])),
                _ => None,
            },
        })
    }

    /// The answer row of a full binding.
    ///
    /// # Panics
    /// Panics when a slot the `SELECT` list reads is unbound.
    pub fn project(&self, bound: &[Option<&Tuple>]) -> Vec<Value> {
        self.select
            .iter()
            .map(|item| match item {
                PlanItem::Column(at) => {
                    bound[at.slot].expect("projected from a full binding").values()[at.offset]
                        .clone()
                }
                PlanItem::Const(value) => value.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use rjoin_relation::Schema;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for rel in ["R", "S", "T"] {
            c.register(Schema::new(rel, ["A", "B", "C"]).unwrap()).unwrap();
        }
        c
    }

    fn tuple(rel: &str, values: [i64; 3]) -> Tuple {
        Tuple::new(rel, values.iter().map(|v| Value::from(*v)).collect(), 0)
    }

    fn at(slot: usize, offset: usize) -> SlotColumn {
        SlotColumn { slot, offset }
    }

    #[test]
    fn slots_offsets_and_items_follow_the_query() {
        let q = parse_query(
            "SELECT T.C, 7, R.A FROM R, S, T WHERE R.A = S.A AND S.B = 4 AND S.C = T.B",
        )
        .unwrap();
        let plan = JoinPlan::new(&q, &catalog()).unwrap();
        assert_eq!(plan.relations(), ["R", "S", "T"]);
        assert_eq!(
            plan.conjuncts,
            [
                PlanConjunct::Join(at(0, 0), at(1, 0)),
                PlanConjunct::Const(at(1, 1), Value::from(4)),
                PlanConjunct::Join(at(1, 2), at(2, 1)),
            ]
        );
        assert_eq!(plan.join_columns(), [at(0, 0), at(1, 0), at(1, 2), at(2, 1)]);
        let (r, s, t) = (tuple("R", [1, 0, 0]), tuple("S", [1, 4, 9]), tuple("T", [0, 9, 5]));
        assert_eq!(plan.project(&[Some(&r), Some(&s), Some(&t)]), [5, 7, 1].map(Value::from));
    }

    #[test]
    fn admission_checks_relation_arity_and_constants() {
        let q = parse_query("SELECT S.C FROM R, S WHERE R.A = S.A AND S.B = 4").unwrap();
        let plan = JoinPlan::new(&q, &catalog()).unwrap();
        assert_eq!(plan.admit(&tuple("S", [0, 4, 0])), Some(1));
        assert_eq!(plan.admit(&tuple("S", [0, 5, 0])), None, "constant mismatch");
        assert_eq!(plan.admit(&tuple("T", [0, 4, 0])), None, "not in FROM");
        let short = Tuple::new("S", vec![Value::from(0), Value::from(4)], 0);
        assert_eq!(plan.admit(&short), None, "S.C is read but missing");
        assert_eq!(plan.admit(&tuple("R", [9, 9, 9])), Some(0));
    }

    #[test]
    fn pins_and_joins_follow_the_bound_slots() {
        let q = parse_query(
            "SELECT R.A FROM R, S, T WHERE R.A = S.A AND S.B = T.B AND T.C = R.C AND T.A = 3",
        )
        .unwrap();
        let plan = JoinPlan::new(&q, &catalog()).unwrap();
        let r = tuple("R", [1, 0, 2]);
        let bound = [Some(&r), None, None];
        let pins: Vec<_> = plan.pins(&bound).collect();
        // In `WHERE` order: R pins S.A and T.C, the constant pins T.A.
        let (one, two, three) = (Value::from(1), Value::from(2), Value::from(3));
        assert_eq!(pins, [(at(1, 0), &one), (at(2, 2), &two), (at(2, 0), &three)]);
        assert!(plan.joins(1, &tuple("S", [1, 5, 0]), &bound));
        assert!(!plan.joins(1, &tuple("S", [2, 5, 0]), &bound));
        // With S bound too, T must agree with both.
        let s = tuple("S", [1, 5, 0]);
        let bound = [Some(&r), Some(&s), None];
        assert!(plan.joins(2, &tuple("T", [3, 5, 2]), &bound));
        assert!(!plan.joins(2, &tuple("T", [3, 6, 2]), &bound));
        assert!(!plan.joins(2, &tuple("T", [3, 5, 1]), &bound));
    }

    #[test]
    fn malformed_queries_do_not_compile() {
        let c = catalog();
        let unknown = parse_query("SELECT R.Z FROM R, S WHERE R.A = S.A").unwrap();
        assert!(matches!(JoinPlan::new(&unknown, &c), Err(QueryError::UnknownAttribute { .. })));
        let missing = parse_query("SELECT Q.A FROM Q, S WHERE Q.A = S.A").unwrap();
        assert!(matches!(JoinPlan::new(&missing, &c), Err(QueryError::Relation(_))));
        let self_join = JoinQuery::from_parts_unchecked(
            false,
            vec![SelectItem::Const(Value::from(1))],
            vec!["R".into(), "S".into()],
            vec![Conjunct::JoinEq(QualifiedAttr::new("R", "A"), QualifiedAttr::new("R", "B"))],
            WindowSpec::None,
        );
        assert!(matches!(JoinPlan::new(&self_join, &c), Err(QueryError::SelfJoin { .. })));
        let orphan = JoinQuery::from_parts_unchecked(
            false,
            vec![SelectItem::Const(Value::from(1))],
            vec!["R".into()],
            vec![Conjunct::ConstEq(QualifiedAttr::new("S", "A"), Value::from(1))],
            WindowSpec::None,
        );
        assert!(matches!(JoinPlan::new(&orphan, &c), Err(QueryError::UnknownQueryRelation { .. })));
    }
}
