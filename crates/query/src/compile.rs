//! Compilation of one rewrite step into a flat predicate program.
//!
//! [`rewrite`](crate::rewrite()) walks the query AST for every
//! (tuple, query) pair: it compares relation names as strings, resolves
//! attribute names against the schema by linear scan, and clones conjuncts
//! one by one. For a given (query, trigger relation) pair the *shape* of
//! that walk is fixed: which conjuncts drop, which become `ConstEq`, which
//! `SELECT` slots resolve, and which column offsets feed them depend only on
//! the query and the schema — not on the tuple. [`compile_subjoin`]
//! precomputes that shape once into a [`SubJoinProgram`]:
//!
//! * constant selections over the trigger relation become
//!   [`const_filters`](SubJoinProgram) — column offset / conjunct slot pairs
//!   checked first, so a non-matching tuple is rejected before any
//!   allocation,
//! * self-join conjuncts (`R.A = R.B`, from unchecked construction) become
//!   offset/offset `self_filters`,
//! * every surviving conjunct becomes an [`EmitStep`] and every `SELECT`
//!   item a [`SelectStep`], so executing a tuple is a linear scan over flat
//!   vectors instead of an AST walk.
//!
//! A program names the conjuncts and `SELECT` items it keeps or compares
//! against by their **slot** in the query and reads the values out of that
//! query when it runs ([`SubJoinProgram::execute`] takes the query next to
//! the tuple).
//!
//! The engine does not run programs: a pipeline query is compiled once into
//! its input query's [`RewritePlan`](crate::RewritePlan) and binds tuples
//! instead of building rewritten queries. A program is the compiled form of
//! one [`rewrite`](crate::rewrite()) step, kept as a second oracle for the
//! plan (property-tested against both) and as the unit of compile cost.
//!
//! Compilation also validates what unchecked construction (deserialization)
//! cannot: every attribute reference must belong to a `FROM` relation.
//! Orphaned residue — a conjunct or `SELECT` item over a relation absent
//! from `FROM` — is rejected with [`QueryError::UnknownQueryRelation`]
//! instead of being dragged along as a child query that can never complete.

use crate::ast::{Conjunct, EmitStep, JoinQuery, QualifiedAttr, SelectItem, SelectStep};
use crate::rewrite::RewriteResult;
use crate::{QueryError, WindowSpec};
use rjoin_relation::{AttrIndex, Name, Schema, Tuple, Value};

/// The constant of the `ConstEq` conjunct at `slot` of `query`.
///
/// # Panics
/// Panics when the slot holds no `ConstEq`: `query` is not the query the
/// calling program was compiled from.
fn constant_at(query: &JoinQuery, slot: usize) -> &Value {
    match &query.conjuncts()[slot] {
        Conjunct::ConstEq(_, value) => value,
        Conjunct::JoinEq(..) => panic!("program run against a query of another shape"),
    }
}

/// One compiled rewrite step: what [`rewrite`](crate::rewrite()) does to one
/// query for tuples of one relation, as flat vectors of offsets and slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubJoinProgram {
    relation: String,
    /// Minimum tuple arity required by the `WHERE` and `SELECT` offsets,
    /// together with the attribute reference that demands it (for error
    /// reporting).
    min_arity: usize,
    widest: Option<QualifiedAttr>,
    /// `ConstEq` conjuncts over the trigger relation: the column offset of
    /// the attribute and the slot of the conjunct that holds the expected
    /// value. Checked before anything is allocated.
    const_filters: Vec<(AttrIndex, usize)>,
    /// Self-join conjuncts over the trigger relation (offset pairs).
    self_filters: Vec<(AttrIndex, AttrIndex)>,
    /// Surviving conjuncts in source order.
    emit: Vec<EmitStep>,
    /// The `SELECT` list, item for item.
    select: Vec<SelectStep>,
    /// The child's `FROM` list: the source `FROM` minus the trigger
    /// relation, in source order.
    remaining: Vec<Name>,
    distinct: bool,
    window: WindowSpec,
}

impl SubJoinProgram {
    /// The trigger relation this program rewrites tuples of.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// Executes the program for `query` — the query it was
    /// [compiled from](compile_subjoin), which supplies every constant the
    /// program compares against or re-emits — against one tuple of the
    /// trigger relation.
    ///
    /// Produces the same [`RewriteResult`] as the AST interpreter
    /// ([`rewrite`](crate::rewrite())) on every valid (query, tuple) pair:
    /// same mismatches, byte-identical child queries and answer rows. The
    /// only divergence is on arity-short tuples, where the interpreter
    /// reports the first out-of-range reference in conjunct order while the
    /// compiled program reports the widest one.
    ///
    /// # Panics
    /// May panic when `query` is not the query the program was compiled from.
    pub fn execute(&self, query: &JoinQuery, tuple: &Tuple) -> Result<RewriteResult, QueryError> {
        let vals = tuple.values();
        if vals.len() < self.min_arity {
            let attr = self.widest.clone().expect("min_arity > 0 implies a widest reference");
            return Err(QueryError::ArityMismatch {
                attr,
                index: self.min_arity - 1,
                arity: vals.len(),
            });
        }
        for &(idx, slot) in &self.const_filters {
            if vals[idx] != *constant_at(query, slot) {
                return Ok(RewriteResult::Mismatch);
            }
        }
        for (a, b) in &self.self_filters {
            if vals[*a] != vals[*b] {
                return Ok(RewriteResult::Mismatch);
            }
        }

        if self.emit.is_empty() && self.remaining.is_empty() {
            // The child would be complete: build the answer row directly,
            // skipping query construction entirely.
            let mut row = Vec::with_capacity(self.select.len());
            for step in &self.select {
                match step {
                    SelectStep::Resolve(idx) => row.push(vals[*idx].clone()),
                    SelectStep::Keep(slot) => match &query.select()[*slot] {
                        SelectItem::Const(v) => row.push(v.clone()),
                        SelectItem::Attr(a) => {
                            return Err(QueryError::UnresolvedSelect { attr: a.clone() });
                        }
                    },
                }
            }
            return Ok(RewriteResult::Complete(row));
        }

        let conjuncts: Vec<Conjunct> = self
            .emit
            .iter()
            .map(|step| match step {
                EmitStep::Keep(slot) => query.conjuncts()[*slot].clone(),
                EmitStep::ConstFrom { attr, offset } => {
                    Conjunct::ConstEq(attr.clone(), vals[*offset].clone())
                }
            })
            .collect();
        let select: Vec<SelectItem> = self
            .select
            .iter()
            .map(|step| match step {
                SelectStep::Keep(slot) => query.select()[*slot].clone(),
                SelectStep::Resolve(idx) => SelectItem::Const(vals[*idx].clone()),
            })
            .collect();
        Ok(RewriteResult::Partial(JoinQuery::from_parts_unchecked(
            self.distinct,
            select,
            self.remaining.clone(),
            conjuncts,
            self.window,
        )))
    }
}

/// Compiles the rewrite step of `query` for tuples whose schema is
/// `schema`.
///
/// Fails with the same errors the interpreter would raise on the first
/// matching tuple ([`QueryError::IrrelevantTuple`],
/// [`QueryError::UnknownAttribute`]) plus the orphaned-residue validation
/// described in the module docs ([`QueryError::UnknownQueryRelation`]).
pub fn compile_subjoin(query: &JoinQuery, schema: &Schema) -> Result<SubJoinProgram, QueryError> {
    let relation = schema.relation();
    if !query.references_relation(relation) {
        return Err(QueryError::IrrelevantTuple { relation: relation.to_string() });
    }

    let mut min_arity = 0usize;
    let mut widest = None;
    let mut resolve = |attr: &QualifiedAttr| -> Result<AttrIndex, QueryError> {
        let idx = schema
            .index_of(&attr.attribute)
            .ok_or_else(|| QueryError::UnknownAttribute { attr: attr.clone() })?;
        if idx + 1 > min_arity {
            min_arity = idx + 1;
            widest = Some(attr.clone());
        }
        Ok(idx)
    };
    let check_in_from = |attr: &QualifiedAttr| -> Result<(), QueryError> {
        if query.references_relation(&attr.relation) {
            Ok(())
        } else {
            Err(QueryError::UnknownQueryRelation { attr: attr.clone() })
        }
    };

    let mut const_filters = Vec::new();
    let mut self_filters = Vec::new();
    let mut emit = Vec::new();
    for (slot, conjunct) in query.conjuncts().iter().enumerate() {
        match conjunct {
            Conjunct::JoinEq(a, b) => {
                let a_here = a.relation == relation;
                let b_here = b.relation == relation;
                if a_here && b_here {
                    self_filters.push((resolve(a)?, resolve(b)?));
                } else if a_here || b_here {
                    let (here, there) = if a_here { (a, b) } else { (b, a) };
                    check_in_from(there)?;
                    emit.push(EmitStep::ConstFrom { attr: there.clone(), offset: resolve(here)? });
                } else {
                    check_in_from(a)?;
                    check_in_from(b)?;
                    emit.push(EmitStep::Keep(slot));
                }
            }
            Conjunct::ConstEq(a, _) => {
                if a.relation == relation {
                    const_filters.push((resolve(a)?, slot));
                } else {
                    check_in_from(a)?;
                    emit.push(EmitStep::Keep(slot));
                }
            }
        }
    }

    let mut select = Vec::with_capacity(query.select().len());
    for (slot, item) in query.select().iter().enumerate() {
        match item {
            SelectItem::Attr(a) if a.relation == relation => {
                select.push(SelectStep::Resolve(resolve(a)?));
            }
            SelectItem::Attr(a) => {
                check_in_from(a)?;
                select.push(SelectStep::Keep(slot));
            }
            SelectItem::Const(_) => select.push(SelectStep::Keep(slot)),
        }
    }

    let remaining: Vec<Name> =
        query.relations().iter().filter(|r| r.as_str() != relation).cloned().collect();

    Ok(SubJoinProgram {
        relation: relation.to_string(),
        min_arity,
        widest,
        const_filters,
        self_filters,
        emit,
        select,
        remaining,
        distinct: query.distinct(),
        window: *query.window(),
    })
}

/// The tuple-resolvable equality pins of `query` for tuples of `relation`,
/// in conjunct source order: every `ConstEq` conjunct over `relation`, as
/// the (attribute, expected value) pairs a trigger index can partition
/// stored queries by. A tuple of `relation` can only trigger `query` if it
/// carries every listed value at the listed attribute — the same filters
/// [`compile_subjoin`] hoists to the front of its program, and the pins
/// [`RewritePlan::pins`](crate::RewritePlan::pins) lists for the relation's
/// slot of a query with nothing bound.
pub fn probe_pins<'a>(
    query: &'a JoinQuery,
    relation: &'a str,
) -> impl Iterator<Item = (&'a QualifiedAttr, &'a Value)> + 'a {
    query.conjuncts().iter().filter_map(move |conjunct| match conjunct {
        Conjunct::ConstEq(attr, value) if attr.relation == relation => Some((attr, value)),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_query, rewrite};

    fn schema(rel: &str) -> Schema {
        Schema::new(rel, ["A", "B", "C"]).unwrap()
    }

    fn tuple(rel: &str, values: [i64; 3]) -> Tuple {
        Tuple::new(rel, values.iter().map(|v| Value::from(*v)).collect(), 0)
    }

    fn attr(r: &str, a: &str) -> QualifiedAttr {
        QualifiedAttr::new(r, a)
    }

    /// The Figure 1 chain of the paper, executed compiled and interpreted in
    /// lockstep: every intermediate child must be byte-identical.
    #[test]
    fn figure_one_chain_matches_interpreter() {
        let mut q = parse_query(
            "SELECT S.B, M.A FROM R, S, J, M WHERE R.A = S.A AND S.B = J.B AND J.C = M.C",
        )
        .unwrap();
        let steps = [
            tuple("R", [2, 5, 8]),
            tuple("S", [2, 6, 3]),
            tuple("J", [7, 6, 2]),
            tuple("M", [9, 1, 2]),
        ];
        for t in steps {
            let s = schema(t.relation());
            let interpreted = rewrite(&q, &t, &s).unwrap();
            let compiled = compile_subjoin(&q, &s).unwrap().execute(&q, &t).unwrap();
            assert_eq!(compiled, interpreted);
            match interpreted {
                RewriteResult::Partial(child) => q = child,
                RewriteResult::Complete(row) => {
                    assert_eq!(row, vec![Value::from(6), Value::from(9)]);
                    return;
                }
                RewriteResult::Mismatch => panic!("chain must not mismatch"),
            }
        }
        panic!("chain must complete");
    }

    #[test]
    fn const_filter_short_circuits_to_mismatch() {
        let q = parse_query("SELECT S.B FROM S, R WHERE S.A = 2 AND S.B = R.B").unwrap();
        let program = compile_subjoin(&q, &schema("S")).unwrap();
        assert_eq!(program.execute(&q, &tuple("S", [3, 6, 3])).unwrap(), RewriteResult::Mismatch);
        match program.execute(&q, &tuple("S", [2, 6, 3])).unwrap() {
            RewriteResult::Partial(child) => {
                assert_eq!(child.conjuncts(), &[Conjunct::ConstEq(attr("R", "B"), Value::from(6))]);
                assert_eq!(child.relations(), &["R".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn self_join_conjuncts_become_filters() {
        let q = JoinQuery::from_parts_unchecked(
            false,
            vec![SelectItem::Attr(attr("S", "B"))],
            vec!["R".into(), "S".into()],
            vec![
                Conjunct::JoinEq(attr("R", "A"), attr("R", "B")),
                Conjunct::JoinEq(attr("R", "C"), attr("S", "C")),
            ],
            WindowSpec::None,
        );
        let program = compile_subjoin(&q, &schema("R")).unwrap();
        assert_eq!(program.execute(&q, &tuple("R", [7, 8, 3])).unwrap(), RewriteResult::Mismatch);
        assert_eq!(
            program.execute(&q, &tuple("R", [7, 7, 3])).unwrap(),
            rewrite(&q, &tuple("R", [7, 7, 3]), &schema("R")).unwrap()
        );
    }

    /// Satellite: orphaned residue — conjuncts over a relation absent from
    /// FROM — must be rejected at compile time, not dragged into children.
    #[test]
    fn orphaned_conjunct_is_rejected_at_compile_time() {
        let q = JoinQuery::from_parts_unchecked(
            false,
            vec![SelectItem::Const(Value::from(1))],
            vec!["R".into(), "S".into()],
            vec![
                Conjunct::JoinEq(attr("R", "A"), attr("S", "A")),
                Conjunct::ConstEq(attr("Z", "B"), Value::from(5)),
            ],
            WindowSpec::None,
        );
        let err = compile_subjoin(&q, &schema("R")).unwrap_err();
        assert_eq!(err, QueryError::UnknownQueryRelation { attr: attr("Z", "B") });

        let join_orphan = JoinQuery::from_parts_unchecked(
            false,
            vec![SelectItem::Const(Value::from(1))],
            vec!["R".into()],
            vec![Conjunct::JoinEq(attr("R", "A"), attr("Z", "A"))],
            WindowSpec::None,
        );
        let err = compile_subjoin(&join_orphan, &schema("R")).unwrap_err();
        assert_eq!(err, QueryError::UnknownQueryRelation { attr: attr("Z", "A") });
    }

    #[test]
    fn orphaned_select_is_rejected_at_compile_time() {
        let q = JoinQuery::from_parts_unchecked(
            false,
            vec![SelectItem::Attr(attr("Z", "B"))],
            vec!["R".into()],
            vec![],
            WindowSpec::None,
        );
        let err = compile_subjoin(&q, &schema("R")).unwrap_err();
        assert_eq!(err, QueryError::UnknownQueryRelation { attr: attr("Z", "B") });
    }

    #[test]
    fn arity_short_tuple_reports_arity_mismatch() {
        let q = parse_query("SELECT S.B FROM S, R WHERE S.C = R.A").unwrap();
        let program = compile_subjoin(&q, &schema("S")).unwrap();
        let short = Tuple::new("S", vec![Value::from(1), Value::from(2)], 0);
        let err = program.execute(&q, &short).unwrap_err();
        assert!(matches!(err, QueryError::ArityMismatch { index: 2, arity: 2, .. }));
    }

    #[test]
    fn irrelevant_relation_is_a_compile_error() {
        let q = parse_query("SELECT S.B FROM S WHERE S.A = 2").unwrap();
        let err = compile_subjoin(&q, &schema("Z")).unwrap_err();
        assert!(matches!(err, QueryError::IrrelevantTuple { .. }));
    }

    /// A plan's per-mask derivations depend on the input query's structure
    /// and on which slots are bound, never on its `SELECT` list: two
    /// queries that differ only in `SELECT` have the same candidate keys at
    /// every mask (those of the query the binding denotes), while a
    /// different `WHERE` clause or window tells them apart.
    #[test]
    fn matches_source_confirms_structure_and_ignores_select() {
        use crate::{candidate_keys, Bindings, RewritePlan};
        use rjoin_relation::Catalog;
        use std::sync::Arc;
        let mut catalog = Catalog::new();
        for rel in ["R", "S"] {
            catalog.register(schema(rel)).unwrap();
        }
        let plan = |sql: &str| RewritePlan::new(Arc::new(parse_query(sql).unwrap()), &catalog);
        let q = plan("SELECT S.B FROM R, S, T WHERE R.A = S.A").unwrap_err();
        assert!(matches!(q, QueryError::Relation(_)), "every relation needs a schema");
        let q = plan("SELECT S.B FROM R, S WHERE R.A = S.A").unwrap();
        let other_select = plan("SELECT S.C FROM R, S WHERE R.A = S.A").unwrap();
        let r = Arc::new(tuple("R", [4, 5, 6]));
        let bound = Bindings::default().with(0, &r);
        for (mask, bound) in [(0, Bindings::default()), (1, bound)] {
            let keys = |p: &RewritePlan| -> Vec<_> {
                p.keys(mask).iter().map(|k| k.index_key(p, &bound)).collect()
            };
            assert_eq!(keys(&q), keys(&other_select));
            assert_eq!(keys(&q), candidate_keys(&q.materialize(&bound)));
        }
        let other_where = plan("SELECT S.B FROM R, S WHERE R.B = S.B").unwrap();
        assert_ne!(q.keys(0).to_vec(), other_where.keys(0).to_vec());
        let windowed =
            plan("SELECT S.B FROM R, S WHERE R.A = S.A WINDOW SLIDING 10 TUPLES").unwrap();
        assert_ne!(q.plan().window(), windowed.plan().window());
    }

    #[test]
    fn unknown_attribute_is_a_compile_error() {
        let q = parse_query("SELECT S.Z FROM S, R WHERE S.Z = R.A").unwrap();
        let err = compile_subjoin(&q, &schema("S")).unwrap_err();
        assert!(matches!(err, QueryError::UnknownAttribute { .. }));
    }

    /// The AST-level pin extraction and the plan's pins must agree: the
    /// plan lists, for the slot of the tuple's relation of a query with
    /// nothing bound, exactly the pins `probe_pins` extracts, in the same
    /// order, and its offset is the schema resolution of the attribute.
    #[test]
    fn probe_pins_agree_with_compiled_probe_key() {
        use crate::{Bindings, RewritePlan};
        use rjoin_relation::Catalog;
        use std::sync::Arc;
        let q =
            parse_query("SELECT S.C FROM S, R WHERE S.B = R.B AND S.A = 2 AND S.C = 7 AND R.A = 1")
                .unwrap();
        let s = schema("S");
        let pins: Vec<_> = probe_pins(&q, "S").collect();
        assert_eq!(pins.len(), 2);
        assert_eq!(pins[0], (&attr("S", "A"), &Value::from(2)));
        assert_eq!(pins[1], (&attr("S", "C"), &Value::from(7)));
        let mut catalog = Catalog::new();
        catalog.register(s.clone()).unwrap();
        catalog.register(schema("R")).unwrap();
        let plan = RewritePlan::new(Arc::new(q.clone()), &catalog).unwrap();
        let none = Bindings::default();
        let plan_pins: Vec<_> = plan.pins(&none).filter(|(at, _, _)| at.slot == 0).collect();
        assert_eq!(plan_pins.len(), pins.len());
        for ((at, attr, value), (want_attr, want_value)) in plan_pins.iter().zip(&pins) {
            assert_eq!((*attr, *value), (*want_attr, *want_value));
            assert_eq!(at.offset, s.index_of(&want_attr.attribute).unwrap());
        }
        // The R-side pin belongs to R's slot only.
        let r_pins: Vec<_> = probe_pins(&q, "R").collect();
        assert_eq!(r_pins, vec![(&attr("R", "A"), &Value::from(1))]);
        assert_eq!(plan.pins(&none).filter(|(at, _, _)| at.slot == 1).count(), 1);
        // A pure join query has no pins.
        let unpinned = parse_query("SELECT S.B FROM S, R WHERE S.A = R.A").unwrap();
        assert_eq!(probe_pins(&unpinned, "S").count(), 0);
        let plan = RewritePlan::new(Arc::new(unpinned), &catalog).unwrap();
        assert_eq!(plan.pins(&none).count(), 0);
    }

    #[test]
    fn complete_child_builds_answer_row_directly() {
        let q = parse_query("SELECT S.B, S.A FROM S WHERE S.A = 2").unwrap();
        let program = compile_subjoin(&q, &schema("S")).unwrap();
        assert_eq!(
            program.execute(&q, &tuple("S", [2, 6, 3])).unwrap(),
            RewriteResult::Complete(vec![Value::from(6), Value::from(2)])
        );
    }
}
