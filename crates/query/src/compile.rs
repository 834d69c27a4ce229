//! Compilation of the per-tuple rewrite into flat predicate programs.
//!
//! [`rewrite`](crate::rewrite()) walks the query AST for every
//! (tuple, stored query) pair: it compares relation names as strings,
//! resolves attribute names against the schema by linear scan, and clones
//! conjuncts one by one. That walk is the inner loop of Procedures 1–3 — a
//! node with `n` stored queries on a ring key performs it `n` times per
//! delivery.
//!
//! This module compiles the walk away. For a given (query, trigger relation)
//! pair, the *shape* of the rewrite is fixed: which conjuncts drop, which
//! become `ConstEq`, which `SELECT` slots resolve, and which column offsets
//! feed them depend only on the query and the schema — not on the tuple.
//! [`compile_subjoin`] precomputes that shape once into a [`SubJoinProgram`]:
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
//! # Programs are per shape, not per query
//!
//! Nothing above depends on the *constants* of the query: a program names
//! the conjuncts and `SELECT` items it keeps or compares against by their
//! **slot** in the stored query and reads the values out of that query when
//! it runs ([`CompiledTrigger::execute`] takes the query next to the tuple).
//! Every rewritten query an input query ever spawns by binding the same
//! relations in the same order — whatever values the tuples carried — is
//! therefore served by one `Arc<SubJoinProgram>`:
//! [`matches_source`](SubJoinProgram::matches_source) compares `FROM`, the
//! window, the semantics flag and the conjuncts **with their constants
//! erased**, and [`shape_fingerprint`](crate::shape_fingerprint) hashes
//! exactly that. The `WHERE`-side program is also `SELECT`-agnostic,
//! mirroring the fingerprint abstraction of shared sub-joins; each stored
//! query pairs it with its own cheap [`CompiledTrigger`] select plan.
//!
//! A program also knows what is static about the **children** it emits:
//! their candidate index keys, as [`KeyTemplate`]s in [`candidate_keys`]
//! order ([`SubJoinProgram::child_keys`]).
//!
//! Compilation also validates what unchecked construction (deserialization,
//! the rewriting engine itself) cannot: every attribute reference must
//! belong to a `FROM` relation. Orphaned residue — a conjunct or `SELECT`
//! item over a relation absent from `FROM` — is rejected with
//! [`QueryError::UnknownQueryRelation`] instead of being dragged along as a
//! child query that can never complete.
//!
//! [`candidate_keys`]: crate::candidate_keys

use crate::ast::{Conjunct, EmitStep, JoinQuery, QualifiedAttr, SelectItem, SelectStep};
use crate::keys::{key_templates, KeyTemplate};
use crate::rewrite::RewriteResult;
use crate::{QueryError, WindowSpec};
use rjoin_relation::{AttrIndex, Name, Schema, Tuple, Value};
use std::sync::Arc;

/// A source conjunct with its constant erased: what a program remembers of
/// the query it was compiled from.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ConjunctShape {
    Join(QualifiedAttr, QualifiedAttr),
    Const(QualifiedAttr),
}

impl ConjunctShape {
    fn of(conjunct: &Conjunct) -> Self {
        match conjunct {
            Conjunct::JoinEq(a, b) => ConjunctShape::Join(a.clone(), b.clone()),
            Conjunct::ConstEq(a, _) => ConjunctShape::Const(a.clone()),
        }
    }

    fn matches(&self, conjunct: &Conjunct) -> bool {
        match (self, conjunct) {
            (ConjunctShape::Join(a, b), Conjunct::JoinEq(x, y)) => a == x && b == y,
            (ConjunctShape::Const(a), Conjunct::ConstEq(x, _)) => a == x,
            _ => false,
        }
    }
}

/// The constant of the `ConstEq` conjunct at `slot` of `query`.
///
/// # Panics
/// Panics when the slot holds no `ConstEq`: `query` is not of the shape the
/// calling program was compiled from, which its caller must have confirmed
/// ([`SubJoinProgram::matches_source`]).
fn constant_at(query: &JoinQuery, slot: usize) -> &Value {
    match &query.conjuncts()[slot] {
        Conjunct::ConstEq(_, value) => value,
        Conjunct::JoinEq(..) => panic!("program run against a query of another shape"),
    }
}

/// The `SELECT`-agnostic, constant-agnostic half of a compiled trigger: the
/// rewrite template for tuples of one relation against one sub-join shape.
///
/// Cacheable by [`shape_fingerprint`](crate::shape_fingerprint) (see
/// `rjoin_core`). Fingerprint hits are candidates only — use
/// [`matches_source`](SubJoinProgram::matches_source) to confirm structural
/// equality before reuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubJoinProgram {
    relation: String,
    /// Minimum tuple arity required by the `WHERE`-side offsets, together
    /// with the attribute reference that demands it (for error reporting).
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
    /// The child's `FROM` list: the source `FROM` minus the trigger
    /// relation, in source order.
    remaining: Vec<Name>,
    distinct: bool,
    window: WindowSpec,
    /// Source identity, retained so a fingerprint-cache hit can be
    /// confirmed by direct comparison instead of re-walking signatures.
    source_relations: Vec<Name>,
    source_conjuncts: Vec<ConjunctShape>,
    /// Candidate index keys of the emitted children.
    child_keys: Vec<KeyTemplate>,
}

impl SubJoinProgram {
    /// The trigger relation this program rewrites tuples of.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// The discriminating probe key `query` has under this program, if any:
    /// the first pre-folded constant filter, as a (column offset, expected
    /// value) pair. A tuple whose column `offset` differs from `value` is
    /// rejected by [`execute`](CompiledTrigger::execute) before anything
    /// else runs, so a trigger index that partitions stored entries by this
    /// pin only has to probe the entries whose pin matches the arriving
    /// tuple. `None` for unpinned programs (no tuple-resolvable equality
    /// over the trigger relation) — those must still be walked.
    ///
    /// Agrees with [`probe_pins`] by construction: [`compile_subjoin`]
    /// folds exactly the `ConstEq` conjuncts over the trigger relation into
    /// `const_filters`, in conjunct source order, so the first filter here
    /// is the first pin there resolved against the schema.
    pub fn probe_key<'q>(&self, query: &'q JoinQuery) -> Option<(AttrIndex, &'q Value)> {
        self.const_filters.first().map(|&(offset, slot)| (offset, constant_at(query, slot)))
    }

    /// Whether this program was compiled from exactly this sub-join shape
    /// for `relation`: same `FROM`, window and semantics flag, and the same
    /// conjuncts slot for slot **up to their constants**. `SELECT` lists are
    /// deliberately ignored — the `WHERE`-side template is
    /// projection-agnostic.
    pub fn matches_source(&self, query: &JoinQuery, relation: &str) -> bool {
        self.relation == relation
            && self.distinct == query.distinct()
            && self.window == *query.window()
            && self.source_relations == query.relations()
            && self.source_conjuncts.len() == query.conjuncts().len()
            && self.source_conjuncts.iter().zip(query.conjuncts()).all(|(s, c)| s.matches(c))
    }

    /// The candidate index keys of every child this program emits
    /// ([`RewriteResult::Partial`]), position for position what
    /// [`candidate_keys`](crate::candidate_keys) derives from the child:
    /// instantiate each template with the child itself.
    pub fn child_keys(&self) -> &[KeyTemplate] {
        &self.child_keys
    }
}

/// Compiles the `WHERE`-side rewrite template of `query` for tuples whose
/// schema is `schema`. The result serves every query
/// [`matches_source`](SubJoinProgram::matches_source) accepts, not just
/// `query`.
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
    // The child's `WHERE` clause (constants are placeholders: only its
    // shape feeds the key templates).
    let mut child_where = Vec::new();
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
                    child_where.push(Conjunct::ConstEq(there.clone(), Value::from(0)));
                } else {
                    check_in_from(a)?;
                    check_in_from(b)?;
                    emit.push(EmitStep::Keep(slot));
                    child_where.push(conjunct.clone());
                }
            }
            Conjunct::ConstEq(a, _) => {
                if a.relation == relation {
                    const_filters.push((resolve(a)?, slot));
                } else {
                    check_in_from(a)?;
                    emit.push(EmitStep::Keep(slot));
                    child_where.push(conjunct.clone());
                }
            }
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
        remaining,
        distinct: query.distinct(),
        window: *query.window(),
        source_relations: query.relations().to_vec(),
        source_conjuncts: query.conjuncts().iter().map(ConjunctShape::of).collect(),
        child_keys: key_templates(&child_where),
    })
}

/// The tuple-resolvable equality pins of `query` for tuples of `relation`,
/// in conjunct source order: every `ConstEq` conjunct over `relation`, as
/// the (attribute, expected value) pairs a trigger index can partition
/// stored queries by. A tuple of `relation` can only trigger `query` if it
/// carries every listed value at the listed attribute — the same pre-folded
/// filters [`compile_subjoin`] hoists to the front of the compiled program
/// (and in the same order, which is what keeps the AST-level extraction
/// here and [`SubJoinProgram::probe_key`] in agreement).
///
/// Usable before any program exists: stored queries are indexed at store
/// time, while programs are compiled lazily at first trigger.
pub fn probe_pins<'a>(
    query: &'a JoinQuery,
    relation: &'a str,
) -> impl Iterator<Item = (&'a QualifiedAttr, &'a Value)> + 'a {
    query.conjuncts().iter().filter_map(move |conjunct| match conjunct {
        Conjunct::ConstEq(attr, value) if attr.relation == relation => Some((attr, value)),
        _ => None,
    })
}

/// A complete compiled trigger: a shared [`SubJoinProgram`] plus the
/// `SELECT` resolution plan of one stored query. Like the shared half, the
/// plan refers to the query's items by slot and holds none of its values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTrigger {
    shared: Arc<SubJoinProgram>,
    select: Vec<SelectStep>,
    /// Minimum tuple arity over *both* the `WHERE` and `SELECT` offsets.
    min_arity: usize,
    widest: Option<QualifiedAttr>,
}

impl CompiledTrigger {
    /// Pairs an already compiled (possibly cache-shared) `WHERE` program
    /// with the `SELECT` plan of `query`.
    ///
    /// The caller must have confirmed `shared`
    /// [`matches_source`](SubJoinProgram::matches_source) for this query.
    pub fn new(
        shared: Arc<SubJoinProgram>,
        query: &JoinQuery,
        schema: &Schema,
    ) -> Result<Self, QueryError> {
        let relation = schema.relation();
        let mut min_arity = shared.min_arity;
        let mut widest = shared.widest.clone();
        let mut select = Vec::with_capacity(query.select().len());
        for (slot, item) in query.select().iter().enumerate() {
            match item {
                SelectItem::Attr(a) if a.relation == relation => {
                    let idx = schema
                        .index_of(&a.attribute)
                        .ok_or_else(|| QueryError::UnknownAttribute { attr: a.clone() })?;
                    if idx + 1 > min_arity {
                        min_arity = idx + 1;
                        widest = Some(a.clone());
                    }
                    select.push(SelectStep::Resolve(idx));
                }
                SelectItem::Attr(a) => {
                    if !query.references_relation(&a.relation) {
                        return Err(QueryError::UnknownQueryRelation { attr: a.clone() });
                    }
                    select.push(SelectStep::Keep(slot));
                }
                SelectItem::Const(_) => select.push(SelectStep::Keep(slot)),
            }
        }
        Ok(CompiledTrigger { shared, select, min_arity, widest })
    }

    /// The trigger relation this program rewrites tuples of.
    pub fn relation(&self) -> &str {
        self.shared.relation()
    }

    /// The shared `WHERE`-side program (for cache bookkeeping).
    pub fn shared(&self) -> &Arc<SubJoinProgram> {
        &self.shared
    }

    /// Executes the program for `query` — the stored query this trigger was
    /// [built for](CompiledTrigger::new), which supplies every constant the
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
    /// May panic when `query` is not of the shape the trigger was built for.
    pub fn execute(&self, query: &JoinQuery, tuple: &Tuple) -> Result<RewriteResult, QueryError> {
        let p = &*self.shared;
        debug_assert!(p.matches_source(query, tuple.relation()), "trigger run for a foreign query");
        let vals = tuple.values();
        if vals.len() < self.min_arity {
            let attr = self.widest.clone().expect("min_arity > 0 implies a widest reference");
            return Err(QueryError::ArityMismatch {
                attr,
                index: self.min_arity - 1,
                arity: vals.len(),
            });
        }
        for &(idx, slot) in &p.const_filters {
            if vals[idx] != *constant_at(query, slot) {
                return Ok(RewriteResult::Mismatch);
            }
        }
        for (a, b) in &p.self_filters {
            if vals[*a] != vals[*b] {
                return Ok(RewriteResult::Mismatch);
            }
        }

        if p.emit.is_empty() && p.remaining.is_empty() {
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

        let conjuncts: Vec<Conjunct> = p
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
            p.distinct,
            select,
            p.remaining.clone(),
            conjuncts,
            p.window,
        )))
    }
}

/// Convenience: compiles the full trigger program (shared `WHERE` template
/// plus `SELECT` plan) for `query` and tuples of `schema` in one step.
pub fn compile_trigger(query: &JoinQuery, schema: &Schema) -> Result<CompiledTrigger, QueryError> {
    let shared = Arc::new(compile_subjoin(query, schema)?);
    CompiledTrigger::new(shared, query, schema)
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
            let compiled = compile_trigger(&q, &s).unwrap().execute(&q, &t).unwrap();
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
        let program = compile_trigger(&q, &schema("S")).unwrap();
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
        let program = compile_trigger(&q, &schema("R")).unwrap();
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
        let err = compile_trigger(&q, &schema("R")).unwrap_err();
        assert_eq!(err, QueryError::UnknownQueryRelation { attr: attr("Z", "B") });
    }

    #[test]
    fn arity_short_tuple_reports_arity_mismatch() {
        let q = parse_query("SELECT S.B FROM S, R WHERE S.C = R.A").unwrap();
        let program = compile_trigger(&q, &schema("S")).unwrap();
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

    #[test]
    fn matches_source_confirms_structure_and_ignores_select() {
        let q = parse_query("SELECT S.B FROM R, S WHERE R.A = S.A").unwrap();
        let program = compile_subjoin(&q, &schema("R")).unwrap();
        assert!(program.matches_source(&q, "R"));
        // Different SELECT, same sub-join: still a match (the template is
        // projection-agnostic, like the fingerprint).
        let other_select = parse_query("SELECT S.C FROM R, S WHERE R.A = S.A").unwrap();
        assert!(program.matches_source(&other_select, "R"));
        // Different trigger relation or structure: no match.
        assert!(!program.matches_source(&q, "S"));
        let other_where = parse_query("SELECT S.B FROM R, S WHERE R.B = S.B").unwrap();
        assert!(!program.matches_source(&other_where, "R"));
        let windowed =
            parse_query("SELECT S.B FROM R, S WHERE R.A = S.A WINDOW SLIDING 10 TUPLES").unwrap();
        assert!(!program.matches_source(&windowed, "R"));
    }

    #[test]
    fn unknown_attribute_is_a_compile_error() {
        let q = parse_query("SELECT S.Z FROM S, R WHERE S.Z = R.A").unwrap();
        let err = compile_trigger(&q, &schema("S")).unwrap_err();
        assert!(matches!(err, QueryError::UnknownAttribute { .. }));
    }

    /// The AST-level pin extraction and the compiled program's probe key
    /// must agree: same conjunct picked first, same value, and the offset
    /// is the schema resolution of the picked attribute.
    #[test]
    fn probe_pins_agree_with_compiled_probe_key() {
        let q =
            parse_query("SELECT S.C FROM S, R WHERE S.B = R.B AND S.A = 2 AND S.C = 7 AND R.A = 1")
                .unwrap();
        let s = schema("S");
        let pins: Vec<_> = probe_pins(&q, "S").collect();
        assert_eq!(pins.len(), 2);
        assert_eq!(pins[0], (&attr("S", "A"), &Value::from(2)));
        assert_eq!(pins[1], (&attr("S", "C"), &Value::from(7)));
        let program = compile_subjoin(&q, &s).unwrap();
        let (offset, value) = program.probe_key(&q).expect("pinned program");
        assert_eq!(offset, s.index_of(&pins[0].0.attribute).unwrap());
        assert_eq!(value, pins[0].1);
        // The R-side pin belongs to R-triggered programs only.
        let r_pins: Vec<_> = probe_pins(&q, "R").collect();
        assert_eq!(r_pins, vec![(&attr("R", "A"), &Value::from(1))]);
        // A pure join query has no pins and an unpinned program.
        let unpinned = parse_query("SELECT S.B FROM S, R WHERE S.A = R.A").unwrap();
        assert_eq!(probe_pins(&unpinned, "S").count(), 0);
        assert!(compile_subjoin(&unpinned, &s).unwrap().probe_key(&unpinned).is_none());
    }

    #[test]
    fn complete_child_builds_answer_row_directly() {
        let q = parse_query("SELECT S.B, S.A FROM S WHERE S.A = 2").unwrap();
        let program = compile_trigger(&q, &schema("S")).unwrap();
        assert_eq!(
            program.execute(&q, &tuple("S", [2, 6, 3])).unwrap(),
            RewriteResult::Complete(vec![Value::from(6), Value::from(2)])
        );
    }
}
