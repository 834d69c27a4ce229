//! Abstract syntax of continuous multi-way equi-join queries.

use crate::{QueryError, WindowSpec};
use rjoin_relation::{AttrIndex, Catalog, Name, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A `Relation.Attribute` expression appearing in a query.
///
/// Both components are cheaply clonable [`Name`]s: attribute references are
/// cloned on every rewrite step and every stored sub-join, so a clone must
/// be a reference-count bump, not a pair of heap allocations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QualifiedAttr {
    /// Relation name.
    pub relation: Name,
    /// Attribute name.
    pub attribute: Name,
}

impl QualifiedAttr {
    /// Convenience constructor.
    pub fn new<R: Into<Name>, A: Into<Name>>(relation: R, attribute: A) -> Self {
        QualifiedAttr { relation: relation.into(), attribute: attribute.into() }
    }
}

impl fmt::Display for QualifiedAttr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.relation, self.attribute)
    }
}

/// An item of the `SELECT` list.
///
/// In an input query every item is an attribute reference; as the query is
/// rewritten with incoming tuples, attribute references are progressively
/// replaced by the constants carried by those tuples (see the `q2 = select
/// 5, S.B from ...` example in Section 3 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectItem {
    /// A still-unresolved `Relation.Attribute` reference.
    Attr(QualifiedAttr),
    /// A constant produced by a previous rewriting step.
    Const(Value),
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Attr(a) => write!(f, "{a}"),
            SelectItem::Const(v) => write!(f, "{v}"),
        }
    }
}

/// One conjunct of the `WHERE` clause.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Conjunct {
    /// An equi-join predicate `R.A = S.B` between two different relations.
    JoinEq(QualifiedAttr, QualifiedAttr),
    /// A selection predicate `R.A = v` (either written by the user or
    /// produced by rewriting a join predicate with an incoming tuple).
    ConstEq(QualifiedAttr, Value),
}

impl Conjunct {
    /// All attribute references appearing in this conjunct.
    pub fn attrs(&self) -> Vec<&QualifiedAttr> {
        match self {
            Conjunct::JoinEq(a, b) => vec![a, b],
            Conjunct::ConstEq(a, _) => vec![a],
        }
    }

    /// Whether this conjunct mentions `relation`.
    pub fn mentions(&self, relation: &str) -> bool {
        self.attrs().iter().any(|a| a.relation == relation)
    }
}

impl fmt::Display for Conjunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Conjunct::JoinEq(a, b) => write!(f, "{a} = {b}"),
            Conjunct::ConstEq(a, v) => write!(f, "{a} = {v}"),
        }
    }
}

/// A borrowed view of one `WHERE` conjunct: what a rewritten query that is
/// never built as a [`JoinQuery`] (`RewritePlan::conjuncts`) shows of its
/// clause, and what signatures are rendered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConjunctRef<'a> {
    /// An equi-join predicate between two unbound relations.
    Join(&'a QualifiedAttr, &'a QualifiedAttr),
    /// A selection predicate: written by the user, or a join predicate one
    /// side of which a bound tuple resolved.
    Const(&'a QualifiedAttr, &'a Value),
}

impl<'a> From<&'a Conjunct> for ConjunctRef<'a> {
    fn from(conjunct: &'a Conjunct) -> Self {
        match conjunct {
            Conjunct::JoinEq(a, b) => ConjunctRef::Join(a, b),
            Conjunct::ConstEq(a, v) => ConjunctRef::Const(a, v),
        }
    }
}

impl ConjunctRef<'_> {
    /// The owned conjunct.
    pub(crate) fn to_conjunct(self) -> Conjunct {
        match self {
            ConjunctRef::Join(a, b) => Conjunct::JoinEq(a.clone(), b.clone()),
            ConjunctRef::Const(a, v) => Conjunct::ConstEq(a.clone(), v.clone()),
        }
    }
}

/// One `WHERE` step of a compiled rewrite (see
/// [`crate::compile_subjoin`]).
///
/// A compiled program pre-computes, per source conjunct, what the rewrite
/// of a tuple of the trigger relation does to it: constant and self-join
/// conjuncts over the trigger relation become up-front filters (they never
/// reach the emitted child), and everything else becomes one `EmitStep` in
/// source order. Steps name source conjuncts by **slot** (their position in
/// the query's `WHERE` clause), never by value: the program reads the
/// values out of the query it runs against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitStep {
    /// Re-emit the stored query's conjunct at this slot unchanged — it does
    /// not mention the trigger relation, so the rewrite cannot touch it.
    Keep(usize),
    /// A join conjunct with exactly one side on the trigger relation: emit
    /// `ConstEq(attr, tuple[offset])`, folding the trigger side to the
    /// constant carried by the tuple.
    ConstFrom {
        /// The surviving (non-trigger) side of the join conjunct.
        attr: QualifiedAttr,
        /// Column offset of the trigger-relation side, resolved against the
        /// catalog schema at compile time.
        offset: AttrIndex,
    },
}

/// One step of a compiled `SELECT` resolution plan (see [`crate::compile_subjoin`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectStep {
    /// Re-emit the stored query's `SELECT` item at this slot unchanged (a
    /// constant, or an attribute of another relation).
    Keep(usize),
    /// An attribute of the trigger relation: resolve it to
    /// `tuple[offset]`.
    Resolve(AttrIndex),
}

/// A continuous multi-way equi-join query.
///
/// The same structure represents both *input queries* (as submitted by a
/// node) and *rewritten queries* (produced by RJoin's incremental
/// evaluation): a rewritten query simply has fewer relations in its `FROM`
/// list, fewer join conjuncts, and some `SELECT` items already resolved to
/// constants.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JoinQuery {
    distinct: bool,
    select: Vec<SelectItem>,
    relations: Vec<Name>,
    conjuncts: Vec<Conjunct>,
    window: WindowSpec,
}

impl JoinQuery {
    /// Builds a query from its parts, validating internal consistency:
    ///
    /// * the `FROM` list must be non-empty and free of duplicates
    ///   (self-joins are not supported, matching the paper's workload where
    ///   adjacent joins share a relation but each relation appears once),
    /// * every attribute referenced by `SELECT` or `WHERE` must belong to a
    ///   relation in the `FROM` list,
    /// * join conjuncts must relate two *different* relations.
    pub fn new(
        distinct: bool,
        select: Vec<SelectItem>,
        relations: Vec<Name>,
        conjuncts: Vec<Conjunct>,
        window: WindowSpec,
    ) -> Result<Self, QueryError> {
        if relations.is_empty() {
            return Err(QueryError::EmptyFrom);
        }
        let mut seen = BTreeSet::new();
        for r in &relations {
            if !seen.insert(r.clone()) {
                return Err(QueryError::DuplicateRelation { relation: r.to_string() });
            }
        }
        if select.is_empty() {
            return Err(QueryError::EmptySelect);
        }
        let check_attr = |attr: &QualifiedAttr| -> Result<(), QueryError> {
            if seen.contains(&attr.relation) {
                Ok(())
            } else {
                Err(QueryError::UnknownQueryRelation { attr: attr.clone() })
            }
        };
        for item in &select {
            if let SelectItem::Attr(a) = item {
                check_attr(a)?;
            }
        }
        for c in &conjuncts {
            match c {
                Conjunct::JoinEq(a, b) => {
                    check_attr(a)?;
                    check_attr(b)?;
                    if a.relation == b.relation {
                        return Err(QueryError::SelfJoin { attr: a.clone() });
                    }
                }
                Conjunct::ConstEq(a, _) => check_attr(a)?,
            }
        }
        Ok(JoinQuery { distinct, select, relations, conjuncts, window })
    }

    /// Whether this query requests set semantics (`SELECT DISTINCT`).
    pub fn distinct(&self) -> bool {
        self.distinct
    }

    /// The `SELECT` list.
    pub fn select(&self) -> &[SelectItem] {
        &self.select
    }

    /// Relations still present in the `FROM` list.
    pub fn relations(&self) -> &[Name] {
        &self.relations
    }

    /// The `WHERE` conjuncts.
    pub fn conjuncts(&self) -> &[Conjunct] {
        &self.conjuncts
    }

    /// The window declaration of the query.
    pub fn window(&self) -> &WindowSpec {
        &self.window
    }

    /// Replaces the window declaration (used by workload generators).
    pub fn with_window(mut self, window: WindowSpec) -> Self {
        self.window = window;
        self
    }

    /// Replaces the `SELECT` list, validating that every attribute reference
    /// belongs to a relation of the `FROM` list. Used by the overlapping
    /// workload generator (same sub-join, different projections) and by
    /// shared sub-join evaluation when a subscriber's projection is promoted
    /// to be the representative one.
    pub fn with_select(mut self, select: Vec<SelectItem>) -> Result<Self, QueryError> {
        if select.is_empty() {
            return Err(QueryError::EmptySelect);
        }
        for item in &select {
            if let SelectItem::Attr(a) = item {
                if !self.relations.contains(&a.relation) {
                    return Err(QueryError::UnknownQueryRelation { attr: a.clone() });
                }
            }
        }
        self.select = select;
        Ok(self)
    }

    /// Number of equi-join conjuncts remaining in the `WHERE` clause.
    pub fn join_count(&self) -> usize {
        self.conjuncts.iter().filter(|c| matches!(c, Conjunct::JoinEq(..))).count()
    }

    /// Whether the query mentions `relation` in its `FROM` list.
    pub fn references_relation(&self, relation: &str) -> bool {
        self.relations.iter().any(|r| r == relation)
    }

    /// Whether the `WHERE` clause is (equivalent to) `true`, i.e. all joins
    /// and selections have been resolved. For a well-formed rewritten query
    /// this coincides with the `FROM` list being empty.
    pub fn is_complete(&self) -> bool {
        self.conjuncts.is_empty() && self.relations.is_empty()
    }

    /// If the query is complete, returns the answer row: all `SELECT` items
    /// as constants. Returns `None` if any item is still unresolved.
    pub fn answer_row(&self) -> Option<Vec<Value>> {
        if !self.is_complete() {
            return None;
        }
        self.select
            .iter()
            .map(|item| match item {
                SelectItem::Const(v) => Some(v.clone()),
                SelectItem::Attr(_) => None,
            })
            .collect()
    }

    /// Validates this query against a catalog: every referenced relation
    /// must be registered and every referenced attribute must exist in the
    /// corresponding schema.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), QueryError> {
        for r in &self.relations {
            catalog.require_schema(r).map_err(QueryError::Relation)?;
        }
        let check = |attr: &QualifiedAttr| -> Result<(), QueryError> {
            let schema = catalog.require_schema(&attr.relation).map_err(QueryError::Relation)?;
            schema.require_attribute(&attr.attribute).map_err(QueryError::Relation)?;
            Ok(())
        };
        for item in &self.select {
            if let SelectItem::Attr(a) = item {
                check(a)?;
            }
        }
        for c in &self.conjuncts {
            for a in c.attrs() {
                check(a)?;
            }
        }
        Ok(())
    }

    /// Internal constructor used by the rewriting engine; skips validation
    /// because the rewriting step preserves well-formedness by construction.
    pub(crate) fn from_parts_unchecked(
        distinct: bool,
        select: Vec<SelectItem>,
        relations: Vec<Name>,
        conjuncts: Vec<Conjunct>,
        window: WindowSpec,
    ) -> Self {
        JoinQuery { distinct, select, relations, conjuncts, window }
    }
}

impl fmt::Display for JoinQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, item) in self.select.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        if !self.relations.is_empty() {
            write!(f, " FROM {}", self.relations.join(", "))?;
        }
        if !self.conjuncts.is_empty() {
            write!(f, " WHERE ")?;
            for (i, c) in self.conjuncts.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                write!(f, "{c}")?;
            }
        }
        match &self.window {
            WindowSpec::None => {}
            w => write!(f, " {w}")?,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(r: &str, a: &str) -> QualifiedAttr {
        QualifiedAttr::new(r, a)
    }

    fn three_way() -> JoinQuery {
        JoinQuery::new(
            false,
            vec![SelectItem::Attr(attr("R", "B")), SelectItem::Attr(attr("S", "B"))],
            vec!["R".into(), "S".into(), "P".into()],
            vec![
                Conjunct::JoinEq(attr("R", "A"), attr("S", "A")),
                Conjunct::JoinEq(attr("S", "B"), attr("P", "B")),
            ],
            WindowSpec::None,
        )
        .unwrap()
    }

    #[test]
    fn builds_and_reports_join_count() {
        let q = three_way();
        assert_eq!(q.join_count(), 2);
        assert!(q.references_relation("P"));
        assert!(!q.references_relation("Z"));
        assert!(!q.is_complete());
        assert!(q.answer_row().is_none());
    }

    #[test]
    fn rejects_empty_from() {
        let err = JoinQuery::new(
            false,
            vec![SelectItem::Const(Value::from(1))],
            vec![],
            vec![],
            WindowSpec::None,
        )
        .unwrap_err();
        assert_eq!(err, QueryError::EmptyFrom);
    }

    #[test]
    fn rejects_empty_select() {
        let err =
            JoinQuery::new(false, vec![], vec!["R".into()], vec![], WindowSpec::None).unwrap_err();
        assert_eq!(err, QueryError::EmptySelect);
    }

    #[test]
    fn rejects_duplicate_from_relation() {
        let err = JoinQuery::new(
            false,
            vec![SelectItem::Attr(attr("R", "A"))],
            vec!["R".into(), "R".into()],
            vec![],
            WindowSpec::None,
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::DuplicateRelation { .. }));
    }

    #[test]
    fn rejects_attr_outside_from() {
        let err = JoinQuery::new(
            false,
            vec![SelectItem::Attr(attr("Z", "A"))],
            vec!["R".into()],
            vec![],
            WindowSpec::None,
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::UnknownQueryRelation { .. }));
    }

    #[test]
    fn rejects_self_join() {
        let err = JoinQuery::new(
            false,
            vec![SelectItem::Attr(attr("R", "A"))],
            vec!["R".into(), "S".into()],
            vec![Conjunct::JoinEq(attr("R", "A"), attr("R", "B"))],
            WindowSpec::None,
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::SelfJoin { .. }));
    }

    #[test]
    fn with_select_validates_relations() {
        let q = three_way();
        let swapped = q
            .clone()
            .with_select(vec![SelectItem::Attr(attr("P", "B")), SelectItem::Const(Value::from(1))])
            .unwrap();
        assert_eq!(swapped.select().len(), 2);
        assert_eq!(swapped.conjuncts(), q.conjuncts());
        assert!(q.clone().with_select(vec![]).is_err());
        assert!(matches!(
            q.with_select(vec![SelectItem::Attr(attr("Z", "A"))]).unwrap_err(),
            QueryError::UnknownQueryRelation { .. }
        ));
    }

    #[test]
    fn complete_query_yields_answer_row() {
        let q = JoinQuery::from_parts_unchecked(
            false,
            vec![SelectItem::Const(Value::from(6)), SelectItem::Const(Value::from(9))],
            vec![],
            vec![],
            WindowSpec::None,
        );
        assert!(q.is_complete());
        assert_eq!(q.answer_row(), Some(vec![Value::from(6), Value::from(9)]));
    }

    #[test]
    fn validate_against_catalog() {
        use rjoin_relation::Schema;
        let mut catalog = Catalog::new();
        catalog.register(Schema::new("R", ["A", "B"]).unwrap()).unwrap();
        catalog.register(Schema::new("S", ["A", "B"]).unwrap()).unwrap();
        catalog.register(Schema::new("P", ["B"]).unwrap()).unwrap();
        assert!(three_way().validate(&catalog).is_ok());

        let mut small = Catalog::new();
        small.register(Schema::new("R", ["A"]).unwrap()).unwrap();
        assert!(three_way().validate(&small).is_err());
    }

    #[test]
    fn display_round_trippable_shape() {
        let q = three_way();
        let s = q.to_string();
        assert!(s.starts_with("SELECT R.B, S.B FROM R, S, P WHERE "));
        assert!(s.contains("R.A = S.A AND S.B = P.B"));
    }

    #[test]
    fn conjunct_mentions() {
        let c = Conjunct::JoinEq(attr("R", "A"), attr("S", "B"));
        assert!(c.mentions("R"));
        assert!(c.mentions("S"));
        assert!(!c.mentions("P"));
        let k = Conjunct::ConstEq(attr("R", "A"), Value::from(1));
        assert!(k.mentions("R"));
        assert!(!k.mentions("S"));
    }
}
