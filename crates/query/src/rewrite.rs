//! The incremental rewriting step at the heart of RJoin.
//!
//! When a tuple `t` of relation `R` triggers a query `q` (input or already
//! rewritten), `q` is rewritten into a query with fewer joins: every
//! occurrence of an attribute of `R` is replaced by the corresponding value
//! of `t` and the `WHERE` clause is simplified. Three outcomes are possible:
//!
//! * the `WHERE` clause becomes `true` — an **answer** has been produced,
//! * some conjuncts remain — a smaller **rewritten query** is produced and
//!   must be re-indexed at another node,
//! * a selection conjunct over `R` evaluates to `false` — the tuple does
//!   **not** match and nothing is produced.

use crate::ast::{Conjunct, JoinQuery, SelectItem};
use crate::QueryError;
use rjoin_relation::{Catalog, Name, Schema, Tuple, Value};

/// Result of rewriting a query with an incoming tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteResult {
    /// The `WHERE` clause became `true`; the answer row (the fully resolved
    /// `SELECT` list) is returned.
    Complete(Vec<Value>),
    /// The query still has work to do; the rewritten query is returned and
    /// must be re-indexed.
    Partial(JoinQuery),
    /// The tuple does not satisfy a selection conjunct of the query; the
    /// query is unaffected.
    Mismatch,
}

impl RewriteResult {
    /// Convenience predicate.
    pub fn is_mismatch(&self) -> bool {
        matches!(self, RewriteResult::Mismatch)
    }
}

fn tuple_value<'t>(
    tuple: &'t Tuple,
    schema: &Schema,
    attribute: &str,
) -> Result<&'t Value, QueryError> {
    let idx = schema.index_of(attribute).ok_or_else(|| QueryError::UnknownAttribute {
        attr: crate::ast::QualifiedAttr::new(tuple.relation(), attribute),
    })?;
    tuple.value(idx).ok_or_else(|| QueryError::ArityMismatch {
        attr: crate::ast::QualifiedAttr::new(tuple.relation(), attribute),
        index: idx,
        arity: tuple.arity(),
    })
}

/// Rewrites `query` with the incoming `tuple` (whose schema is `schema`),
/// implementing the `rewrite(q, t)` function of Procedures 2 and 3.
///
/// Returns an error if the tuple's relation is not referenced by the query,
/// if the schema does not describe the tuple's relation, or if the query
/// references an attribute that does not exist in the schema. These are
/// caller bugs, not data-dependent conditions.
pub fn rewrite(
    query: &JoinQuery,
    tuple: &Tuple,
    schema: &Schema,
) -> Result<RewriteResult, QueryError> {
    let relation = tuple.relation();
    if schema.relation() != relation {
        return Err(QueryError::SchemaMismatch {
            tuple_relation: relation.to_string(),
            schema_relation: schema.relation().to_string(),
        });
    }
    if !query.references_relation(relation) {
        return Err(QueryError::IrrelevantTuple { relation: relation.to_string() });
    }

    // Simplify the WHERE clause.
    let mut new_conjuncts = Vec::with_capacity(query.conjuncts().len());
    for conjunct in query.conjuncts() {
        match conjunct {
            Conjunct::JoinEq(a, b) => {
                if a.relation == relation && b.relation == relation {
                    // Both sides belong to the incoming tuple's relation
                    // (a self-join conjunct such as `R.A = R.B`): the
                    // conjunct is fully resolvable right now, so evaluate it
                    // immediately. Emitting a `ConstEq` over `relation` here
                    // would be residue that can never fire again, because
                    // `relation` is dropped from the `FROM` list below.
                    let va = tuple_value(tuple, schema, &a.attribute)?;
                    let vb = tuple_value(tuple, schema, &b.attribute)?;
                    if va != vb {
                        return Ok(RewriteResult::Mismatch);
                    }
                    // Satisfied: drop the conjunct.
                } else if a.relation == relation {
                    let v = tuple_value(tuple, schema, &a.attribute)?;
                    new_conjuncts.push(Conjunct::ConstEq(b.clone(), v.clone()));
                } else if b.relation == relation {
                    let v = tuple_value(tuple, schema, &b.attribute)?;
                    new_conjuncts.push(Conjunct::ConstEq(a.clone(), v.clone()));
                } else {
                    new_conjuncts.push(conjunct.clone());
                }
            }
            Conjunct::ConstEq(a, expected) => {
                if a.relation == relation {
                    let v = tuple_value(tuple, schema, &a.attribute)?;
                    if v != expected {
                        return Ok(RewriteResult::Mismatch);
                    }
                    // Satisfied: drop the conjunct.
                } else {
                    new_conjuncts.push(conjunct.clone());
                }
            }
        }
    }

    // Resolve SELECT items that refer to the incoming relation.
    let new_select = resolve_select_items(query.select(), tuple, schema)?;

    // Drop the relation from the FROM list.
    let new_relations: Vec<Name> =
        query.relations().iter().filter(|r| r.as_str() != relation).cloned().collect();

    let rewritten = JoinQuery::from_parts_unchecked(
        query.distinct(),
        new_select,
        new_relations,
        new_conjuncts,
        *query.window(),
    );

    if rewritten.is_complete() {
        match rewritten.answer_row() {
            Some(row) => Ok(RewriteResult::Complete(row)),
            // Complete WHERE clause but unresolved SELECT items: the query
            // selects an attribute of a relation that is no longer (or was
            // never) in FROM, so it can never produce its answer row. The
            // constructor prevents this; only unchecked construction can
            // reach it. Returning `Partial` here would store an empty-FROM
            // query forever — report the caller bug instead.
            None => {
                let attr = rewritten
                    .select()
                    .iter()
                    .find_map(|item| match item {
                        SelectItem::Attr(a) => Some(a.clone()),
                        SelectItem::Const(_) => None,
                    })
                    .expect("answer_row is None only when an Attr item remains");
                Err(QueryError::UnresolvedSelect { attr })
            }
        }
    } else if rewritten.relations().is_empty() {
        // Conjuncts survived the rewrite but no relation remains to resolve
        // them: the source query carried residue over a relation absent from
        // its FROM list (orphaned residue from unchecked construction). Such
        // a query can never complete; reject it instead of storing it.
        let attr = rewritten.conjuncts()[0].attrs()[0].clone();
        Err(QueryError::UnknownQueryRelation { attr })
    } else {
        Ok(RewriteResult::Partial(rewritten))
    }
}

/// Resolves every `SELECT` item referring to the tuple's relation to the
/// constant carried by the tuple, leaving all other items untouched (the
/// `SELECT`-resolution half of [`rewrite`]).
fn resolve_select_items(
    items: &[SelectItem],
    tuple: &Tuple,
    schema: &Schema,
) -> Result<Vec<SelectItem>, QueryError> {
    let relation = tuple.relation();
    let mut resolved = Vec::with_capacity(items.len());
    for item in items {
        match item {
            SelectItem::Attr(a) if a.relation == relation => {
                let v = tuple_value(tuple, schema, &a.attribute)?;
                resolved.push(SelectItem::Const(v.clone()));
            }
            other => resolved.push(other.clone()),
        }
    }
    Ok(resolved)
}

/// Projects a `SELECT` list straight into its answer row from the tuples
/// that completed the `WHERE` clause: every attribute item takes its value
/// from the tuple of its relation (a `FROM` list names each relation once),
/// constants pass through.
///
/// This is what shared sub-join evaluation runs per subscriber when a shared
/// `WHERE` clause completes: the subscriber's `SELECT` list is never
/// rewritten step by step, only projected once from the combination's
/// tuples. Equals the row [`rewrite`] would have reached by resolving the
/// same list with the same tuples one at a time.
pub fn project_select<'t>(
    items: &[SelectItem],
    tuples: impl Iterator<Item = &'t Tuple> + Clone,
    catalog: &Catalog,
) -> Result<Vec<Value>, QueryError> {
    // Sized exactly: answer rows are kept for as long as their log is.
    let mut row = Vec::with_capacity(items.len());
    for item in items {
        row.push(match item {
            SelectItem::Const(v) => v.clone(),
            SelectItem::Attr(a) => {
                let unresolved = || QueryError::UnresolvedSelect { attr: a.clone() };
                let tuple =
                    tuples.clone().find(|t| t.relation() == a.relation).ok_or_else(unresolved)?;
                let schema = catalog.schema(tuple.relation()).ok_or_else(unresolved)?;
                tuple_value(tuple, schema, &a.attribute)?.clone()
            }
        });
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use rjoin_relation::Schema;

    fn schema(rel: &str) -> Schema {
        Schema::new(rel, ["A", "B", "C"]).unwrap()
    }

    fn tuple(rel: &str, values: [i64; 3]) -> Tuple {
        Tuple::new(rel, values.iter().map(|v| Value::from(*v)).collect(), 0)
    }

    /// Reproduces the running example of Figure 1 in the paper end to end.
    #[test]
    fn figure_one_example() {
        let q = parse_query(
            "SELECT S.B, M.A FROM R, S, J, M WHERE R.A = S.A AND S.B = J.B AND J.C = M.C",
        )
        .unwrap();

        // Event 2: tuple t1 = (2,5,8) of R.
        let q1 = match rewrite(&q, &tuple("R", [2, 5, 8]), &schema("R")).unwrap() {
            RewriteResult::Partial(q1) => q1,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(q1.join_count(), 2);
        assert!(q1.conjuncts().contains(&Conjunct::ConstEq(
            crate::ast::QualifiedAttr::new("S", "A"),
            Value::from(2)
        )));
        assert!(!q1.references_relation("R"));

        // Event 3: tuple t2 = (2,6,3) of S.
        let q2 = match rewrite(&q1, &tuple("S", [2, 6, 3]), &schema("S")).unwrap() {
            RewriteResult::Partial(q2) => q2,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(q2.join_count(), 1);
        assert_eq!(q2.select()[0], SelectItem::Const(Value::from(6)));

        // Event 5 (first half): tuple t4 = (7,6,2) of J.
        let q3 = match rewrite(&q2, &tuple("J", [7, 6, 2]), &schema("J")).unwrap() {
            RewriteResult::Partial(q3) => q3,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(q3.join_count(), 0);
        assert_eq!(q3.relations(), &["M".to_string()]);

        // Event 5 (second half): stored tuple t3 = (9,1,2) of M completes it.
        match rewrite(&q3, &tuple("M", [9, 1, 2]), &schema("M")).unwrap() {
            RewriteResult::Complete(row) => {
                assert_eq!(row, vec![Value::from(6), Value::from(9)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn const_mismatch_is_detected() {
        let q = parse_query("SELECT S.B FROM S WHERE S.A = 2").unwrap();
        // S.A = 3 does not satisfy S.A = 2.
        let r = rewrite(&q, &tuple("S", [3, 6, 3]), &schema("S")).unwrap();
        assert!(r.is_mismatch());
        // S.A = 2 does.
        let r = rewrite(&q, &tuple("S", [2, 6, 3]), &schema("S")).unwrap();
        assert_eq!(r, RewriteResult::Complete(vec![Value::from(6)]));
    }

    #[test]
    fn irrelevant_tuple_is_an_error() {
        let q = parse_query("SELECT S.B FROM S WHERE S.A = 2").unwrap();
        let err = rewrite(&q, &tuple("Z", [1, 2, 3]), &schema("Z")).unwrap_err();
        assert!(matches!(err, QueryError::IrrelevantTuple { .. }));
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let q = parse_query("SELECT S.B FROM S WHERE S.A = 2").unwrap();
        let err = rewrite(&q, &tuple("S", [2, 6, 3]), &schema("R")).unwrap_err();
        assert!(matches!(err, QueryError::SchemaMismatch { .. }));
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let q = parse_query("SELECT S.Z FROM S, R WHERE S.Z = R.A").unwrap();
        let err = rewrite(&q, &tuple("S", [2, 6, 3]), &schema("S")).unwrap_err();
        assert!(matches!(err, QueryError::UnknownAttribute { .. }));
    }

    #[test]
    fn multiple_joins_on_same_relation_all_rewritten() {
        // R joins with both S and P; one tuple of R resolves both sides.
        let q = parse_query("SELECT R.A FROM R, S, P WHERE R.A = S.A AND R.B = P.B").unwrap();
        let q1 = match rewrite(&q, &tuple("R", [1, 2, 3]), &schema("R")).unwrap() {
            RewriteResult::Partial(q1) => q1,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(q1.join_count(), 0);
        assert_eq!(q1.conjuncts().len(), 2);
        assert!(q1.conjuncts().iter().all(|c| matches!(c, Conjunct::ConstEq(_, _))));
    }

    #[test]
    fn rewriting_preserves_distinct_and_window() {
        let q =
            parse_query("SELECT DISTINCT R.A FROM R, S WHERE R.A = S.A WINDOW SLIDING 100 TUPLES")
                .unwrap();
        let q1 = match rewrite(&q, &tuple("R", [1, 2, 3]), &schema("R")).unwrap() {
            RewriteResult::Partial(q1) => q1,
            other => panic!("unexpected {other:?}"),
        };
        assert!(q1.distinct());
        assert_eq!(q1.window(), q.window());
    }

    /// Regression: a conjunct with *both* sides in the incoming tuple's
    /// relation (`R.A = R.B`) used to fire only the `a` branch, leaving a
    /// `ConstEq` over the relation being dropped from `FROM` — residue that
    /// could never be evaluated. Such conjuncts are rejected by
    /// `JoinQuery::new`, but unchecked construction (deserialization, the
    /// rewriting engine itself) can carry them, and `rewrite` must evaluate
    /// them immediately.
    #[test]
    fn self_join_conjunct_satisfied_by_tuple_is_dropped() {
        let q = JoinQuery::from_parts_unchecked(
            false,
            vec![SelectItem::Attr(crate::ast::QualifiedAttr::new("S", "B"))],
            vec!["R".into(), "S".into()],
            vec![
                Conjunct::JoinEq(
                    crate::ast::QualifiedAttr::new("R", "A"),
                    crate::ast::QualifiedAttr::new("R", "B"),
                ),
                Conjunct::JoinEq(
                    crate::ast::QualifiedAttr::new("R", "C"),
                    crate::ast::QualifiedAttr::new("S", "C"),
                ),
            ],
            crate::WindowSpec::None,
        );
        // R.A == R.B holds (7 == 7): the self-join conjunct is consumed, and
        // the surviving conjunct mentions only S — no dangling residue.
        let q1 = match rewrite(&q, &tuple("R", [7, 7, 3]), &schema("R")).unwrap() {
            RewriteResult::Partial(q1) => q1,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(q1.relations(), &["S".to_string()]);
        assert!(
            q1.conjuncts().iter().all(|c| !c.mentions("R")),
            "no conjunct may reference the dropped relation: {q1}"
        );
        assert_eq!(q1.conjuncts().len(), 1);
    }

    #[test]
    fn self_join_conjunct_violated_by_tuple_is_a_mismatch() {
        let q = JoinQuery::from_parts_unchecked(
            false,
            vec![SelectItem::Attr(crate::ast::QualifiedAttr::new("S", "B"))],
            vec!["R".into(), "S".into()],
            vec![
                Conjunct::JoinEq(
                    crate::ast::QualifiedAttr::new("R", "A"),
                    crate::ast::QualifiedAttr::new("R", "B"),
                ),
                Conjunct::JoinEq(
                    crate::ast::QualifiedAttr::new("R", "C"),
                    crate::ast::QualifiedAttr::new("S", "C"),
                ),
            ],
            crate::WindowSpec::None,
        );
        // R.A != R.B (7 vs 8): the tuple cannot satisfy the query at all.
        let r = rewrite(&q, &tuple("R", [7, 8, 3]), &schema("R")).unwrap();
        assert!(r.is_mismatch());
    }

    #[test]
    fn resolve_select_items_only_touches_the_tuple_relation() {
        let items = vec![
            SelectItem::Attr(crate::ast::QualifiedAttr::new("R", "B")),
            SelectItem::Attr(crate::ast::QualifiedAttr::new("S", "A")),
            SelectItem::Const(Value::from(42)),
        ];
        let resolved = resolve_select_items(&items, &tuple("R", [1, 2, 3]), &schema("R")).unwrap();
        assert_eq!(
            resolved,
            vec![
                SelectItem::Const(Value::from(2)),
                SelectItem::Attr(crate::ast::QualifiedAttr::new("S", "A")),
                SelectItem::Const(Value::from(42)),
            ]
        );
    }

    #[test]
    fn project_select_reaches_the_row_of_the_stepwise_rewrite() {
        let mut catalog = Catalog::new();
        for rel in ["R", "S", "M"] {
            catalog.register(schema(rel)).unwrap();
        }
        let q =
            parse_query("SELECT S.B, M.A, R.C FROM R, S, M WHERE R.A = S.A AND S.B = M.B").unwrap();
        let tuples = [tuple("R", [2, 5, 8]), tuple("S", [2, 6, 3]), tuple("M", [7, 6, 1])];
        let mut stepwise = q.clone();
        let mut row = None;
        for t in &tuples {
            match rewrite(&stepwise, t, &schema(t.relation())).unwrap() {
                RewriteResult::Partial(next) => stepwise = next,
                RewriteResult::Complete(done) => row = Some(done),
                RewriteResult::Mismatch => panic!("the combination joins"),
            }
        }
        assert_eq!(project_select(q.select(), tuples.iter(), &catalog).unwrap(), row.unwrap());
        // A partly resolved list projects from the tuples it still needs.
        let partly = [SelectItem::Const(Value::from(6)), q.select()[1].clone()];
        assert_eq!(
            project_select(&partly, tuples[2..].iter(), &catalog).unwrap(),
            vec![Value::from(6), Value::from(7)]
        );
        // A relation that no tuple covers is an unresolved item, not a panic.
        assert_eq!(
            project_select(q.select(), tuples[..1].iter(), &catalog).unwrap_err(),
            QueryError::UnresolvedSelect { attr: crate::ast::QualifiedAttr::new("S", "B") }
        );
    }

    /// Regression: a bad attribute name and an arity-short tuple used to
    /// both map to `UnknownAttribute`. They are different bugs (schema typo
    /// vs malformed tuple) and must stay distinguishable.
    #[test]
    fn short_tuple_is_an_arity_mismatch_not_unknown_attribute() {
        let q = parse_query("SELECT S.B FROM S, R WHERE S.C = R.A").unwrap();
        // `S.C` exists in the schema, but the tuple only carries two values.
        let short = Tuple::new("S", vec![Value::from(1), Value::from(2)], 0);
        let err = rewrite(&q, &short, &schema("S")).unwrap_err();
        assert_eq!(
            err,
            QueryError::ArityMismatch {
                attr: crate::ast::QualifiedAttr::new("S", "C"),
                index: 2,
                arity: 2,
            }
        );
    }

    /// Regression: a complete WHERE clause with unresolved SELECT items used
    /// to come back as `Partial` — an empty-FROM query that can never finish
    /// and would be stored forever. It is a caller bug and must be an error.
    #[test]
    fn complete_where_with_unresolved_select_is_an_error() {
        // Only unchecked construction can produce a SELECT over a relation
        // absent from FROM.
        let q = JoinQuery::from_parts_unchecked(
            false,
            vec![SelectItem::Attr(crate::ast::QualifiedAttr::new("S", "B"))],
            vec!["R".into()],
            vec![],
            crate::WindowSpec::None,
        );
        let err = rewrite(&q, &tuple("R", [1, 2, 3]), &schema("R")).unwrap_err();
        assert_eq!(
            err,
            QueryError::UnresolvedSelect { attr: crate::ast::QualifiedAttr::new("S", "B") }
        );
    }

    /// Orphaned residue: a conjunct over a relation absent from FROM can
    /// never be resolved once the FROM list empties. `rewrite` must reject
    /// it rather than emit an empty-FROM partial query.
    #[test]
    fn orphaned_residue_with_empty_from_is_an_error() {
        let q = JoinQuery::from_parts_unchecked(
            false,
            vec![SelectItem::Const(Value::from(1))],
            vec!["R".into()],
            vec![Conjunct::ConstEq(crate::ast::QualifiedAttr::new("Z", "A"), Value::from(5))],
            crate::WindowSpec::None,
        );
        let err = rewrite(&q, &tuple("R", [1, 2, 3]), &schema("R")).unwrap_err();
        assert_eq!(
            err,
            QueryError::UnknownQueryRelation { attr: crate::ast::QualifiedAttr::new("Z", "A") }
        );
    }

    #[test]
    fn string_values_flow_through() {
        let q = parse_query("SELECT S.B FROM S WHERE S.A = 'abc'").unwrap();
        let t = Tuple::new("S", vec![Value::from("abc"), Value::from("out"), Value::from(0)], 0);
        match rewrite(&q, &t, &schema("S")).unwrap() {
            RewriteResult::Complete(row) => assert_eq!(row, vec![Value::from("out")]),
            other => panic!("unexpected {other:?}"),
        }
    }
}
