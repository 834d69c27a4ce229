//! What the engine-level suites share: the shard counts a run exercises, the
//! drain, and the centralized brute-force evaluator every suite checks the
//! engine's answers against.

// Each suite compiles its own copy of this module and uses part of it.
#![allow(dead_code)]

use rjoin_core::RJoinEngine;
use rjoin_query::{Conjunct, JoinQuery, QualifiedAttr, SelectItem};
use rjoin_relation::{Catalog, Timestamp, Tuple, Value};

/// Shard counts to exercise: every count runs the same rounds, so one and
/// four cover the single range and shards exchanging cross-shard messages.
pub fn shard_counts() -> [usize; 2] {
    [1, 4]
}

/// Drains `engine` with its rounds spread over the worker pool.
pub fn drain(engine: &mut RJoinEngine) -> u64 {
    engine.run_until_quiescent_parallel().unwrap()
}

/// `rows` in sorted order, so answer bags compare as multisets.
pub fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// Brute-force centralized evaluation — Definition 1 of the paper plus the
/// Section 5 window test applied to the whole combination: every
/// combination of one tuple per `FROM` relation, each published at or
/// after `insert_time`, whose publication span fits the query's window
/// (`WindowSpec::None` admits any span) and which satisfies every conjunct,
/// projected on `SELECT`. Shape-agnostic — no join order, no index — so it
/// covers cyclic `WHERE` clauses the rewrite pipeline cannot run.
pub fn oracle_answers(
    catalog: &Catalog,
    query: &JoinQuery,
    insert_time: Timestamp,
    tuples: &[Tuple],
) -> Vec<Vec<Value>> {
    fn value<'a>(catalog: &Catalog, combo: &[&'a Tuple], attr: &QualifiedAttr) -> &'a Value {
        let tuple = combo.iter().find(|t| t.relation() == attr.relation.as_str()).unwrap();
        let schema = catalog.schema(&attr.relation).unwrap();
        tuple.value(schema.index_of(&attr.attribute).unwrap()).unwrap()
    }
    fn extend<'a>(
        catalog: &Catalog,
        query: &JoinQuery,
        candidates: &[Vec<&'a Tuple>],
        combo: &mut Vec<&'a Tuple>,
        out: &mut Vec<Vec<Value>>,
    ) {
        if let Some(next) = candidates.get(combo.len()) {
            for tuple in next {
                combo.push(tuple);
                extend(catalog, query, candidates, combo, out);
                combo.pop();
            }
            return;
        }
        let earliest = combo.iter().map(|t| t.pub_time()).min().unwrap();
        let latest = combo.iter().map(|t| t.pub_time()).max().unwrap();
        let joins = query.conjuncts().iter().all(|conjunct| match conjunct {
            Conjunct::JoinEq(a, b) => value(catalog, combo, a) == value(catalog, combo, b),
            Conjunct::ConstEq(a, v) => value(catalog, combo, a) == v,
        });
        if joins && query.window().within(earliest, latest) {
            out.push(
                query
                    .select()
                    .iter()
                    .map(|item| match item {
                        SelectItem::Const(v) => v.clone(),
                        SelectItem::Attr(a) => value(catalog, combo, a).clone(),
                    })
                    .collect(),
            );
        }
    }
    let candidates: Vec<Vec<&Tuple>> = query
        .relations()
        .iter()
        .map(|r| {
            tuples
                .iter()
                .filter(|t| t.relation() == r.as_str() && t.pub_time() >= insert_time)
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    extend(catalog, query, &candidates, &mut Vec::new(), &mut out);
    out
}

/// Asserts that `delivered` is a sub-bag of `expected`: every delivered row
/// consumes one expected row, so no answer is unsound and none is
/// delivered more often than the oracle derives it. The check for
/// configurations under which the protocol is sound but not complete.
pub fn assert_sub_bag(expected: Vec<Vec<Value>>, delivered: Vec<Vec<Value>>, what: &str) {
    let mut expected = sorted(expected);
    for row in sorted(delivered) {
        let pos = expected
            .iter()
            .position(|e| *e == row)
            .unwrap_or_else(|| panic!("{what}: unsound or duplicate answer {row:?}"));
        expected.remove(pos);
    }
}
