//! Canonical sub-join fingerprints for shared evaluation.
//!
//! Multi-query optimization in the style of Dossinger & Michel ("Optimizing
//! Multiple Multi-Way Stream Joins") shares the evaluation of structurally
//! identical sub-joins across queries. Two (possibly rewritten) queries can
//! share evaluation when they agree on everything that drives the rewriting
//! process — the `FROM` list, the `WHERE` conjuncts, the window declaration
//! and the bag/set semantics flag — regardless of what each of them
//! `SELECT`s: the `SELECT` list only determines the final projection, which
//! each subscriber resolves for itself.
//!
//! [`fingerprint`] therefore hashes a *canonical* form of the query that
//!
//! * sorts the `FROM` relations,
//! * normalizes each conjunct (the two sides of an equi-join predicate are
//!   ordered lexicographically) and sorts the conjunct list,
//! * includes the window declaration and the `DISTINCT` flag,
//! * **abstracts the `SELECT` list away entirely**,
//!
//! so that identical sub-joins produced by different input queries — or by
//! the same rewriting step applied to equivalent queries on different nodes —
//! collide on the same 64-bit fingerprint. The canonical string itself is
//! available via [`subjoin_signature`] for diagnostics and tests.

use crate::ast::{ConjunctRef, JoinQuery, QualifiedAttr};
use crate::join_plan::{Bindings, RewritePlan};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 64-bit digest of a query's sub-join structure (everything except the
/// `SELECT` list). Equal fingerprints are a fast *candidate* test for
/// sharing; callers must confirm with a structural comparison before merging
/// (hash collisions, while astronomically unlikely, must not corrupt
/// answers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A sub-join whose signature is wanted: a query as written, or a rewritten
/// query seen as its input query's plan plus the tuples bound so far (never
/// built as a [`JoinQuery`]). Both render the same signature when they
/// denote the same rewritten query.
#[derive(Debug, Clone, Copy)]
pub enum SubJoin<'a> {
    /// A query as written.
    Query(&'a JoinQuery),
    /// The rewritten query `bindings` make of the plan's input query.
    Bound(&'a RewritePlan, &'a Bindings),
}

fn push_attr(out: &mut String, attr: &QualifiedAttr) {
    out.push_str(&attr.relation);
    out.push('.');
    out.push_str(&attr.attribute);
}

fn push_conjunct(out: &mut String, c: ConjunctRef<'_>) {
    match c {
        ConjunctRef::Join(a, b) => {
            let (first, second) = if (&a.relation, &a.attribute) <= (&b.relation, &b.attribute) {
                (a, b)
            } else {
                (b, a)
            };
            out.push_str("j:");
            push_attr(out, first);
            out.push('=');
            push_attr(out, second);
        }
        ConjunctRef::Const(a, v) => {
            out.push_str("c:");
            push_attr(out, a);
            out.push('=');
            v.write_key_fragment(out);
        }
    }
}

/// Appends the canonical signature to `out`. Per-conjunct strings are
/// rendered into a per-thread scratch pool (fingerprints are computed at
/// every shared store, so the assembly must not allocate on repeat calls)
/// and the pool entries are emitted in sorted order.
fn write_signature(sub: SubJoin<'_>, out: &mut String) {
    match sub {
        SubJoin::Query(query) => write_parts(
            out,
            query,
            query.relations().iter().map(|r| r.as_str()),
            query.conjuncts().iter().map(ConjunctRef::from),
        ),
        SubJoin::Bound(plan, bound) => write_parts(
            out,
            plan.query(),
            plan.unbound_relations(bound.mask()).map(|r| r.as_str()),
            plan.conjuncts(bound),
        ),
    }
}

/// [`write_signature`] over the parts of a sub-join: `query` supplies the
/// semantics flag and the window.
fn write_parts<'a>(
    out: &mut String,
    query: &JoinQuery,
    relations: impl Iterator<Item = &'a str>,
    conjuncts: impl Iterator<Item = ConjunctRef<'a>>,
) {
    use std::cell::RefCell;
    use std::fmt::Write;
    thread_local! {
        static CONJ_POOL: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    }

    out.push_str(if query.distinct() { "D|" } else { "B|" });

    let mut relations: Vec<&str> = relations.collect();
    relations.sort_unstable();
    for (i, r) in relations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r);
    }
    out.push('|');

    CONJ_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        let mut n = 0;
        for c in conjuncts {
            if pool.len() == n {
                pool.push(String::new());
            }
            pool[n].clear();
            push_conjunct(&mut pool[n], c);
            n += 1;
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| pool[a].cmp(&pool[b]));
        for (i, &c) in order.iter().enumerate() {
            if i > 0 {
                out.push('&');
            }
            out.push_str(&pool[c]);
        }
    });
    out.push('|');
    let _ = write!(out, "{}", query.window());
}

/// The canonical string form of a query's sub-join structure. Stable across
/// conjunct order, join-side order and `SELECT` list differences.
pub fn subjoin_signature(query: &JoinQuery) -> String {
    let mut out = String::with_capacity(64);
    write_signature(SubJoin::Query(query), &mut out);
    out
}

/// Whether two sub-joins have byte-identical canonical signatures — the
/// structural confirmation behind a fingerprint match. Equivalent to
/// comparing their [`subjoin_signature`]s but renders both sides into
/// per-thread scratch buffers, so the comparison does not allocate after
/// warm-up (it runs on every candidate sharing merge).
pub fn subjoin_eq(a: SubJoin<'_>, b: SubJoin<'_>) -> bool {
    use std::cell::RefCell;
    thread_local! {
        static EQ_BUFS: RefCell<(String, String)> =
            const { RefCell::new((String::new(), String::new())) };
    }
    EQ_BUFS.with(|bufs| {
        let mut bufs = bufs.borrow_mut();
        let (left, right) = &mut *bufs;
        left.clear();
        right.clear();
        write_signature(a, left);
        write_signature(b, right);
        left == right
    })
}

/// FNV-1a over whatever is written to it; no per-process randomness.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Computes the sub-join [`Fingerprint`] of a query: an FNV-1a 64-bit hash
/// of [`subjoin_signature`]. Deterministic across processes and runs (no
/// per-process hasher randomness), so fingerprints can travel in messages
/// and be compared across nodes.
pub fn fingerprint(query: &JoinQuery) -> Fingerprint {
    subjoin_fingerprint(SubJoin::Query(query))
}

/// [`fingerprint`] of any [`SubJoin`]: a bound rewritten query hashes like
/// the [`JoinQuery`] it denotes. The signature is assembled in a per-thread
/// scratch buffer, so computing a fingerprint does not allocate after
/// warm-up.
pub fn subjoin_fingerprint(sub: SubJoin<'_>) -> Fingerprint {
    use std::cell::RefCell;
    thread_local! {
        static SIG_BUF: RefCell<String> = const { RefCell::new(String::new()) };
    }
    SIG_BUF.with(|buf| {
        use std::hash::Hasher;
        let mut buf = buf.borrow_mut();
        buf.clear();
        write_signature(sub, &mut buf);
        let mut hasher = Fnv::default();
        hasher.write(buf.as_bytes());
        Fingerprint(hasher.finish())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    #[test]
    fn select_list_is_abstracted() {
        let a = parse_query("SELECT R.A FROM R, S WHERE R.A = S.B").unwrap();
        let b = parse_query("SELECT S.B, R.C FROM R, S WHERE R.A = S.B").unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(subjoin_signature(&a), subjoin_signature(&b));
    }

    #[test]
    fn conjunct_and_side_order_are_normalized() {
        let a = parse_query("SELECT R.A FROM R, S, P WHERE R.A = S.B AND S.C = P.C").unwrap();
        let b = parse_query("SELECT R.A FROM P, S, R WHERE P.C = S.C AND S.B = R.A").unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn different_conjuncts_do_not_collide() {
        let a = parse_query("SELECT R.A FROM R, S WHERE R.A = S.B").unwrap();
        let b = parse_query("SELECT R.A FROM R, S WHERE R.A = S.C").unwrap();
        let c = parse_query("SELECT R.A FROM R, S WHERE R.A = S.B AND R.C = 7").unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn window_and_distinct_are_part_of_the_fingerprint() {
        let plain = parse_query("SELECT R.A FROM R, S WHERE R.A = S.B").unwrap();
        let windowed =
            parse_query("SELECT R.A FROM R, S WHERE R.A = S.B WINDOW SLIDING 10 TUPLES").unwrap();
        let distinct = parse_query("SELECT DISTINCT R.A FROM R, S WHERE R.A = S.B").unwrap();
        assert_ne!(fingerprint(&plain), fingerprint(&windowed));
        assert_ne!(fingerprint(&plain), fingerprint(&distinct));
    }

    #[test]
    fn const_values_distinguish_type_and_value() {
        let a = parse_query("SELECT R.A FROM R WHERE R.A = 5").unwrap();
        let b = parse_query("SELECT R.A FROM R WHERE R.A = '5'").unwrap();
        let c = parse_query("SELECT R.A FROM R WHERE R.A = 6").unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    /// What the shape fingerprint keyed — a rewritten query's structure
    /// with its constants erased — is now the bound mask of its input
    /// query's plan: one memo entry serves every binding of a mask, whatever
    /// the bound values, and a bound query's signature is the one of the
    /// query it denotes.
    #[test]
    fn shape_fingerprint_erases_constants_but_not_structure() {
        use crate::{Bindings, RewritePlan};
        use rjoin_relation::{Catalog, Schema, Tuple, Value};
        use std::sync::Arc;
        let mut catalog = Catalog::new();
        for rel in ["R", "S", "T"] {
            catalog.register(Schema::new(rel, ["A", "B", "C"]).unwrap()).unwrap();
        }
        let q = parse_query("SELECT T.A FROM R, S, T WHERE R.A = S.B AND S.C = T.C AND S.A = 5");
        let plan = RewritePlan::new(Arc::new(q.unwrap()), &catalog).unwrap();
        let r = |a: i64| Arc::new(Tuple::new("R", vec![Value::from(a); 3], 0));
        let (one, two) = (Bindings::default().with(0, &r(1)), Bindings::default().with(0, &r(2)));
        let keys = plan.keys(1);
        assert!(std::ptr::eq(keys.as_ptr(), plan.keys(1).as_ptr()), "memoised per mask");
        assert_ne!(
            keys.iter().map(|k| k.index_key(&plan, &one)).collect::<Vec<_>>(),
            keys.iter().map(|k| k.index_key(&plan, &two)).collect::<Vec<_>>(),
            "the bound values fill in"
        );
        assert_ne!(plan.keys(1).to_vec(), plan.keys(2).to_vec(), "another mask, another shape");
        for bound in [&one, &two] {
            let built = plan.materialize(bound);
            assert_eq!(subjoin_fingerprint(SubJoin::Bound(&plan, bound)), fingerprint(&built));
            assert!(subjoin_eq(SubJoin::Bound(&plan, bound), SubJoin::Query(&built)));
        }
        assert!(!subjoin_eq(SubJoin::Bound(&plan, &one), SubJoin::Bound(&plan, &two)));
    }

    #[test]
    fn signature_shape_is_documented() {
        let q = parse_query("SELECT R.A FROM S, R WHERE S.B = R.A").unwrap();
        assert_eq!(subjoin_signature(&q), "B|R,S|j:R.A=S.B|WINDOW NONE");
    }
}
