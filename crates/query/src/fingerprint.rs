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

use crate::ast::{Conjunct, JoinQuery, QualifiedAttr};
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

fn push_attr(out: &mut String, attr: &QualifiedAttr) {
    out.push_str(&attr.relation);
    out.push('.');
    out.push_str(&attr.attribute);
}

fn push_conjunct(out: &mut String, c: &Conjunct) {
    match c {
        Conjunct::JoinEq(a, b) => {
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
        Conjunct::ConstEq(a, v) => {
            out.push_str("c:");
            push_attr(out, a);
            out.push('=');
            v.write_key_fragment(out);
        }
    }
}

/// Appends the canonical signature to `out`. Per-conjunct strings are
/// rendered into a per-thread scratch pool (fingerprints are computed at
/// every stored-entry first trigger, so the assembly must not allocate on
/// repeat calls) and the pool entries are emitted in sorted order.
fn write_signature(query: &JoinQuery, out: &mut String) {
    use std::cell::RefCell;
    use std::fmt::Write;
    thread_local! {
        static CONJ_POOL: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    }

    out.push_str(if query.distinct() { "D|" } else { "B|" });

    let mut relations: Vec<&str> = query.relations().iter().map(|r| r.as_str()).collect();
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
        let n = query.conjuncts().len();
        if pool.len() < n {
            pool.resize_with(n, String::new);
        }
        for (buf, c) in pool.iter_mut().zip(query.conjuncts()) {
            buf.clear();
            push_conjunct(buf, c);
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
    write_signature(query, &mut out);
    out
}

/// Whether two queries have byte-identical canonical signatures — the
/// structural confirmation behind a fingerprint match. Equivalent to
/// `subjoin_signature(a) == subjoin_signature(b)` but renders both sides
/// into per-thread scratch buffers, so the comparison does not allocate
/// after warm-up (it runs on every candidate sharing merge).
pub fn subjoin_signature_eq(a: &JoinQuery, b: &JoinQuery) -> bool {
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

/// A digest of a query's sub-join **shape**: `FROM`, window, semantics flag
/// and the `WHERE` conjuncts in source order with every constant erased —
/// exactly what [`SubJoinProgram::matches_source`] compares, which makes it
/// the key compiled programs are cached under. Unlike [`fingerprint`] it is
/// order-sensitive (a program's slots are positional) and value-blind (all
/// rewritten queries that bound the same relations in the same order share
/// one program), and it never renders the query to text.
///
/// [`SubJoinProgram::matches_source`]: crate::SubJoinProgram::matches_source
pub fn shape_fingerprint(query: &JoinQuery) -> Fingerprint {
    use std::hash::{Hash, Hasher};
    let mut hasher = Fnv::default();
    query.distinct().hash(&mut hasher);
    query.window().hash(&mut hasher);
    query.relations().hash(&mut hasher);
    for conjunct in query.conjuncts() {
        match conjunct {
            Conjunct::JoinEq(a, b) => (a, b).hash(&mut hasher),
            Conjunct::ConstEq(a, _) => a.hash(&mut hasher),
        }
    }
    Fingerprint(hasher.finish())
}

/// Computes the sub-join [`Fingerprint`] of a query: an FNV-1a 64-bit hash
/// of [`subjoin_signature`]. Deterministic across processes and runs (no
/// per-process hasher randomness), so fingerprints can travel in messages
/// and be compared across nodes. The signature is assembled in a per-thread
/// scratch buffer, so computing a fingerprint does not allocate after
/// warm-up.
pub fn fingerprint(query: &JoinQuery) -> Fingerprint {
    use std::cell::RefCell;
    thread_local! {
        static SIG_BUF: RefCell<String> = const { RefCell::new(String::new()) };
    }
    SIG_BUF.with(|buf| {
        use std::hash::Hasher;
        let mut buf = buf.borrow_mut();
        buf.clear();
        write_signature(query, &mut buf);
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

    #[test]
    fn shape_fingerprint_erases_constants_but_not_structure() {
        let a = parse_query("SELECT R.A FROM R, S WHERE R.A = S.B AND S.C = 5").unwrap();
        let other_constant = parse_query("SELECT S.B FROM R, S WHERE R.A = S.B AND S.C = 'x'");
        assert_eq!(shape_fingerprint(&a), shape_fingerprint(&other_constant.unwrap()));
        for different in [
            "SELECT R.A FROM R, S WHERE S.C = 5 AND R.A = S.B",
            "SELECT R.A FROM R, S WHERE R.A = S.B AND S.B = 5",
            "SELECT R.A FROM R, S WHERE R.A = S.B AND R.C = S.C",
            "SELECT R.A FROM S, R WHERE R.A = S.B AND S.C = 5",
            "SELECT DISTINCT R.A FROM R, S WHERE R.A = S.B AND S.C = 5",
            "SELECT R.A FROM R, S WHERE R.A = S.B AND S.C = 5 WINDOW SLIDING 10 TUPLES",
        ] {
            assert_ne!(shape_fingerprint(&a), shape_fingerprint(&parse_query(different).unwrap()));
        }
    }

    #[test]
    fn signature_shape_is_documented() {
        let q = parse_query("SELECT R.A FROM S, R WHERE S.B = R.A").unwrap();
        assert_eq!(subjoin_signature(&q), "B|R,S|j:R.A=S.B|WINDOW NONE");
    }
}
