//! Derivation of DHT index keys for queries and tuples.
//!
//! RJoin indexes items (queries and tuples) under string keys that are then
//! hashed onto the identifier ring:
//!
//! * **attribute level** — `RelationName + AttributeName`,
//! * **value level** — `RelationName + AttributeName + Value`.
//!
//! A tuple is indexed *twice per attribute* (once at each level,
//! Procedure 1). A query is indexed under one key chosen among its
//! *candidate keys* (Section 6): all relation-attribute pairs of its join
//! conjuncts, all explicit relation-attribute-value selection triples, and
//! all triples *implied* by the `WHERE` clause.

use crate::ast::{Conjunct, JoinQuery, QualifiedAttr};
use rjoin_dht::HashedKey;
use rjoin_relation::{Name, Schema, Tuple, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether an item is indexed at the attribute level or at the value level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IndexLevel {
    /// Indexed under `Relation + Attribute`.
    Attribute,
    /// Indexed under `Relation + Attribute + Value`.
    Value,
}

/// A key under which a query or tuple is indexed in the DHT.
///
/// The name components are cheaply clonable [`Name`]s: candidate keys are
/// derived per dispatched query and per published tuple, so building one
/// from an AST node must not copy the underlying strings.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IndexKey {
    /// Attribute-level key.
    Attribute {
        /// Relation name.
        relation: Name,
        /// Attribute name.
        attribute: Name,
    },
    /// Value-level key.
    Value {
        /// Relation name.
        relation: Name,
        /// Attribute name.
        attribute: Name,
        /// Attribute value.
        value: Value,
    },
}

impl IndexKey {
    /// Attribute-level key constructor.
    pub fn attribute<R: Into<Name>, A: Into<Name>>(relation: R, attribute: A) -> Self {
        IndexKey::Attribute { relation: relation.into(), attribute: attribute.into() }
    }

    /// Value-level key constructor.
    pub fn value<R: Into<Name>, A: Into<Name>>(relation: R, attribute: A, value: Value) -> Self {
        IndexKey::Value { relation: relation.into(), attribute: attribute.into(), value }
    }

    /// The level of this key.
    pub fn level(&self) -> IndexLevel {
        match self {
            IndexKey::Attribute { .. } => IndexLevel::Attribute,
            IndexKey::Value { .. } => IndexLevel::Value,
        }
    }

    /// The relation this key refers to.
    pub fn relation(&self) -> &str {
        match self {
            IndexKey::Attribute { relation, .. } | IndexKey::Value { relation, .. } => relation,
        }
    }

    /// The attribute this key refers to.
    pub fn attribute_name(&self) -> &str {
        match self {
            IndexKey::Attribute { attribute, .. } | IndexKey::Value { attribute, .. } => attribute,
        }
    }

    /// The value component, for value-level keys.
    pub fn value_part(&self) -> Option<&Value> {
        match self {
            IndexKey::Attribute { .. } => None,
            IndexKey::Value { value, .. } => Some(value),
        }
    }

    /// Canonical string form of the key: the concatenation that is hashed
    /// onto the identifier ring. The `+` separator mirrors the notation of
    /// the paper (`Successor(Hash(R + A + '2'))`).
    pub fn to_key_string(&self) -> String {
        let mut out = String::new();
        self.write_key_string(&mut out);
        out
    }

    /// Appends the canonical string form to `out` (the allocation-free core
    /// of [`IndexKey::to_key_string`], reused by [`IndexKey::hashed`] with a
    /// per-thread scratch buffer).
    fn write_key_string(&self, out: &mut String) {
        write_key_text(out, self.relation(), self.attribute_name(), self.value_part());
    }

    /// The attribute-level key covering the same relation/attribute.
    pub fn to_attribute_level(&self) -> IndexKey {
        IndexKey::attribute(self.relation(), self.attribute_name())
    }

    /// Interns this key: derives the canonical string and hashes it onto the
    /// identifier ring exactly once. All hot-path consumers (messages, node
    /// state, load accounting) carry the returned [`HashedKey`] instead of
    /// re-deriving string + SHA-1 at every layer. The string is assembled in
    /// a per-thread scratch buffer and resolved through the
    /// [`HashedKey::intern`] memo, so repeat derivations of the same key
    /// cost a hash-map probe rather than an allocation plus a SHA-1 digest.
    pub fn hashed(&self) -> HashedKey {
        intern_with(|buf| self.write_key_string(buf))
    }
}

/// Appends the canonical text of the key `relation + attribute [+ value]`.
pub(crate) fn write_key_text(
    out: &mut String,
    relation: &str,
    attribute: &str,
    value: Option<&Value>,
) {
    out.push_str(relation);
    out.push('+');
    out.push_str(attribute);
    if let Some(value) = value {
        out.push('+');
        value.write_key_fragment(out);
    }
}

/// Interns the key text `write` assembles in the per-thread scratch buffer.
pub(crate) fn intern_with(write: impl FnOnce(&mut String)) -> HashedKey {
    use std::cell::RefCell;
    thread_local! {
        static KEY_BUF: RefCell<String> = const { RefCell::new(String::new()) };
    }
    KEY_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        write(&mut buf);
        HashedKey::intern(&buf)
    })
}

impl fmt::Display for IndexKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_key_string())
    }
}

/// The keys under which a tuple must be indexed (Procedure 1), one at a
/// time: for each attribute, one attribute-level key and then one
/// value-level key.
pub fn tuple_index_key_iter<'t>(
    tuple: &'t Tuple,
    schema: &'t Schema,
) -> impl Iterator<Item = IndexKey> + 't {
    tuple.values().iter().enumerate().flat_map(move |(i, value)| {
        let attribute = schema.attribute(i).unwrap_or("_unknown");
        [
            IndexKey::attribute(tuple.relation(), attribute),
            IndexKey::value(tuple.relation(), attribute, value.clone()),
        ]
    })
}

/// Computes the full set of keys under which a tuple must be indexed
/// ([`tuple_index_key_iter`], collected).
pub fn tuple_index_keys(tuple: &Tuple, schema: &Schema) -> Vec<IndexKey> {
    let mut keys = Vec::with_capacity(tuple.arity() * 2);
    keys.extend(tuple_index_key_iter(tuple, schema));
    keys
}

/// A tiny union-find over attribute references used to compute the equality
/// closure of a `WHERE` clause. Shared with the planner
/// ([`crate::plan::JoinGraph`]), which runs the same closure to derive the
/// join-graph vertices — one equivalence semantics for keys and plans.
///
/// Attribute references are borrowed from the query and resolved with a
/// linear probe: the attribute sets involved are tiny (a handful per query),
/// so a scan beats a map and the whole structure stays allocation-light on
/// the per-tuple dispatch path.
pub(crate) struct AttrUnionFind<'q> {
    parent: Vec<usize>,
    ids: Vec<&'q QualifiedAttr>,
}

impl<'q> AttrUnionFind<'q> {
    pub(crate) fn with_capacity(cap: usize) -> Self {
        AttrUnionFind { parent: Vec::with_capacity(cap), ids: Vec::with_capacity(cap) }
    }

    pub(crate) fn id(&mut self, attr: &'q QualifiedAttr) -> usize {
        if let Some(id) = self.ids.iter().position(|known| *known == attr) {
            return id;
        }
        let id = self.parent.len();
        self.parent.push(id);
        self.ids.push(attr);
        id
    }

    pub(crate) fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    pub(crate) fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    /// Number of distinct attribute references interned so far.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The attribute reference interned under `id`.
    pub(crate) fn attr(&self, id: usize) -> &'q QualifiedAttr {
        self.ids[id]
    }
}

/// Computes the candidate index keys of a query (input or rewritten), per
/// Section 6 of the paper:
///
/// 1. every relation-attribute pair that appears in a join conjunct,
/// 2. every relation-attribute-value triple appearing explicitly as a
///    selection conjunct,
/// 3. every relation-attribute-value triple *logically implied* by the
///    `WHERE` clause (via the transitive closure of the equalities).
///
/// The returned list is deduplicated and deterministic (sorted), with
/// value-level candidates listed after attribute-level ones for the same
/// relation/attribute.
pub fn candidate_keys(query: &JoinQuery) -> Vec<IndexKey> {
    keys_of(query.conjuncts())
}

pub(crate) fn keys_of(conjuncts: &[Conjunct]) -> Vec<IndexKey> {
    // Each conjunct mentions at most two attributes, which bounds the
    // distinct-attribute universe the union-find can see.
    let mut uf = AttrUnionFind::with_capacity(conjuncts.len() * 2);
    // Constants attached to equivalence classes (by member id, resolved to
    // representatives once all unions are in).
    let mut pending_consts: Vec<(usize, &Value)> = Vec::new();

    let mut keys: Vec<IndexKey> = Vec::new();
    for conjunct in conjuncts {
        match conjunct {
            Conjunct::JoinEq(a, b) => {
                keys.push(IndexKey::attribute(&a.relation, &a.attribute));
                keys.push(IndexKey::attribute(&b.relation, &b.attribute));
                let ia = uf.id(a);
                let ib = uf.id(b);
                uf.union(ia, ib);
            }
            Conjunct::ConstEq(a, v) => {
                let ia = uf.id(a);
                pending_consts.push((ia, v));
            }
        }
    }

    // Resolve constants to class representatives *after* all unions so the
    // closure covers chains like R.A = S.B AND S.B = 5  =>  R.A = 5. The
    // pass is skipped outright for pure join queries (no constants — the
    // common case on the dispatch hot path).
    if !pending_consts.is_empty() {
        let mut class_const: Vec<(usize, &Value)> = Vec::new();
        for (id, v) in pending_consts {
            let root = uf.find(id);
            if !class_const.iter().any(|(r, _)| *r == root) {
                class_const.push((root, v));
            }
        }
        for id in 0..uf.ids.len() {
            let root = uf.find(id);
            if let Some((_, v)) = class_const.iter().find(|(r, _)| *r == root) {
                let attr = uf.ids[id];
                keys.push(IndexKey::value(&attr.relation, &attr.attribute, (*v).clone()));
            }
        }
    }

    keys.sort();
    keys.dedup();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    #[test]
    fn tuple_keys_cover_both_levels() {
        let schema = Schema::new("R", ["A", "B"]).unwrap();
        let t = Tuple::new("R", vec![Value::from(3), Value::from(5)], 0);
        let keys = tuple_index_keys(&t, &schema);
        assert_eq!(keys.len(), 4);
        assert!(keys.contains(&IndexKey::attribute("R", "A")));
        assert!(keys.contains(&IndexKey::attribute("R", "B")));
        assert!(keys.contains(&IndexKey::value("R", "A", Value::from(3))));
        assert!(keys.contains(&IndexKey::value("R", "B", Value::from(5))));
    }

    #[test]
    fn key_string_forms() {
        assert_eq!(IndexKey::attribute("R", "A").to_key_string(), "R+A");
        assert_eq!(IndexKey::value("R", "A", Value::from(2)).to_key_string(), "R+A+i:2");
        assert_eq!(IndexKey::value("R", "A", Value::from("x")).to_key_string(), "R+A+s:x");
    }

    #[test]
    fn hashed_key_agrees_with_key_string() {
        let k = IndexKey::value("R", "A", Value::from(2));
        let h = k.hashed();
        assert_eq!(h.as_str(), k.to_key_string());
        assert_eq!(h.id(), rjoin_dht::Id::hash_key(&k.to_key_string()));
    }

    #[test]
    fn attribute_and_value_keys_never_collide() {
        let a = IndexKey::attribute("R", "A");
        let v = IndexKey::value("R", "A", Value::from(1));
        assert_ne!(a.to_key_string(), v.to_key_string());
        assert_eq!(v.to_attribute_level(), a);
    }

    #[test]
    fn candidates_for_pure_join_query_are_attribute_level() {
        let q = parse_query("SELECT R.A FROM R, S WHERE R.A = S.B").unwrap();
        let keys = candidate_keys(&q);
        assert_eq!(keys, vec![IndexKey::attribute("R", "A"), IndexKey::attribute("S", "B")]);
    }

    #[test]
    fn explicit_const_eq_yields_value_candidate() {
        let q = parse_query("SELECT R.A FROM R, S WHERE R.A = S.B AND R.C = 7").unwrap();
        let keys = candidate_keys(&q);
        assert!(keys.contains(&IndexKey::value("R", "C", Value::from(7))));
    }

    #[test]
    fn implied_const_eq_yields_value_candidates_for_whole_class() {
        // R.A = S.B AND S.B = 5 implies R.A = 5.
        let q = parse_query("SELECT R.A FROM R, S WHERE R.A = S.B AND S.B = 5").unwrap();
        let keys = candidate_keys(&q);
        assert!(keys.contains(&IndexKey::value("R", "A", Value::from(5))));
        assert!(keys.contains(&IndexKey::value("S", "B", Value::from(5))));
    }

    #[test]
    fn implied_closure_spans_chains() {
        // R.A = S.B AND S.B = P.C AND P.C = 9 implies R.A = 9.
        let q = parse_query("SELECT R.A FROM R, S, P WHERE R.A = S.B AND S.B = P.C AND P.C = 9")
            .unwrap();
        let keys = candidate_keys(&q);
        assert!(keys.contains(&IndexKey::value("R", "A", Value::from(9))));
        assert!(keys.contains(&IndexKey::value("S", "B", Value::from(9))));
        assert!(keys.contains(&IndexKey::value("P", "C", Value::from(9))));
    }

    #[test]
    fn cyclic_conjunct_closure_does_not_duplicate_keys() {
        // The cycle-closing conjunct T.C = R.C revisits relations already in
        // the chain; every candidate must still appear exactly once.
        let q = parse_query("SELECT R.A FROM R, S, T WHERE R.A = S.A AND S.B = T.B AND T.C = R.C")
            .unwrap();
        let keys = candidate_keys(&q);
        let mut deduped = keys.clone();
        deduped.dedup();
        assert_eq!(keys, deduped);
        assert_eq!(keys.len(), 6, "three join classes x two members, attribute level only");
        for k in &keys {
            assert_eq!(k.level(), IndexLevel::Attribute);
        }
    }

    #[test]
    fn cyclic_closure_with_constant_covers_the_whole_class() {
        // A constant attached anywhere on a cycle edge must imply value-level
        // candidates for every member of that class — and only that class.
        let q = parse_query(
            "SELECT R.A FROM R, S, T \
             WHERE R.A = S.A AND S.B = T.B AND T.C = R.C AND R.C = 4",
        )
        .unwrap();
        let keys = candidate_keys(&q);
        assert!(keys.contains(&IndexKey::value("R", "C", Value::from(4))));
        assert!(keys.contains(&IndexKey::value("T", "C", Value::from(4))));
        assert!(!keys.contains(&IndexKey::value("R", "A", Value::from(4))));
        assert!(!keys.contains(&IndexKey::value("S", "B", Value::from(4))));
        let value_keys = keys.iter().filter(|k| k.level() == IndexLevel::Value).count();
        assert_eq!(value_keys, 2);
    }

    #[test]
    fn single_class_cycle_collapses_without_duplicates() {
        // R.A = S.A AND S.A = T.A AND T.A = R.A closes a "cycle" on one
        // equivalence class; the closure must neither duplicate attribute
        // keys nor, with a constant attached, miss any implied value key.
        let q = parse_query(
            "SELECT R.A FROM R, S, T \
             WHERE R.A = S.A AND S.A = T.A AND T.A = R.A AND S.A = 2",
        )
        .unwrap();
        let keys = candidate_keys(&q);
        let mut deduped = keys.clone();
        deduped.dedup();
        assert_eq!(keys, deduped);
        for (rel, attr) in [("R", "A"), ("S", "A"), ("T", "A")] {
            assert!(keys.contains(&IndexKey::attribute(rel, attr)));
            assert!(keys.contains(&IndexKey::value(rel, attr, Value::from(2))));
        }
        assert_eq!(keys.len(), 6);
    }

    #[test]
    fn candidates_are_deduplicated() {
        let q = parse_query("SELECT R.A FROM R, S, P WHERE R.A = S.B AND R.A = P.C").unwrap();
        let keys = candidate_keys(&q);
        let attr_r_a = keys.iter().filter(|k| **k == IndexKey::attribute("R", "A")).count();
        assert_eq!(attr_r_a, 1);
    }
}
