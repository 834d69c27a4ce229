//! Positional join plans: a query compiled once into slots and column
//! offsets, joined by binding whole tuples instead of rewriting the AST.
//!
//! [`rewrite`](crate::rewrite()) is the paper's step: bind one tuple, get a
//! smaller query back, ship it to the next key. Building, cloning and
//! dropping that smaller query per bound tuple is pure overhead: everything
//! it holds is the input query plus the values of the tuples bound so far.
//! A [`JoinPlan`] is the query with that overhead compiled away, once per
//! query:
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
//! A join over a plan holds one tuple reference per bound slot (a
//! [`Bound`]). An arrival is [admitted](JoinPlan::admit) by its slot's
//! constant filters; a candidate for another slot [joins](JoinPlan::joins)
//! when it agrees with every bound slot on every edge between them; the
//! [pins](JoinPlan::pins) — the values the bound tuples and the constants
//! force on the columns of unbound slots, in the order the rewritten query
//! would list them as `ConstEq` conjuncts — are what an index is probed
//! with; a full binding is [projected](JoinPlan::project) into the answer
//! row. Such a join returns the same bag of rows as the stepwise rewrite
//! cascade over the same tuples (property-tested in `tests/join_plan.rs`
//! over chains, stars, triangles, 4-cycles, 4-cliques and disconnected
//! shapes, every window kind and arrival order).
//!
//! # Rewritten queries are plans plus bindings
//!
//! Two joins run on plans. A hypercube cell (`rjoin_core`'s `cell` module)
//! binds the tuples routed to it depth-first on the stack. The rewrite
//! pipeline of Procedures 2–3 ships its partial joins from node to node: a
//! rewritten query there is its input query's [`RewritePlan`] plus
//! [`Bindings`] — one shared tuple per bound slot, kept in one small
//! allocation. A trigger is [`admit`](JoinPlan::admit) +
//! [`joins`](JoinPlan::joins) on the tuple's slot; a complete binding
//! becomes an answer through [`project`](JoinPlan::project); a partial one
//! becomes a child with one more bound slot ([`Bindings::with`]).
//!
//! Everything else the pipeline needs of a rewritten query depends only on
//! *which* slots are bound, never on the values: the [`RewritePlan`]
//! derives it per bound mask. The child's candidate index keys are
//! memoised per mask, in exactly [`candidate_keys`](crate::candidate_keys)
//! order, with value-level keys reading their value from a constant or a
//! bound column ([`PlanKey`]); the trigger-index pins
//! ([`RewritePlan::pins`]) and the sub-join signature
//! ([`SubJoin::Bound`](crate::SubJoin)) are read off the plan's conjuncts;
//! a `DISTINCT` query's duplicate filter projects a tuple on offsets fixed
//! per slot ([`RewritePlan::dedup_offsets`]). [`RewritePlan::materialize`]
//! builds the [`JoinQuery`] a binding denotes — the rewrite cascade's
//! result, which property tests compare it with.

use crate::ast::{Conjunct, ConjunctRef, JoinQuery, QualifiedAttr, SelectItem};
use crate::keys::{intern_with, keys_of, write_key_text, IndexKey, IndexLevel};
use crate::{QueryError, WindowSpec};
use rjoin_dht::HashedKey;
use rjoin_relation::{write_prefixed, AttrIndex, Catalog, DecodedTable, Name, Tuple, Value};
use serde::bin::BinError;
use serde::json::{JsonError, JsonValue};
use serde::{Deserialize, Serialize};
use std::alloc::Layout;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::{Arc, OnceLock};

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

/// The tuples bound to a plan's slots so far. Every bound tuple must have
/// been [admitted](JoinPlan::admit) to its slot, which is what makes the
/// plan's column offsets safe to read.
pub trait Bound {
    /// The tuple bound to `slot`, `None` while it is unbound.
    fn tuple(&self, slot: usize) -> Option<&Tuple>;
}

impl Bound for Vec<Option<&Tuple>> {
    fn tuple(&self, slot: usize) -> Option<&Tuple> {
        self[slot]
    }
}

/// `base` with one more slot bound: what a trigger projects before any
/// child is built.
struct BoundWith<'a, B: ?Sized> {
    base: &'a B,
    slot: usize,
    tuple: &'a Tuple,
}

impl<B: Bound + ?Sized> Bound for BoundWith<'_, B> {
    fn tuple(&self, slot: usize) -> Option<&Tuple> {
        if slot == self.slot {
            Some(self.tuple)
        } else {
            self.base.tuple(slot)
        }
    }
}

/// The tuples a rewritten query has bound: a slot mask and one shared tuple
/// per set bit, in slot order.
///
/// A stored rewritten query is mostly this and its window span, so the
/// representation is one thin pointer (8 bytes inline, null while no slot
/// is bound) to a single allocation that holds the mask followed by the
/// tuple handles: `8 + 8 × bound` heap bytes, no length word (the mask's
/// popcount is the length).
pub struct Bindings {
    /// The mask, followed by `mask.count_ones()` initialized `Arc<Tuple>`s;
    /// `None` for the empty binding (no allocation).
    ptr: Option<NonNull<u64>>,
    _owns: PhantomData<Arc<Tuple>>,
}

// SAFETY: a `Bindings` exclusively owns its allocation and the
// `Arc<Tuple>`s in it, which are `Send + Sync` themselves (asserted below);
// nothing is shared through the raw pointer.
unsafe impl Send for Bindings {}
// SAFETY: as above; `&Bindings` only hands out `&Arc<Tuple>`.
unsafe impl Sync for Bindings {}

const _: () = {
    const fn owns_send_sync<T: Send + Sync>() {}
    owns_send_sync::<Arc<Tuple>>()
};

/// The layout of a binding of `n` tuples, and the offset of the first one.
fn bindings_layout(n: usize) -> (Layout, usize) {
    Layout::new::<u64>()
        .extend(Layout::array::<Arc<Tuple>>(n).expect("at most 64 slots"))
        .expect("at most 64 slots")
}

impl Bindings {
    /// A binding of the slots in `mask`, the `i`-th bound one (in slot
    /// order) to `tuple(i)`: the one allocation a binding costs.
    fn build(mask: u64, mut tuple: impl FnMut(usize) -> Arc<Tuple>) -> Self {
        if mask == 0 {
            return Bindings::default();
        }
        let n = mask.count_ones() as usize;
        let (layout, offset) = bindings_layout(n);
        // SAFETY: the layout is non-zero-sized (it holds the mask). The mask
        // is written first and every tuple slot after it before the pointer
        // escapes; a panic in `tuple` leaks the allocation, never exposes it.
        unsafe {
            let raw = std::alloc::alloc(layout);
            let Some(header) = NonNull::new(raw.cast::<u64>()) else {
                std::alloc::handle_alloc_error(layout)
            };
            header.as_ptr().write(mask);
            let tuples = raw.add(offset).cast::<Arc<Tuple>>();
            for i in 0..n {
                tuples.add(i).write(tuple(i));
            }
            Bindings { ptr: Some(header), _owns: PhantomData }
        }
    }

    /// A binding of the slots in `mask` to `tuples`, in slot order; `None`
    /// unless there is one tuple per set bit.
    fn from_parts(mask: u64, tuples: Vec<Arc<Tuple>>) -> Option<Self> {
        let mut tuples =
            (mask.count_ones() as usize == tuples.len()).then(|| tuples.into_iter())?;
        Some(Bindings::build(mask, |_| tuples.next().expect("one tuple per mask bit")))
    }

    /// The bound slots, one bit each.
    pub fn mask(&self) -> u64 {
        // SAFETY: a live pointer always points at the initialized mask.
        self.ptr.map_or(0, |header| unsafe { header.as_ptr().read() })
    }

    /// Whether no slot is bound (an input query).
    pub fn is_empty(&self) -> bool {
        self.ptr.is_none()
    }

    /// The bound tuples, in slot order.
    pub fn tuples(&self) -> &[Arc<Tuple>] {
        let Some(header) = self.ptr else { return &[] };
        let n = self.mask().count_ones() as usize;
        let (_, offset) = bindings_layout(n);
        // SAFETY: `build` initialized `n` tuples at `offset`, and they live
        // as long as `self`.
        unsafe { std::slice::from_raw_parts(header.as_ptr().cast::<u8>().add(offset).cast(), n) }
    }

    /// These bindings plus `tuple` at `slot` (unbound here): the one
    /// allocation a child costs.
    ///
    /// # Panics
    /// Panics when `slot` is already bound or not below 64.
    pub fn with(&self, slot: usize, tuple: &Arc<Tuple>) -> Self {
        let bit = 1u64 << slot;
        let mask = self.mask();
        assert_eq!(mask & bit, 0, "slot {slot} is bound already");
        let at = (mask & (bit - 1)).count_ones() as usize;
        let tuples = self.tuples();
        Bindings::build(mask | bit, |i| match i.cmp(&at) {
            Ordering::Less => Arc::clone(&tuples[i]),
            Ordering::Equal => Arc::clone(tuple),
            Ordering::Greater => Arc::clone(&tuples[i - 1]),
        })
    }
}

impl Default for Bindings {
    fn default() -> Self {
        Bindings { ptr: None, _owns: PhantomData }
    }
}

impl Drop for Bindings {
    fn drop(&mut self) {
        let Some(header) = self.ptr else { return };
        let n = self.mask().count_ones() as usize;
        let (layout, offset) = bindings_layout(n);
        // SAFETY: `build` made the allocation with this layout and
        // initialized `n` tuples at `offset`; they are dropped exactly once
        // here, through the pointer the allocation returned.
        unsafe {
            let tuples = header.as_ptr().cast::<u8>().add(offset).cast::<Arc<Tuple>>();
            std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(tuples, n));
            std::alloc::dealloc(header.as_ptr().cast(), layout);
        }
    }
}

impl Clone for Bindings {
    fn clone(&self) -> Self {
        let tuples = self.tuples();
        Bindings::build(self.mask(), |i| Arc::clone(&tuples[i]))
    }
}

impl PartialEq for Bindings {
    fn eq(&self, other: &Self) -> bool {
        self.mask() == other.mask() && self.tuples() == other.tuples()
    }
}

impl Eq for Bindings {}

impl fmt::Debug for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bindings")
            .field("mask", &self.mask())
            .field("tuples", &self.tuples())
            .finish()
    }
}

impl Bound for Bindings {
    fn tuple(&self, slot: usize) -> Option<&Tuple> {
        let bit = 1u64.checked_shl(slot as u32)?;
        let mask = self.mask();
        if mask & bit == 0 {
            return None;
        }
        Some(&self.tuples()[(mask & (bit - 1)).count_ones() as usize])
    }
}

/// The JSON form of [`Bindings`] (the binary one is the mask, then each
/// tuple length-prefixed, in slot order).
#[derive(Serialize, Deserialize)]
struct WireBindings {
    mask: u64,
    tuples: Vec<Arc<Tuple>>,
}

impl Serialize for Bindings {
    fn serialize_json(&self) -> JsonValue {
        WireBindings { mask: self.mask(), tuples: self.tuples().to_vec() }.serialize_json()
    }

    fn serialize_bin(&self, out: &mut Vec<u8>) {
        serde::bin::write_varint(out, self.mask());
        for tuple in self.tuples() {
            write_prefixed(out, &**tuple);
        }
    }
}

/// The tuples bound in queries this process decoded (see
/// [`DecodedTable`]): a tuple is bound into the `Eval` of every query it
/// extends, and shared, not copied, by every stored query that holds it.
static DECODED_TUPLES: DecodedTable<Tuple, 16384> = DecodedTable::new();

impl Deserialize for Bindings {
    fn deserialize_json(v: &JsonValue) -> Result<Self, JsonError> {
        let WireBindings { mask, tuples } = WireBindings::deserialize_json(v)?;
        Bindings::from_parts(mask, tuples)
            .ok_or_else(|| JsonError("bindings: one tuple per mask bit".into()))
    }

    fn deserialize_bin(input: &mut &[u8]) -> Result<Self, BinError> {
        let mask = serde::bin::read_varint(input)?;
        let tuples = (0..mask.count_ones())
            .map(|_| DECODED_TUPLES.read(input))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Bindings::from_parts(mask, tuples).expect("one tuple read per mask bit"))
    }
}

/// A query compiled into slots and column offsets (see the module docs).
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
        for relation in &relations {
            catalog.require_schema(relation).map_err(QueryError::Relation)?;
        }
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

    /// The slot of `relation`, if it is in `FROM`.
    fn slot_of(&self, relation: &str) -> Option<usize> {
        self.relations.iter().position(|r| *r == *relation)
    }

    /// The slot `tuple` binds, if it can contribute to an answer at all: its
    /// relation is in `FROM`, it carries every column the plan reads from
    /// it, and it passes its slot's constant filters. Everything else about
    /// a tuple is checked by [`joins`](Self::joins) once the tuples it
    /// combines with are known.
    pub fn admit(&self, tuple: &Tuple) -> Option<usize> {
        let slot = self.slot_of(tuple.relation())?;
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
    pub fn joins<B: Bound + ?Sized>(&self, slot: usize, tuple: &Tuple, bound: &B) -> bool {
        let values = tuple.values();
        let agrees = |here: &SlotColumn, there: &SlotColumn| {
            bound
                .tuple(there.slot)
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
    pub fn pins<'a, B: Bound + ?Sized>(
        &'a self,
        bound: &'a B,
    ) -> impl Iterator<Item = (SlotColumn, &'a Value)> + 'a {
        self.conjuncts.iter().filter_map(move |conjunct| match conjunct {
            PlanConjunct::Const(at, value) if bound.tuple(at.slot).is_none() => Some((*at, value)),
            PlanConjunct::Const(..) => None,
            PlanConjunct::Join(a, b) => match (bound.tuple(a.slot), bound.tuple(b.slot)) {
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
    pub fn project<B: Bound + ?Sized>(&self, bound: &B) -> Vec<Value> {
        self.select
            .iter()
            .map(|item| match item {
                PlanItem::Column(at) => {
                    bound.tuple(at.slot).expect("projected from a full binding").values()[at.offset]
                        .clone()
                }
                PlanItem::Const(value) => value.clone(),
            })
            .collect()
    }
}

/// Where a value of a rewritten query comes from: a constant of the input
/// query (the `ConstEq` conjunct at this index of its `WHERE` clause) or a
/// column of a bound tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanValue {
    /// The constant of the input query's conjunct at this index.
    Const(u32),
    /// A column of a bound slot.
    Column {
        /// The slot.
        slot: u32,
        /// The column offset.
        offset: u32,
    },
}

impl PlanValue {
    fn column(at: SlotColumn) -> Self {
        PlanValue::Column { slot: at.slot as u32, offset: at.offset as u32 }
    }
}

/// One candidate index key of every rewritten query with one bound mask,
/// in [`candidate_keys`](crate::candidate_keys) order (see
/// [`RewritePlan::keys`]).
///
/// Which keys a query has, their levels and their order depend on its
/// `WHERE` clause's shape alone — the sort never gets to compare two values,
/// because an attribute has at most one value-level candidate — so an
/// attribute-level candidate is interned once and a value-level one only
/// lacks its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey(KeyKind);

#[derive(Debug, Clone, PartialEq, Eq)]
enum KeyKind {
    /// An attribute-level candidate, interned.
    Attribute(HashedKey),
    /// The value-level candidate `relation + attribute + value`.
    Value {
        /// The attribute: side `attr % 2` (left first) of the input query's
        /// conjunct `attr / 2`.
        attr: u32,
        /// Where the value comes from.
        value: PlanValue,
    },
}

impl PlanKey {
    /// The level of the candidate.
    pub fn level(&self) -> IndexLevel {
        match self.0 {
            KeyKind::Attribute(_) => IndexLevel::Attribute,
            KeyKind::Value { .. } => IndexLevel::Value,
        }
    }

    /// The interned candidate of the query `bound` makes of `plan`'s input
    /// query (written straight into the scratch buffer the intern probe
    /// reads: no [`IndexKey`] is built).
    pub fn hashed<B: Bound + ?Sized>(&self, plan: &RewritePlan, bound: &B) -> HashedKey {
        match &self.0 {
            KeyKind::Attribute(hashed) => hashed.clone(),
            KeyKind::Value { attr, value } => {
                let (attr, value) = (plan.attr(*attr), plan.value(*value, bound));
                intern_with(|buf| {
                    write_key_text(buf, &attr.relation, &attr.attribute, Some(value));
                })
            }
        }
    }

    /// The candidate as an [`IndexKey`].
    pub fn index_key<B: Bound + ?Sized>(&self, plan: &RewritePlan, bound: &B) -> IndexKey {
        match &self.0 {
            KeyKind::Attribute(hashed) => {
                let (relation, attribute) =
                    hashed.as_str().split_once('+').expect("an attribute key is `R+A`");
                IndexKey::attribute(relation, attribute)
            }
            KeyKind::Value { attr, value } => {
                let attr = plan.attr(*attr);
                IndexKey::value(&attr.relation, &attr.attribute, plan.value(*value, bound).clone())
            }
        }
    }
}

/// What a tuple does to a rewritten query ([`RewritePlan::trigger`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trigger {
    /// The tuple does not extend the binding.
    Mismatch,
    /// The tuple completes the binding: the answer row.
    Answer(Vec<Value>),
    /// The tuple extends the binding: the child binds its slot too.
    Child,
}

/// Slot counts up to which every bound mask's candidate keys are memoised
/// (one lazily filled entry per mask); wider plans derive them per call.
const MEMO_SLOTS: usize = 8;

/// An input query's plan for the rewrite pipeline: its [`JoinPlan`], and
/// what every rewritten query it spawns derives from the bound mask alone
/// (see the module docs). Compiled once per query and shared by every
/// descendant.
#[derive(Debug)]
pub struct RewritePlan {
    plan: JoinPlan,
    query: Arc<JoinQuery>,
    /// Per slot: the columns a `DISTINCT` query's duplicate filter projects
    /// a tuple of the slot on, ascending (nothing for other queries).
    dedup: Box<[Box<[AttrIndex]>]>,
    /// Per bound mask (plans of at most `MEMO_SLOTS` slots): the candidate
    /// keys, filled at first use.
    keys: Box<[OnceLock<Box<[PlanKey]>>]>,
}

impl RewritePlan {
    /// Compiles `query` against `catalog` (see [`JoinPlan::new`]; a plan
    /// binds at most 64 slots).
    pub fn new(query: Arc<JoinQuery>, catalog: &Catalog) -> Result<Self, QueryError> {
        let slots = query.relations().len();
        if slots > 64 {
            return Err(QueryError::TooManyRelations { count: slots });
        }
        let plan = JoinPlan::new(&query, catalog)?;
        // Only a `DISTINCT` query's duplicate filter projects.
        let mut dedup = vec![Vec::new(); if query.distinct() { slots } else { 0 }];
        if query.distinct() {
            let columns = plan.conjuncts.iter().flat_map(|conjunct| match conjunct {
                PlanConjunct::Const(at, _) => [Some(at), None],
                PlanConjunct::Join(a, b) => [Some(a), Some(b)],
            });
            let selected = plan.select.iter().filter_map(|item| match item {
                PlanItem::Column(at) => Some(at),
                PlanItem::Const(_) => None,
            });
            for at in columns.flatten().chain(selected) {
                dedup[at.slot].push(at.offset);
            }
        }
        let dedup = dedup
            .into_iter()
            .map(|mut offsets| {
                offsets.sort_unstable();
                offsets.dedup();
                offsets.into_boxed_slice()
            })
            .collect();
        let memo = if slots <= MEMO_SLOTS { 1 << slots } else { 0 };
        let keys = (0..memo).map(|_| OnceLock::new()).collect();
        Ok(RewritePlan { plan, query, dedup, keys })
    }

    /// The compiled plan.
    pub fn plan(&self) -> &JoinPlan {
        &self.plan
    }

    /// The input query.
    pub fn query(&self) -> &Arc<JoinQuery> {
        &self.query
    }

    /// The mask with every slot bound.
    fn full_mask(&self) -> u64 {
        u64::MAX >> (64 - self.plan.relations.len())
    }

    /// Whether `bound` can be a binding of this plan: every bound slot
    /// exists and its tuple is [admitted](JoinPlan::admit) to it — what the
    /// plan's column offsets rely on. Bindings built from
    /// [`trigger`](Self::trigger) always are; ones that arrived from
    /// elsewhere are checked.
    pub fn holds(&self, bound: &Bindings) -> bool {
        let full = self.full_mask();
        bound.mask() & !full == 0
            && (0..self.plan.relations.len()).all(|slot| match bound.tuple(slot) {
                Some(tuple) => self.plan.admit(tuple) == Some(slot),
                None => true,
            })
    }

    /// The slot a tuple of `relation` binds in a rewritten query whose bound
    /// slots are `mask`: its relation's, unless that is bound already (the
    /// rewritten query no longer mentions it) or not in `FROM`.
    pub fn trigger_slot(&self, mask: u64, relation: &str) -> Option<usize> {
        self.plan.slot_of(relation).filter(|slot| mask & (1 << slot) == 0)
    }

    /// One rewrite step: `tuple` triggers the rewritten query `bound` makes
    /// of the input query at its [`trigger_slot`](Self::trigger_slot)
    /// `slot`. It mismatches unless the plan admits it to the slot and it
    /// joins every bound slot — exactly when
    /// [`rewrite`](crate::rewrite()) of that query would not mismatch; a
    /// binding it completes is an answer row, any other a child with `slot`
    /// bound too.
    pub fn trigger(&self, bound: &Bindings, slot: usize, tuple: &Tuple) -> Trigger {
        let plan = &self.plan;
        if plan.admit(tuple) != Some(slot) || !plan.joins(slot, tuple, bound) {
            return Trigger::Mismatch;
        }
        if bound.mask() | 1 << slot == self.full_mask() {
            Trigger::Answer(plan.project(&BoundWith { base: bound, slot, tuple }))
        } else {
            Trigger::Child
        }
    }

    /// The columns a `DISTINCT` query's duplicate filter projects a tuple of
    /// `slot` on: every attribute of the slot's relation its `SELECT` list
    /// or `WHERE` clause names, in schema order. While the slot is unbound
    /// every such reference survives the rewrite (a join with a bound slot
    /// becomes a selection on the same column), so the projection Section 4's
    /// duplicate elimination takes of any rewritten query is this one (empty
    /// for a query that is not `DISTINCT`).
    pub fn dedup_offsets(&self, slot: usize) -> &[AttrIndex] {
        self.dedup.get(slot).map_or(&[], |offsets| offsets)
    }

    /// The relations of the unbound slots, in `FROM` order: the rewritten
    /// query's `FROM` list.
    pub fn unbound_relations(&self, mask: u64) -> impl Iterator<Item = &Name> + '_ {
        let bound = move |slot: usize| mask & (1 << slot) != 0;
        self.plan.relations.iter().enumerate().filter(move |(s, _)| !bound(*s)).map(|(_, r)| r)
    }

    /// The attribute side `index % 2` of the input query's conjunct
    /// `index / 2` names (a selection has one side).
    fn attr(&self, index: u32) -> &QualifiedAttr {
        match &self.query.conjuncts()[index as usize / 2] {
            Conjunct::JoinEq(a, _) if index.is_multiple_of(2) => a,
            Conjunct::JoinEq(_, b) => b,
            Conjunct::ConstEq(a, _) => a,
        }
    }

    /// The first conjunct side that names `relation.attribute` (see
    /// [`attr`](Self::attr)); every candidate key names one.
    fn attr_index(&self, relation: &str, attribute: &str) -> u32 {
        let sides = self.query.conjuncts().iter().enumerate().flat_map(|(i, c)| match c {
            Conjunct::JoinEq(a, b) => [Some((2 * i, a)), Some((2 * i + 1, b))],
            Conjunct::ConstEq(a, _) => [Some((2 * i, a)), None],
        });
        let found =
            sides.flatten().find(|(_, a)| a.relation == *relation && a.attribute == *attribute);
        found.expect("a candidate key names a conjunct attribute").0 as u32
    }

    /// The value `source` denotes for the bound tuples `bound`.
    fn value<'a, B: Bound + ?Sized>(&'a self, source: PlanValue, bound: &'a B) -> &'a Value {
        match source {
            PlanValue::Const(index) => match &self.plan.conjuncts[index as usize] {
                PlanConjunct::Const(_, value) => value,
                PlanConjunct::Join(..) => unreachable!("a constant source names a selection"),
            },
            PlanValue::Column { slot, offset } => {
                let tuple = bound.tuple(slot as usize).expect("a column source is bound");
                &tuple.values()[offset as usize]
            }
        }
    }

    /// The rewritten query's `WHERE` clause when the slots `free` rejects
    /// are bound, conjunct by conjunct in `WHERE` order: a join between two
    /// unbound slots, or a selection — the column it pins and where its
    /// value comes from.
    fn rewritten<'a>(
        &'a self,
        free: impl Fn(usize) -> bool + 'a,
    ) -> impl Iterator<Item = Rewritten<'a>> + 'a {
        let conjuncts = self.query.conjuncts().iter().zip(&self.plan.conjuncts).enumerate();
        conjuncts.filter_map(move |(index, pair)| match pair {
            (Conjunct::ConstEq(attr, _), PlanConjunct::Const(at, _)) if free(at.slot) => {
                Some(Rewritten::Pin(attr, *at, PlanValue::Const(index as u32)))
            }
            (Conjunct::JoinEq(a, b), PlanConjunct::Join(ca, cb)) => {
                match (free(ca.slot), free(cb.slot)) {
                    (true, true) => Some(Rewritten::Join(a, b)),
                    (false, true) => Some(Rewritten::Pin(b, *cb, PlanValue::column(*ca))),
                    (true, false) => Some(Rewritten::Pin(a, *ca, PlanValue::column(*cb))),
                    (false, false) => None,
                }
            }
            _ => None,
        })
    }

    /// The `WHERE` clause of the query `bound` makes of the input query, in
    /// `WHERE` order: what [`rewrite`](crate::rewrite()) would have left of
    /// it after binding the same tuples.
    pub(crate) fn conjuncts<'a, B: Bound + ?Sized>(
        &'a self,
        bound: &'a B,
    ) -> impl Iterator<Item = ConjunctRef<'a>> + 'a {
        self.rewritten(|slot| bound.tuple(slot).is_none()).map(|conjunct| match conjunct {
            Rewritten::Join(a, b) => ConjunctRef::Join(a, b),
            Rewritten::Pin(attr, _, source) => ConjunctRef::Const(attr, self.value(source, bound)),
        })
    }

    /// The selections of that clause, in `WHERE` order, with the column
    /// each pins: [`JoinPlan::pins`] with the attribute named. A trigger
    /// index partitions stored queries by the first pin of the slot the key
    /// relation binds.
    pub fn pins<'a, B: Bound + ?Sized>(
        &'a self,
        bound: &'a B,
    ) -> impl Iterator<Item = (SlotColumn, &'a QualifiedAttr, &'a Value)> + 'a {
        self.rewritten(|slot| bound.tuple(slot).is_none()).filter_map(|conjunct| match conjunct {
            Rewritten::Pin(attr, at, source) => Some((at, attr, self.value(source, bound))),
            Rewritten::Join(..) => None,
        })
    }

    /// The candidate index keys of every rewritten query whose bound slots
    /// are `mask`, in [`candidate_keys`](crate::candidate_keys) order.
    /// Memoised per mask.
    pub fn keys(&self, mask: u64) -> Cow<'_, [PlanKey]> {
        match self.keys.get(mask as usize) {
            Some(memo) => Cow::Borrowed(memo.get_or_init(|| self.derive_keys(mask))),
            None => Cow::Owned(self.derive_keys(mask).into_vec()),
        }
    }

    /// [`keys`](Self::keys), derived: [`candidate_keys`]' derivation run on
    /// the rewritten clause with each value replaced by its source's number,
    /// read back out of the value-level keys.
    ///
    /// [`candidate_keys`]: crate::candidate_keys
    fn derive_keys(&self, mask: u64) -> Box<[PlanKey]> {
        let mut sources = Vec::new();
        let numbered: Vec<Conjunct> = self
            .rewritten(|slot| mask & (1 << slot) == 0)
            .map(|conjunct| match conjunct {
                Rewritten::Join(a, b) => Conjunct::JoinEq(a.clone(), b.clone()),
                Rewritten::Pin(attr, _, source) => {
                    sources.push(source);
                    Conjunct::ConstEq(attr.clone(), Value::from(sources.len() as i64 - 1))
                }
            })
            .collect();
        let keys: Vec<PlanKey> = keys_of(&numbered)
            .into_iter()
            .map(|key| match key {
                IndexKey::Value { relation, attribute, value: Value::Int(n) } => {
                    PlanKey(KeyKind::Value {
                        attr: self.attr_index(&relation, &attribute),
                        value: sources[n as usize],
                    })
                }
                key => PlanKey(KeyKind::Attribute(key.hashed())),
            })
            .collect();
        keys.into_boxed_slice()
    }

    /// The `SELECT` list of the query `bound` makes of the input query:
    /// items of bound slots resolved to constants.
    pub fn select_at<B: Bound + ?Sized>(&self, bound: &B) -> Vec<SelectItem> {
        self.query
            .select()
            .iter()
            .zip(&self.plan.select)
            .map(|(item, compiled)| match compiled {
                PlanItem::Column(at) => match bound.tuple(at.slot) {
                    Some(tuple) => SelectItem::Const(tuple.values()[at.offset].clone()),
                    None => item.clone(),
                },
                PlanItem::Const(_) => item.clone(),
            })
            .collect()
    }

    /// The query `bound` makes of the input query, built: the query the
    /// rewrite cascade reaches by binding the same tuples one at a time.
    pub fn materialize<B: Bound + ?Sized>(&self, bound: &B) -> JoinQuery {
        let mask = (0..self.plan.relations.len())
            .filter(|slot| bound.tuple(*slot).is_some())
            .fold(0, |mask, slot| mask | 1 << slot);
        JoinQuery::from_parts_unchecked(
            self.query.distinct(),
            self.select_at(bound),
            self.unbound_relations(mask).cloned().collect(),
            self.conjuncts(bound).map(ConjunctRef::to_conjunct).collect(),
            *self.query.window(),
        )
    }
}

/// One conjunct of a rewritten query's `WHERE` clause, by where it comes
/// from (see `RewritePlan::rewritten`).
enum Rewritten<'a> {
    /// A join between two unbound slots.
    Join(&'a QualifiedAttr, &'a QualifiedAttr),
    /// A selection on an unbound slot's column, and its value's source.
    Pin(&'a QualifiedAttr, SlotColumn, PlanValue),
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
        assert_eq!(plan.project(&vec![Some(&r), Some(&s), Some(&t)]), [5, 7, 1].map(Value::from));
    }

    /// A binding is one thin pointer; it reads back the tuples it was built
    /// from in slot order, and clones and drops hold and release exactly
    /// one reference per bound tuple.
    #[test]
    fn bindings_are_one_thin_pointer_that_owns_its_tuples() {
        assert_eq!(std::mem::size_of::<Bindings>(), 8);
        let (r, t) = (Arc::new(tuple("R", [1, 2, 3])), Arc::new(tuple("T", [7, 8, 9])));
        let none = Bindings::default();
        assert!(none.is_empty() && none.mask() == 0 && none.tuples().is_empty());
        let one = none.with(2, &t);
        let two = one.with(0, &r);
        assert_eq!((one.mask(), two.mask()), (0b100, 0b101));
        assert_eq!(two.tuples(), [Arc::clone(&r), Arc::clone(&t)]);
        assert_eq!((two.tuple(0), two.tuple(1), two.tuple(2)), (Some(&*r), None, Some(&*t)));
        assert_eq!(two.tuple(64), None);
        assert_eq!(Arc::strong_count(&t), 3, "held by `one` and `two`");
        let copy = two.clone();
        assert_eq!(copy, two);
        assert_ne!(copy, one);
        assert_eq!(Arc::strong_count(&r), 3);
        drop((one, two, copy));
        assert_eq!((Arc::strong_count(&r), Arc::strong_count(&t)), (1, 1));
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
        let bound = vec![Some(&r), None, None];
        let pins: Vec<_> = plan.pins(&bound).collect();
        // In `WHERE` order: R pins S.A and T.C, the constant pins T.A.
        let (one, two, three) = (Value::from(1), Value::from(2), Value::from(3));
        assert_eq!(pins, [(at(1, 0), &one), (at(2, 2), &two), (at(2, 0), &three)]);
        assert!(plan.joins(1, &tuple("S", [1, 5, 0]), &bound));
        assert!(!plan.joins(1, &tuple("S", [2, 5, 0]), &bound));
        // With S bound too, T must agree with both.
        let s = tuple("S", [1, 5, 0]);
        let bound = vec![Some(&r), Some(&s), None];
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
