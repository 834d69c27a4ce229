//! The per-node message handlers: Procedures 1–3 of the paper.
//!
//! These functions operate on a single node's [`NodeState`] and return the
//! list of [`Action`]s the node wants to perform (answers to deliver,
//! rewritten queries to re-index). Sending those actions through the network
//! — including the RIC-aware placement decision, [`crate::placement`] — is
//! the effect phase's job, which keeps these handlers purely local, exactly
//! like the pseudo-code in the paper.
//!
//! Tuple arrivals ([`handle_new_tuple`]) contact stored queries through the
//! node's value-partitioned trigger index (`O(matching)` probes; see
//! [`crate::trigger_index`]); query arrivals walk one binary-searched run of
//! the publication-ordered stored and retained tuples, the publication span
//! they could combine with ([`admissible_pub_span`]).
//!
//! # A rewrite is a binding
//!
//! A stored query is its input query plus the tuples bound so far
//! ([`PendingQuery`]), read through the input query's
//! [`RewritePlan`](rjoin_query::RewritePlan): compiled where the query
//! entered the process (at submission, or at [`NodeState::adopt`] for one
//! that arrived without it), shared by every descendant. A
//! tuple triggers an entry when the plan admits it to an unbound slot and
//! it joins every bound slot — exactly when `rjoin_query::rewrite` of the
//! rewritten query would not mismatch. A complete binding is projected into
//! the answer row; a partial one becomes a child with one more bound slot,
//! in one allocation. No rewritten [`JoinQuery`](rjoin_query::JoinQuery) is
//! built.
//!
//! The handlers never remove a stored query. Section 5's rule — a rewritten
//! query whose window a tuple exceeds is deleted — is carried out by the
//! node's deadline heap, which files every windowed entry under the first
//! publication time its window does not admit and pops it once the node's
//! publication watermark passes that time (see [`crate::expiry`]): one
//! delivery tick after the exceeding tuple arrives. Until then an
//! out-of-window tuple simply does not trigger the entry.
//!
//! A ring that hosts a hypercube cell takes neither path, and is not
//! recorded for RIC: its arrivals run the cell's indexed probe cascade
//! ([`cell::handle_cell_arrival`], see [`crate::cell`]).

use crate::cell;
use crate::config::EngineConfig;
use crate::messages::{PendingQuery, QueryId};
use crate::node_state::{key_run, NodeState, StoredQuery};
use crate::ric::RIC_WINDOW;
use rjoin_dht::HashedKey;
use rjoin_metrics::{CompileCounters, SharingCounters};
use rjoin_net::SimTime;
use rjoin_query::{project_select, IndexLevel, Trigger};
use rjoin_relation::{Catalog, Timestamp, Tuple, Value};
use std::sync::Arc;
use std::time::Instant;

/// An outgoing action produced by a local handler.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Deliver an answer row to the node that submitted the query
    /// (`sendDirect` in the paper).
    DeliverAnswer {
        /// The original query.
        query: QueryId,
        /// The owner node to deliver to.
        owner: rjoin_dht::Id,
        /// The answer row.
        row: Vec<Value>,
    },
    /// Re-index a rewritten query at another node (the `Eval` message of
    /// Procedures 2 and 3). The engine chooses the target key.
    Reindex {
        /// The rewritten query and its metadata (boxed: a `PendingQuery`
        /// dwarfs the answer variant, and actions move through `Vec`s).
        pending: Box<PendingQuery>,
    },
}

/// Read-only context shared by the handlers.
pub struct ProcCtx<'a> {
    /// The schema catalog.
    pub catalog: &'a Catalog,
    /// Engine configuration.
    pub config: &'a EngineConfig,
    /// Current simulation time (the clock, `>= at` when the driver advanced
    /// the clock past pending deliveries).
    pub now: SimTime,
    /// The raw delivery tick of the message being handled. It bounds ALTT
    /// visibility: a query delivered at `at` sees the retained tuples with
    /// `pub + Δ >= at`.
    pub at: SimTime,
}

/// Outcome of attempting to trigger one stored query with one tuple.
enum TriggerOutcome {
    /// The tuple did not trigger the query (mismatch, dedup, time or window
    /// filter).
    NotTriggered,
    /// The tuple triggered the query and its actions were appended to the
    /// caller's list. Unshared entries produce exactly one action; shared
    /// entries can fan a completion out into one answer per subscriber.
    Triggered,
}

/// Fans a completed shared `WHERE` clause out to the subscriber table: one
/// answer per subscriber submitted no later than `earliest`, the publication
/// time of the combination's earliest tuple. This is the only place a
/// subscriber's `SELECT` list is looked at between its merge and its answer:
/// it is projected straight into the row from the tuples its group bound
/// since the merge plus the completing `tuple`. (An item no tuple resolves
/// cannot occur for subscribers merged on an identical sub-join structure;
/// such a row is dropped rather than delivered malformed.)
fn fan_out(
    pending: &PendingQuery,
    earliest: Timestamp,
    tuple: &Tuple,
    catalog: &Catalog,
    actions: &mut Vec<Action>,
) {
    for group in pending.subscribers.groups() {
        let tuples = group.bound().iter().map(Arc::as_ref).chain(std::iter::once(tuple));
        for sub in group.eligible(earliest) {
            if let Ok(row) = project_select(&sub.select, tuples.clone(), catalog) {
                actions.push(Action::DeliverAnswer { query: sub.id, owner: sub.owner, row });
            }
        }
    }
}

/// Applies one tuple to one stored query following the trigger rules:
/// publication-time filter, window validity (Section 5), duplicate
/// elimination (Section 4) and the binding step itself.
///
/// `start_rule` computes the `start` parameter of the produced rewritten
/// query from the stored query's own `start` and the tuple's publication
/// time (the rule differs between Procedure 2 and Procedure 3).
///
/// For shared entries (a non-empty subscriber table) the `WHERE` clause is
/// evaluated **once** and the table rides along untouched: a child is
/// produced whenever the entry triggers (passing the entry's time filter
/// means at least one subscriber is served), and eligibility and `SELECT`
/// projection are applied per subscriber only when the clause completes
/// ([`fan_out`]).
///
/// `counters` are the node's compile counters, threaded in as a split
/// borrow so the caller can keep iterating its stored-query bucket.
/// Produced actions go straight onto `actions`.
fn try_trigger(
    stored: &mut StoredQuery,
    tuple: &Arc<Tuple>,
    ctx: &ProcCtx<'_>,
    counters: &mut CompileCounters,
    actions: &mut Vec<Action>,
    start_rule: impl Fn(Option<Timestamp>, Timestamp) -> Option<Timestamp>,
) -> TriggerOutcome {
    let pending = &stored.pending;
    // Only tuples published at or after the submission of at least one
    // subscriber can trigger (per-subscriber eligibility is re-checked when
    // answers or children are produced).
    if tuple.pub_time() < pending.min_insert_time() {
        return TriggerOutcome::NotTriggered;
    }
    // Window validity (Section 5): a tuple outside a rewritten query's
    // window does not trigger it (expiry deletes the query once no tuple
    // can fit anymore); input queries (start = None) never expire.
    let window = *pending.query.window();
    if window.use_windows() {
        if let Some(start) = pending.window_start() {
            if !window.within(start, tuple.pub_time()) {
                return TriggerOutcome::NotTriggered;
            }
        }
        // Exact sliding-window span: the paper's pairwise `|start - now|`
        // test misses combinations that pick up an *older* stored/ALTT tuple
        // late, so additionally require the whole contribution span
        // `[window_min, window_max] ∪ {now}` to fit one window. (Tumbling
        // buckets are transitive, so the pairwise test is already exact for
        // them.) The entry itself stays stored: other tuples may still fit.
        if matches!(window, rjoin_query::WindowSpec::Sliding { .. }) {
            if let (Some(min), Some(max)) = (pending.window_min(), pending.window_max()) {
                let p = tuple.pub_time();
                if !window.within(min.min(p), max.max(p)) {
                    return TriggerOutcome::NotTriggered;
                }
            }
        }
    }
    let plan = pending.plan();
    let slot = plan.trigger_slot(pending.bound.mask(), tuple.relation());
    // Duplicate elimination for DISTINCT queries (never shared, so the
    // projection is always the single subscriber's): the tuple's
    // projection on the attributes the rewritten query names of its
    // relation — none when it names none.
    if let Some(dedup) = stored.dedup.as_mut() {
        let offsets = slot.map_or(&[][..], |slot| plan.dedup_offsets(slot));
        if !dedup.admit_projection(offsets.iter().map(|&at| tuple.value(at).cloned()).collect()) {
            return TriggerOutcome::NotTriggered;
        }
    }
    let Some(slot) = slot else { return TriggerOutcome::NotTriggered };
    counters.compiled_rewrites += 1;
    match plan.trigger(&pending.bound, slot, tuple) {
        Trigger::Mismatch => TriggerOutcome::NotTriggered,
        Trigger::Answer(row) => {
            let before = actions.len();
            // The primary rode every earlier step whatever its insertion
            // time (nothing is filtered on the way), so it is checked
            // against the whole combination like any other subscriber.
            let earliest =
                pending.window_min().map_or(tuple.pub_time(), |m| m.min(tuple.pub_time()));
            if earliest >= pending.query.insert_time {
                let (query, owner) = (pending.query.id, pending.query.owner);
                actions.push(Action::DeliverAnswer { query, owner, row });
            }
            fan_out(pending, earliest, tuple, ctx.catalog, actions);
            if actions.len() == before {
                TriggerOutcome::NotTriggered
            } else {
                TriggerOutcome::Triggered
            }
        }
        Trigger::Child => {
            let new_start = start_rule(pending.window_start(), tuple.pub_time());
            let child = pending.triggered_child(slot, tuple, new_start);
            actions.push(Action::Reindex { pending: Box::new(child) });
            TriggerOutcome::Triggered
        }
    }
}

/// Books the savings a shared trigger realized into the node's counters:
/// each subscriber a re-indexed child serves beyond the first is one `Eval`
/// message that was not sent (counted off the table, a binary search per
/// group), and each answer delivered to a non-primary subscriber is a
/// fanned-out answer.
fn record_sharing(sharing: &mut SharingCounters, primary: QueryId, actions: &[Action]) {
    for action in actions {
        match action {
            Action::Reindex { pending } if !pending.subscribers.is_empty() => {
                sharing.evals_saved += (pending.subscriber_count() as u64).saturating_sub(1);
            }
            Action::Reindex { .. } => {}
            Action::DeliverAnswer { query, .. } if *query != primary => {
                sharing.fanout_answers += 1;
            }
            Action::DeliverAnswer { .. } => {}
        }
    }
}

/// Procedure 2: a node receives a new tuple (at the attribute or value
/// level).
///
/// Returns the actions to perform. The stored queries stay as they are:
/// window-expired ones leave through the node's deadline heap.
pub fn handle_new_tuple(
    state: &mut NodeState,
    ctx: &ProcCtx<'_>,
    tuple: &Arc<Tuple>,
    key: &HashedKey,
    level: IndexLevel,
) -> Vec<Action> {
    let ring = key.ring();
    // A cell ring is never a placement candidate, and hot-key splitting
    // only reads a publication's index keys, so nothing would ever read a
    // RIC entry for it.
    if state.cells.contains_key(&ring) {
        return cell::handle_cell_arrival(state, tuple, ring);
    }
    // The node observes the arrival for RIC purposes regardless of level;
    // the retention horizon keeps the per-key history bounded without being
    // observable by any rate read (no read uses a clock older than the
    // node's own).
    let horizon = RIC_WINDOW + 2 * ctx.config.network_delay.max(1);
    state.ric().record_arrival_bounded(ring, ctx.now, horizon);

    let mut actions = Vec::new();
    // The schema is resolved once per delivery, not once per stored query;
    // published tuples are catalog-validated, so a missing schema cannot
    // occur for tuples that entered through the engine.
    let schema = ctx.catalog.schema(tuple.relation());
    // Disjoint field borrows: the walk resolves candidate handles against
    // the query slab while the trigger index hands them out and the sharing
    // counters book what each trigger saved.
    let queries = &mut state.queries;
    let sharing = &mut state.sharing;
    let tindex = &mut state.trigger_index;
    let counters = &mut state.compile;
    if let (Some(schema), Some(bucket)) = (schema, state.stored_queries.get(&ring)) {
        let walk = Instant::now();
        // The contact set of this arrival: the residual list plus the
        // tuple's value slice of every pinned column (entries skipped here
        // would have rewritten to `Mismatch` — see the `trigger_index`
        // module docs for the soundness argument).
        let mut candidates = std::mem::take(&mut tindex.scratch);
        tindex.collect_candidates(bucket, tuple.as_ref(), schema, &mut candidates);
        for handle in candidates.drain(..) {
            let Some(stored) = queries.get_mut(handle) else { continue };
            let primary = stored.pending.query.id;
            let before = actions.len();
            let outcome =
                try_trigger(stored, tuple, ctx, counters, &mut actions, |start, pub_time| {
                    // Procedure 2 rules (Section 5): a rewritten query created
                    // by triggering an *input* query records the tuple's
                    // publication time as its window start; a rewritten query
                    // created from an already-rewritten query *inherits* the
                    // start unchanged.
                    match start {
                        None => Some(pub_time),
                        Some(existing) => Some(existing),
                    }
                });
            if let TriggerOutcome::Triggered = outcome {
                record_sharing(sharing, primary, &actions[before..]);
            }
        }
        tindex.scratch = candidates;
        counters.eval_nanos += walk.elapsed().as_nanos() as u64;
    }
    match level {
        IndexLevel::Value => {
            // Value-level copies are stored so future rewritten queries can
            // find them (Procedure 2, last step). The payload is shared, not
            // copied.
            state.store_tuple(ring, Arc::clone(tuple));
        }
        IndexLevel::Attribute => {
            // Attribute-level copies are normally discarded; with the ALTT
            // extension (Section 4) they are retained until Δ ticks past
            // their publication so delayed input queries cannot miss them.
            // Publication-anchored deadlines keep the table O(recent):
            // anchoring at the handler clock instead would retain a burst-
            // published backlog forever (the clock already sits at the last
            // publication when the backlog drains).
            if let Some(delta) = ctx.config.altt_delta {
                state.altt_insert(ring, Arc::clone(tuple), tuple.pub_time().saturating_add(delta));
            }
        }
    }
    actions
}

/// Common logic for the arrival of a query (input or rewritten) at the node
/// it has been indexed at: the query is matched against every tuple the node
/// already holds under the same key — value-level stored tuples
/// (Procedure 3) and, when the ALTT extension is enabled, retained
/// attribute-level tuples (Section 4, rule 2) — and is then stored locally
/// so future tuples can trigger it.
fn handle_query_arrival(
    state: &mut NodeState,
    ctx: &ProcCtx<'_>,
    mut pending: PendingQuery,
    key: &HashedKey,
    level: IndexLevel,
) -> Vec<Action> {
    let ring = key.ring();
    let mut actions = Vec::new();
    if !state.adopt(&mut pending, ctx.catalog) {
        return actions;
    }
    let mut stored = StoredQuery::new(pending, key.clone(), level);

    // Both buckets are publication-ordered with their keys inline, so each
    // walk is one binary-searched run over the publication span the query
    // could combine with (see [`admissible_pub_span`]), walked in place in
    // publication order — the arrival allocates nothing per tuple. An ALTT
    // entry is keyed by its deadline `pub + Δ` (one Δ per engine), so the
    // same span shifted by Δ bounds its run, and the run starts no earlier
    // than the delivery tick: that decides ALTT visibility (expiry
    // evicts an entry only once the publication watermark passes it, so
    // physical removal never decides an answer). It is the delivery tick,
    // never the clock: the clock is driver-dependent (a burst publish parks
    // it at the last publication; a shard's clock can run ahead of `at`),
    // while the delivery tick is part of the deterministic message schedule.
    let counters = &mut state.compile;
    let sharing = &mut state.sharing;
    let (lo, hi) = admissible_pub_span(&stored.pending);
    let value_run = state.stored_tuples.get(&ring).map(|bucket| (bucket, key_run(bucket, lo, hi)));
    let (bucket_len, probed) = value_run.as_ref().map_or((0, 0), |(b, run)| (b.len(), run.len()));
    state.trigger_index.note_tuple_probe(bucket_len, probed);
    let retained_run = ctx.config.altt_delta.and_then(|delta| {
        let bucket = state.altt.get(&ring)?;
        let from = lo.saturating_add(delta).max(ctx.at);
        Some((bucket, key_run(bucket, from, hi.saturating_add(delta))))
    });
    let walk = Instant::now();
    let runs = value_run.into_iter().chain(retained_run);
    for (tuple, _) in runs.flat_map(|(bucket, run)| bucket.range(run)) {
        let before = actions.len();
        let outcome =
            try_trigger(&mut stored, tuple, ctx, counters, &mut actions, |start, pub_time| {
                // Procedure 3 rule (Section 5): the produced rewritten query's
                // start is the *maximum* of the stored query's start and the
                // stored tuple's publication time. For input queries (start =
                // None) this reduces to the Procedure 2 rule (start = pubT(τ)).
                match start {
                    None => Some(pub_time),
                    Some(existing) => Some(existing.max(pub_time)),
                }
            });
        if let TriggerOutcome::Triggered = outcome {
            record_sharing(sharing, stored.pending.query.id, &actions[before..]);
        }
        // A stored tuple outside the window simply does not trigger; the
        // query itself stays, waiting for newer tuples.
    }
    counters.eval_nanos += walk.elapsed().as_nanos() as u64;

    // Stored for future tuples — merged into a structurally identical entry
    // instead when the shared sub-join path is enabled and a twin exists.
    // The arrival matching above always runs for the newcomer alone: the
    // twin already consumed the stored tuples for its own subscribers.
    state.store_query_shared(stored, ctx.config.share_subjoins);
    actions
}

/// The closed publication-time span `[lo, hi]` outside of which no stored
/// tuple can pass the pre-dedup gates of [`try_trigger`] for `pending`: the
/// `min_insert_time` floor, the window-validity test against `window_start`,
/// and the sliding contribution-span test against
/// `[window_min, window_max]`. Every gate ahead of the dedup admission is a
/// pure predicate over the tuple's publication time — nothing before
/// `dedup.admit` mutates the entry — so skipping out-of-span tuples is
/// unobservable, which is what lets an arriving query binary-search its
/// publication-ordered buckets instead of scanning them whole. The
/// span is a *superset* of what the gates admit (they still run for every
/// walked tuple); `lo > hi` means no stored tuple can trigger.
fn admissible_pub_span(pending: &PendingQuery) -> (Timestamp, Timestamp) {
    let mut lo = pending.min_insert_time();
    let mut hi = Timestamp::MAX;
    match *pending.query.window() {
        rjoin_query::WindowSpec::None => {}
        rjoin_query::WindowSpec::Sliding { duration, .. } => {
            // `within(a, b)` is `|a - b| + 1 <= duration`, so a tuple can
            // only pass with a publication time within `duration - 1` of
            // the window start, and within `duration - 1` of both ends of
            // the partial combination's contribution span.
            let reach = duration.saturating_sub(1);
            if let Some(start) = pending.window_start() {
                lo = lo.max(start.saturating_sub(reach));
                hi = hi.min(start.saturating_add(reach));
            }
            if let (Some(min), Some(max)) = (pending.window_min(), pending.window_max()) {
                lo = lo.max(max.saturating_sub(reach));
                hi = hi.min(min.saturating_add(reach));
            }
        }
        rjoin_query::WindowSpec::Tumbling { duration, .. } => {
            if let Some(start) = pending.window_start() {
                if duration == 0 {
                    // `within` rejects everything for a zero-length bucket.
                    return (1, 0);
                }
                let base = start - start % duration;
                lo = lo.max(base);
                hi = hi.min(base.saturating_add(duration - 1));
            }
        }
    }
    (lo, hi)
}

/// Handles the arrival of an *input* query at the node it was indexed at.
///
/// The base algorithm simply stores it; with the ALTT extension the node
/// also searches the attribute-level tuple table for tuples that arrived
/// before the query did (Section 4, rule 2). Hypercube cell replicas open
/// a cell instead (see [`cell::handle_hypercube_arrival`]).
pub fn handle_index_query(
    state: &mut NodeState,
    ctx: &ProcCtx<'_>,
    pending: PendingQuery,
    key: &HashedKey,
    level: IndexLevel,
) -> Vec<Action> {
    if pending.query.hypercube.is_some() {
        return cell::handle_hypercube_arrival(state, ctx, pending, key, level);
    }
    handle_query_arrival(state, ctx, pending, key, level)
}

/// Procedure 3: a node receives a rewritten query with an `Eval` message.
///
/// The query is stored locally and matched against every value-level tuple
/// already stored under the same key (tuples that arrived after the original
/// query was submitted but before this rewritten query reached the node), as
/// well as against ALTT-retained attribute-level tuples when that extension
/// is enabled.
pub fn handle_eval(
    state: &mut NodeState,
    ctx: &ProcCtx<'_>,
    pending: PendingQuery,
    key: &HashedKey,
    level: IndexLevel,
) -> Vec<Action> {
    // The query-side heat signal of hot-key splitting: `Eval` arrivals are
    // tracked per key exactly like tuple arrivals, bounded by the same
    // retention horizon.
    let horizon = RIC_WINDOW + 2 * ctx.config.network_delay.max(1);
    state.eval_ric.record(key.ring(), ctx.now, horizon);
    debug_assert!(
        pending.query.hypercube.is_none(),
        "a hypercube cell joins locally and never emits Eval messages"
    );
    handle_query_arrival(state, ctx, pending, key, level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::QueryId;
    use crate::trigger_index::Bucket;
    use rjoin_dht::Id;
    use rjoin_query::{parse_query, rewrite, IndexKey, RewriteResult};
    use rjoin_relation::Schema;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for rel in ["R", "S", "J", "M"] {
            c.register(Schema::new(rel, ["A", "B", "C"]).unwrap()).unwrap();
        }
        c
    }

    fn config() -> EngineConfig {
        EngineConfig::default()
    }

    fn ctx<'a>(catalog: &'a Catalog, config: &'a EngineConfig, now: SimTime) -> ProcCtx<'a> {
        ProcCtx { catalog, config, now, at: now }
    }

    /// Delivers `msg` at tick `at` through the drivers' entry point, which
    /// first advances the node's deadline heap to its publication watermark.
    fn deliver(
        state: &mut NodeState,
        catalog: &Catalog,
        config: &EngineConfig,
        at: SimTime,
        msg: crate::RJoinMessage,
    ) -> Vec<Action> {
        let node = state.id;
        match crate::delivery::handle_node_msg(state, catalog, config, at, at, node, msg) {
            crate::delivery::TickEffect::Node { actions, .. } => actions,
            _ => unreachable!("a node message yields node effects"),
        }
    }

    fn new_tuple(tuple: Arc<Tuple>, key: &IndexKey) -> crate::RJoinMessage {
        crate::RJoinMessage::NewTuple {
            tuple,
            key: key.hashed(),
            level: key.level(),
            publisher: Id(0),
        }
    }

    fn eval(pending: PendingQuery, key: &IndexKey) -> crate::RJoinMessage {
        crate::RJoinMessage::Eval {
            pending,
            key: key.hashed(),
            level: key.level(),
            carried_ric: Vec::new(),
        }
    }

    fn pending(sql: &str, insert_time: u64) -> PendingQuery {
        PendingQuery::input(
            QueryId { owner: Id(42), seq: 1 },
            Id(42),
            insert_time,
            parse_query(sql).unwrap(),
        )
    }

    /// The rewritten query `pending` denotes, built.
    fn materialized(pending: &PendingQuery) -> rjoin_query::JoinQuery {
        pending.plan().materialize(&pending.bound)
    }

    fn tuple(rel: &str, values: [i64; 3], pub_time: u64) -> Arc<Tuple> {
        Arc::new(Tuple::new(rel, values.iter().map(|v| Value::from(*v)).collect(), pub_time))
    }

    /// `input` with its plan attached and `tuples` bound in order, with
    /// window start `start`: the rewritten query the rewrite cascade
    /// reaches by triggering `input` with them.
    fn bind(mut input: PendingQuery, tuples: &[Arc<Tuple>], start: u64) -> PendingQuery {
        let query = Arc::clone(&input.query.query);
        let plan = rjoin_query::RewritePlan::new(query, &catalog()).unwrap();
        input.query.plan.set(Arc::new(plan));
        for tuple in tuples {
            input = input.child(tuple, Some(start));
        }
        input
    }

    #[test]
    fn input_query_triggered_by_matching_tuple() {
        let catalog = catalog();
        let config = config();
        let mut state = NodeState::new(Id(1));
        let p = pending("SELECT R.B, S.B FROM R, S WHERE R.A = S.A", 0);
        let key = IndexKey::attribute("R", "A");
        let actions = handle_index_query(
            &mut state,
            &ctx(&catalog, &config, 0),
            p,
            &key.hashed(),
            key.level(),
        );
        assert!(actions.is_empty());
        assert_eq!(state.stored_query_count(), 1);

        // A matching tuple arrives at the attribute level.
        let actions = handle_new_tuple(
            &mut state,
            &ctx(&catalog, &config, 5),
            &tuple("R", [7, 9, 0], 5),
            &key.hashed(),
            IndexLevel::Attribute,
        );
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::Reindex { pending } => {
                let child = materialized(pending);
                assert_eq!(child.join_count(), 0);
                assert_eq!(child.relations(), &["S".to_string()]);
            }
            other => panic!("unexpected action {other:?}"),
        }
        // Attribute-level tuples are not stored (ALTT disabled by default).
        assert_eq!(state.stored_tuple_count(), 0);
        // The input query remains stored for future tuples.
        assert_eq!(state.stored_query_count(), 1);
    }

    /// Cell arrivals skip the RIC tracker — nothing reads a cell ring's
    /// rate — without changing the cell's answers: two triangles among
    /// noise at one node, then a whole triangle run on the engine.
    #[test]
    fn cell_arrivals_are_not_tracked_for_ric() {
        let catalog = catalog();
        let config = config();
        let mut state = NodeState::new(Id(1));
        let cell = HashedKey::new("hcube+0000000000000001+0");
        let replica = pending(
            "SELECT R.B, S.B, J.B FROM R, S, J WHERE R.A = S.A AND S.C = J.C AND J.A = R.C",
            0,
        );
        let cube = crate::HypercubeRef { base: cell.clone(), cells: 1 };
        let replica = replica.with_hypercube(Some(cube));
        handle_index_query(
            &mut state,
            &ctx(&catalog, &config, 1),
            replica,
            &cell,
            IndexLevel::Value,
        );
        let arrivals = [
            tuple("R", [1, 10, 5], 2),
            tuple("S", [1, 20, 7], 3),
            tuple("S", [2, 21, 7], 4),
            tuple("J", [5, 30, 7], 5),
            tuple("R", [1, 11, 5], 6),
            tuple("J", [6, 31, 7], 7),
        ];
        let mut rows = Vec::new();
        for t in &arrivals {
            let c = ctx(&catalog, &config, t.pub_time());
            for action in handle_new_tuple(&mut state, &c, t, &cell, IndexLevel::Value) {
                let Action::DeliverAnswer { row, .. } = action else {
                    panic!("cells never re-index")
                };
                rows.push(row);
            }
        }
        rows.sort();
        assert_eq!(rows, [[10, 20, 30], [11, 20, 30]].map(|r| r.map(Value::from).to_vec()));
        assert_eq!(state.ric().tracked_keys(), 0, "no cell arrival is recorded");
        let plain = IndexKey::attribute("R", "A").hashed();
        handle_new_tuple(
            &mut state,
            &ctx(&catalog, &config, 8),
            &arrivals[0],
            &plain,
            IndexLevel::Attribute,
        );
        assert!(state.ric().tracks(plain.ring()), "plain arrivals still are");

        let scenario = rjoin_workload::Scenario::cyclic_test();
        let catalog = scenario.workload_schema().build_catalog();
        let mut engine = crate::RJoinEngine::simulated(config, catalog, scenario.nodes);
        let origins = engine.node_ids().to_vec();
        for (i, q) in scenario.generate_queries().into_iter().enumerate() {
            engine.submit_query(origins[i % origins.len()], q).unwrap();
        }
        engine.run_until_quiescent().unwrap();
        for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
            engine.publish_tuple(origins[i % origins.len()], t).unwrap();
        }
        engine.run_until_quiescent().unwrap();
        assert!(!engine.answers().is_empty());
        let states: Vec<&NodeState> =
            origins.iter().map(|id| engine.node_state(*id).unwrap()).collect();
        assert!(states.iter().any(|s| !s.cells.is_empty()));
        for state in states {
            let ric = state.ric();
            assert!(state.cells.keys().all(|ring| !ric.tracks(*ring)), "node {}", state.id);
        }
    }

    #[test]
    fn old_tuples_do_not_trigger() {
        let catalog = catalog();
        let config = config();
        let mut state = NodeState::new(Id(1));
        let p = pending("SELECT R.B, S.B FROM R, S WHERE R.A = S.A", 10);
        let key = IndexKey::attribute("R", "A");
        handle_index_query(&mut state, &ctx(&catalog, &config, 10), p, &key.hashed(), key.level());
        // Tuple published before the query was submitted: no trigger.
        let actions = handle_new_tuple(
            &mut state,
            &ctx(&catalog, &config, 12),
            &tuple("R", [7, 9, 0], 5),
            &key.hashed(),
            IndexLevel::Attribute,
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn value_level_tuple_is_stored_and_triggers_later_eval() {
        let catalog = catalog();
        let config = config();
        let mut state = NodeState::new(Id(1));
        let key = IndexKey::value("M", "C", Value::from(2));

        // Tuple of M arrives first and is stored at the value level.
        let actions = handle_new_tuple(
            &mut state,
            &ctx(&catalog, &config, 3),
            &tuple("M", [9, 1, 2], 3),
            &key.hashed(),
            IndexLevel::Value,
        );
        assert!(actions.is_empty());
        assert_eq!(state.stored_tuple_count(), 1);

        // A rewritten query "SELECT 2, M.A FROM M WHERE M.C = 2" arrives.
        let input = pending("SELECT S.B, M.A FROM S, M WHERE S.B = M.C", 0);
        let rewritten = bind(input, &[tuple("S", [6, 2, 0], 1)], 1);
        let actions = handle_eval(
            &mut state,
            &ctx(&catalog, &config, 5),
            rewritten,
            &key.hashed(),
            key.level(),
        );
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::DeliverAnswer { row, owner, .. } => {
                assert_eq!(row, &vec![Value::from(2), Value::from(9)]);
                assert_eq!(*owner, Id(42));
            }
            other => panic!("unexpected action {other:?}"),
        }
        // The rewritten query is stored for future tuples as well.
        assert_eq!(state.stored_rewritten_count(), 1);
    }

    #[test]
    fn window_expiry_deletes_rewritten_query() {
        let catalog = catalog();
        let config = config();
        let mut state = NodeState::new(Id(1));
        let key = IndexKey::value("S", "A", Value::from(7));
        // A rewritten query with a 10-tuple window that started at time 5.
        let input =
            pending("SELECT R.B, S.B FROM R, S WHERE R.A = S.A WINDOW SLIDING 10 TUPLES", 0);
        let rewritten = bind(input, &[tuple("R", [7, 9, 0], 5)], 5);
        deliver(&mut state, &catalog, &config, 6, eval(rewritten, &key));
        assert_eq!(state.stored_rewritten_count(), 1);

        // A tuple far outside the window arrives: the query is not
        // triggered...
        let late = new_tuple(tuple("S", [7, 3, 0], 100), &key);
        assert!(deliver(&mut state, &catalog, &config, 100, late).is_empty());
        assert_eq!(state.stored_rewritten_count(), 1, "a contact never removes");
        // ...and the next delivery tick's expiry advance deletes it: the
        // tuple lifted the node's publication watermark past the window.
        let next = new_tuple(tuple("S", [8, 3, 0], 101), &key);
        deliver(&mut state, &catalog, &config, 101, next);
        assert_eq!(state.stored_rewritten_count(), 0);
        assert_eq!(state.state_counters().wheel_pops, 1);
    }

    #[test]
    fn window_valid_tuple_triggers_and_inherits_start() {
        let catalog = catalog();
        let config = config();
        let mut state = NodeState::new(Id(1));
        let key = IndexKey::value("S", "A", Value::from(7));
        let input = pending(
            "SELECT R.B, S.B, J.A FROM R, S, J WHERE R.A = S.A AND S.B = J.B WINDOW SLIDING 10 TUPLES",
            0,
        );
        let rewritten = bind(input, &[tuple("R", [7, 9, 0], 5)], 5);
        handle_eval(&mut state, &ctx(&catalog, &config, 6), rewritten, &key.hashed(), key.level());

        let actions = handle_new_tuple(
            &mut state,
            &ctx(&catalog, &config, 12),
            &tuple("S", [7, 3, 0], 12),
            &key.hashed(),
            IndexLevel::Value,
        );
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::Reindex { pending } => {
                // Procedure 2 (incoming tuple): start is inherited unchanged.
                assert_eq!(pending.window_start(), Some(5));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn eval_start_uses_max_of_start_and_tuple_time() {
        let catalog = catalog();
        let config = config();
        let mut state = NodeState::new(Id(1));
        let key = IndexKey::value("S", "A", Value::from(7));
        // A stored tuple published at time 20.
        handle_new_tuple(
            &mut state,
            &ctx(&catalog, &config, 20),
            &tuple("S", [7, 3, 0], 20),
            &key.hashed(),
            IndexLevel::Value,
        );
        let input = pending(
            "SELECT R.B, S.B, J.A FROM R, S, J WHERE R.A = S.A AND S.B = J.B WINDOW SLIDING 50 TUPLES",
            0,
        );
        let rewritten = bind(input, &[tuple("R", [7, 9, 0], 5)], 5);
        let actions = handle_eval(
            &mut state,
            &ctx(&catalog, &config, 25),
            rewritten,
            &key.hashed(),
            key.level(),
        );
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::Reindex { pending } => {
                // Procedure 3: start = max(start(q1), pubT(τ)) = max(5, 20).
                assert_eq!(pending.window_start(), Some(20));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    /// Regression for the exact sliding-window span: a combination that
    /// picks up an *older* stored tuple late passes the paper's pairwise
    /// `|start - now|` test (start follows the max under Procedure 3) but
    /// its true span already exceeds the window — it must not trigger.
    #[test]
    fn sliding_window_span_counts_oldest_contribution() {
        let catalog = catalog();
        let config = config();
        let mut state = NodeState::new(Id(1));
        let skey = IndexKey::value("S", "A", Value::from(7));
        // A stored S tuple published at 5.
        handle_new_tuple(
            &mut state,
            &ctx(&catalog, &config, 5),
            &tuple("S", [7, 3, 0], 5),
            &skey.hashed(),
            IndexLevel::Value,
        );
        // A rewritten query created by an R tuple published at 10 (window 8).
        let input = pending(
            "SELECT R.B, J.A FROM R, S, J WHERE R.A = S.A AND S.B = J.B WINDOW SLIDING 8 TUPLES",
            0,
        );
        let rewritten = bind(input, &[tuple("R", [7, 9, 0], 10)], 10);
        // Procedure 3 picks up the stored tuple: start = max(10, 5) = 10,
        // but the true span is now [5, 10].
        let actions = handle_eval(
            &mut state,
            &ctx(&catalog, &config, 11),
            rewritten,
            &skey.hashed(),
            skey.level(),
        );
        assert_eq!(actions.len(), 1);
        let child = match &actions[0] {
            Action::Reindex { pending } => pending.clone(),
            other => panic!("unexpected action {other:?}"),
        };
        assert_eq!(child.window_start(), Some(10), "paper rule: start = max(start, pubT)");
        assert_eq!((child.window_min(), child.window_max()), (Some(5), Some(10)));

        // A J tuple published at 13: pairwise |10 - 13| + 1 = 4 <= 8 passes,
        // but the combination's span [5, 13] = 9 exceeds the window.
        let jkey = IndexKey::value("J", "B", Value::from(3));
        let mut state2 = NodeState::new(Id(2));
        handle_eval(&mut state2, &ctx(&catalog, &config, 12), *child, &jkey.hashed(), jkey.level());
        let actions = handle_new_tuple(
            &mut state2,
            &ctx(&catalog, &config, 13),
            &tuple("J", [1, 3, 0], 13),
            &jkey.hashed(),
            IndexLevel::Value,
        );
        assert!(actions.is_empty(), "a combination spanning more than the window must not fire");
        // The entry is *not* expired: a J tuple inside the span still fires.
        assert_eq!(state2.stored_rewritten_count(), 1);
        let actions = handle_new_tuple(
            &mut state2,
            &ctx(&catalog, &config, 14),
            &tuple("J", [2, 3, 0], 12),
            &jkey.hashed(),
            IndexLevel::Value,
        );
        assert_eq!(actions.len(), 1, "a within-span tuple must still complete the join");
    }

    #[test]
    fn distinct_query_not_triggered_twice_by_same_projection() {
        let catalog = catalog();
        let config = config();
        let mut state = NodeState::new(Id(1));
        let key = IndexKey::value("S", "B", Value::from(2));
        let input = pending("SELECT DISTINCT R.A, S.A FROM R, S WHERE R.B = S.B", 0);
        let rewritten = bind(input, &[tuple("R", [1, 2, 0], 1)], 1);
        handle_eval(&mut state, &ctx(&catalog, &config, 2), rewritten, &key.hashed(), key.level());

        // Two tuples with the same projection on S's referenced attributes
        // (A and B): only the first triggers.
        let first = handle_new_tuple(
            &mut state,
            &ctx(&catalog, &config, 3),
            &tuple("S", [5, 2, 100], 3),
            &key.hashed(),
            IndexLevel::Value,
        );
        let second = handle_new_tuple(
            &mut state,
            &ctx(&catalog, &config, 4),
            &tuple("S", [5, 2, 999], 4),
            &key.hashed(),
            IndexLevel::Value,
        );
        assert_eq!(first.len(), 1);
        assert!(second.is_empty());
    }

    #[test]
    fn altt_lets_delayed_query_catch_earlier_tuple() {
        let catalog = catalog();
        let config = EngineConfig::default().with_altt(100);
        let mut state = NodeState::new(Id(1));
        let key = IndexKey::attribute("R", "A");

        // The tuple arrives *before* the query (message delay scenario of
        // Example 1); with the ALTT it is retained.
        handle_new_tuple(
            &mut state,
            &ctx(&catalog, &config, 5),
            &tuple("R", [7, 9, 0], 5),
            &key.hashed(),
            IndexLevel::Attribute,
        );
        let p = pending("SELECT R.B, S.B FROM R, S WHERE R.A = S.A", 2);
        let actions = handle_index_query(
            &mut state,
            &ctx(&catalog, &config, 9),
            p,
            &key.hashed(),
            key.level(),
        );
        assert_eq!(actions.len(), 1, "the retained tuple must trigger the delayed query");
    }

    #[test]
    fn without_altt_delayed_query_misses_earlier_tuple() {
        let catalog = catalog();
        let config = config(); // ALTT disabled
        let mut state = NodeState::new(Id(1));
        let key = IndexKey::attribute("R", "A");
        handle_new_tuple(
            &mut state,
            &ctx(&catalog, &config, 5),
            &tuple("R", [7, 9, 0], 5),
            &key.hashed(),
            IndexLevel::Attribute,
        );
        let p = pending("SELECT R.B, S.B FROM R, S WHERE R.A = S.A", 2);
        let actions = handle_index_query(
            &mut state,
            &ctx(&catalog, &config, 9),
            p,
            &key.hashed(),
            key.level(),
        );
        assert!(actions.is_empty(), "base algorithm discards attribute-level tuples");
    }

    fn shared_config() -> EngineConfig {
        EngineConfig::default().with_subjoin_sharing(true)
    }

    fn pending_from(owner: u64, sql: &str, insert_time: u64) -> PendingQuery {
        PendingQuery::input(
            QueryId { owner: Id(owner), seq: owner },
            Id(owner),
            insert_time,
            parse_query(sql).unwrap(),
        )
    }

    /// Two overlapping input queries merge at the node; a triggering tuple
    /// rewrites the shared entry once and the single produced `Eval` carries
    /// both subscribers: the primary's SELECT list rewritten with the query,
    /// the other one's untouched, next to the tuple it will be projected
    /// from.
    #[test]
    fn shared_entry_reindexes_once_with_subscribers() {
        let catalog = catalog();
        let config = shared_config();
        let mut state = NodeState::new(Id(1));
        let key = IndexKey::attribute("R", "A");
        let a = pending_from(10, "SELECT R.B, S.B FROM R, S WHERE R.A = S.A", 0);
        let b = pending_from(20, "SELECT S.C, R.C FROM R, S WHERE R.A = S.A", 0);
        let b_select = b.query.select().to_vec();
        handle_index_query(&mut state, &ctx(&catalog, &config, 0), a, &key.hashed(), key.level());
        handle_index_query(&mut state, &ctx(&catalog, &config, 1), b, &key.hashed(), key.level());
        assert_eq!(state.stored_query_count(), 1, "the twin must merge, not stack");

        let r_tuple = tuple("R", [7, 9, 2], 5);
        let actions = handle_new_tuple(
            &mut state,
            &ctx(&catalog, &config, 5),
            &r_tuple,
            &key.hashed(),
            IndexLevel::Attribute,
        );
        // One rewrite, one re-index — not one per input query.
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::Reindex { pending } => {
                assert_eq!(pending.subscriber_count(), 2);
                assert_eq!(pending.query.id, QueryId { owner: Id(10), seq: 10 });
                // Primary SELECT: R.B resolved to 9.
                assert_eq!(
                    pending.select_items()[0],
                    rjoin_query::SelectItem::Const(Value::from(9))
                );
                // The subscriber rides as merged; R.C is still an attribute
                // reference, resolved from the bound tuple at fan-out.
                let [group] = pending.subscribers.groups() else { panic!("one group") };
                let [sub] = group.subscribers() else { panic!("one subscriber") };
                assert_eq!(sub.id, QueryId { owner: Id(20), seq: 20 });
                assert_eq!(sub.select, b_select);
                assert!(Arc::ptr_eq(&group.bound()[0], &r_tuple));
            }
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(state.sharing().evals_saved, 1);
    }

    /// A completing tuple fans one answer out to every subscriber, each with
    /// its own resolved SELECT row.
    #[test]
    fn shared_completion_fans_out_per_subscriber() {
        let catalog = catalog();
        let config = shared_config();
        let mut state = NodeState::new(Id(1));
        let key = IndexKey::attribute("S", "A");
        let a = pending_from(10, "SELECT S.B FROM S, R WHERE S.A = R.A", 0);
        let b = pending_from(20, "SELECT S.C, S.B FROM S, R WHERE S.A = R.A", 0);
        handle_index_query(&mut state, &ctx(&catalog, &config, 0), a, &key.hashed(), key.level());
        handle_index_query(&mut state, &ctx(&catalog, &config, 0), b, &key.hashed(), key.level());
        assert_eq!(state.stored_query_count(), 1);

        // S arrives: the shared entry rewrites into "... FROM R WHERE R.A=7"
        // carrying both subscribers.
        let actions = handle_new_tuple(
            &mut state,
            &ctx(&catalog, &config, 2),
            &tuple("S", [7, 8, 9], 2),
            &key.hashed(),
            IndexLevel::Attribute,
        );
        assert_eq!(actions.len(), 1);
        let child = match &actions[0] {
            Action::Reindex { pending } => pending.clone(),
            other => panic!("unexpected action {other:?}"),
        };

        // The child arrives at the value-level node where a matching R tuple
        // is already stored: both subscribers get their own answer.
        let vkey = IndexKey::value("R", "A", Value::from(7));
        let mut state2 = NodeState::new(Id(2));
        handle_new_tuple(
            &mut state2,
            &ctx(&catalog, &config, 3),
            &tuple("R", [7, 1, 1], 3),
            &vkey.hashed(),
            IndexLevel::Value,
        );
        let answers = handle_eval(
            &mut state2,
            &ctx(&catalog, &config, 4),
            *child,
            &vkey.hashed(),
            vkey.level(),
        );
        assert_eq!(answers.len(), 2);
        match (&answers[0], &answers[1]) {
            (
                Action::DeliverAnswer { query: q1, row: r1, owner: o1 },
                Action::DeliverAnswer { query: q2, row: r2, owner: o2 },
            ) => {
                assert_eq!(
                    (*q1, o1, r1.clone()),
                    (QueryId { owner: Id(10), seq: 10 }, &Id(10), vec![Value::from(8)])
                );
                assert_eq!(
                    (*q2, o2, r2.clone()),
                    (
                        QueryId { owner: Id(20), seq: 20 },
                        &Id(20),
                        vec![Value::from(9), Value::from(8)]
                    )
                );
            }
            other => panic!("unexpected actions {other:?}"),
        }
        assert_eq!(state2.sharing().fanout_answers, 1);
    }

    /// A tuple published before the primary subscriber's insertion time but
    /// after another subscriber's still triggers the shared entry. Nobody is
    /// promoted or filtered on the way: the child keeps its primary, and the
    /// completion serves exactly the subscriber the whole combination is
    /// eligible for.
    #[test]
    fn ineligible_primary_is_not_served_but_extras_are() {
        let catalog = catalog();
        let config = shared_config();
        let mut state = NodeState::new(Id(1));
        let key = IndexKey::attribute("R", "A");
        // Early subscriber (insert_time 0) merged into a late primary
        // (insert_time 10): merge order makes the late one primary.
        let late = pending_from(10, "SELECT R.B, S.B FROM R, S WHERE R.A = S.A", 10);
        let early = pending_from(20, "SELECT R.C, S.C FROM R, S WHERE R.A = S.A", 0);
        handle_index_query(
            &mut state,
            &ctx(&catalog, &config, 10),
            late,
            &key.hashed(),
            key.level(),
        );
        handle_index_query(
            &mut state,
            &ctx(&catalog, &config, 10),
            early,
            &key.hashed(),
            key.level(),
        );
        assert_eq!(state.stored_query_count(), 1);

        // Published at time 5: before the primary's submission, after the
        // other subscriber's.
        let actions = handle_new_tuple(
            &mut state,
            &ctx(&catalog, &config, 11),
            &tuple("R", [7, 9, 2], 5),
            &key.hashed(),
            IndexLevel::Attribute,
        );
        let [Action::Reindex { pending: child }] = actions.as_slice() else {
            panic!("one child expected, got {actions:?}");
        };
        assert_eq!(child.subscriber_count(), 1, "the ineligible primary is no longer served");
        assert_eq!(child.window_min(), Some(5));
        assert_eq!(state.sharing().evals_saved, 0, "one subscriber served, nothing saved");

        // An S tuple published at 12 completes the join — after *both*
        // submissions, yet only the early subscriber gets the answer: the
        // combination contains the tuple of time 5.
        let vkey = IndexKey::value("S", "A", Value::from(7));
        let mut state2 = NodeState::new(Id(2));
        handle_eval(
            &mut state2,
            &ctx(&catalog, &config, 11),
            (**child).clone(),
            &vkey.hashed(),
            vkey.level(),
        );
        let answers = handle_new_tuple(
            &mut state2,
            &ctx(&catalog, &config, 12),
            &tuple("S", [7, 3, 4], 12),
            &vkey.hashed(),
            IndexLevel::Value,
        );
        assert_eq!(
            answers,
            vec![Action::DeliverAnswer {
                query: QueryId { owner: Id(20), seq: 20 },
                owner: Id(20),
                row: vec![Value::from(2), Value::from(4)],
            }]
        );
    }

    /// Regression for the stale-slot-after-expiry path: when a tuple exceeds
    /// the window of one of several registered entries of a bucket and the
    /// heap then removes it, the dying entry's registry slot must be
    /// unregistered (and only its own), so a later twin of the survivor
    /// still merges and a twin of the expired entry re-registers cleanly
    /// instead of resolving a dangling reference. With positional slots
    /// this required revalidating every slot on use; with slab handles the
    /// single `unregister` in the expiry pop is sufficient — which is
    /// exactly what this test pins.
    #[test]
    fn contact_expiry_unregisters_only_its_own_slot() {
        let catalog = catalog();
        let config = shared_config();
        let mut state = NodeState::new(Id(1));
        let key = IndexKey::value("J", "B", Value::from(3));
        let rewritten = |owner: u64, start: u64| {
            let input = pending_from(
                owner,
                "SELECT R.B, J.A FROM R, S, J WHERE R.A = S.A AND S.B = J.B WINDOW SLIDING 8 TUPLES",
                0,
            );
            bind(input, &[tuple("R", [7, 9, 0], start)], start)
        };
        // Two structurally identical entries with different window starts:
        // they register two distinct slots under the same ring key.
        deliver(&mut state, &catalog, &config, 11, eval(rewritten(10, 10), &key));
        deliver(&mut state, &catalog, &config, 51, eval(rewritten(20, 50), &key));
        assert_eq!(state.stored_query_count(), 2);
        assert_eq!(state.subjoins().len(), 2);

        // A tuple at 55 exceeds the start-10 entry's window (|10-55|+1 > 8)
        // while the start-50 entry stays within its window.
        let exceeding = new_tuple(tuple("J", [1, 3, 0], 55), &key);
        deliver(&mut state, &catalog, &config, 55, exceeding);
        assert_eq!(state.stored_query_count(), 2, "a contact never removes");

        // A twin of the survivor, delivered at the next tick: expiry
        // first deletes the start-10 entry, then the twin still merges into
        // the survivor...
        deliver(&mut state, &catalog, &config, 56, eval(rewritten(30, 50), &key));
        assert_eq!(state.state_counters().wheel_pops, 1, "the start-10 entry left by expiry");
        assert_eq!(state.stored_query_count(), 1, "the survivor's slot must still resolve");
        assert_eq!(state.subjoins().len(), 1, "the expired entry's slot was unregistered");
        assert_eq!(state.sharing().merged_queries, 1);
        // ...and a twin of the expired entry re-registers a fresh slot.
        deliver(&mut state, &catalog, &config, 56, eval(rewritten(40, 10), &key));
        assert_eq!(state.stored_query_count(), 2);
        assert_eq!(state.subjoins().len(), 2);
    }

    /// DISTINCT queries never share: their dedup projection depends on the
    /// SELECT list that sharing abstracts away.
    #[test]
    fn distinct_queries_are_not_shared() {
        let catalog = catalog();
        let config = shared_config();
        let mut state = NodeState::new(Id(1));
        let key = IndexKey::attribute("R", "A");
        let a = pending_from(10, "SELECT DISTINCT R.B, S.B FROM R, S WHERE R.A = S.A", 0);
        let b = pending_from(20, "SELECT DISTINCT R.C, S.C FROM R, S WHERE R.A = S.A", 0);
        handle_index_query(&mut state, &ctx(&catalog, &config, 0), a, &key.hashed(), key.level());
        handle_index_query(&mut state, &ctx(&catalog, &config, 0), b, &key.hashed(), key.level());
        assert_eq!(state.stored_query_count(), 2);
        assert_eq!(state.sharing().merged_queries, 0);
    }

    #[test]
    fn windowless_queries_never_expire() {
        let catalog = catalog();
        let config = config();
        let mut state = NodeState::new(Id(1));
        let key = IndexKey::attribute("R", "A");
        let p = pending("SELECT R.B, S.B FROM R, S WHERE R.A = S.A", 0);
        handle_index_query(&mut state, &ctx(&catalog, &config, 0), p, &key.hashed(), key.level());
        // Even a very late tuple triggers the (windowless) input query.
        let actions = handle_new_tuple(
            &mut state,
            &ctx(&catalog, &config, 1_000_000),
            &tuple("R", [1, 2, 3], 1_000_000),
            &key.hashed(),
            IndexLevel::Attribute,
        );
        assert_eq!(actions.len(), 1);
        assert_eq!(state.stored_query_count(), 1);
    }

    /// Builds a deliberately malformed query — `SELECT` referencing a
    /// relation absent from `FROM` — by mutating the serialized form of a
    /// valid query. `JoinQuery::new` and the parser both reject this shape,
    /// but serde round-trips (like `from_parts_unchecked` inside the query
    /// crate) are unvalidated, which is exactly the hole the rewrite paths
    /// must stay robust against.
    fn orphan_select_query() -> rjoin_query::JoinQuery {
        use serde::json::JsonValue;
        use serde::{Deserialize, Serialize};
        let mut v = parse_query("SELECT R.B FROM R WHERE R.A = 7").unwrap().serialize_json();
        let JsonValue::Object(fields) = &mut v else { panic!("queries serialize to objects") };
        let (_, select) = fields.iter_mut().find(|(k, _)| k == "select").unwrap();
        let JsonValue::Array(items) = select else { panic!("SELECT is an array") };
        let JsonValue::Object(variant) = &mut items[0] else {
            panic!("select items are externally tagged")
        };
        let JsonValue::Object(attr) = &mut variant[0].1 else {
            panic!("attribute refs are objects")
        };
        let (_, relation) = attr.iter_mut().find(|(k, _)| k == "relation").unwrap();
        *relation = JsonValue::Str("M".into());
        rjoin_query::JoinQuery::deserialize_json(&v).unwrap()
    }

    /// Regression for the `Partial`-with-empty-`FROM` wart: a trigger that
    /// resolves the whole `WHERE` clause but leaves a `SELECT` attribute
    /// unresolvable must not re-index (and thus never store) an empty-`FROM`
    /// child. Such a query has no plan: submission refuses it, and so does
    /// a node it reaches without one.
    #[test]
    fn orphan_select_never_stores_an_empty_from_child() {
        let catalog = catalog();
        let config = config();
        let mut state = NodeState::new(Id(1));
        let key = IndexKey::attribute("R", "A");
        let id = QueryId { owner: Id(42), seq: 9 };
        let refused = PendingQuery::submitted(id, Id(42), 0, orphan_select_query(), &catalog);
        assert!(matches!(refused, Err(rjoin_query::QueryError::UnknownQueryRelation { .. })));
        let p = PendingQuery::input(id, Id(42), 0, orphan_select_query());
        handle_index_query(&mut state, &ctx(&catalog, &config, 0), p, &key.hashed(), key.level());
        let actions = handle_new_tuple(
            &mut state,
            &ctx(&catalog, &config, 5),
            &tuple("R", [7, 9, 0], 5),
            &key.hashed(),
            IndexLevel::Attribute,
        );
        assert!(actions.is_empty(), "an unresolvable SELECT must not trigger: {actions:?}");
        assert_eq!(state.stored_query_count(), 0, "refused on arrival: it has no plan");
        for bucket in state.stored_queries.values() {
            for handle in bucket.handles() {
                let stored = state.queries.get(handle).unwrap();
                assert!(
                    !stored.pending.query.relations().is_empty(),
                    "no empty-FROM query may ever be stored"
                );
            }
        }
    }

    /// Plans are per query, not per shape: two input queries that differ
    /// only in `SELECT`, handed to the node without their plans, each
    /// compile their own on arrival (two compiles), and every trigger runs
    /// on it: nothing more is compiled or looked up.
    #[test]
    fn fingerprint_twins_share_one_compiled_program() {
        let catalog = catalog();
        let config = config();
        let mut state = NodeState::new(Id(1));
        let key = IndexKey::attribute("R", "A");
        let a = pending_from(10, "SELECT R.B, S.B FROM R, S WHERE R.A = S.A", 0);
        let b = pending_from(20, "SELECT R.C, S.C FROM R, S WHERE R.A = S.A", 0);
        handle_index_query(&mut state, &ctx(&catalog, &config, 0), a, &key.hashed(), key.level());
        handle_index_query(&mut state, &ctx(&catalog, &config, 0), b, &key.hashed(), key.level());
        assert_eq!(state.compile_counters().programs_compiled, 2, "each compiles on arrival");
        for pub_time in [5, 6] {
            let actions = handle_new_tuple(
                &mut state,
                &ctx(&catalog, &config, pub_time),
                &tuple("R", [7, 9, 0], pub_time),
                &key.hashed(),
                IndexLevel::Attribute,
            );
            assert_eq!(actions.len(), 2);
        }
        let counters = state.compile_counters();
        assert_eq!(counters.programs_compiled, 2, "{counters:?}");
        assert_eq!(counters.cache_hits, 0, "{counters:?}");
        assert_eq!(counters.compiled_rewrites, 4, "{counters:?}");
        assert_eq!(state.inputs.len(), 2, "two input queries registered");
    }

    /// Every descendant of an input query reads through the input query's
    /// one plan: two rewritten queries that bound the same relation to
    /// different values hold the very same plan, yet each emits its own
    /// child — the one `rewrite` derives — and each child's candidate keys,
    /// instantiated from the plan's per-mask memo, are `candidate_keys` of
    /// that child.
    #[test]
    fn rewritten_queries_of_one_shape_share_one_program_and_emit_their_own_children() {
        let catalog = catalog();
        let config = config();
        let mut state = NodeState::new(Id(1));
        let input =
            bind(pending("SELECT R.B, J.A FROM R, S, J WHERE R.A = S.A AND S.B = J.B", 0), &[], 0);
        let rewritten = |bound: i64| input.child(&tuple("R", [bound, 9, 0], 1), Some(1));
        let mut children = Vec::new();
        for (bound, joined) in [(7, 3), (8, 4)] {
            let key = IndexKey::value("S", "A", Value::from(bound));
            let p = rewritten(bound);
            handle_eval(&mut state, &ctx(&catalog, &config, 2), p, &key.hashed(), key.level());
            let s_tuple = tuple("S", [bound, joined, 0], 5);
            let actions = handle_new_tuple(
                &mut state,
                &ctx(&catalog, &config, 5),
                &s_tuple,
                &key.hashed(),
                IndexLevel::Value,
            );
            let [Action::Reindex { pending: child }] = actions.as_slice() else {
                panic!("one child expected, got {actions:?}");
            };
            let parent = materialized(&rewritten(bound));
            let expected = rewrite(&parent, &s_tuple, catalog.schema("S").unwrap());
            assert_eq!(expected.unwrap(), RewriteResult::Partial(materialized(child)));
            children.push(child.clone());
        }
        assert_ne!(
            materialized(&children[0]),
            materialized(&children[1]),
            "each emits its own child"
        );

        let plans: Vec<_> = state
            .stored_queries
            .values()
            .flat_map(Bucket::handles)
            .map(|handle| state.queries.get(handle).unwrap().pending.plan())
            .collect();
        assert_eq!(plans.len(), 2);
        assert!(Arc::ptr_eq(plans[0], plans[1]), "one query, one plan");
        assert!(Arc::ptr_eq(plans[0], input.plan()), "carried, not compiled");
        let counters = state.compile_counters();
        assert_eq!(counters.programs_compiled, 0, "{counters:?}");

        for child in &children {
            let plan = child.plan();
            let keys: Vec<_> = plan
                .keys(child.bound.mask())
                .iter()
                .map(|key| key.index_key(plan, &child.bound))
                .collect();
            assert_eq!(keys, rjoin_query::candidate_keys(&materialized(child)));
        }
    }

    /// One value-level key whose bucket grows from a single vacuously pinned
    /// entry past the point a discriminating column appears (the bucket is
    /// partitioned), then shrinks back to nothing through window expiry —
    /// probed by tuples all along. Every arrival must emit exactly the
    /// children of a linear walk over the bucket's live entries, each
    /// rewritten by the reference `rjoin_query::rewrite`.
    #[test]
    fn a_growing_and_shrinking_bucket_matches_the_linear_walk() {
        let catalog = catalog();
        let config = config();
        let schema = catalog.schema("S").unwrap();
        let key = IndexKey::value("S", "A", Value::from(7));
        // Binding R to `(7, 9, c)` leaves `S.A = 7 [AND S.C = c] AND S.B = J.B`.
        let unpinned = pending(
            "SELECT R.B, J.A FROM R, S, J WHERE R.A = S.A AND S.B = J.B WINDOW SLIDING 8 TUPLES",
            0,
        );
        let pinned = pending(
            "SELECT R.B, J.A FROM R, S, J WHERE R.A = S.A AND R.C = S.C AND S.B = J.B \
             WINDOW SLIDING 8 TUPLES",
            0,
        );
        let window = *unpinned.query.window();
        // The live entries a linear walk would contact: `(query, window start)`.
        type Walked = Vec<(rjoin_query::JoinQuery, u64)>;
        let eval = |state: &mut NodeState, walked: &mut Walked, pinned_c: Option<i64>, start| {
            let input = if pinned_c.is_some() { &pinned } else { &unpinned };
            let r = tuple("R", [7, 9, pinned_c.unwrap_or(0)], start);
            let child = bind(input.clone(), &[r], start);
            let query = materialized(&child);
            handle_eval(state, &ctx(&catalog, &config, start), child, &key.hashed(), key.level());
            walked.push((query, start));
        };
        // An S tuple `(7, 3, c)` published at `pub_time`: the node's children
        // against the walk's, as `(query, window start)`; returns how many.
        let probe = |state: &mut NodeState, walked: &mut Walked, c: i64, pub_time: u64| {
            state.advance_expiry(pub_time);
            let arrival = tuple("S", [7, 3, c], pub_time);
            let actions = handle_new_tuple(
                state,
                &ctx(&catalog, &config, pub_time),
                &arrival,
                &key.hashed(),
                IndexLevel::Value,
            );
            let mut emitted: Vec<(String, Option<u64>)> = actions
                .iter()
                .map(|action| match action {
                    Action::Reindex { pending } => {
                        (materialized(pending).to_string(), pending.window_start())
                    }
                    other => panic!("a partial join only re-indexes, got {other:?}"),
                })
                .collect();
            walked.retain(|(_, start)| window.within(*start, pub_time));
            let mut expected: Vec<(String, Option<u64>)> = walked
                .iter()
                .filter_map(|(query, start)| match rewrite(query, &arrival, schema) {
                    Ok(RewriteResult::Partial(child)) => Some((child.to_string(), Some(*start))),
                    _ => None,
                })
                .collect();
            emitted.sort();
            expected.sort();
            assert_eq!(emitted, expected, "tuple C = {c} published at {pub_time}");
            emitted.len()
        };
        let mut state = NodeState::new(Id(1));
        let mut walked = Walked::new();
        let (s, w) = (&mut state, &mut walked);

        eval(s, w, None, 10);
        assert_eq!(probe(s, w, 5, 11), 1, "the lone entry fires");
        eval(s, w, None, 11);
        let high_water = |s: &NodeState| s.probe_counters().index_entries_high_water;
        assert_eq!(high_water(s), 0, "no bucket partitioned so far");
        eval(s, w, Some(5), 12);
        eval(s, w, Some(6), 13);
        assert_eq!(high_water(s), 4, "all four entries in the partitioned bucket");
        assert_eq!(probe(s, w, 5, 14), 3, "two vacuous pins and C = 5");
        assert_eq!(probe(s, w, 6, 15), 3, "two vacuous pins and C = 6");
        assert_eq!(probe(s, w, 1, 16), 2, "no pinned slice matches");
        eval(s, w, None, 16);
        // The window (8 ticks from each entry's start) closes entry by entry.
        assert_eq!(probe(s, w, 5, 19), 2, "starts 10 and 11 are out");
        assert_eq!(probe(s, w, 6, 21), 1, "only start 16 is left");
        assert_eq!(probe(s, w, 5, 40), 0, "everything expired");
        assert!(w.is_empty(), "the walk has nothing left to contact");
        s.advance_expiry(100);
        assert_eq!(s.stored_query_count(), 0);
        assert!(s.stored_queries.is_empty(), "the bucket went with its last entry");
        eval(s, w, None, 100);
        assert_eq!(probe(s, w, 5, 101), 1, "the key starts over");
    }

    /// A query arrives at a node whose value-level and ALTT buckets were
    /// filled out of publication order — a late tuple each, then a bucket
    /// absorbed from another node that is older than what the node holds —
    /// with ALTT deadlines on both sides of the delivery tick. For an
    /// unwindowed, a sliding and a tumbling query, completing and partial
    /// alike, the arrival must emit exactly the answers and children of a
    /// linear walk over every stored and every still-visible retained
    /// tuple, each rewritten by the reference `rjoin_query::rewrite`. The
    /// heap then leaves nothing overdue.
    #[test]
    fn a_query_over_out_of_order_buckets_matches_the_linear_walk() {
        const DELTA: u64 = 10;
        const AT: u64 = 30;
        const START: u64 = 25;
        let catalog = catalog();
        let config = EngineConfig::default().with_altt(DELTA);
        let schema = catalog.schema("S").unwrap();
        let ring = IndexKey::value("S", "A", Value::from(7)).hashed().ring();
        let s_tuple = |pub_time: u64| tuple("S", [7, pub_time as i64, 0], pub_time);
        // Held in order, then one late arrival, then an older absorbed bucket.
        let (stored, late_stored, absorbed_stored) = ([20, 24, 30], 22, [12, 15]);
        // Retained until pub + Δ: 14 and 18 are past the delivery tick.
        let (retained, late_retained, absorbed_retained) = ([21, 26, 33], 23, [14, 18]);
        let build = || {
            let mut state = NodeState::new(Id(1));
            let mut donor = NodeState::new(Id(2));
            for p in stored.into_iter().chain([late_stored]) {
                state.store_tuple(ring, s_tuple(p));
            }
            for p in retained.into_iter().chain([late_retained]) {
                state.altt_insert(ring, s_tuple(p), p + DELTA);
            }
            state.recount();
            for p in absorbed_stored {
                donor.store_tuple(ring, s_tuple(p));
            }
            for p in absorbed_retained {
                donor.altt_insert(ring, s_tuple(p), p + DELTA);
            }
            state.absorb(donor.into_drained(), false);
            state.recount();
            state
        };
        let all_retained = retained.into_iter().chain([late_retained]).chain(absorbed_retained);
        let visible: Vec<u64> = stored
            .into_iter()
            .chain([late_stored])
            .chain(absorbed_stored)
            .chain(all_retained.filter(|p| p + DELTA >= AT))
            .collect();
        assert_eq!(visible.len(), 10, "the retained 14 and 18 expired before tick {AT}");

        for window in ["", " WINDOW SLIDING 8 TUPLES", " WINDOW TUMBLING 10 TUPLES"] {
            let shapes = [
                ("SELECT R.B, S.B FROM R, S WHERE R.A = S.A", "SELECT 9, S.B FROM S WHERE S.A = 7"),
                (
                    "SELECT R.B, S.B, J.A FROM R, S, J WHERE R.A = S.A AND S.B = J.B",
                    "SELECT 9, S.B, J.A FROM S, J WHERE S.A = 7 AND S.B = J.B",
                ),
            ];
            for (input_sql, sql) in shapes {
                let input = pending(&format!("{input_sql}{window}"), 13);
                let query = parse_query(&format!("{sql}{window}")).unwrap();
                let child = bind(input.clone(), &[tuple("R", [7, 9, 0], START)], START);
                assert_eq!(materialized(&child), query);
                let window_spec = *query.window();
                let mut expected: Vec<String> = visible
                    .iter()
                    .filter(|&&p| p >= input.query.insert_time && window_spec.within(START, p))
                    .filter_map(|&p| match rewrite(&query, &s_tuple(p), schema).unwrap() {
                        RewriteResult::Complete(row) => Some(format!("answer {row:?}")),
                        RewriteResult::Partial(q1) => {
                            Some(format!("child {q1} from {}", START.max(p)))
                        }
                        RewriteResult::Mismatch => None,
                    })
                    .collect();
                let mut state = build();
                let key = IndexKey::value("S", "A", Value::from(7)).hashed();
                let actions = handle_eval(
                    &mut state,
                    &ctx(&catalog, &config, AT),
                    child,
                    &key,
                    IndexLevel::Value,
                );
                let mut emitted: Vec<String> = actions
                    .iter()
                    .map(|action| match action {
                        Action::DeliverAnswer { row, .. } => format!("answer {row:?}"),
                        Action::Reindex { pending } => format!(
                            "child {} from {}",
                            materialized(pending),
                            pending.window_start().unwrap()
                        ),
                    })
                    .collect();
                emitted.sort();
                expected.sort();
                assert!(!expected.is_empty());
                assert_eq!(emitted, expected, "{sql}{window}");

                for target in [AT, 100] {
                    state.advance_expiry(target);
                    assert_eq!(state.overdue_entries(target), 0, "{sql}{window} at {target}");
                    state.recount();
                }
                assert!(state.altt.is_empty(), "every retention ended before 100");
            }
        }
    }

    /// A query whose plan does not compile gets none and is refused on
    /// arrival, input and rewritten alike; copies of one query that arrive
    /// separately, as two wire hops deliver them, are pointed at one input
    /// query and compile one plan between them.
    #[test]
    fn irrelevant_contacts_and_failed_compiles_leave_the_program_cache_alone() {
        let catalog = catalog();
        let mut state = NodeState::new(Id(1));
        // `S.Z` does not exist: the query cannot compile.
        let broken = PendingQuery::input(
            QueryId { owner: Id(42), seq: 2 },
            Id(42),
            0,
            rjoin_query::JoinQuery::new(
                false,
                vec![rjoin_query::SelectItem::Attr(rjoin_query::QualifiedAttr::new("S", "Z"))],
                vec!["S".into(), "R".into()],
                vec![],
                rjoin_query::WindowSpec::None,
            )
            .unwrap(),
        );
        let mut broken_child = broken.child(&tuple("R", [1, 2, 3], 1), Some(1));
        assert!(!state.adopt(&mut broken.clone(), &catalog), "an input query needs its plan");
        assert!(broken.query.plan.get().is_none());
        assert!(!state.adopt(&mut broken_child, &catalog), "a rewritten query needs its plan");
        assert_eq!(*state.compile_counters(), CompileCounters::new(), "nothing compiled");

        let sql = "SELECT R.B, S.B FROM R, S WHERE R.A = S.A";
        let r = tuple("R", [1, 2, 3], 1);
        let mut one = pending_from(7, sql, 0).child(&r, Some(1));
        let mut two = pending_from(7, sql, 0).child(&r, Some(1));
        assert!(!Arc::ptr_eq(&one.query, &two.query));
        assert!(state.adopt(&mut one, &catalog));
        assert!(state.adopt(&mut two, &catalog));
        assert!(Arc::ptr_eq(&one.query, &two.query), "one input query per id");
        assert!(Arc::ptr_eq(one.plan(), two.plan()));
        let counters = state.compile_counters();
        assert_eq!((counters.programs_compiled, counters.cache_hits), (1, 1), "{counters:?}");
    }
}
