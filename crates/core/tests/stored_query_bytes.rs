//! Heap bytes per stored query on a reduced `paper_4way`-shaped run: 4-way
//! chain joins over the paper's 10 × 10 × 100 schema on 256 nodes, 2 000
//! queries, an ALTT covering the run, no windows — the workload where stored
//! rewritten queries are most of the memory.
//!
//! A counting global allocator tracks the bytes live on the heap. The
//! figure is the growth of live bytes over the second half of the tuple
//! stream divided by the growth of the stored-query count over it: the
//! marginal cost of a stored query once every input query has compiled its
//! plan. Everything else the stream leaves behind in that half — stored and
//! retained tuples, the answer log, RIC history and candidate tables — is
//! charged to the stored queries too, so the figure bounds what one costs.

use rjoin_core::{EngineConfig, RJoinEngine};
use rjoin_workload::Scenario;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated through [`COUNTING`].
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// only touches an atomic counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The bound this representation keeps at the margin: a stored query is a
/// 56-byte slab entry (its input query's shared plan, one thin pointer to
/// its bound tuples, its window start, key and bucket position), its
/// binding's one allocation, one trigger-index list slot and its share of
/// the candidate tables.
const MAX_BYTES_PER_STORED_QUERY: usize = 200;

/// The bound over the whole stream, plans compiled at first trigger
/// included.
const MAX_BYTES_PER_STORED_QUERY_WHOLE_STREAM: usize = 249;

fn stored_queries(engine: &RJoinEngine) -> usize {
    engine.node_ids().iter().map(|id| engine.node_state(*id).unwrap().stored_query_count()).sum()
}

#[test]
fn a_stored_query_costs_at_most_200_heap_bytes() {
    let scenario =
        Scenario { nodes: 256, queries: 2000, tuples: 200, seed: 7, ..Scenario::paper_default() };
    let catalog = scenario.workload_schema().build_catalog();
    let queries = scenario.generate_queries();
    let tuples = scenario.generate_tuples(1);
    let config = EngineConfig::default().with_altt(1_000_000);
    let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
    let origins = engine.node_ids().to_vec();
    for (i, q) in queries.into_iter().enumerate() {
        engine.submit_query(origins[i % origins.len()], q).unwrap();
    }
    engine.run_until_quiescent().unwrap();
    let mut marks = vec![(stored_queries(&engine), LIVE.load(Ordering::Relaxed))];
    let half = tuples.len() / 2;
    for (i, t) in tuples.into_iter().enumerate() {
        engine.publish_tuple(origins[i % origins.len()], t).unwrap();
        engine.run_until_quiescent().unwrap();
        if i + 1 == half {
            marks.push((stored_queries(&engine), LIVE.load(Ordering::Relaxed)));
        }
    }
    marks.push((stored_queries(&engine), LIVE.load(Ordering::Relaxed)));

    let per_query = |(from, to): (usize, usize)| {
        let ((stored_from, live_from), (stored_to, live_to)) = (marks[from], marks[to]);
        live_to.saturating_sub(live_from) / (stored_to - stored_from)
    };
    let stored = marks[2].0 - marks[1].0;
    assert!(stored > 50_000, "the stream must store rewritten queries: {stored}");
    let (marginal, whole) = (per_query((1, 2)), per_query((0, 2)));
    println!(
        "{stored} queries stored over the second half: {marginal} heap bytes per stored query \
         ({whole} over the whole stream, plans compiled at first trigger included)"
    );
    assert!(
        marginal <= MAX_BYTES_PER_STORED_QUERY,
        "{marginal} heap bytes per stored query (bound {MAX_BYTES_PER_STORED_QUERY})"
    );
    assert!(
        whole <= MAX_BYTES_PER_STORED_QUERY_WHOLE_STREAM,
        "{whole} heap bytes per stored query over the whole stream \
         (bound {MAX_BYTES_PER_STORED_QUERY_WHOLE_STREAM})"
    );
}
