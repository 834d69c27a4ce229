//! Metric collection and reporting for the RJoin experiments.
//!
//! The paper's evaluation (Section 8) reports three per-node metrics:
//!
//! * **network traffic** — messages a node sends (created + routed),
//! * **query processing load (QPL)** — rewritten queries received to match
//!   against stored tuples plus tuples received to match against stored
//!   queries,
//! * **storage load (SL)** — rewritten queries plus tuples a node stores.
//!
//! Figures are drawn either as aggregates per workload size (Figure 2), as
//! ranked-node distributions (Figures 3–7, 9) or as cumulative series
//! (Figure 8). This crate provides the corresponding containers:
//!
//! * [`LoadMap`] — a per-key counter map,
//! * [`Distribution`] — ranked values with summary statistics,
//! * [`CumulativeSeries`] — a running total sampled per event,
//! * [`Table`] — a small text/CSV/JSON table used by the benchmark harness
//!   to print the rows of each figure,
//! * [`SharingCounters`] — how much indexing/storage work the shared
//!   sub-join registry saved (multi-query optimization),
//! * [`CompileCounters`] — how the compiled predicate-program hot loop
//!   behaved (compiles, cache hits, per-path rewrite counts, eval time),
//! * [`ShardRuntimeStats`] — how a sharded event-queue drain executed
//!   (shard count, per-shard tick activations, deliveries),
//! * [`SplitCounters`] — what the hot-key splitting subsystem did
//!   (heavy hitters split, state migrated, routing/fan-out overhead),
//! * [`PlannerCounters`] — what the two-plan query planner decided
//!   (pipeline vs hypercube plans, shares allocated, replication cost),
//! * [`StateCounters`] — how the slab-backed stores and timer-wheel expiry
//!   behaved (slab occupancy and high water, wheel pops vs contact expiry),
//! * [`ProbeCounters`] — how the value-partitioned trigger index narrowed
//!   tuple-arrival probes (candidates vs bucket length, residual share,
//!   index size high water).

mod compile;
mod counters;
mod distribution;
mod planner;
mod probe;
mod report;
mod series;
mod shard;
mod sharing;
mod split;
mod state;

pub use compile::CompileCounters;
pub use counters::LoadMap;
pub use distribution::Distribution;
pub use planner::PlannerCounters;
pub use probe::ProbeCounters;
pub use report::Table;
pub use series::CumulativeSeries;
pub use shard::ShardRuntimeStats;
pub use sharing::SharingCounters;
pub use split::SplitCounters;
pub use state::StateCounters;
