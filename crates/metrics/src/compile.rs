//! Counters for plan-driven query evaluation.

use serde::{Deserialize, Serialize};

/// Counters describing how the plan-driven trigger loop behaved.
///
/// A query is evaluated through its input query's plan, compiled once where
/// the query enters a process and shared by every query it spawns (see
/// `rjoin_query::RewritePlan`). Each node maintains one instance; the
/// engine sums them into the run-level statistics snapshot. All counters
/// are cumulative over a run:
///
/// * `programs_compiled` — plans compiled at ingress: one per submitted
///   query (the simulated engine books it on the origin node; the TCP
///   client keeps no counters), plus one per input query on each node
///   that receives a query of it without its plan (over a wire, or built
///   without one) — at most one per input query on each such node,
/// * `cache_hits` — plans reused at ingress: each later arrival, at the
///   same node, of a query without its plan whose input query the node
///   knows already (never in the simulator, where every query carries its
///   plan; triggers read the plan without a lookup and count nothing),
/// * `compiled_rewrites` — per-tuple triggers run on a plan (the tuple's
///   slot was free, whether it then joined or not),
/// * `eval_nanos` — wall-clock nanoseconds spent walking stored-query
///   buckets per delivery (triggers plus bookkeeping) and joining inside
///   hypercube cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileCounters {
    /// Plans compiled.
    pub programs_compiled: u64,
    /// Plan reuses.
    pub cache_hits: u64,
    /// Per-tuple triggers run on a plan.
    pub compiled_rewrites: u64,
    /// Nanoseconds spent in per-delivery evaluation walks.
    pub eval_nanos: u64,
}

impl CompileCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another instance's counts into this one (per-node → run totals).
    pub fn merge(&mut self, other: &CompileCounters) {
        self.programs_compiled += other.programs_compiled;
        self.cache_hits += other.cache_hits;
        self.compiled_rewrites += other.compiled_rewrites;
        self.eval_nanos += other.eval_nanos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = CompileCounters {
            programs_compiled: 1,
            cache_hits: 2,
            compiled_rewrites: 3,
            eval_nanos: 5,
        };
        let b = CompileCounters {
            programs_compiled: 10,
            cache_hits: 20,
            compiled_rewrites: 30,
            eval_nanos: 50,
        };
        a.merge(&b);
        assert_eq!(
            a,
            CompileCounters {
                programs_compiled: 11,
                cache_hits: 22,
                compiled_rewrites: 33,
                eval_nanos: 55,
            }
        );
    }

    #[test]
    fn serde_round_trip() {
        let c = CompileCounters {
            programs_compiled: 4,
            cache_hits: 5,
            compiled_rewrites: 6,
            eval_nanos: 8,
        };
        let v = c.serialize_json();
        let back = CompileCounters::deserialize_json(&v).unwrap();
        assert_eq!(back, c);
    }
}
