//! Collection of answers at the querying nodes.

use crate::QueryId;
use rjoin_net::SimTime;
use rjoin_relation::Value;
use std::collections::{HashMap, HashSet};

/// One answer delivered to the node that submitted a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerRecord {
    /// The query this answer belongs to.
    pub query: QueryId,
    /// The answer row (the query's fully resolved `SELECT` list).
    pub row: Vec<Value>,
    /// Simulation time at which the answer was produced (the final rewrite).
    pub produced_at: SimTime,
    /// Simulation time at which it reached the querying node.
    pub received_at: SimTime,
}

/// The log of all answers received by querying nodes during a run.
#[derive(Debug, Clone, Default)]
pub struct AnswerLog {
    records: Vec<AnswerRecord>,
    per_query: HashMap<QueryId, Vec<usize>>,
    /// Rows delivered so far for each query marked `SELECT DISTINCT`
    /// ([`mark_distinct`](Self::mark_distinct)).
    seen_rows: HashMap<QueryId, HashSet<Vec<Value>>>,
}

impl AnswerLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `query`, at its submission, as a `SELECT DISTINCT` query:
    /// [`record`](Self::record) drops its repeated rows from then on.
    pub fn mark_distinct(&mut self, query: QueryId) {
        self.seen_rows.entry(query).or_default();
    }

    /// Records one delivered answer, unless it repeats a row already
    /// delivered for the same `DISTINCT` query. That is the querying node's
    /// filter for set semantics (Section 4): the in-network projection
    /// filter removes most duplicates close to where they would be
    /// produced, and this owner-side filter removes the remainder (rows
    /// that are produced through different rewriting paths). Returns
    /// whether the answer was recorded.
    pub fn record(&mut self, record: AnswerRecord) -> bool {
        if let Some(seen) = self.seen_rows.get_mut(&record.query) {
            if !seen.insert(record.row.clone()) {
                return false;
            }
        }
        self.per_query.entry(record.query).or_default().push(self.records.len());
        self.records.push(record);
        true
    }

    /// Total number of answers delivered.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no answer has been delivered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All answer records, in delivery order.
    pub fn records(&self) -> &[AnswerRecord] {
        &self.records
    }

    /// Number of answers delivered for `query`.
    pub fn count_for(&self, query: QueryId) -> usize {
        self.per_query.get(&query).map(Vec::len).unwrap_or(0)
    }

    /// Number of distinct queries that received at least one answer.
    pub fn queries_with_answers(&self) -> usize {
        self.per_query.len()
    }

    /// The answer rows delivered for `query`, in delivery order.
    pub fn rows_for(&self, query: QueryId) -> Vec<Vec<Value>> {
        self.per_query
            .get(&query)
            .map(|indices| indices.iter().map(|&i| self.records[i].row.clone()).collect())
            .unwrap_or_default()
    }

    /// Whether `query` received two identical rows (used to check the
    /// duplicate-freedom guarantees of Section 4 in tests).
    pub fn has_duplicate_rows(&self, query: QueryId) -> bool {
        let rows = self.rows_for(query);
        let mut sorted = rows.clone();
        sorted.sort();
        sorted.windows(2).any(|w| w[0] == w[1])
    }

    /// Average latency (received - produced) over all answers, in ticks.
    pub fn mean_latency(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let total: u64 =
            self.records.iter().map(|r| r.received_at.saturating_sub(r.produced_at)).sum();
        total as f64 / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjoin_dht::Id;

    fn qid(seq: u64) -> QueryId {
        QueryId { owner: Id(9), seq }
    }

    fn record(seq: u64, row: Vec<i64>, produced: u64, received: u64) -> AnswerRecord {
        AnswerRecord {
            query: qid(seq),
            row: row.into_iter().map(Value::from).collect(),
            produced_at: produced,
            received_at: received,
        }
    }

    #[test]
    fn records_are_grouped_by_query() {
        let mut log = AnswerLog::new();
        log.record(record(1, vec![1, 2], 5, 6));
        log.record(record(1, vec![3, 4], 7, 9));
        log.record(record(2, vec![5], 8, 8));
        assert_eq!(log.len(), 3);
        assert_eq!(log.count_for(qid(1)), 2);
        assert_eq!(log.count_for(qid(2)), 1);
        assert_eq!(log.count_for(qid(3)), 0);
        assert_eq!(log.queries_with_answers(), 2);
        assert_eq!(
            log.rows_for(qid(1)),
            vec![vec![Value::from(1), Value::from(2)], vec![Value::from(3), Value::from(4)]]
        );
    }

    #[test]
    fn duplicate_detection() {
        let mut log = AnswerLog::new();
        log.record(record(1, vec![1, 2], 0, 0));
        log.record(record(1, vec![1, 2], 1, 1));
        log.record(record(2, vec![1, 2], 1, 1));
        assert!(log.has_duplicate_rows(qid(1)));
        assert!(!log.has_duplicate_rows(qid(2)));
    }

    #[test]
    fn record_distinct_filters_repeated_rows() {
        let mut log = AnswerLog::new();
        log.mark_distinct(qid(1));
        log.mark_distinct(qid(2));
        assert!(log.record(record(1, vec![1, 2], 0, 0)));
        assert!(!log.record(record(1, vec![1, 2], 5, 6)));
        assert!(log.record(record(1, vec![3], 5, 6)));
        assert!(log.record(record(2, vec![1, 2], 5, 6)), "other queries are independent");
        assert_eq!(log.count_for(qid(1)), 2);
        assert!(!log.has_duplicate_rows(qid(1)));
        // A query not marked DISTINCT keeps its repeated rows.
        assert!(log.record(record(3, vec![1, 2], 0, 0)));
        assert!(log.record(record(3, vec![1, 2], 5, 6)));
        assert!(log.has_duplicate_rows(qid(3)));
    }

    #[test]
    fn latency_is_averaged() {
        let mut log = AnswerLog::new();
        assert_eq!(log.mean_latency(), 0.0);
        log.record(record(1, vec![1], 10, 12));
        log.record(record(1, vec![2], 10, 14));
        assert!((log.mean_latency() - 3.0).abs() < 1e-9);
    }
}
