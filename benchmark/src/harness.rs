//! What every workload hands back to the runner.

use crate::reference::Verdict;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// ALTT retention long enough that no tuple of an epoch ever leaves it: the
/// default configuration is sound but incomplete on 4-way chains (recall
/// ≈ 0.70), and a later completeness fix must not read as a slowdown.
pub const ALTT_WHOLE_RUN: u64 = 1_000_000;

/// Raw per-layer observations of traced epochs — sums and peaks keyed by
/// name, so epochs pool before any ratio is taken.
#[derive(Debug, Default, Clone)]
pub struct Raw {
    sums: BTreeMap<&'static str, f64>,
    peaks: BTreeMap<&'static str, f64>,
}

impl Raw {
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_insert(0.0) += value;
    }

    pub fn peak(&mut self, key: &'static str, value: f64) {
        let slot = self.peaks.entry(key).or_insert(0.0);
        *slot = slot.max(value);
    }

    pub fn merge(&mut self, other: &Raw) {
        for (key, value) in &other.sums {
            self.add(key, *value);
        }
        for (key, value) in &other.peaks {
            self.peak(key, *value);
        }
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    pub fn peak_of(&self, key: &str) -> f64 {
        self.peaks.get(key).copied().unwrap_or(0.0)
    }

    /// `sum(numerator) / sum(denominator)`, zero when the denominator is.
    pub fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        let d = self.sum(denominator);
        if d == 0.0 {
            0.0
        } else {
            self.sum(numerator) / d
        }
    }
}

/// One epoch: a fresh engine or cluster, set up, streamed and verified.
#[derive(Debug, Default, Clone)]
pub struct Epoch {
    /// The cold set-up (bootstrap/launch + submit every up-front query +
    /// drain/settle).
    pub setup_s: f64,
    /// Summed wall time of the publication units (plus the final barrier).
    pub stream_s: f64,
    pub tuples: u64,
    /// Network messages sent during the stream phase.
    pub msgs: u64,
    /// Query submissions + tuple publications + expected answers.
    pub ops_attempted: u64,
    /// `Err` returns, missing or timed-out answers, spurious answers.
    pub ops_failed: u64,
    pub verdict: Verdict,
    pub raw: Raw,
}

/// A benchmark workload. Each call builds its inputs from `seed` alone.
pub trait Workload {
    fn name(&self) -> &'static str;

    /// Tuples per measured epoch.
    fn epoch_tuples(&self) -> usize;

    /// One cold set-up in a fresh engine; returns its wall time in seconds.
    fn setup_sample(&self, seed: u64) -> f64;

    /// Runs one epoch of `tuples` tuples. Latency samples (ms) of the
    /// publication units that completed answers are appended to `latencies`;
    /// spans are recorded when a tracer is given.
    fn epoch(
        &self,
        seed: u64,
        tuples: usize,
        latencies: &mut Vec<f64>,
        tracer: Option<&mut Tracer>,
    ) -> Epoch;

    /// Per-layer metrics of this workload from the pooled traced epochs.
    fn layer_metrics(&self, raw: &Raw) -> Vec<(&'static str, f64)>;
}
