//! Small measurement helpers: robust summaries, peak RSS, ns-per-op probes.

use std::collections::HashMap;
use std::time::{Duration, Instant};

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median of an unsorted sample (mean of the two middle values for an even
/// count). Zero for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of an unsorted sample. Zero
/// for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `VmHWM` of this process in MB (Linux only; zero elsewhere).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one [`Calibration::sample`] takes on the undisturbed reference box,
/// in seconds. Only the ratio to it matters.
const CALIBRATION_NOMINAL_S: f64 = 0.013;

/// A fixed piece of work, independent of the program under test, timed
/// between epochs to read the machine's speed while the run lasts.
///
/// The reference box (a 2-vCPU guest with neighbours) drifts by 10–25 % over
/// minutes: everything — engine, set-up, this loop — slows together, and ten
/// runs of identical code then disagree by more than any bound worth having.
/// A run therefore divides its timings by [`factor`](Self::factor), the
/// run's median sample over the nominal one. On the reference box that
/// halved the run-to-run spread of `paper_4way` and `tcp_stream` timings
/// (13 % → 5 %, 22 % → 10 %; correlation of raw timing and factor 0.8–0.95)
/// and left an undisturbed stretch unchanged. The work mixes what the engine
/// mixes: cache-missing pointer chasing, allocation-heavy map building,
/// hashing and integer arithmetic; it uses `std` only.
pub struct Calibration {
    /// One random cycle over 4 M slots (16 MB): every step misses the caches.
    chain: Vec<u32>,
    samples: Vec<f64>,
}

fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    *x
}

impl Calibration {
    pub fn new() -> Self {
        let n = 4 << 20;
        let mut chain: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        // Sattolo's shuffle: a permutation that is a single cycle.
        for i in (1..n).rev() {
            chain.swap(i, (lcg(&mut x) >> 33) as usize % i);
        }
        Calibration { chain, samples: Vec::with_capacity(256) }
    }

    /// Times one round of the fixed work (≈ 13 ms).
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..60_000 {
            at = self.chain[at as usize];
        }
        let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut x = u64::from(at) | 1;
        for i in 0..40_000u64 {
            map.entry(lcg(&mut x) >> 50).or_default().push(i);
        }
        let mut hits = 0usize;
        for _ in 0..100_000 {
            hits += map.get(&(lcg(&mut x) >> 50)).map_or(0, Vec::len);
        }
        std::hint::black_box((hits, at));
        self.samples.push(secs(start.elapsed()));
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Median sample in milliseconds.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples) * 1e3
    }

    /// How much slower than nominal the machine ran (1.0 = nominal; 1.0 when
    /// nothing was sampled).
    pub fn factor(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            median(&self.samples) / CALIBRATION_NOMINAL_S
        }
    }
}

/// Chunks per probe: the reported figure is the median of their means.
const PROBE_CHUNKS: usize = 5;
/// Calls between clock reads, so the read does not show in a ~50 ns op.
const PROBE_BATCH: usize = 16;

/// Nanoseconds per call of `op`, measured for about `budget`: the median of
/// [`PROBE_CHUNKS`] chunk means, after one warm-up batch.
pub fn ns_per_op(budget: Duration, mut op: impl FnMut()) -> f64 {
    for _ in 0..PROBE_BATCH {
        op();
    }
    let chunk = budget / PROBE_CHUNKS as u32;
    let means: Vec<f64> = (0..PROBE_CHUNKS)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            loop {
                for _ in 0..PROBE_BATCH {
                    op();
                }
                calls += PROBE_BATCH as u64;
                let elapsed = start.elapsed();
                if elapsed >= chunk {
                    return elapsed.as_nanos() as f64 / calls as f64;
                }
            }
        })
        .collect();
    median(&means)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_of_small_samples() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 50.0);
        assert_eq!(percentile(&sample, 95.0), 95.0);
        assert_eq!(percentile(&sample, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn calibration_factor_is_neutral_until_sampled() {
        let mut calibration = Calibration::new();
        assert_eq!(calibration.factor(), 1.0);
        calibration.sample();
        calibration.sample();
        assert_eq!(calibration.samples(), 2);
        assert!(calibration.factor() > 0.0);
        assert!(
            (calibration.factor() - calibration.median_ms() / 1e3 / CALIBRATION_NOMINAL_S).abs()
                < 1e-12
        );
    }

    #[test]
    fn probe_time_grows_with_the_work_per_call() {
        let budget = Duration::from_millis(20);
        let spin = |n: u64| {
            move || {
                (0..n).for_each(|i| {
                    std::hint::black_box(i);
                })
            }
        };
        let small = ns_per_op(budget, spin(100));
        let large = ns_per_op(budget, spin(10_000));
        assert!(large > small * 10.0, "100x the work must cost >10x: {small} vs {large}");
    }
}
