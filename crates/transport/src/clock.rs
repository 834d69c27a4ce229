//! The service clock: real wall time quantized into engine ticks.
//!
//! The simulated runtimes advance a virtual clock; a deployment has only
//! the wall. [`ServiceClock`] maps the wall onto the engine's `SimTime`
//! ticks and keeps it *hybrid*: the local reading is the maximum of the
//! elapsed wall ticks and the highest tick observed on any incoming
//! message or published tuple (a Lamport-style floor). The floor is what
//! keeps causality intact — a node whose wall lags still never handles a
//! delivery at a tick before the sender stamped it — and the wall
//! component is what drives delays and RIC windows forward in real time
//! even when no messages arrive. Windowed-state expiry does not read this
//! clock: a node's deadline heap runs on the publication times of the
//! tuples it received, and the clock only tells one delivery tick from
//! the next.
//!
//! Ticks are deliberately coarse (the default is 100 ms): ALTT retention
//! is expressed in delivery ticks, and a coarse tick keeps the
//! wall-clock drift accumulated over a run small relative to the window
//! sizes recorded scenarios use, so a replay over TCP sees the same
//! window admissions as the simulated oracle run.

use rjoin_net::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotone, hybrid wall/logical clock in engine ticks.
#[derive(Debug)]
pub struct ServiceClock {
    start: Instant,
    tick: Duration,
    floor: AtomicU64,
}

impl ServiceClock {
    /// Default tick length: coarse enough that a multi-second run drifts
    /// only a few tens of ticks.
    pub const DEFAULT_TICK: Duration = Duration::from_millis(100);

    /// Creates a clock reading 0 now, with the given tick length.
    pub fn new(tick: Duration) -> Self {
        let tick = if tick.is_zero() { Self::DEFAULT_TICK } else { tick };
        ServiceClock { start: Instant::now(), tick, floor: AtomicU64::new(0) }
    }

    /// The current tick: elapsed wall ticks, lifted to the highest tick
    /// observed so far.
    pub fn now(&self) -> SimTime {
        let wall = (self.start.elapsed().as_nanos() / self.tick.as_nanos().max(1)) as SimTime;
        wall.max(self.floor.load(Ordering::Acquire))
    }

    /// Observes a tick from the outside world (a message's delivery stamp,
    /// a tuple's publication time): the clock never reads below it again.
    pub fn observe(&self, t: SimTime) {
        self.floor.fetch_max(t, Ordering::AcqRel);
    }
}

impl Default for ServiceClock {
    fn default() -> Self {
        Self::new(Self::DEFAULT_TICK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_raises_the_floor_monotonically() {
        let clock = ServiceClock::new(Duration::from_secs(3600));
        assert_eq!(clock.now(), 0, "a fresh clock with a huge tick reads 0");
        clock.observe(42);
        assert_eq!(clock.now(), 42);
        clock.observe(7);
        assert_eq!(clock.now(), 42, "observing the past never rewinds");
    }
}
