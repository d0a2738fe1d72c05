//! A wall clock behind a trait, so tests inject a deterministic source.
//!
//! The stack reports three kinds of time — raw wall clock, the
//! executor's deterministic *modeled* time, and phase breakdowns mixing
//! both. The job service reads its wall time (queue wait, job totals)
//! through [`Clock`], which keeps the labels honest (a `Duration` from
//! here is always wall-since-epoch, never modeled units) and lets its
//! tests pin time with [`ManualClock`] instead of sleeping. Timings no
//! test pins, such as the portfolio's `ProveOutcome::seconds`, read
//! `std::time::Instant` directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotone time source measured as a [`Duration`] since the clock's
/// own epoch. Subtracting two readings gives elapsed wall time (or, for a
/// [`ManualClock`], exactly what the test advanced).
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Time elapsed since this clock's epoch.
    fn now(&self) -> Duration;

    /// Elapsed time since an earlier reading (saturating at zero, so a
    /// reading from *after* `since` never underflows).
    fn since(&self, since: Duration) -> Duration {
        self.now().saturating_sub(since)
    }
}

/// The real wall clock: readings are `Instant`-based and monotone.
#[derive(Clone, Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is the moment of construction.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }
}

/// A deterministic clock that only moves when told to. Clones share the
/// same underlying time, so a test can hold one handle while the system
/// under test holds another.
#[derive(Clone, Debug, Default)]
pub struct ManualClock {
    nanos: Arc<AtomicU64>,
}

impl ManualClock {
    /// A manual clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos
            .fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute reading since its epoch.
    pub fn set(&self, d: Duration) {
        self.nanos
            .store(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        assert_eq!(c.since(b + Duration::from_secs(100)), Duration::ZERO);
    }

    #[test]
    fn manual_clock_moves_only_when_told() {
        let c = ManualClock::new();
        let handle = c.clone();
        assert_eq!(c.now(), Duration::ZERO);
        handle.advance(Duration::from_millis(250));
        assert_eq!(c.now(), Duration::from_millis(250));
        assert_eq!(
            c.since(Duration::from_millis(100)),
            Duration::from_millis(150)
        );
        c.set(Duration::from_secs(1));
        assert_eq!(handle.now(), Duration::from_secs(1));
    }

    #[test]
    fn clock_trait_objects_are_shareable() {
        let c: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let c2 = Arc::clone(&c);
        std::thread::scope(|s| {
            s.spawn(move || {
                let _ = c2.now();
            });
        });
        assert_eq!(c.now(), Duration::ZERO);
    }
}
