//! The benchmark's one clock: every timing in this package reads it here.

// audit:allow-file(wall-clock): the benchmark exists to measure wall-clock time; timings are reported, never fed back into simulated results

use std::time::{Duration, Instant};

/// A point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp(Instant);

impl Stamp {
    /// Now.
    pub fn now() -> Self {
        Stamp(Instant::now())
    }

    /// `seconds` from now.
    pub fn in_seconds(seconds: u64) -> Self {
        Stamp(Instant::now() + Duration::from_secs(seconds))
    }

    /// Whether this point has passed.
    pub fn passed(self) -> bool {
        Instant::now() >= self.0
    }

    /// Nanoseconds from `earlier` to this point (0 if `earlier` is later).
    pub fn ns_after(self, earlier: Stamp) -> u64 {
        u64::try_from(self.0.saturating_duration_since(earlier.0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds since this point.
    pub fn elapsed_ns(self) -> f64 {
        Stamp::now().ns_after(self) as f64
    }
}
