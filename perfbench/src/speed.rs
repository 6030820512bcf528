//! Timings at a reference host speed.
//!
//! A shared host changes speed by a quarter or more over seconds to
//! minutes, and every piece of code slows down with it. So a fixed
//! reference computation is timed before, during and after each timed
//! stretch of work, and the work is stated at reference speed: its wall
//! time times [`REFERENCE_NS`] over the median of those reference
//! timings. The median, because a single reference run is sometimes
//! interrupted and reads several times its usual time. The reference is
//! this package's own code, so a change to the repository's crates
//! moves the work's timings but not the reference's.

use std::cell::RefCell;

use crate::clock::Stamp;
use crate::stats::median;

/// What one run of the reference computation takes at reference speed,
/// ns: a round figure for its time on the 2-vCPU, 2.0 GHz Xeon host the
/// README's baseline was taken on, where it ranged from 1.0 to 1.5 ms
/// as the host's speed drifted.
pub const REFERENCE_NS: f64 = 1_000_000.0;

const ROWS: usize = 256;
const COLS: usize = 512;
const PIVOTS: usize = 16;

thread_local! {
    static TABLEAU: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Runs the reference computation once and returns its wall time, ns:
/// Gauss–Jordan pivots with partial pivoting on a fixed dense 256 × 512
/// tableau (1 MiB, the size of the offline frame LP's tableau), filled
/// afresh from a fixed xorshift sequence each time.
pub fn reference_ns() -> f64 {
    let start = Stamp::now();
    TABLEAU.with(|cell| {
        let mut t = cell.borrow_mut();
        t.resize(ROWS * COLS, 0.0);
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for v in t.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
        let mut pivot_row = vec![0.0; COLS];
        for p in 0..PIVOTS {
            let col = (p * 7) % COLS;
            let mut piv = 0;
            let mut best = 0.0;
            for (r, row) in t.chunks_exact(COLS).enumerate() {
                let a = row.get(col).map_or(0.0, |v| v.abs());
                if a > best {
                    best = a;
                    piv = r;
                }
            }
            let Some(row) = t.chunks_exact(COLS).nth(piv) else {
                break;
            };
            let inv = row.get(col).map_or(1.0, |v| 1.0 / v);
            for (dst, src) in pivot_row.iter_mut().zip(row) {
                *dst = src * inv;
            }
            for (r, row) in t.chunks_exact_mut(COLS).enumerate() {
                if r == piv {
                    row.copy_from_slice(&pivot_row);
                    continue;
                }
                let f = row.get(col).copied().unwrap_or(0.0);
                for (a, b) in row.iter_mut().zip(&pivot_row) {
                    *a -= f * b;
                }
            }
        }
        std::hint::black_box(&*t);
    });
    start.elapsed_ns()
}

/// `ns` of work at reference speed, given the reference timings taken
/// around it.
pub fn at_reference(ns: f64, references: &[f64]) -> f64 {
    ns * REFERENCE_NS / median(references)
}

/// Times `work` once, bracketed by reference runs, and returns its
/// result with its wall time at reference speed.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let before = reference_ns();
    let start = Stamp::now();
    let out = work();
    let ns = start.elapsed_ns();
    (out, at_reference(ns, &[before, reference_ns()]))
}

/// Sums the operations of a pass and states the sum at reference
/// speed: it runs the reference once at the start, after every
/// `per_segment` operations, and at the end. Callers time each
/// operation themselves and start the next one's clock after
/// [`Meter::record`] returns, so reference time is never counted as
/// work.
#[derive(Debug)]
pub struct Meter {
    per_segment: usize,
    in_segment: usize,
    raw_ns: f64,
    references: Vec<f64>,
}

impl Meter {
    /// Runs the first reference; segments hold `per_segment` operations.
    pub fn new(per_segment: usize) -> Self {
        Meter {
            per_segment: per_segment.max(1),
            in_segment: 0,
            raw_ns: 0.0,
            references: vec![reference_ns()],
        }
    }

    /// Adds one operation that took `ns`.
    pub fn record(&mut self, ns: f64) {
        self.raw_ns += ns;
        self.in_segment += 1;
        if self.in_segment == self.per_segment {
            self.references.push(reference_ns());
            self.in_segment = 0;
        }
    }

    /// Wall time of every recorded operation, ns, as measured and at
    /// reference speed.
    pub fn finish(mut self) -> (f64, f64) {
        if self.in_segment > 0 {
            self.references.push(reference_ns());
        }
        (self.raw_ns, at_reference(self.raw_ns, &self.references))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_scales_by_the_median_reference() {
        assert_eq!(at_reference(1e6, &[REFERENCE_NS]), 1e6);
        // A host running at half speed doubles both the work and the
        // reference, so the stated time is unchanged; one interrupted
        // reference run does not move it.
        let slow = 2.0 * REFERENCE_NS;
        assert_eq!(at_reference(2e6, &[slow, 9.0 * slow, slow]), 1e6);
    }

    #[test]
    fn meter_counts_every_operation_once() {
        let mut m = Meter::new(3);
        for _ in 0..7 {
            m.record(10.0);
        }
        let (raw, scaled) = m.finish();
        assert_eq!(raw, 70.0);
        assert!(scaled > 0.0);
    }
}
