//! Log-linear latency histogram: every power of two is split into 8 linear
//! sub-buckets, so a bucket is at most 1/8 (12.5%) as wide as its lower
//! edge and a percentile read at the bucket midpoint is within 6.25% of
//! the recorded value. Values below 8 ns get exact buckets.
//!
//! Buckets are atomics, so kernel threads on any worker record into one
//! histogram without locking.

use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Exact buckets `0..8`, then 8 sub-buckets for each octave `2^3..2^63`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// A concurrent log-linear histogram of nanosecond readings.
pub struct Hist {
    buckets: Box<[AtomicU64]>,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect() }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let k = 63 - v.leading_zeros();
    let sub = (v >> (k - SUB_BITS)) & (SUB - 1);
    ((u64::from(k - SUB_BITS) + 1) * SUB + sub) as usize
}

/// The midpoint of bucket `i`.
fn midpoint(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB {
        return i as f64;
    }
    let octave = i / SUB;
    let lower = (SUB + i % SUB) << (octave - 1);
    let width = 1u64 << (octave - 1);
    lower as f64 + width as f64 / 2.0
}

impl Hist {
    /// Records one reading.
    #[inline]
    pub fn record(&self, ns: u64) {
        // Relaxed: a bucket count publishes no other data.
        self.buckets[index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of readings recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0 < q ≤ 1`) by nearest rank, read at the bucket
    /// midpoint; 0 when nothing was recorded.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return midpoint(i);
            }
        }
        unreachable!("rank {rank} ≤ total {total} is reached by the last bucket")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..16 {
            assert_eq!(midpoint(index(v)).floor() as u64, v);
        }
    }

    #[test]
    fn relative_error_is_within_one_sixteenth() {
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for x in [v, v + v / 3, v * 2 - 1] {
                let err = (midpoint(index(x)) - x as f64).abs() / x as f64;
                assert!(err <= 1.0 / 16.0 + 1e-12, "{x}: error {err}");
            }
            v = v * 3 / 2 + 1;
        }
        assert!(index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_follow_the_recorded_distribution() {
        let h = Hist::default();
        for ns in 1..=1000 {
            h.record(ns);
        }
        assert_eq!(h.count(), 1000);
        for (q, want) in [(0.5, 500.0), (0.99, 990.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.07, "q{q}: {got} vs {want}");
        }
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }
}
