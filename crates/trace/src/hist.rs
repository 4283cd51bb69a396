//! The mergeable log2-bucket histogram behind the tracer's metrics and the
//! self-profiler.
//!
//! Bucket `k` holds values whose bit-length is `k`, so bucket 0 is exactly
//! zero and bucket `k > 0` spans `[2^(k-1), 2^k)`. Alongside the counts it
//! keeps a running sum and maximum, [`Hist::merge`] folds per-worker
//! shards without losing shape, and [`Hist::render`] is a deterministic
//! text rendering. Everything is fixed-size integer state, so two
//! identical runs produce bit-identical histograms and equality is exact.

/// Number of buckets: one per possible bit-length of a `u64`, plus zero.
const BUCKETS: usize = 65;

/// Fixed-size power-of-two histogram with sum/max and shard merging.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; BUCKETS],
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    /// Empty histogram.
    pub fn new() -> Hist {
        Hist {
            buckets: [0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = (64 - v.leading_zeros()) as usize;
        self.buckets[b] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Fold another shard's counts into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Bucket index a value falls into (testing hook).
    pub fn bucket_for(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (if b == 0 { 0 } else { 1u64 << (b - 1) }, c))
    }

    /// Deterministic multi-line rendering: one `[lo, hi)` row per
    /// non-empty bucket with a proportional bar, for the profile report.
    pub fn render(&self, unit: &str) -> String {
        if self.total == 0 {
            return format!("  (no {unit} samples)\n");
        }
        let peak = self.buckets.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (b, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = if b == 0 {
                (0u64, 1u64)
            } else {
                (1u64 << (b - 1), 1u64 << b.min(63))
            };
            let bar = "#".repeat(((c * 40).div_ceil(peak)) as usize);
            out.push_str(&format!("  [{lo:>12}, {hi:>12})  {c:>10}  {bar}\n"));
        }
        out.push_str(&format!(
            "  {} samples, mean {:.1} {unit}, max {} {unit}\n",
            self.total,
            self.mean(),
            self.max
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_matches_bit_length() {
        let mut h = Hist::new();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(Hist::bucket_for(0), 0);
        assert_eq!(Hist::bucket_for(1), 1);
        assert_eq!(Hist::bucket_for(1023), 10);
        assert_eq!(Hist::bucket_for(1024), 11);
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 2057);
        assert_eq!(h.max(), 1024);
        let lows: Vec<u64> = h.iter_nonempty().map(|(lo, _)| lo).collect();
        assert_eq!(lows, vec![0, 1, 2, 4, 512, 1024]);
    }

    #[test]
    fn merge_is_exact() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut whole = Hist::new();
        for v in 0..100u64 {
            whole.record(v * 7);
            if v % 2 == 0 {
                a.record(v * 7);
            } else {
                b.record(v * 7);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole, "merged shards must equal the unsharded run");
    }

    #[test]
    fn render_is_deterministic_and_total() {
        let mut h = Hist::new();
        for v in [5u64, 5, 9, 130] {
            h.record(v);
        }
        let r = h.render("ns");
        assert_eq!(r, h.render("ns"));
        assert!(r.contains("4 samples"));
        assert!(Hist::new().render("ns").contains("no ns samples"));
    }
}
