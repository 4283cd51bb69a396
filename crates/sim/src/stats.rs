//! Online statistics used by the benchmark harnesses.
//!
//! Two flavors:
//! * [`OnlineStats`] — Welford mean/variance plus min/max, O(1) memory.
//! * [`Sampler`] — stores samples for exact percentiles (bounded runs only).

use crate::time::Time;

/// Welford-style streaming mean / variance / extrema accumulator.
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> OnlineStats {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Add a virtual-time observation in microseconds.
    pub fn push_time_us(&mut self, t: Time) {
        self.push(t.as_us_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for the empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n-1 denominator); 0 for fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (NaN-free inputs assumed); 0 when empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel reduction of stats).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact-percentile sampler: keeps every observation.
#[derive(Clone, Debug, Default)]
pub struct Sampler {
    xs: Vec<f64>,
    sorted: bool,
}

impl Sampler {
    /// Empty sampler.
    pub fn new() -> Sampler {
        Sampler {
            xs: Vec::new(),
            sorted: true,
        }
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        self.xs.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.xs.len()
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.xs.is_empty() {
            0.0
        } else {
            self.xs.iter().sum::<f64>() / self.xs.len() as f64
        }
    }

    /// The `q`-quantile (q in `[0,1]`) by nearest-rank; 0 when empty.
    pub fn percentile(&mut self, q: f64) -> f64 {
        if self.xs.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.xs
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.xs.len() - 1) as f64 * q).round() as usize;
        self.xs[idx]
    }

    /// Median shorthand.
    pub fn median(&mut self) -> f64 {
        self.percentile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_mean_stddev() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.138089935299395).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn merge_equals_concatenation() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &data[..37] {
            left.push(x);
        }
        for &x in &data[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        let b = OnlineStats::new();
        let mut a2 = a.clone();
        a2.merge(&b);
        assert_eq!(a2.mean(), 1.0);
        let mut b2 = OnlineStats::new();
        b2.merge(&a);
        assert_eq!(b2.mean(), 1.0);
    }

    #[test]
    fn percentiles() {
        let mut s = Sampler::new();
        for i in (1..=100).rev() {
            s.push(i as f64);
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert!((s.median() - 50.0).abs() <= 1.0);
        assert_eq!(s.count(), 100);
    }
}
