//! Streaming and batch statistics used across the reproduction.
//!
//! The paper reports 50% ("average" in its bucket tables), 90% tail, and
//! full CDFs of performance and resource allocations. [`Summary`] provides
//! streaming moments; [`Samples`] retains observations for exact quantiles
//! and CDF extraction. Every exact quantile goes through one selection
//! kernel, [`select_quantiles`], which callers with their own buffer can
//! use directly.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use aum_sim::stats::Summary;
///
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation. Non-finite values are ignored (and counted
    /// nowhere) so a single degenerate model step cannot poison a report.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 when fewer than two observations.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or +inf when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or -inf when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Retained sample set with exact quantiles and CDF extraction.
///
/// # Examples
///
/// ```
/// use aum_sim::stats::Samples;
///
/// let s: Samples = (0..=100).map(f64::from).collect();
/// assert_eq!(s.quantile(0.5), 50.0);
/// assert_eq!(s.quantile(0.9), 90.0);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    #[must_use]
    pub fn new() -> Self {
        Samples {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation; non-finite values are ignored.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.values.push(value);
        self.sorted = false;
    }

    /// Number of retained observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no observations have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("finite values are comparable"));
            self.sorted = true;
        }
    }

    /// Exact sample quantile ([`select_quantiles`] on a copy).
    ///
    /// Returns 0 for an empty set.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let [v] = self.quantiles([q]);
        v
    }

    /// Several exact quantiles from one copy of the samples; element `i`
    /// equals `self.quantile(qs[i])`.
    ///
    /// # Panics
    ///
    /// Panics if any `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        select_quantiles(&mut self.values.clone(), qs)
    }

    /// Fraction of observations at or below `threshold`.
    #[must_use]
    pub fn fraction_at_most(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let hit = self.values.iter().filter(|&&v| v <= threshold).count();
        hit as f64 / self.values.len() as f64
    }

    /// Extracts `points` evenly spaced CDF points `(value, cumulative_prob)`.
    ///
    /// Returns an empty vector for an empty sample set.
    #[must_use]
    pub fn cdf(&self, points: usize) -> Vec<(f64, f64)> {
        if self.values.is_empty() || points == 0 {
            return Vec::new();
        }
        let mut copy = self.clone();
        copy.ensure_sorted();
        let n = copy.values.len();
        (1..=points)
            .map(|i| {
                let p = i as f64 / points as f64;
                let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
                (copy.values[idx], p)
            })
            .collect()
    }

    /// View of the raw values (unsorted, in insertion order).
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Converts to a streaming [`Summary`].
    #[must_use]
    pub fn summary(&self) -> Summary {
        let mut s = Summary::new();
        for &v in &self.values {
            s.record(v);
        }
        s
    }
}

/// Exact quantiles of `values`, the one exact-quantile kernel of the crate.
///
/// Each `q` maps to position `q·(n−1)` in ascending order and is linearly
/// interpolated between the order statistics at its floor and ceiling —
/// the same values a full sort would give, found by selection instead:
/// `select_nth_unstable_by` places the floor rank, and the ceiling rank is
/// the minimum of the partition to its right. Quantiles are answered in
/// the order given; a rank at or above the previous one only searches the
/// part right of it. `values` is reordered. Values are compared with
/// [`f64::total_cmp`], so the result is deterministic for any input.
///
/// Returns all zeros for empty `values`.
///
/// # Panics
///
/// Panics if any `q` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use aum_sim::stats::select_quantiles;
///
/// let mut v = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(select_quantiles(&mut v, [0.0, 0.5, 1.0]), [1.0, 2.5, 4.0]);
/// ```
#[must_use]
pub fn select_quantiles<const N: usize>(values: &mut [f64], qs: [f64; N]) -> [f64; N] {
    for q in qs {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    }
    let mut out = [0.0; N];
    let n = values.len();
    if n == 0 {
        return out;
    }
    // Nothing left of `pivot` is greater than anything from `pivot` on, so
    // a rank at or above it is found within `values[pivot..]`.
    let mut pivot = 0;
    for (slot, q) in out.iter_mut().zip(qs) {
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let from = if lo >= pivot { pivot } else { 0 };
        values[from..].select_nth_unstable_by(lo - from, f64::total_cmp);
        pivot = lo;
        *slot = if lo == hi {
            values[lo]
        } else {
            let above = values[hi..]
                .iter()
                .copied()
                .min_by(f64::total_cmp)
                .expect("hi < n, so the right partition is non-empty");
            let frac = pos - lo as f64;
            values[lo] * (1.0 - frac) + above * frac
        };
    }
    out
}

impl FromIterator<f64> for Samples {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Samples::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

impl Extend<f64> for Samples {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

/// Fixed-width histogram over `[lo, hi)` with overflow/underflow buckets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `buckets == 0`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            lo,
            hi,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = ((value - self.lo) / width) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Total observations including under/overflow.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Per-bucket counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Count of observations below the range.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of observations at or above the range end.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments() {
        let mut s = Summary::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn summary_ignores_non_finite() {
        let mut s = Summary::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(3.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let mut all = Summary::new();
        let mut a = Summary::new();
        let mut b = Summary::new();
        for i in 0..100 {
            let v = (i as f64).sin() * 10.0;
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Summary::new();
        a.record(1.0);
        let before = a.mean();
        a.merge(&Summary::new());
        assert_eq!(a.mean(), before);
        let mut empty = Summary::new();
        empty.merge(&a);
        assert_eq!(empty.mean(), before);
    }

    #[test]
    fn quantiles_interpolate() {
        let s: Samples = (0..=10).map(f64::from).collect();
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 10.0);
        assert_eq!(s.quantile(0.5), 5.0);
        assert!((s.quantile(0.95) - 9.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let s = Samples::new();
        assert_eq!(s.quantile(0.5), 0.0);
    }

    #[test]
    fn select_quantiles_of_empty_is_zeros() {
        assert_eq!(select_quantiles(&mut [], [0.0, 0.5, 0.9, 1.0]), [0.0; 4]);
        assert_eq!(Samples::new().quantiles([0.5, 0.99]), [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn select_quantiles_rejects_q_above_one() {
        let _ = select_quantiles(&mut [1.0, 2.0], [0.5, 1.5]);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn select_quantiles_rejects_q_below_zero_even_when_empty() {
        let _ = select_quantiles(&mut [], [-0.1]);
    }

    #[test]
    fn fraction_at_most_counts() {
        let s: Samples = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.fraction_at_most(2.5), 0.5);
        assert_eq!(s.fraction_at_most(0.0), 0.0);
        assert_eq!(s.fraction_at_most(10.0), 1.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let s: Samples = (0..500).map(|i| ((i * 37) % 100) as f64).collect();
        let cdf = s.cdf(20);
        assert_eq!(cdf.len(), 20);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0, "values non-decreasing");
            assert!(w[0].1 < w[1].1, "probabilities strictly increasing");
        }
        assert!((cdf.last().expect("non-empty").1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for v in [-1.0, 0.0, 0.5, 5.0, 9.999, 10.0, 42.0] {
            h.record(v);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.counts()[9], 1);
    }

    #[test]
    fn samples_extend_and_values() {
        let mut s = Samples::new();
        s.extend([3.0, 1.0, 2.0]);
        assert_eq!(s.values(), &[3.0, 1.0, 2.0]);
        assert_eq!(s.len(), 3);
        let summary = s.summary();
        assert_eq!(summary.count(), 3);
        assert!((summary.mean() - 2.0).abs() < 1e-12);
    }
}
