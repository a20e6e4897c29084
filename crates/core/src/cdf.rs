//! Cumulative distribution functions.
//!
//! The paper presents most of its results as CDFs ("For a file size x,
//! CDF(x) represents the fraction of all files that had x or fewer
//! bytes"). [`Cdf`] supports weighted samples, so the same type serves
//! count-weighted curves (Figure 4's "fraction of reads") and
//! byte-weighted curves (Figure 4's "fraction of data").

use std::collections::BTreeMap;

/// A weighted empirical CDF over `u64` sample values.
///
/// Samples accumulate by value — one entry per distinct value, holding
/// its summed weight — so memory is O(distinct values), not O(samples).
/// [`Cdf::seal`] then turns the per-value sums into cumulative weights in
/// place. Weights that are integers below 2^53 (counts, byte sizes) sum
/// exactly in `f64`, so the sealed curve does not depend on insertion
/// order.
#[derive(Clone, Debug, Default)]
pub struct Cdf {
    /// Value → summed weight while accumulating; value → cumulative
    /// weight after [`Cdf::seal`].
    points: BTreeMap<u64, f64>,
    total: f64,
    sealed: bool,
}

impl Cdf {
    /// An empty CDF.
    pub fn new() -> Self {
        Cdf::default()
    }

    /// Add a sample with weight 1.
    pub fn add(&mut self, value: u64) {
        self.add_weighted(value, 1.0);
    }

    /// Add a sample with an explicit weight.
    pub fn add_weighted(&mut self, value: u64, weight: f64) {
        assert!(!self.sealed, "CDF already sealed");
        assert!(weight >= 0.0, "negative weight");
        *self.points.entry(value).or_insert(0.0) += weight;
        self.total += weight;
    }

    /// Cumulate the per-value weights. Must be called before queries.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        let mut acc = 0.0;
        for w in self.points.values_mut() {
            acc += *w;
            *w = acc;
        }
        self.sealed = true;
    }

    /// Total weight.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of distinct sample values.
    pub fn distinct(&self) -> usize {
        self.points.len()
    }

    /// CDF(x): fraction of weight at values ≤ `x`.
    pub fn fraction_le(&self, x: u64) -> f64 {
        assert!(self.sealed, "seal() before querying");
        if self.total == 0.0 {
            return 0.0;
        }
        self.points
            .range(..=x)
            .next_back()
            .map_or(0.0, |(_, &acc)| acc / self.total)
    }

    /// Smallest value v with CDF(v) ≥ `q` (0 < q ≤ 1).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!(self.sealed, "seal() before querying");
        if self.total == 0.0 {
            return None;
        }
        let target = q * self.total;
        self.points
            .iter()
            .find(|&(_, &acc)| acc + 1e-9 >= target)
            .map(|(&v, _)| v)
    }

    /// The curve as `(value, cumulative_fraction)` points for plotting.
    pub fn curve(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        assert!(self.sealed, "seal() before querying");
        let total = self.total.max(f64::MIN_POSITIVE);
        self.points.iter().map(move |(&v, &acc)| (v, acc / total))
    }

    /// Sample the curve at logarithmically spaced probe values — the shape
    /// the paper's log-x-axis figures show.
    pub fn log_samples(&self, lo: u64, hi: u64, per_decade: usize) -> Vec<(u64, f64)> {
        assert!(self.sealed, "seal() before querying");
        assert!(lo > 0 && hi >= lo && per_decade > 0);
        let mut out = Vec::new();
        let mut x = lo as f64;
        let step = 10f64.powf(1.0 / per_decade as f64);
        while x <= hi as f64 * 1.0001 {
            let v = x.round() as u64;
            out.push((v, self.fraction_le(v)));
            x *= step;
        }
        out
    }

    /// Mean of the distribution (weight-weighted).
    pub fn mean(&self) -> f64 {
        assert!(self.sealed, "seal() before querying");
        if self.total == 0.0 {
            return 0.0;
        }
        let mut prev = 0.0;
        let mut sum = 0.0;
        for (&v, &acc) in &self.points {
            sum += v as f64 * (acc - prev);
            prev = acc;
        }
        sum / self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(values: &[u64]) -> Cdf {
        let mut c = Cdf::new();
        for &v in values {
            c.add(v);
        }
        c.seal();
        c
    }

    #[test]
    fn basic_fractions() {
        let c = sealed(&[1, 2, 2, 3, 10]);
        assert_eq!(c.fraction_le(0), 0.0);
        assert!((c.fraction_le(1) - 0.2).abs() < 1e-12);
        assert!((c.fraction_le(2) - 0.6).abs() < 1e-12);
        assert!((c.fraction_le(5) - 0.8).abs() < 1e-12);
        assert_eq!(c.fraction_le(10), 1.0);
        assert_eq!(c.fraction_le(u64::MAX), 1.0);
    }

    #[test]
    fn weighted_fractions() {
        // Figure 4 style: many small requests, little data.
        let mut by_count = Cdf::new();
        let mut by_bytes = Cdf::new();
        for _ in 0..96 {
            by_count.add(1000);
            by_bytes.add_weighted(1000, 1000.0);
        }
        for _ in 0..4 {
            by_count.add(1_000_000);
            by_bytes.add_weighted(1_000_000, 1_000_000.0);
        }
        by_count.seal();
        by_bytes.seal();
        assert!(by_count.fraction_le(4000) > 0.95);
        assert!(by_bytes.fraction_le(4000) < 0.05);
    }

    #[test]
    fn quantiles() {
        let c = sealed(&[10, 20, 30, 40]);
        assert_eq!(c.quantile(0.25), Some(10));
        assert_eq!(c.quantile(0.5), Some(20));
        assert_eq!(c.quantile(1.0), Some(40));
        assert_eq!(sealed(&[]).quantile(0.5), None);
    }

    #[test]
    fn mean_matches_arithmetic() {
        let c = sealed(&[2, 4, 6]);
        assert!((c.mean() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn curve_is_monotone() {
        let c = sealed(&[5, 1, 9, 1, 5, 100, 2]);
        let pts: Vec<_> = c.curve().collect();
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_samples_cover_range() {
        let c = sealed(&[100, 1000, 10_000]);
        let s = c.log_samples(10, 100_000, 4);
        assert!(s.len() > 12);
        assert_eq!(s.first().unwrap().1, 0.0);
        assert_eq!(s.last().unwrap().1, 1.0);
    }

    #[test]
    fn memory_follows_distinct_values_not_samples() {
        let mut c = Cdf::new();
        for i in 0..1_000_000u64 {
            c.add_weighted([512, 4096, 65_536][(i % 3) as usize], 1.0);
        }
        assert_eq!(c.distinct(), 3, "accumulation keeps one entry per value");
        c.seal();
        assert_eq!(c.distinct(), 3);
        assert_eq!(c.total(), 1_000_000.0);
        assert!((c.fraction_le(512) - 333_334.0 / 1e6).abs() < 1e-12);
        assert_eq!(c.fraction_le(65_536), 1.0);
    }

    #[test]
    #[should_panic(expected = "seal")]
    fn query_before_seal_panics() {
        Cdf::new().fraction_le(1);
    }
}
