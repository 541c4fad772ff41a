//! Order statistics over latency and throughput samples.

/// Nearest-rank percentile `p` (0..=100) of `samples` (any order).
/// `NaN` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(p, s.len()).clamp(1, s.len()) - 1]
}

/// Nearest rank of percentile `p` among `n` samples (the epsilon keeps
/// exact products such as 0.9 × 100 from rounding up a rank).
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `(q1, median, q3)`.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    (
        percentile(samples, 25.0),
        percentile(samples, 50.0),
        percentile(samples, 75.0),
    )
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it, with its value: `(label, value)`.
pub fn highest_supported(samples: &[f64]) -> (&'static str, f64) {
    let n = samples.len();
    for (label, p) in [("p99.9", 99.9), ("p99", 99.0), ("p90", 90.0), ("p75", 75.0)] {
        if n >= rank(p, n) + 10 {
            return (label, percentile(samples, p));
        }
    }
    ("p50", median(samples))
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// SplitMix64: the benchmark's only randomness, seeded from `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(quartiles(&s), (25.0, 50.0, 75.0));
        assert_eq!(highest_supported(&s), ("p90", 90.0));
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_supported(&big).0, "p99");
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
