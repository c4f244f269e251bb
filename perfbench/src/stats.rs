//! Small order statistics and the log2 latency histogram of traced spans.

/// Linear-interpolated quantile `q` (0..=1) of `v`; 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The largest value of `v`; 0 for an empty slice.
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// Durations in nanoseconds, bucketed by power of two: bucket `b` holds
/// `[2^b, 2^(b+1))` (bucket 0 also holds 0). Also keeps the exact extremes.
#[derive(Clone, Debug)]
pub struct Log2Hist {
    buckets: [u64; 64],
    count: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Log2Hist {
        Log2Hist {
            buckets: [0; 64],
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Hist {
    /// Records one duration.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[63 - (ns | 1).leading_zeros() as usize] += 1;
        self.count += 1;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Quantile `q`, interpolated linearly by rank inside its bucket and
    /// clamped to the exact extremes.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= rank {
                let lo = if b == 0 { 0.0 } else { (1u64 << b) as f64 };
                let hi = 2.0 * (1u64 << b) as f64;
                let frac = ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
                return (lo + (hi - lo) * frac).clamp(self.min as f64, self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(max(&v), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn histogram_quantile_stays_in_bucket() {
        let mut h = Log2Hist::default();
        for ns in [100, 110, 120, 130, 1000] {
            h.record(ns);
        }
        let p50 = h.quantile(0.5);
        assert!((64.0..=128.0).contains(&p50) || (128.0..256.0).contains(&p50));
        assert!(h.quantile(0.99) >= 512.0);
        assert!(h.quantile(1.0) <= 1000.0);
        let mut one = Log2Hist::default();
        one.record(3_000);
        assert_eq!(one.quantile(0.5), 3_000.0);
    }
}
