//! Order statistics over timing samples.

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method), so a spread computed here equals the
/// one the accepting driver computes from the same values. A single
/// value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The smallest of `values`.
pub fn fastest<'a>(values: impl Iterator<Item = &'a f64>) -> f64 {
    values.copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile `p` (0..=100) of samples already sorted
/// ascending.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A fixed-size histogram of microsecond timings, for phases that take
/// hundreds of thousands of samples: its memory does not grow with the
/// sample count, so the process's peak RSS does not depend on how fast
/// a run happened to go.
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Histogram {
    /// Bucket width in microseconds.
    const WIDTH: f64 = 0.05;
    /// Timings at or beyond this many microseconds share the last bucket.
    const LIMIT: f64 = 2_000.0;

    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; (Self::LIMIT / Self::WIDTH) as usize + 1],
            count: 0,
        }
    }

    pub fn record(&mut self, us: f64) {
        let i = ((us / Self::WIDTH) as usize).min(self.buckets.len() - 1);
        self.buckets[i] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Percentile `p` (0..=100), interpolated within its bucket.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(self.count > 0, "percentile of no samples");
        let rank = (p / 100.0 * self.count as f64).clamp(1.0, self.count as f64);
        let mut below = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if (below + n) as f64 >= rank {
                let into = (rank - below as f64) / n as f64;
                return (i as f64 + into) * Self::WIDTH;
            }
            below += n;
        }
        Self::LIMIT
    }

    /// Share of samples below `us`.
    pub fn share_below(&self, us: f64) -> f64 {
        let end = ((us / Self::WIDTH) as usize).min(self.buckets.len());
        self.buckets[..end].iter().sum::<u64>() as f64 / self.count.max(1) as f64
    }

    /// Sample count and quartiles, for the printed table.
    pub fn describe(&self) -> String {
        format!(
            "n={} p10={:.4} q1={:.4} median={:.4} q3={:.4} p99={:.4}",
            self.count,
            self.percentile(10.0),
            self.percentile(25.0),
            self.percentile(50.0),
            self.percentile(75.0),
            self.percentile(99.0)
        )
    }
}

/// Sample count, minimum and quartiles of one timing, for the printed
/// table.
pub fn describe(values: &[f64]) -> String {
    let (q1, med, q3) = quartiles(values);
    let min = fastest(values.iter());
    format!(
        "n={} min={min:.4} q1={q1:.4} median={med:.4} q3={q3:.4}",
        values.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_agree_with_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            (15.0, 30.0, 45.0)
        );
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn histogram_percentiles_track_the_samples() {
        let mut h = Histogram::new();
        let mut v = Vec::new();
        for i in 0..10_000u32 {
            // 10 µs to 60 µs, denser at the low end.
            let us = 10.0 + f64::from(i % 1_000) * f64::from(i % 7 + 1) * 0.007;
            h.record(us);
            v.push(us);
        }
        v.sort_by(f64::total_cmp);
        for p in [1.0, 25.0, 50.0, 75.0, 99.0] {
            let (exact, approx) = (percentile(&v, p), h.percentile(p));
            assert!(
                (exact - approx).abs() <= Histogram::WIDTH,
                "p{p}: {exact} vs {approx}"
            );
        }
        assert_eq!(h.count(), 10_000);
        let below = v.iter().filter(|&&us| us < 25.0).count() as f64 / 10_000.0;
        assert!((h.share_below(25.0) - below).abs() < 0.01);
        // Timings past the limit are kept, in the last bucket.
        h.record(1e9);
        assert_eq!(h.count(), 10_001);
        assert!(h.percentile(100.0) >= Histogram::LIMIT);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }
}
