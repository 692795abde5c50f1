//! Order statistics over timing samples: the median, the percentile
//! rule of the metrics guide, batch rates and the quartile spread the
//! acceptance rule is written in.

/// Sorted copy of `samples` (total order, so a NaN cannot panic the sort).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples`; the mean of the two middle values for an even
/// count. `0.0` for an empty slice (a layer the workload never called).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile (nearest rank, `q` in `[0, 1]`) of `samples`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((v.len() as f64) * q).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Operations per second of one batch that took `wall_s` seconds.
pub fn rate(ops: usize, wall_s: f64) -> f64 {
    ops as f64 / wall_s.max(1e-12)
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) computes them — the spread the builder's contract
/// and `--compare` are written in. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let v = sorted(samples);
    let n = v.len();
    let cut = |i: usize| {
        // j = i*(n+1)/4 clamped to [1, n-1]; interpolate between the
        // (j-1)-th and j-th order statistics.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(samples);
    if med == 0.0 {
        return 0.0;
    }
    (q3 - q1) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn batch_rate() {
        assert_eq!(rate(500, 0.25), 2000.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            (15.0, 40.0, 120.0)
        );
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
