//! Order statistics for the reports: medians, quantiles and relative spreads.

/// Cut points dividing `values` into `n` equal-probability intervals, by the
/// "exclusive" method of Python's `statistics.quantiles(values, n=n)` — the
/// method the benchmark's spread bounds are checked with, so the spread this
/// program prints is the spread a checker recomputes from its outputs.
///
/// Returns `n - 1` cut points. A single value is its own every cut point;
/// an empty slice gives an empty vector.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    assert!(n >= 2, "quantiles need at least two intervals");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return Vec::new(),
        1 => return vec![data[0]; n - 1],
        _ => {}
    }
    let (ld_i, n_i) = (ld as i64, n as i64);
    let m = ld_i + 1;
    (1..n_i)
        .map(|i| {
            let j = (i * m / n_i).clamp(1, ld_i - 1);
            let delta = i * m - j * n_i;
            let j = j as usize;
            (data[j - 1] * (n_i - delta) as f64 + data[j] * delta as f64) / n_i as f64
        })
        .collect()
}

/// The median (mean of the two middle values for an even count; `0` for an
/// empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => data[n / 2],
        _ => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// Interquartile range as a share of the median: `(q3 − q1) / median`
/// (`0` when the median is `0` or there are fewer than two values).
pub fn iqr_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let q = quantiles(values, 4);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / med.abs()
    }
}

/// The `p`-th percentile (`p` in `1..=99`) by the same exclusive method.
pub fn percentile(values: &[f64], p: usize) -> f64 {
    assert!((1..=99).contains(&p), "percentile must be in 1..=99");
    quantiles(values, 100).get(p - 1).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12)
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // Reference values from Python 3.11 `statistics.quantiles(v, n=4)`.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(&quantiles(&ten, 4), &[2.75, 5.5, 8.25]));
        assert!(close(
            &quantiles(&[1.0, 2.0, 3.0, 4.0], 4),
            &[1.25, 2.5, 3.75]
        ));
        // Two values extrapolate past the data, exactly as Python does.
        assert!(close(&quantiles(&[1.0, 2.0], 4), &[0.75, 1.5, 2.25]));
        // Order of the input does not matter.
        assert!(close(
            &quantiles(&[4.0, 1.0, 3.0, 2.0], 4),
            &quantiles(&[1.0, 2.0, 3.0, 4.0], 4)
        ));
        // Deciles: `statistics.quantiles(range(1, 11), n=10)`.
        let deciles = quantiles(&ten, 10);
        assert!(close(
            &deciles,
            &[1.1, 2.2, 3.3, 4.4, 5.5, 6.6, 7.7, 8.8, 9.9]
        ));
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        assert!(quantiles(&[], 4).is_empty());
        assert_eq!(quantiles(&[3.0], 4), vec![3.0; 3]);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(iqr_frac(&[5.0]), 0.0);
        assert_eq!(iqr_frac(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // Python: statistics.quantiles(range(1, 101), n=100)[89] == 90.9
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 90) - 90.9).abs() < 1e-9);
    }
}
