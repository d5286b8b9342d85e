//! Sample arithmetic: medians, percentiles and the quartile spread the
//! acceptance rule is stated in.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median; the mean of the two middle samples for an even count.
/// Zero for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. Zero for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), which
/// is what the acceptance rule uses. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return [0.0; 3];
    }
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Geometric mean of positive ratios; 0 for an empty slice.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.max(1e-12).ln()).sum::<f64>() / ratios.len() as f64).exp()
}
