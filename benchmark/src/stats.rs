//! Order statistics for the reported numbers.

/// Median of the values (mean of the two middle ones for an even count).
/// Panics on an empty slice: every caller has at least one pass.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-quantile (0..=1) by nearest rank over a *sorted* slice.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no values");
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `(p50, p95)` of a latency sample.
pub fn p50_p95(sample: &[f64]) -> (f64, f64) {
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    (quantile_sorted(&v, 0.50), quantile_sorted(&v, 0.95))
}

/// The decile of per-pass values on the undisturbed side: the ninth for a
/// rate, the first for a time. Interference on a shared box only ever slows
/// a pass down, and it comes in bursts lasting several passes, so the
/// median of the passes moves with how much of the run the bursts covered
/// (measured here: one and a half times the run-to-run spread of this decile). A real
/// slowdown moves every pass, and therefore this value too.
pub fn undisturbed_decile(per_pass: &[f64], higher_is_better: bool) -> f64 {
    let mut v = per_pass.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, if higher_is_better { 0.9 } else { 0.1 })
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
