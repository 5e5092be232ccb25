//! Multiple regression of correlation strength on attribute matches — the
//! paper's named future work (§7: "multiple regression can be used to
//! learn more about association between file correlations and
//! attributes").
//!
//! For every observed successor pair (A, B) we form a sample: features
//! `x = [1, uid_match, pid_match, host_match, path_sim]` (the
//! attribute-match indicators of the pair of events) and target
//! `y = R(A,B)` — the mined correlation degree served by any
//! [`CorrelationSource`] (0 if the pair was filtered or evicted).
//! Ordinary least squares then yields per-attribute coefficients: how much
//! each matching attribute predicts that two files are genuinely
//! correlated. This quantifies what Table 5 probes empirically by sweeping
//! combinations, and it runs against *any* back-end — the live model, an
//! exported table, or a stream snapshot — since it only needs pair degrees.
//!
//! The normal equations are solved with a small, self-contained Gaussian
//! elimination with partial pivoting ([`solve`]).

use farmer_core::{similarity, AttrCombo, AttrKind, CorrelationSource, PathMode, Request};
use farmer_trace::{Trace, TraceEvent};

/// Number of regression features (intercept + 4 attribute signals).
pub const NUM_FEATURES: usize = 5;

/// Feature labels in column order.
pub const FEATURE_LABELS: [&str; NUM_FEATURES] = [
    "intercept",
    "user match",
    "process match",
    "host match",
    "path similarity",
];

/// The fitted model.
#[derive(Debug, Clone)]
pub struct RegressionReport {
    /// OLS coefficients, indexed like [`FEATURE_LABELS`].
    pub coefficients: [f64; NUM_FEATURES],
    /// Number of (pair) samples used.
    pub samples: usize,
    /// Coefficient of determination on the training samples.
    pub r_squared: f64,
}

/// The most predictive attribute of a fit's `coefficients` (indexed like
/// [`FEATURE_LABELS`]): the largest among the non-intercept features.
pub fn strongest_attribute(coefficients: &[f64]) -> &'static str {
    let attributes = coefficients.iter().enumerate().skip(1);
    let strongest = attributes.max_by(|a, b| a.1.total_cmp(b.1));
    strongest.map_or(FEATURE_LABELS[0], |(i, _)| FEATURE_LABELS[i])
}

/// Fit the attribute regression of a trace against any mined correlation
/// source: one sample per consecutive event pair on two files, its
/// features the pair's attribute matches, its target the correlation
/// degree `R(A,B)` that `source.degree` reports, and 0 where it reports
/// none. A live `Farmer` reports every retained edge, below `max_strength`
/// or not; only a thresholded table (or snapshot) reports none for a pair
/// it filtered, as for a pair never retained.
pub fn fit_trace(trace: &Trace, source: &dyn CorrelationSource) -> RegressionReport {
    let pairs = trace.events.windows(2).filter(|w| w[0].file != w[1].file);
    let samples: Vec<_> = pairs
        .map(|w| {
            let degree = source.degree(w[0].file, w[1].file);
            let y = degree.map_or(0.0, |d| d.clamp(0.0, 1.0));
            (features(trace, &w[0], &w[1]), y)
        })
        .collect();
    fit(&samples)
}

/// Fit OLS of each sample's target on its features.
///
/// # Panics
/// Panics if there are fewer samples than features.
pub fn fit(samples: &[([f64; NUM_FEATURES], f64)]) -> RegressionReport {
    assert!(
        samples.len() >= NUM_FEATURES,
        "need at least {NUM_FEATURES} samples"
    );
    // Normal equations: (XᵀX) β = Xᵀy.
    let mut xtx = [[0.0f64; NUM_FEATURES]; NUM_FEATURES];
    let mut xty = [0.0f64; NUM_FEATURES];
    for (x, y) in samples {
        for i in 0..NUM_FEATURES {
            xty[i] += x[i] * y;
            for j in 0..NUM_FEATURES {
                xtx[i][j] += x[i] * x[j];
            }
        }
    }
    // Ridge epsilon keeps the system solvable when a feature is
    // constant (e.g. pathless traces have path_sim ≡ 0).
    for (i, row) in xtx.iter_mut().enumerate() {
        row[i] += 1e-9;
    }
    let beta = solve(xtx, xty);

    // R² on the training set.
    let mean_y: f64 = samples.iter().map(|(_, y)| y).sum::<f64>() / samples.len() as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (x, y) in samples {
        let pred: f64 = x.iter().zip(&beta).map(|(a, b)| a * b).sum();
        ss_res += (y - pred).powi(2);
        ss_tot += (y - mean_y).powi(2);
    }
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        0.0
    };

    RegressionReport {
        coefficients: beta,
        samples: samples.len(),
        r_squared,
    }
}

fn features(trace: &Trace, a: &TraceEvent, b: &TraceEvent) -> [f64; NUM_FEATURES] {
    let ra = Request::from_event(a);
    let rb = Request::from_event(b);
    let path_sim = similarity(
        &ra,
        trace.path_of(a.file),
        &rb,
        trace.path_of(b.file),
        AttrCombo::EMPTY.with(AttrKind::Path),
        PathMode::Ipa,
    );
    [
        1.0,
        f64::from(a.uid == b.uid),
        f64::from(a.pid == b.pid),
        f64::from(a.host == b.host),
        path_sim,
    ]
}

/// Solve `A x = b` for small dense systems via Gaussian elimination with
/// partial pivoting.
#[allow(
    clippy::needless_range_loop,
    reason = "the elimination reads row `col` while mutating row `row`"
)]
pub fn solve(
    mut a: [[f64; NUM_FEATURES]; NUM_FEATURES],
    mut b: [f64; NUM_FEATURES],
) -> [f64; NUM_FEATURES] {
    let n = NUM_FEATURES;
    for col in 0..n {
        // Pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            // col < n, so the col..n range always has at least one element
            .expect("non-empty range");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        assert!(diag.abs() > 1e-15, "singular system");
        for row in (col + 1)..n {
            let factor = a[row][col] / diag;
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = [0.0f64; NUM_FEATURES];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_core::{Farmer, FarmerConfig};
    use farmer_trace::WorkloadSpec;

    #[test]
    fn solver_handles_identity() {
        let mut a = [[0.0; NUM_FEATURES]; NUM_FEATURES];
        for (i, row) in a.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(solve(a, b), b);
    }

    #[test]
    fn solver_matches_known_system() {
        // A = diag(2) plus an off-diagonal coupling in the first two rows.
        let mut a = [[0.0; NUM_FEATURES]; NUM_FEATURES];
        for (i, row) in a.iter_mut().enumerate() {
            row[i] = 2.0;
        }
        a[0][1] = 1.0;
        // x = [1, 2, 0, 0, 0] -> b = A x.
        let x_true = [1.0, 2.0, 0.0, 0.0, 0.0];
        let mut b = [0.0; NUM_FEATURES];
        for i in 0..NUM_FEATURES {
            for j in 0..NUM_FEATURES {
                b[i] += a[i][j] * x_true[j];
            }
        }
        let x = solve(a, b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn regression_recovers_planted_coefficients() {
        // y = 0.1 + 0.5*uid + 0.3*path, no pid/host effect.
        let mut samples = Vec::new();
        let mut lcg = 12345u64;
        let mut rand01 = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((lcg >> 33) as f64) / ((1u64 << 31) as f64)
        };
        for _ in 0..2000 {
            let x = [
                1.0,
                f64::from(rand01() > 0.5),
                f64::from(rand01() > 0.5),
                f64::from(rand01() > 0.5),
                rand01(),
            ];
            let y = 0.1 + 0.5 * x[1] + 0.3 * x[4];
            samples.push((x, y));
        }
        let fit = fit(&samples);
        assert!(
            (fit.coefficients[0] - 0.1).abs() < 0.02,
            "{:?}",
            fit.coefficients
        );
        assert!((fit.coefficients[1] - 0.5).abs() < 0.02);
        assert!(fit.coefficients[2].abs() < 0.02);
        assert!(fit.coefficients[3].abs() < 0.02);
        assert!((fit.coefficients[4] - 0.3).abs() < 0.05);
        assert!(fit.r_squared > 0.99);
        assert_eq!(strongest_attribute(&fit.coefficients), "user match");
    }

    #[test]
    fn trace_regression_finds_positive_process_signal() {
        // On a synthetic HP trace, pairs sharing a process are the true
        // intra-run pairs, so the process-match coefficient must be
        // clearly positive.
        let trace = WorkloadSpec::hp().scaled(0.1).generate();
        let farmer = Farmer::mine_trace(&trace, FarmerConfig::default());
        let fit = fit_trace(&trace, &farmer);
        assert!(fit.samples > 1000);
        assert!(
            fit.coefficients[2] > 0.05,
            "process coefficient should be positive: {:?}",
            fit.coefficients
        );
        assert!(fit.r_squared > 0.0);
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn fit_requires_samples() {
        let _ = fit(&[([1.0; NUM_FEATURES], 1.0); NUM_FEATURES - 1]);
    }
}
