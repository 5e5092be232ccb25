//! FARMER configuration: the values some caller sets, with the paper's
//! defaults, and as constants the ones the paper (and every caller) fixes.
//!
//! A [`FarmerConfig`] is decided once: [`crate::Farmer::new`] and
//! [`crate::Farmer::from_state`] check it ([`FarmerConfig::validate`]) and
//! hold it unchanged for the model's life.

use crate::attr::AttrCombo;

/// Linear Decremented Assignment step: distance-1 successors add 1.0,
/// distance-2 add `1.0 − LDA_DECREMENT`, etc. (paper §3.2.2: "0.9 for C,
/// and 0.8 for D").
pub const LDA_DECREMENT: f64 = 0.1;

/// Degree floor of the periodic prune ([`FarmerConfig::prune_interval`]).
pub const PRUNE_FLOOR: f64 = 0.05;

/// How the file-path attribute enters the semantic vector (paper §3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PathMode {
    /// Divided Path Algorithm: every path component is its own vector item.
    /// Deep directories dominate the similarity and drown out the other
    /// attributes — the drawback the paper demonstrates with the
    /// executable-vs-linked-library example.
    Dpa,
    /// Integrated Path Algorithm: the whole path is a single item whose
    /// intersection value is the fractional component similarity. The
    /// paper's choice, and the default here.
    #[default]
    Ipa,
}

/// Tunables of the FARMER model. `FarmerConfig::default()` reproduces the
/// paper's final configuration (p = 0.7, max_strength = 0.4, IPA).
#[derive(Debug, Clone, PartialEq)]
pub struct FarmerConfig {
    /// Weight of semantic distance vs access frequency in
    /// `R = sim·p + F·(1−p)` (paper Function 2). The paper's sweep
    /// (Figure 3) finds 0.7 best.
    pub p: f64,
    /// Validity threshold: pairs with `R < max_strength` are filtered out
    /// (paper §3.2.4). Figure 6 shows response time degrades above ≈ 0.4.
    pub max_strength: f64,
    /// Look-ahead window for successor counting. Paper's example uses the
    /// Nexus-style window; successors past the window contribute nothing.
    pub window: usize,
    /// Which semantic attributes enter the vectors (paper Table 5).
    pub combo: AttrCombo,
    /// Path algorithm (paper selects IPA).
    pub path_mode: PathMode,
    /// Cap on retained successors per file; the lowest-degree edge is
    /// evicted first. This is FARMER's filtering-driven memory bound
    /// (paper §3.3: weak correlations are not maintained).
    pub max_successors: usize,
    /// Every `prune_interval` observed requests the model drops edges whose
    /// degree fell below [`PRUNE_FLOOR`] (0 disables). Together with
    /// `max_successors` this realizes the paper's claim that FARMER keeps
    /// no state for weak correlations.
    pub prune_interval: usize,
    /// Aging factor applied to every edge's accumulated mass and to node
    /// access totals at each prune tick (1.0 disables). Values below 1
    /// make the miner track *non-stationary* workloads: correlations that
    /// stop recurring decay away instead of haunting the correlator lists.
    pub decay: f64,
}

impl Default for FarmerConfig {
    fn default() -> Self {
        FarmerConfig {
            p: 0.7,
            max_strength: 0.4,
            window: 5,
            combo: AttrCombo::hp_default(),
            path_mode: PathMode::Ipa,
            max_successors: 16,
            prune_interval: 8192,
            decay: 1.0,
        }
    }
}

impl FarmerConfig {
    /// Paper defaults with the pathless attribute base (INS/RES traces).
    pub fn pathless() -> Self {
        FarmerConfig {
            combo: AttrCombo::ins_default(),
            ..Self::default()
        }
    }

    /// Panic unless the configuration is one a model can run under: `p`
    /// and `max_strength` in `[0, 1]` (so not NaN), `window` and
    /// `max_successors` at least 1. Called by the `with_*` builders and,
    /// for values written straight into the fields, once by
    /// [`crate::Farmer::new`] / [`crate::Farmer::from_state`].
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.p), "p must be in [0,1]");
        assert!(
            (0.0..=1.0).contains(&self.max_strength),
            "max_strength must be in [0,1]"
        );
        assert!(self.window > 0, "window must be positive");
        assert!(self.max_successors > 0, "max_successors must be positive");
    }

    /// Builder-style weight override.
    #[must_use]
    pub fn with_p(mut self, p: f64) -> Self {
        self.p = p;
        self.validate();
        self
    }

    /// Builder-style threshold override.
    #[must_use]
    pub fn with_max_strength(mut self, s: f64) -> Self {
        self.max_strength = s;
        self.validate();
        self
    }

    /// Builder-style combo override.
    #[must_use]
    pub fn with_combo(mut self, combo: AttrCombo) -> Self {
        self.combo = combo;
        self
    }

    /// Builder-style path-mode override.
    #[must_use]
    pub fn with_path_mode(mut self, mode: PathMode) -> Self {
        self.path_mode = mode;
        self
    }

    /// LDA weight at successor distance `d ≥ 1`; 0 outside the window.
    #[inline]
    pub fn lda_weight(&self, d: usize) -> f64 {
        if d == 0 || d > self.window {
            return 0.0;
        }
        (1.0 - LDA_DECREMENT * (d - 1) as f64).max(0.0)
    }

    /// The precomputed LDA weight table for the configured window:
    /// `table[i] == lda_weight(i + 1)`. The mining hot loop indexes this
    /// once per windowed predecessor instead of re-deriving the linear
    /// decrement per event ([`crate::model::Farmer`] builds it once).
    pub fn lda_weights(&self) -> Vec<f64> {
        (1..=self.window).map(|d| self.lda_weight(d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FarmerConfig::default();
        assert_eq!(c.p, 0.7);
        assert_eq!(c.max_strength, 0.4);
        assert_eq!(c.path_mode, PathMode::Ipa);
        c.validate();
        FarmerConfig::pathless().validate();
    }

    #[test]
    fn lda_weights_match_paper_example() {
        // "given an access sequence of ABCD ... 1 will be added for B,
        //  0.9 for C, and 0.8 for D."
        let c = FarmerConfig::default();
        assert!((c.lda_weight(1) - 1.0).abs() < 1e-12);
        assert!((c.lda_weight(2) - 0.9).abs() < 1e-12);
        assert!((c.lda_weight(3) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn lda_weight_zero_outside_window() {
        let c = FarmerConfig::default();
        assert_eq!(c.lda_weight(0), 0.0);
        assert_eq!(c.lda_weight(c.window + 1), 0.0);
        assert!(c.lda_weight(c.window) > 0.0);
    }

    #[test]
    fn lda_weight_never_negative() {
        let mut c = FarmerConfig::default();
        c.window = 100;
        for d in 1..=100 {
            assert!(c.lda_weight(d) >= 0.0);
        }
    }

    #[test]
    fn lda_table_matches_per_distance_api() {
        // A window past the eleventh distance, where the weight reaches 0.
        let mut c = FarmerConfig::default();
        c.window = 17;
        let table = c.lda_weights();
        assert_eq!(table.len(), c.window);
        for (i, &w) in table.iter().enumerate() {
            assert_eq!(w.to_bits(), c.lda_weight(i + 1).to_bits());
        }
        assert!(table[9] > 0.0 && table[11] == 0.0);
    }

    #[test]
    #[should_panic(expected = "p must be in [0,1]")]
    fn with_p_validates() {
        let _ = FarmerConfig::default().with_p(1.5);
    }

    #[test]
    fn builders_set_fields() {
        let c = FarmerConfig::default()
            .with_p(0.3)
            .with_max_strength(0.2)
            .with_path_mode(PathMode::Dpa);
        assert_eq!(c.p, 0.3);
        assert_eq!(c.max_strength, 0.2);
        assert_eq!(c.path_mode, PathMode::Dpa);
    }
}
