//! Protocol configuration.
//!
//! Both protocol families share the same knobs: the number of sites `m`,
//! the accuracy target `ε`, and a seed for the randomized members. The
//! sampling protocols additionally need a sample size `s`; the paper sets
//! `s = Θ((1/ε²) log(1/ε))` and the configs default to exactly that with
//! unit constant, overridable for communication/accuracy trade-off
//! studies (Figures 1(e) and 4 tune protocols to equal error this way).

/// Configuration for the weighted heavy-hitter protocols (paper §4).
#[derive(Debug, Clone)]
pub struct HhConfig {
    /// Number of sites `m ≥ 1`.
    pub sites: usize,
    /// Accuracy target `ε ∈ (0, 1)`: estimates are within `εW`.
    pub epsilon: f64,
    /// Seed for the randomized protocols (P3, P3wr, P4); deterministic
    /// protocols ignore it.
    pub seed: u64,
    /// Override for the sampling protocols' sample size `s`
    /// (default `⌈(1/ε²)·ln(1/ε)⌉`).
    pub sample_size: Option<usize>,
}

impl HhConfig {
    /// Creates a configuration with the paper's defaults for the given
    /// `m` and `ε`.
    ///
    /// # Panics
    /// Panics unless `m ≥ 1` and `0 < ε < 1`.
    pub fn new(sites: usize, epsilon: f64) -> Self {
        assert!(sites >= 1, "HhConfig: need at least one site");
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "HhConfig: epsilon must be in (0, 1), got {epsilon}"
        );
        HhConfig {
            sites,
            epsilon,
            seed: 0x5eed,
            sample_size: None,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style sample-size override.
    pub fn with_sample_size(mut self, s: usize) -> Self {
        assert!(s >= 1, "HhConfig: sample size must be positive");
        self.sample_size = Some(s);
        self
    }

    /// The sampling protocols' sample size `s = ⌈(1/ε²)·ln(1/ε)⌉` unless
    /// overridden.
    pub fn sample_size(&self) -> usize {
        sample_size(self.epsilon, self.sample_size)
    }

    /// Per-site RNG seed: decorrelated across sites, reproducible.
    pub fn site_seed(&self, site: usize) -> u64 {
        site_seed(self.seed, site)
    }
}

/// `s = ⌈(1/ε²)·ln(1/ε)⌉` unless `overridden` — the rule both families
/// share.
fn sample_size(epsilon: f64, overridden: Option<usize>) -> usize {
    overridden.unwrap_or_else(|| {
        (((1.0 / (epsilon * epsilon)) * (1.0 / epsilon).ln()).ceil() as usize).max(1)
    })
}

/// Per-site RNG seed derived from the deployment seed.
fn site_seed(seed: u64, site: usize) -> u64 {
    // SplitMix-style mix keeps site streams independent.
    let mut z = seed ^ (site as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

use cma_linalg::LinalgProfile;

/// Configuration for the matrix-tracking protocols (paper §5).
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Number of sites `m ≥ 1`.
    pub sites: usize,
    /// Accuracy target `ε ∈ (0, 1)`:
    /// `|‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F` for unit `x`.
    pub epsilon: f64,
    /// Row dimensionality `d`.
    pub dim: usize,
    /// Seed for the randomized protocols.
    pub seed: u64,
    /// Override for the sampling protocols' sample size.
    pub sample_size: Option<usize>,
    /// Single-value shim ([`LinalgProfile`]): the protocols have one
    /// linalg route and read nothing here. Kept for the frozen
    /// `benchmark/` package until ROADMAP item 5(d).
    pub profile: LinalgProfile,
}

impl MatrixConfig {
    /// Creates a configuration with the paper's defaults.
    ///
    /// # Panics
    /// Panics unless `m ≥ 1`, `0 < ε < 1` and `d ≥ 1`.
    pub fn new(sites: usize, epsilon: f64, dim: usize) -> Self {
        assert!(sites >= 1, "MatrixConfig: need at least one site");
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "MatrixConfig: epsilon must be in (0, 1), got {epsilon}"
        );
        assert!(dim >= 1, "MatrixConfig: dimension must be positive");
        MatrixConfig {
            sites,
            epsilon,
            dim,
            seed: 0x5eed,
            sample_size: None,
            profile: LinalgProfile::default(),
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the single-value [`MatrixConfig::profile`] shim. Kept for the
    /// frozen `benchmark/` package until ROADMAP item 5(d).
    pub fn with_profile(mut self, profile: LinalgProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Builder-style sample-size override.
    pub fn with_sample_size(mut self, s: usize) -> Self {
        assert!(s >= 1, "MatrixConfig: sample size must be positive");
        self.sample_size = Some(s);
        self
    }

    /// Sample size `s = ⌈(1/ε²)·ln(1/ε)⌉` unless overridden.
    pub fn sample_size(&self) -> usize {
        sample_size(self.epsilon, self.sample_size)
    }

    /// Per-site RNG seed (see [`HhConfig::site_seed`]).
    pub fn site_seed(&self, site: usize) -> u64 {
        site_seed(self.seed, site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sample_size_formula() {
        let c = HhConfig::new(10, 0.1);
        // (1/0.01)·ln(10) ≈ 230.2 → 231.
        assert_eq!(c.sample_size(), 231);
    }

    #[test]
    fn sample_size_override() {
        let c = HhConfig::new(10, 0.1).with_sample_size(42);
        assert_eq!(c.sample_size(), 42);
    }

    #[test]
    fn site_seeds_differ() {
        let c = HhConfig::new(4, 0.1).with_seed(7);
        let seeds: Vec<u64> = (0..4).map(|s| c.site_seed(s)).collect();
        for i in 0..4 {
            for j in 0..i {
                assert_ne!(seeds[i], seeds[j]);
            }
        }
    }

    #[test]
    fn site_seeds_reproducible() {
        let a = MatrixConfig::new(3, 0.2, 5).with_seed(9);
        let b = MatrixConfig::new(3, 0.2, 5).with_seed(9);
        assert_eq!(a.site_seed(2), b.site_seed(2));
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0, 1)")]
    fn rejects_bad_epsilon() {
        HhConfig::new(2, 1.5);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn rejects_zero_sites() {
        MatrixConfig::new(0, 0.1, 3);
    }
}
