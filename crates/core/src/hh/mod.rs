//! Weighted heavy hitters in a distributed stream (paper §4).
//!
//! The input is a distributed stream of `(item, weight)` tuples with
//! weights in `[1, β]`; the coordinator must continuously estimate every
//! item's total weight `fe(A)` within `εW`. Four protocols with different
//! communication/determinism trade-offs:
//!
//! * [`p1`] — sites run Misra–Gries and flush whole summaries.
//!   Deterministic, `O((m/ε²) log(βN))` elements.
//! * [`p2`] — sites send per-element weight deltas against a global
//!   threshold. Deterministic, `O((m/ε) log(βN))` messages — the best
//!   deterministic bound (optimal per Yi–Zhang).
//! * [`p3`] — distributed priority sampling without replacement,
//!   `O((m+s) log(βN/s))` messages, `s = Θ(ε⁻² log ε⁻¹)`.
//! * [`p3wr`] — the with-replacement variant (§4.3.1), strictly worse in
//!   practice (kept for the paper's comparison).
//! * [`p4`] — probabilistic count reports, `O((√m/ε) log(βN))` messages;
//!   randomized, constant failure probability.
//!
//! P1, P3, P3wr and P4 are not written here: each is one deployment of
//! [`crate::flush`], [`crate::sampling`] or [`crate::report`], shared
//! with its matrix twin. Their modules hold only the estimator and the
//! type names.
//!
//! All coordinators implement [`HhEstimator`], whose default
//! [`HhEstimator::heavy_hitters`] is the one place the paper's query
//! rule (Lemma 1) is written: report `e` as a `φ`-heavy hitter iff
//! `Ŵe/Ŵ ≥ φ − ε/2`. Protocols supply estimates, not the rule.

pub mod metrics;
pub mod p1;
pub mod p2;
pub mod p3;
pub mod p3wr;
pub mod p4;

pub use crate::config::HhConfig;
pub use metrics::HhEvaluation;

/// Item identifier (the paper's bounded universe `[u]`).
pub type Item = u64;

/// A weighted stream element `(e, w)`.
pub type WeightedItem = (Item, f64);

/// Continuous queries a heavy-hitter coordinator answers locally.
pub trait HhEstimator {
    /// Estimate `Ŵ` of the total stream weight `W`.
    fn total_weight(&self) -> f64;

    /// Estimate `Ŵe` of item `e`'s weight `fe(A)`; zero for untracked
    /// items.
    fn estimate(&self, item: Item) -> f64;

    /// Items with a nonzero estimate, in unspecified order.
    fn tracked_items(&self) -> Vec<Item>;

    /// `(e, Ŵe)` for every tracked item, in unspecified order. The
    /// default asks [`HhEstimator::estimate`] once per tracked item;
    /// coordinators whose per-item estimate rescans their state build
    /// every estimate in one pass instead, summing each item's terms in
    /// the order `estimate` would.
    fn estimates(&self) -> Vec<(Item, f64)> {
        self.tracked_items()
            .into_iter()
            .map(|e| (e, self.estimate(e)))
            .collect()
    }

    /// The pairs of [`HhEstimator::estimates`] whose estimate is at least
    /// `floor`, in unspecified order. A coordinator that holds its
    /// estimates in place filters them as it walks them, so a query
    /// builds no list of every tracked item.
    fn estimates_at_least(&self, floor: f64) -> Vec<(Item, f64)> {
        self.estimates()
            .into_iter()
            .filter(|&(_, w)| w >= floor)
            .collect()
    }

    /// The paper's reporting rule: return `e` iff `Ŵe/Ŵ ≥ φ − ε/2`,
    /// sorted by descending estimate. The one place the threshold is
    /// written; protocols supply estimates, not this.
    ///
    /// Guarantees (Lemma 1): all true `φ`-heavy hitters are returned, and
    /// nothing below `(φ − ε)W` is, provided the protocol meets its
    /// `εW`-accuracy contract.
    fn heavy_hitters(&self, phi: f64, epsilon: f64) -> Vec<(Item, f64)> {
        let w_hat = self.total_weight();
        if w_hat <= 0.0 {
            return Vec::new();
        }
        let mut out = self.estimates_at_least((phi - epsilon / 2.0) * w_hat);
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("NaN estimate")
                .then(a.0.cmp(&b.0))
        });
        out
    }
}

/// Validates a stream weight on entry to any protocol site.
///
/// The paper's model assumes `w ∈ [1, β]`; the protocols only need
/// positivity and finiteness, which is what is enforced.
#[inline]
pub(crate) fn validate_weight(w: f64) {
    assert!(
        w.is_finite() && w > 0.0,
        "heavy-hitter protocols require finite positive weights, got {w}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        total: f64,
        items: Vec<(Item, f64)>,
    }

    impl HhEstimator for Fake {
        fn total_weight(&self) -> f64 {
            self.total
        }
        fn estimate(&self, item: Item) -> f64 {
            self.items
                .iter()
                .find(|(e, _)| *e == item)
                .map(|(_, w)| *w)
                .unwrap_or(0.0)
        }
        fn tracked_items(&self) -> Vec<Item> {
            self.items.iter().map(|(e, _)| *e).collect()
        }
    }

    #[test]
    fn reporting_rule_threshold() {
        let f = Fake {
            total: 100.0,
            items: vec![(1, 30.0), (2, 9.0), (3, 10.0)],
        };
        // φ = 0.12, ε = 0.04 → threshold (0.12 − 0.02)·100 = 10.
        let hh = f.heavy_hitters(0.12, 0.04);
        assert_eq!(hh, vec![(1, 30.0), (3, 10.0)]);
    }

    #[test]
    fn empty_estimator_returns_nothing() {
        let f = Fake {
            total: 0.0,
            items: vec![],
        };
        assert!(f.heavy_hitters(0.1, 0.01).is_empty());
    }

    /// P1, P3, P3wr and P4 supply one-pass `estimates()`; the one reporting
    /// rule over them must equal the brute-force filter over
    /// `tracked_items × estimate`, bit for bit.
    #[test]
    fn one_pass_estimates_report_like_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn brute(c: &impl HhEstimator, phi: f64, epsilon: f64) -> Vec<(Item, f64)> {
            let threshold = (phi - epsilon / 2.0) * c.total_weight();
            let mut out: Vec<(Item, f64)> = c
                .tracked_items()
                .into_iter()
                .map(|e| (e, c.estimate(e)))
                .filter(|&(_, w)| w >= threshold)
                .collect();
            out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            out
        }

        let cfg = HhConfig::new(4, 0.1).with_seed(17);
        let mut r1 = p1::deploy(&cfg);
        let mut r3 = p3::deploy(&cfg);
        let mut r3wr = p3wr::deploy(&cfg);
        let mut r4 = p4::deploy(&cfg);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..20_000u64 {
            let item: Item = match rng.gen_range(0..10) {
                0..=2 => 1,
                3 => 2,
                _ => rng.gen_range(3..60),
            };
            let w: f64 = rng.gen_range(1.0..6.0);
            let site = (i % 4) as usize;
            r1.feed(site, (item, w));
            r3.feed(site, (item, w));
            r3wr.feed(site, (item, w));
            r4.feed(site, (item, w));
        }
        for (phi, eps) in [(0.02, 0.02), (0.05, 0.04), (0.25, 0.1)] {
            let p1_hh = r1.coordinator().heavy_hitters(phi, eps);
            assert!(!p1_hh.is_empty());
            assert_eq!(p1_hh, brute(r1.coordinator(), phi, eps), "P1 φ={phi}");
            let p3_hh = r3.coordinator().heavy_hitters(phi, eps);
            assert!(!p3_hh.is_empty());
            assert_eq!(p3_hh, brute(r3.coordinator(), phi, eps), "P3 φ={phi}");
            let p3wr_hh = r3wr.coordinator().heavy_hitters(phi, eps);
            assert_eq!(p3wr_hh, brute(r3wr.coordinator(), phi, eps), "P3wr φ={phi}");
            let p4_hh = r4.coordinator().heavy_hitters(phi, eps);
            assert_eq!(p4_hh, brute(r4.coordinator(), phi, eps), "P4 φ={phi}");
        }
        assert!(r3.coordinator().heavy_hitters(0.02, 0.02).len() > 2);
    }

    #[test]
    fn sorted_by_estimate_descending() {
        let f = Fake {
            total: 10.0,
            items: vec![(5, 2.0), (6, 8.0)],
        };
        let hh = f.heavy_hitters(0.1, 0.1);
        assert_eq!(hh[0].0, 6);
    }
}
