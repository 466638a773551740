//! Total-weight tracking sub-protocol.
//!
//! Protocol P4 ([`crate::report`], HH-P4 and MT-P4) needs every site to
//! know a 2-approximation `Ŵ ≤ W ≤ 2Ŵ` of the global total weight (it
//! calibrates the send probability `p = 2√m/(εŴ)`). The paper runs this
//! as a separate parallel process (§4, "Estimating total weight"); this
//! module is that process.
//!
//! Mechanism: a site reports its unreported local weight once it reaches
//! `Ŵ/(2m)`; the coordinator re-broadcasts `Ŵ ← W_C` once the received
//! total `W_C` reaches `(3/2)·Ŵ`. Between broadcasts the unreported mass
//! across all sites is below `m·Ŵ/(2m) = Ŵ/2`, giving the invariant
//! `Ŵ ≤ W_C ≤ W ≤ W_C + Ŵ/2 ≤ (3/2)Ŵ + Ŵ/2 = 2Ŵ` — deterministically,
//! not just with high probability. Communication is `O(m log(βN))`
//! messages (each site reports `O(1)` times per constant-factor growth of
//! `W`).

/// Site half of the weight tracker.
#[derive(Debug, Clone)]
pub struct SiteWeightTracker {
    sites: usize,
    /// Local weight not yet reported to the coordinator.
    unreported: f64,
    /// Latest broadcast global estimate `Ŵ`.
    w_hat: f64,
}

impl SiteWeightTracker {
    /// Creates the site half for an `m`-site deployment.
    ///
    /// The initial estimate is 1 (the minimum item weight), so early
    /// arrivals report eagerly until the global estimate grows — the same
    /// bootstrap all the paper's protocols use.
    pub fn new(sites: usize) -> Self {
        assert!(sites >= 1, "SiteWeightTracker: need at least one site");
        SiteWeightTracker {
            sites,
            unreported: 0.0,
            w_hat: 1.0,
        }
    }

    /// Creates a tracker half whose report threshold divides the `Ŵ/2`
    /// unreported-weight budget across `nodes` withholding nodes instead
    /// of `m` sites. Tree deployments pass `m + I` (leaves plus interior
    /// aggregators) so every node that can hold weight shares the same
    /// deterministic 2-approximation invariant:
    /// unreported ≤ `(m + I)·Ŵ/(2(m + I)) = Ŵ/2`.
    pub fn with_budget(nodes: usize) -> Self {
        Self::new(nodes)
    }

    /// Current global estimate `Ŵ` known to this site.
    pub fn w_hat(&self) -> f64 {
        self.w_hat
    }

    /// Absorbs local weight `w`; returns `Some(report)` when the site
    /// must send its unreported total to the coordinator.
    pub fn add(&mut self, w: f64) -> Option<f64> {
        debug_assert!(w >= 0.0 && w.is_finite());
        self.unreported += w;
        if self.unreported >= self.w_hat / (2.0 * self.sites as f64) {
            let report = self.unreported;
            self.unreported = 0.0;
            Some(report)
        } else {
            None
        }
    }

    /// Applies a broadcast estimate.
    pub fn on_broadcast(&mut self, w_hat: f64) {
        self.w_hat = w_hat;
    }

    /// Drains the unreported weight, leaving the tracker empty — the
    /// migration hook: a live re-plan must not strand withheld weight in
    /// a retired node, so this ignores the report threshold.
    pub fn take_unreported(&mut self) -> f64 {
        std::mem::take(&mut self.unreported)
    }

    /// Withholding-node budget the report threshold is split across.
    pub fn budget(&self) -> usize {
        self.sites
    }

    /// Local weight not yet reported upward.
    pub fn unreported(&self) -> f64 {
        self.unreported
    }

    /// Re-splits the report threshold across a new withholding-node
    /// count — the churn hook: `Ŵ/(2·nodes)` restated for `m' + I'`.
    pub fn set_budget(&mut self, nodes: usize) {
        assert!(nodes >= 1, "SiteWeightTracker: need at least one node");
        self.sites = nodes;
    }

    /// Rebuilds a tracker half from snapshot parts.
    pub fn from_parts(nodes: usize, unreported: f64, w_hat: f64) -> Self {
        let mut t = Self::new(nodes);
        t.unreported = unreported;
        t.w_hat = w_hat;
        t
    }
}

/// Coordinator half of the weight tracker.
#[derive(Debug, Clone)]
pub struct CoordWeightTracker {
    /// Sum of all site reports: `W_C ≤ W`.
    received: f64,
    /// Last broadcast estimate.
    w_hat: f64,
}

impl CoordWeightTracker {
    /// Creates the coordinator half.
    pub fn new() -> Self {
        CoordWeightTracker {
            received: 0.0,
            w_hat: 1.0,
        }
    }

    /// Latest broadcast estimate `Ŵ` (satisfies `Ŵ ≤ W ≤ 2Ŵ` once any
    /// weight has been received).
    pub fn w_hat(&self) -> f64 {
        self.w_hat
    }

    /// Total weight received from sites (`W_C`, a lower bound on `W`).
    pub fn received(&self) -> f64 {
        self.received
    }

    /// Rebuilds the coordinator half from snapshot parts.
    pub fn from_parts(received: f64, w_hat: f64) -> Self {
        CoordWeightTracker { received, w_hat }
    }

    /// Folds in a site report; returns `Some(new Ŵ)` when a broadcast is
    /// due.
    pub fn on_report(&mut self, report: f64) -> Option<f64> {
        debug_assert!(report >= 0.0 && report.is_finite());
        self.received += report;
        if self.received >= 1.5 * self.w_hat {
            self.w_hat = self.received;
            Some(self.w_hat)
        } else {
            None
        }
    }
}

impl Default for CoordWeightTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Simulates the full tracker over a random weighted stream and
    /// asserts the two-approximation invariant at every step.
    #[test]
    fn maintains_two_approximation() {
        let m = 8;
        let mut sites: Vec<SiteWeightTracker> = (0..m).map(|_| SiteWeightTracker::new(m)).collect();
        let mut coord = CoordWeightTracker::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut w_true = 0.0;
        let mut msgs = 0u64;

        for i in 0..20_000u64 {
            let w: f64 = rng.gen_range(1.0..100.0);
            w_true += w;
            let site = (i % m as u64) as usize;
            if let Some(report) = sites[site].add(w) {
                msgs += 1;
                if let Some(new_hat) = coord.on_report(report) {
                    for s in &mut sites {
                        s.on_broadcast(new_hat);
                    }
                }
            }
            // Invariant (after warm-up past the initial estimate of 1):
            if w_true >= 2.0 {
                let w_hat = coord.w_hat();
                assert!(
                    w_true <= 2.0 * w_hat + 1e-6,
                    "W={w_true} > 2Ŵ={w_hat} at step {i}"
                );
                assert!(coord.received() <= w_true + 1e-6);
            }
        }
        // Communication is logarithmic-ish, not linear.
        assert!(msgs < 2_000, "tracker sent {msgs} messages for 20k items");
    }

    #[test]
    fn site_reports_when_threshold_hit() {
        let mut s = SiteWeightTracker::new(2);
        s.on_broadcast(100.0); // threshold = 100/(2·2) = 25
        assert_eq!(s.add(10.0), None);
        assert_eq!(s.add(10.0), None);
        let r = s.add(10.0);
        assert_eq!(r, Some(30.0));
        assert_eq!(s.add(1.0), None); // reset after report
    }

    #[test]
    fn coordinator_broadcast_growth() {
        let mut c = CoordWeightTracker::new();
        assert_eq!(c.on_report(1.0), None); // 1.0 < 1.5·1
        assert_eq!(c.on_report(1.0), Some(2.0)); // 2.0 ≥ 1.5
        assert_eq!(c.on_report(0.5), None); // 2.5 < 3.0
        assert_eq!(c.on_report(1.0), Some(3.5));
    }
}
