//! Zipfian distribution over a bounded universe.
//!
//! The heavy-hitter experiments (paper §6.1) draw `10⁷` items from a
//! Zipfian distribution with skew 2: `P(k) ∝ k^{-2}` over `k ∈ [1, u]`.
//! Sampling inverts the CDF table through a guide table (Chen and Asau):
//! `O(u)` setup, `O(1)` expected steps per sample, exact (no rejection),
//! and deterministic given the RNG, which the experiment harnesses rely on
//! for reproducibility. A draw lands on the same index a binary search of
//! the CDF would find.

use rand::Rng;

/// Zipfian sampler: `P(k) ∝ k^{-skew}` for `k ∈ {1, …, universe}`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the first index whose CDF reaches `j / G`, for
    /// `G = guide.len()` buckets of `[0, 1)`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    /// Panics if `universe == 0` or `skew` is not finite and positive.
    pub fn new(universe: usize, skew: f64) -> Self {
        assert!(universe >= 1, "Zipf: universe must be non-empty");
        assert!(
            skew.is_finite() && skew > 0.0,
            "Zipf: skew must be positive"
        );
        let mut cdf = Vec::with_capacity(universe);
        let mut acc = 0.0;
        for k in 1..=universe {
            acc += (k as f64).powf(-skew);
            cdf.push(acc);
        }
        let norm = acc;
        for v in &mut cdf {
            *v /= norm;
        }
        // Guard against floating-point shortfall at the top.
        *cdf.last_mut().expect("non-empty") = 1.0;
        let buckets = universe;
        let mut guide = Vec::with_capacity(buckets);
        let mut idx = 0;
        for j in 0..buckets {
            let edge = j as f64 / buckets as f64;
            while cdf[idx] < edge {
                idx += 1;
            }
            guide.push(u32::try_from(idx).expect("Zipf: universe fits in u32"));
        }
        Zipf { cdf, guide }
    }

    /// Universe size `u`.
    pub fn universe(&self) -> usize {
        self.cdf.len()
    }

    /// Exact probability of item `k` (1-based).
    ///
    /// # Panics
    /// Panics if `k` is outside `[1, u]`.
    pub fn pmf(&self, k: usize) -> f64 {
        assert!(
            k >= 1 && k <= self.cdf.len(),
            "Zipf::pmf: item out of range"
        );
        if k == 1 {
            self.cdf[0]
        } else {
            self.cdf[k - 1] - self.cdf[k - 2]
        }
    }

    /// Draws one item (1-based rank; rank 1 is the most frequent).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let idx = self.index_of(rng.gen());
        (idx.min(self.cdf.len() - 1) + 1) as u64
    }

    /// `cdf.partition_point(|&c| c < u)` for `u ∈ [0, 1)`, started from the
    /// guide entry of `u`'s bucket. Rounding in `u·G` or in a bucket edge can
    /// start one bucket off, so the walk steps back as well as forward.
    fn index_of(&self, u: f64) -> usize {
        let buckets = self.guide.len();
        let j = ((u * buckets as f64) as usize).min(buckets - 1);
        let mut idx = self.guide[j] as usize;
        while idx > 0 && self.cdf[idx - 1] >= u {
            idx -= 1;
        }
        while idx < self.cdf.len() && self.cdf[idx] < u {
            idx += 1;
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 2.0);
        let total: f64 = (1..=100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pmf_ratios_follow_power_law() {
        let z = Zipf::new(1000, 2.0);
        // P(1)/P(2) = 2² = 4.
        assert!((z.pmf(1) / z.pmf(2) - 4.0).abs() < 1e-9);
        // P(2)/P(4) = 4.
        assert!((z.pmf(2) / z.pmf(4) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn samples_match_pmf() {
        let z = Zipf::new(50, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mut counts = vec![0u64; 51];
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Head items: empirical frequency within 5% of the pmf.
        #[allow(clippy::needless_range_loop)]
        for k in 1..=3 {
            let emp = counts[k] as f64 / n as f64;
            let want = z.pmf(k);
            assert!(
                (emp - want).abs() / want < 0.05,
                "item {k}: empirical {emp} vs pmf {want}"
            );
        }
    }

    #[test]
    fn skew_two_concentrates_on_head() {
        let z = Zipf::new(10_000, 2.0);
        // Top-10 items carry the majority of the mass at skew 2.
        let head: f64 = (1..=10).map(|k| z.pmf(k)).sum();
        assert!(head > 0.9, "head mass only {head}");
    }

    #[test]
    fn sample_stays_in_universe() {
        let z = Zipf::new(7, 1.5);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let s = z.sample(&mut rng);
            assert!((1..=7).contains(&s));
        }
    }

    #[test]
    fn universe_of_one() {
        let z = Zipf::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(z.sample(&mut rng), 1);
        assert_eq!(z.pmf(1), 1.0);
    }

    /// `u` at, just above and just below bucket edge `j / G`, kept in `[0, 1)`.
    fn near_edge(j: usize, buckets: usize) -> [f64; 3] {
        let edge = j as f64 / buckets as f64;
        [
            edge,
            f64::from_bits(edge.to_bits() + 1),
            edge.next_down().max(0.0),
        ]
        .map(|u| u.min(1.0_f64.next_down()))
    }

    /// At the paper's universe and skew, every bucket edge and its two
    /// neighbours land where a binary search of the CDF does.
    #[test]
    fn index_of_is_partition_point_at_every_edge() {
        let z = Zipf::new(100_000, 2.0);
        let buckets = z.guide.len();
        for j in 0..buckets {
            for u in near_edge(j, buckets) {
                assert_eq!(z.index_of(u), z.cdf.partition_point(|&c| c < u), "u = {u}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// The guide-table walk lands where a binary search of the CDF does,
        /// for arbitrary `u`, for `u` at and next to a bucket edge `j / G`,
        /// and for `u` equal to a CDF value.
        #[test]
        fn index_of_is_partition_point(
            small in 0u8..2,
            n in 1usize..5_000,
            skew in 0.5f64..3.0,
            frac in 0.0f64..1.0,
            nudge in 0u8..5,
        ) {
            let universe = if small == 0 { n % 64 + 1 } else { n };
            let z = Zipf::new(universe, skew);
            let buckets = z.guide.len();
            let j = ((frac * buckets as f64) as usize).min(buckets - 1);
            let u = match nudge {
                0 => frac,
                4 => z.cdf[j * universe / buckets].min(1.0_f64.next_down()),
                k => near_edge(j, buckets)[k as usize - 1],
            };
            prop_assert_eq!(z.index_of(u), z.cdf.partition_point(|&c| c < u));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let z = Zipf::new(100, 2.0);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }
}
