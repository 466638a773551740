//! Stream partitioners: which site observes each arrival.
//!
//! The distributed streaming model places each arrival at exactly one
//! site. The paper's experiments spread arrivals over sites without
//! specifying a policy (results are insensitive to it — the protocols'
//! guarantees are adversarial in the placement); the harnesses default to
//! [`RoundRobin`], with [`UniformRandom`] and [`Skewed`] available to
//! stress non-uniform site loads in tests.

use crate::SiteId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Assigns each stream position to a site.
pub trait Partitioner {
    /// Site receiving the `idx`-th arrival of the global stream.
    fn assign(&mut self, idx: u64) -> SiteId;
    /// Number of sites `m`.
    fn sites(&self) -> usize;
}

/// Deterministic round-robin assignment: arrival `i` goes to site
/// `i mod m`.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    m: usize,
}

impl RoundRobin {
    /// Round-robin over `m ≥ 1` sites.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "RoundRobin: need at least one site");
        RoundRobin { m }
    }
}

impl Partitioner for RoundRobin {
    fn assign(&mut self, idx: u64) -> SiteId {
        (idx % self.m as u64) as SiteId
    }
    fn sites(&self) -> usize {
        self.m
    }
}

/// Pre-splits a whole stream into the `m` per-site streams that
/// [`crate::Runner::run_partitioned`] with [`RoundRobin::new`]`(m)`
/// would route (site `i mod m`, arrival order kept within a site) —
/// the explicit input vectors the engine and segmented drivers take,
/// so sequential-vs-concurrent comparisons share one definition of
/// "the identical partitioning".
///
/// # Panics
/// Panics if `m == 0`.
pub fn partition_round_robin<T: Clone>(stream: &[T], m: usize) -> Vec<Vec<T>> {
    let mut rr = RoundRobin::new(m);
    let mut inputs: Vec<Vec<T>> = vec![Vec::new(); m];
    for (i, x) in stream.iter().enumerate() {
        inputs[rr.assign(i as u64)].push(x.clone());
    }
    inputs
}

/// Independent uniform assignment.
#[derive(Debug, Clone)]
pub struct UniformRandom {
    m: usize,
    rng: StdRng,
}

impl UniformRandom {
    /// Uniform over `m ≥ 1` sites, seeded for reproducibility.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: usize, seed: u64) -> Self {
        assert!(m >= 1, "UniformRandom: need at least one site");
        UniformRandom {
            m,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Partitioner for UniformRandom {
    fn assign(&mut self, _idx: u64) -> SiteId {
        self.rng.gen_range(0..self.m)
    }
    fn sites(&self) -> usize {
        self.m
    }
}

/// Geometrically skewed assignment: site 0 receives roughly half the
/// stream, site 1 a quarter, and so on. Stresses protocols whose
/// per-site thresholds assume balanced load.
#[derive(Debug, Clone)]
pub struct Skewed {
    m: usize,
    rng: StdRng,
}

impl Skewed {
    /// Geometric skew over `m ≥ 1` sites.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: usize, seed: u64) -> Self {
        assert!(m >= 1, "Skewed: need at least one site");
        Skewed {
            m,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Partitioner for Skewed {
    fn assign(&mut self, _idx: u64) -> SiteId {
        for s in 0..self.m - 1 {
            if self.rng.gen_bool(0.5) {
                return s;
            }
        }
        self.m - 1
    }
    fn sites(&self) -> usize {
        self.m
    }
}

/// Key-affinity assignment: arrivals with the same key always land on
/// the same site (multiplicative hashing). This is how real ingestion
/// tiers shard logs (by user, by URL, by flow), and it is the *worst*
/// case for per-element protocols — a heavy item's entire weight
/// concentrates at one site — so tests use it to probe that the
/// guarantees really are placement-adversarial.
#[derive(Debug, Clone)]
pub struct ByKey {
    m: usize,
}

impl ByKey {
    /// Key-affinity over `m ≥ 1` sites.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "ByKey: need at least one site");
        ByKey { m }
    }

    /// Site for a given key (stable across the stream).
    pub fn site_for(&self, key: u64) -> SiteId {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.m
    }
}

impl Partitioner for ByKey {
    /// For [`Partitioner`] uses the *index* as the key; callers with real
    /// item keys should use [`ByKey::site_for`] directly.
    fn assign(&mut self, idx: u64) -> SiteId {
        self.site_for(idx)
    }
    fn sites(&self) -> usize {
        self.m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_key_is_stable_and_covers_sites() {
        let p = ByKey::new(8);
        for key in 0..100u64 {
            assert_eq!(p.site_for(key), p.site_for(key));
        }
        let mut seen = [false; 8];
        for key in 0..1000u64 {
            seen[p.site_for(key)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn round_robin_cycles() {
        let mut p = RoundRobin::new(3);
        let seq: Vec<SiteId> = (0..7).map(|i| p.assign(i)).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(p.sites(), 3);
    }

    /// Site that records what it was fed and never talks.
    struct Recorder(Vec<u64>);

    #[derive(Clone)]
    struct Silent;

    impl crate::MessageCost for Silent {
        fn cost(&self) -> u64 {
            0
        }
    }

    impl crate::Site for Recorder {
        type Input = u64;
        type UpMsg = Silent;
        type Broadcast = f64;

        fn observe(&mut self, x: u64, _out: &mut Vec<Silent>) {
            self.0.push(x);
        }
        fn on_broadcast(&mut self, _: &f64) {}
    }

    struct Sink;

    impl crate::Coordinator for Sink {
        type UpMsg = Silent;
        type Broadcast = f64;

        fn receive(&mut self, _from: SiteId, _msg: Silent, _out: &mut Vec<f64>) {}
    }

    #[test]
    fn pre_split_equals_what_run_partitioned_routes_round_robin() {
        // m = 1, empty stream, len < m, len not a multiple of m, and a
        // batch size that does not divide the stream.
        for (m, len) in [(1, 5), (4, 0), (5, 3), (3, 10), (8, 64)] {
            let stream: Vec<u64> = (0..len).collect();
            let sites = (0..m).map(|_| Recorder(Vec::new())).collect();
            let mut runner = crate::Runner::new(sites, Sink);
            runner.run_partitioned(stream.iter().copied(), &mut RoundRobin::new(m), 7);
            let routed: Vec<Vec<u64>> = runner.sites().iter().map(|s| s.0.clone()).collect();
            assert_eq!(partition_round_robin(&stream, m), routed, "m={m} len={len}");
        }
    }

    #[test]
    fn uniform_hits_all_sites() {
        let mut p = UniformRandom::new(4, 42);
        let mut seen = [false; 4];
        for i in 0..200 {
            seen[p.assign(i)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_is_reproducible() {
        let mut a = UniformRandom::new(5, 7);
        let mut b = UniformRandom::new(5, 7);
        for i in 0..50 {
            assert_eq!(a.assign(i), b.assign(i));
        }
    }

    #[test]
    fn skewed_favours_low_sites() {
        let mut p = Skewed::new(4, 11);
        let mut counts = [0u32; 4];
        for i in 0..4000 {
            counts[p.assign(i)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[3]);
        // Last site absorbs the geometric tail; all sites reachable.
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn single_site_always_zero() {
        let mut p = RoundRobin::new(1);
        assert_eq!(p.assign(12345), 0);
        let mut q = Skewed::new(1, 1);
        assert_eq!(q.assign(0), 0);
    }
}
