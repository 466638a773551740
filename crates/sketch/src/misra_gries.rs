//! Weighted Misra–Gries frequency summary.
//!
//! The classical MG algorithm (Misra & Gries 1982) keeps `ℓ` labelled
//! counters and guarantees that every estimate undercounts by at most
//! `W/(ℓ+1)`. The paper (Section 3) uses MG twice: directly on weighted
//! items at the sites of protocol HH-P1, and — through Liberty's
//! singular-direction analogy — as the design template for Frequent
//! Directions. The weighted generalisation here follows Berinde et al.
//! (TODS 2010): an arriving weight is absorbed whole, and when the table
//! overflows the *minimum counter value* (capped by the arriving weight)
//! is subtracted from every counter.
//!
//! Merging follows Agarwal et al. (PODS 2012): sum counters pointwise,
//! then subtract the `(ℓ+1)`-th largest value so at most `ℓ` survive; the
//! total error stays within `W/(ℓ+1)` of the *combined* stream.
//!
//! # The counter table
//! HH-P1 hands tables from site to aggregator to root many times per
//! arrival, so the table is built to move counters without rehashing:
//! * **Each item is hashed once.** Items are hashed with SipHash-1-3
//!   under a random key (`std`'s `RandomState`), drawn once per process
//!   rather than once per table. A key stores its item beside that hash
//!   (a 24-byte entry with its counter, against 16 for a bare item), and
//!   the table's hasher passes the stored hash through, so merges,
//!   growth and hand-offs never hash again. Equality still compares the
//!   item.
//! * **Overflow selects, it does not sort.** A merge past `ℓ` counters
//!   finds the `(ℓ+1)`-th largest with a linear-time selection. Counters
//!   are finite and `> 0`, so that value is the sorted one, bit for bit.
//!
//! Iteration order is unspecified; the wire encoding sorts by item.

use crate::Item;
use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::OnceLock;

/// The process's item hasher: SipHash-1-3 under one random key.
fn item_hasher() -> &'static RandomState {
    static HASHER: OnceLock<RandomState> = OnceLock::new();
    HASHER.get_or_init(RandomState::new)
}

/// A table key: the item and its hash, computed once when the item
/// enters a table. Equality compares the item alone.
#[derive(Debug, Clone, Copy)]
struct Key {
    item: Item,
    hash: u64,
}

impl Key {
    /// Hashes `item` to the bits `BuildHasher::hash_one` gives (`u64`'s
    /// `Hash` is one `write_u64`), spelled out: through `hash_one` the
    /// SipHash rounds stayed out of line, and an update into a
    /// 2 000-counter table ran ≈ 30 % slower than into a plain
    /// `HashMap<Item, f64>`.
    #[inline]
    fn new(item: Item) -> Self {
        let mut state = item_hasher().build_hasher();
        state.write_u64(item);
        Key {
            item,
            hash: state.finish(),
        }
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.item == other.item
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Passes a [`Key`]'s stored hash through unchanged.
#[derive(Default)]
struct StoredHash(u64);

impl Hasher for StoredHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("StoredHash only takes a Key's stored hash")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

type Table = HashMap<Key, f64, BuildHasherDefault<StoredHash>>;

/// Weighted Misra–Gries summary with at most `ℓ` counters.
///
/// Estimates are **underestimates**:
/// `0 ≤ fe(A) − f̂e ≤ W/(ℓ+1)` for every item `e`, where `W` is the total
/// weight fed to (all summaries merged into) this one.
///
/// # Allocation
/// The capacity `ℓ` bounds the live counters; it is not allocated up
/// front. The table grows with its live counters, so an empty summary
/// costs no heap and a flushed summary of a few counters costs a few
/// buckets, whatever `ℓ` is. A merge walks the table it folds in, so
/// [`MgSummary::absorb`] folds the smaller table into the larger one.
#[derive(Debug, Clone)]
pub struct MgSummary {
    capacity: usize,
    counters: Table,
    /// Total weight processed (including everything merged in).
    total_weight: f64,
    /// Total mass subtracted by decrement steps; the actual undercount of
    /// any single item is at most this, which in turn is ≤ W/(ℓ+1).
    decrement_total: f64,
}

impl MgSummary {
    /// Creates an empty summary of at most `capacity` counters (`ℓ ≥ 1`).
    /// Nothing is allocated: `capacity` bounds the counters, it is not
    /// reserved, so any `capacity` — even `usize::MAX` — is cheap.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "MgSummary: capacity must be at least 1");
        MgSummary {
            capacity,
            counters: Table::default(),
            total_weight: 0.0,
            decrement_total: 0.0,
        }
    }

    /// Creates a summary guaranteeing undercount ≤ `epsilon · W`, i.e.
    /// `ℓ = ⌈1/ε⌉` counters.
    ///
    /// # Panics
    /// Panics unless `0 < epsilon ≤ 1`.
    pub fn with_error_bound(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "MgSummary: epsilon must be in (0, 1]"
        );
        Self::new((1.0 / epsilon).ceil() as usize)
    }

    /// Reassembles a summary from its transported parts: the counter
    /// set plus the two bound-carrying totals that cannot be recomputed
    /// from the counters alone (`total_weight` includes decremented
    /// mass; `decrement_total` is the a-posteriori error bound).
    ///
    /// Each item may appear once, with a finite counter `> 0`: a live
    /// table holds nothing else, and a decoder must refuse anything else
    /// before calling this (the wire encoding lists counters in strictly
    /// ascending item order, so a repeated item is a corrupt frame). A
    /// repeated item here keeps its last counter, while `total_weight`
    /// still counts every copy.
    ///
    /// The map is sized by the counters given, not by `capacity`: a
    /// decoded capacity may be corrupt, and pre-allocating it could
    /// abort the process before the decode had a chance to fail.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or more than `capacity` counters are
    /// given.
    pub fn from_parts(
        capacity: usize,
        counters: impl IntoIterator<Item = (Item, f64)>,
        total_weight: f64,
        decrement_total: f64,
    ) -> Self {
        assert!(capacity >= 1, "MgSummary: capacity must be at least 1");
        let counters: Table = counters
            .into_iter()
            .map(|(e, c)| (Key::new(e), c))
            .collect();
        assert!(
            counters.len() <= capacity,
            "MgSummary::from_parts: more counters than capacity"
        );
        MgSummary {
            capacity,
            counters,
            total_weight,
            decrement_total,
        }
    }

    /// Number of counters the summary may hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// `true` when no counters are live.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Total weight processed so far (`W`).
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// The summary's a-priori error bound `W/(ℓ+1)`.
    pub fn error_bound(&self) -> f64 {
        self.total_weight / (self.capacity as f64 + 1.0)
    }

    /// The (usually much smaller) a-posteriori error bound: the total mass
    /// actually removed by decrement steps.
    pub fn observed_error_bound(&self) -> f64 {
        self.decrement_total
    }

    /// Feeds one weighted item.
    ///
    /// # Panics
    /// Panics if `weight` is negative or non-finite (protocol weights are
    /// `‖row‖²` or user weights in `[1, β]`; anything else is a bug).
    pub fn update(&mut self, item: Item, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "MgSummary: invalid weight {weight}"
        );
        if weight == 0.0 {
            return;
        }
        self.total_weight += weight;

        let key = Key::new(item);
        if self.counters.len() < self.capacity {
            match self.counters.entry(key) {
                Entry::Occupied(mut c) => *c.get_mut() += weight,
                Entry::Vacant(slot) => {
                    slot.insert(weight);
                }
            }
            return;
        }
        // A full table: `entry` would reserve a slot the decrement below
        // may not need, so a hit is looked up on its own.
        if let Some(c) = self.counters.get_mut(&key) {
            *c += weight;
            return;
        }

        // Table full: subtract δ = min(weight, smallest counter) from every
        // counter and from the arriving item; whatever remains of the
        // arriving weight takes the freed slot.
        let min_counter = self.counters.values().fold(f64::INFINITY, |m, &v| m.min(v));
        let delta = min_counter.min(weight);
        self.decrement_total += delta;
        self.counters.retain(|_, v| {
            *v -= delta;
            *v > 0.0
        });
        let remaining = weight - delta;
        if remaining > 0.0 {
            self.counters.insert(key, remaining);
        }
    }

    /// Estimated weighted frequency `f̂e` (an underestimate; zero for
    /// untracked items).
    pub fn estimate(&self, item: Item) -> f64 {
        self.counters.get(&Key::new(item)).copied().unwrap_or(0.0)
    }

    /// Iterates over the live `(item, counter)` pairs in unspecified order.
    pub fn counters(&self) -> impl Iterator<Item = (Item, f64)> + '_ {
        self.counters.iter().map(|(k, &c)| (k.item, c))
    }

    /// Merges `other` into `self` (Agarwal et al. mergeable-summaries
    /// merge). Both summaries must have the same capacity so the combined
    /// error bound is `W_total/(ℓ+1)`.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn merge(&mut self, other: &MgSummary) {
        assert_eq!(
            self.capacity, other.capacity,
            "MgSummary::merge: capacity mismatch"
        );
        self.total_weight += other.total_weight;
        self.decrement_total += other.decrement_total;
        for (&k, &c) in &other.counters {
            *self.counters.entry(k).or_insert(0.0) += c;
        }
        if self.counters.len() <= self.capacity {
            return;
        }
        // Subtract the (ℓ+1)-th largest counter value from everything.
        let mut values: Vec<f64> = self.counters.values().copied().collect();
        let (_, &mut delta, _) = values
            .select_nth_unstable_by(self.capacity, |a, b| b.partial_cmp(a).expect("NaN counter"));
        self.decrement_total += delta;
        self.counters.retain(|_, v| {
            *v -= delta;
            *v > 0.0
        });
        debug_assert!(self.counters.len() <= self.capacity);
    }

    /// Merges `other` into `self` by value: the same result as
    /// [`MgSummary::merge`], bit for bit, but the smaller table is the one
    /// walked — when `other` holds more counters the two swap first.
    /// Per-key IEEE addition and both totals commute, and the
    /// `(ℓ+1)`-th-largest decrement depends only on the summed multiset.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn absorb(&mut self, mut other: MgSummary) {
        if other.counters.len() > self.counters.len() {
            std::mem::swap(self, &mut other);
        }
        self.merge(&other);
    }

    /// Hands the whole summary off and leaves an empty one of the same
    /// capacity behind — how a protocol node ships its state.
    pub fn take_all(&mut self) -> MgSummary {
        std::mem::replace(self, MgSummary::new(self.capacity))
    }

    /// Removes `item`'s counter and returns its value (zero if
    /// untracked). Used by protocol sites that reset one item's delta
    /// after reporting it to the coordinator; the removed mass is also
    /// subtracted from `total_weight` so the remaining summary keeps its
    /// invariant with respect to the unreported weight.
    pub fn take(&mut self, item: Item) -> f64 {
        match self.counters.remove(&Key::new(item)) {
            Some(c) => {
                self.total_weight = (self.total_weight - c).max(0.0);
                c
            }
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactWeightedCounter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Checks the MG invariant `0 ≤ fe − f̂e ≤ W/(ℓ+1)` on a full stream.
    fn assert_invariant(stream: &[(Item, f64)], capacity: usize) {
        let mut mg = MgSummary::new(capacity);
        let mut exact = ExactWeightedCounter::new();
        for &(e, w) in stream {
            mg.update(e, w);
            exact.update(e, w);
        }
        let bound = mg.error_bound() + 1e-9;
        for (e, f) in exact.iter() {
            let est = mg.estimate(e);
            assert!(est <= f + 1e-9, "overestimate: item {e}: {est} > {f}");
            assert!(
                f - est <= bound,
                "undercount too large: item {e}: {f} - {est} > {bound}"
            );
        }
        assert!((mg.total_weight() - exact.total_weight()).abs() < 1e-9);
        assert!(mg.observed_error_bound() <= bound);
    }

    #[test]
    fn no_eviction_is_exact() {
        let stream = [(1u64, 2.0), (2, 3.0), (1, 1.0)];
        let mut mg = MgSummary::new(4);
        for &(e, w) in &stream {
            mg.update(e, w);
        }
        assert_eq!(mg.estimate(1), 3.0);
        assert_eq!(mg.estimate(2), 3.0);
        assert_eq!(mg.len(), 2);
    }

    #[test]
    fn eviction_keeps_invariant_small_capacity() {
        let stream: Vec<(Item, f64)> = (0..200)
            .map(|i| ((i % 7) as Item, 1.0 + (i % 3) as f64))
            .collect();
        assert_invariant(&stream, 2);
        assert_invariant(&stream, 3);
        assert_invariant(&stream, 7);
    }

    #[test]
    fn skewed_stream_heavy_item_survives() {
        // Item 0 carries half the weight; with ℓ=4 it must be tracked and
        // estimated within W/5.
        let mut stream = Vec::new();
        for i in 0..1000u64 {
            stream.push((0, 1.0));
            stream.push((1 + (i % 50), 1.0));
        }
        let mut mg = MgSummary::new(4);
        for &(e, w) in &stream {
            mg.update(e, w);
        }
        let est = mg.estimate(0);
        assert!(est >= 1000.0 - mg.error_bound());
        assert!(est <= 1000.0);
    }

    #[test]
    fn incoming_smaller_than_min_is_absorbed() {
        let mut mg = MgSummary::new(2);
        mg.update(1, 10.0);
        mg.update(2, 10.0);
        // Weight 1 arrival on a full table, smaller than the min counter:
        // every counter shrinks by 1 and the item is not inserted.
        mg.update(3, 1.0);
        assert_eq!(mg.estimate(1), 9.0);
        assert_eq!(mg.estimate(2), 9.0);
        assert_eq!(mg.estimate(3), 0.0);
        assert_eq!(mg.len(), 2);
    }

    #[test]
    fn incoming_larger_than_min_takes_slot() {
        let mut mg = MgSummary::new(2);
        mg.update(1, 1.0);
        mg.update(2, 10.0);
        mg.update(3, 5.0);
        // δ = min(5, 1) = 1: item 1 evicted, item 3 enters with 4.
        assert_eq!(mg.estimate(1), 0.0);
        assert_eq!(mg.estimate(2), 9.0);
        assert_eq!(mg.estimate(3), 4.0);
    }

    #[test]
    fn merge_matches_invariant() {
        let mut rng = StdRng::seed_from_u64(77);
        let cap = 5;
        let mut parts: Vec<MgSummary> = (0..4).map(|_| MgSummary::new(cap)).collect();
        let mut exact = ExactWeightedCounter::new();
        for i in 0..2000 {
            let e: Item = rng.gen_range(0..40);
            let w: f64 = rng.gen_range(1.0..10.0);
            parts[i % 4].update(e, w);
            exact.update(e, w);
        }
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p);
        }
        assert!(merged.len() <= cap);
        let bound = merged.error_bound() + 1e-9;
        for (e, f) in exact.iter() {
            let est = merged.estimate(e);
            assert!(est <= f + 1e-9);
            assert!(f - est <= bound, "item {e}: {f} vs {est}, bound {bound}");
        }
    }

    #[test]
    fn merge_without_overflow_is_pointwise_sum() {
        let mut a = MgSummary::new(8);
        let mut b = MgSummary::new(8);
        a.update(1, 2.0);
        b.update(1, 3.0);
        b.update(2, 4.0);
        a.merge(&b);
        assert_eq!(a.estimate(1), 5.0);
        assert_eq!(a.estimate(2), 4.0);
        assert_eq!(a.total_weight(), 9.0);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn merge_capacity_mismatch_panics() {
        let mut a = MgSummary::new(2);
        let b = MgSummary::new(3);
        a.merge(&b);
    }

    #[test]
    fn with_error_bound_sets_capacity() {
        let mg = MgSummary::with_error_bound(0.25);
        assert_eq!(mg.capacity(), 4);
    }

    #[test]
    fn take_all_hands_off_and_resets() {
        let mut mg = MgSummary::new(2);
        mg.update(1, 5.0);
        mg.update(2, 1.0);
        mg.update(3, 2.0);
        let shipped = mg.take_all();
        assert_eq!(shipped.estimate(3), 1.0);
        assert_eq!(shipped.total_weight(), 8.0);
        assert_eq!(shipped.observed_error_bound(), 1.0);
        assert!(mg.is_empty());
        assert_eq!(mg.total_weight(), 0.0);
        assert_eq!(mg.observed_error_bound(), 0.0);
        assert_eq!(mg.capacity(), 2);
    }

    /// Capacity bounds the counters and is never reserved, so a hostile
    /// capacity neither overflows nor aborts on allocation.
    #[test]
    fn huge_capacity_allocates_lazily() {
        let mut mg = MgSummary::new(usize::MAX);
        for e in 0..100 {
            mg.update(e, 1.0);
        }
        let mut other = MgSummary::new(usize::MAX);
        other.update(7, 2.0);
        mg.absorb(other.take_all());
        assert_eq!(mg.len(), 100);
        assert_eq!(mg.estimate(7), 3.0);
        assert_eq!(mg.observed_error_bound(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn negative_weight_panics() {
        MgSummary::new(2).update(1, -1.0);
    }

    #[test]
    fn zero_weight_is_noop() {
        let mut mg = MgSummary::new(2);
        mg.update(1, 0.0);
        assert!(mg.is_empty());
        assert_eq!(mg.total_weight(), 0.0);
    }
}
