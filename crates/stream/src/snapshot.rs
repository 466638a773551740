//! Coordinator snapshots: the root complex (coordinator + interior
//! aggregators) as wire bytes.
//!
//! A snapshot is taken at a broadcast boundary — where threshold state
//! is settled everywhere — and captures exactly the state a restarted
//! root needs: the coordinator and every interior aggregator of the
//! current plan, each encoded through its [`WireCodec`]. Sites are
//! *not* snapshotted: they survive a coordinator crash and keep their
//! own state (the recovery driver reconciles the two sides by
//! re-splitting budgets after the restore).
//!
//! The layout is deliberately flat:
//!
//! ```text
//! [u64 version = 1][u64 agg_count][coordinator bytes][agg bytes]...
//! ```
//!
//! so `len = 16 + coordinator.encoded_len() + Σ agg.encoded_len()` —
//! pinned by the `snapshot_roundtrip` suite the same way message
//! codecs are pinned by `wire_roundtrip`.

use crate::wire::{put_u64, WireCodec, WireReader};

/// Snapshot format version (bumped on incompatible layout changes).
pub const SNAPSHOT_VERSION: u64 = 1;

/// A captured root complex: opaque wire bytes with a measured size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// Captures the coordinator and the current plan's interior
    /// aggregators (in plan order) into wire bytes.
    pub fn capture<C: WireCodec, A: WireCodec>(coordinator: &C, aggregators: &[A]) -> Self {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, SNAPSHOT_VERSION);
        put_u64(&mut bytes, aggregators.len() as u64);
        coordinator.encode(&mut bytes);
        for agg in aggregators {
            agg.encode(&mut bytes);
        }
        Snapshot { bytes }
    }

    /// Decodes the root complex back out of the bytes, or `None` on a
    /// malformed / truncated / version-mismatched buffer, or on nodes
    /// that name different widths ([`WireCodec::width`]). The buffer
    /// must be fully consumed — trailing garbage is a decode failure.
    pub fn restore<C: WireCodec, A: WireCodec>(&self) -> Option<(C, Vec<A>)> {
        let mut r = WireReader::new(&self.bytes);
        if r.u64()? != SNAPSHOT_VERSION {
            return None;
        }
        let n = r.usize()?;
        let coordinator = C::decode(&mut r)?;
        let mut aggs = Vec::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            aggs.push(A::decode(&mut r)?);
        }
        if !r.is_empty() {
            return None;
        }
        let mut widths = aggs.iter().filter_map(A::width).chain(coordinator.width());
        let first = widths.next();
        if !widths.all(|w| Some(w) == first) {
            return None;
        }
        Some((coordinator, aggs))
    }

    /// Snapshot size in bytes (what a real deployment would persist).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True only for a snapshot that somehow carries no bytes (never
    /// produced by [`Snapshot::capture`], which always writes a header).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The raw wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Rehydrates a snapshot from persisted bytes (validated lazily by
    /// [`Snapshot::restore`]).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Snapshot { bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::put_f64;

    #[derive(Debug, PartialEq)]
    struct Scalar(f64);

    impl WireCodec for Scalar {
        fn encode(&self, out: &mut Vec<u8>) {
            put_f64(out, self.0);
        }
        fn decode(r: &mut WireReader<'_>) -> Option<Self> {
            r.f64().map(Scalar)
        }
    }

    #[test]
    fn capture_restore_roundtrips() {
        let snap = Snapshot::capture(&Scalar(1.5), &[Scalar(2.0), Scalar(-3.25)]);
        assert_eq!(snap.len() as u64, 16 + 8 + 2 * 8);
        let (c, aggs): (Scalar, Vec<Scalar>) = snap.restore().unwrap();
        assert_eq!(c, Scalar(1.5));
        assert_eq!(aggs, vec![Scalar(2.0), Scalar(-3.25)]);
    }

    /// A node whose payload width is its value.
    #[derive(Debug, PartialEq)]
    struct Wide(u64);

    impl WireCodec for Wide {
        fn encode(&self, out: &mut Vec<u8>) {
            put_u64(out, self.0);
        }
        fn decode(r: &mut WireReader<'_>) -> Option<Self> {
            r.u64().map(Wide)
        }
        fn width(&self) -> Option<usize> {
            Some(self.0 as usize)
        }
    }

    #[test]
    fn nodes_of_different_widths_are_refused() {
        let agree = Snapshot::capture(&Wide(3), &[Wide(3), Wide(3)]);
        assert!(agree.restore::<Wide, Wide>().is_some());
        // A node without a width constrains nothing.
        let unshaped = Snapshot::capture(&Scalar(1.0), &[Wide(3), Wide(3)]);
        assert!(unshaped.restore::<Scalar, Wide>().is_some());
        for (root, aggs) in [(3, [3, 2]), (3, [2, 2])] {
            let snap = Snapshot::capture(&Wide(root), &aggs.map(Wide));
            assert!(snap.restore::<Wide, Wide>().is_none(), "{root} vs {aggs:?}");
        }
    }

    #[test]
    fn version_and_truncation_are_decode_failures() {
        let snap = Snapshot::capture(&Scalar(1.0), &[] as &[Scalar]);
        let mut bad = snap.as_bytes().to_vec();
        bad[0] = 99;
        assert!(Snapshot::from_bytes(bad)
            .restore::<Scalar, Scalar>()
            .is_none());
        let truncated = snap.as_bytes()[..snap.len() - 1].to_vec();
        assert!(Snapshot::from_bytes(truncated)
            .restore::<Scalar, Scalar>()
            .is_none());
        let mut padded = snap.as_bytes().to_vec();
        padded.push(0);
        assert!(Snapshot::from_bytes(padded)
            .restore::<Scalar, Scalar>()
            .is_none());
    }
}
