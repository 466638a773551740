//! Property suite for the wire codecs (PR 8): for every protocol
//! message type, `encode → decode` is the identity (checked by
//! re-encoded byte equality — sketch payloads carry no `PartialEq`),
//! decoding consumes exactly the encoded bytes, and the three size
//! reports agree: the actual buffer length, [`WireCodec::encoded_len`],
//! and [`MessageCost::wire_bytes`] — the number charged to
//! [`cma::stream::CommStats::bytes_up`] at every hop.

use cma::linalg::Matrix;
use cma::protocols::hh::p1::P1Msg;
use cma::protocols::hh::p2::P2Msg;
use cma::protocols::hh::p3::P3Msg;
use cma::protocols::hh::p3wr::P3wrMsg;
use cma::protocols::hh::p4::P4Msg;
use cma::protocols::matrix::p1::MP1Msg;
use cma::protocols::matrix::p2::MP2Msg;
use cma::protocols::matrix::p3::MP3Msg;
use cma::protocols::matrix::p3wr::MP3wrMsg;
use cma::protocols::matrix::p4::MP4Msg;
use cma::protocols::sampling::WrHit;
use cma::protocols::window::SwMsg;
use cma::protocols::wire::{put_fd, read_fd};
use cma::sketch::sliding_window::WinBucket;
use cma::sketch::{FrequentDirections, MgSummary};
use cma::stream::{GossipDigest, GossipFrame, MessageCost, WireCodec, WireReader, WireSized};
use proptest::prelude::*;

/// The shared pin: buffer length == `encoded_len` == `wire_bytes`,
/// decode succeeds, consumes everything, and re-encodes byte-exactly.
fn assert_roundtrip<T: WireCodec + MessageCost>(msg: &T, what: &str) {
    let buf = msg.to_wire();
    assert_eq!(buf.len() as u64, msg.encoded_len(), "{what}: encoded_len");
    assert_eq!(buf.len() as u64, msg.wire_bytes(), "{what}: wire_bytes");
    let mut r = WireReader::new(&buf);
    let back = T::decode(&mut r).unwrap_or_else(|| panic!("{what}: decode failed"));
    assert!(r.is_empty(), "{what}: decode left trailing bytes");
    assert_eq!(buf, back.to_wire(), "{what}: re-encode diverged");
}

fn mg_from(capacity: usize, updates: &[(u64, f64)]) -> MgSummary {
    let mut s = MgSummary::new(capacity);
    for &(e, w) in updates {
        s.update(e, w);
    }
    s
}

fn fd_from(d: usize, ell: usize, cells: &[f64]) -> FrequentDirections {
    let mut fd = FrequentDirections::new(d, ell);
    for row in cells.chunks_exact(d) {
        fd.update(row);
    }
    fd
}

/// `buf` with the little-endian `f64` at byte offset `at` replaced by `v`.
fn poison(buf: &[u8], at: usize, v: f64) -> Vec<u8> {
    let mut out = buf.to_vec();
    out[at..at + 8].copy_from_slice(&v.to_le_bytes());
    out
}

/// Hostile bytes: a row, matrix or sketch carrying a NaN or ∞ entry, or
/// a sketch whose `frob_sq`/`shrink_loss` is non-finite or negative,
/// decodes to `None` instead of a summary whose bound is NaN.
#[test]
fn non_finite_values_fail_to_decode() {
    let row = vec![1.0, -2.0, 3.0];
    let direction = MP2Msg::Direction(row.clone()).to_wire();
    let flush = MP1Msg {
        rows: Matrix::from_vec(1, 3, row.clone()),
        mass: 14.0,
    }
    .to_wire();
    let fd = fd_from(3, 4, &[1.0, 0.0, 2.0, 0.0, -1.0, 0.5]);
    let mut sketch = Vec::new();
    put_fd(&mut sketch, &fd);
    // Layouts: direction = tag, len, entries; flush = rows, cols,
    // entries, mass; sketch = d, ell, rows, cols, entries, frob_sq,
    // shrink_loss.
    let entries = 8 * fd.sketch().rows() * fd.dim();
    let (frob_at, loss_at) = (32 + entries, 40 + entries);
    assert!(MP2Msg::decode(&mut WireReader::new(&direction)).is_some());
    assert!(MP1Msg::decode(&mut WireReader::new(&flush)).is_some());
    assert!(read_fd(&mut WireReader::new(&sketch)).is_some());

    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for k in 0..row.len() {
            let buf = poison(&direction, 9 + 8 * k, bad);
            assert!(MP2Msg::decode(&mut WireReader::new(&buf)).is_none());
            let buf = poison(&flush, 16 + 8 * k, bad);
            assert!(MP1Msg::decode(&mut WireReader::new(&buf)).is_none());
        }
        for at in [32, frob_at, loss_at] {
            let buf = poison(&sketch, at, bad);
            assert!(
                read_fd(&mut WireReader::new(&buf)).is_none(),
                "{bad} at {at}"
            );
        }
    }
    for at in [frob_at, loss_at] {
        let buf = poison(&sketch, at, -1.0);
        assert!(read_fd(&mut WireReader::new(&buf)).is_none(), "-1 at {at}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn p1_roundtrips(
        capacity in 1usize..24,
        updates in prop::collection::vec((0u64..5_000, 0.1f64..100.0), 0..64),
    ) {
        let msg = P1Msg { summary: mg_from(capacity, &updates) };
        assert_roundtrip(&msg, "P1Msg");
    }

    #[test]
    fn p2_roundtrips(tag in 0u8..2, e in 0u64..10_000, w in 0.0f64..1e9) {
        let msg = if tag == 0 { P2Msg::Total(w) } else { P2Msg::Element(e, w) };
        assert_roundtrip(&msg, "P2Msg");
    }

    #[test]
    fn p3_roundtrips(item in 0u64..10_000, weight in 0.0f64..1e9, rho in 0.0f64..1.0) {
        assert_roundtrip(&P3Msg { item, weight, rho }, "P3Msg");
    }

    #[test]
    fn p3wr_roundtrips(
        sampler in 0usize..512,
        rho in 0.0f64..1.0,
        item in 0u64..10_000,
        weight in 0.0f64..1e9,
    ) {
        let msg = P3wrMsg { hit: WrHit { sampler, rho }, item, weight };
        assert_roundtrip(&msg, "P3wrMsg");
    }

    #[test]
    fn p4_roundtrips(tag in 0u8..2, e in 0u64..10_000, w in 0.0f64..1e9) {
        let msg = if tag == 0 { P4Msg::Total(w) } else { P4Msg::Count(e, w) };
        assert_roundtrip(&msg, "P4Msg");
    }

    #[test]
    fn mp1_roundtrips(
        cols in 1usize..6,
        cells in prop::collection::vec(-100.0f64..100.0, 0..48),
        mass in 0.0f64..1e9,
    ) {
        let rows = cells.len() / cols;
        let msg = MP1Msg {
            rows: Matrix::from_vec(rows, cols, cells[..rows * cols].to_vec()),
            mass,
        };
        assert_roundtrip(&msg, "MP1Msg");
    }

    #[test]
    fn mp2_roundtrips(
        tag in 0u8..2,
        f in 0.0f64..1e9,
        row in prop::collection::vec(-100.0f64..100.0, 0..16),
    ) {
        let msg = if tag == 0 { MP2Msg::Scalar(f) } else { MP2Msg::Direction(row) };
        assert_roundtrip(&msg, "MP2Msg");
    }

    #[test]
    fn mp3_roundtrips(
        row in prop::collection::vec(-100.0f64..100.0, 0..16),
        rho in 0.0f64..1.0,
    ) {
        assert_roundtrip(&MP3Msg { row, rho }, "MP3Msg");
    }

    #[test]
    fn mp3wr_roundtrips(
        sampler in 0usize..512,
        rho in 0.0f64..1.0,
        row in prop::collection::vec(-100.0f64..100.0, 0..16),
    ) {
        let msg = MP3wrMsg { hit: WrHit { sampler, rho }, row };
        assert_roundtrip(&msg, "MP3wrMsg");
    }

    #[test]
    fn mp4_roundtrips(
        tag in 0u8..2,
        f in 0.0f64..1e9,
        z in prop::collection::vec(0.0f64..100.0, 0..16),
    ) {
        let msg = if tag == 0 { MP4Msg::Total(f) } else { MP4Msg::Z(z) };
        assert_roundtrip(&msg, "MP4Msg");
    }

    #[test]
    fn sw_mg_roundtrips(
        latest in 0u64..1_000_000,
        buckets in prop::collection::vec(
            (1usize..12, prop::collection::vec((0u64..200, 0.1f64..10.0), 0..12), 0u64..1_000),
            0..6,
        ),
    ) {
        let buckets = buckets
            .into_iter()
            .map(|(capacity, updates, oldest)| {
                let summary = mg_from(capacity, &updates);
                let mass = summary.total_weight();
                WinBucket { summary, mass, oldest, newest: oldest + 7 }
            })
            .collect();
        assert_roundtrip(&SwMsg::<MgSummary> { buckets, latest }, "SwMsg<Mg>");
    }

    #[test]
    fn gossip_frame_roundtrips(version in 0u64..u64::MAX, payload in -1e12f64..1e12) {
        let msg = GossipFrame { version, payload };
        let buf = msg.to_wire();
        // Three size reports agree: the broadcast plane charges
        // `wire_size` (8-byte version header + payload) per edge.
        prop_assert_eq!(buf.len() as u64, msg.encoded_len());
        prop_assert_eq!(buf.len() as u64, msg.wire_size());
        let mut r = WireReader::new(&buf);
        let back = GossipFrame::<f64>::decode(&mut r).expect("decode failed");
        prop_assert!(r.is_empty(), "decode left trailing bytes");
        prop_assert_eq!(back.version, version);
        prop_assert_eq!(buf, back.to_wire());
    }

    #[test]
    fn gossip_digest_roundtrips(version in 0u64..u64::MAX) {
        let msg = GossipDigest { version };
        let buf = msg.to_wire();
        prop_assert_eq!(buf.len() as u64, msg.encoded_len());
        prop_assert_eq!(buf.len() as u64, msg.wire_size());
        let mut r = WireReader::new(&buf);
        let back = GossipDigest::decode(&mut r).expect("decode failed");
        prop_assert!(r.is_empty());
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn gossip_frame_truncation_is_total(
        version in 0u64..u64::MAX,
        payload in -1e12f64..1e12,
        cut in 0usize..16,
    ) {
        // Every strict prefix decodes to None — never a panic, never a
        // phantom frame assembled from a short read.
        let buf = GossipFrame { version, payload }.to_wire();
        let cut = cut.min(buf.len() - 1);
        let mut r = WireReader::new(&buf[..cut]);
        prop_assert!(GossipFrame::<f64>::decode(&mut r).is_none());
    }

    #[test]
    fn gossip_decode_is_total_on_garbage(bytes in prop::collection::vec(0u8..255, 0..64)) {
        // Arbitrary bytes: decode is total (Some or None, no panic,
        // no out-of-bounds), and a successful decode consumed exactly
        // its encoded length.
        let mut r = WireReader::new(&bytes);
        if let Some(frame) = GossipFrame::<f64>::decode(&mut r) {
            prop_assert_eq!(frame.encoded_len(), 16);
        }
        let mut r = WireReader::new(&bytes);
        if let Some(d) = GossipDigest::decode(&mut r) {
            prop_assert_eq!(d.encoded_len(), 8);
        }
    }

    #[test]
    fn sw_fd_roundtrips(
        latest in 0u64..1_000_000,
        buckets in prop::collection::vec(
            (2usize..5, prop::collection::vec(-10.0f64..10.0, 0..30), 0u64..1_000),
            0..4,
        ),
    ) {
        let buckets = buckets
            .into_iter()
            .map(|(d, cells, oldest)| {
                let summary = fd_from(d, 3, &cells);
                let mass = summary.frob_sq_seen();
                WinBucket { summary, mass, oldest, newest: oldest + 3 }
            })
            .collect();
        assert_roundtrip(&SwMsg::<FrequentDirections> { buckets, latest }, "SwMsg<Fd>");
    }
}
