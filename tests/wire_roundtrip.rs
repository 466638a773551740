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
use cma::protocols::wire::{put_fd, put_mg, read_fd, read_mg};
use cma::sketch::sliding_window::WinBucket;
use cma::sketch::{FrequentDirections, MgSummary};
use cma::stream::{GossipDigest, GossipFrame, MessageCost, WireCodec, WireReader, WireSized};
use proptest::prelude::*;

/// The shared pin: buffer length == `encoded_len` == `wire_bytes`,
/// decode succeeds, consumes everything, and re-encodes byte-exactly;
/// and every strict prefix of the encoding decodes to `None` — a
/// truncated frame never assembles a phantom message from a short read.
fn assert_roundtrip<T: WireCodec + MessageCost>(msg: &T, what: &str) {
    let buf = msg.to_wire();
    assert_eq!(buf.len() as u64, msg.encoded_len(), "{what}: encoded_len");
    assert_eq!(buf.len() as u64, msg.wire_bytes(), "{what}: wire_bytes");
    let mut r = WireReader::new(&buf);
    let back = T::decode(&mut r).unwrap_or_else(|| panic!("{what}: decode failed"));
    assert!(r.is_empty(), "{what}: decode left trailing bytes");
    assert_eq!(buf, back.to_wire(), "{what}: re-encode diverged");
    for cut in 0..buf.len() {
        assert!(
            T::decode(&mut WireReader::new(&buf[..cut])).is_none(),
            "{what}: a {cut}-byte prefix of {} decoded",
            buf.len()
        );
    }
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

/// Hostile bytes: a row, matrix or sketch carrying a NaN or ∞ entry, a
/// sketch whose `frob_sq`/`shrink_loss` is non-finite or negative, a
/// Misra–Gries summary whose total, decrement total or counter weight
/// is, an MT-P1 flush whose mass is, a P2 scalar report or element
/// weight or an MT-P2 scalar report that is, a P4 tracker report or
/// count that is, or a window frame whose bucket mass is or whose bucket
/// range runs backwards, decodes to `None` instead of a summary whose
/// bound is NaN.
#[test]
fn non_finite_values_fail_to_decode() {
    let row = vec![1.0, -2.0, 3.0];
    let direction = MP2Msg::Delta(row.clone()).to_wire();
    let flush = MP1Msg {
        summary: Matrix::from_vec(1, 3, row.clone()),
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
    let mass_at = 16 + 8 * row.len();
    // Misra–Gries = capacity, total, decrement total, len, (item,
    // weight)*: a four-counter table that has decremented once.
    let mg = mg_from(4, &[(1, 3.0), (2, 2.0), (3, 1.5), (4, 1.0), (5, 2.5)]);
    assert!(mg.observed_error_bound() > 0.0 && mg.len() == 4);
    let mut table = Vec::new();
    put_mg(&mut table, &mg);
    let mg_at = [8, 16, 40, 56, 72, 88];
    assert!(MP2Msg::decode(&mut WireReader::new(&direction)).is_some());
    assert!(MP1Msg::decode(&mut WireReader::new(&flush)).is_some());
    assert!(read_fd(&mut WireReader::new(&sketch)).is_some());
    assert!(read_mg(&mut WireReader::new(&table)).is_some());
    assert!(P1Msg::decode(&mut WireReader::new(&table)).is_some());

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
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        let buf = poison(&flush, mass_at, bad);
        assert!(
            MP1Msg::decode(&mut WireReader::new(&buf)).is_none(),
            "MP1 mass {bad}"
        );
        for at in mg_at {
            let buf = poison(&table, at, bad);
            assert!(
                read_mg(&mut WireReader::new(&buf)).is_none(),
                "MG {bad} at {at}"
            );
            assert!(
                P1Msg::decode(&mut WireReader::new(&buf)).is_none(),
                "P1 {bad} at {at}"
            );
        }
    }
    for at in [frob_at, loss_at] {
        let buf = poison(&sketch, at, -1.0);
        assert!(read_fd(&mut WireReader::new(&buf)).is_none(), "-1 at {at}");
    }
    for (msg, what) in [
        (P4Msg::Total(f64::NAN), "P4 Total(NaN)"),
        (P4Msg::Report((3, f64::INFINITY)), "P4 Count(3, ∞)"),
        (P4Msg::Total(-5.0), "P4 Total(-5)"),
    ] {
        assert!(
            P4Msg::decode(&mut WireReader::new(&msg.to_wire())).is_none(),
            "{what}"
        );
    }
    // A NaN `F̂` or `Ŵ` fails every `≥ threshold` test: sites would stop
    // sending and the bound would be void without a sign.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        let buf = MP2Msg::Total(bad).to_wire();
        assert!(
            MP2Msg::decode(&mut WireReader::new(&buf)).is_none(),
            "MP2 Scalar({bad})"
        );
        let buf = P2Msg::Total(bad).to_wire();
        assert!(
            P2Msg::decode(&mut WireReader::new(&buf)).is_none(),
            "P2 Total({bad})"
        );
        let buf = P2Msg::Delta((4, bad)).to_wire();
        assert!(
            P2Msg::decode(&mut WireReader::new(&buf)).is_none(),
            "P2 Element(4, {bad})"
        );
    }
    let buf = MP4Msg::Total(f64::NAN).to_wire();
    assert!(
        MP4Msg::decode(&mut WireReader::new(&buf)).is_none(),
        "MP4 Total(NaN)"
    );
    // Window frame = latest, nbuckets, (oldest, newest, mass, summary)*.
    let frame = SwMsg {
        buckets: vec![WinBucket {
            mass: fd.frob_sq_seen(),
            summary: fd,
            oldest: 3,
            newest: 9,
        }],
        latest: 10,
    }
    .to_wire();
    let sw_rejects =
        |buf: &[u8]| SwMsg::<FrequentDirections>::decode(&mut WireReader::new(buf)).is_none();
    assert!(!sw_rejects(&frame));
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        assert!(sw_rejects(&poison(&frame, 32, bad)), "SwMsg mass {bad}");
    }
    assert!(sw_rejects(&patch(&frame, 16, 10)), "SwMsg oldest > newest");
}

/// `buf` with the little-endian `u64` at byte offset `at` replaced by `v`.
fn patch(buf: &[u8], at: usize, v: u64) -> Vec<u8> {
    let mut out = buf.to_vec();
    out[at..at + 8].copy_from_slice(&v.to_le_bytes());
    out
}

/// A P4 snapshot carrying a state no deployment reaches decodes to
/// `None`: a coordinator with `sites = 0` (every estimate `∞`), `ε`
/// outside `(0, 1)`, a negative or non-finite count, `W_C` or `Ŵ`, or
/// `Ŵ < 1`; an MT coordinator whose `d` is 0 or disagrees with its z
/// vectors (the sketch would index out of bounds); an aggregator whose
/// withheld weight or `Ŵ` is.
#[test]
fn p4_snapshots_reject_unreachable_states() {
    use cma::protocols::hh::p4::{self, P4Aggregator, P4Coordinator};
    use cma::protocols::hh::HhConfig;
    use cma::protocols::matrix::p4::{self as mp4, MP4Aggregator, MP4Coordinator};
    use cma::protocols::matrix::{MatrixConfig, MatrixEstimator};
    use cma::stream::Topology;

    fn rejects<T: WireCodec>(buf: &[u8]) -> bool {
        T::decode(&mut WireReader::new(buf)).is_none()
    }
    /// Offset of the last occurrence of `v`'s encoding in `buf`.
    fn find(buf: &[u8], v: f64) -> usize {
        buf.windows(8).rposition(|w| w == v.to_le_bytes()).unwrap()
    }

    let tree = Topology::Tree { fanout: 2 };
    let mut hh = p4::deploy_topology(&HhConfig::new(8, 0.1).with_seed(3), tree);
    for i in 0..2_000u64 {
        hh.feed((i % 8) as usize, (i % 13, 1.0 + (i % 5) as f64));
    }
    let coord = hh.coordinator().to_wire();
    let agg = hh.aggregators()[0].to_wire();
    let mut mt = mp4::deploy_topology(&MatrixConfig::new(4, 0.2, 3).with_seed(3), tree);
    for i in 0..2_000 {
        mt.feed(i % 4, vec![1.0, (i % 7) as f64, -0.5]);
    }
    let mcoord = mt.coordinator().to_wire();
    let magg = mt.aggregators()[0].to_wire();
    assert!(!rejects::<P4Coordinator>(&coord) && !rejects::<P4Aggregator>(&agg));
    assert!(!rejects::<MP4Coordinator>(&mcoord) && !rejects::<MP4Aggregator>(&magg));

    // HH coordinator = len, (e, j, count)*, W_C, Ŵ, sites, ε.
    let n = coord.len();
    assert!(
        rejects::<P4Coordinator>(&patch(&coord, n - 16, 0)),
        "sites = 0"
    );
    for eps in [0.0, 1.0, f64::NAN] {
        assert!(
            rejects::<P4Coordinator>(&poison(&coord, n - 8, eps)),
            "ε = {eps}"
        );
    }
    for bad in [f64::NAN, f64::INFINITY, -1.0] {
        for at in [24, n - 32, n - 24] {
            assert!(
                rejects::<P4Coordinator>(&poison(&coord, at, bad)),
                "{bad} at {at}"
            );
        }
    }
    assert!(
        rejects::<P4Coordinator>(&poison(&coord, n - 24, 0.5)),
        "Ŵ = 0.5"
    );
    // MT coordinator = d, len, (0 | 1, z)*, W_C, Ŵ, …
    for dim in [0, 2, 4] {
        assert!(
            rejects::<MP4Coordinator>(&patch(&mcoord, 0, dim)),
            "d = {dim}"
        );
    }
    let received_at = find(&mcoord, mt.coordinator().frob_estimate());
    for (at, bad) in [(received_at, f64::NAN), (received_at + 8, 0.5)] {
        assert!(
            rejects::<MP4Coordinator>(&poison(&mcoord, at, bad)),
            "{bad} at {at}"
        );
    }
    // Aggregator = budget, unreported, Ŵ, pending, rep.
    for (at, bad) in [(8, f64::NAN), (8, -1.0), (16, 0.5), (16, f64::INFINITY)] {
        assert!(
            rejects::<P4Aggregator>(&poison(&agg, at, bad)),
            "{bad} at {at}"
        );
        assert!(
            rejects::<MP4Aggregator>(&poison(&magg, at, bad)),
            "{bad} at {at}"
        );
    }
}

/// A windowed-FD snapshot carrying a state no deployment reaches
/// decodes to `None`: a histogram bucket whose mass is negative or
/// non-finite or whose `oldest > newest`; a coordinator whose `Ŵ` or
/// `Ŵ_peak` is below 1 or non-finite, whose `θ` is not a positive
/// finite number, whose `ε` lies outside `(0, 1)`, or whose fault
/// undercount or overcount is negative or non-finite — each would turn
/// a term of `error_bound_at` into NaN or void it; an aggregator whose
/// hold fraction is negative or non-finite, or whose `Ŵ` is.
#[test]
fn window_snapshots_reject_unreachable_states() {
    use cma::protocols::window::fd::{self, SwFdAggregator, SwFdCoordinator};
    use cma::protocols::window::SwFdConfig;
    use cma::stream::partition::RoundRobin;
    use cma::stream::Topology;

    fn rejects<T: WireCodec>(buf: &[u8]) -> bool {
        T::decode(&mut WireReader::new(buf)).is_none()
    }

    let (m, d) = (8, 3);
    let cfg = SwFdConfig::new(m, 0.15, 256, d, 4);
    let mut runner = fd::deploy_topology(&cfg, Topology::Tree { fanout: 2 });
    let rows = (0..2_000u64).map(|t| (t, vec![1.0 + (t % 7) as f64, -0.5, (t % 3) as f64]));
    runner.run_partitioned(rows, &mut RoundRobin::new(m), 16);
    let coord = runner.coordinator().to_wire();
    let agg = runner.aggregators()[0].to_wire();
    assert!(runner.coordinator().bucket_count() > 0);
    assert!(!rejects::<SwFdCoordinator>(&coord) && !rejects::<SwFdAggregator>(&agg));

    // Coordinator = kind (d, ℓ), histogram (window, per_level, clock,
    // n, (oldest, newest, mass, summary)*), Ŵ, Ŵ_peak, θ, ε, fault
    // undercount, fault overcount.
    let n = coord.len();
    let (oldest_at, mass_at) = (48, 64);
    for bad in [f64::NAN, f64::INFINITY, -1.0] {
        assert!(
            rejects::<SwFdCoordinator>(&poison(&coord, mass_at, bad)),
            "bucket mass {bad}"
        );
    }
    assert!(
        rejects::<SwFdCoordinator>(&patch(&coord, oldest_at, u64::MAX)),
        "oldest > newest"
    );
    let (w_hat, w_peak, theta, eps, under, over) = (n - 48, n - 40, n - 32, n - 24, n - 16, n - 8);
    let cases = [
        (w_hat, [f64::NAN, f64::INFINITY, -1.0, 0.5]),
        (w_peak, [f64::NAN, f64::INFINITY, -1.0, 0.5]),
        (theta, [f64::NAN, f64::INFINITY, -1.0, 0.0]),
        (eps, [f64::NAN, 1.0, -1.0, 0.0]),
        (under, [f64::NAN, f64::INFINITY, -1.0, f64::NEG_INFINITY]),
        (over, [f64::NAN, f64::INFINITY, -1.0, f64::NEG_INFINITY]),
    ];
    for (at, bads) in cases {
        for bad in bads {
            assert!(
                rejects::<SwFdCoordinator>(&poison(&coord, at, bad)),
                "{bad} at {at} of {n}"
            );
        }
    }
    // Aggregator = histogram, hold fraction, Ŵ, rep.
    let n = agg.len();
    for (at, bad) in [
        (n - 24, f64::NAN),
        (n - 24, f64::INFINITY),
        (n - 24, -1.0),
        (n - 16, f64::NAN),
        (n - 16, f64::INFINITY),
        (n - 16, 0.5),
    ] {
        assert!(
            rejects::<SwFdAggregator>(&poison(&agg, at, bad)),
            "{bad} at {at} of {n}"
        );
    }
}

/// A P2-pair or P1 snapshot carrying a state no deployment reaches
/// decodes to `None`. HH-P2 and MT-P2: a coordinator whose `Ŵ`/`F̂` is
/// below 1 or non-finite, whose site count is 0, whose per-element
/// estimate is negative or non-finite, or (MT-P2) whose Gram is empty or
/// has a negative or non-finite entry on or off its diagonal; an
/// aggregator whose pending total, delta or scalar (in the outbox too)
/// is negative or non-finite, whose threshold fraction lies outside
/// `(0, 1)`, or whose `Ŵ`/`F̂` is. P1: a coordinator whose `W_C` is
/// negative or non-finite, whose `Ŵ` is below 1 or non-finite, or whose
/// `ε` lies outside `(0, 1)`; an aggregator whose hold fraction is
/// negative or non-finite, or whose `Ŵ` is.
#[test]
fn p2_snapshots_reject_unreachable_states() {
    use cma::protocols::hh::p1::{P1Aggregator, P1Coordinator};
    use cma::protocols::hh::p2::{self, P2Aggregator, P2Coordinator};
    use cma::protocols::hh::{self, HhConfig};
    use cma::protocols::matrix::p1::{MP1Aggregator, MP1Coordinator};
    use cma::protocols::matrix::p2::{self as mp2, MP2Aggregator, MP2Coordinator};
    use cma::protocols::matrix::{self, MatrixConfig};
    use cma::stream::{put_f64, put_u64, put_usize, Topology};

    fn rejects<T: WireCodec>(buf: &[u8]) -> bool {
        T::decode(&mut WireReader::new(buf)).is_none()
    }
    /// Asserts that `buf` decodes and that each `(offset, value)` poison
    /// of it does not.
    fn check<T: WireCodec>(what: &str, buf: &[u8], cases: &[(usize, f64)]) {
        assert!(
            !rejects::<T>(buf),
            "{what}: the live state failed to decode"
        );
        for &(at, bad) in cases {
            assert!(
                rejects::<T>(&poison(buf, at, bad)),
                "{what}: {bad} at {at} of {}",
                buf.len()
            );
        }
    }
    let (nan, inf) = (f64::NAN, f64::INFINITY);

    let (m, tree) = (8, Topology::Tree { fanout: 2 });
    let hcfg = HhConfig::new(m, 0.1);
    let items = (0..4_000u64).map(|i| (i % 13, 1.0 + (i % 5) as f64));
    let mut hh2 = p2::deploy_topology(&hcfg, tree);
    let mut hh1 = hh::p1::deploy_topology(&hcfg, tree);
    for (i, item) in items.enumerate() {
        hh2.feed(i % m, item);
        hh1.feed(i % m, item);
    }
    let mcfg = MatrixConfig::new(m, 0.1, 3);
    let rows = (0..4_000).map(|i| vec![1.0, (i % 7) as f64, -0.5 * (i % 3) as f64]);
    let mut mt2 = mp2::deploy_topology(&mcfg, tree);
    let mut mt1 = matrix::p1::deploy_topology(&mcfg, tree);
    for (i, row) in rows.enumerate() {
        mt2.feed(i % m, row.clone());
        mt1.feed(i % m, row);
    }

    // HH-P2 coordinator = Ŵ, reports, sites, tag 0, n, (e, estimate)*.
    let coord = hh2.coordinator().to_wire();
    assert_eq!(coord[24], 0, "exact estimate store");
    check::<P2Coordinator>(
        "HH-P2 coordinator",
        &coord,
        &[
            (0, nan),
            (0, inf),
            (0, -1.0),
            (0, 0.5),
            (41, nan),
            (41, inf),
            (41, -1.0),
        ],
    );
    assert!(rejects::<P2Coordinator>(&patch(&coord, 16, 0)), "sites = 0");
    // HH-P2 aggregator = pending total, n, (e, delta)*, fraction, Ŵ, rep;
    // rebuilt with one pending delta, which synchronous runs never hold.
    let agg = hh2.aggregators()[0].to_wire();
    let tail = &agg[agg.len() - 24..];
    let mut held = Vec::new();
    put_f64(&mut held, 2.0);
    put_usize(&mut held, 1);
    put_u64(&mut held, 7);
    put_f64(&mut held, 3.0);
    held.extend_from_slice(tail);
    let (frac, w_hat) = (held.len() - 24, held.len() - 16);
    let mut cases = vec![
        (0, nan),
        (0, inf),
        (0, -1.0),
        (24, nan),
        (24, inf),
        (24, -1.0),
    ];
    cases.extend([nan, inf, -1.0, 0.0, 1.0].map(|bad| (frac, bad)));
    cases.extend([nan, inf, 0.5].map(|bad| (w_hat, bad)));
    check::<P2Aggregator>("HH-P2 aggregator", &held, &cases);

    // MT-P2 coordinator = d, Gram lower triangle (g₀₀, g₁₀, g₁₁, …), F̂,
    // reports, sites.
    let coord = mt2.coordinator().to_wire();
    let n = coord.len();
    assert_eq!(n, 8 + 8 * 6 + 24, "d = 3: six triangle entries");
    let mut cases = vec![(8, -1.0), (8, nan), (16, nan), (16, inf), (24, -1.0)];
    cases.extend([nan, inf, -1.0, 0.5].map(|bad| (n - 24, bad)));
    check::<MP2Coordinator>("MT-P2 coordinator", &coord, &cases);
    assert!(
        rejects::<MP2Coordinator>(&patch(&coord, n - 8, 0)),
        "sites = 0"
    );
    assert!(rejects::<MP2Coordinator>(&patch(&coord, 0, 0)), "d = 0");
    // MT-P2 aggregator = pending scalar, rep, n, outbox, fraction, F̂,
    // withheld rows.
    let agg = mt2.aggregators()[0].to_wire();
    assert_eq!(agg[16..24], 0u64.to_le_bytes(), "empty outbox");
    let mut cases = vec![(0, nan), (0, inf), (0, -1.0)];
    cases.extend([nan, inf, -1.0, 0.0, 1.0].map(|bad| (24, bad)));
    cases.extend([nan, inf, 0.5].map(|bad| (32, bad)));
    check::<MP2Aggregator>("MT-P2 aggregator", &agg, &cases);
    for bad in [nan, inf, -1.0] {
        let mut queued = patch(&agg, 16, 1)[..24].to_vec();
        queued.extend(MP2Msg::Total(bad).to_wire());
        queued.extend_from_slice(&agg[24..]);
        assert!(rejects::<MP2Aggregator>(&queued), "outbox Scalar({bad})");
    }
    let mut queued = patch(&agg, 16, 1)[..24].to_vec();
    queued.extend(MP2Msg::Total(2.0).to_wire());
    queued.extend_from_slice(&agg[24..]);
    assert!(!rejects::<MP2Aggregator>(&queued), "outbox Scalar(2)");

    // P1 coordinator = summary, W_C, Ŵ, ε; aggregator = summary, [mass],
    // hold fraction, Ŵ, rep.
    let mut coord_cases = Vec::new();
    for (at, bads) in [
        (24, [nan, inf, -1.0, f64::NEG_INFINITY]),
        (16, [nan, inf, -1.0, 0.5]),
        (8, [nan, -1.0, 0.0, 1.0]),
    ] {
        coord_cases.extend(bads.map(|bad| (at, bad)));
    }
    let mut agg_cases = Vec::new();
    for (at, bads) in [(24, [nan, inf, -1.0]), (16, [nan, inf, 0.5])] {
        agg_cases.extend(bads.map(|bad| (at, bad)));
    }
    let from_end = |buf: &[u8], cases: &[(usize, f64)]| -> Vec<(usize, f64)> {
        cases.iter().map(|&(k, v)| (buf.len() - k, v)).collect()
    };
    let buf = hh1.coordinator().to_wire();
    check::<P1Coordinator>("HH-P1 coordinator", &buf, &from_end(&buf, &coord_cases));
    let buf = mt1.coordinator().to_wire();
    check::<MP1Coordinator>("MT-P1 coordinator", &buf, &from_end(&buf, &coord_cases));
    let buf = hh1.aggregators()[0].to_wire();
    check::<P1Aggregator>("HH-P1 aggregator", &buf, &from_end(&buf, &agg_cases));
    let buf = mt1.aggregators()[0].to_wire();
    check::<MP1Aggregator>("MT-P1 aggregator", &buf, &from_end(&buf, &agg_cases));
}

/// An MT-P2 aggregator snapshot whose withheld rows have width 0, or
/// whose outbox holds a `Direction` of another width than the rows,
/// decodes to `None`. Accepted, either state panics at the next row
/// merged — in the node's `accumulate_outer`, or in the root's once the
/// node flushes — which the test drives whenever decode accepts one.
#[test]
fn mt_p2_aggregator_snapshot_refuses_mismatched_widths() {
    use cma::protocols::matrix::p2::{self as mp2, MP2Aggregator};
    use cma::protocols::matrix::MatrixConfig;
    use cma::stream::{put_usize, Aggregator, Coordinator, Topology};

    let m = 8;
    let mut mt2 = mp2::deploy_topology(&MatrixConfig::new(m, 0.1, 3), Topology::Tree { fanout: 2 });
    for i in 0..4_000 {
        mt2.feed(i % m, vec![1.0, (i % 7) as f64, -0.5 * (i % 3) as f64]);
    }
    // Aggregator = pending scalar, rep, n, outbox, fraction, F̂, rows.
    let agg = mt2.aggregators()[0].to_wire();
    assert_eq!(agg[16..24], 0u64.to_le_bytes(), "empty outbox");
    let mut narrow = patch(&agg, 16, 1)[..24].to_vec();
    narrow.extend(MP2Msg::Delta(vec![1.0, 2.0]).to_wire());
    narrow.extend_from_slice(&agg[24..]);
    let mut empty = agg[..40].to_vec();
    put_usize(&mut empty, 0);
    put_usize(&mut empty, 0);
    for (what, buf) in [("a width-2 outbox Direction", narrow), ("width 0", empty)] {
        let decoded = MP2Aggregator::decode(&mut WireReader::new(&buf));
        if let Some(mut node) = decoded.clone() {
            node.absorb(0, MP2Msg::Delta(vec![1.0, 0.5, -0.5]));
            let mut up = Vec::new();
            node.flush(&mut up);
            let mut root = mt2.coordinator().clone();
            for (from, msg) in up {
                root.receive(from, msg, &mut Vec::new());
            }
        }
        assert!(decoded.is_none(), "{what} decoded");
    }
}

/// A P3 or P3wr snapshot carrying a state no deployment reaches decodes
/// to `None`: a round threshold `τ` below 1 or not finite (it starts at
/// 1 and only doubles), in a coordinator or a relay filter; a sampled
/// record's weight or priority `ρ` that is negative or not finite, in a
/// coordinator queue or slot or a with-replacement filter's top two.
#[test]
fn p3_snapshots_reject_unreachable_states() {
    use cma::protocols::hh::p3::{self, P3Aggregator, P3Coordinator};
    use cma::protocols::hh::p3wr::{self, P3wrAggregator, P3wrCoordinator};
    use cma::protocols::hh::HhConfig;
    use cma::stream::Topology;

    fn rejects<T: WireCodec>(buf: &[u8]) -> bool {
        T::decode(&mut WireReader::new(buf)).is_none()
    }
    /// Asserts that `buf` decodes and that each `(offset, value)` poison
    /// of it does not.
    fn check<T: WireCodec>(what: &str, buf: &[u8], cases: &[(usize, f64)]) {
        assert!(
            !rejects::<T>(buf),
            "{what}: the live state failed to decode"
        );
        for &(at, bad) in cases {
            assert!(rejects::<T>(&poison(buf, at, bad)), "{what}: {bad} at {at}");
        }
    }
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let tau_cases = |at: usize| [nan, inf, -1.0, 0.5].map(|bad| (at, bad));
    let mass_cases = |at: usize| [nan, inf, -1.0].map(|bad| (at, bad));

    let (m, tree) = (8, Topology::Tree { fanout: 2 });
    let cfg = HhConfig::new(m, 0.2).with_seed(5);
    let mut wor = p3::deploy_topology(&cfg, tree);
    let mut wr = p3wr::deploy_topology(&cfg, tree);
    for i in 0..4_000u64 {
        let item = (i % 13, 1.0 + (i % 5) as f64);
        wor.feed((i % m as u64) as usize, item);
        wr.feed((i % m as u64) as usize, item);
    }

    // P3 coordinator = s, τ, |Qj|, (e, weight, ρ)*, |Qj+1|, …
    let coord = wor.coordinator().to_wire();
    assert!(coord[16..24] != [0; 8], "a non-empty Qj");
    let mut cases = tau_cases(8).to_vec();
    cases.extend(mass_cases(32));
    cases.extend(mass_cases(40));
    check::<P3Coordinator>("P3 coordinator", &coord, &cases);
    // P3 aggregator = filter τ, pending.
    let agg = wor.aggregators()[0].to_wire();
    check::<P3Aggregator>("P3 aggregator", &agg, &tau_cases(0));

    // P3wr coordinator = τ, s, (ρ₁, ρ₂, 1, e, weight | 0)*.
    let coord = wr.coordinator().to_wire();
    assert_eq!(coord[32], 1, "the first slot holds a record");
    let mut cases = tau_cases(0).to_vec();
    for at in [16, 24, 41] {
        cases.extend(mass_cases(at));
    }
    check::<P3wrCoordinator>("P3wr coordinator", &coord, &cases);
    // P3wr aggregator = filter s, (ρ₁, ρ₂)*, pending.
    let agg = wr.aggregators()[0].to_wire();
    let mut cases = mass_cases(8).to_vec();
    cases.extend(mass_cases(16));
    check::<P3wrAggregator>("P3wr aggregator", &agg, &cases);
}

/// A P3 or P3wr message frame whose record weight or priority `ρ` is
/// negative or not finite decodes to `None`, as the same record does in
/// a snapshot: a NaN `ρ` fails both of a round's tests (`ρ < τ`,
/// `ρ > 2τ`) and would enter the queue whose minimum every estimate
/// reads.
#[test]
fn p3_frames_reject_unreachable_values() {
    fn rejects<T: WireCodec>(msg: &T) -> bool {
        T::decode(&mut WireReader::new(&msg.to_wire())).is_none()
    }
    let p3 = |weight, rho| P3Msg {
        payload: 7,
        weight,
        rho,
    };
    let p3wr = |weight, rho| P3wrMsg {
        hit: WrHit { sampler: 2, rho },
        payload: 7,
        weight,
    };
    assert!(!rejects(&p3(3.0, 1.5)) && !rejects(&p3wr(3.0, 1.5)));
    for (weight, rho) in [(f64::NAN, 1.5), (3.0, f64::NAN), (f64::NAN, f64::NAN)] {
        assert!(rejects(&p3(weight, rho)), "P3Msg weight {weight}, ρ {rho}");
    }
    for (weight, rho) in [(3.0, -1.0), (f64::INFINITY, 1.5), (f64::INFINITY, -1.0)] {
        assert!(
            rejects(&p3wr(weight, rho)),
            "P3wrMsg weight {weight}, ρ {rho}"
        );
    }
    // MT records imply their weight from the row; `ρ` is still read.
    let row = vec![1.0, 2.0];
    for rho in [f64::NAN, f64::NEG_INFINITY, -1.0] {
        let mp3 = MP3Msg {
            payload: row.clone(),
            weight: 5.0,
            rho,
        };
        assert!(rejects(&mp3), "MP3Msg ρ {rho}");
        let mp3wr = MP3wrMsg {
            hit: WrHit { sampler: 0, rho },
            payload: row.clone(),
            weight: 5.0,
        };
        assert!(rejects(&mp3wr), "MP3wrMsg ρ {rho}");
    }
}

/// A Misra–Gries encoding lists its counters in strictly ascending item
/// order, each finite and `> 0`. A P1 coordinator snapshot that repeats
/// an item (a table would keep one counter while its total counts
/// both), lists two items in descending order, or carries a zero
/// counter decodes to `None`.
#[test]
fn p1_snapshots_refuse_unordered_or_empty_counters() {
    use cma::protocols::hh::p1::{self, P1Coordinator};
    use cma::protocols::hh::HhConfig;

    fn rejects(buf: &[u8]) -> bool {
        P1Coordinator::decode(&mut WireReader::new(buf)).is_none()
    }
    let m = 4;
    let mut star = p1::deploy(&HhConfig::new(m, 0.1));
    for i in 0..2_000u64 {
        star.feed((i % m as u64) as usize, (i % 11, 1.0 + (i % 3) as f64));
    }
    // Coordinator = MG (capacity, total, decrement total, len,
    // (item, counter)*), W_C, Ŵ, ε.
    let coord = star.coordinator().to_wire();
    let len = u64::from_le_bytes(coord[24..32].try_into().unwrap());
    assert!(len >= 2, "the root tracks at least two items");
    let item = |i: usize| u64::from_le_bytes(coord[32 + 16 * i..40 + 16 * i].try_into().unwrap());
    assert!(!rejects(&coord));
    let duplicated = patch(&coord, 48, item(0));
    assert!(rejects(&duplicated), "a repeated item decoded");
    let descending = patch(&patch(&coord, 32, item(1)), 48, item(0));
    assert!(rejects(&descending), "a descending pair decoded");
    for zero in [0.0, -0.0] {
        assert!(
            rejects(&poison(&coord, 40, zero)),
            "a {zero} counter decoded"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn p1_roundtrips(
        capacity in 1usize..24,
        updates in prop::collection::vec((0u64..5_000, 0.1f64..100.0), 0..64),
    ) {
        let summary = mg_from(capacity, &updates);
        let msg = P1Msg { mass: summary.total_weight(), summary };
        assert_roundtrip(&msg, "P1Msg");
    }

    #[test]
    fn p2_roundtrips(tag in 0u8..2, e in 0u64..10_000, w in 0.0f64..1e9) {
        let msg = if tag == 0 { P2Msg::Total(w) } else { P2Msg::Delta((e, w)) };
        assert_roundtrip(&msg, "P2Msg");
    }

    #[test]
    fn p3_roundtrips(item in 0u64..10_000, weight in 0.0f64..1e9, rho in 0.0f64..1.0) {
        assert_roundtrip(&P3Msg { payload: item, weight, rho }, "P3Msg");
    }

    #[test]
    fn p3wr_roundtrips(
        sampler in 0usize..512,
        rho in 0.0f64..1.0,
        item in 0u64..10_000,
        weight in 0.0f64..1e9,
    ) {
        let msg = P3wrMsg { hit: WrHit { sampler, rho }, payload: item, weight };
        assert_roundtrip(&msg, "P3wrMsg");
    }

    #[test]
    fn p4_roundtrips(tag in 0u8..2, e in 0u64..10_000, w in 0.0f64..1e9) {
        let msg = if tag == 0 { P4Msg::Total(w) } else { P4Msg::Report((e, w)) };
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
            summary: Matrix::from_vec(rows, cols, cells[..rows * cols].to_vec()),
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
        let msg = if tag == 0 { MP2Msg::Total(f) } else { MP2Msg::Delta(row) };
        assert_roundtrip(&msg, "MP2Msg");
    }

    #[test]
    fn mp3_roundtrips(
        row in prop::collection::vec(-100.0f64..100.0, 0..16),
        rho in 0.0f64..1.0,
    ) {
        let weight = row.iter().map(|x| x * x).sum();
        assert_roundtrip(&MP3Msg { payload: row, weight, rho }, "MP3Msg");
    }

    #[test]
    fn mp3wr_roundtrips(
        sampler in 0usize..512,
        rho in 0.0f64..1.0,
        row in prop::collection::vec(-100.0f64..100.0, 0..16),
    ) {
        let weight = row.iter().map(|x| x * x).sum();
        let msg = MP3wrMsg { hit: WrHit { sampler, rho }, payload: row, weight };
        assert_roundtrip(&msg, "MP3wrMsg");
    }

    #[test]
    fn mp4_roundtrips(
        tag in 0u8..2,
        f in 0.0f64..1e9,
        z in prop::collection::vec(0.0f64..100.0, 0..16),
    ) {
        let msg = if tag == 0 { MP4Msg::Total(f) } else { MP4Msg::Report(z) };
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
