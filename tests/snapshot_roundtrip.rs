//! Snapshot wire-format property suite (PR 9): the root complex
//! (coordinator + interior aggregators) of every protocol survives
//! `capture → bytes → restore` bit for bit.
//!
//! Three claims, mirroring how `wire_roundtrip` pins the message codecs:
//!
//! 1. **Roundtrip identity** — for real post-run states of all ten
//!    protocols plus SwMg/SwFd, restoring a snapshot and re-capturing it
//!    reproduces the exact bytes; the measured size is exactly
//!    `16 + coordinator.encoded_len() + Σ agg.encoded_len()`; and a
//!    truncated, padded, or version-bumped buffer is rejected rather
//!    than misread.
//! 2. **An empty replay suffix is invisible** — crashing at the
//!    snapshot boundary itself (nothing logged since) recovers to a
//!    run whose final coordinator and aggregators are wire-byte
//!    identical to the crash-free run, with zero measured recovery
//!    loss.
//! 3. **A non-empty suffix restates the bound** — for arbitrary
//!    snapshot/crash boundary pairs, each protocol family's certified
//!    bound holds with the measured [`recovery_lost_mass`] folded into
//!    the undercount term.
//!
//! [`recovery_lost_mass`]: cma::stream::ChurnReport

use cma::data::{StreamingGram, SyntheticMatrixStream, WeightedZipfStream};
use cma::protocols::hh::{self, HhConfig, HhEstimator};
use cma::protocols::matrix::{self, MatrixConfig, MatrixEstimator};
use cma::protocols::window::{fd, mg, SwFdConfig, SwMgConfig};
use cma::sketch::ExactWeightedCounter;
use cma::stream::partition::partition_round_robin as partition;
use cma::stream::runner::churn::{
    run_churn_partitioned_topology_parts_on as run_churn, ChurnRunParts,
};
use cma::stream::runner::engine::{self, ThreadedConfig};
use cma::stream::{
    ChannelTransport, ChurnConfig, ChurnSchedule, Executor, Snapshot, Topology, WireCodec,
    WireReader,
};
use proptest::prelude::*;

const SEGMENT: usize = 32;
const PER_SLOT: usize = 6 * SEGMENT;

fn tcfg() -> ThreadedConfig {
    ThreadedConfig {
        batch_size: 16,
        channel_capacity: 2,
        plane: Default::default(),
    }
}

fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, f64)> {
    WeightedZipfStream::new(2_000, 2.0, 50.0, seed).take_vec(n)
}

fn matrix_stream(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut s = SyntheticMatrixStream::new(dim, &[4.0, 2.0, 1.0], 1e6, seed);
    (0..n).map(|_| s.next_row()).collect()
}

fn stamp<T: Clone>(xs: &[T]) -> Vec<(u64, T)> {
    xs.iter()
        .cloned()
        .enumerate()
        .map(|(t, x)| (t as u64, x))
        .collect()
}

fn topologies() -> impl Strategy<Value = Topology> {
    (0u8..2).prop_map(|t| {
        if t == 0 {
            Topology::Star
        } else {
            Topology::Tree { fanout: 4 }
        }
    })
}

/// The shared pin: capture measures exactly the header plus the parts'
/// own `encoded_len`s, restore → re-capture is the byte identity, and
/// malformed buffers fail closed.
fn assert_snapshot_roundtrip<C: WireCodec, A: WireCodec>(
    coordinator: &C,
    aggregators: &[A],
    what: &str,
) {
    let snap = Snapshot::capture(coordinator, aggregators);
    let expect = 16
        + coordinator.encoded_len()
        + aggregators.iter().map(WireCodec::encoded_len).sum::<u64>();
    assert_eq!(
        snap.len() as u64,
        expect,
        "{what}: snapshot len != 16 + Σ encoded_len"
    );
    assert!(!snap.is_empty(), "{what}: captured snapshot empty");

    let bytes = snap.as_bytes().to_vec();
    let (c2, a2) = Snapshot::from_bytes(bytes.clone())
        .restore::<C, A>()
        .unwrap_or_else(|| panic!("{what}: restore failed"));
    assert_eq!(a2.len(), aggregators.len(), "{what}: aggregator count");
    assert_eq!(
        c2.to_wire(),
        coordinator.to_wire(),
        "{what}: restored coordinator diverged"
    );
    let recap = Snapshot::capture(&c2, &a2);
    assert_eq!(
        recap.as_bytes(),
        snap.as_bytes(),
        "{what}: restore → re-capture diverged"
    );

    assert!(
        Snapshot::from_bytes(bytes[..bytes.len() - 1].to_vec())
            .restore::<C, A>()
            .is_none(),
        "{what}: truncated snapshot accepted"
    );
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(
        Snapshot::from_bytes(padded).restore::<C, A>().is_none(),
        "{what}: trailing garbage accepted"
    );
    let mut bumped = bytes.clone();
    bumped[0] ^= 1;
    assert!(
        Snapshot::from_bytes(bumped).restore::<C, A>().is_none(),
        "{what}: version mismatch accepted"
    );
}

macro_rules! snap_hh {
    ($proto:ident, $cfg:expr, $topo:expr, $inputs:expr) => {{
        let cfg = $cfg;
        let (sites, coord, _) = hh::$proto::deploy_topology(&cfg, $topo).into_parts();
        let parts = engine::run_partitioned_topology_parts(
            sites,
            coord,
            $inputs.clone(),
            &tcfg(),
            Executor::Inline,
            $topo,
            hh::$proto::make_aggregator(&cfg, $topo),
        );
        assert_snapshot_roundtrip(&parts.coordinator, &parts.aggregators, stringify!($proto));
    }};
}

macro_rules! snap_matrix {
    ($proto:ident, $cfg:expr, $topo:expr, $inputs:expr) => {{
        let cfg = $cfg;
        let (sites, coord, _) = matrix::$proto::deploy_topology(&cfg, $topo).into_parts();
        let parts = engine::run_partitioned_topology_parts(
            sites,
            coord,
            $inputs.clone(),
            &tcfg(),
            Executor::Inline,
            $topo,
            matrix::$proto::make_aggregator(&cfg, $topo),
        );
        assert_snapshot_roundtrip(
            &parts.coordinator,
            &parts.aggregators,
            concat!("mt-", stringify!($proto)),
        );
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Roundtrip identity over the five heavy-hitter root complexes,
    /// with states produced by real runs (not hand-built values).
    #[test]
    fn hh_snapshots_roundtrip(seed in 0u64..1_000_000, m in 3usize..8, topo in topologies()) {
        let stream = zipf_stream(m * 64, seed);
        let inputs = partition(&stream, m);
        let cfg = HhConfig::new(m, 0.1).with_seed(seed ^ 1);
        snap_hh!(p1, cfg.clone(), topo, inputs);
        snap_hh!(p2, cfg.clone(), topo, inputs);
        let cfg_s = cfg.clone().with_sample_size(64);
        snap_hh!(p3, cfg_s.clone(), topo, inputs);
        snap_hh!(p3wr, cfg_s, topo, inputs);
        snap_hh!(p4, HhConfig::new(m, 0.15).with_seed(seed ^ 2), topo, inputs);
    }

    /// Roundtrip identity over the five matrix root complexes.
    #[test]
    fn matrix_snapshots_roundtrip(seed in 0u64..1_000_000, m in 3usize..8, topo in topologies()) {
        let dim = 4;
        let rows = matrix_stream(m * 64, dim, seed);
        let inputs = partition(&rows, m);
        let cfg = MatrixConfig::new(m, 0.25, dim).with_seed(seed ^ 1);
        snap_matrix!(p1, cfg.clone(), topo, inputs);
        snap_matrix!(p2, cfg.clone(), topo, inputs);
        let cfg_s = cfg.clone().with_sample_size(64);
        snap_matrix!(p3, cfg_s.clone(), topo, inputs);
        snap_matrix!(p3wr, cfg_s, topo, inputs);
        snap_matrix!(p4, MatrixConfig::new(m, 0.2, dim).with_seed(seed ^ 2), topo, inputs);
    }

    /// Roundtrip identity over the sliding-window root complexes (the
    /// bucketed MG / FD summaries ride inside the coordinator state).
    #[test]
    fn window_snapshots_roundtrip(seed in 0u64..1_000_000, m in 3usize..8, topo in topologies()) {
        let n = m * 64;
        let stream = zipf_stream(n, seed);
        let inputs = partition(&stamp(&stream), m);
        let cfg = SwMgConfig::new(m, 0.1, 128, 16);
        let (sites, coord, _) = mg::deploy_topology(&cfg, topo).into_parts();
        let parts = engine::run_partitioned_topology_parts(
            sites,
            coord,
            inputs.clone(),
            &tcfg(),
            Executor::Inline,
            topo,
            mg::make_aggregator(&cfg, topo),
        );
        assert_snapshot_roundtrip(&parts.coordinator, &parts.aggregators, "sw-mg");

        let dim = 4;
        let rows = matrix_stream(n, dim, seed ^ 9);
        let inputs = partition(&stamp(&rows), m);
        let cfg = SwFdConfig::new(m, 0.15, 128, dim, 12);
        let (sites, coord, _) = fd::deploy_topology(&cfg, topo).into_parts();
        let parts = engine::run_partitioned_topology_parts(
            sites,
            coord,
            inputs.clone(),
            &tcfg(),
            Executor::Inline,
            topo,
            fd::make_aggregator(&cfg, topo),
        );
        assert_snapshot_roundtrip(&parts.coordinator, &parts.aggregators, "sw-fd");
    }
}

/// A rank-saturated MT-P2 interior node at capture. The rank-3 streams
/// above never saturate anything, and in a live run an interior node
/// holds the `d×d` Gram layout only inside one `absorb` call (a relayed
/// direction is already at its sender's send threshold, so the check in
/// that call decomposes it again). It rests in that layout when its `F̂`
/// has run ahead of its children's — their directions then sit far below
/// its own threshold and simply stack up — so that is the state built
/// here, from rows of a full-rank stream. Such a node has no rows to
/// encode: the snapshot re-expresses the Gram through one eigensolve,
/// and what comes back must still withhold the same Gram.
#[test]
fn saturated_mt_p2_node_roundtrips_its_withheld_gram() {
    use cma::protocols::matrix::p2::{MP2Aggregator, MP2Msg};
    use cma::stream::{AggNode, Aggregator, MigratableAggregator, WireReader};

    let (m, dim) = (16, 8);
    let topo = Topology::Tree { fanout: 4 };
    let cfg = MatrixConfig::new(m, 0.1, dim);
    let (_, coordinator, _) = matrix::p2::deploy_topology(&cfg, topo).into_parts();
    let mut make = matrix::p2::make_aggregator(&cfg, topo);
    let mut aggregators: Vec<MP2Aggregator> = (0..4)
        .map(|index| {
            make(AggNode {
                level: 1,
                index,
                leaves: 4,
                total_levels: 1,
            })
        })
        .collect();

    let mut stream = SyntheticMatrixStream::new(dim, &[1.0; 8], 1e6, 19);
    let mut truth = StreamingGram::new(dim);
    aggregators[0].on_broadcast(&1e6);
    for _ in 0..3 * dim {
        let row = stream.next_row();
        truth.update(&row);
        aggregators[0].absorb(0, MP2Msg::Delta(row));
    }
    // The layout is private; its `Debug` form names it.
    assert!(
        format!("{:?}", aggregators[0]).contains("Gram("),
        "node not saturated: the case would test nothing"
    );
    assert_snapshot_roundtrip(&coordinator, &aggregators, "mt-p2 saturated");

    let wire = aggregators[0].to_wire();
    let mut restored = MP2Aggregator::decode(&mut WireReader::new(&wire)).expect("decode");
    for (what, node) in [
        ("captured", &mut aggregators[0]),
        ("restored", &mut restored),
    ] {
        // Everything the node withholds, thresholds ignored.
        let mut drained = Vec::new();
        node.split_for_migration(&mut drained);
        let mut withheld = StreamingGram::new(dim);
        for (_, msg) in &drained {
            if let MP2Msg::Delta(v) = msg {
                withheld.update(v);
            }
        }
        let diff = withheld.gram().sub(truth.gram()).max_abs();
        assert!(
            diff <= 1e-9 * truth.frob_sq(),
            "{what} node: withheld Gram off by {diff} (trace {})",
            truth.frob_sq()
        );
    }
}

/// A d = 3 MT-P2 snapshot of a fanout-4 tree whose every aggregator is
/// rewritten to width 2 (the third column of its withheld rows cut)
/// restores to `None`. Each node decodes alone — the decoders know
/// nothing of `d` — so without the restore's width check the snapshot
/// came back, and the first direction a node forwarded panicked the
/// root (`accumulate_outer: shape mismatch`): the test drives that path
/// whenever restore accepts.
#[test]
fn mt_p2_snapshot_refuses_aggregators_of_another_width() {
    use cma::protocols::matrix::p2::{MP2Aggregator, MP2Coordinator, MP2Msg};
    use cma::stream::{Aggregator, Coordinator, MigratableAggregator};

    let (m, dim) = (16, 3);
    let topo = Topology::Tree { fanout: 4 };
    let mut runner = matrix::p2::deploy_topology(&MatrixConfig::new(m, 0.1, dim), topo);
    for (i, row) in matrix_stream(2_000, dim, 31).into_iter().enumerate() {
        runner.feed(i % m, row);
    }
    let snap = Snapshot::capture(runner.coordinator(), runner.aggregators());
    assert!(snap.restore::<MP2Coordinator, MP2Aggregator>().is_some());

    // Layout: version, count, root (d, six triangle entries, F̂, reports,
    // sites), then per node: pending total, rep, outbox length (0 after
    // a synchronous run), fraction, F̂, rows, cols, entries.
    let bytes = snap.as_bytes();
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut at = 16 + 8 + 8 * 6 + 24;
    let mut narrow = bytes[..at].to_vec();
    for _ in 0..runner.aggregators().len() {
        assert_eq!(word(at + 16), 0, "outbox not empty");
        assert_eq!(word(at + 48), dim);
        let rows = word(at + 40);
        narrow.extend_from_slice(&bytes[at..at + 48]);
        narrow.extend_from_slice(&2u64.to_le_bytes());
        at += 56;
        for _ in 0..rows {
            narrow.extend_from_slice(&bytes[at..at + 16]);
            at += 8 * dim;
        }
    }
    assert_eq!(at, bytes.len());

    let restored = Snapshot::from_bytes(narrow).restore::<MP2Coordinator, MP2Aggregator>();
    if let Some((mut root, mut aggs)) = restored.clone() {
        aggs[0].absorb(0, MP2Msg::Delta(vec![3.0, -1.0]));
        let mut up = Vec::new();
        aggs[0].split_for_migration(&mut up);
        for (from, msg) in up {
            root.receive(from, msg, &mut Vec::new());
        }
    }
    assert!(
        restored.is_none(),
        "width-2 aggregators under a d = 3 root restored"
    );
}

fn snap_only_cfg(crash: Option<usize>) -> ChurnConfig {
    ChurnConfig {
        segment_len: SEGMENT,
        schedule: ChurnSchedule::new(),
        snapshot_at: Some(2),
        crash_at: crash,
        ..ChurnConfig::default()
    }
}

macro_rules! run_hh {
    ($proto:ident, $cfg:expr, $topo:expr, $inputs:expr, $ccfg:expr) => {{
        let cfg = $cfg;
        let (sites, coord, _) = hh::$proto::deploy_topology(&cfg, $topo).into_parts();
        run_churn(
            sites,
            coord,
            $inputs.clone(),
            &tcfg(),
            Executor::Inline,
            $topo,
            |t| hh::$proto::make_aggregator(&cfg, t),
            $ccfg,
            &ChannelTransport,
        )
    }};
}

macro_rules! run_matrix {
    ($proto:ident, $cfg:expr, $topo:expr, $inputs:expr, $ccfg:expr) => {{
        let cfg = $cfg;
        let (sites, coord, _) = matrix::$proto::deploy_topology(&cfg, $topo).into_parts();
        run_churn(
            sites,
            coord,
            $inputs.clone(),
            &tcfg(),
            Executor::Inline,
            $topo,
            |t| matrix::$proto::make_aggregator(&cfg, t),
            $ccfg,
            &ChannelTransport,
        )
    }};
}

/// Crashing at the snapshot boundary itself leaves nothing to replay:
/// the recovered run must be wire-byte identical to the crash-free one.
/// `check_aggs` additionally compares the interior nodes — exact only
/// when no re-split rebuilds them (flat plans) or nothing runs after.
fn assert_invisible<S, C: WireCodec, A: WireCodec>(
    crashed: ChurnRunParts<S, C, A>,
    clean: ChurnRunParts<S, C, A>,
    check_aggs: bool,
    what: &str,
) {
    assert_eq!(
        crashed.report.recovery_lost_mass, 0.0,
        "{what}: crash at a settled boundary lost mass"
    );
    assert_eq!(
        crashed.report.replayed_msgs, 0,
        "{what}: empty WAL suffix replayed messages"
    );
    assert!(crashed.snapshot.is_some(), "{what}: no snapshot captured");
    assert_eq!(
        crashed.snapshot, clean.snapshot,
        "{what}: the two runs captured different snapshots"
    );
    assert_eq!(
        crashed.coordinator.to_wire(),
        clean.coordinator.to_wire(),
        "{what}: final coordinator diverged after empty-suffix recovery"
    );
    if check_aggs {
        let cw: Vec<Vec<u8>> = crashed.aggregators.iter().map(WireCodec::to_wire).collect();
        let kw: Vec<Vec<u8>> = clean.aggregators.iter().map(WireCodec::to_wire).collect();
        assert_eq!(cw, kw, "{what}: final aggregators diverged");
    }
}

/// One invisibility cell: all twelve root complexes, crash vs clean.
macro_rules! invisibility_cell {
    ($topo:expr, $crash:expr, $clean:expr, $aggs:expr, $cell:expr) => {{
        let m = 16;
        let topo = $topo;
        let stream = zipf_stream(m * PER_SLOT, 11_001);
        let inputs = partition(&stream, m);
        let cfg = HhConfig::new(m, 0.1).with_seed(71);
        assert_invisible(
            run_hh!(p1, cfg.clone(), topo, inputs, $crash),
            run_hh!(p1, cfg.clone(), topo, inputs, $clean),
            $aggs,
            concat!("p1 ", $cell),
        );
        assert_invisible(
            run_hh!(p2, cfg.clone(), topo, inputs, $crash),
            run_hh!(p2, cfg.clone(), topo, inputs, $clean),
            $aggs,
            concat!("p2 ", $cell),
        );
        let cfg_s = cfg.clone().with_sample_size(200);
        assert_invisible(
            run_hh!(p3, cfg_s.clone(), topo, inputs, $crash),
            run_hh!(p3, cfg_s.clone(), topo, inputs, $clean),
            $aggs,
            concat!("p3 ", $cell),
        );
        assert_invisible(
            run_hh!(p3wr, cfg_s.clone(), topo, inputs, $crash),
            run_hh!(p3wr, cfg_s.clone(), topo, inputs, $clean),
            $aggs,
            concat!("p3wr ", $cell),
        );
        let cfg4 = HhConfig::new(m, 0.15).with_seed(73);
        assert_invisible(
            run_hh!(p4, cfg4.clone(), topo, inputs, $crash),
            run_hh!(p4, cfg4.clone(), topo, inputs, $clean),
            $aggs,
            concat!("p4 ", $cell),
        );

        let dim = 5;
        let rows = matrix_stream(m * PER_SLOT, dim, 12_001);
        let minputs = partition(&rows, m);
        let mcfg = MatrixConfig::new(m, 0.25, dim).with_seed(75);
        assert_invisible(
            run_matrix!(p1, mcfg.clone(), topo, minputs, $crash),
            run_matrix!(p1, mcfg.clone(), topo, minputs, $clean),
            $aggs,
            concat!("mt-p1 ", $cell),
        );
        assert_invisible(
            run_matrix!(p2, mcfg.clone(), topo, minputs, $crash),
            run_matrix!(p2, mcfg.clone(), topo, minputs, $clean),
            $aggs,
            concat!("mt-p2 ", $cell),
        );
        let mcfg_s = mcfg.clone().with_sample_size(200);
        assert_invisible(
            run_matrix!(p3, mcfg_s.clone(), topo, minputs, $crash),
            run_matrix!(p3, mcfg_s.clone(), topo, minputs, $clean),
            $aggs,
            concat!("mt-p3 ", $cell),
        );
        assert_invisible(
            run_matrix!(p3wr, mcfg_s.clone(), topo, minputs, $crash),
            run_matrix!(p3wr, mcfg_s.clone(), topo, minputs, $clean),
            $aggs,
            concat!("mt-p3wr ", $cell),
        );
        let mcfg4 = MatrixConfig::new(m, 0.2, dim).with_seed(77);
        assert_invisible(
            run_matrix!(p4, mcfg4.clone(), topo, minputs, $crash),
            run_matrix!(p4, mcfg4.clone(), topo, minputs, $clean),
            $aggs,
            concat!("mt-p4 ", $cell),
        );

        let winputs = partition(&stamp(&stream), m);
        let wcfg = SwMgConfig::new(m, 0.1, 512, 32);
        let run_swmg = |ccfg: &ChurnConfig| {
            let (sites, coord, _) = mg::deploy_topology(&wcfg, topo).into_parts();
            run_churn(
                sites,
                coord,
                winputs.clone(),
                &tcfg(),
                Executor::Inline,
                topo,
                |t| mg::make_aggregator(&wcfg, t),
                ccfg,
                &ChannelTransport,
            )
        };
        assert_invisible(
            run_swmg($crash),
            run_swmg($clean),
            $aggs,
            concat!("sw-mg ", $cell),
        );

        let finputs = partition(&stamp(&rows), m);
        let fcfg = SwFdConfig::new(m, 0.15, 512, dim, 20);
        let run_swfd = |ccfg: &ChurnConfig| {
            let (sites, coord, _) = fd::deploy_topology(&fcfg, topo).into_parts();
            run_churn(
                sites,
                coord,
                finputs.clone(),
                &tcfg(),
                Executor::Inline,
                topo,
                |t| fd::make_aggregator(&fcfg, t),
                ccfg,
                &ChannelTransport,
            )
        };
        assert_invisible(
            run_swfd($crash),
            run_swfd($clean),
            $aggs,
            concat!("sw-fd ", $cell),
        );
    }};
}

/// Claim 2 across all twelve root complexes.
///
/// Two cells per protocol:
/// - **flat / mid-run** — on the star (no interior to rebuild) a crash
///   at a mid-stream snapshot boundary is wire-byte invisible end to
///   end: final coordinator *and* final aggregators match the
///   crash-free run exactly.
/// - **tree + star / final boundary** — the recovered coordinator is
///   bit-identical everywhere once nothing runs after the restore. A
///   mid-run tree crash is *not* byte-invisible by design: the post
///   crash re-split rebuilds interior nodes, which re-learn their
///   broadcast state at the next boundary (the certified bound still
///   holds — `churn_recovery` pins that cell).
#[test]
fn crash_at_snapshot_boundary_is_invisible() {
    invisibility_cell!(
        Topology::Star,
        &snap_only_cfg(Some(2)),
        &snap_only_cfg(None),
        true,
        "star mid-run"
    );
    // 6 segments per slot: boundary 6 is the settled final boundary.
    let final_clean = ChurnConfig {
        snapshot_at: Some(6),
        ..snap_only_cfg(None)
    };
    let final_crash = ChurnConfig {
        crash_at: Some(6),
        ..final_clean.clone()
    };
    for &topo in &[Topology::Star, Topology::Tree { fanout: 4 }] {
        invisibility_cell!(topo, &final_crash, &final_clean, false, "final boundary");
    }
}

/// The windowed-FD root stacks bucket rows up to `2ℓ` and its encoding
/// writes every bucket settled (fewer than `ℓ` rows), so the snapshot
/// equals the live root only because the driver settles the live root
/// just before capture. The cell above runs `d = 5 < ℓ = 20`, where a
/// settle merely re-expresses a bucket in at most five rows and neither
/// side of the crash ever shrinks at a different point; here `d > ℓ`, a
/// settle is a lossy shrink, and a crash-free run that kept its
/// unsettled buckets would drift from the recovered one. The window
/// spans the whole stream, so the buckets held at capture are still
/// live (and compared) at the end.
#[test]
fn swfd_crash_at_snapshot_boundary_is_invisible_with_d_above_ell() {
    let m = 16;
    let dim = 24;
    let rows = matrix_stream(m * PER_SLOT, dim, 12_002);
    let inputs = partition(&stamp(&rows), m);
    let cfg = SwFdConfig::new(m, 0.15, 4_096, dim, 8);
    let run = |ccfg: &ChurnConfig| {
        let (sites, coord, _) = fd::deploy(&cfg).into_parts();
        run_churn(
            sites,
            coord,
            inputs.clone(),
            &tcfg(),
            Executor::Inline,
            Topology::Star,
            |t| fd::make_aggregator(&cfg, t),
            ccfg,
            &ChannelTransport,
        )
    };
    assert_invisible(
        run(&snap_only_cfg(Some(2))),
        run(&snap_only_cfg(None)),
        true,
        "sw-fd d > ℓ star mid-run",
    );
}

/// The production regime `ℓ < d < 2ℓ` (`swfd-churn-faulty` runs
/// `d = 44`, `ℓ = 40`): the root's buckets trade their rows for their
/// Gram at `d` rows, before any shrink, and settling a Gram-held bucket
/// for capture is a lossy shrink from the Gram. Neither cell above
/// reaches it (`d = 5 < ℓ` and `d = 24 ≥ 2ℓ`); the crash must stay
/// invisible here too.
#[test]
fn swfd_crash_at_snapshot_boundary_is_invisible_with_gram_held_buckets() {
    let m = 16;
    let dim = 12;
    let rows = matrix_stream(m * PER_SLOT, dim, 12_003);
    let inputs = partition(&stamp(&rows), m);
    let cfg = SwFdConfig::new(m, 0.15, 4_096, dim, 8);
    let run = |ccfg: &ChurnConfig| {
        let (sites, coord, _) = fd::deploy(&cfg).into_parts();
        run_churn(
            sites,
            coord,
            inputs.clone(),
            &tcfg(),
            Executor::Inline,
            Topology::Star,
            |t| fd::make_aggregator(&cfg, t),
            ccfg,
            &ChannelTransport,
        )
    };
    assert_invisible(
        run(&snap_only_cfg(Some(2))),
        run(&snap_only_cfg(None)),
        true,
        "sw-fd ℓ < d < 2ℓ star mid-run",
    );
}

/// The windowed-FD root keeps its last fold until its next change, and
/// [`ChurnCoordinator::settle_for_snapshot`] changes every Gram-held
/// bucket. At `ℓ < d < 2ℓ` a root queried just before the settle (so a
/// fold is kept), then settled and captured, must answer as the root its
/// snapshot decodes to, bit for bit: a settle that kept the fold would
/// answer with the unsettled buckets'.
///
/// [`ChurnCoordinator::settle_for_snapshot`]: cma::stream::ChurnCoordinator::settle_for_snapshot
#[test]
fn swfd_root_queried_before_capture_answers_as_its_snapshot() {
    use cma::stream::ChurnCoordinator;

    let (m, dim) = (16, 12);
    let rows = matrix_stream(m * PER_SLOT, dim, 12_004);
    let cfg = SwFdConfig::new(m, 0.15, 4_096, dim, 8);
    let (sites, coord, _) = fd::deploy(&cfg).into_parts();
    let mut parts = engine::run_partitioned_topology_parts(
        sites,
        coord,
        partition(&stamp(&rows), m),
        &tcfg(),
        Executor::Inline,
        Topology::Star,
        fd::make_aggregator(&cfg, Topology::Star),
    );
    let now = rows.len() as u64;
    let bits =
        |m: cma::linalg::Matrix| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
    let root = &mut parts.coordinator;
    let unsettled = bits(root.sketch_at(now));
    root.settle_for_snapshot();
    let snap = Snapshot::capture(&*root, &parts.aggregators);
    let (restored, _) = snap
        .restore::<fd::SwFdCoordinator, fd::SwFdAggregator>()
        .expect("snapshot restores");
    let settled = bits(root.sketch_at(now));
    assert!(
        settled == bits(restored.sketch_at(now)),
        "the live root answers otherwise than its snapshot"
    );
    assert!(settled != unsettled, "the settle changed nothing");
}

/// Each windowed node decodes alone, so a bucket whose summary is not
/// shaped for its node's kind used to decode: a root whose kind names
/// `d = 12` over buckets of `d = 13` restored, and its first query
/// panicked (`FrequentDirections::merge: dimension mismatch`). The root
/// now refuses such buckets (FD: `d` and `ℓ`; MG: the capacity), and a
/// restore refuses interior nodes whose buckets are of another width
/// than the root's.
#[test]
fn window_snapshots_refuse_buckets_of_another_shape() {
    let (m, topo) = (16, Topology::Tree { fanout: 4 });
    let fd_run = |dim: usize| {
        let rows = matrix_stream(m * PER_SLOT, dim, 12_005);
        let cfg = SwFdConfig::new(m, 0.15, 4_096, dim, 8);
        let (sites, coord, _) = fd::deploy_topology(&cfg, topo).into_parts();
        engine::run_partitioned_topology_parts(
            sites,
            coord,
            partition(&stamp(&rows), m),
            &tcfg(),
            Executor::Inline,
            topo,
            fd::make_aggregator(&cfg, topo),
        )
    };
    let (narrow, wide) = (fd_run(12), fd_run(13));
    assert!(wide.coordinator.bucket_count() > 0);
    assert!(wide.aggregators.iter().any(|a| a.bucket_count() > 0));
    let restore = |root: &fd::SwFdCoordinator, aggs: &[fd::SwFdAggregator]| {
        Snapshot::capture(root, aggs)
            .restore::<fd::SwFdCoordinator, fd::SwFdAggregator>()
            .is_some()
    };
    assert!(restore(&narrow.coordinator, &narrow.aggregators));
    assert!(restore(&wide.coordinator, &wide.aggregators));
    assert!(
        !restore(&narrow.coordinator, &wide.aggregators),
        "d = 13 interior nodes under a d = 12 root restored"
    );

    // The kind leads a root's encoding: `d, ℓ` for FD, the capacity for MG.
    let spliced = |kind_of: Vec<u8>, buckets_of: Vec<u8>, kind_len: usize| {
        let mut bytes = kind_of[..kind_len].to_vec();
        bytes.extend_from_slice(&buckets_of[kind_len..]);
        bytes
    };
    let bytes = spliced(narrow.coordinator.to_wire(), wide.coordinator.to_wire(), 16);
    assert!(
        fd::SwFdCoordinator::decode(&mut WireReader::new(&bytes)).is_none(),
        "a d = 12 root over d = 13 buckets decoded"
    );
    let mg_root = |capacity: usize| {
        let cfg = SwMgConfig::new(m, 0.1, 4_096, capacity);
        let stream = zipf_stream(m * PER_SLOT, 12_006);
        let (sites, coord, _) = mg::deploy(&cfg).into_parts();
        engine::run_partitioned_topology_parts(
            sites,
            coord,
            partition(&stamp(&stream), m),
            &tcfg(),
            Executor::Inline,
            Topology::Star,
            mg::make_aggregator(&cfg, Topology::Star),
        )
        .coordinator
    };
    let (small, large) = (mg_root(8), mg_root(32));
    assert!(large.bucket_count() > 0);
    let bytes = spliced(small.to_wire(), large.to_wire(), 8);
    assert!(
        mg::SwMgCoordinator::decode(&mut WireReader::new(&bytes)).is_none(),
        "an 8-counter root over 32-counter buckets decoded"
    );
}

/// Overwrites the eight bytes at every offset of a captured root complex
/// with a huge count and restores: every decoder must return — `Some`
/// or `None` — rather than abort the process on a pre-allocation sized
/// by the corrupted count. 2³² is the largest sequence length the
/// message codecs accept; 2⁴⁰ passes only unchecked counts.
fn assert_huge_counts_fail_closed<C: WireCodec, A: WireCodec>(coordinator: &C, aggregators: &[A]) {
    let bytes = Snapshot::capture(coordinator, aggregators)
        .as_bytes()
        .to_vec();
    for huge in [1u64 << 32, 1u64 << 40] {
        for at in 0..=bytes.len() - 8 {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&huge.to_le_bytes());
            let _ = Snapshot::from_bytes(bad).restore::<C, A>();
        }
    }
}

macro_rules! sweep_counts {
    ($($proto:ident)::+, $cfg:expr, $inputs:expr) => {{
        let cfg = $cfg;
        let topo = Topology::Tree { fanout: 2 };
        let (sites, coord, _) = $($proto)::+::deploy_topology(&cfg, topo).into_parts();
        let parts = engine::run_partitioned_topology_parts(
            sites,
            coord,
            $inputs.clone(),
            &tcfg(),
            Executor::Inline,
            topo,
            $($proto)::+::make_aggregator(&cfg, topo),
        );
        assert_huge_counts_fail_closed(&parts.coordinator, &parts.aggregators);
    }};
}

/// A corrupted count in a snapshot is a decode failure, not an abort:
/// first the case that used to die allocating 2⁴⁰ buckets (the windowed
/// FD root's bucket count), then a huge count at every offset of all
/// twelve root complexes.
#[test]
fn corrupted_counts_fail_to_decode() {
    let m = 4;
    let dim = 4;
    let rows = matrix_stream(m * 32, dim, 5);
    let winputs = partition(&stamp(&rows), m);
    let fcfg = SwFdConfig::new(m, 0.15, 64, dim, 8);
    let (sites, coord, _) = fd::deploy(&fcfg).into_parts();
    let parts = engine::run_partitioned_topology_parts(
        sites,
        coord,
        winputs.clone(),
        &tcfg(),
        Executor::Inline,
        Topology::Star,
        fd::make_aggregator(&fcfg, Topology::Star),
    );
    let mut bytes = Snapshot::capture(&parts.coordinator, &parts.aggregators)
        .as_bytes()
        .to_vec();
    // Header (16) + kind (d, ℓ: 16) + window, per_level, clock (24).
    bytes[56..64].copy_from_slice(&(1u64 << 40).to_le_bytes());
    assert!(Snapshot::from_bytes(bytes)
        .restore::<fd::SwFdCoordinator, fd::SwFdAggregator>()
        .is_none());

    let stream = zipf_stream(m * 32, 5);
    let inputs = partition(&stream, m);
    let cfg = HhConfig::new(m, 0.2).with_seed(3);
    sweep_counts!(hh::p1, cfg.clone(), inputs);
    sweep_counts!(hh::p2, cfg.clone(), inputs);
    sweep_counts!(hh::p3, cfg.clone().with_sample_size(16), inputs);
    sweep_counts!(hh::p3wr, cfg.clone().with_sample_size(16), inputs);
    sweep_counts!(hh::p4, cfg, inputs);
    let minputs = partition(&rows, m);
    let mcfg = MatrixConfig::new(m, 0.25, dim).with_seed(3);
    sweep_counts!(matrix::p1, mcfg.clone(), minputs);
    sweep_counts!(matrix::p2, mcfg.clone(), minputs);
    sweep_counts!(matrix::p3, mcfg.clone().with_sample_size(16), minputs);
    sweep_counts!(matrix::p3wr, mcfg.clone().with_sample_size(16), minputs);
    sweep_counts!(matrix::p4, mcfg, minputs);
    sweep_counts!(
        mg,
        SwMgConfig::new(m, 0.1, 64, 8),
        partition(&stamp(&stream), m)
    );
    sweep_counts!(fd, fcfg, winputs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Claim 3: for arbitrary snapshot/crash boundary pairs (non-empty
    /// replay suffix), one representative per protocol family keeps its
    /// certified bound with the measured recovery loss folded in.
    #[test]
    fn recovery_bound_holds_for_any_replay_suffix(
        seed in 0u64..1_000_000,
        m in 4usize..9,
        snap_b in 1usize..4,
        gap in 1usize..4,
        topo in topologies(),
    ) {
        let ccfg = ChurnConfig {
            segment_len: SEGMENT,
            schedule: ChurnSchedule::new(),
            snapshot_at: Some(snap_b),
            crash_at: Some(snap_b + gap),
            ..ChurnConfig::default()
        };
        let n = m * PER_SLOT;

        // HH / P1: deterministic εW, widened on the undercount side
        // only — replay must never double-count.
        let stream = zipf_stream(n, seed);
        let inputs = partition(&stream, m);
        let mut exact = ExactWeightedCounter::new();
        for &(e, w) in &stream {
            exact.update(e, w);
        }
        let w_all = exact.total_weight();
        let cfg = HhConfig::new(m, 0.1).with_seed(seed ^ 7);
        let parts = run_hh!(p1, cfg.clone(), topo, inputs, &ccfg);
        prop_assert!(parts.snapshot.is_some());
        prop_assert_eq!(
            parts.report.snapshot_bytes.map(|b| b as usize),
            parts.snapshot.as_ref().map(Snapshot::len)
        );
        let lost = parts.report.recovery_lost_mass;
        for (e, f) in exact.iter() {
            let est = parts.coordinator.estimate(e);
            prop_assert!(est - f <= 1e-6, "p1: item {} overcount {}", e, est - f);
            prop_assert!(
                f - est <= cfg.epsilon * w_all + lost + 1e-6,
                "p1: item {} undercount {} > εW + lost {}",
                e, f - est, lost
            );
        }

        // Matrix / MT-P1: covariance error, recovery loss folded
        // Frobenius-wise.
        let dim = 4;
        let rows = matrix_stream(n, dim, seed ^ 3);
        let minputs = partition(&rows, m);
        let mut truth = StreamingGram::new(dim);
        for row in &rows {
            truth.update(row);
        }
        let mcfg = MatrixConfig::new(m, 0.25, dim).with_seed(seed ^ 5);
        let parts = run_matrix!(p1, mcfg.clone(), topo, minputs, &ccfg);
        let lost = parts.report.recovery_lost_mass;
        let err = truth.error_of_sketch(&parts.coordinator.sketch()).unwrap();
        prop_assert!(
            err <= mcfg.epsilon + lost / truth.frob_sq() + 1e-9,
            "mt-p1: err {} > ε + lost share {}",
            err, lost / truth.frob_sq()
        );

        // Window / SwMg: recovery loss folded through `charge_faults`,
        // then the two-part bound holds at the final clock.
        let window = 512u64;
        let winputs = partition(&stamp(&stream), m);
        let wcfg = SwMgConfig::new(m, 0.1, window, 32);
        let (sites, coord, _) = mg::deploy_topology(&wcfg, topo).into_parts();
        let mut parts = run_churn(
            sites,
            coord,
            winputs.clone(),
            &tcfg(),
            Executor::Inline,
            topo,
            |t| mg::make_aggregator(&wcfg, t),
            &ccfg,
            &ChannelTransport,
        );
        parts
            .coordinator
            .charge_faults(parts.report.recovery_lost_mass, 0.0);
        let bound = parts.coordinator.error_bound_at(n as u64);
        for item in 0..20u64 {
            let truth: f64 = stream[n - window as usize..]
                .iter()
                .filter(|&&(e, _)| e == item)
                .map(|&(_, w)| w)
                .sum();
            let est = parts.coordinator.estimate_at(n as u64, item);
            prop_assert!(
                est - truth <= bound.straddle + 1e-9,
                "sw-mg: item {} overcount {} > straddle {}",
                item, est - truth, bound.straddle
            );
            prop_assert!(
                truth - est <= bound.summary_loss + bound.withheld + 1e-9,
                "sw-mg: item {} undercount {} > summary {} + withheld {}",
                item, truth - est, bound.summary_loss, bound.withheld
            );
        }
    }
}
