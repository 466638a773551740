//! End-to-end integration tests for the matrix-tracking protocols on the
//! paper's dataset surrogates: the ε-contract, baseline orderings, the
//! P4 negative result, and robustness to placement and degenerate
//! configurations.

use cma::data::{StreamingGram, SyntheticMatrixStream};
use cma::protocols::matrix::{p1, p2, p3, p3wr, p4, MatrixConfig, MatrixEstimator};

fn run_stream<S, C>(
    runner: &mut cma::stream::Runner<S, C>,
    stream: &mut SyntheticMatrixStream,
    n: usize,
    m: usize,
) -> StreamingGram
where
    S: cma::stream::Site<Input = Vec<f64>>,
    C: cma::stream::Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    S::UpMsg: cma::stream::MessageCost + Clone,
    S::Broadcast: cma::stream::WireSized,
{
    let mut truth = StreamingGram::new(stream.dim());
    for i in 0..n {
        let row = stream.next_row();
        truth.update(&row);
        runner.feed(i % m, row);
    }
    truth
}

/// The ε-contract on the PAMAP-like stream for all guaranteed protocols.
#[test]
fn contract_on_pamap_like() {
    let m = 10;
    let eps = 0.15;
    let n = 20_000;
    let cfg = MatrixConfig::new(m, eps, 44).with_seed(1);

    macro_rules! check {
        ($name:literal, $runner:expr) => {{
            let mut runner = $runner;
            let mut stream = SyntheticMatrixStream::pamap_like(11);
            let truth = run_stream(&mut runner, &mut stream, n, m);
            let err = truth
                .error_of_sketch(&runner.coordinator().sketch())
                .unwrap();
            assert!(err <= eps, "{}: err {err} > ε {eps}", $name);
            assert!(runner.stats().total() > 0);
            err
        }};
    }
    check!("P1", p1::deploy(&cfg));
    check!("P2", p2::deploy(&cfg));
    check!("P3", p3::deploy(&cfg));
}

/// The ε-contract on the high-rank MSD-like stream.
#[test]
fn contract_on_msd_like() {
    let m = 10;
    let eps = 0.15;
    let n = 12_000;
    let cfg = MatrixConfig::new(m, eps, 90).with_seed(2);

    macro_rules! check {
        ($name:literal, $runner:expr) => {{
            let mut runner = $runner;
            let mut stream = SyntheticMatrixStream::msd_like(12);
            let truth = run_stream(&mut runner, &mut stream, n, m);
            let err = truth
                .error_of_sketch(&runner.coordinator().sketch())
                .unwrap();
            assert!(err <= eps, "{}: err {err} > ε {eps}", $name);
        }};
    }
    check!("P1", p1::deploy(&cfg));
    check!("P2", p2::deploy(&cfg));
    check!("P3", p3::deploy(&cfg));
    check!("P3wr", p3wr::deploy(&cfg.clone().with_sample_size(800)));
}

/// The paper's Table 1 orderings: P1 is the most accurate protocol but
/// the most expensive; P3wor beats P3wr on both axes (at equal sample
/// size); everything communicates less than shipping the stream except
/// P1/P3wr which may approach it.
#[test]
fn table1_orderings() {
    let m = 10;
    let eps = 0.1;
    let n = 25_000;
    let cfg = MatrixConfig::new(m, eps, 44).with_seed(3);

    macro_rules! measure {
        ($runner:expr, $seed:expr) => {{
            let mut runner = $runner;
            let mut stream = SyntheticMatrixStream::pamap_like($seed);
            let truth = run_stream(&mut runner, &mut stream, n, m);
            let err = truth
                .error_of_sketch(&runner.coordinator().sketch())
                .unwrap();
            (err, runner.stats().total())
        }};
    }

    let (err1, msg1) = measure!(p1::deploy(&cfg), 13);
    let (err2, msg2) = measure!(p2::deploy(&cfg), 13);
    let (err3, msg3) = measure!(p3::deploy(&cfg), 13);
    let (err3wr, msg3wr) = measure!(p3wr::deploy(&cfg), 13);

    assert!(
        err1 < err2 && err1 < err3,
        "P1 should be most accurate: {err1} vs {err2}/{err3}"
    );
    assert!(
        msg2 < msg1,
        "P2 ({msg2}) should be cheaper than P1 ({msg1})"
    );
    assert!(
        msg3 < msg1,
        "P3 ({msg3}) should be cheaper than P1 ({msg1})"
    );
    assert!(
        msg3 < msg3wr,
        "P3wor ({msg3}) should be cheaper than P3wr ({msg3wr})"
    );
    assert!(
        err3 <= err3wr * 1.5 + 0.01,
        "P3wor ({err3}) should not lose badly to P3wr ({err3wr})"
    );
}

/// The Appendix C negative result: P4's error on rotated (non-axis-
/// aligned) data exceeds every guaranteed protocol's by a wide margin
/// and violates the ε contract outright.
#[test]
fn p4_negative_result() {
    let m = 8;
    let eps = 0.1;
    let n = 12_000;
    let cfg = MatrixConfig::new(m, eps, 44).with_seed(4);

    let mut p4r = p4::deploy(&cfg);
    let mut stream = SyntheticMatrixStream::pamap_like(14);
    let truth = run_stream(&mut p4r, &mut stream, n, m);
    let err4 = truth.error_of_sketch(&p4r.coordinator().sketch()).unwrap();

    let mut p2r = p2::deploy(&cfg);
    let mut stream = SyntheticMatrixStream::pamap_like(14);
    let truth2 = run_stream(&mut p2r, &mut stream, n, m);
    let err2 = truth2.error_of_sketch(&p2r.coordinator().sketch()).unwrap();

    assert!(err2 <= eps, "P2 contract: {err2}");
    assert!(err4 > eps, "P4 unexpectedly met the contract: {err4}");
    assert!(
        err4 > 3.0 * err2,
        "P4 ({err4}) should be far worse than P2 ({err2})"
    );
}

/// One-sided guarantee of the deterministic protocols: `‖Bx‖² ≤ ‖Ax‖²`
/// in every direction (Lemma 8's right side), checked on top of the
/// spectral error bound.
#[test]
fn deterministic_sketches_never_overestimate() {
    use cma::linalg::random::unit_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let m = 6;
    let eps = 0.2;
    let n = 8_000;
    let cfg = MatrixConfig::new(m, eps, 20).with_seed(5);
    let spectrum: Vec<f64> = (0..20).map(|j| 3.0 * 0.8_f64.powi(j)).collect();

    macro_rules! check {
        ($name:literal, $runner:expr) => {{
            let mut runner = $runner;
            let mut stream = SyntheticMatrixStream::new(20, &spectrum, 1e4, 15);
            let truth = run_stream(&mut runner, &mut stream, n, m);
            let sketch = runner.coordinator().sketch();
            let mut rng = StdRng::seed_from_u64(99);
            for _ in 0..30 {
                let x = unit_vector(&mut rng, 20);
                let ax: f64 = truth
                    .gram()
                    .apply(&x)
                    .iter()
                    .zip(&x)
                    .map(|(g, xi)| g * xi)
                    .sum();
                let bx = sketch.apply_norm_sq(&x);
                assert!(
                    bx <= ax + 1e-6 * truth.frob_sq(),
                    "{}: ‖Bx‖² = {bx} > ‖Ax‖² = {ax}",
                    $name
                );
            }
        }};
    }
    check!("P1", p1::deploy(&cfg));
    check!("P2", p2::deploy(&cfg));
}

/// All rows to one site: adversarial placement must not break P2.
#[test]
fn skewed_placement_matrix() {
    let m = 8;
    let eps = 0.2;
    let cfg = MatrixConfig::new(m, eps, 16).with_seed(6);
    let mut runner = p2::deploy(&cfg);
    let mut stream = SyntheticMatrixStream::new(16, &[4.0, 2.0, 1.0], 1e4, 16);
    let mut truth = StreamingGram::new(16);
    for _ in 0..6_000 {
        let row = stream.next_row();
        truth.update(&row);
        runner.feed(0, row);
    }
    let err = truth
        .error_of_sketch(&runner.coordinator().sketch())
        .unwrap();
    assert!(err <= eps, "skewed placement: err {err}");
}

/// Growing site counts must increase communication for P2/P3 (their
/// bounds are linear in m) while leaving the error contract intact —
/// Figure 2(c,d)'s claim.
#[test]
fn site_scaling_matches_figure2() {
    let eps = 0.15;
    let n = 10_000;

    let mut msgs = Vec::new();
    for &m in &[5usize, 20] {
        let cfg = MatrixConfig::new(m, eps, 44).with_seed(7);
        let mut runner = p2::deploy(&cfg);
        let mut stream = SyntheticMatrixStream::pamap_like(17);
        let truth = run_stream(&mut runner, &mut stream, n, m);
        let err = truth
            .error_of_sketch(&runner.coordinator().sketch())
            .unwrap();
        assert!(err <= eps, "m={m}: err {err}");
        msgs.push(runner.stats().total());
    }
    assert!(
        msgs[1] > msgs[0],
        "P2 messages should grow with m: {msgs:?}"
    );
}

/// MT-P2 through rank saturation at every level of a tree. Every other
/// tree suite streams rank-3 rows, which no node ever saturates on; here
/// the spectrum is flat in `d = 8`, so within a few hundred rows every
/// leaf has stacked more rows than `d` and holds its withheld Gram
/// instead. The interior `MP2Aggregator`s saturate too, but only inside
/// `ThresholdKind::hold`: a relayed direction is already at its sender's
/// send threshold, so the ninth stacked row converts the node to the
/// Gram layout and the check in that same call decomposes it again
/// (≈ 50 times in this run) — nothing an outside observer can see at
/// rest, which is why only the leaves are asserted on. Both sides of
/// Lemma 8, `0 ≤ ‖Ax‖² − ‖Bx‖² ≤ ε‖A‖²_F`, on 32 unit directions —
/// checked along the stream as well as at its end.
#[test]
fn mt_p2_tree_keeps_two_sided_bound_through_rank_saturation() {
    use cma::linalg::random::unit_vector;
    use cma::stream::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let (m, eps, dim, n) = (16, 0.1, 8, 16 * 400);
    let cfg = MatrixConfig::new(m, eps, dim).with_seed(8);
    let mut rng = StdRng::seed_from_u64(98);
    let directions: Vec<Vec<f64>> = (0..32).map(|_| unit_vector(&mut rng, dim)).collect();

    for topology in [Topology::Star, Topology::Tree { fanout: 4 }] {
        let mut runner = p2::deploy_topology(&cfg, topology);
        let mut stream = SyntheticMatrixStream::new(dim, &[1.0; 8], 1e6, 18);
        let mut truth = StreamingGram::new(dim);
        let mut saturated = vec![false; m];
        for i in 0..n {
            let row = stream.next_row();
            truth.update(&row);
            runner.feed(i % m, row);
            if i % 64 != 63 {
                continue;
            }
            for (seen, site) in saturated.iter_mut().zip(runner.sites()) {
                // The layout is private; its `Debug` form names it.
                *seen |= format!("{site:?}").contains("Gram(");
            }
            let frob = truth.frob_sq();
            for x in &directions {
                let ax: f64 = truth
                    .gram()
                    .apply(x)
                    .iter()
                    .zip(x)
                    .map(|(g, v)| g * v)
                    .sum();
                let gap = ax - runner.coordinator().direction_norm_sq(x);
                assert!(
                    gap >= -1e-9 * frob && gap <= (eps + 1e-9) * frob,
                    "{topology:?} after {} rows: ‖Ax‖² − ‖Bx‖² = {gap}, ε‖A‖²_F = {}",
                    i + 1,
                    eps * frob
                );
            }
        }
        assert!(
            saturated.iter().all(|&s| s),
            "{topology:?}: leaves never seen saturated: {saturated:?}"
        );
    }
}

/// MT-P3 is HH-P3 with each row `a` read as an element of weight `‖a‖²`
/// (§5.3), and MT-P3wr is HH-P3wr the same way. Fed the weights `k²`
/// and the one-dimensional rows `[k]` under one seed and ε, each pair
/// makes the same draws: the same messages over the same hops, the same
/// rounds, and the same total-weight estimate, bit for bit — at `m = 1`
/// and `d = 1` too.
#[test]
fn sampling_protocols_agree_across_payloads() {
    use cma::protocols::hh::{self, HhConfig, HhEstimator};
    use cma::stream::{CommStats, Topology};

    fn hops(stats: &CommStats) -> Vec<(u64, u64)> {
        stats
            .per_level
            .iter()
            .map(|l| (l.up_msgs, l.broadcast_msgs))
            .collect()
    }

    let n = 6_000u64;
    for m in [1usize, 5, 16] {
        for topology in [Topology::Star, Topology::Tree { fanout: 4 }] {
            let hh_cfg = HhConfig::new(m, 0.1).with_seed(29);
            let mt_cfg = MatrixConfig::new(m, 0.1, 1).with_seed(29);
            macro_rules! agree {
                ($name:literal, $hh:expr, $mt:expr) => {{
                    let (mut hh_run, mut mt_run) = ($hh, $mt);
                    for i in 0..n {
                        let k = (1 + i % 40) as f64;
                        let site = (i % m as u64) as usize;
                        hh_run.feed(site, (i, k * k));
                        mt_run.feed(site, vec![k]);
                    }
                    let (hs, ms) = (hh_run.stats(), mt_run.stats());
                    let cell = format!("{} m={m} {topology:?}", $name);
                    assert!(hs.broadcast_events > 0, "{cell}: no round ended");
                    assert_eq!(hs.up_msgs, ms.up_msgs, "{cell}: up_msgs");
                    assert_eq!(
                        hs.broadcast_events, ms.broadcast_events,
                        "{cell}: broadcast_events"
                    );
                    assert_eq!(hops(hs), hops(ms), "{cell}: per-level hops");
                    let w_hat = hh_run.coordinator().total_weight();
                    let f_hat = mt_run.coordinator().frob_estimate();
                    assert_eq!(
                        w_hat.to_bits(),
                        f_hat.to_bits(),
                        "{cell}: Ŵ {w_hat} vs F̂ {f_hat}"
                    );
                }};
            }
            agree!(
                "P3",
                hh::p3::deploy_topology(&hh_cfg, topology),
                p3::deploy_topology(&mt_cfg, topology)
            );
            agree!(
                "P3wr",
                hh::p3wr::deploy_topology(&hh_cfg, topology),
                p3wr::deploy_topology(&mt_cfg, topology)
            );
        }
    }
}

/// FNV-1a (64-bit) of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// MT-P1's traffic and every node's final state, pinned on seeded
/// m = 24 runs: the star fed row by row (`observe`, coordinator
/// merges) and a fanout-4 tree fed in batches (`observe_batch`,
/// aggregator merges and forwards). ε = 0.2 keeps `ℓ = 20` rows per
/// sketch in `d = 16`, more than the `⌈ℓ/2⌉ − 1 = 9` a shrink keeps,
/// so shrinks at sites and aggregators lose mass and a forwarded
/// partial's exact mass differs from its sketch's own `frob_sq`. The
/// FD wire encoding is a pure function of the sketch, so the state
/// hashes are deterministic; any change to what a flush ships, to an
/// aggregator's held mass, or to a sketch row's last bit moves them.
#[test]
fn mt_p1_traffic_and_state_are_pinned() {
    use cma::stream::partition::RoundRobin;
    use cma::stream::{Topology, WireCodec};

    let m = 24;
    let cfg = MatrixConfig::new(m, 0.2, 16);
    let spectrum: Vec<f64> = (0..16).map(|j| 2.0 * 0.8_f64.powi(j)).collect();
    let mut source = SyntheticMatrixStream::new(16, &spectrum, 1e3, 31);
    let rows: Vec<Vec<f64>> = (0..20_000).map(|_| source.next_row()).collect();
    // (up_msgs, total, bytes_up, bytes_down, broadcast_events,
    //  coordinator hash, aggregators hash)
    let golden: [(Topology, [u64; 7]); 2] = [
        (
            Topology::Star,
            [
                1164,
                12405,
                1221024,
                15360,
                80,
                5305381746018170887,
                14695981039346656037,
            ],
        ),
        (
            Topology::Tree { fanout: 4 },
            [
                2004,
                31900,
                3397672,
                19712,
                77,
                2585338574389685815,
                9033389817766061883,
            ],
        ),
    ];
    for (topology, want) in golden {
        let mut r = p1::deploy_topology(&cfg, topology);
        if topology == Topology::Star {
            for (i, row) in rows.iter().enumerate() {
                r.feed(i % m, row.clone());
            }
        } else {
            r.run_partitioned(rows.iter().cloned(), &mut RoundRobin::new(m), 64);
        }
        let s = r.stats();
        let aggs: Vec<u8> = r.aggregators().iter().flat_map(|a| a.to_wire()).collect();
        let got = [
            s.up_msgs,
            s.total(),
            s.bytes_up,
            s.bytes_down,
            s.broadcast_events,
            fnv1a(&r.coordinator().to_wire()),
            fnv1a(&aggs),
        ];
        assert_eq!(got, want, "{topology:?}");
    }
}

/// MT-P4's traffic and every node's final state, pinned on seeded
/// m = 24 runs: the star fed row by row (`observe`) and a fanout-4 tree
/// fed in batches (`observe_batch`, aggregators coalescing tracker
/// reports and relaying z refreshes). Every z entry is
/// `√(G_jj + 1/p)`, so moving the RNG draw, the Gram update or the
/// `1/p` term moves the coordinator hash.
#[test]
fn mt_p4_traffic_and_state_are_pinned() {
    use cma::stream::partition::RoundRobin;
    use cma::stream::{Topology, WireCodec};

    let m = 24;
    let cfg = MatrixConfig::new(m, 0.2, 16).with_seed(43);
    let spectrum: Vec<f64> = (0..16).map(|j| 2.0 * 0.8_f64.powi(j)).collect();
    let mut source = SyntheticMatrixStream::new(16, &spectrum, 1e3, 37);
    let rows: Vec<Vec<f64>> = (0..20_000).map(|_| source.next_row()).collect();
    // (up_msgs, total, bytes_up, bytes_down, broadcast_events,
    //  coordinator hash, aggregators hash)
    let golden: [(Topology, [u64; 7]); 2] = [
        (
            Topology::Star,
            [
                776,
                1352,
                60872,
                4608,
                24,
                2404645295890983313,
                14695981039346656037,
            ],
        ),
        (
            Topology::Tree { fanout: 4 },
            [
                874,
                3390,
                186030,
                6144,
                24,
                15640640080763903096,
                15743452231164411059,
            ],
        ),
    ];
    for (topology, want) in golden {
        let mut r = p4::deploy_topology(&cfg, topology);
        if topology == Topology::Star {
            for (i, row) in rows.iter().enumerate() {
                r.feed(i % m, row.clone());
            }
        } else {
            r.run_partitioned(rows.iter().cloned(), &mut RoundRobin::new(m), 64);
        }
        let s = r.stats();
        let aggs: Vec<u8> = r.aggregators().iter().flat_map(|a| a.to_wire()).collect();
        let got = [
            s.up_msgs,
            s.total(),
            s.bytes_up,
            s.bytes_down,
            s.broadcast_events,
            fnv1a(&r.coordinator().to_wire()),
            fnv1a(&aggs),
        ];
        assert_eq!(got, want, "{topology:?}");
    }
}

/// MT-P2's traffic and every node's final state, pinned on seeded
/// m = 24 runs: the star fed row by row (`observe`), a fanout-4 tree fed
/// in batches (`observe_batch`, aggregators withholding relayed
/// directions under their own certified trigger), and the same tree
/// under churn through the segmented driver, where a leave and a join
/// pin a site's `depart`, every node's `rebudget` and the retiring
/// aggregators' `split_for_migration`. The root's encoding is its Gram
/// and an aggregator's its canonical withheld rows, so moving a check,
/// a shipped direction's last bit or a re-split moves the hashes.
#[test]
fn mt_p2_traffic_and_state_are_pinned() {
    use cma::stream::partition::{partition_round_robin, RoundRobin};
    use cma::stream::runner::churn::run_churn_partitioned_topology_parts_on as run_churn;
    use cma::stream::runner::engine::ThreadedConfig;
    use cma::stream::{
        ChannelTransport, ChurnConfig, ChurnEvent, ChurnSchedule, CommStats, Executor, Topology,
        WireCodec,
    };

    let m = 24;
    let cfg = MatrixConfig::new(m, 0.2, 16).with_seed(47);
    let spectrum: Vec<f64> = (0..16).map(|j| 2.0 * 0.8_f64.powi(j)).collect();
    let mut source = SyntheticMatrixStream::new(16, &spectrum, 1e3, 53);
    let rows: Vec<Vec<f64>> = (0..20_000).map(|_| source.next_row()).collect();
    let tree = Topology::Tree { fanout: 4 };
    // (up_msgs, total, bytes_up, bytes_down, broadcast_events,
    //  coordinator hash, aggregators hash)
    let golden: [(&str, [u64; 7]); 3] = [
        (
            "star",
            [
                1275,
                1947,
                87123,
                5376,
                28,
                11369809614342964008,
                14695981039346656037,
            ],
        ),
        (
            "tree4",
            [
                1642,
                5709,
                299221,
                8960,
                35,
                3090610735851498099,
                8260126500317138575,
            ],
        ),
        (
            "tree4 churn",
            [
                1607,
                5885,
                331237,
                9216,
                36,
                9209759587796049659,
                5903784874550111059,
            ],
        ),
    ];
    fn pin<C: WireCodec, A: WireCodec>(s: &CommStats, coord: &C, aggs: &[A]) -> [u64; 7] {
        let aggs: Vec<u8> = aggs.iter().flat_map(|a| a.to_wire()).collect();
        [
            s.up_msgs,
            s.total(),
            s.bytes_up,
            s.bytes_down,
            s.broadcast_events,
            fnv1a(&coord.to_wire()),
            fnv1a(&aggs),
        ]
    }

    let mut star = p2::deploy_topology(&cfg, Topology::Star);
    for (i, row) in rows.iter().enumerate() {
        star.feed(i % m, row.clone());
    }
    let mut batched = p2::deploy_topology(&cfg, tree);
    batched.run_partitioned(rows.iter().cloned(), &mut RoundRobin::new(m), 64);
    let (sites, coord, _) = p2::deploy_topology(&cfg, tree).into_parts();
    let churn = ChurnConfig {
        segment_len: 64,
        schedule: ChurnSchedule::new()
            .at(2, ChurnEvent::Leave(5))
            .at(4, ChurnEvent::Join(m - 1)),
        ..ChurnConfig::default()
    };
    let tcfg = ThreadedConfig {
        batch_size: 16,
        channel_capacity: 2,
        plane: Default::default(),
    };
    let parts = run_churn(
        sites,
        coord,
        partition_round_robin(&rows, m),
        &tcfg,
        Executor::Inline,
        tree,
        |t| p2::make_aggregator(&cfg, t),
        &churn,
        &ChannelTransport,
    );
    let report = &parts.report;
    assert_eq!((report.leaves, report.joins), (1, 1));
    assert!(
        report.departed_msgs > 0 && report.migrated_msgs > 0,
        "{report:?}"
    );

    let got = [
        pin(star.stats(), star.coordinator(), star.aggregators()),
        pin(
            batched.stats(),
            batched.coordinator(),
            batched.aggregators(),
        ),
        pin(&parts.stats, &parts.coordinator, &parts.aggregators),
    ];
    for ((what, want), got) in golden.iter().zip(got) {
        assert_eq!(got, *want, "{what}");
    }
}
