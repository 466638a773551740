//! End-to-end integration tests for the weighted heavy-hitter protocols:
//! every protocol against exact ground truth on the paper's Zipfian
//! workload, plus cross-protocol and communication-scaling properties.

use cma::data::WeightedZipfStream;
use cma::protocols::hh::{metrics, p1, p2, p3, p3wr, p4, HhConfig, HhEstimator};
use cma::sketch::ExactWeightedCounter;

const PHI: f64 = 0.05;

fn zipf(n: usize, beta: f64, seed: u64) -> (Vec<(u64, f64)>, ExactWeightedCounter) {
    let stream = WeightedZipfStream::new(10_000, 2.0, beta, seed).take_vec(n);
    let mut exact = ExactWeightedCounter::new();
    for &(e, w) in &stream {
        exact.update(e, w);
    }
    (stream, exact)
}

macro_rules! run {
    ($deploy:expr, $stream:expr, $m:expr) => {{
        let mut runner = $deploy;
        for (i, &(e, w)) in $stream.iter().enumerate() {
            runner.feed(i % $m, (e, w));
        }
        runner
    }};
}

/// The paper's headline contract, checked for every protocol on the
/// paper's workload: every item's estimate within εW, perfect recall and
/// precision at φ = 0.05, ε = 0.01 (Figure 1 shows exactly this regime).
#[test]
fn all_protocols_meet_contract_on_zipf() {
    let m = 10;
    let eps = 0.01;
    let (stream, exact) = zipf(60_000, 1000.0, 1);
    let w = exact.total_weight();
    let cfg = HhConfig::new(m, eps).with_seed(1);

    macro_rules! check {
        ($name:literal, $runner:expr, $floor_eps:expr) => {{
            let runner = $runner;
            let ev = metrics::evaluate(runner.coordinator(), &exact, PHI, eps);
            // Soundness of the approximate semantics: all true heavy
            // hitters returned; nothing below (φ−ε)W returned. Items in
            // the [(φ−ε)W, φW) band may legitimately appear, so exact
            // precision 1.0 is NOT required (the paper's Figure 1(b)
            // shows the same dips). Randomized protocols only promise the
            // εW bound with constant probability per item (Theorems 2–3),
            // so they get a proportionally lower floor.
            assert_eq!(ev.recall, 1.0, "{}: recall {}", $name, ev.recall);
            for (e, _) in runner.coordinator().heavy_hitters(PHI, eps) {
                assert!(
                    exact.frequency(e) >= (PHI - $floor_eps) * w - 1e-9,
                    "{}: item {e} below the (φ−ε)W floor",
                    $name
                );
            }
            // True heavy hitters carry ≥ (φ−ε)W each, so εW accuracy means
            // a relative error of at most ε/(φ−ε) ≈ 0.25 — all protocols
            // do far better; assert a conservative envelope.
            assert!(ev.avg_rel_err < 0.1, "{}: err {}", $name, ev.avg_rel_err);
            // Total weight estimate. P1–P3 track W within ~εW; P4's
            // weight tracker only promises the 2-approximation
            // Ŵ ≤ W ≤ 2Ŵ that calibrates its send probability.
            let w_hat = runner.coordinator().total_weight();
            assert!(
                w_hat <= w * (1.0 + 3.0 * eps),
                "{}: Ŵ={w_hat} above W={w}",
                $name
            );
            assert!(
                w_hat >= w / 2.0 - 1e-9,
                "{}: Ŵ={w_hat} below W/2={}",
                $name,
                w / 2.0
            );
        }};
    }

    check!("P1", run!(p1::deploy(&cfg), stream, m), eps);
    check!("P2", run!(p2::deploy(&cfg), stream, m), eps);
    check!("P3", run!(p3::deploy(&cfg), stream, m), 3.0 * eps);
    check!("P3wr", run!(p3wr::deploy(&cfg), stream, m), 3.0 * eps);
    check!("P4", run!(p4::deploy(&cfg), stream, m), 3.0 * eps);
}

/// Per-item εW accuracy for the deterministic protocols — not just on
/// heavy hitters but on *every* universe item (the paper's Lemma 2 /
/// Theorem 1 statements).
#[test]
fn deterministic_protocols_bound_every_item() {
    let m = 8;
    let eps = 0.02;
    let (stream, exact) = zipf(40_000, 100.0, 2);
    let w = exact.total_weight();
    let cfg = HhConfig::new(m, eps).with_seed(2);

    let r1 = run!(p1::deploy(&cfg), stream, m);
    let r2 = run!(p2::deploy(&cfg), stream, m);
    for (e, f) in exact.iter() {
        let e1 = (r1.coordinator().estimate(e) - f).abs();
        let e2 = (r2.coordinator().estimate(e) - f).abs();
        assert!(e1 <= eps * w + 1e-9, "P1 item {e}: {e1} > εW");
        assert!(e2 <= eps * w + 1e-9, "P2 item {e}: {e2} > εW");
    }
}

/// Communication must grow sub-linearly in the stream (the bounds are
/// `O(log N)` per site-threshold structure): quadrupling the stream must
/// far less than quadruple P2/P3/P4 messages.
#[test]
fn communication_scales_logarithmically() {
    let m = 10;
    let eps = 0.01;
    let cfg = HhConfig::new(m, eps).with_seed(3);
    let (short, _) = zipf(25_000, 1000.0, 3);
    let (long, _) = zipf(100_000, 1000.0, 3);

    macro_rules! ratio {
        ($deploy:expr) => {{
            let a = run!($deploy, short, m).stats().total() as f64;
            let b = run!($deploy, long, m).stats().total() as f64;
            b / a
        }};
    }
    let r2 = ratio!(p2::deploy(&cfg));
    let r4 = ratio!(p4::deploy(&cfg));
    assert!(r2 < 2.5, "P2 messages grew {r2}× for a 4× stream");
    assert!(r4 < 2.5, "P4 messages grew {r4}× for a 4× stream");
}

/// The paper's communication ordering at moderate ε: P2 and P3 beat P1;
/// P4 beats P2 at large m (its √m dependence).
#[test]
fn communication_ordering_matches_paper() {
    let m = 25;
    let eps = 0.01;
    let (stream, _) = zipf(80_000, 1000.0, 4);
    let cfg = HhConfig::new(m, eps).with_seed(4);

    let m1 = run!(p1::deploy(&cfg), stream, m).stats().total();
    let m2 = run!(p2::deploy(&cfg), stream, m).stats().total();
    let m4 = run!(p4::deploy(&cfg), stream, m).stats().total();
    assert!(
        m2 < m1,
        "P2 ({m2}) should use fewer messages than P1 ({m1})"
    );
    assert!(
        m4 < m2,
        "P4 ({m4}) should use fewer messages than P2 ({m2}) at m={m}"
    );
}

/// Unweighted special case (β = 1): the protocols degrade gracefully to
/// classical distributed counting.
#[test]
fn unit_weights_work() {
    let m = 5;
    let eps = 0.02;
    let (stream, exact) = zipf(30_000, 1.0, 5);
    let cfg = HhConfig::new(m, eps).with_seed(5);
    let runner = run!(p2::deploy(&cfg), stream, m);
    let ev = metrics::evaluate(runner.coordinator(), &exact, PHI, eps);
    assert_eq!(ev.recall, 1.0);
    assert!((runner.coordinator().total_weight() - 30_000.0).abs() <= eps * 30_000.0);
}

/// A single site must still work (m = 1 reduces to centralized
/// streaming with a self-loop threshold).
#[test]
fn single_site_degenerate_case() {
    let m = 1;
    let eps = 0.05;
    let (stream, exact) = zipf(10_000, 50.0, 6);
    let cfg = HhConfig::new(m, eps).with_seed(6);
    for (name, ev) in [
        (
            "P1",
            metrics::evaluate(
                run!(p1::deploy(&cfg), stream, m).coordinator(),
                &exact,
                PHI,
                eps,
            ),
        ),
        (
            "P2",
            metrics::evaluate(
                run!(p2::deploy(&cfg), stream, m).coordinator(),
                &exact,
                PHI,
                eps,
            ),
        ),
        (
            "P3",
            metrics::evaluate(
                run!(p3::deploy(&cfg), stream, m).coordinator(),
                &exact,
                PHI,
                eps,
            ),
        ),
    ] {
        assert_eq!(ev.recall, 1.0, "{name} failed with one site");
    }
}

/// Heavily skewed site assignment (all items to one of the m sites) must
/// not break correctness — the guarantees are adversarial in placement.
#[test]
fn skewed_placement_keeps_guarantee() {
    let m = 10;
    let eps = 0.02;
    let (stream, exact) = zipf(30_000, 100.0, 7);
    let w = exact.total_weight();
    let cfg = HhConfig::new(m, eps).with_seed(7);
    let mut runner = p2::deploy(&cfg);
    for &(e, wt) in &stream {
        runner.feed(0, (e, wt)); // everything lands on site 0
    }
    for (e, f) in exact.iter() {
        let err = (runner.coordinator().estimate(e) - f).abs();
        assert!(err <= eps * w + 1e-9, "item {e}: {err} > εW under skew");
    }
}

/// FNV-1a (64-bit) of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// HH-P1's traffic and every node's final state, pinned on seeded
/// m = 256 runs: the star fed item by item (`observe`, coordinator
/// merges) and a fanout-4 tree fed in batches (`observe_batch`,
/// aggregator merges and forwards). ε = 0.2 keeps ten counters per
/// summary, so forwarded partials, not only the root, overflow and
/// carry decrement totals. The MG wire encoding sorts its counters, so the
/// state hashes are deterministic; any change to what a flush ships,
/// or to a merged counter's or total's last bit, moves them.
#[test]
fn p1_traffic_and_state_are_pinned() {
    use cma::stream::partition::RoundRobin;
    use cma::stream::{Topology, WireCodec};

    let m = 256;
    let cfg = HhConfig::new(m, 0.2);
    let (stream, _) = zipf(200_000, 1000.0, 7);
    // (up_msgs, total, bytes_up, bytes_down, broadcast_events,
    //  coordinator hash, aggregators hash)
    let golden: [(Topology, [u64; 7]); 2] = [
        (
            Topology::Star,
            [
                12282,
                89710,
                1185408,
                223232,
                109,
                4730819539100614963,
                14695981039346656037,
            ],
        ),
        (
            Topology::Tree { fanout: 4 },
            [
                21271,
                232706,
                3798496,
                291040,
                107,
                9937193394709118906,
                1203948896162285357,
            ],
        ),
    ];
    for (topology, want) in golden {
        let mut r = p1::deploy_topology(&cfg, topology);
        if topology == Topology::Star {
            for (i, &a) in stream.iter().enumerate() {
                r.feed(i % m, a);
            }
        } else {
            r.run_partitioned(stream.iter().copied(), &mut RoundRobin::new(m), 64);
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

/// HH-P4's traffic and every node's final state, pinned on seeded
/// m = 64 runs: the star fed item by item (`observe`) and a fanout-4
/// tree fed in batches (`observe_batch`, aggregators coalescing tracker
/// reports and relaying count reports). The coordinator's encoding sorts
/// its `(item, site)` reports, so the state hashes are deterministic;
/// moving the RNG draw, the count a report carries, or a tracker
/// report's last bit moves them.
#[test]
fn p4_traffic_and_state_are_pinned() {
    use cma::stream::partition::RoundRobin;
    use cma::stream::{Topology, WireCodec};

    let m = 64;
    let cfg = HhConfig::new(m, 0.1).with_seed(41);
    let (stream, _) = zipf(100_000, 1000.0, 11);
    // (up_msgs, total, bytes_up, bytes_down, broadcast_events,
    //  coordinator hash, aggregators hash)
    let golden: [(Topology, [u64; 7]); 2] = [
        (
            Topology::Star,
            [
                2443,
                4171,
                33083,
                13824,
                27,
                165036122158571835,
                14695981039346656037,
            ],
        ),
        (
            Topology::Tree { fanout: 4 },
            [
                2744,
                10500,
                108216,
                18144,
                27,
                9982551850877769446,
                14536742791077469488,
            ],
        ),
    ];
    for (topology, want) in golden {
        let mut r = p4::deploy_topology(&cfg, topology);
        if topology == Topology::Star {
            for (i, &a) in stream.iter().enumerate() {
                r.feed(i % m, a);
            }
        } else {
            r.run_partitioned(stream.iter().copied(), &mut RoundRobin::new(m), 64);
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

/// HH-P2's traffic and every node's final state, pinned on seeded
/// m = 64 runs: the star fed item by item (`observe`), a fanout-4 tree
/// fed in batches (`observe_batch`, aggregators summing deltas and
/// testing them at flush), and the same tree under churn through the
/// segmented driver, where a leave and a join pin a site's `depart`,
/// every node's `rebudget` and the retiring aggregators'
/// `split_for_migration`. The coordinator's encoding sorts its items, so
/// the state hashes are deterministic; moving a threshold test, the
/// delta a message carries or a re-split's last bit moves them.
#[test]
fn p2_traffic_and_state_are_pinned() {
    use cma::stream::partition::{partition_round_robin, RoundRobin};
    use cma::stream::runner::churn::run_churn_partitioned_topology_parts_on as run_churn;
    use cma::stream::runner::engine::ThreadedConfig;
    use cma::stream::{
        ChannelTransport, ChurnConfig, ChurnEvent, ChurnSchedule, CommStats, Executor, Topology,
        WireCodec,
    };

    let m = 64;
    let cfg = HhConfig::new(m, 0.1);
    let (stream, _) = zipf(100_000, 1000.0, 13);
    let tree = Topology::Tree { fanout: 4 };
    // (up_msgs, total, bytes_up, bytes_down, broadcast_events,
    //  coordinator hash, aggregators hash)
    let golden: [(&str, [u64; 7]); 3] = [
        (
            "star",
            [
                6268,
                9788,
                78124,
                28160,
                55,
                886001673904868605,
                14695981039346656037,
            ],
        ),
        (
            "tree4",
            [
                7818,
                29156,
                293860,
                45696,
                68,
                9700451371879162485,
                15304207795679267011,
            ],
        ),
        (
            "tree4 churn",
            [
                7755,
                28975,
                291575,
                45696,
                68,
                15701580505541719906,
                6377566245077499979,
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
    for (i, &a) in stream.iter().enumerate() {
        star.feed(i % m, a);
    }
    let mut batched = p2::deploy_topology(&cfg, tree);
    batched.run_partitioned(stream.iter().copied(), &mut RoundRobin::new(m), 64);
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
        partition_round_robin(&stream, m),
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
