//! Churn + recovery integration suite: site membership changes and
//! coordinator crash/recovery driven through
//! [`cma::stream::runner::churn::run_churn_partitioned_topology_parts_on`],
//! pinned against each protocol's *restated* certified bound.
//!
//! Four load-bearing claims:
//!
//! 1. **The churn matrix** — join-only / leave-only / mixed schedules at
//!    m ∈ {16, 64} on the star and the fanout-4 tree. A leaving site's
//!    withheld summary re-enters the certified bound via its final
//!    flush, a joining site starts from the live broadcast state, and
//!    the ε budget re-splits over the surviving `m' + I` withholding
//!    nodes — so every protocol's bound holds over the mass that was
//!    actually *fed* (paused feeds are accounted, not lost).
//! 2. **Zero churn is invisible** — an empty schedule on a static
//!    topology reproduces a bare loop of engine segments bit for bit:
//!    same `CommStats`, same estimates.
//! 3. **Crash/recovery restates the bound** — the acceptance cell: a
//!    forced mid-stream leave plus a coordinator crash recovered from a
//!    wire-encoded snapshot at m = 64, with the measured
//!    [`recovery_lost_mass`](cma::stream::ChurnReport) folded into each
//!    protocol's undercount term exactly as `SwCoordinator::charge_faults`
//!    folds network-fault mass.
//! 4. **Re-planning composes with churn** — an `Adaptive` deployment
//!    whose membership shrinks and regrows collapses to the star and
//!    grows its tree back, every re-plan through the same certified
//!    re-split, the restated bounds intact.

use cma::data::{StreamingGram, SyntheticMatrixStream, WeightedZipfStream};
use cma::linalg::{random, Matrix};
use cma::protocols::hh::{self, HhConfig, HhEstimator};
use cma::protocols::matrix::{self, MatrixConfig, MatrixEstimator};
use cma::protocols::window::{fd, mg, SwFdConfig, SwMgConfig};
use cma::sketch::ExactWeightedCounter;
use cma::stream::partition::partition_round_robin as partition;
use cma::stream::runner::churn::run_churn_partitioned_topology_parts_on as run_churn;
use cma::stream::runner::engine::{self, ThreadedConfig};
use cma::stream::{
    ChannelTransport, ChurnConfig, ChurnEvent, ChurnSchedule, CommStats, Executor, Topology,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEGMENT: usize = 64;
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

fn churn_cfg(schedule: ChurnSchedule) -> ChurnConfig {
    ChurnConfig {
        segment_len: SEGMENT,
        schedule,
        ..ChurnConfig::default()
    }
}

/// The schedule axis of the churn matrix. Join targets start inactive
/// (their earliest event is the join); leave targets start active.
fn schedules(m: usize) -> Vec<(&'static str, ChurnSchedule)> {
    vec![
        (
            "join-only",
            ChurnSchedule::new()
                .at(2, ChurnEvent::Join(1))
                .at(4, ChurnEvent::Join(m - 1)),
        ),
        (
            "leave-only",
            ChurnSchedule::new()
                .at(2, ChurnEvent::Leave(0))
                .at(4, ChurnEvent::Leave(m / 2)),
        ),
        (
            "mixed",
            ChurnSchedule::new()
                .at(1, ChurnEvent::Leave(2))
                .at(3, ChurnEvent::Join(m - 2))
                .at(5, ChurnEvent::Leave(1)),
        ),
    ]
}

/// Mirrors the driver's feeding discipline exactly: boundary `k` fires
/// before segment `k`, each segment feeds `segment_len` per *active*
/// slot, and the run ends once no boundary event is ahead and every
/// active feed is dry. Returns how many inputs each slot consumed.
fn fed_prefixes(lens: &[usize], cfg: &ChurnConfig) -> Vec<usize> {
    let m = lens.len();
    let sched = &cfg.schedule;
    let mut active = sched.initial_activity(m);
    let mut remaining = lens.to_vec();
    let mut fed = vec![0usize; m];
    let mut boundary = 0usize;
    loop {
        for event in sched.events_at(boundary) {
            match event {
                ChurnEvent::Join(s) => active[s] = true,
                ChurnEvent::Leave(s) => active[s] = false,
            }
        }
        let future = sched.events.iter().any(|&(b, _)| b > boundary)
            || cfg.snapshot_at.is_some_and(|b| b > boundary)
            || cfg.crash_at.is_some_and(|b| b > boundary);
        let left = (0..m).any(|s| active[s] && remaining[s] > 0);
        if !future && !left {
            break;
        }
        for s in 0..m {
            if active[s] {
                let k = remaining[s].min(cfg.segment_len);
                fed[s] += k;
                remaining[s] -= k;
            }
        }
        boundary += 1;
    }
    fed
}

/// Which global stream indices a round-robin partition actually fed,
/// given the per-slot fed prefixes.
fn fed_mask(n: usize, m: usize, fed: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; n];
    let mut count = vec![0usize; m];
    for (i, slot) in mask.iter_mut().enumerate() {
        let s = i % m;
        if count[s] < fed[s] {
            *slot = true;
            count[s] += 1;
        }
    }
    mask
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

/// The heavy-hitter half of the churn matrix: every schedule × m ×
/// topology cell, each protocol pinned against its restated bound over
/// the fed mass.
#[test]
fn hh_restated_bounds_across_churn_matrix() {
    for &m in &[16usize, 64] {
        for (name, sched) in schedules(m) {
            let stream = zipf_stream(m * PER_SLOT, 1_000 + m as u64);
            let inputs = partition(&stream, m);
            let ccfg = churn_cfg(sched);
            let lens: Vec<usize> = inputs.iter().map(Vec::len).collect();
            let fed = fed_prefixes(&lens, &ccfg);
            let fed_total: usize = fed.iter().sum();
            let mask = fed_mask(stream.len(), m, &fed);
            let mut exact = ExactWeightedCounter::new();
            for (i, &(e, w)) in stream.iter().enumerate() {
                if mask[i] {
                    exact.update(e, w);
                }
            }
            let w_fed = exact.total_weight();

            for &topo in &[Topology::Star, Topology::Tree { fanout: 4 }] {
                // P1: deterministic εW over the fed mass — the departing
                // sites' flushed summaries keep the bound two-sided.
                let cfg = HhConfig::new(m, 0.1).with_seed(21);
                let parts = run_hh!(p1, cfg.clone(), topo, inputs, &ccfg);
                assert_eq!(
                    parts.stats.arrivals, fed_total as u64,
                    "p1 {name} m={m} {topo:?}: fed accounting diverged from the driver"
                );
                assert_eq!(
                    parts.report.unfed_inputs,
                    stream.len() - fed_total,
                    "p1 {name} m={m} {topo:?}: unfed accounting"
                );
                assert!(parts.report.resplits >= 1, "{name}: no re-split fired");
                for (e, f) in exact.iter() {
                    let err = (parts.coordinator.estimate(e) - f).abs();
                    assert!(
                        err <= cfg.epsilon * w_fed + 1e-6,
                        "p1 {name} m={m} {topo:?}: item {e} err {err} > εW_fed"
                    );
                }
                // The total too: every departing or migrating node ships
                // all the weight it withholds, counters or not.
                let w_c = parts.coordinator.total_weight();
                assert!(
                    (w_c - w_fed).abs() <= cfg.epsilon * w_fed,
                    "p1 {name} m={m} {topo:?}: W_C {w_c} vs W_fed {w_fed}"
                );

                // P2: same deterministic contract, per-element thresholds.
                let parts = run_hh!(p2, cfg.clone(), topo, inputs, &ccfg);
                for (e, f) in exact.iter() {
                    let err = (parts.coordinator.estimate(e) - f).abs();
                    assert!(
                        err <= cfg.epsilon * w_fed + 1e-6,
                        "p2 {name} m={m} {topo:?}: item {e} err {err} > εW_fed"
                    );
                }

                // P3 / P3wr: churn only pauses feeds for the sampling
                // protocols (depart is a no-op, τ is global) — so the
                // sharpest restatement is parity with a plain run over
                // exactly the fed prefixes. P3's per-item priority draw
                // consumes RNG unconditionally, so it is bit-exact in
                // every cell; P3wr's gap sampler skips by τ, so joins
                // (which shift τ timing) break RNG alignment and only
                // the leave cells stay bit-exact.
                let fed_inputs: Vec<Vec<(u64, f64)>> = inputs
                    .iter()
                    .zip(&fed)
                    .map(|(v, &k)| v[..k].to_vec())
                    .collect();
                let cfg_s = cfg.clone().with_sample_size(400);
                let parts = run_hh!(p3, cfg_s.clone(), topo, inputs, &ccfg);
                let w_hat = parts.coordinator.total_weight();
                let (sites, coord, _) = hh::p3::deploy_topology(&cfg_s, topo).into_parts();
                let plain = engine::run_partitioned_topology_parts(
                    sites,
                    coord,
                    fed_inputs.clone(),
                    &tcfg(),
                    Executor::Inline,
                    topo,
                    hh::p3::make_aggregator(&cfg_s, topo),
                );
                assert_eq!(
                    w_hat.to_bits(),
                    plain.coordinator.total_weight().to_bits(),
                    "p3 {name} m={m} {topo:?}: churn ≠ plain run over fed prefixes"
                );
                assert!(
                    (w_hat - w_fed).abs() <= 0.3 * w_fed,
                    "p3 {name} m={m} {topo:?}: Ŵ {w_hat} vs fed {w_fed}"
                );
                let parts = run_hh!(p3wr, cfg_s.clone(), topo, inputs, &ccfg);
                let w_hat = parts.coordinator.total_weight();
                if name == "leave-only" {
                    let (sites, coord, _) = hh::p3wr::deploy_topology(&cfg_s, topo).into_parts();
                    let plain = engine::run_partitioned_topology_parts(
                        sites,
                        coord,
                        fed_inputs.clone(),
                        &tcfg(),
                        Executor::Inline,
                        topo,
                        hh::p3wr::make_aggregator(&cfg_s, topo),
                    );
                    assert_eq!(
                        w_hat.to_bits(),
                        plain.coordinator.total_weight().to_bits(),
                        "p3wr {name} m={m} {topo:?}: churn ≠ plain run over fed prefixes"
                    );
                }
                // Ŵ = (1/s)·Σρ⁽²⁾ is a heavy-tailed second-order
                // statistic (the pooled suites already observe ~25%
                // deviations on fault-free runs), so the envelope here
                // is wide — the sharp pin is the parity above.
                assert!(
                    (w_hat - w_fed).abs() <= 0.5 * w_fed,
                    "p3wr {name} m={m} {topo:?}: Ŵ {w_hat} vs fed {w_fed}"
                );

                // P4: the weight tracker's deterministic 2-approximation
                // of the fed mass survives re-splits (a departing site's
                // unreported total flushes up, so nothing evaporates).
                let cfg4 = HhConfig::new(m, 0.15).with_seed(23);
                let parts = run_hh!(p4, cfg4, topo, inputs, &ccfg);
                let received = parts.coordinator.total_weight();
                assert!(
                    received <= w_fed + 1e-6,
                    "p4 {name} m={m} {topo:?}: Ŵ {received} over-counts fed {w_fed}"
                );
                assert!(
                    received >= w_fed / 2.0 - 1e-6,
                    "p4 {name} m={m} {topo:?}: Ŵ {received} < W_fed/2"
                );
            }
        }
    }
}

/// The matrix-tracking half of the churn matrix.
#[test]
fn matrix_restated_bounds_across_churn_matrix() {
    let dim = 5;
    for &m in &[16usize, 64] {
        for (name, sched) in schedules(m) {
            let rows = matrix_stream(m * PER_SLOT, dim, 2_000 + m as u64);
            let inputs = partition(&rows, m);
            let ccfg = churn_cfg(sched);
            let lens: Vec<usize> = inputs.iter().map(Vec::len).collect();
            let fed = fed_prefixes(&lens, &ccfg);
            let mask = fed_mask(rows.len(), m, &fed);
            let mut truth = StreamingGram::new(dim);
            for (i, row) in rows.iter().enumerate() {
                if mask[i] {
                    truth.update(row);
                }
            }
            let frob_fed = truth.frob_sq();

            for &topo in &[Topology::Star, Topology::Tree { fanout: 4 }] {
                // MT-P1 / MT-P2: the deterministic ε covariance contract
                // over the fed rows.
                let cfg = MatrixConfig::new(m, 0.25, dim).with_seed(31);
                let parts = run_matrix!(p1, cfg.clone(), topo, inputs, &ccfg);
                let err = truth.error_of_sketch(&parts.coordinator.sketch()).unwrap();
                assert!(
                    err <= cfg.epsilon,
                    "mt-p1 {name} m={m} {topo:?}: err {err} > ε"
                );
                let parts = run_matrix!(p2, cfg.clone(), topo, inputs, &ccfg);
                let err = truth.error_of_sketch(&parts.coordinator.sketch()).unwrap();
                assert!(
                    err <= cfg.epsilon,
                    "mt-p2 {name} m={m} {topo:?}: err {err} > ε"
                );

                // MT-P3 / MP3wr: row-sampling protocols keep the ε
                // contract with high probability; the seeded runs pin it.
                let cfg_s = cfg.clone().with_sample_size(400);
                let parts = run_matrix!(p3, cfg_s.clone(), topo, inputs, &ccfg);
                let err = truth.error_of_sketch(&parts.coordinator.sketch()).unwrap();
                assert!(
                    err <= cfg_s.epsilon,
                    "mt-p3 {name} m={m} {topo:?}: err {err} > ε"
                );
                let parts = run_matrix!(p3wr, cfg_s.clone(), topo, inputs, &ccfg);
                let err = truth.error_of_sketch(&parts.coordinator.sketch()).unwrap();
                assert!(
                    err <= 1.5 * cfg_s.epsilon,
                    "mt-p3wr {name} m={m} {topo:?}: err {err} > 1.5ε"
                );

                // MT-P4: no ε contract (Appendix C) — what must survive
                // churn is the Frobenius tracker's 2-approximation.
                let cfg4 = MatrixConfig::new(m, 0.2, dim).with_seed(33);
                let parts = run_matrix!(p4, cfg4, topo, inputs, &ccfg);
                let f_hat = parts.coordinator.frob_estimate();
                assert!(
                    f_hat <= frob_fed + 1e-6,
                    "mt-p4 {name} m={m} {topo:?}: F̂ {f_hat} over-counts fed {frob_fed}"
                );
                assert!(
                    f_hat >= frob_fed / 2.0 - 1e-6,
                    "mt-p4 {name} m={m} {topo:?}: F̂ {f_hat} < F_fed/2"
                );
            }
        }
    }
}

/// Sliding-window protocols under leave churn: a departing site's
/// bucket flush re-enters the window, and the queryable two-part bound
/// holds component-wise over the fed stamps.
#[test]
fn swmg_bound_holds_under_leave_churn() {
    let m = 16;
    let window = 1_024usize;
    let n = m * PER_SLOT;
    let stream = zipf_stream(n, 3_001);
    let stamped: Vec<(u64, (u64, f64))> = stream
        .iter()
        .enumerate()
        .map(|(t, x)| (t as u64, *x))
        .collect();
    let sched = ChurnSchedule::new()
        .at(2, ChurnEvent::Leave(3))
        .at(4, ChurnEvent::Leave(7));
    let ccfg = churn_cfg(sched);
    let inputs = partition(&stamped, m);
    let lens: Vec<usize> = inputs.iter().map(Vec::len).collect();
    let fed = fed_prefixes(&lens, &ccfg);
    let mask = fed_mask(n, m, &fed);
    let window_truth = |item: u64| -> f64 {
        stream[n - window..]
            .iter()
            .zip(&mask[n - window..])
            .filter(|(&(e, _), &fed)| fed && e == item)
            .map(|(&(_, w), _)| w)
            .sum()
    };

    let cfg = SwMgConfig::new(m, 0.1, window as u64, 32);
    for &topo in &[Topology::Star, Topology::Tree { fanout: 4 }] {
        let (sites, coord, _) = mg::deploy_topology(&cfg, topo).into_parts();
        let parts = run_churn(
            sites,
            coord,
            inputs.clone(),
            &tcfg(),
            Executor::Inline,
            topo,
            |t| mg::make_aggregator(&cfg, t),
            &ccfg,
            &ChannelTransport,
        );
        assert_eq!(parts.report.leaves, 2);
        let bound = parts.coordinator.error_bound_at(n as u64);
        for item in 0..40u64 {
            let truth = window_truth(item);
            let est = parts.coordinator.estimate_at(n as u64, item);
            assert!(
                est - truth <= bound.straddle + 1e-9,
                "{topo:?}: item {item} overcount {} > straddle {}",
                est - truth,
                bound.straddle
            );
            assert!(
                truth - est <= bound.summary_loss + bound.withheld + 1e-9,
                "{topo:?}: item {item} undercount {} > summary {} + withheld {}",
                truth - est,
                bound.summary_loss,
                bound.withheld
            );
        }
    }
}

/// What segmented execution is with every boundary concern idle: the
/// stream cut into `SEGMENT`-sized chunks per site, each chunk one
/// `resume_…_on` call over the same plan and the same live nodes, the
/// per-segment stats folded with `absorb_reshaped`. Yields
/// `(coordinator, stats)`.
macro_rules! run_bare_segments {
    ($proto:ident, $cfg:expr, $topo:expr, $inputs:expr) => {{
        let cfg = $cfg;
        let (mut sites, mut coord, _) = hh::$proto::deploy_topology(&cfg, $topo).into_parts();
        let plan = $topo.plan(sites.len());
        let mut aggs: Vec<_> = plan
            .agg_nodes()
            .map(hh::$proto::make_aggregator(&cfg, $topo))
            .collect();
        let mut stats = CommStats::new(sites.len());
        for k in 0..PER_SLOT / SEGMENT {
            let segment = $inputs
                .iter()
                .map(|v| v[k * SEGMENT..(k + 1) * SEGMENT].to_vec())
                .collect();
            let parts = engine::resume_partitioned_topology_parts_on(
                sites,
                coord,
                segment,
                &tcfg(),
                Executor::Inline,
                plan.clone(),
                aggs,
                &ChannelTransport,
            );
            sites = parts.sites;
            coord = parts.coordinator;
            aggs = parts.aggregators;
            stats.absorb_reshaped(&parts.stats);
        }
        (coord, stats)
    }};
}

/// Zero churn, zero snapshot on a static topology ≡ a bare loop of
/// engine segments (what the retired `live` driver was there), bit for
/// bit — the idle WAL wrapper and re-split machinery are invisible:
/// identical `CommStats` and identical estimates on the deterministic
/// P1 and the sampling P3 (inline executor, same segment length).
#[test]
fn zero_churn_matches_live_driver_bit_exactly() {
    let m = 16;
    let topo = Topology::Tree { fanout: 4 };
    let stream = zipf_stream(m * PER_SLOT, 4_001);
    let inputs = partition(&stream, m);
    let ccfg = churn_cfg(ChurnSchedule::new());

    // P1 (deterministic merging aggregators).
    let cfg = HhConfig::new(m, 0.1).with_seed(41);
    let (bare_coord, bare_stats) = run_bare_segments!(p1, cfg.clone(), topo, inputs);
    let churn_parts = run_hh!(p1, cfg.clone(), topo, inputs, &ccfg);
    assert_eq!(churn_parts.report.segments, PER_SLOT / SEGMENT);
    assert_eq!(churn_parts.report.resplits, 0);
    assert_eq!(churn_parts.report.joins + churn_parts.report.leaves, 0);
    assert!(churn_parts.snapshot.is_none());
    assert_eq!(
        churn_parts.stats, bare_stats,
        "p1: CommStats diverged from bare segments"
    );
    let mut items_a = bare_coord.tracked_items();
    let mut items_b = churn_parts.coordinator.tracked_items();
    items_a.sort_unstable();
    items_b.sort_unstable();
    assert_eq!(items_a, items_b, "p1: tracked sets diverged");
    for &e in &items_a {
        assert_eq!(
            bare_coord.estimate(e).to_bits(),
            churn_parts.coordinator.estimate(e).to_bits(),
            "p1: estimate diverged on item {e}"
        );
    }

    // P3 (exact relays, timing-independent priority draws).
    let cfg_s = HhConfig::new(m, 0.1).with_seed(42).with_sample_size(300);
    let (bare_coord, bare_stats) = run_bare_segments!(p3, cfg_s.clone(), topo, inputs);
    let churn_parts = run_hh!(p3, cfg_s.clone(), topo, inputs, &ccfg);
    assert_eq!(
        churn_parts.stats, bare_stats,
        "p3: CommStats diverged from bare segments"
    );
    assert_eq!(
        bare_coord.total_weight().to_bits(),
        churn_parts.coordinator.total_weight().to_bits(),
        "p3: Ŵ diverged from bare segments"
    );
}

/// Re-planning × churn, the composition a deployment actually meets: an
/// `Adaptive { max_fan_in: 4 }` deployment at m = 16 starts on the
/// structural fanout-4 tree, loses 13 sites at boundary 2 (3 left: the
/// star fits the budget) and gets 7 of them back at boundary 4 (10
/// active: the measured fan-in outgrows the star again). Every re-plan
/// goes through the same re-split as a membership change, so sites and
/// root are re-budgeted tree → flat → tree and the restated bounds hold
/// over the fed mass exactly as on a static shape.
#[test]
fn adaptive_topology_replans_under_churn_and_keeps_bounds() {
    let m = 16;
    let topo = Topology::Adaptive { max_fan_in: 4 };
    let mut sched = ChurnSchedule::new();
    for s in 3..m {
        sched = sched.at(2, ChurnEvent::Leave(s));
    }
    for s in 3..10 {
        sched = sched.at(4, ChurnEvent::Join(s));
    }
    let ccfg = churn_cfg(sched);
    let stream = zipf_stream(m * PER_SLOT, 8_001);
    let inputs = partition(&stream, m);
    let lens: Vec<usize> = inputs.iter().map(Vec::len).collect();
    let fed = fed_prefixes(&lens, &ccfg);
    let mask = fed_mask(stream.len(), m, &fed);
    let mut exact = ExactWeightedCounter::new();
    for (i, &(e, w)) in stream.iter().enumerate() {
        if mask[i] {
            exact.update(e, w);
        }
    }
    let w_fed = exact.total_weight();

    // P1 / P2: the deterministic εW_fed contract, and the shape story —
    // at least one collapse and one regrow, ending on the tree.
    let cfg = HhConfig::new(m, 0.1).with_seed(81);
    macro_rules! assert_deterministic_contract {
        ($proto:ident) => {{
            let parts = run_hh!($proto, cfg.clone(), topo, inputs, &ccfg);
            let name = stringify!($proto);
            assert_eq!((parts.report.leaves, parts.report.joins), (13, 7));
            assert_eq!(parts.stats.arrivals, fed.iter().sum::<usize>() as u64);
            assert!(
                parts.report.replans >= 2,
                "{name}: expected a collapse and a regrow, saw {} re-plan(s)",
                parts.report.replans
            );
            assert!(parts.report.resplits >= parts.report.replans);
            assert_eq!(parts.report.final_topology, Topology::Tree { fanout: 4 });
            assert_eq!(
                parts.aggregators.len(),
                Topology::Tree { fanout: 4 }.plan(m).internal_nodes()
            );
            for (e, f) in exact.iter() {
                let err = (parts.coordinator.estimate(e) - f).abs();
                assert!(
                    err <= cfg.epsilon * w_fed + 1e-6,
                    "{name} adaptive×churn: item {e} err {err} > εW_fed"
                );
            }
        }};
    }
    assert_deterministic_contract!(p1);
    assert_deterministic_contract!(p2);

    // P4's tracker re-broadcasts only once W_C reaches 1.5·Ŵ — none
    // falls after the joins here — so quiet boundaries count as settled to make the
    // regrow fire whatever the broadcast cadence.
    let cfg4 = HhConfig::new(m, 0.15).with_seed(83);
    let quiet = ChurnConfig {
        resplit_quiet_boundaries: true,
        ..ccfg.clone()
    };
    let parts = run_hh!(p4, cfg4, topo, inputs, &quiet);
    assert!(parts.report.replans >= 2, "p4: no collapse + regrow");
    assert_eq!(parts.report.final_topology, Topology::Tree { fanout: 4 });
    let received = parts.coordinator.total_weight();
    assert!(
        received <= w_fed + 1e-6,
        "p4 adaptive×churn: Ŵ {received} over-counts fed {w_fed}"
    );
    assert!(
        received >= w_fed / 2.0 - 1e-6,
        "p4 adaptive×churn: Ŵ {received} < W_fed/2"
    );
}

/// The crash/recovery schedule used by the acceptance cells: one forced
/// mid-stream leave, a snapshot one boundary later, a crash two
/// segments after that.
fn crash_cfg(leave: usize) -> ChurnConfig {
    ChurnConfig {
        segment_len: SEGMENT,
        schedule: ChurnSchedule::new().at(2, ChurnEvent::Leave(leave)),
        snapshot_at: Some(3),
        crash_at: Some(5),
        ..ChurnConfig::default()
    }
}

/// Acceptance, HH half: mid-stream leave + coordinator crash/recovery
/// at m = 64 on the fanout-4 tree. Every protocol's bound is restated
/// with the measured recovery loss folded into the undercount term.
#[test]
fn crash_recovery_restates_hh_bounds_at_m64() {
    let m = 64;
    let topo = Topology::Tree { fanout: 4 };
    let ccfg = crash_cfg(5);
    let stream = zipf_stream(m * PER_SLOT, 5_001);
    let inputs = partition(&stream, m);
    let lens: Vec<usize> = inputs.iter().map(Vec::len).collect();
    let fed = fed_prefixes(&lens, &ccfg);
    let mask = fed_mask(stream.len(), m, &fed);
    let mut exact = ExactWeightedCounter::new();
    for (i, &(e, w)) in stream.iter().enumerate() {
        if mask[i] {
            exact.update(e, w);
        }
    }
    let w_fed = exact.total_weight();

    // P1: εW_fed widened by exactly the crash-discarded interior mass
    // on the undercount side; replay means no double-counting, so the
    // overcount side does not widen at all.
    let cfg = HhConfig::new(m, 0.1).with_seed(51);
    let parts = run_hh!(p1, cfg.clone(), topo, inputs, &ccfg);
    assert!(parts.snapshot.is_some(), "snapshot must be captured");
    assert_eq!(
        parts.report.snapshot_bytes.map(|b| b as usize),
        parts.snapshot.as_ref().map(|s| s.len()),
        "reported snapshot size must be the measured wire size"
    );
    assert!(parts.report.replayed_msgs > 0, "WAL suffix must replay");
    let lost = parts.report.recovery_lost_mass;
    for (e, f) in exact.iter() {
        let est = parts.coordinator.estimate(e);
        assert!(
            est - f <= 1e-6,
            "p1 crash: item {e} overcount {} after replay",
            est - f
        );
        assert!(
            f - est <= cfg.epsilon * w_fed + lost + 1e-6,
            "p1 crash: item {e} undercount {} > εW_fed + lost {lost}",
            f - est
        );
    }

    // P2.
    let parts = run_hh!(p2, cfg.clone(), topo, inputs, &ccfg);
    let lost = parts.report.recovery_lost_mass;
    for (e, f) in exact.iter() {
        let est = parts.coordinator.estimate(e);
        assert!(est - f <= 1e-6, "p2 crash: item {e} overcount {}", est - f);
        assert!(
            f - est <= cfg.epsilon * w_fed + lost + 1e-6,
            "p2 crash: item {e} undercount {} > εW_fed + lost {lost}",
            f - est
        );
    }

    // P3 / P3wr: the Ŵ estimator's deviation widens by at most the
    // discarded in-flight sample mass.
    let cfg_s = cfg.clone().with_sample_size(400);
    let parts = run_hh!(p3, cfg_s.clone(), topo, inputs, &ccfg);
    let w_hat = parts.coordinator.total_weight();
    let lost = parts.report.recovery_lost_mass;
    assert!(
        (w_hat - w_fed).abs() <= 0.3 * w_fed + lost,
        "p3 crash: Ŵ {w_hat} vs fed {w_fed} (lost {lost})"
    );
    let parts = run_hh!(p3wr, cfg_s, topo, inputs, &ccfg);
    let w_hat = parts.coordinator.total_weight();
    let lost = parts.report.recovery_lost_mass;
    assert!(
        (w_hat - w_fed).abs() <= 0.5 * w_fed + lost,
        "p3wr crash: Ŵ {w_hat} vs fed {w_fed} (lost {lost})"
    );

    // P4: tracker keeps Ŵ ≤ W_fed (replay never double-counts) and the
    // 2-approximation degrades by no more than the discarded mass.
    let cfg4 = HhConfig::new(m, 0.15).with_seed(53);
    let parts = run_hh!(p4, cfg4, topo, inputs, &ccfg);
    let received = parts.coordinator.total_weight();
    let lost = parts.report.recovery_lost_mass;
    assert!(
        received <= w_fed + 1e-6,
        "p4 crash: Ŵ {received} over-counts fed {w_fed}"
    );
    assert!(
        received >= w_fed / 2.0 - lost - 1e-6,
        "p4 crash: Ŵ {received} < W_fed/2 − lost {lost}"
    );
}

/// Acceptance, matrix half: the same leave + crash/recovery cell for
/// the five matrix protocols, recovery loss folded Frobenius-wise.
#[test]
fn crash_recovery_restates_matrix_bounds_at_m64() {
    let m = 64;
    let dim = 5;
    let topo = Topology::Tree { fanout: 4 };
    let ccfg = crash_cfg(5);
    let rows = matrix_stream(m * PER_SLOT, dim, 6_001);
    let inputs = partition(&rows, m);
    let lens: Vec<usize> = inputs.iter().map(Vec::len).collect();
    let fed = fed_prefixes(&lens, &ccfg);
    let mask = fed_mask(rows.len(), m, &fed);
    let mut truth = StreamingGram::new(dim);
    for (i, row) in rows.iter().enumerate() {
        if mask[i] {
            truth.update(row);
        }
    }
    let frob_fed = truth.frob_sq();

    // MT-P1 / MT-P2: the covariance error is normalized by ‖A‖²_F, so
    // the crash-discarded Frobenius mass folds in as lost / ‖A‖²_F.
    let cfg = MatrixConfig::new(m, 0.25, dim).with_seed(61);
    let parts = run_matrix!(p1, cfg.clone(), topo, inputs, &ccfg);
    let lost = parts.report.recovery_lost_mass;
    let err = truth.error_of_sketch(&parts.coordinator.sketch()).unwrap();
    assert!(
        err <= cfg.epsilon + lost / frob_fed + 1e-9,
        "mt-p1 crash: err {err} > ε + lost share {}",
        lost / frob_fed
    );
    let parts = run_matrix!(p2, cfg.clone(), topo, inputs, &ccfg);
    let lost = parts.report.recovery_lost_mass;
    let err = truth.error_of_sketch(&parts.coordinator.sketch()).unwrap();
    assert!(
        err <= cfg.epsilon + lost / frob_fed + 1e-9,
        "mt-p2 crash: err {err} > ε + lost share"
    );

    // MT-P3 / MP3wr.
    let cfg_s = cfg.clone().with_sample_size(400);
    let parts = run_matrix!(p3, cfg_s.clone(), topo, inputs, &ccfg);
    let lost = parts.report.recovery_lost_mass;
    let err = truth.error_of_sketch(&parts.coordinator.sketch()).unwrap();
    assert!(
        err <= cfg_s.epsilon + lost / frob_fed + 1e-9,
        "mt-p3 crash: err {err}"
    );
    let parts = run_matrix!(p3wr, cfg_s.clone(), topo, inputs, &ccfg);
    let lost = parts.report.recovery_lost_mass;
    let err = truth.error_of_sketch(&parts.coordinator.sketch()).unwrap();
    assert!(
        err <= 1.5 * cfg_s.epsilon + lost / frob_fed + 1e-9,
        "mt-p3wr crash: err {err}"
    );

    // MT-P4: Frobenius tracker invariant, widened by the lost mass.
    let cfg4 = MatrixConfig::new(m, 0.2, dim).with_seed(63);
    let parts = run_matrix!(p4, cfg4, topo, inputs, &ccfg);
    let f_hat = parts.coordinator.frob_estimate();
    let lost = parts.report.recovery_lost_mass;
    assert!(
        f_hat <= frob_fed + 1e-6,
        "mt-p4 crash: F̂ {f_hat} over-counts fed {frob_fed}"
    );
    assert!(
        f_hat >= frob_fed / 2.0 - lost - 1e-6,
        "mt-p4 crash: F̂ {f_hat} < F_fed/2 − lost {lost}"
    );
}

/// Acceptance, window half: SwMg and SwFd through the same cell. The
/// recovery loss is folded through `SwCoordinator::charge_faults` — the
/// exact mechanism the ISSUE names for restating the bound.
#[test]
fn crash_recovery_restates_window_bounds_at_m64() {
    let m = 64;
    let topo = Topology::Tree { fanout: 4 };
    let ccfg = crash_cfg(5);
    let window = 2_048usize;
    let n = m * PER_SLOT;

    // SwMg.
    let stream = zipf_stream(n, 7_001);
    let stamped: Vec<(u64, (u64, f64))> = stream
        .iter()
        .enumerate()
        .map(|(t, x)| (t as u64, *x))
        .collect();
    let inputs = partition(&stamped, m);
    let lens: Vec<usize> = inputs.iter().map(Vec::len).collect();
    let fed = fed_prefixes(&lens, &ccfg);
    let mask = fed_mask(n, m, &fed);
    let cfg = SwMgConfig::new(m, 0.1, window as u64, 32);
    let (sites, coord, _) = mg::deploy_topology(&cfg, topo).into_parts();
    let mut parts = run_churn(
        sites,
        coord,
        inputs.clone(),
        &tcfg(),
        Executor::Inline,
        topo,
        |t| mg::make_aggregator(&cfg, t),
        &ccfg,
        &ChannelTransport,
    );
    assert!(
        parts.report.replayed_msgs > 0,
        "swmg: WAL suffix must replay"
    );
    parts
        .coordinator
        .charge_faults(parts.report.recovery_lost_mass, 0.0);
    let bound = parts.coordinator.error_bound_at(n as u64);
    for item in 0..40u64 {
        let truth: f64 = stream[n - window..]
            .iter()
            .zip(&mask[n - window..])
            .filter(|(&(e, _), &fed)| fed && e == item)
            .map(|(&(_, w), _)| w)
            .sum();
        let est = parts.coordinator.estimate_at(n as u64, item);
        assert!(
            est - truth <= bound.straddle + 1e-9,
            "swmg crash: item {item} overcount {} > straddle {}",
            est - truth,
            bound.straddle
        );
        assert!(
            truth - est <= bound.summary_loss + bound.withheld + 1e-9,
            "swmg crash: item {item} undercount {} > summary {} + withheld {}",
            truth - est,
            bound.summary_loss,
            bound.withheld
        );
    }

    // SwFd.
    let dim = 6;
    let rows: Vec<Vec<f64>> = {
        let mut rng = StdRng::seed_from_u64(7_002);
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| random::standard_normal(&mut rng))
                    .collect()
            })
            .collect()
    };
    let stamped: Vec<(u64, Vec<f64>)> = rows
        .iter()
        .enumerate()
        .map(|(t, r)| (t as u64, r.clone()))
        .collect();
    let inputs = partition(&stamped, m);
    let lens: Vec<usize> = inputs.iter().map(Vec::len).collect();
    let fed = fed_prefixes(&lens, &ccfg);
    let mask = fed_mask(n, m, &fed);
    let cfg = SwFdConfig::new(m, 0.15, window as u64, dim, 24);
    let (sites, coord, _) = fd::deploy_topology(&cfg, topo).into_parts();
    let mut parts = run_churn(
        sites,
        coord,
        inputs.clone(),
        &tcfg(),
        Executor::Inline,
        topo,
        |t| fd::make_aggregator(&cfg, t),
        &ccfg,
        &ChannelTransport,
    );
    parts
        .coordinator
        .charge_faults(parts.report.recovery_lost_mass, 0.0);
    let mut in_window = Matrix::with_cols(dim);
    for (i, row) in rows[n - window..].iter().enumerate() {
        if mask[n - window + i] {
            in_window.push_row(row);
        }
    }
    let sketch = parts.coordinator.sketch_at(n as u64);
    let bound = parts.coordinator.error_bound_at(n as u64);
    let mut rng = StdRng::seed_from_u64(7_003);
    for _ in 0..15 {
        let x = random::unit_vector(&mut rng, dim);
        let ax = in_window.apply_norm_sq(&x);
        let bx = sketch.apply_norm_sq(&x);
        assert!(
            bx - ax <= bound.straddle + 1e-9,
            "swfd crash: overcount {} > straddle {}",
            bx - ax,
            bound.straddle
        );
        assert!(
            ax - bx <= bound.summary_loss + bound.withheld + 1e-9,
            "swfd crash: undercount {} > summary {} + withheld {}",
            ax - bx,
            bound.summary_loss,
            bound.withheld
        );
    }
}
