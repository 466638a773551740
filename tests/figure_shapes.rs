//! The qualitative shapes of the paper's Table 1 and Figures 1–7,
//! asserted on the rows `repro` prints. One grid run at 1 % of the
//! paper's stream lengths serves every figure; Table 1's message bracket
//! runs its own rows at 30 %, since P1's `O((m/ε²) log βN)` messages pass
//! the stream length `n` itself on shorter streams.

use cma_bench::{
    run, Options, Row, EPSILONS, FIG1_EPSILONS, HEADER, PAPER_EPSILON, PAPER_SITES, SITES,
};
use std::sync::OnceLock;

/// The β of the Zipf ε sweep and of both matrix surrogates.
const BETA: f64 = 1_000.0;

fn rows_at(only: Option<&'static str>, scale: f64) -> Vec<Row> {
    let opts = Options {
        only,
        scale,
        ..Options::default()
    };
    let mut rows = Vec::new();
    run(&opts, |r| rows.push(r));
    rows
}

/// Every row of the grid at 1 % scale, run once for all tests.
fn grid() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| rows_at(None, 0.01))
}

/// The end-of-stream row of one configuration.
fn at(dataset: &str, protocol: &str, m: usize, epsilon: f64) -> &'static Row {
    grid()
        .iter()
        .find(|r| {
            (r.dataset.as_str(), r.protocol, r.m, r.epsilon, r.beta)
                == (dataset, protocol, Some(m), Some(epsilon), BETA)
                && r.rows_seen == r.n
        })
        .unwrap_or_else(|| panic!("no row {dataset} {protocol} m={m} ε={epsilon}"))
}

/// Figure 1(c,d): for the deterministic protocols, shrinking ε reduces
/// error and raises communication — monotone trade-off.
#[test]
fn fig1_epsilon_tradeoff_monotone() {
    for protocol in ["P1", "P2"] {
        let sweep: Vec<&Row> = FIG1_EPSILONS
            .iter()
            .map(|&eps| at("zipf", protocol, PAPER_SITES, eps))
            .collect();
        for pair in sweep.windows(2) {
            assert!(
                pair[1].msgs < pair[0].msgs,
                "{protocol}: messages must fall as ε grows: {} then {}",
                pair[0].msgs,
                pair[1].msgs
            );
        }
        let (first, last) = (sweep[0], sweep[sweep.len() - 1]);
        assert!(
            first.err < last.err,
            "{protocol}: error should grow from ε = {:?} ({}) to ε = {:?} ({})",
            first.epsilon,
            first.err,
            last.epsilon,
            last.err
        );
    }
}

/// Figure 1(d) ordering at moderate ε: msgs(P4) < msgs(P2) < msgs(P1)
/// (P4's √m advantage, P1's 1/ε² burden).
#[test]
fn fig1_message_ordering() {
    let msgs = |p| at("zipf", p, PAPER_SITES, 0.01).msgs;
    let (m1, m2, m4) = (msgs("P1"), msgs("P2"), msgs("P4"));
    assert!(
        m4 < m2 && m2 < m1,
        "ordering violated: P1={m1} P2={m2} P4={m4}"
    );
}

/// Figures 2(a)/3(a): matrix error grows with ε for each protocol, and
/// the deterministic protocols keep `err ≤ ε` all along the sweep.
#[test]
fn fig2_matrix_error_grows_with_epsilon() {
    for dataset in ["pamap_like", "msd_like"] {
        for protocol in ["P1", "P2", "P3wor"] {
            let errs: Vec<f64> = EPSILONS
                .iter()
                .map(|&eps| at(dataset, protocol, PAPER_SITES, eps).err)
                .collect();
            assert!(
                errs[0] < errs[errs.len() - 1],
                "{dataset} {protocol}: error should grow with ε: {errs:?}"
            );
            if protocol != "P3wor" {
                for (eps, err) in EPSILONS.iter().zip(&errs) {
                    assert!(err <= eps, "{dataset} {protocol}: err {err} > ε {eps}");
                }
            }
        }
    }
}

/// Figures 2(b)/3(b) crossover: P3wor needs more messages than P2 at
/// smaller ε (1/ε² vs 1/ε) and fewer at large ε. Below ε = 0.05 the
/// sampler holds the whole 1 %-scale stream, which caps its count.
#[test]
fn fig2_p2_p3_crossover() {
    let msgs = |p, eps| at("pamap_like", p, PAPER_SITES, eps).msgs;
    let (p2_small, p3_small) = (msgs("P2", 0.05), msgs("P3wor", 0.05));
    assert!(
        p3_small > p2_small,
        "ε = 0.05: P3wor ({p3_small}) should exceed P2 ({p2_small})"
    );
    let (p2_large, p3_large) = (msgs("P2", 0.25), msgs("P3wor", 0.25));
    assert!(
        p3_large < p2_large,
        "ε = 0.25: P3wor ({p3_large}) should undercut P2 ({p2_large})"
    );
}

/// Figures 2(c)/3(c): P2's messages grow with the number of sites; the
/// error stays within contract regardless (Figures 2(d)/3(d)).
#[test]
fn fig2_sites_scale_messages_not_error() {
    for dataset in ["pamap_like", "msd_like"] {
        let p2: Vec<u64> = SITES
            .iter()
            .map(|&m| at(dataset, "P2", m, PAPER_EPSILON).msgs)
            .collect();
        assert!(
            p2.windows(2).all(|w| w[0] < w[1]),
            "{dataset}: P2 messages vs m: {p2:?}"
        );
        for protocol in ["P1", "P2", "P3wor"] {
            for m in SITES {
                let err = at(dataset, protocol, m, PAPER_EPSILON).err;
                assert!(
                    err <= PAPER_EPSILON,
                    "{dataset} {protocol} m={m}: err {err} > ε"
                );
            }
        }
    }
}

/// Figures 6–7: P4's matrix error dwarfs P2's at equal ε on rotated
/// data, at every ε and every site count of the sweep.
#[test]
fn fig67_p4_always_worse() {
    let configs = EPSILONS
        .iter()
        .map(|&eps| (PAPER_SITES, eps))
        .chain(SITES.iter().map(|&m| (m, PAPER_EPSILON)));
    for (m, eps) in configs {
        let e2 = at("pamap_like", "P2", m, eps).err;
        let e4 = at("pamap_like", "P4", m, eps).err;
        assert!(
            e4 > 2.0 * e2,
            "m={m} ε={eps}: P4 ({e4}) not clearly worse than P2 ({e2})"
        );
    }
}

/// Table 1: the exact rank-k SVD is the floor, centralized FD sits
/// between it and every protocol, and shipping the stream (`msgs = n`)
/// costs more than any protocol.
#[test]
fn table1_baselines_bracket_protocols() {
    let rows = rows_at(Some("table1"), 0.3);
    for dataset in ["pamap_like", "msd_like"] {
        let of = |p: &str| {
            rows.iter()
                .find(|r| r.dataset == dataset && r.protocol == p)
                .unwrap_or_else(|| panic!("{dataset}: no {p} row"))
        };
        let (svd, fd) = (of("SVD"), of("FD"));
        assert!(
            svd.err <= fd.err,
            "{dataset}: SVD {} > FD {}",
            svd.err,
            fd.err
        );
        assert_eq!((svd.msgs, fd.msgs), (svd.n as u64, fd.n as u64));
        for protocol in ["P1", "P2", "P3wor", "P3wr"] {
            let r = of(protocol);
            assert!(
                fd.err <= r.err,
                "{dataset}: FD {} above {protocol} {}",
                fd.err,
                r.err
            );
            assert!(
                r.msgs < fd.msgs,
                "{dataset}: {protocol} sends {} ≥ n = {}",
                r.msgs,
                fd.msgs
            );
        }
    }
}

/// §6's methodology claim — errors and costs are stable in query time,
/// so end-of-stream queries represent the run: the guaranteed protocols
/// keep `err ≤ ε` at every tenth of the stream, and messages only grow.
#[test]
fn stability_holds_at_every_tenth() {
    for dataset in ["pamap_like", "msd_like"] {
        for protocol in ["P1", "P2", "P3wor"] {
            let trace: Vec<&Row> = grid()
                .iter()
                .filter(|r| {
                    (r.dataset.as_str(), r.protocol, r.m, r.epsilon)
                        == (dataset, protocol, Some(PAPER_SITES), Some(PAPER_EPSILON))
                })
                .collect();
            let seen: Vec<usize> = trace.iter().map(|r| r.rows_seen).collect();
            assert_eq!(seen.len(), 10, "{dataset} {protocol}: checkpoints {seen:?}");
            assert_eq!(seen.last(), Some(&trace[0].n));
            for r in &trace {
                assert!(
                    r.err <= PAPER_EPSILON,
                    "{dataset} {protocol}: err {} > ε at {} rows",
                    r.err,
                    r.rows_seen
                );
            }
            assert!(
                trace.windows(2).all(|w| w[0].msgs <= w[1].msgs),
                "{dataset} {protocol}: messages fell"
            );
        }
    }
}

/// The grid runs each configuration once: 108 Zipf and 2 × 45 matrix
/// protocol configurations, plus two baselines per matrix source.
#[test]
fn grid_runs_each_configuration_once() {
    let ends: Vec<&Row> = grid().iter().filter(|r| r.rows_seen == r.n).collect();
    let count = |dataset: &str| ends.iter().filter(|r| r.dataset == dataset).count();
    assert_eq!(
        [count("zipf"), count("pamap_like"), count("msd_like")],
        [108, 47, 47]
    );
    let keys: Vec<_> = ends
        .iter()
        .map(|r| (&r.dataset, r.protocol, r.m, r.epsilon, r.beta))
        .collect();
    assert!(
        keys.iter().enumerate().all(|(i, k)| !keys[..i].contains(k)),
        "a configuration ran twice"
    );
}

/// The same seed prints byte-identical CSV.
#[test]
fn same_seed_prints_byte_identical_csv() {
    let csv = |rows: &[Row]| rows.iter().map(|r| format!("{r}\n")).collect::<String>();
    let first = csv(grid());
    assert_eq!(first, csv(&rows_at(None, 0.01)));
    let columns = HEADER.split(',').count();
    assert!(first.lines().all(|l| l.split(',').count() == columns));
}
