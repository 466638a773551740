//! Golden communication counts — the paper's result *is* a message
//! count, so this suite pins it: every protocol × {star, tree4, tree8}
//! × batch {64, 1024} at m = 64 through `deploy_topology` +
//! `Runner::run_partitioned`, compared **exactly** against [`GOLDEN`].
//! Seeded sequential runs are machine-independent, so any difference is
//! a protocol, accounting or codec change — never noise.
//!
//! Two gates, deliberately separate:
//!
//! 1. [`counts_match_the_golden_table`] — exact equality. A change that
//!    legitimately moves a count fails here and prints the whole fresh
//!    table in source form; paste it over [`GOLDEN`] and say why in the
//!    PR.
//! 2. [`counts_stay_under_the_paper_form_ceilings`] — the *measured*
//!    counts (not the table) against `c_p · (m/ε)·log₂(βN)`, the
//!    paper's communication form with the constant written next to each
//!    protocol in [`ceilings`]. Refreshing the table cannot move this
//!    gate; only editing a `c_p` can, and that is a visible claim.
//!
//! Workloads, configs and seeds are those of the pre-benchmark
//! recording grid this table replaced (PR 16: its 60 sequential cells
//! are the first 60 rows, number for number); the 12 with-replacement
//! sampler rows at the end were never recorded before.

use cma::data::{SyntheticMatrixStream, WeightedZipfStream};
use cma::protocols::hh::{self, HhConfig};
use cma::protocols::matrix::{self, MatrixConfig};
use cma::protocols::window::{fd, mg, SwFdConfig, SwMgConfig};
use cma::stream::partition::RoundRobin;
use cma::stream::{Aggregator, Coordinator, MessageCost, Runner, Site, Topology, WireSized};
use std::sync::OnceLock;

const SITES: usize = 64;
/// Weight / squared-row-norm bound of both generators.
const BETA: f64 = 1_000.0;
const HH_N: usize = 120_000;
const HH_EPS: f64 = 0.05;
const MT_N: usize = 6_000;
const MT_EPS: f64 = 0.1;
const MT_DIM: usize = 44;
const SWMG_WINDOW: u64 = 8_192;
const SWFD_WINDOW: u64 = 2_048;

const BATCHES: [usize; 2] = [64, 1024];
const TOPOLOGIES: [(&str, Topology); 3] = [
    ("star", Topology::Star),
    ("tree4", Topology::Tree { fanout: 4 }),
    ("tree8", Topology::Tree { fanout: 8 }),
];

/// `[msgs_total, up_msgs, root_in_msgs, bytes_up, broadcast_deliveries]`.
type Counts = [u64; 5];
/// `(protocol, topology, batch, counts)`.
type Cell = (&'static str, &'static str, usize, Counts);

#[rustfmt::skip]
const GOLDEN: &[Cell] = &[
    ("HH-P1", "star", 64, [70164, 10702, 10702, 951840, 21376]),
    ("HH-P1", "tree4", 64, [166624, 17913, 3362, 2729584, 27468]),
    ("HH-P1", "tree8", 64, [115816, 17938, 3465, 1816496, 23688]),
    ("HH-P1", "star", 1024, [70099, 10699, 10699, 951776, 21312]),
    ("HH-P1", "tree4", 1024, [166792, 17927, 3348, 2730720, 27552]),
    ("HH-P1", "tree8", 1024, [115834, 17952, 3460, 1816928, 23688]),
    ("HH-P2", "star", 64, [17918, 11582, 11582, 146206, 6336]),
    ("HH-P2", "tree4", 64, [53466, 14438, 14432, 548790, 10164]),
    ("HH-P2", "tree8", 64, [33224, 12724, 12724, 321960, 7776]),
    ("HH-P2", "star", 1024, [17820, 11548, 11548, 145844, 6272]),
    ("HH-P2", "tree4", 1024, [53437, 14427, 14423, 548489, 10164]),
    ("HH-P2", "tree8", 1024, [33085, 12694, 12687, 320917, 7704]),
    ("HH-P3", "star", 64, [9814, 8854, 8854, 212496, 960]),
    ("HH-P3", "tree4", 64, [27822, 8854, 8854, 637488, 1260]),
    ("HH-P3", "tree8", 64, [18788, 8854, 8854, 424992, 1080]),
    ("HH-P3", "star", 1024, [9800, 8840, 8840, 212160, 960]),
    ("HH-P3", "tree4", 1024, [27780, 8840, 8840, 636480, 1260]),
    ("HH-P3", "tree8", 1024, [18760, 8840, 8840, 424320, 1080]),
    ("HH-P4", "star", 64, [5341, 3613, 3613, 52877, 1728]),
    ("HH-P4", "tree4", 64, [14235, 3989, 3989, 170703, 2268]),
    ("HH-P4", "tree8", 64, [9738, 3897, 3897, 113698, 1944]),
    ("HH-P4", "star", 1024, [5347, 3619, 3619, 52851, 1728]),
    ("HH-P4", "tree4", 1024, [13848, 3888, 3888, 166032, 2184]),
    ("HH-P4", "tree8", 1024, [9504, 3816, 3816, 110864, 1872]),
    ("MT-P1", "star", 64, [10410, 652, 652, 1850976, 4544]),
    ("MT-P1", "tree4", 64, [23081, 892, 341, 5380616, 6048]),
    ("MT-P1", "tree8", 64, [16358, 894, 350, 3525216, 5184]),
    ("MT-P1", "star", 1024, [9971, 639, 639, 1858408, 4096]),
    ("MT-P1", "tree4", 1024, [22245, 870, 312, 5375416, 5292]),
    ("MT-P1", "tree8", 1024, [15515, 868, 313, 3477240, 4536]),
    ("MT-P2", "star", 64, [1622, 1110, 1110, 203238, 512]),
    ("MT-P2", "tree4", 64, [4382, 1247, 1183, 640538, 756]),
    ("MT-P2", "tree8", 64, [2942, 1164, 1130, 409254, 648]),
    ("MT-P2", "star", 1024, [1593, 1081, 1081, 196641, 512]),
    ("MT-P2", "tree4", 1024, [4278, 1208, 1148, 625170, 756]),
    ("MT-P2", "tree8", 1024, [2889, 1137, 1104, 401385, 648]),
    ("MT-P3wor", "star", 64, [1321, 873, 873, 321264, 448]),
    ("MT-P3wor", "tree4", 64, [3207, 873, 873, 963792, 588]),
    ("MT-P3wor", "tree8", 64, [2250, 873, 873, 642528, 504]),
    ("MT-P3wor", "star", 1024, [1330, 882, 882, 324576, 448]),
    ("MT-P3wor", "tree4", 1024, [3234, 882, 882, 973728, 588]),
    ("MT-P3wor", "tree8", 1024, [2268, 882, 882, 649152, 504]),
    ("MT-P4", "star", 64, [1468, 508, 508, 114748, 960]),
    ("MT-P4", "tree4", 64, [2976, 544, 544, 340992, 1344]),
    ("MT-P4", "tree8", 64, [2118, 519, 519, 229694, 1080]),
    ("MT-P4", "star", 1024, [1424, 464, 464, 104496, 960]),
    ("MT-P4", "tree4", 1024, [2763, 501, 501, 310263, 1260]),
    ("MT-P4", "tree8", 1024, [2040, 480, 480, 207168, 1080]),
    ("SwMg", "star", 64, [237170, 16598, 16598, 7945488, 2432]),
    ("SwMg", "tree4", 64, [648238, 29218, 4290, 21531456, 3192]),
    ("SwMg", "tree8", 64, [425579, 29283, 4657, 14025624, 2880]),
    ("SwMg", "star", 1024, [241900, 17730, 17730, 8096696, 2944]),
    ("SwMg", "tree4", 1024, [664101, 31431, 4557, 22016936, 4200]),
    ("SwMg", "tree8", 1024, [435059, 31556, 4996, 14298584, 3600]),
    ("SwFd", "star", 64, [10151, 560, 560, 2069712, 1600]),
    ("SwFd", "tree4", 64, [28129, 780, 268, 6435344, 2100]),
    ("SwFd", "tree8", 64, [18540, 773, 276, 4237336, 1440]),
    ("SwFd", "star", 1024, [10742, 582, 582, 2137960, 1856]),
    ("SwFd", "tree4", 1024, [28780, 823, 270, 6505008, 2268]),
    ("SwFd", "tree8", 1024, [19643, 824, 281, 4333744, 2016]),
    ("HH-P3wr", "star", 64, [172375, 171031, 171031, 5472992, 1344]),
    ("HH-P3wr", "tree4", 64, [411865, 171031, 85374, 13123232, 1764]),
    ("HH-P3wr", "tree8", 64, [298197, 171031, 125654, 9493920, 1512]),
    ("HH-P3wr", "star", 1024, [174519, 173111, 173111, 5539552, 1408]),
    ("HH-P3wr", "tree4", 1024, [369987, 173111, 69945, 11780448, 1848]),
    ("HH-P3wr", "tree8", 1024, [273860, 173111, 99165, 8712832, 1584]),
    ("MT-P3wr", "star", 64, [13182, 12350, 12350, 4643600, 832]),
    ("MT-P3wr", "tree4", 64, [34083, 12350, 8848, 12404616, 1092]),
    ("MT-P3wr", "tree8", 64, [24114, 12350, 10828, 8714928, 936]),
    ("MT-P3wr", "star", 1024, [11655, 10823, 10823, 4069448, 832]),
    ("MT-P3wr", "tree4", 1024, [26880, 10420, 6662, 9696288, 1092]),
    ("MT-P3wr", "tree8", 1024, [19327, 10420, 7971, 6915016, 936]),
];

/// `(m/ε)·log₂(βn)` — the paper's form with constant 1, the same unit
/// as `repro`'s `msgs_per_unit` column.
fn unit(eps: f64, n: f64) -> f64 {
    cma_bench::paper_unit(SITES, eps, BETA, n)
}

/// `(protocol, the paper's bound, unit, row dimension, c_p)`: every
/// cell of the protocol must satisfy `msgs_total ≤ c_p · unit` and,
/// where messages are rows, `bytes_up ≤ c_p · 8d · unit` — the `d`
/// factor of the matrix bound. `c_p` is the recorded worst ratio over
/// the three topologies, rounded up to one decimal.
type Ceiling = (&'static str, &'static str, f64, Option<usize>, f64);

#[rustfmt::skip]
fn ceilings() -> [Ceiling; 12] {
    let hh = unit(HH_EPS, HH_N as f64);
    let mt = unit(MT_EPS, MT_N as f64);
    // The paper leaves the sliding-window model open; the form used
    // here restarts the infinite-window bound once per window span:
    // (N/W) · (m/ε)·log₂(βW).
    let swmg = HH_N as f64 / SWMG_WINDOW as f64 * unit(HH_EPS, SWMG_WINDOW as f64);
    let swfd = MT_N as f64 / SWFD_WINDOW as f64 * unit(MT_EPS, SWFD_WINDOW as f64);
    let d = Some(MT_DIM);
    [
        ("HH-P1",    "O((m/ε²) log βN) elements",                      hh,   None, 4.9),
        ("HH-P2",    "O((m/ε) log βN)",                                hh,   None, 1.6),
        ("HH-P3",    "O((m + s) log(βN/s)), s = Θ((1/ε²) log(1/ε))",   hh,   None, 0.9),
        ("HH-P3wr",  "O((m + s log s) log βN)",                        hh,   None, 12.0),
        ("HH-P4",    "O((√m/ε) log βN)",                               hh,   None, 0.5),
        ("MT-P1",    "O((m/ε²) log βN) rows",                          mt,   d,    1.7),
        ("MT-P2",    "O((m/ε) log βN) rows",                           mt,   d,    0.4),
        ("MT-P3wor", "O((m + s) log(βN/s)) rows",                      mt,   d,    0.3),
        ("MT-P3wr",  "O((m + s log s) log βN) rows",                   mt,   d,    2.5),
        ("MT-P4",    "O((√m/ε) log βN) rows; no guarantee (App. C)",   mt,   d,    0.3),
        ("SwMg",     "none (open problem); per-window form",           swmg, None, 1.6),
        ("SwFd",     "none (open problem); per-window form, rows",     swfd, d,    0.8),
    ]
}

fn counts_of<S, C, A>(mut runner: Runner<S, C, A>, stream: &[S::Input], batch: usize) -> Counts
where
    S: Site,
    S::Input: Clone,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    S::UpMsg: MessageCost + Clone,
    S::Broadcast: WireSized,
    A: Aggregator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
{
    runner.run_partitioned(stream.iter().cloned(), &mut RoundRobin::new(SITES), batch);
    let s = runner.stats();
    [
        s.total(),
        s.up_msgs,
        *s.node_in_msgs.last().expect("root receive counter"),
        s.bytes_up,
        s.broadcast_deliveries,
    ]
}

fn stamp<T: Clone>(stream: &[T]) -> Vec<(u64, T)> {
    (0u64..).zip(stream.iter().cloned()).collect()
}

/// Runs every cell once (shared by both tests).
fn measured() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let hh_cfg = HhConfig::new(SITES, HH_EPS).with_seed(1);
        let mt_cfg = MatrixConfig::new(SITES, MT_EPS, MT_DIM).with_seed(2);
        let swmg_cfg = SwMgConfig::new(SITES, HH_EPS, SWMG_WINDOW, 64);
        let swfd_cfg = SwFdConfig::new(SITES, MT_EPS, SWFD_WINDOW, MT_DIM, 40);

        let hh_stream = WeightedZipfStream::new(10_000, 2.0, BETA, 3).take_vec(HH_N);
        let mt_rows: Vec<Vec<f64>> = {
            let mut s = SyntheticMatrixStream::pamap_like(5);
            (0..MT_N).map(|_| s.next_row()).collect()
        };
        let (hh_stamped, mt_stamped) = (stamp(&hh_stream), stamp(&mt_rows));

        let mut cells = Vec::new();
        macro_rules! grid {
            ($name:literal, $deploy:path, $cfg:expr, $stream:expr) => {
                for batch in BATCHES {
                    for (tname, topo) in TOPOLOGIES {
                        let counts = counts_of($deploy($cfg, topo), $stream, batch);
                        cells.push(($name, tname, batch, counts));
                    }
                }
            };
        }
        grid!("HH-P1", hh::p1::deploy_topology, &hh_cfg, &hh_stream);
        grid!("HH-P2", hh::p2::deploy_topology, &hh_cfg, &hh_stream);
        grid!("HH-P3", hh::p3::deploy_topology, &hh_cfg, &hh_stream);
        grid!("HH-P4", hh::p4::deploy_topology, &hh_cfg, &hh_stream);
        grid!("MT-P1", matrix::p1::deploy_topology, &mt_cfg, &mt_rows);
        grid!("MT-P2", matrix::p2::deploy_topology, &mt_cfg, &mt_rows);
        grid!("MT-P3wor", matrix::p3::deploy_topology, &mt_cfg, &mt_rows);
        grid!("MT-P4", matrix::p4::deploy_topology, &mt_cfg, &mt_rows);
        grid!("SwMg", mg::deploy_topology, &swmg_cfg, &hh_stamped);
        grid!("SwFd", fd::deploy_topology, &swfd_cfg, &mt_stamped);
        grid!("HH-P3wr", hh::p3wr::deploy_topology, &hh_cfg, &hh_stream);
        grid!("MT-P3wr", matrix::p3wr::deploy_topology, &mt_cfg, &mt_rows);
        cells
    })
}

/// The measured table as the source text of [`GOLDEN`]'s body.
fn source_form(cells: &[Cell]) -> String {
    cells
        .iter()
        .map(|(p, t, b, c)| format!("    ({p:?}, {t:?}, {b}, {c:?}),\n"))
        .collect()
}

#[test]
fn counts_match_the_golden_table() {
    let fresh = measured();
    if fresh == GOLDEN {
        return;
    }
    let moved: Vec<String> = fresh
        .iter()
        .zip(GOLDEN)
        .filter(|(f, g)| f != g)
        .map(|(f, g)| {
            format!(
                "  {} {} batch {}: table {:?}, measured {:?}",
                f.0, f.1, f.2, g.3, f.3
            )
        })
        .collect();
    panic!(
        "communication counts moved in {} of {} cells (table has {}):\n{}\n\
         fresh table, in source form:\n{}",
        moved.len(),
        fresh.len(),
        GOLDEN.len(),
        moved.join("\n"),
        source_form(fresh),
    );
}

#[test]
fn counts_stay_under_the_paper_form_ceilings() {
    let fresh = measured();
    let ceilings = ceilings();
    for (proto, paper, unit, row_dim, c) in ceilings {
        let cells: Vec<&Cell> = fresh.iter().filter(|cell| cell.0 == proto).collect();
        assert_eq!(cells.len(), 6, "{proto}: expected 3 topologies × 2 batches");
        for &(_, topo, batch, [msgs_total, _, _, bytes_up, _]) in cells {
            let ratio = msgs_total as f64 / unit;
            assert!(
                ratio <= c,
                "{proto} {topo} batch {batch}: msgs_total {msgs_total} is {ratio:.3} × the \
                 unit, ceiling {c} (paper: {paper})"
            );
            if let Some(d) = row_dim {
                let ratio = bytes_up as f64 / (8.0 * d as f64 * unit);
                assert!(
                    ratio <= c,
                    "{proto} {topo} batch {batch}: bytes_up {bytes_up} is {ratio:.3} × 8d × \
                     the unit, ceiling {c} (paper: {paper})"
                );
            }
        }
    }
    assert_eq!(
        fresh.len(),
        6 * ceilings.len(),
        "a measured protocol has no ceiling"
    );
}
