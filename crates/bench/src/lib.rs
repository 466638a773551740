//! The paper's evaluation (§6: Table 1, Figures 1–4; Appendix C:
//! Figures 6–7) as one grid of configurations, each run once, written as
//! one CSV row per configuration by the `repro` binary:
//!
//! ```text
//! cargo run --release -p cma-bench --bin repro -- [--only <artefact>] [--scale s] [--seed n] [--data file]
//! ```
//!
//! | `--only` | paper artefact | rows |
//! |---|---|---|
//! | `fig1` | Figure 1(a–f): weighted heavy hitters | `zipf`, P1–P4 at m = 50: ε ∈ [`FIG1_EPSILONS`] at β = 1000; panel (f) is β ∈ [`BETAS`] × ε ∈ [`TUNE_EPSILONS`], read per (β, protocol) at the `err` nearest 0.1 |
//! | `fig23` | Figures 2–3: err and msgs vs ε and vs m | `pamap_like` (Figure 2) and `msd_like` (Figure 3), P1, P2, P3wor: ε ∈ [`EPSILONS`] at m = 50, m ∈ [`SITES`] at ε = 0.1 |
//! | `fig4` | Figure 4: the msgs-vs-err frontier | the `(err, msgs)` view of the same ε sweep |
//! | `fig67` | Figures 6–7: the P4 negative result | the `fig23` rows plus P4 at every ε and m |
//! | `table1` | Table 1 | P1, P2, P3wor, P3wr at ε = 0.1, m = 50, then the ship-everything FD and SVD baselines (rank k = 30 / 50) |
//! | `stability` | §6: errors and costs are stable in query time | P1, P2, P3wor at ε = 0.1, m = 50, one row per tenth of the stream |
//!
//! Without `--only` every row is printed. `--scale` (default 0.1, at
//! most 1) is the fraction of the paper's stream lengths that runs —
//! N = 10⁷ Zipf items, 629 250 `pamap_like` and 300 000 `msd_like` rows —
//! and `--seed` (default 7) seeds every generator and protocol, so equal
//! flags print byte-identical CSV. `--data <file>` replaces both matrix
//! surrogates with a numeric file (`,`-separated if its first line has a
//! comma, else whitespace-separated; rows with missing values dropped, as
//! the paper did), whose stem names the `dataset` column and whose rows
//! `--scale` then scales.
//!
//! Performance is measured by the repo benchmark in `benchmark/`; the
//! per-protocol communication counts are pinned by the golden table in
//! `tests/comm_counts.rs`. Criterion micro-benchmarks live in `benches/`.

use cma_core::hh::{self, metrics, HhEstimator};
use cma_core::matrix::{self, MatrixEstimator};
use cma_core::{HhConfig, MatrixConfig};
use cma_data::loader::{load_csv_reader, CsvOptions, LoadError};
use cma_data::{StreamingGram, SyntheticMatrixStream, WeightedZipfStream};
use cma_linalg::Matrix;
use cma_sketch::{ExactWeightedCounter, FrequentDirections};
use cma_stream::partition::RoundRobin;
use cma_stream::{Coordinator, MessageCost, Runner, Site, WireSized};
use std::fmt;
use std::path::Path;

/// The CSV header; every [`Row`] prints these columns in this order.
pub const HEADER: &str = "dataset,protocol,n,m,epsilon,beta,seed,rows_seen,err,recall,precision,msgs,bytes,msgs_per_unit";

/// Figure 1(a–e)'s ε sweep.
pub const FIG1_EPSILONS: [f64; 5] = [5e-4, 1e-3, 5e-3, 1e-2, 5e-2];

/// Figure 1(f)'s Zipf weight bounds.
pub const BETAS: [f64; 5] = [1.0, 10.0, 100.0, 1_000.0, 10_000.0];

/// The ε values Figure 1(f) picks its err ≈ 0.1 point from.
pub const TUNE_EPSILONS: [f64; 5] = [5e-3, 1e-2, 5e-2, 1e-1, 2e-1];

/// The matrix ε sweep: Figure 4's grid, which covers Figures 2–3 and 6–7.
pub const EPSILONS: [f64; 7] = [5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1];

/// The site sweep of Figures 2–3(c,d) and 6–7(b).
pub const SITES: [usize; 5] = [10, 25, 50, 75, 100];

/// The paper's default number of sites.
pub const PAPER_SITES: usize = 50;

/// The paper's default matrix accuracy.
pub const PAPER_EPSILON: f64 = 0.1;

/// The paper's heavy-hitter threshold `φ`.
const PHI: f64 = 0.05;

/// Arrivals per epoch of the batch-first runner. Batched delivery is
/// execution-equivalent to per-item delivery in the same order; 256
/// amortises dispatch while keeping epochs small against every stream.
const BATCH: usize = 256;

/// One family of the grid: every protocol × ε × m × β it lists, feeding
/// the artefacts `only` names. A matrix family runs at its source's β.
struct Family {
    only: &'static [&'static str],
    protocols: &'static [&'static str],
    epsilons: &'static [f64],
    sites: &'static [usize],
    betas: &'static [f64],
}

const MT: &[&str] = &["P1", "P2", "P3wor"];
const M50: &[usize] = &[PAPER_SITES];
const EPS01: &[f64] = &[PAPER_EPSILON];

/// Figure 1 on the Zipf stream, the heavy-hitter protocols P1–P4.
#[rustfmt::skip]
const HH_GRID: &[Family] = &[
    Family { only: &["fig1"], protocols: &["P1", "P2", "P3", "P4"], epsilons: &FIG1_EPSILONS, sites: M50, betas: &[1_000.0] },
    Family { only: &["fig1"], protocols: &["P1", "P2", "P3", "P4"], epsilons: &TUNE_EPSILONS, sites: M50, betas: &BETAS },
];

/// Table 1 and Figures 2–4 and 6–7 on each matrix source.
#[rustfmt::skip]
const MATRIX_GRID: &[Family] = &[
    Family { only: &["fig23", "fig4", "fig67"], protocols: MT, epsilons: &EPSILONS, sites: M50, betas: &[] },
    Family { only: &["fig23", "fig67"], protocols: MT, epsilons: EPS01, sites: &SITES, betas: &[] },
    Family { only: &["fig67"], protocols: &["P4"], epsilons: &EPSILONS, sites: M50, betas: &[] },
    Family { only: &["fig67"], protocols: &["P4"], epsilons: EPS01, sites: &SITES, betas: &[] },
    Family { only: &["table1"], protocols: &["P1", "P2", "P3wor", "P3wr"], epsilons: EPS01, sites: M50, betas: &[] },
    Family { only: &["stability"], protocols: MT, epsilons: EPS01, sites: M50, betas: &[] },
];

/// One configuration: a protocol at one `(m, ε, β)`.
#[derive(Clone, Copy, PartialEq)]
struct Config(&'static str, usize, f64, f64);

impl Family {
    fn lists(&self, Config(protocol, m, epsilon, beta): Config) -> bool {
        self.protocols.contains(&protocol)
            && self.sites.contains(&m)
            && self.epsilons.contains(&epsilon)
            && (self.betas.is_empty() || self.betas.contains(&beta))
    }
}

/// The distinct configurations of `grid` in grid order; a family without
/// its own β list runs at the source's `beta`.
fn configs(grid: &[Family], beta: f64) -> Vec<Config> {
    let mut out = Vec::new();
    for f in grid {
        for beta in f
            .betas
            .iter()
            .copied()
            .chain(f.betas.is_empty().then_some(beta))
        {
            for &protocol in f.protocols {
                for &epsilon in f.epsilons {
                    for &m in f.sites {
                        let c = Config(protocol, m, epsilon, beta);
                        if !out.contains(&c) {
                            out.push(c);
                        }
                    }
                }
            }
        }
    }
    out
}

/// The paper's communication form with constant 1, `(m/ε)·log₂(βN)`:
/// the unit of the `msgs_per_unit` column and of the ceilings in
/// `tests/comm_counts.rs`.
pub fn paper_unit(m: usize, epsilon: f64, beta: f64, n: f64) -> f64 {
    m as f64 / epsilon * (beta * n).log2()
}

/// `repro`'s command line, with its matrix sources loaded.
#[derive(Debug)]
pub struct Options {
    /// `--only`: print only this artefact's rows.
    pub only: Option<&'static str>,
    /// `--scale`: the fraction of the paper's stream lengths, in (0, 1].
    pub scale: f64,
    /// `--seed`: seeds every generator and protocol.
    pub seed: u64,
    /// The two surrogates, or the `--data` file.
    pub sources: Vec<Source>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            only: None,
            scale: 0.1,
            seed: 7,
            sources: vec![
                Source::surrogate("pamap_like", 629_250, 30, SyntheticMatrixStream::pamap_like),
                Source::surrogate("msd_like", 300_000, 50, SyntheticMatrixStream::msd_like),
            ],
        }
    }
}

impl Options {
    /// Parses `--key value` pairs (the arguments after the program name)
    /// and loads a `--data` file.
    ///
    /// # Errors
    /// An unknown flag, a missing, unparsable or out-of-range value, or a
    /// `--data` file that fails to load.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().unwrap_or_default();
            let bad = format!("{flag}: cannot parse {value:?}");
            match flag.as_str() {
                "--only" => {
                    let all = HH_GRID.iter().chain(MATRIX_GRID).flat_map(|f| f.only);
                    let only = all.copied().find(|a| *a == value);
                    opts.only = Some(only.ok_or(format!("{bad}; see the crate docs"))?);
                }
                "--scale" => {
                    let scale = value.parse().ok().filter(|s| *s > 0.0 && *s <= 1.0);
                    opts.scale = scale.ok_or(format!("{bad}; want 0 < s ≤ 1"))?;
                }
                "--seed" => opts.seed = value.parse().map_err(|_| bad)?,
                "--data" => opts.sources = vec![Source::load(Path::new(&value))?],
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(opts)
    }
}

/// A matrix stream the grid runs on.
#[derive(Debug)]
pub struct Source {
    /// The `dataset` column: `pamap_like`, `msd_like` or the `--data`
    /// file's stem.
    pub name: String,
    /// The stream length `--scale` multiplies.
    len: usize,
    dim: usize,
    /// Squared-row-norm bound β.
    beta: f64,
    /// Rank of Table 1's FD/SVD baselines: 30 for PAMAP, 50 for MSD, at
    /// most 30 for a file.
    k: usize,
    rows: Rows,
}

#[derive(Debug)]
enum Rows {
    Generated(fn(u64) -> SyntheticMatrixStream),
    Loaded(Matrix),
}

impl Source {
    fn surrogate(name: &str, len: usize, k: usize, make: fn(u64) -> SyntheticMatrixStream) -> Self {
        let (dim, beta) = (make(0).dim(), make(0).beta());
        let (name, rows) = (name.to_string(), Rows::Generated(make));
        Source {
            name,
            len,
            dim,
            beta,
            k,
            rows,
        }
    }

    fn load(path: &Path) -> Result<Self, String> {
        let failed = |e: &dyn fmt::Display| format!("--data {}: {e}", path.display());
        let text = std::fs::read_to_string(path).map_err(|e| failed(&e))?;
        let m = parse_rows(&text).map_err(|e| failed(&e))?;
        let norms = m.iter_rows().map(|r| r.iter().map(|v| v * v).sum::<f64>());
        let stem = path
            .file_stem()
            .map_or("data".into(), |s| s.to_string_lossy());
        // A comma in the stem would shift every CSV column after it.
        let name = stem.replace(',', "_");
        let (len, dim, beta, k) = (
            m.rows(),
            m.cols(),
            norms.fold(0.0, f64::max),
            m.cols().min(30),
        );
        Ok(Source {
            name,
            len,
            dim,
            beta,
            k,
            rows: Rows::Loaded(m),
        })
    }

    fn rows(&self, seed: u64) -> Box<dyn Iterator<Item = Vec<f64>> + '_> {
        match &self.rows {
            Rows::Generated(make) => Box::new(make(seed)),
            Rows::Loaded(m) => Box::new(m.iter_rows().map(<[f64]>::to_vec)),
        }
    }
}

/// Parses numeric rows, `,`-separated if the first non-blank line has a
/// comma and whitespace-separated otherwise.
fn parse_rows(text: &str) -> Result<Matrix, LoadError> {
    let first = text.lines().find(|l| !l.trim().is_empty());
    let commas = if first.is_some_and(|l| l.contains(',')) {
        text.to_string()
    } else {
        let line = |l: &str| l.split_whitespace().collect::<Vec<_>>().join(",") + "\n";
        text.lines().map(line).collect()
    };
    load_csv_reader(commas.as_bytes(), &CsvOptions::default())
}

/// One configuration's measurement at one point of its stream: a CSV
/// line under [`HEADER`], with blank fields for `None`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    /// Source name.
    pub dataset: String,
    /// Protocol name (`FD` / `SVD` for Table 1's baselines).
    pub protocol: &'static str,
    /// Stream length.
    pub n: usize,
    /// Sites (`None` for a baseline).
    pub m: Option<usize>,
    /// Accuracy target (`None` for a baseline).
    pub epsilon: Option<f64>,
    /// Weight or squared-row-norm bound.
    pub beta: f64,
    /// Seed.
    pub seed: u64,
    /// Arrivals delivered when the row was measured.
    pub rows_seen: usize,
    /// Heavy hitters: the mean relative error of the true heavy hitters;
    /// matrices: `‖AᵀA − BᵀB‖₂ / ‖A‖²_F`.
    pub err: f64,
    /// Heavy-hitter recall at `φ = 0.05`.
    pub recall: Option<f64>,
    /// Heavy-hitter precision at `φ = 0.05`.
    pub precision: Option<f64>,
    /// Messages in the paper's units, broadcasts counted per receiver.
    pub msgs: u64,
    /// Bytes up and down (a baseline ships `8d` per row).
    pub bytes: u64,
    /// `msgs` over [`paper_unit`] at `rows_seen`.
    pub msgs_per_unit: Option<f64>,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let blank = |v: Option<String>| v.unwrap_or_default();
        let fixed = |v: Option<f64>| blank(v.map(|v| format!("{v:.4}")));
        let (m, epsilon) = (
            self.m.map(|m| m.to_string()),
            self.epsilon.map(|e| e.to_string()),
        );
        write!(
            f,
            "{},{},{},{},{},{},{},{},{:.6e},{},{},{},{},{}",
            self.dataset,
            self.protocol,
            self.n,
            blank(m),
            blank(epsilon),
            self.beta,
            self.seed,
            self.rows_seen,
            self.err,
            fixed(self.recall),
            fixed(self.precision),
            self.msgs,
            self.bytes,
            fixed(self.msgs_per_unit),
        )
    }
}

/// Runs the grid and hands each selected row to `emit`, in grid order:
/// the Zipf stream, then each matrix source followed by its baselines.
pub fn run(opts: &Options, mut emit: impl FnMut(Row)) {
    let feeds = |grid: &[Family], c: Config, name: &str| {
        grid.iter().any(|f| f.only.contains(&name) && f.lists(c))
    };
    let selects = |name| opts.only.is_none_or(|only| only == name);
    let zipf = std::iter::once(None);
    for src in zipf.chain(opts.sources.iter().map(Some)) {
        let grid = if src.is_some() { MATRIX_GRID } else { HH_GRID };
        let len = src.map_or(10_000_000, |s| s.len);
        let n = ((len as f64 * opts.scale) as usize).max(1);
        let row = Row {
            dataset: src.map_or("zipf".into(), |s| s.name.clone()),
            n,
            beta: src.map_or(0.0, |s| s.beta),
            seed: opts.seed,
            rows_seen: n,
            ..Row::default()
        };
        for c in configs(grid, row.beta) {
            if opts.only.is_some_and(|only| !feeds(grid, c, only)) {
                continue;
            }
            // The one family queried along the stream; its earlier rows
            // print only when stability rows are asked for.
            let parts = if feeds(grid, c, "stability") { 10 } else { 1 };
            let mut checkpoints: Vec<usize> = (1..=parts)
                .map(|t| t * n / parts)
                .filter(|&r| r > 0)
                .collect();
            checkpoints.dedup();
            for r in measure(src, c, &row, &checkpoints) {
                if r.rows_seen == n || selects("stability") {
                    emit(r);
                }
            }
        }
        if let Some(src) = src.filter(|_| selects("table1")) {
            for (protocol, err) in baselines(src, n, opts.seed) {
                let (msgs, bytes) = (n as u64, (n * 8 * src.dim) as u64);
                emit(Row {
                    protocol,
                    err,
                    msgs,
                    bytes,
                    ..row.clone()
                });
            }
        }
    }
}

/// Table 1's centralized baselines over the first `n` rows, both
/// shipping every row (`msgs = n`, `8d` bytes each): Frequent Directions
/// with `2k` rows truncated to rank `k`, and the exact best rank-`k`
/// approximation, the floor for any rank-`k` summary.
fn baselines(src: &Source, n: usize, seed: u64) -> [(&'static str, f64); 2] {
    let mut truth = StreamingGram::new(src.dim);
    let mut fd = FrequentDirections::new(src.dim, (2 * src.k).max(2));
    for row in src.rows(seed).take(n) {
        truth.update(&row);
        fd.update(&row);
    }
    let fd_err = truth.error_of_sketch(&fd.rank_k_sketch(src.k));
    let svd_err = truth.best_rank_k_error(src.k);
    [
        ("FD", fd_err.expect("error metric eigensolve")),
        ("SVD", svd_err.expect("rank-k eigensolve")),
    ]
}

/// Exact ground truth kept beside a run, and the paper's score of a
/// coordinator against it: `(err, recall, precision)`.
trait Truth<C> {
    type Item;
    fn update(&mut self, item: &Self::Item);
    fn score(&self, coordinator: &C) -> (f64, Option<f64>, Option<f64>);
}

/// Exact weights, and the `ε` of the reporting rule.
impl<C: HhEstimator> Truth<C> for (ExactWeightedCounter, f64) {
    type Item = (u64, f64);
    fn update(&mut self, &(e, w): &(u64, f64)) {
        self.0.update(e, w);
    }
    fn score(&self, coordinator: &C) -> (f64, Option<f64>, Option<f64>) {
        let e = metrics::evaluate(coordinator, &self.0, PHI, self.1);
        (e.avg_rel_err, Some(e.recall), Some(e.precision))
    }
}

impl<C: MatrixEstimator> Truth<C> for StreamingGram {
    type Item = Vec<f64>;
    fn update(&mut self, row: &Vec<f64>) {
        StreamingGram::update(self, row);
    }
    fn score(&self, coordinator: &C) -> (f64, Option<f64>, Option<f64>) {
        let err = self.error_of_sketch(&coordinator.sketch());
        (err.expect("error metric eigensolve"), None, None)
    }
}

/// Streams `items` round-robin into `runner` up to each checkpoint and
/// measures configuration `c` there, on top of `row`.
fn drive<S, C, T>(
    mut runner: Runner<S, C>,
    mut items: impl Iterator<Item = S::Input>,
    checkpoints: &[usize],
    truth: &mut T,
    (Config(protocol, m, epsilon, beta), row): (Config, &Row),
) -> Vec<Row>
where
    S: Site,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    S::UpMsg: MessageCost + Clone,
    S::Broadcast: WireSized,
    T: Truth<C, Item = S::Input>,
{
    let mut partitioner = RoundRobin::new(m);
    let mut seen = 0;
    let mut rows = Vec::with_capacity(checkpoints.len());
    for &at in checkpoints {
        let chunk = items.by_ref().take(at - seen).inspect(|x| truth.update(x));
        runner.run_partitioned(chunk, &mut partitioner, BATCH);
        seen = at;
        let (err, recall, precision) = truth.score(runner.coordinator());
        let stats = runner.stats();
        let msgs = stats.total();
        rows.push(Row {
            protocol,
            m: Some(m),
            epsilon: Some(epsilon),
            beta,
            rows_seen: at,
            err,
            recall,
            precision,
            msgs,
            bytes: stats.bytes_up + stats.bytes_down,
            msgs_per_unit: Some(msgs as f64 / paper_unit(m, epsilon, beta, at as f64)),
            ..row.clone()
        });
    }
    rows
}

/// Runs configuration `c` over the first `row.n` arrivals of `src` (the
/// Zipf stream when `None`).
fn measure(src: Option<&Source>, c: Config, row: &Row, checkpoints: &[usize]) -> Vec<Row> {
    let Config(protocol, m, epsilon, beta) = c;
    let (n, seed, config) = (row.n, row.seed, (c, row));
    let Some(src) = src else {
        let cfg = HhConfig::new(m, epsilon).with_seed(seed);
        let items = WeightedZipfStream::new(10_000, 2.0, beta, seed).take(n);
        let truth = &mut (ExactWeightedCounter::new(), epsilon);
        return match protocol {
            "P1" => drive(hh::p1::deploy(&cfg), items, checkpoints, truth, config),
            "P2" => drive(hh::p2::deploy(&cfg), items, checkpoints, truth, config),
            "P3" => drive(hh::p3::deploy(&cfg), items, checkpoints, truth, config),
            "P4" => drive(hh::p4::deploy(&cfg), items, checkpoints, truth, config),
            p => unreachable!("no heavy-hitter protocol {p}"),
        };
    };
    let cfg = MatrixConfig::new(m, epsilon, src.dim).with_seed(seed);
    let rows = src.rows(seed).take(n);
    let truth = &mut StreamingGram::new(src.dim);
    match protocol {
        "P1" => drive(matrix::p1::deploy(&cfg), rows, checkpoints, truth, config),
        "P2" => drive(matrix::p2::deploy(&cfg), rows, checkpoints, truth, config),
        "P3wor" => drive(matrix::p3::deploy(&cfg), rows, checkpoints, truth, config),
        "P3wr" => drive(matrix::p3wr::deploy(&cfg), rows, checkpoints, truth, config),
        "P4" => drive(matrix::p4::deploy(&cfg), rows, checkpoints, truth, config),
        p => unreachable!("no matrix protocol {p}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Options, String> {
        Options::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn rejects_an_unknown_flag() {
        for args in ["--site 5", "--delim ,", "--full"] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with("unknown flag"), "{args}: {err}");
        }
    }

    #[test]
    fn rejects_an_unparsable_value() {
        for args in [
            "--seed x",
            "--seed",
            "--scale 0",
            "--scale 2",
            "--only fig2",
        ] {
            assert!(parse(args).is_err(), "{args} parsed");
        }
        let opts = parse("--only table1 --scale 0.5 --seed 3").unwrap();
        assert_eq!((opts.only, opts.scale, opts.seed), (Some("table1"), 0.5, 3));
    }

    #[test]
    fn a_data_file_that_fails_to_load_is_an_error() {
        let err = parse("--data no/such/file.csv").unwrap_err();
        assert!(err.starts_with("--data no/such/file.csv"), "{err}");
    }

    #[test]
    fn infers_the_delimiter_from_the_first_line() {
        let spaced = parse_rows("1  2\t3\n4 5 6\n").unwrap();
        let commas = parse_rows("\n1,2,3\n4,5,6\n").unwrap();
        assert_eq!(spaced, commas);
        assert_eq!((spaced.rows(), spaced.cols()), (2, 3));
    }
}
