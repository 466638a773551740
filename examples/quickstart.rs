//! Quickstart: track a distributed matrix with protocol MT-P2.
//!
//! Four sites each receive a stream of 8-dimensional rows; the
//! coordinator continuously maintains a sketch `B` with
//! `|‖Ax‖² − ‖Bx‖²| ≤ ε·‖A‖²_F` — while communicating a small fraction
//! of the stream.
//!
//! Run with: `cargo run --release --example quickstart`

use cma::data::{StreamingGram, SyntheticMatrixStream};
use cma::protocols::matrix::{p2, MatrixConfig, MatrixEstimator};
use cma::stream::partition::RoundRobin;

fn main() {
    let sites = 4;
    let epsilon = 0.1;
    let dim = 8;
    let n = 20_000;

    // Deploy: one P2 site per stream, a coordinator, message accounting.
    let cfg = MatrixConfig::new(sites, epsilon, dim);
    let mut runner = p2::deploy(&cfg);

    // Ground truth for the demo (a real deployment has no such luxury).
    let mut truth = StreamingGram::new(dim);

    // Deliver the stream through the batch-first runner: each row arrives
    // at exactly one site, in epochs of 256 arrivals. Batched execution
    // is observably identical to feeding rows one at a time — same
    // messages, same statistics — just faster.
    let mut stream = SyntheticMatrixStream::new(dim, &[4.0, 2.0, 1.0], 1e6, 42);
    let rows = (0..n).map(|_| {
        let row = stream.next_row();
        truth.update(&row);
        row
    });
    runner.run_partitioned(rows, &mut RoundRobin::new(sites), 256);

    // The coordinator answers at any time without extra communication.
    // It keeps the Gram `BᵀB` of the directions it received, not the
    // directions themselves — the guarantee reads only `‖Bx‖² = xᵀBᵀBx` —
    // so the sketch it hands back has at most `d` rows however many
    // directions arrived.
    let sketch = runner.coordinator().sketch();
    let err = truth.error_of_sketch(&sketch).expect("error metric");
    let stats = runner.stats();

    println!("stream length           : {n} rows of dimension {dim}");
    println!("sites                   : {sites}");
    println!("accuracy target ε       : {epsilon}");
    println!("covariance error        : {err:.5}  (guarantee: ≤ ε)");
    println!(
        "sketch size             : {} rows (≤ d = {dim})",
        sketch.rows()
    );
    println!(
        "communication           : {} messages ({:.2}% of shipping every row)",
        stats.total(),
        100.0 * stats.total() as f64 / n as f64
    );
    assert!(err <= epsilon, "protocol contract violated");
    println!("\nthe coordinator tracked the matrix within ε at all times ✓");
}
