//! Prints the paper's evaluation as CSV, one row per configuration (see
//! the `cma_bench` crate docs for the grid and the four flags).
//!
//! ```text
//! repro [--only fig1|fig23|fig4|fig67|table1|stability] [--scale 0.1] [--seed 7] [--data file]
//! ```
//!
//! Exits non-zero on a malformed command line or a `--data` file that
//! fails to load.

use cma_bench::{run, Options, HEADER};
use std::process::ExitCode;

fn main() -> ExitCode {
    match Options::parse(std::env::args().skip(1)) {
        Ok(opts) => {
            println!("{HEADER}");
            run(&opts, |row| println!("{row}"));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}
