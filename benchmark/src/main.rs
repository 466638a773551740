//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! cma-benchmark --workload W --seed N --seconds T --trace 0|1   one workload, one JSON line (the driver's form)
//! cma-benchmark run [--seed N] [--quick]                        every workload, interleaved, every end-to-end metric
//! cma-benchmark trace [--seed N] [--quick]                      the traced run: every per-layer metric, span files
//! cma-benchmark self-check [--seed N]                           two runs must agree: counts exactly, times within the bounds
//! cma-benchmark rep --workload W [--seed N] [--index K] [--traced] [--quick]   one repetition: what the others spawn
//! ```

mod harness;
mod layers;
mod spec;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::{Scale, DEFAULT_SEED};

/// `--key value` pairs and bare `--flags` after the optional subcommand.
struct Args {
    command: Option<String>,
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut raw = std::env::args().skip(1).peekable();
        let command = raw.next_if(|a| !a.starts_with("--"));
        let mut pairs = Vec::new();
        while let Some(key) = raw.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{key}`"))?
                .to_string();
            pairs.push((key, raw.next_if(|a| !a.starts_with("--"))));
        }
        Ok(Args { command, pairs })
    }

    fn flag(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn value<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.pairs.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, None)) => Err(format!("--{key} needs a value")),
            Some((_, Some(v))) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.value(key)?
            .ok_or_else(|| format!("--{key} is required"))
    }

    fn workload(&self) -> Result<String, String> {
        let w: String = self.required("workload")?;
        if spec::is_workload(&w) {
            Ok(w)
        } else {
            Err(format!("unknown workload `{w}`"))
        }
    }
}

fn dispatch(args: &Args) -> Result<i32, String> {
    let seed = args.value("seed")?.unwrap_or(DEFAULT_SEED);
    let quick = args.flag("quick");
    match args.command.as_deref() {
        None => {
            let seconds: f64 = args.required("seconds")?;
            let trace: u8 = args.required("trace")?;
            Ok(harness::contract(
                &args.workload()?,
                args.required("seed")?,
                seconds,
                trace != 0,
            ))
        }
        Some("rep") => {
            let workload = args.workload()?;
            let traced = args.flag("traced");
            let index: u64 = args.value("index")?.unwrap_or(0);
            let mut fields = workloads::rep(&workload, seed, Scale { quick }, traced);
            fields.set("peak_rss_mb", peak_rss_mb()?);
            if traced {
                let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("out")
                    .join(format!("trace-{workload}.jsonl"));
                trace::write_jsonl(&path, &workload, index)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            harness::print_report(&fields);
            Ok(0)
        }
        Some("run") => Ok(harness::run(seed, quick, false)),
        Some("trace") => Ok(harness::run(seed, quick, true)),
        Some("self-check") => Ok(harness::self_check(seed)),
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn main() -> ExitCode {
    match Args::parse().and_then(|a| dispatch(&a)) {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("cma-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
