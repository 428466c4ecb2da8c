//! The repository benchmark: real reductions, timed end to end and split
//! by layer, on three workloads (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload classfile-suite|stackvm-large|service-mixed
//!           --seed N --seconds S --trace 0|1 --serviced PATH
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). The exit code is non-zero when any output
//! is wrong or the run cannot complete.

mod clock;
mod inproc;
mod service;
mod stats;
mod timed;

use std::path::PathBuf;

/// Command-line settings.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `lbr-serviced` binary the service workload starts.
    pub serviced: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serviced: PathBuf::from("lbr-serviced"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)? as f64,
            "--trace" => args.trace = number(&value)? != 0,
            "--serviced" => args.serviced = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let outcome = parse_args().and_then(|args| match args.workload.as_str() {
        "classfile-suite" => inproc::classfile_suite(&args),
        "stackvm-large" => inproc::stackvm_large(&args),
        "service-mixed" => service::service_mixed(&args),
        other => Err(format!(
            "unknown workload {other:?} (classfile-suite, stackvm-large, service-mixed)"
        )),
    });
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.render());
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
