//! The reduction daemon binary.
//!
//! ```text
//! lbr-serviced --state-dir state/ [--workers N] [--queue-capacity N]
//!              [--idle-timeout-secs N] [--max-frame-kb N]
//!              [--max-inflight N] [--checkpoint-interval-ms N]
//! ```
//!
//! Binds an ephemeral localhost port, prints it to stdout (and persists it
//! in `state/daemon.addr`), recovers any unfinished jobs from the state
//! directory, and serves until a `shutdown` request. Kill it however you
//! like — every state file is written atomically, so a restart resumes
//! checkpointed jobs with a warm oracle cache.

#![forbid(unsafe_code)]

use lbr_service::{Daemon, DaemonConfig};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut state_dir: Option<String> = None;
    let mut workers = 4usize;
    let mut queue_capacity = 64usize;
    let mut idle_timeout_secs: Option<u64> = None;
    let mut max_frame_kb: Option<usize> = None;
    let mut max_inflight: Option<usize> = None;
    let mut checkpoint_interval_ms: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            let v = args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            });
            i += 1;
            v
        };
        let parse = |flag: &str, v: String| -> u64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} takes a number");
                std::process::exit(2);
            })
        };
        match flag {
            "--state-dir" => state_dir = Some(value()),
            "--workers" => workers = parse(flag, value()) as usize,
            "--queue-capacity" => queue_capacity = parse(flag, value()) as usize,
            "--idle-timeout-secs" => idle_timeout_secs = Some(parse(flag, value())),
            "--max-frame-kb" => max_frame_kb = Some(parse(flag, value()) as usize),
            "--max-inflight" => max_inflight = Some(parse(flag, value()) as usize),
            "--checkpoint-interval-ms" => checkpoint_interval_ms = Some(parse(flag, value())),
            "--help" | "-h" => {
                println!(
                    "usage: lbr-serviced --state-dir DIR [--workers N] [--queue-capacity N]\n\
                     \x20                   [--idle-timeout-secs N] [--max-frame-kb N]\n\
                     \x20                   [--max-inflight N] [--checkpoint-interval-ms N]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(state_dir) = state_dir else {
        eprintln!("--state-dir is required (try --help)");
        std::process::exit(2);
    };
    let mut config = DaemonConfig::new(state_dir, workers);
    config.queue_capacity = queue_capacity.max(1);
    if let Some(secs) = idle_timeout_secs {
        config.idle_timeout = Duration::from_secs(secs.max(1));
    }
    if let Some(kb) = max_frame_kb {
        config.max_frame_bytes = kb.max(1) * 1024;
    }
    if let Some(n) = max_inflight {
        config.max_inflight_per_client = n.max(1);
    }
    if let Some(ms) = checkpoint_interval_ms {
        config.checkpoint_interval = Duration::from_millis(ms);
    }
    let daemon = match Daemon::start(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot start daemon: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", daemon.local_addr());
    if let Err(e) = daemon.run() {
        eprintln!("daemon error: {e}");
        std::process::exit(1);
    }
}
