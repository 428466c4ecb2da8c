//! A multi-threaded reduction *service* over the pipeline of
//! [`lbr_jreduce`]: a daemon that queues, runs, checkpoints, and resumes
//! reduction jobs, plus the client for its wire protocol.
//!
//! The paper's tool is a batch process: one input, one oracle, one long
//! run of ≈33 s probes. This crate wraps that pipeline the way a fuzzing
//! or CI fleet would deploy it —
//!
//! * [`Daemon`] listens on localhost TCP, serves each connection with a
//!   blocking reader and writer thread (at most [`MAX_CONNECTIONS`] at
//!   once), and runs jobs from a bounded priority
//!   [`JobQueue`](queue::JobQueue) on a pool of worker threads;
//! * a [`PersistentOracleCache`] shares probe verdicts across jobs *and
//!   across restarts*: entries are content-addressed by a digest of the
//!   input container and oracle configuration plus the candidate keep-set,
//!   so only genuinely identical probes are shared, and each save appends
//!   only the new entries as one committed batch, so a crash loses at most
//!   the entries added since the last save and never corrupts the rest;
//! * running jobs checkpoint their GBR state
//!   ([`GbrCheckpoint`](lbr_core::GbrCheckpoint)) at their first
//!   iteration and then at most every `checkpoint_interval`;
//!   a killed daemon restarts, re-enqueues unfinished jobs, and resumes
//!   them from the snapshot — converging to the *same* reduced program an
//!   uninterrupted run produces;
//! * [`Client`] speaks the newline-delimited JSON protocol: `submit`,
//!   `status`, `result`, `cancel`, `stats`, `shutdown`.
//!
//! Determinism is the invariant everything here preserves: a job's
//! reduced bytes, predicate-call count, and trace digest are identical
//! whether it runs in-process, through the daemon, against a cold or warm
//! cache, interrupted or not, at any worker count. The end-to-end tests
//! assert exactly that.
//!
//! Everything is built on `std` alone — the wire format is the minimal
//! [`Json`] document model in [`json`], persistence is plain files under
//! a state directory written crash-safely by [`fsio`] and the cache log.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod checkpoint;
pub mod client;
mod conn;
pub mod daemon;
pub mod frame;
pub mod fsio;
pub mod job;
pub mod json;
pub mod queue;

pub use cache::{namespace_digest, FaultPlan, PersistentOracleCache};
pub use checkpoint::{load_checkpoint, MAX_UNIVERSE};
pub use client::{Client, Connection, Submitted};
pub use conn::MAX_CONNECTIONS;
pub use daemon::{Daemon, DaemonConfig};
pub use frame::{FrameDecoder, Framing, WireFrame};
pub use fsio::{atomic_write, atomic_write_str};
pub use json::Json;
