//! The format-agnostic reduction pipeline of *Logical Bytecode
//! Reduction*.
//!
//! This crate ties the substrates together into the paper's tool,
//! generically over any [`lbr_core::Input`] frontend (the classfile
//! format in [`lbr_classfile`], the stack-machine bytecode in
//! `lbr_stackvm`, ...):
//!
//! * [`run_reduction`] — drivers for the evaluated strategies, looked up
//!   by name in the open [`strategy_registry`], all generic over the
//!   input format,
//! * [`ReductionSession`] — the builder the daemon, bins, and fuzzer
//!   configure runs through.
//!
//! The classfile frontend's model pieces ([`Item`] / [`ItemRegistry`],
//! [`build_model`], [`reduce_program`], [`ClassGraph`]) now live in
//! [`lbr_classfile`] behind the [`lbr_core::Input`] trait; they are
//! re-exported here for compatibility.
//!
//! # Example
//!
//! ```no_run
//! use lbr_jreduce::run_reduction;
//! use lbr_decompiler::{BugSet, DecompilerOracle};
//! # let program = lbr_classfile::Program::new();
//! let oracle = DecompilerOracle::new(&program, BugSet::decompiler_a());
//! let report = run_reduction(
//!     &program,
//!     &oracle,
//!     "logical/greedy",
//!     33.0, // modeled seconds per tool invocation
//! )?;
//! println!("reduced to {:.1}% of the bytes", 100.0 * report.relative_bytes());
//! # Ok::<(), lbr_jreduce::PipelineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod pipeline;
mod session;

pub use lbr_classfile::{
    build_model, reduce_program, supertype_paths, ClassGraph, Item, ItemRegistry, LogicalModel,
    ModelError,
};
pub use lbr_core::ModelStats;
pub use pipeline::{
    check_report, known_strategy, run_per_error, run_per_error_with, run_reduction,
    run_reduction_with, strategy_catalog, strategy_registry, trace_guided_start, PerErrorReport,
    PipelineError, ReductionReport, ReductionStrategy, RunOptions, ServiceHooks, SizeMetrics,
    StrategyCaps, StrategyOutput, StrategyRegistry,
};
pub use session::ReductionSession;
