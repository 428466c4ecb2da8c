//! NJR-like synthetic benchmark generation for bytecode reduction.
//!
//! The paper evaluates on 96 programs from the NJR corpus paired with
//! three decompilers (227 failing instances; geometric means of 184
//! classes, 285 KB, 9.2 compiler errors per benchmark). Real NJR programs
//! and real decompilers are unavailable here, so this crate generates
//! programs with the same *dependency profile* — class/interface
//! hierarchies, virtual and interface dispatch, casts, fields, statics,
//! reflection — plants the bug-trigger patterns of
//! [`lbr_decompiler`]'s catalog, and assembles failing
//! (program, decompiler) instances.
//!
//! Everything is deterministic per seed, and every generated program
//! verifies by construction.
//!
//! # Example
//!
//! ```
//! use lbr_workload::{suite, SuiteConfig};
//! let benchmarks = suite(&SuiteConfig { programs: 2, ..SuiteConfig::default() });
//! for b in &benchmarks {
//!     assert!(b.oracle().is_failing());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod gen;
mod stackgen;
mod stats;
mod suite;

pub use gen::{generate, AdversarialShape, WorkloadConfig};
pub use stackgen::{generate_stack, stack_suite, StackBenchmark, StackShape, StackWorkloadConfig};
pub use stats::{geometric_mean, suite_stats, SuiteStats};
pub use suite::{suite, Benchmark, SuiteConfig};
