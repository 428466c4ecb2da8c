//! A simulated buggy decompiler and mini source compiler — the black-box
//! tool of the *Logical Bytecode Reduction* evaluation.
//!
//! The paper's benchmarks are Java programs on which a real decompiler
//! emits source that fails to recompile. This crate reproduces that
//! pipeline over the [`lbr_classfile`] substrate:
//!
//! * [`decompile_program`] — a symbolic-execution decompiler from class
//!   files to a mini-Java [`SourceSet`],
//! * [`BugSet`] / [`BugKind`] — a catalog of pattern-triggered emission
//!   bugs (three presets play the paper's three decompilers),
//! * [`compile`] — a mini `javac` producing deterministic, identifying
//!   [`Diagnostic`]s,
//! * [`DecompilerOracle`] — the black-box predicate "the sub-program still
//!   produces the full original error message", monotone on valid
//!   sub-inputs as Definition 4.1 requires.
//!
//! # Example
//!
//! ```
//! use lbr_classfile::{ClassFile, Code, Insn, MethodDescriptor, MethodInfo, Program};
//! use lbr_decompiler::{BugSet, DecompilerOracle};
//!
//! let mut class = ClassFile::new_class("A");
//! class.methods.push(MethodInfo::new(
//!     "<init>",
//!     MethodDescriptor::void(),
//!     Code::new(1, 1, vec![Insn::Return]),
//! ));
//! let program: Program = [class].into_iter().collect();
//! let oracle = DecompilerOracle::new(&program, BugSet::decompiler_a());
//! // This program triggers none of decompiler A's bugs.
//! assert!(!oracle.is_failing());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bugs;
mod compile;
mod decompile;
mod incremental;
mod oracle;
mod source;

pub use bugs::{BugKind, BugSet};
pub use compile::{compile, compile_each, error_messages, Diagnostic};
pub use decompile::{decompile_class, decompile_program};
pub use oracle::DecompilerOracle;
pub use source::{render_class, SExpr, SourceClass, SourceMethod, SourceSet, SrcType, Stmt};
