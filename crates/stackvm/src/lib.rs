//! `lbr-stackvm`: the second input frontend — a small stack-machine
//! bytecode whose abstract-interpretation verifier *is* the constraint
//! generator.
//!
//! The crate mirrors the classfile frontend layer by layer so the two
//! can be compared differentially:
//!
//! | layer | classfile | stackvm |
//! |---|---|---|
//! | format | `lbr_classfile` classes | [`Module`] of functions + globals |
//! | verifier | structural + hierarchy checks | abstract interpretation, `R####` rules |
//! | constraints | verify hooks → implications | [`verify::VerifyHooks`] → implications |
//! | beyond-graph | interface `mAny` | `call_indirect` candidate Or |
//! | stub | `aconst_null; athrow` | [`Op::Trap`] |
//! | tool | buggy decompiler | buggy lowering pass ([`StackBugSet`]) |
//! | oracle memo | decompiles + checks per class handle | facts per function handle |
//!
//! [`Module`] implements `lbr_core::Input` and [`StackOracle`]
//! implements `lbr_core::InputOracle`, so every pipeline entry point
//! runs this format unchanged. Both frontends stamp the same
//! `lbr_core::Scope` on the candidates of one reduction, and both oracles
//! memoize per reduction in it.

mod bugs;
mod facts;
mod graph;
mod input;
mod io;
mod item;
mod model;
mod module;
mod oracle;
mod reducer;
pub mod verify;

pub use bugs::{StackBugKind, StackBugSet};
pub use graph::UnitGraph;
pub use io::{module_byte_size, read_module, write_module, ReadError};
pub use item::{StackItem, StackRegistry};
pub use model::{build_stack_model, StackModel, StackModelError};
pub use module::{Function, Global, Module, Op, Sig, Ty};
pub use oracle::StackOracle;
pub use reducer::reduce_module;
pub use verify::{rule, verify_module, verify_module_with, NoHooks, Rule, VerifyError, RULES};
