//! Featherweight Java with Interfaces (FJI) — the formal core of *Logical
//! Bytecode Reduction* (Section 3).
//!
//! FJI extends Featherweight Java with single-interface implementation; it
//! is "a convenient setting in which to show that reduced programs type
//! check". This crate provides:
//!
//! * the [`ast`] and a [`parser`](parse_program) / [`pretty`](mod@pretty) printer,
//! * the Boolean variables `V(P)` via [`ItemRegistry`] (six item kinds:
//!   classes, interfaces, implements relations, methods, method bodies,
//!   signatures),
//! * the constraint-generating type checker [`typecheck`] (`⊢ P | π`,
//!   Figures 6–7),
//! * the reducer [`reduce`] (`reduce(P, φ)`, Figure 5),
//! * the paper's running example ([`figure1_program`], [`figure2_cnf`],
//!   [`figure1b_solution`]).
//!
//! Theorem 3.1 — every satisfying assignment reduces to a program that
//! type checks — is verified exhaustively over all 6,766 models of the
//! example in this crate's integration tests.
//!
//! # Example
//!
//! ```
//! use lbr_fji::{figure1_program, typecheck_decls, ItemRegistry};
//! use lbr_logic::count_models;
//!
//! let program = figure1_program();
//! let reg = ItemRegistry::from_program(&program);
//! let formula = typecheck_decls(&program, &reg)?;
//! let mut cnf = formula.to_cnf();
//! cnf.ensure_vars(reg.len());
//! // The paper counts 6,766 valid sub-inputs with sharpSAT.
//! assert_eq!(count_models(&cnf), 6_766);
//! # Ok::<(), lbr_fji::TypeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
mod example;
mod parser;
pub mod pretty;
mod reduce;
mod typecheck;
mod vars;

pub use ast::{
    ClassDecl, Constructor, Expr, Field, InterfaceDecl, Method, Program, Signature, TypeDecl,
};
pub use example::{
    figure1_program, figure1b_solution, figure2_cnf, figure2_dependency_cnf, figure2_var,
    FIGURE1_SOURCE,
};
pub use parser::{parse_expr, parse_program, ParseError};
pub use pretty::{line_count, pretty, pretty_expr};
pub use reduce::{program_size, reduce};
pub use typecheck::{typecheck, typecheck_decls, typechecks, TypeError};
pub use vars::{Item, ItemRegistry};
