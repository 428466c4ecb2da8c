//! Propositional-logic substrate for logical input reduction.
//!
//! This crate is the logical foundation of the *Logical Bytecode Reduction*
//! reproduction (Kalhauge & Palsberg, PLDI 2021). The paper models the
//! internal dependencies of a failure-inducing input as a propositional
//! formula whose satisfying assignments are exactly the *valid sub-inputs*;
//! the reduction algorithm then needs, from this crate:
//!
//! * [`Cnf`] with conditioning and restriction (`R | x = 1`, "vars not in J
//!   set to 0"),
//! * [`Formula`] for the constraint-generating type checker, lowered to CNF,
//! * [`msa`] — the order-driven approximate **minimal satisfying
//!   assignment** at the heart of the `PROGRESSION` subroutine,
//! * [`Engine`] — an incremental two-watched-literal propagation engine
//!   with an assignment trail and decision levels; GBR conditions one
//!   shared engine by assumption instead of cloning restricted CNFs,
//! * [`dpll`] — a complete solver used as fallback and test oracle,
//! * [`count_models`] — sharpSAT-style model counting (component
//!   decomposition + caching + implicit BCP) to count valid sub-inputs.
//!
//! # Quick example
//!
//! The paper's running constraint "if we keep that `A` implements `I` and
//! `I` has a signature `m`, we must keep `A.m()`" is the clause
//! `¬[A◁I] ∨ ¬[I.m()] ∨ [A.m()]`:
//!
//! ```
//! use lbr_logic::{Clause, Cnf, VarPool, msa, VarOrder};
//!
//! let mut pool = VarPool::new();
//! let a_impl_i = pool.var("[A<I]");
//! let i_m = pool.var("[I.m()]");
//! let a_m = pool.var("[A.m()]");
//!
//! let mut model = Cnf::new(pool.len());
//! model.add_clause(Clause::implication([a_impl_i, i_m], [a_m]));
//! model.add_clause(Clause::unit(lbr_logic::Lit::pos(a_impl_i)));
//! model.add_clause(Clause::unit(lbr_logic::Lit::pos(i_m)));
//!
//! let order = VarOrder::natural(pool.len());
//! let solution = msa(&model, &order).expect("satisfiable");
//! assert!(solution.contains(a_m)); // A.m() must be kept
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod clause;
mod cnf;
pub mod counting;
pub mod dpll;
pub mod engine;
mod formula;
mod lit;
mod msa;
mod order;
mod propagate;
mod set;
mod var;

pub use clause::{Clause, ClauseShape};
pub use cnf::{Cnf, ShapeHistogram};
pub use counting::count_models;
pub use engine::{msa_above, msa_from_state, solve_from_state, Engine, Msa};
pub use formula::Formula;
pub use lit::Lit;
pub use msa::msa;
pub use order::VarOrder;
pub use propagate::{propagate, PartialAssignment, Propagation};
pub use set::VarSet;
pub use var::{Var, VarPool};
