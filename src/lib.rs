//! **Logical Bytecode Reduction** — a Rust reproduction of Kalhauge &
//! Palsberg, PLDI 2021.
//!
//! Reducing a failure-inducing input is hard when the input has internal
//! dependencies: most sub-inputs are invalid. This workspace reproduces
//! the paper's approach — model the dependencies with *propositional
//! logic* so every satisfying assignment is a valid sub-input, then search
//! with **Generalized Binary Reduction**, which interleaves runs of the
//! buggy tool with minimal-satisfying-assignment computations.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`logic`] — CNF, MSA, DPLL, model counting,
//! * [`core`] — GBR, Binary Reduction, ddmin, lossy encodings, graphs,
//! * [`fji`] — Featherweight Java with Interfaces (the paper's formal
//!   core, Section 3),
//! * [`classfile`] — the JVM-style class-file substrate,
//! * [`jreduce`] — the bytecode item model, constraint generation and
//!   strategy drivers,
//! * [`decompiler`] — the simulated buggy tool and oracle,
//! * [`workload`] — NJR-like benchmark generation.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the reproduced tables and figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lbr_classfile as classfile;
pub use lbr_core as core;
pub use lbr_decompiler as decompiler;
pub use lbr_fji as fji;
pub use lbr_jreduce as jreduce;
pub use lbr_logic as logic;
pub use lbr_workload as workload;
