//! Input-reduction algorithms from *Logical Bytecode Reduction* (PLDI 2021)
//! and its predecessors.
//!
//! The crate provides, over the propositional substrate of
//! [`lbr_logic`]:
//!
//! * [`Instance`] / [`Predicate`] — the Input Reduction Problem
//!   `(I, P, R_I)` of Definition 4.1, with an instrumenting [`Oracle`] that
//!   records the reduction-over-time traces behind Figure 8,
//! * [`generalized_binary_reduction`] — **GBR** (Algorithm 1), which
//!   interleaves black-box predicate runs with approximate minimal
//!   satisfying assignments and only ever tests *valid* sub-inputs,
//! * [`generalized_binary_reduction_speculative`] — the same search with
//!   a speculative parallel probe pool ([`ProbeScheduler`] over a
//!   [`ConcurrentPredicate`]): bit-identical results, shorter wall time,
//!   and separate useful/speculative/critical-path accounting
//!   ([`ProbeStats`]),
//! * [`binary_reduction`] — the graph-closure Binary Reduction of J-Reduce
//!   (ESEC/FSE 2019), the paper's main baseline,
//! * [`ddmin`] — Zeller & Hildebrandt's algorithm with validity-aware
//!   outcomes,
//! * [`lossy_encode`] / [`lossy_graph`] — the two lossy encodings of
//!   Section 4.3 that approximate general clauses with graph edges,
//! * [`DepGraph`] — dependency graphs, Tarjan SCCs and closure lists,
//! * [`closure_size_order`] — the "pick `<` well" heuristic Theorem 4.5
//!   needs for locally minimal solutions,
//! * [`HittingSet`] — the constructive NP-completeness mapping of
//!   Theorem 4.2.
//!
//! # Quick example
//!
//! ```
//! use lbr_core::{closure_size_order, generalized_binary_reduction, GbrConfig, Instance};
//! use lbr_logic::{Clause, Cnf, Var, VarSet};
//!
//! // Validity: keeping 0 requires 1; the bug needs 1.
//! let mut cnf = Cnf::new(4);
//! cnf.add_clause(Clause::edge(Var::new(0), Var::new(1)));
//! let order = closure_size_order(&cnf);
//! let instance = Instance::over_all_vars(cnf);
//! let mut bug = |s: &VarSet| s.contains(Var::new(1));
//! let out = generalized_binary_reduction(&instance, &order, &mut bug, &GbrConfig::default())?;
//! assert_eq!(out.solution.len(), 1);
//! # Ok::<(), lbr_core::GbrError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod binary;
mod concurrent;
mod ddmin;
mod fault;
mod gbr;
mod graph;
mod hitting;
mod input;
mod keyed;
mod lossy;
mod minimize;
mod orders;
mod problem;
mod stack;
mod stats;
mod strategy;
mod trace;

pub use binary::{binary_reduction, BinaryReductionError, BinaryReductionOutcome};
pub use concurrent::{
    ClaimResult, ConcurrentPredicate, DemandKind, Demanded, MemoScan, Probe, ProbeCache,
    ProbeDistributor, ProbeScheduler, ShardedMemo, VerdictSource,
};
pub use ddmin::{ddmin, DdminStats, TestOutcome};
pub use fault::{FaultInjector, FaultPlan};
pub use gbr::{
    build_progression, generalized_binary_reduction, generalized_binary_reduction_controlled,
    generalized_binary_reduction_portfolio, generalized_binary_reduction_portfolio_controlled,
    generalized_binary_reduction_speculative, generalized_binary_reduction_speculative_controlled,
    generalized_binary_reduction_with_source, EngineChoice, GbrCheckpoint, GbrConfig, GbrControl,
    GbrError, GbrOutcome, PortfolioRun, ProgressionBuilder, PropagationMode, SpeculationConfig,
    SpeculativeRun,
};
pub use graph::{Closure, DepGraph};
pub use hitting::{reduction_is_faithful, HittingSet};
pub use input::{CoarseModel, Input, InputModel, InputOracle, ModelStats};
pub use keyed::KeyedMap;
pub use lossy::{lossy_encode, lossy_graph, lossy_is_sound, LossyGraph, LossyPick};
pub use minimize::{minimize_solution, MinimizeStats};
pub use orders::{
    activity_order, closure_size_order, closure_sizes, closure_sizes_of_graph, history_order,
    natural_order, probe_activity,
};
pub use problem::{Instance, Oracle, Predicate};
pub use stack::{
    CacheLayer, CoverageTrace, FaultyCache, LatencyLayer, MemoryCache, OracleLayer, OracleStack,
    StatsLayer, TraceLayer, ValidationLayer,
};
pub use stats::{CacheStats, ProbeStats};
pub use strategy::{
    OrderChoice, PipelineError, ReductionStrategy, RunOptions, ServiceHooks, StrategyCaps,
    StrategyOutput, StrategyRegistry,
};
pub use trace::{ReductionTrace, TracePoint};
