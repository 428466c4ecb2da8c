//! The strategy registrations: every evaluated reducer as a
//! [`ReductionStrategy`] value, assembled into the
//! [`StrategyRegistry`] the pipeline dispatch, the daemon's job specs,
//! the fuzzer, and the eval/bench tables all look names up in. One registration here serves all of them — strategy-name strings
//! have exactly one source of truth: each strategy's
//! [`name`](ReductionStrategy::name).
//!
//! Historical aliases (the pre-registry enum spellings and wire strings)
//! stay resolvable so existing job specs, CLI flags, and baselines keep
//! working: `logical` → `logical/greedy`, `logical-min` →
//! `logical/minimized`, `lossy1`/`lossy2` → `lossy-1`/`lossy-2`,
//! `ddmin` → `ddmin-items`, `trace-guided` → `logical/trace-guided`.

use crate::pipeline::probe::OrderKind;
use crate::pipeline::{baselines, guided, logical};
use crate::pipeline::{PipelineError, RunOptions, ServiceHooks};
use lbr_core::{
    CoarseModel, DepGraph, Input, InputModel, InputOracle, LossyPick, ModelStats,
    ReductionStrategy, StrategyCaps, StrategyOutput, StrategyRegistry,
};
use lbr_logic::{Cnf, VarSet};
use std::sync::Arc;

/// The paper's reducer: logical model + GBR with the greedy-closure MSA
/// and the closure-size variable order.
pub(crate) struct LogicalStrategy;

impl<I: Input> ReductionStrategy<I> for LogicalStrategy {
    fn name(&self) -> &str {
        "logical/greedy"
    }

    fn caps(&self) -> StrategyCaps {
        StrategyCaps {
            resumable: true,
            speculative: true,
            per_error: true,
            uses_model: true,
        }
    }

    fn run(
        &self,
        input: &I,
        oracle: &dyn InputOracle<I>,
        cost: f64,
        options: &RunOptions,
        hooks: ServiceHooks<'_>,
    ) -> Result<StrategyOutput<I>, PipelineError> {
        logical::run_hooked(input, oracle, OrderKind::ClosureSize, cost, options, hooks)
    }
}

/// The order ablation: GBR with the *natural* (declaration) variable
/// order instead of the closure-size heuristic Theorem 4.5 wants.
pub(crate) struct NaturalOrderStrategy;

impl<I: Input> ReductionStrategy<I> for NaturalOrderStrategy {
    fn name(&self) -> &str {
        "logical/natural-order"
    }

    fn caps(&self) -> StrategyCaps {
        StrategyCaps {
            resumable: true,
            speculative: true,
            uses_model: true,
            ..StrategyCaps::default()
        }
    }

    fn run(
        &self,
        input: &I,
        oracle: &dyn InputOracle<I>,
        cost: f64,
        options: &RunOptions,
        hooks: ServiceHooks<'_>,
    ) -> Result<StrategyOutput<I>, PipelineError> {
        logical::run_hooked(input, oracle, OrderKind::Natural, cost, options, hooks)
    }
}

/// GBR followed by the local-minimization postpass
/// ([`lbr_core::minimize_solution`]): extra tool runs for a possibly
/// smaller output.
pub(crate) struct MinimizedStrategy;

impl<I: Input> ReductionStrategy<I> for MinimizedStrategy {
    fn name(&self) -> &str {
        "logical/minimized"
    }

    fn caps(&self) -> StrategyCaps {
        StrategyCaps {
            uses_model: true,
            ..StrategyCaps::default()
        }
    }

    fn run(
        &self,
        input: &I,
        oracle: &dyn InputOracle<I>,
        cost: f64,
        options: &RunOptions,
        _hooks: ServiceHooks<'_>,
    ) -> Result<StrategyOutput<I>, PipelineError> {
        logical::run_minimized(input, oracle, cost, options)
    }
}

/// The J-Reduce baseline: coarse unit graph + Binary Reduction.
pub(crate) struct JReduceStrategy;

impl<I: Input> ReductionStrategy<I> for JReduceStrategy {
    fn name(&self) -> &str {
        "jreduce"
    }

    fn caps(&self) -> StrategyCaps {
        StrategyCaps::default()
    }

    fn run(
        &self,
        input: &I,
        oracle: &dyn InputOracle<I>,
        cost: f64,
        options: &RunOptions,
        _hooks: ServiceHooks<'_>,
    ) -> Result<StrategyOutput<I>, PipelineError> {
        baselines::run_jreduce(input, oracle, cost, options)
    }
}

/// A lossy encoding of the logical model + Binary Reduction.
pub(crate) struct LossyStrategy(pub(crate) LossyPick);

impl<I: Input> ReductionStrategy<I> for LossyStrategy {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn caps(&self) -> StrategyCaps {
        StrategyCaps {
            uses_model: true,
            ..StrategyCaps::default()
        }
    }

    fn run(
        &self,
        input: &I,
        oracle: &dyn InputOracle<I>,
        cost: f64,
        options: &RunOptions,
        _hooks: ServiceHooks<'_>,
    ) -> Result<StrategyOutput<I>, PipelineError> {
        baselines::run_lossy(input, oracle, self.0, cost, options)
    }
}

/// ddmin over items with a validity filter.
pub(crate) struct DdminStrategy;

impl<I: Input> ReductionStrategy<I> for DdminStrategy {
    fn name(&self) -> &str {
        "ddmin-items"
    }

    fn caps(&self) -> StrategyCaps {
        StrategyCaps {
            uses_model: true,
            ..StrategyCaps::default()
        }
    }

    fn run(
        &self,
        input: &I,
        oracle: &dyn InputOracle<I>,
        cost: f64,
        options: &RunOptions,
        _hooks: ServiceHooks<'_>,
    ) -> Result<StrategyOutput<I>, PipelineError> {
        baselines::run_ddmin(input, oracle, cost, options)
    }
}

/// Hierarchical delta debugging over the item containment tree.
pub(crate) struct HddStrategy;

impl<I: Input> ReductionStrategy<I> for HddStrategy {
    fn name(&self) -> &str {
        "hdd"
    }

    fn caps(&self) -> StrategyCaps {
        StrategyCaps {
            uses_model: true,
            ..StrategyCaps::default()
        }
    }

    fn run(
        &self,
        input: &I,
        oracle: &dyn InputOracle<I>,
        cost: f64,
        options: &RunOptions,
        _hooks: ServiceHooks<'_>,
    ) -> Result<StrategyOutput<I>, PipelineError> {
        guided::run_hdd(input, oracle, cost, options)
    }
}

/// The trace-guided GBR mode: a coverage sweep of deletion probes seeds
/// GBR's search space with the covered set, orders its progression by
/// trace frequency, and gallops each iteration's boundary search from the
/// previously recorded boundary gap. Its GBR is plain GBR's loop with
/// [`BoundarySearch::Gallop`](lbr_core::BoundarySearch::Gallop), so it
/// resumes and speculates like `logical/greedy`; the per-error sweep is
/// its own entry point and always runs plain GBR.
pub(crate) struct TraceGuidedStrategy;

impl<I: Input> ReductionStrategy<I> for TraceGuidedStrategy {
    fn name(&self) -> &str {
        "logical/trace-guided"
    }

    fn caps(&self) -> StrategyCaps {
        StrategyCaps {
            resumable: true,
            speculative: true,
            uses_model: true,
            ..StrategyCaps::default()
        }
    }

    fn run(
        &self,
        input: &I,
        oracle: &dyn InputOracle<I>,
        cost: f64,
        options: &RunOptions,
        hooks: ServiceHooks<'_>,
    ) -> Result<StrategyOutput<I>, PipelineError> {
        guided::run_trace_guided(input, oracle, cost, options, hooks)
    }
}

/// The full registry: every built-in strategy under its canonical name,
/// plus the historical aliases. Built fresh per dispatch — registration
/// is a handful of `Arc` allocations.
pub fn strategy_registry<I: Input>() -> StrategyRegistry<I> {
    let mut registry = StrategyRegistry::new();
    registry.register(Arc::new(LogicalStrategy));
    registry.register(Arc::new(NaturalOrderStrategy));
    registry.register(Arc::new(MinimizedStrategy));
    registry.register(Arc::new(JReduceStrategy));
    registry.register(Arc::new(LossyStrategy(LossyPick::FirstFirst)));
    registry.register(Arc::new(LossyStrategy(LossyPick::LastLast)));
    registry.register(Arc::new(DdminStrategy));
    registry.register(Arc::new(HddStrategy));
    registry.register(Arc::new(TraceGuidedStrategy));
    registry.alias("logical", "logical/greedy");
    registry.alias("logical-min", "logical/minimized");
    registry.alias("lossy1", "lossy-1");
    registry.alias("lossy2", "lossy-2");
    registry.alias("ddmin", "ddmin-items");
    registry.alias("trace-guided", "logical/trace-guided");
    registry
}

/// A zero-variable stand-in input: the registry's *contents* (names,
/// aliases, caps) are identical for every format, so name validation and
/// catalog listings instantiate the registry with this instead of
/// committing to a concrete frontend.
#[derive(Debug, Clone, PartialEq)]
struct NullInput;

impl Input for NullInput {
    const FORMAT: &'static str = "null";

    fn model(&self) -> Result<InputModel<'_, Self>, String> {
        Ok(InputModel {
            cnf: Cnf::new(0),
            stats: ModelStats {
                items: 0,
                clauses: 0,
                graph_fraction: 1.0,
            },
            levels: Vec::new(),
            materialize: Box::new(|_: &VarSet| NullInput),
        })
    }

    fn coarse_model(&self) -> CoarseModel<'_, Self> {
        CoarseModel {
            graph: DepGraph::new(0),
            materialize: Box::new(|_: &VarSet| NullInput),
        }
    }

    fn to_bytes(&self) -> Vec<u8> {
        Vec::new()
    }

    fn from_bytes(_bytes: &[u8]) -> Result<Self, String> {
        Ok(NullInput)
    }

    fn byte_size(&self) -> usize {
        0
    }

    fn unit_count(&self) -> usize {
        0
    }

    fn validate(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Whether `name` resolves in the built-in registry (canonically or via
/// an alias) — the validation the daemon's job parser uses.
pub fn known_strategy(name: &str) -> bool {
    strategy_registry::<NullInput>().contains(name)
}

/// Every built-in strategy's canonical name and capability flags, in
/// registration order — what `reduce --list-strategies` prints and the
/// daemon's `stats` command reports.
pub fn strategy_catalog() -> Vec<(String, StrategyCaps)> {
    strategy_registry::<NullInput>()
        .iter()
        .map(|s| (s.name().to_owned(), s.caps()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_zoo_with_aliases() {
        let registry = strategy_registry::<NullInput>();
        assert_eq!(
            registry.names(),
            [
                "logical/greedy",
                "logical/natural-order",
                "logical/minimized",
                "jreduce",
                "lossy-1",
                "lossy-2",
                "ddmin-items",
                "hdd",
                "logical/trace-guided",
            ]
        );
        for (alias, canonical) in [
            ("logical", "logical/greedy"),
            ("logical-min", "logical/minimized"),
            ("lossy1", "lossy-1"),
            ("lossy2", "lossy-2"),
            ("ddmin", "ddmin-items"),
            ("trace-guided", "logical/trace-guided"),
        ] {
            assert!(known_strategy(alias), "alias {alias} must resolve");
            assert_eq!(registry.get(alias).unwrap().name(), canonical);
        }
        for removed in ["no-such-strategy", "logical/greedy+min", "logical/dpll+min"] {
            assert!(!known_strategy(removed), "{removed} must not resolve");
        }
    }

    #[test]
    fn catalog_flags_the_service_capable_strategies() {
        let catalog = strategy_catalog();
        let caps_of = |name: &str| {
            catalog
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| *c)
                .unwrap()
        };
        assert!(caps_of("logical/greedy").resumable);
        assert!(caps_of("logical/greedy").per_error);
        assert!(caps_of("logical/natural-order").speculative);
        assert!(!caps_of("logical/natural-order").per_error);
        assert!(!caps_of("logical/minimized").resumable);
        assert!(!caps_of("jreduce").uses_model);
        assert!(caps_of("hdd").uses_model);
        assert!(!caps_of("hdd").resumable);
        assert!(caps_of("logical/trace-guided").uses_model);
        assert!(caps_of("logical/trace-guided").speculative);
        assert!(caps_of("logical/trace-guided").resumable);
        assert!(!caps_of("logical/trace-guided").per_error);
    }
}
