//! Seeded random generation of verifying stackvm modules.
//!
//! The stackvm analog of [`crate::gen`]: every module verifies by
//! construction (bodies are sequences of stack-neutral statement
//! templates ending in an explicit `Return`), generation is fully
//! deterministic per seed, and bug-trigger patterns from
//! [`lbr_stackvm::StackBugSet`]'s catalog are planted into the first
//! few functions so a good reducer can discard the rest.
//!
//! Three topology shapes steer what the reduction has to untangle:
//!
//! - **constraint-dense**: many `call_indirect` sites over shared
//!   signatures plus global writer/reader pairs — Or-constraints and
//!   multi-item couplings dominate.
//! - **wide-flat**: a few roots calling many independent leaves —
//!   almost a pure dependency graph, the baselines' best case.
//! - **deep-chain**: long call chains — worst case for ddmin-style
//!   atom removal, easy for closure orders.

use lbr_prng::SplitMix64;
use lbr_stackvm::{Function, Global, Module, Op, Sig, StackBugKind, StackBugSet, StackOracle, Ty};
use std::sync::Arc;

/// The call-topology shape of a generated module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackShape {
    /// Dense indirect dispatch + global couplings.
    ConstraintDense,
    /// Few roots, many independent leaves.
    WideFlat,
    /// Long call chains.
    DeepChain,
}

impl StackShape {
    /// Every shape, in declaration order.
    pub const ALL: [StackShape; 3] = [
        StackShape::ConstraintDense,
        StackShape::WideFlat,
        StackShape::DeepChain,
    ];
}

/// Configuration for [`generate_stack`].
#[derive(Debug, Clone, PartialEq)]
pub struct StackWorkloadConfig {
    /// RNG seed (generation is fully deterministic per seed).
    pub seed: u64,
    /// Number of functions.
    pub functions: usize,
    /// Number of globals.
    pub globals: usize,
    /// Call topology.
    pub shape: StackShape,
    /// Statements per function body.
    pub stmts_per_function: (usize, usize),
    /// How many instances of each requested bug pattern to plant.
    pub plants_per_bug: usize,
    /// The bug kinds whose trigger patterns should be planted.
    pub plant: Vec<StackBugKind>,
}

impl Default for StackWorkloadConfig {
    fn default() -> Self {
        StackWorkloadConfig {
            seed: 0,
            functions: 24,
            globals: 4,
            shape: StackShape::ConstraintDense,
            stmts_per_function: (2, 5),
            plants_per_bug: 2,
            plant: Vec::new(),
        }
    }
}

impl StackWorkloadConfig {
    /// A randomized small configuration for differential fuzzing,
    /// mirroring [`crate::WorkloadConfig::sampled`]: geometry is drawn
    /// deterministically from `seed` (decorrelated from the content
    /// stream), the plant list is left to the caller.
    pub fn sampled(seed: u64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x57AC_6E0E_7121_C0DE);
        let shape = StackShape::ALL[rng.gen_range(0u64..=2) as usize];
        let s_lo = rng.gen_range(1usize..=2);
        StackWorkloadConfig {
            seed,
            functions: rng.gen_range(6usize..=14),
            globals: rng.gen_range(1usize..=3),
            shape,
            stmts_per_function: (s_lo, s_lo + rng.gen_range(1usize..=3)),
            plants_per_bug: rng.gen_range(1usize..=2),
            plant: Vec::new(),
        }
    }
}

/// The two signature classes generated functions draw from. Multiple
/// classes partition the `call_indirect` candidate sets, so
/// Or-constraints do not all collapse into one clause.
fn sig_classes() -> [Sig; 2] {
    [Sig::new(vec![], None), Sig::new(vec![Ty::Int], None)]
}

/// Generates a verifying module.
pub fn generate_stack(config: &StackWorkloadConfig) -> Module {
    let mut rng = SplitMix64::seed_from_u64(config.seed);
    let n = config.functions.max(1);
    let sigs = sig_classes();
    let mut module = Module::new();
    for g in 0..config.globals {
        module.globals.push(Global::new(format!("g{g}"), Ty::Int));
    }
    // Plan signatures first so call sites can be emitted in one pass.
    let fn_sigs: Vec<Sig> = (0..n)
        .map(|_| sigs[rng.gen_range(0u64..=1) as usize].clone())
        .collect();
    for i in 0..n {
        let sig = &fn_sigs[i];
        let mut body = Vec::new();
        let (lo, hi) = config.stmts_per_function;
        let stmts = rng.gen_range(lo as u64..=hi.max(lo) as u64) as usize;
        for _ in 0..stmts {
            emit_statement(&mut body, &mut rng, config, i, n, &fn_sigs, &sigs);
        }
        body.push(Op::Return);
        let mut f = Function::new(format!("f{i}"), sig.params.clone(), sig.ret);
        f.max_stack = 16;
        f.body = body;
        module.functions.push(f.into());
    }
    plant_bugs(&mut module, config, &mut rng);
    module
}

/// Emits one stack-neutral statement into `body`. Call targets follow
/// the configured shape.
#[allow(clippy::too_many_arguments)]
fn emit_statement(
    body: &mut Vec<Op>,
    rng: &mut SplitMix64,
    config: &StackWorkloadConfig,
    me: usize,
    n: usize,
    fn_sigs: &[Sig],
    sigs: &[Sig; 2],
) {
    let callee = match config.shape {
        // Dense: any function may be referenced.
        StackShape::ConstraintDense => rng.gen_range(0u64..n as u64) as usize,
        // Wide-flat: roots (first quarter) call leaves; leaves call no one.
        StackShape::WideFlat => {
            if me < n.div_ceil(4) {
                n.div_ceil(4) + rng.gen_range(0u64..(n - n.div_ceil(4)).max(1) as u64) as usize
            } else {
                me // self-reference degenerates to arithmetic below
            }
        }
        // Deep-chain: call the next function in the chain.
        StackShape::DeepChain => (me + 1).min(n - 1),
    };
    let kind = rng.gen_range(0u64..=9);
    match kind {
        // Arithmetic: push, push, op, drop.
        0..=2 => {
            body.push(Op::PushInt(
                rng.gen_range(0i64..=100_i64.unsigned_abs() as i64),
            ));
            body.push(Op::PushInt(rng.gen_range(0i64..=100)));
            body.push(match rng.gen_range(0u64..=1) {
                0 => Op::Add,
                _ => Op::Sub,
            });
            body.push(Op::Drop);
        }
        // Comparison: push, push, cmp, not, drop.
        3 => {
            body.push(Op::PushInt(rng.gen_range(0i64..=100)));
            body.push(Op::PushInt(rng.gen_range(0i64..=100)));
            body.push(Op::Lt);
            body.push(Op::Not);
            body.push(Op::Drop);
        }
        // Direct call (skipped when it would be a self-call).
        4..=6 if callee != me => {
            for _ in &fn_sigs[callee].params {
                body.push(Op::PushInt(rng.gen_range(0i64..=9)));
            }
            body.push(Op::Call(format!("f{callee}")));
        }
        // Indirect call in the dense shape only.
        7 if config.shape == StackShape::ConstraintDense => {
            let sig = sigs[rng.gen_range(0u64..=1) as usize].clone();
            for _ in &sig.params {
                body.push(Op::PushInt(rng.gen_range(0i64..=9)));
            }
            body.push(Op::PushInt(rng.gen_range(0i64..=9)));
            body.push(Op::CallIndirect(sig));
        }
        // Global read (dense shape couples functions through globals).
        8 if !config.shape_is_flat() && config.globals > 0 => {
            let g = rng.gen_range(0u64..config.globals as u64);
            body.push(Op::GlobalGet(format!("g{g}")));
            body.push(Op::Drop);
        }
        // Fallback: a constant.
        _ => {
            body.push(Op::PushInt(rng.gen_range(0i64..=100)));
            body.push(Op::Drop);
        }
    }
}

impl StackWorkloadConfig {
    fn shape_is_flat(&self) -> bool {
        self.shape == StackShape::WideFlat
    }
}

/// Function `i`'s body, for in-place edits while the module is built.
fn body_mut(module: &mut Module, i: usize) -> &mut Vec<Op> {
    &mut Arc::make_mut(&mut module.functions[i]).body
}

/// Plants the trigger patterns of the requested bug kinds into the
/// early functions (and early globals), mirroring the classfile
/// generator's bug-cluster discipline: a good reducer keeps only the
/// planted prefix.
fn plant_bugs(module: &mut Module, config: &StackWorkloadConfig, rng: &mut SplitMix64) {
    let n = module.functions.len();
    let mut host = 0usize;
    let mut next_host = |rng: &mut SplitMix64| {
        let h = host % n.clamp(1, 4);
        host += 1 + rng.gen_range(0u64..=1) as usize;
        h
    };
    for kind in &config.plant {
        for plant in 0..config.plants_per_bug {
            match kind {
                StackBugKind::IndirectDispatchMiscompile => {
                    let h = next_host(rng);
                    let sig = Sig::new(vec![], None);
                    let body = body_mut(module, h);
                    let at = body.len() - 1;
                    body.splice(at..at, [Op::PushInt(0), Op::CallIndirect(sig)]);
                }
                StackBugKind::NegativeConstantLowering => {
                    let h = next_host(rng);
                    let body = body_mut(module, h);
                    let at = body.len() - 1;
                    body.splice(at..at, [Op::PushInt(-(plant as i64 + 1)), Op::Drop]);
                }
                StackBugKind::LoopUnrollOverflow => {
                    let h = next_host(rng);
                    let body = body_mut(module, h);
                    let at = body.len() - 1;
                    // `push false; jump_if <self>` — a degenerate loop
                    // whose merge states agree.
                    body.splice(at..at, [Op::PushBool(false), Op::JumpIf(at as u32)]);
                }
                StackBugKind::GlobalAliasConfusion => {
                    if module.globals.is_empty() {
                        module.globals.push(Global::new("galias", Ty::Int));
                    }
                    let gname = module.globals[plant % module.globals.len()].name.clone();
                    let w = next_host(rng);
                    let body = body_mut(module, w);
                    let at = body.len() - 1;
                    body.splice(at..at, [Op::PushInt(1), Op::GlobalSet(gname.clone())]);
                    let r = next_host(rng);
                    let body = body_mut(module, r);
                    let at = body.len() - 1;
                    body.splice(at..at, [Op::GlobalGet(gname), Op::Drop]);
                }
                StackBugKind::CrossCallInliner => {
                    // Callee with a Mul body, plus a caller.
                    let callee = (n / 2 + plant) % n;
                    let body = body_mut(module, callee);
                    let at = body.len() - 1;
                    body.splice(at..at, [Op::PushInt(3), Op::PushInt(5), Op::Mul, Op::Drop]);
                    let callee_name = module.functions[callee].name.clone();
                    let callee_params = module.functions[callee].params.clone();
                    let caller = next_host(rng);
                    if caller != callee {
                        let body = body_mut(module, caller);
                        let at = body.len() - 1;
                        let mut call = Vec::new();
                        for _ in &callee_params {
                            call.push(Op::PushInt(0));
                        }
                        call.push(Op::Call(callee_name));
                        body.splice(at..at, call);
                    }
                }
            }
        }
    }
}

/// One failing (module, lowering pass) instance.
#[derive(Debug, Clone)]
pub struct StackBenchmark {
    /// A stable name, e.g. `svm3`.
    pub name: String,
    /// The input module.
    pub module: Module,
    /// The lowering pass's bugs.
    pub bugs: StackBugSet,
}

impl StackBenchmark {
    /// Builds the oracle for this benchmark.
    pub fn oracle(&self) -> StackOracle {
        StackOracle::new(&self.module, self.bugs.clone())
    }
}

/// Generates a stackvm benchmark suite: `count` modules with all bug
/// patterns planted, paired with the all-bugs lowering pass; only
/// failing instances are returned.
pub fn stack_suite(seed: u64, count: usize) -> Vec<StackBenchmark> {
    let mut out = Vec::new();
    for k in 0..count {
        let config = StackWorkloadConfig {
            seed: seed.wrapping_add(k as u64),
            shape: StackShape::ALL[k % StackShape::ALL.len()],
            plant: StackBugKind::ALL.to_vec(),
            ..StackWorkloadConfig::default()
        };
        let module = generate_stack(&config);
        let bugs = StackBugSet::all();
        if StackOracle::new(&module, bugs.clone()).is_failing() {
            out.push(StackBenchmark {
                name: format!("svm{k}"),
                module,
                bugs,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_stackvm::verify_module;

    #[test]
    fn every_shape_generates_verifying_modules() {
        for (i, shape) in StackShape::ALL.into_iter().enumerate() {
            for seed in 0..20u64 {
                let config = StackWorkloadConfig {
                    seed: seed * 31 + i as u64,
                    shape,
                    plant: StackBugKind::ALL.to_vec(),
                    ..StackWorkloadConfig::default()
                };
                let m = generate_stack(&config);
                let errors = verify_module(&m);
                assert!(
                    errors.is_empty(),
                    "{shape:?} seed {seed}: {}",
                    errors
                        .iter()
                        .map(|e| e.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let config = StackWorkloadConfig {
            seed: 99,
            plant: StackBugKind::ALL.to_vec(),
            ..StackWorkloadConfig::default()
        };
        assert_eq!(generate_stack(&config), generate_stack(&config));
    }

    #[test]
    fn sampled_configs_generate_verifying_failing_modules() {
        for seed in 0..30u64 {
            let mut config = StackWorkloadConfig::sampled(seed);
            config.plant = StackBugKind::ALL.to_vec();
            let m = generate_stack(&config);
            assert!(verify_module(&m).is_empty(), "seed {seed} must verify");
            assert!(
                StackOracle::new(&m, StackBugSet::all()).is_failing(),
                "seed {seed} must fail"
            );
        }
    }

    #[test]
    fn suite_yields_failing_instances() {
        let suite = stack_suite(7, 4);
        assert!(!suite.is_empty());
        for b in &suite {
            assert!(b.oracle().is_failing(), "{} must fail", b.name);
            assert!(
                verify_module(&b.module).is_empty(),
                "{} must verify",
                b.name
            );
        }
    }
}
