//! The incremental stackvm oracle against its reference.
//!
//! `StackOracle::errors` folds per-function facts memoized in the
//! candidate's reduction scope. Whatever it reuses, every answer must be
//! exactly `StackBugSet::error_messages`: for candidates of one
//! materializer fed in random orders, for the same candidates rebuilt
//! outside any scope, for a candidate edited with `Arc::make_mut` after it
//! was probed, from four threads sharing one scope, and on modules with
//! duplicate function names or a global named like a function. And the
//! memo must not outlive the reduction that built it.

use lbr::core::{Input, InputOracle};
use lbr::jreduce::ReductionSession;
use lbr::logic::{Var, VarSet};
use lbr::workload::{generate_stack, StackShape, StackWorkloadConfig};
use lbr_prng::SplitMix64;
use lbr_stackvm::{Function, Global, Module, Op, StackBugKind, StackBugSet, StackOracle, Ty};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

fn presets() -> [StackBugSet; 4] {
    [
        StackBugSet::lowering_a(),
        StackBugSet::lowering_b(),
        StackBugSet::lowering_c(),
        StackBugSet::all(),
    ]
}

fn module(seed: u64) -> Module {
    generate_stack(&StackWorkloadConfig {
        seed,
        functions: 40,
        globals: 6,
        shape: StackShape::ALL[seed as usize % StackShape::ALL.len()],
        plant: StackBugKind::ALL.to_vec(),
        ..StackWorkloadConfig::default()
    })
}

fn oracles(module: &Module) -> Vec<(StackBugSet, StackOracle)> {
    presets()
        .into_iter()
        .map(|bugs| (bugs.clone(), StackOracle::new(module, bugs)))
        .collect()
}

/// The same functions and globals in a module no reduction built.
fn unscoped(module: &Module) -> Module {
    let mut plain = Module::new();
    plain.functions = module.functions.clone();
    plain.globals = module.globals.clone();
    plain
}

/// A GBR-like walk: mostly a few items toggled from the previous
/// candidate, so most functions repeat, and now and then a fresh draw.
fn keep_sequence(rng: &mut SplitMix64, vars: usize, len: usize) -> Vec<VarSet> {
    let mut keep = VarSet::full(vars);
    let mut out = vec![keep.clone()];
    for _ in 1..len {
        if rng.gen_bool(0.15) {
            keep = VarSet::from_iter_with_universe(
                vars,
                (0..vars as u32).map(Var::new).filter(|_| rng.gen_bool(0.7)),
            );
        } else {
            for _ in 0..rng.gen_range(1..4usize) {
                let v = Var::new(rng.gen_range(0..vars) as u32);
                if !keep.remove(v) {
                    keep.insert(v);
                }
            }
        }
        out.push(keep.clone());
    }
    out
}

/// Checks every oracle's answer on `candidate`, scoped and unscoped.
fn check(oracles: &[(StackBugSet, StackOracle)], candidate: &Module, what: &str) {
    let plain = unscoped(candidate);
    for (bugs, oracle) in oracles {
        let expected = bugs.error_messages(candidate);
        assert_eq!(
            oracle.errors(candidate),
            expected,
            "{what}, scoped, {bugs:?}"
        );
        assert_eq!(
            oracle.errors(&plain),
            expected,
            "{what}, unscoped, {bugs:?}"
        );
    }
}

/// Bodies that gain and lose the patterns every bug looks for.
fn bodies(module: &Module) -> Vec<Vec<Op>> {
    let mut out = vec![
        vec![Op::Trap],
        vec![
            Op::PushInt(2),
            Op::PushInt(3),
            Op::Mul,
            Op::Drop,
            Op::Return,
        ],
        vec![Op::PushInt(-7), Op::Drop, Op::Jump(0)],
    ];
    if let Some(g) = module.globals.first() {
        let (get, set) = (Op::GlobalGet(g.name.clone()), Op::GlobalSet(g.name.clone()));
        out.push(vec![get, set, Op::Return]);
    }
    if let Some(f) = module.functions.last() {
        out.push(vec![Op::Call(f.name.clone()), Op::Return]);
    }
    out
}

/// Edits of an already probed candidate, each through `Arc::make_mut` on a
/// function the candidate shares with the reduction.
fn edits(candidate: &Module) -> Vec<Module> {
    let n = candidate.functions.len().max(1);
    let mut out = Vec::new();
    for (k, body) in bodies(candidate).into_iter().enumerate() {
        let mut edited = candidate.clone();
        if let Some(f) = edited.functions.get_mut((k * 7) % n) {
            Arc::make_mut(f).body = body;
        }
        out.push(edited);
    }
    out
}

#[test]
fn scoped_answers_equal_the_reference_on_random_candidate_sequences() {
    let mut rng = SplitMix64::seed_from_u64(0x57AC);
    let mut checked = 0;
    for seed in 1..=3 {
        let module = module(seed);
        let model = module.model().expect("generated modules verify");
        let vars = model.cnf.num_vars();
        // One scope serves all four lowering passes, interleaved.
        let oracles = oracles(&module);
        assert!(oracles.iter().all(|(_, o)| o.is_failing()), "seed {seed}");
        for (i, keep) in keep_sequence(&mut rng, vars, 60).iter().enumerate() {
            let candidate = (model.materialize)(keep);
            check(&oracles, &candidate, &format!("seed {seed} candidate {i}"));
            checked += 1;
            if i % 6 == 0 {
                for (j, edited) in edits(&candidate).iter().enumerate() {
                    check(
                        &oracles,
                        edited,
                        &format!("seed {seed} candidate {i} edit {j}"),
                    );
                    checked += 1;
                }
                // The edits copied the shared functions: the probed
                // candidate still answers as it did.
                check(
                    &oracles,
                    &candidate,
                    &format!("seed {seed} candidate {i} again"),
                );
            }
        }
        // The coarse model's candidates share the original's handles.
        let coarse = module.coarse_model();
        for keep in keep_sequence(&mut rng, coarse.graph.len(), 15) {
            let candidate = (coarse.materialize)(&keep);
            check(
                &oracles,
                &candidate,
                &format!("seed {seed} coarse candidate"),
            );
            checked += 1;
        }
    }
    assert!(checked > 250, "only {checked} candidates checked");
}

/// A module whose names collide: two functions named `twin` (only the
/// second multiplies, then only the first), a global named like a
/// function, and calls to a missing function.
fn colliding(first_multiplies: bool) -> Module {
    let mul = vec![
        Op::PushInt(2),
        Op::PushInt(3),
        Op::Mul,
        Op::Drop,
        Op::Return,
    ];
    let plain = vec![Op::Return];
    let mut m = Module::new();
    m.globals.push(Global::new("helper", Ty::Int));
    m.globals.push(Global::new("g", Ty::Int));
    m.globals.push(Global::new("g", Ty::Int));
    let mut twin = Function::new("twin", vec![], None);
    twin.body = if first_multiplies {
        mul.clone()
    } else {
        plain.clone()
    };
    m.functions.push(twin.into());
    let mut caller = Function::new("caller", vec![], None);
    caller.body = vec![
        Op::Call("twin".into()),
        Op::Call("missing".into()),
        Op::Call("helper".into()),
        Op::GlobalGet("helper".into()),
        Op::Drop,
        Op::GlobalGet("g".into()),
        Op::Drop,
        Op::Return,
    ];
    m.functions.push(caller.into());
    let mut helper = Function::new("helper", vec![], None);
    helper.body = vec![
        Op::PushInt(1),
        Op::GlobalSet("helper".into()),
        Op::PushInt(-1),
        Op::GlobalSet("g".into()),
        Op::Call("caller".into()),
        Op::Jump(0),
    ];
    m.functions.push(helper.into());
    let mut twin = Function::new("twin", vec![], None);
    twin.body = if first_multiplies { plain } else { mul };
    m.functions.push(twin.into());
    let mut caller = Function::new("caller", vec![], None);
    caller.body = vec![
        Op::PushInt(0),
        Op::CallIndirect(lbr_stackvm::Sig::new(vec![], None)),
    ];
    m.functions.push(caller.into());
    m
}

#[test]
fn colliding_names_answer_like_the_reference() {
    let mut rng = SplitMix64::seed_from_u64(0xC011);
    for first_multiplies in [false, true] {
        let module = colliding(first_multiplies);
        let oracles = oracles(&module);
        let all = StackBugSet::all().error_messages(&module);
        assert!(
            all.iter()
                .any(|e| e.contains("register aliasing on global `helper`")),
            "{all:?}"
        );
        assert_eq!(
            all.iter().any(|e| e.contains("calling `twin`")),
            first_multiplies,
            "only the first `twin` counts: {all:?}"
        );
        // Such a module does not verify, so its candidates come from the
        // coarse model, which stamps its scope on them just the same.
        let coarse = module.coarse_model();
        let vars = coarse.graph.len();
        check(&oracles, &module, "the whole module");
        for (i, keep) in keep_sequence(&mut rng, vars, 40).iter().enumerate() {
            let candidate = (coarse.materialize)(keep);
            check(
                &oracles,
                &candidate,
                &format!("{first_multiplies} candidate {i}"),
            );
            for (j, edited) in edits(&candidate).iter().enumerate() {
                check(
                    &oracles,
                    edited,
                    &format!("{first_multiplies} candidate {i} edit {j}"),
                );
            }
        }
    }
}

#[test]
fn a_probed_function_only_one_candidate_holds_is_copied_before_an_edit() {
    let module = module(6);
    let model = module.model().expect("generated modules verify");
    let oracles = oracles(&module);
    let mut candidate = (model.materialize)(&VarSet::full(model.cnf.num_vars()));
    // Give the candidate functions nothing else holds: an edit would
    // change them in place, at the address the memo recorded, if the memo
    // did not hold them too.
    for f in candidate.functions.iter_mut() {
        *f = Arc::new(Function::clone(f));
    }
    check(&oracles, &candidate, "before any edit");
    for (k, body) in bodies(&candidate).into_iter().enumerate() {
        for i in 0..candidate.functions.len().min(6) {
            Arc::make_mut(&mut candidate.functions[i]).body = body.clone();
            check(&oracles, &candidate, &format!("body {k} in function {i}"));
        }
    }
}

#[test]
fn four_threads_on_one_scope_get_the_reference_answers() {
    let module = module(4);
    let model = module.model().expect("generated modules verify");
    let vars = model.cnf.num_vars();
    let mut rng = SplitMix64::seed_from_u64(4);
    let keeps = keep_sequence(&mut rng, vars, 30);
    let oracles = oracles(&module);
    let expected: Vec<Vec<BTreeSet<String>>> = keeps
        .iter()
        .map(|keep| {
            let candidate = (model.materialize)(keep);
            oracles
                .iter()
                .map(|(bugs, _)| bugs.error_messages(&candidate))
                .collect()
        })
        .collect();
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        for t in 0..4 {
            let (model, keeps, oracles, expected) = (&model, &keeps, &oracles, &expected);
            let start = &start;
            s.spawn(move || {
                // All threads start on an empty scope together, each
                // walking the sequence from its own offset, so they race
                // to fill the same memo entries.
                start.wait();
                for round in 0..2 {
                    for k in 0..keeps.len() {
                        let i = (k * (t + 1) + t + round) % keeps.len();
                        let candidate = (model.materialize)(&keeps[i]);
                        for (o, (_, oracle)) in oracles.iter().enumerate() {
                            assert_eq!(oracle.errors(&candidate), expected[i][o], "thread {t}");
                        }
                    }
                }
            });
        }
    });
}

/// Delegates to the stackvm oracle and records the highest strong count
/// the original module's function handles reach while the reduction runs.
struct Watching<'a> {
    oracle: &'a StackOracle,
    handles: &'a [Arc<Function>],
    peak: AtomicUsize,
}

impl InputOracle<Module> for Watching<'_> {
    fn baseline(&self) -> &BTreeSet<String> {
        self.oracle.baseline()
    }

    fn errors(&self, module: &Module) -> BTreeSet<String> {
        let errors = self.oracle.errors(module);
        let held = self.handles.iter().map(Arc::strong_count).max();
        self.peak.fetch_max(held.unwrap_or(0), Ordering::Relaxed);
        errors
    }
}

#[test]
fn the_oracle_memo_dies_with_the_reduction() {
    let module = module(5);
    let oracle = StackOracle::new(&module, StackBugSet::all());
    assert!(oracle.is_failing(), "the module must exhibit a bug");
    let handles: Vec<Arc<Function>> = module.functions.clone();
    let before: Vec<usize> = handles.iter().map(Arc::strong_count).collect();
    for strategy in ["jreduce", "logical/greedy"] {
        let watching = Watching {
            oracle: &oracle,
            handles: &handles,
            peak: AtomicUsize::new(0),
        };
        let report = ReductionSession::new(&module, &watching)
            .strategy(strategy)
            .run()
            .expect("the reduction runs");
        assert!(report.predicate_calls > 0);
        // The candidates share the original's handles, and the memo holds
        // every handle it has seen...
        let peak = watching.peak.load(Ordering::Relaxed);
        assert!(
            peak > before.iter().max().unwrap() + 1,
            "{strategy}: peak {peak}"
        );
        drop(report);
        // ...but only until the reduction and its report are gone.
        let after: Vec<usize> = handles.iter().map(Arc::strong_count).collect();
        assert_eq!(after, before, "{strategy} left function handles behind");
    }
}
