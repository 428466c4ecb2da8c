//! The incremental decompiler oracle against its reference.
//!
//! `DecompilerOracle::errors` memoizes decompiles and type-checks in the
//! candidate's reduction scope. Whatever it reuses, every answer must be
//! exactly `error_messages(&decompile_program(p, bugs))`: for candidates of
//! one materializer scope fed in random orders, for the same candidates
//! rebuilt outside any scope, for candidates that drop an interface a
//! `checkcast` names, for candidates edited with `Program::get_mut`, and
//! from four threads sharing one scope. And the memo must not outlive the
//! reduction that built it.

use lbr::classfile::{build_model, ClassFile, Flags, Insn, Item, Program};
use lbr::core::{Input, InputOracle};
use lbr::decompiler::{decompile_program, error_messages, BugKind, BugSet, DecompilerOracle};
use lbr::jreduce::ReductionSession;
use lbr::logic::{Var, VarSet};
use lbr::workload::{generate, WorkloadConfig};
use lbr_prng::SplitMix64;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

fn presets() -> [BugSet; 3] {
    [
        BugSet::decompiler_a(),
        BugSet::decompiler_b(),
        BugSet::decompiler_c(),
    ]
}

fn program(seed: u64) -> Program {
    generate(&WorkloadConfig {
        seed,
        classes: 12,
        interfaces: 5,
        implements_prob: 0.6,
        plant: BugKind::ALL.to_vec(),
        ..WorkloadConfig::default()
    })
}

fn reference(program: &Program, bugs: &BugSet) -> BTreeSet<String> {
    error_messages(&decompile_program(program, bugs))
}

/// The same classes in a program no reduction built.
fn unscoped(program: &Program) -> Program {
    program.classes().cloned().collect()
}

/// A GBR-like walk: mostly a few items toggled from the previous
/// candidate, so most classes repeat, and now and then a fresh draw.
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

/// Interfaces named by a `checkcast` right before an invoke: dropping one
/// flips what `CastToObject` emits in a class whose handle is unchanged.
fn cast_interfaces(program: &Program) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for class in program.classes() {
        for code in class.methods.iter().filter_map(|m| m.code.as_ref()) {
            for pair in code.insns.windows(2) {
                if let [Insn::CheckCast(t), Insn::InvokeVirtual(_) | Insn::InvokeInterface(_)] =
                    pair
                {
                    if program.get(t).is_some_and(ClassFile::is_interface) {
                        out.insert(t.clone());
                    }
                }
            }
        }
    }
    out
}

/// Edits that keep some handles and replace others.
fn edits(candidate: &Program, interfaces: &BTreeSet<String>) -> Vec<Program> {
    let mut out = Vec::new();
    // An interface turned into a class: casting classes keep their
    // handles, but their cast context changes.
    for name in interfaces.iter().filter(|n| candidate.contains(n)) {
        let mut edited = candidate.clone();
        edited.get_mut(name).expect("present").flags = Flags::PUBLIC;
        out.push(edited);
    }
    // One class loses its last method, another its interfaces.
    let first = |program: &Program, pick: &dyn Fn(&ClassFile) -> bool| {
        program.classes().find(|c| pick(c)).map(|c| c.name.clone())
    };
    if let Some(name) = first(candidate, &|c| !c.is_interface() && !c.methods.is_empty()) {
        let mut edited = candidate.clone();
        edited.get_mut(&name).expect("present").methods.pop();
        out.push(edited.clone());
        if let Some(other) = first(&edited, &|c| !c.interfaces.is_empty()) {
            edited.get_mut(&other).expect("present").interfaces.clear();
            out.push(edited);
        }
    }
    out
}

/// Checks every oracle's answer on `candidate`, scoped and unscoped.
fn check(oracles: &[(BugSet, DecompilerOracle)], candidate: &Program, what: &str) {
    let plain = unscoped(candidate);
    for (bugs, oracle) in oracles {
        let expected = reference(candidate, bugs);
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

#[test]
fn scoped_answers_equal_the_reference_on_random_candidate_sequences() {
    let mut rng = SplitMix64::seed_from_u64(0x0AC1E);
    let mut checked = 0;
    for seed in 1..=3 {
        let program = program(seed);
        let registry = build_model(&program)
            .expect("generated programs verify")
            .registry;
        let model = program.model().expect("generated programs verify");
        let vars = model.cnf.num_vars();
        // One scope serves all three decompilers, interleaved.
        let oracles: Vec<_> = presets()
            .into_iter()
            .map(|bugs| (bugs.clone(), DecompilerOracle::new(&program, bugs)))
            .collect();
        let interfaces = cast_interfaces(&program);
        assert!(
            !interfaces.is_empty(),
            "seed {seed} plants no interface cast"
        );

        let mut keeps = keep_sequence(&mut rng, vars, 40);
        // Drop each cast interface, then bring it back.
        for name in &interfaces {
            let var = registry
                .var(&Item::Interface(name.clone()))
                .expect("registered");
            let mut keep = VarSet::full(vars);
            keep.remove(var);
            keeps.push(keep);
            keeps.push(VarSet::full(vars));
        }
        for (i, keep) in keeps.iter().enumerate() {
            let candidate = (model.materialize)(keep);
            check(&oracles, &candidate, &format!("seed {seed} candidate {i}"));
            checked += 1;
            if i % 8 == 0 {
                for (j, edited) in edits(&candidate, &interfaces).iter().enumerate() {
                    check(
                        &oracles,
                        edited,
                        &format!("seed {seed} candidate {i} edit {j}"),
                    );
                    checked += 1;
                }
            }
        }
        // The coarse model's candidates share the original's handles.
        let coarse = program.coarse_model();
        for keep in keep_sequence(&mut rng, coarse.graph.len(), 12) {
            let candidate = (coarse.materialize)(&keep);
            check(
                &oracles,
                &candidate,
                &format!("seed {seed} coarse candidate"),
            );
            checked += 1;
        }
    }
    assert!(checked > 150, "only {checked} candidates checked");
}

#[test]
fn four_threads_on_one_scope_get_the_reference_answers() {
    let program = program(4);
    let model = program.model().expect("generated programs verify");
    let vars = model.cnf.num_vars();
    let mut rng = SplitMix64::seed_from_u64(4);
    let keeps = keep_sequence(&mut rng, vars, 24);
    let oracles: Vec<_> = presets()
        .into_iter()
        .map(|bugs| (bugs.clone(), DecompilerOracle::new(&program, bugs)))
        .collect();
    let expected: Vec<Vec<BTreeSet<String>>> = keeps
        .iter()
        .map(|keep| {
            let candidate = (model.materialize)(keep);
            oracles
                .iter()
                .map(|(bugs, _)| reference(&candidate, bugs))
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

/// Delegates to the decompiler oracle and records the highest strong count
/// the original program's class handles reach while the reduction runs.
struct Watching<'a> {
    oracle: &'a DecompilerOracle,
    handles: &'a [Arc<ClassFile>],
    peak: AtomicUsize,
}

impl InputOracle<Program> for Watching<'_> {
    fn baseline(&self) -> &BTreeSet<String> {
        self.oracle.baseline()
    }

    fn errors(&self, program: &Program) -> BTreeSet<String> {
        let errors = self.oracle.errors(program);
        let held = self.handles.iter().map(Arc::strong_count).max();
        self.peak.fetch_max(held.unwrap_or(0), Ordering::Relaxed);
        errors
    }
}

#[test]
fn the_oracle_memo_dies_with_the_reduction() {
    let program = program(5);
    let oracle = DecompilerOracle::new(&program, BugSet::decompiler_a());
    assert!(oracle.is_failing(), "the program must exhibit a bug");
    let handles: Vec<Arc<ClassFile>> = program.handles().cloned().collect();
    let before: Vec<usize> = handles.iter().map(Arc::strong_count).collect();
    for strategy in ["jreduce", "logical/greedy"] {
        let watching = Watching {
            oracle: &oracle,
            handles: &handles,
            peak: AtomicUsize::new(0),
        };
        let report = ReductionSession::new(&program, &watching)
            .strategy(strategy)
            .run()
            .expect("the reduction runs");
        assert!(report.predicate_calls > 0);
        if strategy == "jreduce" {
            // The coarse candidates share the original's handles, and the
            // memo holds every handle it has seen...
            let peak = watching.peak.load(Ordering::Relaxed);
            assert!(peak > before.iter().max().unwrap() + 1, "peak {peak}");
        }
        drop(report);
        // ...but only until the reduction and its report are gone.
        let after: Vec<usize> = handles.iter().map(Arc::strong_count).collect();
        assert_eq!(after, before, "{strategy} left class handles behind");
    }
}
