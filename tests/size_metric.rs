//! The size metric against the writers.
//!
//! A reduction's candidates are measured from per-unit footprints, not by
//! encoding them: a classfile candidate sums per-class sizes from each
//! class's size plan, and a stackvm candidate sums per-function sizes
//! memoized in its reduction scope. Whatever they reuse, every size must
//! be exactly what the writer produces: `write_class(..).len()` summed
//! over the classes, and `write_module(..).len()` less the 13-byte
//! container header. That holds for random keep-sets over suite programs
//! and over every member geometry a size plan distinguishes, after an edit
//! of a measured candidate, and from two probe threads sharing one scope.

mod common;

use common::{
    diamond_program, member_geometry_program, paperish_program, path_cap_program,
    reflection_program,
};
use lbr::classfile::{write_class, Program};
use lbr::core::{Input, InputOracle};
use lbr::jreduce::ReductionSession;
use lbr::logic::{Var, VarSet};
use lbr::workload::{generate_stack, suite, StackShape, StackWorkloadConfig, SuiteConfig};
use lbr_prng::SplitMix64;
use lbr_stackvm::{write_module, Function, Module, Op, StackBugKind, StackBugSet, StackOracle};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The program's size as the writer produces it.
fn written(program: &Program) -> usize {
    program.classes().map(|c| write_class(c).len()).sum()
}

/// The module's size as the writer produces it, less the container
/// header the metric excludes.
fn written_module(module: &Module) -> usize {
    write_module(module).len() - 13
}

/// Keep-sets over `vars` variables: everything, nothing, every variable
/// whose containment level is below 2 (every method body stubbed), then
/// `draws` random subsets of varying density.
fn keep_sets(rng: &mut SplitMix64, levels: &[u8], draws: usize) -> Vec<VarSet> {
    let vars = levels.len();
    let all = (0..vars as u32).map(Var::new);
    let mut out = vec![
        VarSet::full(vars),
        VarSet::empty(vars),
        VarSet::from_iter_with_universe(vars, all.filter(|v| levels[v.index()] < 2)),
    ];
    for _ in 0..draws {
        let density = rng.gen_range(1..10usize) as f64 / 10.0;
        out.push(VarSet::from_iter_with_universe(
            vars,
            (0..vars as u32)
                .map(Var::new)
                .filter(|_| rng.gen_bool(density)),
        ));
    }
    out
}

/// Materializes random candidates of `program` and checks each one's size,
/// then the size of an edited copy of it.
fn check_program(program: &Program, rng: &mut SplitMix64, draws: usize) -> usize {
    let model = program.model().expect("the program verifies");
    let mut checked = 0;
    for keep in keep_sets(rng, &model.levels, draws) {
        let candidate = (model.materialize)(&keep);
        assert_eq!(candidate.byte_size(), written(&candidate), "keep {keep:?}");
        // The same class shapes again: served from the materializer's memo.
        let again = (model.materialize)(&keep);
        assert_eq!(again.byte_size(), written(&again), "again {keep:?}");
        let Some(name) = candidate.names().next().map(str::to_owned) else {
            continue;
        };
        let mut edited = candidate.clone();
        let class = edited.get_mut(&name).expect("present");
        class.methods.pop();
        class.interfaces.push("Extra".into());
        assert_eq!(edited.byte_size(), written(&edited), "edited {name}");
        assert_eq!(candidate.byte_size(), written(&candidate), "original");
        checked += 1;
    }
    checked
}

#[test]
fn classfile_sizes_equal_the_writer_on_suite_programs() {
    let benchmarks = suite(&SuiteConfig {
        seed: 7,
        programs: 3,
        scale: 1.2,
    });
    let mut rng = SplitMix64::seed_from_u64(0x512E);
    let mut programs: Vec<&Program> = benchmarks.iter().map(|b| &b.program).collect();
    programs.dedup();
    assert!(programs.len() >= 2, "the suite yields distinct programs");
    for program in programs {
        assert_eq!(program.byte_size(), written(program));
        assert!(check_program(program, &mut rng, 40) > 0);
    }
}

#[test]
fn classfile_sizes_equal_the_writer_on_every_member_geometry() {
    let mut rng = SplitMix64::seed_from_u64(0x6E0);
    for program in [
        member_geometry_program(),
        paperish_program(),
        diamond_program(),
        reflection_program(),
        path_cap_program(),
    ] {
        assert_eq!(program.byte_size(), written(&program));
        assert!(check_program(&program, &mut rng, 200) > 0);
    }
}

#[test]
fn classfile_coarse_candidates_carry_exact_sizes() {
    let benchmarks = suite(&SuiteConfig {
        seed: 3,
        programs: 1,
        scale: 1.2,
    });
    let program = &benchmarks[0].program;
    let coarse = program.coarse_model();
    let n = coarse.graph.len();
    let mut rng = SplitMix64::seed_from_u64(0xC0A);
    for _ in 0..30 {
        let keep = VarSet::from_iter_with_universe(
            n,
            (0..n as u32).map(Var::new).filter(|_| rng.gen_bool(0.5)),
        );
        let candidate = (coarse.materialize)(&keep);
        assert_eq!(candidate.byte_size(), written(&candidate));
    }
}

fn stack_module(seed: u64, functions: usize) -> Module {
    generate_stack(&StackWorkloadConfig {
        seed,
        functions,
        globals: 6,
        shape: StackShape::ALL[seed as usize % StackShape::ALL.len()],
        plant: StackBugKind::ALL.to_vec(),
        ..StackWorkloadConfig::default()
    })
}

#[test]
fn stackvm_sizes_equal_the_writer_on_materialized_candidates() {
    let mut rng = SplitMix64::seed_from_u64(0x57A);
    for seed in 0..6 {
        let module = stack_module(seed, 40);
        assert_eq!(module.byte_size(), written_module(&module));
        let model = module.model().expect("generated modules verify");
        for keep in keep_sets(&mut rng, &model.levels, 30) {
            let candidate = (model.materialize)(&keep);
            assert_eq!(candidate.byte_size(), written_module(&candidate));
            assert_eq!(
                candidate.byte_size(),
                written_module(&candidate),
                "memo hit"
            );
            // An edit through `Arc::make_mut` copies the function the scope
            // measured, and the copy is measured anew.
            let mut edited = candidate.clone();
            if let Some(f) = edited.functions.first_mut() {
                let f = Arc::make_mut(f);
                f.body.push(Op::Call("a_much_longer_callee_name".into()));
                f.name.push_str("_renamed");
            }
            assert_eq!(edited.byte_size(), written_module(&edited), "edited");
            assert_eq!(candidate.byte_size(), written_module(&candidate), "kept");
            // A function only this candidate holds, measured and then
            // edited: the scope's table holds the handle too, so the edit
            // copies it instead of changing what the table measured.
            let mut own = candidate.clone();
            own.functions
                .push(Arc::new(Function::new("own", vec![], None)));
            assert_eq!(own.byte_size(), written_module(&own), "own");
            let last = own.functions.last_mut().expect("pushed");
            Arc::make_mut(last)
                .body
                .push(Op::Call("another_long_callee".into()));
            assert_eq!(own.byte_size(), written_module(&own), "own, edited");
        }
    }
}

/// A stackvm oracle that also checks the size of every candidate it is
/// asked about. It counts mismatches instead of panicking: a panic on a
/// probe thread would leave the search waiting for that probe's verdict.
struct SizeChecking {
    inner: StackOracle,
    checked: AtomicUsize,
    mismatched: AtomicUsize,
}

impl InputOracle<Module> for SizeChecking {
    fn baseline(&self) -> &BTreeSet<String> {
        self.inner.baseline()
    }

    fn errors(&self, input: &Module) -> BTreeSet<String> {
        if input.byte_size() != written_module(input) {
            self.mismatched.fetch_add(1, Ordering::Relaxed);
        }
        self.checked.fetch_add(1, Ordering::Relaxed);
        self.inner.errors(input)
    }
}

#[test]
fn stackvm_sizes_equal_the_writer_from_two_probe_threads() {
    for seed in 0..3 {
        let module = stack_module(seed, 60);
        let oracle = SizeChecking {
            inner: StackOracle::new(&module, StackBugSet::all()),
            checked: AtomicUsize::new(0),
            mismatched: AtomicUsize::new(0),
        };
        assert!(oracle.is_failing(), "seed {seed} plants a bug");
        let threaded = ReductionSession::new(&module, &oracle)
            .strategy("logical/greedy")
            .probe_threads(2)
            .run()
            .expect("reduces");
        assert!(oracle.checked.load(Ordering::Relaxed) > 0);
        assert_eq!(oracle.mismatched.load(Ordering::Relaxed), 0, "seed {seed}");
        let reduced = &threaded.reduced;
        assert_eq!(reduced.byte_size(), written_module(reduced));
    }
}
