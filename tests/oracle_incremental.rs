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
//!
//! The memo keeps each method body's statements by body handle, and one
//! `Arc<Code>` can serve methods of different classes and declarations,
//! under different cast contexts: the second half of this file shares
//! bodies in each of those ways.

use lbr::classfile::{
    build_model, ClassFile, Code, FieldInfo, FieldRef, Flags, Insn, Item, MethodDescriptor,
    MethodInfo, MethodRef, Program, Type,
};
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

/// The oracles of the three presets and of a few single bugs.
fn oracles(program: &Program) -> Vec<(BugSet, DecompilerOracle)> {
    let singles = [BugKind::CastToObject, BugKind::EatPatternMatch].map(|k| BugSet::of(&[k]));
    (presets().into_iter().chain(singles).chain([BugSet::none()]))
        .map(|bugs| (bugs.clone(), DecompilerOracle::new(program, bugs)))
        .collect()
}

/// `program` as the keep-everything candidate of its own reduction: it
/// shares the input's bodies, and edits to it stay in the reduction scope.
fn in_scope(program: &Program) -> Program {
    let model = program.model().expect("the program verifies");
    let vars = model.cnf.num_vars();
    (model.materialize)(&VarSet::full(vars))
}

/// The body of `class`'s `index`-th method.
fn body(program: &Program, class: &str, index: usize) -> Arc<Code> {
    let class = program.get(class).expect("present");
    Arc::clone(class.methods[index].code.as_ref().expect("a body"))
}

/// A constructor that just returns.
fn ctor() -> MethodInfo {
    MethodInfo::new(
        "<init>",
        MethodDescriptor::void(),
        Code::new(1, 1, vec![Insn::Return]),
    )
}

/// A class with a constructor and a method `go` whose body stores `this`
/// in a new local: `A v1 = this;` in class `A`. Its statements name the
/// class, and whether slot 0 holds `this` or slot 1 a parameter depends on
/// the method's flags and descriptor.
fn this_storer(name: &str) -> ClassFile {
    let mut class = ClassFile::new_class(name);
    class.methods.push(ctor());
    class.methods.push(MethodInfo::new(
        "go",
        MethodDescriptor::void(),
        Code::new(1, 2, vec![Insn::ALoad(0), Insn::AStore(1), Insn::Return]),
    ));
    class
}

/// A copy of `class`'s method `index` under a new declaration, sharing its
/// body.
fn redeclared(class: &ClassFile, index: usize, edit: impl FnOnce(&mut MethodInfo)) -> MethodInfo {
    let mut method = class.methods[index].clone();
    edit(&mut method);
    method
}

#[test]
fn a_body_shared_by_two_classes_is_decompiled_per_class() {
    // `B v1 = this;` in `B`: reusing `A`'s statements would convert a `B`
    // to the unrelated `A`.
    let a = this_storer("A");
    let mut b = this_storer("B");
    b.methods[1] = a.methods[1].clone();
    let program: Program = [a, b].into_iter().collect();
    assert!(Arc::ptr_eq(
        &body(&program, "A", 1),
        &body(&program, "B", 1)
    ));
    let oracles = oracles(&program);
    check(&oracles, &program, "shared across classes");
    // The same in one reduction scope, with `B` arriving later.
    let mut scoped = in_scope(&[this_storer("A")].into_iter().collect());
    check(&oracles, &scoped, "A alone");
    let mut b = this_storer("B");
    b.methods[1] = scoped.get("A").expect("present").methods[1].clone();
    scoped.insert(b);
    assert!(Arc::ptr_eq(&body(&scoped, "A", 1), &body(&scoped, "B", 1)));
    check(&oracles, &scoped, "B joins A's scope");
}

#[test]
fn a_body_shared_by_different_declarations_is_decompiled_per_declaration() {
    let program: Program = [this_storer("A")].into_iter().collect();
    let oracles = oracles(&program);
    let scoped = in_scope(&program);
    check(&oracles, &scoped, "as built");
    // Another name: the same statements, and the same answers.
    let mut renamed = scoped.clone();
    let class = renamed.get_mut("A").expect("present");
    let method = redeclared(class, 1, |m| m.name = "run".into());
    class.methods.push(method);
    check(&oracles, &renamed, "a second name");
    // Static: slot 0 is no longer `this`, so `Object v1 = v0;` names an
    // unknown variable.
    let mut statik = scoped.clone();
    let class = statik.get_mut("A").expect("present");
    class.methods[1].flags = Flags::PUBLIC | Flags::STATIC;
    check(&oracles, &statik, "made static");
    // An overload taking an int: slot 1 is its parameter, so the store
    // becomes `p0 = this;`, an `A` converted to `int`.
    let mut overloaded = scoped.clone();
    let class = overloaded.get_mut("A").expect("present");
    let method = redeclared(class, 1, |m| {
        m.desc = MethodDescriptor::new(vec![Type::Int], None);
    });
    class.methods.push(method);
    check(&oracles, &overloaded, "an int overload");
    // All at once, in one class.
    let mut all = renamed;
    let class = all.get_mut("A").expect("present");
    let statik = redeclared(class, 1, |m| m.flags = Flags::PUBLIC | Flags::STATIC);
    let overload = redeclared(class, 1, |m| {
        m.desc = MethodDescriptor::new(vec![Type::Int], None);
    });
    class.methods.extend([statik, overload]);
    check(&oracles, &all, "every declaration");
}

/// `I { m() }` and `A implements I` whose `go` casts `this` to `I` and
/// calls `m`: `CastToObject` emits `((Object) this).m()` while `I` is an
/// interface.
fn casting_program() -> Program {
    let mut i = ClassFile::new_interface("I");
    i.methods
        .push(MethodInfo::new_abstract("m", MethodDescriptor::void()));
    let mut a = ClassFile::new_class("A");
    a.interfaces.push("I".into());
    a.methods.push(ctor());
    a.methods.push(MethodInfo::new(
        "m",
        MethodDescriptor::void(),
        Code::new(1, 1, vec![Insn::Return]),
    ));
    a.methods.push(MethodInfo::new(
        "go",
        MethodDescriptor::void(),
        Code::new(
            1,
            1,
            vec![
                Insn::ALoad(0),
                Insn::CheckCast("I".into()),
                Insn::InvokeInterface(MethodRef::new("I", "m", MethodDescriptor::void())),
                Insn::Return,
            ],
        ),
    ));
    [i, a].into_iter().collect()
}

#[test]
fn a_body_under_two_cast_contexts_is_decompiled_per_context() {
    let program = casting_program();
    let oracles = oracles(&program);
    let scoped = in_scope(&program);
    check(&oracles, &scoped, "I an interface");
    // `I` becomes a class and `A` a new handle that shares `go`'s body:
    // the body's context flips, so its statements must too.
    let mut flipped = scoped.clone();
    flipped.get_mut("I").expect("present").flags = Flags::PUBLIC;
    let a = flipped.get_mut("A").expect("present");
    a.interfaces.clear();
    assert!(Arc::ptr_eq(&body(&scoped, "A", 2), &body(&flipped, "A", 2)));
    check(&oracles, &flipped, "I a class");
    // And back, in a third shape of `A`.
    let mut back = scoped.clone();
    back.get_mut("A").expect("present").methods.swap(0, 1);
    check(&oracles, &back, "I an interface again");
    check(&oracles, &flipped, "I a class again");
    // One program holding both: `I` an interface, `B` a copy of `A`
    // whose context is the same.
    let mut both = scoped;
    let mut b = both.get("A").expect("present").clone();
    b.name = "B".into();
    both.insert(b);
    check(&oracles, &both, "two classes, one context");
}

#[test]
fn eat_pattern_match_eats_every_method_that_shares_a_body() {
    // `A` and `B` implement `I.m` with one shared body that matches a
    // pattern: decompilers with `EatPatternMatch` drop it from both.
    let mut i = ClassFile::new_interface("I");
    i.methods
        .push(MethodInfo::new_abstract("m", MethodDescriptor::void()));
    let matchy = MethodInfo::new(
        "m",
        MethodDescriptor::void(),
        Code::new(
            1,
            1,
            vec![
                Insn::ALoad(0),
                Insn::InstanceOf("I".into()),
                Insn::Pop,
                Insn::Return,
            ],
        ),
    );
    let mut classes = vec![i];
    for name in ["A", "B"] {
        let mut class = ClassFile::new_class(name);
        class.interfaces.push("I".into());
        class.methods.push(ctor());
        class.methods.push(matchy.clone());
        classes.push(class);
    }
    let program: Program = classes.into_iter().collect();
    let oracles = oracles(&program);
    let eater = &oracles[4];
    assert!(eater.0.contains(BugKind::EatPatternMatch));
    assert_eq!(eater.1.error_count(), 2, "{:?}", eater.1.baseline());
    check(&oracles, &program, "unscoped");
    let scoped = in_scope(&program);
    check(&oracles, &scoped, "scoped");
    // `B` gets a second copy of the body under another name.
    let mut renamed = scoped.clone();
    let b = renamed.get_mut("B").expect("present");
    let method = redeclared(b, 1, |m| m.name = "n".into());
    b.methods.push(method);
    check(&oracles, &renamed, "a second name");
}

#[test]
fn stubs_are_shared_across_shapes() {
    let program = program(6);
    let registry = build_model(&program)
        .expect("generated programs verify")
        .registry;
    let model = program.model().expect("generated programs verify");
    let vars = model.cnf.num_vars();
    let oracles = oracles(&program);
    // Two concrete methods of one class.
    let class = (program.classes())
        .find(|c| c.methods.iter().filter(|m| m.code.is_some()).count() >= 2)
        .expect("a class with two bodies");
    let stubbed: Vec<(usize, Var)> = (class.methods.iter().enumerate())
        .filter(|(_, m)| m.code.is_some())
        .filter_map(|(i, m)| {
            let item = if m.is_init() {
                Item::ConstructorCode(class.name.clone(), m.desc.to_string())
            } else {
                Item::MethodCode(class.name.clone(), m.name.clone(), m.desc.to_string())
            };
            Some((i, registry.var(&item)?))
        })
        .take(2)
        .collect();
    assert_eq!(stubbed.len(), 2);
    // Every shape that stubs the first body: alone, with the second, and
    // with a field or a class elsewhere gone too.
    let mut rng = SplitMix64::seed_from_u64(6);
    let mut shapes = Vec::new();
    for round in 0..8 {
        let mut keep = VarSet::full(vars);
        keep.remove(stubbed[0].1);
        if round % 2 == 1 {
            keep.remove(stubbed[1].1);
        }
        if round >= 2 {
            keep.remove(Var::new(rng.gen_range(0..vars) as u32));
        }
        let candidate = (model.materialize)(&keep);
        check(&oracles, &candidate, &format!("shape {round}"));
        shapes.push(candidate);
    }
    let stubs = |index: usize| -> Vec<Arc<Code>> {
        let present = shapes.iter().filter_map(|s| s.get(&class.name));
        let bodies = present.filter_map(|c| c.methods.get(index)?.code.clone());
        bodies
            .filter(|b| !Arc::ptr_eq(b, &body(&program, &class.name, index)))
            .collect()
    };
    let first = stubs(stubbed[0].0);
    assert!(first.len() >= 2, "too few shapes stub the first body");
    assert!(
        first.iter().all(|s| Arc::ptr_eq(s, &first[0])),
        "one stub per method"
    );
    assert_eq!(first[0].insns, vec![Insn::AConstNull, Insn::AThrow]);
    let second = stubs(stubbed[1].0);
    assert!(!second.is_empty());
    assert!(second.iter().all(|s| Arc::ptr_eq(s, &second[0])));
    assert!(
        !Arc::ptr_eq(&first[0], &second[0]),
        "each method its own stub"
    );
}

#[test]
fn editing_a_memoized_body_copies_it() {
    let program = casting_program();
    let oracles = oracles(&program);
    let scoped = in_scope(&program);
    check(&oracles, &scoped, "as built");
    let mut edited = scoped.clone();
    let a = edited.get_mut("A").expect("present");
    let code = a.methods[2].code.as_mut().expect("a body");
    // `throw 1;`: an int cannot be thrown.
    Arc::make_mut(code).insns = vec![Insn::IConst(1), Insn::AThrow];
    assert!(!Arc::ptr_eq(&body(&scoped, "A", 2), &body(&edited, "A", 2)));
    assert_eq!(
        body(&scoped, "A", 2),
        body(&program, "A", 2),
        "the original is untouched"
    );
    check(&oracles, &edited, "edited body");
    check(&oracles, &scoped, "original again");
}

#[test]
fn a_class_renamed_in_place_is_cast_to_by_key_and_looked_up_by_name() {
    // `Program::get`, which answers the decompiler's cast question, finds
    // a class by its key in the program; the compiler finds it by its own
    // name. A rename through `get_mut` makes the two differ.
    let program = casting_program();
    let oracles = oracles(&program);
    let scoped = in_scope(&program);
    let mut renamed = scoped.clone();
    renamed.get_mut("I").expect("present").name = "K".into();
    // Without `I`, `A`'s cast context reads "not an interface" by right.
    let mut without = scoped.clone();
    without.remove("I");
    let sequence = [
        ("as built", &scoped),
        ("I renamed K", &renamed),
        ("I gone", &without),
        ("I renamed K again", &renamed),
    ];
    for (what, candidate) in sequence {
        for (bugs, oracle) in &oracles {
            let expected = reference(candidate, bugs);
            assert_eq!(oracle.errors(candidate), expected, "{what}, {bugs:?}");
        }
    }
    let (bugs, oracle) = &oracles[3];
    assert_eq!(*bugs, BugSet::of(&[BugKind::CastToObject]));
    let errors = oracle.errors(&renamed);
    assert!(
        errors.iter().any(|e| e.contains("in Object")),
        "the cast still sees an interface under I: {errors:?}"
    );
}

/// `B extends C extends D implements K`, `K extends L`, with `D.m()` and
/// the field `D.f`. Classes `X` and `Y` read `p0.f` in `go(B)`, which walks
/// `B`'s superclass chain alone; classes `U` and `V` call `p0.m()` and
/// `Z.take(p0)`, where `take` takes an `L`, which walk `B`'s superclass
/// chain and interface closure.
fn deep_hierarchy_program() -> Program {
    let l = ClassFile::new_interface("L");
    let mut k = ClassFile::new_interface("K");
    k.interfaces.push("L".into());
    let mut d = ClassFile::new_class("D");
    d.interfaces.push("K".into());
    d.fields.push(FieldInfo::new("f", Type::Int));
    d.methods.push(ctor());
    d.methods.push(MethodInfo::new(
        "m",
        MethodDescriptor::void(),
        Code::new(1, 1, vec![Insn::Return]),
    ));
    let mut classes = vec![l, k, d];
    for (name, superclass) in [("C", "D"), ("B", "C")] {
        let mut class = ClassFile::new_class(name);
        class.superclass = Some(superclass.into());
        class.methods.push(ctor());
        classes.push(class);
    }
    let mut z = ClassFile::new_class("Z");
    z.methods.push(ctor());
    let takes_l = MethodDescriptor::new(vec![Type::reference("L")], None);
    let code = Code::new(1, 1, vec![Insn::Return]);
    let mut take = MethodInfo::new("take", takes_l.clone(), code);
    take.flags = Flags::PUBLIC | Flags::STATIC;
    z.methods.push(take);
    classes.push(z);
    let reads = vec![
        Insn::ALoad(1),
        Insn::GetField(FieldRef::new("B", "f", Type::Int)),
        Insn::Pop,
        Insn::Return,
    ];
    let calls = vec![
        Insn::ALoad(1),
        Insn::InvokeVirtual(MethodRef::new("B", "m", MethodDescriptor::void())),
        Insn::ALoad(1),
        Insn::InvokeStatic(MethodRef::new("Z", "take", takes_l)),
        Insn::Return,
    ];
    for (name, insns) in [("X", &reads), ("Y", &reads), ("U", &calls), ("V", &calls)] {
        let mut class = ClassFile::new_class(name);
        class.methods.push(ctor());
        class.methods.push(MethodInfo::new(
            "go",
            MethodDescriptor::new(vec![Type::reference("B")], None),
            Code::new(1, 2, insns.clone()),
        ));
        classes.push(class);
    }
    classes.into_iter().collect()
}

#[test]
fn a_check_that_took_another_checks_supertype_walk_sees_the_walk_change() {
    // Within one probe the compiler walks `B`'s supertypes once: `B`'s own
    // check walks its interface closure and `U`'s its superclass chain;
    // `V`, `X` and `Y` take those walks. Each must still depend on every
    // class the walk looked up, so that when `D` deep in the chain gains a
    // field or a method, or `K` deep in the closure a supertype, the
    // classes that read it are checked again with their handles unchanged.
    let program = deep_hierarchy_program();
    let oracles = oracles(&program);
    let full = in_scope(&program);
    let edit = |from: &Program, class: &str, edit: &dyn Fn(&mut ClassFile)| {
        let mut edited = from.clone();
        edit(edited.get_mut(class).expect("present"));
        edited
    };
    let k_gains_l = full;
    let d_gains_k = edit(&k_gains_l, "K", &|k| k.interfaces.clear());
    let d_gains_m = edit(&d_gains_k, "D", &|d| d.interfaces.clear());
    let d_gains_f = edit(&d_gains_m, "D", &|d| d.methods.retain(|m| m.name != "m"));
    let bare = edit(&d_gains_f, "D", &|d| d.fields.clear());
    // Each step, and whether it changes what the reading classes report.
    let sequence = [
        ("bare", &bare, true),
        ("D gains f", &d_gains_f, true),
        ("D gains m", &d_gains_m, true),
        ("D gains K", &d_gains_k, false),
        ("K gains L", &k_gains_l, true),
        ("bare again", &bare, true),
    ];
    let readers = |errors: &BTreeSet<String>| -> Vec<String> {
        let read = ["[U", "[V", "[X", "[Y"];
        let read = errors.iter().filter(|e| read.iter().any(|r| e.contains(r)));
        read.cloned().collect()
    };
    for (bugs, oracle) in &oracles {
        let mut before: Option<Vec<String>> = None;
        for (what, candidate, changes) in sequence {
            let expected = reference(candidate, bugs);
            let errors = oracle.errors(candidate);
            assert_eq!(errors, expected, "{what}, {bugs:?}");
            // With the bug-free decompiler, which emits the reads and calls
            // as written, a step that changes the readers' messages shows
            // they were checked again.
            let now = readers(&errors);
            if *bugs == BugSet::none() {
                if let Some(before) = &before {
                    assert_eq!(before != &now, changes, "{what}: {before:?} then {now:?}");
                }
            }
            before = Some(now);
        }
    }
}
