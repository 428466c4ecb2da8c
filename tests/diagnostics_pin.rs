//! Pins of the mini compiler's diagnostics, recorded before the compiler
//! resolved supertypes once per probe and typed expressions on borrowed
//! names. `tests/oracle_incremental.rs` compares the oracle's memo with
//! `decompile_program` + `compile`, which uses the same compiler, so only
//! a pin taken from the earlier compiler can see a change in the compiler
//! itself.
//!
//! - The 12 programs a scale-1.2 `suite` draws and two interface-heavy
//!   programs, each decompiled by the three preset decompilers, whole and
//!   as random materialized candidates (keep-sets drawn without regard to
//!   the model, so candidates miss supertypes, members and cast targets).
//! - Hand-built source sets whose hierarchies no verified program has: a
//!   superclass cycle, an interface cycle, a missing supertype, an
//!   interface named as superclass, a class named as interface, and a user
//!   class named `Object`. Each comes with a probe class that types every
//!   kind of expression against every class of the set.

use lbr::classfile::Program;
use lbr::core::Input;
use lbr::decompiler::{
    compile, decompile_program, error_messages, BugKind, BugSet, SExpr, SourceClass, SourceMethod,
    SourceSet, SrcType, Stmt,
};
use lbr::logic::{Var, VarSet};
use lbr::workload::{generate, AdversarialShape, WorkloadConfig};
use lbr_prng::SplitMix64;
use std::collections::BTreeSet;

/// FNV-1a over the messages in set order, each followed by a zero byte.
fn digest(messages: &BTreeSet<String>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for m in messages {
        for &b in m.as_bytes().iter().chain(&[0]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A message set's pin: how many messages, and their digest.
type Pin = (usize, u64);

fn pin(messages: &BTreeSet<String>) -> Pin {
    (messages.len(), digest(messages))
}

fn presets() -> [BugSet; 3] {
    [
        BugSet::decompiler_a(),
        BugSet::decompiler_b(),
        BugSet::decompiler_c(),
    ]
}

/// The pin of every decompiler's messages on `program` and on `draws`
/// random candidates of it, all folded into one.
fn program_pin(program: &Program, rng: &mut SplitMix64, draws: usize) -> Pin {
    let model = program.model().expect("generated programs verify");
    let vars = model.cnf.num_vars();
    let mut candidates = vec![program.clone()];
    for k in 0..draws {
        let density = [0.5, 0.8, 0.95][k % 3];
        let keep = (0..vars as u32)
            .map(Var::new)
            .filter(|_| rng.gen_bool(density));
        candidates.push((model.materialize)(&VarSet::from_iter_with_universe(
            vars, keep,
        )));
    }
    let mut all = BTreeSet::new();
    let mut count = 0;
    for (k, candidate) in candidates.iter().enumerate() {
        for (d, bugs) in presets().iter().enumerate() {
            let messages = error_messages(&decompile_program(candidate, bugs));
            count += messages.len();
            all.extend(messages.into_iter().map(|m| format!("{k}/{d}: {m}")));
        }
    }
    (count, digest(&all))
}

/// Program `k` of a scale-1.2 `suite` with base seed 42.
fn suite_program(k: u64) -> Program {
    generate(
        &WorkloadConfig {
            seed: 42 + k,
            plant: BugKind::ALL.to_vec(),
            ..WorkloadConfig::default()
        }
        .scaled(1.2),
    )
}

fn interface_heavy_programs() -> [Program; 2] {
    [
        generate(&WorkloadConfig {
            plant: BugKind::ALL.to_vec(),
            ..WorkloadConfig::adversarial(AdversarialShape::ConstraintDense, 77)
        }),
        generate(&WorkloadConfig {
            seed: 78,
            classes: 24,
            interfaces: 16,
            cluster_size: 6,
            implements_prob: 1.0,
            iface_extends_prob: 0.9,
            plant: BugKind::ALL.to_vec(),
            ..WorkloadConfig::default()
        }),
    ]
}

const SUITE_PINS: &[Pin] = &[
    (1560, 3071144921249800318),
    (1503, 10366794523974229715),
    (1313, 18260950188768681756),
    (1343, 4308794708167222599),
    (1537, 16463119215305123262),
    (1341, 3189807740142789077),
    (1310, 12776360493378886229),
    (1295, 330586357613877950),
    (1239, 8757184264442181034),
    (1625, 2331928432407284751),
    (1069, 5456184125464070555),
    (1344, 16613441875798614017),
];

#[test]
fn suite_programs_and_candidates_are_pinned() {
    let mut rng = SplitMix64::seed_from_u64(0xD1A6);
    let got: Vec<Pin> = (0..12)
        .map(|k| program_pin(&suite_program(k), &mut rng, 9))
        .collect();
    assert_eq!(got, SUITE_PINS);
}

const INTERFACE_HEAVY_PINS: &[Pin] = &[(1044, 18031466805192630416), (2222, 7707238977598893523)];

#[test]
fn interface_heavy_programs_and_candidates_are_pinned() {
    let mut rng = SplitMix64::seed_from_u64(0x1F4CE);
    let got: Vec<Pin> = interface_heavy_programs()
        .iter()
        .map(|p| program_pin(p, &mut rng, 12))
        .collect();
    assert_eq!(got, INTERFACE_HEAVY_PINS);
}

fn class_ty(name: &str) -> SrcType {
    SrcType::Class(name.into())
}

fn ctor(class: &str, params: Vec<SrcType>) -> SourceMethod {
    SourceMethod {
        name: class.into(),
        is_ctor: true,
        ret: SrcType::Void,
        params: params
            .into_iter()
            .enumerate()
            .map(|(i, t)| (t, format!("p{i}")))
            .collect(),
        body: Some(vec![Stmt::Return(None)]),
    }
}

fn method(name: &str, ret: SrcType, body: Option<Vec<Stmt>>) -> SourceMethod {
    SourceMethod {
        name: name.into(),
        is_ctor: false,
        ret,
        params: vec![],
        body,
    }
}

/// A class with a constructor, a field `f` of type `field` and a method
/// `m` returning `Object`.
fn class(name: &str, superclass: &str, interfaces: &[&str], field: SrcType) -> SourceClass {
    let m = method(
        "m",
        class_ty("Object"),
        Some(vec![Stmt::Return(Some(SExpr::This))]),
    );
    SourceClass {
        name: name.into(),
        is_interface: false,
        is_abstract: false,
        superclass: Some(superclass.into()),
        interfaces: interfaces.iter().map(|&i| i.into()).collect(),
        fields: vec![(field, "f".into())],
        methods: vec![ctor(name, vec![]), m],
    }
}

/// An interface with the abstract method `n()`.
fn interface(name: &str, extends: &[&str]) -> SourceClass {
    SourceClass {
        name: name.into(),
        is_interface: true,
        is_abstract: true,
        superclass: None,
        interfaces: extends.iter().map(|&i| i.into()).collect(),
        fields: vec![],
        methods: vec![method("n", SrcType::Void, None)],
    }
}

/// A class `Probe` whose method `go` takes a parameter of each class of
/// `names` and types every expression kind against each, and each pair.
fn probe(names: &[&str]) -> SourceClass {
    let mut params = Vec::new();
    let mut body = Vec::new();
    for (i, &x) in names.iter().enumerate() {
        params.push((class_ty(x), format!("q{i}")));
        let q = || SExpr::Var(format!("q{i}"));
        body.extend([
            Stmt::Expr(SExpr::Call(Some(Box::new(q())), "m".into(), vec![])),
            Stmt::Expr(SExpr::Call(Some(Box::new(q())), "n".into(), vec![])),
            Stmt::Expr(SExpr::Call(Some(Box::new(q())), "ghost".into(), vec![q()])),
            Stmt::Expr(SExpr::Field(Box::new(q()), "f".into())),
            Stmt::Expr(SExpr::Field(Box::new(q()), "g".into())),
            Stmt::Expr(SExpr::New(x.into(), vec![])),
            Stmt::Expr(SExpr::New(x.into(), vec![q()])),
            Stmt::Expr(SExpr::StaticCall(x.into(), "m".into(), vec![])),
            Stmt::Expr(SExpr::InstanceOf(Box::new(q()), x.into())),
            Stmt::Expr(SExpr::ClassLiteral(x.into())),
            Stmt::IfNonZero(q()),
            Stmt::Expr(SExpr::Add(Box::new(q()), Box::new(SExpr::Int(1)))),
            Stmt::Throw(q()),
            Stmt::Assign(SExpr::Field(Box::new(q()), "f".into()), q()),
        ]);
        for (j, &y) in names.iter().enumerate() {
            body.push(Stmt::Local(class_ty(y), format!("v{i}_{j}"), q()));
            body.push(Stmt::Expr(SExpr::Cast(class_ty(y), Box::new(q()))));
        }
    }
    body.push(Stmt::Return(Some(SExpr::Var("q0".into()))));
    let mut go = method("go", class_ty(names[names.len() - 1]), Some(body));
    go.params = params;
    SourceClass {
        name: "Probe".into(),
        is_interface: false,
        is_abstract: false,
        superclass: Some("Object".into()),
        interfaces: vec![],
        fields: vec![],
        methods: vec![ctor("Probe", vec![]), go],
    }
}

/// The set of `classes` plus their probe, over their names and `extra`.
fn with_probe(mut classes: Vec<SourceClass>, extra: &[&str]) -> SourceSet {
    let mut names: Vec<&str> = classes.iter().map(|c| c.name.as_str()).collect();
    names.extend(extra);
    names.push("Object");
    let probe = probe(&names);
    classes.push(probe);
    SourceSet { classes }
}

/// The hand-built hierarchies, by name.
fn edge_cases() -> Vec<(&'static str, SourceSet)> {
    let cycle = vec![
        class("A", "B", &["I"], SrcType::Int),
        class("B", "A", &[], class_ty("A")),
        class("C", "A", &[], class_ty("C")),
        interface("I", &[]),
    ];
    let interface_cycle = vec![
        interface("I", &["J"]),
        interface("J", &["K", "I"]),
        interface("K", &["I"]),
        class("A", "Object", &["I"], SrcType::Int),
        class("B", "A", &["K"], class_ty("J")),
    ];
    let missing = vec![
        class("A", "Ghost", &["GhostI"], class_ty("Ghost")),
        class("B", "A", &["I"], SrcType::Int),
        interface("I", &["GhostJ"]),
    ];
    let interface_as_superclass = vec![
        interface("I", &[]),
        class("A", "I", &[], SrcType::Int),
        class("B", "A", &[], class_ty("I")),
    ];
    let class_as_interface = vec![
        class("A", "Object", &[], SrcType::Int),
        class("B", "Object", &["A"], class_ty("A")),
        interface("I", &["A", "B"]),
        class("C", "B", &["I"], SrcType::Int),
    ];
    let mut object = class("Object", "A", &["I"], SrcType::Int);
    object.methods.push(method("o", SrcType::Int, None));
    let object_class = vec![
        object,
        class("A", "Object", &[], class_ty("Object")),
        class("B", "Object", &["I"], SrcType::Int),
        interface("I", &[]),
    ];
    vec![
        ("superclass cycle", with_probe(cycle, &[])),
        ("interface cycle", with_probe(interface_cycle, &[])),
        (
            "missing supertype",
            with_probe(missing, &["Ghost", "GhostI"]),
        ),
        (
            "interface as superclass",
            with_probe(interface_as_superclass, &[]),
        ),
        ("class as interface", with_probe(class_as_interface, &[])),
        ("user class named Object", with_probe(object_class, &[])),
    ]
}

const EDGE_CASE_PINS: &[(&str, Pin)] = &[
    ("superclass cycle", (39, 3378724243018403826)),
    ("interface cycle", (53, 6623048177217787860)),
    ("missing supertype", (64, 9820397239573448943)),
    ("interface as superclass", (32, 11890296248786682628)),
    ("class as interface", (48, 15148370035699657053)),
    ("user class named Object", (28, 10136076925042772496)),
];

#[test]
fn hierarchy_edge_cases_are_pinned() {
    let got: Vec<(&str, Pin)> = edge_cases()
        .iter()
        .map(|(name, set)| {
            let diags = compile(set);
            let messages = error_messages(set);
            assert_eq!(diags.len(), messages.len(), "{name}: compile deduplicates");
            (*name, pin(&messages))
        })
        .collect();
    assert_eq!(got, EDGE_CASE_PINS);
}
