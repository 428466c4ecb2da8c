//! The meaning of the classfile model: each constraint family forces what
//! the verifier needs, and every model reduces to a program that verifies
//! (the bytecode Theorem 3.1), also past the obligation path cap.

mod common;

use common::{ctor, diamond_program, paperish_program, path_cap_program, reflection_program};
use lbr::classfile::{
    build_model, reduce_program, supertype_paths, verify_program, ClassFile, Code, Insn, Item,
    ItemRegistry, LogicalModel, MethodDescriptor, MethodInfo, Program,
};
use lbr::logic::{dpll, Lit, Var, VarOrder, VarSet};

/// The variable of a registered item.
fn var(reg: &ItemRegistry, item: Item) -> Var {
    reg.var(&item)
        .unwrap_or_else(|| panic!("{item} is registered"))
}

fn pos(reg: &ItemRegistry, item: Item) -> Lit {
    Lit::pos(var(reg, item))
}

fn neg(reg: &ItemRegistry, item: Item) -> Lit {
    Lit::neg(var(reg, item))
}

/// A DPLL model of `model` under `assumptions`, if one exists.
fn solve(model: &LogicalModel, assumptions: &[Lit]) -> Option<VarSet> {
    let order = VarOrder::natural(model.registry.len());
    dpll::solve_with_assumptions(&model.cnf, &order, assumptions).map(|(solution, _)| solution)
}

fn method(class: &str, name: &str) -> Item {
    Item::Method(class.into(), name.into(), "()V".into())
}

fn signature(class: &str, name: &str) -> Item {
    Item::Signature(class.into(), name.into(), "()V".into())
}

fn implements(class: &str, iface: &str) -> Item {
    Item::Implements(class.into(), iface.into())
}

fn iface_extends(sub: &str, sup: &str) -> Item {
    Item::InterfaceExtends(sub.into(), sup.into())
}

#[test]
fn model_builds_on_valid_program() {
    let p = paperish_program();
    assert!(verify_program(&p).is_empty());
    let model = build_model(&p).expect("model builds");
    let stats = model.stats();
    assert!(stats.items > 10);
    assert!(stats.clauses > stats.items / 2);
    assert!(stats.graph_fraction > 0.5 && stats.graph_fraction <= 1.0);
}

#[test]
fn full_keep_satisfies_model() {
    let p = paperish_program();
    let model = build_model(&p).expect("model builds");
    let all = VarSet::full(model.registry.len());
    assert!(
        model.cnf.eval(&all),
        "the whole input must be a model (R_I(I) holds)"
    );
}

#[test]
fn models_reduce_to_verifying_programs() {
    // The bytecode Theorem 3.1: every satisfying assignment reduces to
    // a verifying program. Check a spread of models found by DPLL with
    // different orders and assumptions.
    let p = paperish_program();
    let model = build_model(&p).expect("model builds");
    let n = model.registry.len();
    let mut checked = 0;
    for flip in 0..n {
        let order = VarOrder::from_permutation(
            (0..n as u32)
                .map(|i| Var::new((i + flip as u32) % n as u32))
                .collect(),
        );
        let assumption = Lit::pos(Var::new(flip as u32));
        if let Some((solution, _)) = dpll::solve_with_assumptions(&model.cnf, &order, &[assumption])
        {
            let reduced = reduce_program(&p, &model.registry, &solution);
            let errors = verify_program(&reduced);
            assert!(
                errors.is_empty(),
                "model {} reduced to invalid program: {errors:?}",
                model.registry.render_solution(&solution)
            );
            checked += 1;
        }
    }
    assert!(checked > 5, "expected several satisfiable probes");
}

#[test]
fn obligation_requires_implementation() {
    // Keeping A, A<I and I.m must force keeping A.m.
    let model = build_model(&paperish_program()).expect("model builds");
    let reg = &model.registry;
    let assumptions = [
        pos(reg, Item::Class("A".into())),
        pos(reg, implements("A", "I")),
        pos(reg, signature("I", "m")),
        neg(reg, method("A", "m")),
    ];
    assert!(
        solve(&model, &assumptions).is_none(),
        "dropping A.m while keeping A<I and I.m must be unsatisfiable"
    );
}

#[test]
fn cast_requires_relation() {
    // M.main!code casts A to I: keeping it must force A<I.
    let model = build_model(&paperish_program()).expect("model builds");
    let reg = &model.registry;
    let assumptions = [
        pos(
            reg,
            Item::MethodCode("M".into(), "main".into(), "()V".into()),
        ),
        neg(reg, implements("A", "I")),
    ];
    assert!(
        solve(&model, &assumptions).is_none(),
        "the cast dependency [M.main!code] ⇒ [A<I] must hold"
    );
}

#[test]
fn class_requires_a_constructor() {
    let model = build_model(&paperish_program()).expect("model builds");
    let reg = &model.registry;
    let assumptions = [
        pos(reg, Item::Class("A".into())),
        neg(reg, Item::Constructor("A".into(), "()V".into())),
    ];
    assert!(
        solve(&model, &assumptions).is_none(),
        "a kept class must keep a constructor"
    );
}

#[test]
fn diamond_obligations_constrain_every_path() {
    // J declares p; I1 and I2 both extend J; C implements I1 and I2.
    // Dropping either implements-edge alone must still obligate C.p
    // through the surviving path.
    let p = diamond_program();
    assert!(verify_program(&p).is_empty());
    assert_eq!(supertype_paths(&p, "C", "J", 16).len(), 2);
    let model = build_model(&p).expect("model builds");
    let reg = &model.registry;
    // Drop the I1 path entirely, keep the I2 path and the signature —
    // C.p must still be forced.
    let assumptions = [
        pos(reg, Item::Class("C".into())),
        neg(reg, implements("C", "I1")),
        pos(reg, implements("C", "I2")),
        pos(reg, iface_extends("I2", "J")),
        pos(reg, signature("J", "p")),
        neg(reg, method("C", "p")),
    ];
    assert!(
        solve(&model, &assumptions).is_none(),
        "the I2 path must keep the obligation alive"
    );
    // With both implements-edges dropped, C.p becomes removable.
    let relaxed = [
        pos(reg, Item::Class("C".into())),
        neg(reg, implements("C", "I1")),
        neg(reg, implements("C", "I2")),
        pos(reg, signature("J", "p")),
        neg(reg, method("C", "p")),
    ];
    assert!(
        solve(&model, &relaxed).is_some(),
        "with no path, no obligation"
    );
}

#[test]
fn superclass_paths_enumerated() {
    let p = paperish_program();
    let paths = supertype_paths(&p, "B", "I", 16);
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].len(), 2); // B extends A, A implements I
    let self_paths = supertype_paths(&p, "A", "A", 16);
    assert_eq!(self_paths, vec![Vec::new()]);
    assert!(supertype_paths(&p, "I", "B", 16).is_empty());
}

#[test]
fn reflection_pins_supertypes() {
    let model = build_model(&reflection_program()).expect("model builds");
    let reg = &model.registry;
    // Keeping the reflective body must force B's whole supertype web.
    let assumptions = [
        pos(
            reg,
            Item::MethodCode("R".into(), "reflect".into(), "()V".into()),
        ),
        neg(reg, implements("A", "I")),
    ];
    assert!(
        solve(&model, &assumptions).is_none(),
        "reflection approximation must pin A<I"
    );
}

#[test]
fn invalid_program_is_rejected() {
    let mut p = Program::new();
    let mut a = ClassFile::new_class("A");
    a.methods.push(ctor());
    a.methods.push(MethodInfo::new(
        "bad",
        MethodDescriptor::void(),
        Code::new(1, 1, vec![Insn::Pop, Insn::Return]),
    ));
    p.insert(a);
    assert!(build_model(&p).is_err());
}

/// `C` reaches `J.p` through 20 paths `C<Ik<Mj<J`, more than the model
/// writes one obligation clause each for. Keeping any single path with
/// `J.p` and `C` must still force `C.p`; before the path cap was sound,
/// the four paths through `I5` had no clause, and a model that kept one
/// of them reduced to "abstract method J.p()V not implemented".
#[test]
fn obligations_past_the_path_cap_stay_sound() {
    let p = path_cap_program();
    assert!(verify_program(&p).is_empty());
    assert_eq!(supertype_paths(&p, "C", "J", 64).len(), 20);
    let model = build_model(&p).expect("model builds");
    let reg = &model.registry;
    for i in 1..=5 {
        for m in 1..=4 {
            let (i, m) = (format!("I{i}"), format!("M{m}"));
            let mut assumptions = vec![
                pos(reg, Item::Class("C".into())),
                pos(reg, signature("J", "p")),
                neg(reg, method("C", "p")),
                pos(reg, iface_extends(&i, &m)),
                pos(reg, iface_extends(&m, "J")),
            ];
            for k in 1..=5 {
                let kept = format!("I{k}") == i;
                let rel = implements("C", &format!("I{k}"));
                assumptions.push(if kept { pos(reg, rel) } else { neg(reg, rel) });
            }
            if let Some(solution) = solve(&model, &assumptions) {
                let reduced = reduce_program(&p, reg, &solution);
                let errors = verify_program(&reduced);
                assert!(
                    errors.is_empty(),
                    "path C<{i}<{m}<J: model {} reduced to an invalid program: {errors:?}",
                    reg.render_solution(&solution)
                );
            }
            assert!(
                solve(&model, &assumptions).is_none(),
                "path C<{i}<{m}<J: [C] ∧ [J.p()V] must force [C.p()V]"
            );
        }
    }
}
