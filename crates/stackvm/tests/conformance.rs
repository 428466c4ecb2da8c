//! Verifier conformance suite: every `R####` rule in [`lbr_stackvm::RULES`]
//! has one positive case (a module the rule accepts) and one negative case
//! (a module that violates exactly that rule), plus a table-driven
//! coverage test that fails when a rule is added to the verifier without
//! a conformance entry here.
//!
//! The cases are deliberately minimal — each negative module is the
//! smallest body that trips its rule — so a conformance failure points at
//! the rule, not at an unrelated interaction.

use lbr_stackvm::{rule, verify_module, Function, Global, Module, Op, Sig, Ty, RULES};

/// One conformance entry: the rule under test, a module it accepts, and a
/// module that violates it.
struct Case {
    rule: &'static str,
    positive: Module,
    negative: Module,
}

fn module_of(f: Function) -> Module {
    [f].into_iter().collect()
}

fn func(name: &str, body: Vec<Op>) -> Function {
    let mut f = Function::new(name, vec![], None);
    f.body = body;
    f
}

/// The conformance table, in rule-code order.
fn cases() -> Vec<Case> {
    let mut table = vec![
        // R0001: operand stack must not underflow.
        Case {
            rule: "R0001",
            positive: module_of(func("f", vec![Op::PushInt(1), Op::Drop, Op::Return])),
            negative: module_of(func("f", vec![Op::Drop, Op::Return])),
        },
        // R0002: operands must have the type the opcode consumes.
        Case {
            rule: "R0002",
            positive: module_of(func(
                "f",
                vec![
                    Op::PushInt(1),
                    Op::PushInt(2),
                    Op::Add,
                    Op::Drop,
                    Op::Return,
                ],
            )),
            negative: module_of(func(
                "f",
                vec![
                    Op::PushBool(true),
                    Op::PushInt(2),
                    Op::Add,
                    Op::Drop,
                    Op::Return,
                ],
            )),
        },
        // R0003: branch targets must lie inside the function body.
        Case {
            rule: "R0003",
            positive: module_of(func("f", vec![Op::Jump(1), Op::Return])),
            negative: module_of(func("f", vec![Op::Jump(9), Op::Return])),
        },
        // R0004: all paths into a merge point must agree on the stack. The
        // negative merges the empty stack (branch taken) with [Int] (fall
        // through) at the Return.
        Case {
            rule: "R0004",
            positive: module_of(func(
                "f",
                vec![Op::PushBool(true), Op::JumpIf(3), Op::Trap, Op::Return],
            )),
            negative: module_of(func(
                "f",
                vec![
                    Op::PushBool(true),
                    Op::JumpIf(3),
                    Op::PushInt(7),
                    Op::Return,
                ],
            )),
        },
    ];

    // R0005: return must pop exactly the declared return type.
    let mut pos = Function::new("f", vec![], Some(Ty::Int));
    pos.body = vec![Op::PushInt(1), Op::Return];
    let mut neg = Function::new("f", vec![], Some(Ty::Int));
    neg.body = vec![Op::Return];
    table.push(Case {
        rule: "R0005",
        positive: module_of(pos),
        negative: module_of(neg),
    });

    // R0006: call targets must name an existing function.
    let mut pos = Module::new();
    pos.functions
        .push(func("main", vec![Op::Call("helper".into()), Op::Return]).into());
    pos.functions.push(func("helper", vec![Op::Return]).into());
    table.push(Case {
        rule: "R0006",
        positive: pos,
        negative: module_of(func("main", vec![Op::Call("nope".into()), Op::Return])),
    });

    // R0007: call arguments must match the callee's parameter types.
    let callee = || {
        let mut c = Function::new("callee", vec![Ty::Int], None);
        c.body = vec![Op::Return];
        c
    };
    let mut pos = Module::new();
    pos.functions.push(
        func(
            "main",
            vec![Op::PushInt(1), Op::Call("callee".into()), Op::Return],
        )
        .into(),
    );
    pos.functions.push(callee().into());
    let mut neg = Module::new();
    neg.functions.push(
        func(
            "main",
            vec![Op::PushBool(true), Op::Call("callee".into()), Op::Return],
        )
        .into(),
    );
    neg.functions.push(callee().into());
    table.push(Case {
        rule: "R0007",
        positive: pos,
        negative: neg,
    });

    // R0008: local slot indices must be in bounds.
    let mut pos = Function::new("f", vec![Ty::Int], None);
    pos.body = vec![Op::LocalGet(0), Op::Drop, Op::Return];
    table.push(Case {
        rule: "R0008",
        positive: module_of(pos),
        negative: module_of(func("f", vec![Op::LocalGet(5), Op::Drop, Op::Return])),
    });

    // R0009: global accesses must name an existing global.
    let mut pos = Module::new();
    pos.globals.push(Global::new("g", Ty::Int));
    pos.functions
        .push(func("f", vec![Op::GlobalGet("g".into()), Op::Drop, Op::Return]).into());
    table.push(Case {
        rule: "R0009",
        positive: pos,
        negative: module_of(func(
            "f",
            vec![Op::GlobalGet("g".into()), Op::Drop, Op::Return],
        )),
    });

    // R0010: call_indirect needs at least one function of its signature.
    // The positive dispatches on the caller's own `() -> ()` signature;
    // the negative asks for a signature no function has.
    table.push(Case {
        rule: "R0010",
        positive: module_of(func(
            "f",
            vec![
                Op::PushInt(0),
                Op::CallIndirect(Sig::new(vec![], None)),
                Op::Return,
            ],
        )),
        negative: module_of(func(
            "f",
            vec![
                Op::PushInt(0),
                Op::CallIndirect(Sig::new(vec![Ty::Bool], Some(Ty::Bool))),
                Op::Return,
            ],
        )),
    });

    // R0011: control must not fall off the end of the body.
    table.push(Case {
        rule: "R0011",
        positive: module_of(func("f", vec![Op::PushInt(1), Op::Drop, Op::Return])),
        negative: module_of(func("f", vec![Op::PushInt(1), Op::Drop])),
    });

    // R0012: operand stack must stay within the declared max_stack.
    let mut pos = Function::new("f", vec![], None);
    pos.max_stack = 2;
    pos.body = vec![
        Op::PushInt(1),
        Op::PushInt(2),
        Op::Add,
        Op::Drop,
        Op::Return,
    ];
    let mut neg = Function::new("f", vec![], None);
    neg.max_stack = 1;
    neg.body = vec![
        Op::PushInt(1),
        Op::PushInt(2),
        Op::Add,
        Op::Drop,
        Op::Return,
    ];
    table.push(Case {
        rule: "R0012",
        positive: module_of(pos),
        negative: module_of(neg),
    });

    table
}

fn case_for(id: &str) -> Case {
    cases()
        .into_iter()
        .find(|c| c.rule == id)
        .unwrap_or_else(|| panic!("no conformance case for {id}"))
}

fn assert_accepts(id: &str, module: &Module) {
    let errors = verify_module(module);
    assert!(
        errors.is_empty(),
        "{id} positive case rejected: {:?}",
        errors
    );
}

fn assert_rejects_with(id: &str, module: &Module) {
    let errors = verify_module(module);
    assert!(
        errors.iter().any(|e| e.rule == id),
        "{id} negative case did not trip {id}: {:?}",
        errors
    );
}

/// Table-driven coverage: the conformance table and the verifier's RULES
/// export must list exactly the same codes, in the same order, and every
/// entry's positive/negative pair must behave. Adding a rule to the
/// verifier without a conformance case fails here.
#[test]
fn every_rule_has_a_conformance_case() {
    let table = cases();
    let table_ids: Vec<&str> = table.iter().map(|c| c.rule).collect();
    let rule_ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
    assert_eq!(table_ids, rule_ids, "conformance table out of sync");
    for case in &table {
        assert!(rule(case.rule).is_some());
        assert_accepts(case.rule, &case.positive);
        assert_rejects_with(case.rule, &case.negative);
    }
}

/// The negative cases are *minimal*: each trips only its own rule (no
/// collateral codes), so a failure identifies the rule unambiguously.
#[test]
fn negative_cases_trip_only_their_own_rule() {
    for case in cases() {
        let codes: std::collections::BTreeSet<&str> = verify_module(&case.negative)
            .iter()
            .map(|e| e.rule)
            .collect();
        assert_eq!(
            codes,
            [case.rule].into_iter().collect(),
            "{} negative case trips extra rules",
            case.rule
        );
    }
}

#[test]
fn r0001_stack_underflow() {
    let case = case_for("R0001");
    assert_accepts("R0001", &case.positive);
    assert_rejects_with("R0001", &case.negative);
}

#[test]
fn r0002_operand_type() {
    let case = case_for("R0002");
    assert_accepts("R0002", &case.positive);
    assert_rejects_with("R0002", &case.negative);
}

#[test]
fn r0003_branch_target_bounds() {
    let case = case_for("R0003");
    assert_accepts("R0003", &case.positive);
    assert_rejects_with("R0003", &case.negative);
}

#[test]
fn r0004_merge_agreement() {
    let case = case_for("R0004");
    assert_accepts("R0004", &case.positive);
    assert_rejects_with("R0004", &case.negative);
}

#[test]
fn r0005_return_type() {
    let case = case_for("R0005");
    assert_accepts("R0005", &case.positive);
    assert_rejects_with("R0005", &case.negative);
}

#[test]
fn r0006_call_resolution() {
    let case = case_for("R0006");
    assert_accepts("R0006", &case.positive);
    assert_rejects_with("R0006", &case.negative);
}

#[test]
fn r0007_call_arguments() {
    let case = case_for("R0007");
    assert_accepts("R0007", &case.positive);
    assert_rejects_with("R0007", &case.negative);
}

#[test]
fn r0008_local_bounds() {
    let case = case_for("R0008");
    assert_accepts("R0008", &case.positive);
    assert_rejects_with("R0008", &case.negative);
}

#[test]
fn r0009_global_resolution() {
    let case = case_for("R0009");
    assert_accepts("R0009", &case.positive);
    assert_rejects_with("R0009", &case.negative);
}

#[test]
fn r0010_indirect_candidates() {
    let case = case_for("R0010");
    assert_accepts("R0010", &case.positive);
    assert_rejects_with("R0010", &case.negative);
}

#[test]
fn r0011_fall_off_end() {
    let case = case_for("R0011");
    assert_accepts("R0011", &case.positive);
    assert_rejects_with("R0011", &case.negative);
}

#[test]
fn r0012_max_stack() {
    let case = case_for("R0012");
    assert_accepts("R0012", &case.positive);
    assert_rejects_with("R0012", &case.negative);
}
