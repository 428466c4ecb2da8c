//! The decompiler: class files back to mini-Java source.
//!
//! A straightforward symbolic-execution decompiler — it replays each
//! method's stack effects, rebuilding expressions and emitting statements
//! at stores, calls, and returns. The [`BugSet`] hooks corrupt specific
//! emissions, simulating the real decompiler defects the paper's
//! benchmarks exercise.

use crate::bugs::{BugKind, BugSet};
use crate::source::{SExpr, SourceClass, SourceMethod, SourceSet, SrcType, Stmt};
use lbr_classfile::{ClassFile, Code, Insn, MethodInfo, Program, Type};
use std::sync::Arc;

/// Decompiles a whole program with the given decompiler's bugs.
pub fn decompile_program(program: &Program, bugs: &BugSet) -> SourceSet {
    let mut out = SourceSet::default();
    for class in program.classes() {
        out.classes.push(decompile_class(program, class, bugs));
    }
    out
}

/// Decompiles one class.
pub fn decompile_class(program: &Program, class: &ClassFile, bugs: &BugSet) -> SourceClass {
    let mut is_interface = |target: &str| program.get(target).is_some_and(ClassFile::is_interface);
    decompile_class_with(class, bugs, &mut |method, code| {
        let eaten = eats(bugs, code);
        (!eaten).then(|| decompile_code(&class.name, method, code, bugs, &mut is_interface))
    })
}

/// What becomes of a method's body: its statements, or `None` when the
/// decompiler eats the method (see [`eats`]).
pub(crate) type BodyFn<'f> = dyn FnMut(&MethodInfo, &Arc<Code>) -> Option<Vec<Stmt>> + 'f;

/// The class walk behind [`decompile_class`], with each method body's fate
/// left to `body`. Everything else in the class's source is a function of
/// the class and the bugs alone.
pub(crate) fn decompile_class_with(
    class: &ClassFile,
    bugs: &BugSet,
    body: &mut BodyFn<'_>,
) -> SourceClass {
    let mut interfaces = class.interfaces.clone();
    if bugs.contains(BugKind::SuperInterfaceAmnesia) && class.is_interface() {
        interfaces.clear();
    }
    let mut methods = Vec::new();
    for m in &class.methods {
        let statements = match &m.code {
            Some(code) => match body(m, code) {
                Some(statements) => Some(statements),
                None => continue, // the decompiler silently eats this method
            },
            None => None,
        };
        methods.push(decompile_method(class, m, statements));
    }
    SourceClass {
        name: class.name.clone(),
        is_interface: class.is_interface(),
        is_abstract: class.flags.is_abstract() && !class.is_interface(),
        superclass: if class.is_interface() {
            None
        } else {
            class.superclass.clone()
        },
        interfaces,
        fields: class
            .fields
            .iter()
            .map(|f| (src_type(&f.ty), f.name.clone()))
            .collect(),
        methods,
    }
}

/// Whether the decompiler eats a method with this body (pattern matches
/// under [`BugKind::EatPatternMatch`]).
pub(crate) fn eats(bugs: &BugSet, code: &Code) -> bool {
    bugs.contains(BugKind::EatPatternMatch)
        && code.insns.iter().any(|i| matches!(i, Insn::InstanceOf(_)))
}

fn src_type(t: &Type) -> SrcType {
    match t {
        Type::Int => SrcType::Int,
        Type::Reference(c) => SrcType::Class(c.clone()),
    }
}

fn ret_type(t: &Option<Type>) -> SrcType {
    t.as_ref().map_or(SrcType::Void, src_type)
}

fn decompile_method(
    class: &ClassFile,
    method: &MethodInfo,
    body: Option<Vec<Stmt>>,
) -> SourceMethod {
    let is_ctor = method.is_init();
    let name = if is_ctor {
        class.name.clone()
    } else {
        method.name.clone()
    };
    let mut params = Vec::new();
    for (i, p) in method.desc.params.iter().enumerate() {
        params.push((src_type(p), format!("p{i}")));
    }
    SourceMethod {
        name,
        is_ctor,
        ret: if is_ctor {
            SrcType::Void
        } else {
            ret_type(&method.desc.ret)
        },
        params,
        body,
    }
}

/// One stack entry: the rebuilt expression and its static type.
type Entry = (SExpr, SrcType);

/// Decompiles the body `code` of `method`, declared in the class named
/// `class`. Of the method it reads the flags and the descriptor. It asks
/// `is_interface` only where the answer changes the output, and which
/// targets it asks about depends on the body and the bugs alone.
pub(crate) fn decompile_code(
    class: &str,
    method: &MethodInfo,
    code: &Code,
    bugs: &BugSet,
    is_interface: &mut dyn FnMut(&str) -> bool,
) -> Vec<Stmt> {
    let mut stmts: Vec<Stmt> = Vec::new();
    let mut stack: Vec<Entry> = Vec::new();
    // Local slots: name, type, and whether a declaration was emitted.
    let mut locals: Vec<Option<(String, SrcType)>> = vec![None; code.max_locals as usize];
    let mut slot = 0usize;
    if !method.flags.is_static() {
        if slot < locals.len() {
            locals[slot] = Some(("this".to_owned(), SrcType::Class(class.to_owned())));
        }
        slot += 1;
    }
    for (i, p) in method.desc.params.iter().enumerate() {
        if slot < locals.len() {
            locals[slot] = Some((format!("p{i}"), src_type(p)));
        }
        slot += 1;
    }

    let pop = |stack: &mut Vec<Entry>| -> Entry {
        stack
            .pop()
            .unwrap_or((SExpr::Null, SrcType::Class("null".to_owned())))
    };

    for (pc, insn) in code.insns.iter().enumerate() {
        match insn {
            Insn::Nop => {}
            Insn::IConst(v) => stack.push((SExpr::Int(*v), SrcType::Int)),
            Insn::AConstNull => stack.push((SExpr::Null, SrcType::Class("null".to_owned()))),
            Insn::ILoad(s) | Insn::ALoad(s) => {
                let entry = match locals.get(*s as usize).and_then(|o| o.as_ref()) {
                    Some((n, t)) if n == "this" => (SExpr::This, t.clone()),
                    Some((n, t)) => (SExpr::Var(n.clone()), t.clone()),
                    None => (
                        SExpr::Var(format!("v{s}")),
                        SrcType::Class("Object".to_owned()),
                    ),
                };
                stack.push(entry);
            }
            Insn::IStore(s) | Insn::AStore(s) => {
                let (e, t) = pop(&mut stack);
                let idx = *s as usize;
                match locals.get(idx).and_then(|o| o.clone()) {
                    Some((name, _)) => stmts.push(Stmt::Assign(SExpr::Var(name), e)),
                    None => {
                        let name = format!("v{s}");
                        let decl_ty = match &t {
                            SrcType::Class(c) if c == "null" => SrcType::Class("Object".to_owned()),
                            other => other.clone(),
                        };
                        stmts.push(Stmt::Local(decl_ty.clone(), name.clone(), e));
                        if idx < locals.len() {
                            locals[idx] = Some((name, decl_ty));
                        }
                    }
                }
            }
            Insn::Pop => {
                let (e, _) = pop(&mut stack);
                stmts.push(Stmt::Expr(e));
            }
            Insn::Dup => {
                let top = stack
                    .last()
                    .cloned()
                    .unwrap_or((SExpr::Null, SrcType::Class("null".to_owned())));
                stack.push(top);
            }
            Insn::IAdd => {
                let (mut b, _) = pop(&mut stack);
                let (a, _) = pop(&mut stack);
                // The constant-folding bug only fires on literal+literal.
                if bugs.contains(BugKind::AddNullifier)
                    && matches!(a, SExpr::Int(_))
                    && matches!(b, SExpr::Int(_))
                {
                    b = SExpr::Null;
                }
                stack.push((SExpr::Add(Box::new(a), Box::new(b)), SrcType::Int));
            }
            Insn::LdcClass(c) => {
                let name = if bugs.contains(BugKind::ReflectionTypo) {
                    format!("{c}_0")
                } else {
                    c.clone()
                };
                stack.push((
                    SExpr::ClassLiteral(name),
                    SrcType::Class("Object".to_owned()),
                ));
            }
            Insn::New(c) => {
                // Placeholder completed by the matching <init> call.
                stack.push((SExpr::New(c.clone(), Vec::new()), SrcType::Class(c.clone())));
            }
            Insn::GetField(f) => {
                let (recv, _) = pop(&mut stack);
                let fname =
                    if bugs.contains(BugKind::FieldRenamer) && matches!(recv, SExpr::Field(..)) {
                        format!("{}_", f.name)
                    } else {
                        f.name.clone()
                    };
                stack.push((SExpr::Field(Box::new(recv), fname), src_type(&f.ty)));
            }
            Insn::PutField(f) => {
                let (value, _) = pop(&mut stack);
                let (recv, _) = pop(&mut stack);
                stmts.push(Stmt::Assign(
                    SExpr::Field(Box::new(recv), f.name.clone()),
                    value,
                ));
            }
            Insn::InvokeVirtual(m) | Insn::InvokeInterface(m) => {
                let mut args = pop_args(&mut stack, m.desc.params.len(), &pop);
                let (recv, _) = pop(&mut stack);
                apply_ctor_arg_dropper(bugs, m, &mut args);
                let call = SExpr::Call(Some(Box::new(recv)), m.name.clone(), args);
                push_or_emit(&mut stack, &mut stmts, call, &m.desc.ret);
            }
            Insn::InvokeSpecial(m) => {
                let mut args = pop_args(&mut stack, m.desc.params.len(), &pop);
                let (recv, _) = pop(&mut stack);
                if m.is_init() {
                    if bugs.contains(BugKind::CtorArgDropper) && args.len() >= 2 {
                        args.pop();
                    }
                    match recv {
                        SExpr::This => {
                            // super(...) / this(...) call: implicit in the
                            // emitted source.
                        }
                        SExpr::New(c, empty) if empty.is_empty() => {
                            let completed = SExpr::New(c.clone(), args);
                            // Standard new;dup;<init> pattern: the original
                            // `new` placeholder sits below; replace it.
                            if let Some(top) = stack.last_mut() {
                                if matches!(&top.0, SExpr::New(c2, a) if *c2 == c && a.is_empty()) {
                                    top.0 = completed;
                                    continue;
                                }
                            }
                            stmts.push(Stmt::Expr(completed));
                        }
                        other => {
                            stmts.push(Stmt::Expr(SExpr::Call(
                                Some(Box::new(other)),
                                m.name.clone(),
                                args,
                            )));
                        }
                    }
                } else {
                    // super.m(...) rendered as a this-call; resolution walks
                    // the chain anyway.
                    let call = SExpr::Call(Some(Box::new(recv)), m.name.clone(), args);
                    push_or_emit(&mut stack, &mut stmts, call, &m.desc.ret);
                }
            }
            Insn::InvokeStatic(m) => {
                let args = pop_args(&mut stack, m.desc.params.len(), &pop);
                let call = if bugs.contains(BugKind::StaticGhostReceiver) {
                    SExpr::Call(
                        Some(Box::new(SExpr::Var(format!(
                            "{}_instance",
                            m.class.to_lowercase()
                        )))),
                        m.name.clone(),
                        args,
                    )
                } else {
                    SExpr::StaticCall(m.class.clone(), m.name.clone(), args)
                };
                push_or_emit(&mut stack, &mut stmts, call, &m.desc.ret);
            }
            Insn::CheckCast(t) => {
                let (inner, _) = pop(&mut stack);
                let followed_by_invoke = matches!(
                    code.insns.get(pc + 1),
                    Some(Insn::InvokeVirtual(_)) | Some(Insn::InvokeInterface(_))
                );
                let target = if bugs.contains(BugKind::CastToObject)
                    && followed_by_invoke
                    && is_interface(t)
                {
                    "Object".to_owned()
                } else {
                    t.clone()
                };
                stack.push((
                    SExpr::Cast(SrcType::Class(target.clone()), Box::new(inner)),
                    SrcType::Class(target),
                ));
            }
            Insn::InstanceOf(t) => {
                let (inner, _) = pop(&mut stack);
                stack.push((SExpr::InstanceOf(Box::new(inner), t.clone()), SrcType::Int));
            }
            Insn::Goto(_) => {}
            Insn::IfEq(_) => {
                let (cond, _) = pop(&mut stack);
                stmts.push(Stmt::IfNonZero(cond));
            }
            Insn::Return => stmts.push(Stmt::Return(None)),
            Insn::AReturn | Insn::IReturn => {
                let (e, _) = pop(&mut stack);
                stmts.push(Stmt::Return(Some(e)));
            }
            Insn::AThrow => {
                let (e, _) = pop(&mut stack);
                stmts.push(Stmt::Throw(e));
            }
        }
    }
    stmts
}

fn pop_args(
    stack: &mut Vec<Entry>,
    n: usize,
    pop: &impl Fn(&mut Vec<Entry>) -> Entry,
) -> Vec<SExpr> {
    let mut args: Vec<SExpr> = (0..n).map(|_| pop(stack).0).collect();
    args.reverse();
    args
}

/// `CtorArgDropper` also fires on `this(...)`-style invokes of multi-arg
/// constructors through virtual dispatch — but constructors only appear in
/// `invokespecial`, so this helper is a no-op for other call kinds; it
/// exists to keep the call sites symmetric.
fn apply_ctor_arg_dropper(bugs: &BugSet, m: &lbr_classfile::MethodRef, args: &mut Vec<SExpr>) {
    if bugs.contains(BugKind::CtorArgDropper) && m.is_init() && args.len() >= 2 {
        args.pop();
    }
}

fn push_or_emit(stack: &mut Vec<Entry>, stmts: &mut Vec<Stmt>, call: SExpr, ret: &Option<Type>) {
    match ret {
        Some(t) => stack.push((call, src_type(t))),
        None => stmts.push(Stmt::Expr(call)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_classfile::{FieldRef, MethodDescriptor, MethodRef};

    fn void_method(name: &str, insns: Vec<Insn>) -> MethodInfo {
        MethodInfo::new(name, MethodDescriptor::void(), Code::new(4, 4, insns))
    }

    fn program_with(classes: Vec<ClassFile>) -> Program {
        classes.into_iter().collect()
    }

    #[test]
    fn decompiles_new_dup_init() {
        let mut a = ClassFile::new_class("A");
        a.methods.push(void_method(
            "m",
            vec![
                Insn::New("A".into()),
                Insn::Dup,
                Insn::InvokeSpecial(MethodRef::new("A", "<init>", MethodDescriptor::void())),
                Insn::Pop,
                Insn::Return,
            ],
        ));
        let p = program_with(vec![a]);
        let src = decompile_class(&p, p.get("A").unwrap(), &BugSet::none());
        let body = src.methods[0].body.as_ref().unwrap();
        assert_eq!(
            body,
            &vec![
                Stmt::Expr(SExpr::New("A".into(), vec![])),
                Stmt::Return(None)
            ]
        );
    }

    #[test]
    fn super_init_is_implicit() {
        let mut a = ClassFile::new_class("A");
        a.methods.push(void_method(
            "<init>",
            vec![
                Insn::ALoad(0),
                Insn::InvokeSpecial(MethodRef::new("Object", "<init>", MethodDescriptor::void())),
                Insn::Return,
            ],
        ));
        let p = program_with(vec![a]);
        let src = decompile_class(&p, p.get("A").unwrap(), &BugSet::none());
        assert!(src.methods[0].is_ctor);
        assert_eq!(
            src.methods[0].body.as_ref().unwrap(),
            &vec![Stmt::Return(None)]
        );
    }

    #[test]
    fn cast_to_object_bug_fires_only_before_invoke() {
        let mut i = ClassFile::new_interface("I");
        i.methods
            .push(MethodInfo::new_abstract("m", MethodDescriptor::void()));
        let mut a = ClassFile::new_class("A");
        a.methods.push(void_method(
            "go",
            vec![
                Insn::ALoad(0),
                Insn::CheckCast("I".into()),
                Insn::InvokeInterface(MethodRef::new("I", "m", MethodDescriptor::void())),
                Insn::Return,
            ],
        ));
        a.methods.push(void_method(
            "benign",
            vec![
                Insn::ALoad(0),
                Insn::CheckCast("I".into()),
                Insn::Pop,
                Insn::Return,
            ],
        ));
        let p = program_with(vec![i, a]);
        let bugs = BugSet::of(&[BugKind::CastToObject]);
        let src = decompile_class(&p, p.get("A").unwrap(), &bugs);
        let go = &src.methods[0].body.as_ref().unwrap()[0];
        let rendered = format!("{go:?}");
        assert!(rendered.contains("Object"), "{rendered}");
        let benign = &src.methods[1].body.as_ref().unwrap()[0];
        let rendered = format!("{benign:?}");
        assert!(rendered.contains("\"I\""), "cast kept: {rendered}");
    }

    #[test]
    fn eat_pattern_match_drops_method() {
        let mut a = ClassFile::new_class("A");
        a.methods.push(void_method(
            "matchy",
            vec![
                Insn::ALoad(0),
                Insn::InstanceOf("A".into()),
                Insn::Pop,
                Insn::Return,
            ],
        ));
        a.methods.push(void_method("keep", vec![Insn::Return]));
        let p = program_with(vec![a]);
        let src = decompile_class(
            &p,
            p.get("A").unwrap(),
            &BugSet::of(&[BugKind::EatPatternMatch]),
        );
        let names: Vec<&str> = src.methods.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["keep"]);
    }

    #[test]
    fn static_ghost_receiver() {
        let mut a = ClassFile::new_class("Util");
        a.methods.push(void_method(
            "go",
            vec![
                Insn::InvokeStatic(MethodRef::new("Util", "helper", MethodDescriptor::void())),
                Insn::Return,
            ],
        ));
        let p = program_with(vec![a]);
        let src = decompile_class(
            &p,
            p.get("Util").unwrap(),
            &BugSet::of(&[BugKind::StaticGhostReceiver]),
        );
        let body = src.methods[0].body.as_ref().unwrap();
        assert!(format!("{body:?}").contains("util_instance"));
    }

    #[test]
    fn field_renamer_only_on_chains() {
        let mut a = ClassFile::new_class("A");
        a.methods.push(void_method(
            "go",
            vec![
                Insn::ALoad(0),
                Insn::GetField(FieldRef::new("A", "f", Type::reference("A"))),
                Insn::GetField(FieldRef::new("A", "g", Type::Int)),
                Insn::Pop,
                Insn::Return,
            ],
        ));
        let p = program_with(vec![a]);
        let src = decompile_class(
            &p,
            p.get("A").unwrap(),
            &BugSet::of(&[BugKind::FieldRenamer]),
        );
        let text = format!("{:?}", src.methods[0].body);
        assert!(text.contains("g_"), "{text}");
        assert!(!text.contains("f_"), "inner access untouched: {text}");
    }

    #[test]
    fn interface_amnesia() {
        let mut j = ClassFile::new_interface("J");
        j.methods
            .push(MethodInfo::new_abstract("p", MethodDescriptor::void()));
        let mut i = ClassFile::new_interface("I");
        i.interfaces.push("J".into());
        let p = program_with(vec![j, i]);
        let src = decompile_class(
            &p,
            p.get("I").unwrap(),
            &BugSet::of(&[BugKind::SuperInterfaceAmnesia]),
        );
        assert!(src.interfaces.is_empty());
        // Classes are unaffected.
        let mut c = ClassFile::new_class("C");
        c.interfaces.push("I".into());
        let p2 = program_with(vec![c]);
        let src = decompile_class(
            &p2,
            p2.get("C").unwrap(),
            &BugSet::of(&[BugKind::SuperInterfaceAmnesia]),
        );
        assert_eq!(src.interfaces, vec!["I".to_owned()]);
    }

    #[test]
    fn correct_decompiler_output_compiles() {
        // Build a small valid program and check the bug-free decompilation
        // compiles cleanly.
        let mut i = ClassFile::new_interface("I");
        i.methods
            .push(MethodInfo::new_abstract("m", MethodDescriptor::void()));
        let mut a = ClassFile::new_class("A");
        a.interfaces.push("I".into());
        a.methods.push(void_method("<init>", vec![Insn::Return]));
        a.methods.push(void_method("m", vec![Insn::Return]));
        a.methods.push(void_method(
            "go",
            vec![
                Insn::New("A".into()),
                Insn::Dup,
                Insn::InvokeSpecial(MethodRef::new("A", "<init>", MethodDescriptor::void())),
                Insn::CheckCast("I".into()),
                Insn::InvokeInterface(MethodRef::new("I", "m", MethodDescriptor::void())),
                Insn::Return,
            ],
        ));
        let p = program_with(vec![i, a]);
        let src = decompile_program(&p, &BugSet::none());
        let errors = crate::compile::compile(&src);
        assert!(errors.is_empty(), "{errors:?}");
        // With the cast bug, the same program no longer compiles.
        let src = decompile_program(&p, &BugSet::of(&[BugKind::CastToObject]));
        let errors = crate::compile::compile(&src);
        assert!(
            errors
                .iter()
                .any(|e| e.message.contains("method m() in Object")),
            "{errors:?}"
        );
    }
}
