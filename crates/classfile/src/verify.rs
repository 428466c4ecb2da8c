//! Program verification: the validity oracle for bytecode reduction.
//!
//! A sub-input is *valid* when it still verifies — the analog of "the
//! program type checks" in the paper. Verification has two layers:
//!
//! 1. **Structural**: supertypes exist with the right kinds and no cycles,
//!    descriptors reference existing classes, interface methods are
//!    abstract, and every non-abstract class provides a concrete
//!    implementation for every abstract method it inherits — the
//!    obligation the paper's `mAny` constraints model.
//! 2. **Code**: an abstract-interpretation stack verifier per method body,
//!    checking operand kinds, member resolution, argument/return
//!    subtyping, and cast plausibility.
//!
//! Both layers report the hierarchy facts they rely on through
//! [`VerifyHooks`], so the logical constraint generator can translate each
//! successful check into the formula that keeps it true under reduction.

use crate::{
    ClassFile, Code, FieldRef, Insn, MethodDescriptor, MethodInfo, MethodRef, Program, Resolution,
    Step, Type, OBJECT,
};
use std::collections::VecDeque;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The class being verified.
    pub class: String,
    /// The member being verified, if any (`name + descriptor`).
    pub member: Option<String>,
    /// Human-readable description.
    pub detail: String,
}

impl VerifyError {
    fn new(class: &str, member: Option<String>, detail: impl Into<String>) -> Self {
        VerifyError {
            class: class.to_owned(),
            member,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.member {
            Some(m) => write!(f, "{}.{}: {}", self.class, m, self.detail),
            None => write!(f, "{}: {}", self.class, self.detail),
        }
    }
}

impl std::error::Error for VerifyError {}

/// How a method was invoked (reported to hooks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvokeKind {
    /// `invokevirtual`.
    Virtual,
    /// `invokeinterface`.
    Interface,
    /// `invokespecial`.
    Special,
    /// `invokestatic`.
    Static,
}

/// Observer of the hierarchy facts verification relies on. All methods
/// default to no-ops; implement the ones you need.
pub trait VerifyHooks {
    /// A subtype relation `sub ≤ sup` was used, derived via `steps`.
    fn on_subtype(&mut self, sub: &str, sup: &str, steps: &[Step<'_>]) {
        let _ = (sub, sup, steps);
    }
    /// A field reference resolved.
    fn on_field(&mut self, named: &FieldRef, resolution: &Resolution<'_>) {
        let _ = (named, resolution);
    }
    /// A method reference resolved.
    fn on_method(&mut self, named: &MethodRef, resolution: &Resolution<'_>, kind: InvokeKind) {
        let _ = (named, resolution, kind);
    }
    /// A class was instantiated.
    fn on_new(&mut self, class: &str) {
        let _ = class;
    }
    /// A class constant was loaded (reflection).
    fn on_reflection(&mut self, class: &str) {
        let _ = class;
    }
    /// A class name was used and must exist (casts, instanceof, ldc).
    fn on_type_use(&mut self, class: &str) {
        let _ = class;
    }
}

/// The do-nothing hook set.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

impl VerifyHooks for NoHooks {}

/// Verifies the whole program, collecting every error.
///
/// An empty result means the program is a valid input in the sense of
/// Definition 4.1.
pub fn verify_program(program: &Program) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    for class in program.classes() {
        errors.extend(verify_class(program, class));
    }
    errors
}

/// Whether the program verifies cleanly.
pub fn is_valid(program: &Program) -> bool {
    for class in program.classes() {
        if !verify_class(program, class).is_empty() {
            return false;
        }
    }
    true
}

/// Verifies one class (structure and all method bodies).
pub fn verify_class(program: &Program, class: &ClassFile) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    verify_class_structure(program, class, &mut errors, &mut NoHooks);
    for m in &class.methods {
        if let Some(code) = &m.code {
            if let Err(e) = verify_method_code(program, class, m, code, &mut NoHooks) {
                errors.push(e);
            }
        }
    }
    errors
}

/// Structural checks for one class, reporting used relations to `hooks`.
pub fn verify_class_structure(
    program: &Program,
    class: &ClassFile,
    errors: &mut Vec<VerifyError>,
    hooks: &mut dyn VerifyHooks,
) {
    let err = |errors: &mut Vec<VerifyError>, member: Option<String>, detail: String| {
        errors.push(VerifyError::new(&class.name, member, detail));
    };
    // Hierarchy sanity.
    if program.has_hierarchy_cycle(&class.name) {
        err(errors, None, "hierarchy cycle".to_owned());
        return; // everything else would loop
    }
    match &class.superclass {
        None => err(errors, None, "missing superclass".to_owned()),
        Some(s) => match program.get(s) {
            None => err(errors, None, format!("cannot resolve superclass {s}")),
            Some(sc) if sc.is_interface() => {
                err(errors, None, format!("superclass {s} is an interface"))
            }
            Some(sc) if sc.flags.contains(crate::Flags::FINAL) => {
                err(errors, None, format!("superclass {s} is final"))
            }
            Some(_) => {}
        },
    }
    if class.is_interface() && class.superclass.as_deref() != Some(OBJECT) {
        err(
            errors,
            None,
            "interface superclass must be Object".to_owned(),
        );
    }
    for i in &class.interfaces {
        match program.get(i) {
            None => err(errors, None, format!("cannot resolve interface {i}")),
            Some(ic) if !ic.is_interface() => err(errors, None, format!("{i} is not an interface")),
            Some(_) => {}
        }
    }
    // Members.
    let mut seen_fields: Vec<&str> = Vec::new();
    for f in &class.fields {
        if seen_fields.contains(&f.name.as_str()) {
            err(errors, Some(f.name.clone()), "duplicate field".to_owned());
        }
        seen_fields.push(&f.name);
        if let Some(c) = f.ty.class_name() {
            if program.get(c).is_none() {
                err(
                    errors,
                    Some(f.name.clone()),
                    format!("field type {c} missing"),
                );
            } else {
                hooks.on_type_use(c);
            }
        }
        if class.is_interface() && !f.flags.is_static() {
            err(
                errors,
                Some(f.name.clone()),
                "interface instance field".to_owned(),
            );
        }
    }
    let mut seen_methods: Vec<(String, String)> = Vec::new();
    for m in &class.methods {
        let key = (m.name.clone(), m.desc.descriptor());
        if seen_methods.contains(&key) {
            err(errors, Some(m.name.clone()), "duplicate method".to_owned());
        }
        seen_methods.push(key);
        for c in m.desc.referenced_classes() {
            if program.get(c).is_none() {
                err(
                    errors,
                    Some(m.name.clone()),
                    format!("descriptor references missing class {c}"),
                );
            } else {
                hooks.on_type_use(c);
            }
        }
        match (&m.code, m.flags.is_abstract()) {
            (Some(_), true) => err(
                errors,
                Some(m.name.clone()),
                "abstract method with code".into(),
            ),
            (None, false) => err(
                errors,
                Some(m.name.clone()),
                "concrete method without code".into(),
            ),
            _ => {}
        }
        if m.flags.is_abstract() && !class.is_interface() && !class.flags.is_abstract() {
            err(
                errors,
                Some(m.name.clone()),
                "abstract method in concrete class".into(),
            );
        }
        if class.is_interface() && m.is_init() {
            err(errors, Some(m.name.clone()), "interface constructor".into());
        }
        // Overrides must preserve the descriptor's return type: a method
        // with the same name and parameter types but different return type
        // anywhere up the chain is a clash (source-level rule).
        if !m.is_init() {
            for sup in program.superclass_chain(&class.name) {
                if let Some(sc) = program.get(sup) {
                    for other in &sc.methods {
                        if other.name == m.name
                            && other.desc.params == m.desc.params
                            && other.desc.ret != m.desc.ret
                        {
                            err(
                                errors,
                                Some(m.name.clone()),
                                format!("incompatible override of {sup}.{}", other.name),
                            );
                        }
                    }
                }
            }
        }
    }
    if !class.is_interface() && class.constructors().count() == 0 {
        err(errors, None, "class has no constructor".to_owned());
    }
    // Abstract-method obligations: every abstract method visible on a
    // concrete class must resolve to a concrete implementation.
    if class.is_instantiable() {
        let mut obligations: Vec<(&str, &MethodDescriptor, &str)> = Vec::new();
        let chain = program.superclass_chain(&class.name);
        let supers = std::iter::once(class.name.as_str()).chain(chain);
        for sup in supers.chain(program.interface_names(&class.name)) {
            if let Some(sc) = program.get(sup) {
                for m in &sc.methods {
                    if m.flags.is_abstract() {
                        obligations.push((&m.name, &m.desc, sup));
                    }
                }
            }
        }
        for (name, desc, origin) in obligations {
            match program.resolve_method(&class.name, name, desc) {
                Some((_res, m)) if m.code.is_some() => {}
                _ => err(
                    errors,
                    None,
                    format!("abstract method {origin}.{name}{desc} not implemented"),
                ),
            }
        }
    }
}

/// The abstract value types tracked by the stack verifier. A reference
/// borrows its class name from the verified program, so copying a value or
/// a state copies no string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Abs<'a> {
    Int,
    Null,
    Ref(&'a str),
}

impl<'a> Abs<'a> {
    fn from_type(t: &'a Type) -> Abs<'a> {
        match t {
            Type::Int => Abs::Int,
            Type::Reference(c) => Abs::Ref(c),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct State<'a> {
    stack: Vec<Abs<'a>>,
    locals: Vec<Option<Abs<'a>>>,
}

/// Verifies one method body by abstract interpretation, reporting used
/// hierarchy facts to `hooks`.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
pub fn verify_method_code(
    program: &Program,
    class: &ClassFile,
    method: &MethodInfo,
    code: &Code,
    hooks: &mut dyn VerifyHooks,
) -> Result<(), VerifyError> {
    let fail = |detail: String| {
        let member = format!("{}{}", method.name, method.desc);
        VerifyError::new(&class.name, Some(member), detail)
    };

    if code.insns.is_empty() {
        return Err(fail("empty code".into()));
    }
    // Initial locals: `this` (unless static), then parameters.
    let mut init_locals: Vec<Option<Abs<'_>>> = Vec::new();
    if !method.flags.is_static() {
        init_locals.push(Some(Abs::Ref(&class.name)));
    }
    for p in &method.desc.params {
        init_locals.push(Some(Abs::from_type(p)));
    }
    if init_locals.len() > code.max_locals as usize {
        return Err(fail(format!(
            "max_locals {} too small for {} parameters",
            code.max_locals,
            init_locals.len()
        )));
    }
    init_locals.resize(code.max_locals as usize, None);

    let mut states: Vec<Option<State<'_>>> = vec![None; code.insns.len()];
    states[0] = Some(State {
        stack: Vec::new(),
        locals: init_locals,
    });
    let mut work: VecDeque<usize> = VecDeque::from([0]);

    while let Some(pc) = work.pop_front() {
        let mut state = states[pc].clone().expect("queued pc has a state");
        let insn = &code.insns[pc];
        let mut next: Vec<usize> = Vec::new();

        macro_rules! pop {
            () => {
                state
                    .stack
                    .pop()
                    .ok_or_else(|| fail(format!("stack underflow at {pc}")))?
            };
        }
        macro_rules! pop_int {
            () => {{
                let v = pop!();
                if v != Abs::Int {
                    return Err(fail(format!("expected int on stack at {pc}, found {v:?}")));
                }
            }};
        }
        macro_rules! pop_ref {
            () => {{
                match pop!() {
                    Abs::Int => return Err(fail(format!("expected reference on stack at {pc}"))),
                    other => other,
                }
            }};
        }
        // Pops a value and checks it is assignable to `want`.
        macro_rules! pop_assignable {
            ($want:expr) => {{
                let want: &Type = $want;
                let got = pop!();
                match (&got, want) {
                    (Abs::Int, Type::Int) => {}
                    (Abs::Null, Type::Reference(_)) => {}
                    (&Abs::Ref(s), Type::Reference(t)) => match program.subtype_path(s, t) {
                        Some(steps) => hooks.on_subtype(s, t, &steps),
                        None => return Err(fail(format!("{s} is not assignable to {t} at {pc}"))),
                    },
                    _ => {
                        return Err(fail(format!(
                            "cannot assign {got:?} to {} at {pc}",
                            want.descriptor()
                        )))
                    }
                }
            }};
        }

        match insn {
            Insn::Nop => {}
            Insn::IConst(_) => state.stack.push(Abs::Int),
            Insn::AConstNull => state.stack.push(Abs::Null),
            Insn::ILoad(s) => match state.locals.get(*s as usize) {
                Some(Some(Abs::Int)) => state.stack.push(Abs::Int),
                _ => return Err(fail(format!("iload of non-int slot {s} at {pc}"))),
            },
            Insn::ALoad(s) => match state.locals.get(*s as usize) {
                Some(&Some(v @ (Abs::Ref(_) | Abs::Null))) => state.stack.push(v),
                _ => return Err(fail(format!("aload of non-reference slot {s} at {pc}"))),
            },
            Insn::IStore(s) => {
                pop_int!();
                set_local(&mut state, *s, Abs::Int).map_err(&fail)?;
            }
            Insn::AStore(s) => {
                let v = pop_ref!();
                set_local(&mut state, *s, v).map_err(&fail)?;
            }
            Insn::Pop => {
                pop!();
            }
            Insn::Dup => {
                let v = state
                    .stack
                    .last()
                    .copied()
                    .ok_or_else(|| fail(format!("dup on empty stack at {pc}")))?;
                state.stack.push(v);
            }
            Insn::IAdd => {
                pop_int!();
                pop_int!();
                state.stack.push(Abs::Int);
            }
            Insn::LdcClass(c) => {
                if program.get(c).is_none() {
                    return Err(fail(format!("ldc of missing class {c}")));
                }
                hooks.on_type_use(c);
                hooks.on_reflection(c);
                state.stack.push(Abs::Ref(OBJECT));
            }
            Insn::New(c) => {
                match program.get(c) {
                    None => return Err(fail(format!("new of missing class {c}"))),
                    Some(decl) if !decl.is_instantiable() => {
                        return Err(fail(format!("new of non-instantiable {c}")))
                    }
                    Some(_) => {}
                }
                hooks.on_type_use(c);
                hooks.on_new(c);
                state.stack.push(Abs::Ref(c));
            }
            Insn::GetField(f) | Insn::PutField(f) => {
                let put = matches!(insn, Insn::PutField(_));
                if put {
                    pop_assignable!(&f.ty);
                }
                if let Abs::Ref(s) = pop_ref!() {
                    match program.subtype_path(s, &f.class) {
                        Some(steps) => hooks.on_subtype(s, &f.class, &steps),
                        None => {
                            return Err(fail(format!(
                                "receiver {s} not a subtype of {} at {pc}",
                                f.class
                            )))
                        }
                    }
                }
                let (res, info) = program
                    .resolve_field(&f.class, &f.name)
                    .ok_or_else(|| fail(format!("cannot resolve field {f}")))?;
                if info.ty != f.ty {
                    return Err(fail(format!("field {f} type mismatch")));
                }
                hooks.on_field(f, &res);
                if !put {
                    state.stack.push(Abs::from_type(&f.ty));
                }
            }
            Insn::InvokeVirtual(m)
            | Insn::InvokeInterface(m)
            | Insn::InvokeSpecial(m)
            | Insn::InvokeStatic(m) => {
                let kind = match insn {
                    Insn::InvokeVirtual(_) => InvokeKind::Virtual,
                    Insn::InvokeInterface(_) => InvokeKind::Interface,
                    Insn::InvokeSpecial(_) => InvokeKind::Special,
                    _ => InvokeKind::Static,
                };
                let target = program
                    .get(&m.class)
                    .ok_or_else(|| fail(format!("invoke on missing class {}", m.class)))?;
                match kind {
                    InvokeKind::Interface if !target.is_interface() => {
                        return Err(fail(format!("invokeinterface on class {}", m.class)))
                    }
                    InvokeKind::Virtual if target.is_interface() => {
                        return Err(fail(format!("invokevirtual on interface {}", m.class)))
                    }
                    _ => {}
                }
                // Arguments, right to left.
                for p in m.desc.params.iter().rev() {
                    pop_assignable!(p);
                }
                // Resolution.
                let (res, info) = if kind == InvokeKind::Special && m.is_init() {
                    // Constructors do not inherit.
                    let info = target
                        .method(&m.name, &m.desc)
                        .ok_or_else(|| fail(format!("cannot resolve constructor {m}")))?;
                    (
                        Resolution {
                            declaring: &m.class,
                            steps: Vec::new(),
                        },
                        info,
                    )
                } else {
                    program
                        .resolve_method(&m.class, &m.name, &m.desc)
                        .ok_or_else(|| fail(format!("cannot resolve method {m}")))?
                };
                if kind == InvokeKind::Static {
                    if !info.flags.is_static() {
                        return Err(fail(format!("invokestatic on instance method {m}")));
                    }
                } else {
                    if info.flags.is_static() {
                        return Err(fail(format!("instance invoke of static method {m}")));
                    }
                    if let Abs::Ref(s) = pop_ref!() {
                        match program.subtype_path(s, &m.class) {
                            Some(steps) => hooks.on_subtype(s, &m.class, &steps),
                            None => {
                                return Err(fail(format!(
                                    "receiver {s} not a subtype of {} at {pc}",
                                    m.class
                                )))
                            }
                        }
                    }
                }
                hooks.on_method(m, &res, kind);
                if let Some(ret) = &m.desc.ret {
                    state.stack.push(Abs::from_type(ret));
                }
            }
            Insn::CheckCast(t) => {
                if program.get(t).is_none() {
                    return Err(fail(format!("checkcast to missing class {t}")));
                }
                hooks.on_type_use(t);
                if let Abs::Ref(s) = pop_ref!() {
                    // Source-level plausibility: up- or downcast only.
                    if let Some(steps) = program.subtype_path(s, t) {
                        hooks.on_subtype(s, t, &steps);
                    } else if let Some(steps) = program.subtype_path(t, s) {
                        hooks.on_subtype(t, s, &steps);
                    } else {
                        return Err(fail(format!("impossible cast {s} to {t} at {pc}")));
                    }
                }
                state.stack.push(Abs::Ref(t));
            }
            Insn::InstanceOf(t) => {
                if program.get(t).is_none() {
                    return Err(fail(format!("instanceof missing class {t}")));
                }
                hooks.on_type_use(t);
                pop_ref!();
                state.stack.push(Abs::Int);
            }
            Insn::Goto(t) => next.push(*t as usize),
            Insn::IfEq(t) => {
                pop_int!();
                next.push(*t as usize);
            }
            Insn::Return => {
                if method.desc.ret.is_some() {
                    return Err(fail("return in non-void method".into()));
                }
            }
            Insn::AReturn => {
                let want = match &method.desc.ret {
                    Some(t @ Type::Reference(_)) => t,
                    _ => return Err(fail("areturn in non-reference method".into())),
                };
                pop_assignable!(want);
            }
            Insn::IReturn => {
                if method.desc.ret != Some(Type::Int) {
                    return Err(fail("ireturn in non-int method".into()));
                }
                pop_int!();
            }
            Insn::AThrow => {
                pop_ref!();
            }
        }
        if state.stack.len() > code.max_stack as usize {
            return Err(fail(format!(
                "stack overflow at {pc}: {} > max_stack {}",
                state.stack.len(),
                code.max_stack
            )));
        }
        if !insn.is_terminator() {
            next.push(pc + 1);
        }
        for t in next {
            if t >= code.insns.len() {
                return Err(fail(format!("control flow falls off the end at {pc}")));
            }
            match &states[t] {
                None => {
                    states[t] = Some(state.clone());
                    work.push_back(t);
                }
                Some(existing) => {
                    let merged = merge_states(existing, &state)
                        .map_err(|m| fail(format!("merge at {t}: {m}")))?;
                    if merged != *existing {
                        states[t] = Some(merged);
                        work.push_back(t);
                    }
                }
            }
        }
    }
    Ok(())
}

fn set_local<'a>(state: &mut State<'a>, slot: u16, v: Abs<'a>) -> Result<(), String> {
    let slot = slot as usize;
    if slot >= state.locals.len() {
        return Err(format!("store to out-of-range slot {slot}"));
    }
    state.locals[slot] = Some(v);
    Ok(())
}

fn merge_states<'a>(a: &State<'a>, b: &State<'a>) -> Result<State<'a>, String> {
    if a.stack.len() != b.stack.len() {
        return Err(format!(
            "stack depth mismatch ({} vs {})",
            a.stack.len(),
            b.stack.len()
        ));
    }
    let stack = a
        .stack
        .iter()
        .zip(&b.stack)
        .map(|(&x, &y)| merge_abs(x, y).ok_or_else(|| "int/ref merge".to_owned()))
        .collect::<Result<Vec<_>, _>>()?;
    let locals = a
        .locals
        .iter()
        .zip(&b.locals)
        .map(|(x, y)| match (x, y) {
            (&Some(x), &Some(y)) => merge_abs(x, y),
            _ => None,
        })
        .map(Some)
        .collect::<Vec<_>>()
        .into_iter()
        .map(|o| o.flatten())
        .collect();
    Ok(State { stack, locals })
}

/// The least upper bound of two values at a merge point: a reference
/// merges to the common class if both name the same one, otherwise to
/// `Object`; an int and a reference do not merge.
fn merge_abs<'a>(a: Abs<'a>, b: Abs<'a>) -> Option<Abs<'a>> {
    match (a, b) {
        (Abs::Int, Abs::Int) => Some(Abs::Int),
        (Abs::Null, Abs::Null) => Some(Abs::Null),
        (Abs::Null, r @ Abs::Ref(_)) | (r @ Abs::Ref(_), Abs::Null) => Some(r),
        (Abs::Ref(x), Abs::Ref(y)) => Some(Abs::Ref(if x == y { x } else { OBJECT })),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FieldInfo, Flags};

    fn ctor() -> MethodInfo {
        MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(
                1,
                1,
                vec![
                    Insn::ALoad(0),
                    Insn::InvokeSpecial(MethodRef::new(OBJECT, "<init>", MethodDescriptor::void())),
                    Insn::Return,
                ],
            ),
        )
    }

    fn object_has_init(p: &mut Program) {
        // Our built-in Object has no <init>; add a helper base class
        // instead in tests that need super calls — or simpler, point the
        // ctor at a class that declares one. Here we give tests a base
        // class `Base` with a constructor.
        let mut base = ClassFile::new_class("Base");
        base.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        p.insert(base);
    }

    fn simple_program() -> Program {
        let mut p = Program::new();
        object_has_init(&mut p);
        let mut i = ClassFile::new_interface("I");
        i.methods
            .push(MethodInfo::new_abstract("m", MethodDescriptor::void()));
        p.insert(i);
        let mut a = ClassFile::new_class("A");
        a.superclass = Some("Base".into());
        a.interfaces.push("I".into());
        a.fields.push(FieldInfo::new("f", Type::Int));
        a.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(
                1,
                1,
                vec![
                    Insn::ALoad(0),
                    Insn::InvokeSpecial(MethodRef::new("Base", "<init>", MethodDescriptor::void())),
                    Insn::Return,
                ],
            ),
        ));
        a.methods.push(MethodInfo::new(
            "m",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        p.insert(a);
        p
    }

    #[test]
    fn valid_program_verifies() {
        let p = simple_program();
        let errors = verify_program(&p);
        assert!(errors.is_empty(), "{errors:?}");
        assert!(is_valid(&p));
        let _ = ctor();
    }

    #[test]
    fn missing_superclass_reported() {
        let mut p = simple_program();
        let mut bad = ClassFile::new_class("Bad");
        bad.superclass = Some("Ghost".into());
        bad.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        p.insert(bad);
        let errors = verify_program(&p);
        assert!(errors.iter().any(|e| e.detail.contains("superclass Ghost")));
    }

    #[test]
    fn unimplemented_interface_method_reported() {
        let mut p = simple_program();
        // Class C implements I but provides no m.
        let mut c = ClassFile::new_class("C");
        c.interfaces.push("I".into());
        c.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        p.insert(c);
        let errors = verify_program(&p);
        assert!(
            errors.iter().any(|e| e.detail.contains("not implemented")),
            "{errors:?}"
        );
    }

    #[test]
    fn abstract_class_defers_obligation() {
        let mut p = simple_program();
        let mut c = ClassFile::new_class("C");
        c.flags |= Flags::ABSTRACT;
        c.interfaces.push("I".into());
        c.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        p.insert(c);
        assert!(is_valid(&p), "abstract classes need not implement");
    }

    #[test]
    fn structural_rules_rejected() {
        // Each sub-case mutates the valid program in one way and expects a
        // specific complaint.
        type Mutation = Box<dyn Fn(&mut Program)>;
        let cases: Vec<(&str, Mutation)> = vec![
            (
                "is final",
                Box::new(|p: &mut Program| {
                    let mut base = p.get("Base").unwrap().clone();
                    base.flags |= Flags::FINAL;
                    p.remove("Base");
                    p.insert(base);
                }),
            ),
            (
                "interface instance field",
                Box::new(|p: &mut Program| {
                    let mut i = p.get("I").unwrap().clone();
                    i.fields.push(FieldInfo::new("x", Type::Int));
                    p.remove("I");
                    p.insert(i);
                }),
            ),
            (
                "duplicate method",
                Box::new(|p: &mut Program| {
                    let a = p.get_mut("A").unwrap();
                    let m = a.methods.last().unwrap().clone();
                    a.methods.push(m);
                }),
            ),
            (
                "descriptor references missing class",
                Box::new(|p: &mut Program| {
                    let a = p.get_mut("A").unwrap();
                    a.methods.push(MethodInfo::new_abstract(
                        "ghostly",
                        MethodDescriptor::new(vec![Type::reference("Ghost")], None),
                    ));
                    a.flags |= Flags::ABSTRACT;
                }),
            ),
            (
                "incompatible override",
                Box::new(|p: &mut Program| {
                    let mut base = p.get("Base").unwrap().clone();
                    base.methods.push(MethodInfo::new(
                        "m",
                        MethodDescriptor::new(vec![], Some(Type::Int)),
                        Code::new(1, 1, vec![Insn::IConst(0), Insn::IReturn]),
                    ));
                    p.remove("Base");
                    p.insert(base);
                    // A declares m()V — same name+params, different return.
                }),
            ),
            (
                "abstract method in concrete class",
                Box::new(|p: &mut Program| {
                    let a = p.get_mut("A").unwrap();
                    a.methods.push(MethodInfo::new_abstract(
                        "halfdone",
                        MethodDescriptor::void(),
                    ));
                }),
            ),
            (
                "class has no constructor",
                Box::new(|p: &mut Program| {
                    let a = p.get_mut("A").unwrap();
                    a.methods.retain(|m| !m.is_init());
                }),
            ),
        ];
        for (expected, mutate) in cases {
            let mut p = simple_program();
            mutate(&mut p);
            let errors = verify_program(&p);
            assert!(
                errors.iter().any(|e| e.detail.contains(expected)),
                "expected {expected:?}, got {errors:?}"
            );
        }
    }

    #[test]
    fn stack_underflow_detected() {
        let p = simple_program();
        let class = p.get("A").unwrap();
        let m = MethodInfo::new(
            "bad",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Pop, Insn::Return]),
        );
        let err =
            verify_method_code(&p, class, &m, m.code.as_ref().unwrap(), &mut NoHooks).unwrap_err();
        assert!(err.detail.contains("underflow"));
    }

    #[test]
    fn impossible_cast_detected() {
        let mut p = simple_program();
        let mut d = ClassFile::new_class("D");
        d.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        p.insert(d);
        let class = p.get("A").unwrap();
        // new D(); checkcast I — D and I unrelated.
        let m = MethodInfo::new(
            "bad",
            MethodDescriptor::void(),
            Code::new(
                2,
                1,
                vec![
                    Insn::New("D".into()),
                    Insn::Dup,
                    Insn::InvokeSpecial(MethodRef::new("D", "<init>", MethodDescriptor::void())),
                    Insn::CheckCast("I".into()),
                    Insn::Pop,
                    Insn::Return,
                ],
            ),
        );
        let err =
            verify_method_code(&p, class, &m, m.code.as_ref().unwrap(), &mut NoHooks).unwrap_err();
        assert!(err.detail.contains("impossible cast"), "{err}");
    }

    #[test]
    fn upcast_records_subtype_path() {
        struct Record(Vec<(String, String, usize)>);
        impl VerifyHooks for Record {
            fn on_subtype(&mut self, sub: &str, sup: &str, steps: &[Step<'_>]) {
                self.0.push((sub.to_owned(), sup.to_owned(), steps.len()));
            }
        }
        let p = simple_program();
        let class = p.get("A").unwrap();
        let m = MethodInfo::new(
            "up",
            MethodDescriptor::void(),
            Code::new(
                2,
                1,
                vec![
                    Insn::ALoad(0),
                    Insn::CheckCast("I".into()),
                    Insn::Pop,
                    Insn::Return,
                ],
            ),
        );
        let mut hooks = Record(Vec::new());
        verify_method_code(&p, class, &m, m.code.as_ref().unwrap(), &mut hooks).expect("verifies");
        assert!(hooks
            .0
            .iter()
            .any(|(s, t, n)| s == "A" && t == "I" && *n == 1));
    }

    #[test]
    fn branch_merge_verifies() {
        let p = simple_program();
        let class = p.get("A").unwrap();
        // if (x == 0) push null else push new A-as-this; both arms leave a
        // reference; merged type flows to athrow.
        let m = MethodInfo::new(
            "branchy",
            MethodDescriptor::new(vec![Type::Int], None),
            Code::new(
                2,
                2,
                vec![
                    Insn::ILoad(1),
                    Insn::IfEq(4),
                    Insn::ALoad(0),
                    Insn::Goto(5),
                    Insn::AConstNull,
                    Insn::AThrow,
                ],
            ),
        );
        verify_method_code(&p, class, &m, m.code.as_ref().unwrap(), &mut NoHooks)
            .expect("merges and verifies");
    }

    #[test]
    fn falling_off_the_end_detected() {
        let p = simple_program();
        let class = p.get("A").unwrap();
        let m = MethodInfo::new(
            "bad",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Nop]),
        );
        let err =
            verify_method_code(&p, class, &m, m.code.as_ref().unwrap(), &mut NoHooks).unwrap_err();
        assert!(err.detail.contains("falls off"));
    }

    #[test]
    fn wrong_return_detected() {
        let p = simple_program();
        let class = p.get("A").unwrap();
        let m = MethodInfo::new(
            "bad",
            MethodDescriptor::new(vec![], Some(Type::Int)),
            Code::new(1, 1, vec![Insn::Return]),
        );
        let err =
            verify_method_code(&p, class, &m, m.code.as_ref().unwrap(), &mut NoHooks).unwrap_err();
        assert!(err.detail.contains("return in non-void"));
    }

    #[test]
    fn invokeinterface_requires_interface() {
        let p = simple_program();
        let class = p.get("A").unwrap();
        let m = MethodInfo::new(
            "bad",
            MethodDescriptor::void(),
            Code::new(
                1,
                1,
                vec![
                    Insn::ALoad(0),
                    Insn::InvokeInterface(MethodRef::new("A", "m", MethodDescriptor::void())),
                    Insn::Return,
                ],
            ),
        );
        let err =
            verify_method_code(&p, class, &m, m.code.as_ref().unwrap(), &mut NoHooks).unwrap_err();
        assert!(err.detail.contains("invokeinterface on class"));
    }

    #[test]
    fn interface_dispatch_verifies_and_resolves() {
        let p = simple_program();
        let class = p.get("A").unwrap();
        let m = MethodInfo::new(
            "go",
            MethodDescriptor::new(vec![Type::reference("I")], None),
            Code::new(
                1,
                2,
                vec![
                    Insn::ALoad(1),
                    Insn::InvokeInterface(MethodRef::new("I", "m", MethodDescriptor::void())),
                    Insn::Return,
                ],
            ),
        );
        verify_method_code(&p, class, &m, m.code.as_ref().unwrap(), &mut NoHooks)
            .expect("interface call verifies");
    }
}
