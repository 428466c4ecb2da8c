//! Hand-built classfile programs shared by the model tests and the model
//! pins. Each exercises one constraint family of the classfile model.

#![allow(dead_code)]

use lbr::classfile::{
    ClassFile, Code, Insn, MethodDescriptor, MethodInfo, MethodRef, Program, Type,
};

/// A `<init>()V` that just returns.
pub fn ctor() -> MethodInfo {
    MethodInfo::new(
        "<init>",
        MethodDescriptor::void(),
        Code::new(1, 1, vec![Insn::Return]),
    )
}

/// A concrete `name()V` that just returns.
pub fn void_method(name: &str) -> MethodInfo {
    MethodInfo::new(
        name,
        MethodDescriptor::void(),
        Code::new(1, 1, vec![Insn::Return]),
    )
}

/// The §2-like program:
///
/// ```text
/// interface I { m() }   class A implements I { m() }   class B extends A
/// class M { x(I): calls I.m;  main: new A, checkcast I, calls x }
/// ```
pub fn paperish_program() -> Program {
    let mut i = ClassFile::new_interface("I");
    i.methods
        .push(MethodInfo::new_abstract("m", MethodDescriptor::void()));
    let mut a = ClassFile::new_class("A");
    a.interfaces.push("I".into());
    a.methods.push(ctor());
    a.methods.push(void_method("m"));
    let mut b = ClassFile::new_class("B");
    b.superclass = Some("A".into());
    b.methods.push(ctor());
    let mut m = ClassFile::new_class("M");
    m.methods.push(ctor());
    m.methods.push(MethodInfo::new(
        "x",
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
    ));
    m.methods.push(MethodInfo::new(
        "main",
        MethodDescriptor::void(),
        Code::new(
            3,
            1,
            vec![
                Insn::ALoad(0),
                Insn::New("A".into()),
                Insn::Dup,
                Insn::InvokeSpecial(MethodRef::new("A", "<init>", MethodDescriptor::void())),
                Insn::CheckCast("I".into()),
                Insn::InvokeVirtual(MethodRef::new(
                    "M",
                    "x",
                    MethodDescriptor::new(vec![Type::reference("I")], None),
                )),
                Insn::Return,
            ],
        ),
    ));
    [i, a, b, m].into_iter().collect()
}

/// A diamond of obligations: `J` declares `p`, `I1` and `I2` both extend
/// `J`, and `C` implements both and defines `p`.
pub fn diamond_program() -> Program {
    let mut j = ClassFile::new_interface("J");
    j.methods
        .push(MethodInfo::new_abstract("p", MethodDescriptor::void()));
    let mut i1 = ClassFile::new_interface("I1");
    i1.interfaces.push("J".into());
    let mut i2 = ClassFile::new_interface("I2");
    i2.interfaces.push("J".into());
    let mut c = ClassFile::new_class("C");
    c.interfaces.push("I1".into());
    c.interfaces.push("I2".into());
    c.methods.push(ctor());
    c.methods.push(void_method("p"));
    [j, i1, i2, c].into_iter().collect()
}

/// [`paperish_program`] plus a class `R` whose body loads `B.class`, the
/// reflection constraint.
pub fn reflection_program() -> Program {
    let mut p = paperish_program();
    let mut r = ClassFile::new_class("R");
    r.methods.push(ctor());
    r.methods.push(MethodInfo::new(
        "reflect",
        MethodDescriptor::void(),
        Code::new(
            1,
            1,
            vec![Insn::LdcClass("B".into()), Insn::Pop, Insn::Return],
        ),
    ));
    p.insert(r);
    p
}

/// More obligation paths than the model enumerates one by one: `J`
/// declares `p`, `M1..M4` extend `J`, `I1..I5` each extend all of
/// `M1..M4`, and `C` implements `I1..I5` and defines `p` — 20 paths from
/// `C` to `J`.
pub fn path_cap_program() -> Program {
    let mut j = ClassFile::new_interface("J");
    j.methods
        .push(MethodInfo::new_abstract("p", MethodDescriptor::void()));
    let mut classes = vec![j];
    for k in 1..=4 {
        let mut m = ClassFile::new_interface(format!("M{k}"));
        m.interfaces.push("J".into());
        classes.push(m);
    }
    for k in 1..=5 {
        let mut i = ClassFile::new_interface(format!("I{k}"));
        i.interfaces = (1..=4).map(|m| format!("M{m}")).collect();
        classes.push(i);
    }
    let mut c = ClassFile::new_class("C");
    c.interfaces = (1..=5).map(|i| format!("I{i}")).collect();
    c.methods.push(ctor());
    c.methods.push(void_method("p"));
    classes.push(c);
    classes.into_iter().collect()
}

/// Every member geometry a class's size plan distinguishes: a method
/// declared twice, an interface listed twice, an abstract class with an
/// abstract method, an interface method, a superclass relation that a
/// reduction rewires to `Object`, a constructor without code, and bodies
/// that share pool entries with each other and with the declarations.
pub fn member_geometry_program() -> Program {
    use lbr::classfile::{FieldInfo, FieldRef, Flags};
    let mut i = ClassFile::new_interface("I");
    i.methods
        .push(MethodInfo::new_abstract("m", MethodDescriptor::void()));
    let mut base = ClassFile::new_class("Base");
    base.flags |= Flags::ABSTRACT;
    base.methods.push(ctor());
    base.methods
        .push(MethodInfo::new_abstract("run", MethodDescriptor::void()));
    base.fields.push(FieldInfo::new("count", Type::Int));
    let mut a = ClassFile::new_class("A");
    a.superclass = Some("Base".into());
    a.interfaces = vec!["I".into(), "I".into()];
    a.fields.push(FieldInfo::new("next", Type::reference("A")));
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
    let mut ctor_without_code =
        MethodInfo::new_abstract("<init>", MethodDescriptor::new(vec![Type::Int], None));
    ctor_without_code.flags = Flags::PUBLIC;
    a.methods.push(ctor_without_code);
    let touch = || {
        Code::new(
            2,
            1,
            vec![
                Insn::ALoad(0),
                Insn::ALoad(0),
                Insn::GetField(FieldRef::new("A", "next", Type::reference("A"))),
                Insn::PutField(FieldRef::new("A", "next", Type::reference("A"))),
                Insn::ALoad(0),
                Insn::InvokeVirtual(MethodRef::new("A", "m", MethodDescriptor::void())),
                Insn::New("A".into()),
                Insn::CheckCast("I".into()),
                Insn::InvokeInterface(MethodRef::new("I", "m", MethodDescriptor::void())),
                Insn::Return,
            ],
        )
    };
    a.methods
        .push(MethodInfo::new("m", MethodDescriptor::void(), touch()));
    a.methods
        .push(MethodInfo::new("m", MethodDescriptor::void(), touch()));
    a.methods
        .push(MethodInfo::new("run", MethodDescriptor::void(), touch()));
    [i, base, a].into_iter().collect()
}
