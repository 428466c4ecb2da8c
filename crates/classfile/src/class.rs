//! Class files: the resolved in-memory representation.

use crate::{Flags, Insn, MethodDescriptor, Type};
use std::fmt;
use std::sync::Arc;

/// The built-in root class name.
pub const OBJECT: &str = "Object";

/// A class or interface.
///
/// Interfaces set [`Flags::INTERFACE`]; their `superclass` is `Object` and
/// `interfaces` lists the super-interfaces they extend. For classes,
/// `interfaces` lists the implemented interfaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassFile {
    /// The class name.
    pub name: String,
    /// Access flags.
    pub flags: Flags,
    /// The superclass (`None` only for `Object` itself).
    pub superclass: Option<String>,
    /// Implemented interfaces (classes) or extended interfaces
    /// (interfaces).
    pub interfaces: Vec<String>,
    /// Declared fields.
    pub fields: Vec<FieldInfo>,
    /// Declared methods (including `<init>` constructors).
    pub methods: Vec<MethodInfo>,
}

impl ClassFile {
    /// A new concrete class extending `Object`.
    pub fn new_class(name: impl Into<String>) -> Self {
        ClassFile {
            name: name.into(),
            flags: Flags::PUBLIC | Flags::SUPER,
            superclass: Some(OBJECT.to_owned()),
            interfaces: Vec::new(),
            fields: Vec::new(),
            methods: Vec::new(),
        }
    }

    /// A new interface.
    pub fn new_interface(name: impl Into<String>) -> Self {
        ClassFile {
            name: name.into(),
            flags: Flags::PUBLIC | Flags::INTERFACE | Flags::ABSTRACT,
            superclass: Some(OBJECT.to_owned()),
            interfaces: Vec::new(),
            fields: Vec::new(),
            methods: Vec::new(),
        }
    }

    /// Whether this is an interface.
    pub fn is_interface(&self) -> bool {
        self.flags.is_interface()
    }

    /// Whether this class may be instantiated.
    pub fn is_instantiable(&self) -> bool {
        !self.is_interface() && !self.flags.is_abstract()
    }

    /// Finds a declared method by name and descriptor.
    pub fn method(&self, name: &str, desc: &MethodDescriptor) -> Option<&MethodInfo> {
        self.methods
            .iter()
            .find(|m| m.name == name && m.desc == *desc)
    }

    /// Finds a declared field by name.
    pub fn field(&self, name: &str) -> Option<&FieldInfo> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Iterates constructors.
    pub fn constructors(&self) -> impl Iterator<Item = &MethodInfo> {
        self.methods.iter().filter(|m| m.name == "<init>")
    }
}

impl fmt::Display for ClassFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.is_interface() {
            "interface"
        } else {
            "class"
        };
        write!(f, "{} {}", kind, self.name)?;
        if let Some(s) = &self.superclass {
            write!(f, " extends {s}")?;
        }
        if !self.interfaces.is_empty() {
            write!(f, " implements {}", self.interfaces.join(", "))?;
        }
        writeln!(f, " {{")?;
        for field in &self.fields {
            writeln!(f, "  {} {};", field.ty, field.name)?;
        }
        for m in &self.methods {
            writeln!(
                f,
                "  {}{} {}",
                m.name,
                m.desc,
                if m.code.is_some() { "{...}" } else { ";" }
            )?;
        }
        write!(f, "}}")
    }
}

/// A field declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldInfo {
    /// Access flags.
    pub flags: Flags,
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
}

impl FieldInfo {
    /// A public instance field.
    pub fn new(name: impl Into<String>, ty: Type) -> Self {
        FieldInfo {
            flags: Flags::PUBLIC,
            name: name.into(),
            ty,
        }
    }
}

/// A method declaration, possibly with code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodInfo {
    /// Access flags.
    pub flags: Flags,
    /// Method name (`<init>` for constructors).
    pub name: String,
    /// Descriptor.
    pub desc: MethodDescriptor,
    /// The body; `None` for abstract and interface methods. Bodies are
    /// shared: cloning a method, or keeping it in a reduced class, shares
    /// the body, and `Arc::make_mut` copies it only when another method
    /// still holds it.
    pub code: Option<Arc<Code>>,
}

impl MethodInfo {
    /// A public concrete method.
    pub fn new(name: impl Into<String>, desc: MethodDescriptor, code: Code) -> Self {
        MethodInfo {
            flags: Flags::PUBLIC,
            name: name.into(),
            desc,
            code: Some(Arc::new(code)),
        }
    }

    /// A public abstract method (no body).
    pub fn new_abstract(name: impl Into<String>, desc: MethodDescriptor) -> Self {
        MethodInfo {
            flags: Flags::PUBLIC | Flags::ABSTRACT,
            name: name.into(),
            desc,
            code: None,
        }
    }

    /// Whether this is a constructor.
    pub fn is_init(&self) -> bool {
        self.name == "<init>"
    }
}

/// A method body: limits plus the instruction list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Code {
    /// Operand-stack limit.
    pub max_stack: u16,
    /// Local-variable slots.
    pub max_locals: u16,
    /// Instructions; branch targets are indices into this list.
    pub insns: Vec<Insn>,
}

impl Code {
    /// Creates code with the given limits.
    pub fn new(max_stack: u16, max_locals: u16, insns: Vec<Insn>) -> Self {
        Code {
            max_stack,
            max_locals,
            insns,
        }
    }

    /// The trivial replacement body (`aconst_null; athrow`) used when a
    /// method's `!code` item is removed — it verifies against any return
    /// type.
    pub fn trivial(max_locals: u16) -> Self {
        Code {
            max_stack: 1,
            max_locals,
            insns: vec![Insn::AConstNull, Insn::AThrow],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_kinds() {
        let c = ClassFile::new_class("A");
        assert!(!c.is_interface());
        assert!(c.is_instantiable());
        assert_eq!(c.superclass.as_deref(), Some(OBJECT));
        let i = ClassFile::new_interface("I");
        assert!(i.is_interface());
        assert!(!i.is_instantiable());
    }

    #[test]
    fn member_lookup() {
        let mut c = ClassFile::new_class("A");
        c.fields.push(FieldInfo::new("f", Type::Int));
        c.methods.push(MethodInfo::new(
            "m",
            MethodDescriptor::void(),
            Code::trivial(1),
        ));
        c.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::trivial(1),
        ));
        assert!(c.field("f").is_some());
        assert!(c.field("g").is_none());
        assert!(c.method("m", &MethodDescriptor::void()).is_some());
        assert!(c
            .method("m", &MethodDescriptor::new(vec![Type::Int], None))
            .is_none());
        assert_eq!(c.constructors().count(), 1);
        assert!(c.constructors().next().expect("one ctor").is_init());
    }

    #[test]
    fn trivial_code_shape() {
        let t = Code::trivial(3);
        assert_eq!(t.insns, vec![Insn::AConstNull, Insn::AThrow]);
        assert_eq!(t.max_locals, 3);
    }

    #[test]
    fn abstract_method_has_no_code() {
        let m = MethodInfo::new_abstract("m", MethodDescriptor::void());
        assert!(m.code.is_none());
        assert!(m.flags.is_abstract());
    }

    #[test]
    fn display_renders() {
        let mut c = ClassFile::new_class("A");
        c.interfaces.push("I".into());
        c.fields.push(FieldInfo::new("f", Type::Int));
        let text = c.to_string();
        assert!(text.contains("class A extends Object implements I"));
        assert!(text.contains("int f;"));
    }
}
