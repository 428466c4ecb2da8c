//! Field and method types with JVM-style descriptor syntax.

use std::fmt;

/// A value type: a primitive `int` or a reference to a named class or
/// interface.
///
/// The descriptor syntax follows the JVM: `I` for `int`, `LName;` for a
/// reference.
///
/// # Examples
///
/// ```
/// use lbr_classfile::Type;
/// assert_eq!(Type::Int.descriptor(), "I");
/// assert_eq!(Type::reference("Foo").descriptor(), "LFoo;");
/// assert_eq!(Type::parse("LFoo;"), Some(Type::reference("Foo")));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// The 32-bit integer primitive.
    Int,
    /// A reference to the named class or interface.
    Reference(String),
}

impl Type {
    /// A reference type.
    pub fn reference(name: impl Into<String>) -> Type {
        Type::Reference(name.into())
    }

    /// The referenced class name, if any.
    pub fn class_name(&self) -> Option<&str> {
        match self {
            Type::Reference(n) => Some(n),
            Type::Int => None,
        }
    }

    /// Whether this is a reference type.
    pub fn is_reference(&self) -> bool {
        matches!(self, Type::Reference(_))
    }

    /// The JVM descriptor of this type.
    pub fn descriptor(&self) -> String {
        let mut out = String::new();
        self.write_descriptor(&mut out);
        out
    }

    /// Appends [`Type::descriptor`] to `out`.
    pub(crate) fn write_descriptor(&self, out: &mut String) {
        match self {
            Type::Int => out.push('I'),
            Type::Reference(n) => {
                out.push('L');
                out.push_str(n);
                out.push(';');
            }
        }
    }

    /// Parses a single type descriptor.
    pub fn parse(s: &str) -> Option<Type> {
        let (t, rest) = Self::parse_prefix(s)?;
        rest.is_empty().then_some(t)
    }

    /// Parses a type descriptor prefix, returning the remainder.
    pub fn parse_prefix(s: &str) -> Option<(Type, &str)> {
        match s.as_bytes().first()? {
            b'I' => Some((Type::Int, &s[1..])),
            b'L' => {
                let end = s.find(';')?;
                Some((Type::reference(&s[1..end]), &s[end + 1..]))
            }
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Reference(n) => write!(f, "{n}"),
        }
    }
}

/// A method descriptor `(T̄)R` where `R` is a type or `V` (void).
///
/// # Examples
///
/// ```
/// use lbr_classfile::{MethodDescriptor, Type};
/// let d = MethodDescriptor::new(vec![Type::Int, Type::reference("A")], None);
/// assert_eq!(d.descriptor(), "(ILA;)V");
/// assert_eq!(MethodDescriptor::parse("(ILA;)V"), Some(d));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodDescriptor {
    /// Parameter types.
    pub params: Vec<Type>,
    /// Return type; `None` means `void`.
    pub ret: Option<Type>,
}

impl MethodDescriptor {
    /// Creates a descriptor.
    pub fn new(params: Vec<Type>, ret: Option<Type>) -> Self {
        MethodDescriptor { params, ret }
    }

    /// `()V`.
    pub fn void() -> Self {
        MethodDescriptor::new(Vec::new(), None)
    }

    /// The JVM descriptor string.
    pub fn descriptor(&self) -> String {
        let mut out = String::new();
        self.write_descriptor(&mut out);
        out
    }

    /// Appends [`MethodDescriptor::descriptor`] to `out`, so a caller
    /// that renders many descriptors can reuse one buffer.
    pub(crate) fn write_descriptor(&self, out: &mut String) {
        out.push('(');
        for p in &self.params {
            p.write_descriptor(out);
        }
        out.push(')');
        match &self.ret {
            Some(t) => t.write_descriptor(out),
            None => out.push('V'),
        }
    }

    /// Parses a method descriptor string.
    pub fn parse(s: &str) -> Option<MethodDescriptor> {
        let rest = s.strip_prefix('(')?;
        let close = rest.find(')')?;
        let (mut params_str, ret_str) = (&rest[..close], &rest[close + 1..]);
        let mut params = Vec::new();
        while !params_str.is_empty() {
            let (t, r) = Type::parse_prefix(params_str)?;
            params.push(t);
            params_str = r;
        }
        let ret = if ret_str == "V" {
            None
        } else {
            Some(Type::parse(ret_str)?)
        };
        Some(MethodDescriptor { params, ret })
    }

    /// Every class name referenced by this descriptor.
    pub fn referenced_classes(&self) -> impl Iterator<Item = &str> {
        self.params
            .iter()
            .chain(self.ret.iter())
            .filter_map(|t| t.class_name())
    }
}

impl fmt::Display for MethodDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.descriptor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_descriptor_roundtrip() {
        for t in [
            Type::Int,
            Type::reference("A"),
            Type::reference("pkg_Name0"),
        ] {
            assert_eq!(Type::parse(&t.descriptor()), Some(t.clone()));
        }
        assert_eq!(Type::parse("X"), None);
        assert_eq!(Type::parse("LUnterminated"), None);
        assert_eq!(Type::parse("II"), None); // trailing garbage
    }

    #[test]
    fn method_descriptor_roundtrip() {
        let cases = [
            MethodDescriptor::void(),
            MethodDescriptor::new(vec![Type::Int], Some(Type::Int)),
            MethodDescriptor::new(
                vec![Type::reference("A"), Type::Int, Type::reference("B")],
                Some(Type::reference("C")),
            ),
        ];
        for d in cases {
            assert_eq!(MethodDescriptor::parse(&d.descriptor()), Some(d.clone()));
        }
        assert_eq!(MethodDescriptor::parse("()"), None);
        assert_eq!(MethodDescriptor::parse("(I"), None);
        assert_eq!(MethodDescriptor::parse("I)V"), None);
    }

    #[test]
    fn referenced_classes() {
        let d = MethodDescriptor::new(
            vec![Type::reference("A"), Type::Int],
            Some(Type::reference("B")),
        );
        let classes: Vec<&str> = d.referenced_classes().collect();
        assert_eq!(classes, vec!["A", "B"]);
    }

    #[test]
    fn display() {
        assert_eq!(Type::Int.to_string(), "int");
        assert_eq!(Type::reference("A").to_string(), "A");
        assert_eq!(MethodDescriptor::void().to_string(), "()V");
    }
}
