//! The mini-Java source language the decompiler emits.
//!
//! Deliberately small: just enough surface syntax for decompiled class
//! files — classes/interfaces, typed fields, methods with statement
//! bodies, and the expressions the instruction set can produce. The
//! pretty-printed form is what the "lines" size metric counts.

use std::fmt;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

/// A source-level type name: `int`, `void` (returns only) or a class name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SrcType {
    /// `int`.
    Int,
    /// `void` (method returns only).
    Void,
    /// A class or interface reference.
    Class(String),
}

impl SrcType {
    /// The referenced class, if any.
    pub fn class_name(&self) -> Option<&str> {
        match self {
            SrcType::Class(c) => Some(c),
            _ => None,
        }
    }
}

impl fmt::Display for SrcType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SrcType::Int => write!(f, "int"),
            SrcType::Void => write!(f, "void"),
            SrcType::Class(c) => write!(f, "{c}"),
        }
    }
}

/// A source class or interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceClass {
    /// Name.
    pub name: String,
    /// Whether this is an interface.
    pub is_interface: bool,
    /// Whether the class is abstract.
    pub is_abstract: bool,
    /// Superclass (classes only).
    pub superclass: Option<String>,
    /// Implemented (or, for interfaces, extended) interfaces.
    pub interfaces: Vec<String>,
    /// Fields.
    pub fields: Vec<(SrcType, String)>,
    /// Methods (constructors have the class name and `Void` return).
    pub methods: Vec<SourceMethod>,
}

/// Hashes the class's outline — name, supertypes, and how many fields and
/// methods it declares — not every member: equal classes hash equal, and a
/// hash set compares classes with an equal outline in full. Hashing whole
/// method lists would cost more than the comparisons it saves.
impl Hash for SourceClass {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        self.is_interface.hash(state);
        self.superclass.hash(state);
        self.interfaces.hash(state);
        self.fields.len().hash(state);
        self.methods.len().hash(state);
    }
}

/// A source method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceMethod {
    /// Name (class name for constructors).
    pub name: String,
    /// Whether this is a constructor.
    pub is_ctor: bool,
    /// Return type.
    pub ret: SrcType,
    /// Parameters.
    pub params: Vec<(SrcType, String)>,
    /// Body statements; `None` for abstract methods.
    pub body: Option<Vec<Stmt>>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// A local declaration with initializer.
    Local(SrcType, String, SExpr),
    /// An expression evaluated for effect.
    Expr(SExpr),
    /// An assignment `target = value;` (target must be a field or var).
    Assign(SExpr, SExpr),
    /// `return;` / `return e;`
    Return(Option<SExpr>),
    /// `throw e;`
    Throw(SExpr),
    /// `if (e != 0) { }` — the decompiler's crude branch rendering.
    IfNonZero(SExpr),
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SExpr {
    /// `null`.
    Null,
    /// An integer literal.
    Int(i32),
    /// `this`.
    This,
    /// A local variable or parameter.
    Var(String),
    /// Field access `recv.f`.
    Field(Box<SExpr>, String),
    /// Method call `recv.m(args)`; `recv = None` renders a bare call.
    Call(Option<Box<SExpr>>, String, Vec<SExpr>),
    /// Static call `C.m(args)`.
    StaticCall(String, String, Vec<SExpr>),
    /// `new C(args)`.
    New(String, Vec<SExpr>),
    /// `(T) e`.
    Cast(SrcType, Box<SExpr>),
    /// `e instanceof T ? 1 : 0` (rendered as an int expression).
    InstanceOf(Box<SExpr>, String),
    /// `a + b`.
    Add(Box<SExpr>, Box<SExpr>),
    /// `C.class` (reflection literal).
    ClassLiteral(String),
}

/// A set of source files (one per class), the decompiler's output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceSet {
    /// The classes, in emission order.
    pub classes: Vec<SourceClass>,
}

impl SourceSet {
    /// Finds a class by name.
    pub fn class(&self, name: &str) -> Option<&SourceClass> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Renders all classes as source text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.classes {
            let _ = writeln!(out, "{}", render_class(c));
        }
        out
    }

    /// The non-blank line count of the rendered source — the "lines"
    /// metric of the paper's motivating comparison (7,661 → 815 lines).
    pub fn line_count(&self) -> usize {
        self.render()
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count()
    }
}

/// Renders one class.
pub fn render_class(c: &SourceClass) -> String {
    let mut out = String::new();
    let kind = if c.is_interface { "interface" } else { "class" };
    let abs = if c.is_abstract && !c.is_interface {
        "abstract "
    } else {
        ""
    };
    let _ = write!(out, "{abs}{kind} {}", c.name);
    if let Some(s) = &c.superclass {
        if s != "Object" {
            let _ = write!(out, " extends {s}");
        }
    }
    if !c.interfaces.is_empty() {
        let kw = if c.is_interface {
            "extends"
        } else {
            "implements"
        };
        let _ = write!(out, " {kw} {}", c.interfaces.join(", "));
    }
    let _ = writeln!(out, " {{");
    for (ty, name) in &c.fields {
        let _ = writeln!(out, "  {ty} {name};");
    }
    for m in &c.methods {
        let params = m
            .params
            .iter()
            .map(|(t, n)| format!("{t} {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let header = if m.is_ctor {
            format!("{}({params})", m.name)
        } else {
            format!("{} {}({params})", m.ret, m.name)
        };
        match &m.body {
            None => {
                let _ = writeln!(out, "  abstract {header};");
            }
            Some(stmts) => {
                let _ = writeln!(out, "  {header} {{");
                for s in stmts {
                    let _ = writeln!(out, "    {}", render_stmt(s));
                }
                let _ = writeln!(out, "  }}");
            }
        }
    }
    let _ = write!(out, "}}");
    out
}

fn render_stmt(s: &Stmt) -> String {
    match s {
        Stmt::Local(ty, name, e) => format!("{ty} {name} = {};", render_expr(e)),
        Stmt::Expr(e) => format!("{};", render_expr(e)),
        Stmt::Assign(t, v) => format!("{} = {};", render_expr(t), render_expr(v)),
        Stmt::Return(None) => "return;".to_owned(),
        Stmt::Return(Some(e)) => format!("return {};", render_expr(e)),
        Stmt::Throw(e) => format!("throw {};", render_expr(e)),
        Stmt::IfNonZero(e) => format!("if ({} != 0) {{ }}", render_expr(e)),
    }
}

fn render_expr(e: &SExpr) -> String {
    match e {
        SExpr::Null => "null".to_owned(),
        SExpr::Int(i) => i.to_string(),
        SExpr::This => "this".to_owned(),
        SExpr::Var(v) => v.clone(),
        SExpr::Field(r, f) => format!("{}.{f}", render_expr(r)),
        SExpr::Call(None, m, args) => format!("{m}({})", render_args(args)),
        SExpr::Call(Some(r), m, args) => format!("{}.{m}({})", render_expr(r), render_args(args)),
        SExpr::StaticCall(c, m, args) => format!("{c}.{m}({})", render_args(args)),
        SExpr::New(c, args) => format!("new {c}({})", render_args(args)),
        SExpr::Cast(t, r) => format!("(({t}) {})", render_expr(r)),
        SExpr::InstanceOf(r, t) => format!("({} instanceof {t} ? 1 : 0)", render_expr(r)),
        SExpr::Add(a, b) => format!("({} + {})", render_expr(a), render_expr(b)),
        SExpr::ClassLiteral(c) => format!("{c}.class"),
    }
}

fn render_args(args: &[SExpr]) -> String {
    args.iter().map(render_expr).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_class() {
        let c = SourceClass {
            name: "A".into(),
            is_interface: false,
            is_abstract: false,
            superclass: Some("Base".into()),
            interfaces: vec!["I".into()],
            fields: vec![(SrcType::Int, "f".into())],
            methods: vec![SourceMethod {
                name: "m".into(),
                is_ctor: false,
                ret: SrcType::Void,
                params: vec![(SrcType::Class("B".into()), "p0".into())],
                body: Some(vec![Stmt::Return(None)]),
            }],
        };
        let text = render_class(&c);
        assert!(text.contains("class A extends Base implements I {"));
        assert!(text.contains("int f;"));
        assert!(text.contains("void m(B p0) {"));
        assert!(text.contains("return;"));
    }

    #[test]
    fn renders_expressions() {
        let e = SExpr::Cast(
            SrcType::Class("I".into()),
            Box::new(SExpr::New("A".into(), vec![SExpr::Int(3)])),
        );
        assert_eq!(render_expr(&e), "((I) new A(3))");
        let call = SExpr::Call(
            Some(Box::new(SExpr::This)),
            "m".into(),
            vec![SExpr::Null, SExpr::Var("x".into())],
        );
        assert_eq!(render_expr(&call), "this.m(null, x)");
        assert_eq!(render_expr(&SExpr::ClassLiteral("A".into())), "A.class");
    }

    #[test]
    fn line_count_counts_nonblank() {
        let mut set = SourceSet::default();
        set.classes.push(SourceClass {
            name: "A".into(),
            is_interface: true,
            is_abstract: true,
            superclass: None,
            interfaces: vec![],
            fields: vec![],
            methods: vec![SourceMethod {
                name: "m".into(),
                is_ctor: false,
                ret: SrcType::Void,
                params: vec![],
                body: None,
            }],
        });
        assert_eq!(set.line_count(), 3); // header, abstract method, brace
        assert!(set.class("A").is_some());
        assert!(set.class("B").is_none());
    }

    #[test]
    fn interface_renders_extends() {
        let c = SourceClass {
            name: "I".into(),
            is_interface: true,
            is_abstract: true,
            superclass: None,
            interfaces: vec!["J".into()],
            fields: vec![],
            methods: vec![],
        };
        assert!(render_class(&c).contains("interface I extends J"));
    }
}
