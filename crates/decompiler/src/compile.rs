//! The mini source compiler.
//!
//! Plays the role of `javac` in the paper's oracle: the decompiled source
//! is recompiled, and a benchmark "fails" when compilation produces
//! errors. Reduction must preserve the *full set of error messages*, so
//! diagnostics carry enough context (class, member, symbol) to be stable
//! identities, and are rendered deterministically.

use crate::source::{SExpr, SourceClass, SourceSet, SrcType, Stmt};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

/// A compiler diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Diagnostic {
    /// The class being compiled.
    pub class: String,
    /// The member, if the error is inside one.
    pub member: Option<String>,
    /// The message (javac-flavoured).
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.member {
            Some(m) => write!(f, "error: [{}::{}] {}", self.class, m, self.message),
            None => write!(f, "error: [{}] {}", self.class, self.message),
        }
    }
}

/// Compiles a source set, returning all diagnostics (empty = compiles).
pub fn compile(set: &SourceSet) -> Vec<Diagnostic> {
    let index: ClassIndex<'_> = set.classes.iter().map(|c| (c.name.as_str(), c)).collect();
    let mut diags: Vec<Diagnostic> = set
        .classes
        .iter()
        .flat_map(|class| {
            let bodies: Vec<&[Stmt]> = class
                .methods
                .iter()
                .map(|m| m.body.as_deref().unwrap_or_default())
                .collect();
            check_class(&index, class, &bodies).diags
        })
        .collect();
    diags.sort();
    diags.dedup();
    diags
}

/// The rendered, deduplicated, sorted error messages — the oracle compares
/// these sets.
pub fn error_messages(set: &SourceSet) -> BTreeSet<String> {
    compile(set).into_iter().map(|d| d.to_string()).collect()
}

/// The classes a check resolves names against, by name.
pub(crate) type ClassIndex<'s> = HashMap<&'s str, &'s SourceClass>;

/// One class's diagnostics and what they depend on besides the class.
///
/// The check reads only the signature of a class it finds in the index
/// (never a body), so an index that resolves every name looked up to the
/// same signatures, and misses the same names, yields the same diagnostics.
pub(crate) struct Checked<'s> {
    /// The diagnostics, all attributed to the checked class.
    pub(crate) diags: Vec<Diagnostic>,
    /// The names looked up and found: index keys, sorted and deduplicated.
    pub(crate) found: Vec<&'s str>,
    /// The names looked up and not found, each once.
    pub(crate) missing: Vec<String>,
}

/// Type-checks one class against `index`, which must cover the whole
/// program (the class itself included). `class` gives the declarations and
/// `bodies[i]` the statements of its `i`-th method (empty without a body).
pub(crate) fn check_class<'s>(
    index: &ClassIndex<'s>,
    class: &SourceClass,
    bodies: &[&[Stmt]],
) -> Checked<'s> {
    let mut compiler = Compiler {
        index,
        found: RefCell::default(),
        missing: RefCell::default(),
        diags: Vec::new(),
    };
    compiler.check_class(class, bodies);
    let mut found = compiler.found.into_inner();
    found.sort_unstable();
    found.dedup();
    Checked {
        diags: compiler.diags,
        found,
        missing: compiler.missing.into_inner(),
    }
}

/// The poisoned type used to stop cascading diagnostics.
const ERROR_TYPE: &str = "<error>";

/// The variables in scope and their types.
type Env<'b> = HashMap<&'b str, SrcType>;

fn poison() -> SrcType {
    SrcType::Class(ERROR_TYPE.to_owned())
}

struct Compiler<'i, 's> {
    index: &'i ClassIndex<'s>,
    /// Names found in the index, in lookup order (runs collapsed).
    found: RefCell<Vec<&'s str>>,
    /// Names missing from the index, each once.
    missing: RefCell<Vec<String>>,
    diags: Vec<Diagnostic>,
}

impl<'s> Compiler<'_, 's> {
    fn diag(&mut self, class: &str, member: Option<&str>, message: String) {
        self.diags.push(Diagnostic {
            class: class.to_owned(),
            member: member.map(str::to_owned),
            message,
        });
    }

    /// Resolves a class name, recording the lookup.
    fn lookup(&self, name: &str) -> Option<&'s SourceClass> {
        match self.index.get_key_value(name) {
            Some((&key, &class)) => {
                let mut found = self.found.borrow_mut();
                if found.last() != Some(&key) {
                    found.push(key);
                }
                Some(class)
            }
            None => {
                let mut missing = self.missing.borrow_mut();
                if !missing.iter().any(|m| m == name) {
                    missing.push(name.to_owned());
                }
                None
            }
        }
    }

    fn is_known(&self, name: &str) -> bool {
        name == "Object" || name == ERROR_TYPE || self.lookup(name).is_some()
    }

    /// The superclass chain (names), cycle-guarded.
    fn chain<'a>(&self, name: &'a str) -> Vec<&'a str>
    where
        's: 'a,
    {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut cur = name;
        while seen.insert(cur) {
            out.push(cur);
            match self.lookup(cur).and_then(|c| c.superclass.as_deref()) {
                Some(s) => cur = s,
                None => {
                    if cur != "Object" {
                        out.push("Object");
                    }
                    break;
                }
            }
        }
        out
    }

    /// All interfaces transitively reachable from `name`.
    fn interface_closure<'a>(&self, name: &'a str) -> Vec<&'a str>
    where
        's: 'a,
    {
        let mut out = Vec::new();
        let mut queue = vec![name];
        let mut seen = HashSet::from([name]);
        while let Some(cur) = queue.pop() {
            if let Some(c) = self.lookup(cur) {
                if c.is_interface && cur != name {
                    out.push(cur);
                }
                for s in c.superclass.iter().chain(&c.interfaces) {
                    if seen.insert(s) {
                        queue.push(s);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn is_subtype(&self, sub: &str, sup: &str) -> bool {
        if sub == sup || sub == ERROR_TYPE || sup == ERROR_TYPE || sup == "Object" {
            return true;
        }
        self.chain(sub).contains(&sup) || self.interface_closure(sub).contains(&sup)
    }

    fn assignable(&self, from: &SrcType, to: &SrcType) -> bool {
        match (from, to) {
            // The poisoned type converts to anything: one diagnostic per
            // root cause, no cascades.
            (SrcType::Class(f), _) if f == ERROR_TYPE => true,
            (_, SrcType::Class(t)) if t == ERROR_TYPE => true,
            (SrcType::Int, SrcType::Int) => true,
            (SrcType::Class(f), SrcType::Class(t)) => f == "null" || self.is_subtype(f, t),
            _ => false,
        }
    }

    fn check_class<'b>(&mut self, class: &'b SourceClass, bodies: &[&'b [Stmt]]) {
        // Supertype resolution.
        if let Some(s) = &class.superclass {
            match self.lookup(s) {
                None if s != "Object" => {
                    self.diag(&class.name, None, format!("cannot find symbol: class {s}"))
                }
                Some(sc) if sc.is_interface => self.diag(
                    &class.name,
                    None,
                    format!("no interface expected here: {s}"),
                ),
                _ => {}
            }
        }
        for i in &class.interfaces {
            match self.lookup(i) {
                None => self.diag(&class.name, None, format!("cannot find symbol: class {i}")),
                Some(ic) if !ic.is_interface => {
                    self.diag(&class.name, None, format!("interface expected here: {i}"))
                }
                Some(_) => {}
            }
        }
        // Field types must exist.
        for (ty, fname) in &class.fields {
            if let Some(c) = ty.class_name() {
                if !self.is_known(c) {
                    self.diag(
                        &class.name,
                        Some(fname),
                        format!("cannot find symbol: class {c}"),
                    );
                }
            }
        }
        // Interface-implementation obligations.
        if !class.is_interface && !class.is_abstract {
            for iface in self.interface_closure(&class.name) {
                let Some(ic) = self.lookup(iface) else {
                    continue;
                };
                for im in &ic.methods {
                    if im.body.is_some() {
                        continue;
                    }
                    let implemented = self.chain(&class.name).iter().any(|cn| {
                        self.lookup(cn).is_some_and(|c| {
                            c.methods.iter().any(|m| {
                                m.name == im.name
                                    && m.params.len() == im.params.len()
                                    && m.body.is_some()
                            })
                        })
                    });
                    if !implemented {
                        self.diag(
                            &class.name,
                            None,
                            format!(
                                "{} is not abstract and does not override abstract method {}() in {}",
                                class.name, im.name, iface
                            ),
                        );
                    }
                }
            }
        }
        // Method bodies.
        for (m, body) in class.methods.iter().zip(bodies) {
            let member = m.name.as_str();
            if let Some(c) = m.ret.class_name() {
                if !self.is_known(c) {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("cannot find symbol: class {c}"),
                    );
                }
            }
            let mut env = Env::new();
            for (ty, name) in &m.params {
                if let Some(c) = ty.class_name() {
                    if !self.is_known(c) {
                        self.diag(
                            &class.name,
                            Some(member),
                            format!("cannot find symbol: class {c}"),
                        );
                    }
                }
                env.insert(name, ty.clone());
            }
            if !class.is_interface {
                env.insert("this", SrcType::Class(class.name.clone()));
            }
            for stmt in *body {
                self.check_stmt(class, member, &m.ret, &mut env, stmt);
            }
        }
    }

    fn check_stmt<'b>(
        &mut self,
        class: &SourceClass,
        member: &str,
        ret: &SrcType,
        env: &mut Env<'b>,
        stmt: &'b Stmt,
    ) {
        match stmt {
            Stmt::Local(ty, name, init) => {
                if let Some(c) = ty.class_name() {
                    if !self.is_known(c) {
                        self.diag(
                            &class.name,
                            Some(member),
                            format!("cannot find symbol: class {c}"),
                        );
                    }
                }
                let got = self.type_expr(class, member, env, init);
                if !self.assignable(&got, ty) {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("incompatible types: {got} cannot be converted to {ty}"),
                    );
                }
                env.insert(name, ty.clone());
            }
            Stmt::Expr(e) => {
                self.type_expr(class, member, env, e);
            }
            Stmt::Assign(target, value) => {
                let t = self.type_expr(class, member, env, target);
                let v = self.type_expr(class, member, env, value);
                if !self.assignable(&v, &t) {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("incompatible types: {v} cannot be converted to {t}"),
                    );
                }
            }
            Stmt::Return(None) => {
                if *ret != SrcType::Void {
                    self.diag(&class.name, Some(member), "missing return value".to_owned());
                }
            }
            Stmt::Return(Some(e)) => {
                let got = self.type_expr(class, member, env, e);
                if *ret == SrcType::Void {
                    self.diag(
                        &class.name,
                        Some(member),
                        "incompatible types: unexpected return value".to_owned(),
                    );
                } else if !self.assignable(&got, ret) {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("incompatible types: {got} cannot be converted to {ret}"),
                    );
                }
            }
            Stmt::Throw(e) => {
                let got = self.type_expr(class, member, env, e);
                if got == SrcType::Int || got == SrcType::Void {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("incompatible types: {got} cannot be thrown"),
                    );
                }
            }
            Stmt::IfNonZero(e) => {
                let got = self.type_expr(class, member, env, e);
                if got != SrcType::Int && got != SrcType::Class(ERROR_TYPE.into()) {
                    self.diag(
                        &class.name,
                        Some(member),
                        "incompatible types: condition must be int".to_owned(),
                    );
                }
            }
        }
    }

    /// Types an expression, reporting diagnostics; returns the poisoned
    /// type after an error to avoid cascades.
    fn type_expr(
        &mut self,
        class: &SourceClass,
        member: &str,
        env: &Env<'_>,
        e: &SExpr,
    ) -> SrcType {
        match e {
            SExpr::Null => SrcType::Class("null".to_owned()),
            SExpr::Int(_) => SrcType::Int,
            SExpr::This => env
                .get("this")
                .cloned()
                .unwrap_or_else(|| SrcType::Class(class.name.clone())),
            SExpr::Var(v) => match env.get(v.as_str()) {
                Some(t) => t.clone(),
                None => {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("cannot find symbol: variable {v}"),
                    );
                    poison()
                }
            },
            SExpr::Field(recv, fname) => {
                let rt = self.type_expr(class, member, env, recv);
                let Some(owner) = rt.class_name().map(str::to_owned) else {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("{rt} cannot be dereferenced"),
                    );
                    return poison();
                };
                if owner == ERROR_TYPE {
                    return poison();
                }
                for cn in self.chain(&owner) {
                    if let Some(c) = self.lookup(cn) {
                        if let Some((ty, _)) = c.fields.iter().find(|(_, n)| n == fname) {
                            return ty.clone();
                        }
                    }
                }
                self.diag(
                    &class.name,
                    Some(member),
                    format!("cannot find symbol: variable {fname} in {owner}"),
                );
                poison()
            }
            SExpr::Call(recv, mname, args) => {
                let owner = match recv {
                    Some(r) => {
                        let rt = self.type_expr(class, member, env, r);
                        match rt.class_name() {
                            Some(c) => c.to_owned(),
                            None => {
                                self.diag(
                                    &class.name,
                                    Some(member),
                                    format!("{rt} cannot be dereferenced"),
                                );
                                return poison();
                            }
                        }
                    }
                    None => class.name.clone(),
                };
                let arg_tys: Vec<SrcType> = args
                    .iter()
                    .map(|a| self.type_expr(class, member, env, a))
                    .collect();
                if owner == ERROR_TYPE || owner == "null" {
                    return poison();
                }
                self.resolve_call(class, member, &owner, mname, &arg_tys)
            }
            SExpr::StaticCall(owner, mname, args) => {
                let arg_tys: Vec<SrcType> = args
                    .iter()
                    .map(|a| self.type_expr(class, member, env, a))
                    .collect();
                if self.lookup(owner).is_none() {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("cannot find symbol: class {owner}"),
                    );
                    return poison();
                }
                self.resolve_call(class, member, owner, mname, &arg_tys)
            }
            SExpr::New(cname, args) => {
                let arg_tys: Vec<SrcType> = args
                    .iter()
                    .map(|a| self.type_expr(class, member, env, a))
                    .collect();
                let Some(c) = self.lookup(cname) else {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("cannot find symbol: class {cname}"),
                    );
                    return poison();
                };
                if c.is_interface || c.is_abstract {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("{cname} is abstract; cannot be instantiated"),
                    );
                    return poison();
                }
                let fits = c.methods.iter().any(|m| {
                    m.is_ctor
                        && m.params.len() == arg_tys.len()
                        && m.params
                            .iter()
                            .zip(&arg_tys)
                            .all(|((pt, _), at)| self.assignable(at, pt))
                });
                if !fits {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!(
                            "constructor {cname}({}) cannot be applied",
                            arg_tys
                                .iter()
                                .map(|t| t.to_string())
                                .collect::<Vec<_>>()
                                .join(",")
                        ),
                    );
                }
                SrcType::Class(cname.clone())
            }
            SExpr::Cast(ty, inner) => {
                let it = self.type_expr(class, member, env, inner);
                if let Some(c) = ty.class_name() {
                    if !self.is_known(c) {
                        self.diag(
                            &class.name,
                            Some(member),
                            format!("cannot find symbol: class {c}"),
                        );
                        return poison();
                    }
                }
                if let (SrcType::Class(from), Some(to)) = (&it, ty.class_name()) {
                    if from != "null"
                        && from != ERROR_TYPE
                        && !self.is_subtype(from, to)
                        && !self.is_subtype(to, from)
                    {
                        self.diag(
                            &class.name,
                            Some(member),
                            format!("incompatible types: {from} cannot be converted to {to}"),
                        );
                    }
                }
                ty.clone()
            }
            SExpr::InstanceOf(inner, ty) => {
                self.type_expr(class, member, env, inner);
                if !self.is_known(ty) {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("cannot find symbol: class {ty}"),
                    );
                }
                SrcType::Int
            }
            SExpr::Add(a, b) => {
                let ta = self.type_expr(class, member, env, a);
                let tb = self.type_expr(class, member, env, b);
                let err = SrcType::Class(ERROR_TYPE.into());
                if (ta != SrcType::Int && ta != err) || (tb != SrcType::Int && tb != err) {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("bad operand types for binary operator '+': {ta}, {tb}"),
                    );
                }
                SrcType::Int
            }
            SExpr::ClassLiteral(c) => {
                if !self.is_known(c) {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("cannot find symbol: class {c}"),
                    );
                }
                SrcType::Class("Object".to_owned())
            }
        }
    }

    fn resolve_call(
        &mut self,
        class: &SourceClass,
        member: &str,
        owner: &str,
        mname: &str,
        arg_tys: &[SrcType],
    ) -> SrcType {
        // Search class chain then interface closure.
        let mut search = self.chain(owner);
        search.extend(self.interface_closure(owner));
        for cn in &search {
            if let Some(c) = self.lookup(cn) {
                for m in &c.methods {
                    if m.name == mname
                        && m.params.len() == arg_tys.len()
                        && m.params
                            .iter()
                            .zip(arg_tys)
                            .all(|((pt, _), at)| self.assignable(at, pt))
                    {
                        return m.ret.clone();
                    }
                }
            }
        }
        self.diag(
            &class.name,
            Some(member),
            format!(
                "cannot find symbol: method {mname}({}) in {owner}",
                arg_tys
                    .iter()
                    .map(|t| t.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        );
        SrcType::Class(ERROR_TYPE.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceMethod;

    fn class(name: &str) -> SourceClass {
        SourceClass {
            name: name.into(),
            is_interface: false,
            is_abstract: false,
            superclass: Some("Object".into()),
            interfaces: vec![],
            fields: vec![],
            methods: vec![SourceMethod {
                name: name.into(),
                is_ctor: true,
                ret: SrcType::Void,
                params: vec![],
                body: Some(vec![Stmt::Return(None)]),
            }],
        }
    }

    fn method(name: &str, ret: SrcType, body: Vec<Stmt>) -> SourceMethod {
        SourceMethod {
            name: name.into(),
            is_ctor: false,
            ret,
            params: vec![],
            body: Some(body),
        }
    }

    #[test]
    fn empty_set_compiles() {
        assert!(compile(&SourceSet::default()).is_empty());
    }

    #[test]
    fn valid_program_compiles() {
        let mut a = class("A");
        a.fields.push((SrcType::Int, "f".into()));
        a.methods.push(method(
            "m",
            SrcType::Int,
            vec![Stmt::Return(Some(SExpr::Field(
                Box::new(SExpr::This),
                "f".into(),
            )))],
        ));
        let set = SourceSet { classes: vec![a] };
        assert!(compile(&set).is_empty(), "{:?}", compile(&set));
    }

    #[test]
    fn missing_class_reported() {
        let mut a = class("A");
        a.methods.push(method(
            "m",
            SrcType::Void,
            vec![Stmt::Expr(SExpr::New("Ghost".into(), vec![]))],
        ));
        let set = SourceSet { classes: vec![a] };
        let msgs = error_messages(&set);
        assert!(
            msgs.iter()
                .any(|m| m.contains("cannot find symbol: class Ghost")),
            "{msgs:?}"
        );
    }

    #[test]
    fn missing_method_reported() {
        let mut a = class("A");
        a.methods.push(method(
            "m",
            SrcType::Void,
            vec![Stmt::Expr(SExpr::Call(
                Some(Box::new(SExpr::This)),
                "nope".into(),
                vec![],
            ))],
        ));
        let set = SourceSet { classes: vec![a] };
        let msgs = error_messages(&set);
        assert!(
            msgs.iter().any(|m| m.contains("method nope() in A")),
            "{msgs:?}"
        );
    }

    #[test]
    fn unimplemented_interface_reported() {
        let i = SourceClass {
            name: "I".into(),
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
        };
        let mut a = class("A");
        a.interfaces.push("I".into());
        let set = SourceSet {
            classes: vec![i, a],
        };
        let msgs = error_messages(&set);
        assert!(
            msgs.iter()
                .any(|m| m.contains("does not override abstract method m() in I")),
            "{msgs:?}"
        );
    }

    #[test]
    fn impossible_cast_reported() {
        let a = class("A");
        let mut b = class("B");
        b.methods.push(method(
            "m",
            SrcType::Void,
            vec![Stmt::Expr(SExpr::Cast(
                SrcType::Class("A".into()),
                Box::new(SExpr::New("B".into(), vec![])),
            ))],
        ));
        let set = SourceSet {
            classes: vec![a, b],
        };
        let msgs = error_messages(&set);
        assert!(
            msgs.iter()
                .any(|m| m.contains("B cannot be converted to A")),
            "{msgs:?}"
        );
    }

    #[test]
    fn bad_add_reported() {
        let mut a = class("A");
        a.methods.push(method(
            "m",
            SrcType::Int,
            vec![Stmt::Return(Some(SExpr::Add(
                Box::new(SExpr::Int(1)),
                Box::new(SExpr::Null),
            )))],
        ));
        let set = SourceSet { classes: vec![a] };
        let msgs = error_messages(&set);
        assert!(
            msgs.iter().any(|m| m.contains("bad operand types")),
            "{msgs:?}"
        );
    }

    #[test]
    fn unknown_variable_reported_once() {
        let mut a = class("A");
        a.methods.push(method(
            "m",
            SrcType::Void,
            vec![
                Stmt::Expr(SExpr::Var("ghost".into())),
                Stmt::Expr(SExpr::Var("ghost".into())),
            ],
        ));
        let set = SourceSet { classes: vec![a] };
        // Deduplicated.
        assert_eq!(
            compile(&set)
                .iter()
                .filter(|d| d.message.contains("variable ghost"))
                .count(),
            1
        );
    }

    #[test]
    fn statement_level_errors() {
        let mut a = class("A");
        a.fields.push((SrcType::Int, "f".into()));
        a.methods.push(method(
            "assign_bad",
            SrcType::Void,
            vec![Stmt::Assign(
                SExpr::Field(Box::new(SExpr::This), "f".into()),
                SExpr::Null,
            )],
        ));
        a.methods.push(method(
            "throw_int",
            SrcType::Void,
            vec![Stmt::Throw(SExpr::Int(3))],
        ));
        a.methods.push(method(
            "missing_return",
            SrcType::Int,
            vec![Stmt::Return(None)],
        ));
        a.methods.push(method(
            "unexpected_return",
            SrcType::Void,
            vec![Stmt::Return(Some(SExpr::Int(1)))],
        ));
        a.methods.push(method(
            "bad_local",
            SrcType::Void,
            vec![Stmt::Local(SrcType::Int, "x".into(), SExpr::Null)],
        ));
        a.methods.push(method(
            "bad_condition",
            SrcType::Void,
            vec![Stmt::IfNonZero(SExpr::This)],
        ));
        let set = SourceSet { classes: vec![a] };
        let msgs = error_messages(&set);
        for needle in [
            "cannot be converted to int",
            "cannot be thrown",
            "missing return value",
            "unexpected return value",
            "condition must be int",
        ] {
            assert!(
                msgs.iter().any(|m| m.contains(needle)),
                "missing {needle:?} in {msgs:?}"
            );
        }
    }

    #[test]
    fn interface_receiver_resolves_through_closure() {
        let j = SourceClass {
            name: "J".into(),
            is_interface: true,
            is_abstract: true,
            superclass: None,
            interfaces: vec![],
            fields: vec![],
            methods: vec![SourceMethod {
                name: "deep".into(),
                is_ctor: false,
                ret: SrcType::Void,
                params: vec![],
                body: None,
            }],
        };
        let i = SourceClass {
            name: "I".into(),
            is_interface: true,
            is_abstract: true,
            superclass: None,
            interfaces: vec!["J".into()],
            fields: vec![],
            methods: vec![],
        };
        let mut a = class("A");
        a.methods.push(method(
            "go",
            SrcType::Void,
            vec![Stmt::Expr(SExpr::Call(
                Some(Box::new(SExpr::Cast(
                    SrcType::Class("I".into()),
                    Box::new(SExpr::Null),
                ))),
                "deep".into(),
                vec![],
            ))],
        ));
        let set = SourceSet {
            classes: vec![j, i, a],
        };
        assert!(compile(&set).is_empty(), "{:?}", compile(&set));
    }

    #[test]
    fn poison_stops_cascades() {
        let mut a = class("A");
        a.methods.push(method(
            "m",
            SrcType::Void,
            vec![Stmt::Expr(SExpr::Call(
                Some(Box::new(SExpr::Var("ghost".into()))),
                "anything".into(),
                vec![],
            ))],
        ));
        let set = SourceSet { classes: vec![a] };
        let diags = compile(&set);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }
}
