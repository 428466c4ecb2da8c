//! The mini source compiler.
//!
//! Plays the role of `javac` in the paper's oracle: the decompiled source
//! is recompiled, and a benchmark "fails" when compilation produces
//! errors. Reduction must preserve the *full set of error messages*, so
//! diagnostics carry enough context (class, member, symbol) to be stable
//! identities, and are rendered deterministically.
//!
//! A check resolves class names against a [`Hierarchy`]: the program's
//! classes by name, with each looked-up class's superclass chain and
//! interface closure walked once, on first use, and kept for every later
//! subtype test, member search and check against the same hierarchy. A
//! check that takes a kept walk is charged with every name the walk looked
//! up, found or missing, so what a check reports depending on is exactly
//! what it would have looked up walking the hierarchy itself. Types are
//! carried as names borrowed from the source being checked; a `String` is
//! rendered only into a [`Diagnostic`].

use crate::source::{SExpr, SourceClass, SourceMethod, SourceSet, SrcType, Stmt};
use lbr_core::AddressHasher;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::BuildHasherDefault;

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
    let hierarchy = Hierarchy::new(set.classes.iter());
    let mut diags: Vec<Diagnostic> = set
        .classes
        .iter()
        .flat_map(|class| {
            let bodies: Vec<&[Stmt]> = class
                .methods
                .iter()
                .map(|m| m.body.as_deref().unwrap_or_default())
                .collect();
            check_class(&hierarchy, class, &bodies).diags
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

/// The classes a check resolves names against, by name, and the
/// supertypes of each class looked up.
///
/// A class's superclass chain and interface closure are walked on first
/// use and kept: a walk reads only the hierarchy's classes, so its record
/// serves every later check against the same hierarchy. A check that
/// takes a record is charged with every name the walk looked up, found or
/// missing, once, as if it had walked the hierarchy itself.
pub(crate) struct Hierarchy<'s> {
    /// Each class's position in `classes` by name; of two classes with one
    /// name, the later.
    index: HashMap<&'s str, u32, BuildHasherDefault<AddressHasher>>,
    classes: Vec<Resolved<'s>>,
    /// Where `Object` resolves: a chain that ends without a superclass
    /// names `Object` last, and a check looks that name up only if it
    /// visits the chain to its end.
    object: Option<u32>,
    /// How many checks have begun.
    checks: Cell<u32>,
}

/// One class and the records of its supertype walks.
struct Resolved<'s> {
    class: &'s SourceClass,
    chain: OnceCell<Chain<'s>>,
    closure: OnceCell<Closure<'s>>,
    /// The last check each walk was charged to.
    chain_charged: Cell<u32>,
    closure_charged: Cell<u32>,
}

/// A class's superclass chain: the class, its superclass and so on, up to
/// a class missing or without a superclass, or until a name repeats.
struct Chain<'s> {
    /// Each name walked (every one looked up) and where it resolved.
    walked: Vec<(&'s str, Option<u32>)>,
    /// Whether `Object` ends the chain: the walk stopped at a class not
    /// named `Object` that is missing or has no superclass.
    object: bool,
}

/// The interfaces a class reaches through its superclasses and
/// interfaces, transitively.
struct Closure<'s> {
    /// The interfaces reached, the class itself excepted, sorted by name.
    interfaces: Vec<(&'s str, u32)>,
    /// The positions of the names the walk found.
    found: Vec<u32>,
    /// The names the walk looked up and did not find.
    missing: Vec<&'s str>,
}

impl<'s> Hierarchy<'s> {
    pub(crate) fn new(classes: impl ExactSizeIterator<Item = &'s SourceClass>) -> Self {
        let mut index = HashMap::with_capacity_and_hasher(classes.len(), Default::default());
        let classes: Vec<Resolved<'s>> = (classes.enumerate())
            .map(|(at, class)| {
                index.insert(class.name.as_str(), at as u32);
                Resolved {
                    class,
                    chain: OnceCell::new(),
                    closure: OnceCell::new(),
                    chain_charged: Cell::new(0),
                    closure_charged: Cell::new(0),
                }
            })
            .collect();
        let object = index.get("Object").copied();
        Hierarchy {
            index,
            classes,
            object,
            checks: Cell::new(0),
        }
    }

    fn position(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    fn class(&self, at: u32) -> &'s SourceClass {
        self.classes[at as usize].class
    }

    /// The superclass chain of the class at `at`, walked once.
    fn chain(&self, at: u32) -> &Chain<'s> {
        self.classes[at as usize].chain.get_or_init(|| {
            let mut walked = Vec::new();
            let mut cur = (self.class(at).name.as_str(), Some(at));
            loop {
                walked.push(cur);
                let superclass = cur.1.and_then(|p| self.class(p).superclass.as_deref());
                let Some(s) = superclass else {
                    let object = cur.0 != "Object";
                    return Chain { walked, object };
                };
                if walked.iter().any(|&(name, _)| name == s) {
                    return Chain {
                        walked,
                        object: false,
                    };
                }
                cur = (s, self.position(s));
            }
        })
    }

    /// The interface closure of the class at `at`, walked once.
    fn closure(&self, at: u32) -> &Closure<'s> {
        self.classes[at as usize].closure.get_or_init(|| {
            let start = self.class(at).name.as_str();
            let mut seen = vec![start];
            let mut queue = vec![(start, Some(at))];
            let mut closure = Closure {
                interfaces: Vec::new(),
                found: Vec::new(),
                missing: Vec::new(),
            };
            while let Some((name, at)) = queue.pop() {
                let Some(at) = at else {
                    closure.missing.push(name);
                    continue;
                };
                closure.found.push(at);
                let class = self.class(at);
                if class.is_interface && name != start {
                    closure.interfaces.push((name, at));
                }
                for s in class.superclass.iter().chain(&class.interfaces) {
                    if !seen.contains(&s.as_str()) {
                        seen.push(s);
                        queue.push((s, self.position(s)));
                    }
                }
            }
            closure.interfaces.sort_unstable_by_key(|&(name, _)| name);
            closure
        })
    }

    fn begin_check(&self) -> u32 {
        let check = self.checks.get() + 1;
        self.checks.set(check);
        check
    }
}

/// One class's diagnostics and what they depend on besides the class.
///
/// The check reads only the signature of a class it finds in the
/// hierarchy (never a body), so a hierarchy that resolves every name
/// looked up to the same signatures, and misses the same names, yields the
/// same diagnostics.
pub(crate) struct Checked<'b> {
    /// The diagnostics, all attributed to the checked class.
    pub(crate) diags: Vec<Diagnostic>,
    /// Where the names looked up and found are in the hierarchy: sorted
    /// and deduplicated.
    pub(crate) found: Vec<u32>,
    /// The names looked up and not found, each once.
    pub(crate) missing: Vec<&'b str>,
}

/// Type-checks one class against `hierarchy`, which must cover the whole
/// program (the class itself included). `class` gives the declarations and
/// `bodies[i]` the statements of its `i`-th method (empty without a body).
pub(crate) fn check_class<'s: 'b, 'b>(
    hierarchy: &Hierarchy<'s>,
    class: &'s SourceClass,
    bodies: &[&'b [Stmt]],
) -> Checked<'b> {
    let mut compiler = Compiler {
        hierarchy,
        check: hierarchy.begin_check(),
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

/// A type as the check carries it: borrowed from the source it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty<'a> {
    Int,
    Void,
    Class(&'a str),
}

impl<'a> Ty<'a> {
    fn of(ty: &'a SrcType) -> Self {
        match ty {
            SrcType::Int => Ty::Int,
            SrcType::Void => Ty::Void,
            SrcType::Class(c) => Ty::Class(c),
        }
    }
}

/// Renders as [`SrcType`] does.
impl fmt::Display for Ty<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => write!(f, "int"),
            Ty::Void => write!(f, "void"),
            Ty::Class(c) => write!(f, "{c}"),
        }
    }
}

/// The poisoned type used to stop cascading diagnostics.
const ERROR_TYPE: &str = "<error>";
const POISON: Ty<'static> = Ty::Class(ERROR_TYPE);

/// The variables in scope and their types: a handful, so a list.
type Env<'b> = Vec<(&'b str, Ty<'b>)>;

fn bind<'b>(env: &mut Env<'b>, name: &'b str, ty: Ty<'b>) {
    match env.iter_mut().find(|(n, _)| *n == name) {
        Some(slot) => slot.1 = ty,
        None => env.push((name, ty)),
    }
}

fn get<'b>(env: &Env<'b>, name: &str) -> Option<Ty<'b>> {
    env.iter().find(|(n, _)| *n == name).map(|&(_, ty)| ty)
}

struct Compiler<'h, 's, 'b> {
    hierarchy: &'h Hierarchy<'s>,
    /// This check's number in the hierarchy.
    check: u32,
    /// Where the names found are, in lookup order (runs collapsed).
    found: RefCell<Vec<u32>>,
    /// Names missing from the hierarchy, each once.
    missing: RefCell<Vec<&'b str>>,
    diags: Vec<Diagnostic>,
}

impl<'h, 's: 'b, 'b> Compiler<'h, 's, 'b> {
    fn diag(&mut self, class: &str, member: Option<&str>, message: String) {
        self.diags.push(Diagnostic {
            class: class.to_owned(),
            member: member.map(str::to_owned),
            message,
        });
    }

    /// Records that `name` was looked up and resolved to `at`.
    fn note(&self, name: &'b str, at: Option<u32>) {
        match at {
            Some(at) => {
                let mut found = self.found.borrow_mut();
                if found.last() != Some(&at) {
                    found.push(at);
                }
            }
            None => {
                let mut missing = self.missing.borrow_mut();
                if !missing.contains(&name) {
                    missing.push(name);
                }
            }
        }
    }

    /// Where a class name resolves, recording the lookup.
    fn resolve(&self, name: &'b str) -> Option<u32> {
        let at = self.hierarchy.position(name);
        self.note(name, at);
        at
    }

    /// Resolves a class name, recording the lookup.
    fn lookup(&self, name: &'b str) -> Option<&'s SourceClass> {
        self.resolve(name).map(|at| self.hierarchy.class(at))
    }

    fn is_known(&self, name: &'b str) -> bool {
        name == "Object" || name == ERROR_TYPE || self.resolve(name).is_some()
    }

    /// The superclass chain of the class at `at`, its walk recorded.
    fn chain(&self, at: u32) -> &'h Chain<'s> {
        let chain = self.hierarchy.chain(at);
        let charged = &self.hierarchy.classes[at as usize].chain_charged;
        if charged.replace(self.check) != self.check {
            for &(name, at) in &chain.walked {
                self.note(name, at);
            }
        }
        chain
    }

    /// The interface closure of the class at `at`, its walk recorded.
    fn closure(&self, at: u32) -> &'h Closure<'s> {
        let closure = self.hierarchy.closure(at);
        let charged = &self.hierarchy.classes[at as usize].closure_charged;
        if charged.replace(self.check) != self.check {
            self.found.borrow_mut().extend(&closure.found);
            for &name in &closure.missing {
                self.note(name, None);
            }
        }
        closure
    }

    /// The first `Some` that `visit` gives for a class of the superclass
    /// chain of `name`, which resolves to `at`, in chain order. The `Object`
    /// that ends a chain is looked up only if the visit gets there.
    fn find_in_chain<R>(
        &self,
        name: &'b str,
        at: Option<u32>,
        mut visit: impl FnMut(&'s SourceClass) -> Option<R>,
    ) -> Option<R> {
        let object = match at {
            Some(at) => {
                let chain = self.chain(at);
                let classes = chain.walked.iter().filter_map(|&(_, at)| at);
                if let Some(found) = classes
                    .map(|at| self.hierarchy.class(at))
                    .find_map(&mut visit)
                {
                    return Some(found);
                }
                chain.object
            }
            None => name != "Object",
        };
        if !object {
            return None;
        }
        self.note("Object", self.hierarchy.object);
        visit(self.hierarchy.class(self.hierarchy.object?))
    }

    fn is_subtype(&self, sub: &'b str, sup: &str) -> bool {
        if sub == sup || sub == ERROR_TYPE || sup == ERROR_TYPE || sup == "Object" {
            return true;
        }
        // A missing class has no supertypes but `Object`.
        let Some(at) = self.resolve(sub) else {
            return false;
        };
        self.chain(at).walked.iter().any(|&(name, _)| name == sup)
            || (self.closure(at).interfaces)
                .binary_search_by_key(&sup, |&(name, _)| name)
                .is_ok()
    }

    fn assignable(&self, from: Ty<'b>, to: Ty<'_>) -> bool {
        match (from, to) {
            // The poisoned type converts to anything: one diagnostic per
            // root cause, no cascades.
            (Ty::Class(f), _) if f == ERROR_TYPE => true,
            (_, Ty::Class(t)) if t == ERROR_TYPE => true,
            (Ty::Int, Ty::Int) => true,
            (Ty::Class(f), Ty::Class(t)) => f == "null" || self.is_subtype(f, t),
            _ => false,
        }
    }

    /// Whether the class at `at` or a superclass implements `method`.
    fn implements(&self, name: &'b str, at: u32, method: &SourceMethod) -> bool {
        let implemented = |c: &SourceClass| {
            c.methods.iter().any(|m| {
                m.name == method.name && m.params.len() == method.params.len() && m.body.is_some()
            })
        };
        self.find_in_chain(name, Some(at), |c| implemented(c).then_some(()))
            .is_some()
    }

    fn check_class(&mut self, class: &'s SourceClass, bodies: &[&'b [Stmt]]) {
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
            if let Some(at) = self.resolve(&class.name) {
                for &(iface, i) in &self.closure(at).interfaces {
                    let abstracts = self.hierarchy.class(i).methods.iter();
                    for im in abstracts.filter(|m| m.body.is_none()) {
                        if !self.implements(&class.name, at, im) {
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
        }
        // Method bodies.
        let mut env = Env::new();
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
            env.clear();
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
                bind(&mut env, name, Ty::of(ty));
            }
            if !class.is_interface {
                bind(&mut env, "this", Ty::Class(&class.name));
            }
            for stmt in *body {
                self.check_stmt(class, member, Ty::of(&m.ret), &mut env, stmt);
            }
        }
    }

    fn check_stmt(
        &mut self,
        class: &'s SourceClass,
        member: &'s str,
        ret: Ty<'s>,
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
                if !self.assignable(got, Ty::of(ty)) {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("incompatible types: {got} cannot be converted to {ty}"),
                    );
                }
                bind(env, name, Ty::of(ty));
            }
            Stmt::Expr(e) => {
                self.type_expr(class, member, env, e);
            }
            Stmt::Assign(target, value) => {
                let t = self.type_expr(class, member, env, target);
                let v = self.type_expr(class, member, env, value);
                if !self.assignable(v, t) {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("incompatible types: {v} cannot be converted to {t}"),
                    );
                }
            }
            Stmt::Return(None) => {
                if ret != Ty::Void {
                    self.diag(&class.name, Some(member), "missing return value".to_owned());
                }
            }
            Stmt::Return(Some(e)) => {
                let got = self.type_expr(class, member, env, e);
                if ret == Ty::Void {
                    self.diag(
                        &class.name,
                        Some(member),
                        "incompatible types: unexpected return value".to_owned(),
                    );
                } else if !self.assignable(got, ret) {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("incompatible types: {got} cannot be converted to {ret}"),
                    );
                }
            }
            Stmt::Throw(e) => {
                let got = self.type_expr(class, member, env, e);
                if got == Ty::Int || got == Ty::Void {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("incompatible types: {got} cannot be thrown"),
                    );
                }
            }
            Stmt::IfNonZero(e) => {
                let got = self.type_expr(class, member, env, e);
                if got != Ty::Int && got != POISON {
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
        class: &'s SourceClass,
        member: &'s str,
        env: &Env<'b>,
        e: &'b SExpr,
    ) -> Ty<'b> {
        match e {
            SExpr::Null => Ty::Class("null"),
            SExpr::Int(_) => Ty::Int,
            SExpr::This => get(env, "this").unwrap_or(Ty::Class(&class.name)),
            SExpr::Var(v) => match get(env, v) {
                Some(t) => t,
                None => {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("cannot find symbol: variable {v}"),
                    );
                    POISON
                }
            },
            SExpr::Field(recv, fname) => {
                let rt = self.type_expr(class, member, env, recv);
                let Ty::Class(owner) = rt else {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("{rt} cannot be dereferenced"),
                    );
                    return POISON;
                };
                if owner == ERROR_TYPE {
                    return POISON;
                }
                let at = self.resolve(owner);
                let field = |c: &'s SourceClass| {
                    let found = c.fields.iter().find(|(_, n)| n == fname);
                    found.map(|(ty, _)| Ty::of(ty))
                };
                if let Some(ty) = self.find_in_chain(owner, at, field) {
                    return ty;
                }
                self.diag(
                    &class.name,
                    Some(member),
                    format!("cannot find symbol: variable {fname} in {owner}"),
                );
                POISON
            }
            SExpr::Call(recv, mname, args) => {
                let owner = match recv {
                    Some(r) => match self.type_expr(class, member, env, r) {
                        Ty::Class(c) => c,
                        rt => {
                            self.diag(
                                &class.name,
                                Some(member),
                                format!("{rt} cannot be dereferenced"),
                            );
                            return POISON;
                        }
                    },
                    None => class.name.as_str(),
                };
                let arg_tys: Vec<Ty<'b>> = args
                    .iter()
                    .map(|a| self.type_expr(class, member, env, a))
                    .collect();
                if owner == ERROR_TYPE || owner == "null" {
                    return POISON;
                }
                let at = self.resolve(owner);
                self.resolve_call(class, member, owner, at, mname, &arg_tys)
            }
            SExpr::StaticCall(owner, mname, args) => {
                let arg_tys: Vec<Ty<'b>> = args
                    .iter()
                    .map(|a| self.type_expr(class, member, env, a))
                    .collect();
                let Some(at) = self.resolve(owner) else {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("cannot find symbol: class {owner}"),
                    );
                    return POISON;
                };
                self.resolve_call(class, member, owner, Some(at), mname, &arg_tys)
            }
            SExpr::New(cname, args) => {
                let arg_tys: Vec<Ty<'b>> = args
                    .iter()
                    .map(|a| self.type_expr(class, member, env, a))
                    .collect();
                let Some(c) = self.lookup(cname) else {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("cannot find symbol: class {cname}"),
                    );
                    return POISON;
                };
                if c.is_interface || c.is_abstract {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("{cname} is abstract; cannot be instantiated"),
                    );
                    return POISON;
                }
                let fits = c.methods.iter().any(|m| {
                    m.is_ctor
                        && m.params.len() == arg_tys.len()
                        && m.params
                            .iter()
                            .zip(&arg_tys)
                            .all(|((pt, _), &at)| self.assignable(at, Ty::of(pt)))
                });
                if !fits {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!(
                            "constructor {cname}({}) cannot be applied",
                            render(&arg_tys)
                        ),
                    );
                }
                Ty::Class(cname)
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
                        return POISON;
                    }
                }
                if let (Ty::Class(from), Some(to)) = (it, ty.class_name()) {
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
                Ty::of(ty)
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
                Ty::Int
            }
            SExpr::Add(a, b) => {
                let ta = self.type_expr(class, member, env, a);
                let tb = self.type_expr(class, member, env, b);
                if (ta != Ty::Int && ta != POISON) || (tb != Ty::Int && tb != POISON) {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("bad operand types for binary operator '+': {ta}, {tb}"),
                    );
                }
                Ty::Int
            }
            SExpr::ClassLiteral(c) => {
                if !self.is_known(c) {
                    self.diag(
                        &class.name,
                        Some(member),
                        format!("cannot find symbol: class {c}"),
                    );
                }
                Ty::Class("Object")
            }
        }
    }

    /// The return type of the method `mname` of `owner`, which resolves to
    /// `at`, that takes `arg_tys`: searched in the superclass chain, then
    /// in the interface closure.
    fn resolve_call(
        &mut self,
        class: &SourceClass,
        member: &str,
        owner: &'b str,
        at: Option<u32>,
        mname: &str,
        arg_tys: &[Ty<'b>],
    ) -> Ty<'b> {
        // Both walks are recorded, whichever of them holds the method.
        let interfaces = match at {
            Some(at) => &self.closure(at).interfaces[..],
            None => &[],
        };
        let fits = |c: &'s SourceClass| {
            let m = c.methods.iter().find(|m| {
                m.name == mname
                    && m.params.len() == arg_tys.len()
                    && (m.params.iter().zip(arg_tys))
                        .all(|((pt, _), &at)| self.assignable(at, Ty::of(pt)))
            });
            m.map(|m| Ty::of(&m.ret))
        };
        let found = self.find_in_chain(owner, at, fits).or_else(|| {
            let mut classes = interfaces.iter().map(|&(_, i)| self.hierarchy.class(i));
            classes.find_map(fits)
        });
        if let Some(ret) = found {
            return ret;
        }
        self.diag(
            &class.name,
            Some(member),
            format!(
                "cannot find symbol: method {mname}({}) in {owner}",
                render(arg_tys)
            ),
        );
        POISON
    }
}

/// Argument types as a diagnostic lists them.
fn render(tys: &[Ty<'_>]) -> String {
    let tys: Vec<String> = tys.iter().map(Ty::to_string).collect();
    tys.join(",")
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
