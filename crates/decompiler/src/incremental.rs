//! The oracle's per-reduction memo: decompile each method body once, check
//! a class again only when a class it looked up changed, and check for the
//! predicate only the classes that can print a baseline message.
//!
//! The candidates of one reduction share most class handles (the
//! materializer reuses every reduced class), and a new class handle shares
//! its bodies with earlier ones (a kept body is the input's `Arc<Code>`, a
//! dropped one the materializer's one stub for that method). Yet
//! `error_messages(&decompile_program(p, bugs))` decompiles and type-checks
//! every class on every probe. Three facts make that work reusable:
//!
//! * A body's statements are a function of the body, the name of its class,
//!   its method's declaration (flags, name and descriptor) and one question
//!   about the rest of the program: whether some `checkcast` targets are
//!   present interfaces. The answers are the body's *cast context*.
//! * The rest of a class's source, its *signature*, is a function of its
//!   declarations alone: its name, flags, supertypes and fields, each
//!   method's name, descriptor and whether it has a body, and which bodies
//!   the decompiler eats.
//! * Checking a class reads its own source and, for each name it looks up,
//!   only the *signature* of the class found there (the class with its
//!   bodies emptied).
//!
//! So the memo keeps, per body handle and declaration, the targets the body
//! asks about and its statements per cast context; per class handle, the
//! class's interned signature and, once the class is checked, its bodies,
//! the union of their targets and, per cast context, each check already
//! run: its messages and the signature every looked-up name resolved to,
//! misses included. A new class handle takes the signature interned for an
//! earlier handle with the same declarations (compared in place, by that
//! handle), and builds and interns a signature only for declarations never
//! seen; when the class is first checked, it takes its bodies from the
//! memo and decompiles only bodies never seen. A check is reused when each
//! looked-up name resolves to the same interned signature in the probe at
//! hand, and a re-check takes its statements from the memo.
//!
//! Each probe resolves names as the compiler does: a class by its own
//! name, which differs from its key in the program after a rename through
//! `Program::get_mut`, and of two classes with one name the later in key
//! order. A class's entry is looked up only when the probe reads it. The
//! compiler's [`Hierarchy`] reads the probe's signatures, with the
//! supertype walks of each class looked up; it is built only on a probe
//! that re-checks a class, and serves every re-check of that probe: a walk
//! reads only the probe's signatures, and a check that takes a walk made
//! for another still records every name the walk looked up, so its reuse
//! test stays exact. A cast context asks `Program::get`, by key.
//!
//! [`OracleMemo::errors`] checks every class: it is
//! `error_messages(&decompile_program(p, bugs))` bit for bit.
//! [`OracleMemo::preserves`] answers the predicate, "every baseline message
//! is among those messages", exactly, and checks only the *producers*: every
//! diagnostic names the class being checked, so only a class whose own name
//! can begin a baseline message can print it ([`Baseline`]). Any other
//! class contributes its signature alone, and only when a producer's check
//! or reuse test looks it up: none of its bodies is decompiled, and it is
//! not checked.
//!
//! Locking follows the materializer: look up under the lock, build outside
//! it, first insert wins. What is built is a pure function of the inputs,
//! so the thread that wins changes nothing observable.

use crate::bugs::BugSet;
use crate::compile::{check_class, index_names, producers, Classes, Hierarchy, NameIndex};
use crate::decompile::{decompile_class_with, decompile_code, eats};
use crate::source::{SourceClass, Stmt};
use lbr_classfile::{ClassFile, Code, FieldInfo, MethodInfo, Program};
use lbr_core::{AddressHasher, AddressMap};
use std::cell::OnceCell;
use std::collections::{BTreeSet, HashSet};
use std::hash::{Hash, Hasher};
#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The oracle memos of one reduction scope, one per bug set.
#[derive(Default)]
pub(crate) struct ScopeMemo {
    memos: Mutex<Vec<Arc<OracleMemo>>>,
}

impl ScopeMemo {
    /// The memo of the decompiler with `bugs`.
    pub(crate) fn for_bugs(&self, bugs: &BugSet) -> Arc<OracleMemo> {
        let mut memos = lock(&self.memos);
        if let Some(memo) = memos.iter().find(|m| m.bugs == *bugs) {
            return Arc::clone(memo);
        }
        let memo = Arc::new(OracleMemo::new(bugs));
        memos.push(Arc::clone(&memo));
        memo
    }
}

/// The baseline messages, each with the classes that can print it, in the
/// baseline's order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Baseline(Box<[Printed]>);

/// A baseline message and the names of the classes that can print it (see
/// [`producers`]).
#[derive(Debug, Clone)]
struct Printed {
    message: String,
    producers: Box<[Box<str>]>,
}

impl Baseline {
    pub(crate) fn new(messages: &BTreeSet<String>) -> Self {
        let printed = |message: &String| Printed {
            message: message.clone(),
            producers: producers(message).map(Box::from).collect(),
        };
        Baseline(messages.iter().map(printed).collect())
    }
}

/// One decompiler's memo over the candidates of one reduction.
pub(crate) struct OracleMemo {
    bugs: BugSet,
    /// Keyed by the handle's address; the entry holds the handle, so no
    /// other class can take that address while the entry lives.
    classes: Mutex<AddressMap<Arc<ClassEntry>>>,
    /// Keyed by the body handle's address, which the entries hold; one
    /// handle may serve several declarations, each with its own entry.
    bodies: Mutex<AddressMap<Vec<Arc<Body>>>>,
    /// Every signature seen, so that equal signatures share one `Arc` and
    /// compare by address.
    signatures: Mutex<HashSet<Arc<SourceClass>>>,
    /// The interned signature of each set of declarations met, keyed by
    /// [`declarations_hash`] (collisions share the key's list).
    shapes: Mutex<AddressMap<Vec<Shape>>>,
    /// How many bodies were decompiled, classes checked and signatures
    /// built.
    #[cfg(test)]
    decompiled: AtomicUsize,
    #[cfg(test)]
    checked: AtomicUsize,
    #[cfg(test)]
    built: AtomicUsize,
}

/// One set of declarations and the signature they give: the class handle
/// that first had them, compared in place, and which of its bodies the
/// decompiler eats.
struct Shape {
    class: Arc<ClassFile>,
    eaten: Box<[bool]>,
    signature: Arc<SourceClass>,
}

struct ClassEntry {
    handle: Arc<ClassFile>,
    signature: Arc<SourceClass>,
    /// What checking the class takes, made when it is first checked: a
    /// class that is only looked up needs its signature alone.
    checking: OnceLock<Checking>,
}

/// A class's bodies, cast targets and checks.
struct Checking {
    /// Per method of the signature, its body; `None` when abstract.
    bodies: Box<[Option<Arc<Body>>]>,
    /// The `checkcast` targets the bodies ask about, each once: a cast
    /// context has one answer per target.
    casts: Box<[Box<str>]>,
    /// The checks run so far, per cast context.
    checks: Mutex<PerContext<Vec<Arc<Check>>>>,
}

/// Values by cast context: a handful per entry, so a list.
type PerContext<T> = Vec<(Box<[bool]>, T)>;

/// One method body, as decompiled in one declaration.
struct Body {
    handle: Arc<Code>,
    /// The class that declared the body when it was first met, and the
    /// declaring method's index in it: the class's name and the method's
    /// declaration are all that decompiling the body reads besides it.
    owner: Arc<ClassFile>,
    method: usize,
    /// Whether the decompiler eats the method; such a body is never
    /// decompiled.
    eaten: bool,
    /// The `checkcast` targets the body asks about, in the order first
    /// asked.
    casts: Box<[Box<str>]>,
    /// The statements per cast context decompiled so far.
    statements: Mutex<PerContext<Arc<[Stmt]>>>,
}

impl Body {
    fn declaration(&self) -> &MethodInfo {
        &self.owner.methods[self.method]
    }

    /// Whether this entry is `method`'s body in the class named `class`.
    fn declares(&self, class: &str, method: &MethodInfo) -> bool {
        let d = self.declaration();
        self.owner.name == class
            && d.flags == method.flags
            && d.name == method.name
            && d.desc == method.desc
    }
}

/// One type-check of a class and the signatures it depended on.
struct Check {
    /// The signature of each class the check looked up and found, which
    /// names it.
    found: Box<[Arc<SourceClass>]>,
    /// The names the check looked up and did not find.
    missing: Box<[Box<str>]>,
    /// The rendered diagnostics.
    messages: Box<[String]>,
}

impl Check {
    /// Whether every name the check looked up resolves as it did then in
    /// `probe`, so that checking again would give the same messages.
    fn holds(&self, probe: &Probe<'_>) -> bool {
        let same = |seen: &Arc<SourceClass>| {
            (probe.position(&seen.name)).is_some_and(|at| Arc::ptr_eq(probe.signature(at), seen))
        };
        self.found.iter().all(same) && self.missing.iter().all(|n| probe.position(n).is_none())
    }
}

/// One probe's program as the memo sees it: its classes in key order, each
/// found by its own name, as the compiler finds them; each class's memo
/// entry once looked up and its check once run.
struct Probe<'p> {
    memo: &'p OracleMemo,
    program: &'p Program,
    handles: Vec<&'p Arc<ClassFile>>,
    /// Each class's position by its own name.
    index: NameIndex<'p>,
    entries: Vec<OnceCell<Arc<ClassEntry>>>,
    checks: Vec<OnceCell<Arc<Check>>>,
}

impl<'p> Probe<'p> {
    fn new(memo: &'p OracleMemo, program: &'p Program) -> Self {
        let handles: Vec<&Arc<ClassFile>> = program.handles().collect();
        let index = index_names(handles.iter().map(|h| h.name.as_str()));
        Probe {
            memo,
            program,
            entries: handles.iter().map(|_| OnceCell::new()).collect(),
            checks: handles.iter().map(|_| OnceCell::new()).collect(),
            handles,
            index,
        }
    }

    /// The positions of the classes named by any of `names`.
    fn any_named<'a>(&'a self, names: &'a [Box<str>]) -> impl Iterator<Item = u32> + 'a {
        names.iter().flat_map(|name| self.named(name))
    }

    /// The positions of the classes named `name`.
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u32> + 'a {
        // Two classes share a name only after a rename through
        // `Program::get_mut`; otherwise the index holds every class.
        let shared = self.index.len() < self.handles.len();
        let all = (0..self.handles.len() as u32)
            .filter(move |&at| self.handles[at as usize].name == name);
        let (only, all) = if shared {
            (None, Some(all))
        } else {
            (self.index.get(name).copied(), None)
        };
        only.into_iter().chain(all.into_iter().flatten())
    }

    fn entry(&self, at: u32) -> &Arc<ClassEntry> {
        let at = at as usize;
        self.entries[at].get_or_init(|| self.memo.entry(self.handles[at]))
    }

    fn signature(&self, at: u32) -> &Arc<SourceClass> {
        &self.entry(at).signature
    }

    /// The check of the class at `at`: one recorded under this probe's
    /// cast context that still holds, or a new one against `hierarchy`.
    fn check<'s>(&'s self, at: u32, hierarchy: &OnceCell<Hierarchy<'s>>) -> &'s Check {
        self.checks[at as usize].get_or_init(|| {
            let entry = self.entry(at);
            let checking =
                (entry.checking).get_or_init(|| self.memo.checking(&entry.handle, self.program));
            let context = context(&checking.casts, self.program);
            if let Some(check) = find(&lock(&checking.checks), &context, self) {
                return check;
            }
            let hierarchy = hierarchy.get_or_init(|| Hierarchy::new(self));
            let check = Arc::new(self.memo.check(entry, checking, hierarchy, self));
            let mut checks = lock(&checking.checks);
            if let Some(recorded) = find(&checks, &context, self) {
                return recorded;
            }
            match checks.iter_mut().find(|(c, _)| *c == context) {
                Some((_, recorded)) => recorded.push(Arc::clone(&check)),
                None => checks.push((context, vec![Arc::clone(&check)])),
            }
            check
        })
    }
}

impl<'s> Classes<'s> for Probe<'_> {
    fn len(&self) -> usize {
        self.handles.len()
    }

    fn position(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    fn class(&'s self, at: u32) -> &'s SourceClass {
        self.signature(at)
    }
}

impl OracleMemo {
    fn new(bugs: &BugSet) -> Self {
        OracleMemo {
            bugs: bugs.clone(),
            classes: Mutex::default(),
            bodies: Mutex::default(),
            signatures: Mutex::default(),
            shapes: Mutex::default(),
            #[cfg(test)]
            decompiled: AtomicUsize::new(0),
            #[cfg(test)]
            checked: AtomicUsize::new(0),
            #[cfg(test)]
            built: AtomicUsize::new(0),
        }
    }

    /// `error_messages(&decompile_program(program, bugs))`, reusing every
    /// decompile and check an earlier probe of the reduction already did.
    pub(crate) fn errors(&self, program: &Program) -> BTreeSet<String> {
        let probe = Probe::new(self, program);
        let hierarchy = OnceCell::new();
        let checks = (0..probe.handles.len() as u32).map(|at| probe.check(at, &hierarchy));
        let messages = checks.flat_map(|c| c.messages.iter());
        messages.cloned().collect()
    }

    /// Whether [`OracleMemo::errors`] of `program` holds every message of
    /// `baseline`. Only a class whose own name can begin a baseline
    /// message is checked, message by message until one is missing.
    pub(crate) fn preserves(&self, program: &Program, baseline: &Baseline) -> bool {
        let probe = Probe::new(self, program);
        let absent = |p: &Printed| probe.any_named(&p.producers).next().is_none();
        if baseline.0.iter().any(absent) {
            return false;
        }
        let hierarchy = OnceCell::new();
        let printed = |p: &Printed| {
            (probe.any_named(&p.producers))
                .any(|at| probe.check(at, &hierarchy).messages.contains(&p.message))
        };
        baseline.0.iter().all(printed)
    }

    /// Type-checks `entry`'s class in `probe`, with statements from the
    /// body memo.
    fn check<'s>(
        &self,
        entry: &'s ClassEntry,
        checking: &Checking,
        hierarchy: &Hierarchy<'s>,
        probe: &'s Probe<'_>,
    ) -> Check {
        #[cfg(test)]
        self.checked.fetch_add(1, Ordering::Relaxed);
        let statements: Vec<Option<Arc<[Stmt]>>> = (checking.bodies.iter())
            .map(|body| Some(self.statements(body.as_ref()?, probe.program)))
            .collect();
        let bodies: Vec<&[Stmt]> = statements
            .iter()
            .map(|s| s.as_deref().unwrap_or_default())
            .collect();
        let checked = check_class(hierarchy, &entry.signature, &bodies);
        let found = (checked.found.iter())
            .map(|&at| Arc::clone(probe.signature(at)))
            .collect();
        Check {
            found,
            missing: checked.missing.iter().map(|&name| name.into()).collect(),
            messages: checked.diags.iter().map(ToString::to_string).collect(),
        }
    }

    /// `body`'s statements under its cast context in `program`.
    fn statements(&self, body: &Body, program: &Program) -> Arc<[Stmt]> {
        let context = context(&body.casts, program);
        let find = |statements: &PerContext<Arc<[Stmt]>>| {
            let found = statements.iter().find(|(c, _)| *c == context);
            found.map(|(_, s)| Arc::clone(s))
        };
        if let Some(statements) = find(&lock(&body.statements)) {
            return statements;
        }
        let mut is_interface =
            |target: &str| program.get(target).is_some_and(ClassFile::is_interface);
        let (class, method) = (&body.owner.name, body.declaration());
        let built = self.decompile(class, method, &body.handle, &mut is_interface);
        let mut statements = lock(&body.statements);
        find(&statements).unwrap_or_else(|| {
            let built: Arc<[Stmt]> = built.into();
            statements.push((context, Arc::clone(&built)));
            built
        })
    }

    /// The memo entry of a class handle: its signature, from the bodies'
    /// fates alone.
    fn entry(&self, handle: &Arc<ClassFile>) -> Arc<ClassEntry> {
        if let Some(entry) = lock(&self.classes).get(&address(handle)) {
            return Arc::clone(entry);
        }
        let codes = handle.methods.iter().filter_map(|m| m.code.as_ref());
        let eaten: Vec<bool> = codes.map(|code| eats(&self.bugs, code)).collect();
        let entry = Arc::new(ClassEntry {
            handle: Arc::clone(handle),
            signature: self.signature(handle, &eaten),
            checking: OnceLock::new(),
        });
        Arc::clone(lock(&self.classes).entry(address(handle)).or_insert(entry))
    }

    /// What checking `handle`'s class takes: its bodies, each decompiled
    /// in `program`'s cast context if new, and their cast targets.
    fn checking(&self, handle: &Arc<ClassFile>, program: &Program) -> Checking {
        let mut bodies = Vec::new();
        let mut casts: Vec<Box<str>> = Vec::new();
        for (index, method) in handle.methods.iter().enumerate() {
            let Some(code) = &method.code else {
                bodies.push(None);
                continue;
            };
            let body = self.body(handle, index, code, program);
            if body.eaten {
                continue;
            }
            for target in body.casts.iter() {
                if !casts.contains(target) {
                    casts.push(target.clone());
                }
            }
            bodies.push(Some(body));
        }
        Checking {
            bodies: bodies.into(),
            casts: casts.into(),
            checks: Mutex::default(),
        }
    }

    /// The interned signature of `class` when the decompiler eats the
    /// bodies `eaten` marks (one flag per method with a body): that of an
    /// earlier class with the same declarations, or built and interned.
    fn signature(&self, class: &Arc<ClassFile>, eaten: &[bool]) -> Arc<SourceClass> {
        let key = declarations_hash(class, eaten);
        let same =
            |shape: &&Shape| *shape.eaten == *eaten && same_declarations(&shape.class, class);
        if let Some(shape) = lock(&self.shapes)
            .get(&key)
            .and_then(|s| s.iter().find(same))
        {
            return Arc::clone(&shape.signature);
        }
        #[cfg(test)]
        self.built.fetch_add(1, Ordering::Relaxed);
        let mut eats = eaten.iter();
        let signature = decompile_class_with(class, &self.bugs, &mut |_, _| {
            let eaten = *eats.next().expect("one flag per body");
            (!eaten).then(Vec::new)
        });
        let signature = self.intern(signature);
        let mut shapes = lock(&self.shapes);
        let shapes = shapes.entry(key).or_default();
        if let Some(raced) = shapes.iter().find(same) {
            return Arc::clone(&raced.signature);
        }
        shapes.push(Shape {
            class: Arc::clone(class),
            eaten: eaten.into(),
            signature: Arc::clone(&signature),
        });
        signature
    }

    /// The memo entry of the body `code` of the `index`-th method of
    /// `owner`; decompiled in `program`'s cast context if new.
    fn body(
        &self,
        owner: &Arc<ClassFile>,
        index: usize,
        code: &Arc<Code>,
        program: &Program,
    ) -> Arc<Body> {
        let method = &owner.methods[index];
        let key = address(code);
        let declared = |bodies: &AddressMap<Vec<Arc<Body>>>| {
            let found = (bodies.get(&key)?.iter()).find(|b| b.declares(&owner.name, method));
            found.cloned()
        };
        if let Some(body) = declared(&lock(&self.bodies)) {
            return body;
        }
        let eaten = eats(&self.bugs, code);
        let mut casts: Vec<Box<str>> = Vec::new();
        let mut context: Vec<bool> = Vec::new();
        let statements = (!eaten).then(|| {
            self.decompile(&owner.name, method, code, &mut |target| {
                let answer = program.get(target).is_some_and(ClassFile::is_interface);
                if !casts.iter().any(|t| **t == *target) {
                    casts.push(target.into());
                    context.push(answer);
                }
                answer
            })
        });
        let statements = statements.map(|s| (context.into(), s.into()));
        let body = Arc::new(Body {
            handle: Arc::clone(code),
            owner: Arc::clone(owner),
            method: index,
            eaten,
            casts: casts.into(),
            statements: Mutex::new(statements.into_iter().collect()),
        });
        let mut bodies = lock(&self.bodies);
        if let Some(raced) = declared(&bodies) {
            return raced;
        }
        bodies.entry(key).or_default().push(Arc::clone(&body));
        body
    }

    fn decompile(
        &self,
        class: &str,
        method: &MethodInfo,
        code: &Code,
        is_interface: &mut dyn FnMut(&str) -> bool,
    ) -> Vec<Stmt> {
        #[cfg(test)]
        self.decompiled.fetch_add(1, Ordering::Relaxed);
        decompile_code(class, method, code, &self.bugs, is_interface)
    }

    fn intern(&self, signature: SourceClass) -> Arc<SourceClass> {
        let mut signatures = lock(&self.signatures);
        if let Some(interned) = signatures.get(&signature) {
            return Arc::clone(interned);
        }
        let interned = Arc::new(signature);
        signatures.insert(Arc::clone(&interned));
        interned
    }
}

/// The answers to the cast questions about `casts` in `program`: whether
/// the class `Program::get` finds under each is an interface.
fn context(casts: &[Box<str>], program: &Program) -> Box<[bool]> {
    let is_interface = |target: &str| program.get(target).is_some_and(ClassFile::is_interface);
    casts.iter().map(|target| is_interface(target)).collect()
}

/// Hashes what a class's signature reads of the class (see
/// [`same_declarations`]) and which of its bodies are eaten.
fn declarations_hash(class: &ClassFile, eaten: &[bool]) -> usize {
    let mut h = AddressHasher::default();
    class.name.hash(&mut h);
    class.flags.hash(&mut h);
    class.superclass.hash(&mut h);
    class.interfaces.hash(&mut h);
    h.write_usize(class.fields.len());
    for f in &class.fields {
        f.name.hash(&mut h);
        f.ty.hash(&mut h);
    }
    h.write_usize(class.methods.len());
    for m in &class.methods {
        m.name.hash(&mut h);
        m.desc.hash(&mut h);
        m.code.is_some().hash(&mut h);
    }
    eaten.hash(&mut h);
    h.finish() as usize
}

/// Whether two classes declare the same for their signatures: the name,
/// flags and supertypes, each field's name and type, and each method's
/// name, descriptor and whether it has a body. A method's flags and its
/// body's contents are not read (the bodies' fates come separately).
fn same_declarations(a: &ClassFile, b: &ClassFile) -> bool {
    let field = |(x, y): (&FieldInfo, &FieldInfo)| x.name == y.name && x.ty == y.ty;
    let method = |(x, y): (&MethodInfo, &MethodInfo)| {
        x.name == y.name && x.desc == y.desc && x.code.is_some() == y.code.is_some()
    };
    a.name == b.name
        && a.flags == b.flags
        && a.superclass == b.superclass
        && a.interfaces == b.interfaces
        && a.fields.len() == b.fields.len()
        && a.methods.len() == b.methods.len()
        && a.fields.iter().zip(&b.fields).all(field)
        && a.methods.iter().zip(&b.methods).all(method)
}

/// A recorded check for `context` that still holds in `probe`.
fn find(
    checks: &PerContext<Vec<Arc<Check>>>,
    context: &[bool],
    probe: &Probe<'_>,
) -> Option<Arc<Check>> {
    let (_, recorded) = checks.iter().find(|(c, _)| **c == *context)?;
    recorded.iter().find(|c| c.holds(probe)).cloned()
}

fn address<T>(handle: &Arc<T>) -> usize {
    Arc::as_ptr(handle) as usize
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugKind;
    use crate::compile::error_messages;
    use crate::decompile::decompile_program;
    use lbr_classfile::{FieldInfo, Insn, MethodDescriptor, MethodRef, Type};
    use lbr_core::Input;
    use lbr_logic::{Var, VarSet};
    use lbr_prng::SplitMix64;
    use std::collections::HashMap;

    fn method(name: &str, insns: Vec<Insn>) -> MethodInfo {
        MethodInfo::new(name, MethodDescriptor::void(), Code::new(2, 2, insns))
    }

    /// `checkcast target; invokeinterface target.m()` on `this`.
    fn cast_and_call(target: &str) -> Vec<Insn> {
        vec![
            Insn::ALoad(0),
            Insn::CheckCast(target.into()),
            Insn::InvokeInterface(MethodRef::new(target, "m", MethodDescriptor::void())),
            Insn::Return,
        ]
    }

    /// Interfaces `I` and `J`, classes implementing them whose bodies cast
    /// to them before a call, and a pattern match.
    fn program() -> Program {
        let mut classes = Vec::new();
        for name in ["I", "J"] {
            let mut iface = ClassFile::new_interface(name);
            iface
                .methods
                .push(MethodInfo::new_abstract("m", MethodDescriptor::void()));
            classes.push(iface);
        }
        let ctor = method("<init>", vec![Insn::Return]);
        let m = method("m", vec![Insn::Return]);
        let mut a = ClassFile::new_class("A");
        a.interfaces.extend(["I".into(), "J".into()]);
        a.fields.push(FieldInfo::new("f", Type::Int));
        a.methods.extend([ctor.clone(), m.clone()]);
        a.methods.push(method("go", cast_and_call("I")));
        a.methods.push(method("to", cast_and_call("J")));
        let mut b = ClassFile::new_class("B");
        b.superclass = Some("A".into());
        b.methods.push(ctor.clone());
        b.methods.push(method("go", cast_and_call("J")));
        let mut c = ClassFile::new_class("C");
        c.interfaces.push("I".into());
        c.methods.extend([ctor, m]);
        let matches = [
            Insn::ALoad(0),
            Insn::InstanceOf("A".into()),
            Insn::Pop,
            Insn::Return,
        ];
        c.methods.push(method("is", matches.to_vec()));
        classes.extend([a, b, c]);
        classes.into_iter().collect()
    }

    #[test]
    fn a_new_handle_with_known_declarations_takes_their_signature() {
        let program = program();
        let model = program.model().expect("the program verifies");
        let full = (model.materialize)(&VarSet::full(model.cnf.num_vars()));
        let bugs = BugSet::of(&[BugKind::CastToObject]);
        let memo = full.scoped::<ScopeMemo>().for_bugs(&bugs);
        assert_eq!(
            memo.errors(&full),
            error_messages(&decompile_program(&full, &bugs))
        );
        let signature = |memo: &OracleMemo, p: &Program| {
            let handle = p.handles().find(|h| h.name == "A").expect("A");
            Arc::clone(&lock(&memo.classes)[&address(handle)].signature)
        };
        let built = memo.built.load(Ordering::Relaxed);
        // `A.go` gets another body: a new handle, the same declarations.
        let mut rebodied = full.clone();
        let go = &mut rebodied.get_mut("A").expect("present").methods[2];
        Arc::make_mut(go.code.as_mut().expect("a body")).insns = vec![Insn::Return];
        let expected = error_messages(&decompile_program(&rebodied, &bugs));
        assert_eq!(memo.errors(&rebodied), expected);
        assert_eq!(
            memo.built.load(Ordering::Relaxed),
            built,
            "no signature built"
        );
        assert!(Arc::ptr_eq(
            &signature(&memo, &full),
            &signature(&memo, &rebodied)
        ));
        // A new field is a new declaration: its signature is built once.
        let mut widened = rebodied.clone();
        let a = widened.get_mut("A").expect("present");
        a.fields.push(FieldInfo::new("g", Type::Int));
        let expected = error_messages(&decompile_program(&widened, &bugs));
        assert_eq!(memo.errors(&widened), expected);
        assert_eq!(memo.built.load(Ordering::Relaxed), built + 1);
        // ...and taken by the next handle that declares the same.
        let mut again = widened.clone();
        let go = &mut again.get_mut("A").expect("present").methods[2];
        Arc::make_mut(go.code.as_mut().expect("a body")).insns = vec![Insn::Nop, Insn::Return];
        let expected = error_messages(&decompile_program(&again, &bugs));
        assert_eq!(memo.errors(&again), expected);
        assert_eq!(memo.built.load(Ordering::Relaxed), built + 1);
        assert!(Arc::ptr_eq(
            &signature(&memo, &widened),
            &signature(&memo, &again)
        ));
    }

    /// What decompiling a body reads: its handle, its class's name, its
    /// method's declaration, and its cast context in `program`.
    type Decompile = (usize, String, u16, String, String, Vec<bool>);

    fn decompiles(program: &Program, bugs: &BugSet) -> Vec<Decompile> {
        let mut out = Vec::new();
        for class in program.classes() {
            for m in &class.methods {
                let Some(code) = &m.code else { continue };
                if eats(bugs, code) {
                    continue;
                }
                let mut context = Vec::new();
                decompile_code(&class.name, m, code, bugs, &mut |target| {
                    let answer = program.get(target).is_some_and(ClassFile::is_interface);
                    context.push(answer);
                    answer
                });
                let (name, desc) = (m.name.clone(), m.desc.to_string());
                out.push((
                    address(code),
                    class.name.clone(),
                    m.flags.bits(),
                    name,
                    desc,
                    context,
                ));
            }
        }
        out
    }

    #[test]
    fn each_body_and_cast_context_is_decompiled_once() {
        let program = program();
        let model = program.model().expect("the program verifies");
        let vars = model.cnf.num_vars();
        let bugs = BugSet::of(&[BugKind::CastToObject, BugKind::EatPatternMatch]);
        let mut rng = SplitMix64::seed_from_u64(29);
        // Random keep-sets, each also with every interface but one gone,
        // so that bodies meet several cast contexts; the candidates stay
        // alive, so no handle address is reused.
        let mut candidates = Vec::new();
        for _ in 0..60 {
            let keep = (0..vars as u32).map(Var::new).filter(|_| rng.gen_bool(0.8));
            let keep = VarSet::from_iter_with_universe(vars, keep);
            candidates.push((model.materialize)(&keep));
        }
        candidates.push((model.materialize)(&VarSet::full(vars)));
        let memo = candidates[0].scoped::<ScopeMemo>().for_bugs(&bugs);
        let mut seen = HashSet::new();
        for candidate in &candidates {
            let expected = error_messages(&decompile_program(candidate, &bugs));
            assert_eq!(memo.errors(candidate), expected);
            seen.extend(decompiles(candidate, &bugs));
        }
        let mut contexts: HashMap<usize, HashSet<&[bool]>> = HashMap::new();
        for d in &seen {
            contexts.entry(d.0).or_default().insert(&d.5);
        }
        assert!(
            contexts.values().any(|c| c.len() > 1),
            "no body met two contexts"
        );
        assert_eq!(memo.decompiled.load(Ordering::Relaxed), seen.len());

        // `I` gains a method: every class that looked it up is checked
        // again, from memoized bodies only.
        let mut edited = candidates.last().expect("the full candidate").clone();
        let iface = edited.get_mut("I").expect("present");
        iface
            .methods
            .push(MethodInfo::new_abstract("n", MethodDescriptor::void()));
        let checked = memo.checked.load(Ordering::Relaxed);
        let expected = error_messages(&decompile_program(&edited, &bugs));
        assert_eq!(memo.errors(&edited), expected);
        assert!(
            memo.checked.load(Ordering::Relaxed) >= checked + 3,
            "A, B and C rechecked"
        );
        assert_eq!(memo.decompiled.load(Ordering::Relaxed), seen.len());
    }

    #[test]
    fn a_probe_checks_and_decompiles_only_the_classes_that_can_print_the_baseline() {
        let program = program();
        let bugs = BugSet::of(&[BugKind::CastToObject]);
        let messages = error_messages(&decompile_program(&program, &bugs));
        let baseline = Baseline::new(&messages);
        let prints = |class: &ClassFile| {
            let (whole, member) = (format!("[{}]", class.name), format!("[{}::", class.name));
            messages
                .iter()
                .any(|m| m.contains(&whole) || m.contains(&member))
        };
        let printers: Vec<&ClassFile> = program.classes().filter(|c| prints(c)).collect();
        assert_eq!(printers.len(), 2, "A and B print, I, J and C do not");
        let bodies = |classes: &[&ClassFile]| {
            let methods = classes.iter().flat_map(|c| &c.methods);
            methods.filter(|m| m.code.is_some()).count()
        };
        let memo = OracleMemo::new(&bugs);
        assert!(memo.preserves(&program, &baseline));
        assert_eq!(memo.checked.load(Ordering::Relaxed), printers.len());
        assert_eq!(memo.decompiled.load(Ordering::Relaxed), bodies(&printers));
        for handle in program.handles() {
            let entry = lock(&memo.classes).get(&address(handle)).cloned();
            let checking = entry.is_some_and(|e| e.checking.get().is_some());
            assert_eq!(checking, prints(handle), "{}", handle.name);
        }
        // Without a printer of some message, nothing is checked at all.
        let mut without = program.clone();
        without.remove(&printers[0].name);
        let memo = OracleMemo::new(&bugs);
        assert!(!memo.preserves(&without, &baseline));
        assert_eq!(memo.checked.load(Ordering::Relaxed), 0);
        assert_eq!(memo.decompiled.load(Ordering::Relaxed), 0);
        // `errors` checks every class, and decompiles every body once.
        let memo = OracleMemo::new(&bugs);
        assert!(memo.preserves(&program, &baseline));
        assert_eq!(memo.errors(&program), messages);
        assert_eq!(memo.checked.load(Ordering::Relaxed), program.len());
        let all: Vec<&ClassFile> = program.classes().collect();
        assert_eq!(memo.decompiled.load(Ordering::Relaxed), bodies(&all));
    }
}
