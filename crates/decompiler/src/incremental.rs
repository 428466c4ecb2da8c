//! The oracle's per-reduction memo: decompile each method body once, and
//! check a class again only when a class it looked up changed.
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
//! class's interned signature, its bodies and the union of their targets;
//! and per (class handle, cast context), each check already run: its
//! messages and the signature every looked-up name resolved to, misses
//! included. A new class handle takes its bodies from the memo and
//! decompiles only bodies never seen; it takes the signature interned for
//! an earlier handle with the same declarations (compared in place, by
//! that handle), and builds and interns a signature only for declarations
//! never seen. A check is reused when each looked-up name resolves to the
//! same interned signature in the probe at hand, and a re-check takes its
//! statements from the memo.
//!
//! Names — of classes, cast targets and looked-up names — are interned to
//! ids of the memo, as the stackvm oracle's facts are. Each probe fills a
//! flat table from id to the signature under that name and to whether the
//! program's class of that name is an interface; cast contexts and reuse
//! tests read only that table. The compiler's [`Hierarchy`], the probe's
//! signatures by name with the supertype walks of each class looked up, is
//! built only on a probe that re-checks a class, and serves every re-check
//! of that probe: a walk reads only the probe's signatures, and a check
//! that takes a walk made for another still records every name the walk
//! looked up, so its reuse test stays exact.
//!
//! Locking follows the materializer: look up under the lock, build outside
//! it, first insert wins. What is built is a pure function of the inputs,
//! so the thread that wins changes nothing observable.

use crate::bugs::BugSet;
use crate::compile::{check_class, Hierarchy};
use crate::decompile::{decompile_class_with, decompile_code, eats};
use crate::source::{SourceClass, Stmt};
use lbr_classfile::{ClassFile, Code, FieldInfo, MethodInfo, Program};
use lbr_core::{AddressHasher, AddressMap};
use std::cell::OnceCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};
#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// One decompiler's memo over the candidates of one reduction.
pub(crate) struct OracleMemo {
    bugs: BugSet,
    /// Keyed by the handle's address; the entry holds the handle, so no
    /// other class can take that address while the entry lives.
    classes: Mutex<AddressMap<Arc<ClassEntry>>>,
    /// Keyed by the body handle's address, which the entries hold; one
    /// handle may serve several declarations, each with its own entry.
    bodies: Mutex<AddressMap<Vec<Arc<Body>>>>,
    names: Mutex<Names>,
    /// Every signature seen, so that equal signatures share one `Arc` and
    /// compare by address.
    signatures: Mutex<HashSet<Arc<SourceClass>>>,
    /// The interned signature of each set of declarations met, keyed by
    /// [`declarations_hash`] (collisions share the key's list).
    shapes: Mutex<AddressMap<Vec<Shape>>>,
    /// How many bodies were decompiled, and how many classes checked.
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
    /// The id of the class's name.
    name: u32,
    signature: Arc<SourceClass>,
    /// Per method of the signature, its body; `None` when abstract.
    bodies: Box<[Option<Arc<Body>>]>,
    /// The ids of the `checkcast` targets the bodies ask about, each once:
    /// a cast context has one answer per target.
    casts: Box<[u32]>,
    /// The checks run so far, per cast context.
    checks: Mutex<PerContext<Vec<Arc<Check>>>>,
}

/// Values by cast context: a handful per entry, so a list.
type PerContext<T> = Vec<(Box<[bool]>, T)>;

/// One method body, as decompiled in one declaration.
struct Body {
    handle: Arc<Code>,
    /// The id of the declaring class's name.
    class: u32,
    /// The class that declared the body when it was first met, and the
    /// declaring method's index in it: the class's name and the method's
    /// declaration are all that decompiling the body reads besides it.
    owner: Arc<ClassFile>,
    method: usize,
    /// Whether the decompiler eats the method; such a body is never
    /// decompiled.
    eaten: bool,
    /// The ids of the `checkcast` targets the body asks about, in the order
    /// first asked.
    casts: Box<[u32]>,
    /// The statements per cast context decompiled so far.
    statements: Mutex<PerContext<Arc<[Stmt]>>>,
}

impl Body {
    fn declaration(&self) -> &MethodInfo {
        &self.owner.methods[self.method]
    }

    /// Whether this entry is `method`'s body in the class named `class`.
    fn declares(&self, class: u32, method: &MethodInfo) -> bool {
        let d = self.declaration();
        self.class == class
            && d.flags == method.flags
            && d.name == method.name
            && d.desc == method.desc
    }
}

/// One type-check of a class and the signatures it depended on.
struct Check {
    /// The id and the signature of each name the check looked up and found.
    found: Box<[(u32, Arc<SourceClass>)]>,
    /// The ids of the names the check looked up and did not find.
    missing: Box<[u32]>,
    /// The rendered diagnostics.
    messages: Box<[String]>,
}

impl Check {
    /// Whether every name the check looked up resolves as it did then, so
    /// that checking again would give the same messages.
    fn holds(&self, table: &Table<'_>) -> bool {
        let same = |(id, seen): &(u32, Arc<SourceClass>)| {
            table
                .signature(*id)
                .is_some_and(|now| Arc::ptr_eq(now, seen))
        };
        self.found.iter().all(same) && self.missing.iter().all(|&id| table.signature(id).is_none())
    }
}

/// The names the memo has seen, by id.
#[derive(Default)]
struct Names(HashMap<Box<str>, u32>);

impl Names {
    fn id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.0.get(name) {
            return id;
        }
        let id = self.0.len() as u32;
        self.0.insert(name.into(), id);
        id
    }
}

/// One probe's classes, by name id.
struct Table<'e> {
    /// The signature under each name, as the compiler's index resolves it
    /// (by the class's own name).
    signatures: Vec<Option<&'e Arc<SourceClass>>>,
    /// Whether the program's class of each name is an interface, as
    /// `Program::get` finds it (by the program's key, which differs from
    /// the class's own name only after a rename through
    /// `Program::get_mut`).
    interfaces: Vec<bool>,
}

impl Table<'_> {
    fn signature(&self, id: u32) -> Option<&Arc<SourceClass>> {
        self.signatures.get(id as usize).copied().flatten()
    }

    /// The answers to the cast questions about `casts`.
    fn context(&self, casts: &[u32]) -> Box<[bool]> {
        let is_interface = |&id: &u32| self.interfaces.get(id as usize).copied();
        casts
            .iter()
            .map(|id| is_interface(id).unwrap_or(false))
            .collect()
    }
}

impl OracleMemo {
    fn new(bugs: &BugSet) -> Self {
        OracleMemo {
            bugs: bugs.clone(),
            classes: Mutex::default(),
            bodies: Mutex::default(),
            names: Mutex::default(),
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
        let checks = self.checks(program);
        let messages = checks.iter().flat_map(|c| c.messages.iter());
        messages.cloned().collect()
    }

    /// Whether [`OracleMemo::errors`] of `program` holds every message of
    /// `baseline`, without collecting the messages.
    pub(crate) fn preserves(&self, program: &Program, baseline: &BTreeSet<String>) -> bool {
        let checks = self.checks(program);
        let produced = |e: &String| checks.iter().any(|c| c.messages.contains(e));
        baseline.iter().all(produced)
    }

    /// The check of every class of `program`, in name order.
    fn checks(&self, program: &Program) -> Vec<Arc<Check>> {
        let keyed: Vec<(&str, &Arc<ClassFile>)> = program.names().zip(program.handles()).collect();
        let known: Vec<Option<Arc<ClassEntry>>> = {
            let classes = lock(&self.classes);
            let known = |handle: &Arc<ClassFile>| classes.get(&address(handle)).cloned();
            keyed.iter().map(|&(_, handle)| known(handle)).collect()
        };
        let entries: Vec<Arc<ClassEntry>> = (keyed.iter().zip(known))
            .map(|(&(_, handle), known)| known.unwrap_or_else(|| self.entry(handle, program)))
            .collect();
        // The id each class is found under by `Program::get`.
        let keys: Vec<u32> = (keyed.iter().zip(&entries))
            .map(|(&(key, _), entry)| {
                if key == entry.signature.name {
                    entry.name
                } else {
                    lock(&self.names).id(key)
                }
            })
            .collect();
        let len = lock(&self.names).0.len();
        let mut table = Table {
            signatures: vec![None; len],
            interfaces: vec![false; len],
        };
        for (entry, &key) in entries.iter().zip(&keys) {
            table.signatures[entry.name as usize] = Some(&entry.signature);
            table.interfaces[key as usize] = entry.handle.is_interface();
        }
        let built = OnceCell::new();
        let hierarchy =
            || built.get_or_init(|| Hierarchy::new(entries.iter().map(|e| &*e.signature)));
        let checks = entries.iter().map(|entry| {
            let context = table.context(&entry.casts);
            if let Some(check) = find(&lock(&entry.checks), &context, &table) {
                return check;
            }
            let check = Arc::new(self.check(entry, hierarchy(), &entries, &table, program));
            let mut checks = lock(&entry.checks);
            if let Some(recorded) = find(&checks, &context, &table) {
                return recorded;
            }
            match checks.iter_mut().find(|(c, _)| *c == context) {
                Some((_, recorded)) => recorded.push(Arc::clone(&check)),
                None => checks.push((context, vec![Arc::clone(&check)])),
            }
            check
        });
        checks.collect()
    }

    /// Type-checks `entry`'s class in the probe `table` describes, with
    /// statements from the body memo. `hierarchy` holds the signatures of
    /// `entries`, in order.
    fn check<'s>(
        &self,
        entry: &'s ClassEntry,
        hierarchy: &Hierarchy<'s>,
        entries: &[Arc<ClassEntry>],
        table: &Table<'_>,
        program: &Program,
    ) -> Check {
        #[cfg(test)]
        self.checked.fetch_add(1, Ordering::Relaxed);
        let statements: Vec<Option<Arc<[Stmt]>>> = (entry.bodies.iter())
            .map(|body| {
                let body = body.as_ref()?;
                Some(self.statements(body, table, program))
            })
            .collect();
        let bodies: Vec<&[Stmt]> = statements
            .iter()
            .map(|s| s.as_deref().unwrap_or_default())
            .collect();
        let checked = check_class(hierarchy, &entry.signature, &bodies);
        let found = (checked.found.iter())
            .map(|&at| {
                let found = &entries[at as usize];
                (found.name, Arc::clone(&found.signature))
            })
            .collect();
        let missing = if checked.missing.is_empty() {
            Box::default()
        } else {
            let mut names = lock(&self.names);
            checked.missing.iter().map(|name| names.id(name)).collect()
        };
        Check {
            found,
            missing,
            messages: checked.diags.iter().map(ToString::to_string).collect(),
        }
    }

    /// `body`'s statements under the cast context of the probe `table`
    /// describes.
    fn statements(&self, body: &Body, table: &Table<'_>, program: &Program) -> Arc<[Stmt]> {
        let context = table.context(&body.casts);
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

    /// The memo entry of a class handle no probe has met yet.
    fn entry(&self, handle: &Arc<ClassFile>, program: &Program) -> Arc<ClassEntry> {
        let class = &**handle;
        let name = lock(&self.names).id(&class.name);
        // Per method of the signature, its body; per body of the class,
        // whether the decompiler eats it.
        let mut bodies = Vec::new();
        let mut eaten = Vec::new();
        let mut casts: Vec<u32> = Vec::new();
        for (index, method) in class.methods.iter().enumerate() {
            let Some(code) = &method.code else {
                bodies.push(None);
                continue;
            };
            let body = self.body(name, handle, index, code, program);
            eaten.push(body.eaten);
            if body.eaten {
                continue;
            }
            for &target in body.casts.iter() {
                if !casts.contains(&target) {
                    casts.push(target);
                }
            }
            bodies.push(Some(body));
        }
        let entry = Arc::new(ClassEntry {
            handle: Arc::clone(handle),
            name,
            signature: self.signature(handle, &eaten),
            bodies: bodies.into(),
            casts: casts.into(),
            checks: Mutex::default(),
        });
        Arc::clone(lock(&self.classes).entry(address(handle)).or_insert(entry))
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
    /// `owner`, whose name has the id `class`; decompiled in `program`'s
    /// cast context if new.
    fn body(
        &self,
        class: u32,
        owner: &Arc<ClassFile>,
        index: usize,
        code: &Arc<Code>,
        program: &Program,
    ) -> Arc<Body> {
        let method = &owner.methods[index];
        let key = address(code);
        let declared = |bodies: &AddressMap<Vec<Arc<Body>>>| {
            let found = bodies.get(&key)?.iter().find(|b| b.declares(class, method));
            found.cloned()
        };
        if let Some(body) = declared(&lock(&self.bodies)) {
            return body;
        }
        let eaten = eats(&self.bugs, code);
        let mut targets: Vec<String> = Vec::new();
        let mut context: Vec<bool> = Vec::new();
        let statements = (!eaten).then(|| {
            self.decompile(&owner.name, method, code, &mut |target| {
                let answer = program.get(target).is_some_and(ClassFile::is_interface);
                if !targets.iter().any(|t| t == target) {
                    targets.push(target.to_owned());
                    context.push(answer);
                }
                answer
            })
        });
        let casts = {
            let mut names = lock(&self.names);
            targets.iter().map(|t| names.id(t)).collect()
        };
        let statements = statements.map(|s| (context.into(), s.into()));
        let body = Arc::new(Body {
            handle: Arc::clone(code),
            class,
            owner: Arc::clone(owner),
            method: index,
            eaten,
            casts,
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

/// A recorded check for `context` that still holds under `table`.
fn find(
    checks: &PerContext<Vec<Arc<Check>>>,
    context: &[bool],
    table: &Table<'_>,
) -> Option<Arc<Check>> {
    let (_, recorded) = checks.iter().find(|(c, _)| **c == *context)?;
    recorded.iter().find(|c| c.holds(table)).cloned()
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
}
