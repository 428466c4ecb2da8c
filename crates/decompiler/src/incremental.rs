//! The oracle's per-reduction memo: decompile each class once, and check a
//! class again only when a class it looked up changed.
//!
//! The candidates of one reduction share most class handles (the
//! materializer reuses every reduced class), yet
//! `error_messages(&decompile_program(p, bugs))` decompiles and type-checks
//! every class on every probe. Two facts make that work reusable:
//!
//! * [`decompile_class`](crate::decompile_class) asks one thing about the
//!   rest of the program: whether some `checkcast` targets are present
//!   interfaces. A class's source is a function of its handle and those
//!   answers, its *cast context*.
//! * Checking a class reads its own source and, for each name it looks up,
//!   only the *signature* of the class found there (the class with its
//!   bodies emptied).
//!
//! So the memo keeps, per class handle, the class's interned signature and
//! the targets it asks about; and per (handle, cast context), each check
//! already run: its messages and the signature every looked-up name
//! resolved to, misses included. A check is reused when each of those
//! names resolves to the same interned signature in the probe at hand. On
//! a miss only that class is decompiled again. Full bodies are never kept:
//! they are most of the memory, and a probe rebuilds the few it needs.
//!
//! Locking follows the materializer: look up under the lock, build outside
//! it, first insert wins. What is built is a pure function of the inputs,
//! so the thread that wins changes nothing observable.

use crate::bugs::BugSet;
use crate::compile::{check_class, ClassIndex};
use crate::decompile::decompile_class_with;
use crate::source::{SourceClass, Stmt};
use lbr_classfile::{ClassFile, Program};
use lbr_core::AddressMap;
use std::collections::{BTreeSet, HashMap, HashSet};
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
        let memo = Arc::new(OracleMemo {
            bugs: bugs.clone(),
            classes: Mutex::default(),
            signatures: Mutex::default(),
        });
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
    /// Every signature seen, so that equal signatures share one `Arc` and
    /// compare by address.
    signatures: Mutex<HashSet<Arc<SourceClass>>>,
}

struct ClassEntry {
    handle: Arc<ClassFile>,
    signature: Arc<SourceClass>,
    /// The `checkcast` targets the decompiler asks about, in the order
    /// first asked: a cast context has one answer per target.
    casts: Box<[Box<str>]>,
    checks: Mutex<Checks>,
}

/// The checks run so far, per cast context.
type Checks = HashMap<Box<[bool]>, Vec<Arc<Check>>>;

/// One type-check of a class and the signatures it depended on.
struct Check {
    /// The signature found under each name the check looked up and found.
    found: Box<[Arc<SourceClass>]>,
    /// The names the check looked up and did not find.
    missing: Box<[Box<str>]>,
    /// The rendered diagnostics.
    messages: Box<[String]>,
}

/// The interned signature of every class of one probe, by name.
type Signatures<'p> = HashMap<&'p str, &'p Arc<SourceClass>>;

impl Check {
    /// Whether every name the check looked up resolves as it did then, so
    /// that checking again would give the same messages.
    fn holds(&self, signatures: &Signatures<'_>) -> bool {
        let same = |seen: &Arc<SourceClass>| {
            signatures
                .get(seen.name.as_str())
                .is_some_and(|now| Arc::ptr_eq(now, seen))
        };
        self.found.iter().all(same) && !self.missing.iter().any(|n| signatures.contains_key(&**n))
    }
}

/// A class's method bodies, one per method.
type Bodies = Vec<Vec<Stmt>>;

impl OracleMemo {
    /// `error_messages(&decompile_program(program, bugs))`, reusing every
    /// decompile and check an earlier probe of the reduction already did.
    pub(crate) fn errors(&self, program: &Program) -> BTreeSet<String> {
        let is_interface = |target: &str| program.get(target).is_some_and(ClassFile::is_interface);
        let (entries, mut fresh): (Vec<_>, Vec<_>) = program
            .handles()
            .map(|handle| self.entry(handle, &is_interface))
            .unzip();
        let signatures: Signatures<'_> = entries
            .iter()
            .map(|e| (e.signature.name.as_str(), &e.signature))
            .collect();
        let index: ClassIndex<'_> = signatures
            .iter()
            .map(|(&name, signature)| (name, &***signature))
            .collect();
        let mut messages = BTreeSet::new();
        for (entry, fresh) in entries.iter().zip(&mut fresh) {
            let context: Box<[bool]> = entry.casts.iter().map(|t| is_interface(t)).collect();
            let hit = find(&lock(&entry.checks), &context, &signatures);
            let check = hit.unwrap_or_else(|| {
                let bodies = fresh.take().unwrap_or_else(|| {
                    let source =
                        decompile_class_with(&entry.handle, &self.bugs, &mut |t| is_interface(t));
                    source.into_signature().1
                });
                let bodies: Vec<&[Stmt]> = bodies.iter().map(Vec::as_slice).collect();
                let checked = check_class(&index, &entry.signature, &bodies);
                let check = Check {
                    found: (checked.found.iter())
                        .map(|&name| Arc::clone(signatures[name]))
                        .collect(),
                    missing: checked.missing.into_iter().map(Box::from).collect(),
                    messages: checked.diags.iter().map(ToString::to_string).collect(),
                };
                let mut checks = lock(&entry.checks);
                find(&checks, &context, &signatures).unwrap_or_else(|| {
                    let check = Arc::new(check);
                    checks.entry(context).or_default().push(Arc::clone(&check));
                    check
                })
            });
            messages.extend(check.messages.iter().cloned());
        }
        messages
    }

    /// The memo entry of `handle`, and the class's method bodies when this
    /// call had to decompile it.
    fn entry(
        &self,
        handle: &Arc<ClassFile>,
        is_interface: &dyn Fn(&str) -> bool,
    ) -> (Arc<ClassEntry>, Option<Bodies>) {
        let key = Arc::as_ptr(handle) as usize;
        if let Some(entry) = lock(&self.classes).get(&key) {
            return (Arc::clone(entry), None);
        }
        let mut casts: Vec<Box<str>> = Vec::new();
        let source = decompile_class_with(handle, &self.bugs, &mut |target| {
            if !casts.iter().any(|c| **c == *target) {
                casts.push(target.into());
            }
            is_interface(target)
        });
        let (signature, bodies) = source.into_signature();
        let entry = Arc::new(ClassEntry {
            handle: Arc::clone(handle),
            signature: self.intern(signature),
            casts: casts.into(),
            checks: Mutex::default(),
        });
        let entry = Arc::clone(lock(&self.classes).entry(key).or_insert(entry));
        (entry, Some(bodies))
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

/// A recorded check for `context` that still holds under `signatures`.
fn find(checks: &Checks, context: &[bool], signatures: &Signatures<'_>) -> Option<Arc<Check>> {
    let recorded = checks.get(context)?;
    recorded.iter().find(|c| c.holds(signatures)).cloned()
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
