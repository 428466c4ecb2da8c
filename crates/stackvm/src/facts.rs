//! The oracle's per-reduction memo: scan each function body once, and
//! fold per-function facts on every probe.
//!
//! [`StackBugSet::error_messages`] scans every body on every probe, and its
//! two pair bugs cost more than one scan: `GlobalAliasConfusion` scans
//! every body twice per global, and `CrossCallInliner` looks each callee
//! up by name. Yet the candidates of one reduction share their function
//! handles (the materializer reuses every kept function and one stub per
//! function), and every bug is decided by facts of single bodies:
//!
//! * whether a body has `call_indirect`, a negative constant, a backward
//!   branch, or `Mul`;
//! * the globals a body reads and writes, and the functions it calls.
//!
//! So the memo keeps one [`Facts`] record per function handle, with names
//! interned to ids of the memo, and a probe folds the records of its
//! functions over flat per-id flags in O(functions + globals). A global
//! aliases when its id is both read and written; a call fires the inliner
//! bug when the *first* function of the callee's name multiplies, the
//! function [`Module::function`] finds. Facts do not depend on the bug
//! set, so one memo serves every oracle that probes the scope. A body's
//! own messages are formatted once, when it is scanned, and a pair
//! message only when it fires.
//!
//! Locking follows the materializer: look up under the lock, scan misses
//! outside it, first insert wins. A record is a pure function of its
//! handle, so the thread that wins changes nothing observable.

use crate::bugs::{StackBugKind, StackBugSet};
use crate::module::{Function, Module, Op};
use lbr_core::AddressMap;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The oracle memo of one reduction scope.
#[derive(Default)]
pub(crate) struct FactsMemo {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    /// Keyed by the handle's address; the record holds the handle, so no
    /// other function can take that address while the record lives, and
    /// `Arc::make_mut` on a candidate copies instead of editing it.
    functions: AddressMap<Arc<Facts>>,
    /// Every function and global name seen, by id.
    names: HashMap<Box<str>, u32>,
}

/// What the bug catalog asks of one function.
struct Facts {
    handle: Arc<Function>,
    /// The id of the function's own name.
    name: u32,
    /// The message of each single-body bug the body has.
    messages: Box<[(StackBugKind, String)]>,
    mul: bool,
    /// The ids of the globals the body reads, of those it writes, and of
    /// the functions it calls, each without repeats.
    reads: Box<[u32]>,
    writes: Box<[u32]>,
    callees: Box<[u32]>,
}

/// A function's facts before its names are interned: what a miss scans
/// outside the lock.
struct Scan<'f> {
    messages: Vec<(StackBugKind, String)>,
    mul: bool,
    reads: Vec<&'f str>,
    writes: Vec<&'f str>,
    callees: Vec<&'f str>,
}

impl<'f> Scan<'f> {
    fn of(function: &'f Function) -> Self {
        let (mut call_indirect, mut negative_constant, mut backward_branch) = (false, false, false);
        let mut mul = false;
        let (mut reads, mut writes, mut callees) = (Vec::new(), Vec::new(), Vec::new());
        for (pc, op) in function.body.iter().enumerate() {
            match op {
                Op::CallIndirect(_) => call_indirect = true,
                Op::PushInt(v) if *v < 0 => negative_constant = true,
                Op::Jump(t) | Op::JumpIf(t) if *t as usize <= pc => backward_branch = true,
                Op::Mul => mul = true,
                Op::GlobalGet(name) => reads.push(name.as_str()),
                Op::GlobalSet(name) => writes.push(name.as_str()),
                Op::Call(name) => callees.push(name.as_str()),
                _ => {}
            }
        }
        let single = [
            (
                call_indirect,
                StackBugKind::IndirectDispatchMiscompile,
                "corrupt dispatch table lowering",
            ),
            (
                negative_constant,
                StackBugKind::NegativeConstantLowering,
                "sign lost lowering constant in",
            ),
            (
                backward_branch,
                StackBugKind::LoopUnrollOverflow,
                "loop unroll overflow in",
            ),
        ];
        let name = &function.name;
        let messages = (single.into_iter())
            .filter(|&(has, _, _)| has)
            .map(|(_, kind, what)| (kind, format!("error: {what} `{name}`")))
            .collect();
        Scan {
            messages,
            mul,
            reads,
            writes,
            callees,
        }
    }
}

/// Per-id flags of one probe.
const READ: u8 = 1;
const WRITTEN: u8 = 2;

/// No function of the probe has this name.
const ABSENT: u32 = u32::MAX;

impl FactsMemo {
    /// `bugs.error_messages(module)`, reusing the scan of every function
    /// handle an earlier probe of the reduction already saw.
    pub(crate) fn errors(&self, bugs: &StackBugSet, module: &Module) -> BTreeSet<String> {
        let mut inner = lock(&self.inner);
        let mut facts: Vec<Option<Arc<Facts>>> = (module.functions.iter())
            .map(|f| inner.functions.get(&key(f)).cloned())
            .collect();
        if facts.iter().any(Option::is_none) {
            drop(inner);
            let scans: Vec<Scan<'_>> = (facts.iter().zip(&module.functions))
                .filter(|(hit, _)| hit.is_none())
                .map(|(_, f)| Scan::of(f))
                .collect();
            inner = lock(&self.inner);
            let misses = (facts.iter_mut().zip(&module.functions)).filter(|(hit, _)| hit.is_none());
            for ((slot, handle), scan) in misses.zip(scans) {
                *slot = Some(inner.insert(handle, scan));
            }
        }
        let globals: Vec<u32> = (module.globals.iter())
            .map(|g| inner.names.get(g.name.as_str()).copied().unwrap_or(ABSENT))
            .collect();
        let ids = inner.names.len();
        drop(inner);
        let facts: Vec<Arc<Facts>> = facts.into_iter().flatten().collect();
        fold(bugs, module, &facts, &globals, ids)
    }
}

impl Inner {
    /// The record of `handle`: the one already there, or `scan`'s.
    fn insert(&mut self, handle: &Arc<Function>, scan: Scan<'_>) -> Arc<Facts> {
        let Inner { functions, names } = self;
        let facts = functions.entry(key(handle)).or_insert_with(|| {
            let mut intern = |name: &str| {
                let next = names.len() as u32;
                *names.entry(name.into()).or_insert(next)
            };
            let mut ids = |found: Vec<&str>| {
                let mut ids: Vec<u32> = found.into_iter().map(&mut intern).collect();
                ids.sort_unstable();
                ids.dedup();
                ids.into_boxed_slice()
            };
            let (reads, writes, callees) = (ids(scan.reads), ids(scan.writes), ids(scan.callees));
            Arc::new(Facts {
                handle: Arc::clone(handle),
                name: intern(&handle.name),
                messages: scan.messages.into_boxed_slice(),
                mul: scan.mul,
                reads,
                writes,
                callees,
            })
        });
        Arc::clone(facts)
    }
}

/// The messages `bugs` gives on the module whose functions have `facts`
/// and whose globals have the name ids `globals`, over `ids` name ids.
fn fold(
    bugs: &StackBugSet,
    module: &Module,
    facts: &[Arc<Facts>],
    globals: &[u32],
    ids: usize,
) -> BTreeSet<String> {
    let mut errors = BTreeSet::new();
    for f in facts {
        for (kind, message) in f.messages.iter() {
            if bugs.has(*kind) {
                errors.insert(message.clone());
            }
        }
    }
    if bugs.has(StackBugKind::GlobalAliasConfusion) {
        let mut flags = vec![0u8; ids];
        for f in facts {
            for &id in f.reads.iter() {
                flags[id as usize] |= READ;
            }
            for &id in f.writes.iter() {
                flags[id as usize] |= WRITTEN;
            }
        }
        for (g, &id) in module.globals.iter().zip(globals) {
            if id != ABSENT && flags[id as usize] == READ | WRITTEN {
                errors.insert(format!("error: register aliasing on global `{}`", g.name));
            }
        }
    }
    if bugs.has(StackBugKind::CrossCallInliner) {
        // The first function of each name, as `Module::function` finds it.
        let mut first = vec![ABSENT; ids];
        for (i, f) in facts.iter().enumerate().rev() {
            first[f.name as usize] = i as u32;
        }
        for f in facts {
            for &callee in f.callees.iter() {
                let Some(g) = facts.get(first[callee as usize] as usize) else {
                    continue;
                };
                if g.mul {
                    errors.insert(format!(
                        "error: inliner overflow in `{}` calling `{}`",
                        f.handle.name, g.handle.name
                    ));
                }
            }
        }
    }
    errors
}

/// The memo key of a function handle: its address.
pub(crate) fn key(handle: &Arc<Function>) -> usize {
    Arc::as_ptr(handle) as usize
}

pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
