//! The item-level program reducer (the bytecode analog of Figure 5).
//!
//! A reduced class depends only on the keep-set's bits over the items its
//! class owns, and [`ItemRegistry::from_program`] gives those items one
//! contiguous variable range per class. [`ClassPlan`] holds each member's
//! variable, as the model's item index resolved it; [`Materializer`]
//! memoizes every reduced class and its exact byte size by (class, bits
//! over its range), so the probes of one reduction, which keep re-deriving
//! the same few class shapes, rebuild only the shapes they have not seen.
//! A new shape's size is a sum over the members it keeps, from its class's
//! [`SizePlan`], made once per model: no probe interns a constant pool.
//! Every candidate carries the reduction's scope (see [`Program::scoped`]),
//! so the oracle can memoize per reduction too.

use crate::item::{ClassVars, ItemIndex, ItemRegistry};
use crate::write::{Part, SizePlan};
use crate::{ClassFile, Code, MethodInfo, Program, OBJECT};
use lbr_core::Scope;
use lbr_logic::{Var, VarSet};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

/// Applies a solution: keeps exactly the items in `keep` (plus built-ins),
/// rewiring removed relations and stubbing removed bodies. `reg` must be
/// `program`'s registry, which numbers the variables of `keep`.
///
/// If `keep` satisfies the dependency model of
/// [`LogicalModel`](crate::LogicalModel), the result verifies — the
/// bytecode analog of Theorem 3.1, property-tested in this crate.
///
/// This is the memo-free reference for the reduction materializer behind
/// [`Input::model`](lbr_core::Input::model), which runs the same plans.
pub fn reduce_program(program: &Program, reg: &ItemRegistry, keep: &VarSet) -> Program {
    let index = ItemIndex::new(program);
    debug_assert_eq!(
        index.len(),
        reg.len(),
        "`reg` is not the program's registry"
    );
    let mut out = Program::new();
    for plan in ClassPlan::all(program, index) {
        if plan.kept(keep) {
            out.insert(plan.reduce(keep));
        }
    }
    out
}

/// One class's reduction with every item resolved to its variable.
///
/// A reduced class shares its kept bodies with the input (a body is an
/// `Arc<Code>`), and every shape that stubs a method shares the plan's one
/// stub for it, so the oracle's per-body memo meets each body once.
struct ClassPlan<'p> {
    name: Arc<str>,
    class: &'p ClassFile,
    vars: ClassVars,
    /// The stub a dropped body leaves, per method; `None` for a method
    /// without a body item.
    stubs: Box<[Option<Arc<Code>>]>,
    /// The variables the plan reads lie in this range: the memo key.
    span: Range<usize>,
}

impl<'p> ClassPlan<'p> {
    fn all(program: &'p Program, index: ItemIndex<'_>) -> Vec<Self> {
        (program.shared_classes().zip(index.into_classes()))
            .map(|((name, class), vars)| Self::new(name, class, vars))
            .collect()
    }

    fn new(name: &Arc<str>, class: &'p ClassFile, vars: ClassVars) -> Self {
        let stubs = (class.methods.iter().zip(&vars.methods))
            .map(|(m, &(_, body))| body.map(|_| Arc::new(Code::trivial(locals_for(m)))))
            .collect();
        let mut plan = ClassPlan {
            name: Arc::clone(name),
            class,
            vars,
            stubs,
            span: 0..0,
        };
        let lo = plan.read_vars().map(Var::index).min();
        let hi = plan.read_vars().map(Var::index).max();
        if let (Some(lo), Some(hi)) = (lo, hi) {
            plan.span = lo..hi + 1;
        }
        plan
    }

    fn read_vars(&self) -> impl Iterator<Item = Var> + '_ {
        let v = &self.vars;
        let methods = v
            .methods
            .iter()
            .flat_map(|&(decl, body)| [Some(decl), body]);
        [Some(v.var), v.superclass]
            .into_iter()
            .chain(v.interfaces.iter().copied().map(Some))
            .chain(v.fields.iter().copied().map(Some))
            .chain(methods)
            .flatten()
    }

    /// Whether the class itself survives `keep`.
    fn kept(&self, keep: &VarSet) -> bool {
        keep.contains(self.vars.var)
    }

    /// The keep-set's bits over [`ClassPlan::span`], packed into `key`.
    fn key(&self, keep: &VarSet, key: &mut Vec<u64>) {
        key.clear();
        key.resize(self.span.len().div_ceil(64), 0);
        for (bit, i) in self.span.clone().enumerate() {
            if keep.contains(Var::new(i as u32)) {
                key[bit / 64] |= 1 << (bit % 64);
            }
        }
    }

    /// Whether `part` of the class survives `keep`.
    fn keeps(&self, part: Part, keep: &VarSet) -> bool {
        let v = &self.vars;
        match part {
            Part::Superclass => kept(v.superclass, keep),
            Part::Interface(i) => keep.contains(v.interfaces[i]),
            Part::Field(i) => keep.contains(v.fields[i]),
            Part::Method(i) => keep.contains(v.methods[i].0),
            Part::Body(i) => kept(v.methods[i].1, keep),
        }
    }

    /// The class with the items outside `keep` removed.
    fn reduce(&self, keep: &VarSet) -> ClassFile {
        let class = self.class;
        let keeps = |part| self.keeps(part, keep);
        let superclass = if keeps(Part::Superclass) {
            class.superclass.clone()
        } else {
            Some(OBJECT.to_owned())
        };
        let interfaces = (class.interfaces.iter().enumerate())
            .filter(|&(i, _)| keeps(Part::Interface(i)))
            .map(|(_, iface)| iface.clone())
            .collect();
        let fields = (class.fields.iter().enumerate())
            .filter(|&(i, _)| keeps(Part::Field(i)))
            .map(|(_, f)| f.clone())
            .collect();
        let methods = (class.methods.iter().enumerate())
            .filter(|&(i, _)| keeps(Part::Method(i)))
            .map(|(i, m)| {
                let mut m = m.clone();
                if !keeps(Part::Body(i)) {
                    m.code.clone_from(&self.stubs[i]);
                }
                m
            })
            .collect();
        ClassFile {
            name: class.name.clone(),
            flags: class.flags,
            superclass,
            interfaces,
            fields,
            methods,
        }
    }
}

/// Whether an optional item survives `keep`; an absent one always does.
fn kept(var: Option<Var>, keep: &VarSet) -> bool {
    var.is_none_or(|v| keep.contains(v))
}

fn locals_for(m: &MethodInfo) -> u16 {
    let this = u16::from(!m.flags.is_static());
    this + m.desc.params.len() as u16
}

/// A reduced class and its exact [`class_byte_size`](crate::class_byte_size).
type Reduced = (Arc<ClassFile>, usize);

/// The memoizing keep-set → program map of one reduction.
///
/// Safe to call from concurrent probe threads: each class's memo is its
/// own lock, and a class is built outside it (two threads racing on one
/// new shape both build it; the first insert wins, so every program
/// shares one copy).
pub(crate) struct Materializer<'p> {
    plans: Vec<ClassPlan<'p>>,
    /// Each class's size by member, in plan order.
    sizes: Vec<SizePlan>,
    memo: Vec<Mutex<HashMap<Box<[u64]>, Reduced>>>,
    /// The reduction scope stamped on every candidate.
    scope: Arc<Scope>,
}

impl<'p> Materializer<'p> {
    pub(crate) fn new(program: &'p Program, index: ItemIndex<'_>) -> Self {
        let plans = ClassPlan::all(program, index);
        let sizes = plans.iter().map(|plan| SizePlan::new(plan.class)).collect();
        let memo = plans.iter().map(|_| Mutex::default()).collect();
        Materializer {
            plans,
            sizes,
            memo,
            scope: Arc::default(),
        }
    }

    /// `program_byte_size` of the program the plans are of.
    pub(crate) fn full_size(&self) -> usize {
        self.sizes.iter().map(|plan| plan.size(|_| true)).sum()
    }

    /// `reduce_program(program, reg, keep)`, with its byte size cached.
    pub(crate) fn materialize(&self, keep: &VarSet) -> Program {
        let mut key = Vec::new();
        let mut total = 0;
        let mut classes = Vec::new();
        for ((plan, sizes), memo) in self.plans.iter().zip(&self.sizes).zip(&self.memo) {
            if !plan.kept(keep) {
                continue;
            }
            plan.key(keep, &mut key);
            let lock = || memo.lock().unwrap_or_else(PoisonError::into_inner);
            let hit = lock().get(&key[..]).cloned();
            let (class, size) = hit.unwrap_or_else(|| {
                let class = plan.reduce(keep);
                let size = sizes.size(|part| plan.keeps(part, keep));
                lock()
                    .entry(key.as_slice().into())
                    .or_insert((Arc::new(class), size))
                    .clone()
            });
            total += size;
            classes.push((Arc::clone(&plan.name), class));
        }
        Program::from_shared(classes, total, &self.scope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{write_program, FieldInfo, Insn, Item, MethodDescriptor, MethodInfo, Type};

    fn sample() -> (Program, ItemRegistry) {
        let mut i = ClassFile::new_interface("I");
        i.methods
            .push(MethodInfo::new_abstract("m", MethodDescriptor::void()));
        let mut a = ClassFile::new_class("A");
        a.interfaces.push("I".into());
        a.fields.push(FieldInfo::new("f", Type::Int));
        a.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        a.methods.push(MethodInfo::new(
            "m",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        let mut b = ClassFile::new_class("B");
        b.superclass = Some("A".into());
        b.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        let p: Program = [i, a, b].into_iter().collect();
        let reg = ItemRegistry::from_program(&p);
        (p, reg)
    }

    fn keep_all_except(reg: &ItemRegistry, drop: &[Item]) -> VarSet {
        let mut s = VarSet::full(reg.len());
        for d in drop {
            s.remove(reg.var(d).expect("registered item"));
        }
        s
    }

    #[test]
    fn keep_all_is_identity() {
        let (p, reg) = sample();
        let r = reduce_program(&p, &reg, &VarSet::full(reg.len()));
        assert_eq!(r, p);
    }

    #[test]
    fn drop_class_removes_it() {
        let (p, reg) = sample();
        let keep = keep_all_except(
            &reg,
            &[
                Item::Class("B".into()),
                Item::SuperClass("B".into(), "A".into()),
                Item::Constructor("B".into(), "()V".into()),
                Item::ConstructorCode("B".into(), "()V".into()),
            ],
        );
        let r = reduce_program(&p, &reg, &keep);
        assert!(r.get("B").is_none());
        assert!(r.get("A").is_some());
    }

    #[test]
    fn drop_superclass_rewires_to_object() {
        let (p, reg) = sample();
        let keep = keep_all_except(&reg, &[Item::SuperClass("B".into(), "A".into())]);
        let r = reduce_program(&p, &reg, &keep);
        assert_eq!(r.get("B").unwrap().superclass.as_deref(), Some(OBJECT));
    }

    #[test]
    fn drop_implements_removes_relation() {
        let (p, reg) = sample();
        let keep = keep_all_except(&reg, &[Item::Implements("A".into(), "I".into())]);
        let r = reduce_program(&p, &reg, &keep);
        assert!(r.get("A").unwrap().interfaces.is_empty());
        assert!(r.get("I").is_some());
    }

    #[test]
    fn drop_method_code_stubs_body() {
        let (p, reg) = sample();
        let keep = keep_all_except(
            &reg,
            &[Item::MethodCode("A".into(), "m".into(), "()V".into())],
        );
        let r = reduce_program(&p, &reg, &keep);
        let m = r
            .get("A")
            .unwrap()
            .method("m", &MethodDescriptor::void())
            .unwrap();
        assert_eq!(
            m.code.as_ref().unwrap().insns,
            vec![Insn::AConstNull, Insn::AThrow]
        );
    }

    #[test]
    fn drop_method_removes_it() {
        let (p, reg) = sample();
        let keep = keep_all_except(
            &reg,
            &[
                Item::Method("A".into(), "m".into(), "()V".into()),
                Item::MethodCode("A".into(), "m".into(), "()V".into()),
                Item::Implements("A".into(), "I".into()), // keep valid
            ],
        );
        let r = reduce_program(&p, &reg, &keep);
        assert!(r
            .get("A")
            .unwrap()
            .method("m", &MethodDescriptor::void())
            .is_none());
    }

    #[test]
    fn drop_field_and_signature() {
        let (p, reg) = sample();
        let keep = keep_all_except(
            &reg,
            &[
                Item::Field("A".into(), "f".into()),
                Item::Signature("I".into(), "m".into(), "()V".into()),
            ],
        );
        let r = reduce_program(&p, &reg, &keep);
        assert!(r.get("A").unwrap().fields.is_empty());
        assert!(r.get("I").unwrap().methods.is_empty());
    }

    /// `program` with every body copied out of its shared handle.
    fn deep_copy(program: &Program) -> Program {
        let copy = |class: &ClassFile| {
            let mut class = class.clone();
            for m in &mut class.methods {
                m.code = m.code.as_deref().cloned().map(Arc::new);
            }
            class
        };
        program.classes().map(copy).collect()
    }

    #[test]
    fn kept_bodies_and_stubs_are_shared_handles() {
        let (p, reg) = sample();
        let materializer = Materializer::new(&p, ItemIndex::new(&p));
        let mut stubs: HashMap<(String, String), Arc<Code>> = HashMap::new();
        let mut stubbed = 0;
        // Every keep-set over the sample's items.
        let n = reg.len();
        assert!(n < 16, "{n} items");
        for bits in 0..1u32 << n {
            let keep = VarSet::from_iter_with_universe(
                n,
                (0..n as u32).filter(|i| bits & 1 << i != 0).map(Var::new),
            );
            let reduced = reduce_program(&p, &reg, &keep);
            let candidate = materializer.materialize(&keep);
            assert_eq!(candidate, reduced);
            // Sharing changes no byte.
            let bytes = write_program(&reduced);
            assert_eq!(bytes, write_program(&deep_copy(&reduced)));
            assert_eq!(bytes, write_program(&candidate));
            for class in candidate.classes() {
                let input = p.get(&class.name).expect("an input class");
                for m in &class.methods {
                    let Some(code) = &m.code else { continue };
                    let original = input.method(&m.name, &m.desc).expect("an input method");
                    let original = original.code.as_ref().expect("an input body");
                    if Arc::ptr_eq(code, original) {
                        continue;
                    }
                    // Not the input's body: the method's one stub.
                    assert_eq!(code.insns, vec![Insn::AConstNull, Insn::AThrow]);
                    let key = (class.name.clone(), m.name.clone());
                    let stub = stubs.entry(key).or_insert_with(|| Arc::clone(code));
                    assert!(
                        Arc::ptr_eq(code, stub),
                        "{}.{}: a second stub",
                        class.name,
                        m.name
                    );
                    stubbed += 1;
                }
            }
        }
        // Three bodies, each stubbed by some shapes.
        assert_eq!(stubs.len(), 3);
        assert!(stubbed > 3 * stubs.len());
        let distinct: Vec<&Arc<Code>> = stubs.values().collect();
        assert!(!Arc::ptr_eq(distinct[0], distinct[1]) && !Arc::ptr_eq(distinct[1], distinct[2]));
    }

    #[test]
    fn ctor_code_stub_preserves_arity() {
        let mut a = ClassFile::new_class("A");
        a.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::new(vec![Type::Int, Type::Int], None),
            Code::new(1, 3, vec![Insn::Return]),
        ));
        let p: Program = [a].into_iter().collect();
        let reg = ItemRegistry::from_program(&p);
        let keep = keep_all_except(&reg, &[Item::ConstructorCode("A".into(), "(II)V".into())]);
        let r = reduce_program(&p, &reg, &keep);
        let ctor = &r.get("A").unwrap().methods[0];
        assert_eq!(ctor.desc.params.len(), 2);
        assert_eq!(ctor.code.as_ref().unwrap().max_locals, 3);
    }
}
