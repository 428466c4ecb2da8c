//! Logical dependency-model generation for bytecode programs.
//!
//! This is the bytecode-scale version of the FJI constraint generator
//! (Section 3 of the paper): every verification fact becomes a constraint
//! over the item variables, so that *every satisfying assignment reduces
//! to a program that still verifies*.
//!
//! Three constraint families:
//!
//! * **Syntactic** — members imply their owners, code implies its method,
//!   relations imply their endpoints, descriptors imply their classes, and
//!   every kept class keeps at least one constructor.
//! * **Referential** — replaying the verifier over each body through
//!   [`VerifyHooks`]: member resolutions pin the declaring item plus the
//!   hierarchy steps walked; receiver/argument/return subtyping pins its
//!   derivation path; `new` pins the class; reflection (`ldc C.class`)
//!   uses the paper's generics approximation and pins *every* supertype
//!   relation of `C`.
//! * **Non-referential** — virtual dispatch becomes an `mAny` disjunction
//!   ("some method of this name must remain reachable"), and interface /
//!   abstract-method obligations become `(class ∧ path ∧ signature) ⇒
//!   implAny` constraints, which need full propositional logic.
//!
//! The constraints are written as clauses straight into the [`Cnf`],
//! class by class in program order, through one [`ItemIndex`] per build.
//! The two non-Horn shapes are a [`Requirement`]: a conjunction of
//! positive clauses, whose disjunction is the ordered product of its
//! parts. An unregistered item (a built-in such as `Object`) is true, and
//! an empty disjunction is false.

use crate::item::{ClassVars, ItemIndex, ItemRegistry, Member};
use crate::program::Edge;
use crate::{
    verify_method_code, ClassFile, FieldRef, InvokeKind, MethodDescriptor, MethodRef, Program,
    Resolution, Step, VerifyError, VerifyHooks,
};
use lbr_core::ModelStats;
use lbr_logic::{Clause, Cnf, Lit, Var};
use std::collections::HashMap;

/// The most derivation paths from a class to one abstract source that get
/// an obligation clause each. Past it, one path-free clause
/// `class ∧ signature ⇒ implAny` stands for all of them: it implies every
/// per-path clause, so the model stays sound and forbids more.
const PATH_CAP: usize = 16;

/// A generated dependency model.
#[derive(Debug, Clone)]
pub struct LogicalModel {
    /// The item ↔ variable mapping.
    pub registry: ItemRegistry,
    /// The dependency constraints in CNF.
    pub cnf: Cnf,
}

impl LogicalModel {
    /// Handy statistics for reports (the paper's "2.9k reducible items,
    /// 8.7k clauses, 97.5% edges").
    pub fn stats(&self) -> ModelStats {
        model_stats(self.registry.len(), &self.cnf)
    }
}

/// The statistics of a model of `items` items.
pub(crate) fn model_stats(items: usize, cnf: &Cnf) -> ModelStats {
    ModelStats {
        items,
        clauses: cnf.len(),
        graph_fraction: cnf.graph_fraction(),
    }
}

/// An error during model generation: the input program does not verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError {
    /// The verification failure that stopped generation.
    pub cause: VerifyError,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "input does not verify: {}", self.cause)
    }
}

impl std::error::Error for ModelError {}

impl From<ModelError> for lbr_core::PipelineError {
    fn from(e: ModelError) -> Self {
        lbr_core::PipelineError::Model(e.to_string())
    }
}

/// Builds the logical dependency model of a (verifying) program.
///
/// # Errors
///
/// Returns [`ModelError`] if a method body fails verification — like the
/// paper, which dropped the benchmarks that did not type check.
pub fn build_model(program: &Program) -> Result<LogicalModel, ModelError> {
    let (registry, index) = ItemRegistry::indexed(program);
    let cnf = write_model(program, &index)?;
    Ok(LogicalModel { registry, cnf })
}

/// The model's clauses over the variables of `index`, `program`'s index.
pub(crate) fn write_model(program: &Program, index: &ItemIndex<'_>) -> Result<Cnf, ModelError> {
    let mut writer = Writer {
        program,
        index,
        cnf: Cnf::new(index.len()),
        body: Requirement::default(),
        required: vec![0; index.len()],
        bodies: 0,
        many: HashMap::new(),
        desc: String::new(),
    };
    for (class, vars) in program.classes().zip(index.classes()) {
        writer.syntactic(class, vars);
        writer.code_constraints(class, vars)?;
        writer.obligations(class, vars);
    }
    let mut cnf = writer.cnf;
    cnf.dedup_clauses();
    Ok(cnf)
}

/// A conjunction of positive clauses over item variables: the CNF of a
/// formula built from items by `∧` and `∨`, such as a method body's
/// requirements, `mAny` or `implAny`. No clause and not `falsified` is
/// true.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Requirement {
    /// The clauses' variables, one clause after another.
    vars: Vec<Var>,
    /// Where each clause ends in `vars`.
    ends: Vec<usize>,
    /// Whether the conjunction holds a false part (an empty disjunction);
    /// it is then false whatever its clauses.
    falsified: bool,
}

impl Requirement {
    fn falsity() -> Self {
        Requirement {
            falsified: true,
            ..Requirement::default()
        }
    }

    fn clear(&mut self) {
        self.vars.clear();
        self.ends.clear();
        self.falsified = false;
    }

    fn is_true(&self) -> bool {
        !self.falsified && self.ends.is_empty()
    }

    fn clauses(&self) -> impl Iterator<Item = &[Var]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(s, &e)| &self.vars[s..e])
    }

    fn push_clause(&mut self, parts: &[&[Var]]) {
        for part in parts {
            self.vars.extend_from_slice(part);
        }
        self.ends.push(self.vars.len());
    }

    /// `self ∧ item`; an unregistered item is true.
    fn require(&mut self, item: Option<Var>) {
        if let Some(v) = item {
            self.push_clause(&[&[v]]);
        }
    }

    /// `self ∧ other`.
    fn and(&mut self, other: &Requirement) {
        self.falsified |= other.falsified;
        for c in other.clauses() {
            self.push_clause(&[c]);
        }
    }

    /// The disjunction of `parts`: true if a part is true, false if no
    /// part is left after dropping the false ones, else the product of
    /// the parts' clauses (earlier parts vary slowest).
    fn any(parts: Vec<Requirement>) -> Requirement {
        let mut live = parts.into_iter().filter(|p| !p.falsified);
        let Some(first) = live.next() else {
            return Requirement::falsity();
        };
        let mut acc = first;
        for part in live {
            if acc.is_true() || part.is_true() {
                return Requirement::default();
            }
            let mut next = Requirement::default();
            for base in acc.clauses() {
                for c in part.clauses() {
                    next.push_clause(&[base, c]);
                }
            }
            acc = next;
        }
        acc
    }

    /// Writes `(∧ ante) ⇒ self` into `cnf`: one clause per clause of
    /// `self`, or the clause `¬ante` alone when `self` is false.
    fn implied_by(&self, ante: &[Var], cnf: &mut Cnf) {
        let negated = ante.iter().map(|&v| Lit::neg(v));
        if self.falsified {
            cnf.add_clause(Clause::new(negated.collect()));
            return;
        }
        for c in self.clauses() {
            let lits = negated.clone().chain(c.iter().map(|&v| Lit::pos(v)));
            cnf.add_clause(Clause::new(lits.collect()));
        }
    }
}

struct Writer<'a, 'p> {
    program: &'p Program,
    index: &'a ItemIndex<'p>,
    cnf: Cnf,
    /// The requirements of the body being replayed.
    body: Requirement,
    /// Per variable, the number of the last body that required it alone,
    /// so a body writes each such clause once (the final dedup would drop
    /// the repeats anyway).
    required: Vec<u32>,
    /// The number of bodies replayed so far.
    bodies: u32,
    /// The `mAny`s computed so far, by the type's item.
    many: HashMap<Var, Vec<Many>>,
    /// A descriptor buffer for member lookups.
    desc: String,
}

/// One `mAny(T, m, d)` of this build (it depends on nothing else).
struct Many {
    name: String,
    desc: MethodDescriptor,
    any: Requirement,
}

impl Writer<'_, '_> {
    /// `from ⇒ to`; an unregistered `to` is true.
    fn edge(&mut self, from: Var, to: Option<Var>) {
        if let Some(to) = to {
            self.cnf.add_clause(Clause::edge(from, to));
        }
    }

    // ------------------------------------------------------------------
    // Syntactic constraints.
    // ------------------------------------------------------------------
    fn syntactic(&mut self, class: &ClassFile, vars: &ClassVars) {
        let index = self.index;
        let c = Some(vars.var);
        if let (Some(sup), Some(rel)) = (&class.superclass, vars.superclass) {
            self.edge(rel, c);
            self.edge(rel, index.ty(sup));
        }
        for (iface, &rel) in class.interfaces.iter().zip(&vars.interfaces) {
            self.edge(rel, c);
            self.edge(rel, index.ty(iface));
        }
        if !class.is_interface() {
            // A kept class keeps at least one constructor.
            let ctors: Vec<Var> = (class.methods.iter().zip(&vars.methods))
                .filter(|(m, _)| m.is_init())
                .map(|(_, &(decl, _))| decl)
                .collect();
            if !ctors.is_empty() {
                self.cnf.add_clause(Clause::implication([vars.var], ctors));
            }
        }
        for (field, &fv) in class.fields.iter().zip(&vars.fields) {
            self.edge(fv, c);
            if let Some(t) = field.ty.class_name() {
                self.edge(fv, index.ty(t));
            }
        }
        for (m, &(decl, body)) in class.methods.iter().zip(&vars.methods) {
            self.edge(decl, c);
            for t in m.desc.referenced_classes() {
                self.edge(decl, index.ty(t));
            }
            if let Some(body) = body {
                self.edge(body, Some(decl));
            }
        }
    }

    // ------------------------------------------------------------------
    // Referential constraints (replay the verifier over each body).
    // ------------------------------------------------------------------
    fn code_constraints(&mut self, class: &ClassFile, vars: &ClassVars) -> Result<(), ModelError> {
        for (m, &(_, body)) in class.methods.iter().zip(&vars.methods) {
            let Some(code) = &m.code else { continue };
            self.body.clear();
            self.bodies += 1;
            let mut hooks = Collector {
                program: self.program,
                index: self.index,
                body: &mut self.body,
                required: &mut self.required,
                stamp: self.bodies,
                many: &mut self.many,
                desc: &mut self.desc,
            };
            verify_method_code(self.program, class, m, code, &mut hooks)
                .map_err(|cause| ModelError { cause })?;
            let body = body.expect("a method with code has a body item");
            self.body.implied_by(&[body], &mut self.cnf);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Non-referential constraints: interface / abstract obligations.
    // ------------------------------------------------------------------
    fn obligations(&mut self, class: &ClassFile, vars: &ClassVars) {
        if !class.is_instantiable() {
            return;
        }
        let (program, index) = (self.program, self.index);
        // Every supertype that declares abstract methods.
        let mut sources = program.superclass_chain(&class.name);
        sources.extend(program.interface_names(&class.name));
        sources.sort();
        sources.dedup();
        let mut ante = Vec::new();
        for source in &sources {
            let Some(decl) = program.get(source) else {
                continue;
            };
            if !decl.methods.iter().any(|m| m.flags.is_abstract()) {
                continue;
            }
            let mut paths = Vec::new();
            supertype_paths_with(program, &class.name, source, PATH_CAP + 1, &mut |path| {
                let steps = path
                    .iter()
                    .map(|&(edge, sub, sup)| index.relation(edge, sub, sup));
                paths.push(steps.flatten().collect::<Vec<Var>>());
            });
            if paths.len() > PATH_CAP {
                paths = vec![Vec::new()];
            }
            for m in decl.methods.iter().filter(|m| m.flags.is_abstract()) {
                self.desc.clear();
                m.desc.write_descriptor(&mut self.desc);
                let sig = index.member(Member::Signature, source, &m.name, &self.desc);
                let impl_any = self.impl_any(&class.name, &m.name, &m.desc);
                for path in &paths {
                    ante.clear();
                    ante.push(vars.var);
                    ante.extend_from_slice(path);
                    ante.extend(sig);
                    impl_any.implied_by(&ante, &mut self.cnf);
                }
            }
        }
    }

    /// `implAny(C, m, d)`: some *concrete* method `m` remains reachable on
    /// `C`'s superclass chain. `self.desc` holds `d`'s descriptor.
    fn impl_any(&self, class: &str, name: &str, desc: &MethodDescriptor) -> Requirement {
        let (program, index) = (self.program, self.index);
        let mut parts = Vec::new();
        let mut steps = Requirement::default();
        let mut cur = class;
        let mut guard = 0;
        while let Some(decl) = program.get(cur) {
            if let Some(m) = decl.method(name, desc) {
                if m.code.is_some() && !m.is_init() {
                    let mut part = steps.clone();
                    part.require(index.member(Member::Method, cur, name, &self.desc));
                    parts.push(part);
                }
            }
            let Some(sup) = &decl.superclass else { break };
            steps.require(index.relation(Edge::Extends, cur, sup));
            cur = sup;
            guard += 1;
            if guard > program.len() + 2 {
                break;
            }
        }
        Requirement::any(parts)
    }
}

/// One edge of a derivation path: its kind, the subtype, the supertype.
type PathEdge<'a> = (Edge, &'a str, &'a str);

/// Calls `visit` with each simple supertype derivation path from `from`
/// to `to`, as (edge, subtype, supertype) triples, depth first (the
/// superclass edge, then the interfaces in declaration order), up to
/// `cap` paths.
fn supertype_paths_with<'a>(
    program: &'a Program,
    from: &'a str,
    to: &str,
    cap: usize,
    visit: &mut dyn FnMut(&[PathEdge<'a>]),
) {
    struct Walk<'a, 'v> {
        program: &'a Program,
        to: &'v str,
        cap: usize,
        found: usize,
        path: Vec<PathEdge<'a>>,
        on_path: Vec<&'a str>,
        visit: &'v mut dyn FnMut(&[PathEdge<'a>]),
    }

    impl<'a> Walk<'a, '_> {
        fn from(&mut self, cur: &'a str) {
            if self.found >= self.cap {
                return;
            }
            if cur == self.to {
                self.found += 1;
                (self.visit)(&self.path);
                return;
            }
            if self.on_path.contains(&cur) {
                return;
            }
            self.on_path.push(cur);
            if let Some(decl) = self.program.get(cur) {
                if !decl.is_interface() {
                    if let Some(sup) = &decl.superclass {
                        self.step(Edge::Extends, cur, sup);
                    }
                }
                let edge = if decl.is_interface() {
                    Edge::IfaceExtends
                } else {
                    Edge::Implements
                };
                for iface in &decl.interfaces {
                    self.step(edge, cur, iface);
                }
            }
            self.on_path.pop();
        }

        fn step(&mut self, edge: Edge, sub: &'a str, sup: &'a str) {
            self.path.push((edge, sub, sup));
            self.from(sup);
            self.path.pop();
        }
    }

    Walk {
        program,
        to,
        cap,
        found: 0,
        path: Vec::new(),
        on_path: Vec::new(),
        visit,
    }
    .from(from);
}

/// Enumerates all simple supertype derivation paths from `from` to `to`,
/// up to `cap` paths.
pub fn supertype_paths<'a>(
    program: &'a Program,
    from: &'a str,
    to: &str,
    cap: usize,
) -> Vec<Vec<Step<'a>>> {
    let mut out = Vec::new();
    supertype_paths_with(program, from, to, cap, &mut |path| {
        let steps = path.iter().map(|&(edge, sub, sup)| edge.step(sub, sup));
        out.push(steps.collect());
    });
    out
}

/// The hook collector: adds each fact of one method body to its
/// requirements.
struct Collector<'w, 'p> {
    program: &'p Program,
    index: &'w ItemIndex<'p>,
    body: &'w mut Requirement,
    required: &'w mut [u32],
    /// This body's number in `required`.
    stamp: u32,
    many: &'w mut HashMap<Var, Vec<Many>>,
    desc: &'w mut String,
}

impl<'p> Collector<'_, 'p> {
    /// Adds `item` to the body's requirements, unless it already is one.
    fn require(&mut self, item: Option<Var>) {
        if let Some(v) = item {
            if std::mem::replace(&mut self.required[v.index()], self.stamp) != self.stamp {
                self.body.require(item);
            }
        }
    }

    fn steps(&mut self, steps: &[Step<'_>]) {
        for s in steps {
            self.require(self.index.step(s));
        }
    }

    /// Adds `mAny(T, m, d)` for the method `named` to the body: some
    /// method or signature `m` remains *resolvable* on `T` (concrete or
    /// abstract — resolution only needs existence). `self.desc` holds
    /// `d`'s descriptor.
    fn require_many(&mut self, named: &MethodRef) {
        let (ty, name, desc) = (&named.class, &named.name, &named.desc);
        let Some(t) = self.index.ty(ty) else {
            let any = self.many_from(ty, name, desc, &mut Vec::new());
            self.body.and(&any);
            return;
        };
        let mut known = self.many.get(&t).into_iter().flatten();
        if let Some(m) = known.find(|m| m.name == *name && m.desc == *desc) {
            self.body.and(&m.any);
            return;
        }
        let any = self.many_from(ty, name, desc, &mut Vec::new());
        self.body.and(&any);
        self.many.entry(t).or_default().push(Many {
            name: name.clone(),
            desc: desc.clone(),
            any,
        });
    }

    fn many_from<'a>(
        &self,
        ty: &'a str,
        name: &str,
        desc: &MethodDescriptor,
        visited: &mut Vec<&'a str>,
    ) -> Requirement
    where
        'p: 'a,
    {
        if visited.contains(&ty) {
            return Requirement::falsity();
        }
        visited.push(ty);
        let (program, index) = (self.program, self.index);
        let Some(decl) = program.get(ty) else {
            return Requirement::falsity();
        };
        let mut parts = Vec::new();
        if let Some(m) = decl.method(name, desc) {
            let mut part = Requirement::default();
            part.require(index.member(Member::of(m), ty, name, self.desc));
            parts.push(part);
        }
        let (superclass, edge) = if decl.is_interface() {
            (None, Edge::IfaceExtends)
        } else {
            (decl.superclass.as_deref(), Edge::Implements)
        };
        let supers = (superclass.map(|s| (Edge::Extends, s)).into_iter())
            .chain(decl.interfaces.iter().map(|i| (edge, i.as_str())));
        for (edge, sup) in supers {
            let above = self.many_from(sup, name, desc, visited);
            if above.falsified {
                continue; // `rel ∧ false` is a false part: `any` drops it
            }
            let mut part = Requirement::default();
            part.require(index.relation(edge, ty, sup));
            part.and(&above);
            parts.push(part);
        }
        Requirement::any(parts)
    }

    /// The paper's generics/reflection approximation: a body reflecting on
    /// `C` depends on every supertype relation of `C`.
    fn reflection(&mut self, class: &str) {
        let (program, index) = (self.program, self.index);
        self.require(index.ty(class));
        let mut stack = vec![class];
        let mut seen = vec![class];
        while let Some(cur) = stack.pop() {
            let Some(decl) = program.get(cur) else {
                continue;
            };
            let (superclass, edge) = if decl.is_interface() {
                (None, Edge::IfaceExtends)
            } else {
                (decl.superclass.as_deref(), Edge::Implements)
            };
            let supers = (superclass.map(|s| (Edge::Extends, s)).into_iter())
                .chain(decl.interfaces.iter().map(|i| (edge, i.as_str())));
            for (edge, sup) in supers {
                self.require(index.relation(edge, cur, sup));
                if !seen.contains(&sup) {
                    seen.push(sup);
                    stack.push(sup);
                }
            }
        }
    }
}

impl VerifyHooks for Collector<'_, '_> {
    fn on_subtype(&mut self, _sub: &str, _sup: &str, steps: &[Step<'_>]) {
        self.steps(steps);
    }

    fn on_field(&mut self, named: &FieldRef, resolution: &Resolution<'_>) {
        self.steps(&resolution.steps);
        let field = self.index.field(resolution.declaring, &named.name);
        self.require(field);
        if let Some(c) = named.ty.class_name() {
            self.require(self.index.ty(c));
        }
    }

    fn on_method(&mut self, named: &MethodRef, resolution: &Resolution<'_>, kind: InvokeKind) {
        let index = self.index;
        self.require(index.ty(&named.class));
        self.desc.clear();
        named.desc.write_descriptor(self.desc);
        match kind {
            InvokeKind::Virtual | InvokeKind::Interface => {
                // Dispatch needs *some* resolvable method: the mAny
                // disjunction, the constraint a dependency graph cannot
                // express.
                self.require_many(named);
            }
            InvokeKind::Special if named.is_init() => {
                let ctor = index.member(Member::Constructor, &named.class, &named.name, self.desc);
                self.require(ctor);
            }
            InvokeKind::Special | InvokeKind::Static => {
                // Exact resolution: pin the declaring item and the steps.
                self.steps(&resolution.steps);
                let target = (self.program.get(resolution.declaring))
                    .and_then(|c| c.method(&named.name, &named.desc));
                let kind = match target {
                    Some(m) if m.code.is_some() => Member::Method,
                    _ => Member::Signature,
                };
                let item = index.member(kind, resolution.declaring, &named.name, self.desc);
                self.require(item);
            }
        }
    }

    fn on_new(&mut self, class: &str) {
        self.require(self.index.ty(class));
    }

    fn on_reflection(&mut self, class: &str) {
        self.reflection(class);
    }

    fn on_type_use(&mut self, class: &str) {
        self.require(self.index.ty(class));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    fn clauses(r: &Requirement) -> Vec<Vec<u32>> {
        let index = |c: &[Var]| c.iter().map(|v| v.index() as u32).collect();
        r.clauses().map(index).collect()
    }

    fn conj(vars: &[u32]) -> Requirement {
        let mut r = Requirement::default();
        for &i in vars {
            r.require(Some(v(i)));
        }
        r
    }

    #[test]
    fn disjunction_is_the_ordered_product() {
        let any = Requirement::any(vec![conj(&[0]), conj(&[1, 2]), conj(&[3, 4])]);
        assert_eq!(clauses(&any), [[0, 1, 3], [0, 1, 4], [0, 2, 3], [0, 2, 4]]);
    }

    #[test]
    fn constants_fold() {
        let t = Requirement::default();
        let f = Requirement::falsity();
        assert_eq!(Requirement::any(vec![]), f);
        assert_eq!(Requirement::any(vec![f.clone(), f.clone()]), f);
        assert_eq!(Requirement::any(vec![conj(&[0]), t.clone()]), t);
        assert_eq!(
            Requirement::any(vec![f.clone(), conj(&[0, 1])]),
            conj(&[0, 1])
        );
        let mut body = conj(&[0]);
        body.and(&f);
        let mut cnf = Cnf::new(3);
        body.implied_by(&[v(2)], &mut cnf);
        assert_eq!(cnf.clauses(), [Clause::unit(Lit::neg(v(2)))]);
        let mut cnf = Cnf::new(3);
        t.implied_by(&[v(2)], &mut cnf);
        assert!(cnf.is_empty());
    }

    #[test]
    fn implication_writes_one_clause_per_clause() {
        let mut cnf = Cnf::new(4);
        let any = Requirement::any(vec![conj(&[0]), conj(&[1, 3])]);
        any.implied_by(&[v(2), v(3)], &mut cnf);
        // [¬2 ∨ ¬3 ∨ 0 ∨ 3] is a tautology and is dropped.
        assert_eq!(
            cnf.clauses(),
            [Clause::implication([v(2), v(3)], [v(0), v(1)])]
        );
    }
}
