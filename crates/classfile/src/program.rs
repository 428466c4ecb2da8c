//! A set of class files and the hierarchy queries on it.
//!
//! `Program` is the unit of reduction: the buggy tool consumes a program,
//! and sub-inputs are programs with items removed. The hierarchy queries —
//! subtype paths, member resolution — return the *relations they used*
//! (extends / implements / interface-extends steps), which is exactly what
//! the logical constraint generator needs: keeping a use of subtyping means
//! keeping every relation on its derivation path.

use crate::{ClassFile, FieldInfo, MethodDescriptor, MethodInfo, OBJECT};
use lbr_core::Scope;
use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::{Arc, LazyLock};

/// One step of a subtype derivation or member resolution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Step {
    /// `sub extends sup` (a class superclass edge).
    Extends {
        /// Subclass.
        sub: String,
        /// Superclass.
        sup: String,
    },
    /// `class implements iface`.
    Implements {
        /// The class.
        class: String,
        /// The interface.
        iface: String,
    },
    /// `sub extends sup` between interfaces.
    IfaceExtends {
        /// The sub-interface.
        sub: String,
        /// The super-interface.
        sup: String,
    },
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Extends { sub, sup } => write!(f, "{sub} extends {sup}"),
            Step::Implements { class, iface } => write!(f, "{class} implements {iface}"),
            Step::IfaceExtends { sub, sup } => write!(f, "{sub} extends(i) {sup}"),
        }
    }
}

/// The kind of one supertype edge, as [`Program::subtype_path`] walks it
/// and as the item index keys relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Edge {
    Extends,
    Implements,
    IfaceExtends,
}

impl Edge {
    /// The step this edge from `sub` to `sup` stands for.
    pub(crate) fn step(self, sub: &str, sup: &str) -> Step {
        let (sub, sup) = (sub.to_owned(), sup.to_owned());
        match self {
            Edge::Extends => Step::Extends { sub, sup },
            Edge::Implements => Step::Implements {
                class: sub,
                iface: sup,
            },
            Edge::IfaceExtends => Step::IfaceExtends { sub, sup },
        }
    }
}

/// The result of resolving a field or method from a starting class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// The class or interface that declares the member.
    pub declaring: String,
    /// The hierarchy steps walked from the named class to `declaring`.
    pub steps: Vec<Step>,
}

/// A program: a named set of class files with an implicit built-in
/// `Object`.
///
/// # Examples
///
/// ```
/// use lbr_classfile::{ClassFile, Program};
/// let mut p = Program::new();
/// p.insert(ClassFile::new_class("A"));
/// assert!(p.get("A").is_some());
/// assert!(p.get("Object").is_some()); // built-in
/// assert!(p.is_subtype("A", "Object"));
/// ```
///
/// Classes are shared: cloning a program, or materializing many candidate
/// programs from one reduction, shares unchanged class files, and
/// [`Program::get_mut`] copies a class only when another program still
/// holds it.
///
/// The candidates of one reduction also share a *reduction scope*, a typed
/// side table ([`Program::scoped`]) in which a tool can memoize work across
/// the reduction's probes. Equality and serialization ignore it.
#[derive(Debug, Clone)]
pub struct Program {
    classes: BTreeMap<Arc<str>, Arc<ClassFile>>,
    object: Arc<ClassFile>,
    /// `program_byte_size` of this program when already known: the
    /// reduction materializers (the logical and the coarse model's) fill
    /// it from per-class sizes, and every mutation clears it.
    byte_size: Option<usize>,
    /// The reduction scope, when a reduction's materializer built this
    /// program. Edits keep it: the scope's memos key on class handles, and
    /// an edited class is a new handle.
    scope: Option<Arc<Scope>>,
}

/// The built-in `Object`, which provides the no-argument constructor every
/// class chain bottoms out in.
static BUILTIN_OBJECT: LazyLock<Arc<ClassFile>> = LazyLock::new(|| {
    let mut object = ClassFile::new_class(OBJECT);
    object.superclass = None;
    object.methods.push(crate::MethodInfo::new(
        "<init>",
        crate::MethodDescriptor::void(),
        crate::Code::new(0, 1, vec![crate::Insn::Return]),
    ));
    Arc::new(object)
});

/// Equality is over the classes; the cached size is derived from them.
impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.classes == other.classes
    }
}

impl Eq for Program {}

impl Default for Program {
    fn default() -> Self {
        Self::new()
    }
}

impl Program {
    /// An empty program (containing only the built-in `Object`).
    pub fn new() -> Self {
        Program {
            classes: BTreeMap::new(),
            object: Arc::clone(&BUILTIN_OBJECT),
            byte_size: None,
            scope: None,
        }
    }

    /// A candidate of the reduction `scope` belongs to, made of
    /// already-shared classes, whose `program_byte_size` is `byte_size`.
    pub(crate) fn from_shared(
        classes: impl IntoIterator<Item = (Arc<str>, Arc<ClassFile>)>,
        byte_size: usize,
        scope: &Arc<Scope>,
    ) -> Self {
        Program {
            classes: classes.into_iter().collect(),
            byte_size: Some(byte_size),
            scope: Some(Arc::clone(scope)),
            ..Program::new()
        }
    }

    /// The classes named by `names` (unknown names skipped), sharing this
    /// program's handles, as a candidate of `scope`'s reduction whose
    /// `program_byte_size` is `byte_size`.
    pub(crate) fn share_subset<'n>(
        &self,
        names: impl IntoIterator<Item = &'n str>,
        byte_size: usize,
        scope: &Arc<Scope>,
    ) -> Program {
        let classes = names.into_iter().filter_map(|name| {
            let (name, class) = self.classes.get_key_value(name)?;
            Some((Arc::clone(name), Arc::clone(class)))
        });
        Program::from_shared(classes, byte_size, scope)
    }

    /// This program's table of type `T` in its reduction scope (see
    /// [`Program`]). Every candidate of one reduction gets the same table,
    /// which is dropped with the reduction's materializer and last
    /// candidate. A program that no reduction built gets a fresh, empty
    /// table on every call, so a tool has one code path either way.
    pub fn scoped<T: Any + Default + Send + Sync>(&self) -> Arc<T> {
        Scope::table_in(self.scope.as_deref())
    }

    /// The shared handles of the user classes, in name order. A handle's
    /// contents never change while anything else holds it too
    /// ([`Program::get_mut`] copies a shared class first), so a memo that
    /// holds a handle may key on its address.
    pub fn handles(&self) -> impl Iterator<Item = &Arc<ClassFile>> {
        self.classes.values()
    }

    /// Iterates user classes in name order with their shared handles.
    pub(crate) fn shared_classes(&self) -> impl Iterator<Item = (&Arc<str>, &ClassFile)> {
        self.classes.iter().map(|(name, class)| (name, &**class))
    }

    /// The cached serialized size, if a materializer recorded one.
    pub(crate) fn cached_byte_size(&self) -> Option<usize> {
        self.byte_size
    }

    /// Inserts (or replaces) a class. Returns the previous one, if any.
    ///
    /// # Panics
    ///
    /// Panics on an attempt to redefine `Object`.
    pub fn insert(&mut self, class: ClassFile) -> Option<ClassFile> {
        assert_ne!(class.name, OBJECT, "Object is built in");
        self.byte_size = None;
        self.classes
            .insert(Arc::from(class.name.as_str()), Arc::new(class))
            .map(Arc::unwrap_or_clone)
    }

    /// Removes a class by name.
    pub fn remove(&mut self, name: &str) -> Option<ClassFile> {
        self.byte_size = None;
        self.classes.remove(name).map(Arc::unwrap_or_clone)
    }

    /// Looks up a class (the built-in `Object` included).
    pub fn get(&self, name: &str) -> Option<&ClassFile> {
        if name == OBJECT {
            Some(&self.object)
        } else {
            self.classes.get(name).map(|c| &**c)
        }
    }

    /// Mutable lookup of a user class. The class is copied first if
    /// another program shares it, so the edit stays local to `self`.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut ClassFile> {
        self.byte_size = None;
        self.classes.get_mut(name).map(Arc::make_mut)
    }

    /// Whether the program declares (or builds in) `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of user classes (excluding `Object`).
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether there are no user classes.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Iterates user classes in name order.
    pub fn classes(&self) -> impl Iterator<Item = &ClassFile> {
        self.classes.values().map(|c| &**c)
    }

    /// Iterates user class names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.classes.keys().map(|name| &**name)
    }

    // ------------------------------------------------------------------
    // Hierarchy queries.
    // ------------------------------------------------------------------

    /// The superclass chain starting at `name` (exclusive) up to and
    /// including `Object`. Stops early at an undefined or cyclic class.
    pub fn superclass_chain(&self, name: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut cur = name.to_owned();
        seen.insert(cur.clone());
        while let Some(c) = self.get(&cur) {
            match &c.superclass {
                Some(s) if seen.insert(s.clone()) => {
                    out.push(s.clone());
                    cur = s.clone();
                }
                _ => break,
            }
        }
        out
    }

    /// Whether the hierarchy contains an extends/implements cycle through
    /// `name`.
    pub fn has_hierarchy_cycle(&self, name: &str) -> bool {
        // DFS over all supertype edges.
        let mut visiting = HashSet::new();
        self.cycle_dfs(name, &mut visiting, &mut HashSet::new())
    }

    fn cycle_dfs(
        &self,
        name: &str,
        visiting: &mut HashSet<String>,
        done: &mut HashSet<String>,
    ) -> bool {
        if done.contains(name) {
            return false;
        }
        if !visiting.insert(name.to_owned()) {
            return true;
        }
        if let Some(c) = self.get(name) {
            let supers = c.superclass.iter().chain(c.interfaces.iter());
            for s in supers {
                if self.cycle_dfs(s, visiting, done) {
                    return true;
                }
            }
        }
        visiting.remove(name);
        done.insert(name.to_owned());
        false
    }

    /// Finds the shortest subtype derivation from `sub` to `sup`, as the
    /// list of hierarchy steps used. `Some(vec![])` when `sub == sup`.
    pub fn subtype_path(&self, sub: &str, sup: &str) -> Option<Vec<Step>> {
        if sub == sup {
            return Some(Vec::new());
        }
        // BFS over supertype edges on borrowed names. Each reached name
        // records the name and edge it was reached by; steps are built
        // only along the path found.
        let mut queue = VecDeque::from([sub]);
        let mut seen = HashSet::from([sub]);
        let mut pred: HashMap<&str, (&str, Edge)> = HashMap::new();
        while let Some(cur) = queue.pop_front() {
            let Some(c) = self.get(cur) else { continue };
            let (superclass, iface_edge) = if c.is_interface() {
                (None, Edge::IfaceExtends)
            } else {
                (c.superclass.as_deref(), Edge::Implements)
            };
            let edges = (superclass.map(|s| (s, Edge::Extends)))
                .into_iter()
                .chain(c.interfaces.iter().map(|i| (i.as_str(), iface_edge)));
            for (next, edge) in edges {
                if !seen.insert(next) {
                    continue;
                }
                pred.insert(next, (cur, edge));
                if next == sup {
                    let mut path = Vec::new();
                    let mut node = sup;
                    while node != sub {
                        let (prev, edge) = pred[node];
                        path.push(edge.step(prev, node));
                        node = prev;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(next);
            }
        }
        None
    }

    /// Whether `sub` is a subtype of `sup`.
    pub fn is_subtype(&self, sub: &str, sup: &str) -> bool {
        self.subtype_path(sub, sup).is_some()
    }

    /// All interfaces transitively reachable from `name` (via implements,
    /// interface-extends and superclasses), with the step path to each.
    pub fn interface_closure(&self, name: &str) -> Vec<(String, Vec<Step>)> {
        let mut out = Vec::new();
        let mut queue = VecDeque::new();
        let mut seen = HashSet::new();
        queue.push_back((name.to_owned(), Vec::new()));
        seen.insert(name.to_owned());
        while let Some((cur, path)) = queue.pop_front() {
            let Some(c) = self.get(&cur) else { continue };
            if c.is_interface() && cur != name {
                out.push((cur.clone(), path.clone()));
            }
            if let Some(s) = &c.superclass {
                if !c.is_interface() && seen.insert(s.clone()) {
                    let mut p = path.clone();
                    p.push(Step::Extends {
                        sub: cur.clone(),
                        sup: s.clone(),
                    });
                    queue.push_back((s.clone(), p));
                }
            }
            for i in &c.interfaces {
                if seen.insert(i.clone()) {
                    let mut p = path.clone();
                    p.push(if c.is_interface() {
                        Step::IfaceExtends {
                            sub: cur.clone(),
                            sup: i.clone(),
                        }
                    } else {
                        Step::Implements {
                            class: cur.clone(),
                            iface: i.clone(),
                        }
                    });
                    queue.push_back((i.clone(), p));
                }
            }
        }
        out
    }

    /// Resolves a field named on `class`, walking the superclass chain.
    pub fn resolve_field(&self, class: &str, field: &str) -> Option<(Resolution, &FieldInfo)> {
        let mut steps = Vec::new();
        let mut cur = class.to_owned();
        let mut guard = 0;
        loop {
            let c = self.get(&cur)?;
            if let Some(f) = c.field(field) {
                return Some((
                    Resolution {
                        declaring: cur.clone(),
                        steps,
                    },
                    f,
                ));
            }
            let sup = c.superclass.clone()?;
            steps.push(Step::Extends {
                sub: cur.clone(),
                sup: sup.clone(),
            });
            cur = sup;
            guard += 1;
            if guard > self.len() + 2 {
                return None; // cycle
            }
        }
    }

    /// Resolves a method named on `class`: first the superclass chain,
    /// then (breadth-first) the superinterfaces.
    pub fn resolve_method(
        &self,
        class: &str,
        name: &str,
        desc: &MethodDescriptor,
    ) -> Option<(Resolution, &MethodInfo)> {
        // Class chain.
        let mut steps = Vec::new();
        let mut cur = class.to_owned();
        let mut guard = 0;
        while let Some(c) = self.get(&cur) {
            if let Some(m) = c.method(name, desc) {
                return Some((
                    Resolution {
                        declaring: cur.clone(),
                        steps,
                    },
                    m,
                ));
            }
            if c.is_interface() {
                break; // interfaces handled below
            }
            match c.superclass.clone() {
                Some(sup) => {
                    steps.push(Step::Extends {
                        sub: cur.clone(),
                        sup: sup.clone(),
                    });
                    cur = sup;
                }
                None => break,
            }
            guard += 1;
            if guard > self.len() + 2 {
                return None;
            }
        }
        // Interface closure.
        for (iface, path) in self.interface_closure(class) {
            if let Some(c) = self.get(&iface) {
                if let Some(m) = c.method(name, desc) {
                    return Some((
                        Resolution {
                            declaring: iface.clone(),
                            steps: path,
                        },
                        m,
                    ));
                }
            }
        }
        None
    }
}

impl FromIterator<ClassFile> for Program {
    fn from_iter<T: IntoIterator<Item = ClassFile>>(iter: T) -> Self {
        let mut p = Program::new();
        for c in iter {
            p.insert(c);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Code, Flags, Type};

    fn sample() -> Program {
        // interface J; interface I extends J; class A implements I;
        // class B extends A; field A.f; method I.m abstract, A.m concrete.
        let mut j = ClassFile::new_interface("J");
        j.methods
            .push(MethodInfo::new_abstract("p", MethodDescriptor::void()));
        let mut i = ClassFile::new_interface("I");
        i.interfaces.push("J".into());
        i.methods
            .push(MethodInfo::new_abstract("m", MethodDescriptor::void()));
        let mut a = ClassFile::new_class("A");
        a.interfaces.push("I".into());
        a.fields.push(FieldInfo::new("f", Type::Int));
        a.methods.push(MethodInfo::new(
            "m",
            MethodDescriptor::void(),
            Code::trivial(1),
        ));
        let mut b = ClassFile::new_class("B");
        b.superclass = Some("A".into());
        [j, i, a, b].into_iter().collect()
    }

    #[test]
    fn chain_and_subtyping() {
        let p = sample();
        assert_eq!(p.superclass_chain("B"), vec!["A", "Object"]);
        assert!(p.is_subtype("B", "A"));
        assert!(p.is_subtype("B", "Object"));
        assert!(p.is_subtype("B", "I"));
        assert!(p.is_subtype("B", "J"));
        assert!(p.is_subtype("I", "J"));
        assert!(!p.is_subtype("A", "B"));
        assert!(!p.is_subtype("J", "I"));
    }

    #[test]
    fn subtype_paths_record_relations() {
        let p = sample();
        let path = p.subtype_path("B", "J").expect("subtype");
        assert_eq!(
            path,
            vec![
                Step::Extends {
                    sub: "B".into(),
                    sup: "A".into()
                },
                Step::Implements {
                    class: "A".into(),
                    iface: "I".into()
                },
                Step::IfaceExtends {
                    sub: "I".into(),
                    sup: "J".into()
                },
            ]
        );
        assert_eq!(p.subtype_path("A", "A"), Some(vec![]));
        assert_eq!(p.subtype_path("A", "B"), None);
    }

    #[test]
    fn field_resolution_walks_supers() {
        let p = sample();
        let (res, f) = p.resolve_field("B", "f").expect("resolves");
        assert_eq!(res.declaring, "A");
        assert_eq!(f.ty, Type::Int);
        assert_eq!(res.steps.len(), 1);
        assert!(p.resolve_field("B", "nope").is_none());
    }

    #[test]
    fn method_resolution_class_then_interface() {
        let p = sample();
        let (res, m) = p
            .resolve_method("B", "m", &MethodDescriptor::void())
            .expect("resolves");
        assert_eq!(res.declaring, "A");
        assert!(m.code.is_some());
        // p is only declared on interface J.
        let (res, m) = p
            .resolve_method("B", "p", &MethodDescriptor::void())
            .expect("resolves via interfaces");
        assert_eq!(res.declaring, "J");
        assert!(m.code.is_none());
    }

    #[test]
    fn interface_closure_with_paths() {
        let p = sample();
        let closure = p.interface_closure("B");
        let names: Vec<&str> = closure.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["I", "J"]);
        let (_, path_j) = &closure[1];
        assert_eq!(path_j.len(), 3);
    }

    #[test]
    fn cycle_detection() {
        let mut p = Program::new();
        let mut a = ClassFile::new_class("A");
        a.superclass = Some("B".into());
        let mut b = ClassFile::new_class("B");
        b.superclass = Some("A".into());
        p.insert(a);
        p.insert(b);
        assert!(p.has_hierarchy_cycle("A"));
        assert!(!sample().has_hierarchy_cycle("B"));
        // superclass_chain terminates on cycles.
        assert!(p.superclass_chain("A").len() <= 2);
    }

    #[test]
    #[should_panic(expected = "Object is built in")]
    fn cannot_redefine_object() {
        let mut p = Program::new();
        p.insert(ClassFile::new_class(OBJECT));
    }

    fn sized_sample() -> Program {
        let p = sample();
        let size = crate::program_byte_size(&p);
        let shared: Vec<_> = p
            .classes
            .iter()
            .map(|(name, class)| (Arc::clone(name), Arc::clone(class)))
            .collect();
        Program::from_shared(shared, size, &Arc::default())
    }

    #[test]
    fn equality_ignores_the_cached_size() {
        let sized = sized_sample();
        assert!(sized.cached_byte_size().is_some());
        let plain = sample();
        assert_eq!(plain.cached_byte_size(), None);
        assert_eq!(sized, plain);
        assert_eq!(plain, sized);
    }

    #[test]
    fn mutations_clear_the_cached_size() {
        let mut p = sized_sample();
        p.insert(ClassFile::new_class("C"));
        assert_eq!(p.cached_byte_size(), None);

        let mut p = sized_sample();
        assert!(p.remove("B").is_some());
        assert_eq!(p.cached_byte_size(), None);

        let mut p = sized_sample();
        p.get_mut("A").expect("declared").fields.clear();
        assert_eq!(p.cached_byte_size(), None);
    }

    #[test]
    fn get_mut_copies_a_shared_class() {
        let original = sized_sample();
        let mut edited = original.clone();
        assert!(Arc::ptr_eq(&original.classes["A"], &edited.classes["A"]));
        edited
            .get_mut("A")
            .expect("declared")
            .fields
            .push(FieldInfo::new("g", Type::Int));
        assert_eq!(edited.get("A").unwrap().fields.len(), 2);
        assert_eq!(original.get("A").unwrap().fields.len(), 1);
        assert_eq!(original, sample());
        assert_eq!(
            original.cached_byte_size(),
            Some(crate::program_byte_size(&original))
        );
        // Classes the edit did not touch stay shared.
        assert!(Arc::ptr_eq(&original.classes["B"], &edited.classes["B"]));
    }

    #[test]
    fn candidates_of_one_reduction_share_its_scope() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let candidate = sized_sample();
        let mut edited = candidate.clone();
        edited.get_mut("A").expect("declared").fields.clear();
        candidate
            .scoped::<AtomicUsize>()
            .fetch_add(1, Ordering::Relaxed);
        assert_eq!(edited.scoped::<AtomicUsize>().load(Ordering::Relaxed), 1);
        // Another reduction's candidate, and a program no reduction built,
        // see empty tables.
        assert_eq!(
            sized_sample()
                .scoped::<AtomicUsize>()
                .load(Ordering::Relaxed),
            0
        );
        let plain = sample();
        plain
            .scoped::<AtomicUsize>()
            .fetch_add(1, Ordering::Relaxed);
        assert_eq!(plain.scoped::<AtomicUsize>().load(Ordering::Relaxed), 0);
        assert_eq!(plain, candidate);
    }

    #[test]
    fn abstract_flag_queries() {
        let mut c = ClassFile::new_class("A");
        c.flags |= Flags::ABSTRACT;
        assert!(!c.is_instantiable());
    }
}
