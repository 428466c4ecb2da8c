//! A set of class files and the hierarchy queries on it.
//!
//! `Program` is the unit of reduction: the buggy tool consumes a program,
//! and sub-inputs are programs with items removed. The hierarchy queries —
//! subtype paths, member resolution — return the *relations they used*
//! (extends / implements / interface-extends steps), which is exactly what
//! the logical constraint generator needs: keeping a use of subtyping means
//! keeping every relation on its derivation path.

use crate::{ClassFile, FieldInfo, MethodDescriptor, MethodInfo, OBJECT};
use lbr_core::{AddressHasher, Scope};
use std::any::Any;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, LazyLock, OnceLock};

/// One step of a subtype derivation or member resolution, naming its
/// types by the names the program declares them under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step<'p> {
    /// `sub extends sup` (a class superclass edge).
    Extends {
        /// Subclass.
        sub: &'p str,
        /// Superclass.
        sup: &'p str,
    },
    /// `class implements iface`.
    Implements {
        /// The class.
        class: &'p str,
        /// The interface.
        iface: &'p str,
    },
    /// `sub extends sup` between interfaces.
    IfaceExtends {
        /// The sub-interface.
        sub: &'p str,
        /// The super-interface.
        sup: &'p str,
    },
}

impl fmt::Display for Step<'_> {
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
    pub(crate) fn step<'p>(self, sub: &'p str, sup: &'p str) -> Step<'p> {
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
pub struct Resolution<'p> {
    /// The class or interface that declares the member.
    pub declaring: &'p str,
    /// The hierarchy steps walked from the named class to `declaring`.
    pub steps: Vec<Step<'p>>,
}

/// One type a hierarchy walk reached: its name, and the type and the step
/// it was reached from (`None` for the start). The walk's paths share
/// their prefixes through these links.
struct Reached<'p> {
    name: &'p str,
    from: Option<(usize, Step<'p>)>,
}

/// The supertype edges out of `class`: its superclass (a class's only),
/// then its interfaces.
fn supertypes(class: &ClassFile) -> impl Iterator<Item = (&str, Edge)> {
    let (superclass, iface_edge) = if class.is_interface() {
        (None, Edge::IfaceExtends)
    } else {
        (class.superclass.as_deref(), Edge::Implements)
    };
    let superclass = superclass.map(|s| (s, Edge::Extends));
    let interfaces = class
        .interfaces
        .iter()
        .map(move |i| (i.as_str(), iface_edge));
    superclass.into_iter().chain(interfaces)
}

/// The names a hierarchy walk has met, hashed by one folded multiply per
/// word instead of SipHash.
type NameSet<'p> = HashSet<&'p str, BuildHasherDefault<AddressHasher>>;

/// The steps from the start of a walk to `reached[at]`.
fn path<'p>(reached: &[Reached<'p>], mut at: usize) -> Vec<Step<'p>> {
    let mut steps = Vec::new();
    while let Some((prev, step)) = reached[at].from {
        steps.push(step);
        at = prev;
    }
    steps.reverse();
    steps
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
    /// it from per-class sizes, building the logical model of a program
    /// fills it from the model's size plans, and every mutation clears it.
    byte_size: OnceLock<usize>,
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
            byte_size: OnceLock::new(),
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
            byte_size: OnceLock::from(byte_size),
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

    /// The cached serialized size, if a materializer or a model build
    /// recorded one.
    pub(crate) fn cached_byte_size(&self) -> Option<usize> {
        self.byte_size.get().copied()
    }

    /// Records `program_byte_size` of this program, unless known already.
    pub(crate) fn record_byte_size(&self, size: impl FnOnce() -> usize) {
        self.byte_size.get_or_init(size);
    }

    /// Inserts (or replaces) a class. Returns the previous one, if any.
    ///
    /// # Panics
    ///
    /// Panics on an attempt to redefine `Object`.
    pub fn insert(&mut self, class: ClassFile) -> Option<ClassFile> {
        assert_ne!(class.name, OBJECT, "Object is built in");
        self.byte_size = OnceLock::new();
        self.classes
            .insert(Arc::from(class.name.as_str()), Arc::new(class))
            .map(Arc::unwrap_or_clone)
    }

    /// Removes a class by name.
    pub fn remove(&mut self, name: &str) -> Option<ClassFile> {
        self.byte_size = OnceLock::new();
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
        self.byte_size = OnceLock::new();
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
    pub fn superclass_chain(&self, name: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut cur = self.get(name);
        while let Some(c) = cur {
            match c.superclass.as_deref() {
                Some(s) if s != name && !out.contains(&s) => {
                    out.push(s);
                    cur = self.get(s);
                }
                _ => break,
            }
        }
        out
    }

    /// A declared (or built-in) class with the name the program keys it by.
    fn entry(&self, name: &str) -> Option<(&str, &ClassFile)> {
        if name == OBJECT {
            Some((OBJECT, &self.object))
        } else {
            let (key, class) = self.classes.get_key_value(name)?;
            Some((key, class))
        }
    }

    /// Whether the hierarchy contains an extends/implements cycle through
    /// `name`.
    pub fn has_hierarchy_cycle(&self, name: &str) -> bool {
        // DFS over all supertype edges.
        self.cycle_dfs(name, &mut NameSet::default(), &mut NameSet::default())
    }

    fn cycle_dfs<'a>(
        &'a self,
        name: &'a str,
        visiting: &mut NameSet<'a>,
        done: &mut NameSet<'a>,
    ) -> bool {
        if done.contains(name) {
            return false;
        }
        if !visiting.insert(name) {
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
        done.insert(name);
        false
    }

    /// Finds the shortest subtype derivation from `sub` to `sup`, as the
    /// list of hierarchy steps used. `Some(vec![])` when `sub == sup`.
    pub fn subtype_path(&self, sub: &str, sup: &str) -> Option<Vec<Step<'_>>> {
        if sub == sup {
            return Some(Vec::new());
        }
        // A type that is not declared reaches nothing.
        let (sub, _) = self.entry(sub)?;
        // BFS over supertype edges on borrowed names. Each type reached
        // links to the type and step it was reached by, so only the path
        // found becomes a list of steps.
        let mut reached = vec![Reached {
            name: sub,
            from: None,
        }];
        let mut seen = NameSet::from_iter([sub]);
        let mut at = 0;
        while at < reached.len() {
            let cur = reached[at].name;
            for (next, edge) in self.get(cur).into_iter().flat_map(supertypes) {
                if !seen.insert(next) {
                    continue;
                }
                let from = Some((at, edge.step(cur, next)));
                reached.push(Reached { name: next, from });
                if next == sup {
                    return Some(path(&reached, reached.len() - 1));
                }
            }
            at += 1;
        }
        None
    }

    /// Whether `sub` is a subtype of `sup`.
    pub fn is_subtype(&self, sub: &str, sup: &str) -> bool {
        self.subtype_path(sub, sup).is_some()
    }

    /// All interfaces transitively reachable from `name` (via implements,
    /// interface-extends and superclasses), with the step path to each, in
    /// breadth-first order.
    pub fn interface_closure(&self, name: &str) -> Vec<(&str, Vec<Step<'_>>)> {
        let (reached, interfaces) = self.closure_walk(name);
        let path = |at: usize| (reached[at].name, path(&reached, at));
        interfaces.into_iter().map(path).collect()
    }

    /// The names of [`Program::interface_closure`], without the paths.
    pub(crate) fn interface_names(&self, name: &str) -> impl Iterator<Item = &str> {
        let (reached, interfaces) = self.closure_walk(name);
        interfaces.into_iter().map(move |at| reached[at].name)
    }

    /// The breadth-first walk behind [`Program::interface_closure`]: every
    /// type reached, in order, and which of them are the interfaces.
    fn closure_walk(&self, name: &str) -> (Vec<Reached<'_>>, Vec<usize>) {
        let Some((start, _)) = self.entry(name) else {
            return (Vec::new(), Vec::new());
        };
        let mut reached = vec![Reached {
            name: start,
            from: None,
        }];
        let mut seen = NameSet::from_iter([start]);
        let mut interfaces = Vec::new();
        let mut at = 0;
        while at < reached.len() {
            let cur = reached[at].name;
            if let Some(c) = self.get(cur) {
                if c.is_interface() && at != 0 {
                    interfaces.push(at);
                }
                for (sup, edge) in supertypes(c) {
                    if seen.insert(sup) {
                        let from = Some((at, edge.step(cur, sup)));
                        reached.push(Reached { name: sup, from });
                    }
                }
            }
            at += 1;
        }
        (reached, interfaces)
    }

    /// Resolves a field named on `class`, walking the superclass chain.
    pub fn resolve_field(&self, class: &str, field: &str) -> Option<(Resolution<'_>, &FieldInfo)> {
        let mut steps = Vec::new();
        let (mut cur, mut c) = self.entry(class)?;
        let mut guard = 0;
        loop {
            if let Some(f) = c.field(field) {
                return Some((
                    Resolution {
                        declaring: cur,
                        steps,
                    },
                    f,
                ));
            }
            let sup = c.superclass.as_deref()?;
            steps.push(Step::Extends { sub: cur, sup });
            (cur, c) = self.entry(sup)?;
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
    ) -> Option<(Resolution<'_>, &MethodInfo)> {
        // Class chain.
        let mut steps = Vec::new();
        let mut cur = self.entry(class);
        let mut guard = 0;
        while let Some((declaring, c)) = cur {
            if let Some(m) = c.method(name, desc) {
                return Some((Resolution { declaring, steps }, m));
            }
            if c.is_interface() {
                break; // interfaces handled below
            }
            let Some(sup) = c.superclass.as_deref() else {
                break;
            };
            steps.push(Step::Extends {
                sub: declaring,
                sup,
            });
            cur = self.entry(sup);
            guard += 1;
            if guard > self.len() + 2 {
                return None;
            }
        }
        // Interface closure: the path only to the interface that declares it.
        let (reached, interfaces) = self.closure_walk(class);
        interfaces.into_iter().find_map(|at| {
            let declaring = reached[at].name;
            let m = self.get(declaring)?.method(name, desc)?;
            let steps = path(&reached, at);
            Some((Resolution { declaring, steps }, m))
        })
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
                Step::Extends { sub: "B", sup: "A" },
                Step::Implements {
                    class: "A",
                    iface: "I"
                },
                Step::IfaceExtends { sub: "I", sup: "J" },
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
        let names: Vec<&str> = closure.iter().map(|&(n, _)| n).collect();
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
