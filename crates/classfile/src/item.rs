//! The reducible items of a bytecode program.
//!
//! The paper's implementation has "a total of 11 kinds of items that can
//! be removed, including constructors, fields, and super-class relations".
//! These are ours:
//!
//! | # | Item | Removal effect |
//! |---|------|----------------|
//! | 1 | `Class(C)` | drop the class file |
//! | 2 | `Interface(I)` | drop the interface file |
//! | 3 | `SuperClass(C, D)` | rewire `C` to `extends Object` |
//! | 4 | `Implements(C, I)` | remove `I` from `C`'s interface list |
//! | 5 | `InterfaceExtends(I, J)` | remove `J` from `I`'s extends list |
//! | 6 | `Field(C, f)` | drop the field |
//! | 7 | `Method(C, m, d)` | drop the concrete method |
//! | 8 | `MethodCode(C, m, d)` | replace the body with `aconst_null; athrow` |
//! | 9 | `Constructor(C, d)` | drop the constructor |
//! | 10 | `ConstructorCode(C, d)` | replace the body with the trivial one |
//! | 11 | `Signature(T, m, d)` | drop the abstract method |

use crate::program::Edge;
use crate::{MethodInfo, Program, Step};
use lbr_logic::{Var, VarSet};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// A reducible construct; see the module docs for the catalog.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Item {
    /// A concrete or abstract class.
    Class(String),
    /// An interface.
    Interface(String),
    /// The relation `C extends D` (absent when `D` is `Object`).
    SuperClass(String, String),
    /// The relation `C implements I`.
    Implements(String, String),
    /// The relation `I extends J` between interfaces.
    InterfaceExtends(String, String),
    /// A field `C.f`.
    Field(String, String),
    /// A concrete method `C.m` with descriptor.
    Method(String, String, String),
    /// The body of a concrete method.
    MethodCode(String, String, String),
    /// A constructor `C.<init>` with descriptor.
    Constructor(String, String),
    /// The body of a constructor.
    ConstructorCode(String, String),
    /// An abstract method (interface signature or abstract-class method).
    Signature(String, String, String),
}

impl Item {
    /// The class or interface this item belongs to.
    pub fn owner(&self) -> &str {
        match self {
            Item::Class(c)
            | Item::Interface(c)
            | Item::SuperClass(c, _)
            | Item::Implements(c, _)
            | Item::InterfaceExtends(c, _)
            | Item::Field(c, _)
            | Item::Method(c, _, _)
            | Item::MethodCode(c, _, _)
            | Item::Constructor(c, _)
            | Item::ConstructorCode(c, _)
            | Item::Signature(c, _, _) => c,
        }
    }

    /// A short kind name, for statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            Item::Class(_) => "class",
            Item::Interface(_) => "interface",
            Item::SuperClass(..) => "superclass",
            Item::Implements(..) => "implements",
            Item::InterfaceExtends(..) => "iface-extends",
            Item::Field(..) => "field",
            Item::Method(..) => "method",
            Item::MethodCode(..) => "method-code",
            Item::Constructor(..) => "constructor",
            Item::ConstructorCode(..) => "constructor-code",
            Item::Signature(..) => "signature",
        }
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Item::Class(c) | Item::Interface(c) => write!(f, "[{c}]"),
            Item::SuperClass(c, d) => write!(f, "[{c}<:{d}]"),
            Item::Implements(c, i) => write!(f, "[{c}<{i}]"),
            Item::InterfaceExtends(i, j) => write!(f, "[{i}<{j}]"),
            Item::Field(c, n) => write!(f, "[{c}.{n}]"),
            Item::Method(c, m, d) => write!(f, "[{c}.{m}{d}]"),
            Item::MethodCode(c, m, d) => write!(f, "[{c}.{m}{d}!code]"),
            Item::Constructor(c, d) => write!(f, "[{c}.<init>{d}]"),
            Item::ConstructorCode(c, d) => write!(f, "[{c}.<init>{d}!code]"),
            Item::Signature(i, m, d) => write!(f, "[{i}.{m}{d}]"),
        }
    }
}

/// Maps the items of a program to dense logic variables.
///
/// Built-in or foreign names ([`crate::OBJECT`], or a superclass of
/// `Object`) are not registered; constraint generation treats them as
/// always kept.
#[derive(Debug, Clone, Default)]
pub struct ItemRegistry {
    items: Vec<Item>,
    /// Item → variable, built by the first [`ItemRegistry::var`] call.
    /// Model generation and reduction look items up through the
    /// borrowed [`ItemIndex`] instead.
    index: OnceLock<HashMap<Item, Var>>,
}

impl ItemRegistry {
    /// Collects the items of a program in deterministic (class-name, then
    /// declaration) order.
    pub fn from_program(program: &Program) -> Self {
        Self::indexed(program).0
    }

    /// The registry of `program` and the [`ItemIndex`] of the same
    /// variables, filled in one class walk.
    pub(crate) fn indexed(program: &Program) -> (Self, ItemIndex<'_>) {
        let mut items = Vec::new();
        let index = ItemIndex::walk(program, Some(&mut items));
        let registry = ItemRegistry {
            items,
            index: OnceLock::new(),
        };
        (registry, index)
    }

    /// The variable of an item, `None` if unregistered.
    pub fn var(&self, item: &Item) -> Option<Var> {
        let index = self.index.get_or_init(|| {
            let vars = (0..self.items.len() as u32).map(Var::new);
            self.items.iter().cloned().zip(vars).collect()
        });
        index.get(item).copied()
    }

    /// The item of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not from this registry.
    pub fn item(&self, v: Var) -> &Item {
        &self.items[v.index()]
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// All items in variable order.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Whether an item is kept by a solution (unregistered items always
    /// are).
    pub fn kept(&self, item: &Item, keep: &VarSet) -> bool {
        self.var(item).is_none_or(|v| keep.contains(v))
    }

    /// Renders a solution for debugging.
    pub fn render_solution(&self, keep: &VarSet) -> String {
        let mut parts: Vec<String> = keep.iter().map(|v| self.item(v).to_string()).collect();
        parts.sort();
        parts.join(", ")
    }

    /// Counts items per kind.
    pub fn kind_histogram(&self) -> HashMap<&'static str, usize> {
        let mut h = HashMap::new();
        for i in &self.items {
            *h.entry(i.kind()).or_insert(0) += 1;
        }
        h
    }
}

/// The variables of one program's items, keyed by names borrowed from
/// the program: the lookups of one model build and of its materializer,
/// with no string copied per lookup. [`ItemIndex::new`] and
/// [`ItemRegistry::indexed`] fill it.
/// Every key resolves to the variable [`ItemRegistry::var`] gives the same
/// item; an unregistered item (a built-in such as `Object`, or a name the
/// program does not declare) has none.
#[derive(Debug, Default)]
pub(crate) struct ItemIndex<'p> {
    types: HashMap<&'p str, TypeVars>,
    relations: HashMap<(Edge, &'p str, &'p str), Var>,
    fields: HashMap<(&'p str, &'p str), Var>,
    /// Per (class, member name), the registered declarations in order.
    members: HashMap<(&'p str, &'p str), Vec<MemberVars>>,
    classes: Vec<ClassVars>,
    len: usize,
}

/// The class item and the interface item of one name (at most one of
/// them unless two class files share the name).
#[derive(Debug, Default)]
struct TypeVars {
    class: Option<Var>,
    interface: Option<Var>,
}

/// Which item a method declares: a constructor, a concrete method, or an
/// abstract signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Member {
    Constructor,
    Method,
    Signature,
}

impl Member {
    /// The kind of item `m` is registered as.
    pub(crate) fn of(m: &MethodInfo) -> Self {
        if m.is_init() {
            Member::Constructor
        } else if m.code.is_some() {
            Member::Method
        } else {
            Member::Signature
        }
    }
}

#[derive(Debug)]
struct MemberVars {
    kind: Member,
    desc: String,
    decl: Var,
    body: Option<Var>,
}

/// One class's variables in declaration order: what a model build writes
/// the class's syntactic constraints over, and what a reduction applies a
/// keep-set with.
#[derive(Debug, Clone)]
pub(crate) struct ClassVars {
    /// The class or interface item.
    pub(crate) var: Var,
    /// The superclass relation, absent for interfaces and `Object`.
    pub(crate) superclass: Option<Var>,
    /// Per listed interface, the implements (or interface-extends)
    /// relation.
    pub(crate) interfaces: Vec<Var>,
    pub(crate) fields: Vec<Var>,
    /// Per method: the declaration, then the body (`None` for abstract
    /// methods, whose signature is the only item).
    pub(crate) methods: Vec<(Var, Option<Var>)>,
}

impl<'p> ItemIndex<'p> {
    /// The index of `program`'s items, numbered as
    /// [`ItemRegistry::from_program`] numbers them.
    pub(crate) fn new(program: &'p Program) -> Self {
        Self::walk(program, None)
    }

    /// Numbers the items of `program` in class-name, then declaration
    /// order, also pushing each onto `items` when given. An item that
    /// repeats (a duplicated member or relation) is numbered once: its
    /// first occurrence wins.
    fn walk(program: &'p Program, mut items: Option<&mut Vec<Item>>) -> Self {
        let mut len = 0;
        let mut add = |item: &dyn Fn() -> Item| {
            if let Some(items) = items.as_deref_mut() {
                items.push(item());
            }
            len += 1;
            Var::new(len - 1)
        };
        let mut index = ItemIndex::default();
        for class in program.classes() {
            let name = class.name.as_str();
            let interface = class.is_interface();
            let ty = index.types.entry(name).or_default();
            let var = *if interface {
                (ty.interface).get_or_insert_with(|| add(&|| Item::Interface(name.to_owned())))
            } else {
                (ty.class).get_or_insert_with(|| add(&|| Item::Class(name.to_owned())))
            };
            let superclass = match &class.superclass {
                Some(sup) if !interface && sup != crate::OBJECT => Some(
                    *(index.relations.entry((Edge::Extends, name, sup)))
                        .or_insert_with(|| add(&|| Item::SuperClass(name.to_owned(), sup.clone()))),
                ),
                _ => None,
            };
            let edge = if interface {
                Edge::IfaceExtends
            } else {
                Edge::Implements
            };
            let interfaces = (class.interfaces.iter())
                .map(|sup| {
                    *(index.relations.entry((edge, name, sup))).or_insert_with(|| {
                        add(&|| {
                            let (sub, sup) = (name.to_owned(), sup.clone());
                            if interface {
                                Item::InterfaceExtends(sub, sup)
                            } else {
                                Item::Implements(sub, sup)
                            }
                        })
                    })
                })
                .collect();
            let fields = (class.fields.iter())
                .map(|f| {
                    *(index.fields.entry((name, &f.name)))
                        .or_insert_with(|| add(&|| Item::Field(name.to_owned(), f.name.clone())))
                })
                .collect();
            let methods = (class.methods.iter())
                .map(|m| {
                    let kind = Member::of(m);
                    let desc = m.desc.descriptor();
                    let entries = index.members.entry((name, &m.name)).or_default();
                    if let Some(e) = entries.iter().find(|e| e.kind == kind && e.desc == desc) {
                        return (e.decl, e.body);
                    }
                    let owner = || name.to_owned();
                    let (mname, d) = (|| m.name.clone(), || desc.clone());
                    let (decl, body) = match kind {
                        Member::Constructor => (
                            add(&|| Item::Constructor(owner(), d())),
                            Some(add(&|| Item::ConstructorCode(owner(), d()))),
                        ),
                        Member::Method => (
                            add(&|| Item::Method(owner(), mname(), d())),
                            Some(add(&|| Item::MethodCode(owner(), mname(), d()))),
                        ),
                        Member::Signature => {
                            (add(&|| Item::Signature(owner(), mname(), d())), None)
                        }
                    };
                    entries.push(MemberVars {
                        kind,
                        desc,
                        decl,
                        body,
                    });
                    (decl, body)
                })
                .collect();
            index.classes.push(ClassVars {
                var,
                superclass,
                interfaces,
                fields,
                methods,
            });
        }
        index.len = len as usize;
        index
    }

    /// The number of items.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The variables of each class, in program order.
    pub(crate) fn classes(&self) -> &[ClassVars] {
        &self.classes
    }

    /// Gives up the per-class variables.
    pub(crate) fn into_classes(self) -> Vec<ClassVars> {
        self.classes
    }

    /// The class item of `name`, else its interface item.
    pub(crate) fn ty(&self, name: &str) -> Option<Var> {
        let t = self.types.get(name)?;
        t.class.or(t.interface)
    }

    /// The relation of kind `edge` from `sub` to `sup`.
    pub(crate) fn relation(&self, edge: Edge, sub: &str, sup: &str) -> Option<Var> {
        self.relations.get(&(edge, sub, sup)).copied()
    }

    /// The relation a derivation step uses.
    pub(crate) fn step(&self, step: &Step<'_>) -> Option<Var> {
        match step {
            Step::Extends { sub, sup } => self.relation(Edge::Extends, sub, sup),
            Step::Implements { class, iface } => self.relation(Edge::Implements, class, iface),
            Step::IfaceExtends { sub, sup } => self.relation(Edge::IfaceExtends, sub, sup),
        }
    }

    /// The field `class.name`.
    pub(crate) fn field(&self, class: &str, name: &str) -> Option<Var> {
        self.fields.get(&(class, name)).copied()
    }

    /// The declaration of kind `kind` of `class.name` with descriptor
    /// `desc` (a constructor's name is `<init>`).
    pub(crate) fn member(&self, kind: Member, class: &str, name: &str, desc: &str) -> Option<Var> {
        let entries = self.members.get(&(class, name))?;
        let e = entries.iter().find(|e| e.kind == kind && e.desc == desc)?;
        Some(e.decl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassFile, Code, FieldInfo, Insn, MethodDescriptor, MethodInfo, Type};

    fn sample_program() -> Program {
        let mut i = ClassFile::new_interface("I");
        i.interfaces.push("J".into());
        i.methods
            .push(MethodInfo::new_abstract("m", MethodDescriptor::void()));
        let j = ClassFile::new_interface("J");
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
        [i, j, a, b].into_iter().collect()
    }

    #[test]
    fn registry_covers_all_kinds() {
        let p = sample_program();
        let reg = ItemRegistry::from_program(&p);
        let h = reg.kind_histogram();
        assert_eq!(h["class"], 2);
        assert_eq!(h["interface"], 2);
        assert_eq!(h["superclass"], 1); // B <: A (A extends Object: none)
        assert_eq!(h["implements"], 1);
        assert_eq!(h["iface-extends"], 1);
        assert_eq!(h["field"], 1);
        assert_eq!(h["method"], 1);
        assert_eq!(h["method-code"], 1);
        assert_eq!(h["constructor"], 2);
        assert_eq!(h["constructor-code"], 2);
        assert_eq!(h["signature"], 1);
        assert_eq!(reg.len(), 15);
    }

    #[test]
    fn index_agrees_with_the_registry() {
        let p = sample_program();
        let (reg, index) = ItemRegistry::indexed(&p);
        let var = |item: Item| reg.var(&item);
        assert_eq!(index.ty("Object"), None);
        assert_eq!(index.ty("A"), var(Item::Class("A".into())));
        assert_eq!(index.ty("I"), var(Item::Interface("I".into())));
        assert_eq!(
            index.relation(Edge::Extends, "B", "A"),
            var(Item::SuperClass("B".into(), "A".into()))
        );
        assert_eq!(index.relation(Edge::Implements, "B", "A"), None);
        assert_eq!(
            index.relation(Edge::IfaceExtends, "I", "J"),
            var(Item::InterfaceExtends("I".into(), "J".into()))
        );
        assert_eq!(
            index.field("A", "f"),
            var(Item::Field("A".into(), "f".into()))
        );
        assert_eq!(
            index.member(Member::Method, "A", "m", "()V"),
            var(Item::Method("A".into(), "m".into(), "()V".into()))
        );
        assert_eq!(index.member(Member::Signature, "A", "m", "()V"), None);
        assert_eq!(
            index.member(Member::Constructor, "B", "<init>", "()V"),
            var(Item::Constructor("B".into(), "()V".into()))
        );
        let a = &index.classes()[0];
        assert_eq!(Some(a.var), index.ty("A"));
        assert_eq!(
            (Some(a.methods[1].0), a.methods[1].1),
            (
                index.member(Member::Method, "A", "m", "()V"),
                var(Item::MethodCode("A".into(), "m".into(), "()V".into()))
            )
        );
    }

    #[test]
    fn repeated_items_resolve_to_the_first() {
        let mut p = sample_program();
        let a = p.get_mut("A").unwrap();
        a.interfaces.push("I".into());
        a.fields.push(FieldInfo::new("f", Type::Int));
        let m = a.methods[1].clone();
        a.methods.push(m);
        let (reg, index) = ItemRegistry::indexed(&p);
        assert_eq!(reg.len(), 15, "no repeat is a new item");
        let a = &index.classes()[0];
        assert_eq!(a.interfaces[0], a.interfaces[1]);
        assert_eq!(a.fields[0], a.fields[1]);
        assert_eq!(a.methods[1], a.methods[2]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Item::MethodCode("A".into(), "m".into(), "()V".into()).to_string(),
            "[A.m()V!code]"
        );
        assert_eq!(
            Item::SuperClass("B".into(), "A".into()).to_string(),
            "[B<:A]"
        );
        assert_eq!(
            Item::Implements("A".into(), "I".into()).to_string(),
            "[A<I]"
        );
    }

    #[test]
    fn kept_and_render() {
        let p = sample_program();
        let reg = ItemRegistry::from_program(&p);
        let mut keep = VarSet::empty(reg.len());
        let a = Item::Class("A".into());
        keep.insert(reg.var(&a).unwrap());
        assert!(reg.kept(&a, &keep));
        assert!(!reg.kept(&Item::Class("B".into()), &keep));
        assert!(reg.kept(&Item::Class("Object".into()), &keep)); // builtin
        assert_eq!(reg.render_solution(&keep), "[A]");
    }

    #[test]
    fn owner_and_kind() {
        let i = Item::Field("A".into(), "f".into());
        assert_eq!(i.owner(), "A");
        assert_eq!(i.kind(), "field");
    }
}
