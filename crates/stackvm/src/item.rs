//! Reducible items of a stackvm module and their variable numbering.
//!
//! Three item kinds: a function's *existence* (its name and signature,
//! callable by others), its *body* (the instructions, stubbable to
//! `Trap`), and a global. Splitting function from body mirrors the
//! classfile registry's class/method-code split: the reducer can keep a
//! callee's signature alive for its callers while discarding the code.

use crate::module::Module;
use lbr_logic::{Var, VarSet};
use std::fmt;

/// One reducible item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StackItem {
    /// Function `functions[i]` exists (name + signature).
    Function(usize),
    /// Function `functions[i]` keeps its real body (vs. a `Trap` stub).
    Body(usize),
    /// Global `globals[i]` exists.
    Global(usize),
}

impl fmt::Display for StackItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackItem::Function(i) => write!(f, "function#{i}"),
            StackItem::Body(i) => write!(f, "body#{i}"),
            StackItem::Global(i) => write!(f, "global#{i}"),
        }
    }
}

/// A deterministic item ↔ variable numbering for one module: for each
/// function in module order, `Function(i)` then `Body(i)`; then each
/// global in module order.
#[derive(Debug, Clone)]
pub struct StackRegistry {
    items: Vec<StackItem>,
}

impl StackRegistry {
    /// Numbers the items of a module.
    pub fn from_module(module: &Module) -> Self {
        let mut items = Vec::with_capacity(2 * module.functions.len() + module.globals.len());
        for i in 0..module.functions.len() {
            items.push(StackItem::Function(i));
            items.push(StackItem::Body(i));
        }
        for i in 0..module.globals.len() {
            items.push(StackItem::Global(i));
        }
        StackRegistry { items }
    }

    /// Number of items (= number of logical variables).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The item numbered `v`.
    pub fn item(&self, v: Var) -> Option<StackItem> {
        self.items.get(v.index()).copied()
    }

    /// The variable of `Function(i)`.
    pub fn function_var(&self, i: usize) -> Var {
        Var::new(2 * i as u32)
    }

    /// The variable of `Body(i)`.
    pub fn body_var(&self, i: usize) -> Var {
        Var::new(2 * i as u32 + 1)
    }

    /// The variable of `Global(i)`. Globals are numbered after all
    /// function/body pairs.
    pub fn global_var(&self, module: &Module, i: usize) -> Var {
        Var::new((2 * module.functions.len() + i) as u32)
    }

    /// Iterates items in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, StackItem)> + '_ {
        self.items
            .iter()
            .enumerate()
            .map(|(i, item)| (Var::new(i as u32), *item))
    }

    /// Renders a keep-set as item names, for reports and debugging.
    pub fn render_solution(&self, keep: &VarSet) -> Vec<String> {
        self.iter()
            .filter(|(v, _)| keep.contains(*v))
            .map(|(_, item)| item.to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Function, Global, Ty};

    #[test]
    fn numbering_is_functions_then_globals() {
        let mut m = Module::new();
        m.functions.push(Function::new("a", vec![], None).into());
        m.functions.push(Function::new("b", vec![], None).into());
        m.globals.push(Global::new("g", Ty::Int));
        let reg = StackRegistry::from_module(&m);
        assert_eq!(reg.len(), 5);
        assert_eq!(reg.item(reg.function_var(0)), Some(StackItem::Function(0)));
        assert_eq!(reg.item(reg.body_var(0)), Some(StackItem::Body(0)));
        assert_eq!(reg.item(reg.function_var(1)), Some(StackItem::Function(1)));
        assert_eq!(reg.item(reg.body_var(1)), Some(StackItem::Body(1)));
        assert_eq!(reg.item(reg.global_var(&m, 0)), Some(StackItem::Global(0)));
    }
}
