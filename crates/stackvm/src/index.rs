//! One module's names, resolved once.
//!
//! The verifier, the model builder and the unit graph all resolve names:
//! a `Call` its callee, a `GlobalGet`/`GlobalSet` its global, a
//! `CallIndirect` its candidate set. [`NameIndex`] answers each in constant
//! time, so a pass over a module costs time linear in the module.
//!
//! A name resolves to its *first* occurrence in module order, the rule of
//! [`Module::function`]; a later function or global of the same name is
//! never found by name.

use crate::module::{Module, Sig, Ty};
use std::collections::HashMap;

/// The name and signature lookups of one module.
pub(crate) struct NameIndex<'m> {
    module: &'m Module,
    functions: HashMap<&'m str, usize>,
    globals: HashMap<&'m str, usize>,
    /// For each function, the position its name resolves to.
    first: Vec<usize>,
    /// Each signature's number in `candidates`.
    signatures: HashMap<(&'m [Ty], Option<Ty>), usize>,
    /// For each signature, the positions of the functions that have it,
    /// in module order (duplicate names included).
    candidates: Vec<Vec<usize>>,
}

impl<'m> NameIndex<'m> {
    pub(crate) fn new(module: &'m Module) -> Self {
        let mut functions = HashMap::with_capacity(module.functions.len());
        let mut first = Vec::with_capacity(module.functions.len());
        let mut signatures = HashMap::new();
        let mut candidates: Vec<Vec<usize>> = Vec::new();
        for (i, f) in module.functions.iter().enumerate() {
            first.push(*functions.entry(f.name.as_str()).or_insert(i));
            let sig = *signatures
                .entry((f.params.as_slice(), f.ret))
                .or_insert_with(|| {
                    candidates.push(Vec::new());
                    candidates.len() - 1
                });
            candidates[sig].push(i);
        }
        let mut globals = HashMap::with_capacity(module.globals.len());
        for (i, g) in module.globals.iter().enumerate() {
            globals.entry(g.name.as_str()).or_insert(i);
        }
        NameIndex {
            module,
            functions,
            globals,
            first,
            signatures,
            candidates,
        }
    }

    /// The indexed module.
    pub(crate) fn module(&self) -> &'m Module {
        self.module
    }

    /// The position of the first function named `name`.
    pub(crate) fn function(&self, name: &str) -> Option<usize> {
        self.functions.get(name).copied()
    }

    /// The position of the first global named `name`.
    pub(crate) fn global(&self, name: &str) -> Option<usize> {
        self.globals.get(name).copied()
    }

    /// The position the name of function `i` resolves to: `i` itself
    /// unless an earlier function has the same name.
    pub(crate) fn resolved(&self, i: usize) -> usize {
        self.first[i]
    }

    /// The positions of the functions with signature `sig`, in module
    /// order.
    pub(crate) fn candidates(&self, sig: &Sig) -> &[usize] {
        match self.signatures.get(&(sig.params.as_slice(), sig.ret)) {
            Some(&n) => &self.candidates[n],
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Function, Global};

    #[test]
    fn names_resolve_to_their_first_occurrence() {
        let mut m = Module::new();
        m.functions.push(Function::new("a", vec![], None).into());
        m.functions
            .push(Function::new("b", vec![Ty::Int], None).into());
        m.functions
            .push(Function::new("a", vec![Ty::Int], None).into());
        m.globals.push(Global::new("g", Ty::Int));
        m.globals.push(Global::new("g", Ty::Bool));
        let index = NameIndex::new(&m);
        assert_eq!(index.function("a"), Some(0));
        assert_eq!(index.function("b"), Some(1));
        assert_eq!(index.function("c"), None);
        assert_eq!(index.global("g"), Some(0));
        assert_eq!(index.global("h"), None);
        assert_eq!(
            (0..3).map(|i| index.resolved(i)).collect::<Vec<_>>(),
            [0, 1, 0]
        );
        assert_eq!(index.candidates(&Sig::new(vec![Ty::Int], None)), [1, 2]);
        assert_eq!(index.candidates(&Sig::new(vec![], None)), [0]);
        assert!(index
            .candidates(&Sig::new(vec![], Some(Ty::Int)))
            .is_empty());
    }
}
