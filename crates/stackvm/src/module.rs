//! The stack-machine bytecode format: modules, functions, globals, ops.
//!
//! A [`Module`] is the second input format behind `lbr-core`'s `Input`
//! trait. It is deliberately smaller than the classfile format — two
//! value types, twenty-odd opcodes, structured control flow by absolute
//! branch targets — because its job is to exercise the *format-agnostic*
//! half of the reducer, not to model a production VM. What it does have
//! is a real abstract-interpretation verifier (see [`crate::verify`])
//! whose resolution callbacks generate the reduction constraints.

use lbr_core::Scope;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// A value type on the operand stack, in locals, and in globals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Ty {
    /// 64-bit signed integer.
    Int,
    /// Boolean.
    Bool,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => write!(f, "int"),
            Ty::Bool => write!(f, "bool"),
        }
    }
}

/// A function signature: parameter types plus optional return type.
/// `CallIndirect` dispatches on signatures, so equality matters.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sig {
    pub params: Vec<Ty>,
    pub ret: Option<Ty>,
}

impl Sig {
    pub fn new(params: Vec<Ty>, ret: Option<Ty>) -> Self {
        Sig { params, ret }
    }
}

impl fmt::Display for Sig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ")")?;
        match &self.ret {
            Some(r) => write!(f, " -> {r}"),
            None => Ok(()),
        }
    }
}

/// One instruction. Branch targets are absolute indices into the body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Push an integer constant.
    PushInt(i64),
    /// Push a boolean constant.
    PushBool(bool),
    /// Pop two ints, push their sum.
    Add,
    /// Pop two ints, push their difference.
    Sub,
    /// Pop two ints, push their product.
    Mul,
    /// Pop two ints, push whether they are equal.
    Eq,
    /// Pop two ints, push whether the first is less than the second.
    Lt,
    /// Pop a bool, push its negation.
    Not,
    /// Duplicate the top of the stack.
    Dup,
    /// Discard the top of the stack.
    Drop,
    /// Push the value of local slot `n` (params occupy the low slots).
    LocalGet(u32),
    /// Pop into local slot `n`.
    LocalSet(u32),
    /// Push the value of a named module global.
    GlobalGet(String),
    /// Pop into a named module global.
    GlobalSet(String),
    /// Call a function by name: pops its params, pushes its return.
    Call(String),
    /// Pop an int index and dispatch to *some* function with this
    /// signature. The verifier only demands that at least one function
    /// with a matching signature exists — which is exactly an
    /// Or-constraint over the candidates.
    CallIndirect(Sig),
    /// Unconditional branch to an absolute instruction index.
    Jump(u32),
    /// Pop a bool; branch to the target when it is true.
    JumpIf(u32),
    /// Return from the function (pops the declared return value, if any).
    Return,
    /// Halt with a runtime error. Verifies under any stack — this is the
    /// body stub the reducer leaves behind, mirroring the classfile
    /// reducer's `aconst_null; athrow`.
    Trap,
}

/// A named module-level mutable variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Global {
    pub name: String,
    pub ty: Ty,
}

impl Global {
    pub fn new(name: impl Into<String>, ty: Ty) -> Self {
        Global {
            name: name.into(),
            ty,
        }
    }
}

/// One function: signature, extra local slots, a declared operand-stack
/// budget, and a body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Function {
    pub name: String,
    pub params: Vec<Ty>,
    pub ret: Option<Ty>,
    /// Types of the local slots *after* the params: local slot `i` is
    /// `params[i]` for `i < params.len()`, else `locals[i - params.len()]`.
    pub locals: Vec<Ty>,
    /// Declared maximum operand-stack depth; the verifier enforces it.
    pub max_stack: u32,
    pub body: Vec<Op>,
}

impl Function {
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret: Option<Ty>) -> Self {
        Function {
            name: name.into(),
            params,
            ret,
            locals: Vec::new(),
            max_stack: 8,
            body: vec![Op::Trap],
        }
    }

    /// Total number of local slots (params + extra locals).
    pub fn local_count(&self) -> usize {
        self.params.len() + self.locals.len()
    }

    /// The type of local slot `n`, if it exists.
    pub fn local_ty(&self, n: u32) -> Option<Ty> {
        let n = n as usize;
        if n < self.params.len() {
            Some(self.params[n])
        } else {
            self.locals.get(n - self.params.len()).copied()
        }
    }
}

/// A module: an ordered list of functions and globals. Order is part of
/// the format (serialization round-trips it), and the item registry
/// derives variable numbering from it, so reduction is deterministic.
///
/// Functions are shared: the candidates of one reduction hold the
/// original module's unchanged functions (and each stubbed function's
/// one stub) by reference count instead of copying them. Edit one in
/// place with `Arc::make_mut`.
///
/// The candidates of one reduction also share a *reduction scope*, a typed
/// side table ([`Module::scoped`]) in which a tool can memoize work across
/// the reduction's probes. Equality ignores it.
#[derive(Debug, Clone, Default)]
pub struct Module {
    pub functions: Vec<Arc<Function>>,
    pub globals: Vec<Global>,
    /// The reduction scope, when a reduction's materializer built this
    /// module. Edits keep it: the scope's memos key on function handles,
    /// and an edited function is a new handle.
    scope: Option<Arc<Scope>>,
}

/// Equality is over the functions and globals.
impl PartialEq for Module {
    fn eq(&self, other: &Self) -> bool {
        self.functions == other.functions && self.globals == other.globals
    }
}

impl Eq for Module {}

impl Module {
    pub fn new() -> Self {
        Module::default()
    }

    /// A candidate of the reduction `scope` belongs to.
    pub(crate) fn in_scope(
        functions: Vec<Arc<Function>>,
        globals: Vec<Global>,
        scope: Option<&Arc<Scope>>,
    ) -> Self {
        Module {
            functions,
            globals,
            scope: scope.cloned(),
        }
    }

    /// This module's table of type `T` in its reduction scope (see
    /// [`Module`]). Every candidate of one reduction gets the same table,
    /// which is dropped with the reduction's materializer and last
    /// candidate. A module that no reduction built gets a fresh, empty
    /// table on every call, so a tool has one code path either way.
    pub fn scoped<T: Any + Default + Send + Sync>(&self) -> Arc<T> {
        Scope::table_in(self.scope.as_deref())
    }

    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().map(|f| &**f).find(|f| f.name == name)
    }

    /// Number of top-level units (functions + globals); the stackvm
    /// analog of a program's class count.
    pub fn unit_count(&self) -> usize {
        self.functions.len() + self.globals.len()
    }
}

impl FromIterator<Function> for Module {
    fn from_iter<I: IntoIterator<Item = Function>>(iter: I) -> Self {
        Module {
            functions: iter.into_iter().map(Arc::new).collect(),
            ..Module::default()
        }
    }
}
