//! A from-scratch JVM-style class-file substrate for bytecode reduction.
//!
//! The *Logical Bytecode Reduction* paper reduces real Java class files;
//! this crate provides the equivalent substrate built from scratch (per the
//! reproduction's substitution policy): a resolved in-memory IR
//! ([`ClassFile`], [`MethodInfo`], [`Code`], [`Insn`]), a binary format
//! with a real constant pool ([`write_class`] / [`read_class`],
//! round-trip tested), hierarchy queries that report the *relations they
//! used* ([`Program::subtype_path`], [`Program::resolve_method`]), and a
//! verifier ([`verify_program`]) that doubles as the validity oracle and —
//! through [`VerifyHooks`] — as the event source for logical constraint
//! generation.
//!
//! # Example
//!
//! ```
//! use lbr_classfile::*;
//!
//! let mut program = Program::new();
//! let mut class = ClassFile::new_class("A");
//! class.methods.push(MethodInfo::new(
//!     "<init>",
//!     MethodDescriptor::void(),
//!     Code::new(1, 1, vec![Insn::Return]),
//! ));
//! program.insert(class);
//! assert!(verify_program(&program).is_empty());
//!
//! let bytes = write_program(&program);
//! let back = read_program(&bytes)?;
//! assert_eq!(back, program);
//! # Ok::<(), lbr_classfile::ReadError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod class;
mod classgraph;
mod constpool;
mod disasm;
mod flags;
mod input;
mod insn;
mod io;
mod item;
mod model;
mod program;
mod read;
mod reducer;
mod roundtrip;
mod ty;
mod verify;
mod write;

pub use class::{ClassFile, Code, FieldInfo, MethodInfo, OBJECT};
pub use classgraph::ClassGraph;
pub use constpool::{Constant, ConstantPool};
pub use disasm::{disassemble_class, disassemble_code, disassemble_program, mnemonic};
pub use flags::Flags;
pub use insn::{FieldRef, Insn, MethodRef};
pub use io::{read_class_directory, write_class_directory, DirError};
pub use item::{Item, ItemRegistry};
pub use model::{build_model, supertype_paths, LogicalModel, ModelError};
pub use program::{Program, Resolution, Step};
pub use read::{read_class, read_program, ReadError};
pub use reducer::reduce_program;
pub use roundtrip::{round_trip_verify, round_trip_verify_bytes};
pub use ty::{MethodDescriptor, Type};
pub use verify::{
    is_valid, verify_class, verify_class_structure, verify_method_code, verify_program, InvokeKind,
    NoHooks, VerifyError, VerifyHooks,
};
pub use write::{class_byte_size, program_byte_size, write_class, write_program};
