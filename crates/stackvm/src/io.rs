//! Binary reader/writer for stackvm modules.
//!
//! The container is magic `LBRS`, a format version byte, function and
//! global counts, then the units in module order. All integers are
//! big-endian; strings are length-prefixed UTF-8. The writer and reader
//! round-trip exactly (`read_module(write_module(m)) == m`), which the
//! format-agnostic `check_report` validation relies on.

use crate::facts::{key, lock};
use crate::module::{Function, Global, Module, Op, Sig, Ty};
use lbr_core::AddressMap;
use std::sync::{Arc, Mutex};

const MAGIC: &[u8; 4] = b"LBRS";
const VERSION: u8 = 1;

/// An error from decoding a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for ReadError {}

/// Where the writers put bytes: a `Vec<u8>` for [`write_module`], or a
/// [`ByteCount`] that only adds up lengths for [`module_byte_size`]. One
/// encoder serves both, so the size metric is the encoding's exact length.
trait ByteSink {
    fn put(&mut self, byte: u8);
    fn put_slice(&mut self, bytes: &[u8]);
}

impl ByteSink for Vec<u8> {
    fn put(&mut self, byte: u8) {
        self.push(byte);
    }

    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A sink that counts the bytes written to it and keeps none.
struct ByteCount(usize);

impl ByteSink for ByteCount {
    fn put(&mut self, _: u8) {
        self.0 += 1;
    }

    fn put_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

fn write_str(out: &mut impl ByteSink, s: &str) {
    let bytes = s.as_bytes();
    out.put_slice(&(bytes.len() as u16).to_be_bytes());
    out.put_slice(bytes);
}

fn ty_byte(ty: Ty) -> u8 {
    match ty {
        Ty::Int => 0,
        Ty::Bool => 1,
    }
}

fn write_ret(out: &mut impl ByteSink, ret: Option<Ty>) {
    match ret {
        None => out.put(0),
        Some(t) => {
            out.put(1);
            out.put(ty_byte(t));
        }
    }
}

fn write_sig(out: &mut impl ByteSink, sig: &Sig) {
    out.put_slice(&(sig.params.len() as u16).to_be_bytes());
    for p in &sig.params {
        out.put(ty_byte(*p));
    }
    write_ret(out, sig.ret);
}

fn write_op(out: &mut impl ByteSink, op: &Op) {
    match op {
        Op::PushInt(v) => {
            out.put(0x01);
            out.put_slice(&v.to_be_bytes());
        }
        Op::PushBool(b) => {
            out.put(0x02);
            out.put(*b as u8);
        }
        Op::Add => out.put(0x03),
        Op::Sub => out.put(0x04),
        Op::Mul => out.put(0x05),
        Op::Eq => out.put(0x06),
        Op::Lt => out.put(0x07),
        Op::Not => out.put(0x08),
        Op::Dup => out.put(0x09),
        Op::Drop => out.put(0x0A),
        Op::LocalGet(n) => {
            out.put(0x0B);
            out.put_slice(&n.to_be_bytes());
        }
        Op::LocalSet(n) => {
            out.put(0x0C);
            out.put_slice(&n.to_be_bytes());
        }
        Op::GlobalGet(name) => {
            out.put(0x0D);
            write_str(out, name);
        }
        Op::GlobalSet(name) => {
            out.put(0x0E);
            write_str(out, name);
        }
        Op::Call(name) => {
            out.put(0x0F);
            write_str(out, name);
        }
        Op::CallIndirect(sig) => {
            out.put(0x10);
            write_sig(out, sig);
        }
        Op::Jump(t) => {
            out.put(0x11);
            out.put_slice(&t.to_be_bytes());
        }
        Op::JumpIf(t) => {
            out.put(0x12);
            out.put_slice(&t.to_be_bytes());
        }
        Op::Return => out.put(0x13),
        Op::Trap => out.put(0x14),
    }
}

fn write_function(out: &mut impl ByteSink, f: &Function) {
    write_str(out, &f.name);
    out.put_slice(&(f.params.len() as u16).to_be_bytes());
    for p in &f.params {
        out.put(ty_byte(*p));
    }
    write_ret(out, f.ret);
    out.put_slice(&(f.locals.len() as u16).to_be_bytes());
    for l in &f.locals {
        out.put(ty_byte(*l));
    }
    out.put_slice(&f.max_stack.to_be_bytes());
    out.put_slice(&(f.body.len() as u32).to_be_bytes());
    for op in &f.body {
        write_op(out, op);
    }
}

fn write_global(out: &mut impl ByteSink, g: &Global) {
    write_str(out, &g.name);
    out.put(ty_byte(g.ty));
}

/// Serializes a module: magic `LBRS`, version, counts, globals, functions.
pub fn write_module(module: &Module) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(module.globals.len() as u32).to_be_bytes());
    out.extend_from_slice(&(module.functions.len() as u32).to_be_bytes());
    write_units(&mut out, module);
    out
}

/// The units in module order: globals, then functions.
fn write_units(out: &mut impl ByteSink, module: &Module) {
    for g in &module.globals {
        write_global(out, g);
    }
    for f in &module.functions {
        write_function(out, f);
    }
}

/// The byte-size cost metric: the encoded size of the units alone,
/// excluding the fixed 13-byte container header — the same convention as
/// the classfile frontend's `program_byte_size`, so cross-format size
/// tables compare unit payloads, not framing.
///
/// Globals are counted directly; each function's size comes from the
/// size table (`SizeMemo`) of the module's reduction scope, so a probe
/// encodes only the function handles no earlier probe of its reduction
/// measured. A module no reduction built gets a fresh table, so it is
/// measured whole through the same path.
pub fn module_byte_size(module: &Module) -> usize {
    let globals: usize = (module.globals.iter())
        .map(|g| encoded_len(|out| write_global(out, g)))
        .sum();
    let functions = module
        .scoped::<SizeMemo>()
        .functions_size(&module.functions);
    globals + functions
}

/// The length of what `write` puts, counted without producing it.
fn encoded_len(write: impl FnOnce(&mut ByteCount)) -> usize {
    let mut out = ByteCount(0);
    write(&mut out);
    out.0
}

/// The encoded size of every function handle one reduction measured.
///
/// Keyed by the handle's address; the entry holds the handle, so no other
/// function can take that address while the entry lives, and
/// `Arc::make_mut` on a candidate copies instead of editing it. Locking
/// follows the oracle's memo: look up under the lock, measure misses
/// outside it, first insert wins.
#[derive(Default)]
pub(crate) struct SizeMemo {
    functions: Mutex<AddressMap<(Arc<Function>, usize)>>,
}

impl SizeMemo {
    /// The summed encoded size of `functions`.
    fn functions_size(&self, functions: &[Arc<Function>]) -> usize {
        let mut total = 0;
        let mut misses = Vec::new();
        {
            let sizes = lock(&self.functions);
            for f in functions {
                match sizes.get(&key(f)) {
                    Some(&(_, size)) => total += size,
                    None => misses.push(f),
                }
            }
        }
        if misses.is_empty() {
            return total;
        }
        let measured: Vec<usize> = (misses.iter())
            .map(|f| encoded_len(|out| write_function(out, f)))
            .collect();
        let mut sizes = lock(&self.functions);
        for (f, size) in misses.into_iter().zip(measured) {
            sizes.entry(key(f)).or_insert_with(|| (Arc::clone(f), size));
            total += size;
        }
        total
    }
}

struct Cursor<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> Cursor<'b> {
    fn err(&self, detail: impl Into<String>) -> ReadError {
        ReadError {
            offset: self.pos,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'b [u8], ReadError> {
        if self.pos + n > self.bytes.len() {
            return Err(self.err(format!("truncated: wanted {n} bytes")));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array; truncation is a [`ReadError`],
    /// never a panic.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let Some(&array) = self.bytes[self.pos..].first_chunk::<N>() else {
            return Err(self.err(format!("truncated: wanted {N} bytes")));
        };
        self.pos += N;
        Ok(array)
    }

    fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(u8::from_be_bytes(self.take_array()?))
    }

    fn u16(&mut self) -> Result<u16, ReadError> {
        Ok(u16::from_be_bytes(self.take_array()?))
    }

    fn u32(&mut self) -> Result<u32, ReadError> {
        Ok(u32::from_be_bytes(self.take_array()?))
    }

    fn i64(&mut self) -> Result<i64, ReadError> {
        Ok(i64::from_be_bytes(self.take_array()?))
    }

    fn str(&mut self) -> Result<String, ReadError> {
        let len = self.u16()? as usize;
        let at = self.pos;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ReadError {
            offset: at,
            detail: "invalid utf-8".into(),
        })
    }

    fn ty(&mut self) -> Result<Ty, ReadError> {
        match self.u8()? {
            0 => Ok(Ty::Int),
            1 => Ok(Ty::Bool),
            b => Err(self.err(format!("unknown type tag {b:#x}"))),
        }
    }

    fn ret(&mut self) -> Result<Option<Ty>, ReadError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.ty()?)),
            b => Err(self.err(format!("unknown return tag {b:#x}"))),
        }
    }

    fn sig(&mut self) -> Result<Sig, ReadError> {
        let n = self.u16()? as usize;
        let mut params = Vec::with_capacity(n);
        for _ in 0..n {
            params.push(self.ty()?);
        }
        Ok(Sig::new(params, self.ret()?))
    }

    fn op(&mut self) -> Result<Op, ReadError> {
        match self.u8()? {
            0x01 => Ok(Op::PushInt(self.i64()?)),
            0x02 => Ok(Op::PushBool(self.u8()? != 0)),
            0x03 => Ok(Op::Add),
            0x04 => Ok(Op::Sub),
            0x05 => Ok(Op::Mul),
            0x06 => Ok(Op::Eq),
            0x07 => Ok(Op::Lt),
            0x08 => Ok(Op::Not),
            0x09 => Ok(Op::Dup),
            0x0A => Ok(Op::Drop),
            0x0B => Ok(Op::LocalGet(self.u32()?)),
            0x0C => Ok(Op::LocalSet(self.u32()?)),
            0x0D => Ok(Op::GlobalGet(self.str()?)),
            0x0E => Ok(Op::GlobalSet(self.str()?)),
            0x0F => Ok(Op::Call(self.str()?)),
            0x10 => Ok(Op::CallIndirect(self.sig()?)),
            0x11 => Ok(Op::Jump(self.u32()?)),
            0x12 => Ok(Op::JumpIf(self.u32()?)),
            0x13 => Ok(Op::Return),
            0x14 => Ok(Op::Trap),
            b => Err(self.err(format!("unknown opcode {b:#x}"))),
        }
    }

    fn function(&mut self) -> Result<Function, ReadError> {
        let name = self.str()?;
        let np = self.u16()? as usize;
        let mut params = Vec::with_capacity(np);
        for _ in 0..np {
            params.push(self.ty()?);
        }
        let ret = self.ret()?;
        let nl = self.u16()? as usize;
        let mut locals = Vec::with_capacity(nl);
        for _ in 0..nl {
            locals.push(self.ty()?);
        }
        let max_stack = self.u32()?;
        let nb = self.u32()? as usize;
        let mut body = Vec::with_capacity(nb.min(1 << 16));
        for _ in 0..nb {
            body.push(self.op()?);
        }
        Ok(Function {
            name,
            params,
            ret,
            locals,
            max_stack,
            body,
        })
    }
}

/// Decodes a module written by [`write_module`].
///
/// # Errors
///
/// Returns [`ReadError`] on truncated input, bad magic, an unsupported
/// version, or a malformed unit.
pub fn read_module(bytes: &[u8]) -> Result<Module, ReadError> {
    let mut c = Cursor { bytes, pos: 0 };
    if c.take(4)? != MAGIC {
        return Err(ReadError {
            offset: 0,
            detail: "bad magic".into(),
        });
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(c.err(format!("unsupported version {version}")));
    }
    let ng = c.u32()? as usize;
    let nf = c.u32()? as usize;
    let mut module = Module::new();
    for _ in 0..ng {
        let name = c.str()?;
        let ty = c.ty()?;
        module.globals.push(Global { name, ty });
    }
    for _ in 0..nf {
        module.functions.push(Arc::new(c.function()?));
    }
    if c.pos != bytes.len() {
        return Err(c.err("trailing bytes after module"));
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Module {
        let mut m = Module::new();
        m.globals.push(Global::new("counter", Ty::Int));
        let mut f = Function::new("main", vec![], Some(Ty::Int));
        f.locals = vec![Ty::Int, Ty::Bool];
        f.body = vec![
            Op::PushInt(7),
            Op::LocalSet(0),
            Op::LocalGet(0),
            Op::PushInt(1),
            Op::Add,
            Op::GlobalSet("counter".into()),
            Op::GlobalGet("counter".into()),
            Op::Return,
        ];
        m.functions.push(f.into());
        let mut g = Function::new("helper", vec![Ty::Int, Ty::Int], Some(Ty::Bool));
        g.body = vec![
            Op::LocalGet(0),
            Op::LocalGet(1),
            Op::Lt,
            Op::Not,
            Op::Return,
        ];
        m.functions.push(g.into());
        m
    }

    #[test]
    fn round_trips_exactly() {
        let m = sample();
        let bytes = write_module(&m);
        assert_eq!(&bytes[..4], b"LBRS");
        assert_eq!(read_module(&bytes), Ok(m));
    }

    /// One function whose body holds every opcode.
    fn every_opcode() -> Module {
        let mut f = Function::new("all", vec![Ty::Int], None);
        f.body = vec![
            Op::PushInt(-5),
            Op::PushBool(true),
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Eq,
            Op::Lt,
            Op::Not,
            Op::Dup,
            Op::Drop,
            Op::LocalGet(3),
            Op::LocalSet(4),
            Op::GlobalGet("g".into()),
            Op::GlobalSet("g".into()),
            Op::Call("f".into()),
            Op::CallIndirect(Sig::new(vec![Ty::Bool], Some(Ty::Int))),
            Op::Jump(0),
            Op::JumpIf(1),
            Op::Return,
            Op::Trap,
        ];
        [f].into_iter().collect()
    }

    #[test]
    fn round_trips_every_opcode() {
        let m = every_opcode();
        assert_eq!(read_module(&write_module(&m)), Ok(m));
    }

    /// A module of `n` functions cycling through names, signatures,
    /// locals and every opcode, plus globals, so sizes vary per unit.
    fn generated(n: usize) -> Module {
        let ops = every_opcode().functions[0].body.clone();
        let mut m = Module::new();
        for g in 0..n / 4 {
            m.globals.push(Global::new(format!("global_{g}"), Ty::Bool));
        }
        for i in 0..n {
            let params = vec![Ty::Int; i % 3];
            let ret = [None, Some(Ty::Int), Some(Ty::Bool)][i % 3];
            let mut f = Function::new("f".repeat(1 + i % 7) + &i.to_string(), params, ret);
            f.locals = vec![Ty::Bool; i % 5];
            f.max_stack = i as u32;
            f.body = ops.iter().cycle().skip(i).take(i % 40).cloned().collect();
            m.functions.push(f.into());
        }
        m
    }

    #[test]
    fn byte_size_excludes_container_header() {
        // magic(4) + version(1) + globals(4) + functions(4) = 13.
        for m in [sample(), every_opcode(), generated(120), Module::new()] {
            assert_eq!(module_byte_size(&m), write_module(&m).len() - 13);
        }
    }

    #[test]
    fn truncated_operands_are_read_errors() {
        // One function whose body is a single operand-carrying op, cut
        // inside its operand: every cut is a `ReadError` at the operand.
        for (op, operand_len) in [
            (Op::PushInt(-5), 8),
            (Op::LocalGet(3), 4),
            (Op::Jump(1), 4),
            (Op::Call("f".into()), 3),
        ] {
            let mut f = Function::new("f", vec![], None);
            f.body = vec![op.clone()];
            let m: Module = [f].into_iter().collect();
            let bytes = write_module(&m);
            let operand_at = bytes.len() - operand_len;
            for cut in operand_at..bytes.len() {
                let err = read_module(&bytes[..cut]).expect_err("truncated operand");
                assert!(
                    err.detail.starts_with("truncated"),
                    "{op:?} cut at {cut}: {err}"
                );
                assert!(
                    err.offset >= operand_at && err.offset <= cut,
                    "{op:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let m = sample();
        let mut bytes = write_module(&m);
        for cut in 0..bytes.len() {
            assert!(read_module(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
        bytes[0] = b'X';
        assert!(read_module(&bytes).is_err());
    }
}
