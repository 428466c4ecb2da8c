//! Binary writer for the class-file format.
//!
//! The layout follows the JVM class-file format: magic `0xCAFEBABE`,
//! version, constant pool, access flags, this/super class, interfaces,
//! fields, methods with a `Code` attribute, and class attributes. Two
//! simplifications are documented deviations: integer constants are
//! encoded inline after opcode `0x12` (instead of via `CONSTANT_Integer`
//! pool entries), and local-slot operands are always 2 bytes (the `wide`
//! form).

use crate::{ClassFile, Code, Constant, ConstantPool, Insn, Program};

/// Serializes a class to its binary form.
///
/// # Examples
///
/// ```
/// use lbr_classfile::{write_class, read_class, ClassFile};
/// let c = ClassFile::new_class("A");
/// let bytes = write_class(&c);
/// assert_eq!(&bytes[..4], &[0xCA, 0xFE, 0xBA, 0xBE]);
/// assert_eq!(read_class(&bytes).unwrap(), c);
/// ```
pub fn write_class(class: &ClassFile) -> Vec<u8> {
    let mut pool = ConstantPool::new();
    // Pre-intern structural entries.
    let this_idx = pool.class(&class.name);
    let super_idx = class.superclass.as_ref().map(|s| pool.class(s));
    let iface_idxs: Vec<u16> = class.interfaces.iter().map(|i| pool.class(i)).collect();
    let code_attr_name = pool.utf8("Code");

    struct FieldEnc {
        flags: u16,
        name: u16,
        desc: u16,
    }
    let fields: Vec<FieldEnc> = class
        .fields
        .iter()
        .map(|f| FieldEnc {
            flags: f.flags.bits(),
            name: pool.utf8(&f.name),
            desc: pool.utf8(&f.ty.descriptor()),
        })
        .collect();

    struct MethodEnc {
        flags: u16,
        name: u16,
        desc: u16,
        code: Option<(u16, u16, Vec<u8>)>,
    }
    let methods: Vec<MethodEnc> = class
        .methods
        .iter()
        .map(|m| MethodEnc {
            flags: m.flags.bits(),
            name: pool.utf8(&m.name),
            desc: pool.utf8(&m.desc.descriptor()),
            code: m
                .code
                .as_ref()
                .map(|c| (c.max_stack, c.max_locals, encode_code(c, &mut pool))),
        })
        .collect();

    // Assemble.
    let mut out = Vec::new();
    put_u32(&mut out, 0xCAFE_BABE);
    put_u16(&mut out, 0); // minor
    put_u16(&mut out, 52); // major (Java 8)
    put_u16(&mut out, (pool.len() + 1) as u16);
    for e in pool.entries() {
        out.push(e.tag());
        match e {
            Constant::Utf8(s) => {
                put_u16(&mut out, s.len() as u16);
                out.extend_from_slice(s.as_bytes());
            }
            Constant::Integer(i) => put_u32(&mut out, *i as u32),
            Constant::Class(n) => put_u16(&mut out, *n),
            Constant::Fieldref(c, n)
            | Constant::Methodref(c, n)
            | Constant::InterfaceMethodref(c, n)
            | Constant::NameAndType(c, n) => {
                put_u16(&mut out, *c);
                put_u16(&mut out, *n);
            }
        }
    }
    put_u16(&mut out, class.flags.bits());
    put_u16(&mut out, this_idx);
    put_u16(&mut out, super_idx.unwrap_or(0));
    put_u16(&mut out, iface_idxs.len() as u16);
    for i in &iface_idxs {
        put_u16(&mut out, *i);
    }
    put_u16(&mut out, fields.len() as u16);
    for f in &fields {
        put_u16(&mut out, f.flags);
        put_u16(&mut out, f.name);
        put_u16(&mut out, f.desc);
        put_u16(&mut out, 0); // attributes
    }
    put_u16(&mut out, methods.len() as u16);
    for m in &methods {
        put_u16(&mut out, m.flags);
        put_u16(&mut out, m.name);
        put_u16(&mut out, m.desc);
        match &m.code {
            None => put_u16(&mut out, 0),
            Some((max_stack, max_locals, bytecode)) => {
                put_u16(&mut out, 1);
                put_u16(&mut out, code_attr_name);
                // attribute length: 2 + 2 + 4 + code + 2 (exceptions) + 2 (attrs)
                put_u32(&mut out, (2 + 2 + 4 + bytecode.len() + 2 + 2) as u32);
                put_u16(&mut out, *max_stack);
                put_u16(&mut out, *max_locals);
                put_u32(&mut out, bytecode.len() as u32);
                out.extend_from_slice(bytecode);
                put_u16(&mut out, 0); // exception table
                put_u16(&mut out, 0); // code attributes
            }
        }
    }
    put_u16(&mut out, 0); // class attributes
    out
}

/// Lowers instructions to bytes, resolving symbolic references through the
/// pool and branch targets to relative byte offsets.
fn encode_code(code: &Code, pool: &mut ConstantPool) -> Vec<u8> {
    // First pass: byte offset of each instruction.
    let mut offsets = Vec::with_capacity(code.insns.len());
    let mut at = 0usize;
    for insn in &code.insns {
        offsets.push(at);
        at += insn.encoded_len();
    }
    let mut out = Vec::with_capacity(at);
    for (i, insn) in code.insns.iter().enumerate() {
        let here = offsets[i];
        out.push(insn.opcode());
        match insn {
            Insn::IConst(v) => put_u32(&mut out, *v as u32),
            Insn::ILoad(s) | Insn::IStore(s) | Insn::ALoad(s) | Insn::AStore(s) => {
                put_u16(&mut out, *s)
            }
            Insn::LdcClass(c) | Insn::New(c) | Insn::CheckCast(c) | Insn::InstanceOf(c) => {
                let idx = pool.class(c);
                put_u16(&mut out, idx);
            }
            Insn::GetField(f) | Insn::PutField(f) => {
                let idx = pool.fieldref(&f.class, &f.name, &f.ty.descriptor());
                put_u16(&mut out, idx);
            }
            Insn::InvokeVirtual(m) | Insn::InvokeSpecial(m) | Insn::InvokeStatic(m) => {
                let idx = pool.methodref(&m.class, &m.name, &m.desc.descriptor());
                put_u16(&mut out, idx);
            }
            Insn::InvokeInterface(m) => {
                let idx = pool.interface_methodref(&m.class, &m.name, &m.desc.descriptor());
                put_u16(&mut out, idx);
                out.push((m.desc.params.len() + 1) as u8); // count
                out.push(0);
            }
            Insn::Goto(target) | Insn::IfEq(target) => {
                let target_off = offsets[*target as usize] as i64;
                let delta = target_off - here as i64;
                put_u16(&mut out, delta as i16 as u16);
            }
            _ => {}
        }
    }
    out
}

/// Serializes a whole program as a container: magic `LBRC`, class count,
/// then length-prefixed class files.
pub fn write_program(program: &Program) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"LBRC");
    put_u32(&mut out, program.len() as u32);
    for class in program.classes() {
        let bytes = write_class(class);
        put_u32(&mut out, bytes.len() as u32);
        out.extend_from_slice(&bytes);
    }
    out
}

/// The serialized size of a program in bytes — the paper's primary size
/// metric ("Final Relative Size (Bytes)").
///
/// Computed without materializing the bytes ([`class_byte_size`]). A
/// reduction's candidates carry their size instead: the materializer sums
/// per-class sizes from each class's size plan, and building a program's
/// model records the program's own size from the same plans, so this
/// memo-free path measures only programs no reduction built and no model
/// was built of.
pub fn program_byte_size(program: &Program) -> usize {
    program.classes().map(class_byte_size).sum()
}

/// Computes `write_class(class).len()` without producing the bytes: the
/// size of the class's size plan with every member kept.
pub fn class_byte_size(class: &ClassFile) -> usize {
    SizePlan::new(class).size(|_| true)
}

/// A member of a class whose removal changes the class's size.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Part {
    /// The superclass relation; when dropped the class extends `Object`.
    Superclass,
    /// The interface listed at this position.
    Interface(usize),
    /// The field at this position.
    Field(usize),
    /// The declaration of the method at this position.
    Method(usize),
    /// The body of the method at this position; when dropped (and the
    /// declaration kept) the method gets the stub [`Code::trivial`].
    Body(usize),
}

/// The byte size of one class by member, so that the size of any of its
/// reductions is a sum over the members it keeps.
///
/// The plan interns the class once, with its `Object` fallback, and
/// records per member the pool entries that member needs, nested ones
/// included (a `Methodref` brings its `Class`, its `NameAndType` and
/// their `Utf8`s), plus the member's fixed table and code bytes. A
/// reduced class's size is the kept members' fixed bytes plus the sizes of
/// the union of their entries: the pool's *contents* determine its size
/// (entry order does not), so the sum is exact.
#[derive(Debug)]
pub(crate) struct SizePlan {
    /// The serialized size of each entry of the class's pool, by id (the
    /// entry's pool index less one).
    entries: Box<[u32]>,
    /// The entry ids of every footprint, back to back, each footprint's
    /// without repeats.
    ids: Box<[u16]>,
    /// The header, the class's own name and the `Code` attribute name.
    base: Footprint,
    superclass: Footprint,
    /// `extends Object`, what a dropped superclass relation leaves.
    object: Footprint,
    interfaces: Box<[Footprint]>,
    fields: Box<[Footprint]>,
    /// Per method: the declaration, the body and the stub.
    methods: Box<[[Footprint; 3]]>,
}

/// What one member adds: its fixed bytes and a range of
/// [`SizePlan::ids`].
#[derive(Debug, Clone, Copy)]
struct Footprint {
    bytes: u32,
    start: u32,
    end: u32,
}

/// Fills a [`SizePlan`]'s footprints from the class's pool.
struct PlanBuilder {
    pool: ConstantPool,
    ids: Vec<u16>,
    /// Where the open footprint's ids start in `ids`.
    start: usize,
    /// The number of the open footprint, counting from 1.
    member: u32,
    /// Per entry id, the last footprint that recorded it.
    recorded: Vec<u32>,
    /// A descriptor being rendered.
    desc: String,
}

impl PlanBuilder {
    /// Records the entry at `index` and every entry it refers to,
    /// transitively, in the open footprint.
    fn need(&mut self, index: u16) {
        let id = usize::from(index - 1);
        if self.recorded.len() <= id {
            self.recorded.resize(id + 1, 0);
        }
        if self.recorded[id] == self.member {
            return; // and so is everything it refers to
        }
        self.recorded[id] = self.member;
        self.ids.push(index - 1);
        match self.pool.get(index) {
            Some(&Constant::Class(n)) => self.need(n),
            Some(
                &(Constant::Fieldref(a, b)
                | Constant::Methodref(a, b)
                | Constant::InterfaceMethodref(a, b)
                | Constant::NameAndType(a, b)),
            ) => {
                self.need(a);
                self.need(b);
            }
            _ => {}
        }
    }

    /// Closes the open footprint, which adds `bytes` of its own.
    fn footprint(&mut self, bytes: usize) -> Footprint {
        let footprint = Footprint {
            bytes: bytes as u32,
            start: self.start as u32,
            end: self.ids.len() as u32,
        };
        self.start = self.ids.len();
        self.member += 1;
        footprint
    }

    /// Records a class entry in the open footprint.
    fn class(&mut self, name: &str) {
        let index = self.pool.class(name);
        self.need(index);
    }

    /// Records a name and a descriptor in the open footprint; `render`
    /// writes the descriptor.
    fn name_and_desc(&mut self, name: &str, render: impl FnOnce(&mut String)) {
        self.desc.clear();
        render(&mut self.desc);
        let (name, desc) = (self.pool.utf8(name), self.pool.utf8(&self.desc));
        self.need(name);
        self.need(desc);
    }

    /// A method's code attribute: its fixed bytes, with the entries its
    /// instructions need (as [`encode_code`] interns them) recorded.
    fn code(&mut self, code: &Code) -> usize {
        for insn in &code.insns {
            let (pool, desc) = (&mut self.pool, &mut self.desc);
            desc.clear();
            let index = match insn {
                Insn::LdcClass(c) | Insn::New(c) | Insn::CheckCast(c) | Insn::InstanceOf(c) => {
                    pool.class(c)
                }
                Insn::GetField(f) | Insn::PutField(f) => {
                    f.ty.write_descriptor(desc);
                    pool.fieldref(&f.class, &f.name, desc)
                }
                Insn::InvokeVirtual(m) | Insn::InvokeSpecial(m) | Insn::InvokeStatic(m) => {
                    m.desc.write_descriptor(desc);
                    pool.methodref(&m.class, &m.name, desc)
                }
                Insn::InvokeInterface(m) => {
                    m.desc.write_descriptor(desc);
                    pool.interface_methodref(&m.class, &m.name, desc)
                }
                _ => continue,
            };
            self.need(index);
        }
        let code_len: usize = code.insns.iter().map(Insn::encoded_len).sum();
        // attribute name + length + (stack/locals/len + code + exc + attrs)
        2 + 4 + (2 + 2 + 4 + code_len + 2 + 2)
    }
}

impl SizePlan {
    /// The plan of `class`.
    pub(crate) fn new(class: &ClassFile) -> Self {
        let mut b = PlanBuilder {
            pool: ConstantPool::new(),
            ids: Vec::new(),
            start: 0,
            member: 1,
            recorded: Vec::new(),
            desc: String::new(),
        };
        b.class(&class.name);
        let code = b.pool.utf8("Code");
        b.need(code);
        // magic + version + pool count + flags + this + super, then the
        // interface, field and method counts and the class attributes.
        let base = b.footprint(4 + 4 + 2 + 2 + 2 + 2 + 2 + 2 + 2 + 2);
        if let Some(s) = &class.superclass {
            b.class(s);
        }
        let superclass = b.footprint(0);
        b.class(crate::OBJECT);
        let object = b.footprint(0);
        let interfaces = (class.interfaces.iter())
            .map(|i| {
                b.class(i);
                b.footprint(2)
            })
            .collect();
        // Each field and method: flags, name, descriptor, attribute count.
        let fields = (class.fields.iter())
            .map(|f| {
                b.name_and_desc(&f.name, |out| f.ty.write_descriptor(out));
                b.footprint(8)
            })
            .collect();
        let stub = b.code(&Code::trivial(0));
        let methods = (class.methods.iter())
            .map(|m| {
                b.name_and_desc(&m.name, |out| m.desc.write_descriptor(out));
                let decl = b.footprint(8);
                let body = m.code.as_ref().map_or(0, |code| b.code(code));
                let body = b.footprint(body);
                [decl, body, b.footprint(stub)]
            })
            .collect();
        SizePlan {
            entries: b.pool.entries().iter().map(constant_size).collect(),
            ids: b.ids.into(),
            base,
            superclass,
            object,
            interfaces,
            fields,
            methods,
        }
    }

    /// `write_class(..).len()` of the class with only the members `kept`
    /// accepts: a dropped superclass becomes `Object`, and a dropped body
    /// of a kept method the stub.
    pub(crate) fn size(&self, kept: impl Fn(Part) -> bool) -> usize {
        let mut seen = vec![0u64; self.entries.len().div_ceil(64)];
        let mut total = 0;
        let mut add = |f: &Footprint| {
            total += f.bytes as usize;
            for &id in &self.ids[f.start as usize..f.end as usize] {
                let (word, bit) = (id as usize / 64, 1 << (id % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
                    total += self.entries[id as usize] as usize;
                }
            }
        };
        add(&self.base);
        add(if kept(Part::Superclass) {
            &self.superclass
        } else {
            &self.object
        });
        for (i, f) in self.interfaces.iter().enumerate() {
            if kept(Part::Interface(i)) {
                add(f);
            }
        }
        for (i, f) in self.fields.iter().enumerate() {
            if kept(Part::Field(i)) {
                add(f);
            }
        }
        for (i, [decl, body, stub]) in self.methods.iter().enumerate() {
            if kept(Part::Method(i)) {
                add(decl);
                add(if kept(Part::Body(i)) { body } else { stub });
            }
        }
        total
    }
}

/// Serialized size of one constant-pool entry (tag byte included).
fn constant_size(c: &Constant) -> u32 {
    1 + match c {
        Constant::Utf8(s) => 2 + s.len() as u32,
        Constant::Integer(_) => 4,
        Constant::Class(_) => 2,
        Constant::Fieldref(..)
        | Constant::Methodref(..)
        | Constant::InterfaceMethodref(..)
        | Constant::NameAndType(..) => 4,
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FieldInfo, MethodDescriptor, MethodInfo, MethodRef, Type};

    #[test]
    fn magic_and_version() {
        let bytes = write_class(&ClassFile::new_class("A"));
        assert_eq!(&bytes[..4], &[0xCA, 0xFE, 0xBA, 0xBE]);
        assert_eq!(&bytes[4..8], &[0, 0, 0, 52]);
    }

    #[test]
    fn size_grows_with_members() {
        let empty = write_class(&ClassFile::new_class("A")).len();
        let mut c = ClassFile::new_class("A");
        c.fields.push(FieldInfo::new("f", Type::Int));
        c.methods.push(MethodInfo::new(
            "m",
            MethodDescriptor::void(),
            Code::new(2, 1, vec![Insn::Return]),
        ));
        assert!(write_class(&c).len() > empty);
    }

    #[test]
    fn program_container_layout() {
        let mut p = Program::new();
        p.insert(ClassFile::new_class("A"));
        p.insert(ClassFile::new_class("B"));
        let bytes = write_program(&p);
        assert_eq!(&bytes[..4], b"LBRC");
        assert_eq!(u32::from_be_bytes(bytes[4..8].try_into().unwrap()), 2);
        assert!(program_byte_size(&p) < bytes.len());
    }

    #[test]
    fn branch_offsets_relative() {
        // goto forward over a nop: delta = 1 (nop) ... encoded relative to
        // the goto's own offset.
        let code = Code::new(1, 1, vec![Insn::Goto(2), Insn::Nop, Insn::Return]);
        let mut pool = ConstantPool::new();
        let bytes = encode_code(&code, &mut pool);
        assert_eq!(bytes[0], 0xa7);
        let delta = i16::from_be_bytes([bytes[1], bytes[2]]);
        assert_eq!(delta, 4); // goto is 3 bytes + 1 nop byte
    }

    #[test]
    fn class_byte_size_is_exact() {
        use crate::FieldRef;
        // A class exercising every pool-touching instruction plus repeated
        // references (so interning dedup matters).
        let mut c = ClassFile::new_class("A");
        c.superclass = Some("Base".into());
        c.interfaces.push("I".into());
        c.interfaces.push("J".into());
        c.fields.push(FieldInfo::new("f", Type::Int));
        c.fields.push(FieldInfo::new("g", Type::reference("B")));
        c.methods
            .push(MethodInfo::new_abstract("abs", MethodDescriptor::void()));
        c.methods.push(MethodInfo::new(
            "m",
            MethodDescriptor::new(vec![Type::Int], Some(Type::Int)),
            Code::new(
                3,
                2,
                vec![
                    Insn::ALoad(0),
                    Insn::IConst(7),
                    Insn::GetField(FieldRef::new("A", "f", Type::Int)),
                    Insn::PutField(FieldRef::new("A", "f", Type::Int)),
                    Insn::New("B".into()),
                    Insn::CheckCast("B".into()),
                    Insn::InstanceOf("I".into()),
                    Insn::LdcClass("J".into()),
                    Insn::InvokeVirtual(MethodRef::new("A", "m", MethodDescriptor::void())),
                    Insn::InvokeSpecial(MethodRef::new("Base", "<init>", MethodDescriptor::void())),
                    Insn::InvokeStatic(MethodRef::new("B", "s", MethodDescriptor::void())),
                    Insn::InvokeInterface(MethodRef::new("I", "m", MethodDescriptor::void())),
                    Insn::Goto(14),
                    Insn::Nop,
                    Insn::IReturn,
                ],
            ),
        ));
        assert_eq!(class_byte_size(&c), write_class(&c).len());
        // And on the trivial shapes.
        let plain = ClassFile::new_class("P");
        assert_eq!(class_byte_size(&plain), write_class(&plain).len());
        let iface = ClassFile::new_interface("Q");
        assert_eq!(class_byte_size(&iface), write_class(&iface).len());
    }

    #[test]
    fn invokeinterface_count_byte() {
        let code = Code::new(
            1,
            1,
            vec![Insn::InvokeInterface(MethodRef::new(
                "I",
                "m",
                MethodDescriptor::new(vec![Type::Int, Type::Int], None),
            ))],
        );
        let mut pool = ConstantPool::new();
        let bytes = encode_code(&code, &mut pool);
        assert_eq!(bytes[0], 0xb9);
        assert_eq!(bytes[3], 3); // this + 2 int args
        assert_eq!(bytes[4], 0);
    }
}
