//! Binary reader for the class-file format (inverse of
//! [`write`](crate::write_class)).

use crate::{
    ClassFile, Code, Constant, ConstantPool, FieldInfo, FieldRef, Flags, Insn, MethodDescriptor,
    MethodInfo, MethodRef, Program, Type,
};
use std::fmt;
use std::sync::Arc;

/// An error produced while decoding a class file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// Byte offset of the problem (best effort).
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "class read error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ReadError {}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: impl Into<String>) -> ReadError {
        ReadError {
            offset: self.at,
            message: message.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        let (s, _) = self
            .bytes
            .get(self.at..)
            .and_then(|rest| rest.split_at_checked(n))
            .ok_or_else(|| self.err(format!("unexpected end of file (need {n} bytes)")))?;
        self.at += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let s = be_at(self.bytes, self.at)
            .ok_or_else(|| self.err(format!("unexpected end of file (need {N} bytes)")))?;
        self.at += N;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ReadError> {
        self.array().map(u8::from_be_bytes)
    }

    fn u16(&mut self) -> Result<u16, ReadError> {
        self.array().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_be_bytes)
    }
}

/// The `N` bytes of `bytes` starting at `at`, if there are that many.
fn be_at<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    bytes.get(at..)?.first_chunk().copied()
}

/// Decodes a single class file.
///
/// # Errors
///
/// Returns [`ReadError`] on truncated input, bad magic, malformed pool
/// entries, dangling indices, or undecodable bytecode.
pub fn read_class(bytes: &[u8]) -> Result<ClassFile, ReadError> {
    let mut c = Cursor { bytes, at: 0 };
    if c.u32()? != 0xCAFE_BABE {
        return Err(c.err("bad magic"));
    }
    let _minor = c.u16()?;
    let _major = c.u16()?;
    let cp_count = c.u16()? as usize;
    let mut entries = Vec::with_capacity(cp_count.saturating_sub(1));
    for _ in 1..cp_count {
        let tag = c.u8()?;
        entries.push(match tag {
            1 => {
                let len = c.u16()? as usize;
                let raw = c.take(len)?;
                Constant::Utf8(String::from_utf8(raw.to_vec()).map_err(|_| c.err("invalid UTF-8"))?)
            }
            3 => Constant::Integer(c.u32()? as i32),
            7 => Constant::Class(c.u16()?),
            9 => Constant::Fieldref(c.u16()?, c.u16()?),
            10 => Constant::Methodref(c.u16()?, c.u16()?),
            11 => Constant::InterfaceMethodref(c.u16()?, c.u16()?),
            12 => Constant::NameAndType(c.u16()?, c.u16()?),
            other => return Err(c.err(format!("unknown constant tag {other}"))),
        });
    }
    let pool = ConstantPool::from_entries(entries);
    let flags = Flags::from_bits(c.u16()?);
    let this_idx = c.u16()?;
    let name = pool
        .class_name(this_idx)
        .ok_or_else(|| c.err("bad this_class index"))?
        .to_owned();
    let super_idx = c.u16()?;
    let superclass = if super_idx == 0 {
        None
    } else {
        Some(
            pool.class_name(super_idx)
                .ok_or_else(|| c.err("bad super_class index"))?
                .to_owned(),
        )
    };
    let iface_count = c.u16()? as usize;
    let mut interfaces = Vec::with_capacity(iface_count);
    for _ in 0..iface_count {
        let idx = c.u16()?;
        interfaces.push(
            pool.class_name(idx)
                .ok_or_else(|| c.err("bad interface index"))?
                .to_owned(),
        );
    }
    let field_count = c.u16()? as usize;
    let mut fields = Vec::with_capacity(field_count);
    for _ in 0..field_count {
        let fflags = Flags::from_bits(c.u16()?);
        let fname = pool
            .utf8_at(c.u16()?)
            .ok_or_else(|| c.err("bad field name index"))?
            .to_owned();
        let fdesc = pool
            .utf8_at(c.u16()?)
            .ok_or_else(|| c.err("bad field descriptor index"))?;
        let ty = Type::parse(fdesc).ok_or_else(|| c.err("bad field descriptor"))?;
        let attr_count = c.u16()?;
        for _ in 0..attr_count {
            skip_attribute(&mut c)?;
        }
        fields.push(FieldInfo {
            flags: fflags,
            name: fname,
            ty,
        });
    }
    let method_count = c.u16()? as usize;
    let mut methods = Vec::with_capacity(method_count);
    for _ in 0..method_count {
        let mflags = Flags::from_bits(c.u16()?);
        let mname = pool
            .utf8_at(c.u16()?)
            .ok_or_else(|| c.err("bad method name index"))?
            .to_owned();
        let mdesc_str = pool
            .utf8_at(c.u16()?)
            .ok_or_else(|| c.err("bad method descriptor index"))?;
        let desc =
            MethodDescriptor::parse(mdesc_str).ok_or_else(|| c.err("bad method descriptor"))?;
        let attr_count = c.u16()?;
        let mut code = None;
        for _ in 0..attr_count {
            let name_idx = c.u16()?;
            let attr_len = c.u32()? as usize;
            if pool.utf8_at(name_idx) == Some("Code") {
                let max_stack = c.u16()?;
                let max_locals = c.u16()?;
                let code_len = c.u32()? as usize;
                let raw = c.take(code_len)?;
                let insns = decode_code(raw, &pool).map_err(|m| c.err(m))?;
                let _ex = c.u16()?; // exception table (always empty)
                let _attrs = c.u16()?; // nested attributes (always empty)
                code = Some(Arc::new(Code::new(max_stack, max_locals, insns)));
            } else {
                c.take(attr_len)?;
            }
        }
        methods.push(MethodInfo {
            flags: mflags,
            name: mname,
            desc,
            code,
        });
    }
    let class_attr_count = c.u16()?;
    for _ in 0..class_attr_count {
        skip_attribute(&mut c)?;
    }
    Ok(ClassFile {
        name,
        flags,
        superclass,
        interfaces,
        fields,
        methods,
    })
}

fn skip_attribute(c: &mut Cursor<'_>) -> Result<(), ReadError> {
    let _name = c.u16()?;
    let len = c.u32()? as usize;
    c.take(len)?;
    Ok(())
}

/// Decodes bytecode, converting byte offsets of branch targets back to
/// instruction indices.
fn decode_code(raw: &[u8], pool: &ConstantPool) -> Result<Vec<Insn>, String> {
    // First pass: decode with byte targets; remember each insn's offset.
    let mut insns: Vec<(usize, Insn)> = Vec::new();
    let mut at = 0usize;
    let u16_at = |at: usize| -> Result<u16, String> {
        be_at(raw, at)
            .map(u16::from_be_bytes)
            .ok_or_else(|| "truncated operand".to_owned())
    };
    while at < raw.len() {
        let op = raw[at];
        let start = at;
        let member = |idx: u16| -> Result<(String, String, String), String> {
            pool.member_ref(idx)
                .map(|(a, b, c)| (a.to_owned(), b.to_owned(), c.to_owned()))
                .ok_or_else(|| format!("bad member index {idx}"))
        };
        let class_at = |idx: u16| -> Result<String, String> {
            pool.class_name(idx)
                .map(str::to_owned)
                .ok_or_else(|| format!("bad class index {idx}"))
        };
        let insn = match op {
            0x00 => Insn::Nop,
            0x01 => Insn::AConstNull,
            0x12 => {
                let v = be_at(raw, at + 1)
                    .map(i32::from_be_bytes)
                    .ok_or("truncated iconst")?;
                Insn::IConst(v)
            }
            0x15 => Insn::ILoad(u16_at(at + 1)?),
            0x19 => Insn::ALoad(u16_at(at + 1)?),
            0x36 => Insn::IStore(u16_at(at + 1)?),
            0x3a => Insn::AStore(u16_at(at + 1)?),
            0x57 => Insn::Pop,
            0x59 => Insn::Dup,
            0x60 => Insn::IAdd,
            0x13 => Insn::LdcClass(class_at(u16_at(at + 1)?)?),
            0xbb => Insn::New(class_at(u16_at(at + 1)?)?),
            0xb4 | 0xb5 => {
                let (class, name, desc) = member(u16_at(at + 1)?)?;
                let ty = Type::parse(&desc).ok_or("bad field descriptor")?;
                let fr = FieldRef { class, name, ty };
                if op == 0xb4 {
                    Insn::GetField(fr)
                } else {
                    Insn::PutField(fr)
                }
            }
            0xb6..=0xb9 => {
                let (class, name, desc) = member(u16_at(at + 1)?)?;
                let desc = MethodDescriptor::parse(&desc).ok_or("bad method descriptor")?;
                let mr = MethodRef { class, name, desc };
                match op {
                    0xb6 => Insn::InvokeVirtual(mr),
                    0xb7 => Insn::InvokeSpecial(mr),
                    0xb8 => Insn::InvokeStatic(mr),
                    _ => Insn::InvokeInterface(mr),
                }
            }
            0xc0 => Insn::CheckCast(class_at(u16_at(at + 1)?)?),
            0xc1 => Insn::InstanceOf(class_at(u16_at(at + 1)?)?),
            0xa7 | 0x99 => {
                let delta = u16_at(at + 1)? as i16 as i64;
                let target = (start as i64 + delta) as usize;
                // Byte target stored temporarily; fixed up below.
                if op == 0xa7 {
                    Insn::Goto(target as u16)
                } else {
                    Insn::IfEq(target as u16)
                }
            }
            0xb1 => Insn::Return,
            0xb0 => Insn::AReturn,
            0xac => Insn::IReturn,
            0xbf => Insn::AThrow,
            other => return Err(format!("unknown opcode 0x{other:02x}")),
        };
        at += insn.encoded_len();
        insns.push((start, insn));
    }
    // Second pass: byte targets → instruction indices.
    let offsets: Vec<usize> = insns.iter().map(|(off, _)| *off).collect();
    let index_of = move |byte: u16| -> Result<u16, String> {
        offsets
            .iter()
            .position(|off| *off == byte as usize)
            .map(|i| i as u16)
            .ok_or_else(|| format!("branch to non-instruction offset {byte}"))
    };
    insns
        .into_iter()
        .map(|(_, insn)| match insn {
            Insn::Goto(b) => Ok(Insn::Goto(index_of(b)?)),
            Insn::IfEq(b) => Ok(Insn::IfEq(index_of(b)?)),
            other => Ok(other),
        })
        .collect()
}

/// Decodes a program container written by
/// [`write_program`](crate::write_program).
///
/// # Errors
///
/// Returns [`ReadError`] on a bad container header or any malformed class.
pub fn read_program(bytes: &[u8]) -> Result<Program, ReadError> {
    let mut c = Cursor { bytes, at: 0 };
    if c.take(4)? != b"LBRC" {
        return Err(c.err("bad container magic"));
    }
    let count = c.u32()? as usize;
    let mut program = Program::new();
    for _ in 0..count {
        let len = c.u32()? as usize;
        let raw = c.take(len)?;
        program.insert(read_class(raw)?);
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{write_class, write_program};

    fn rich_class() -> ClassFile {
        let mut a = ClassFile::new_class("A");
        a.interfaces.push("I".into());
        a.fields.push(FieldInfo::new("f", Type::Int));
        a.fields.push(FieldInfo::new("g", Type::reference("B")));
        a.methods.push(MethodInfo::new(
            "<init>",
            MethodDescriptor::void(),
            Code::new(
                1,
                1,
                vec![
                    Insn::ALoad(0),
                    Insn::InvokeSpecial(MethodRef::new(
                        "Object",
                        "<init>",
                        MethodDescriptor::void(),
                    )),
                    Insn::Return,
                ],
            ),
        ));
        a.methods.push(MethodInfo::new(
            "m",
            MethodDescriptor::new(vec![Type::Int], Some(Type::reference("B"))),
            Code::new(
                3,
                2,
                vec![
                    Insn::ILoad(1),
                    Insn::IfEq(5),
                    Insn::New("B".into()),
                    Insn::Dup,
                    Insn::InvokeSpecial(MethodRef::new("B", "<init>", MethodDescriptor::void())),
                    Insn::AConstNull,
                    Insn::CheckCast("B".into()),
                    Insn::AReturn,
                ],
            ),
        ));
        a.methods
            .push(MethodInfo::new_abstract("abs", MethodDescriptor::void()));
        a
    }

    #[test]
    fn roundtrip_rich_class() {
        let c = rich_class();
        let bytes = write_class(&c);
        let back = read_class(&bytes).expect("decodes");
        assert_eq!(back, c);
    }

    #[test]
    fn roundtrip_program() {
        let mut p = Program::new();
        p.insert(rich_class());
        p.insert(ClassFile::new_interface("I"));
        let bytes = write_program(&p);
        let back = read_program(&bytes).expect("decodes");
        assert_eq!(back, p);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_class(&[0, 1, 2, 3, 4, 5, 6, 7]).unwrap_err();
        assert!(err.message.contains("magic"));
        assert!(read_program(b"NOPE\0\0\0\0").is_err());
    }

    #[test]
    fn rejects_truncation() {
        let bytes = write_class(&rich_class());
        for cut in [3, 9, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                read_class(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_unknown_opcode() {
        // Hand-craft: take a valid class and corrupt its code.
        let mut c = ClassFile::new_class("A");
        c.methods.push(MethodInfo::new(
            "m",
            MethodDescriptor::void(),
            Code::new(1, 1, vec![Insn::Return]),
        ));
        let mut bytes = write_class(&c);
        // The single 0xb1 return opcode is the last code byte before the
        // two trailing u16 pairs and the class-attribute count.
        let pos = bytes
            .iter()
            .rposition(|&b| b == 0xb1)
            .expect("return opcode present");
        bytes[pos] = 0xfe;
        assert!(read_class(&bytes).is_err());
    }

    /// A one-method class whose code is `code` with its last `cut` bytes
    /// dropped. The code length and the Code attribute length shrink to
    /// match, so the container stays self-consistent and only the
    /// instruction decoder can notice the missing operand bytes.
    fn class_with_short_code(code: Vec<Insn>, encoded: &[u8], cut: usize) -> Vec<u8> {
        let mut c = ClassFile::new_class("A");
        c.methods.push(MethodInfo::new(
            "m",
            MethodDescriptor::void(),
            Code::new(1, 2, code),
        ));
        let mut bytes = write_class(&c);
        let mut needle = (encoded.len() as u32).to_be_bytes().to_vec();
        needle.extend_from_slice(encoded);
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle.as_slice())
            .expect("code bytes present");
        let code_end = at + needle.len();
        bytes.drain(code_end - cut..code_end);
        bytes[at..at + 4].copy_from_slice(&((encoded.len() - cut) as u32).to_be_bytes());
        // attribute length: u32 right before max_stack and max_locals.
        let len_at = at - 8;
        let attr_len = u32::from_be_bytes(be_at(&bytes, len_at).expect("attr length"));
        bytes[len_at..len_at + 4].copy_from_slice(&(attr_len - cut as u32).to_be_bytes());
        bytes
    }

    #[test]
    fn rejects_operands_cut_short_inside_a_consistent_code_attribute() {
        let iconst = (
            vec![Insn::Nop, Insn::IConst(0x0102_0304)],
            vec![0x00, 0x12, 1, 2, 3, 4],
        );
        let iload = (vec![Insn::Nop, Insn::ILoad(0x0102)], vec![0x00, 0x15, 1, 2]);
        for (code, encoded) in [iconst, iload] {
            let intact = class_with_short_code(code.clone(), &encoded, 0);
            let back = read_class(&intact).expect("uncut code decodes");
            assert_eq!(back.methods[0].code.as_ref().unwrap().insns, code);
            // Every strict prefix of the last operand must be a typed
            // error, not a panic.
            let operand = encoded.len() - 2;
            for cut in 1..=operand {
                let bytes = class_with_short_code(code.clone(), &encoded, cut);
                let err = read_class(&bytes).expect_err("short operand must be rejected");
                assert!(err.message.contains("truncated"), "{cut}: {err}");
            }
        }
    }

    #[test]
    fn branch_roundtrip_preserves_indices() {
        let mut c = ClassFile::new_class("A");
        c.methods.push(MethodInfo::new(
            "m",
            MethodDescriptor::new(vec![Type::Int], None),
            Code::new(
                1,
                2,
                vec![
                    Insn::ILoad(1),
                    Insn::IfEq(4),
                    Insn::Nop,
                    Insn::Goto(0),
                    Insn::Return,
                ],
            ),
        ));
        let back = read_class(&write_class(&c)).expect("decodes");
        assert_eq!(
            back.methods[0].code.as_ref().unwrap().insns,
            c.methods[0].code.as_ref().unwrap().insns
        );
    }
}
