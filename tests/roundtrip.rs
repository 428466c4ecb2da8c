//! Randomized property test: any well-formed in-memory class survives the
//! binary writer/reader round trip — including branchy code, odd flags, and
//! adversarial names the workload generator would never produce.
//!
//! Generation is driven by the workspace's internal seeded PRNG so the test
//! runs offline; each case is reproducible from its printed seed.

use lbr_classfile::{
    read_class, write_class, ClassFile, Code, FieldInfo, FieldRef, Flags, Insn, MethodDescriptor,
    MethodInfo, MethodRef, Type,
};
use lbr_prng::{SliceChoose, SplitMix64};
use std::sync::Arc;

const NAME_FIRST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$";
const NAME_REST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_$";

fn rand_name(rng: &mut SplitMix64) -> String {
    let len = rng.gen_range(0..=11usize);
    let mut s = String::new();
    s.push(*NAME_FIRST.choose(rng).unwrap() as char);
    for _ in 0..len {
        s.push(*NAME_REST.choose(rng).unwrap() as char);
    }
    s
}

fn rand_type(rng: &mut SplitMix64) -> Type {
    if rng.gen_bool(0.5) {
        Type::Int
    } else {
        Type::reference(rand_name(rng))
    }
}

fn rand_desc(rng: &mut SplitMix64) -> MethodDescriptor {
    let params = (0..rng.gen_range(0..4usize))
        .map(|_| rand_type(rng))
        .collect();
    let ret = if rng.gen_bool(0.5) {
        Some(rand_type(rng))
    } else {
        None
    };
    MethodDescriptor::new(params, ret)
}

fn rand_field_ref(rng: &mut SplitMix64) -> FieldRef {
    FieldRef::new(rand_name(rng), rand_name(rng), rand_type(rng))
}

fn rand_method_ref(rng: &mut SplitMix64) -> MethodRef {
    MethodRef::new(rand_name(rng), rand_name(rng), rand_desc(rng))
}

/// An instruction with branch targets bounded by `len` so the encoded
/// offsets always land on real instructions.
fn rand_insn(rng: &mut SplitMix64, len: u16) -> Insn {
    match rng.gen_range(0..26u32) {
        0 => Insn::Nop,
        1 => Insn::IConst(rng.next_u32() as i32),
        2 => Insn::AConstNull,
        3 => Insn::ILoad(rng.gen_range(0..8u16)),
        4 => Insn::IStore(rng.gen_range(0..8u16)),
        5 => Insn::ALoad(rng.gen_range(0..8u16)),
        6 => Insn::AStore(rng.gen_range(0..8u16)),
        7 => Insn::Pop,
        8 => Insn::Dup,
        9 => Insn::IAdd,
        10 => Insn::LdcClass(rand_name(rng)),
        11 => Insn::New(rand_name(rng)),
        12 => Insn::GetField(rand_field_ref(rng)),
        13 => Insn::PutField(rand_field_ref(rng)),
        14 => Insn::InvokeVirtual(rand_method_ref(rng)),
        15 => Insn::InvokeInterface(rand_method_ref(rng)),
        16 => Insn::InvokeSpecial(rand_method_ref(rng)),
        17 => Insn::InvokeStatic(rand_method_ref(rng)),
        18 => Insn::CheckCast(rand_name(rng)),
        19 => Insn::InstanceOf(rand_name(rng)),
        20 => Insn::Goto(rng.gen_range(0..len)),
        21 => Insn::IfEq(rng.gen_range(0..len)),
        22 => Insn::Return,
        23 => Insn::AReturn,
        24 => Insn::IReturn,
        _ => Insn::AThrow,
    }
}

fn rand_code(rng: &mut SplitMix64) -> Code {
    let len = rng.gen_range(1..24u16);
    let insns = (0..len).map(|_| rand_insn(rng, len)).collect();
    Code::new(rng.gen_range(0..16u16), rng.gen_range(0..16u16), insns)
}

fn rand_flags(rng: &mut SplitMix64) -> Flags {
    match rng.gen_range(0..5u32) {
        0 => Flags::PUBLIC,
        1 => Flags::PUBLIC | Flags::FINAL,
        2 => Flags::PUBLIC | Flags::STATIC,
        3 => Flags::PUBLIC | Flags::ABSTRACT,
        // Any u16 must round-trip.
        _ => Flags::from_bits(rng.next_u32() as u16),
    }
}

fn rand_class(rng: &mut SplitMix64) -> ClassFile {
    let name = rand_name(rng);
    let flags = rand_flags(rng);
    let superclass = if rng.gen_bool(0.5) {
        Some(rand_name(rng))
    } else {
        None
    };
    let interfaces = (0..rng.gen_range(0..3usize))
        .map(|_| rand_name(rng))
        .collect();
    let fields = (0..rng.gen_range(0..4usize))
        .map(|_| FieldInfo {
            flags: rand_flags(rng),
            name: rand_name(rng),
            ty: rand_type(rng),
        })
        .collect();
    let methods = (0..rng.gen_range(0..4usize))
        .map(|_| MethodInfo {
            flags: rand_flags(rng),
            name: rand_name(rng),
            desc: rand_desc(rng),
            code: if rng.gen_bool(0.5) {
                Some(Arc::new(rand_code(rng)))
            } else {
                None
            },
        })
        .collect();
    ClassFile {
        name,
        flags,
        superclass,
        interfaces,
        fields,
        methods,
    }
}

#[test]
fn class_roundtrip() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let class = rand_class(&mut rng);
        let bytes = write_class(&class);
        let back = read_class(&bytes)
            .unwrap_or_else(|e| panic!("seed {seed}: decode failed: {e} for {class:?}"));
        assert_eq!(back, class, "seed {seed}");
    }
}

#[test]
fn truncation_never_panics() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let class = rand_class(&mut rng);
        let bytes = write_class(&class);
        let cut = rng.gen_range(0..64usize).min(bytes.len());
        // Decoding a truncated prefix must error, never panic.
        let _ = read_class(&bytes[..bytes.len() - cut]);
    }
}
