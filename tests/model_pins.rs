//! Pins of both frontends' logical models and verifiers over a fixed
//! corpus. Every expected value below was recorded before the name index
//! and the direct clause writer replaced the linear lookups and the
//! `Formula` path, so any change to a clause, its order, a variable count,
//! a model statistic, an error message or the order of errors fails here.
//!
//! - stackvm: 12 `generate_stack` modules of 300 functions, four of each
//!   `StackShape` (the `stackvm-large` geometry).
//! - classfile: the 12 programs a scale-1.2 `suite` draws, the
//!   hand-built programs of `tests/common` (one per constraint family:
//!   the §2-like program, diamond obligations, reflection), and two
//!   interface-heavy `WorkloadConfig`s. The `tests/common` and
//!   interface-heavy pins were recorded at the commit before the classfile
//!   model wrote its clauses directly; the obligation path-cap program is
//!   pinned after its soundness fix (see `classfile_path_cap_model_is_pinned`).
//! - `validate()` on mutated copies: a removed callee, a renamed global, a
//!   callee whose signature changed, a duplicated function name, a
//!   `call_indirect` with no candidate, and classfile programs with a
//!   class removed.

mod common;

use lbr::classfile::Program;
use lbr::core::{Input, ModelStats};
use lbr::decompiler::BugKind;
use lbr::logic::Cnf;
use lbr::workload::{
    generate, generate_stack, AdversarialShape, StackShape, StackWorkloadConfig, WorkloadConfig,
};
use lbr_stackvm::{build_stack_model, Function, Module, Op, Sig, StackBugKind, Ty};
use std::sync::Arc;

/// FNV-1a, folded over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }
}

/// The digest of a clause list, in order, literal by literal.
fn cnf_digest(cnf: &Cnf) -> u64 {
    let mut d = Digest::new();
    for clause in cnf.clauses() {
        d.word(clause.len() as u64);
        for lit in clause.lits() {
            d.word(lit.code() as u64);
        }
    }
    d.0
}

/// One model's pin: clause-list digest, `num_vars`, and the model's
/// statistics (the graph fraction as its bit pattern).
type ModelPin = (u64, usize, usize, usize, u64);

fn model_pin(cnf: &Cnf, stats: &ModelStats) -> ModelPin {
    (
        cnf_digest(cnf),
        cnf.num_vars(),
        stats.items,
        stats.clauses,
        stats.graph_fraction.to_bits(),
    )
}

/// One `validate()` pin: number of errors, digest of the ordered list,
/// and the first message.
type ErrorPin = (usize, u64, String);

fn error_pin(errors: &[String]) -> ErrorPin {
    let mut d = Digest::new();
    for e in errors {
        d.word(e.len() as u64);
        d.bytes(e.as_bytes());
    }
    (
        errors.len(),
        d.0,
        errors.first().cloned().unwrap_or_default(),
    )
}

/// Module `k` of the corpus: the `k`-th shape in turn, like `stackvm-large`.
fn stack_module(k: u64) -> Module {
    generate_stack(&StackWorkloadConfig {
        seed: 1000 + k,
        functions: 300,
        globals: 12,
        shape: StackShape::ALL[k as usize % StackShape::ALL.len()],
        plant: StackBugKind::ALL.to_vec(),
        ..StackWorkloadConfig::default()
    })
}

/// Program `k` of a scale-1.2 `suite` with base seed 42.
fn classfile_program(k: u64) -> Program {
    generate(
        &WorkloadConfig {
            seed: 42 + k,
            plant: BugKind::ALL.to_vec(),
            ..WorkloadConfig::default()
        }
        .scaled(1.2),
    )
}

/// The first `(function, pc)` in module order whose op `pick` accepts.
fn find_op(m: &Module, pick: impl Fn(&Op) -> bool) -> (usize, usize) {
    m.functions
        .iter()
        .enumerate()
        .find_map(|(i, f)| f.body.iter().position(&pick).map(|pc| (i, pc)))
        .expect("the corpus module has such an op")
}

/// The position of the function the first direct call names.
fn first_callee(m: &Module) -> usize {
    let (i, pc) = find_op(m, |op| matches!(op, Op::Call(_)));
    let Op::Call(name) = &m.functions[i].body[pc] else {
        unreachable!()
    };
    (m.functions.iter())
        .position(|f| &f.name == name)
        .expect("the callee exists")
}

fn function_mut(m: &mut Module, i: usize) -> &mut Function {
    Arc::make_mut(&mut m.functions[i])
}

const STACK_MODELS: &[ModelPin] = &[
    (14238325500155043136, 612, 612, 813, 4606229627734940255),
    (10295314217570975768, 612, 612, 389, 4607136109292280950),
    (6732890235544298961, 612, 612, 617, 4607153222043924244),
    (16157083683925587940, 612, 612, 828, 4606148984102915483),
    (10648626219528237008, 612, 612, 396, 4607136927894690433),
    (15393321005537674352, 612, 612, 597, 4607152243928142229),
    (4798967309073902576, 612, 612, 810, 4606126018887424329),
    (1083752820069609544, 612, 612, 392, 4607136463701778934),
    (11866598791038003912, 612, 612, 610, 4607152886999182192),
    (5640321314790177280, 612, 612, 831, 4606120197949277796),
    (4958599046670891872, 612, 612, 379, 4607134887405533287),
    (15740788371699295227, 612, 612, 621, 4607153410106765424),
];

#[test]
fn stackvm_models_are_pinned() {
    let got: Vec<ModelPin> = (0..12)
        .map(|k| {
            let m = stack_module(k);
            let model = build_stack_model(&m).expect("generated modules verify");
            assert_eq!(model.cnf, m.model().expect("verifies").cnf);
            model_pin(&model.cnf, &model.stats())
        })
        .collect();
    assert_eq!(got, STACK_MODELS);
}

const CLASSFILE_MODELS: &[ModelPin] = &[
    (2107168823556735145, 488, 488, 1697, 4606667570050630327),
    (14876004498285384865, 460, 460, 1605, 4606755909676428426),
    (1822868958944691719, 436, 436, 1536, 4606449411048166741),
    (11818909335931836064, 463, 463, 1577, 4606645528039113379),
    (12757054554300505229, 451, 451, 1493, 4606705815490489921),
    (12927350208526554975, 479, 479, 1658, 4606720650442566875),
    (7233078095961876784, 451, 451, 1433, 4606905854412572465),
    (15898868009473648844, 460, 460, 1433, 4606767572218849993),
    (18090164719527097535, 468, 468, 1609, 4606617019716904394),
    (7828585072253442652, 439, 439, 1486, 4606545974707320366),
    (15861408868945663169, 420, 420, 1313, 4606901158198765024),
    (7904749291149071914, 421, 421, 1338, 4606839095061607998),
];

#[test]
fn classfile_models_are_pinned() {
    let got: Vec<ModelPin> = (0..12)
        .map(|k| {
            let p = classfile_program(k);
            assert!(p.validate().is_empty(), "generated programs verify");
            let model = p.model().expect("generated programs verify");
            model_pin(&model.cnf, &model.stats)
        })
        .collect();
    assert_eq!(got, CLASSFILE_MODELS);
}

/// The pin of a classfile program's model through `Input::model`.
fn classfile_pin(p: &Program) -> ModelPin {
    let model = p.model().expect("the program verifies");
    model_pin(&model.cnf, &model.stats)
}

/// Two interface-heavy programs: the `ConstraintDense` preset (most
/// classes implement an interface, most interfaces extend another) and a
/// geometry with twice as many interfaces per cluster, every class
/// implementing one.
fn interface_heavy_programs() -> [Program; 2] {
    [
        generate(&WorkloadConfig {
            plant: BugKind::ALL.to_vec(),
            ..WorkloadConfig::adversarial(AdversarialShape::ConstraintDense, 77)
        }),
        generate(&WorkloadConfig {
            seed: 78,
            classes: 24,
            interfaces: 16,
            cluster_size: 6,
            implements_prob: 1.0,
            iface_extends_prob: 0.9,
            plant: BugKind::ALL.to_vec(),
            ..WorkloadConfig::default()
        }),
    ]
}

const CLASSFILE_FIXTURE_MODELS: &[ModelPin] = &[
    (14997490877861143594, 19, 19, 31, 4606601309170679279),
    (1398871318652761451, 13, 13, 16, 4606056518893174784),
    (8620963051099811246, 24, 24, 39, 4606720511145928126),
    (5195957601540909398, 272, 272, 944, 4606466804452447944),
    (10039127527327716760, 519, 519, 2016, 4606123536744772559),
];

#[test]
fn classfile_fixture_models_are_pinned() {
    let [dense, wide] = interface_heavy_programs();
    let got: Vec<ModelPin> = [
        common::paperish_program(),
        common::diamond_program(),
        common::reflection_program(),
        dense,
        wide,
    ]
    .iter()
    .map(classfile_pin)
    .collect();
    assert_eq!(got, CLASSFILE_FIXTURE_MODELS);
}

/// Recorded after the obligation path cap became sound: `C` has 20
/// paths to `J`, more than the 16 the model writes one clause each for,
/// so its obligation on `J.p` is the path-free clause
/// `[C] ∧ [J.p()V] ⇒ [C.p()V]`.
const CLASSFILE_PATH_CAP_MODEL: ModelPin = (5267724626532100268, 45, 45, 65, 4607043846503790624);

#[test]
fn classfile_path_cap_model_is_pinned() {
    assert_eq!(
        classfile_pin(&common::path_cap_program()),
        CLASSFILE_PATH_CAP_MODEL
    );
}

/// A module where a later function repeats the first one (name, signature
/// and body): the module still verifies, every use of the name and every
/// edge of the repeat's body resolve to the first, and both stay
/// `call_indirect` candidates in module order.
fn duplicated_name_module() -> Module {
    let mut m = stack_module(0);
    let copy = Arc::clone(&m.functions[0]);
    m.functions.insert(7, copy);
    m
}

const DUPLICATED_NAME_MODEL: ModelPin = (18181378899652766552, 614, 614, 814, 4606230798239934207);

#[test]
fn duplicated_names_resolve_to_the_first_in_the_model() {
    let m = duplicated_name_module();
    assert!(m.validate().is_empty(), "a duplicate name is not an error");
    let model = build_stack_model(&m).expect("verifies");
    assert_eq!(model_pin(&model.cnf, &model.stats()), DUPLICATED_NAME_MODEL);
}

/// The mutated copies of corpus module `k`, by name.
fn stack_mutants(k: u64) -> Vec<(&'static str, Module)> {
    let base = stack_module(k);
    let mut out = Vec::new();

    let mut m = base.clone();
    m.functions.remove(first_callee(&base));
    out.push(("removed callee", m));

    let mut m = base.clone();
    m.globals[0].name = "renamed".into();
    out.push(("renamed global", m));

    let mut m = base.clone();
    let callee = first_callee(&base);
    function_mut(&mut m, callee).params.push(Ty::Bool);
    out.push(("callee signature changed", m));

    let mut m = base.clone();
    let callee = first_callee(&base);
    let name = m.functions[usize::from(callee == 0)].name.clone();
    function_mut(&mut m, callee).name = name;
    out.push(("duplicated function name", m));

    let mut m = base.clone();
    let (i, pc) = find_op(&base, |op| matches!(op, Op::CallIndirect(_)));
    function_mut(&mut m, i).body[pc] = Op::CallIndirect(Sig::new(vec![Ty::Bool], Some(Ty::Bool)));
    out.push(("call_indirect without candidate", m));

    out
}

const STACK_ERRORS: &[(&str, (usize, u64, &str))] = &[
    (
        "removed callee",
        (
            1,
            9434047871667636827,
            "R0006: fn f0 @0: unknown function `f167`",
        ),
    ),
    (
        "renamed global",
        (
            14,
            1118145691412306863,
            "R0009: fn f2 @16: unknown global `g0`",
        ),
    ),
    (
        "callee signature changed",
        (
            1,
            14025240799839158969,
            "R0007: fn f0 @0: call `f167`: missing argument 0",
        ),
    ),
    (
        "duplicated function name",
        (
            1,
            9434047871667636827,
            "R0006: fn f0 @0: unknown function `f167`",
        ),
    ),
    (
        "call_indirect without candidate",
        (
            1,
            7610132250972327552,
            "R0010: fn f0 @5: no function with signature (bool) -> bool",
        ),
    ),
    (
        "removed callee",
        (
            2,
            14562590995496239418,
            "R0006: fn f1 @0: unknown function `f170`",
        ),
    ),
    (
        "renamed global",
        (
            2,
            16502544371095665838,
            "R0009: fn f0 @13: unknown global `g0`",
        ),
    ),
    (
        "callee signature changed",
        (
            2,
            8625103467855863960,
            "R0007: fn f1 @0: call `f170`: missing argument 0",
        ),
    ),
    (
        "duplicated function name",
        (
            2,
            14562590995496239418,
            "R0006: fn f1 @0: unknown function `f170`",
        ),
    ),
    (
        "call_indirect without candidate",
        (
            1,
            17954773746369047540,
            "R0010: fn f0 @9: no function with signature (bool) -> bool",
        ),
    ),
    (
        "removed callee",
        (
            1,
            8654643242046783017,
            "R0006: fn f0 @9: unknown function `f1`",
        ),
    ),
    (
        "renamed global",
        (
            12,
            12822243084052877910,
            "R0009: fn f0 @16: unknown global `g0`",
        ),
    ),
    (
        "callee signature changed",
        (
            1,
            13009220670147848307,
            "R0007: fn f0 @9: call `f1`: missing argument 0",
        ),
    ),
    (
        "duplicated function name",
        (
            1,
            8654643242046783017,
            "R0006: fn f0 @9: unknown function `f1`",
        ),
    ),
    (
        "call_indirect without candidate",
        (
            1,
            13013055250237042748,
            "R0010: fn f0 @11: no function with signature (bool) -> bool",
        ),
    ),
];

#[test]
fn stackvm_validate_is_pinned_on_mutants() {
    let mut got = Vec::new();
    for k in 0..3 {
        for (what, m) in stack_mutants(k) {
            let errors = m.validate();
            assert!(!errors.is_empty(), "module {k}, {what}: still verifies");
            got.push((what, error_pin(&errors)));
        }
    }
    let want: Vec<(&str, ErrorPin)> = STACK_ERRORS
        .iter()
        .map(|(w, (n, d, first))| (*w, (*n, *d, first.to_string())))
        .collect();
    assert_eq!(got, want);
}

const CLASSFILE_ERRORS: &[(usize, u64, &str)] = &[
    (
        13,
        5563382448504303144,
        "Cls1.m1_0: descriptor references missing class Cls0",
    ),
    (
        6,
        3605423912429125460,
        "Cls24.m24_0(II)V: new of missing class Cls25",
    ),
    (
        7,
        10457676374276445453,
        "Cls18.m18_4(I)I: invoke on missing class Iface8",
    ),
    (
        9,
        6588919960382517051,
        "Cls1: cannot resolve superclass Cls0",
    ),
    (
        9,
        10978559245470693421,
        "Cls24.m24_0(LCls24;)LCls27;: new of missing class Cls25",
    ),
    (
        3,
        3737965201952192292,
        "Cls19.m19_1()I: invoke on missing class Iface8",
    ),
    (
        16,
        14703096319016289826,
        "Cls1: cannot resolve superclass Cls0",
    ),
    (
        7,
        17811596315032344747,
        "Cls24.m24_0: descriptor references missing class Cls25",
    ),
    (
        13,
        7487614625041872261,
        "Cls18.m18_0(LCls22;LCls19;)LCls22;: invoke on missing class Iface8",
    ),
    (
        21,
        8844756987178394537,
        "Cls1: cannot resolve superclass Cls0",
    ),
    (
        8,
        7473489621263978470,
        "Cls24.m24_3(I)I: new of missing class Cls25",
    ),
    (
        7,
        4397878391636664695,
        "Cls18.m18_0()I: invoke on missing class Iface8",
    ),
];

#[test]
fn classfile_validate_is_pinned_on_mutants() {
    let mut got = Vec::new();
    for k in 0..4 {
        let p = classfile_program(k);
        let names: Vec<String> = p.names().map(str::to_owned).collect();
        for nth in [0, names.len() / 2, names.len() - 1] {
            let mut m = p.clone();
            m.remove(&names[nth]);
            got.push(error_pin(&m.validate()));
        }
    }
    let want: Vec<ErrorPin> = CLASSFILE_ERRORS
        .iter()
        .map(|(n, d, first)| (*n, *d, first.to_string()))
        .collect();
    assert_eq!(got, want);
}
