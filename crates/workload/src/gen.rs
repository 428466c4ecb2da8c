//! Seeded random generation of verifying bytecode programs.
//!
//! The generator works in two phases: it first *plans* every type (names,
//! hierarchy, members, obligations), then emits method bodies as sequences
//! of self-contained, stack-neutral statement templates, so the output
//! verifies by construction.
//!
//! Programs are organized into **clusters** — groups of classes and
//! interfaces that reference each other but rarely anything outside — the
//! modular shape of real NJR programs. Decompiler-bug trigger patterns are
//! planted only into the first few clusters, so a good reducer can discard
//! the rest; the random statement templates are chosen to *never* form a
//! trigger pattern accidentally, keeping baseline error counts at the
//! paper's scale (≈9 per benchmark) and every error's dependency footprint
//! local.

use lbr_classfile::{
    ClassFile, Code, FieldInfo, FieldRef, Flags, Insn, MethodDescriptor, MethodInfo, MethodRef,
    Program, Type,
};
use lbr_decompiler::BugKind;
use lbr_prng::{SliceChoose, SplitMix64};
use std::sync::Arc;

/// Adversarial program shapes for the classfile generator: each preset
/// steers the dependency profile toward a different strategy's worst
/// case, mirroring [`crate::StackShape`] on the stackvm side (plus the
/// error-count axis that frontend lacks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarialShape {
    /// Dense cross-cluster references and heavy interface wiring — the
    /// logical model's clause count dominates its graph fraction, so
    /// closure pruning does the least work per probe.
    ConstraintDense,
    /// Many hierarchy-free classes in a few huge clusters — a wide,
    /// shallow containment tree, HDD's best case and a stress on
    /// per-level ddmin batch sizes.
    WideFlat,
    /// Near-mandatory subclassing and interface extension over tiny
    /// clusters — long dependency chains, ddmin's worst case and the
    /// best case for closure orders.
    DeepChain,
    /// Every bug kind planted several times over most clusters — many
    /// distinct baseline errors with overlapping footprints, stressing
    /// per-error reduction and trace-frequency orders.
    MultiError,
}

impl AdversarialShape {
    /// Every shape, in declaration order.
    pub const ALL: [AdversarialShape; 4] = [
        AdversarialShape::ConstraintDense,
        AdversarialShape::WideFlat,
        AdversarialShape::DeepChain,
        AdversarialShape::MultiError,
    ];
}

/// Configuration for [`generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// RNG seed (generation is fully deterministic per seed).
    pub seed: u64,
    /// Number of classes (excluding interfaces).
    pub classes: usize,
    /// Number of interfaces.
    pub interfaces: usize,
    /// Classes per cluster.
    pub cluster_size: usize,
    /// Probability that a call target crosses cluster boundaries.
    pub cross_cluster_prob: f64,
    /// Fraction of clusters that receive bug plants.
    pub bug_cluster_fraction: f64,
    /// Methods per class (uniform in this range, inclusive).
    pub methods_per_class: (usize, usize),
    /// Statements per method body.
    pub stmts_per_method: (usize, usize),
    /// Fields per class.
    pub fields_per_class: (usize, usize),
    /// Probability that a class extends another class (vs `Object`).
    pub subclass_prob: f64,
    /// Probability that a class implements an interface.
    pub implements_prob: f64,
    /// Probability that an interface extends another interface.
    pub iface_extends_prob: f64,
    /// How many instances of each requested bug pattern to plant.
    pub plants_per_bug: usize,
    /// The bug kinds whose trigger patterns should be planted.
    pub plant: Vec<BugKind>,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 0,
            classes: 24,
            interfaces: 8,
            cluster_size: 6,
            cross_cluster_prob: 0.015,
            bug_cluster_fraction: 0.25,
            methods_per_class: (2, 5),
            stmts_per_method: (2, 6),
            fields_per_class: (0, 3),
            subclass_prob: 0.35,
            implements_prob: 0.45,
            iface_extends_prob: 0.4,
            plants_per_bug: 3,
            plant: vec![BugKind::CastToObject],
        }
    }
}

impl WorkloadConfig {
    /// Scales class/interface counts by `factor` (≥ 0.05).
    pub fn scaled(mut self, factor: f64) -> Self {
        let f = factor.max(0.05);
        self.classes = ((self.classes as f64 * f) as usize).max(4);
        self.interfaces = ((self.interfaces as f64 * f) as usize).max(2);
        self
    }

    /// A configuration tuned to the paper's NJR benchmark statistics
    /// (geometric means: 184 classes, ~9 compiler errors, thousands of
    /// reducible items). Programs at this size take noticeably longer to
    /// reduce; the default suite uses smaller scales.
    pub fn njr_profile(seed: u64) -> Self {
        WorkloadConfig {
            seed,
            classes: 184,
            interfaces: 46,
            methods_per_class: (3, 7),
            stmts_per_method: (3, 8),
            plant: BugKind::ALL.to_vec(),
            ..WorkloadConfig::default()
        }
    }

    /// A randomized small configuration for differential fuzzing: the
    /// program geometry (class/interface counts, cluster size, member
    /// ranges, hierarchy probabilities) is drawn deterministically from
    /// `seed`, giving the harness structural diversity beyond the fixed
    /// profiles while staying cheap enough to reduce hundreds of times
    /// per minute. The bug-plant list is left at the default; callers
    /// substitute the kinds matching the decompiler under test.
    pub fn sampled(seed: u64) -> Self {
        // Decorrelate the geometry stream from the content stream: the
        // same `seed` feeds `generate` directly, so geometry must not
        // replay it.
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5EED_6E0E_7121_C0DE);
        let pct = |rng: &mut SplitMix64, lo: u64, hi: u64| rng.gen_range(lo..=hi) as f64 / 100.0;
        let m_lo = rng.gen_range(1usize..=2);
        let s_lo = rng.gen_range(1usize..=2);
        WorkloadConfig {
            seed,
            classes: rng.gen_range(6usize..=12),
            interfaces: rng.gen_range(2usize..=4),
            cluster_size: rng.gen_range(3usize..=6),
            cross_cluster_prob: pct(&mut rng, 0, 4),
            bug_cluster_fraction: pct(&mut rng, 25, 50),
            methods_per_class: (m_lo, m_lo + rng.gen_range(1usize..=2)),
            stmts_per_method: (s_lo, s_lo + rng.gen_range(1usize..=3)),
            fields_per_class: (0, rng.gen_range(1usize..=2)),
            subclass_prob: pct(&mut rng, 15, 50),
            implements_prob: pct(&mut rng, 25, 60),
            iface_extends_prob: pct(&mut rng, 20, 50),
            plants_per_bug: rng.gen_range(1usize..=2),
            ..WorkloadConfig::default()
        }
    }

    /// An adversarial-shape preset (see [`AdversarialShape`]): fixed
    /// geometry per shape, fully deterministic per `seed`, sized to stay
    /// cheap enough for fuzz campaigns. The plant list is left at the
    /// default for every shape but [`AdversarialShape::MultiError`];
    /// callers substitute the kinds matching the tool under test.
    pub fn adversarial(shape: AdversarialShape, seed: u64) -> Self {
        let base = WorkloadConfig {
            seed,
            ..WorkloadConfig::default()
        };
        match shape {
            AdversarialShape::ConstraintDense => WorkloadConfig {
                classes: 14,
                interfaces: 7,
                cluster_size: 3,
                cross_cluster_prob: 0.25,
                subclass_prob: 0.7,
                implements_prob: 0.9,
                iface_extends_prob: 0.8,
                methods_per_class: (3, 5),
                ..base
            },
            AdversarialShape::WideFlat => WorkloadConfig {
                classes: 28,
                interfaces: 2,
                cluster_size: 14,
                cross_cluster_prob: 0.0,
                subclass_prob: 0.0,
                implements_prob: 0.05,
                iface_extends_prob: 0.0,
                methods_per_class: (1, 2),
                fields_per_class: (0, 1),
                ..base
            },
            AdversarialShape::DeepChain => WorkloadConfig {
                classes: 16,
                interfaces: 4,
                cluster_size: 2,
                cross_cluster_prob: 0.3,
                subclass_prob: 0.95,
                implements_prob: 0.3,
                iface_extends_prob: 0.9,
                ..base
            },
            AdversarialShape::MultiError => WorkloadConfig {
                classes: 18,
                interfaces: 6,
                bug_cluster_fraction: 0.75,
                plants_per_bug: 4,
                plant: BugKind::ALL.to_vec(),
                ..base
            },
        }
    }

    fn clusters(&self) -> usize {
        self.classes.div_ceil(self.cluster_size).max(1)
    }

    fn bug_clusters(&self) -> usize {
        ((self.clusters() as f64 * self.bug_cluster_fraction).ceil() as usize)
            .clamp(1, self.clusters())
    }
}

struct IfacePlan {
    name: String,
    cluster: usize,
    extends: Vec<String>,
    sigs: Vec<(String, MethodDescriptor)>,
}

struct ClassPlan {
    name: String,
    cluster: usize,
    superclass: String,
    interfaces: Vec<String>,
    fields: Vec<(String, Type)>,
    /// Concrete instance methods (includes interface obligations).
    methods: Vec<(String, MethodDescriptor)>,
    /// Static utility methods.
    statics: Vec<(String, MethodDescriptor)>,
    /// Whether the class also gets a two-int constructor (the
    /// `CtorArgDropper` ingredient).
    extra_ctor: bool,
}

struct Plan {
    interfaces: Vec<IfacePlan>,
    classes: Vec<ClassPlan>,
}

/// Generates a verifying program.
pub fn generate(config: &WorkloadConfig) -> Program {
    let mut rng = SplitMix64::seed_from_u64(config.seed);
    let plan = make_plan(config, &mut rng);
    let mut program = emit(config, &plan, &mut rng);
    plant_bugs(config, &plan, &mut program, &mut rng);
    debug_assert!(
        lbr_classfile::verify_program(&program).is_empty(),
        "generator must produce verifying programs: {:?}",
        lbr_classfile::verify_program(&program)
    );
    program
}

// ----------------------------------------------------------------------
// Planning.
// ----------------------------------------------------------------------

fn make_plan(config: &WorkloadConfig, rng: &mut SplitMix64) -> Plan {
    let nclusters = config.clusters();
    // Interfaces, distributed round-robin over clusters; an interface may
    // extend an earlier interface of the *same* cluster.
    let mut interfaces: Vec<IfacePlan> = Vec::new();
    for i in 0..config.interfaces {
        let cluster = i % nclusters;
        let name = format!("Iface{i}");
        let mut extends = Vec::new();
        if rng.gen_bool(config.iface_extends_prob) {
            let earlier: Vec<&IfacePlan> =
                interfaces.iter().filter(|p| p.cluster == cluster).collect();
            if let Some(target) = earlier.choose(rng) {
                extends.push(target.name.clone());
            }
        }
        let nsigs = rng.gen_range(1..=2);
        let sigs = (0..nsigs)
            .map(|k| {
                // The first signature is always parameterless so that
                // cast-then-invoke bug patterns (which need the invoke to
                // directly follow the cast) can always be planted.
                let desc = if k == 0 {
                    let mut d = random_descriptor(config, cluster, rng);
                    d.params.clear();
                    d
                } else {
                    random_descriptor(config, cluster, rng)
                };
                (format!("im{i}_{k}"), desc)
            })
            .collect();
        interfaces.push(IfacePlan {
            name,
            cluster,
            extends,
            sigs,
        });
    }
    // Classes.
    let mut classes: Vec<ClassPlan> = Vec::new();
    for c in 0..config.classes {
        let cluster = c / config.cluster_size;
        let name = format!("Cls{c}");
        let local_earlier: Vec<String> = classes
            .iter()
            .filter(|p| p.cluster == cluster)
            .map(|p| p.name.clone())
            .collect();
        let superclass = if rng.gen_bool(config.subclass_prob) {
            local_earlier
                .choose(rng)
                .cloned()
                .unwrap_or_else(|| "Object".to_owned())
        } else {
            "Object".to_owned()
        };
        let mut ifaces: Vec<String> = Vec::new();
        if rng.gen_bool(config.implements_prob) {
            let local: Vec<&IfacePlan> =
                interfaces.iter().filter(|p| p.cluster == cluster).collect();
            // The paper notes classes implementing *multiple* interfaces
            // need special constraint-generation attention; exercise it.
            let count = if local.len() >= 2 && rng.gen_bool(0.3) {
                2
            } else {
                1
            };
            for ip in local.choose_multiple(rng, count) {
                if !ifaces.contains(&ip.name) {
                    ifaces.push(ip.name.clone());
                }
            }
        }
        let nfields = rng.gen_range(config.fields_per_class.0..=config.fields_per_class.1);
        let fields = (0..nfields)
            .map(|k| {
                let ty = if rng.gen_bool(0.5) {
                    Type::Int
                } else {
                    Type::reference(cluster_class(config, cluster, rng))
                };
                (format!("f{c}_{k}"), ty)
            })
            .collect();
        let nmethods = rng.gen_range(config.methods_per_class.0..=config.methods_per_class.1);
        let mut methods: Vec<(String, MethodDescriptor)> = (0..nmethods)
            .map(|k| (format!("m{c}_{k}"), random_descriptor(config, cluster, rng)))
            .collect();
        // Obligations: implement every signature of the interface closure.
        let mut obligation_sources: Vec<&IfacePlan> = Vec::new();
        let mut queue: Vec<&str> = ifaces.iter().map(String::as_str).collect();
        while let Some(iname) = queue.pop() {
            if let Some(ip) = interfaces.iter().find(|p| p.name == iname) {
                if !obligation_sources.iter().any(|p| p.name == ip.name) {
                    obligation_sources.push(ip);
                    queue.extend(ip.extends.iter().map(String::as_str));
                }
            }
        }
        for src in obligation_sources {
            for (mname, desc) in &src.sigs {
                if !methods.iter().any(|(n, d)| n == mname && d == desc) {
                    methods.push((mname.clone(), desc.clone()));
                }
            }
        }
        let statics = if rng.gen_bool(0.3) {
            vec![(
                format!("util{c}"),
                MethodDescriptor::new(vec![Type::Int], Some(Type::Int)),
            )]
        } else {
            Vec::new()
        };
        classes.push(ClassPlan {
            name,
            cluster,
            superclass,
            interfaces: ifaces,
            fields,
            methods,
            statics,
            extra_ctor: rng.gen_bool(0.25),
        });
    }
    Plan {
        interfaces,
        classes,
    }
}

/// A random class name from `cluster`.
fn cluster_class(config: &WorkloadConfig, cluster: usize, rng: &mut SplitMix64) -> String {
    let lo = cluster * config.cluster_size;
    let hi = ((cluster + 1) * config.cluster_size).min(config.classes);
    format!("Cls{}", rng.gen_range(lo..hi))
}

fn random_descriptor(
    config: &WorkloadConfig,
    cluster: usize,
    rng: &mut SplitMix64,
) -> MethodDescriptor {
    let nparams = rng.gen_range(0..=2);
    let params = (0..nparams)
        .map(|_| {
            if rng.gen_bool(0.6) {
                Type::Int
            } else {
                Type::reference(cluster_class(config, cluster, rng))
            }
        })
        .collect();
    let ret = match rng.gen_range(0..3) {
        0 => None,
        1 => Some(Type::Int),
        _ => Some(Type::reference(cluster_class(config, cluster, rng))),
    };
    MethodDescriptor::new(params, ret)
}

impl Plan {
    fn class(&self, name: &str) -> Option<&ClassPlan> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Concrete call targets, optionally restricted to a cluster set.
    fn call_targets(&self, clusters: Option<&[usize]>) -> Vec<(String, String, MethodDescriptor)> {
        let mut out = Vec::new();
        for c in &self.classes {
            if clusters.is_some_and(|cs| !cs.contains(&c.cluster)) {
                continue;
            }
            for (m, d) in &c.methods {
                out.push((c.name.clone(), m.clone(), d.clone()));
            }
        }
        out
    }

    /// `(implementing class, interface, method, desc)` interface dispatch
    /// targets.
    fn interface_targets(
        &self,
        clusters: Option<&[usize]>,
    ) -> Vec<(String, String, String, MethodDescriptor)> {
        let mut out = Vec::new();
        for c in &self.classes {
            if clusters.is_some_and(|cs| !cs.contains(&c.cluster)) {
                continue;
            }
            for iname in &c.interfaces {
                let mut queue = vec![iname.clone()];
                let mut seen = Vec::new();
                while let Some(i) = queue.pop() {
                    if seen.contains(&i) {
                        continue;
                    }
                    seen.push(i.clone());
                    if let Some(ip) = self.interfaces.iter().find(|p| p.name == i) {
                        for (m, d) in &ip.sigs {
                            out.push((c.name.clone(), iname.clone(), m.clone(), d.clone()));
                        }
                        queue.extend(ip.extends.iter().cloned());
                    }
                }
            }
        }
        out
    }

    /// Chained field pairs `class.f.g` restricted to a cluster set.
    fn chained_fields(
        &self,
        clusters: Option<&[usize]>,
    ) -> Vec<(String, String, String, String, Type)> {
        let mut out = Vec::new();
        for c in &self.classes {
            if clusters.is_some_and(|cs| !cs.contains(&c.cluster)) {
                continue;
            }
            for (fname, fty) in &c.fields {
                if let Some(inner) = fty.class_name() {
                    if let Some(ic) = self.class(inner) {
                        for (gname, gty) in &ic.fields {
                            out.push((
                                c.name.clone(),
                                fname.clone(),
                                inner.to_owned(),
                                gname.clone(),
                                gty.clone(),
                            ));
                        }
                    }
                }
            }
        }
        out
    }

    fn statics(&self, clusters: Option<&[usize]>) -> Vec<(String, String, MethodDescriptor)> {
        let mut out = Vec::new();
        for c in &self.classes {
            if clusters.is_some_and(|cs| !cs.contains(&c.cluster)) {
                continue;
            }
            for (m, d) in &c.statics {
                out.push((c.name.clone(), m.clone(), d.clone()));
            }
        }
        out
    }
}

// ----------------------------------------------------------------------
// Emission.
// ----------------------------------------------------------------------

fn emit(config: &WorkloadConfig, plan: &Plan, rng: &mut SplitMix64) -> Program {
    let mut program = Program::new();
    for ip in &plan.interfaces {
        let mut iface = ClassFile::new_interface(&ip.name);
        iface.interfaces = ip.extends.clone();
        for (m, d) in &ip.sigs {
            iface.methods.push(MethodInfo::new_abstract(m, d.clone()));
        }
        program.insert(iface);
    }
    for cp in &plan.classes {
        let mut class = ClassFile::new_class(&cp.name);
        class.superclass = Some(cp.superclass.clone());
        class.interfaces = cp.interfaces.clone();
        for (f, ty) in &cp.fields {
            class.fields.push(FieldInfo::new(f, ty.clone()));
        }
        class.methods.push(make_ctor(cp));
        if cp.extra_ctor {
            class.methods.push(make_two_int_ctor(cp));
        }
        for (m, d) in &cp.methods {
            class.methods.push(MethodInfo::new(
                m,
                d.clone(),
                make_body(config, plan, cp, d, rng),
            ));
        }
        for (m, d) in &cp.statics {
            let mut info = MethodInfo::new(m, d.clone(), static_body());
            info.flags |= Flags::STATIC;
            class.methods.push(info);
        }
        program.insert(class);
    }
    program
}

fn make_ctor(cp: &ClassPlan) -> MethodInfo {
    MethodInfo::new(
        "<init>",
        MethodDescriptor::void(),
        Code::new(
            2,
            1,
            vec![
                Insn::ALoad(0),
                Insn::InvokeSpecial(MethodRef::new(
                    cp.superclass.clone(),
                    "<init>",
                    MethodDescriptor::void(),
                )),
                Insn::Return,
            ],
        ),
    )
}

/// `C(int, int) { super(); }` — the multi-argument constructor the
/// `CtorArgDropper` bug targets.
fn make_two_int_ctor(cp: &ClassPlan) -> MethodInfo {
    MethodInfo::new(
        "<init>",
        MethodDescriptor::new(vec![Type::Int, Type::Int], None),
        Code::new(
            2,
            3,
            vec![
                Insn::ALoad(0),
                Insn::InvokeSpecial(MethodRef::new(
                    cp.superclass.clone(),
                    "<init>",
                    MethodDescriptor::void(),
                )),
                Insn::Return,
            ],
        ),
    )
}

/// `static int util(int) { return p0 + 1; }` — note: one literal operand,
/// which does not trigger the literal+literal `AddNullifier` bug.
fn static_body() -> Code {
    Code::new(
        2,
        1,
        vec![Insn::ILoad(0), Insn::IConst(1), Insn::IAdd, Insn::IReturn],
    )
}

/// Emits a verifying body: a run of stack-neutral statement templates,
/// then a return. Templates are chosen to never form a decompiler-bug
/// trigger pattern (no cast-before-invoke, no `instanceof`, no static
/// calls, no literal+literal additions, no reflection, no chained field
/// reads) — those come only from planting.
fn make_body(
    config: &WorkloadConfig,
    plan: &Plan,
    cp: &ClassPlan,
    desc: &MethodDescriptor,
    rng: &mut SplitMix64,
) -> Code {
    let mut insns: Vec<Insn> = Vec::new();
    let nstmts = rng.gen_range(config.stmts_per_method.0..=config.stmts_per_method.1);
    let scratch_slot = 1 + desc.params.len() as u16;
    for _ in 0..nstmts {
        insns.extend(random_statement(config, plan, cp, scratch_slot, rng));
    }
    emit_return(&mut insns, desc);
    Code::new(10, scratch_slot + 1, insns)
}

fn emit_return(insns: &mut Vec<Insn>, desc: &MethodDescriptor) {
    match &desc.ret {
        None => insns.push(Insn::Return),
        Some(Type::Int) => {
            insns.push(Insn::IConst(0));
            insns.push(Insn::IReturn);
        }
        Some(Type::Reference(_)) => {
            insns.push(Insn::AConstNull);
            insns.push(Insn::AReturn);
        }
    }
}

/// Pushes a value of `ty` onto the stack (null for references, or a fresh
/// instance half the time).
fn push_value(plan: &Plan, ty: &Type, rng: &mut SplitMix64, out: &mut Vec<Insn>) {
    match ty {
        Type::Int => out.push(Insn::IConst(rng.gen_range(0..100))),
        Type::Reference(c) => {
            if plan.class(c).is_some() && rng.gen_bool(0.5) {
                fresh_instance(c, out);
            } else {
                out.push(Insn::AConstNull);
            }
        }
    }
}

/// `new C(); dup; <init>()` — leaves one `C` on the stack.
fn fresh_instance(class: &str, out: &mut Vec<Insn>) {
    out.push(Insn::New(class.to_owned()));
    out.push(Insn::Dup);
    out.push(Insn::InvokeSpecial(MethodRef::new(
        class,
        "<init>",
        MethodDescriptor::void(),
    )));
}

fn drop_result(out: &mut Vec<Insn>, ret: &Option<Type>) {
    if ret.is_some() {
        out.push(Insn::Pop);
    }
}

fn random_statement(
    config: &WorkloadConfig,
    plan: &Plan,
    cp: &ClassPlan,
    scratch_slot: u16,
    rng: &mut SplitMix64,
) -> Vec<Insn> {
    let mut out = Vec::new();
    // Call targets: usually the own cluster, occasionally anywhere.
    let local = [cp.cluster];
    let scope: Option<&[usize]> = if rng.gen_bool(config.cross_cluster_prob) {
        None
    } else {
        Some(&local)
    };
    match rng.gen_range(0..6) {
        // Virtual call on a fresh instance.
        0 => {
            let targets = plan.call_targets(scope);
            if let Some((class, m, d)) = targets.choose(rng).cloned() {
                fresh_instance(&class, &mut out);
                for p in &d.params {
                    push_value(plan, p, rng, &mut out);
                }
                out.push(Insn::InvokeVirtual(MethodRef::new(class, m, d.clone())));
                drop_result(&mut out, &d.ret);
            }
        }
        // Interface dispatch — without an upcast, so the CastToObject
        // trigger never occurs accidentally.
        1 => {
            let targets = plan.interface_targets(scope);
            if let Some((class, iface, m, d)) = targets.choose(rng).cloned() {
                fresh_instance(&class, &mut out);
                for p in &d.params {
                    push_value(plan, p, rng, &mut out);
                }
                out.push(Insn::InvokeInterface(MethodRef::new(iface, m, d.clone())));
                drop_result(&mut out, &d.ret);
            }
        }
        // Own-field read (single access — never a chain).
        2 => {
            if let Some((f, ty)) = cp.fields.choose(rng).cloned() {
                out.push(Insn::ALoad(0));
                out.push(Insn::GetField(FieldRef::new(cp.name.clone(), f, ty)));
                out.push(Insn::Pop);
            }
        }
        // Own-field write (ints only — always assignable).
        3 => {
            if let Some((f, ty)) = cp.fields.iter().find(|(_, t)| *t == Type::Int).cloned() {
                out.push(Insn::ALoad(0));
                out.push(Insn::IConst(rng.gen_range(0..10)));
                out.push(Insn::PutField(FieldRef::new(cp.name.clone(), f, ty)));
            }
        }
        // Integer arithmetic through a scratch local, so neither operand
        // is a literal+literal pair.
        4 => {
            out.push(Insn::IConst(rng.gen_range(0..50)));
            out.push(Insn::IStore(scratch_slot));
            out.push(Insn::ILoad(scratch_slot));
            out.push(Insn::IConst(rng.gen_range(0..50)));
            out.push(Insn::IAdd);
            out.push(Insn::Pop);
        }
        // Fresh instance, discarded.
        _ => {
            let class = cluster_class(config, cp.cluster, rng);
            if plan.class(&class).is_some() {
                fresh_instance(&class, &mut out);
                out.push(Insn::Pop);
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// Bug-pattern planting.
// ----------------------------------------------------------------------

fn plant_bugs(config: &WorkloadConfig, plan: &Plan, program: &mut Program, rng: &mut SplitMix64) {
    let bug_clusters: Vec<usize> = (0..config.bug_clusters()).collect();
    for &bug in &config.plant {
        for _ in 0..config.plants_per_bug {
            if let Some(pattern) = bug_pattern(plan, bug, &bug_clusters, rng) {
                inject(plan, program, &bug_clusters, pattern, rng);
            }
        }
    }
}

/// Builds the instruction pattern that triggers `bug`, preferring
/// ingredients from the bug clusters.
fn bug_pattern(
    plan: &Plan,
    bug: BugKind,
    clusters: &[usize],
    rng: &mut SplitMix64,
) -> Option<Vec<Insn>> {
    let scoped = Some(clusters);
    let mut out = Vec::new();
    match bug {
        BugKind::CastToObject => {
            // The trigger needs the invoke to directly follow the cast, so
            // only parameterless signatures qualify.
            let targets: Vec<_> = or_global(plan.interface_targets(scoped), || {
                plan.interface_targets(None)
            })
            .into_iter()
            .filter(|(_, _, _, d)| d.params.is_empty())
            .collect();
            let (class, iface, m, d) = targets.choose(rng)?.clone();
            fresh_instance(&class, &mut out);
            out.push(Insn::CheckCast(iface.clone()));
            out.push(Insn::InvokeInterface(MethodRef::new(iface, m, d.clone())));
            drop_result(&mut out, &d.ret);
        }
        BugKind::EatPatternMatch => {
            let class = plan
                .classes
                .iter()
                .filter(|c| clusters.contains(&c.cluster))
                .map(|c| c.name.clone())
                .collect::<Vec<_>>();
            out.push(Insn::ALoad(0));
            out.push(Insn::InstanceOf(class.choose(rng)?.clone()));
            out.push(Insn::Pop);
        }
        BugKind::StaticGhostReceiver => {
            let statics = or_global(plan.statics(scoped), || plan.statics(None));
            let (class, m, d) = statics.choose(rng)?.clone();
            push_default_args(&d, &mut out);
            out.push(Insn::InvokeStatic(MethodRef::new(class, m, d.clone())));
            drop_result(&mut out, &d.ret);
        }
        BugKind::CtorArgDropper => {
            let with_extra: Vec<&ClassPlan> = plan
                .classes
                .iter()
                .filter(|c| c.extra_ctor && clusters.contains(&c.cluster))
                .collect();
            let target = with_extra.choose(rng)?;
            out.push(Insn::New(target.name.clone()));
            out.push(Insn::Dup);
            out.push(Insn::IConst(4));
            out.push(Insn::IConst(5));
            out.push(Insn::InvokeSpecial(MethodRef::new(
                target.name.clone(),
                "<init>",
                MethodDescriptor::new(vec![Type::Int, Type::Int], None),
            )));
            out.push(Insn::Pop);
        }
        BugKind::FieldRenamer => {
            let chains = or_global(plan.chained_fields(scoped), || plan.chained_fields(None));
            let (class, f, inner, g, gty) = chains.choose(rng)?.clone();
            fresh_instance(&class, &mut out);
            out.push(Insn::GetField(FieldRef::new(
                class,
                f,
                Type::reference(inner.clone()),
            )));
            out.push(Insn::GetField(FieldRef::new(inner, g, gty)));
            out.push(Insn::Pop);
        }
        BugKind::ReflectionTypo => {
            let class = plan
                .classes
                .iter()
                .filter(|c| clusters.contains(&c.cluster))
                .map(|c| c.name.clone())
                .collect::<Vec<_>>();
            out.push(Insn::LdcClass(class.choose(rng)?.clone()));
            out.push(Insn::Pop);
        }
        BugKind::AddNullifier => {
            out.push(Insn::IConst(7));
            out.push(Insn::IConst(35));
            out.push(Insn::IAdd);
            out.push(Insn::Pop);
        }
        BugKind::SuperInterfaceAmnesia => {
            let mut candidates = Vec::new();
            for c in &plan.classes {
                for iname in &c.interfaces {
                    if let Some(ip) = plan.interfaces.iter().find(|p| p.name == *iname) {
                        for sup in &ip.extends {
                            if let Some(jp) = plan.interfaces.iter().find(|p| p.name == *sup) {
                                for (m, d) in &jp.sigs {
                                    candidates.push((
                                        c.name.clone(),
                                        iname.clone(),
                                        m.clone(),
                                        d.clone(),
                                        c.cluster,
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            candidates.retain(|(_, _, _, d, _)| d.params.is_empty());
            let local: Vec<_> = candidates
                .iter()
                .filter(|(_, _, _, _, cl)| clusters.contains(cl))
                .cloned()
                .collect();
            let pool = if local.is_empty() { candidates } else { local };
            let (class, iface, m, d, _) = pool.choose(rng)?.clone();
            fresh_instance(&class, &mut out);
            out.push(Insn::CheckCast(iface.clone()));
            out.push(Insn::InvokeInterface(MethodRef::new(iface, m, d.clone())));
            drop_result(&mut out, &d.ret);
        }
    }
    Some(out)
}

fn or_global<T, F: FnOnce() -> Vec<T>>(local: Vec<T>, global: F) -> Vec<T> {
    if local.is_empty() {
        global()
    } else {
        local
    }
}

fn push_default_args(d: &MethodDescriptor, out: &mut Vec<Insn>) {
    for p in &d.params {
        match p {
            Type::Int => out.push(Insn::IConst(1)),
            Type::Reference(_) => out.push(Insn::AConstNull),
        }
    }
}

/// Prepends a planted pattern to a randomly chosen concrete method body of
/// a bug-cluster class.
fn inject(
    plan: &Plan,
    program: &mut Program,
    clusters: &[usize],
    pattern: Vec<Insn>,
    rng: &mut SplitMix64,
) {
    let class_names: Vec<String> = plan
        .classes
        .iter()
        .filter(|c| clusters.contains(&c.cluster))
        .map(|c| c.name.clone())
        .collect();
    for _ in 0..10 {
        let Some(name) = class_names.choose(rng) else {
            return;
        };
        let Some(class) = program.get_mut(name) else {
            continue;
        };
        let candidates: Vec<usize> = class
            .methods
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_init() && !m.flags.is_static() && m.code.is_some())
            .map(|(i, _)| i)
            .collect();
        let Some(&idx) = candidates.choose(rng) else {
            continue;
        };
        let code = class.methods[idx].code.as_mut().expect("filtered on code");
        let code = Arc::make_mut(code);
        let mut insns = pattern.clone();
        insns.extend(code.insns.iter().cloned());
        code.insns = insns;
        code.max_stack = code.max_stack.max(10);
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_classfile::verify_program;

    #[test]
    fn generates_verifying_programs() {
        for seed in 0..8 {
            let config = WorkloadConfig {
                seed,
                plant: BugKind::ALL.to_vec(),
                ..WorkloadConfig::default()
            };
            let p = generate(&config);
            let errors = verify_program(&p);
            assert!(errors.is_empty(), "seed {seed}: {errors:?}");
            assert!(p.len() >= config.classes);
        }
    }

    #[test]
    fn some_classes_implement_multiple_interfaces() {
        let mut found = false;
        for seed in 0..6 {
            let p = generate(&WorkloadConfig {
                seed,
                classes: 40,
                interfaces: 12,
                implements_prob: 0.8,
                plant: vec![],
                ..WorkloadConfig::default()
            });
            if p.classes()
                .any(|c| !c.is_interface() && c.interfaces.len() >= 2)
            {
                found = true;
                break;
            }
        }
        assert!(found, "expected some multi-interface class across seeds");
    }

    #[test]
    fn njr_profile_matches_paper_scale() {
        let p = generate(&WorkloadConfig::njr_profile(1));
        // Paper geo-means: 184 classes, 285 KB. Same order of magnitude.
        assert!(p.len() >= 184, "classes: {}", p.len());
        let bytes = lbr_classfile::program_byte_size(&p);
        assert!(bytes > 100_000, "bytes: {bytes}");
        assert!(lbr_classfile::verify_program(&p).is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let config = WorkloadConfig::default();
        let a = generate(&config);
        let b = generate(&config);
        assert_eq!(a, b);
        let c = generate(&WorkloadConfig { seed: 99, ..config });
        assert_ne!(a, c);
    }

    #[test]
    fn scaling_changes_size() {
        let small = generate(&WorkloadConfig::default().scaled(0.3));
        let large = generate(&WorkloadConfig::default().scaled(2.0));
        assert!(large.len() > small.len());
    }

    #[test]
    fn planted_cast_patterns_exist_only_in_bug_clusters() {
        let config = WorkloadConfig {
            plant: vec![BugKind::CastToObject],
            plants_per_bug: 3,
            classes: 30,
            ..WorkloadConfig::default()
        };
        let p = generate(&config);
        let bug_classes = config.bug_clusters() * config.cluster_size;
        let mut found = 0;
        for class in p.classes() {
            for m in &class.methods {
                if let Some(code) = &m.code {
                    for w in code.insns.windows(2) {
                        if matches!(
                            (&w[0], &w[1]),
                            (Insn::CheckCast(_), Insn::InvokeInterface(_))
                        ) {
                            found += 1;
                            // Trigger must live in a bug cluster.
                            let idx: usize = class.name["Cls".len()..].parse().unwrap();
                            assert!(
                                idx < bug_classes,
                                "trigger planted outside bug clusters: {}",
                                class.name
                            );
                        }
                    }
                }
            }
        }
        assert!(found >= 1, "expected planted cast→invokeinterface patterns");
    }

    #[test]
    fn random_templates_do_not_trigger_bugs() {
        // With nothing planted, all three decompilers must be clean on the
        // generated program.
        use lbr_decompiler::{BugSet, DecompilerOracle};
        for seed in 0..4 {
            let config = WorkloadConfig {
                seed,
                plant: vec![],
                ..WorkloadConfig::default()
            };
            let p = generate(&config);
            for bugs in [
                BugSet::decompiler_a(),
                BugSet::decompiler_b(),
                BugSet::decompiler_c(),
                BugSet::all(),
            ] {
                let oracle = DecompilerOracle::new(&p, bugs.clone());
                assert!(
                    !oracle.is_failing(),
                    "seed {seed}: accidental trigger with {bugs:?}: {:?}",
                    oracle.baseline()
                );
            }
        }
    }

    #[test]
    fn sampled_configs_are_deterministic_and_verify() {
        for seed in [0u64, 1, 7, 0xC0FFEE] {
            let a = WorkloadConfig::sampled(seed);
            let b = WorkloadConfig::sampled(seed);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
            assert!((6..=12).contains(&a.classes));
            assert!(a.methods_per_class.0 <= a.methods_per_class.1);
            assert!(a.stmts_per_method.0 <= a.stmts_per_method.1);
            let p = generate(&a);
            assert!(
                lbr_classfile::verify_program(&p).is_empty(),
                "sampled seed {seed} must generate a verifying program"
            );
        }
        // Different seeds should explore different geometries.
        let g0 = WorkloadConfig::sampled(0);
        let distinct = (1..32u64)
            .map(WorkloadConfig::sampled)
            .filter(|c| c.classes != g0.classes || c.interfaces != g0.interfaces)
            .count();
        assert!(
            distinct > 16,
            "sampled geometry barely varies: {distinct}/31"
        );
    }

    #[test]
    fn clusters_limit_cross_references() {
        let config = WorkloadConfig {
            classes: 30,
            cross_cluster_prob: 0.0,
            plant: vec![],
            ..WorkloadConfig::default()
        };
        let p = generate(&config);
        // With zero cross-cluster probability, a class references only
        // names of its own cluster (or Object).
        for class in p.classes() {
            if class.is_interface() {
                continue;
            }
            let idx: usize = class.name["Cls".len()..].parse().unwrap();
            let cluster = idx / config.cluster_size;
            for m in &class.methods {
                if let Some(code) = &m.code {
                    for insn in &code.insns {
                        for r in insn.referenced_classes() {
                            if let Some(num) = r.strip_prefix("Cls") {
                                let ridx: usize = num.parse().unwrap();
                                assert_eq!(
                                    ridx / config.cluster_size,
                                    cluster,
                                    "{} references {} across clusters",
                                    class.name,
                                    r
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn adversarial_shapes_verify_and_fail() {
        use lbr_decompiler::BugSet;
        for shape in AdversarialShape::ALL {
            for seed in [1u64, 77, 4242] {
                let mut config = WorkloadConfig::adversarial(shape, seed);
                if shape != AdversarialShape::MultiError {
                    config.plant = BugSet::decompiler_a().kinds().to_vec();
                }
                let p = generate(&config);
                assert!(
                    lbr_classfile::verify_program(&p).is_empty(),
                    "{shape:?}/{seed} must verify"
                );
                let oracle = lbr_decompiler::DecompilerOracle::new(&p, BugSet::decompiler_a());
                assert!(
                    oracle.is_failing(),
                    "{shape:?}/{seed} must fail decompiler a"
                );
            }
        }
        // MultiError's whole point: several distinct baseline errors.
        let p = generate(&WorkloadConfig::adversarial(
            AdversarialShape::MultiError,
            9,
        ));
        let oracle = lbr_decompiler::DecompilerOracle::new(&p, BugSet::all());
        assert!(
            oracle.error_count() >= 4,
            "multi-error shape yields {} errors",
            oracle.error_count()
        );
    }
}
