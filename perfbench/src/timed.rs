//! `Input` / `InputOracle` newtypes that time every call crossing the
//! frontend and oracle boundaries. The traced run reduces `Timed<I>`
//! inputs against a `TimedOracle`; everything else delegates unchanged,
//! so the traced run must reproduce the untraced run exactly.

use lbr_core::{CoarseModel, Input, InputModel, InputOracle};
use lbr_logic::VarSet;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Busy time and call count at one boundary. `Relaxed` suffices: the
/// counters publish no other data, and the traced run probes on one
/// thread.
pub struct Counter {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl Counter {
    const fn new() -> Self {
        Counter {
            nanos: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn read(&self) -> Span {
        Span {
            secs: self.nanos.load(Ordering::Relaxed) as f64 / 1e9,
            calls: self.calls.load(Ordering::Relaxed),
        }
    }
}

/// `Input::model`.
static MODEL: Counter = Counter::new();
/// `InputModel::materialize` and `CoarseModel::materialize`.
static MATERIALIZE: Counter = Counter::new();
/// `Input::byte_size` and `Input::unit_count`.
static SIZE: Counter = Counter::new();
/// `Input::validate`, `to_bytes` and `from_bytes`.
static CHECK: Counter = Counter::new();
/// `InputOracle::errors`.
static ORACLE: Counter = Counter::new();

/// Seconds and calls accumulated at one boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub secs: f64,
    pub calls: u64,
}

impl Span {
    fn minus(self, earlier: Span) -> Span {
        Span {
            secs: self.secs - earlier.secs,
            calls: self.calls - earlier.calls,
        }
    }

    fn plus(self, other: Span) -> Span {
        Span {
            secs: self.secs + other.secs,
            calls: self.calls + other.calls,
        }
    }
}

/// A reading of every boundary counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ledger {
    pub model: Span,
    pub materialize: Span,
    pub size: Span,
    pub check: Span,
    pub oracle: Span,
}

impl Ledger {
    /// The counters now.
    pub fn now() -> Ledger {
        Ledger {
            model: MODEL.read(),
            materialize: MATERIALIZE.read(),
            size: SIZE.read(),
            check: CHECK.read(),
            oracle: ORACLE.read(),
        }
    }

    /// What accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Ledger) -> Ledger {
        Ledger {
            model: self.model.minus(earlier.model),
            materialize: self.materialize.minus(earlier.materialize),
            size: self.size.minus(earlier.size),
            check: self.check.minus(earlier.check),
            oracle: self.oracle.minus(earlier.oracle),
        }
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: &Ledger) {
        self.model = self.model.plus(other.model);
        self.materialize = self.materialize.plus(other.materialize);
        self.size = self.size.plus(other.size);
        self.check = self.check.plus(other.check);
        self.oracle = self.oracle.plus(other.oracle);
    }

    /// Seconds spent in the frontend.
    pub fn frontend_secs(&self) -> f64 {
        self.model.secs + self.materialize.secs + self.size.secs + self.check.secs
    }
}

/// An input whose frontend calls are timed.
#[derive(Debug, Clone, PartialEq)]
pub struct Timed<I>(pub I);

impl<I: Input> Input for Timed<I> {
    const FORMAT: &'static str = I::FORMAT;

    fn model(&self) -> Result<InputModel<'_, Self>, String> {
        let inner = MODEL.time(|| self.0.model())?;
        let materialize = inner.materialize;
        Ok(InputModel {
            cnf: inner.cnf,
            stats: inner.stats,
            levels: inner.levels,
            materialize: Box::new(move |keep: &VarSet| {
                Timed(MATERIALIZE.time(|| materialize(keep)))
            }),
        })
    }

    fn coarse_model(&self) -> CoarseModel<'_, Self> {
        let inner = MODEL.time(|| self.0.coarse_model());
        let materialize = inner.materialize;
        CoarseModel {
            graph: inner.graph,
            materialize: Box::new(move |keep: &VarSet| {
                Timed(MATERIALIZE.time(|| materialize(keep)))
            }),
        }
    }

    fn to_bytes(&self) -> Vec<u8> {
        CHECK.time(|| self.0.to_bytes())
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        CHECK.time(|| I::from_bytes(bytes)).map(Timed)
    }

    fn byte_size(&self) -> usize {
        SIZE.time(|| self.0.byte_size())
    }

    fn unit_count(&self) -> usize {
        SIZE.time(|| self.0.unit_count())
    }

    fn validate(&self) -> Vec<String> {
        CHECK.time(|| self.0.validate())
    }
}

/// An oracle whose tool runs are timed.
pub struct TimedOracle<'o, O>(pub &'o O);

impl<I: Input, O: InputOracle<I>> InputOracle<Timed<I>> for TimedOracle<'_, O> {
    fn baseline(&self) -> &BTreeSet<String> {
        self.0.baseline()
    }

    fn errors(&self, input: &Timed<I>) -> BTreeSet<String> {
        ORACLE.time(|| self.0.errors(&input.0))
    }
}
