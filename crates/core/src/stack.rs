//! The composable oracle middleware stack.
//!
//! Every caller of the reduction algorithms wraps the same black-box
//! predicate with the same few concerns — an external probe cache,
//! emulated tool latency, fault injection, coverage recording — and
//! before this module each caller hand-rolled its own wrapping. Here each
//! concern is an [`OracleLayer`]: a decorator that receives the candidate
//! subset and a `next` continuation, and may answer the probe itself
//! (a cache hit), pass it down (possibly after a delay), or observe the
//! result on the way back up. An [`OracleStack`] threads the layers over
//! a base [`ConcurrentPredicate`] and is itself a `ConcurrentPredicate`,
//! so a stacked oracle drops into every probe path unchanged — the
//! sequential [`Oracle`](crate::Oracle) wrapper, the speculative
//! [`ProbeScheduler`](crate::ProbeScheduler), or a bare algorithm.
//!
//! The canonical order, outermost first, is
//!
//! ```text
//! memo/trace/stats (Oracle or ProbeScheduler, per run)
//!   └─ CacheLayer (cross-run ProbeCache; optionally FaultyCache-wrapped)
//!        └─ LatencyLayer (emulated tool latency on fresh runs only)
//!             └─ base predicate (materialize candidate + run the tool)
//! ```
//!
//! so cache hits never sleep and per-run memo hits never reach the stack
//! at all — exactly the behavior the callers had before. Layers use
//! atomic counters, so their stat totals are exact under any thread
//! interleaving wherever the underlying cache discipline is (the
//! run-once [`ShardedMemo`](crate::ShardedMemo) above, first-write-wins
//! caches below).

use crate::concurrent::{ConcurrentPredicate, Probe, ProbeCache};
use crate::fault::{FaultInjector, FaultPlan};
use crate::keyed::KeyedMap;
use lbr_logic::VarSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One middleware layer over a probe path.
///
/// A layer receives the candidate and the rest of the stack as `next`; it
/// may call `next` zero times (answering from a cache), once (the normal
/// case), or — for validation-style layers — observe and re-emit the
/// result. Layers are probed through `&self` from many threads, so all
/// internal state must be thread-safe.
pub trait OracleLayer: Sync {
    /// Handles one probe, delegating to `next` for the layers below.
    fn probe(&self, input: &VarSet, next: &dyn Fn(&VarSet) -> Probe) -> Probe;
}

/// A stack of [`OracleLayer`]s over a base predicate.
///
/// Layers are applied outermost-first: `stack.push(a); stack.push(b)`
/// probes as `a(b(base))`. The stack borrows its layers, so the caller
/// keeps the concrete layer values and can read their counters after the
/// run.
pub struct OracleStack<'p> {
    base: &'p dyn ConcurrentPredicate,
    layers: Vec<&'p dyn OracleLayer>,
}

impl<'p> OracleStack<'p> {
    /// A stack with no layers: probes go straight to `base`.
    pub fn new(base: &'p dyn ConcurrentPredicate) -> Self {
        OracleStack {
            base,
            layers: Vec::new(),
        }
    }

    /// Adds `layer` beneath the layers already pushed (the first push is
    /// outermost).
    pub fn push(&mut self, layer: &'p dyn OracleLayer) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Builder-style [`push`](Self::push).
    pub fn with(mut self, layer: &'p dyn OracleLayer) -> Self {
        self.layers.push(layer);
        self
    }

    fn probe_from(&self, depth: usize, input: &VarSet) -> Probe {
        match self.layers.get(depth) {
            Some(layer) => layer.probe(input, &|key| self.probe_from(depth + 1, key)),
            None => self.base.probe(input),
        }
    }
}

impl ConcurrentPredicate for OracleStack<'_> {
    fn probe(&self, input: &VarSet) -> Probe {
        self.probe_from(0, input)
    }
}

/// The cross-run cache layer: answers probes from a [`ProbeCache`] and
/// stores fresh results back.
///
/// Sits beneath the per-run bookkeeping, so a hit replaces the tool
/// invocation only — logical call counts, traces and results are
/// bit-identical whether the cache is cold, warm, faulty or absent.
pub struct CacheLayer<'c> {
    cache: &'c dyn ProbeCache,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'c> CacheLayer<'c> {
    /// A layer over `cache`.
    pub fn new(cache: &'c dyn ProbeCache) -> Self {
        CacheLayer {
            cache,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Probes answered by the cache without running the layers below.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Probes that fell through to the layers below.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl OracleLayer for CacheLayer<'_> {
    fn probe(&self, input: &VarSet, next: &dyn Fn(&VarSet) -> Probe) -> Probe {
        if let Some(probe) = self.cache.lookup(input) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return probe;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let probe = next(input);
        self.cache.store(input, probe);
        probe
    }
}

/// Per-probe coverage statistics aggregated by a [`TraceLayer`].
///
/// This is the trace-guided prior of coverage-based debloating, recast
/// over keep-sets: every failure-preserving probe "executes" exactly the
/// items it kept, so the per-item frequency over failing probes is an
/// execution-coverage profile of the bug, and the smallest failing
/// keep-set seen is the covered set a trace-guided search should start
/// from.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageTrace {
    probes: u64,
    failing: u64,
    freq: Vec<u64>,
    best_failing: Option<VarSet>,
}

impl CoverageTrace {
    /// An empty trace over `num_vars` item variables.
    pub fn new(num_vars: usize) -> Self {
        CoverageTrace {
            probes: 0,
            failing: 0,
            freq: vec![0; num_vars],
            best_failing: None,
        }
    }

    /// Folds one probe into the trace. Only failure-preserving probes
    /// contribute coverage; ties on the smallest failing keep-set go to
    /// the earliest probe, keeping the trace deterministic.
    pub fn record(&mut self, input: &VarSet, probe: Probe) {
        self.probes += 1;
        if probe.outcome {
            self.failing += 1;
            for v in input.iter() {
                self.freq[v.index()] += 1;
            }
            let better = match &self.best_failing {
                None => true,
                Some(best) => input.len() < best.len(),
            };
            if better {
                self.best_failing = Some(input.clone());
            }
        }
    }

    /// Probes recorded.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Probes whose outcome preserved the failure.
    pub fn failing(&self) -> u64 {
        self.failing
    }

    /// Per-variable count of failing probes that kept the variable.
    pub fn frequencies(&self) -> &[u64] {
        &self.freq
    }

    /// The smallest failure-preserving keep-set seen, if any — the
    /// covered set a trace-guided search seeds its assignment with.
    pub fn covered(&self) -> Option<&VarSet> {
        self.best_failing.as_ref()
    }

    /// FNV-1a digest of the whole trace (counts, frequencies, covered
    /// set), for bit-identity assertions across runs and store states.
    pub fn digest(&self) -> u64 {
        fn eat(h: u64, x: u64) -> u64 {
            x.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        h = eat(h, self.probes);
        h = eat(h, self.failing);
        for &f in &self.freq {
            h = eat(h, f);
        }
        match &self.best_failing {
            None => h = eat(h, u64::MAX),
            Some(best) => {
                h = eat(h, best.len() as u64);
                for v in best.iter() {
                    h = eat(h, v.index() as u64);
                }
            }
        }
        h
    }
}

/// The trace-recording layer: observes every probe into a
/// [`CoverageTrace`], optionally backed by a cross-run trace *store* (a
/// [`ProbeCache`]) that answers repeated probes without re-running the
/// tool.
///
/// Canonical stack position: memo → **trace** → cache → latency → base.
/// The store follows [`CacheLayer`]'s hit discipline exactly — a hit
/// replaces the tool invocation only, and the probe is still recorded in
/// the trace — so call counts, traces, digests and results are
/// bit-identical whether the store is cold, warm, or absent.
pub struct TraceLayer<'c> {
    store: Option<&'c dyn ProbeCache>,
    trace: Mutex<CoverageTrace>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'c> TraceLayer<'c> {
    /// A store-less recorder over `num_vars` item variables.
    pub fn new(num_vars: usize) -> Self {
        TraceLayer {
            store: None,
            trace: Mutex::new(CoverageTrace::new(num_vars)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A recorder whose probes are answered from (and stored back to)
    /// `store` — warm runs skip the tool, the trace sees every probe.
    pub fn with_store(num_vars: usize, store: &'c dyn ProbeCache) -> Self {
        TraceLayer {
            store: Some(store),
            ..TraceLayer::new(num_vars)
        }
    }

    /// Probes answered by the trace store without the layers below.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Probes that ran the layers below.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// A copy of the coverage trace aggregated so far.
    pub fn snapshot(&self) -> CoverageTrace {
        self.trace.lock().expect("trace layer").clone()
    }
}

impl OracleLayer for TraceLayer<'_> {
    fn probe(&self, input: &VarSet, next: &dyn Fn(&VarSet) -> Probe) -> Probe {
        let probe = match self.store {
            Some(store) => match store.lookup(input) {
                Some(p) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    p
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let p = next(input);
                    store.store(input, p);
                    p
                }
            },
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                next(input)
            }
        };
        self.trace.lock().expect("trace layer").record(input, probe);
        probe
    }
}

/// Emulated tool latency: sleeps for a fixed duration on every probe that
/// reaches it, modeling the decompile+compile wall cost without the
/// tools. Placed beneath the cache layer so cache hits stay instant.
pub struct LatencyLayer {
    micros: u64,
}

impl LatencyLayer {
    /// A layer that sleeps `micros` microseconds per probe (0 = no-op).
    pub fn new(micros: u64) -> Self {
        LatencyLayer { micros }
    }
}

impl OracleLayer for LatencyLayer {
    fn probe(&self, input: &VarSet, next: &dyn Fn(&VarSet) -> Probe) -> Probe {
        if self.micros > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.micros));
        }
        next(input)
    }
}

/// A plain in-memory [`ProbeCache`] over a [`KeyedMap`] — the simplest
/// thing to hand a [`CacheLayer`] in tests, examples, or single-process
/// runs that want cross-run sharing without a disk file.
#[derive(Default)]
pub struct MemoryCache {
    map: Mutex<KeyedMap<Probe>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MemoryCache {
    /// An empty cache.
    pub fn new() -> Self {
        MemoryCache::default()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.lock().expect("memory cache").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl ProbeCache for MemoryCache {
    fn lookup(&self, key: &VarSet) -> Option<Probe> {
        let found = self.map.lock().expect("memory cache").get(key).copied();
        match found {
            Some(p) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(p)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn store(&self, key: &VarSet, probe: Probe) {
        self.map
            .lock()
            .expect("memory cache")
            .insert_if_absent(key, probe);
    }
}

/// A [`ProbeCache`] decorator that injects deterministic faults: a
/// faulted lookup degrades to a miss, a faulted store is dropped. Wrap
/// any cache with it and hand the result to a [`CacheLayer`] to prove a
/// probe path survives cache loss with bit-identical results.
pub struct FaultyCache<'c> {
    inner: &'c dyn ProbeCache,
    injector: FaultInjector,
}

impl<'c> FaultyCache<'c> {
    /// Wraps `inner`, faulting each operation per `plan`.
    pub fn new(inner: &'c dyn ProbeCache, plan: FaultPlan) -> Self {
        let injector = FaultInjector::new();
        injector.arm(plan);
        FaultyCache { inner, injector }
    }

    /// Operations faulted so far.
    pub fn faults_injected(&self) -> u64 {
        self.injector.injected()
    }
}

impl ProbeCache for FaultyCache<'_> {
    fn lookup(&self, key: &VarSet) -> Option<Probe> {
        if self.injector.fire() {
            return None;
        }
        self.inner.lookup(key)
    }

    fn store(&self, key: &VarSet, probe: Probe) {
        if self.injector.fire() {
            return;
        }
        self.inner.store(key, probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_logic::Var;
    use std::sync::atomic::AtomicUsize;

    fn set(universe: usize, vars: &[u32]) -> VarSet {
        VarSet::from_iter_with_universe(universe, vars.iter().map(|&v| Var::new(v)))
    }

    #[test]
    fn empty_stack_is_the_base_predicate() {
        let base = |s: &VarSet| s.len() >= 2;
        let stack = OracleStack::new(&base);
        assert!(stack.probe(&set(4, &[0, 1])).outcome);
        assert!(!stack.probe(&set(4, &[0])).outcome);
    }

    #[test]
    fn cache_layer_answers_repeats_without_the_base() {
        let runs = AtomicUsize::new(0);
        let base = |s: &VarSet| {
            runs.fetch_add(1, Ordering::Relaxed);
            s.contains(Var::new(0))
        };
        let cache = MemoryCache::new();
        let layer = CacheLayer::new(&cache);
        let stack = OracleStack::new(&base).with(&layer);
        let key = set(4, &[0, 2]);
        let first = stack.probe(&key);
        let second = stack.probe(&key);
        assert_eq!(first, second);
        assert_eq!(runs.load(Ordering::Relaxed), 1, "base ran once");
        assert_eq!((layer.hits(), layer.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn layer_order_is_outermost_first() {
        // cache over trace: a cache hit must bypass the trace layer.
        let base = |_: &VarSet| true;
        let cache = MemoryCache::new();
        let cache_layer = CacheLayer::new(&cache);
        let trace = TraceLayer::new(4);
        let stack = OracleStack::new(&base).with(&cache_layer).with(&trace);
        let key = set(4, &[1]);
        stack.probe(&key);
        stack.probe(&key);
        assert_eq!(
            trace.snapshot().probes(),
            1,
            "the hit never reached the trace layer"
        );
        assert_eq!(cache_layer.hits(), 1);
    }

    #[test]
    fn faulty_cache_loses_entries_never_corrupts() {
        let inner = MemoryCache::new();
        let key = set(4, &[1, 3]);
        let probe = Probe {
            outcome: true,
            size: 9,
        };
        // Every operation faults: the store is dropped, the lookup misses.
        let all_faults = FaultyCache::new(&inner, FaultPlan { rate: 1.0, seed: 1 });
        all_faults.store(&key, probe);
        assert!(inner.is_empty(), "faulted store must be dropped");
        inner.store(&key, probe);
        assert_eq!(all_faults.lookup(&key), None, "faulted lookup must miss");
        assert!(all_faults.faults_injected() >= 2);
        // Disarmed path returns the intact entry.
        let no_faults = FaultyCache::new(&inner, FaultPlan { rate: 0.0, seed: 1 });
        assert_eq!(no_faults.lookup(&key), Some(probe));
    }

    #[test]
    fn trace_layer_aggregates_failing_coverage() {
        let base = |s: &VarSet| s.contains(Var::new(0));
        let trace = TraceLayer::new(4);
        let stack = OracleStack::new(&base).with(&trace);
        stack.probe(&set(4, &[0, 1]));
        stack.probe(&set(4, &[0]));
        stack.probe(&set(4, &[2]));
        let cov = trace.snapshot();
        assert_eq!((cov.probes(), cov.failing()), (3, 2));
        assert_eq!(cov.frequencies(), &[2, 1, 0, 0]);
        assert_eq!(cov.covered(), Some(&set(4, &[0])));
        assert_eq!(trace.misses(), 3);
    }

    #[test]
    fn warm_trace_store_is_invisible_in_the_trace() {
        let runs = AtomicUsize::new(0);
        let base = |s: &VarSet| {
            runs.fetch_add(1, Ordering::Relaxed);
            s.contains(Var::new(1))
        };
        let store = MemoryCache::new();
        let probes = [set(4, &[0, 1]), set(4, &[1]), set(4, &[3])];
        let cold = TraceLayer::with_store(4, &store);
        for p in &probes {
            OracleStack::new(&base).with(&cold).probe(p);
        }
        let cold_runs = runs.load(Ordering::Relaxed);
        let warm = TraceLayer::with_store(4, &store);
        for p in &probes {
            OracleStack::new(&base).with(&warm).probe(p);
        }
        assert_eq!(runs.load(Ordering::Relaxed), cold_runs, "warm skips tool");
        assert_eq!(warm.hits(), 3);
        assert_eq!(cold.snapshot(), warm.snapshot(), "trace sees every probe");
        assert_eq!(cold.snapshot().digest(), warm.snapshot().digest());
    }

    #[test]
    fn coverage_digest_separates_distinct_traces() {
        let mut a = CoverageTrace::new(3);
        let mut b = CoverageTrace::new(3);
        let failing = Probe {
            outcome: true,
            size: 2,
        };
        a.record(&set(3, &[0, 1]), failing);
        b.record(&set(3, &[0, 2]), failing);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), CoverageTrace::new(3).digest());
    }

    #[test]
    fn latency_layer_passes_through() {
        let base = |s: &VarSet| s.is_empty();
        let latency = LatencyLayer::new(0);
        let stack = OracleStack::new(&base).with(&latency);
        assert!(stack.probe(&set(2, &[])).outcome);
        assert!(!stack.probe(&set(2, &[1])).outcome);
    }
}
