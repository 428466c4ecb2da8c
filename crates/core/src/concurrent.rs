//! The thread-safe probe path: concurrent predicates, a sharded probe
//! memo, and the speculative [`ProbeScheduler`] behind parallel GBR.
//!
//! The paper's wall time is dominated by tool invocations (≈33 s per
//! decompile+compile), and GBR's binary search issues them one at a time.
//! Probes of *disjoint candidates* are independent, though: while the
//! search waits for the probe of prefix `D^∪_mid`, the probes it would
//! issue next — for either outcome of the pending one — can already run on
//! other cores. This module provides the machinery:
//!
//! * [`ConcurrentPredicate`] — a `Sync` probe path (`&self`, not
//!   `&mut self`) so one predicate can serve many worker threads. Tool
//!   oracles implement it by being pure per probe (each probe builds its
//!   own candidate; nothing is mutated).
//! * [`ShardedMemo`] — a striped concurrent cache keyed by candidate
//!   subset. Workers share hits without a global lock; in-flight entries
//!   are claimed so a subset is only ever probed once.
//! * [`ProbeScheduler`] — a work queue + worker pool with epoch-style
//!   cancellation: speculation that becomes irrelevant after the search
//!   narrows is dropped before it runs (in-flight probes finish and still
//!   populate the memo, which is harmless for a deterministic predicate).
//!
//! Everything is `std`-only (scoped threads, mutexes, condvars), matching
//! the eval harness's pool style.

use crate::keyed::KeyedMap;
use lbr_logic::VarSet;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// The outcome of one probe: the predicate verdict plus the measured size
/// of the candidate (so traces don't need a second pass over the input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Whether the failure is still induced (the predicate verdict).
    pub outcome: bool,
    /// Size of the tested candidate (variable count, or a custom metric
    /// such as serialized bytes).
    pub size: u64,
}

/// A black-box predicate that may be probed from many threads at once.
///
/// This is the thread-safe sibling of [`Predicate`](crate::Predicate):
/// `probe` takes `&self`, so implementations must be pure per probe —
/// each call builds and tests its own candidate without mutating shared
/// state. Deterministic implementations (the same input always yields the
/// same outcome) are required for speculative probing to be invisible.
pub trait ConcurrentPredicate: Sync {
    /// Tests the candidate subset, returning the verdict and its size.
    fn probe(&self, input: &VarSet) -> Probe;
}

impl<F: Fn(&VarSet) -> bool + Sync> ConcurrentPredicate for F {
    fn probe(&self, input: &VarSet) -> Probe {
        Probe {
            outcome: self(input),
            size: input.len() as u64,
        }
    }
}

/// A probe-outcome cache that outlives a single reduction run — the
/// interface a persistent (disk-backed, cross-job) oracle cache exposes
/// to the pipeline.
///
/// Implementations sit *beneath* the per-run bookkeeping: a hit replaces
/// the tool invocation only, so logical predicate-call counts, traces,
/// and results are bit-identical whether the cache is cold or warm. Keys
/// are candidate subsets; implementations must only be shared between
/// runs whose predicate is the same pure function (callers namespace by
/// input + oracle identity).
pub trait ProbeCache: Sync {
    /// Returns the remembered probe for this candidate, if any.
    fn lookup(&self, key: &VarSet) -> Option<Probe>;
    /// Remembers a freshly executed probe.
    fn store(&self, key: &VarSet, probe: Probe);
}

/// The per-key state inside a memo shard.
#[derive(Debug)]
struct Slot<V> {
    /// `None` while the probe is in flight (claimed but not finished).
    value: Option<V>,
    /// Whether the owning algorithm ever asked for this key (as opposed
    /// to it only being probed speculatively).
    demanded: bool,
}

#[derive(Debug)]
struct Shard<V> {
    map: Mutex<KeyedMap<Slot<V>>>,
    ready: Condvar,
}

/// What [`ShardedMemo::claim_or_get`] found.
pub enum ClaimResult<V> {
    /// The value is ready; the flag says whether this was the key's first
    /// demand.
    Done(V, bool),
    /// Another thread is computing it; wait with [`ShardedMemo::wait`].
    InFlight(bool),
    /// The caller claimed the key and must compute and
    /// [`fulfill`](ShardedMemo::fulfill) it.
    Claimed,
}

/// Totals from a final scan of the memo (see [`ShardedMemo::scan`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoScan {
    /// Distinct keys ever claimed (each was computed exactly once).
    pub entries: u64,
    /// Keys that were demanded at least once.
    pub demanded: u64,
}

/// A sharded (striped) concurrent memo keyed by candidate subset.
///
/// Keys are bucketed by [`VarSet::fingerprint`]; each shard is an
/// independent mutex + condvar, so threads probing different subsets
/// almost never contend. A key is *claimed* before it is computed, which
/// gives the memo run-once semantics: concurrent requests for the same
/// subset run the underlying computation exactly once and everyone else
/// blocks until the value lands. That makes hit/miss counts deterministic
/// under parallelism — the miss count is exactly the number of distinct
/// keys computed, regardless of thread interleaving.
#[derive(Debug)]
pub struct ShardedMemo<V> {
    shards: Vec<Shard<V>>,
    mask: u64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V: Clone> ShardedMemo<V> {
    /// Creates a memo with `shards` stripes (rounded up to a power of
    /// two).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedMemo {
            shards: (0..n)
                .map(|_| Shard {
                    map: Mutex::new(KeyedMap::new()),
                    ready: Condvar::new(),
                })
                .collect(),
            mask: (n - 1) as u64,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, fp: u64) -> &Shard<V> {
        &self.shards[(fp & self.mask) as usize]
    }

    /// Returns the cached value for `key`, computing it with `f` if absent.
    ///
    /// Exactly one caller computes each distinct key; concurrent callers
    /// for the same key block until the value is ready. The computing call
    /// counts as a miss, every other call (cached or waited) as a hit.
    pub fn get_or_compute(&self, key: &VarSet, f: impl FnOnce() -> V) -> V {
        let shard = self.shard(key.fingerprint());
        {
            let mut map = shard.map.lock().expect("memo shard");
            if let Some(slot) = map.get_mut(key) {
                slot.demanded = true;
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(v) = &slot.value {
                    return v.clone();
                }
                return Self::wait_in(shard, map, key);
            }
            map.insert_if_absent(
                key,
                Slot {
                    value: None,
                    demanded: true,
                },
            );
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let v = f();
        self.fulfill(key, v.clone());
        v
    }

    /// Claims `key` for speculative computation. Returns `false` if it is
    /// already claimed or done (speculation is then redundant).
    pub fn try_claim(&self, key: &VarSet) -> bool {
        let mut map = self
            .shard(key.fingerprint())
            .map
            .lock()
            .expect("memo shard");
        map.insert_if_absent(
            key,
            Slot {
                value: None,
                demanded: false,
            },
        )
    }

    /// Looks up `key` on behalf of the owning algorithm, marking it
    /// demanded. The caller must compute and [`fulfill`] on
    /// [`ClaimResult::Claimed`] and [`wait`](ShardedMemo::wait) on
    /// [`ClaimResult::InFlight`].
    pub fn claim_or_get(&self, key: &VarSet) -> ClaimResult<V> {
        let mut map = self
            .shard(key.fingerprint())
            .map
            .lock()
            .expect("memo shard");
        if let Some(slot) = map.get_mut(key) {
            let first = !slot.demanded;
            slot.demanded = true;
            return match &slot.value {
                Some(v) => ClaimResult::Done(v.clone(), first),
                None => ClaimResult::InFlight(first),
            };
        }
        map.insert_if_absent(
            key,
            Slot {
                value: None,
                demanded: true,
            },
        );
        ClaimResult::Claimed
    }

    /// Publishes the value for a previously claimed key and wakes waiters.
    pub fn fulfill(&self, key: &VarSet, value: V) {
        let shard = self.shard(key.fingerprint());
        let mut map = shard.map.lock().expect("memo shard");
        let slot = map.get_mut(key).expect("fulfill without claim");
        slot.value = Some(value);
        shard.ready.notify_all();
    }

    /// Blocks until the in-flight value for `key` is published.
    pub fn wait(&self, key: &VarSet) -> V {
        let shard = self.shard(key.fingerprint());
        let map = shard.map.lock().expect("memo shard");
        Self::wait_in(shard, map, key)
    }

    fn wait_in(shard: &Shard<V>, mut map: MutexGuard<'_, KeyedMap<Slot<V>>>, key: &VarSet) -> V {
        loop {
            if let Some(v) = map.get(key).and_then(|slot| slot.value.clone()) {
                return v;
            }
            map = shard.ready.wait(map).expect("memo shard");
        }
    }

    /// Probes served without computing (cached or waited-for).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Probes that computed a fresh value (= distinct keys demanded via
    /// [`get_or_compute`](Self::get_or_compute)).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Scans all shards for entry totals. Call after all workers have
    /// quiesced (e.g. once the owning thread scope has joined).
    pub fn scan(&self) -> MemoScan {
        let mut scan = MemoScan::default();
        for shard in &self.shards {
            let map = shard.map.lock().expect("memo shard");
            for (_, slot) in map.iter() {
                scan.entries += 1;
                if slot.demanded {
                    scan.demanded += 1;
                }
            }
        }
        scan
    }
}

#[derive(Debug, Default)]
struct SpecQueue {
    items: VecDeque<VarSet>,
    shutdown: bool,
}

/// How a demanded probe was satisfied (see [`ProbeScheduler::demand`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandKind {
    /// Speculation had already finished the probe: zero latency.
    Ready,
    /// The probe was in flight; the caller blocked until it finished.
    Waited,
    /// Nothing had started it; the caller ran the tool itself.
    Computed,
}

/// The result of a demanded probe.
#[derive(Debug, Clone, Copy)]
pub struct Demanded {
    /// The probe verdict and size.
    pub probe: Probe,
    /// Whether this was the first demand of the subset (deterministic
    /// miss accounting: first demand = miss, repeats = hits).
    pub first_demand: bool,
    /// How the demand was satisfied (timing-dependent).
    pub kind: DemandKind,
}

/// A speculative probe scheduler: a sharded memo, a retargetable work
/// queue, and stat counters. Worker threads run [`worker`] and execute
/// queued speculations; the owning (search) thread calls [`demand`] for
/// the probes the algorithm actually needs and [`speculate`] to retarget
/// the queue whenever the search narrows.
///
/// Retargeting *replaces* the queue: stale speculation that has not been
/// claimed yet is cancelled outright. Claimed probes finish and publish
/// into the memo — wasted wall time at worst, never wrong results, since
/// the predicate is deterministic and keyed by subset.
///
/// [`worker`]: ProbeScheduler::worker
/// [`demand`]: ProbeScheduler::demand
/// [`speculate`]: ProbeScheduler::speculate
pub struct ProbeScheduler<'p> {
    predicate: &'p dyn ConcurrentPredicate,
    cache: ShardedMemo<Probe>,
    queue: Mutex<SpecQueue>,
    work: Condvar,
    executed: AtomicU64,
}

impl<'p> ProbeScheduler<'p> {
    /// Creates a scheduler over `predicate` with `shards` memo stripes.
    pub fn new(predicate: &'p dyn ConcurrentPredicate, shards: usize) -> Self {
        ProbeScheduler {
            predicate,
            cache: ShardedMemo::new(shards),
            queue: Mutex::new(SpecQueue::default()),
            work: Condvar::new(),
            executed: AtomicU64::new(0),
        }
    }

    /// The worker loop: claim queued speculations and execute them.
    /// Returns when [`shutdown`](Self::shutdown) is called.
    pub fn worker(&self) {
        loop {
            let candidate = {
                let mut q = self.queue.lock().expect("speculation queue");
                loop {
                    if let Some(c) = q.items.pop_front() {
                        break c;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = self.work.wait(q).expect("speculation queue");
                }
            };
            if self.cache.try_claim(&candidate) {
                let probe = self.predicate.probe(&candidate);
                self.executed.fetch_add(1, Ordering::Relaxed);
                self.cache.fulfill(&candidate, probe);
            }
        }
    }

    /// Replaces the speculation queue with `candidates` (front of the list
    /// runs first). An empty list cancels all pending speculation.
    pub fn speculate(&self, candidates: Vec<VarSet>) {
        let mut q = self.queue.lock().expect("speculation queue");
        q.items.clear();
        q.items.extend(candidates);
        drop(q);
        self.work.notify_all();
    }

    /// Demands the probe of `input` for the search itself: returns the
    /// cached result, waits for an in-flight one, or computes it inline.
    pub fn demand(&self, input: &VarSet) -> Demanded {
        match self.cache.claim_or_get(input) {
            ClaimResult::Done(probe, first_demand) => Demanded {
                probe,
                first_demand,
                kind: DemandKind::Ready,
            },
            ClaimResult::InFlight(first_demand) => Demanded {
                probe: self.cache.wait(input),
                first_demand,
                kind: DemandKind::Waited,
            },
            ClaimResult::Claimed => {
                let probe = self.predicate.probe(input);
                self.executed.fetch_add(1, Ordering::Relaxed);
                self.cache.fulfill(input, probe);
                Demanded {
                    probe,
                    first_demand: true,
                    kind: DemandKind::Computed,
                }
            }
        }
    }

    /// Stops the workers once the queue drains (call before joining).
    pub fn shutdown(&self) {
        self.queue.lock().expect("speculation queue").shutdown = true;
        self.work.notify_all();
    }

    /// Total predicate executions (useful + speculative).
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Scans the memo for entry/demand totals (call after joining).
    pub fn scan(&self) -> MemoScan {
        self.cache.scan()
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
    fn memo_computes_each_key_once() {
        let memo: ShardedMemo<u32> = ShardedMemo::new(8);
        let computed = AtomicUsize::new(0);
        let key = set(10, &[1, 3]);
        for _ in 0..3 {
            let v = memo.get_or_compute(&key, || {
                computed.fetch_add(1, Ordering::Relaxed);
                7
            });
            assert_eq!(v, 7);
        }
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.hits(), 2);
    }

    #[test]
    fn memo_run_once_under_contention() {
        let memo: ShardedMemo<usize> = ShardedMemo::new(4);
        let computed = AtomicUsize::new(0);
        let keys: Vec<VarSet> = (0..16u32).map(|i| set(64, &[i, i + 32])).collect();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for (i, k) in keys.iter().enumerate() {
                        let v = memo.get_or_compute(k, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            i
                        });
                        assert_eq!(v, i);
                    }
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), keys.len());
        assert_eq!(memo.misses(), keys.len() as u64);
        assert_eq!(memo.hits(), (8 * keys.len()) as u64 - keys.len() as u64);
    }

    #[test]
    fn scheduler_speculation_feeds_demand() {
        let predicate = |s: &VarSet| s.len() >= 2;
        let scheduler = ProbeScheduler::new(&predicate, 8);
        let a = set(8, &[0, 1]);
        let b = set(8, &[2]);
        std::thread::scope(|s| {
            s.spawn(|| scheduler.worker());
            scheduler.speculate(vec![a.clone(), b.clone()]);
            let da = scheduler.demand(&a);
            let db = scheduler.demand(&b);
            assert!(da.probe.outcome);
            assert!(!db.probe.outcome);
            assert!(da.first_demand && db.first_demand);
            // Repeat demand: never first again, always ready.
            let again = scheduler.demand(&a);
            assert!(!again.first_demand);
            assert_eq!(again.kind, DemandKind::Ready);
            scheduler.shutdown();
        });
        let scan = scheduler.scan();
        assert_eq!(scan.entries, 2);
        assert_eq!(scan.demanded, 2);
        assert_eq!(scheduler.executed(), 2);
    }

    #[test]
    fn scheduler_cancellation_drops_unclaimed_work() {
        let predicate = |_: &VarSet| true;
        let scheduler = ProbeScheduler::new(&predicate, 8);
        // No workers: queued speculation never executes.
        scheduler.speculate(vec![set(8, &[0]), set(8, &[1])]);
        scheduler.speculate(Vec::new()); // cancel
        let d = scheduler.demand(&set(8, &[2]));
        assert_eq!(d.kind, DemandKind::Computed);
        assert_eq!(scheduler.executed(), 1);
        let scan = scheduler.scan();
        assert_eq!(scan.entries, 1, "cancelled speculation never ran");
        scheduler.shutdown();
    }
}
