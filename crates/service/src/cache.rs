//! The disk-backed persistent oracle cache shared across jobs and across
//! daemon restarts.
//!
//! Entries are content-addressed: the key is the candidate keep-set (its
//! 64-bit [`VarSet::fingerprint`] indexes a bucket; full set equality
//! resolves collisions) under a caller-supplied *namespace* — a digest of
//! the input container and the oracle configuration — so two jobs only
//! share entries when their probes are the same pure function. The value
//! is the probe verdict and candidate size, exactly what a tool run
//! produces.
//!
//! # The log
//!
//! Persistence is one append-only text file. After the header line come
//! *batches*: each [`save`](PersistentOracleCache::save) appends the
//! entries stored since the previous save, then a commit line holding the
//! batch's line count and the FNV-1a checksum of its bytes, and fsyncs.
//! A save therefore costs what it adds, not what the cache holds, and it
//! renders and writes outside the cache lock, so probes never wait on the
//! disk.
//!
//! ```text
//! lbr-oracle-cache v2
//! <ns hex> <universe> <outcome> <size> <idx,idx,…|->    one line per entry
//! commit <lines> <fnv-1a hex>                           ends each batch
//! ```
//!
//! [`open`](PersistentOracleCache::open) loads committed batches only. A
//! `kill -9` mid-save leaves a prefix of one batch behind its last commit
//! line; that tail is discarded and the file compacted once through
//! [`atomic_write`](crate::fsio::atomic_write), so a crash loses at most
//! the entries added since the last save. The commit line is what makes
//! the discard sound: without it a torn member list such as `3,4,15` →
//! `3,4,1` would parse as a valid but different key. Damage inside a
//! committed batch is an [`InvalidData`](io::ErrorKind::InvalidData)
//! error, never silently dropped. A `v1` file (the whole cache rewritten
//! on every save) loads unchanged and is compacted to `v2` once.
//!
//! Correctness never depends on the cache — it sits beneath every
//! per-run counter (see [`ProbeCache`]), so a lost
//! entry merely costs one tool re-run.

use crate::checkpoint::{persisted_varset, MAX_UNIVERSE};
use crate::fsio::atomic_write_str;
use lbr_core::{FaultInjector, Probe, ProbeCache};
use lbr_logic::VarSet;
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub use lbr_core::{CacheStats, FaultPlan};

const HEADER: &str = "lbr-oracle-cache v2";
const HEADER_V1: &str = "lbr-oracle-cache v1";
const COMMIT: &str = "commit";

/// One remembered probe.
#[derive(Debug, Clone)]
struct CacheEntry {
    key: VarSet,
    probe: Probe,
    /// Loaded from disk (a previous process's work) rather than stored by
    /// this process — the distinction behind the `warm_hits` stat.
    warm: bool,
}

/// One entry as the log holds it: (namespace, key, probe).
type LogEntry = (u64, VarSet, Probe);

#[derive(Default)]
struct CacheInner {
    /// (namespace, key fingerprint) → entries with that fingerprint.
    buckets: HashMap<(u64, u64), Vec<CacheEntry>>,
    /// Entries stored since the last save, in store order.
    pending: Vec<LogEntry>,
    len: usize,
}

/// The persistent, thread-safe oracle cache. See the module docs.
pub struct PersistentOracleCache {
    path: PathBuf,
    inner: Mutex<CacheInner>,
    /// Length of the file's committed prefix (`0`: no file yet). Held
    /// while appending, so two savers never interleave their batches.
    log: Mutex<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    warm_hits: AtomicU64,
    saves: AtomicU64,
    appended_bytes: AtomicU64,
    faults: FaultInjector,
}

impl PersistentOracleCache {
    /// Opens the cache at `path`, loading the entries of every committed
    /// batch (which are marked *warm*). A missing file is an empty cache;
    /// a file with an unknown header or a damaged committed batch is an
    /// [`InvalidData`](io::ErrorKind::InvalidData) error (never silently
    /// dropped). A torn tail or a `v1` file is compacted before returning.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let mut inner = CacheInner::default();
        let mut log_len = 0;
        match std::fs::read(&path) {
            Ok(bytes) => {
                let loaded = read_log(&bytes).map_err(|msg| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}: {msg}", path.display()),
                    )
                })?;
                for (ns, key, probe) in loaded.entries {
                    insert(&mut inner, ns, key, probe, true);
                }
                log_len = loaded.committed as u64;
                if loaded.compact {
                    let text = render_log(&inner);
                    atomic_write_str(&path, &text)?;
                    log_len = text.len() as u64;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(PersistentOracleCache {
            path,
            inner: Mutex::new(inner),
            log: Mutex::new(log_len),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            saves: AtomicU64::new(0),
            appended_bytes: AtomicU64::new(0),
            faults: FaultInjector::new(),
        })
    }

    /// Arms probabilistic fault injection (see [`FaultPlan`]). A rate of
    /// `0` disarms it.
    pub fn inject_faults(&self, plan: FaultPlan) {
        self.faults.arm(plan);
    }

    /// How many operations have been faulted so far — lets tests confirm
    /// that the fault path was actually exercised.
    pub fn faults_injected(&self) -> u64 {
        self.faults.injected()
    }

    /// Looks up a probe under the namespace, counting a hit or a miss.
    ///
    /// Under an armed [`FaultPlan`] a faulted lookup degrades to a miss:
    /// the caller re-runs the tool, which is always safe.
    pub fn lookup(&self, namespace: u64, key: &VarSet) -> Option<Probe> {
        if self.faults.fire() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let inner = self.inner.lock().expect("cache lock");
        let found = inner
            .buckets
            .get(&(namespace, key.fingerprint()))
            .and_then(|bucket| bucket.iter().find(|e| e.key == *key));
        match found {
            Some(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if entry.warm {
                    self.warm_hits.fetch_add(1, Ordering::Relaxed);
                }
                Some(entry.probe)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Remembers a probe under the namespace (first write wins — the
    /// predicate is pure, so duplicates are necessarily equal) and queues
    /// it for the next [`save`](Self::save). A key whose universe is above
    /// [`MAX_UNIVERSE`] is kept in memory only: the log could not load it
    /// back.
    ///
    /// Under an armed [`FaultPlan`] a faulted store is silently dropped:
    /// the entry is simply lost and a later probe recomputes it.
    pub fn store(&self, namespace: u64, key: &VarSet, probe: Probe) {
        if self.faults.fire() {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        if insert(&mut inner, namespace, key.clone(), probe, false)
            && key.universe() <= MAX_UNIVERSE
        {
            inner.pending.push((namespace, key.clone(), probe));
        }
    }

    /// Appends the entries stored since the last save to the log as one
    /// committed batch and fsyncs it; a no-op when nothing is pending.
    ///
    /// The cache lock is held only to take the pending list; rendering and
    /// writing happen under the separate log lock. On a failed write the
    /// file is cut back to its committed prefix and the batch is queued
    /// again, so a later save retries it.
    pub fn save(&self) -> io::Result<()> {
        let batch = std::mem::take(&mut self.inner.lock().expect("cache lock").pending);
        if batch.is_empty() {
            return Ok(());
        }
        match self.append(&render_batch(&batch)) {
            Ok(written) => {
                self.saves.fetch_add(1, Ordering::Relaxed);
                self.appended_bytes.fetch_add(written, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                let mut inner = self.inner.lock().expect("cache lock");
                let newer = std::mem::replace(&mut inner.pending, batch);
                inner.pending.extend(newer);
                Err(e)
            }
        }
    }

    /// Writes one rendered batch after the committed prefix and returns
    /// the bytes written. The first batch of a new file goes through
    /// `atomic_write` with the header, so the file never exists without
    /// one.
    fn append(&self, batch: &str) -> io::Result<u64> {
        let mut committed = self.log.lock().expect("log lock");
        if *committed == 0 {
            let text = format!("{HEADER}\n{batch}");
            atomic_write_str(&self.path, &text)?;
            *committed = text.len() as u64;
            return Ok(*committed);
        }
        let mut file = OpenOptions::new().write(true).open(&self.path)?;
        let written = file
            .seek(SeekFrom::Start(*committed))
            .and_then(|_| file.write_all(batch.as_bytes()))
            .and_then(|()| file.sync_data());
        if let Err(e) = written {
            let _ = file.set_len(*committed);
            return Err(e);
        }
        *committed += batch.len() as u64;
        Ok(batch.len() as u64)
    }

    /// Total entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").len
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len() as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
        }
    }

    /// Saves that wrote a batch since this cache was opened.
    pub fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }

    /// Bytes those saves wrote (batches with their commit lines, and the
    /// header of a new file).
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes.load(Ordering::Relaxed)
    }

    /// The file this cache persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A view of one namespace implementing [`ProbeCache`], the interface
    /// `lbr_jreduce::ServiceHooks` consumes.
    pub fn namespaced(&self, namespace: u64) -> NamespacedCache<'_> {
        NamespacedCache {
            cache: self,
            namespace,
        }
    }
}

/// Adds an entry unless its key is already present; reports whether it
/// was added.
fn insert(inner: &mut CacheInner, ns: u64, key: VarSet, probe: Probe, warm: bool) -> bool {
    let bucket = inner.buckets.entry((ns, key.fingerprint())).or_default();
    if bucket.iter().any(|e| e.key == key) {
        return false;
    }
    bucket.push(CacheEntry { key, probe, warm });
    inner.len += 1;
    true
}

/// A [`PersistentOracleCache`] scoped to one namespace.
pub struct NamespacedCache<'c> {
    cache: &'c PersistentOracleCache,
    namespace: u64,
}

impl ProbeCache for NamespacedCache<'_> {
    fn lookup(&self, key: &VarSet) -> Option<Probe> {
        self.cache.lookup(self.namespace, key)
    }

    fn store(&self, key: &VarSet, probe: Probe) {
        self.cache.store(self.namespace, key, probe);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a digest `h` over `bytes`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a digest of `salt` and `data` — the namespace for probes of one
/// (input container, oracle configuration) pair.
pub fn namespace_digest(salt: &str, data: &[u8]) -> u64 {
    let h = fnv1a(FNV_OFFSET, salt.as_bytes());
    // Separator: namespace("ab", b"c") ≠ namespace("a", b"bc").
    let h = fnv1a(h, &[0xff]);
    fnv1a(h, data)
}

/// Renders entries as one batch: their lines, then the commit line.
fn render_batch<'e>(entries: impl IntoIterator<Item = &'e LogEntry>) -> String {
    let mut out = String::new();
    let mut lines = 0;
    for (ns, key, probe) in entries {
        render_line(*ns, key, *probe, &mut out);
        lines += 1;
    }
    let checksum = fnv1a(FNV_OFFSET, out.as_bytes());
    out.push_str(&format!("{COMMIT} {lines} {checksum:016x}\n"));
    out
}

/// The whole cache as a fresh log: the header and one batch, in a
/// deterministic (namespace, fingerprint, insertion) order.
fn render_log(inner: &CacheInner) -> String {
    let mut keys: Vec<&(u64, u64)> = inner.buckets.keys().collect();
    keys.sort();
    let entries: Vec<LogEntry> = keys
        .into_iter()
        .flat_map(|k| {
            inner.buckets[k]
                .iter()
                .map(|e| (k.0, e.key.clone(), e.probe))
        })
        .collect();
    format!("{HEADER}\n{}", render_batch(&entries))
}

/// What [`read_log`] recovered from a cache file.
struct Loaded {
    entries: Vec<LogEntry>,
    /// Bytes up to the end of the last commit line.
    committed: usize,
    /// Whether the file must be rewritten: a `v1` file, or a `v2` file
    /// with an uncommitted tail.
    compact: bool,
}

/// Parses a cache file of either version (see the module docs).
fn read_log(bytes: &[u8]) -> Result<Loaded, String> {
    let bad = |lineno: usize| format!("bad cache line {lineno}");
    let not_a_cache = || format!("not a {HEADER} file");
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(not_a_cache)?;
    let header = &bytes[..header_end];
    let mut pos = header_end + 1;
    let mut entries = Vec::new();
    if header == HEADER_V1.as_bytes() {
        let text = std::str::from_utf8(&bytes[pos..]).map_err(|_| "not UTF-8".to_owned())?;
        for (i, line) in text.lines().enumerate() {
            if !line.is_empty() {
                entries.push(parse_line(line.as_bytes()).ok_or_else(|| bad(i + 2))?);
            }
        }
        return Ok(Loaded {
            entries,
            committed: bytes.len(),
            compact: true,
        });
    }
    if header != HEADER.as_bytes() {
        return Err(not_a_cache());
    }
    let mut lineno = 1;
    let mut committed = pos;
    // Lines since the last commit line, with their line numbers.
    let mut open: Vec<(usize, &[u8])> = Vec::new();
    while let Some(len) = bytes[pos..].iter().position(|&b| b == b'\n') {
        let line = &bytes[pos..pos + len];
        lineno += 1;
        if let Some(rest) = line.strip_prefix(COMMIT.as_bytes()) {
            let (lines, checksum) = parse_commit(rest).ok_or_else(|| bad(lineno))?;
            if lines != open.len() || checksum != fnv1a(FNV_OFFSET, &bytes[committed..pos]) {
                return Err(bad(lineno));
            }
            for (n, entry) in open.drain(..) {
                entries.push(parse_line(entry).ok_or_else(|| bad(n))?);
            }
            committed = pos + len + 1;
        } else {
            open.push((lineno, line));
        }
        pos += len + 1;
    }
    // What follows the last commit line must look like what a killed
    // append leaves: whole entry lines, then a prefix of one more line.
    // A commit line torn there must still be a prefix of a well-formed
    // one, so a damaged final commit line is an error, not a torn tail.
    for (n, entry) in open {
        parse_line(entry).ok_or_else(|| bad(n))?;
    }
    if let Some(rest) = bytes[pos..].strip_prefix(COMMIT.as_bytes()) {
        if !is_commit_prefix(rest) {
            return Err(bad(lineno + 1));
        }
    }
    Ok(Loaded {
        entries,
        committed,
        compact: committed < bytes.len(),
    })
}

/// ` <lines> <checksum>` after the `commit` keyword.
fn parse_commit(rest: &[u8]) -> Option<(usize, u64)> {
    let rest = std::str::from_utf8(rest).ok()?.strip_prefix(' ')?;
    let (lines, checksum) = rest.split_once(' ')?;
    // Exactly the rendered digits: a `+` sign or an upper-case hex digit
    // would parse to the same number from different bytes.
    let canonical = !lines.is_empty()
        && lines.bytes().all(|b| b.is_ascii_digit())
        && checksum.len() == 16
        && checksum.bytes().all(is_lower_hex);
    if !canonical {
        return None;
    }
    Some((lines.parse().ok()?, u64::from_str_radix(checksum, 16).ok()?))
}

/// Whether `rest` (after `commit`) can be cut from a well-formed commit
/// line: ` <digits> <up to 16 hex digits>`, truncated anywhere.
fn is_commit_prefix(rest: &[u8]) -> bool {
    let Some(rest) = rest.strip_prefix(b" ") else {
        return rest.is_empty();
    };
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    match &rest[digits..] {
        [] => true,
        [b' ', hex @ ..] => hex.len() <= 16 && hex.iter().copied().all(is_lower_hex),
        _ => false,
    }
}

fn is_lower_hex(b: u8) -> bool {
    matches!(b, b'0'..=b'9' | b'a'..=b'f')
}

/// `<ns hex> <universe> <outcome> <size> <idx,idx,…|->`
fn render_line(ns: u64, key: &VarSet, probe: Probe, out: &mut String) {
    use std::fmt::Write;
    write!(
        out,
        "{ns:016x} {} {} {} ",
        key.universe(),
        probe.outcome as u8,
        probe.size
    )
    .expect("write to string");
    if key.is_empty() {
        out.push('-');
    } else {
        for (i, v) in key.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{}", v.index()).expect("write to string");
        }
    }
    out.push('\n');
}

fn parse_line(line: &[u8]) -> Option<LogEntry> {
    let mut fields = std::str::from_utf8(line).ok()?.split(' ');
    let ns = u64::from_str_radix(fields.next()?, 16).ok()?;
    let universe: u64 = fields.next()?.parse().ok()?;
    let outcome = match fields.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let size: u64 = fields.next()?.parse().ok()?;
    let members = fields.next()?;
    if fields.next().is_some() {
        return None;
    }
    let indices = if members == "-" {
        Vec::new()
    } else {
        members
            .split(',')
            .map(|part| part.parse().ok())
            .collect::<Option<Vec<u64>>>()?
    };
    let key = persisted_varset(universe, indices).ok()?;
    Some((ns, key, Probe { outcome, size }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr_logic::Var;

    fn set(universe: usize, members: &[u32]) -> VarSet {
        VarSet::from_iter_with_universe(universe, members.iter().copied().map(Var::new))
    }

    #[test]
    fn store_lookup_and_counters() {
        let dir = std::env::temp_dir().join(format!("lbr-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = PersistentOracleCache::open(dir.join("c1")).unwrap();
        let key = set(8, &[1, 3, 5]);
        assert_eq!(cache.lookup(7, &key), None);
        cache.store(
            7,
            &key,
            Probe {
                outcome: true,
                size: 42,
            },
        );
        assert_eq!(
            cache.lookup(7, &key),
            Some(Probe {
                outcome: true,
                size: 42
            })
        );
        // Namespaces are disjoint.
        assert_eq!(cache.lookup(8, &key), None);
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.hits, stats.misses, stats.warm_hits),
            (1, 1, 2, 0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn survives_save_and_reload() {
        let dir = std::env::temp_dir().join(format!("lbr-cache2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache");
        {
            let cache = PersistentOracleCache::open(&path).unwrap();
            cache.store(
                1,
                &set(6, &[0, 2]),
                Probe {
                    outcome: false,
                    size: 9,
                },
            );
            cache.store(
                1,
                &set(6, &[]),
                Probe {
                    outcome: true,
                    size: 0,
                },
            );
            cache.store(
                2,
                &set(6, &[0, 2]),
                Probe {
                    outcome: true,
                    size: 11,
                },
            );
            cache.save().unwrap();
        }
        let cache = PersistentOracleCache::open(&path).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(
            cache.lookup(1, &set(6, &[0, 2])),
            Some(Probe {
                outcome: false,
                size: 9
            })
        );
        assert_eq!(
            cache.lookup(1, &set(6, &[])),
            Some(Probe {
                outcome: true,
                size: 0
            })
        );
        assert_eq!(
            cache.lookup(2, &set(6, &[0, 2])),
            Some(Probe {
                outcome: true,
                size: 11
            })
        );
        assert_eq!(cache.stats().warm_hits, 3, "reloaded entries count as warm");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faults_degrade_to_misses_never_wrong_results() {
        let dir = std::env::temp_dir().join(format!("lbr-cache4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = PersistentOracleCache::open(dir.join("faulty")).unwrap();
        let key = set(8, &[2, 4]);
        let probe = Probe {
            outcome: true,
            size: 17,
        };
        cache.store(3, &key, probe);
        assert_eq!(cache.lookup(3, &key), Some(probe));

        // Every operation faults: lookups miss, stores are dropped.
        cache.inject_faults(FaultPlan {
            rate: 1.0,
            seed: 99,
        });
        assert_eq!(cache.lookup(3, &key), None, "faulted lookup must miss");
        let other = set(8, &[1]);
        cache.store(
            3,
            &other,
            Probe {
                outcome: false,
                size: 5,
            },
        );
        assert_eq!(cache.len(), 1, "faulted store must be dropped");
        assert!(cache.faults_injected() >= 2);

        // Disarmed: the surviving entry is served again, intact. A fault
        // can only cost a re-run — it can never corrupt what is returned.
        cache.inject_faults(FaultPlan { rate: 0.0, seed: 0 });
        assert_eq!(cache.lookup(3, &key), Some(probe));
        assert_eq!(cache.lookup(3, &other), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_stream_is_seed_deterministic() {
        let dir = std::env::temp_dir().join(format!("lbr-cache5-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let draw = |seed: u64| {
            let cache = PersistentOracleCache::open(dir.join(format!("f{seed}"))).unwrap();
            let key = set(4, &[0]);
            cache.store(
                0,
                &key,
                Probe {
                    outcome: true,
                    size: 1,
                },
            );
            cache.inject_faults(FaultPlan { rate: 0.5, seed });
            // A miss on a stored key can only come from an injected fault.
            (0..64)
                .map(|_| cache.lookup(0, &key).is_none())
                .collect::<Vec<bool>>()
        };
        assert_eq!(draw(7), draw(7), "same seed, same fault pattern");
        assert_ne!(draw(7), draw(8), "different seeds should diverge");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_foreign_files() {
        let dir = std::env::temp_dir().join(format!("lbr-cache3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("notacache");
        std::fs::write(&path, "something else\n").unwrap();
        assert!(PersistentOracleCache::open(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn namespace_digest_separates() {
        assert_ne!(namespace_digest("a", b"bc"), namespace_digest("ab", b"c"));
        assert_ne!(namespace_digest("a", b"x"), namespace_digest("b", b"x"));
        assert_eq!(namespace_digest("a", b"x"), namespace_digest("a", b"x"));
    }
}
