//! The persistent oracle cache is an append-only log of committed batches.
//! These tests pin down what a reopened cache may contain: exactly the
//! entries of committed batches, whatever a crash cut off the end of the
//! file; a typed error for damage inside a committed batch; the same
//! entries from a `v1` file; and every entry from concurrent savers.

use lbr_core::Probe;
use lbr_logic::{Var, VarSet};
use lbr_service::PersistentOracleCache;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Barrier;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lbr-cache-log-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn set(universe: usize, members: &[u32]) -> VarSet {
    VarSet::from_iter_with_universe(universe, members.iter().copied().map(Var::new))
}

fn probe(outcome: bool, size: u64) -> Probe {
    Probe { outcome, size }
}

type Entry = (u64, VarSet, Probe);

/// The first batch's entries: the ones every truncation must keep.
fn first_batch() -> Vec<Entry> {
    vec![
        (1, set(20, &[3, 4, 1]), probe(true, 30)),
        (1, set(20, &[]), probe(false, 0)),
        (2, set(20, &[0, 19]), probe(true, 12)),
    ]
}

/// The second batch's entries. `{3,4,15}` torn after `3,4,1` would read
/// as the first batch's `{3,4,1}` — but with a different probe — and
/// `{3,4,10}` torn after `3,4,1` as a key stored nowhere.
fn second_batch() -> Vec<Entry> {
    vec![
        (1, set(20, &[3, 4, 15]), probe(false, 31)),
        (1, set(20, &[3, 4, 10]), probe(true, 29)),
        (2, set(20, &[7]), probe(false, 5)),
    ]
}

fn store_all(cache: &PersistentOracleCache, entries: &[Entry]) {
    for (ns, key, p) in entries {
        cache.store(*ns, key, *p);
    }
}

/// The cache holds exactly `entries`: each answers with its probe and
/// nothing else is held.
fn assert_holds_exactly(cache: &PersistentOracleCache, entries: &[Entry], context: &str) {
    assert_eq!(cache.len(), entries.len(), "{context}: entry count");
    for (ns, key, p) in entries {
        assert_eq!(cache.lookup(*ns, key), Some(*p), "{context}: {key:?}");
    }
}

/// Writes a cache holding `first_batch` and `second_batch`, one save
/// each; returns the file's bytes and where the second batch starts.
fn two_batch_log(path: &Path) -> (Vec<u8>, usize) {
    let cache = PersistentOracleCache::open(path).unwrap();
    store_all(&cache, &first_batch());
    cache.save().unwrap();
    let second_start = std::fs::metadata(path).unwrap().len() as usize;
    store_all(&cache, &second_batch());
    cache.save().unwrap();
    assert_eq!(cache.saves(), 2);
    let bytes = std::fs::read(path).unwrap();
    assert_eq!(cache.appended_bytes(), bytes.len() as u64);
    (bytes, second_start)
}

#[test]
fn truncating_the_last_batch_anywhere_keeps_exactly_the_committed_entries() {
    let dir = scratch("truncate");
    let (bytes, second_start) = two_batch_log(&dir.join("full"));
    let full = PersistentOracleCache::open(dir.join("full")).unwrap();
    let all: Vec<Entry> = first_batch().into_iter().chain(second_batch()).collect();
    assert_holds_exactly(&full, &all, "untruncated");

    let path = dir.join("torn");
    let extra = (3, set(20, &[2, 9]), probe(true, 8));
    for cut in second_start..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let cache = PersistentOracleCache::open(&path)
            .unwrap_or_else(|e| panic!("cut at {cut}: torn tail must open, got {e}"));
        assert_holds_exactly(&cache, &first_batch(), &format!("cut at {cut}"));
        // The torn tail is gone from the file, so the next batch commits
        // cleanly after the surviving ones.
        store_all(&cache, std::slice::from_ref(&extra));
        cache.save().unwrap();
        drop(cache);
        let reopened = PersistentOracleCache::open(&path).unwrap();
        let mut expected = first_batch();
        expected.push(extra.clone());
        assert_holds_exactly(&reopened, &expected, &format!("cut at {cut}, reopened"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_byte_inside_a_committed_batch_is_invalid_data() {
    let dir = scratch("flip");
    let (bytes, _) = two_batch_log(&dir.join("log"));
    let path = dir.join("flipped");
    for at in 0..bytes.len() {
        for mask in [0x01u8, 0x20, 0x80] {
            let mut damaged = bytes.clone();
            damaged[at] ^= mask;
            std::fs::write(&path, &damaged).unwrap();
            match PersistentOracleCache::open(&path) {
                Err(e) => assert_eq!(
                    e.kind(),
                    io::ErrorKind::InvalidData,
                    "byte {at} ^ {mask:#04x}: {e}"
                ),
                Ok(cache) => panic!(
                    "byte {at} ^ {mask:#04x} went unnoticed: {} entries loaded",
                    cache.len()
                ),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_v1_file_loads_the_same_entries_and_is_rewritten_as_v2() {
    let dir = scratch("v1");
    let path = dir.join("cache");
    // A file as the whole-file rewriting format saved it.
    std::fs::write(
        &path,
        "lbr-oracle-cache v1\n\
         0000000000000001 20 1 30 1,3,4\n\
         0000000000000001 20 0 0 -\n\
         0000000000000002 20 1 12 0,19\n",
    )
    .unwrap();
    let cache = PersistentOracleCache::open(&path).unwrap();
    assert_holds_exactly(&cache, &first_batch(), "v1");
    assert_eq!(cache.stats().warm_hits, 3, "v1 entries load warm");
    assert_eq!(cache.saves(), 0, "the rewrite is not a save");
    drop(cache);

    let rewritten = std::fs::read_to_string(&path).unwrap();
    assert!(
        rewritten.starts_with("lbr-oracle-cache v2\n"),
        "v1 must be rewritten as v2: {rewritten}"
    );
    let cache = PersistentOracleCache::open(&path).unwrap();
    assert_holds_exactly(&cache, &first_batch(), "v2 rewrite");
    drop(cache);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        rewritten,
        "a v2 file with no torn tail is not rewritten again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_stores_and_saves_reopen_to_the_union() {
    let dir = scratch("concurrent");
    let path = dir.join("cache");
    let cache = PersistentOracleCache::open(&path).unwrap();
    let (rounds, per_round) = (30u32, 7u32);
    let per_thread = rounds * per_round;
    let entry = |thread: u64, i: u32| {
        let key = set(per_thread as usize, &[i]);
        (thread, key, probe(i.is_multiple_of(2), i as u64))
    };
    // Each round both threads store, then save at the same moment, so
    // their saves race for the pending list and the file.
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for thread in 0..2u64 {
            let (cache, barrier) = (&cache, &barrier);
            s.spawn(move || {
                for round in 0..rounds {
                    for i in round * per_round..(round + 1) * per_round {
                        let (ns, key, p) = entry(thread, i);
                        cache.store(ns, &key, p);
                    }
                    barrier.wait();
                    cache.save().unwrap();
                }
            });
        }
    });
    let len = std::fs::metadata(&path).unwrap().len();
    cache.save().unwrap();
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        len,
        "a save with nothing pending writes nothing"
    );
    assert_eq!(cache.appended_bytes(), len);
    drop(cache);

    let reopened = PersistentOracleCache::open(&path).unwrap();
    let union: Vec<Entry> = (0..2u64)
        .flat_map(|thread| (0..per_thread).map(move |i| entry(thread, i)))
        .collect();
    assert_holds_exactly(&reopened, &union, "reopened union");
    let _ = std::fs::remove_dir_all(&dir);
}
