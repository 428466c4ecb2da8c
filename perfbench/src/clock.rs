//! Clocks for the end-to-end times.
//!
//! The benchmark runs on a few cores of a shared host whose other tenants
//! come and go, so the same work can take half as long again from one
//! minute to the next, in CPU time as much as in wall time. Two readings
//! keep that out of the reported times:
//!
//! - [`thread_cpu_secs`]: how long the calling thread has run, so time
//!   the scheduler gives to other processes does not count;
//! - [`yardstick_secs`]: the CPU time of a fixed piece of this package's own
//!   work, run between reductions, which tells how fast the machine runs
//!   code at that moment. [`slowdown`] turns a few such samples into a
//!   factor, and times divided by it are in reference-machine seconds.

use crate::stats::median;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::OnceLock;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Seconds of CPU time the calling thread has used.
pub fn thread_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec`, whose layout
    // `Timespec` matches on 64-bit Linux, through a pointer to a live,
    // exclusively borrowed local; it keeps no pointer after returning.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is unavailable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Seconds of CPU time process `pid` has used in all its threads, from
/// `/proc/<pid>/stat` (in clock ticks of 10 ms).
pub fn process_cpu_secs(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // utime and stime are the 12th and 13th fields after the command
    // name, which is in parentheses and may hold spaces.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) / 100.0),
        _ => Err(format!("malformed /proc/{pid}/stat")),
    }
}

/// Elements the yardstick touches.
const YARDSTICK_ITEMS: u64 = 24_000;

/// Entries of the yardstick's lookup table (4 MiB).
const YARDSTICK_TABLE: usize = 1 << 20;

/// CPU seconds the yardstick takes on the reference machine (a 2-vCPU VM at
/// 2.0 GHz with quiet neighbours).
const YARDSTICK_REFERENCE_SECS: f64 = 2.0e-3;

/// Runs the yardstick once; returns its CPU seconds.
pub fn yardstick_secs() -> f64 {
    let start = thread_cpu_secs();
    black_box(yardstick_work(black_box(YARDSTICK_ITEMS)));
    thread_cpu_secs() - start
}

/// How many times slower than on the reference machine the yardstick ran, from
/// their median; 1 without samples.
pub fn slowdown(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        1.0
    } else {
        median(samples) / YARDSTICK_REFERENCE_SECS
    }
}

/// Allocation, ordered-set inserts, sorting and string building: the kinds
/// of work a reduction spends its time on, but none of its code.
fn yardstick_work(items: u64) -> usize {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut set = BTreeSet::new();
    let mut values = Vec::with_capacity(items as usize);
    let mut text = String::new();
    for _ in 0..items {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        values.push(x % 1_000_003);
        if x.is_multiple_of(4) {
            set.insert(format!("m{}", x % 997));
        }
        if x.is_multiple_of(16) {
            text.push_str(&(x % 10_007).to_string());
        }
    }
    values.sort_unstable();
    values.dedup();
    // Dependent loads scattered over a table larger than a core's own
    // caches, like a solver walking its clause and watch lists.
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..YARDSTICK_TABLE)
            .map(|i| ((i as u64 * 2_654_435_761) % YARDSTICK_TABLE as u64) as u32)
            .collect()
    });
    let mut at = 0usize;
    for _ in 0..items {
        at = (table[at] as usize + at) % YARDSTICK_TABLE;
    }
    values.len() + set.len() + text.len() + at
}
