//! Compares two `BENCH_results.json` files (as written by `eval --json`).
//!
//! ```text
//! bench_compare BASELINE.json CURRENT.json [--threshold PCT] [--identical]
//! ```
//!
//! Default mode: per-strategy wall-time and predicate-call gate. For
//! every strategy present in both files the current total `wall_secs`
//! may exceed the baseline by at most `--threshold` percent (default
//! 10), and the current total `predicate_calls` by at most
//! `--calls-threshold` percent (default 0 — calls are deterministic, so
//! any increase is a real regression: an engine change must not buy wall
//! time with extra tool runs). Any worse regression makes the process
//! exit non-zero, so the comparison can gate CI.
//!
//! `--identical` mode: ignores wall times entirely and instead asserts
//! that the two files describe *the same computation* — identical
//! per-run `predicate_calls`, `initial_bytes`, `final_bytes`,
//! `final_classes`, `cache_hits` and `cache_misses` for every
//! (format, benchmark, strategy) triple. `ci.sh` uses it to pin
//! `--probe-threads N` runs to the sequential results, and every run of
//! the compare suite to the committed `BENCH_baseline.json`.
//!
//! The parser below is a minimal recursive-descent JSON reader for the
//! subset our own renderer emits (objects, arrays, strings, numbers,
//! booleans); the harness stays dependency-free.

use std::collections::BTreeMap;
use std::process::ExitCode;

// ----------------------------------------------------------------------
// Minimal JSON value + parser.
// ----------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    fn str_field(&self, key: &str) -> String {
        match self.get(key) {
            Some(Json::Str(s)) => s.clone(),
            _ => String::new(),
        }
    }

    fn num_field(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(Json::Num(n)) => *n,
            _ => f64::NAN,
        }
    }

    /// The record's input format. Results files written before the
    /// stackvm frontend existed carry no `format` key; they are all
    /// classfile records.
    fn format_field(&self) -> String {
        match self.get("format") {
            Some(Json::Str(s)) => s.clone(),
            _ => "classfile".to_owned(),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn fail(&self, what: &str) -> ! {
        eprintln!(
            "bench_compare: JSON parse error at byte {}: {what}",
            self.pos
        );
        std::process::exit(2);
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        *self
            .bytes
            .get(self.pos)
            .unwrap_or_else(|| self.fail("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) {
        if self.peek() != b {
            self.fail(&format!("expected '{}'", b as char));
        }
        self.pos += 1;
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Json {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            value
        } else {
            self.fail(&format!("expected '{text}'"))
        }
    }

    fn object(&mut self) -> Json {
        self.expect(b'{');
        let mut map = BTreeMap::new();
        if self.peek() == b'}' {
            self.pos += 1;
            return Json::Obj(map);
        }
        loop {
            let key = self.string();
            self.expect(b':');
            map.insert(key, self.value());
            match self.peek() {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Json::Obj(map);
                }
                _ => self.fail("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.expect(b'[');
        let mut out = Vec::new();
        if self.peek() == b']' {
            self.pos += 1;
            return Json::Arr(out);
        }
        loop {
            out.push(self.value());
            match self.peek() {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Json::Arr(out);
                }
                _ => self.fail("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return out;
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        _ => self.fail("unsupported escape"),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Our renderer only escapes quotes and backslashes, so
                    // any other byte is literal UTF-8 content.
                    let start = self.pos;
                    let len = utf8_len(b);
                    self.pos += len;
                    match std::str::from_utf8(&self.bytes[start..self.pos]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => self.fail("invalid UTF-8 in string"),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Json {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        match text.parse::<f64>() {
            Ok(n) => Json::Num(n),
            Err(_) => self.fail("expected a number"),
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

fn parse_file(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_compare: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let mut p = Parser::new(&text);
    let v = p.value();
    p.skip_ws();
    v
}

// ----------------------------------------------------------------------
// Comparison modes.
// ----------------------------------------------------------------------

/// Per-strategy gate: fail on wall-time regressions > `threshold_pct` or
/// predicate-call regressions > `calls_threshold_pct` (calls are
/// deterministic, so the default call threshold is zero).
fn compare_wall(
    baseline: &Json,
    current: &Json,
    threshold_pct: f64,
    calls_threshold_pct: f64,
) -> ExitCode {
    // Strategy aggregates are keyed per format: the same strategy name
    // appears once per frontend in a `--format both` results file.
    let key_of = |s: &Json| format!("{}/{}", s.format_field(), s.str_field("strategy"));
    let base: BTreeMap<String, (f64, f64)> = baseline
        .get("strategies")
        .map(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|s| {
            (
                key_of(s),
                (s.num_field("wall_secs"), s.num_field("predicate_calls")),
            )
        })
        .collect();
    let mut compared = 0usize;
    let mut failed = false;
    for s in current.get("strategies").map(Json::as_arr).unwrap_or(&[]) {
        let name = key_of(s);
        let Some(&(base_wall, base_calls)) = base.get(&name) else {
            println!("{name:<36} (not in baseline, skipped)");
            continue;
        };
        compared += 1;
        let cur_wall = s.num_field("wall_secs");
        let delta_pct = if base_wall > 0.0 {
            100.0 * (cur_wall - base_wall) / base_wall
        } else {
            0.0
        };
        let cur_calls = s.num_field("predicate_calls");
        let calls_ceiling = base_calls * (1.0 + calls_threshold_pct / 100.0);
        let wall_bad = delta_pct > threshold_pct;
        let calls_bad = base_calls.is_finite() && cur_calls > calls_ceiling;
        failed |= wall_bad || calls_bad;
        println!(
            "{name:<36} wall {base_wall:>9.3}s → {cur_wall:>9.3}s ({delta_pct:>+7.1}%)  calls {base_calls:>7.0} → {cur_calls:>7.0}  {}",
            if wall_bad {
                "WALL REGRESSION"
            } else if calls_bad {
                "CALLS REGRESSION"
            } else {
                "ok"
            }
        );
    }
    if compared == 0 {
        eprintln!("bench_compare: no common strategies to compare");
        return ExitCode::from(2);
    }
    if failed {
        eprintln!(
            "bench_compare: regression beyond thresholds (wall {threshold_pct:.0}%, calls {calls_threshold_pct:.0}%)"
        );
        ExitCode::FAILURE
    } else {
        println!(
            "bench_compare: within thresholds (wall {threshold_pct:.0}%, calls {calls_threshold_pct:.0}%)"
        );
        ExitCode::SUCCESS
    }
}

/// Determinism smoke: the two files must describe the same computation
/// (per-run calls, sizes, classes and cache totals), wall times excepted.
fn compare_identical(baseline: &Json, current: &Json) -> ExitCode {
    const FIELDS: [&str; 6] = [
        "predicate_calls",
        "initial_bytes",
        "final_bytes",
        "final_classes",
        "cache_hits",
        "cache_misses",
    ];
    let key = |r: &Json| {
        (
            r.format_field(),
            r.str_field("benchmark"),
            r.str_field("strategy"),
        )
    };
    let base: BTreeMap<_, Json> = baseline
        .get("runs")
        .map(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|r| (key(r), r.clone()))
        .collect();
    let runs = current.get("runs").map(Json::as_arr).unwrap_or(&[]);
    let mut mismatches = 0usize;
    let mut compared = 0usize;
    for r in runs {
        let k = key(r);
        let Some(b) = base.get(&k) else {
            eprintln!("{}/{}/{}: missing from baseline", k.0, k.1, k.2);
            mismatches += 1;
            continue;
        };
        compared += 1;
        for field in FIELDS {
            let (bv, cv) = (b.num_field(field), r.num_field(field));
            if bv != cv {
                eprintln!("{}/{}/{}: {field} differs: {bv} vs {cv}", k.0, k.1, k.2);
                mismatches += 1;
            }
        }
    }
    if base.len() != runs.len() {
        eprintln!(
            "run counts differ: {} baseline vs {} current",
            base.len(),
            runs.len()
        );
        mismatches += 1;
    }
    if mismatches > 0 {
        eprintln!("bench_compare: {mismatches} mismatches — runs are NOT identical");
        ExitCode::FAILURE
    } else {
        println!("bench_compare: {compared} runs identical (calls, sizes, classes, cache totals)");
        ExitCode::SUCCESS
    }
}

/// Service gate over two `BENCH_service.json` files (loadgen output):
/// per worker count, warm throughput may not drop more than
/// `threshold_pct` below baseline and warm p95 may not rise more than
/// `threshold_pct` above it; additionally the highest-worker run must
/// sustain at least `min_warm_jps` warm jobs/sec absolute.
fn compare_service(
    baseline: &Json,
    current: &Json,
    threshold_pct: f64,
    min_warm_jps: f64,
) -> ExitCode {
    match service_gate(baseline, current, threshold_pct, min_warm_jps) {
        None => ExitCode::from(2),
        Some(true) => {
            eprintln!(
                "bench_compare: service gate failed (threshold {threshold_pct:.0}%, floor {min_warm_jps:.0} jobs/s)"
            );
            ExitCode::FAILURE
        }
        Some(false) => {
            println!("bench_compare: service throughput and p95 within gates");
            ExitCode::SUCCESS
        }
    }
}

/// The shared per-worker-count gate body for `--service` and
/// `--cluster`. Returns `None` when nothing was comparable, otherwise
/// whether any gate failed.
fn service_gate(
    baseline: &Json,
    current: &Json,
    threshold_pct: f64,
    min_warm_jps: f64,
) -> Option<bool> {
    let runs_of = |doc: &Json| -> BTreeMap<u64, Json> {
        doc.get("runs")
            .map(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|r| (r.num_field("workers") as u64, r.clone()))
            .collect()
    };
    let base = runs_of(baseline);
    let runs = runs_of(current);
    let mut compared = 0usize;
    let mut failed = false;
    for (workers, run) in &runs {
        let warm = |r: &Json, f: &str| r.get("warm").map(|w| w.num_field(f)).unwrap_or(f64::NAN);
        let cur_jps = warm(run, "jobs_per_sec");
        let cur_p95 = warm(run, "p95_ms");
        match base.get(workers) {
            Some(b) => {
                compared += 1;
                let base_jps = warm(b, "jobs_per_sec");
                let base_p95 = warm(b, "p95_ms");
                let jps_floor = base_jps * (1.0 - threshold_pct / 100.0);
                let p95_ceil = base_p95 * (1.0 + threshold_pct / 100.0);
                let jps_bad = cur_jps < jps_floor;
                // A p95 gate only makes sense against a sane baseline.
                let p95_bad = base_p95.is_finite() && base_p95 > 0.0 && cur_p95 > p95_ceil;
                failed |= jps_bad || p95_bad;
                println!(
                    "{workers:>2} workers  warm {base_jps:>8.2} → {cur_jps:>8.2} jobs/s  p95 {base_p95:>7.1} → {cur_p95:>7.1} ms  {}",
                    if jps_bad || p95_bad { "REGRESSION" } else { "ok" }
                );
            }
            None => println!("{workers:>2} workers  (not in baseline, skipped)"),
        }
    }
    if compared == 0 {
        eprintln!("bench_compare: no common worker counts to compare");
        return None;
    }
    if min_warm_jps > 0.0 {
        match runs.iter().next_back() {
            Some((workers, run)) => {
                let jps = run
                    .get("warm")
                    .map(|w| w.num_field("jobs_per_sec"))
                    .unwrap_or(f64::NAN);
                let ok = jps >= min_warm_jps;
                failed |= !ok;
                println!(
                    "{workers:>2} workers  warm floor {min_warm_jps:>8.2} jobs/s, measured {jps:>8.2}  {}",
                    if ok { "ok" } else { "BELOW FLOOR" }
                );
            }
            None => unreachable!("compared > 0"),
        }
    }
    Some(failed)
}

/// Cluster gate over two `BENCH_service.json` files written by
/// `loadgen --cluster`: the per-worker-node-count throughput/p95/floor
/// gates of `--service`, plus a participation check — every current run's
/// coordinator must have accepted worker verdicts, otherwise the cluster
/// measured nothing but the coordinator's own inline path.
fn compare_cluster(
    baseline: &Json,
    current: &Json,
    threshold_pct: f64,
    min_warm_jps: f64,
) -> ExitCode {
    let Some(mut failed) = service_gate(baseline, current, threshold_pct, min_warm_jps) else {
        return ExitCode::from(2);
    };
    for run in current.get("runs").map(Json::as_arr).unwrap_or(&[]) {
        let workers = run.num_field("workers");
        let verdicts = run
            .get("cluster")
            .map(|c| c.num_field("verdicts"))
            .unwrap_or(f64::NAN);
        if verdicts.is_nan() || verdicts <= 0.0 {
            eprintln!(
                "{workers:>2} workers  coordinator accepted no worker verdicts — cluster inert"
            );
            failed = true;
        }
    }
    if failed {
        eprintln!(
            "bench_compare: cluster gate failed (threshold {threshold_pct:.0}%, floor {min_warm_jps:.0} jobs/s)"
        );
        ExitCode::FAILURE
    } else {
        println!("bench_compare: cluster throughput, p95 and participation within gates");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<String> = Vec::new();
    let mut threshold_pct = 10.0f64;
    let mut calls_threshold_pct = 0.0f64;
    let mut min_warm_jps = 0.0f64;
    let mut identical = false;
    let mut service = false;
    let mut cluster = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                threshold_pct = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--threshold takes a percentage");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--calls-threshold" => {
                calls_threshold_pct =
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| {
                            eprintln!("--calls-threshold takes a percentage");
                            std::process::exit(2);
                        });
                i += 2;
            }
            "--min-warm-jps" => {
                min_warm_jps = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--min-warm-jps takes a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--identical" => {
                identical = true;
                i += 1;
            }
            "--service" => {
                service = true;
                i += 1;
            }
            "--cluster" => {
                cluster = true;
                i += 1;
            }
            "--help" | "-h" => {
                println!("usage: bench_compare BASELINE.json CURRENT.json [--threshold PCT]");
                println!("                     [--calls-threshold PCT]");
                println!(
                    "                     [--identical | --service | --cluster [--min-warm-jps N]]"
                );
                println!();
                println!(
                    "  default      fail on per-strategy wall-time regression > PCT% (default 10)"
                );
                println!(
                    "               or predicate-call regression > --calls-threshold% (default 0)"
                );
                println!("  --identical  fail unless per-run calls, sizes, classes and cache totals match");
                println!(
                    "  --service    gate BENCH_service.json: warm jobs/sec and p95 within PCT%"
                );
                println!("               of baseline per worker count; with --min-warm-jps, the");
                println!("               highest-worker run must also sustain that absolute floor");
                println!(
                    "  --cluster    the --service gates over loadgen --cluster output, plus a"
                );
                println!("               check that worker nodes actually answered probes");
                return ExitCode::SUCCESS;
            }
            other => {
                files.push(other.to_owned());
                i += 1;
            }
        }
    }
    let [baseline, current] = files.as_slice() else {
        eprintln!(
            "usage: bench_compare BASELINE.json CURRENT.json [--threshold PCT] [--identical | --service]"
        );
        return ExitCode::from(2);
    };
    let baseline = parse_file(baseline);
    let current = parse_file(current);
    if identical {
        compare_identical(&baseline, &current)
    } else if cluster {
        compare_cluster(&baseline, &current, threshold_pct, min_warm_jps)
    } else if service {
        compare_service(&baseline, &current, threshold_pct, min_warm_jps)
    } else {
        compare_wall(&baseline, &current, threshold_pct, calls_threshold_pct)
    }
}
