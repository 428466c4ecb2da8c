//! Cross-strategy integration: on a small NJR-like suite, every
//! registered strategy is sound, and the paper's ordering holds — the
//! logical reducer produces the smallest outputs, the lossy encodings
//! come close, and J-Reduce (class granularity) trails.

use lbr::jreduce::{check_report, run_reduction, strategy_catalog};
use lbr::workload::{suite, SuiteConfig};

#[test]
fn all_strategies_are_sound_and_ordered() {
    let benchmarks = suite(&SuiteConfig {
        seed: 7,
        programs: 2,
        scale: 1.0,
    });
    assert!(
        benchmarks.len() >= 3,
        "suite too small: {}",
        benchmarks.len()
    );

    // Every registered strategy, so a new registration is soundness-checked
    // here without touching this list. ddmin-items is left to
    // `ddmin_is_sound_but_expensive`: its item-level sweep is the slow one.
    let strategies: Vec<String> = strategy_catalog()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| name != "ddmin-items")
        .collect();

    let mut sum_bytes: Vec<(String, f64)> = Vec::new();
    for b in &benchmarks {
        let oracle = b.oracle();
        let mut per_benchmark = Vec::new();
        for s in &strategies {
            let report = run_reduction(&b.program, &oracle, s, 0.0)
                .unwrap_or_else(|e| panic!("{}/{s}: {e}", b.name));
            check_report(&report).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            per_benchmark.push((report.strategy.clone(), report.relative_bytes()));
        }
        // Logical ≤ both lossy variants ≤ … on this benchmark? The paper
        // only claims this in aggregate; record for the aggregate check.
        sum_bytes.extend(per_benchmark);
    }

    let mean = |name: &str| {
        let xs: Vec<f64> = sum_bytes
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    let logical = mean("logical/greedy");
    let lossy1 = mean("lossy-1");
    let lossy2 = mean("lossy-2");
    let jreduce = mean("jreduce");
    assert!(
        logical <= lossy1 + 1e-9 && logical <= lossy2 + 1e-9,
        "logical ({logical:.3}) must not lose to lossy ({lossy1:.3}, {lossy2:.3})"
    );
    assert!(
        logical < jreduce,
        "logical ({logical:.3}) must beat class-granularity jreduce ({jreduce:.3})"
    );
    assert!(
        lossy1 < jreduce && lossy2 < jreduce,
        "lossy encodings ({lossy1:.3}, {lossy2:.3}) must beat jreduce ({jreduce:.3})"
    );
}

#[test]
fn ddmin_is_sound_but_expensive() {
    // The paper: "ddmin tends to produce disappointing results" — at item
    // granularity with a validity filter it is sound but uses far more
    // predicate calls than GBR.
    let benchmarks = suite(&SuiteConfig {
        seed: 3,
        programs: 1,
        scale: 0.5,
    });
    let b = &benchmarks[0];
    let oracle = b.oracle();
    let gbr = run_reduction(&b.program, &oracle, "logical/greedy", 0.0).expect("gbr runs");
    let ddmin = run_reduction(&b.program, &oracle, "ddmin-items", 0.0).expect("ddmin runs");
    check_report(&gbr).expect("gbr sound");
    check_report(&ddmin).expect("ddmin sound");
    assert!(
        ddmin.predicate_calls > gbr.predicate_calls,
        "ddmin ({}) should need more predicate calls than GBR ({})",
        ddmin.predicate_calls,
        gbr.predicate_calls
    );
}

#[test]
fn reduction_is_idempotent_in_size() {
    // Reducing an already-reduced program must change nothing of
    // substance: the result stays sound and cannot shrink much further
    // (GBR already landed on a locally small input).
    let benchmarks = suite(&SuiteConfig {
        seed: 5,
        programs: 1,
        scale: 0.6,
    });
    let b = &benchmarks[0];
    let oracle = b.oracle();
    let first = run_reduction(&b.program, &oracle, "logical/greedy", 0.0).expect("first reduction");
    check_report(&first).expect("first sound");
    // The oracle's baseline is defined against the original; rebuilding it
    // against the reduced program gives the same error set.
    let oracle2 = lbr::decompiler::DecompilerOracle::new(&first.reduced, b.bugs.clone());
    assert_eq!(oracle2.baseline(), oracle.baseline());
    let second =
        run_reduction(&first.reduced, &oracle2, "logical/greedy", 0.0).expect("second reduction");
    check_report(&second).expect("second sound");
    assert!(second.final_metrics.bytes <= first.final_metrics.bytes);
    let shrink = first.final_metrics.bytes - second.final_metrics.bytes;
    assert!(
        (shrink as f64) < 0.2 * first.final_metrics.bytes as f64,
        "re-reducing shrank by {shrink} of {} bytes — first pass missed too much",
        first.final_metrics.bytes
    );
}

#[test]
fn order_ablation_natural_is_never_better() {
    let benchmarks = suite(&SuiteConfig {
        seed: 11,
        programs: 1,
        scale: 0.7,
    });
    let b = &benchmarks[0];
    let oracle = b.oracle();
    let good =
        run_reduction(&b.program, &oracle, "logical/greedy", 0.0).expect("closure order runs");
    let natural = run_reduction(&b.program, &oracle, "logical/natural-order", 0.0)
        .expect("natural order runs");
    check_report(&good).expect("sound");
    check_report(&natural).expect("sound");
    assert!(
        good.final_metrics.bytes <= natural.final_metrics.bytes,
        "closure-size order ({}) must not lose to natural order ({})",
        good.final_metrics.bytes,
        natural.final_metrics.bytes
    );
}
