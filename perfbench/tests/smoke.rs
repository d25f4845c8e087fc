//! Smoke test of the benchmark itself: every metric `BENCHMARK.json` names
//! is emitted, counts repeat across traced runs, and a wrong oracle image
//! is counted as a failure. Run with `--release`; the simulator passes are
//! slow unoptimized.

use std::collections::BTreeSet;

use dswp_perfbench::pass::Kind;
use dswp_perfbench::{measure, measure_traced, setup, Args};

/// Metric names of one `BENCHMARK.json` section (`end_to_end` or
/// `per_layer`), which must come after `workloads` and in that order.
fn names(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = ["\"end_to_end\"", "\"per_layer\""]
        .iter()
        .filter_map(|k| text[start + 1..].find(k).map(|i| i + start + 1))
        .min()
        .unwrap_or(text.len());
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn args(workload: Kind, seed: u64, trace: bool) -> Args {
    Args {
        workload,
        seed,
        seconds: 1,
        trace,
    }
}

#[test]
fn every_named_metric_is_emitted_and_counts_repeat() {
    let end_to_end = names("end_to_end");
    let per_layer = names("per_layer");
    assert!(end_to_end.contains("setup_s"));

    for kind in Kind::ALL {
        let s = setup(kind, 1, 1);
        let r = measure(&args(kind, 1, false), &s);
        let emitted: BTreeSet<String> = r.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(emitted, end_to_end, "{}: untraced metrics", kind.name());
        assert!(r.correct(), "{}: {:?}", kind.name(), r.errors);
    }

    let s = setup(Kind::NativeSingle, 1, 1);
    let first = measure_traced(&args(Kind::NativeSingle, 1, true), &s.suite);
    let second = measure_traced(&args(Kind::CompileSimulate, 2, true), &s.suite);
    for r in [&first, &second] {
        let emitted: BTreeSet<String> = r.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(emitted, per_layer, "traced metrics");
        assert!(r.correct(), "{:?}", r.errors);
    }
    assert!(!first.counts.is_empty());
    assert_eq!(
        first.counts, second.counts,
        "counts differ between traced runs"
    );
}

#[test]
fn wrong_expected_image_shows_in_error_rate() {
    let mut s = setup(Kind::NativeSingle, 3, 1);
    let oracle = &mut s.suite.kernels[0].expected;
    oracle[0] = oracle[0].wrapping_add(1);

    let untraced = measure(&args(Kind::NativeSingle, 3, false), &s);
    assert!(untraced.failed > 0 && !untraced.correct());

    let traced = measure_traced(&args(Kind::NativeSingle, 3, true), &s.suite);
    let error_rate = traced
        .metrics
        .iter()
        .find(|m| m.name == "error_rate")
        .expect("error_rate emitted")
        .value;
    assert!(error_rate > 0.0, "error_rate {error_rate}");
    assert!(!traced.correct());
    assert!(
        traced.result_line().starts_with("{\"correct\": false"),
        "{}",
        traced.result_line()
    );
}
