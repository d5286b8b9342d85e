//! Smoke tests for the figure-regeneration harness: each figure's data is
//! produced at a tiny scale and has the right *shape* (rows present,
//! ratios finite, qualitative direction sensible). Numeric closeness to
//! the paper is recorded in EXPERIMENTS.md from full-scale release runs,
//! not asserted here (debug-build timing is too noisy).

use gca_bench::{
    ablation_path_tracking, baseline_detectors, figure1, figures_2_3, figures_4_5, summarize_infra,
};

#[test]
fn figure1_is_a_figure_one_report() {
    let text = figure1();
    assert!(text.contains("asserted dead is reachable"), "{text}");
    assert!(text.contains("Order"), "{text}");
    assert!(text.contains("Path to object"), "{text}");
    // The path format matches Figure 1's arrow chain.
    assert!(text.contains("->"), "{text}");
}

#[test]
fn figures_2_3_cover_the_whole_suite() {
    let rows = figures_2_3(1, 0.08);
    assert_eq!(rows.len(), 19, "18 suite benchmarks + pseudojbb");
    for r in &rows {
        assert!(r.base.total.as_nanos() > 0, "{}", r.name);
        assert!(r.infra.total.as_nanos() > 0, "{}", r.name);
        assert!(r.total_overhead().is_finite());
        assert!(r.gc_overhead().is_finite());
        // Same program, both configs.
        assert_eq!(r.base.allocations, r.infra.allocations, "{}", r.name);
    }
    let (total, mutator, gc) = summarize_infra(&rows);
    assert!(total.is_finite() && mutator.is_finite() && gc.is_finite());

    let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
    assert!(names.contains(&"bloat"));
    assert!(names.contains(&"pseudojbb"));
}

#[test]
fn figures_4_5_have_db_and_pseudojbb() {
    let rows = figures_4_5(1, 0.15);
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].name, "209_db");
    assert_eq!(rows[1].name, "pseudojbb");
    for r in &rows {
        // Real assertion work happened in the WithAssertions runs.
        assert!(
            r.with.ownees_checked_per_gc > 0.0,
            "{} checked no ownees",
            r.name
        );
        // And produced no violations (the figure workloads are clean).
        assert_eq!(r.with.violations, 0, "{}", r.name);
        assert!(r.total_overhead().is_finite());
        assert!(r.gc_overhead().is_finite());
    }
}

#[test]
fn ablation_rows_have_both_modes() {
    let rows = ablation_path_tracking(1, 0.08, 2);
    assert_eq!(rows.len(), 2);
    for r in &rows {
        assert!(r.gc_plain.as_nanos() > 0);
        assert!(r.gc_paths.as_nanos() > 0);
    }
}

#[test]
fn baseline_detector_comparison_shape() {
    let c = baseline_detectors();
    assert!(c.leaked > 0);
    assert_eq!(c.gca_false_positives, 0);
    assert!(c.gca_true_positives > 0);
}
