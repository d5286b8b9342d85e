//! Smoke tests for what `figures` prints: each producer runs at a tiny
//! scale and its data has the right *shape* (rows present, ratios finite,
//! qualitative direction sensible). Numeric closeness to the paper is
//! recorded in EXPERIMENTS.md from full-scale release runs, not asserted
//! here (debug-build timing is too noisy).

use gca_bench::{baseline_detectors, figure1, figures_4_5};

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
fn baseline_detector_comparison_shape() {
    let c = baseline_detectors();
    assert!(c.leaked > 0);
    assert_eq!(c.gca_false_positives, 0);
    assert!(c.gca_true_positives > 0);
}
