//! Shared helpers for the integration-test corpus and the cross-engine
//! differential fuzz suites.
//!
//! The assertion corpus (`assert_*.rs`, `interactions.rs`) builds every VM
//! through [`cfg()`], which honours the `GCA_TEST_COLLECTOR` environment
//! variable: unset (the default) runs the paper's mark-sweep collector, so
//! tier-1 is unchanged; `GCA_TEST_COLLECTOR=copying` re-runs the exact same
//! corpus against the semispace copying backend — CI runs both legs.
//!
//! The random heap-program language the fuzz suites replay lives in the
//! `gca-modelcheck` crate ([`gca_modelcheck::FuzzOp`]) and is re-exported
//! here: the exhaustive model checker, the proptest fuzzers, and the
//! counterexample shrinker all consume the *same* `FuzzOp` definition and
//! interpreter, so they can never drift apart.

#![allow(dead_code)]

// One op language, one interpreter, shared with the model checker. Each
// test binary compiles its own copy of this module and uses a different
// subset of the re-exports.
#[allow(unused_imports)]
pub use gca_modelcheck::{
    fuzz_op_strategy, minimize_counterexample, mutation_op_strategy, normalize_violations,
    run_program, violation_key, FuzzOp, Outcome,
};

use gc_assertions::{CollectorKind, VmConfig, VmConfigBuilder};

// ---------------------------------------------------------------------------
// Corpus engine selection
// ---------------------------------------------------------------------------

/// The collector backend the corpus runs against, from `GCA_TEST_COLLECTOR`.
///
/// Panics on an unknown value so a typo in CI fails loudly instead of
/// silently re-testing mark-sweep.
pub fn corpus_collector() -> CollectorKind {
    match std::env::var("GCA_TEST_COLLECTOR") {
        Err(_) => CollectorKind::MarkSweep,
        Ok(v) => match v.as_str() {
            "" | "mark-sweep" | "marksweep" => CollectorKind::MarkSweep,
            "copying" => CollectorKind::Copying,
            other => panic!("GCA_TEST_COLLECTOR: unknown collector {other:?}"),
        },
    }
}

/// The corpus' replacement for `VmConfig::builder()`: identical, except the
/// collector backend comes from `GCA_TEST_COLLECTOR`.
pub fn cfg() -> VmConfigBuilder {
    VmConfig::builder().collector(corpus_collector())
}
