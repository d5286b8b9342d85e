//! The path from a failed check to a replayable counterexample: the
//! differential check attributes the failure to one engine, the shrinker
//! minimizes the program, and the emitter renders a `.gca` script plus a
//! replay seed.
//!
//! The failure is planted in the engine matrix, not in the collector: a
//! spec whose heap budget is smaller than one object and may not grow, so
//! its first allocation fails. That exercises the whole path without any
//! switch in production code. Collector defects themselves are checked by
//! the mutant catalogue (`crates/modelcheck/mutants/`).

use gc_assertions::VmConfig;
use gca_modelcheck::{
    check_program_with, engine_matrix, minimize_counterexample, parse_replay, CheckError,
    EngineSpec, FuzzOp,
};

/// `ms` beside `planted`, a spec that cannot allocate anything.
fn planted_matrix() -> Vec<EngineSpec> {
    let ms = engine_matrix()
        .into_iter()
        .find(|s| s.name == "ms")
        .unwrap();
    let planted = EngineSpec {
        name: "planted",
        config: VmConfig::builder()
            .heap_budget(1)
            .grow_on_oom(false)
            .census(true)
            .build(),
    };
    vec![ms, planted]
}

/// A deliberately noisy program: the failure only needs one allocation,
/// everything else is shrinkable chaff.
fn noisy_program() -> Vec<FuzzOp> {
    vec![
        FuzzOp::Alloc {
            data: 27,
            root: false,
        },
        FuzzOp::Alloc {
            data: 0,
            root: true,
        },
        FuzzOp::Link {
            from: 0,
            field: 1,
            to: 0,
        },
        FuzzOp::AssertUnshared { target: 0 },
        FuzzOp::Collect,
        FuzzOp::Alloc {
            data: 0,
            root: true,
        },
        FuzzOp::UnrootTo { keep: 1 },
        FuzzOp::Collect,
    ]
}

#[test]
fn planted_failure_is_caught_minimized_and_emitted() {
    let matrix = planted_matrix();
    let ops = noisy_program();

    let error = check_program_with(&matrix, &ops)
        .expect_err("the planted spec must fail the differential check");
    match &error {
        CheckError::EngineFailure { engine, .. } => assert_eq!(*engine, "planted"),
        other => panic!("expected an engine failure, got: {other}"),
    }

    let cx = minimize_counterexample(&matrix, &ops);
    assert!(
        cx.ops.len() <= 2,
        "expected a 1-2 op counterexample, got {:?}",
        cx.ops
    );
    assert!(
        cx.ops.iter().any(|op| matches!(op, FuzzOp::Alloc { .. })),
        "an allocation is required to exhaust the planted heap: {:?}",
        cx.ops
    );
    assert!(matches!(cx.error, CheckError::EngineFailure { engine, .. } if engine == "planted"));

    // The replay seed round-trips to the same minimized program.
    assert_eq!(parse_replay(&cx.seed).unwrap(), cx.ops);

    // The emitted counterexample is a runnable .gca script configured
    // like the implicated engine.
    let script = gca_script::parse_script(&cx.script)
        .unwrap_or_else(|e| panic!("emitted script must parse: {e}\n{}", cx.script));
    assert!(!script.is_empty());
    for line in ["config heap 1", "config grow off"] {
        assert!(
            cx.script.lines().any(|l| l == line),
            "script must carry {line:?}:\n{}",
            cx.script
        );
    }
    assert!(
        cx.script.contains(&cx.seed),
        "script header must carry the replay seed:\n{}",
        cx.script
    );
}

#[test]
fn the_same_program_checks_clean_without_the_planted_spec() {
    // Proves the failure above came from the planted spec, not from the
    // program or the checker.
    let matrix: Vec<EngineSpec> = planted_matrix()
        .into_iter()
        .filter(|s| s.name != "planted")
        .collect();
    check_program_with(&matrix, &noisy_program()).expect("no planted spec, no failure");
    check_program_with(&engine_matrix(), &noisy_program()).expect("the full matrix agrees");
}
