//! A smoke-scale run of all eight workloads, gated and traced: every metric
//! `BENCHMARK.json` names is emitted exactly once per workload with a finite
//! value, the file and the harness's tables agree, counters repeat, and a
//! deliberately mis-planted fault is counted as a failure.

use gca_benchmark::json::{self, Value};
use gca_benchmark::metrics::{valid_name, valid_unit, MetricDef, END_TO_END, PER_LAYER};
use gca_benchmark::runner::{run_workload, RunOptions};
use gca_benchmark::workloads::{find, Scale, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn smoke(trace: bool) -> RunOptions {
    RunOptions {
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
        misplant: false,
    }
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no {key} in {v:?}"))
}

/// The names of `section` in `BENCHMARK.json`, checked against `table`.
fn check_section(file: &Value, section: &str, table: &[MetricDef]) {
    let listed = file.get(section).and_then(Value::as_arr).expect(section);
    assert_eq!(listed.len(), table.len(), "{section}: count");
    for (entry, def) in listed.iter().zip(table) {
        assert_eq!(str_of(entry, "name"), def.name, "{section}: order or name");
        assert_eq!(str_of(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(str_of(entry, "better"), def.better.label(), "{}", def.name);
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            def.bound,
            "{}",
            def.name
        );
        assert!(valid_name(def.name) && valid_unit(def.unit));
    }
}

#[test]
fn benchmark_json_agrees_with_the_registry() {
    let file = benchmark_json();
    check_section(&file, "end_to_end", END_TO_END);
    check_section(&file, "per_layer", PER_LAYER);
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    let listed = file.get("workloads").and_then(Value::as_arr).unwrap();
    let names: Vec<&str> = listed.iter().map(|w| str_of(w, "name")).collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, ours);
    for w in listed {
        assert!(valid_name(str_of(w, "name")));
        let why = str_of(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    assert_eq!(
        file.get("paths"),
        Some(&Value::Arr(vec![Value::Str("benchmark".into())]))
    );
}

/// Parses the contract line back and checks it against the section of
/// `BENCHMARK.json` it must cover exactly.
fn check_contract_line(line: &str, section: &str, workload: &str) {
    let file = benchmark_json();
    let out = json::parse(line).unwrap();
    let keys: Vec<&str> = out
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        out.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}: {line}"
    );
    assert_eq!(
        out.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(out.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let metrics = out.get("metrics").and_then(Value::as_obj).unwrap();
    let listed = file.get(section).and_then(Value::as_arr).unwrap();
    assert_eq!(metrics.len(), listed.len(), "{workload}: {section} count");
    for entry in listed {
        let name = str_of(entry, "name");
        let hits: Vec<_> = metrics.iter().filter(|(k, _)| k == name).collect();
        assert_eq!(
            hits.len(),
            1,
            "{workload}: {name} emitted {} times",
            hits.len()
        );
        let value = hits[0].1.get("value").and_then(Value::as_f64).unwrap();
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert_eq!(
            str_of(&hits[0].1, "unit"),
            str_of(entry, "unit"),
            "{workload}: {name}"
        );
        if section == "end_to_end" {
            assert!(value > 0.0, "{workload}: {name} must never be 0");
        }
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for def in WORKLOADS {
        let result = run_workload(def, &smoke(false));
        assert_eq!(
            result.checks.failed, 0,
            "{}: {:?}",
            def.name, result.checks.notes
        );
        assert!(result.reps >= 3 && result.pause_samples > 0, "{}", def.name);
        assert!(!result.counters.0.is_empty(), "{}", def.name);
        check_contract_line(&result.contract_line(), "end_to_end", def.name);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for def in WORKLOADS {
        let result = run_workload(def, &smoke(true));
        assert_eq!(
            result.checks.failed, 0,
            "{}: {:?}",
            def.name, result.checks.notes
        );
        check_contract_line(&result.contract_line(), "per_layer", def.name);
        let m = &result.metrics;
        // Self times of the layers account for the traced rep.
        let coverage = m.get("bench.self_time_coverage");
        assert!(
            (0.95..=1.05).contains(&coverage),
            "{}: coverage {coverage}",
            def.name
        );
        assert!(m.get("bench.trace_overhead_ratio") > 0.0);
        assert!(m.get("bench.span_count") > 0.0);
        // Ownership work where assertions are registered, none where the
        // workload registers no assertion at all.
        let ownees = m.get("core.ownership.ownees_checked");
        match def.name {
            "assert_heavy" => assert!(ownees > 0.0),
            "suite_ms" | "churn_sweep" | "live_mark" | "live_copying" | "gen_barrier" => {
                assert_eq!(ownees, 0.0, "{}", def.name)
            }
            _ => {}
        }
        let trace = result.trace.expect("the traced run keeps its spans");
        assert!(trace.spans().iter().any(|s| s.name == "rep"));
    }
}

#[test]
fn same_seed_same_counters_other_seed_other_inputs() {
    let def = find("churn_sweep").unwrap();
    let a = run_workload(def, &smoke(false));
    let b = run_workload(def, &smoke(false));
    assert_eq!(a.counters, b.counters);
    let other = run_workload(
        def,
        &RunOptions {
            seed: 8,
            ..smoke(false)
        },
    );
    assert_ne!(a.counters, other.counters);
}

#[test]
fn a_misplanted_fault_is_counted_as_a_failure() {
    let def = find("assert_heavy").unwrap();
    let clean = run_workload(def, &smoke(false));
    assert_eq!(clean.checks.failed, 0, "{:?}", clean.checks.notes);
    let result = run_workload(
        def,
        &RunOptions {
            misplant: true,
            ..smoke(false)
        },
    );
    assert!(
        result.checks.failed > 0,
        "the unexpected violation went unnoticed"
    );
    let line = json::parse(&result.contract_line()).unwrap();
    assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
    assert!(line.get("failed").and_then(Value::as_f64).unwrap() > 0.0);
}
