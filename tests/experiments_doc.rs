//! EXPERIMENTS.md takes its numbers from the repo benchmark. This test keeps
//! the document, `BENCHMARK.json` and the committed `BENCH_baseline.json`
//! from drifting apart: every metric the document names must exist, the
//! baseline must hold the runs the document quotes, and the retired
//! `figures` modes must stay out of the docs.
//!
//! Both JSON files are read line by line: `BENCHMARK.json` keeps one
//! `{"name": …}` object per line, and the baseline is written by the
//! benchmark's pretty-printer, one key per line.

use std::collections::{BTreeMap, BTreeSet};

/// Layer prefixes `BENCHMARK.json` uses for its per-layer metrics.
const LAYERS: [&str; 9] = [
    "heap.",
    "collector.",
    "core.",
    "telemetry.",
    "workloads.",
    "script.",
    "soak.",
    "control.",
    "paper.",
];

fn read(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The string value of `"key": "value"` on `line`, if it has one.
fn string_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.split(&format!("\"{key}\": \"")).nth(1)?;
    rest.split('"').next()
}

/// The `name`s listed under each top-level array of `BENCHMARK.json`.
fn benchmark_names() -> BTreeMap<&'static str, BTreeSet<String>> {
    let mut names: BTreeMap<&'static str, BTreeSet<String>> = BTreeMap::new();
    let mut section = None;
    for line in read("BENCHMARK.json").lines() {
        for key in ["workloads", "end_to_end", "per_layer"] {
            if line.trim_start().starts_with(&format!("\"{key}\": [")) {
                section = Some(key);
            }
        }
        if let (Some(section), Some(name)) = (section, string_field(line, "name")) {
            names.entry(section).or_default().insert(name.to_owned());
        }
    }
    names
}

/// Every `` `token` `` of `text` that sits on one line.
fn backticked(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .filter(|l| !l.trim_start().starts_with("```"))
        .flat_map(|l| l.split('`').skip(1).step_by(2))
}

#[test]
fn every_metric_the_document_names_is_one_the_benchmark_defines() {
    let names = benchmark_names();
    let (workloads, end_to_end, per_layer) = (
        &names["workloads"],
        &names["end_to_end"],
        &names["per_layer"],
    );
    assert_eq!(workloads.len(), 8);
    assert_eq!(end_to_end.len(), 6);

    let doc = read("EXPERIMENTS.md");
    let (mut layer_tokens, mut pairs) = (0, 0);
    for token in backticked(&doc) {
        if LAYERS.iter().any(|l| token.starts_with(l)) {
            layer_tokens += 1;
            assert!(
                per_layer.contains(token),
                "EXPERIMENTS.md cites `{token}`, which BENCHMARK.json does not define"
            );
        }
        let word =
            |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if let Some((w, m)) = token.split_once('/').filter(|(w, m)| word(w) && word(m)) {
            if workloads.contains(w) || end_to_end.contains(m) {
                pairs += 1;
                assert!(
                    workloads.contains(w) && end_to_end.contains(m),
                    "EXPERIMENTS.md cites `{token}`: not a workload/end-to-end-metric pair of BENCHMARK.json"
                );
            }
        }
    }
    // The document argues from the benchmark, not around it.
    assert!(layer_tokens >= 10 && pairs >= 5, "{layer_tokens} / {pairs}");
}

#[test]
fn the_committed_baseline_holds_ten_clean_runs_of_every_workload() {
    let names = benchmark_names();
    let mut untraced: BTreeMap<String, usize> = BTreeMap::new();
    let mut traced: BTreeSet<String> = BTreeSet::new();
    let mut current = None;
    for line in read("BENCH_baseline.json").lines() {
        let line = line.trim();
        if let Some(workload) = string_field(line, "workload") {
            current = Some(workload.to_owned());
        }
        let Some(workload) = &current else { continue };
        match line.trim_end_matches(',') {
            "\"traced\": false" => *untraced.entry(workload.clone()).or_default() += 1,
            "\"traced\": true" => {
                traced.insert(workload.clone());
            }
            other => {
                if let Some(failed) = other.strip_prefix("\"failed\": ") {
                    assert_eq!(failed, "0", "a run of {workload} failed checks");
                }
            }
        }
    }
    for workload in &names["workloads"] {
        let runs = untraced.get(workload).copied().unwrap_or(0);
        assert!(runs >= 10, "{workload}: {runs} untraced runs, need 10");
        assert!(traced.contains(workload), "{workload}: no traced run");
    }
}

#[test]
fn retired_figures_modes_stay_out_of_the_docs() {
    for doc in ["EXPERIMENTS.md", "README.md", "DESIGN.md"] {
        let text = read(doc);
        for gone in ["figures_full_output.txt", "--ablations", "--telemetry PATH"] {
            assert!(!text.contains(gone), "{doc} still mentions {gone}");
        }
    }
}
