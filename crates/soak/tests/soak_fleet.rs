//! End-to-end soak harness tests: deterministic metrics golden, seeded
//! fault detection latency, fleet false-positive rate, the live HTTP
//! scrape plane, and the JSONL / bench artifacts.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use gca_soak::{normalize_metrics, run_soak, FaultKind, FaultPlan, Fleet, Pacing, SoakConfig};

/// A unique scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gca-soak-test-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn virtual_smoke_fleet_is_clean_and_deterministic() {
    // Two identical runs of the deterministic smoke config must render
    // byte-identical /metrics payloads once wall-clock durations are
    // normalized out — the "golden" is the run itself.
    let metrics_of = || {
        let fleet = Fleet::start(SoakConfig::smoke()).expect("start");
        while !fleet.done() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let metrics = fleet.metrics();
        let report = fleet.wait().expect("wait");
        (metrics, report)
    };

    let (metrics_a, report) = metrics_of();
    let (metrics_b, _) = metrics_of();
    assert_eq!(
        normalize_metrics(&metrics_a),
        normalize_metrics(&metrics_b),
        "virtual pacing must make normalized /metrics reproducible"
    );

    // Clean fleet: no faults planned, so zero reports anywhere.
    assert_eq!(report.shards.len(), 2);
    assert!(
        report.passed(),
        "clean fleet must pass: {}",
        report.summary()
    );
    assert_eq!(report.false_positive_rate(), 0.0);
    for s in &report.shards {
        assert!(s.requests > 400, "shard {} served {}", s.shard, s.requests);
        assert!(s.gc_cycles > 0, "soak must exercise the collector");
        assert_eq!(s.violations, 0);
        assert_eq!(s.drifting_keys, 0);
        assert!(s.error.is_none());
    }

    // Structural checks on the payload itself.
    for family in [
        "gca_gc_cycles_total{shard=\"0\"}",
        "gca_gc_cycles_total{shard=\"1\"}",
        "gca_census_live_objects",
        "gca_soak_requests_total{shard=\"0\",scenario=\"session-cache\"}",
        "gca_soak_requests_total{shard=\"1\",scenario=\"social-graph\"}",
        "gca_soak_request_latency_seconds_bucket",
        "gca_soak_shard_done",
    ] {
        assert!(
            metrics_a.contains(family),
            "missing {family} in:\n{metrics_a}"
        );
    }
    // Latency histogram counts every request.
    let total: u64 = report.shards.iter().map(|s| s.requests).sum();
    let counted: u64 = metrics_a
        .lines()
        .filter(|l| l.starts_with("gca_soak_request_latency_seconds_count"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(counted, total);
}

/// The normalized `/metrics` payload of a virtual-paced smoke fleet with
/// one planted leak, so the fault families appear.
fn leak_fleet_metrics() -> String {
    let mut config = SoakConfig::smoke();
    config.faults = vec![FaultPlan::new(1, FaultKind::Leak, 100)];
    let fleet = Fleet::start(config).expect("start");
    while !fleet.done() {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let metrics = normalize_metrics(&fleet.metrics());
    fleet.wait().expect("wait");
    metrics
}

/// The fleet `/metrics` payload is pinned byte-for-byte against a file, so
/// a change that alters it the same way in every run still shows. If the
/// schema changes intentionally, regenerate with:
/// `cargo test -p gca-soak --test soak_fleet -- --ignored regenerate`
#[test]
fn fleet_metrics_golden_pin() {
    let got = leak_fleet_metrics();
    let want = include_str!("golden/fleet_metrics.txt");
    assert_eq!(got, want, "fleet /metrics drifted from the golden file");
}

#[test]
#[ignore = "writes the golden fixture; run explicitly to regenerate"]
fn regenerate_fleet_metrics_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fleet_metrics.txt"
    );
    std::fs::write(path, leak_fleet_metrics()).unwrap();
}

/// Checks the exposition grouping of a payload: each family's HELP line
/// is followed by its own TYPE line, no family is declared twice, and every
/// sample belongs to the most recently TYPE'd family (a histogram's
/// through its `_bucket`/`_sum`/`_count` series).
fn assert_grouped(payload: &str) {
    let mut declared = std::collections::HashSet::new();
    let mut help = None;
    let mut current = None;
    for (i, line) in payload.lines().enumerate() {
        let at = i + 1;
        if let Some(rest) = line.strip_prefix("# HELP ") {
            help = rest.split(' ').next();
            current = None;
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest.split_once(' ').expect("TYPE line");
            assert_eq!(help.take(), Some(name), "line {at}: TYPE without its HELP");
            assert!(declared.insert(name), "line {at}: {name} declared twice");
            current = Some((name, ty));
        } else {
            let metric = line.split(['{', ' ']).next().unwrap_or("");
            let (family, ty) =
                current.unwrap_or_else(|| panic!("line {at}: {line:?} follows no TYPE line"));
            let series_of_family = metric == family
                || (ty == "histogram"
                    && ["_bucket", "_sum", "_count"]
                        .iter()
                        .any(|suffix| metric.strip_suffix(suffix) == Some(family)));
            assert!(
                series_of_family,
                "line {at}: {line:?} sits in family {family}"
            );
        }
    }
}

#[test]
fn every_sample_follows_its_own_family_header() {
    let mut config = SoakConfig::smoke();
    config.faults = vec![
        FaultPlan::new(0, FaultKind::Leak, 100),
        FaultPlan::new(1, FaultKind::Leak, 100),
    ];
    let fleet = Fleet::start(config).expect("start");
    while !fleet.done() {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let metrics = fleet.metrics();
    let snaps = fleet.snapshots();
    let report = fleet.wait().expect("wait");
    assert!(report.all_faults_detected(), "{}", report.summary());
    let detected = metrics
        .lines()
        .filter(|l| l.starts_with("gca_soak_detection_latency_cycles{"))
        .count();
    assert_eq!(detected, 2, "two detected faults in:\n{metrics}");

    assert_grouped(&metrics);
    for snap in &snaps {
        assert_grouped(&snap.telemetry.to_prometheus());
        assert_grouped(&snap.census.to_prometheus());
    }
}

#[test]
fn seeded_leak_is_detected_with_finite_latency_and_clean_shards_stay_clean() {
    let mut config = SoakConfig::smoke();
    config.shards = 3;
    config.faults = vec![FaultPlan::new(1, FaultKind::Leak, 100)];
    let report = run_soak(config).expect("soak");

    let faulted = &report.shards[1];
    let d = faulted
        .detection
        .expect("the injected leak must be detected");
    assert!(d.cycles >= 1, "detection takes at least one collection");
    assert!(
        d.cycles <= faulted.gc_cycles,
        "latency {} must fit inside the run's {} cycles",
        d.cycles,
        faulted.gc_cycles
    );
    assert!(faulted.violations >= 1);

    for s in [&report.shards[0], &report.shards[2]] {
        assert_eq!(s.violations, 0, "clean shard {} must stay clean", s.shard);
        assert_eq!(s.drifting_keys, 0);
    }
    assert!(report.all_faults_detected());
    assert_eq!(report.false_positive_rate(), 0.0);
    assert!(report.passed(), "{}", report.summary());
}

#[test]
fn every_fault_kind_is_detected_in_a_soak() {
    // One faulted shard per kind, all in one fleet (4 faulted + 2 clean).
    let mut config = SoakConfig::smoke();
    config.shards = 6;
    config.faults = FaultKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| FaultPlan::new(i, kind, 50 + 25 * i as u64))
        .collect();
    let report = run_soak(config).expect("soak");

    for (i, &kind) in FaultKind::ALL.iter().enumerate() {
        let s = &report.shards[i];
        assert_eq!(s.fault, Some(kind));
        let d = s.detection.unwrap_or_else(|| {
            panic!("fault {kind} on shard {i} undetected: {}", report.summary())
        });
        assert!(d.cycles >= 1, "{kind}: {d:?}");
    }
    for s in &report.shards[4..] {
        assert!(s.is_clean_shard());
        assert!(!s.is_false_positive(), "{}", report.summary());
    }
    assert!(report.passed(), "{}", report.summary());
}

#[test]
fn http_plane_serves_metrics_healthz_and_status() {
    let mut config = SoakConfig::smoke();
    config.http_port = Some(0); // ephemeral
    let fleet = Fleet::start(config).expect("start");
    let addr = fleet.http_addr().expect("server must be up");

    let get = |path: &str| -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("full response");
        (head.to_string(), body.to_string())
    };

    // Scrape while the fleet is live.
    let (head, body) = get("/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"));
    assert!(body.contains("# TYPE gca_gc_cycles_total counter"));
    assert!(body.contains("shard=\"0\""));
    assert!(body.contains("gca_soak_request_latency_seconds"));
    // Every non-comment line is `name{labels} value` — parseable shape.
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (_, value) = line.rsplit_once(' ').expect("sample line");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
            "unparseable value in: {line}"
        );
    }

    let (head, body) = get("/healthz");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_eq!(body, "ok\n");

    let (head, body) = get("/status");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("application/json"));
    assert!(body.starts_with("{\"elapsed_ms\":"));
    assert!(body.contains("\"scenario\":\"session-cache\""));
    assert!(body.contains("\"shards\":["));
    assert_eq!(body.matches('{').count(), body.matches('}').count());

    let (head, _) = get("/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    while !fleet.done() {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // The plane stays scrapeable through the end of the run.
    let (head, body) = get("/status");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(body.contains("\"done\":true"));
    let report = fleet.wait().expect("wait");
    assert!(report.passed());
}

#[test]
fn jsonl_and_bench_artifacts_round_trip() {
    let dir = scratch("artifacts");
    let bench = dir.join("BENCH_soak.json");
    let mut config = SoakConfig::smoke();
    config.jsonl_dir = Some(dir.clone());
    config.bench_out = Some(bench.clone());
    config.faults = vec![FaultPlan::new(1, FaultKind::Unshared, 80)];
    let report = run_soak(config).expect("soak");
    assert!(report.all_faults_detected(), "{}", report.summary());

    // Per-shard streams exist and every line carries its shard tag.
    for shard in 0..2u64 {
        let path = dir.join(format!("shard-{shard}.jsonl"));
        let text = std::fs::read_to_string(&path).expect("shard log");
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(
                line.contains(&format!("\"shard\":{shard},")),
                "untagged line in {path:?}: {line}"
            );
        }
        // The tagged lines parse back through the telemetry reader.
        let parsed = gca_telemetry::export::parse_jsonl(&text).expect("parse");
        assert!(!parsed.is_empty());
        assert!(parsed.iter().all(|r| r.shard == Some(shard)));
    }

    // The merged fleet log holds every line, ordered by (seq, shard).
    let fleet_text = std::fs::read_to_string(dir.join("fleet.jsonl")).expect("fleet log");
    let per_shard_total: usize = (0..2)
        .map(|i| {
            std::fs::read_to_string(dir.join(format!("shard-{i}.jsonl")))
                .unwrap()
                .lines()
                .count()
        })
        .sum();
    assert_eq!(fleet_text.lines().count(), per_shard_total);
    let merged = gca_telemetry::export::parse_jsonl(&fleet_text).expect("parse fleet");
    let keys: Vec<(u64, u64)> = merged
        .iter()
        .map(|r| (r.record.seq, r.shard.unwrap_or(0)))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "fleet.jsonl must be (seq, shard)-ordered");

    // The bench summary is on disk and carries the detection record.
    let bench_text = std::fs::read_to_string(&bench).expect("bench json");
    assert!(bench_text.starts_with("{\"bench\":\"soak\""));
    assert!(bench_text.contains("\"fault\":\"unshared\""));
    assert!(bench_text.contains("\"detection\":{\"cycles\":"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wall_pacing_also_completes_a_short_run() {
    // A tiny wall-clock soak (the CI smoke shape) finishes promptly and
    // measures real latencies.
    let config = SoakConfig {
        shards: 2,
        pacing: Pacing::Wall,
        phases: vec![gca_soak::Phase::steady("s", 100, 400.0)],
        faults: vec![FaultPlan::new(0, FaultKind::Leak, 10)],
        ..SoakConfig::smoke()
    };
    let report = run_soak(config).expect("soak");
    assert!(report.all_faults_detected(), "{}", report.summary());
    let d = report.shards[0].detection.unwrap();
    assert!(d.wall_ns > 0, "wall detection latency must be measured");
    assert!(report.passed(), "{}", report.summary());
}
