//! Exporter hardening: JSONL round-trip (example-based and property-based),
//! a Prometheus golden-file pin, and fuzz-ish decoding of truncated and
//! corrupted lines (the parser must never panic).

use gca_telemetry::export::{parse_jsonl, record_to_json, records_to_jsonl};
use gca_telemetry::{
    AssertionKind, AssertionOverhead, CensusData, CensusEntry, CycleKind, CycleRecord, GcTelemetry,
    HeapCensus, KindOverhead,
};
use proptest::prelude::*;

/// A fully-populated, deterministic pair of records exercising every field.
fn fixture_records() -> Vec<CycleRecord> {
    let mut overhead = AssertionOverhead::default();
    overhead.dead.registered = 3;
    overhead.dead.header_bit_checks = 120;
    overhead.region.registered = 40;
    overhead.region.phase_work = 2;
    overhead.instances.registered = 1;
    overhead.instances.counter_bumps = 512;
    overhead.unshared.registered = 5;
    overhead.unshared.header_bit_checks = 17;
    overhead.owned_by.registered = 2;
    overhead.owned_by.phase_work = 64;
    overhead.owned_by.extra_edges_traced = 200;
    vec![
        CycleRecord {
            seq: 1,
            kind: CycleKind::Major,
            total_ns: 2_500_000,
            pre_root_ns: 150_000,
            mark_ns: 1_800_000,
            sweep_ns: 550_000,
            objects_marked: 9_000,
            edges_traced: 21_000,
            pre_root_edges: 200,
            objects_swept: 3_000,
            words_swept: 30_000,
            promoted: 0,
            violations: 2,
            worker_mark_ns: vec![950_000, 850_000],
            overhead,
            census: Some(CensusData {
                classes: vec![
                    CensusEntry {
                        name: "Node".to_owned(),
                        objects: 6_000,
                        bytes: 192_000,
                    },
                    CensusEntry {
                        name: "Table".to_owned(),
                        objects: 3_000,
                        bytes: 240_000,
                    },
                ],
                sites: vec![CensusEntry {
                    name: "Db209::insert".to_owned(),
                    objects: 5_500,
                    bytes: 176_000,
                }],
            }),
        },
        CycleRecord {
            seq: 2,
            kind: CycleKind::Minor,
            total_ns: 90_000,
            objects_swept: 400,
            words_swept: 4_000,
            promoted: 25,
            ..Default::default()
        },
    ]
}

fn fixture_snapshot() -> GcTelemetry {
    let mut t = GcTelemetry::new();
    for mut r in fixture_records() {
        r.seq = 0; // record() assigns the sequence
        t.record(r);
    }
    t
}

#[test]
fn jsonl_roundtrip_fixture() {
    let records = fixture_records();
    let text = records_to_jsonl(&records, Some("fixture"));
    assert_eq!(text.lines().count(), 2);
    let parsed = parse_jsonl(&text).expect("fixture parses");
    assert_eq!(parsed.len(), 2);
    for (got, want) in parsed.iter().zip(&records) {
        assert_eq!(got.bench.as_deref(), Some("fixture"));
        assert_eq!(&got.record, want);
    }
}

#[test]
fn snapshot_to_jsonl_roundtrip() {
    let t = fixture_snapshot();
    let parsed = parse_jsonl(&t.to_jsonl(None)).expect("snapshot jsonl parses");
    assert_eq!(parsed.len(), t.records().len());
    for (got, want) in parsed.iter().zip(t.records()) {
        assert_eq!(&got.record, want);
    }
}

/// The Prometheus rendering of a fixed snapshot is pinned byte-for-byte.
/// If the exporter's schema changes intentionally, regenerate with:
/// `cargo test -p gca-telemetry --test export_roundtrip -- --ignored regenerate`
#[test]
fn prometheus_golden_pin() {
    let got = fixture_snapshot().to_prometheus();
    let want = include_str!("golden/prometheus.txt");
    assert_eq!(got, want, "Prometheus output drifted from the golden file");
}

#[test]
#[ignore = "writes the golden fixture; run explicitly to regenerate"]
fn regenerate_prometheus_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/prometheus.txt");
    std::fs::write(path, fixture_snapshot().to_prometheus()).unwrap();
}

/// A deterministic census fixture: three major cycles with one leaking
/// class and one steady class (the leak drifts on the third cycle under a
/// window of 3), plus one minor cycle.
fn fixture_census() -> HeapCensus {
    let mut c = HeapCensus::with_window(3);
    for i in 0..3u64 {
        c.record_major(CensusData {
            classes: vec![
                CensusEntry {
                    name: "SObject".to_owned(),
                    objects: 100 + 40 * i,
                    bytes: (100 + 40 * i) * 40,
                },
                CensusEntry {
                    name: "SArray".to_owned(),
                    objects: 1,
                    bytes: 416,
                },
            ],
            sites: vec![
                CensusEntry {
                    name: "SwapLeak::swap".to_owned(),
                    objects: 100 + 40 * i,
                    bytes: (100 + 40 * i) * 40,
                },
                CensusEntry {
                    name: "<unattributed>".to_owned(),
                    objects: 1,
                    bytes: 416,
                },
            ],
        });
    }
    c.record_minor(CensusData {
        classes: vec![CensusEntry {
            name: "SObject".to_owned(),
            objects: 7,
            bytes: 280,
        }],
        sites: Vec::new(),
    });
    c
}

/// The census Prometheus rendering of a fixed snapshot is pinned
/// byte-for-byte, in the same style as `prometheus_golden_pin`.
/// Regenerate with the ignored `regenerate_census_prometheus_golden`.
#[test]
fn census_prometheus_golden_pin() {
    let got = fixture_census().to_prometheus();
    let want = include_str!("golden/census_prometheus.txt");
    assert_eq!(
        got, want,
        "census Prometheus output drifted from the golden file"
    );
}

#[test]
#[ignore = "writes the golden fixture; run explicitly to regenerate"]
fn regenerate_census_prometheus_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/census_prometheus.txt"
    );
    std::fs::write(path, fixture_census().to_prometheus()).unwrap();
}

#[test]
fn truncation_never_panics_and_never_misparses() {
    let full = record_to_json(&fixture_records()[0], Some("bh"));
    for cut in 0..full.len() {
        if !full.is_char_boundary(cut) {
            continue;
        }
        // Every strict prefix must fail cleanly; only the full line parses.
        if let Ok(records) = parse_jsonl(&full[..cut]) {
            assert!(records.is_empty(), "prefix of {cut} bytes parsed");
        }
    }
    let parsed = parse_jsonl(&full).unwrap();
    assert_eq!(parsed[0].record, fixture_records()[0]);
}

fn kind_overhead_strategy() -> impl Strategy<Value = KindOverhead> {
    (
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..1_000_000,
    )
        .prop_map(
            |(registered, header_bit_checks, counter_bumps, extra, phase_work)| KindOverhead {
                registered,
                header_bit_checks,
                counter_bumps,
                extra_edges_traced: extra,
                phase_work,
            },
        )
}

fn census_entry_strategy() -> impl Strategy<Value = CensusEntry> {
    ("[A-Za-z$:_\"\\\\]{1,12}", any::<u64>(), any::<u64>()).prop_map(|(name, objects, bytes)| {
        CensusEntry {
            name,
            objects,
            bytes,
        }
    })
}

fn census_strategy() -> impl Strategy<Value = Option<CensusData>> {
    prop_oneof![
        Just(None),
        (
            proptest::collection::vec(census_entry_strategy(), 0..4),
            proptest::collection::vec(census_entry_strategy(), 0..4),
        )
            .prop_map(|(classes, sites)| Some(CensusData { classes, sites })),
    ]
}

fn record_strategy() -> impl Strategy<Value = CycleRecord> {
    (
        (
            any::<u64>(),
            prop_oneof![Just(CycleKind::Major), Just(CycleKind::Minor)],
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::collection::vec(any::<u64>(), 0..8),
        (
            kind_overhead_strategy(),
            kind_overhead_strategy(),
            kind_overhead_strategy(),
        ),
        census_strategy(),
    )
        .prop_map(
            |(a, b, c, worker_mark_ns, (dead, unshared, owned_by), census)| {
                let (seq, kind, total_ns, pre_root_ns, mark_ns, sweep_ns) = a;
                let (objects_marked, edges_traced, pre_root_edges, objects_swept) = b;
                let (words_swept, promoted, violations) = c;
                CycleRecord {
                    seq,
                    kind,
                    total_ns,
                    pre_root_ns,
                    mark_ns,
                    sweep_ns,
                    objects_marked,
                    edges_traced,
                    pre_root_edges,
                    objects_swept,
                    words_swept,
                    promoted,
                    violations,
                    worker_mark_ns,
                    overhead: AssertionOverhead {
                        dead,
                        unshared,
                        owned_by,
                        ..Default::default()
                    },
                    census,
                }
            },
        )
}

proptest! {
    /// Any record, any bench label: write → parse is the identity.
    #[test]
    fn prop_jsonl_roundtrip(
        record in record_strategy(),
        bench in prop_oneof![Just(None), Just(Some("bench/with \"quotes\"".to_string()))],
    ) {
        let text = records_to_jsonl(std::slice::from_ref(&record), bench.as_deref());
        let parsed = parse_jsonl(&text).unwrap();
        prop_assert_eq!(parsed.len(), 1);
        prop_assert_eq!(&parsed[0].bench, &bench);
        prop_assert_eq!(&parsed[0].record, &record);
    }

    /// Arbitrary bytes (as lossy strings) never panic the parser.
    #[test]
    fn prop_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_jsonl(&text);
    }

    /// Single-byte corruption of a valid line never panics; if it still
    /// parses, the result is well-formed (decoded without error).
    #[test]
    fn prop_corrupted_line_never_panics(
        record in record_strategy(),
        pos in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let mut line = record_to_json(&record, Some("x")).into_bytes();
        let idx = (pos % line.len() as u64) as usize;
        line[idx] = byte;
        let text = String::from_utf8_lossy(&line);
        let _ = parse_jsonl(&text);
    }
}

#[test]
fn overhead_matrix_is_complete_in_prometheus() {
    let text = fixture_snapshot().to_prometheus();
    for kind in AssertionKind::ALL {
        for metric in [
            "registered",
            "header_bit_checks",
            "counter_bumps",
            "extra_edges_traced",
            "phase_work",
        ] {
            let needle = format!(
                "gca_assertion_overhead_total{{kind=\"{}\",metric=\"{metric}\"}}",
                kind.label()
            );
            assert!(text.contains(&needle), "missing {needle}");
        }
    }
}
