//! End-of-run reporting: the machine-readable `BENCH_soak.json` summary,
//! the pass/fail verdict the CLI (and CI) gate on, and the `/metrics`
//! normalizer the golden test uses.

use crate::fault::{Detection, FaultKind};
use crate::shard::ShardSnapshot;

/// One shard's end-of-run summary.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: u64,
    /// Scenario label.
    pub scenario: &'static str,
    /// Requests served.
    pub requests: u64,
    /// Major collections over the run.
    pub gc_cycles: u64,
    /// Minor collections over the run.
    pub minor_cycles: u64,
    /// Assertion violations reported.
    pub violations: u64,
    /// Census keys drifting at the end of the run.
    pub drifting_keys: usize,
    /// Latency samples above the SLO.
    pub slo_breaches: u64,
    /// Conservative (bucket-upper-bound) latency quantiles, ns.
    pub p50_ns: u64,
    /// See `p50_ns`.
    pub p99_ns: u64,
    /// Mean request latency, ns.
    pub mean_ns: u64,
    /// The fault injected into this shard, if any.
    pub fault: Option<FaultKind>,
    /// Detection latency, once the fault was reported.
    pub detection: Option<Detection>,
    /// Shard-thread error, if it died early.
    pub error: Option<String>,
}

impl ShardReport {
    /// A shard with no planned fault — the population the false-positive
    /// rate is computed over.
    pub fn is_clean_shard(&self) -> bool {
        self.fault.is_none()
    }

    /// A clean shard that reported anyway: a fleet false positive.
    pub fn is_false_positive(&self) -> bool {
        self.is_clean_shard() && (self.violations > 0 || self.drifting_keys > 0)
    }
}

/// Whole-fleet end-of-run summary; what `BENCH_soak.json` serializes.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Per-shard summaries, in shard order.
    pub shards: Vec<ShardReport>,
    /// Wall time of the whole run, milliseconds.
    pub wall_ms: u64,
}

impl SoakReport {
    /// Builds the report from the fleet's final snapshots.
    pub(crate) fn from_snapshots(snaps: &[&ShardSnapshot], wall_ms: u64) -> SoakReport {
        SoakReport {
            shards: snaps
                .iter()
                .map(|s| ShardReport {
                    shard: s.shard,
                    scenario: s.scenario,
                    requests: s.requests_done,
                    gc_cycles: s.telemetry.cycles(),
                    minor_cycles: s.telemetry.minor_cycles(),
                    violations: s.violations,
                    drifting_keys: s.drifting_keys,
                    slo_breaches: s.slo_breaches,
                    p50_ns: s.latency.quantile_ns(50),
                    p99_ns: s.latency.quantile_ns(99),
                    mean_ns: s.latency.mean_ns(),
                    fault: s.fault,
                    detection: s.detection,
                    error: s.error.clone(),
                })
                .collect(),
            wall_ms,
        }
    }

    /// Every planned fault produced a finite detection latency.
    pub fn all_faults_detected(&self) -> bool {
        self.shards
            .iter()
            .filter(|s| s.fault.is_some())
            .all(|s| s.detection.is_some())
    }

    /// Fraction of *clean* shards that reported a violation or drift —
    /// the fleet-wide false-positive rate. 0.0 when there are no clean
    /// shards.
    pub fn false_positive_rate(&self) -> f64 {
        let clean = self.shards.iter().filter(|s| s.is_clean_shard()).count();
        if clean == 0 {
            return 0.0;
        }
        let noisy = self.shards.iter().filter(|s| s.is_false_positive()).count();
        noisy as f64 / clean as f64
    }

    /// The verdict the CLI exits on: every fault detected, no clean
    /// shard reported, no shard died.
    pub fn passed(&self) -> bool {
        self.all_faults_detected()
            && self.false_positive_rate() == 0.0
            && self.shards.iter().all(|s| s.error.is_none())
    }

    /// Serializes the report as the `BENCH_soak.json` payload.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.shards.len() * 256);
        out.push_str(&format!(
            "{{\"bench\":\"soak\",\"wall_ms\":{},\"passed\":{},\
             \"false_positive_rate\":{:.4},\"shards\":[",
            self.wall_ms,
            self.passed(),
            self.false_positive_rate()
        ));
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"shard\":{},\"scenario\":\"{}\",\"requests\":{},\"gc_cycles\":{},\
                 \"minor_cycles\":{},\"violations\":{},\"drifting_keys\":{},\
                 \"slo_breaches\":{},\"latency_p50_ns\":{},\"latency_p99_ns\":{},\
                 \"latency_mean_ns\":{}",
                s.shard,
                s.scenario,
                s.requests,
                s.gc_cycles,
                s.minor_cycles,
                s.violations,
                s.drifting_keys,
                s.slo_breaches,
                s.p50_ns,
                s.p99_ns,
                s.mean_ns,
            ));
            match s.fault {
                Some(kind) => out.push_str(&format!(",\"fault\":\"{kind}\"")),
                None => out.push_str(",\"fault\":null"),
            }
            match s.detection {
                Some(d) => out.push_str(&format!(
                    ",\"detection\":{{\"cycles\":{},\"wall_ns\":{}}}",
                    d.cycles, d.wall_ns
                )),
                None => out.push_str(",\"detection\":null"),
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Writes [`SoakReport::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub(crate) fn write_bench(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json() + "\n")
    }

    /// A human-readable summary for the CLI.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for s in &self.shards {
            out.push_str(&format!(
                "shard {} [{}]: {} requests, {} majors/{} minors, {} violations, {} drifting, p99 {:.3}ms",
                s.shard,
                s.scenario,
                s.requests,
                s.gc_cycles,
                s.minor_cycles,
                s.violations,
                s.drifting_keys,
                s.p99_ns as f64 / 1e6,
            ));
            if let Some(kind) = s.fault {
                match s.detection {
                    Some(d) => out.push_str(&format!(
                        " — fault {kind} DETECTED after {} cycles / {:.1}ms",
                        d.cycles,
                        d.wall_ns as f64 / 1e6
                    )),
                    None => out.push_str(&format!(" — fault {kind} NOT DETECTED")),
                }
            }
            if let Some(e) = &s.error {
                out.push_str(&format!(" — ERROR: {e}"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "fleet: {} shards, {:.0}% false positives, {} in {}ms\n",
            self.shards.len(),
            self.false_positive_rate() * 100.0,
            if self.passed() { "PASS" } else { "FAIL" },
            self.wall_ms
        ));
        out
    }
}

/// Strips the wall-clock-dependent values out of a `/metrics` payload so
/// the rest can be golden-tested. Under virtual pacing every *count* in
/// the payload is deterministic; only measured GC durations vary run to
/// run. Specifically:
///
/// * `gca_gc_phase_seconds_total` and `gca_gc_worker_mark_seconds_total`
///   values are replaced with `NORM`;
/// * `gca_gc_pause_seconds` `_bucket` and `_sum` lines are dropped
///   (bucket shape depends on measured pauses) while `_count` is kept;
/// * `gca_soak_detection_latency_seconds` values are replaced with
///   `NORM` (the `_cycles` variant is deterministic and kept verbatim).
pub fn normalize_metrics(metrics: &str) -> String {
    let mut out = String::with_capacity(metrics.len());
    for line in metrics.lines() {
        if !line.starts_with('#') {
            let family = line.split(['{', ' ']).next().unwrap_or("");
            match family {
                "gca_gc_pause_seconds_bucket" | "gca_gc_pause_seconds_sum" => continue,
                "gca_gc_phase_seconds_total"
                | "gca_gc_worker_mark_seconds_total"
                | "gca_soak_detection_latency_seconds" => {
                    if let Some(at) = line.rfind(' ') {
                        out.push_str(&line[..at]);
                        out.push_str(" NORM\n");
                        continue;
                    }
                }
                _ => {}
            }
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizer_strips_time_families_only() {
        let metrics = "\
# HELP gca_gc_phase_seconds_total t\n\
gca_gc_phase_seconds_total{phase=\"mark\"} 0.123456\n\
gca_gc_pause_seconds_bucket{le=\"0.001\"} 3\n\
gca_gc_pause_seconds_sum 0.5\n\
gca_gc_pause_seconds_count 3\n\
gca_gc_cycles_total 7\n";
        let norm = normalize_metrics(metrics);
        assert!(norm.contains("gca_gc_phase_seconds_total{phase=\"mark\"} NORM\n"));
        assert!(!norm.contains("gca_gc_pause_seconds_bucket"));
        assert!(!norm.contains("gca_gc_pause_seconds_sum"));
        assert!(norm.contains("gca_gc_pause_seconds_count 3\n"));
        assert!(norm.contains("gca_gc_cycles_total 7\n"));
        assert!(norm.contains("# HELP gca_gc_phase_seconds_total t\n"));
    }

    #[test]
    fn report_verdicts() {
        let clean = ShardReport {
            shard: 0,
            scenario: "session-cache",
            requests: 100,
            gc_cycles: 5,
            minor_cycles: 10,
            violations: 0,
            drifting_keys: 0,
            slo_breaches: 0,
            p50_ns: 1,
            p99_ns: 2,
            mean_ns: 1,
            fault: None,
            detection: None,
            error: None,
        };
        let mut faulted = clean.clone();
        faulted.shard = 1;
        faulted.fault = Some(FaultKind::Leak);
        faulted.violations = 1;
        faulted.detection = Some(Detection {
            cycles: 1,
            wall_ns: 1_000,
        });
        let report = SoakReport {
            shards: vec![clean.clone(), faulted.clone()],
            wall_ms: 10,
        };
        assert!(report.passed());
        assert_eq!(report.false_positive_rate(), 0.0);

        // An undetected fault fails the run.
        let mut undetected = faulted.clone();
        undetected.detection = None;
        let report = SoakReport {
            shards: vec![clean.clone(), undetected],
            wall_ms: 10,
        };
        assert!(!report.passed());

        // A violating clean shard is a false positive and fails the run.
        let mut noisy = clean.clone();
        noisy.violations = 2;
        let report = SoakReport {
            shards: vec![clean, noisy],
            wall_ms: 10,
        };
        assert!((report.false_positive_rate() - 0.5).abs() < 1e-9);
        assert!(!report.passed());
    }

    #[test]
    fn bench_json_is_parseable_shape() {
        let report = SoakReport {
            shards: vec![ShardReport {
                shard: 0,
                scenario: "broker",
                requests: 42,
                gc_cycles: 3,
                minor_cycles: 6,
                violations: 0,
                drifting_keys: 0,
                slo_breaches: 1,
                p50_ns: 1023,
                p99_ns: 8191,
                mean_ns: 900,
                fault: Some(FaultKind::Drift),
                detection: Some(Detection {
                    cycles: 9,
                    wall_ns: 123,
                }),
                error: None,
            }],
            wall_ms: 77,
        };
        let json = report.to_json();
        assert!(json.starts_with("{\"bench\":\"soak\""));
        assert!(json.contains("\"fault\":\"drift\""));
        assert!(json.contains("\"detection\":{\"cycles\":9,\"wall_ns\":123}"));
        assert!(json.ends_with("]}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
