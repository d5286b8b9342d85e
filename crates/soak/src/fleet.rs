//! Fleet orchestration: spawn one thread per shard, keep the
//! observability plane fed, merge the event logs, and produce the final
//! [`SoakReport`].

use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gca_telemetry::export::{
    escape_json, parse_jsonl, push_census_families, push_rows, push_telemetry_families, Family,
    Label, MetricType, Row, Seconds,
};

use crate::config::{Arrivals, SoakConfig};
use crate::fault::FaultInjector;
use crate::http::{HttpServer, HttpState};
use crate::report::SoakReport;
use crate::shard::{
    clone_snapshots, lock_snapshot, mark_panicked, run_isolated, run_shard, snapshot_slot,
    with_snapshots, ShardSnapshot, ShardTask,
};

/// A running soak fleet. Construct with [`Fleet::start`]; consume with
/// [`Fleet::wait`]. While running, [`Fleet::metrics`] renders the same
/// payload the HTTP plane serves on `/metrics`.
#[derive(Debug)]
pub struct Fleet {
    config: SoakConfig,
    snapshots: Vec<Arc<Mutex<ShardSnapshot>>>,
    handles: Vec<JoinHandle<()>>,
    http: Option<HttpServer>,
    started: Instant,
}

impl Fleet {
    /// Spawns the shard threads (and the HTTP server, when configured)
    /// and returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from binding the HTTP port, creating the
    /// JSONL directory, or spawning threads.
    pub fn start(config: SoakConfig) -> std::io::Result<Fleet> {
        if let Some(dir) = config.jsonl_dir.as_ref() {
            std::fs::create_dir_all(dir)?;
        }
        let snapshots: Vec<_> = (0..config.shards)
            .map(|i| snapshot_slot(&config, i))
            .collect();
        let started = Instant::now();

        let http = match config.http_port {
            Some(port) => Some(HttpServer::start(
                port,
                HttpState {
                    snapshots: snapshots.clone(),
                    slo_ns: config.slo_ns,
                    started,
                },
            )?),
            None => None,
        };

        let mut handles = Vec::with_capacity(config.shards);
        for (i, snapshot) in snapshots.iter().enumerate() {
            let task = ShardTask {
                shard: i as u64,
                kind: config.scenario_for(i),
                // Decorrelate shard RNG streams from one base seed.
                seed: config.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)),
                pacing: config.pacing,
                arrivals: Arrivals::new(&config.phases),
                slo_ns: config.slo_ns,
                fault: config.fault_for(i).map(|p| FaultInjector::new(*p)),
                snapshot: Arc::clone(snapshot),
                jsonl_path: config
                    .jsonl_dir
                    .as_ref()
                    .map(|d| d.join(format!("shard-{i}.jsonl"))),
            };
            let slot = Arc::clone(snapshot);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("gca-soak-shard-{i}"))
                    .spawn(move || run_isolated(&slot, || run_shard(task)))?,
            );
        }

        Ok(Fleet {
            config,
            snapshots,
            handles,
            http,
            started,
        })
    }

    /// The observability server's bound address, when one is running
    /// (with `http_port = Some(0)` this is where the ephemeral port
    /// shows up).
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        self.http.as_ref().map(|h| h.addr)
    }

    /// Clones the current per-shard snapshots, every recorded cycle
    /// included — O(history), for a caller that wants to own the data.
    /// [`Fleet::metrics`] and the HTTP plane render from the slots by
    /// reference instead.
    pub fn snapshots(&self) -> Vec<ShardSnapshot> {
        clone_snapshots(&self.snapshots)
    }

    /// `true` once every shard has finished its schedule.
    pub fn done(&self) -> bool {
        self.snapshots.iter().all(|s| lock_snapshot(s).done)
    }

    /// Renders the current `/metrics` payload.
    pub fn metrics(&self) -> String {
        with_snapshots(&self.snapshots, render_metrics)
    }

    /// Joins every shard, merges the per-shard JSONL logs into
    /// `fleet.jsonl`, writes `BENCH_soak.json` when configured, shuts
    /// the HTTP server down, and returns the report.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the log merge or the bench write.
    pub fn wait(mut self) -> std::io::Result<SoakReport> {
        for (h, slot) in self.handles.drain(..).zip(&self.snapshots) {
            // A shard's own unwind handler has already marked its slot;
            // a join error means that handler itself died.
            if let Err(payload) = h.join() {
                mark_panicked(slot, &*payload);
            }
        }
        let wall_ms = self.started.elapsed().as_millis() as u64;
        if let Some(dir) = self.config.jsonl_dir.as_ref() {
            merge_fleet_jsonl(dir, self.config.shards)?;
        }
        let report = with_snapshots(&self.snapshots, |snaps| {
            SoakReport::from_snapshots(snaps, wall_ms)
        });
        if let Some(path) = self.config.bench_out.as_ref() {
            report.write_bench(path)?;
        }
        if let Some(mut http) = self.http.take() {
            http.stop();
        }
        Ok(report)
    }
}

/// Runs a whole soak start-to-finish and returns the report.
///
/// # Errors
///
/// See [`Fleet::start`] and [`Fleet::wait`].
pub fn run_soak(config: SoakConfig) -> std::io::Result<SoakReport> {
    Fleet::start(config)?.wait()
}

/// Merges `shard-<i>.jsonl` files into one `fleet.jsonl`: every line kept
/// verbatim, ordered by `(seq, shard)` so interleaved fleet history reads
/// chronologically. A line the telemetry reader rejects (a short write)
/// has no `seq`; it follows every parsed line, in shard and file order.
fn merge_fleet_jsonl(dir: &std::path::Path, shards: usize) -> std::io::Result<()> {
    let mut lines: Vec<(Option<u64>, usize, String)> = Vec::new();
    for i in 0..shards {
        let path = dir.join(format!("shard-{i}.jsonl"));
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue; // a shard that never collected writes no file
        };
        for line in text.lines() {
            let seq = parse_jsonl(line)
                .ok()
                .and_then(|parsed| Some(parsed.first()?.record.seq));
            lines.push((seq, i, line.to_string()));
        }
    }
    lines.sort_by_key(|&(seq, shard, _)| (seq.is_none(), seq, shard));
    let mut out = String::with_capacity(lines.iter().map(|(_, _, l)| l.len() + 1).sum());
    for (_, _, line) in &lines {
        out.push_str(line);
        out.push('\n');
    }
    std::fs::write(dir.join("fleet.jsonl"), out)
}

/// Soak's families with one value per shard, under `shard` and `scenario`.
const SHARD_ROWS: [Row<ShardSnapshot>; 4] = [
    (
        "gca_soak_requests_total",
        "Requests served by each shard.",
        MetricType::Counter,
        |s| s.requests_done,
    ),
    (
        "gca_soak_slo_breaches_total",
        "Requests whose latency exceeded the configured SLO.",
        MetricType::Counter,
        |s| s.slo_breaches,
    ),
    (
        "gca_soak_assertion_violations_total",
        "GC assertion violations reported by each shard.",
        MetricType::Counter,
        |s| s.violations,
    ),
    (
        "gca_soak_shard_done",
        "1 once the shard finished its arrival schedule.",
        MetricType::Gauge,
        |s| u64::from(s.done),
    ),
];

/// The fault-injection markers, one value per faulted shard, under
/// `shard`, `scenario` and `fault`.
const FAULT_ROWS: [Row<ShardSnapshot>; 2] = [
    (
        "gca_soak_fault_armed",
        "1 once the planned fault was injected.",
        MetricType::Gauge,
        |s| u64::from(s.fault_armed),
    ),
    (
        "gca_soak_fault_detected",
        "1 once the fault's first matching report arrived.",
        MetricType::Gauge,
        |s| u64::from(s.detection.is_some()),
    ),
];

/// Renders the fleet `/metrics` payload: every telemetry and census
/// family with `shard` labels, plus the soak harness's own families
/// (request latency vs SLO, fault-injection detection).
pub(crate) fn render_metrics(snaps: &[&ShardSnapshot]) -> String {
    let mut out = String::with_capacity(4096 * snaps.len().max(1));
    // Each shard's labels in prefix order: telemetry and census take the
    // first, soak's own families two, the fault families all three.
    let labels: Vec<Vec<Label<'_>>> = snaps
        .iter()
        .map(|s| {
            let mut l: Vec<Label<'_>> = vec![("shard", &s.shard), ("scenario", &s.scenario)];
            if let Some(kind) = &s.fault {
                l.push(("fault", kind));
            }
            l
        })
        .collect();
    let shards = || snaps.iter().copied().zip(&labels);

    let telemetry: Vec<_> = shards().map(|(s, l)| (&l[..1], &s.telemetry)).collect();
    push_telemetry_families(&mut out, &telemetry);
    let census: Vec<_> = shards().map(|(s, l)| (&l[..1], &s.census)).collect();
    push_census_families(&mut out, &census);

    let own: Vec<_> = shards().map(|(s, l)| (&l[..2], s)).collect();
    push_rows(&mut out, &SHARD_ROWS, &own);
    let mut family = Family::start(
        &mut out,
        "gca_soak_request_latency_seconds",
        "Request latency from scheduled arrival to completion.",
        MetricType::Histogram,
    );
    for (prefix, s) in &own {
        family.histogram(prefix, &s.latency);
    }

    let faulted: Vec<_> = shards()
        .filter(|(s, _)| s.fault.is_some())
        .map(|(s, l)| (&l[..], s))
        .collect();
    if !faulted.is_empty() {
        push_rows(&mut out, &FAULT_ROWS, &faulted);
        let detected: Vec<_> = faulted
            .iter()
            .filter_map(|&(l, s)| Some((l, s.detection?)))
            .collect();
        let mut family = Family::start(
            &mut out,
            "gca_soak_detection_latency_cycles",
            "GC cycles from injection to detection.",
            MetricType::Gauge,
        );
        for (prefix, d) in &detected {
            family.sample(prefix, &[], d.cycles);
        }
        let mut family = Family::start(
            &mut out,
            "gca_soak_detection_latency_seconds",
            "Wall time from injection to detection.",
            MetricType::Gauge,
        );
        for (prefix, d) in &detected {
            family.sample(prefix, &[], Seconds(d.wall_ns));
        }
    }
    out
}

/// Renders the `/status` JSON payload.
pub(crate) fn render_status(snaps: &[&ShardSnapshot], slo_ns: u64, elapsed: Duration) -> String {
    let mut out = String::with_capacity(512 + snaps.len() * 256);
    out.push_str(&format!(
        "{{\"elapsed_ms\":{},\"slo_ns\":{slo_ns},\"shards\":[",
        elapsed.as_millis()
    ));
    for (i, s) in snaps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"shard\":{},\"scenario\":\"{}\",\"requests_done\":{},\"requests_total\":{},\
             \"gc_cycles\":{},\"minor_cycles\":{},\"violations\":{},\"drifting_keys\":{},\
             \"slo_breaches\":{},\"latency_p50_ns\":{},\"latency_p99_ns\":{}",
            s.shard,
            s.scenario,
            s.requests_done,
            s.requests_total,
            s.telemetry.cycles(),
            s.telemetry.minor_cycles(),
            s.violations,
            s.drifting_keys,
            s.slo_breaches,
            s.latency.quantile_ns(50),
            s.latency.quantile_ns(99),
        ));
        match s.fault {
            Some(kind) => {
                out.push_str(&format!(
                    ",\"fault\":\"{}\",\"fault_armed\":{}",
                    kind.label(),
                    s.fault_armed
                ));
                match s.detection {
                    Some(d) => out.push_str(&format!(
                        ",\"detection\":{{\"cycles\":{},\"wall_ns\":{}}}",
                        d.cycles, d.wall_ns
                    )),
                    None => out.push_str(",\"detection\":null"),
                }
            }
            None => out.push_str(",\"fault\":null"),
        }
        for (name, value) in &s.counters {
            out.push_str(&format!(",\"{name}\":{value}"));
        }
        out.push_str(&format!(
            ",\"clean\":{},\"done\":{},\"error\":",
            s.is_clean(),
            s.done
        ));
        match &s.error {
            Some(e) => escape_json(e, &mut out),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_jsonl_merge_keeps_lines_verbatim_in_seq_shard_order() {
        use gca_telemetry::export::records_to_jsonl_tagged;
        use gca_telemetry::CycleRecord;

        let dir = std::env::temp_dir().join(format!("gca-soak-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let records = |seqs: &[u64], shard| {
            let records: Vec<_> = seqs
                .iter()
                .map(|&seq| CycleRecord {
                    seq,
                    ..Default::default()
                })
                .collect();
            records_to_jsonl_tagged(&records, Some("soak"), Some(shard))
        };
        // Each shard's file ends in a short write the reader rejects; the
        // second one's `"seq":` digits must not decide its place.
        let shard0 = records(&[1, 3], 0) + "{\"bench\":\"soak\",\"shard\":0,\"se\n";
        let shard1 = records(&[1, 2], 1) + "{\"shard\":1,\"seq\":0,\"kind\":\"maj\n";
        std::fs::write(dir.join("shard-0.jsonl"), &shard0).unwrap();
        std::fs::write(dir.join("shard-1.jsonl"), &shard1).unwrap();

        merge_fleet_jsonl(&dir, 3).unwrap(); // shard 2 wrote no file
        let merged = std::fs::read_to_string(dir.join("fleet.jsonl")).unwrap();
        let (l0, l1): (Vec<_>, Vec<_>) = (shard0.lines().collect(), shard1.lines().collect());
        let want = [l0[0], l1[0], l1[1], l0[1], l0[2], l1[2]];
        assert_eq!(merged, want.map(|l| format!("{l}\n")).concat());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicked_shard_fails_the_report() {
        let config = SoakConfig::smoke();
        let snapshots: Vec<_> = (0..config.shards)
            .map(|i| snapshot_slot(&config, i))
            .collect();
        // Shard 0 finishes clean; shard 1 dies after ten requests without
        // ever setting `done` or `error`.
        let (clean, dying) = (Arc::clone(&snapshots[0]), Arc::clone(&snapshots[1]));
        let handles = vec![
            std::thread::spawn(move || clean.lock().unwrap().done = true),
            std::thread::spawn(move || {
                dying.lock().unwrap().requests_done = 10;
                panic!("boom");
            }),
        ];
        let fleet = Fleet {
            config,
            snapshots,
            handles,
            http: None,
            started: Instant::now(),
        };
        let report = fleet.wait().unwrap();
        assert!(!report.passed());
        assert!(report.shards[0].error.is_none());
        assert_eq!(
            report.shards[1].error.as_deref(),
            Some("shard panicked: boom")
        );
    }

    #[test]
    fn a_panicking_shard_is_reported_before_it_is_joined() {
        let config = SoakConfig::smoke();
        let snapshots: Vec<_> = (0..config.shards)
            .map(|i| snapshot_slot(&config, i))
            .collect();
        let http = HttpServer::start(
            0,
            HttpState {
                snapshots: snapshots.clone(),
                slo_ns: config.slo_ns,
                started: Instant::now(),
            },
        )
        .unwrap();
        // Shard 0 finishes clean; shard 1 dies mid-run inside the isolated
        // body, as `Fleet::start` runs `run_shard`.
        let (clean, dying) = (Arc::clone(&snapshots[0]), Arc::clone(&snapshots[1]));
        let handles = vec![
            std::thread::spawn(move || {
                run_isolated(&clean, || lock_snapshot(&clean).done = true);
            }),
            std::thread::spawn(move || {
                run_isolated(&dying, || {
                    lock_snapshot(&dying).requests_done = 10;
                    panic!("boom");
                });
            }),
        ];
        let fleet = Fleet {
            config,
            snapshots,
            handles,
            http: Some(http),
            started: Instant::now(),
        };

        // What the benchmark and `gca soak` poll; nothing has joined yet.
        let polling = Instant::now();
        while !fleet.done() {
            assert!(
                polling.elapsed() < Duration::from_secs(10),
                "a panicked shard must turn done() true on its own"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let get = |path: &str| {
            let request = format!("GET {path} HTTP/1.1\r\n\r\n");
            crate::http::exchange(fleet.http_addr().unwrap(), request.as_bytes())
        };
        assert!(get("/healthz").starts_with("HTTP/1.1 503 "));
        assert!(get("/metrics").starts_with("HTTP/1.1 200 "));
        assert!(get("/status").contains("\"error\":\"shard panicked: boom\""));

        let report = fleet.wait().unwrap();
        assert!(!report.passed());
        assert_eq!(
            report.shards[1].error.as_deref(),
            Some("shard panicked: boom")
        );
        assert_eq!(report.shards[1].requests, 10);
    }
}
