//! `soak_fleet`: the operator's path. `gca-soak` runs two shards (the
//! machine has two cores) under virtual pacing through one steady phase,
//! with telemetry and the heap census on (the shard default), one planted
//! `leak` and one planted `drift` fault, while the benchmark scrapes
//! `Fleet::metrics()` on a fixed interval the way a Prometheus server would.
//!
//! `ops` are requests; the run waits for the slower shard, so that shard's
//! collections are the ones `gc_s` reports.

use std::time::{Duration, Instant};

use gca_soak::{FaultKind, FaultPlan, Fleet, Pacing, Phase, ShardSnapshot, SoakConfig};
use gca_telemetry::export::records_to_jsonl;

use super::{Leg, Prepared, Rep, Scale};
use crate::rng::Rng;
use crate::trace::{Layer, Trace};

/// Shards, one thread each.
pub const SHARDS: usize = 2;
/// Requests per shard at full scale.
const FULL_REQUESTS: usize = 24_000;
/// Interval between two scrapes of the metrics plane.
const SCRAPE_EVERY: Duration = Duration::from_millis(50);
/// How often the fleet is asked whether it is done.
const POLL_EVERY: Duration = Duration::from_millis(2);

/// The generated fleet configuration.
#[derive(Debug)]
pub struct SoakFleet {
    config: SoakConfig,
    requests_per_shard: u64,
}

/// Builds the fleet configuration; the leak's position comes from the seed.
pub fn prepare(seed: u64, scale: Scale) -> Box<dyn Prepared> {
    let mut rng = Rng::new(seed, 0x50a6);
    let requests = scale.of(FULL_REQUESTS, 2_000);
    // A steady 1000 requests per virtual second: one per millisecond.
    let config = SoakConfig {
        shards: SHARDS,
        phases: vec![Phase::steady("steady", requests as u64, 1000.0)],
        pacing: Pacing::Virtual,
        // The leak's position is seeded. The drift fault's is not: its
        // hoard grows with every request until the census reports drift, so
        // how long detection takes decides how much the shard retains for
        // the rest of the run, and the scenarios' own transient drift flags
        // make that latency jump between 1 and 6 collections with the
        // position. A fixed position (and the library's default scenario
        // seed) keeps the work the same for every benchmark seed; the golden
        // counters pin the 6-collection window it is detected in.
        faults: vec![
            FaultPlan::new(
                0,
                FaultKind::Leak,
                rng.between(requests / 8, requests / 2) as u64,
            ),
            FaultPlan::new(1, FaultKind::Drift, requests as u64 / 2),
        ],
        ..SoakConfig::default()
    };
    let requests_per_shard = config.requests_per_shard() as u64;
    Box::new(SoakFleet {
        config,
        requests_per_shard,
    })
}

/// Which shards a scrape shows as finished.
fn done_flags(metrics: &str) -> [bool; SHARDS] {
    let mut done = [false; SHARDS];
    for line in metrics
        .lines()
        .filter(|l| l.starts_with("gca_soak_shard_done{"))
    {
        for (i, flag) in done.iter_mut().enumerate() {
            if line.contains(&format!("shard=\"{i}\"")) && line.ends_with(" 1") {
                *flag = true;
            }
        }
    }
    done
}

fn collector_ns(snap: &ShardSnapshot) -> u64 {
    snap.telemetry.records().iter().map(|r| r.total_ns).sum()
}

impl Prepared for SoakFleet {
    fn rep(&self, _leg: Leg, tr: &mut Trace) -> Rep {
        let mut rep = Rep::default();
        tr.enter("rep", Layer::Bench);
        let fleet_span = tr.enter("fleet", Layer::Soak);
        let started = Instant::now();
        let start_ns = tr.now_ns();
        let fleet = match Fleet::start(self.config.clone()) {
            Ok(f) => f,
            Err(e) => {
                rep.checks.check(false, || format!("Fleet::start: {e}"));
                tr.exit();
                tr.exit();
                return rep;
            }
        };

        // Scrape on an interval until every shard is done; note when each
        // shard was first seen finished.
        let mut finished_at = [None::<Duration>; SHARDS];
        let mut scrapes = Vec::new();
        let mut next_scrape = SCRAPE_EVERY;
        loop {
            let all_done = fleet.done();
            if all_done || started.elapsed() >= next_scrape {
                let t0 = tr.now_ns();
                let text = fleet.metrics();
                let t1 = tr.now_ns();
                scrapes.push(t1 - t0);
                if tr.on() {
                    let id = tr.leaf("scrape", Layer::Telemetry, t0, t1);
                    tr.mark_off_path(id);
                }
                let now = started.elapsed();
                for (slot, done) in finished_at.iter_mut().zip(done_flags(&text)) {
                    if done && slot.is_none() {
                        *slot = Some(now);
                    }
                }
                next_scrape = now + SCRAPE_EVERY;
            }
            if all_done {
                break;
            }
            std::thread::sleep(POLL_EVERY);
        }
        let snaps = fleet.snapshots();
        let report = fleet.wait();
        rep.run_ns = started.elapsed().as_nanos() as u64;
        let end_ns = tr.now_ns();
        tr.exit();
        tr.exit();

        let report = match report {
            Ok(r) => r,
            Err(e) => {
                rep.checks.check(false, || format!("Fleet::wait: {e}"));
                return rep;
            }
        };

        // The slower shard sets the run's length; its collections are the
        // run's `gc_s`. Shards seen finishing in the same scrape tie, and
        // the one that spent longer collecting is taken.
        let busy: Vec<Duration> = finished_at
            .iter()
            .map(|t| t.unwrap_or_else(|| started.elapsed()))
            .collect();
        let slowest = (0..SHARDS)
            .max_by_key(|&i| (busy[i], collector_ns(&snaps[i])))
            .expect("at least one shard");
        rep.gc_ns = collector_ns(&snaps[slowest]);
        rep.observe(
            "shard_busy_max_ns",
            busy.iter().max().map_or(0.0, |d| d.as_nanos() as f64),
        );
        rep.observe(
            "shard_busy_min_ns",
            busy.iter().min().map_or(0.0, |d| d.as_nanos() as f64),
        );
        rep.segments.push([rep.run_ns, rep.gc_ns]);
        rep.observe("scrape_ns", scrapes.iter().sum::<u64>() as f64);
        rep.observe("scrapes", scrapes.len() as f64);

        for (i, snap) in snaps.iter().enumerate() {
            let records = snap.telemetry.records();
            rep.pauses_ns.extend(records.iter().map(|r| r.total_ns));
            rep.counters.add("telemetry.records", records.len() as u64);
            rep.counters
                .add("collector.cycles", snap.telemetry.cycles());
            rep.counters
                .add("collector.minor.count", snap.telemetry.minor_cycles());
            for r in records {
                rep.counters.add("collector.mark.objects", r.objects_marked);
                rep.counters.add("collector.mark.edges", r.edges_traced);
                rep.counters.add("collector.sweep.objects", r.objects_swept);
                rep.counters.add("collector.sweep.words", r.words_swept);
                if i == slowest {
                    rep.observe("pre_root_ns", r.pre_root_ns as f64);
                    rep.observe("mark_ns", r.mark_ns as f64);
                    rep.observe("sweep_ns", r.sweep_ns as f64);
                    rep.observe("major_ns", r.total_ns as f64);
                }
            }
            if tr.on() {
                // The shard as a span, its collections laid end to end.
                let shard_end = start_ns + busy[i].as_nanos() as u64;
                let id = tr.leaf_under(
                    fleet_span,
                    "shard",
                    Layer::Soak,
                    start_ns,
                    shard_end.min(end_ns),
                );
                if i != slowest {
                    tr.mark_off_path(id);
                }
                let sum = |f: fn(&gca_telemetry::CycleRecord) -> u64| -> u64 {
                    records.iter().map(f).sum()
                };
                let total = sum(|r| r.total_ns).min(shard_end - start_ns);
                let gc =
                    tr.leaf_under(id, "collections", Layer::Core, shard_end - total, shard_end);
                let s = shard_end - total;
                let (pre, mark, sweep) = (
                    sum(|r| r.pre_root_ns),
                    sum(|r| r.mark_ns),
                    sum(|r| r.sweep_ns),
                );
                tr.leaf_under(gc, "pre_root", Layer::Core, s, s + pre);
                tr.leaf_under(gc, "mark", Layer::Collector, s + pre, s + pre + mark);
                tr.leaf_under(
                    gc,
                    "sweep",
                    Layer::Collector,
                    shard_end - sweep.min(total),
                    shard_end,
                );
                // What the JSONL exporter costs per record, off the clock.
                let t = Instant::now();
                let text = records_to_jsonl(records, None);
                rep.observe("jsonl_ns", t.elapsed().as_nanos() as f64);
                rep.observe("jsonl_records", records.len() as f64);
                std::hint::black_box(text);
            }
        }

        // Verdicts: every request served, each fault found, nothing else.
        let mut false_positives = 0u64;
        for shard in &report.shards {
            rep.ops += shard.requests;
            rep.checks.check(shard.error.is_none(), || {
                format!("shard {}: {:?}", shard.shard, shard.error)
            });
            rep.checks
                .check(shard.requests == self.requests_per_shard, || {
                    format!(
                        "shard {} served {} of {} requests",
                        shard.shard, shard.requests, self.requests_per_shard
                    )
                });
            let expected_violations = u64::from(shard.fault == Some(FaultKind::Leak));
            false_positives += shard.violations.abs_diff(expected_violations);
            if shard.fault != Some(FaultKind::Drift) {
                false_positives += shard.drifting_keys as u64;
            }
            match (shard.fault, shard.detection) {
                (Some(FaultKind::Leak), Some(d)) => {
                    rep.counters.add("soak.detect_cycles.leak", d.cycles);
                    rep.checks.check(d.cycles == 1, || {
                        format!("leak detected after {} collections, expected 1", d.cycles)
                    });
                }
                (Some(FaultKind::Drift), Some(d)) => {
                    rep.counters.add("soak.detect_cycles.drift", d.cycles);
                }
                (fault, detection) => rep.checks.check(false, || {
                    format!(
                        "shard {}: fault {fault:?}, detection {detection:?}",
                        shard.shard
                    )
                }),
            }
            rep.counters.add("core.violations.count", shard.violations);
        }
        rep.checks.check(false_positives == 0, || {
            format!("{false_positives} reports beyond the planted faults")
        });
        rep.counters.add("soak.false_positives", false_positives);
        rep.counters.add("soak.requests", rep.ops);
        rep.counters.max(
            "core.detect_cycles",
            report
                .shards
                .iter()
                .filter_map(|s| s.detection.map(|d| d.cycles))
                .max()
                .unwrap_or(0),
        );
        rep
    }
}
