//! One shard: a VM plus a scenario, driven through the open-loop
//! arrival schedule on its own thread, publishing snapshots for the
//! observability plane.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use gc_assertions::{Vm, VmConfig};
use gca_telemetry::{GcTelemetry, HeapCensus, LatencyHistogram};
use gca_workloads::scenario::ScenarioKind;

use crate::config::{Arrivals, Pacing, SoakConfig, GC_PENALTY_NS, SERVICE_NS};
use crate::fault::{Detection, FaultInjector, FaultKind};

/// How often (in served requests) a shard republishes its snapshot.
const PUBLISH_EVERY: u64 = 32;

/// The state a shard exposes to the observability plane: a copy of its
/// VM's recorders, complete history included, plus the harness's own
/// counters. The shard thread owns its VM outright and brings the copy
/// forward every `PUBLISH_EVERY` requests with `catch_up`, so a publish
/// costs the cycles recorded since the last one, not the history; after
/// every publish `telemetry == *vm.telemetry()` and
/// `census == *vm.census()`. Scrapes render from the slot by reference
/// under its lock (`with_snapshots`) and never touch the VM; only
/// [`Fleet::snapshots`](crate::Fleet::snapshots) clones one.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: u64,
    /// Scenario label this shard runs.
    pub scenario: &'static str,
    /// Requests served so far.
    pub requests_done: u64,
    /// Total scheduled requests.
    pub requests_total: u64,
    /// Telemetry snapshot (cycles, phases, overhead, pauses).
    pub telemetry: GcTelemetry,
    /// Census snapshot (per-class/site live histograms, drifts).
    pub census: HeapCensus,
    /// Request-latency histogram (completion − scheduled arrival).
    pub latency: LatencyHistogram,
    /// Latency samples above the configured SLO.
    pub slo_breaches: u64,
    /// Assertion violations reported so far.
    pub violations: u64,
    /// Census drift reports currently active.
    pub drifting_keys: usize,
    /// Scenario counters (hits/misses, produced/consumed, ...).
    pub counters: Vec<(&'static str, u64)>,
    /// The fault planned for this shard, if any.
    pub fault: Option<FaultKind>,
    /// Whether the planned fault has been injected yet.
    pub fault_armed: bool,
    /// Detection record, once the fault was reported.
    pub detection: Option<Detection>,
    /// The shard finished its schedule.
    pub done: bool,
    /// Set when the shard died: on a VM error (by the shard itself) or by
    /// panicking (by its thread's unwind handler, `run_isolated`).
    pub error: Option<String>,
}

impl ShardSnapshot {
    fn new(shard: u64, scenario: &'static str, requests_total: u64) -> ShardSnapshot {
        ShardSnapshot {
            shard,
            scenario,
            requests_done: 0,
            requests_total,
            telemetry: GcTelemetry::default(),
            census: HeapCensus::default(),
            latency: LatencyHistogram::new(),
            slo_breaches: 0,
            violations: 0,
            drifting_keys: 0,
            counters: Vec::new(),
            fault: None,
            fault_armed: false,
            detection: None,
            done: false,
            error: None,
        }
    }

    /// `true` when the shard has neither violations nor active drift —
    /// the state every *clean* shard must end a soak in.
    pub(crate) fn is_clean(&self) -> bool {
        self.violations == 0 && self.drifting_keys == 0
    }
}

/// Everything a shard thread needs to run.
pub(crate) struct ShardTask {
    pub shard: u64,
    pub kind: ScenarioKind,
    pub seed: u64,
    pub pacing: Pacing,
    pub arrivals: Arrivals,
    pub slo_ns: u64,
    pub fault: Option<FaultInjector>,
    pub snapshot: Arc<Mutex<ShardSnapshot>>,
    /// Stream this shard's cycle records here as JSONL, when set.
    pub jsonl_path: Option<std::path::PathBuf>,
}

/// Creates the published snapshot slot for a shard before its thread
/// starts, so the observability plane has a full fleet view immediately.
pub(crate) fn snapshot_slot(config: &SoakConfig, shard: usize) -> Arc<Mutex<ShardSnapshot>> {
    let kind = config.scenario_for(shard);
    let mut snap = ShardSnapshot::new(
        shard as u64,
        kind.label(),
        config.requests_per_shard() as u64,
    );
    snap.fault = config.fault_for(shard).map(|f| f.kind);
    Arc::new(Mutex::new(snap))
}

/// Locks a published snapshot, recovering the guard when a shard thread
/// panicked while holding it. Every field is a plain value overwritten
/// whole, or a recorder copy whose interrupted `catch_up` the next call
/// completes, so an interrupted publish leaves the slot stale, never
/// invalid — and the observability plane must outlive a dying shard.
pub(crate) fn lock_snapshot(slot: &Mutex<ShardSnapshot>) -> MutexGuard<'_, ShardSnapshot> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` over every slot by reference, all locked (in shard order) for
/// the duration. What a scrape uses: the hold time is one render — bounded
/// by the number of metric families, classes and sites — and nothing is
/// copied.
pub(crate) fn with_snapshots<R>(
    slots: &[Arc<Mutex<ShardSnapshot>>],
    f: impl FnOnce(&[&ShardSnapshot]) -> R,
) -> R {
    let guards: Vec<_> = slots.iter().map(|s| lock_snapshot(s)).collect();
    let snaps: Vec<&ShardSnapshot> = guards.iter().map(|g| &**g).collect();
    f(&snaps)
}

/// Clones the current state of every slot, history and all — the one
/// deliberate O(history) copy, for a caller that wants to own the data.
pub(crate) fn clone_snapshots(slots: &[Arc<Mutex<ShardSnapshot>>]) -> Vec<ShardSnapshot> {
    slots.iter().map(|s| lock_snapshot(s).clone()).collect()
}

/// The shard thread's entry point: runs `body` and, if it unwinds, marks
/// the slot dead at once, so `/healthz` and
/// [`Fleet::done`](crate::Fleet::done) learn of the panic when it happens,
/// not when the thread is joined.
pub(crate) fn run_isolated(slot: &Mutex<ShardSnapshot>, body: impl FnOnce()) {
    // The body's state dies with it; only the slot is looked at again, and
    // `lock_snapshot` states why that one stays valid.
    if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        mark_panicked(slot, &*payload);
    }
}

/// Records a shard's death by panic in its slot: `error = "shard panicked:
/// <message>"`, `done = true`.
pub(crate) fn mark_panicked(slot: &Mutex<ShardSnapshot>, payload: &(dyn std::any::Any + Send)) {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".to_owned());
    let mut snap = lock_snapshot(slot);
    snap.error = Some(format!("shard panicked: {message}"));
    snap.done = true;
}

/// The shard thread body: builds the VM, runs setup, then serves the
/// arrival schedule, measuring latency and watching for its fault.
pub(crate) fn run_shard(mut task: ShardTask) {
    let mut scenario = task.kind.build(task.seed);
    let config = VmConfig::builder()
        .heap_budget(scenario.heap_budget())
        .grow_on_oom(true)
        .telemetry(true)
        .census(true)
        .shard(task.shard)
        .build();
    let mut vm = Vm::new(config);

    if let Err(e) = scenario.setup(&mut vm, true) {
        let mut snap = lock_snapshot(&task.snapshot);
        snap.error = Some(format!("setup: {e}"));
        snap.done = true;
        return;
    }

    let started = Instant::now();
    let mut latency = LatencyHistogram::new();
    let mut slo_breaches = 0u64;
    let mut violations = 0u64;
    let mut requests_done = 0u64;
    // Virtual-pacing server model: the instant the server frees up.
    let mut busy_until_ns = 0u64;
    let mut last_cycles = vm.collections();
    let mut records_streamed = 0usize;

    let arrivals: Vec<u64> = task.arrivals.clone().collect();
    for &arrival_ns in &arrivals {
        // Open loop: wall pacing waits for the scheduled arrival (never
        // for the previous completion); virtual pacing just advances the
        // model clock.
        if task.pacing == Pacing::Wall {
            let now = started.elapsed().as_nanos() as u64;
            if now < arrival_ns {
                std::thread::sleep(std::time::Duration::from_nanos(arrival_ns - now));
            }
        }

        if let Err(e) = scenario.request(&mut vm, true) {
            let mut snap = lock_snapshot(&task.snapshot);
            snap.error = Some(format!("request {requests_done}: {e}"));
            break;
        }
        requests_done += 1;
        if let Some(inj) = task.fault.as_mut() {
            if let Err(e) = inj.after_request(&mut vm, requests_done) {
                let mut snap = lock_snapshot(&task.snapshot);
                snap.error = Some(format!("fault injection: {e}"));
                break;
            }
        }

        // Latency: completion minus *scheduled* arrival, so queueing
        // delay (from GC pauses or a spike outrunning the server) counts.
        let sample_ns = match task.pacing {
            Pacing::Wall => (started.elapsed().as_nanos() as u64).saturating_sub(arrival_ns),
            Pacing::Virtual => {
                let gc_delta = vm.collections() - last_cycles;
                let service = SERVICE_NS + gc_delta * GC_PENALTY_NS;
                busy_until_ns = busy_until_ns.max(arrival_ns) + service;
                busy_until_ns - arrival_ns
            }
        };
        latency.record_ns(sample_ns);
        if sample_ns > task.slo_ns {
            slo_breaches += 1;
        }

        // Observe: drain new violations and ask the census, through the
        // borrow, whether anything drifts (the set only changes at a
        // collection; reading it copies nothing).
        let drained = vm.take_violation_log();
        violations += drained.len() as u64;
        if let Some(inj) = task.fault.as_mut() {
            inj.observe(&vm, &drained, !vm.census().drifts().is_empty());
        }
        last_cycles = vm.collections();

        if requests_done.is_multiple_of(PUBLISH_EVERY) {
            publish(
                &task,
                &vm,
                scenario.counters(),
                &latency,
                slo_breaches,
                violations,
                requests_done,
                false,
            );
            stream_jsonl(&task, &vm, &mut records_streamed);
        }
    }

    // Settle: one final collection so end-of-run assertions (evictions,
    // acks, a just-armed fault) get their verdict, then publish.
    if vm.collect().is_ok() {
        let drained = vm.take_violation_log();
        violations += drained.len() as u64;
        if let Some(inj) = task.fault.as_mut() {
            inj.observe(&vm, &drained, !vm.census().drifts().is_empty());
        }
    }
    publish(
        &task,
        &vm,
        scenario.counters(),
        &latency,
        slo_breaches,
        violations,
        requests_done,
        true,
    );
    stream_jsonl(&task, &vm, &mut records_streamed);
}

/// Appends the cycle records produced since the last call to the shard's
/// JSONL file, each line tagged with the scenario label and shard index.
fn stream_jsonl(task: &ShardTask, vm: &Vm, streamed: &mut usize) {
    use std::io::Write as _;
    let Some(path) = task.jsonl_path.as_ref() else {
        return;
    };
    let records = vm.telemetry().records();
    if records.len() <= *streamed {
        return;
    }
    let chunk = gca_telemetry::export::records_to_jsonl_tagged(
        &records[*streamed..],
        Some(task.kind.label()),
        Some(task.shard),
    );
    *streamed = records.len();
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = f.write_all(chunk.as_bytes());
    }
}

#[allow(clippy::too_many_arguments)]
fn publish(
    task: &ShardTask,
    vm: &Vm,
    counters: Vec<(&'static str, u64)>,
    latency: &LatencyHistogram,
    slo_breaches: u64,
    violations: u64,
    requests_done: u64,
    done: bool,
) {
    let mut snap = lock_snapshot(&task.snapshot);
    snap.requests_done = requests_done;
    snap.telemetry.catch_up(vm.telemetry());
    snap.census.catch_up(vm.census());
    snap.drifting_keys = snap.census.drifts().len();
    snap.latency = latency.clone();
    snap.slo_breaches = slo_breaches;
    snap.violations = violations;
    snap.counters = counters;
    if let Some(inj) = task.fault.as_ref() {
        snap.fault_armed = inj.armed();
        snap.detection = inj.detection();
    }
    snap.done = done;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_publish_leaves_the_slot_equal_to_the_recorders() {
        let config = SoakConfig::smoke();
        let slot = snapshot_slot(&config, 0);
        let task = ShardTask {
            shard: 0,
            kind: config.scenario_for(0),
            seed: config.seed,
            pacing: config.pacing,
            arrivals: Arrivals::new(&config.phases),
            slo_ns: config.slo_ns,
            fault: None,
            snapshot: Arc::clone(&slot),
            jsonl_path: None,
        };
        let mut scenario = task.kind.build(task.seed);
        let mut vm = Vm::new(
            VmConfig::builder()
                .heap_budget(scenario.heap_budget())
                .grow_on_oom(true)
                .telemetry(true)
                .census(true)
                .build(),
        );
        scenario.setup(&mut vm, true).unwrap();

        // Publish off the collection grid, so one publish sees no new
        // cycle, the next one, the next several.
        let latency = LatencyHistogram::new();
        let (mut idle, mut behind_by_several) = (0, 0);
        for served in 1..=900u64 {
            scenario.request(&mut vm, true).unwrap();
            if served.is_multiple_of(40) {
                vm.collect().unwrap();
            }
            if served.is_multiple_of(7) && served % 300 < 150 {
                let had = lock_snapshot(&slot).telemetry.records().len();
                publish(
                    &task,
                    &vm,
                    scenario.counters(),
                    &latency,
                    0,
                    0,
                    served,
                    false,
                );
                let snap = lock_snapshot(&slot);
                assert_eq!(snap.telemetry, *vm.telemetry());
                assert_eq!(snap.census, *vm.census());
                assert_eq!(snap.drifting_keys, vm.census().drifts().len());
                match snap.telemetry.records().len() - had {
                    0 => idle += 1,
                    1 => {}
                    _ => behind_by_several += 1,
                }
            }
        }
        assert!(
            idle > 0 && behind_by_several > 0,
            "{idle} {behind_by_several}"
        );
        assert!(vm.telemetry().records().len() as u64 >= 900 / 40);
    }
}
