//! # gca-bench — figure and table regeneration
//!
//! Programmatic versions of every figure in the paper's evaluation
//! (§3.1), shared by the `figures` binary, the Criterion benches, and the
//! smoke tests:
//!
//! * [`figure1`] — the full-path warning for a reachable asserted-dead
//!   `Order` (Figure 1);
//! * [`figures_2_3`] — Base vs Infrastructure total-time and GC-time
//!   overheads across the 19-benchmark suite (Figures 2 and 3);
//! * [`figures_4_5`] — Base vs Infrastructure vs WithAssertions for
//!   `_209_db` and pseudojbb (Figures 4 and 5);
//! * [`ablation_path_tracking`] — cost of the path-tracking worklist
//!   alone (ours);
//! * [`ablation_census`] — mark-time cost of the heap census
//!   accumulators, on vs off (ours);
//! * [`suite_jsonl`] — the per-benchmark telemetry export, optionally
//!   with per-class/per-site census fields on every cycle record (ours);
//! * [`baseline_eager`] — eager (JML-style) invariant checking vs GC
//!   assertions on the same ownership property (ours, quantifying §4.1's
//!   10×–100× claim);
//! * [`baseline_detectors`] — precision of the heuristic detectors vs GC
//!   assertions on a planted leak (ours).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use gc_assertions::{CollectorKind, ViolationKind, Vm, VmConfig};
use gca_detectors::{CorkDetector, EagerOwnershipChecker, StalenessDetector};
use gca_workloads::db::Db209;
use gca_workloads::pseudojbb::PseudoJbb;
use gca_workloads::runner::{
    geomean_overhead_percent, overhead_percent, run_once, run_once_vm, ExpConfig, Measurement,
    Workload,
};
use gca_workloads::suite;

/// Mean and 90% confidence half-interval of a sample of durations — the
/// paper's figures carry 90% confidence error bars (§3.1.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleStats {
    /// Sample mean.
    pub mean: Duration,
    /// Half-width of the 90% confidence interval of the mean (normal
    /// approximation, z = 1.645; adequate for the ~10-sample runs here).
    pub ci90_half: Duration,
}

/// Computes [`SampleStats`] for a duration sample.
pub fn sample_stats(xs: &[Duration]) -> SampleStats {
    if xs.is_empty() {
        return SampleStats::default();
    }
    let n = xs.len() as f64;
    let mean = xs.iter().map(Duration::as_secs_f64).sum::<f64>() / n;
    let var = xs
        .iter()
        .map(|x| {
            let d = x.as_secs_f64() - mean;
            d * d
        })
        .sum::<f64>()
        / (n - 1.0).max(1.0);
    let se = (var / n).sqrt();
    SampleStats {
        mean: Duration::from_secs_f64(mean),
        ci90_half: Duration::from_secs_f64(1.645 * se),
    }
}

/// One row of Figures 2/3: a benchmark measured under Base and
/// Infrastructure.
#[derive(Debug, Clone)]
pub struct InfraRow {
    /// Benchmark name.
    pub name: String,
    /// Base measurement (median run).
    pub base: Measurement,
    /// Infrastructure measurement (median run).
    pub infra: Measurement,
    /// Total-time statistics across the Base repetitions.
    pub base_stats: SampleStats,
    /// Total-time statistics across the Infrastructure repetitions.
    pub infra_stats: SampleStats,
}

impl InfraRow {
    /// Total-time overhead in percent (Figure 2).
    pub fn total_overhead(&self) -> f64 {
        overhead_percent(self.base.total, self.infra.total)
    }

    /// GC-time overhead in percent (Figure 3).
    pub fn gc_overhead(&self) -> f64 {
        overhead_percent(self.base.gc, self.infra.gc)
    }

    /// Mutator-time overhead in percent.
    pub fn mutator_overhead(&self) -> f64 {
        overhead_percent(self.base.mutator, self.infra.mutator)
    }
}

/// One row of Figures 4/5: a benchmark under all three configurations.
#[derive(Debug, Clone)]
pub struct AssertRow {
    /// Benchmark name.
    pub name: String,
    /// Base measurement.
    pub base: Measurement,
    /// Infrastructure measurement.
    pub infra: Measurement,
    /// WithAssertions measurement.
    pub with: Measurement,
    /// Total-time statistics across the Base repetitions.
    pub base_stats: SampleStats,
    /// Total-time statistics across the WithAssertions repetitions.
    pub with_stats: SampleStats,
}

impl AssertRow {
    /// Total-time overhead of WithAssertions vs Base, percent (Figure 4).
    pub fn total_overhead(&self) -> f64 {
        overhead_percent(self.base.total, self.with.total)
    }

    /// GC-time overhead of WithAssertions vs Base, percent (Figure 5).
    pub fn gc_overhead(&self) -> f64 {
        overhead_percent(self.base.gc, self.with.gc)
    }
}

/// Scales a suite workload's iteration count (for fast smoke runs).
fn scaled(mut w: suite::SyntheticWorkload, scale: f64) -> suite::SyntheticWorkload {
    w.iterations = ((w.iterations as f64 * scale) as usize).max(2);
    w
}

fn scaled_jbb(scale: f64) -> PseudoJbb {
    let mut jbb = PseudoJbb::for_figures();
    jbb.transactions = ((jbb.transactions as f64 * scale) as usize).max(100);
    jbb
}

fn scaled_db(scale: f64) -> Db209 {
    let mut db = Db209::default();
    db.operations = ((db.operations as f64 * scale) as usize).max(100);
    db.initial_entries = ((db.initial_entries as f64 * scale.max(0.3)) as usize).max(100);
    db
}

/// GC time of one run of `w` under `exp`, with `cfg` used as given.
fn run_gc_time(w: &dyn Workload, exp: ExpConfig, cfg: VmConfig) -> Duration {
    run_once_vm(w, exp, cfg).expect("runs").0.gc
}

/// Regenerates Figure 1: runs the buggy pseudojbb with `assert_dead`
/// instrumentation and returns the first dead-reachable report, whose
/// path runs `Company -> … -> longBTree -> longBTreeNode -> … -> Order`.
pub fn figure1() -> String {
    let jbb = PseudoJbb::buggy_with_dead_asserts();
    let mut vm = Vm::new(VmConfig::builder().heap_budget(jbb.heap_budget()).build());
    jbb.run(&mut vm, true).expect("pseudojbb runs");
    let _ = vm.collect();
    let log = vm.take_violation_log();
    let interesting = log
        .iter()
        .filter(|v| matches!(&v.kind, ViolationKind::DeadReachable { class_name, .. } if class_name == "Order"))
        .find(|v| v.path.passes_through(vm.registry(), "longBTreeNode"));
    match interesting.or_else(|| {
        log.iter()
            .find(|v| matches!(v.kind, ViolationKind::DeadReachable { .. }))
    }) {
        Some(v) => v.render(vm.registry()),
        None => "no violation detected (unexpected)".to_owned(),
    }
}

/// Measures `workload` under each configuration with one warmup run and
/// the per-config runs interleaved round-robin, so allocator/cache drift
/// over the process lifetime affects every configuration equally. Returns
/// the median run per configuration.
fn measure_interleaved(
    workload: &dyn Workload,
    configs: &[ExpConfig],
    reps: usize,
) -> Vec<(Measurement, SampleStats)> {
    let _warmup = run_once(workload, configs[0]).expect("workload runs");
    let mut per_config: Vec<Vec<Measurement>> = vec![Vec::new(); configs.len()];
    for _ in 0..reps.max(1) {
        for (i, &cfg) in configs.iter().enumerate() {
            per_config[i].push(run_once(workload, cfg).expect("workload runs"));
        }
    }
    per_config
        .into_iter()
        .map(|mut runs| {
            let totals: Vec<Duration> = runs.iter().map(|r| r.total).collect();
            let stats = sample_stats(&totals);
            runs.sort_by_key(|r| r.total);
            (runs.swap_remove(runs.len() / 2), stats)
        })
        .collect()
}

/// Regenerates the data behind Figures 2 and 3: every suite benchmark
/// plus pseudojbb, measured under Base and Infrastructure (interleaved;
/// medians of `reps` runs). `scale` shrinks iteration counts.
pub fn figures_2_3(reps: usize, scale: f64) -> Vec<InfraRow> {
    let configs = [ExpConfig::Base, ExpConfig::Infrastructure];
    let mut rows = Vec::new();
    for w in suite::full_suite() {
        let w = scaled(w, scale);
        let mut ms = measure_interleaved(&w, &configs, reps);
        let (infra, infra_stats) = ms.pop().expect("two configs");
        let (base, base_stats) = ms.pop().expect("two configs");
        rows.push(InfraRow {
            name: w.name().to_owned(),
            base,
            infra,
            base_stats,
            infra_stats,
        });
    }
    let jbb = scaled_jbb(scale);
    let mut ms = measure_interleaved(&jbb, &configs, reps);
    let (infra, infra_stats) = ms.pop().expect("two configs");
    let (base, base_stats) = ms.pop().expect("two configs");
    rows.push(InfraRow {
        name: jbb.name().to_owned(),
        base,
        infra,
        base_stats,
        infra_stats,
    });
    rows
}

/// Regenerates the data behind Figures 4 and 5: `_209_db` and pseudojbb
/// with real assertion loads, under all three configurations.
pub fn figures_4_5(reps: usize, scale: f64) -> Vec<AssertRow> {
    let configs = [
        ExpConfig::Base,
        ExpConfig::Infrastructure,
        ExpConfig::WithAssertions,
    ];
    let db = scaled_db(scale);
    let jbb = scaled_jbb(scale);
    let mut rows = Vec::new();
    for w in [&db as &dyn Workload, &jbb as &dyn Workload] {
        let mut ms = measure_interleaved(w, &configs, reps);
        let (with, with_stats) = ms.pop().expect("three configs");
        let (infra, _) = ms.pop().expect("three configs");
        let (base, base_stats) = ms.pop().expect("three configs");
        rows.push(AssertRow {
            name: w.name().to_owned(),
            base,
            infra,
            with,
            base_stats,
            with_stats,
        });
    }
    rows
}

/// Runs the whole suite once with telemetry recording enabled and returns
/// the per-benchmark JSON-lines export: every DaCapo/SPECjvm98 analogue
/// under the Infrastructure configuration, plus `_209_db` and pseudojbb
/// under WithAssertions (so the artifact carries non-zero per-assertion
/// overhead attribution). One record per GC cycle, tagged with the
/// benchmark name. `scale` shrinks iteration counts as for the figures;
/// `tweak` adjusts each run's VM configuration — `figures --census` turns
/// the heap census on, `--collector copying` picks the backend (the
/// copying engine observes the census at evacuation time, so its
/// per-class tallies are bit-identical to mark-sweep's).
pub fn suite_jsonl(scale: f64, tweak: impl Fn(VmConfig) -> VmConfig) -> String {
    let workloads: Vec<suite::SyntheticWorkload> = suite::full_suite()
        .into_iter()
        .map(|w| scaled(w, scale))
        .collect();
    let workloads: Vec<&dyn Workload> = workloads.iter().map(|w| w as &dyn Workload).collect();
    let (db, jbb) = (scaled_db(scale), scaled_jbb(scale));
    let mut out = suite::suite_jsonl(&workloads, ExpConfig::Infrastructure, &tweak)
        .expect("suite workloads are infallible");
    out.push_str(
        &suite::suite_jsonl(&[&db, &jbb], ExpConfig::WithAssertions, &tweak)
            .expect("case-study workloads are infallible"),
    );
    out
}

/// Geometric-mean overheads across Figure 2/3 rows:
/// `(total%, mutator%, gc%)` — the paper reports +2.75%, +1.12%, +13.36%.
pub fn summarize_infra(rows: &[InfraRow]) -> (f64, f64, f64) {
    let total: Vec<_> = rows.iter().map(|r| (r.base.total, r.infra.total)).collect();
    let mutator: Vec<_> = rows
        .iter()
        .map(|r| (r.base.mutator, r.infra.mutator))
        .collect();
    let gc: Vec<_> = rows.iter().map(|r| (r.base.gc, r.infra.gc)).collect();
    (
        geomean_overhead_percent(&total),
        geomean_overhead_percent(&mutator),
        geomean_overhead_percent(&gc),
    )
}

/// One row of the path-tracking ablation: Infrastructure with and without
/// the path-tracking worklist.
#[derive(Debug, Clone)]
pub struct PathAblationRow {
    /// Benchmark name.
    pub name: String,
    /// GC time with the plain worklist (checks only).
    pub gc_plain: Duration,
    /// GC time with the path-tracking worklist.
    pub gc_paths: Duration,
}

/// Ablation A: isolates the cost of the path-tracking worklist by running
/// the infrastructure configuration with paths on vs off.
pub fn ablation_path_tracking(reps: usize, scale: f64, take: usize) -> Vec<PathAblationRow> {
    let mut rows = Vec::new();
    for w in suite::full_suite().into_iter().take(take) {
        let w = scaled(w, scale);
        let base_cfg = VmConfig::builder()
            .heap_budget(w.heap_budget())
            .grow_on_oom(true)
            .build();
        let mut plain = Vec::new();
        let mut paths = Vec::new();
        for _ in 0..reps.max(1) {
            plain.push(run_gc_time(
                &w,
                ExpConfig::Infrastructure,
                base_cfg.clone().path_tracking(false),
            ));
            paths.push(run_gc_time(
                &w,
                ExpConfig::Infrastructure,
                base_cfg.clone().path_tracking(true),
            ));
        }
        plain.sort();
        paths.sort();
        rows.push(PathAblationRow {
            name: w.name().to_owned(),
            gc_plain: plain[plain.len() / 2],
            gc_paths: paths[paths.len() / 2],
        });
    }
    rows
}

/// One row of the census ablation: Infrastructure with and without the
/// heap census accumulators.
#[derive(Debug, Clone)]
pub struct CensusAblationRow {
    /// Benchmark name.
    pub name: String,
    /// GC time with the census off (the default).
    pub gc_off: Duration,
    /// GC time with the census accumulating per-class/per-site tallies.
    pub gc_on: Duration,
}

impl CensusAblationRow {
    /// Census GC-time overhead in percent.
    pub fn overhead(&self) -> f64 {
        overhead_percent(self.gc_off, self.gc_on)
    }
}

/// Ablation F: isolates the mark-time cost of the heap census by running
/// the infrastructure configuration with the census on vs off
/// (interleaved medians of `reps` runs over the first `take` suite
/// benchmarks).
pub fn ablation_census(reps: usize, scale: f64, take: usize) -> Vec<CensusAblationRow> {
    let mut rows = Vec::new();
    for w in suite::full_suite().into_iter().take(take) {
        let w = scaled(w, scale);
        let base_cfg = VmConfig::builder()
            .heap_budget(w.heap_budget())
            .grow_on_oom(true)
            .build();
        let mut off = Vec::new();
        let mut on = Vec::new();
        for _ in 0..reps.max(1) {
            off.push(run_gc_time(
                &w,
                ExpConfig::Infrastructure,
                base_cfg.clone().census(false),
            ));
            on.push(run_gc_time(
                &w,
                ExpConfig::Infrastructure,
                base_cfg.clone().census(true),
            ));
        }
        off.sort();
        on.sort();
        rows.push(CensusAblationRow {
            name: w.name().to_owned(),
            gc_off: off[off.len() / 2],
            gc_on: on[on.len() / 2],
        });
    }
    rows
}

/// One row of the copying-collector ablation: mark-sweep vs semispace
/// copying, each with the assertion infrastructure alone and with the
/// workload's assertions registered.
#[derive(Debug, Clone)]
pub struct CopyingAblationRow {
    /// Benchmark name.
    pub name: String,
    /// GC time: mark-sweep, Infrastructure.
    pub ms_infra: Duration,
    /// GC time: copying, Infrastructure.
    pub cp_infra: Duration,
    /// GC time: mark-sweep, WithAssertions.
    pub ms_assert: Duration,
    /// GC time: copying, WithAssertions.
    pub cp_assert: Duration,
}

impl CopyingAblationRow {
    /// Copying GC-time delta vs mark-sweep under Infrastructure, in
    /// percent (negative = copying is faster).
    pub fn infra_delta(&self) -> f64 {
        overhead_percent(self.ms_infra, self.cp_infra)
    }

    /// Copying GC-time delta vs mark-sweep under WithAssertions.
    pub fn assert_delta(&self) -> f64 {
        overhead_percent(self.ms_assert, self.cp_assert)
    }
}

/// Ablation G: the semispace copying backend vs mark-sweep, with
/// assertions off and on (interleaved medians of `reps` runs over the
/// first `take` suite benchmarks). The assertion verdicts are identical
/// by construction — the differential fuzz suite pins that — so this
/// measures pure engine cost: evacuation+compaction against mark+sweep,
/// and whether the assertion hooks price out the same on both.
pub fn ablation_copying(reps: usize, scale: f64, take: usize) -> Vec<CopyingAblationRow> {
    let mut rows = Vec::new();
    for w in suite::full_suite().into_iter().take(take) {
        let w = scaled(w, scale);
        let base_cfg = VmConfig::builder()
            .heap_budget(w.heap_budget())
            .grow_on_oom(true)
            .build();
        let mut samples = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..reps.max(1) {
            // Interleave all four legs so drift hits each equally.
            for (i, (exp, collector)) in [
                (ExpConfig::Infrastructure, CollectorKind::MarkSweep),
                (ExpConfig::Infrastructure, CollectorKind::Copying),
                (ExpConfig::WithAssertions, CollectorKind::MarkSweep),
                (ExpConfig::WithAssertions, CollectorKind::Copying),
            ]
            .into_iter()
            .enumerate()
            {
                samples[i].push(run_gc_time(&w, exp, base_cfg.clone().collector(collector)));
            }
        }
        for s in &mut samples {
            s.sort();
        }
        let median = |s: &[Duration]| s[s.len() / 2];
        rows.push(CopyingAblationRow {
            name: w.name().to_owned(),
            ms_infra: median(&samples[0]),
            cp_infra: median(&samples[1]),
            ms_assert: median(&samples[2]),
            cp_assert: median(&samples[3]),
        });
    }
    rows
}

/// Result of the eager-vs-GC-assertions comparison (Ablation B).
#[derive(Debug, Clone)]
pub struct EagerComparison {
    /// Wall time with no checking at all.
    pub unchecked: Duration,
    /// Wall time with GC assertions checking ownership.
    pub gc_assertions: Duration,
    /// Wall time with the JML-style eager checker re-verifying ownership
    /// after every mutation.
    pub eager: Duration,
    /// Objects traversed by the eager checker.
    pub eager_traversed: u64,
    /// Mutations performed.
    pub mutations: u64,
}

impl EagerComparison {
    /// Eager slowdown vs unchecked (the paper cites 10×–100× for this
    /// class of checker).
    pub fn eager_slowdown(&self) -> f64 {
        self.eager.as_secs_f64() / self.unchecked.as_secs_f64().max(1e-9)
    }

    /// GC-assertions slowdown vs unchecked (should be near 1×).
    pub fn gc_slowdown(&self) -> f64 {
        self.gc_assertions.as_secs_f64() / self.unchecked.as_secs_f64().max(1e-9)
    }
}

/// Ablation B: the same ownership property — "every entry is owned by the
/// database" — checked three ways on an add/remove churn workload.
pub fn baseline_eager(entries: usize, mutations: usize) -> EagerComparison {
    use gca_workloads::structures::HArrayList;

    // The kernel, parameterized by a per-mutation callback.
    fn run_kernel(
        entries: usize,
        mutations: usize,
        gc_asserts: bool,
        mut after_mutation: impl FnMut(&Vm, gc_assertions::ObjRef, gc_assertions::ObjRef),
    ) -> (Duration, Vm) {
        let mut vm = Vm::new(VmConfig::builder().heap_budget(1 << 20).build());
        let m = vm.main();
        let db_class = vm.register_class("Database", &["entries"]);
        let entry_class = vm.register_class("Entry", &[]);
        let db = vm.alloc(m, db_class, 1, 0).unwrap();
        vm.add_root(m, db).unwrap();
        let list = HArrayList::new(&mut vm, m, entries.max(4)).unwrap();
        vm.set_field(db, 0, list.handle()).unwrap();

        let start = Instant::now();
        for i in 0..entries {
            let e = vm.alloc(m, entry_class, 0, 4).unwrap();
            list.push(&mut vm, m, e).unwrap();
            if gc_asserts {
                vm.assert_owned_by(db, e).unwrap();
            }
            after_mutation(&vm, db, e);
            let _ = i;
        }
        for i in 0..mutations {
            if i % 2 == 0 {
                let e = vm.alloc(m, entry_class, 0, 4).unwrap();
                list.push(&mut vm, m, e).unwrap();
                if gc_asserts {
                    vm.assert_owned_by(db, e).unwrap();
                }
                after_mutation(&vm, db, e);
            } else if list.len(&vm).unwrap() > 0 {
                let e = list.remove(&mut vm, 0).unwrap();
                after_mutation(&vm, db, e);
            }
        }
        vm.collect().unwrap();
        (start.elapsed(), vm)
    }

    let (unchecked, _) = run_kernel(entries, mutations, false, |_, _, _| {});
    let (gc_time, _) = run_kernel(entries, mutations, true, |_, _, _| {});

    let mut eager_checker = EagerOwnershipChecker::new();
    let mut first = true;
    let (eager_time, _) = run_kernel(entries, mutations, false, |vm, db, e| {
        if first {
            first = false;
        }
        // Register adds; `after_mutation` re-verifies everything.
        if vm.is_live(e) {
            eager_checker.add_pair(db, e);
        }
        let _ = eager_checker.after_mutation(vm.heap());
    });

    EagerComparison {
        unchecked,
        gc_assertions: gc_time,
        eager: eager_time,
        eager_traversed: eager_checker.objects_traversed(),
        mutations: eager_checker.mutations(),
    }
}

/// Result of the generational comparison (Ablation E): the same workload
/// under full-heap MarkSweep vs generational collection, with the
/// assertion-detection latency the paper warns about (§2.2).
#[derive(Debug, Clone)]
pub struct GenerationalComparison {
    /// Wall time under full-heap MarkSweep.
    pub marksweep_total: Duration,
    /// GC time under full-heap MarkSweep.
    pub marksweep_gc: Duration,
    /// Major collections under MarkSweep.
    pub marksweep_majors: u64,
    /// Wall time under generational collection.
    pub generational_total: Duration,
    /// Major + minor GC time under generational collection.
    pub generational_gc: Duration,
    /// Major collections under generational.
    pub generational_majors: u64,
    /// Minor collections under generational.
    pub generational_minors: u64,
    /// Collections (of any kind) that ran between asserting an object
    /// dead and the violation being reported, under MarkSweep.
    pub marksweep_detection_gcs: u64,
    /// Same, under generational — the unchecked-for-long-periods effect.
    pub generational_detection_gcs: u64,
}

/// Ablation E: the paper chose a full-heap collector so every assertion
/// is checked at every collection (§2.2); this measures what the
/// generational alternative trades — GC time vs detection latency — on a
/// churn workload with one planted violation.
pub fn baseline_generational() -> GenerationalComparison {
    fn run(gen: Option<usize>) -> (Duration, Duration, u64, u64, u64) {
        let mut config = VmConfig::builder()
            .heap_budget(3_000)
            .grow_on_oom(true)
            .build();
        if let Some(n) = gen {
            config = config.generational(n);
        }
        let mut vm = Vm::new(config);
        let c = vm.register_class("T", &["churn", "pin"]);
        let m = vm.main();

        // The planted violation: a "dropped" object still referenced
        // through the holder's second field (the first is churned below).
        let holder = vm.alloc_rooted(m, c, 2, 0).unwrap();
        let leaked = vm.alloc(m, c, 2, 0).unwrap();
        vm.set_field(holder, 1, leaked).unwrap();
        vm.assert_dead(leaked).unwrap();

        // Churn with a slowly mutating long-lived structure.
        let start = Instant::now();
        let mut detection_gcs: Option<u64> = None;
        let mut old_head = holder;
        for i in 0..30_000u64 {
            let o = vm.alloc(m, c, 2, 4).unwrap();
            if i % 100 == 0 {
                // Occasional old->young edge to exercise the barrier.
                vm.set_field(old_head, 0, o).unwrap();
                vm.add_root(m, o).unwrap();
                old_head = o;
            }
            if detection_gcs.is_none() && !vm.violation_log().is_empty() {
                detection_gcs = Some(vm.collections() + vm.minor_collections());
            }
        }
        if detection_gcs.is_none() {
            vm.collect().unwrap();
            detection_gcs = Some(vm.collections() + vm.minor_collections());
        }
        let total = start.elapsed();
        (
            total,
            vm.gc_stats().total_gc_time + vm.minor_gc_time(),
            vm.collections(),
            vm.minor_collections(),
            detection_gcs.unwrap_or(0),
        )
    }

    let (ms_total, ms_gc, ms_majors, _, ms_det) = run(None);
    let (gen_total, gen_gc, gen_majors, gen_minors, gen_det) = run(Some(16));
    GenerationalComparison {
        marksweep_total: ms_total,
        marksweep_gc: ms_gc,
        marksweep_majors: ms_majors,
        generational_total: gen_total,
        generational_gc: gen_gc,
        generational_majors: gen_majors,
        generational_minors: gen_minors,
        marksweep_detection_gcs: ms_det,
        generational_detection_gcs: gen_det,
    }
}

/// Result of the probe-vs-batch comparison (Ablation D): the same `k`
/// liveness questions answered by QVM-style immediate probes (one full
/// heap trace each) vs GC assertions (batched into one collection).
#[derive(Debug, Clone)]
pub struct ProbeComparison {
    /// Questions asked.
    pub questions: usize,
    /// Wall time for `k` immediate probes.
    pub probes: Duration,
    /// Wall time for `k` batched assertions + one collection.
    pub batched: Duration,
}

impl ProbeComparison {
    /// Probe slowdown relative to batching.
    pub fn slowdown(&self) -> f64 {
        self.probes.as_secs_f64() / self.batched.as_secs_f64().max(1e-9)
    }
}

/// Ablation D: QVM's heap probes check a property *immediately* by
/// triggering a traversal per probe; GC assertions batch all pending
/// checks into the next collection (§4.1). Builds a heap of `live`
/// objects and asks `questions` is-this-dead questions both ways.
pub fn baseline_probes(live: usize, questions: usize) -> ProbeComparison {
    fn build(live: usize) -> (Vm, Vec<gc_assertions::ObjRef>) {
        let mut vm = Vm::new(VmConfig::builder().heap_budget(1 << 22).build());
        let m = vm.main();
        let c = vm.register_class("Node", &["next"]);
        let mut objs = Vec::new();
        let mut prev = gc_assertions::ObjRef::NULL;
        for i in 0..live {
            let o = vm.alloc(m, c, 1, 2).unwrap();
            if prev.is_some() {
                vm.set_field(o, 0, prev).unwrap();
            }
            if i % 64 == 0 {
                vm.add_root(m, o).unwrap();
                prev = gc_assertions::ObjRef::NULL;
            } else {
                prev = o;
            }
            objs.push(o);
        }
        (vm, objs)
    }

    // Immediate probes: one full trace per question.
    let (mut vm, objs) = build(live);
    let t = Instant::now();
    let mut reachable = 0usize;
    for q in 0..questions {
        if vm.probe_reachable(objs[(q * 37) % objs.len()]).unwrap() {
            reachable += 1;
        }
    }
    let probes = t.elapsed();
    std::hint::black_box(reachable);

    // Batched: mark the same objects dead, check them all in one GC.
    let (mut vm, objs) = build(live);
    let t = Instant::now();
    for q in 0..questions {
        vm.assert_dead(objs[(q * 37) % objs.len()]).unwrap();
    }
    let report = vm.collect().unwrap();
    let batched = t.elapsed();
    std::hint::black_box(report.violations.len());

    ProbeComparison {
        questions,
        probes,
        batched,
    }
}

/// Result of the heuristic-detector comparison (Ablation C).
#[derive(Debug, Clone)]
pub struct DetectorComparison {
    /// Entries actually leaked by the planted bug.
    pub leaked: usize,
    /// GC assertions: violations that name exactly a leaked entry.
    pub gca_true_positives: usize,
    /// GC assertions: reports that are not real leaks (the paper's claim:
    /// always zero — violations are programmer-stated facts failing).
    pub gca_false_positives: usize,
    /// Staleness: stale candidates that are leaked entries.
    pub stale_true_positives: usize,
    /// Staleness: stale candidates that are live, needed objects.
    pub stale_false_positives: usize,
    /// Cork: whether the growing class was (correctly) flagged.
    pub cork_flagged_entry_class: bool,
}

/// Ablation C: a planted leak (removed entries stashed in a hidden cache)
/// plus a rarely-accessed-but-needed configuration object, examined by
/// all three detector families.
pub fn baseline_detectors() -> DetectorComparison {
    use gca_workloads::structures::HArrayList;

    let mut vm = Vm::new(VmConfig::builder().heap_budget(1 << 20).build());
    let m = vm.main();
    let db_class = vm.register_class("Database", &["entries"]);
    let entry_class = vm.register_class("Entry", &[]);
    let config_class = vm.register_class("AppConfig", &[]);

    let db = vm.alloc(m, db_class, 1, 0).unwrap();
    vm.add_root(m, db).unwrap();
    let list = HArrayList::new(&mut vm, m, 64).unwrap();
    vm.set_field(db, 0, list.handle()).unwrap();
    let cache = HArrayList::new(&mut vm, m, 8).unwrap();
    vm.add_root(m, cache.handle()).unwrap();

    // A config object read once at startup — needed but rarely touched.
    let config = vm.alloc(m, config_class, 0, 8).unwrap();
    vm.add_root(m, config).unwrap();

    let mut staleness = StalenessDetector::new(50);
    staleness.touch(config);

    // Populate and churn; every 10th removal leaks into the cache.
    let mut cork = CorkDetector::new(2);
    let mut cork_flagged_entry_class = false;
    let mut leaked = Vec::new();
    for i in 0..200u64 {
        let e = vm.alloc(m, entry_class, 0, 4).unwrap();
        list.push(&mut vm, m, e).unwrap();
        vm.assert_owned_by(db, e).unwrap();
        staleness.touch(e);
        staleness.advance();
        if i % 2 == 1 {
            let victim = list.remove(&mut vm, 0).unwrap();
            vm.assert_dead(victim).unwrap();
            if i % 10 == 9 {
                cache.push(&mut vm, m, victim).unwrap(); // the leak
                leaked.push(victim);
            }
            cork_flagged_entry_class |= cork
                .observe(vm.heap())
                .iter()
                .any(|c| c.class_name == "Entry");
        }
        // Touch the live entries periodically (they are in active use).
        if i % 5 == 0 {
            for live in list.elements(&vm).unwrap() {
                staleness.touch(live);
            }
        }
    }
    for _ in 0..100 {
        staleness.advance();
    }
    vm.collect().unwrap();

    // Another observation round for cork on the settled heap.
    cork_flagged_entry_class |= cork
        .observe(vm.heap())
        .iter()
        .any(|c| c.class_name == "Entry");

    let log = vm.take_violation_log();
    let gca_hits: Vec<_> = log
        .iter()
        .filter_map(|v| match &v.kind {
            ViolationKind::DeadReachable { object, .. } => Some(*object),
            ViolationKind::NotOwned { ownee, .. } => Some(*ownee),
            _ => None,
        })
        .collect();
    let gca_true_positives = gca_hits.iter().filter(|o| leaked.contains(o)).count();
    let gca_false_positives = gca_hits.iter().filter(|o| !leaked.contains(o)).count();

    let stale = staleness.scan(vm.heap());
    let stale_true_positives = stale.iter().filter(|s| leaked.contains(&s.object)).count();
    let stale_false_positives = stale.iter().filter(|s| !leaked.contains(&s.object)).count();

    DetectorComparison {
        leaked: leaked.len(),
        gca_true_positives,
        gca_false_positives,
        stale_true_positives,
        stale_false_positives,
        cork_flagged_entry_class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_stats_mean_and_ci() {
        let xs = [
            Duration::from_millis(10),
            Duration::from_millis(12),
            Duration::from_millis(14),
        ];
        let s = sample_stats(&xs);
        assert_eq!(s.mean, Duration::from_millis(12));
        // sd = 2ms, se = 2/sqrt(3) ≈ 1.1547ms, ci = 1.645*se ≈ 1.8995ms
        let ci_ms = s.ci90_half.as_secs_f64() * 1e3;
        assert!((ci_ms - 1.8995).abs() < 0.01, "ci = {ci_ms}");
    }

    #[test]
    fn sample_stats_degenerate_inputs() {
        assert_eq!(sample_stats(&[]).mean, Duration::ZERO);
        let one = sample_stats(&[Duration::from_millis(5)]);
        assert_eq!(one.mean, Duration::from_millis(5));
        assert_eq!(one.ci90_half, Duration::ZERO);
    }

    #[test]
    fn eager_comparison_math() {
        let cmp = EagerComparison {
            unchecked: Duration::from_millis(10),
            gc_assertions: Duration::from_millis(11),
            eager: Duration::from_millis(300),
            eager_traversed: 1,
            mutations: 1,
        };
        assert!((cmp.gc_slowdown() - 1.1).abs() < 1e-9);
        assert!((cmp.eager_slowdown() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn probe_comparison_math() {
        let p = ProbeComparison {
            questions: 10,
            probes: Duration::from_millis(470),
            batched: Duration::from_millis(10),
        };
        assert!((p.slowdown() - 47.0).abs() < 1e-9);
    }

    #[test]
    fn figure1_smoke() {
        let text = figure1();
        assert!(text.contains("Order"));
    }

    #[test]
    fn probe_baseline_prefers_batching() {
        let p = baseline_probes(2_000, 16);
        assert!(p.probes > p.batched, "{p:?}");
    }
}
