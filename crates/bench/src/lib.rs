//! # gca-bench — the `figures` renderer and the integration-test host
//!
//! Every time the repo argues from is taken by the benchmark package
//! (`benchmark/`, `BENCHMARK.json`), Figures 2/3 and Ablations A/E/F/G
//! included. This crate keeps what that frozen harness cannot print, for
//! the `figures` binary and `tests/figures_smoke.rs`: [`figure1`] (the
//! Figure 1 report), [`figures_4_5`] (one row per program; the benchmark's
//! `paper.fig4/5` ratios are a geomean that also covers a session server)
//! and the §4 comparators [`baseline_eager`], [`baseline_detectors`] and
//! [`baseline_probes`] (Ablations B, C, D). The package also hosts the
//! integration tests under the repository's `tests/` (see `Cargo.toml`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use gc_assertions::{ObjRef, ViolationKind, Vm, VmConfig};
use gca_detectors::{CorkDetector, EagerOwnershipChecker, StalenessDetector};
use gca_workloads::db::Db209;
use gca_workloads::pseudojbb::PseudoJbb;
use gca_workloads::runner::{overhead_percent, run_once, ExpConfig, Measurement, Workload};
use gca_workloads::structures::HArrayList;

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

/// Regenerates Figure 1: runs the buggy pseudojbb with `assert_dead`
/// instrumentation and returns the first dead-reachable report, whose
/// path runs `Company -> … -> longBTree -> longBTreeNode -> … -> Order`.
pub fn figure1() -> String {
    let jbb = PseudoJbb::buggy_with_dead_asserts();
    let mut vm = Vm::new(VmConfig::builder().heap_budget(jbb.heap_budget()).build());
    jbb.run(&mut vm, true).expect("pseudojbb runs");
    let _ = vm.collect();
    let log = vm.take_violation_log();
    log.iter()
        .filter(|v| matches!(&v.kind, ViolationKind::DeadReachable { class_name, .. } if class_name == "Order"))
        .find(|v| v.path.passes_through(vm.registry(), "longBTreeNode"))
        .expect("the planted order-table leak is reported")
        .render(vm.registry())
}

/// One Figure 4/5 row: `workload` under the three configurations, after
/// one warmup run, with the per-config runs interleaved round-robin so
/// allocator/cache drift over the process lifetime affects every
/// configuration equally. Keeps the median run (by total time) of each.
fn measure_interleaved(workload: &dyn Workload, reps: usize) -> AssertRow {
    let _warmup = run_once(workload, ExpConfig::Base).expect("workload runs");
    let configs = [
        ExpConfig::Base,
        ExpConfig::Infrastructure,
        ExpConfig::WithAssertions,
    ];
    let mut runs: [Vec<Measurement>; 3] = Default::default();
    for _ in 0..reps.max(1) {
        for (runs, config) in runs.iter_mut().zip(configs) {
            runs.push(run_once(workload, config).expect("workload runs"));
        }
    }
    let [base, infra, with] = runs.map(|mut runs| {
        runs.sort_by_key(|r| r.total);
        runs.swap_remove(runs.len() / 2)
    });
    AssertRow {
        name: workload.name().to_owned(),
        base,
        infra,
        with,
    }
}

/// Regenerates the data behind Figures 4 and 5: `_209_db` and pseudojbb
/// with real assertion loads, under all three configurations (medians of
/// `reps` interleaved runs). `scale` shrinks iteration counts.
pub fn figures_4_5(reps: usize, scale: f64) -> Vec<AssertRow> {
    let (db, jbb) = (scaled_db(scale), scaled_jbb(scale));
    [&db as &dyn Workload, &jbb]
        .map(|w| measure_interleaved(w, reps))
        .into()
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
    // The kernel, parameterized by a per-mutation callback: `entries`
    // adds, then `mutations` alternating adds and removes.
    fn run_kernel(
        entries: usize,
        mutations: usize,
        gc_asserts: bool,
        mut after_mutation: impl FnMut(&Vm, ObjRef, ObjRef),
    ) -> Duration {
        let mut vm = Vm::new(VmConfig::builder().heap_budget(1 << 20).build());
        let m = vm.main();
        let db_class = vm.register_class("Database", &["entries"]);
        let entry_class = vm.register_class("Entry", &[]);
        let db = vm.alloc(m, db_class, 1, 0).unwrap();
        vm.add_root(m, db).unwrap();
        let list = HArrayList::new(&mut vm, m, entries.max(4)).unwrap();
        vm.set_field(db, 0, list.handle()).unwrap();

        let start = Instant::now();
        for i in 0..entries + mutations {
            if i < entries || (i - entries).is_multiple_of(2) {
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
        start.elapsed()
    }

    let unchecked = run_kernel(entries, mutations, false, |_, _, _| {});
    let gc_assertions = run_kernel(entries, mutations, true, |_, _, _| {});

    let mut eager_checker = EagerOwnershipChecker::new();
    let eager = run_kernel(entries, mutations, false, |vm, db, e| {
        // Register adds; `after_mutation` re-verifies everything.
        if vm.is_live(e) {
            eager_checker.add_pair(db, e);
        }
        let _ = eager_checker.after_mutation(vm.heap());
    });

    EagerComparison {
        unchecked,
        gc_assertions,
        eager,
        eager_traversed: eager_checker.objects_traversed(),
        mutations: eager_checker.mutations(),
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
    let mut cork_flags_entries = |vm: &Vm| {
        cork.observe(vm.heap())
            .iter()
            .any(|c| c.class_name == "Entry")
    };
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
            cork_flagged_entry_class |= cork_flags_entries(&vm);
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
    cork_flagged_entry_class |= cork_flags_entries(&vm);

    let log = vm.take_violation_log();
    let gca_hits: Vec<_> = log
        .iter()
        .filter_map(|v| match &v.kind {
            ViolationKind::DeadReachable { object, .. } => Some(*object),
            ViolationKind::NotOwned { ownee, .. } => Some(*ownee),
            _ => None,
        })
        .collect();
    let stale = staleness.scan(vm.heap());
    DetectorComparison {
        leaked: leaked.len(),
        gca_true_positives: gca_hits.iter().filter(|o| leaked.contains(o)).count(),
        gca_false_positives: gca_hits.iter().filter(|o| !leaked.contains(o)).count(),
        stale_true_positives: stale.iter().filter(|s| leaked.contains(&s.object)).count(),
        stale_false_positives: stale.iter().filter(|s| !leaked.contains(&s.object)).count(),
        cork_flagged_entry_class,
    }
}

/// Result of the probe-vs-batch comparison (Ablation D): the same `k`
/// liveness questions answered by QVM-style immediate probes (one full
/// heap trace each) vs GC assertions (batched into one collection).
#[derive(Debug, Clone)]
pub struct ProbeComparison {
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
    fn build(live: usize) -> (Vm, Vec<ObjRef>) {
        let mut vm = Vm::new(VmConfig::builder().heap_budget(1 << 22).build());
        let m = vm.main();
        let c = vm.register_class("Node", &["next"]);
        let mut objs = Vec::new();
        let mut prev = ObjRef::NULL;
        for i in 0..live {
            let o = vm.alloc(m, c, 1, 2).unwrap();
            if prev.is_some() {
                vm.set_field(o, 0, prev).unwrap();
            }
            if i % 64 == 0 {
                vm.add_root(m, o).unwrap();
                prev = ObjRef::NULL;
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
    let reachable = (0..questions)
        .filter(|q| vm.probe_reachable(objs[(q * 37) % objs.len()]).unwrap())
        .count();
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

    ProbeComparison { probes, batched }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            probes: Duration::from_millis(470),
            batched: Duration::from_millis(10),
        };
        assert!((p.slowdown() - 47.0).abs() < 1e-9);
    }

    #[test]
    fn probe_baseline_prefers_batching() {
        let p = baseline_probes(2_000, 16);
        assert!(p.probes > p.batched, "{p:?}");
    }
}
