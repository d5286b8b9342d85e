//! Whole-system soak test: a seeded random program exercises every
//! feature together — classes, mutators, frames, regions, all five
//! assertions, probes, implicit and explicit collections, both collector
//! modes — while cross-checking VM state against a shadow model after
//! every collection.

use gc_assertions::{Mode, ObjRef, ViolationKind, Vm, VmConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

struct Torture {
    vm: Vm,
    rng: SmallRng,
    classes: Vec<gc_assertions::ClassId>,
    /// Rooted handles (per mutator): these must stay live.
    rooted: Vec<Vec<ObjRef>>,
    /// Objects we deliberately leaked while asserted dead: each must
    /// eventually be reported.
    expected_leaks: HashSet<ObjRef>,
    mutators: Vec<gc_assertions::MutatorId>,
}

impl Torture {
    fn new(seed: u64, generational: bool) -> Torture {
        Torture::new_with(seed, generational, 1, false)
    }

    fn new_with(seed: u64, generational: bool, gc_threads: usize, telemetry: bool) -> Torture {
        let mut config = VmConfig::builder()
            .heap_budget(6_000)
            .grow_on_oom(true)
            .report_once(true)
            .gc_threads(gc_threads)
            .telemetry(telemetry)
            .build();
        if generational {
            config = config.generational(4);
        }
        let mut vm = Vm::new(config);
        let classes = vec![
            vm.register_class("A", &["x", "y"]),
            vm.register_class("B", &["x"]),
            vm.register_class("C", &["x", "y", "z"]),
        ];
        let mutators = vec![vm.main(), vm.spawn_mutator(), vm.spawn_mutator()];
        Torture {
            vm,
            rng: SmallRng::seed_from_u64(seed),
            classes,
            rooted: vec![Vec::new(); 3],
            expected_leaks: HashSet::new(),
            mutators,
        }
    }

    fn random_rooted(&mut self) -> Option<(usize, ObjRef)> {
        let m = self.rng.gen_range(0..self.rooted.len());
        if self.rooted[m].is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..self.rooted[m].len());
        Some((m, self.rooted[m][i]))
    }

    fn step(&mut self) {
        let op = self.rng.gen_range(0..100);
        match op {
            // Allocate, sometimes rooted.
            0..=39 => {
                let mi = self.rng.gen_range(0..self.mutators.len());
                let class = self.classes[self.rng.gen_range(0..self.classes.len())];
                let nrefs = self.rng.gen_range(0..4);
                let data = self.rng.gen_range(0..8);
                let obj = self
                    .vm
                    .alloc(self.mutators[mi], class, nrefs, data)
                    .unwrap();
                if self.rng.gen_bool(0.4) && self.rooted[mi].len() < 60 {
                    self.vm.add_root(self.mutators[mi], obj).unwrap();
                    self.rooted[mi].push(obj);
                }
            }
            // Link two rooted objects.
            40..=59 => {
                if let (Some((_, a)), Some((_, b))) = (self.random_rooted(), self.random_rooted()) {
                    let nrefs = self.vm.heap().get(a).map(|o| o.ref_count()).unwrap_or(0);
                    if nrefs > 0 {
                        let f = self.rng.gen_range(0..nrefs);
                        self.vm.set_field(a, f, b).unwrap();
                    }
                }
            }
            // Clear a field.
            60..=64 => {
                if let Some((_, a)) = self.random_rooted() {
                    let nrefs = self.vm.heap().get(a).map(|o| o.ref_count()).unwrap_or(0);
                    if nrefs > 0 {
                        let f = self.rng.gen_range(0..nrefs);
                        self.vm.set_field(a, f, ObjRef::NULL).unwrap();
                    }
                }
            }
            // Assert a rooted object dead (a deliberate, detectable leak).
            65..=69 => {
                if let Some((_, a)) = self.random_rooted() {
                    if !self.expected_leaks.contains(&a) {
                        self.vm.assert_dead(a).unwrap();
                        self.expected_leaks.insert(a);
                    }
                }
            }
            // Allocate garbage asserted dead (must pass silently).
            70..=79 => {
                let class = self.classes[0];
                let obj = self.vm.alloc(self.mutators[0], class, 1, 2).unwrap();
                self.vm.assert_dead(obj).unwrap();
            }
            // A clean region on a random mutator.
            80..=87 => {
                let mi = self.rng.gen_range(0..self.mutators.len());
                let m = self.mutators[mi];
                self.vm.start_region(m).unwrap();
                self.vm.push_frame(m).unwrap();
                for _ in 0..self.rng.gen_range(1..6) {
                    let class = self.classes[1];
                    self.vm.alloc_rooted(m, class, 1, 3).unwrap();
                }
                self.vm.pop_frame(m).unwrap();
                self.vm.assert_alldead(m).unwrap();
            }
            // Unshared assertion on a fresh chain (clean).
            88..=92 => {
                let m = self.mutators[0];
                self.vm.push_frame(m).unwrap();
                let head = self.vm.alloc_rooted(m, self.classes[1], 1, 0).unwrap();
                let tail = self.vm.alloc(m, self.classes[1], 1, 0).unwrap();
                self.vm.set_field(head, 0, tail).unwrap();
                self.vm.assert_unshared(tail).unwrap();
                self.vm.pop_frame(m).unwrap();
            }
            // Probe a rooted object: must be reachable.
            93..=95 => {
                if let Some((_, a)) = self.random_rooted() {
                    assert!(self.vm.probe_reachable(a).unwrap());
                }
            }
            // Explicit collection + invariant check.
            _ => {
                self.vm.collect().unwrap();
                self.check_invariants();
            }
        }
    }

    fn check_invariants(&mut self) {
        // Every rooted object is live and probe-reachable.
        for m in &self.rooted {
            for &r in m {
                assert!(self.vm.is_live(r), "rooted object died");
            }
        }
        // Every reported dead-reachable violation is one we planted.
        for v in self.vm.violation_log() {
            if let ViolationKind::DeadReachable { object, .. } = &v.kind {
                assert!(
                    self.expected_leaks.contains(object),
                    "unexpected violation: {}",
                    v.summary()
                );
            }
        }
        // Full structural verification: free list, accounting, no
        // dangling references.
        let problems = self.vm.heap().verify();
        assert!(problems.is_empty(), "heap corruption: {problems:?}");
    }

    fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
        // Final collection: every planted leak must have been reported
        // (report-once, so exactly once).
        self.vm.collect().unwrap();
        self.check_invariants();
        let reported: HashSet<ObjRef> = self
            .vm
            .violation_log()
            .iter()
            .filter_map(|v| match &v.kind {
                ViolationKind::DeadReachable { object, .. } => Some(*object),
                _ => None,
            })
            .collect();
        for leak in &self.expected_leaks {
            assert!(
                reported.contains(leak),
                "planted leak {leak} never reported"
            );
        }
    }
}

#[test]
fn torture_marksweep() {
    for seed in [1, 42, 0xDEAD] {
        Torture::new(seed, false).run(1_500);
    }
}

#[test]
fn torture_generational() {
    for seed in [7, 99, 0xBEEF] {
        Torture::new(seed, true).run(1_500);
    }
}

/// Runs the soak program at `seed` with `gc_threads` workers and
/// telemetry recording on, returning the sorted violation kinds and the
/// telemetry snapshot. The kinds (object refs + class names, no paths)
/// are deterministic for a seed, so sequential and parallel marking must
/// produce identical sets.
fn violations_with_workers(
    seed: u64,
    gc_threads: usize,
) -> (Vec<String>, gc_assertions::GcTelemetry) {
    let mut t = Torture::new_with(seed, false, gc_threads, true);
    t.run(800);
    let mut kinds: Vec<String> =
        t.vm.violation_log()
            .iter()
            .map(|v| format!("{:?}", v.kind))
            .collect();
    kinds.sort();
    (kinds, t.vm.telemetry().clone())
}

#[test]
fn torture_parallel_violation_parity_with_telemetry() {
    for seed in [42, 0xFEED] {
        let (seq_kinds, seq_tel) = violations_with_workers(seed, 1);
        for workers in [2usize, 4] {
            let (par_kinds, par_tel) = violations_with_workers(seed, workers);
            assert_eq!(
                seq_kinds, par_kinds,
                "seed {seed}: {workers}-worker marking changed the violation set"
            );
            // Telemetry observed the parallel mark: every major cycle
            // carries one mark span per worker.
            assert!(par_tel.cycles() > 0);
            assert_eq!(par_tel.worker_mark_ns().len(), workers);
            for r in par_tel.records() {
                assert_eq!(r.worker_mark_ns.len(), workers, "seed {seed}");
            }
            // Roll-ups agree with the sequential run on what happened,
            // even though timings differ.
            assert_eq!(par_tel.cycles(), seq_tel.cycles());
            assert_eq!(par_tel.violations(), seq_tel.violations());
        }
    }
}

#[test]
fn torture_base_mode_collects_correctly() {
    // Base mode (no assertion engine): the same random mutation pattern
    // must keep rooted objects alive and accounting consistent.
    let mut vm = Vm::new(
        VmConfig::builder()
            .heap_budget(4_000)
            .grow_on_oom(true)
            .mode(Mode::Base)
            .build(),
    );
    let c = vm.register_class("T", &["a", "b"]);
    let m = vm.main();
    let mut rng = SmallRng::seed_from_u64(77);
    let mut rooted = Vec::new();
    for _ in 0..3_000 {
        let obj = vm.alloc(m, c, 2, rng.gen_range(0..6)).unwrap();
        if rng.gen_bool(0.2) && rooted.len() < 50 {
            vm.add_root(m, obj).unwrap();
            rooted.push(obj);
        }
        if rng.gen_bool(0.3) && rooted.len() >= 2 {
            let a = rooted[rng.gen_range(0..rooted.len())];
            let b = rooted[rng.gen_range(0..rooted.len())];
            vm.set_field(a, rng.gen_range(0..2), b).unwrap();
        }
    }
    vm.collect().unwrap();
    for r in &rooted {
        assert!(vm.is_live(*r));
    }
}
