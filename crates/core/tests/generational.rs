//! Generational-mode semantics (paper §2.2): minor collections are cheap
//! and frequent but check no assertions, so violations are detected only
//! when a major collection runs — "allowing some assertions to go
//! unchecked for long periods of time".

use gc_assertions::{ObjRef, Vm, VmConfig};

fn gen_vm(major_every: usize) -> Vm {
    Vm::new(
        VmConfig::builder()
            .heap_budget(2_000)
            .grow_on_oom(true)
            .generational(major_every)
            .build(),
    )
}

#[test]
fn minor_reclaims_young_garbage() {
    let mut vm = gen_vm(1000);
    let c = vm.register_class("T", &[]);
    let m = vm.main();
    let keep = vm.alloc_rooted(m, c, 0, 4).unwrap();
    for _ in 0..10 {
        vm.alloc(m, c, 0, 4).unwrap();
    }
    let stats = vm.collect_minor().unwrap();
    assert_eq!(stats.objects_swept, 10);
    assert_eq!(stats.promoted, 1);
    assert!(vm.is_live(keep));
    assert_eq!(vm.minor_collections(), 1);
}

#[test]
fn promoted_objects_survive_minors_without_roots_scanning_them() {
    let mut vm = gen_vm(1000);
    let c = vm.register_class("T", &["f"]);
    let m = vm.main();
    let a = vm.alloc_rooted(m, c, 1, 0).unwrap();
    vm.collect_minor().unwrap(); // a promoted
                                 // Old garbage: drop the root; minors never reclaim old objects.
    vm.set_root(m, 0, ObjRef::NULL).unwrap();
    vm.collect_minor().unwrap();
    assert!(vm.is_live(a), "old garbage survives minors");
    // The major reclaims it.
    vm.collect().unwrap();
    assert!(!vm.is_live(a));
}

#[test]
fn write_barrier_keeps_old_to_young_edges_alive() {
    let mut vm = gen_vm(1000);
    let c = vm.register_class("T", &["f"]);
    let m = vm.main();
    let old = vm.alloc_rooted(m, c, 1, 0).unwrap();
    vm.collect_minor().unwrap(); // promote `old`
                                 // Create an old -> young edge; the barrier must remember it.
    let young = vm.alloc(m, c, 1, 0).unwrap();
    vm.set_field(old, 0, young).unwrap();
    let stats = vm.collect_minor().unwrap();
    assert!(stats.remembered_scanned >= 1, "barrier fed the minor");
    assert!(vm.is_live(young), "old->young edge honoured");
    // And the promoted young object keeps surviving.
    vm.collect_minor().unwrap();
    assert!(vm.is_live(young));
}

#[test]
fn young_to_young_chains_survive_via_roots() {
    let mut vm = gen_vm(1000);
    let c = vm.register_class("T", &["f"]);
    let m = vm.main();
    let head = vm.alloc_rooted(m, c, 1, 0).unwrap();
    let tail = vm.alloc(m, c, 1, 0).unwrap();
    vm.set_field(head, 0, tail).unwrap();
    let stats = vm.collect_minor().unwrap();
    assert_eq!(stats.promoted, 2);
    assert!(vm.is_live(tail));
}

#[test]
fn assertions_go_unchecked_until_the_major() {
    // The §2.2 trade-off, pinned: an assert_dead violation survives any
    // number of minors unreported and is caught by the first major.
    let mut vm = gen_vm(1000);
    let c = vm.register_class("T", &["f"]);
    let m = vm.main();
    let holder = vm.alloc_rooted(m, c, 1, 0).unwrap();
    let x = vm.alloc(m, c, 1, 0).unwrap();
    vm.set_field(holder, 0, x).unwrap();
    vm.assert_dead(x).unwrap();

    for _ in 0..5 {
        vm.collect_minor().unwrap();
        assert!(
            vm.violation_log().is_empty(),
            "minor collections check no assertions"
        );
    }
    assert!(vm.is_live(x));

    let report = vm.collect().unwrap(); // the major
    assert_eq!(report.violations.len(), 1, "detected only now");
}

#[test]
fn satisfied_dead_assertions_resolve_silently_in_minors() {
    // An object that really dies young is reclaimed by the nursery with
    // its DEAD bit set and never reported — correct behaviour.
    let mut vm = gen_vm(1000);
    let c = vm.register_class("T", &[]);
    let m = vm.main();
    let x = vm.alloc(m, c, 0, 0).unwrap();
    vm.assert_dead(x).unwrap();
    let stats = vm.collect_minor().unwrap();
    assert_eq!(stats.objects_swept, 1);
    assert!(vm.violation_log().is_empty());
    assert!(vm.collect().unwrap().is_clean(), "nothing left to report");
}

#[test]
fn allocation_pressure_drives_minors_then_scheduled_major() {
    let mut vm = Vm::new(
        VmConfig::builder()
            .heap_budget(600)
            .grow_on_oom(true)
            .generational(4)
            .build(),
    );
    let c = vm.register_class("T", &[]);
    let m = vm.main();
    for _ in 0..600 {
        vm.alloc(m, c, 0, 6).unwrap(); // churn; everything dies young
    }
    assert!(vm.minor_collections() > 0, "pressure ran minors");
    assert!(
        vm.gc_stats().collections > 0,
        "the every-4th-policy forced majors"
    );
    assert!(
        vm.minor_collections() >= vm.gc_stats().collections,
        "minors at least as frequent as majors"
    );
}

#[test]
fn generational_and_marksweep_agree_on_final_liveness() {
    // Same program under both collectors: after a final major, the
    // surviving object set is identical.
    fn run(config: VmConfig) -> (Vm, Vec<ObjRef>, Vec<ObjRef>) {
        let mut vm = Vm::new(config);
        let c = vm.register_class("T", &["a", "b"]);
        let m = vm.main();
        let mut kept = Vec::new();
        let mut dropped = Vec::new();
        for i in 0..300 {
            let o = vm.alloc(m, c, 2, 2).unwrap();
            if i % 7 == 0 {
                vm.add_root(m, o).unwrap();
                kept.push(o);
            } else if i % 11 == 0 {
                // Hang it off the most recent kept object.
                if let Some(&parent) = kept.last() {
                    vm.set_field(parent, 0, o).unwrap();
                    kept.push(o);
                } else {
                    dropped.push(o);
                }
            } else {
                dropped.push(o);
            }
        }
        vm.collect().unwrap();
        (vm, kept, dropped)
    }

    let base_cfg = VmConfig::builder()
        .heap_budget(1_500)
        .grow_on_oom(true)
        .build();
    let (vm_ms, kept_ms, dropped_ms) = run(base_cfg.clone());
    let (vm_gen, kept_gen, dropped_gen) = run(base_cfg.generational(3));

    for (a, b) in kept_ms.iter().zip(&kept_gen) {
        assert_eq!(vm_ms.is_live(*a), vm_gen.is_live(*b));
        assert!(vm_gen.is_live(*b));
    }
    for (a, b) in dropped_ms.iter().zip(&dropped_gen) {
        assert_eq!(vm_ms.is_live(*a), vm_gen.is_live(*b), "{a} vs {b}");
    }
}

#[test]
fn minors_are_cheaper_than_majors_with_large_old_generation() {
    // Build a large old generation, then compare one minor against one
    // major: the minor must trace far less.
    let mut vm = Vm::new(
        VmConfig::builder()
            .heap_budget(1 << 22)
            .generational(1_000)
            .build(),
    );
    let c = vm.register_class("T", &["f"]);
    let m = vm.main();
    // 20k-object old structure.
    let mut prev = vm.alloc_rooted(m, c, 1, 2).unwrap();
    for _ in 0..20_000 {
        let o = vm.alloc(m, c, 1, 2).unwrap();
        vm.set_field(o, 0, prev).unwrap();
        vm.set_root(m, 0, o).unwrap();
        prev = o;
    }
    vm.collect().unwrap(); // promote everything

    // Some young churn.
    for _ in 0..100 {
        vm.alloc(m, c, 1, 2).unwrap();
    }
    let minor = vm.collect_minor().unwrap();
    // Fresh young churn for the major to chew on.
    for _ in 0..100 {
        vm.alloc(m, c, 1, 2).unwrap();
    }
    let major = vm.collect().unwrap();
    assert!(
        minor.total < major.cycle.total,
        "minor {:?} should be cheaper than major {:?}",
        minor.total,
        major.cycle.total
    );
}

#[test]
fn regions_work_under_generational_collection() {
    let mut vm = gen_vm(3);
    let c = vm.register_class("T", &[]);
    let m = vm.main();
    vm.start_region(m).unwrap();
    let leaked = vm.alloc_rooted(m, c, 0, 0).unwrap();
    vm.alloc(m, c, 0, 0).unwrap();
    vm.assert_alldead(m).unwrap();
    // Minors don't check; the major does.
    vm.collect_minor().unwrap();
    assert!(vm.violation_log().is_empty());
    let report = vm.collect().unwrap();
    assert_eq!(report.violations.len(), 1);
    assert!(vm.is_live(leaked));
}

#[test]
fn minor_without_a_nursery_is_a_no_op() {
    // A VM that is not generational has no nursery to collect. A minor
    // there must do nothing at all — in particular leave no mark behind:
    // a stale mark on `a` would hide the asserted-dead `a` and the later
    // `b` from the next major, which would then free the reachable `b`.
    let mut vm = Vm::new(
        VmConfig::builder()
            .heap_budget(2_000)
            .telemetry(true)
            .build(),
    );
    let c = vm.register_class("T", &["f"]);
    let m = vm.main();
    let a = vm.alloc_rooted(m, c, 1, 0).unwrap();
    vm.assert_dead(a).unwrap();

    let stats = vm.collect_minor().unwrap();
    assert_eq!(stats, gca_collector::MinorStats::default());
    assert_eq!(vm.minor_collections(), 0);
    assert_eq!(vm.telemetry().minor_cycles(), 0);

    let b = vm.alloc(m, c, 1, 0).unwrap();
    vm.set_field(a, 0, b).unwrap();
    let report = vm.collect().unwrap();
    assert_eq!(report.violations.len(), 1, "assert-dead on `a` is checked");
    assert!(vm.is_live(b));
    assert_eq!(vm.heap().verify(), Vec::<String>::new());
}
