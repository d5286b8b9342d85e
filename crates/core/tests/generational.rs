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

/// Property: the `OLD` plane alone tells young from old. At every step of
/// a seeded random history, the live objects without `OLD` are exactly
/// the ones allocated since the last collection (none right after an
/// explicit minor or major), no live object carries `MARK`, and the heap
/// verifies. Card marking and the remembered set agree on the live set at
/// every step.
mod young_is_live_and_not_old {
    use std::collections::HashSet;

    use gc_assertions::{Flags, MinorStrategy, ObjRef, Vm, VmConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const FIELDS: usize = 2;

    /// One step of a history; objects are named by allocation ordinal, so
    /// the same history replays under both strategies.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Allocate; root it, or store it into `parent.field`.
        Alloc {
            parent: Option<(usize, usize)>,
        },
        Link {
            from: usize,
            field: usize,
            to: Option<usize>,
        },
        Unroot {
            obj: usize,
        },
        Minor,
        Major,
    }

    fn history(seed: u64, len: usize) -> Vec<Op> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut allocated = 0usize;
        let mut ops = Vec::with_capacity(len);
        while ops.len() < len {
            // Biased to recent ordinals, which are the likely-live ones.
            let recent = |rng: &mut SmallRng| allocated - 1 - rng.gen_range(0..allocated.min(16));
            let op = match rng.gen_range(0..100) {
                _ if allocated < 2 => Op::Alloc { parent: None },
                0..=24 => Op::Alloc { parent: None },
                25..=54 => Op::Alloc {
                    parent: Some((recent(&mut rng), rng.gen_range(0..FIELDS))),
                },
                55..=74 => Op::Link {
                    from: recent(&mut rng),
                    field: rng.gen_range(0..FIELDS),
                    to: rng.gen_bool(0.7).then(|| recent(&mut rng)),
                },
                75..=89 => Op::Unroot {
                    obj: recent(&mut rng),
                },
                90..=96 => Op::Minor,
                _ => Op::Major,
            };
            if matches!(op, Op::Alloc { .. }) {
                allocated += 1;
            }
            ops.push(op);
        }
        ops
    }

    /// Replays `ops`, checking the per-step invariants, and returns the
    /// live allocation ordinals after each step.
    fn run(strategy: MinorStrategy, ops: &[Op]) -> Vec<Vec<usize>> {
        let mut vm = Vm::new(
            VmConfig::builder()
                .heap_budget(400)
                .grow_on_oom(true)
                .generational(3)
                .minor_strategy(strategy)
                .build(),
        );
        let class = vm.register_class("Node", &["a", "b"]);
        let m = vm.main();
        let mut objs: Vec<ObjRef> = Vec::new();
        let mut root_slot = std::collections::HashMap::new();
        let mut allocated_since_gc: HashSet<ObjRef> = HashSet::new();
        let mut trace = Vec::with_capacity(ops.len());
        for (step, &op) in ops.iter().enumerate() {
            let cycles = vm.collections() + vm.minor_collections();
            match op {
                Op::Alloc { parent } => {
                    let obj = vm.alloc(m, class, FIELDS, 1).unwrap();
                    match parent {
                        Some((p, f)) if vm.is_live(objs[p]) => {
                            vm.set_field(objs[p], f, obj).unwrap();
                        }
                        _ => {
                            root_slot.insert(objs.len(), vm.add_root(m, obj).unwrap());
                        }
                    }
                    if vm.collections() + vm.minor_collections() != cycles {
                        allocated_since_gc.clear();
                    }
                    allocated_since_gc.insert(obj);
                    objs.push(obj);
                }
                Op::Link { from, field, to } => {
                    let to = to.map_or(ObjRef::NULL, |t| objs[t]);
                    if vm.is_live(objs[from]) && (to.is_null() || vm.is_live(to)) {
                        vm.set_field(objs[from], field, to).unwrap();
                    }
                }
                Op::Unroot { obj } => {
                    if let Some(slot) = root_slot.remove(&obj) {
                        vm.set_root(m, slot, ObjRef::NULL).unwrap();
                    }
                }
                Op::Minor => {
                    vm.collect_minor().unwrap();
                    allocated_since_gc.clear();
                }
                Op::Major => {
                    vm.collect().unwrap();
                    allocated_since_gc.clear();
                }
            }

            let heap = vm.heap();
            let mut young = HashSet::new();
            for (r, _) in heap.iter() {
                let flags = heap.flags_of(r).unwrap();
                assert!(!flags.contains(Flags::MARK), "step {step}: {r} keeps MARK");
                if !flags.contains(Flags::OLD) {
                    young.insert(r);
                }
            }
            assert_eq!(
                young, allocated_since_gc,
                "step {step} ({op:?}, {strategy:?}): live and not OLD is not the nursery"
            );
            assert_eq!(heap.verify(), Vec::<String>::new(), "step {step}");
            trace.push((0..objs.len()).filter(|&i| vm.is_live(objs[i])).collect());
        }
        assert!(vm.minor_collections() > 0 && vm.collections() > 0);
        trace
    }

    #[test]
    fn after_every_collection_young_is_live_and_not_old() {
        for seed in 0..24 {
            let ops = history(0x6e75_7273 + seed, 400);
            let cards = run(MinorStrategy::Cards, &ops);
            let remembered = run(MinorStrategy::RememberedSet, &ops);
            for (step, (c, r)) in cards.iter().zip(&remembered).enumerate() {
                assert_eq!(
                    c, r,
                    "seed {seed} step {step}: strategies disagree on liveness"
                );
            }
        }
    }
}
