//! Tests for the features the paper lists as future work (§2.6) and our
//! QVM-style probe interface: per-assertion-class reactions, the
//! programmatic violation handler, and immediate heap probes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gc_assertions::{
    AssertionClass, ClassId, CollectorKind, Flags, ObjRef, Reaction, ViolationKind, Vm, VmConfig,
    VmError,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn leaky_vm(config: VmConfig) -> (Vm, ObjRef, ObjRef) {
    let mut vm = Vm::new(config);
    let c = vm.register_class("Holder", &["f"]);
    let m = vm.main();
    let h = vm.alloc_rooted(m, c, 1, 0).unwrap();
    let x = vm.alloc(m, c, 1, 0).unwrap();
    vm.set_field(h, 0, x).unwrap();
    vm.assert_dead(x).unwrap();
    (vm, h, x)
}

// ---------------------------------------------------------------------
// Per-class reactions
// ---------------------------------------------------------------------

#[test]
fn lifetime_halt_override_halts_on_dead_violation() {
    let config = VmConfig::builder()
        .reaction_for(AssertionClass::Lifetime, Reaction::Halt)
        .build();
    let (mut vm, _h, _x) = leaky_vm(config);
    let report = vm.collect().unwrap();
    assert!(report.halted);
    assert!(vm.is_halted());
}

#[test]
fn volume_halt_override_ignores_lifetime_violations() {
    // Halt only on instance-limit violations; the dead-reachable
    // violation is logged but execution continues.
    let config = VmConfig::builder()
        .reaction_for(AssertionClass::Volume, Reaction::Halt)
        .build();
    let (mut vm, _h, _x) = leaky_vm(config);
    let report = vm.collect().unwrap();
    assert_eq!(report.violations.len(), 1);
    assert!(!report.halted);
    assert!(!vm.is_halted());
}

#[test]
fn lifetime_force_true_with_default_log() {
    // ForceTrue for lifetime assertions only; everything else logs.
    let config = VmConfig::builder()
        .reaction_for(AssertionClass::Lifetime, Reaction::ForceTrue)
        .build();
    let (mut vm, h, x) = leaky_vm(config);
    vm.collect().unwrap();
    assert_eq!(vm.field(h, 0).unwrap(), ObjRef::NULL, "edge severed");
    vm.collect().unwrap();
    assert!(!vm.is_live(x), "forced dead at the following GC");
}

#[test]
fn later_override_wins() {
    let config = VmConfig::builder()
        .reaction_for(AssertionClass::Lifetime, Reaction::Halt)
        .reaction_for(AssertionClass::Lifetime, Reaction::Log)
        .build();
    assert_eq!(
        config.effective_reaction(AssertionClass::Lifetime),
        Reaction::Log
    );
    assert_eq!(
        config.effective_reaction(AssertionClass::Volume),
        Reaction::Log
    );
}

#[test]
fn connectivity_class_maps_ownership_violations() {
    let config = VmConfig::builder()
        .reaction_for(AssertionClass::Connectivity, Reaction::Halt)
        .build();
    let mut vm = Vm::new(config);
    let c = vm.register_class("C", &["f"]);
    let m = vm.main();
    let owner = vm.alloc_rooted(m, c, 1, 0).unwrap();
    let keeper = vm.alloc_rooted(m, c, 1, 0).unwrap();
    let e = vm.alloc(m, c, 1, 0).unwrap();
    vm.set_field(owner, 0, e).unwrap();
    vm.set_field(keeper, 0, e).unwrap();
    vm.assert_owned_by(owner, e).unwrap();
    vm.set_field(owner, 0, ObjRef::NULL).unwrap(); // leak via keeper
    let report = vm.collect().unwrap();
    assert!(matches!(
        report.violations[0].kind,
        ViolationKind::NotOwned { .. }
    ));
    assert_eq!(report.violations[0].class(), AssertionClass::Connectivity);
    assert!(report.halted);
}

// ---------------------------------------------------------------------
// Programmatic violation handler
// ---------------------------------------------------------------------

#[test]
fn handler_sees_every_violation() {
    let seen = Arc::new(AtomicUsize::new(0));
    let (mut vm, _h, _x) = leaky_vm(VmConfig::builder().report_once(false).build());
    let seen2 = Arc::clone(&seen);
    vm.set_violation_handler(move |v, registry| {
        assert!(v.render(registry).contains("asserted dead"));
        seen2.fetch_add(1, Ordering::SeqCst);
    });
    vm.collect().unwrap();
    vm.collect().unwrap();
    assert_eq!(seen.load(Ordering::SeqCst), 2);

    vm.clear_violation_handler();
    vm.collect().unwrap();
    assert_eq!(seen.load(Ordering::SeqCst), 2, "handler removed");
}

#[test]
fn handler_fires_for_implicit_collections_too() {
    let seen = Arc::new(AtomicUsize::new(0));
    let mut vm = Vm::new(
        VmConfig::builder()
            .heap_budget(64)
            .grow_on_oom(true)
            .build(),
    );
    let c = vm.register_class("T", &[]);
    let m = vm.main();
    let x = vm.alloc_rooted(m, c, 0, 0).unwrap();
    vm.assert_dead(x).unwrap();
    let seen2 = Arc::clone(&seen);
    vm.set_violation_handler(move |_, _| {
        seen2.fetch_add(1, Ordering::SeqCst);
    });
    // Allocation pressure triggers the collection that checks the bit.
    for _ in 0..40 {
        vm.alloc(m, c, 0, 8).unwrap();
    }
    assert!(seen.load(Ordering::SeqCst) >= 1);
}

// ---------------------------------------------------------------------
// QVM-style probes
// ---------------------------------------------------------------------

#[test]
fn probe_path_finds_live_objects() {
    let mut vm = Vm::new(VmConfig::builder().build());
    let c = vm.register_class("Node", &["next"]);
    let m = vm.main();
    let a = vm.alloc_rooted(m, c, 1, 0).unwrap();
    let b = vm.alloc(m, c, 1, 0).unwrap();
    vm.set_field(a, 0, b).unwrap();

    let path = vm.probe_path(b).unwrap().expect("b is reachable");
    let chain: Vec<ObjRef> = path.steps().iter().map(|s| s.object).collect();
    assert_eq!(chain, vec![a, b]);

    // Unreachable object: no path (even though still live pre-GC).
    vm.set_field(a, 0, ObjRef::NULL).unwrap();
    assert!(vm.probe_path(b).unwrap().is_none());
    assert!(!vm.probe_reachable(b).unwrap());
    assert!(vm.is_live(b), "probe does not sweep");
}

#[test]
fn probe_leaves_heap_state_clean() {
    // Probing must not leave marks that would confuse a later collection.
    let mut vm = Vm::new(VmConfig::builder().build());
    let c = vm.register_class("T", &["f"]);
    let m = vm.main();
    let root = vm.alloc_rooted(m, c, 1, 0).unwrap();
    let child = vm.alloc(m, c, 1, 0).unwrap();
    vm.set_field(root, 0, child).unwrap();
    let garbage = vm.alloc(m, c, 1, 0).unwrap();

    assert!(vm.probe_reachable(root).unwrap());
    assert!(!vm.probe_reachable(garbage).unwrap());

    // The collection after probing behaves normally.
    let report = vm.collect().unwrap();
    assert!(report.is_clean());
    assert!(vm.is_live(child));
    assert!(!vm.is_live(garbage));
    // And a second probe still works after the GC.
    assert!(vm.probe_reachable(child).unwrap());
}

#[test]
fn probe_instances_counts_reachable_only() {
    let mut vm = Vm::new(VmConfig::builder().build());
    let c = vm.register_class("Searcher", &[]);
    let other = vm.register_class("Other", &[]);
    let m = vm.main();
    for _ in 0..5 {
        vm.alloc_rooted(m, c, 0, 0).unwrap();
    }
    vm.alloc_rooted(m, other, 0, 0).unwrap();
    let _unreachable = vm.alloc(m, c, 0, 0).unwrap();
    assert_eq!(vm.probe_instances(c).unwrap(), 5);
    assert_eq!(vm.probe_instances(other).unwrap(), 1);
}

#[test]
fn probe_of_dead_handle_is_none() {
    let mut vm = Vm::new(VmConfig::builder().build());
    let c = vm.register_class("T", &[]);
    let m = vm.main();
    let x = vm.alloc(m, c, 0, 0).unwrap();
    vm.collect().unwrap();
    assert!(vm.probe_path(x).unwrap().is_none());
}

#[test]
fn explain_instances_gives_a_path_per_instance() {
    // The lusearch follow-up: the instance-limit report has no paths, so
    // explain_instances supplies them.
    let mut vm = Vm::new(VmConfig::builder().build());
    let searcher = vm.register_class("IndexSearcher", &[]);
    let thread_cls = vm.register_class("SearchThread", &["searcher"]);
    let m = vm.main();
    let mut expected = Vec::new();
    for _ in 0..4 {
        let t = vm.alloc_rooted(m, thread_cls, 1, 0).unwrap();
        let s = vm.alloc(m, searcher, 0, 0).unwrap();
        vm.set_field(t, 0, s).unwrap();
        expected.push(s);
    }
    let found = vm.explain_instances(searcher).unwrap();
    assert_eq!(found.len(), 4);
    for (obj, path) in &found {
        assert!(expected.contains(obj));
        assert!(path.passes_through(vm.registry(), "SearchThread"));
        assert_eq!(path.target(), Some(*obj));
    }
    // The heap is usable afterwards (marks cleared).
    assert!(vm.collect().unwrap().is_clean());
}

#[test]
fn incoming_references_enumerates_all_edges() {
    let mut vm = Vm::new(VmConfig::builder().build());
    let c = vm.register_class("N", &["a", "b"]);
    let m = vm.main();
    let p1 = vm.alloc_rooted(m, c, 2, 0).unwrap();
    let p2 = vm.alloc_rooted(m, c, 2, 0).unwrap();
    let x = vm.alloc(m, c, 2, 0).unwrap();
    vm.set_field(p1, 0, x).unwrap();
    vm.set_field(p1, 1, x).unwrap();
    vm.set_field(p2, 1, x).unwrap();

    let (edges, rooted) = vm.incoming_references(x).unwrap();
    assert!(!rooted);
    let mut got = edges.clone();
    got.sort();
    assert_eq!(got, vec![(p1, 0), (p1, 1), (p2, 1)]);

    // Rooting is reported separately.
    vm.add_root(m, x).unwrap();
    let (_, rooted) = vm.incoming_references(x).unwrap();
    assert!(rooted);

    // Dead targets are rejected.
    let dead = vm.alloc(m, c, 2, 0).unwrap();
    vm.collect().unwrap();
    assert!(vm.incoming_references(dead).is_err());
}

#[test]
fn probes_respect_halt() {
    let (mut vm, h, x) = leaky_vm(VmConfig::builder().reaction(Reaction::Halt).build());
    vm.collect().unwrap();
    let holder = vm.registry().lookup("Holder").unwrap();
    assert!(matches!(vm.probe_path(x), Err(VmError::Halted)));
    assert!(matches!(vm.probe_instances(holder), Err(VmError::Halted)));
    assert!(matches!(
        vm.probe_survey(&[h, x], &[holder]),
        Err(VmError::Halted)
    ));
    assert!(vm.heap().verify().is_empty());
    assert!(!vm.heap().has_flag(h, Flags::MARK).unwrap());
}

/// The three collector setups a survey must agree with single probes on.
fn survey_configs() -> [VmConfig; 3] {
    [
        VmConfig::builder().build(),
        VmConfig::builder().generational(4).build(),
        VmConfig::builder()
            .collector(CollectorKind::Copying)
            .build(),
    ]
}

/// A seeded random heap: three rounds of allocating objects of three
/// classes (some rooted), wiring random edges between live objects and
/// collecting — a major, then a minor where `config` is generational —
/// so that some handles are stale by the end. Returns the VM, every
/// handle it ever minted and the classes.
fn random_heap(seed: u64, config: VmConfig) -> (Vm, Vec<ObjRef>, Vec<ClassId>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let generational = config.generational.is_some();
    let mut vm = Vm::new(config);
    let shapes: [(&str, &[&str]); 3] = [("A", &["x", "y"]), ("B", &["x"]), ("C", &[])];
    let classes: Vec<ClassId> = shapes
        .iter()
        .map(|(name, fields)| vm.register_class(name, fields))
        .collect();
    let m = vm.main();
    let mut objs = Vec::new();
    for round in 0..3 {
        for _ in 0..rng.gen_range(5..30) {
            let k = rng.gen_range(0..3);
            let nrefs = shapes[k].1.len();
            let o = if rng.gen_bool(0.2) {
                vm.alloc_rooted(m, classes[k], nrefs, 0)
            } else {
                vm.alloc(m, classes[k], nrefs, 0)
            };
            objs.push(o.unwrap());
        }
        let live: Vec<ObjRef> = objs.iter().copied().filter(|&o| vm.is_live(o)).collect();
        for _ in 0..40 {
            let src = live[rng.gen_range(0..live.len())];
            let nrefs = vm.heap().get(src).unwrap().refs().len();
            if nrefs > 0 {
                let dst = if rng.gen_bool(0.2) {
                    ObjRef::NULL
                } else {
                    live[rng.gen_range(0..live.len())]
                };
                vm.set_field(src, rng.gen_range(0..nrefs), dst).unwrap();
            }
        }
        if round == 1 && generational {
            vm.collect_minor().unwrap();
        } else if round < 2 {
            vm.collect().unwrap();
        }
    }
    (vm, objs, classes)
}

/// A class id the VMs of `random_heap` never registered.
fn unregistered_class() -> ClassId {
    let mut other = Vm::new(VmConfig::builder().build());
    for name in ["P", "Q", "R", "S", "T"] {
        other.register_class(name, &[]);
    }
    other.register_class("U", &[])
}

#[test]
fn probe_survey_agrees_with_single_probes() {
    let unregistered = unregistered_class();
    for config in survey_configs() {
        for seed in 0..30 {
            let (mut vm, mut targets, mut classes) = random_heap(seed, config.clone());
            assert!(unregistered.as_u32() as usize >= vm.registry().len());
            classes.push(unregistered);
            targets.push(ObjRef::NULL);
            assert!(
                targets.iter().any(|&o| o.is_some() && !vm.is_live(o)),
                "seed {seed}: no stale handle"
            );
            let (reachable, counts) = vm.probe_survey(&targets, &classes).unwrap();
            assert_eq!(reachable.len(), targets.len());
            for (&t, &r) in targets.iter().zip(&reachable) {
                assert_eq!(r, vm.probe_reachable(t).unwrap(), "seed {seed}: {t:?}");
            }
            assert_eq!(counts.len(), classes.len());
            for (&c, &n) in classes.iter().zip(&counts) {
                assert_eq!(n, vm.probe_instances(c).unwrap(), "seed {seed}: {c:?}");
            }
            assert_eq!(counts.last(), Some(&0));
            // Nothing asked, nothing traced into an answer.
            assert_eq!(vm.probe_survey(&[], &[]).unwrap(), (vec![], vec![]));
        }
    }
}

#[test]
fn probe_survey_leaves_no_marks_behind() {
    let mut violations = 0;
    for config in survey_configs() {
        for seed in 0..20 {
            // Two identical heaps with identical assertions; only one is
            // surveyed before the next collection.
            let (mut probed, objs, classes) = random_heap(seed, config.clone());
            let (mut plain, _, _) = random_heap(seed, config.clone());
            for &o in objs.iter().step_by(3) {
                if probed.is_live(o) {
                    probed.assert_dead(o).unwrap();
                    plain.assert_dead(o).unwrap();
                }
            }
            probed.probe_survey(&objs, &classes).unwrap();
            assert!(probed.heap().verify().is_empty(), "seed {seed}");
            for (o, _) in probed.heap().iter() {
                assert!(!probed.heap().has_flag(o, Flags::MARK).unwrap());
            }
            let (a, b) = (probed.collect().unwrap(), plain.collect().unwrap());
            let summaries = |r: &gc_assertions::GcReport| -> Vec<String> {
                r.violations.iter().map(|v| v.summary()).collect()
            };
            assert_eq!(summaries(&a), summaries(&b), "seed {seed}");
            violations += a.violations.len();
            for &o in &objs {
                assert_eq!(probed.is_live(o), plain.is_live(o), "seed {seed}: {o:?}");
            }
        }
    }
    assert!(violations > 0, "no verdict to compare");
}
