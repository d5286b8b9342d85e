//! Semantics of `assert-ownedby` (§2.5.2): the ownership phase, deferred
//! ownee processing, disjointness warnings, dead-owner floating garbage,
//! and the strict-owner-lifetime extension.

mod common;

use gc_assertions::{CollectorKind, Flags, HeapError, ObjRef, ViolationKind, Vm, VmError};

fn vm() -> Vm {
    Vm::new(common::cfg().build())
}

/// Container with three element slots, a cache with one slot.
fn container_setup(vm: &mut Vm) -> (ObjRef, ObjRef, Vec<ObjRef>) {
    let container = vm.register_class("Container", &["e0", "e1", "e2"]);
    let cache = vm.register_class("Cache", &["hit"]);
    let elem = vm.register_class("Elem", &["data"]);
    let m = vm.main();
    let cont = vm.alloc_rooted(m, container, 3, 0).unwrap();
    let cache_obj = vm.alloc_rooted(m, cache, 1, 0).unwrap();
    let mut elems = Vec::new();
    for i in 0..3 {
        let e = vm.alloc(m, elem, 1, 0).unwrap();
        vm.set_field(cont, i, e).unwrap();
        vm.assert_owned_by(cont, e).unwrap();
        elems.push(e);
    }
    (cont, cache_obj, elems)
}

#[test]
fn owned_elements_pass() {
    let mut vm = vm();
    let (_cont, _cache, _elems) = container_setup(&mut vm);
    let report = vm.collect().unwrap();
    assert!(report.is_clean());
    assert_eq!(report.counters.owners_scanned, 1);
    assert_eq!(report.counters.ownees_checked, 3);
}

#[test]
fn cached_alias_is_fine_while_container_path_exists() {
    // The definition: at least ONE path must pass through the owner. An
    // extra cache alias is allowed.
    let mut vm = vm();
    let (_cont, cache, elems) = container_setup(&mut vm);
    vm.set_field(cache, 0, elems[1]).unwrap();
    assert!(vm.collect().unwrap().is_clean());
}

#[test]
fn element_only_reachable_from_cache_fires() {
    // The leak pattern from the paper: removed from the container, still
    // cached in a hash table.
    let mut vm = vm();
    let (cont, cache, elems) = container_setup(&mut vm);
    vm.set_field(cache, 0, elems[1]).unwrap();
    vm.set_field(cont, 1, ObjRef::NULL).unwrap(); // removed from container

    let report = vm.collect().unwrap();
    assert_eq!(report.violations.len(), 1);
    match &report.violations[0].kind {
        ViolationKind::NotOwned {
            ownee,
            ownee_class,
            owner,
            owner_class,
        } => {
            assert_eq!(*ownee, elems[1]);
            assert_eq!(ownee_class, "Elem");
            assert_eq!(*owner, cont);
            assert_eq!(owner_class, "Container");
        }
        other => panic!("wrong kind {other:?}"),
    }
    // The path goes through the cache — the reference to clear.
    assert!(report.violations[0]
        .path
        .passes_through(vm.registry(), "Cache"));
}

#[test]
fn removed_and_released_is_clean() {
    // Legitimate removal: the program releases the ownership assertion
    // when it takes the element out for good.
    let mut vm = vm();
    let (cont, cache, elems) = container_setup(&mut vm);
    vm.set_field(cache, 0, elems[1]).unwrap();
    vm.set_field(cont, 1, ObjRef::NULL).unwrap();
    assert!(vm.release_ownee(elems[1]).unwrap());
    assert!(vm.collect().unwrap().is_clean());
}

#[test]
fn ownee_dying_entirely_is_clean_and_retired() {
    let mut vm = vm();
    let (cont, _cache, elems) = container_setup(&mut vm);
    vm.set_field(cont, 2, ObjRef::NULL).unwrap(); // truly dropped
    let report = vm.collect().unwrap();
    assert!(report.is_clean());
    assert!(!vm.is_live(elems[2]));
    // The pair was retired: only 2 ownees remain registered.
    assert_eq!(vm.ownee_count(), 2);
}

#[test]
fn ownee_reachable_through_sibling_ownee_counts_as_owned() {
    // owner -> e0 -> e1 (e1 only reachable via e0): the deferred-queue
    // processing must still credit e1 as owned.
    let mut vm = vm();
    let cls = vm.register_class("C", &["a", "b"]);
    let m = vm.main();
    let owner = vm.alloc_rooted(m, cls, 2, 0).unwrap();
    let e0 = vm.alloc(m, cls, 2, 0).unwrap();
    vm.set_field(owner, 0, e0).unwrap();
    let e1 = vm.alloc(m, cls, 2, 0).unwrap();
    vm.set_field(e0, 0, e1).unwrap();
    vm.assert_owned_by(owner, e0).unwrap();
    vm.assert_owned_by(owner, e1).unwrap();
    let report = vm.collect().unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.counters.deferred_ownees_processed, 2);
}

#[test]
fn two_disjoint_owners_pass() {
    let mut vm = vm();
    let cls = vm.register_class("C", &["x"]);
    let m = vm.main();
    let o1 = vm.alloc_rooted(m, cls, 1, 0).unwrap();
    let o2 = vm.alloc_rooted(m, cls, 1, 0).unwrap();
    let e1 = vm.alloc(m, cls, 1, 0).unwrap();
    vm.set_field(o1, 0, e1).unwrap();
    let e2 = vm.alloc(m, cls, 1, 0).unwrap();
    vm.set_field(o2, 0, e2).unwrap();
    vm.assert_owned_by(o1, e1).unwrap();
    vm.assert_owned_by(o2, e2).unwrap();
    let report = vm.collect().unwrap();
    assert!(report.is_clean());
    assert_eq!(report.counters.owners_scanned, 2);
}

#[test]
fn overlapping_owner_regions_warn_improper_use() {
    // o1's region contains an ownee of o2: disjointness violated.
    // o1 -> mid -> e2 where e2 is owned by o2.
    let run = |gc_threads: usize| {
        let mut vm = Vm::new(common::cfg().gc_threads(gc_threads).build());
        let cls = vm.register_class("C", &["x", "y"]);
        let m = vm.main();
        let o1 = vm.alloc_rooted(m, cls, 2, 0).unwrap();
        let o2 = vm.alloc_rooted(m, cls, 2, 0).unwrap();
        let mid = vm.alloc(m, cls, 2, 0).unwrap();
        vm.set_field(o1, 0, mid).unwrap();
        let e2 = vm.alloc(m, cls, 2, 0).unwrap();
        vm.set_field(mid, 0, e2).unwrap();
        vm.set_field(o2, 0, e2).unwrap();
        let e1 = vm.alloc(m, cls, 2, 0).unwrap();
        vm.set_field(o1, 1, e1).unwrap();
        vm.assert_owned_by(o1, e1).unwrap();
        vm.assert_owned_by(o2, e2).unwrap();
        (vm.collect().unwrap(), o1, e2)
    };

    let (report, o1, e2) = run(1);
    let improper: Vec<_> = report
        .violations
        .iter()
        .filter(|v| matches!(v.kind, ViolationKind::ImproperOwnership { .. }))
        .collect();
    // Whether the warning fires depends on scan order (the paper has the
    // same property); with o1 scanned first, reaching e2 via mid fires.
    assert!(
        !improper.is_empty(),
        "o1 is scanned first and reaches o2's ownee: {report}"
    );
    match &improper[0].kind {
        ViolationKind::ImproperOwnership {
            ownee,
            scanned_owner,
            ..
        } => {
            assert_eq!(*ownee, e2);
            assert_eq!(*scanned_owner, o1);
        }
        _ => unreachable!(),
    }

    // The ownership phase runs once, sequentially, whatever marks from
    // the roots afterwards: with two tracing workers the scan-order
    // verdicts — paths included — and all six check counters are
    // identical, not merely equivalent. (The Cheney scan has one worker.)
    if common::corpus_collector() == CollectorKind::MarkSweep {
        let (par, ..) = run(2);
        assert_eq!(par.violations, report.violations);
        assert_eq!(par.counters, report.counters);
    }
}

#[test]
fn foreign_ownee_truncation_keeps_its_subgraph_alive() {
    // o1 -> e2 -> child, where e2 is o2's ownee but o2 does not reference
    // it. o1's scan marks e2 and truncates there; nothing ever credits e2,
    // so nothing resumes below it — and its mark hides it from the root
    // scan. `child` is reachable all the same and must survive.
    let mut vm = vm();
    let cls = vm.register_class("C", &["x", "y"]);
    let m = vm.main();
    let o1 = vm.alloc_rooted(m, cls, 2, 0).unwrap();
    let o2 = vm.alloc_rooted(m, cls, 2, 0).unwrap();
    let e1 = vm.alloc(m, cls, 2, 0).unwrap();
    vm.set_field(o1, 1, e1).unwrap();
    vm.assert_owned_by(o1, e1).unwrap();
    let e2 = vm.alloc(m, cls, 2, 0).unwrap();
    let child = vm.alloc(m, cls, 2, 0).unwrap();
    vm.set_field(e2, 0, child).unwrap();
    vm.set_field(o1, 0, e2).unwrap();
    vm.assert_owned_by(o2, e2).unwrap();
    vm.assert_dead(child).unwrap();

    let report = vm.collect().unwrap();
    assert!(vm.is_live(child), "reachable through o1.x -> e2.x");
    assert_eq!(vm.heap().verify(), Vec::<String>::new());
    let kinds: Vec<_> = report.violations.iter().map(|v| &v.kind).collect();
    assert!(
        matches!(
            kinds[..],
            [
                ViolationKind::ImproperOwnership { .. },
                ViolationKind::DeadReachable { .. }
            ]
        ),
        "the resumed scan checks what it reaches: {report}"
    );
}

#[test]
fn encountering_another_owner_truncates_scan() {
    // o1 -> o2 -> e2: scanning from o1 stops at o2, so e2 is only
    // credited through o2's own scan — and the assertion holds.
    let mut vm = vm();
    let cls = vm.register_class("C", &["x"]);
    let m = vm.main();
    let o1 = vm.alloc_rooted(m, cls, 1, 0).unwrap();
    let o2 = vm.alloc(m, cls, 1, 0).unwrap();
    vm.set_field(o1, 0, o2).unwrap();
    let e2 = vm.alloc(m, cls, 1, 0).unwrap();
    vm.set_field(o2, 0, e2).unwrap();
    vm.assert_owned_by(o2, e2).unwrap();
    let report = vm.collect().unwrap();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn dead_owner_is_collected_but_its_subgraph_floats_one_gc() {
    // §2.5.2: the owner is never marked by its own scan, so an
    // unreachable owner dies this GC; objects reachable only from it
    // survive until the next GC (memory pressure trade-off).
    let mut vm = vm();
    let cls = vm.register_class("C", &["x"]);
    let m = vm.main();
    let owner = vm.alloc(m, cls, 1, 0).unwrap();
    let slot = vm.add_root(m, owner).unwrap();
    let e = vm.alloc(m, cls, 1, 0).unwrap();
    vm.set_field(owner, 0, e).unwrap();
    vm.assert_owned_by(owner, e).unwrap();
    assert!(vm.collect().unwrap().is_clean());

    // Drop the owner.
    vm.set_root(m, slot, ObjRef::NULL).unwrap();
    let report = vm.collect().unwrap();
    assert!(report.is_clean());
    assert!(!vm.is_live(owner), "owner collected immediately");
    assert!(vm.is_live(e), "ownee floats for one GC");
    assert_eq!(vm.owner_count(), 0, "pair retired");

    // The floating garbage is reclaimed by the following collection.
    vm.collect().unwrap();
    assert!(!vm.is_live(e));
}

#[test]
fn strict_owner_lifetime_extension_reports_survivors() {
    let mut vm = Vm::new(common::cfg().strict_owner_lifetime(true).build());
    let cls = vm.register_class("C", &["x"]);
    let keeper_cls = vm.register_class("Keeper", &["k"]);
    let m = vm.main();
    let owner = vm.alloc(m, cls, 1, 0).unwrap();
    let slot = vm.add_root(m, owner).unwrap();
    let e = vm.alloc(m, cls, 1, 0).unwrap();
    vm.set_field(owner, 0, e).unwrap();
    // Another object also keeps `e` alive.
    let keeper = vm.alloc_rooted(m, keeper_cls, 1, 0).unwrap();
    vm.set_field(keeper, 0, e).unwrap();
    vm.assert_owned_by(owner, e).unwrap();
    assert!(vm.collect().unwrap().is_clean());

    vm.set_root(m, slot, ObjRef::NULL).unwrap();
    let report = vm.collect().unwrap();
    assert_eq!(report.violations.len(), 1);
    match &report.violations[0].kind {
        ViolationKind::OwneeOutlivedOwner {
            ownee, owner_class, ..
        } => {
            assert_eq!(*ownee, e);
            assert_eq!(owner_class, "C");
        }
        other => panic!("wrong kind {other:?}"),
    }
}

#[test]
fn ownership_conflicts_rejected_at_registration() {
    let mut vm = vm();
    let cls = vm.register_class("C", &[]);
    let m = vm.main();
    let a = vm.alloc_rooted(m, cls, 0, 0).unwrap();
    let b = vm.alloc_rooted(m, cls, 0, 0).unwrap();
    let c = vm.alloc_rooted(m, cls, 0, 0).unwrap();
    assert!(vm.assert_owned_by(a, a).is_err());
    vm.assert_owned_by(a, b).unwrap();
    assert!(vm.assert_owned_by(b, c).is_err(), "ownee cannot be owner");
    assert!(vm.assert_owned_by(c, a).is_err(), "owner cannot be ownee");
}

#[test]
fn ownee_cycles_inside_owner_region_are_handled() {
    // owner -> e0 <-> e1 (ownees point at each other): the truncation at
    // ownees plus the deferred queue must terminate and credit both.
    let mut vm = vm();
    let cls = vm.register_class("C", &["a", "b"]);
    let m = vm.main();
    let owner = vm.alloc_rooted(m, cls, 2, 0).unwrap();
    let e0 = vm.alloc(m, cls, 2, 0).unwrap();
    vm.set_field(owner, 0, e0).unwrap();
    let e1 = vm.alloc(m, cls, 2, 0).unwrap();
    vm.set_field(e0, 0, e1).unwrap();
    vm.set_field(e1, 0, e0).unwrap(); // back edge
    vm.assert_owned_by(owner, e0).unwrap();
    vm.assert_owned_by(owner, e1).unwrap();
    let report = vm.collect().unwrap();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn back_edge_into_other_owner_region_does_not_false_positive() {
    // The SPECjbb shape: two order tables (owners), each owning an order;
    // each order points at a shared Customer whose lastOrder points at the
    // *other* table's order. The back edges cross owner regions below the
    // ownee level, which must neither warn (the owner regions proper are
    // disjoint) nor mask the ownership verdicts.
    let mut vm = vm();
    let table_cls = vm.register_class("Table", &["slot"]);
    let order_cls = vm.register_class("Order", &["customer"]);
    let cust_cls = vm.register_class("Customer", &["lastOrderA", "lastOrderB"]);
    let m = vm.main();
    let t1 = vm.alloc_rooted(m, table_cls, 1, 0).unwrap();
    let t2 = vm.alloc_rooted(m, table_cls, 1, 0).unwrap();
    let cust = vm.alloc_rooted(m, cust_cls, 2, 0).unwrap();
    let o1 = vm.alloc(m, order_cls, 1, 0).unwrap();
    vm.set_field(t1, 0, o1).unwrap();
    let o2 = vm.alloc(m, order_cls, 1, 0).unwrap();
    vm.set_field(t2, 0, o2).unwrap();
    vm.set_field(o1, 0, cust).unwrap();
    vm.set_field(o2, 0, cust).unwrap();
    vm.set_field(cust, 0, o1).unwrap();
    vm.set_field(cust, 1, o2).unwrap();
    vm.assert_owned_by(t1, o1).unwrap();
    vm.assert_owned_by(t2, o2).unwrap();

    let report = vm.collect().unwrap();
    assert!(
        report.is_clean(),
        "both orders are properly owned: {report}"
    );

    // Now remove o2 from its table: only the back edge keeps it alive —
    // a genuine leak that must be the one and only violation.
    vm.set_field(t2, 0, gc_assertions::ObjRef::NULL).unwrap();
    let report = vm.collect().unwrap();
    assert_eq!(report.violations.len(), 1, "{report}");
    match &report.violations[0].kind {
        ViolationKind::NotOwned { ownee, .. } => assert_eq!(*ownee, o2),
        other => panic!("wrong kind {other:?}"),
    }
}

#[test]
fn large_ownee_set_binary_search_scales() {
    // ~1000 ownees in one container; checked in a single pass.
    let mut vm = Vm::new(common::cfg().heap_budget(1 << 22).build());
    let arr = vm.register_class("Array", &[]);
    let elem = vm.register_class("Elem", &[]);
    let m = vm.main();
    let n = 1000;
    let cont = vm.alloc_rooted(m, arr, n, 0).unwrap();
    for i in 0..n {
        let e = vm.alloc(m, elem, 0, 0).unwrap();
        vm.set_field(cont, i, e).unwrap();
        vm.assert_owned_by(cont, e).unwrap();
    }
    let report = vm.collect().unwrap();
    assert!(report.is_clean());
    assert_eq!(report.counters.ownees_checked, n as u64);
    assert_eq!(vm.ownee_count(), n);
}

#[test]
fn failed_registration_leaves_the_table_untouched() {
    // A rejected `assert_owned_by` must be a no-op: with a slot-keyed
    // table, a stale registration would be credited to the slot's next
    // tenant, and a dead handle that was never swept is never retired.
    let mut vm = vm();
    let cls = vm.register_class("C", &["x"]);
    let m = vm.main();
    let owner = vm.alloc_rooted(m, cls, 1, 0).unwrap();
    let stale = vm.alloc(m, cls, 1, 0).unwrap();
    vm.collect().unwrap();
    assert!(!vm.is_live(stale));

    assert!(matches!(
        vm.assert_owned_by(owner, stale),
        Err(VmError::Heap(HeapError::StaleRef(_)))
    ));
    assert!(vm.assert_owned_by(owner, ObjRef::NULL).is_err());
    assert!(vm.assert_owned_by(stale, owner).is_err());
    assert_eq!((vm.owner_count(), vm.ownee_count()), (0, 0));
    let flags = vm.heap().flags_of(owner).unwrap();
    assert!(!flags.intersects(Flags::OWNER | Flags::OWNEE), "{flags:?}");
    assert_eq!(vm.collect().unwrap().counters.owners_scanned, 0);

    // A failed *move* leaves the ownee with its old owner.
    let e = vm.alloc(m, cls, 1, 0).unwrap();
    vm.set_field(owner, 0, e).unwrap();
    vm.assert_owned_by(owner, e).unwrap();
    assert!(vm.assert_owned_by(stale, e).is_err());
    assert_eq!((vm.owner_count(), vm.ownee_count()), (1, 1));
    let report = vm.collect().unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.counters.ownees_checked, 1);
}
