//! Failure paths of the collection cycle: a cycle that fails with a typed
//! heap error must be abandoned cleanly — `Heap::verify()` stays empty and
//! the following collection produces the verdicts of an undisturbed run —
//! whichever way the cycle marks from the roots, and whether it collects
//! the whole heap or the nursery.

use gc_assertions::{AssertionEngine, CheckCounters, VmConfig};
use gca_collector::{stale_mark_violations, Collector};
use gca_heap::{Flags, Heap, HeapError, SpaceKind};

/// Builds a heap with one violation of every trace-checked kind below the
/// root `a`, optionally runs a collection that fails on a stale root after
/// part of that graph has been marked (and its violations found), then
/// grows the graph and collects for real. Returns the sorted verdicts and
/// the check counters of that final collection.
fn verdicts_after(
    kind: SpaceKind,
    workers: usize,
    fail_first: bool,
) -> (Vec<String>, CheckCounters) {
    let mut heap = Heap::with_space(kind);
    let c = heap.register_class("C", &["f", "g"]);
    let mut gc = Collector::new();
    let mut engine = AssertionEngine::new(&VmConfig::builder().build());

    let stale = heap.alloc(c, 2, 0).unwrap();
    heap.free(stale).unwrap();

    // a -> dead (asserted dead, reachable); a -> shared <- dead (asserted
    // unshared, two incoming edges); owner -> ownee (owned), while
    // `orphan` is owned by `owner` but only reachable from `dead`.
    let alloc = |heap: &mut Heap| heap.alloc(c, 2, 0).unwrap();
    let a = alloc(&mut heap);
    let dead = alloc(&mut heap);
    let shared = alloc(&mut heap);
    let owner = alloc(&mut heap);
    let ownee = alloc(&mut heap);
    let orphan = alloc(&mut heap);
    heap.set_ref_field(a, 0, dead).unwrap();
    heap.set_ref_field(a, 1, shared).unwrap();
    heap.set_ref_field(dead, 0, shared).unwrap();
    heap.set_ref_field(dead, 1, orphan).unwrap();
    heap.set_ref_field(owner, 0, ownee).unwrap();
    engine.assert_dead(&mut heap, dead).unwrap();
    engine.assert_unshared(&mut heap, shared).unwrap();
    engine.assert_owned_by(&mut heap, owner, ownee).unwrap();
    engine.assert_owned_by(&mut heap, owner, orphan).unwrap();

    if fail_first {
        // Ordered so that every strategy reaches `a` before the stale
        // root: the LIFO drain pops the last root first.
        let roots = match kind {
            SpaceKind::Semispace => [owner, a, stale],
            SpaceKind::Paged => [stale, owner, a],
        };
        let err = gc
            .collect_with(&mut heap, &roots, &mut engine, workers, None)
            .unwrap_err();
        assert_eq!(err, HeapError::StaleRef(stale));
        assert_eq!(heap.verify(), Vec::<String>::new());
        let (violations, counters) = engine.drain();
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(counters, CheckCounters::default());
    }

    // `b` is only reachable through an object the failed cycle marked: a
    // leftover mark would hide it from the trace and let the sweep free it.
    let b = alloc(&mut heap);
    heap.set_ref_field(shared, 0, b).unwrap();
    let (cycle, _) = gc
        .collect_with(&mut heap, &[owner, a], &mut engine, workers, None)
        .unwrap();
    assert_eq!(cycle.objects_marked, 7);
    assert!(heap.is_valid(b));
    assert_eq!(heap.verify(), Vec::<String>::new());

    let (violations, counters) = engine.drain();
    let mut verdicts: Vec<String> = violations.iter().map(|v| format!("{:?}", v.kind)).collect();
    verdicts.sort();
    (verdicts, counters)
}

#[test]
fn failed_cycle_leaves_the_next_collection_undisturbed() {
    for (kind, workers) in [
        (SpaceKind::Paged, 1),
        (SpaceKind::Semispace, 1),
        (SpaceKind::Paged, 2),
    ] {
        let undisturbed = verdicts_after(kind, workers, false);
        assert_eq!(
            undisturbed.0.len(),
            3,
            "dead + shared + not-owned: {:?}",
            undisturbed.0
        );
        assert_eq!(
            verdicts_after(kind, workers, true),
            undisturbed,
            "{kind:?} with {workers} worker(s)"
        );
    }
}

/// The young scope's leg: the same graph, all of it young, and a minor
/// that fails on a stale root after marking `a`'s subgraph. Returns the
/// sorted verdicts and check counters of the major that follows, and the
/// slots live after it.
fn verdicts_after_minor(fail_minor: bool) -> (Vec<String>, CheckCounters, Vec<u32>) {
    let mut heap = Heap::new();
    let c = heap.register_class("C", &["f", "g"]);
    let mut gc = Collector::new();
    let mut engine = AssertionEngine::new(&VmConfig::builder().generational(4).build());

    let stale = heap.alloc(c, 2, 0).unwrap();
    heap.free(stale).unwrap();
    let alloc = |heap: &mut Heap| heap.alloc(c, 2, 0).unwrap();
    let a = alloc(&mut heap);
    let dead = alloc(&mut heap);
    let shared = alloc(&mut heap);
    let owner = alloc(&mut heap);
    let ownee = alloc(&mut heap);
    let orphan = alloc(&mut heap);
    let garbage = alloc(&mut heap);
    heap.set_ref_field(a, 0, dead).unwrap();
    heap.set_ref_field(a, 1, shared).unwrap();
    heap.set_ref_field(dead, 0, shared).unwrap();
    heap.set_ref_field(dead, 1, orphan).unwrap();
    heap.set_ref_field(owner, 0, ownee).unwrap();
    engine.assert_dead(&mut heap, dead).unwrap();
    engine.assert_unshared(&mut heap, shared).unwrap();
    engine.assert_owned_by(&mut heap, owner, ownee).unwrap();
    engine.assert_owned_by(&mut heap, owner, orphan).unwrap();

    if fail_minor {
        // The LIFO drain pops `a` first and marks its subgraph, then
        // `owner`'s, then trips on the stale root.
        let err = gc
            .collect_minor(&mut heap, &[stale, owner, a], &[], &mut engine, None)
            .unwrap_err();
        assert_eq!(err, HeapError::StaleRef(stale));
        assert_eq!(heap.verify(), Vec::<String>::new());
        assert_eq!(stale_mark_violations(&heap), Vec::<String>::new());
        assert!(heap.is_valid(garbage), "a failed minor frees nothing");
        assert!(!heap.has_flag(a, Flags::OLD).unwrap(), "nor promotes");
        engine.after_minor(&mut heap);
        let (violations, counters) = engine.drain();
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(counters, CheckCounters::default());
    }

    // `b` is only reachable through an object the failed minor marked.
    let b = alloc(&mut heap);
    heap.set_ref_field(shared, 0, b).unwrap();
    let cycle = gc.collect(&mut heap, &[owner, a], &mut engine).unwrap();
    assert_eq!(cycle.objects_marked, 7);
    assert!(heap.is_valid(b));
    assert!(!heap.is_valid(garbage));
    assert_eq!(heap.verify(), Vec::<String>::new());

    let (violations, counters) = engine.drain();
    let mut verdicts: Vec<String> = violations.iter().map(|v| format!("{:?}", v.kind)).collect();
    verdicts.sort();
    let live = heap.iter().map(|(r, _)| r.index()).collect();
    (verdicts, counters, live)
}

#[test]
fn failed_minor_leaves_the_next_major_undisturbed() {
    let undisturbed = verdicts_after_minor(false);
    assert_eq!(
        undisturbed.0.len(),
        3,
        "dead + shared + not-owned: {:?}",
        undisturbed.0
    );
    assert_eq!(verdicts_after_minor(true), undisturbed);
}
