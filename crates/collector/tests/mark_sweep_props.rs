//! Property-based tests: the collector reclaims exactly the unreachable
//! objects of arbitrary random object graphs, in both worklist modes.

use gca_collector::{Collector, NoHooks, TraceCtx, TraceHooks, Visit};
use gca_heap::{Flags, Heap, ObjRef, SpaceKind};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

/// Reference reachability: BFS over the heap from the roots.
fn reachable(heap: &Heap, roots: &[ObjRef]) -> HashSet<ObjRef> {
    let mut seen: HashSet<ObjRef> = HashSet::new();
    let mut queue: VecDeque<ObjRef> = roots.iter().copied().filter(|r| r.is_some()).collect();
    while let Some(r) = queue.pop_front() {
        if !seen.insert(r) {
            continue;
        }
        for &c in heap.get(r).unwrap().refs() {
            if c.is_some() && !seen.contains(&c) {
                queue.push_back(c);
            }
        }
    }
    seen
}

/// Builds a random graph: `n` objects, each with up to 4 reference fields
/// wired to random earlier-or-later objects, plus a random subset of roots.
fn build_graph(
    heap: &mut Heap,
    n: usize,
    edges: &[(usize, usize, usize)],
    root_picks: &[usize],
) -> (Vec<ObjRef>, Vec<ObjRef>) {
    let class = heap.register_class("N", &[]);
    let objs: Vec<ObjRef> = (0..n).map(|_| heap.alloc(class, 4, 1).unwrap()).collect();
    for &(from, field, to) in edges {
        let f = objs[from % n];
        let t = objs[to % n];
        heap.set_ref_field(f, field % 4, t).unwrap();
    }
    let roots: Vec<ObjRef> = root_picks.iter().map(|&i| objs[i % n]).collect();
    (objs, roots)
}

/// Hooks that exercise the path-tracking worklist and sanity-check every
/// path handed out: each step must be a live object and consecutive steps
/// must be connected by the named field.
struct PathValidator {
    checked: u64,
}

impl TraceHooks for PathValidator {
    fn wants_paths(&self) -> bool {
        true
    }
    fn visit_new(&mut self, heap: &mut Heap, obj: ObjRef, _p: Flags, ctx: &TraceCtx<'_>) -> Visit {
        let path = ctx.current_path(heap);
        let steps = path.steps();
        assert_eq!(steps.last().map(|s| s.object), Some(obj));
        for w in steps.windows(2) {
            let parent = w[0].object;
            let child = &w[1];
            let field = child.field.expect("non-root step has a field");
            assert_eq!(
                heap.ref_field(parent, field).unwrap(),
                child.object,
                "path step not connected by declared field"
            );
        }
        self.checked += 1;
        Visit::Descend
    }
}

/// Every flag but `MARK`, which belongs to the trace.
const NON_MARK_FLAGS: [Flags; 8] = [
    Flags::DEAD,
    Flags::UNSHARED,
    Flags::OWNEE,
    Flags::OWNED,
    Flags::REPORTED,
    Flags::OWNER,
    Flags::OLD,
    Flags::REMEMBERED,
];

/// Differential hooks: the header snapshot every visit hands over must be
/// the header itself — as the mark claim found it on a first visit, as it
/// stands on a re-visit, including what hooks wrote earlier in the trace.
#[derive(Default)]
struct SnapshotChecker {
    new: usize,
}

impl TraceHooks for SnapshotChecker {
    fn visit_new(&mut self, heap: &mut Heap, obj: ObjRef, prev: Flags, _c: &TraceCtx<'_>) -> Visit {
        assert!(
            !prev.contains(Flags::MARK),
            "first visit of a marked object"
        );
        assert_eq!(prev | Flags::MARK, heap.flags_of(obj).unwrap());
        if obj.index().is_multiple_of(2) {
            heap.set_flag(obj, Flags::REPORTED).unwrap();
        }
        self.new += 1;
        Visit::Descend
    }
    fn visit_marked(&mut self, heap: &mut Heap, obj: ObjRef, prev: Flags, _c: &TraceCtx<'_>) {
        assert_eq!(prev, heap.flags_of(obj).unwrap());
    }
}

#[test]
fn million_deep_chain_traced_without_stack_overflow() {
    // The tracer uses an explicit worklist, so recursion depth is not a
    // function of heap shape; a 1M-deep chain must trace fine in both
    // worklist modes.
    let mut heap = Heap::new();
    let c = heap.register_class("N", &["next"]);
    let mut head = heap.alloc(c, 1, 0).unwrap();
    for _ in 0..1_000_000 {
        let n = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(n, 0, head).unwrap();
        head = n;
    }
    let mut gc = Collector::new();
    let cycle = gc.collect(&mut heap, &[head], &mut NoHooks).unwrap();
    assert_eq!(cycle.objects_marked, 1_000_001);
    assert_eq!(cycle.objects_swept, 0);

    // Path-tracking mode: same, and the path to the tail is the chain.
    struct Deepest {
        max_depth: usize,
    }
    impl TraceHooks for Deepest {
        fn wants_paths(&self) -> bool {
            true
        }
        fn visit_new(
            &mut self,
            heap: &mut Heap,
            _obj: gca_heap::ObjRef,
            _prev: Flags,
            ctx: &TraceCtx<'_>,
        ) -> Visit {
            // Reconstructing full million-step paths per node would be
            // quadratic; just track that the machinery survives depth by
            // sampling the parent edge.
            if ctx.parent_edge().is_some() {
                self.max_depth += 1;
            }
            let _ = heap;
            Visit::Descend
        }
    }
    let mut hooks = Deepest { max_depth: 0 };
    let cycle = gc.collect(&mut heap, &[head], &mut hooks).unwrap();
    assert_eq!(cycle.objects_marked, 1_000_001);
    assert_eq!(hooks.max_depth, 1_000_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn collector_frees_exactly_unreachable(
        n in 1usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..4, 0usize..40), 0..120),
        root_picks in proptest::collection::vec(0usize..40, 0..6),
    ) {
        let mut heap = Heap::new();
        let (objs, roots) = build_graph(&mut heap, n, &edges, &root_picks);
        let expected_live = reachable(&heap, &roots);

        let mut gc = Collector::new();
        let cycle = gc.collect(&mut heap, &roots, &mut NoHooks).unwrap();

        for &o in &objs {
            prop_assert_eq!(
                heap.is_valid(o),
                expected_live.contains(&o),
                "object {} survival mismatch", o
            );
        }
        prop_assert_eq!(cycle.objects_marked as usize, expected_live.len());
        prop_assert_eq!(
            cycle.objects_swept as usize,
            objs.len() - expected_live.len()
        );
        prop_assert_eq!(heap.live_objects(), expected_live.len());
    }

    #[test]
    fn path_mode_matches_plain_mode_reclamation(
        n in 1usize..30,
        edges in proptest::collection::vec((0usize..30, 0usize..4, 0usize..30), 0..90),
        root_picks in proptest::collection::vec(0usize..30, 0..5),
    ) {
        // Same graph collected under both worklist disciplines must give
        // identical survivor sets, and every path handed to the hooks must
        // be a real heap path.
        let mut heap_a = Heap::new();
        let (objs_a, roots_a) = build_graph(&mut heap_a, n, &edges, &root_picks);
        let mut heap_b = Heap::new();
        let (objs_b, roots_b) = build_graph(&mut heap_b, n, &edges, &root_picks);

        let mut gc = Collector::new();
        gc.collect(&mut heap_a, &roots_a, &mut NoHooks).unwrap();
        let mut validator = PathValidator { checked: 0 };
        gc.collect(&mut heap_b, &roots_b, &mut validator).unwrap();

        for (&a, &b) in objs_a.iter().zip(&objs_b) {
            prop_assert_eq!(heap_a.is_valid(a), heap_b.is_valid(b));
        }
        prop_assert_eq!(validator.checked as usize, heap_b.live_objects());
    }

    #[test]
    fn visits_carry_the_header_snapshot(
        n in 1usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..4, 0usize..40), 0..120),
        root_picks in proptest::collection::vec(0usize..40, 0..6),
        flag_picks in proptest::collection::vec((0usize..40, 0usize..8), 0..60),
    ) {
        // The LIFO drain and the Cheney scan share the one visit step.
        for kind in [SpaceKind::Paged, SpaceKind::Semispace] {
            let mut heap = Heap::with_space(kind);
            let (objs, roots) = build_graph(&mut heap, n, &edges, &root_picks);
            for &(o, bit) in &flag_picks {
                heap.set_flag(objs[o % n], NON_MARK_FLAGS[bit]).unwrap();
            }
            let mut checker = SnapshotChecker::default();
            Collector::new().collect(&mut heap, &roots, &mut checker).unwrap();
            prop_assert_eq!(checker.new, reachable(&heap, &roots).len());
        }
    }

    #[test]
    fn consecutive_collections_idempotent(
        n in 1usize..30,
        edges in proptest::collection::vec((0usize..30, 0usize..4, 0usize..30), 0..60),
        root_picks in proptest::collection::vec(0usize..30, 0..5),
    ) {
        let mut heap = Heap::new();
        let (_objs, roots) = build_graph(&mut heap, n, &edges, &root_picks);
        let mut gc = Collector::new();
        let first = gc.collect(&mut heap, &roots, &mut NoHooks).unwrap();
        let second = gc.collect(&mut heap, &roots, &mut NoHooks).unwrap();
        // After one collection the heap is a fixpoint: nothing else dies.
        prop_assert_eq!(second.objects_swept, 0);
        prop_assert_eq!(second.objects_marked, first.objects_marked);
    }
}
