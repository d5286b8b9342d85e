//! The semispace copying (Cheney-scan) root-mark strategy.
//!
//! The paper's assertion machinery (§2.2–2.5) is defined in terms of the
//! *trace*, not of MarkSweep: dead and unshared bits are checked when the
//! trace first (or again) reaches an object, instance counters tally first
//! visits, and the ownership pre-phase is its own bounded trace. This
//! module makes that claim executable with a second, structurally
//! different way to mark from the roots: on a [`SpaceKind::Semispace`]
//! heap, [`Collector`](crate::Collector)'s one cycle driver swaps the LIFO
//! drain for [`evacuate`] — survivors are **evacuated** to a to-space in
//! Cheney's breadth-first order, a forwarding address is installed per
//! object, and the spaces flip. Everything else in the cycle (pre-root
//! phase, invariant checks, sweep, statistics) is the driver's, shared
//! with mark-sweep. Every assertion check rides along at evacuation time:
//!
//! * [`TraceHooks::visit_new`] fires exactly once per object, when it is
//!   copied — same multiplicity as the mark-sweep first visit, in a
//!   different order;
//! * [`TraceHooks::visit_marked`] fires once per *extra* incoming edge
//!   (the "forwarding word already installed" case) — same multiplicity
//!   as mark-sweep re-visits;
//! * the §2.5.2 ownership phase runs unchanged as a bounded
//!   pre-evacuation pass on the sequential [`Tracer`](crate::Tracer),
//!   with ownee truncation; objects it marks are forwarded without
//!   rescanning, exactly as the sequential drain does not descend into
//!   already-marked objects;
//! * root-to-object violation paths are reconstructed from the scan
//!   frontier's first-arrival edges (a [`Provenance`] table), since a
//!   Cheney queue — unlike the §2.7 LIFO worklist — holds no path.
//!
//! Because the heap's [`ObjRef`] handles are relocation-stable (the
//! semispace indirection moves *addresses*, not slots), mutator
//! roots, assertion registrations, alloc-site tags and replay logs all
//! survive evacuation untouched. Copying changes *where* objects live and
//! how their death is effected (eviction by non-copy rather than sweep),
//! not *whether* they are live — all assertion verdicts are identical to
//! mark-sweep, which `crates/core/tests/copying_equivalence.rs` checks by
//! differential fuzzing.
//!
//! # Example
//!
//! ```
//! use gca_collector::{Collector, NoHooks};
//! use gca_heap::{Heap, SpaceKind};
//!
//! # fn main() -> Result<(), gca_heap::HeapError> {
//! let mut heap = Heap::with_space(SpaceKind::Semispace);
//! let c = heap.register_class("Node", &["next"]);
//! let a = heap.alloc(c, 1, 0)?;
//! let b = heap.alloc(c, 1, 0)?;
//! let dead = heap.alloc(c, 1, 0)?;
//! heap.set_ref_field(a, 0, b)?;
//!
//! // The same entry point as mark-sweep: the heap's space kind selects
//! // evacuation.
//! let mut gc = Collector::new();
//! let cycle = gc.collect(&mut heap, &[a], &mut NoHooks)?;
//! assert_eq!(cycle.objects_swept, 1); // only `dead` was unreachable
//! assert!(heap.is_valid(b), "handles are relocation-stable");
//! assert_eq!(heap.space().flips(), 1);
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;

#[cfg(doc)]
use gca_heap::SpaceKind;
use gca_heap::{Flags, Heap, HeapError, ObjRef};

use crate::collector::for_each_marked;
use crate::hooks::{TraceHooks, Visit};
use crate::tracer::{visit, Provenance, TraceCtx};

/// State of one Cheney scan: the FIFO *object* queue, the first-arrival
/// edges for path reconstruction (`None` in plain mode), and the counters.
struct Cheney<'a> {
    gray: VecDeque<ObjRef>,
    prov: Option<&'a mut Provenance>,
    marked: u64,
    edges: u64,
}

impl Cheney<'_> {
    /// Processes one scan-frontier edge `parent.field -> child`: evacuate
    /// on first arrival (calling `visit_new`), or report the extra edge
    /// (`visit_marked`) if the child's forwarding word is already
    /// installed — which is exactly what the MARK bit means here.
    fn edge<H: TraceHooks>(
        &mut self,
        heap: &mut Heap,
        hooks: &mut H,
        parent: ObjRef,
        field: Option<usize>,
        child: ObjRef,
    ) -> Result<(), HeapError> {
        let ctx = TraceCtx::from_provenance(self.prov.as_deref(), parent, child, field);
        let first = visit(heap, hooks, child, &ctx, |heap| {
            heap.evac_forward(child).map(drop)
        })?;
        let Some(action) = first else { return Ok(()) };
        self.marked += 1;
        if let (Some(prov), Some(f)) = (self.prov.as_deref_mut(), field) {
            prov.record(child, parent, f);
        }
        if action == Visit::Descend {
            self.gray.push_back(child);
        }
        Ok(())
    }
}

/// Marks from `roots` by breadth-first evacuation. The caller has opened
/// the evacuation ([`Heap::evac_begin`]) and run the pre-root phase; it
/// closes the evacuation after the sweep. Returns
/// `(objects_marked, edges_traced)` for the scan (excluding pre-root phase
/// work, which the tracer counts).
pub(crate) fn evacuate<H: TraceHooks>(
    heap: &mut Heap,
    roots: &[ObjRef],
    hooks: &mut H,
    prov: Option<&mut Provenance>,
) -> Result<(u64, u64), HeapError> {
    let mut scan = Cheney {
        gray: VecDeque::new(),
        prov,
        marked: 0,
        edges: 0,
    };
    if let Some(prov) = scan.prov.as_deref_mut() {
        prov.begin_cycle(heap.index_bound());
    }

    // Objects the pre-root phase already marked are forwarded up front,
    // in index order, *without* rescanning their fields — the exact
    // analogue of the sequential drain not descending into already-marked
    // objects. (With ownee truncation this also keeps the ownership
    // phase's bounded-collection property.)
    for_each_marked(heap, Flags::empty(), |heap, r| {
        heap.evac_forward(r).map(drop)
    })?;

    for &r in roots {
        if r.is_some() {
            scan.edge(heap, hooks, ObjRef::NULL, None, r)?;
        }
    }
    // Each gray object's fields are snapshot into one reused buffer: hooks
    // may borrow the heap mutably while they are walked.
    let mut fields: Vec<(usize, ObjRef)> = Vec::new();
    while let Some(obj) = scan.gray.pop_front() {
        fields.clear();
        fields.extend(
            heap.get(obj)?
                .refs()
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_some())
                .map(|(i, &c)| (i, c)),
        );
        for &(i, child) in &fields {
            scan.edges += 1;
            scan.edge(heap, hooks, obj, Some(i), child)?;
        }
    }
    Ok((scan.marked, scan.edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;
    use crate::path::HeapPath;
    use crate::tracer::Tracer;
    use crate::Collector;
    use gca_heap::{Flags, Object, SpaceKind};

    fn semispace_heap() -> Heap {
        Heap::with_space(SpaceKind::Semispace)
    }

    #[test]
    fn unreachable_objects_are_reclaimed() {
        let mut heap = semispace_heap();
        let c = heap.register_class("T", &["f"]);
        let root = heap.alloc(c, 1, 0).unwrap();
        let kept = heap.alloc(c, 1, 0).unwrap();
        let dead1 = heap.alloc(c, 1, 0).unwrap();
        let dead2 = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(root, 0, kept).unwrap();
        heap.set_ref_field(dead1, 0, dead2).unwrap();

        let mut gc = Collector::new();
        let cycle = gc.collect(&mut heap, &[root], &mut NoHooks).unwrap();
        assert_eq!(cycle.objects_marked, 2);
        assert_eq!(cycle.objects_swept, 2);
        assert!(heap.is_valid(root) && heap.is_valid(kept));
        assert!(!heap.is_valid(dead1) && !heap.is_valid(dead2));
        assert!(heap.verify().is_empty());
    }

    #[test]
    fn survivors_are_relocated_and_compacted() {
        let mut heap = semispace_heap();
        let c = heap.register_class("T", &["f"]);
        let root = heap.alloc(c, 1, 2).unwrap();
        let _hole = heap.alloc(c, 1, 50).unwrap(); // dies, leaves a hole
        let kept = heap.alloc(c, 1, 2).unwrap();
        heap.set_ref_field(root, 0, kept).unwrap();
        let before_root = heap.space().address_of(root.index()).unwrap();

        let mut gc = Collector::new();
        gc.collect(&mut heap, &[root], &mut NoHooks).unwrap();

        let after_root = heap.space().address_of(root.index()).unwrap();
        let after_kept = heap.space().address_of(kept.index()).unwrap();
        assert_ne!(before_root, after_root, "root moved to the other space");
        // BFS order: root first, then kept, contiguous (hole squeezed out).
        let root_words = heap.get(root).unwrap().size_words();
        assert_eq!(after_kept, after_root + root_words as u64);
        assert_eq!(
            heap.space().from_space_used(),
            (root_words + heap.get(kept).unwrap().size_words()) as u64
        );
    }

    #[test]
    fn handles_cycles_and_self_loops() {
        let mut heap = semispace_heap();
        let c = heap.register_class("T", &["f", "g"]);
        let a = heap.alloc(c, 2, 0).unwrap();
        let b = heap.alloc(c, 2, 0).unwrap();
        heap.set_ref_field(a, 0, b).unwrap();
        heap.set_ref_field(b, 0, a).unwrap();
        heap.set_ref_field(a, 1, a).unwrap();
        let mut gc = Collector::new();
        let cycle = gc.collect(&mut heap, &[a], &mut NoHooks).unwrap();
        assert_eq!(cycle.objects_marked, 2);
        assert_eq!(cycle.edges_traced, 3);
        assert_eq!(cycle.objects_swept, 0);
    }

    /// Hooks that record first visits, re-visits and paths breadth-first.
    #[derive(Default)]
    struct Recorder {
        new: Vec<ObjRef>,
        marked: Vec<ObjRef>,
        paths: Vec<(ObjRef, HeapPath)>,
    }

    impl TraceHooks for Recorder {
        fn wants_paths(&self) -> bool {
            true
        }
        fn visit_new(
            &mut self,
            heap: &mut Heap,
            obj: ObjRef,
            _p: Flags,
            ctx: &TraceCtx<'_>,
        ) -> Visit {
            self.new.push(obj);
            self.paths.push((obj, ctx.current_path(heap)));
            Visit::Descend
        }
        fn visit_marked(&mut self, _h: &mut Heap, obj: ObjRef, _p: Flags, _c: &TraceCtx<'_>) {
            self.marked.push(obj);
        }
    }

    #[test]
    fn visit_multiplicities_match_mark_sweep() {
        // diamond: root -> {l, r} -> shared ; one extra edge to shared.
        let mut heap = semispace_heap();
        let c = heap.register_class("T", &["a", "b"]);
        let root = heap.alloc(c, 2, 0).unwrap();
        let l = heap.alloc(c, 2, 0).unwrap();
        let r = heap.alloc(c, 2, 0).unwrap();
        let shared = heap.alloc(c, 2, 0).unwrap();
        heap.set_ref_field(root, 0, l).unwrap();
        heap.set_ref_field(root, 1, r).unwrap();
        heap.set_ref_field(l, 0, shared).unwrap();
        heap.set_ref_field(r, 0, shared).unwrap();

        let mut gc = Collector::new();
        let mut rec = Recorder::default();
        let cycle = gc.collect(&mut heap, &[root], &mut rec).unwrap();
        assert_eq!(rec.new.len(), 4, "one visit_new per object");
        assert_eq!(rec.marked, vec![shared], "one re-visit per extra edge");
        assert_eq!(cycle.edges_traced, 4);
        // Breadth-first order: root, then its children, then the leaf.
        assert_eq!(rec.new, vec![root, l, r, shared]);
    }

    #[test]
    fn paths_follow_first_arrival_edges() {
        // root -> left, root -> right -> leaf (as in the tracer test).
        let mut heap = semispace_heap();
        let c = heap.register_class("Node", &["l", "r"]);
        let root = heap.alloc(c, 2, 0).unwrap();
        let left = heap.alloc(c, 2, 0).unwrap();
        let right = heap.alloc(c, 2, 0).unwrap();
        let leaf = heap.alloc(c, 2, 0).unwrap();
        heap.set_ref_field(root, 0, left).unwrap();
        heap.set_ref_field(root, 1, right).unwrap();
        heap.set_ref_field(right, 0, leaf).unwrap();

        let mut gc = Collector::new();
        let mut rec = Recorder::default();
        gc.collect(&mut heap, &[root], &mut rec).unwrap();

        let path_leaf = &rec.paths.iter().find(|(o, _)| *o == leaf).unwrap().1;
        let chain: Vec<ObjRef> = path_leaf.steps().iter().map(|s| s.object).collect();
        assert_eq!(chain, vec![root, right, leaf]);
        assert_eq!(path_leaf.steps()[0].field, None);
        assert_eq!(path_leaf.steps()[1].field, Some(1)); // root.r
        assert_eq!(path_leaf.steps()[2].field, Some(0)); // right.l
    }

    #[test]
    fn sticky_flags_survive_and_per_gc_flags_clear() {
        let mut heap = semispace_heap();
        let c = heap.register_class("T", &[]);
        let root = heap.alloc(c, 0, 0).unwrap();
        heap.set_flag(root, Flags::DEAD | Flags::UNSHARED | Flags::OWNEE)
            .unwrap();
        heap.set_flag(root, Flags::OWNED).unwrap();
        let mut gc = Collector::new();
        gc.collect(&mut heap, &[root], &mut NoHooks).unwrap();
        assert!(!heap.has_flag(root, Flags::MARK).unwrap());
        assert!(!heap.has_flag(root, Flags::OWNED).unwrap());
        assert!(heap
            .has_flag(root, Flags::DEAD | Flags::UNSHARED | Flags::OWNEE)
            .unwrap());
    }

    /// Pre-root-phase hooks that mark one object's children in advance,
    /// simulating the ownership phase.
    struct Premarker {
        target: ObjRef,
    }

    impl TraceHooks for Premarker {
        fn pre_root_phase(
            &mut self,
            heap: &mut Heap,
            tracer: &mut Tracer,
        ) -> Result<(), HeapError> {
            tracer.push_children_of(heap, self.target)?;
            tracer.drain(heap, &mut NoHooks)?;
            Ok(())
        }
    }

    #[test]
    fn pre_root_phase_marks_are_forwarded_not_rescanned() {
        // unrooted -> child: the pre-phase marks `child`; it must survive
        // the evacuation (floating garbage, §2.5.2 trade-off) even though
        // no root reaches it, and be reclaimed next cycle.
        let mut heap = semispace_heap();
        let c = heap.register_class("T", &["f"]);
        let unrooted = heap.alloc(c, 1, 0).unwrap();
        let child = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(unrooted, 0, child).unwrap();
        let mut gc = Collector::new();
        let mut hooks = Premarker { target: unrooted };
        let cycle = gc.collect(&mut heap, &[], &mut hooks).unwrap();
        assert!(!heap.is_valid(unrooted));
        assert!(heap.is_valid(child), "pre-phase mark kept it resident");
        assert_eq!(cycle.pre_root_edges, 1);
        assert!(
            heap.space().address_of(child.index()).is_some(),
            "floating garbage was evacuated"
        );
        gc.collect(&mut heap, &[], &mut NoHooks).unwrap();
        assert!(!heap.is_valid(child));
    }

    /// Runs a census cycle, returning the survivors the pass reported.
    fn census<H: TraceHooks>(
        gc: &mut Collector,
        heap: &mut Heap,
        roots: &[ObjRef],
        hooks: &mut H,
    ) -> Vec<ObjRef> {
        let mut seen = Vec::new();
        let mut observe = |r: ObjRef, _: &Object| seen.push(r);
        gc.collect_with(heap, roots, hooks, 1, Some(&mut observe))
            .unwrap();
        seen
    }

    #[test]
    fn census_cycle_tallies_evacuated_objects() {
        let mut heap = semispace_heap();
        let c = heap.register_class("T", &["f"]);
        let root = heap.alloc(c, 1, 0).unwrap();
        let kept = heap.alloc(c, 1, 0).unwrap();
        let _dead = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(root, 0, kept).unwrap();
        let mut gc = Collector::new();
        let seen = census(&mut gc, &mut heap, &[root], &mut NoHooks);
        assert_eq!(seen, vec![root, kept]);
        for &r in &seen {
            assert!(heap.is_valid(r));
        }
        // A plain collect afterwards is unaffected.
        let cycle2 = gc.collect(&mut heap, &[root], &mut NoHooks).unwrap();
        assert_eq!(cycle2.objects_marked, 2);
    }

    #[test]
    fn census_counts_pre_root_phase_marks() {
        let mut heap = semispace_heap();
        let c = heap.register_class("T", &["f"]);
        let unrooted = heap.alloc(c, 1, 0).unwrap();
        let child = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(unrooted, 0, child).unwrap();
        let mut gc = Collector::new();
        let mut hooks = Premarker { target: unrooted };
        let seen = census(&mut gc, &mut heap, &[], &mut hooks);
        assert_eq!(seen, vec![child]);
    }

    #[test]
    fn empty_heap_collects_cleanly() {
        let mut heap = semispace_heap();
        let mut gc = Collector::new();
        let cycle = gc.collect(&mut heap, &[], &mut NoHooks).unwrap();
        assert_eq!(cycle.objects_marked, 0);
        assert_eq!(cycle.objects_swept, 0);
        assert_eq!(gc.stats().collections, 1);
    }

    #[test]
    fn allocation_between_cycles_lands_in_new_from_space() {
        let mut heap = semispace_heap();
        let c = heap.register_class("T", &[]);
        let root = heap.alloc(c, 0, 0).unwrap();
        let mut gc = Collector::new();
        gc.collect(&mut heap, &[root], &mut NoHooks).unwrap();
        let root_addr = heap.space().address_of(root.index()).unwrap();
        let fresh = heap.alloc(c, 0, 0).unwrap();
        let fresh_addr = heap.space().address_of(fresh.index()).unwrap();
        assert!(fresh_addr > root_addr, "bump-allocated after the survivors");
        assert!(heap.verify().is_empty());
        gc.collect(&mut heap, &[root, fresh], &mut NoHooks).unwrap();
        assert!(heap.is_valid(fresh));
        assert!(heap.verify().is_empty());
    }
}
