//! The collection cycle: one driver for every root-mark strategy and for
//! both scopes, the whole heap and the nursery.

use std::time::{Duration, Instant};

use gca_heap::{slots_of, Flags, Heap, HeapError, ObjRef, SpaceKind};

use crate::census::SurvivorVisitor;
use crate::hooks::{TraceHooks, Visit};
use crate::stats::{CycleStats, GcStats, MinorStats};
use crate::tracer::{Provenance, TraceCtx, Tracer};

/// How a cycle marks from the roots — its only strategy-specific step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RootMark {
    /// The path-tagged LIFO drain of §2.7 ([`Tracer::drain`]).
    Lifo,
    /// Breadth-first evacuation ([`crate::copying`]).
    Cheney,
    /// Work-stealing mark with this many workers
    /// ([`TraceHooks::mark_roots_parallel`]).
    Parallel(usize),
}

/// What a cycle collects; it follows from the entry point called.
#[derive(Debug, Clone, Copy)]
enum Scope<'a> {
    /// The whole heap ([`Collector::collect_with`]).
    Full,
    /// The nursery ([`Collector::collect_minor`]): `OLD` objects are
    /// immortal, and the fields of the `remembered` sources are roots.
    Young { remembered: &'a [ObjRef] },
}

/// The hooks of a young-scope cycle: the caller's `swept` alone (a minor
/// checks nothing), and the trace stops at every `OLD` (immortal) object.
struct Young<'h, H>(&'h mut H);

impl<H: TraceHooks> TraceHooks for Young<'_, H> {
    fn visit_new(&mut self, _: &mut Heap, _: ObjRef, prev: Flags, _: &TraceCtx<'_>) -> Visit {
        if prev.contains(Flags::OLD) {
            Visit::Skip
        } else {
            Visit::Descend
        }
    }

    fn swept_interest(&self) -> Flags {
        self.0.swept_interest()
    }

    fn swept(&mut self, heap: &Heap, obj: ObjRef) {
        self.0.swept(heap, obj);
    }
}

/// A full-heap tracing collector.
///
/// The paper uses Jikes RVM's MarkSweep plan because it is a *full-heap*
/// collector that checks every assertion at every collection (§2.2), and
/// notes that the assertions "work with any tracing collector"; this is
/// the Rust analogue of both. One cycle driver sequences every collection;
/// how it marks from the roots follows from what it is given: a
/// [`SpaceKind::Semispace`] heap is evacuated by a Cheney scan, a
/// [`SpaceKind::Paged`] heap is marked in place — by the sequential
/// path-tracking tracer, or by work-stealing workers when the caller has
/// more than one tracing thread. The collector owns a reusable [`Tracer`]
/// and cumulative [`GcStats`].
///
/// # Example
///
/// ```
/// use gca_collector::{Collector, NoHooks};
/// use gca_heap::Heap;
///
/// # fn main() -> Result<(), gca_heap::HeapError> {
/// let mut heap = Heap::new();
/// let c = heap.register_class("T", &["f"]);
/// let root = heap.alloc(c, 1, 0)?;
/// let garbage = heap.alloc(c, 1, 0)?;
/// let mut gc = Collector::new();
/// let cycle = gc.collect(&mut heap, &[root], &mut NoHooks)?;
/// assert_eq!(cycle.objects_marked, 1);
/// assert_eq!(cycle.objects_swept, 1);
/// assert!(!heap.is_valid(garbage));
/// assert_eq!(gc.stats().collections, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Collector {
    tracer: Tracer,
    /// First-arrival edges of the Cheney scan, for path reconstruction.
    prov: Provenance,
    stats: GcStats,
}

impl Collector {
    /// Creates a collector with zeroed statistics.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Cumulative statistics across all full collections.
    pub fn stats(&self) -> &GcStats {
        &self.stats
    }

    /// Zeroes the cumulative statistics (used between benchmark
    /// iterations).
    pub fn reset_stats(&mut self) {
        self.stats = GcStats::new();
    }

    /// Runs one full collection cycle with a single tracing thread and no
    /// census: `gc_begin`, the hooks' pre-root phase, root scan +
    /// transitive mark, `trace_done`, sweep, `gc_end`.
    ///
    /// `roots` is the stop-the-world snapshot of all thread stacks and
    /// global variables. Unreachable objects are freed; survivors have
    /// their per-GC flags ([`Flags::PER_GC`]) cleared for the next cycle.
    ///
    /// # Errors
    ///
    /// As for [`Collector::collect_with`].
    pub fn collect<H: TraceHooks>(
        &mut self,
        heap: &mut Heap,
        roots: &[ObjRef],
        hooks: &mut H,
    ) -> Result<CycleStats, HeapError> {
        Ok(self.collect_with(heap, roots, hooks, 1, None)?.0)
    }

    /// Runs one full collection cycle with `workers` tracing threads.
    ///
    /// With `survivors`, a heap census rides along: after the trace and
    /// before the sweep, every object the sweep is about to keep is handed
    /// to it exactly once (see [`SurvivorVisitor`]) — including objects only
    /// a hooks-driven pre-root drain marked.
    ///
    /// Returns the cycle statistics and the busy time of each tracing
    /// worker during the root mark (a sequential mark is one worker busy
    /// for the whole mark span).
    ///
    /// # Errors
    ///
    /// Propagates reference-validity errors from tracing, which indicate a
    /// broken collector invariant (e.g. a caller-supplied stale root). The
    /// failed cycle is abandoned cleanly: no per-GC flag, open evacuation
    /// or hook state survives it, the heap still verifies, and the next
    /// collection behaves as if this one had never started.
    pub fn collect_with<H: TraceHooks>(
        &mut self,
        heap: &mut Heap,
        roots: &[ObjRef],
        hooks: &mut H,
        workers: usize,
        survivors: Option<&mut SurvivorVisitor<'_>>,
    ) -> Result<(CycleStats, Vec<Duration>), HeapError> {
        let strategy = match heap.space_kind() {
            SpaceKind::Semispace => RootMark::Cheney,
            SpaceKind::Paged if workers > 1 => RootMark::Parallel(workers),
            SpaceKind::Paged => RootMark::Lifo,
        };
        let (cycle, worker_busy, _) =
            self.run(heap, roots, hooks, strategy, Scope::Full, survivors)?;
        self.stats.absorb(&cycle);
        Ok((cycle, worker_busy))
    }

    /// Runs a minor (nursery) collection: the same cycle restricted to the
    /// young objects, the live ones without [`Flags::OLD`]. It traces from
    /// `roots` and the fields of the valid `remembered` sources (consuming
    /// their [`Flags::REMEMBERED`] bit), stopping at old objects, frees the
    /// unmarked young objects and promotes the marked ones in place.
    /// `hooks` gets only [`TraceHooks::swept`] calls; `survivors` sees the
    /// young survivors. Minors are not folded into [`Collector::stats`].
    ///
    /// # Errors
    ///
    /// As for [`Collector::collect_with`].
    pub fn collect_minor<H: TraceHooks>(
        &mut self,
        heap: &mut Heap,
        roots: &[ObjRef],
        remembered: &[ObjRef],
        hooks: &mut H,
        survivors: Option<&mut SurvivorVisitor<'_>>,
    ) -> Result<MinorStats, HeapError> {
        let remembered_scanned = remembered.iter().filter(|&&r| heap.is_valid(r)).count();
        let (scope, young) = (Scope::Young { remembered }, &mut Young(hooks));
        let (cycle, _, promoted) =
            self.run(heap, roots, young, RootMark::Lifo, scope, survivors)?;
        Ok(MinorStats {
            total: cycle.total,
            promoted,
            objects_swept: cycle.objects_swept,
            words_swept: cycle.words_swept,
            remembered_scanned: remembered_scanned as u64,
            objects_marked: cycle.objects_marked,
            edges_traced: cycle.edges_traced,
        })
    }

    /// Runs the cycle driver; a cycle that fails is abandoned cleanly.
    fn run<H: TraceHooks>(
        &mut self,
        heap: &mut Heap,
        roots: &[ObjRef],
        hooks: &mut H,
        strategy: RootMark,
        scope: Scope<'_>,
        survivors: Option<&mut SurvivorVisitor<'_>>,
    ) -> Result<(CycleStats, Vec<Duration>, u64), HeapError> {
        let result = self.cycle(heap, roots, hooks, strategy, scope, survivors);
        if result.is_err() {
            if strategy == RootMark::Cheney {
                // Keep every object still in the heap resident across the
                // flip that closes the evacuation.
                let unforwarded: Vec<ObjRef> = heap
                    .iter()
                    .map(|(r, _)| r)
                    .filter(|&r| heap.evac_forwarding_of(r).is_none())
                    .collect();
                for r in unforwarded {
                    let _ = heap.evac_forward(r);
                }
                heap.evac_finish();
            }
            for pid in 0..heap.page_count() {
                heap.clear_flag_word(pid, Flags::PER_GC, u64::MAX);
            }
            hooks.gc_abort(heap);
        }
        result
    }

    /// The cycle driver: the one place a collection is sequenced. Returns
    /// the cycle statistics, each tracing worker's busy time during the
    /// root mark, and the number of young survivors promoted.
    fn cycle<H: TraceHooks>(
        &mut self,
        heap: &mut Heap,
        roots: &[ObjRef],
        hooks: &mut H,
        strategy: RootMark,
        scope: Scope<'_>,
        survivors: Option<&mut SurvivorVisitor<'_>>,
    ) -> Result<(CycleStats, Vec<Duration>, u64), HeapError> {
        let cycle_start = Instant::now();
        let immortal = match scope {
            Scope::Full => Flags::empty(),
            Scope::Young { .. } => Flags::OLD,
        };
        // Invariant modules (debug builds and the `mcheck` profile): each
        // check sits at the exact point of the cycle where its property
        // must hold.
        #[cfg(debug_assertions)]
        {
            let problems = crate::invariants::stale_mark_violations(heap);
            assert!(problems.is_empty(), "stale marks at gc_begin: {problems:?}");
        }
        hooks.gc_begin(heap);
        let evacuating = strategy == RootMark::Cheney;
        if evacuating {
            heap.evac_begin();
        }

        // The pre-root phase (the §2.5.2 ownership trace) is specified as a
        // DFS with a path-tagged worklist and runs on the sequential tracer
        // under every strategy; what it marks is "already marked" to
        // whichever root mark follows.
        let path_mode = hooks.wants_paths();
        self.tracer.set_path_mode(path_mode);
        self.tracer.begin_cycle();
        let t = Instant::now();
        hooks.pre_root_phase(heap, &mut self.tracer)?;
        let pre_root = t.elapsed();
        let pre_root_edges = self.tracer.edges_traced();

        let t = Instant::now();
        let (root_marked, root_edges, worker_busy) = match strategy {
            RootMark::Lifo => {
                for &r in roots {
                    self.tracer.push_root(r);
                }
                if let Scope::Young { remembered } = scope {
                    // The remembered sources stand in for the old
                    // generation: they stay unmarked, and this collection
                    // consumes their barrier dedupe bit.
                    for &r in remembered.iter().filter(|&&r| heap.is_valid(r)) {
                        self.tracer.push_children_of(heap, r)?;
                        heap.clear_flag(r, Flags::REMEMBERED)?;
                    }
                }
                self.tracer.drain(heap, hooks)?;
                (0, 0, None)
            }
            RootMark::Cheney => {
                let prov = path_mode.then_some(&mut self.prov);
                let (marked, edges) = crate::copying::evacuate(heap, roots, hooks, prov)?;
                (marked, edges, None)
            }
            RootMark::Parallel(workers) => {
                let par = hooks.mark_roots_parallel(heap, roots, workers)?;
                (par.objects_marked, par.edges_traced, Some(par.worker_busy))
            }
        };
        // The census rides inside the mark span: it is part of what
        // tracing with a census costs, and `CycleStats::total` covers it.
        let censused = survivors
            .map(|visit| crate::census::take(heap, immortal, visit))
            .transpose()?;
        let mark = t.elapsed();

        hooks.trace_done(heap);

        // The trace is complete (and the evacuation, if any, still open):
        // no black-to-white edge may exist — the sweep is about to free
        // everything unmarked and mortal — and exactly the marked objects
        // carry a forwarding address.
        #[cfg(debug_assertions)]
        {
            let problems = crate::invariants::tricolor_violations(heap, immortal);
            assert!(problems.is_empty(), "tri-color at trace_done: {problems:?}");
            if evacuating {
                let problems = crate::invariants::forwarding_totality_violations(heap);
                assert!(
                    problems.is_empty(),
                    "forwarding totality at trace_done: {problems:?}"
                );
            }
        }

        // Every strategy reclaims the same way: everything without a MARK
        // bit outside the immortal plane goes. In copying terms these are
        // the objects that were never evacuated; freeing the slot models
        // their abandonment in from-space.
        let t = Instant::now();
        let (objects_swept, words_swept, promoted) = sweep(heap, hooks, immortal)?;
        let sweep = t.elapsed();

        if evacuating {
            let flips_before = heap.space().flips();
            heap.evac_finish();
            debug_assert_eq!(
                heap.space().flips(),
                flips_before + 1,
                "the flip counter must advance exactly once per cycle"
            );
            debug_assert!(
                heap.verify().is_empty(),
                "post-flip heap invariants: {:?}",
                heap.verify()
            );
        }
        // A minor's census covers the nursery, not the live heap.
        if let Some(totals) = censused.filter(|_| immortal.is_empty()) {
            crate::census::verify_live_totals(heap, totals);
        }

        let cycle = CycleStats {
            total: cycle_start.elapsed(),
            pre_root,
            mark,
            sweep,
            objects_marked: self.tracer.objects_marked() + root_marked,
            edges_traced: self.tracer.edges_traced() + root_edges,
            pre_root_edges,
            objects_swept,
            words_swept,
        };
        hooks.gc_end(heap, &cycle);
        Ok((cycle, worker_busy.unwrap_or_else(|| vec![mark]), promoted))
    }
}

/// The one bitmap walker: calls `f` with the handle of every slot of page
/// `pid` named in `mask` (a subset of the page's live mask), in slot order.
fn for_each_slot(
    heap: &mut Heap,
    pid: usize,
    mask: u64,
    mut f: impl FnMut(&mut Heap, ObjRef) -> Result<(), HeapError>,
) -> Result<(), HeapError> {
    for slot in slots_of(mask) {
        let r = heap
            .page_meta(pid)
            .handle(slot)
            .expect("live bitmap slot must hold an object");
        f(heap, r)?;
    }
    Ok(())
}

/// Calls `f` for every marked live object outside the `immortal` plane,
/// page by page in index order.
pub(crate) fn for_each_marked(
    heap: &mut Heap,
    immortal: Flags,
    mut f: impl FnMut(&mut Heap, ObjRef) -> Result<(), HeapError>,
) -> Result<(), HeapError> {
    for pid in 0..heap.page_count() {
        let meta = heap.page_meta(pid);
        let marked = meta.live_mask() & meta.flag_word(Flags::MARK) & !meta.flag_word(immortal);
        for_each_slot(heap, pid, marked, &mut f)?;
    }
    Ok(())
}

/// Sweeps the heap: frees every unmarked object and clears the per-GC
/// flags of survivors. Returns `(objects_swept, words_swept)`.
///
/// Public so that layer probes can time the sweep on its own; collections
/// reach it only through [`Collector`]'s cycle driver.
///
/// # Errors
///
/// Propagates heap errors, which indicate a broken collector invariant.
pub fn sweep_heap<H: TraceHooks>(heap: &mut Heap, hooks: &mut H) -> Result<(u64, u64), HeapError> {
    let (objects, words, _) = sweep(heap, hooks, Flags::empty())?;
    Ok((objects, words))
}

/// The one sweep loop, for both scopes; returns `(objects_swept,
/// words_swept, promoted)`. One bitmap word per page decides the page's
/// fate: dead slots (live, unmarked, outside the `immortal` plane) go in a
/// single [`Heap::reclaim_page`], after a [`TraceHooks::swept`] call for
/// each that carries a [`TraceHooks::swept_interest`] flag; marked slots
/// get their `PER_GC` planes cleared in one word operation, and in a minor
/// the young ones join the immortal plane in one more.
fn sweep<H: TraceHooks>(
    heap: &mut Heap,
    hooks: &mut H,
    immortal: Flags,
) -> Result<(u64, u64, u64), HeapError> {
    let interest = hooks.swept_interest();
    let (mut objects, mut words, mut promoted) = (0u64, 0u64, 0u64);
    for pid in 0..heap.page_count() {
        let meta = heap.page_meta(pid);
        let live = meta.live_mask();
        let marked = live & meta.flag_word(Flags::MARK);
        let mortal = live & !meta.flag_word(immortal);
        let dead = mortal & !marked;
        if dead != 0 {
            let wanted = dead & meta.flag_word(interest);
            for_each_slot(heap, pid, wanted, |heap, r| {
                hooks.swept(heap, r);
                Ok(())
            })?;
            let (n, w) = heap.reclaim_page(pid, dead);
            objects += n as u64;
            words += w as u64;
        }
        if marked != 0 {
            heap.clear_flag_word(pid, Flags::PER_GC, marked);
            let young = marked & mortal;
            if !immortal.is_empty() && young != 0 {
                heap.set_flag_word(pid, immortal, young);
                promoted += u64::from(young.count_ones());
            }
        }
    }
    Ok((objects, words, promoted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;
    use crate::tracer::TraceCtx;
    use crate::Visit;
    use gca_heap::Object;

    #[test]
    fn unreachable_objects_are_reclaimed() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let root = heap.alloc(c, 1, 0).unwrap();
        let kept = heap.alloc(c, 1, 0).unwrap();
        let dead1 = heap.alloc(c, 1, 0).unwrap();
        let dead2 = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(root, 0, kept).unwrap();
        heap.set_ref_field(dead1, 0, dead2).unwrap(); // garbage cycle feeder

        let mut gc = Collector::new();
        let cycle = gc.collect(&mut heap, &[root], &mut NoHooks).unwrap();
        assert_eq!(cycle.objects_marked, 2);
        assert_eq!(cycle.objects_swept, 2);
        assert!(heap.is_valid(root));
        assert!(heap.is_valid(kept));
        assert!(!heap.is_valid(dead1));
        assert!(!heap.is_valid(dead2));
    }

    #[test]
    fn garbage_cycles_are_collected() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let a = heap.alloc(c, 1, 0).unwrap();
        let b = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(a, 0, b).unwrap();
        heap.set_ref_field(b, 0, a).unwrap();
        let mut gc = Collector::new();
        let cycle = gc.collect(&mut heap, &[], &mut NoHooks).unwrap();
        assert_eq!(cycle.objects_swept, 2);
        assert_eq!(heap.live_objects(), 0);
    }

    #[test]
    fn survivors_have_per_gc_flags_cleared() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &[]);
        let root = heap.alloc(c, 0, 0).unwrap();
        heap.set_flag(root, Flags::OWNED).unwrap();
        let mut gc = Collector::new();
        gc.collect(&mut heap, &[root], &mut NoHooks).unwrap();
        assert!(!heap.has_flag(root, Flags::MARK).unwrap());
        assert!(!heap.has_flag(root, Flags::OWNED).unwrap());
    }

    #[test]
    fn sticky_flags_survive_collection() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &[]);
        let root = heap.alloc(c, 0, 0).unwrap();
        heap.set_flag(root, Flags::DEAD | Flags::UNSHARED | Flags::OWNEE)
            .unwrap();
        let mut gc = Collector::new();
        gc.collect(&mut heap, &[root], &mut NoHooks).unwrap();
        assert!(heap
            .has_flag(root, Flags::DEAD | Flags::UNSHARED | Flags::OWNEE)
            .unwrap());
    }

    #[test]
    fn repeated_collections_are_stable() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let root = heap.alloc(c, 1, 0).unwrap();
        let kept = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(root, 0, kept).unwrap();
        let mut gc = Collector::new();
        for _ in 0..5 {
            let cycle = gc.collect(&mut heap, &[root], &mut NoHooks).unwrap();
            assert_eq!(cycle.objects_marked, 2);
            assert_eq!(cycle.objects_swept, 0);
        }
        assert_eq!(gc.stats().collections, 5);
        assert_eq!(gc.stats().objects_marked, 10);
    }

    /// Pre-root-phase hooks that mark one object in advance, simulating the
    /// ownership phase keeping owner-reachable objects alive.
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
    fn pre_root_phase_marks_survive_even_if_unrooted() {
        // unrooted -> child. The pre-root phase scans from `unrooted`, so
        // `child` is marked and survives one extra GC (floating garbage,
        // exactly the paper's §2.5.2 trade-off), while `unrooted` itself is
        // collected because nothing marks it.
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let unrooted = heap.alloc(c, 1, 0).unwrap();
        let child = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(unrooted, 0, child).unwrap();
        let mut gc = Collector::new();
        let mut hooks = Premarker { target: unrooted };
        let cycle = gc.collect(&mut heap, &[], &mut hooks).unwrap();
        assert!(!heap.is_valid(unrooted));
        assert!(heap.is_valid(child));
        assert_eq!(cycle.pre_root_edges, 1, "the unrooted->child edge");
        // Next collection reclaims the floating garbage.
        gc.collect(&mut heap, &[], &mut NoHooks).unwrap();
        assert!(!heap.is_valid(child));
    }

    /// Hooks that count visits and sweeps.
    #[derive(Default)]
    struct Counter {
        new: u64,
        marked: u64,
        swept: u64,
        begun: u64,
        ended: u64,
        traced: u64,
    }

    impl TraceHooks for Counter {
        fn gc_begin(&mut self, _heap: &mut Heap) {
            self.begun += 1;
        }
        fn visit_new(&mut self, _h: &mut Heap, _o: ObjRef, _p: Flags, _c: &TraceCtx<'_>) -> Visit {
            self.new += 1;
            Visit::Descend
        }
        fn visit_marked(&mut self, _h: &mut Heap, _o: ObjRef, _p: Flags, _c: &TraceCtx<'_>) {
            self.marked += 1;
        }
        fn trace_done(&mut self, _heap: &mut Heap) {
            self.traced += 1;
        }
        fn swept_interest(&self) -> Flags {
            Flags::DEAD
        }
        fn swept(&mut self, _heap: &Heap, _obj: ObjRef) {
            self.swept += 1;
        }
        fn gc_end(&mut self, _heap: &mut Heap, _cycle: &CycleStats) {
            self.ended += 1;
        }
    }

    #[test]
    fn hooks_fire_in_expected_quantities() {
        // diamond: root -> {l, r} -> shared ; plus one garbage object.
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["a", "b"]);
        let root = heap.alloc(c, 2, 0).unwrap();
        let l = heap.alloc(c, 2, 0).unwrap();
        let r = heap.alloc(c, 2, 0).unwrap();
        let shared = heap.alloc(c, 2, 0).unwrap();
        let garbage = heap.alloc(c, 2, 0).unwrap();
        heap.set_flag(garbage, Flags::DEAD).unwrap();
        heap.set_ref_field(root, 0, l).unwrap();
        heap.set_ref_field(root, 1, r).unwrap();
        heap.set_ref_field(l, 0, shared).unwrap();
        heap.set_ref_field(r, 0, shared).unwrap();

        let mut gc = Collector::new();
        let mut counter = Counter::default();
        let cycle = gc.collect(&mut heap, &[root], &mut counter).unwrap();
        assert_eq!(counter.new, 4);
        assert_eq!(counter.marked, 1); // shared revisited once
        assert_eq!(counter.swept, 1);
        assert_eq!(counter.begun, 1);
        assert_eq!(counter.ended, 1);
        assert_eq!(counter.traced, 1);
        assert_eq!(cycle.edges_traced, 4);
    }

    /// Hooks that record `swept` calls for `DEAD`-flagged victims.
    #[derive(Default)]
    struct DeadRecorder(Vec<ObjRef>);

    impl TraceHooks for DeadRecorder {
        fn swept_interest(&self) -> Flags {
            Flags::DEAD
        }
        fn swept(&mut self, heap: &Heap, obj: ObjRef) {
            assert!(heap.has_flag(obj, Flags::DEAD).unwrap(), "still live here");
            self.0.push(obj);
        }
    }

    /// Hooks with the default (empty) interest: `swept` must never run.
    struct Uninterested;

    impl TraceHooks for Uninterested {
        fn swept(&mut self, _heap: &Heap, obj: ObjRef) {
            panic!("swept({obj}) called for a hook that declared no interest");
        }
    }

    #[test]
    fn swept_fires_only_for_victims_carrying_an_interest_flag() {
        // Victims with the flag, with other flags and with none, over two
        // size classes and the large object space; one flagged survivor.
        for minor in [false, true] {
            let mut heap = Heap::new();
            let c = heap.register_class("T", &["f"]);
            let root = heap.alloc(c, 1, 0).unwrap();
            heap.set_flag(root, Flags::DEAD).unwrap();
            let mut flagged = Vec::new();
            for i in 0..200 {
                let data = if i % 50 == 49 { 300 } else { (i % 2) * 9 };
                let o = heap.alloc(c, 1, data).unwrap();
                match i % 3 {
                    0 => {
                        heap.set_flag(o, Flags::DEAD).unwrap();
                        flagged.push(o);
                    }
                    1 => heap.set_flag(o, Flags::UNSHARED | Flags::OWNEE).unwrap(),
                    _ => {}
                }
            }
            let mut gc = Collector::new();
            let mut rec = DeadRecorder::default();
            // Both scopes sweep page by page, slot by slot.
            if minor {
                gc.collect_minor(&mut heap, &[root], &[], &mut rec, None)
                    .unwrap();
            } else {
                gc.collect(&mut heap, &[root], &mut rec).unwrap();
            }
            flagged.sort_unstable_by_key(|r| r.index());
            assert_eq!(rec.0, flagged, "minor={minor}");
            assert!(heap.is_valid(root), "a flagged survivor is not swept");
            assert_eq!(heap.live_objects(), 1);
            assert_eq!(heap.verify(), Vec::<String>::new());

            // The default interest is empty: no victim reaches `swept`,
            // whatever it carries.
            let mut heap = Heap::new();
            let c = heap.register_class("T", &[]);
            let victims: Vec<ObjRef> = (0..70).map(|_| heap.alloc(c, 0, 0).unwrap()).collect();
            heap.set_flag(victims[3], Flags::DEAD | Flags::OWNEE | Flags::OWNER)
                .unwrap();
            let swept = if minor {
                gc.collect_minor(&mut heap, &[], &[], &mut Uninterested, None)
                    .unwrap()
                    .objects_swept
            } else {
                gc.collect(&mut heap, &[], &mut Uninterested)
                    .unwrap()
                    .objects_swept
            };
            assert_eq!(swept, 70, "minor={minor}");
            assert_eq!(heap.live_objects(), 0);
        }
    }

    /// Runs a census cycle, returning the survivors the pass reported.
    fn census<H: TraceHooks>(
        gc: &mut Collector,
        heap: &mut Heap,
        roots: &[ObjRef],
        hooks: &mut H,
    ) -> (CycleStats, Vec<ObjRef>) {
        let mut seen = Vec::new();
        let mut observe = |r: ObjRef, _: &Object| seen.push(r);
        let (cycle, _) = gc
            .collect_with(heap, roots, hooks, 1, Some(&mut observe))
            .unwrap();
        (cycle, seen)
    }

    #[test]
    fn census_cycle_tallies_live_objects_and_slots_resolve() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let root = heap.alloc(c, 1, 0).unwrap();
        let kept = heap.alloc(c, 1, 0).unwrap();
        let _dead = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(root, 0, kept).unwrap();
        let mut gc = Collector::new();
        let (cycle, seen) = census(&mut gc, &mut heap, &[root], &mut NoHooks);
        assert_eq!(cycle.objects_marked, 2);
        assert_eq!(seen, vec![root, kept]);
        // Every censused object survived the sweep and still resolves.
        for &r in &seen {
            assert!(heap.is_valid(r));
        }
        // A plain collect afterwards is unaffected.
        let cycle2 = gc.collect(&mut heap, &[root], &mut NoHooks).unwrap();
        assert_eq!(cycle2.objects_marked, 2);
    }

    #[test]
    fn census_counts_pre_root_phase_marks() {
        // `child` is marked only by the hooks' pre-root drain; the census
        // must still see it (the pass walks the marks, whoever set them).
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let unrooted = heap.alloc(c, 1, 0).unwrap();
        let child = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(unrooted, 0, child).unwrap();
        let mut gc = Collector::new();
        let mut hooks = Premarker { target: unrooted };
        let (_, seen) = census(&mut gc, &mut heap, &[], &mut hooks);
        assert_eq!(seen, vec![child]);
    }

    /// The abandoned-cycle path, for each way of marking from the roots:
    /// a stale root fails the cycle after part of the graph is marked (the
    /// roots are listed so that every strategy reaches `a` first); the
    /// next cycle must neither see stale marks nor free `b`, which `a`
    /// only acquires afterwards.
    #[test]
    fn failed_cycle_leaves_no_marks_behind() {
        for (kind, workers) in [
            (SpaceKind::Paged, 1),
            (SpaceKind::Semispace, 1),
            (SpaceKind::Paged, 2),
        ] {
            let mut heap = Heap::with_space(kind);
            let c = heap.register_class("T", &["f"]);
            let stale = heap.alloc(c, 1, 0).unwrap();
            heap.free(stale).unwrap();
            let a = heap.alloc(c, 1, 0).unwrap();
            let a_child = heap.alloc(c, 1, 0).unwrap();
            heap.set_ref_field(a, 0, a_child).unwrap();
            let roots = match kind {
                SpaceKind::Semispace => [a, stale],
                SpaceKind::Paged => [stale, a],
            };
            let mut gc = Collector::new();
            let mut counter = Counter::default();
            let err = gc
                .collect_with(&mut heap, &roots, &mut counter, workers, None)
                .unwrap_err();
            assert_eq!(err, HeapError::StaleRef(stale), "{kind:?}/{workers}");
            assert!(crate::invariants::stale_mark_violations(&heap).is_empty());
            assert_eq!(heap.verify(), Vec::<String>::new(), "{kind:?}/{workers}");
            assert_eq!((counter.begun, counter.ended), (1, 0));
            assert_eq!(gc.stats().collections, 0, "a failed cycle is not counted");

            let b = heap.alloc(c, 1, 0).unwrap();
            heap.set_ref_field(a_child, 0, b).unwrap();
            let (cycle, _) = gc
                .collect_with(&mut heap, &[a], &mut counter, workers, None)
                .unwrap();
            assert_eq!(cycle.objects_marked, 3, "{kind:?}/{workers}");
            assert!(heap.is_valid(b), "{kind:?}/{workers}");
            assert_eq!(heap.verify(), Vec::<String>::new(), "{kind:?}/{workers}");
        }

        // The young scope fails the same way and is abandoned by the same
        // path, calling no hook on the way out.
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let stale = heap.alloc(c, 1, 0).unwrap();
        heap.free(stale).unwrap();
        let a = heap.alloc(c, 1, 0).unwrap();
        let a_child = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(a, 0, a_child).unwrap();
        let mut gc = Collector::new();
        let mut counter = Counter::default();
        let err = gc
            .collect_minor(&mut heap, &[stale, a], &[], &mut counter, None)
            .unwrap_err();
        assert_eq!(err, HeapError::StaleRef(stale));
        assert_eq!(
            crate::invariants::stale_mark_violations(&heap),
            Vec::<String>::new()
        );
        assert_eq!(heap.verify(), Vec::<String>::new());
        assert!(!heap.has_flag(a, Flags::OLD).unwrap(), "nothing promoted");
        assert_eq!((counter.begun, counter.new, counter.swept), (0, 0, 0));

        let b = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(a_child, 0, b).unwrap();
        let cycle = gc.collect(&mut heap, &[a], &mut counter).unwrap();
        assert_eq!(cycle.objects_marked, 3);
        assert!(heap.is_valid(b));
        assert_eq!(heap.live_objects(), 3);
        assert_eq!(heap.verify(), Vec::<String>::new());
    }

    // ---- The young scope (minor collections) --------------------------

    fn minor_heap() -> (Heap, Collector) {
        let mut heap = Heap::new();
        heap.register_class("T", &["a", "b"]);
        (heap, Collector::new())
    }

    fn alloc(heap: &mut Heap) -> ObjRef {
        let c = heap.registry().lookup("T").unwrap();
        heap.alloc(c, 2, 0).unwrap()
    }

    #[test]
    fn unreachable_young_die_reachable_promote() {
        let (mut heap, mut gc) = minor_heap();
        let root = alloc(&mut heap);
        let kept = alloc(&mut heap);
        let dead = alloc(&mut heap);
        heap.set_ref_field(root, 0, kept).unwrap();
        let stats = gc
            .collect_minor(&mut heap, &[root], &[], &mut NoHooks, None)
            .unwrap();
        assert_eq!(stats.promoted, 2);
        assert_eq!(stats.objects_swept, 1);
        assert!(!heap.is_valid(dead));
        assert!(heap.has_flag(root, Flags::OLD).unwrap());
        assert!(heap.has_flag(kept, Flags::OLD).unwrap());
        assert!(!heap.has_flag(root, Flags::MARK).unwrap());
        assert_eq!(gc.stats().collections, 0, "minors stay out of the stats");
    }

    #[test]
    fn old_objects_are_immortal_in_minor() {
        let (mut heap, mut gc) = minor_heap();
        let old_garbage = alloc(&mut heap);
        heap.set_flag(old_garbage, Flags::OLD).unwrap();
        let stats = gc
            .collect_minor(&mut heap, &[], &[], &mut NoHooks, None)
            .unwrap();
        assert_eq!(stats.objects_swept, 0);
        assert!(heap.is_valid(old_garbage), "old garbage waits for a major");
    }

    #[test]
    fn remembered_set_keeps_young_alive() {
        let (mut heap, mut gc) = minor_heap();
        let old = alloc(&mut heap);
        heap.set_flag(old, Flags::OLD | Flags::REMEMBERED).unwrap();
        let young = alloc(&mut heap);
        heap.set_ref_field(old, 0, young).unwrap();
        // `old` is not a root here (it is simply assumed live).
        let stats = gc
            .collect_minor(&mut heap, &[], &[old], &mut NoHooks, None)
            .unwrap();
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.remembered_scanned, 1);
        assert!(heap.is_valid(young));
        assert!(heap.has_flag(young, Flags::OLD).unwrap());
        assert!(
            !heap.has_flag(old, Flags::REMEMBERED).unwrap(),
            "barrier bit consumed"
        );
        assert!(!heap.has_flag(old, Flags::MARK).unwrap());
    }

    #[test]
    fn young_without_remembered_edge_dies() {
        // The failure mode the write barrier exists to prevent: an
        // old->young edge NOT in the remembered set loses the young
        // object. This pins the invariant the VM's barrier maintains.
        let (mut heap, mut gc) = minor_heap();
        let old = alloc(&mut heap);
        heap.set_flag(old, Flags::OLD).unwrap();
        let young = alloc(&mut heap);
        heap.set_ref_field(old, 0, young).unwrap();
        gc.collect_minor(&mut heap, &[], &[], &mut NoHooks, None)
            .unwrap();
        assert!(!heap.is_valid(young), "no barrier entry, no survival");
    }

    #[test]
    fn trace_stops_at_old_objects() {
        // young root -> old -> young2: young2 must survive only through
        // the remembered set, not through the scan of the old object.
        let (mut heap, mut gc) = minor_heap();
        let root = alloc(&mut heap);
        let old = alloc(&mut heap);
        heap.set_flag(old, Flags::OLD).unwrap();
        let young2 = alloc(&mut heap);
        heap.set_ref_field(root, 0, old).unwrap();
        heap.set_ref_field(old, 0, young2).unwrap();
        gc.collect_minor(&mut heap, &[root], &[], &mut NoHooks, None)
            .unwrap();
        // Without a remembered entry for `old`, young2 is (incorrectly
        // from the program's view, correctly from the collector's
        // contract) reclaimed — the barrier is the VM's responsibility.
        assert!(!heap.is_valid(young2));
        assert!(heap.is_valid(root));
        assert!(
            !heap.has_flag(old, Flags::MARK).unwrap(),
            "touched old cleaned"
        );
    }

    #[test]
    fn minor_reports_trace_counters() {
        let (mut heap, mut gc) = minor_heap();
        let root = alloc(&mut heap);
        let kept = alloc(&mut heap);
        let _dead = alloc(&mut heap);
        heap.set_ref_field(root, 0, kept).unwrap();
        let stats = gc
            .collect_minor(&mut heap, &[root], &[], &mut NoHooks, None)
            .unwrap();
        assert_eq!(stats.objects_marked, 2, "root and kept");
        assert_eq!(stats.edges_traced, 1, "the root->kept edge");
    }

    #[test]
    fn minor_counts_touched_old_as_marked() {
        // root -> old: the trace claims old's mark before skipping it, so
        // objects_marked counts it (documented on MinorStats).
        let (mut heap, mut gc) = minor_heap();
        let root = alloc(&mut heap);
        let old = alloc(&mut heap);
        heap.set_flag(old, Flags::OLD).unwrap();
        heap.set_ref_field(root, 0, old).unwrap();
        let stats = gc
            .collect_minor(&mut heap, &[root], &[], &mut NoHooks, None)
            .unwrap();
        assert_eq!(stats.objects_marked, 2);
        assert_eq!(stats.promoted, 1);
    }

    #[test]
    fn swept_hook_fires_for_minor_victims() {
        let (mut heap, mut gc) = minor_heap();
        let dead = alloc(&mut heap);
        heap.set_flag(dead, Flags::DEAD).unwrap();
        let mut rec = DeadRecorder::default();
        gc.collect_minor(&mut heap, &[], &[], &mut rec, None)
            .unwrap();
        assert_eq!(rec.0, vec![dead]);
    }

    #[test]
    fn minor_calls_no_hook_but_swept() {
        let (mut heap, mut gc) = minor_heap();
        let root = alloc(&mut heap);
        let dead = alloc(&mut heap);
        heap.set_flag(dead, Flags::DEAD).unwrap();
        let mut counter = Counter::default();
        gc.collect_minor(&mut heap, &[root], &[], &mut counter, None)
            .unwrap();
        assert_eq!(counter.swept, 1);
        assert_eq!(
            (
                counter.begun,
                counter.new,
                counter.marked,
                counter.traced,
                counter.ended
            ),
            (0, 0, 0, 0, 0)
        );
    }

    #[test]
    fn minor_census_sees_the_young_survivors_before_promotion() {
        let (mut heap, mut gc) = minor_heap();
        let old = alloc(&mut heap);
        heap.set_flag(old, Flags::OLD).unwrap();
        let root = alloc(&mut heap);
        let kept = alloc(&mut heap);
        let _dead = alloc(&mut heap);
        heap.set_ref_field(root, 0, kept).unwrap();
        heap.set_ref_field(root, 1, old).unwrap();
        let mut seen = Vec::new();
        let mut observe = |r: ObjRef, _: &Object| seen.push(r);
        let stats = gc
            .collect_minor(&mut heap, &[root], &[], &mut NoHooks, Some(&mut observe))
            .unwrap();
        assert_eq!(
            seen,
            vec![root, kept],
            "the touched old object is not young"
        );
        assert_eq!(stats.promoted, 2);
    }

    #[test]
    fn empty_heap_collects_cleanly() {
        let mut heap = Heap::new();
        let mut gc = Collector::new();
        let cycle = gc.collect(&mut heap, &[], &mut NoHooks).unwrap();
        assert_eq!(cycle.objects_marked, 0);
        assert_eq!(cycle.objects_swept, 0);
    }

    #[test]
    fn reset_stats_zeroes() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &[]);
        let root = heap.alloc(c, 0, 0).unwrap();
        let mut gc = Collector::new();
        gc.collect(&mut heap, &[root], &mut NoHooks).unwrap();
        assert_eq!(gc.stats().collections, 1);
        gc.reset_stats();
        assert_eq!(gc.stats().collections, 0);
    }
}
