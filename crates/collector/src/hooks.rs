//! The trace-hook interface that assertion checking piggybacks on.

use gca_heap::{Flags, Heap, HeapError, ObjRef};

use crate::parallel::{mark_parallel, NoParVisitor, ParMarkStats};
use crate::stats::CycleStats;
use crate::tracer::{TraceCtx, Tracer};

/// What the tracer should do after a hook has seen a newly marked object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// Scan the object's reference fields (normal tracing).
    Descend,
    /// Do not scan the object's fields now. The ownership phase uses this
    /// to truncate scanning at ownee objects (§2.5.2) so collections are
    /// "essentially truncated when their leaves are reached".
    Skip,
}

/// Observation points a collection cycle offers to an attached checker.
///
/// The paper's whole design is that assertion checks ride along with work
/// the collector does anyway; every method here corresponds to one such
/// piggyback point. The default implementations do nothing, so a hooks
/// object only pays for what it overrides — and [`NoHooks`] (the Base
/// configuration) monomorphizes to the unmodified collector.
///
/// Hook order within [`crate::Collector::collect`]:
///
/// 1. [`TraceHooks::gc_begin`]
/// 2. [`TraceHooks::pre_root_phase`] — may drive the [`Tracer`] itself
///    (ownership phase)
/// 3. root scan + transitive marking, calling [`TraceHooks::visit_new`] on
///    each first visit and [`TraceHooks::visit_marked`] on each re-visit
///    of an object that may carry a [`TraceHooks::visit_interest`] flag
///    (a cycle with several tracing workers calls
///    [`TraceHooks::mark_roots_parallel`] for this step instead)
/// 4. [`TraceHooks::trace_done`]
/// 5. sweep, calling [`TraceHooks::swept`] for each reclaimed object that
///    carries a [`TraceHooks::swept_interest`] flag
/// 6. [`TraceHooks::gc_end`]
///
/// A cycle that fails with a heap error stops wherever it is and calls
/// [`TraceHooks::gc_abort`] instead of the remaining hooks.
///
/// A minor collection ([`crate::Collector::collect_minor`]) is the same
/// cycle restricted to the nursery and checks nothing: it calls only
/// [`TraceHooks::swept_interest`] and step 5's [`TraceHooks::swept`] —
/// not even [`TraceHooks::gc_abort`] when it fails. Its own trace visits
/// every object (it stops at `OLD` ones), whatever the caller's
/// [`TraceHooks::visit_interest`].
pub trait TraceHooks {
    /// If `true`, the collector uses the path-tracking worklist (§2.7) so
    /// [`TraceCtx::current_path`] can reconstruct root-to-object paths.
    /// Costs one extra worklist push per scanned object.
    fn wants_paths(&self) -> bool {
        false
    }

    /// Called before anything else in the cycle.
    fn gc_begin(&mut self, heap: &mut Heap) {
        let _ = heap;
    }

    /// Called after `gc_begin`, before the root scan, with a tracer ready
    /// to be driven. The assertion engine runs the `assert-ownedby`
    /// ownership phase here.
    ///
    /// # Errors
    ///
    /// Propagates heap errors from tracing (collector-internal invariant
    /// violations).
    fn pre_root_phase(&mut self, heap: &mut Heap, tracer: &mut Tracer) -> Result<(), HeapError> {
        let _ = (heap, tracer);
        Ok(())
    }

    /// The header flags this hook's visits depend on, asked at every mark
    /// claim: the trace calls [`TraceHooks::visit_new`] and
    /// [`TraceHooks::visit_marked`] only for an object whose header may
    /// carry one of them, and a first arrival at any other object simply
    /// descends. `None` — the default — means every visit.
    ///
    /// The contract: for an object whose header carries no interest flag,
    /// `visit_new` would return [`Visit::Descend`] and have no effect, and
    /// `visit_marked` would have no effect. The claim then touches only
    /// the `MARK` bit plane and its page's plane-occupancy hint (see
    /// [`Heap::claim_mark`]), which is what makes checks the program did
    /// not ask for cost what the unmodified collector costs.
    fn visit_interest(&self) -> Option<Flags> {
        None
    }

    /// Called when the tracer marks `obj` for the first time this cycle.
    /// `prev` is the object's header as the mark claim found it: the claim
    /// read and wrote the header in one page lookup, so per the paper the
    /// extra flag checks here are effectively free — a hook tests `prev`
    /// and never reads the object's flags again.
    fn visit_new(
        &mut self,
        heap: &mut Heap,
        obj: ObjRef,
        prev: Flags,
        ctx: &TraceCtx<'_>,
    ) -> Visit {
        let _ = (heap, obj, prev, ctx);
        Visit::Descend
    }

    /// Called when the tracer encounters `obj` through an edge but finds it
    /// already marked — the second (or later) incoming pointer, which is
    /// where `assert-unshared` fires. `prev` is the header the failed claim
    /// read, `MARK` included.
    fn visit_marked(&mut self, heap: &mut Heap, obj: ObjRef, prev: Flags, ctx: &TraceCtx<'_>) {
        let _ = (heap, obj, prev, ctx);
    }

    /// The root scan of a cycle with `workers > 1` tracing threads: marks
    /// everything reachable from `roots` with [`mark_parallel`], observing
    /// through per-worker [`crate::ParVisitor`] shards what `visit_new` /
    /// `visit_marked` observe in a sequential trace. Objects the pre-root
    /// phase marked are "already marked" to the workers.
    ///
    /// The default marks without observing anything — right for hooks
    /// that override neither visit method (the Base configuration); hooks
    /// that do must override this too.
    ///
    /// # Errors
    ///
    /// The first heap error any worker trips.
    fn mark_roots_parallel(
        &mut self,
        heap: &mut Heap,
        roots: &[ObjRef],
        workers: usize,
    ) -> Result<ParMarkStats, HeapError> {
        mark_parallel(heap, roots, &mut vec![NoParVisitor; workers])
    }

    /// Called when marking has finished, before the sweep. Volume
    /// assertions check their accumulated counts here.
    fn trace_done(&mut self, heap: &mut Heap) {
        let _ = heap;
    }

    /// The flags that make a dying object this hook's business: the sweep
    /// calls [`TraceHooks::swept`] only for unreachable objects carrying at
    /// least one of them, and reclaims every other dead slot of a page with
    /// bitmap arithmetic alone. The default is empty — no calls at all.
    fn swept_interest(&self) -> Flags {
        Flags::empty()
    }

    /// Called just before an unreachable object that carries a
    /// [`TraceHooks::swept_interest`] flag is freed. The engine uses this
    /// to retire metadata for dying owners/ownees.
    fn swept(&mut self, heap: &Heap, obj: ObjRef) {
        let _ = (heap, obj);
    }

    /// Called when the cycle is complete.
    fn gc_end(&mut self, heap: &mut Heap, cycle: &CycleStats) {
        let _ = (heap, cycle);
    }

    /// Called when the cycle failed with a heap error, after the collector
    /// has cleared every per-GC flag: hooks drop what they accumulated for
    /// this cycle, so the next one starts as if this one never ran.
    fn gc_abort(&mut self, heap: &mut Heap) {
        let _ = heap;
    }
}

/// The no-op hooks object: the **Base** configuration of the paper's
/// evaluation — a collector with no assertion infrastructure compiled in.
///
/// # Example
///
/// ```
/// use gca_collector::{Collector, NoHooks};
/// use gca_heap::Heap;
///
/// # fn main() -> Result<(), gca_heap::HeapError> {
/// let mut heap = Heap::new();
/// let c = heap.register_class("T", &[]);
/// let root = heap.alloc(c, 0, 0)?;
/// Collector::new().collect(&mut heap, &[root], &mut NoHooks)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl TraceHooks for NoHooks {
    fn visit_interest(&self) -> Option<Flags> {
        Some(Flags::empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_hooks_defaults() {
        let mut h = NoHooks;
        assert!(!h.wants_paths());
        let mut heap = Heap::new();
        let c = heap.register_class("T", &[]);
        let o = heap.alloc(c, 0, 0).unwrap();
        // Default hook bodies are callable no-ops.
        h.gc_begin(&mut heap);
        assert_eq!(
            h.visit_new(&mut heap, o, Flags::empty(), &TraceCtx::no_paths()),
            Visit::Descend
        );
        h.visit_marked(&mut heap, o, Flags::MARK, &TraceCtx::no_paths());
        assert!(h.swept_interest().is_empty());
        h.trace_done(&mut heap);
        h.swept(&heap, o);
        h.gc_end(&mut heap, &CycleStats::default());
    }
}
