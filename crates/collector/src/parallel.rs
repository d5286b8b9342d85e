//! Parallel work-stealing mark phase.
//!
//! [`mark_parallel`] runs the transitive mark over a shared `&Heap` with N
//! worker threads. Each worker keeps a private, unsynchronized mark stack
//! and a shared [`StealDeque`]; when a worker's private stack grows while
//! its public deque is empty it *spills* the oldest half, and when a worker
//! runs dry it steals half of a victim's deque. Mark bits are claimed with
//! an atomic read-modify-write ([`gca_heap::Heap::claim_mark`]), so for
//! every object exactly one worker observes the unmarked-to-marked
//! transition and calls [`ParVisitor::visit_new`]; every other edge into
//! the object produces exactly one [`ParVisitor::visit_marked`] call —
//! unless the claim proved the object carries no
//! [`ParVisitor::visit_interest`] flag, in which case neither is called.
//! Those two guarantees are what make the assertion checks of the paper
//! safe to parallelize: per-object facts (instance counts, dead bits) are
//! counted by the unique `visit_new` winner, and per-edge facts
//! (`assert-unshared` extra pointers) are counted once per edge, so the
//! *sets* of observations are identical to a sequential trace no matter
//! how the workers interleave.
//!
//! Unlike the sequential path-tracking tracer (§2.7), workers do not keep
//! a root-to-object path on their worklists — a stolen item's path would
//! live on another worker's stack. Instead every [`WorkItem`] carries its
//! one-edge provenance (parent object and field index), and full paths for
//! the handful of flagged objects are reconstructed on demand after the
//! trace with [`reconstruct_path`].
//!
//! The workers only ever run the *root scan*. A pre-root phase (the
//! §2.5.2 ownership trace) has already run, sequentially, by the time they
//! start; whatever it marked is simply "already marked" to them. Every
//! fact a visitor can observe is therefore per-object or per-edge and
//! final, and nothing a cycle reports depends on the steal schedule.
//!
//! Termination uses an idle-worker counter: a worker that finds no local
//! work and nothing to steal registers as idle; when all N workers are
//! idle and every public deque is empty the phase is over. All counter and
//! length operations are `SeqCst`, so a spill that happened before a
//! worker went idle is visible to whichever worker performs the final
//! emptiness check.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gca_heap::{Flags, Heap, HeapError, ObjRef};

use crate::deque::StealDeque;
use crate::hooks::Visit;
use crate::path::{HeapPath, PathStep};
use crate::tracer::claim;

/// Field value for root items, which have no parent edge.
const NO_FIELD: u32 = u32::MAX;

/// One unit of marking work: an object to visit plus its one-edge
/// provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Object to visit.
    pub obj: ObjRef,
    /// Object whose reference field produced this item ([`ObjRef::NULL`]
    /// for roots).
    pub parent: ObjRef,
    /// Field index in `parent` ([`u32::MAX`] for roots).
    pub field: u32,
}

impl WorkItem {
    /// A root item, with no parent edge.
    pub(crate) fn root(obj: ObjRef) -> WorkItem {
        WorkItem {
            obj,
            parent: ObjRef::NULL,
            field: NO_FIELD,
        }
    }

    /// The edge through which this item was produced, or `None` for roots.
    pub fn parent_edge(&self) -> Option<(ObjRef, usize)> {
        if self.parent.is_null() || self.field == NO_FIELD {
            None
        } else {
            Some((self.parent, self.field as usize))
        }
    }
}

/// Per-worker visitor for the parallel mark phase — the parallel analogue
/// of the `visit_new` / `visit_marked` pair of
/// [`crate::TraceHooks`]. One visitor instance is created per worker
/// (sharding any state it accumulates), and the shards are merged by the
/// caller after the phase; the heap is shared immutably.
pub trait ParVisitor: Send {
    /// The header flags this visitor's calls depend on, with the contract
    /// of [`crate::TraceHooks::visit_interest`]: objects whose header
    /// carries none of them get no call, and a first arrival descends.
    /// `None` — the default — means every visit.
    fn visit_interest(&self) -> Option<Flags> {
        None
    }

    /// Called exactly once per object, by the worker that won the race to
    /// set the mark bit. `prev` is the header-flag snapshot taken by that
    /// atomic update (so checks against `DEAD`, `OWNEE`, … read a
    /// consistent pre-mark value). Return [`Visit::Skip`] to truncate the
    /// trace at this object.
    fn visit_new(&mut self, heap: &Heap, obj: ObjRef, prev: Flags, item: &WorkItem) -> Visit;

    /// Called exactly once for every edge that reaches an already-marked
    /// object.
    fn visit_marked(&mut self, heap: &Heap, obj: ObjRef, prev: Flags, item: &WorkItem);
}

/// A [`ParVisitor`] with no behaviour: plain parallel marking (the Base
/// configuration).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NoParVisitor;

impl ParVisitor for NoParVisitor {
    fn visit_interest(&self) -> Option<Flags> {
        Some(Flags::empty())
    }
    fn visit_new(&mut self, _h: &Heap, _o: ObjRef, _p: Flags, _i: &WorkItem) -> Visit {
        Visit::Descend
    }
    fn visit_marked(&mut self, _h: &Heap, _o: ObjRef, _p: Flags, _i: &WorkItem) {}
}

/// Totals from one parallel mark phase (summed over workers, except
/// `worker_busy` which stays per-worker).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParMarkStats {
    /// Objects newly marked.
    pub objects_marked: u64,
    /// Reference edges traversed (each non-null field of each descended
    /// object; seed items do not count, matching the sequential tracer).
    pub edges_traced: u64,
    /// Wall time each worker spent inside its mark loop, indexed by
    /// worker. All entries span the whole phase (workers park in the
    /// idle-wait loop rather than exiting early), so the vector is a
    /// per-worker busy profile telemetry can attribute skew to.
    pub worker_busy: Vec<Duration>,
}

/// Appends a [`WorkItem`] for every non-null reference field of `parent`,
/// returning the number of edges pushed.
fn push_child_items(
    heap: &Heap,
    parent: ObjRef,
    out: &mut Vec<WorkItem>,
) -> Result<u64, HeapError> {
    let obj = heap.get(parent)?;
    let mut edges = 0;
    for (i, &child) in obj.refs().iter().enumerate() {
        if !child.is_null() {
            out.push(WorkItem {
                obj: child,
                parent,
                field: i as u32,
            });
            edges += 1;
        }
    }
    Ok(edges)
}

/// Spill the private stack's oldest half once it outgrows this.
const SPILL_THRESHOLD: usize = 64;

/// Runs a parallel mark phase over `heap` from `roots` (nulls are
/// skipped), with one worker per element of `visitors` (`visitors.len()`
/// is the degree of parallelism; pass one visitor to run the same protocol
/// inline without spawning).
///
/// Root items are processed like any other: each fires `visit_new` or
/// `visit_marked` depending on who wins the mark race — or on whether a
/// pre-root phase marked the object before the workers started. Only
/// edges pushed *by* the workers are counted in the returned stats,
/// matching the sequential tracer.
///
/// # Errors
///
/// If any worker trips a heap error (a stale reference reached the trace —
/// a broken collector invariant), all workers abort and the first error is
/// returned.
pub fn mark_parallel<V: ParVisitor>(
    heap: &Heap,
    roots: &[ObjRef],
    visitors: &mut [V],
) -> Result<ParMarkStats, HeapError> {
    let workers = visitors.len();
    assert!(workers > 0, "mark_parallel needs at least one visitor");

    let seeds: Vec<WorkItem> = roots
        .iter()
        .filter(|r| r.is_some())
        .map(|&r| WorkItem::root(r))
        .collect();
    let deques: Vec<StealDeque<WorkItem>> = (0..workers).map(|_| StealDeque::new()).collect();
    // Contiguous seed chunks: root sets tend to be laid out in allocation
    // order, so chunking keeps each worker in one heap region until
    // stealing kicks in.
    let chunk = seeds.len().div_ceil(workers).max(1);
    for (i, batch) in seeds.chunks(chunk).enumerate() {
        deques[i].push_batch(batch.iter().copied());
    }

    let idle = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let error: Mutex<Option<HeapError>> = Mutex::new(None);

    let stats = if workers == 1 {
        worker_loop(heap, 0, &deques, &idle, &done, &error, &mut visitors[0])
    } else {
        let shared = (&deques, &idle, &done, &error);
        let mut totals = ParMarkStats::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = visitors
                .iter_mut()
                .enumerate()
                .map(|(me, visitor)| {
                    let (deques, idle, done, error) = shared;
                    s.spawn(move || worker_loop(heap, me, deques, idle, done, error, visitor))
                })
                .collect();
            // Joining in spawn order keeps `worker_busy[i]` aligned with
            // worker `i`.
            for h in handles {
                let s = h.join().expect("mark worker panicked");
                totals.objects_marked += s.objects_marked;
                totals.edges_traced += s.edges_traced;
                totals.worker_busy.extend(s.worker_busy);
            }
        });
        totals
    };

    let first_error = error.lock().expect("error slot poisoned").take();
    match first_error {
        Some(e) => Err(e),
        None => Ok(stats),
    }
}

fn worker_loop<V: ParVisitor>(
    heap: &Heap,
    me: usize,
    deques: &[StealDeque<WorkItem>],
    idle: &AtomicUsize,
    done: &AtomicBool,
    error: &Mutex<Option<HeapError>>,
    visitor: &mut V,
) -> ParMarkStats {
    let workers = deques.len();
    let mut local: Vec<WorkItem> = Vec::new();
    let mut stats = ParMarkStats::default();
    let started = Instant::now();

    'run: loop {
        // 1. Acquire an item: private stack, then own deque, then theft.
        let item = match local.pop().or_else(|| deques[me].pop_back()) {
            Some(item) => item,
            None => {
                let mut stolen = false;
                for k in 1..workers {
                    if deques[(me + k) % workers].steal_half_into(&mut local) > 0 {
                        stolen = true;
                        break;
                    }
                }
                if stolen {
                    continue;
                }
                // 2. Nothing anywhere: register idle and wait for either
                //    new work (someone spills) or global termination.
                idle.fetch_add(1, Ordering::SeqCst);
                loop {
                    if done.load(Ordering::SeqCst) {
                        break 'run;
                    }
                    if deques.iter().any(|d| d.len_hint() > 0) {
                        idle.fetch_sub(1, Ordering::SeqCst);
                        continue 'run;
                    }
                    if idle.load(Ordering::SeqCst) == workers {
                        // All workers idle: nobody is processing, so no new
                        // work can appear. Re-check emptiness (SeqCst makes
                        // pre-idle spills visible) and declare completion.
                        if deques.iter().all(|d| d.len_hint() == 0) {
                            done.store(true, Ordering::SeqCst);
                            break 'run;
                        }
                    }
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
            }
        };

        // 3. Claim the mark bit; the previous flag value decides which
        //    visit the edge gets, and whether it gets one at all.
        let (marked, prev) = match claim(heap, item.obj, visitor.visit_interest()) {
            Ok(claimed) => claimed,
            Err(e) => {
                let mut slot = error.lock().expect("error slot poisoned");
                slot.get_or_insert(e);
                done.store(true, Ordering::SeqCst);
                break 'run;
            }
        };
        if marked {
            if let Some(prev) = prev {
                visitor.visit_marked(heap, item.obj, prev, &item);
            }
            continue;
        }
        stats.objects_marked += 1;
        if let Some(prev) = prev {
            if visitor.visit_new(heap, item.obj, prev, &item) == Visit::Skip {
                continue;
            }
        }
        match push_child_items(heap, item.obj, &mut local) {
            Ok(edges) => stats.edges_traced += edges,
            Err(e) => {
                let mut slot = error.lock().expect("error slot poisoned");
                slot.get_or_insert(e);
                done.store(true, Ordering::SeqCst);
                break 'run;
            }
        }

        // 4. Share work: if our public deque ran dry and the private stack
        //    is deep, spill the oldest (shallowest) half for thieves.
        if local.len() > SPILL_THRESHOLD && deques[me].len_hint() == 0 {
            let half = local.len() / 2;
            deques[me].push_batch(local.drain(..half));
        }
    }

    stats.worker_busy.push(started.elapsed());
    stats
}

/// Reconstructs a path from one of `roots` to `target` over the current
/// heap graph by breadth-first search, visiting roots in the given order
/// and fields in index order (so the result is deterministic: the
/// shortest such path, ties broken by root/field order).
///
/// Returns `None` if `target` is unreachable from `roots` — callers fall
/// back to [`HeapPath::empty`].
pub fn reconstruct_path(heap: &Heap, roots: &[ObjRef], target: ObjRef) -> Option<HeapPath> {
    // Predecessor edge for every discovered object; roots map to None.
    let mut pred: HashMap<ObjRef, Option<(ObjRef, usize)>> = HashMap::new();
    let mut queue: VecDeque<ObjRef> = VecDeque::new();

    for &r in roots {
        if heap.is_valid(r) && !pred.contains_key(&r) {
            pred.insert(r, None);
            queue.push_back(r);
        }
    }

    let found = pred.contains_key(&target)
        || 'bfs: {
            while let Some(u) = queue.pop_front() {
                let obj = match heap.get(u) {
                    Ok(o) => o,
                    Err(_) => continue,
                };
                for (i, &child) in obj.refs().iter().enumerate() {
                    if child.is_null() || pred.contains_key(&child) || !heap.is_valid(child) {
                        continue;
                    }
                    pred.insert(child, Some((u, i)));
                    if child == target {
                        break 'bfs true;
                    }
                    queue.push_back(child);
                }
            }
            false
        };
    if !found {
        return None;
    }

    // Walk the predecessor chain back to a root, then emit root-first.
    let mut rev: Vec<(ObjRef, Option<usize>)> = Vec::new();
    let mut cur = target;
    while let Some((p, f)) = pred[&cur] {
        rev.push((cur, Some(f)));
        cur = p;
    }
    rev.push((cur, None));
    rev.reverse();
    let mut steps = Vec::with_capacity(rev.len());
    for (obj, field) in rev {
        steps.push(PathStep {
            object: obj,
            class: heap.class_of(obj).ok()?,
            field,
        });
    }
    Some(HeapPath::new(steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gca_heap::Heap;

    /// Builds a wide tree: `fanout^depth`-ish nodes, returns (heap, root).
    fn tree(depth: usize, fanout: usize) -> (Heap, ObjRef) {
        let mut heap = Heap::new();
        let c = heap.register_class("Node", &["a", "b", "c", "d"]);
        let root = heap.alloc(c, fanout, 0).unwrap();
        let mut frontier = vec![root];
        for _ in 0..depth {
            let mut next = Vec::new();
            for &p in &frontier {
                for i in 0..fanout {
                    let child = heap.alloc(c, fanout, 0).unwrap();
                    heap.set_ref_field(p, i, child).unwrap();
                    next.push(child);
                }
            }
            frontier = next;
        }
        (heap, root)
    }

    fn marked_count(heap: &Heap) -> usize {
        heap.iter()
            .filter(|&(r, _)| heap.has_flag(r, Flags::MARK).unwrap())
            .count()
    }

    #[test]
    fn parallel_mark_covers_the_reachable_set() {
        for workers in [1, 2, 4] {
            let (heap, root) = tree(5, 3); // 364 nodes
            let _garbage = {
                let mut h = heap;
                let c = h.class_of(root).unwrap();
                h.alloc(c, 3, 0).unwrap();
                h
            };
            let heap = _garbage;
            let mut visitors = vec![NoParVisitor; workers];
            let stats = mark_parallel(&heap, &[root], &mut visitors).unwrap();
            assert_eq!(stats.objects_marked, 364, "workers={workers}");
            assert_eq!(stats.edges_traced, 363, "workers={workers}");
            assert_eq!(marked_count(&heap), 364, "workers={workers}");
            assert_eq!(stats.worker_busy.len(), workers, "one busy span per worker");
        }
    }

    #[test]
    fn visit_counts_match_sequential_semantics() {
        // diamond: root -> {l, r} -> shared. 4 new visits, 1 marked visit,
        // regardless of worker count or interleaving.
        #[derive(Default)]
        struct Counting {
            new: u64,
            marked: u64,
        }
        impl ParVisitor for Counting {
            fn visit_new(&mut self, _h: &Heap, _o: ObjRef, _p: Flags, _i: &WorkItem) -> Visit {
                self.new += 1;
                Visit::Descend
            }
            fn visit_marked(&mut self, _h: &Heap, _o: ObjRef, _p: Flags, _i: &WorkItem) {
                self.marked += 1;
            }
        }
        for workers in [1, 2, 4] {
            let mut heap = Heap::new();
            let c = heap.register_class("T", &["a", "b"]);
            let root = heap.alloc(c, 2, 0).unwrap();
            let l = heap.alloc(c, 2, 0).unwrap();
            let r = heap.alloc(c, 2, 0).unwrap();
            let shared = heap.alloc(c, 2, 0).unwrap();
            heap.set_ref_field(root, 0, l).unwrap();
            heap.set_ref_field(root, 1, r).unwrap();
            heap.set_ref_field(l, 0, shared).unwrap();
            heap.set_ref_field(r, 0, shared).unwrap();
            let mut visitors: Vec<Counting> = (0..workers).map(|_| Counting::default()).collect();
            mark_parallel(&heap, &[root], &mut visitors).unwrap();
            let new: u64 = visitors.iter().map(|v| v.new).sum();
            let marked: u64 = visitors.iter().map(|v| v.marked).sum();
            assert_eq!(new, 4, "workers={workers}");
            assert_eq!(marked, 1, "workers={workers}");
        }
    }

    #[test]
    fn skip_truncates_descent() {
        struct SkipAt(ObjRef);
        impl ParVisitor for SkipAt {
            fn visit_new(&mut self, _h: &Heap, o: ObjRef, _p: Flags, _i: &WorkItem) -> Visit {
                if o == self.0 {
                    Visit::Skip
                } else {
                    Visit::Descend
                }
            }
            fn visit_marked(&mut self, _h: &Heap, _o: ObjRef, _p: Flags, _i: &WorkItem) {}
        }
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let a = heap.alloc(c, 1, 0).unwrap();
        let b = heap.alloc(c, 1, 0).unwrap();
        let d = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(a, 0, b).unwrap();
        heap.set_ref_field(b, 0, d).unwrap();
        let mut visitors = vec![SkipAt(b), SkipAt(b)];
        mark_parallel(&heap, &[a], &mut visitors).unwrap();
        assert!(heap.has_flag(a, Flags::MARK).unwrap());
        assert!(heap.has_flag(b, Flags::MARK).unwrap());
        assert!(!heap.has_flag(d, Flags::MARK).unwrap(), "truncated at b");
    }

    #[test]
    fn work_item_parent_edge() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let a = heap.alloc(c, 1, 0).unwrap();
        let b = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(a, 0, b).unwrap();
        assert_eq!(WorkItem::root(a).parent_edge(), None);
        let mut out = Vec::new();
        let edges = push_child_items(&heap, a, &mut out).unwrap();
        assert_eq!(edges, 1);
        assert_eq!(out[0].obj, b);
        assert_eq!(out[0].parent_edge(), Some((a, 0)));
    }

    #[test]
    fn reconstruct_path_finds_shortest_deterministic_path() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["a", "b"]);
        let root = heap.alloc(c, 2, 0).unwrap();
        let mid = heap.alloc(c, 2, 0).unwrap();
        let long1 = heap.alloc(c, 2, 0).unwrap();
        let long2 = heap.alloc(c, 2, 0).unwrap();
        let target = heap.alloc(c, 2, 0).unwrap();
        // Short: root.b -> mid.a -> target. Long: root.a -> long1 -> long2 -> target.
        heap.set_ref_field(root, 0, long1).unwrap();
        heap.set_ref_field(long1, 0, long2).unwrap();
        heap.set_ref_field(long2, 0, target).unwrap();
        heap.set_ref_field(root, 1, mid).unwrap();
        heap.set_ref_field(mid, 0, target).unwrap();
        let path = reconstruct_path(&heap, &[root], target).expect("reachable");
        let objs: Vec<ObjRef> = path.steps().iter().map(|s| s.object).collect();
        assert_eq!(objs, vec![root, mid, target]);
        assert_eq!(path.steps()[0].field, None);
        assert_eq!(path.steps()[1].field, Some(1));
        assert_eq!(path.steps()[2].field, Some(0));
    }

    #[test]
    fn start_equal_to_target_yields_single_step() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &[]);
        let o = heap.alloc(c, 0, 0).unwrap();
        let path = reconstruct_path(&heap, &[o], o).unwrap();
        assert_eq!(path.steps().len(), 1);
        assert_eq!(path.target(), Some(o));
    }

    #[test]
    fn large_graph_parallel_equals_sequential_live_set() {
        // A randomized-ish mesh (deterministic arithmetic): 2000 nodes,
        // each pointing at a few arithmetic neighbours. Built twice so the
        // sequential baseline runs on an identical heap (same allocation
        // order means identical ObjRef indices).
        fn mesh() -> (Heap, Vec<ObjRef>) {
            let mut heap = Heap::new();
            let c = heap.register_class("N", &["a", "b", "c"]);
            let nodes: Vec<ObjRef> = (0..2000).map(|_| heap.alloc(c, 3, 0).unwrap()).collect();
            for (i, &n) in nodes.iter().enumerate() {
                heap.set_ref_field(n, 0, nodes[(i * 7 + 1) % 2000]).unwrap();
                heap.set_ref_field(n, 1, nodes[(i * 31 + 5) % 2000])
                    .unwrap();
                if i % 3 == 0 {
                    heap.set_ref_field(n, 2, nodes[(i + 997) % 2000]).unwrap();
                }
            }
            (heap, nodes)
        }
        let (heap, nodes) = mesh();
        let roots = [nodes[0], nodes[123], nodes[999]];

        // Sequential baseline via the existing tracer.
        let (mut seq_heap, _) = mesh();
        let mut tracer = crate::tracer::Tracer::default();
        tracer.begin_cycle();
        for &r in &roots {
            tracer.push_root(r);
        }
        tracer
            .drain(&mut seq_heap, &mut crate::hooks::NoHooks)
            .unwrap();
        let seq_marked: Vec<bool> = (0..seq_heap.index_bound() as u32)
            .map(|i| {
                seq_heap
                    .object_at(i)
                    .is_some_and(|(r, _)| seq_heap.has_flag(r, Flags::MARK).unwrap())
            })
            .collect();

        let mut visitors = vec![NoParVisitor; 4];
        let stats = mark_parallel(&heap, &roots, &mut visitors).unwrap();
        let par_marked: Vec<bool> = (0..heap.index_bound() as u32)
            .map(|i| {
                heap.object_at(i)
                    .is_some_and(|(r, _)| heap.has_flag(r, Flags::MARK).unwrap())
            })
            .collect();

        assert_eq!(seq_marked, par_marked);
        assert_eq!(stats.objects_marked, tracer.objects_marked());
    }
}
