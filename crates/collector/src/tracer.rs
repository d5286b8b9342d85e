//! The tracing engine: worklist management, marking, and on-demand path
//! reconstruction.

use gca_heap::{Flags, Heap, HeapError, ObjRef};

use crate::hooks::{TraceHooks, Visit};
use crate::path::{HeapPath, PathStep};

/// Sentinel field index for worklist entries pushed from a root.
const ROOT_FIELD: u32 = u32::MAX;

/// One worklist entry. `on_path` is the Rust spelling of the paper's
/// low-order tag bit: "we pop a reference from the worklist, set its low
/// order bit and push it back onto the worklist; then we continue to scan
/// the object normally" (§2.7). Entries also remember the reference-field
/// index they were pushed through, which lets reports name the exact field
/// that keeps an object alive.
#[derive(Debug, Clone, Copy)]
struct Entry {
    obj: ObjRef,
    field: u32,
    on_path: bool,
}

/// The marking engine used by [`crate::Collector`], exposed so that
/// [`TraceHooks::pre_root_phase`] implementations (the ownership phase) can
/// drive tracing from arbitrary start objects before the root scan.
///
/// In *path mode* the tracer keeps gray objects on the worklist with an
/// on-path tag; at any instant the tagged subset of the worklist, bottom to
/// top, is the exact path from a root to the object currently being
/// scanned. [`TraceCtx::current_path`] snapshots it. In plain mode (the
/// Base configuration) no tags are pushed and paths are unavailable.
#[derive(Debug, Default)]
pub struct Tracer {
    entries: Vec<Entry>,
    path_mode: bool,
    objects_marked: u64,
    edges_traced: u64,
}

impl Tracer {
    /// Creates a tracer in plain (no-path) mode.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Enables or disables the path-tracking worklist for subsequent work.
    pub fn set_path_mode(&mut self, on: bool) {
        self.path_mode = on;
    }

    /// Resets per-cycle counters and drops any leftover worklist entries.
    pub fn begin_cycle(&mut self) {
        self.entries.clear();
        self.objects_marked = 0;
        self.edges_traced = 0;
    }

    /// Objects marked so far this cycle.
    pub(crate) fn objects_marked(&self) -> u64 {
        self.objects_marked
    }

    /// Edges traced so far this cycle.
    pub(crate) fn edges_traced(&self) -> u64 {
        self.edges_traced
    }

    /// Queues a root reference for scanning (null roots are ignored).
    pub fn push_root(&mut self, r: ObjRef) {
        if r.is_some() {
            self.entries.push(Entry {
                obj: r,
                field: ROOT_FIELD,
                on_path: false,
            });
        }
    }

    /// Queues the non-null reference fields of `obj` without visiting `obj`
    /// itself. The ownership phase uses this both to start scans from
    /// owners ("we avoid marking the owner object when we do the ownership
    /// scan", §2.5.2) and to resume scanning below queued ownees.
    ///
    /// # Errors
    ///
    /// Reference-validity errors if `obj` is not live.
    pub fn push_children_of(&mut self, heap: &Heap, obj: ObjRef) -> Result<(), HeapError> {
        let o = heap.get(obj)?;
        for (i, &c) in o.refs().iter().enumerate() {
            if c.is_some() {
                self.edges_traced += 1;
                self.entries.push(Entry {
                    obj: c,
                    field: i as u32,
                    on_path: false,
                });
            }
        }
        Ok(())
    }

    /// Processes the worklist to exhaustion, marking objects and invoking
    /// `hooks` at each first visit and re-visit.
    ///
    /// # Errors
    ///
    /// Propagates reference-validity errors, which indicate a collector
    /// invariant violation (the heap never contains edges to dead objects).
    pub fn drain<H: TraceHooks>(
        &mut self,
        heap: &mut Heap,
        hooks: &mut H,
    ) -> Result<(), HeapError> {
        while let Some(entry) = self.entries.pop() {
            if entry.on_path {
                // The paper: "If we encounter a reference whose low-order
                // bit is set, we discard it — this simply indicates that we
                // have already visited all objects reachable from it."
                continue;
            }
            let r = entry.obj;
            let ctx = TraceCtx {
                entries: &self.entries,
                path_mode: self.path_mode,
                tip: r,
                tip_field: field_index(entry.field),
                prov: None,
                parent: ObjRef::NULL,
            };
            let Some(action) = visit(heap, hooks, r, &ctx, |_| Ok(()))? else {
                continue;
            };
            self.objects_marked += 1;
            if action == Visit::Skip {
                continue;
            }
            if self.path_mode {
                self.entries.push(Entry {
                    obj: r,
                    field: entry.field,
                    on_path: true,
                });
            }
            let o = heap.get(r)?;
            for (i, &c) in o.refs().iter().enumerate() {
                if c.is_some() {
                    self.edges_traced += 1;
                    self.entries.push(Entry {
                        obj: c,
                        field: i as u32,
                        on_path: false,
                    });
                }
            }
        }
        Ok(())
    }
}

/// The one visit step of every sequential trace, whatever its worklist:
/// [`claim`] `MARK` on `obj` for the hooks' [`TraceHooks::visit_interest`].
/// The first claim is the object's first visit — `claimed` runs (an
/// evacuating trace forwards the object there), then
/// [`TraceHooks::visit_new`], whose verdict is returned. Any later arrival
/// is an extra incoming edge: [`TraceHooks::visit_marked`] fires and `None`
/// is returned. Either hook gets the claim's header snapshot, and neither
/// is called when the claim proved the object carries no interest flag: a
/// first arrival then descends. Objects a pre-root phase already marked
/// are simply "already marked" here.
#[inline]
pub(crate) fn visit<H: TraceHooks>(
    heap: &mut Heap,
    hooks: &mut H,
    obj: ObjRef,
    ctx: &TraceCtx<'_>,
    claimed: impl FnOnce(&mut Heap) -> Result<(), HeapError>,
) -> Result<Option<Visit>, HeapError> {
    let (marked, prev) = claim(heap, obj, hooks.visit_interest())?;
    if marked {
        if let Some(prev) = prev {
            hooks.visit_marked(heap, obj, prev, ctx);
        }
        return Ok(None);
    }
    claimed(heap)?;
    Ok(Some(match prev {
        Some(prev) => hooks.visit_new(heap, obj, prev, ctx),
        None => Visit::Descend,
    }))
}

/// The mark claim of every trace — sequential, evacuating and parallel:
/// [`Heap::claim_mark`], whose result debug builds (and the `mcheck`
/// profile) check against the header it claimed. A snapshot must be that
/// header before `MARK`; a skipped one must hide no `interest` flag.
#[inline(always)]
pub(crate) fn claim(
    heap: &Heap,
    obj: ObjRef,
    interest: Option<Flags>,
) -> Result<(bool, Option<Flags>), HeapError> {
    let (marked, prev) = heap.claim_mark(obj, interest)?;
    #[cfg(debug_assertions)]
    {
        let header = heap.flags_of(obj)?;
        match prev {
            Some(prev) => assert_eq!(
                header,
                prev | Flags::MARK,
                "the mark claim's snapshot is not the header it claimed"
            ),
            None => assert!(
                !header.intersects(interest.expect("a skipped header has an interest")),
                "the mark claim skipped a header carrying an interest flag: {header:?}"
            ),
        }
    }
    Ok((marked, prev))
}

#[inline]
fn field_index(raw: u32) -> Option<usize> {
    if raw == ROOT_FIELD {
        None
    } else {
        Some(raw as usize)
    }
}

/// First-arrival parent edges recorded during a breadth-first scan, used
/// by the copying collector to reconstruct root-to-object paths.
///
/// The sequential tracer gets paths for free from its LIFO worklist (the
/// on-path tag bits, §2.7); a Cheney scan has no stack to read the path
/// off, so the copying backend records, for every object it evacuates, the
/// edge through which the object was *first* reached. Walking those edges
/// from a violating object back to a root reproduces a Figure-1-style
/// retaining path. The table is keyed by heap slot and rebuilt each cycle;
/// recording is skipped entirely in plain (no-path) mode.
#[derive(Debug, Default)]
pub(crate) struct Provenance {
    /// Per-slot first-arrival edge: `(parent, field)`; a null parent means
    /// "reached from a root" (or never reached).
    parents: Vec<(ObjRef, u32)>,
}

impl Provenance {
    /// Clears the table and sizes it for a heap of `slot_count` slots.
    pub(crate) fn begin_cycle(&mut self, slot_count: usize) {
        self.parents.clear();
        self.parents.resize(slot_count, (ObjRef::NULL, ROOT_FIELD));
    }

    /// Records that `child` was first reached through `parent`'s reference
    /// field `field`. Only the first record for a child is kept — exactly
    /// the first-arrival discipline of the scan itself.
    pub(crate) fn record(&mut self, child: ObjRef, parent: ObjRef, field: usize) {
        let slot = child.index() as usize;
        if slot >= self.parents.len() {
            self.parents.resize(slot + 1, (ObjRef::NULL, ROOT_FIELD));
        }
        if self.parents[slot].0.is_null() {
            self.parents[slot] = (parent, field as u32);
        }
    }

    /// The first-arrival edge of `obj`: `(parent, field)`, or `None` if
    /// `obj` was reached from a root (or not recorded).
    pub(crate) fn parent_of(&self, obj: ObjRef) -> Option<(ObjRef, usize)> {
        match self.parents.get(obj.index() as usize) {
            Some(&(p, f)) if p.is_some() => Some((p, f as usize)),
            _ => None,
        }
    }
}

/// A view of the tracer's state handed to [`TraceHooks`] callbacks, from
/// which the current root-to-object path can be reconstructed.
#[derive(Debug)]
pub struct TraceCtx<'a> {
    entries: &'a [Entry],
    path_mode: bool,
    tip: ObjRef,
    tip_field: Option<usize>,
    /// Breadth-first provenance table, used instead of the worklist when
    /// the context comes from the copying collector's Cheney scan.
    prov: Option<&'a Provenance>,
    /// The scanning parent for a provenance-mode context (null when the
    /// tip was reached from a root).
    parent: ObjRef,
}

impl TraceCtx<'_> {
    /// A context backed by a breadth-first [`Provenance`] table instead of
    /// the sequential tracer's worklist: the copying collector builds one
    /// per processed edge. `parent` is the object whose field is being
    /// scanned (null for a root edge), `tip_field` the index of that
    /// field. Pass `prov = None` for plain (no-path) mode; paths are then
    /// unavailable, mirroring the Base configuration.
    pub(crate) fn from_provenance<'a>(
        prov: Option<&'a Provenance>,
        parent: ObjRef,
        tip: ObjRef,
        tip_field: Option<usize>,
    ) -> TraceCtx<'a> {
        TraceCtx {
            entries: &[],
            path_mode: prov.is_some(),
            tip,
            tip_field,
            prov,
            parent,
        }
    }

    /// The heap edge through which the hook's object was reached: the
    /// parent object and the parent's reference-field index. `None` if the
    /// object was reached from a root, or in plain mode.
    ///
    /// The `ForceTrue` violation reaction uses this to null out the
    /// references keeping an asserted-dead object alive (§2.6).
    pub fn parent_edge(&self) -> Option<(ObjRef, usize)> {
        let field = self.tip_field?;
        if self.prov.is_some() {
            return self.parent.is_some().then_some((self.parent, field));
        }
        let parent = self.entries.iter().rev().find(|e| e.on_path)?;
        Some((parent.obj, field))
    }

    /// Reconstructs the path from the root (or phase start object) to the
    /// hook's object: the on-path suffix of the worklist plus the object
    /// itself. Returns [`HeapPath::empty`] in plain mode, mirroring the
    /// Base configuration's lack of debugging information.
    pub fn current_path(&self, heap: &Heap) -> HeapPath {
        if !self.path_mode {
            return HeapPath::empty();
        }
        if let Some(prov) = self.prov {
            return self.provenance_path(heap, prov);
        }
        let mut steps: Vec<PathStep> = Vec::new();
        for e in self.entries.iter().filter(|e| e.on_path) {
            if let Ok(o) = heap.get(e.obj) {
                steps.push(PathStep {
                    object: e.obj,
                    class: o.class(),
                    field: field_index(e.field),
                });
            }
        }
        if self.tip.is_some() {
            if let Ok(o) = heap.get(self.tip) {
                steps.push(PathStep {
                    object: self.tip,
                    class: o.class(),
                    field: self.tip_field,
                });
            }
        }
        HeapPath::new(steps)
    }

    /// Path reconstruction for provenance-mode contexts: walk the
    /// first-arrival edges from the scanning parent back to a root, then
    /// append the tip. The provenance graph is a forest (each edge points
    /// at an earlier-visited object), so the walk terminates.
    fn provenance_path(&self, heap: &Heap, prov: &Provenance) -> HeapPath {
        let mut steps: Vec<PathStep> = Vec::new();
        let mut cur = self.parent;
        while cur.is_some() {
            match heap.get(cur) {
                Ok(o) => {
                    let edge = prov.parent_of(cur);
                    steps.push(PathStep {
                        object: cur,
                        class: o.class(),
                        field: edge.map(|(_, f)| f),
                    });
                    cur = edge.map(|(p, _)| p).unwrap_or(ObjRef::NULL);
                }
                Err(_) => break,
            }
        }
        steps.reverse();
        if self.tip.is_some() {
            if let Ok(o) = heap.get(self.tip) {
                steps.push(PathStep {
                    object: self.tip,
                    class: o.class(),
                    field: self.tip_field,
                });
            }
        }
        HeapPath::new(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;

    fn linked_heap() -> (Heap, Vec<ObjRef>) {
        // chain: a -> b -> c, plus isolated d
        let mut heap = Heap::new();
        let node = heap.register_class("Node", &["next"]);
        let a = heap.alloc(node, 1, 0).unwrap();
        let b = heap.alloc(node, 1, 0).unwrap();
        let c = heap.alloc(node, 1, 0).unwrap();
        let d = heap.alloc(node, 1, 0).unwrap();
        heap.set_ref_field(a, 0, b).unwrap();
        heap.set_ref_field(b, 0, c).unwrap();
        (heap, vec![a, b, c, d])
    }

    #[test]
    fn marks_reachable_only() {
        let (mut heap, objs) = linked_heap();
        let mut tr = Tracer::new();
        tr.begin_cycle();
        tr.push_root(objs[0]);
        tr.drain(&mut heap, &mut NoHooks).unwrap();
        assert!(heap.has_flag(objs[0], Flags::MARK).unwrap());
        assert!(heap.has_flag(objs[1], Flags::MARK).unwrap());
        assert!(heap.has_flag(objs[2], Flags::MARK).unwrap());
        assert!(!heap.has_flag(objs[3], Flags::MARK).unwrap());
        assert_eq!(tr.objects_marked(), 3);
        assert_eq!(tr.edges_traced(), 2);
    }

    #[test]
    fn handles_cycles() {
        let mut heap = Heap::new();
        let node = heap.register_class("Node", &["next"]);
        let a = heap.alloc(node, 1, 0).unwrap();
        let b = heap.alloc(node, 1, 0).unwrap();
        heap.set_ref_field(a, 0, b).unwrap();
        heap.set_ref_field(b, 0, a).unwrap(); // cycle
        let mut tr = Tracer::new();
        tr.begin_cycle();
        tr.push_root(a);
        tr.drain(&mut heap, &mut NoHooks).unwrap();
        assert_eq!(tr.objects_marked(), 2);
    }

    #[test]
    fn self_loop_marks_once() {
        let mut heap = Heap::new();
        let node = heap.register_class("Node", &["next"]);
        let a = heap.alloc(node, 1, 0).unwrap();
        heap.set_ref_field(a, 0, a).unwrap();
        let mut tr = Tracer::new();
        tr.begin_cycle();
        tr.push_root(a);
        tr.drain(&mut heap, &mut NoHooks).unwrap();
        assert_eq!(tr.objects_marked(), 1);
        assert_eq!(tr.edges_traced(), 1);
    }

    #[test]
    fn null_roots_ignored() {
        let mut heap = Heap::new();
        let mut tr = Tracer::new();
        tr.begin_cycle();
        tr.push_root(ObjRef::NULL);
        tr.drain(&mut heap, &mut NoHooks).unwrap();
        assert_eq!(tr.objects_marked(), 0);
    }

    /// Hooks that record the path at each first visit.
    struct PathRecorder {
        paths: Vec<(ObjRef, HeapPath)>,
    }

    impl TraceHooks for PathRecorder {
        fn wants_paths(&self) -> bool {
            true
        }
        fn visit_new(
            &mut self,
            heap: &mut Heap,
            obj: ObjRef,
            _prev: Flags,
            ctx: &TraceCtx<'_>,
        ) -> Visit {
            self.paths.push((obj, ctx.current_path(heap)));
            Visit::Descend
        }
    }

    #[test]
    fn paths_reconstruct_ancestor_chain() {
        let (mut heap, objs) = linked_heap();
        let mut tr = Tracer::new();
        tr.set_path_mode(true);
        tr.begin_cycle();
        tr.push_root(objs[0]);
        let mut rec = PathRecorder { paths: Vec::new() };
        tr.drain(&mut heap, &mut rec).unwrap();

        let path_c = &rec
            .paths
            .iter()
            .find(|(o, _)| *o == objs[2])
            .expect("c visited")
            .1;
        let chain: Vec<ObjRef> = path_c.steps().iter().map(|s| s.object).collect();
        assert_eq!(chain, vec![objs[0], objs[1], objs[2]]);
        // Root step has no field; the rest came through field 0 ("next").
        assert_eq!(path_c.steps()[0].field, None);
        assert_eq!(path_c.steps()[1].field, Some(0));
        assert_eq!(path_c.steps()[2].field, Some(0));
    }

    #[test]
    fn paths_branching_structure() {
        // root -> left, root -> right -> leaf; check leaf's path goes
        // through right, not left.
        let mut heap = Heap::new();
        let node = heap.register_class("Node", &["l", "r"]);
        let root = heap.alloc(node, 2, 0).unwrap();
        let left = heap.alloc(node, 2, 0).unwrap();
        let right = heap.alloc(node, 2, 0).unwrap();
        let leaf = heap.alloc(node, 2, 0).unwrap();
        heap.set_ref_field(root, 0, left).unwrap();
        heap.set_ref_field(root, 1, right).unwrap();
        heap.set_ref_field(right, 0, leaf).unwrap();

        let mut tr = Tracer::new();
        tr.set_path_mode(true);
        tr.begin_cycle();
        tr.push_root(root);
        let mut rec = PathRecorder { paths: Vec::new() };
        tr.drain(&mut heap, &mut rec).unwrap();

        let path_leaf = &rec.paths.iter().find(|(o, _)| *o == leaf).unwrap().1;
        let chain: Vec<ObjRef> = path_leaf.steps().iter().map(|s| s.object).collect();
        assert_eq!(chain, vec![root, right, leaf]);
        assert_eq!(path_leaf.steps()[1].field, Some(1)); // root.r
        assert_eq!(path_leaf.steps()[2].field, Some(0)); // right.l
    }

    /// Hooks that skip descending into a designated object.
    struct Skipper {
        skip: ObjRef,
    }

    impl TraceHooks for Skipper {
        fn visit_new(&mut self, _h: &mut Heap, obj: ObjRef, _p: Flags, _c: &TraceCtx<'_>) -> Visit {
            if obj == self.skip {
                Visit::Skip
            } else {
                Visit::Descend
            }
        }
    }

    #[test]
    fn skip_truncates_scan() {
        let (mut heap, objs) = linked_heap();
        let mut tr = Tracer::new();
        tr.begin_cycle();
        tr.push_root(objs[0]);
        let mut sk = Skipper { skip: objs[1] };
        tr.drain(&mut heap, &mut sk).unwrap();
        // b was marked but its children not scanned, so c stays unmarked.
        assert!(heap.has_flag(objs[1], Flags::MARK).unwrap());
        assert!(!heap.has_flag(objs[2], Flags::MARK).unwrap());
    }

    #[test]
    fn push_children_of_skips_start_object() {
        let (mut heap, objs) = linked_heap();
        let mut tr = Tracer::new();
        tr.begin_cycle();
        tr.push_children_of(&heap, objs[0]).unwrap();
        tr.drain(&mut heap, &mut NoHooks).unwrap();
        assert!(!heap.has_flag(objs[0], Flags::MARK).unwrap());
        assert!(heap.has_flag(objs[1], Flags::MARK).unwrap());
        assert!(heap.has_flag(objs[2], Flags::MARK).unwrap());
    }

    /// Hooks that record visit_marked (re-visit) calls.
    struct RevisitRecorder {
        revisits: Vec<ObjRef>,
    }

    impl TraceHooks for RevisitRecorder {
        fn visit_marked(&mut self, _h: &mut Heap, obj: ObjRef, _p: Flags, _c: &TraceCtx<'_>) {
            self.revisits.push(obj);
        }
    }

    #[test]
    fn second_edge_triggers_visit_marked() {
        // a -> shared, b -> shared; roots {a, b}.
        let mut heap = Heap::new();
        let node = heap.register_class("Node", &["x"]);
        let a = heap.alloc(node, 1, 0).unwrap();
        let b = heap.alloc(node, 1, 0).unwrap();
        let shared = heap.alloc(node, 1, 0).unwrap();
        heap.set_ref_field(a, 0, shared).unwrap();
        heap.set_ref_field(b, 0, shared).unwrap();
        let mut tr = Tracer::new();
        tr.begin_cycle();
        tr.push_root(a);
        tr.push_root(b);
        let mut rec = RevisitRecorder {
            revisits: Vec::new(),
        };
        tr.drain(&mut heap, &mut rec).unwrap();
        assert_eq!(rec.revisits, vec![shared]);
    }

    #[test]
    fn no_paths_ctx_is_empty() {
        let heap = Heap::new();
        let ctx = TraceCtx::from_provenance(None, ObjRef::NULL, ObjRef::NULL, None);
        assert_eq!(ctx.parent_edge(), None);
        assert!(ctx.current_path(&heap).is_empty());
        assert!(ctx.tip.is_null());
    }

    #[test]
    fn provenance_keeps_first_arrival_edge() {
        let (heap, objs) = linked_heap();
        let mut prov = Provenance::default();
        prov.begin_cycle(heap.index_bound());
        prov.record(objs[1], objs[0], 0);
        prov.record(objs[1], objs[2], 0); // second arrival: ignored
        assert_eq!(prov.parent_of(objs[1]), Some((objs[0], 0)));
        assert_eq!(prov.parent_of(objs[0]), None, "roots have no parent");
    }

    #[test]
    fn provenance_ctx_reconstructs_chain() {
        // a -> b -> c as in the DFS test, but recorded breadth-first.
        let (heap, objs) = linked_heap();
        let mut prov = Provenance::default();
        prov.begin_cycle(heap.index_bound());
        prov.record(objs[1], objs[0], 0);
        prov.record(objs[2], objs[1], 0);

        // Hook call for the edge b.0 -> c.
        let ctx = TraceCtx::from_provenance(Some(&prov), objs[1], objs[2], Some(0));
        assert_eq!(ctx.parent_edge(), Some((objs[1], 0)));
        let path = ctx.current_path(&heap);
        let chain: Vec<ObjRef> = path.steps().iter().map(|s| s.object).collect();
        assert_eq!(chain, vec![objs[0], objs[1], objs[2]]);
        assert_eq!(path.steps()[0].field, None);
        assert_eq!(path.steps()[1].field, Some(0));
        assert_eq!(path.steps()[2].field, Some(0));
    }

    #[test]
    fn provenance_ctx_root_edge() {
        let (heap, objs) = linked_heap();
        let prov = Provenance::default();
        let ctx = TraceCtx::from_provenance(Some(&prov), ObjRef::NULL, objs[0], None);
        assert_eq!(ctx.parent_edge(), None);
        let path = ctx.current_path(&heap);
        let chain: Vec<ObjRef> = path.steps().iter().map(|s| s.object).collect();
        assert_eq!(chain, vec![objs[0]]);
    }

    #[test]
    fn provenance_ctx_plain_mode_has_no_paths() {
        let (heap, objs) = linked_heap();
        let ctx = TraceCtx::from_provenance(None, objs[0], objs[1], Some(0));
        assert_eq!(ctx.parent_edge(), None);
        assert!(ctx.current_path(&heap).is_empty());
    }
}
