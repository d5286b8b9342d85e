//! The assertion engine: a [`TraceHooks`] implementation that checks every
//! registered GC assertion by piggybacking on the collector's trace.

use gca_collector::{HeapPath, ParMarkStats, TraceCtx, TraceHooks, Tracer, Visit};
use gca_heap::{ClassId, Flags, Heap, HeapError, ObjRef};

use crate::config::{AssertionClass, Reaction, VmConfig};
use crate::error::VmError;
use crate::ownership::OwnershipTable;
use crate::report::CheckCounters;
use crate::violation::{Violation, ViolationKind};

/// Which tracing phase the engine is in; the checks differ between the
/// ownership phase (scanning from owners, §2.5.2 phase 1) and the normal
/// root scan (phase 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Not inside a collection.
    Idle,
    /// Ownership phase, scanning directly from the owner at this table
    /// index.
    Ownership(usize),
    /// Ownership phase, resuming below a deferred ownee of the owner at
    /// this table index. Runs after *all* direct owner scans, so an
    /// unmarked wrong-owner ownee found here has a final verdict: its own
    /// owner's scan did not reach it.
    DeferredOwnership(usize),
    /// Root scan.
    Root,
}

/// What the root scan can find out about an object from its header bits,
/// in the order one object's findings are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Finding {
    /// An asserted-dead object is reachable (§2.3).
    Dead,
    /// An ownee the ownership phase did not credit is reachable: "it is
    /// not properly owned, or it would have been marked in the first
    /// phase" (§2.5.2).
    NotOwned,
    /// An asserted-unshared object has a second incoming pointer (§2.5.1).
    Shared,
}

/// The flag predicates of the root scan, over one header snapshot: what
/// an arrival at an object proves. A `first_visit` is the arrival that
/// claimed the mark (the object is reachable); any other arrival is an
/// extra incoming edge. The sequential hooks and the parallel shards both
/// check through this, so they cannot disagree.
pub(crate) fn root_scan_findings(flags: Flags, first_visit: bool) -> impl Iterator<Item = Finding> {
    let dead = first_visit && flags.contains(Flags::DEAD);
    let not_owned = first_visit && flags.contains(Flags::OWNEE) && !flags.contains(Flags::OWNED);
    let shared = !first_visit && flags.contains(Flags::UNSHARED);
    [
        (dead, Finding::Dead),
        (not_owned, Finding::NotOwned),
        (shared, Finding::Shared),
    ]
    .into_iter()
    .filter_map(|(found, finding)| found.then_some(finding))
}

/// The class of a newly traced `obj`, if `assert-instances` counts it
/// ("we check the RVMClass of every object during tracing"). With no class
/// tracked the object is not looked up at all.
pub(crate) fn tracked_class(heap: &Heap, obj: ObjRef) -> Option<ClassId> {
    let registry = heap.registry();
    if registry.tracked().is_empty() {
        return None;
    }
    let class = heap.get(obj).expect("traced object is live").class();
    registry.is_tracked(class).then_some(class)
}

/// The assertion-checking [`TraceHooks`] implementation.
///
/// One engine is owned by each instrumented [`crate::Vm`]; attaching it
/// with *no* assertions registered is the paper's **Infrastructure**
/// configuration (the collector performs the per-object flag checks and
/// maintains path information, but nothing ever fires).
///
/// The checks, and where they ride:
///
/// | assertion | piggyback point |
/// |---|---|
/// | `assert-dead` | `visit_new`: `DEAD` bit on a newly marked (hence reachable) object |
/// | `assert-unshared` | `visit_marked`: `UNSHARED` bit on an already-marked object (second incoming pointer) |
/// | `assert-instances` | `visit_new` counts tracked classes; `trace_done` compares against limits |
/// | `assert-ownedby` | `pre_root_phase` scans from owners; `visit_new` during the root scan flags unowned ownees |
/// Field visibility note: the parallel root scan (`crate::par_engine`)
/// merges its shards into this struct's accumulators, so those fields are
/// `pub(crate)`.
#[derive(Debug)]
pub struct AssertionEngine {
    pub(crate) path_tracking: bool,
    report_once: bool,
    /// Effective reaction for lifetime assertions — the only class whose
    /// reaction the engine acts on itself (`ForceTrue` edge severing).
    pub(crate) lifetime_reaction: Reaction,
    strict_owner_lifetime: bool,
    phase: Phase,
    /// The root scan's [`TraceHooks::visit_interest`], set at `gc_begin`:
    /// `None` (every visit) while `assert-instances` tracks a class.
    pub(crate) root_interest: Option<Flags>,
    ownership: OwnershipTable,
    /// Ownees discovered during the ownership phase, queued so scans
    /// truncate at ownees ("collections are essentially truncated when
    /// their leaves are reached") and are resumed after all owners.
    deferred: Vec<(ObjRef, usize)>,
    violations: Vec<Violation>,
    /// `violations.len()` at `gc_begin`: what an abandoned cycle rolls
    /// back to.
    violations_before_cycle: usize,
    /// Ownees an ownership scan reached through another owner's region —
    /// marked, and truncated at. `Some(path)` holds back the verdict on
    /// one reached during deferred processing until the whole ownership
    /// phase has finished (its own owner's chains may still credit it);
    /// `None` was reported as improper use on the spot.
    foreign_ownees: Vec<(ObjRef, Option<HeapPath>)>,
    /// Incoming edges to asserted-dead objects, recorded for the
    /// `ForceTrue` reaction.
    pub(crate) dead_edges: Vec<(ObjRef, usize)>,
    /// Ownees/owners freed by the current sweep, recorded from the `swept`
    /// hook so table retirement costs O(dead) instead of a table rescan.
    swept_ownees: Vec<ObjRef>,
    swept_owners: Vec<ObjRef>,
    pub(crate) counters: CheckCounters,
}

impl AssertionEngine {
    /// Creates an engine configured from `config`.
    pub fn new(config: &VmConfig) -> AssertionEngine {
        AssertionEngine {
            path_tracking: config.path_tracking,
            report_once: config.report_once,
            lifetime_reaction: config.effective_reaction(AssertionClass::Lifetime),
            strict_owner_lifetime: config.strict_owner_lifetime,
            phase: Phase::Idle,
            root_interest: None,
            ownership: OwnershipTable::new(),
            deferred: Vec::new(),
            violations: Vec::new(),
            violations_before_cycle: 0,
            foreign_ownees: Vec::new(),
            dead_edges: Vec::new(),
            swept_ownees: Vec::new(),
            swept_owners: Vec::new(),
            counters: CheckCounters::default(),
        }
    }

    /// Marks `obj` as asserted-dead (sets the `DEAD` header bit). The
    /// check happens at the next collection.
    pub fn assert_dead(&self, heap: &mut Heap, obj: ObjRef) -> Result<(), VmError> {
        heap.set_flag(obj, Flags::DEAD)?;
        Ok(())
    }

    /// Marks `obj` as asserted-unshared (sets the `UNSHARED` header bit).
    pub fn assert_unshared(&self, heap: &mut Heap, obj: ObjRef) -> Result<(), VmError> {
        heap.set_flag(obj, Flags::UNSHARED)?;
        Ok(())
    }

    /// Registers an owner/ownee pair.
    pub fn assert_owned_by(
        &mut self,
        heap: &mut Heap,
        owner: ObjRef,
        ownee: ObjRef,
    ) -> Result<(), VmError> {
        self.ownership.add(heap, owner, ownee)
    }

    /// Unregisters an ownee.
    pub(crate) fn release_ownee(&mut self, heap: &mut Heap, ownee: ObjRef) -> bool {
        self.ownership.remove_ownee(heap, ownee)
    }

    /// Number of registered owners.
    pub(crate) fn owner_count(&self) -> usize {
        self.ownership.len()
    }

    /// Number of registered ownees.
    pub(crate) fn ownee_count(&self) -> usize {
        self.ownership.ownee_count()
    }

    /// Post-minor-collection maintenance: retires ownership metadata for
    /// the objects the minor sweep reclaimed (recorded via the `swept`
    /// hook). No assertions are checked — that is the generational
    /// trade-off the paper describes (§2.2) — but the strict
    /// owner-lifetime extension still reports ownees that outlived an
    /// owner reclaimed by the nursery.
    pub fn after_minor(&mut self, heap: &mut Heap) {
        self.retire_swept(heap);
    }

    /// Retires pairs whose participants the sweep just freed (recorded by
    /// the `swept` hook), reporting the ownees that outlived their owner
    /// under the strict-owner-lifetime extension.
    fn retire_swept(&mut self, heap: &mut Heap) {
        let swept_ownees = std::mem::take(&mut self.swept_ownees);
        let swept_owners = std::mem::take(&mut self.swept_owners);
        let retired = self.ownership.retire(heap, &swept_ownees, &swept_owners);
        if self.strict_owner_lifetime {
            for (owner_class, survivors) in retired {
                for ownee in survivors {
                    let ownee_class = Self::class_name(heap, ownee);
                    self.violations.push(Violation {
                        kind: ViolationKind::OwneeOutlivedOwner {
                            ownee,
                            ownee_class,
                            owner_class: owner_class.clone(),
                        },
                        path: HeapPath::empty(),
                    });
                }
            }
        }
    }

    /// Takes the violations and counters accumulated during the last
    /// collection.
    pub fn drain(&mut self) -> (Vec<Violation>, CheckCounters) {
        (
            std::mem::take(&mut self.violations),
            std::mem::take(&mut self.counters),
        )
    }

    fn class_name(heap: &Heap, obj: ObjRef) -> String {
        match heap.get(obj) {
            Ok(o) => heap.registry().name(o.class()).to_owned(),
            Err(_) => "<dead>".to_owned(),
        }
    }

    /// Whether a violation for `obj` should be recorded, honouring
    /// report-once semantics via the `REPORTED` bit.
    fn should_report(&self, heap: &mut Heap, obj: ObjRef) -> bool {
        if !self.report_once {
            return true;
        }
        if heap.has_flag(obj, Flags::REPORTED).unwrap_or(true) {
            return false;
        }
        let _ = heap.set_flag(obj, Flags::REPORTED);
        true
    }

    /// Records the violation for `finding` on `obj` — the one place each
    /// of these kinds is built — honouring report-once. `path` is only
    /// evaluated for a violation that is recorded.
    pub(crate) fn report(
        &mut self,
        heap: &mut Heap,
        obj: ObjRef,
        finding: Finding,
        path: impl FnOnce(&Heap) -> HeapPath,
    ) {
        if !self.should_report(heap, obj) {
            return;
        }
        let class_name = Self::class_name(heap, obj);
        let kind = match finding {
            Finding::Dead => ViolationKind::DeadReachable {
                object: obj,
                class_name,
            },
            Finding::Shared => ViolationKind::Shared {
                object: obj,
                class_name,
            },
            Finding::NotOwned => {
                let (owner, owner_class) = match self.ownership.entry_of(obj) {
                    Some(idx) => {
                        let e = self.ownership.entry(idx);
                        (e.owner, e.owner_class.clone())
                    }
                    None => (ObjRef::NULL, "<unknown>".to_owned()),
                };
                ViolationKind::NotOwned {
                    ownee: obj,
                    ownee_class: class_name,
                    owner,
                    owner_class,
                }
            }
        };
        self.violations.push(Violation {
            kind,
            path: path(heap),
        });
    }
}

impl TraceHooks for AssertionEngine {
    fn wants_paths(&self) -> bool {
        self.path_tracking
    }

    fn gc_begin(&mut self, heap: &mut Heap) {
        heap.registry_mut().reset_instance_counts();
        self.counters = CheckCounters::default();
        self.violations_before_cycle = self.violations.len();
        self.deferred.clear();
        self.foreign_ownees.clear();
        self.dead_edges.clear();
        self.swept_ownees.clear();
        self.swept_owners.clear();
        self.root_interest = heap
            .registry()
            .tracked()
            .is_empty()
            .then_some(Flags::DEAD | Flags::OWNEE | Flags::UNSHARED);
        self.phase = Phase::Root;
    }

    fn pre_root_phase(&mut self, heap: &mut Heap, tracer: &mut Tracer) -> Result<(), HeapError> {
        if self.ownership.is_empty() {
            return Ok(());
        }
        // Phase 1 (§2.5.2): scan from each owner's children — never the
        // owner itself, so a dead owner is still collected this cycle.
        for idx in 0..self.ownership.len() {
            let owner = self.ownership.owner_at(idx);
            debug_assert!(heap.is_valid(owner), "dead owners are retired at gc_end");
            self.phase = Phase::Ownership(idx);
            self.counters.owners_scanned += 1;
            tracer.push_children_of(heap, owner)?;
            tracer.drain(heap, self)?;
        }
        // Resume scanning below the queued ownees, still on behalf of
        // their owners (an ownee's subtree may contain further ownees of
        // the same owner).
        while let Some((ownee, idx)) = self.deferred.pop() {
            self.phase = Phase::DeferredOwnership(idx);
            self.counters.deferred_ownees_processed += 1;
            tracer.push_children_of(heap, ownee)?;
            tracer.drain(heap, self)?;
        }
        // Resolve the held-back verdicts: every owner scan and deferred
        // chain has run, so an ownee still lacking OWNED is genuinely not
        // reachable through its owner.
        self.phase = Phase::Root;
        for (obj, held_back) in std::mem::take(&mut self.foreign_ownees) {
            if heap.has_flag(obj, Flags::OWNED)? {
                continue;
            }
            if let Some(path) = held_back {
                self.report(heap, obj, Finding::NotOwned, |_| path);
            }
            // No scan resumed below this ownee, yet its mark keeps it
            // alive and hides it from the root scan: trace what it
            // references the way the root scan would have.
            tracer.push_children_of(heap, obj)?;
            tracer.drain(heap, self)?;
        }
        Ok(())
    }

    fn visit_interest(&self) -> Option<Flags> {
        // The ownership phase sees every visit; the root scan's checks
        // read `DEAD`, `OWNEE` and `UNSHARED` only.
        match self.phase {
            Phase::Root => self.root_interest,
            _ => None,
        }
    }

    fn visit_new(
        &mut self,
        heap: &mut Heap,
        obj: ObjRef,
        flags: Flags,
        ctx: &TraceCtx<'_>,
    ) -> Visit {
        // assert-instances: count every traced object of a tracked class.
        if let Some(class) = tracked_class(heap, obj) {
            heap.registry_mut().info_mut(class).instance_count += 1;
            self.counters.tracked_instances_counted += 1;
        }

        let scanning = match self.phase {
            Phase::Ownership(current) | Phase::DeferredOwnership(current) => Some(current),
            Phase::Root | Phase::Idle => None,
        };
        for finding in root_scan_findings(flags, true) {
            // An uncredited ownee is a verdict only once the ownership
            // phase is over; while it runs, the branch below decides.
            if finding == Finding::NotOwned && scanning.is_some() {
                continue;
            }
            self.counters.count(finding);
            self.report(heap, obj, finding, |heap| ctx.current_path(heap));
        }
        if flags.contains(Flags::DEAD) && self.lifetime_reaction == Reaction::ForceTrue {
            self.dead_edges.extend(ctx.parent_edge());
        }

        let Some(current) = scanning else {
            return Visit::Descend;
        };
        if flags.contains(Flags::OWNEE) {
            self.counters.ownees_checked += 1;
            if self.ownership.entry_contains(current, obj) {
                heap.set_flag(obj, Flags::OWNED)
                    .expect("traced object is live");
                self.deferred.push((obj, current));
            } else if matches!(self.phase, Phase::Ownership(_)) {
                // A *direct* owner scan reached another owner's ownee: the
                // disjointness restriction is violated (§2.5.2, "improper
                // use of the assertion").
                let scanned_owner = self.ownership.owner_at(current);
                self.violations.push(Violation {
                    kind: ViolationKind::ImproperOwnership {
                        ownee: obj,
                        ownee_class: Self::class_name(heap, obj),
                        scanned_owner,
                        scanned_owner_class: Self::class_name(heap, scanned_owner),
                    },
                    path: ctx.current_path(heap),
                });
                self.foreign_ownees.push((obj, None));
            } else {
                // Reached below an ownee (a back edge out of the owner
                // region, e.g. Order -> Customer -> lastOrder). Its own
                // owner's deferred chains may still credit it, so hold the
                // verdict until the ownership phase completes.
                self.foreign_ownees
                    .push((obj, Some(ctx.current_path(heap))));
            }
            // Truncate: ownees stop the scan and are processed from the
            // deferred queue.
            return Visit::Skip;
        }
        if flags.contains(Flags::OWNER) {
            // "If we encounter another owner, mark it and stop the scan —
            // we will scan this owner independently."
            return Visit::Skip;
        }
        Visit::Descend
    }

    fn visit_marked(&mut self, heap: &mut Heap, obj: ObjRef, flags: Flags, ctx: &TraceCtx<'_>) {
        // During the ownership phase, an already-marked ownee of the
        // *current* owner may have been marked through another region's
        // back edge before its owner's scan reached it — credit it now and
        // resume below it (its children were truncated when first seen).
        if let Phase::Ownership(current) | Phase::DeferredOwnership(current) = self.phase {
            if flags.contains(Flags::OWNEE)
                && !flags.contains(Flags::OWNED)
                && self.ownership.entry_contains(current, obj)
            {
                heap.set_flag(obj, Flags::OWNED)
                    .expect("traced object is live");
                self.deferred.push((obj, current));
            }
        }
        // assert-unshared: an already-marked object reached through another
        // edge has (at least) two incoming pointers.
        for finding in root_scan_findings(flags, false) {
            self.counters.count(finding);
            self.report(heap, obj, finding, |heap| ctx.current_path(heap));
        }
        // Additional incoming edges to an asserted-dead object must also
        // be severed for ForceTrue to actually free it next cycle.
        if flags.contains(Flags::DEAD) && self.lifetime_reaction == Reaction::ForceTrue {
            self.dead_edges.extend(ctx.parent_edge());
        }
    }

    fn mark_roots_parallel(
        &mut self,
        heap: &mut Heap,
        roots: &[ObjRef],
        workers: usize,
    ) -> Result<ParMarkStats, HeapError> {
        crate::par_engine::mark_roots(self, heap, roots, workers)
    }

    fn swept_interest(&self) -> Flags {
        Flags::OWNEE | Flags::OWNER
    }

    fn swept(&mut self, heap: &Heap, obj: ObjRef) {
        // Selected by `swept_interest`, so a participant: an owner, or —
        // the table keeps the two apart — an ownee.
        if heap.has_flag(obj, Flags::OWNER).unwrap_or(false) {
            self.swept_owners.push(obj);
        } else {
            self.swept_ownees.push(obj);
        }
    }

    fn trace_done(&mut self, heap: &mut Heap) {
        // assert-instances: "at the end of GC, we iterate through our list
        // of tracked types, checking whether the instance limit has been
        // violated."
        let tracked: Vec<_> = heap.registry().tracked().to_vec();
        for class in tracked {
            let info = heap.registry().info(class);
            if let Some(limit) = info.instance_limit {
                if info.instance_count > limit {
                    self.violations.push(Violation {
                        kind: ViolationKind::InstanceLimit {
                            class_name: info.name().to_owned(),
                            limit,
                            count: info.instance_count,
                        },
                        path: HeapPath::empty(),
                    });
                }
            }
        }
    }

    fn gc_end(&mut self, heap: &mut Heap, _cycle: &gca_collector::CycleStats) {
        // ForceTrue: sever the recorded incoming edges so the object dies
        // at the next collection (§2.6 "force the assertion to be true").
        if self.lifetime_reaction == Reaction::ForceTrue {
            for (parent, field) in self.dead_edges.drain(..) {
                if heap.is_valid(parent) {
                    let _ = heap.set_ref_field(parent, field, ObjRef::NULL);
                }
            }
        }
        self.retire_swept(heap);
        self.phase = Phase::Idle;
    }

    fn gc_abort(&mut self, heap: &mut Heap) {
        // Whatever part of the sweep ran did free those objects.
        self.retire_swept(heap);
        // The cycle's reports die with it; un-report their objects so the
        // next cycle finds what an undisturbed one would.
        for v in self.violations.drain(self.violations_before_cycle..) {
            if let ViolationKind::DeadReachable { object: obj, .. }
            | ViolationKind::Shared { object: obj, .. }
            | ViolationKind::NotOwned { ownee: obj, .. } = v.kind
            {
                let _ = heap.clear_flag(obj, Flags::REPORTED);
            }
        }
        self.counters = CheckCounters::default();
        self.phase = Phase::Idle;
    }
}
