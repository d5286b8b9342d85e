//! Abstract collection: a faithful mirror of the runtime mark/sweep
//! cycle over the abstract heap.
//!
//! The mirror replicates the tracer's LIFO worklist (including the
//! on-path sentinel entries that carry root-to-object paths), the
//! assertion engine's ownership phases with their deferred/pending
//! queues, report-once suppression, force-true edge severing, the sweep
//! in allocation order, and the generational minor cycle (a no-op
//! without generational mode).  Divergence here is a soundness bug, so every
//! branch corresponds to a branch in `gca_core::engine` /
//! `gca_collector`; the differential test in `tests/check.rs` holds the
//! two implementations together.

use gc_assertions::{Mode, Reaction};

use super::domain::{AbsState, ObjId};

/// One step on a root-to-object abstract path: the object plus the field
/// index *through which it was reached* (None for roots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PathStep {
    /// The object at this step.
    pub obj: ObjId,
    /// Field index in the *previous* step's class, `None` at a root.
    pub field: Option<usize>,
}

/// Which assertion a predicted violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PredKind {
    /// `assert-dead` object still reachable.
    DeadReachable,
    /// `assert-unshared` object reached through a second edge.
    Shared,
    /// `assert-instances` limit exceeded.
    InstanceLimit,
    /// Ownee not reachable through its owner.
    NotOwned,
    /// Another owner's ownee reached during a direct owner scan.
    ImproperOwnership,
    /// Strict owner lifetime: ownee survived its owner's death.
    OwneeOutlivedOwner,
}

/// A predicted violation; `summary` uses the runtime
/// `Violation::summary()` format so the differential harness can match
/// predictions against actual reports verbatim.
#[derive(Debug, Clone)]
pub(crate) struct PredViolation {
    /// Assertion kind.
    pub kind: PredKind,
    /// Runtime-format summary string, e.g. `dead-reachable Session`.
    pub summary: String,
    /// The violating object, when the violation names one.
    pub obj: Option<ObjId>,
    /// Abstract root-to-object path (empty when path tracking is off or
    /// the kind carries no path).
    pub path: Vec<PathStep>,
}

/// What one abstract major collection produced.
#[derive(Debug)]
pub(crate) struct CycleOutcome {
    /// Predicted violations, in engine emission order.
    pub violations: Vec<PredViolation>,
    /// The ownership table was non-empty when the cycle began — the
    /// analyzer downgrades this cycle's verdicts to **may**.
    pub ownership_active: bool,
}

/// A collection event triggered implicitly by the allocator.
#[derive(Debug)]
pub(crate) enum Collection {
    /// A full mark/sweep cycle.
    Major(CycleOutcome),
    /// A nursery-only cycle (strict-owner-lifetime reports only).
    Minor(Vec<PredViolation>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Ownership(usize),
    Deferred(usize),
    Root,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    obj: ObjId,
    field: Option<usize>,
    on_path: bool,
}

/// Per-cycle tracer + engine mirror state.
struct Cycle {
    engine: bool,
    path_mode: bool,
    force_true: bool,
    report_once: bool,
    phase: Phase,
    stack: Vec<Entry>,
    deferred: Vec<(ObjId, usize)>,
    pending: Vec<(ObjId, Option<Vec<PathStep>>)>,
    dead_edges: Vec<(ObjId, usize)>,
    violations: Vec<PredViolation>,
}

impl Cycle {
    fn current_path(&self, tip: ObjId, tip_field: Option<usize>) -> Vec<PathStep> {
        if !self.path_mode {
            return Vec::new();
        }
        let mut path: Vec<PathStep> = self
            .stack
            .iter()
            .filter(|e| e.on_path)
            .map(|e| PathStep {
                obj: e.obj,
                field: e.field,
            })
            .collect();
        path.push(PathStep {
            obj: tip,
            field: tip_field,
        });
        path
    }

    fn parent_edge(&self, tip_field: Option<usize>) -> Option<(ObjId, usize)> {
        let field = tip_field?;
        let parent = self.stack.iter().rev().find(|e| e.on_path)?;
        Some((parent.obj, field))
    }

    fn should_report(&self, st: &mut AbsState, obj: ObjId) -> bool {
        if !self.report_once {
            return true;
        }
        if st.objects[obj].reported {
            return false;
        }
        st.objects[obj].reported = true;
        true
    }

    fn class_name(&self, st: &AbsState, obj: ObjId) -> String {
        st.classes[st.objects[obj].class].name.clone()
    }

    /// Mirror of `AssertionEngine::visit_new`; returns whether to
    /// descend into the object's children.
    fn visit_new(&mut self, st: &mut AbsState, obj: ObjId, tip_field: Option<usize>) -> bool {
        if !self.engine {
            return true;
        }
        let cls = st.objects[obj].class;
        if st.classes[cls].limit.is_some() {
            st.classes[cls].gc_count += 1;
        }
        if st.objects[obj].dead {
            if self.should_report(st, obj) {
                let path = self.current_path(obj, tip_field);
                let summary = format!("dead-reachable {}", st.classes[cls].name);
                self.violations.push(PredViolation {
                    kind: PredKind::DeadReachable,
                    summary,
                    obj: Some(obj),
                    path,
                });
            }
            if self.force_true {
                if let Some(edge) = self.parent_edge(tip_field) {
                    self.dead_edges.push(edge);
                }
            }
        }
        match self.phase {
            Phase::Ownership(cur) | Phase::Deferred(cur) => {
                if st.objects[obj].ownee {
                    if st.ownership[cur].ownees.contains(&obj) {
                        st.objects[obj].owned = true;
                        self.deferred.push((obj, cur));
                    } else if matches!(self.phase, Phase::Ownership(_)) {
                        // Disjointness violated: a direct owner scan
                        // reached another owner's ownee (no report-once
                        // suppression, mirroring the engine).
                        let summary = format!("improper-ownership {}", self.class_name(st, obj));
                        let path = self.current_path(obj, tip_field);
                        self.violations.push(PredViolation {
                            kind: PredKind::ImproperOwnership,
                            summary,
                            obj: Some(obj),
                            path,
                        });
                        self.pending.push((obj, None));
                    } else {
                        // Below a deferred ownee: hold the verdict until
                        // every ownership chain has run.
                        let path = self.current_path(obj, tip_field);
                        self.pending.push((obj, Some(path)));
                    }
                    return false;
                }
                // Other owners are scanned independently.
                !st.objects[obj].owner
            }
            Phase::Root => {
                if st.objects[obj].ownee && !st.objects[obj].owned && self.should_report(st, obj) {
                    let summary = format!("not-owned {}", self.class_name(st, obj));
                    let path = self.current_path(obj, tip_field);
                    self.violations.push(PredViolation {
                        kind: PredKind::NotOwned,
                        summary,
                        obj: Some(obj),
                        path,
                    });
                }
                true
            }
        }
    }

    /// Mirror of `AssertionEngine::visit_marked`.
    fn visit_marked(&mut self, st: &mut AbsState, obj: ObjId, tip_field: Option<usize>) {
        if !self.engine {
            return;
        }
        if let Phase::Ownership(cur) | Phase::Deferred(cur) = self.phase {
            if st.objects[obj].ownee
                && !st.objects[obj].owned
                && st.ownership[cur].ownees.contains(&obj)
            {
                st.objects[obj].owned = true;
                self.deferred.push((obj, cur));
            }
        }
        if st.objects[obj].unshared && self.should_report(st, obj) {
            let summary = format!("shared {}", self.class_name(st, obj));
            let path = self.current_path(obj, tip_field);
            self.violations.push(PredViolation {
                kind: PredKind::Shared,
                summary,
                obj: Some(obj),
                path,
            });
        }
        if st.objects[obj].dead && self.force_true {
            if let Some(edge) = self.parent_edge(tip_field) {
                self.dead_edges.push(edge);
            }
        }
    }

    fn push_children_of(&mut self, st: &AbsState, obj: ObjId) {
        for i in 0..st.objects[obj].fields.len() {
            if let Some(child) = st.objects[obj].fields[i] {
                self.stack.push(Entry {
                    obj: child,
                    field: Some(i),
                    on_path: false,
                });
            }
        }
    }

    fn drain(&mut self, st: &mut AbsState) {
        while let Some(e) = self.stack.pop() {
            if e.on_path {
                continue;
            }
            if st.objects[e.obj].mark {
                self.visit_marked(st, e.obj, e.field);
                continue;
            }
            st.objects[e.obj].mark = true;
            if !self.visit_new(st, e.obj, e.field) {
                continue;
            }
            if self.path_mode {
                self.stack.push(Entry {
                    obj: e.obj,
                    field: e.field,
                    on_path: true,
                });
            }
            self.push_children_of(st, e.obj);
        }
    }
}

/// Mirror of `OwnershipTable::retire` + the strict-owner-lifetime
/// reporting in `gc_end` / `after_minor`.
pub(crate) fn retire(
    st: &mut AbsState,
    dead_ownees: &[ObjId],
    dead_owners: &[ObjId],
    violations: &mut Vec<PredViolation>,
) {
    for entry in &mut st.ownership {
        entry.ownees.retain(|o| !dead_ownees.contains(o));
    }
    let entries = std::mem::take(&mut st.ownership);
    for entry in entries {
        if dead_owners.contains(&entry.owner) {
            for &ownee in &entry.ownees {
                st.objects[ownee].ownee = false;
                if st.config.strict_owner_lifetime {
                    let summary = format!(
                        "ownee-outlived-owner {}",
                        st.classes[st.objects[ownee].class].name
                    );
                    violations.push(PredViolation {
                        kind: PredKind::OwneeOutlivedOwner,
                        summary,
                        obj: Some(ownee),
                        path: Vec::new(),
                    });
                }
            }
        } else {
            st.ownership.push(entry);
        }
    }
}

/// The nursery epilogue of a major cycle (and of every summary cycle):
/// every live object is old afterwards, the remembered set empties.
pub(super) fn promote_young(st: &mut AbsState) {
    for o in st.objects.iter_mut().filter(|o| o.alive) {
        o.old = true;
    }
    for o in &mut st.objects {
        o.remembered = false;
    }
    st.remembered.clear();
}

/// One abstract major collection: ownership phases, root scan, instance
/// limits, sweep, force-true severing, retirement, and the VM epilogue
/// (promotion, region purge, halt latch).
pub(crate) fn collect_major(st: &mut AbsState) -> CycleOutcome {
    let engine = st.config.mode != Mode::Base;
    let ownership_active = engine && !st.ownership.is_empty();
    let mut cy = Cycle {
        engine,
        path_mode: engine && st.config.path_tracking,
        force_true: engine && st.config.reaction == Reaction::ForceTrue,
        report_once: st.config.report_once,
        phase: Phase::Root,
        stack: Vec::new(),
        deferred: Vec::new(),
        pending: Vec::new(),
        dead_edges: Vec::new(),
        violations: Vec::new(),
    };
    // gc_begin: per-cycle instance counters reset.
    for c in &mut st.classes {
        c.gc_count = 0;
    }
    // Phase 1: scan from each owner's children, then drain the deferred
    // ownee queue (LIFO), then resolve the held-back verdicts.
    if ownership_active {
        for idx in 0..st.ownership.len() {
            cy.phase = Phase::Ownership(idx);
            cy.push_children_of(st, st.ownership[idx].owner);
            cy.drain(st);
        }
        while let Some((ownee, idx)) = cy.deferred.pop() {
            cy.phase = Phase::Deferred(idx);
            cy.push_children_of(st, ownee);
            cy.drain(st);
        }
        cy.phase = Phase::Root;
        let pending = std::mem::take(&mut cy.pending);
        for (obj, held_back) in pending {
            if st.objects[obj].owned {
                continue;
            }
            if let Some(path) = held_back.filter(|_| cy.should_report(st, obj)) {
                let summary = format!("not-owned {}", cy.class_name(st, obj));
                cy.violations.push(PredViolation {
                    kind: PredKind::NotOwned,
                    summary,
                    obj: Some(obj),
                    path,
                });
            }
            // Still uncredited: resume below the truncated ownee with
            // root-scan semantics, like the engine.
            cy.push_children_of(st, obj);
            cy.drain(st);
        }
    }
    // Phase 2: the root scan — all roots pushed, then one drain (LIFO,
    // so the last root is scanned first, exactly like the runtime).
    for r in st.gather_roots() {
        cy.stack.push(Entry {
            obj: r,
            field: None,
            on_path: false,
        });
    }
    cy.drain(st);
    // trace_done: instance limits fire every cycle while exceeded (no
    // report-once suppression).  The runtime iterates classes in
    // tracking order; only the multiset of violations is observable.
    if engine {
        for ci in 0..st.classes.len() {
            if let Some(lim) = st.classes[ci].limit {
                if st.classes[ci].gc_count > lim.limit {
                    let summary = format!(
                        "instance-limit {} {}>{}",
                        st.classes[ci].name, st.classes[ci].gc_count, lim.limit
                    );
                    cy.violations.push(PredViolation {
                        kind: PredKind::InstanceLimit,
                        summary,
                        obj: None,
                        path: Vec::new(),
                    });
                }
            }
        }
    }
    // Sweep in allocation order: free the unmarked, clear per-cycle
    // bits on survivors, record swept ownees/owners for retirement.
    let mut swept_ownees = Vec::new();
    let mut swept_owners = Vec::new();
    for id in 0..st.objects.len() {
        if !st.objects[id].alive {
            continue;
        }
        if st.objects[id].mark {
            st.objects[id].mark = false;
            st.objects[id].owned = false;
        } else {
            if engine {
                if st.objects[id].ownee {
                    swept_ownees.push(id);
                }
                if st.objects[id].owner {
                    swept_owners.push(id);
                }
            }
            st.occupied -= st.objects[id].total_words();
            st.objects[id].alive = false;
        }
    }
    // gc_end: force-true severs the recorded pinning edges, then dead
    // ownership participants are retired.
    if engine {
        if cy.force_true {
            for (parent, field) in cy.dead_edges.drain(..) {
                if st.objects[parent].alive {
                    st.objects[parent].fields[field] = None;
                }
            }
        }
        retire(st, &swept_ownees, &swept_owners, &mut cy.violations);
    }
    // VM epilogue: promote nursery survivors after a major, purge dead
    // region-queue entries, latch the halt reaction.
    if st.config.generational.is_some() {
        promote_young(st);
        st.minors_since_major = 0;
    }
    st.region_queue.retain(|&o| st.objects[o].alive);
    if engine && st.config.reaction == Reaction::Halt && !cy.violations.is_empty() {
        st.halted = true;
    }
    CycleOutcome {
        violations: cy.violations,
        ownership_active,
    }
}

/// One abstract minor collection.  No assertions are checked during the
/// nursery trace; only the sweep hook feeds ownership retirement, so the
/// sole possible reports are strict-owner-lifetime ones.  Without
/// generational mode there is no nursery and the runtime does nothing.
pub(crate) fn collect_minor(st: &mut AbsState) -> Vec<PredViolation> {
    if st.config.generational.is_none() {
        return Vec::new();
    }
    let engine = st.config.mode != Mode::Base;
    let remembered = std::mem::take(&mut st.remembered);
    let mut stack: Vec<ObjId> = st.gather_roots();
    for r in remembered {
        if st.objects[r].alive {
            st.objects[r].remembered = false;
            for i in 0..st.objects[r].fields.len() {
                if let Some(child) = st.objects[r].fields[i] {
                    stack.push(child);
                }
            }
        }
    }
    while let Some(obj) = stack.pop() {
        if st.objects[obj].mark {
            continue;
        }
        st.objects[obj].mark = true;
        if st.objects[obj].old {
            // Old objects bound the nursery trace; the sweep clears their
            // marks.
            continue;
        }
        for i in 0..st.objects[obj].fields.len() {
            if let Some(child) = st.objects[obj].fields[i] {
                stack.push(child);
            }
        }
    }
    // Sweep in allocation order, like a major: marked objects lose their
    // per-cycle bits and the young ones among them are promoted; unmarked
    // young objects are freed (feeding the engine's sweep hook); unmarked
    // old objects are immortal here.
    let mut swept_ownees = Vec::new();
    let mut swept_owners = Vec::new();
    for id in 0..st.objects.len() {
        if !st.objects[id].alive {
            continue;
        }
        if st.objects[id].mark {
            st.objects[id].mark = false;
            st.objects[id].owned = false;
            st.objects[id].old = true;
        } else if !st.objects[id].old {
            if engine {
                if st.objects[id].ownee {
                    swept_ownees.push(id);
                }
                if st.objects[id].owner {
                    swept_owners.push(id);
                }
            }
            st.occupied -= st.objects[id].total_words();
            st.objects[id].alive = false;
        }
    }
    let mut violations = Vec::new();
    if engine {
        retire(st, &swept_ownees, &swept_owners, &mut violations);
    }
    st.minors_since_major += 1;
    st.region_queue.retain(|&o| st.objects[o].alive);
    violations
}

/// Mirror of `Vm::collect_auto`: the collection(s) the allocator runs
/// when the budget is exceeded.
pub(crate) fn collect_auto(st: &mut AbsState) -> Vec<Collection> {
    let mut events = Vec::new();
    match st.config.generational {
        None => events.push(Collection::Major(collect_major(st))),
        Some(every) => {
            if st.minors_since_major >= every {
                events.push(Collection::Major(collect_major(st)));
            } else {
                events.push(Collection::Minor(collect_minor(st)));
                if st.occupied * 4 > st.config.heap_budget * 3 {
                    events.push(Collection::Major(collect_major(st)));
                }
            }
        }
    }
    events
}
