//! The assertion engine's parallel root scan.
//!
//! A `gc_threads = n` collection is the ordinary cycle of
//! [`gca_collector::Collector`] with the root drain swapped for the
//! work-stealing [`mark_parallel`]; this module is that one step
//! ([`TraceHooks::mark_roots_parallel`](gca_collector::TraceHooks::mark_roots_parallel)
//! for the [`AssertionEngine`]). Everything around it — `gc_begin`, the
//! §2.5.2 ownership pre-phase, `trace_done`, sweep, `gc_end` — runs on the
//! sequential engine's own hooks, so reactions, instance limits, ownership
//! crediting and retirement behave identically at every worker count.
//!
//! What the workers observe, through one [`Shard`] each, is exactly what
//! the sequential root scan observes, via the same predicates
//! ([`root_scan_findings`], [`tracked_class`]):
//!
//! * **Per-object facts** (`assert-dead`, `assert-instances`, uncredited
//!   ownees) ride on `visit_new`, which fires exactly once per object — for
//!   the worker that wins the atomic mark race. The ownership pre-phase
//!   finished before any worker started, so the `OWNED` bit in the
//!   mark-claim snapshot is final.
//! * **Per-edge facts** (`assert-unshared`, `ForceTrue` edge severing)
//!   ride on `visit_marked`, which fires exactly once per extra edge —
//!   including edges into objects the pre-phase marked.
//!
//! Every observation is a commutative tally or a `(object, finding)` pair,
//! so the merged result does not depend on the steal schedule. The merge
//! *adds* to what the pre-phase already put in the engine and reports
//! findings sorted by object slot, then kind — the order the sequential
//! engine reports one object's findings in — with report-once applied
//! during the merge, so reports are reproducible run to run.
//!
//! **Paths**: workers record only each item's one-edge provenance;
//! root-to-violation paths are reconstructed on demand at report time
//! ([`reconstruct_path`]) for just the flagged objects. A sequential trace
//! may report a *different* valid path to the same violation (its path is
//! discovery-order dependent); both identify the object and a real
//! retaining path.

use std::collections::HashMap;

use gca_collector::{mark_parallel, reconstruct_path, ParMarkStats, ParVisitor, Visit, WorkItem};
use gca_heap::{ClassId, Flags, Heap, HeapError, ObjRef};

use crate::config::Reaction;
use crate::engine::{root_scan_findings, tracked_class, AssertionEngine, Finding};
use crate::report::CheckCounters;

/// Per-worker assertion visitor; one shard per worker, merged after the
/// scan.
#[derive(Debug, Default)]
struct Shard {
    /// Record incoming edges to asserted-dead objects (the `ForceTrue`
    /// reaction; like the sequential engine, only when path provenance is
    /// enabled).
    record_dead_edges: bool,
    /// The engine's root-scan interest ([`AssertionEngine::root_interest`]).
    interest: Option<Flags>,
    counters: CheckCounters,
    instance_counts: HashMap<ClassId, u32>,
    dead_edges: Vec<(ObjRef, usize)>,
    findings: Vec<(ObjRef, Finding)>,
}

impl Shard {
    fn arrive(&mut self, obj: ObjRef, prev: Flags, first_visit: bool, item: &WorkItem) {
        for finding in root_scan_findings(prev, first_visit) {
            self.counters.count(finding);
            self.findings.push((obj, finding));
        }
        if prev.contains(Flags::DEAD) && self.record_dead_edges {
            self.dead_edges.extend(item.parent_edge());
        }
    }
}

impl ParVisitor for Shard {
    fn visit_interest(&self) -> Option<Flags> {
        self.interest
    }

    fn visit_new(&mut self, heap: &Heap, obj: ObjRef, prev: Flags, item: &WorkItem) -> Visit {
        if let Some(class) = tracked_class(heap, obj) {
            *self.instance_counts.entry(class).or_insert(0) += 1;
            self.counters.tracked_instances_counted += 1;
        }
        self.arrive(obj, prev, true, item);
        Visit::Descend
    }

    fn visit_marked(&mut self, _heap: &Heap, obj: ObjRef, prev: Flags, item: &WorkItem) {
        self.arrive(obj, prev, false, item);
    }
}

/// Marks from `roots` with `workers` shards, then folds what they saw into
/// the engine and the type registry — deterministically, whatever the
/// workers' interleaving was.
pub(crate) fn mark_roots(
    engine: &mut AssertionEngine,
    heap: &mut Heap,
    roots: &[ObjRef],
    workers: usize,
) -> Result<ParMarkStats, HeapError> {
    let record_dead_edges = engine.path_tracking && engine.lifetime_reaction == Reaction::ForceTrue;
    let mut shards: Vec<Shard> = (0..workers)
        .map(|_| Shard {
            record_dead_edges,
            interest: engine.root_interest,
            ..Shard::default()
        })
        .collect();
    let stats = mark_parallel(heap, roots, &mut shards)?;

    let mut findings = Vec::new();
    let mut dead_edges = Vec::new();
    for shard in shards {
        // Instance counts before `trace_done` compares them to the limits.
        for (class, n) in shard.instance_counts {
            heap.registry_mut().info_mut(class).instance_count += n;
        }
        engine.counters.add(&shard.counters);
        dead_edges.extend(shard.dead_edges);
        findings.extend(shard.findings);
    }
    dead_edges.sort_unstable_by_key(|&(p, f)| (p.index(), f));
    engine.dead_edges.extend(dead_edges);
    findings.sort_unstable_by_key(|&(obj, finding)| (obj.index(), finding));
    // Paths are empty when path tracking is off, matching the sequential
    // engine.
    let path_tracking = engine.path_tracking;
    for (obj, finding) in findings {
        engine.report(heap, obj, finding, |heap| {
            path_tracking
                .then(|| reconstruct_path(heap, roots, obj))
                .flatten()
                .unwrap_or_default()
        });
    }
    Ok(stats)
}
