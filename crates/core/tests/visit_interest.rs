//! The engine's `visit_interest` is invisible: a trace that skips the
//! visit hooks for objects whose page holds none of the engine's interest
//! flags must observe exactly what a trace that calls them on every visit
//! observes.
//!
//! Each random program runs twice on a bare heap driven through
//! `Collector::collect_with`: once with the [`AssertionEngine`] itself, and
//! once with [`VisitAll`], a wrapper that forwards every hook to the same
//! kind of engine but declares `visit_interest() = None`. Under the LIFO
//! drain and under the Cheney scan the two must agree after every
//! collection on the violation list (kind, order and rendered path), the
//! check counters, the cycle's work counters, the live set and every
//! surviving edge (which pins the edges `ForceTrue` severs). A 2-worker
//! parallel mark is compared with the sequential `VisitAll` run on what
//! `parallel_equivalence` compares: live set, violation kinds as a set,
//! check counters.
//!
//! The programs come from the shared fuzz language (`tests/common`), plus
//! one op of this file's own: an owner (or its ownee) pointing at another
//! pair's ownee, so ownership scans meet foreign ownees. Every assertion
//! kind appears — dead, unshared, owned-by, instances, regions — under
//! every reaction: log, force-true and halt (the VM's halt is emulated by
//! ending the program after the first collection that reports).
//!
//! The ownership pre-phase drains with the engine's own hooks, not the
//! wrapper's, in both legs; it asks for every visit anyway.

mod common;

use common::{fuzz_op_strategy, FuzzOp};
use gc_assertions::{AssertionEngine, CheckCounters, Reaction, VmConfig};
use gca_collector::{Collector, CycleStats, ParMarkStats, TraceCtx, TraceHooks, Tracer, Visit};
use gca_heap::{Flags, Heap, HeapError, ObjRef, SpaceKind};
use proptest::prelude::*;

/// The engine with its interest switched off: every hook forwarded, every
/// visit delivered.
struct VisitAll<'a>(&'a mut AssertionEngine);

impl TraceHooks for VisitAll<'_> {
    fn wants_paths(&self) -> bool {
        self.0.wants_paths()
    }
    fn gc_begin(&mut self, heap: &mut Heap) {
        self.0.gc_begin(heap);
    }
    fn pre_root_phase(&mut self, heap: &mut Heap, tracer: &mut Tracer) -> Result<(), HeapError> {
        self.0.pre_root_phase(heap, tracer)
    }
    fn visit_interest(&self) -> Option<Flags> {
        None
    }
    fn visit_new(
        &mut self,
        heap: &mut Heap,
        obj: ObjRef,
        prev: Flags,
        ctx: &TraceCtx<'_>,
    ) -> Visit {
        self.0.visit_new(heap, obj, prev, ctx)
    }
    fn visit_marked(&mut self, heap: &mut Heap, obj: ObjRef, prev: Flags, ctx: &TraceCtx<'_>) {
        self.0.visit_marked(heap, obj, prev, ctx);
    }
    fn mark_roots_parallel(
        &mut self,
        heap: &mut Heap,
        roots: &[ObjRef],
        workers: usize,
    ) -> Result<ParMarkStats, HeapError> {
        self.0.mark_roots_parallel(heap, roots, workers)
    }
    fn trace_done(&mut self, heap: &mut Heap) {
        self.0.trace_done(heap);
    }
    fn swept_interest(&self) -> Flags {
        self.0.swept_interest()
    }
    fn swept(&mut self, heap: &Heap, obj: ObjRef) {
        self.0.swept(heap, obj);
    }
    fn gc_end(&mut self, heap: &mut Heap, cycle: &CycleStats) {
        self.0.gc_end(heap, cycle);
    }
    fn gc_abort(&mut self, heap: &mut Heap) {
        self.0.gc_abort(heap);
    }
}

#[derive(Debug, Clone)]
enum Step {
    Fuzz(FuzzOp),
    /// Pair `owner`'s owner — or, `below`, its ownee — points at pair
    /// `ownee`'s ownee: a direct or a deferred ownership scan meets an
    /// ownee that is usually another owner's.
    ForeignOwnee {
        owner: usize,
        ownee: usize,
        below: bool,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        12 => fuzz_op_strategy().prop_map(Step::Fuzz),
        1 => (0usize..8, 0usize..8, any::<bool>())
            .prop_map(|(owner, ownee, below)| Step::ForeignOwnee { owner, ownee, below }),
    ]
}

/// How a run collects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// The engine, `workers` tracing threads.
    Engine(usize),
    /// [`VisitAll`], one tracing thread.
    VisitAll,
}

/// What one collection observably did.
#[derive(Debug, PartialEq, Eq)]
struct Cycle {
    /// Violation kind and rendered report (with its path), in order.
    violations: Vec<String>,
    counters: CheckCounters,
    /// Objects marked, edges traced, pre-root edges, objects swept.
    work: [u64; 4],
    live: Vec<bool>,
    /// Every surviving object's reference fields.
    edges: Vec<(u32, Vec<ObjRef>)>,
}

fn run(config: &VmConfig, space: SpaceKind, leg: Leg, steps: &[Step]) -> Vec<Cycle> {
    let mut heap = Heap::with_space(space);
    let n = heap.register_class("N", &["a", "b", "c"]);
    let owner_c = heap.register_class("Owner", &["prop"]);
    let ownee_c = heap.register_class("Ownee", &["x"]);
    let mut engine = AssertionEngine::new(config);
    let mut gc = Collector::new();
    let halts = config.reaction == Reaction::Halt;

    let mut allocated: Vec<ObjRef> = Vec::new();
    let mut roots: Vec<ObjRef> = Vec::new();
    let mut owners: Vec<ObjRef> = Vec::new();
    let mut ownees: Vec<ObjRef> = Vec::new();
    let mut cycles: Vec<Cycle> = Vec::new();

    let mut collect = |heap: &mut Heap,
                       engine: &mut AssertionEngine,
                       allocated: &[ObjRef],
                       roots: &[ObjRef],
                       pinned: &[ObjRef]| {
        let all: Vec<ObjRef> = roots.iter().chain(pinned).copied().collect();
        let (stats, _) = match leg {
            Leg::Engine(workers) => gc.collect_with(heap, &all, engine, workers, None),
            Leg::VisitAll => gc.collect_with(heap, &all, &mut VisitAll(engine), 1, None),
        }
        .expect("collection");
        let problems = heap.verify();
        assert!(problems.is_empty(), "heap corruption: {problems:?}");
        let (violations, counters) = engine.drain();
        Cycle {
            violations: violations
                .iter()
                .map(|v| format!("{:?}\n{}", v.kind, v.render(heap.registry())))
                .collect(),
            counters,
            work: [
                stats.objects_marked,
                stats.edges_traced,
                stats.pre_root_edges,
                stats.objects_swept,
            ],
            live: allocated.iter().map(|&o| heap.is_valid(o)).collect(),
            edges: heap
                .iter()
                .map(|(r, o)| (r.index(), o.refs().to_vec()))
                .collect(),
        }
    };

    for step in steps {
        let pinned: Vec<ObjRef> = owners.iter().chain(&ownees).copied().collect();
        let rooted: Vec<ObjRef> = roots.iter().copied().filter(|r| r.is_some()).collect();
        let pick = |i: usize| rooted[i % rooted.len()];
        match step {
            Step::Fuzz(FuzzOp::Alloc { data, root }) => {
                let o = heap.alloc(n, 3, *data).unwrap();
                allocated.push(o);
                if *root {
                    roots.push(o);
                }
            }
            Step::Fuzz(FuzzOp::Link { from, field, to }) if !rooted.is_empty() => {
                heap.set_ref_field(pick(*from), field % 3, pick(*to))
                    .unwrap();
            }
            Step::Fuzz(FuzzOp::Unlink { from, field }) if !rooted.is_empty() => {
                heap.set_ref_field(pick(*from), field % 3, ObjRef::NULL)
                    .unwrap();
            }
            Step::Fuzz(FuzzOp::Swap { a, b, field }) if !rooted.is_empty() => {
                let (x, y, f) = (pick(*a), pick(*b), field % 3);
                let fx = heap.ref_field(x, f).unwrap();
                let fy = heap.ref_field(y, f).unwrap();
                heap.set_ref_field(x, f, fy).unwrap();
                heap.set_ref_field(y, f, fx).unwrap();
            }
            Step::Fuzz(FuzzOp::UnrootTo { keep }) => roots.truncate(*keep),
            Step::Fuzz(FuzzOp::Collect) => {
                let cycle = collect(&mut heap, &mut engine, &allocated, &roots, &pinned);
                let halted = halts && !cycle.violations.is_empty();
                cycles.push(cycle);
                if halted {
                    return cycles;
                }
            }
            Step::Fuzz(FuzzOp::AssertDead { target }) if !rooted.is_empty() => {
                engine.assert_dead(&mut heap, pick(*target)).unwrap();
            }
            Step::Fuzz(FuzzOp::AssertUnshared { target }) if !rooted.is_empty() => {
                engine.assert_unshared(&mut heap, pick(*target)).unwrap();
            }
            Step::Fuzz(FuzzOp::AssertInstances { limit }) => {
                heap.registry_mut().track_instances(n, *limit);
            }
            Step::Fuzz(FuzzOp::Region { len, leak }) => {
                // `start_region` .. `assert_alldead`: every object the
                // region allocated is asserted dead at its close.
                let region: Vec<ObjRef> = (0..len % 4 + 1)
                    .map(|_| heap.alloc(n, 3, 0).unwrap())
                    .collect();
                allocated.extend(&region);
                if *leak {
                    roots.push(region[0]);
                }
                for &o in &region {
                    engine.assert_dead(&mut heap, o).unwrap();
                }
            }
            Step::Fuzz(FuzzOp::OwnPair) => {
                let o = heap.alloc(owner_c, 1, 0).unwrap();
                let e = heap.alloc(ownee_c, 1, 0).unwrap();
                allocated.extend([o, e]);
                heap.set_ref_field(o, 0, e).unwrap();
                engine.assert_owned_by(&mut heap, o, e).unwrap();
                owners.push(o);
                ownees.push(e);
            }
            Step::Fuzz(FuzzOp::LeakOwnee { from }) if !rooted.is_empty() && !ownees.is_empty() => {
                heap.set_ref_field(pick(*from), from % 3, *ownees.last().unwrap())
                    .unwrap();
            }
            Step::Fuzz(FuzzOp::BreakOwner) if !owners.is_empty() => {
                heap.set_ref_field(*owners.last().unwrap(), 0, ObjRef::NULL)
                    .unwrap();
            }
            Step::ForeignOwnee {
                owner,
                ownee,
                below,
            } if !owners.is_empty() => {
                let pair = owner % owners.len();
                let from = if *below { ownees[pair] } else { owners[pair] };
                heap.set_ref_field(from, 0, ownees[ownee % ownees.len()])
                    .unwrap();
            }
            _ => {}
        }
    }
    let pinned: Vec<ObjRef> = owners.iter().chain(&ownees).copied().collect();
    cycles.push(collect(&mut heap, &mut engine, &allocated, &roots, &pinned));
    cycles
}

fn config(reaction: Reaction, report_once: bool, strict: bool) -> VmConfig {
    VmConfig::builder()
        .reaction(reaction)
        .report_once(report_once)
        .strict_owner_lifetime(strict)
        .build()
}

fn reaction_strategy() -> impl Strategy<Value = Reaction> {
    prop_oneof![
        Just(Reaction::Log),
        Just(Reaction::ForceTrue),
        Just(Reaction::Halt)
    ]
}

/// The parallel comparison's view of a run: the final live set, the
/// violation kinds as a sorted list (paths excluded: a parallel mark
/// reconstructs its own), each cycle's check counters.
fn parallel_view(cycles: &[Cycle]) -> (Vec<bool>, Vec<String>, Vec<CheckCounters>) {
    let mut kinds: Vec<String> = cycles
        .iter()
        .flat_map(|c| c.violations.iter())
        .map(|v| v.lines().next().unwrap_or_default().to_owned())
        .collect();
    kinds.sort();
    let live = cycles.last().map(|c| c.live.clone()).unwrap_or_default();
    (live, kinds, cycles.iter().map(|c| c.counters).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_engine_sees_what_every_visit_sees(
        steps in proptest::collection::vec(step_strategy(), 1..120),
        reaction in reaction_strategy(),
        report_once in any::<bool>(),
        strict in any::<bool>(),
    ) {
        let config = config(reaction, report_once, strict);
        for space in [SpaceKind::Paged, SpaceKind::Semispace] {
            let gated = run(&config, space, Leg::Engine(1), &steps);
            let all = run(&config, space, Leg::VisitAll, &steps);
            prop_assert_eq!(gated, all, "{:?}", space);
        }
    }

    #[test]
    fn the_parallel_engine_sees_what_every_sequential_visit_sees(
        steps in proptest::collection::vec(step_strategy(), 1..120),
        reaction in reaction_strategy(),
    ) {
        let config = config(reaction, true, false);
        let par = run(&config, SpaceKind::Paged, Leg::Engine(2), &steps);
        let all = run(&config, SpaceKind::Paged, Leg::VisitAll, &steps);
        prop_assert_eq!(parallel_view(&par), parallel_view(&all));
    }
}
