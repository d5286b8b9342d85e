//! Differential property test for the parallel mark phase: on randomized
//! heap programs exercising **all five assertion kinds**, a VM collecting
//! with `gc_threads = 1` (the sequential §2.7 tracer) and VMs collecting
//! with 2 and 4 work-stealing tracers must agree on
//!
//! * the final live set (allocation-ordered liveness bitmap),
//! * the multiset of violations (kind + objects, paths excluded — the
//!   parallel reconstruction may legally pick a different valid path),
//! * all six cumulative check counters (owners scanned, ownees checked,
//!   deferred ownees, dead bits, tracked instances, unshared bits).
//!
//! Ownership is exercised beyond the paper's supported shape: besides
//! owners that reference their own ownees (disjoint regions), the op
//! stream makes owners reference *other* owners' ownees — improper,
//! overlapping regions, whose `ImproperOwnership` / `NotOwned` verdicts
//! depend on owner scan order. They must still be identical, because the
//! ownership phase runs once, sequentially, at every worker count; the
//! workers only ever run the root scan.

use gc_assertions::{ObjRef, Vm, VmConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Allocate a 3-ref-field node, optionally rooting it.
    Alloc { root: bool },
    /// Link field of one rooted object to another.
    Link {
        from: usize,
        field: usize,
        to: usize,
    },
    /// Null out a field of a rooted object.
    Unlink { from: usize, field: usize },
    /// `assert-dead` on a rooted (guaranteed-reachable) or recent object.
    AssertDead { idx: usize },
    /// `assert-unshared` on a rooted object.
    AssertUnshared { idx: usize },
    /// Allocate a fresh rooted owner and its ownee (owner.f0 = ownee),
    /// then `assert-ownedby`.
    Own,
    /// Null out an owner's direct edge to its ownee: the ownee becomes
    /// `NotOwned` if a foreign edge still reaches it, or dies.
    DropOwnEdge { idx: usize },
    /// Foreign edge: point a rooted object's field at an ownee.
    LinkOwnee { from: usize, ownee: usize },
    /// Overlapping regions: make the `owner`-th pair reach an ownee — its
    /// own or, usually, another owner's — either straight from the owner
    /// (a direct owner scan meets it) or from below the pair's own ownee
    /// (a deferred scan meets it).
    OwnerLinksOwnee {
        owner: usize,
        ownee: usize,
        below_own_ownee: bool,
    },
    /// Region assertion: allocate `n` scratch objects in a region;
    /// optionally leak one into the rooted graph before `assert-alldead`.
    Region { n: usize, leak: bool },
    /// Unroot every rooted handle past `keep`.
    UnrootTo { keep: usize },
    /// Force a full collection.
    Collect,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<bool>().prop_map(|root| Op::Alloc { root }),
        3 => (0usize..64, 0usize..3, 0usize..64)
            .prop_map(|(from, field, to)| Op::Link { from, field, to }),
        2 => (0usize..64, 0usize..3).prop_map(|(from, field)| Op::Unlink { from, field }),
        2 => (0usize..64).prop_map(|idx| Op::AssertDead { idx }),
        2 => (0usize..64).prop_map(|idx| Op::AssertUnshared { idx }),
        2 => Just(Op::Own),
        1 => (0usize..16).prop_map(|idx| Op::DropOwnEdge { idx }),
        1 => (0usize..64, 0usize..16).prop_map(|(from, ownee)| Op::LinkOwnee { from, ownee }),
        2 => (0usize..16, 0usize..16, any::<bool>()).prop_map(|(owner, ownee, below_own_ownee)| {
            Op::OwnerLinksOwnee { owner, ownee, below_own_ownee }
        }),
        1 => (1usize..4, any::<bool>()).prop_map(|(n, leak)| Op::Region { n, leak }),
        1 => (0usize..16).prop_map(|keep| Op::UnrootTo { keep }),
        2 => Just(Op::Collect),
    ]
}

#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    liveness: Vec<bool>,
    violations: Vec<String>,
    totals: gc_assertions::CheckCounters,
}

/// Runs the op stream on a VM with `workers` tracing threads. Operations
/// only reference rooted objects (or track deaths), so the stream is
/// valid under any collection schedule — and the schedule itself is
/// identical across worker counts (same budget, same ops).
fn run(workers: usize, ops: &[Op]) -> Outcome {
    let config = VmConfig::builder()
        .heap_budget(200_000)
        .gc_threads(workers)
        .build();
    let mut vm = Vm::new(config);
    let n = vm.register_class("N", &["a", "b", "c"]);
    let owner_class = vm.register_class("Owner", &["ownee"]);
    let ownee_class = vm.register_class("Ownee", &["x"]);
    let scratch = vm.register_class("Scratch", &[]);
    let m = vm.main();

    // Volume assertion up front: at most 5 live `N` instances at GC.
    vm.assert_instances(n, 5).unwrap();

    let mut allocated: Vec<ObjRef> = Vec::new();
    let mut rooted: Vec<(usize, ObjRef)> = Vec::new();
    let mut owners: Vec<ObjRef> = Vec::new();
    let mut ownees: Vec<ObjRef> = Vec::new();
    let mut violations: Vec<String> = Vec::new();

    let do_collect = |vm: &mut Vm, violations: &mut Vec<String>| {
        let report = vm.collect().unwrap();
        violations.extend(report.violations.iter().map(|v| format!("{:?}", v.kind)));
        let problems = vm.heap().verify();
        assert!(problems.is_empty(), "heap corruption: {problems:?}");
    };

    for op in ops {
        match op {
            Op::Alloc { root } => {
                let o = vm.alloc(m, n, 3, 1).unwrap();
                allocated.push(o);
                if *root {
                    let slot = vm.add_root(m, o).unwrap();
                    rooted.push((slot, o));
                }
            }
            Op::Link { from, field, to } if !rooted.is_empty() => {
                let f = rooted[from % rooted.len()].1;
                let t = rooted[to % rooted.len()].1;
                vm.set_field(f, field % 3, t).unwrap();
            }
            Op::Unlink { from, field } if !rooted.is_empty() => {
                let f = rooted[from % rooted.len()].1;
                vm.set_field(f, field % 3, ObjRef::NULL).unwrap();
            }
            Op::AssertDead { idx } if !rooted.is_empty() => {
                let o = rooted[idx % rooted.len()].1;
                vm.assert_dead(o).unwrap();
            }
            Op::AssertUnshared { idx } if !rooted.is_empty() => {
                let o = rooted[idx % rooted.len()].1;
                vm.assert_unshared(o).unwrap();
            }
            Op::Own => {
                let owner = vm.alloc_rooted(m, owner_class, 1, 0).unwrap();
                let ownee = vm.alloc(m, ownee_class, 1, 0).unwrap();
                vm.set_field(owner, 0, ownee).unwrap();
                vm.assert_owned_by(owner, ownee).unwrap();
                owners.push(owner);
                ownees.push(ownee);
                allocated.push(owner);
                allocated.push(ownee);
            }
            Op::DropOwnEdge { idx } if !owners.is_empty() => {
                let owner = owners[idx % owners.len()];
                if vm.is_live(owner) {
                    vm.set_field(owner, 0, ObjRef::NULL).unwrap();
                }
            }
            Op::LinkOwnee { from, ownee } if !rooted.is_empty() && !ownees.is_empty() => {
                let f = rooted[from % rooted.len()].1;
                let o = ownees[ownee % ownees.len()];
                if vm.is_live(o) {
                    // Field 2 is reserved for foreign ownee edges so the
                    // random Link/Unlink churn on fields 0..3 of class N
                    // cannot silently overwrite ownership topology wired
                    // here (class N objects also use field 2, but any
                    // overwrite is itself deterministic).
                    vm.set_field(f, 2, o).unwrap();
                }
            }
            Op::OwnerLinksOwnee {
                owner,
                ownee,
                below_own_ownee,
            } if !owners.is_empty() => {
                // `owners[i]` and `ownees[i]` are the i-th registered pair.
                let pair = owner % owners.len();
                let from = if *below_own_ownee {
                    ownees[pair]
                } else {
                    owners[pair]
                };
                let o = ownees[ownee % ownees.len()];
                if vm.is_live(from) && vm.is_live(o) {
                    vm.set_field(from, 0, o).unwrap();
                }
            }
            Op::Region { n: num, leak } => {
                vm.start_region(m).unwrap();
                let mut last = ObjRef::NULL;
                for _ in 0..*num {
                    last = vm.alloc(m, scratch, 0, 2).unwrap();
                }
                if *leak && !rooted.is_empty() && last.is_some() {
                    let f = rooted[0].1;
                    vm.set_field(f, 1, last).unwrap();
                }
                vm.assert_alldead(m).unwrap();
            }
            Op::UnrootTo { keep } if rooted.len() > *keep => {
                for &(slot, _) in &rooted[*keep..] {
                    vm.set_root(m, slot, ObjRef::NULL).unwrap();
                }
                rooted.truncate(*keep);
            }
            Op::Collect => do_collect(&mut vm, &mut violations),
            _ => {}
        }
    }
    do_collect(&mut vm, &mut violations);
    violations.sort();

    Outcome {
        liveness: allocated.iter().map(|&o| vm.is_live(o)).collect(),
        violations,
        totals: *vm.check_totals(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_marking_matches_sequential(
        ops in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        let seq = run(1, &ops);
        for workers in [2usize, 4] {
            let par = run(workers, &ops);
            prop_assert_eq!(
                &seq.liveness, &par.liveness,
                "live-set divergence at {} workers", workers
            );
            prop_assert_eq!(
                &seq.violations, &par.violations,
                "violation divergence at {} workers", workers
            );
            prop_assert_eq!(
                &seq.totals, &par.totals,
                "check-counter divergence at {} workers", workers
            );
        }
    }
}
