//! Pin test: sequential (`gc_threads = 1`) and parallel (`gc_threads = 4`)
//! collections report the **same violations with equivalent paths** on a
//! fixed heap exercising every path-carrying assertion kind.
//!
//! "Equivalent" paths need not be byte-identical: the sequential tracer
//! reports the discovery-order path of its worklist (§2.7), while the
//! parallel collector reconstructs a path on demand after the race-y
//! trace. Both must be *valid* — start at a root (or, for ownership
//! violations, at a child of the scanned owner), follow real heap edges,
//! and end at the violating object.

use gc_assertions::{HeapPath, ObjRef, ViolationKind, Vm, VmConfig};

/// Checks that `path` follows real heap edges and ends at `target`.
/// `valid_starts` are the legal first-step objects (roots, or the scanned
/// owner's children for ownership-phase reports).
fn assert_path_valid(vm: &Vm, path: &HeapPath, target: ObjRef, valid_starts: &[ObjRef]) {
    let steps = path.steps();
    assert!(!steps.is_empty(), "path for {target:?} is empty");
    assert_eq!(
        steps.last().unwrap().object,
        target,
        "path must end at the violation"
    );
    assert!(
        valid_starts.contains(&steps[0].object),
        "path must start at a root or scanned-owner child, got {:?}",
        steps[0].object
    );
    for w in steps.windows(2) {
        let field = w[1]
            .field
            .expect("non-first steps carry their incoming field");
        let actual = vm
            .heap()
            .ref_field(w[0].object, field)
            .expect("path step edge must be a live reference field");
        assert_eq!(
            actual, w[1].object,
            "path edge {:?}.{} does not point at {:?}",
            w[0].object, field, w[1].object
        );
    }
}

/// Builds the scenario heap and runs one collection. Layout:
///
/// ```text
/// root hub (Hub)                    root owner (Owner)
///   f0 -> chain a (N) --f0--> dead (N)     f0 -> ownee (Ownee)
///   f1 -> shared (N)  <--f0-- chain a      (orphan ownee has no owner path)
///   f2 -> orphan_ownee (Ownee)
/// ```
///
/// * `dead` is asserted dead but kept reachable      -> DeadReachable
/// * `shared` has edges from hub.f1 and chain_a.f1   -> Shared
/// * `orphan_ownee` is owned by `owner` but only
///   reachable via hub.f2 after the owner edge drops -> NotOwned
fn run(workers: usize) -> (Vm, Vec<gc_assertions::Violation>, Scenario) {
    let mut vm = Vm::new(
        VmConfig::builder()
            .heap_budget(10_000)
            .gc_threads(workers)
            .build(),
    );
    let hub_c = vm.register_class("Hub", &["f0", "f1", "f2"]);
    let n_c = vm.register_class("N", &["f0", "f1"]);
    let owner_c = vm.register_class("Owner", &["f0"]);
    let ownee_c = vm.register_class("Ownee", &[]);
    let m = vm.main();

    let hub = vm.alloc_rooted(m, hub_c, 3, 0).unwrap();
    let chain_a = vm.alloc(m, n_c, 2, 0).unwrap();
    vm.set_field(hub, 0, chain_a).unwrap();
    let dead = vm.alloc(m, n_c, 2, 0).unwrap();
    vm.set_field(chain_a, 0, dead).unwrap();
    let shared = vm.alloc(m, n_c, 2, 0).unwrap();
    vm.set_field(hub, 1, shared).unwrap();
    vm.set_field(chain_a, 1, shared).unwrap();

    let owner = vm.alloc_rooted(m, owner_c, 1, 0).unwrap();
    let good_ownee = vm.alloc(m, ownee_c, 0, 0).unwrap();
    vm.set_field(owner, 0, good_ownee).unwrap();
    vm.assert_owned_by(owner, good_ownee).unwrap();

    let orphan_owner = vm.alloc_rooted(m, owner_c, 1, 0).unwrap();
    let orphan_ownee = vm.alloc(m, ownee_c, 0, 0).unwrap();
    vm.set_field(orphan_owner, 0, orphan_ownee).unwrap();
    vm.assert_owned_by(orphan_owner, orphan_ownee).unwrap();
    // Keep the ownee reachable from the hub, then drop the owner's edge:
    // the only remaining path avoids the owner.
    vm.set_field(hub, 2, orphan_ownee).unwrap();
    vm.set_field(orphan_owner, 0, ObjRef::NULL).unwrap();

    vm.assert_dead(dead).unwrap();
    vm.assert_unshared(shared).unwrap();

    let report = vm.collect().unwrap();
    let scenario = Scenario {
        roots: vm.roots(),
        dead,
        shared,
        orphan_ownee,
    };
    (vm, report.violations, scenario)
}

struct Scenario {
    roots: Vec<ObjRef>,
    dead: ObjRef,
    shared: ObjRef,
    orphan_ownee: ObjRef,
}

fn summarize(violations: &[gc_assertions::Violation]) -> Vec<String> {
    let mut v: Vec<String> = violations.iter().map(|v| format!("{:?}", v.kind)).collect();
    v.sort();
    v
}

#[test]
fn sequential_and_parallel_report_same_violations_with_valid_paths() {
    let (seq_vm, seq_violations, seq_s) = run(1);
    let (par_vm, par_violations, par_s) = run(4);

    // Identical allocation order => identical ObjRef identities.
    assert_eq!(seq_s.dead, par_s.dead);
    assert_eq!(summarize(&seq_violations), summarize(&par_violations));
    assert_eq!(seq_violations.len(), 3, "dead + shared + not-owned");

    for (vm, violations, s) in [
        (&seq_vm, &seq_violations, &seq_s),
        (&par_vm, &par_violations, &par_s),
    ] {
        for v in violations.iter() {
            match &v.kind {
                ViolationKind::DeadReachable { object, .. } => {
                    assert_eq!(*object, s.dead);
                    assert_path_valid(vm, &v.path, *object, &s.roots);
                }
                ViolationKind::Shared { object, .. } => {
                    assert_eq!(*object, s.shared);
                    assert_path_valid(vm, &v.path, *object, &s.roots);
                }
                ViolationKind::NotOwned { ownee, .. } => {
                    assert_eq!(*ownee, s.orphan_ownee);
                    assert_path_valid(vm, &v.path, *ownee, &s.roots);
                }
                other => panic!("unexpected violation kind: {other:?}"),
            }
        }
    }
}

#[test]
fn parallel_auto_thread_count_collects_cleanly() {
    // gc_threads(0) = one worker per core; just pin that it works end to
    // end and finds the same violations.
    let (_vm, violations, _s) = run(0);
    assert_eq!(violations.len(), 3);
}
