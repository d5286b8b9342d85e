//! Post-evacuation regression suite: every baseline detector must keep
//! working across semispace copying collections.
//!
//! The detectors are keyed by `ObjRef`, and `ObjRef` identity is
//! relocation-stable by design: a copying collection moves an object's
//! *address* between semispaces, never its slot/generation handle. These
//! tests pin that contract end-to-end — each one drives real evacuations
//! through the copying backend (verified via the semispace flip counter)
//! and asserts the detector's verdicts are unchanged by relocation.

use gc_assertions::{CollectorKind, ObjRef, Vm, VmConfig};
use gca_detectors::{CorkDetector, EagerOwnershipChecker, StalenessDetector};

fn copying_vm() -> Vm {
    Vm::new(
        VmConfig::builder()
            .collector(CollectorKind::Copying)
            .build(),
    )
}

/// root -> owner -> {x, y}, plus a disconnected garbage object that each
/// collection reclaims, forcing the survivors to be evacuated.
fn build_graph(vm: &mut Vm) -> (ObjRef, ObjRef, ObjRef, ObjRef) {
    let c = vm.register_class("T", &["a", "b"]);
    let m = vm.main();
    let root = vm.alloc(m, c, 2, 0).unwrap();
    vm.add_root(m, root).unwrap();
    let owner = vm.alloc(m, c, 2, 0).unwrap();
    let x = vm.alloc(m, c, 2, 4).unwrap();
    let y = vm.alloc(m, c, 2, 4).unwrap();
    vm.set_field(root, 0, owner).unwrap();
    vm.set_field(owner, 0, x).unwrap();
    vm.set_field(owner, 1, y).unwrap();
    (root, owner, x, y)
}

/// Collects and asserts the cycle really evacuated (semispaces flipped,
/// addresses moved) — so the tests below cannot silently pass against a
/// non-moving heap.
fn collect_and_flip(vm: &mut Vm) {
    let before = vm.heap().space().flips();
    vm.collect().unwrap();
    assert_eq!(
        vm.heap().space().flips(),
        before + 1,
        "collection must flip semispaces"
    );
}

#[test]
fn cork_sees_no_phantom_growth_from_relocation() {
    let mut vm = copying_vm();
    let (_root, _owner, _x, _y) = build_graph(&mut vm);

    let mut cork = CorkDetector::new(1);
    // First observation grows from zero; ignore it.
    cork.observe(vm.heap());
    // Evacuations move every survivor to fresh addresses each cycle; the
    // per-class live volume must not change, so a window-1 detector (the
    // most trigger-happy configuration) stays quiet.
    for _ in 0..3 {
        collect_and_flip(&mut vm);
        assert!(
            cork.observe(vm.heap()).is_empty(),
            "relocation misread as heap growth"
        );
    }
}

#[test]
fn staleness_verdicts_survive_evacuation() {
    let mut vm = copying_vm();
    let c = vm.register_class("T", &[]);
    let m = vm.main();
    let hot = vm.alloc(m, c, 0, 0).unwrap();
    vm.add_root(m, hot).unwrap();
    let cold = vm.alloc(m, c, 0, 0).unwrap();
    vm.add_root(m, cold).unwrap();
    let doomed = vm.alloc(m, c, 0, 0).unwrap();

    let mut det = StalenessDetector::new(3);
    det.touch(doomed);
    for _ in 0..10 {
        det.touch(hot);
        det.advance();
    }
    // `doomed` dies in the copying collection; its slot generation bumps,
    // so the detector's retained `ObjRef` key is recognized as reclaimed
    // even though a *new* object may later occupy the same slot.
    collect_and_flip(&mut vm);
    assert!(!vm.is_live(doomed));

    let stale = det.scan(vm.heap());
    assert_eq!(stale.len(), 1, "exactly the cold survivor is stale");
    assert_eq!(stale[0].object, cold);
    // Touching the evacuated survivor by its pre-evacuation handle works.
    det.touch(cold);
    det.advance();
    assert!(det.scan(vm.heap()).is_empty());
}

#[test]
fn eager_ownership_checker_tracks_pairs_across_evacuation() {
    let mut vm = copying_vm();
    let (_root, owner, x, _y) = build_graph(&mut vm);

    let mut eager = EagerOwnershipChecker::new();
    eager.add_pair(owner, x);
    assert!(eager.after_mutation(vm.heap()).is_empty());

    collect_and_flip(&mut vm);
    // The pair's handles still name the evacuated objects.
    assert!(eager.after_mutation(vm.heap()).is_empty());

    vm.set_field(owner, 0, ObjRef::NULL).unwrap();
    let violations = eager.after_mutation(vm.heap());
    assert_eq!(violations.len(), 1, "severed ownership caught post-move");
    assert_eq!(violations[0].ownee, x);
    assert_eq!(violations[0].owner, owner);
}
