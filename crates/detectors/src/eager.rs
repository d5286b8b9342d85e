//! Eager (JML-style) run-time invariant checking.

use std::collections::{HashSet, VecDeque};

use gca_heap::{Heap, ObjRef};

/// An invariant violation found by the eager checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The ownee no longer reachable from its owner.
    pub ownee: ObjRef,
    /// Its owner.
    pub owner: ObjRef,
    /// Mutation count at which the violation was detected.
    pub at_mutation: u64,
}

/// A JML/Spec#-style eager checker for the ownership invariant: *every
/// registered ownee is reachable from its owner*. The invariant is
/// re-verified **after every mutation** by [`EagerOwnershipChecker::after_mutation`],
/// which performs a bounded traversal from each owner.
///
/// This is the "complete but expensive" end of the design space (§4.1):
/// it catches transient violations the GC assertions miss, but every heap
/// write costs a graph traversal — the benchmark in
/// `benches/ablations.rs` measures the resulting slowdown against the
/// GC-assertion approach on the same workload.
///
/// # Example
///
/// ```
/// use gca_detectors::EagerOwnershipChecker;
/// use gca_heap::{Heap, ObjRef};
///
/// # fn main() -> Result<(), gca_heap::HeapError> {
/// let mut heap = Heap::new();
/// let c = heap.register_class("C", &["f"]);
/// let owner = heap.alloc(c, 1, 0)?;
/// let ownee = heap.alloc(c, 1, 0)?;
/// heap.set_ref_field(owner, 0, ownee)?;
///
/// let mut eager = EagerOwnershipChecker::new();
/// eager.add_pair(owner, ownee);
/// assert!(eager.after_mutation(&heap).is_empty());
///
/// heap.set_ref_field(owner, 0, ObjRef::NULL)?;
/// let violations = eager.after_mutation(&heap);
/// assert_eq!(violations.len(), 1); // caught immediately, not at next GC
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct EagerOwnershipChecker {
    pairs: Vec<(ObjRef, ObjRef)>,
    mutations: u64,
    checks: u64,
    objects_traversed: u64,
}

impl EagerOwnershipChecker {
    /// Creates a checker with no registered pairs.
    pub fn new() -> EagerOwnershipChecker {
        EagerOwnershipChecker::default()
    }

    /// Registers an owner/ownee pair to keep invariant-checked.
    pub fn add_pair(&mut self, owner: ObjRef, ownee: ObjRef) {
        self.pairs.push((owner, ownee));
    }

    /// Unregisters an ownee.
    pub fn remove_ownee(&mut self, ownee: ObjRef) {
        self.pairs.retain(|&(_, e)| e != ownee);
    }

    /// Number of mutations processed.
    pub fn mutations(&self) -> u64 {
        self.mutations
    }

    /// Total objects traversed across all checks — the work metric the
    /// overhead comparison reports.
    pub fn objects_traversed(&self) -> u64 {
        self.objects_traversed
    }

    /// Re-verifies the invariant after one mutation, returning all pairs
    /// whose ownee is live but no longer reachable from its (live) owner.
    /// Pairs whose ownee has been reclaimed are retired.
    pub fn after_mutation(&mut self, heap: &Heap) -> Vec<InvariantViolation> {
        self.mutations += 1;
        self.pairs.retain(|&(_, e)| heap.is_valid(e));
        let mut out = Vec::new();
        // Group pairs by owner so each owner is traversed once per check.
        let mut owners: Vec<ObjRef> = self.pairs.iter().map(|&(o, _)| o).collect();
        owners.sort();
        owners.dedup();
        for owner in owners {
            if !heap.is_valid(owner) {
                continue;
            }
            let reached = self.reachable_from(heap, owner);
            for &(o, e) in &self.pairs {
                if o == owner && !reached.contains(&e) {
                    out.push(InvariantViolation {
                        ownee: e,
                        owner,
                        at_mutation: self.mutations,
                    });
                }
            }
        }
        self.checks += 1;
        out
    }

    fn reachable_from(&mut self, heap: &Heap, start: ObjRef) -> HashSet<ObjRef> {
        let mut seen = HashSet::new();
        let mut q = VecDeque::new();
        q.push_back(start);
        while let Some(r) = q.pop_front() {
            if !seen.insert(r) {
                continue;
            }
            self.objects_traversed += 1;
            if let Ok(obj) = heap.get(r) {
                for &c in obj.refs() {
                    if c.is_some() && !seen.contains(&c) {
                        q.push_back(c);
                    }
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Heap, ObjRef, ObjRef, ObjRef) {
        let mut heap = Heap::new();
        let c = heap.register_class("C", &["a", "b"]);
        let owner = heap.alloc(c, 2, 0).unwrap();
        let mid = heap.alloc(c, 2, 0).unwrap();
        let ownee = heap.alloc(c, 2, 0).unwrap();
        heap.set_ref_field(owner, 0, mid).unwrap();
        heap.set_ref_field(mid, 0, ownee).unwrap();
        (heap, owner, mid, ownee)
    }

    #[test]
    fn intact_invariant_is_quiet() {
        let (heap, owner, _mid, ownee) = setup();
        let mut eager = EagerOwnershipChecker::new();
        eager.add_pair(owner, ownee);
        assert!(eager.after_mutation(&heap).is_empty());
        assert!(eager.objects_traversed() >= 3);
    }

    #[test]
    fn transient_violation_caught_immediately() {
        // The capability GC assertions lack: a break-then-fix sequence is
        // caught at the intermediate mutation.
        let (mut heap, owner, mid, ownee) = setup();
        let mut eager = EagerOwnershipChecker::new();
        eager.add_pair(owner, ownee);

        heap.set_ref_field(mid, 0, ObjRef::NULL).unwrap(); // break
        let v = eager.after_mutation(&heap);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].ownee, ownee);
        assert_eq!(v[0].owner, owner);

        heap.set_ref_field(mid, 0, ownee).unwrap(); // fix
        assert!(eager.after_mutation(&heap).is_empty());
    }

    #[test]
    fn dead_ownees_are_retired() {
        let (mut heap, owner, _mid, ownee) = setup();
        let mut eager = EagerOwnershipChecker::new();
        eager.add_pair(owner, ownee);
        heap.set_ref_field(_mid, 0, ObjRef::NULL).unwrap();
        heap.free(ownee).unwrap();
        assert!(eager.after_mutation(&heap).is_empty());
        assert!(eager.pairs.is_empty());
    }

    #[test]
    fn cost_grows_with_mutations() {
        // Every mutation costs a traversal of the owner's region — the
        // quadratic blow-up the paper's related work cites.
        let (heap, owner, _mid, ownee) = setup();
        let mut eager = EagerOwnershipChecker::new();
        eager.add_pair(owner, ownee);
        for _ in 0..100 {
            eager.after_mutation(&heap);
        }
        assert_eq!(eager.mutations(), 100);
        assert!(eager.objects_traversed() >= 300, "3 objects x 100 checks");
    }

    #[test]
    fn remove_ownee_stops_checking() {
        let (mut heap, owner, mid, ownee) = setup();
        let mut eager = EagerOwnershipChecker::new();
        eager.add_pair(owner, ownee);
        eager.remove_ownee(ownee);
        heap.set_ref_field(mid, 0, ObjRef::NULL).unwrap();
        assert!(eager.after_mutation(&heap).is_empty());
    }
}
