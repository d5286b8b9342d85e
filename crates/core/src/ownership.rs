//! The owner/ownee table behind `assert-ownedby` (§2.5.2).
//!
//! The paper stores "a pair of arrays, one containing owner objects and
//! the other containing arrays of ownee objects, one for each owner", each
//! ownee array kept in order and searched by bisection on every visit. An
//! ownee has exactly one owner, so "is `obj` in owner `idx`'s array" is
//! "is `obj`'s owner `idx`": this table keeps the owner array and replaces
//! the ownee arrays with one side table keyed by heap slot index: one
//! indexed load per question, and nothing put in order per collection,
//! searched per visit or hashed per registration (DESIGN.md §7).
//!
//! **Invariant** (what the arrays' ordering is replaced by; checked by
//! `tests/ownership_table_props.rs`): outside a collection, a live object
//! carries `OWNEE` or `OWNER` exactly if `slots[its index]` holds its
//! generation and a non-zero `entry`, and no slot names a dead object.
//! The header bits say *which role* an object has; the slot says *which
//! owner entry* it belongs to.

use gca_heap::{Flags, Heap, ObjRef};

use crate::error::VmError;

/// One registered owner. Its ownees are the slots naming this entry.
#[derive(Debug, Clone)]
pub(crate) struct OwnerEntry {
    pub(crate) owner: ObjRef,
    /// Class name captured at registration so reports can still name the
    /// owner after it dies.
    pub(crate) owner_class: String,
}

/// What the table knows about the object in one heap slot: 8 bytes per
/// slot, up to the highest index ever registered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    /// Generation of the registered handle, so the slot's next tenant is
    /// never taken for this one.
    gen: u32,
    /// 0: not registered. Otherwise 1 + the index in `entries` of the
    /// object's owner — or, for an owner, of its own entry.
    entry: u32,
}

/// The set of registered owner/ownee pairs.
///
/// Invariants maintained here (the paper's restrictions):
///
/// * an object is never both an owner and an ownee,
/// * an ownee has exactly one owner (re-asserting moves it),
/// * an object never owns itself.
#[derive(Debug, Default)]
pub(crate) struct OwnershipTable {
    entries: Vec<OwnerEntry>,
    /// Keyed by `ObjRef::index()`, grown on demand.
    slots: Vec<Slot>,
    ownees: usize,
}

impl OwnershipTable {
    pub(crate) fn new() -> OwnershipTable {
        OwnershipTable::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn ownee_count(&self) -> usize {
        self.ownees
    }

    pub(crate) fn owner_at(&self, idx: usize) -> ObjRef {
        self.entries[idx].owner
    }

    pub(crate) fn entry(&self, idx: usize) -> &OwnerEntry {
        &self.entries[idx]
    }

    /// The entry index registered for exactly this handle: its owner's if
    /// it carries `OWNEE`, its own if it carries `OWNER`.
    pub(crate) fn entry_of(&self, r: ObjRef) -> Option<usize> {
        let slot = self.slots.get(r.index() as usize)?;
        (slot.gen == r.generation())
            .then_some(slot.entry as usize)?
            .checked_sub(1)
    }

    fn set_entry(&mut self, r: ObjRef, idx: usize) {
        let i = r.index() as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Slot::default());
        }
        self.slots[i] = Slot {
            gen: r.generation(),
            entry: idx as u32 + 1,
        };
    }

    /// Unregisters exactly this handle, returning the entry it named.
    fn take_entry(&mut self, r: ObjRef) -> Option<usize> {
        let idx = self.entry_of(r)?;
        self.slots[r.index() as usize] = Slot::default();
        Some(idx)
    }

    /// Table-based owner test; the engine's hot path uses the `OWNER`
    /// header bit instead, so this is only needed by tests.
    #[cfg(test)]
    pub(crate) fn is_owner(&self, r: ObjRef) -> bool {
        self.entry_of(r)
            .is_some_and(|idx| self.entries[idx].owner == r)
    }

    /// Whether `ownee` — an object carrying `OWNEE` — belongs to the owner
    /// at entry `idx`: one indexed load.
    #[inline]
    pub(crate) fn entry_contains(&self, idx: usize, ownee: ObjRef) -> bool {
        self.entry_of(ownee) == Some(idx)
    }

    /// Registers `owner` owns `ownee`, setting the `OWNER` and `OWNEE`
    /// header bits. Both handles are validated before the first mutation,
    /// so a failed registration leaves table and headers untouched.
    ///
    /// # Errors
    ///
    /// [`VmError::OwnershipConflict`] if the pair violates the
    /// disjointness restrictions; [`VmError::Heap`] for a null or stale
    /// handle.
    pub(crate) fn add(
        &mut self,
        heap: &mut Heap,
        owner: ObjRef,
        ownee: ObjRef,
    ) -> Result<(), VmError> {
        if owner == ownee {
            return Err(VmError::OwnershipConflict(format!(
                "object {owner} cannot own itself"
            )));
        }
        let owner_flags = heap.flags_of(owner)?;
        let ownee_flags = heap.flags_of(ownee)?;
        if owner_flags.contains(Flags::OWNEE) {
            return Err(VmError::OwnershipConflict(format!(
                "object {owner} is already an ownee and cannot also be an owner"
            )));
        }
        if ownee_flags.contains(Flags::OWNER) {
            return Err(VmError::OwnershipConflict(format!(
                "object {ownee} is already an owner and cannot also be an ownee"
            )));
        }

        // Not an ownee, so a slot naming this handle is its own entry.
        let idx = match self.entry_of(owner) {
            Some(idx) => idx,
            None => {
                let class = heap.class_of(owner)?;
                let idx = self.entries.len();
                self.entries.push(OwnerEntry {
                    owner,
                    owner_class: heap.registry().name(class).to_owned(),
                });
                self.set_entry(owner, idx);
                // The OWNER header bit lets the tracer recognize owner
                // boundaries with a flag test on every traced object.
                heap.set_flag(owner, Flags::OWNER)?;
                idx
            }
        };

        // Re-asserting moves the ownee to its new owner (one overwrite);
        // asserting the same pair again changes nothing.
        if !ownee_flags.contains(Flags::OWNEE) {
            heap.set_flag(ownee, Flags::OWNEE)?;
            self.ownees += 1;
        }
        self.set_entry(ownee, idx);
        Ok(())
    }

    /// Unregisters an ownee (e.g. the program legitimately removed and
    /// discarded it), clearing its `OWNEE` bit. A dead ownee was already
    /// retired by the collection that freed it.
    pub(crate) fn remove_ownee(&mut self, heap: &mut Heap, ownee: ObjRef) -> bool {
        let registered =
            heap.has_flag(ownee, Flags::OWNEE).unwrap_or(false) && self.take_entry(ownee).is_some();
        if registered {
            let _ = heap.clear_flag(ownee, Flags::OWNEE);
            self.ownees -= 1;
        }
        registered
    }

    /// Post-sweep maintenance ("we must remove each unreachable ownee
    /// after a GC", §3.1.2): drops the ownees and owners the sweep just
    /// freed — the engine records them from its `swept` hook, so a dead
    /// ownee costs one store. Entries of dead owners are dropped with the
    /// `OWNEE` bit of their surviving ownees cleared, so the next
    /// collection does not check an unregistered pair; finding those
    /// survivors is the one thing that walks the side table, once per
    /// collection that lost an owner.
    ///
    /// Returns, for each dead owner in `dead_owners` order, its class name
    /// and surviving ownees in ascending slot order (consumed by the
    /// strict-owner-lifetime extension).
    pub(crate) fn retire(
        &mut self,
        heap: &mut Heap,
        dead_ownees: &[ObjRef],
        dead_owners: &[ObjRef],
    ) -> Vec<(String, Vec<ObjRef>)> {
        for &ownee in dead_ownees {
            if self.take_entry(ownee).is_some() {
                self.ownees -= 1;
            }
        }
        if dead_owners.is_empty() {
            return Vec::new();
        }

        // Entry index -> position in `retired`, for a dead owner's entry.
        let mut retired_at = vec![usize::MAX; self.entries.len()];
        let mut retired = Vec::with_capacity(dead_owners.len());
        for &owner in dead_owners {
            if let Some(idx) = self.take_entry(owner) {
                retired_at[idx] = retired.len();
                let class = std::mem::take(&mut self.entries[idx].owner_class);
                retired.push((class, Vec::new()));
            }
        }
        // The kept entries close ranks: old entry index -> new index + 1.
        let mut renumbered = Vec::with_capacity(retired_at.len());
        let mut kept = 0;
        self.entries.retain(|_| {
            let keep = retired_at[renumbered.len()] == usize::MAX;
            kept += u32::from(keep);
            renumbered.push(kept);
            keep
        });

        for (index, slot) in self.slots.iter_mut().enumerate() {
            let Some(old) = (slot.entry as usize).checked_sub(1) else {
                continue;
            };
            let Some((_, survivors)) = retired.get_mut(retired_at[old]) else {
                slot.entry = renumbered[old];
                continue;
            };
            // The dead were unregistered above, so this is a live ownee
            // that outlived its owner.
            let tenant = heap.object_at(index as u32);
            if let Some((ownee, _)) = tenant.filter(|(o, _)| o.generation() == slot.gen) {
                let _ = heap.clear_flag(ownee, Flags::OWNEE);
                survivors.push(ownee);
            }
            *slot = Slot::default();
            self.ownees -= 1;
        }
        retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Heap, ObjRef, ObjRef, ObjRef) {
        let mut heap = Heap::new();
        let c = heap.register_class("C", &["f", "g"]);
        let owner = heap.alloc(c, 2, 0).unwrap();
        let a = heap.alloc(c, 2, 0).unwrap();
        let b = heap.alloc(c, 2, 0).unwrap();
        (heap, owner, a, b)
    }

    #[test]
    fn add_and_query() {
        let (mut heap, owner, a, b) = setup();
        let mut t = OwnershipTable::new();
        t.add(&mut heap, owner, a).unwrap();
        t.add(&mut heap, owner, b).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.ownee_count(), 2);
        assert!(t.is_owner(owner));
        assert!(!t.is_owner(a));
        assert_eq!(t.entry_of(a), Some(0));
        assert!(t.entry_contains(0, a));
        assert!(t.entry_contains(0, b));
        assert!(heap.has_flag(a, Flags::OWNEE).unwrap());
        assert_eq!(t.entry(0).owner_class, "C");
    }

    #[test]
    fn self_ownership_rejected() {
        let (mut heap, owner, _, _) = setup();
        let mut t = OwnershipTable::new();
        assert!(matches!(
            t.add(&mut heap, owner, owner),
            Err(VmError::OwnershipConflict(_))
        ));
    }

    #[test]
    fn owner_ownee_role_conflicts_rejected() {
        let (mut heap, owner, a, b) = setup();
        let mut t = OwnershipTable::new();
        t.add(&mut heap, owner, a).unwrap();
        // a is an ownee; it cannot become an owner.
        assert!(matches!(
            t.add(&mut heap, a, b),
            Err(VmError::OwnershipConflict(_))
        ));
        // owner is an owner; it cannot become an ownee.
        t.add(&mut heap, b, owner).unwrap_err();
    }

    #[test]
    fn reassert_moves_ownee() {
        let (mut heap, owner, a, _) = setup();
        let c = heap.register_class("C", &[]);
        let owner2 = heap.alloc(c, 0, 0).unwrap();
        let mut t = OwnershipTable::new();
        t.add(&mut heap, owner, a).unwrap();
        t.add(&mut heap, owner2, a).unwrap();
        assert_eq!(t.entry_of(a), Some(1));
        assert!(!t.entry_contains(0, a));
        assert!(t.entry_contains(1, a));
        assert_eq!(t.ownee_count(), 1);
    }

    #[test]
    fn remove_ownee_clears_flag() {
        let (mut heap, owner, a, _) = setup();
        let mut t = OwnershipTable::new();
        t.add(&mut heap, owner, a).unwrap();
        assert!(t.remove_ownee(&mut heap, a));
        assert!(!t.remove_ownee(&mut heap, a));
        assert!(!heap.has_flag(a, Flags::OWNEE).unwrap());
        assert_eq!(t.ownee_count(), 0);
    }

    #[test]
    fn retire_dead_ownees() {
        let (mut heap, owner, a, b) = setup();
        let mut t = OwnershipTable::new();
        t.add(&mut heap, owner, a).unwrap();
        t.add(&mut heap, owner, b).unwrap();
        heap.free(a).unwrap();
        let retired = t.retire(&mut heap, &[a], &[]);
        assert!(retired.is_empty()); // owner still alive
        assert_eq!(t.ownee_count(), 1);
        assert!(t.entry_contains(0, b));
    }

    #[test]
    fn retire_dead_owner_clears_surviving_ownee_flags() {
        let (mut heap, owner, a, b) = setup();
        let mut t = OwnershipTable::new();
        t.add(&mut heap, owner, a).unwrap();
        t.add(&mut heap, owner, b).unwrap();
        heap.free(owner).unwrap();
        heap.free(b).unwrap();
        let retired = t.retire(&mut heap, &[b], &[owner]);
        assert_eq!(retired.len(), 1);
        let (class, survivors) = &retired[0];
        assert_eq!(class, "C");
        assert_eq!(survivors.as_slice(), &[a]);
        assert!(t.is_empty());
        assert_eq!(t.ownee_count(), 0);
        assert!(!heap.has_flag(a, Flags::OWNEE).unwrap());
    }

    #[test]
    fn retire_rebuilds_indices() {
        // Two owners; kill the first; the second's index must be remapped.
        let (mut heap, owner1, a, b) = setup();
        let c = heap.register_class("C", &[]);
        let owner2 = heap.alloc(c, 0, 0).unwrap();
        let mut t = OwnershipTable::new();
        t.add(&mut heap, owner1, a).unwrap();
        t.add(&mut heap, owner2, b).unwrap();
        heap.free(owner1).unwrap();
        t.retire(&mut heap, &[], &[owner1]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.owner_at(0), owner2);
        assert_eq!(t.entry_of(b), Some(0));
        assert!(t.entry_contains(0, b));
        assert_eq!(t.entry_of(a), None);
    }
}
