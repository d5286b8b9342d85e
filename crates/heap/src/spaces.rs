//! Semispace address bookkeeping for the copying collector backend.
//!
//! The heap proper stays slot-based so [`ObjRef`](crate::ObjRef) handles
//! remain relocation-stable — mutator roots, assertion registrations,
//! alloc-site tags and replay logs all keep working across an evacuation.
//! What *moves* is the object's **address**: every resident object has a
//! bump-allocated address inside the current from-space, and a collection
//! evacuates survivors to contiguous addresses in the to-space, records a
//! forwarding word per slot, then flips the spaces.
//!
//! This mirrors how a real semispace collector (Cheney 1970) relocates
//! objects while the runtime keeps stable handles (Jikes RVM's object
//! model hands out handles through a moving-GC-aware indirection; our
//! generation-checked slot index plays that role).

use crate::{HeapSpace, SpaceKind};

/// Sentinel for "this slot has no address" (not resident / reclaimed).
const NO_ADDR: u64 = u64::MAX;

/// Base address of the first semispace. High bits chosen so from/to ranges
/// are visibly disjoint in debug output.
const SPACE_A_BASE: u64 = 1 << 40;
/// Base address of the second semispace.
const SPACE_B_BASE: u64 = 3 << 40;

/// From/to space address bookkeeping for the semispace copying backend.
///
/// Owned by the [`Heap`](crate::Heap) (enabled via
/// [`Heap::with_space`](crate::Heap::with_space)) so that
/// ordinary allocation and reclamation maintain it automatically:
///
/// * [`SemiSpaces::note_alloc`] bump-allocates an address in from-space;
/// * [`SemiSpaces::note_free`] clears the slot's residency;
/// * during a collection, [`SemiSpaces::begin_gc`] /
///   [`SemiSpaces::forward`] / [`SemiSpaces::finish_gc`] implement the
///   evacuation: each survivor gets a forwarding address in to-space, and
///   the flip makes to-space the new from-space.
///
/// # Example
///
/// The heap drives it through its `evac_*` calls:
///
/// ```
/// use gca_heap::{Heap, SpaceKind};
///
/// # fn main() -> Result<(), gca_heap::HeapError> {
/// let mut heap = Heap::with_space(SpaceKind::Semispace);
/// let c = heap.register_class("T", &[]);
/// let kept = heap.alloc(c, 0, 2)?;
/// let garbage = heap.alloc(c, 0, 0)?;
/// let before = heap.space().address_of(kept.index()).unwrap();
///
/// heap.evac_begin();
/// heap.evac_forward(kept)?; // `kept` survives; `garbage` does not
/// heap.evac_finish();
///
/// let after = heap.space().address_of(kept.index()).unwrap();
/// assert_ne!(before, after, "survivor was relocated");
/// assert!(heap.space().address_of(garbage.index()).is_none(), "garbage lost it");
/// assert_eq!(heap.space().flips(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub(crate) struct SemiSpaces {
    /// Base address of the current from-space (where resident objects live).
    from_base: u64,
    /// Base address of the current to-space (evacuation target during GC).
    to_base: u64,
    /// Bump pointer (in words) past the last allocation in from-space.
    from_bump: u64,
    /// Bump pointer (in words) past the last evacuation in to-space.
    to_bump: u64,
    /// Per-slot current address, or `NO_ADDR` when not resident.
    addr: Vec<u64>,
    /// Per-slot size in words of the resident object (0 when not resident).
    size: Vec<u32>,
    /// Per-slot forwarding address installed during a GC, or `NO_ADDR`.
    fwd: Vec<u64>,
    /// True between `begin_gc` and `finish_gc`.
    in_gc: bool,
    /// Number of completed flips.
    flips: u64,
    /// Cumulative objects evacuated across all flips.
    evacuated_objects: u64,
    /// Cumulative words evacuated across all flips.
    evacuated_words: u64,
}

impl Default for SemiSpaces {
    fn default() -> SemiSpaces {
        SemiSpaces::new()
    }
}

impl SemiSpaces {
    /// Creates an empty pair of semispaces.
    pub(crate) fn new() -> SemiSpaces {
        SemiSpaces {
            from_base: SPACE_A_BASE,
            to_base: SPACE_B_BASE,
            from_bump: 0,
            to_bump: 0,
            addr: Vec::new(),
            size: Vec::new(),
            fwd: Vec::new(),
            in_gc: false,
            flips: 0,
            evacuated_objects: 0,
            evacuated_words: 0,
        }
    }

    fn ensure_slot(&mut self, slot: usize) {
        if slot >= self.addr.len() {
            self.addr.resize(slot + 1, NO_ADDR);
            self.size.resize(slot + 1, 0);
            self.fwd.resize(slot + 1, NO_ADDR);
        }
    }

    /// Records a fresh allocation in `slot` of `words` words: the object is
    /// bump-allocated at the end of the current from-space.
    pub(crate) fn note_alloc(&mut self, slot: usize, words: usize) {
        self.ensure_slot(slot);
        debug_assert_eq!(
            self.addr[slot], NO_ADDR,
            "slot {slot} already resident at allocation time"
        );
        self.addr[slot] = self.from_base + self.from_bump;
        self.size[slot] = words as u32;
        self.from_bump += words as u64;
    }

    /// Records that `slot` was reclaimed. Its from-space extent becomes a
    /// hole; holes are squeezed out at the next evacuation.
    pub(crate) fn note_free(&mut self, slot: usize) {
        if slot < self.addr.len() {
            self.addr[slot] = NO_ADDR;
            self.size[slot] = 0;
        }
    }

    /// The current address of the object in `slot`, if resident.
    pub(crate) fn address_of(&self, slot: usize) -> Option<u64> {
        match self.addr.get(slot) {
            Some(&a) if a != NO_ADDR => Some(a),
            _ => None,
        }
    }

    /// Starts an evacuation: resets the to-space bump pointer and clears
    /// any forwarding words.
    ///
    /// # Panics
    ///
    /// If a GC is already in progress.
    pub(crate) fn begin_gc(&mut self) {
        assert!(!self.in_gc, "begin_gc called twice without finish_gc");
        self.in_gc = true;
        self.to_bump = 0;
        for f in &mut self.fwd {
            *f = NO_ADDR;
        }
    }

    /// Evacuates the object in `slot` (of `words` words) to the to-space,
    /// installing and returning its forwarding address. Each slot may be
    /// forwarded at most once per GC — exactly the "check the forwarding
    /// word first" discipline of a real copying collector.
    ///
    /// # Panics
    ///
    /// If no GC is in progress, the slot is not resident, or the slot was
    /// already forwarded this cycle.
    pub(crate) fn forward(&mut self, slot: usize, words: usize) -> u64 {
        assert!(self.in_gc, "forward outside begin_gc/finish_gc");
        self.ensure_slot(slot);
        assert!(
            self.addr[slot] != NO_ADDR,
            "forwarding non-resident slot {slot}"
        );
        assert!(
            self.fwd[slot] == NO_ADDR,
            "slot {slot} forwarded twice in one cycle"
        );
        let to = self.to_base + self.to_bump;
        self.fwd[slot] = to;
        self.to_bump += words as u64;
        self.evacuated_objects += 1;
        self.evacuated_words += words as u64;
        to
    }

    /// The forwarding address installed for `slot` this cycle, if any.
    pub(crate) fn forwarding_of(&self, slot: usize) -> Option<u64> {
        match self.fwd.get(slot) {
            Some(&f) if f != NO_ADDR => Some(f),
            _ => None,
        }
    }

    /// Completes the evacuation: survivors take their forwarding address,
    /// everything else loses residency, and the spaces flip (the old
    /// to-space becomes the new from-space).
    ///
    /// # Panics
    ///
    /// If no GC is in progress.
    pub(crate) fn finish_gc(&mut self) {
        assert!(self.in_gc, "finish_gc without begin_gc");
        for slot in 0..self.addr.len() {
            if self.fwd[slot] != NO_ADDR {
                self.addr[slot] = self.fwd[slot];
            } else {
                self.addr[slot] = NO_ADDR;
                self.size[slot] = 0;
            }
            self.fwd[slot] = NO_ADDR;
        }
        std::mem::swap(&mut self.from_base, &mut self.to_base);
        self.from_bump = self.to_bump;
        self.to_bump = 0;
        self.in_gc = false;
        self.flips += 1;
    }

    /// Checks the address-space invariants against a set of resident slots
    /// given as `(slot, words)` pairs, returning human-readable problems
    /// (empty = healthy): every resident slot has an address inside the
    /// current from-space, extents do not overlap, and no non-resident
    /// slot has an address.
    pub(crate) fn verify(&self, resident: &[(usize, usize)]) -> Vec<String> {
        let mut problems = Vec::new();
        let mut extents: Vec<(u64, u64, usize)> = Vec::new();
        let mut seen = vec![false; self.addr.len()];
        for &(slot, words) in resident {
            if slot < seen.len() {
                seen[slot] = true;
            }
            match self.address_of(slot) {
                None => problems.push(format!("resident slot {slot} has no address")),
                Some(a) => {
                    if a < self.from_base || a + words as u64 > self.from_base + self.from_bump {
                        problems.push(format!(
                            "slot {slot} at {a:#x}+{words} outside from-space \
                             [{:#x}, {:#x})",
                            self.from_base,
                            self.from_base + self.from_bump
                        ));
                    }
                    extents.push((a, a + words as u64, slot));
                }
            }
        }
        for (slot, &a) in self.addr.iter().enumerate() {
            if a != NO_ADDR && !seen.get(slot).copied().unwrap_or(false) {
                problems.push(format!("non-resident slot {slot} still has address {a:#x}"));
            }
        }
        extents.sort_unstable();
        for pair in extents.windows(2) {
            let (_, end_a, slot_a) = pair[0];
            let (start_b, _, slot_b) = pair[1];
            if start_b < end_a {
                problems.push(format!("slots {slot_a} and {slot_b} overlap in from-space"));
            }
        }
        problems
    }
}

impl HeapSpace for SemiSpaces {
    fn kind(&self) -> SpaceKind {
        SpaceKind::Semispace
    }

    fn address_of(&self, index: u32) -> Option<u64> {
        SemiSpaces::address_of(self, index as usize)
    }

    fn flips(&self) -> u64 {
        self.flips
    }

    fn evacuated_objects(&self) -> u64 {
        self.evacuated_objects
    }

    fn evacuated_words(&self) -> u64 {
        self.evacuated_words
    }

    /// Live data plus any holes left by frees since the last flip.
    fn from_space_used(&self) -> u64 {
        self.from_bump
    }

    fn verify_layout(&self, resident: &[(u32, usize)]) -> Vec<String> {
        let slots: Vec<(usize, usize)> = resident
            .iter()
            .map(|&(index, words)| (index as usize, words))
            .collect();
        self.verify(&slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_assigns_disjoint_bump_addresses() {
        let mut s = SemiSpaces::new();
        s.note_alloc(0, 4);
        s.note_alloc(1, 2);
        s.note_alloc(2, 8);
        let a0 = s.address_of(0).unwrap();
        let a1 = s.address_of(1).unwrap();
        let a2 = s.address_of(2).unwrap();
        assert_eq!(a1, a0 + 4);
        assert_eq!(a2, a1 + 2);
        assert!(s.verify(&[(0, 4), (1, 2), (2, 8)]).is_empty());
    }

    #[test]
    fn evacuation_compacts_and_flips() {
        let mut s = SemiSpaces::new();
        s.note_alloc(0, 4);
        s.note_alloc(1, 2);
        s.note_alloc(2, 8);
        let old_base = s.from_base;

        s.begin_gc();
        // Slot 1 dies; 2 is evacuated before 0 (traversal order, not slot
        // order).
        let f2 = s.forward(2, 8);
        let f0 = s.forward(0, 4);
        assert_eq!(f0, f2 + 8, "to-space is bump-allocated in copy order");
        assert!(s.forwarding_of(2).is_some());
        assert!(s.forwarding_of(1).is_none());
        s.finish_gc();

        assert_ne!(s.from_base, old_base, "spaces flipped");
        assert_eq!(s.address_of(2), Some(f2));
        assert_eq!(s.address_of(0), Some(f0));
        assert_eq!(s.address_of(1), None);
        assert_eq!(s.from_space_used(), 12);
        assert_eq!(s.flips(), 1);
        assert_eq!(s.evacuated_objects(), 2);
        assert_eq!(s.evacuated_words(), 12);
        assert!(
            s.verify(&[(0, 4), (2, 8)]).is_empty(),
            "{:?}",
            s.verify(&[(0, 4), (2, 8)])
        );
    }

    #[test]
    fn free_between_gcs_leaves_hole_until_next_flip() {
        let mut s = SemiSpaces::new();
        s.note_alloc(0, 4);
        s.note_alloc(1, 4);
        s.note_free(0);
        assert_eq!(s.address_of(0), None);
        // The hole is not reclaimed yet...
        assert_eq!(s.from_space_used(), 8);
        // ...until the next evacuation squeezes it out.
        s.begin_gc();
        s.forward(1, 4);
        s.finish_gc();
        assert_eq!(s.from_space_used(), 4);
        assert!(s.verify(&[(1, 4)]).is_empty());
    }

    #[test]
    fn slot_reuse_after_flip_gets_fresh_address() {
        let mut s = SemiSpaces::new();
        s.note_alloc(0, 4);
        s.begin_gc();
        s.finish_gc(); // nothing survives
        assert_eq!(s.address_of(0), None);
        s.note_alloc(0, 2);
        let a = s.address_of(0).unwrap();
        assert_eq!(a, s.from_base);
    }

    #[test]
    #[should_panic(expected = "forwarded twice")]
    fn double_forward_panics() {
        let mut s = SemiSpaces::new();
        s.note_alloc(0, 4);
        s.begin_gc();
        s.forward(0, 4);
        s.forward(0, 4);
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn forwarding_garbage_panics() {
        let mut s = SemiSpaces::new();
        s.begin_gc();
        s.forward(0, 4);
    }

    #[test]
    fn two_flips_alternate_spaces() {
        let mut s = SemiSpaces::new();
        let base_a = s.from_base;
        s.note_alloc(0, 4);
        s.begin_gc();
        s.forward(0, 4);
        s.finish_gc();
        let base_b = s.from_base;
        assert_ne!(base_a, base_b);
        s.begin_gc();
        s.forward(0, 4);
        s.finish_gc();
        assert_eq!(s.from_base, base_a, "second flip returns to space A");
        assert_eq!(s.flips(), 2);
    }
}
