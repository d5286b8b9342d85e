//! The `HeapSpace` backend contract: interchangeable space layouts behind
//! one observer API.
//!
//! A *space* decides where objects live in (simulated) memory; the
//! [`PageTable`](crate::PageTable) always stores the objects themselves,
//! so [`ObjRef`](crate::ObjRef) handles are relocation-stable regardless
//! of backend. Two backends exist today:
//!
//! * [`SpaceKind::Paged`] — the BiBOP page table itself: non-moving,
//!   addresses derived from page geometry, never flips.
//! * [`SpaceKind::Semispace`] — Cheney-style from/to address bookkeeping
//!   ([`SemiSpaces`]) driven by the copying collector through the heap's
//!   `evac_begin` / `evac_forward` / `evac_finish` protocol.
//!
//! # Contract for future backends
//!
//! `HeapSpace` is deliberately a *read-only observer* interface: engines
//! may inspect a space (addresses, flip count, usage, invariants) through
//! it, but every mutation goes through `Heap` methods so the heap can
//! keep its page table, card table, and statistics coherent. A new
//! backend (e.g. a concurrently-marked space, ROADMAP item 2) must:
//!
//! 1. report a distinct [`SpaceKind`];
//! 2. give every *live* index an address and no address to dead indices
//!    (`address_of` is how the differential suites detect address-space
//!    leaks);
//! 3. keep `verify_layout` O(live) and side-effect-free — it runs inside
//!    debug cross-checks after every collection;
//! 4. count `flips`/`evacuated_*` monotonically (0 forever is fine for
//!    non-moving backends).

use crate::pages::PageTable;

/// Which space layout a heap was built with. Selected once at
/// construction ([`Heap::with_space`](crate::Heap::with_space)); the VM
/// derives it from the collector kind, so `CollectorKind` alone
/// determines the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpaceKind {
    /// Non-moving BiBOP pages (mark-sweep, parallel, generational).
    #[default]
    Paged,
    /// Semispace from/to address bookkeeping (copying collector).
    Semispace,
}

impl std::fmt::Display for SpaceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceKind::Paged => write!(f, "paged"),
            SpaceKind::Semispace => write!(f, "semispace"),
        }
    }
}

/// Read-only backend contract shared by every space layout (see the
/// module docs for the rules a new backend must follow).
pub trait HeapSpace: std::fmt::Debug {
    /// Which layout this is.
    fn kind(&self) -> SpaceKind;

    /// The current address of the live object at `index`, if resident.
    fn address_of(&self, index: u32) -> Option<u64>;

    /// Completed space flips (0 for non-moving backends).
    fn flips(&self) -> u64;

    /// Cumulative objects evacuated (0 for non-moving backends).
    fn evacuated_objects(&self) -> u64;

    /// Cumulative words evacuated (0 for non-moving backends).
    fn evacuated_words(&self) -> u64;

    /// Words currently consumed in the active allocation region (live
    /// data plus any unreclaimed holes).
    // "from-space" is the semispace noun, not a `from_x` conversion.
    #[allow(clippy::wrong_self_convention)]
    fn from_space_used(&self) -> u64;

    /// Checks the space's address invariants against the current live set
    /// (`(index, size_words)` pairs), returning human-readable problems
    /// (empty = healthy).
    fn verify_layout(&self, resident: &[(u32, usize)]) -> Vec<String>;
}

impl HeapSpace for PageTable {
    fn kind(&self) -> SpaceKind {
        SpaceKind::Paged
    }

    fn address_of(&self, index: u32) -> Option<u64> {
        self.address_at(index)
    }

    fn flips(&self) -> u64 {
        0
    }

    fn evacuated_objects(&self) -> u64 {
        0
    }

    fn evacuated_words(&self) -> u64 {
        0
    }

    fn from_space_used(&self) -> u64 {
        self.occupied_words() as u64
    }

    fn verify_layout(&self, resident: &[(u32, usize)]) -> Vec<String> {
        let mut problems = Vec::new();
        for &(index, words) in resident {
            match self.address_at(index) {
                None => problems.push(format!("resident index {index} has no paged address")),
                Some(_) => {
                    if !self.is_live(index) {
                        problems.push(format!("index {index} addressed but not live"));
                    }
                }
            }
            let _ = words;
        }
        if resident.len() != self.live_objects() {
            problems.push(format!(
                "paged space holds {} live objects but {} residents were reported",
                self.live_objects(),
                resident.len()
            ));
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spaces::SemiSpaces;

    #[test]
    fn kind_display_names() {
        assert_eq!(SpaceKind::Paged.to_string(), "paged");
        assert_eq!(SpaceKind::Semispace.to_string(), "semispace");
        assert_eq!(SpaceKind::default(), SpaceKind::Paged);
    }

    #[test]
    fn semispaces_implement_the_contract() {
        let mut s = SemiSpaces::new();
        s.note_alloc(0, 4);
        let space: &dyn HeapSpace = &s;
        assert_eq!(space.kind(), SpaceKind::Semispace);
        assert!(space.address_of(0).is_some());
        assert!(space.address_of(1).is_none());
        assert_eq!(space.flips(), 0);
        assert_eq!(space.from_space_used(), 4);
        assert!(space.verify_layout(&[(0, 4)]).is_empty());
    }
}
