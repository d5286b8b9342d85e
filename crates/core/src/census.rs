//! VM-side census state: allocation-site tagging and post-cycle
//! attribution.
//!
//! The collector's cycle driver hands every survivor of a collection to
//! one callback (its census pass) but deliberately knows no names. This
//! module holds the other half:
//!
//! * **Allocation sites** — an interned string table of site labels plus a
//!   slot-indexed side table recording which site allocated each heap
//!   slot. Tagging is a single `Vec` store on [`crate::Vm::alloc`]'s path
//!   (and nothing at all when the census is off).
//! * **Attribution** — [`CensusState::observe`] tallies each survivor by
//!   class and by allocation site in that one pass, and
//!   [`CensusState::build_data`] resolves the ids against the type
//!   registry and the site table once the cycle is over.
//! * **The recorder** — a [`HeapCensus`] fed one [`CensusData`] per cycle,
//!   which maintains the drift windows and serves `Vm::census()`.

use std::collections::HashMap;

use gca_heap::{Heap, ObjRef, Object};
use gca_telemetry::{CensusData, CensusEntry, HeapCensus};

/// Heap words are u64s.
const WORD_BYTES: u64 = 8;

/// Site id 0 is reserved for allocations made with no site set.
const UNATTRIBUTED: u32 = 0;

/// An interned allocation-site label, obtained from
/// [`crate::Vm::alloc_site`] and installed with
/// [`crate::Vm::set_alloc_site`]. Copy-cheap; compares by identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocSite(pub(crate) u32);

impl AllocSite {
    /// The default site: allocations made while no site is set are
    /// attributed to `<unattributed>`.
    pub(crate) const UNATTRIBUTED: AllocSite = AllocSite(UNATTRIBUTED);
}

/// One cycle's survivor tally: `(objects, bytes)` per class and per
/// allocation site. Class and site ids are dense, so each table is a `Vec`
/// indexed by the id and grown on demand — a survivor costs two index
/// bumps, no hashing.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    classes: Vec<(u64, u64)>,
    sites: Vec<(u64, u64)>,
}

/// Adds one object of `bytes` bytes to row `id` of a tally table.
fn bump(table: &mut Vec<(u64, u64)>, id: u32, bytes: u64) {
    let id = id as usize;
    if table.len() <= id {
        table.resize(id + 1, (0, 0));
    }
    table[id].0 += 1;
    table[id].1 += bytes;
}

/// All census state owned by the VM (boxed, present only when
/// [`crate::VmConfig::census`] is set).
#[derive(Debug)]
pub(crate) struct CensusState {
    site_names: Vec<String>,
    site_ids: HashMap<String, u32>,
    current_site: u32,
    /// Slot-indexed: which site allocated the object currently in each
    /// heap slot. Stale entries for freed slots are overwritten by the
    /// next allocation in that slot and never read meanwhile (attribution
    /// only looks up slots of marked — live — objects).
    site_of: Vec<u32>,
    /// The rolling recorder behind `Vm::census()`.
    pub(crate) recorder: HeapCensus,
}

impl CensusState {
    pub(crate) fn new() -> CensusState {
        let unattributed = "<unattributed>".to_owned();
        CensusState {
            site_ids: HashMap::from([(unattributed.clone(), UNATTRIBUTED)]),
            site_names: vec![unattributed],
            current_site: UNATTRIBUTED,
            site_of: Vec::new(),
            recorder: HeapCensus::new(),
        }
    }

    /// Interns a site label, returning its id.
    pub(crate) fn intern(&mut self, name: &str) -> AllocSite {
        if let Some(&id) = self.site_ids.get(name) {
            return AllocSite(id);
        }
        let id = self.site_names.len() as u32;
        self.site_names.push(name.to_owned());
        self.site_ids.insert(name.to_owned(), id);
        AllocSite(id)
    }

    /// Replaces the current site, returning the previous one so callers
    /// can scope-restore. A site id this table never issued (e.g. one
    /// from another VM) falls back to `<unattributed>`.
    pub(crate) fn set_current(&mut self, site: AllocSite) -> AllocSite {
        let id = if (site.0 as usize) < self.site_names.len() {
            site.0
        } else {
            UNATTRIBUTED
        };
        AllocSite(std::mem::replace(&mut self.current_site, id))
    }

    /// Tags a freshly-allocated slot with the current site.
    pub(crate) fn note_alloc(&mut self, slot: u32) {
        let slot = slot as usize;
        if self.site_of.len() <= slot {
            self.site_of.resize(slot + 1, UNATTRIBUTED);
        }
        self.site_of[slot] = self.current_site;
    }

    #[cfg(test)]
    fn site_name(&self, id: u32) -> &str {
        &self.site_names[id as usize]
    }

    /// Tallies one survivor by class and by the site that allocated its
    /// slot.
    pub(crate) fn observe(&self, tally: &mut Tally, obj: ObjRef, o: &Object) {
        let bytes = o.size_words() as u64 * WORD_BYTES;
        let site = self
            .site_of
            .get(obj.index() as usize)
            .copied()
            .unwrap_or(UNATTRIBUTED);
        bump(&mut tally.classes, o.class().as_u32(), bytes);
        bump(&mut tally.sites, site, bytes);
    }

    /// Resolves a finished tally into named, normalized census data.
    pub(crate) fn build_data(&self, heap: &Heap, tally: Tally) -> CensusData {
        // Rows nothing survived in are skipped; registry and site table
        // both hand out ids in index order.
        fn entries<'n>(
            names: impl Iterator<Item = &'n str>,
            table: Vec<(u64, u64)>,
        ) -> Vec<CensusEntry> {
            names
                .zip(table)
                .filter(|&(_, (objects, _))| objects != 0)
                .map(|(name, (objects, bytes))| CensusEntry {
                    name: name.to_owned(),
                    objects,
                    bytes,
                })
                .collect()
        }
        let classes = heap.registry().iter().map(|(_, info)| info.name());
        let sites = self.site_names.iter().map(String::as_str);
        let mut data = CensusData {
            classes: entries(classes, tally.classes),
            sites: entries(sites, tally.sites),
        };
        data.normalize();
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut s = CensusState::new();
        let a = s.intern("Foo::bar");
        let b = s.intern("Foo::bar");
        let c = s.intern("Other");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(s.site_name(a.0), "Foo::bar");
    }

    #[test]
    fn unattributed_is_the_default_site() {
        let mut s = CensusState::new();
        assert_eq!(s.intern("<unattributed>"), AllocSite::UNATTRIBUTED);
        s.note_alloc(3);
        assert_eq!(s.site_of, vec![0, 0, 0, 0]);
    }

    #[test]
    fn set_current_returns_previous() {
        let mut s = CensusState::new();
        let site = s.intern("X");
        let prev = s.set_current(site);
        assert_eq!(prev, AllocSite::UNATTRIBUTED);
        s.note_alloc(0);
        assert_eq!(s.site_of, vec![site.0]);
        let prev = s.set_current(AllocSite::UNATTRIBUTED);
        assert_eq!(prev, site);
    }

    #[test]
    fn build_data_resolves_names_and_sites() {
        let mut heap = Heap::new();
        let node = heap.register_class("Node", &["next"]);
        let mut s = CensusState::new();
        let site = s.intern("test::mk");
        s.set_current(site);
        let a = heap.alloc(node, 1, 0).unwrap();
        s.note_alloc(a.index());
        s.set_current(AllocSite::UNATTRIBUTED);
        let b = heap.alloc(node, 1, 0).unwrap();
        s.note_alloc(b.index());

        let mut tally = Tally::default();
        for r in [a, b] {
            s.observe(&mut tally, r, heap.get(r).unwrap());
        }
        let data = s.build_data(&heap, tally);
        assert_eq!(data.classes.len(), 1);
        assert_eq!(data.classes[0].name, "Node");
        assert_eq!(data.classes[0].objects, 2);
        assert_eq!(data.classes[0].bytes, 2 * 3 * 8); // header 2 + 1 ref
        let names: Vec<&str> = data.sites.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["<unattributed>", "test::mk"]); // normalized
        assert!(data.sites.iter().all(|e| e.objects == 1 && e.bytes == 24));
    }

    #[test]
    fn invalid_refs_are_ignored() {
        // A minor's census counts the nursery survivors only: the objects
        // its sweep frees never reach the tally.
        let mut vm = crate::Vm::new(
            crate::VmConfig::builder()
                .census(true)
                .generational(8)
                .build(),
        );
        let node = vm.register_class("Node", &[]);
        let m = vm.main();
        let kept = vm.alloc_rooted(m, node, 0, 0).unwrap();
        let freed = vm.alloc(m, node, 0, 0).unwrap();
        vm.collect_minor().unwrap();
        assert!(vm.is_live(kept));
        assert!(!vm.is_live(freed));
        let data = &vm.census().records().last().unwrap().data;
        assert_eq!(data.classes.len(), 1);
        assert_eq!(data.classes[0].objects, 1);
    }
}
