//! The heap-census pass: one walk over the survivors of a collection.
//!
//! A census asks "what is live after this sweep?". Every strategy answers
//! that the same way — the objects carrying `MARK` when the trace is done —
//! so the cycle driver takes the census there, once, instead of threading
//! an accumulator through each trace loop: [`take`] walks `live & MARK`
//! page by page (the bitmap walk the sweep does for the complement) and
//! hands every survivor to the caller. A minor's census covers the nursery
//! survivors only, `live & MARK & !OLD`, taken before the sweep promotes
//! them. The pass knows nothing about class
//! *names* or allocation sites: attribution is the VM's, which owns the
//! type registry and the per-slot allocation-site table.

use gca_heap::{Flags, Heap, HeapError, ObjRef, Object};

use crate::collector::for_each_marked;

/// What a census pass hands each survivor to: the object's handle and the
/// object itself.
pub type SurvivorVisitor<'a> = dyn FnMut(ObjRef, &Object) + 'a;

/// Calls `visit` once for every marked live object outside the `immortal`
/// plane, in index order, and returns the `(objects, words)` it covered.
/// Run between the end of the trace and the sweep, that is exactly the
/// population the sweep keeps (a full cycle) or promotes (a minor).
///
/// # Errors
///
/// Reference-validity errors, which indicate a broken heap invariant.
pub(crate) fn take(
    heap: &mut Heap,
    immortal: Flags,
    visit: &mut SurvivorVisitor<'_>,
) -> Result<(usize, usize), HeapError> {
    let mut totals = (0, 0);
    for_each_marked(heap, immortal, |heap, r| {
        let o = heap.get(r)?;
        visit(r, o);
        totals.0 += 1;
        totals.1 += o.size_words();
        Ok(())
    })?;
    Ok(totals)
}

/// Debug-build cross-check, after the census cycle's sweep: the pass must
/// have covered exactly the population and occupancy the heap now
/// accounts for. Compiles away entirely in release builds.
pub(crate) fn verify_live_totals(heap: &Heap, (objects, words): (usize, usize)) {
    debug_assert_eq!(
        objects,
        heap.live_objects(),
        "census object total drifted from the live heap"
    );
    debug_assert_eq!(
        words,
        heap.occupied_words(),
        "heap occupancy accounting drifted from the live population"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gca_heap::Flags;

    fn two_class_heap() -> (Heap, Vec<ObjRef>) {
        let mut heap = Heap::new();
        let node = heap.register_class("Node", &["next"]);
        let blob = heap.register_class("Blob", &[]);
        let a = heap.alloc(node, 1, 0).unwrap();
        let b = heap.alloc(node, 1, 0).unwrap();
        let c = heap.alloc(blob, 0, 6).unwrap();
        (heap, vec![a, b, c])
    }

    #[test]
    fn observe_tallies_objects_words_and_slots() {
        let (mut heap, objs) = two_class_heap();
        for &o in &objs[1..] {
            heap.set_flag(o, Flags::MARK).unwrap();
        }
        let mut seen = Vec::new();
        let totals = take(&mut heap, Flags::empty(), &mut |r, o| {
            seen.push((r, o.size_words()));
        })
        .unwrap();
        // Unmarked `a` is not a survivor. Node: header(2)+1 ref = 3 words;
        // Blob: 2+6 = 8.
        assert_eq!(seen, vec![(objs[1], 3), (objs[2], 8)]);
        assert_eq!(totals, (2, 11));
    }

    #[test]
    fn a_minor_census_skips_the_immortal_plane() {
        let (mut heap, objs) = two_class_heap();
        for &o in &objs {
            heap.set_flag(o, Flags::MARK).unwrap();
        }
        heap.set_flag(objs[1], Flags::OLD).unwrap();
        let mut seen = Vec::new();
        let totals = take(&mut heap, Flags::OLD, &mut |r, _| seen.push(r)).unwrap();
        assert_eq!(seen, vec![objs[0], objs[2]]);
        assert_eq!(totals, (2, 11));
    }

    #[test]
    fn verify_live_totals_accepts_a_faithful_census() {
        let (heap, _) = two_class_heap();
        verify_live_totals(&heap, (3, 14));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "census object total drifted")]
    fn verify_live_totals_catches_an_undercount() {
        let (heap, _) = two_class_heap();
        verify_live_totals(&heap, (1, 3)); // two objects missing
    }
}
