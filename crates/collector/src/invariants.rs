//! Core GC invariants, extracted for `debug_assert!`-guarded checking on
//! every collection cycle.
//!
//! These are the model-checkable properties the exhaustive small-scope
//! checker (`gca-modelcheck`) relies on implicitly; checking them *inside*
//! the collectors turns a latent heap corruption into an immediate panic
//! at the cycle that caused it, instead of a downstream differential
//! mismatch several programs later. Each function returns a list of
//! violation descriptions (empty = invariant holds) so the call sites can
//! stay `debug_assert!`-gated — release builds pay nothing, and the CI
//! model-check gate runs with `debug-assertions = true` (the `mcheck`
//! profile) so every enumerated program exercises them.

use gca_heap::{Flags, Heap};

/// Mark-plane hygiene at `gc_begin` time: no live object may carry `MARK`
/// from before the cycle. A stale mark makes the trace treat a survivor as
/// already visited — its subgraph is never traced and the sweep frees
/// reachable objects. Every way out of a cycle (the sweep of either
/// scope, the abandoned-cycle path, a probe traversal) must therefore
/// leave the plane clear.
pub fn stale_mark_violations(heap: &Heap) -> Vec<String> {
    (0..heap.page_count())
        .filter_map(|pid| {
            let meta = heap.page_meta(pid);
            let stale = meta.live_mask() & meta.flag_word(Flags::MARK);
            (stale != 0).then(|| format!("page {pid} enters the cycle with marks {stale:#x}"))
        })
        .collect()
}

/// Tri-color consistency at `trace_done` time (after the transitive mark,
/// before the sweep): no black-to-white edge may exist — every reference
/// field of a MARK'd (black) object must point to a MARK'd object. An
/// unmarked child here means the tracer lost an edge, and the sweep is
/// about to free a reachable object.
///
/// `immortal` is the plane of objects the cycle does not collect: empty
/// for a full collection, [`Flags::OLD`] for a minor. An immortal object
/// is never black (the trace stops at it), and an edge into one is never
/// lost (the sweep keeps it).
#[cfg(any(debug_assertions, test))]
pub(crate) fn tricolor_violations(heap: &Heap, immortal: Flags) -> Vec<String> {
    let kept = |f: Flags| f.contains(Flags::MARK) || f.intersects(immortal);
    let mut problems = Vec::new();
    for (r, obj) in heap.iter() {
        match heap.flags_of(r) {
            Ok(f) if f.contains(Flags::MARK) && !f.intersects(immortal) => {}
            _ => continue,
        }
        for (i, &child) in obj.refs().iter().enumerate() {
            if !child.is_some() {
                continue;
            }
            match heap.flags_of(child).map(kept) {
                Ok(true) => {}
                Ok(false) => problems.push(format!(
                    "black-to-white edge: marked {r:?}.{i} -> unmarked {child:?}"
                )),
                Err(e) => problems.push(format!(
                    "marked {r:?}.{i} -> invalid reference {child:?}: {e:?}"
                )),
            }
        }
    }
    problems
}

/// Forwarding totality for the copying backend, at `trace_done` time
/// (after evacuation, before the sweep and the flip): an object has a
/// forwarding address installed this cycle **iff** it is MARK'd. A marked
/// survivor without a forwarding address loses its location at the flip
/// (the space assigns it no to-space address); a forwarded-but-unmarked
/// object means something evacuated outside the tracer's knowledge.
///
/// Call only between `evac_begin` and `evac_finish` on a
/// [`gca_heap::SpaceKind::Semispace`] heap — outside a cycle no object
/// has a forwarding address and every marked object would be reported.
#[cfg(any(debug_assertions, test))]
pub(crate) fn forwarding_totality_violations(heap: &Heap) -> Vec<String> {
    let mut problems = Vec::new();
    for (r, _) in heap.iter() {
        let marked = heap.has_flag(r, Flags::MARK).unwrap_or(false);
        let forwarded = heap.evac_forwarding_of(r).is_some();
        match (marked, forwarded) {
            (true, false) => problems.push(format!(
                "marked survivor {r:?} has no forwarding address installed"
            )),
            (false, true) => problems.push(format!(
                "unmarked object {r:?} was forwarded to {:?}",
                heap.evac_forwarding_of(r)
            )),
            _ => {}
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use gca_heap::{ObjRef, SpaceKind};

    #[test]
    fn stale_marks_are_detected() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &[]);
        let a = heap.alloc(c, 0, 0).unwrap();
        assert!(stale_mark_violations(&heap).is_empty());
        heap.set_flag(a, Flags::MARK).unwrap();
        assert_eq!(stale_mark_violations(&heap).len(), 1);
    }

    #[test]
    fn tricolor_flags_a_lost_edge() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let parent = heap.alloc(c, 1, 0).unwrap();
        let child = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(parent, 0, child).unwrap();
        heap.set_flag(parent, Flags::MARK).unwrap();
        let problems = tricolor_violations(&heap, Flags::empty());
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("black-to-white"));
        heap.set_flag(child, Flags::MARK).unwrap();
        assert!(tricolor_violations(&heap, Flags::empty()).is_empty());
    }

    #[test]
    fn tricolor_in_the_young_scope_treats_old_objects_as_kept() {
        // young -> old -> young2: a marked young object may point at an
        // unmarked old one, and the trace stopped at the old object, so
        // its edge to an unmarked young object is no black-to-white edge.
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let young = heap.alloc(c, 1, 0).unwrap();
        let old = heap.alloc(c, 1, 0).unwrap();
        let young2 = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(young, 0, old).unwrap();
        heap.set_ref_field(old, 0, young2).unwrap();
        heap.set_flag(young, Flags::MARK).unwrap();
        heap.set_flag(old, Flags::OLD | Flags::MARK).unwrap();
        assert!(tricolor_violations(&heap, Flags::OLD).is_empty());
        // The full scope collects old objects too: old -> young2 is lost.
        assert_eq!(tricolor_violations(&heap, Flags::empty()).len(), 1);
        // A marked young object's edge to an unmarked young one is lost
        // in either scope.
        heap.set_ref_field(young, 0, young2).unwrap();
        let problems = tricolor_violations(&heap, Flags::OLD);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("black-to-white"));
    }

    #[test]
    fn tricolor_ignores_null_fields_and_white_parents() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let parent = heap.alloc(c, 1, 0).unwrap();
        let child = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(parent, 0, child).unwrap();
        heap.set_ref_field(parent, 0, ObjRef::NULL).unwrap();
        heap.set_flag(parent, Flags::MARK).unwrap();
        assert!(tricolor_violations(&heap, Flags::empty()).is_empty());
    }

    #[test]
    fn forwarding_totality_catches_both_directions() {
        let mut heap = Heap::with_space(SpaceKind::Semispace);
        let c = heap.register_class("T", &[]);
        let a = heap.alloc(c, 0, 0).unwrap();
        let b = heap.alloc(c, 0, 0).unwrap();
        heap.evac_begin();
        // Marked but not forwarded: the seeded-bug shape.
        heap.set_flag(a, Flags::MARK).unwrap();
        let problems = forwarding_totality_violations(&heap);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("no forwarding address"));
        // Forward it; now clean (b is unmarked and unforwarded).
        heap.evac_forward(a).unwrap();
        assert!(forwarding_totality_violations(&heap).is_empty());
        // Forwarded but never marked: the opposite corruption.
        heap.evac_forward(b).unwrap();
        let problems = forwarding_totality_violations(&heap);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("was forwarded"));
        heap.set_flag(b, Flags::MARK).unwrap();
        heap.evac_finish();
    }
}
