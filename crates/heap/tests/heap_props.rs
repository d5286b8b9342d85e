//! Property-based tests for the BiBOP heap.
//!
//! Drives the heap through random interleavings of alloc / free / field
//! writes and checks the core invariants against a shadow model:
//!
//! * live-object count and occupied-word accounting stay exact,
//! * freed handles are permanently stale, live handles always resolve,
//! * slot reuse never lets a stale handle observe the new occupant,
//! * field writes are only visible through the written object,
//! * the page-table structural invariants (`Heap::verify`) hold after
//!   arbitrary churn,
//! * reclaiming a page's dead slots in bulk (`Heap::reclaim_page`) leaves
//!   the heap exactly where freeing them one by one does.

use gca_heap::{Flags, Heap, HeapError, ObjRef, SpaceKind, HEADER_WORDS, LOS_THRESHOLD};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Alloc {
        nrefs: usize,
        data: usize,
    },
    Free {
        victim: usize,
    },
    Write {
        obj: usize,
        field: usize,
        val: usize,
    },
    SetFlag {
        obj: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..6, 0usize..16).prop_map(|(nrefs, data)| Op::Alloc { nrefs, data }),
        (0usize..64).prop_map(|victim| Op::Free { victim }),
        (0usize..64, 0usize..6, 0usize..64).prop_map(|(obj, field, val)| Op::Write {
            obj,
            field,
            val
        }),
        (0usize..64).prop_map(|obj| Op::SetFlag { obj }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn heap_invariants_hold(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut heap = Heap::new();
        let class = heap.register_class("P", &[]);

        // Shadow model: live handles and their expected (nrefs, data) shape.
        let mut live: Vec<ObjRef> = Vec::new();
        let mut shape: HashMap<ObjRef, (usize, usize)> = HashMap::new();
        let mut dead: Vec<ObjRef> = Vec::new();
        let mut expected_words = 0usize;

        for op in ops {
            match op {
                Op::Alloc { nrefs, data } => {
                    let r = heap.alloc(class, nrefs, data).unwrap();
                    prop_assert!(heap.is_valid(r));
                    expected_words += gca_heap::HEADER_WORDS + nrefs + data;
                    live.push(r);
                    shape.insert(r, (nrefs, data));
                }
                Op::Free { victim } => {
                    if live.is_empty() { continue; }
                    let r = live.remove(victim % live.len());
                    let (nrefs, data) = shape.remove(&r).unwrap();
                    let words = heap.free(r).unwrap();
                    prop_assert_eq!(words, gca_heap::HEADER_WORDS + nrefs + data);
                    expected_words -= words;
                    dead.push(r);
                }
                Op::Write { obj, field, val } => {
                    if live.is_empty() { continue; }
                    let o = live[obj % live.len()];
                    let v = live[val % live.len()];
                    let (nrefs, _) = shape[&o];
                    let res = heap.set_ref_field(o, field, v);
                    if field < nrefs {
                        prop_assert!(res.is_ok());
                        prop_assert_eq!(heap.ref_field(o, field).unwrap(), v);
                    } else {
                        let oob = matches!(res, Err(HeapError::FieldOutOfBounds { .. }));
                        prop_assert!(oob);
                    }
                }
                Op::SetFlag { obj } => {
                    if live.is_empty() { continue; }
                    let o = live[obj % live.len()];
                    heap.set_flag(o, Flags::UNSHARED).unwrap();
                    prop_assert!(heap.has_flag(o, Flags::UNSHARED).unwrap());
                }
            }

            // Global invariants after every operation.
            prop_assert_eq!(heap.live_objects(), live.len());
            prop_assert_eq!(heap.occupied_words(), expected_words);
            for &r in &dead {
                prop_assert!(!heap.is_valid(r), "freed handle {r} still valid");
            }
            for &r in &live {
                prop_assert!(heap.is_valid(r), "live handle {r} went stale");
            }
        }

        // The iterator agrees with the model exactly.
        let mut from_iter: Vec<ObjRef> = heap.iter().map(|(r, _)| r).collect();
        let mut expected: Vec<ObjRef> = live.clone();
        from_iter.sort();
        expected.sort();
        prop_assert_eq!(from_iter, expected);

        // Structural invariants survive arbitrary churn. (Manual frees may
        // leave dangling fields behind, which verify reports; everything
        // else must be clean.)
        let problems = heap.verify();
        for p in &problems {
            prop_assert!(p.contains("dangling"), "unexpected problem: {}", p);
        }
    }

    #[test]
    fn alloc_free_alloc_reuses_slots_without_growth(n in 1usize..60) {
        let mut heap = Heap::new();
        let class = heap.register_class("Q", &[]);
        let first: Vec<ObjRef> = (0..n).map(|_| heap.alloc(class, 1, 1).unwrap()).collect();
        let peak_pages = heap.page_count();
        for r in &first {
            heap.free(*r).unwrap();
        }
        let second: Vec<ObjRef> = (0..n).map(|_| heap.alloc(class, 1, 1).unwrap()).collect();
        // Same-class churn must recycle pages: the BiBOP table reuses
        // every vacated slot before opening a new page.
        prop_assert_eq!(heap.page_count(), peak_pages);
        prop_assert_eq!(heap.index_bound(), peak_pages * gca_heap::PAGE_SLOTS);
        for r in &first {
            prop_assert!(!heap.is_valid(*r));
        }
        for r in &second {
            prop_assert!(heap.is_valid(*r));
        }
    }
}

/// A random object shape: all seven size classes and the large object
/// space come up.
fn random_shape(rng: &mut SmallRng) -> (usize, usize) {
    let words = match rng.gen_range(0..9) {
        8 => rng.gen_range(LOS_THRESHOLD + 1..LOS_THRESHOLD * 2),
        class => rng.gen_range(HEADER_WORDS..=4 << class),
    };
    let nrefs = rng.gen_range(0..=(words - HEADER_WORDS).min(3));
    (nrefs, words - HEADER_WORDS - nrefs)
}

const ALL_FLAGS: [Flags; 9] = [
    Flags::MARK,
    Flags::DEAD,
    Flags::UNSHARED,
    Flags::OWNEE,
    Flags::OWNED,
    Flags::REPORTED,
    Flags::OWNER,
    Flags::OLD,
    Flags::REMEMBERED,
];

/// Replays one seeded alloc / flag / free history on a fresh heap.
fn churned_heap(seed: u64, kind: SpaceKind) -> Heap {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut heap = Heap::with_space(kind);
    let class = heap.register_class("B", &[]);
    let mut live: Vec<ObjRef> = Vec::new();
    for _ in 0..rng.gen_range(200..900) {
        match rng.gen_range(0..10) {
            0..=5 => {
                let (nrefs, data) = random_shape(&mut rng);
                live.push(heap.alloc(class, nrefs, data).unwrap());
            }
            6..=7 if !live.is_empty() => {
                let o = live[rng.gen_range(0..live.len())];
                let flag = ALL_FLAGS[rng.gen_range(0..9)] | ALL_FLAGS[rng.gen_range(0..9)];
                heap.set_flag(o, flag).unwrap();
            }
            _ if !live.is_empty() => {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                heap.free(victim).unwrap();
            }
            _ => {}
        }
    }
    heap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Twin heaps with the same history; per page a random dead mask goes
    /// in one `reclaim_page` on one and through per-object `free` in
    /// ascending slot order on the other. Everything observable must agree
    /// — down to the handles the next allocations mint, which pins the
    /// avail-stack order the benchmark's golden counters depend on.
    #[test]
    fn bulk_reclaim_equals_per_object_frees(seed in any::<u64>(), semispace in any::<bool>()) {
        let kind = if semispace { SpaceKind::Semispace } else { SpaceKind::Paged };
        let mut bulk = churned_heap(seed, kind);
        let mut single = churned_heap(seed, kind);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        for pid in 0..bulk.page_count() {
            // Bits outside the live mask must be ignored.
            let mask = match rng.gen_range(0..4) {
                0 => u64::MAX,
                1 => 0,
                _ => rng.gen::<u64>(),
            };
            let victims: Vec<ObjRef> = (0..64)
                .filter(|slot| mask >> slot & 1 != 0)
                .filter_map(|slot| single.page_meta(pid).handle(slot))
                .collect();
            let mut freed = (0, 0);
            for &v in &victims {
                freed = (freed.0 + 1, freed.1 + single.free(v).unwrap());
            }
            prop_assert_eq!(bulk.reclaim_page(pid, mask), freed);
            for &v in &victims {
                prop_assert!(!bulk.is_valid(v), "{} survived a bulk reclaim", v);
            }
        }
        let handles = |heap: &Heap| -> Vec<(ObjRef, Flags)> {
            heap.iter().map(|(r, _)| (r, heap.flags_of(r).unwrap())).collect()
        };
        prop_assert_eq!(handles(&bulk), handles(&single));
        prop_assert_eq!(bulk.verify(), Vec::<String>::new());
        prop_assert_eq!(single.verify(), Vec::<String>::new());
        prop_assert_eq!(bulk.stats(), single.stats());
        prop_assert_eq!(bulk.live_objects(), single.live_objects());
        prop_assert_eq!(bulk.occupied_words(), single.occupied_words());
        let class = bulk.registry().lookup("B").unwrap();
        for _ in 0..256 {
            let (nrefs, data) = random_shape(&mut rng);
            let a = bulk.alloc(class, nrefs, data).unwrap();
            let b = single.alloc(class, nrefs, data).unwrap();
            prop_assert_eq!(a, b, "allocation order diverged");
            prop_assert!(bulk.flags_of(a).unwrap().is_empty(), "flags leaked to a new tenant");
        }
        prop_assert_eq!(bulk.verify(), Vec::<String>::new());
    }
}
