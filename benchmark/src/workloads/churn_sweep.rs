//! `churn_sweep`: short-lived objects of every size class under a tight
//! heap budget. The live set is a small ring of rooted survivors, so each
//! collection marks a few hundred objects and sweeps thousands: the heap's
//! allocation path and the collector's sweep do nearly all the work.

use gc_assertions::{ObjRef, VmError};
use gca_heap::{HEADER_WORDS, LOS_THRESHOLD, SIZE_CLASSES};

use super::{config, Driver, Leg, Prepared, Rep, Scale};
use crate::rng::Rng;
use crate::trace::{Layer, Trace};

/// Rooted survivor slots.
const RING: usize = 256;
/// Heap budget in words: room for the ring plus a few thousand temporaries.
const BUDGET_WORDS: usize = 48 * 1024;
/// Ops per timed segment (about 5 ms of work).
const SEGMENT_OPS: u64 = 40_000;
/// Allocations per rep at full scale.
const FULL_ALLOCS: usize = 1_800_000;

/// One allocation of the stream and what happens to the object.
#[derive(Debug, Clone, Copy)]
struct ChurnOp {
    nrefs: u16,
    data: u16,
    fate: Fate,
}

#[derive(Debug, Clone, Copy)]
enum Fate {
    /// Dropped at once: garbage at the next collection.
    Temp,
    /// Replaces the survivor in this ring slot.
    Survive(u16),
    /// Hung off the survivor in this ring slot (field 0) until the next
    /// object takes its place.
    Hang(u16),
}

/// The generated op stream.
#[derive(Debug)]
pub struct ChurnSweep {
    ops: Vec<ChurnOp>,
}

/// Generates the stream from the seed.
pub fn prepare(seed: u64, scale: Scale) -> Box<dyn Prepared> {
    let mut rng = Rng::new(seed, 0xc4a2);
    // Small classes dominate, as in real allocation profiles; one object in
    // fifty goes to the large-object space.
    const WEIGHTS: [usize; 8] = [30, 24, 18, 12, 7, 4, 3, 2];
    let total: usize = WEIGHTS.iter().sum();
    let ops = (0..scale.of(FULL_ALLOCS, 5_000))
        .map(|_| {
            let mut pick = rng.below(total);
            let class = WEIGHTS
                .iter()
                .position(|&w| {
                    if pick < w {
                        true
                    } else {
                        pick -= w;
                        false
                    }
                })
                .expect("pick is below the weight total");
            // Total words: anywhere inside the class's range.
            let words = match class {
                0 => rng.between(HEADER_WORDS + 1, SIZE_CLASSES[0]),
                c if c < SIZE_CLASSES.len() => {
                    rng.between(SIZE_CLASSES[c - 1] + 1, SIZE_CLASSES[c])
                }
                _ => rng.between(LOS_THRESHOLD + 1, LOS_THRESHOLD * 3),
            };
            let payload = words - HEADER_WORDS;
            let nrefs = rng.between(1, payload.min(3));
            let fate = match rng.below(64) {
                0 => Fate::Survive(rng.below(RING) as u16),
                1..=4 => Fate::Hang(rng.below(RING) as u16),
                _ => Fate::Temp,
            };
            ChurnOp {
                nrefs: nrefs as u16,
                data: (payload - nrefs) as u16,
                fate,
            }
        })
        .collect();
    Box::new(ChurnSweep { ops })
}

impl ChurnSweep {
    fn body(&self, d: &mut Driver<'_>) -> Result<(), VmError> {
        d.trace().enter("churn", Layer::Workloads);
        let class = d.class("Churn", &["hang"]);
        let mut ring = [ObjRef::NULL; RING];
        for (slot, r) in ring.iter_mut().enumerate() {
            *r = d.alloc(class, 1, 2)?;
            let at = d.add_root(*r)?;
            debug_assert_eq!(at, slot);
        }
        for op in &self.ops {
            let r = d.alloc(class, op.nrefs as usize, op.data as usize)?;
            match op.fate {
                Fate::Temp => {}
                Fate::Survive(slot) => {
                    d.set_root(slot as usize, r)?;
                    ring[slot as usize] = r;
                }
                Fate::Hang(slot) => d.set_field(ring[slot as usize], 0, r)?,
            }
        }
        d.trace().exit();
        // A last collection, so the final state is the live set alone.
        d.collect()?;
        Ok(())
    }
}

impl Prepared for ChurnSweep {
    fn rep(&self, leg: Leg, tr: &mut Trace) -> Rep {
        let mut rep = Rep::default();
        let mut d = Driver::new(leg.apply(config(BUDGET_WORDS)), SEGMENT_OPS, tr);
        d.run_timed(&mut rep, |d, _| self.body(d));
        // Nothing is asserted, so nothing may be reported, and the budget
        // must have held: the live set is a sliver of what was allocated.
        rep.checks.check(d.vm.violation_log().is_empty(), || {
            format!(
                "{} violations without assertions",
                d.vm.violation_log().len()
            )
        });
        rep.checks.check(d.vm.heap_budget() == BUDGET_WORDS, || {
            format!("budget grew to {} words", d.vm.heap_budget())
        });
        let live = d.vm.heap().live_objects();
        rep.checks.check(live <= 2 * RING, || {
            format!(
                "{live} objects live at the end; the ring and what hangs off it is at most {}",
                2 * RING
            )
        });
        d.finish(&mut rep);
        rep
    }
}
