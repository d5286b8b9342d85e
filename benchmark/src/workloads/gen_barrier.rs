//! `gen_barrier`: the write side of the heap. Generational mode with card
//! marking, a large old generation, a stream dominated by `set_field`s
//! from old objects to young and to old ones, steady nursery churn, and one
//! planted `assert_dead` leak.
//!
//! Minor collections check no assertions, so the leak is first reported by
//! the first *major* collection after the plant — the detection delay the
//! paper's §2.2 warns about and Ablation E measures.

use gc_assertions::{ObjRef, ViolationKind, VmError};

use super::{config, Driver, Leg, Prepared, Rep, Scale, FANOUT};
use crate::rng::Rng;
use crate::trace::{Layer, Trace};

/// A major collection is forced after this many minors.
const MAJOR_EVERY: usize = 16;
/// Old-generation objects at full scale.
const FULL_OLD: usize = 40_000;
/// Mutator ops after the build, per old object.
const OPS_PER_OLD: usize = 40;
/// Ops per timed segment (about 5 ms of work).
const SEGMENT_OPS: u64 = 40_000;
/// One nursery allocation in this many becomes the object that old objects
/// are made to point at; the rest die young.
const CANDIDATE_EVERY: usize = 256;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Allocate a young object; `true` makes it the current store target.
    Young(bool),
    /// `old[src].field = current young target`.
    OldToYoung { src: u32, field: u8 },
    /// `old[src].field = old[dst]`.
    OldToOld { src: u32, field: u8, dst: u32 },
}

/// The generated inputs.
#[derive(Debug)]
pub struct GenBarrier {
    old: usize,
    ops: Vec<Op>,
}

/// Generates the op stream from the seed.
pub fn prepare(seed: u64, scale: Scale) -> Box<dyn Prepared> {
    let mut rng = Rng::new(seed, 0x6e4b);
    let old = scale.of(FULL_OLD, 2_000);
    let mut youngs = 0usize;
    let ops = (0..old * OPS_PER_OLD)
        .map(|_| match rng.below(10) {
            0..=3 => {
                youngs += 1;
                Op::Young(youngs % CANDIDATE_EVERY == 1)
            }
            4..=7 => Op::OldToYoung {
                src: rng.below(old) as u32,
                field: rng.below(2) as u8,
            },
            _ => Op::OldToOld {
                src: rng.below(old) as u32,
                field: rng.below(2) as u8,
                dst: rng.below(old) as u32,
            },
        })
        .collect();
    Box::new(GenBarrier { old, ops })
}

/// What the leak's detection looked like.
#[derive(Debug, Default)]
struct Detection {
    cycles: u64,
    majors: u64,
}

impl GenBarrier {
    /// Old objects are 7 words and sit under 256-word blocks; the budget
    /// keeps them near 60% of the heap, below the 75% occupancy at which a
    /// minor collection escalates to a major one.
    fn budget(&self) -> usize {
        let old_words = self.old * 7 + self.old.div_ceil(FANOUT) * 256;
        old_words * 5 / 3
    }

    fn body(&self, d: &mut Driver<'_>, assertions: bool) -> Result<Option<Detection>, VmError> {
        d.trace().enter("build", Layer::Workloads);
        let block_class = d.class("Block", &[]);
        let old_class = d.class("Old", &["a", "b", "pin"]);
        let young_class = d.class("Young", &["next"]);
        let mut old = Vec::with_capacity(self.old);
        let mut block = ObjRef::NULL;
        for i in 0..self.old {
            if i % FANOUT == 0 {
                block = d.alloc(block_class, FANOUT, 0)?;
                d.add_root(block)?;
            }
            let o = d.alloc(old_class, 3, 2)?;
            d.set_field(block, i % FANOUT, o)?;
            old.push(o);
        }
        // The current store target lives in a root slot of its own.
        let first = d.alloc(young_class, 1, 4)?;
        let target_slot = d.add_root(first)?;
        let mut target = first;
        // A major collection promotes everything built so far.
        d.collect()?;
        d.trace().exit();

        // The planted leak: the program says `leaked` is dead, but an old
        // holder still points at it through a field the stream never writes.
        let leaked = d.alloc(young_class, 1, 4)?;
        d.set_field(old[0], 2, leaked)?;
        if assertions {
            d.assert(|vm, _| vm.assert_dead(leaked))?;
        }
        let planted_at = (
            d.vm.collections() + d.vm.minor_collections(),
            d.vm.collections(),
        );
        let mut detection = None;

        d.trace().enter("mutate", Layer::Workloads);
        for &op in &self.ops {
            match op {
                Op::Young(candidate) => {
                    let y = d.alloc(young_class, 1, 4)?;
                    if candidate {
                        d.set_root(target_slot, y)?;
                        target = y;
                    }
                    if detection.is_none() && !d.vm.violation_log().is_empty() {
                        detection = Some(Detection {
                            cycles: d.vm.collections() + d.vm.minor_collections() - planted_at.0,
                            majors: d.vm.collections() - planted_at.1,
                        });
                    }
                }
                Op::OldToYoung { src, field } => {
                    d.set_field(old[src as usize], field as usize, target)?
                }
                Op::OldToOld { src, field, dst } => {
                    d.set_field(old[src as usize], field as usize, old[dst as usize])?
                }
            }
        }
        d.trace().exit();
        Ok(detection)
    }
}

impl Prepared for GenBarrier {
    fn rep(&self, leg: Leg, tr: &mut Trace) -> Rep {
        let mut rep = Rep::default();
        let cfg = leg.apply(config(self.budget()).generational(MAJOR_EVERY));
        let mut d = Driver::new(cfg, SEGMENT_OPS, tr);
        let detection = d
            .run_timed(&mut rep, |d, _| self.body(d, !leg.base()))
            .flatten();
        if !leg.base() {
            // Exactly the planted leak, reported once, by the first major
            // collection after the plant and not before.
            let log = d.vm.violation_log();
            rep.checks.check(
                log.len() == 1 && matches!(log[0].kind, ViolationKind::DeadReachable { .. }),
                || {
                    format!(
                        "expected the one planted dead-reachable report, got {}",
                        log.len()
                    )
                },
            );
            rep.checks
                .check(detection.as_ref().is_some_and(|x| x.majors == 1), || {
                    format!("leak not first reported by the first major collection: {detection:?}")
                });
            rep.counters
                .add("core.detect_cycles", detection.map_or(0, |x| x.cycles));
            rep.counters.add("core.violations.count", log.len() as u64);
        }
        rep.checks.check(d.vm.heap_budget() == self.budget(), || {
            format!("budget grew to {} words", d.vm.heap_budget())
        });
        if d.vm.config().telemetry {
            let t = d.vm.telemetry();
            let minors = t
                .records()
                .iter()
                .filter(|r| r.kind == gc_assertions::CycleKind::Minor);
            let (mut promoted, mut marked) = (0, 0);
            for r in minors {
                promoted += r.promoted;
                marked += r.objects_marked;
            }
            rep.counters.add("telemetry.minor.promoted", promoted);
            rep.counters.add("telemetry.minor.objects_marked", marked);
        }
        d.finish(&mut rep);
        rep
    }
}
