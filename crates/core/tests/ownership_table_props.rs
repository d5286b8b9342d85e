//! Differential test of the slot-keyed ownership table: seeded random
//! histories of `assert_owned_by` / `release_ownee` / dropped roots /
//! collections run against a `HashMap` reference model kept here, under a
//! budget tight enough that freed slots are reused all the time.
//!
//! The invariant under test is the one the table relies on instead of
//! sorted ownee arrays (see `crates/core/src/ownership.rs`): outside a
//! collection, a live object carries `OWNEE` / `OWNER` exactly if it is
//! registered in that role, and nothing is registered for a dead object —
//! so a reused slot's new tenant is never credited to the previous
//! tenant's owner.

use std::collections::{HashMap, HashSet};

use gc_assertions::{
    CollectorKind, Flags, ObjRef, ViolationKind, Vm, VmConfig, VmConfigBuilder, VmError,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const FIELDS: usize = 3;

/// One step of a history. Objects are named by allocation ordinal, so the
/// same history replays on every engine; an ordinal whose object has died
/// yields a stale handle.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Allocate; root it, or store it into `parent.field`.
    Alloc {
        parent: Option<(usize, usize)>,
    },
    /// Allocate into `owner.field` and assert the new object owned by it.
    AllocOwned {
        owner: usize,
        field: usize,
    },
    Link {
        from: usize,
        field: usize,
        to: Option<usize>,
    },
    Unroot {
        obj: usize,
    },
    /// `None` is the null handle.
    Own {
        owner: Option<usize>,
        ownee: Option<usize>,
    },
    Release {
        ownee: usize,
    },
    Collect,
    Minor,
}

fn history(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut allocated = 0usize;
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        let any = |rng: &mut SmallRng| rng.gen_range(0..allocated);
        // Biased to recent ordinals, which are the likely-live ones.
        let recent = |rng: &mut SmallRng| allocated - 1 - rng.gen_range(0..allocated.min(24));
        let op = match rng.gen_range(0..100) {
            _ if allocated < 4 => Op::Alloc { parent: None },
            0..=14 => Op::Alloc { parent: None },
            15..=24 => Op::Alloc {
                parent: Some((recent(&mut rng), rng.gen_range(0..FIELDS))),
            },
            25..=44 => Op::AllocOwned {
                owner: recent(&mut rng),
                field: rng.gen_range(0..FIELDS),
            },
            45..=54 => Op::Link {
                from: recent(&mut rng),
                field: rng.gen_range(0..FIELDS),
                to: rng.gen_bool(0.7).then(|| recent(&mut rng)),
            },
            55..=66 => Op::Unroot {
                obj: recent(&mut rng),
            },
            // Fresh pairs, repeats, moves, all three conflicts, and stale
            // or null handles on either side.
            67..=80 => {
                let pick = |rng: &mut SmallRng| match rng.gen_range(0..10) {
                    0 => None,
                    1..=2 => Some(any(rng)),
                    _ => Some(recent(rng)),
                };
                let owner = pick(&mut rng);
                let ownee = if rng.gen_range(0..12) == 0 {
                    owner
                } else {
                    pick(&mut rng)
                };
                Op::Own { owner, ownee }
            }
            81..=86 => Op::Release {
                ownee: if rng.gen_bool(0.8) {
                    recent(&mut rng)
                } else {
                    any(&mut rng)
                },
            },
            87..=93 => Op::Collect,
            _ => Op::Minor,
        };
        if matches!(op, Op::Alloc { .. } | Op::AllocOwned { .. }) {
            allocated += 1;
        }
        ops.push(op);
    }
    ops
}

/// The reference model: who owns whom, by handle.
#[derive(Default)]
struct Model {
    owners: HashSet<ObjRef>,
    owner_of: HashMap<ObjRef, ObjRef>,
}

impl Model {
    /// What `assert_owned_by(owner, ownee)` must do, applied to the model:
    /// `Ok` on success, `Err(is_conflict)` on a rejection.
    fn own(&mut self, vm: &Vm, owner: ObjRef, ownee: ObjRef) -> Result<(), bool> {
        if owner == ownee {
            return Err(true);
        }
        if !vm.is_live(owner) || !vm.is_live(ownee) {
            return Err(false);
        }
        if self.owner_of.contains_key(&owner) || self.owners.contains(&ownee) {
            return Err(true);
        }
        self.owners.insert(owner);
        self.owner_of.insert(ownee, owner);
        Ok(())
    }

    /// Forgets what the last step's collections (if any) reclaimed,
    /// returning the live ownees that outlived their owner.
    fn prune(&mut self, vm: &Vm) -> Vec<ObjRef> {
        self.owners.retain(|&o| vm.is_live(o));
        let mut outlived = Vec::new();
        self.owner_of.retain(|&ownee, owner| {
            let keep = vm.is_live(ownee) && vm.is_live(*owner);
            if !keep && vm.is_live(ownee) {
                outlived.push(ownee);
            }
            keep
        });
        outlived
    }
}

/// A violation reduced to what every engine must agree on, objects named
/// by allocation ordinal.
type Key = (&'static str, usize, Option<usize>);

struct Run {
    /// Per step, the violations it logged, in order.
    log: Vec<Vec<Key>>,
    /// Allocations that landed in a slot a dead object had used.
    reused_slots: usize,
}

fn run(config: VmConfigBuilder, ops: &[Op]) -> Run {
    let config = config.build();
    let strict = config.strict_owner_lifetime;
    let mut vm = Vm::new(config);
    let class = vm.register_class("Node", &["a", "b", "c"]);
    let m = vm.main();
    let mut model = Model::default();
    let mut objs: Vec<ObjRef> = Vec::new();
    let mut ordinal: HashMap<ObjRef, usize> = HashMap::new();
    let mut root_slot: HashMap<usize, usize> = HashMap::new();
    let mut used_slots: HashSet<u32> = HashSet::new();
    let mut out = Run {
        log: Vec::new(),
        reused_slots: 0,
    };

    for (step, &op) in ops.iter().enumerate() {
        let handle = |i: Option<usize>| i.map_or(ObjRef::NULL, |i| objs[i]);
        let mut born = None;
        match op {
            Op::Alloc { parent } => {
                let obj = vm.alloc(m, class, FIELDS, 1).unwrap();
                match parent {
                    Some((p, f)) if vm.is_live(objs[p]) => {
                        vm.set_field(objs[p], f, obj).unwrap();
                    }
                    _ => {
                        root_slot.insert(objs.len(), vm.add_root(m, obj).unwrap());
                    }
                }
                born = Some(obj);
            }
            Op::AllocOwned { owner, field } => {
                let obj = vm.alloc(m, class, FIELDS, 1).unwrap();
                let owner = objs[owner];
                if vm.is_live(owner) {
                    vm.set_field(owner, field, obj).unwrap();
                } else {
                    root_slot.insert(objs.len(), vm.add_root(m, obj).unwrap());
                }
                let expected = model.own(&vm, owner, obj);
                assert_eq!(
                    vm.assert_owned_by(owner, obj).is_ok(),
                    expected.is_ok(),
                    "step {step}: {op:?}"
                );
                born = Some(obj);
            }
            Op::Link { from, field, to } => {
                let (from, to) = (objs[from], handle(to));
                if vm.is_live(from) && (to.is_null() || vm.is_live(to)) {
                    vm.set_field(from, field, to).unwrap();
                }
            }
            Op::Unroot { obj } => {
                if let Some(slot) = root_slot.remove(&obj) {
                    vm.set_root(m, slot, ObjRef::NULL).unwrap();
                }
            }
            Op::Own { owner, ownee } => {
                let (owner, ownee) = (handle(owner), handle(ownee));
                let expected = model.own(&vm, owner, ownee);
                match (vm.assert_owned_by(owner, ownee), expected) {
                    (Ok(()), Ok(())) => {}
                    (Err(VmError::OwnershipConflict(_)), Err(true)) => {}
                    (Err(VmError::Heap(_)), Err(false)) => {}
                    (got, want) => panic!("step {step}: {op:?}: got {got:?}, model {want:?}"),
                }
            }
            Op::Release { ownee } => {
                let ownee = objs[ownee];
                let expected = model.owner_of.remove(&ownee).is_some();
                assert_eq!(
                    vm.release_ownee(ownee).unwrap(),
                    expected,
                    "step {step}: {op:?}"
                );
            }
            Op::Collect => {
                vm.collect().unwrap();
                assert_eq!(vm.heap().verify(), Vec::<String>::new(), "step {step}");
            }
            Op::Minor => {
                vm.collect_minor().unwrap();
            }
        }
        if let Some(obj) = born {
            if !used_slots.insert(obj.index()) {
                out.reused_slots += 1;
            }
            ordinal.insert(obj, objs.len());
            objs.push(obj);
        }

        // The step's violations, checked against the model *before* it
        // forgets the pairs this step's collections retired.
        let violations = vm.take_violation_log();
        let mut outlived_reported = Vec::new();
        let mut keys = Vec::new();
        for v in &violations {
            keys.push(match &v.kind {
                ViolationKind::NotOwned { ownee, owner, .. } => {
                    assert_eq!(
                        model.owner_of.get(ownee),
                        Some(owner),
                        "step {step}: {v:?} names another owner than the model's"
                    );
                    ("not-owned", ordinal[ownee], Some(ordinal[owner]))
                }
                ViolationKind::ImproperOwnership {
                    ownee,
                    scanned_owner,
                    ..
                } => {
                    assert!(model.owners.contains(scanned_owner), "step {step}: {v:?}");
                    assert!(
                        model
                            .owner_of
                            .get(ownee)
                            .is_some_and(|o| o != scanned_owner),
                        "step {step}: {v:?}"
                    );
                    ("improper", ordinal[ownee], Some(ordinal[scanned_owner]))
                }
                ViolationKind::OwneeOutlivedOwner { ownee, .. } => {
                    assert!(
                        strict && model.owner_of.get(ownee).is_some_and(|&o| !vm.is_live(o)),
                        "step {step}: {v:?}"
                    );
                    outlived_reported.push(*ownee);
                    ("outlived", ordinal[ownee], None)
                }
                other => panic!("step {step}: unexpected {other:?}"),
            });
        }
        out.log.push(keys);

        // (A step that collects twice may report an ownee that outlived
        // its owner in the first cycle and died in the second.)
        for ownee in model.prune(&vm) {
            assert!(
                !strict || outlived_reported.contains(&ownee),
                "step {step}: {ownee} outlived its owner unreported"
            );
        }

        // Table ⇔ model ⇔ header bits.
        assert_eq!(vm.owner_count(), model.owners.len(), "step {step}: {op:?}");
        assert_eq!(
            vm.ownee_count(),
            model.owner_of.len(),
            "step {step}: {op:?}"
        );
        for &obj in objs.iter().filter(|&&o| vm.is_live(o)) {
            let flags = vm.heap().flags_of(obj).unwrap();
            assert_eq!(
                (flags.contains(Flags::OWNER), flags.contains(Flags::OWNEE)),
                (
                    model.owners.contains(&obj),
                    model.owner_of.contains_key(&obj)
                ),
                "step {step}: {op:?}: role bits of {obj}"
            );
        }
    }
    out
}

fn tight() -> VmConfigBuilder {
    VmConfig::builder()
        .heap_budget(400)
        .grow_on_oom(true)
        .report_once(false)
}

#[test]
fn table_agrees_with_a_hashmap_model_on_every_engine() {
    let mut reused = 0;
    for seed in 0..24 {
        let ops = history(0x0b5e_55ed ^ seed, 500);
        let strict = seed % 2 == 0;
        let base = || tight().strict_owner_lifetime(strict);
        let mark_sweep = run(base(), &ops);
        let copying = run(base().collector(CollectorKind::Copying), &ops);
        let parallel = run(base().gc_threads(2), &ops);
        // The root scan reaches its uncredited ownees in an order of the
        // engine's own (LIFO, Cheney, sharded); what the ownership phase
        // and the table's retirement report comes in one order on all.
        let by_phase = |keys: &[Key]| {
            let (mut root_scan, table): (Vec<Key>, Vec<Key>) =
                keys.iter().partition(|k| k.0 == "not-owned");
            root_scan.sort();
            (table, root_scan)
        };
        for (step, want) in mark_sweep.log.iter().enumerate() {
            for (engine, other) in [("copying", &copying), ("parallel", &parallel)] {
                assert_eq!(
                    by_phase(&other.log[step]),
                    by_phase(want),
                    "seed {seed}, step {step}: {engine}"
                );
            }
        }
        assert!(
            mark_sweep.log.iter().any(|step| !step.is_empty()),
            "seed {seed}: a history without a single violation tests little"
        );
        // Minor collections retire pairs too (and report under `strict`).
        let generational = run(base().generational(3), &ops);
        reused += mark_sweep.reused_slots + generational.reused_slots;
    }
    assert!(reused > 1000, "slot reuse was not exercised ({reused})");
}

/// What `strict_owner_lifetime` reports when two owners die in one cycle:
/// owners in sweep (ascending slot) order whatever their registration
/// order, each owner's surviving ownees in ascending slot order whatever
/// *their* registration order.
#[test]
fn two_dead_owners_report_in_sweep_order_ownees_in_slot_order() {
    for config in [
        VmConfig::builder(),
        VmConfig::builder().collector(CollectorKind::Copying),
        VmConfig::builder().gc_threads(2),
    ] {
        let mut vm = Vm::new(config.strict_owner_lifetime(true).build());
        let first = vm.register_class("First", &["x"]);
        let second = vm.register_class("Second", &["x"]);
        let elem = vm.register_class("Elem", &[]);
        let keeper_cls = vm.register_class("Keeper", &["a", "b", "c", "d", "e"]);
        let m = vm.main();
        let o1 = vm.alloc(m, first, 1, 0).unwrap();
        let s1 = vm.add_root(m, o1).unwrap();
        let o2 = vm.alloc(m, second, 1, 0).unwrap();
        let s2 = vm.add_root(m, o2).unwrap();
        let keeper = vm.alloc_rooted(m, keeper_cls, 5, 0).unwrap();
        let e: Vec<ObjRef> = (0..5)
            .map(|i| {
                let e = vm.alloc(m, elem, 0, 0).unwrap();
                vm.set_field(keeper, i, e).unwrap();
                e
            })
            .collect();
        assert!(e.windows(2).all(|w| w[0].index() < w[1].index()));
        // The later-allocated owner registers first; ownees out of order.
        vm.assert_owned_by(o2, e[4]).unwrap();
        vm.assert_owned_by(o2, e[1]).unwrap();
        vm.assert_owned_by(o1, e[3]).unwrap();
        vm.assert_owned_by(o1, e[0]).unwrap();
        vm.assert_owned_by(o1, e[2]).unwrap();
        vm.set_field(o1, 0, e[0]).unwrap();
        vm.set_field(o2, 0, e[1]).unwrap();
        vm.release_ownee(e[2]).unwrap();

        vm.set_root(m, s1, ObjRef::NULL).unwrap();
        vm.set_root(m, s2, ObjRef::NULL).unwrap();
        let report = vm.collect().unwrap();
        let outlived: Vec<(ObjRef, &str)> = report
            .violations
            .iter()
            .filter_map(|v| match &v.kind {
                ViolationKind::OwneeOutlivedOwner {
                    ownee, owner_class, ..
                } => Some((*ownee, owner_class.as_str())),
                _ => None,
            })
            .collect();
        assert_eq!(
            outlived,
            [
                (e[0], "First"),
                (e[3], "First"),
                (e[1], "Second"),
                (e[4], "Second")
            ],
            "{report}"
        );
        assert_eq!((vm.owner_count(), vm.ownee_count()), (0, 0));
        for &e in &e {
            assert!(!vm.heap().has_flag(e, Flags::OWNEE).unwrap());
        }
    }
}
