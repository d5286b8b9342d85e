//! Synthetic analogues of the paper's benchmark suite (§3.1.1): DaCapo
//! 2006-10-MR2 and SPEC JVM98, plus pseudojbb from [`crate::pseudojbb`].
//!
//! We cannot run Java bytecode, so each benchmark is modelled by a
//! parameterized allocation/mutation kernel whose knobs — allocation
//! volume, object-size mix, survivor rate, structure depth, and container
//! churn — are set to echo the qualitative behaviour the literature
//! reports for that benchmark (e.g. `bloat` is allocation-heavy with deep
//! temporary structures, which is why it shows the worst GC-time overhead
//! in the paper's Figure 3; `compress` allocates few large buffers and
//! barely collects). The figures compare configurations *on the same
//! workload*, so relative overheads are meaningful even though the
//! kernels are synthetic. See DESIGN.md §2 for the substitution argument.

use gc_assertions::{ObjRef, Vm, VmError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::runner::Workload;
use crate::structures::{HArrayList, HBTree, HHashMap};

/// A parameterized allocation/mutation kernel; see the module docs.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    /// Benchmark name.
    pub name: &'static str,
    /// Heap budget in words (≈2× the kernel's minimum live size).
    pub heap_budget: usize,
    /// Outer iterations ("transactions").
    pub iterations: usize,
    /// Temporary objects allocated per iteration.
    pub allocs_per_iter: usize,
    /// Payload words of a small object.
    pub small_data: usize,
    /// Every Nth temporary is a large buffer (0 = never).
    pub large_every: usize,
    /// Payload words of a large buffer.
    pub large_data: usize,
    /// Every Nth temporary survives into the retained set (0 = none).
    pub survivor_every: usize,
    /// Retained-set capacity (FIFO eviction beyond it).
    pub retained_cap: usize,
    /// Depth of the temporary linked chain built each iteration (deep
    /// structures stress the path-tracking worklist).
    pub list_depth: usize,
    /// Hash-map put/remove operations per iteration (long-lived map).
    pub map_ops: usize,
    /// B-tree insert/remove operations per iteration (long-lived tree).
    pub tree_ops: usize,
    /// RNG seed (runs are deterministic).
    pub seed: u64,
}

impl Workload for SyntheticWorkload {
    fn name(&self) -> &str {
        self.name
    }

    fn heap_budget(&self) -> usize {
        self.heap_budget
    }

    fn run(&self, vm: &mut Vm, _assertions: bool) -> Result<(), VmError> {
        let m = vm.main();
        let temp_class = vm.register_class("Temp", &["next"]);
        let buffer_class = vm.register_class("Buffer", &[]);
        let survivor_class = vm.register_class("Survivor", &["link"]);

        // Long-lived structures, rooted for the whole run.
        let retained = HArrayList::new(vm, m, 16)?;
        vm.add_root(m, retained.handle())?;
        let map = HHashMap::new(vm, m, 16)?;
        vm.add_root(m, map.handle())?;
        let tree = HBTree::new(vm, m)?;
        vm.add_root(m, tree.handle())?;

        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut next_key: u64 = 0;
        let mut survivor_cursor: usize = 0;

        for _ in 0..self.iterations {
            vm.push_frame(m)?;

            // Temporary allocation burst: linked chains of `list_depth`,
            // interspersed with large buffers and survivors.
            let mut chain_head = ObjRef::NULL;
            let mut chain_len = 0usize;
            let mut chain_slot: Option<usize> = None;
            for i in 0..self.allocs_per_iter {
                if self.large_every != 0 && i % self.large_every == self.large_every - 1 {
                    vm.alloc(m, buffer_class, 0, self.large_data)?;
                    continue;
                }
                let obj = vm.alloc(m, temp_class, 1, self.small_data)?;
                match chain_slot {
                    // Extend the current chain; one root tracks its head
                    // (the rest of the chain hangs off it).
                    Some(slot) if chain_head.is_some() && chain_len < self.list_depth => {
                        vm.set_field(obj, 0, chain_head)?;
                        chain_head = obj;
                        chain_len += 1;
                        vm.set_root(m, slot, obj)?;
                    }
                    _ => {
                        chain_head = obj;
                        chain_len = 1;
                        chain_slot = Some(vm.add_root(m, obj)?);
                    }
                }

                if self.survivor_every != 0 && i % self.survivor_every == self.survivor_every - 1 {
                    let s = vm.alloc(m, survivor_class, 1, self.small_data)?;
                    // Bounded retained set with O(1) slot replacement
                    // (ring eviction), so long-lived churn does not
                    // dominate mutator time quadratically.
                    let len = retained.len(vm)?;
                    if len < self.retained_cap.max(1) {
                        retained.push(vm, m, s)?;
                    } else {
                        retained.set(vm, survivor_cursor % len, s)?;
                        survivor_cursor = survivor_cursor.wrapping_add(1);
                    }
                }
            }

            // Container churn on the long-lived map and tree.
            for _ in 0..self.map_ops {
                if rng.gen_bool(0.6) || map.is_empty(vm)? {
                    let v = vm.alloc(m, survivor_class, 1, 1)?;
                    map.put(vm, m, next_key, v)?;
                    next_key += 1;
                } else {
                    let k = rng.gen_range(0..next_key.max(1));
                    map.remove(vm, k)?;
                }
            }
            for _ in 0..self.tree_ops {
                if rng.gen_bool(0.6) || tree.is_empty(vm)? {
                    let v = vm.alloc(m, survivor_class, 1, 1)?;
                    tree.insert(vm, m, next_key, v)?;
                    next_key += 1;
                } else {
                    let k = rng.gen_range(0..next_key.max(1));
                    tree.remove(vm, k)?;
                }
            }

            vm.pop_frame(m)?; // temporaries die here
        }
        Ok(())
    }
}

/// Iteration multiplier applied to the base definitions so a measured run
/// lasts long enough (tens of milliseconds) for stable timing; tests and
/// smoke runs scale back down.
const ITER_SCALE: usize = 8;

fn scale_up(mut v: Vec<SyntheticWorkload>) -> Vec<SyntheticWorkload> {
    for w in &mut v {
        w.iterations *= ITER_SCALE;
    }
    v
}

/// The eleven DaCapo 2006 analogues.
pub(crate) fn dacapo() -> Vec<SyntheticWorkload> {
    scale_up(dacapo_base())
}

fn dacapo_base() -> Vec<SyntheticWorkload> {
    vec![
        // antlr: parser generator — bursts of small short-lived objects.
        SyntheticWorkload {
            name: "antlr",
            heap_budget: 60_000,
            iterations: 60,
            allocs_per_iter: 700,
            small_data: 3,
            large_every: 0,
            large_data: 0,
            survivor_every: 40,
            retained_cap: 300,
            list_depth: 24,
            map_ops: 6,
            tree_ops: 0,
            seed: 0xA17A,
        },
        // bloat: bytecode analysis — allocation-heavy with deep temporary
        // structures; the paper's worst case for GC-time overhead.
        SyntheticWorkload {
            name: "bloat",
            heap_budget: 90_000,
            iterations: 70,
            allocs_per_iter: 1_400,
            small_data: 2,
            large_every: 0,
            large_data: 0,
            survivor_every: 25,
            retained_cap: 900,
            list_depth: 220,
            map_ops: 4,
            tree_ops: 0,
            seed: 0xB10A7,
        },
        // chart: plotting — medium churn plus rendering buffers.
        SyntheticWorkload {
            name: "chart",
            heap_budget: 80_000,
            iterations: 50,
            allocs_per_iter: 600,
            small_data: 4,
            large_every: 60,
            large_data: 180,
            survivor_every: 50,
            retained_cap: 250,
            list_depth: 12,
            map_ops: 8,
            tree_ops: 0,
            seed: 0xC4A27,
        },
        // eclipse: IDE — the largest retained set (plugin metadata).
        SyntheticWorkload {
            name: "eclipse",
            heap_budget: 200_000,
            iterations: 60,
            allocs_per_iter: 700,
            small_data: 4,
            large_every: 90,
            large_data: 120,
            survivor_every: 8,
            retained_cap: 4_000,
            list_depth: 30,
            map_ops: 25,
            tree_ops: 10,
            seed: 0xEC11,
        },
        // fop: XSL-FO to PDF — deep formatting trees, short run.
        SyntheticWorkload {
            name: "fop",
            heap_budget: 50_000,
            iterations: 30,
            allocs_per_iter: 800,
            small_data: 3,
            large_every: 120,
            large_data: 90,
            survivor_every: 60,
            retained_cap: 200,
            list_depth: 100,
            map_ops: 4,
            tree_ops: 0,
            seed: 0xF09,
        },
        // hsqldb: in-memory database — high survivor rate into tables.
        SyntheticWorkload {
            name: "hsqldb",
            heap_budget: 160_000,
            iterations: 45,
            allocs_per_iter: 500,
            small_data: 5,
            large_every: 0,
            large_data: 0,
            survivor_every: 4,
            retained_cap: 3_000,
            list_depth: 8,
            map_ops: 30,
            tree_ops: 25,
            seed: 0x45DB,
        },
        // jython: Python on the JVM — extreme small-object churn.
        SyntheticWorkload {
            name: "jython",
            heap_budget: 70_000,
            iterations: 80,
            allocs_per_iter: 1_100,
            small_data: 2,
            large_every: 0,
            large_data: 0,
            survivor_every: 90,
            retained_cap: 250,
            list_depth: 16,
            map_ops: 10,
            tree_ops: 0,
            seed: 0x9170,
        },
        // luindex: text indexing — tree/map insert-heavy.
        SyntheticWorkload {
            name: "luindex",
            heap_budget: 110_000,
            iterations: 45,
            allocs_per_iter: 450,
            small_data: 4,
            large_every: 0,
            large_data: 0,
            survivor_every: 12,
            retained_cap: 1_800,
            list_depth: 10,
            map_ops: 20,
            tree_ops: 35,
            seed: 0x10DE,
        },
        // lusearch: text search — pure churn, almost nothing survives.
        SyntheticWorkload {
            name: "lusearch",
            heap_budget: 60_000,
            iterations: 85,
            allocs_per_iter: 900,
            small_data: 3,
            large_every: 0,
            large_data: 0,
            survivor_every: 0,
            retained_cap: 0,
            list_depth: 10,
            map_ops: 6,
            tree_ops: 0,
            seed: 0x105E,
        },
        // pmd: source-code analysis — deep AST-like chains.
        SyntheticWorkload {
            name: "pmd",
            heap_budget: 80_000,
            iterations: 55,
            allocs_per_iter: 750,
            small_data: 3,
            large_every: 0,
            large_data: 0,
            survivor_every: 35,
            retained_cap: 700,
            list_depth: 130,
            map_ops: 8,
            tree_ops: 0,
            seed: 0x93D,
        },
        // xalan: XSLT — temporary result trees, high churn.
        SyntheticWorkload {
            name: "xalan",
            heap_budget: 90_000,
            iterations: 70,
            allocs_per_iter: 950,
            small_data: 3,
            large_every: 150,
            large_data: 60,
            survivor_every: 70,
            retained_cap: 300,
            list_depth: 45,
            map_ops: 10,
            tree_ops: 0,
            seed: 0xA1A7,
        },
    ]
}

/// The seven SPEC JVM98 analogues (run at the `-s100` scale of §3.1.1,
/// proportionally).
pub(crate) fn specjvm98() -> Vec<SyntheticWorkload> {
    scale_up(specjvm98_base())
}

fn specjvm98_base() -> Vec<SyntheticWorkload> {
    vec![
        // _201_compress: few large buffers, minimal GC activity.
        SyntheticWorkload {
            name: "compress",
            heap_budget: 120_000,
            iterations: 25,
            allocs_per_iter: 60,
            small_data: 4,
            large_every: 4,
            large_data: 700,
            survivor_every: 0,
            retained_cap: 0,
            list_depth: 4,
            map_ops: 0,
            tree_ops: 0,
            seed: 0x201,
        },
        // _202_jess: expert system — very many tiny short-lived facts.
        SyntheticWorkload {
            name: "jess",
            heap_budget: 50_000,
            iterations: 90,
            allocs_per_iter: 900,
            small_data: 1,
            large_every: 0,
            large_data: 0,
            survivor_every: 120,
            retained_cap: 200,
            list_depth: 12,
            map_ops: 6,
            tree_ops: 0,
            seed: 0x202,
        },
        // _209_db: in-memory database — large retained set with address
        // churn. (The assertion-instrumented version lives in crate::db.)
        SyntheticWorkload {
            name: "db",
            heap_budget: 150_000,
            iterations: 50,
            allocs_per_iter: 260,
            small_data: 6,
            large_every: 0,
            large_data: 0,
            survivor_every: 3,
            retained_cap: 3_500,
            list_depth: 6,
            map_ops: 25,
            tree_ops: 0,
            seed: 0x209,
        },
        // _213_javac: compiler — deep ASTs, moderate retention.
        SyntheticWorkload {
            name: "javac",
            heap_budget: 90_000,
            iterations: 55,
            allocs_per_iter: 800,
            small_data: 3,
            large_every: 0,
            large_data: 0,
            survivor_every: 25,
            retained_cap: 1_200,
            list_depth: 110,
            map_ops: 10,
            tree_ops: 5,
            seed: 0x213,
        },
        // _222_mpegaudio: decoder — compute-bound, tiny allocation rate.
        SyntheticWorkload {
            name: "mpegaudio",
            heap_budget: 60_000,
            iterations: 20,
            allocs_per_iter: 40,
            small_data: 8,
            large_every: 8,
            large_data: 260,
            survivor_every: 0,
            retained_cap: 0,
            list_depth: 3,
            map_ops: 0,
            tree_ops: 0,
            seed: 0x222,
        },
        // _227_mtrt: multithreaded raytracer — small scene objects shared
        // across worker "threads".
        SyntheticWorkload {
            name: "mtrt",
            heap_budget: 70_000,
            iterations: 70,
            allocs_per_iter: 850,
            small_data: 2,
            large_every: 0,
            large_data: 0,
            survivor_every: 60,
            retained_cap: 500,
            list_depth: 20,
            map_ops: 4,
            tree_ops: 0,
            seed: 0x227,
        },
        // _228_jack: parser generator — repeated parse churn.
        SyntheticWorkload {
            name: "jack",
            heap_budget: 60_000,
            iterations: 75,
            allocs_per_iter: 700,
            small_data: 3,
            large_every: 0,
            large_data: 0,
            survivor_every: 80,
            retained_cap: 250,
            list_depth: 30,
            map_ops: 6,
            tree_ops: 0,
            seed: 0x228,
        },
    ]
}

/// The full figure-2/3 suite: DaCapo + SPECjvm98. (pseudojbb is appended
/// by the harness from [`crate::pseudojbb`], which also carries the
/// assertion sites.)
pub fn full_suite() -> Vec<SyntheticWorkload> {
    let mut all = dacapo();
    all.extend(specjvm98());
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_once, ExpConfig};

    #[test]
    fn suite_has_the_papers_benchmarks() {
        let suite = full_suite();
        assert_eq!(suite.len(), 18);
        let names: Vec<&str> = suite.iter().map(|w| w.name).collect();
        for expected in [
            "antlr",
            "bloat",
            "chart",
            "eclipse",
            "fop",
            "hsqldb",
            "jython",
            "luindex",
            "lusearch",
            "pmd",
            "xalan",
            "compress",
            "jess",
            "db",
            "javac",
            "mpegaudio",
            "mtrt",
            "jack",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn every_workload_runs_and_collects() {
        // Scaled-down versions so the test stays fast: shrink iterations.
        for mut w in full_suite() {
            w.iterations = (w.iterations / 10).max(3);
            let m = run_once(&w, ExpConfig::Base).unwrap();
            assert!(
                m.collections > 0 || w.name == "mpegaudio" || w.name == "compress",
                "{} performed no GC",
                w.name
            );
            assert!(m.allocations > 0);
            let m2 = run_once(&w, ExpConfig::Infrastructure).unwrap();
            assert_eq!(m2.violations, 0, "{} has no assertions", w.name);
        }
    }

    #[test]
    fn workloads_are_deterministic_in_allocation_count() {
        let mut w = dacapo().remove(0);
        w.iterations = 5;
        let a = run_once(&w, ExpConfig::Base).unwrap();
        let b = run_once(&w, ExpConfig::Base).unwrap();
        assert_eq!(a.allocations, b.allocations);
        let c = run_once(&w, ExpConfig::Infrastructure).unwrap();
        assert_eq!(
            a.allocations, c.allocations,
            "config must not change behaviour"
        );
    }
}
