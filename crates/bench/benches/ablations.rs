//! Ablations: design-choice costs not broken out in the paper's figures.
//!
//! * path-tracking worklist on/off (the §2.7 debugging-information cost);
//! * binary-search ownership checks at two ownee-set sizes (the paper's
//!   n log n worst case);
//! * eager (JML-style) per-mutation invariant checking vs GC assertions
//!   (the §4.1 trade-off);
//! * mark-sweep vs semispace copying backend with assertions attached
//!   (the Cheney scan checks the same properties during evacuation).

use criterion::{criterion_group, criterion_main, Criterion};
use gc_assertions::{CollectorKind, Vm, VmConfig};
use gca_bench::baseline_eager;
use gca_workloads::runner::{run_once_vm, ExpConfig, Workload};
use gca_workloads::structures::HArrayList;
use gca_workloads::suite;
use std::time::Duration;

fn bench_path_tracking(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_path_tracking");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    for mut w in suite::full_suite().into_iter().take(4) {
        w.iterations = (w.iterations / 4).max(2);
        for (label, paths) in [("plain", false), ("paths", true)] {
            let cfg = VmConfig::builder()
                .heap_budget(w.heap_budget())
                .grow_on_oom(true)
                .path_tracking(paths)
                .build();
            group.bench_function(format!("{}/{}", w.name(), label), |b| {
                let cfg = cfg.clone();
                b.iter_custom(|iters| {
                    let mut gc = Duration::ZERO;
                    for _ in 0..iters {
                        gc += run_once_vm(&w, ExpConfig::Infrastructure, cfg.clone())
                            .unwrap()
                            .0
                            .gc;
                    }
                    gc
                })
            });
        }
    }
    group.finish();
}

fn bench_ownership_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_ownership_scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    for n in [100usize, 1_000, 5_000] {
        group.bench_function(format!("ownees_{n}/gc_cycle"), |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let mut vm = Vm::new(VmConfig::builder().heap_budget(1 << 22).build());
                    let m = vm.main();
                    let db_class = vm.register_class("Owner", &["list"]);
                    let e_class = vm.register_class("Ownee", &[]);
                    let db = vm.alloc(m, db_class, 1, 0).unwrap();
                    vm.add_root(m, db).unwrap();
                    let list = HArrayList::new(&mut vm, m, n).unwrap();
                    vm.set_field(db, 0, list.handle()).unwrap();
                    for _ in 0..n {
                        let e = vm.alloc(m, e_class, 0, 2).unwrap();
                        list.push(&mut vm, m, e).unwrap();
                        vm.assert_owned_by(db, e).unwrap();
                    }
                    let report = vm.collect().unwrap();
                    total += report.cycle.total;
                }
                total
            })
        });
    }
    group.finish();
}

fn bench_eager_vs_gc(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_eager_vs_gc");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("comparison_300_entries_500_mutations", |b| {
        b.iter(|| {
            let cmp = baseline_eager(300, 500);
            assert!(cmp.eager >= cmp.gc_assertions / 2); // keep the work live
            cmp.eager_slowdown()
        })
    });
    group.finish();
}

fn bench_copying_backend(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_copying");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_secs(2));
    for mut w in suite::full_suite().into_iter().take(4) {
        w.iterations = (w.iterations / 4).max(2);
        for (label, collector) in [
            ("marksweep", CollectorKind::MarkSweep),
            ("copying", CollectorKind::Copying),
        ] {
            let cfg = VmConfig::builder()
                .heap_budget(w.heap_budget())
                .grow_on_oom(true)
                .collector(collector)
                .build();
            group.bench_function(format!("{}/{}", w.name(), label), |b| {
                let cfg = cfg.clone();
                b.iter_custom(|iters| {
                    let mut gc = Duration::ZERO;
                    for _ in 0..iters {
                        gc += run_once_vm(&w, ExpConfig::WithAssertions, cfg.clone())
                            .unwrap()
                            .0
                            .gc;
                    }
                    gc
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_path_tracking,
    bench_ownership_scaling,
    bench_eager_vs_gc,
    bench_copying_backend
);
criterion_main!(benches);
