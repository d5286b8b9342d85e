//! Layer probes: small fixed loops that time one layer directly, below
//! `Vm`, on `gca-heap` and `gca-collector`. They run only in the traced
//! run, after the workload's reps, and each reports the median of a few
//! repetitions.

use std::hint::black_box;
use std::time::Instant;

use gc_assertions::{ClassId, ObjRef, VmError};
use gca_collector::{sweep_heap, Collector, NoHooks};
use gca_heap::{Flags, Heap, HEADER_WORDS, LOS_THRESHOLD, PAGE_SLOTS};

use crate::metrics::MetricSet;
use crate::stats::median;
use crate::workloads::live_graph::{generate_graph, GraphSink};
use crate::workloads::{Probe, Scale};

/// Repetitions each probe takes its median over.
const REPEATS: usize = 5;

fn median_of(mut sample: impl FnMut() -> f64) -> f64 {
    let values: Vec<f64> = (0..REPEATS).map(|_| sample()).collect();
    median(&values)
}

/// `Heap::alloc` into a fresh heap, ns per object of `words` total words.
fn alloc_ns(words: usize, count: usize) -> f64 {
    median_of(|| {
        let mut heap = Heap::new();
        let class = heap.register_class("Probe", &[]);
        let t = Instant::now();
        for _ in 0..count {
            black_box(
                heap.alloc(class, 1, words - HEADER_WORDS - 1)
                    .expect("alloc"),
            );
        }
        t.elapsed().as_nanos() as f64 / count as f64
    })
}

fn heap_alloc(scale: Scale, out: &mut MetricSet) {
    let n = scale.of(200_000, 5_000);
    out.set("heap.probe.alloc_small_ns", alloc_ns(8, n));
    out.set("heap.probe.alloc_mid_ns", alloc_ns(64, n / 4));
    out.set(
        "heap.probe.alloc_large_ns",
        alloc_ns(LOS_THRESHOLD * 2, n / 40),
    );
}

/// `Heap::set_ref_field` where each store lands on a page whose card is
/// clean, and where every card is already dirty.
fn heap_set_ref_field(scale: Scale, out: &mut MetricSet) {
    let pages = scale.of(4_000, 200);
    let mut heap = Heap::new();
    let class = heap.register_class("Probe", &["f"]);
    // 4-word objects fill pages of PAGE_SLOTS slots in allocation order.
    let objects: Vec<ObjRef> = (0..pages * PAGE_SLOTS)
        .map(|_| heap.alloc(class, 1, 0).expect("alloc"))
        .collect();
    let target = objects[0];
    let clean = median_of(|| {
        heap.clear_cards();
        let t = Instant::now();
        for page in 0..pages {
            heap.set_ref_field(objects[page * PAGE_SLOTS], 0, target)
                .expect("store");
        }
        t.elapsed().as_nanos() as f64 / pages as f64
    });
    let dirty = median_of(|| {
        // The loop above left every card dirty.
        let t = Instant::now();
        for page in 0..pages {
            heap.set_ref_field(objects[page * PAGE_SLOTS + 1], 0, target)
                .expect("store");
        }
        t.elapsed().as_nanos() as f64 / pages as f64
    });
    out.set("heap.set_ref_field.clean_ns", clean);
    out.set("heap.set_ref_field.dirty_ns", dirty);
}

/// A bare heap the live graph can be built into.
struct HeapSink {
    heap: Heap,
    roots: Vec<ObjRef>,
}

impl GraphSink for HeapSink {
    fn class(&mut self, name: &str) -> ClassId {
        self.heap.register_class(name, &[])
    }
    fn alloc(&mut self, class: ClassId, nrefs: usize, data: usize) -> Result<ObjRef, VmError> {
        Ok(self.heap.alloc(class, nrefs, data)?)
    }
    fn set_field(&mut self, obj: ObjRef, field: usize, value: ObjRef) -> Result<(), VmError> {
        self.heap.set_ref_field(obj, field, value)?;
        Ok(())
    }
    fn root(&mut self, r: ObjRef) -> Result<(), VmError> {
        self.roots.push(r);
        Ok(())
    }
}

/// `Collector::collect` with `NoHooks` on the `live_mark` graph: the mark
/// loop with nothing attached.
fn mark_no_hooks(seed: u64, scale: Scale, out: &mut MetricSet) {
    let graph = generate_graph(seed, scale);
    let mut sink = HeapSink {
        heap: Heap::new(),
        roots: Vec::new(),
    };
    graph
        .build(&mut sink)
        .expect("build the live graph on a bare heap");
    let mut collector = Collector::new();
    let ns = median_of(|| {
        let cycle = collector
            .collect(&mut sink.heap, &sink.roots, &mut NoHooks)
            .expect("collect");
        cycle.mark.as_nanos() as f64 / cycle.objects_marked.max(1) as f64
    });
    out.set("collector.mark.nohooks_ns_per_object", ns);
}

/// `sweep_heap` over pages whose objects are all dead, half dead, all live.
fn sweep(scale: Scale, out: &mut MetricSet) {
    let pages = scale.of(2_000, 100);
    let sweep_with = |live_one_in: usize| -> (f64, u64) {
        let mut freed = 0;
        let ns = median_of(|| {
            let mut heap = Heap::new();
            let class = heap.register_class("Probe", &[]);
            for i in 0..pages * PAGE_SLOTS {
                let r = heap.alloc(class, 0, 2).expect("alloc");
                if live_one_in != 0 && i % live_one_in == 0 {
                    heap.set_flag(r, Flags::MARK).expect("mark");
                }
            }
            let t = Instant::now();
            let (objects, _) = sweep_heap(&mut heap, &mut NoHooks).expect("sweep");
            let ns = t.elapsed().as_nanos() as f64;
            freed = objects;
            ns
        });
        (ns, freed)
    };
    let (dead_ns, dead_freed) = sweep_with(0);
    let (half_ns, half_freed) = sweep_with(2);
    let (live_ns, _) = sweep_with(1);
    out.set(
        "collector.sweep.probe_dead_ns_per_object",
        dead_ns / dead_freed.max(1) as f64,
    );
    out.set(
        "collector.sweep.probe_half_ns_per_object",
        half_ns / half_freed.max(1) as f64,
    );
    out.set(
        "collector.sweep.probe_live_ns_per_page",
        live_ns / pages as f64,
    );
}

/// Runs `probe`, setting its metrics in `out`.
pub fn run(probe: Probe, seed: u64, scale: Scale, out: &mut MetricSet) {
    match probe {
        Probe::HeapAlloc => heap_alloc(scale, out),
        Probe::HeapSetRefField => heap_set_ref_field(scale, out),
        Probe::MarkNoHooks => mark_no_hooks(seed, scale, out),
        Probe::Sweep => sweep(scale, out),
    }
}
