//! The eight workloads, what one rep of a workload reports, and the
//! [`Driver`] through which the benchmark's own mutators call a `Vm` so
//! that collections and (when tracing) per-call costs are observed at the
//! public API, without instrumenting anything inside `crates/`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gc_assertions::{
    ClassId, CollectorKind, GcReport, GcStats, MinorStrategy, Mode, ObjRef, Vm, VmConfig, VmError,
};
use gca_heap::{HEADER_WORDS, LOS_THRESHOLD};

use crate::json::Value;
use crate::trace::{Call, Layer, Trace};

pub mod assert_heavy;
pub mod churn_sweep;
pub mod gen_barrier;
pub mod live_graph;
pub mod script_pipeline;
pub mod soak_fleet;
pub mod suite_ms;

/// References per backbone or table block in the benchmark's own heaps:
/// with the two header words, exactly the largest size class, so blocks
/// stay out of the large-object space.
pub const FANOUT: usize = 254;

/// How much work a rep does. `Smoke` is about a twentieth of `Full`; it
/// exists for warm-up and for the harness's own tests and never produces a
/// gated number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's fixed run length.
    Full,
    /// About 1/20 of it.
    Smoke,
}

impl Scale {
    /// `full` at full scale, a twentieth (at least `floor`) at smoke scale.
    pub fn of(self, full: usize, floor: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 20).max(floor),
        }
    }
}

/// A control leg of the traced run: one switch away from the workload's
/// checked configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// `Mode::Base`, no assertion calls: the paper's control.
    Base,
    /// `telemetry(true)`: one record per collection.
    Telemetry,
    /// `census(true)`: per-class tallies during mark.
    Census,
    /// `gc_threads(2)` (with telemetry, which carries the worker profile).
    Par2,
    /// `MinorStrategy::RememberedSet` instead of cards.
    RememberedSet,
    /// `path_tracking(false)`.
    NoPaths,
}

/// The configuration one rep runs under. The default is the workload's
/// checked configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Leg {
    /// The control this leg runs, if any.
    pub control: Option<Control>,
    /// Plant one fault the workload does not expect — the harness's own
    /// test that a wrong verdict is counted as a failure.
    pub misplant: bool,
}

impl Leg {
    /// The leg that runs `control`.
    pub fn of(control: Control) -> Leg {
        Leg {
            control: Some(control),
            misplant: false,
        }
    }

    /// Whether this is the Base control, which registers no assertion.
    pub fn base(self) -> bool {
        self.control == Some(Control::Base)
    }

    /// Applies the leg's switch to a workload's checked configuration.
    pub fn apply(self, c: VmConfig) -> VmConfig {
        match self.control {
            None => c,
            Some(Control::Base) => c.mode(Mode::Base),
            Some(Control::Telemetry) => c.telemetry(true),
            Some(Control::Census) => c.census(true),
            Some(Control::Par2) => c.telemetry(true).gc_threads(2),
            Some(Control::RememberedSet) => c.minor_strategy(MinorStrategy::RememberedSet),
            Some(Control::NoPaths) => c.path_tracking(false),
        }
    }
}

/// Exact counters of one rep. They must be identical in every rep of a run
/// and are pinned for seed 42 by the golden file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(pub BTreeMap<&'static str, u64>);

impl Counters {
    /// Adds `n` to `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.0.entry(name).or_insert(0) += n;
    }

    /// Raises `name` to at least `n`.
    pub fn max(&mut self, name: &'static str, n: u64) {
        let slot = self.0.entry(name).or_insert(0);
        *slot = (*slot).max(n);
    }

    /// `{"name": value, …}` in name order.
    pub fn to_json(&self) -> Value {
        let mut out = Value::obj();
        for (k, v) in &self.0 {
            out.set(k, (*v).into());
        }
        out
    }

    /// Value of `name`, 0 if never touched.
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// Checks made on a rep's outputs.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// What failed (first few).
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Folds another rep's checks into this one.
    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in &other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n.clone());
            }
        }
    }
}

/// What one rep of a workload reports.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall time of the timed sections, ns.
    pub run_ns: u64,
    /// Time inside collections, ns (`total_gc_time + minor_gc_time`).
    pub gc_ns: u64,
    /// One sample per collection pause the harness could observe.
    pub pauses_ns: Vec<u64>,
    /// Workload operations done (deterministic).
    pub ops: u64,
    /// Exact counters.
    pub counters: Counters,
    /// Noisy per-layer observations (times in ns, by fixed key).
    pub obs: BTreeMap<&'static str, f64>,
    /// Output checks.
    pub checks: Checks,
    /// `[run_ns, gc_ns]` of each segment of the timed work, in a fixed order
    /// (a suite program, a script, a few thousand ops of an op stream). Short
    /// segments are what lets the gated run piece an undisturbed time
    /// together on a machine whose speed keeps changing.
    pub segments: Vec<[u64; 2]>,
}

impl Rep {
    /// Adds `v` to observation `key`.
    pub fn observe(&mut self, key: &'static str, v: f64) {
        *self.obs.entry(key).or_insert(0.0) += v;
    }

    /// Observation `key`, 0 if absent.
    pub fn obs(&self, key: &str) -> f64 {
        self.obs.get(key).copied().unwrap_or(0.0)
    }

    /// Folds in everything a finished `Vm` knows about its run: collector
    /// and heap statistics, assertion-check totals, and heap integrity.
    pub fn absorb_vm(&mut self, vm: &Vm) {
        let gc = vm.gc_stats();
        let heap = vm.heap_stats();
        let totals = vm.check_totals();
        self.gc_ns += (gc.total_gc_time + vm.minor_gc_time()).as_nanos() as u64;
        self.observe("pre_root_ns", gc.pre_root_time.as_nanos() as f64);
        self.observe("mark_ns", gc.mark_time.as_nanos() as f64);
        self.observe("sweep_ns", gc.sweep_time.as_nanos() as f64);
        self.observe("major_ns", gc.total_gc_time.as_nanos() as f64);
        self.observe("minor_ns", vm.minor_gc_time().as_nanos() as f64);
        let c = &mut self.counters;
        c.add("heap.alloc.count", heap.allocations);
        c.add("heap.alloc.words", heap.allocated_words);
        c.max("heap.peak_occupied_words", heap.peak_occupied_words as u64);
        let pages = vm.heap().page_count() as u64;
        c.add("heap.page_count", pages);
        // Every sweep visits every page; the page table only grows, so its
        // final size times the collections is the visits made (an upper
        // bound while the heap was still growing).
        c.add("collector.sweep.page_visits", pages * gc.collections);
        if vm.config().collector == CollectorKind::Copying {
            // Under the Cheney collector the mark phase is the evacuation.
            c.add("collector.copy.objects", gc.objects_marked);
        }
        c.add("collector.cycles", gc.collections);
        c.add("collector.minor.count", vm.minor_collections());
        c.add("collector.mark.objects", gc.objects_marked);
        c.add("collector.mark.edges", gc.edges_traced);
        c.add("collector.sweep.objects", gc.objects_swept);
        c.add("collector.sweep.words", gc.words_swept);
        c.add("core.ownership.pre_root_edges", gc.pre_root_edges);
        c.add("core.ownership.owners_scanned", totals.owners_scanned);
        c.add("core.ownership.ownees_checked", totals.ownees_checked);
        c.add(
            "core.ownership.deferred_processed",
            totals.deferred_ownees_processed,
        );
        c.add("core.dead_bits_seen", totals.dead_bits_seen);
        c.add("core.unshared_bits_seen", totals.unshared_bits_seen);
        c.add(
            "core.tracked_instances_counted",
            totals.tracked_instances_counted,
        );
        let calls = vm.assertion_calls();
        c.add(
            "core.assert_register.count",
            calls.dead
                + calls.regions_started
                + calls.region_objects
                + calls.unshared
                + calls.instances
                + calls.owned_by,
        );
        let problems = vm.heap().verify();
        self.checks.check(problems.is_empty(), || {
            format!("Heap::verify: {}", problems.join("; "))
        });
    }

    /// Pools the pause of every collection a telemetry-on `Vm` recorded.
    pub fn absorb_telemetry_pauses(&mut self, vm: &Vm) {
        let t = vm.telemetry();
        self.pauses_ns
            .extend(t.records().iter().map(|r| r.total_ns));
        self.counters
            .add("telemetry.records", t.records().len() as u64);
    }
}

/// A workload with its inputs generated: it can run reps.
pub trait Prepared {
    /// Runs one rep on fresh VMs under `leg`, recording spans into `tr`
    /// when it is enabled.
    fn rep(&self, leg: Leg, tr: &mut Trace) -> Rep;
}

/// Where a workload's pause samples come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PauseSource {
    /// The harness sees every collection of every rep itself.
    EveryRep,
    /// Collections happen inside library code; every fourth rep runs with
    /// telemetry on and contributes pauses instead of times.
    TelemetryReps,
}

/// One of the eight workloads.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Generates the inputs from the seed.
    pub prepare: fn(seed: u64, scale: Scale) -> Box<dyn Prepared>,
    /// Where pause samples come from.
    pub pauses: PauseSource,
    /// Control legs the traced run adds for this workload.
    pub controls: &'static [Control],
    /// Layer probes the traced run adds for this workload.
    pub probes: &'static [Probe],
}

/// A probe that times one layer directly, below `Vm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// `Heap::alloc` per size class.
    HeapAlloc,
    /// `Heap::set_ref_field` onto clean and dirty cards.
    HeapSetRefField,
    /// `Collector::collect` with `NoHooks` on the live graph.
    MarkNoHooks,
    /// `sweep_heap` over all-dead, half-dead and all-live pages.
    Sweep,
}

/// The eight workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "suite_ms",
        prepare: suite_ms::prepare,
        pauses: PauseSource::TelemetryReps,
        controls: &[Control::Base, Control::Telemetry, Control::Census],
        probes: &[],
    },
    WorkloadDef {
        name: "assert_heavy",
        prepare: assert_heavy::prepare,
        pauses: PauseSource::TelemetryReps,
        controls: &[Control::Base],
        probes: &[],
    },
    WorkloadDef {
        name: "churn_sweep",
        prepare: churn_sweep::prepare,
        pauses: PauseSource::EveryRep,
        controls: &[],
        probes: &[Probe::HeapAlloc, Probe::Sweep],
    },
    WorkloadDef {
        name: "live_mark",
        prepare: live_graph::prepare_mark,
        pauses: PauseSource::EveryRep,
        controls: &[Control::Census, Control::Par2, Control::NoPaths],
        probes: &[Probe::MarkNoHooks],
    },
    WorkloadDef {
        name: "live_copying",
        prepare: live_graph::prepare_copying,
        pauses: PauseSource::EveryRep,
        controls: &[],
        probes: &[],
    },
    WorkloadDef {
        name: "gen_barrier",
        prepare: gen_barrier::prepare,
        pauses: PauseSource::EveryRep,
        controls: &[Control::RememberedSet, Control::Telemetry],
        probes: &[Probe::HeapSetRefField],
    },
    WorkloadDef {
        name: "soak_fleet",
        prepare: soak_fleet::prepare,
        pauses: PauseSource::EveryRep,
        controls: &[],
        probes: &[],
    },
    WorkloadDef {
        name: "script_pipeline",
        prepare: script_pipeline::prepare,
        pauses: PauseSource::EveryRep,
        controls: &[],
        probes: &[],
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A `Vm` driven through its public API with the collections it runs
/// observed from outside: after every call that may collect, the driver
/// compares the collector's counters with what it saw last and turns the
/// difference into a pause sample (and, when tracing, into spans).
#[derive(Debug)]
pub struct Driver<'t> {
    /// The machine under test.
    pub vm: Vm,
    tr: &'t mut Trace,
    m: gc_assertions::MutatorId,
    seen_cycles: u64,
    seen_stats: GcStats,
    seen_minor: Duration,
    seen_budget: usize,
    /// Pause of every collection (or back-to-back pair) seen so far.
    pub pauses_ns: Vec<u64>,
    /// Public mutator calls made so far.
    pub ops: u64,
    /// Times the heap budget was raised.
    pub grow_events: u64,
    /// Collections that ran inside an `alloc`.
    pub gc_triggers: u64,
    /// Dirty cards counted just before each allocation-triggered collection
    /// (traced runs only).
    pub cards_dirtied: u64,
    /// Duration of the calls that contained a collection, ns (traced only).
    pub alloc_in_gc_ns: u64,
    segment_every: u64,
    segment_ops: u64,
    segment_started: Instant,
    segment_gc_ns: u64,
    segments: Vec<[u64; 2]>,
}

impl<'t> Driver<'t> {
    /// A fresh `Vm` under `config`; a segment is closed every
    /// `segment_every` ops (and wherever the workload asks for one).
    pub fn new(config: VmConfig, segment_every: u64, tr: &'t mut Trace) -> Driver<'t> {
        let vm = Vm::new(config);
        Driver {
            m: vm.main(),
            seen_budget: vm.heap_budget(),
            vm,
            tr,
            seen_cycles: 0,
            seen_stats: GcStats::default(),
            seen_minor: Duration::ZERO,
            pauses_ns: Vec::new(),
            ops: 0,
            grow_events: 0,
            gc_triggers: 0,
            cards_dirtied: 0,
            alloc_in_gc_ns: 0,
            segment_every,
            segment_ops: 0,
            segment_started: Instant::now(),
            segment_gc_ns: 0,
            segments: Vec::new(),
        }
    }

    /// Closes the current segment: the wall time and the collector time
    /// since the previous one.
    pub fn segment(&mut self) {
        let now = Instant::now();
        self.segments.push([
            (now - self.segment_started).as_nanos() as u64,
            std::mem::take(&mut self.segment_gc_ns),
        ]);
        self.segment_started = now;
        self.segment_ops = 0;
    }

    fn count_op(&mut self) {
        self.ops += 1;
        self.segment_ops += 1;
        if self.segment_ops == self.segment_every {
            self.segment();
        }
    }

    /// The trace this driver records into.
    pub fn trace(&mut self) -> &mut Trace {
        self.tr
    }

    /// Registers a class (set-up work, not an op).
    pub fn class(&mut self, name: &str, fields: &[&str]) -> ClassId {
        self.vm.register_class(name, fields)
    }

    /// Accounts for collections that ran since the last look. When tracing,
    /// `span` is the span of the call that contained them and that call's
    /// end. Returns the collector time they took, ns.
    fn observe_collections(&mut self, span: Option<(usize, u64)>) -> u64 {
        let cycles = self.vm.collections() + self.vm.minor_collections();
        if cycles == self.seen_cycles {
            return 0;
        }
        let stats = *self.vm.gc_stats();
        let minor = self.vm.minor_gc_time();
        let major_ns = (stats.total_gc_time - self.seen_stats.total_gc_time).as_nanos() as u64;
        let minor_ns = (minor - self.seen_minor).as_nanos() as u64;
        let pause = major_ns + minor_ns;
        self.pauses_ns.push(pause);
        self.segment_gc_ns += pause;
        if let Some((parent, end)) = span {
            // A minor runs before the major it may escalate to.
            let start = end.saturating_sub(pause);
            if minor_ns > 0 {
                self.tr
                    .leaf_under(parent, "minor", Layer::Collector, start, start + minor_ns);
            }
            if major_ns > 0 {
                let s = start + minor_ns;
                let id = self
                    .tr
                    .leaf_under(parent, "collection", Layer::Core, s, end);
                let pre = (stats.pre_root_time - self.seen_stats.pre_root_time).as_nanos() as u64;
                let mark = (stats.mark_time - self.seen_stats.mark_time).as_nanos() as u64;
                let sweep = (stats.sweep_time - self.seen_stats.sweep_time).as_nanos() as u64;
                self.tr.leaf_under(id, "pre_root", Layer::Core, s, s + pre);
                self.tr
                    .leaf_under(id, "mark", Layer::Collector, s + pre, s + pre + mark);
                self.tr
                    .leaf_under(id, "sweep", Layer::Collector, end - sweep.min(end - s), end);
            }
        }
        self.seen_cycles = cycles;
        self.seen_stats = stats;
        self.seen_minor = minor;
        let budget = self.vm.heap_budget();
        if budget != self.seen_budget {
            self.grow_events += 1;
            self.seen_budget = budget;
        }
        pause
    }

    /// `Vm::alloc`, unrooted.
    pub fn alloc(&mut self, class: ClassId, nrefs: usize, data: usize) -> Result<ObjRef, VmError> {
        let r = self.alloc_observed(class, nrefs, data)?;
        self.count_op();
        Ok(r)
    }

    fn alloc_observed(
        &mut self,
        class: ClassId,
        nrefs: usize,
        data: usize,
    ) -> Result<ObjRef, VmError> {
        if !self.tr.on() {
            let r = self.vm.alloc(self.m, class, nrefs, data)?;
            if self.observe_collections(None) > 0 {
                self.gc_triggers += 1;
            }
            return Ok(r);
        }
        let words = HEADER_WORDS + nrefs + data;
        if self.vm.config().generational.is_some()
            && self.vm.heap().occupied_words() + words > self.vm.heap_budget()
        {
            // This call will collect: count the cards the barrier dirtied
            // since the last collection cleared them.
            self.cards_dirtied += self.vm.heap().cards().dirty_count() as u64;
        }
        let t0 = self.tr.now_ns();
        let r = self.vm.alloc(self.m, class, nrefs, data)?;
        let t1 = self.tr.now_ns();
        if self.vm.collections() + self.vm.minor_collections() != self.seen_cycles {
            // The call contained a collection: it becomes a span of its
            // own, and stays out of the per-call allocation cost.
            let id = self.tr.leaf("alloc.gc", Layer::Core, t0, t1);
            self.observe_collections(Some((id, t1)));
            self.gc_triggers += 1;
            self.alloc_in_gc_ns += t1 - t0;
        } else {
            let kind = if words <= 8 {
                Call::AllocSmall
            } else if words <= LOS_THRESHOLD {
                Call::AllocMid
            } else {
                Call::AllocLarge
            };
            self.tr.call(kind, t1 - t0);
        }
        Ok(r)
    }

    /// Times a call that cannot collect, when tracing.
    fn timed<T>(&mut self, kind: Call, f: impl FnOnce(&mut Vm) -> T) -> T {
        let out = if self.tr.on() {
            let t0 = Instant::now();
            let out = f(&mut self.vm);
            self.tr.call(kind, t0.elapsed().as_nanos() as u64);
            out
        } else {
            f(&mut self.vm)
        };
        self.count_op();
        out
    }

    /// `Vm::set_field`.
    pub fn set_field(&mut self, obj: ObjRef, field: usize, value: ObjRef) -> Result<(), VmError> {
        self.timed(Call::SetField, |vm| vm.set_field(obj, field, value))
            .map(drop)
    }

    /// `Vm::add_root` in the current frame; returns the slot.
    pub fn add_root(&mut self, r: ObjRef) -> Result<usize, VmError> {
        let m = self.m;
        self.timed(Call::Roots, |vm| vm.add_root(m, r))
    }

    /// `Vm::set_root`.
    pub fn set_root(&mut self, slot: usize, r: ObjRef) -> Result<(), VmError> {
        let m = self.m;
        self.timed(Call::Roots, |vm| vm.set_root(m, slot, r))
    }

    /// `Vm::push_frame`.
    pub fn push_frame(&mut self) -> Result<(), VmError> {
        let m = self.m;
        self.timed(Call::Roots, |vm| vm.push_frame(m))
    }

    /// `Vm::pop_frame`.
    pub fn pop_frame(&mut self) -> Result<(), VmError> {
        let m = self.m;
        self.timed(Call::Roots, |vm| vm.pop_frame(m))
    }

    /// An assertion-registration call (`assert_*`, regions, `release_ownee`).
    pub fn assert<T>(&mut self, f: impl FnOnce(&mut Vm, gc_assertions::MutatorId) -> T) -> T {
        let m = self.m;
        self.timed(Call::AssertRegister, |vm| f(vm, m))
    }

    /// An explicit full collection.
    pub fn collect(&mut self) -> Result<GcReport, VmError> {
        let id = self.tr.enter("collect", Layer::Core);
        let report = self.vm.collect();
        let span = self.tr.on().then(|| (id, self.tr.now_ns()));
        self.observe_collections(span);
        self.tr.exit();
        self.count_op();
        report
    }

    /// Runs `body` as the rep's timed work: inside the `rep` span, timed into
    /// `rep.run_ns`, with a `VmError` counted as a failed check — no
    /// operation of a workload is expected to fail.
    pub fn run_timed<T>(
        &mut self,
        rep: &mut Rep,
        body: impl FnOnce(&mut Self, &mut Rep) -> Result<T, VmError>,
    ) -> Option<T> {
        self.tr.enter("rep", Layer::Bench);
        let started = Instant::now();
        let out = body(self, rep);
        rep.run_ns += started.elapsed().as_nanos() as u64;
        self.tr.exit();
        rep.checks
            .check(out.is_ok(), || format!("VmError: {:?}", out.as_ref().err()));
        out.ok()
    }

    /// Ends the run: folds the VM's statistics and the driver's own
    /// observations into `rep`.
    pub fn finish(mut self, rep: &mut Rep) {
        if self.segment_ops > 0 {
            self.segment();
        }
        rep.segments.append(&mut self.segments);
        rep.absorb_vm(&self.vm);
        if self.vm.config().telemetry {
            rep.counters.add(
                "telemetry.records",
                self.vm.telemetry().records().len() as u64,
            );
        }
        rep.pauses_ns.extend(self.pauses_ns);
        rep.ops += self.ops;
        rep.counters.add("heap.grow_events", self.grow_events);
        rep.counters.add("core.gc_triggers", self.gc_triggers);
        rep.observe("cards_dirtied", self.cards_dirtied as f64);
        rep.observe("alloc_in_gc_ns", self.alloc_in_gc_ns as f64);
    }
}

/// Turns the collector time a finished `Vm` accumulated inside library code
/// into child spans of the innermost open span, laid end to end before
/// `end_ns`: library workloads call `Vm::alloc` themselves, so their
/// collections are only visible as totals.
pub fn span_library_collections(tr: &mut Trace, vm: &Vm, end_ns: u64) {
    if !tr.on() {
        return;
    }
    let gc = vm.gc_stats();
    let minor = vm.minor_gc_time().as_nanos() as u64;
    let major = gc.total_gc_time.as_nanos() as u64;
    let start = end_ns.saturating_sub(major + minor);
    if minor > 0 {
        tr.leaf("minors", Layer::Collector, start, start + minor);
    }
    if major > 0 {
        let s = start + minor;
        let id = tr.leaf("collections", Layer::Core, s, end_ns);
        let pre = gc.pre_root_time.as_nanos() as u64;
        let mark = gc.mark_time.as_nanos() as u64;
        let sweep = (gc.sweep_time.as_nanos() as u64).min(end_ns - s);
        tr.leaf_under(id, "pre_root", Layer::Core, s, s + pre);
        tr.leaf_under(id, "mark", Layer::Collector, s + pre, s + pre + mark);
        tr.leaf_under(id, "sweep", Layer::Collector, end_ns - sweep, end_ns);
    }
}

/// A checked configuration with the heap budget in words and growth on.
pub fn config(budget_words: usize) -> VmConfig {
    VmConfig::builder()
        .heap_budget(budget_words)
        .grow_on_oom(true)
        .build()
}
