//! The VM façade: heap + collector + assertion engine + mutators.

use std::sync::LazyLock;

use gca_collector::{Collector, GcStats, NoHooks, SurvivorVisitor};
use gca_heap::{
    ClassId, Flags, Heap, HeapError, HeapStats, ObjRef, Object, SpaceKind, TypeRegistry,
    HEADER_WORDS,
};

use crate::census::{AllocSite, CensusState, Tally};
use crate::config::{CollectorKind, MinorStrategy, Mode, Reaction, VmConfig};
use crate::engine::AssertionEngine;
use crate::error::VmError;
use crate::mutator::{Mutator, MutatorId, Region};
use crate::report::GcReport;

/// Cumulative counts of assertion API calls, matching the quantities the
/// paper reports ("695 calls to assert-dead and 15,553 calls to
/// assert-ownedBy", §3.1.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssertionCallCounts {
    /// `assert_dead` calls (direct only; region objects are counted
    /// separately).
    pub dead: u64,
    /// `start_region` calls.
    pub regions_started: u64,
    /// Objects queued by active regions and asserted dead at
    /// `assert_alldead`.
    pub region_objects: u64,
    /// `assert_unshared` calls.
    pub unshared: u64,
    /// `assert_instances` calls.
    pub instances: u64,
    /// `assert_owned_by` calls.
    pub owned_by: u64,
}

/// A managed-heap virtual machine with GC assertions.
///
/// `Vm` is the programmer-facing interface of the reproduction: it owns
/// the [`Heap`], the [`Collector`], the [`AssertionEngine`],
/// and the simulated mutator threads, and implements the paper's
/// allocation-triggered collection policy (fixed heap budget; collect when
/// an allocation would exceed it).
///
/// # Roots
///
/// The VM cannot see the mutator's Rust locals, so reachability is defined
/// by *registered* roots: per-mutator shadow stacks ([`Vm::add_root`],
/// scoped by [`Vm::push_frame`]/[`Vm::pop_frame`]) and global roots
/// ([`Vm::add_global`]). An allocated object that is not reachable from a
/// root may be reclaimed by any later collection — root it before the next
/// allocation if it must survive.
///
/// # Example
///
/// ```
/// use gc_assertions::{Vm, VmConfig};
///
/// # fn main() -> Result<(), gc_assertions::VmError> {
/// let mut vm = Vm::new(VmConfig::builder().build());
/// let node = vm.register_class("Node", &["next"]);
/// let m = vm.main();
///
/// let head = vm.alloc(m, node, 1, 0)?;
/// vm.add_root(m, head)?;
/// let tail = vm.alloc(m, node, 1, 0)?;
/// vm.set_field(head, 0, tail)?;
///
/// // Drop the list and assert the tail dies.
/// vm.assert_dead(tail)?;
/// vm.set_field(head, 0, gc_assertions::ObjRef::NULL)?;
/// let report = vm.collect()?;
/// assert!(report.is_clean());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Vm {
    pub(crate) heap: Heap,
    collector: Collector,
    engine: AssertionEngine,
    config: VmConfig,
    budget: usize,
    mutators: Vec<Mutator>,
    globals: Vec<ObjRef>,
    halted: bool,
    calls: AssertionCallCounts,
    collections_requested: u64,
    violation_log: Vec<crate::violation::Violation>,
    totals: crate::report::CheckCounters,
    handler: Handler,
    /// Generational mode: write-barrier log of old objects that may
    /// reference young objects.
    remembered: Vec<ObjRef>,
    minors_since_major: usize,
    minor_collections: u64,
    minor_gc_time: std::time::Duration,
    /// Telemetry recorder, present only when [`VmConfig::telemetry`] is
    /// set (boxed to keep the disabled VM small). Records are derived
    /// from each cycle's statistics *after* the collection completes —
    /// pure observation, never participation.
    telemetry: Option<Box<gca_telemetry::GcTelemetry>>,
    /// Call-count snapshot at the previous collection, for attributing
    /// registrations to the cycle in which they were checked.
    last_calls: AssertionCallCounts,
    /// Heap-census state (site table + drift recorder), present only when
    /// [`VmConfig::census`] is set. Like telemetry, the census observes
    /// the mark but never participates: live sets, violations and reports
    /// are bit-identical with it on or off.
    census: Option<Box<CensusState>>,
}

/// Boxed callback type for [`Vm::set_violation_handler`].
type HandlerFn = Box<dyn FnMut(&crate::violation::Violation, &TypeRegistry) + Send>;

/// The programmatic violation handler (§2.6 future work: "a programmatic
/// interface that would allow the programmer to test the conditions
/// directly and take action in an application-specific manner").
#[derive(Default)]
struct Handler(Option<HandlerFn>);

impl std::fmt::Debug for Handler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            Some(_) => f.write_str("Handler(set)"),
            None => f.write_str("Handler(none)"),
        }
    }
}

impl Vm {
    /// Creates a VM with one mutator (the main thread, [`Vm::main`]).
    ///
    /// # Panics
    ///
    /// Panics if [`VmConfig::validate`] rejects `config` —
    /// [`VmConfig::builder`] rejects such configurations at build time;
    /// hand-assembled configs are checked here.
    pub fn new(config: VmConfig) -> Vm {
        config.assert_valid();
        let budget = config.heap_budget;
        let telemetry = config
            .telemetry
            .then(|| Box::new(gca_telemetry::GcTelemetry::new()));
        let census = config.census.then(|| Box::new(CensusState::new()));
        // The collector kind alone determines the space layout, and the
        // space layout how the collector marks from the roots: a
        // semispace heap is evacuated, the non-moving paged space is
        // marked in place.
        let heap = Heap::with_space(match config.collector {
            CollectorKind::Copying => SpaceKind::Semispace,
            _ => SpaceKind::Paged,
        });
        Vm {
            heap,
            collector: Collector::new(),
            engine: AssertionEngine::new(&config),
            config,
            budget,
            mutators: vec![Mutator::new()],
            globals: Vec::new(),
            halted: false,
            calls: AssertionCallCounts::default(),
            collections_requested: 0,
            violation_log: Vec::new(),
            totals: crate::report::CheckCounters::default(),
            handler: Handler(None),
            remembered: Vec::new(),
            minors_since_major: 0,
            minor_collections: 0,
            minor_gc_time: std::time::Duration::ZERO,
            telemetry,
            last_calls: AssertionCallCounts::default(),
            census,
        }
    }

    /// Installs a programmatic violation handler, called once per
    /// violation at each collection (in addition to the configured
    /// [`Reaction`]). Replaces any previous handler.
    pub fn set_violation_handler<F>(&mut self, handler: F)
    where
        F: FnMut(&crate::violation::Violation, &TypeRegistry) + Send + 'static,
    {
        self.handler = Handler(Some(Box::new(handler)));
    }

    /// Removes the programmatic violation handler.
    pub fn clear_violation_handler(&mut self) {
        self.handler = Handler(None);
    }

    /// The main mutator, created with the VM.
    pub fn main(&self) -> MutatorId {
        MutatorId(0)
    }

    /// Spawns an additional simulated mutator thread.
    pub fn spawn_mutator(&mut self) -> MutatorId {
        self.mutators.push(Mutator::new());
        MutatorId((self.mutators.len() - 1) as u32)
    }

    /// Number of mutators.
    pub fn mutator_count(&self) -> usize {
        self.mutators.len()
    }

    fn mutator(&self, m: MutatorId) -> Result<&Mutator, VmError> {
        self.mutators
            .get(m.0 as usize)
            .ok_or(VmError::NoSuchMutator(m))
    }

    fn mutator_mut(&mut self, m: MutatorId) -> Result<&mut Mutator, VmError> {
        self.mutators
            .get_mut(m.0 as usize)
            .ok_or(VmError::NoSuchMutator(m))
    }

    pub(crate) fn check_running(&self) -> Result<(), VmError> {
        if self.halted {
            Err(VmError::Halted)
        } else {
            Ok(())
        }
    }

    fn check_instrumented(&self) -> Result<(), VmError> {
        match self.config.mode {
            Mode::Instrumented => Ok(()),
            Mode::Base => Err(VmError::BaseMode),
        }
    }

    // ------------------------------------------------------------------
    // Classes and fields
    // ------------------------------------------------------------------

    /// Registers a class (idempotent by name).
    pub fn register_class(&mut self, name: &str, field_names: &[&str]) -> ClassId {
        self.heap.register_class(name, field_names)
    }

    /// The type registry (for rendering reports).
    pub fn registry(&self) -> &TypeRegistry {
        self.heap.registry()
    }

    /// Reads a reference field.
    ///
    /// # Errors
    ///
    /// Reference-validity or field-bounds errors.
    pub fn field(&self, obj: ObjRef, field: usize) -> Result<ObjRef, VmError> {
        Ok(self.heap.ref_field(obj, field)?)
    }

    /// Writes a reference field, returning the old value.
    ///
    /// # Errors
    ///
    /// Reference-validity or field-bounds errors, or [`VmError::Halted`].
    pub fn set_field(
        &mut self,
        obj: ObjRef,
        field: usize,
        value: ObjRef,
    ) -> Result<ObjRef, VmError> {
        self.check_running()?;
        let old = self.heap.set_ref_field(obj, field, value)?;
        // Generational write barrier. Card-marking minors need no work
        // here: `Heap::set_ref_field` already dirtied the source page's
        // card. The remembered-set strategy additionally records old
        // objects that acquire references to young objects (deduplicated
        // by the REMEMBERED header bit).
        if self.config.generational.is_some()
            && self.config.minor_strategy == MinorStrategy::RememberedSet
            && value.is_some()
        {
            let src = self.heap.flags_of(obj)?;
            if src.contains(Flags::OLD) && !src.contains(Flags::REMEMBERED) {
                let dst_old = self.heap.has_flag(value, Flags::OLD)?;
                if !dst_old {
                    self.heap.set_flag(obj, Flags::REMEMBERED)?;
                    self.remembered.push(obj);
                }
            }
        }
        Ok(old)
    }

    /// Reads a data (primitive) word.
    ///
    /// # Errors
    ///
    /// Reference-validity or bounds errors.
    pub fn data_word(&self, obj: ObjRef, index: usize) -> Result<u64, VmError> {
        Ok(self.heap.data_word(obj, index)?)
    }

    /// Writes a data (primitive) word.
    ///
    /// # Errors
    ///
    /// Reference-validity or bounds errors, or [`VmError::Halted`].
    pub fn set_data_word(&mut self, obj: ObjRef, index: usize, value: u64) -> Result<(), VmError> {
        self.check_running()?;
        Ok(self.heap.set_data_word(obj, index, value)?)
    }

    /// The class of an object.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn class_of(&self, obj: ObjRef) -> Result<ClassId, VmError> {
        Ok(self.heap.class_of(obj)?)
    }

    /// Whether `obj` still names a live object.
    pub fn is_live(&self, obj: ObjRef) -> bool {
        self.heap.is_valid(obj)
    }

    // ------------------------------------------------------------------
    // Allocation and collection
    // ------------------------------------------------------------------

    /// Allocates an object on behalf of mutator `m`, collecting first if
    /// the allocation would exceed the heap budget. If the mutator has an
    /// active region, the object is appended to the region queue (§2.3.2).
    ///
    /// The returned object is **unrooted**; see the type-level discussion.
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfMemory`] (wrapped) if even after collection the
    /// budget cannot fit the object and growth is disabled, or
    /// [`VmError::Halted`].
    pub fn alloc(
        &mut self,
        m: MutatorId,
        class: ClassId,
        nrefs: usize,
        data_words: usize,
    ) -> Result<ObjRef, VmError> {
        self.check_running()?;
        self.mutator(m)?;
        let size = HEADER_WORDS + nrefs + data_words;
        if self.heap.occupied_words() + size > self.budget {
            self.collect_auto()?;
            self.check_running()?;
            if self.heap.occupied_words() + size > self.budget {
                if self.config.grow {
                    self.budget = (self.budget * 2).max(self.heap.occupied_words() + size);
                } else {
                    return Err(VmError::Heap(HeapError::OutOfMemory {
                        requested: size,
                        budget: self.budget,
                        occupied: self.heap.occupied_words(),
                    }));
                }
            }
        }
        let r = self.heap.alloc(class, nrefs, data_words)?;
        if let Some(census) = self.census.as_deref_mut() {
            census.note_alloc(r.index());
        }
        if let Some(region) = &mut self.mutators[m.0 as usize].region {
            region.queue.push(r);
        }
        Ok(r)
    }

    /// Allocation-triggered collection: a minor in generational mode
    /// (with a major forced every `n` minors, or when the nursery sweep
    /// cannot relieve the pressure), a major otherwise.
    fn collect_auto(&mut self) -> Result<(), VmError> {
        match self.config.generational {
            None => {
                self.collect()?;
            }
            Some(major_every) => {
                if self.minors_since_major >= major_every {
                    self.collect()?;
                } else {
                    self.collect_minor()?;
                    if self.heap.occupied_words() * 4 > self.budget * 3 {
                        // The nursery sweep left the heap >75% full: the
                        // garbage is in the old generation.
                        self.collect()?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Allocates and immediately roots the object in `m`'s current frame.
    ///
    /// # Errors
    ///
    /// As [`Vm::alloc`].
    pub fn alloc_rooted(
        &mut self,
        m: MutatorId,
        class: ClassId,
        nrefs: usize,
        data_words: usize,
    ) -> Result<ObjRef, VmError> {
        let r = self.alloc(m, class, nrefs, data_words)?;
        self.add_root(m, r)?;
        Ok(r)
    }

    /// Runs a collection now, returning the report. Assertion violations
    /// are handled according to the configured [`Reaction`].
    ///
    /// # Errors
    ///
    /// Heap errors from tracing (collector invariant violations).
    /// A `Halt` reaction does **not** error here — the report's `halted`
    /// flag is set and *subsequent* mutator work fails with
    /// [`VmError::Halted`].
    pub fn collect(&mut self) -> Result<GcReport, VmError> {
        self.collections_requested += 1;
        let roots = self.gather_roots();
        let workers = self.config.effective_gc_threads();
        // The census observes the survivors of this sweep in one pass of
        // the collector's cycle driver.
        let mut tally = Tally::default();
        let mut observe = self
            .census
            .as_deref()
            .map(|state| |r: ObjRef, o: &Object| state.observe(&mut tally, r, o));
        let survivors = observe.as_mut().map(|f| f as &mut SurvivorVisitor<'_>);
        let (cycle, worker_mark) = match self.config.mode {
            Mode::Base => self.collector.collect_with(
                &mut self.heap,
                &roots,
                &mut NoHooks,
                workers,
                survivors,
            ),
            Mode::Instrumented => self.collector.collect_with(
                &mut self.heap,
                &roots,
                &mut self.engine,
                workers,
                survivors,
            ),
        }?;
        // Generational bookkeeping: a major collection promotes every
        // survivor (one word operation per page) and resets the
        // remembered set.
        if self.config.generational.is_some() {
            for pid in 0..self.heap.page_count() {
                let live = self.heap.page_meta(pid).live_mask();
                if live != 0 {
                    self.heap.set_flag_word(pid, Flags::OLD, live);
                }
            }
            for i in 0..self.remembered.len() {
                let r = self.remembered[i];
                if self.heap.is_valid(r) {
                    self.heap.clear_flag(r, Flags::REMEMBERED)?;
                }
            }
            self.remembered.clear();
            self.minors_since_major = 0;
        }
        let (violations, counters) = self.engine.drain();
        // Report-once invariant (debug builds): with the `REPORTED` bit
        // gating, one collection can report a given object at most once
        // across the bit-gated kinds (dead-reachable / shared). A
        // duplicate means a checking phase bypassed `should_report`.
        #[cfg(debug_assertions)]
        if self.config.report_once {
            let bit_gated_object = |v: &crate::violation::Violation| match &v.kind {
                crate::violation::ViolationKind::DeadReachable { object, .. }
                | crate::violation::ViolationKind::Shared { object, .. } => Some(object.index()),
                _ => None,
            };
            let mut seen = std::collections::HashSet::new();
            for obj in violations.iter().filter_map(bit_gated_object) {
                assert!(
                    seen.insert(obj),
                    "report-once invariant: object slot {obj} reported twice in one cycle"
                );
            }
        }
        // Per-class reaction policy (§2.6 future work): halt if any
        // violation's class is configured to halt; notify the
        // programmatic handler about every violation.
        let halted = violations
            .iter()
            .any(|v| self.config.effective_reaction(v.class()) == Reaction::Halt);
        if halted {
            self.halted = true;
        }
        // Halt-latch invariant: the latch is monotone (a halted VM never
        // un-halts) and a Halt-reaction violation always engages it.
        debug_assert!(
            self.halted == (halted || self.halted),
            "halt latch must be monotone"
        );
        debug_assert!(
            !halted || self.halted,
            "a Halt-reaction violation must latch the VM halted"
        );
        if let Some(handler) = self.handler.0.as_mut() {
            for v in &violations {
                handler(v, self.heap.registry());
            }
        }
        // Keep a cumulative log so violations from collections triggered
        // implicitly inside `alloc` are not lost.
        self.violation_log.extend(violations.iter().cloned());
        self.totals.add(&counters);
        let n = violations.len() as u64;
        let record = self
            .telemetry
            .is_some()
            .then(|| self.major_record(&cycle, worker_mark, &counters, n));
        self.finish_cycle(gca_telemetry::CycleKind::Major, tally, record);
        self.last_calls = self.calls;
        Ok(GcReport {
            cycle,
            violations,
            counters,
            halted,
        })
    }

    /// Converts one major cycle's statistics into its telemetry record,
    /// attributing the checking work to assertion kinds:
    ///
    /// * `registered` — assertion API calls since the previous collection
    ///   (the delta of [`Vm::assertion_calls`]), per kind.
    /// * `header_bit_checks` — `DEAD` / `UNSHARED` bit sightings during
    ///   the trace.
    /// * `counter_bumps` — tracked-class instance counting.
    /// * `phase_work` — ownership-phase work items (owners scanned, ownees
    ///   checked, deferred ownees) and regions opened.
    /// * `extra_edges_traced` — edges traced by the pre-root (ownership)
    ///   phase that a plain collection would not have traced.
    fn major_record(
        &self,
        cycle: &gca_collector::CycleStats,
        worker_mark: Vec<std::time::Duration>,
        counters: &crate::report::CheckCounters,
        violations: u64,
    ) -> gca_telemetry::CycleRecord {
        let delta = |now: u64, then: u64| now.saturating_sub(then);
        let mut overhead = gca_telemetry::AssertionOverhead::default();
        overhead.dead.registered = delta(self.calls.dead, self.last_calls.dead);
        overhead.dead.header_bit_checks = counters.dead_bits_seen;
        overhead.region.registered =
            delta(self.calls.region_objects, self.last_calls.region_objects);
        overhead.region.phase_work =
            delta(self.calls.regions_started, self.last_calls.regions_started);
        overhead.instances.registered = delta(self.calls.instances, self.last_calls.instances);
        overhead.instances.counter_bumps = counters.tracked_instances_counted;
        overhead.unshared.registered = delta(self.calls.unshared, self.last_calls.unshared);
        overhead.unshared.header_bit_checks = counters.unshared_bits_seen;
        overhead.owned_by.registered = delta(self.calls.owned_by, self.last_calls.owned_by);
        overhead.owned_by.phase_work =
            counters.owners_scanned + counters.ownees_checked + counters.deferred_ownees_processed;
        overhead.owned_by.extra_edges_traced = cycle.pre_root_edges;

        gca_telemetry::CycleRecord {
            seq: 0, // assigned by record()
            kind: gca_telemetry::CycleKind::Major,
            total_ns: cycle.total.as_nanos() as u64,
            pre_root_ns: cycle.pre_root.as_nanos() as u64,
            mark_ns: cycle.mark.as_nanos() as u64,
            sweep_ns: cycle.sweep.as_nanos() as u64,
            objects_marked: cycle.objects_marked,
            edges_traced: cycle.edges_traced,
            pre_root_edges: cycle.pre_root_edges,
            objects_swept: cycle.objects_swept,
            words_swept: cycle.words_swept,
            promoted: 0,
            violations,
            worker_mark_ns: worker_mark
                .into_iter()
                .map(|d| d.as_nanos() as u64)
                .collect(),
            overhead,
            census: None, // filled in by `finish_cycle`
        }
    }

    /// The epilogue of every collection, major or minor: purge the region
    /// queues, spend the dirty cards, then record the census of the
    /// cycle's survivors (`tally`) and its telemetry `record` (built only
    /// when telemetry is on).
    fn finish_cycle(
        &mut self,
        kind: gca_telemetry::CycleKind,
        tally: Tally,
        record: Option<gca_telemetry::CycleRecord>,
    ) {
        // Purge region queues of entries that died during the collection
        // (their generation check now fails).
        for mutator in &mut self.mutators {
            if let Some(region) = &mut mutator.region {
                let heap = &self.heap;
                region.queue.retain(|&r| heap.is_valid(r));
            }
        }
        if self.config.generational.is_some() {
            // Every survivor is old now, so each old->young edge the cards
            // were tracking is old->old: start a clean card epoch.
            self.heap.clear_cards();
            debug_assert_eq!(
                self.heap.cards().dirty_count(),
                0,
                "card-clear postcondition: a collection must start a clean card epoch"
            );
        }
        // Minors are recorded beside majors but never feed the drift
        // windows: they see only the nursery, so their histograms are not
        // comparable cycle to cycle.
        let census = self.census.as_deref_mut().map(|state| {
            let data = state.build_data(&self.heap, tally);
            if kind == gca_telemetry::CycleKind::Minor {
                state.recorder.record_minor(data.clone());
            } else {
                state.recorder.record_major(data.clone());
            }
            data
        });
        if let (Some(t), Some(mut record)) = (self.telemetry.as_deref_mut(), record) {
            // The JSONL record carries the full class histogram but only
            // the top allocation sites by bytes, keeping lines bounded.
            record.census = census.map(|d| gca_telemetry::CensusData {
                sites: d.top_sites_by_bytes(10).into_iter().cloned().collect(),
                classes: d.classes,
            });
            t.record(record);
        }
    }

    /// Runs a minor (nursery-only) collection now. **No assertions are
    /// checked** — the paper's §2.2 trade-off. Ownership metadata for
    /// reclaimed objects is still retired, and the strict-owner-lifetime
    /// extension may report.
    ///
    /// There is a nursery only in generational mode; on any other VM this
    /// is a no-op that returns zeroed statistics and records no cycle.
    ///
    /// # Errors
    ///
    /// [`VmError::Halted`] if the VM is halted. Heap errors from tracing
    /// (collector invariant violations) propagate; the failed minor is
    /// abandoned without leaving marks behind. Unlike assertion calls, a
    /// minor works in both modes.
    pub fn collect_minor(&mut self) -> Result<gca_collector::MinorStats, VmError> {
        self.check_running()?;
        if self.config.generational.is_none() {
            return Ok(gca_collector::MinorStats::default());
        }
        let roots = self.gather_roots();
        // Sources of hidden old->young edges, by strategy. The card
        // harvest is a superset of the remembered set (every dirty page's
        // live old objects, in index order) but the extra entries only
        // reference old children, which the minor trace skips — so both
        // strategies reclaim and promote exactly the same objects.
        let remembered = match self.config.minor_strategy {
            MinorStrategy::Cards => self.heap.remembered_from_cards(),
            MinorStrategy::RememberedSet => std::mem::take(&mut self.remembered),
        };
        // The census observes the nursery survivors in the same pass as a
        // major's.
        let mut tally = Tally::default();
        let mut observe = self
            .census
            .as_deref()
            .map(|state| |r: ObjRef, o: &Object| state.observe(&mut tally, r, o));
        let survivors = observe.as_mut().map(|f| f as &mut SurvivorVisitor<'_>);
        let stats = match self.config.mode {
            Mode::Base => self.collector.collect_minor(
                &mut self.heap,
                &roots,
                &remembered,
                &mut NoHooks,
                survivors,
            )?,
            Mode::Instrumented => {
                let stats = self.collector.collect_minor(
                    &mut self.heap,
                    &roots,
                    &remembered,
                    &mut self.engine,
                    survivors,
                )?;
                self.engine.after_minor(&mut self.heap);
                let (violations, _) = self.engine.drain();
                self.violation_log.extend(violations);
                stats
            }
        };
        self.minors_since_major += 1;
        self.minor_collections += 1;
        self.minor_gc_time += stats.total;
        let kind = gca_telemetry::CycleKind::Minor;
        let record = self
            .telemetry
            .is_some()
            .then(|| gca_telemetry::CycleRecord {
                kind,
                total_ns: stats.total.as_nanos() as u64,
                objects_marked: stats.objects_marked,
                edges_traced: stats.edges_traced,
                objects_swept: stats.objects_swept,
                words_swept: stats.words_swept,
                promoted: stats.promoted,
                ..Default::default()
            });
        self.finish_cycle(kind, tally, record);
        Ok(stats)
    }

    /// Number of minor collections performed (generational mode).
    pub fn minor_collections(&self) -> u64 {
        self.minor_collections
    }

    /// The GC telemetry recorded so far, borrowed from the VM: per-cycle
    /// phase spans, per-worker mark timings, per-assertion-kind overhead
    /// attribution and pause histograms.
    ///
    /// Reading costs nothing, whatever the history's length. The borrow
    /// ends before the next collection can start (that needs `&mut Vm`),
    /// so no reader sees a recorder mid-update; a caller that wants to
    /// keep a snapshot across collections writes `.clone()`, and one that
    /// publishes repeatedly brings its copy forward with
    /// [`GcTelemetry::catch_up`](gca_telemetry::GcTelemetry::catch_up).
    ///
    /// When [`VmConfig::telemetry`] is off this is the shared *disabled*
    /// default (`enabled() == false`, everything empty), so callers never
    /// need to branch on the knob.
    #[inline]
    pub fn telemetry(&self) -> &gca_telemetry::GcTelemetry {
        static DISABLED: LazyLock<gca_telemetry::GcTelemetry> = LazyLock::new(Default::default);
        match &self.telemetry {
            Some(t) => t,
            None => &DISABLED,
        }
    }

    /// The heap census recorded so far, borrowed from the VM: per-class
    /// and per-allocation-site live histograms for every cycle, the drift
    /// events flagged by the rolling-window detector, suggested
    /// `assert-instances` limits, and `heapdiff` cycle comparisons.
    ///
    /// Same contract as [`Vm::telemetry`]: free to read, `.clone()` to
    /// keep, [`HeapCensus::catch_up`](gca_telemetry::HeapCensus::catch_up)
    /// to republish. When [`VmConfig::census`] is off this is the shared
    /// *disabled* default (`enabled() == false`, everything empty).
    #[inline]
    pub fn census(&self) -> &gca_telemetry::HeapCensus {
        static DISABLED: LazyLock<gca_telemetry::HeapCensus> = LazyLock::new(Default::default);
        match &self.census {
            Some(state) => &state.recorder,
            None => &DISABLED,
        }
    }

    /// Interns an allocation-site label for [`Vm::set_alloc_site`]. With
    /// the census off this is a no-op returning
    /// [`AllocSite::UNATTRIBUTED`], so call sites need no feature branch.
    pub fn alloc_site(&mut self, name: &str) -> AllocSite {
        match self.census.as_deref_mut() {
            Some(state) => state.intern(name),
            None => AllocSite::UNATTRIBUTED,
        }
    }

    /// Sets the allocation site attributed to subsequent [`Vm::alloc`] /
    /// [`Vm::alloc_rooted`] calls, returning the previous site so callers
    /// can scope-restore. A no-op returning [`AllocSite::UNATTRIBUTED`]
    /// when the census is off.
    pub fn set_alloc_site(&mut self, site: AllocSite) -> AllocSite {
        match self.census.as_deref_mut() {
            Some(state) => state.set_current(site),
            None => AllocSite::UNATTRIBUTED,
        }
    }

    /// Total wall time spent in minor collections.
    pub fn minor_gc_time(&self) -> std::time::Duration {
        self.minor_gc_time
    }

    pub(crate) fn gather_roots(&self) -> Vec<ObjRef> {
        let mut roots: Vec<ObjRef> = Vec::with_capacity(
            self.globals.len() + self.mutators.iter().map(|m| m.roots.len()).sum::<usize>(),
        );
        roots.extend_from_slice(&self.globals);
        for m in &self.mutators {
            roots.extend_from_slice(&m.roots);
        }
        roots
    }

    // ------------------------------------------------------------------
    // Roots
    // ------------------------------------------------------------------

    /// Pushes a new frame on `m`'s shadow stack.
    ///
    /// # Errors
    ///
    /// [`VmError::NoSuchMutator`].
    pub fn push_frame(&mut self, m: MutatorId) -> Result<(), VmError> {
        let len = self.mutator(m)?.roots.len();
        self.mutator_mut(m)?.frames.push(len);
        Ok(())
    }

    /// Pops `m`'s top frame, dropping the roots registered in it.
    ///
    /// # Errors
    ///
    /// [`VmError::NoFrame`] if only the base frame remains.
    pub fn pop_frame(&mut self, m: MutatorId) -> Result<(), VmError> {
        let mu = self.mutator_mut(m)?;
        if mu.frames.len() <= 1 {
            return Err(VmError::NoFrame(m));
        }
        let base = mu.frames.pop().expect("checked length");
        mu.roots.truncate(base);
        Ok(())
    }

    /// Registers `r` as a root in `m`'s current frame, returning its slot
    /// (valid until the frame is popped) for use with [`Vm::set_root`].
    ///
    /// # Errors
    ///
    /// Reference-validity errors; null cannot be rooted directly (use a
    /// slot and [`Vm::set_root`] to clear it).
    pub fn add_root(&mut self, m: MutatorId, r: ObjRef) -> Result<usize, VmError> {
        if !self.heap.is_valid(r) {
            return Err(VmError::Heap(HeapError::StaleRef(r)));
        }
        let mu = self.mutator_mut(m)?;
        mu.roots.push(r);
        Ok(mu.roots.len() - 1)
    }

    /// Overwrites root slot `slot` of `m` (the moral equivalent of
    /// reassigning a local variable; `ObjRef::NULL` models `x = null`).
    ///
    /// # Errors
    ///
    /// [`VmError::BadRootSlot`] or reference-validity errors.
    pub fn set_root(&mut self, m: MutatorId, slot: usize, r: ObjRef) -> Result<(), VmError> {
        if r.is_some() && !self.heap.is_valid(r) {
            return Err(VmError::Heap(HeapError::StaleRef(r)));
        }
        let mu = self.mutator_mut(m)?;
        let len = mu.roots.len();
        match mu.roots.get_mut(slot) {
            Some(s) => {
                *s = r;
                Ok(())
            }
            None => Err(VmError::BadRootSlot {
                mutator: m,
                slot,
                len,
            }),
        }
    }

    /// Reads root slot `slot` of `m`.
    ///
    /// # Errors
    ///
    /// [`VmError::BadRootSlot`].
    pub fn root(&self, m: MutatorId, slot: usize) -> Result<ObjRef, VmError> {
        let mu = self.mutator(m)?;
        mu.roots.get(slot).copied().ok_or(VmError::BadRootSlot {
            mutator: m,
            slot,
            len: mu.roots.len(),
        })
    }

    /// Registers a global (static) root.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn add_global(&mut self, r: ObjRef) -> Result<(), VmError> {
        if !self.heap.is_valid(r) {
            return Err(VmError::Heap(HeapError::StaleRef(r)));
        }
        self.globals.push(r);
        Ok(())
    }

    /// Removes a global root (first occurrence).
    ///
    /// # Errors
    ///
    /// [`VmError::GlobalNotFound`].
    pub fn remove_global(&mut self, r: ObjRef) -> Result<(), VmError> {
        match self.globals.iter().position(|&g| g == r) {
            Some(i) => {
                self.globals.swap_remove(i);
                Ok(())
            }
            None => Err(VmError::GlobalNotFound(r)),
        }
    }

    // ------------------------------------------------------------------
    // GC assertions (§2 of the paper)
    // ------------------------------------------------------------------

    /// `assert-dead(p)`: triggered at the next collection if `p` is still
    /// reachable (§2.3.1).
    ///
    /// # Errors
    ///
    /// [`VmError::BaseMode`], [`VmError::Halted`] or reference-validity
    /// errors.
    pub fn assert_dead(&mut self, p: ObjRef) -> Result<(), VmError> {
        self.check_running()?;
        self.check_instrumented()?;
        self.calls.dead += 1;
        self.engine.assert_dead(&mut self.heap, p)
    }

    /// `start-region()`: begins an allocation region on mutator `m`; every
    /// object `m` allocates until [`Vm::assert_alldead`] is recorded
    /// (§2.3.2). Regions do not nest.
    ///
    /// # Errors
    ///
    /// [`VmError::RegionActive`] if `m` already has a region, plus the
    /// mode/halt errors.
    pub fn start_region(&mut self, m: MutatorId) -> Result<(), VmError> {
        self.check_running()?;
        self.check_instrumented()?;
        let mu = self.mutator_mut(m)?;
        if mu.region.is_some() {
            return Err(VmError::RegionActive(m));
        }
        mu.region = Some(Region::default());
        self.calls.regions_started += 1;
        Ok(())
    }

    /// `assert-alldead()`: ends `m`'s region and asserts every object
    /// allocated inside it dead (queued objects that were already
    /// reclaimed pass trivially). Returns the number of objects asserted.
    ///
    /// # Errors
    ///
    /// [`VmError::NoRegion`] if no region is active, plus the mode/halt
    /// errors.
    pub fn assert_alldead(&mut self, m: MutatorId) -> Result<usize, VmError> {
        self.check_running()?;
        self.check_instrumented()?;
        let mu = self.mutator_mut(m)?;
        let region = mu.region.take().ok_or(VmError::NoRegion(m))?;
        let mut asserted = 0;
        for r in region.queue {
            if self.heap.is_valid(r) {
                self.engine.assert_dead(&mut self.heap, r)?;
                asserted += 1;
            }
        }
        self.calls.region_objects += asserted as u64;
        Ok(asserted)
    }

    /// `assert-instances(T, I)`: triggered when more than `limit` live
    /// instances of `class` exist at collection time (§2.4.1). Passing 0
    /// asserts that no instances exist at GC time.
    ///
    /// # Errors
    ///
    /// Mode/halt errors.
    pub fn assert_instances(&mut self, class: ClassId, limit: u32) -> Result<(), VmError> {
        self.check_running()?;
        self.check_instrumented()?;
        self.calls.instances += 1;
        self.heap.registry_mut().track_instances(class, limit);
        Ok(())
    }

    /// `assert-unshared(p)`: triggered if `p` is found with more than one
    /// incoming pointer (§2.5.1).
    ///
    /// # Errors
    ///
    /// Mode/halt or reference-validity errors.
    pub fn assert_unshared(&mut self, p: ObjRef) -> Result<(), VmError> {
        self.check_running()?;
        self.check_instrumented()?;
        self.calls.unshared += 1;
        self.engine.assert_unshared(&mut self.heap, p)
    }

    /// `assert-ownedby(p, q)`: triggered if, at a collection, no path to
    /// ownee `q` passes through owner `p` (§2.5.2).
    ///
    /// # Errors
    ///
    /// [`VmError::OwnershipConflict`] for disjointness violations, plus
    /// mode/halt and reference-validity errors.
    pub fn assert_owned_by(&mut self, owner: ObjRef, ownee: ObjRef) -> Result<(), VmError> {
        self.check_running()?;
        self.check_instrumented()?;
        self.calls.owned_by += 1;
        self.engine.assert_owned_by(&mut self.heap, owner, ownee)
    }

    /// Withdraws the ownership assertion on `ownee` (the program removed
    /// it legitimately and no longer expects the property). Returns
    /// whether an assertion was present.
    ///
    /// # Errors
    ///
    /// Mode/halt errors.
    pub fn release_ownee(&mut self, ownee: ObjRef) -> Result<bool, VmError> {
        self.check_running()?;
        self.check_instrumented()?;
        Ok(self.engine.release_ownee(&mut self.heap, ownee))
    }

    /// Withdraws an `assert_dead` (clears the `DEAD` bit) — useful when a
    /// destroyed object is legitimately resurrected in tests.
    ///
    /// # Errors
    ///
    /// Mode/halt or reference-validity errors.
    pub fn retract_dead(&mut self, p: ObjRef) -> Result<(), VmError> {
        self.check_running()?;
        self.check_instrumented()?;
        self.heap.clear_flag(p, Flags::DEAD)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Direct read access to the heap (detectors and tests).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// A stop-the-world snapshot of all roots (thread stacks + globals),
    /// as the collector would see them.
    pub fn roots(&self) -> Vec<ObjRef> {
        self.gather_roots()
    }

    /// Cumulative collector statistics (GC time for the figures).
    pub fn gc_stats(&self) -> &GcStats {
        self.collector.stats()
    }

    /// Cumulative heap statistics.
    pub fn heap_stats(&self) -> &HeapStats {
        self.heap.stats()
    }

    /// Cumulative assertion-call counts.
    pub fn assertion_calls(&self) -> &AssertionCallCounts {
        &self.calls
    }

    /// Current heap budget in words (may have grown).
    pub fn heap_budget(&self) -> usize {
        self.budget
    }

    /// Number of registered owner objects.
    pub fn owner_count(&self) -> usize {
        self.engine.owner_count()
    }

    /// Number of registered ownee objects.
    pub fn ownee_count(&self) -> usize {
        self.engine.ownee_count()
    }

    /// All violations detected so far, including those from collections
    /// triggered implicitly by allocation pressure.
    pub fn violation_log(&self) -> &[crate::violation::Violation] {
        &self.violation_log
    }

    /// Takes (and clears) the cumulative violation log.
    pub fn take_violation_log(&mut self) -> Vec<crate::violation::Violation> {
        std::mem::take(&mut self.violation_log)
    }

    /// Cumulative assertion-checking work across all collections.
    pub fn check_totals(&self) -> &crate::report::CheckCounters {
        &self.totals
    }

    /// Total collections performed (implicit and explicit).
    pub fn collections(&self) -> u64 {
        self.gc_stats().collections
    }

    /// Whether the VM halted after a violation under [`Reaction::Halt`].
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The configuration the VM was built with.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }
}
