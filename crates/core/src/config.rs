//! VM configuration.

/// How the VM reacts when a collection detects assertion violations
/// (§2.6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reaction {
    /// Log the error (into the [`crate::GcReport`]) and continue executing.
    /// This retains the semantics of the program without any assertions
    /// and is the paper's chosen default.
    #[default]
    Log,
    /// Log the error and halt: the VM refuses further mutator work, for
    /// assertions whose failure indicates a non-recoverable error.
    Halt,
    /// Force lifetime assertions to be true: the collector nulls out all
    /// incoming references to asserted-dead objects that it encountered
    /// during the trace, so the object is reclaimed at the *next*
    /// collection. As the paper notes, this may let a program run longer
    /// without exhausting memory but risks introducing null-pointer
    /// errors in the mutator.
    ForceTrue,
}

/// Which collector configuration the VM runs — the three configurations of
/// the paper's evaluation (§3.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Unmodified collector ([`gca_collector::NoHooks`]); the assertion API
    /// is unavailable. Paper configuration **Base**.
    Base,
    /// Collector with the assertion engine attached. With no assertions
    /// registered this measures the infrastructure overhead (paper
    /// configuration **Infrastructure**); with assertions registered it is
    /// **WithAssertions**.
    #[default]
    Instrumented,
}

/// Which garbage-collection algorithm backs major collections.
///
/// The paper's machinery (§2.2–2.5) is defined in terms of the *trace*,
/// not of any particular collector; this enum makes that claim executable
/// by offering two structurally different backends that must agree on
/// every assertion verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectorKind {
    /// The paper's MarkSweep plan: non-moving trace-and-sweep, with the
    /// sequential DFS tracer or the parallel work-stealing mark phase
    /// depending on [`VmConfig::gc_threads`].
    #[default]
    MarkSweep,
    /// A semispace copying (Cheney-scan) collector: survivors are
    /// evacuated to the to-space in BFS order, the spaces flip, and
    /// assertion checks ride along at evacuation time. Copying changes
    /// *when* (at which address) objects live, not *whether* they are
    /// live, so all assertion verdicts are identical to MarkSweep.
    /// Full-heap and sequential: incompatible with
    /// [`VmConfig::generational`] and with `gc_threads > 1`.
    Copying,
}

/// How a generational *minor* collection discovers old→young references.
///
/// Both strategies produce bit-identical collection results — the same
/// survivors, promotions and assertion verdicts — because any extra old
/// object a card scan visits acquired no young reference since the last
/// collection, so its children are old and the minor trace skips them.
/// Only scan-effort statistics
/// differ. The knob exists so the equivalence is testable (and so the
/// ablation benches can price each barrier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MinorStrategy {
    /// Harvest the heap's card table: every reference-field store dirties
    /// the *source* page's card (an unconditional one-bit write), and the
    /// minor scans the old objects resident on dirty pages. Cheapest
    /// barrier; the scan may visit old objects that never acquired a
    /// young reference.
    #[default]
    Cards,
    /// Maintain an exact remembered-set side list: the write barrier
    /// tests the source and target generations and logs old objects that
    /// acquire young references (deduplicated by the `REMEMBERED` header
    /// bit). Costlier barrier; minimal scan.
    RememberedSet,
}

/// The classes of assertion a [`Reaction`] override can target — §2.6
/// suggests "different actions based on the class of assertion that is
/// violated" as future work; this implements it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssertionClass {
    /// `assert-dead` and region assertions (lifetime).
    Lifetime,
    /// `assert-instances` (volume).
    Volume,
    /// `assert-unshared` and `assert-ownedby` (connectivity/ownership).
    Connectivity,
}

/// Configuration for a [`crate::Vm`].
///
/// # Example
///
/// ```
/// use gc_assertions::{Reaction, VmConfig};
///
/// let config = VmConfig::builder()
///     .heap_budget(64 * 1024)
///     .grow_on_oom(false)
///     .reaction(Reaction::Log)
///     .build();
/// assert_eq!(config.heap_budget, 64 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Heap budget in words; an allocation that would exceed it triggers a
    /// collection first. The paper's methodology fixes this at 2× the
    /// minimum heap for each benchmark.
    pub heap_budget: usize,
    /// If `true`, the budget doubles when a collection cannot make room
    /// (convenient default); if `false`, allocation fails with
    /// out-of-memory, as on a fixed experimental heap.
    pub grow: bool,
    /// Reaction to assertion violations.
    pub reaction: Reaction,
    /// Collector configuration (Base vs Instrumented).
    pub mode: Mode,
    /// Use the path-tracking worklist so reports carry full heap paths
    /// (§2.7). Disabling it removes the per-object worklist overhead and
    /// all path information; exposed for the ablation benchmark.
    pub path_tracking: bool,
    /// Report each violating object only once across collections (via the
    /// `REPORTED` header bit) instead of on every collection it survives.
    pub report_once: bool,
    /// Extension (not in the paper): when an owner dies, report any of its
    /// ownees that are still live, instead of silently dropping the pair.
    pub strict_owner_lifetime: bool,
    /// Per-assertion-class reaction overrides (paper §2.6 future work);
    /// classes without an override use [`VmConfig::reaction`].
    pub reaction_overrides: Vec<(AssertionClass, Reaction)>,
    /// Generational collection (paper §2.2): `Some(n)` makes
    /// allocation-triggered collections *minor* (nursery-only, no
    /// assertion checks) with a full major collection forced after `n`
    /// consecutive minors — demonstrating the paper's observation that a
    /// generational collector lets assertions go unchecked for long
    /// periods. `None` (default) is the paper's full-heap MarkSweep.
    pub generational: Option<usize>,
    /// Number of tracing workers for *major* collections. `1` (default)
    /// runs the sequential tracer with the §2.7 path-tracking worklist;
    /// `> 1` runs the work-stealing parallel mark phase with per-worker
    /// assertion shards (paths are then reconstructed on demand for
    /// flagged objects, so a report may show a different — equally valid —
    /// retaining path). `0` means *auto*: one worker per available core.
    /// Minor collections are always sequential (the nursery is small).
    pub gc_threads: usize,
    /// Record GC telemetry: per-cycle phase spans, per-worker mark
    /// timings, per-assertion-kind overhead attribution and pause
    /// histograms, exposed via `Vm::telemetry()`. Off by default —
    /// telemetry is pure observation (records are derived from cycle
    /// statistics *after* each collection), so disabling it leaves the
    /// collector's hot paths untouched.
    pub telemetry: bool,
    /// Record a heap census: per-class and per-allocation-site live
    /// object/byte histograms accumulated during each mark, with a
    /// rolling-window drift detector over major cycles, exposed via
    /// `Vm::census()`. Off by default — the census observes marking but
    /// never changes which objects are marked, swept, or reported, so
    /// census-on runs are bit-identical to census-off runs in everything
    /// except the census itself.
    pub census: bool,
    /// Which collector algorithm backs major collections (see
    /// [`CollectorKind`]). Defaults to the paper's MarkSweep.
    pub collector: CollectorKind,
    /// How minor collections discover old→young references (see
    /// [`MinorStrategy`]); irrelevant unless [`VmConfig::generational`]
    /// is set. Defaults to card marking.
    pub minor_strategy: MinorStrategy,
    /// Shard identity when this VM is one member of a fleet (the soak
    /// harness runs one VM per shard thread). Purely informational: the
    /// VM never branches on it, but exporters use it to label telemetry
    /// series and event records with their shard of origin. `None`
    /// (default) for a standalone VM.
    pub shard: Option<u64>,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            heap_budget: 1 << 20,
            grow: true,
            reaction: Reaction::Log,
            mode: Mode::Instrumented,
            path_tracking: true,
            report_once: true,
            strict_owner_lifetime: false,
            reaction_overrides: Vec::new(),
            generational: None,
            gc_threads: 1,
            telemetry: false,
            census: false,
            collector: CollectorKind::MarkSweep,
            minor_strategy: MinorStrategy::Cards,
            shard: None,
        }
    }
}

impl VmConfig {
    /// Sets the violation reaction.
    #[must_use]
    pub fn reaction(mut self, reaction: Reaction) -> VmConfig {
        self.reaction = reaction;
        self
    }

    /// Sets the collector configuration.
    #[must_use]
    pub fn mode(mut self, mode: Mode) -> VmConfig {
        self.mode = mode;
        self
    }

    /// Enables or disables the path-tracking worklist.
    #[must_use]
    pub fn path_tracking(mut self, on: bool) -> VmConfig {
        self.path_tracking = on;
        self
    }

    /// Enables generational collection with a major collection forced
    /// after `major_every` consecutive minors.
    #[must_use]
    pub fn generational(mut self, major_every: usize) -> VmConfig {
        self.generational = Some(major_every.max(1));
        self
    }

    /// Sets the number of tracing workers for major collections
    /// (`0` = auto, one per available core).
    #[must_use]
    pub fn gc_threads(mut self, workers: usize) -> VmConfig {
        self.gc_threads = workers;
        self
    }

    /// Enables or disables GC telemetry recording.
    #[must_use]
    pub fn telemetry(mut self, on: bool) -> VmConfig {
        self.telemetry = on;
        self
    }

    /// Enables or disables the heap census (see [`VmConfig::census`]).
    #[must_use]
    pub fn census(mut self, on: bool) -> VmConfig {
        self.census = on;
        self
    }

    /// Selects the collector algorithm for major collections.
    #[must_use]
    pub fn collector(mut self, kind: CollectorKind) -> VmConfig {
        self.collector = kind;
        self
    }

    /// Selects how minor collections discover old→young references.
    #[must_use]
    pub fn minor_strategy(mut self, strategy: MinorStrategy) -> VmConfig {
        self.minor_strategy = strategy;
        self
    }

    /// The effective reaction for an assertion class.
    pub fn effective_reaction(&self, class: AssertionClass) -> Reaction {
        self.reaction_overrides
            .iter()
            .rev()
            .find(|(c, _)| *c == class)
            .map(|(_, r)| *r)
            .unwrap_or(self.reaction)
    }

    /// The resolved tracing-worker count: `gc_threads`, with `0` mapped to
    /// the number of available cores.
    pub(crate) fn effective_gc_threads(&self) -> usize {
        match self.gc_threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// Checks the rules every configuration must satisfy: the heap
    /// budget is non-zero, and the copying collector is neither
    /// generational (it is full-heap) nor run with `gc_threads > 1` (the
    /// Cheney scan is sequential). [`VmConfigBuilder::build`] and
    /// [`crate::Vm::new`] panic with the message; a `config` line of a
    /// `.gca` script reports it as an error.
    ///
    /// # Errors
    ///
    /// The first rule broken, as a message.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.heap_budget == 0 {
            return Err("heap budget must be non-zero");
        }
        if self.collector == CollectorKind::Copying {
            if self.generational.is_some() {
                return Err("the copying collector is full-heap; it cannot be generational");
            }
            if self.gc_threads > 1 {
                return Err(
                    "the copying collector's Cheney scan is sequential; gc-threads must be 0 or 1",
                );
            }
        }
        Ok(())
    }

    /// Panics with [`VmConfig::validate`]'s message if a rule is broken.
    pub(crate) fn assert_valid(&self) {
        if let Err(why) = self.validate() {
            panic!("VmConfig: {why}");
        }
    }

    /// Starts a fluent [`VmConfigBuilder`], the preferred way to assemble
    /// a configuration:
    ///
    /// ```
    /// use gc_assertions::{AssertionClass, Reaction, VmConfig};
    ///
    /// let config = VmConfig::builder()
    ///     .heap_budget(64 * 1024)
    ///     .gc_threads(4)
    ///     .reaction_for(AssertionClass::Lifetime, Reaction::ForceTrue)
    ///     .build();
    /// assert_eq!(config.heap_budget, 64 * 1024);
    /// assert_eq!(config.gc_threads, 4);
    /// ```
    pub fn builder() -> VmConfigBuilder {
        VmConfigBuilder {
            config: VmConfig::default(),
        }
    }
}

/// Fluent builder for [`VmConfig`], obtained from [`VmConfig::builder`].
///
/// Every setter takes and returns the builder by value, so a
/// configuration reads as one chain ending in [`build`](Self::build),
/// which validates the combination before handing back the finished
/// [`VmConfig`].
#[derive(Debug, Clone)]
#[must_use = "call .build() to obtain the VmConfig"]
pub struct VmConfigBuilder {
    config: VmConfig,
}

impl VmConfigBuilder {
    /// Sets the heap budget in words (must be non-zero).
    pub fn heap_budget(mut self, words: usize) -> VmConfigBuilder {
        self.config.heap_budget = words;
        self
    }

    /// Sets whether the heap may grow when full.
    pub fn grow_on_oom(mut self, grow: bool) -> VmConfigBuilder {
        self.config.grow = grow;
        self
    }

    /// Sets the violation reaction.
    pub fn reaction(mut self, reaction: Reaction) -> VmConfigBuilder {
        self.config.reaction = reaction;
        self
    }

    /// Sets the collector configuration (Base vs Instrumented).
    pub fn mode(mut self, mode: Mode) -> VmConfigBuilder {
        self.config.mode = mode;
        self
    }

    /// Enables or disables the path-tracking worklist.
    pub fn path_tracking(mut self, on: bool) -> VmConfigBuilder {
        self.config.path_tracking = on;
        self
    }

    /// Enables or disables once-only violation reporting.
    pub fn report_once(mut self, on: bool) -> VmConfigBuilder {
        self.config.report_once = on;
        self
    }

    /// Enables the strict owner-lifetime extension.
    pub fn strict_owner_lifetime(mut self, on: bool) -> VmConfigBuilder {
        self.config.strict_owner_lifetime = on;
        self
    }

    /// Enables generational collection with a major collection forced
    /// after `major_every` consecutive minors (clamped to at least 1).
    pub fn generational(mut self, major_every: usize) -> VmConfigBuilder {
        self.config.generational = Some(major_every.max(1));
        self
    }

    /// Sets the number of tracing workers for major collections
    /// (`0` = auto, one per available core).
    pub fn gc_threads(mut self, workers: usize) -> VmConfigBuilder {
        self.config.gc_threads = workers;
        self
    }

    /// Enables or disables GC telemetry recording (see
    /// [`VmConfig::telemetry`]).
    pub fn telemetry(mut self, on: bool) -> VmConfigBuilder {
        self.config.telemetry = on;
        self
    }

    /// Enables or disables the heap census (see [`VmConfig::census`]).
    pub fn census(mut self, on: bool) -> VmConfigBuilder {
        self.config.census = on;
        self
    }

    /// Selects the collector algorithm for major collections (see
    /// [`CollectorKind`]).
    pub fn collector(mut self, kind: CollectorKind) -> VmConfigBuilder {
        self.config.collector = kind;
        self
    }

    /// Selects how minor collections discover old→young references (see
    /// [`MinorStrategy`]).
    pub fn minor_strategy(mut self, strategy: MinorStrategy) -> VmConfigBuilder {
        self.config.minor_strategy = strategy;
        self
    }

    /// Tags this VM as shard `shard` of a fleet (see [`VmConfig::shard`]).
    pub fn shard(mut self, shard: u64) -> VmConfigBuilder {
        self.config.shard = Some(shard);
        self
    }

    /// Overrides the reaction for one assertion class (later overrides
    /// for the same class win).
    pub fn reaction_for(mut self, class: AssertionClass, reaction: Reaction) -> VmConfigBuilder {
        self.config.reaction_overrides.push((class, reaction));
        self
    }

    /// Validates the assembled configuration and returns it.
    ///
    /// # Panics
    ///
    /// If [`VmConfig::validate`] rejects the configuration, with its
    /// message.
    pub fn build(self) -> VmConfig {
        self.config.assert_valid();
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = VmConfig::default();
        assert_eq!(c.reaction, Reaction::Log);
        assert_eq!(c.mode, Mode::Instrumented);
        assert!(c.path_tracking);
        assert!(c.report_once);
        assert!(!c.strict_owner_lifetime);
        assert!(c.grow);
        assert!(!c.telemetry, "telemetry is observably dark by default");
        assert!(!c.census, "census is observably dark by default");
        assert_eq!(c.shard, None, "standalone VMs carry no shard tag");
    }

    #[test]
    fn shard_tag_round_trips_through_both_builders() {
        assert_eq!(VmConfig::builder().shard(7).build().shard, Some(7));
        assert_eq!(VmConfig::builder().build().shard, None);
    }

    #[test]
    fn builder_chains() {
        let c = VmConfig::default()
            .reaction(Reaction::Halt)
            .mode(Mode::Base)
            .path_tracking(false)
            .generational(0)
            .gc_threads(4)
            .telemetry(true)
            .census(true)
            .minor_strategy(MinorStrategy::RememberedSet);
        assert_eq!(c.reaction, Reaction::Halt);
        assert_eq!(c.mode, Mode::Base);
        assert!(!c.path_tracking);
        assert_eq!(c.generational, Some(1)); // clamped
        assert_eq!(c.gc_threads, 4);
        assert!(c.telemetry);
        assert!(c.census);
        assert_eq!(c.minor_strategy, MinorStrategy::RememberedSet);
    }

    #[test]
    fn fluent_builder_equals_chained_setters() {
        let built = VmConfig::builder()
            .heap_budget(123)
            .grow_on_oom(false)
            .reaction(Reaction::Halt)
            .mode(Mode::Base)
            .path_tracking(false)
            .report_once(false)
            .strict_owner_lifetime(true)
            .generational(0)
            .gc_threads(4)
            .telemetry(true)
            .census(true)
            .reaction_for(AssertionClass::Volume, Reaction::Log)
            .build();
        assert_eq!(built.heap_budget, 123);
        assert!(!built.grow);
        assert_eq!(built.reaction, Reaction::Halt);
        assert_eq!(built.mode, Mode::Base);
        assert!(!built.path_tracking);
        assert!(!built.report_once);
        assert!(built.strict_owner_lifetime);
        assert_eq!(built.generational, Some(1)); // clamped
        assert_eq!(built.gc_threads, 4);
        assert!(built.telemetry);
        assert!(built.census);
        assert_eq!(
            built.effective_reaction(AssertionClass::Volume),
            Reaction::Log
        );
    }

    #[test]
    #[should_panic(expected = "heap budget must be non-zero")]
    fn builder_rejects_zero_budget() {
        let _ = VmConfig::builder().heap_budget(0).build();
    }

    #[test]
    fn collector_defaults_to_mark_sweep() {
        assert_eq!(VmConfig::default().collector, CollectorKind::MarkSweep);
        let c = VmConfig::builder()
            .collector(CollectorKind::Copying)
            .build();
        assert_eq!(c.collector, CollectorKind::Copying);
        let c = VmConfig::default().collector(CollectorKind::Copying);
        assert_eq!(c.collector, CollectorKind::Copying);
    }

    #[test]
    #[should_panic(expected = "full-heap")]
    fn builder_rejects_copying_generational() {
        let _ = VmConfig::builder()
            .collector(CollectorKind::Copying)
            .generational(4)
            .build();
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn builder_rejects_copying_parallel() {
        let _ = VmConfig::builder()
            .collector(CollectorKind::Copying)
            .gc_threads(4)
            .build();
    }

    #[test]
    fn gc_threads_zero_means_auto() {
        let c = VmConfig::builder().gc_threads(0).build();
        assert!(c.effective_gc_threads() >= 1);
        assert_eq!(VmConfig::default().effective_gc_threads(), 1);
    }
}
