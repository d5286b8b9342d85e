//! Per-cycle records and the cumulative [`GcTelemetry`] snapshot.

use std::time::Duration;

use crate::attr::AssertionOverhead;
use crate::census::CensusData;
use crate::hist::LatencyHistogram;

/// The kind of collection a [`CycleRecord`] describes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CycleKind {
    /// A full-heap (major) collection — the paper's MarkSweep cycle, where
    /// every assertion is checked.
    #[default]
    Major,
    /// A nursery-only (minor) collection (§2.2: assertions go unchecked).
    Minor,
}

impl CycleKind {
    /// Stable lowercase label used by the exporters.
    pub(crate) fn label(self) -> &'static str {
        match self {
            CycleKind::Major => "major",
            CycleKind::Minor => "minor",
        }
    }
}

/// The phases a collection cycle's wall time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcPhase {
    /// The hooks' pre-root phase (the ownership phase, §2.5.2).
    PreRoot,
    /// Root scan plus transitive mark.
    Mark,
    /// Sweep.
    Sweep,
    /// A whole minor collection (not split further: the nursery is small).
    Minor,
}

impl GcPhase {
    /// All phases, in reporting order.
    pub(crate) const ALL: [GcPhase; 4] = [
        GcPhase::PreRoot,
        GcPhase::Mark,
        GcPhase::Sweep,
        GcPhase::Minor,
    ];

    /// Stable lowercase label used by the exporters.
    pub(crate) fn label(self) -> &'static str {
        match self {
            GcPhase::PreRoot => "pre_root",
            GcPhase::Mark => "mark",
            GcPhase::Sweep => "sweep",
            GcPhase::Minor => "minor",
        }
    }

    fn index(self) -> usize {
        match self {
            GcPhase::PreRoot => 0,
            GcPhase::Mark => 1,
            GcPhase::Sweep => 2,
            GcPhase::Minor => 3,
        }
    }
}

/// Everything observed about one collection cycle — the unit of the JSONL
/// export (one record per line).
///
/// All times are integer nanoseconds so records round-trip exactly through
/// the exporters. For a [`CycleKind::Minor`] record only `total_ns`,
/// `objects_marked`, `edges_traced`, `objects_swept`, `words_swept` and
/// `promoted` are meaningful; the phase-span fields (`pre_root_ns`,
/// `mark_ns`, `sweep_ns`), `pre_root_edges`, `violations`,
/// `worker_mark_ns` and `overhead` stay zero *by construction* — minors
/// are nursery-only, run sequentially and check no assertions (§2.2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleRecord {
    /// 1-based cycle ordinal within the snapshot (assigned by
    /// [`GcTelemetry::record`]; majors and minors share the sequence).
    pub seq: u64,
    /// Major or minor.
    pub kind: CycleKind,
    /// Wall time of the whole cycle.
    pub total_ns: u64,
    /// Wall time of the pre-root (ownership) phase.
    pub pre_root_ns: u64,
    /// Wall time of the mark phase.
    pub mark_ns: u64,
    /// Wall time of the sweep.
    pub sweep_ns: u64,
    /// Objects newly marked (live objects).
    pub objects_marked: u64,
    /// Reference edges traversed, including ownership-phase edges.
    pub edges_traced: u64,
    /// The subset of `edges_traced` traced during the pre-root
    /// (ownership) phase — edges the collection would not have traced
    /// without `assert-ownedby` work.
    pub pre_root_edges: u64,
    /// Objects reclaimed.
    pub objects_swept: u64,
    /// Words reclaimed.
    pub words_swept: u64,
    /// Young objects promoted (minor cycles only).
    pub promoted: u64,
    /// Assertion violations detected this cycle.
    pub violations: u64,
    /// Per-worker busy time inside the mark phase, indexed by worker.
    /// Sequential collections report one entry (the whole mark span);
    /// parallel collections report one entry per tracing worker.
    pub worker_mark_ns: Vec<u64>,
    /// Assertion-checking work this cycle, attributed by kind.
    pub overhead: AssertionOverhead,
    /// Heap census for this cycle (per-class live totals plus top
    /// allocation sites), present only when the VM's census knob is on.
    /// Minor cycles carry nursery-survivor totals only.
    pub census: Option<CensusData>,
}

impl CycleRecord {
    /// The wall time of one phase of this record.
    pub(crate) fn phase_ns(&self, phase: GcPhase) -> u64 {
        match phase {
            GcPhase::PreRoot => self.pre_root_ns,
            GcPhase::Mark => self.mark_ns,
            GcPhase::Sweep => self.sweep_ns,
            GcPhase::Minor => match self.kind {
                CycleKind::Minor => self.total_ns,
                CycleKind::Major => 0,
            },
        }
    }
}

/// A cumulative telemetry snapshot: per-cycle records plus rolled-up
/// counters, phase totals, per-worker mark times and pause histograms.
///
/// Obtained from `Vm::telemetry()`. The default value is the *disabled*
/// snapshot (everything empty, [`GcTelemetry::enabled`] false) — the VM
/// returns it when the `telemetry` knob is off, so callers never need to
/// branch.
///
/// # Example
///
/// ```
/// use gca_telemetry::{CycleRecord, GcPhase, GcTelemetry};
///
/// let mut t = GcTelemetry::new();
/// t.record(CycleRecord {
///     total_ns: 1_000,
///     mark_ns: 700,
///     sweep_ns: 300,
///     worker_mark_ns: vec![700],
///     ..Default::default()
/// });
/// assert_eq!(t.cycles(), 1);
/// assert_eq!(t.phase_total(GcPhase::Mark).as_nanos(), 700);
/// assert_eq!(t.pause_histogram().count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcTelemetry {
    enabled: bool,
    records: Vec<CycleRecord>,
    majors: u64,
    minors: u64,
    phase_total_ns: [u64; 4],
    total_pause_ns: u64,
    worker_mark_ns: Vec<u64>,
    overhead: AssertionOverhead,
    pause: LatencyHistogram,
    minor_pause: LatencyHistogram,
    violations: u64,
}

impl GcTelemetry {
    /// Creates an empty, *enabled* snapshot (the recorder the VM owns when
    /// the telemetry knob is on).
    pub fn new() -> GcTelemetry {
        GcTelemetry {
            enabled: true,
            ..Default::default()
        }
    }

    /// Whether this snapshot came from a VM with telemetry enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Folds one cycle into the snapshot, assigning its `seq`.
    pub fn record(&mut self, mut record: CycleRecord) {
        record.seq = self.records.len() as u64 + 1;
        match record.kind {
            CycleKind::Major => {
                self.majors += 1;
                self.pause.record_ns(record.total_ns);
            }
            CycleKind::Minor => {
                self.minors += 1;
                self.minor_pause.record_ns(record.total_ns);
            }
        }
        for phase in GcPhase::ALL {
            self.phase_total_ns[phase.index()] += record.phase_ns(phase);
        }
        self.total_pause_ns += record.total_ns;
        for (i, &ns) in record.worker_mark_ns.iter().enumerate() {
            if self.worker_mark_ns.len() <= i {
                self.worker_mark_ns.push(0);
            }
            self.worker_mark_ns[i] += ns;
        }
        self.overhead.absorb(&record.overhead);
        self.violations += record.violations;
        self.records.push(record);
    }

    /// Brings `self`, a copy of an earlier state of `src`, up to `src` by
    /// appending the records `src` has gained and copying the roll-ups —
    /// work proportional to what happened since the copy was last brought
    /// forward, not to the history. Afterwards `*self == *src`. Returns
    /// at once when `src` has recorded nothing new.
    ///
    /// Total: when `self` is not a prefix of `src` (longer, the other
    /// `enabled` state, or another recorder's history) the whole of `src`
    /// is copied. The prefix test is made at the boundary — `self`'s last
    /// record against `src`'s at that position; records carry measured
    /// times, so two histories do not agree there by accident. The cycle
    /// counts are written last and are what "nothing new" reads, so a copy
    /// abandoned mid-update (records extended, roll-ups stale) is
    /// completed by the next call.
    pub fn catch_up(&mut self, src: &GcTelemetry) {
        let have = self.records.len();
        let is_prefix = self.enabled == src.enabled
            && have <= src.records.len()
            && self.records.last() == src.records[..have].last();
        if !is_prefix {
            self.clone_from(src);
            return;
        }
        if have == src.records.len() && (self.majors, self.minors) == (src.majors, src.minors) {
            return;
        }
        self.records.extend_from_slice(&src.records[have..]);
        self.phase_total_ns = src.phase_total_ns;
        self.total_pause_ns = src.total_pause_ns;
        self.worker_mark_ns.clone_from(&src.worker_mark_ns);
        self.overhead = src.overhead;
        self.pause.clone_from(&src.pause);
        self.minor_pause.clone_from(&src.minor_pause);
        self.violations = src.violations;
        self.majors = src.majors;
        self.minors = src.minors;
    }

    /// Major collection cycles recorded.
    pub fn cycles(&self) -> u64 {
        self.majors
    }

    /// Minor collection cycles recorded.
    pub fn minor_cycles(&self) -> u64 {
        self.minors
    }

    /// Violations across all recorded cycles.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Every recorded cycle, in order.
    pub fn records(&self) -> &[CycleRecord] {
        &self.records
    }

    /// Cumulative wall time attributed to `phase` across all cycles.
    pub fn phase_total(&self, phase: GcPhase) -> Duration {
        Duration::from_nanos(self.phase_total_ns[phase.index()])
    }

    /// Cumulative pause time (major + minor cycle totals).
    pub fn total_pause(&self) -> Duration {
        Duration::from_nanos(self.total_pause_ns)
    }

    /// Cumulative per-worker mark-phase busy time in nanoseconds. The
    /// length is the highest worker count seen in any cycle; sequential
    /// cycles contribute to worker 0.
    pub fn worker_mark_ns(&self) -> &[u64] {
        &self.worker_mark_ns
    }

    /// Cumulative assertion-checking work, attributed by kind.
    pub fn overhead(&self) -> &AssertionOverhead {
        &self.overhead
    }

    /// Log-scale histogram of major-cycle pause times.
    pub fn pause_histogram(&self) -> &LatencyHistogram {
        &self.pause
    }

    /// Log-scale histogram of minor-cycle pause times.
    pub fn minor_pause_histogram(&self) -> &LatencyHistogram {
        &self.minor_pause
    }

    /// Serializes every recorded cycle as JSON lines (one record per
    /// line), optionally labelled with a benchmark name. See
    /// [`crate::export::records_to_jsonl`].
    pub fn to_jsonl(&self, bench: Option<&str>) -> String {
        crate::export::records_to_jsonl(&self.records, bench)
    }

    /// Renders the snapshot in Prometheus text exposition format. See
    /// [`crate::export::to_prometheus`].
    pub fn to_prometheus(&self) -> String {
        crate::export::to_prometheus(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn major(total: u64, pre: u64, mark: u64, sweep: u64, workers: &[u64]) -> CycleRecord {
        CycleRecord {
            kind: CycleKind::Major,
            total_ns: total,
            pre_root_ns: pre,
            mark_ns: mark,
            sweep_ns: sweep,
            worker_mark_ns: workers.to_vec(),
            ..Default::default()
        }
    }

    #[test]
    fn default_is_disabled_and_empty() {
        let t = GcTelemetry::default();
        assert!(!t.enabled());
        assert_eq!(t.cycles(), 0);
        assert_eq!(t.records().len(), 0);
        assert!(t.pause_histogram().is_empty());
    }

    #[test]
    fn record_assigns_sequence_and_rolls_up() {
        let mut t = GcTelemetry::new();
        assert!(t.enabled());
        t.record(major(100, 10, 60, 30, &[60]));
        t.record(major(200, 20, 120, 60, &[70, 50]));
        t.record(CycleRecord {
            kind: CycleKind::Minor,
            total_ns: 40,
            promoted: 3,
            ..Default::default()
        });
        assert_eq!(t.cycles(), 2);
        assert_eq!(t.minor_cycles(), 1);
        assert_eq!(t.records()[0].seq, 1);
        assert_eq!(t.records()[2].seq, 3);
        assert_eq!(t.phase_total(GcPhase::PreRoot).as_nanos(), 30);
        assert_eq!(t.phase_total(GcPhase::Mark).as_nanos(), 180);
        assert_eq!(t.phase_total(GcPhase::Sweep).as_nanos(), 90);
        assert_eq!(t.phase_total(GcPhase::Minor).as_nanos(), 40);
        assert_eq!(t.total_pause().as_nanos(), 340);
        // Ragged worker vectors accumulate element-wise.
        assert_eq!(t.worker_mark_ns(), &[130, 50]);
        assert_eq!(t.pause_histogram().count(), 2);
        assert_eq!(t.minor_pause_histogram().count(), 1);
    }

    #[test]
    fn catch_up_completes_a_copy_abandoned_mid_update() {
        let mut src = GcTelemetry::new();
        src.record(major(100, 10, 60, 30, &[60]));
        let mut copy = src.clone();
        src.record(major(200, 20, 120, 60, &[70, 50]));
        // What a publisher dying between the append and the roll-ups
        // leaves behind: every record, stale totals.
        copy.records.extend_from_slice(&src.records[1..]);
        assert_ne!(copy, src);
        copy.catch_up(&src);
        assert_eq!(copy, src);
    }

    #[test]
    fn phase_ns_maps_minor_total() {
        let minor = CycleRecord {
            kind: CycleKind::Minor,
            total_ns: 99,
            ..Default::default()
        };
        assert_eq!(minor.phase_ns(GcPhase::Minor), 99);
        assert_eq!(minor.phase_ns(GcPhase::Mark), 0);
        let major = major(100, 1, 2, 3, &[]);
        assert_eq!(major.phase_ns(GcPhase::Minor), 0);
        assert_eq!(major.phase_ns(GcPhase::PreRoot), 1);
    }

    #[test]
    fn labels() {
        assert_eq!(CycleKind::Major.label(), "major");
        assert_eq!(CycleKind::Minor.label(), "minor");
        let labels: Vec<&str> = GcPhase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["pre_root", "mark", "sweep", "minor"]);
    }
}
