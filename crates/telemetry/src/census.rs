//! Heap census: per-class / per-allocation-site live histograms and the
//! leak-drift detector built on top of them.
//!
//! The collector already visits every live object during the mark, so a
//! *census* — how many live objects and bytes each class and each
//! allocation site retains — comes almost for free (the paper's central
//! piggybacking trick, applied to heap *content* instead of assertions).
//! The VM accumulates raw counts during each mark (sequentially in the
//! tracer, sharded per worker in the parallel phase, survivors-only on the
//! minor path), resolves class and site names, and feeds one
//! [`CensusData`] per cycle into a [`HeapCensus`] recorder.
//!
//! On top of the per-cycle snapshots the recorder runs a **drift
//! detector**: a rolling window over the last `K` major cycles per class
//! and per site. A key whose live-object count grows monotonically across
//! a full window (or, failing strict monotonicity, shows a positive
//! integer least-squares trend that never dips below the window's first
//! sample) is flagged once as a suspected leak via a structured
//! [`CensusDrift`] event, which also carries a suggested
//! `assert-instances` limit derived from the pre-drift baseline. Classes
//! that *don't* drift get limits suggested from their observed peaks
//! ([`HeapCensus::suggested_limits`]) — pick thresholds from data, not
//! guesswork.
//!
//! Like the rest of the crate this module is dependency-free and knows
//! nothing about the heap: everything is keyed by name strings the VM
//! resolved, and all arithmetic is integer (fixed-point where fractions
//! are needed) so snapshots compare and export deterministically.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::record::CycleKind;

/// Live totals for one class or one allocation site in one cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CensusEntry {
    /// Class name or allocation-site label.
    pub name: String,
    /// Live objects observed by the mark.
    pub objects: u64,
    /// Live bytes (object size in words × 8) observed by the mark.
    pub bytes: u64,
}

/// The census payload of one collection cycle: per-class and per-site
/// live totals. Entries are sorted by name, so payloads from different
/// runs (and different worker counts) compare bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CensusData {
    /// Per-class live totals, sorted by class name.
    pub classes: Vec<CensusEntry>,
    /// Per-allocation-site live totals, sorted by site label.
    pub sites: Vec<CensusEntry>,
}

impl CensusData {
    /// Sorts both tables by name (the canonical order). The VM calls this
    /// after merging shards so equality and exports are deterministic.
    pub fn normalize(&mut self) {
        self.classes.sort_by(|a, b| a.name.cmp(&b.name));
        self.sites.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// The `n` classes retaining the most live bytes (ties broken by
    /// name), for dashboards and the Prometheus exporter.
    pub(crate) fn top_classes_by_bytes(&self, n: usize) -> Vec<&CensusEntry> {
        let mut v: Vec<&CensusEntry> = self.classes.iter().collect();
        v.sort_by(|a, b| b.bytes.cmp(&a.bytes).then_with(|| a.name.cmp(&b.name)));
        v.truncate(n);
        v
    }

    /// The `n` allocation sites retaining the most live bytes (ties by
    /// label) — the "top allocation sites" slice the JSONL record carries.
    pub fn top_sites_by_bytes(&self, n: usize) -> Vec<&CensusEntry> {
        let mut v: Vec<&CensusEntry> = self.sites.iter().collect();
        v.sort_by(|a, b| b.bytes.cmp(&a.bytes).then_with(|| a.name.cmp(&b.name)));
        v.truncate(n);
        v
    }
}

/// What kind of key a [`CensusDrift`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftScope {
    /// A class drifted.
    Class,
    /// An allocation site drifted.
    Site,
}

impl DriftScope {
    /// Stable lowercase label used by the exporters.
    pub(crate) fn label(self) -> &'static str {
        match self {
            DriftScope::Class => "class",
            DriftScope::Site => "site",
        }
    }
}

/// A structured drift event: one class or site whose live-object count
/// kept growing across the most recent full detection window — a
/// suspected leak. Drifts are *current*: a key that stops growing is
/// retracted from [`HeapCensus::drifts`] at the next major cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CensusDrift {
    /// Whether a class or an allocation site drifted.
    pub scope: DriftScope,
    /// The class name or site label.
    pub name: String,
    /// Major-census sequence number at which the key's current
    /// uninterrupted drift streak was first flagged.
    pub at_seq: u64,
    /// Window length (cycles) the detection ran over.
    pub window: usize,
    /// Live objects at the start of the window.
    pub first_objects: u64,
    /// Live objects at the end of the window.
    pub last_objects: u64,
    /// Live bytes at the end of the window.
    pub last_bytes: u64,
    /// Average growth per cycle across the window, fixed-point ×100
    /// (e.g. `250` = +2.5 objects/cycle).
    pub growth_per_cycle_x100: u64,
    /// A suggested `assert-instances(T, I)` limit: the window's starting
    /// count plus 25% headroom — tight enough that continued leaking
    /// trips the assertion, loose enough to survive the observed
    /// steady state before the drift.
    pub suggested_limit: u64,
}

impl CensusDrift {
    /// One-line human rendering, for logs.
    pub fn render(&self) -> String {
        format!(
            "drift: {} {:?} grew {} -> {} objects over {} cycles \
             (+{}.{:02}/cycle, {} bytes live); suggest assert-instances <= {}",
            self.scope.label(),
            self.name,
            self.first_objects,
            self.last_objects,
            self.window,
            self.growth_per_cycle_x100 / 100,
            self.growth_per_cycle_x100 % 100,
            self.last_bytes,
            self.suggested_limit,
        )
    }
}

/// One row of a [`HeapDiff`]: a class's retained-byte delta between two
/// cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapDiffRow {
    /// Class name.
    pub name: String,
    /// Live objects in the `from` cycle.
    pub from_objects: u64,
    /// Live objects in the `to` cycle.
    pub to_objects: u64,
    /// Live bytes in the `from` cycle.
    pub from_bytes: u64,
    /// Live bytes in the `to` cycle.
    pub to_bytes: u64,
}

impl HeapDiffRow {
    /// Object-count delta (`to - from`).
    pub(crate) fn objects_delta(&self) -> i64 {
        self.to_objects as i64 - self.from_objects as i64
    }

    /// Byte delta (`to - from`) — the sort key.
    pub fn bytes_delta(&self) -> i64 {
        self.to_bytes as i64 - self.from_bytes as i64
    }
}

/// A cycle-vs-cycle comparison: which classes grew (or shrank) between
/// census `from_seq` and census `to_seq`, sorted by retained-byte delta,
/// biggest growth first. The heap-health question "what changed between
/// then and now" answered as a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapDiff {
    /// The earlier cycle's census sequence number.
    pub from_seq: u64,
    /// The later cycle's census sequence number.
    pub to_seq: u64,
    /// Per-class deltas, sorted by byte delta descending (ties by name).
    pub rows: Vec<HeapDiffRow>,
}

impl HeapDiff {
    /// Renders the diff as a fixed-width text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "heapdiff: cycle {} -> cycle {} (sorted by delta retained bytes)\n{:<24} {:>10} {:>12} {:>10} {:>12}\n",
            self.from_seq, self.to_seq, "class", "Δobjects", "Δbytes", "objects", "bytes"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<24} {:>+10} {:>+12} {:>10} {:>12}\n",
                r.name,
                r.objects_delta(),
                r.bytes_delta(),
                r.to_objects,
                r.to_bytes
            ));
        }
        out
    }
}

/// One recorded census cycle: the payload plus its sequence number and
/// the kind of collection that produced it. Minor cycles cover the
/// nursery only (the minor trace never walks the old generation), so the
/// drift detector consumes major cycles exclusively.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleCensus {
    /// 1-based ordinal within the snapshot (majors and minors share it).
    pub seq: u64,
    /// Major (full heap) or minor (nursery survivors only).
    pub kind: CycleKind,
    /// The per-class / per-site totals.
    pub data: CensusData,
}

/// Default drift-detection window (major cycles).
pub(crate) const DEFAULT_DRIFT_WINDOW: usize = 6;

/// How many top classes/sites the Prometheus exporter emits.
pub(crate) const PROM_TOP_N: usize = 10;

/// Rolling per-key state for the drift detector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct KeyWindow {
    /// Live-object counts for the last `window` major cycles.
    counts: VecDeque<u64>,
    /// Last observed live bytes (reported in the drift event).
    last_bytes: u64,
    /// Peak live objects ever observed (for suggested limits).
    peak_objects: u64,
    /// Peak live bytes ever observed.
    peak_bytes: u64,
}

/// The census recorder a VM owns when `VmConfig::census` is on: per-cycle
/// snapshots, rolling drift windows, the active [`CensusDrift`] set and
/// the census Prometheus exporter.
///
/// Obtained from `Vm::census()`. The default value is the *disabled*
/// snapshot (everything empty, [`HeapCensus::enabled`] false), returned
/// by VMs whose census knob is off so callers never need to branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapCensus {
    enabled: bool,
    window: usize,
    cycles: Vec<CycleCensus>,
    majors: u64,
    minors: u64,
    class_windows: BTreeMap<String, KeyWindow>,
    site_windows: BTreeMap<String, KeyWindow>,
    drifts: Vec<CensusDrift>,
}

fn scope_tag(scope: DriftScope) -> u8 {
    match scope {
        DriftScope::Class => 0,
        DriftScope::Site => 1,
    }
}

impl Default for HeapCensus {
    fn default() -> HeapCensus {
        HeapCensus {
            enabled: false,
            window: DEFAULT_DRIFT_WINDOW,
            cycles: Vec::new(),
            majors: 0,
            minors: 0,
            class_windows: BTreeMap::new(),
            site_windows: BTreeMap::new(),
            drifts: Vec::new(),
        }
    }
}

impl HeapCensus {
    /// Creates an empty, *enabled* recorder with the default drift window.
    pub fn new() -> HeapCensus {
        HeapCensus {
            enabled: true,
            ..Default::default()
        }
    }

    /// As [`HeapCensus::new`] with a custom drift window (`>= 2` enforced;
    /// a window of K flags a key after K consecutive growing cycles).
    pub fn with_window(window: usize) -> HeapCensus {
        HeapCensus {
            enabled: true,
            window: window.max(2),
            ..Default::default()
        }
    }

    /// Whether this snapshot came from a VM with census enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The drift-detection window, in major cycles.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Major census cycles recorded.
    pub fn cycles(&self) -> u64 {
        self.majors
    }

    /// Minor census cycles recorded.
    pub fn minor_cycles(&self) -> u64 {
        self.minors
    }

    /// Every recorded cycle (majors and minors), in order.
    pub fn records(&self) -> &[CycleCensus] {
        &self.cycles
    }

    /// The most recent *major* census, if any — "what is on the heap now".
    pub fn latest(&self) -> Option<&CycleCensus> {
        self.cycles
            .iter()
            .rev()
            .find(|c| c.kind == CycleKind::Major)
    }

    /// The keys *currently* drifting: every class or site whose most
    /// recent full detection window kept growing. Classes then sites,
    /// each sorted by name.
    ///
    /// Drifts retract: a key that plateaus (or empties out) stops being
    /// reported at the next major cycle. This is what separates a leak
    /// from a startup ramp — a heap filling toward its steady state
    /// grows for a while and then flattens, while a leak is still
    /// growing whenever you look. [`CensusDrift::at_seq`] records when
    /// the key's current uninterrupted drift streak was first flagged.
    pub fn drifts(&self) -> &[CensusDrift] {
        &self.drifts
    }

    /// Records one major cycle's census, feeds the drift detector, and
    /// returns the assigned sequence number.
    pub fn record_major(&mut self, mut data: CensusData) -> u64 {
        data.normalize();
        let seq = self.cycles.len() as u64 + 1;
        self.majors += 1;
        Self::advance_windows(&mut self.class_windows, &data.classes, self.window);
        Self::advance_windows(&mut self.site_windows, &data.sites, self.window);
        // Rebuild the active-drift set from the advanced windows,
        // preserving at_seq for keys that were already drifting.
        let streak_start: BTreeMap<(u8, String), u64> = self
            .drifts
            .iter()
            .map(|d| ((scope_tag(d.scope), d.name.clone()), d.at_seq))
            .collect();
        let mut drifts = Vec::new();
        Self::detect(
            &self.class_windows,
            self.window,
            DriftScope::Class,
            seq,
            &streak_start,
            &mut drifts,
        );
        Self::detect(
            &self.site_windows,
            self.window,
            DriftScope::Site,
            seq,
            &streak_start,
            &mut drifts,
        );
        self.drifts = drifts;
        self.cycles.push(CycleCensus {
            seq,
            kind: CycleKind::Major,
            data,
        });
        seq
    }

    /// Records one minor cycle's census (nursery survivors only; not fed
    /// to the drift detector) and returns the assigned sequence number.
    pub fn record_minor(&mut self, mut data: CensusData) -> u64 {
        data.normalize();
        let seq = self.cycles.len() as u64 + 1;
        self.minors += 1;
        self.cycles.push(CycleCensus {
            seq,
            kind: CycleKind::Minor,
            data,
        });
        seq
    }

    /// Brings `self`, a copy of an earlier state of `src`, up to `src` by
    /// appending the cycles `src` has gained and copying the detector
    /// state (rolling windows and active drifts, bounded by the number of
    /// classes and sites, not of cycles). Afterwards `*self == *src`.
    /// Returns at once when `src` has recorded nothing new.
    ///
    /// Total, with the same boundary prefix test and the same
    /// counts-written-last recovery as
    /// [`GcTelemetry::catch_up`](crate::GcTelemetry::catch_up): anything
    /// that is not a prefix of `src` — longer, the other `enabled` state,
    /// another window, a different last cycle — becomes a whole copy.
    /// (Census cycles carry no measured times, so two recorders watching
    /// identical heaps can agree at the boundary; a copy is meant to
    /// follow one recorder.)
    pub fn catch_up(&mut self, src: &HeapCensus) {
        let have = self.cycles.len();
        let is_prefix = (self.enabled, self.window) == (src.enabled, src.window)
            && have <= src.cycles.len()
            && self.cycles.last() == src.cycles[..have].last();
        if !is_prefix {
            self.clone_from(src);
            return;
        }
        if have == src.cycles.len() && (self.majors, self.minors) == (src.majors, src.minors) {
            return;
        }
        self.cycles.extend_from_slice(&src.cycles[have..]);
        self.class_windows.clone_from(&src.class_windows);
        self.site_windows.clone_from(&src.site_windows);
        self.drifts.clone_from(&src.drifts);
        self.majors = src.majors;
        self.minors = src.minors;
    }

    /// Pushes this cycle's counts into every key's rolling window. Keys
    /// absent from the cycle push 0, so a class that empties out resets
    /// its trend.
    fn advance_windows(
        windows: &mut BTreeMap<String, KeyWindow>,
        entries: &[CensusEntry],
        window: usize,
    ) {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for e in entries {
            seen.insert(e.name.as_str());
            let kw = windows.entry(e.name.clone()).or_default();
            kw.counts.push_back(e.objects);
            if kw.counts.len() > window {
                kw.counts.pop_front();
            }
            kw.last_bytes = e.bytes;
            kw.peak_objects = kw.peak_objects.max(e.objects);
            kw.peak_bytes = kw.peak_bytes.max(e.bytes);
        }
        // Keys known from earlier cycles but absent now contribute zero.
        for (name, kw) in windows.iter_mut() {
            if seen.contains(name.as_str()) {
                continue;
            }
            kw.counts.push_back(0);
            if kw.counts.len() > window {
                kw.counts.pop_front();
            }
            kw.last_bytes = 0;
        }
    }

    /// Detection pass over advanced windows: every full window that grew
    /// marks its key as currently drifting. `streak_start` carries the
    /// previous cycle's active set so an uninterrupted streak keeps its
    /// original `at_seq`.
    fn detect(
        windows: &BTreeMap<String, KeyWindow>,
        window: usize,
        scope: DriftScope,
        seq: u64,
        streak_start: &BTreeMap<(u8, String), u64>,
        drifts: &mut Vec<CensusDrift>,
    ) {
        let tag = scope_tag(scope);
        for (name, kw) in windows.iter() {
            if kw.counts.len() < window {
                continue;
            }
            let y: Vec<u64> = kw.counts.iter().copied().collect();
            if !window_grows(&y) {
                continue;
            }
            let first = y[0];
            let last = *y.last().expect("window is full");
            let growth_x100 = (last - first) * 100 / (window as u64 - 1);
            let at_seq = streak_start
                .get(&(tag, name.clone()))
                .copied()
                .unwrap_or(seq);
            drifts.push(CensusDrift {
                scope,
                name: name.clone(),
                at_seq,
                window,
                first_objects: first,
                last_objects: last,
                last_bytes: kw.last_bytes,
                growth_per_cycle_x100: growth_x100,
                suggested_limit: suggest_limit(first.max(1)),
            });
        }
    }

    /// Suggested `assert-instances` limits from observed steady-state
    /// peaks: for every class the census has ever seen, its peak live
    /// count plus 25% headroom. Sorted by class name.
    pub fn suggested_limits(&self) -> Vec<(String, u64)> {
        self.class_windows
            .iter()
            .filter(|(_, kw)| kw.peak_objects > 0)
            .map(|(name, kw)| (name.clone(), suggest_limit(kw.peak_objects)))
            .collect()
    }

    /// Compares the censuses of two recorded cycles (by sequence number,
    /// as assigned by the record calls). Returns `None` if either seq is
    /// unknown. Rows are sorted by retained-byte delta, biggest growth
    /// first, ties by name.
    pub fn heapdiff(&self, from_seq: u64, to_seq: u64) -> Option<HeapDiff> {
        // `seq` is the 1-based position by construction (the record calls
        // assign `cycles.len() + 1`), so index instead of searching.
        let find = |seq: u64| {
            let cycle = self
                .cycles
                .get(usize::try_from(seq.checked_sub(1)?).ok()?)?;
            debug_assert_eq!(cycle.seq, seq, "census seq is the 1-based index");
            Some(cycle)
        };
        let from = find(from_seq)?;
        let to = find(to_seq)?;
        let mut names: BTreeSet<&str> = BTreeSet::new();
        let index = |d: &CensusData| -> BTreeMap<String, (u64, u64)> {
            d.classes
                .iter()
                .map(|e| (e.name.clone(), (e.objects, e.bytes)))
                .collect()
        };
        let a = index(&from.data);
        let b = index(&to.data);
        names.extend(a.keys().map(String::as_str));
        names.extend(b.keys().map(String::as_str));
        let mut rows: Vec<HeapDiffRow> = names
            .into_iter()
            .map(|name| {
                let (fo, fb) = a.get(name).copied().unwrap_or((0, 0));
                let (to_, tb) = b.get(name).copied().unwrap_or((0, 0));
                HeapDiffRow {
                    name: name.to_owned(),
                    from_objects: fo,
                    to_objects: to_,
                    from_bytes: fb,
                    to_bytes: tb,
                }
            })
            .collect();
        rows.sort_by(|x, y| {
            y.bytes_delta()
                .cmp(&x.bytes_delta())
                .then_with(|| x.name.cmp(&y.name))
        });
        Some(HeapDiff {
            from_seq,
            to_seq,
            rows,
        })
    }

    /// Renders the census snapshot in Prometheus text exposition format:
    ///
    /// * `gca_census_cycles_total` / `gca_census_minor_cycles_total` —
    ///   census cycles recorded.
    /// * `gca_census_live_objects{class=...}` /
    ///   `gca_census_live_bytes{class=...}` — the latest major census's
    ///   top-10 classes by live bytes (gauges).
    /// * `gca_census_site_live_bytes{site=...}` — top-10 sites likewise.
    /// * `gca_census_drifting_keys` and `gca_census_drift{scope=...,
    ///   name=...}` — the currently-drifting key set (the per-key gauge
    ///   holds its last observed live-object count).
    /// * `gca_census_suggested_instance_limit{class=...}` — data-derived
    ///   `assert-instances` limits for drifted classes.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        crate::export::push_census_families(&mut out, &[(&[], self)]);
        out
    }
}

/// Peak (or baseline) count plus 25% headroom, never equal to the input
/// — the limit must tolerate the observed state but trip on real growth.
fn suggest_limit(observed: u64) -> u64 {
    (observed + observed / 4).max(observed + 1)
}

/// The drift criterion over one full window of live-object counts.
///
/// Primary (monotone): never decreasing, strictly higher at the end, and
/// growing by at least one object per cycle on average — steady noise
/// around a plateau never qualifies.
///
/// Secondary (regression fit): if not strictly monotone, an integer
/// least-squares slope that is positive with average growth of at least
/// two objects per cycle, where no sample dips below the window's first —
/// catches sawtooth leaks (grow-grow-dip-grow) without flagging
/// steady-state oscillation.
fn window_grows(y: &[u64]) -> bool {
    let k = y.len();
    if k < 2 {
        return false;
    }
    let first = y[0];
    let last = y[k - 1];
    if last <= first {
        return false;
    }
    let span = last - first;
    let monotone = y.windows(2).all(|w| w[1] >= w[0]);
    if monotone && span >= (k as u64 - 1) {
        return true;
    }
    // Regression fit: slope sign from the integer numerator of the
    // least-squares slope, n·Σ(i·y) − Σi·Σy.
    if y.iter().any(|&v| v < first) {
        return false;
    }
    let n = k as u64;
    let sum_i: u64 = (0..n).sum();
    let sum_y: u64 = y.iter().sum();
    let sum_iy: u64 = y.iter().enumerate().map(|(i, &v)| i as u64 * v).sum();
    let slope_num = (n * sum_iy) as i128 - (sum_i as i128 * sum_y as i128);
    slope_num > 0 && span >= 2 * (n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, objects: u64, bytes: u64) -> CensusEntry {
        CensusEntry {
            name: name.to_owned(),
            objects,
            bytes,
        }
    }

    fn data(classes: &[(&str, u64, u64)]) -> CensusData {
        CensusData {
            classes: classes.iter().map(|&(n, o, b)| entry(n, o, b)).collect(),
            sites: Vec::new(),
        }
    }

    #[test]
    fn default_is_disabled_and_empty() {
        let c = HeapCensus::default();
        assert!(!c.enabled());
        assert_eq!(c.cycles(), 0);
        assert!(c.records().is_empty());
        assert!(c.drifts().is_empty());
        assert!(c.latest().is_none());
    }

    #[test]
    fn record_assigns_sequence_and_normalizes() {
        let mut c = HeapCensus::new();
        let seq = c.record_major(data(&[("B", 2, 20), ("A", 1, 10)]));
        assert_eq!(seq, 1);
        assert_eq!(c.cycles(), 1);
        let latest = c.latest().unwrap();
        assert_eq!(latest.data.classes[0].name, "A", "sorted by name");
        assert_eq!(latest.data.classes.len(), 2);
        c.record_minor(CensusData::default());
        assert_eq!(c.minor_cycles(), 1);
        assert_eq!(c.records()[1].seq, 2);
        // latest() skips minors.
        assert_eq!(c.latest().unwrap().seq, 1);
    }

    #[test]
    fn monotone_growth_drifts_within_window() {
        let mut c = HeapCensus::with_window(4);
        for i in 0..4u64 {
            c.record_major(data(&[
                ("Leaky", 10 + 5 * i, (10 + 5 * i) * 8),
                ("Flat", 7, 56),
            ]));
        }
        let drifts = c.drifts();
        assert_eq!(drifts.len(), 1, "only the leaking class drifts");
        let d = &drifts[0];
        assert_eq!(d.name, "Leaky");
        assert_eq!(d.scope, DriftScope::Class);
        assert_eq!(d.at_seq, 4);
        assert_eq!(d.first_objects, 10);
        assert_eq!(d.last_objects, 25);
        assert_eq!(d.growth_per_cycle_x100, 500);
        assert_eq!(d.suggested_limit, 12, "baseline 10 + 25% headroom");
        assert!(d.render().contains("Leaky"));
        // A key that keeps growing stays flagged, and its streak keeps
        // the original at_seq.
        c.record_major(data(&[("Leaky", 30, 240)]));
        assert_eq!(c.drifts().len(), 1);
        assert_eq!(c.drifts()[0].at_seq, 4);
        assert_eq!(c.drifts()[0].last_objects, 30);
    }

    #[test]
    fn drift_retracts_when_growth_stops() {
        // A startup ramp: grows for a full window, then plateaus. The
        // drift must flag during the ramp and retract at steady state —
        // this is what separates "heap filling up" from "leak".
        let mut c = HeapCensus::with_window(4);
        for i in 0..4u64 {
            c.record_major(data(&[("Ramp", 10 + 5 * i, (10 + 5 * i) * 8)]));
        }
        assert_eq!(c.drifts().len(), 1, "flagged while growing");
        for _ in 0..4 {
            c.record_major(data(&[("Ramp", 25, 200)]));
        }
        assert!(c.drifts().is_empty(), "plateau retracts the drift");
        // A class that empties out retracts too.
        for i in 0..4u64 {
            c.record_major(data(&[("Ramp", 30 + 5 * i, 0)]));
        }
        assert_eq!(c.drifts().len(), 1, "renewed growth re-flags");
        c.record_major(data(&[]));
        assert!(c.drifts().is_empty(), "teardown retracts the drift");
    }

    #[test]
    fn sawtooth_growth_is_caught_by_regression_fit() {
        // grow, grow, dip (but never below the first sample), grow hard.
        assert!(window_grows(&[10, 14, 18, 16, 22, 26]));
        // Oscillation around a plateau must not qualify.
        assert!(!window_grows(&[10, 14, 9, 14, 10, 14]));
    }

    #[test]
    fn steady_state_never_drifts() {
        let mut c = HeapCensus::with_window(4);
        for i in 0..12u64 {
            let n = 40 + (i % 3); // 40,41,42,40,41,42,...
            c.record_major(data(&[("Steady", n, n * 8)]));
        }
        assert!(c.drifts().is_empty(), "oscillation is not drift");
        // But its peak still informs a suggested limit.
        let limits = c.suggested_limits();
        assert_eq!(limits, vec![("Steady".to_owned(), 52)]);
    }

    #[test]
    fn disappearing_class_resets_its_trend() {
        let mut c = HeapCensus::with_window(3);
        c.record_major(data(&[("Ghost", 5, 40)]));
        c.record_major(data(&[("Ghost", 9, 72)]));
        // Ghost vanishes: its window records 0 and can no longer satisfy
        // "never dips below first".
        c.record_major(data(&[]));
        c.record_major(data(&[("Ghost", 12, 96)]));
        assert!(c.drifts().is_empty());
    }

    #[test]
    fn sites_drift_independently_of_classes() {
        let mut c = HeapCensus::with_window(3);
        for i in 0..3u64 {
            c.record_major(CensusData {
                classes: vec![entry("C", 5, 40)],
                sites: vec![entry("hot_loop", 10 + 4 * i, (10 + 4 * i) * 8)],
            });
        }
        assert_eq!(c.drifts().len(), 1);
        assert_eq!(c.drifts()[0].scope, DriftScope::Site);
        assert_eq!(c.drifts()[0].name, "hot_loop");
    }

    #[test]
    fn heapdiff_sorts_by_delta_retained() {
        let mut c = HeapCensus::new();
        let a = c.record_major(data(&[("A", 10, 100), ("B", 5, 500), ("Gone", 2, 20)]));
        let b = c.record_major(data(&[("A", 12, 150), ("B", 5, 400), ("New", 1, 999)]));
        let diff = c.heapdiff(a, b).unwrap();
        assert_eq!(diff.from_seq, 1);
        assert_eq!(diff.to_seq, 2);
        let names: Vec<&str> = diff.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            ["New", "A", "Gone", "B"],
            "sorted by byte delta desc"
        );
        assert_eq!(diff.rows[0].bytes_delta(), 999);
        assert_eq!(diff.rows[1].objects_delta(), 2);
        assert_eq!(diff.rows[3].bytes_delta(), -100);
        let text = diff.render();
        assert!(text.contains("heapdiff: cycle 1 -> cycle 2"));
        assert!(text.contains("New"));
        assert!(c.heapdiff(a, 99).is_none());
    }

    #[test]
    fn heapdiff_of_seq_zero_is_none() {
        let mut c = HeapCensus::new();
        let a = c.record_major(data(&[("A", 1, 10)]));
        assert!(c.heapdiff(0, a).is_none() && c.heapdiff(a, 0).is_none());
    }

    #[test]
    fn catch_up_completes_a_copy_abandoned_mid_update() {
        let mut src = HeapCensus::with_window(2);
        src.record_major(data(&[("A", 1, 10)]));
        let mut copy = src.clone();
        src.record_major(data(&[("A", 5, 50)]));
        assert_eq!(src.drifts().len(), 1);
        // What a publisher dying between the append and the detector state
        // leaves behind: every cycle, stale windows and drift set.
        copy.cycles.extend_from_slice(&src.cycles[1..]);
        assert_ne!(copy, src);
        copy.catch_up(&src);
        assert_eq!(copy, src);
    }

    #[test]
    fn top_n_selection_is_deterministic() {
        let d = data(&[("A", 1, 50), ("B", 1, 50), ("C", 9, 900), ("D", 2, 10)]);
        let top: Vec<&str> = d
            .top_classes_by_bytes(3)
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(top, ["C", "A", "B"], "bytes desc, ties by name");
    }

    #[test]
    fn prometheus_families_render() {
        let mut c = HeapCensus::with_window(3);
        for i in 0..3u64 {
            c.record_major(CensusData {
                classes: vec![
                    entry("Leak\"y", 10 + 6 * i, (10 + 6 * i) * 8),
                    entry("Ok", 3, 24),
                ],
                sites: vec![entry("site0", 2, 16)],
            });
        }
        c.record_minor(CensusData::default());
        let text = c.to_prometheus();
        for needle in [
            "gca_census_cycles_total 3",
            "gca_census_minor_cycles_total 1",
            "gca_census_live_objects{class=\"Leak\\\"y\"} 22",
            "gca_census_live_bytes{class=\"Ok\"} 24",
            "gca_census_site_live_bytes{site=\"site0\"} 16",
            "gca_census_drifting_keys 1",
            "gca_census_drift{scope=\"class\",name=\"Leak\\\"y\"} 22",
            "gca_census_suggested_instance_limit{class=\"Leak\\\"y\"} 12",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.contains(' '),
                "malformed: {line}"
            );
        }
    }

    #[test]
    fn suggest_limit_always_exceeds_observation() {
        assert_eq!(suggest_limit(1), 2);
        assert_eq!(suggest_limit(4), 5);
        assert_eq!(suggest_limit(100), 125);
    }
}
