//! Collection statistics and timing.

use std::fmt;
use std::time::Duration;

/// Statistics for a single collection cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// Wall time of the whole cycle.
    pub total: Duration,
    /// Time spent in the hooks' pre-root phase (the ownership phase when
    /// the assertion engine is attached; zero otherwise).
    pub pre_root: Duration,
    /// Time spent marking from the roots.
    pub mark: Duration,
    /// Time spent sweeping.
    pub sweep: Duration,
    /// Objects newly marked this cycle (live objects).
    pub objects_marked: u64,
    /// Reference edges traversed.
    pub edges_traced: u64,
    /// The subset of `edges_traced` traversed during the hooks' pre-root
    /// phase (ownership-assertion work; zero without an engine attached).
    pub pre_root_edges: u64,
    /// Objects reclaimed by the sweep.
    pub objects_swept: u64,
    /// Words reclaimed by the sweep.
    pub words_swept: u64,
}

impl fmt::Display for CycleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gc cycle: {:?} total ({:?} pre-root, {:?} mark, {:?} sweep), {} marked, {} edges, {} swept ({} words)",
            self.total,
            self.pre_root,
            self.mark,
            self.sweep,
            self.objects_marked,
            self.edges_traced,
            self.objects_swept,
            self.words_swept
        )
    }
}

/// Statistics for one minor collection.
///
/// Minor cycles report the same trace counters as full collections
/// (`objects_marked`, `edges_traced`), so telemetry records for the two
/// cycle kinds are directly comparable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinorStats {
    /// Wall time of the cycle.
    pub total: Duration,
    /// Young objects that survived and were promoted.
    pub promoted: u64,
    /// Young objects reclaimed.
    pub objects_swept: u64,
    /// Words reclaimed.
    pub words_swept: u64,
    /// Remembered-set entries scanned.
    pub remembered_scanned: u64,
    /// Objects marked by the minor trace. Includes old objects the trace
    /// touched and stopped at (their mark is claimed before the visit
    /// decides to skip), so this can exceed `promoted`.
    pub objects_marked: u64,
    /// Reference edges traversed by the minor trace, including the
    /// remembered-set field scans.
    pub edges_traced: u64,
}

/// Cumulative statistics over the lifetime of a [`crate::Collector`].
///
/// The benchmark harness reads `total_gc_time` to reproduce the GC-time
/// figures (Figures 3 and 5 report GC-time overhead separately from total
/// run time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Number of collection cycles performed.
    pub collections: u64,
    /// Total wall time across all cycles.
    pub total_gc_time: Duration,
    /// Total pre-root (ownership) phase time.
    pub pre_root_time: Duration,
    /// Total marking time.
    pub mark_time: Duration,
    /// Total sweeping time.
    pub sweep_time: Duration,
    /// Total objects marked across all cycles.
    pub objects_marked: u64,
    /// Total edges traced across all cycles.
    pub edges_traced: u64,
    /// Total pre-root (ownership) phase edges across all cycles.
    pub pre_root_edges: u64,
    /// Total objects reclaimed across all cycles.
    pub objects_swept: u64,
    /// Total words reclaimed across all cycles.
    pub words_swept: u64,
}

impl GcStats {
    /// Folds one cycle into the totals.
    pub(crate) fn absorb(&mut self, cycle: &CycleStats) {
        self.collections += 1;
        self.total_gc_time += cycle.total;
        self.pre_root_time += cycle.pre_root;
        self.mark_time += cycle.mark;
        self.sweep_time += cycle.sweep;
        self.objects_marked += cycle.objects_marked;
        self.edges_traced += cycle.edges_traced;
        self.pre_root_edges += cycle.pre_root_edges;
        self.objects_swept += cycle.objects_swept;
        self.words_swept += cycle.words_swept;
    }
}

impl fmt::Display for GcStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} collections, {:?} gc time ({:?} pre-root, {:?} mark, {:?} sweep), {} marked, {} swept",
            self.collections,
            self.total_gc_time,
            self.pre_root_time,
            self.mark_time,
            self.sweep_time,
            self.objects_marked,
            self.objects_swept
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut total = GcStats::default();
        let cycle = CycleStats {
            total: Duration::from_millis(10),
            pre_root: Duration::from_millis(1),
            mark: Duration::from_millis(6),
            sweep: Duration::from_millis(3),
            objects_marked: 100,
            edges_traced: 250,
            pre_root_edges: 15,
            objects_swept: 40,
            words_swept: 400,
        };
        total.absorb(&cycle);
        total.absorb(&cycle);
        assert_eq!(total.collections, 2);
        assert_eq!(total.total_gc_time, Duration::from_millis(20));
        assert_eq!(total.objects_marked, 200);
        assert_eq!(total.edges_traced, 500);
        assert_eq!(total.pre_root_edges, 30);
        assert_eq!(total.objects_swept, 80);
        assert_eq!(total.words_swept, 800);
    }

    #[test]
    fn displays_are_nonempty() {
        assert!(!CycleStats::default().to_string().is_empty());
        assert!(!GcStats::default().to_string().is_empty());
    }
}
