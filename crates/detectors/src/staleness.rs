//! Staleness-based leak detection (SWAT-style).

use std::collections::HashMap;

use gca_heap::{Heap, ObjRef};

/// A leak *candidate* reported by the staleness heuristic. Unlike a GC
/// assertion violation, a candidate is a guess: the object might simply be
/// long-lived and rarely accessed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleCandidate {
    /// The suspect object.
    pub object: ObjRef,
    /// Its class name at scan time.
    pub class_name: String,
    /// Ticks since the object was last accessed.
    pub idle_ticks: u64,
}

/// A staleness-based leak detector in the style of Chilimbi & Hauswirth's
/// low-overhead memory-leak detection: an object that has not been
/// accessed for more than `threshold` logical ticks is reported as a
/// probable leak.
///
/// The mutator must call [`StalenessDetector::touch`] on each access (a
/// real implementation instruments loads/stores or samples them; our
/// workloads call it from their access helpers) and
/// [`StalenessDetector::advance`] to move logical time — typically once
/// per "transaction" of the workload.
///
/// # Example
///
/// ```
/// use gca_detectors::StalenessDetector;
/// use gca_heap::Heap;
///
/// # fn main() -> Result<(), gca_heap::HeapError> {
/// let mut heap = Heap::new();
/// let c = heap.register_class("T", &[]);
/// let hot = heap.alloc(c, 0, 0)?;
/// let cold = heap.alloc(c, 0, 0)?;
///
/// let mut det = StalenessDetector::new(3);
/// for _ in 0..10 {
///     det.touch(hot);
///     det.advance();
/// }
/// let stale = det.scan(&heap);
/// // `cold` was never touched: reported. `hot` is fresh: not reported.
/// assert_eq!(stale.len(), 1);
/// assert_eq!(stale[0].object, cold);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StalenessDetector {
    threshold: u64,
    now: u64,
    last_access: HashMap<ObjRef, u64>,
}

impl StalenessDetector {
    /// Creates a detector that reports objects idle for more than
    /// `threshold` ticks.
    pub fn new(threshold: u64) -> StalenessDetector {
        StalenessDetector {
            threshold,
            now: 0,
            last_access: HashMap::new(),
        }
    }

    /// Records an access to `obj` at the current tick.
    pub fn touch(&mut self, obj: ObjRef) {
        self.last_access.insert(obj, self.now);
    }

    /// Advances logical time by one tick.
    pub fn advance(&mut self) {
        self.now += 1;
    }

    /// Scans the live heap and returns objects idle beyond the threshold.
    /// An object never touched counts as idle since tick 0 — it has been
    /// "stale" its whole life, exactly the kind of judgement call that
    /// makes heuristics imprecise.
    pub fn scan(&mut self, heap: &Heap) -> Vec<StaleCandidate> {
        // Drop entries for objects that have been reclaimed.
        self.last_access.retain(|&r, _| heap.is_valid(r));
        let mut out = Vec::new();
        for (r, obj) in heap.iter() {
            let last = self.last_access.get(&r).copied().unwrap_or(0);
            let idle = self.now.saturating_sub(last);
            if idle > self.threshold {
                out.push(StaleCandidate {
                    object: r,
                    class_name: heap.registry().name(obj.class()).to_owned(),
                    idle_ticks: idle,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap_with(n: usize) -> (Heap, Vec<ObjRef>) {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &[]);
        let objs = (0..n).map(|_| heap.alloc(c, 0, 0).unwrap()).collect();
        (heap, objs)
    }

    #[test]
    fn fresh_objects_not_reported() {
        let (heap, objs) = heap_with(3);
        let mut det = StalenessDetector::new(5);
        for &o in &objs {
            det.touch(o);
        }
        for _ in 0..5 {
            det.advance();
        }
        assert!(
            det.scan(&heap).is_empty(),
            "idle == threshold is not > threshold"
        );
    }

    #[test]
    fn idle_objects_reported_with_idle_time() {
        let (heap, objs) = heap_with(2);
        let mut det = StalenessDetector::new(2);
        det.touch(objs[0]);
        det.touch(objs[1]);
        for _ in 0..4 {
            det.advance();
        }
        det.touch(objs[0]); // keep the first hot
        let stale = det.scan(&heap);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].object, objs[1]);
        assert_eq!(stale[0].idle_ticks, 4);
        assert_eq!(stale[0].class_name, "T");
    }

    #[test]
    fn false_positive_on_rarely_accessed_live_object() {
        // The documented weakness: a config object read only at startup is
        // flagged even though it is needed.
        let (heap, objs) = heap_with(1);
        let mut det = StalenessDetector::new(10);
        det.touch(objs[0]); // startup read
        for _ in 0..100 {
            det.advance();
        }
        let stale = det.scan(&heap);
        assert_eq!(stale.len(), 1, "heuristic flags the live config object");
    }

    #[test]
    fn reclaimed_objects_are_forgotten() {
        let (mut heap, objs) = heap_with(2);
        let mut det = StalenessDetector::new(0);
        det.touch(objs[0]);
        det.advance();
        det.advance();
        heap.free(objs[0]).unwrap();
        let stale = det.scan(&heap);
        // Only the still-live never-touched object is reported.
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].object, objs[1]);
    }
}
