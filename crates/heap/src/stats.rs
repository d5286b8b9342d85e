//! Cumulative heap statistics.

use std::fmt;

/// Cumulative allocation/reclamation statistics for a [`crate::Heap`].
///
/// All word figures use the object footprint defined by
/// [`crate::Object::size_words`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Objects ever allocated.
    pub allocations: u64,
    /// Words ever allocated.
    pub allocated_words: u64,
    /// Objects ever freed.
    pub frees: u64,
    /// Words ever freed.
    pub freed_words: u64,
    /// High-water mark of occupied words.
    pub peak_occupied_words: usize,
}

impl fmt::Display for HeapStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "allocs={} ({} words), frees={} ({} words), peak={} words",
            self.allocations,
            self.allocated_words,
            self.frees,
            self.freed_words,
            self.peak_occupied_words
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let s = HeapStats::default();
        assert_eq!(s.allocations, 0);
        assert_eq!(s.peak_occupied_words, 0);
    }

    #[test]
    fn display_mentions_all_fields() {
        let s = HeapStats {
            allocations: 1,
            allocated_words: 2,
            frees: 3,
            freed_words: 4,
            peak_occupied_words: 5,
        };
        let out = s.to_string();
        for needle in ["allocs=1", "2 words", "frees=3", "4 words", "peak=5"] {
            assert!(out.contains(needle), "missing {needle} in {out}");
        }
    }
}
