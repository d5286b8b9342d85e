//! Simulated mutator threads: shadow stacks and allocation regions.

use std::fmt;

use gca_heap::ObjRef;

/// Identifier of a simulated mutator thread.
///
/// The paper's regions are per-thread ("each thread can independently be
/// either in or out of a region", §2.3.2). We simulate threads as mutator
/// contexts with independent shadow stacks and region state, interleaved
/// deterministically by the workload driver; GC is stop-the-world either
/// way, so the heap-property semantics are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MutatorId(pub(crate) u32);

impl fmt::Display for MutatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mutator#{}", self.0)
    }
}

/// Region state for one mutator: the queue of objects allocated since
/// `start_region`. The queue holds *weak* references — it must not keep
/// region objects alive, or no region allocation could ever be collected
/// before the region ends (generation checks make the stale entries
/// harmless; they are purged after each collection).
#[derive(Debug, Default)]
pub(crate) struct Region {
    pub(crate) queue: Vec<ObjRef>,
}

/// One simulated mutator: a shadow stack of GC roots (organized in frames,
/// like call frames holding local variables) and optional region state.
#[derive(Debug)]
pub(crate) struct Mutator {
    /// Flat root stack; `frames[i]` is the stack length at which frame `i`
    /// begins. There is always a base frame.
    pub(crate) roots: Vec<ObjRef>,
    pub(crate) frames: Vec<usize>,
    pub(crate) region: Option<Region>,
}

impl Mutator {
    pub(crate) fn new() -> Mutator {
        Mutator {
            roots: Vec::new(),
            frames: vec![0],
            region: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutator_starts_with_base_frame() {
        let m = Mutator::new();
        assert_eq!(m.frames, vec![0]);
        assert!(m.roots.is_empty());
        assert!(m.region.is_none());
    }

    #[test]
    fn display() {
        assert_eq!(MutatorId(3).to_string(), "mutator#3");
    }
}
