//! QVM-style heap probes: the `Vm::probe_*` queries, each of which runs a
//! full traversal *right now*.
//!
//! Probes are the comparison point for the paper's central performance
//! argument: an immediate query costs a complete heap trace, while GC
//! assertions batch the same questions into the collector's normal trace
//! for free (§4.1). [`Vm::probe_survey`] is the batched form a caller with
//! many questions uses: every answer from one traversal. All probe
//! machinery lives in this module.
//!
//! ```
//! use gc_assertions::{Vm, VmConfig};
//!
//! # fn main() -> Result<(), gc_assertions::VmError> {
//! let mut vm = Vm::new(VmConfig::builder().build());
//! let m = vm.main();
//! let node = vm.register_class("Node", &["next"]);
//! let a = vm.alloc_rooted(m, node, 1, 0)?;
//! let b = vm.alloc(m, node, 1, 0)?;
//! vm.set_field(a, 0, b)?;
//!
//! assert!(vm.probe_reachable(b)?);
//! assert_eq!(vm.probe_instances(node)?, 2);
//! assert_eq!(vm.probe_survey(&[a, b], &[node])?, (vec![true, true], vec![2]));
//! let path = vm.probe_path(b)?.expect("b is reachable");
//! assert_eq!(path.target(), Some(b));
//! # Ok(())
//! # }
//! ```

use gca_collector::{HeapPath, TraceCtx, TraceHooks, Tracer, Visit};
use gca_heap::{ClassId, Flags, Heap, HeapError, ObjRef};

use crate::error::VmError;
use crate::vm::Vm;

impl Vm {
    /// Is `target` reachable, and through what path? Runs a full
    /// path-tracking traversal; the heap is left unmodified (marks
    /// cleared). Returns `None` if `target` is dead or unreachable.
    ///
    /// # Errors
    ///
    /// Tracing errors ([`VmError::Heap`]) or [`VmError::Halted`].
    pub fn probe_path(&mut self, target: ObjRef) -> Result<Option<HeapPath>, VmError> {
        self.check_running()?;
        if !self.heap.is_valid(target) {
            return Ok(None);
        }
        let roots = self.gather_roots();
        let mut finder = PathFinder {
            target,
            found: None,
        };
        run_traversal(&mut self.heap, &roots, true, &mut finder, |_| ())?;
        Ok(finder.found)
    }

    /// Is `target` reachable at all (probe-style `assert_dead`
    /// complement)? Same cost as [`Vm::probe_path`]: one path-tracking
    /// traversal per call. To ask about many objects at once, use
    /// [`Vm::probe_survey`].
    ///
    /// # Errors
    ///
    /// As [`Vm::probe_path`].
    pub fn probe_reachable(&mut self, target: ObjRef) -> Result<bool, VmError> {
        Ok(self.probe_path(target)?.is_some())
    }

    /// Counts the live (reachable) instances of `class` with a full
    /// traversal — the probe-style equivalent of `assert-instances`.
    /// This is [`Vm::probe_survey`] asked about one class.
    ///
    /// # Errors
    ///
    /// As [`Vm::probe_survey`].
    pub fn probe_instances(&mut self, class: ClassId) -> Result<u32, VmError> {
        let (_, counts) = self.probe_survey(&[], &[class])?;
        Ok(counts[0])
    }

    /// Answers a batch of probes with **one** plain (non-path) traversal
    /// from the roots: for each of `targets`, whether it is reachable, and
    /// for each of `classes`, how many reachable instances it has.
    ///
    /// A stale or null target answers `false`, and a class with no
    /// reachable instance (or one this VM never registered) answers 0. The
    /// heap is left as it was: the marks are read for `targets` and then
    /// cleared. This is the batching argument of §4 applied to probes —
    /// `k` questions cost one trace instead of `k`.
    ///
    /// # Errors
    ///
    /// Tracing errors ([`VmError::Heap`]) or [`VmError::Halted`].
    pub fn probe_survey(
        &mut self,
        targets: &[ObjRef],
        classes: &[ClassId],
    ) -> Result<(Vec<bool>, Vec<u32>), VmError> {
        self.check_running()?;
        let roots = self.gather_roots();
        let mut tally = Tally {
            by_class: if classes.is_empty() {
                Vec::new()
            } else {
                vec![0; self.heap.registry().len()]
            },
        };
        let reachable = run_traversal(&mut self.heap, &roots, false, &mut tally, |heap| {
            targets
                .iter()
                .map(|&t| heap.has_flag(t, Flags::MARK) == Ok(true))
                .collect()
        })?;
        let by_class = tally.by_class;
        let counts = classes
            .iter()
            .map(|c| by_class.get(c.as_u32() as usize).map_or(0, |&n| n))
            .collect();
        Ok((reachable, counts))
    }

    /// Collects a root-to-object path for **every live instance** of
    /// `class`, in one traversal.
    ///
    /// The paper notes that when `assert-instances` fires, "the problem
    /// paths may have been traced earlier" and the user "will need to use
    /// other tools" (§2.7) — this is that tool: run it after an
    /// instance-limit violation to see exactly what keeps each instance
    /// alive.
    ///
    /// # Errors
    ///
    /// Tracing errors or [`VmError::Halted`].
    pub fn explain_instances(
        &mut self,
        class: ClassId,
    ) -> Result<Vec<(ObjRef, HeapPath)>, VmError> {
        self.check_running()?;
        let roots = self.gather_roots();
        let mut finder = InstanceFinder {
            class,
            found: Vec::new(),
        };
        run_traversal(&mut self.heap, &roots, true, &mut finder, |_| ())?;
        Ok(finder.found)
    }

    /// Enumerates every heap reference into `target`: `(source object,
    /// field index)` pairs, plus whether any *root* references it.
    ///
    /// The complement of the `assert-unshared` report, which can only
    /// show the second path the tracer happened to find (§2.7) — this
    /// shows all of them. One pass over the live heap, no tracing.
    ///
    /// # Errors
    ///
    /// Reference-validity errors or [`VmError::Halted`].
    pub fn incoming_references(
        &mut self,
        target: ObjRef,
    ) -> Result<(Vec<(ObjRef, usize)>, bool), VmError> {
        self.check_running()?;
        if !self.heap.is_valid(target) {
            return Err(VmError::Heap(HeapError::StaleRef(target)));
        }
        let mut edges = Vec::new();
        for (src, obj) in self.heap.iter() {
            for (f, &r) in obj.refs().iter().enumerate() {
                if r == target {
                    edges.push((src, f));
                }
            }
        }
        let rooted = self.gather_roots().contains(&target);
        Ok((edges, rooted))
    }
}

/// Runs one probe traversal from `roots`, lets `read` look at the heap
/// while the marks are still set, and clears them — on failure too, so a
/// probe never leaves marks behind.
fn run_traversal<H: TraceHooks, R>(
    heap: &mut Heap,
    roots: &[ObjRef],
    paths: bool,
    hooks: &mut H,
    read: impl FnOnce(&Heap) -> R,
) -> Result<R, VmError> {
    let mut tracer = Tracer::new();
    tracer.set_path_mode(paths);
    tracer.begin_cycle();
    for &r in roots {
        tracer.push_root(r);
    }
    let traced = tracer.drain(heap, hooks).map(|()| read(heap));
    for pid in 0..heap.page_count() {
        heap.clear_flag_word(pid, Flags::PER_GC, u64::MAX);
    }
    traced.map_err(VmError::from)
}

struct PathFinder {
    target: ObjRef,
    found: Option<HeapPath>,
}

impl TraceHooks for PathFinder {
    fn wants_paths(&self) -> bool {
        true
    }
    fn visit_new(&mut self, heap: &mut Heap, obj: ObjRef, _p: Flags, ctx: &TraceCtx<'_>) -> Visit {
        if obj == self.target && self.found.is_none() {
            self.found = Some(ctx.current_path(heap));
        }
        Visit::Descend
    }
}

/// A [`Vm::probe_survey`]'s instance tally: reachable objects per class
/// id, or nothing at all when no class was asked about.
struct Tally {
    by_class: Vec<u32>,
}

impl TraceHooks for Tally {
    fn visit_new(&mut self, heap: &mut Heap, obj: ObjRef, _p: Flags, _c: &TraceCtx<'_>) -> Visit {
        if !self.by_class.is_empty() {
            if let Ok(o) = heap.get(obj) {
                self.by_class[o.class().as_u32() as usize] += 1;
            }
        }
        Visit::Descend
    }
}

struct InstanceFinder {
    class: ClassId,
    found: Vec<(ObjRef, HeapPath)>,
}

impl TraceHooks for InstanceFinder {
    fn wants_paths(&self) -> bool {
        true
    }
    fn visit_new(&mut self, heap: &mut Heap, obj: ObjRef, _p: Flags, ctx: &TraceCtx<'_>) -> Visit {
        if heap.get(obj).map(|o| o.class()) == Ok(self.class) {
            self.found.push((obj, ctx.current_path(heap)));
        }
        Visit::Descend
    }
}
