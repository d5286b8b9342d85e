//! # gca-collector — tracing collector with trace hooks
//!
//! The tracing collector for the GC-assertions reproduction (Aftandilian &
//! Guyer, PLDI 2009). The paper implements its assertions by *piggybacking
//! on the normal GC tracing process* and notes they "work with any tracing
//! collector" (§2.2); this crate provides the piggyback points and spells
//! the collection cycle out exactly once:
//!
//! * [`Collector::collect`] runs a full collection cycle over a
//!   [`gca_heap::Heap`], generic over a [`TraceHooks`] implementation.
//!   One private driver sequences every cycle — `gc_begin`, pre-root
//!   phase, mark from the roots, optional census pass, `trace_done`,
//!   invariant checks, sweep, statistics, `gc_end`, and the clean-up of a
//!   cycle that fails. Its only strategy-specific step is "mark from the
//!   roots", chosen from what the driver is given: the path-tagged LIFO
//!   drain, Cheney evacuation on a semispace heap (the `copying` module),
//!   or the work-stealing mark when [`Collector::collect_with`] is handed
//!   more than one tracing worker.
//! * [`Collector::collect_minor`] runs the same driver in its *young
//!   scope*, the nursery collection of the generational mode: old objects
//!   (those carrying [`gca_heap::Flags::OLD`]) are immortal, the trace
//!   starts from the roots and the remembered sources' fields and stops at
//!   old objects, and the sweep — the same page loop — frees the unmarked
//!   young objects and promotes the marked ones. A minor checks nothing:
//!   of the hooks it calls only [`TraceHooks::swept_interest`] and
//!   [`TraceHooks::swept`].
//! * [`NoHooks`] compiles every hook away — this is the paper's **Base**
//!   configuration (an unmodified collector).
//! * A hooks object that returns `true` from [`TraceHooks::wants_paths`]
//!   switches the tracer to the **path-tracking worklist** of §2.7: gray
//!   objects are kept on the worklist with an *on-path* tag (the paper
//!   steals a low-order pointer bit), so at any moment the tagged suffix of
//!   the worklist is the exact root-to-current-object path. Violation
//!   reports read it via [`TraceCtx::current_path`].
//! * Hooks can run a *pre-root phase* ([`TraceHooks::pre_root_phase`]) that
//!   drives the [`Tracer`] directly — this is how the assertion engine
//!   implements the `assert-ownedby` ownership phase, which must trace from
//!   owner objects **before** the root scan (§2.5.2). It runs once,
//!   sequentially, under every strategy.
//! * [`mark_parallel`] is the work-stealing **parallel root scan**: N
//!   workers with private mark stacks and stealable deques race to claim
//!   mark bits with an atomic RMW, calling a per-worker [`ParVisitor`]
//!   shard exactly once per object (`visit_new`) and once per extra edge
//!   (`visit_marked`). Paths are not tracked on the fly; the caller
//!   reconstructs them for flagged objects with [`reconstruct_path`].
//!
//! # Example
//!
//! ```
//! use gca_collector::{Collector, NoHooks};
//! use gca_heap::Heap;
//!
//! # fn main() -> Result<(), gca_heap::HeapError> {
//! let mut heap = Heap::new();
//! let c = heap.register_class("Node", &["next"]);
//! let a = heap.alloc(c, 1, 0)?;
//! let b = heap.alloc(c, 1, 0)?;
//! let dead = heap.alloc(c, 1, 0)?;
//! heap.set_ref_field(a, 0, b)?;
//!
//! let mut gc = Collector::new();
//! let cycle = gc.collect(&mut heap, &[a], &mut NoHooks)?;
//! assert_eq!(cycle.objects_swept, 1); // only `dead` was unreachable
//! assert!(heap.is_valid(b));
//! assert!(!heap.is_valid(dead));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod census;
mod collector;
mod copying;
mod deque;
mod hooks;
mod invariants;
mod parallel;
mod path;
mod stats;
mod tracer;

pub use census::SurvivorVisitor;
pub use collector::{sweep_heap, Collector};
pub use hooks::{NoHooks, TraceHooks, Visit};
pub use invariants::stale_mark_violations;
pub use parallel::{mark_parallel, reconstruct_path, ParMarkStats, ParVisitor, WorkItem};
pub use path::{HeapPath, PathDisplay, PathStep};
pub use stats::{CycleStats, GcStats, MinorStats};
pub use tracer::{TraceCtx, Tracer};
