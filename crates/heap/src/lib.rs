//! # gca-heap — managed-heap substrate
//!
//! This crate implements the object model and allocator that stand in for
//! the Jikes RVM heap in the Rust reproduction of *GC Assertions: Using the
//! Garbage Collector to Check Heap Properties* (Aftandilian & Guyer, PLDI
//! 2009).
//!
//! The heap is a **Big-Bag-of-Pages (BiBOP) heap** in the tradition of the
//! MMTk MarkSweep plan the paper runs on: objects are binned into 64-slot
//! pages by size class ([`SIZE_CLASSES`]), allocated with a per-page bump
//! pointer and recycled through per-class page stacks, with objects larger
//! than [`LOS_THRESHOLD`] words placed in a large-object space of
//! single-occupant pages. Each object carries:
//!
//! * a class id into a runtime [`TypeRegistry`] (the analogue of
//!   `RVMClass`),
//! * a slice of reference fields, and
//! * an opaque data payload measured in words (so allocation volume and
//!   heap pressure behave realistically without simulating primitive data).
//!
//! The paper's header [`Flags`] (`assert-dead`, `assert-unshared`, the
//! ownership marks, …) live in **per-page side bit-planes** rather than
//! object headers, so mark, sweep, and the assertion engine's bulk clears
//! process 64 objects per bitmap word. A [`CardTable`] with one dirty bit
//! per page gives generational minors their write barrier: every reference
//! store dirties the source object's card, and the minor harvests old
//! objects on dirty pages instead of maintaining a remembered-set table.
//!
//! *Where* objects live in (simulated) memory is delegated to a space
//! backend behind the [`HeapSpace`] facade: [`SpaceKind::Paged`] derives
//! non-moving addresses from page geometry, while [`SpaceKind::Semispace`]
//! keeps Cheney from/to bookkeeping for the copying collector. Object
//! *storage* always stays in the page table, so handles survive
//! evacuation.
//!
//! Objects are addressed through generation-checked [`ObjRef`] handles: the
//! heap bumps a slot's generation when the slot is freed, so a stale handle
//! is a checked [`HeapError::StaleRef`] instead of undefined behaviour.
//! This models the safety a managed runtime provides to the collector and
//! mutator.
//!
//! # Example
//!
//! ```
//! use gca_heap::{Heap, ObjRef};
//!
//! # fn main() -> Result<(), gca_heap::HeapError> {
//! let mut heap = Heap::new();
//! let list = heap.register_class("List", &["head"]);
//! let node = heap.register_class("Node", &["next", "value"]);
//!
//! let l = heap.alloc(list, 1, 0)?;
//! let n = heap.alloc(node, 2, 4)?;
//! heap.set_ref_field(l, 0, n)?;
//! assert_eq!(heap.ref_field(l, 0)?, n);
//! assert_eq!(heap.registry().name(heap.class_of(n)?), "Node");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cards;
mod class;
mod error;
mod flags;
mod heap;
mod object;
mod objref;
mod pages;
mod space;
mod spaces;
mod stats;

pub use cards::CardTable;
pub use class::{ClassId, ClassInfo, TypeRegistry};
pub use error::HeapError;
pub use flags::Flags;
pub use heap::{Heap, LiveIter};
pub use object::{Object, HEADER_WORDS};
pub use objref::ObjRef;
pub use pages::{slots_of, PageMeta, LOS_THRESHOLD, PAGE_SLOTS, SIZE_CLASSES};
pub use space::{HeapSpace, SpaceKind};
pub use stats::HeapStats;
