//! # gca-detectors — baseline heap-error detectors
//!
//! The GC-assertions paper positions its technique against three families
//! of prior work (§1, §4): *staleness-based* leak detectors, *heap
//! differencing / growth* detectors, and *eager run-time invariant
//! checking*. This crate implements a representative of each family over
//! the same VM substrate, so the reproduction can compare them head-to-head
//! on precision (false positives) and overhead:
//!
//! * [`StalenessDetector`] — objects not accessed for a long time are
//!   *probably* leaks (Chilimbi & Hauswirth's SWAT; Bond & McKinley's
//!   Bell). Heuristic: produces false positives for rarely accessed but
//!   still needed objects, and needs a staleness threshold tuned per
//!   application.
//! * [`CorkDetector`] — classes whose live volume grows monotonically
//!   across collections are *probably* responsible for heap growth (Jump
//!   & McKinley's Cork). Type-level: names a class, not the instance or
//!   the reference that keeps it alive.
//! * [`EagerOwnershipChecker`] — a JML-style invariant checker that
//!   re-verifies an ownership invariant **after every heap mutation**.
//!   Complete (catches transient violations GC assertions miss) but costs
//!   a heap traversal per write — the 10×–100× slowdowns the paper cites.
//!
//! GC assertions, by contrast, are precise (no false positives: a
//! violation is a mismatch with a programmer-stated fact), instance-level
//! (full heap path), and nearly free (piggybacked on tracing) — at the
//! price of missing transient violations. `figures --baselines` and
//! `tests/detectors.rs` demonstrate each of these trade-offs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cork;
mod eager;
mod staleness;

pub use cork::{CorkDetector, GrowthCandidate};
pub use eager::{EagerOwnershipChecker, InvariantViolation};
pub use staleness::{StaleCandidate, StalenessDetector};
