//! # gca-telemetry — observe the collector without perturbing it
//!
//! The paper's whole evaluation (Figures 2–5) quantifies the *overhead of
//! checking heap properties piggybacked on collection*; this crate is the
//! measurement substrate that makes such claims reproducible for the Rust
//! reproduction. It provides:
//!
//! * **Phase spans** — per-cycle wall time for the pre-root (ownership)
//!   phase, the mark phase, the sweep, and minor collections, plus
//!   per-worker busy times from the parallel work-stealing mark phase
//!   ([`CycleRecord`]).
//! * **Per-assertion-kind overhead attribution** — extra edges traced,
//!   counter bumps, header-bit checks and ownership-phase work, attributed
//!   to `assert-dead` / `assert-instances` / `assert-unshared` /
//!   `assert-ownedby` / regions ([`AssertionKind`], [`AssertionOverhead`]).
//! * **Counters and log-scale latency histograms** rolled up into a
//!   [`GcTelemetry`] snapshot ([`LatencyHistogram`]).
//! * **Two exporters** — JSON-lines, one machine-diffable record per GC
//!   cycle ([`export::records_to_jsonl`], with a non-panicking parser
//!   [`export::parse_jsonl`]), and Prometheus-style text
//!   ([`GcTelemetry::to_prometheus`]), written by the one family writer
//!   [`export::Family`].
//! * **Heap census & drift detection** — per-class and per-allocation-site
//!   live histograms accumulated during the mark, a rolling-window leak
//!   detector emitting [`CensusDrift`] events, cycle-vs-cycle
//!   [`HeapDiff`] reports, and a census Prometheus exporter
//!   ([`HeapCensus`]).
//!
//! The crate is deliberately dependency-free and knows nothing about the
//! heap or the collector: the VM converts its own cycle statistics into
//! [`CycleRecord`]s and feeds them to a [`GcTelemetry`] *after* each
//! collection completes, so when telemetry is disabled the collector's
//! hot paths are untouched (observation, never participation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod attr;
mod census;
pub mod export;
mod hist;
mod record;

pub use attr::{AssertionKind, AssertionOverhead, KindOverhead};
pub use census::{
    CensusData, CensusDrift, CensusEntry, CycleCensus, DriftScope, HeapCensus, HeapDiff,
    HeapDiffRow,
};
pub use export::{JsonlRecord, TelemetryParseError};
pub use hist::LatencyHistogram;
pub use record::{CycleKind, CycleRecord, GcPhase, GcTelemetry};
