//! Fleet soak harness: GC assertions as always-on production monitors.
//!
//! The paper's pitch is that piggybacking assertion checks on collection
//! makes them cheap enough to leave on in production. This crate is the
//! "production": an open-loop load generator drives a fleet of sharded
//! VMs (one thread, one VM, one scenario each) through session-style
//! traffic with ramp/steady/spike arrival phases, while the assertions
//! and the census drift detector run as the only monitoring plane.
//!
//! * [`config::SoakConfig`] — fleet shape, arrival-rate phases, pacing
//!   (wall-clock, or deterministic virtual time for golden tests).
//! * [`fault::FaultPlan`] — inject one of four canonical heap bugs into
//!   a minority of shards and measure **detection latency** (GC cycles
//!   and wall time from injection to the first matching report), plus
//!   the fleet-wide false-positive rate on the clean shards.
//! * [`fleet::Fleet`] — spawn, observe, join; [`fleet::run_soak`] for
//!   the one-call version.
//! * The observability plane — a dependency-free HTTP server with live
//!   `/metrics` (Prometheus, `shard` labels), `/healthz`, and `/status`
//!   (JSON); per-shard JSONL event streams merged into `fleet.jsonl`.
//! * [`report::SoakReport`] — the end-of-run verdict and the
//!   `BENCH_soak.json` writer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod fault;
mod fleet;
mod http;
mod report;
mod shard;

pub use config::{Pacing, Phase, SoakConfig};
pub use fault::{Detection, FaultKind, FaultPlan};
pub use fleet::{run_soak, Fleet};
pub use report::{normalize_metrics, ShardReport, SoakReport};
pub use shard::ShardSnapshot;
