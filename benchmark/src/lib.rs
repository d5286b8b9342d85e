//! The repo benchmark: eight seeded workloads against the public APIs of
//! `gca-heap`, `gca-collector`, `gc-assertions`, `gca-workloads`,
//! `gca-script` and `gca-soak`; gated end-to-end metrics from a run with
//! tracing off, and per-layer metrics from a traced run with layer probes
//! and control legs. See `README.md` beside this package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod compare;
pub mod env;
pub mod golden;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod results;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
