//! Bounded model checking for the GC-assertions engine matrix.
//!
//! This crate exhaustively enumerates every small heap program up to a
//! configurable scope — allocations across the BiBOP size classes and
//! the large-object space, edge mutations (store / clear / swap),
//! root-set changes, explicit major/minor GC points, and every
//! assertion kind the paper describes, interleaved at every program
//! point — and runs each one through the full collector engine matrix
//! (`ms`, `par2`, `copying`, `gen-cards`, `gen-rs`), requiring
//! bit-identical observable outcomes per the pairing policy of
//! [`check_program`] over the [`engine_matrix`].
//!
//! The walk is made tractable by canonical-form pruning (heap-graph
//! isomorphism reduction plus prefix memoization, see [`explore`])
//! without ever skipping a program check. When a pairing disagrees or an
//! engine trips an invariant, the failing program is minimized by the
//! greedy shrinker behind [`minimize_counterexample`] and emitted as a
//! runnable `.gca` script ([`emit_gca`]) plus a compact replay seed
//! ([`parse_replay`] reads it back).
//!
//! The same op language ([`FuzzOp`]) feeds the randomized differential
//! suites in `crates/core/tests`, so the fuzzers and the model checker
//! can never drift apart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emit;
mod engines;
mod enumerate;
mod program;
mod shrink;

pub use emit::{emit_gca, parse_replay, replay_seed};
pub use engines::{
    check_program, check_program_with, engine_matrix, CheckError, EngineSpec, MODEL_HEAP_WORDS,
};
pub use enumerate::{explore, minimize_counterexample, Counterexample, Report, Scope};
pub use program::{
    fuzz_op_strategy, mutation_op_strategy, normalize_violations, run_program, violation_key,
    FuzzOp, Outcome,
};
