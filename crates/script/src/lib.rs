//! # gca-script — a tiny language for driving the GC-assertions VM
//!
//! The paper's interface is programmatic; this crate wraps it in a small
//! line-oriented scripting language so heap scenarios can be written,
//! shared, and replayed as plain text — a GC-assertions playground:
//!
//! ```text
//! # build registry -> entries[0] -> session, plus a cache alias
//! class Registry entries
//! class Session user
//! class Cache hit
//!
//! new r Registry
//! root r
//! new s Session
//! set r.entries s
//! new c Cache
//! root c
//! set c.hit s
//!
//! # log the session out... and assert it dies
//! set r.entries null
//! assert-dead s
//! gc
//! expect-violations 1     # the cache still holds it
//! print
//! ```
//!
//! Run a script with the bundled binary:
//!
//! ```text
//! cargo run -p gca-script --bin gca -- script.gca
//! ```
//!
//! The `expect-*` commands make scripts self-checking, so scenario files
//! double as integration tests (see `tests/scripts.rs`).
//!
//! Scripts can also be checked *without* running them: the [`analysis`]
//! module (surfaced as `gca check <script>`) forward-interprets the
//! command stream over an abstract heap and predicts each collection's
//! assertion verdicts as must-violate / may-violate / safe, with
//! line-accurate root-to-object paths.
//!
//! # Example
//!
//! ```
//! use gca_script::Interpreter;
//!
//! let script = "
//! class T f
//! new a T
//! root a
//! new b T
//! set a.f b
//! assert-unshared b
//! gc
//! expect-violations 0
//! ";
//! let output = Interpreter::run_script(script).expect("script succeeds");
//! assert!(output.lines.iter().any(|l| l.contains("gc:")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod ast;
mod config;
mod error;
mod interp;

pub use analysis::{
    analyze, apply_suggestions, suggest, Analysis, Diagnostic, GcPrediction, Severity,
    SuggestOutcome, Suggestion,
};
pub use ast::{parse_line, parse_script, Command, Target};
pub use error::{ScriptError, ScriptErrorKind, SourceLocation};
pub use interp::{Interpreter, Output};
