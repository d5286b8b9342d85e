//! The engine matrix and the differential check a single program runs
//! through.
//!
//! The comparison policy matches the fuzz suites' (and the paper's §2.2)
//! conventions:
//!
//! * **full-outcome group** — sequential mark-sweep, 2-worker parallel
//!   mark, and the semispace copying backend must agree on the *entire*
//!   [`Outcome`]: liveness, normalized violation log, the six assertion
//!   check counters, and the census tables;
//! * **minor-strategy pairing** — the generational engine with
//!   card-marking barriers and with the exact remembered set must agree
//!   on the entire outcome with each other (PR 6's claim: the card
//!   harvest is a superset whose extra scans change nothing observable);
//! * **liveness bridge** — generational vs the full-heap engines is
//!   compared on final liveness only, because minor cycles deliberately
//!   check no assertions (the paper's §2.2 trade-off), so violation
//!   *timing* — and with report-once, *whether* a violation is ever
//!   recorded — legitimately differs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gc_assertions::{CollectorKind, MinorStrategy, VmConfig};

use crate::program::{run_program, FuzzOp, Outcome};

/// Heap budget for model-check runs: generous enough that no *implicit*
/// (allocation-pressure) collection ever fires, so the GC points of a
/// program are exactly its enumerated `Collect`/`MinorGc` ops and the
/// shadow-state simulation behind [`explore`](crate::explore) stays exact.
pub const MODEL_HEAP_WORDS: usize = 1 << 16;

/// One engine configuration of the matrix.
#[derive(Debug, Clone)]
pub struct EngineSpec {
    /// Short stable name (`ms`, `par2`, `copying`, `gen-cards`, `gen-rs`).
    pub name: &'static str,
    /// The VM configuration that selects this engine.
    pub config: VmConfig,
}

/// The base configuration shared by every engine: big non-triggering
/// heap, census on (so the census tables are part of the comparison).
fn base() -> VmConfig {
    VmConfig::builder()
        .heap_budget(MODEL_HEAP_WORDS)
        .grow_on_oom(true)
        .census(true)
        .build()
}

/// The full engine matrix:
/// `{ms, par2, copying} ∪ {generational × {Cards, RememberedSet}}`.
pub fn engine_matrix() -> Vec<EngineSpec> {
    vec![
        EngineSpec {
            name: "ms",
            config: base(),
        },
        EngineSpec {
            name: "par2",
            config: base().gc_threads(2),
        },
        EngineSpec {
            name: "copying",
            config: base().collector(CollectorKind::Copying),
        },
        EngineSpec {
            name: "gen-cards",
            config: base().generational(2).minor_strategy(MinorStrategy::Cards),
        },
        EngineSpec {
            name: "gen-rs",
            config: base()
                .generational(2)
                .minor_strategy(MinorStrategy::RememberedSet),
        },
    ]
}

/// Why a program failed the differential check.
#[derive(Debug, Clone)]
pub enum CheckError {
    /// Two engines produced different observables.
    Mismatch {
        /// First engine name.
        left: &'static str,
        /// Second engine name.
        right: &'static str,
        /// Which observable differed, with both values.
        what: String,
    },
    /// One engine panicked — a VM error, a heap-verification failure, or
    /// a tripped `debug_assert!` invariant module.
    EngineFailure {
        /// The engine that failed.
        engine: &'static str,
        /// The panic payload.
        message: String,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Mismatch { left, right, what } => {
                write!(f, "engines {left} and {right} disagree: {what}")
            }
            CheckError::EngineFailure { engine, message } => {
                write!(f, "engine {engine} failed: {message}")
            }
        }
    }
}

fn run_caught(spec: &EngineSpec, ops: &[FuzzOp]) -> Result<Outcome, CheckError> {
    let config = spec.config.clone();
    catch_unwind(AssertUnwindSafe(|| run_program(config, ops))).map_err(|payload| {
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        CheckError::EngineFailure {
            engine: spec.name,
            message,
        }
    })
}

fn diff(left: &EngineSpec, lo: &Outcome, right: &EngineSpec, ro: &Outcome) -> Option<CheckError> {
    let mismatch = |what: String| {
        Some(CheckError::Mismatch {
            left: left.name,
            right: right.name,
            what,
        })
    };
    if lo.live != ro.live {
        return mismatch(format!("liveness {:?} vs {:?}", lo.live, ro.live));
    }
    if lo.violations != ro.violations {
        return mismatch(format!(
            "violations {:?} vs {:?}",
            lo.violations, ro.violations
        ));
    }
    if lo.check_totals != ro.check_totals {
        return mismatch(format!(
            "check counters {:?} vs {:?}",
            lo.check_totals, ro.check_totals
        ));
    }
    if lo.census_classes != ro.census_classes {
        return mismatch(format!(
            "census classes {:?} vs {:?}",
            lo.census_classes, ro.census_classes
        ));
    }
    if lo.census_sites != ro.census_sites {
        return mismatch(format!(
            "census sites {:?} vs {:?}",
            lo.census_sites, ro.census_sites
        ));
    }
    None
}

/// Runs `ops` through the whole engine matrix and applies the comparison
/// policy. `Ok(())` means every pairing agreed and no engine tripped an
/// invariant.
///
/// # Errors
///
/// The first [`CheckError`] found, in a deterministic engine order.
pub fn check_program(ops: &[FuzzOp]) -> Result<(), CheckError> {
    check_program_with(&engine_matrix(), ops)
}

/// [`check_program`] against an explicit matrix (the first entry is the
/// reference engine; entries named `gen-*` join the liveness-only
/// bridge + full minor-strategy pairing, everything else the
/// full-outcome group).
///
/// # Errors
///
/// The first [`CheckError`] found.
pub fn check_program_with(matrix: &[EngineSpec], ops: &[FuzzOp]) -> Result<(), CheckError> {
    let mut outcomes: Vec<(usize, Outcome)> = Vec::with_capacity(matrix.len());
    for (i, spec) in matrix.iter().enumerate() {
        outcomes.push((i, run_caught(spec, ops)?));
    }
    let is_gen = |spec: &EngineSpec| spec.name.starts_with("gen");
    let full: Vec<&(usize, Outcome)> = outcomes
        .iter()
        .filter(|(i, _)| !is_gen(&matrix[*i]))
        .collect();
    let gens: Vec<&(usize, Outcome)> = outcomes
        .iter()
        .filter(|(i, _)| is_gen(&matrix[*i]))
        .collect();

    // Full-outcome group: everyone against the reference (first) engine.
    if let Some(&&(ri, ref reference)) = full.first() {
        for &&(i, ref o) in &full[1..] {
            if let Some(e) = diff(&matrix[ri], reference, &matrix[i], o) {
                return Err(e);
            }
        }
        // Liveness bridge: every generational engine against the
        // reference on the final live set only.
        for &&(i, ref o) in &gens {
            if o.live != reference.live {
                return Err(CheckError::Mismatch {
                    left: matrix[ri].name,
                    right: matrix[i].name,
                    what: format!("liveness {:?} vs {:?}", reference.live, o.live),
                });
            }
        }
    }
    // Minor-strategy pairing: the generational engines against each
    // other on the full outcome (identical majors *and* minors).
    if let Some(&&(gi, ref gref)) = gens.first() {
        for &&(i, ref o) in &gens[1..] {
            if let Some(e) = diff(&matrix[gi], gref, &matrix[i], o) {
                return Err(e);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_all_engine_kinds() {
        let names: Vec<&str> = engine_matrix().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["ms", "par2", "copying", "gen-cards", "gen-rs"]);
    }

    #[test]
    fn simple_program_checks_clean() {
        let ops = vec![
            FuzzOp::Alloc {
                data: 0,
                root: true,
            },
            FuzzOp::AssertDead { target: 0 },
            FuzzOp::Collect,
        ];
        check_program(&ops).expect("engines must agree on a trivial program");
    }
}
