//! Greedy counterexample shrinker.
//!
//! The op language is *total* — every op no-ops when its preconditions
//! are unmet and operand indices wrap modulo the rooted set — so **any
//! subsequence of a failing program is itself a valid program**. That
//! makes delta debugging sound without any repair step: we just delete
//! ops while the failure persists.

use crate::program::FuzzOp;

/// Shrinks `ops` to a locally-minimal failing program: first a
/// halving-chunk pass (classic ddmin, cheap on long fuzz programs), then
/// single-op deletion to a fixpoint. `still_fails` must return `true`
/// when the candidate program still exhibits the failure being chased.
///
/// The result is 1-minimal: removing any single remaining op makes the
/// failure disappear.
pub(crate) fn shrink_ops<F: FnMut(&[FuzzOp]) -> bool>(
    ops: &[FuzzOp],
    mut still_fails: F,
) -> Vec<FuzzOp> {
    let mut current: Vec<FuzzOp> = ops.to_vec();

    // Chunked pass: try dropping contiguous halves, quarters, ...
    let mut chunk = current.len() / 2;
    while chunk >= 1 {
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if !candidate.is_empty() && still_fails(&candidate) {
                current = candidate;
                // Retry the same window position on the shrunk program.
            } else {
                start += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }

    // Single-op fixpoint (also handles what the chunk pass left behind).
    loop {
        let mut changed = false;
        let mut i = 0;
        while i < current.len() {
            if current.len() == 1 {
                break;
            }
            let mut candidate = current.clone();
            candidate.remove(i);
            if still_fails(&candidate) {
                current = candidate;
                changed = true;
            } else {
                i += 1;
            }
        }
        if !changed {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(root: bool) -> FuzzOp {
        FuzzOp::Alloc { data: 0, root }
    }

    #[test]
    fn shrinks_to_the_failure_core() {
        // "Failure" = program contains both a rooted alloc and a Collect.
        let ops = vec![
            alloc(false),
            alloc(true),
            FuzzOp::Unlink { from: 0, field: 0 },
            FuzzOp::Collect,
            alloc(false),
            FuzzOp::BreakOwner,
        ];
        let fails = |ops: &[FuzzOp]| {
            ops.iter()
                .any(|o| matches!(o, FuzzOp::Alloc { root: true, .. }))
                && ops.iter().any(|o| matches!(o, FuzzOp::Collect))
        };
        let minimal = shrink_ops(&ops, fails);
        assert_eq!(minimal, vec![alloc(true), FuzzOp::Collect]);
    }

    #[test]
    fn minimal_program_is_1_minimal() {
        let ops = vec![alloc(true); 5];
        let fails = |ops: &[FuzzOp]| ops.len() >= 3;
        let minimal = shrink_ops(&ops, fails);
        assert_eq!(minimal.len(), 3, "exactly at the failure threshold");
    }
}
