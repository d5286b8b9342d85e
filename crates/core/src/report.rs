//! Per-collection reports.

use std::fmt;

use gca_collector::CycleStats;

use crate::violation::Violation;

/// Per-cycle assertion-checking counters — the quantities the paper
/// reports in §3.1.2 (e.g. "during each GC we check on average 15,274
/// ownee objects").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckCounters {
    /// Owner objects whose subgraphs the ownership phase scanned.
    pub owners_scanned: u64,
    /// Ownee objects checked for correct ownership during this cycle.
    pub ownees_checked: u64,
    /// Ownees taken off the deferred queue and scanned after the owner
    /// scans completed.
    pub deferred_ownees_processed: u64,
    /// Objects whose `DEAD` bit was found set during tracing (reachable
    /// asserted-dead objects; equals the dead-reachable violations plus
    /// re-encounters).
    pub dead_bits_seen: u64,
    /// Live instances counted across all tracked classes this cycle.
    pub tracked_instances_counted: u64,
    /// Objects whose `UNSHARED` bit was found set on an extra incoming
    /// edge during tracing (each sighting is one `assert-unshared`
    /// header-bit check that fired).
    pub unshared_bits_seen: u64,
}

impl CheckCounters {
    /// Counts the header-bit sighting behind a root-scan finding.
    pub(crate) fn count(&mut self, finding: crate::engine::Finding) {
        match finding {
            crate::engine::Finding::Dead => self.dead_bits_seen += 1,
            crate::engine::Finding::Shared => self.unshared_bits_seen += 1,
            crate::engine::Finding::NotOwned => {}
        }
    }

    /// Adds `other`'s counts to these.
    pub(crate) fn add(&mut self, other: &CheckCounters) {
        self.owners_scanned += other.owners_scanned;
        self.ownees_checked += other.ownees_checked;
        self.deferred_ownees_processed += other.deferred_ownees_processed;
        self.dead_bits_seen += other.dead_bits_seen;
        self.tracked_instances_counted += other.tracked_instances_counted;
        self.unshared_bits_seen += other.unshared_bits_seen;
    }
}

/// The result of one [`crate::Vm::collect`] call: collector timing plus
/// the assertion violations detected during the cycle.
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// Collector phase timings and object counts for the cycle.
    pub cycle: CycleStats,
    /// Violations detected this cycle, in detection order.
    pub violations: Vec<Violation>,
    /// Assertion-checking work performed this cycle.
    pub counters: CheckCounters,
    /// `true` if the VM halted because of a violation under
    /// [`crate::Reaction::Halt`].
    pub halted: bool,
}

impl GcReport {
    /// Returns `true` if no assertion failed this cycle.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for GcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violation(s), {} ownees checked, {} owners scanned, cycle {:?}",
            self.violations.len(),
            self.counters.ownees_checked,
            self.counters.owners_scanned,
            self.cycle.total
        )?;
        if self.halted {
            write!(f, " [halted]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report() {
        let r = GcReport::default();
        assert!(r.is_clean());
        assert!(!r.halted);
        assert!(r.to_string().contains("0 violation(s)"));
    }
}
