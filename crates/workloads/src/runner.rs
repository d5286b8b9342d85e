//! The measurement harness: runs workloads under the paper's three
//! configurations and reports total / GC / mutator time.

use std::fmt;
use std::time::{Duration, Instant};

use gc_assertions::{Mode, Vm, VmConfig, VmError};

/// A workload that can be run against a fresh VM.
///
/// Workloads must be deterministic: the same parameters produce the same
/// allocation and pointer behaviour on every run, so timing differences
/// between configurations are attributable to the configurations alone.
pub trait Workload {
    /// Display name (benchmark name in the figures).
    fn name(&self) -> &str;

    /// Heap budget in words for this workload — the analogue of the
    /// paper's "heap size fixed at two times the minimum" methodology.
    fn heap_budget(&self) -> usize;

    /// Runs one iteration. `assertions` selects whether the workload adds
    /// its GC assertions (the WithAssertions configuration); workloads
    /// with no assertion sites ignore it.
    ///
    /// # Errors
    ///
    /// VM errors (should not occur for a correct workload).
    fn run(&self, vm: &mut Vm, assertions: bool) -> Result<(), VmError>;
}

/// The three measured configurations of §3.1.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpConfig {
    /// Unmodified collector, no assertion infrastructure.
    Base,
    /// Assertion infrastructure attached (flag checks + path-tracking
    /// worklist) but no assertions registered.
    Infrastructure,
    /// Infrastructure plus the workload's own assertions.
    WithAssertions,
}

impl ExpConfig {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ExpConfig::Base => "Base",
            ExpConfig::Infrastructure => "Infrastructure",
            ExpConfig::WithAssertions => "WithAssertions",
        }
    }
}

impl fmt::Display for ExpConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload name.
    pub workload: String,
    /// Configuration measured.
    pub config: ExpConfig,
    /// Wall-clock time of the whole run.
    pub total: Duration,
    /// Time inside the collector.
    pub gc: Duration,
    /// `total - gc` (the paper's "mutator time").
    pub mutator: Duration,
    /// Collections performed.
    pub collections: u64,
    /// Violations detected (WithAssertions runs on buggy workloads).
    pub violations: u64,
    /// Objects allocated.
    pub allocations: u64,
    /// Average ownees checked per collection (§3.1.2 reports this).
    pub ownees_checked_per_gc: f64,
}

/// Runs `workload` once under `config` on a fresh VM — a growable heap of
/// the workload's budget, base mode for [`ExpConfig::Base`], instrumented
/// otherwise — and returns the measurement.
///
/// # Errors
///
/// Propagates workload VM errors.
pub fn run_once(workload: &dyn Workload, config: ExpConfig) -> Result<Measurement, VmError> {
    let mode = match config {
        ExpConfig::Base => Mode::Base,
        _ => Mode::Instrumented,
    };
    let mut vm = Vm::new(
        VmConfig::builder()
            .heap_budget(workload.heap_budget())
            .grow_on_oom(true)
            .mode(mode)
            .build(),
    );

    let start = Instant::now();
    workload.run(&mut vm, config == ExpConfig::WithAssertions)?;
    // Final collection so assertions issued near the end of the run are
    // checked at least once (uniform across configurations).
    vm.collect()?;
    let total = start.elapsed();

    let gc = vm.gc_stats().total_gc_time;
    let collections = vm.gc_stats().collections;
    Ok(Measurement {
        workload: workload.name().to_owned(),
        config,
        total,
        gc,
        mutator: total.saturating_sub(gc),
        collections,
        violations: vm.violation_log().len() as u64,
        allocations: vm.heap_stats().allocations,
        ownees_checked_per_gc: if collections == 0 {
            0.0
        } else {
            vm.check_totals().ownees_checked as f64 / collections as f64
        },
    })
}

/// Relative overhead of `new` vs `base` in percent (e.g. `3.1` = +3.1%).
pub fn overhead_percent(base: Duration, new: Duration) -> f64 {
    if base.is_zero() {
        return 0.0;
    }
    (new.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal allocation-churn workload for harness tests.
    struct Churn;

    impl Workload for Churn {
        fn name(&self) -> &str {
            "churn"
        }
        fn heap_budget(&self) -> usize {
            4_000
        }
        fn run(&self, vm: &mut Vm, _assertions: bool) -> Result<(), VmError> {
            let c = vm.register_class("X", &[]);
            let m = vm.main();
            for _ in 0..2_000 {
                vm.alloc(m, c, 0, 6)?;
            }
            Ok(())
        }
    }

    #[test]
    fn run_once_measures_gc_activity() {
        let m = run_once(&Churn, ExpConfig::Base).unwrap();
        assert_eq!(m.workload, "churn");
        assert!(m.collections > 0);
        assert_eq!(m.allocations, 2_000);
        assert!(m.total >= m.gc);
        assert_eq!(m.violations, 0);
    }

    #[test]
    fn all_three_configs_run() {
        for config in [
            ExpConfig::Base,
            ExpConfig::Infrastructure,
            ExpConfig::WithAssertions,
        ] {
            let m = run_once(&Churn, config).unwrap();
            assert_eq!(m.config, config);
            assert!(m.collections > 0, "{config} should collect");
        }
    }

    #[test]
    fn overhead_math() {
        let base = Duration::from_millis(100);
        let new = Duration::from_millis(103);
        let pct = overhead_percent(base, new);
        assert!((pct - 3.0).abs() < 0.01);
        assert_eq!(overhead_percent(Duration::ZERO, new), 0.0);
    }

    #[test]
    fn labels() {
        assert_eq!(ExpConfig::Base.to_string(), "Base");
        assert_eq!(ExpConfig::Infrastructure.label(), "Infrastructure");
        assert_eq!(ExpConfig::WithAssertions.label(), "WithAssertions");
    }
}
