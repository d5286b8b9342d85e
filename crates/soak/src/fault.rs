//! Fault injection and detection-latency measurement.
//!
//! A [`FaultPlan`] plants one of four canonical heap bugs into a shard's
//! VM after a given number of requests, *alongside* the scenario's own
//! (clean) traffic. The shard then keeps serving; the assertions and the
//! census drift detector are the only things watching. The interval from
//! injection to the first matching report — in GC cycles and wall time —
//! is the fleet's **detection latency**, the headline number of running
//! GC assertions as always-on production monitors.

use std::time::Instant;

use gc_assertions::{ObjRef, ViolationKind, Vm, VmError};

/// The four injected bug kinds, one per assertion family the paper
/// proposes (§2.2–§2.5) plus census drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A hidden global root retains an object the program asserted dead
    /// (the §2.2 leak shape). Detected as `DeadReachable`.
    Leak,
    /// An ownee reachable around its asserted owner (§2.5.2). Detected
    /// as `NotOwned`.
    Ownership,
    /// A second incoming pointer to an asserted-unshared object
    /// (§2.5.1). Detected as `Shared`.
    Unshared,
    /// A rooted hoard that grows on every request — no assertion is
    /// violated; the rolling-window census drift detector must flag the
    /// growth instead.
    Drift,
}

impl FaultKind {
    /// All kinds, in reporting order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Leak,
        FaultKind::Ownership,
        FaultKind::Unshared,
        FaultKind::Drift,
    ];

    /// Stable CLI/export label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            FaultKind::Leak => "leak",
            FaultKind::Ownership => "ownership",
            FaultKind::Unshared => "unshared",
            FaultKind::Drift => "drift",
        }
    }

    /// Parses a CLI label (`leak`, `ownership`, `unshared` or `drift`, as
    /// the kind displays itself).
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One planned fault: `kind` is injected into shard `shard`'s VM right
/// after that shard has served `after_requests` requests.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Target shard index.
    pub shard: usize,
    /// What to inject.
    pub kind: FaultKind,
    /// Inject after this many served requests.
    pub after_requests: u64,
}

impl FaultPlan {
    /// Creates a plan.
    pub fn new(shard: usize, kind: FaultKind, after_requests: u64) -> FaultPlan {
        FaultPlan {
            shard,
            kind,
            after_requests,
        }
    }
}

/// The moment a fault's first matching report appeared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Major+minor collections between injection and the report.
    pub cycles: u64,
    /// Wall time between injection and the report, nanoseconds.
    pub wall_ns: u64,
}

/// Driver state for one shard's planned fault: arms it at the right
/// request, keeps degenerative faults (drift) progressing, and watches
/// the violation log / census for the first matching report.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    armed_at: Option<(u64, Instant)>,
    detection: Option<Detection>,
    /// Drift hoard: current list head (kept globally rooted).
    drift_head: ObjRef,
    drift_class: Option<gc_assertions::ClassId>,
}

impl FaultInjector {
    /// Creates the injector for `plan`.
    pub(crate) fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            armed_at: None,
            detection: None,
            drift_head: ObjRef::NULL,
            drift_class: None,
        }
    }

    /// Whether the fault has been injected yet.
    pub(crate) fn armed(&self) -> bool {
        self.armed_at.is_some()
    }

    /// The detection, once the fault has been reported.
    pub(crate) fn detection(&self) -> Option<Detection> {
        self.detection
    }

    /// Called after every served request: arms the fault when its time
    /// comes and keeps the drift hoard growing.
    ///
    /// # Errors
    ///
    /// VM errors from the injected allocations.
    pub(crate) fn after_request(&mut self, vm: &mut Vm, requests_done: u64) -> Result<(), VmError> {
        if self.armed_at.is_none() {
            if requests_done >= self.plan.after_requests {
                self.arm(vm)?;
                self.armed_at = Some((vm.collections(), Instant::now()));
            }
            return Ok(());
        }
        if self.plan.kind == FaultKind::Drift && self.detection.is_none() {
            self.grow_hoard(vm, 4)?;
        }
        Ok(())
    }

    /// Plants the bug. One-shot for the assertion faults; the drift
    /// fault plants the hoard's first node and grows from there.
    fn arm(&mut self, vm: &mut Vm) -> Result<(), VmError> {
        let m = vm.main();
        let site = vm.alloc_site("FaultInjector::arm");
        let prev_site = vm.set_alloc_site(site);
        match self.plan.kind {
            FaultKind::Leak => {
                // The program says "dead"; a forgotten registry says no.
                let cls = vm.register_class("LeakedSession", &["data"]);
                vm.push_frame(m)?;
                let obj = vm.alloc_rooted(m, cls, 1, 2)?;
                vm.add_global(obj)?;
                vm.pop_frame(m)?;
                vm.assert_dead(obj)?;
            }
            FaultKind::Ownership => {
                // Ownee reachable via a global, not through its owner.
                let cls = vm.register_class("FaultOwner", &["slot"]);
                vm.push_frame(m)?;
                let owner = vm.alloc_rooted(m, cls, 1, 0)?;
                vm.add_global(owner)?;
                let ownee = vm.alloc_rooted(m, cls, 1, 0)?;
                vm.add_global(ownee)?;
                vm.pop_frame(m)?;
                vm.assert_owned_by(owner, ownee)?;
            }
            FaultKind::Unshared => {
                // Two fields of one parent aimed at the same child.
                let cls = vm.register_class("FaultPair", &["a", "b"]);
                vm.push_frame(m)?;
                let parent = vm.alloc_rooted(m, cls, 2, 0)?;
                vm.add_global(parent)?;
                let child = vm.alloc(m, cls, 2, 0)?;
                vm.pop_frame(m)?;
                vm.set_field(parent, 0, child)?;
                vm.set_field(parent, 1, child)?;
                vm.assert_unshared(child)?;
            }
            FaultKind::Drift => {
                let cls = vm.register_class("DriftHoard", &["next"]);
                self.drift_class = Some(cls);
                self.grow_hoard(vm, 4)?;
            }
        }
        vm.set_alloc_site(prev_site);
        Ok(())
    }

    /// Prepends `n` nodes to the globally rooted hoard list.
    fn grow_hoard(&mut self, vm: &mut Vm, n: usize) -> Result<(), VmError> {
        let cls = self.drift_class.expect("arm() registers the class");
        let m = vm.main();
        let site = vm.alloc_site("FaultInjector::hoard");
        let prev_site = vm.set_alloc_site(site);
        for _ in 0..n {
            vm.push_frame(m)?;
            let node = vm.alloc_rooted(m, cls, 1, 2)?;
            vm.set_field(node, 0, self.drift_head)?;
            vm.add_global(node)?;
            vm.pop_frame(m)?;
            if self.drift_head.is_some() {
                vm.remove_global(self.drift_head)?;
            }
            self.drift_head = node;
        }
        vm.set_alloc_site(prev_site);
        Ok(())
    }

    /// Whether `kind` is the report this fault is waiting for.
    fn matches(&self, kind: &ViolationKind) -> bool {
        matches!(
            (self.plan.kind, kind),
            (FaultKind::Leak, ViolationKind::DeadReachable { .. })
                | (FaultKind::Ownership, ViolationKind::NotOwned { .. })
                | (FaultKind::Unshared, ViolationKind::Shared { .. })
        )
    }

    /// Feeds the violations drained since the last call, plus the
    /// current census drift view, and records the first matching report.
    /// Returns `true` when detection happened on this observation.
    pub(crate) fn observe(
        &mut self,
        vm: &Vm,
        drained: &[gc_assertions::Violation],
        census_drifting: bool,
    ) -> bool {
        if self.detection.is_some() {
            return false;
        }
        let Some((cycles_at_arm, at)) = self.armed_at else {
            return false;
        };
        let hit = match self.plan.kind {
            FaultKind::Drift => census_drifting,
            _ => drained.iter().any(|v| self.matches(&v.kind)),
        };
        if hit {
            self.detection = Some(Detection {
                cycles: vm.collections().saturating_sub(cycles_at_arm),
                wall_ns: at.elapsed().as_nanos() as u64,
            });
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_assertions::VmConfig;

    fn vm() -> Vm {
        Vm::new(
            VmConfig::builder()
                .heap_budget(16 * 1024)
                .grow_on_oom(true)
                .telemetry(true)
                .census(true)
                .build(),
        )
    }

    /// Every assertion fault is detected at the very next collection —
    /// detection latency of one cycle from a standing start.
    #[test]
    fn assertion_faults_detected_in_one_cycle() {
        for kind in [FaultKind::Leak, FaultKind::Ownership, FaultKind::Unshared] {
            let mut vm = vm();
            let mut inj = FaultInjector::new(FaultPlan::new(0, kind, 0));
            inj.after_request(&mut vm, 0).unwrap();
            assert!(inj.armed());
            vm.collect().unwrap();
            let drained = vm.take_violation_log();
            assert!(!drained.is_empty(), "{kind}: must violate");
            assert!(inj.observe(&vm, &drained, false), "{kind}: must detect");
            let d = inj.detection().unwrap();
            assert_eq!(d.cycles, 1, "{kind}: next collection finds it");
        }
    }

    #[test]
    fn drift_fault_needs_census_not_violations() {
        let mut vm = vm();
        let mut inj = FaultInjector::new(FaultPlan::new(0, FaultKind::Drift, 0));
        for req in 0..400 {
            inj.after_request(&mut vm, req).unwrap();
        }
        vm.collect().unwrap();
        assert!(
            vm.take_violation_log().is_empty(),
            "a hoard violates no assertion"
        );
        // The hoard grows monotonically, so once enough majors have
        // passed the census flags the DriftHoard class.
        while vm.census().cycles() < 8 {
            inj.after_request(&mut vm, 1_000).unwrap();
            vm.collect().unwrap();
        }
        let drifting = vm.census().drifts().iter().any(|d| d.name == "DriftHoard");
        assert!(
            drifting,
            "census must flag the hoard: {:?}",
            vm.census().drifts()
        );
        assert!(inj.observe(&vm, &[], drifting));
        assert!(inj.detection().unwrap().cycles >= 1);
    }

    #[test]
    fn labels_parse_back() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(FaultKind::parse("nope"), None);
    }
}
