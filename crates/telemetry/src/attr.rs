//! Per-assertion-kind overhead attribution.
//!
//! The paper reports assertion overhead in aggregate (Figures 4 and 5);
//! these types split the checking work by *assertion kind*, so a run can
//! answer "which assertion is costing me" — the attribution model every
//! later perf PR (sharding, batching, caching) measures against.

/// The five assertion kinds of the paper, used as attribution keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssertionKind {
    /// `assert-dead(p)` (§2.3.1).
    Dead,
    /// `start-region` / `assert-alldead` (§2.3.2).
    Region,
    /// `assert-instances(T, I)` (§2.4.1).
    Instances,
    /// `assert-unshared(p)` (§2.5.1).
    Unshared,
    /// `assert-ownedby(p, q)` (§2.5.2).
    OwnedBy,
}

impl AssertionKind {
    /// All kinds, in reporting order.
    pub const ALL: [AssertionKind; 5] = [
        AssertionKind::Dead,
        AssertionKind::Region,
        AssertionKind::Instances,
        AssertionKind::Unshared,
        AssertionKind::OwnedBy,
    ];

    /// Stable lowercase label used by both exporters.
    pub fn label(self) -> &'static str {
        match self {
            AssertionKind::Dead => "dead",
            AssertionKind::Region => "region",
            AssertionKind::Instances => "instances",
            AssertionKind::Unshared => "unshared",
            AssertionKind::OwnedBy => "owned_by",
        }
    }
}

/// Overhead counters for one assertion kind.
///
/// Each field is one of the mechanisms by which an assertion can add work
/// to a collection; a kind that does not use a mechanism keeps it zero
/// (e.g. `assert-dead` does header-bit checks but never traces extra
/// edges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindOverhead {
    /// Assertion API registrations attributed to this kind since the
    /// previous cycle (region objects count toward `Region`).
    pub registered: u64,
    /// Header-bit sightings during tracing (`DEAD` / `UNSHARED` flags
    /// observed set on a visited object or edge).
    pub header_bit_checks: u64,
    /// Per-object counter increments (tracked-class instance counting).
    pub counter_bumps: u64,
    /// Reference edges traced *only because* of this kind (the ownership
    /// pre-phase scans owner subgraphs before the root scan).
    pub extra_edges_traced: u64,
    /// Ownership-phase work items: owners scanned, ownees checked and
    /// deferred ownees processed (for `OwnedBy`); regions opened (for
    /// `Region`).
    pub phase_work: u64,
}

impl KindOverhead {
    /// `true` when every counter is zero.
    pub(crate) fn is_zero(&self) -> bool {
        *self == KindOverhead::default()
    }

    /// Adds `other` into `self` field-wise.
    pub(crate) fn absorb(&mut self, other: &KindOverhead) {
        self.registered += other.registered;
        self.header_bit_checks += other.header_bit_checks;
        self.counter_bumps += other.counter_bumps;
        self.extra_edges_traced += other.extra_edges_traced;
        self.phase_work += other.phase_work;
    }
}

/// Overhead attribution across all five assertion kinds (one
/// [`KindOverhead`] each).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssertionOverhead {
    /// `assert-dead` work.
    pub dead: KindOverhead,
    /// Region (`assert-alldead`) work.
    pub region: KindOverhead,
    /// `assert-instances` work.
    pub instances: KindOverhead,
    /// `assert-unshared` work.
    pub unshared: KindOverhead,
    /// `assert-ownedby` work.
    pub owned_by: KindOverhead,
}

impl AssertionOverhead {
    /// The counters for one kind.
    pub(crate) fn kind(&self, kind: AssertionKind) -> &KindOverhead {
        match kind {
            AssertionKind::Dead => &self.dead,
            AssertionKind::Region => &self.region,
            AssertionKind::Instances => &self.instances,
            AssertionKind::Unshared => &self.unshared,
            AssertionKind::OwnedBy => &self.owned_by,
        }
    }

    /// Mutable counters for one kind.
    pub(crate) fn kind_mut(&mut self, kind: AssertionKind) -> &mut KindOverhead {
        match kind {
            AssertionKind::Dead => &mut self.dead,
            AssertionKind::Region => &mut self.region,
            AssertionKind::Instances => &mut self.instances,
            AssertionKind::Unshared => &mut self.unshared,
            AssertionKind::OwnedBy => &mut self.owned_by,
        }
    }

    /// `true` when no kind recorded any work.
    pub fn is_zero(&self) -> bool {
        *self == AssertionOverhead::default()
    }

    /// Adds `other` into `self` kind- and field-wise.
    pub(crate) fn absorb(&mut self, other: &AssertionOverhead) {
        for kind in AssertionKind::ALL {
            self.kind_mut(kind).absorb(other.kind(kind));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels: Vec<&str> = AssertionKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            ["dead", "region", "instances", "unshared", "owned_by"]
        );
    }

    #[test]
    fn kind_accessors_roundtrip() {
        let mut o = AssertionOverhead::default();
        for (i, kind) in AssertionKind::ALL.into_iter().enumerate() {
            o.kind_mut(kind).registered = i as u64 + 1;
        }
        assert_eq!(o.dead.registered, 1);
        assert_eq!(o.owned_by.registered, 5);
        assert!(!o.is_zero());
    }

    #[test]
    fn absorb_is_fieldwise() {
        let mut a = AssertionOverhead {
            unshared: KindOverhead {
                header_bit_checks: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let b = AssertionOverhead {
            unshared: KindOverhead {
                header_bit_checks: 3,
                ..Default::default()
            },
            owned_by: KindOverhead {
                extra_edges_traced: 7,
                ..Default::default()
            },
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.unshared.header_bit_checks, 5);
        assert_eq!(a.owned_by.extra_edges_traced, 7);
    }

    #[test]
    fn zero_detection() {
        assert!(AssertionOverhead::default().is_zero());
        assert!(KindOverhead::default().is_zero());
        let k = KindOverhead {
            phase_work: 1,
            ..Default::default()
        };
        assert!(!k.is_zero());
    }
}
