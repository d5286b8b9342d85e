//! Assertion violations and their paper-style rendering.

use std::fmt;

use gca_collector::HeapPath;
use gca_heap::{ObjRef, TypeRegistry};

/// What went wrong: one variant per assertion kind, carrying the
/// information needed for a paper-style report. Class names are resolved
/// at detection time so violations stay printable after the objects die.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ViolationKind {
    /// `assert-dead`: an object that was asserted dead is reachable
    /// (§2.3.1). Also produced by `assert-alldead` regions, which mark
    /// every region-allocated object dead at the region end (§2.3.2).
    DeadReachable {
        /// The reachable-but-asserted-dead object.
        object: ObjRef,
        /// Its class name.
        class_name: String,
    },
    /// `assert-instances`: more than `limit` instances of the class were
    /// live at collection time (§2.4.1). No path is available — as the
    /// paper notes, the problem objects may have been traced before the
    /// count exceeded the limit.
    InstanceLimit {
        /// The tracked class.
        class_name: String,
        /// The asserted limit.
        limit: u32,
        /// Live instances observed this collection.
        count: u32,
    },
    /// `assert-unshared`: a second incoming pointer was found (§2.5.1).
    /// The path is the *second* path, which, as the paper concedes, may
    /// not be the one the user needs.
    Shared {
        /// The object with multiple incoming pointers.
        object: ObjRef,
        /// Its class name.
        class_name: String,
    },
    /// `assert-ownedby`: the root scan reached an ownee that the ownership
    /// phase did not mark as owned — no path to it passes through its
    /// owner (§2.5.2).
    NotOwned {
        /// The improperly reachable ownee.
        ownee: ObjRef,
        /// Its class name.
        ownee_class: String,
        /// Its registered owner.
        owner: ObjRef,
        /// The owner's class name.
        owner_class: String,
    },
    /// `assert-ownedby` misuse: while scanning from one owner, the
    /// ownership phase encountered an ownee registered to a *different*
    /// owner, violating the disjointness restriction (§2.5.2).
    ImproperOwnership {
        /// The ownee reached through the wrong owner.
        ownee: ObjRef,
        /// Its class name.
        ownee_class: String,
        /// The owner whose scan reached it.
        scanned_owner: ObjRef,
        /// The scanned owner's class name.
        scanned_owner_class: String,
    },
    /// Strict owner-lifetime extension (ours, not in the paper): the owner
    /// was collected while this ownee is still live, i.e. the ownee
    /// outlived its owner.
    OwneeOutlivedOwner {
        /// The surviving ownee.
        ownee: ObjRef,
        /// Its class name.
        ownee_class: String,
        /// The dead owner's class name.
        owner_class: String,
    },
}

/// A checked-and-failed GC assertion, with the heap path the tracer
/// reconstructed when it detected the failure.
///
/// # Example
///
/// ```
/// use gc_assertions::{Vm, VmConfig};
///
/// # fn main() -> Result<(), gc_assertions::VmError> {
/// let mut vm = Vm::new(VmConfig::builder().build());
/// let class = vm.register_class("Order", &[]);
/// let m = vm.main();
/// let order = vm.alloc(m, class, 0, 0)?;
/// vm.add_root(m, order)?; // still rooted...
/// vm.assert_dead(order)?; // ...but asserted dead
/// let report = vm.collect()?;
/// assert_eq!(report.violations.len(), 1);
/// let text = report.violations[0].render(vm.registry());
/// assert!(text.contains("asserted dead is reachable"));
/// assert!(text.contains("Order"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What failed.
    pub kind: ViolationKind,
    /// Root-to-object path at detection time; empty when path tracking is
    /// off or when the assertion kind cannot provide one.
    pub path: HeapPath,
}

impl Violation {
    /// The assertion class this violation belongs to, for per-class
    /// reaction policies ([`VmConfigBuilder::reaction_for`](crate::VmConfigBuilder::reaction_for)).
    pub fn class(&self) -> crate::config::AssertionClass {
        use crate::config::AssertionClass;
        match self.kind {
            ViolationKind::DeadReachable { .. } => AssertionClass::Lifetime,
            ViolationKind::InstanceLimit { .. } => AssertionClass::Volume,
            ViolationKind::Shared { .. }
            | ViolationKind::NotOwned { .. }
            | ViolationKind::ImproperOwnership { .. }
            | ViolationKind::OwneeOutlivedOwner { .. } => AssertionClass::Connectivity,
        }
    }

    /// Renders the violation in the style of the paper's Figure 1:
    ///
    /// ```text
    /// Warning: an object that was asserted dead is reachable.
    /// Type: Order
    /// Path to object: Company
    ///  -> .warehouses Object[]
    ///  ...
    /// ```
    pub fn render(&self, registry: &TypeRegistry) -> String {
        let mut out = String::new();
        match &self.kind {
            ViolationKind::DeadReachable { object, class_name } => {
                out.push_str("Warning: an object that was asserted dead is reachable.\n");
                out.push_str(&format!("Type: {class_name} ({object})\n"));
                out.push_str(&format!("Path to object: {}", self.path.display(registry)));
            }
            ViolationKind::InstanceLimit {
                class_name,
                limit,
                count,
            } => {
                out.push_str("Warning: instance limit exceeded.\n");
                out.push_str(&format!(
                    "Type: {class_name}\nLimit: {limit}, live instances at GC: {count}"
                ));
            }
            ViolationKind::Shared { object, class_name } => {
                out.push_str(
                    "Warning: an object that was asserted unshared has more than one incoming pointer.\n",
                );
                out.push_str(&format!("Type: {class_name} ({object})\n"));
                out.push_str(&format!(
                    "Second path to object: {}",
                    self.path.display(registry)
                ));
            }
            ViolationKind::NotOwned {
                ownee,
                ownee_class,
                owner,
                owner_class,
            } => {
                out.push_str("Warning: an object is reachable but not through its owner.\n");
                out.push_str(&format!(
                    "Ownee: {ownee_class} ({ownee}), owner: {owner_class} ({owner})\n"
                ));
                out.push_str(&format!("Path to object: {}", self.path.display(registry)));
            }
            ViolationKind::ImproperOwnership {
                ownee,
                ownee_class,
                scanned_owner,
                scanned_owner_class,
            } => {
                out.push_str("Warning: improper use of assert-ownedby (owner regions overlap).\n");
                out.push_str(&format!(
                    "Ownee {ownee_class} ({ownee}) was reached while scanning from owner {scanned_owner_class} ({scanned_owner})\n"
                ));
                out.push_str(&format!(
                    "Path from scanned owner: {}",
                    self.path.display(registry)
                ));
            }
            ViolationKind::OwneeOutlivedOwner {
                ownee,
                ownee_class,
                owner_class,
            } => {
                out.push_str("Warning: an ownee outlived its owner.\n");
                out.push_str(&format!(
                    "Ownee: {ownee_class} ({ownee}), owner class: {owner_class} (collected this cycle)"
                ));
            }
        }
        out
    }

    /// Short one-line summary, independent of the registry.
    pub fn summary(&self) -> String {
        match &self.kind {
            ViolationKind::DeadReachable { class_name, .. } => {
                format!("dead-reachable {class_name}")
            }
            ViolationKind::InstanceLimit {
                class_name,
                limit,
                count,
            } => format!("instance-limit {class_name} {count}>{limit}"),
            ViolationKind::Shared { class_name, .. } => format!("shared {class_name}"),
            ViolationKind::NotOwned { ownee_class, .. } => format!("not-owned {ownee_class}"),
            ViolationKind::ImproperOwnership { ownee_class, .. } => {
                format!("improper-ownership {ownee_class}")
            }
            ViolationKind::OwneeOutlivedOwner { ownee_class, .. } => {
                format!("ownee-outlived-owner {ownee_class}")
            }
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_identify_kind() {
        let v = Violation {
            kind: ViolationKind::InstanceLimit {
                class_name: "IndexSearcher".into(),
                limit: 1,
                count: 32,
            },
            path: HeapPath::empty(),
        };
        assert_eq!(v.summary(), "instance-limit IndexSearcher 32>1");
        assert_eq!(v.to_string(), v.summary());
    }

    #[test]
    fn render_instance_limit_without_registry_path() {
        let reg = TypeRegistry::new();
        let v = Violation {
            kind: ViolationKind::InstanceLimit {
                class_name: "IndexSearcher".into(),
                limit: 1,
                count: 32,
            },
            path: HeapPath::empty(),
        };
        let text = v.render(&reg);
        assert!(text.contains("instance limit exceeded"));
        assert!(text.contains("Limit: 1, live instances at GC: 32"));
    }

    #[test]
    fn render_dead_mentions_path_placeholder_when_untracked() {
        let reg = TypeRegistry::new();
        let v = Violation {
            kind: ViolationKind::DeadReachable {
                object: ObjRef::NULL,
                class_name: "Order".into(),
            },
            path: HeapPath::empty(),
        };
        let text = v.render(&reg);
        assert!(text.contains("asserted dead is reachable"));
        assert!(text.contains("no path information"));
    }
}
