//! Instance-level heap paths for violation reports.

use std::fmt;

use gca_heap::{ClassId, ObjRef, TypeRegistry};

/// One step of a root-to-object path: an object, its class, and the
/// reference field of the *previous* step through which it was reached
/// (`None` for the first step, which was reached from a root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// The object at this step.
    pub object: ObjRef,
    /// Its class (captured when the path was built, so the path stays
    /// printable even after the object dies).
    pub class: ClassId,
    /// Field index in the previous step's object, or `None` for a root.
    pub field: Option<usize>,
}

/// A complete path through the heap from a root to an object of interest.
///
/// This is the report format of §2.7 (Figure 1): the paper prints the types
/// along the path from root to the offending object. Because our tracer
/// records the field each edge went through, [`HeapPath::display`] can also
/// print field names, which pinpoints *which reference* keeps an object
/// alive — exactly the information needed to fix a leak.
///
/// # Example
///
/// ```
/// use gca_collector::{HeapPath, PathStep};
/// use gca_heap::{Heap, ObjRef};
///
/// # fn main() -> Result<(), gca_heap::HeapError> {
/// let mut heap = Heap::new();
/// let c = heap.register_class("Order", &["customer"]);
/// let o = heap.alloc(c, 1, 0)?;
/// let path = HeapPath::new(vec![PathStep { object: o, class: c, field: None }]);
/// let text = path.display(heap.registry()).to_string();
/// assert!(text.contains("Order"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeapPath {
    steps: Vec<PathStep>,
}

impl HeapPath {
    /// Builds a path from its steps (first step = reached from a root).
    pub fn new(steps: Vec<PathStep>) -> HeapPath {
        HeapPath { steps }
    }

    /// An empty path (used when path tracking is disabled — the Base
    /// configuration has no path information, as in the paper).
    pub fn empty() -> HeapPath {
        HeapPath { steps: Vec::new() }
    }

    /// The steps, root end first.
    pub fn steps(&self) -> &[PathStep] {
        &self.steps
    }

    /// The object the path leads to, if the path is non-empty.
    pub fn target(&self) -> Option<ObjRef> {
        self.steps.last().map(|s| s.object)
    }

    /// Returns `true` if the path carries no information.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Returns a displayable view that resolves class and field names
    /// through `registry`, in the style of the paper's Figure 1:
    ///
    /// ```text
    /// Company
    ///  -> .warehouses Object[]
    ///  -> .orderTable longBTree
    ///  -> .root longBTreeNode
    ///  -> [0] Order
    /// ```
    pub fn display<'a>(&'a self, registry: &'a TypeRegistry) -> PathDisplay<'a> {
        PathDisplay {
            path: self,
            registry,
        }
    }

    /// `true` if any step's class name equals `name` (test helper for case
    /// studies that assert on the shape of reported paths).
    pub fn passes_through(&self, registry: &TypeRegistry, name: &str) -> bool {
        self.steps.iter().any(|s| registry.name(s.class) == name)
    }
}

/// Human-readable rendering of a [`HeapPath`]; see [`HeapPath::display`].
#[derive(Debug, Clone, Copy)]
pub struct PathDisplay<'a> {
    path: &'a HeapPath,
    registry: &'a TypeRegistry,
}

impl fmt::Display for PathDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            return write!(f, "(no path information: path tracking disabled)");
        }
        let mut prev_class: Option<ClassId> = None;
        for (i, step) in self.path.steps.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
                write!(f, " -> ")?;
            }
            if let (Some(prev), Some(field)) = (prev_class, step.field) {
                write!(f, ".{} ", self.registry.info(prev).field_name(field))?;
            }
            write!(f, "{}", self.registry.name(step.class))?;
            prev_class = Some(step.class);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gca_heap::Heap;

    fn sample() -> (Heap, HeapPath) {
        let mut heap = Heap::new();
        let company = heap.register_class("Company", &["warehouses"]);
        let array = heap.register_class("Object[]", &[]);
        let order = heap.register_class("Order", &[]);
        let c = heap.alloc(company, 1, 0).unwrap();
        let a = heap.alloc(array, 3, 0).unwrap();
        let o = heap.alloc(order, 0, 0).unwrap();
        let path = HeapPath::new(vec![
            PathStep {
                object: c,
                class: company,
                field: None,
            },
            PathStep {
                object: a,
                class: array,
                field: Some(0),
            },
            PathStep {
                object: o,
                class: order,
                field: Some(2),
            },
        ]);
        (heap, path)
    }

    #[test]
    fn accessors() {
        let (_, path) = sample();
        assert_eq!(path.steps().len(), 3);
        assert!(!path.is_empty());
        assert_eq!(path.target(), Some(path.steps()[2].object));
        assert!(HeapPath::empty().is_empty());
        assert_eq!(HeapPath::empty().target(), None);
    }

    #[test]
    fn display_renders_types_and_fields() {
        let (heap, path) = sample();
        let text = path.display(heap.registry()).to_string();
        assert!(text.starts_with("Company"));
        assert!(text.contains("-> .warehouses Object[]"));
        // The array class declared no field names, so index notation is used.
        assert!(text.contains("-> .[2] Order"));
    }

    #[test]
    fn empty_path_displays_placeholder() {
        let heap = Heap::new();
        let text = HeapPath::empty().display(heap.registry()).to_string();
        assert!(text.contains("no path information"));
    }

    #[test]
    fn passes_through_matches_class_names() {
        let (heap, path) = sample();
        assert!(path.passes_through(heap.registry(), "Company"));
        assert!(path.passes_through(heap.registry(), "Order"));
        assert!(!path.passes_through(heap.registry(), "Customer"));
    }
}
