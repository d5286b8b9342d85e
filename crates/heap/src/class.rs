//! Runtime type registry — the analogue of Jikes RVM's `RVMClass`.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a registered class.
///
/// Minted by [`Heap::register_class`](crate::Heap::register_class); cheap
/// to copy and compare.
///
/// # Example
///
/// ```
/// use gca_heap::Heap;
///
/// let mut heap = Heap::new();
/// let order = heap.register_class("Order", &["customer", "items"]);
/// assert_eq!(heap.registry().name(order), "Order");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(u32);

impl ClassId {
    /// Raw index into the registry, for diagnostics.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClassId({})", self.0)
    }
}

/// Metadata for one registered class.
///
/// Mirroring the paper's `assert-instances` implementation (§2.4.1), every
/// class carries *two extra words*: an instance limit and an instance
/// count. The count is refreshed by the collector during tracing; the limit
/// is set by the assertion.
#[derive(Debug, Clone)]
pub struct ClassInfo {
    name: String,
    field_names: Vec<String>,
    /// `assert-instances` limit, if one has been asserted for this class.
    pub instance_limit: Option<u32>,
    /// Live instances observed by the most recent collection (only
    /// maintained for tracked classes, exactly as in the paper).
    pub instance_count: u32,
}

impl ClassInfo {
    /// The class name, as registered.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Human-readable name of reference field `index`.
    pub fn field_name(&self, index: usize) -> String {
        match self.field_names.get(index) {
            Some(n) => n.clone(),
            None => format!("[{index}]"),
        }
    }
}

/// Registry of classes loaded into the VM.
///
/// Classes are registered at runtime (the managed-language analogue of
/// dynamic class loading, which the paper calls out as a feature GC
/// assertions tolerate and static analysis does not). The registry also
/// keeps the *tracked types* side list used by `assert-instances`: one word
/// per tracked type, as in §2.4.1.
#[derive(Debug, Default)]
pub struct TypeRegistry {
    classes: Vec<ClassInfo>,
    by_name: HashMap<String, ClassId>,
    tracked: Vec<ClassId>,
}

impl TypeRegistry {
    /// Creates an empty registry.
    pub fn new() -> TypeRegistry {
        TypeRegistry::default()
    }

    /// Registers a class, returning its id. Registering a name twice
    /// returns the existing id (class loading is idempotent here).
    pub(crate) fn register(&mut self, name: &str, field_names: &[&str]) -> ClassId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(ClassInfo {
            name: name.to_owned(),
            field_names: field_names.iter().map(|s| (*s).to_owned()).collect(),
            instance_limit: None,
            instance_count: 0,
        });
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks a class up by name.
    pub fn lookup(&self, name: &str) -> Option<ClassId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Returns `true` if no class has been registered.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Metadata for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not minted by this registry.
    pub fn info(&self, id: ClassId) -> &ClassInfo {
        &self.classes[id.0 as usize]
    }

    /// Mutable metadata for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not minted by this registry.
    pub fn info_mut(&mut self, id: ClassId) -> &mut ClassInfo {
        &mut self.classes[id.0 as usize]
    }

    /// Convenience: the name of `id`.
    pub fn name(&self, id: ClassId) -> &str {
        self.info(id).name()
    }

    /// Marks `id` as tracked for `assert-instances` with the given limit,
    /// adding it to the tracked side list if new. Re-asserting updates the
    /// limit in place.
    pub fn track_instances(&mut self, id: ClassId, limit: u32) {
        let info = self.info_mut(id);
        info.instance_limit = Some(limit);
        if !self.tracked.contains(&id) {
            self.tracked.push(id);
        }
    }

    /// Returns `true` if `id` is in the tracked side list.
    pub fn is_tracked(&self, id: ClassId) -> bool {
        self.info(id).instance_limit.is_some()
    }

    /// The tracked side list, in assertion order.
    pub fn tracked(&self) -> &[ClassId] {
        &self.tracked
    }

    /// Zeroes the instance counts of all tracked classes (start of a
    /// collection).
    pub fn reset_instance_counts(&mut self) {
        for &id in &self.tracked.clone() {
            self.info_mut(id).instance_count = 0;
        }
    }

    /// Iterates over `(ClassId, &ClassInfo)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &ClassInfo)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ClassId(i as u32), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut reg = TypeRegistry::new();
        assert!(reg.is_empty());
        let a = reg.register("A", &["x"]);
        let b = reg.register("B", &[]);
        assert_ne!(a, b);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.lookup("A"), Some(a));
        assert_eq!(reg.lookup("C"), None);
        assert_eq!(reg.name(b), "B");
    }

    #[test]
    fn register_is_idempotent() {
        let mut reg = TypeRegistry::new();
        let a1 = reg.register("A", &["x"]);
        let a2 = reg.register("A", &["ignored"]);
        assert_eq!(a1, a2);
        assert_eq!(reg.len(), 1);
        // Field names from the first registration win.
        assert_eq!(reg.info(a1).field_name(0), "x");
    }

    #[test]
    fn field_names_fall_back_to_index() {
        let mut reg = TypeRegistry::new();
        let a = reg.register("A", &["head"]);
        assert_eq!(reg.info(a).field_name(0), "head");
        assert_eq!(reg.info(a).field_name(3), "[3]");
        assert_eq!(reg.info(a).field_names.len(), 1);
    }

    #[test]
    fn tracking_lifecycle() {
        let mut reg = TypeRegistry::new();
        let a = reg.register("A", &[]);
        let b = reg.register("B", &[]);
        assert!(!reg.is_tracked(a));
        reg.track_instances(a, 1);
        reg.track_instances(b, 0);
        assert!(reg.is_tracked(a));
        assert_eq!(reg.tracked(), &[a, b]);
        assert_eq!(reg.info(a).instance_limit, Some(1));

        // Re-tracking updates the limit without duplicating the entry.
        reg.track_instances(a, 5);
        assert_eq!(reg.tracked(), &[a, b]);
        assert_eq!(reg.info(a).instance_limit, Some(5));
    }

    #[test]
    fn reset_counts_only_touches_tracked() {
        let mut reg = TypeRegistry::new();
        let a = reg.register("A", &[]);
        let b = reg.register("B", &[]);
        reg.info_mut(a).instance_count = 10;
        reg.info_mut(b).instance_count = 7;
        reg.track_instances(a, 1);
        reg.reset_instance_counts();
        assert_eq!(reg.info(a).instance_count, 0);
        // Untracked counts are stale by design; nobody reads them.
        assert_eq!(reg.info(b).instance_count, 7);
    }
}
