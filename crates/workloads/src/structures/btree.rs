//! A B+tree keyed by `u64` — the analogue of SPECjbb2000's
//! `spec.jbb.infra.Collections.longBTree`, which backs the order table at
//! the heart of the paper's leak case study (§3.2.1).

use gc_assertions::{ClassId, MutatorId, ObjRef, Vm, VmError};

/// Maximum keys per node; nodes split preemptively on the way down.
const MAX_KEYS: usize = 7;

// Node data-word layout.
const IS_LEAF: usize = 0;
const N_WORD: usize = 1;
const KEY0: usize = 2;
// Node reference layout.
const ARRAY: usize = 0;
// Tree layout.
const ROOT: usize = 0;
const COUNT_WORD: usize = 0;

/// A B+tree of object references living in the VM heap.
///
/// Heap shape matches the paper's Figure 1 path:
/// `longBTree { root } -> longBTreeNode { array } -> Object[] ->
/// longBTreeNode -> Object[] -> value`. Interior nodes route through
/// separator keys; all values live in leaves. Deletion removes from the
/// leaf without rebalancing (underfull leaves are tolerated), which keeps
/// lookups correct and is sufficient for the workload's churn.
///
/// # Example
///
/// ```
/// use gc_assertions::{Vm, VmConfig};
/// use gca_workloads::structures::HBTree;
///
/// # fn main() -> Result<(), gc_assertions::VmError> {
/// let mut vm = Vm::new(VmConfig::builder().build());
/// let m = vm.main();
/// let order = vm.register_class("Order", &[]);
/// let tree = HBTree::new(&mut vm, m)?;
/// vm.add_root(m, tree.handle())?;
/// for k in 0..100 {
///     let o = vm.alloc(m, order, 0, 0)?;
///     tree.insert(&mut vm, m, k, o)?;
/// }
/// assert_eq!(tree.len(&vm)?, 100);
/// assert!(tree.get(&vm, 42)?.is_some());
/// assert!(tree.remove(&mut vm, 42)?.is_some());
/// assert_eq!(tree.get(&vm, 42)?, None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HBTree {
    handle: ObjRef,
    node_class: ClassId,
    array_class: ClassId,
}

impl HBTree {
    /// Allocates an empty tree. Root the handle to keep it alive.
    ///
    /// # Errors
    ///
    /// Allocation errors.
    pub fn new(vm: &mut Vm, m: MutatorId) -> Result<HBTree, VmError> {
        let tree_class = vm.register_class("longBTree", &["root"]);
        let node_class = vm.register_class("longBTreeNode", &["array"]);
        let array_class = vm.register_class("Object[]", &[]);
        vm.push_frame(m)?;
        let handle = vm.alloc_rooted(m, tree_class, 1, 1)?;
        let tree = HBTree {
            handle,
            node_class,
            array_class,
        };
        let root = tree.new_node(vm, m, true)?;
        vm.set_field(handle, ROOT, root)?;
        vm.pop_frame(m)?;
        Ok(tree)
    }

    /// The in-heap container object.
    pub fn handle(&self) -> ObjRef {
        self.handle
    }

    /// Number of keys in the tree.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn len(&self, vm: &Vm) -> Result<usize, VmError> {
        Ok(vm.data_word(self.handle, COUNT_WORD)? as usize)
    }

    /// Returns `true` if the tree holds no keys.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub(crate) fn is_empty(&self, vm: &Vm) -> Result<bool, VmError> {
        Ok(self.len(vm)? == 0)
    }

    /// Allocates a node + its array, rooted in the caller's current frame.
    fn new_node(&self, vm: &mut Vm, m: MutatorId, leaf: bool) -> Result<ObjRef, VmError> {
        let arr = vm.alloc_rooted(m, self.array_class, MAX_KEYS + 1, 0)?;
        let node = vm.alloc_rooted(m, self.node_class, 1, 2 + MAX_KEYS)?;
        vm.set_field(node, ARRAY, arr)?;
        vm.set_data_word(node, IS_LEAF, u64::from(leaf))?;
        Ok(node)
    }

    fn is_leaf(&self, vm: &Vm, node: ObjRef) -> Result<bool, VmError> {
        Ok(vm.data_word(node, IS_LEAF)? != 0)
    }

    fn n(&self, vm: &Vm, node: ObjRef) -> Result<usize, VmError> {
        Ok(vm.data_word(node, N_WORD)? as usize)
    }

    fn set_n(&self, vm: &mut Vm, node: ObjRef, n: usize) -> Result<(), VmError> {
        vm.set_data_word(node, N_WORD, n as u64)
    }

    fn key(&self, vm: &Vm, node: ObjRef, i: usize) -> Result<u64, VmError> {
        vm.data_word(node, KEY0 + i)
    }

    fn set_key(&self, vm: &mut Vm, node: ObjRef, i: usize, k: u64) -> Result<(), VmError> {
        vm.set_data_word(node, KEY0 + i, k)
    }

    fn slot(&self, vm: &Vm, node: ObjRef, i: usize) -> Result<ObjRef, VmError> {
        let arr = vm.field(node, ARRAY)?;
        vm.field(arr, i)
    }

    fn set_slot(&self, vm: &mut Vm, node: ObjRef, i: usize, v: ObjRef) -> Result<(), VmError> {
        let arr = vm.field(node, ARRAY)?;
        vm.set_field(arr, i, v)?;
        Ok(())
    }

    /// Child index to descend into for `key`: the number of separators
    /// `<= key` (equal keys route right, because leaf splits copy the
    /// right sibling's first key up).
    fn route(&self, vm: &Vm, node: ObjRef, key: u64) -> Result<usize, VmError> {
        let n = self.n(vm, node)?;
        let mut i = 0;
        while i < n && key >= self.key(vm, node, i)? {
            i += 1;
        }
        Ok(i)
    }

    /// Splits full child `j` of `parent` (which must have room).
    fn split_child(
        &self,
        vm: &mut Vm,
        m: MutatorId,
        parent: ObjRef,
        j: usize,
    ) -> Result<(), VmError> {
        let child = self.slot(vm, parent, j)?;
        let leaf = self.is_leaf(vm, child)?;
        let right = self.new_node(vm, m, leaf)?;
        let (keep, sep) = if leaf {
            // Leaf: left keeps 3 keys, right takes keys 3..7 (values
            // aligned); the separator is copied up.
            let sep = self.key(vm, child, 3)?;
            for i in 3..MAX_KEYS {
                let k = self.key(vm, child, i)?;
                let v = self.slot(vm, child, i)?;
                self.set_key(vm, right, i - 3, k)?;
                self.set_slot(vm, right, i - 3, v)?;
                self.set_slot(vm, child, i, ObjRef::NULL)?;
            }
            self.set_n(vm, right, MAX_KEYS - 3)?;
            (3, sep)
        } else {
            // Interior: the middle key moves up; left keeps keys 0..3 and
            // children 0..=3, right takes keys 4..7 and children 4..=7.
            let sep = self.key(vm, child, 3)?;
            for i in 4..MAX_KEYS {
                let k = self.key(vm, child, i)?;
                self.set_key(vm, right, i - 4, k)?;
            }
            for i in 4..=MAX_KEYS {
                let c = self.slot(vm, child, i)?;
                self.set_slot(vm, right, i - 4, c)?;
                self.set_slot(vm, child, i, ObjRef::NULL)?;
            }
            self.set_n(vm, right, MAX_KEYS - 4)?;
            (3, sep)
        };
        self.set_n(vm, child, keep)?;

        // Shift the parent's keys/children right of j and insert.
        let pn = self.n(vm, parent)?;
        let mut i = pn;
        while i > j {
            let k = self.key(vm, parent, i - 1)?;
            self.set_key(vm, parent, i, k)?;
            let c = self.slot(vm, parent, i)?;
            self.set_slot(vm, parent, i + 1, c)?;
            i -= 1;
        }
        self.set_key(vm, parent, j, sep)?;
        self.set_slot(vm, parent, j + 1, right)?;
        self.set_n(vm, parent, pn + 1)?;
        Ok(())
    }

    /// Inserts (or replaces) `key -> value`, returning the previous value
    /// for the key, if any.
    ///
    /// # Errors
    ///
    /// Allocation or reference-validity errors.
    pub fn insert(
        &self,
        vm: &mut Vm,
        m: MutatorId,
        key: u64,
        value: ObjRef,
    ) -> Result<Option<ObjRef>, VmError> {
        vm.push_frame(m)?;
        if value.is_some() {
            vm.add_root(m, value)?;
        }
        let result = self.insert_pinned(vm, m, key, value);
        vm.pop_frame(m)?;
        result
    }

    fn insert_pinned(
        &self,
        vm: &mut Vm,
        m: MutatorId,
        key: u64,
        value: ObjRef,
    ) -> Result<Option<ObjRef>, VmError> {
        let mut node = vm.field(self.handle, ROOT)?;
        if self.n(vm, node)? == MAX_KEYS {
            // Grow a new root above the full one.
            let new_root = self.new_node(vm, m, false)?;
            self.set_slot(vm, new_root, 0, node)?;
            vm.set_field(self.handle, ROOT, new_root)?;
            self.split_child(vm, m, new_root, 0)?;
            node = new_root;
        }
        loop {
            if self.is_leaf(vm, node)? {
                return self.insert_into_leaf(vm, node, key, value);
            }
            let j = self.route(vm, node, key)?;
            let child = self.slot(vm, node, j)?;
            if self.n(vm, child)? == MAX_KEYS {
                self.split_child(vm, m, node, j)?;
                let j = if key >= self.key(vm, node, j)? {
                    j + 1
                } else {
                    j
                };
                node = self.slot(vm, node, j)?;
            } else {
                node = child;
            }
        }
    }

    fn insert_into_leaf(
        &self,
        vm: &mut Vm,
        leaf: ObjRef,
        key: u64,
        value: ObjRef,
    ) -> Result<Option<ObjRef>, VmError> {
        let n = self.n(vm, leaf)?;
        let mut pos = 0;
        while pos < n && self.key(vm, leaf, pos)? < key {
            pos += 1;
        }
        if pos < n && self.key(vm, leaf, pos)? == key {
            let old = self.slot(vm, leaf, pos)?;
            self.set_slot(vm, leaf, pos, value)?;
            return Ok(Some(old));
        }
        let mut i = n;
        while i > pos {
            let k = self.key(vm, leaf, i - 1)?;
            self.set_key(vm, leaf, i, k)?;
            let v = self.slot(vm, leaf, i - 1)?;
            self.set_slot(vm, leaf, i, v)?;
            i -= 1;
        }
        self.set_key(vm, leaf, pos, key)?;
        self.set_slot(vm, leaf, pos, value)?;
        self.set_n(vm, leaf, n + 1)?;
        let count = vm.data_word(self.handle, COUNT_WORD)?;
        vm.set_data_word(self.handle, COUNT_WORD, count + 1)?;
        Ok(None)
    }

    /// Looks up `key`.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn get(&self, vm: &Vm, key: u64) -> Result<Option<ObjRef>, VmError> {
        let mut node = vm.field(self.handle, ROOT)?;
        loop {
            if self.is_leaf(vm, node)? {
                let n = self.n(vm, node)?;
                for i in 0..n {
                    if self.key(vm, node, i)? == key {
                        return Ok(Some(self.slot(vm, node, i)?));
                    }
                }
                return Ok(None);
            }
            let j = self.route(vm, node, key)?;
            node = self.slot(vm, node, j)?;
        }
    }

    /// Removes `key`, returning its value if present. Leaves may become
    /// underfull (no rebalancing).
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn remove(&self, vm: &mut Vm, key: u64) -> Result<Option<ObjRef>, VmError> {
        let mut node = vm.field(self.handle, ROOT)?;
        loop {
            if self.is_leaf(vm, node)? {
                let n = self.n(vm, node)?;
                for i in 0..n {
                    if self.key(vm, node, i)? == key {
                        let value = self.slot(vm, node, i)?;
                        for j in i..n - 1 {
                            let k = self.key(vm, node, j + 1)?;
                            self.set_key(vm, node, j, k)?;
                            let v = self.slot(vm, node, j + 1)?;
                            self.set_slot(vm, node, j, v)?;
                        }
                        self.set_slot(vm, node, n - 1, ObjRef::NULL)?;
                        self.set_n(vm, node, n - 1)?;
                        let count = vm.data_word(self.handle, COUNT_WORD)?;
                        vm.set_data_word(self.handle, COUNT_WORD, count - 1)?;
                        return Ok(Some(value));
                    }
                }
                return Ok(None);
            }
            let j = self.route(vm, node, key)?;
            node = self.slot(vm, node, j)?;
        }
    }

    /// Collects all values in key order.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn values(&self, vm: &Vm) -> Result<Vec<ObjRef>, VmError> {
        let mut out = Vec::new();
        let root = vm.field(self.handle, ROOT)?;
        self.collect_values(vm, root, &mut out)?;
        Ok(out)
    }

    fn collect_values(&self, vm: &Vm, node: ObjRef, out: &mut Vec<ObjRef>) -> Result<(), VmError> {
        let n = self.n(vm, node)?;
        if self.is_leaf(vm, node)? {
            for i in 0..n {
                out.push(self.slot(vm, node, i)?);
            }
        } else {
            for i in 0..=n {
                let c = self.slot(vm, node, i)?;
                self.collect_values(vm, c, out)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_assertions::VmConfig;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Tree height (levels from root to leaf).
    fn depth(tree: &HBTree, vm: &Vm) -> usize {
        let mut d = 1;
        let mut node = vm.field(tree.handle, ROOT).unwrap();
        while !tree.is_leaf(vm, node).unwrap() {
            node = tree.slot(vm, node, 0).unwrap();
            d += 1;
        }
        d
    }

    fn setup() -> (Vm, MutatorId, HBTree, ClassId) {
        let mut vm = Vm::new(VmConfig::builder().build());
        let m = vm.main();
        let order = vm.register_class("Order", &[]);
        let tree = HBTree::new(&mut vm, m).unwrap();
        vm.add_root(m, tree.handle()).unwrap();
        (vm, m, tree, order)
    }

    #[test]
    fn insert_get_sequential() {
        let (mut vm, m, tree, order) = setup();
        let mut vals = Vec::new();
        for k in 0..500u64 {
            let o = vm.alloc(m, order, 0, 1).unwrap();
            vm.set_data_word(o, 0, k).unwrap();
            assert_eq!(tree.insert(&mut vm, m, k, o).unwrap(), None);
            vals.push((k, o));
        }
        assert_eq!(tree.len(&vm).unwrap(), 500);
        assert!(depth(&tree, &vm) >= 3, "really split");
        for (k, o) in vals {
            assert_eq!(tree.get(&vm, k).unwrap(), Some(o));
        }
        assert_eq!(tree.get(&vm, 9999).unwrap(), None);
    }

    #[test]
    fn insert_get_random_order() {
        let (mut vm, m, tree, order) = setup();
        let mut keys: Vec<u64> = (0..300).map(|i| i * 7 + 3).collect();
        keys.shuffle(&mut SmallRng::seed_from_u64(42));
        for &k in &keys {
            let o = vm.alloc(m, order, 0, 1).unwrap();
            vm.set_data_word(o, 0, k).unwrap();
            tree.insert(&mut vm, m, k, o).unwrap();
        }
        for &k in &keys {
            let v = tree.get(&vm, k).unwrap().unwrap();
            assert_eq!(vm.data_word(v, 0).unwrap(), k);
        }
        // values() is in key order.
        let vals = tree.values(&vm).unwrap();
        let mut sorted = keys.clone();
        sorted.sort();
        let got: Vec<u64> = vals.iter().map(|&v| vm.data_word(v, 0).unwrap()).collect();
        assert_eq!(got, sorted);
    }

    #[test]
    fn duplicate_key_replaces() {
        let (mut vm, m, tree, order) = setup();
        let a = vm.alloc_rooted(m, order, 0, 0).unwrap();
        let b = vm.alloc_rooted(m, order, 0, 0).unwrap();
        assert_eq!(tree.insert(&mut vm, m, 5, a).unwrap(), None);
        assert_eq!(tree.insert(&mut vm, m, 5, b).unwrap(), Some(a));
        assert_eq!(tree.len(&vm).unwrap(), 1);
        assert_eq!(tree.get(&vm, 5).unwrap(), Some(b));
    }

    #[test]
    fn remove_returns_value_and_unlinks() {
        let (mut vm, m, tree, order) = setup();
        let mut pairs = Vec::new();
        for k in 0..200u64 {
            let o = vm.alloc(m, order, 0, 0).unwrap();
            tree.insert(&mut vm, m, k, o).unwrap();
            pairs.push((k, o));
        }
        // Remove the even keys.
        for &(k, o) in &pairs {
            if k % 2 == 0 {
                assert_eq!(tree.remove(&mut vm, k).unwrap(), Some(o));
            }
        }
        assert_eq!(tree.len(&vm).unwrap(), 100);
        for &(k, o) in &pairs {
            if k % 2 == 0 {
                assert_eq!(tree.get(&vm, k).unwrap(), None);
            } else {
                assert_eq!(tree.get(&vm, k).unwrap(), Some(o));
            }
        }
        assert_eq!(tree.remove(&mut vm, 0).unwrap(), None);
        // Removed values become garbage.
        vm.collect().unwrap();
        for &(k, o) in &pairs {
            assert_eq!(vm.is_live(o), k % 2 == 1);
        }
    }

    #[test]
    fn values_survive_gc_through_tree() {
        let (mut vm, m, tree, order) = setup();
        for k in 0..300u64 {
            let o = vm.alloc(m, order, 0, 2).unwrap();
            tree.insert(&mut vm, m, k, o).unwrap();
        }
        vm.collect().unwrap();
        assert_eq!(tree.len(&vm).unwrap(), 300);
        for v in tree.values(&vm).unwrap() {
            assert!(vm.is_live(v));
        }
    }

    #[test]
    fn insert_under_gc_pressure() {
        let mut vm = Vm::new(
            VmConfig::builder()
                .heap_budget(2000)
                .grow_on_oom(true)
                .build(),
        );
        let m = vm.main();
        let order = vm.register_class("Order", &[]);
        let tree = HBTree::new(&mut vm, m).unwrap();
        vm.add_root(m, tree.handle()).unwrap();
        for k in 0..400u64 {
            let o = vm.alloc(m, order, 0, 3).unwrap();
            vm.set_data_word(o, 0, k).unwrap();
            tree.insert(&mut vm, m, k, o).unwrap();
        }
        assert!(vm.gc_stats().collections > 0);
        for k in 0..400u64 {
            let v = tree.get(&vm, k).unwrap().unwrap();
            assert_eq!(vm.data_word(v, 0).unwrap(), k);
        }
    }

    #[test]
    fn figure1_path_shape() {
        // The tree produces the longBTree -> longBTreeNode -> Object[]
        // path shape from the paper's Figure 1.
        let (mut vm, m, tree, order) = setup();
        for k in 0..100u64 {
            let o = vm.alloc(m, order, 0, 0).unwrap();
            tree.insert(&mut vm, m, k, o).unwrap();
        }
        let victim = tree.get(&vm, 50).unwrap().unwrap();
        vm.assert_dead(victim).unwrap();
        let report = vm.collect().unwrap();
        assert_eq!(report.violations.len(), 1);
        let text = report.violations[0].render(vm.registry());
        assert!(text.contains("longBTree"), "{text}");
        assert!(text.contains("longBTreeNode"), "{text}");
        assert!(text.contains("Object[]"), "{text}");
        assert!(text.contains("Order"), "{text}");
    }
}
