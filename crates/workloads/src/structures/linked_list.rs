//! A singly linked list of object references.

use gc_assertions::{ClassId, MutatorId, ObjRef, Vm, VmError};

/// A singly linked list living in the VM heap.
///
/// Heap shape: `LinkedList { head } -> ListNode { next, value } -> …`,
/// with the element count in the list header's data word.
///
/// # Example
///
/// ```
/// use gc_assertions::{Vm, VmConfig};
/// use gca_workloads::structures::HList;
///
/// # fn main() -> Result<(), gc_assertions::VmError> {
/// let mut vm = Vm::new(VmConfig::builder().build());
/// let m = vm.main();
/// let elem = vm.register_class("Elem", &[]);
/// let list = HList::new(&mut vm, m)?;
/// vm.add_root(m, list.handle())?;
///
/// let e = vm.alloc(m, elem, 0, 0)?;
/// list.push_front(&mut vm, m, e)?;
/// assert_eq!(list.len(&vm)?, 1);
/// assert_eq!(list.pop_front(&mut vm)?, Some(e));
/// assert_eq!(list.len(&vm)?, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HList {
    handle: ObjRef,
    node_class: ClassId,
}

const HEAD: usize = 0;
const NODE_NEXT: usize = 0;
const NODE_VALUE: usize = 1;
const LEN_WORD: usize = 0;

impl HList {
    /// Allocates an empty list on behalf of `m`. Root the handle to keep
    /// the list alive.
    ///
    /// # Errors
    ///
    /// Allocation errors.
    pub fn new(vm: &mut Vm, m: MutatorId) -> Result<HList, VmError> {
        let list_class = vm.register_class("LinkedList", &["head"]);
        let node_class = vm.register_class("ListNode", &["next", "value"]);
        let handle = vm.alloc(m, list_class, 1, 1)?;
        Ok(HList { handle, node_class })
    }

    /// The in-heap container object.
    pub fn handle(&self) -> ObjRef {
        self.handle
    }

    /// Number of elements.
    ///
    /// # Errors
    ///
    /// Reference-validity errors if the list was collected.
    pub fn len(&self, vm: &Vm) -> Result<usize, VmError> {
        Ok(vm.data_word(self.handle, LEN_WORD)? as usize)
    }

    /// Pushes `value` at the front.
    ///
    /// # Errors
    ///
    /// Allocation or reference-validity errors.
    pub fn push_front(&self, vm: &mut Vm, m: MutatorId, value: ObjRef) -> Result<(), VmError> {
        // Allocation may collect; `value` has no heap parent yet, so pin it.
        vm.push_frame(m)?;
        vm.add_root(m, value)?;
        let node = vm.alloc(m, self.node_class, 2, 0)?;
        vm.pop_frame(m)?;
        let old_head = vm.field(self.handle, HEAD)?;
        vm.set_field(node, NODE_NEXT, old_head)?;
        vm.set_field(node, NODE_VALUE, value)?;
        vm.set_field(self.handle, HEAD, node)?;
        let n = vm.data_word(self.handle, LEN_WORD)?;
        vm.set_data_word(self.handle, LEN_WORD, n + 1)?;
        Ok(())
    }

    /// Pops the front element, or `None` if empty.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn pop_front(&self, vm: &mut Vm) -> Result<Option<ObjRef>, VmError> {
        let head = vm.field(self.handle, HEAD)?;
        if head.is_null() {
            return Ok(None);
        }
        let value = vm.field(head, NODE_VALUE)?;
        let next = vm.field(head, NODE_NEXT)?;
        vm.set_field(self.handle, HEAD, next)?;
        let n = vm.data_word(self.handle, LEN_WORD)?;
        vm.set_data_word(self.handle, LEN_WORD, n - 1)?;
        Ok(Some(value))
    }

    /// Removes the first node holding `value`. Returns whether a node was
    /// removed.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn remove(&self, vm: &mut Vm, value: ObjRef) -> Result<bool, VmError> {
        let mut prev = ObjRef::NULL;
        let mut cur = vm.field(self.handle, HEAD)?;
        while cur.is_some() {
            if vm.field(cur, NODE_VALUE)? == value {
                let next = vm.field(cur, NODE_NEXT)?;
                if prev.is_null() {
                    vm.set_field(self.handle, HEAD, next)?;
                } else {
                    vm.set_field(prev, NODE_NEXT, next)?;
                }
                let n = vm.data_word(self.handle, LEN_WORD)?;
                vm.set_data_word(self.handle, LEN_WORD, n - 1)?;
                return Ok(true);
            }
            prev = cur;
            cur = vm.field(cur, NODE_NEXT)?;
        }
        Ok(false)
    }

    /// Collects the element references front-to-back.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn elements(&self, vm: &Vm) -> Result<Vec<ObjRef>, VmError> {
        let mut out = Vec::new();
        let mut cur = vm.field(self.handle, HEAD)?;
        while cur.is_some() {
            out.push(vm.field(cur, NODE_VALUE)?);
            cur = vm.field(cur, NODE_NEXT)?;
        }
        Ok(out)
    }

    /// Drops all elements.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn clear(&self, vm: &mut Vm) -> Result<(), VmError> {
        vm.set_field(self.handle, HEAD, ObjRef::NULL)?;
        vm.set_data_word(self.handle, LEN_WORD, 0)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_assertions::VmConfig;

    fn setup() -> (Vm, MutatorId, HList, ClassId) {
        let mut vm = Vm::new(VmConfig::builder().build());
        let m = vm.main();
        let elem = vm.register_class("Elem", &[]);
        let list = HList::new(&mut vm, m).unwrap();
        vm.add_root(m, list.handle()).unwrap();
        (vm, m, list, elem)
    }

    #[test]
    fn push_pop_fifo_at_front() {
        let (mut vm, m, list, elem) = setup();
        let a = vm.alloc_rooted(m, elem, 0, 0).unwrap();
        let b = vm.alloc_rooted(m, elem, 0, 0).unwrap();
        list.push_front(&mut vm, m, a).unwrap();
        list.push_front(&mut vm, m, b).unwrap();
        assert_eq!(list.len(&vm).unwrap(), 2);
        assert_eq!(list.elements(&vm).unwrap(), vec![b, a]);
        assert_eq!(list.pop_front(&mut vm).unwrap(), Some(b));
        assert_eq!(list.pop_front(&mut vm).unwrap(), Some(a));
        assert_eq!(list.pop_front(&mut vm).unwrap(), None);
        assert_eq!(list.len(&vm).unwrap(), 0);
    }

    #[test]
    fn elements_survive_gc_through_list() {
        let (mut vm, m, list, elem) = setup();
        // Elements are rooted only through the list.
        for _ in 0..10 {
            let e = vm.alloc(m, elem, 0, 2).unwrap();
            list.push_front(&mut vm, m, e).unwrap();
        }
        vm.collect().unwrap();
        assert_eq!(list.len(&vm).unwrap(), 10);
        for e in list.elements(&vm).unwrap() {
            assert!(vm.is_live(e));
        }
    }

    #[test]
    fn cleared_elements_die() {
        let (mut vm, m, list, elem) = setup();
        let e = vm.alloc(m, elem, 0, 0).unwrap();
        list.push_front(&mut vm, m, e).unwrap();
        list.clear(&mut vm).unwrap();
        vm.collect().unwrap();
        assert!(!vm.is_live(e));
        assert_eq!(list.len(&vm).unwrap(), 0);
    }

    #[test]
    fn remove_middle() {
        let (mut vm, m, list, elem) = setup();
        let xs: Vec<ObjRef> = (0..3)
            .map(|_| vm.alloc_rooted(m, elem, 0, 0).unwrap())
            .collect();
        for &x in &xs {
            list.push_front(&mut vm, m, x).unwrap();
        }
        assert!(list.remove(&mut vm, xs[1]).unwrap());
        assert!(!list.remove(&mut vm, xs[1]).unwrap());
        assert_eq!(list.elements(&vm).unwrap(), vec![xs[2], xs[0]]);
        assert_eq!(list.len(&vm).unwrap(), 2);
    }

    #[test]
    fn push_survives_gc_pressure() {
        // Tiny heap: pushes trigger collections mid-operation; the
        // internal pinning must keep the half-linked value alive.
        let mut vm = Vm::new(
            VmConfig::builder()
                .heap_budget(200)
                .grow_on_oom(true)
                .build(),
        );
        let m = vm.main();
        let elem = vm.register_class("Elem", &[]);
        let list = HList::new(&mut vm, m).unwrap();
        vm.add_root(m, list.handle()).unwrap();
        for i in 0..50 {
            let e = vm.alloc(m, elem, 0, 3).unwrap();
            vm.set_data_word(e, 0, i).unwrap();
            list.push_front(&mut vm, m, e).unwrap();
        }
        assert_eq!(list.len(&vm).unwrap(), 50);
        let elems = list.elements(&vm).unwrap();
        assert_eq!(vm.data_word(elems[0], 0).unwrap(), 49);
        assert_eq!(vm.data_word(elems[49], 0).unwrap(), 0);
    }
}
