//! A growable array of object references (java.util.ArrayList analogue).

use gc_assertions::{ClassId, MutatorId, ObjRef, Vm, VmError};

/// A growable object array living in the VM heap.
///
/// Heap shape: `ArrayList { storage } -> Object[] -> elements…`, with the
/// logical length in the header's data word. Growth allocates a doubled
/// `Object[]` and copies the references, exactly like the Java class —
/// the old array becomes garbage for the next collection.
///
/// # Example
///
/// ```
/// use gc_assertions::{Vm, VmConfig};
/// use gca_workloads::structures::HArrayList;
///
/// # fn main() -> Result<(), gc_assertions::VmError> {
/// let mut vm = Vm::new(VmConfig::builder().build());
/// let m = vm.main();
/// let elem = vm.register_class("Elem", &[]);
/// let list = HArrayList::new(&mut vm, m, 2)?;
/// vm.add_root(m, list.handle())?;
/// for _ in 0..10 {
///     let e = vm.alloc(m, elem, 0, 0)?;
///     list.push(&mut vm, m, e)?;
/// }
/// assert_eq!(list.len(&vm)?, 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HArrayList {
    handle: ObjRef,
    array_class: ClassId,
}

const STORAGE: usize = 0;
const LEN_WORD: usize = 0;

impl HArrayList {
    /// Allocates an empty array list with the given initial capacity
    /// (minimum 1). Root the handle to keep it alive.
    ///
    /// # Errors
    ///
    /// Allocation errors.
    pub fn new(vm: &mut Vm, m: MutatorId, capacity: usize) -> Result<HArrayList, VmError> {
        let list_class = vm.register_class("ArrayList", &["storage"]);
        let array_class = vm.register_class("Object[]", &[]);
        vm.push_frame(m)?;
        let handle = vm.alloc_rooted(m, list_class, 1, 1)?;
        let storage = vm.alloc(m, array_class, capacity.max(1), 0)?;
        vm.set_field(handle, STORAGE, storage)?;
        vm.pop_frame(m)?;
        Ok(HArrayList {
            handle,
            array_class,
        })
    }

    /// The in-heap container object.
    pub fn handle(&self) -> ObjRef {
        self.handle
    }

    /// Number of elements.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn len(&self, vm: &Vm) -> Result<usize, VmError> {
        Ok(vm.data_word(self.handle, LEN_WORD)? as usize)
    }

    /// Returns `true` if there are no elements.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub(crate) fn is_empty(&self, vm: &Vm) -> Result<bool, VmError> {
        Ok(self.len(vm)? == 0)
    }

    /// Current capacity of the backing array.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub(crate) fn capacity(&self, vm: &Vm) -> Result<usize, VmError> {
        let storage = vm.field(self.handle, STORAGE)?;
        Ok(vm.heap().get(storage).map_err(VmError::Heap)?.ref_count())
    }

    /// Appends `value`, growing the backing array if needed.
    ///
    /// # Errors
    ///
    /// Allocation or reference-validity errors.
    pub fn push(&self, vm: &mut Vm, m: MutatorId, value: ObjRef) -> Result<(), VmError> {
        let len = self.len(vm)?;
        let cap = self.capacity(vm)?;
        if len == cap {
            self.grow(vm, m, value, cap * 2)?;
        }
        let storage = vm.field(self.handle, STORAGE)?;
        vm.set_field(storage, len, value)?;
        vm.set_data_word(self.handle, LEN_WORD, (len + 1) as u64)?;
        Ok(())
    }

    fn grow(&self, vm: &mut Vm, m: MutatorId, pin: ObjRef, new_cap: usize) -> Result<(), VmError> {
        vm.push_frame(m)?;
        if pin.is_some() {
            vm.add_root(m, pin)?;
        }
        let new_storage = vm.alloc(m, self.array_class, new_cap, 0)?;
        let old_storage = vm.field(self.handle, STORAGE)?;
        let len = self.len(vm)?;
        for i in 0..len {
            let e = vm.field(old_storage, i)?;
            vm.set_field(new_storage, i, e)?;
        }
        vm.set_field(self.handle, STORAGE, new_storage)?;
        vm.pop_frame(m)?;
        Ok(())
    }

    /// Element at `index`.
    ///
    /// # Errors
    ///
    /// Bounds or reference-validity errors.
    pub(crate) fn get(&self, vm: &Vm, index: usize) -> Result<ObjRef, VmError> {
        self.check_bounds(vm, index)?;
        let storage = vm.field(self.handle, STORAGE)?;
        vm.field(storage, index)
    }

    /// Overwrites element `index`, returning the old value.
    ///
    /// # Errors
    ///
    /// Bounds or reference-validity errors.
    pub(crate) fn set(&self, vm: &mut Vm, index: usize, value: ObjRef) -> Result<ObjRef, VmError> {
        self.check_bounds(vm, index)?;
        let storage = vm.field(self.handle, STORAGE)?;
        vm.set_field(storage, index, value)
    }

    /// Removes element `index` by shifting the tail left; returns it.
    ///
    /// # Errors
    ///
    /// Bounds or reference-validity errors.
    pub fn remove(&self, vm: &mut Vm, index: usize) -> Result<ObjRef, VmError> {
        self.check_bounds(vm, index)?;
        let len = self.len(vm)?;
        let storage = vm.field(self.handle, STORAGE)?;
        let removed = vm.field(storage, index)?;
        for i in index..len - 1 {
            let next = vm.field(storage, i + 1)?;
            vm.set_field(storage, i, next)?;
        }
        vm.set_field(storage, len - 1, ObjRef::NULL)?;
        vm.set_data_word(self.handle, LEN_WORD, (len - 1) as u64)?;
        Ok(removed)
    }

    /// Collects the elements in order.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn elements(&self, vm: &Vm) -> Result<Vec<ObjRef>, VmError> {
        let len = self.len(vm)?;
        let storage = vm.field(self.handle, STORAGE)?;
        (0..len).map(|i| vm.field(storage, i)).collect()
    }

    fn check_bounds(&self, vm: &Vm, index: usize) -> Result<(), VmError> {
        let len = self.len(vm)?;
        if index >= len {
            return Err(VmError::Heap(gc_assertions::HeapError::FieldOutOfBounds {
                object: self.handle,
                field: index,
                len,
            }));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_assertions::VmConfig;

    fn setup() -> (Vm, MutatorId, HArrayList, ClassId) {
        let mut vm = Vm::new(VmConfig::builder().build());
        let m = vm.main();
        let elem = vm.register_class("Elem", &[]);
        let list = HArrayList::new(&mut vm, m, 2).unwrap();
        vm.add_root(m, list.handle()).unwrap();
        (vm, m, list, elem)
    }

    #[test]
    fn push_get_set_remove() {
        let (mut vm, m, list, elem) = setup();
        let xs: Vec<ObjRef> = (0..5)
            .map(|_| vm.alloc_rooted(m, elem, 0, 0).unwrap())
            .collect();
        for &x in &xs {
            list.push(&mut vm, m, x).unwrap();
        }
        assert_eq!(list.len(&vm).unwrap(), 5);
        assert!(list.capacity(&vm).unwrap() >= 5);
        assert_eq!(list.get(&vm, 3).unwrap(), xs[3]);
        list.set(&mut vm, 0, xs[4]).unwrap();
        assert_eq!(list.get(&vm, 0).unwrap(), xs[4]);
        assert_eq!(list.remove(&mut vm, 1).unwrap(), xs[1]);
        assert_eq!(
            list.elements(&vm).unwrap(),
            vec![xs[4], xs[2], xs[3], xs[4]]
        );
    }

    #[test]
    fn bounds_checked() {
        let (mut vm, m, list, elem) = setup();
        let x = vm.alloc_rooted(m, elem, 0, 0).unwrap();
        list.push(&mut vm, m, x).unwrap();
        assert!(list.get(&vm, 1).is_err());
        assert!(list.set(&mut vm, 1, x).is_err());
        assert!(list.remove(&mut vm, 1).is_err());
    }

    #[test]
    fn growth_under_gc_pressure_preserves_elements() {
        let mut vm = Vm::new(
            VmConfig::builder()
                .heap_budget(300)
                .grow_on_oom(true)
                .build(),
        );
        let m = vm.main();
        let elem = vm.register_class("Elem", &[]);
        let list = HArrayList::new(&mut vm, m, 1).unwrap();
        vm.add_root(m, list.handle()).unwrap();
        for i in 0..60 {
            let e = vm.alloc(m, elem, 0, 1).unwrap();
            vm.set_data_word(e, 0, i).unwrap();
            list.push(&mut vm, m, e).unwrap();
        }
        assert_eq!(list.len(&vm).unwrap(), 60);
        for (i, e) in list.elements(&vm).unwrap().into_iter().enumerate() {
            assert!(vm.is_live(e));
            assert_eq!(vm.data_word(e, 0).unwrap(), i as u64);
        }
    }

    #[test]
    fn old_storage_becomes_garbage_after_growth() {
        let (mut vm, m, list, elem) = setup();
        let before = vm.heap().live_objects();
        for _ in 0..20 {
            let e = vm.alloc(m, elem, 0, 0).unwrap();
            list.push(&mut vm, m, e).unwrap();
        }
        vm.collect().unwrap();
        // live: initial objects + 20 elements + 1 storage array (old
        // arrays collected).
        assert_eq!(vm.heap().live_objects(), before + 20);
    }
}
