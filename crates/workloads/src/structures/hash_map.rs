//! A chained hash map from `u64` keys to object references.

use gc_assertions::{ClassId, MutatorId, ObjRef, Vm, VmError};

/// A chained hash table living in the VM heap.
///
/// Heap shape: `HashMap { buckets } -> Object[] -> HashEntry { next,
/// value } -> …`, with each entry's key in its data word and the size in
/// the map header's data word. This is the "cached in a hash table" shape
/// from the paper's ownership discussion.
///
/// # Example
///
/// ```
/// use gc_assertions::{Vm, VmConfig};
/// use gca_workloads::structures::HHashMap;
///
/// # fn main() -> Result<(), gc_assertions::VmError> {
/// let mut vm = Vm::new(VmConfig::builder().build());
/// let m = vm.main();
/// let elem = vm.register_class("Elem", &[]);
/// let map = HHashMap::new(&mut vm, m, 4)?;
/// vm.add_root(m, map.handle())?;
/// let e = vm.alloc(m, elem, 0, 0)?;
/// map.put(&mut vm, m, 42, e)?;
/// assert_eq!(map.get(&vm, 42)?, Some(e));
/// assert_eq!(map.remove(&mut vm, 42)?, Some(e));
/// assert_eq!(map.get(&vm, 42)?, None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HHashMap {
    handle: ObjRef,
    entry_class: ClassId,
    array_class: ClassId,
}

const BUCKETS: usize = 0;
const SIZE_WORD: usize = 0;
const ENTRY_NEXT: usize = 0;
const ENTRY_VALUE: usize = 1;
const ENTRY_KEY_WORD: usize = 0;

fn bucket_of(key: u64, nbuckets: usize) -> usize {
    // Fibonacci hashing; deterministic and well-spread for dense keys.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % nbuckets
}

impl HHashMap {
    /// Allocates an empty map with `nbuckets` chains (minimum 1). Root the
    /// handle to keep it alive.
    ///
    /// # Errors
    ///
    /// Allocation errors.
    pub fn new(vm: &mut Vm, m: MutatorId, nbuckets: usize) -> Result<HHashMap, VmError> {
        let map_class = vm.register_class("HashMap", &["buckets"]);
        let entry_class = vm.register_class("HashEntry", &["next", "value"]);
        let array_class = vm.register_class("Object[]", &[]);
        vm.push_frame(m)?;
        let handle = vm.alloc_rooted(m, map_class, 1, 1)?;
        let buckets = vm.alloc(m, array_class, nbuckets.max(1), 0)?;
        vm.set_field(handle, BUCKETS, buckets)?;
        vm.pop_frame(m)?;
        Ok(HHashMap {
            handle,
            entry_class,
            array_class,
        })
    }

    /// The in-heap container object.
    pub fn handle(&self) -> ObjRef {
        self.handle
    }

    /// Number of entries.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn len(&self, vm: &Vm) -> Result<usize, VmError> {
        Ok(vm.data_word(self.handle, SIZE_WORD)? as usize)
    }

    /// Returns `true` if the map has no entries.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub(crate) fn is_empty(&self, vm: &Vm) -> Result<bool, VmError> {
        Ok(self.len(vm)? == 0)
    }

    fn nbuckets(&self, vm: &Vm) -> Result<usize, VmError> {
        let buckets = vm.field(self.handle, BUCKETS)?;
        Ok(vm.heap().get(buckets).map_err(VmError::Heap)?.ref_count())
    }

    /// Inserts or replaces the mapping for `key`, returning the previous
    /// value if any. Resizes (doubles the bucket array) past a load factor
    /// of 0.75, like `java.util.HashMap`.
    ///
    /// # Errors
    ///
    /// Allocation or reference-validity errors.
    pub fn put(
        &self,
        vm: &mut Vm,
        m: MutatorId,
        key: u64,
        value: ObjRef,
    ) -> Result<Option<ObjRef>, VmError> {
        // Replace in place if present.
        if let Some(entry) = self.find_entry(vm, key)? {
            let old = vm.set_field(entry, ENTRY_VALUE, value)?;
            return Ok(Some(old));
        }
        let len = self.len(vm)?;
        if (len + 1) * 4 > self.nbuckets(vm)? * 3 {
            self.resize(vm, m, value)?;
        }
        vm.push_frame(m)?;
        if value.is_some() {
            vm.add_root(m, value)?;
        }
        let entry = vm.alloc(m, self.entry_class, 2, 1)?;
        vm.pop_frame(m)?;
        vm.set_data_word(entry, ENTRY_KEY_WORD, key)?;
        vm.set_field(entry, ENTRY_VALUE, value)?;
        let buckets = vm.field(self.handle, BUCKETS)?;
        let b = bucket_of(key, self.nbuckets(vm)?);
        let head = vm.field(buckets, b)?;
        vm.set_field(entry, ENTRY_NEXT, head)?;
        vm.set_field(buckets, b, entry)?;
        vm.set_data_word(self.handle, SIZE_WORD, (len + 1) as u64)?;
        Ok(None)
    }

    fn resize(&self, vm: &mut Vm, m: MutatorId, pin: ObjRef) -> Result<(), VmError> {
        let old_n = self.nbuckets(vm)?;
        let new_n = old_n * 2;
        vm.push_frame(m)?;
        if pin.is_some() {
            vm.add_root(m, pin)?;
        }
        let new_buckets = vm.alloc(m, self.array_class, new_n, 0)?;
        let old_buckets = vm.field(self.handle, BUCKETS)?;
        for b in 0..old_n {
            let mut cur = vm.field(old_buckets, b)?;
            while cur.is_some() {
                let next = vm.field(cur, ENTRY_NEXT)?;
                let key = vm.data_word(cur, ENTRY_KEY_WORD)?;
                let nb = bucket_of(key, new_n);
                let head = vm.field(new_buckets, nb)?;
                vm.set_field(cur, ENTRY_NEXT, head)?;
                vm.set_field(new_buckets, nb, cur)?;
                cur = next;
            }
        }
        vm.set_field(self.handle, BUCKETS, new_buckets)?;
        vm.pop_frame(m)?;
        Ok(())
    }

    fn find_entry(&self, vm: &Vm, key: u64) -> Result<Option<ObjRef>, VmError> {
        let buckets = vm.field(self.handle, BUCKETS)?;
        let b = bucket_of(key, self.nbuckets(vm)?);
        let mut cur = vm.field(buckets, b)?;
        while cur.is_some() {
            if vm.data_word(cur, ENTRY_KEY_WORD)? == key {
                return Ok(Some(cur));
            }
            cur = vm.field(cur, ENTRY_NEXT)?;
        }
        Ok(None)
    }

    /// Looks up `key`.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn get(&self, vm: &Vm, key: u64) -> Result<Option<ObjRef>, VmError> {
        match self.find_entry(vm, key)? {
            Some(entry) => Ok(Some(vm.field(entry, ENTRY_VALUE)?)),
            None => Ok(None),
        }
    }

    /// Removes the mapping for `key`, returning the value if present.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn remove(&self, vm: &mut Vm, key: u64) -> Result<Option<ObjRef>, VmError> {
        let buckets = vm.field(self.handle, BUCKETS)?;
        let b = bucket_of(key, self.nbuckets(vm)?);
        let mut prev = ObjRef::NULL;
        let mut cur = vm.field(buckets, b)?;
        while cur.is_some() {
            let next = vm.field(cur, ENTRY_NEXT)?;
            if vm.data_word(cur, ENTRY_KEY_WORD)? == key {
                let value = vm.field(cur, ENTRY_VALUE)?;
                if prev.is_null() {
                    vm.set_field(buckets, b, next)?;
                } else {
                    vm.set_field(prev, ENTRY_NEXT, next)?;
                }
                let len = self.len(vm)?;
                vm.set_data_word(self.handle, SIZE_WORD, (len - 1) as u64)?;
                return Ok(Some(value));
            }
            prev = cur;
            cur = next;
        }
        Ok(None)
    }

    /// Collects all `(key, value)` pairs (bucket order).
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn entries(&self, vm: &Vm) -> Result<Vec<(u64, ObjRef)>, VmError> {
        let buckets = vm.field(self.handle, BUCKETS)?;
        let n = self.nbuckets(vm)?;
        let mut out = Vec::new();
        for b in 0..n {
            let mut cur = vm.field(buckets, b)?;
            while cur.is_some() {
                out.push((
                    vm.data_word(cur, ENTRY_KEY_WORD)?,
                    vm.field(cur, ENTRY_VALUE)?,
                ));
                cur = vm.field(cur, ENTRY_NEXT)?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_assertions::VmConfig;

    fn setup() -> (Vm, MutatorId, HHashMap, ClassId) {
        let mut vm = Vm::new(VmConfig::builder().build());
        let m = vm.main();
        let elem = vm.register_class("Elem", &[]);
        let map = HHashMap::new(&mut vm, m, 4).unwrap();
        vm.add_root(m, map.handle()).unwrap();
        (vm, m, map, elem)
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let (mut vm, m, map, elem) = setup();
        let a = vm.alloc_rooted(m, elem, 0, 0).unwrap();
        let b = vm.alloc_rooted(m, elem, 0, 0).unwrap();
        assert_eq!(map.put(&mut vm, m, 1, a).unwrap(), None);
        assert_eq!(map.put(&mut vm, m, 2, b).unwrap(), None);
        assert_eq!(map.len(&vm).unwrap(), 2);
        assert_eq!(map.get(&vm, 1).unwrap(), Some(a));
        assert_eq!(map.get(&vm, 3).unwrap(), None);
        // Replacement returns old.
        assert_eq!(map.put(&mut vm, m, 1, b).unwrap(), Some(a));
        assert_eq!(map.len(&vm).unwrap(), 2);
        assert_eq!(map.remove(&mut vm, 1).unwrap(), Some(b));
        assert_eq!(map.remove(&mut vm, 1).unwrap(), None);
        assert_eq!(map.len(&vm).unwrap(), 1);
    }

    #[test]
    fn many_keys_with_resize() {
        let (mut vm, m, map, elem) = setup();
        let mut vals = Vec::new();
        for k in 0..200u64 {
            let e = vm.alloc(m, elem, 0, 1).unwrap();
            vm.set_data_word(e, 0, k).unwrap();
            map.put(&mut vm, m, k, e).unwrap();
            vals.push((k, e));
        }
        assert_eq!(map.len(&vm).unwrap(), 200);
        assert!(map.nbuckets(&vm).unwrap() > 4, "resized");
        for (k, e) in vals {
            assert_eq!(map.get(&vm, k).unwrap(), Some(e));
            assert_eq!(vm.data_word(e, 0).unwrap(), k);
        }
        assert_eq!(map.entries(&vm).unwrap().len(), 200);
    }

    #[test]
    fn entries_survive_gc_through_map() {
        let (mut vm, m, map, elem) = setup();
        for k in 0..50u64 {
            let e = vm.alloc(m, elem, 0, 0).unwrap();
            map.put(&mut vm, m, k, e).unwrap();
        }
        vm.collect().unwrap();
        assert_eq!(map.len(&vm).unwrap(), 50);
        for (_, v) in map.entries(&vm).unwrap() {
            assert!(vm.is_live(v));
        }
    }

    #[test]
    fn removed_entries_become_garbage() {
        let (mut vm, m, map, elem) = setup();
        let e = vm.alloc(m, elem, 0, 0).unwrap();
        map.put(&mut vm, m, 7, e).unwrap();
        map.remove(&mut vm, 7).unwrap();
        vm.collect().unwrap();
        assert!(!vm.is_live(e));
    }

    #[test]
    fn put_under_gc_pressure() {
        let mut vm = Vm::new(
            VmConfig::builder()
                .heap_budget(400)
                .grow_on_oom(true)
                .build(),
        );
        let m = vm.main();
        let elem = vm.register_class("Elem", &[]);
        let map = HHashMap::new(&mut vm, m, 2).unwrap();
        vm.add_root(m, map.handle()).unwrap();
        for k in 0..80u64 {
            let e = vm.alloc(m, elem, 0, 2).unwrap();
            vm.set_data_word(e, 0, k).unwrap();
            map.put(&mut vm, m, k, e).unwrap();
        }
        assert_eq!(map.len(&vm).unwrap(), 80);
        for k in 0..80u64 {
            let v = map.get(&vm, k).unwrap().unwrap();
            assert_eq!(vm.data_word(v, 0).unwrap(), k);
        }
    }
}
