//! The heap: BiBOP page-table storage behind a pluggable space backend.

use crate::pages::{slots_of, PageMeta, PageTable, PAGE_SHIFT, PAGE_SLOTS};
use crate::spaces::SemiSpaces;
use crate::{
    CardTable, ClassId, Flags, HeapError, HeapSpace, HeapStats, ObjRef, Object, SpaceKind,
    TypeRegistry,
};

/// A heap of [`Object`]s stored in Big-Bag-of-Pages size-class pages.
///
/// This is the substrate the collector and assertion engine operate on —
/// the analogue of Jikes RVM's MarkSweep space. Object storage always
/// lives in the page table: indices are stable, per-slot generations
/// are bumped on [`Heap::free`] so stale [`ObjRef`]s are detected, and
/// all per-object flags live in per-page side bit-planes rather than
/// object headers, so the mark and sweep loops work on whole 64-slot
/// bitmap words.
///
/// *Where objects live in (simulated) memory* is the space backend's
/// business: [`Heap::with_space`] selects [`SpaceKind::Paged`]
/// (non-moving page-geometry addresses) or [`SpaceKind::Semispace`]
/// (Cheney from/to bookkeeping for the copying collector). Engines
/// observe the backend through the [`HeapSpace`] facade ([`Heap::space`]).
///
/// The heap itself is unbounded; the VM layer imposes the budget and
/// triggers collections (§3.1.1 runs every benchmark at a fixed heap of
/// 2× its minimum).
///
/// # Example
///
/// ```
/// use gca_heap::{Flags, Heap};
///
/// # fn main() -> Result<(), gca_heap::HeapError> {
/// let mut heap = Heap::new();
/// let c = heap.register_class("Pair", &["left", "right"]);
/// let a = heap.alloc(c, 2, 0)?;
/// let b = heap.alloc(c, 2, 0)?;
/// heap.set_ref_field(a, 0, b)?;
/// heap.set_flag(b, Flags::UNSHARED)?;
/// assert!(heap.has_flag(b, Flags::UNSHARED)?);
///
/// let freed = heap.free(b)?;
/// assert!(freed > 0);
/// assert!(!heap.is_valid(b)); // stale handle detected
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Heap {
    table: PageTable,
    /// Semispace address bookkeeping, present only for
    /// [`SpaceKind::Semispace`] heaps.
    semi: Option<Box<SemiSpaces>>,
    cards: CardTable,
    registry: TypeRegistry,
    stats: HeapStats,
}

impl Heap {
    /// Creates an empty heap on the default [`SpaceKind::Paged`] backend.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Creates an empty heap on the given space backend. The backend is
    /// fixed for the heap's lifetime; the VM derives it from the
    /// collector kind, so `CollectorKind` alone determines the layout.
    pub fn with_space(kind: SpaceKind) -> Heap {
        Heap {
            semi: match kind {
                SpaceKind::Paged => None,
                SpaceKind::Semispace => Some(Box::new(SemiSpaces::new())),
            },
            ..Heap::default()
        }
    }

    /// Registers a class in the heap's type registry (idempotent by name).
    pub fn register_class(&mut self, name: &str, field_names: &[&str]) -> ClassId {
        self.registry.register(name, field_names)
    }

    /// The type registry.
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    /// Mutable access to the type registry.
    pub fn registry_mut(&mut self) -> &mut TypeRegistry {
        &mut self.registry
    }

    /// Allocates an object of `class` with `nrefs` reference fields and a
    /// `data_words`-word payload. All reference fields start null, all
    /// flags clear. The object is binned into the smallest size class
    /// that fits it (or a dedicated large-object page).
    ///
    /// The heap never refuses an allocation — budget enforcement is the VM
    /// layer's job, so the collector can always allocate its own metadata.
    ///
    /// # Errors
    ///
    /// Currently infallible, but returns `Result` so the signature matches
    /// the budgeted VM-layer allocator that wraps it.
    pub fn alloc(
        &mut self,
        class: ClassId,
        nrefs: usize,
        data_words: usize,
    ) -> Result<ObjRef, HeapError> {
        let object = Object::new(class, nrefs, data_words);
        let words = object.size_words();
        let r = self.table.alloc(object);
        if self.table.page_count() > self.cards.page_span() {
            self.cards.ensure_pages(self.table.page_count());
        }
        if let Some(semi) = &mut self.semi {
            semi.note_alloc(r.index() as usize, words);
        }
        self.stats.allocations += 1;
        self.stats.allocated_words += words as u64;
        if self.table.occupied_words() > self.stats.peak_occupied_words {
            self.stats.peak_occupied_words = self.table.occupied_words();
        }
        Ok(r)
    }

    /// Frees the object behind `r`, returning its size in words. The
    /// slot's generation is bumped so `r` (and any copy of it) becomes
    /// stale, and the slot's flag-plane bits are cleared.
    ///
    /// # Errors
    ///
    /// [`HeapError::NullRef`], [`HeapError::InvalidRef`] or
    /// [`HeapError::StaleRef`] if `r` does not name a live object.
    pub fn free(&mut self, r: ObjRef) -> Result<usize, HeapError> {
        self.check(r)?;
        let (pid, slot) = (r.index() >> PAGE_SHIFT, r.index() % PAGE_SLOTS as u32);
        Ok(self.reclaim_page(pid as usize, 1 << slot).1)
    }

    /// Frees every live object of page `pid` named in the `dead` slot mask
    /// in one call — the sweep's bulk [`Heap::free`], with the same effect
    /// on each object as freeing them one by one in ascending slot order.
    /// Returns `(objects, words)` reclaimed.
    pub fn reclaim_page(&mut self, pid: usize, dead: u64) -> (usize, usize) {
        let dead = dead & self.page_meta(pid).live_mask();
        if let Some(semi) = &mut self.semi {
            for slot in slots_of(dead) {
                semi.note_free(pid * PAGE_SLOTS + slot);
            }
        }
        let objects = dead.count_ones() as usize;
        let words = self.table.reclaim(pid, dead);
        self.stats.frees += objects as u64;
        self.stats.freed_words += words as u64;
        (objects, words)
    }

    #[inline]
    fn check(&self, r: ObjRef) -> Result<(), HeapError> {
        if r.is_null() {
            return Err(HeapError::NullRef);
        }
        match self.table.gen_and_live(r.index()) {
            None => Err(HeapError::InvalidRef(r)),
            Some((gen, live)) if gen == r.generation() && live => Ok(()),
            Some(_) => Err(HeapError::StaleRef(r)),
        }
    }

    /// Returns `true` if `r` names a live object.
    #[inline]
    pub fn is_valid(&self, r: ObjRef) -> bool {
        self.check(r).is_ok()
    }

    /// Borrows the object behind `r`.
    ///
    /// # Errors
    ///
    /// See [`Heap::free`] for the reference-validity errors.
    #[inline]
    pub fn get(&self, r: ObjRef) -> Result<&Object, HeapError> {
        self.check(r)?;
        Ok(self.table.object(r.index()))
    }

    /// Mutably borrows the object behind `r`.
    ///
    /// # Errors
    ///
    /// See [`Heap::free`] for the reference-validity errors.
    #[inline]
    pub(crate) fn get_mut(&mut self, r: ObjRef) -> Result<&mut Object, HeapError> {
        self.check(r)?;
        Ok(self.table.object_mut(r.index()))
    }

    /// The class of the object behind `r`.
    ///
    /// # Errors
    ///
    /// See [`Heap::free`] for the reference-validity errors.
    pub fn class_of(&self, r: ObjRef) -> Result<ClassId, HeapError> {
        Ok(self.get(r)?.class())
    }

    /// Reads reference field `field` of `obj`.
    ///
    /// # Errors
    ///
    /// Reference-validity errors, or [`HeapError::FieldOutOfBounds`].
    pub fn ref_field(&self, obj: ObjRef, field: usize) -> Result<ObjRef, HeapError> {
        let o = self.get(obj)?;
        o.refs()
            .get(field)
            .copied()
            .ok_or(HeapError::FieldOutOfBounds {
                object: obj,
                field,
                len: o.ref_count(),
            })
    }

    /// Writes reference field `field` of `obj`, returning the old value.
    /// `value` may be [`ObjRef::NULL`]; a non-null `value` must be live.
    ///
    /// Dirties the card of `obj`'s page — the generational write barrier
    /// is this single unconditional bit set.
    ///
    /// # Errors
    ///
    /// Reference-validity errors for `obj` or a non-null `value`, or
    /// [`HeapError::FieldOutOfBounds`].
    pub fn set_ref_field(
        &mut self,
        obj: ObjRef,
        field: usize,
        value: ObjRef,
    ) -> Result<ObjRef, HeapError> {
        if value.is_some() {
            self.check(value)?;
        }
        let o = self.get_mut(obj)?;
        let len = o.ref_count();
        let slot = o
            .refs_mut()
            .get_mut(field)
            .ok_or(HeapError::FieldOutOfBounds {
                object: obj,
                field,
                len,
            })?;
        let old = std::mem::replace(slot, value);
        self.cards.dirty(obj.index() >> PAGE_SHIFT);
        Ok(old)
    }

    /// Reads data word `index` of `obj`.
    ///
    /// # Errors
    ///
    /// Reference-validity errors, or [`HeapError::FieldOutOfBounds`] if
    /// `index` exceeds the payload.
    pub fn data_word(&self, obj: ObjRef, index: usize) -> Result<u64, HeapError> {
        let o = self.get(obj)?;
        o.data()
            .get(index)
            .copied()
            .ok_or(HeapError::FieldOutOfBounds {
                object: obj,
                field: index,
                len: o.data_words(),
            })
    }

    /// Writes data word `index` of `obj`.
    ///
    /// # Errors
    ///
    /// Reference-validity errors, or [`HeapError::FieldOutOfBounds`] if
    /// `index` exceeds the payload.
    pub fn set_data_word(
        &mut self,
        obj: ObjRef,
        index: usize,
        value: u64,
    ) -> Result<(), HeapError> {
        let o = self.get_mut(obj)?;
        let len = o.data_words();
        match o.data_mut().get_mut(index) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(HeapError::FieldOutOfBounds {
                object: obj,
                field: index,
                len,
            }),
        }
    }

    /// Sets flag bits on the object behind `r`. Takes `&self`: flags live
    /// in atomic side bit-planes so tracer workers can mark through a
    /// shared heap borrow.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn set_flag(&self, r: ObjRef, bits: Flags) -> Result<(), HeapError> {
        self.check(r)?;
        self.table.set_flags(r.index(), bits);
        Ok(())
    }

    /// The mark claim of every trace: sets [`Flags::MARK`] on the object
    /// behind `r` and returns whether it was already set — during a
    /// parallel trace, the one claimer that sees `false` is the object's
    /// unique visitor — together with the header as the claim found it,
    /// `MARK` included.
    ///
    /// `interest` names the flags the caller will test on that header
    /// (`None`: any). When the object's page provably holds none of them
    /// (its plane-occupancy hint, a conservative superset, rules every one
    /// out), the claim loads only the `MARK` plane and the hint and the
    /// header comes back `None`: the object carries no `interest` flag.
    /// Otherwise the header is `Some`, composed from every plane in the
    /// same pass.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    #[inline(always)]
    pub fn claim_mark(
        &self,
        r: ObjRef,
        interest: Option<Flags>,
    ) -> Result<(bool, Option<Flags>), HeapError> {
        self.check(r)?;
        Ok(self.table.claim_mark(r.index(), interest))
    }

    /// Clears flag bits on the object behind `r`.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn clear_flag(&self, r: ObjRef, bits: Flags) -> Result<(), HeapError> {
        self.check(r)?;
        self.table.clear_flags(r.index(), bits);
        Ok(())
    }

    /// Tests flag bits on the object behind `r`.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn has_flag(&self, r: ObjRef, bits: Flags) -> Result<bool, HeapError> {
        self.check(r)?;
        Ok(self.table.has_flags(r.index(), bits))
    }

    /// The full flag word of the object behind `r`, composed from the
    /// side bit-planes.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    pub fn flags_of(&self, r: ObjRef) -> Result<Flags, HeapError> {
        self.check(r)?;
        Ok(self.table.flags_of(r.index()))
    }

    /// Number of live objects.
    #[inline]
    pub fn live_objects(&self) -> usize {
        self.table.live_objects()
    }

    /// Words currently occupied by live objects (exact
    /// [`Object::size_words`] footprints, not size-class-rounded).
    #[inline]
    pub fn occupied_words(&self) -> usize {
        self.table.occupied_words()
    }

    /// Exclusive upper bound of the object-index space
    /// (`page_count() * PAGE_SLOTS`); every live index is below it.
    #[inline]
    pub fn index_bound(&self) -> usize {
        self.table.index_bound()
    }

    /// Number of pages in the table.
    #[inline]
    pub fn page_count(&self) -> usize {
        self.table.page_count()
    }

    /// Metadata view of page `pid` (`0..page_count()`): liveness bitmap,
    /// flag-plane words, size class — the facade the collectors' word-wise
    /// mark/sweep loops consume.
    #[inline]
    pub fn page_meta(&self, pid: usize) -> PageMeta<'_> {
        PageMeta::new(self.table.page(pid), pid as u32)
    }

    /// The live object at `index`, if any, as a `(handle, object)` pair.
    /// O(1): the index decomposes into `(page, slot)` by shift/mask.
    #[inline]
    pub fn object_at(&self, index: u32) -> Option<(ObjRef, &Object)> {
        if self.table.is_live(index) {
            let gen = self.table.gen_at(index)?;
            Some((ObjRef::from_parts(index, gen), self.table.object(index)))
        } else {
            None
        }
    }

    /// Word-wise flag clear: removes the `mask` slots' bits of page `pid`
    /// from every plane in `bits`. One atomic op per plane — the sweep
    /// uses this to clear `PER_GC` bits on a whole page of survivors.
    #[inline]
    pub fn clear_flag_word(&self, pid: usize, bits: Flags, mask: u64) {
        self.table.clear_flag_word(pid, bits, mask);
    }

    /// Word-wise flag set, the mirror of [`Heap::clear_flag_word`]: `mask`
    /// must be a subset of the page's live mask. Promotion uses it.
    #[inline]
    pub fn set_flag_word(&self, pid: usize, bits: Flags, mask: u64) {
        self.table.set_flag_word(pid, bits, mask);
    }

    /// The dirty-card table (one card per page; see
    /// [`Heap::set_ref_field`]).
    pub fn cards(&self) -> &CardTable {
        &self.cards
    }

    /// Wipes every card clean (the generational collector calls this at
    /// the end of each collection).
    pub fn clear_cards(&mut self) {
        self.cards.clear();
    }

    /// Harvests the card table into a remembered set: every **old** live
    /// object resident on a dirty page, in ascending index order. Young
    /// residents are excluded — the nursery is the minor's to trace from
    /// the real roots, and treating its residents as roots would change
    /// the minor's live set.
    pub fn remembered_from_cards(&self) -> Vec<ObjRef> {
        let mut out = Vec::new();
        for pid in self.cards.dirty_pages() {
            if pid as usize >= self.table.page_count() {
                break;
            }
            let meta = self.page_meta(pid as usize);
            let olds = meta.live_mask() & meta.flag_word(Flags::OLD);
            out.extend(slots_of(olds).filter_map(|slot| meta.handle(slot)));
        }
        out
    }

    /// Which space backend this heap was built with.
    pub fn space_kind(&self) -> SpaceKind {
        match self.semi {
            Some(_) => SpaceKind::Semispace,
            None => SpaceKind::Paged,
        }
    }

    /// The active space backend, as the read-only [`HeapSpace`] facade.
    pub fn space(&self) -> &dyn HeapSpace {
        match &self.semi {
            Some(semi) => semi.as_ref(),
            None => &self.table,
        }
    }

    /// Starts an evacuation cycle on the semispace backend.
    ///
    /// # Panics
    ///
    /// If the heap is not on [`SpaceKind::Semispace`], or a cycle is
    /// already in progress — both are collector-contract violations.
    pub fn evac_begin(&mut self) {
        self.semi_mut().begin_gc();
    }

    /// Evacuates the live object behind `r` to the to-space, installing
    /// and returning its forwarding address. Each object may be forwarded
    /// at most once per cycle.
    ///
    /// # Errors
    ///
    /// Reference-validity errors.
    ///
    /// # Panics
    ///
    /// If the heap is not on [`SpaceKind::Semispace`], no cycle is in
    /// progress, or `r` was already forwarded this cycle.
    pub fn evac_forward(&mut self, r: ObjRef) -> Result<u64, HeapError> {
        self.check(r)?;
        let words = self.table.object(r.index()).size_words();
        Ok(self.semi_mut().forward(r.index() as usize, words))
    }

    /// The forwarding address installed for `r` this cycle, if any.
    pub fn evac_forwarding_of(&self, r: ObjRef) -> Option<u64> {
        self.semi
            .as_ref()
            .and_then(|s| s.forwarding_of(r.index() as usize))
    }

    /// Completes the evacuation cycle: survivors take their forwarding
    /// addresses and the semispaces flip.
    ///
    /// # Panics
    ///
    /// If the heap is not on [`SpaceKind::Semispace`] or no cycle is in
    /// progress.
    pub fn evac_finish(&mut self) {
        self.semi_mut().finish_gc();
    }

    fn semi_mut(&mut self) -> &mut SemiSpaces {
        self.semi
            .as_deref_mut()
            .expect("evacuation requires the semispace backend (SpaceKind::Semispace)")
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &HeapStats {
        &self.stats
    }

    /// Verifies the heap's internal invariants, returning a list of
    /// human-readable violations (empty = healthy). One backend-dispatched
    /// check covers everything:
    ///
    /// * page-table structure — live/free bitmaps vs bump pointers and
    ///   slot storage, flag planes confined to live slots, size-class
    ///   binning, LOS arity, avail-stack consistency, and counter drift;
    /// * the card table spans every page;
    /// * every non-null reference field points at a live object (the
    ///   collector never leaves dangling edges behind);
    /// * the active space's address invariants
    ///   ([`HeapSpace::verify_layout`]) against the current live set.
    ///
    /// Intended for tests and debugging (full heap walk).
    pub fn verify(&self) -> Vec<String> {
        let mut problems = self.table.verify_structure();
        if self.cards.page_span() < self.table.page_count() {
            problems.push(format!(
                "card table spans {} pages but the heap has {}",
                self.cards.page_span(),
                self.table.page_count()
            ));
        }
        let mut resident = Vec::with_capacity(self.live_objects());
        for (r, obj) in self.iter() {
            for (f, &child) in obj.refs().iter().enumerate() {
                if child.is_some() && !self.is_valid(child) {
                    problems.push(format!(
                        "dangling reference: index {} field {f} -> {child}",
                        r.index()
                    ));
                }
            }
            resident.push((r.index(), obj.size_words()));
        }
        problems.extend(self.space().verify_layout(&resident));
        problems
    }

    /// Iterates over all live objects in ascending index order.
    pub fn iter(&self) -> LiveIter<'_> {
        LiveIter {
            heap: self,
            pid: 0,
            mask: if self.table.page_count() == 0 {
                0
            } else {
                self.page_meta(0).live_mask()
            },
        }
    }
}

/// Iterator over the live objects of a [`Heap`], yielded as
/// `(handle, object)` pairs in ascending index order. Walks the per-page
/// liveness bitmaps word by word. Produced by [`Heap::iter`].
#[derive(Debug)]
pub struct LiveIter<'a> {
    heap: &'a Heap,
    pid: usize,
    mask: u64,
}

impl<'a> Iterator for LiveIter<'a> {
    type Item = (ObjRef, &'a Object);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.mask != 0 {
                let slot = self.mask.trailing_zeros();
                self.mask &= self.mask - 1;
                let index = (self.pid * PAGE_SLOTS) as u32 + slot;
                return self.heap.object_at(index);
            }
            self.pid += 1;
            if self.pid >= self.heap.page_count() {
                return None;
            }
            self.mask = self.heap.page_meta(self.pid).live_mask();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::{LOS_THRESHOLD, SIZE_CLASSES};
    use crate::HEADER_WORDS;

    fn heap_with_class() -> (Heap, ClassId) {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["a", "b"]);
        (heap, c)
    }

    #[test]
    fn alloc_get_roundtrip() {
        let (mut heap, c) = heap_with_class();
        let r = heap.alloc(c, 2, 3).unwrap();
        let o = heap.get(r).unwrap();
        assert_eq!(o.class(), c);
        assert_eq!(o.ref_count(), 2);
        assert_eq!(o.data_words(), 3);
        assert_eq!(heap.live_objects(), 1);
        assert_eq!(heap.occupied_words(), o.size_words());
    }

    #[test]
    fn free_makes_handle_stale() {
        let (mut heap, c) = heap_with_class();
        let r = heap.alloc(c, 0, 0).unwrap();
        heap.free(r).unwrap();
        assert!(!heap.is_valid(r));
        assert_eq!(heap.get(r).err(), Some(HeapError::StaleRef(r)));
        assert_eq!(heap.free(r), Err(HeapError::StaleRef(r)));
        assert_eq!(heap.live_objects(), 0);
        assert_eq!(heap.occupied_words(), 0);
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let (mut heap, c) = heap_with_class();
        // Fill the first page so the bump pointer is exhausted and the
        // freed slot must be reused.
        let first: Vec<ObjRef> = (0..PAGE_SLOTS)
            .map(|_| heap.alloc(c, 0, 0).unwrap())
            .collect();
        let a = first[0];
        heap.free(a).unwrap();
        let b = heap.alloc(c, 0, 0).unwrap();
        assert_eq!(a.index(), b.index(), "slot should be reused");
        assert_ne!(a.generation(), b.generation());
        assert!(!heap.is_valid(a));
        assert!(heap.is_valid(b));
    }

    #[test]
    fn field_read_write() {
        let (mut heap, c) = heap_with_class();
        let a = heap.alloc(c, 2, 0).unwrap();
        let b = heap.alloc(c, 0, 0).unwrap();
        assert_eq!(heap.ref_field(a, 0).unwrap(), ObjRef::NULL);
        let old = heap.set_ref_field(a, 0, b).unwrap();
        assert_eq!(old, ObjRef::NULL);
        assert_eq!(heap.ref_field(a, 0).unwrap(), b);
        let old = heap.set_ref_field(a, 0, ObjRef::NULL).unwrap();
        assert_eq!(old, b);
    }

    #[test]
    fn field_bounds_checked() {
        let (mut heap, c) = heap_with_class();
        let a = heap.alloc(c, 1, 0).unwrap();
        assert!(matches!(
            heap.ref_field(a, 1),
            Err(HeapError::FieldOutOfBounds {
                field: 1,
                len: 1,
                ..
            })
        ));
        assert!(matches!(
            heap.set_ref_field(a, 5, ObjRef::NULL),
            Err(HeapError::FieldOutOfBounds {
                field: 5,
                len: 1,
                ..
            })
        ));
    }

    #[test]
    fn writing_stale_value_is_error() {
        let (mut heap, c) = heap_with_class();
        let a = heap.alloc(c, 1, 0).unwrap();
        let b = heap.alloc(c, 0, 0).unwrap();
        heap.free(b).unwrap();
        assert_eq!(heap.set_ref_field(a, 0, b), Err(HeapError::StaleRef(b)));
    }

    #[test]
    fn null_and_invalid_refs() {
        let (heap, _) = heap_with_class();
        assert_eq!(heap.get(ObjRef::NULL).err(), Some(HeapError::NullRef));
        let bogus = ObjRef::from_parts(999, 0);
        assert_eq!(heap.get(bogus).err(), Some(HeapError::InvalidRef(bogus)));
    }

    #[test]
    fn data_words_read_write() {
        let (mut heap, c) = heap_with_class();
        let a = heap.alloc(c, 0, 3).unwrap();
        assert_eq!(heap.data_word(a, 0).unwrap(), 0, "zero-initialized");
        heap.set_data_word(a, 2, 42).unwrap();
        assert_eq!(heap.data_word(a, 2).unwrap(), 42);
        assert!(matches!(
            heap.data_word(a, 3),
            Err(HeapError::FieldOutOfBounds {
                field: 3,
                len: 3,
                ..
            })
        ));
        assert!(matches!(
            heap.set_data_word(a, 9, 1),
            Err(HeapError::FieldOutOfBounds {
                field: 9,
                len: 3,
                ..
            })
        ));
    }

    #[test]
    fn flags_via_heap() {
        let (mut heap, c) = heap_with_class();
        let a = heap.alloc(c, 0, 0).unwrap();
        assert!(!heap.has_flag(a, Flags::DEAD).unwrap());
        heap.set_flag(a, Flags::DEAD).unwrap();
        assert!(heap.has_flag(a, Flags::DEAD).unwrap());
        assert_eq!(heap.flags_of(a).unwrap(), Flags::DEAD);
        heap.clear_flag(a, Flags::DEAD).unwrap();
        assert!(!heap.has_flag(a, Flags::DEAD).unwrap());
        assert!(heap.flags_of(a).unwrap().is_empty());
    }

    #[test]
    fn fetch_set_reports_previous_bits() {
        let (mut heap, c) = heap_with_class();
        let a = heap.alloc(c, 0, 0).unwrap();
        heap.set_flag(a, Flags::DEAD).unwrap();
        let (marked, prev) = heap.claim_mark(a, None).unwrap();
        assert!(!marked, "first claimer sees it clear");
        assert_eq!(prev, Some(Flags::DEAD), "other planes are reported too");
        let (marked, prev) = heap.claim_mark(a, None).unwrap();
        assert!(marked, "second claimer sees it set");
        assert_eq!(prev, Some(Flags::DEAD | Flags::MARK));
    }

    #[test]
    fn claim_composes_the_header_only_when_an_interest_plane_may_be_set() {
        let (mut heap, c) = heap_with_class();
        let objs: Vec<ObjRef> = (0..5).map(|_| heap.alloc(c, 0, 0).unwrap()).collect();
        heap.set_flag(objs[0], Flags::DEAD | Flags::OLD).unwrap();
        // The page may hold DEAD: the claim returns the nine-plane header,
        // for the flagged slot and an unflagged one alike.
        for &o in &objs[..2] {
            let header = heap.flags_of(o).unwrap();
            let first = heap.claim_mark(o, Some(Flags::DEAD)).unwrap();
            assert_eq!(first, (false, Some(header)));
            let again = heap.claim_mark(o, Some(Flags::DEAD)).unwrap();
            assert_eq!(again, (true, Some(header | Flags::MARK)));
        }
        // No interest plane is hinted: MARK alone, and no header.
        let interest = Some(Flags::UNSHARED | Flags::OWNEE);
        assert_eq!(heap.claim_mark(objs[2], interest).unwrap(), (false, None));
        assert_eq!(heap.claim_mark(objs[2], interest).unwrap(), (true, None));
        assert_eq!(
            heap.claim_mark(objs[3], Some(Flags::empty())).unwrap(),
            (false, None)
        );
        // No interest given means every plane.
        assert_eq!(
            heap.claim_mark(objs[4], None).unwrap(),
            (false, Some(Flags::empty()))
        );
        for &o in &objs[2..] {
            assert!(heap.has_flag(o, Flags::MARK).unwrap());
        }
        assert_eq!(heap.claim_mark(ObjRef::NULL, None), Err(HeapError::NullRef));
    }

    #[test]
    fn claim_under_a_stale_hint_composes_until_a_free_tightens_it() {
        let (mut heap, c) = heap_with_class();
        let objs: Vec<ObjRef> = (0..4).map(|_| heap.alloc(c, 0, 0).unwrap()).collect();
        let pid = objs[0].index() as usize / PAGE_SLOTS;
        // A per-slot clear leaves the hint naming DEAD: still a snapshot.
        heap.set_flag(objs[0], Flags::DEAD).unwrap();
        heap.clear_flag(objs[0], Flags::DEAD).unwrap();
        assert_eq!(
            heap.claim_mark(objs[1], Some(Flags::DEAD)).unwrap(),
            (false, Some(Flags::empty()))
        );
        // So does a word-wise clear.
        heap.set_flag(objs[2], Flags::UNSHARED).unwrap();
        heap.clear_flag_word(pid, Flags::UNSHARED, u64::MAX);
        assert_eq!(
            heap.claim_mark(objs[2], Some(Flags::UNSHARED)).unwrap(),
            (false, Some(Flags::empty()))
        );
        // Freeing a slot re-tightens the hint from the planes that still
        // hold bits (MARK only), and the claim skips the header.
        heap.free(objs[3]).unwrap();
        assert_eq!(
            heap.claim_mark(objs[0], Some(Flags::DEAD | Flags::UNSHARED))
                .unwrap(),
            (false, None)
        );
        assert_eq!(
            heap.flags_of(objs[0]).unwrap(),
            Flags::MARK,
            "the skipped header held no interest flag"
        );
    }

    #[test]
    fn concurrent_claims_of_one_slot_see_one_winner() {
        let (mut heap, c) = heap_with_class();
        let objs: Vec<ObjRef> = (0..4 * PAGE_SLOTS)
            .map(|_| heap.alloc(c, 0, 0).unwrap())
            .collect();
        heap.set_flag(objs[0], Flags::DEAD).unwrap();
        for interest in [None, Some(Flags::DEAD), Some(Flags::empty())] {
            for pid in 0..heap.page_count() {
                heap.clear_flag_word(pid, Flags::MARK, u64::MAX);
            }
            let claims = |heap: &Heap| -> Vec<bool> {
                objs.iter()
                    .map(|&o| heap.claim_mark(o, interest).unwrap().0)
                    .collect()
            };
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(|| claims(&heap));
                let b = s.spawn(|| claims(&heap));
                (a.join().unwrap(), b.join().unwrap())
            });
            for (i, (&x, &y)) in a.iter().zip(&b).enumerate() {
                assert!(
                    x != y,
                    "slot {i} under {interest:?}: one winner, not {x}/{y}"
                );
            }
        }
    }

    #[test]
    fn freed_slot_flags_do_not_leak_to_next_tenant() {
        let (mut heap, c) = heap_with_class();
        let first: Vec<ObjRef> = (0..PAGE_SLOTS)
            .map(|_| heap.alloc(c, 0, 0).unwrap())
            .collect();
        let a = first[3];
        heap.set_flag(a, Flags::DEAD | Flags::UNSHARED | Flags::OLD)
            .unwrap();
        heap.free(a).unwrap();
        let b = heap.alloc(c, 0, 0).unwrap();
        assert_eq!(b.index(), a.index());
        assert!(heap.flags_of(b).unwrap().is_empty(), "planes were scrubbed");
    }

    #[test]
    fn iter_yields_live_only() {
        let (mut heap, c) = heap_with_class();
        let a = heap.alloc(c, 0, 0).unwrap();
        let b = heap.alloc(c, 0, 0).unwrap();
        let d = heap.alloc(c, 0, 0).unwrap();
        heap.free(b).unwrap();
        let live: Vec<ObjRef> = heap.iter().map(|(r, _)| r).collect();
        assert_eq!(live, vec![a, d]);
    }

    #[test]
    fn object_at_by_index() {
        let (mut heap, c) = heap_with_class();
        let a = heap.alloc(c, 0, 0).unwrap();
        assert_eq!(heap.object_at(0).map(|(r, _)| r), Some(a));
        heap.free(a).unwrap();
        assert!(heap.object_at(0).is_none());
        assert!(heap.object_at(4200).is_none());
    }

    #[test]
    fn stats_accumulate() {
        let (mut heap, c) = heap_with_class();
        let a = heap.alloc(c, 2, 3).unwrap();
        let words = heap.get(a).unwrap().size_words();
        heap.free(a).unwrap();
        let b = heap.alloc(c, 0, 0).unwrap();
        let stats = heap.stats();
        assert_eq!(stats.allocations, 2);
        assert_eq!(stats.frees, 1);
        assert_eq!(stats.freed_words, words as u64);
        assert_eq!(stats.peak_occupied_words, words);
        assert!(heap.is_valid(b));
    }

    #[test]
    fn verify_clean_heap() {
        let (mut heap, c) = heap_with_class();
        let a = heap.alloc(c, 2, 1).unwrap();
        let b = heap.alloc(c, 2, 0).unwrap();
        heap.set_ref_field(a, 0, b).unwrap();
        heap.free(b).unwrap();
        // `a` now has a dangling field — exactly what verify flags (the
        // collector never does this; a manual free can).
        let problems = heap.verify();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("dangling"));
        heap.set_ref_field(a, 0, ObjRef::NULL).unwrap();
        assert!(heap.verify().is_empty());
    }

    #[test]
    fn verify_after_churn() {
        let (mut heap, c) = heap_with_class();
        let mut live = Vec::new();
        for i in 0..50 {
            let o = heap.alloc(c, 1, i % 5).unwrap();
            live.push(o);
            if i % 3 == 0 {
                let victim = live.remove(i % live.len());
                // Clear any fields pointing at the victim first.
                for &l in &live {
                    if heap.ref_field(l, 0).unwrap() == victim {
                        heap.set_ref_field(l, 0, ObjRef::NULL).unwrap();
                    }
                }
                heap.free(victim).unwrap();
            }
        }
        assert!(heap.verify().is_empty(), "{:?}", heap.verify());
    }

    // ---- BiBOP page invariants ----------------------------------------

    #[test]
    fn bump_allocation_stays_in_page_bounds() {
        let (mut heap, c) = heap_with_class();
        // All same class: the first PAGE_SLOTS allocations fill page 0 in
        // bump order, the next one opens page 1.
        let refs: Vec<ObjRef> = (0..PAGE_SLOTS + 1)
            .map(|_| heap.alloc(c, 0, 0).unwrap())
            .collect();
        for (i, r) in refs.iter().take(PAGE_SLOTS).enumerate() {
            assert_eq!(r.index(), i as u32, "bump order inside page 0");
        }
        assert_eq!(refs[PAGE_SLOTS].index(), PAGE_SLOTS as u32);
        assert_eq!(heap.page_count(), 2);
        let meta = heap.page_meta(0);
        assert_eq!(meta.bump(), PAGE_SLOTS as u32);
        assert_eq!(meta.live_mask(), u64::MAX);
        assert_eq!(heap.page_meta(1).bump(), 1);
        assert!(heap.verify().is_empty());
    }

    #[test]
    fn size_class_binning_separates_pages() {
        let (mut heap, c) = heap_with_class();
        let small = heap.alloc(c, 0, 0).unwrap(); // 2 words -> class 4
        let medium = heap.alloc(c, 2, 10).unwrap(); // 14 words -> class 16
        let big = heap.alloc(c, 0, 100).unwrap(); // 102 words -> class 128
        let pages: Vec<u32> = [small, medium, big]
            .iter()
            .map(|r| r.index() >> PAGE_SHIFT)
            .collect();
        assert_eq!(pages.len(), 3);
        assert!(pages[0] != pages[1] && pages[1] != pages[2] && pages[0] != pages[2]);
        assert_eq!(heap.page_meta(pages[0] as usize).slot_words(), 4);
        assert_eq!(heap.page_meta(pages[1] as usize).slot_words(), 16);
        assert_eq!(heap.page_meta(pages[2] as usize).slot_words(), 128);
        // Same class reuses the same page.
        let small2 = heap.alloc(c, 1, 0).unwrap(); // 3 words -> class 4
        assert_eq!(small2.index() >> PAGE_SHIFT, pages[0]);
        assert!(heap.verify().is_empty());
    }

    #[test]
    fn los_threshold_gets_dedicated_page() {
        let (mut heap, c) = heap_with_class();
        // Exactly at the threshold: still a size-class object.
        let at = heap.alloc(c, 0, LOS_THRESHOLD - HEADER_WORDS).unwrap();
        let at_meta = heap.page_meta((at.index() >> PAGE_SHIFT) as usize);
        assert!(!at_meta.is_los());
        assert_eq!(at_meta.slot_words(), *SIZE_CLASSES.last().unwrap());
        // One word over: large object space, capacity-1 page, exact size.
        let over = heap.alloc(c, 0, LOS_THRESHOLD - HEADER_WORDS + 1).unwrap();
        let over_meta = heap.page_meta((over.index() >> PAGE_SHIFT) as usize);
        assert!(over_meta.is_los());
        assert_eq!(over_meta.capacity(), 1);
        assert_eq!(over_meta.slot_words(), LOS_THRESHOLD + 1);
        assert_eq!(over.index() % PAGE_SLOTS as u32, 0, "LOS object at slot 0");
        // Freeing and reallocating a large object reuses the page.
        heap.free(over).unwrap();
        let again = heap.alloc(c, 0, 400).unwrap();
        assert_eq!(again.index(), over.index(), "vacated LOS page is reused");
        assert_eq!(
            heap.page_meta((again.index() >> PAGE_SHIFT) as usize)
                .slot_words(),
            HEADER_WORDS + 400
        );
        assert!(heap.verify().is_empty());
    }

    #[test]
    fn set_ref_field_dirties_the_source_card() {
        let (mut heap, c) = heap_with_class();
        let a = heap.alloc(c, 2, 0).unwrap();
        let big = heap.alloc(c, 0, 300).unwrap(); // separate (LOS) page
        assert_eq!(
            heap.cards().dirty_count(),
            0,
            "allocation leaves cards clean"
        );
        heap.set_ref_field(a, 0, big).unwrap();
        let dirty: Vec<u32> = heap.cards().dirty_pages().collect();
        assert_eq!(
            dirty,
            vec![a.index() >> PAGE_SHIFT],
            "only the *source* page is dirtied"
        );
        heap.clear_cards();
        assert_eq!(heap.cards().dirty_count(), 0);
        // A null store still dirties (the barrier is unconditional).
        heap.set_ref_field(a, 0, ObjRef::NULL).unwrap();
        let dirty: Vec<u32> = heap.cards().dirty_pages().collect();
        assert_eq!(dirty, vec![a.index() >> PAGE_SHIFT]);
    }

    #[test]
    fn remembered_from_cards_is_old_only_in_index_order() {
        let (mut heap, c) = heap_with_class();
        let old_a = heap.alloc(c, 2, 0).unwrap();
        let young = heap.alloc(c, 2, 0).unwrap();
        let old_b = heap.alloc(c, 2, 0).unwrap();
        heap.set_flag(old_a, Flags::OLD).unwrap();
        heap.set_flag(old_b, Flags::OLD).unwrap();
        heap.set_ref_field(old_b, 0, young).unwrap();
        heap.set_ref_field(young, 0, old_a).unwrap();
        // All three share page 0; the harvest takes the old ones only.
        assert_eq!(heap.remembered_from_cards(), vec![old_a, old_b]);
        heap.clear_cards();
        assert!(heap.remembered_from_cards().is_empty());
    }

    #[test]
    fn clear_flag_word_clears_only_masked_slots() {
        let (mut heap, c) = heap_with_class();
        let a = heap.alloc(c, 0, 0).unwrap();
        let b = heap.alloc(c, 0, 0).unwrap();
        heap.set_flag(a, Flags::MARK | Flags::DEAD).unwrap();
        heap.set_flag(b, Flags::MARK).unwrap();
        heap.clear_flag_word(0, Flags::PER_GC, 1 << a.index());
        assert!(!heap.has_flag(a, Flags::MARK).unwrap());
        assert!(
            heap.has_flag(a, Flags::DEAD).unwrap(),
            "non-PER_GC plane kept"
        );
        assert!(heap.has_flag(b, Flags::MARK).unwrap(), "unmasked slot kept");
    }

    #[test]
    fn set_flag_word_sets_only_masked_slots_and_dies_with_the_object() {
        let (mut heap, c) = heap_with_class();
        let a = heap.alloc(c, 0, 0).unwrap();
        let b = heap.alloc(c, 0, 0).unwrap();
        heap.set_flag_word(0, Flags::OLD, 1 << a.index());
        assert_eq!(heap.flags_of(a), Ok(Flags::OLD));
        assert_eq!(heap.flags_of(b), Ok(Flags::empty()), "unmasked slot kept");
        // Reclamation clears the plane the word op set (`verify` checks
        // that flag bits sit on live slots only).
        heap.free(a).unwrap();
        assert_eq!(heap.verify(), Vec::<String>::new());
    }

    #[test]
    fn page_meta_flag_words_match_per_object_flags() {
        let (mut heap, c) = heap_with_class();
        let refs: Vec<ObjRef> = (0..5).map(|_| heap.alloc(c, 0, 0).unwrap()).collect();
        heap.set_flag(refs[1], Flags::MARK).unwrap();
        heap.set_flag(refs[3], Flags::MARK).unwrap();
        heap.set_flag(refs[3], Flags::OLD).unwrap();
        let meta = heap.page_meta(0);
        assert_eq!(meta.flag_word(Flags::MARK), 0b01010);
        assert_eq!(meta.flag_word(Flags::OLD), 0b01000);
        assert_eq!(meta.live_mask(), 0b11111);
        assert_eq!(meta.handle(1), Some(refs[1]));
        assert_eq!(meta.handle(63), None);
    }

    // ---- space backends ------------------------------------------------

    #[test]
    fn paged_space_reports_geometry_addresses() {
        let (mut heap, c) = heap_with_class();
        let a = heap.alloc(c, 0, 0).unwrap();
        let b = heap.alloc(c, 0, 0).unwrap();
        assert_eq!(heap.space_kind(), SpaceKind::Paged);
        let space = heap.space();
        assert_eq!(space.kind(), SpaceKind::Paged);
        let addr_a = space.address_of(a.index()).unwrap();
        let addr_b = space.address_of(b.index()).unwrap();
        assert_eq!(addr_b - addr_a, 4 * 8, "adjacent class-4 slots");
        assert_eq!(space.flips(), 0);
        heap.free(b).unwrap();
        assert!(heap.space().address_of(b.index()).is_none());
        assert!(heap.verify().is_empty());
    }

    #[test]
    fn semispace_heap_tracks_alloc_and_free() {
        let mut heap = Heap::with_space(SpaceKind::Semispace);
        let c = heap.register_class("T", &["a"]);
        let a = heap.alloc(c, 1, 0).unwrap();
        let b = heap.alloc(c, 0, 3).unwrap();
        assert_eq!(heap.space_kind(), SpaceKind::Semispace);
        let addr_a = heap.space().address_of(a.index()).unwrap();
        let addr_b = heap.space().address_of(b.index()).unwrap();
        assert!(addr_b > addr_a, "bump order in from-space");
        assert!(heap.verify().is_empty());
        heap.free(b).unwrap();
        assert!(heap.space().address_of(b.index()).is_none());
        assert!(heap.verify().is_empty());
    }

    #[test]
    fn evacuation_relocates_survivors() {
        let mut heap = Heap::with_space(SpaceKind::Semispace);
        let c = heap.register_class("T", &[]);
        let keep = heap.alloc(c, 0, 0).unwrap();
        let drop = heap.alloc(c, 0, 0).unwrap();
        let before = heap.space().address_of(keep.index()).unwrap();
        heap.evac_begin();
        let fwd = heap.evac_forward(keep).unwrap();
        assert_eq!(heap.evac_forwarding_of(keep), Some(fwd));
        assert_eq!(heap.evac_forwarding_of(drop), None);
        heap.free(drop).unwrap();
        heap.evac_finish();
        let after = heap.space().address_of(keep.index()).unwrap();
        assert_eq!(after, fwd);
        assert_ne!(before, after, "survivor relocated");
        assert_eq!(heap.space().flips(), 1);
        assert!(heap.space().address_of(drop.index()).is_none());
        assert!(heap.verify().is_empty(), "{:?}", heap.verify());
    }

    #[test]
    #[should_panic(expected = "semispace backend")]
    fn evacuating_a_paged_heap_panics() {
        let mut heap = Heap::new();
        heap.evac_begin();
    }
}
