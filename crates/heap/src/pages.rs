//! Big-Bag-of-Pages (BiBOP) substrate: size-class pages with bump-pointer
//! allocation, a large-object space, and per-page side bitmaps.
//!
//! The heap is carved into fixed-arity **pages** of [`PAGE_SLOTS`] object
//! slots each. Every page is dedicated to one size class (all slots the
//! same size in words), so an object index decomposes in O(1) into
//! `(page, slot)` by shift/mask and all per-object metadata — liveness,
//! slot generations, and the nine [`Flags`] bit-planes — lives in dense
//! per-page side tables instead of object headers. This is the classic
//! BiBOP discipline: the *page* knows the size and metadata of everything
//! inside it, so the mark loop and sweep operate on 64-slot bitmap words
//! rather than chasing per-object headers.
//!
//! Objects larger than [`LOS_THRESHOLD`] words go to the **large object
//! space** (LOS): one object per page, at slot 0, with the page's slot
//! size set to the object's exact footprint.
//!
//! Allocation is deterministic: each size class keeps a LIFO stack of
//! pages with free capacity; within a page, fresh slots are bump-pointer
//! allocated in slot order, and reclaimed slots are reused
//! lowest-index-first once the bump pointer exhausts the page. Two runs
//! performing the same alloc/free sequence therefore mint identical
//! indices — the property the cross-engine differential suites rely on.

use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};

use crate::{Flags, ObjRef, Object};

/// Object slots per page. Chosen to match the width of one bitmap word so
/// every per-page side bitmap (liveness, each flag plane) is a single
/// `u64`.
pub const PAGE_SLOTS: usize = 64;

/// log2 of [`PAGE_SLOTS`]: object index `i` lives in page `i >> PAGE_SHIFT`
/// at slot `i & (PAGE_SLOTS - 1)`.
pub const PAGE_SHIFT: u32 = 6;

/// The size classes, in words per slot. An object is binned into the
/// smallest class that fits its [`Object::size_words`] footprint; anything
/// above the last class goes to the large object space.
pub const SIZE_CLASSES: [usize; 7] = [4, 8, 16, 32, 64, 128, 256];

/// Largest footprint (in words) served by a size-class page; bigger
/// objects get a dedicated large-object page.
pub const LOS_THRESHOLD: usize = 256;

/// Number of [`Flags`] bits, and therefore of per-page flag bit-planes.
const FLAG_PLANES: usize = 9;

/// The plane of [`Flags::MARK`], the one the mark claim writes.
const MARK_PLANE: usize = 0;

/// Simulated bytes per word for page base addresses.
const WORD_BYTES: u64 = 8;

/// Base address of the first page. Far below the semispace bases so paged
/// and semispace address ranges are visibly disjoint in debug output.
const FIRST_PAGE_BASE: u64 = 1 << 20;

/// Returns the size-class index for an object of `words` words, or `None`
/// if it belongs in the large object space.
#[inline]
pub(crate) fn size_class_index(words: usize) -> Option<usize> {
    SIZE_CLASSES.iter().position(|&c| words <= c)
}

/// The slots named by the set bits of a page bitmap word (a live mask, a
/// [`PageMeta::flag_word`], any combination), in ascending order — the one
/// bit walk behind every word-wise loop over a page.
pub fn slots_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let slot = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            slot
        })
    })
}

/// One page: metadata word(s) plus the slot storage.
#[derive(Debug)]
pub(crate) struct Page {
    /// Slot size in words: the size class, or the exact object footprint
    /// for a large-object page.
    class_words: usize,
    /// Number of usable slots: [`PAGE_SLOTS`] for size-class pages, 1 for
    /// large-object pages.
    capacity: u32,
    /// Index into [`SIZE_CLASSES`], or `None` for a large-object page.
    class_index: Option<u8>,
    /// Base address of the page's slot storage.
    base: u64,
    /// Bump pointer: slots below `bump` have been allocated at least once.
    bump: u32,
    /// Bitmap of reclaimed slots available for reuse.
    free_mask: u64,
    /// Bitmap of live (occupied) slots.
    live_mask: u64,
    /// Per-slot generation counters, bumped on free (stale-handle checks).
    /// Inline (not boxed) so handle validation and free touch the same
    /// cache neighborhood as the masks instead of chasing a side pointer;
    /// a large-object page just uses entry 0.
    gens: [u32; PAGE_SLOTS],
    /// Slot storage.
    slots: Box<[Option<Object>]>,
    /// Side bitmaps: plane `k` holds bit `k` of every slot's [`Flags`].
    /// Atomic so parallel tracer workers can mark through `&Heap`.
    planes: [AtomicU64; FLAG_PLANES],
    /// Occupancy hint: bit `k` set means plane `k` *may* hold bits. A
    /// conservative superset (shared-path clears leave it stale), tightened
    /// on `clear_all_flags`, so the free path skips planes that were never
    /// touched instead of read-modify-writing all nine, and the mark claim
    /// skips the header of a page that holds no flag its caller asked about.
    plane_hint: AtomicU16,
    /// Whether this page is on its class's avail stack (or the LOS free
    /// list), to keep the stacks duplicate-free.
    in_avail: bool,
}

impl Page {
    fn new(class_words: usize, capacity: u32, class_index: Option<u8>, base: u64) -> Page {
        Page {
            class_words,
            capacity,
            class_index,
            base,
            bump: 0,
            free_mask: 0,
            live_mask: 0,
            gens: [0; PAGE_SLOTS],
            slots: std::iter::repeat_with(|| None)
                .take(capacity as usize)
                .collect(),
            planes: std::array::from_fn(|_| AtomicU64::new(0)),
            plane_hint: AtomicU16::new(0),
            in_avail: false,
        }
    }

    #[inline]
    fn slot_bit(slot: usize) -> u64 {
        1u64 << slot
    }

    /// Composes the [`Flags`] of `slot` from the bit-planes.
    fn compose_flags(&self, slot: usize) -> Flags {
        let mut bits = 0u16;
        for (k, plane) in self.planes.iter().enumerate() {
            if plane.load(Ordering::Relaxed) >> slot & 1 != 0 {
                bits |= 1 << k;
            }
        }
        Flags::from_bits(bits)
    }

    /// Records that the planes named in `raw` now (may) hold bits. The
    /// load-then-or avoids the RMW on the common already-hinted path.
    #[inline]
    fn hint_planes(&self, raw: u16) {
        if self.plane_hint.load(Ordering::Relaxed) & raw != raw {
            self.plane_hint.fetch_or(raw, Ordering::Relaxed);
        }
    }

    /// Sets `bits` on `slot` (plane-wise `fetch_or`).
    fn set_flags(&self, slot: usize, bits: Flags) {
        let raw = bits.bits();
        self.hint_planes(raw);
        for (k, plane) in self.planes.iter().enumerate() {
            if raw >> k & 1 != 0 {
                plane.fetch_or(Self::slot_bit(slot), Ordering::Relaxed);
            }
        }
    }

    /// The mark claim: sets `MARK` on `slot` and returns whether it was
    /// already set, plus the header the claim found — unless the occupancy
    /// hint rules out every plane of `interest` on this page. Then only the
    /// `MARK` plane and the hint are touched and the header is `None`: the
    /// slot provably holds no `interest` flag. `None` interest means every
    /// plane. The `MARK` plane is read first and only written when the bit
    /// is still clear — a re-visit costs loads, no read-modify-write — and
    /// then the previous value comes from the `fetch_or` itself, so
    /// concurrent claimers of one slot see exactly one winner (the parallel
    /// tracer's mark race); the other planes are plain loads, which is
    /// sound because collection is stop-the-world and only `MARK` is
    /// concurrently mutated, and never cleared. Always inlined, from
    /// `Heap::claim_mark` down: a caller's constant interest then picks
    /// one path at compile time, and the outlined two-path body cost
    /// assertion-heavy collections 5–15 % in GC time.
    #[inline(always)]
    fn claim_mark(&self, slot: usize, interest: Option<Flags>) -> (bool, Option<Flags>) {
        let hint = self.plane_hint.load(Ordering::Relaxed);
        if hint & Flags::MARK.bits() == 0 {
            self.plane_hint
                .fetch_or(Flags::MARK.bits(), Ordering::Relaxed);
        }
        let bit = Self::slot_bit(slot);
        let claim = |plane: &AtomicU64| {
            let word = plane.load(Ordering::Relaxed);
            if word & bit == 0 {
                plane.fetch_or(bit, Ordering::Relaxed)
            } else {
                word
            }
        };
        if interest.is_some_and(|i| hint & i.bits() == 0) {
            let marked = claim(&self.planes[MARK_PLANE]) & bit != 0;
            return (marked, None);
        }
        let mut prev = 0u16;
        for (k, plane) in self.planes.iter().enumerate() {
            let word = if k == MARK_PLANE {
                claim(plane)
            } else {
                plane.load(Ordering::Relaxed)
            };
            if word & bit != 0 {
                prev |= 1 << k;
            }
        }
        (prev & Flags::MARK.bits() != 0, Some(Flags::from_bits(prev)))
    }

    /// Clears `bits` on `slot` (plane-wise `fetch_and`).
    fn clear_flags(&self, slot: usize, bits: Flags) {
        let raw = bits.bits();
        for (k, plane) in self.planes.iter().enumerate() {
            if raw >> k & 1 != 0 {
                plane.fetch_and(!Self::slot_bit(slot), Ordering::Relaxed);
            }
        }
    }

    /// Tests whether all of `bits` are set on `slot`.
    fn has_flags(&self, slot: usize, bits: Flags) -> bool {
        let raw = bits.bits();
        for (k, plane) in self.planes.iter().enumerate() {
            if raw >> k & 1 != 0 && plane.load(Ordering::Relaxed) >> slot & 1 == 0 {
                return false;
            }
        }
        true
    }

    /// Clears every plane's bits for the `mask` slots (objects freed). Takes
    /// `&mut self` so the plane clears compile to plain stores instead of
    /// atomic RMWs — reclamation always holds exclusive access, and this is
    /// the allocation-churn hot path. Only planes named by the occupancy
    /// hint are visited (a flag-free page touches nothing but the hint
    /// word), and the hint is re-tightened from what remains.
    fn clear_all_flags(&mut self, mask: u64) {
        let hint = *self.plane_hint.get_mut();
        if hint == 0 {
            return;
        }
        let mut remaining = 0u16;
        for k in 0..FLAG_PLANES {
            if hint >> k & 1 != 0 {
                let plane = self.planes[k].get_mut();
                *plane &= !mask;
                if *plane != 0 {
                    remaining |= 1 << k;
                }
            }
        }
        *self.plane_hint.get_mut() = remaining;
    }

    /// Word-wise clear: removes the `mask` slots' bits from every plane
    /// named in `bits`. One atomic op per plane for a whole page — the
    /// sweep's bulk `PER_GC` clear.
    fn clear_planes_masked(&self, bits: Flags, mask: u64) {
        let raw = bits.bits();
        for (k, plane) in self.planes.iter().enumerate() {
            if raw >> k & 1 != 0 {
                plane.fetch_and(!mask, Ordering::Relaxed);
            }
        }
    }

    /// Word-wise set: the mirror of `clear_planes_masked`.
    fn set_planes_masked(&self, bits: Flags, mask: u64) {
        let raw = bits.bits();
        self.hint_planes(raw);
        for (k, plane) in self.planes.iter().enumerate() {
            if raw >> k & 1 != 0 {
                plane.fetch_or(mask, Ordering::Relaxed);
            }
        }
    }

    /// The union of the bitmap words of the planes named in `bits`.
    #[inline]
    fn plane_word(&self, bits: Flags) -> u64 {
        let raw = bits.bits();
        let mut word = 0;
        for (k, plane) in self.planes.iter().enumerate() {
            if raw >> k & 1 != 0 {
                word |= plane.load(Ordering::Relaxed);
            }
        }
        word
    }

    #[inline]
    fn has_space(&self) -> bool {
        self.bump < self.capacity || self.free_mask != 0
    }

    /// Address of `slot` inside this page.
    #[inline]
    fn slot_address(&self, slot: usize) -> u64 {
        self.base + slot as u64 * self.class_words as u64 * WORD_BYTES
    }
}

/// Read-only view of one page's metadata: size class, bump pointer,
/// liveness bitmap, and flag bit-planes. The facade the collector engines
/// use for word-wise mark/sweep loops instead of per-object probing.
///
/// Obtained from [`Heap::page_meta`](crate::Heap::page_meta).
#[derive(Debug, Clone, Copy)]
pub struct PageMeta<'a> {
    page: &'a Page,
    pid: u32,
}

impl<'a> PageMeta<'a> {
    pub(crate) fn new(page: &'a Page, pid: u32) -> PageMeta<'a> {
        PageMeta { page, pid }
    }

    /// The page id; object index = `id * PAGE_SLOTS + slot`.
    #[inline]
    pub fn id(&self) -> u32 {
        self.pid
    }

    /// Slot size in words (the size class, or the exact footprint for a
    /// large-object page).
    #[inline]
    pub fn slot_words(&self) -> usize {
        self.page.class_words
    }

    /// Usable slots in this page (1 for a large-object page).
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.page.capacity
    }

    /// Whether this is a large-object page.
    #[inline]
    pub fn is_los(&self) -> bool {
        self.page.class_index.is_none()
    }

    /// Base address of the page's slot storage.
    #[inline]
    pub fn base_address(&self) -> u64 {
        self.page.base
    }

    /// Bump pointer: slots below it have been allocated at least once.
    #[inline]
    pub fn bump(&self) -> u32 {
        self.page.bump
    }

    /// Bitmap of live slots.
    #[inline]
    pub fn live_mask(&self) -> u64 {
        self.page.live_mask
    }

    /// Bitmap of reclaimed slots awaiting reuse.
    #[inline]
    pub fn free_mask(&self) -> u64 {
        self.page.free_mask
    }

    /// The side-bitmap word of `bits`: bit `s` is set when slot `s` holds
    /// any of those flags. For one flag (e.g. `Flags::MARK`) that is its
    /// plane; for several, the union of theirs.
    #[inline]
    pub fn flag_word(&self, bits: Flags) -> u64 {
        self.page.plane_word(bits)
    }

    /// The live handle stored in `slot`, if the slot is occupied.
    pub fn handle(&self, slot: usize) -> Option<ObjRef> {
        if slot < self.page.capacity as usize && self.page.live_mask >> slot & 1 != 0 {
            Some(ObjRef::from_parts(
                self.pid * PAGE_SLOTS as u32 + slot as u32,
                self.page.gens[slot],
            ))
        } else {
            None
        }
    }
}

/// The BiBOP page table: object storage for every heap backend, and the
/// non-moving paged space in its own right (it implements
/// [`HeapSpace`](crate::HeapSpace) with page-geometry addresses).
///
/// Objects always live in the page table — even under the semispace
/// copying backend, which only re-maps their *addresses*. That is what
/// keeps [`ObjRef`] handles relocation-stable.
#[derive(Debug)]
pub struct PageTable {
    pages: Vec<Page>,
    /// Per-size-class LIFO stacks of pages with free capacity.
    avail: [Vec<u32>; SIZE_CLASSES.len()],
    /// LIFO stack of vacant large-object pages.
    los_free: Vec<u32>,
    /// Monotonic cursor handing out disjoint page base addresses.
    next_base: u64,
    live_objects: usize,
    occupied_words: usize,
}

impl Default for PageTable {
    fn default() -> PageTable {
        PageTable::new()
    }
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> PageTable {
        PageTable {
            pages: Vec::new(),
            avail: Default::default(),
            los_free: Vec::new(),
            next_base: FIRST_PAGE_BASE,
            live_objects: 0,
            occupied_words: 0,
        }
    }

    #[inline]
    fn split(index: u32) -> (usize, usize) {
        (
            (index >> PAGE_SHIFT) as usize,
            (index & (PAGE_SLOTS as u32 - 1)) as usize,
        )
    }

    fn take_base_span(&mut self, span_words: u64) -> u64 {
        let base = self.next_base;
        self.next_base += span_words * WORD_BYTES;
        base
    }

    fn new_page(&mut self, class_words: usize, capacity: u32, class_index: Option<u8>) -> u32 {
        let base = self.take_base_span(class_words as u64 * capacity as u64);
        let pid = self.pages.len() as u32;
        self.pages
            .push(Page::new(class_words, capacity, class_index, base));
        pid
    }

    /// Stores `object`, returning its freshly minted handle.
    pub(crate) fn alloc(&mut self, object: Object) -> ObjRef {
        let words = object.size_words();
        self.live_objects += 1;
        self.occupied_words += words;
        match size_class_index(words) {
            None => {
                // Large object: one per page. A vacated LOS page is reused
                // with its slot size (and a fresh address span, since the
                // new tenant's footprint may differ) rebound to the object.
                let pid = match self.los_free.pop() {
                    Some(pid) => {
                        let span = words as u64;
                        let base = self.take_base_span(span);
                        let page = &mut self.pages[pid as usize];
                        page.in_avail = false;
                        page.class_words = words;
                        page.base = base;
                        page.bump = 0;
                        page.free_mask = 0;
                        pid
                    }
                    None => self.new_page(words, 1, None),
                };
                let page = &mut self.pages[pid as usize];
                page.bump = 1;
                page.live_mask |= Page::slot_bit(0);
                page.slots[0] = Some(object);
                ObjRef::from_parts(pid * PAGE_SLOTS as u32, page.gens[0])
            }
            Some(ci) => {
                let pid = match self.avail[ci].last().copied() {
                    Some(pid) => pid,
                    None => {
                        let pid =
                            self.new_page(SIZE_CLASSES[ci], PAGE_SLOTS as u32, Some(ci as u8));
                        self.pages[pid as usize].in_avail = true;
                        self.avail[ci].push(pid);
                        pid
                    }
                };
                let page = &mut self.pages[pid as usize];
                let slot = if page.bump < page.capacity {
                    let s = page.bump as usize;
                    page.bump += 1;
                    s
                } else {
                    let s = page.free_mask.trailing_zeros() as usize;
                    page.free_mask &= !Page::slot_bit(s);
                    s
                };
                page.live_mask |= Page::slot_bit(slot);
                page.slots[slot] = Some(object);
                let gen = page.gens[slot];
                if !page.has_space() {
                    page.in_avail = false;
                    let popped = self.avail[ci].pop();
                    debug_assert_eq!(popped, Some(pid), "full page was not the avail top");
                }
                ObjRef::from_parts(pid * PAGE_SLOTS as u32 + slot as u32, gen)
            }
        }
    }

    /// Reclaims the `dead` slots of page `pid` — all of them live — and
    /// returns the words they held. The one reclaim body, for a sweep's
    /// whole-page mask and `Heap::free`'s single bit alike. Per slot it does
    /// only what is irreducibly per object: drop the [`Object`], add its
    /// exact footprint, bump the generation. Everything else — the live and
    /// free masks, the flag planes, the avail stack, the counters — is one
    /// word operation per page.
    pub(crate) fn reclaim(&mut self, pid: usize, dead: u64) -> usize {
        let page = &mut self.pages[pid];
        debug_assert_eq!(dead & !page.live_mask, 0, "reclaiming a vacant slot");
        let mut words = 0;
        for slot in slots_of(dead) {
            let object = page.slots[slot].take().expect("live slot holds an object");
            words += object.size_words();
            page.gens[slot] = page.gens[slot].wrapping_add(1);
        }
        page.live_mask &= !dead;
        page.free_mask |= dead;
        page.clear_all_flags(dead);
        if dead != 0 && !page.in_avail {
            page.in_avail = true;
            match page.class_index {
                Some(ci) => self.avail[ci as usize].push(pid as u32),
                None => self.los_free.push(pid as u32),
            }
        }
        self.live_objects -= dead.count_ones() as usize;
        self.occupied_words -= words;
        words
    }

    /// Number of pages; the index space is `0..page_count * PAGE_SLOTS`.
    #[inline]
    pub(crate) fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Exclusive upper bound of the object-index space.
    #[inline]
    pub(crate) fn index_bound(&self) -> usize {
        self.pages.len() * PAGE_SLOTS
    }

    #[inline]
    pub(crate) fn page(&self, pid: usize) -> &Page {
        &self.pages[pid]
    }

    /// Whether `index` names an occupied slot.
    #[inline]
    pub(crate) fn is_live(&self, index: u32) -> bool {
        let (pid, slot) = Self::split(index);
        match self.pages.get(pid) {
            Some(page) => page.live_mask >> slot & 1 != 0,
            None => false,
        }
    }

    /// The current generation of `index`'s slot, or `None` when the index
    /// is outside the page table (never-allocated address space).
    #[inline]
    pub(crate) fn gen_at(&self, index: u32) -> Option<u32> {
        self.gen_and_live(index).map(|(gen, _)| gen)
    }

    /// Generation and liveness of `index`'s slot in one page lookup, or
    /// `None` when the index is outside the page table. This is the
    /// handle-validation fast path: every `check` on a `Heap` API call
    /// lands here.
    #[inline]
    pub(crate) fn gen_and_live(&self, index: u32) -> Option<(u32, bool)> {
        let (pid, slot) = Self::split(index);
        let page = self.pages.get(pid)?;
        if slot < page.capacity as usize {
            Some((page.gens[slot], page.live_mask >> slot & 1 != 0))
        } else {
            None
        }
    }

    /// Borrows the (live) object at `index`.
    #[inline]
    pub(crate) fn object(&self, index: u32) -> &Object {
        let (pid, slot) = Self::split(index);
        self.pages[pid].slots[slot]
            .as_ref()
            .expect("object: caller verified liveness")
    }

    /// Mutably borrows the (live) object at `index`.
    #[inline]
    pub(crate) fn object_mut(&mut self, index: u32) -> &mut Object {
        let (pid, slot) = Self::split(index);
        self.pages[pid].slots[slot]
            .as_mut()
            .expect("object_mut: caller verified liveness")
    }

    #[inline]
    pub(crate) fn live_objects(&self) -> usize {
        self.live_objects
    }

    #[inline]
    pub(crate) fn occupied_words(&self) -> usize {
        self.occupied_words
    }

    // Per-slot flag operations, delegated to the page's bit-planes. All
    // take `&self`: the planes are atomic.

    pub(crate) fn set_flags(&self, index: u32, bits: Flags) {
        let (pid, slot) = Self::split(index);
        self.pages[pid].set_flags(slot, bits);
    }

    #[inline(always)]
    pub(crate) fn claim_mark(&self, index: u32, interest: Option<Flags>) -> (bool, Option<Flags>) {
        let (pid, slot) = Self::split(index);
        self.pages[pid].claim_mark(slot, interest)
    }

    pub(crate) fn clear_flags(&self, index: u32, bits: Flags) {
        let (pid, slot) = Self::split(index);
        self.pages[pid].clear_flags(slot, bits);
    }

    pub(crate) fn has_flags(&self, index: u32, bits: Flags) -> bool {
        let (pid, slot) = Self::split(index);
        self.pages[pid].has_flags(slot, bits)
    }

    pub(crate) fn flags_of(&self, index: u32) -> Flags {
        let (pid, slot) = Self::split(index);
        self.pages[pid].compose_flags(slot)
    }

    pub(crate) fn clear_flag_word(&self, pid: usize, bits: Flags, mask: u64) {
        self.pages[pid].clear_planes_masked(bits, mask);
    }

    pub(crate) fn set_flag_word(&self, pid: usize, bits: Flags, mask: u64) {
        self.pages[pid].set_planes_masked(bits, mask);
    }

    /// The page-geometry address of the live object at `index`.
    pub(crate) fn address_at(&self, index: u32) -> Option<u64> {
        let (pid, slot) = Self::split(index);
        let page = self.pages.get(pid)?;
        if page.live_mask >> slot & 1 != 0 {
            Some(page.slot_address(slot))
        } else {
            None
        }
    }

    /// Checks the page-table structural invariants, returning
    /// human-readable problems (empty = healthy):
    ///
    /// * live and free masks are disjoint, stay below the bump pointer,
    ///   and together cover exactly the bumped region;
    /// * slot storage agrees with the live mask;
    /// * flag-plane bits exist only on live slots;
    /// * large-object pages hold at most one object whose footprint
    ///   matches the page's slot size; size-class slots fit their class;
    /// * every non-full page is on its class's avail stack (or the LOS
    ///   free list) exactly once;
    /// * the cached live/occupied counters match a full recount.
    pub(crate) fn verify_structure(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut live = 0usize;
        let mut words = 0usize;
        for (pid, page) in self.pages.iter().enumerate() {
            if page.live_mask & page.free_mask != 0 {
                problems.push(format!("page {pid}: live and free masks overlap"));
            }
            let bumped = if page.bump as usize >= 64 {
                u64::MAX
            } else {
                (1u64 << page.bump) - 1
            };
            if (page.live_mask | page.free_mask) != bumped {
                problems.push(format!(
                    "page {pid}: live|free {:#x} does not cover the bumped region {bumped:#x}",
                    page.live_mask | page.free_mask
                ));
            }
            for slot in 0..page.capacity as usize {
                let is_live = page.live_mask >> slot & 1 != 0;
                match (&page.slots[slot], is_live) {
                    (Some(_), false) => {
                        problems.push(format!("page {pid} slot {slot}: object in a dead slot"))
                    }
                    (None, true) => {
                        problems.push(format!("page {pid} slot {slot}: live slot holds no object"))
                    }
                    (Some(obj), true) => {
                        live += 1;
                        words += obj.size_words();
                        if page.class_index.is_some() {
                            if obj.size_words() > page.class_words {
                                problems.push(format!(
                                    "page {pid} slot {slot}: object of {} words overflows its \
                                     {}-word size class",
                                    obj.size_words(),
                                    page.class_words
                                ));
                            }
                        } else if obj.size_words() != page.class_words {
                            problems.push(format!(
                                "LOS page {pid}: object footprint {} != page slot size {}",
                                obj.size_words(),
                                page.class_words
                            ));
                        }
                    }
                    (None, false) => {}
                }
            }
            for (k, plane) in page.planes.iter().enumerate() {
                let stray = plane.load(Ordering::Relaxed) & !page.live_mask;
                if stray != 0 {
                    problems.push(format!(
                        "page {pid}: flag plane {k} has bits {stray:#x} outside the live mask"
                    ));
                }
            }
            if page.class_index.is_none() && page.capacity != 1 {
                problems.push(format!("LOS page {pid} has capacity {}", page.capacity));
            }
            let listed = match page.class_index {
                Some(ci) => self.avail[ci as usize]
                    .iter()
                    .filter(|&&p| p as usize == pid)
                    .count(),
                None => self.los_free.iter().filter(|&&p| p as usize == pid).count(),
            };
            if page.in_avail && listed != 1 {
                problems.push(format!(
                    "page {pid} marked available but listed {listed} times"
                ));
            }
            if !page.in_avail && listed != 0 {
                problems.push(format!("page {pid} on an avail stack but not marked"));
            }
            if page.class_index.is_some() && page.has_space() && !page.in_avail {
                problems.push(format!("page {pid} has free capacity but is not available"));
            }
        }
        if live != self.live_objects {
            problems.push(format!(
                "live-object count drift: counted {live}, cached {}",
                self.live_objects
            ));
        }
        if words != self.occupied_words {
            problems.push(format!(
                "occupied-words drift: counted {words}, cached {}",
                self.occupied_words
            ));
        }
        problems
    }
}
