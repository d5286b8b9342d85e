//! In-heap object representation.

use crate::{ClassId, ObjRef};

/// Simulated per-object header cost in words (Jikes RVM uses a two-word
/// header; the paper's assertion bits live in its spare bits).
pub const HEADER_WORDS: usize = 2;

/// A heap object: a class id, reference fields, and a data payload of
/// whole words (the analogue of Java primitive fields and primitive array
/// storage, zero-initialized like Java's defaults).
///
/// Header flag bits are *not* stored here: the BiBOP page table keeps
/// them in per-page side bit-planes (see
/// [`Heap::flags_of`](crate::Heap::flags_of)), so the mark and sweep
/// loops can operate on 64 objects per bitmap word. The header's two
/// words are still charged to [`Object::size_words`].
#[derive(Debug, Clone)]
pub struct Object {
    class: ClassId,
    refs: Box<[ObjRef]>,
    data: Box<[u64]>,
}

impl Object {
    pub(crate) fn new(class: ClassId, nrefs: usize, data_words: usize) -> Object {
        Object {
            class,
            refs: vec![ObjRef::NULL; nrefs].into_boxed_slice(),
            data: vec![0; data_words].into_boxed_slice(),
        }
    }

    /// The object's class.
    #[inline]
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// The reference fields, in declaration order.
    #[inline]
    pub fn refs(&self) -> &[ObjRef] {
        &self.refs
    }

    pub(crate) fn refs_mut(&mut self) -> &mut [ObjRef] {
        &mut self.refs
    }

    /// Number of reference fields.
    #[inline]
    pub fn ref_count(&self) -> usize {
        self.refs.len()
    }

    /// Size of the data payload, in words.
    #[inline]
    pub(crate) fn data_words(&self) -> usize {
        self.data.len()
    }

    /// The data payload.
    #[inline]
    pub(crate) fn data(&self) -> &[u64] {
        &self.data
    }

    pub(crate) fn data_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Total footprint of the object in words: header + reference fields +
    /// data payload. This is the unit of all heap accounting.
    #[inline]
    pub fn size_words(&self) -> usize {
        HEADER_WORDS + self.refs.len() + self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TypeRegistry;

    fn class() -> ClassId {
        TypeRegistry::new().register("T", &[])
    }

    #[test]
    fn new_object_is_clean() {
        let o = Object::new(class(), 3, 5);
        assert_eq!(o.ref_count(), 3);
        assert!(o.refs().iter().all(|r| r.is_null()));
        assert_eq!(o.data_words(), 5);
        assert_eq!(o.size_words(), HEADER_WORDS + 3 + 5);
    }

    #[test]
    fn zero_field_object_size() {
        let o = Object::new(class(), 0, 0);
        assert_eq!(o.size_words(), HEADER_WORDS);
    }
}
