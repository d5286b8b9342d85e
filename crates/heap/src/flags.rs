//! Per-object header flag bits.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Not};

/// Header flag bits for a heap object.
///
/// The paper "steals" spare bits from the two-word Jikes RVM object header
/// to store assertion state at zero space cost; this type is the Rust
/// analogue. The collector owns [`Flags::MARK`]; the assertion engine owns
/// the rest.
///
/// * [`Flags::MARK`] — set while tracing, cleared by sweep.
/// * [`Flags::DEAD`] — the program asserted this object dead
///   (`assert-dead`, §2.3.1); finding it reachable is a violation.
/// * [`Flags::UNSHARED`] — the program asserted at most one incoming
///   pointer (`assert-unshared`, §2.5.1).
/// * [`Flags::OWNEE`] — this object is the ownee of some
///   `assert-ownedby` pair (§2.5.2); lets the tracer skip the ownership
///   table lookup for the common case.
/// * [`Flags::OWNED`] — set during the ownership phase when the ownee was
///   reached from its owner; recomputed (cleared) every collection.
/// * [`Flags::REPORTED`] — a violation for this object was already
///   reported; used to de-duplicate warnings across collections when the
///   configuration asks for report-once semantics.
///
/// # Example
///
/// ```
/// use gca_heap::Flags;
///
/// let mut f = Flags::empty();
/// f |= Flags::MARK | Flags::DEAD;
/// assert!(f.contains(Flags::MARK));
/// assert!(f.contains(Flags::DEAD));
/// let f = f & !Flags::MARK;
/// assert!(!f.contains(Flags::MARK));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Flags(u16);

impl Flags {
    /// No bits set.
    pub const fn empty() -> Flags {
        Flags(0)
    }

    /// Tracing mark bit.
    pub const MARK: Flags = Flags(1 << 0);
    /// `assert-dead` bit.
    pub const DEAD: Flags = Flags(1 << 1);
    /// `assert-unshared` bit.
    pub const UNSHARED: Flags = Flags(1 << 2);
    /// Object is an ownee of some `assert-ownedby` pair.
    pub const OWNEE: Flags = Flags(1 << 3);
    /// Ownee was reached from its owner this collection.
    pub const OWNED: Flags = Flags(1 << 4);
    /// A violation involving this object was already reported.
    pub const REPORTED: Flags = Flags(1 << 5);
    /// Object is an owner of some `assert-ownedby` pair; lets the
    /// ownership phase detect owner-region boundaries with a header test
    /// instead of a table lookup on every traced object.
    pub const OWNER: Flags = Flags(1 << 6);
    /// Object has survived a collection (generational mode): minor
    /// collections treat it as immortal and do not scan beyond it.
    pub const OLD: Flags = Flags(1 << 7);
    /// Object is in the remembered set (an old object that may hold
    /// references to young objects); deduplicates write-barrier entries.
    pub const REMEMBERED: Flags = Flags(1 << 8);

    /// Bits that must be recomputed on every collection and are therefore
    /// cleared by sweep ([`Flags::MARK`] and [`Flags::OWNED`]).
    pub const PER_GC: Flags = Flags(Flags::MARK.0 | Flags::OWNED.0);

    /// Returns `true` if every bit of `other` is set in `self`.
    #[inline]
    pub fn contains(self, other: Flags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `true` if any bit of `other` is set in `self`.
    #[inline]
    pub fn intersects(self, other: Flags) -> bool {
        self.0 & other.0 != 0
    }

    /// Returns `true` if no bit is set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Raw bit pattern, for debugging.
    #[inline]
    pub(crate) fn bits(self) -> u16 {
        self.0
    }

    /// Rebuilds flags from a raw bit pattern (the page table composes
    /// per-object flags from its side bit-planes).
    #[inline]
    pub(crate) const fn from_bits(bits: u16) -> Flags {
        Flags(bits)
    }
}

impl BitOr for Flags {
    type Output = Flags;
    fn bitor(self, rhs: Flags) -> Flags {
        Flags(self.0 | rhs.0)
    }
}

impl BitOrAssign for Flags {
    fn bitor_assign(&mut self, rhs: Flags) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for Flags {
    type Output = Flags;
    fn bitand(self, rhs: Flags) -> Flags {
        Flags(self.0 & rhs.0)
    }
}

impl Not for Flags {
    type Output = Flags;
    fn not(self) -> Flags {
        Flags(!self.0)
    }
}

impl fmt::Debug for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: [(Flags, &str); 9] = [
            (Flags::MARK, "MARK"),
            (Flags::DEAD, "DEAD"),
            (Flags::UNSHARED, "UNSHARED"),
            (Flags::OWNEE, "OWNEE"),
            (Flags::OWNED, "OWNED"),
            (Flags::REPORTED, "REPORTED"),
            (Flags::OWNER, "OWNER"),
            (Flags::OLD, "OLD"),
            (Flags::REMEMBERED, "REMEMBERED"),
        ];
        let mut first = true;
        write!(f, "Flags(")?;
        for (bit, name) in names {
            if self.contains(bit) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "empty")?;
        }
        write!(f, ")")
    }
}

impl fmt::Binary for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_contains_nothing() {
        let f = Flags::empty();
        assert!(f.is_empty());
        assert!(!f.contains(Flags::MARK));
        // `contains(empty)` is vacuously true.
        assert!(f.contains(Flags::empty()));
    }

    #[test]
    fn set_and_clear() {
        let mut f = Flags::empty();
        f |= Flags::DEAD;
        assert!(f.contains(Flags::DEAD));
        assert!(f.intersects(Flags::DEAD | Flags::MARK));
        assert!(!f.contains(Flags::DEAD | Flags::MARK));
        f |= Flags::MARK;
        assert!(f.contains(Flags::DEAD | Flags::MARK));
        f = f & !Flags::DEAD;
        assert!(!f.contains(Flags::DEAD));
        assert!(f.contains(Flags::MARK));
    }

    #[test]
    fn per_gc_mask_covers_mark_and_owned() {
        assert!(Flags::PER_GC.contains(Flags::MARK));
        assert!(Flags::PER_GC.contains(Flags::OWNED));
        assert!(!Flags::PER_GC.intersects(Flags::DEAD));
        assert!(!Flags::PER_GC.intersects(Flags::UNSHARED));
        assert!(!Flags::PER_GC.intersects(Flags::OWNEE));
    }

    #[test]
    fn bits_are_distinct() {
        let all = [
            Flags::MARK,
            Flags::DEAD,
            Flags::UNSHARED,
            Flags::OWNEE,
            Flags::OWNED,
            Flags::REPORTED,
            Flags::OWNER,
            Flags::OLD,
            Flags::REMEMBERED,
        ];
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                if i != j {
                    assert!(!a.intersects(*b), "{a:?} overlaps {b:?}");
                }
            }
        }
    }

    #[test]
    fn debug_lists_set_bits() {
        let f = Flags::MARK | Flags::OWNEE;
        let s = format!("{f:?}");
        assert!(s.contains("MARK"));
        assert!(s.contains("OWNEE"));
        assert!(!s.contains("DEAD"));
        assert_eq!(format!("{:?}", Flags::empty()), "Flags(empty)");
    }
}
