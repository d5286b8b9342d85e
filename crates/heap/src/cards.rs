//! Card-marking dirty bitmap for generational write barriers.
//!
//! One card per BiBOP page: every reference-field store dirties the card
//! of the *source* object's page (an unconditional one-bit write — the
//! cheapest barrier there is). A generational minor collection then scans
//! the old objects resident on dirty pages instead of maintaining a
//! remembered-set side table, and clears the whole table afterwards.
//!
//! The card granule is deliberately the page (64 slots): coarse enough
//! that the barrier is a single OR, fine enough that a minor scans only
//! the pages actually written since the last collection.

/// Dirty-card bitmap, one bit per page of the heap's page table.
#[derive(Debug, Default, Clone)]
pub struct CardTable {
    words: Vec<u64>,
    pages: usize,
}

impl CardTable {
    /// Grows the table to cover `pages` pages (all new cards clean).
    pub(crate) fn ensure_pages(&mut self, pages: usize) {
        if pages > self.pages {
            self.pages = pages;
            self.words.resize(pages.div_ceil(64), 0);
        }
    }

    /// Number of pages the table covers.
    #[inline]
    pub(crate) fn page_span(&self) -> usize {
        self.pages
    }

    /// Marks page `pid` dirty.
    #[inline]
    pub(crate) fn dirty(&mut self, pid: u32) {
        let word = pid as usize / 64;
        if word < self.words.len() {
            self.words[word] |= 1 << (pid % 64);
        }
    }

    /// Number of dirty cards.
    pub fn dirty_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates dirty page ids in ascending order.
    pub(crate) fn dirty_pages(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(wi as u32 * 64 + b)
                }
            })
        })
    }

    /// Wipes every card clean (end of a collection).
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_and_clear_round_trip() {
        let mut cards = CardTable::default();
        cards.ensure_pages(130);
        assert_eq!(cards.page_span(), 130);
        assert_eq!(cards.dirty_count(), 0);
        cards.dirty(0);
        cards.dirty(65);
        cards.dirty(129);
        assert_eq!(cards.dirty_count(), 3);
        let dirty: Vec<u32> = cards.dirty_pages().collect();
        assert_eq!(dirty, vec![0, 65, 129], "ascending page order");
        cards.clear();
        assert_eq!(cards.dirty_count(), 0);
        assert_eq!(cards.dirty_pages().count(), 0);
    }

    #[test]
    fn ensure_is_monotonic_and_preserves_dirt() {
        let mut cards = CardTable::default();
        cards.ensure_pages(2);
        cards.dirty(1);
        cards.ensure_pages(1); // shrinking request is a no-op
        assert_eq!(cards.page_span(), 2);
        cards.ensure_pages(200);
        let dirty: Vec<u32> = cards.dirty_pages().collect();
        assert_eq!(dirty, vec![1], "growth keeps existing dirt");
    }

    #[test]
    fn out_of_range_queries_are_clean() {
        let mut cards = CardTable::default();
        cards.dirty(7); // beyond the covered pages: ignored
        assert_eq!(cards.dirty_pages().count(), 0);
    }
}
