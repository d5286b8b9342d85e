//! Work-stealing deques for the parallel mark phase.
//!
//! Each tracer worker owns one [`StealDeque`]: the owner pushes and pops
//! at the back (LIFO, for cache-friendly depth-first traversal of the
//! object graph), thieves take a batch from the front (FIFO, so a thief
//! steals the *oldest* — typically largest — pending subtrees and stays
//! out of the owner's hot end).
//!
//! The implementation is a mutex-guarded ring buffer rather than a lock-
//! free Chase–Lev deque: the collector crate forbids `unsafe`, and the
//! workers batch pushes/steals so the lock is taken once per *batch*, not
//! per object — contention stays negligible next to the per-object mark
//! RMW traffic.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A shared double-ended work queue (see module docs).
#[derive(Debug, Default)]
pub(crate) struct StealDeque<T> {
    items: Mutex<VecDeque<T>>,
    /// Length mirror so idle thieves can poll emptiness without taking
    /// the lock.
    len_hint: AtomicUsize,
}

impl<T> StealDeque<T> {
    /// Creates an empty deque.
    pub fn new() -> StealDeque<T> {
        StealDeque {
            items: Mutex::new(VecDeque::new()),
            len_hint: AtomicUsize::new(0),
        }
    }

    /// Approximate number of queued items (exact between operations).
    #[inline]
    pub fn len_hint(&self) -> usize {
        self.len_hint.load(Ordering::SeqCst)
    }

    /// Pushes a batch at the back (owner side).
    pub fn push_batch(&self, batch: impl IntoIterator<Item = T>) {
        let mut q = self.items.lock().expect("deque poisoned");
        q.extend(batch);
        self.len_hint.store(q.len(), Ordering::SeqCst);
    }

    /// Pops one item from the back (owner side).
    pub fn pop_back(&self) -> Option<T> {
        let mut q = self.items.lock().expect("deque poisoned");
        let item = q.pop_back();
        self.len_hint.store(q.len(), Ordering::SeqCst);
        item
    }

    /// Steals roughly half of the queue from the front into `into`
    /// (thief side), returning how many items were taken.
    pub fn steal_half_into(&self, into: &mut Vec<T>) -> usize {
        let mut q = self.items.lock().expect("deque poisoned");
        let take = q.len().div_ceil(2).min(q.len());
        for _ in 0..take {
            match q.pop_front() {
                Some(item) => into.push(item),
                None => break,
            }
        }
        self.len_hint.store(q.len(), Ordering::SeqCst);
        take
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_lifo_thief_fifo() {
        let d = StealDeque::new();
        d.push_batch([1, 2, 3, 4]);
        assert_eq!(d.len_hint(), 4);
        assert_eq!(d.pop_back(), Some(4), "owner pops newest");
        let mut stolen = Vec::new();
        let n = d.steal_half_into(&mut stolen);
        assert_eq!(n, 2);
        assert_eq!(stolen, vec![1, 2], "thief takes oldest half");
        assert_eq!(d.pop_back(), Some(3));
        assert_eq!(d.pop_back(), None);
        assert_eq!(d.len_hint(), 0);
    }

    #[test]
    fn steal_from_empty_is_zero() {
        let d: StealDeque<u32> = StealDeque::new();
        let mut v = Vec::new();
        assert_eq!(d.steal_half_into(&mut v), 0);
        assert!(v.is_empty());
    }

    #[test]
    fn steal_half_of_one_takes_it() {
        let d = StealDeque::new();
        d.push_batch([7]);
        let mut v = Vec::new();
        assert_eq!(d.steal_half_into(&mut v), 1);
        assert_eq!(v, vec![7]);
    }

    #[test]
    fn concurrent_producers_and_thieves_conserve_items() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let d = StealDeque::new();
        let consumed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let d = &d;
                let consumed = &consumed;
                s.spawn(move || {
                    d.push_batch((0..1000).map(|i| t * 1000 + i));
                    let mut local: Vec<i32> = Vec::new();
                    loop {
                        if d.pop_back().is_some() {
                            consumed.fetch_add(1, Ordering::SeqCst);
                        } else if d.steal_half_into(&mut local) > 0 {
                            consumed.fetch_add(local.len() as u64, Ordering::SeqCst);
                            local.clear();
                        } else {
                            break;
                        }
                    }
                });
            }
        });
        // Threads race, so some items may be left when a thread exits
        // early; drain the remainder and check conservation.
        let mut rest = Vec::new();
        while d.steal_half_into(&mut rest) > 0 {}
        assert_eq!(consumed.load(Ordering::SeqCst) + rest.len() as u64, 4000);
    }
}
