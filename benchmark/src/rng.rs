//! The benchmark's own seeded generator (SplitMix64): inputs depend only on
//! `--seed`, never on the vendored `rand` stand-in the program under test uses.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so each workload and
    /// each input family draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(1, 1);
        for n in [1usize, 2, 7, 1000] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
        for _ in 0..200 {
            let v = r.between(3, 5);
            assert!((3..=5).contains(&v));
        }
    }
}
