//! Session-cache scenario: an LRU cache of login sessions with
//! `assert-dead` guarding every eviction.
//!
//! The cache is a heap [`HHashMap`] from session key to a `Session`
//! object (holding a `SessionData` payload); recency is tracked on the
//! Rust side with a deque of keys, the way a real server keeps an
//! intrusive LRU list beside its table. Requests follow a hot/cold key
//! skew: hits touch the payload, misses allocate a fresh session and —
//! once the cache is full — evict the least-recently-used entry. The
//! paper's `assert-dead` idiom rides on eviction: an evicted session must
//! be garbage by the next collection, so any stray reference (the swap
//! bug of §2.2, a listener left registered, a debug table) surfaces as a
//! `DeadReachable` violation with the retaining path.
//!
//! `setup` pre-fills the cache to capacity so the census sees the steady
//! state from the first collection — the drift detector watches a
//! plateau, not a startup ramp.

use std::collections::VecDeque;

use gc_assertions::{ClassId, Vm, VmError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::runner::Workload;
use crate::scenario::Scenario;
use crate::structures::HHashMap;

const SESSION_DATA: usize = 0;

/// Tuning knobs for [`SessionCache`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionCacheParams {
    /// Maximum number of cached sessions (LRU evicts past this).
    pub capacity: usize,
    /// Number of distinct session keys requests draw from.
    pub keyspace: u64,
    /// Payload size of each session's `SessionData`, in data words.
    pub payload_words: usize,
    /// Probability of a request hitting the hot eighth of the keyspace.
    pub hot_ratio: f64,
    /// Requests per batch run (the [`Workload`] face).
    pub requests: usize,
}

impl Default for SessionCacheParams {
    fn default() -> SessionCacheParams {
        SessionCacheParams {
            capacity: 192,
            keyspace: 2048,
            payload_words: 8,
            hot_ratio: 0.8,
            requests: 600,
        }
    }
}

/// Heap handles created by `setup`.
#[derive(Debug, Clone, Copy)]
struct CacheHeap {
    map: HHashMap,
    session_class: ClassId,
    data_class: ClassId,
}

/// LRU session-cache scenario. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct SessionCache {
    params: SessionCacheParams,
    seed: u64,
    rng: SmallRng,
    heap: Option<CacheHeap>,
    /// Keys in recency order, least recently used at the front.
    lru: VecDeque<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SessionCache {
    /// Creates the scenario with default parameters and the given seed.
    pub(crate) fn new(seed: u64) -> SessionCache {
        SessionCache::with_params(SessionCacheParams::default(), seed)
    }

    /// Creates the scenario with explicit parameters.
    pub(crate) fn with_params(params: SessionCacheParams, seed: u64) -> SessionCache {
        SessionCache {
            params,
            seed,
            rng: SmallRng::seed_from_u64(seed ^ 0x5e55_10c4),
            heap: None,
            lru: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn draw_key(&mut self) -> u64 {
        let hot_span = (self.params.keyspace / 8).max(1);
        if self.rng.gen_bool(self.params.hot_ratio) {
            self.rng.gen_range(0..hot_span)
        } else {
            self.rng
                .gen_range(hot_span..self.params.keyspace.max(hot_span + 1))
        }
    }

    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.lru.iter().position(|&k| k == key) {
            self.lru.remove(pos);
        }
        self.lru.push_back(key);
    }

    /// Allocates a fresh session for `key` and inserts it, evicting the
    /// LRU entry past capacity (asserting the evictee dead).
    fn fill(&mut self, vm: &mut Vm, key: u64, assertions: bool) -> Result<(), VmError> {
        let h = self.heap.expect("setup() before request()");
        let m = vm.main();
        let site = vm.alloc_site("SessionCache::miss");
        let prev_site = vm.set_alloc_site(site);
        vm.push_frame(m)?;
        let session = vm.alloc_rooted(m, h.session_class, 1, 2)?;
        vm.set_data_word(session, 0, key)?;
        let data = vm.alloc(m, h.data_class, 0, self.params.payload_words)?;
        vm.set_field(session, SESSION_DATA, data)?;
        for w in 0..self.params.payload_words {
            vm.set_data_word(data, w, key.wrapping_mul(w as u64 + 1))?;
        }
        // Insert while the session is still frame-rooted: put() may
        // allocate its entry (and so collect) mid-flight.
        h.map.put(vm, m, key, session)?;
        vm.pop_frame(m)?;
        vm.set_alloc_site(prev_site);
        self.touch(key);
        while self.lru.len() > self.params.capacity {
            let victim = self.lru.pop_front().expect("len checked");
            if let Some(evicted) = h.map.remove(vm, victim)? {
                self.evictions += 1;
                if assertions {
                    // The eviction contract: nothing else may retain it.
                    vm.assert_dead(evicted)?;
                }
            }
        }
        Ok(())
    }
}

impl Scenario for SessionCache {
    fn name(&self) -> &'static str {
        "session-cache"
    }

    fn heap_budget(&self) -> usize {
        16 * 1024
    }

    fn setup(&mut self, vm: &mut Vm, assertions: bool) -> Result<(), VmError> {
        let m = vm.main();
        let session_class = vm.register_class("Session", &["data"]);
        let data_class = vm.register_class("SessionData", &[]);
        let map = HHashMap::new(vm, m, self.params.capacity / 2 + 1)?;
        vm.add_root(m, map.handle())?;
        self.heap = Some(CacheHeap {
            map,
            session_class,
            data_class,
        });
        // Pre-fill to capacity: the census should see steady state, not
        // the startup ramp, from its very first window.
        for key in 0..self.params.capacity as u64 {
            self.fill(vm, key, assertions)?;
        }
        self.hits = 0;
        self.misses = 0;
        Ok(())
    }

    fn request(&mut self, vm: &mut Vm, assertions: bool) -> Result<(), VmError> {
        let h = self.heap.expect("setup() before request()");
        let key = self.draw_key();
        if let Some(session) = h.map.get(vm, key)? {
            self.hits += 1;
            // Read the payload, as a handler would.
            let data = vm.field(session, SESSION_DATA)?;
            let mut sum = 0u64;
            for w in 0..self.params.payload_words {
                sum = sum.wrapping_add(vm.data_word(data, w)?);
            }
            std::hint::black_box(sum);
            self.touch(key);
        } else {
            self.misses += 1;
            self.fill(vm, key, assertions)?;
        }
        Ok(())
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("hits", self.hits),
            ("misses", self.misses),
            ("evictions", self.evictions),
        ]
    }
}

impl Workload for SessionCache {
    fn name(&self) -> &str {
        "session-cache"
    }

    fn heap_budget(&self) -> usize {
        Scenario::heap_budget(self)
    }

    fn run(&self, vm: &mut Vm, assertions: bool) -> Result<(), VmError> {
        let mut fresh = SessionCache::with_params(self.params, self.seed);
        fresh.setup(vm, assertions)?;
        for _ in 0..self.params.requests {
            fresh.request(vm, assertions)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_once, ExpConfig};
    use gc_assertions::{ViolationKind, VmConfig};

    #[test]
    fn batch_run_is_clean_with_assertions() {
        let w = SessionCache::new(11);
        let m = run_once(&w, ExpConfig::WithAssertions).unwrap();
        assert_eq!(m.violations, 0);
        assert!(m.collections > 0, "must feel GC pressure");
    }

    #[test]
    fn skew_produces_both_hits_and_misses() {
        let mut s = SessionCache::new(3);
        let mut vm = Vm::new(
            VmConfig::builder()
                .heap_budget(Scenario::heap_budget(&s))
                .grow_on_oom(true)
                .build(),
        );
        s.setup(&mut vm, true).unwrap();
        for _ in 0..500 {
            s.request(&mut vm, true).unwrap();
        }
        assert!(s.hits > 0, "hot keys should hit");
        assert!(s.misses > 0, "cold keys should miss");
        assert!(s.evictions > 0, "full cache should evict");
        assert!(s.lru.len() <= s.params.capacity);
    }

    #[test]
    fn stray_reference_to_evictee_is_caught() {
        // The monitoring story: a rogue global retains an evicted
        // session; assert-dead names it with the retaining path.
        let mut s = SessionCache::new(5);
        let mut vm = Vm::new(
            VmConfig::builder()
                .heap_budget(Scenario::heap_budget(&s))
                .grow_on_oom(true)
                .build(),
        );
        s.setup(&mut vm, true).unwrap();
        // Leak the current LRU victim the way a forgotten registry would.
        let h = s.heap.unwrap();
        let victim_key = *s.lru.front().unwrap();
        let victim = h.map.get(&vm, victim_key).unwrap().unwrap();
        vm.add_global(victim).unwrap();
        // Force misses until the victim is evicted.
        while s.evictions == 0 {
            let key = s.params.keyspace + s.misses; // guaranteed-cold keys
            s.fill(&mut vm, key, true).unwrap();
        }
        vm.collect().unwrap();
        let log = vm.take_violation_log();
        assert!(
            log.iter()
                .any(|v| matches!(v.kind, ViolationKind::DeadReachable { object, .. } if object == victim)),
            "leaked evictee must be reported: {log:?}"
        );
    }
}
