//! Social-graph scenario: friend-of-friend traversals with
//! region-bracketed per-request temporaries.
//!
//! `setup` builds a fixed population of `User` objects (each with an
//! `EdgeArray` of friends and a `Profile` payload) held in a rooted
//! [`HArrayList`] — the long-lived graph. Each request runs a bounded
//! breadth-first friend-of-friend traversal from a random user,
//! allocating short-lived `ScoreCard` objects while it ranks candidates;
//! occasionally it rewires an edge (pure pointer surgery, no
//! allocation). The paper's region idiom (§2.3.2) brackets the
//! traversal: `start-region` … allocate … `assert-alldead`, so a
//! scorecard accidentally captured by anything long-lived becomes a
//! `DeadReachable` violation at the next collection.

use gc_assertions::{ClassId, Vm, VmError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::runner::Workload;
use crate::scenario::Scenario;
use crate::structures::HArrayList;

const USER_EDGES: usize = 0;
const USER_PROFILE: usize = 1;
const CARD_PROFILE: usize = 0;

/// Tuning knobs for [`SocialGraph`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SocialGraphParams {
    /// Number of users in the graph.
    pub users: usize,
    /// Friends per user (edge-array fan-out).
    pub friends: usize,
    /// Profile payload size in data words.
    pub profile_words: usize,
    /// Maximum users visited (and scorecards allocated) per traversal.
    pub visit_cap: usize,
    /// One in this many requests rewires an edge instead of traversing.
    pub rewire_every: usize,
    /// Requests per batch run (the [`Workload`] face).
    pub requests: usize,
}

impl Default for SocialGraphParams {
    fn default() -> SocialGraphParams {
        SocialGraphParams {
            users: 160,
            friends: 8,
            profile_words: 6,
            visit_cap: 24,
            rewire_every: 16,
            requests: 600,
        }
    }
}

/// Heap handles created by `setup`.
#[derive(Debug, Clone, Copy)]
struct GraphHeap {
    users: HArrayList,
    card_class: ClassId,
}

/// Friend-of-friend traversal scenario. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct SocialGraph {
    params: SocialGraphParams,
    seed: u64,
    rng: SmallRng,
    heap: Option<GraphHeap>,
    traversals: u64,
    rewires: u64,
    cards_scored: u64,
}

impl SocialGraph {
    /// Creates the scenario with default parameters and the given seed.
    pub(crate) fn new(seed: u64) -> SocialGraph {
        SocialGraph::with_params(SocialGraphParams::default(), seed)
    }

    /// Creates the scenario with explicit parameters.
    pub(crate) fn with_params(params: SocialGraphParams, seed: u64) -> SocialGraph {
        SocialGraph {
            params,
            seed,
            rng: SmallRng::seed_from_u64(seed ^ 0x50c1_a19a),
            heap: None,
            traversals: 0,
            rewires: 0,
            cards_scored: 0,
        }
    }

    fn random_other(&mut self, me: usize) -> usize {
        loop {
            let other = self.rng.gen_range(0..self.params.users);
            if other != me || self.params.users == 1 {
                return other;
            }
        }
    }

    /// One friend-of-friend ranking pass, region-bracketed when
    /// assertions are on.
    fn traverse(&mut self, vm: &mut Vm, start: usize, assertions: bool) -> Result<(), VmError> {
        let h = self.heap.expect("setup() before request()");
        let m = vm.main();
        if assertions {
            vm.start_region(m)?;
        }
        vm.push_frame(m)?;
        let site = vm.alloc_site("SocialGraph::score");
        let prev_site = vm.set_alloc_site(site);
        let me = h.users.get(vm, start)?;
        let edges = vm.field(me, USER_EDGES)?;
        let mut best = 0u64;
        let mut visited = 0usize;
        'outer: for f in 0..self.params.friends {
            let friend = vm.field(edges, f)?;
            let friend_edges = vm.field(friend, USER_EDGES)?;
            for ff in 0..self.params.friends {
                if visited >= self.params.visit_cap {
                    break 'outer;
                }
                let candidate = vm.field(friend_edges, ff)?;
                if candidate == me {
                    continue;
                }
                // Rank the candidate on a short-lived scorecard.
                let card = vm.alloc_rooted(m, h.card_class, 1, 2)?;
                let profile = vm.field(candidate, USER_PROFILE)?;
                vm.set_field(card, CARD_PROFILE, profile)?;
                let affinity = vm.data_word(profile, 0)?.wrapping_add(f as u64 ^ ff as u64);
                vm.set_data_word(card, 0, affinity)?;
                vm.set_data_word(card, 1, visited as u64)?;
                best = best.max(affinity);
                visited += 1;
                self.cards_scored += 1;
            }
        }
        std::hint::black_box(best);
        vm.set_alloc_site(prev_site);
        // Bracket order as in scripts/region_server.gca: end the frame
        // first, then assert the region's objects all-dead.
        vm.pop_frame(m)?;
        if assertions {
            vm.assert_alldead(m)?;
        }
        self.traversals += 1;
        Ok(())
    }

    fn rewire(&mut self, vm: &mut Vm) -> Result<(), VmError> {
        let h = self.heap.expect("setup() before request()");
        let who = self.rng.gen_range(0..self.params.users);
        let slot = self.rng.gen_range(0..self.params.friends);
        let target = self.random_other(who);
        let user = h.users.get(vm, who)?;
        let edges = vm.field(user, USER_EDGES)?;
        let new_friend = h.users.get(vm, target)?;
        vm.set_field(edges, slot, new_friend)?;
        self.rewires += 1;
        Ok(())
    }
}

impl Scenario for SocialGraph {
    fn name(&self) -> &'static str {
        "social-graph"
    }

    fn heap_budget(&self) -> usize {
        16 * 1024
    }

    fn setup(&mut self, vm: &mut Vm, _assertions: bool) -> Result<(), VmError> {
        let m = vm.main();
        let user_class = vm.register_class("User", &["edges", "profile"]);
        let edge_class = vm.register_class("EdgeArray", &[]);
        let profile_class = vm.register_class("Profile", &[]);
        let card_class = vm.register_class("ScoreCard", &["profile"]);
        let users = HArrayList::new(vm, m, self.params.users)?;
        vm.add_root(m, users.handle())?;
        // First pass: the population. Each user is reachable through the
        // list the moment it is pushed.
        for id in 0..self.params.users {
            let user = vm.alloc(m, user_class, 2, 1)?;
            vm.set_data_word(user, 0, id as u64)?;
            users.push(vm, m, user)?;
        }
        // Second pass: edges and profiles (users are list-rooted by now,
        // so the allocations here may collect freely).
        for id in 0..self.params.users {
            let user = users.get(vm, id)?;
            let edges = vm.alloc(m, edge_class, self.params.friends, 0)?;
            vm.set_field(user, USER_EDGES, edges)?;
            let profile = vm.alloc(m, profile_class, 0, self.params.profile_words)?;
            vm.set_field(user, USER_PROFILE, profile)?;
            for w in 0..self.params.profile_words {
                vm.set_data_word(profile, w, (id as u64) << 8 | w as u64)?;
            }
            for f in 0..self.params.friends {
                let target = self.random_other(id);
                let friend = users.get(vm, target)?;
                let edges = vm.field(user, USER_EDGES)?;
                vm.set_field(edges, f, friend)?;
            }
        }
        self.heap = Some(GraphHeap { users, card_class });
        Ok(())
    }

    fn request(&mut self, vm: &mut Vm, assertions: bool) -> Result<(), VmError> {
        if self.params.rewire_every > 0
            && (self.traversals + self.rewires + 1).is_multiple_of(self.params.rewire_every as u64)
        {
            self.rewire(vm)
        } else {
            let start = self.rng.gen_range(0..self.params.users);
            self.traverse(vm, start, assertions)
        }
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("traversals", self.traversals),
            ("rewires", self.rewires),
            ("cards_scored", self.cards_scored),
        ]
    }
}

impl Workload for SocialGraph {
    fn name(&self) -> &str {
        "social-graph"
    }

    fn heap_budget(&self) -> usize {
        Scenario::heap_budget(self)
    }

    fn run(&self, vm: &mut Vm, assertions: bool) -> Result<(), VmError> {
        let mut fresh = SocialGraph::with_params(self.params, self.seed);
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
        let w = SocialGraph::new(13);
        let m = run_once(&w, ExpConfig::WithAssertions).unwrap();
        assert_eq!(m.violations, 0);
        assert!(m.collections > 0, "must feel GC pressure");
    }

    #[test]
    fn requests_mix_traversals_and_rewires() {
        let mut s = SocialGraph::new(17);
        let mut vm = Vm::new(
            VmConfig::builder()
                .heap_budget(Scenario::heap_budget(&s))
                .grow_on_oom(true)
                .build(),
        );
        s.setup(&mut vm, true).unwrap();
        for _ in 0..200 {
            s.request(&mut vm, true).unwrap();
        }
        assert!(s.traversals > 0);
        assert!(s.rewires > 0);
        assert!(s.cards_scored > 0);
    }

    #[test]
    fn scorecard_captured_by_graph_violates_region() {
        // The bug the region bracket exists to catch: a traversal
        // temporary leaks into the long-lived graph.
        let mut s = SocialGraph::new(19);
        let mut vm = Vm::new(
            VmConfig::builder()
                .heap_budget(Scenario::heap_budget(&s))
                .grow_on_oom(true)
                .build(),
        );
        s.setup(&mut vm, true).unwrap();
        let h = s.heap.unwrap();
        let m = vm.main();
        // A region-bracketed "traversal" that stashes its card in a
        // user's profile slot.
        vm.start_region(m).unwrap();
        vm.push_frame(m).unwrap();
        let card = vm.alloc_rooted(m, h.card_class, 1, 2).unwrap();
        let user = h.users.get(&vm, 0).unwrap();
        vm.set_field(user, USER_PROFILE, card).unwrap(); // the leak
        vm.pop_frame(m).unwrap();
        vm.assert_alldead(m).unwrap();
        vm.collect().unwrap();
        let log = vm.take_violation_log();
        assert!(
            log.iter().any(
                |v| matches!(v.kind, ViolationKind::DeadReachable { object, .. } if object == card)
            ),
            "captured scorecard must be reported: {log:?}"
        );
    }
}
