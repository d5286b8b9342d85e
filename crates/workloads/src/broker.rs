//! Message-broker scenario: topic queues of single-owner messages with
//! `assert-unshared`, `assert-ownedby`, and `assert-dead` riding along.
//!
//! The broker keeps one heap [`HArrayList`] FIFO per topic. Producing
//! allocates a `Message` (with a `MsgBody` payload) and enqueues it;
//! consuming pops the head, reads it, and acknowledges. Three paper
//! idioms run as always-on monitors:
//!
//! * **`assert-unshared`** (§2.5.1) on every enqueued message — a broker
//!   message has exactly one owner (its queue slot), so a second
//!   incoming pointer (an at-least-twice-delivery bug, a rogue index)
//!   fires `Shared`.
//! * **`assert-ownedby(queue, message)`** (§2.5.2) on a sample of
//!   messages — while buffered, every path to a message must pass
//!   through its topic's queue.
//! * **`assert-dead`** (§2.2) on acknowledgement — an acked message must
//!   be garbage by the next collection.
//!
//! `setup` pre-fills each topic to half its bound and `request` keeps
//! the backlog oscillating between the low-water mark and the bound, so
//! the census sees a bounded steady state.

use gc_assertions::{ClassId, Vm, VmError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::runner::Workload;
use crate::scenario::Scenario;
use crate::structures::HArrayList;

const MSG_BODY: usize = 0;

/// Tuning knobs for [`MessageBroker`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct BrokerParams {
    /// Number of topics (one FIFO queue each).
    pub topics: usize,
    /// Per-topic backlog bound: produce is forced below it, consume at it.
    pub depth_cap: usize,
    /// Low-water mark: consume is never chosen below this backlog.
    pub low_water: usize,
    /// Message body size in data words.
    pub body_words: usize,
    /// One in this many messages also carries `assert-ownedby`.
    pub own_every: u64,
    /// Requests per batch run (the [`Workload`] face).
    pub requests: usize,
}

impl Default for BrokerParams {
    fn default() -> BrokerParams {
        BrokerParams {
            topics: 4,
            depth_cap: 48,
            low_water: 12,
            body_words: 6,
            own_every: 8,
            requests: 600,
        }
    }
}

/// Heap handles created by `setup`.
#[derive(Debug, Clone)]
struct BrokerHeap {
    queues: Vec<HArrayList>,
    msg_class: ClassId,
    body_class: ClassId,
}

/// Message-broker scenario. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct MessageBroker {
    params: BrokerParams,
    seed: u64,
    rng: SmallRng,
    heap: Option<BrokerHeap>,
    seq: u64,
    produced: u64,
    consumed: u64,
}

impl MessageBroker {
    /// Creates the scenario with default parameters and the given seed.
    pub(crate) fn new(seed: u64) -> MessageBroker {
        MessageBroker::with_params(BrokerParams::default(), seed)
    }

    /// Creates the scenario with explicit parameters.
    pub(crate) fn with_params(params: BrokerParams, seed: u64) -> MessageBroker {
        MessageBroker {
            params,
            seed,
            rng: SmallRng::seed_from_u64(seed ^ 0xb80_4e8),
            heap: None,
            seq: 0,
            produced: 0,
            consumed: 0,
        }
    }

    /// Allocates one message and enqueues it on `topic`, registering the
    /// single-owner assertions once the message's only reference is its
    /// queue slot.
    fn produce(&mut self, vm: &mut Vm, topic: usize, assertions: bool) -> Result<(), VmError> {
        let h = self.heap.clone().expect("setup() before request()");
        let queue = h.queues[topic];
        let m = vm.main();
        let site = vm.alloc_site("Broker::produce");
        let prev_site = vm.set_alloc_site(site);
        vm.push_frame(m)?;
        let msg = vm.alloc_rooted(m, h.msg_class, 1, 2)?;
        vm.set_data_word(msg, 0, self.seq)?;
        vm.set_data_word(msg, 1, topic as u64)?;
        let body = vm.alloc(m, h.body_class, 0, self.params.body_words)?;
        vm.set_field(msg, MSG_BODY, body)?;
        for w in 0..self.params.body_words {
            vm.set_data_word(body, w, self.seq.wrapping_mul(w as u64 + 3))?;
        }
        // Drop the frame root *before* enqueueing: the queue slot must be
        // the message's only reference when assert-unshared is placed, or
        // a collection would see frame root + slot as two owners.
        vm.pop_frame(m)?;
        queue.push(vm, m, msg)?;
        vm.set_alloc_site(prev_site);
        if assertions {
            vm.assert_unshared(msg)?;
            if self.params.own_every > 0 && self.seq.is_multiple_of(self.params.own_every) {
                vm.assert_owned_by(queue.handle(), msg)?;
            }
        }
        self.seq += 1;
        self.produced += 1;
        Ok(())
    }

    /// Pops and acknowledges the head of `topic`'s queue.
    fn consume(&mut self, vm: &mut Vm, topic: usize, assertions: bool) -> Result<(), VmError> {
        let h = self.heap.clone().expect("setup() before request()");
        let queue = h.queues[topic];
        if queue.is_empty(vm)? {
            return Ok(());
        }
        let msg = queue.remove(vm, 0)?;
        // Handle the message: read header and body (no allocation, so no
        // collection can run while we hold this bare reference).
        let body = vm.field(msg, MSG_BODY)?;
        let mut sum = vm.data_word(msg, 0)?;
        for w in 0..self.params.body_words {
            sum = sum.wrapping_add(vm.data_word(body, w)?);
        }
        std::hint::black_box(sum);
        if assertions {
            // Acked: nothing may retain it (a live ownedby pair retires
            // with the object, §2.5.2).
            vm.assert_dead(msg)?;
        }
        self.consumed += 1;
        Ok(())
    }

    fn depth(&self, vm: &Vm, topic: usize) -> Result<usize, VmError> {
        self.heap.as_ref().expect("setup() before request()").queues[topic].len(vm)
    }
}

impl Scenario for MessageBroker {
    fn name(&self) -> &'static str {
        "broker"
    }

    fn heap_budget(&self) -> usize {
        16 * 1024
    }

    fn setup(&mut self, vm: &mut Vm, assertions: bool) -> Result<(), VmError> {
        let m = vm.main();
        let msg_class = vm.register_class("Message", &["body"]);
        let body_class = vm.register_class("MsgBody", &[]);
        let mut queues = Vec::with_capacity(self.params.topics);
        for _ in 0..self.params.topics {
            // +2 slack so a full queue never grows its storage mid-run.
            let q = HArrayList::new(vm, m, self.params.depth_cap + 2)?;
            vm.add_root(m, q.handle())?;
            queues.push(q);
        }
        self.heap = Some(BrokerHeap {
            queues,
            msg_class,
            body_class,
        });
        // Pre-fill to half depth: the census watches a bounded backlog
        // from its first window, not a fill ramp.
        for topic in 0..self.params.topics {
            for _ in 0..self.params.depth_cap / 2 {
                self.produce(vm, topic, assertions)?;
            }
        }
        Ok(())
    }

    fn request(&mut self, vm: &mut Vm, assertions: bool) -> Result<(), VmError> {
        let topic = self.rng.gen_range(0..self.params.topics);
        let depth = self.depth(vm, topic)?;
        let produce = if depth >= self.params.depth_cap {
            false
        } else if depth <= self.params.low_water {
            true
        } else {
            self.rng.gen_bool(0.5)
        };
        if produce {
            self.produce(vm, topic, assertions)
        } else {
            self.consume(vm, topic, assertions)
        }
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("produced", self.produced), ("consumed", self.consumed)]
    }
}

impl Workload for MessageBroker {
    fn name(&self) -> &str {
        "broker"
    }

    fn heap_budget(&self) -> usize {
        Scenario::heap_budget(self)
    }

    fn run(&self, vm: &mut Vm, assertions: bool) -> Result<(), VmError> {
        let mut fresh = MessageBroker::with_params(self.params, self.seed);
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

    fn stepped(seed: u64, steps: usize) -> (MessageBroker, Vm) {
        let mut s = MessageBroker::new(seed);
        let mut vm = Vm::new(
            VmConfig::builder()
                .heap_budget(Scenario::heap_budget(&s))
                .grow_on_oom(true)
                .build(),
        );
        s.setup(&mut vm, true).unwrap();
        for _ in 0..steps {
            s.request(&mut vm, true).unwrap();
        }
        (s, vm)
    }

    #[test]
    fn batch_run_is_clean_with_assertions() {
        let w = MessageBroker::new(23);
        let m = run_once(&w, ExpConfig::WithAssertions).unwrap();
        assert_eq!(m.violations, 0);
        assert!(m.collections > 0, "must feel GC pressure");
    }

    #[test]
    fn backlog_stays_within_bounds() {
        let (s, vm) = stepped(29, 400);
        assert!(s.produced > 0 && s.consumed > 0);
        for topic in 0..s.params.topics {
            let d = s.depth(&vm, topic).unwrap();
            assert!(d <= s.params.depth_cap, "topic {topic} over cap: {d}");
        }
    }

    #[test]
    fn double_delivery_fires_unshared() {
        // The bug assert-unshared exists to catch: one message ends up
        // referenced from two queue slots.
        let (s, mut vm) = stepped(31, 50);
        let h = s.heap.clone().unwrap();
        let m = vm.main();
        let msg = h.queues[0].get(&vm, 0).unwrap();
        h.queues[1].push(&mut vm, m, msg).unwrap(); // delivered twice
        vm.collect().unwrap();
        let log = vm.take_violation_log();
        assert!(
            log.iter()
                .any(|v| matches!(v.kind, ViolationKind::Shared { object, .. } if object == msg)),
            "double-delivered message must be reported: {log:?}"
        );
    }

    #[test]
    fn acked_message_retained_fires_dead() {
        let (mut s, mut vm) = stepped(37, 10);
        let h = s.heap.clone().unwrap();
        // A rogue retry buffer keeps a reference past the ack.
        let msg = h.queues[0].get(&vm, 0).unwrap();
        vm.add_global(msg).unwrap();
        // Drain topic 0 so the retained message gets acked.
        while !h.queues[0].is_empty(&vm).unwrap() {
            s.consume(&mut vm, 0, true).unwrap();
        }
        vm.collect().unwrap();
        let log = vm.take_violation_log();
        assert!(
            log.iter().any(
                |v| matches!(v.kind, ViolationKind::DeadReachable { object, .. } if object == msg)
            ),
            "retained acked message must be reported: {log:?}"
        );
    }
}
