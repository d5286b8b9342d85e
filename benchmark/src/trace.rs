//! In-memory tracing at the boundary between the benchmark and the layers
//! it calls: spans for workload → rep → phase → collection, and
//! `(count, busy, max)` accumulators for the calls that are too frequent
//! to get a span each.
//!
//! Nothing inside `crates/` is instrumented. A collection that happens
//! inside a public call (an `alloc` that ran out of budget) is turned into
//! child spans from the statistics that call left behind.

use std::time::Instant;

use crate::json::Value;

/// The layer (crate) a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The harness itself.
    Bench,
    /// `gca-workloads` and the benchmark's own mutator code.
    Workloads,
    /// `gca-heap`.
    Heap,
    /// `gca-collector`.
    Collector,
    /// `gc-assertions` (crates/core).
    Core,
    /// `gca-telemetry`.
    Telemetry,
    /// `gca-script`.
    Script,
    /// `gca-soak`.
    Soak,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 8] = [
        Layer::Bench,
        Layer::Workloads,
        Layer::Heap,
        Layer::Collector,
        Layer::Core,
        Layer::Telemetry,
        Layer::Script,
        Layer::Soak,
    ];

    /// The crate/module name used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Workloads => "workloads",
            Layer::Heap => "heap",
            Layer::Collector => "collector",
            Layer::Core => "core",
            Layer::Telemetry => "telemetry",
            Layer::Script => "script",
            Layer::Soak => "soak",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Fixed span name.
    pub name: &'static str,
    /// Layer charged with the span's self time.
    pub layer: Layer,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The rep this span belongs to (spans of one rep share it).
    pub rep: u32,
    /// Busy time of accumulated calls made directly inside this span; it is
    /// charged to the calls' own layers, not to this span.
    pub calls_ns: u64,
    /// The span ran beside the steps that block the result (the faster of
    /// two parallel shards); kept in the file, left out of layer sums.
    pub off_path: bool,
}

/// The frequent calls that are accumulated instead of recorded one by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Vm::alloc` of at most 8 words.
    AllocSmall,
    /// `Vm::alloc` of 9 to 256 words.
    AllocMid,
    /// `Vm::alloc` into the large-object space.
    AllocLarge,
    /// `Vm::set_field`.
    SetField,
    /// Root and frame bookkeeping (`add_root`, `set_root`, frames).
    Roots,
    /// `assert_*`, `release_ownee`, region calls.
    AssertRegister,
}

impl Call {
    /// Every call kind, in reporting order.
    pub const ALL: [Call; 6] = [
        Call::AllocSmall,
        Call::AllocMid,
        Call::AllocLarge,
        Call::SetField,
        Call::Roots,
        Call::AssertRegister,
    ];

    /// Name in the trace file.
    pub fn label(self) -> &'static str {
        match self {
            Call::AllocSmall => "vm.alloc.small",
            Call::AllocMid => "vm.alloc.mid",
            Call::AllocLarge => "vm.alloc.large",
            Call::SetField => "vm.set_field",
            Call::Roots => "vm.roots",
            Call::AssertRegister => "vm.assert",
        }
    }

    /// The layer that does the call's work.
    pub fn layer(self) -> Layer {
        match self {
            Call::AllocSmall | Call::AllocMid | Call::AllocLarge | Call::SetField => Layer::Heap,
            Call::Roots | Call::AssertRegister => Layer::Core,
        }
    }
}

/// Accumulated cost of one call kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStat {
    /// Calls made.
    pub count: u64,
    /// Total time inside them, ns (collections they triggered excluded).
    pub busy_ns: u64,
    /// Longest single call, ns.
    pub max_ns: u64,
}

impl CallStat {
    /// Mean ns per call; 0 with no calls.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.count as f64
        }
    }
}

/// The recorder. A disabled trace costs one predictable branch per call.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
    calls: [CallStat; Call::ALL.len()],
}

impl Trace {
    /// A recording trace.
    pub fn enabled() -> Trace {
        Trace {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
            calls: [CallStat::default(); Call::ALL.len()],
        }
    }

    /// A trace that records nothing.
    pub fn disabled() -> Trace {
        Trace {
            on: false,
            ..Trace::enabled()
        }
    }

    /// Whether spans and call timings are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Ns since the trace began.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next rep: spans recorded from here share its id.
    pub fn next_rep(&mut self) {
        self.rep += 1;
    }

    /// Opens a span under the innermost open one and returns its index
    /// (0 when the trace is disabled).
    pub fn enter(&mut self, name: &'static str, layer: Layer) -> usize {
        if !self.on {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            rep: self.rep,
            calls_ns: 0,
            off_path: false,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let id = self.stack.pop().expect("exit without enter");
        self.spans[id].end_ns = now;
    }

    /// Records a finished interval as a child of the innermost open span —
    /// how collections reported by statistics become spans. Returns its
    /// index so children can be hung below it with [`Trace::leaf_under`].
    pub fn leaf(&mut self, name: &'static str, layer: Layer, start_ns: u64, end_ns: u64) -> usize {
        let parent = self.stack.last().copied();
        self.push_leaf(name, layer, start_ns, end_ns, parent)
    }

    /// Records a finished interval as a child of span `parent`.
    pub fn leaf_under(
        &mut self,
        parent: usize,
        name: &'static str,
        layer: Layer,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.push_leaf(name, layer, start_ns, end_ns, Some(parent))
    }

    fn push_leaf(
        &mut self,
        name: &'static str,
        layer: Layer,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            rep: self.rep,
            calls_ns: 0,
            off_path: false,
        });
        self.spans.len() - 1
    }

    /// Marks span `id` (and so its subtree) as beside the blocking path.
    pub fn mark_off_path(&mut self, id: usize) {
        self.spans[id].off_path = true;
    }

    /// Adds one call of `kind` that took `ns`, made inside the innermost
    /// open span.
    pub fn call(&mut self, kind: Call, ns: u64) {
        let stat = &mut self.calls[kind as usize];
        stat.count += 1;
        stat.busy_ns += ns;
        stat.max_ns = stat.max_ns.max(ns);
        if let Some(&top) = self.stack.last() {
            self.spans[top].calls_ns += ns;
        }
    }

    /// Accumulated cost of `kind`.
    pub fn call_stat(&self, kind: Call) -> CallStat {
        self.calls[kind as usize]
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer over the spans named `root` and everything below
    /// them, in seconds, plus the summed duration of those roots. Every
    /// accumulated call is charged to its own layer (calls are only made
    /// inside such roots); subtrees marked off-path are skipped.
    pub fn layer_self_seconds(&self, root: &'static str) -> ([f64; Layer::ALL.len()], f64) {
        let selfs = self_times(&self.spans);
        let mut in_tree = vec![false; self.spans.len()];
        let mut per_layer = [0.0; Layer::ALL.len()];
        let mut root_total = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            let under = s.parent.is_some_and(|p| in_tree[p]);
            if s.off_path || !(under || s.name == root) {
                continue;
            }
            in_tree[i] = true;
            if !under {
                root_total += (s.end_ns - s.start_ns) as f64 / 1e9;
            }
            per_layer[s.layer as usize] += selfs[i] as f64 / 1e9;
        }
        for kind in Call::ALL {
            per_layer[kind.layer() as usize] += self.calls[kind as usize].busy_ns as f64 / 1e9;
        }
        (per_layer, root_total)
    }

    /// The trace file: every span and every call accumulator.
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj()
                    .with("name", s.name.into())
                    .with("layer", s.layer.label().into())
                    .with("start_ns", s.start_ns.into())
                    .with("end_ns", s.end_ns.into())
                    .with(
                        "parent",
                        s.parent.map_or(Value::Null, |p| (p as u64).into()),
                    )
                    .with("rep", u64::from(s.rep).into())
            })
            .collect();
        let calls = Call::ALL
            .iter()
            .map(|&k| {
                let c = self.call_stat(k);
                Value::obj()
                    .with("name", k.label().into())
                    .with("layer", k.layer().label().into())
                    .with("count", c.count.into())
                    .with("busy_ns", c.busy_ns.into())
                    .with("max_ns", c.max_ns.into())
            })
            .collect();
        Value::obj()
            .with("spans", Value::Arr(spans))
            .with("calls", Value::Arr(calls))
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are counted once) and
/// minus the accumulated calls made directly inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns)
                .saturating_sub(covered)
                .saturating_sub(s.calls_ns)
        })
        .collect()
}
