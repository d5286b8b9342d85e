//! `live_mark` and `live_copying`: a large retained graph that is traced
//! again and again while almost nothing dies.
//!
//! Every node hangs off a rooted backbone (root → spines → blocks → nodes),
//! so the seeded extra edges can be rewritten freely between collections
//! without anything becoming unreachable: mark (or evacuation) does nearly
//! all the collector's work and sweep finds nothing to free. The two
//! workloads share one generated graph and one op stream and differ only in
//! the collector they run under.

use gc_assertions::{ClassId, CollectorKind, ObjRef, VmConfig, VmError};

use super::{config, Driver, Leg, Prepared, Rep, Scale, FANOUT};
use crate::rng::Rng;
use crate::trace::{Layer, Trace};

/// What the graph is built into: a `Vm` behind a [`Driver`] for the
/// workloads, a bare `Heap` for the probe that times mark below the `Vm`.
pub trait GraphSink {
    /// Registers a class without named fields.
    fn class(&mut self, name: &str) -> ClassId;
    /// Allocates an unrooted object.
    fn alloc(&mut self, class: ClassId, nrefs: usize, data: usize) -> Result<ObjRef, VmError>;
    /// Stores a reference.
    fn set_field(&mut self, obj: ObjRef, field: usize, value: ObjRef) -> Result<(), VmError>;
    /// Roots an object for good.
    fn root(&mut self, r: ObjRef) -> Result<(), VmError>;
}

impl GraphSink for Driver<'_> {
    fn class(&mut self, name: &str) -> ClassId {
        Driver::class(self, name, &[])
    }
    fn alloc(&mut self, class: ClassId, nrefs: usize, data: usize) -> Result<ObjRef, VmError> {
        Driver::alloc(self, class, nrefs, data)
    }
    fn set_field(&mut self, obj: ObjRef, field: usize, value: ObjRef) -> Result<(), VmError> {
        Driver::set_field(self, obj, field, value)
    }
    fn root(&mut self, r: ObjRef) -> Result<(), VmError> {
        self.add_root(r).map(drop)
    }
}

/// One node of the generated graph.
#[derive(Debug, Clone, Copy)]
struct NodeSpec {
    /// Reference fields (1, 3 or 8).
    nrefs: u8,
    /// Data words (0 to 4).
    data: u8,
}

/// `nodes[src].field = nodes[dst]`, or null when `dst` is `u32::MAX`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    src: u32,
    field: u8,
    dst: u32,
}

/// The generated inputs: the graph and the rewrites of each round.
#[derive(Debug)]
pub struct LiveGraph {
    copying: bool,
    nodes: Vec<NodeSpec>,
    edges: Vec<Edge>,
    rounds: Vec<Vec<Edge>>,
}

/// Objects in the retained graph at full scale.
pub const FULL_NODES: usize = 100_000;
/// Forced full collections per rep at full scale.
const FULL_ROUNDS: usize = 20;

fn random_edge(rng: &mut Rng, nodes: &[NodeSpec]) -> Edge {
    let src = rng.below(nodes.len());
    Edge {
        src: src as u32,
        field: rng.below(nodes[src].nrefs as usize) as u8,
        // One store in five clears the field.
        dst: if rng.chance(1, 5) {
            u32::MAX
        } else {
            rng.below(nodes.len()) as u32
        },
    }
}

fn generate(seed: u64, scale: Scale, copying: bool) -> LiveGraph {
    let mut rng = Rng::new(seed, 0x11fe);
    let n = scale.of(FULL_NODES, 20_000);
    // Mixed fan-out: 60% one field, 30% three, 10% eight.
    let nodes: Vec<NodeSpec> = (0..n)
        .map(|_| NodeSpec {
            nrefs: match rng.below(10) {
                0..=5 => 1,
                6..=8 => 3,
                _ => 8,
            },
            data: rng.below(5) as u8,
        })
        .collect();
    let mut edges = Vec::new();
    // A few deep chains through field 0, each a sixtieth of the graph long.
    let chain_len = n / 60;
    for _ in 0..4 {
        let start = rng.below(n - chain_len);
        for i in start..start + chain_len - 1 {
            edges.push(Edge {
                src: i as u32,
                field: 0,
                dst: (i + 1) as u32,
            });
        }
    }
    // Then every field gets a random target with probability 4/5.
    for (i, spec) in nodes.iter().enumerate() {
        for f in 0..spec.nrefs {
            if rng.chance(4, 5) {
                edges.push(Edge {
                    src: i as u32,
                    field: f,
                    dst: rng.below(n) as u32,
                });
            }
        }
    }
    // About 1% of the edges are rewritten between two collections.
    let per_round = (edges.len() / 100).max(10);
    let rounds = (0..scale.of(FULL_ROUNDS, 2))
        .map(|_| {
            (0..per_round)
                .map(|_| random_edge(&mut rng, &nodes))
                .collect()
        })
        .collect();
    LiveGraph {
        copying,
        nodes,
        edges,
        rounds,
    }
}

/// The graph alone, for the probe that marks it below the `Vm`.
pub fn generate_graph(seed: u64, scale: Scale) -> LiveGraph {
    generate(seed, scale, false)
}

/// `live_mark`: sequential mark-sweep.
pub fn prepare_mark(seed: u64, scale: Scale) -> Box<dyn Prepared> {
    Box::new(generate(seed, scale, false))
}

/// `live_copying`: the same graph and op stream under the Cheney collector.
pub fn prepare_copying(seed: u64, scale: Scale) -> Box<dyn Prepared> {
    Box::new(generate(seed, scale, true))
}

impl LiveGraph {
    /// Objects the graph holds once built: nodes, blocks, spines, the root.
    pub fn object_count(&self) -> u64 {
        let blocks = self.nodes.len().div_ceil(FANOUT);
        (self.nodes.len() + blocks + blocks.div_ceil(FANOUT) + 1) as u64
    }

    /// The checked configuration: a budget no allocation ever reaches, so
    /// every collection is one the op stream asks for.
    pub fn vm_config(&self) -> VmConfig {
        let budget = self.nodes.len() * 64 + (1 << 20);
        if self.copying {
            config(budget).collector(CollectorKind::Copying)
        } else {
            config(budget)
        }
    }

    fn store<S: GraphSink>(d: &mut S, handles: &[ObjRef], e: Edge) -> Result<(), VmError> {
        let dst = if e.dst == u32::MAX {
            ObjRef::NULL
        } else {
            handles[e.dst as usize]
        };
        d.set_field(handles[e.src as usize], e.field as usize, dst)
    }

    /// Materializes the graph in `d`; returns the node handles.
    pub fn build<S: GraphSink>(&self, d: &mut S) -> Result<Vec<ObjRef>, VmError> {
        let backbone = d.class("Backbone");
        let node = d.class("Node");
        let blocks = self.nodes.len().div_ceil(FANOUT);
        let root = d.alloc(backbone, blocks.div_ceil(FANOUT), 0)?;
        d.root(root)?;
        let mut handles = Vec::with_capacity(self.nodes.len());
        let (mut spine, mut block) = (ObjRef::NULL, ObjRef::NULL);
        for (i, spec) in self.nodes.iter().enumerate() {
            if i % (FANOUT * FANOUT) == 0 {
                spine = d.alloc(backbone, FANOUT, 0)?;
                d.set_field(root, i / (FANOUT * FANOUT), spine)?;
            }
            if i % FANOUT == 0 {
                block = d.alloc(backbone, FANOUT, 0)?;
                d.set_field(spine, (i / FANOUT) % FANOUT, block)?;
            }
            let h = d.alloc(node, spec.nrefs as usize, spec.data as usize)?;
            d.set_field(block, i % FANOUT, h)?;
            handles.push(h);
        }
        for &e in &self.edges {
            Self::store(d, &handles, e)?;
        }
        Ok(handles)
    }

    fn body(&self, d: &mut Driver<'_>, rep: &mut Rep) -> Result<(), VmError> {
        d.trace().enter("build", Layer::Workloads);
        let handles = self.build(d)?;
        d.trace().exit();
        d.segment();
        let expect = self.object_count();
        for round in &self.rounds {
            d.trace().enter("rewrite", Layer::Workloads);
            for &e in round {
                Self::store(d, &handles, e)?;
            }
            d.trace().exit();
            let report = d.collect()?;
            d.segment();
            rep.checks.check(report.cycle.objects_marked == expect, || {
                format!(
                    "live graph: marked {} of {expect} retained objects",
                    report.cycle.objects_marked
                )
            });
            rep.checks
                .check(report.cycle.objects_swept == 0 && report.is_clean(), || {
                    format!(
                        "live graph: {} swept, {} violations; expected none",
                        report.cycle.objects_swept,
                        report.violations.len()
                    )
                });
        }
        Ok(())
    }
}

impl Prepared for LiveGraph {
    fn rep(&self, leg: Leg, tr: &mut Trace) -> Rep {
        let mut rep = Rep::default();
        // Segments are closed by hand: the build, then each round.
        let mut d = Driver::new(leg.apply(self.vm_config()), 0, tr);
        d.run_timed(&mut rep, |d, rep| self.body(d, rep));
        if d.vm.config().telemetry {
            // The parallel leg's worker profile rides on telemetry records.
            let t = d.vm.telemetry();
            let busy: Vec<f64> = t.worker_mark_ns().iter().map(|&ns| ns as f64).collect();
            if busy.len() > 1 {
                let mean = busy.iter().sum::<f64>() / busy.len() as f64;
                let max = busy.iter().copied().fold(0.0, f64::max);
                rep.observe("worker_skew", if mean > 0.0 { max / mean } else { 0.0 });
            }
        }
        d.finish(&mut rep);
        rep
    }
}
