//! `assert_heavy`: the assertion machinery itself. Three parts per rep:
//!
//! * `_209_db` scaled from outside to the paper's ~15k ownees checked at
//!   every collection (`assert-ownedby` per entry, `assert-dead` per
//!   removal);
//! * `PseudoJbb::for_figures()` — ~20k `assert-ownedby` plus one
//!   `assert-instances`;
//! * a request server of the benchmark's own: a session table whose ~15k
//!   sessions are each asserted owned by the table (and asserted dead when
//!   replaced), region brackets around every request, `assert-unshared` on
//!   every node of a tree, and a seeded number of planted faults (region
//!   objects that stay reachable, tree nodes that gain a second parent)
//!   whose violations must come back exactly as planted, at the next
//!   collection, with a path that follows real edges.
//!
//! `_209_db` spends most of its time in its own list scans whatever the
//! scale, so it is the server — where the benchmark controls the heap
//! budget — that makes the ownership phase a large share of the run.
//!
//! The ownership pre-phase, the sorted ownee tables and assertion
//! registration do most of the collector's work here; little is swept.

use std::time::Instant;

use gc_assertions::{ObjRef, Violation, ViolationKind, Vm, VmError};
use gca_workloads::db::Db209;
use gca_workloads::pseudojbb::PseudoJbb;

use super::suite_ms::run_program;
use super::{config, Driver, Leg, Prepared, Rep, Scale, FANOUT};
use crate::rng::Rng;
use crate::trace::{Layer, Trace};

/// Entries the database holds (and ownees each collection checks).
const FULL_ENTRIES: usize = 15_000;
/// Database operations after the load.
const FULL_DB_OPS: usize = 2_000;
/// Requests the server handles.
const FULL_REQUESTS: usize = 80_000;
/// Sessions in the server's table, each owned by the table.
const FULL_SESSIONS: usize = 15_000;
/// Server ops per timed segment.
const SEGMENT_OPS: u64 = 20_000;
/// Nodes in the server's unshared tree.
const FULL_TREE: usize = 4_000;
/// Slots in the server's stash (where leaked objects hide).
const STASH: usize = 64;

/// A fault planted at one request.
#[derive(Debug, Clone, Copy)]
enum Plant {
    /// Keep one of the request's region objects reachable from the stash.
    Leak { stash_slot: usize },
    /// Give tree node `child` a second parent through `parent.extra`.
    Share { parent: usize, child: usize },
}

/// The generated inputs.
#[derive(Debug)]
pub struct AssertHeavy {
    db: Db209,
    jbb: PseudoJbb,
    tree: usize,
    sessions: usize,
    /// Per request: objects allocated, and the session it replaces if any.
    requests: Vec<(u8, Option<u32>)>,
    /// `(request index, fault)`, ascending.
    plants: Vec<(usize, Plant)>,
}

/// Generates the inputs from the seed.
pub fn prepare(seed: u64, scale: Scale) -> Box<dyn Prepared> {
    let mut rng = Rng::new(seed, 0xa55e);
    let entries = scale.of(FULL_ENTRIES, 600);
    let db = Db209 {
        initial_entries: entries,
        operations: scale.of(FULL_DB_OPS, 600),
        // 26 words per entry plus the entry list, with room for the list to
        // double once without the budget having to grow.
        budget: entries * 30 + 16 * 1024,
        seed: Db209::default().seed ^ seed,
        ..Db209::default()
    };
    let mut jbb = PseudoJbb::for_figures();
    jbb.seed ^= seed;
    jbb.transactions = scale.of(jbb.transactions, 400);

    let tree = scale.of(FULL_TREE, 200);
    let sessions = scale.of(FULL_SESSIONS, 600);
    let requests: Vec<(u8, Option<u32>)> = (0..scale.of(FULL_REQUESTS, 300))
        .map(|_| {
            let objects = rng.between(4, 12) as u8;
            let replaces = rng.chance(1, 2).then(|| rng.below(sessions) as u32);
            (objects, replaces)
        })
        .collect();
    let mut plants = Vec::new();
    let leaks = rng.between(3, 8);
    let shares = rng.between(1, 3);
    // Distinct requests in the first three quarters of the run, so every
    // fault meets a collection before the rep ends.
    let mut taken = Vec::new();
    while taken.len() < leaks + shares {
        let at = rng.below(requests.len() * 3 / 4);
        if !taken.contains(&at) {
            taken.push(at);
        }
    }
    for (i, &at) in taken.iter().enumerate() {
        let plant = if i < leaks {
            Plant::Leak { stash_slot: i }
        } else {
            // A non-root node, and a parent that is not already its own.
            let child = rng.between(3, tree - 1);
            let mut parent = rng.below(tree);
            while parent == (child - 1) / 2 || parent == child {
                parent = rng.below(tree);
            }
            Plant::Share { parent, child }
        };
        plants.push((at, plant));
    }
    plants.sort_by_key(|&(at, _)| at);
    Box::new(AssertHeavy {
        db,
        jbb,
        tree,
        sessions,
        requests,
        plants,
    })
}

/// A planted fault awaiting its report.
#[derive(Debug)]
struct Pending {
    object: ObjRef,
    shared: bool,
    planted_at_cycle: u64,
    detected_after: Option<u64>,
}

impl AssertHeavy {
    /// The server: builds the tree, then serves the requests.
    fn serve(
        &self,
        d: &mut Driver<'_>,
        assertions: bool,
        misplant: bool,
    ) -> Result<Vec<Pending>, VmError> {
        d.trace().enter("server.build", Layer::Workloads);
        let server_class = d.class("Server", &["tree", "stash", "table"]);
        let table_class = d.class("SessionTable", &[]);
        let session_class = d.class("Session", &["user"]);
        let node_class = d.class("TreeNode", &["left", "right", "extra"]);
        let stash_class = d.class("Stash", &[]);
        let req_class = d.class("Request", &["next"]);
        let server = d.alloc(server_class, 3, 0)?;
        d.add_root(server)?;
        let stash = d.alloc(stash_class, STASH, 0)?;
        d.set_field(server, 1, stash)?;
        let mut nodes: Vec<ObjRef> = Vec::with_capacity(self.tree);
        for i in 0..self.tree {
            let n = d.alloc(node_class, 3, 1)?;
            if i == 0 {
                d.set_field(server, 0, n)?;
            } else {
                d.set_field(nodes[(i - 1) / 2], (i - 1) % 2, n)?;
            }
            if assertions {
                d.assert(|vm, _| vm.assert_unshared(n))?;
            }
            nodes.push(n);
        }
        // The session table: table -> blocks -> sessions, every session
        // owned by the table.
        let blocks = self.sessions.div_ceil(FANOUT);
        let table = d.alloc(table_class, blocks, 0)?;
        d.set_field(server, 2, table)?;
        let mut slots: Vec<(ObjRef, usize)> = Vec::with_capacity(self.sessions);
        let mut block = ObjRef::NULL;
        for i in 0..self.sessions {
            if i % FANOUT == 0 {
                block = d.alloc(table_class, FANOUT, 0)?;
                d.set_field(table, i / FANOUT, block)?;
            }
            let s = d.alloc(session_class, 1, 3)?;
            d.set_field(block, i % FANOUT, s)?;
            if assertions {
                d.assert(|vm, _| vm.assert_owned_by(table, s))?;
            }
            slots.push((block, i % FANOUT));
        }
        let mut sessions: Vec<ObjRef> = slots
            .iter()
            .map(|&(b, f)| d.vm.field(b, f))
            .collect::<Result<_, _>>()?;
        d.trace().exit();

        d.trace().enter("server.requests", Layer::Workloads);
        let mut pending: Vec<Pending> = Vec::new();
        let mut next_plant = 0;
        let mut seen_reports = 0;
        for (at, &(objects, replaces)) in self.requests.iter().enumerate() {
            d.push_frame()?;
            if assertions {
                d.assert(|vm, m| vm.start_region(m))?;
            }
            // A chain of request objects, each rooted only through the head.
            let head = d.alloc(req_class, 1, 3)?;
            d.add_root(head)?;
            let mut tail = head;
            for _ in 1..objects {
                let r = d.alloc(req_class, 1, 3)?;
                d.set_field(tail, 0, r)?;
                tail = r;
            }
            while assertions && self.plants.get(next_plant).is_some_and(|p| p.0 == at) {
                let cycle = d.vm.collections();
                match self.plants[next_plant].1 {
                    Plant::Leak { stash_slot } => {
                        d.set_field(stash, stash_slot, tail)?;
                        pending.push(Pending {
                            object: tail,
                            shared: false,
                            planted_at_cycle: cycle,
                            detected_after: None,
                        });
                    }
                    Plant::Share { parent, child } => {
                        d.set_field(nodes[parent], 2, nodes[child])?;
                        pending.push(Pending {
                            object: nodes[child],
                            shared: true,
                            planted_at_cycle: cycle,
                            detected_after: None,
                        });
                    }
                }
                next_plant += 1;
            }
            if misplant && at == self.requests.len() / 2 {
                // A fault nobody wrote down: the verdict check must notice.
                d.set_field(stash, STASH - 1, tail)?;
            }
            if assertions {
                d.assert(|vm, m| vm.assert_alldead(m))?;
            }
            d.pop_frame()?;
            if let Some(slot) = replaces {
                // Log one user out and another in: the new session is owned
                // by the table, the old one must now be dead.
                let (block, field) = slots[slot as usize];
                let old = sessions[slot as usize];
                let new = d.alloc(session_class, 1, 3)?;
                d.set_field(block, field, new)?;
                sessions[slot as usize] = new;
                if assertions {
                    d.assert(|vm, _| vm.assert_owned_by(table, new))?;
                    d.assert(|vm, _| vm.assert_dead(old))?;
                }
            }

            // Allocation may have collected; match new reports to plants.
            let log = d.vm.violation_log();
            if log.len() != seen_reports {
                let cycle = d.vm.collections();
                for v in &log[seen_reports..] {
                    if let Some(p) = pending
                        .iter_mut()
                        .find(|p| p.detected_after.is_none() && reports(v, p))
                    {
                        p.detected_after = Some(cycle - p.planted_at_cycle);
                    }
                }
                seen_reports = log.len();
            }
        }
        d.trace().exit();
        // A final collection gives the last requests their verdict.
        d.collect()?;
        let cycle = d.vm.collections();
        for v in &d.vm.violation_log()[seen_reports..] {
            if let Some(p) = pending
                .iter_mut()
                .find(|p| p.detected_after.is_none() && reports(v, p))
            {
                p.detected_after = Some(cycle - p.planted_at_cycle);
            }
        }
        Ok(pending)
    }
}

/// Whether violation `v` is the report planted fault `p` should produce.
fn reports(v: &Violation, p: &Pending) -> bool {
    match &v.kind {
        ViolationKind::DeadReachable { object, .. } => !p.shared && *object == p.object,
        ViolationKind::Shared { object, .. } => p.shared && *object == p.object,
        _ => false,
    }
}

/// Checks that every violation's path ends at the offending object and
/// follows edges that exist in the heap, and that its report rendered.
fn check_paths(rep: &mut Rep, vm: &Vm, rendered: &[String]) {
    for (v, text) in vm.violation_log().iter().zip(rendered) {
        let object = match &v.kind {
            ViolationKind::DeadReachable { object, .. } | ViolationKind::Shared { object, .. } => {
                *object
            }
            _ => ObjRef::NULL,
        };
        let follows_edges = v.path.steps().windows(2).all(|w| {
            w[1].field
                .is_some_and(|f| vm.heap().ref_field(w[0].object, f).ok() == Some(w[1].object))
        });
        rep.checks.check(
            !text.is_empty() && v.path.target() == Some(object) && follows_edges,
            || format!("violation path does not lead to {object} along heap edges: {text}"),
        );
    }
}

impl Prepared for AssertHeavy {
    fn rep(&self, leg: Leg, tr: &mut Trace) -> Rep {
        let mut rep = Rep::default();
        let assertions = !leg.base();
        tr.enter("rep", Layer::Bench);
        run_program(&mut rep, tr, &self.db, true, leg);
        run_program(&mut rep, tr, &self.jbb, true, leg);

        // Tree nodes and sessions are 6 words, table blocks 256; on top of
        // that live set the budget leaves room for a few hundred requests,
        // so collections keep coming and each checks every session.
        let budget =
            (self.tree + self.sessions) * 6 + self.sessions.div_ceil(FANOUT) * 256 + 48 * 1024;
        let mut d = Driver::new(leg.apply(config(budget)), SEGMENT_OPS, tr);
        let started = Instant::now();
        let out = self.serve(&mut d, assertions, leg.misplant);
        // The reports with their Figure-1 paths are what the developer
        // reads, so rendering them is part of the run.
        d.trace().enter("render", Layer::Core);
        let t = Instant::now();
        let rendered: Vec<String> =
            d.vm.violation_log()
                .iter()
                .map(|v| v.render(d.vm.registry()))
                .collect();
        rep.observe("render_ns", t.elapsed().as_nanos() as f64);
        d.trace().exit();
        let run_ns = started.elapsed().as_nanos() as u64;
        d.trace().exit();
        rep.run_ns += run_ns;
        rep.checks
            .check(out.is_ok(), || format!("VmError: {:?}", out.as_ref().err()));
        let pending = out.unwrap_or_default();

        // Verdicts: exactly the planted faults, each of the planted kind,
        // each reported by the first collection after it was planted.
        let log = d.vm.violation_log();
        rep.checks.check(log.len() == pending.len(), || {
            format!(
                "{} violations reported, {} faults planted",
                log.len(),
                pending.len()
            )
        });
        for p in &pending {
            rep.checks.check(p.detected_after == Some(1), || {
                format!(
                    "planted fault on {} detected after {:?} collections",
                    p.object, p.detected_after
                )
            });
        }
        check_paths(&mut rep, &d.vm, &rendered);
        rep.counters.max(
            "core.detect_cycles",
            pending
                .iter()
                .filter_map(|p| p.detected_after)
                .max()
                .unwrap_or(0),
        );
        rep.counters.add("core.violations.count", log.len() as u64);
        d.finish(&mut rep);
        rep
    }
}
