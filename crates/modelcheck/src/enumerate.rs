//! Exhaustive small-scope enumeration with canonical-form pruning.
//!
//! The checker walks *every* heap program expressible within a
//! [`Scope`]: at most `objects` small allocations across two BiBOP size
//! classes plus `large` large-object allocations, `mutations` edge
//! mutations (store / clear / swap, plus the ownership edge ops),
//! `root_ops` root-set changes, `gcs` explicit GC points (major and
//! minor), and `asserts` assertion sites — interleaved at every program
//! point. Because the op language is total, **every DFS node is itself a
//! complete program**, and each one is run through the whole engine
//! matrix via [`crate::engines::check_program_with`] before its
//! successors are expanded.
//!
//! Two prunes keep the walk tractable, and neither ever skips a check —
//! they only gate *suffix expansion*:
//!
//! 1. **Effectful-op enumeration**: an op whose preconditions are unmet
//!    no-ops identically on every engine (that is what makes shrinking
//!    sound), so appending it reaches a state already visited with a
//!    smaller budget. Candidates are generated only where they change
//!    the shadow state.
//! 2. **Canonical-form memoization**: a shadow heap simulation mirrors
//!    the VM semantics (reachability, generational promotion, the
//!    report-once bit) and states are canonicalized by BFS relabeling
//!    from the root sequence — heap-graph isomorphism reduction. A
//!    (canonical state, remaining budgets) pair seen before is not
//!    re-expanded.
//!
//! The reduction assumes engine behavior is invariant under
//! allocation-order isomorphism of the reachable heap (page layout and
//! card geometry do not leak into the observable [`crate::program::Outcome`] —
//! the property PR 6's differential suites fuzz independently). The
//! random fuzz suites retain full allocation-order coverage; the model
//! checker buys exhaustiveness within the scope at the price of that
//! assumption.

use std::collections::HashSet;

use crate::engines::{check_program_with, engine_matrix, CheckError, EngineSpec};
use crate::program::FuzzOp;
use crate::shrink::shrink_ops;

/// Data payloads for the two small BiBOP size classes (with
/// `HEADER_WORDS = 2` and 3 reference fields: 5 words → class 8 and 32
/// words → class 32) and the large-object space (> the LOS threshold).
const SMALL_DATA: [usize; 2] = [0, 27];
/// Large-object payload, past the LOS threshold of 256 words.
const LARGE_DATA: usize = 300;
/// Instance limits enumerated for `assert-instances`.
const LIMITS: [u32; 2] = [0, 1];

/// Per-op-kind budgets bounding the enumerated programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope {
    /// Small-object allocations (both size classes; region allocations
    /// are charged here too, and an ownership pair counts as one
    /// allocation, so scope k = 1 reaches `assert-ownedby`).
    pub objects: usize,
    /// Large-object allocations.
    pub large: usize,
    /// Edge mutations: `Link`, `Unlink`, `Swap`, `LeakOwnee`, `BreakOwner`.
    pub mutations: usize,
    /// Root-set changes (`UnrootTo`).
    pub root_ops: usize,
    /// Explicit GC points (`Collect` and `MinorGc`).
    pub gcs: usize,
    /// Assertion sites (`AssertDead`, `AssertUnshared`, `AssertInstances`,
    /// `Region`, `OwnPair`).
    pub asserts: usize,
}

impl Scope {
    /// The uniform scope-`k` instance: `k` of everything, one large
    /// object.
    pub fn uniform(k: usize) -> Scope {
        Scope {
            objects: k,
            large: 1,
            mutations: k,
            root_ops: k,
            gcs: k,
            asserts: k,
        }
    }
}

/// What an exploration did, and what (if anything) it found.
#[derive(Debug)]
pub struct Report {
    /// The scope explored.
    pub scope: Scope,
    /// Programs run through the engine matrix (= DFS nodes visited).
    pub programs_checked: u64,
    /// Distinct canonical (state, budgets) pairs.
    pub distinct_states: u64,
    /// Expansions skipped because the canonical state was already seen.
    pub pruned: u64,
    /// Longest program reached.
    pub max_depth: usize,
    /// The first failure found, minimized — `None` means the whole scope
    /// verified clean.
    pub counterexample: Option<Counterexample>,
}

/// A minimized failing program with its artifacts.
#[derive(Debug)]
pub struct Counterexample {
    /// Length of the program as first discovered.
    pub original_len: usize,
    /// The 1-minimal op sequence (see [`minimize_counterexample`]).
    pub ops: Vec<FuzzOp>,
    /// The failure the minimized program still exhibits.
    pub error: CheckError,
    /// Replay seed (see [`crate::emit::parse_replay`]).
    pub seed: String,
    /// Runnable `.gca` script reproducing the run on the failing engine.
    pub script: String,
}

// ---------------------------------------------------------------------
// Shadow heap simulation
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SObj {
    /// 0 = `N`, 1 = `Owner`, 2 = `Ownee`.
    cls: u8,
    /// Data payload words (selects the size class).
    data: u16,
    /// Field targets; `None` = null.
    fields: Vec<Option<usize>>,
    alive: bool,
    /// `DEAD` flag (assert-dead / region bracket).
    dead: bool,
    /// `UNSHARED` flag.
    unshared: bool,
    /// `REPORTED` bit (report-once is the default config).
    reported: bool,
    /// `OLD` bit under generational semantics (every collection promotes
    /// all survivors).
    old: bool,
}

#[derive(Debug, Clone, Default)]
struct Shadow {
    objs: Vec<SObj>,
    /// Rooted ids in root order (ops index this modulo its length).
    rooted: Vec<usize>,
    /// Ownership pairs, pinned as globals; `Leak`/`Break` ops address the
    /// most recent pair.
    owners: Vec<usize>,
    ownees: Vec<usize>,
    /// Current `assert-instances` limit on class `N` (overwrite
    /// semantics).
    n_limit: Option<u32>,
}

impl Shadow {
    fn alloc(&mut self, cls: u8, data: u16, nfields: usize) -> usize {
        self.objs.push(SObj {
            cls,
            data,
            fields: vec![None; nfields],
            alive: true,
            dead: false,
            unshared: false,
            reported: false,
            old: false,
        });
        self.objs.len() - 1
    }

    /// Reachability from the root sequence (rooted then ownership
    /// globals), over alive objects.
    fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.objs.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &id in self
            .rooted
            .iter()
            .chain(self.owners.iter())
            .chain(self.ownees.iter())
        {
            if self.objs[id].alive && !seen[id] {
                seen[id] = true;
                queue.push(id);
            }
        }
        while let Some(id) = queue.pop() {
            for &f in self.objs[id].fields.iter().flatten() {
                if self.objs[f].alive && !seen[f] {
                    seen[f] = true;
                    queue.push(f);
                }
            }
        }
        seen
    }

    /// Reference count as the tracer sees it: one per root/global slot
    /// plus one per field of a reachable object (self-edges count).
    fn trace_indegree(&self, reach: &[bool]) -> Vec<u32> {
        let mut deg = vec![0u32; self.objs.len()];
        for &id in self
            .rooted
            .iter()
            .chain(self.owners.iter())
            .chain(self.ownees.iter())
        {
            if self.objs[id].alive {
                deg[id] += 1;
            }
        }
        for (id, o) in self.objs.iter().enumerate() {
            if !reach[id] {
                continue;
            }
            for &f in o.fields.iter().flatten() {
                deg[f] += 1;
            }
        }
        deg
    }

    /// Simulates a major collection: sweep unreachable, update the
    /// report-once bits the checking phases would set, promote survivors.
    fn major_gc(&mut self) {
        let reach = self.reachable();
        let deg = self.trace_indegree(&reach);
        for (i, &e) in self.ownees.iter().enumerate() {
            if reach[e] && !self.objs[e].reported {
                let owner = self.owners[i];
                let owned = reach[owner] && self.objs[owner].fields[0] == Some(e);
                if !owned {
                    self.objs[e].reported = true;
                }
            }
        }
        for id in 0..self.objs.len() {
            if !self.objs[id].alive {
                continue;
            }
            if !reach[id] {
                self.objs[id].alive = false;
                continue;
            }
            if self.objs[id].dead {
                self.objs[id].reported = true;
            }
            if self.objs[id].unshared && deg[id] >= 2 {
                self.objs[id].reported = true;
            }
            self.objs[id].old = true;
        }
    }

    /// Simulates a minor collection under generational semantics: the
    /// young subgraph reachable from young roots/globals and old→young
    /// fields survives and is promoted; no checks run.
    fn minor_gc(&mut self) {
        let young = |o: &SObj| o.alive && !o.old;
        let mut seen = vec![false; self.objs.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &id in self
            .rooted
            .iter()
            .chain(self.owners.iter())
            .chain(self.ownees.iter())
        {
            if young(&self.objs[id]) && !seen[id] {
                seen[id] = true;
                queue.push(id);
            }
        }
        for o in &self.objs {
            if !o.alive || !o.old {
                continue;
            }
            for &f in o.fields.iter().flatten() {
                if young(&self.objs[f]) && !seen[f] {
                    seen[f] = true;
                    queue.push(f);
                }
            }
        }
        while let Some(id) = queue.pop() {
            for &f in self.objs[id].fields.iter().flatten() {
                if young(&self.objs[f]) && !seen[f] {
                    seen[f] = true;
                    queue.push(f);
                }
            }
        }
        for (obj, survived) in self.objs.iter_mut().zip(&seen) {
            if obj.alive && !obj.old {
                if *survived {
                    obj.old = true;
                } else {
                    obj.alive = false;
                }
            }
        }
    }

    /// Mirrors [`crate::program::run_program`]'s semantics for one op.
    fn apply(&mut self, op: &FuzzOp) {
        match op {
            FuzzOp::Alloc { data, root } => {
                let id = self.alloc(0, *data as u16, 3);
                if *root {
                    self.rooted.push(id);
                }
            }
            FuzzOp::Link { from, field, to } if !self.rooted.is_empty() => {
                let x = self.rooted[from % self.rooted.len()];
                let y = self.rooted[to % self.rooted.len()];
                self.objs[x].fields[field % 3] = Some(y);
            }
            FuzzOp::Unlink { from, field } if !self.rooted.is_empty() => {
                let x = self.rooted[from % self.rooted.len()];
                self.objs[x].fields[field % 3] = None;
            }
            FuzzOp::Swap { a, b, field } if !self.rooted.is_empty() => {
                let x = self.rooted[a % self.rooted.len()];
                let y = self.rooted[b % self.rooted.len()];
                let f = field % 3;
                let fx = self.objs[x].fields[f];
                let fy = self.objs[y].fields[f];
                self.objs[x].fields[f] = fy;
                self.objs[y].fields[f] = fx;
            }
            FuzzOp::UnrootTo { keep } if self.rooted.len() > *keep => {
                self.rooted.truncate(*keep);
            }
            FuzzOp::Collect => self.major_gc(),
            FuzzOp::MinorGc => self.minor_gc(),
            FuzzOp::AssertDead { target } if !self.rooted.is_empty() => {
                let t = self.rooted[target % self.rooted.len()];
                self.objs[t].dead = true;
            }
            FuzzOp::AssertUnshared { target } if !self.rooted.is_empty() => {
                let t = self.rooted[target % self.rooted.len()];
                self.objs[t].unshared = true;
            }
            FuzzOp::AssertInstances { limit } => self.n_limit = Some(*limit),
            FuzzOp::Region { len, leak } => {
                let mut first = None;
                for _ in 0..(len % 4) + 1 {
                    let id = self.alloc(0, 0, 3);
                    self.objs[id].dead = true;
                    first.get_or_insert(id);
                }
                if *leak {
                    self.rooted.push(first.unwrap());
                }
            }
            FuzzOp::OwnPair => {
                let o = self.alloc(1, 0, 1);
                let e = self.alloc(2, 0, 1);
                self.objs[o].fields[0] = Some(e);
                self.owners.push(o);
                self.ownees.push(e);
            }
            FuzzOp::LeakOwnee { from } if !self.rooted.is_empty() && !self.ownees.is_empty() => {
                let x = self.rooted[from % self.rooted.len()];
                self.objs[x].fields[from % 3] = Some(*self.ownees.last().unwrap());
            }
            FuzzOp::BreakOwner if !self.owners.is_empty() => {
                let o = *self.owners.last().unwrap();
                self.objs[o].fields[0] = None;
            }
            _ => {}
        }
    }

    /// Canonical bytes of the *reachable* state: BFS relabeling from the
    /// root sequence (heap-graph isomorphism reduction). Unreachable
    /// alive objects are deliberately excluded — they die at the next
    /// collection identically on every engine and no future op or check
    /// can observe them differentially.
    fn canon(&self) -> Vec<u8> {
        let mut label = vec![usize::MAX; self.objs.len()];
        let mut order: Vec<usize> = Vec::new();
        let mut queue_at = 0usize;
        let visit = |id: usize, label: &mut Vec<usize>, order: &mut Vec<usize>| {
            if self.objs[id].alive && label[id] == usize::MAX {
                label[id] = order.len();
                order.push(id);
            }
        };
        for &id in self
            .rooted
            .iter()
            .chain(self.owners.iter())
            .chain(self.ownees.iter())
        {
            visit(id, &mut label, &mut order);
        }
        while queue_at < order.len() {
            let id = order[queue_at];
            queue_at += 1;
            let targets: Vec<usize> = self.objs[id].fields.iter().flatten().copied().collect();
            for f in targets {
                visit(f, &mut label, &mut order);
            }
        }

        let mut out: Vec<u8> = Vec::with_capacity(order.len() * 8 + 16);
        let enc_id = |out: &mut Vec<u8>, id: Option<usize>| match id {
            None => out.push(0xFF),
            Some(i) => out.push(u8::try_from(i).expect("scope bounds object count")),
        };
        out.push(u8::try_from(self.rooted.len()).expect("scope bounds root count"));
        out.push(u8::try_from(self.owners.len()).expect("scope bounds pair count"));
        for o in order.iter().map(|&id| &self.objs[id]) {
            out.push(o.cls);
            out.extend_from_slice(&o.data.to_le_bytes());
            out.push(
                u8::from(o.dead)
                    | u8::from(o.unshared) << 1
                    | u8::from(o.reported) << 2
                    | u8::from(o.old) << 3,
            );
            out.push(u8::try_from(o.fields.len()).expect("small field count"));
            for &f in &o.fields {
                enc_id(&mut out, f.map(|id| label[id]));
            }
        }
        match self.n_limit {
            None => out.push(0xFF),
            Some(l) => out.push(u8::try_from(l).expect("small instance limit")),
        }
        out
    }
}

// ---------------------------------------------------------------------
// Budgets and candidate generation
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Budgets {
    objects: usize,
    large: usize,
    mutations: usize,
    root_ops: usize,
    gcs: usize,
    asserts: usize,
}

impl Budgets {
    fn of(scope: &Scope) -> Budgets {
        Budgets {
            objects: scope.objects,
            large: scope.large,
            mutations: scope.mutations,
            root_ops: scope.root_ops,
            gcs: scope.gcs,
            asserts: scope.asserts,
        }
    }

    /// The budgets after `op`, or `None` when it cannot be afforded.
    fn charge(&self, op: &FuzzOp) -> Option<Budgets> {
        let mut b = *self;
        let take = |slot: &mut usize, n: usize| {
            if *slot >= n {
                *slot -= n;
                true
            } else {
                false
            }
        };
        let ok = match op {
            FuzzOp::Alloc { data, .. } if *data > SMALL_DATA[1] => take(&mut b.large, 1),
            FuzzOp::Alloc { .. } => take(&mut b.objects, 1),
            FuzzOp::Link { .. }
            | FuzzOp::Unlink { .. }
            | FuzzOp::Swap { .. }
            | FuzzOp::LeakOwnee { .. }
            | FuzzOp::BreakOwner => take(&mut b.mutations, 1),
            FuzzOp::UnrootTo { .. } => take(&mut b.root_ops, 1),
            FuzzOp::Collect | FuzzOp::MinorGc => take(&mut b.gcs, 1),
            FuzzOp::AssertDead { .. }
            | FuzzOp::AssertUnshared { .. }
            | FuzzOp::AssertInstances { .. } => take(&mut b.asserts, 1),
            FuzzOp::Region { len, .. } => {
                take(&mut b.asserts, 1) && take(&mut b.objects, (len % 4) + 1)
            }
            FuzzOp::OwnPair => take(&mut b.asserts, 1) && take(&mut b.objects, 1),
        };
        ok.then_some(b)
    }

    fn as_bytes(&self) -> [u8; 6] {
        [
            self.objects as u8,
            self.large as u8,
            self.mutations as u8,
            self.root_ops as u8,
            self.gcs as u8,
            self.asserts as u8,
        ]
    }
}

/// Every op that is affordable *and* changes the shadow state (a
/// precondition-unmet or state-identical op no-ops identically on every
/// engine, so its successor state was already visited with more budget).
fn candidates(shadow: &Shadow, budgets: &Budgets) -> Vec<FuzzOp> {
    let mut out: Vec<FuzzOp> = Vec::new();
    let r = shadow.rooted.len();

    if budgets.objects >= 1 {
        for data in SMALL_DATA {
            for root in [false, true] {
                out.push(FuzzOp::Alloc { data, root });
            }
        }
    }
    if budgets.large >= 1 {
        for root in [false, true] {
            out.push(FuzzOp::Alloc {
                data: LARGE_DATA,
                root,
            });
        }
    }

    if budgets.mutations >= 1 && r > 0 {
        for from in 0..r {
            let x = shadow.rooted[from];
            for field in 0..3usize {
                for to in 0..r {
                    let y = shadow.rooted[to];
                    if shadow.objs[x].fields[field] != Some(y) {
                        out.push(FuzzOp::Link { from, field, to });
                    }
                }
                if shadow.objs[x].fields[field].is_some() {
                    out.push(FuzzOp::Unlink { from, field });
                }
            }
        }
        for a in 0..r {
            for b in (a + 1)..r {
                let (x, y) = (shadow.rooted[a], shadow.rooted[b]);
                for field in 0..3usize {
                    if shadow.objs[x].fields[field] != shadow.objs[y].fields[field] {
                        out.push(FuzzOp::Swap { a, b, field });
                    }
                }
            }
        }
        if let Some(&e) = shadow.ownees.last() {
            for from in 0..r {
                let x = shadow.rooted[from];
                if shadow.objs[x].fields[from % 3] != Some(e) {
                    out.push(FuzzOp::LeakOwnee { from });
                }
            }
        }
        if let Some(&o) = shadow.owners.last() {
            if shadow.objs[o].fields[0].is_some() {
                out.push(FuzzOp::BreakOwner);
            }
        }
    }

    if budgets.root_ops >= 1 {
        for keep in 0..r {
            out.push(FuzzOp::UnrootTo { keep });
        }
    }

    if budgets.gcs >= 1 {
        // A major is inert only on a state with nothing alive-unreachable,
        // nothing unpromoted, and no flag for the checking phases to
        // visit (flags also drive the check *counters*, which are part of
        // the compared outcome).
        let reach = shadow.reachable();
        let any_alive = shadow.objs.iter().any(|o| o.alive);
        let changes = shadow
            .objs
            .iter()
            .enumerate()
            .any(|(i, o)| o.alive && (!reach[i] || !o.old));
        let flagged = shadow
            .objs
            .iter()
            .enumerate()
            .any(|(i, o)| reach[i] && (o.dead || o.unshared || o.cls == 2));
        let counted = shadow.n_limit.is_some() && any_alive;
        if changes || flagged || counted {
            out.push(FuzzOp::Collect);
        }
        // A minor is inert on every engine without a live nursery.
        if shadow.objs.iter().any(|o| o.alive && !o.old) {
            out.push(FuzzOp::MinorGc);
        }
    }

    if budgets.asserts >= 1 {
        for target in 0..r {
            let t = shadow.rooted[target];
            if !shadow.objs[t].dead {
                out.push(FuzzOp::AssertDead { target });
            }
            if !shadow.objs[t].unshared {
                out.push(FuzzOp::AssertUnshared { target });
            }
        }
        for limit in LIMITS {
            if shadow.n_limit != Some(limit) {
                out.push(FuzzOp::AssertInstances { limit });
            }
        }
        if budgets.objects >= 1 {
            for leak in [false, true] {
                out.push(FuzzOp::Region { len: 0, leak });
            }
            out.push(FuzzOp::OwnPair);
        }
    }

    out
}

// ---------------------------------------------------------------------
// The exhaustive walk
// ---------------------------------------------------------------------

struct Walk<'a> {
    matrix: &'a [EngineSpec],
    memo: HashSet<Vec<u8>>,
    programs_checked: u64,
    pruned: u64,
    max_depth: usize,
    failure: Option<(Vec<FuzzOp>, CheckError)>,
}

impl Walk<'_> {
    fn dfs(&mut self, shadow: &Shadow, budgets: Budgets, ops: &mut Vec<FuzzOp>) {
        for op in candidates(shadow, &budgets) {
            if self.failure.is_some() {
                return;
            }
            let Some(next_budgets) = budgets.charge(&op) else {
                continue;
            };
            ops.push(op.clone());
            self.programs_checked += 1;
            self.max_depth = self.max_depth.max(ops.len());
            if let Err(e) = check_program_with(self.matrix, ops) {
                self.failure = Some((ops.clone(), e));
                ops.pop();
                return;
            }
            let mut next = shadow.clone();
            next.apply(&op);
            let mut key = next.canon();
            key.extend_from_slice(&next_budgets.as_bytes());
            if self.memo.insert(key) {
                self.dfs(&next, next_budgets, ops);
            } else {
                self.pruned += 1;
            }
            ops.pop();
        }
    }
}

/// Minimizes a failing program against `matrix` and packages the
/// artifacts: the 1-minimal op sequence, the replay seed, and a runnable
/// `.gca` script configured for the engine implicated by the failure.
pub fn minimize_counterexample(matrix: &[EngineSpec], ops: &[FuzzOp]) -> Counterexample {
    let minimal = shrink_ops(ops, |candidate| {
        check_program_with(matrix, candidate).is_err()
    });
    let error = check_program_with(matrix, &minimal)
        .expect_err("shrinker invariant: the minimal program still fails");
    let implicated = match &error {
        CheckError::Mismatch { right, .. } => *right,
        CheckError::EngineFailure { engine, .. } => *engine,
    };
    let spec = matrix
        .iter()
        .find(|s| s.name == implicated)
        .unwrap_or(&matrix[0]);
    let header = vec![
        format!("failure: {error}"),
        format!("engine config: {}", spec.name),
        format!("minimized from {} ops to {}", ops.len(), minimal.len()),
    ];
    let script = crate::emit::emit_gca(&minimal, &spec.config, &header);
    let seed = crate::emit::replay_seed(&minimal);
    Counterexample {
        original_len: ops.len(),
        ops: minimal,
        error,
        seed,
        script,
    }
}

/// Exhaustively checks every program within `scope` against `matrix`.
/// Stops at the first failure and returns it minimized.
pub(crate) fn explore_with(matrix: &[EngineSpec], scope: &Scope) -> Report {
    let mut walk = Walk {
        matrix,
        memo: HashSet::new(),
        programs_checked: 0,
        pruned: 0,
        max_depth: 0,
        failure: None,
    };
    let shadow = Shadow::default();
    let mut ops: Vec<FuzzOp> = Vec::new();
    walk.dfs(&shadow, Budgets::of(scope), &mut ops);
    let counterexample = walk
        .failure
        .map(|(ops, _)| minimize_counterexample(matrix, &ops));
    Report {
        scope: *scope,
        programs_checked: walk.programs_checked,
        distinct_states: walk.memo.len() as u64,
        pruned: walk.pruned,
        max_depth: walk.max_depth,
        counterexample,
    }
}

/// Explores `scope` against the full [`engine_matrix`].
pub fn explore(scope: &Scope) -> Report {
    explore_with(&engine_matrix(), scope)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shadow_of(ops: &[FuzzOp]) -> Shadow {
        let mut s = Shadow::default();
        for op in ops {
            s.apply(op);
        }
        s
    }

    #[test]
    fn canon_ignores_unreachable_garbage() {
        let a = shadow_of(&[FuzzOp::Alloc {
            data: 0,
            root: true,
        }]);
        let b = shadow_of(&[
            FuzzOp::Alloc {
                data: 0,
                root: false,
            },
            FuzzOp::Alloc {
                data: 0,
                root: true,
            },
        ]);
        assert_eq!(a.canon(), b.canon());
    }

    #[test]
    fn canon_distinguishes_flags_and_edges() {
        let base = &[
            FuzzOp::Alloc {
                data: 0,
                root: true,
            },
            FuzzOp::Alloc {
                data: 0,
                root: true,
            },
        ];
        let plain = shadow_of(base);
        let mut linked_ops = base.to_vec();
        linked_ops.push(FuzzOp::Link {
            from: 0,
            field: 2,
            to: 1,
        });
        let linked = shadow_of(&linked_ops);
        let mut dead_ops = base.to_vec();
        dead_ops.push(FuzzOp::AssertDead { target: 1 });
        let dead = shadow_of(&dead_ops);
        assert_ne!(plain.canon(), linked.canon());
        assert_ne!(plain.canon(), dead.canon());
        assert_ne!(linked.canon(), dead.canon());
    }

    #[test]
    fn shadow_major_matches_vm_liveness() {
        use crate::program::run_program;
        use gc_assertions::VmConfig;
        let ops = vec![
            FuzzOp::Alloc {
                data: 0,
                root: true,
            },
            FuzzOp::Alloc {
                data: 0,
                root: true,
            },
            FuzzOp::Link {
                from: 0,
                field: 0,
                to: 1,
            },
            FuzzOp::UnrootTo { keep: 1 },
            FuzzOp::Collect,
        ];
        let mut shadow = Shadow::default();
        for op in &ops {
            shadow.apply(op);
        }
        let out = run_program(VmConfig::builder().build(), &ops);
        let shadow_live: Vec<bool> = shadow.objs.iter().map(|o| o.alive).collect();
        assert_eq!(shadow_live, out.live);
    }

    #[test]
    fn minor_promotes_survivors_and_kills_unreachable_young() {
        let mut s = shadow_of(&[
            FuzzOp::Alloc {
                data: 0,
                root: true,
            },
            FuzzOp::Alloc {
                data: 0,
                root: false,
            },
        ]);
        s.minor_gc();
        assert!(s.objs[0].alive && s.objs[0].old);
        assert!(!s.objs[1].alive);
    }

    #[test]
    fn tiny_scope_verifies_clean() {
        let report = explore(&Scope {
            objects: 1,
            large: 0,
            mutations: 1,
            root_ops: 1,
            gcs: 1,
            asserts: 1,
        });
        assert!(
            report.counterexample.is_none(),
            "unexpected mismatch: {:?}",
            report.counterexample
        );
        assert!(report.programs_checked > 0);
        assert!(report.distinct_states > 0);
    }
}
