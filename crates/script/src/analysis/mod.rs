//! Static checking for GCA scripts: `gca check`.
//!
//! The analyzer runs a flow-sensitive forward interpretation over the
//! command stream with an abstract heap — an allocation-site points-to
//! graph tracking variables, ref fields, the root set, region
//! membership, and incoming-edge multiplicity (see `domain.rs`).  At each
//! `gc` it replays the collector's mark/sweep cycle abstractly (see
//! `collect.rs`) and classifies every registered assertion on the verdict
//! lattice **Safe < May < Must**:
//!
//! * **must-violate** (error): the abstract collection proves the
//!   assertion fires.  Must-verdicts are sound — the differential test
//!   in `tests/check.rs` pins them as a subset of what the interpreter
//!   actually reports.
//! * **may-violate** (warning): plausible on the abstract heap, but the
//!   analyzer declines to promise it.  Concretely, any collection that
//!   begins with a non-empty ownership table downgrades all of its
//!   verdicts to *may* — ownership reachability is where a static model
//!   earns the least trust — and the analyzer's expectation predictions
//!   are disabled from then on.
//! * **safe**: nothing reported.
//!
//! Two things are deliberately *not* re-modelled here, because a second
//! copy is how the analyzer and the interpreter drift apart: block
//! structure (`repeat`/`proc`/`call`, their errors and the `call-depth`
//! cut) comes from the one recorder in `crate::ast` that the interpreter
//! also drives, and `config` lines go through the one table in
//! `crate::config` onto a real `VmConfig`.  What stays separate is what
//! genuinely differs: exact unrolling vs summarization of a closed
//! `repeat`, and the replay work cap.
//!
//! Diagnostics carry 1-based line/column spans and a root-to-object
//! abstract path mirroring the paper's Figure-1 reports, e.g.
//! `occupant: SObject (line 8) -.rep-> fresh_rep: Rep (line 16)`.
//! Advisory lints ride along as warnings: dead-but-still-rooted,
//! unshared-with-two-stores, region allocations escaping before
//! `all-dead`, use-after-`assert-dead`, and class redeclaration.

mod collect;
mod diag;
mod domain;
pub mod json;
mod suggest;
mod summary;

pub use diag::{Diagnostic, Severity};
pub use suggest::{apply_suggestions, suggest, SuggestOutcome, Suggestion};

use gc_assertions::Mode;

use crate::ast::{parse_script, token_column, BlockError, Blocks, Command, Step, Target};
use crate::config::apply_config;
use crate::error::ScriptError;

use collect::{Collection, CycleOutcome, PathStep, PredKind, PredViolation};
use domain::{AbsClass, AbsObj, AbsState, InstanceLimit, ObjId, OwnerEntry};

/// What the analyzer predicts one collection will report.
#[derive(Debug, Clone)]
pub struct GcPrediction {
    /// 1-based line of the command that triggered the collection.
    pub line: usize,
    /// Triggered by an explicit `gc` command (as opposed to the
    /// allocator or `minor-gc`).
    pub explicit: bool,
    /// A minor (nursery-only) collection.
    pub minor: bool,
    /// Violations certain to be reported, in the runtime's
    /// `Violation::summary()` format.
    pub must: Vec<String>,
    /// Violations possible but not promised (ownership humility).
    pub may: Vec<String>,
    /// The prediction stands for *every* dynamic execution of this
    /// collection site inside a summarized `repeat`/`proc` body (its
    /// must-set is empty by construction); the differential harness
    /// matches it against all runtime collections at this line.
    pub summarized: bool,
}

/// The result of statically checking a script.
#[derive(Debug)]
pub struct Analysis {
    /// All diagnostics, in emission order.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-collection verdicts, explicit and implicit, in execution
    /// order.
    pub collections: Vec<GcPrediction>,
}

impl Analysis {
    /// Whether any diagnostic is at error severity (a must-violate
    /// verdict or a predicted runtime failure) — the `gca check` exit-2
    /// condition.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of diagnostics at `severity`.
    pub(crate) fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Renders every diagnostic plus a one-line verdict summary.
    ///
    /// Note-severity advisories (the liveness lints) are omitted here to
    /// keep the classic transcript stable; they are carried in
    /// [`Analysis::diagnostics`] and the `--json` output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            if d.severity == Severity::Note {
                continue;
            }
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "check: {} collection(s) analyzed, {} error(s), {} warning(s)\n",
            self.collections.len(),
            self.count(Severity::Error),
            self.count(Severity::Warning),
        ));
        out
    }
}

/// Statically checks `src`, predicting each collection's assertion
/// verdicts without running the VM.
///
/// # Errors
///
/// Parse errors only — semantic problems the *interpreter* would reject
/// (unknown variables, halted-VM use, failing expectations, …) are
/// reported as error-severity [`Diagnostic`]s in the returned
/// [`Analysis`] instead, with analysis stopping at the first one.
pub fn analyze(src: &str) -> Result<Analysis, ScriptError> {
    let commands = parse_script(src)?;
    let mut an = Analyzer::new(src);
    for (line, cmd) in &commands {
        an.execute(*line, cmd);
        if an.stopped {
            break;
        }
    }
    an.finish_analysis();
    Ok(Analysis {
        diagnostics: an.diagnostics,
        collections: an.collections,
    })
}

/// Exact unrolling bound: a `repeat` whose `count × body-length` stays at
/// or below this replays exactly (full Must/Safe precision); larger loops
/// are summarized to a fixpoint.
const UNROLL_LIMIT: usize = 128;
/// Fixpoint rounds before the analyzer gives up and goes blind (havoc).
const MAX_ROUNDS: usize = 8;
/// Commands replayed inside a single top-level `call` tree before the
/// analyzer stops replaying and goes blind (guards against exponential
/// multi-call recursion; the runtime bound is depth, not work).
const REPLAY_WORK_LIMIT: usize = 20_000;
/// Per-`assert-dead`-site outcome tracking for the
/// `redundant-assert-dead` lint.
#[derive(Debug, Default, Clone, Copy)]
struct DeadAssertOutcome {
    /// Some collection examined the assertion.
    checked: bool,
    /// Some collection produced a (must or may) dead-reachable verdict.
    nonsafe: bool,
}

struct Analyzer<'a> {
    st: AbsState,
    lines: Vec<&'a str>,
    diagnostics: Vec<Diagnostic>,
    collections: Vec<GcPrediction>,
    /// Line of the collection that latched the halt reaction.
    halt_line: Option<usize>,
    /// A predicted runtime failure was emitted; analysis stops.
    stopped: bool,
    /// `repeat`/`proc`/`call` structure, shared with the interpreter.
    blocks: Blocks,
    /// Depth of summarized-block execution (allocations become summary
    /// nodes, collections run the summary collector).
    summarizing: usize,
    /// Depth of *quiet* fixpoint rounds: diagnostics and predictions are
    /// suppressed while the state converges.
    quiet: usize,
    /// Commands replayed in the current top-level `call` tree.
    replay_work: usize,
    /// Advisory diagnostics already emitted, for idempotent loud rounds
    /// and exact unrolling: `(line, code, message)`.
    seen_advisory: std::collections::HashSet<(usize, &'static str, String)>,
    /// Per-`assert-dead`-line verdict history for the redundancy lint.
    dead_asserts: std::collections::BTreeMap<usize, DeadAssertOutcome>,
    /// `loop-invariant-assertion` notes already emitted, by line.
    linted_invariant: std::collections::HashSet<usize>,
}

impl<'a> Analyzer<'a> {
    fn new(src: &'a str) -> Analyzer<'a> {
        Analyzer {
            st: AbsState::new(),
            lines: src.lines().collect(),
            diagnostics: Vec::new(),
            collections: Vec::new(),
            halt_line: None,
            stopped: false,
            blocks: Blocks::new(),
            summarizing: 0,
            quiet: 0,
            replay_work: 0,
            seen_advisory: std::collections::HashSet::new(),
            dead_asserts: std::collections::BTreeMap::new(),
            linted_invariant: std::collections::HashSet::new(),
        }
    }

    fn col(&self, line: usize) -> Option<usize> {
        self.lines.get(line - 1).and_then(|l| token_column(l, 0))
    }

    fn diag(&mut self, line: usize, severity: Severity, code: &'static str, message: String) {
        self.diag_with_notes(line, severity, code, message, Vec::new());
    }

    fn diag_with_notes(
        &mut self,
        line: usize,
        severity: Severity,
        code: &'static str,
        message: String,
        notes: Vec<String>,
    ) {
        if severity != Severity::Error {
            // Quiet fixpoint rounds converge silently; advisory
            // diagnostics dedupe so replayed bodies emit each once.
            if self.quiet > 0 || !self.seen_advisory.insert((line, code, message.clone())) {
                return;
            }
        }
        let column = self.col(line);
        self.diagnostics.push(Diagnostic {
            line,
            column,
            severity,
            code,
            message,
            notes,
        });
    }

    /// A predicted runtime failure: error severity, and analysis stops
    /// (the interpreter would abort the script here).
    fn fail(&mut self, line: usize, code: &'static str, message: String) {
        self.diag(line, Severity::Error, code, message);
        self.stopped = true;
    }

    fn warn(&mut self, line: usize, code: &'static str, message: String) {
        self.diag(line, Severity::Warning, code, message);
    }

    // ------------------------------------------------------------------
    // Lookups, mirroring the interpreter's error behavior
    // ------------------------------------------------------------------

    fn var(&mut self, line: usize, name: &str) -> Option<ObjId> {
        match self.st.lookup(name) {
            Some(o) => Some(o),
            None => {
                self.fail(
                    line,
                    "unknown-variable",
                    format!("unknown variable `{name}`"),
                );
                None
            }
        }
    }

    /// A live object bound to `name`, or a predicted stale-reference
    /// failure.
    fn live_var(&mut self, line: usize, name: &str) -> Option<ObjId> {
        let obj = self.var(line, name)?;
        if !self.st.objects[obj].alive {
            self.fail(
                line,
                "stale-ref",
                format!(
                    "`{name}` refers to {}, which was reclaimed by an earlier collection",
                    self.st.describe(obj)
                ),
            );
            return None;
        }
        Some(obj)
    }

    fn class(&mut self, line: usize, name: &str) -> Option<usize> {
        match self.st.class_by_name.get(name) {
            Some(&c) => Some(c),
            None => {
                self.fail(line, "unknown-class", format!("unknown class `{name}`"));
                None
            }
        }
    }

    /// Mirror of `Vm::check_running`: commands that mutate or assert
    /// fail once a halt-reaction violation latched.
    fn check_running(&mut self, line: usize) -> bool {
        if self.st.halted {
            let at = self
                .halt_line
                .map(|l| format!(" (halted by the collection on line {l})"))
                .unwrap_or_default();
            self.fail(
                line,
                "halted",
                format!("the VM refuses further work after a halt-reaction violation{at}"),
            );
            return false;
        }
        true
    }

    /// Mirror of `Vm::check_instrumented`: assertions are rejected in
    /// base mode.
    fn check_instrumented(&mut self, line: usize) -> bool {
        if self.st.config.mode == Mode::Base {
            self.fail(
                line,
                "base-mode",
                "assertions are disabled in base mode (`config mode base`)".to_owned(),
            );
            return false;
        }
        true
    }

    // ------------------------------------------------------------------
    // Lints
    // ------------------------------------------------------------------

    /// Warn when a command keeps using an object already asserted dead —
    /// rooting or storing it pins it and defeats the assertion.
    fn lint_use_after_dead(&mut self, line: usize, obj: ObjId, how: &str) {
        if self.st.objects[obj].dead && self.st.objects[obj].alive {
            let dead_at = self.st.objects[obj].dead_line;
            let desc = self.st.describe(obj);
            let at = dead_at.map(|l| format!(" at line {l}")).unwrap_or_default();
            self.warn(
                line,
                "use-after-assert-dead",
                format!("{how} {desc}, which was asserted dead{at} — this keeps it reachable"),
            );
        }
    }

    /// Warn at the command that gives an `assert-unshared` object a
    /// second incoming reference — the violation is then already in the
    /// heap, collections or not.
    fn lint_unshared_stores(&mut self, line: usize, obj: ObjId) {
        if !self.st.objects[obj].unshared || !self.st.objects[obj].alive {
            return;
        }
        let incoming = self.st.incoming(obj);
        if incoming >= 2 {
            let desc = self.st.describe(obj);
            let asserted = self.st.objects[obj].unshared_line;
            let at = asserted
                .map(|l| format!(" (asserted unshared at line {l})"))
                .unwrap_or_default();
            self.warn(
                line,
                "unshared-with-two-stores",
                format!("{desc} now has {incoming} incoming references{at}"),
            );
        }
    }

    // ------------------------------------------------------------------
    // Collections and verdicts
    // ------------------------------------------------------------------

    fn render_path(&self, path: &[PathStep]) -> Option<String> {
        if path.is_empty() {
            return None;
        }
        let mut out = String::from("path: ");
        let mut prev_class: Option<usize> = None;
        for (i, step) in path.iter().enumerate() {
            if i > 0 {
                let field = match (prev_class, step.field) {
                    // A redeclared class may no longer name an old field.
                    (Some(c), Some(f)) => self.st.classes[c].fields.get(f).cloned(),
                    _ => None,
                };
                out.push_str(&format!(" -.{}-> ", field.as_deref().unwrap_or("?")));
            }
            out.push_str(&self.st.describe(step.obj));
            prev_class = Some(self.st.objects[step.obj].class);
        }
        Some(out)
    }

    /// Turns one predicted violation into a diagnostic at the
    /// collection's line.  `may` selects warning severity and hedged
    /// wording.
    fn violation_diag(&mut self, line: usize, v: &PredViolation, may: bool) {
        let (severity, verb) = if may {
            (Severity::Warning, "may")
        } else {
            (Severity::Error, "must")
        };
        let mut notes = Vec::new();
        if let Some(p) = self.render_path(&v.path) {
            notes.push(p);
        }
        let message = match (v.kind, v.obj) {
            (PredKind::DeadReachable, Some(obj)) => {
                let desc = self.st.describe(obj);
                let at = self.st.objects[obj]
                    .dead_line
                    .map(|l| format!(" (line {l})"))
                    .unwrap_or_default();
                if let Some(r) = self.st.rooted_at(obj) {
                    notes.push(format!(
                        "dead but still rooted: the object is in the root set (rooted at line {r})"
                    ));
                }
                if let Some(s) = self.st.objects[obj].region_site {
                    notes.push(format!("allocated inside the region begun at line {s}"));
                }
                format!(
                    "{desc} was asserted dead{at} but {verb} still be reachable at this collection"
                )
            }
            (PredKind::Shared, Some(obj)) => {
                let desc = self.st.describe(obj);
                let at = self.st.objects[obj]
                    .unshared_line
                    .map(|l| format!(" (line {l})"))
                    .unwrap_or_default();
                format!("{desc} was asserted unshared{at} but {verb} be reachable through more than one reference")
            }
            (PredKind::NotOwned, Some(obj)) => {
                let desc = self.st.describe(obj);
                format!("{desc} {verb} be reachable without passing through its owner at this collection")
            }
            (PredKind::ImproperOwnership, Some(obj)) => {
                let desc = self.st.describe(obj);
                format!("{desc} {verb} be reached while scanning another owner's region (ownership regions must be disjoint)")
            }
            (PredKind::OwneeOutlivedOwner, Some(obj)) => {
                let desc = self.st.describe(obj);
                format!("{desc} {verb} outlive its owner, which this collection reclaims")
            }
            (PredKind::InstanceLimit, _) => {
                // The summary carries class, count and limit; re-derive
                // the asserting line for provenance.
                let detail = v.summary.trim_start_matches("instance-limit ").to_owned();
                let lline = self
                    .st
                    .classes
                    .iter()
                    .find(|c| detail.starts_with(&format!("{} ", c.name)))
                    .and_then(|c| c.limit)
                    .map(|l| format!(" (asserted line {})", l.line))
                    .unwrap_or_default();
                format!("instance limit {verb} be exceeded: {detail}{lline}")
            }
            // Kinds above always carry an object; this arm is
            // unreachable but keeps the match total.
            (_, None) => v.summary.clone(),
        };
        let code = match v.kind {
            PredKind::DeadReachable => "dead-reachable",
            PredKind::Shared => "unshared-violated",
            PredKind::InstanceLimit => "instance-limit",
            PredKind::NotOwned => "not-owned",
            PredKind::ImproperOwnership => "improper-ownership",
            PredKind::OwneeOutlivedOwner => "ownee-outlived-owner",
        };
        self.diag_with_notes(line, severity, code, message, notes);
    }

    /// Records one major cycle: diagnostics for its violations plus the
    /// must/may split for the differential harness.  A `summarized` cycle
    /// (a collection inside or after a summarized block) stands for all
    /// dynamic executions of its line and never promises a must-set.
    fn record_major(
        &mut self,
        line: usize,
        explicit: bool,
        outcome: CycleOutcome,
        summarized: bool,
    ) {
        // The humility rule: a cycle that began with live ownership
        // entries gets every verdict downgraded to may, and exactness —
        // which gates expectation predictions — is gone for the rest of
        // the script.
        let may = summarized || outcome.ownership_active;
        if may {
            self.st.exact = false;
        }
        if self.st.halted && self.halt_line.is_none() {
            self.halt_line = Some(line);
        }
        self.mark_dead_outcomes(&outcome.violations);
        for v in &outcome.violations {
            self.violation_diag(line, v, may);
        }
        let summaries = outcome.violations.iter().map(|v| v.summary.clone());
        let (must, may) = if may {
            (Vec::new(), summaries.collect())
        } else {
            (summaries.collect(), Vec::new())
        };
        if explicit {
            self.st.last_report = outcome.violations.clone();
        }
        self.st.violation_log.extend(outcome.violations);
        self.collections.push(GcPrediction {
            line,
            explicit,
            minor: false,
            must,
            may,
            summarized,
        });
    }

    fn record_minor(&mut self, line: usize, violations: Vec<PredViolation>, summarized: bool) {
        // Minors check no assertions; only strict-owner-lifetime
        // retirements can report, and those are ownership territory —
        // always may.
        if !self.st.ownership.is_empty() || !violations.is_empty() || summarized {
            self.st.exact = false;
        }
        self.mark_dead_outcomes(&violations);
        let mut may_summaries = Vec::new();
        for v in &violations {
            self.violation_diag(line, v, true);
            may_summaries.push(v.summary.clone());
        }
        self.st.violation_log.extend(violations);
        self.collections.push(GcPrediction {
            line,
            explicit: false,
            minor: true,
            must: Vec::new(),
            may: may_summaries,
            summarized,
        });
    }

    fn record_auto(&mut self, line: usize, events: Vec<Collection>) {
        for ev in events {
            match ev {
                Collection::Major(outcome) => self.record_major(line, false, outcome, false),
                Collection::Minor(violations) => self.record_minor(line, violations, false),
            }
        }
    }

    // ------------------------------------------------------------------
    // Redundancy lint bookkeeping
    // ------------------------------------------------------------------

    /// Before a collection runs: every live object carrying a registered
    /// `assert-dead` is about to be examined.
    fn pre_collect_dead_watch(&mut self) {
        for o in &self.st.objects {
            if o.alive && o.dead {
                if let Some(l) = o.dead_line {
                    if let Some(e) = self.dead_asserts.get_mut(&l) {
                        e.checked = true;
                    }
                }
            }
        }
    }

    /// After a collection: any dead-reachable verdict (must *or* may,
    /// quiet rounds included) disqualifies its assertion site from the
    /// `redundant-assert-dead` note.
    fn mark_dead_outcomes(&mut self, violations: &[PredViolation]) {
        for v in violations {
            if v.kind != PredKind::DeadReachable {
                continue;
            }
            if let Some(obj) = v.obj {
                if let Some(l) = self.st.objects[obj].dead_line {
                    if let Some(e) = self.dead_asserts.get_mut(&l) {
                        e.nonsafe = true;
                    }
                }
            }
        }
    }

    /// Live instances of `class` reachable from the roots right now
    /// (mirror of `Vm::probe_instances`).
    fn reachable_instances(&self, class: usize) -> u32 {
        let mut seen = vec![false; self.st.objects.len()];
        let mut stack = self.st.gather_roots();
        let mut n = 0;
        while let Some(o) = stack.pop() {
            if seen[o] {
                continue;
            }
            seen[o] = true;
            if self.st.objects[o].class == class {
                n += 1;
            }
            for f in self.st.objects[o].fields.iter().flatten() {
                stack.push(*f);
            }
        }
        n
    }

    // ------------------------------------------------------------------
    // Structured control: record/replay, exact unrolling, fixpoints
    // ------------------------------------------------------------------

    /// Collections route through the summary collector once any block
    /// has been summarized — runtime flag state (report-once
    /// suppression) diverges after the first summarized iteration, so
    /// the exact replay cycle would no longer mirror the VM.
    fn use_summary(&self) -> bool {
        self.summarizing > 0 || self.st.summarized_ever
    }

    fn block_fail(&mut self, code: &'static str, e: BlockError) {
        self.fail(e.line, code, e.to_string());
    }

    /// Top-level dispatch over the shared block recorder: buffered
    /// commands do nothing, a closed `repeat` unrolls or summarizes,
    /// everything else interprets directly.
    fn execute(&mut self, line: usize, cmd: &Command) {
        match self.blocks.feed(line, cmd) {
            Err(e) => self.block_fail("block-structure", e),
            Ok(Step::Recorded) => {}
            Ok(Step::Repeat { count, body }) => self.run_repeat(count, &body),
            Ok(Step::Run) => match cmd {
                Command::Call(name) => self.run_call(line, name),
                _ => self.execute_one(line, cmd),
            },
        }
    }

    /// One `call`: exact depth-bounded replay, mirroring the runtime.
    fn run_call(&mut self, line: usize, name: &str) {
        let body = match self.blocks.enter_call(line, name) {
            Err(e) => return self.block_fail("unknown-proc", e),
            // The runtime treats a call at the depth bound as a no-op.
            Ok(None) => return,
            Ok(Some(body)) => body,
        };
        if self.blocks.call_depth() == 1 && self.summarizing == 0 {
            self.replay_work = 0;
        }
        for (l, c) in body.iter() {
            self.replay_work += 1;
            if self.replay_work > REPLAY_WORK_LIMIT {
                // Multi-call recursion can be exponential in the depth
                // bound; past the work cap the heap may be missing
                // edges, so go blind instead.
                self.st.exact = false;
                self.st.summarized_ever = true;
                self.st.occupancy_unknown = true;
                self.st.havoc = true;
                break;
            }
            self.execute(*l, c);
            if self.stopped {
                break;
            }
        }
        self.blocks.exit_call();
    }

    /// One `repeat`: small bodies unroll exactly (keeping Must/Safe
    /// precision), large ones run to a summarized fixpoint.
    fn run_repeat(&mut self, count: usize, body: &[(usize, Command)]) {
        self.lint_loop_invariant(body);
        if count == 0 || self.stopped {
            return;
        }
        let cost = count.saturating_mul(body.len());
        if cost <= UNROLL_LIMIT {
            for _ in 0..count {
                for (l, c) in body {
                    self.execute(*l, c);
                    if self.stopped {
                        return;
                    }
                }
            }
        } else {
            self.summarize_block(body);
        }
    }

    /// Widening for a large block: allocations collapse onto per-site
    /// summary nodes with weak (accumulate-only) field edges, quiet
    /// rounds replay the body until the abstract state stops changing,
    /// then one loud round emits diagnostics and summarized predictions.
    /// Monotone by construction (summary edges only grow, variables
    /// converge in a branch-free language); non-convergence within
    /// [`MAX_ROUNDS`] trips [`domain::AbsState::havoc`], which blinds
    /// every later collection instead of risking a false Safe.
    fn summarize_block(&mut self, body: &[(usize, Command)]) {
        self.st.exact = false;
        self.st.summarized_ever = true;
        self.st.occupancy_unknown = true;
        self.summarizing += 1;
        self.quiet += 1;
        let mut converged = false;
        for _ in 0..MAX_ROUNDS {
            let before = self.fingerprint();
            for (l, c) in body {
                self.execute(*l, c);
                if self.stopped {
                    break;
                }
            }
            if self.stopped {
                break;
            }
            if self.fingerprint() == before {
                converged = true;
                break;
            }
        }
        self.quiet -= 1;
        if self.stopped {
            self.summarizing -= 1;
            return;
        }
        if !converged {
            self.st.havoc = true;
        }
        for (l, c) in body {
            self.execute(*l, c);
            if self.stopped {
                break;
            }
        }
        self.summarizing -= 1;
    }

    /// A stable digest of everything the abstract collections can
    /// observe — the fixpoint termination test.
    fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        let mut vars: Vec<(&String, &ObjId)> = self.st.vars.iter().collect();
        vars.sort();
        format!("{vars:?}").hash(&mut h);
        for o in &self.st.objects {
            format!(
                "{} {} {} {} {} {} {} {} {} {:?} {:?}",
                o.alive,
                o.dead,
                o.unshared,
                o.summary,
                o.ownee,
                o.owner,
                o.old,
                o.region,
                o.mark,
                o.fields,
                o.summary_edges,
            )
            .hash(&mut h);
        }
        format!(
            "{:?} {:?} {:?} {:?} {} {:?} {} {:?}",
            self.st.roots,
            self.st.globals,
            self.st.region_queue,
            self.st.remembered,
            self.st.region_open,
            self.st.frames,
            self.st.minors_since_major,
            self.st.ownership,
        )
        .hash(&mut h);
        h.finish()
    }

    /// The `loop-invariant-assertion` note: an assertion inside a
    /// `repeat` whose subject is never rebound in the body registers the
    /// same object (or class limit) on every iteration.
    fn lint_loop_invariant(&mut self, body: &[(usize, Command)]) {
        if self.quiet > 0 {
            return;
        }
        let mut rebound: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for (_, c) in body {
            match c {
                Command::New { var, .. } => {
                    rebound.insert(var);
                }
                Command::Copy { dst, .. } => {
                    rebound.insert(dst);
                }
                _ => {}
            }
        }
        let mut notes = Vec::new();
        for (l, c) in body {
            let invariant = match c {
                Command::AssertDead(v) | Command::AssertUnshared(v) => {
                    !rebound.contains(v.as_str())
                }
                Command::AssertInstances { .. } => true,
                _ => false,
            };
            if invariant && self.linted_invariant.insert(*l) {
                notes.push(*l);
            }
        }
        for l in notes {
            self.diag(
                l,
                Severity::Note,
                "loop-invariant-assertion",
                "this assertion registers the same target on every iteration — hoist it out of the loop".to_owned(),
            );
        }
    }

    /// End-of-script bookkeeping: unclosed blocks fail exactly like the
    /// interpreter, and `assert-dead` sites that stayed Safe at every
    /// collection that examined them earn the redundancy note.
    fn finish_analysis(&mut self) {
        if self.stopped {
            return;
        }
        if let Err(e) = self.blocks.finish() {
            return self.block_fail("block-structure", e);
        }
        let safe_sites: Vec<usize> = self
            .dead_asserts
            .iter()
            .filter(|(_, e)| e.checked && !e.nonsafe)
            .map(|(l, _)| *l)
            .collect();
        for l in safe_sites {
            self.diag(
                l,
                Severity::Note,
                "redundant-assert-dead",
                "this `assert-dead` is proven Safe at every collection that examines it — the assertion can be removed".to_owned(),
            );
        }
    }

    // ------------------------------------------------------------------
    // The forward interpretation
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn execute_one(&mut self, line: usize, cmd: &Command) {
        match cmd {
            Command::Config { key, value } => self.exec_config(line, key, value),
            Command::Class { name, fields } => {
                self.st.started = true;
                match self.st.class_by_name.get(name.as_str()) {
                    // `TypeRegistry::register` returns the existing id for
                    // a repeated name, so this is still one class: limits
                    // and instance counts are shared, and the interpreter
                    // resolves `new`/`set` against the latest field list.
                    Some(&idx) => {
                        self.st.classes[idx].fields = fields.clone();
                        self.warn(
                            line,
                            "class-redeclared",
                            format!("class `{name}` is declared again; it stays one class, and `new`/`set` now use this field list"),
                        );
                    }
                    None => {
                        self.st
                            .class_by_name
                            .insert(name.clone(), self.st.classes.len());
                        self.st.classes.push(AbsClass {
                            name: name.clone(),
                            fields: fields.clone(),
                            limit: None,
                            gc_count: 0,
                        });
                    }
                }
            }
            Command::New {
                var,
                class,
                data_words,
            } => {
                self.st.started = true;
                let Some(cls) = self.class(line, class) else {
                    return;
                };
                if !self.check_running(line) {
                    return;
                }
                let nrefs = self.st.classes[cls].fields.len();
                if self.summarizing > 0 {
                    // Inside a summarized block one node per site line
                    // stands for every allocation the site performs;
                    // re-executing the site revives and reuses it.
                    let id = match self.st.summary_by_line.get(&line) {
                        Some(&id) if self.st.objects[id].class == cls => id,
                        _ => {
                            let id = self.st.objects.len();
                            self.st.objects.push(AbsObj {
                                summary: true,
                                ..AbsObj::new(cls, var, line, nrefs, *data_words)
                            });
                            self.st.summary_by_line.insert(line, id);
                            id
                        }
                    };
                    self.st.objects[id].alive = true;
                    if self.st.region_open {
                        self.st.objects[id].region = true;
                        if self.st.objects[id].region_site.is_none() {
                            self.st.objects[id].region_site = Some(self.st.region_line);
                        }
                        if !self.st.region_queue.contains(&id) {
                            self.st.region_queue.push(id);
                        }
                    }
                    self.st.vars.insert(var.clone(), id);
                    return;
                }
                let size = domain::HEADER_WORDS + nrefs + *data_words;
                // Once a summarized loop has run, total allocation is
                // unknown and implicit-collection/OOM prediction is off.
                if !self.st.occupancy_unknown
                    && self.st.occupied + size > self.st.config.heap_budget
                {
                    self.pre_collect_dead_watch();
                    let events = collect::collect_auto(&mut self.st);
                    self.record_auto(line, events);
                    if !self.check_running(line) {
                        return;
                    }
                    if self.st.occupied + size > self.st.config.heap_budget {
                        if self.st.config.grow {
                            self.st.config.heap_budget =
                                (self.st.config.heap_budget * 2).max(self.st.occupied + size);
                        } else {
                            self.fail(
                                line,
                                "out-of-memory",
                                format!(
                                    "allocation of {size} words cannot fit: {} of {} words occupied even after collecting, and growth is off",
                                    self.st.occupied, self.st.config.heap_budget
                                ),
                            );
                            return;
                        }
                    }
                }
                let id = self.st.objects.len();
                self.st.objects.push(AbsObj {
                    region: self.st.region_open,
                    region_site: self.st.region_open.then_some(self.st.region_line),
                    ..AbsObj::new(cls, var, line, nrefs, *data_words)
                });
                self.st.occupied += size;
                if self.st.region_open {
                    self.st.region_queue.push(id);
                }
                self.st.vars.insert(var.clone(), id);
            }
            Command::Set { var, field, value } => {
                self.st.started = true;
                let Some(recv) = self.live_var(line, var) else {
                    return;
                };
                if !self.check_running(line) {
                    return;
                }
                let cls = self.st.objects[recv].class;
                let Some(idx) = self.st.classes[cls].fields.iter().position(|f| f == field) else {
                    self.fail(
                        line,
                        "unknown-field",
                        format!(
                            "class `{}` has no field `{field}`",
                            self.st.classes[cls].name
                        ),
                    );
                    return;
                };
                let val = match value {
                    Target::Null => None,
                    Target::Var(v) => match self.live_var(line, v) {
                        Some(o) => Some(o),
                        None => return,
                    },
                };
                // An object allocated before its class was redeclared
                // keeps its old layout; the VM bounds-checks the store.
                let nrefs = self.st.objects[recv].fields.len();
                if idx >= nrefs {
                    self.fail(
                        line,
                        "field-bounds",
                        format!(
                            "field `{field}` is index {idx}, but {} was allocated with {nrefs} reference field(s)",
                            self.st.describe(recv)
                        ),
                    );
                    return;
                }
                // Generational write barrier mirror.
                if let Some(v) = val {
                    if self.st.config.generational.is_some()
                        && self.st.objects[recv].old
                        && !self.st.objects[recv].remembered
                        && !self.st.objects[v].old
                    {
                        self.st.objects[recv].remembered = true;
                        self.st.remembered.push(recv);
                    }
                }
                // Stores into a summary node are weak updates: the old
                // value survives as an accumulate-only summary edge,
                // because some concretization of the node still holds it.
                if self.st.objects[recv].summary {
                    if let Some(old) = self.st.objects[recv].fields[idx] {
                        if Some(old) != val
                            && !self.st.objects[recv].summary_edges.contains(&(idx, old))
                        {
                            self.st.objects[recv].summary_edges.push((idx, old));
                        }
                    }
                }
                self.st.objects[recv].fields[idx] = val;
                if let Some(v) = val {
                    self.lint_use_after_dead(line, v, "storing a reference to");
                    self.lint_unshared_stores(line, v);
                    // Region escape: a region allocation stored into an
                    // object outside the region outlives `all-dead`'s
                    // intent.
                    if self.st.objects[v].region && !self.st.objects[recv].region {
                        let desc = self.st.describe(v);
                        let site = self.st.objects[v].region_site;
                        let at = site
                            .map(|l| format!(" (region begun at line {l})"))
                            .unwrap_or_default();
                        self.warn(
                            line,
                            "region-escape",
                            format!(
                                "{desc} was allocated in the active region{at} but escapes into `{var}`, which is outside it"
                            ),
                        );
                    }
                }
            }
            Command::Data { var, index, value } => {
                let _ = value;
                self.st.started = true;
                let Some(obj) = self.live_var(line, var) else {
                    return;
                };
                if !self.check_running(line) {
                    return;
                }
                if *index >= self.st.objects[obj].size_words {
                    self.fail(
                        line,
                        "data-bounds",
                        format!(
                            "data index {index} out of bounds: {} has {} data word(s)",
                            self.st.describe(obj),
                            self.st.objects[obj].size_words
                        ),
                    );
                    return;
                }
                self.lint_use_after_dead(line, obj, "writing a data word of");
            }
            Command::Root(var) => {
                self.st.started = true;
                let Some(obj) = self.live_var(line, var) else {
                    return;
                };
                // Under summarization re-rooting dedupes so the
                // fixpoint converges (root *multiplicity* is advisory).
                if self.summarizing == 0 || !self.st.roots.contains(&(obj, line)) {
                    self.st.roots.push((obj, line));
                }
                self.lint_use_after_dead(line, obj, "rooting");
                self.lint_unshared_stores(line, obj);
            }
            Command::Frame => {
                self.st.started = true;
                let mark = self.st.roots.len();
                self.st.frames.push(mark);
            }
            Command::EndFrame => {
                self.st.started = true;
                if self.st.frames.len() <= 1 {
                    self.fail(
                        line,
                        "no-frame",
                        "`end-frame` with only the base frame on the stack".to_owned(),
                    );
                    return;
                }
                let base = self.st.frames.pop().expect("checked length");
                self.st.roots.truncate(base);
            }
            Command::Global(var) => {
                self.st.started = true;
                let Some(obj) = self.live_var(line, var) else {
                    return;
                };
                if self.summarizing == 0 || !self.st.globals.contains(&(obj, line)) {
                    self.st.globals.push((obj, line));
                }
                self.lint_use_after_dead(line, obj, "making a global of");
                self.lint_unshared_stores(line, obj);
            }
            Command::Unglobal(var) => {
                self.st.started = true;
                let Some(obj) = self.var(line, var) else {
                    return;
                };
                match self.st.globals.iter().position(|(g, _)| *g == obj) {
                    Some(i) => {
                        self.st.globals.swap_remove(i);
                    }
                    None => {
                        self.fail(
                            line,
                            "global-not-found",
                            format!("`{var}` is not a global root"),
                        );
                    }
                }
            }
            Command::AssertDead(var) => {
                self.st.started = true;
                let Some(obj) = self.live_var(line, var) else {
                    return;
                };
                if !self.check_running(line) || !self.check_instrumented(line) {
                    return;
                }
                self.st.objects[obj].dead = true;
                self.st.objects[obj].dead_line = Some(line);
                self.dead_asserts.entry(line).or_default();
            }
            Command::AssertUnshared(var) => {
                self.st.started = true;
                let Some(obj) = self.live_var(line, var) else {
                    return;
                };
                if !self.check_running(line) || !self.check_instrumented(line) {
                    return;
                }
                self.st.objects[obj].unshared = true;
                self.st.objects[obj].unshared_line = Some(line);
                self.lint_unshared_stores(line, obj);
            }
            Command::AssertInstances { class, limit } => {
                self.st.started = true;
                let Some(cls) = self.class(line, class) else {
                    return;
                };
                if !self.check_running(line) || !self.check_instrumented(line) {
                    return;
                }
                self.st.classes[cls].limit = Some(InstanceLimit {
                    limit: *limit,
                    line,
                });
            }
            Command::AssertOwnedBy { owner, ownee } => {
                self.st.started = true;
                let Some(o) = self.live_var(line, owner) else {
                    return;
                };
                let Some(e) = self.live_var(line, ownee) else {
                    return;
                };
                if !self.check_running(line) || !self.check_instrumented(line) {
                    return;
                }
                self.assert_owned_by(line, o, e);
            }
            Command::ReleaseOwnee(var) => {
                self.st.started = true;
                let Some(obj) = self.var(line, var) else {
                    return;
                };
                if !self.check_running(line) || !self.check_instrumented(line) {
                    return;
                }
                for entry in &mut self.st.ownership {
                    entry.ownees.retain(|&o| o != obj);
                }
                if self.st.objects[obj].alive {
                    self.st.objects[obj].ownee = false;
                }
            }
            Command::StartRegion => {
                self.st.started = true;
                if !self.check_running(line) || !self.check_instrumented(line) {
                    return;
                }
                if self.st.region_open {
                    self.fail(
                        line,
                        "region-active",
                        format!(
                            "a region is already active (begun at line {}); regions do not nest",
                            self.st.region_line
                        ),
                    );
                    return;
                }
                self.st.region_open = true;
                self.st.region_line = line;
                self.st.region_queue.clear();
            }
            Command::AllDead => {
                self.st.started = true;
                if !self.check_running(line) || !self.check_instrumented(line) {
                    return;
                }
                if !self.st.region_open {
                    self.fail(
                        line,
                        "no-region",
                        "`all-dead` without an active region".to_owned(),
                    );
                    return;
                }
                let queue = std::mem::take(&mut self.st.region_queue);
                for obj in queue {
                    self.st.objects[obj].region = false;
                    if self.st.objects[obj].alive {
                        self.st.objects[obj].dead = true;
                        self.st.objects[obj].dead_line = Some(line);
                    }
                }
                self.st.region_open = false;
            }
            Command::Gc => {
                self.st.started = true;
                self.pre_collect_dead_watch();
                if self.use_summary() {
                    let outcome = summary::collect_summary(&mut self.st);
                    if self.quiet > 0 {
                        // Quiet fixpoint rounds converge silently, but
                        // verdict history still feeds the lints.
                        self.mark_dead_outcomes(&outcome.violations);
                    } else {
                        self.record_major(line, true, outcome, true);
                    }
                } else {
                    let outcome = collect::collect_major(&mut self.st);
                    self.record_major(line, true, outcome, false);
                }
            }
            Command::MinorGc => {
                self.st.started = true;
                if !self.check_running(line) {
                    return;
                }
                if self.use_summary() {
                    let violations = summary::collect_minor_summary(&mut self.st);
                    if self.quiet == 0 {
                        self.record_minor(line, violations, true);
                    }
                } else {
                    let violations = collect::collect_minor(&mut self.st);
                    self.record_minor(line, violations, false);
                }
            }
            Command::Probe(var) => {
                self.st.started = true;
                if self.var(line, var).is_none() {
                    return;
                }
                if !self.check_running(line) {
                    #[allow(clippy::needless_return)]
                    return;
                }
            }
            Command::Print => {
                // Reads the last report; does not start the VM.
            }
            Command::Histogram | Command::Stats => {
                self.st.started = true;
            }
            Command::ExpectViolations(n) => {
                // Does not start the VM; reads the last explicit report.
                if self.st.exact {
                    let got = self.st.last_report.len();
                    if got != *n {
                        self.fail(
                            line,
                            "expect-will-fail",
                            format!(
                                "this expectation will fail: it expects {n} violation(s) in the last gc, but the analyzer predicts {got}"
                            ),
                        );
                    }
                }
            }
            Command::ExpectTotalViolations(n) => {
                self.st.started = true;
                if self.st.exact {
                    let got = self.st.violation_log.len();
                    if got != *n {
                        self.fail(
                            line,
                            "expect-will-fail",
                            format!(
                                "this expectation will fail: it expects {n} total violation(s), but the analyzer predicts {got}"
                            ),
                        );
                    }
                }
            }
            Command::ExpectLive(var) => {
                self.st.started = true;
                let Some(obj) = self.var(line, var) else {
                    return;
                };
                if self.st.exact && !self.st.objects[obj].alive {
                    self.fail(
                        line,
                        "expect-will-fail",
                        format!(
                            "this expectation will fail: {} is reclaimed by then",
                            self.st.describe(obj)
                        ),
                    );
                }
            }
            Command::ExpectDead(var) => {
                self.st.started = true;
                let Some(obj) = self.var(line, var) else {
                    return;
                };
                if self.st.exact && self.st.objects[obj].alive {
                    self.fail(
                        line,
                        "expect-will-fail",
                        format!(
                            "this expectation will fail: {} is still live by then",
                            self.st.describe(obj)
                        ),
                    );
                }
            }
            Command::ExpectInstances { class, count } => {
                self.st.started = true;
                let Some(cls) = self.class(line, class) else {
                    return;
                };
                if !self.check_running(line) {
                    return;
                }
                if self.st.exact {
                    let got = self.reachable_instances(cls);
                    if got != *count {
                        self.fail(
                            line,
                            "expect-will-fail",
                            format!(
                                "this expectation will fail: it expects {count} live `{class}` instance(s), but the analyzer predicts {got}"
                            ),
                        );
                    }
                }
            }
            Command::Copy { dst, src } => {
                self.st.started = true;
                let Some(obj) = self.var(line, src) else {
                    return;
                };
                self.st.vars.insert(dst.clone(), obj);
            }
            Command::Repeat(_)
            | Command::EndRepeat
            | Command::Proc(_)
            | Command::EndProc
            | Command::Call(_) => {
                unreachable!("structured commands are dispatched by `execute`")
            }
        }
    }

    /// Mirror of `OwnershipTable::add`, including its conflict errors.
    fn assert_owned_by(&mut self, line: usize, owner: ObjId, ownee: ObjId) {
        if owner == ownee {
            self.fail(
                line,
                "ownership-conflict",
                format!("{} cannot own itself", self.st.describe(owner)),
            );
            return;
        }
        if self.st.ownership.iter().any(|e| e.owner == ownee) {
            self.fail(
                line,
                "ownership-conflict",
                format!(
                    "{} is already an owner and cannot become an ownee",
                    self.st.describe(ownee)
                ),
            );
            return;
        }
        if self.st.ownership.iter().any(|e| e.ownees.contains(&owner)) {
            self.fail(
                line,
                "ownership-conflict",
                format!(
                    "{} is already an ownee and cannot become an owner",
                    self.st.describe(owner)
                ),
            );
            return;
        }
        // Re-asserting moves the ownee; the same pair is a no-op.
        if let Some(existing) = self
            .st
            .ownership
            .iter()
            .position(|e| e.ownees.contains(&ownee))
        {
            if self.st.ownership[existing].owner == owner {
                return;
            }
            self.st.ownership[existing].ownees.retain(|&o| o != ownee);
        }
        match self.st.ownership.iter().position(|e| e.owner == owner) {
            Some(i) => self.st.ownership[i].ownees.push(ownee),
            None => self.st.ownership.push(OwnerEntry {
                owner,
                ownees: vec![ownee],
            }),
        }
        self.st.objects[owner].owner = true;
        self.st.objects[ownee].ownee = true;
    }

    /// Mirror of the interpreter's `apply_config`, including its
    /// config-after-start gate and key validation.
    fn exec_config(&mut self, line: usize, key: &str, value: &str) {
        if self.st.started {
            self.fail(
                line,
                "config-after-start",
                "`config` must appear before any other command".to_owned(),
            );
            return;
        }
        if let Err(e) = apply_config(&mut self.st.config, &mut self.blocks.call_limit, key, value) {
            self.fail(
                line,
                "bad-config",
                format!("bad config `{key} {value}`: {e}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn errors(a: &Analysis) -> Vec<&'static str> {
        a.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.code)
            .collect()
    }

    fn warnings(a: &Analysis) -> Vec<&'static str> {
        a.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn clean_script_has_no_diagnostics() {
        let a = analyze("class T\nnew a T\nroot a\ngc\nexpect-violations 0\n").unwrap();
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert_eq!(a.collections.len(), 1);
        assert!(a.collections[0].must.is_empty());
        assert!(!a.has_errors());
    }

    #[test]
    fn dead_but_rooted_is_a_must_with_provenance() {
        let a = analyze("class T\nnew a T\nroot a\nassert-dead a\ngc\n").unwrap();
        assert_eq!(errors(&a), ["dead-reachable"]);
        let d = &a.diagnostics[0];
        assert_eq!(d.line, 5);
        assert!(
            d.notes.iter().any(|n| n.contains("rooted at line 3")),
            "{d:?}"
        );
        assert_eq!(a.collections[0].must, ["dead-reachable T"]);
    }

    #[test]
    fn abstract_path_mirrors_the_heap_route() {
        let a = analyze(
            "class A f\nclass B g\nnew a A\nroot a\nnew b B\nset a.f b\nnew c A\nset b.g c\nassert-dead c\ngc\n",
        )
        .unwrap();
        let d = &a.diagnostics[0];
        let path = d.notes.iter().find(|n| n.starts_with("path: ")).unwrap();
        assert_eq!(
            path,
            "path: a: A (line 3) -.f-> b: B (line 5) -.g-> c: A (line 7)"
        );
    }

    #[test]
    fn use_after_assert_dead_lint_fires() {
        let a =
            analyze("class T f\nnew a T\nroot a\nnew b T\nassert-dead b\nset a.f b\ngc\n").unwrap();
        assert!(
            warnings(&a).contains(&"use-after-assert-dead"),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn unshared_second_store_warns_at_the_store() {
        let a = analyze(
            "class T l r\nnew a T\nroot a\nnew b T\nset a.l b\nassert-unshared b\nset a.r b\ngc\n",
        )
        .unwrap();
        let w: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.code == "unshared-with-two-stores")
            .collect();
        assert_eq!(w.len(), 1, "{:?}", a.diagnostics);
        assert_eq!(w[0].line, 7);
    }

    #[test]
    fn region_escape_warns_before_all_dead() {
        let a = analyze(
            "class Keep f\nclass Tmp\nnew k Keep\nroot k\nstart-region\nnew t Tmp\nset k.f t\nall-dead\ngc\n",
        )
        .unwrap();
        assert!(
            warnings(&a).contains(&"region-escape"),
            "{:?}",
            a.diagnostics
        );
        // And the escape makes all-dead's assertion a must-violation.
        assert!(errors(&a).contains(&"dead-reachable"));
    }

    #[test]
    fn ownership_predictions_are_may_not_must() {
        let a = analyze(
            "class C e\nclass E\nnew c C\nroot c\nnew x E\nroot x\nassert-owned-by c x\ngc\n",
        )
        .unwrap();
        // x is rooted but not reachable through c — the runtime will
        // report not-owned, but the analyzer only claims may.
        assert!(errors(&a).is_empty(), "{:?}", a.diagnostics);
        assert_eq!(warnings(&a), ["not-owned"]);
        assert_eq!(a.collections[0].may, ["not-owned E"]);
        assert!(a.collections[0].must.is_empty());
    }

    #[test]
    fn halt_reaction_latches_and_fails_later_commands() {
        let a =
            analyze("config reaction halt\nclass T\nnew a T\nroot a\nassert-dead a\ngc\nnew b T\n")
                .unwrap();
        assert_eq!(errors(&a), ["dead-reachable", "halted"]);
        assert_eq!(a.diagnostics.last().unwrap().line, 7);
    }

    #[test]
    fn force_true_severs_the_pinning_edge() {
        let a = analyze(
            "config reaction force-true\nclass T f\nnew a T\nroot a\nnew b T\nset a.f b\nassert-dead b\ngc\nexpect-violations 1\ngc\nexpect-dead b\n",
        )
        .unwrap();
        // First gc reports; the severed edge lets b die at the second,
        // so both expectations are predicted to pass.
        assert_eq!(errors(&a), ["dead-reachable"]);
        assert_eq!(a.collections.len(), 2);
        assert!(a.collections[1].must.is_empty());
    }

    #[test]
    fn report_once_suppresses_the_second_cycle() {
        let a = analyze("class T\nnew a T\nroot a\nassert-dead a\ngc\ngc\n").unwrap();
        assert_eq!(a.collections[0].must, ["dead-reachable T"]);
        assert!(a.collections[1].must.is_empty());
    }

    #[test]
    fn report_every_cycle_when_report_once_off() {
        let a =
            analyze("config report-once off\nclass T\nnew a T\nroot a\nassert-dead a\ngc\ngc\n")
                .unwrap();
        assert_eq!(a.collections[0].must, ["dead-reachable T"]);
        assert_eq!(a.collections[1].must, ["dead-reachable T"]);
    }

    #[test]
    fn failing_expectation_is_predicted() {
        let a = analyze("class T\nnew a T\nroot a\ngc\nexpect-dead a\n").unwrap();
        assert_eq!(errors(&a), ["expect-will-fail"]);
        assert_eq!(a.diagnostics[0].line, 5);
    }

    #[test]
    fn runtime_failures_stop_analysis() {
        let a = analyze("class T\nset ghost.f ghost\nnew a T\n").unwrap();
        assert_eq!(errors(&a), ["unknown-variable"]);
        assert_eq!(a.diagnostics.len(), 1);
    }

    #[test]
    fn implicit_collections_are_recorded() {
        // Budget of 6 words fits one 4-word object (2 header + 2 data);
        // the second allocation must collect first, reclaiming the
        // unrooted first object.
        let a = analyze("config heap 6\nclass T\nnew a T 2\nnew b T 2\nroot b\ngc\n").unwrap();
        assert_eq!(a.collections.len(), 2);
        assert!(!a.collections[0].explicit);
        assert!(a.collections[1].explicit);
        assert!(!a.has_errors(), "{:?}", a.diagnostics);
    }

    #[test]
    fn base_mode_rejects_assertions() {
        let a = analyze("config mode base\nclass T\nnew a T\nassert-dead a\n").unwrap();
        assert_eq!(errors(&a), ["base-mode"]);
    }

    #[test]
    fn minor_gc_quirk_stale_marks_survive_to_the_major() {
        // Regression: a minor-gc without generational mode used to leave
        // marks that hid `a` from the next major. It is a no-op now.
        let a =
            analyze("class T\nnew a T\nroot a\nassert-dead a\nminor-gc\ngc\nexpect-violations 1\n")
                .unwrap();
        assert_eq!(errors(&a), ["dead-reachable"]);
        assert_eq!(a.collections[1].must.len(), 1);
    }

    #[test]
    fn scan_resumes_below_an_uncredited_foreign_ownee() {
        // o1's scan marks o2's ownee e2 and truncates; nothing credits
        // e2, so the engine resumes below it and `child` stays alive.
        let a = analyze(
            "class C x y\nnew o1 C\nroot o1\nnew o2 C\nroot o2\nnew e1 C\nset o1.y e1\n\
             assert-owned-by o1 e1\nnew e2 C\nnew child C\nset e2.x child\nset o1.x e2\n\
             assert-owned-by o2 e2\ngc\nset child.x o1\n",
        )
        .unwrap();
        assert!(errors(&a).is_empty(), "{:?}", a.diagnostics);
        assert_eq!(warnings(&a), ["improper-ownership"]);
    }

    #[test]
    fn render_summarizes() {
        let a = analyze("class T\nnew a T\nroot a\nassert-dead a\ngc\n").unwrap();
        let r = a.render();
        assert!(r.contains("error[dead-reachable] line 5"), "{r}");
        assert!(r.contains("1 error(s)"), "{r}");
    }

    /// A list built by a large loop, then severed: the access graph
    /// proves Safe (the retired per-site strawman could only say May —
    /// EXPERIMENTS.md records that comparison).
    const LIST_LOOP: &str = "class Head next\nclass Cell next\nnew head Head\nroot head\ncopy prev head\nrepeat 200\nnew cell Cell\nset prev.next cell\ncopy prev cell\nend-repeat\nset head.next null\nassert-dead prev\ngc\nexpect-violations 0\n";

    #[test]
    fn summarized_loop_earns_safe_where_per_site_says_may() {
        let a = analyze(LIST_LOOP).unwrap();
        assert!(errors(&a).is_empty(), "{:?}", a.diagnostics);
        assert!(warnings(&a).is_empty(), "{:?}", a.diagnostics);
        let gc = &a.collections[0];
        assert!(gc.summarized);
        assert!(gc.must.is_empty());
        assert!(gc.may.is_empty());
    }

    #[test]
    fn small_loops_unroll_exactly_and_keep_must_verdicts() {
        // 3 iterations x 3 commands is far under the unroll limit, so
        // the dead-but-rooted cell is still a *must*, not a may.
        let a = analyze(
            "class T f\nnew a T\nroot a\nrepeat 3\nnew b T\nset a.f b\nend-repeat\nroot b\nassert-dead b\ngc\n",
        )
        .unwrap();
        assert_eq!(errors(&a), ["dead-reachable"], "{:?}", a.diagnostics);
        assert!(a.collections[0].must == ["dead-reachable T"]);
        assert!(!a.collections[0].summarized);
    }

    #[test]
    fn recursive_procs_replay_exactly() {
        // Depth-bounded recursion allocates exactly `call-depth` nodes;
        // exact replay keeps expectation predictions on.
        let a = analyze(
            "config call-depth 4\nclass T f\nnew top T\nroot top\ncopy cur top\nproc grow\nnew child T\nset cur.f child\ncopy cur child\ncall grow\nend-proc\ncall grow\ngc\nexpect-instances T 5\n",
        )
        .unwrap();
        assert!(errors(&a).is_empty(), "{:?}", a.diagnostics);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn block_structure_mismatches_are_errors() {
        let a = analyze("repeat 2\nend-proc\n").unwrap();
        assert_eq!(errors(&a), ["block-structure"]);
        let b = analyze("proc p\nnew a T\n").unwrap();
        assert_eq!(errors(&b), ["block-structure"]);
        let c = analyze("class T\ncall nope\n").unwrap();
        assert_eq!(errors(&c), ["unknown-proc"]);
    }

    #[test]
    fn loop_invariant_assertion_gets_a_note() {
        let a = analyze("class T\nnew a T\nroot a\nrepeat 3\nassert-unshared a\ngc\nend-repeat\n")
            .unwrap();
        let notes: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Note && d.code == "loop-invariant-assertion")
            .collect();
        assert_eq!(notes.len(), 1, "{:?}", a.diagnostics);
        assert_eq!(notes[0].line, 5);
        // Notes never reach the classic transcript.
        assert!(!a.render().contains("loop-invariant"), "{}", a.render());
    }

    #[test]
    fn provably_safe_assert_dead_gets_the_redundancy_note() {
        let a = analyze("class T\nnew a T\nassert-dead a\ngc\n").unwrap();
        let notes: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.code == "redundant-assert-dead")
            .collect();
        assert_eq!(notes.len(), 1, "{:?}", a.diagnostics);
        assert_eq!(notes[0].line, 3);
        assert_eq!(notes[0].severity, Severity::Note);
        // A must-violating assertion never earns the note.
        let b = analyze("class T\nnew a T\nroot a\nassert-dead a\ngc\n").unwrap();
        assert!(
            b.diagnostics
                .iter()
                .all(|d| d.code != "redundant-assert-dead"),
            "{:?}",
            b.diagnostics
        );
    }

    #[test]
    fn summarized_collections_never_promise_must() {
        // Dead-but-rooted *inside* a big loop: the runtime reports it on
        // some iteration, the summary collection may only warn.
        let a = analyze("class T\nrepeat 64\nnew a T\nroot a\nassert-dead a\ngc\nend-repeat\n")
            .unwrap();
        assert!(errors(&a).is_empty(), "{:?}", a.diagnostics);
        for gc in &a.collections {
            assert!(gc.summarized);
            assert!(gc.must.is_empty());
        }
        assert!(
            warnings(&a).contains(&"dead-reachable"),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn unclosed_blocks_fail_like_the_interpreter() {
        let a = analyze("class T\nrepeat 2\nnew a T\n").unwrap();
        assert_eq!(errors(&a), ["block-structure"]);
        assert_eq!(a.diagnostics[0].line, 2);
    }
}
