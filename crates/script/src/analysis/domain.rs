//! The abstract heap domain — the analyzer's only one: an allocation-site
//! points-to graph that widens into a bounded access graph.
//!
//! `.gca` scripts are branch-free and take no input, so the abstract
//! domain never needs to join two states — the forward interpretation
//! tracks a single abstract heap whose objects are allocation sites,
//! whose edges are the ref fields written so far, and whose root set
//! mirrors the mutator stack and global list.  Straight-line code, small
//! loops and depth-bounded recursion are replayed exactly, so flow
//! sensitivity is exactness: every command transforms the one state.
//! Past the replay bounds an object becomes a per-site summary node with
//! weak field edges (see [`AbsObj::summary`] and `super::summary`).  The
//! configuration is not abstracted at all: [`AbsState::config`] is the
//! runtime's own `VmConfig`, filled in by the same `config` table the
//! interpreter uses.
//! The *abstraction* shows up at presentation time instead, as the
//! Safe < May < Must verdict lattice (see `super`): whenever the
//! ownership subsystem is active during a collection the analyzer
//! deliberately downgrades its predictions to **may**, keeping the
//! must-set sound by construction.

use std::collections::HashMap;

use gc_assertions::VmConfig;

/// Index of an abstract object (an allocation site occurrence).
pub(crate) type ObjId = usize;

/// Header words charged per object, mirroring the runtime heap layout.
pub(crate) const HEADER_WORDS: usize = 2;

/// An `assert-instances` limit registered against a class.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InstanceLimit {
    /// Maximum allowed marked instances per collection.
    pub limit: u32,
    /// Line of the registering `assert-instances`.
    pub line: usize,
}

/// A declared class in the abstract program.
#[derive(Debug, Clone)]
pub(crate) struct AbsClass {
    /// Class name as written in the script.
    pub name: String,
    /// Declared ref-field names, in order.
    pub fields: Vec<String>,
    /// `assert-instances` limit, if one was registered.
    pub limit: Option<InstanceLimit>,
    /// Marked-instance count for the collection in progress.
    pub gc_count: u32,
}

/// An abstract object: one `new` occurrence plus its evolving state.
#[derive(Debug, Clone)]
pub(crate) struct AbsObj {
    /// Index into [`AbsState::classes`].
    pub class: usize,
    /// Variable name the object was bound to at allocation.
    pub site_var: String,
    /// 1-based line of the allocating `new`.
    pub site_line: usize,
    /// Ref fields, `None` = null.
    pub fields: Vec<Option<ObjId>>,
    /// Data words (size accounting only).
    pub size_words: usize,
    /// Still allocated (not yet swept).
    pub alive: bool,
    /// `assert-dead` flag (sticky, like the runtime DEAD bit).
    pub dead: bool,
    /// Line of the `assert-dead`, for provenance notes.
    pub dead_line: Option<usize>,
    /// `assert-unshared` flag (sticky).
    pub unshared: bool,
    /// Line of the `assert-unshared`.
    pub unshared_line: Option<usize>,
    /// Currently registered as an ownee.
    pub ownee: bool,
    /// Currently registered as an owner.
    pub owner: bool,
    /// Violation already reported for this object (report-once mode).
    pub reported: bool,
    /// Promoted to the old generation.
    pub old: bool,
    /// In the remembered set (write barrier hit).
    pub remembered: bool,
    /// Mark bit; per-collection.
    pub mark: bool,
    /// OWNED bit; per-collection.
    pub owned: bool,
    /// Allocated inside the region active at its `new`, and that region
    /// has not ended yet (used by the region-escape lint).
    pub region: bool,
    /// Line of the `start-region` whose region allocated this object
    /// (sticky provenance for diagnostics).
    pub region_site: Option<usize>,
    /// A bounded access-graph summary node: this object stands for
    /// *every* allocation its site performs inside a summarized
    /// `repeat`/`proc` body, so field stores to it are weak updates.
    pub summary: bool,
    /// Weak field edges accumulated on a summary node: `(field, target)`
    /// pairs that *some* concretization may hold in addition to
    /// [`AbsObj::fields`].  Never removed — reachability through a
    /// summary node is an over-approximation by construction.
    pub summary_edges: Vec<(usize, ObjId)>,
}

impl AbsObj {
    /// A freshly allocated object: live, every flag clear, fields null.
    pub(crate) fn new(
        class: usize,
        var: &str,
        line: usize,
        nrefs: usize,
        data_words: usize,
    ) -> AbsObj {
        AbsObj {
            class,
            site_var: var.to_owned(),
            site_line: line,
            fields: vec![None; nrefs],
            size_words: data_words,
            alive: true,
            dead: false,
            dead_line: None,
            unshared: false,
            unshared_line: None,
            ownee: false,
            owner: false,
            reported: false,
            old: false,
            remembered: false,
            mark: false,
            owned: false,
            region: false,
            region_site: None,
            summary: false,
            summary_edges: Vec::new(),
        }
    }

    /// Total heap words the object occupies.
    pub(crate) fn total_words(&self) -> usize {
        HEADER_WORDS + self.fields.len() + self.size_words
    }
}

/// One owner's entry in the abstract ownership table.
#[derive(Debug, Clone)]
pub(crate) struct OwnerEntry {
    /// The owning object.
    pub owner: ObjId,
    /// Its registered ownees.
    pub ownees: Vec<ObjId>,
}

/// The whole abstract machine state threaded through the forward
/// interpretation.
#[derive(Debug, Default)]
pub(crate) struct AbsState {
    /// The script's `config` lines applied to the runtime's own type.
    /// `heap_budget` doubles when the modeled heap grows; the collector
    /// backend, minor strategy and worker count never change a verdict,
    /// so the abstract collections do not read them.
    pub config: VmConfig,
    /// Declared classes.
    pub classes: Vec<AbsClass>,
    /// Class name → index.
    pub class_by_name: HashMap<String, usize>,
    /// All abstract objects ever allocated, by id.
    pub objects: Vec<AbsObj>,
    /// Variable bindings (may alias, may be rebound).
    pub vars: HashMap<String, ObjId>,
    /// Global roots with the line that added them, in push order.
    pub globals: Vec<(ObjId, usize)>,
    /// Mutator stack roots with their provenance line; frames partition
    /// this by index.
    pub roots: Vec<(ObjId, usize)>,
    /// Frame boundaries: indices into `roots` at each `frame`.
    pub frames: Vec<usize>,
    /// Ownership table, in registration order.
    pub ownership: Vec<OwnerEntry>,
    /// Remembered set, in barrier-hit order.
    pub remembered: Vec<ObjId>,
    /// Minor collections since the last major one.
    pub minors_since_major: usize,
    /// Whether a region is currently open, and its allocations.
    pub region_open: bool,
    /// Line of the active `start-region`.
    pub region_line: usize,
    /// Allocations of the active (or queued) regions awaiting `all-dead`.
    pub region_queue: Vec<ObjId>,
    /// Occupied heap words.
    pub occupied: usize,
    /// VM refused further mutation after a halt-reaction violation.
    pub halted: bool,
    /// Any command has started the VM (config gate mirror).
    pub started: bool,
    /// Ownership was ever active during a collection: the analyzer's
    /// exactness flag for expectation predictions is cleared.
    pub exact: bool,
    /// Summary node per allocation-site line, created while a block is
    /// being summarized and reused on every later round/iteration.
    pub summary_by_line: HashMap<usize, ObjId>,
    /// A block was ever summarized: collections switch permanently to
    /// the over-approximating access-graph collector (flag state such as
    /// report-once suppression can no longer be tracked exactly).
    pub summarized_ever: bool,
    /// A summarization fixpoint failed to converge or a work cap tripped
    /// mid-replay, so the abstract heap may be missing edges: collections
    /// treat every live object as may-reachable and claim Safe for
    /// nothing.
    pub havoc: bool,
    /// Occupancy can no longer be tracked exactly (a summarized loop's
    /// total allocation is unknown): implicit-collection and
    /// out-of-memory prediction are disabled.
    pub occupancy_unknown: bool,
    /// Violations predicted for the last *explicit* `gc`.
    pub last_report: Vec<super::collect::PredViolation>,
    /// All predicted violations, cumulative (mirror of the violation log).
    pub violation_log: Vec<super::collect::PredViolation>,
}

impl AbsState {
    /// Fresh pre-start state.  The mutator begins with its base frame
    /// already on the stack, mirroring `Mutator::new`.
    pub(crate) fn new() -> AbsState {
        AbsState {
            exact: true,
            frames: vec![0],
            ..AbsState::default()
        }
    }

    /// The object bound to `var`, if any.
    pub(crate) fn lookup(&self, var: &str) -> Option<ObjId> {
        self.vars.get(var).copied()
    }

    /// Incoming reference count for `obj`: heap edges from live objects
    /// (weak summary edges included) plus stack roots plus globals.
    /// Drives the `unshared-with-two-stores` lint.
    pub(crate) fn incoming(&self, obj: ObjId) -> usize {
        let heap_edges = self
            .objects
            .iter()
            .filter(|o| o.alive)
            .flat_map(|o| o.fields.iter())
            .filter(|f| **f == Some(obj))
            .count();
        let weak_edges = self
            .objects
            .iter()
            .filter(|o| o.alive)
            .flat_map(|o| o.summary_edges.iter())
            .filter(|(_, t)| *t == obj)
            .count();
        let roots = self.roots.iter().filter(|(r, _)| *r == obj).count();
        let globals = self.globals.iter().filter(|(g, _)| *g == obj).count();
        heap_edges + weak_edges + roots + globals
    }

    /// `label (Class, line N)` for messages and abstract paths.
    pub(crate) fn describe(&self, obj: ObjId) -> String {
        let o = &self.objects[obj];
        format!(
            "{}: {} (line {})",
            o.site_var, self.classes[o.class].name, o.site_line
        )
    }

    /// The roots in the exact order the runtime scans them: globals in
    /// push order, then the mutator stack bottom-up.
    pub(crate) fn gather_roots(&self) -> Vec<ObjId> {
        self.globals
            .iter()
            .map(|(g, _)| *g)
            .chain(self.roots.iter().map(|(r, _)| *r))
            .collect()
    }

    /// Root provenance: line where `obj` was most recently rooted (stack
    /// or global), if it is directly rooted right now.
    pub(crate) fn rooted_at(&self, obj: ObjId) -> Option<usize> {
        self.roots
            .iter()
            .chain(self.globals.iter())
            .filter(|(r, _)| *r == obj)
            .map(|(_, line)| *line)
            .next_back()
    }
}
