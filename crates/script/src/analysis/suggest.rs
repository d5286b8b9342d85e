//! `gca suggest`: assertion auto-placement for unannotated scripts.
//!
//! The generator runs the script *concretely* through the interpreter
//! and, after every step, asks the VM one probe survey
//! ([`Vm::probe_survey`](gc_assertions::Vm::probe_survey)): which
//! top-level allocations are still reachable, and how many live
//! instances each declared class has.  That is one plain traversal per
//! step however many objects and classes are tracked — the batching the
//! paper's assertions do, applied to the queries that observe the run.
//! From the observed lifetimes it proposes maximal sound placements:
//!
//! * `assert-dead <var>` at last use — inserted right before the step
//!   that makes the object permanently unreachable;
//! * `start-region` / `all-dead` brackets around a contiguous birth
//!   span of objects that all die before the next collection (member
//!   objects then need no individual `assert-dead`);
//! * `assert-instances <Class> <limit>` after the class declaration,
//!   with the census suggested-limit formula
//!   `(peak + peak/4).max(peak + 1)` headroom over the observed peak.
//!
//! Every proposal is then **verified by splice-execute-recheck**: the
//! suggestion is spliced into the source, the result must run with zero
//! violations *and* come back clean from `analyze` — candidates that
//! fail are dropped, so the emitted set is sound by construction, not
//! by argument.  What *is* argued (DESIGN.md §15) is that verifying every
//! pending group in one splice — or every group but those the observed
//! timelines suspect, and then each suspect on its own — and searching
//! for the first failing group only when that fails, accepts exactly what
//! verifying the groups one at a time would.

use std::collections::HashMap;

use crate::ast::{parse_script, Command};
use crate::error::ScriptError;
use crate::interp::Interpreter;

use gc_assertions::{ClassId, ObjRef, Reaction};

/// One verified placement: insert `text` as a new line immediately
/// before 1-based source line `before_line` (one past the last source
/// line appends).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suggestion {
    /// 1-based source line the new command goes in front of.
    pub before_line: usize,
    /// The command to insert, without a trailing newline.
    pub text: String,
    /// Human-readable evidence from the observation run.
    pub reason: String,
}

/// The result of a suggestion run.
#[derive(Debug)]
pub struct SuggestOutcome {
    /// Verified placements, in splice order.
    pub suggestions: Vec<Suggestion>,
    /// The script already carries assertions (or disables them):
    /// suggestion declined, with the reason.
    pub refused: Option<String>,
    /// Candidate placements the verification pass rejected.
    pub rejected: usize,
}

impl SuggestOutcome {
    /// Renders the human transcript: one `@ line N: + command` block per
    /// placement, plus a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(reason) = &self.refused {
            out.push_str(&format!("suggest: declined — {reason}\n"));
            return out;
        }
        for s in &self.suggestions {
            out.push_str(&format!("@ line {}: + {}\n", s.before_line, s.text));
            out.push_str(&format!("    reason: {}\n", s.reason));
        }
        out.push_str(&format!(
            "suggest: {} placement(s), {} candidate(s) rejected by splice-and-verify\n",
            self.suggestions.len(),
            self.rejected
        ));
        out
    }
}

/// Splices `suggestions` into `src`: each suggestion's `text` becomes a
/// new line immediately before its `before_line` (stable for multiple
/// suggestions at one line, in slice order).  All line numbers refer to
/// the *original* source.
pub fn apply_suggestions(src: &str, suggestions: &[Suggestion]) -> String {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        for s in suggestions {
            if s.before_line == i + 1 {
                out.push_str(&s.text);
                out.push('\n');
            }
        }
        out.push_str(line);
        out.push('\n');
    }
    for s in suggestions {
        if s.before_line > lines.len() {
            out.push_str(&s.text);
            out.push('\n');
        }
    }
    out
}

/// The census suggested-limit formula (see `gca-telemetry`'s census
/// detector): 25% headroom over the observed peak, and at least one.
fn suggest_limit(observed: u32) -> u32 {
    (observed + observed / 4).max(observed + 1)
}

/// What the observation run learned about one top-level allocation.
#[derive(Debug)]
struct TrackedObj {
    var: String,
    class: String,
    /// Step index of the allocating `new`.
    born: usize,
    /// 1-based source line of the allocating `new`.
    born_line: usize,
    obj: ObjRef,
    /// Per-step: reachable from the roots after that step ran.
    reachable: Vec<bool>,
    /// Per-step: the site variable still binds this object.
    bound: Vec<bool>,
}

/// Commands that mean the script is already annotated (or has opted out
/// of assertion checking) — suggestion declines rather than second-guess
/// the author.
fn annotation_reason(cmd: &Command) -> Option<&'static str> {
    match cmd {
        Command::AssertDead(_) => Some("the script already uses `assert-dead`"),
        Command::AssertUnshared(_) => Some("the script already uses `assert-unshared`"),
        Command::AssertInstances { .. } => Some("the script already uses `assert-instances`"),
        Command::AssertOwnedBy { .. } => Some("the script already uses `assert-owned-by`"),
        Command::ReleaseOwnee(_) => Some("the script already uses `release-ownee`"),
        Command::StartRegion | Command::AllDead => {
            Some("the script already uses region assertions")
        }
        Command::Config { key, value } if key == "mode" && value == "base" => {
            Some("assertions are disabled (`config mode base`)")
        }
        _ => None,
    }
}

/// Proposes and verifies assertion placements for `src`.
///
/// # Errors
///
/// Parse errors, or the failure of the *unmodified* script's observation
/// run — a script that cannot run cleanly (including one that leaves a
/// `repeat`/`proc` block open) has nothing to suggest over.
pub fn suggest(src: &str) -> Result<SuggestOutcome, ScriptError> {
    let commands = parse_script(src)?;
    for (_, cmd) in &commands {
        if let Some(reason) = annotation_reason(cmd) {
            return Ok(SuggestOutcome {
                suggestions: Vec::new(),
                refused: Some(reason.to_owned()),
                rejected: 0,
            });
        }
    }
    let c = candidates(&commands)?;
    let (suggestions, rejected) = verify_groups(&c.groups, &c.suspect, c.reaction, |trial| {
        verify(src, trial)
    });
    Ok(SuggestOutcome {
        suggestions,
        refused: None,
        rejected,
    })
}

/// What the observation run proposes for verification.
#[derive(Debug)]
struct Candidates {
    /// Atomic groups of placements (a region's `start-region`/`all-dead`
    /// pair stands or falls together), in the order verification
    /// considers them.
    groups: Vec<Vec<Suggestion>>,
    /// Per group: the observed timelines already show a violation it
    /// would report.  A hint for where to look, never a verdict.
    suspect: Vec<bool>,
    /// The reaction the script runs under, which decides how
    /// verification may batch the groups.
    reaction: Reaction,
}

/// Observes one run of `commands` and proposes candidate placements.
fn candidates(commands: &[(usize, Command)]) -> Result<Candidates, ScriptError> {
    // ---- Observation run: feed the commands one by one and, after every
    // step, survey the live heap once.
    let mut interp = Interpreter::new();
    let mut tracked: Vec<TrackedObj> = Vec::new();
    // Per step: whether it was fed at top level (a new command may be
    // inserted in front of it) rather than recorded into a block body.
    let mut anchors: Vec<bool> = Vec::with_capacity(commands.len());
    let mut gc_steps: Vec<usize> = Vec::new();
    let mut class_decl_step: HashMap<String, usize> = HashMap::new();
    let mut peak_instances: HashMap<String, u32> = HashMap::new();

    for (step, (line, cmd)) in commands.iter().enumerate() {
        let top_level = !interp.is_recording();
        anchors.push(top_level);
        interp.execute(*line, cmd)?;
        if top_level {
            match cmd {
                Command::New { var, class, .. } => {
                    if let Some(obj) = interp.binding(var) {
                        // Never reachable before the step that allocates it.
                        tracked.push(TrackedObj {
                            var: var.clone(),
                            class: class.clone(),
                            born: step,
                            born_line: *line,
                            obj,
                            reachable: vec![false; step],
                            bound: vec![false; step],
                        });
                    }
                }
                Command::Class { name, .. } => {
                    class_decl_step.entry(name.clone()).or_insert(step);
                }
                Command::Gc | Command::MinorGc => gc_steps.push(step),
                _ => {}
            }
        }
        // One traversal answers every tracked object and every declared
        // class.  A swept object's stale reference answers unreachable; a
        // survey that fails (a halted VM) sees nothing reachable and
        // records no peak.
        let targets: Vec<ObjRef> = tracked.iter().map(|t| t.obj).collect();
        let (classes, ids): (Vec<&String>, Vec<ClassId>) = class_decl_step
            .keys()
            .filter_map(|c| Some((c, interp.class_id(c)?)))
            .unzip();
        let (reachable, counts) = interp
            .vm_mut_opt()
            .and_then(|vm| vm.probe_survey(&targets, &ids).ok())
            .unwrap_or_else(|| (vec![false; targets.len()], Vec::new()));
        for (t, reachable) in tracked.iter_mut().zip(reachable) {
            t.reachable.push(reachable);
            t.bound.push(interp.binding(&t.var) == Some(t.obj));
        }
        for (class, n) in classes.into_iter().zip(counts) {
            let peak = peak_instances.entry(class.clone()).or_insert(0);
            *peak = (*peak).max(n);
        }
    }
    interp.end_of_script()?;
    let steps = commands.len();

    // The first step at or after `from` where a new command may be
    // inserted: top-level boundaries only, never inside a recorded body.
    let next_anchor = |from: usize| -> Option<usize> { (from..steps).find(|&s| anchors[s]) };

    // ---- Candidate generation.  Candidates form atomic *groups* — a
    // region's start-region/all-dead pair stands or falls together —
    // each with its suspect flag.
    let mut groups: Vec<(Vec<Suggestion>, bool)> = Vec::new();

    // Death step per object: the first step from which it is never
    // reachable again (None while it stays reachable to the end).
    let deaths: Vec<Option<usize>> = tracked
        .iter()
        .map(|t| {
            let mut d = None;
            for s in t.born..steps {
                if t.reachable[s] {
                    d = None;
                } else if d.is_none() {
                    d = Some(s);
                }
            }
            d
        })
        .collect();

    // Region brackets: a run of >= 2 consecutive dying top-level births
    // with no collection in between, closed once every member is dead.
    let mut in_region: Vec<bool> = vec![false; tracked.len()];
    let mut i = 0;
    while i < tracked.len() {
        if deaths[i].is_none() || !anchors[tracked[i].born] {
            i += 1;
            continue;
        }
        let mut j = i;
        while j + 1 < tracked.len()
            && deaths[j + 1].is_some()
            && anchors[tracked[j + 1].born]
            && !gc_steps
                .iter()
                .any(|&g| g > tracked[j].born && g < tracked[j + 1].born)
        {
            j += 1;
        }
        if j > i {
            let last_death = (i..=j).map(|k| deaths[k].expect("span members die")).max();
            let last_born = tracked[j].born;
            let want = last_death.expect("non-empty span").max(last_born + 1);
            if let Some(close) = next_anchor(want) {
                let no_gc_inside = !gc_steps.iter().any(|&g| g >= tracked[i].born && g < close);
                if no_gc_inside {
                    let open_line = commands[tracked[i].born].0;
                    // The bracket also takes in what is allocated after its
                    // last member and before its close: one of those still
                    // reachable at the next collection would be reported.
                    let suspect = gc_steps.iter().find(|&&g| g >= close).is_some_and(|&g| {
                        tracked[j + 1..]
                            .iter()
                            .take_while(|t| t.born < close)
                            .any(|t| t.reachable[g])
                    });
                    let bracket = vec![
                        Suggestion {
                            before_line: open_line,
                            text: "start-region".to_owned(),
                            reason: format!(
                                "{} allocation(s) on lines {}-{} all die before the next collection",
                                j - i + 1,
                                open_line,
                                commands[last_born].0,
                            ),
                        },
                        Suggestion {
                            before_line: commands[close].0,
                            text: "all-dead".to_owned(),
                            reason: "every allocation of the region above is unreachable here"
                                .to_owned(),
                        },
                    ];
                    groups.push((bracket, suspect));
                    in_region[i..=j].fill(true);
                }
            }
        }
        i = j + 1;
    }

    // assert-dead at last use, for objects not covered by a region.
    for (k, t) in tracked.iter().enumerate() {
        if in_region[k] {
            continue;
        }
        let Some(d) = deaths[k] else { continue };
        // Insert right before the killing step (or right after the
        // allocation when the object was never reachable), snapped
        // forward to a top-level boundary.
        let want = d.max(t.born + 1);
        let Some(at) = next_anchor(want) else {
            continue;
        };
        // The site variable must still name the object where the
        // assertion lands.
        if at == 0 || !t.bound[at - 1] {
            continue;
        }
        groups.push((
            vec![Suggestion {
                before_line: commands[at].0,
                text: format!("assert-dead {}", t.var),
                reason: format!(
                    "{}: {} (line {}) is unreachable from here to the end of the run",
                    t.var, t.class, t.born_line
                ),
            }],
            false,
        ));
    }

    // assert-instances after each class declaration with a tracked peak.
    let mut classes: Vec<(&String, usize)> = class_decl_step.iter().map(|(c, &s)| (c, s)).collect();
    classes.sort();
    for (class, decl_step) in classes {
        let Some(&peak) = peak_instances.get(class) else {
            continue;
        };
        if peak == 0 || !anchors[decl_step] {
            continue;
        }
        let limit = suggest_limit(peak);
        groups.push((
            vec![Suggestion {
                before_line: commands[decl_step].0 + 1,
                text: format!("assert-instances {class} {limit}"),
                reason: format!(
                    "observed peak of {peak} live `{class}` instance(s); limit adds census headroom"
                ),
            }],
            false,
        ));
    }

    groups.sort_by_key(|(g, _)| (g[0].before_line, g[0].text.clone()));
    let (groups, suspect) = groups.into_iter().unzip();
    Ok(Candidates {
        groups,
        suspect,
        reaction: interp.reaction(),
    })
}

/// Splice-execute-recheck over candidate `groups`, in order: returns the
/// accepted placements in splice order and the number of rejected ones —
/// exactly what verifying one group at a time on top of those accepted
/// before it gives.  A trial is always the accepted placements plus the
/// next groups in order, stable-sorted by line.
///
/// Under the `log` reaction the verdict is monotone in the spliced set
/// (DESIGN.md §15), so each round verifies *every* pending group in one
/// splice.  If that fails, an exponential search from the front (1, 2,
/// 4, … groups, then bisection inside the last doubling) finds the first
/// failing prefix; its last group is the one the one-at-a-time loop would
/// reject.  When some pending groups are `suspect`, the round splices
/// all the others instead and, if that verifies, tries each suspect on
/// top of what precedes it — one run per suspect, wherever it sits, so a
/// script pays for each rejection the observation predicted, not for a
/// search.  A suspect that passes is accepted and the next round starts
/// after it; a splice of the others that fails goes to the search.
/// Under any other reaction a round spans one group, which *is* the
/// one-at-a-time loop, and suspects change nothing.  Either way `verify`
/// runs at most twice per group, and once in total when everything
/// passes and nothing is suspect.
fn verify_groups(
    groups: &[Vec<Suggestion>],
    suspect: &[bool],
    reaction: Reaction,
    mut verify: impl FnMut(&[Suggestion]) -> bool,
) -> (Vec<Suggestion>, usize) {
    let monotone = reaction == Reaction::Log;
    let mut accepted: Vec<Suggestion> = Vec::new();
    let mut rejected = 0;
    let mut next = 0;
    'rounds: while next < groups.len() {
        let pending = &groups[next..];
        let span = if monotone { pending.len() } else { 1 };
        if monotone && suspect[next..].contains(&true) {
            let cleared: Vec<&Vec<Suggestion>> = pending
                .iter()
                .zip(&suspect[next..])
                .filter_map(|(g, &s)| (!s).then_some(g))
                .collect();
            if cleared.is_empty() || verify(&splice(&accepted, cleared)) {
                // Every trial of a cleared group is a subset of that splice.
                for (k, (g, &s)) in pending.iter().zip(&suspect[next..]).enumerate() {
                    let t = splice(&accepted, [g]);
                    if !s {
                        accepted = t;
                    } else if verify(&t) {
                        // What follows was cleared without this group.
                        accepted = t;
                        next += k + 1;
                        continue 'rounds;
                    } else {
                        rejected += g.len();
                    }
                }
                break;
            }
            // The whole span contains that failing splice, so it fails
            // too: search without verifying it.
        } else {
            let whole = splice(&accepted, &pending[..span]);
            if verify(&whole) {
                accepted = whole;
                next += span;
                continue;
            }
        }
        // `accepted` plus the first `n` pending groups.
        let trial = |n: usize| splice(&accepted, &pending[..n]);
        // Invariant: the first `pass` groups verify, the first `fail` do not.
        let (mut pass, mut fail) = (0, span);
        let mut size = 1;
        while size < fail {
            if verify(&trial(size)) {
                pass = size;
                size *= 2;
            } else {
                fail = size;
            }
        }
        while fail - pass > 1 {
            let mid = pass + (fail - pass) / 2;
            if verify(&trial(mid)) {
                pass = mid;
            } else {
                fail = mid;
            }
        }
        accepted = trial(pass);
        rejected += pending[fail - 1].len();
        next += fail;
    }
    (accepted, rejected)
}

/// `accepted` plus `groups` in order, stable-sorted by line: the trial
/// the one-at-a-time loop builds when it adds `groups` to `accepted`.
fn splice<'a>(
    accepted: &[Suggestion],
    groups: impl IntoIterator<Item = &'a Vec<Suggestion>>,
) -> Vec<Suggestion> {
    let mut t = accepted.to_vec();
    t.extend(groups.into_iter().flatten().cloned());
    t.sort_by_key(|s| s.before_line);
    t
}

/// The soundness gate: the spliced script must execute with zero
/// violations and come back from the static checker with no errors.
fn verify(src: &str, suggestions: &[Suggestion]) -> bool {
    let spliced = apply_suggestions(src, suggestions);
    match Interpreter::run_script(&spliced) {
        Ok(out) if out.total_violations == 0 => {}
        _ => return false,
    }
    match super::analyze(&spliced) {
        Ok(a) => !a.has_errors(),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn suggests_assert_dead_at_last_use() {
        let src = "class T\nnew a T\nroot a\nnew b T\nset a.f b\ngc\n";
        // b has no field on T — use a class with a field instead.
        let src = src.replace("class T", "class T f");
        let out = suggest(&src).unwrap();
        assert!(out.refused.is_none());
        // Nothing dies here (both stay reachable), so no assert-dead;
        // instance limits are still proposed.
        assert!(
            out.suggestions
                .iter()
                .all(|s| !s.text.starts_with("assert-dead")),
            "{out:?}"
        );
        assert!(
            out.suggestions
                .iter()
                .any(|s| s.text.starts_with("assert-instances T")),
            "{out:?}"
        );
    }

    #[test]
    fn dead_temporary_gets_an_assert_dead() {
        let src = "class Keep\nclass Tmp\nnew k Keep\nroot k\nnew t Tmp\ngc\nexpect-violations 0\n";
        let out = suggest(src).unwrap();
        let dead: Vec<_> = out
            .suggestions
            .iter()
            .filter(|s| s.text == "assert-dead t")
            .collect();
        assert_eq!(dead.len(), 1, "{out:?}");
        // Right after the allocation on line 5 — before the gc on 6.
        assert_eq!(dead[0].before_line, 6);
        // And the spliced result still runs clean end to end.
        let spliced = apply_suggestions(src, &out.suggestions);
        let run = Interpreter::run_script(&spliced).unwrap();
        assert_eq!(run.total_violations, 0, "{spliced}");
    }

    #[test]
    fn annotated_scripts_are_declined() {
        let out = suggest("class T\nnew a T\nassert-dead a\ngc\n").unwrap();
        assert!(out.refused.is_some());
        assert!(out.suggestions.is_empty());
    }

    #[test]
    fn region_bracket_covers_a_birth_span() {
        let src = "class Keep\nclass Tmp\nnew k Keep\nroot k\nnew t1 Tmp\nnew t2 Tmp\nnew t3 Tmp\nprobe k\ngc\nexpect-violations 0\n";
        let out = suggest(src).unwrap();
        assert!(
            out.suggestions.iter().any(|s| s.text == "start-region"),
            "{out:?}"
        );
        assert!(
            out.suggestions.iter().any(|s| s.text == "all-dead"),
            "{out:?}"
        );
        // Members need no individual assert-dead.
        assert!(
            out.suggestions
                .iter()
                .all(|s| !s.text.starts_with("assert-dead t")),
            "{out:?}"
        );
        let spliced = apply_suggestions(src, &out.suggestions);
        let run = Interpreter::run_script(&spliced).unwrap();
        assert_eq!(run.total_violations, 0, "{spliced}");
    }

    #[test]
    fn splice_is_stable_and_line_addressed() {
        let src = "a\nb\nc\n";
        let s = vec![
            Suggestion {
                before_line: 2,
                text: "x".to_owned(),
                reason: String::new(),
            },
            Suggestion {
                before_line: 4,
                text: "y".to_owned(),
                reason: String::new(),
            },
        ];
        assert_eq!(apply_suggestions(src, &s), "a\nx\nb\nc\ny\n");
    }

    // ---- The verification loop against the one-group-at-a-time loop it
    // replaced, and the monotonicity that makes the two agree.

    /// SplitMix64: the seeded source of generated scripts and subsets.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn coin(&mut self) -> bool {
            self.below(2) == 0
        }
    }

    /// How many scripts `straight_line` generates per test (seeds 1..=).
    const GENERATED: u64 = 40;

    /// An unannotated straight-line script in the shape of the
    /// benchmark's generated `script_pipeline` family: a rooted ballast
    /// list built in a loop, holders with item slots, items attached and
    /// detached, `gc`s in between.  Items die (overwritten or detached)
    /// between births of items that survive, so some region candidates
    /// enclose a survivor and fail verification: some seeds exercise
    /// rejection.
    fn straight_line(seed: u64) -> String {
        use std::fmt::Write as _;
        const FIELDS: usize = 4;
        let mut rng = Rng(seed);
        let holders = 2 + rng.below(3);
        let ballast = 10 + rng.below(30);
        let steps = 20 + rng.below(30);
        let mut src = format!(
            "class Holder f0 f1 f2 f3\nclass Item\nclass Ballast next\nnew bhead Ballast\n\
             root bhead\ncopy bprev bhead\nrepeat {ballast}\nnew bcell Ballast 2\n\
             set bprev.next bcell\ncopy bprev bcell\nend-repeat\n"
        );
        for h in 0..holders {
            let _ = writeln!(src, "new h{h} Holder\nroot h{h}");
        }
        let mut attached = vec![false; holders * FIELDS];
        let mut items = 0;
        for _ in 0..steps {
            let slot = rng.below(attached.len());
            let (h, f) = (slot / FIELDS, slot % FIELDS);
            match rng.below(10) {
                0..=5 => {
                    let data = rng.below(4);
                    let _ = writeln!(src, "new i{items} Item {data}\nset h{h}.f{f} i{items}");
                    attached[slot] = true;
                    items += 1;
                }
                6..=7 => {
                    if std::mem::take(&mut attached[slot]) {
                        let _ = writeln!(src, "set h{h}.f{f} null");
                    }
                }
                _ => src.push_str("gc\n"),
            }
        }
        src.push_str("gc\n");
        src
    }

    /// The verification loop `verify_groups` replaced, verbatim: each
    /// group verified on top of the groups accepted before it.  The
    /// oracle the new loop must agree with.
    fn greedy(
        groups: Vec<Vec<Suggestion>>,
        mut verify: impl FnMut(&[Suggestion]) -> bool,
    ) -> (Vec<Suggestion>, usize) {
        let mut accepted: Vec<Suggestion> = Vec::new();
        let mut rejected = 0;
        for group in groups {
            let mut trial = accepted.clone();
            trial.extend(group.iter().cloned());
            trial.sort_by_key(|s| s.before_line);
            if verify(&trial) {
                accepted = trial;
            } else {
                rejected += group.len();
            }
        }
        (accepted, rejected)
    }

    /// `n` groups of one or two placements at random lines; a placement's
    /// text is its group's index.
    fn fake_groups(rng: &mut Rng, n: usize) -> Vec<Vec<Suggestion>> {
        (0..n)
            .map(|g| {
                (0..1 + rng.below(2))
                    .map(|_| Suggestion {
                        before_line: 1 + rng.below(20),
                        text: g.to_string(),
                        reason: String::new(),
                    })
                    .collect()
            })
            .collect()
    }

    /// The group indices a fake trial contains.
    fn present(trial: &[Suggestion]) -> HashSet<usize> {
        trial
            .iter()
            .map(|s| s.text.parse().expect("fake text is an index"))
            .collect()
    }

    /// Per group: whether the one-at-a-time loop rejects it.
    fn greedy_rejects(
        groups: &[Vec<Suggestion>],
        verify: impl Fn(&[Suggestion]) -> bool,
    ) -> Vec<bool> {
        let mut accepted = Vec::new();
        groups
            .iter()
            .map(|g| {
                let t = splice(&accepted, [g]);
                let passes = verify(&t);
                if passes {
                    accepted = t;
                }
                !passes
            })
            .collect()
    }

    #[test]
    fn verify_groups_agrees_with_greedy_on_monotone_verdicts() {
        let mut rng = Rng(7);
        for case in 0..600 {
            let n = rng.below(65);
            let groups = fake_groups(&mut rng, n);
            // A trial fails exactly when it contains one of these sets of
            // groups: a monotone verdict.  The empty set fails everything.
            let forbidden: Vec<Vec<usize>> = match case % 3 {
                0 => Vec::new(),
                1 => vec![Vec::new()],
                _ => (0..rng.below(6))
                    .map(|_| (0..1 + rng.below(3)).map(|_| rng.below(n.max(1))).collect())
                    .collect(),
            };
            let verdict = |trial: &[Suggestion]| {
                let present = present(trial);
                !forbidden
                    .iter()
                    .any(|f| f.iter().all(|g| present.contains(g)))
            };
            // Suspects as a hint: none, exactly the groups greedy rejects,
            // or any groups at all.
            let exact = greedy_rejects(&groups, verdict);
            let suspect: Vec<bool> = match case % 4 {
                0 => vec![false; n],
                1 => exact.clone(),
                _ => (0..n).map(|_| rng.coin()).collect(),
            };
            let mut calls = 0;
            let got = verify_groups(&groups, &suspect, Reaction::Log, |t| {
                calls += 1;
                verdict(t)
            });
            assert_eq!(got, greedy(groups.clone(), verdict), "case {case}");
            assert!(calls <= 2 * n, "case {case}: {calls} calls for {n} groups");
            if forbidden.is_empty() && !suspect.contains(&true) {
                assert_eq!(calls, usize::from(n > 0), "case {case}: all pass");
            }
            if suspect == exact {
                let rejections = exact.iter().filter(|&&r| r).count();
                assert!(
                    calls <= 1 + rejections,
                    "case {case}: {calls} calls for {rejections} foreseen rejections"
                );
            }
        }
    }

    #[test]
    fn non_log_reactions_take_span_one() {
        use std::hash::{Hash, Hasher};
        // An arbitrary verdict, not monotone: only the one-at-a-time loop
        // itself is bound to agree with the oracle on it.
        let mut rng = Rng(11);
        for reaction in [Reaction::Halt, Reaction::ForceTrue] {
            for case in 0..100 {
                let n = rng.below(65);
                let groups = fake_groups(&mut rng, n);
                let suspect: Vec<bool> = (0..n).map(|_| rng.coin()).collect();
                let salt = rng.below(1 << 20);
                let verdict = |trial: &[Suggestion]| {
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    salt.hash(&mut h);
                    for s in trial {
                        (s.before_line, &s.text).hash(&mut h);
                    }
                    !h.finish().is_multiple_of(3)
                };
                let mut calls = 0;
                let got = verify_groups(&groups, &suspect, reaction, |t| {
                    calls += 1;
                    verdict(t)
                });
                assert_eq!(
                    got,
                    greedy(groups.clone(), verdict),
                    "{reaction:?} case {case}"
                );
                assert_eq!(calls, n, "{reaction:?} case {case}: one call per group");
            }
        }
    }

    #[test]
    fn real_verdicts_are_monotone_on_generated_scripts() {
        // verify(T) ⇒ verify(S) for S ⊆ T: what lets one splice of every
        // group stand for every one-at-a-time prefix under `log`.
        let mut rng = Rng(42);
        let (mut passing, mut rejecting) = (0, 0);
        for seed in 1..=GENERATED {
            let src = straight_line(seed);
            let Candidates {
                groups, reaction, ..
            } = candidates(&parse_script(&src).unwrap()).unwrap();
            assert_eq!(reaction, Reaction::Log);
            if !verify(&src, &splice(&[], &groups)) {
                rejecting += 1;
            }
            for _ in 0..3 {
                let t: Vec<&Vec<Suggestion>> = groups.iter().filter(|_| rng.coin()).collect();
                let s: Vec<&Vec<Suggestion>> = t.iter().copied().filter(|_| rng.coin()).collect();
                if verify(&src, &splice(&[], t.iter().copied())) {
                    passing += 1;
                    assert!(
                        verify(&src, &splice(&[], s.iter().copied())),
                        "seed {seed}: {s:?} of {t:?}"
                    );
                }
            }
        }
        assert!(passing >= GENERATED, "only {passing} passing supersets");
        assert!(rejecting > 0, "no generated script rejects a candidate");
    }

    #[test]
    fn observed_timelines_foresee_the_rejected_regions() {
        // On the generated scripts every rejection is a region bracket
        // that takes in a survivor, which the timelines show: verification
        // then costs one run per script plus one per rejected group.
        let fixture = include_str!("../../tests/fixtures/suggest/region_rejected.gca");
        let generated = (1..=GENERATED).map(straight_line);
        let mut foreseen = 0;
        for src in std::iter::once(fixture.to_owned()).chain(generated) {
            let c = candidates(&parse_script(&src).unwrap()).unwrap();
            let exact = greedy_rejects(&c.groups, |t| verify(&src, t));
            assert_eq!(c.suspect, exact, "{src}");
            let mut calls = 0;
            verify_groups(&c.groups, &c.suspect, c.reaction, |t| {
                calls += 1;
                verify(&src, t)
            });
            let rejections = exact.iter().filter(|&&r| r).count();
            assert!(calls <= 1 + rejections, "{calls} runs: {src}");
            foreseen += rejections;
        }
        assert!(foreseen > 0, "no generated script rejects a candidate");
    }

    #[test]
    fn force_true_scripts_verify_one_group_at_a_time() {
        let fixture = include_str!("../../tests/fixtures/suggest/reaction_force_true.gca");
        let generated =
            (1..=10).map(|seed| format!("config reaction force-true\n{}", straight_line(seed)));
        for src in std::iter::once(fixture.to_owned()).chain(generated) {
            let Candidates {
                groups,
                suspect,
                reaction,
            } = candidates(&parse_script(&src).unwrap()).unwrap();
            assert_eq!(reaction, Reaction::ForceTrue);
            let mut calls = 0;
            let got = verify_groups(&groups, &suspect, reaction, |t| {
                calls += 1;
                verify(&src, t)
            });
            assert_eq!(calls, groups.len(), "{src}");
            assert_eq!(got, greedy(groups, |t| verify(&src, t)), "{src}");
        }
    }

    /// Every input whose `gca suggest` output is pinned: the shipped
    /// corpus, the committed suggest fixtures and the generated scripts.
    fn pinned_inputs() -> Vec<(String, String)> {
        let root = env!("CARGO_MANIFEST_DIR");
        let mut inputs = Vec::new();
        for (label, dir) in [
            ("scripts", format!("{root}/../../scripts")),
            ("fixtures/suggest", format!("{root}/tests/fixtures/suggest")),
        ] {
            let mut paths: Vec<_> = std::fs::read_dir(&dir)
                .unwrap_or_else(|e| panic!("read {dir}: {e}"))
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "gca"))
                .collect();
            paths.sort();
            for p in paths {
                let src = std::fs::read_to_string(&p)
                    .unwrap_or_else(|e| panic!("read {}: {e}", p.display()));
                let name = p.file_name().expect("a file").to_string_lossy();
                inputs.push((format!("{label}/{name}"), src));
            }
        }
        inputs.extend(
            (1..=GENERATED).map(|seed| (format!("straight_line({seed})"), straight_line(seed))),
        );
        inputs
    }

    /// `render()` and the `--json` report of every pinned input, byte for
    /// byte as `tests/fixtures/suggest/pinned_output.txt` recorded them
    /// when every object and class was probed with its own traversal and
    /// groups were verified one at a time.
    #[test]
    fn output_matches_the_pinned_transcript() {
        use std::fmt::Write as _;
        let mut got = String::new();
        for (name, src) in pinned_inputs() {
            let o = suggest(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let json = crate::analysis::json::suggest_to_json(&o);
            let _ = writeln!(got, "== {name}\n{}{json}", o.render());
        }
        let want = include_str!("../../tests/fixtures/suggest/pinned_output.txt");
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "pinned_output.txt line {}", i + 1);
        }
        assert_eq!(got.lines().count(), want.lines().count());
    }
}
