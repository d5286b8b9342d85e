//! `script_pipeline`: every `scripts/*.gca` plus seeded generated scripts
//! — straight-line, nested `repeat`, recursive `proc` past the analyzer's
//! exact-replay bounds — through `parse_script` → the interpreter →
//! `analyze` → `suggest`. The script crate's parser, interpreter and
//! analyzer do the work; the collector does almost none.
//!
//! Beside timing, every script's analysis is held to the soundness rule the
//! script crate's own differential test states: what the analyzer says
//! *must* be reported at a `gc` line is reported there by the run.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::time::Instant;

use gca_script::{analyze, parse_script, suggest, Command, GcPrediction, Interpreter, ScriptError};

use super::{span_library_collections, Leg, Prepared, Rep, Scale};
use crate::rng::Rng;
use crate::trace::{Layer, Trace};

/// Where the shipped corpus lives, fixed when the benchmark is built.
const CORPUS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../scripts");
/// Generated scripts per family at full scale.
const FULL_PER_FAMILY: usize = 30;

/// The scripts of one run.
#[derive(Debug)]
pub struct ScriptPipeline {
    scripts: Vec<String>,
}

/// Reads the corpus and generates the seeded scripts.
///
/// # Panics
///
/// If the corpus directory cannot be read: without its inputs the
/// benchmark has nothing to measure.
pub fn prepare(seed: u64, scale: Scale) -> Box<dyn Prepared> {
    let mut paths: Vec<_> = std::fs::read_dir(CORPUS_DIR)
        .unwrap_or_else(|e| panic!("read {CORPUS_DIR}: {e}"))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "gca"))
        .collect();
    paths.sort();
    let mut scripts: Vec<String> = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display())))
        .collect();
    let mut rng = Rng::new(seed, 0x5c21);
    // Sizes cycle through fixed tables, so the amount of work is the same
    // for every seed; the seed decides what the scripts do with it.
    for i in 0..scale.of(FULL_PER_FAMILY, 4) {
        scripts.push(straight_line(&mut rng, i % 2 == 0, 200 + 100 * (i % 5)));
        scripts.push(nested_repeat(i));
        scripts.push(recursive_proc(i));
    }
    Box::new(ScriptPipeline { scripts })
}

/// A straight-line script: holders with item slots, items attached and
/// detached, `gc`s in between. With `asserting`, detached and (sometimes)
/// still-attached items are asserted dead and every `gc` states how many
/// reports it expects; without, the script carries no assertion and is
/// what `suggest` places assertions into. A loop first builds a rooted list
/// of `ballast` cells, so the script's collections have a heap to trace.
fn straight_line(rng: &mut Rng, asserting: bool, ballast: usize) -> String {
    const FIELDS: usize = 4;
    const STEPS: usize = 90;
    let holders = rng.between(4, 8);
    let mut src = format!(
        "class Holder f0 f1 f2 f3\nclass Item\n\
         class Ballast next\nnew bhead Ballast\nroot bhead\ncopy bprev bhead\n\
         repeat {ballast}\nnew bcell Ballast 2\nset bprev.next bcell\ncopy bprev bcell\nend-repeat\n"
    );
    for h in 0..holders {
        let _ = writeln!(src, "new h{h} Holder\nroot h{h}");
    }
    // slot -> item currently attached there
    let mut attached: Vec<Option<usize>> = vec![None; holders * FIELDS];
    let mut items = 0usize;
    let expect = |src: &mut String, n: usize| {
        if asserting {
            let _ = writeln!(src, "expect-violations {n}");
        }
    };
    for _ in 0..STEPS {
        let slot = rng.below(attached.len());
        let (h, f) = (slot / FIELDS, slot % FIELDS);
        match rng.below(10) {
            0..=5 => {
                let data = rng.below(4);
                let _ = writeln!(src, "new i{items} Item {data}\nset h{h}.f{f} i{items}");
                attached[slot] = Some(items);
                items += 1;
            }
            6..=7 => {
                if let Some(item) = attached[slot].take() {
                    let _ = writeln!(src, "set h{h}.f{f} null");
                    if asserting {
                        let _ = writeln!(src, "assert-dead i{item}");
                    }
                }
            }
            8 => {
                // The mistake GC assertions exist for: asserted dead while
                // its slot still holds it. Reported once, then detached.
                if let (true, Some(item)) = (asserting, attached[slot].take()) {
                    let _ = writeln!(src, "assert-dead i{item}\ngc");
                    expect(&mut src, 1);
                    let _ = writeln!(src, "set h{h}.f{f} null");
                }
            }
            _ => {
                src.push_str("gc\n");
                expect(&mut src, 0);
            }
        }
    }
    src.push_str("gc\n");
    expect(&mut src, 0);
    src
}

/// Nested loops that build a list off a rooted head and collect inside the
/// outer loop; then the chain is severed and asserted collectable. Small
/// counts stay inside the analyzer's exact-unroll bound, large ones are
/// summarized to a fixpoint.
fn nested_repeat(i: usize) -> String {
    const COUNTS: [(usize, usize); 6] = [(2, 4), (4, 100), (3, 8), (6, 200), (4, 6), (8, 300)];
    let (outer, inner) = COUNTS[i % COUNTS.len()];
    format!(
        "class Head next\nclass Cell next\nnew head Head\nroot head\ncopy prev head\n\
         repeat {outer}\nrepeat {inner}\nnew cell Cell 1\nset prev.next cell\ncopy prev cell\n\
         end-repeat\ngc\nexpect-violations 0\nend-repeat\n\
         set head.next null\nassert-dead prev\ngc\nexpect-violations 0\nexpect-instances Cell 0\n"
    )
}

/// An unconditionally recursive procedure that grows a tree under an owner
/// until the `call-depth` bound stops it. The linear form recurses once per
/// level; the binary form calls itself twice, which takes the call tree
/// past the analyzer's replay budget.
fn recursive_proc(i: usize) -> String {
    const DEPTHS: [(bool, usize); 6] = [
        (true, 8),
        (false, 10),
        (true, 10),
        (false, 13),
        (true, 11),
        (false, 16),
    ];
    let (binary, depth) = DEPTHS[i % DEPTHS.len()];
    let second_call = if binary { "call grow\n" } else { "" };
    format!(
        "config call-depth {depth}\nclass Owner root\nclass Tree left right\n\
         new owner Owner\nroot owner\nnew top Tree\nset owner.root top\n\
         assert-owned-by owner top\ncopy cur top\n\
         proc grow\nnew child Tree\nset cur.left child\nassert-owned-by owner child\n\
         copy cur child\ncall grow\n{second_call}end-proc\n\
         call grow\ngc\nexpect-violations 0\n\
         set owner.root null\ngc\nexpect-instances Tree 0\n"
    )
}

/// `(line, violation summaries)` of each explicit `gc` a run executed.
type ExplicitGcs = Vec<(usize, Vec<String>)>;

impl ScriptPipeline {
    /// Interprets one parsed script, sampling the pause of every top-level
    /// `gc` and folding the VM's statistics into `rep`.
    fn interpret(
        rep: &mut Rep,
        tr: &mut Trace,
        commands: &[(usize, Command)],
    ) -> Result<ExplicitGcs, ScriptError> {
        tr.enter("interp", Layer::Script);
        let started = Instant::now();
        let mut interp = Interpreter::new();
        let mut depth = 0usize;
        let mut out = Ok(());
        for (line, cmd) in commands {
            match cmd {
                Command::Repeat(_) | Command::Proc(_) => depth += 1,
                Command::EndRepeat | Command::EndProc => depth = depth.saturating_sub(1),
                _ => {}
            }
            out = interp.execute(*line, cmd);
            if out.is_err() {
                break;
            }
            if depth == 0 && matches!(cmd, Command::Gc) {
                if let Some(report) = interp.last_report() {
                    rep.pauses_ns.push(report.cycle.total.as_nanos() as u64);
                }
            }
        }
        rep.run_ns += started.elapsed().as_nanos() as u64;
        rep.observe("interp_ns", started.elapsed().as_nanos() as f64);
        if let Some(vm) = interp.vm_ref() {
            let end = tr.now_ns();
            span_library_collections(tr, vm, end);
        }
        tr.exit();
        if let Some(vm) = interp.vm_ref() {
            rep.counters
                .add("core.violations.count", vm.violation_log().len() as u64);
            rep.absorb_vm(vm);
        }
        let output = interp.finish();
        out.map(|()| output.explicit_gcs)
    }

    /// The analyzer's soundness against the run, as the script crate's own
    /// differential test states it.
    fn check_soundness(rep: &mut Rep, predictions: &[GcPrediction], run: &ExplicitGcs) {
        let mut queues: HashMap<usize, VecDeque<&GcPrediction>> = HashMap::new();
        let mut summarized_lines = Vec::new();
        for p in predictions.iter().filter(|p| p.explicit) {
            if p.summarized {
                summarized_lines.push(p.line);
            } else {
                queues.entry(p.line).or_default().push_back(p);
            }
        }
        for (line, actual) in run {
            match queues.get_mut(line).and_then(VecDeque::pop_front) {
                Some(pred) => {
                    let mut remaining = actual.clone();
                    let musts_reported = pred.must.iter().all(|m| {
                        remaining
                            .iter()
                            .position(|a| a == m)
                            .map(|at| remaining.remove(at))
                            .is_some()
                    });
                    let exact = !pred.may.is_empty() || remaining.is_empty();
                    rep.checks.check(musts_reported && exact, || {
                        format!(
                            "line {line}: analyzer predicted {:?}, run reported {actual:?}",
                            pred.must
                        )
                    });
                }
                None => rep.checks.check(summarized_lines.contains(line), || {
                    format!("line {line}: a gc ran that the analyzer never predicted")
                }),
            }
        }
        rep.checks
            .check(queues.values().all(VecDeque::is_empty), || {
                "the analyzer predicted a gc that never ran".to_owned()
            });
    }

    fn run_script(rep: &mut Rep, tr: &mut Trace, src: &str) {
        tr.enter("script", Layer::Script);
        let (run_before, gc_before) = (rep.run_ns, rep.gc_ns);
        Self::run_stages(rep, tr, src);
        rep.segments
            .push([rep.run_ns - run_before, rep.gc_ns - gc_before]);
        tr.exit();
    }

    fn run_stages(rep: &mut Rep, tr: &mut Trace, src: &str) {
        tr.enter("parse", Layer::Script);
        let t = Instant::now();
        let parsed = parse_script(src);
        let ns = t.elapsed().as_nanos() as u64;
        tr.exit();
        rep.run_ns += ns;
        rep.observe("parse_ns", ns as f64);
        rep.counters.add("script.lines", src.lines().count() as u64);
        let commands = match parsed {
            Ok(c) => c,
            Err(e) => {
                rep.checks.check(false, || format!("parse: {e}"));
                return;
            }
        };
        rep.ops += commands.len() as u64;
        rep.counters.add("script.ops", commands.len() as u64);

        let run = Self::interpret(rep, tr, &commands);
        rep.checks.check(run.is_ok(), || {
            format!(
                "run: {}",
                run.as_ref()
                    .err()
                    .map_or(String::new(), ToString::to_string)
            )
        });

        tr.enter("check", Layer::Script);
        let t = Instant::now();
        let analysis = analyze(src);
        let ns = t.elapsed().as_nanos() as u64;
        tr.exit();
        rep.run_ns += ns;
        match &analysis {
            Ok(a) => {
                let summarized = a.collections.iter().any(|c| c.summarized);
                let (time, count) = if summarized {
                    ("check_summarized_ns", "script.summarized")
                } else {
                    ("check_exact_ns", "script.exact")
                };
                rep.observe(time, ns as f64);
                rep.counters.add(count, 1);
                rep.counters
                    .add("script.diagnostics", a.diagnostics.len() as u64);
                if let Ok(run) = &run {
                    Self::check_soundness(rep, &a.collections, run);
                }
            }
            Err(e) => rep.checks.check(false, || format!("check: {e}")),
        }

        tr.enter("suggest", Layer::Script);
        let t = Instant::now();
        let suggested = suggest(src);
        let ns = t.elapsed().as_nanos() as u64;
        tr.exit();
        rep.run_ns += ns;
        rep.observe("suggest_ns", ns as f64);
        match suggested {
            Ok(s) => rep
                .counters
                .add("script.suggestions", s.suggestions.len() as u64),
            Err(e) => rep.checks.check(false, || format!("suggest: {e}")),
        }
        rep.counters.add("script.scripts", 1);
    }
}

impl Prepared for ScriptPipeline {
    fn rep(&self, _leg: Leg, tr: &mut Trace) -> Rep {
        let mut rep = Rep::default();
        tr.enter("rep", Layer::Bench);
        for src in &self.scripts {
            Self::run_script(&mut rep, tr, src);
        }
        tr.exit();
        rep
    }
}
