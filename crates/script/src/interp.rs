//! The script interpreter: executes commands against a [`Vm`].

use std::collections::HashMap;

use gc_assertions::{ClassId, GcReport, ObjRef, Reaction, Vm, VmConfig};

use crate::ast::{parse_script, BlockError, Blocks, Command, Step, Target};
use crate::config::apply_config;
use crate::error::{ScriptError, ScriptErrorKind};

/// Everything a script run produced: the printed lines and final state
/// summaries, for asserting on in tests or printing from the CLI.
#[derive(Debug, Default)]
pub struct Output {
    /// Lines the script emitted (`gc`, `probe`, `print` commands).
    pub lines: Vec<String>,
    /// Total violations across the run.
    pub total_violations: usize,
    /// Major collections performed.
    pub collections: u64,
    /// Minor collections performed.
    pub minor_collections: u64,
    /// One entry per explicit `gc` command, in execution order: the
    /// script line of the `gc` and the summaries of the violations that
    /// collection reported.  Loops and procedure calls append one entry
    /// per *dynamic* execution, so a `gc` inside `repeat 3` appears
    /// three times under the same line — this is what the differential
    /// soundness harness aligns the analyzer's predictions against.
    pub explicit_gcs: Vec<(usize, Vec<String>)>,
}

#[derive(Debug, Clone)]
struct ClassDecl {
    id: ClassId,
    fields: Vec<String>,
}

/// The interpreter: owns the VM and the script's variable bindings.
///
/// # Example
///
/// ```
/// use gca_script::Interpreter;
///
/// let out = Interpreter::run_script(
///     "class T\nnew a T\nassert-dead a\ngc\nexpect-violations 0\nexpect-dead a\n",
/// )
/// .unwrap();
/// assert_eq!(out.total_violations, 0);
/// assert_eq!(out.collections, 1);
/// ```
#[derive(Debug)]
pub struct Interpreter {
    config: VmConfig,
    vm: Option<Vm>,
    vars: HashMap<String, ObjRef>,
    classes: HashMap<String, ClassDecl>,
    last_report: Option<GcReport>,
    output: Output,
    /// `repeat`/`proc`/`call` structure: open recording, procs, depth.
    blocks: Blocks,
}

impl Interpreter {
    /// Creates an interpreter with the default VM configuration (tweak it
    /// with `config` commands before the first executing command).
    pub fn new() -> Interpreter {
        Interpreter {
            config: VmConfig::builder().build(),
            vm: None,
            vars: HashMap::new(),
            classes: HashMap::new(),
            last_report: None,
            output: Output::default(),
            blocks: Blocks::new(),
        }
    }

    /// Parses and executes `src`, returning the collected output.
    ///
    /// # Errors
    ///
    /// The first parse error, VM error, or failed expectation — tagged
    /// with its script line.
    pub fn run_script(src: &str) -> Result<Output, ScriptError> {
        let mut interp = Interpreter::new();
        for (line, cmd) in parse_script(src)? {
            interp.execute(line, &cmd)?;
        }
        interp.end_of_script()?;
        Ok(interp.finish())
    }

    /// The command stream has ended: a `repeat`/`proc` block still open
    /// is an error at its opener's line.
    ///
    /// # Errors
    ///
    /// The unclosed block, as a line-tagged [`ScriptError`].
    pub(crate) fn end_of_script(&self) -> Result<(), ScriptError> {
        self.blocks.finish().map_err(Self::block_err)
    }

    /// Finishes the run, yielding the output.
    pub fn finish(mut self) -> Output {
        if let Some(vm) = &self.vm {
            self.output.total_violations = vm.violation_log().len();
            self.output.collections = vm.collections();
            self.output.minor_collections = vm.minor_collections();
        }
        self.output
    }

    fn vm(&mut self) -> &mut Vm {
        if self.vm.is_none() {
            self.vm = Some(Vm::new(self.config.clone()));
        }
        self.vm.as_mut().expect("just initialized")
    }

    /// The report from the most recent explicit `gc` command, if any.
    pub fn last_report(&self) -> Option<&GcReport> {
        self.last_report.as_ref()
    }

    /// The VM, if any command has started it yet.
    pub fn vm_ref(&self) -> Option<&Vm> {
        self.vm.as_ref()
    }

    /// Whether a `repeat`/`proc` recording is open — commands fed now
    /// are buffered, not executed.  (`gca suggest` uses this to tell
    /// top-level anchor steps from loop-body commands.)
    pub(crate) fn is_recording(&self) -> bool {
        self.blocks.is_recording()
    }

    /// The object currently bound to `name`, if any.
    pub(crate) fn binding(&self, name: &str) -> Option<ObjRef> {
        self.vars.get(name).copied()
    }

    /// The violation reaction the script configured (`config reaction`).
    pub(crate) fn reaction(&self) -> Reaction {
        self.config.reaction
    }

    /// The declared class id for `name`, if any.
    pub(crate) fn class_id(&self, name: &str) -> Option<ClassId> {
        self.classes.get(name).map(|c| c.id)
    }

    /// Mutable VM access for immediate heap probes, if started.
    pub(crate) fn vm_mut_opt(&mut self) -> Option<&mut Vm> {
        self.vm.as_mut()
    }

    fn var(&self, line: usize, name: &str) -> Result<ObjRef, ScriptError> {
        self.vars.get(name).copied().ok_or_else(|| {
            ScriptError::new(line, ScriptErrorKind::UnknownVariable(name.to_owned()))
        })
    }

    fn class(&self, line: usize, name: &str) -> Result<&ClassDecl, ScriptError> {
        self.classes
            .get(name)
            .ok_or_else(|| ScriptError::new(line, ScriptErrorKind::UnknownClass(name.to_owned())))
    }

    fn vm_err(line: usize) -> impl Fn(gc_assertions::VmError) -> ScriptError {
        move |e| ScriptError::new(line, ScriptErrorKind::Vm(e.to_string()))
    }

    fn expect_failed(line: usize, msg: String) -> ScriptError {
        ScriptError::new(line, ScriptErrorKind::ExpectationFailed(msg))
    }

    fn block_err(e: BlockError) -> ScriptError {
        ScriptError::new(e.line, ScriptErrorKind::BadArguments(e.to_string()))
    }

    fn apply_config(&mut self, line: usize, key: &str, value: &str) -> Result<(), ScriptError> {
        if self.vm.is_some() {
            return Err(ScriptError::new(line, ScriptErrorKind::ConfigAfterStart));
        }
        apply_config(&mut self.config, &mut self.blocks.call_limit, key, value)
            .map_err(|e| ScriptError::new(line, ScriptErrorKind::BadArguments(e.to_string())))
    }

    /// Executes one command.
    ///
    /// While a `repeat`/`proc` block is open this *records* the command
    /// instead of running it; the matching `end-repeat` replays the body
    /// the requested number of times and `end-proc` stores it for later
    /// `call`s.  The method is therefore safe to feed one line at a time
    /// from a flat [`parse_script`] stream.
    ///
    /// # Errors
    ///
    /// VM errors, failed expectations, and block-structure errors
    /// (mismatched or stray `end-repeat`/`end-proc`, `call` of an
    /// undefined proc), tagged with `line`.
    pub fn execute(&mut self, line: usize, cmd: &Command) -> Result<(), ScriptError> {
        match self.blocks.feed(line, cmd).map_err(Self::block_err)? {
            Step::Recorded => Ok(()),
            Step::Repeat { count, body } => (0..count).try_for_each(|_| self.run_body(&body)),
            Step::Run => match cmd {
                Command::Call(name) => self.run_call(line, name),
                _ => self.execute_one(line, cmd),
            },
        }
    }

    fn run_body(&mut self, body: &[(usize, Command)]) -> Result<(), ScriptError> {
        body.iter().try_for_each(|(l, c)| self.execute(*l, c))
    }

    /// Runs a recorded procedure body; a call at the depth bound is a
    /// silent no-op, so unconditionally recursive procs terminate.
    fn run_call(&mut self, line: usize, name: &str) -> Result<(), ScriptError> {
        let Some(body) = self
            .blocks
            .enter_call(line, name)
            .map_err(Self::block_err)?
        else {
            return Ok(());
        };
        let result = self.run_body(&body);
        self.blocks.exit_call();
        result
    }

    /// Executes one non-structural command against the VM.
    fn execute_one(&mut self, line: usize, cmd: &Command) -> Result<(), ScriptError> {
        let ve = Self::vm_err(line);
        match cmd {
            Command::Config { key, value } => self.apply_config(line, key, value)?,
            Command::Class { name, fields } => {
                let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
                let id = self.vm().register_class(name, &refs);
                self.classes.insert(
                    name.clone(),
                    ClassDecl {
                        id,
                        fields: fields.clone(),
                    },
                );
            }
            Command::New {
                var,
                class,
                data_words,
            } => {
                let decl = self.class(line, class)?.clone();
                let m = self.vm().main();
                let nrefs = decl.fields.len();
                let obj = self
                    .vm()
                    .alloc(m, decl.id, nrefs, *data_words)
                    .map_err(&ve)?;
                self.vars.insert(var.clone(), obj);
            }
            Command::Set { var, field, value } => {
                let obj = self.var(line, var)?;
                let class_id = self.vm().class_of(obj).map_err(&ve)?;
                let decl = self
                    .classes
                    .values()
                    .find(|d| d.id == class_id)
                    .cloned()
                    .ok_or_else(|| {
                        ScriptError::new(
                            line,
                            ScriptErrorKind::UnknownClass(format!("{class_id:?}")),
                        )
                    })?;
                let idx = decl.fields.iter().position(|f| f == field).ok_or_else(|| {
                    let class_name = self
                        .classes
                        .iter()
                        .find(|(_, d)| d.id == class_id)
                        .map(|(n, _)| n.clone())
                        .unwrap_or_default();
                    ScriptError::new(
                        line,
                        ScriptErrorKind::UnknownField {
                            class: class_name,
                            field: field.clone(),
                        },
                    )
                })?;
                let value = match value {
                    Target::Null => ObjRef::NULL,
                    Target::Var(v) => self.var(line, v)?,
                };
                self.vm().set_field(obj, idx, value).map_err(&ve)?;
            }
            Command::Data { var, index, value } => {
                let obj = self.var(line, var)?;
                self.vm().set_data_word(obj, *index, *value).map_err(&ve)?;
            }
            Command::Root(var) => {
                let obj = self.var(line, var)?;
                let m = self.vm().main();
                self.vm().add_root(m, obj).map_err(&ve)?;
            }
            Command::Frame => {
                let m = self.vm().main();
                self.vm().push_frame(m).map_err(&ve)?;
            }
            Command::EndFrame => {
                let m = self.vm().main();
                self.vm().pop_frame(m).map_err(&ve)?;
            }
            Command::Global(var) => {
                let obj = self.var(line, var)?;
                self.vm().add_global(obj).map_err(&ve)?;
            }
            Command::Unglobal(var) => {
                let obj = self.var(line, var)?;
                self.vm().remove_global(obj).map_err(&ve)?;
            }
            Command::AssertDead(var) => {
                let obj = self.var(line, var)?;
                self.vm().assert_dead(obj).map_err(&ve)?;
            }
            Command::AssertUnshared(var) => {
                let obj = self.var(line, var)?;
                self.vm().assert_unshared(obj).map_err(&ve)?;
            }
            Command::AssertInstances { class, limit } => {
                let id = self.class(line, class)?.id;
                self.vm().assert_instances(id, *limit).map_err(&ve)?;
            }
            Command::AssertOwnedBy { owner, ownee } => {
                let o = self.var(line, owner)?;
                let e = self.var(line, ownee)?;
                self.vm().assert_owned_by(o, e).map_err(&ve)?;
            }
            Command::ReleaseOwnee(var) => {
                let obj = self.var(line, var)?;
                self.vm().release_ownee(obj).map_err(&ve)?;
            }
            Command::StartRegion => {
                let m = self.vm().main();
                self.vm().start_region(m).map_err(&ve)?;
            }
            Command::AllDead => {
                let m = self.vm().main();
                let n = self.vm().assert_alldead(m).map_err(&ve)?;
                self.output
                    .lines
                    .push(format!("all-dead: {n} object(s) asserted"));
            }
            Command::Copy { dst, src } => {
                let obj = self.var(line, src)?;
                self.vars.insert(dst.clone(), obj);
            }
            Command::Gc => {
                let report = self.vm().collect().map_err(&ve)?;
                self.output.lines.push(format!("gc: {report}"));
                self.output.explicit_gcs.push((
                    line,
                    report.violations.iter().map(|v| v.summary()).collect(),
                ));
                self.last_report = Some(report);
            }
            Command::MinorGc => {
                let stats = self.vm().collect_minor().map_err(&ve)?;
                self.output.lines.push(format!(
                    "minor-gc: {} promoted, {} swept",
                    stats.promoted, stats.objects_swept
                ));
            }
            Command::Probe(var) => {
                let obj = self.var(line, var)?;
                let path = self.vm().probe_path(obj).map_err(&ve)?;
                let msg = {
                    let vm = self.vm.as_ref().expect("vm started");
                    match path {
                        Some(p) => format!("probe {var}: {}", p.display(vm.registry())),
                        None => format!("probe {var}: unreachable"),
                    }
                };
                self.output.lines.push(msg);
            }
            Command::Print => {
                let vm = self.vm.as_ref();
                if let (Some(vm), Some(report)) = (vm, &self.last_report) {
                    self.output.lines.push(format!("report: {report}"));
                    for v in &report.violations {
                        self.output.lines.push(v.render(vm.registry()));
                    }
                } else {
                    self.output
                        .lines
                        .push("report: (no collection yet)".to_owned());
                }
            }
            Command::Histogram => {
                let vm = self.vm();
                let mut by_class: std::collections::HashMap<String, (usize, usize)> =
                    std::collections::HashMap::new();
                for (_, obj) in vm.heap().iter() {
                    let name = vm.heap().registry().name(obj.class()).to_owned();
                    let e = by_class.entry(name).or_default();
                    e.0 += 1;
                    e.1 += obj.size_words();
                }
                let mut rows: Vec<(String, usize, usize)> =
                    by_class.into_iter().map(|(k, (n, w))| (k, n, w)).collect();
                rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
                for (class, n, words) in rows {
                    self.output
                        .lines
                        .push(format!("histogram: {class} x{n} ({words} words)"));
                }
            }
            Command::Stats => {
                let vm = self.vm();
                let line = format!(
                    "stats: {} live objects, {} words occupied, {} allocations, {} majors, {} minors",
                    vm.heap().live_objects(),
                    vm.heap().occupied_words(),
                    vm.heap_stats().allocations,
                    vm.collections(),
                    vm.minor_collections(),
                );
                self.output.lines.push(line);
            }
            Command::ExpectViolations(n) => {
                let got = self
                    .last_report
                    .as_ref()
                    .map(|r| r.violations.len())
                    .unwrap_or(0);
                if got != *n {
                    return Err(Self::expect_failed(
                        line,
                        format!("expected {n} violation(s) in the last gc, got {got}"),
                    ));
                }
            }
            Command::ExpectTotalViolations(n) => {
                let got = self.vm().violation_log().len();
                if got != *n {
                    return Err(Self::expect_failed(
                        line,
                        format!("expected {n} total violation(s), got {got}"),
                    ));
                }
            }
            Command::ExpectLive(var) => {
                let obj = self.var(line, var)?;
                if !self.vm().is_live(obj) {
                    return Err(Self::expect_failed(
                        line,
                        format!("`{var}` was reclaimed but expected live"),
                    ));
                }
            }
            Command::ExpectDead(var) => {
                let obj = self.var(line, var)?;
                if self.vm().is_live(obj) {
                    return Err(Self::expect_failed(
                        line,
                        format!("`{var}` is live but expected reclaimed"),
                    ));
                }
            }
            Command::ExpectInstances { class, count } => {
                let id = self.class(line, class)?.id;
                let got = self.vm().probe_instances(id).map_err(&ve)?;
                if got != *count {
                    return Err(Self::expect_failed(
                        line,
                        format!("expected {count} live {class} instance(s), found {got}"),
                    ));
                }
            }
            Command::Repeat(_)
            | Command::EndRepeat
            | Command::Proc(_)
            | Command::EndProc
            | Command::Call(_) => {
                unreachable!("structured commands are dispatched by `execute`")
            }
        }
        Ok(())
    }
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leak_scenario_end_to_end() {
        let out = Interpreter::run_script(
            "
class Registry entries
class Session user
class Cache hit
new r Registry
root r
new s Session
set r.entries s
new c Cache
root c
set c.hit s
set r.entries null
assert-dead s
gc
expect-violations 1
expect-live s
set c.hit null
gc
expect-dead s
",
        )
        .unwrap();
        assert_eq!(out.total_violations, 1);
        assert_eq!(out.collections, 2);
    }

    #[test]
    fn config_is_applied() {
        let out = Interpreter::run_script(
            "
config heap 128
config grow on
config generational 4
class T
new a T 8
minor-gc
",
        )
        .unwrap();
        assert_eq!(out.minor_collections, 1);
    }

    #[test]
    fn config_after_start_rejected() {
        let e = Interpreter::run_script("class T\nconfig heap 99\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.kind, ScriptErrorKind::ConfigAfterStart);
    }

    #[test]
    fn unknown_names_are_errors_with_lines() {
        let e = Interpreter::run_script("class T\nnew a U\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(matches!(e.kind, ScriptErrorKind::UnknownClass(_)));

        let e = Interpreter::run_script("class T f\nnew a T\nset a.g a\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(matches!(e.kind, ScriptErrorKind::UnknownField { .. }));

        let e = Interpreter::run_script("root nobody\n").unwrap_err();
        assert!(matches!(e.kind, ScriptErrorKind::UnknownVariable(_)));
    }

    #[test]
    fn expectations_fail_with_message() {
        let e =
            Interpreter::run_script("class T\nnew a T\nroot a\ngc\nexpect-dead a\n").unwrap_err();
        assert_eq!(e.line, 5);
        assert!(matches!(e.kind, ScriptErrorKind::ExpectationFailed(_)));
    }

    #[test]
    fn probe_prints_path_or_unreachable() {
        let out = Interpreter::run_script(
            "class T f\nnew a T\nroot a\nnew b T\nset a.f b\nprobe b\nset a.f null\nprobe b\n",
        )
        .unwrap();
        assert!(out.lines[0].contains("T"), "{:?}", out.lines);
        assert!(out.lines[1].contains("unreachable"));
    }

    #[test]
    fn frames_and_regions_work() {
        let out = Interpreter::run_script(
            "
class Buf
start-region
frame
new a Buf 8
root a
end-frame
all-dead
gc
expect-violations 0
",
        )
        .unwrap();
        assert!(out.lines.iter().any(|l| l.contains("all-dead: 1")));
    }

    #[test]
    fn histogram_and_stats_commands() {
        let out = Interpreter::run_script(
            "class Big\nclass Small\nnew a Big 20\nroot a\nnew b Small\nroot b\nnew c Small\nroot c\nhistogram\nstats\n",
        )
        .unwrap();
        let hist: Vec<&String> = out
            .lines
            .iter()
            .filter(|l| l.starts_with("histogram:"))
            .collect();
        assert_eq!(hist.len(), 2);
        assert!(hist[0].contains("Big x1 (22 words)"), "{hist:?}");
        assert!(hist[1].contains("Small x2"), "{hist:?}");
        let stats = out.lines.iter().find(|l| l.starts_with("stats:")).unwrap();
        assert!(stats.contains("3 live objects"), "{stats}");
        assert!(stats.contains("3 allocations"), "{stats}");
    }

    #[test]
    fn instance_expectation_probes_now() {
        Interpreter::run_script(
            "class S\nnew a S\nroot a\nnew b S\nroot b\nexpect-instances S 2\n",
        )
        .unwrap();
    }

    #[test]
    fn repeat_builds_a_list_via_copy() {
        // A loop chains ten cells head-first; nulling the head kills them
        // all, which `all-dead` then proves.
        let out = Interpreter::run_script(
            "
class Head next
class Cell next
new head Head
root head
copy prev head
repeat 10
new cell Cell
set prev.next cell
copy prev cell
end-repeat
expect-instances Cell 10
set head.next null
gc
expect-instances Cell 0
",
        )
        .unwrap();
        assert_eq!(out.total_violations, 0);
        assert_eq!(out.collections, 1);
    }

    #[test]
    fn repeat_zero_skips_the_body() {
        let out =
            Interpreter::run_script("class T\nrepeat 0\nnew a T\nroot a\nend-repeat\nstats\n")
                .unwrap();
        let stats = out.lines.iter().find(|l| l.starts_with("stats:")).unwrap();
        assert!(stats.contains("0 live objects"), "{stats}");
    }

    #[test]
    fn nested_repeats_multiply() {
        let out = Interpreter::run_script(
            "class T\nrepeat 3\nrepeat 4\nnew a T\nroot a\nend-repeat\nend-repeat\nexpect-instances T 12\n",
        )
        .unwrap();
        assert_eq!(out.total_violations, 0);
    }

    #[test]
    fn recursive_proc_is_depth_bounded() {
        // `grow` allocates one node then calls itself; the depth bound
        // turns the infinite recursion into exactly `call-depth` rounds.
        let out = Interpreter::run_script(
            "
config call-depth 5
class Node next
proc grow
new n Node
root n
call grow
end-proc
call grow
expect-instances Node 5
",
        )
        .unwrap();
        assert_eq!(out.total_violations, 0);
    }

    #[test]
    fn gc_inside_repeat_records_each_execution() {
        let out = Interpreter::run_script("class T\nrepeat 3\nnew a T\ngc\nend-repeat\n").unwrap();
        assert_eq!(out.collections, 3);
        assert_eq!(out.explicit_gcs.len(), 3);
        assert!(out
            .explicit_gcs
            .iter()
            .all(|(line, v)| *line == 4 && v.is_empty()));
    }

    #[test]
    fn block_structure_errors_are_line_tagged() {
        let e = Interpreter::run_script("class T\nend-repeat\n").unwrap_err();
        assert_eq!(e.line, 2);

        let e = Interpreter::run_script("repeat 2\nclass T\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("never closed"), "{e}");

        let e = Interpreter::run_script("proc p\nclass T\nend-repeat\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("end-proc"), "{e}");

        let e = Interpreter::run_script("class T\ncall nowhere\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("undefined proc"), "{e}");
    }

    #[test]
    fn assertions_and_frames_work_inside_loops() {
        // Frames, regions, and assert-dead all live inside a repeat body;
        // each iteration's temporary dies before the gc at iteration end.
        let out = Interpreter::run_script(
            "
class Buf
repeat 4
start-region
frame
new tmp Buf 8
root tmp
end-frame
all-dead
gc
expect-violations 0
end-repeat
",
        )
        .unwrap();
        assert_eq!(out.total_violations, 0);
        assert_eq!(out.collections, 4);
    }

    #[test]
    fn gc_threads_config_is_accepted() {
        let out =
            Interpreter::run_script("config gc-threads 2\nclass T\nnew a T\nroot a\ngc\n").unwrap();
        assert_eq!(out.collections, 1);
    }
}
