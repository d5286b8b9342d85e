//! `gca check` coverage for the shipped scenarios: a golden test pinning
//! the analyzer's diagnostics for every script under `scripts/`, plus
//! the differential soundness harness — the analyzer's must-violate set
//! must be a subset of the violations the interpreter actually reports
//! (zero false positives at error severity).

mod common;

use gca_script::analysis::json;
use gca_script::{
    analyze, apply_suggestions, suggest, Analysis, Interpreter, ScriptErrorKind, Severity,
};

use common::differential_check;

fn script_path(name: &str) -> String {
    format!("{}/../../scripts/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn read_script(name: &str) -> String {
    let path = script_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn all_scripts() -> Vec<String> {
    let dir = format!("{}/../../scripts", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".gca"))
        .collect();
    names.sort();
    names
}

fn check(name: &str) -> Analysis {
    analyze(&read_script(name)).unwrap_or_else(|e| panic!("{name}: parse error {e}"))
}

/// The golden transcript for every shipped script, pinned verbatim.
/// A new script must be added here — the `goldens_cover_every_script`
/// test enforces it.
const GOLDENS: &[(&str, &str)] = &[
    (
        "cache_leak.gca",
        "error[dead-reachable] line 21:1: session: Session (line 14) was asserted dead (line 20) but must still be reachable at this collection\n\
         \x20 path: cache: Cache (line 11) -.hit-> session: Session (line 14)\n\
         check: 2 collection(s) analyzed, 1 error(s), 0 warning(s)\n",
    ),
    (
        "checked_clean.gca",
        "check: 2 collection(s) analyzed, 0 error(s), 0 warning(s)\n",
    ),
    (
        "copying_backend.gca",
        "error[dead-reachable] line 24:1: session: Session (line 17) was asserted dead (line 23) but must still be reachable at this collection\n\
         \x20 path: cache: Cache (line 14) -.hit-> session: Session (line 17)\n\
         check: 2 collection(s) analyzed, 1 error(s), 0 warning(s)\n",
    ),
    (
        "force_true.gca",
        "error[dead-reachable] line 19:1: x: Obj (line 14) was asserted dead (line 17) but must still be reachable at this collection\n\
         \x20 path: h2: Holder (line 12) -.b-> x: Obj (line 14)\n\
         check: 2 collection(s) analyzed, 1 error(s), 0 warning(s)\n",
    ),
    (
        "generational.gca",
        "error[dead-reachable] line 21:1: victim: Obj (line 12) was asserted dead (line 14) but must still be reachable at this collection\n\
         \x20 path: holder: Holder (line 10) -.keep-> victim: Obj (line 12)\n\
         check: 3 collection(s) analyzed, 1 error(s), 0 warning(s)\n",
    ),
    (
        "list_builder.gca",
        "check: 1 collection(s) analyzed, 0 error(s), 0 warning(s)\n",
    ),
    (
        "ownership.gca",
        "warning[not-owned] line 26:1: y: Elem (line 17) may be reachable without passing through its owner at this collection\n\
         \x20 path: table: CacheTable (line 11) -.hit-> y: Elem (line 17)\n\
         check: 3 collection(s) analyzed, 0 error(s), 1 warning(s)\n",
    ),
    (
        "recursive_tree.gca",
        "check: 2 collection(s) analyzed, 0 error(s), 0 warning(s)\n",
    ),
    (
        "region_server.gca",
        "warning[region-escape] line 26:1: req2: Request (line 24) was allocated in the active region (region begun at line 22) but escapes into `audit`, which is outside it\n\
         error[dead-reachable] line 29:1: req2: Request (line 24) was asserted dead (line 28) but must still be reachable at this collection\n\
         \x20 path: audit: Audit (line 8) -.entry-> req2: Request (line 24)\n\
         \x20 allocated inside the region begun at line 22\n\
         check: 2 collection(s) analyzed, 1 error(s), 1 warning(s)\n",
    ),
    (
        "session_lru.gca",
        "error[dead-reachable] line 33:1: s2: Session (line 17) was asserted dead (line 32) but must still be reachable at this collection\n\
         \x20 path: sampler: Sampler (line 12) -.last-> s2: Session (line 17)\n\
         check: 3 collection(s) analyzed, 1 error(s), 0 warning(s)\n",
    ),
    (
        "singleton.gca",
        "error[instance-limit] line 23:1: instance limit must be exceeded: IndexSearcher 3>1 (asserted line 7)\n\
         check: 1 collection(s) analyzed, 1 error(s), 0 warning(s)\n",
    ),
    (
        "suggest_demo.gca",
        "check: 2 collection(s) analyzed, 0 error(s), 0 warning(s)\n",
    ),
    (
        "swap_leak.gca",
        "error[dead-reachable] line 25:1: fresh: SObject (line 15) was asserted dead (line 23) but must still be reachable at this collection\n\
         \x20 path: occupant: SObject (line 8) -.rep-> fresh_rep: Rep (line 16) -.outer-> fresh: SObject (line 15)\n\
         check: 1 collection(s) analyzed, 1 error(s), 0 warning(s)\n",
    ),
    (
        "unshared_tree.gca",
        "warning[unshared-with-two-stores] line 17:1: b: Node (line 10) now has 2 incoming references (asserted unshared at line 12)\n\
         error[unshared-violated] line 18:1: b: Node (line 10) was asserted unshared (line 12) but must be reachable through more than one reference\n\
         \x20 path: root: Node (line 6) -.l-> a: Node (line 8) -.l-> b: Node (line 10)\n\
         check: 2 collection(s) analyzed, 1 error(s), 1 warning(s)\n",
    ),
];

#[test]
fn goldens_cover_every_script() {
    let pinned: Vec<&str> = GOLDENS.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        all_scripts(),
        pinned,
        "every shipped script needs a pinned golden in tests/check.rs"
    );
}

#[test]
fn golden_diagnostics_for_every_script() {
    for (name, expected) in GOLDENS {
        let rendered = check(name).render();
        assert_eq!(
            rendered, *expected,
            "golden mismatch for {name}:\n--- got ---\n{rendered}--- want ---\n{expected}"
        );
    }
}

#[test]
fn swap_leak_is_flagged_with_a_line_accurate_path() {
    // The ISSUE's named acceptance case: the stale swap is caught
    // statically, with the paper-style root-to-object path naming each
    // allocation site and line.
    let a = check("swap_leak.gca");
    let d = a
        .diagnostics
        .iter()
        .find(|d| d.severity == Severity::Error)
        .expect("swap_leak must be statically flagged");
    assert_eq!(d.code, "dead-reachable");
    assert_eq!(d.line, 25);
    let path = d
        .notes
        .iter()
        .find(|n| n.starts_with("path: "))
        .expect("path note");
    assert_eq!(
        path,
        "path: occupant: SObject (line 8) -.rep-> fresh_rep: Rep (line 16) -.outer-> fresh: SObject (line 15)"
    );
}

#[test]
fn check_exit_condition_matches_must_presence() {
    // `gca check` exits non-zero iff a must-violate (error-severity)
    // diagnostic is present; `has_errors` is that exit condition.
    for name in all_scripts() {
        let a = check(&name);
        let has_must = a.collections.iter().any(|c| !c.must.is_empty());
        let has_runtime_failure = a
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error && d.code == "expect-will-fail");
        assert!(
            !has_runtime_failure,
            "{name}: analyzer predicts a failing expectation in a shipped script"
        );
        assert_eq!(
            a.has_errors(),
            has_must,
            "{name}: error severity must correspond to must-violate verdicts"
        );
    }
}

/// The soundness pin: run analyzer and interpreter side by side over
/// every shipped script.  At each explicit `gc`, the analyzer's
/// must-set must be a sub-multiset of the report the interpreter
/// produced; when nothing was downgraded to may, the prediction must be
/// *exact*.  Finally the union of all must-sets (implicit collections
/// included) must be a sub-multiset of the cumulative violation log.
#[test]
fn differential_must_set_is_sound() {
    for name in all_scripts() {
        let src = read_script(&name);
        let analysis = analyze(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        differential_check(&name, &src, &analysis);
    }
}

/// The agreement check itself can fail: an analysis doctored with one
/// must-violation the run never reports is a false positive.
#[test]
#[should_panic(expected = "FALSE POSITIVE")]
fn differential_check_rejects_an_extra_must_entry() {
    let src = "class T f\nnew a T\nassert-dead a\nroot a\ngc\n";
    let mut analysis = analyze(src).expect("analyzes");
    let gc = analysis
        .collections
        .iter_mut()
        .find(|c| c.explicit)
        .expect("one explicit gc");
    let extra = gc
        .must
        .first()
        .cloned()
        .expect("the leak is a must-violation");
    gc.must.push(extra);
    differential_check("doctored", src, &analysis);
}

/// A class declared twice is one class at run time (`TypeRegistry::register`
/// returns the existing id), so both objects count against the limit.  The
/// analyzer used to mint a second abstract class and predict a clean
/// collection with its exactness flag still set — which is exactly what
/// the differential rejects.
#[test]
fn redeclared_class_is_one_class_for_run_and_check() {
    let name = "fixtures/redeclared_class.gca";
    let path = format!("{}/tests/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let analysis = analyze(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
    differential_check(name, &src, &analysis);
    assert_eq!(analysis.collections[0].must, ["instance-limit Node 2>1"]);
    assert!(analysis.collections[0].may.is_empty());
}

/// Block structure is recognised by one recorder that the interpreter
/// and the analyzer both drive, so a malformed script is the same error
/// — same line, same message — whether it is run or checked.
#[test]
fn block_structure_errors_agree_between_run_and_check() {
    let cases: &[(&str, &str, usize, &str)] = &[
        (
            "stray end-repeat",
            "class T\nend-repeat\n",
            2,
            "`end-repeat` without an open `repeat`",
        ),
        (
            "stray end-proc",
            "end-proc\n",
            1,
            "`end-proc` without an open `proc`",
        ),
        (
            "end-proc closing a repeat",
            "repeat 2\nclass T\nend-proc\n",
            3,
            "`end-proc` cannot close a `repeat` (use `end-repeat`)",
        ),
        (
            "end-repeat closing a proc",
            "proc p\nend-repeat\n",
            2,
            "`end-repeat` cannot close a `proc` (use `end-proc`)",
        ),
        (
            "crossed closers, proc nested in repeat",
            "repeat 2\nproc p\nend-repeat\nend-proc\n",
            3,
            "`end-repeat` cannot close a `proc` (use `end-proc`)",
        ),
        (
            "crossed closers, repeat nested in proc",
            "proc p\nrepeat 2\nend-proc\nend-repeat\n",
            3,
            "`end-proc` cannot close a `repeat` (use `end-repeat`)",
        ),
        (
            "unclosed repeat",
            "class T\nrepeat 2\nnew a T\n",
            2,
            "`repeat` opened here is never closed by `end-repeat`",
        ),
        (
            "unclosed proc",
            "proc grow\nclass T\n",
            1,
            "`proc grow` opened here is never closed by `end-proc`",
        ),
        (
            "unclosed proc nested in a closed-looking repeat",
            "repeat 2\nproc p\nend-proc\n",
            1,
            "`repeat` opened here is never closed by `end-repeat`",
        ),
        (
            "call of an undefined proc",
            "class T\ncall nowhere\n",
            2,
            "call of undefined proc `nowhere` (define it with `proc nowhere` first)",
        ),
        (
            "call of a proc defined only inside an unexecuted body",
            "repeat 0\nproc p\nend-proc\nend-repeat\ncall p\n",
            5,
            "call of undefined proc `p` (define it with `proc p` first)",
        ),
    ];
    for (what, src, line, message) in cases {
        let run = Interpreter::run_script(src).expect_err(what);
        assert_eq!(run.line, *line, "{what}: interpreter line");
        assert_eq!(
            run.kind,
            ScriptErrorKind::BadArguments((*message).to_owned()),
            "{what}: interpreter message"
        );
        let analysis = analyze(src).unwrap_or_else(|e| panic!("{what}: {e}"));
        let errors: Vec<_> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert_eq!(errors.len(), 1, "{what}: {errors:?}");
        assert_eq!(errors[0].line, *line, "{what}: analyzer line");
        assert_eq!(errors[0].message, *message, "{what}: analyzer message");
    }

    // Recursion is cut at `call-depth` by the same counter on both sides:
    // exactly three nodes exist, and the analyzer's exact replay agrees
    // (a different count would be an `expect-will-fail` error).
    let bounded = "config call-depth 3\nclass T\nproc grow\nnew n T\nroot n\ncall grow\n\
                   end-proc\ncall grow\nexpect-instances T 3\n";
    Interpreter::run_script(bounded).expect("depth-bounded recursion runs");
    let analysis = analyze(bounded).expect("parses");
    assert!(
        analysis.diagnostics.is_empty(),
        "{:?}",
        analysis.diagnostics
    );
}

/// `gca suggest` runs the script it observes to the end of the command
/// stream, so a block left open there is the same error it is for `gca
/// <file>` and `gca check` — not an empty suggestion.
#[test]
fn suggest_reports_an_unclosed_block_like_run_and_check() {
    let src = "class T f\nnew a T\nroot a\nnew b T\nrepeat 2\nnew c T\n";
    let message = "`repeat` opened here is never closed by `end-repeat`";
    let run = Interpreter::run_script(src).expect_err("run");
    let suggested = suggest(src).expect_err("suggest");
    assert_eq!((suggested.line, &suggested.kind), (run.line, &run.kind));
    assert_eq!(suggested.line, 5);
    assert_eq!(
        suggested.kind,
        ScriptErrorKind::BadArguments(message.to_owned())
    );
    let analysis = analyze(src).expect("parses");
    let errors: Vec<_> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| (d.line, d.message.as_str()))
        .collect();
    assert_eq!(errors, [(5, message)]);
}

/// The access graph earns Safe on `list_builder.gca`'s severed chain.
/// The loop-blind per-site strawman it was compared against could only
/// answer May (`dead-reachable Cell`); that half of the comparison is
/// recorded in EXPERIMENTS.md and the strawman is retired.
#[test]
fn list_builder_loop_summary_beats_per_site() {
    let graph = check("list_builder.gca");
    assert!(!graph.has_errors(), "{:?}", graph.diagnostics);
    assert!(
        graph
            .diagnostics
            .iter()
            .all(|d| d.severity != Severity::Warning),
        "{:?}",
        graph.diagnostics
    );
    let gc = &graph.collections[0];
    assert!(gc.summarized, "the 200-iteration loop must be summarized");
    assert!(gc.must.is_empty() && gc.may.is_empty(), "Safe verdict");
}

/// One `--json` report pinned verbatim as the machine-readable contract
/// (satellite of the ISSUE): shape changes here are API changes.
#[test]
fn json_report_is_pinned_for_list_builder() {
    let a = check("list_builder.gca");
    assert_eq!(
        json::analysis_to_json(&a),
        "{\"tool\":\"gca-check\",\"domain\":\"access-graph\",\"errors\":0,\"warnings\":0,\
         \"notes\":1,\"diagnostics\":[{\"line\":24,\"column\":1,\"severity\":\"note\",\
         \"code\":\"redundant-assert-dead\",\"message\":\"this `assert-dead` is proven Safe \
         at every collection that examines it — the assertion can be removed\",\"notes\":[]}],\
         \"collections\":[{\"line\":25,\"explicit\":true,\"minor\":false,\"summarized\":true,\
         \"must\":[],\"may\":[]}]}"
    );
}

/// `gca suggest` on the unannotated demo: placements pinned verbatim,
/// then spliced back in and re-run — the annotated script must hold.
#[test]
fn suggest_demo_placements_are_pinned_and_verified() {
    let src = read_script("suggest_demo.gca");
    let out = suggest(&src).unwrap_or_else(|e| panic!("suggest_demo.gca: {e}"));
    assert!(out.refused.is_none(), "{:?}", out.refused);
    assert_eq!(out.rejected, 0, "all placements must survive verification");
    assert_eq!(
        out.render(),
        "@ line 7: + assert-instances Doc 2\n\
         \x20   reason: observed peak of 1 live `Doc` instance(s); limit adds census headroom\n\
         @ line 12: + start-region\n\
         \x20   reason: 3 allocation(s) on lines 12-14 all die before the next collection\n\
         @ line 16: + all-dead\n\
         \x20   reason: every allocation of the region above is unreachable here\n\
         @ line 20: + assert-dead tmp\n\
         \x20   reason: tmp: Scratch (line 19) is unreachable from here to the end of the run\n\
         suggest: 4 placement(s), 0 candidate(s) rejected by splice-and-verify\n"
    );

    let spliced = apply_suggestions(&src, &out.suggestions);
    let run = Interpreter::run_script(&spliced)
        .unwrap_or_else(|e| panic!("spliced suggest_demo.gca: {e}"));
    assert_eq!(run.total_violations, 0, "spliced assertions must all hold");
    let a = analyze(&spliced).unwrap_or_else(|e| panic!("spliced suggest_demo.gca: {e}"));
    assert!(!a.has_errors(), "{:?}", a.diagnostics);

    // Annotated scripts are declined rather than double-annotated.
    let again = suggest(&spliced).unwrap_or_else(|e| panic!("re-suggest: {e}"));
    assert!(again.refused.is_some());
    assert!(again.suggestions.is_empty());
}

#[test]
fn checked_clean_scenario_runs_clean() {
    let out = Interpreter::run_script(&read_script("checked_clean.gca"))
        .unwrap_or_else(|e| panic!("checked_clean.gca: {e}"));
    assert_eq!(out.total_violations, 0);
    assert_eq!(out.collections, 2);
}
