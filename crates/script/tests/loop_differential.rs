//! Differential coverage for the looping language: every corpus script
//! that uses `repeat`/`call-depth` is re-run at iteration counts 0, 1
//! and its shipped k, with the analyzer's must-sets checked against the
//! dynamic run at each count; plus a randomized leg that renders
//! `gca-modelcheck` FuzzOp programs as scripts, wraps their bodies in
//! `repeat 3`, and verifies the violation stream agrees across the
//! mark-sweep, parallel-mark (`gc-threads 2`) and semispace copying
//! engines — and that the analyzer stays sound on every variant.

mod common;

use gca_modelcheck::{emit_gca, normalize_violations, FuzzOp};
use gca_script::{analyze, parse_script, Interpreter};

use common::differential_check;

fn all_scripts() -> Vec<(String, String)> {
    let dir = format!("{}/../../scripts", env!("CARGO_MANIFEST_DIR"));
    let mut out: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("gca"))
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&p).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

/// Rewrites every `repeat N` / `config call-depth N` to count `n`, and
/// neuters `expect-*` self-checks (their pinned values are only correct
/// at the shipped iteration count; assertions stay in — a violating run
/// is exactly what the differential harness wants to cross-check).
fn at_count(src: &str, n: usize) -> String {
    let mut out = String::new();
    for line in src.lines() {
        let t = line.trim();
        if t.starts_with("repeat ") {
            out.push_str(&format!("repeat {n}\n"));
        } else if t.starts_with("config call-depth ") {
            out.push_str(&format!("config call-depth {n}\n"));
        } else if t.starts_with("expect-") {
            out.push_str(&format!("# (count-variant) {t}\n"));
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn corpus_loops_hold_at_iteration_counts_0_1_k() {
    let mut exercised = 0;
    for (name, src) in all_scripts() {
        if !src.contains("repeat ") && !src.contains("config call-depth ") {
            continue;
        }
        exercised += 1;
        for (label, variant) in [
            ("count=0", at_count(&src, 0)),
            ("count=1", at_count(&src, 1)),
            ("count=k", src.clone()),
        ] {
            let tag = format!("{name} [{label}]");
            let analysis = analyze(&variant).unwrap_or_else(|e| panic!("{tag}: {e}"));
            differential_check(&tag, &variant, &analysis);
        }
    }
    assert!(
        exercised >= 2,
        "expected looping corpus scripts (list_builder, recursive_tree), found {exercised}"
    );
}

/// A deterministic splitmix-style generator — the leg must reproduce
/// bit-for-bit across runs, so no OS entropy.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }
}

/// Draws a FuzzOp program from the loop-safe subset: ownership ops and
/// `UnrootTo` are excluded because re-running them inside `repeat`
/// violates their single-shot emission invariants (e.g. `BreakOwner`
/// severs an edge that exists only on the first iteration), and
/// `MinorGc` because none of these variants are generational.
fn gen_ops(rng: &mut Rng, len: usize) -> Vec<FuzzOp> {
    let mut ops = vec![FuzzOp::Alloc {
        data: 0,
        root: true,
    }];
    for _ in 0..len {
        ops.push(match rng.below(9) {
            0 => FuzzOp::Alloc {
                data: rng.below(4),
                root: rng.below(2) == 0,
            },
            1 => FuzzOp::Link {
                from: rng.below(8),
                field: rng.below(3),
                to: rng.below(8),
            },
            2 => FuzzOp::Unlink {
                from: rng.below(8),
                field: rng.below(3),
            },
            3 => FuzzOp::Swap {
                a: rng.below(8),
                b: rng.below(8),
                field: rng.below(3),
            },
            4 => FuzzOp::Collect,
            5 => FuzzOp::AssertDead {
                target: rng.below(8),
            },
            6 => FuzzOp::AssertUnshared {
                target: rng.below(8),
            },
            7 => FuzzOp::AssertInstances {
                limit: 1 + rng.below(6) as u32,
            },
            _ => FuzzOp::Region {
                len: rng.below(6),
                leak: rng.below(4) == 0,
            },
        });
    }
    ops.push(FuzzOp::Collect);
    ops
}

/// Splits an `emit_gca` rendering into (preamble, body) and re-renders
/// with the body wrapped in `repeat 3`, plus `extra` config lines.
fn wrap_in_repeat(emitted: &str, extra: &[&str]) -> String {
    let mut preamble = String::new();
    let mut body = String::new();
    for line in emitted.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with("config ") || t.starts_with("class ")
        {
            preamble.push_str(line);
            preamble.push('\n');
        } else {
            body.push_str(line);
            body.push('\n');
        }
    }
    let extra = extra.iter().map(|l| format!("{l}\n")).collect::<String>();
    format!("{extra}{preamble}repeat 3\n{body}end-repeat\ngc\n")
}

fn run_violations(tag: &str, src: &str) -> Vec<String> {
    let mut interp = Interpreter::new();
    for (line, cmd) in parse_script(src).unwrap_or_else(|e| panic!("{tag}: {e}")) {
        interp
            .execute(line, &cmd)
            .unwrap_or_else(|e| panic!("{tag}: {e}\n--- script ---\n{src}"));
    }
    let vm = interp.vm_ref().expect("program allocates");
    normalize_violations(vm.violation_log())
}

#[test]
fn randomized_repeat_programs_agree_across_engines() {
    let mut rng = Rng(0x6ca5_5e77);
    let mut violating_cases = 0;
    for case in 0..24 {
        let ops = gen_ops(&mut rng, 4 + case % 9);
        let emitted = emit_gca(&ops, &Default::default(), &[]);
        let base = wrap_in_repeat(&emitted, &[]);
        let par2 = wrap_in_repeat(&emitted, &["config gc-threads 2"]);
        let copying = wrap_in_repeat(&emitted, &["config collector copying"]);

        let ms_log = run_violations(&format!("case {case} [ms]"), &base);
        if !ms_log.is_empty() {
            violating_cases += 1;
        }
        assert_eq!(
            ms_log,
            run_violations(&format!("case {case} [par2]"), &par2),
            "case {case}: parallel marking diverged\n--- script ---\n{par2}"
        );
        assert_eq!(
            ms_log,
            run_violations(&format!("case {case} [copying]"), &copying),
            "case {case}: copying diverged\n--- script ---\n{copying}"
        );

        // The analyzer must stay sound on the loop-wrapped program too.
        let tag = format!("case {case} [analyzer]");
        let analysis = analyze(&base).unwrap_or_else(|e| panic!("{tag}: {e}"));
        differential_check(&tag, &base, &analysis);
    }
    assert!(
        violating_cases >= 3,
        "the randomized leg went vacuous: only {violating_cases}/24 cases report violations"
    );
}
