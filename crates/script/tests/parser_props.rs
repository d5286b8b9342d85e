//! Fuzz-style property tests for the script language: arbitrary input
//! never panics the parser, and generated well-formed scripts always
//! either run or fail with a line-tagged error, and always analyze
//! (never a panic from either).

use gca_script::{analyze, parse_line, parse_script, Interpreter};
use proptest::prelude::*;

/// `config` operands for the generator: every key, good and bad values,
/// and both halves of each cross-key conflict.
const CONFIGS: &[&str] = &[
    "heap 64",
    "heap lots",
    "heap 0",
    "grow off",
    "grow maybe",
    "report-once off",
    "path-tracking off",
    "strict-owner-lifetime on",
    "generational 2",
    "generational 0",
    "collector copying",
    "collector mark-sweep",
    "collector moving",
    "minor-strategy remembered-set",
    "reaction halt",
    "reaction force-true",
    "mode base",
    "gc-threads 2",
    "gc-threads 0",
    "call-depth 2",
    "warp 9",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parser_never_panics_on_arbitrary_text(src in ".{0,200}") {
        // Any unicode soup: must return Ok or Err, not panic.
        let _ = parse_script(&src);
    }

    #[test]
    fn parser_never_panics_on_command_shaped_lines(
        cmd in "[a-z-]{1,18}",
        args in proptest::collection::vec("[A-Za-z0-9_.]{1,10}", 0..5),
    ) {
        let line = format!("{cmd} {}", args.join(" "));
        let _ = parse_line(1, &line);
    }

    #[test]
    fn generated_scripts_never_panic_the_interpreter(
        configs in proptest::collection::vec(0usize..CONFIGS.len(), 0..4),
        ops in proptest::collection::vec(0u8..16, 1..60),
        vars in proptest::collection::vec(0usize..6, 60),
    ) {
        // Build a syntactically valid script whose *semantics* may be
        // nonsense (unknown vars, double regions, crossed or unclosed
        // blocks, conflicting configs, ...). Parse, interpreter and
        // analyzer must each produce a value or a typed error, never panic.
        let names = ["a", "b", "c", "d", "e", "f"];
        // A small depth bound keeps generated recursion cheap.
        let mut script = String::from("config call-depth 3\n");
        for c in &configs {
            script.push_str(&format!("config {}\n", CONFIGS[*c]));
        }
        script.push_str("class T f g\n");
        // Open `repeat`s, so nesting (and with it run time) stays bounded.
        let mut repeats = 0usize;
        for (i, op) in ops.iter().enumerate() {
            let v = names[vars[i % vars.len()]];
            let w = names[vars[(i + 1) % vars.len()]];
            let line = match op {
                0 => format!("new {v} T"),
                1 => format!("set {v}.f {w}"),
                2 => format!("root {v}"),
                3 => "frame".to_owned(),
                4 => "end-frame".to_owned(),
                5 => format!("assert-dead {v}"),
                6 => format!("assert-owned-by {v} {w}"),
                7 => "gc".to_owned(),
                8 => "start-region".to_owned(),
                9 => "all-dead".to_owned(),
                10 if repeats < 3 => {
                    repeats += 1;
                    format!("repeat {}", i % 4)
                }
                10 | 11 => {
                    repeats = repeats.saturating_sub(1);
                    "end-repeat".to_owned()
                }
                12 => format!("proc {v}"),
                13 => "end-proc".to_owned(),
                14 => format!("call {v}"),
                // Late `config` lines must be rejected, not applied.
                _ => format!("config {}", CONFIGS[i % CONFIGS.len()]),
            };
            script.push_str(&line);
            script.push('\n');
        }
        parse_script(&script).expect("generated lines are well-formed");
        let _ = Interpreter::run_script(&script); // Ok or Err — both fine
        analyze(&script).expect("semantic problems are diagnostics, not errors");
    }

    #[test]
    fn well_formed_alloc_scripts_succeed(n in 1usize..30) {
        let mut script = String::from("class T f\n");
        for i in 0..n {
            script.push_str(&format!("new v{i} T\nroot v{i}\n"));
        }
        script.push_str("gc\nexpect-violations 0\n");
        for i in 0..n {
            script.push_str(&format!("expect-live v{i}\n"));
        }
        let out = Interpreter::run_script(&script).expect("well-formed script runs");
        prop_assert_eq!(out.collections, 1);
    }
}
