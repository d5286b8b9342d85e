//! The analyzer/run agreement check shared by the script crate's
//! differential suites.

use std::collections::{HashMap, VecDeque};

use gca_script::{parse_script, Analysis, GcPrediction, Interpreter};

/// Checks one script's analyzer predictions against one dynamic run.
///
/// Since loops and procedures landed, a single `gc` *line* can execute
/// any number of times, so predictions are keyed by line rather than
/// zipped in stream order: exact predictions form a FIFO queue per line
/// (the analyzer replays blocks in program order, so queue order is
/// dynamic order), while a summarized prediction collapses to one
/// sticky entry standing for *every* dynamic execution of its line —
/// its must-set is empty by construction, which we also assert.
pub fn differential_check(name: &str, src: &str, analysis: &Analysis) {
    let mut interp = Interpreter::new();
    for (line, cmd) in parse_script(src).unwrap_or_else(|e| panic!("{name}: {e}")) {
        interp
            .execute(line, &cmd)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    let log: Vec<String> = interp
        .vm_ref()
        .map(|vm| vm.violation_log().iter().map(|v| v.summary()).collect())
        .unwrap_or_default();
    let out = interp.finish();

    let mut queues: HashMap<usize, VecDeque<&GcPrediction>> = HashMap::new();
    let mut sticky: HashMap<usize, &GcPrediction> = HashMap::new();
    for c in analysis.collections.iter().filter(|c| c.explicit) {
        if c.summarized {
            assert!(
                c.must.is_empty(),
                "{name} line {}: a summarized collection must never promise a must-set",
                c.line
            );
            sticky.insert(c.line, c);
        } else {
            queues.entry(c.line).or_default().push_back(c);
        }
    }

    for (line, actual) in &out.explicit_gcs {
        if let Some(pred) = queues.get_mut(line).and_then(|q| q.pop_front()) {
            let mut remaining = actual.clone();
            for must in &pred.must {
                let pos = remaining.iter().position(|a| a == must).unwrap_or_else(|| {
                    panic!(
                        "{name} line {line}: FALSE POSITIVE — analyzer promised `{must}` \
                         but the interpreter reported {actual:?}"
                    )
                });
                remaining.remove(pos);
            }
            if pred.may.is_empty() {
                assert!(
                    remaining.is_empty(),
                    "{name} line {line}: analyzer claimed exactness but the interpreter \
                     also reported {remaining:?}"
                );
            }
        } else {
            assert!(
                sticky.contains_key(line),
                "{name} line {line}: the interpreter ran a gc the analyzer never predicted"
            );
        }
    }
    for (line, q) in &queues {
        assert!(
            q.is_empty(),
            "{name} line {line}: analyzer predicted {} gc(s) the interpreter never ran",
            q.len()
        );
    }

    // Cumulative check across every collection, implicit and minor
    // included.
    let mut remaining = log.clone();
    for c in &analysis.collections {
        for must in &c.must {
            let pos = remaining.iter().position(|a| a == must).unwrap_or_else(|| {
                panic!(
                    "{name}: cumulative FALSE POSITIVE — `{must}` absent from the \
                     violation log {log:?}"
                )
            });
            remaining.remove(pos);
        }
    }
}
