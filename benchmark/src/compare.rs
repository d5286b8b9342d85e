//! `compare A.json B.json`: per workload and end-to-end metric, both sides'
//! medians with quartiles over the runs in each file, the ratio with its
//! base, the bound, and a verdict.

use std::fmt::Write as _;

use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::results::StoredRun;
use crate::stats::{quartiles, spread};
use crate::workloads::WORKLOADS;

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread of a side is wider than the bound, and B's runs
    /// do not all read better than all of A's: the data cannot tell.
    Unresolved,
}

impl Verdict {
    /// As printed.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for one metric. `a` and `b` are the values of the
/// metric over each side's runs.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    // How much worse B is, as a share of A's median.
    let worse_by = match def.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let b_always_better = match def.better {
        Better::Lower => b.iter().all(|x| a.iter().all(|y| x < y)),
        Better::Higher => b.iter().all(|x| a.iter().all(|y| x > y)),
    };
    if (spread(a) > bound || spread(b) > bound) && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn values(runs: &[StoredRun], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(k, _)| k == metric).map(|(_, v)| *v))
        .collect()
}

/// Renders the comparison table; the flag says whether any row is `worse`.
pub fn render(a: &[StoredRun], b: &[StoredRun]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<16} {:<16} {:>5} {:>36} {:>36} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median [q1..q3] (n)",
        "B median [q1..q3] (n)",
        "B/A",
        "bound"
    );
    for w in WORKLOADS {
        for def in END_TO_END {
            let (va, vb) = (values(a, w.name, def.name), values(b, w.name, def.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(def, &va, &vb);
            any_worse |= verdict == Verdict::Worse;
            let side = |v: &[f64]| {
                let [q1, q2, q3] = quartiles(v);
                format!("{q2:.6} [{q1:.6}..{q3:.6}] ({})", v.len())
            };
            let _ = writeln!(
                out,
                "{:<16} {:<16} {:>5} {:>36} {:>36} {:>8.4} {:>5.0}%  {}",
                w.name,
                def.name,
                def.unit,
                side(&va),
                side(&vb),
                quartiles(&vb)[1] / quartiles(&va)[1],
                def.bound.unwrap_or(0.0) * 100.0,
                verdict.label()
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN_S: &MetricDef = &END_TO_END[1];
    const OPS_PER_S: &MetricDef = &END_TO_END[2];

    fn around(center: f64) -> Vec<f64> {
        // Ten runs within ±1 % of `center`.
        (0..10)
            .map(|i| center * (0.99 + 0.002 * f64::from(i)))
            .collect()
    }

    #[test]
    fn within_the_bound_is_ok_beyond_it_is_worse() {
        assert_eq!((RUN_S.name, OPS_PER_S.name), ("run_s", "ops_per_s"));
        let bound = RUN_S.bound.unwrap();
        assert_eq!(
            judge(RUN_S, &around(1.0), &around(1.0 + bound / 2.0)),
            Verdict::Ok
        );
        assert_eq!(
            judge(RUN_S, &around(1.0), &around(1.0 + bound * 1.5)),
            Verdict::Worse
        );
        // Lower is better for a time: a faster B is never worse.
        assert_eq!(judge(RUN_S, &around(1.0), &around(0.5)), Verdict::Ok);
        // Higher is better for a rate: the direction flips.
        assert_eq!(
            judge(
                OPS_PER_S,
                &around(100.0),
                &around(100.0 * (1.0 - bound * 1.5))
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(OPS_PER_S, &around(100.0), &around(150.0)),
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy: Vec<f64> = (0..10).map(|i| 1.0 + 0.1 * f64::from(i)).collect();
        assert_eq!(judge(RUN_S, &noisy, &around(1.5)), Verdict::Unresolved);
        assert_eq!(judge(RUN_S, &around(1.5), &noisy), Verdict::Unresolved);
        // Every run of B reads better than every run of A: resolved.
        assert_eq!(judge(RUN_S, &noisy, &around(0.5)), Verdict::Ok);
    }

    #[test]
    fn the_table_has_a_row_per_workload_and_metric_present_on_both_sides() {
        let run = |workload: &str, run_s: f64| StoredRun {
            workload: workload.to_owned(),
            metrics: vec![
                ("run_s".to_owned(), run_s),
                ("peak_rss_mb".to_owned(), 10.0),
            ],
        };
        let a = vec![
            run("live_mark", 1.0),
            run("live_mark", 1.01),
            run("churn_sweep", 2.0),
        ];
        let b = vec![run("live_mark", 1.5), run("live_mark", 1.51)];
        let (table, any_worse) = render(&a, &b);
        assert!(any_worse);
        assert_eq!(
            table.lines().filter(|l| l.starts_with("live_mark")).count(),
            2
        );
        assert!(!table.contains("churn_sweep"), "no B side, no row");
        assert!(table
            .lines()
            .any(|l| l.contains("run_s") && l.ends_with("worse")));
        assert!(table
            .lines()
            .any(|l| l.contains("peak_rss_mb") && l.ends_with("ok")));
    }
}
