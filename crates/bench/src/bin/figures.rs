//! Prints the paper results the repo benchmark (`benchmark/`) does not:
//! Figure 1's report, the per-program Figure 4/5 rows and the §4
//! comparators (Ablations B–D). Figures 2/3 and Ablations A/E/F/G are
//! benchmark metrics; EXPERIMENTS.md says which.
//!
//! With no selection flag, `--all` is assumed. `--reps` (default 3) sets
//! runs per Figure 4/5 cell (median taken); `--scale` (default 1.0)
//! shrinks workload iteration counts for quick runs.

use gca_bench::{baseline_detectors, baseline_eager, baseline_probes, figure1, figures_4_5};

const USAGE: &str =
    "usage: figures [--fig1] [--fig4] [--fig5] [--baselines] [--all] [--reps N] [--scale F]";

struct Args {
    fig1: bool,
    fig45: bool,
    baselines: bool,
    reps: usize,
    scale: f64,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        fig1: false,
        fig45: false,
        baselines: false,
        reps: 3,
        scale: 1.0,
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fig1" => args.fig1 = true,
            "--fig4" | "--fig5" => args.fig45 = true,
            "--baselines" => args.baselines = true,
            "--all" => (args.fig1, args.fig45, args.baselines) = (true, true, true),
            "--reps" => {
                let n = it.next().and_then(|v| v.parse().ok());
                args.reps = n.ok_or("--reps takes a whole number")?;
            }
            "--scale" => {
                let s = it.next().and_then(|v| v.parse().ok());
                args.scale = s.ok_or("--scale takes a number")?;
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if !(args.fig1 || args.fig45 || args.baselines) {
        (args.fig1, args.fig45, args.baselines) = (true, true, true);
    }
    Ok(args)
}

fn heading(lines: &[&str]) {
    let rule = "=".repeat(71);
    println!("{rule}\n{}\n{rule}", lines.join("\n"));
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("{message}\n{USAGE}");
        std::process::exit(2);
    });
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;

    if args.fig1 {
        heading(&["Figure 1: full-path error report (buggy pseudojbb, assert-dead)"]);
        println!("{}\n", figure1());
    }

    if args.fig45 {
        heading(&[
            "Figures 4 & 5: overhead with assertions (Base/Infrastructure/With)",
            "(paper: 209_db +1.02% total, +49.7% GC; pseudojbb +1.84%, +15.3%)",
        ]);
        println!(
            "benchmark      base(ms)  infra(ms)   with(ms)    total% | baseGC(ms) withGC(ms)       gc% |    ownees/GC"
        );
        for r in figures_4_5(args.reps, args.scale) {
            println!(
                "{:<12} {:>10.2} {:>10.2} {:>10.2} {:>8.2}% | {:>10.2} {:>10.2} {:>8.2}% | {:>12.0}",
                r.name,
                ms(r.base.total),
                ms(r.infra.total),
                ms(r.with.total),
                r.total_overhead(),
                ms(r.base.gc),
                ms(r.with.gc),
                r.gc_overhead(),
                r.with.ownees_checked_per_gc,
            );
        }
        println!();
    }

    if args.baselines {
        heading(&[
            "Ablation B: eager (JML-style) invariant checking vs GC assertions",
            "(paper S4.1: eager checking can be 10x-100x; GC assertions ~free)",
        ]);
        let cmp = baseline_eager(300, 2_000);
        println!(
            "unchecked: {:>10.2?}   gc-assertions: {:>10.2?} ({:.2}x)   eager: {:>10.2?} ({:.1}x)",
            cmp.unchecked,
            cmp.gc_assertions,
            cmp.gc_slowdown(),
            cmp.eager,
            cmp.eager_slowdown()
        );
        println!(
            "eager checker traversed {} objects across {} mutations\n",
            cmp.eager_traversed, cmp.mutations
        );

        heading(&["Ablation C: precision vs heuristic detectors on a planted leak"]);
        let c = baseline_detectors();
        println!("planted leaks: {}", c.leaked);
        println!(
            "GC assertions : {} true positives, {} false positives (instance-level, with paths)",
            c.gca_true_positives, c.gca_false_positives
        );
        println!(
            "staleness     : {} true positives, {} false positives (candidates only)",
            c.stale_true_positives, c.stale_false_positives
        );
        println!(
            "cork growth   : flagged leaking class: {} (type-level only)\n",
            c.cork_flagged_entry_class
        );

        heading(&[
            "Ablation D: QVM-style immediate probes vs batched GC assertions",
            "(probes trigger a full traversal each; assertions batch into one GC)",
        ]);
        let questions = 64;
        let p = baseline_probes(20_000, questions);
        println!(
            "{questions} liveness questions: probes {:?}  batched {:?}  ({:.1}x)\n",
            p.probes,
            p.batched,
            p.slowdown()
        );
    }
}
