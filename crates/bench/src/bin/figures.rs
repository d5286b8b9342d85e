//! Regenerates every figure of the paper's evaluation as a text table.
//!
//! ```text
//! figures [--fig1] [--fig2] [--fig3] [--fig4] [--fig5]
//!         [--ablations] [--baselines] [--all]
//!         [--telemetry PATH] [--census PATH] [--soak-bench PATH]
//!         [--collector mark-sweep|copying]
//!         [--reps N] [--scale F]
//! ```
//!
//! With no figure flags, `--all` is assumed. `--reps` (default 3) sets
//! runs per cell (median taken); `--scale` (default 1.0) shrinks workload
//! iteration counts for quick runs. `--telemetry PATH` is its own mode:
//! it runs the full suite once with telemetry recording enabled and
//! writes one JSON-lines record per GC cycle (tagged with the benchmark
//! name) to PATH. `--census PATH` does the same with the heap census
//! also enabled, so every record carries per-class live tallies and top
//! allocation sites. `--soak-bench PATH` runs the deterministic 2-shard
//! fleet soak (virtual pacing, one injected leak) and writes its
//! `BENCH_soak.json` summary — detection latency, per-shard latency
//! quantiles, false-positive rate — to PATH. `--collector` picks the
//! backend the telemetry and
//! census suites run on (default mark-sweep); the figure tables always
//! measure the paper's mark-sweep configuration, and the copying
//! comparison has its own table (Ablation G) under `--ablations`.

use gc_assertions::CollectorKind;
use gca_bench::{
    ablation_census, ablation_copying, ablation_path_tracking, baseline_detectors, baseline_eager,
    baseline_generational, baseline_probes, figure1, figures_2_3, figures_4_5, suite_jsonl,
    summarize_infra,
};

struct Args {
    fig1: bool,
    fig23: bool,
    fig45: bool,
    ablations: bool,
    baselines: bool,
    telemetry: Option<String>,
    census: Option<String>,
    soak_bench: Option<String>,
    collector: CollectorKind,
    reps: usize,
    scale: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        fig1: false,
        fig23: false,
        fig45: false,
        ablations: false,
        baselines: false,
        telemetry: None,
        census: None,
        soak_bench: None,
        collector: CollectorKind::MarkSweep,
        reps: 3,
        scale: 1.0,
    };
    let mut any = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fig1" => {
                args.fig1 = true;
                any = true;
            }
            "--fig2" | "--fig3" => {
                args.fig23 = true;
                any = true;
            }
            "--fig4" | "--fig5" => {
                args.fig45 = true;
                any = true;
            }
            "--ablations" => {
                args.ablations = true;
                any = true;
            }
            "--baselines" => {
                args.baselines = true;
                any = true;
            }
            "--all" => {
                args.fig1 = true;
                args.fig23 = true;
                args.fig45 = true;
                args.ablations = true;
                args.baselines = true;
                any = true;
            }
            "--telemetry" => {
                args.telemetry = Some(it.next().expect("--telemetry takes an output path"));
                any = true;
            }
            "--census" => {
                args.census = Some(it.next().expect("--census takes an output path"));
                any = true;
            }
            "--soak-bench" => {
                args.soak_bench = Some(it.next().expect("--soak-bench takes an output path"));
                any = true;
            }
            "--collector" => {
                let v = it.next().expect("--collector takes mark-sweep|copying");
                args.collector = match v.as_str() {
                    "mark-sweep" | "marksweep" => CollectorKind::MarkSweep,
                    "copying" => CollectorKind::Copying,
                    other => {
                        eprintln!("--collector expects mark-sweep|copying, got {other}");
                        std::process::exit(2);
                    }
                };
            }
            "--reps" => {
                args.reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps takes a positive integer");
            }
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale takes a float");
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if !any {
        args.fig1 = true;
        args.fig23 = true;
        args.fig45 = true;
        args.ablations = true;
        args.baselines = true;
    }
    args
}

fn main() {
    let args = parse_args();

    if let Some(path) = &args.telemetry {
        let jsonl = suite_jsonl(args.scale, |c| c.collector(args.collector));
        let records = jsonl.lines().count();
        std::fs::write(path, &jsonl).expect("writing the telemetry JSONL file");
        println!(
            "telemetry: wrote {records} GC-cycle records ({:?} collector) to {path}",
            args.collector
        );
        println!();
    }

    if let Some(path) = &args.census {
        let jsonl = suite_jsonl(args.scale, |c| c.census(true).collector(args.collector));
        let records = jsonl.lines().count();
        std::fs::write(path, &jsonl).expect("writing the census JSONL file");
        println!(
            "census: wrote {records} GC-cycle records (with census fields, {:?} collector) to {path}",
            args.collector
        );
        println!();
    }

    if let Some(path) = &args.soak_bench {
        // The deterministic smoke fleet plus one seeded leak, so the
        // bench records a real detection-latency figure.
        let mut config = gca_soak::SoakConfig::smoke();
        config.faults = vec![gca_soak::FaultPlan::new(1, gca_soak::FaultKind::Leak, 100)];
        config.bench_out = Some(path.into());
        let report = gca_soak::run_soak(config).expect("running the smoke soak");
        print!("{}", report.summary());
        println!("soak: wrote BENCH summary to {path}");
        if !report.passed() {
            eprintln!("soak smoke FAILED");
            std::process::exit(1);
        }
        println!();
    }

    if args.fig1 {
        println!("==============================================================");
        println!("Figure 1: full-path error report (buggy pseudojbb, assert-dead)");
        println!("==============================================================");
        println!("{}", figure1());
        println!();
    }

    if args.fig23 {
        println!("=======================================================================");
        println!("Figures 2 & 3: infrastructure overhead, Base vs Infrastructure");
        println!("(paper: total +2.75% geomean; mutator +1.12%; GC +13.36%, worst ~30%)");
        println!("=======================================================================");
        let rows = figures_2_3(args.reps, args.scale);
        println!(
            "{:<12} {:>10} {:>10} {:>9} | {:>10} {:>10} {:>9} | {:>9}",
            "benchmark",
            "base(ms)",
            "infra(ms)",
            "total%",
            "baseGC(ms)",
            "infGC(ms)",
            "gc%",
            "mutator%"
        );
        for r in &rows {
            println!(
                "{:<12} {:>10.2} {:>10.2} {:>8.2}% | {:>10.2} {:>10.2} {:>8.2}% | {:>8.2}%  (90% CI ±{:.2}/±{:.2}ms)",
                r.name,
                r.base.total.as_secs_f64() * 1e3,
                r.infra.total.as_secs_f64() * 1e3,
                r.total_overhead(),
                r.base.gc.as_secs_f64() * 1e3,
                r.infra.gc.as_secs_f64() * 1e3,
                r.gc_overhead(),
                r.mutator_overhead(),
                r.base_stats.ci90_half.as_secs_f64() * 1e3,
                r.infra_stats.ci90_half.as_secs_f64() * 1e3,
            );
        }
        let (total, mutator, gc) = summarize_infra(&rows);
        println!("--------------------------------------------------------------");
        println!(
            "geomean: total {total:+.2}%  mutator {mutator:+.2}%  gc {gc:+.2}%   (paper: +2.75% / +1.12% / +13.36%)"
        );
        // Pick the worst case among benchmarks that actually spend
        // meaningful time in GC (sub-millisecond baselines are noise).
        if let Some(worst) = rows
            .iter()
            .filter(|r| r.base.gc.as_secs_f64() >= 1e-3)
            .max_by(|a, b| a.gc_overhead().total_cmp(&b.gc_overhead()))
        {
            println!(
                "worst GC overhead (GC-significant benchmarks): {} {:+.2}%   (paper: bloat ~+30%)",
                worst.name,
                worst.gc_overhead()
            );
        }
        println!();
    }

    if args.fig45 {
        println!("=======================================================================");
        println!("Figures 4 & 5: overhead with assertions (Base/Infrastructure/With)");
        println!("(paper: 209_db +1.02% total, +49.7% GC; pseudojbb +1.84%, +15.3%)");
        println!("=======================================================================");
        let rows = figures_4_5(args.reps, args.scale);
        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>9} | {:>10} {:>10} {:>9} | {:>12}",
            "benchmark",
            "base(ms)",
            "infra(ms)",
            "with(ms)",
            "total%",
            "baseGC(ms)",
            "withGC(ms)",
            "gc%",
            "ownees/GC"
        );
        for r in &rows {
            println!(
                "{:<12} {:>10.2} {:>10.2} {:>10.2} {:>8.2}% | {:>10.2} {:>10.2} {:>8.2}% | {:>12.0}  (90% CI ±{:.2}/±{:.2}ms)",
                r.name,
                r.base.total.as_secs_f64() * 1e3,
                r.infra.total.as_secs_f64() * 1e3,
                r.with.total.as_secs_f64() * 1e3,
                r.total_overhead(),
                r.base.gc.as_secs_f64() * 1e3,
                r.with.gc.as_secs_f64() * 1e3,
                r.gc_overhead(),
                r.with.ownees_checked_per_gc,
                r.base_stats.ci90_half.as_secs_f64() * 1e3,
                r.with_stats.ci90_half.as_secs_f64() * 1e3,
            );
        }
        println!();
    }

    if args.ablations {
        println!("=======================================================================");
        println!("Ablation A: path-tracking worklist cost (GC time, Infrastructure)");
        println!("=======================================================================");
        let rows = ablation_path_tracking(args.reps, args.scale, 6);
        println!(
            "{:<12} {:>12} {:>12} {:>9}",
            "benchmark", "plain(ms)", "paths(ms)", "delta%"
        );
        for r in &rows {
            let delta = if r.gc_plain.is_zero() {
                0.0
            } else {
                (r.gc_paths.as_secs_f64() / r.gc_plain.as_secs_f64() - 1.0) * 100.0
            };
            println!(
                "{:<12} {:>12.2} {:>12.2} {:>8.2}%",
                r.name,
                r.gc_plain.as_secs_f64() * 1e3,
                r.gc_paths.as_secs_f64() * 1e3,
                delta
            );
        }
        println!();

        println!("=======================================================================");
        println!("Ablation F: heap-census accumulator cost (GC time, Infrastructure)");
        println!("=======================================================================");
        let rows = ablation_census(args.reps, args.scale, 6);
        println!(
            "{:<12} {:>12} {:>12} {:>9}",
            "benchmark", "off(ms)", "on(ms)", "delta%"
        );
        for r in &rows {
            println!(
                "{:<12} {:>12.2} {:>12.2} {:>8.2}%",
                r.name,
                r.gc_off.as_secs_f64() * 1e3,
                r.gc_on.as_secs_f64() * 1e3,
                r.overhead()
            );
        }
        println!();

        println!("=======================================================================");
        println!("Ablation G: mark-sweep vs semispace copying backend (GC time)");
        println!("(same assertions, same verdicts; Cheney scan vs mark/sweep traversal)");
        println!("=======================================================================");
        let rows = ablation_copying(args.reps, args.scale, 6);
        println!(
            "{:<12} {:>10} {:>10} {:>9} | {:>10} {:>10} {:>9}",
            "benchmark",
            "ms-inf(ms)",
            "cp-inf(ms)",
            "infra%",
            "ms-ast(ms)",
            "cp-ast(ms)",
            "assert%"
        );
        for r in &rows {
            println!(
                "{:<12} {:>10.2} {:>10.2} {:>8.2}% | {:>10.2} {:>10.2} {:>8.2}%",
                r.name,
                r.ms_infra.as_secs_f64() * 1e3,
                r.cp_infra.as_secs_f64() * 1e3,
                r.infra_delta(),
                r.ms_assert.as_secs_f64() * 1e3,
                r.cp_assert.as_secs_f64() * 1e3,
                r.assert_delta()
            );
        }
        println!();

        println!("=======================================================================");
        println!("Ablation B: eager (JML-style) invariant checking vs GC assertions");
        println!("(paper S4.1: eager checking can be 10x-100x; GC assertions ~free)");
        println!("=======================================================================");
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
            "eager checker traversed {} objects across {} mutations",
            cmp.eager_traversed, cmp.mutations
        );
        println!();

        println!("=======================================================================");
        println!("Ablation D: QVM-style immediate probes vs batched GC assertions");
        println!("(probes trigger a full traversal each; assertions batch into one GC)");
        println!("=======================================================================");
        let p = baseline_probes(20_000, 64);
        println!(
            "{} liveness questions: probes {:?}  batched {:?}  ({:.1}x)",
            p.questions,
            p.probes,
            p.batched,
            p.slowdown()
        );
        println!();

        println!("=======================================================================");
        println!("Ablation E: full-heap MarkSweep vs generational collection");
        println!("(paper S2.2: generational lets assertions go unchecked for long periods)");
        println!("=======================================================================");
        let g = baseline_generational();
        println!(
            "marksweep   : total {:?}  gc {:?}  ({} majors)          violation seen after {} collections",
            g.marksweep_total, g.marksweep_gc, g.marksweep_majors, g.marksweep_detection_gcs
        );
        println!(
            "generational: total {:?}  gc {:?}  ({} majors + {} minors) violation seen after {} collections",
            g.generational_total,
            g.generational_gc,
            g.generational_majors,
            g.generational_minors,
            g.generational_detection_gcs
        );
        println!();
    }

    if args.baselines {
        println!("=======================================================================");
        println!("Ablation C: precision vs heuristic detectors on a planted leak");
        println!("=======================================================================");
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
            "cork growth   : flagged leaking class: {} (type-level only)",
            c.cork_flagged_entry_class
        );
        println!();
    }
}
