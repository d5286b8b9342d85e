//! Command line of the repo benchmark: `run`, `compare`, `check-counters`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use gca_benchmark::json::Value;
use gca_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use gca_benchmark::runner::{run_workload, RunOptions, WorkloadResult};
use gca_benchmark::workloads::soak_fleet::SHARDS;
use gca_benchmark::workloads::{self, Control, Scale, WorkloadDef, WORKLOADS};
use gca_benchmark::{compare, env, golden, results};

const USAGE: &str = "\
usage:
  gca-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
  gca-benchmark compare A.json B.json
  gca-benchmark check-counters [--update]

run prints every metric by name and unit, then one JSON line with
`correct`, `attempted`, `failed` and `metrics`. Without --workload it runs
all eight. --trace gives the per-layer metrics instead of the gated
end-to-end ones. --out appends the runs to a result file that `compare`
reads; with --trace the spans go to `trace.json` beside it.";

/// Default run length, the same as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: golden::GOLDEN_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| "--seconds takes a number of seconds".to_owned())?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => parsed.smoke = true,
            // `--trace 0|1` as the driver passes it, or bare `--trace`.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Threads a workload's run occupies at once.
fn threads_needed(def: &WorkloadDef, trace: bool) -> usize {
    if def.name == "soak_fleet" || (trace && def.controls.contains(&Control::Par2)) {
        SHARDS
    } else {
        1
    }
}

fn print_metrics(result: &WorkloadResult, table: &[MetricDef]) {
    println!(
        "# {} seed {} — {} reps, {} pause samples, {:.1} s",
        result.workload, result.seed, result.reps, result.pause_samples, result.wall_s
    );
    for def in table {
        let bound = def
            .bound
            .map_or(String::new(), |b| format!("  (bound {:.0}%)", b * 100.0));
        println!(
            "{:<44} {:>18.6} {}{}",
            def.name,
            result.metrics.get(def.name),
            def.unit,
            bound
        );
    }
    for note in &result.checks.notes {
        println!("FAILED CHECK: {note}");
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let started = Instant::now();
    let args = parse_run_args(args)?;
    let selected: Vec<&WorkloadDef> = match &args.workload {
        Some(name) => vec![workloads::find(name).ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name}; one of {}", names.join(", "))
        })?],
        None => WORKLOADS.iter().collect(),
    };
    let nproc = env::nproc();
    for def in &selected {
        let need = threads_needed(def, args.trace);
        if need > nproc {
            return Err(format!(
                "{} runs {need} threads at once but this machine has {nproc} cores",
                def.name
            ));
        }
    }
    if let Some(load) = env::load_average().filter(|&l| l > nproc as f64) {
        eprintln!(
            "warning: 1-minute load average {load:.2} exceeds {nproc} cores; times will be noisy"
        );
    }

    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: if args.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        },
        misplant: false,
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut all = Vec::new();
    for def in selected {
        let result = run_workload(def, &opts);
        print_metrics(&result, table);
        println!("{}", result.contract_line());
        all.push(result);
    }
    if let Some(out) = &args.out {
        if args.smoke {
            return Err(
                "--smoke runs are for the harness's tests and are never written".to_owned(),
            );
        }
        results::append(out, &all, args.seconds, started.elapsed().as_secs_f64())?;
        if args.trace {
            // One file for the command: the spans of each workload traced.
            let mut traces = Value::obj();
            for result in &all {
                if let Some(trace) = &result.trace {
                    traces.set(result.workload, trace.to_json());
                }
            }
            let path = out.with_file_name("trace.json");
            std::fs::write(&path, traces.to_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    // A failed check is reported in the JSON line; the command itself ran.
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".to_owned());
    };
    let runs_a = results::read_gated_runs(Path::new(a))?;
    let runs_b = results::read_gated_runs(Path::new(b))?;
    let (table, any_worse) = compare::render(&runs_a, &runs_b);
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_check_counters(args: &[String]) -> Result<ExitCode, String> {
    let update = match args {
        [] => false,
        [flag] if flag == "--update" => true,
        _ => return Err("check-counters takes only --update".to_owned()),
    };
    let opts = RunOptions {
        seed: golden::GOLDEN_SEED,
        // The shortest run the protocol allows: counters do not need time.
        seconds: 0.0,
        trace: false,
        scale: Scale::Full,
        misplant: false,
    };
    let all: Vec<WorkloadResult> = WORKLOADS
        .iter()
        .map(|def| run_workload(def, &opts))
        .collect();
    let mut ok = true;
    for r in all.iter().filter(|r| r.checks.failed > 0) {
        ok = false;
        println!(
            "{}: {} failed checks: {:?}",
            r.workload, r.checks.failed, r.checks.notes
        );
    }
    let path = golden::golden_path();
    if update {
        std::fs::write(&path, golden::render(&all))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    } else {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let diffs = golden::differences(&text, &all)?;
        for d in &diffs {
            println!("{d}");
        }
        ok &= diffs.is_empty();
        println!(
            "check-counters: {} counters of {} workloads {}",
            all.iter().map(|r| r.counters.0.len()).sum::<usize>(),
            all.len(),
            if diffs.is_empty() {
                "match the golden file"
            } else {
                "DIFFER"
            }
        );
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Re-executes the benchmark with glibc confined to one malloc arena, unless
/// the caller already chose a setting. With an arena per thread,
/// `soak_fleet`'s peak resident set flips between 16 and 20 MB from run to
/// run for the same work; with one arena it repeats within 1 %, like the
/// single-threaded workloads' does anyway.
fn confine_malloc_arenas() {
    use std::os::unix::process::CommandExt as _;
    const KNOB: &str = "MALLOC_ARENA_MAX";
    if std::env::var_os(KNOB).is_some() {
        return;
    }
    if let Ok(exe) = std::env::current_exe() {
        // On success `exec` does not return; on failure carry on as we are.
        let _ = std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env(KNOB, "1")
            .exec();
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|cmd| cmd == "run") {
        confine_malloc_arenas();
    }
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, rest)) if cmd == "check-counters" => cmd_check_counters(rest),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
