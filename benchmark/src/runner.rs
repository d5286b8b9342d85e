//! The measuring protocol: set-up (several times), reps on fresh VMs until
//! the run length is used up, medians over reps, pauses pooled over reps,
//! counters compared between reps. The gated run has tracing off; the
//! traced run adds spans, control legs and layer probes and produces the
//! per-layer metrics and the price of tracing itself.

use std::time::{Duration, Instant};

use crate::calibrate::Calibrator;
use crate::env;
use crate::json::Value;
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{geomean, median, percentile, quartiles};
use crate::trace::{Call, Layer, Trace};
use crate::workloads::{
    Checks, Control, Counters, Leg, PauseSource, Prepared, Rep, Scale, WorkloadDef,
};

/// Times the set-up is repeated.
const SETUP_REPEATS: usize = 7;
/// Timed reps every run has, however short `seconds` is.
const MIN_REPS: usize = 3;
/// With pauses from telemetry, every fourth rep samples pauses instead.
const PAUSE_REP_EVERY: usize = 4;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// How long to measure, seconds.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the gated one.
    pub trace: bool,
    /// Rep size.
    pub scale: Scale,
    /// Plant an unexpected fault (the harness's self-test).
    pub misplant: bool,
}

/// The result of running one workload once.
#[derive(Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: &'static str,
    /// Seed used.
    pub seed: u64,
    /// End-to-end metrics (gated run) or per-layer metrics (traced run).
    pub metrics: MetricSet,
    /// Output checks over all reps, warm-up included.
    pub checks: Checks,
    /// Exact counters of one rep.
    pub counters: Counters,
    /// Timed reps.
    pub reps: usize,
    /// Pause samples taken.
    pub pause_samples: usize,
    /// Samples of the calibration kernel behind the calibrated times.
    pub calibration_samples: usize,
    /// Wall time of the whole run, seconds.
    pub wall_s: f64,
    /// The spans of the traced run.
    pub trace: Option<Trace>,
}

impl WorkloadResult {
    /// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        Value::obj()
            .with("correct", Value::Bool(self.checks.failed == 0))
            .with("attempted", self.checks.attempted.max(1).into())
            .with("failed", self.checks.failed.into())
            .with("metrics", self.metrics.to_json())
            .to_json()
    }

    /// The run as an entry of a result file.
    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("workload", self.workload.into())
            .with("seed", self.seed.into())
            .with("traced", Value::Bool(self.trace.is_some()))
            .with("reps", (self.reps as u64).into())
            .with("pause_samples", (self.pause_samples as u64).into())
            .with("setup_samples", (SETUP_REPEATS as u64).into())
            .with(
                "calibration_samples",
                (self.calibration_samples as u64).into(),
            )
            .with("wall_s", self.wall_s.into())
            .with("attempted", self.checks.attempted.into())
            .with("failed", self.checks.failed.into())
            .with("metrics", self.metrics.to_json())
            .with("counters", self.counters.to_json())
    }
}

/// One full set-up: generate the inputs, then a warm-up rep at smoke scale
/// so that every code path has run and the allocator is warm before the
/// first timed rep.
fn set_up(def: &WorkloadDef, opts: &RunOptions, checks: &mut Checks) -> Box<dyn Prepared> {
    let prepared = (def.prepare)(opts.seed, opts.scale);
    let warm = (def.prepare)(opts.seed, Scale::Smoke);
    let rep = warm.rep(Leg::default(), &mut Trace::disabled());
    checks.absorb(&rep.checks);
    prepared
}

/// Checks that `rep` counted exactly what `first` counted. Telemetry
/// records exist only on legs that turn telemetry on.
fn check_counters_repeat(checks: &mut Checks, first: &Counters, rep: &Counters) {
    let differs = first
        .0
        .iter()
        .chain(&rep.0)
        .map(|(k, _)| *k)
        .find(|k| !k.starts_with("telemetry.") && first.get(k) != rep.get(k));
    checks.check(differs.is_none(), || {
        let k = differs.unwrap_or_default();
        format!(
            "counter {k} differs between reps: {} then {}",
            first.get(k),
            rep.get(k)
        )
    });
}

fn secs(ns: f64) -> f64 {
    ns / 1e9
}

fn med(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Runs one workload under `opts`.
pub fn run_workload(def: &WorkloadDef, opts: &RunOptions) -> WorkloadResult {
    if opts.trace {
        run_traced(def, opts)
    } else {
        run_gated(def, opts)
    }
}

/// First quartile of `values`: the undisturbed level of a measurement that
/// interference can only raise.
fn q1(values: &[f64]) -> f64 {
    quartiles(values)[0]
}

fn run_gated(def: &WorkloadDef, opts: &RunOptions) -> WorkloadResult {
    let wall = Instant::now();
    let mut checks = Checks::default();
    let mut speed = Calibrator::new();
    for _ in 0..3 {
        speed.sample();
    }

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(set_up(def, opts, &mut checks));
        setups.push(t.elapsed().as_secs_f64());
        speed.sample_for(t.elapsed());
    }
    let prepared = prepared.expect("set up at least once");

    let budget = Duration::from_secs_f64(opts.seconds);
    let measuring = Instant::now();
    let mut longest = Duration::ZERO;
    let mut timed: Vec<Rep> = Vec::new();
    // The pauses of each rep that sampled pauses.
    let mut pause_reps: Vec<Vec<u64>> = Vec::new();
    let mut first: Option<Counters> = None;
    for i in 0.. {
        let pause_rep =
            def.pauses == PauseSource::TelemetryReps && i % PAUSE_REP_EVERY == PAUSE_REP_EVERY - 1;
        let leg = Leg {
            control: pause_rep.then_some(Control::Telemetry),
            misplant: opts.misplant,
        };
        let t = Instant::now();
        let mut rep = prepared.rep(leg, &mut Trace::disabled());
        let took = t.elapsed();
        speed.sample_for(took);
        longest = longest.max(took);
        checks.absorb(&rep.checks);
        match &first {
            Some(first) => check_counters_repeat(&mut checks, first, &rep.counters),
            None => first = Some(rep.counters.clone()),
        }
        if pause_rep || def.pauses == PauseSource::EveryRep {
            pause_reps.push(std::mem::take(&mut rep.pauses_ns));
        }
        if !pause_rep {
            timed.push(rep);
        }
        if timed.len() >= MIN_REPS
            && pause_reps.iter().any(|p| !p.is_empty())
            && measuring.elapsed() + longest > budget
        {
            break;
        }
    }

    // Every time is pieced together from the segments: for each segment the
    // low level over reps, summed, in calibrated seconds.
    let f = speed.factor();
    let segments = timed[0].segments.len();
    checks.check(
        segments > 0 && timed.iter().all(|r| r.segments.len() == segments),
        || "reps differ in their number of timed segments".to_owned(),
    );
    let over_reps = |g: fn(&[u64; 2]) -> u64| {
        let sum: f64 = (0..segments)
            .map(|s| {
                let across: Vec<f64> = timed
                    .iter()
                    .filter_map(|r| r.segments.get(s).map(|seg| g(seg) as f64))
                    .collect();
                q1(&across)
            })
            .sum();
        f * secs(sum)
    };
    let run_s = over_reps(|seg| seg[0]);
    let mut metrics = MetricSet::new(END_TO_END);
    metrics.set("setup_s", f * q1(&setups));
    metrics.set("run_s", run_s);
    metrics.set("ops_per_s", timed[0].ops as f64 / run_s);
    metrics.set("gc_s", over_reps(|seg| seg[1]));
    // Pauses are pooled over the undisturbed half of the reps that sampled
    // them: those that spent the least time paused in total.
    pause_reps.sort_by_key(|p| p.iter().sum::<u64>());
    pause_reps.truncate(pause_reps.len().div_ceil(2));
    let pauses: Vec<f64> = pause_reps
        .iter()
        .flatten()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let pause_samples = pauses.len();
    metrics.set("gc_pause_p50_ms", f * median(&pauses));
    metrics.set("peak_rss_mb", env::peak_rss_mb().unwrap_or(0.0));
    for def in END_TO_END {
        // A metric that reads 0 cannot be compared by ratio.
        checks.check(metrics.get(def.name) > 0.0, || {
            format!("{} is not positive", def.name)
        });
    }
    WorkloadResult {
        workload: def.name,
        seed: opts.seed,
        metrics,
        checks,
        counters: first.unwrap_or_default(),
        reps: timed.len(),
        pause_samples,
        calibration_samples: speed.len(),
        wall_s: wall.elapsed().as_secs_f64(),
        trace: None,
    }
}

/// Reps of one leg of the traced run.
struct LegReps {
    control: Option<Control>,
    traced: bool,
    reps: Vec<Rep>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn run_traced(def: &WorkloadDef, opts: &RunOptions) -> WorkloadResult {
    let wall = Instant::now();
    let mut checks = Checks::default();
    let prepared = set_up(def, opts, &mut checks);
    let mut trace = Trace::enabled();

    // Untraced and traced reps of the checked configuration, then one leg
    // per control; legs are interleaved so drift over the process's life
    // touches all of them alike.
    let mut legs = vec![
        LegReps {
            control: None,
            traced: false,
            reps: Vec::new(),
        },
        LegReps {
            control: None,
            traced: true,
            reps: Vec::new(),
        },
    ];
    legs.extend(def.controls.iter().map(|&c| LegReps {
        control: Some(c),
        traced: false,
        reps: Vec::new(),
    }));

    let mut first: Option<Counters> = None;
    let mut rounds = 2;
    let mut round = 0;
    while round < rounds {
        for leg in &mut legs {
            let t = Instant::now();
            let rep = if leg.traced {
                trace.next_rep();
                prepared.rep(Leg::default(), &mut trace)
            } else {
                let l = leg.control.map_or(Leg::default(), Leg::of);
                prepared.rep(l, &mut Trace::disabled())
            };
            let took = t.elapsed().as_secs_f64();
            checks.absorb(&rep.checks);
            // Only legs that change no verdict and no collection policy
            // must count what the checked configuration counts.
            if matches!(
                leg.control,
                None | Some(Control::Telemetry | Control::Census)
            ) {
                match &first {
                    Some(first) => check_counters_repeat(&mut checks, first, &rep.counters),
                    None => first = Some(rep.counters.clone()),
                }
            }
            leg.reps.push(rep);
            if round == 0 && leg.control.is_none() && !leg.traced {
                // Size the run from the first rep: as many rounds as fit
                // the run length, at least two and at most seven.
                let per_round = took * (2 + def.controls.len()) as f64;
                rounds = ((opts.seconds * 0.8 / per_round) as usize).clamp(2, 7);
            }
        }
        round += 1;
    }

    let untraced = &legs[0].reps;
    let traced = &legs[1].reps;
    let control = |c: Control| -> Option<&[Rep]> {
        legs.iter()
            .find(|l| l.control == Some(c))
            .map(|l| l.reps.as_slice())
    };
    let counters = first.unwrap_or_default();
    let count = |name: &str| counters.get(name) as f64;
    let obs = |reps: &[Rep], key: &str| med(reps, |r| r.obs(key));

    let mut m = MetricSet::new(PER_LAYER);
    let run_ns = med(untraced, |r| r.run_ns as f64);
    let gc_ns = med(untraced, |r| r.gc_ns as f64);
    let mark_ns = obs(untraced, "mark_ns");
    let sweep_ns = obs(untraced, "sweep_ns");
    let minor_ns = obs(untraced, "minor_ns");
    let objects = count("collector.mark.objects");

    // gca-heap
    let small = trace.call_stat(Call::AllocSmall);
    let mid = trace.call_stat(Call::AllocMid);
    let large = trace.call_stat(Call::AllocLarge);
    let set_field = trace.call_stat(Call::SetField);
    m.set("heap.alloc.small_ns", small.mean_ns());
    m.set("heap.alloc.mid_ns", mid.mean_ns());
    m.set("heap.alloc.large_ns", large.mean_ns());
    m.set("heap.alloc.count", count("heap.alloc.count"));
    m.set("heap.alloc.words", count("heap.alloc.words"));
    m.set("heap.set_field.ns", set_field.mean_ns());
    m.set(
        "heap.set_field.count",
        ratio(set_field.count as f64, traced.len() as f64),
    );
    m.set("heap.cards.dirtied", obs(traced, "cards_dirtied"));
    m.set("heap.page_count", count("heap.page_count"));
    m.set(
        "heap.peak_occupied_words",
        count("heap.peak_occupied_words"),
    );
    m.set("heap.grow_events", count("heap.grow_events"));

    // gca-collector
    m.set("collector.mark.ns_per_object", ratio(mark_ns, objects));
    m.set("collector.mark.objects", objects);
    m.set("collector.mark.edges", count("collector.mark.edges"));
    m.set(
        "collector.sweep.ns_per_dead_object",
        ratio(sweep_ns, count("collector.sweep.objects")),
    );
    m.set(
        "collector.sweep.ns_per_page",
        ratio(sweep_ns, count("collector.sweep.page_visits")),
    );
    m.set("collector.sweep.objects", count("collector.sweep.objects"));
    m.set("collector.sweep.words", count("collector.sweep.words"));
    m.set("collector.sweep.share_of_gc", ratio(sweep_ns, gc_ns));
    if count("collector.copy.objects") > 0.0 {
        m.set(
            "collector.copy.ns_per_object",
            ratio(mark_ns, count("collector.copy.objects")),
        );
        m.set("collector.copy.objects", count("collector.copy.objects"));
    }
    let minors = count("collector.minor.count");
    m.set("collector.minor.ns_per_cycle", ratio(minor_ns, minors));
    m.set(
        "collector.minor.ns_per_dirty_card",
        ratio(obs(traced, "minor_ns"), obs(traced, "cards_dirtied")),
    );
    m.set("collector.minor.count", minors);
    // Pauses of the checked configuration: its untraced and traced reps, and
    // the telemetry leg where collections are only visible through records.
    let pooled: Vec<f64> = legs
        .iter()
        .filter(|l| matches!(l.control, None | Some(Control::Telemetry)))
        .flat_map(|l| &l.reps)
        .flat_map(|r| &r.pauses_ns)
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    m.set("collector.pause.p95_ms", percentile(&pooled, 95.0));
    m.set(
        "collector.pause.max_ms",
        pooled.iter().copied().fold(0.0, f64::max),
    );
    m.set("collector.cycles", count("collector.cycles"));
    m.set("collector.gc_share_of_run", ratio(gc_ns, run_ns));

    // gc-assertions
    m.set(
        "core.ownership.ns_per_ownee",
        ratio(
            obs(untraced, "pre_root_ns"),
            count("core.ownership.ownees_checked"),
        ),
    );
    for name in [
        "core.ownership.owners_scanned",
        "core.ownership.ownees_checked",
        "core.ownership.deferred_processed",
        "core.ownership.pre_root_edges",
        "core.assert_register.count",
        "core.violations.count",
        "core.dead_bits_seen",
        "core.unshared_bits_seen",
        "core.tracked_instances_counted",
        "core.gc_triggers",
        "core.detect_cycles",
        "script.ops",
        "script.diagnostics",
        "soak.requests",
        "soak.detect_cycles.leak",
        "soak.detect_cycles.drift",
        "soak.false_positives",
    ] {
        m.set(name, count(name));
    }
    m.set(
        "core.assert_register.ns",
        trace.call_stat(Call::AssertRegister).mean_ns(),
    );
    m.set(
        "core.violation.render_ns",
        ratio(obs(untraced, "render_ns"), count("core.violations.count")),
    );
    m.set("core.alloc_in_gc_s", secs(obs(traced, "alloc_in_gc_ns")));

    // Control legs.
    if let Some(base) = control(Control::Base) {
        let base_run = med(base, |r| r.run_ns as f64);
        let base_gc = med(base, |r| r.gc_ns as f64);
        m.set("control.base_run_s", secs(base_run));
        m.set("control.base_gc_s", secs(base_gc));
        // Per-part medians, then the geometric mean over parts, as the
        // paper's figures take it over programs.
        let parts = untraced[0].segments.len().min(base[0].segments.len());
        let part =
            |reps: &[Rep], p: usize, f: fn(&[u64; 2]) -> f64| med(reps, |r| f(&r.segments[p]));
        let over_parts = |f: fn(&[u64; 2]) -> f64| {
            let ratios: Vec<f64> = (0..parts)
                .map(|p| ratio(part(untraced, p, f), part(base, p, f)))
                .filter(|&r| r > 0.0)
                .collect();
            geomean(&ratios)
        };
        let (total, mutator, gc) = (
            over_parts(|p| p[0] as f64),
            over_parts(|p| p[0].saturating_sub(p[1]) as f64),
            over_parts(|p| p[1] as f64),
        );
        if counters.get("core.assert_register.count") == 0 {
            // Infrastructure over Base: Figures 2 and 3, and what the
            // attached hooks cost the mark loop per object.
            m.set(
                "core.hooks.ns_per_object",
                ratio(mark_ns - obs(base, "mark_ns"), objects),
            );
            m.set("paper.fig2_total_ratio", total);
            m.set("paper.fig2_mutator_ratio", mutator);
            m.set("paper.fig3_gc_ratio", gc);
        } else {
            // WithAssertions over Base: Figures 4 and 5.
            m.set("paper.fig4_total_ratio", total);
            m.set("paper.fig5_gc_ratio", gc);
        }
    }
    if let Some(on) = control(Control::Telemetry) {
        let records = on[0].counters.get("telemetry.records") as f64;
        m.set(
            "telemetry.record.ns_per_cycle",
            ratio(med(on, |r| r.gc_ns as f64) - gc_ns, records),
        );
        m.set("telemetry.records", records);
        m.set(
            "collector.minor.promoted",
            on[0].counters.get("telemetry.minor.promoted") as f64,
        );
        m.set(
            "collector.minor.objects_marked",
            on[0].counters.get("telemetry.minor.objects_marked") as f64,
        );
    }
    if let Some(on) = control(Control::Census) {
        m.set(
            "collector.census.ns_per_object",
            ratio(obs(on, "mark_ns") - mark_ns, objects),
        );
    }
    if let Some(par) = control(Control::Par2) {
        m.set(
            "collector.par2.mark_ns_per_object",
            ratio(
                obs(par, "mark_ns"),
                par[0].counters.get("collector.mark.objects") as f64,
            ),
        );
        m.set("collector.par2.worker_skew", obs(par, "worker_skew"));
    }
    if let Some(rs) = control(Control::RememberedSet) {
        m.set(
            "collector.minor.rs_ns_per_cycle",
            ratio(
                obs(rs, "minor_ns"),
                rs[0].counters.get("collector.minor.count") as f64,
            ),
        );
    }
    if let Some(plain) = control(Control::NoPaths) {
        m.set(
            "collector.mark.paths_ns_per_object",
            ratio(mark_ns, objects),
        );
        m.set(
            "collector.mark.nopaths_ns_per_object",
            ratio(obs(plain, "mark_ns"), objects),
        );
    }

    // gca-telemetry exporters, gca-script, gca-soak: set by the one
    // workload that does that work, 0 elsewhere.
    let records = count("telemetry.records");
    if records > 0.0 && control(Control::Telemetry).is_none() {
        m.set("telemetry.records", records);
    }
    m.set(
        "telemetry.export.jsonl_ns_per_record",
        ratio(obs(traced, "jsonl_ns"), obs(traced, "jsonl_records")),
    );
    m.set(
        "telemetry.export.prom_ms_per_scrape",
        ratio(obs(untraced, "scrape_ns"), obs(untraced, "scrapes")) / 1e6,
    );
    let ops = untraced[0].ops as f64;
    m.set("workloads.ops", ops);
    m.set("workloads.mutator_s", secs(run_ns - gc_ns));
    m.set("workloads.mutator_ns_per_op", ratio(run_ns - gc_ns, ops));
    m.set(
        "script.parse.ns_per_line",
        ratio(obs(untraced, "parse_ns"), count("script.lines")),
    );
    m.set(
        "script.interp.ns_per_op",
        ratio(obs(untraced, "interp_ns"), count("script.ops")),
    );
    m.set(
        "script.check.exact_ms_per_script",
        ratio(obs(untraced, "check_exact_ns"), count("script.exact")) / 1e6,
    );
    m.set(
        "script.check.summarized_ms_per_script",
        ratio(
            obs(untraced, "check_summarized_ns"),
            count("script.summarized"),
        ) / 1e6,
    );
    m.set(
        "script.suggest.ms_per_script",
        ratio(obs(untraced, "suggest_ns"), count("script.scripts")) / 1e6,
    );
    m.set(
        "soak.shard_busy_s.max",
        secs(obs(untraced, "shard_busy_max_ns")),
    );
    m.set(
        "soak.shard_busy_s.min",
        secs(obs(untraced, "shard_busy_min_ns")),
    );

    // Self time per layer in one traced rep, and what tracing costs.
    let (per_layer, _) = trace.layer_self_seconds("rep");
    let n = traced.len() as f64;
    let mut covered = 0.0;
    for layer in Layer::ALL {
        let s = per_layer[layer as usize] / n;
        m.set(&format!("self.{}_s", layer.label()), s);
        if layer != Layer::Bench {
            covered += s;
        }
    }
    let traced_run = secs(med(traced, |r| r.run_ns as f64));
    let traced_mean = secs(traced.iter().map(|r| r.run_ns as f64).sum::<f64>() / n);
    m.set("bench.self_time_coverage", ratio(covered, traced_mean));
    m.set("bench.traced_run_s", traced_run);
    m.set(
        "bench.trace_overhead_ratio",
        ratio(traced_run, secs(run_ns)),
    );
    m.set("bench.span_count", trace.spans().len() as f64);

    for &probe in def.probes {
        probes::run(probe, opts.seed, opts.scale, &mut m);
    }

    WorkloadResult {
        workload: def.name,
        seed: opts.seed,
        metrics: m,
        checks,
        counters,
        reps: traced.len(),
        pause_samples: pooled.len(),
        calibration_samples: 0,
        wall_s: wall.elapsed().as_secs_f64(),
        trace: Some(trace),
    }
}
