//! The metric registry: every name the harness may emit, with its unit and
//! direction, and for end-to-end metrics the regression bound. These tables
//! and `BENCHMARK.json` must agree; `tests/smoke.rs` checks that they do.

use std::collections::BTreeMap;

use crate::json::Value;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registered metric. `bound` is set for end-to-end metrics only.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Fixed unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; every workload reports every one, from
/// the run with tracing off. The time bounds are the widest the benchmark
/// contract allows: ten runs of one commit spread by up to 9 % on the shared
/// machine the benchmark was sized on, and a bound has to sit well clear of
/// that to mean anything.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("run_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("gc_s", "s", Lower, 0.25),
    e2e("gc_pause_p50_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
];

/// Single-layer metrics from the traced run, its probes and control legs.
/// A metric a workload does no work for is reported as 0.
pub const PER_LAYER: &[MetricDef] = &[
    // gca-heap
    layer("heap.alloc.small_ns", "ns", Lower),
    layer("heap.alloc.mid_ns", "ns", Lower),
    layer("heap.alloc.large_ns", "ns", Lower),
    layer("heap.alloc.count", "count", Lower),
    layer("heap.alloc.words", "words", Lower),
    layer("heap.set_field.ns", "ns", Lower),
    layer("heap.set_field.count", "count", Lower),
    layer("heap.set_ref_field.clean_ns", "ns", Lower),
    layer("heap.set_ref_field.dirty_ns", "ns", Lower),
    layer("heap.cards.dirtied", "count", Lower),
    layer("heap.page_count", "count", Lower),
    layer("heap.peak_occupied_words", "words", Lower),
    layer("heap.grow_events", "count", Lower),
    layer("heap.probe.alloc_small_ns", "ns", Lower),
    layer("heap.probe.alloc_mid_ns", "ns", Lower),
    layer("heap.probe.alloc_large_ns", "ns", Lower),
    // gca-collector
    layer("collector.mark.ns_per_object", "ns", Lower),
    layer("collector.mark.objects", "count", Lower),
    layer("collector.mark.edges", "count", Lower),
    layer("collector.mark.nohooks_ns_per_object", "ns", Lower),
    layer("collector.mark.paths_ns_per_object", "ns", Lower),
    layer("collector.mark.nopaths_ns_per_object", "ns", Lower),
    layer("collector.sweep.ns_per_dead_object", "ns", Lower),
    layer("collector.sweep.ns_per_page", "ns", Lower),
    layer("collector.sweep.objects", "count", Lower),
    layer("collector.sweep.words", "words", Lower),
    layer("collector.sweep.share_of_gc", "ratio", Lower),
    layer("collector.sweep.probe_dead_ns_per_object", "ns", Lower),
    layer("collector.sweep.probe_half_ns_per_object", "ns", Lower),
    layer("collector.sweep.probe_live_ns_per_page", "ns", Lower),
    layer("collector.copy.ns_per_object", "ns", Lower),
    layer("collector.copy.objects", "count", Lower),
    layer("collector.minor.ns_per_cycle", "ns", Lower),
    layer("collector.minor.ns_per_dirty_card", "ns", Lower),
    layer("collector.minor.count", "count", Lower),
    layer("collector.minor.promoted", "count", Lower),
    layer("collector.minor.objects_marked", "count", Lower),
    layer("collector.minor.rs_ns_per_cycle", "ns", Lower),
    layer("collector.par2.mark_ns_per_object", "ns", Lower),
    layer("collector.par2.worker_skew", "ratio", Lower),
    layer("collector.census.ns_per_object", "ns", Lower),
    layer("collector.pause.p95_ms", "ms", Lower),
    layer("collector.pause.max_ms", "ms", Lower),
    layer("collector.cycles", "count", Lower),
    layer("collector.gc_share_of_run", "ratio", Lower),
    // gc-assertions (crates/core)
    layer("core.ownership.ns_per_ownee", "ns", Lower),
    layer("core.ownership.owners_scanned", "count", Lower),
    layer("core.ownership.ownees_checked", "count", Lower),
    layer("core.ownership.deferred_processed", "count", Lower),
    layer("core.ownership.pre_root_edges", "count", Lower),
    layer("core.hooks.ns_per_object", "ns", Lower),
    layer("core.assert_register.ns", "ns", Lower),
    layer("core.assert_register.count", "count", Lower),
    layer("core.violations.count", "count", Lower),
    layer("core.violation.render_ns", "ns", Lower),
    layer("core.dead_bits_seen", "count", Lower),
    layer("core.unshared_bits_seen", "count", Lower),
    layer("core.tracked_instances_counted", "count", Lower),
    layer("core.gc_triggers", "count", Lower),
    layer("core.alloc_in_gc_s", "s", Lower),
    layer("core.detect_cycles", "cycles", Lower),
    // gca-telemetry
    layer("telemetry.record.ns_per_cycle", "ns", Lower),
    layer("telemetry.records", "count", Lower),
    layer("telemetry.export.jsonl_ns_per_record", "ns", Lower),
    layer("telemetry.export.prom_ms_per_scrape", "ms", Lower),
    // gca-workloads and the benchmark's own mutators
    layer("workloads.ops", "count", Higher),
    layer("workloads.mutator_s", "s", Lower),
    layer("workloads.mutator_ns_per_op", "ns", Lower),
    // gca-script
    layer("script.parse.ns_per_line", "ns", Lower),
    layer("script.interp.ns_per_op", "ns", Lower),
    layer("script.check.exact_ms_per_script", "ms", Lower),
    layer("script.check.summarized_ms_per_script", "ms", Lower),
    layer("script.suggest.ms_per_script", "ms", Lower),
    layer("script.ops", "count", Higher),
    layer("script.diagnostics", "count", Lower),
    // gca-soak
    layer("soak.requests", "count", Higher),
    layer("soak.shard_busy_s.max", "s", Lower),
    layer("soak.shard_busy_s.min", "s", Lower),
    layer("soak.detect_cycles.leak", "cycles", Lower),
    layer("soak.detect_cycles.drift", "cycles", Lower),
    layer("soak.false_positives", "count", Lower),
    // the paper's controls and figures, derived; never gated
    layer("control.base_run_s", "s", Lower),
    layer("control.base_gc_s", "s", Lower),
    layer("paper.fig2_total_ratio", "ratio", Lower),
    layer("paper.fig2_mutator_ratio", "ratio", Lower),
    layer("paper.fig3_gc_ratio", "ratio", Lower),
    layer("paper.fig4_total_ratio", "ratio", Lower),
    layer("paper.fig5_gc_ratio", "ratio", Lower),
    // self time per layer in one traced rep, and the price of tracing
    layer("self.bench_s", "s", Lower),
    layer("self.workloads_s", "s", Lower),
    layer("self.heap_s", "s", Lower),
    layer("self.collector_s", "s", Lower),
    layer("self.core_s", "s", Lower),
    layer("self.telemetry_s", "s", Lower),
    layer("self.script_s", "s", Lower),
    layer("self.soak_s", "s", Lower),
    layer("bench.self_time_coverage", "ratio", Higher),
    layer("bench.traced_run_s", "s", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("bench.span_count", "count", Lower),
];

/// Whether `name` is made of `[A-Za-z0-9_.-]` only, starts with a letter or
/// digit and is at most 64 characters — what both the contract and the
/// escaper-free JSON writer need.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Whether `unit` is at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Values for one table of metrics. Setting a name that is not in the table
/// is a bug in the harness and panics; every name left unset is 0.
#[derive(Debug, Clone)]
pub struct MetricSet {
    table: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    /// An all-zero set over `table`, validating the table's names.
    pub fn new(table: &'static [MetricDef]) -> MetricSet {
        let mut values = BTreeMap::new();
        for def in table {
            assert!(valid_name(def.name), "bad metric name {:?}", def.name);
            assert!(valid_unit(def.unit), "bad unit {:?}", def.unit);
            assert!(
                values.insert(def.name, 0.0).is_none(),
                "metric {} registered twice",
                def.name
            );
        }
        MetricSet { table, values }
    }

    /// Sets a registered metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name} is not registered"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        *slot = value;
    }

    /// Current value of a registered metric.
    pub fn get(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} is not registered"))
    }

    /// The table this set ranges over.
    pub fn table(&self) -> &'static [MetricDef] {
        self.table
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` in table order.
    pub fn to_json(&self) -> Value {
        let mut out = Value::obj();
        for def in self.table {
            out.set(
                def.name,
                Value::obj()
                    .with("value", self.get(def.name).into())
                    .with("unit", def.unit.into()),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_well_formed() {
        let e = MetricSet::new(END_TO_END);
        let l = MetricSet::new(PER_LAYER);
        assert_eq!(e.table().len(), 6);
        assert!(l.table().len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        for d in END_TO_END {
            assert!(PER_LAYER.iter().all(|p| p.name != d.name));
        }
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("heap.alloc.small_ns"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("quote\""));
        assert!(!valid_name(""));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_names_panic() {
        MetricSet::new(END_TO_END).set("latency_ms", 1.0);
    }
}
