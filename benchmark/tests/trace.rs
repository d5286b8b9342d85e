//! Span self-time: nested, adjacent and overlapping children, accumulated
//! calls, and the per-layer sums the traced run reports.

use gca_benchmark::trace::{self_times, Call, Layer, Span, Trace};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        layer: Layer::Bench,
        start_ns,
        end_ns,
        parent,
        rep: 1,
        calls_ns: 0,
        off_path: false,
    }
}

#[test]
fn nested_children_are_subtracted_once_per_level() {
    let spans = [
        span("rep", 0, 100, None),
        span("phase", 10, 90, Some(0)),
        span("collection", 20, 50, Some(1)),
        span("mark", 25, 45, Some(2)),
    ];
    // rep: 100 - 80; phase: 80 - 30; collection: 30 - 20; mark: 20.
    assert_eq!(self_times(&spans), vec![20, 50, 10, 20]);
    assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
}

#[test]
fn adjacent_children_cover_their_sum() {
    let spans = [
        span("rep", 0, 100, None),
        span("a", 0, 40, Some(0)),
        span("b", 40, 70, Some(0)),
        span("c", 70, 100, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![0, 40, 30, 30]);
}

#[test]
fn overlapping_children_are_counted_once_and_clipped() {
    let spans = [
        span("fleet", 10, 110, None),
        // Two parallel shards and a scrape that runs beside them.
        span("shard", 10, 90, Some(0)),
        span("shard", 10, 100, Some(0)),
        span("scrape", 50, 60, Some(0)),
        // A child that claims more than its parent's interval.
        span("late", 105, 150, Some(0)),
    ];
    // Covered: [10, 100) and [105, 110) = 95 of 100.
    assert_eq!(self_times(&spans)[0], 5);
}

#[test]
fn accumulated_calls_leave_the_span_and_join_their_layer() {
    let mut tr = Trace::enabled();
    tr.next_rep();
    tr.enter("rep", Layer::Bench);
    tr.enter("mutate", Layer::Workloads);
    tr.call(Call::AllocSmall, 300);
    tr.call(Call::AllocSmall, 500);
    tr.call(Call::SetField, 200);
    tr.exit();
    tr.exit();
    let alloc = tr.call_stat(Call::AllocSmall);
    assert_eq!((alloc.count, alloc.busy_ns, alloc.max_ns), (2, 800, 500));
    assert_eq!(alloc.mean_ns(), 400.0);
    let mutate = &tr.spans()[1];
    assert_eq!(mutate.calls_ns, 1000);

    let (per_layer, root_total) = tr.layer_self_seconds("rep");
    let total: f64 = per_layer.iter().sum();
    // Calls are charged to the heap; what is left of the span to workloads.
    assert!((per_layer[Layer::Heap as usize] - 1000e-9).abs() < 1e-12);
    // Self times never sum to less than the root (the 1000 ns of calls are
    // nominal here, so they may exceed the few ns the spans really took).
    assert!(total >= root_total);
}

#[test]
fn off_path_subtrees_stay_out_of_layer_sums() {
    let mut tr = Trace::enabled();
    let rep = tr.enter("rep", Layer::Bench);
    tr.exit();
    // The slower shard blocks the result; the faster one ran beside it.
    tr.leaf_under(rep, "shard", Layer::Soak, 1_000, 5_000);
    let fast = tr.leaf_under(rep, "shard", Layer::Soak, 1_000, 4_000);
    tr.leaf_under(fast, "collections", Layer::Collector, 2_000, 3_000);
    tr.mark_off_path(fast);
    let (per_layer, _) = tr.layer_self_seconds("rep");
    assert!((per_layer[Layer::Soak as usize] - 4_000e-9).abs() < 1e-15);
    assert_eq!(per_layer[Layer::Collector as usize], 0.0);
}

#[test]
fn disabled_trace_records_nothing() {
    let mut tr = Trace::disabled();
    tr.enter("rep", Layer::Bench);
    tr.exit();
    assert!(tr.spans().is_empty());
    assert!(!tr.on());
}
