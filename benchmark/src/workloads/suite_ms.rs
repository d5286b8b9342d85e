//! `suite_ms`: the paper's 19 programs back to back — the 18 analogues of
//! `suite::full_suite()` plus `PseudoJbb::for_figures()` — with the
//! assertion infrastructure attached and no assertions registered, under
//! sequential mark-sweep. The Figure 2/3 substrate: allocation, mark with
//! the path-tracking worklist and sweep in the paper's own mix.

use std::time::Instant;

use gc_assertions::Vm;
use gca_workloads::pseudojbb::PseudoJbb;
use gca_workloads::runner::Workload;
use gca_workloads::suite;

use super::{config, span_library_collections, Leg, Prepared, Rep, Scale};
use crate::trace::{Layer, Trace};

/// The 19 programs with their seeds mixed with the benchmark's.
pub struct SuiteMs {
    programs: Vec<Box<dyn Workload>>,
}

/// Builds the programs: the library's own shapes, `seed ^ their default`.
pub fn prepare(seed: u64, scale: Scale) -> Box<dyn Prepared> {
    let mut programs: Vec<Box<dyn Workload>> = Vec::new();
    for mut w in suite::full_suite() {
        w.seed ^= seed;
        w.iterations = scale.of(w.iterations, 2);
        programs.push(Box::new(w));
    }
    let mut jbb = PseudoJbb::for_figures();
    jbb.seed ^= seed;
    jbb.transactions = scale.of(jbb.transactions, 100);
    programs.push(Box::new(jbb));
    Box::new(SuiteMs { programs })
}

/// Runs one library program on a fresh VM the way `runner::run_once` does
/// (budget from the program, growth on, a final collection), timing it into
/// `rep` and checking that nothing failed and nothing was reported.
pub fn run_program(
    rep: &mut Rep,
    tr: &mut Trace,
    program: &dyn Workload,
    assertions: bool,
    leg: Leg,
) -> Vm {
    let mut vm = Vm::new(leg.apply(config(program.heap_budget())));
    tr.enter("program", Layer::Workloads);
    let started = Instant::now();
    let out = program
        .run(&mut vm, assertions && !leg.base())
        .and_then(|()| vm.collect().map(drop));
    let run_ns = started.elapsed().as_nanos() as u64;
    let end = tr.now_ns();
    span_library_collections(tr, &vm, end);
    tr.exit();
    rep.run_ns += run_ns;
    rep.segments.push([
        run_ns,
        (vm.gc_stats().total_gc_time + vm.minor_gc_time()).as_nanos() as u64,
    ]);
    rep.ops += vm.heap_stats().allocations;
    rep.checks.check(out.is_ok(), || {
        format!("{}: VmError: {:?}", program.name(), out.err())
    });
    rep.checks.check(vm.violation_log().is_empty(), || {
        format!(
            "{}: {} violations from a clean program",
            program.name(),
            vm.violation_log().len()
        )
    });
    rep.counters
        .add("core.violations.count", vm.violation_log().len() as u64);
    if vm.config().telemetry {
        rep.absorb_telemetry_pauses(&vm);
    }
    rep.absorb_vm(&vm);
    vm
}

impl Prepared for SuiteMs {
    fn rep(&self, leg: Leg, tr: &mut Trace) -> Rep {
        let mut rep = Rep::default();
        tr.enter("rep", Layer::Bench);
        for program in &self.programs {
            // `run_ns` sums the programs; building and checking each VM
            // happens between them and is not the program's time.
            run_program(&mut rep, tr, program.as_ref(), false, leg);
        }
        tr.exit();
        rep
    }
}
