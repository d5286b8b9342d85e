//! `GcTelemetry::catch_up` / `HeapCensus::catch_up`: a copy brought
//! forward by deltas is the recorder, whatever the history and wherever
//! the publish points fall — and anything that is not a copy of an earlier
//! state becomes one. (The half-updated copy, which needs private fields
//! to build, is a unit test beside each recorder.)

use gca_telemetry::{
    CensusData, CensusEntry, CycleKind, CycleRecord, GcTelemetry, HeapCensus, KindOverhead,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CLASSES: [&str; 6] = ["Node", "Table", "Session", "Edge", "Buffer", "Leaf"];
const SITES: [&str; 4] = ["Db::insert", "Cache::fill", "Graph::link", "(unattributed)"];

/// A census payload over a random subset of the names, so keys come and
/// go and the drift windows see zeros, growth and plateaus.
fn census_data(rng: &mut SmallRng, growth: u64) -> CensusData {
    let mut entries = |names: &[&str]| {
        let mut out = Vec::new();
        for (i, name) in names.iter().enumerate() {
            if !rng.gen_bool(0.9) {
                continue;
            }
            // Even keys grow with the cycle count until a cycle leaves them
            // out (drifts appear and retract), odd keys wander.
            let objects = if i % 2 == 0 {
                growth * (i as u64 + 1)
            } else {
                rng.gen_range(0..50u64)
            };
            out.push(CensusEntry {
                name: (*name).to_owned(),
                objects,
                bytes: objects * rng.gen_range(16..64u64),
            });
        }
        out
    };
    CensusData {
        classes: entries(&CLASSES),
        sites: entries(&SITES),
    }
}

fn cycle_record(rng: &mut SmallRng, kind: CycleKind, census: Option<CensusData>) -> CycleRecord {
    let mut record = CycleRecord {
        kind,
        total_ns: rng.gen_range(1_000..50_000_000u64),
        objects_marked: rng.gen_range(0..100_000u64),
        edges_traced: rng.gen_range(0..300_000u64),
        objects_swept: rng.gen_range(0..100_000u64),
        words_swept: rng.gen_range(0..1_000_000u64),
        census,
        ..Default::default()
    };
    match kind {
        CycleKind::Minor => record.promoted = rng.gen_range(0..500u64),
        CycleKind::Major => {
            record.pre_root_ns = rng.gen_range(0..1_000_000u64);
            record.mark_ns = rng.gen_range(0..30_000_000u64);
            record.sweep_ns = rng.gen_range(0..10_000_000u64);
            record.pre_root_edges = rng.gen_range(0..1_000u64);
            record.violations = rng.gen_range(0..3u64);
            // Ragged worker vectors: the roll-up's length is the widest seen.
            record.worker_mark_ns = (0..rng.gen_range(1..5usize))
                .map(|_| rng.gen_range(0..10_000_000u64))
                .collect();
            record.overhead.owned_by = KindOverhead {
                registered: rng.gen_range(0..100u64),
                phase_work: rng.gen_range(0..1_000u64),
                extra_edges_traced: rng.gen_range(0..1_000u64),
                ..Default::default()
            };
            record.overhead.dead.header_bit_checks = rng.gen_range(0..1_000u64);
        }
    }
    record
}

/// A VM's pair of recorders, fed the way `Vm::collect` / `collect_minor`
/// feed them: one census cycle and one telemetry record per collection.
struct Recorders {
    telemetry: GcTelemetry,
    census: HeapCensus,
    rng: SmallRng,
}

impl Recorders {
    fn new(seed: u64) -> Recorders {
        let mut rng = SmallRng::seed_from_u64(seed);
        Recorders {
            telemetry: GcTelemetry::new(),
            census: HeapCensus::with_window(rng.gen_range(2..7usize)),
            rng,
        }
    }

    fn collect(&mut self) {
        let kind = if self.rng.gen_bool(0.3) {
            CycleKind::Minor
        } else {
            CycleKind::Major
        };
        let data = census_data(&mut self.rng, self.census.cycles());
        match kind {
            CycleKind::Major => self.census.record_major(data.clone()),
            CycleKind::Minor => self.census.record_minor(data.clone()),
        };
        let record = cycle_record(&mut self.rng, kind, Some(data));
        self.telemetry.record(record);
    }

    /// Brings both copies forward and checks them against fresh clones.
    fn publish_into(&self, telemetry: &mut GcTelemetry, census: &mut HeapCensus) {
        telemetry.catch_up(&self.telemetry);
        census.catch_up(&self.census);
        assert_eq!(*telemetry, self.telemetry.clone());
        assert_eq!(*census, self.census.clone());
    }
}

#[test]
fn a_copy_brought_forward_by_deltas_equals_a_clone() {
    let mut drifts_seen = 0;
    for seed in 0..48 {
        let mut vm = Recorders::new(seed);
        // The slot a shard publishes into starts as the disabled default.
        let (mut telemetry, mut census) = (GcTelemetry::default(), HeapCensus::default());
        let publish_p = [0.05, 0.3, 0.9][seed as usize % 3];
        for _ in 0..vm.rng.gen_range(1..160) {
            vm.collect();
            if vm.rng.gen_bool(publish_p) {
                vm.publish_into(&mut telemetry, &mut census);
                // Nothing new: a second call changes nothing.
                vm.publish_into(&mut telemetry, &mut census);
                drifts_seen += census.drifts().len();
            }
        }
        vm.publish_into(&mut telemetry, &mut census);
        assert_eq!(telemetry.records().len(), vm.telemetry.records().len());
        assert_eq!(census.records().len(), vm.census.records().len());
    }
    assert!(drifts_seen > 0, "the histories must exercise the drift set");
}

#[test]
fn a_disabled_default_catches_up_to_either_kind_of_recorder() {
    let mut vm = Recorders::new(7);
    // Enabled, still empty: the copy must turn enabled too.
    let (mut telemetry, mut census) = (GcTelemetry::default(), HeapCensus::default());
    vm.publish_into(&mut telemetry, &mut census);
    assert!(telemetry.enabled() && census.enabled());
    for _ in 0..5 {
        vm.collect();
    }
    vm.publish_into(&mut telemetry, &mut census);

    // A telemetry- and census-off VM hands out the disabled default.
    let (mut telemetry, mut census) = (GcTelemetry::default(), HeapCensus::default());
    telemetry.catch_up(&GcTelemetry::default());
    census.catch_up(&HeapCensus::default());
    assert_eq!(telemetry, GcTelemetry::default());
    assert_eq!(census, HeapCensus::default());
}

#[test]
fn a_copy_that_is_not_a_prefix_ends_equal_to_the_source() {
    for seed in 0..16 {
        let (mut a, mut b) = (Recorders::new(seed), Recorders::new(seed + 1_000));
        for _ in 0..a.rng.gen_range(1..40) {
            a.collect();
        }
        for _ in 0..b.rng.gen_range(1..40) {
            b.collect();
        }
        // Another recorder's history, shorter or longer than the source's.
        let (mut telemetry, mut census) = (b.telemetry.clone(), b.census.clone());
        a.publish_into(&mut telemetry, &mut census);

        // A copy further along than its source (the source is the copy's
        // own earlier state).
        let (short_t, short_c) = (a.telemetry.clone(), a.census.clone());
        a.collect();
        let (mut long_t, mut long_c) = (a.telemetry.clone(), a.census.clone());
        long_t.catch_up(&short_t);
        long_c.catch_up(&short_c);
        assert_eq!((long_t, long_c), (short_t, short_c));
    }
}
