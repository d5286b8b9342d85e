//! Soak-run configuration: fleet shape, arrival-rate phases, pacing.

use crate::fault::FaultPlan;
use gca_workloads::scenario::ScenarioKind;

/// How the load generator advances time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pacing {
    /// Real time: the shard thread sleeps until each scheduled arrival
    /// and latency is measured with wall clocks. What a real soak uses.
    #[default]
    Wall,
    /// Deterministic virtual time: arrivals, service times, and queueing
    /// follow a fixed analytical model (`SERVICE_NS` per request plus
    /// `GC_PENALTY_NS` per major collection observed during it), so the
    /// latency histograms — and therefore the `/metrics` payload — are
    /// bit-identical across runs. What the golden tests use.
    Virtual,
}

/// Virtual-pacing model: nominal service time per request, nanoseconds.
pub const SERVICE_NS: u64 = 1_000_000;
/// Virtual-pacing model: added pause per major collection that ran
/// during a request, nanoseconds.
pub const GC_PENALTY_NS: u64 = 5_000_000;

/// One arrival-rate phase of the open-loop schedule. The instantaneous
/// rate interpolates linearly from `rate_start` to `rate_end` across the
/// phase, so a ramp, a steady plateau, and a spike are all the same
/// shape with different endpoints.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Display name ("ramp", "steady", "spike", ...).
    pub name: String,
    /// Phase length in milliseconds (virtual or wall, per [`Pacing`]).
    pub duration_ms: u64,
    /// Arrival rate at the start of the phase, requests/second.
    pub rate_start: f64,
    /// Arrival rate at the end of the phase, requests/second.
    pub rate_end: f64,
}

impl Phase {
    /// A phase holding `rps` constant for `duration_ms`.
    pub fn steady(name: &str, duration_ms: u64, rps: f64) -> Phase {
        Phase {
            name: name.to_string(),
            duration_ms,
            rate_start: rps,
            rate_end: rps,
        }
    }

    /// A phase ramping linearly from `from` to `to` requests/second.
    pub fn ramp(name: &str, duration_ms: u64, from: f64, to: f64) -> Phase {
        Phase {
            name: name.to_string(),
            duration_ms,
            rate_start: from,
            rate_end: to,
        }
    }
}

/// Full configuration of a soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Number of shards: one VM, one scenario instance, one thread each.
    pub shards: usize,
    /// Scenarios assigned to shards round-robin.
    pub scenarios: Vec<ScenarioKind>,
    /// The arrival-rate schedule, identical for every shard.
    pub phases: Vec<Phase>,
    /// Virtual (deterministic) or wall-clock pacing.
    pub pacing: Pacing,
    /// Base RNG seed; shard `i` derives its own stream from it.
    pub seed: u64,
    /// Faults to inject, each on one shard (see [`FaultPlan`]).
    pub faults: Vec<FaultPlan>,
    /// Request-latency SLO in nanoseconds; breaches are counted per
    /// shard and exported.
    pub slo_ns: u64,
    /// Serve `/metrics`, `/healthz` and `/status` on `127.0.0.1:port`
    /// for the duration of the run (`Some(0)` = ephemeral port).
    pub http_port: Option<u16>,
    /// Write per-shard `shard-<i>.jsonl` files plus a merged
    /// `fleet.jsonl` event log under this directory.
    pub jsonl_dir: Option<std::path::PathBuf>,
    /// Write a `BENCH_soak.json` machine-readable summary here.
    pub bench_out: Option<std::path::PathBuf>,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            shards: 4,
            scenarios: ScenarioKind::ALL.to_vec(),
            phases: vec![
                Phase::ramp("ramp", 250, 100.0, 800.0),
                Phase::steady("steady", 500, 800.0),
                Phase::ramp("spike", 250, 2400.0, 2400.0),
            ],
            pacing: Pacing::Wall,
            seed: 42,
            faults: Vec::new(),
            slo_ns: 10_000_000,
            http_port: None,
            jsonl_dir: None,
            bench_out: None,
        }
    }
}

impl SoakConfig {
    /// The deterministic 2-shard configuration the golden tests run:
    /// virtual pacing, fixed seed, no faults, no I/O.
    pub fn smoke() -> SoakConfig {
        SoakConfig {
            shards: 2,
            pacing: Pacing::Virtual,
            ..SoakConfig::default()
        }
    }

    /// The scenario shard `i` runs (round-robin over `scenarios`).
    pub fn scenario_for(&self, shard: usize) -> ScenarioKind {
        self.scenarios[shard % self.scenarios.len()]
    }

    /// The fault planned for shard `i`, if any.
    pub fn fault_for(&self, shard: usize) -> Option<&FaultPlan> {
        self.faults.iter().find(|f| f.shard == shard)
    }

    /// Total scheduled arrivals per shard under this phase schedule.
    pub fn requests_per_shard(&self) -> usize {
        Arrivals::new(&self.phases).count()
    }
}

/// Iterator over the open-loop arrival schedule: yields each scheduled
/// arrival offset in nanoseconds from the start of the run. The schedule
/// is a pure function of the phases — deterministic, and independent of
/// how fast the server actually processes requests (that difference *is*
/// the queueing delay the latency histograms measure).
#[derive(Debug, Clone)]
pub struct Arrivals {
    phases: Vec<Phase>,
    phase: usize,
    /// Offset inside the current phase, nanoseconds.
    in_phase_ns: f64,
    /// Sum of completed phases' durations, nanoseconds.
    base_ns: f64,
}

impl Arrivals {
    /// Builds the schedule for `phases`.
    pub fn new(phases: &[Phase]) -> Arrivals {
        Arrivals {
            phases: phases.to_vec(),
            phase: 0,
            in_phase_ns: 0.0,
            base_ns: 0.0,
        }
    }
}

impl Iterator for Arrivals {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            let p = self.phases.get(self.phase)?;
            let dur_ns = p.duration_ms as f64 * 1e6;
            if self.in_phase_ns >= dur_ns {
                self.base_ns += dur_ns;
                self.in_phase_ns -= dur_ns;
                self.phase += 1;
                continue;
            }
            let frac = self.in_phase_ns / dur_ns;
            let rate = p.rate_start + (p.rate_end - p.rate_start) * frac;
            if rate <= 0.0 {
                // Silent phase: skip to its end.
                self.in_phase_ns = dur_ns;
                continue;
            }
            let arrival = self.base_ns + self.in_phase_ns;
            self.in_phase_ns += 1e9 / rate;
            return Some(arrival as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_phase_arrivals_are_evenly_spaced() {
        let arrivals: Vec<u64> = Arrivals::new(&[Phase::steady("s", 10, 1000.0)]).collect();
        assert_eq!(arrivals.len(), 10, "10ms at 1000rps = 10 arrivals");
        assert_eq!(arrivals[0], 0);
        let gaps: Vec<u64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().all(|&g| g == 1_000_000), "1ms gaps: {gaps:?}");
    }

    #[test]
    fn ramp_phase_tightens_gaps() {
        let arrivals: Vec<u64> = Arrivals::new(&[Phase::ramp("r", 100, 100.0, 2000.0)]).collect();
        let first_gap = arrivals[1] - arrivals[0];
        let last_gap = arrivals[arrivals.len() - 1] - arrivals[arrivals.len() - 2];
        assert!(
            first_gap > 4 * last_gap,
            "ramp must accelerate: {first_gap} vs {last_gap}"
        );
    }

    #[test]
    fn phases_chain_and_zero_rate_is_silent() {
        let phases = [
            Phase::steady("a", 5, 1000.0),
            Phase::steady("quiet", 5, 0.0),
            Phase::steady("b", 5, 1000.0),
        ];
        let arrivals: Vec<u64> = Arrivals::new(&phases).collect();
        assert_eq!(arrivals.len(), 10);
        // The second burst starts after the silent phase.
        assert!(arrivals[5] >= 10_000_000);
    }

    #[test]
    fn schedule_is_deterministic() {
        let c = SoakConfig::smoke();
        let a: Vec<u64> = Arrivals::new(&c.phases).collect();
        let b: Vec<u64> = Arrivals::new(&c.phases).collect();
        assert_eq!(a, b);
        assert_eq!(c.requests_per_shard(), a.len());
        assert!(
            a.len() > 500,
            "smoke schedule drives real load: {}",
            a.len()
        );
    }

    #[test]
    fn round_robin_scenarios_and_fault_lookup() {
        let c = SoakConfig {
            faults: vec![FaultPlan::new(1, crate::fault::FaultKind::Leak, 50)],
            ..SoakConfig::default()
        };
        assert_eq!(c.scenario_for(0), ScenarioKind::SessionCache);
        assert_eq!(c.scenario_for(3), ScenarioKind::SessionCache);
        assert_eq!(c.scenario_for(4), ScenarioKind::SocialGraph);
        assert!(c.fault_for(1).is_some());
        assert!(c.fault_for(0).is_none());
    }
}
