//! Speed calibration for the gated run.
//!
//! The benchmark runs on a shared two-core machine whose speed moves by a
//! quarter and more for seconds to minutes at a time, from two independent
//! sources: how fast the core executes (a pure ALU loop flips between two
//! levels 27 % apart) and how contended the shared cache and memory are (a
//! dependent pointer chase varies by 40 %). No amount of repetition inside
//! a ten-second run averages a minutes-long slow spell away.
//!
//! So between reps the gated run times two fixed kernels of its own — an ALU
//! loop and a pointer chase through a 4 MB table — and reports every time in
//! *calibrated* seconds: the measured time scaled by how much slower or
//! faster than nominal the kernels ran during the same run, taking the
//! geometric mean of the two. Compute-bound workloads follow the first
//! kernel, memory-bound ones the second, and the blend removed most of the
//! run-to-run spread of both kinds when the benchmark was sized (spreads of
//! 6, 16 and 8 % on `churn_sweep`, `live_mark` and `suite_ms` fell to 3, 4
//! and 1.5 %). A change to the program cannot touch the kernels (they live
//! in `benchmark/`), so a calibrated time moves with the program and stays
//! put when only the machine moves.
//!
//! The interference is one-sided — a busy neighbour only ever slows the
//! machine — so the kernels, like the reps, are summarized by their first
//! quartile, which estimates the undisturbed speed, not by their median,
//! which flips between two modes.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::quartiles;

/// What one sample of each kernel takes on the reference container when it
/// is quiet, seconds. Calibrated seconds are wall seconds on a machine that
/// runs the kernels in exactly these times.
pub const NOMINAL_ALU_S: f64 = 0.0047;
/// See [`NOMINAL_ALU_S`].
pub const NOMINAL_CHASE_S: f64 = 0.0056;

/// Iterations of the ALU kernel per sample.
const ALU_ITERATIONS: u64 = 3_000_000;
/// Slots in the chase table (4 MB of `u32`: past the private caches).
const TABLE: usize = 1 << 20;
/// Chase steps per sample.
const CHASE_STEPS: usize = 150_000;
/// One pair of samples is taken per this much measured work.
const SAMPLE_EVERY: Duration = Duration::from_millis(200);

/// The kernels and the samples taken so far.
#[derive(Debug)]
pub struct Calibrator {
    next: Vec<u32>,
    at: u32,
    alu_s: Vec<f64>,
    chase_s: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

impl Calibrator {
    /// Builds the chase table: one random cycle through every slot.
    pub fn new() -> Calibrator {
        let mut perm: Vec<u32> = (0..TABLE as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..TABLE).rev() {
            x = xorshift(x);
            perm.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; TABLE];
        for i in 0..TABLE {
            next[perm[i] as usize] = perm[(i + 1) % TABLE];
        }
        Calibrator {
            next,
            at: 0,
            alu_s: Vec::new(),
            chase_s: Vec::new(),
        }
    }

    /// Runs both kernels once and records how long each took.
    pub fn sample(&mut self) {
        // Dependent shifts and a data-dependent branch: no memory traffic.
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0u64;
        for i in 0..ALU_ITERATIONS {
            x = xorshift(x);
            acc = if x & 1 == 0 {
                acc.wrapping_add(x ^ i)
            } else {
                acc.rotate_left(3)
            };
        }
        black_box(acc);
        self.alu_s.push(t.elapsed().as_secs_f64());

        // Each load's address comes from the previous load: latency-bound.
        let t = Instant::now();
        let mut p = self.at;
        let mut sum = 0u64;
        for _ in 0..CHASE_STEPS {
            p = self.next[p as usize];
            sum = sum.wrapping_add(u64::from(p));
        }
        self.at = p;
        black_box(sum);
        self.chase_s.push(t.elapsed().as_secs_f64());
    }

    /// Samples in proportion to `work` just measured: one pair per 200 ms,
    /// at least one and at most eight.
    pub fn sample_for(&mut self, work: Duration) {
        let n = (work.as_secs_f64() / SAMPLE_EVERY.as_secs_f64()) as usize;
        for _ in 0..n.clamp(1, 8) {
            self.sample();
        }
    }

    /// Pairs of samples taken.
    pub fn len(&self) -> usize {
        self.alu_s.len()
    }

    /// Whether no sample was taken yet.
    pub fn is_empty(&self) -> bool {
        self.alu_s.is_empty()
    }

    /// First quartile of the ALU and of the chase samples, seconds.
    pub fn levels(&self) -> (f64, f64) {
        (quartiles(&self.alu_s)[0], quartiles(&self.chase_s)[0])
    }

    /// The factor that turns a wall time of this run into calibrated time:
    /// the geometric mean of nominal over measured, for the two kernels.
    pub fn factor(&self) -> f64 {
        let (alu, chase) = self.levels();
        if alu > 0.0 && chase > 0.0 {
            ((NOMINAL_ALU_S / alu) * (NOMINAL_CHASE_S / chase)).sqrt()
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_machine_at_nominal_speed_has_factor_one() {
        let mut c = Calibrator::new();
        assert_eq!(c.factor(), 1.0, "no samples: times are left alone");
        c.alu_s = vec![NOMINAL_ALU_S; 4];
        c.chase_s = vec![NOMINAL_CHASE_S; 4];
        assert!((c.factor() - 1.0).abs() < 1e-12);
        // Twice as slow on both kernels: measured times are halved.
        c.alu_s = vec![2.0 * NOMINAL_ALU_S; 4];
        c.chase_s = vec![2.0 * NOMINAL_CHASE_S; 4];
        assert!((c.factor() - 0.5).abs() < 1e-12);
        // Slow spells in a minority of samples do not move the level.
        c.alu_s = vec![
            NOMINAL_ALU_S,
            NOMINAL_ALU_S,
            NOMINAL_ALU_S,
            3.0 * NOMINAL_ALU_S,
        ];
        c.chase_s = vec![NOMINAL_CHASE_S; 4];
        assert!((c.factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_follows_the_work_measured() {
        let mut c = Calibrator::new();
        c.sample_for(Duration::from_millis(10));
        assert_eq!(c.len(), 1);
        c.sample_for(Duration::from_millis(650));
        assert_eq!(c.len(), 4);
        c.sample_for(Duration::from_secs(60));
        assert_eq!(c.len(), 12);
        let (alu, chase) = c.levels();
        assert!(alu > 0.0 && chase > 0.0);
        assert!(!c.is_empty());
    }
}
