//! Seeded input sets for the workloads, rendered by the simulator before
//! any timing starts. The same seed always renders the same inputs.

use crate::adapter::config;
use hyperear_bench::harness::SessionSpec;
use hyperear_sim::environment::Environment;
use hyperear_sim::fault::{Fault, FaultPlan};
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, RenderContext};

/// SplitMix64: the benchmark's own seed expander, so schedules and input
/// choices never depend on a PRNG inside the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The `i`-th of `n` strata: a seeded point in `[lo + (hi-lo)·i/n,
/// lo + (hi-lo)·(i+1)/n)`. Stratifying ranges keeps each input set's
/// range mix the same across seeds, so seeds change realizations, not
/// the mix.
fn stratum(rng: &mut Rng, i: usize, n: usize, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (i as f64 + rng.unit()) / n as f64
}

/// Alternates a quiet and a reverberant, noisier room.
fn environment(i: usize) -> Environment {
    if i.is_multiple_of(2) {
        Environment::room_quiet()
    } else {
        Environment::room_chatting()
    }
}

/// A 2D two-slide session on the slide ruler, `range` metres away.
fn ruler_2d(range: f64, environment: Environment) -> SessionSpec {
    SessionSpec {
        slides: 2,
        environment,
        ..SessionSpec::ruler_2d(PhoneModel::galaxy_s4(), config(false), range)
    }
}

/// A 3D in-hand two-stature session (two slides per stature).
fn hand_3d(range: f64, environment: Environment) -> SessionSpec {
    SessionSpec {
        slides: 2,
        environment,
        ..SessionSpec::hand_3d(PhoneModel::galaxy_s4(), config(false), range)
    }
}

/// The faults of `session_faulted` input `i`: IMU bias drift on every
/// input, which always runs the whole estimator ladder, so escalation
/// reruns carry most of the time and the session cost has one mode for
/// any seed; plus, in turn, nothing, NLOS multipath, impulsive bursts or
/// channel dropout, which change what the reruns detect and grade.
fn faults(i: usize, seed: u64) -> FaultPlan {
    let plan = FaultPlan::new(seed).with(Fault::ImuBiasDrift { slope: 0.06 });
    match i % 4 {
        1 => plan.with(Fault::NlosMultipath {
            probability: 0.6,
            delay_ms: 1.2,
            relative_amplitude: 0.9,
        }),
        2 => plan.with(Fault::ImpulsiveBurst {
            rate_hz: 6.0,
            amplitude: 0.5,
        }),
        3 => plan.with(Fault::ChannelDropout {
            probability: 0.5,
            duration_ms: 60.0,
        }),
        _ => plan,
    }
}

struct Job {
    spec: SessionSpec,
    seed: u64,
    fault: Option<FaultPlan>,
}

/// `session_clean`: three 2D ruler sessions at 3–7 m to every 3D
/// in-hand one at 3–5 m.
pub fn clean_set(seed: u64, n: usize) -> Vec<Recording> {
    let mut rng = Rng::new(seed);
    let n3 = n / 4;
    let n2 = n - n3;
    let jobs = (0..n)
        .map(|i| {
            let spec = if i % 4 == 3 {
                hand_3d(stratum(&mut rng, i / 4, n3, 3.0, 5.0), environment(i / 4))
            } else {
                let k = i - i / 4;
                ruler_2d(stratum(&mut rng, k, n2, 3.0, 7.0), environment(k))
            };
            Job {
                spec,
                seed: rng.next_u64(),
                fault: None,
            }
        })
        .collect();
    render(jobs)
}

/// `session_faulted`: 2D ruler sessions at 3–7 m with injected faults.
pub fn faulted_set(seed: u64, n: usize) -> Vec<Recording> {
    let mut rng = Rng::new(seed ^ 0xFA17);
    let jobs = (0..n)
        .map(|i| Job {
            spec: ruler_2d(stratum(&mut rng, i, n, 3.0, 7.0), environment(i / 4)),
            seed: rng.next_u64(),
            fault: Some(faults(i, rng.next_u64())),
        })
        .collect();
    render(jobs)
}

/// Renders every job on the calling thread, so the memory high-water
/// mark input generation leaves behind repeats for a seed.
fn render(jobs: Vec<Job>) -> Vec<Recording> {
    let mut ctx = RenderContext::new();
    jobs.iter()
        .map(|job| {
            let mut rec = job
                .spec
                .render_with(job.seed, &mut ctx)
                .expect("preset scenarios render");
            if let Some(plan) = &job.fault {
                plan.apply(&mut rec).expect("preset faults are valid");
            }
            rec
        })
        .collect()
}
