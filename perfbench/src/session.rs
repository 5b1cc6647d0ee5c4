//! `session_clean` and `session_faulted`: a closed loop of one caller
//! and one warm, pool-less session engine cycling through a seeded set
//! of rendered sessions; plus the stage-traced form of that loop.

use crate::adapter::{self, Engine, Grade, Outcome, StageProbe, StageTimes, ESTIMATORS};
use crate::inputs;
use crate::setup;
use crate::stats::{mean, median, percentile, Checks, Report};
use hyperear_sim::scenario::Recording;
use std::time::Instant;

/// Each input's outcome from a fresh engine: the reference every warm
/// output must equal.
fn references(recs: &[Recording], escalation: bool) -> Vec<Outcome> {
    recs.iter()
        .map(|rec| {
            let mut slot = adapter::idle();
            Engine::new(escalation).run(rec, &mut slot);
            slot
        })
        .collect()
}

/// Seed of the fixed input set the accuracy metrics are scored on, so
/// they guard accuracy without seed-to-seed sampling spread.
const ACCURACY_SEED: u64 = 0;

/// Floor-error percentiles over the fixed input set
/// `render(ACCURACY_SEED)`, and the share of its inputs whose reference
/// outcome has a usable estimate: a session that stops producing one
/// leaves the percentiles but lowers the share.
fn set_accuracy(report: &mut Report, render: impl Fn(u64) -> Vec<Recording>, escalation: bool) {
    let recs = render(ACCURACY_SEED);
    let refs = references(&recs, escalation);
    let mut errors: Vec<f64> = recs
        .iter()
        .zip(&refs)
        .filter_map(|(rec, r)| adapter::floor_error_m(rec, r))
        .map(|m| m * 100.0)
        .collect();
    assert!(!errors.is_empty(), "no input produced a usable estimate");
    report.set("estimate_share", errors.len() as f64 / recs.len() as f64);
    report.set("loc_error_cm_p50", percentile(&mut errors, 50.0));
    report.set("loc_error_cm_p95", percentile(&mut errors, 95.0));
}

/// Grades and final estimators over the distinct inputs' references.
fn set_tallies(report: &mut Report, refs: &[Outcome]) {
    let mut grades = [0.0; 3];
    let mut estimators = [0.0; ESTIMATORS.len()];
    for r in refs {
        grades[adapter::grade(r) as usize] += 1.0;
        if let Some(e) = adapter::final_estimator(r) {
            estimators[e] += 1.0;
        }
    }
    report.set("outcome.ok", grades[Grade::Ok as usize]);
    report.set("outcome.degraded", grades[Grade::Degraded as usize]);
    report.set("outcome.failed", grades[Grade::Failed as usize]);
    for (name, count) in ESTIMATORS.iter().zip(estimators) {
        report.set(name, count);
    }
}

/// Runs one session workload. `inputs` distinct sessions are cycled
/// whole until `seconds` have passed.
pub fn run(escalation: bool, seed: u64, seconds: f64, trace: bool, inputs: usize) -> Report {
    let render = |seed| {
        if escalation {
            inputs::faulted_set(seed, inputs)
        } else {
            inputs::clean_set(seed, inputs)
        }
    };
    let mut report = Report::default();
    if !trace {
        set_accuracy(&mut report, render, escalation);
    }
    let recs = render(seed);
    let refs = references(&recs, escalation);
    let mut engine = Engine::new(escalation);
    let mut slot = adapter::idle();
    for (rec, reference) in recs.iter().zip(&refs) {
        engine.run(rec, &mut slot);
        report.checks.record(slot == *reference);
    }

    if trace {
        set_tallies(&mut report, &refs);
        let mut plain = escalation.then(|| Engine::new(false));
        let mut traced = Traced::new(recs[0].audio.sample_rate);
        traced.run(
            &recs,
            &refs,
            &mut engine,
            plain.as_mut(),
            &mut report.checks,
            seconds,
        );
        traced.finish(&mut report, engine.working_set_bytes());
        return report;
    }

    // The cold starts run between whole cycles, evenly over the window.
    let mut cold = setup::ColdStarts::new(&recs[0], &refs[0], escalation);
    let mut latencies_ms = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for (rec, reference) in recs.iter().zip(&refs) {
            let t = Instant::now();
            engine.run(rec, &mut slot);
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            report.checks.record(slot == *reference);
        }
        let share = start.elapsed().as_secs_f64() / seconds;
        let due = (setup::REPEATS as f64 * share).ceil() as usize;
        while cold.runs() < due.min(setup::REPEATS) {
            cold.run_one(&mut report.checks);
        }
    }
    while cold.runs() < setup::REPEATS {
        cold.run_one(&mut report.checks);
    }
    let cold = cold.finish();
    report.set("setup_s", cold.seconds);
    report.set("peak_rss_mb", cold.rss_mb);
    report.set("session_p95_ms", percentile(&mut latencies_ms, 95.0));
    report
}

/// Accumulates the stage-traced session loop: each input runs through
/// the warm engine (timed whole), through a non-escalating engine when
/// the workload escalates, and through the stage probe.
struct Traced {
    probe: StageProbe,
    session_s: Vec<f64>,
    extra_s: Vec<f64>,
    stages: Vec<StageTimes>,
    beacons: usize,
}

impl Traced {
    fn new(sample_rate: f64) -> Traced {
        Traced {
            probe: StageProbe::new(sample_rate),
            session_s: Vec::new(),
            extra_s: Vec::new(),
            stages: Vec::new(),
            beacons: 0,
        }
    }

    /// One untimed pass over `recs` to warm the probe and the engines,
    /// then whole timed passes until `seconds` have passed (at least one).
    fn run(
        &mut self,
        recs: &[Recording],
        refs: &[Outcome],
        engine: &mut Engine,
        mut plain: Option<&mut Engine>,
        checks: &mut Checks,
        seconds: f64,
    ) {
        self.cycle(recs, refs, engine, plain.as_deref_mut(), checks, 0.0);
        self.session_s.clear();
        self.extra_s.clear();
        self.stages.clear();
        self.beacons = 0;
        self.cycle(recs, refs, engine, plain, checks, seconds);
    }

    fn cycle(
        &mut self,
        recs: &[Recording],
        refs: &[Outcome],
        engine: &mut Engine,
        mut plain: Option<&mut Engine>,
        checks: &mut Checks,
        seconds: f64,
    ) {
        let mut slot = adapter::idle();
        let mut plain_slot = adapter::idle();
        let start = Instant::now();
        loop {
            for (rec, reference) in recs.iter().zip(refs) {
                let t = Instant::now();
                engine.run(rec, &mut slot);
                let session = t.elapsed().as_secs_f64();
                checks.record(slot == *reference);
                if let Some(plain) = plain.as_deref_mut() {
                    let t = Instant::now();
                    plain.run(rec, &mut plain_slot);
                    self.extra_s.push(session - t.elapsed().as_secs_f64());
                }
                self.session_s.push(session);
                self.stages.push(self.probe.run(rec));
                let duration = rec.audio.left.len() as f64 / rec.audio.sample_rate;
                self.beacons += 2 * rec.speaker.beacons_within(duration);
            }
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }

    /// Writes the session-level per-layer metrics. Stage times are means,
    /// so traced session time = stage sum + escalation extra + other.
    fn finish(&self, report: &mut Report, working_set_bytes: usize) {
        let n = self.stages.len() as f64;
        let sum = |f: fn(&StageTimes) -> f64| self.stages.iter().map(f).sum::<f64>();
        let per_channel_ms = |f: fn(&StageTimes) -> f64| sum(f) / (2.0 * n) * 1e3;
        let detect = per_channel_ms(|s| s.detect_s);
        let band_pass = per_channel_ms(|s| s.band_pass_s);
        let matched = per_channel_ms(|s| s.matched_filter_s);
        report.set("asp.detect_ms", detect);
        report.set("dsp.band_pass_ms", band_pass);
        report.set("dsp.matched_filter_ms", matched);
        report.set("asp.peak_pick_ms", detect - band_pass - matched);
        report.set(
            "dsp.fft_transforms",
            sum(|s| s.fft_transforms as f64) / (2.0 * n),
        );
        report.set(
            "asp.arrival_yield",
            sum(|s| s.arrivals as f64) / self.beacons.max(1) as f64,
        );
        report.set("imu.analyze_us", sum(|s| s.imu_s) / n * 1e6);
        report.set("sfo.fit_us", sum(|s| s.sfo_s) / n * 1e6);
        let slides = sum(|s| s.slides as f64).max(1.0);
        report.set("tdoa.per_slide_us", sum(|s| s.tdoa_s) / slides * 1e6);
        report.set("localize.us", sum(|s| s.localize_s) / n * 1e6);
        let projections = sum(|s| s.projections as f64).max(1.0);
        report.set("ple.project_us", sum(|s| s.ple_s) / projections * 1e6);

        let session_ms = mean(&self.session_s) * 1e3;
        let stage_sum_ms = sum(StageTimes::stage_sum_s) / n * 1e3;
        let extra_ms = mean(&self.extra_s) * 1e3;
        report.set("session.traced_ms", session_ms);
        let mut session_s = self.session_s.clone();
        report.set("session.p50_ms", median(&mut session_s) * 1e3);
        report.set("session.stage_sum_ms", stage_sum_ms);
        report.set("escalation.extra_ms", extra_ms);
        report.set("session.other_ms", session_ms - stage_sum_ms - extra_ms);
        let spans = sum(|s| s.spans as f64) / n;
        report.set("trace.overhead_us", spans * clock_pair_us());
        report.set("session.working_set_bytes", working_set_bytes as f64);
    }
}

/// Cost of one timed span's two clock reads, microseconds.
fn clock_pair_us() -> f64 {
    const PAIRS: u32 = 100_000;
    let start = Instant::now();
    for _ in 0..PAIRS {
        std::hint::black_box(Instant::now().elapsed());
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(PAIRS)
}
