//! The benchmark's only point of contact with the program under test.
//!
//! Every call into `hyperear` (`pipeline`, `asp`, `sfo`, `tdoa`,
//! `localize`, `ple`), `hyperear_dsp` (`filter::fir`, `correlate`) and
//! `hyperear_imu::analyze` lives in this file, so a change to those
//! public surfaces touches the benchmark in one place. The adapter hands
//! the program rendered samples only (never a simulator object) and uses
//! the default f64 detection path on a build without optional features.

use hyperear::asp::{BeaconArrival, BeaconDetector};
use hyperear::config::{HyperEarConfig, TdoaEstimator};
use hyperear::localize::{localize_with, slide_geometry, Estimate2d, LocalizeScratch};
use hyperear::pipeline::{SessionEngine, SessionInput};
use hyperear::ple::project;
use hyperear::sfo::{estimate_period_with, SfoScratch};
use hyperear::tdoa::{augmented_tdoa_with, TdoaScratch};
use hyperear_dsp::chirp::Chirp;
use hyperear_dsp::correlate::StreamingMatchedFilter;
use hyperear_dsp::filter::{FirFilter, ZeroPhaseFir};
use hyperear_dsp::plan::DspScratch;
use hyperear_dsp::window::Window;
use hyperear_geom::triangulate::SlideGeometry;
use hyperear_geom::Vec3;
use hyperear_imu::analyze::{analyze_session_with, AnalyzeScratch, SessionAnalysis};
use hyperear_sim::scenario::Recording;
use std::time::Instant;

pub use hyperear::pipeline::SessionOutcome as Outcome;

/// Tally metric of each TDoA estimator, in `TdoaEstimator::ALL` order.
pub const ESTIMATORS: [&str; 4] = [
    "estimator.plain_xcorr",
    "estimator.gcc_phat",
    "estimator.subband_coherence",
    "estimator.mcci_fusion",
];

/// Guard margin the pipeline keeps around movement windows, seconds.
/// The stage probe mirrors it so each stage sees realistic inputs.
const STATIONARY_MARGIN: f64 = 0.05;

/// The pipeline configuration of every workload: the Galaxy S4 preset,
/// with or without estimator escalation.
pub fn config(escalation: bool) -> HyperEarConfig {
    let mut config = HyperEarConfig::galaxy_s4();
    config.estimator.escalation = escalation;
    config
}

/// One session's rendered samples: everything the program receives.
pub struct Capture<'a> {
    pub audio_rate: f64,
    pub left: &'a [f64],
    pub right: &'a [f64],
    pub imu_rate: f64,
    pub accel: &'a [Vec3],
    pub gyro: &'a [Vec3],
}

impl<'a> Capture<'a> {
    pub fn of(rec: &'a Recording) -> Capture<'a> {
        Capture {
            audio_rate: rec.audio.sample_rate,
            left: &rec.audio.left,
            right: &rec.audio.right,
            imu_rate: rec.imu.sample_rate,
            accel: &rec.imu.accel,
            gyro: &rec.imu.gyro,
        }
    }
}

/// A fresh outcome slot.
pub fn idle() -> Outcome {
    Outcome::idle()
}

/// How a monitored session graded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grade {
    Ok,
    Degraded,
    Failed,
}

pub fn grade(outcome: &Outcome) -> Grade {
    match outcome {
        Outcome::Ok(_) => Grade::Ok,
        Outcome::Degraded { .. } => Grade::Degraded,
        Outcome::Failed { .. } => Grade::Failed,
    }
}

/// Index into [`ESTIMATORS`] of the estimator that produced the
/// outcome's result, if it has one.
pub fn final_estimator(outcome: &Outcome) -> Option<usize> {
    let used = outcome.result()?.estimator;
    TdoaEstimator::ALL.iter().position(|&e| e == used)
}

/// Floor-map error of the outcome against the simulator's ground truth,
/// metres; `None` when the session produced no usable estimate.
pub fn floor_error_m(rec: &Recording, outcome: &Outcome) -> Option<f64> {
    hyperear_bench::harness::floor_error(rec, outcome.result()?)
}

/// One warm one-shot session engine with no pool (the phone side).
pub struct Engine {
    engine: SessionEngine,
}

impl Engine {
    pub fn new(escalation: bool) -> Engine {
        Engine {
            engine: SessionEngine::new(config(escalation)).expect("preset config is valid"),
        }
    }

    /// Runs one monitored session into `slot`.
    pub fn run(&mut self, rec: &Recording, slot: &mut Outcome) {
        self.run_capture(&Capture::of(rec), slot);
    }

    pub fn run_capture(&mut self, capture: &Capture<'_>, slot: &mut Outcome) {
        let input = SessionInput {
            audio_sample_rate: capture.audio_rate,
            left: capture.left,
            right: capture.right,
            imu_sample_rate: capture.imu_rate,
            accel: capture.accel,
            gyro: capture.gyro,
        };
        self.engine.run_monitored_into(&input, slot);
    }

    pub fn working_set_bytes(&self) -> usize {
        self.engine.working_set_bytes()
    }
}

/// Seconds spent in each stage's public entry point for one session, as
/// timed by [`StageProbe::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// `BeaconDetector::detect_into`, summed over both channels.
    pub detect_s: f64,
    /// `ZeroPhaseFir::filter_into`, summed over both channels.
    pub band_pass_s: f64,
    /// `StreamingMatchedFilter::correlate_normalized_into`, both channels.
    pub matched_filter_s: f64,
    /// Overlap-save transforms both channels' detection runs.
    pub fft_transforms: usize,
    /// Arrivals detected on both channels.
    pub arrivals: usize,
    /// `analyze_session_with`.
    pub imu_s: f64,
    /// `estimate_period_with`, both channels.
    pub sfo_s: f64,
    /// `augmented_tdoa_with`, summed over slides.
    pub tdoa_s: f64,
    pub slides: usize,
    /// `localize_with`, per-slide fixes plus the per-phase aggregation.
    pub localize_s: f64,
    /// `ple::project`.
    pub ple_s: f64,
    pub projections: usize,
    /// Timed spans (clock-read pairs) this session took.
    pub spans: usize,
}

impl StageTimes {
    /// The time of every stage that blocks the session result.
    pub fn stage_sum_s(&self) -> f64 {
        self.detect_s + self.imu_s + self.sfo_s + self.tdoa_s + self.localize_s + self.ple_s
    }
}

/// Times each pipeline stage's public entry point from outside, on the
/// same rendered inputs the session engine gets. Between stages it
/// rebuilds the inputs the next stage needs (movement and stationary
/// windows) the way the pipeline does, untimed.
pub struct StageProbe {
    config: HyperEarConfig,
    sample_rate: f64,
    detector: BeaconDetector,
    band_pass: ZeroPhaseFir,
    band_pass_step: usize,
    matched: StreamingMatchedFilter,
    dsp: DspScratch,
    filtered: Vec<f64>,
    corr: Vec<f64>,
    arrivals: [Vec<BeaconArrival>; 2],
    analysis: SessionAnalysis,
    analyze_scratch: AnalyzeScratch,
    movements: Vec<(f64, f64)>,
    stationary: Vec<(f64, f64)>,
    sfo: SfoScratch,
    tdoa: TdoaScratch,
    loc: LocalizeScratch,
    geoms: [Vec<SlideGeometry>; 2],
}

impl StageProbe {
    pub fn new(sample_rate: f64) -> StageProbe {
        let config = config(false);
        let beacon = config.beacon;
        let chirp = Chirp::new(
            beacon.f0,
            beacon.f1,
            beacon.duration,
            sample_rate,
            beacon.pattern.shape(),
        )
        .expect("preset chirp fits the sample rate");
        let design = FirFilter::band_pass(
            beacon.f0 * 0.9,
            beacon.f1 * 1.1,
            sample_rate,
            config.detection.band_pass_taps,
            Window::Hamming,
        )
        .expect("preset band-pass is valid");
        let band_pass = ZeroPhaseFir::new(&design).expect("band-pass block fits");
        let band_pass_step = band_pass.block_len() - design.taps().len() + 1;
        StageProbe {
            detector: BeaconDetector::new(&config, sample_rate).expect("preset detector"),
            matched: StreamingMatchedFilter::new(chirp.samples()).expect("chirp template"),
            band_pass,
            band_pass_step,
            config,
            sample_rate,
            dsp: DspScratch::new(),
            filtered: Vec::new(),
            corr: Vec::new(),
            arrivals: [Vec::new(), Vec::new()],
            analysis: SessionAnalysis {
                gravity: Vec3::ZERO,
                slides: Vec::new(),
                stature_changes: Vec::new(),
            },
            analyze_scratch: AnalyzeScratch::new(),
            movements: Vec::new(),
            stationary: Vec::new(),
            sfo: SfoScratch::new(),
            tdoa: TdoaScratch::new(),
            loc: LocalizeScratch::new(),
            geoms: [Vec::new(), Vec::new()],
        }
    }

    /// Runs every stage once on `rec`. A stage that rejects its input
    /// ends the chain there, as it would end the session.
    pub fn run(&mut self, rec: &Recording) -> StageTimes {
        assert_eq!(
            rec.audio.sample_rate, self.sample_rate,
            "probe built for another rate"
        );
        let mut t = StageTimes::default();
        let channels = [&rec.audio.left, &rec.audio.right];
        for (channel, arrivals) in channels.iter().zip(self.arrivals.iter_mut()) {
            let (ok, s) = timed(&mut t.spans, || {
                self.detector.detect_into(channel, arrivals).is_ok()
            });
            t.detect_s += s;
            if !ok {
                return t;
            }
            t.arrivals += arrivals.len();
            let (_, s) = timed(&mut t.spans, || {
                self.band_pass
                    .filter_into(channel, &mut self.dsp, &mut self.filtered)
            });
            t.band_pass_s += s;
            let (_, s) = timed(&mut t.spans, || {
                self.matched.correlate_normalized_into(
                    &self.filtered,
                    &mut self.dsp,
                    &mut self.corr,
                )
            });
            t.matched_filter_s += s;
            t.fft_transforms += 2 * self.filtered.len().div_ceil(self.band_pass_step)
                + 2 * self.corr.len().div_ceil(self.matched.step());
        }

        let imu = &rec.imu;
        let (ok, s) = timed(&mut t.spans, || {
            analyze_session_with(
                &imu.accel,
                &imu.gyro,
                imu.sample_rate,
                &self.config.inertial,
                &mut self.analyze_scratch,
                &mut self.analysis,
            )
            .is_ok()
        });
        t.imu_s = s;
        if !ok {
            return t;
        }
        let duration = rec.audio.left.len() as f64 / self.sample_rate;
        self.windows(imu.sample_rate, duration);

        let period = self.config.beacon.period;
        let mut fit = 0.0;
        for arrivals in &self.arrivals {
            let (p, s) = timed(&mut t.spans, || {
                estimate_period_with(arrivals, &self.stationary, period, &mut self.sfo)
            });
            t.sfo_s += s;
            match p {
                Ok(p) => fit += p.period * 0.5,
                Err(_) => return t,
            }
        }

        let first_stature = self
            .analysis
            .stature_changes
            .first()
            .map(|c| c.segment.start as f64 / imu.sample_rate);
        for g in &mut self.geoms {
            g.clear();
        }
        let chirp = self.config.beacon.duration;
        for slide in &self.analysis.slides {
            let pre = window_before(&self.movements, slide.start_time, chirp);
            let post = window_after(&self.movements, slide.end_time, duration, chirp);
            let [left, right] = &self.arrivals;
            let (tdoa, s) = timed(&mut t.spans, || {
                augmented_tdoa_with(
                    left,
                    right,
                    pre,
                    post,
                    fit,
                    self.config.speed_of_sound,
                    self.config.beacons_per_side,
                    &mut self.tdoa,
                )
            });
            t.tdoa_s += s;
            t.slides += 1;
            let Ok(tdoa) = tdoa else { continue };
            let Ok(geometry) = slide_geometry(slide.distance, self.config.mic_separation, &tdoa)
            else {
                continue;
            };
            let (fixed, s) = timed(&mut t.spans, || {
                localize_with(
                    std::slice::from_ref(&geometry),
                    self.config.aggregation,
                    &mut self.loc,
                )
                .is_ok()
            });
            t.localize_s += s;
            let lower = first_stature.is_some_and(|f| slide.start_time > f);
            if fixed {
                self.geoms[usize::from(lower)].push(geometry);
            }
        }
        let mut estimates: [Option<Estimate2d>; 2] = [None, None];
        for (geoms, estimate) in self.geoms.iter().zip(estimates.iter_mut()) {
            if geoms.is_empty() {
                continue;
            }
            let (e, s) = timed(&mut t.spans, || {
                localize_with(geoms, self.config.aggregation, &mut self.loc)
            });
            t.localize_s += s;
            *estimate = e.ok();
        }
        let drop = self
            .analysis
            .stature_changes
            .first()
            .map(|c| c.height_change.abs());
        if let ([Some(upper), Some(lower)], Some(h)) = (&estimates, drop) {
            if h > 0.01 {
                let (_, s) = timed(&mut t.spans, || {
                    project(upper, lower, h, self.config.max_speaker_depth)
                });
                t.ple_s = s;
                t.projections = 1;
            }
        }
        t
    }

    /// Movement timeline and stationary windows from the last inertial
    /// analysis, built as the pipeline builds them.
    fn windows(&mut self, imu_rate: f64, duration: f64) {
        self.movements.clear();
        self.movements.extend(
            self.analysis
                .slides
                .iter()
                .map(|s| (s.start_time, s.end_time))
                .chain(self.analysis.stature_changes.iter().map(|c| {
                    (
                        c.segment.start as f64 / imu_rate,
                        c.segment.end as f64 / imu_rate,
                    )
                })),
        );
        self.movements.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let chirp = self.config.beacon.duration;
        self.stationary.clear();
        let mut cursor = 0.0f64;
        for &(start, end) in &self.movements {
            let w_end = start - STATIONARY_MARGIN - chirp;
            if w_end > cursor {
                self.stationary.push((cursor, w_end));
            }
            cursor = cursor.max(end + STATIONARY_MARGIN);
        }
        if duration - chirp > cursor {
            self.stationary.push((cursor, duration - chirp));
        }
    }
}

fn window_before(movements: &[(f64, f64)], start: f64, chirp: f64) -> (f64, f64) {
    let prev_end = movements
        .iter()
        .filter(|&&(_, end)| end < start - 1e-9)
        .map(|&(_, end)| end)
        .fold(0.0f64, f64::max);
    (
        prev_end + STATIONARY_MARGIN,
        start - STATIONARY_MARGIN - chirp,
    )
}

fn window_after(movements: &[(f64, f64)], end: f64, duration: f64, chirp: f64) -> (f64, f64) {
    let next_start = movements
        .iter()
        .filter(|&&(start, _)| start > end + 1e-9)
        .map(|&(start, _)| start)
        .fold(duration, f64::min);
    (
        end + STATIONARY_MARGIN,
        next_start - STATIONARY_MARGIN - chirp,
    )
}

/// Runs `f` between two clock reads, counting the span.
fn timed<T>(spans: &mut usize, f: impl FnOnce() -> T) -> (T, f64) {
    *spans += 1;
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64())
}
