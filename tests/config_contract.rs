//! Configuration contract: `HyperEarConfig`'s JSON form, checked over
//! randomized configurations and corrupted documents.
//!
//! 1. **Round trip.** Any configuration assembled from the device
//!    presets and randomized scalar, flag and enum fields survives
//!    `to_json_string` → `from_json_str` unchanged.
//! 2. **No panics on corrupt input.** Truncated, byte-mutated and
//!    spliced documents come back as `Ok` or a typed `JsonError` —
//!    never a panic.
//! 3. **Unknown keys are ignored.** A document written before the
//!    single f64 detection path, still carrying `"precision": "f32"`,
//!    parses to the same configuration as one without the key.

use hyperear::config::{Aggregation, ChirpPattern, HyperEarConfig, Interpolation, TdoaEstimator};
use hyperear_geom::devices::DEVICE_PRESETS;
use hyperear_geom::rotation::Side;
use hyperear_util::prop::{self, usize_range};
use hyperear_util::rng::Xoshiro256pp;
use hyperear_util::{prop_assert, prop_assert_eq};
use std::panic::{self, AssertUnwindSafe};

/// A configuration drawn from `seed`: one of the device presets (or a
/// bare two-mic phone), with every scalar, flag and enum field the
/// session reads re-drawn.
fn random_config(seed: u64) -> HyperEarConfig {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut f = |lo: f64, hi: f64| lo + (hi - lo) * rng.next_f64();
    let mut c = match f(0.0, 5.0) as usize {
        k @ 0..=3 => HyperEarConfig::for_device(DEVICE_PRESETS[k]),
        _ => HyperEarConfig::for_mic_separation(f(0.05, 0.3)),
    };
    c.sfo_correction = f(0.0, 1.0) < 0.5;
    c.quality_gate_enabled = f(0.0, 1.0) < 0.5;
    c.rotation_correction = f(0.0, 1.0) < 0.5;
    c.detection.band_pass = f(0.0, 1.0) < 0.5;
    c.detection.envelope_detection = f(0.0, 1.0) < 0.5;
    c.degradation.enabled = f(0.0, 1.0) < 0.5;
    c.estimator.escalation = f(0.0, 1.0) < 0.5;
    c.speed_of_sound = f(330.0, 350.0);
    c.beacons_per_side = f(1.0, 8.0) as usize;
    c.max_plausible_range = f(5.0, 50.0);
    c.max_speaker_depth = f(0.5, 4.0);
    c.detection.threshold_factor = f(2.0, 12.0);
    c.detection.relative_threshold = f(0.05, 0.9);
    c.detection.band_pass_taps = 2 * f(20.0, 200.0) as usize + 1;
    c.degradation.min_confidence = f(0.0, 1.0);
    c.degradation.retry_budget = f(0.0, 6.0) as usize;
    c.estimator.phat_floor = f(0.0, 1.0);
    c.estimator.coherence_bands = f(1.0, 16.0) as usize;
    c.estimator.mcci_max_lag = f(1.0, 64.0) as usize;
    c.estimator.initial = TdoaEstimator::ALL[f(0.0, 4.0) as usize];
    c.speaker_side = [Side::Left, Side::Right][f(0.0, 2.0) as usize];
    c.aggregation = [Aggregation::Median, Aggregation::Joint][f(0.0, 2.0) as usize];
    c.detection.interpolation = [
        Interpolation::None,
        Interpolation::Parabolic,
        Interpolation::Sinc,
    ][f(0.0, 3.0) as usize];
    c.beacon.pattern =
        [ChirpPattern::Up, ChirpPattern::Down, ChirpPattern::UpDown][f(0.0, 3.0) as usize];
    c
}

#[test]
fn random_configs_round_trip_through_json() {
    prop::check(
        "random_configs_round_trip_through_json",
        usize_range(0, 1 << 30),
        |&seed| {
            let config = random_config(seed as u64);
            let text = config.to_json_string();
            let back = HyperEarConfig::from_json_str(&text);
            prop_assert!(back.is_ok(), "rendered config rejected: {back:?}\n{text}");
            prop_assert_eq!(back.unwrap(), config);
            prop::pass()
        },
    );
}

/// Corrupts `text` with one of several edits drawn from `seed`:
/// truncation, single-byte replacement, range deletion, or splicing a
/// slice of the document into another position.
fn corrupt(text: &str, seed: u64) -> String {
    const JUNK: &[u8] = b"{}[]\":,-+.0123456789eEtrufalsn \\x\n";
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..=rng.next_below(3) {
        let n = bytes.len() as u64;
        if n == 0 {
            break;
        }
        let at = rng.next_below(n) as usize;
        match rng.next_below(4) {
            0 => bytes.truncate(at),
            1 => bytes[at] = JUNK[rng.next_below(JUNK.len() as u64) as usize],
            2 => {
                let end = (at + 1 + rng.next_below(16) as usize).min(bytes.len());
                bytes.drain(at..end);
            }
            _ => {
                let from = rng.next_below(n) as usize;
                let end = (from + 1 + rng.next_below(32) as usize).min(bytes.len());
                let slice = bytes[from..end].to_vec();
                bytes.splice(at..at, slice);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn corrupted_documents_never_panic() {
    const NAME: &str = "corrupted_documents_never_panic";
    // A case costs microseconds, and a fuzz pass wants far more than the
    // harness default of 64 documents.
    let mut config = prop::Config::from_env();
    config.cases = config.cases.max(1024);
    let outcome = prop::run(
        &config,
        NAME,
        &(usize_range(0, 1 << 30), usize_range(0, 1 << 30)),
        |&(config_seed, edit_seed)| {
            let text = corrupt(
                &random_config(config_seed as u64).to_json_string(),
                edit_seed as u64,
            );
            let parsed =
                panic::catch_unwind(AssertUnwindSafe(|| HyperEarConfig::from_json_str(&text)));
            prop_assert!(parsed.is_ok(), "from_json_str panicked on:\n{text}");
            prop::pass()
        },
    );
    if let Err(falsified) = outcome {
        panic!("{}", falsified.report(NAME));
    }
}

#[test]
fn legacy_precision_key_is_ignored() {
    for config in [HyperEarConfig::galaxy_s4(), random_config(7)] {
        let text = config.to_json_string();
        let body = text.trim_start().strip_prefix('{').expect("object");
        for value in ["\"f32\"", "\"f64\""] {
            let legacy = format!("{{\"precision\": {value}, {body}");
            assert_eq!(
                HyperEarConfig::from_json_str(&legacy).expect("legacy document parses"),
                config,
                "precision {value}"
            );
        }
    }
}
