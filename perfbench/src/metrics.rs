//! Every metric the benchmark prints, by name and unit. `BENCHMARK.json`
//! lists the same names; the self-test checks that the two agree.

/// Printed with `--trace 0` on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    // Per-session `run_monitored_into` wall time, p95: the highest
    // percentile with at least ten sessions beyond it in every run. The
    // median moves with the host's speed more than any allowed bound
    // (see README), so it prints with the traced metrics.
    ("session_p95_ms", "ms"),
    // Accuracy on a fixed input set (deterministic): the share of
    // sessions with a usable estimate, and their floor-map error against
    // simulator ground truth.
    ("estimate_share", "ratio"),
    ("loc_error_cm_p50", "cm"),
    ("loc_error_cm_p95", "cm"),
    // Cold start in a fresh process (medians over several): peak
    // resident growth, and engine construction through the first session.
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Printed with `--trace 1` on every workload; 0 where a layer does no
/// work on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Detection, per channel.
    ("asp.detect_ms", "ms"),
    ("dsp.band_pass_ms", "ms"),
    ("dsp.matched_filter_ms", "ms"),
    ("asp.peak_pick_ms", "ms"),
    ("dsp.fft_transforms", "count"),
    ("asp.arrival_yield", "ratio"),
    // Tail stages, per session (TDoA per slide).
    ("imu.analyze_us", "us"),
    ("sfo.fit_us", "us"),
    ("tdoa.per_slide_us", "us"),
    ("localize.us", "us"),
    ("ple.project_us", "us"),
    // Coverage: session time = stage sum + escalation extra + other.
    ("session.traced_ms", "ms"),
    ("session.p50_ms", "ms"),
    ("session.stage_sum_ms", "ms"),
    ("session.other_ms", "ms"),
    ("trace.overhead_us", "us"),
    ("session.working_set_bytes", "bytes"),
    // Estimator ladder and grading, over the distinct inputs.
    ("escalation.extra_ms", "ms"),
    ("outcome.ok", "count"),
    ("outcome.degraded", "count"),
    ("outcome.failed", "count"),
    ("estimator.plain_xcorr", "count"),
    ("estimator.gcc_phat", "count"),
    ("estimator.subband_coherence", "count"),
    ("estimator.mcci_fusion", "count"),
];
