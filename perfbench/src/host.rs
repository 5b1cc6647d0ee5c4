//! Host facts and process counters read from the OS (Linux): the fingerprint
//! printed with every result, resident memory and a fixed reference
//! kernel that shows host-speed drift next to each result.

use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One line describing the host, printed before each result, with the
/// reference-kernel times taken at the start and end of the run.
pub fn fingerprint(ref_ms_start: f64, ref_ms_end: f64) -> String {
    format!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\" features=none \
         host.ref_ms_start={ref_ms_start:.4} host.ref_ms_end={ref_ms_end:.4}",
        nproc(),
        cpu_model(),
        rustc_version(),
    )
}

/// A `/proc/self/status` size field, MiB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resets `VmHWM` to the current resident set and returns that, MiB, so
/// a later [`peak_rss_mb`] minus it is the peak growth since.
pub fn reset_peak_rss_mb() -> f64 {
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("Linux lets a process reset its own VmHWM through /proc/self/clear_refs");
    status_mb("VmRSS:")
}

/// Median of five runs of a fixed cache-resident arithmetic kernel,
/// milliseconds: tracks core speed, for reading only (it never scales a
/// metric).
pub fn reference_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = [1.0f64; 512];
            for k in 0..2_000 {
                for i in 1..x.len() {
                    x[i] = x[i] * 0.999 + x[i - 1] * 0.001 + f64::from(k) * 1e-9;
                }
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&mut times)
}
