//! `setup_s` and `peak_rss_mb`: the cold start of an engine, measured in
//! fresh processes.
//!
//! The program keeps FFT plans in a process-wide registry, so a second
//! engine in one process would find them built, and a process that has
//! rendered inputs and run reference engines would reuse their freed
//! memory. Each construction therefore runs in a child process of this
//! binary (`perfbench --setup-child <0|1>`), which reads one rendered
//! capture from its standard input, times engine construction through
//! the first completed session, and prints the seconds, a digest of the
//! outcome and the peak resident growth over that span.

use crate::adapter::{Capture, Engine, Outcome};
use crate::host;
use crate::stats::{median, Checks};
use hyperear_geom::Vec3;
use hyperear_sim::scenario::Recording;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fresh processes `setup_s` takes the median of.
pub const REPEATS: usize = 15;

/// A cold start's medians over the fresh processes run.
pub struct ColdStart {
    /// Engine construction through the first completed session.
    pub seconds: f64,
    /// Peak resident growth over that span (`VmHWM` after it minus the
    /// resident set before it, with the capture already read), MiB.
    pub rss_mb: f64,
}

/// Cold starts on one capture, run one at a time so a caller can spread
/// them over its measured window: the host's speed shifts for tens of
/// seconds at a time, and samples taken back to back would all land in
/// one such stretch.
pub struct ColdStarts {
    bytes: Vec<u8>,
    escalation: bool,
    reference: u64,
    runs: usize,
    times: Vec<f64>,
    rss: Vec<f64>,
}

impl ColdStarts {
    /// Each child's outcome on `rec` must equal `reference`.
    pub fn new(rec: &Recording, reference: &Outcome, escalation: bool) -> ColdStarts {
        ColdStarts {
            bytes: encode(&Capture::of(rec)),
            escalation,
            reference: digest(reference),
            runs: 0,
            times: Vec::with_capacity(REPEATS),
            rss: Vec::with_capacity(REPEATS),
        }
    }

    /// Cold starts run so far, failed ones included.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Runs one cold start in a fresh process.
    pub fn run_one(&mut self, checks: &mut Checks) {
        self.runs += 1;
        let exe = std::env::current_exe().expect("the running binary has a path");
        let mut child = Command::new(exe)
            .args(["--setup-child", if self.escalation { "1" } else { "0" }])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("the benchmark can start itself");
        child
            .stdin
            .take()
            .expect("stdin is piped")
            .write_all(&self.bytes)
            .expect("the child reads its whole capture");
        let out = child.wait_with_output().expect("the child ends");
        let line = String::from_utf8_lossy(&out.stdout);
        let mut fields = line.split_whitespace();
        let parsed = (|| {
            let seconds = fields.next()?.parse::<f64>().ok()?;
            let d = u64::from_str_radix(fields.next()?, 16).ok()?;
            let rss_mb = fields.next()?.parse::<f64>().ok()?;
            Some((seconds, d, rss_mb))
        })();
        match parsed {
            Some((seconds, d, rss_mb)) if out.status.success() => {
                self.times.push(seconds);
                self.rss.push(rss_mb);
                checks.record(d == self.reference);
            }
            _ => {
                eprintln!("setup child failed ({}): {line}", out.status);
                checks.record(false);
            }
        }
    }

    pub fn finish(mut self) -> ColdStart {
        assert!(!self.times.is_empty(), "no setup child completed");
        ColdStart {
            seconds: median(&mut self.times),
            rss_mb: median(&mut self.rss),
        }
    }
}

/// The child side of [`ColdStarts::run_one`].
pub fn child(escalation: bool) {
    let mut bytes = Vec::new();
    std::io::stdin()
        .read_to_end(&mut bytes)
        .expect("the parent writes one capture");
    let owned = decode(&bytes);
    drop(bytes);
    let capture = owned.capture();
    let rss_base_mb = host::reset_peak_rss_mb();
    let start = Instant::now();
    let mut engine = Engine::new(escalation);
    let mut slot = crate::adapter::idle();
    engine.run_capture(&capture, &mut slot);
    let seconds = start.elapsed().as_secs_f64();
    let rss_mb = host::peak_rss_mb() - rss_base_mb;
    println!("{seconds} {:016x} {rss_mb}", digest(&slot));
}

/// Identifies an outcome across processes of one build: a hash of its
/// debug form, which prints every float exactly.
fn digest(outcome: &Outcome) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{outcome:?}").hash(&mut h);
    h.finish()
}

/// Little-endian: audio rate, IMU rate, audio length, IMU length, then
/// left, right, accel and gyro samples.
fn encode(c: &Capture<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    let mut put = |x: f64| out.extend_from_slice(&x.to_le_bytes());
    put(c.audio_rate);
    put(c.imu_rate);
    put(c.left.len() as f64);
    put(c.accel.len() as f64);
    assert_eq!(c.left.len(), c.right.len());
    assert_eq!(c.accel.len(), c.gyro.len());
    c.left.iter().chain(c.right).for_each(|&x| put(x));
    for v in c.accel.iter().chain(c.gyro) {
        put(v.x);
        put(v.y);
        put(v.z);
    }
    out
}

struct OwnedCapture {
    audio_rate: f64,
    imu_rate: f64,
    left: Vec<f64>,
    right: Vec<f64>,
    accel: Vec<Vec3>,
    gyro: Vec<Vec3>,
}

impl OwnedCapture {
    fn capture(&self) -> Capture<'_> {
        Capture {
            audio_rate: self.audio_rate,
            left: &self.left,
            right: &self.right,
            imu_rate: self.imu_rate,
            accel: &self.accel,
            gyro: &self.gyro,
        }
    }
}

fn decode(bytes: &[u8]) -> OwnedCapture {
    let mut values = bytes
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().expect("chunks are 8 bytes")));
    let mut take = || values.next().expect("capture is complete");
    let (audio_rate, imu_rate) = (take(), take());
    let (audio, imu) = (take() as usize, take() as usize);
    assert_eq!(
        bytes.len(),
        8 * (4 + 2 * audio + 6 * imu),
        "capture length matches its header"
    );
    let left = (0..audio).map(|_| take()).collect();
    let right = (0..audio).map(|_| take()).collect();
    let mut vecs =
        |n: usize| -> Vec<Vec3> { (0..n).map(|_| Vec3::new(take(), take(), take())).collect() };
    let accel = vecs(imu);
    let gyro = vecs(imu);
    OwnedCapture {
        audio_rate,
        imu_rate,
        left,
        right,
        accel,
        gyro,
    }
}
