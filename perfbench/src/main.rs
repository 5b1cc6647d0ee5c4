//! The HyperEar repository benchmark.
//!
//! ```text
//! perfbench --workload <session_clean|session_faulted>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! Renders the workload's inputs from the seed, measures for the given
//! seconds, checks every output against a fresh-engine reference, prints a host line and then, as the last line, one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of the stage-traced run with `--trace 1`. See `README.md`.

mod adapter;
mod host;
mod inputs;
mod metrics;
mod session;
mod setup;
mod stats;

use stats::Report;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <session_clean|session_faulted> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test";

const WORKLOADS: [&str; 2] = ["session_clean", "session_faulted"];

/// Input-set sizes: distinct sessions per workload.
#[derive(Debug, Clone, Copy)]
struct Scale {
    clean: usize,
    faulted: usize,
}

const FULL: Scale = Scale {
    clean: 24,
    faulted: 16,
};

const SHORT: Scale = Scale {
    clean: 4,
    faulted: 4,
};

fn run(workload: &str, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Report {
    match workload {
        "session_clean" => session::run(false, seed, seconds, trace, scale.clean),
        "session_faulted" => session::run(true, seed, seconds, trace, scale.faulted),
        other => unreachable!("workload {other} was validated"),
    }
}

fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("trace")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Measured seconds per workload and mode in the self-test.
const SELF_TEST_SECONDS: f64 = 2.0;

/// Share of `session.p50_ms` that `session.other_ms` (the session time
/// no stage entry point accounts for) may reach on `session_clean`.
const OTHER_SHARE: f64 = 0.15;

/// Short-mode self-test: every workload in both modes on a small input
/// set, checking that each metric prints with its unit (and matches
/// `BENCHMARK.json` when run from the repository root), that outputs are
/// correct, and that the stage split covers the session.
fn self_test() -> Result<(), String> {
    let listed = std::fs::read_to_string("BENCHMARK.json").ok();
    let mut clean = None;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let report = run(workload, 7, SELF_TEST_SECONDS, trace, SHORT);
            let line = report.json(table(trace));
            println!("{workload} trace={}: {line}", u8::from(trace));
            for (name, unit) in table(trace) {
                let field = format!("\"{name}\": {{\"value\": ");
                let rest = line
                    .split_once(&field)
                    .ok_or(format!("{workload}: {name} missing"))?
                    .1;
                let printed_unit = rest
                    .split_once("\"unit\": \"")
                    .and_then(|(_, u)| u.split_once('"'))
                    .map(|(u, _)| u);
                if printed_unit != Some(unit) {
                    return Err(format!("{workload}: {name} lacks unit {unit}"));
                }
                if let Some(listed) = &listed {
                    let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                    if !listed.contains(&entry) {
                        return Err(format!("BENCHMARK.json does not list {name} in {unit}"));
                    }
                }
            }
            if report.checks.failed > 0 {
                return Err(format!(
                    "{workload}: {} mismatched outputs",
                    report.checks.failed
                ));
            }
            let value = |name: &str| report.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1);
            if workload == "session_clean" && trace {
                clean = value("session.p50_ms").zip(value("session.other_ms"));
            }
        }
    }
    let (p50, other) = clean.expect("session_clean was traced");
    if other.abs() > OTHER_SHARE * p50 {
        return Err(format!(
            "session.other_ms {other:.3} exceeds {OTHER_SHARE} of session.p50_ms {p50:.3}"
        ));
    }
    println!(
        "self-test: every metric printed with its unit; other/p50 = {:.3}",
        other / p50
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().is_some_and(|a| a == "--setup-child") {
        let escalation = argv.nth(1).is_some_and(|a| a == "1");
        setup::child(escalation);
        return ExitCode::SUCCESS;
    }
    if argv.peek().is_some_and(|a| a == "--self-test") {
        return match self_test() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("self-test failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ref_start = host::reference_ms();
    let report = run(&args.workload, args.seed, args.seconds, args.trace, FULL);
    println!("{}", host::fingerprint(ref_start, host::reference_ms()));
    println!("{}", report.json(table(args.trace)));
    ExitCode::SUCCESS
}
