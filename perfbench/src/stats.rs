//! Order statistics and the result the benchmark prints.

use std::fmt::Write;

/// Linear-interpolated percentile `p` (0–100) of `values`; sorts them.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    values.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Outputs checked against their references.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checks {
    pub attempted: usize,
    pub failed: usize,
}

impl Checks {
    /// Records one checked output.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// One run's result: the checks plus named metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Checks,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// The last stdout line: every metric of `table`, in table order,
    /// with its unit.
    pub fn json(&self, table: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            if i > 0 {
                metrics.push_str(", ");
            }
            write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed
        )
    }
}
