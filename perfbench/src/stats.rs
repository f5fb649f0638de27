//! Percentiles, the process's peak resident set, and the result line.

use std::fmt::Write as _;

/// Linear-interpolated `q`-quantile (`0 ≤ q ≤ 1`) of `samples`; `NaN`
/// when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Whether a p90 over `n` samples has at least ten samples beyond it.
pub fn p90_supported(n: usize) -> bool {
    n >= 100
}

/// Peak resident set of this process (`VmHWM`), in MiB.
///
/// # Panics
///
/// When `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// One named metric with its unit and, for percentiles, the sample
/// count it was taken over.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (`None` for single readings).
    pub samples: Option<usize>,
}

impl Metric {
    /// A single reading.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    /// A statistic over `samples` samples.
    pub fn over(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            samples: Some(samples),
            ..Metric::new(name, value, unit)
        }
    }
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Operations attempted (setup and timed).
    pub attempted: u64,
    /// Operations that failed, were refused, or whose output mismatched.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The human-readable table (stderr): every metric with its unit and
    /// sample count, then the error rate.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            let _ = writeln!(
                out,
                "{:<28} {:>14.4} {:<6}{samples}",
                m.name, m.value, m.unit
            );
        }
        let _ = writeln!(
            out,
            "{:<28} {:>14.4} ratio  ({} failed of {} attempted)",
            "error_rate",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        out
    }

    /// The machine-readable result line.
    pub fn json_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

/// JSON has no NaN or infinity: a non-finite value (a metric that could
/// not be measured) is written as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let r = RunResult {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
        };
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
