//! Named metrics, the summary statistics behind them, and the result
//! line the benchmark prints last.

use std::time::Instant;

/// An ordered list of `(name, value, unit)` metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// Appends one exact count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.push(name, value as f64, "count");
    }

    /// Names of the metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect()
    }

    /// One aligned `name value unit` line per metric.
    pub fn table(&self) -> String {
        let width = self
            .entries
            .iter()
            .map(|(n, _, _)| n.len())
            .max()
            .unwrap_or(0);
        self.entries
            .iter()
            .map(|(n, v, u)| format!("  {n:<width$}  {v:>18.6}  {u}\n"))
            .collect()
    }

    /// The JSON result line: `correct`, `attempted`, `failed` and
    /// `{name: {value, unit}}` metrics. Values print with every digit
    /// Rust's shortest round-trip formatting gives; a non-finite value
    /// prints as 0 (the caller treats it as a failed check).
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Host seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median host nanoseconds per call of `f(i)` for a call index `i`
/// that keeps counting across batches. Batches double until one takes
/// at least 20 ms, then seven batches of that size are timed.
pub fn ns_per_call(mut f: impl FnMut(u64)) -> f64 {
    let mut i = 0u64;
    let mut batch = |n: u64, f: &mut dyn FnMut(u64)| {
        let start = Instant::now();
        for _ in 0..n {
            f(i);
            i += 1;
        }
        start.elapsed().as_secs_f64()
    };
    let mut n = 1u64;
    while batch(n, &mut f) < 0.02 {
        n *= 2;
    }
    let samples: Vec<f64> = (0..7).map(|_| batch(n, &mut f) * 1e9 / n as f64).collect();
    median(&samples)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.push("a", 1.5, "ms");
        m.push("b", f64::NAN, "s");
        assert_eq!(m.non_finite(), vec!["b"]);
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
