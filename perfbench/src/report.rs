//! Sample statistics and the one-line JSON result every run prints.

use std::time::Instant;

/// The `q`-quantile (`0..=1`) of `samples` by linear interpolation
/// between closest ranks. Panics on an empty sample: every caller
/// measures at least one operation.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` `n` times and returns the last result with the median wall
/// time in seconds. Earlier results are dropped before the next run, so
/// peak memory holds one copy.
pub fn median_setup<T>(n: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("ran at least once"), median(&times))
}

/// Median wall time of `f` in microseconds over `reps` calls, after one
/// warm-up call.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        v.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&v)
}

/// The result of one run: operation accounting, the outcome of the
/// output checks, and named metrics with units.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (matrices, chat turns, or requests).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Descriptions of failed output checks; empty when all passed.
    pub check_failures: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Appends a metric; a non-finite value fails the run.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.check_failed(format!("metric {name} is {value}"));
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a failed output check, printing it at once so the failing
    /// request or matrix is named even if the run stops later.
    pub fn check_failed(&mut self, what: String) {
        eprintln!("CHECK FAILED: {what}");
        self.check_failures.push(what);
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Prints one human-readable line per metric, then the JSON result
    /// as the last line of standard output.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<32} {value:>14.4} {unit}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// A JSON number with all its digits; non-finite values (which fail the
/// run) become `null` so the line still parses.
fn json_num(v: f64) -> String {
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
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert!((quantile(&s, 0.9) - 4.6).abs() < 1e-12);
    }
}
