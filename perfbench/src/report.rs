//! Correctness tallies, metric lists and the result line.

use crate::json::quote;
use std::fmt::Write as _;

/// Attempted and failed operations of one run, with the first few
/// failure messages kept for stderr.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (timed operations and gate checks alike).
    pub attempted: u64,
    /// Operations whose output failed a correctness gate.
    pub failed: u64,
    /// First failure messages.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it failed, with the
    /// message `what()`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
        ok
    }

    /// Counts one attempted operation that failed with `msg`.
    pub fn fail_op(&mut self, msg: String) {
        self.attempted += 1;
        self.fail(msg);
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(msg);
        }
    }
}

/// Named metric values with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Appends all of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Non-finite values print as `null`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "null".into()
        };
        let _ = write!(
            out,
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            quote(name),
            quote(unit)
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
