//! What a run reports: named metrics with units, the correctness gates that
//! tripped, and the one-line JSON result the driver reads.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and spread for the human-readable line.
    pub note: String,
}

impl Metric {
    /// A count or a single measurement.
    pub fn exact(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    /// A statistic of `samples` (the caller chose which; usually the median).
    pub fn timing(name: &'static str, value: f64, unit: &'static str, samples: &[f64]) -> Self {
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self::exact(name, value, unit)
            .with_note(format!("n={} min={lo:.6} max={hi:.6}", samples.len()))
    }

    pub fn with_note(mut self, note: String) -> Self {
        self.note = note;
        self
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted / failed (one solve or one sweep point each; in
    /// the traced pass, one gate each).
    pub attempted: u64,
    pub failed: u64,
    /// One line per correctness gate that tripped.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record a gate: when `ok` is false the run is incorrect and `message`
    /// says why. Returns `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures.push(message());
        }
        ok
    }

    /// [`Outcome::check`] that also counts as one attempted operation — the
    /// traced pass's unit of work is the gate.
    pub fn gate(&mut self, ok: bool, message: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.check(ok, message)
    }

    pub fn push(&mut self, metric: Metric) {
        if !metric.value.is_finite() {
            self.failures.push(format!(
                "metric {} is not finite ({})",
                metric.name, metric.value
            ));
        }
        self.metrics.push(metric);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Human-readable lines: every metric by name with its unit, then the
    /// gates that tripped.
    pub fn print_table(&self) {
        for m in &self.metrics {
            println!("{:<32} {:>18.9} {:<10} {}", m.name, m.value, m.unit, m.note);
        }
        for f in &self.failures {
            println!("GATE FAILED: {f}");
        }
    }

    /// The driver's result object, on one line.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
