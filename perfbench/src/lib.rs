//! # perfbench
//!
//! The repository's benchmark: three workloads that load different layers
//! of the `prb` stack, end-to-end metrics measured with observability off,
//! and a separate traced run that splits the work by layer. `NOTES.md`
//! next to this crate records why each workload exists, which layer
//! metric should move which end-to-end metric, and the measured spread.
//!
//! - [`episode`] — the workloads, their deployments and the fixed-size
//!   episode every run is made of,
//! - [`timed`] — the untraced run and its end-to-end metrics,
//! - [`reference`] — the host-speed reference loop wall-clock metrics are
//!   rescaled by,
//! - [`layers`] — the traced run: spans around public calls, replays on
//!   the run's own keys, transactions and blocks, and per-layer metrics.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod episode;
pub mod layers;
pub mod reference;
pub mod timed;

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Whether the value is a count that repeats exactly for one seed
    /// (as opposed to a wall-clock or memory reading).
    pub exact: bool,
}

/// A run's result line.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Transactions handed to the system.
    pub attempted: u64,
    /// Valid transactions that never committed.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() {
                format!("{:e}", m.value)
            } else {
                "null".into()
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank percentile (`q` in `0..=1`) of an unsorted sample; NaN
/// when the sample is empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample; NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A `/proc/self/status` field in kB (`VmHWM`, `VmRSS`); 0 where the
/// file is unavailable.
pub fn proc_status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_order_statistics() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.9), 5.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
                exact: false,
            }],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 2.5e-1, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn reads_own_peak_rss() {
        assert!(proc_status_kb("VmHWM") > 0);
    }
}
