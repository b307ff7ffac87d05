//! The untraced run: repeated episodes until `--seconds` of timed rounds,
//! with observability off (`Obs::off`, the default).
//!
//! Each episode rebuilds the deployment from the same seed, so every
//! episode must commit the same ledger; a run whose episodes disagree
//! fails. Set-up time is taken over every construction in the run: each
//! episode's own plus one set-up-only construction after each episode,
//! so the samples spread over the whole run.
//!
//! # Rescaled medians
//!
//! Throughput and latency are taken per one-to-two-second interval of
//! timed rounds, and every time is multiplied by the interval's host-speed
//! factor: the nominal time of the reference loop over its median time
//! before the interval's rounds (see [`crate::reference`]). Set-up times
//! are rescaled by the reference loop timed around them. A run reports the
//! median over its intervals (15–25 of them) and over its set-ups; the
//! report line also prints the raw wall-clock medians and the median
//! factor.

use std::path::Path;

use crate::episode::{run_episode, Interval, Kind, NoProbe};
use crate::{median, percentile, proc_status_kb, reference, Metric, RunResult};

/// Fewest constructions `setup_s` is taken over.
pub const MIN_SETUPS: usize = 5;

/// Everything an untraced run measured.
#[derive(Clone, Debug, Default)]
pub struct Timed {
    /// Episodes run.
    pub episodes: usize,
    /// Set-up samples: raw seconds and the host-speed factor.
    pub setups: Vec<(f64, f64)>,
    /// Input generation, seconds, summed over episodes.
    pub gen_s: f64,
    /// Measurement intervals of every episode.
    pub intervals: Vec<Interval>,
    /// Submitted, committed, rejected-invalid and failed, summed.
    pub submitted: u64,
    /// See [`Timed::submitted`].
    pub committed: u64,
    /// See [`Timed::submitted`].
    pub rejected: u64,
    /// See [`Timed::submitted`].
    pub failed: u64,
    /// `VmHWM` after the first episode, kB: one episode's peak in a
    /// fresh process (later episodes reuse the heap the first one grew).
    pub peak_kb: u64,
    /// Governor 0's export hash (identical in every episode).
    pub head: String,
    /// Correctness violations.
    pub errors: Vec<String>,
}

/// Runs episodes of `kind` until about `seconds` of timed rounds.
pub fn run(kind: Kind, seed: u64, seconds: f64, work_dir: &Path) -> Timed {
    let mut t = Timed::default();
    loop {
        let ep = run_episode(kind, seed, work_dir, false, &mut NoProbe);
        let out = ep.outcome();
        if t.episodes == 0 {
            t.peak_kb = proc_status_kb("VmHWM");
        }
        t.setups
            .push((ep.setup_s, reference::scale(&ep.setup_refs_ms)));
        t.gen_s += ep.gen_s;
        drop(ep);
        t.episodes += 1;
        t.intervals.extend(out.intervals.iter().cloned());
        t.submitted += out.submitted;
        t.committed += out.committed;
        t.rejected += out.rejected;
        t.failed += out.failed;
        t.errors.extend(
            out.errors
                .iter()
                .map(|e| format!("episode {}: {e}", t.episodes)),
        );
        t.extra_setup(kind, seed, work_dir);
        if t.head.is_empty() {
            t.head = out.head.clone();
        } else if t.head != out.head {
            t.errors.push(format!(
                "episode {} committed another ledger ({} vs {})",
                t.episodes, out.head, t.head
            ));
        }
        // Stop when another episode would overshoot by more than half of
        // one: the measured time stays within half an episode of
        // `seconds`.
        let window_s = t.window_s();
        if window_s + window_s / t.episodes as f64 / 2.0 >= seconds {
            break;
        }
    }
    while t.setups.len() < MIN_SETUPS {
        t.extra_setup(kind, seed, work_dir);
    }
    t
}

impl Timed {
    /// One set-up-only construction: deployment and warm-up rounds.
    fn extra_setup(&mut self, kind: Kind, seed: u64, work_dir: &Path) {
        let ep = run_episode(kind, seed, work_dir, true, &mut NoProbe);
        self.setups
            .push((ep.setup_s, reference::scale(&ep.setup_refs_ms)));
        self.gen_s += ep.gen_s;
    }

    /// Medians over the run's intervals and set-ups of throughput, p50
    /// and p90 latency and set-up time: `(commit_tps, commit_ms_p50,
    /// commit_ms_p90, setup_s)`. With `rescaled`, each time is first
    /// multiplied by its host-speed factor.
    pub fn medians(&self, rescaled: bool) -> (f64, f64, f64, f64) {
        let k = |scale: f64| if rescaled { scale } else { 1.0 };
        let rates: Vec<f64> = self
            .intervals
            .iter()
            .map(|i| i.committed as f64 / (i.wall_s * k(i.scale)))
            .collect();
        let lat = |p| {
            let per: Vec<f64> = self
                .intervals
                .iter()
                .filter(|i| !i.latencies_ms.is_empty())
                .map(|i| percentile(&i.latencies_ms, p) * k(i.scale))
                .collect();
            median(&per)
        };
        let setups: Vec<f64> = self.setups.iter().map(|&(s, f)| s * k(f)).collect();
        (median(&rates), lat(0.5), lat(0.9), median(&setups))
    }

    /// Median host-speed factor over the intervals.
    pub fn median_scale(&self) -> f64 {
        median(&self.intervals.iter().map(|i| i.scale).collect::<Vec<_>>())
    }

    /// Wall seconds of every timed round.
    pub fn window_s(&self) -> f64 {
        self.intervals.iter().map(|i| i.wall_s).sum()
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, unit, value| Metric {
            name,
            unit,
            value,
            exact: false,
        };
        let (tps, p50, p90, setup) = self.medians(true);
        vec![
            m("commit_tps", "tx/s", tps),
            m("commit_ms_p50", "ms", p50),
            m("commit_ms_p90", "ms", p90),
            m("setup_s", "s", setup),
            m("peak_rss_mb", "MB", self.peak_kb as f64 / 1024.0),
            Metric {
                exact: true,
                ..m(
                    "settled_frac",
                    "ratio",
                    (self.committed + self.rejected) as f64 / self.submitted.max(1) as f64,
                )
            },
        ]
    }

    /// The result line of this run.
    pub fn result(&self) -> RunResult {
        RunResult {
            correct: self.errors.is_empty(),
            attempted: self.submitted,
            failed: self.failed,
            metrics: self.metrics(),
        }
    }
}
