//! Observability for the prb protocol stack: structured event tracing,
//! sim-time phase spans, and a metrics registry.
//!
//! The paper's claims are measured shapes — `O(√T)` regret (Theorem 1/4),
//! an unchecked fraction `≤ f` (Lemma 2), `O(b·m)` message complexity
//! (§4.1) — and this crate is the substrate that lets every layer prove
//! its contribution to them from traces rather than printlns:
//!
//! - [`Event`]: node, role, round, sim-time tick, and a typed
//!   [`EventKind`] payload.
//! - [`Recorder`]: a pluggable sink trait with three built-ins —
//!   [`NullRecorder`] (discard), [`RingRecorder`] (bounded in-memory),
//!   and [`JsonlRecorder`] (one JSON object per line, hand-serialized;
//!   the crate is std-only because the build environment has no registry
//!   access).
//! - [`Metrics`]: counters, gauges, and log₂-bucketed [`Histogram`]s
//!   with p50/p95/p99, keyed by static names.
//! - [`Span`]: sim-time intervals for the protocol phases
//!   (election → proposal → screening → vote → commit → reveal → argue),
//!   recorded into `phase.<name>` histograms.
//! - [`fxhash`]: the seeded deterministic hasher behind every per-tx map
//!   in the workspace (lifecycle tracker, chain index, governor pools).
//!
//! Everything hangs off an [`Obs`] behind an [`ObsHandle`]
//! (`Rc<Obs>`): the network kernel, the protocol nodes, and the
//! consensus baselines all clone the same handle. [`Obs::off`] is the
//! default everywhere and short-circuits to a single branch, so an
//! untraced run pays nothing.

mod event;
pub mod fxhash;
pub mod json;
pub mod lifecycle;
mod metrics;
mod recorder;
mod span;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use fxhash::FxMap;

pub use event::{DropReason, Event, EventKind, FieldValue, Role, EXTERNAL_NODE};
pub use metrics::{Histogram, Metrics};
pub use recorder::{JsonlRecorder, NullRecorder, Recorder, RingRecorder, TeeRecorder};
pub use span::{phases, Span};

/// The shared, cheaply-cloned handle the whole stack threads through.
pub type ObsHandle = Rc<Obs>;

/// Per-message-kind event tallies, for reconciling against the kernel's
/// `MessageStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsgCounts {
    /// `msg.sent` events.
    pub sent: u64,
    /// `msg.delivered` events.
    pub delivered: u64,
    /// `msg.dropped` events.
    pub dropped: u64,
}

/// Where one transaction stands in its lifecycle: the first-seen tick
/// (and round, for the bookends) of each stage across all replicas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct TxTimes {
    submitted: Option<(u64, u64)>,
    admitted: Option<u64>,
    screened: Option<u64>,
    proposed: Option<u64>,
    committed: Option<(u64, u64)>,
    dropped: bool,
}

/// Aggregate lifecycle tallies over distinct trace ids.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LifecycleCounts {
    /// Traces with a `tx.submitted` event.
    pub submitted: u64,
    /// Traces some replica committed.
    pub committed: u64,
    /// Traces that were dropped and never committed.
    pub dropped: u64,
    /// Submitted traces with no terminal event yet (orphans).
    pub open: u64,
}

/// The observability hub: an event sink, the metrics registry, and the
/// ambient context (round number, node roles) events are stamped with.
pub struct Obs {
    enabled: bool,
    sink: Rc<dyn Recorder>,
    metrics: Metrics,
    round: Cell<u64>,
    roles: RefCell<Vec<Role>>,
    /// (event kind, msg kind or "") → occurrences.
    kind_counts: RefCell<BTreeMap<(&'static str, &'static str), u64>>,
    /// trace id → first-seen stage times; feeds the `lat.*` histograms.
    /// A seeded-Fx map, not `BTreeMap`: this is written once per traced
    /// transaction per stage, and nothing reads it in bucket order
    /// ([`Obs::open_traces`] sorts its output explicitly).
    lifecycle: RefCell<FxMap<u64, TxTimes>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled)
            .field("round", &self.round.get())
            .finish_non_exhaustive()
    }
}

impl Obs {
    /// A disabled hub: every emit is a single branch, nothing is
    /// recorded. The default for all components.
    pub fn off() -> ObsHandle {
        Rc::new(Obs {
            enabled: false,
            sink: Rc::new(NullRecorder),
            metrics: Metrics::new(),
            round: Cell::new(0),
            roles: RefCell::new(Vec::new()),
            kind_counts: RefCell::new(BTreeMap::new()),
            lifecycle: RefCell::new(FxMap::default()),
        })
    }

    /// An active hub feeding `sink`.
    pub fn with_sink(sink: Rc<dyn Recorder>) -> ObsHandle {
        Rc::new(Obs {
            enabled: true,
            sink,
            metrics: Metrics::new(),
            round: Cell::new(0),
            roles: RefCell::new(Vec::new()),
            kind_counts: RefCell::new(BTreeMap::new()),
            lifecycle: RefCell::new(FxMap::default()),
        })
    }

    /// An active hub that counts and aggregates but stores no events.
    pub fn counting() -> ObsHandle {
        Self::with_sink(Rc::new(NullRecorder))
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Declares the role of each kernel node index (the driver resolves
    /// roles so emitting sites don't have to).
    pub fn set_roles(&self, roles: Vec<Role>) {
        *self.roles.borrow_mut() = roles;
    }

    /// Stamps subsequent events with `round`.
    pub fn set_round(&self, round: u64) {
        self.round.set(round);
    }

    /// The round currently being stamped.
    pub fn round(&self) -> u64 {
        self.round.get()
    }

    fn role_of(&self, node: u64) -> Role {
        if node == EXTERNAL_NODE {
            return Role::External;
        }
        self.roles
            .borrow()
            .get(node as usize)
            .copied()
            .unwrap_or(Role::External)
    }

    /// Records one event at sim tick `time`, attributed to kernel node
    /// `node` ([`EXTERNAL_NODE`] for the driver). No-op when disabled.
    pub fn emit(&self, time: u64, node: u64, kind: EventKind) {
        if !self.enabled {
            return;
        }
        *self
            .kind_counts
            .borrow_mut()
            .entry((kind.name(), kind.msg_kind().unwrap_or("")))
            .or_insert(0) += 1;
        if kind.trace_id().is_some() {
            self.track_lifecycle(time, &kind);
        }
        let event = Event {
            time,
            node,
            role: self.role_of(node),
            round: self.round.get(),
            kind,
        };
        self.sink.record(&event);
    }

    /// Folds one lifecycle event into the per-trace timeline. Each stage
    /// keeps its *first* occurrence (replicas re-report later ones); the
    /// first commit closes the timeline and feeds the `lat.*` histograms
    /// in both sim ticks and rounds.
    fn track_lifecycle(&self, time: u64, kind: &EventKind) {
        let Some(trace) = kind.trace_id() else {
            return;
        };
        let round = self.round.get();
        let mut map = self.lifecycle.borrow_mut();
        let tx = map.entry(trace).or_default();
        match kind {
            EventKind::TxSubmitted { .. } => {
                tx.submitted.get_or_insert((time, round));
            }
            EventKind::TxAdmitted { .. } => {
                tx.admitted.get_or_insert(time);
            }
            EventKind::TxScreened { .. } | EventKind::TxValidated { .. } => {
                tx.screened.get_or_insert(time);
            }
            EventKind::TxProposed { .. } => {
                tx.proposed.get_or_insert(time);
            }
            EventKind::TxCommitted { .. } => {
                if tx.committed.is_some() {
                    return;
                }
                tx.committed = Some((time, round));
                if let Some((t0, r0)) = tx.submitted {
                    self.metrics
                        .observe("lat.submit_to_commit", time.saturating_sub(t0));
                    self.metrics
                        .observe("lat.commit_rounds", round.saturating_sub(r0));
                    if let Some(ts) = tx.screened {
                        self.metrics
                            .observe("lat.submit_to_screen", ts.saturating_sub(t0));
                    }
                }
                if let (Some(ts), Some(tp)) = (tx.screened, tx.proposed) {
                    self.metrics
                        .observe("lat.screen_to_propose", tp.saturating_sub(ts));
                }
                if let Some(tp) = tx.proposed {
                    self.metrics
                        .observe("lat.propose_to_commit", time.saturating_sub(tp));
                }
            }
            EventKind::TxDropped { .. } => tx.dropped = true,
            _ => {}
        }
    }

    /// Aggregate lifecycle tallies over distinct trace ids.
    pub fn lifecycle_counts(&self) -> LifecycleCounts {
        let mut out = LifecycleCounts::default();
        for tx in self.lifecycle.borrow().values() {
            if tx.submitted.is_some() {
                out.submitted += 1;
            }
            if tx.committed.is_some() {
                out.committed += 1;
            } else if tx.dropped {
                out.dropped += 1;
            } else if tx.submitted.is_some() {
                out.open += 1;
            }
        }
        out
    }

    /// Trace ids that were submitted but never reached a terminal stage
    /// (committed or dropped) — the lifecycle-coverage failures.
    pub fn open_traces(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .lifecycle
            .borrow()
            .iter()
            .filter(|(_, tx)| tx.submitted.is_some() && tx.committed.is_none() && !tx.dropped)
            .map(|(&t, _)| t)
            .collect();
        out.sort_unstable();
        out
    }

    /// Adds `n` to counter `name` (no-op when disabled). Used by hot
    /// paths (e.g. wall-clock nanosecond accumulation) that must cost a
    /// single branch in untraced runs.
    pub fn add_counter(&self, name: &'static str, n: u64) {
        if self.enabled {
            self.metrics.add(name, n);
        }
    }

    /// Records `value` into histogram `name` (no-op when disabled).
    pub fn observe(&self, name: &'static str, value: u64) {
        if self.enabled {
            self.metrics.observe(name, value);
        }
    }

    /// Sets gauge `name` (no-op when disabled).
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        if self.enabled {
            self.metrics.set_gauge(name, value);
        }
    }

    /// Opens a phase span at tick `now` (pure; see [`Obs::end_span`]).
    pub fn span(&self, phase: &'static str, now: u64) -> Span {
        Span::begin(phase, now)
    }

    /// Closes `span` at tick `now` on behalf of `node`: observes the
    /// duration into the `phase.<name>` histogram and emits a
    /// `phase.end` event. No-op when disabled.
    pub fn end_span(&self, span: Span, now: u64, node: u64) {
        if !self.enabled {
            return;
        }
        let ticks = span.elapsed(now);
        self.metrics.observe(phase_key(span.phase()), ticks);
        self.emit(
            now,
            node,
            EventKind::PhaseEnd {
                phase: span.phase(),
                ticks,
            },
        );
    }

    /// Flushes the sink.
    pub fn flush(&self) {
        self.sink.flush();
    }

    /// Event occurrences grouped by (kind name, msg kind or "").
    pub fn kind_counts(&self) -> Vec<((&'static str, &'static str), u64)> {
        self.kind_counts
            .borrow()
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Total occurrences of `kind` across all message kinds.
    pub fn count_of(&self, kind: &str) -> u64 {
        self.kind_counts
            .borrow()
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Per-message-kind sent/delivered/dropped tallies, for reconciling
    /// against the kernel's `MessageStats`.
    pub fn msg_counts(&self) -> BTreeMap<&'static str, MsgCounts> {
        let mut out: BTreeMap<&'static str, MsgCounts> = BTreeMap::new();
        for (&(kind, msg), &n) in self.kind_counts.borrow().iter() {
            if msg.is_empty() {
                continue;
            }
            let entry = out.entry(msg).or_default();
            match kind {
                "msg.sent" => entry.sent += n,
                "msg.delivered" => entry.delivered += n,
                "msg.dropped" => entry.dropped += n,
                _ => {}
            }
        }
        out
    }

    /// The end-of-run summary: event counts per kind, then phase- and
    /// commit-latency percentiles in sim ticks, then gauges. Every
    /// section iterates `BTreeMap`-backed registries, so the output is
    /// byte-for-byte deterministic for a given run. Empty string when
    /// disabled or empty.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        if !self.enabled {
            return String::new();
        }
        let mut out = String::new();
        let counts = self.kind_counts();
        if !counts.is_empty() {
            let _ = writeln!(out, "## events by kind");
            let _ = writeln!(out, "{:<20} {:<16} {:>10}", "kind", "msg", "count");
            for ((kind, msg), n) in counts {
                let msg = if msg.is_empty() { "-" } else { msg };
                let _ = writeln!(out, "{kind:<20} {msg:<16} {n:>10}");
            }
        }
        let section =
            |out: &mut String, title: &str, strip: &str, rows: Vec<(&'static str, Histogram)>| {
                if rows.is_empty() {
                    return;
                }
                if !out.is_empty() {
                    let _ = writeln!(out);
                }
                let _ = writeln!(out, "## {title}");
                let _ = writeln!(
                    out,
                    "{:<20} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                    "name", "count", "p50", "p95", "p99", "p999", "max"
                );
                for (name, h) in rows {
                    let name = name.strip_prefix(strip).unwrap_or(name);
                    let _ = writeln!(
                        out,
                        "{name:<20} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                        h.count(),
                        h.p50(),
                        h.p95(),
                        h.p99(),
                        h.p999(),
                        h.max()
                    );
                }
            };
        let rows_with = |prefix: &str| -> Vec<(&'static str, Histogram)> {
            self.metrics
                .histograms()
                .into_iter()
                .filter(|(name, _)| name.starts_with(prefix))
                .collect()
        };
        section(
            &mut out,
            "phase latency (sim ticks)",
            "phase.",
            rows_with("phase."),
        );
        section(
            &mut out,
            "commit latency (sim ticks; *_rounds in rounds)",
            "lat.",
            rows_with("lat."),
        );
        section(&mut out, "queue depth", "depth.", rows_with("depth."));
        let gauges = self.metrics.gauges();
        if !gauges.is_empty() {
            if !out.is_empty() {
                let _ = writeln!(out);
            }
            let _ = writeln!(out, "## gauges");
            for (name, v) in gauges {
                let _ = writeln!(out, "{name:<28} {v:>12.2}");
            }
        }
        out
    }
}

/// Maps a phase constant to its histogram key.
fn phase_key(phase: &'static str) -> &'static str {
    match phase {
        phases::ELECTION => "phase.election",
        phases::PROPOSAL => "phase.proposal",
        phases::SCREENING => "phase.screening",
        phases::VOTE => "phase.vote",
        phases::COMMIT => "phase.commit",
        phases::REVEAL => "phase.reveal",
        phases::ARGUE => "phase.argue",
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let obs = Obs::off();
        obs.emit(1, 0, EventKind::TimerFired { timer: 0 });
        let span = obs.span(phases::VOTE, 0);
        obs.end_span(span, 10, 0);
        assert!(obs.kind_counts().is_empty());
        assert!(obs.metrics().histogram("phase.vote").is_none());
        assert!(obs.summary().is_empty());
    }

    #[test]
    fn emit_stamps_round_and_role() {
        let ring = Rc::new(RingRecorder::new(16));
        let obs = Obs::with_sink(ring.clone());
        obs.set_roles(vec![Role::Provider, Role::Governor]);
        obs.set_round(3);
        obs.emit(5, 1, EventKind::TimerFired { timer: 9 });
        obs.emit(6, EXTERNAL_NODE, EventKind::TimerFired { timer: 10 });
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].role, Role::Governor);
        assert_eq!(events[0].round, 3);
        assert_eq!(events[1].role, Role::External);
    }

    #[test]
    fn spans_feed_phase_histograms_and_events() {
        let obs = Obs::counting();
        let span = obs.span(phases::COMMIT, 100);
        obs.end_span(span, 140, 2);
        let h = obs.metrics().histogram("phase.commit").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 40);
        assert_eq!(obs.count_of("phase.end"), 1);
    }

    #[test]
    fn msg_counts_reconcile_by_kind() {
        let obs = Obs::counting();
        obs.emit(
            0,
            0,
            EventKind::MsgSent {
                msg: "ping",
                to: 1,
                bytes: 4,
            },
        );
        obs.emit(
            1,
            1,
            EventKind::MsgDelivered {
                msg: "ping",
                from: 0,
                bytes: 4,
                latency: 1,
            },
        );
        obs.emit(
            2,
            0,
            EventKind::MsgDropped {
                msg: "ping",
                from: 0,
                bytes: 4,
                reason: DropReason::Loss,
            },
        );
        let counts = obs.msg_counts();
        assert_eq!(
            counts.get("ping"),
            Some(&MsgCounts {
                sent: 1,
                delivered: 1,
                dropped: 1
            })
        );
    }

    fn lifecycle_run(obs: &Obs) {
        obs.set_round(1);
        obs.emit(
            10,
            0,
            EventKind::TxSubmitted {
                trace: 7,
                provider: 0,
            },
        );
        obs.emit(30, 5, EventKind::TxAdmitted { trace: 7 });
        obs.emit(
            50,
            5,
            EventKind::TxScreened {
                trace: 7,
                drawn: 1,
                checked: false,
                label_valid: true,
            },
        );
        obs.set_round(2);
        obs.emit(
            80,
            5,
            EventKind::TxProposed {
                trace: 7,
                serial: 1,
            },
        );
        obs.emit(
            95,
            6,
            EventKind::TxCommitted {
                trace: 7,
                serial: 1,
            },
        );
        // Replica re-reports are first-wins; they must not re-feed lat.*.
        obs.emit(
            99,
            7,
            EventKind::TxCommitted {
                trace: 7,
                serial: 1,
            },
        );
        obs.emit(
            11,
            0,
            EventKind::TxSubmitted {
                trace: 8,
                provider: 1,
            },
        );
        obs.emit(
            40,
            5,
            EventKind::TxDropped {
                trace: 8,
                reason: "invalid",
            },
        );
        obs.emit(
            12,
            0,
            EventKind::TxSubmitted {
                trace: 9,
                provider: 2,
            },
        );
    }

    #[test]
    fn lifecycle_tracker_feeds_latency_histograms_once() {
        let obs = Obs::counting();
        lifecycle_run(&obs);
        let e2e = obs.metrics().histogram("lat.submit_to_commit").unwrap();
        assert_eq!(e2e.count(), 1);
        assert_eq!(e2e.max(), 85);
        let rounds = obs.metrics().histogram("lat.commit_rounds").unwrap();
        assert_eq!(rounds.max(), 1);
        assert_eq!(
            obs.metrics()
                .histogram("lat.submit_to_screen")
                .unwrap()
                .max(),
            40
        );
        assert_eq!(
            obs.metrics()
                .histogram("lat.propose_to_commit")
                .unwrap()
                .max(),
            15
        );
        let counts = obs.lifecycle_counts();
        assert_eq!(
            counts,
            LifecycleCounts {
                submitted: 3,
                committed: 1,
                dropped: 1,
                open: 1
            }
        );
        assert_eq!(obs.open_traces(), vec![9]);
    }

    #[test]
    fn summary_is_deterministic_and_lists_all_sections() {
        let build = || {
            let obs = Obs::counting();
            lifecycle_run(&obs);
            let span = obs.span(phases::COMMIT, 0);
            obs.end_span(span, 12, 5);
            obs.set_gauge("gov.mempool_depth", 3.0);
            obs.observe("depth.ready", 2);
            obs.summary()
        };
        let a = build();
        assert_eq!(a, build(), "summary must be byte-identical across runs");
        assert!(a.contains("commit latency"), "{a}");
        assert!(a.contains("submit_to_commit"), "{a}");
        assert!(a.contains("p999"), "{a}");
        assert!(a.contains("## gauges"), "{a}");
        assert!(a.contains("gov.mempool_depth"), "{a}");
        assert!(a.contains("## queue depth"), "{a}");
    }

    #[test]
    fn gated_helpers_are_noops_when_off() {
        let obs = Obs::off();
        obs.add_counter("wall.crypto_ns", 5);
        obs.observe("depth.ready", 1);
        obs.set_gauge("g", 1.0);
        assert_eq!(obs.metrics().counter("wall.crypto_ns"), 0);
        assert!(obs.metrics().histogram("depth.ready").is_none());
        assert_eq!(obs.metrics().gauge("g"), None);
        assert_eq!(obs.lifecycle_counts(), LifecycleCounts::default());
    }

    #[test]
    fn summary_lists_kinds_and_phases() {
        let obs = Obs::counting();
        obs.emit(
            0,
            0,
            EventKind::MsgSent {
                msg: "ping",
                to: 1,
                bytes: 0,
            },
        );
        let span = obs.span(phases::ELECTION, 0);
        obs.end_span(span, 16, 0);
        let s = obs.summary();
        assert!(s.contains("events by kind"), "{s}");
        assert!(s.contains("msg.sent"), "{s}");
        assert!(s.contains("phase latency"), "{s}");
        assert!(s.contains("election"), "{s}");
    }
}
