//! Lifecycle property tests: the transaction trace emitted by a full
//! simulation obeys the legal state machine (`prb_obs::lifecycle`) no
//! matter which faults the run injects — honest, crashed governors
//! (E11's schedule), or byzantine committees (E12's profiles) — and
//! trace ids are unique, founded, and monotone in sim time.

use std::rc::Rc;

use prb_core::behavior::{CollectorProfile, GovernorProfile, ProviderProfile};
use prb_core::config::{ProtocolConfig, RevealPolicy};
use prb_core::sim::Simulation;
use prb_net::fault::FaultPlan;
use prb_net::time::SimTime;
use prb_obs::lifecycle::{validate, Checks};
use prb_obs::{Event, EventKind, Obs, ObsHandle, Recorder, RingRecorder};

/// Large enough that no test run wraps the ring: a wrapped ring loses
/// early `tx.submitted` events and the foundedness rule would
/// false-positive.
const RING: usize = 200_000;

fn ring_obs() -> (Rc<RingRecorder>, ObsHandle) {
    let ring = Rc::new(RingRecorder::new(RING));
    let obs = Obs::with_sink(Rc::clone(&ring) as Rc<dyn Recorder>);
    (ring, obs)
}

fn events_of(ring: &RingRecorder) -> Vec<Event> {
    assert!(
        ring.total_recorded() <= RING as u64,
        "ring wrapped ({} events); grow RING",
        ring.total_recorded()
    );
    ring.events()
}

fn submitted_traces(events: &[Event]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TxSubmitted { trace, .. } => Some(trace),
            _ => None,
        })
        .collect()
}

#[test]
fn honest_run_trace_is_legal_unique_and_fully_covered() {
    // Paranoid block adoption re-verifies every entry on receipt; the
    // stream must stay legal and fully closed either way.
    for verify_blocks in [false, true] {
        honest_run_trace_case(verify_blocks);
    }
}

fn honest_run_trace_case(verify_blocks: bool) {
    let cfg = ProtocolConfig {
        seed: 7,
        reveal: RevealPolicy::AfterRounds(1),
        verify_blocks,
        ..Default::default()
    };
    let expected = (cfg.providers * cfg.tx_per_provider) as u64 * 6;
    let mut collectors = vec![CollectorProfile::honest(); cfg.collectors as usize];
    collectors[0] = CollectorProfile::concealer(0.5);
    let mut sim = Simulation::builder(cfg)
        .collector_profiles(collectors)
        .provider_profiles(vec![ProviderProfile::honest_active(); 8])
        .build()
        .expect("valid config");
    let (ring, obs) = ring_obs();
    sim.set_obs(Rc::clone(&obs));
    sim.run(6);
    sim.run_drain_rounds(3);

    let events = events_of(&ring);
    validate(&events, Checks::default()).expect("honest stream is legal");

    // Trace ids are unique: one submission per signed transaction.
    let mut traces = submitted_traces(&events);
    assert_eq!(traces.len() as u64, expected);
    traces.sort_unstable();
    traces.dedup();
    assert_eq!(traces.len() as u64, expected, "trace ids collide");

    // Full coverage: with replication 4 and a single 50% concealer, every
    // transaction still reaches an honest path and commits.
    assert!(obs.open_traces().is_empty(), "transactions left open");
    let counts = obs.lifecycle_counts();
    assert_eq!(counts.submitted, expected);
    assert!(counts.committed > 0);
}

#[test]
fn forged_fabrications_drop_and_real_txs_still_commit() {
    // Forging collectors fabricate an extra transaction (with a bogus
    // provider signature) alongside every honest upload. Fabrications
    // have no provider submission — the validator's documented
    // foundedness exemption — and must terminate as dropped/forged,
    // while the real transactions commit untouched.
    let cfg = ProtocolConfig {
        seed: 11,
        ..Default::default()
    };
    let mut sim = Simulation::builder(cfg.clone())
        .collector_profiles(vec![CollectorProfile::forger(1.0); cfg.collectors as usize])
        .provider_profiles(vec![ProviderProfile::honest_active(); 8])
        .build()
        .expect("valid config");
    let (ring, obs) = ring_obs();
    sim.set_obs(Rc::clone(&obs));
    sim.run(4);
    sim.run_drain_rounds(2);

    let events = events_of(&ring);
    validate(&events, Checks::default()).expect("forged-fabrication stream is legal");
    let counts = obs.lifecycle_counts();
    assert!(counts.committed > 0, "real transactions still commit");
    assert!(counts.dropped > 0, "fabrications drop with a reason");
    assert!(obs.open_traces().is_empty(), "no submitted trace left open");
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            EventKind::TxDropped {
                reason: "forged",
                ..
            }
        )),
        "expected tx.dropped with reason=forged"
    );
}

#[test]
fn crash_recovery_trace_stays_legal() {
    // E11's crash schedule: two governors deaf and mute for rounds 3–5,
    // healing mid-run; recovery replays blocks via sync pages.
    let cfg = ProtocolConfig {
        governors: 5,
        reliable_delivery: true,
        seed: 13,
        ..Default::default()
    };
    let mut sim = Simulation::new(cfg.clone()).expect("valid config");
    let (ring, obs) = ring_obs();
    sim.set_obs(Rc::clone(&obs));
    let rt = cfg.round_ticks();
    let mut faults = FaultPlan::none();
    for g in [1u32, 2] {
        faults.crash_window(sim.governor_net_index(g), SimTime(2 * rt), SimTime(5 * rt));
    }
    sim.set_faults(faults);
    sim.run(8);
    sim.run_drain_rounds(2);
    sim.settle(5 * rt);

    let events = events_of(&ring);
    // Sync recovery commits replayed blocks on the healed replicas; the
    // proposal events exist in the global stream (the live leader emitted
    // them), so even the strict rule holds.
    validate(&events, Checks::default()).expect("crash-recovery stream is legal");
    assert!(
        obs.lifecycle_counts().committed > 0,
        "liveness under crashes"
    );
}

#[test]
fn byzantine_equivocation_trace_stays_legal_without_strict_propose() {
    // E12's equivocators: twin blocks split the committee, so a commit's
    // proposal event can name the other twin — rule 5 is the documented
    // exception and stays off.
    let m = 7u32;
    let mut profiles = vec![GovernorProfile::honest(); m as usize];
    for g in [5u32, 6] {
        profiles[g as usize] = GovernorProfile::equivocator().sleeper(2);
    }
    let cfg = ProtocolConfig {
        governors: m,
        verify_blocks: true,
        reliable_delivery: true,
        governor_profiles: profiles,
        seed: 17,
        ..Default::default()
    };
    let mut sim = Simulation::new(cfg.clone()).expect("valid config");
    let (ring, obs) = ring_obs();
    sim.set_obs(Rc::clone(&obs));
    sim.run(8);
    sim.run_drain_rounds(2);
    sim.settle(3 * cfg.round_ticks());

    let events = events_of(&ring);
    validate(
        &events,
        Checks {
            strict_propose: false,
        },
    )
    .expect("byzantine stream is legal modulo rule 5");
    assert!(
        obs.lifecycle_counts().committed > 0,
        "liveness under equivocation"
    );
}

#[test]
fn censoring_leader_emits_censored_drops() {
    // A censoring leader drops every second assembled entry; each drop is
    // attributed in the trace. Censored transactions may still commit
    // later through honest leaders — committed wins over dropped.
    let m = 4u32;
    let mut profiles = vec![GovernorProfile::honest(); m as usize];
    profiles[0] = GovernorProfile::censor();
    let cfg = ProtocolConfig {
        governors: m,
        governor_profiles: profiles,
        seed: 19,
        ..Default::default()
    };
    let mut sim = Simulation::new(cfg.clone()).expect("valid config");
    let (ring, obs) = ring_obs();
    sim.set_obs(Rc::clone(&obs));
    sim.run(10);
    sim.run_drain_rounds(2);

    let events = events_of(&ring);
    validate(
        &events,
        Checks {
            strict_propose: false,
        },
    )
    .expect("censor stream is legal modulo rule 5");
    let censored_metric = obs.metrics().counter("byzantine.censored_txs");
    let censored_events = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::TxDropped {
                    reason: "censored",
                    ..
                }
            )
        })
        .count() as u64;
    assert_eq!(
        censored_events, censored_metric,
        "every censored entry is attributed in the trace"
    );
}

#[test]
fn invalid_proposal_conviction_leaves_no_open_traces() {
    // A sleeper invalid-proposer ships a block with a fabricated entry;
    // honest governors reject it on receipt and expel the proposer.
    // Every *submitted* transaction must still terminate. No full-stream
    // `validate` here: after its expulsion the culprit keeps committing
    // fabrications to its own fork, which honest nodes ignore outright,
    // so those traces are unfounded by design (see the forged-drop
    // exemption above).
    let cfg = ProtocolConfig {
        providers: 2,
        collectors: 2,
        governors: 4,
        replication: 2,
        tx_per_provider: 2,
        verify_blocks: true,
        reliable_delivery: true,
        governor_profiles: vec![
            GovernorProfile::honest(),
            GovernorProfile::honest(),
            GovernorProfile::honest(),
            GovernorProfile::invalid_proposer().sleeper(2),
        ],
        seed: 3,
        ..Default::default()
    };
    let mut sim = Simulation::new(cfg).expect("valid config");
    let (_ring, obs) = ring_obs();
    sim.set_obs(Rc::clone(&obs));
    sim.run(12);
    sim.run_drain_rounds(3);
    sim.settle(400);

    assert!(
        sim.metrics(3).invalid_proposals_sent >= 1,
        "governor 3 never forged; pick another seed"
    );
    assert_eq!(sim.governor(0).expelled(), &[3]);
    assert!(
        obs.open_traces().is_empty(),
        "open traces left behind: {:?}",
        obs.open_traces()
    );
    assert!(obs.lifecycle_counts().committed > 0);
}
