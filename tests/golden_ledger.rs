//! Golden ledgers: the SHA-256 of governor 0's exported chain for two
//! small fixed-seed runs, pinned as constants. Every other determinism
//! test compares two runs of the *same* build; these compare against the
//! committed digests, so a refactor of the round driver (or of anything
//! the protocol's message order depends on) that changes a ledger byte
//! fails here.
//!
//! If a change is *meant* to alter ledgers, re-record the constants and
//! say why in the change log.

use prb::core::behavior::{CollectorProfile, ProviderProfile};
use prb::core::config::{ProtocolConfig, RevealPolicy};
use prb::core::scale::ScaleSim;
use prb::core::sim::Simulation;
use prb::crypto::sha256::sha256;
use prb::workload::scale::ScaleWorkload;

/// Closed loop with `AfterRounds(1)` reveals, invalid transactions and a
/// misreporting collector, run through load rounds and drain rounds so
/// block notifications, reveals and argues all reach the ledger.
const CLOSED_LEDGER_SHA256: &str =
    "196912245e9d798720ddc30183b3e6493a0c73c1a2d34ddb578c847bc11a6a66";

/// Open loop: a few arrival rounds over interned providers, then up to
/// eight drain rounds.
const OPEN_LEDGER_SHA256: &str = "7a0485de3dbc4248d80d46382522fad71eda687a265d9fbd31c7ca47302ac409";

#[test]
fn closed_loop_ledger_matches_golden_digest() {
    let cfg = ProtocolConfig {
        reveal: RevealPolicy::AfterRounds(1),
        seed: 23,
        ..Default::default()
    };
    let mut sim = Simulation::builder(cfg)
        .provider_profiles(vec![
            ProviderProfile {
                invalid_rate: 0.3,
                ..Default::default()
            };
            8
        ])
        .collector_profile(1, CollectorProfile::misreporter(0.5))
        .build()
        .unwrap();
    sim.run(6);
    sim.run_drain_rounds(3);
    assert!(sim.chains_agree());
    let ledger = sim.governor(0).chain().export();
    assert_eq!(sha256(&ledger).to_hex(), CLOSED_LEDGER_SHA256);
}

#[test]
fn open_loop_ledger_matches_golden_digest() {
    let cfg = ProtocolConfig {
        providers: 512,
        collectors: 8,
        governors: 4,
        replication: 2,
        tx_per_provider: 0,
        open_loop: true,
        reveal: RevealPolicy::ArgueOnly,
        seed: 29,
        ..Default::default()
    };
    let mut sim = ScaleSim::new(cfg, 8).unwrap();
    let mut workload = ScaleWorkload::for_sim(&sim, 0.2);
    for _ in 0..4 {
        let arrivals = workload.window(sim.next_round_start(), sim.round_ticks(), 2.0);
        sim.run_round(arrivals);
    }
    sim.drain(8);
    assert!(sim.chains_agree());
    let ledger = sim.governor(0).chain().export();
    assert_eq!(sha256(&ledger).to_hex(), OPEN_LEDGER_SHA256);
}
