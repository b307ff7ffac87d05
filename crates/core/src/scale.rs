//! The E15 open-loop scale tier: collectors and governors only, driven
//! by externally injected transactions.
//!
//! [`ScaleSim`] is the [`Driver`] with its provider tier swapped out,
//! for the paper's *l* = 10⁵–10⁶ deployment sizes that one actor and one
//! enrolled keypair per provider ([`crate::sim::Simulation`]) cannot
//! reach. Simulated providers are **interned ids** — a `u32` and a nonce
//! slot in the workload's arena — whose transactions are signed by a
//! small pool of real keypairs (`pool[p % pool_len]`); every collector
//! and governor resolves keys through the same mapping, so signature
//! semantics on the hot path are unchanged.
//!
//! Arrivals are open-loop: the driver schedules `TxBroadcast`s at
//! arbitrary ticks inside a round window; collectors queue them in
//! bounded mempools (shedding the oldest with an accountable
//! `tx.dropped{shed}` event) and drain them through Algorithm 1 at the
//! next round start, so the E15 invariant `submitted == committed +
//! dropped` is checkable from the lifecycle tracker alone.
//!
//! Reveals and membership churn are unsupported (the policy must be
//! [`RevealPolicy::ArgueOnly`], churn disabled): there are no provider
//! actors to argue or to re-route.

use prb_crypto::identity::NodeId;
use prb_crypto::signer::KeyPair;
use prb_ledger::transaction::SignedTx;
use prb_net::time::SimTime;
use prb_obs::{EventKind as ObsEvent, EXTERNAL_NODE};

use crate::behavior::CollectorProfile;
use crate::config::{ProtocolConfig, RevealPolicy};
use crate::msg::ProtocolMsg;
use crate::sim::{Driver, Load, ProviderWiring};

/// One externally injected transaction: the driver's unit of work.
#[derive(Debug)]
pub struct Arrival {
    /// Absolute sim tick the transaction reaches the network edge. Must
    /// fall inside the round window it is injected into.
    pub at: u64,
    /// Interned provider id in `0..cfg.providers`.
    pub provider: u32,
    /// Per-provider submission sequence number (0-based, contiguous —
    /// the collectors' ordered inboxes release in this order).
    pub seq: u64,
    /// The signed transaction (signed by `pool[provider % pool_len]`).
    pub tx: SignedTx,
    /// Ground-truth validity to register with the oracle.
    pub valid: bool,
}

/// What one open-loop round committed (driver's view, from governor 0).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScaleRound {
    /// The round number.
    pub round: u64,
    /// Transactions injected into this round's window.
    pub injected: u64,
    /// Transactions committed in blocks observed this round.
    pub committed: u64,
}

/// Aggregated bounded-pool accounting across one tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Entries currently queued (summed over nodes).
    pub queued: usize,
    /// Highest per-node occupancy ever observed.
    pub high_water: usize,
    /// Transactions shed by the bound (summed over nodes).
    pub shed: u64,
}

impl PoolStats {
    fn add(&mut self, (queued, high_water, shed): (usize, usize, u64)) {
        self.queued += queued;
        self.high_water = self.high_water.max(high_water);
        self.shed += shed;
    }
}

/// The open-loop provider tier: interned ids signed by a keypair pool.
#[derive(Debug)]
pub struct InternedProviders {
    signer_pool: Vec<KeyPair>,
    injected: u64,
    committed: u64,
}

/// The scale deployment: `n` collectors at kernel indices `0..n`,
/// `m` governors at `n..n+m`, no provider actors.
pub type ScaleSim = Driver<InternedProviders>;

impl Driver<InternedProviders> {
    /// Builds the deployment with `pool_size` real signing identities
    /// shared by all `cfg.providers` interned provider ids.
    ///
    /// # Errors
    ///
    /// Returns a description of any invalid configuration; requires
    /// `cfg.open_loop`, [`RevealPolicy::ArgueOnly`] and churn disabled.
    pub fn new(cfg: ProtocolConfig, pool_size: u32) -> Result<Self, String> {
        if !cfg.open_loop {
            return Err("ScaleSim requires cfg.open_loop".into());
        }
        if cfg.reveal != RevealPolicy::ArgueOnly {
            return Err(
                "ScaleSim supports only RevealPolicy::ArgueOnly (no providers to argue)".into(),
            );
        }
        if cfg.churn_enabled() {
            return Err("ScaleSim does not support membership churn".into());
        }
        if pool_size == 0 {
            return Err("signer pool must be non-empty".into());
        }
        let profiles = vec![CollectorProfile::honest(); cfg.collectors as usize];
        Driver::assemble(cfg, profiles, |im| {
            // Interned-identity pool: pool keypair k stands in for every
            // provider id p with p % pool_size == k. Enrollment is
            // O(pool), not O(l) — the whole point of the scale harness.
            let (pk_pool, signer_pool) = (0..pool_size)
                .map(|k| im.enroll(NodeId::provider(k)))
                .map(|c| c.map(|c| (c.certificate.public_key, c.keypair)))
                .collect::<Result<(Vec<_>, Vec<_>), _>>()
                .map_err(|e| e.to_string())?;
            Ok(ProviderWiring {
                tier: InternedProviders {
                    signer_pool,
                    injected: 0,
                    committed: 0,
                },
                actors: Vec::new(),
                pool: Some(pk_pool),
            })
        })
    }

    /// The signing keypair pool (`pool[p % len]` signs for provider `p`).
    pub fn signer_pool(&self) -> &[KeyPair] {
        &self.tier.signer_pool
    }

    /// Total transactions injected so far.
    pub fn injected(&self) -> u64 {
        self.tier.injected
    }

    /// Total transactions committed so far (governor 0's chain).
    pub fn committed(&self) -> u64 {
        self.tier.committed
    }

    /// Mempool accounting aggregated over all collectors.
    pub fn mempool_stats(&self) -> PoolStats {
        let mut out = PoolStats::default();
        for c in 0..self.cfg.collectors {
            out.add(self.collector(c).mempool_stats());
        }
        out
    }

    /// Pending-pool accounting aggregated over all governors.
    pub fn pending_stats(&self) -> PoolStats {
        let mut out = PoolStats::default();
        for g in 0..self.cfg.governors {
            out.add(self.governor(g).pending_stats());
        }
        out
    }

    /// Retry-queue accounting aggregated over every node.
    pub fn retry_stats(&self) -> PoolStats {
        let mut out = PoolStats::default();
        for c in 0..self.cfg.collectors {
            out.add(self.collector(c).retry_queue_stats());
        }
        for g in 0..self.cfg.governors {
            out.add(self.governor(g).retry_queue_stats());
        }
        out
    }

    /// Whether every queue in the system has fully drained: collector
    /// mempools, governor Δ-window pools, and the screened-but-unpacked
    /// ready buffers.
    pub fn drained(&self) -> bool {
        (0..self.cfg.collectors).all(|c| self.collector(c).mempool_stats().0 == 0)
            && (0..self.cfg.governors).all(|g| {
                let gov = self.governor(g);
                gov.pending_count() == 0 && gov.ready_len() == 0
            })
    }

    /// Runs one open-loop round, injecting `arrivals` into its window.
    ///
    /// Arrivals must be sorted by nothing in particular, but each must
    /// fall inside `[start, start + round_ticks)` and carry contiguous
    /// per-provider `seq`s across the whole run.
    ///
    /// # Panics
    ///
    /// Panics if an arrival's tick precedes the round window or its
    /// provider id is out of range.
    pub fn run_round(&mut self, arrivals: Vec<Arrival>) -> ScaleRound {
        let (round, t0) = self.begin_round();
        let injected = arrivals.len() as u64;
        self.tier.injected += injected;
        for arrival in arrivals {
            self.inject(arrival, t0);
        }
        // Open-loop proposal timing matches the closed loop's drain
        // rounds: uploads begin at the round start (the mempool drain),
        // not after a collection phase.
        let serials = self.play_round(round, t0, Load::Mempools, 0);
        let chain = self.governor(0).chain();
        let committed = serials
            .map(|serial| chain.retrieve(serial).expect("no skipping").entries.len() as u64)
            .sum();
        self.tier.committed += committed;
        ScaleRound {
            round,
            injected,
            committed,
        }
    }

    /// One arrival: oracle registration, the `tx.submitted` lifecycle
    /// event, and a `TxBroadcast` to each of the provider's `r` linked
    /// collectors (the last one takes the payload by move).
    fn inject(&mut self, arrival: Arrival, window_start: u64) {
        let Arrival {
            at,
            provider,
            seq,
            tx,
            valid,
        } = arrival;
        assert!(
            at >= window_start,
            "arrival at {at} precedes round window {window_start}"
        );
        assert!(
            provider < self.cfg.providers,
            "provider {provider} out of range"
        );
        self.oracle.borrow_mut().register(tx.id(), valid);
        if self.obs.is_enabled() {
            self.obs.emit(
                at,
                EXTERNAL_NODE,
                ObsEvent::TxSubmitted {
                    trace: tx.id().trace(),
                    provider: u64::from(provider),
                },
            );
        }
        let mut tx = Some(tx);
        let collectors = self.topology.collectors_of(provider);
        let last = collectors.len().saturating_sub(1);
        for (i, &c) in collectors.iter().enumerate() {
            let payload = if i == last {
                tx.take().expect("one payload per fan-out slot")
            } else {
                tx.as_ref().expect("moved only on the last slot").clone()
            };
            self.net.send_external(
                self.collector_net_index(c),
                "tx-broadcast",
                ProtocolMsg::TxBroadcast { seq, tx: payload },
                SimTime(at),
            );
        }
    }

    /// Runs arrival-free rounds until every queue drains (or `max_rounds`
    /// passes); returns how many rounds it took. The chain keeps
    /// committing screened backlog during the drain.
    pub fn drain(&mut self, max_rounds: u32) -> u32 {
        for i in 0..max_rounds {
            if self.drained() {
                return i;
            }
            self.run_round(Vec::new());
        }
        max_rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_ledger::transaction::TxPayload;
    use prb_obs::Obs;

    fn scale_cfg(providers: u32) -> ProtocolConfig {
        ProtocolConfig {
            providers,
            collectors: 4,
            governors: 3,
            replication: 2,
            tx_per_provider: 0,
            open_loop: true,
            reveal: RevealPolicy::ArgueOnly,
            seed: 11,
            ..Default::default()
        }
    }

    fn make_arrival(sim: &ScaleSim, at: u64, provider: u32, seq: u64) -> Arrival {
        let pool = sim.signer_pool();
        let key = &pool[provider as usize % pool.len()];
        let tx = SignedTx::create(
            TxPayload {
                provider: NodeId::provider(provider),
                nonce: seq,
                data: vec![0xa5; 16],
            },
            at,
            key,
        );
        Arrival {
            at,
            provider,
            seq,
            tx,
            valid: true,
        }
    }

    #[test]
    fn rejects_closed_loop_and_reveal_configs() {
        let cfg = ProtocolConfig {
            open_loop: false,
            ..scale_cfg(64)
        };
        assert!(ScaleSim::new(cfg, 8).is_err());
        let cfg = ProtocolConfig {
            reveal: RevealPolicy::AfterRounds(1),
            ..scale_cfg(64)
        };
        assert!(ScaleSim::new(cfg, 8).is_err());
        // Churn: the governors would decay and evict collectors the
        // interned tier never re-routes.
        for (join_rate, leave_rate, decay_halflife) in [(0.1, 0.0, 0), (0.0, 0.1, 0), (0.0, 0.0, 4)]
        {
            let cfg = ProtocolConfig {
                join_rate,
                leave_rate,
                decay_halflife,
                ..scale_cfg(64)
            };
            assert!(cfg.validate().is_ok());
            assert!(ScaleSim::new(cfg, 8).is_err());
        }
        assert!(ScaleSim::new(scale_cfg(64), 0).is_err());
    }

    #[test]
    fn injected_transactions_commit_and_chains_agree() {
        let mut sim = ScaleSim::new(scale_cfg(64), 8).unwrap();
        sim.set_obs(Obs::counting());
        let t0 = sim.next_round_start();
        let arrivals = (0..32u32)
            .map(|i| make_arrival(&sim, t0 + u64::from(i), i % 64, 0))
            .collect();
        let r1 = sim.run_round(arrivals);
        // Arrivals land in round 1's window; the mempool drains at the
        // next round start (an arrival on the start tick itself may ride
        // round 1's own drain), so everything commits within two rounds.
        let r2 = sim.run_round(Vec::new());
        assert_eq!(r1.committed + r2.committed, 32, "all 32 arrivals commit");
        assert!(sim.drained());
        assert!(sim.chains_agree());
        let counts = sim.obs().lifecycle_counts();
        assert_eq!(counts.submitted, 32);
        assert_eq!(counts.committed, 32);
        assert_eq!(counts.open, 0);
    }

    #[test]
    fn pool_signed_providers_verify_beyond_pool_size() {
        // Provider 13 signs with pool key 13 % 4 = 1; every collector and
        // governor resolves the same key, so the tx is not discarded.
        let mut sim = ScaleSim::new(scale_cfg(64), 4).unwrap();
        sim.set_obs(Obs::counting());
        let t0 = sim.next_round_start();
        let arrivals = vec![make_arrival(&sim, t0, 13, 0)];
        sim.run_round(arrivals);
        sim.run_round(Vec::new());
        assert_eq!(sim.committed(), 1);
    }
}
