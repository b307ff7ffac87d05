//! The round driver: builds the three-tier deployment and runs protocol
//! rounds end to end.
//!
//! One generic [`Driver`] owns everything the tiers share — topology,
//! identities, the network with its collector and governor actors,
//! durable stores, retry wiring, observability, and the round skeleton
//! (start-round fan-out, propose-block, run to the window end, read the
//! blocks governor 0 committed). What differs is the provider tier:
//!
//! - [`Simulation`] (`Driver<ActorProviders>`): one actor and one enrolled
//!   keypair per provider, a closed-loop workload, and the driver-side
//!   protocol services — committed-block notifications to providers
//!   (their `retrieve(s)`), the reveal events assumed by Theorem 1, and
//!   E17 membership churn;
//! - [`crate::scale::ScaleSim`] (`Driver<InternedProviders>`): interned
//!   provider ids with open-loop arrivals (E15).
//!
//! Everything else — transactions, labels, screening, blocks, argues —
//! travels through the simulated network between the node actors.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::ops::RangeInclusive;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prb_consensus::membership::{MemberRole, MembershipAction, MembershipRequest};
use prb_consensus::stake::StakeTransfer;
use prb_crypto::identity::{Credential, IdentityError, IdentityManager, NodeId};
use prb_crypto::signer::{KeyPair, PublicKey};
use prb_ledger::block::Verdict;
use prb_ledger::oracle::ValidityOracle;
use prb_ledger::transaction::TxId;
use prb_net::fault::FaultPlan;
use prb_net::message::NodeIdx;
use prb_net::retry::RetryConfig;
use prb_net::sim::{NetConfig, Network};
use prb_net::stats::MessageStats;
use prb_net::time::{SimDuration, SimTime};
use prb_net::topology::Topology;
use prb_obs::{Obs, ObsHandle, Role};

use crate::behavior::{CollectorProfile, ProviderProfile};
use crate::collector::CollectorNode;
use crate::config::{ProtocolConfig, RevealPolicy, TopologyKind};
use crate::governor::GovernorNode;
use crate::metrics::GovernorMetrics;
use crate::msg::ProtocolMsg;
use crate::node::NodeActor;
use crate::provider::ProviderNode;
use crate::workload::{GeneratedTx, UniformWorkload, Workload};

/// Checked tier-offset arithmetic for kernel node indices: sums are
/// computed in `u64` and narrowed with `try_from`, so a configuration
/// whose node count overflows the platform `usize` (or a `u32`
/// intermediate sum at 10⁶-provider scale) fails loudly instead of
/// silently truncating into a wrong — but valid-looking — node index.
fn net_index(idx: u64) -> NodeIdx {
    NodeIdx::try_from(idx).expect("node index fits the platform usize")
}

/// What happened in one round (driver's view, read from governor 0).
#[derive(Clone, Debug, PartialEq)]
pub struct RoundOutcome {
    /// The round number.
    pub round: u64,
    /// The leader governor 0 elected, if any.
    pub leader: Option<u32>,
    /// Serial of the block committed this round, if one was.
    pub block_serial: Option<u64>,
    /// Transactions in that block.
    pub txs_in_block: usize,
}

/// A protocol deployment driven round by round, generic over its
/// provider tier `T`. Kernel indices: provider actors (if any) take
/// `0..p`, collectors `p..p+n`, governors `p+n..p+n+m`.
pub struct Driver<T> {
    pub(crate) cfg: ProtocolConfig,
    pub(crate) net: Network<NodeActor>,
    pub(crate) topology: Rc<Topology>,
    pub(crate) oracle: Rc<RefCell<ValidityOracle>>,
    /// Provider actors on the kernel (`cfg.providers`, or 0 for interned
    /// ids): the offset of the collector tier.
    provider_actors: u32,
    governor_keys: Vec<KeyPair>,
    collector_keys: Vec<KeyPair>,
    pub(crate) obs: ObsHandle,
    /// Crypto counter values when the obs hub was installed, so the
    /// summary reports per-run deltas of the process-wide counters.
    crypto_stats_base: prb_crypto::stats::CryptoStats,
    round: u64,
    next_start: u64,
    /// Highest governor-0 serial the driver has read; each serial is
    /// observed once.
    observed_height: u64,
    pub(crate) tier: T,
}

/// What a round hands the collectors and providers after the governors'
/// start-round (see [`Driver::play_round`]).
pub(crate) enum Load {
    /// A drain round: only the governors start the round.
    Drain,
    /// Open loop: collectors start the round and drain their mempools
    /// (the round's arrivals are already injected).
    Mempools,
    /// Closed loop: collectors start the round, then provider `p`
    /// receives batch `p` as its start-collect.
    Batches(Vec<Vec<GeneratedTx>>),
}

/// The provider tier's share of the wiring (see [`Driver::assemble`]).
pub(crate) struct ProviderWiring<T> {
    pub(crate) tier: T,
    /// Provider actors, placed at kernel indices `0..actors.len()`.
    pub(crate) actors: Vec<(Credential, ProviderProfile)>,
    /// Interned ids: the keys collectors and governors resolve provider
    /// `p` through (`pool[p % len]`); the collectors queue arrivals in
    /// open-loop mempools.
    pub(crate) pool: Option<Vec<PublicKey>>,
}

impl<T> fmt::Debug for Driver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Driver")
            .field("round", &self.round)
            .field("height", &self.observed_height)
            .finish_non_exhaustive()
    }
}

impl<T> Driver<T> {
    /// Wires the deployment shared by every provider tier: topology,
    /// identities, network, collector and governor actors, durable
    /// stores and retry policy. `providers` enrolls the provider tier on
    /// the shared identity manager (before any collector or governor) and
    /// returns its wiring.
    pub(crate) fn assemble(
        cfg: ProtocolConfig,
        collector_profiles: Vec<CollectorProfile>,
        providers: impl FnOnce(&mut IdentityManager) -> Result<ProviderWiring<T>, String>,
    ) -> Result<Self, String> {
        cfg.validate()?;
        let mut seed_rng = StdRng::seed_from_u64(cfg.seed);
        let topo_params = cfg.topology_params();
        let topology = Rc::new(match cfg.topology {
            TopologyKind::Cyclic => Topology::cyclic(topo_params)?,
            TopologyKind::Random => Topology::random(topo_params, &mut seed_rng)?,
        });
        let mut im = IdentityManager::new(cfg.crypto.clone(), &cfg.seed.to_be_bytes());
        let oracle = Rc::new(RefCell::new(ValidityOracle::new()));

        let wiring = providers(&mut im)?;
        let n = cfg.collectors;
        let m = cfg.governors;
        let mut enroll = |id: NodeId| im.enroll(id).map_err(|e| e.to_string());
        let collector_creds: Vec<Credential> = (0..n)
            .map(|c| enroll(NodeId::collector(c)))
            .collect::<Result<_, _>>()?;
        let governor_creds: Vec<Credential> = (0..m)
            .map(|g| enroll(NodeId::governor(g)))
            .collect::<Result<_, _>>()?;
        let pk = |c: &Credential| c.certificate.public_key.clone();
        let provider_pks: Vec<PublicKey> = wiring.actors.iter().map(|(c, _)| pk(c)).collect();
        let collector_pks: Vec<PublicKey> = collector_creds.iter().map(pk).collect();
        let governor_pks: Vec<PublicKey> = governor_creds.iter().map(pk).collect();

        let provider_actors =
            u32::try_from(wiring.actors.len()).expect("provider count fits a u32");
        let collector_net = |c: u32| net_index(u64::from(provider_actors) + u64::from(c));
        let governor_base = net_index(u64::from(provider_actors) + u64::from(n));
        let governor_nets: Vec<NodeIdx> = (0..m as usize).map(|g| governor_base + g).collect();
        let mut net = Network::new(
            NetConfig::uniform(cfg.min_delay, cfg.max_delay),
            cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );

        for (p, (cred, profile)) in (0..).zip(wiring.actors) {
            let collector_nets = topology
                .collectors_of(p)
                .iter()
                .map(|&c| collector_net(c))
                .collect();
            net.add_node(NodeActor::Provider(ProviderNode::new(
                p,
                cred.keypair,
                profile,
                collector_nets,
                governor_nets.clone(),
                Rc::clone(&oracle),
            )));
        }
        for (c, profile) in (0..n).zip(collector_profiles) {
            // Linked provider keys come from the provider actors; interned
            // ids have none and resolve through the pool instead.
            let linked_pks = topology
                .providers_of(c)
                .iter()
                .filter_map(|&p| provider_pks.get(p as usize).map(|pk| (p, pk.clone())))
                .collect();
            let mut node = CollectorNode::new(
                c,
                collector_creds[c as usize].keypair.clone(),
                cfg.crypto.clone(),
                profile,
                linked_pks,
                governor_nets.clone(),
                Rc::clone(&oracle),
            );
            if let Some(pool) = &wiring.pool {
                node.set_pk_pool(pool.clone());
                node.set_open_loop(cfg.mempool_capacity);
            }
            net.add_node(NodeActor::Collector(node));
        }
        for g in 0..m {
            let mut gov = GovernorNode::new(
                g,
                governor_creds[g as usize].keypair.clone(),
                cfg.clone(),
                Rc::clone(&topology),
                Rc::clone(&oracle),
                governor_base,
                collector_pks.clone(),
                provider_pks.clone(),
                governor_pks.clone(),
            );
            if let Some(pool) = &wiring.pool {
                gov.set_pk_pool(pool.clone());
            }
            // Durable persistence: each governor mirrors its chain into
            // `<store_dir>/g<idx>`, recovering whatever durable prefix
            // (and checkpoint certificate) a previous run left there.
            if let Some(dir) = &cfg.store_dir {
                let opts = prb_store::StoreOptions {
                    chain_tag: b"prb-chain".to_vec(),
                    b_limit: cfg.b_limit,
                    segment_bytes: cfg.store_segment_bytes,
                    fsync: prb_store::FsyncPolicy::Always,
                };
                let (store, recovered) =
                    prb_store::BlockStore::open(&dir.join(format!("g{g}")), opts)
                        .map_err(|e| format!("governor {g} store: {e}"))?;
                gov.set_store(store, recovered);
            }
            net.add_node(NodeActor::governor(gov));
        }

        if cfg.reliable_delivery {
            // One retry policy for every critical hop, derived from Δ;
            // the pending queue is bounded by `retry_capacity` (oldest
            // tokens are abandoned first under sustained overload).
            let retry_cfg = RetryConfig::for_delta(SimDuration(cfg.max_delay))
                .with_max_pending(cfg.retry_capacity);
            for idx in 0..net.node_count() {
                match net.node_mut(idx) {
                    NodeActor::Provider(p) => p.set_reliable(retry_cfg),
                    NodeActor::Collector(c) => c.set_reliable(retry_cfg),
                    NodeActor::Governor(g) => g.set_reliable(retry_cfg),
                }
            }
        }

        // A restart over a durable store resumes with governor 0 already
        // holding its recovered prefix; the driver's block cursor starts
        // past it (old blocks belong to the previous run's workload —
        // replaying their notifications against fresh providers and a
        // fresh oracle would be meaningless).
        let observed_height = net
            .node(governor_base)
            .as_governor()
            .map_or(0, |g| g.chain().height());
        Ok(Driver {
            cfg,
            net,
            topology,
            oracle,
            provider_actors,
            governor_keys: governor_creds.into_iter().map(|c| c.keypair).collect(),
            collector_keys: collector_creds.into_iter().map(|c| c.keypair).collect(),
            obs: Obs::off(),
            crypto_stats_base: prb_crypto::stats::snapshot(),
            round: 0,
            next_start: 0,
            observed_height,
            tier: wiring.tier,
        })
    }

    /// The configuration this deployment runs.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The wired topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of completed rounds.
    pub fn rounds_run(&self) -> u64 {
        self.round
    }

    /// The tick the next round will start at.
    pub fn next_round_start(&self) -> u64 {
        self.next_start
    }

    /// Ticks one round spans.
    pub fn round_ticks(&self) -> u64 {
        self.cfg.round_ticks()
    }

    /// Network traffic statistics.
    pub fn net_stats(&self) -> &MessageStats {
        self.net.stats()
    }

    /// The validity oracle (for experiment scoring).
    pub fn oracle(&self) -> &Rc<RefCell<ValidityOracle>> {
        &self.oracle
    }

    /// Installs an observability hub on the network kernel and every
    /// node, and declares node roles on it. Until this runs the
    /// deployment carries the default disabled hub and pays nothing.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        let l = self.provider_actors as usize;
        let n = self.cfg.collectors as usize;
        let m = self.cfg.governors as usize;
        let mut roles = Vec::with_capacity(l + n + m);
        roles.extend(std::iter::repeat_n(Role::Provider, l));
        roles.extend(std::iter::repeat_n(Role::Collector, n));
        roles.extend(std::iter::repeat_n(Role::Governor, m));
        obs.set_roles(roles);
        self.net.set_obs(Rc::clone(&obs));
        for idx in 0..self.net.node_count() {
            match self.net.node_mut(idx) {
                NodeActor::Provider(p) => p.set_obs(Rc::clone(&obs)),
                NodeActor::Collector(c) => c.set_obs(Rc::clone(&obs), idx as u64),
                NodeActor::Governor(g) => g.set_obs(Rc::clone(&obs)),
            }
        }
        self.obs = obs;
        self.crypto_stats_base = prb_crypto::stats::snapshot();
    }

    /// The observability hub (disabled unless [`Driver::set_obs`]
    /// installed one).
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Flushes the trace sink and renders the end-of-run summary:
    /// event counts per kind, then phase-latency percentiles in sim
    /// ticks. Empty when tracing is off.
    pub fn obs_summary(&self) -> String {
        if self.obs.is_enabled() {
            // Export the run's modexp hot-path activity (see
            // `prb_crypto::stats`): deltas of the process-wide counters
            // since the hub was installed.
            let d = prb_crypto::stats::snapshot().delta_since(&self.crypto_stats_base);
            let m = self.obs.metrics();
            m.add("crypto.modexp_calls", d.modexp_calls);
            m.add("crypto.multi_pow_calls", d.multi_pow_calls);
            m.add("crypto.table_builds", d.table_builds);
            m.add("crypto.table_pows", d.table_pows);
            m.add("crypto.batch.calls", d.batch_calls);
            m.add("crypto.batch.items", d.batch_items);
            m.add("crypto.batch.bisect_steps", d.batch_bisect_steps);
            m.add("crypto.batch.fallback_items", d.batch_fallback_items);
        }
        self.obs.flush();
        let mut out = self.obs.summary();
        if self.obs.is_enabled() {
            // Wall-clock phase attribution: how much of each round's real
            // time the crypto (verify-pool batches + VRF) accounted for.
            let m = self.obs.metrics();
            let round_ns = m.counter("wall.round_ns");
            let rounds = m.counter("wall.rounds");
            if round_ns > 0 && rounds > 0 {
                let crypto_ns = m.counter("wall.crypto_ns").min(round_ns);
                let other_ns = round_ns - crypto_ns;
                let pct = 100.0 * crypto_ns as f64 / round_ns as f64;
                out.push_str("\n## wall-clock phase profile\n");
                out.push_str(&format!(
                    "rounds {rounds}  avg round {:.2} ms  crypto {:.2} ms ({pct:.1}%)  non-crypto {:.2} ms\n",
                    round_ns as f64 / rounds as f64 / 1e6,
                    crypto_ns as f64 / rounds as f64 / 1e6,
                    other_ns as f64 / rounds as f64 / 1e6,
                ));
            }
        }
        out
    }

    /// Governor `g`'s state (chain, reputation, metrics, pool stats).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn governor(&self, g: u32) -> &GovernorNode {
        assert!(g < self.cfg.governors, "governor {g} out of range");
        self.net
            .node(self.governor_net_index(g))
            .as_governor()
            .expect("index is a governor")
    }

    /// Governor `g`'s metrics (shorthand).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn metrics(&self, g: u32) -> &GovernorMetrics {
        self.governor(g).metrics()
    }

    /// Collector `c`'s node.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn collector(&self, c: u32) -> &CollectorNode {
        assert!(c < self.cfg.collectors);
        self.net
            .node(self.collector_net_index(c))
            .as_collector()
            .expect("index is a collector")
    }

    /// Whether all governors hold identical chains (the Agreement
    /// property).
    pub fn chains_agree(&self) -> bool {
        self.chains_agree_among(&(0..self.cfg.governors).collect::<Vec<_>>())
    }

    /// Agreement restricted to a subset of governors (used when some have
    /// been crash-faulted: the property only covers live replicas).
    ///
    /// # Panics
    ///
    /// Panics if `governors` is empty or contains an out-of-range index.
    pub fn chains_agree_among(&self, governors: &[u32]) -> bool {
        let reference = self.governor(governors[0]).chain();
        governors[1..].iter().all(|&g| {
            let other = self.governor(g).chain();
            // `head_hash` is total (the anchor hash for a freshly
            // checkpoint-anchored chain), so agreement also covers
            // governors that re-anchored via state-sync.
            other.height() == reference.height() && other.head_hash() == reference.head_hash()
        })
    }

    /// Prefix agreement: every listed governor's chain is byte-identical
    /// to the others' up to the shortest height (the safety invariant
    /// under faults — a lagging replica may be short, never divergent).
    ///
    /// # Panics
    ///
    /// Panics if `governors` is empty or contains an out-of-range index.
    pub fn chains_prefix_agree(&self, governors: &[u32]) -> bool {
        let reference = self.governor(governors[0]).chain();
        let min_height = governors
            .iter()
            .map(|&g| self.governor(g).chain().height())
            .min()
            .expect("at least one governor");
        // A checkpoint-anchored chain holds no blocks below its base:
        // the comparable window starts at the highest base among the
        // listed governors (the certified prefix below it is vouched for
        // by the checkpoint quorum, not by block-by-block comparison).
        let lo = governors
            .iter()
            .map(|&g| self.governor(g).chain().base().max(1))
            .max()
            .expect("at least one governor");
        governors[1..].iter().all(|&g| {
            let other = self.governor(g).chain();
            (lo..=min_height).all(|serial| {
                match (reference.retrieve(serial), other.retrieve(serial)) {
                    (Some(a), Some(b)) => a.hash() == b.hash(),
                    _ => false,
                }
            })
        })
    }

    /// Installs a fault plan on the underlying network. Node indices in
    /// the plan are network indices (see [`Driver::governor_net_index`]).
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.net.set_faults(faults);
    }

    /// The network index of governor `g` (for fault plans).
    pub fn governor_net_index(&self, g: u32) -> NodeIdx {
        net_index(u64::from(self.provider_actors) + u64::from(self.cfg.collectors) + u64::from(g))
    }

    /// The network index of collector `c` (for fault plans).
    pub fn collector_net_index(&self, c: u32) -> NodeIdx {
        net_index(u64::from(self.provider_actors) + u64::from(c))
    }

    /// Advances the network `ticks` past the end of the last round
    /// without starting new rounds, so in-flight retransmissions, acks
    /// and sync pages can land. The final round's block is otherwise
    /// still mid-dissemination at cutoff — a slow peer would read one
    /// short of the head through no fault of the recovery machinery.
    pub fn settle(&mut self, ticks: u64) {
        self.net.run_until(SimTime(self.next_start + ticks));
        self.next_start += ticks;
    }

    /// Sends `msg` from outside the deployment to every governor at `at`.
    fn send_governors(&mut self, kind: &'static str, msg: ProtocolMsg, at: SimTime) {
        for g in 0..self.cfg.governors {
            self.net
                .send_external(self.governor_net_index(g), kind, msg.clone(), at);
        }
    }

    /// Opens the next round: advances the round counter (and the obs
    /// round tag) and the round window; returns `(round, t0)`.
    pub(crate) fn begin_round(&mut self) -> (u64, u64) {
        self.round += 1;
        self.obs.set_round(self.round);
        let t0 = self.next_start;
        self.next_start = t0 + self.cfg.round_ticks();
        (self.round, t0)
    }

    /// The round skeleton every tier runs once [`Driver::begin_round`]
    /// opened the window at `t0`: start-round to the governors (they run
    /// the election), then `load`'s share to collectors and providers,
    /// then propose-block at `t0 + collect_ticks + 4Δ + aggregation + 10`
    /// (`collect_ticks` is the closed loop's collecting phase), then
    /// the network runs to the window end. Returns the governor-0
    /// serials committed since the last call.
    pub(crate) fn play_round(
        &mut self,
        round: u64,
        t0: u64,
        load: Load,
        collect_ticks: u64,
    ) -> RangeInclusive<u64> {
        let at = SimTime(t0);
        self.send_governors("start-round", ProtocolMsg::StartRound { round }, at);
        if !matches!(load, Load::Drain) {
            // Collectors learn the round number (sleeper profiles) and
            // drain any open-loop mempool.
            for c in 0..self.cfg.collectors {
                let idx = self.collector_net_index(c);
                self.net
                    .send_external(idx, "start-round", ProtocolMsg::StartRound { round }, at);
            }
        }
        if let Load::Batches(batches) = load {
            for (p, txs) in batches.into_iter().enumerate() {
                self.net.send_external(
                    p,
                    "start-collect",
                    ProtocolMsg::StartCollect { round, txs },
                    at,
                );
            }
        }
        // Processing phase close: the leader packs the block.
        let propose_at =
            t0 + collect_ticks + 4 * self.cfg.max_delay + self.cfg.aggregation_window() + 10;
        self.send_governors(
            "propose-block",
            ProtocolMsg::ProposeBlock { round },
            SimTime(propose_at),
        );
        self.net.run_until(SimTime(self.next_start));
        let first = self.observed_height + 1;
        self.observed_height = self.observed_height.max(self.governor(0).chain().height());
        first..=self.observed_height
    }
}

/// Builder for a [`Simulation`].
pub struct SimulationBuilder {
    cfg: ProtocolConfig,
    workload: Option<Box<dyn Workload>>,
    collector_profiles: Vec<CollectorProfile>,
    provider_profiles: Vec<ProviderProfile>,
}

impl fmt::Debug for SimulationBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl SimulationBuilder {
    /// Overrides the workload (default: [`UniformWorkload`] driven by the
    /// provider profiles' invalid rates).
    pub fn workload(mut self, workload: Box<dyn Workload>) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Sets all collector profiles at once.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the configured collector count.
    pub fn collector_profiles(mut self, profiles: Vec<CollectorProfile>) -> Self {
        assert_eq!(
            profiles.len(),
            self.cfg.collectors as usize,
            "need one profile per collector"
        );
        self.collector_profiles = profiles;
        self
    }

    /// Sets the profile of one collector.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn collector_profile(mut self, index: u32, profile: CollectorProfile) -> Self {
        self.collector_profiles[index as usize] = profile;
        self
    }

    /// Sets all provider profiles at once.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the configured provider count.
    pub fn provider_profiles(mut self, profiles: Vec<ProviderProfile>) -> Self {
        assert_eq!(
            profiles.len(),
            self.cfg.providers as usize,
            "need one profile per provider"
        );
        self.provider_profiles = profiles;
        self
    }

    /// Sets the profile of one provider.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn provider_profile(mut self, index: u32, profile: ProviderProfile) -> Self {
        self.provider_profiles[index as usize] = profile;
        self
    }

    /// Builds the simulation.
    ///
    /// # Errors
    ///
    /// Returns a description of any invalid configuration.
    pub fn build(self) -> Result<Simulation, String> {
        let (cfg, provider_profiles) = (self.cfg, self.provider_profiles);
        let workload = self.workload.unwrap_or_else(|| {
            Box::new(UniformWorkload {
                invalid_rates: provider_profiles.iter().map(|p| p.invalid_rate).collect(),
                payload_len: 32,
            })
        });
        let tier = ActorProviders {
            workload,
            driver_rng: StdRng::seed_from_u64(
                cfg.driver_seed
                    .unwrap_or(cfg.seed)
                    .wrapping_add(0x5151_5151),
            ),
            stake_nonces: vec![0; cfg.governors as usize],
            reveal_scheduled: HashSet::new(),
            collector_live: vec![true; cfg.collectors as usize],
            pending_churn: Vec::new(),
            observed_member_certs: 0,
            churn_inflight: HashSet::new(),
        };
        let l = cfg.providers;
        Driver::assemble(cfg, self.collector_profiles, |im| {
            let actors = (0..l)
                .zip(provider_profiles)
                .map(|(p, profile)| Ok((im.enroll(NodeId::provider(p))?, profile)))
                .collect::<Result<_, IdentityError>>()
                .map_err(|e| e.to_string())?;
            Ok(ProviderWiring {
                tier,
                actors,
                pool: None,
            })
        })
    }
}

/// The closed-loop provider tier: one actor and one enrolled keypair per
/// provider, fed by the driver-owned workload, plus the driver's reveal
/// and membership-churn bookkeeping.
pub struct ActorProviders {
    workload: Box<dyn Workload>,
    driver_rng: StdRng,
    stake_nonces: Vec<u64>,
    /// Transactions already scheduled for reveal (argue may race; the
    /// governor dedupes, this only avoids duplicate events).
    reveal_scheduled: HashSet<TxId>,
    /// Driver's view of which collectors are live (E17 churn): departed
    /// collectors generate no uploads and providers skip them.
    collector_live: Vec<bool>,
    /// Certified collector transitions not yet at their effective round.
    pending_churn: Vec<PendingChurn>,
    /// Cursor into governor 0's membership-certificate log (how many
    /// certs the driver has already mirrored).
    observed_member_certs: usize,
    /// Collectors with a membership request in flight (drawn or
    /// submitted, not yet applied) — suppresses duplicate draws.
    churn_inflight: HashSet<u32>,
}

impl fmt::Debug for ActorProviders {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActorProviders")
            .field("collector_live", &self.collector_live)
            .finish_non_exhaustive()
    }
}

/// Driver-side record of a certified collector transition awaiting its
/// effective round (mirrored from governor 0's certificate log so the
/// collector/provider actors change behaviour in lockstep with the
/// committee's view).
#[derive(Clone, Copy, Debug)]
struct PendingChurn {
    effective_round: u64,
    collector: u32,
    activate: bool,
}

/// The closed-loop deployment: provider actors driven by a workload.
pub type Simulation = Driver<ActorProviders>;

impl Driver<ActorProviders> {
    /// Starts building a simulation for `cfg`.
    pub fn builder(cfg: ProtocolConfig) -> SimulationBuilder {
        let collectors = cfg.collectors as usize;
        let providers = cfg.providers as usize;
        SimulationBuilder {
            cfg,
            workload: None,
            collector_profiles: vec![CollectorProfile::honest(); collectors],
            provider_profiles: vec![ProviderProfile::default(); providers],
        }
    }

    /// A simulation with all-honest nodes and the default workload.
    ///
    /// # Errors
    ///
    /// Returns a description of any invalid configuration.
    pub fn new(cfg: ProtocolConfig) -> Result<Self, String> {
        Self::builder(cfg).build()
    }

    /// Provider `p`'s node.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn provider(&self, p: u32) -> &ProviderNode {
        assert!(p < self.cfg.providers);
        self.net
            .node(self.provider_net_index(p))
            .as_provider()
            .expect("index is a provider")
    }

    /// The network index of provider `p` (for fault plans).
    pub fn provider_net_index(&self, p: u32) -> NodeIdx {
        p as NodeIdx
    }

    /// Submits a stake transfer on behalf of governor `from`, broadcast to
    /// every governor at the end of the current round (§3.4.3: stake
    /// movements are settled in the round's stake-transform block; the
    /// next round's election uses the new weights).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown governor indices; balance/nonce
    /// violations surface as the transfer simply not applying (each
    /// governor validates independently, exactly like a live deployment).
    pub fn submit_stake_transfer(&mut self, from: u32, to: u32, amount: u64) -> Result<(), String> {
        let key = self
            .governor_keys
            .get(from as usize)
            .ok_or_else(|| format!("unknown governor g{from}"))?;
        if to >= self.cfg.governors {
            return Err(format!("unknown governor g{to}"));
        }
        let nonce = self.tier.stake_nonces[from as usize];
        self.tier.stake_nonces[from as usize] += 1;
        let transfer = StakeTransfer::create(from, to, amount, nonce, key);
        let at = SimTime(self.next_start);
        self.send_governors("stake-transfer", ProtocolMsg::StakeTransfer(transfer), at);
        Ok(())
    }

    /// Submits a subject-signed membership request (join, voluntary
    /// leave, or an externally scripted eviction) to every governor,
    /// delivered at the start of the next round. The transition takes
    /// effect two rounds later, once a governor quorum certifies it
    /// (E17 dynamic membership).
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range members, or when churn is
    /// disabled in the config (governors drop membership traffic then).
    pub fn submit_membership(
        &mut self,
        role: MemberRole,
        member: u32,
        action: MembershipAction,
    ) -> Result<(), String> {
        if !self.cfg.churn_enabled() {
            return Err(
                "membership churn is disabled (set a join/leave rate or decay half-life)".into(),
            );
        }
        let in_range = match role {
            MemberRole::Collector => member < self.cfg.collectors,
            MemberRole::Governor => member < self.cfg.governors,
        };
        if !in_range {
            return Err(format!("unknown {role:?} member {member}"));
        }
        let effective = self.round + 2;
        let req = if action == MembershipAction::Evict {
            MembershipRequest::evict(role, member, effective)
        } else {
            let bond = u64::from(action == MembershipAction::Join);
            let key = match role {
                MemberRole::Collector => &self.collector_keys[member as usize],
                MemberRole::Governor => &self.governor_keys[member as usize],
            };
            MembershipRequest::create(role, member, action, bond, effective, key)
        };
        if role == MemberRole::Collector {
            self.tier.churn_inflight.insert(member);
        }
        let at = SimTime(self.next_start);
        self.send_governors("membership", ProtocolMsg::Membership(Box::new(req)), at);
        Ok(())
    }

    /// Driver's view of whether collector `c` is currently live.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn collector_is_live(&self, c: u32) -> bool {
        self.tier.collector_live[c as usize]
    }

    /// Live collectors in ascending order (driver's view).
    pub fn live_collectors(&self) -> Vec<u32> {
        (0..self.cfg.collectors)
            .filter(|&c| self.tier.collector_live[c as usize])
            .collect()
    }

    /// Pulls membership certificates governor 0 formed since the last
    /// mirror into the driver's pending queue. The certificate log — not
    /// the driver's own submissions — is the source of truth, so
    /// governor-originated evictions flip the actors too.
    fn mirror_member_certs(&mut self) {
        let certs = self.governor(0).membership_certs();
        let seen = certs.len();
        // Governor transitions live entirely inside the governor actors
        // (quorums, election, gossip); no driver-side behaviour change.
        let due: Vec<PendingChurn> = certs[self.tier.observed_member_certs..]
            .iter()
            .filter(|c| c.request.role == MemberRole::Collector)
            .map(|c| PendingChurn {
                effective_round: c.request.effective_round,
                collector: c.request.member,
                activate: c.request.action == MembershipAction::Join,
            })
            .collect();
        self.tier.observed_member_certs = seen;
        self.tier.pending_churn.extend(due);
    }

    /// Applies certified collector transitions due at `round`: flips the
    /// collector actor (mempool cleared, retries purged) and tells every
    /// linked provider to skip (or resume) the fan-out — the same round
    /// boundary at which governors apply the certificate.
    fn apply_due_churn(&mut self, round: u64) {
        if self.tier.pending_churn.is_empty() {
            return;
        }
        let (mut due, later): (Vec<PendingChurn>, Vec<PendingChurn>) = self
            .tier
            .pending_churn
            .iter()
            .partition(|p| p.effective_round <= round);
        self.tier.pending_churn = later;
        due.sort_by_key(|p| (p.effective_round, p.collector, p.activate));
        let topology = Rc::clone(&self.topology);
        for p in due {
            let c = p.collector;
            self.tier.collector_live[c as usize] = p.activate;
            self.tier.churn_inflight.remove(&c);
            let c_net = self.collector_net_index(c);
            if let NodeActor::Collector(node) = self.net.node_mut(c_net) {
                node.set_active(p.activate);
            }
            for &prov in topology.providers_of(c) {
                if let NodeActor::Provider(node) = self.net.node_mut(prov as NodeIdx) {
                    node.set_collector_active(c_net, p.activate);
                }
            }
        }
    }

    /// Draws this round's rate-driven join/leave requests from the
    /// driver RNG: each live collector leaves with probability
    /// `leave_rate`, each departed one rejoins with probability
    /// `join_rate`. A live-count floor keeps strictly more than half the
    /// collectors active so screening always has a quorum of experts.
    fn draw_churn(&mut self, round: u64, at: SimTime) {
        if self.cfg.join_rate <= 0.0 && self.cfg.leave_rate <= 0.0 {
            return;
        }
        let n = self.cfg.collectors;
        let floor = n as usize / 2 + 1;
        let mut committed_live = (0..n)
            .filter(|&c| {
                self.tier.collector_live[c as usize] && !self.tier.churn_inflight.contains(&c)
            })
            .count();
        for c in 0..n {
            if self.tier.churn_inflight.contains(&c) {
                continue;
            }
            let (action, bond) = if self.tier.collector_live[c as usize] {
                if self.cfg.leave_rate <= 0.0
                    || committed_live <= floor
                    || self.tier.driver_rng.gen::<f64>() >= self.cfg.leave_rate
                {
                    continue;
                }
                committed_live -= 1;
                (MembershipAction::Leave, 0)
            } else {
                if self.cfg.join_rate <= 0.0
                    || self.tier.driver_rng.gen::<f64>() >= self.cfg.join_rate
                {
                    continue;
                }
                (MembershipAction::Join, 1)
            };
            self.tier.churn_inflight.insert(c);
            let key = &self.collector_keys[c as usize];
            let req =
                MembershipRequest::create(MemberRole::Collector, c, action, bond, round + 2, key);
            self.send_governors("membership", ProtocolMsg::Membership(Box::new(req)), at);
        }
    }

    /// Runs one full protocol round; returns what was committed.
    pub fn run_round(&mut self) -> RoundOutcome {
        // Wall-clock profile: `wall.round_ns` is the whole round;
        // `wall.crypto_ns` (fed at the verify-pool and VRF call sites)
        // splits out the crypto share, so non-crypto = round − crypto.
        let wall = self.obs.is_enabled().then(std::time::Instant::now);
        let outcome = self.closed_round(true);
        if let Some(wall) = wall {
            self.obs
                .add_counter("wall.round_ns", wall.elapsed().as_nanos() as u64);
            self.obs.add_counter("wall.rounds", 1);
        }
        outcome
    }

    /// Runs `rounds` rounds (only `rounds`: follow with
    /// [`Driver::run_drain_rounds`] to let scheduled reveals and argues
    /// land).
    pub fn run(&mut self, rounds: u32) -> Vec<RoundOutcome> {
        (0..rounds).map(|_| self.run_round()).collect()
    }

    /// Runs rounds that carry no new transactions, letting in-flight
    /// argues and reveals settle (blocks may still commit argued
    /// re-records).
    pub fn run_drain_rounds(&mut self, rounds: u32) {
        for _ in 0..rounds {
            self.closed_round(false);
        }
    }

    /// One closed-loop round: a load round hands every provider its
    /// generated batch; a drain round starts only the governors.
    fn closed_round(&mut self, load: bool) -> RoundOutcome {
        let (round, t0) = self.begin_round();
        // E17 dynamic membership: mirror transitions the committee
        // certified in earlier rounds, flip actors for the ones due now
        // (the same boundary at which governors apply them), then draw
        // this round's rate-driven join/leave requests. Drain rounds draw
        // no new churn (the workload is closed; the committee settles).
        if self.cfg.churn_enabled() {
            self.mirror_member_certs();
            self.apply_due_churn(round);
            if load {
                self.draw_churn(round, SimTime(t0));
            }
        }
        let (load, collect_ticks) = if load {
            let tier = &mut self.tier;
            let batches = (0..self.cfg.providers)
                .map(|p| {
                    (0..self.cfg.tx_per_provider)
                        .map(|_| tier.workload.next_tx(p, round, &mut tier.driver_rng))
                        .collect()
                })
                .collect();
            (
                Load::Batches(batches),
                u64::from(self.cfg.tx_per_provider) * 2,
            )
        } else {
            (Load::Drain, 0)
        };
        let serials = self.play_round(round, t0, load, collect_ticks);

        let mut outcome = RoundOutcome {
            round,
            leader: self.governor(0).current_leader(),
            block_serial: None,
            txs_in_block: 0,
        };
        for serial in serials {
            let verdicts: Vec<(TxId, Verdict)> = self
                .governor(0)
                .chain()
                .retrieve(serial)
                .expect("no skipping")
                .entries
                .iter()
                .map(|e| (e.tx.id(), e.verdict))
                .collect();
            outcome.block_serial = Some(serial);
            outcome.txs_in_block = verdicts.len();
            // Providers retrieve the block (BlockNotify) at the start of
            // the next round.
            let notify_at = SimTime(self.next_start);
            for p in 0..self.cfg.providers {
                self.net.send_external(
                    self.provider_net_index(p),
                    "block-notify",
                    ProtocolMsg::BlockNotify {
                        serial,
                        verdicts: verdicts.clone(),
                    },
                    notify_at,
                );
            }
            // Schedule reveals per policy.
            self.schedule_reveals(&verdicts);
        }
        outcome
    }

    fn schedule_reveals(&mut self, verdicts: &[(TxId, Verdict)]) {
        let (reveal, lag_rounds) = match self.cfg.reveal {
            RevealPolicy::ArgueOnly => return,
            RevealPolicy::AfterRounds(k) => (1.0, k),
            RevealPolicy::Probabilistic { prob, rounds } => (prob, rounds),
        };
        let at = SimTime(self.next_start + lag_rounds as u64 * self.cfg.round_ticks());
        for (tx, verdict) in verdicts {
            if !matches!(verdict, Verdict::UncheckedInvalid | Verdict::UncheckedValid) {
                continue;
            }
            if !self.tier.reveal_scheduled.insert(*tx) {
                continue;
            }
            if reveal < 1.0 && self.tier.driver_rng.gen::<f64>() >= reveal {
                continue;
            }
            let valid = self.oracle.borrow().peek(*tx).unwrap_or(false);
            self.send_governors("reveal", ProtocolMsg::Reveal { tx: *tx, valid }, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_index_survives_u32_overflowing_tier_sums() {
        // Regression for the `(l + c) as NodeIdx` truncation class (the
        // PR 3 `b_limit` bug's sibling): tier offsets are summed in u64,
        // so sums past u32::MAX stay exact instead of wrapping into a
        // small — and therefore valid-looking — node index.
        let l = u32::MAX;
        let c = 7u32;
        assert_eq!(net_index(l as u64 + c as u64), u32::MAX as usize + 7);
        // Identity on the small values every real deployment uses.
        assert_eq!(net_index(0), 0);
        assert_eq!(net_index(1_000_000 + 64 + 4), 1_000_068);
    }

    #[test]
    fn tier_index_accessors_agree_with_layout() {
        // Providers occupy 0..l, collectors l..l+n, governors l+n..l+n+m.
        let cfg = ProtocolConfig::default();
        let sim = Simulation::new(cfg.clone()).unwrap();
        let l = cfg.providers as usize;
        let n = cfg.collectors as usize;
        assert_eq!(sim.provider_net_index(0), 0);
        assert_eq!(sim.collector_net_index(0), l);
        assert_eq!(sim.governor_net_index(0), l + n);
        assert_eq!(
            sim.governor_net_index(cfg.governors - 1),
            l + n + cfg.governors as usize - 1
        );
    }
}
