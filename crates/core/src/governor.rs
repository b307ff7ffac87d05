//! The governor role (§3.4 — Processing phase).
//!
//! Implements, per governor:
//!
//! - **Transaction screening** (Algorithm 2): per-transaction Δ aggregation
//!   timers, the weighted source draw, the `1 − f·Pr` validation coin,
//!   recording of checked-valid / unchecked transactions;
//! - **Reputation updating** (Algorithm 3): forgery (case 1), checked
//!   (case 2) and revealed-unchecked (case 3) updates on its local
//!   [`ReputationTable`];
//! - **Argue handling** with the `U` latency bound (§3.1/§4.2);
//! - **PoS-VRF leader election** message exchange and **block
//!   proposal/adoption** with chain-integrity checks;
//! - **Revenue distribution** to collectors when leading (§3.4.3);
//! - Loss accounting for the regret experiments (Theorems 1 and 4).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use prb_consensus::checkpoint::{
    quorum, CheckpointCert, CheckpointError, CheckpointShare, CheckpointState, CollectorSnapshot,
};
use prb_consensus::election::{elect_excluding, ElectionClaim};
use prb_consensus::evidence::{EquivocationEvidence, SignedHeader};
use prb_consensus::membership::{
    EpochLog, MemberRole, MembershipAction, MembershipCert, MembershipRequest, MembershipShare,
};
use prb_consensus::stake::{StakeTable, StakeTransfer};
use prb_consensus::verify_pool::VerifyPool;
use prb_crypto::identity::NodeId;
use prb_crypto::sha256::Digest;
use prb_crypto::signer::{KeyPair, PublicKey, Sig};
use prb_ledger::block::{Block, BlockEntry, Verdict};
use prb_ledger::chain::{Chain, ChainError};
use prb_ledger::oracle::ValidityOracle;
use prb_ledger::transaction::{Label, LabeledTx, SignedTx, TxId, TxPayload};
use prb_net::health::PeerHealth;
use prb_net::message::{Envelope, NodeIdx, TimerId};
use prb_net::order::{ChannelId, OrderedInbox};
use prb_net::retry::{ReliableSender, RetryConfig};
use prb_net::sim::Context;
use prb_net::time::{SimDuration, SimTime};
use prb_net::topology::Topology;
use prb_obs::fxhash::{fx_map_seeded, fx_set_seeded, FxMap, FxSet};
use prb_obs::{phases, EventKind as ObsEvent, Obs, ObsHandle, Span};
use prb_reputation::screening::{screen, Report};
use prb_reputation::update::{RevealedBehaviour, RevealedReport};
use prb_reputation::{revenue, ReputationTable, ReputationVector, TransitiveView};
use prb_store::{BlockStore, Recovered};

use crate::behavior::{ByzantineMode, GovernorProfile};
use crate::config::{GovernorMode, ProtocolConfig};
use crate::metrics::GovernorMetrics;
use crate::msg::ProtocolMsg;

/// How a screened transaction was resolved locally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    /// Validated by this governor; ground truth attached.
    Checked {
        /// The validation result.
        valid: bool,
    },
    /// Skipped validation; recorded under the drawn label.
    Unchecked {
        /// The label the block records.
        recorded: Label,
        /// Index in this provider's unchecked sequence (for the U bound).
        index: u64,
    },
}

/// Everything the governor remembers about one transaction.
#[derive(Clone, Debug)]
struct TxRecord {
    ltx: LabeledTx,
    provider: u32,
    reports: Vec<(u32, Label)>,
    /// Linked collectors that were not active members when the tx was
    /// screened. They owed no report, so a later reveal must not charge
    /// them a Missed loss — even if they have since (re)joined.
    absent: Vec<u32>,
    outcome: Outcome,
}

/// A transaction still inside its Δ aggregation window.
/// Entry cap for the provider-signature memo; the map is cleared when it
/// fills. 8192 entries (~100 bytes each) keep the governor's footprint
/// bounded however long the run.
const SIG_MEMO_MAX: usize = 8192;

/// Peer rotations before an anti-entropy sync round is abandoned (the
/// next observed gap re-triggers it).
const MAX_SYNC_ATTEMPTS: u32 = 8;

/// Distinct membership requests whose shares may buffer concurrently;
/// past this the governor ignores new digests (request-spam bound).
const MEMBER_SHARE_BUFFERS: usize = 64;

/// Mean-weight level at which a silence-decayed collector is proposed
/// for eviction (the configured `weight_floor` when it is higher).
const EVICTION_FLOOR: f64 = 1e-3;

/// Anti-entropy recovery status: crashed → recovering → synced.
///
/// A node cannot observe its own crash window; what it observes is the
/// *evidence* of one — a round-number gap or a block past the next
/// serial. Either moves it to `Recovering`, where it pages missing
/// blocks from a peer (rotating peers that do not answer) until it
/// reaches a peer's head, then returns to `Synced`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SyncState {
    /// No known gap; the chain is believed current.
    Synced,
    /// Actively requesting missing block ranges.
    Recovering {
        /// Peer-rotation counter (resets on page progress).
        attempt: u32,
        /// Governor index currently being asked.
        peer: u32,
        /// Tick the gap was detected, for the recovery-time metric.
        since: u64,
    },
}

#[derive(Clone, Debug)]
struct PendingTx {
    ltx: LabeledTx,
    provider: u32,
    reports: Vec<(u32, Label)>,
    /// The provider signature each reporter's copy carried. Copies share
    /// the tx id (it binds the signed payload) but a malicious relay can
    /// attach a different signature, so verdicts are per copy.
    sigs: Vec<(u32, Sig)>,
}

/// Governor actor state.
pub struct GovernorNode {
    index: u32,
    key: KeyPair,
    cfg: ProtocolConfig,
    topology: Rc<Topology>,
    oracle: Rc<RefCell<ValidityOracle>>,
    /// Network index of governor 0 (governors are contiguous).
    governor_base: NodeIdx,
    collector_pks: Vec<PublicKey>,
    provider_pks: Vec<PublicKey>,
    /// Scale-mode signer pool: when `provider_pks` does not cover a
    /// provider index (interned providers carry no per-provider keypair),
    /// provider `p` resolves to `pk_pool[p % pool.len()]`. Empty outside
    /// the open-loop scale harness.
    pk_pool: Vec<PublicKey>,
    governor_pks: Vec<PublicKey>,
    stake_table: StakeTable,
    reputation: ReputationTable,
    chain: Chain,
    inbox: OrderedInbox<LabeledTx>,
    pending: FxMap<TxId, PendingTx>,
    /// Δ-window insertion order of `pending` ids, for deterministic
    /// oldest-first shedding when the pool hits
    /// [`ProtocolConfig::pending_capacity`]. May hold stale ids (screened
    /// transactions are not removed eagerly); compacted lazily.
    pending_order: VecDeque<TxId>,
    /// Largest `pending` population ever reached (bounded-memory assert).
    pending_high_water: usize,
    /// Transactions shed from the pending pool, oldest first.
    shed: u64,
    timers: FxMap<TimerId, TxId>,
    history: FxMap<TxId, TxRecord>,
    revealed: FxSet<TxId>,
    unchecked_counter: FxMap<u32, u64>,
    /// Screened entries awaiting inclusion in a block.
    ready_entries: Vec<BlockEntry>,
    /// Accepted argues awaiting re-recording.
    argued_entries: Vec<BlockEntry>,
    /// Blocks that arrived ahead of a gap, parked until sync completes.
    future_blocks: Vec<Block>,
    round: u64,
    claims: Vec<ElectionClaim>,
    leader: Option<u32>,
    /// This governor's own VRF claim for the current round, attached to
    /// its block proposal so peers can rank it during head-fork
    /// resolution.
    my_claim: Option<ElectionClaim>,
    /// Priority of the proposal that produced the chain head, as
    /// `(vrf_output, governor, round)` — the election's ordering key
    /// plus the round it was won in. `None` for settled heads (genesis,
    /// sync-applied blocks, or heads with a committed successor), which
    /// can never be displaced.
    head_priority: Option<(Digest, u32, u64)>,
    /// Serial of the lowest contiguous head block that is this
    /// governor's own self-proposal elected *without* the full claim
    /// set. Such blocks are provisional — the true winner's claim may
    /// have been lost in transit — and are rolled back when a rival
    /// proposal with a smaller election key arrives, when a successor
    /// built on a different head proves the network chose otherwise, or
    /// when recovery refetches the settled chain.
    provisional_base: Option<u64>,
    metrics: GovernorMetrics,
    obs: ObsHandle,
    /// Memoized provider-signature verdicts, keyed by
    /// `(provider, tx id, signature)`.
    sig_memo: FxMap<(u32, TxId, Sig), bool>,
    /// Provider signatures awaiting the next batched drain: copies whose
    /// verdict the memo does not know yet, as `(provider, tx id,
    /// signature, signed bytes)`.
    verify_queue: Vec<(u32, TxId, Sig, Vec<u8>)>,
    /// Dedupe set over the queue's `(provider, tx id, signature)` keys.
    queued: FxSet<(u32, TxId, Sig)>,
    /// Drains accumulated verifications as RLC batches, optionally across
    /// worker threads (`ProtocolConfig::verify_threads`).
    verify_pool: VerifyPool,
    /// Open per-transaction Δ-window screening spans.
    screen_spans: FxMap<TxId, Span>,
    /// Screening tick of still-unchecked transactions (reveal/argue spans).
    screened_at: FxMap<TxId, u64>,
    election_span: Option<Span>,
    proposal_span: Option<Span>,
    commit_span: Option<Span>,
    /// Ack-based retransmission for block dissemination (None = off).
    retry: Option<ReliableSender<ProtocolMsg>>,
    /// Anti-entropy recovery state machine.
    sync: SyncState,
    /// Timers driving sync peer rotation, as `(attempt, height when
    /// armed)` — a fire with stale values means progress happened and is
    /// ignored.
    sync_timers: HashMap<TimerId, (u32, u64)>,
    /// Open recovery span (crash-recovery latency in the trace).
    recovery_span: Option<Span>,
    /// This governor's (mis)behaviour profile — honest by default,
    /// byzantine modes are injected via `ProtocolConfig::governor_profiles`.
    profile: GovernorProfile,
    /// First signed proposal header seen per `(proposer, serial)`, with
    /// the tick it arrived — the baseline for detection-latency spans.
    seen_headers: HashMap<(u32, u64), (SignedHeader, u64)>,
    /// `(proposer, serial, block hash)` triples already echoed, so each
    /// distinct header is re-gossiped exactly once.
    echoed: HashSet<(u32, u64, Digest)>,
    /// Governors this node has expelled from its committee view, each
    /// backed by verified equivocation evidence (sorted).
    expelled: Vec<u32>,
    /// Durable block store mirroring every chain mutation (`None` keeps
    /// the ledger purely in memory, the pre-E16 behaviour).
    store: Option<BlockStore>,
    /// Latest quorum-signed checkpoint certificate this node holds —
    /// assembled from peer shares, adopted from a sync peer, or
    /// recovered from the durable store.
    latest_cert: Option<CheckpointCert>,
    /// Own checkpoint state snapshots awaiting quorum, by serial.
    /// Captured at the moment block `serial` commits, so the digest
    /// reflects exactly this node's stake/reputation state then.
    ckpt_pending: HashMap<u64, CheckpointState>,
    /// Signature-verified peer shares (plus this node's own) buffered
    /// per checkpoint serial until a quorum over one digest forms.
    ckpt_shares: HashMap<u64, Vec<CheckpointShare>>,
    /// Checkpoint serials committed during the current message dispatch,
    /// announced (share signed + broadcast) once the dispatch finishes.
    ckpt_to_announce: Vec<u64>,
    /// Per-collector committee standing under dynamic membership:
    /// `false` once a certified leave/evict applied. Uploads from
    /// inactive collectors are dropped, they owe no reports at reveal,
    /// and they leave the screening draw entirely.
    collector_active: Vec<bool>,
    /// Governors departed via certified membership transitions, sorted.
    /// Distinct from `expelled` (equivocation convictions): departures
    /// are voluntary or administrative and are epoch-logged so old
    /// certificates still verify against the committee of their day.
    gov_departed: Vec<u32>,
    /// Committee epoch log: serial-stamped departures and readmissions.
    /// Checkpoint-cert quorums are sized by `active_at(serial)` — the
    /// membership epoch at the cert's serial — not today's headcount.
    gov_epochs: EpochLog,
    /// Membership shares buffered per request digest until quorum, with
    /// the request itself once it has been seen.
    member_shares: HashMap<Digest, (Option<MembershipRequest>, Vec<MembershipShare>)>,
    /// Quorum-certified membership transitions, oldest first — the
    /// auditable epoch record, persisted through the durable store.
    member_certs: Vec<MembershipCert>,
    /// Certified transitions awaiting their effective round.
    member_to_apply: Vec<MembershipCert>,
    /// Advisory EigenTrust-style gossip blend of peer opinions about
    /// collector quality (never feeds consensus state).
    transitive: TransitiveView,
    /// Last-seen tracker over active collectors, driving silence decay
    /// and eviction proposals (keyed by collector index).
    health: PeerHealth,
    /// Collectors this governor already proposed to evict (dedupe).
    eviction_proposed: HashSet<u32>,
    /// Tick of the most recent verified collector upload, any channel.
    /// A round in which *nobody* spoke (drain, settle) is not evidence
    /// of individual silence, so decay skips it.
    last_upload_at: u64,
}

impl std::fmt::Debug for GovernorNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GovernorNode")
            .field("index", &self.index)
            .field("round", &self.round)
            .field("height", &self.chain.height())
            .finish_non_exhaustive()
    }
}

impl GovernorNode {
    /// Creates governor `index`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        index: u32,
        key: KeyPair,
        cfg: ProtocolConfig,
        topology: Rc<Topology>,
        oracle: Rc<RefCell<ValidityOracle>>,
        governor_base: NodeIdx,
        collector_pks: Vec<PublicKey>,
        provider_pks: Vec<PublicKey>,
        governor_pks: Vec<PublicKey>,
    ) -> Self {
        let n = cfg.collectors as usize;
        let s = cfg.s() as usize;
        let stake_table = StakeTable::uniform(cfg.governors as usize, cfg.stake_per_governor);
        let verify_pool = VerifyPool::new(cfg.verify_threads);
        let profile = cfg.governor_profile(index);
        let mut health = PeerHealth::new();
        for c in 0..n {
            health.watch(c, SimTime(0));
        }
        // Per-governor hash seed: the configured run seed, decorrelated
        // per node so no two governors share bucket layouts. Iteration
        // order of these maps must never reach consensus state — the
        // `hash_seed_never_changes_the_ledger` regression test holds the
        // line.
        let hs = cfg
            .resolved_hash_seed()
            .wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        GovernorNode {
            index,
            key,
            reputation: ReputationTable::new(n, s, cfg.reputation),
            chain: Chain::new(b"prb-chain", cfg.b_limit),
            metrics: GovernorMetrics::new(n),
            gov_epochs: EpochLog::new(cfg.governors as usize),
            // Advisory-only view: neutral 0.5 prior, moderate blend rate.
            transitive: TransitiveView::new(n, 0.5, 0.3),
            cfg,
            topology,
            oracle,
            governor_base,
            collector_pks,
            provider_pks,
            pk_pool: Vec::new(),
            governor_pks,
            stake_table,
            inbox: OrderedInbox::new(),
            pending: fx_map_seeded(hs),
            pending_order: VecDeque::new(),
            pending_high_water: 0,
            shed: 0,
            timers: fx_map_seeded(hs),
            history: fx_map_seeded(hs),
            revealed: fx_set_seeded(hs),
            unchecked_counter: fx_map_seeded(hs),
            ready_entries: Vec::new(),
            argued_entries: Vec::new(),
            future_blocks: Vec::new(),
            round: 0,
            claims: Vec::new(),
            leader: None,
            my_claim: None,
            head_priority: None,
            provisional_base: None,
            obs: Obs::off(),
            sig_memo: fx_map_seeded(hs),
            verify_queue: Vec::new(),
            queued: fx_set_seeded(hs),
            verify_pool,
            screen_spans: fx_map_seeded(hs),
            screened_at: fx_map_seeded(hs),
            election_span: None,
            proposal_span: None,
            commit_span: None,
            retry: None,
            sync: SyncState::Synced,
            sync_timers: HashMap::new(),
            recovery_span: None,
            profile,
            seen_headers: HashMap::new(),
            echoed: HashSet::new(),
            expelled: Vec::new(),
            store: None,
            latest_cert: None,
            ckpt_pending: HashMap::new(),
            ckpt_shares: HashMap::new(),
            ckpt_to_announce: Vec::new(),
            collector_active: vec![true; n],
            gov_departed: Vec::new(),
            member_shares: HashMap::new(),
            member_certs: Vec::new(),
            member_to_apply: Vec::new(),
            health,
            eviction_proposed: HashSet::new(),
            last_upload_at: 0,
        }
    }

    /// Installs an observability hub (defaults to [`Obs::off`]); the
    /// governor then emits `gov.*` events and election / proposal /
    /// screening / commit / reveal / argue / recovery phase spans.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        if let Some(r) = &mut self.retry {
            r.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// Enables reliable delivery for block dissemination.
    pub fn set_reliable(&mut self, cfg: RetryConfig) {
        self.retry = Some(ReliableSender::new(cfg));
    }

    /// Installs the scale-mode signer pool: provider indices beyond
    /// `provider_pks` resolve to `pool[p % pool.len()]`, so 10⁵–10⁶
    /// interned providers share a handful of real verification keys
    /// instead of carrying one each.
    pub fn set_pk_pool(&mut self, pool: Vec<PublicKey>) {
        self.pk_pool = pool;
    }

    /// Installs a durable block store and adopts whatever it recovered:
    /// the replayed chain replaces the fresh genesis chain, and a valid
    /// persisted checkpoint certificate restores the certified stake and
    /// reputation state (a restart then resumes from the durable prefix
    /// instead of genesis — anti-entropy sync fetches only the suffix).
    pub fn set_store(&mut self, store: BlockStore, recovered: Recovered) {
        if recovered.chain.height() > 0 || recovered.chain.is_anchored() {
            self.chain = recovered.chain;
        }
        // Replay the persisted membership log first: the committee
        // epochs must be restored before the checkpoint certificate is
        // quorum-sized against them. The certified reputation state
        // adopted below supersedes any bootstrap the replay performs.
        let members = store.load_members();
        if !members.is_empty() {
            for cert in &members {
                self.apply_member_cert(cert, 0);
            }
            self.member_certs = members;
        }
        if let Some(cert) = recovered.cert {
            let departed = self.gov_epochs.departed_at(cert.state.serial);
            if cert.verify(&self.governor_pks, &departed).is_ok() {
                self.adopt_cert_state(&cert);
                self.latest_cert = Some(cert);
            }
        }
        self.store = Some(store);
    }

    /// The latest checkpoint certificate this governor holds, if any.
    pub fn latest_cert(&self) -> Option<&CheckpointCert> {
        self.latest_cert.as_ref()
    }

    /// Restores the certified stake/reputation vectors from `cert`
    /// (already quorum-verified by the caller).
    fn adopt_cert_state(&mut self, cert: &CheckpointCert) {
        self.stake_table =
            StakeTable::from_parts(cert.state.stakes.clone(), cert.state.stake_nonces.clone());
        if !cert.state.reputation.is_empty() {
            let vectors = cert
                .state
                .reputation
                .iter()
                .map(|c| ReputationVector::from_parts(c.weights.clone(), c.misreport, c.forge))
                .collect();
            self.reputation = ReputationTable::from_vectors(vectors, self.cfg.reputation);
        }
    }

    /// Mirrors a freshly appended chain head into the durable store.
    /// Store I/O failure is fatal: a silently diverged store would defeat
    /// the crash-safety guarantee it exists to provide.
    fn store_append_head(&mut self) {
        if let Some(store) = &mut self.store {
            store
                .append(self.chain.latest())
                .expect("durable store append must mirror the chain");
        }
    }

    /// Block `serial` (a checkpoint-interval boundary) just committed:
    /// snapshot the full certified state — head hash, stake vector and
    /// nonces, reputation vectors — and queue the share announcement.
    /// Peer shares that arrived early and disagree with this digest are
    /// discarded (and counted) now that the local truth is known.
    fn capture_checkpoint(&mut self, serial: u64) {
        let Some(block_hash) = self.chain.retrieve(serial).map(Block::hash) else {
            return;
        };
        let reputation = (0..self.reputation.collector_count())
            .map(|i| {
                let v = self.reputation.collector(i);
                CollectorSnapshot {
                    weights: v.weights().to_vec(),
                    misreport: v.misreport(),
                    forge: v.forge(),
                }
            })
            .collect();
        let state = CheckpointState {
            serial,
            block_hash,
            stakes: self.stake_table.stakes().to_vec(),
            stake_nonces: self.stake_table.nonces().to_vec(),
            reputation,
        };
        let digest = state.digest();
        if let Some(buf) = self.ckpt_shares.get_mut(&serial) {
            let before = buf.len();
            buf.retain(|s| s.state_digest == digest);
            let dropped = (before - buf.len()) as u64;
            if dropped > 0 {
                self.metrics.checkpoint_digest_mismatches += dropped;
                if self.obs.is_enabled() {
                    self.obs
                        .metrics()
                        .add("checkpoint.digest_mismatch", dropped);
                }
            }
        }
        self.ckpt_pending.insert(serial, state);
        self.ckpt_to_announce.push(serial);
    }

    /// Signs and broadcasts the shares queued by [`Self::capture_checkpoint`]
    /// during this dispatch, counting the own share toward quorum.
    fn flush_checkpoint_shares(&mut self, ctx: &mut Context<'_, ProtocolMsg>) {
        if self.ckpt_to_announce.is_empty() {
            return;
        }
        let serials = std::mem::take(&mut self.ckpt_to_announce);
        for serial in serials {
            let Some(digest) = self.ckpt_pending.get(&serial).map(CheckpointState::digest) else {
                continue;
            };
            let share = CheckpointShare::create(serial, digest, self.index, &self.key);
            self.metrics.checkpoint_shares_sent += 1;
            if self.obs.is_enabled() {
                self.obs.metrics().inc("checkpoint.shares_sent");
            }
            self.broadcast_governors(
                ctx,
                "checkpoint-share",
                112,
                ProtocolMsg::CheckpointShare(share.clone()),
            );
            self.buffer_share(share);
            self.try_assemble_cert(serial);
        }
    }

    /// Buffers a signature-verified share, one per governor per serial.
    fn buffer_share(&mut self, share: CheckpointShare) {
        let buf = self.ckpt_shares.entry(share.serial).or_default();
        if !buf.iter().any(|s| s.governor == share.governor) {
            buf.push(share);
        }
    }

    /// A peer's checkpoint share arrived: verify its signature, discard
    /// it when it disagrees with this node's own snapshot digest at that
    /// serial (transient reveal-timing divergence or a byzantine signer),
    /// otherwise buffer and attempt certificate assembly.
    fn on_checkpoint_share(&mut self, share: CheckpointShare) {
        if self.cfg.checkpoint_interval == 0
            || self.expelled.contains(&share.governor)
            || self
                .gov_epochs
                .departed_at(share.serial)
                .contains(&share.governor)
        {
            return;
        }
        if self
            .latest_cert
            .as_ref()
            .is_some_and(|c| c.state.serial >= share.serial)
        {
            return; // already certified at or past this serial
        }
        if !share.verify(&self.governor_pks) {
            return;
        }
        if let Some(state) = self.ckpt_pending.get(&share.serial) {
            if state.digest() != share.state_digest {
                self.metrics.checkpoint_digest_mismatches += 1;
                if self.obs.is_enabled() {
                    self.obs.metrics().inc("checkpoint.digest_mismatch");
                }
                return;
            }
        } else if self.ckpt_shares.len() >= 32 && !self.ckpt_shares.contains_key(&share.serial) {
            return; // bound the early-share buffer against spam
        }
        let serial = share.serial;
        self.buffer_share(share);
        self.try_assemble_cert(serial);
    }

    /// Assembles a certificate for `serial` once a quorum of shares over
    /// this node's own state digest has gathered.
    fn try_assemble_cert(&mut self, serial: u64) {
        if self
            .latest_cert
            .as_ref()
            .is_some_and(|c| c.state.serial >= serial)
        {
            return;
        }
        let Some(state) = self.ckpt_pending.get(&serial) else {
            return;
        };
        let digest = state.digest();
        let Some(buf) = self.ckpt_shares.get(&serial) else {
            return;
        };
        let departed = self.gov_epochs.departed_at(serial);
        let mut sigs: Vec<(u32, Sig)> = buf
            .iter()
            .filter(|s| {
                s.state_digest == digest
                    && !self.expelled.contains(&s.governor)
                    && !departed.contains(&s.governor)
            })
            .map(|s| (s.governor, s.sig.clone()))
            .collect();
        // Quorum is sized by the membership epoch at this cert's serial
        // — the committee as it stood when the shares were signed — less
        // any equivocation expulsions the epoch log does not cover.
        let extra_expelled = self
            .expelled
            .iter()
            .filter(|g| !departed.contains(g))
            .count();
        let need = quorum(
            self.gov_epochs
                .active_at(serial)
                .saturating_sub(extra_expelled),
        );
        if sigs.len() < need {
            return;
        }
        sigs.sort_by_key(|(g, _)| *g);
        let cert = CheckpointCert {
            state: state.clone(),
            sigs,
        };
        self.metrics.checkpoint_certs_formed += 1;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("checkpoint.cert_formed");
        }
        if let Some(store) = &mut self.store {
            store
                .save_cert(&cert)
                .expect("durable store must persist the checkpoint cert");
        }
        self.latest_cert = Some(cert);
        self.prune_checkpoint_buffers(serial);
    }

    /// Drops pending snapshots and share buffers at or below `serial`.
    fn prune_checkpoint_buffers(&mut self, serial: u64) {
        self.ckpt_pending.retain(|&s, _| s > serial);
        self.ckpt_shares.retain(|&s, _| s > serial);
    }

    /// A sync peer offered a checkpoint certificate. Adopt it only when
    /// it verifies against the full committee (minus this node's expelled
    /// view) *and* is strictly ahead of the local chain head — a stale,
    /// forged or under-quorum offer is rejected and can never roll an
    /// honest node back. Adoption re-anchors the chain at the certified
    /// head, restores the certified stake/reputation state, and resets
    /// the durable store, so the remaining sync fetches only the
    /// `delta = head − serial` suffix.
    fn maybe_adopt_checkpoint(&mut self, cert: CheckpointCert, now: u64) {
        if cert.state.serial <= self.chain.height() {
            self.metrics.checkpoints_rejected += 1;
            if self.obs.is_enabled() {
                self.obs.metrics().inc("checkpoint.rejected.stale");
            }
            return;
        }
        // Size the quorum by the membership epoch at the cert's serial:
        // a cert formed before a departure (or expulsion this node
        // witnessed later) still verifies, because its shares were
        // signed by the committee of that day.
        let departed = self.gov_epochs.departed_at(cert.state.serial);
        if let Err(e) = cert.verify(&self.governor_pks, &departed) {
            self.metrics.checkpoints_rejected += 1;
            if self.obs.is_enabled() {
                let key = match e {
                    CheckpointError::UnderQuorum { .. } => "checkpoint.rejected.under_quorum",
                    CheckpointError::BadSignature { .. } => "checkpoint.rejected.bad_signature",
                    CheckpointError::MalformedState => "checkpoint.rejected.malformed_state",
                };
                self.obs.metrics().inc(key);
            }
            return;
        }
        let serial = cert.state.serial;
        self.chain = Chain::from_checkpoint(serial, cert.state.block_hash, self.cfg.b_limit);
        self.adopt_cert_state(&cert);
        self.head_priority = None;
        self.provisional_base = None;
        self.future_blocks.retain(|b| b.serial > serial);
        if let Some(store) = &mut self.store {
            store
                .reset_to_checkpoint(&cert)
                .expect("durable store must follow a checkpoint adoption");
        }
        self.metrics.checkpoints_adopted += 1;
        self.metrics.adopted_serial = serial;
        self.metrics.pages_after_adopt = 0;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("checkpoint.adopted");
            self.obs
                .metrics()
                .observe("checkpoint.adopted_serial", serial);
        }
        let _ = now;
        self.latest_cert = Some(cert);
        self.prune_checkpoint_buffers(serial);
    }

    // ── Dynamic membership (E17) ─────────────────────────────────────

    /// Governors out of the live committee: the union of equivocation
    /// expulsions and certified departures, sorted.
    fn excluded_governors(&self) -> Vec<u32> {
        let mut out = self.expelled.clone();
        for &g in &self.gov_departed {
            if !out.contains(&g) {
                out.push(g);
            }
        }
        out.sort_unstable();
        out
    }

    /// The subject verification key for a membership request, when the
    /// subject index is in range for its tier.
    fn member_pk(&self, role: MemberRole, member: u32) -> Option<&PublicKey> {
        match role {
            MemberRole::Collector => self.collector_pks.get(member as usize),
            MemberRole::Governor => self.governor_pks.get(member as usize),
        }
    }

    /// Whether this governor will endorse `req` with a share: in-range
    /// subject, properly authorized, stake-backed when joining, in the
    /// future, and consistent with the subject's current standing. An
    /// expelled governor is never readmittable — its stake was slashed
    /// on conviction.
    fn membership_acceptable(&self, req: &MembershipRequest) -> bool {
        let Some(pk) = self.member_pk(req.role, req.member) else {
            return false;
        };
        if !req.authorized(pk) || req.effective_round <= self.round {
            return false;
        }
        if req.role == MemberRole::Governor && self.expelled.contains(&req.member) {
            return false;
        }
        let active = match req.role {
            MemberRole::Collector => self
                .collector_active
                .get(req.member as usize)
                .copied()
                .unwrap_or(false),
            MemberRole::Governor => !self.gov_departed.contains(&req.member),
        };
        match req.action {
            MembershipAction::Join => req.bond >= 1 && !active,
            MembershipAction::Leave | MembershipAction::Evict => req.bond == 0 && active,
        }
    }

    /// A membership request arrived (peer relay or driver-injected):
    /// validate it, endorse it with this governor's share, and broadcast
    /// the share so the committee can assemble a certificate.
    fn on_membership(&mut self, req: MembershipRequest, ctx: &mut Context<'_, ProtocolMsg>) {
        if !self.cfg.churn_enabled() || !self.membership_acceptable(&req) {
            return;
        }
        let digest = req.digest();
        if self
            .member_certs
            .iter()
            .any(|c| c.request.digest() == digest)
        {
            return; // already certified
        }
        if self.member_shares.len() >= MEMBER_SHARE_BUFFERS
            && !self.member_shares.contains_key(&digest)
        {
            return; // bound the buffer against request spam
        }
        let entry = self.member_shares.entry(digest).or_default();
        if entry.0.is_none() {
            entry.0 = Some(req);
        }
        if !entry.1.iter().any(|s| s.governor == self.index) {
            let share = MembershipShare::create(digest, self.index, &self.key);
            entry.1.push(share.clone());
            if self.obs.is_enabled() {
                self.obs.metrics().inc("member.share_signed");
            }
            self.broadcast_governors(ctx, "member-share", 112, ProtocolMsg::MemberShare(share));
        }
        self.try_assemble_member_cert(digest);
    }

    /// A peer's endorsement share arrived: verify, buffer (one per
    /// governor per digest), and attempt certificate assembly.
    fn on_member_share(&mut self, share: MembershipShare) {
        if !self.cfg.churn_enabled()
            || self.expelled.contains(&share.governor)
            || self.gov_departed.contains(&share.governor)
            || !share.verify(&self.governor_pks)
        {
            return;
        }
        let digest = share.request_digest;
        if self
            .member_certs
            .iter()
            .any(|c| c.request.digest() == digest)
        {
            return;
        }
        if self.member_shares.len() >= MEMBER_SHARE_BUFFERS
            && !self.member_shares.contains_key(&digest)
        {
            return;
        }
        let entry = self.member_shares.entry(digest).or_default();
        if !entry.1.iter().any(|s| s.governor == share.governor) {
            entry.1.push(share);
        }
        self.try_assemble_member_cert(digest);
    }

    /// Assembles a [`MembershipCert`] once a quorum of the currently
    /// active committee has endorsed the request, persists the updated
    /// log, and queues the transition for its effective round.
    fn try_assemble_member_cert(&mut self, digest: Digest) {
        let excluded = self.excluded_governors();
        let need = quorum(self.cfg.governors as usize - excluded.len());
        let (req, sigs) = {
            let Some((Some(req), shares)) = self.member_shares.get(&digest) else {
                return;
            };
            let mut sigs: Vec<(u32, Sig)> = shares
                .iter()
                .filter(|s| !excluded.contains(&s.governor))
                .map(|s| (s.governor, s.sig.clone()))
                .collect();
            if sigs.len() < need {
                return;
            }
            sigs.sort_by_key(|(g, _)| *g);
            (req.clone(), sigs)
        };
        self.member_shares.remove(&digest);
        let cert = MembershipCert { request: req, sigs };
        self.member_certs.push(cert.clone());
        self.member_to_apply.push(cert);
        self.metrics.member_certs_formed += 1;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("member.cert_formed");
        }
        if let Some(store) = &mut self.store {
            store
                .save_members(&self.member_certs)
                .expect("durable store must persist the membership log");
        }
    }

    /// Applies every certified transition whose effective round has
    /// arrived, in an order every governor derives identically.
    fn apply_due_members(&mut self, round: u64, now: u64) {
        if self.member_to_apply.is_empty() {
            return;
        }
        let mut due = Vec::new();
        let mut later = Vec::new();
        for cert in std::mem::take(&mut self.member_to_apply) {
            if cert.request.effective_round <= round {
                due.push(cert);
            } else {
                later.push(cert);
            }
        }
        self.member_to_apply = later;
        due.sort_by_key(|c| {
            let r = &c.request;
            (r.effective_round, r.role, r.member, r.action)
        });
        for cert in due {
            self.apply_member_cert(&cert, now);
        }
    }

    /// Applies one certified transition to the local committee view.
    /// Also replays the persisted membership log on restart (`now = 0`).
    fn apply_member_cert(&mut self, cert: &MembershipCert, now: u64) {
        let req = &cert.request;
        let member = req.member;
        match (req.role, req.action) {
            (MemberRole::Collector, MembershipAction::Join) => {
                let c = member as usize;
                if c < self.collector_active.len() && !self.collector_active[c] {
                    self.collector_active[c] = true;
                    // Newcomers start from the configured prior, not any
                    // stale pre-departure score.
                    self.reputation
                        .bootstrap_collector(c, self.cfg.bootstrap_rep);
                    self.health.watch(c, SimTime(now));
                    self.eviction_proposed.remove(&member);
                }
            }
            (MemberRole::Collector, MembershipAction::Leave | MembershipAction::Evict) => {
                let c = member as usize;
                if c < self.collector_active.len() && self.collector_active[c] {
                    self.collector_active[c] = false;
                    self.health.unwatch(c);
                    let peer = self.topology.params().providers as usize + c;
                    if let Some(r) = &mut self.retry {
                        r.purge_peer(peer);
                    }
                }
            }
            (MemberRole::Governor, MembershipAction::Leave | MembershipAction::Evict) => {
                if !self.gov_departed.contains(&member) {
                    self.gov_departed.push(member);
                    self.gov_departed.sort_unstable();
                    self.gov_epochs
                        .record_departure(member, req.effective_round);
                    self.claims.retain(|c| c.governor != member);
                    self.transitive.purge_reporter(member);
                    let peer = self.governor_base + member as usize;
                    if let Some(r) = &mut self.retry {
                        r.purge_peer(peer);
                    }
                }
            }
            (MemberRole::Governor, MembershipAction::Join) => {
                if let Some(pos) = self.gov_departed.iter().position(|&g| g == member) {
                    self.gov_departed.remove(pos);
                    self.gov_epochs
                        .record_readmission(member, req.effective_round);
                }
            }
        }
        self.metrics.member_applied += 1;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("member.applied");
        }
    }

    /// First-hand opinion of each collector: the mean of its screening
    /// weights, clamped to `[0, 1]`.
    fn first_hand_opinions(&self) -> Vec<f64> {
        (0..self.reputation.collector_count())
            .map(|c| {
                let w = self.reputation.collector(c).weights();
                let mean = w.iter().sum::<f64>() / w.len().max(1) as f64;
                mean.clamp(0.0, 1.0)
            })
            .collect()
    }

    /// Folds a peer's advisory reputation gossip into the transitive
    /// view, weighted by that reporter's earned trust (EigenTrust-style;
    /// never touches consensus state).
    fn on_rep_gossip(&mut self, reporter: u32, scores: Vec<u64>) {
        if !self.cfg.churn_enabled()
            || reporter == self.index
            || reporter as usize >= self.cfg.governors as usize
            || self.expelled.contains(&reporter)
            || self.gov_departed.contains(&reporter)
        {
            return;
        }
        let claim: Vec<f64> = scores.iter().map(|b| f64::from_bits(*b)).collect();
        let local = self.first_hand_opinions();
        let merged = self.transitive.merge_claim(reporter, &claim, &local);
        if self.obs.is_enabled() {
            self.obs.metrics().inc(if merged {
                "member.gossip_merged"
            } else {
                "member.gossip_rejected"
            });
        }
    }

    /// Round-boundary churn maintenance, the local half: decays the
    /// screening weights of collectors silent for at least a full round
    /// and returns those sunk to the eviction floor. Runs on every
    /// profile (silent byzantine governors included) so the honest
    /// committee's reputation tables stay in lockstep.
    fn churn_decay(&mut self, now: u64) -> Vec<u32> {
        let Some(factor) = self.cfg.decay_factor() else {
            return Vec::new();
        };
        let threshold = SimDuration(self.cfg.round_ticks());
        // A peer watched since genesis has had no chance to speak before
        // the first round boundary — the first meaningful silence check
        // is at the start of round 2, after one full round of uploads.
        if threshold.0 == 0 || now < 2 * threshold.0 {
            return Vec::new();
        }
        if now.saturating_sub(self.last_upload_at) >= threshold.0 {
            // The whole committee went quiet for the window (drain or
            // settle rounds): no discriminating silence signal.
            return Vec::new();
        }
        let mut candidates = Vec::new();
        for c in self.health.suspects(SimTime(now), threshold) {
            if !self.collector_active.get(c).copied().unwrap_or(false) {
                continue;
            }
            self.reputation.decay_collector(c, factor);
            self.metrics.decay_events += 1;
            if self.obs.is_enabled() {
                self.obs.metrics().inc("member.decay");
            }
            let w = self.reputation.collector(c).weights();
            let mean = w.iter().sum::<f64>() / w.len().max(1) as f64;
            let floor = self.cfg.reputation.weight_floor.max(EVICTION_FLOOR);
            if mean <= floor && !self.eviction_proposed.contains(&(c as u32)) {
                candidates.push(c as u32);
            }
        }
        candidates
    }

    /// The speaking half of churn maintenance: gossip this governor's
    /// first-hand view and propose evicting collectors that decayed to
    /// the floor. Silent and departed governors never reach this.
    fn churn_speak(
        &mut self,
        candidates: Vec<u32>,
        round: u64,
        ctx: &mut Context<'_, ProtocolMsg>,
    ) {
        if !self.cfg.churn_enabled() {
            return;
        }
        let scores: Vec<u64> = self
            .first_hand_opinions()
            .iter()
            .map(|w| w.to_bits())
            .collect();
        let size = 16 + 8 * scores.len();
        self.broadcast_governors(
            ctx,
            "rep-gossip",
            size,
            ProtocolMsg::RepGossip {
                reporter: self.index,
                scores,
            },
        );
        for member in candidates {
            self.eviction_proposed.insert(member);
            let req = MembershipRequest::evict(MemberRole::Collector, member, round + 2);
            self.metrics.evictions_proposed += 1;
            if self.obs.is_enabled() {
                self.obs.metrics().inc("member.evict_proposed");
            }
            self.broadcast_governors(
                ctx,
                "membership",
                64,
                ProtocolMsg::Membership(Box::new(req.clone())),
            );
            self.on_membership(req, ctx);
        }
    }

    /// Whether collector `c` is currently an active committee member.
    pub fn collector_is_active(&self, c: u32) -> bool {
        self.collector_active
            .get(c as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Indices of the currently active collectors, ascending.
    pub fn active_collectors(&self) -> Vec<u32> {
        self.collector_active
            .iter()
            .enumerate()
            .filter(|(_, a)| **a)
            .map(|(c, _)| c as u32)
            .collect()
    }

    /// Governors departed via certified membership transitions, sorted.
    pub fn departed_governors(&self) -> &[u32] {
        &self.gov_departed
    }

    /// The quorum-certified membership transition log, oldest first.
    pub fn membership_certs(&self) -> &[MembershipCert] {
        &self.member_certs
    }

    /// The committee epoch log (serial-stamped departures/readmissions).
    pub fn epoch_log(&self) -> &EpochLog {
        &self.gov_epochs
    }

    /// The advisory transitive-reputation view.
    pub fn transitive_view(&self) -> &TransitiveView {
        &self.transitive
    }

    /// Resolves the verification key for provider `p`: the per-provider
    /// key when one exists, else the scale-mode pool slot `p % len` (for
    /// in-range interned providers), else `None` (out of range — the
    /// structural forgery case).
    fn provider_pk(&self, p: u32) -> Option<&PublicKey> {
        if let Some(pk) = self.provider_pks.get(p as usize) {
            return Some(pk);
        }
        if !self.pk_pool.is_empty() && p < self.topology.params().providers {
            return Some(&self.pk_pool[p as usize % self.pk_pool.len()]);
        }
        None
    }

    /// `(pending now, pending high-water, shed count)` for the pending
    /// pool — the E15 bounded-memory and reconciliation asserts.
    pub fn pending_stats(&self) -> (usize, usize, u64) {
        (self.pending.len(), self.pending_high_water, self.shed)
    }

    /// `(in-flight now, high-water, dropped)` for the block-dissemination
    /// retry queue (zeros when reliable delivery is off).
    pub fn retry_queue_stats(&self) -> (usize, usize, u64) {
        match &self.retry {
            Some(r) => (r.in_flight(), r.high_water(), r.stats().dropped),
            None => (0, 0, 0),
        }
    }

    /// Routes an ack for a tracked send.
    pub fn on_ack(&mut self, token: u64) {
        if let Some(r) = &mut self.retry {
            r.on_ack(token);
        }
    }

    /// Whether the governor is mid-recovery (diagnostics).
    pub fn is_recovering(&self) -> bool {
        matches!(self.sync, SyncState::Recovering { .. })
    }

    fn net_idx(&self) -> u64 {
        (self.governor_base + self.index as usize) as u64
    }

    /// The governor's index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The governor's local copy of the ledger.
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// The governor's reputation table.
    pub fn reputation(&self) -> &ReputationTable {
        &self.reputation
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &GovernorMetrics {
        &self.metrics
    }

    /// The leader this governor elected for the current round.
    pub fn current_leader(&self) -> Option<u32> {
        self.leader
    }

    /// The governor's view of the stake distribution.
    pub fn stake_table(&self) -> &StakeTable {
        &self.stake_table
    }

    /// Governors this node has expelled, sorted by index.
    pub fn expelled(&self) -> &[u32] {
        &self.expelled
    }

    /// Transaction ids currently buffered for inclusion (diagnostics).
    pub fn ready_tx_ids(&self) -> Vec<TxId> {
        self.ready_entries.iter().map(|e| e.tx.id()).collect()
    }

    /// Number of screened transactions buffered for inclusion.
    pub fn ready_len(&self) -> usize {
        self.ready_entries.len()
    }

    /// Number of transactions still inside their Δ window (diagnostics).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Broadcasts `msg` to every peer governor — through the retry
    /// envelope when reliable delivery is on. Election claims and block
    /// proposals are both critical hops: a lost claim makes the round's
    /// election run under-informed (risking a head fork), and a lost
    /// proposal forks the peer until it syncs.
    fn broadcast_governors(
        &mut self,
        ctx: &mut Context<'_, ProtocolMsg>,
        kind: &'static str,
        size: usize,
        msg: ProtocolMsg,
    ) {
        // Move the original into the last real send instead of cloning
        // for every peer and dropping the original — one clone saved per
        // broadcast, which at scale is one per election claim / proposal.
        let m = self.cfg.governors as usize;
        let last = (0..m)
            .rev()
            .find(|g| self.governor_base + g != ctx.self_idx());
        let mut msg = Some(msg);
        for g in 0..m {
            if self.governor_base + g == ctx.self_idx() {
                continue;
            }
            let payload = if Some(g) == last {
                msg.take().expect("taken only on the last peer")
            } else {
                msg.as_ref().expect("present until the last peer").clone()
            };
            self.send_governor(ctx, g, kind, size, payload);
        }
    }

    /// Sends `msg` to governor `g` alone (no-op for this node itself) —
    /// through the retry envelope when reliable delivery is on. The
    /// equivocating byzantine path needs per-peer sends: it feeds each
    /// committee half a different block.
    fn send_governor(
        &mut self,
        ctx: &mut Context<'_, ProtocolMsg>,
        g: usize,
        kind: &'static str,
        size: usize,
        msg: ProtocolMsg,
    ) {
        let peer = self.governor_base + g;
        if peer == ctx.self_idx() {
            return;
        }
        match &mut self.retry {
            Some(r) => {
                r.send_with(ctx, peer, kind, size + 8, |token| ProtocolMsg::Reliable {
                    token,
                    inner: Box::new(msg),
                });
            }
            None => ctx.send_sized(peer, kind, size, msg),
        }
    }

    /// Handles a delivered message.
    pub fn on_message(&mut self, env: Envelope<ProtocolMsg>, ctx: &mut Context<'_, ProtocolMsg>) {
        match env.payload {
            ProtocolMsg::StartRound { round } => self.on_start_round(round, ctx),
            ProtocolMsg::Election { round, claim }
                if round == self.round
                // Claims travel through the retry envelope, so a slow ack
                // can deliver the same claim twice — dedupe by claimant
                // before counting toward the full-set threshold. Expelled
                // governors are out of the committee entirely.
                && !self.expelled.contains(&claim.governor)
                && !self.gov_departed.contains(&claim.governor)
                && !self.claims.iter().any(|c| c.governor == claim.governor) =>
            {
                self.claims.push(claim);
                let live = self.cfg.governors as usize - self.excluded_governors().len();
                if self.claims.len() == live {
                    self.run_election(ctx.now().ticks());
                }
            }
            ProtocolMsg::TxUpload { seq, ltx } => {
                let channel = ChannelId(ltx.collector.index as u64);
                for ltx in self.inbox.push(channel, seq, ltx) {
                    self.on_upload(ltx, ctx);
                }
            }
            ProtocolMsg::ProposeBlock { round } => self.on_propose(round, ctx),
            ProtocolMsg::BlockProposal {
                block,
                claim,
                header,
            } => {
                if let Some(header) = &header {
                    self.note_header(header.clone(), ctx);
                }
                self.on_block(block, claim, header, ctx);
            }
            ProtocolMsg::HeaderEcho { header } => self.note_header(header, ctx),
            ProtocolMsg::Evidence { evidence } => self.on_evidence(evidence, ctx),
            ProtocolMsg::SyncRequest { have } => self.on_sync_request(have, env.from, ctx),
            ProtocolMsg::SyncResponse { blocks, head, cert } => {
                self.on_sync_response(blocks, head, cert, env.from, ctx);
            }
            ProtocolMsg::CheckpointShare(share) => self.on_checkpoint_share(share),
            ProtocolMsg::Membership(req) => self.on_membership(*req, ctx),
            ProtocolMsg::MemberShare(share) => self.on_member_share(share),
            ProtocolMsg::RepGossip { reporter, scores } => self.on_rep_gossip(reporter, scores),
            ProtocolMsg::Argue { tx, .. } => self.on_argue(tx, ctx),
            ProtocolMsg::StakeTransfer(transfer) => self.on_stake_transfer(transfer, ctx),
            ProtocolMsg::Reveal { tx, valid } => self.on_reveal(tx, valid, ctx.now().ticks()),
            _ => {}
        }
        // Any dispatch may have committed a checkpoint-interval boundary
        // (own proposal, adopted proposal, or a sync page crossing one);
        // announce the queued shares exactly once, after the handler.
        self.flush_checkpoint_shares(ctx);
    }

    /// Handles a timer: retransmission, sync rotation, or Δ aggregation.
    pub fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, ProtocolMsg>) {
        if let Some(r) = &mut self.retry {
            if r.on_timer(timer, ctx) {
                return;
            }
        }
        if let Some((attempt, height)) = self.sync_timers.remove(&timer) {
            self.on_sync_timer(attempt, height, ctx);
            return;
        }
        if let Some(tx) = self.timers.remove(&timer) {
            self.screen_tx(tx, ctx);
        }
    }

    fn on_start_round(&mut self, round: u64, ctx: &mut Context<'_, ProtocolMsg>) {
        // A round-number gap is crash evidence: StartRound commands
        // arrive every round, so skipping one means this node was deaf
        // for at least a full round and may have missed blocks.
        if round > self.round + 1 {
            self.start_recovery(None, ctx);
        }
        self.round = round;
        self.claims.clear();
        self.leader = None;
        let now = ctx.now().ticks();
        self.apply_due_members(round, now);
        if self.gov_departed.contains(&self.index) {
            // This governor's own certified departure took effect: stay
            // dark — no claim, no gossip — while still following
            // committed blocks so a readmission resumes from a warm
            // chain.
            return;
        }
        let evict_candidates = self.churn_decay(now);
        if self.obs.is_enabled() {
            self.obs
                .observe("depth.gov_pending", self.pending.len() as u64);
            self.obs
                .observe("depth.gov_ready", self.ready_entries.len() as u64);
            self.obs
                .observe("depth.gov_argued", self.argued_entries.len() as u64);
            self.obs
                .set_gauge("depth.gov_pending", self.pending.len() as f64);
            self.obs
                .set_gauge("depth.gov_ready", self.ready_entries.len() as f64);
            self.obs
                .set_gauge("depth.gov_argued", self.argued_entries.len() as f64);
        }
        self.election_span = Some(Span::begin(phases::ELECTION, now));
        self.proposal_span = Some(Span::begin(phases::PROPOSAL, now));
        self.commit_span = Some(Span::begin(phases::COMMIT, now));
        if self.profile.mode_in(round) == ByzantineMode::Silent {
            // A silent governor makes no claim and will never propose; to
            // its peers the round looks exactly like a crash.
            self.metrics.silent_rounds += 1;
            return;
        }
        self.churn_speak(evict_candidates, round, ctx);
        let t0 = self.obs.is_enabled().then(std::time::Instant::now);
        let claim = ElectionClaim::compute(
            b"prb-chain",
            round,
            self.index,
            self.stake_table.stake(self.index).unwrap_or(0),
            &self.key,
        );
        if let Some(t0) = t0 {
            self.obs
                .add_counter("wall.crypto_ns", t0.elapsed().as_nanos() as u64);
        }
        self.my_claim = claim.clone();
        if let Some(claim) = claim {
            self.claims.push(claim.clone());
            self.broadcast_governors(
                ctx,
                "election-claim",
                96,
                ProtocolMsg::Election { round, claim },
            );
        }
    }

    fn run_election(&mut self, now: u64) {
        let t0 = self.obs.is_enabled().then(std::time::Instant::now);
        let excluded = self.excluded_governors();
        let (result, _rejected) = elect_excluding(
            b"prb-chain",
            self.round,
            &self.claims,
            self.stake_table.stakes(),
            &self.governor_pks,
            &excluded,
            &self.verify_pool,
        );
        if let Some(t0) = t0 {
            self.obs
                .add_counter("wall.crypto_ns", t0.elapsed().as_nanos() as u64);
        }
        self.leader = result.map(|r| r.leader);
        if let Some(leader) = self.leader {
            self.obs.emit(
                now,
                self.net_idx(),
                ObsEvent::ElectionDecided {
                    leader: leader as u64,
                    claims: self.claims.len() as u64,
                },
            );
        }
        if let Some(span) = self.election_span.take() {
            self.obs.end_span(span, now, self.net_idx());
        }
    }

    fn on_upload(&mut self, ltx: LabeledTx, ctx: &mut Context<'_, ProtocolMsg>) {
        let collector = ltx.collector.index;
        // Unknown collector identity: drop silently (cannot attribute).
        let Some(collector_pk) = self.collector_pks.get(collector as usize) else {
            return;
        };
        if !ltx.verify_collector(collector_pk) {
            return; // not actually from that collector
        }
        if !self
            .collector_active
            .get(collector as usize)
            .copied()
            .unwrap_or(true)
        {
            return; // certified departure: out of the screening set
        }
        self.health.record_seen(collector as usize, ctx.now());
        self.last_upload_at = ctx.now().ticks();
        // The paper's verify(c, Tx): the provider must be linked with the
        // collector, and the inner provider signature must be genuine. The
        // structural half is checked here; the signature check is deferred
        // to the Δ-window drain so a round's copies verify as one batch —
        // unless the memo already knows this copy's verdict.
        let provider = ltx.tx.payload.provider.index;
        let structural_ok = ltx.tx.payload.provider.role == prb_crypto::identity::Role::Provider
            && self.provider_pk(provider).is_some()
            && self.topology.linked(provider, collector);
        if !structural_ok {
            // Case 1: a mis-attributed transaction.
            self.record_forgery(collector, ctx.now().ticks());
            return;
        }
        let id = ltx.tx.id();
        let memo_key = (provider, id, ltx.tx.provider_sig.clone());
        let verdict = self.sig_memo.get(&memo_key).copied();
        if verdict.is_some() {
            self.metrics.sig_memo_hits += 1;
            if self.obs.is_enabled() {
                self.obs.metrics().inc("gov.sig_memo_hit");
            }
        }
        if verdict == Some(false) {
            // Case 1: a known-forged provider signature.
            self.record_forgery(collector, ctx.now().ticks());
            return;
        }
        if let Some(pending) = self.pending.get_mut(&id) {
            if pending.reports.iter().any(|(c, _)| *c == collector) {
                // Duplicate copy from a reporter already in the window: no
                // report rides on it, so nothing joins the batch — but a
                // forged-signature probe is still case 1, checked eagerly.
                if verdict.is_none() && !self.verify_provider_sig(provider, &ltx.tx) {
                    self.record_forgery(collector, ctx.now().ticks());
                }
                return;
            }
            if verdict.is_none() {
                Self::enqueue_verify(&mut self.verify_queue, &mut self.queued, memo_key, &ltx.tx);
            }
            pending.reports.push((collector, ltx.label));
            pending.sigs.push((collector, ltx.tx.provider_sig));
            return;
        }
        if let Some(record) = self.history.get_mut(&id) {
            // Late report (after screening): no batch is pending for it, so
            // resolve the signature now (the memo almost always answers —
            // screening verified this id already).
            if record.reports.iter().any(|(c, _)| *c == collector) {
                return;
            }
            if verdict.is_none() && !self.verify_provider_sig(provider, &ltx.tx) {
                self.record_forgery(collector, ctx.now().ticks());
                return;
            }
            let record = self.history.get_mut(&id).expect("checked above");
            record.reports.push((collector, ltx.label));
            match record.outcome {
                Outcome::Checked { valid } => {
                    let correct = ltx.label.is_valid() == valid;
                    self.reputation
                        .record_checked(&[(collector as usize, correct)]);
                }
                Outcome::Unchecked { .. } => {} // counted at reveal
            }
            return;
        }
        // First copy: open the Δ window (starttime(tx, Δ)).
        if verdict.is_none() {
            Self::enqueue_verify(&mut self.verify_queue, &mut self.queued, memo_key, &ltx.tx);
        }
        self.obs.emit(
            ctx.now().ticks(),
            self.net_idx(),
            ObsEvent::TxAdmitted { trace: id.trace() },
        );
        let timer = ctx.set_timer(SimDuration(self.cfg.aggregation_window()));
        self.timers.insert(timer, id);
        self.screen_spans
            .insert(id, Span::begin(phases::SCREENING, ctx.now().ticks()));
        self.pending.insert(
            id,
            PendingTx {
                provider,
                reports: vec![(collector, ltx.label)],
                sigs: vec![(collector, ltx.tx.provider_sig.clone())],
                ltx,
            },
        );
        self.pending_order.push_back(id);
        // Bounded pool: past capacity, shed the oldest still-pending
        // window deterministically. Its Δ timer later fires as a no-op
        // (`screen_tx` tolerates a missing entry).
        let now = ctx.now().ticks();
        while self.pending.len() > self.cfg.pending_capacity {
            let Some(oldest) = self.pending_order.pop_front() else {
                break;
            };
            if self.pending.remove(&oldest).is_none() {
                continue; // stale id, already screened
            }
            self.screen_spans.remove(&oldest);
            self.shed += 1;
            if self.obs.is_enabled() {
                self.obs.metrics().inc("gov.pending.shed");
            }
            self.obs.emit(
                now,
                self.net_idx(),
                ObsEvent::TxDropped {
                    trace: oldest.trace(),
                    reason: "shed",
                },
            );
        }
        self.pending_high_water = self.pending_high_water.max(self.pending.len());
        // Lazy compaction keeps the order deque proportional to the live
        // pool: screened ids are not removed eagerly (that would be O(n)
        // per screen), so sweep them out once they dominate.
        if self.pending_order.len() > (self.pending.len() * 2).max(64) {
            self.pending_order
                .retain(|id| self.pending.contains_key(id));
        }
    }

    /// Records a case-1 forgery against `collector`.
    fn record_forgery(&mut self, collector: u32, now: u64) {
        self.reputation.record_forgery(collector as usize);
        self.metrics.forged_detected += 1;
        self.obs.emit(
            now,
            self.net_idx(),
            ObsEvent::ForgeryDetected {
                collector: collector as u64,
            },
        );
    }

    /// Queues a provider signature for the next batched drain (deduped).
    fn enqueue_verify(
        queue: &mut Vec<(u32, TxId, Sig, Vec<u8>)>,
        queued: &mut FxSet<(u32, TxId, Sig)>,
        key: (u32, TxId, Sig),
        tx: &SignedTx,
    ) {
        if queued.insert(key.clone()) {
            queue.push((key.0, key.1, key.2, tx.signing_bytes()));
        }
    }

    /// Drains the verification queue through the pool as one batch and
    /// folds the verdicts into the signature memo.
    fn drain_verify_queue(&mut self) {
        if self.verify_queue.is_empty() {
            return;
        }
        let queue = std::mem::take(&mut self.verify_queue);
        self.queued.clear();
        if self.obs.is_enabled() {
            self.obs
                .metrics()
                .observe("crypto.batch.size", queue.len() as u64);
        }
        let items: Vec<(&[u8], &Sig, &PublicKey)> = queue
            .iter()
            .map(|(p, _, sig, msg)| {
                let pk = self.provider_pk(*p).expect("queued after structural check");
                (&msg[..], sig, pk)
            })
            .collect();
        let t0 = self.obs.is_enabled().then(std::time::Instant::now);
        let verdicts = self.verify_pool.verify_sigs(&items);
        if let Some(t0) = t0 {
            self.obs
                .add_counter("wall.crypto_ns", t0.elapsed().as_nanos() as u64);
        }
        self.metrics.sig_memo_misses += queue.len() as u64;
        if self.obs.is_enabled() {
            self.obs
                .metrics()
                .add("gov.sig_memo_miss", queue.len() as u64);
        }
        for ((p, id, sig, _), ok) in queue.into_iter().zip(verdicts) {
            if self.sig_memo.len() >= SIG_MEMO_MAX {
                self.sig_memo.clear();
            }
            self.sig_memo.insert((p, id, sig), ok);
        }
    }

    fn screen_tx(&mut self, id: TxId, ctx: &mut Context<'_, ProtocolMsg>) {
        let Some(mut pending) = self.pending.remove(&id) else {
            return;
        };
        // Settle every provider signature queued during the Δ window,
        // then attribute forgeries per reporting copy.
        self.drain_verify_queue();
        let provider = pending.provider;
        let signed_bytes = pending.ltx.tx.signing_bytes();
        let mut ok_reports = Vec::with_capacity(pending.reports.len());
        let mut good_sig: Option<Sig> = None;
        for (collector, label) in pending.reports.drain(..) {
            let sig = pending
                .sigs
                .iter()
                .find(|(c, _)| *c == collector)
                .map(|(_, s)| s.clone())
                .expect("every reporter recorded a signature");
            let key = (provider, id, sig.clone());
            let ok = match self.sig_memo.get(&key) {
                Some(&ok) => ok,
                None => {
                    // The memo filled and was cleared between the drain and
                    // this lookup; verify the straggler inline.
                    let ok = self
                        .provider_pk(provider)
                        .is_some_and(|pk| pk.verify(&signed_bytes, &sig));
                    self.sig_memo.insert(key, ok);
                    ok
                }
            };
            if ok {
                if good_sig.is_none() {
                    good_sig = Some(sig);
                }
                ok_reports.push((collector, label));
            } else {
                // Case 1, attributed at screen time: this reporter's copy
                // carried a forged provider signature.
                self.record_forgery(collector, ctx.now().ticks());
            }
        }
        if ok_reports.is_empty() {
            // Every copy was forged: nothing to screen (and no screening
            // randomness is consumed, matching the eager-verification
            // behaviour where such a window never opened).
            self.obs.emit(
                ctx.now().ticks(),
                self.net_idx(),
                ObsEvent::TxDropped {
                    trace: id.trace(),
                    reason: "forged",
                },
            );
            self.screen_spans.remove(&id);
            return;
        }
        // If the first-arrived copy carried a forged signature, re-home the
        // buffered transaction onto a verified one so block entries never
        // embed a bad signature.
        if let Some(good) = good_sig {
            if pending.ltx.tx.provider_sig != good {
                pending.ltx.tx.provider_sig = good;
            }
        }
        let mut reports = ok_reports;
        reports.sort_by_key(|(c, _)| *c);
        let screen_reports: Vec<Report> = reports
            .iter()
            .map(|(c, label)| {
                let slot = self
                    .topology
                    .provider_slot(*c, provider)
                    .expect("reporter is linked");
                Report {
                    collector: *c,
                    labeled_valid: label.is_valid(),
                    weight: self.reputation.weight(*c as usize, slot),
                }
            })
            .collect();
        let outcome = screen(&screen_reports, self.cfg.reputation.f, ctx.rng())
            .expect("at least one report exists");
        let check = match self.cfg.governor_mode {
            GovernorMode::Reputation => outcome.check,
            GovernorMode::CheckAll => true,
            GovernorMode::CheckNone => false,
        };
        let drawn_label = if screen_reports[outcome.drawn].labeled_valid {
            Label::Valid
        } else {
            Label::Invalid
        };
        self.metrics.screened += 1;
        let now = ctx.now().ticks();
        self.obs.emit(
            now,
            self.net_idx(),
            ObsEvent::TxScreened {
                trace: id.trace(),
                drawn: screen_reports[outcome.drawn].collector as u64,
                checked: check,
                label_valid: drawn_label.is_valid(),
            },
        );
        if let Some(span) = self.screen_spans.remove(&id) {
            self.obs.end_span(span, now, self.net_idx());
        }
        let absent: Vec<u32> = self
            .topology
            .collectors_of(provider)
            .iter()
            .copied()
            .filter(|&c| {
                !self
                    .collector_active
                    .get(c as usize)
                    .copied()
                    .unwrap_or(true)
            })
            .collect();

        if check {
            let valid = self.oracle.borrow().validate(id);
            self.metrics.validations += 1;
            self.metrics.checked += 1;
            self.obs.emit(
                now,
                self.net_idx(),
                ObsEvent::TxValidated {
                    trace: id.trace(),
                    valid,
                },
            );
            if !valid {
                self.obs.emit(
                    now,
                    self.net_idx(),
                    ObsEvent::TxDropped {
                        trace: id.trace(),
                        reason: "invalid",
                    },
                );
            }
            // Case 2: every reporter's misreport counter moves.
            let case2: Vec<(usize, bool)> = reports
                .iter()
                .map(|(c, label)| (*c as usize, label.is_valid() == valid))
                .collect();
            self.reputation.record_checked(&case2);
            if valid {
                self.ready_entries.push(BlockEntry {
                    tx: pending.ltx.tx.clone(),
                    verdict: Verdict::CheckedValid,
                    reported_labels: label_pairs(&reports),
                });
            }
            self.history.insert(
                id,
                TxRecord {
                    ltx: pending.ltx,
                    provider,
                    reports,
                    absent: absent.clone(),
                    outcome: Outcome::Checked { valid },
                },
            );
        } else {
            let counter = self.unchecked_counter.entry(provider).or_insert(0);
            let index = *counter;
            *counter += 1;
            self.metrics.unchecked += 1;
            self.screened_at.insert(id, now);
            let verdict = if drawn_label.is_valid() {
                Verdict::UncheckedValid
            } else {
                Verdict::UncheckedInvalid
            };
            self.ready_entries.push(BlockEntry {
                tx: pending.ltx.tx.clone(),
                verdict,
                reported_labels: label_pairs(&reports),
            });
            self.history.insert(
                id,
                TxRecord {
                    ltx: pending.ltx,
                    provider,
                    reports,
                    absent,
                    outcome: Outcome::Unchecked {
                        recorded: drawn_label,
                        index,
                    },
                },
            );
        }
    }

    fn on_propose(&mut self, round: u64, ctx: &mut Context<'_, ProtocolMsg>) {
        // A leader already chosen means the election ran over the full
        // claim set; electing from a partial set below may miss the true
        // winner, so a block proposed that way stays provisional.
        let informed = self.leader.is_some();
        if self.leader.is_none() {
            // Missing claims (crashed governors): elect from what arrived.
            self.run_election(ctx.now().ticks());
        }
        if self.leader != Some(self.index) {
            return;
        }
        if self.provisional_base.is_some() {
            // The previous provisional self-proposal is still
            // unconfirmed; building on it would deepen a potential fork
            // past what same-serial contests can undo. Skip the round —
            // the streak resolves via a rival's key, a foreign
            // successor, or recovery.
            self.metrics.proposals_withheld += 1;
            return;
        }
        let mode = self.profile.mode_in(round);
        // Argued re-records first, then fresh screenings, capped by b_limit.
        let mut entries: Vec<BlockEntry> = Vec::new();
        let mut argued_rest = Vec::new();
        for e in self.argued_entries.drain(..) {
            if entries.len() < self.cfg.b_limit {
                entries.push(e);
            } else {
                argued_rest.push(e);
            }
        }
        self.argued_entries = argued_rest;
        let mut ready_rest = Vec::new();
        let mut ready: Vec<BlockEntry> = self.ready_entries.drain(..).collect();
        ready.sort_by_key(|e| e.tx.id());
        for e in ready {
            // Never re-record something already in the ledger (argue
            // re-records enter via argued_entries only).
            if self.chain.find_tx(e.tx.id()).is_some() {
                continue;
            }
            if entries.len() < self.cfg.b_limit {
                entries.push(e);
            } else {
                ready_rest.push(e);
            }
        }
        self.ready_entries = ready_rest;

        if mode == ByzantineMode::Censor {
            // Drop every second entry of the deterministic assembly order:
            // selective censorship with plausible deniability — the block
            // stays well-formed, so this is tolerated, not detected.
            let before = entries.len();
            let mut nth = 0usize;
            let mut censored: Vec<u64> = Vec::new();
            let trace_drops = self.obs.is_enabled();
            entries.retain(|e| {
                nth += 1;
                let keep = nth % 2 == 1;
                if !keep && trace_drops {
                    censored.push(e.tx.id().trace());
                }
                keep
            });
            self.metrics.censored_txs += (before - entries.len()) as u64;
            if self.obs.is_enabled() {
                self.obs
                    .metrics()
                    .add("byzantine.censored_txs", (before - entries.len()) as u64);
            }
            let t = ctx.now().ticks();
            for trace in censored {
                self.obs.emit(
                    t,
                    self.net_idx(),
                    ObsEvent::TxDropped {
                        trace,
                        reason: "censored",
                    },
                );
            }
        }
        if mode == ByzantineMode::InvalidProposal {
            // A structurally plausible block entry whose "provider"
            // signature was actually made with the governor's own key,
            // mislabeled CheckedValid. Paranoid receivers reject the whole
            // block and attribute it to the proposer.
            let forged = SignedTx::create(
                TxPayload {
                    provider: NodeId::provider(0),
                    nonce: u64::MAX - round,
                    data: vec![0xBD],
                },
                ctx.now().ticks(),
                &self.key,
            );
            entries.push(BlockEntry {
                tx: forged,
                verdict: Verdict::CheckedValid,
                reported_labels: Vec::new(),
            });
            self.metrics.invalid_proposals_sent += 1;
            if self.obs.is_enabled() {
                self.obs.metrics().inc("byzantine.invalid_proposals_sent");
            }
        }

        let block = Block::build(
            self.chain.next_serial(),
            entries,
            self.chain.head_hash(),
            NodeId::governor(self.index),
            ctx.now().ticks(),
        );
        let size = 64 + 96 * block.tx_count();
        let now = ctx.now().ticks();
        self.obs.emit(
            now,
            self.net_idx(),
            ObsEvent::BlockProposed {
                serial: block.serial,
                entries: block.entries.len() as u64,
            },
        );
        if self.obs.is_enabled() {
            for e in &block.entries {
                self.obs.emit(
                    now,
                    self.net_idx(),
                    ObsEvent::TxProposed {
                        trace: e.tx.id().trace(),
                        serial: block.serial,
                    },
                );
            }
        }
        if let Some(span) = self.proposal_span.take() {
            self.obs.end_span(span, now, self.net_idx());
        }
        self.pay_collectors(&block);
        match self.chain.append(block.clone()) {
            Ok(()) => {
                self.metrics.blocks_appended += 1;
                self.obs.emit(
                    now,
                    self.net_idx(),
                    ObsEvent::BlockCommitted {
                        serial: block.serial,
                        entries: block.entries.len() as u64,
                    },
                );
                if self.obs.is_enabled() {
                    for e in &block.entries {
                        self.obs.emit(
                            now,
                            self.net_idx(),
                            ObsEvent::TxCommitted {
                                trace: e.tx.id().trace(),
                                serial: block.serial,
                            },
                        );
                    }
                }
                if let Some(span) = self.commit_span.take() {
                    self.obs.end_span(span, now, self.net_idx());
                }
                self.store_append_head();
                if self.cfg.checkpoint_interval > 0
                    && block.serial.is_multiple_of(self.cfg.checkpoint_interval)
                {
                    self.capture_checkpoint(block.serial);
                }
                // Rank the new head so same-serial rivals can contest it
                // by election key, and mark it provisional when the
                // election that produced it was under-informed.
                self.head_priority = self
                    .my_claim
                    .clone()
                    .and_then(|c| self.claim_key(&c, self.round));
                if !informed && self.provisional_base.is_none() {
                    self.provisional_base = Some(block.serial);
                }
            }
            Err(_) => self.metrics.append_failures += 1,
        }
        self.metrics.rounds_led += 1;
        let claim = self.my_claim.clone();
        let size = size + claim.as_ref().map_or(0, |_| 96) + 72;
        let header = SignedHeader::create(self.index, round, block.serial, block.hash(), &self.key);
        if mode == ByzantineMode::Equivocate {
            // Double-sign a twin block differing only by timestamp and
            // split the committee: even-indexed peers get the original,
            // odd-indexed the twin. Neither half sees both blocks
            // directly — only the header echoes expose the conflict.
            let twin = Block::build(
                block.serial,
                block.entries.clone(),
                block.prev_hash,
                block.leader,
                block.timestamp + 1,
            );
            let twin_header =
                SignedHeader::create(self.index, round, twin.serial, twin.hash(), &self.key);
            self.metrics.equivocations_sent += 1;
            if self.metrics.first_equivocation_round.is_none() {
                self.metrics.first_equivocation_round = Some(round);
            }
            if self.obs.is_enabled() {
                self.obs.metrics().inc("byzantine.equivocations_sent");
            }
            for g in 0..self.cfg.governors {
                if g == self.index {
                    continue;
                }
                let msg = if g % 2 == 0 {
                    ProtocolMsg::BlockProposal {
                        block: block.clone(),
                        claim: claim.clone(),
                        header: Some(header.clone()),
                    }
                } else {
                    ProtocolMsg::BlockProposal {
                        block: twin.clone(),
                        claim: claim.clone(),
                        header: Some(twin_header.clone()),
                    }
                };
                self.send_governor(ctx, g as usize, "block-proposal", size, msg);
            }
        } else {
            self.broadcast_governors(
                ctx,
                "block-proposal",
                size,
                ProtocolMsg::BlockProposal {
                    block,
                    claim,
                    header: Some(header),
                },
            );
        }
    }

    fn pay_collectors(&mut self, block: &Block) {
        let valid = block
            .entries
            .iter()
            .filter(|e| e.verdict.counts_as_valid())
            .count();
        if valid == 0 {
            return;
        }
        let profit = valid as f64 * self.cfg.profit_per_tx;
        let logs = self.reputation.log_revenue_weights();
        for (c, share) in revenue::distribute(profit, &logs).into_iter().enumerate() {
            self.metrics.revenue_paid[c] += share;
        }
    }

    fn on_block(
        &mut self,
        block: Block,
        claim: Option<ElectionClaim>,
        header: Option<SignedHeader>,
        ctx: &mut Context<'_, ProtocolMsg>,
    ) {
        if block.leader == NodeId::governor(self.index) {
            return; // own proposal echoed back (should not happen)
        }
        if self.expelled.contains(&block.leader.index) {
            // Blocks from a convicted governor are ignored outright; any
            // settled prefix it contributed before conviction stands.
            if self.obs.is_enabled() {
                self.obs.metrics().inc("byzantine.blocks_ignored");
            }
            return;
        }
        let now = ctx.now().ticks();
        // Strictly below the head: a retransmitted or slow duplicate,
        // not an agreement violation.
        if block.serial < self.chain.height() {
            self.metrics.duplicate_blocks += 1;
            return;
        }
        // Same serial as the head: a duplicate, or a head fork — two
        // governors self-elected under message loss and both proposed.
        // Forks resolve by the election's own ordering: the proposal
        // whose verified claim has the smaller (vrf_output, governor)
        // key wins, so every governor converges on the minimum over the
        // claims it saw, exactly as a fully-informed election would.
        if block.serial == self.chain.height() {
            if self.chain.head_hash() == block.hash() {
                self.metrics.duplicate_blocks += 1;
                return;
            }
            let parent_match = self
                .chain
                .retrieve(block.serial.saturating_sub(1))
                .is_some_and(|p| p.hash() == block.prev_hash);
            if !parent_match {
                // The rival disagrees deeper than the head — no local
                // key comparison can rank the chains. Shed whatever of
                // our head suffix is still unconfirmed; if that opens a
                // gap, the block parks and recovery refetches the chain
                // the network agreed on.
                self.rollback_unconfirmed();
                if block.serial > self.chain.height() + 1 {
                    let proposer = block.leader.index;
                    if !self.future_blocks.iter().any(|b| b.serial == block.serial) {
                        self.future_blocks.push(block);
                    }
                    self.start_recovery(Some(proposer), ctx);
                } else {
                    self.metrics.duplicate_blocks += 1;
                }
                return;
            }
            if let Some(key) = self.rival_priority(&block, claim.as_ref()) {
                if self.cfg.verify_blocks && !self.entries_authentic(&block) {
                    self.reject_invalid_block(&block, header.as_ref(), now);
                    return;
                }
                self.pop_head_repool();
                if self.append_and_clean(block, now).is_ok() {
                    // Same parent as the popped head, so the prefix
                    // agrees with the winner: nothing provisional left.
                    self.head_priority = Some(key);
                    self.provisional_base = None;
                }
            } else {
                self.metrics.duplicate_blocks += 1;
            }
            return;
        }
        // A successor built on a different head than ours: the network
        // committed to a rival chain while our head was still
        // unconfirmed. Roll back to the settled prefix; the block then
        // lands past a gap and the ordinary recovery path refetches the
        // winner's blocks. (If the head is settled, nothing pops and the
        // append below fails harmlessly into `append_failures`.)
        if block.serial == self.chain.height() + 1 && block.prev_hash != self.chain.head_hash() {
            self.rollback_unconfirmed();
        }
        // Gap: we missed blocks (e.g. while crashed). Park the block and
        // enter recovery, starting from its proposer.
        if block.serial > self.chain.height() + 1 {
            let proposer = block.leader.index;
            if !self.future_blocks.iter().any(|b| b.serial == block.serial) {
                self.future_blocks.push(block);
            }
            self.start_recovery(Some(proposer), ctx);
            return;
        }
        if self.cfg.verify_blocks && !self.entries_authentic(&block) {
            self.reject_invalid_block(&block, header.as_ref(), now);
            return;
        }
        let proposer = block.leader.index;
        if self.append_and_clean(block, now).is_ok() {
            // A committed successor settles every block beneath it, and
            // the new head is ranked for future same-serial contests.
            self.provisional_base = None;
            self.head_priority = claim
                .filter(|c| c.governor == proposer)
                .and_then(|c| self.claim_key(&c, self.round));
        }
    }

    /// Books a proposed block that failed paranoid entry verification,
    /// and convicts the proposer when the forgery is attributable: a
    /// direct proposal carries the proposer's signed header over this
    /// exact block hash, so signing garbage is self-incriminating to
    /// every governor it was broadcast to. Sync-served blocks carry no
    /// header (any peer could have fabricated the leader field), so they
    /// are rejected without conviction.
    fn reject_invalid_block(&mut self, block: &Block, header: Option<&SignedHeader>, now: u64) {
        self.metrics.append_failures += 1;
        self.metrics.invalid_blocks_rejected += 1;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("byzantine.invalid_blocks_rejected");
        }
        if let Some(h) = header {
            if h.proposer == block.leader.index
                && h.serial == block.serial
                && h.block_hash == block.hash()
                && h.verify(&self.governor_pks)
            {
                self.expel(h.proposer, now);
            }
        }
    }

    /// Records a signed proposal header, echoes first sightings, and
    /// convicts on conflict. The header's own signature is the sole
    /// authority — echoes relayed by untrusted peers carry the proposer's
    /// signature verbatim, so relaying cannot frame anyone.
    fn note_header(&mut self, header: SignedHeader, ctx: &mut Context<'_, ProtocolMsg>) {
        if header.proposer == self.index
            || self.expelled.contains(&header.proposer)
            || !header.verify(&self.governor_pks)
        {
            return;
        }
        let now = ctx.now().ticks();
        // Re-gossip each distinct (proposer, serial, hash) exactly once,
        // so a split-sent conflicting pair reaches every honest governor
        // within one further delivery delay.
        if self
            .echoed
            .insert((header.proposer, header.serial, header.block_hash))
        {
            self.broadcast_governors(
                ctx,
                "header-echo",
                72,
                ProtocolMsg::HeaderEcho {
                    header: header.clone(),
                },
            );
        }
        let key = (header.proposer, header.serial);
        match self.seen_headers.get(&key).cloned() {
            None => {
                self.seen_headers.insert(key, (header, now));
            }
            Some((first, _)) if first.block_hash == header.block_hash => {}
            Some((first, seen_at)) => {
                // Two conflicting signed commitments at one serial:
                // assemble the self-verifying proof, tell everyone, and
                // expel locally.
                let evidence = EquivocationEvidence::new(first, header);
                let Ok(culprit) = evidence.verify(&self.governor_pks) else {
                    return; // defensive; both halves verified above
                };
                self.metrics.evidence_broadcast += 1;
                if self.obs.is_enabled() {
                    self.obs.metrics().inc("byzantine.equivocations_detected");
                    self.obs.metrics().inc("byzantine.evidence_broadcast");
                }
                self.broadcast_governors(ctx, "evidence", 160, ProtocolMsg::Evidence { evidence });
                self.obs.emit(
                    now,
                    self.net_idx(),
                    ObsEvent::EquivocationDetected {
                        culprit: culprit as u64,
                        serial: key.1,
                    },
                );
                self.obs
                    .end_span(Span::begin(phases::DETECTION, seen_at), now, self.net_idx());
                self.expel(culprit, now);
            }
        }
    }

    /// A peer forwarded equivocation evidence: verify both signatures
    /// (the accuser is not trusted) and expel the convicted governor.
    fn on_evidence(&mut self, evidence: EquivocationEvidence, ctx: &mut Context<'_, ProtocolMsg>) {
        let Ok(culprit) = evidence.verify(&self.governor_pks) else {
            return;
        };
        self.metrics.evidence_received += 1;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("byzantine.evidence_received");
        }
        self.expel(culprit, ctx.now().ticks());
    }

    /// Expels `culprit` from this node's committee view: slashes its
    /// stake (so it can never mint another election claim), discards its
    /// live claim, and shrinks the full-claim-set threshold. Idempotent —
    /// concurrent detectors all broadcast evidence, and a culprit
    /// receiving proof against itself expels itself the same way,
    /// keeping every stake table in agreement.
    fn expel(&mut self, culprit: u32, now: u64) {
        if self.expelled.contains(&culprit) {
            return;
        }
        self.expelled.push(culprit);
        self.expelled.sort_unstable();
        self.stake_table.slash(culprit);
        self.claims.retain(|c| c.governor != culprit);
        self.metrics.expulsions += 1;
        self.metrics.expulsion_round.insert(culprit, self.round);
        self.obs.emit(
            now,
            self.net_idx(),
            ObsEvent::GovernorExpelled {
                culprit: culprit as u64,
                round: self.round,
            },
        );
        if self.obs.is_enabled() {
            self.obs.metrics().inc("byzantine.expulsions");
        }
        // Drop the culprit's blocks still sitting at the contestable head:
        // with the proposer convicted of double-signing, neither twin can
        // be trusted, and an equivocation in the final round would
        // otherwise leave the committee split with no successor to force
        // the usual prev-mismatch rollback. Every honest node applies the
        // same rule on the same evidence, so the shed serial is re-proposed
        // by an honest leader and the prefixes reconverge. Settled blocks
        // (those with a successor) are never popped.
        let culprit_id = NodeId::governor(culprit);
        while self
            .chain
            .latest_opt()
            .is_some_and(|b| b.serial > 0 && b.leader == culprit_id)
        {
            self.pop_head_repool();
        }
    }

    /// The election ordering key of `claim`, verified against `round`:
    /// `(vrf_output, governor, round)`. `None` when the claim does not
    /// verify, claims a stake unit the governor does not own, or names
    /// an unknown governor — the VRF binds governor and round, so a
    /// stolen or replayed claim fails here.
    fn claim_key(&self, claim: &ElectionClaim, round: u64) -> Option<(Digest, u32, u64)> {
        if claim.unit >= self.stake_table.stake(claim.governor).unwrap_or(0) {
            return None;
        }
        let pk = self.governor_pks.get(claim.governor as usize)?;
        let out = claim.verify(b"prb-chain", round, pk)?;
        Some((out, claim.governor, round))
    }

    /// Ranks a same-serial rival proposal against the current head,
    /// returning the rival's election key when it genuinely wins: the
    /// head must still be contestable (no committed successor yet), both
    /// proposals must share a parent, and the rival's claim must verify
    /// against the round the head was won in with a strictly smaller
    /// election key.
    fn rival_priority(
        &self,
        block: &Block,
        claim: Option<&ElectionClaim>,
    ) -> Option<(Digest, u32, u64)> {
        let (head_out, head_gov, head_round) = self.head_priority?;
        let claim = claim?;
        if claim.governor != block.leader.index {
            return None;
        }
        let parent = self.chain.retrieve(block.serial.checked_sub(1)?)?;
        if parent.hash() != block.prev_hash {
            return None;
        }
        let (out, gov, round) = self.claim_key(claim, head_round)?;
        ((out, gov) < (head_out, head_gov)).then_some((out, gov, round))
    }

    /// Pops the head block, returning its displaced entries to the ready
    /// pool so a later led round re-records whatever the winning chain
    /// does not already cover (`on_propose` dedups against the ledger).
    fn pop_head_repool(&mut self) {
        let Some(block) = self.chain.pop() else {
            return;
        };
        if let Some(store) = &mut self.store {
            store
                .pop()
                .expect("durable store pop must mirror the chain");
        }
        self.metrics.head_rollbacks += 1;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("sync.rollback");
        }
        if self
            .provisional_base
            .is_some_and(|b| b > self.chain.height())
        {
            self.provisional_base = None;
        }
        self.head_priority = None;
        for e in block.entries {
            if self.chain.find_tx(e.tx.id()).is_none()
                && !self.ready_entries.iter().any(|r| r.tx.id() == e.tx.id())
            {
                self.ready_entries.push(e);
            }
        }
    }

    /// Rolls back every provisional head block — this governor's own
    /// self-proposals made without the full claim set — down to the
    /// settled prefix.
    fn rollback_provisional(&mut self) {
        let Some(base) = self.provisional_base else {
            return;
        };
        while self.chain.height() >= base {
            self.pop_head_repool();
        }
        self.provisional_base = None;
    }

    /// Rolls back the whole unconfirmed head suffix in the face of fork
    /// evidence a key comparison cannot rank: provisional blocks, then
    /// this governor's own-led streak at the head (own blocks with no
    /// foreign successor are exactly the ones the network may have
    /// bypassed), and finally — if nothing else popped — a foreign head
    /// that is still contestable. Settled blocks are never popped, and a
    /// wrongly shed block is simply refetched by the recovery that
    /// follows.
    fn rollback_unconfirmed(&mut self) {
        let me = NodeId::governor(self.index);
        let before = self.metrics.head_rollbacks;
        self.rollback_provisional();
        while self
            .chain
            .latest_opt()
            .is_some_and(|b| b.serial > 0 && b.leader == me)
        {
            self.pop_head_repool();
        }
        if self.metrics.head_rollbacks == before && self.head_priority.is_some() {
            self.pop_head_repool();
        }
    }

    /// Paranoid mode: every entry must carry a genuine provider signature
    /// from a provider linked with at least one reporting collector whose
    /// own signature is also genuine... the provider signature alone
    /// suffices for Almost No Creation, so that is what is checked (the
    /// reported labels are the leader's claim and feed only revenue).
    ///
    /// Signatures the memo does not already know are verified as one
    /// pooled batch instead of entry by entry.
    fn entries_authentic(&mut self, block: &Block) -> bool {
        let well_formed = block.entries.iter().all(|e| {
            e.tx.payload.provider.role == prb_crypto::identity::Role::Provider
                && self.provider_pk(e.tx.payload.provider.index).is_some()
        });
        if !well_formed {
            return false;
        }
        // Batch every signature the memo cannot answer.
        let mut fresh: Vec<(u32, TxId, Sig, Vec<u8>)> = Vec::new();
        let mut seen: HashSet<(u32, TxId, Sig)> = HashSet::new();
        for e in &block.entries {
            let p = e.tx.payload.provider.index;
            let key = (p, e.tx.id(), e.tx.provider_sig.clone());
            if !self.sig_memo.contains_key(&key) && seen.insert(key.clone()) {
                fresh.push((key.0, key.1, key.2, e.tx.signing_bytes()));
            }
        }
        if !fresh.is_empty() {
            if self.obs.is_enabled() {
                self.obs
                    .metrics()
                    .observe("crypto.batch.size", fresh.len() as u64);
                self.obs
                    .metrics()
                    .add("gov.sig_memo_miss", fresh.len() as u64);
            }
            self.metrics.sig_memo_misses += fresh.len() as u64;
            let items: Vec<(&[u8], &Sig, &PublicKey)> = fresh
                .iter()
                .map(|(p, _, sig, msg)| {
                    let pk = self.provider_pk(*p).expect("well-formedness checked");
                    (&msg[..], sig, pk)
                })
                .collect();
            let t0 = self.obs.is_enabled().then(std::time::Instant::now);
            let verdicts = self.verify_pool.verify_sigs(&items);
            if let Some(t0) = t0 {
                self.obs
                    .add_counter("wall.crypto_ns", t0.elapsed().as_nanos() as u64);
            }
            for ((p, id, sig, _), ok) in fresh.into_iter().zip(verdicts) {
                if self.sig_memo.len() >= SIG_MEMO_MAX {
                    self.sig_memo.clear();
                }
                self.sig_memo.insert((p, id, sig), ok);
            }
        }
        block.entries.iter().all(|e| {
            let p = e.tx.payload.provider.index;
            self.verify_provider_sig(p, &e.tx)
        })
    }

    /// Memoized provider-signature verification.
    ///
    /// The same signed transaction is verified at upload and then again,
    /// in paranoid mode, for every governor that re-checks the committed
    /// block carrying it. The verdict is a pure function of the provider's
    /// key and `(tx id, signature)` — the id hashes every signed field
    /// (provider, nonce, timestamp, data) — so it is memoized, turning the
    /// re-checks into map lookups. A forged signature is memoized as
    /// `false` and stays `false`: probes cannot flip a cached verdict.
    fn verify_provider_sig(&mut self, provider: u32, tx: &SignedTx) -> bool {
        let key = (provider, tx.id(), tx.provider_sig.clone());
        if let Some(&ok) = self.sig_memo.get(&key) {
            self.metrics.sig_memo_hits += 1;
            if self.obs.is_enabled() {
                self.obs.metrics().inc("gov.sig_memo_hit");
            }
            return ok;
        }
        let ok = self.provider_pk(provider).is_some_and(|pk| tx.verify(pk));
        self.metrics.sig_memo_misses += 1;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("gov.sig_memo_miss");
        }
        if self.sig_memo.len() >= SIG_MEMO_MAX {
            self.sig_memo.clear();
        }
        self.sig_memo.insert(key, ok);
        ok
    }

    /// Appends `block` and drops local buffers it covers. On failure the
    /// typed [`ChainError`] names exactly which integrity check rejected
    /// the block (callers on the sync path surface its
    /// [`ChainError::kind`] in the rejection metrics).
    fn append_and_clean(&mut self, block: Block, now: u64) -> Result<(), ChainError> {
        let included: HashSet<TxId> = block.entries.iter().map(|e| e.tx.id()).collect();
        let (serial, entries) = (block.serial, block.entries.len() as u64);
        let traces: Vec<u64> = if self.obs.is_enabled() {
            block.entries.iter().map(|e| e.tx.id().trace()).collect()
        } else {
            Vec::new()
        };
        match self.chain.append(block) {
            Ok(()) => {
                self.metrics.blocks_appended += 1;
                self.obs.emit(
                    now,
                    self.net_idx(),
                    ObsEvent::BlockCommitted { serial, entries },
                );
                for trace in traces {
                    self.obs
                        .emit(now, self.net_idx(), ObsEvent::TxCommitted { trace, serial });
                }
                if let Some(span) = self.commit_span.take() {
                    self.obs.end_span(span, now, self.net_idx());
                }
                self.store_append_head();
                if self.cfg.checkpoint_interval > 0 && serial % self.cfg.checkpoint_interval == 0 {
                    self.capture_checkpoint(serial);
                }
            }
            Err(e) => {
                self.metrics.append_failures += 1;
                return Err(e);
            }
        }
        // Drop local buffers covered by the leader's block.
        self.ready_entries
            .retain(|e| !included.contains(&e.tx.id()));
        self.argued_entries
            .retain(|e| !included.contains(&e.tx.id()));
        Ok(())
    }

    /// Enters the `Recovering` state (no-op when already recovering or
    /// when there is no peer to ask) and sends the first page request.
    /// `preferred` names the peer to try first — the proposer of the
    /// block that exposed the gap, when known.
    fn start_recovery(&mut self, preferred: Option<u32>, ctx: &mut Context<'_, ProtocolMsg>) {
        if matches!(self.sync, SyncState::Recovering { .. }) || self.cfg.governors < 2 {
            return;
        }
        // A provisional head would shadow the peer's settled block at the
        // same serial (incoming pages skip serials we "already have") —
        // roll it back first; recovery refetches the agreed truth.
        self.rollback_provisional();
        let now = ctx.now().ticks();
        let peer = preferred
            .filter(|&p| p != self.index && p < self.cfg.governors)
            .unwrap_or_else(|| self.sync_peer(0));
        self.sync = SyncState::Recovering {
            attempt: 0,
            peer,
            since: now,
        };
        self.metrics.sync_requested += 1;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("sync.requested");
        }
        self.recovery_span = Some(Span::begin(phases::RECOVERY, now));
        self.send_sync_request(peer, ctx);
    }

    /// The peer asked on rotation `attempt`: cycles over the other
    /// governors starting just past this one's own index.
    fn sync_peer(&self, attempt: u32) -> u32 {
        let m = self.cfg.governors;
        let mut peer = (self.index + 1 + attempt) % m;
        if peer == self.index {
            peer = (peer + 1) % m;
        }
        peer
    }

    /// Sends one page request to `peer` and arms the rotation timer.
    fn send_sync_request(&mut self, peer: u32, ctx: &mut Context<'_, ProtocolMsg>) {
        let have = self.chain.height();
        ctx.send_sized(
            self.governor_base + peer as usize,
            "sync-request",
            16,
            ProtocolMsg::SyncRequest { have },
        );
        if let SyncState::Recovering { attempt, .. } = self.sync {
            // Deadline for the page: a request/response round trip plus
            // slack. No response (crashed peer, lost message) rotates.
            let timer = ctx.set_timer(SimDuration(4 * self.cfg.max_delay + 4));
            self.sync_timers.insert(timer, (attempt, have));
        }
    }

    /// A rotation timer fired: if the recovery it belongs to is still
    /// stalled at the same attempt and height, try the next peer.
    fn on_sync_timer(
        &mut self,
        attempt: u32,
        height_at_arm: u64,
        ctx: &mut Context<'_, ProtocolMsg>,
    ) {
        let SyncState::Recovering {
            attempt: current,
            peer,
            since,
        } = self.sync
        else {
            return; // recovery already completed
        };
        if current != attempt || self.chain.height() != height_at_arm {
            // Progress since this timer was armed. A sync page always
            // re-requests (arming a fresh timer), but progress from a
            // normally-appended block does not — if no other rotation
            // timer is pending, probe the current peer again so the
            // rotation chain survives instead of going zombie.
            if self.sync_timers.is_empty() {
                self.send_sync_request(peer, ctx);
            }
            return;
        }
        let next = attempt + 1;
        if next >= MAX_SYNC_ATTEMPTS {
            self.abandon_recovery();
            return;
        }
        let peer = self.sync_peer(next);
        self.sync = SyncState::Recovering {
            attempt: next,
            peer,
            since,
        };
        self.send_sync_request(peer, ctx);
    }

    /// Gives up on the current recovery (every rotation went
    /// unanswered). The next observed gap re-triggers it.
    fn abandon_recovery(&mut self) {
        self.sync = SyncState::Synced;
        self.recovery_span = None;
        self.metrics.sync_abandoned += 1;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("sync.abandoned");
        }
    }

    fn on_sync_request(
        &mut self,
        have: u64,
        requester: NodeIdx,
        ctx: &mut Context<'_, ProtocolMsg>,
    ) {
        // Always respond — an empty page still tells the requester this
        // peer's head, letting it finish (or re-aim) its recovery.
        let head = self.chain.height();
        let blocks: Vec<Block> = ((have + 1)..=head)
            .take(self.cfg.sync_page)
            .filter_map(|s| self.chain.retrieve(s).cloned())
            .collect();
        // Offer the latest checkpoint certificate when the requester is
        // behind it: adopting it lets the peer skip every pre-checkpoint
        // page and fetch only the suffix (O(delta) state-sync).
        let cert = self
            .latest_cert
            .as_ref()
            .filter(|c| c.state.serial > have)
            .map(|c| Box::new(c.clone()));
        let size = 80
            + 96 * blocks.iter().map(Block::tx_count).sum::<usize>()
            + cert
                .as_ref()
                .map_or(0, |c| 104 + 16 * c.state.stakes.len() + 96 * c.sigs.len());
        ctx.send_sized(
            requester,
            "sync-response",
            size,
            ProtocolMsg::SyncResponse { blocks, head, cert },
        );
        self.metrics.sync_served += 1;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("sync.served");
        }
    }

    fn on_sync_response(
        &mut self,
        blocks: Vec<Block>,
        head: u64,
        cert: Option<Box<CheckpointCert>>,
        from: NodeIdx,
        ctx: &mut Context<'_, ProtocolMsg>,
    ) {
        let now = ctx.now().ticks();
        let before = self.chain.height();
        // A certificate offer is handled first: adopting it re-anchors
        // the chain past every page the peer would otherwise have to
        // serve. A stale or invalid offer is rejected (counted) and the
        // plain block path below proceeds unaffected.
        if let Some(cert) = cert {
            self.maybe_adopt_checkpoint(*cert, now);
        }
        let before_page = self.chain.height();
        for block in blocks {
            if block.serial != self.chain.height() + 1 {
                continue; // stale page or duplicate
            }
            if block.prev_hash != self.chain.head_hash() {
                // The peer's settled chain disagrees with our head: fork
                // evidence discovered mid-recovery. Shed the unconfirmed
                // suffix; the follow-up page request (our new, lower
                // height) refetches from the divergence point.
                self.rollback_unconfirmed();
                if block.serial != self.chain.height() + 1 {
                    continue;
                }
            }
            if self.cfg.verify_blocks && !self.entries_authentic(&block) {
                self.metrics.append_failures += 1;
                continue;
            }
            match self.append_and_clean(block, now) {
                Ok(()) => {
                    // Sync-applied blocks come from a peer's settled chain.
                    self.head_priority = None;
                    self.provisional_base = None;
                    self.metrics.sync_applied += 1;
                    if self.obs.is_enabled() {
                        self.obs.metrics().inc("sync.applied");
                    }
                }
                Err(e) => {
                    // Surface exactly which integrity check rejected the
                    // page block — a corrupt or byzantine sync payload is
                    // visible in the metrics, never silently dropped.
                    *self.metrics.sync_rejected.entry(e.kind()).or_default() += 1;
                    if self.obs.is_enabled() {
                        self.obs.metrics().inc("sync.rejected");
                    }
                }
            }
        }
        if self.metrics.adopted_serial > 0 && self.chain.height() > before_page {
            // O(delta) accounting: pages that contributed blocks after
            // the most recent checkpoint adoption.
            self.metrics.pages_after_adopt += 1;
        }
        // Drain any parked blocks that now fit.
        self.future_blocks.sort_by_key(|b| b.serial);
        let parked = std::mem::take(&mut self.future_blocks);
        for block in parked {
            if block.serial == self.chain.height() + 1 {
                if self.append_and_clean(block, now).is_ok() {
                    self.head_priority = None;
                    self.provisional_base = None;
                }
            } else if block.serial > self.chain.height() + 1 {
                self.future_blocks.push(block);
            }
        }
        let SyncState::Recovering { attempt, since, .. } = self.sync else {
            return; // unsolicited (e.g. a late page after completion)
        };
        if self.chain.height() < head {
            // More pages remain. Page progress resets the rotation
            // counter and keeps asking the peer that just answered; a
            // pageless response (peer cannot help) rotates.
            let progressed = self.chain.height() > before;
            let next = if progressed { 0 } else { attempt + 1 };
            if next >= MAX_SYNC_ATTEMPTS {
                self.abandon_recovery();
                return;
            }
            // Checked committee-offset conversion: a responder outside
            // the governor range (or past u32 on exotic layouts) must
            // rotate, never silently truncate into a bogus peer index.
            let responder = from
                .checked_sub(self.governor_base)
                .and_then(|off| u32::try_from(off).ok())
                .filter(|&g| g < self.cfg.governors);
            let peer = match responder {
                Some(g) if progressed => g,
                _ => self.sync_peer(next),
            };
            self.sync = SyncState::Recovering {
                attempt: next,
                peer,
                since,
            };
            self.send_sync_request(peer, ctx);
        } else {
            // Caught up to the responder's head: recovery complete.
            self.sync = SyncState::Synced;
            self.metrics.sync_recovered += 1;
            self.metrics.recovery_ticks.push(now.saturating_sub(since));
            if self.obs.is_enabled() {
                self.obs.metrics().inc("sync.recovered");
                self.obs
                    .metrics()
                    .observe("sync.recovery_ticks", now.saturating_sub(since));
            }
            if let Some(span) = self.recovery_span.take() {
                self.obs.end_span(span, now, self.net_idx());
            }
            // Parked blocks past a *new* gap (committed while we paged):
            // chase that gap immediately.
            if let Some(next_gap) = self.future_blocks.iter().min_by_key(|b| b.serial) {
                let proposer = next_gap.leader.index;
                self.start_recovery(Some(proposer), ctx);
            }
        }
    }

    /// Applies a signed stake transfer broadcast during the round.
    ///
    /// Every governor receives the same transfer set (atomic broadcast)
    /// and applies the same validation deterministically, so the stake
    /// tables stay in agreement; the 3-step signed stake-block protocol
    /// that certifies the resulting state is exercised separately in
    /// `prb-consensus` (this path keeps the election weights live).
    fn on_stake_transfer(&mut self, transfer: StakeTransfer, _ctx: &mut Context<'_, ProtocolMsg>) {
        if self.expelled.contains(&transfer.from) || self.expelled.contains(&transfer.to) {
            return; // expelled governors are out of the stake economy
        }
        let Some(sender_pk) = self.governor_pks.get(transfer.from as usize) else {
            return;
        };
        if !transfer.verify(sender_pk) {
            return;
        }
        let _ = self.stake_table.apply(&transfer);
    }

    /// Stamps an `ArgueRejected` event (provider resolved from history
    /// where possible).
    fn emit_argue_rejected(&self, now: u64, id: TxId, reason: &'static str) {
        let provider = self
            .history
            .get(&id)
            .map_or(u64::MAX, |r| r.provider as u64);
        self.obs.emit(
            now,
            self.net_idx(),
            ObsEvent::ArgueRejected { provider, reason },
        );
    }

    fn on_argue(&mut self, id: TxId, ctx: &mut Context<'_, ProtocolMsg>) {
        let now = ctx.now().ticks();
        if self.revealed.contains(&id) {
            self.emit_argue_rejected(now, id, "duplicate");
            return;
        }
        let Some(record) = self.history.get(&id) else {
            self.emit_argue_rejected(now, id, "unknown-tx");
            return; // never screened here
        };
        let Outcome::Unchecked {
            recorded: Label::Invalid,
            index,
        } = record.outcome
        else {
            self.emit_argue_rejected(now, id, "not-unchecked");
            return; // only invalid-unchecked records can be argued
        };
        let provider = record.provider;
        let current = self.unchecked_counter.get(&provider).copied().unwrap_or(0);
        if current.saturating_sub(index) > self.cfg.argue_limit_u {
            // Buried under more than U unchecked transactions: permanently
            // invalid (§3.1).
            self.metrics.argue_rejected += 1;
            self.emit_argue_rejected(now, id, "bound");
            if self.oracle.borrow().peek(id) == Some(true) {
                self.metrics.lost_valid += 1;
            }
            return;
        }
        // "Governors will immediately verify this transaction."
        let valid = self.oracle.borrow().validate(id);
        self.metrics.validations += 1;
        self.metrics.argue_accepted += 1;
        self.obs.emit(
            now,
            self.net_idx(),
            ObsEvent::ArgueAccepted {
                provider: provider as u64,
            },
        );
        if let Some(&t0) = self.screened_at.get(&id) {
            self.obs
                .end_span(Span::begin(phases::ARGUE, t0), now, self.net_idx());
        }
        if valid {
            let record = &self.history[&id];
            self.argued_entries.push(BlockEntry {
                tx: record.ltx.tx.clone(),
                verdict: Verdict::ArguedValid,
                reported_labels: label_pairs(&record.reports),
            });
        }
        self.reveal_internal(id, valid, now);
    }

    fn on_reveal(&mut self, id: TxId, valid: bool, now: u64) {
        if self.revealed.contains(&id) {
            return;
        }
        let Some(record) = self.history.get(&id) else {
            return;
        };
        if !matches!(record.outcome, Outcome::Unchecked { .. }) {
            return; // checked transactions are already settled
        }
        self.reveal_internal(id, valid, now);
    }

    /// Case 3 plus loss accounting for a now-revealed unchecked tx.
    fn reveal_internal(&mut self, id: TxId, valid: bool, now: u64) {
        self.revealed.insert(id);
        let record = self.history[&id].clone();
        let provider = record.provider;
        let mut revealed_reports = Vec::new();
        let mut involvements = Vec::new();
        let mut reporters = HashSet::new();
        for (c, label) in &record.reports {
            reporters.insert(*c);
            let slot = self
                .topology
                .provider_slot(*c, provider)
                .expect("reporter is linked");
            let behaviour = if label.is_valid() == valid {
                RevealedBehaviour::Correct
            } else {
                RevealedBehaviour::Wrong
            };
            involvements.push((
                *c,
                if behaviour == RevealedBehaviour::Wrong {
                    2.0
                } else {
                    0.0
                },
            ));
            revealed_reports.push(RevealedReport {
                collector: *c as usize,
                provider_slot: slot,
                behaviour,
            });
        }
        for &c in self.topology.collectors_of(provider) {
            if !self
                .collector_active
                .get(c as usize)
                .copied()
                .unwrap_or(true)
                || record.absent.contains(&c)
            {
                // Departed collectors owe no report; neither does a
                // member that was absent when the tx was screened,
                // however long ago it rejoined.
                continue;
            }
            if !reporters.contains(&c) {
                let slot = self
                    .topology
                    .provider_slot(c, provider)
                    .expect("linked by construction");
                involvements.push((c, 1.0));
                revealed_reports.push(RevealedReport {
                    collector: c as usize,
                    provider_slot: slot,
                    behaviour: RevealedBehaviour::Missed,
                });
            }
        }
        let out = self.reputation.record_revealed(&revealed_reports);
        let recorded_wrong = match record.outcome {
            Outcome::Unchecked { recorded, .. } => recorded.is_valid() != valid,
            Outcome::Checked { .. } => false,
        };
        self.obs.emit(
            now,
            self.net_idx(),
            ObsEvent::Revealed {
                valid,
                verdict_correct: !recorded_wrong,
            },
        );
        if let Some(t0) = self.screened_at.remove(&id) {
            self.obs
                .end_span(Span::begin(phases::REVEAL, t0), now, self.net_idx());
        }
        self.metrics
            .record_reveal(provider, out.l_tx, recorded_wrong, involvements);
    }
}

fn label_pairs(reports: &[(u32, Label)]) -> Vec<(NodeId, Label)> {
    reports
        .iter()
        .map(|(c, l)| (NodeId::collector(*c), *l))
        .collect()
}

#[cfg(test)]
mod fork_tests {
    //! Direct tests of the head-fork resolution helpers: election-key
    //! ranking of rival proposals, and the rollback paths that shed
    //! provisional or own-led head blocks before recovery refetches the
    //! settled chain.

    use super::*;
    use prb_crypto::signer::CryptoScheme;
    use prb_ledger::transaction::TxPayload;

    const TAG: &[u8] = b"prb-chain";

    fn rig(governors: u32) -> (Vec<KeyPair>, GovernorNode) {
        let cfg = ProtocolConfig {
            governors,
            seed: 7,
            ..Default::default()
        };
        let scheme = CryptoScheme::sim();
        let keys: Vec<KeyPair> = (0..governors)
            .map(|g| scheme.keypair_from_seed(format!("fork-g{g}").as_bytes()))
            .collect();
        let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
        let topology = Rc::new(Topology::cyclic(cfg.topology_params()).unwrap());
        let oracle = Rc::new(RefCell::new(ValidityOracle::new()));
        let gov = GovernorNode::new(
            0,
            keys[0].clone(),
            cfg,
            topology,
            oracle,
            0,
            Vec::new(),
            Vec::new(),
            pks,
        );
        (keys, gov)
    }

    fn entry(nonce: u64, key: &KeyPair) -> BlockEntry {
        let tx = SignedTx::create(
            TxPayload {
                provider: NodeId::provider(0),
                nonce,
                data: vec![1],
            },
            1,
            key,
        );
        BlockEntry {
            tx,
            verdict: Verdict::CheckedValid,
            reported_labels: Vec::new(),
        }
    }

    fn claim_for(gov: &GovernorNode, keys: &[KeyPair], g: u32, round: u64) -> ElectionClaim {
        let stake = gov.stake_table.stake(g).unwrap();
        ElectionClaim::compute(TAG, round, g, stake, &keys[g as usize]).unwrap()
    }

    #[test]
    fn claim_key_enforces_stake_round_and_proof() {
        let (keys, gov) = rig(2);
        let claim = claim_for(&gov, &keys, 1, 3);
        assert!(gov.claim_key(&claim, 3).is_some());
        // The VRF proof binds the round it was computed for.
        assert!(gov.claim_key(&claim, 4).is_none());
        // A unit at or past the governor's stake mints no lottery ticket.
        let mut over = claim.clone();
        over.unit = gov.stake_table.stake(1).unwrap();
        assert!(gov.claim_key(&over, 3).is_none());
        // A claim evaluated under a foreign key fails verification.
        let stake = gov.stake_table.stake(1).unwrap();
        let forged = ElectionClaim::compute(TAG, 3, 1, stake, &keys[0]).unwrap();
        assert!(gov.claim_key(&forged, 3).is_none());
    }

    #[test]
    fn rival_priority_contests_only_smaller_keys_on_contestable_heads() {
        let (keys, mut gov) = rig(2);
        let round = 1;
        let claim0 = claim_for(&gov, &keys, 0, round);
        let claim1 = claim_for(&gov, &keys, 1, round);
        let key0 = gov.claim_key(&claim0, round).unwrap();
        let key1 = gov.claim_key(&claim1, round).unwrap();
        assert_ne!(key0, key1);
        let parent = gov.chain.latest().hash();
        gov.chain
            .append(Block::build(1, Vec::new(), parent, NodeId::governor(0), 10))
            .unwrap();
        // Orient by the actual VRF ordering so both directions are covered.
        let (small_key, small_claim, small_gov, big_key, big_claim, big_gov) = if key0 < key1 {
            (key0, claim0, 0, key1, claim1, 1)
        } else {
            (key1, claim1, 1, key0, claim0, 0)
        };
        let small_block = Block::build(1, Vec::new(), parent, NodeId::governor(small_gov), 11);
        let big_block = Block::build(1, Vec::new(), parent, NodeId::governor(big_gov), 11);
        // A head held under the larger key loses to the smaller rival...
        gov.head_priority = Some(big_key);
        assert_eq!(
            gov.rival_priority(&small_block, Some(&small_claim)),
            Some(small_key)
        );
        // ...but a head already under the smaller key beats the larger rival.
        gov.head_priority = Some(small_key);
        assert!(gov.rival_priority(&big_block, Some(&big_claim)).is_none());
        // A settled head (priority None) is never contested.
        gov.head_priority = None;
        assert!(gov
            .rival_priority(&small_block, Some(&small_claim))
            .is_none());
        // A claim by anyone but the block's leader is ignored.
        gov.head_priority = Some(big_key);
        assert!(gov.rival_priority(&small_block, Some(&big_claim)).is_none());
        // A rival built on a different parent cannot be ranked.
        let mut off_parent = small_block;
        off_parent.prev_hash = Digest::default();
        assert!(gov
            .rival_priority(&off_parent, Some(&small_claim))
            .is_none());
    }

    #[test]
    fn pop_head_repool_returns_uncommitted_entries_to_the_pool() {
        let (keys, mut gov) = rig(2);
        let e = entry(0, &keys[0]);
        let parent = gov.chain.latest().hash();
        gov.chain
            .append(Block::build(
                1,
                vec![e.clone()],
                parent,
                NodeId::governor(0),
                5,
            ))
            .unwrap();
        gov.pop_head_repool();
        assert_eq!(gov.chain.height(), 0);
        assert_eq!(gov.metrics.head_rollbacks, 1);
        assert!(gov.head_priority.is_none());
        assert!(gov.ready_entries.iter().any(|r| r.tx.id() == e.tx.id()));
        // Popping again stops at genesis and counts nothing.
        gov.pop_head_repool();
        assert_eq!(gov.chain.height(), 0);
        assert_eq!(gov.metrics.head_rollbacks, 1);
    }

    #[test]
    fn rollback_unconfirmed_sheds_provisional_and_own_led_suffix() {
        let (_keys, mut gov) = rig(2);
        // serial 1: foreign block; serials 2-3: own-led, 3 provisional.
        let parent = gov.chain.latest().hash();
        gov.chain
            .append(Block::build(1, Vec::new(), parent, NodeId::governor(1), 5))
            .unwrap();
        let h1 = gov.chain.latest().hash();
        gov.chain
            .append(Block::build(2, Vec::new(), h1, NodeId::governor(0), 6))
            .unwrap();
        let h2 = gov.chain.latest().hash();
        gov.chain
            .append(Block::build(3, Vec::new(), h2, NodeId::governor(0), 7))
            .unwrap();
        gov.provisional_base = Some(3);
        gov.rollback_unconfirmed();
        // The provisional head and the own-led block under it are shed; the
        // foreign block survives as the new head.
        assert_eq!(gov.chain.height(), 1);
        assert!(gov.provisional_base.is_none());
        assert_eq!(gov.metrics.head_rollbacks, 2);
    }

    #[test]
    fn expel_slashes_discards_claims_and_is_idempotent() {
        let (keys, mut gov) = rig(3);
        gov.round = 4;
        gov.claims.push(claim_for(&gov, &keys, 1, 4));
        gov.claims.push(claim_for(&gov, &keys, 2, 4));
        gov.expel(1, 100);
        assert_eq!(gov.expelled(), &[1]);
        assert_eq!(gov.stake_table.stake(1), Some(0));
        assert!(gov.claims.iter().all(|c| c.governor != 1));
        assert_eq!(gov.claims.len(), 1);
        assert_eq!(gov.metrics.expulsions, 1);
        assert_eq!(gov.metrics.expulsion_round[&1], 4);
        // A second conviction of the same governor changes nothing.
        gov.expel(1, 200);
        assert_eq!(gov.expelled(), &[1]);
        assert_eq!(gov.metrics.expulsions, 1);
        // A slashed governor can no longer mint election claims.
        assert!(
            ElectionClaim::compute(TAG, 5, 1, gov.stake_table.stake(1).unwrap(), &keys[1])
                .is_none()
        );
    }

    #[test]
    fn rollback_unconfirmed_pops_one_contestable_foreign_head() {
        let (keys, mut gov) = rig(2);
        let parent = gov.chain.latest().hash();
        gov.chain
            .append(Block::build(1, Vec::new(), parent, NodeId::governor(1), 5))
            .unwrap();
        // A settled foreign head is left alone: no fork evidence applies.
        gov.rollback_unconfirmed();
        assert_eq!(gov.chain.height(), 1);
        // A contestable foreign head (priority still tracked) is popped so
        // recovery can refetch whichever proposal the network agreed on.
        let claim = claim_for(&gov, &keys, 1, 1);
        gov.head_priority = gov.claim_key(&claim, 1);
        assert!(gov.head_priority.is_some());
        gov.rollback_unconfirmed();
        assert_eq!(gov.chain.height(), 0);
        assert_eq!(gov.metrics.head_rollbacks, 1);
    }
}
