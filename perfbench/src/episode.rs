//! The three workloads and the fixed-size episode each run is made of.
//!
//! An episode is one deployment built from the seed, a few warm-up rounds,
//! a fixed number of timed rounds, and drain rounds. Every count in it is
//! a function of the seed alone (the nodes run on a seeded simulated
//! clock), so two episodes of one seed commit byte-identical ledgers and
//! only the wall-clock marks differ.
//!
//! Inputs come from outside the program: the closed loops receive
//! transactions from [`Pregenerated`], a [`Workload`] filled before the
//! deployment runs, and open-sim receives [`Arrival`]s generated and
//! signed before the timed window. Generation time is kept apart from
//! set-up time.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prb_core::config::{ProtocolConfig, RevealPolicy};
use prb_core::governor::GovernorNode;
use prb_core::scale::{Arrival, ScaleSim};
use prb_core::sim::Simulation;
use prb_core::workload::{GeneratedTx, Workload};
use prb_crypto::signer::CryptoScheme;
use prb_ledger::block::Verdict;
use prb_ledger::chain::Chain;
use prb_net::fault::FaultPlan;
use prb_net::stats::MessageStats;
use prb_net::topology::Topology;
use prb_obs::ObsHandle;
use prb_workload::{AdversaryMix, ScaleWorkload};

use crate::reference;

/// Payload bytes of every generated transaction; the payload doubles as
/// the benchmark's key for finding a transaction in the ledger.
pub const PAYLOAD_LEN: usize = 32;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop, 2048-bit MODP Schnorr and VRF: crypto-bound.
    ClosedModp,
    /// Open loop through `ScaleSim`, sim crypto: framework-bound.
    OpenSim,
    /// Closed loop with a durable store, loss and misreporting
    /// collectors: store- and reputation-bound.
    DurableFaults,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::ClosedModp, Kind::OpenSim, Kind::DurableFaults];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ClosedModp => "closed-modp",
            Kind::OpenSim => "open-sim",
            Kind::DurableFaults => "durable-faults",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The fixed size of one episode. On a 2-core host one episode's
    /// window lasts 2–7 s, so a 25 s run averages over several episodes,
    /// and an interval is one to two seconds of timed rounds.
    pub fn shape(self) -> Shape {
        match self {
            Kind::ClosedModp => Shape {
                warmup_rounds: 2,
                rounds: 16,
                interval_rounds: 4,
                drain_rounds: 2,
                settle_rounds: 0,
            },
            Kind::OpenSim => Shape {
                warmup_rounds: 2,
                rounds: 16,
                interval_rounds: 4,
                drain_rounds: 32,
                settle_rounds: 0,
            },
            Kind::DurableFaults => Shape {
                warmup_rounds: 2,
                rounds: 120,
                interval_rounds: 60,
                drain_rounds: 3,
                settle_rounds: 5,
            },
        }
    }

    /// Whether the deployment persists blocks through `prb-store`.
    pub fn has_store(self) -> bool {
        self == Kind::DurableFaults
    }

    fn config(self, seed: u64, store_dir: Option<PathBuf>) -> ProtocolConfig {
        match self {
            Kind::ClosedModp => ProtocolConfig {
                providers: 4,
                collectors: 4,
                governors: 4,
                replication: 2,
                tx_per_provider: 2,
                verify_blocks: true,
                crypto: CryptoScheme::schnorr_2048(),
                seed,
                ..Default::default()
            },
            Kind::OpenSim => {
                let collectors = 50;
                let replication = 2;
                let b_limit = 4096;
                ProtocolConfig {
                    providers: 10_000,
                    collectors,
                    governors: 4,
                    replication,
                    b_limit,
                    tx_per_provider: 0,
                    open_loop: true,
                    reveal: RevealPolicy::ArgueOnly,
                    // Each collector's mempool holds its share of one block,
                    // as in E15.
                    mempool_capacity: (b_limit * replication as usize)
                        .div_ceil(collectors as usize),
                    seed,
                    ..Default::default()
                }
            }
            Kind::DurableFaults => ProtocolConfig {
                governors: 5,
                reliable_delivery: true,
                checkpoint_interval: 4,
                reveal: RevealPolicy::AfterRounds(1),
                store_dir,
                seed,
                ..Default::default()
            },
        }
    }

    /// Share of generated transactions that are genuinely invalid.
    fn invalid_rate(self) -> f64 {
        match self {
            Kind::DurableFaults => 0.3,
            Kind::ClosedModp | Kind::OpenSim => 0.0,
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Open-sim's offered load, transactions per simulated tick: below the
/// E15 knee of 24–32, so nothing is shed.
pub const OPEN_RATE: f64 = 16.0;
/// Open-sim's pool of real signing identities behind the interned
/// providers.
pub const OPEN_SIGNER_POOL: u32 = 64;
/// Durable-faults' uniform message-drop probability.
pub const DURABLE_DROP: f64 = 0.1;

/// Round counts of one episode.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Rounds that fill lazy state; part of set-up time.
    pub warmup_rounds: u32,
    /// Timed rounds.
    pub rounds: u32,
    /// Timed rounds per measurement interval (a divisor of `rounds`).
    pub interval_rounds: u32,
    /// Upper bound on the arrival-free rounds after the window.
    pub drain_rounds: u32,
    /// Extra round lengths of simulated time after the drain, so
    /// retransmissions and sync pages land.
    pub settle_rounds: u32,
}

/// What the benchmark knows about one transaction it handed in.
#[derive(Clone, Copy, Debug)]
pub struct TxMeta {
    /// 1-based driver round whose `run_round` handed it to the system.
    pub round: u32,
    /// Ground-truth validity.
    pub valid: bool,
}

/// The closed-loop transaction source: every transaction of the episode,
/// generated from the benchmark's seed before the deployment runs.
#[derive(Debug)]
pub struct Pregenerated {
    queue: VecDeque<(u64, u32, GeneratedTx)>,
}

impl Workload for Pregenerated {
    fn next_tx(&mut self, provider: u32, round: u64, _rng: &mut StdRng) -> GeneratedTx {
        let (r, p, tx) = self
            .queue
            .pop_front()
            .expect("the benchmark generates every round it runs");
        assert_eq!((r, p), (round, provider), "driver asked out of order");
        tx
    }

    fn name(&self) -> &str {
        "perfbench"
    }
}

/// A deployment under test.
#[derive(Debug)]
pub enum Deployment {
    /// Closed-loop driver with provider actors.
    Closed(Box<Simulation>),
    /// Open-loop driver with interned providers.
    Open(Box<ScaleSim>),
}

impl Deployment {
    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        match self {
            Deployment::Closed(s) => s.config(),
            Deployment::Open(s) => s.config(),
        }
    }

    /// Governor `g`.
    pub fn governor(&self, g: u32) -> &GovernorNode {
        match self {
            Deployment::Closed(s) => s.governor(g),
            Deployment::Open(s) => s.governor(g),
        }
    }

    /// Governor 0's chain.
    pub fn chain(&self) -> &Chain {
        self.governor(0).chain()
    }

    /// The provider–collector wiring.
    pub fn topology(&self) -> &Topology {
        match self {
            Deployment::Closed(s) => s.topology(),
            Deployment::Open(s) => s.topology(),
        }
    }

    /// Network traffic counters.
    pub fn net_stats(&self) -> &MessageStats {
        match self {
            Deployment::Closed(s) => s.net_stats(),
            Deployment::Open(s) => s.net_stats(),
        }
    }

    /// Installs an observability hub on every node.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        match self {
            Deployment::Closed(s) => s.set_obs(obs),
            Deployment::Open(s) => s.set_obs(obs),
        }
    }

    /// Whether every governor holds governor 0's chain.
    pub fn chains_agree(&self) -> bool {
        match self {
            Deployment::Closed(s) => s.chains_agree(),
            Deployment::Open(s) => s.chains_agree(),
        }
    }
}

/// Wall-clock marks of one driver round.
#[derive(Clone, Copy, Debug)]
pub struct RoundMark {
    /// When the benchmark called `run_round`.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Governor 0's chain height afterwards.
    pub height: u64,
}

/// Observes an episode at its phase boundaries (the traced run installs
/// its hub and takes counter snapshots here).
pub trait Probe {
    /// The deployment is built; no round has run.
    fn constructed(&mut self, _dep: &mut Deployment) {}
    /// The warm-up rounds are done; the timed window starts.
    fn window_start(&mut self, _dep: &Deployment) {}
    /// The timed window ended; drain follows.
    fn window_end(&mut self, _dep: &Deployment) {}
}

/// The probe of an untraced run.
#[derive(Debug)]
pub struct NoProbe;

impl Probe for NoProbe {}

/// One finished episode.
#[derive(Debug)]
pub struct Episode {
    /// The workload.
    pub kind: Kind,
    /// Deployment construction plus warm-up rounds, seconds.
    pub setup_s: f64,
    /// Reference-loop times (ms) just before and just after the set-up.
    pub setup_refs_ms: Vec<f64>,
    /// Input generation, seconds (excluded from set-up and window).
    pub gen_s: f64,
    /// One mark per driver round: warm-up, window, drain, then one for
    /// the settle period when the shape has one.
    pub marks: Vec<RoundMark>,
    /// Mark indices of the timed rounds.
    pub window: std::ops::Range<usize>,
    /// Reference-loop times (ms) before each timed round and after the
    /// last one.
    pub refs_ms: Vec<f64>,
    /// Every transaction handed in, keyed by payload.
    pub inputs: HashMap<[u8; PAYLOAD_LEN], TxMeta>,
    /// The deployment after drain.
    pub dep: Deployment,
    /// The durable store's directory, if any.
    pub store_dir: Option<PathBuf>,
}

/// Builds a deployment and runs one episode of `kind` on `seed`.
/// With `setup_only` the episode stops after the warm-up rounds.
///
/// # Panics
///
/// Panics when the deployment cannot be built or a store directory
/// cannot be prepared; both are benchmark set-up failures.
pub fn run_episode(
    kind: Kind,
    seed: u64,
    work_dir: &Path,
    setup_only: bool,
    probe: &mut dyn Probe,
) -> Episode {
    let shape = kind.shape();
    let store_dir = kind.has_store().then(|| {
        let dir = work_dir.join(format!("store-{}-{seed}", kind.name()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear the previous episode's store");
        }
        std::fs::create_dir_all(&dir).expect("create the store directory");
        dir
    });
    let cfg = kind.config(seed, store_dir.clone());
    let load_rounds = shape.warmup_rounds + if setup_only { 0 } else { shape.rounds };
    let mut inputs = HashMap::new();
    // Open-sim's arrivals per round, last round first.
    let mut arrivals: Vec<Vec<Arrival>> = Vec::new();
    let mut setup_refs_ms: Vec<f64> = (0..3).map(|_| reference::time_ms()).collect();
    let (mut dep, construct_s, gen_s) = match kind {
        Kind::ClosedModp | Kind::DurableFaults => {
            let t_gen = Instant::now();
            let workload = pregenerate(&cfg, kind.invalid_rate(), load_rounds, &mut inputs);
            let gen_s = t_gen.elapsed().as_secs_f64();
            let t_setup = Instant::now();
            let mut builder = Simulation::builder(cfg.clone()).workload(Box::new(workload));
            if kind == Kind::DurableFaults {
                builder = builder
                    .collector_profiles(AdversaryMix::HalfMisreport(40).profiles(cfg.collectors));
            }
            let mut sim = builder.build().expect("valid benchmark config");
            if kind == Kind::DurableFaults {
                let mut faults = FaultPlan::none();
                faults.drop_all(DURABLE_DROP);
                sim.set_faults(faults);
            }
            (
                Deployment::Closed(Box::new(sim)),
                t_setup.elapsed().as_secs_f64(),
                gen_s,
            )
        }
        Kind::OpenSim => {
            let t_setup = Instant::now();
            let sim = ScaleSim::new(cfg.clone(), OPEN_SIGNER_POOL).expect("valid benchmark config");
            let construct_s = t_setup.elapsed().as_secs_f64();
            let t_gen = Instant::now();
            let mut wl = ScaleWorkload::new(
                cfg.providers,
                sim.signer_pool().to_vec(),
                kind.invalid_rate(),
                seed,
            )
            .with_payload_len(PAYLOAD_LEN);
            let ticks = sim.round_ticks();
            // Round k (1-based) starts at tick (k - 1) · round_ticks.
            for k in 0..load_rounds {
                let batch = wl.window(u64::from(k) * ticks, ticks, OPEN_RATE);
                for a in &batch {
                    let meta = TxMeta {
                        round: k + 1,
                        valid: a.valid,
                    };
                    assert!(
                        inputs
                            .insert(payload_key(&a.tx.payload.data), meta)
                            .is_none(),
                        "duplicate generated payload"
                    );
                }
                arrivals.push(batch);
            }
            arrivals.reverse();
            (
                Deployment::Open(Box::new(sim)),
                construct_s,
                t_gen.elapsed().as_secs_f64(),
            )
        }
    };
    probe.constructed(&mut dep);
    let mut marks = Vec::new();
    let t_warm = Instant::now();
    for _ in 0..shape.warmup_rounds {
        load_round(&mut dep, &mut arrivals, &mut marks);
    }
    let setup_s = construct_s + t_warm.elapsed().as_secs_f64();
    setup_refs_ms.extend((0..3).map(|_| reference::time_ms()));
    let mut ep = Episode {
        kind,
        setup_s,
        setup_refs_ms,
        gen_s,
        marks,
        window: 0..0,
        refs_ms: Vec::new(),
        inputs,
        dep,
        store_dir,
    };
    if setup_only {
        return ep;
    }
    probe.window_start(&ep.dep);
    let w0 = ep.marks.len();
    for _ in 0..shape.rounds {
        ep.refs_ms.push(reference::time_ms());
        load_round(&mut ep.dep, &mut arrivals, &mut ep.marks);
    }
    ep.refs_ms.push(reference::time_ms());
    ep.window = w0..ep.marks.len();
    probe.window_end(&ep.dep);
    for _ in 0..shape.drain_rounds {
        let start = Instant::now();
        match &mut ep.dep {
            Deployment::Closed(sim) => sim.run_drain_rounds(1),
            Deployment::Open(sim) => {
                if sim.drained() {
                    break;
                }
                sim.run_round(Vec::new());
            }
        }
        mark(&mut ep.marks, start, ep.dep.chain().height());
    }
    if shape.settle_rounds > 0 {
        if let Deployment::Closed(sim) = &mut ep.dep {
            let start = Instant::now();
            sim.settle(u64::from(shape.settle_rounds) * sim.config().round_ticks());
            mark(&mut ep.marks, start, sim.governor(0).chain().height());
        }
    }
    ep
}

fn mark(marks: &mut Vec<RoundMark>, start: Instant, height: u64) {
    marks.push(RoundMark {
        start,
        end: Instant::now(),
        height,
    });
}

/// One round that hands in load: the closed loop draws from its
/// pregenerated workload, open-sim takes the next arrival batch.
fn load_round(dep: &mut Deployment, arrivals: &mut Vec<Vec<Arrival>>, marks: &mut Vec<RoundMark>) {
    let start = Instant::now();
    match dep {
        Deployment::Closed(sim) => {
            sim.run_round();
        }
        Deployment::Open(sim) => {
            sim.run_round(
                arrivals
                    .pop()
                    .expect("arrivals generated for every load round"),
            );
        }
    }
    mark(marks, start, dep.chain().height());
}

/// The payload as a fixed-size lookup key.
///
/// # Panics
///
/// Panics on a payload of another length, which the benchmark never
/// generates.
pub fn payload_key(data: &[u8]) -> [u8; PAYLOAD_LEN] {
    data.try_into()
        .expect("benchmark payloads are PAYLOAD_LEN bytes")
}

/// Fills the closed-loop queue for `rounds` rounds: `tx_per_provider`
/// transactions per provider per round, in the order the driver asks.
fn pregenerate(
    cfg: &ProtocolConfig,
    invalid_rate: f64,
    rounds: u32,
    inputs: &mut HashMap<[u8; PAYLOAD_LEN], TxMeta>,
) -> Pregenerated {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7065_7266_6265_6e63);
    let mut queue = VecDeque::new();
    for round in 1..=rounds {
        for p in 0..cfg.providers {
            for _ in 0..cfg.tx_per_provider {
                let mut data = vec![0u8; PAYLOAD_LEN];
                rng.fill(&mut data[..]);
                let valid = rng.gen::<f64>() >= invalid_rate;
                let meta = TxMeta { round, valid };
                assert!(
                    inputs.insert(payload_key(&data), meta).is_none(),
                    "duplicate generated payload"
                );
                queue.push_back((u64::from(round), p, GeneratedTx { data, valid }));
            }
        }
    }
    Pregenerated { queue }
}

/// One measurement interval: consecutive timed rounds of one episode.
#[derive(Clone, Debug, Default)]
pub struct Interval {
    /// Wall seconds of its rounds.
    pub wall_s: f64,
    /// Transactions first committed during its rounds.
    pub committed: u64,
    /// Commit latency (ms) of each transaction handed in during its
    /// rounds, wherever it committed.
    pub latencies_ms: Vec<f64>,
    /// Factor rescaling the interval's times to the nominal host speed,
    /// from the reference loop timed before each of its rounds and after
    /// the last (see [`reference`]).
    pub scale: f64,
}

/// An episode's end-to-end outcome, read from governor 0's ledger.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// The timed window, interval by interval.
    pub intervals: Vec<Interval>,
    /// Transactions handed in.
    pub submitted: u64,
    /// Handed-in transactions present in governor 0's chain.
    pub committed: u64,
    /// Invalid transactions absent from the chain: a valid outcome.
    pub rejected: u64,
    /// Valid transactions absent from the chain (shed or lost).
    pub failed: u64,
    /// Hex SHA-256 of governor 0's exported chain.
    pub head: String,
    /// Correctness violations; empty when every check passed.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Wall seconds of the timed window.
    pub fn window_s(&self) -> f64 {
        self.intervals.iter().map(|i| i.wall_s).sum()
    }

    /// Transactions first committed during the timed window.
    pub fn window_committed(&self) -> u64 {
        self.intervals.iter().map(|i| i.committed).sum()
    }

    /// Share of submitted transactions with a terminal outcome.
    pub fn settled_frac(&self) -> f64 {
        (self.committed + self.rejected) as f64 / self.submitted.max(1) as f64
    }
}

impl Episode {
    /// Reads the outcome off the ledger and runs the correctness checks.
    pub fn outcome(&self) -> Outcome {
        let mut out = Outcome::default();
        let per = self.kind.shape().interval_rounds as usize;
        let interval_of = |mark: usize| {
            self.window
                .contains(&mark)
                .then(|| (mark - self.window.start) / per)
        };
        out.intervals = self.marks[self.window.clone()]
            .chunks(per)
            .enumerate()
            .map(|(i, rounds)| Interval {
                wall_s: rounds.iter().map(|m| (m.end - m.start).as_secs_f64()).sum(),
                scale: reference::scale(&self.refs_ms[i * per..=(i + 1) * per]),
                ..Interval::default()
            })
            .collect();
        if !self.dep.chains_agree() {
            out.errors.push("governors' chains disagree".into());
        }
        let chain = self.dep.chain();
        let mut first_commit: HashMap<[u8; PAYLOAD_LEN], u64> = HashMap::new();
        for serial in 1..=chain.height() {
            let Some(block) = chain.retrieve(serial) else {
                out.errors.push(format!("governor 0 lacks block {serial}"));
                continue;
            };
            for e in &block.entries {
                let Ok(key) = <[u8; PAYLOAD_LEN]>::try_from(&e.tx.payload.data[..]) else {
                    out.errors
                        .push(format!("block {serial}: foreign payload length"));
                    continue;
                };
                let Some(meta) = self.inputs.get(&key) else {
                    out.errors
                        .push(format!("block {serial}: transaction never handed in"));
                    continue;
                };
                if e.verdict == Verdict::CheckedValid && !meta.valid {
                    out.errors
                        .push(format!("block {serial}: invalid tx recorded checked-valid"));
                }
                first_commit.entry(key).or_insert(serial);
            }
        }
        for (key, meta) in &self.inputs {
            out.submitted += 1;
            match first_commit.get(key) {
                Some(&serial) => {
                    out.committed += 1;
                    let Some(at) = self.marks.iter().position(|m| m.height >= serial) else {
                        out.errors
                            .push(format!("block {serial} committed after the last mark"));
                        continue;
                    };
                    if let Some(i) = interval_of(at) {
                        out.intervals[i].committed += 1;
                    }
                    let handed = meta.round as usize - 1;
                    if let Some(i) = interval_of(handed) {
                        let ms: f64 = self.marks[handed..=at]
                            .iter()
                            .map(|m| (m.end - m.start).as_secs_f64() * 1e3)
                            .sum();
                        out.intervals[i].latencies_ms.push(ms);
                    }
                }
                None if meta.valid => out.failed += 1,
                None => out.rejected += 1,
            }
        }
        if out.submitted != out.committed + out.rejected + out.failed {
            out.errors.push(format!(
                "accounting: submitted {} != committed {} + rejected {} + failed {}",
                out.submitted, out.committed, out.rejected, out.failed
            ));
        }
        if let Deployment::Open(sim) = &self.dep {
            if sim.injected() != out.submitted {
                out.errors.push(format!(
                    "open-sim injected {} but the benchmark handed in {}",
                    sim.injected(),
                    out.submitted
                ));
            }
        }
        out.head = prb_crypto::sha256::sha256(&chain.export()).to_hex();
        out
    }
}

impl Drop for Episode {
    fn drop(&mut self) {
        if let Some(dir) = &self.store_dir {
            // Best effort: a leftover directory only costs disk space and
            // is cleared before the next episode of the same seed.
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
