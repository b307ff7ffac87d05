//! The traced run: per-layer metrics from the outside in.
//!
//! One episode runs with `Obs::counting()` installed through `set_obs`;
//! counters are read at the window's edges, so counts cover exactly the
//! timed rounds. Nothing inside the program is instrumented: times come
//! from spans this file records around `run_round` and around replays of
//! public calls on the run's own keys, transactions and blocks. An
//! untraced episode of the same seed runs first: it gives the process's
//! peak memory without the tracing hub, the baseline of the tracing
//! overhead, and the ledger the traced episode must reproduce byte for
//! byte.
//!
//! Which end-to-end metric each layer metric should move, and on which
//! workload, is tabulated in `NOTES.md`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use prb_crypto::identity::{IdentityManager, NodeId, Role};
use prb_crypto::signer::{self, KeyPair, PublicKey, Sig, VrfEvaluation};
use prb_crypto::stats::CryptoStats;
use prb_ledger::block::{Block, Verdict};
use prb_ledger::chain::Chain;
use prb_ledger::transaction::SignedTx;
use prb_obs::{Obs, ObsHandle};
use prb_reputation::screening::{self, Report};
use prb_reputation::update::{RevealedBehaviour, RevealedReport};
use prb_store::{BlockStore, FsyncPolicy, StoreOptions};

use crate::episode::{run_episode, Deployment, Episode, Kind, NoProbe, Probe};
use crate::{median, proc_status_kb, Metric, RunResult};

/// Shortest total time each replay is repeated for.
const REPLAY_MIN: Duration = Duration::from_millis(40);
/// Most passes of one replay.
const REPLAY_MAX_PASSES: u32 = 10_000;
/// Most transactions a crypto replay covers (2048-bit operations cost
/// milliseconds each).
const CRYPTO_ITEMS: usize = 64;
/// Most items any other replay covers.
const REPLAY_ITEMS: usize = 4096;
/// Verifications per `verify_batch` call in the batch replay.
const BATCH: usize = 32;
/// VRF evaluations in the VRF replays.
const VRF_ITEMS: usize = 16;

/// One span: a named interval on the benchmark's clock.
#[derive(Clone, Debug)]
pub struct Span {
    /// What the interval covers.
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operations the span covers (1 for a round).
    pub items: u64,
}

/// In-memory span log, written out when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        items: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            items,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Widens span `id` to end at `end`.
    fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    /// Repeats `pass` (which covers `items` operations) until it has run
    /// for [`REPLAY_MIN`], after one untimed pass that fills lazy state;
    /// records one span per timed pass under a parent named `name` and
    /// returns the mean microseconds per item.
    fn replay(&mut self, name: &'static str, items: usize, mut pass: impl FnMut()) -> f64 {
        if items == 0 {
            return 0.0;
        }
        pass();
        let t0 = Instant::now();
        let parent = self.record(name, None, t0, t0, 0);
        let mut passes = 0u32;
        while passes < REPLAY_MAX_PASSES && t0.elapsed() < REPLAY_MIN {
            let start = Instant::now();
            pass();
            self.record(name, Some(parent), start, Instant::now(), items as u64);
            passes += 1;
        }
        let end = Instant::now();
        self.close(parent, end);
        self.spans[parent].items = u64::from(passes) * items as u64;
        (end - t0).as_secs_f64() * 1e6 / (f64::from(passes) * items as f64)
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"items\": {}}}",
                s.name, s.start_ns, s.end_ns, s.items
            );
        }
        out
    }
}

/// Program counters at one window edge.
#[derive(Clone, Debug, Default)]
struct Snapshot {
    counters: BTreeMap<&'static str, u64>,
    crypto: CryptoStats,
    msgs_sent: u64,
    bytes_sent: u64,
    msgs_dropped: u64,
    height: u64,
    screened: u64,
    revealed: u64,
}

impl Snapshot {
    fn take(dep: &Deployment, obs: &ObsHandle) -> Self {
        let net = dep.net_stats();
        let governors = 0..dep.config().governors;
        Snapshot {
            counters: obs.metrics().counters().into_iter().collect(),
            crypto: prb_crypto::stats::snapshot(),
            msgs_sent: net.total_sent(),
            bytes_sent: net.total_bytes_sent(),
            msgs_dropped: net.total_dropped(),
            height: dep.chain().height(),
            screened: governors
                .clone()
                .map(|g| dep.governor(g).metrics().screened)
                .sum(),
            revealed: governors.map(|g| dep.governor(g).metrics().revealed).sum(),
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

struct TraceProbe {
    obs: ObsHandle,
    start: Snapshot,
    end: Snapshot,
}

impl Probe for TraceProbe {
    fn constructed(&mut self, dep: &mut Deployment) {
        dep.set_obs(self.obs.clone());
    }

    fn window_start(&mut self, dep: &Deployment) {
        self.start = Snapshot::take(dep, &self.obs);
    }

    fn window_end(&mut self, dep: &Deployment) {
        self.end = Snapshot::take(dep, &self.obs);
    }
}

/// What the traced run measured.
#[derive(Debug)]
pub struct Traced {
    /// The workload.
    pub kind: Kind,
    /// Per-layer metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Transactions handed in by the traced episode.
    pub submitted: u64,
    /// Valid transactions that never committed.
    pub failed: u64,
    /// `settled_frac` of the traced episode.
    pub settled_frac: f64,
    /// Governor 0's export hash.
    pub head: String,
    /// Correctness violations.
    pub errors: Vec<String>,
    /// Every span recorded.
    pub spans: Spans,
}

/// Runs the untraced episode, the traced episode and the replays of
/// `kind` on `seed`.
pub fn run(kind: Kind, seed: u64, work_dir: &Path) -> Traced {
    let origin = Instant::now();
    // The untraced episode: same seed, observability off.
    let plain = run_episode(kind, seed, work_dir, false, &mut NoProbe);
    let peak_kb = proc_status_kb("VmHWM");
    let plain_out = plain.outcome();
    drop(plain);

    let mut probe = TraceProbe {
        obs: Obs::counting(),
        start: Snapshot::default(),
        end: Snapshot::default(),
    };
    let ep = run_episode(kind, seed, work_dir, false, &mut probe);
    let out = ep.outcome();
    let mut errors = plain_out
        .errors
        .iter()
        .map(|e| format!("untraced episode: {e}"))
        .collect::<Vec<_>>();
    errors.extend(out.errors.iter().cloned());
    if plain_out.head != out.head {
        errors.push(format!(
            "traced and untraced runs committed different ledgers ({} vs {})",
            out.head, plain_out.head
        ));
    }

    let mut spans = Spans::new(origin);
    let first = ep.marks.first().expect("an episode runs rounds");
    let last = ep.marks.last().expect("an episode runs rounds");
    let episode_span = spans.record("episode", None, first.start, last.end, 0);
    let mut round_ms = Vec::new();
    for (i, m) in ep.marks.iter().enumerate() {
        let name = if i < ep.window.start {
            "round.warmup"
        } else if i < ep.window.end {
            round_ms.push((m.end - m.start).as_secs_f64() * 1e3);
            "round"
        } else {
            "round.drain"
        };
        spans.record(name, Some(episode_span), m.start, m.end, 1);
    }

    let replays = Replays::run(&ep, &mut spans, work_dir, &mut errors);
    let (start, end) = (&probe.start, &probe.end);
    let committed_w = out.window_committed().max(1) as f64;
    let rounds = ep.window.len().max(1) as f64;
    let handed_w = ep
        .inputs
        .values()
        .filter(|m| ep.window.contains(&(m.round as usize - 1)))
        .count() as f64;
    let cfg = ep.dep.config();
    let m_govs = f64::from(cfg.governors);
    let r = f64::from(cfg.replication);
    let d = |name: &str| end.counter(name).saturating_sub(start.counter(name)) as f64;
    let dc = end.crypto.delta_since(&start.crypto);
    let blocks_w = end.height.saturating_sub(start.height) as f64;
    let window_ms: f64 = round_ms.iter().sum();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    // Signing the program does per handed-in transaction: one provider
    // signature (closed loops only; open-sim's arrivals arrive signed)
    // and one label signature per collector copy; each collector also
    // verifies the provider signature once. Governor header and claim
    // signatures (a few per round) are left out.
    let provider_signs = if kind == Kind::OpenSim { 0.0 } else { 1.0 };
    let crypto_est_ms = (d("wall.crypto_ns") / 1e6
        + handed_w * ((provider_signs + r) * replays.sign_us + r * replays.verify_us) / 1e3)
        / rounds;
    let ledger_est_ms = m_govs * blocks_w * replays.import_us_per_block / 1e3 / rounds;
    let store_est_ms = if kind.has_store() {
        m_govs * blocks_w * replays.append_us_per_block / 1e3 / rounds
    } else {
        0.0
    };
    let rep_est_ms = ((end.screened - start.screened) as f64 * replays.screen_us
        + (end.revealed - start.revealed) as f64 * replays.reveal_us)
        / 1e3
        / rounds;

    let gov0 = ep.dep.governor(0).metrics();
    let checked_frac = ratio(gov0.checked as f64, gov0.screened as f64);
    let unchecked_wrong = ep
        .dep
        .chain()
        .iter()
        .flat_map(|b| &b.entries)
        .filter(|e| {
            e.verdict == Verdict::UncheckedInvalid
                && ep
                    .inputs
                    .get(&e.tx.payload.data[..])
                    .is_some_and(|meta| meta.valid)
        })
        .count() as f64;
    let shed = end.counter("mempool.shed") + end.counter("gov.pending.shed");
    let pending_high_water = (0..cfg.governors)
        .map(|g| ep.dep.governor(g).pending_stats().1)
        .max()
        .unwrap_or(0);
    let committed = out.committed.max(1) as f64;
    drop(ep);

    let c = |name, unit, value| Metric {
        name,
        unit,
        value,
        exact: true,
    };
    let t = |name, unit, value| Metric {
        name,
        unit,
        value,
        exact: false,
    };
    let metrics = vec![
        c(
            "crypto.table_pows_per_tx",
            "count/tx",
            dc.table_pows as f64 / committed_w,
        ),
        c(
            "crypto.modexp_per_tx",
            "count/tx",
            dc.modexp_calls as f64 / committed_w,
        ),
        c(
            "crypto.multi_pow_per_tx",
            "count/tx",
            dc.multi_pow_calls as f64 / committed_w,
        ),
        c(
            "crypto.batch_items_per_call",
            "items/call",
            ratio(dc.batch_items as f64, dc.batch_calls as f64),
        ),
        t("crypto.sign_us", "us", replays.sign_us),
        t("crypto.verify_us", "us", replays.verify_us),
        t(
            "crypto.verify_batch_us_per_item",
            "us",
            replays.verify_batch_us_per_item,
        ),
        t("crypto.vrf_eval_us", "us", replays.vrf_eval_us),
        t("crypto.vrf_verify_us", "us", replays.vrf_verify_us),
        t(
            "crypto.wall_share",
            "ratio",
            ratio(d("wall.crypto_ns") / 1e6, window_ms),
        ),
        t("crypto.est_ms_per_round", "ms", crypto_est_ms),
        c(
            "gov.sig_memo_hit_ratio",
            "ratio",
            ratio(
                d("gov.sig_memo_hit"),
                d("gov.sig_memo_hit") + d("gov.sig_memo_miss"),
            ),
        ),
        c("gov.pending_high_water", "txs", pending_high_water as f64),
        c(
            "mempool.shed_per_ktx",
            "count/ktx",
            shed as f64 * 1e3 / out.submitted.max(1) as f64,
        ),
        t("round.wall_ms_p50", "ms", median(&round_ms)),
        c("gov.checked_frac", "ratio", checked_frac),
        c(
            "gov.unchecked_invalid_per_ktx",
            "count/ktx",
            unchecked_wrong * 1e3 / committed,
        ),
        t("rep.screen_us", "us", replays.screen_us),
        t("rep.reveal_update_us", "us", replays.reveal_us),
        c(
            "net.msgs_per_tx",
            "msgs/tx",
            (end.msgs_sent - start.msgs_sent) as f64 / committed_w,
        ),
        c(
            "net.bytes_per_tx",
            "B/tx",
            (end.bytes_sent - start.bytes_sent) as f64 / committed_w,
        ),
        c(
            "net.retry_resent_ratio",
            "ratio",
            ratio(d("net.retry.resent"), d("net.retry.sent")),
        ),
        c(
            "net.dropped_per_tx",
            "msgs/tx",
            (end.msgs_dropped - start.msgs_dropped) as f64 / committed_w,
        ),
        t(
            "net.residual_ms_per_round",
            "ms",
            window_ms / rounds - crypto_est_ms - ledger_est_ms - store_est_ms - rep_est_ms,
        ),
        t("ledger.txid_us", "us", replays.txid_us),
        t(
            "ledger.export_us_per_block",
            "us",
            replays.export_us_per_block,
        ),
        t(
            "ledger.import_us_per_block",
            "us",
            replays.import_us_per_block,
        ),
        c(
            "ledger.bytes_per_tx",
            "B/tx",
            replays.export_bytes as f64 / committed,
        ),
        t("mem.rss_kb_per_tx", "KB/tx", peak_kb as f64 / committed),
        c(
            "store.fsync_per_block",
            "count/block",
            ratio(replays.store_fsyncs as f64, replays.store_blocks as f64),
        ),
        c(
            "store.append_bytes_per_tx",
            "B/tx",
            replays.store_append_bytes as f64 / committed,
        ),
        t(
            "store.append_us_per_block",
            "us",
            replays.append_us_per_block,
        ),
        t(
            "consensus.cert_ms_per_round",
            "ms",
            d("wall.cert_ns") / 1e6 / rounds,
        ),
        c(
            "checkpoint.certs_formed",
            "count",
            d("checkpoint.cert_formed"),
        ),
        c(
            "checkpoint.digest_mismatches",
            "count",
            d("checkpoint.digest_mismatch"),
        ),
        t(
            "obs.overhead_frac",
            "ratio",
            out.window_s() / plain_out.window_s() - 1.0,
        ),
    ];
    Traced {
        kind,
        metrics,
        submitted: out.submitted,
        failed: out.failed,
        settled_frac: out.settled_frac(),
        head: out.head,
        errors,
        spans,
    }
}

impl Traced {
    /// The result line of this run.
    pub fn result(&self) -> RunResult {
        RunResult {
            correct: self.errors.is_empty(),
            attempted: self.submitted,
            failed: self.failed,
            metrics: self.metrics.clone(),
        }
    }

    /// A human-readable table of the per-layer metrics.
    pub fn report(&self) -> String {
        let mut out = format!(
            "{} traced: settled_frac {} ledger {}\n",
            self.kind, self.settled_frac, self.head
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<34} {:>14.4} {:<12} {}",
                m.name,
                m.value,
                m.unit,
                if m.exact { "count" } else { "time/memory" }
            );
        }
        out
    }

    /// Writes the spans as JSON lines under `dir`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating the directory or the file.
    pub fn write_spans(&self, dir: &Path, kind: Kind, seed: u64) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("spans-{}-seed{seed}.jsonl", kind.name()));
        std::fs::write(&path, self.spans.to_jsonl())?;
        Ok(path)
    }
}

/// Unit costs replayed on the traced episode's own data.
#[derive(Debug, Default)]
struct Replays {
    txid_us: f64,
    sign_us: f64,
    verify_us: f64,
    verify_batch_us_per_item: f64,
    vrf_eval_us: f64,
    vrf_verify_us: f64,
    export_us_per_block: f64,
    import_us_per_block: f64,
    export_bytes: usize,
    append_us_per_block: f64,
    store_fsyncs: u64,
    store_append_bytes: u64,
    store_blocks: u64,
    screen_us: f64,
    reveal_us: f64,
}

impl Replays {
    fn run(ep: &Episode, spans: &mut Spans, work_dir: &Path, errors: &mut Vec<String>) -> Self {
        let chain = ep.dep.chain();
        let entries: Vec<&prb_ledger::block::BlockEntry> =
            chain.iter().flat_map(|b| &b.entries).collect();
        let keys = RunKeys::derive(&ep.dep);
        let mut out = Replays::default();

        let txs: Vec<&SignedTx> = entries.iter().take(REPLAY_ITEMS).map(|e| &e.tx).collect();
        out.txid_us = spans.replay("ledger.txid", txs.len(), || {
            for tx in &txs {
                black_box(tx.id());
            }
        });

        // Crypto on the run's own provider keys and transactions.
        let signed: Vec<(&KeyPair, Vec<u8>, &Sig)> = entries
            .iter()
            .take(CRYPTO_ITEMS)
            .map(|e| {
                (
                    keys.provider(e.tx.payload.provider.index),
                    e.tx.signing_bytes(),
                    &e.tx.provider_sig,
                )
            })
            .collect();
        let pks: Vec<PublicKey> = signed.iter().map(|(k, _, _)| k.public_key()).collect();
        if signed
            .iter()
            .zip(&pks)
            .any(|((_, bytes, sig), pk)| !pk.verify(bytes, sig))
        {
            errors.push("replayed provider keys do not verify the run's signatures".into());
        }
        out.sign_us = spans.replay("crypto.sign", signed.len(), || {
            for (key, bytes, _) in &signed {
                black_box(key.sign(bytes));
            }
        });
        out.verify_us = spans.replay("crypto.verify", signed.len(), || {
            for ((_, bytes, sig), pk) in signed.iter().zip(&pks) {
                assert!(pk.verify(bytes, sig), "verified above");
            }
        });
        let batch: Vec<(&[u8], &Sig, &PublicKey)> = signed
            .iter()
            .zip(&pks)
            .map(|((_, bytes, sig), pk)| (&bytes[..], *sig, pk))
            .collect();
        out.verify_batch_us_per_item = spans.replay("crypto.verify_batch", batch.len(), || {
            for chunk in batch.chunks(BATCH) {
                assert!(signer::verify_batch(chunk).iter().all(|&ok| ok));
            }
        });

        // VRF on the governors' keys over per-round election messages.
        let vrf_msgs: Vec<(usize, Vec<u8>)> = (0..VRF_ITEMS)
            .map(|i| {
                let g = i % keys.governors.len();
                let round = (i / keys.governors.len()) as u64 + 1;
                (g, [&b"perfbench-vrf"[..], &round.to_be_bytes()].concat())
            })
            .collect();
        let mut evals: Vec<VrfEvaluation> = Vec::new();
        out.vrf_eval_us = spans.replay("crypto.vrf_eval", vrf_msgs.len(), || {
            evals = vrf_msgs
                .iter()
                .map(|(g, msg)| keys.governors[*g].vrf_evaluate(msg))
                .collect();
        });
        let gov_pks: Vec<PublicKey> = keys.governors.iter().map(KeyPair::public_key).collect();
        out.vrf_verify_us = spans.replay("crypto.vrf_verify", vrf_msgs.len(), || {
            for ((g, msg), eval) in vrf_msgs.iter().zip(&evals) {
                assert!(gov_pks[*g].vrf_verify(msg, eval).is_some());
            }
        });

        // Ledger codec: export and re-import governor 0's chain.
        let blocks = chain.height().max(1) as f64;
        let mut bytes = Vec::new();
        out.export_us_per_block =
            spans.replay("ledger.export", 1, || bytes = chain.export()) / blocks;
        out.export_bytes = bytes.len();
        out.import_us_per_block = spans.replay("ledger.import", 1, || {
            let imported = Chain::import(&bytes).expect("own export imports");
            assert_eq!(imported.head_hash(), chain.head_hash());
        }) / blocks;

        if ep.kind.has_store() {
            let blocks: Vec<&Block> = chain.iter().filter(|b| b.serial > 0).collect();
            out.store_replay(&blocks, ep.dep.config().b_limit, spans, work_dir);
        }

        // Reputation: Algorithm 2's draw on reports rebuilt from the block
        // labels and governor 0's weights, and Algorithm 3's reveal update
        // on a copy of its table.
        let topology = ep.dep.topology();
        let table = ep.dep.governor(0).reputation();
        let f = ep.dep.config().reputation.f;
        let mut reports: Vec<Vec<Report>> = Vec::new();
        let mut reveals: Vec<Vec<RevealedReport>> = Vec::new();
        for e in entries.iter().take(REPLAY_ITEMS) {
            let p = e.tx.payload.provider.index;
            let truth = ep
                .inputs
                .get(&e.tx.payload.data[..])
                .is_some_and(|meta| meta.valid);
            let mut rep = Vec::new();
            let mut rev = Vec::new();
            for (node, label) in &e.reported_labels {
                if node.role != Role::Collector {
                    continue;
                }
                let c = node.index;
                let Some(slot) = topology.provider_slot(c, p) else {
                    continue;
                };
                rep.push(Report {
                    collector: c,
                    labeled_valid: label.is_valid(),
                    weight: table.weight(c as usize, slot),
                });
                rev.push(RevealedReport {
                    collector: c as usize,
                    provider_slot: slot,
                    behaviour: if label.is_valid() == truth {
                        RevealedBehaviour::Correct
                    } else {
                        RevealedBehaviour::Wrong
                    },
                });
            }
            if !rep.is_empty() {
                reports.push(rep);
                reveals.push(rev);
            }
        }
        let mut rng = StdRng::seed_from_u64(0x5c4e);
        out.screen_us = spans.replay("rep.screen", reports.len(), || {
            for rep in &reports {
                black_box(screening::screen(rep, f, &mut rng));
            }
        });
        // Each pass updates a fresh copy, so every pass does the same work;
        // the copy is a small share of the pass.
        out.reveal_us = spans.replay("rep.reveal_update", reveals.len(), || {
            let mut table = table.clone();
            for rev in &reveals {
                black_box(table.record_revealed(rev));
            }
        });
        out
    }

    /// `BlockStore::append` of every block with `FsyncPolicy::Always` into
    /// a fresh directory, with a counting hub on the store. One pass: each
    /// append already costs a disk sync.
    fn store_replay(
        &mut self,
        blocks: &[&Block],
        b_limit: usize,
        spans: &mut Spans,
        work_dir: &Path,
    ) {
        let dir = work_dir.join(format!("store-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StoreOptions {
            chain_tag: b"prb-chain".to_vec(),
            b_limit,
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Always,
        };
        let (mut store, _) = BlockStore::open(&dir, opts).expect("open the replay store");
        let obs = Obs::counting();
        store.set_obs(obs.clone());
        let start = Instant::now();
        for block in blocks {
            store
                .append(block)
                .expect("replayed blocks append in order");
        }
        let end = Instant::now();
        spans.record("store.append", None, start, end, blocks.len() as u64);
        self.append_us_per_block = (end - start).as_secs_f64() * 1e6 / blocks.len().max(1) as f64;
        self.store_fsyncs = obs.metrics().counter("store.fsync");
        self.store_append_bytes = obs.metrics().counter("store.append_bytes");
        self.store_blocks = blocks.len() as u64;
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The run's own key pairs, re-derived from its seed through the same
/// identity manager the deployment enrolled with.
struct RunKeys {
    providers: Vec<KeyPair>,
    governors: Vec<KeyPair>,
}

impl RunKeys {
    fn derive(dep: &Deployment) -> Self {
        let cfg = dep.config();
        let mut im = IdentityManager::new(cfg.crypto.clone(), &cfg.seed.to_be_bytes());
        let mut enroll = |node| im.enroll(node).expect("fresh identity manager").keypair;
        let providers = match dep {
            Deployment::Closed(_) => (0..cfg.providers)
                .map(|p| enroll(NodeId::provider(p)))
                .collect(),
            Deployment::Open(sim) => sim.signer_pool().to_vec(),
        };
        let governors = (0..cfg.governors)
            .map(|g| enroll(NodeId::governor(g)))
            .collect();
        RunKeys {
            providers,
            governors,
        }
    }

    fn provider(&self, p: u32) -> &KeyPair {
        &self.providers[p as usize % self.providers.len()]
    }
}
