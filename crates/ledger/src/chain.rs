//! The hash-chained ledger with the paper's safety properties enforced on
//! append and checkable after the fact.
//!
//! §3.1 properties implemented here:
//! - **Agreement** — `retrieve(s)` is a pure lookup; all replicas appending
//!   the same blocks return identical results (checked across replicas by
//!   the integration tests).
//! - **Chain Integrity** — `append` rejects a block whose `prev_hash` is not
//!   `H(latest)`.
//! - **No Skipping** — `append` rejects serial numbers other than
//!   `latest + 1`, so retrieval of serial `s` implies all of `1..s` exist.
//!
//! A chain is either rooted at genesis (`base == 0`) or *anchored* at a
//! checkpoint: [`Chain::from_checkpoint`] builds a chain that holds no
//! blocks but knows the certified hash of the block at `base - 1`, so the
//! hash-chain invariant extends through the anchor exactly as it would
//! through a held block. Blocks below the anchor are unavailable
//! (`retrieve` returns `None`) but remain committed-to by the anchor hash.

use std::fmt;

use prb_crypto::sha256::Digest;
use prb_obs::fxhash::{fx_map, FxMap};

use crate::block::{Block, BlockEntry, Verdict};
use crate::codec::{self, DecodeError};
use crate::transaction::TxId;

/// Errors returned by [`Chain::append`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainError {
    /// The block's serial is not exactly `latest + 1`.
    NonConsecutiveSerial {
        /// Serial the chain expected.
        expected: u64,
        /// Serial the block carried.
        got: u64,
    },
    /// The block's `prev_hash` does not equal the hash of the latest block
    /// (or the anchor hash, for a chain freshly anchored at a checkpoint).
    BrokenHashChain {
        /// The offending block's serial.
        serial: u64,
    },
    /// The block's Merkle root does not match its entries.
    MerkleMismatch {
        /// The offending block's serial.
        serial: u64,
    },
    /// The block exceeds the universal transaction bound `b_limit`.
    BlockTooLarge {
        /// Number of transactions in the block.
        got: usize,
        /// The configured `b_limit`.
        limit: usize,
    },
}

impl ChainError {
    /// A short stable label for metric keys (`sync.rejected.<kind>`).
    pub fn kind(&self) -> &'static str {
        match self {
            ChainError::NonConsecutiveSerial { .. } => "non_consecutive_serial",
            ChainError::BrokenHashChain { .. } => "broken_hash_chain",
            ChainError::MerkleMismatch { .. } => "merkle_mismatch",
            ChainError::BlockTooLarge { .. } => "block_too_large",
        }
    }
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::NonConsecutiveSerial { expected, got } => {
                write!(f, "expected serial {expected}, block has {got}")
            }
            ChainError::BrokenHashChain { serial } => {
                write!(f, "block {serial} does not extend the chain head")
            }
            ChainError::MerkleMismatch { serial } => {
                write!(f, "block {serial} merkle root does not match entries")
            }
            ChainError::BlockTooLarge { got, limit } => {
                write!(f, "block has {got} transactions, limit is {limit}")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// Errors returned by [`Chain::import`], pinpointing where in the byte
/// stream the import failed and which block serial was being processed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImportError {
    /// Input shorter than the fixed header plus authentication trailer.
    Truncated {
        /// Length of the rejected input.
        len: usize,
    },
    /// The `b_limit` field exceeds the platform word size.
    BLimitOverflow,
    /// The header declares an anchored chain but the anchor digest is
    /// missing or cut short.
    MissingAnchor,
    /// A block failed to decode.
    Decode {
        /// Serial the chain expected at this position.
        serial: u64,
        /// Byte offset where the failing block starts.
        offset: usize,
        /// The underlying codec error.
        source: DecodeError,
    },
    /// A block decoded but violated a chain invariant on replay.
    Invalid {
        /// Serial of the offending block.
        serial: u64,
        /// Byte offset where the offending block starts.
        offset: usize,
        /// The violated invariant.
        source: ChainError,
    },
    /// Bytes remain after the declared block count.
    TrailingBytes {
        /// Byte offset where the unexpected bytes start.
        offset: usize,
    },
    /// A genesis-rooted export with no blocks at all.
    EmptyChain,
    /// The first block of a genesis-rooted export is not serial 0.
    NotGenesis {
        /// Serial the first block carried.
        serial: u64,
    },
    /// The authentication trailer does not match the reconstructed chain:
    /// head, anchor or `b_limit` was tampered with.
    TrailerMismatch,
}

impl ImportError {
    /// Byte offset of the failure, when one is known.
    pub fn offset(&self) -> Option<usize> {
        match self {
            ImportError::Decode { offset, .. }
            | ImportError::Invalid { offset, .. }
            | ImportError::TrailingBytes { offset } => Some(*offset),
            _ => None,
        }
    }

    /// Block serial involved in the failure, when one is known.
    pub fn serial(&self) -> Option<u64> {
        match self {
            ImportError::Decode { serial, .. } | ImportError::Invalid { serial, .. } => {
                Some(*serial)
            }
            ImportError::NotGenesis { serial } => Some(*serial),
            _ => None,
        }
    }

    /// A short stable label for metric keys.
    pub fn kind(&self) -> &'static str {
        match self {
            ImportError::Truncated { .. } => "truncated",
            ImportError::BLimitOverflow => "b_limit_overflow",
            ImportError::MissingAnchor => "missing_anchor",
            ImportError::Decode { .. } => "decode",
            ImportError::Invalid { source, .. } => source.kind(),
            ImportError::TrailingBytes { .. } => "trailing_bytes",
            ImportError::EmptyChain => "empty_chain",
            ImportError::NotGenesis { .. } => "not_genesis",
            ImportError::TrailerMismatch => "trailer_mismatch",
        }
    }
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Truncated { len } => {
                write!(f, "input of {len} bytes is shorter than header + trailer")
            }
            ImportError::BLimitOverflow => {
                write!(f, "b_limit field exceeds the platform word size")
            }
            ImportError::MissingAnchor => {
                write!(f, "anchored export is missing its anchor digest")
            }
            ImportError::Decode {
                serial,
                offset,
                source,
            } => {
                write!(f, "block {serial} at byte {offset}: {source}")
            }
            ImportError::Invalid {
                serial,
                offset,
                source,
            } => {
                write!(f, "block {serial} at byte {offset}: {source}")
            }
            ImportError::TrailingBytes { offset } => {
                write!(f, "trailing bytes after chain at byte {offset}")
            }
            ImportError::EmptyChain => write!(f, "empty chain has no genesis"),
            ImportError::NotGenesis { serial } => {
                write!(f, "first block has serial {serial}, not a genesis block")
            }
            ImportError::TrailerMismatch => {
                write!(
                    f,
                    "authentication trailer mismatch: head, anchor or b_limit tampered"
                )
            }
        }
    }
}

impl std::error::Error for ImportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImportError::Decode { source, .. } => Some(source),
            ImportError::Invalid { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Where a transaction ended up in the chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxLocation {
    /// Block serial number.
    pub serial: u64,
    /// Index inside the block's entry list.
    pub index: usize,
}

/// The ledger: an append-only list of blocks with lookup indices.
///
/// # Examples
///
/// ```
/// use prb_ledger::chain::Chain;
///
/// let chain = Chain::new(b"example", 1024);
/// assert_eq!(chain.height(), 0);
/// assert!(chain.retrieve(0).is_some()); // genesis
/// ```
#[derive(Clone)]
pub struct Chain {
    blocks: Vec<Block>,
    /// Serial of `blocks[0]`. Zero for a genesis-rooted chain; the first
    /// post-checkpoint serial for an anchored chain.
    base: u64,
    /// Certified hash of the block at `base - 1`; present iff `base > 0`.
    anchor: Option<Digest>,
    // Keyed by a SHA-256 digest, so the seeded Fx mix is collision-safe
    // here; the default SipHash map cost ~2x on the per-commit index path.
    tx_index: FxMap<TxId, TxLocation>,
    b_limit: usize,
}

impl fmt::Debug for Chain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Chain")
            .field("height", &self.height())
            .field("base", &self.base)
            .field("transactions", &self.tx_index.len())
            .field("b_limit", &self.b_limit)
            .finish()
    }
}

impl Chain {
    /// Creates a chain holding only the genesis block for `chain_tag`.
    ///
    /// `b_limit` is the paper's universal bound on transactions per block.
    pub fn new(chain_tag: &[u8], b_limit: usize) -> Self {
        Chain {
            blocks: vec![Block::genesis(chain_tag)],
            base: 0,
            anchor: None,
            tx_index: fx_map(),
            b_limit,
        }
    }

    /// Creates a chain anchored at a quorum-certified checkpoint: the
    /// caller vouches (by verifying a checkpoint certificate) that the
    /// block at `head_serial` hashes to `head_hash`. The chain holds no
    /// blocks yet; its height is `head_serial` and the first block it will
    /// accept is `head_serial + 1` with `prev_hash == head_hash`.
    ///
    /// # Panics
    ///
    /// Panics if `head_serial` is `u64::MAX` (the next serial would
    /// overflow).
    pub fn from_checkpoint(head_serial: u64, head_hash: Digest, b_limit: usize) -> Self {
        assert!(head_serial < u64::MAX, "checkpoint serial overflow");
        Chain {
            blocks: Vec::new(),
            base: head_serial + 1,
            anchor: Some(head_hash),
            tx_index: fx_map(),
            b_limit,
        }
    }

    /// The configured per-block transaction bound.
    pub fn b_limit(&self) -> usize {
        self.b_limit
    }

    /// Serial of the first block this chain holds (0 unless anchored).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The certified hash of the block below `base`, for anchored chains.
    pub fn anchor(&self) -> Option<Digest> {
        self.anchor
    }

    /// Whether this chain is anchored at a checkpoint rather than rooted
    /// at genesis.
    pub fn is_anchored(&self) -> bool {
        self.base > 0
    }

    /// Height = serial of the latest block (genesis is height 0). For a
    /// freshly anchored chain holding no blocks yet this is the certified
    /// checkpoint serial, `base - 1`.
    pub fn height(&self) -> u64 {
        self.base + self.blocks.len() as u64 - 1
    }

    /// The serial the next appended block must carry.
    pub fn next_serial(&self) -> u64 {
        self.base + self.blocks.len() as u64
    }

    /// The latest block.
    ///
    /// # Panics
    ///
    /// Panics on an anchored chain that holds no blocks yet; use
    /// [`head_hash`](Self::head_hash) or [`latest_opt`](Self::latest_opt)
    /// where that state is reachable.
    pub fn latest(&self) -> &Block {
        self.blocks.last().expect("chain holds no blocks")
    }

    /// The latest block, or `None` for a freshly anchored chain.
    pub fn latest_opt(&self) -> Option<&Block> {
        self.blocks.last()
    }

    /// Hash of the block at [`height`](Self::height). Total even when the
    /// chain holds no blocks: the anchor hash *is* the certified head.
    pub fn head_hash(&self) -> Digest {
        match self.blocks.last() {
            Some(block) => block.hash(),
            None => self.anchor.expect("empty chain is always anchored"),
        }
    }

    /// The paper's `retrieve(s)`: the block with serial `s`, if present.
    /// Blocks below an anchored chain's base are unavailable.
    pub fn retrieve(&self, serial: u64) -> Option<&Block> {
        let index = serial.checked_sub(self.base)?;
        self.blocks.get(index as usize)
    }

    /// Iterates over all held blocks, lowest serial first (from genesis
    /// unless anchored).
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Appends a block after validating serial, hash chain, Merkle root and
    /// size bound. On a freshly anchored chain the hash-chain check is
    /// against the anchor digest.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] describing the violated invariant; the chain
    /// is unchanged on error.
    pub fn append(&mut self, block: Block) -> Result<(), ChainError> {
        let expected = self.next_serial();
        if block.serial != expected {
            return Err(ChainError::NonConsecutiveSerial {
                expected,
                got: block.serial,
            });
        }
        if block.prev_hash != self.head_hash() {
            return Err(ChainError::BrokenHashChain {
                serial: block.serial,
            });
        }
        if !block.merkle_consistent() {
            return Err(ChainError::MerkleMismatch {
                serial: block.serial,
            });
        }
        if block.tx_count() > self.b_limit {
            return Err(ChainError::BlockTooLarge {
                got: block.tx_count(),
                limit: self.b_limit,
            });
        }
        for (index, entry) in block.entries.iter().enumerate() {
            self.tx_index.entry(entry.tx.id()).or_insert(TxLocation {
                serial: block.serial,
                index,
            });
        }
        self.blocks.push(block);
        Ok(())
    }

    /// Finds the first recording of a transaction among the held blocks.
    pub fn find_tx(&self, id: TxId) -> Option<(TxLocation, &BlockEntry)> {
        let loc = *self.tx_index.get(&id)?;
        let entry = &self.blocks[(loc.serial - self.base) as usize].entries[loc.index];
        Some((loc, entry))
    }

    /// The latest verdict for a transaction (argue re-records supersede the
    /// original `UncheckedInvalid` entry).
    pub fn latest_verdict(&self, id: TxId) -> Option<Verdict> {
        // Walk from the tail: re-records are strictly later.
        for block in self.blocks.iter().rev() {
            if let Some((_, entry)) = block.entry(id) {
                return Some(entry.verdict);
            }
        }
        None
    }

    /// Removes and returns the head block, unwinding the transaction-index
    /// entries it introduced.
    ///
    /// Rollback support for head-fork resolution during crash recovery:
    /// when two governors self-elect under message loss, the loser undoes
    /// its provisional head and re-pools the displaced entries. The
    /// genesis block is never removed; an anchored chain can pop down to
    /// its (quorum-certified, hence settled) anchor but no further.
    pub fn pop(&mut self) -> Option<Block> {
        if self.base == 0 && self.blocks.len() <= 1 {
            return None;
        }
        let block = self.blocks.pop()?;
        // `append` only indexes first recordings, so every index entry
        // pointing at this serial was introduced by this block.
        self.tx_index.retain(|_, loc| loc.serial != block.serial);
        Some(block)
    }

    /// Full-chain integrity audit: rehashes every link and recomputes every
    /// Merkle root, including the link into the anchor. Returns the serial
    /// of the first bad block, if any.
    pub fn audit(&self) -> Option<u64> {
        if let (Some(anchor), Some(first)) = (self.anchor, self.blocks.first()) {
            if first.prev_hash != anchor || !first.merkle_consistent() {
                return Some(first.serial);
            }
        }
        for window in self.blocks.windows(2) {
            let (prev, next) = (&window[0], &window[1]);
            if next.serial != prev.serial + 1
                || next.prev_hash != prev.hash()
                || !next.merkle_consistent()
            {
                return Some(next.serial);
            }
        }
        None
    }

    /// Total number of distinct transactions recorded.
    pub fn tx_count(&self) -> usize {
        self.tx_index.len()
    }

    /// Serializes the whole chain (genesis tag is implied by the genesis
    /// block itself) to canonical bytes for sync or offline audit.
    ///
    /// Layout: `b_limit u64 | base u64 | count u64 | [anchor digest iff
    /// base > 0] | blocks | trailer`. The file ends with an authentication
    /// trailer — the hash of the configuration, base, anchor and chain
    /// head — so that *every* byte of the export is either structural or
    /// hash-committed: the hash chain covers all interior blocks, and the
    /// trailer pins the otherwise free-floating head header, anchor and
    /// `b_limit`.
    pub fn export(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.b_limit as u64).to_be_bytes());
        out.extend_from_slice(&self.base.to_be_bytes());
        out.extend_from_slice(&(self.blocks.len() as u64).to_be_bytes());
        if let Some(anchor) = self.anchor {
            out.extend_from_slice(anchor.as_bytes());
        }
        for block in &self.blocks {
            codec::encode_block(&mut out, block);
        }
        out.extend_from_slice(self.export_trailer().as_bytes());
        out
    }

    fn export_trailer(&self) -> Digest {
        let mut h = prb_crypto::sha256::Sha256::new();
        h.update_field(b"prb-chain-export");
        h.update(&(self.b_limit as u64).to_be_bytes());
        h.update(&self.base.to_be_bytes());
        match self.anchor {
            Some(anchor) => h.update_field(anchor.as_bytes()),
            None => h.update_field(&[]),
        };
        h.update_field(self.head_hash().as_bytes());
        h.finalize()
    }

    /// Imports a chain exported with [`export`](Self::export), replaying
    /// every block through [`append`](Self::append) so all structural
    /// invariants (serial continuity, hash chaining, Merkle consistency,
    /// size bound) are re-verified.
    ///
    /// # Errors
    ///
    /// Returns an [`ImportError`] carrying the failing byte offset and
    /// block serial where applicable.
    pub fn import(bytes: &[u8]) -> Result<Self, ImportError> {
        const HEADER: usize = 24;
        if bytes.len() < HEADER + 32 {
            return Err(ImportError::Truncated { len: bytes.len() });
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 32);
        // `b_limit` arrives as a u64 from untrusted bytes; a plain
        // `as usize` cast would silently truncate on 32-bit targets and
        // turn an absurd bound into a small one.
        let b_limit: usize = u64::from_be_bytes(body[..8].try_into().expect("8 bytes"))
            .try_into()
            .map_err(|_| ImportError::BLimitOverflow)?;
        let base = u64::from_be_bytes(body[8..16].try_into().expect("8 bytes"));
        let count = u64::from_be_bytes(body[16..24].try_into().expect("8 bytes"));
        let mut r = codec::Reader::new(body);
        r.skip(HEADER).expect("length checked above");
        let mut chain = if base > 0 {
            let anchor = r.digest().map_err(|_| ImportError::MissingAnchor)?;
            Chain {
                blocks: Vec::new(),
                base,
                anchor: Some(anchor),
                tx_index: fx_map(),
                b_limit,
            }
        } else {
            if count == 0 {
                return Err(ImportError::EmptyChain);
            }
            let genesis = codec::decode_block(&mut r).map_err(|source| ImportError::Decode {
                serial: 0,
                offset: HEADER,
                source,
            })?;
            if genesis.serial != 0 {
                return Err(ImportError::NotGenesis {
                    serial: genesis.serial,
                });
            }
            Chain {
                blocks: vec![genesis],
                base: 0,
                anchor: None,
                tx_index: fx_map(),
                b_limit,
            }
        };
        while chain.blocks.len() < count as usize {
            let offset = body.len() - r.remaining();
            let serial = chain.next_serial();
            let block = codec::decode_block(&mut r).map_err(|source| ImportError::Decode {
                serial,
                offset,
                source,
            })?;
            let serial = block.serial;
            chain.append(block).map_err(|source| ImportError::Invalid {
                serial,
                offset,
                source,
            })?;
        }
        if r.remaining() != 0 {
            return Err(ImportError::TrailingBytes {
                offset: body.len() - r.remaining(),
            });
        }
        if chain.export_trailer().as_bytes() != trailer {
            return Err(ImportError::TrailerMismatch);
        }
        Ok(chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Verdict;
    use crate::transaction::{Label, SignedTx, TxPayload};
    use prb_crypto::identity::NodeId;
    use prb_crypto::signer::CryptoScheme;

    fn entry(nonce: u64, verdict: Verdict) -> BlockEntry {
        let key = CryptoScheme::sim().keypair_from_seed(b"p0");
        let tx = SignedTx::create(
            TxPayload {
                provider: NodeId::provider(0),
                nonce,
                data: vec![9],
            },
            1,
            &key,
        );
        BlockEntry {
            tx,
            verdict,
            reported_labels: vec![(NodeId::collector(0), Label::Valid)],
        }
    }

    fn extend(chain: &Chain, entries: Vec<BlockEntry>) -> Block {
        Block::build(
            chain.height() + 1,
            entries,
            chain.head_hash(),
            NodeId::governor(0),
            10,
        )
    }

    #[test]
    fn append_and_retrieve() {
        let mut chain = Chain::new(b"t", 100);
        let b1 = extend(&chain, vec![entry(0, Verdict::CheckedValid)]);
        chain.append(b1.clone()).unwrap();
        assert_eq!(chain.height(), 1);
        assert_eq!(chain.retrieve(1), Some(&b1));
        assert_eq!(chain.retrieve(2), None);
        assert_eq!(chain.tx_count(), 1);
    }

    #[test]
    fn pop_unwinds_head_and_index_but_never_genesis() {
        let mut chain = Chain::new(b"t", 100);
        assert!(chain.pop().is_none(), "genesis must be irremovable");
        let b1 = extend(&chain, vec![entry(0, Verdict::CheckedValid)]);
        chain.append(b1.clone()).unwrap();
        let b2 = extend(&chain, vec![entry(1, Verdict::CheckedValid)]);
        chain.append(b2.clone()).unwrap();
        let tx1 = b1.entries[0].tx.id();
        let tx2 = b2.entries[0].tx.id();

        assert_eq!(chain.pop(), Some(b2));
        assert_eq!(chain.height(), 1);
        assert!(chain.find_tx(tx1).is_some(), "earlier recordings survive");
        assert!(chain.find_tx(tx2).is_none(), "popped recordings unwound");
        assert_eq!(chain.tx_count(), 1);

        // A re-record of tx1 at serial 2 must not be unwound when the
        // *re-recording* block is popped: the index points at serial 1.
        let b2b = extend(&chain, vec![entry(0, Verdict::CheckedValid)]);
        chain.append(b2b).unwrap();
        chain.pop().unwrap();
        assert!(chain.find_tx(tx1).is_some());

        assert_eq!(chain.pop(), Some(b1));
        assert!(chain.pop().is_none(), "genesis still irremovable");
        assert_eq!(chain.audit(), None);
    }

    #[test]
    fn no_skipping_enforced() {
        let mut chain = Chain::new(b"t", 100);
        let mut b = extend(&chain, vec![]);
        b.serial = 5;
        assert_eq!(
            chain.append(b),
            Err(ChainError::NonConsecutiveSerial {
                expected: 1,
                got: 5
            })
        );
    }

    #[test]
    fn chain_integrity_enforced() {
        let mut chain = Chain::new(b"t", 100);
        let mut b = extend(&chain, vec![]);
        b.prev_hash = prb_crypto::sha256::sha256(b"wrong");
        assert_eq!(
            chain.append(b),
            Err(ChainError::BrokenHashChain { serial: 1 })
        );
    }

    #[test]
    fn merkle_mismatch_rejected() {
        let mut chain = Chain::new(b"t", 100);
        let mut b = extend(&chain, vec![entry(0, Verdict::CheckedValid)]);
        b.entries.push(entry(1, Verdict::CheckedValid)); // root now stale
        assert_eq!(
            chain.append(b),
            Err(ChainError::MerkleMismatch { serial: 1 })
        );
    }

    #[test]
    fn block_limit_enforced() {
        let mut chain = Chain::new(b"t", 2);
        let b = extend(
            &chain,
            vec![
                entry(0, Verdict::CheckedValid),
                entry(1, Verdict::CheckedValid),
                entry(2, Verdict::CheckedValid),
            ],
        );
        assert_eq!(
            chain.append(b),
            Err(ChainError::BlockTooLarge { got: 3, limit: 2 })
        );
        assert_eq!(chain.b_limit(), 2);
    }

    #[test]
    fn find_tx_and_latest_verdict() {
        let mut chain = Chain::new(b"t", 100);
        let e = entry(0, Verdict::UncheckedInvalid);
        let id = e.tx.id();
        chain.append(extend(&chain, vec![e.clone()])).unwrap();
        let (loc, found) = chain.find_tx(id).unwrap();
        assert_eq!(
            loc,
            TxLocation {
                serial: 1,
                index: 0
            }
        );
        assert_eq!(found.verdict, Verdict::UncheckedInvalid);
        assert_eq!(chain.latest_verdict(id), Some(Verdict::UncheckedInvalid));

        // Argue re-records the same tx later; latest verdict updates.
        let mut argued = e;
        argued.verdict = Verdict::ArguedValid;
        chain.append(extend(&chain, vec![argued])).unwrap();
        assert_eq!(chain.latest_verdict(id), Some(Verdict::ArguedValid));
        // find_tx still reports the first location.
        assert_eq!(chain.find_tx(id).unwrap().0.serial, 1);
    }

    #[test]
    fn audit_detects_tampering() {
        let mut chain = Chain::new(b"t", 100);
        for i in 0..5 {
            chain
                .append(extend(&chain, vec![entry(i, Verdict::CheckedValid)]))
                .unwrap();
        }
        assert_eq!(chain.audit(), None);
        // Tamper with a middle block's entry (simulating a rewritten ledger).
        let mut broken = chain.clone();
        broken.blocks[2].entries[0].verdict = Verdict::ArguedValid;
        assert_eq!(broken.audit(), Some(2));
    }

    #[test]
    fn agreement_two_replicas_identical() {
        let mut a = Chain::new(b"t", 100);
        let mut b = Chain::new(b"t", 100);
        for i in 0..3 {
            let blk = extend(&a, vec![entry(i, Verdict::CheckedValid)]);
            a.append(blk.clone()).unwrap();
            b.append(blk).unwrap();
        }
        for s in 0..=3 {
            assert_eq!(a.retrieve(s), b.retrieve(s));
        }
    }

    #[test]
    fn anchored_chain_extends_from_checkpoint() {
        // Build the "real" chain, then anchor a fresh replica at height 2
        // as checkpoint adoption would and feed it the suffix.
        let mut full = Chain::new(b"t", 100);
        for i in 0..4 {
            full.append(extend(&full, vec![entry(i, Verdict::CheckedValid)]))
                .unwrap();
        }
        let head2 = full.retrieve(2).unwrap().hash();
        let mut anchored = Chain::from_checkpoint(2, head2, 100);
        assert!(anchored.is_anchored());
        assert_eq!(anchored.height(), 2);
        assert_eq!(anchored.next_serial(), 3);
        assert_eq!(anchored.head_hash(), head2);
        assert!(anchored.latest_opt().is_none());
        assert_eq!(anchored.retrieve(2), None, "pre-anchor blocks unavailable");
        assert_eq!(anchored.retrieve(0), None);

        // A block that does not link into the anchor is rejected.
        let mut wrong = full.retrieve(3).unwrap().clone();
        wrong.prev_hash = prb_crypto::sha256::sha256(b"bogus");
        assert_eq!(
            anchored.append(wrong),
            Err(ChainError::BrokenHashChain { serial: 3 })
        );

        anchored.append(full.retrieve(3).unwrap().clone()).unwrap();
        anchored.append(full.retrieve(4).unwrap().clone()).unwrap();
        assert_eq!(anchored.height(), 4);
        assert_eq!(anchored.head_hash(), full.head_hash());
        assert_eq!(anchored.audit(), None);
        assert_eq!(
            anchored.retrieve(4).unwrap().hash(),
            full.retrieve(4).unwrap().hash()
        );
        // Suffix transactions are findable; pre-anchor ones are not held.
        let tx3 = full.retrieve(3).unwrap().entries[0].tx.id();
        assert_eq!(anchored.find_tx(tx3).unwrap().0.serial, 3);

        // Pops unwind down to the anchor, never past it.
        assert!(anchored.pop().is_some());
        assert!(anchored.pop().is_some());
        assert!(anchored.pop().is_none(), "anchor is the floor");
        assert_eq!(anchored.height(), 2);
        assert_eq!(anchored.head_hash(), head2);
    }

    #[test]
    fn anchored_export_import_roundtrips() {
        let mut full = Chain::new(b"t", 100);
        for i in 0..4 {
            full.append(extend(&full, vec![entry(i, Verdict::CheckedValid)]))
                .unwrap();
        }
        let mut anchored = Chain::from_checkpoint(2, full.retrieve(2).unwrap().hash(), 100);
        // Empty anchored chain round-trips (a node that adopted a
        // checkpoint but crashed before the first suffix block arrived).
        let empty = anchored.export();
        let back = Chain::import(&empty).unwrap();
        assert_eq!(back.export(), empty);
        assert_eq!(back.height(), 2);
        assert_eq!(back.head_hash(), anchored.head_hash());

        anchored.append(full.retrieve(3).unwrap().clone()).unwrap();
        anchored.append(full.retrieve(4).unwrap().clone()).unwrap();
        let bytes = anchored.export();
        let back = Chain::import(&bytes).unwrap();
        assert_eq!(back.export(), bytes);
        assert_eq!(back.base(), 3);
        assert_eq!(back.height(), 4);

        // Every single-byte flip of the anchored export is detected.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x80;
            assert!(
                Chain::import(&bad).is_err(),
                "flip of byte {i} went undetected"
            );
        }
    }

    #[test]
    fn import_corruption_matrix_errors_without_panicking() {
        // A valid export, then every class of corruption the wire can
        // produce. Each mutation must yield Err — never a panic, never a
        // silently wrong chain.
        let mut chain = Chain::new(b"t", 100);
        for i in 0..3 {
            chain
                .append(extend(&chain, vec![entry(i, Verdict::CheckedValid)]))
                .unwrap();
        }
        let good = chain.export();
        assert!(Chain::import(&good).is_ok(), "baseline export must import");

        // Truncated body: every prefix shorter than the full export.
        for cut in [0, 1, 15, 16, 23, 24, 55, 56, good.len() / 2, good.len() - 1] {
            assert!(
                Chain::import(&good[..cut]).is_err(),
                "truncation to {cut} bytes must fail"
            );
        }

        // Inflated count: header promises more blocks than the body holds.
        let mut inflated = good.clone();
        inflated[16..24].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(Chain::import(&inflated).is_err());

        // Oversized b_limit: u64::MAX either exceeds the platform word
        // size (32-bit) or trips the authentication trailer (64-bit); it
        // must never truncate into a small bound.
        let mut oversized = good.clone();
        oversized[..8].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(Chain::import(&oversized).is_err());

        // Nonzero base with no anchor bytes where the first block was: the
        // digest read consumes block bytes, so decode or trailer must trip.
        let mut rebased = good.clone();
        rebased[8..16].copy_from_slice(&1u64.to_be_bytes());
        assert!(Chain::import(&rebased).is_err());

        // Flipped trailer byte: the authentication trailer must reject.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(Chain::import(&flipped).is_err());
    }

    #[test]
    fn import_rejects_every_single_byte_flip() {
        // Every byte of the export is structural or hash-committed, so any
        // one-bit corruption must surface as an error (and must not panic).
        let mut chain = Chain::new(b"t", 16);
        chain
            .append(extend(&chain, vec![entry(0, Verdict::CheckedValid)]))
            .unwrap();
        let good = chain.export();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x80;
            assert!(
                Chain::import(&bad).is_err(),
                "flip of byte {i} went undetected"
            );
        }
    }

    #[test]
    fn import_rejects_duplicate_serials_in_the_body() {
        let mut chain = Chain::new(b"t", 100);
        let b1 = extend(&chain, vec![entry(0, Verdict::CheckedValid)]);
        chain.append(b1.clone()).unwrap();
        // Hand-craft an export whose body repeats serial 1: the header
        // promises 3 blocks, the body is [genesis, b1, b1], and the
        // trailer is recomputed over the claimed head — structurally
        // plausible, so only the append replay can catch the duplicate.
        let mut out = Vec::new();
        out.extend_from_slice(&100u64.to_be_bytes());
        out.extend_from_slice(&0u64.to_be_bytes());
        out.extend_from_slice(&3u64.to_be_bytes());
        for block in [chain.retrieve(0).unwrap(), &b1, &b1] {
            codec::encode_block(&mut out, block);
        }
        let mut h = prb_crypto::sha256::Sha256::new();
        h.update_field(b"prb-chain-export");
        h.update(&100u64.to_be_bytes());
        h.update(&0u64.to_be_bytes());
        h.update_field(&[]);
        h.update_field(b1.hash().as_bytes());
        out.extend_from_slice(h.finalize().as_bytes());
        let err = Chain::import(&out).unwrap_err();
        assert_eq!(err.serial(), Some(1));
        assert!(err.offset().is_some(), "replay errors carry an offset");
        match err {
            ImportError::Invalid {
                source:
                    ChainError::NonConsecutiveSerial {
                        expected: 2,
                        got: 1,
                    },
                ..
            } => {}
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn import_error_pinpoints_offset_and_serial() {
        let mut chain = Chain::new(b"t", 100);
        for i in 0..3 {
            chain
                .append(extend(&chain, vec![entry(i, Verdict::CheckedValid)]))
                .unwrap();
        }
        let good = chain.export();
        // Cut the export mid-way through the last block: the decode error
        // must name the serial the replay expected and an offset inside
        // the body (past the 24-byte header).
        let cut = good.len() - 40;
        let err = Chain::import(&good[..cut]).unwrap_err();
        match err {
            ImportError::Decode { serial, offset, .. } => {
                assert_eq!(serial, 3);
                assert!(offset >= 24, "offset {offset} inside the header");
                assert!(offset < cut);
            }
            ImportError::Truncated { .. } => panic!("cut leaves a plausible body"),
            other => panic!("unexpected error: {other:?}"),
        }
        assert_eq!(err.kind(), "decode");
    }

    #[test]
    fn pop_then_reimport_roundtrips_byte_identically() {
        let mut chain = Chain::new(b"t", 100);
        for i in 0..4 {
            chain
                .append(extend(&chain, vec![entry(i, Verdict::CheckedValid)]))
                .unwrap();
        }
        let full = chain.export();
        let popped = chain.pop().unwrap();
        let short = chain.export();
        assert_ne!(full, short, "the export must pin the head");
        // The shortened export round-trips byte for byte, and re-appending
        // the popped head restores the original bytes exactly — rollback
        // plus replay is lossless down to the last byte.
        let mut imported = Chain::import(&short).unwrap();
        assert_eq!(imported.export(), short);
        imported.append(popped.clone()).unwrap();
        assert_eq!(imported.export(), full);
        chain.append(popped).unwrap();
        assert_eq!(chain.export(), full);
    }

    #[test]
    fn error_display() {
        let e = ChainError::NonConsecutiveSerial {
            expected: 2,
            got: 7,
        };
        assert!(e.to_string().contains("expected serial 2"));
        assert!(ChainError::BrokenHashChain { serial: 3 }
            .to_string()
            .contains("block 3"));
        let ie = ImportError::Invalid {
            serial: 3,
            offset: 99,
            source: ChainError::BrokenHashChain { serial: 3 },
        };
        assert!(ie.to_string().contains("byte 99"));
        assert_eq!(ie.kind(), "broken_hash_chain");
        assert!(std::error::Error::source(&ie).is_some());
    }
}
