//! Accountable equivocation evidence (BFT forensics).
//!
//! Every block proposal carries a [`SignedHeader`]: the proposer's
//! signature over `(proposer, round, serial, block_hash)` under a
//! dedicated domain tag. Two validly-signed headers from the same
//! proposer for the same serial but different block hashes are
//! *self-verifying* proof of equivocation — any party holding the
//! committee's public keys can check an [`EquivocationEvidence`] record
//! without trusting the accuser, which is what lets honest governors
//! gossip it and expel the culprit deterministically (Polygraph-style
//! accountability on top of tolerance).

use std::fmt;

use prb_crypto::sha256::{Digest, Sha256};
use prb_crypto::signer::{KeyPair, PublicKey, Sig};

/// Domain tag for proposal-header signatures.
const HEADER_TAG: &[u8] = b"prb-proposal-header";

/// A proposer's signed commitment to one block at one serial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedHeader {
    /// The proposing governor's index.
    pub proposer: u32,
    /// The protocol round the proposal was made in.
    pub round: u64,
    /// The proposed block's serial number.
    pub serial: u64,
    /// The proposed block's hash `H(B)`.
    pub block_hash: Digest,
    /// Signature over the above under the `prb-proposal-header` domain
    /// tag.
    pub sig: Sig,
}

/// Canonical signing bytes for a proposal header.
fn header_bytes(proposer: u32, round: u64, serial: u64, block_hash: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update_field(HEADER_TAG);
    h.update(&proposer.to_be_bytes());
    h.update(&round.to_be_bytes());
    h.update(&serial.to_be_bytes());
    h.update_field(block_hash.as_bytes());
    h.finalize()
}

impl SignedHeader {
    /// Signs a commitment to `block_hash` at `serial` in `round`.
    pub fn create(
        proposer: u32,
        round: u64,
        serial: u64,
        block_hash: Digest,
        key: &KeyPair,
    ) -> Self {
        let msg = header_bytes(proposer, round, serial, &block_hash);
        SignedHeader {
            proposer,
            round,
            serial,
            block_hash,
            sig: key.sign(msg.as_bytes()),
        }
    }

    /// Verifies the signature against the claimed proposer's key.
    pub fn verify(&self, pks: &[PublicKey]) -> bool {
        let Some(pk) = pks.get(self.proposer as usize) else {
            return false;
        };
        let msg = header_bytes(self.proposer, self.round, self.serial, &self.block_hash);
        pk.verify(msg.as_bytes(), &self.sig)
    }
}

/// Why an evidence record failed verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvidenceError {
    /// The two headers name different proposers.
    ProposerMismatch,
    /// The two headers cover different serials — no conflict.
    SerialMismatch,
    /// The headers commit to the same block hash — no conflict.
    SameBlock,
    /// At least one header's signature does not verify.
    BadSignature,
}

impl fmt::Display for EvidenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EvidenceError::ProposerMismatch => "headers name different proposers",
            EvidenceError::SerialMismatch => "headers cover different serials",
            EvidenceError::SameBlock => "headers commit to the same block",
            EvidenceError::BadSignature => "header signature invalid",
        })
    }
}

/// Proof that one governor signed two conflicting blocks at one serial.
///
/// Self-verifying: [`EquivocationEvidence::verify`] needs only the
/// committee's public keys, so evidence can be gossiped and acted on
/// without trusting the node that assembled it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EquivocationEvidence {
    /// The first conflicting signed header observed.
    pub first: SignedHeader,
    /// The second, committing to a different block at the same serial.
    pub second: SignedHeader,
}

impl EquivocationEvidence {
    /// Assembles evidence from two conflicting headers.
    pub fn new(first: SignedHeader, second: SignedHeader) -> Self {
        EquivocationEvidence { first, second }
    }

    /// The accused governor.
    pub fn culprit(&self) -> u32 {
        self.first.proposer
    }

    /// Checks the record end to end and returns the convicted governor.
    ///
    /// # Errors
    ///
    /// Returns which structural or cryptographic check failed; a record
    /// that errors must be discarded without acting on it.
    pub fn verify(&self, pks: &[PublicKey]) -> Result<u32, EvidenceError> {
        if self.first.proposer != self.second.proposer {
            return Err(EvidenceError::ProposerMismatch);
        }
        if self.first.serial != self.second.serial {
            return Err(EvidenceError::SerialMismatch);
        }
        if self.first.block_hash == self.second.block_hash {
            return Err(EvidenceError::SameBlock);
        }
        if !self.first.verify(pks) || !self.second.verify(pks) {
            return Err(EvidenceError::BadSignature);
        }
        Ok(self.first.proposer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_crypto::sha256::sha256;
    use prb_crypto::signer::CryptoScheme;

    fn keys(m: u32) -> (Vec<KeyPair>, Vec<PublicKey>) {
        let scheme = CryptoScheme::sim();
        let keys: Vec<KeyPair> = (0..m)
            .map(|g| scheme.keypair_from_seed(format!("ev-g{g}").as_bytes()))
            .collect();
        let pks = keys.iter().map(|k| k.public_key()).collect();
        (keys, pks)
    }

    #[test]
    fn header_roundtrip_and_tamper_detection() {
        let (keys, pks) = keys(3);
        let h = SignedHeader::create(1, 4, 7, sha256(b"block-a"), &keys[1]);
        assert!(h.verify(&pks));
        let mut forged = h.clone();
        forged.serial = 8;
        assert!(!forged.verify(&pks), "tampered serial must not verify");
        let mut wrong_claimant = h.clone();
        wrong_claimant.proposer = 2;
        assert!(!wrong_claimant.verify(&pks), "signature binds the proposer");
        let mut out_of_range = h;
        out_of_range.proposer = 9;
        assert!(!out_of_range.verify(&pks));
    }

    #[test]
    fn conflicting_headers_convict_the_signer() {
        let (keys, pks) = keys(3);
        let a = SignedHeader::create(2, 5, 9, sha256(b"block-a"), &keys[2]);
        let b = SignedHeader::create(2, 5, 9, sha256(b"block-b"), &keys[2]);
        let ev = EquivocationEvidence::new(a, b);
        assert_eq!(ev.verify(&pks), Ok(2));
        assert_eq!(ev.culprit(), 2);
    }

    #[test]
    fn non_conflicts_are_rejected() {
        let (keys, pks) = keys(3);
        let a = SignedHeader::create(0, 1, 3, sha256(b"x"), &keys[0]);
        let same = EquivocationEvidence::new(a.clone(), a.clone());
        assert_eq!(same.verify(&pks), Err(EvidenceError::SameBlock));
        let other_serial = SignedHeader::create(0, 1, 4, sha256(b"y"), &keys[0]);
        let ev = EquivocationEvidence::new(a.clone(), other_serial);
        assert_eq!(ev.verify(&pks), Err(EvidenceError::SerialMismatch));
        let other_gov = SignedHeader::create(1, 1, 3, sha256(b"y"), &keys[1]);
        let ev = EquivocationEvidence::new(a, other_gov);
        assert_eq!(ev.verify(&pks), Err(EvidenceError::ProposerMismatch));
    }

    #[test]
    fn forged_signature_cannot_frame_a_governor() {
        let (keys, pks) = keys(3);
        // Governor 1 signs one block; an accuser fabricates the "second"
        // header by signing with its own key but claiming proposer 1.
        let real = SignedHeader::create(1, 2, 6, sha256(b"real"), &keys[1]);
        let framed = SignedHeader::create(1, 2, 6, sha256(b"fake"), &keys[0]);
        let ev = EquivocationEvidence::new(real, framed);
        assert_eq!(ev.verify(&pks), Err(EvidenceError::BadSignature));
    }
}
