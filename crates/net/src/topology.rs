//! The three-tier network topology of the paper.
//!
//! §3.1: *l* providers each submit to *r* collectors; *n* collectors each
//! receive from *s* providers, with `r·l = s·n`; *m* governors are (by
//! default) connected to every collector and to each other.
//!
//! [`Topology`] builds and answers adjacency queries for that structure,
//! either with the deterministic cyclic wiring or a seeded random r-regular
//! bipartite wiring.

use rand::seq::SliceRandom;
use rand::Rng;

use std::fmt;

/// Parameters of the provider/collector/governor hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopologyParams {
    /// Number of providers (`l`).
    pub providers: u32,
    /// Number of collectors (`n`).
    pub collectors: u32,
    /// Number of governors (`m`).
    pub governors: u32,
    /// Collectors per provider (`r`).
    pub replication: u32,
}

impl TopologyParams {
    /// Providers per collector (`s = r·l / n`).
    pub fn providers_per_collector(&self) -> u32 {
        self.replication * self.providers / self.collectors
    }

    /// Validates the regularity constraint `n | r·l` and `r ≤ n`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.providers == 0 || self.collectors == 0 || self.governors == 0 {
            return Err("all three tiers must be non-empty".into());
        }
        if self.replication == 0 {
            return Err("replication r must be at least 1".into());
        }
        if self.replication > self.collectors {
            return Err(format!(
                "replication r={} exceeds collector count n={}",
                self.replication, self.collectors
            ));
        }
        let stubs = self.replication as u64 * self.providers as u64;
        if !stubs.is_multiple_of(self.collectors as u64) {
            return Err(format!(
                "r·l = {stubs} is not divisible by n = {}; the graph cannot be s-regular",
                self.collectors
            ));
        }
        Ok(())
    }
}

/// The wired topology with adjacency in both directions.
#[derive(Clone)]
pub struct Topology {
    params: TopologyParams,
    /// `collectors_of[p]` = the r collectors provider `p` submits to.
    collectors_of: Vec<Vec<u32>>,
    /// `providers_of[c]` = the s providers collector `c` hears from.
    providers_of: Vec<Vec<u32>>,
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

impl Topology {
    /// Deterministic cyclic wiring: provider `k` submits to collectors
    /// `(k·r + i) mod n` for `i in 0..r`.
    ///
    /// # Errors
    ///
    /// Returns an error when [`TopologyParams::validate`] fails.
    pub fn cyclic(params: TopologyParams) -> Result<Self, String> {
        params.validate()?;
        let n = params.collectors;
        let r = params.replication;
        let mut collectors_of = Vec::with_capacity(params.providers as usize);
        for k in 0..params.providers {
            let base = (k as u64 * r as u64) % n as u64;
            collectors_of.push(
                (0..r)
                    .map(|i| ((base + i as u64) % n as u64) as u32)
                    .collect(),
            );
        }
        Ok(Self::from_provider_adjacency(params, collectors_of))
    }

    /// Seeded random r-regular bipartite wiring via the configuration model
    /// (with retries to avoid duplicate provider→collector edges).
    ///
    /// # Errors
    ///
    /// Returns an error when [`TopologyParams::validate`] fails.
    pub fn random<R: Rng + ?Sized>(params: TopologyParams, rng: &mut R) -> Result<Self, String> {
        params.validate()?;
        let n = params.collectors as usize;
        let r = params.replication as usize;
        let l = params.providers as usize;
        let s = params.providers_per_collector() as usize;
        // Stub list: each collector appears s times; shuffle and deal r per
        // provider; retry on duplicates within one provider's hand.
        'attempt: for _ in 0..1000 {
            let mut stubs: Vec<u32> = (0..n as u32)
                .flat_map(|c| std::iter::repeat_n(c, s))
                .collect();
            stubs.shuffle(rng);
            let mut collectors_of: Vec<Vec<u32>> = Vec::with_capacity(l);
            for p in 0..l {
                let hand = &stubs[p * r..(p + 1) * r];
                let mut sorted = hand.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted.len() != r {
                    continue 'attempt; // duplicate edge; reshuffle
                }
                collectors_of.push(hand.to_vec());
            }
            return Ok(Self::from_provider_adjacency(params, collectors_of));
        }
        // Dense corner cases (e.g. r == n) can defeat rejection sampling;
        // fall back to the deterministic wiring.
        Self::cyclic(params)
    }

    fn from_provider_adjacency(params: TopologyParams, collectors_of: Vec<Vec<u32>>) -> Self {
        let mut providers_of = vec![Vec::new(); params.collectors as usize];
        for (p, cs) in collectors_of.iter().enumerate() {
            for &c in cs {
                providers_of[c as usize].push(p as u32);
            }
        }
        Topology {
            params,
            collectors_of,
            providers_of,
        }
    }

    /// The parameters this topology was built from.
    pub fn params(&self) -> &TopologyParams {
        &self.params
    }

    /// The `r` collectors provider `p` submits to.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn collectors_of(&self, p: u32) -> &[u32] {
        &self.collectors_of[p as usize]
    }

    /// The `s` providers collector `c` hears from.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn providers_of(&self, c: u32) -> &[u32] {
        &self.providers_of[c as usize]
    }

    /// Whether provider `p` is linked with collector `c`.
    pub fn linked(&self, p: u32, c: u32) -> bool {
        self.collectors_of
            .get(p as usize)
            .is_some_and(|cs| cs.contains(&c))
    }

    /// Position of provider `p` in collector `c`'s provider list, i.e. the
    /// index `u` such that `providers_of(c)[u] == p`. This is the
    /// per-provider slot in the collector's reputation vector (§3.4).
    ///
    /// `providers_of` lists are built by scanning providers in ascending
    /// order (`from_provider_adjacency`), so they are always
    /// sorted and this is a binary search. The linear scan it replaces
    /// was O(s) *per report per screened transaction* — at s = 6250
    /// (10⁵ providers over 64 collectors) it dominated governor
    /// screening in the E15 scale profile.
    pub fn provider_slot(&self, c: u32, p: u32) -> Option<usize> {
        let slots = &self.providers_of[c as usize];
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]), "slots sorted");
        slots.binary_search(&p).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(l: u32, n: u32, r: u32) -> TopologyParams {
        TopologyParams {
            providers: l,
            collectors: n,
            governors: 3,
            replication: r,
        }
    }

    fn check_regular(t: &Topology) {
        let p = t.params();
        let s = p.providers_per_collector();
        for k in 0..p.providers {
            let cs = t.collectors_of(k);
            assert_eq!(cs.len(), p.replication as usize, "provider {k} degree");
            let mut dedup = cs.to_vec();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), cs.len(), "provider {k} duplicate edges");
        }
        for c in 0..p.collectors {
            assert_eq!(t.providers_of(c).len(), s as usize, "collector {c} degree");
        }
    }

    #[test]
    fn cyclic_is_regular() {
        for (l, n, r) in [(8, 8, 3), (10, 5, 2), (12, 4, 1), (6, 6, 6)] {
            let t = Topology::cyclic(params(l, n, r)).unwrap();
            check_regular(&t);
        }
    }

    #[test]
    fn random_is_regular() {
        let mut rng = StdRng::seed_from_u64(5);
        for (l, n, r) in [(8, 8, 3), (20, 10, 4), (16, 8, 8)] {
            let t = Topology::random(params(l, n, r), &mut rng).unwrap();
            check_regular(&t);
        }
    }

    #[test]
    fn adjacency_is_consistent() {
        let t = Topology::cyclic(params(10, 5, 2)).unwrap();
        for p in 0..10 {
            for &c in t.collectors_of(p) {
                assert!(t.linked(p, c));
                assert!(t.providers_of(c).contains(&p));
                let slot = t.provider_slot(c, p).unwrap();
                assert_eq!(t.providers_of(c)[slot], p);
            }
        }
        assert_eq!(t.provider_slot(0, 9), None);
    }

    #[test]
    fn provider_slot_matches_linear_scan_on_both_wirings() {
        // Regression for the O(s)-per-report slot lookup: the binary
        // search must agree with the definitional linear scan for every
        // (collector, provider) pair, including absent ones, under both
        // the cyclic and the random wiring.
        let mut rng = StdRng::seed_from_u64(17);
        for t in [
            Topology::cyclic(params(24, 8, 3)).unwrap(),
            Topology::random(params(24, 8, 3), &mut rng).unwrap(),
        ] {
            for c in 0..8 {
                for p in 0..25 {
                    let linear = t.providers_of[c as usize].iter().position(|&x| x == p);
                    assert_eq!(t.provider_slot(c, p), linear, "collector {c} provider {p}");
                }
            }
        }
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(params(0, 5, 2).validate().is_err());
        assert!(params(5, 5, 0).validate().is_err());
        assert!(params(5, 4, 5).validate().is_err()); // r > n
        assert!(params(5, 4, 2).validate().is_err()); // 10 not divisible by 4
        assert!(Topology::cyclic(params(5, 4, 2)).is_err());
    }

    #[test]
    fn s_computation() {
        assert_eq!(params(10, 5, 2).providers_per_collector(), 4);
        assert_eq!(params(8, 8, 3).providers_per_collector(), 3);
    }

    #[test]
    fn random_deterministic_under_seed() {
        let t1 = Topology::random(params(20, 10, 4), &mut StdRng::seed_from_u64(9)).unwrap();
        let t2 = Topology::random(params(20, 10, 4), &mut StdRng::seed_from_u64(9)).unwrap();
        for p in 0..20 {
            assert_eq!(t1.collectors_of(p), t2.collectors_of(p));
        }
    }
}
