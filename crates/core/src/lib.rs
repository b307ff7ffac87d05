//! # prb-core
//!
//! The primary contribution of *"An Efficient Permissioned Blockchain with
//! Provable Reputation Mechanism"* (ICDCS 2021): the three-tier
//! permissioned blockchain protocol, implemented end to end over the
//! simulated synchronous network.
//!
//! - [`config`] — every protocol tunable (`l, n, m, r, s, f, β, μ, ν,
//!   b_limit, U, Δ`) plus the check-all / check-none baselines,
//! - [`behavior`] — collector adversary profiles (misreport / conceal /
//!   forge / sleeper), provider activity profiles, and Byzantine governor
//!   profiles (equivocate / invalid-proposal / censor / silent),
//! - [`provider`] / [`collector`] / [`governor`] — the three roles;
//!   Algorithm 1 lives in the collector, Algorithms 2 and 3 plus argue
//!   handling, elections, blocks and revenue live in the governor,
//! - [`sim`] — the round driver: one generic [`sim::Driver`] wires a
//!   deployment and runs rounds; [`Simulation`] is its closed-loop tier
//!   (one actor per provider, reveals, churn),
//! - [`scale`] — [`scale::ScaleSim`], the same driver with an interned,
//!   open-loop provider tier for 10⁵–10⁶-provider runs (E15),
//! - [`metrics`] — per-governor loss/regret/cost accounting,
//! - [`workload`] — the transaction-source abstraction.
//!
//! # Quickstart
//!
//! ```
//! use prb_core::config::ProtocolConfig;
//! use prb_core::sim::Simulation;
//!
//! let mut sim = Simulation::new(ProtocolConfig::default())?;
//! let outcomes = sim.run(3);
//! assert_eq!(outcomes.len(), 3);
//! assert!(sim.chains_agree());
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod behavior;
pub mod collector;
pub mod config;
pub mod governor;
pub mod metrics;
pub mod msg;
pub mod node;
pub mod provider;
pub mod scale;
pub mod sim;
pub mod workload;

pub use prb_obs as obs;

pub use behavior::{ByzantineMode, CollectorProfile, GovernorProfile, ProviderProfile};
pub use config::{GovernorMode, ProtocolConfig, RevealPolicy};
pub use sim::{RoundOutcome, Simulation};
