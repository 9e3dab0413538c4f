//! Synthetic ISP DNS traffic generator — the data substrate of the
//! reproduction.
//!
//! The paper evaluates Segugio on proprietary DNS traffic collected below
//! the local resolvers of two large US ISPs, together with a commercial C&C
//! blacklist, a one-year Alexa archive and a commercial passive-DNS
//! database. None of those artifacts are publicly available, so this crate
//! implements a generative model of an ISP's DNS traffic that preserves the
//! statistical structure Segugio's detection relies on:
//!
//! - **benign browsing**: Zipf-distributed e2LD popularity with per-machine
//!   favorite sets, mega-popular domains queried by more than a third of
//!   the network (pruning-rule R4 targets), a long tail of single-querier
//!   FQDs (R3 targets), near-inactive machines (R1) and high-degree
//!   proxies/NAT forwarders (R2);
//! - **malware infections**: malware families with pools of control domains
//!   that *relocate over time* (network agility — intuition 1), victims of
//!   the same family querying overlapping domain subsets (intuition 2,
//!   Fig. 3: ~70% of infected machines query more than one control domain
//!   per day and practically never more than twenty), and multi-infected
//!   machines bridging families;
//! - **IP abuse**: family control domains resolve into shared "bullet-proof"
//!   /24 pools, partially reused across families;
//! - **whitelist noise**: a handful of free-hosting e2LDs that pass the
//!   popularity whitelist while hosting abused subdomains (the paper's
//!   Section IV-D false-positive analysis);
//! - **ground-truth channels**: a *commercial* blacklist (high coverage,
//!   lagged additions — the lag drives the early-detection experiment of
//!   Fig. 11) and a noisy *public* blacklist (Section IV-E), plus a
//!   sandbox-evidence oracle.
//!
//! # Example
//!
//! ```
//! use segugio_traffic::{IspConfig, IspNetwork};
//!
//! let mut isp = IspNetwork::new(IspConfig::tiny(7));
//! isp.warm_up(10);
//! let day = isp.next_day();
//! assert!(!day.queries.is_empty());
//! ```

#![warn(missing_docs)]
// Hash-set/map iteration order differs per process, so it must not reach
// ordered output; a site whose order provably cannot matter is an
// `#[expect(clippy::…, reason = "…")]` — a plain `#[allow]` is denied.
#![deny(clippy::iter_over_hash_type, clippy::allow_attributes)]
mod cdf;
pub mod config;
pub mod day;
pub mod faults;
pub mod names;
pub mod truth;
pub mod world;

pub use config::IspConfig;
pub use day::DayTraffic;
pub use faults::{CheckpointFault, CheckpointFaults, DayFaults, FaultConfig, FaultInjector};
pub use truth::{DomainKind, GroundTruth};
pub use world::IspNetwork;
