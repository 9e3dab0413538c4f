//! Baseline detectors Segugio is compared against.
//!
//! - [`notos`] — a reimplementation of the *kind* of system Notos [3] is: a
//!   domain-reputation classifier built from passive-DNS history and
//!   domain-name string features, trained on a large blacklist plus the
//!   top-100K popular domains, with a *reject option* for domains lacking
//!   history. Crucially it has **no access to the below-resolver query
//!   behavior** (who queries what), which is Segugio's core signal.
//! - [`belief`] — loopy belief propagation over the same machine–domain
//!   bipartite graph, the approach of Manadhata et al. [6] (and, on files,
//!   Polonium [17]). Used for the accuracy-at-low-FP and runtime
//!   comparisons discussed in Section I.
//! - [`cooccurrence`] — the query co-occurrence heuristic of Sato et
//!   al. [21]: score a domain by the fraction of its queriers that also
//!   query known-malicious domains.

#![warn(missing_docs)]
// Hash-set/map iteration order differs per process, so it must not reach
// ordered output; a site whose order provably cannot matter is an
// `#[expect(clippy::…, reason = "…")]` — a plain `#[allow]` is denied.
#![deny(clippy::iter_over_hash_type, clippy::allow_attributes)]
pub mod belief;
pub mod cooccurrence;
pub mod notos;

pub use belief::{BeliefConfig, BeliefPropagation};
pub use cooccurrence::cooccurrence_scores;
pub use notos::{Notos, NotosConfig, NotosModel};
