//! Passive-DNS history and domain-activity substrate.
//!
//! The paper's deployment leans on two historical data sources that are not
//! part of the one-day behavior graph:
//!
//! 1. **Domain activity** (feature group F2): for each FQD and e2LD, the set
//!    of days on which it was actively queried, looking back `n = 14` days.
//!    [`ActivityStore`] records per-day activity as compact bitsets.
//! 2. **A large passive-DNS database** (feature group F3): five months of
//!    historical domain→IP resolutions, used to ask "was this IP (or its
//!    /24) previously pointed to by known malware-control domains?".
//!    [`PassiveDns`] stores the resolution history; [`AbuseIndex`] is the
//!    window-scoped index built from it for a given labeling.
//!
//! In the paper these stores are fed by the live ISP traffic plus a
//! commercial pDNS archive; in this reproduction they are fed by the
//! synthetic traffic generator during a warm-up period preceding the
//! evaluation days (see `segugio-traffic`).

#![warn(missing_docs)]
// Library code returns typed errors; a panic site needs a reasoned
// `#[expect(clippy::…, reason = "…")]`, which fails the build once stale.
// Hash-set/map iteration order differs per process, so it must not reach
// ordered output; a site whose order provably cannot matter is an
// `#[expect]` too — a plain `#[allow]` is denied.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::undocumented_unsafe_blocks,
    clippy::iter_over_hash_type,
    clippy::allow_attributes
)]
pub mod abuse;
pub mod activity;
pub mod rolling;
pub mod store;

pub use abuse::AbuseIndex;
pub use activity::ActivityStore;
#[doc(hidden)]
pub use rolling::AbuseDelta;
pub use rolling::RollingAbuseIndex;
pub use store::PassiveDns;
