//! Core domain model for the Segugio reproduction.
//!
//! This crate provides the vocabulary types shared by every other crate in
//! the workspace:
//!
//! - [`DomainName`] — validated, lowercase fully-qualified domain names, with
//!   effective second-level-domain ([`DomainName::e2ld`]) extraction driven by
//!   an embedded public-suffix list ([`psl`]);
//! - [`Ipv4`] and [`Prefix24`] — resolved-address types used by the
//!   passive-DNS substrate and the IP-abuse features;
//! - [`Day`] and [`DayWindow`] — the simulation calendar;
//! - [`Label`] — the three-valued node labeling (benign / malware / unknown);
//! - [`DomainTable`] / [`DomainId`] / [`MachineId`] — compact interned
//!   identifiers so that the ISP-scale graph code never touches strings;
//! - [`Blacklist`] and [`Whitelist`] — the ground-truth seed lists used to
//!   label graph nodes;
//! - [`container`] — the one checksummed section format every persisted
//!   model, checkpoint and front-end state is written in.
//!
//! # Example
//!
//! ```
//! use segugio_model::{DomainName, psl};
//!
//! let d: DomainName = "www.bbc.co.uk".parse().unwrap();
//! assert_eq!(d.e2ld().as_str(), "bbc.co.uk");
//! assert!(psl::is_public_suffix("co.uk"));
//! ```

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
pub mod container;
pub mod domain;
pub mod error;
pub mod ids;
pub mod ip;
pub mod label;
pub mod lists;
pub mod psl;
pub mod time;

pub use domain::DomainName;
pub use error::ParseDomainError;
pub use ids::{DomainId, DomainTable, E2ldId, MachineId};
pub use ip::{Ipv4, Prefix24};
pub use label::Label;
pub use lists::{Blacklist, Whitelist};
pub use time::{Day, DayWindow};
