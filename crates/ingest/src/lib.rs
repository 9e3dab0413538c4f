//! DNS query-log ingestion: the path from *real* resolver logs into the
//! Segugio pipeline.
//!
//! The rest of the workspace evaluates on synthetic traffic
//! (`segugio-traffic`), but a deployment consumes the ISP's own logs. This
//! crate parses a simple tab-separated log format (one A-record response
//! per line) and accumulates it into exactly the inputs
//! `segugio_core::SnapshotInput` needs: interned domains, per-day query
//! edges and resolutions, and the history stores (activity + passive DNS)
//! that back feature groups F2 and F3.
//!
//! # Log format
//!
//! One line per authoritative response that mapped a domain to valid IPs
//! (the paper's monitoring point — queries between clients and the local
//! resolver, NOERROR answers only):
//!
//! ```text
//! <day>\t<client-id>\t<qname>\t<ip>[,<ip>...]
//! ```
//!
//! - `day`: integer day index (convert your timestamps to days since your
//!   epoch; Segugio is day-granular),
//! - `client-id`: any stable machine identifier (anonymized is fine —
//!   the string is interned, never interpreted),
//! - `qname`: the queried domain,
//! - `ip`: dotted-quad resolved addresses, comma-separated.
//!
//! Comment lines (`#`) and blank lines are skipped.
//!
//! # Reading a growing log day after day
//!
//! A resolver's log is append-only and months long; a daily run wants
//! the new day. What a read of the log builds, apart from the traffic
//! itself, is small — the names and their ids, both history stores, which
//! days start where, how far the read got — and
//! [`LogCollector::state_bytes`] writes it as the front-end section of
//! the one persistence container, for the caller to keep (`segugio track`
//! keeps it in the tracker's checkpoint). The next run
//! [decodes](LogCollector::from_state_bytes) it, has
//! [`LogCollector::resume_log`] check it against the log as it now is,
//! and [reads on](LogCollector::ingest_reader_from) from there: the
//! collector it ends up with is the one a read of the whole log builds
//! (`tests/prop_ingest.rs` holds it to that at every line boundary). The
//! [`state`] module says what the state holds;
//! `segugio_model::container` writes down its bytes.
//!
//! # Example
//!
//! ```
//! use segugio_ingest::LogCollector;
//!
//! let log = "\
//! ## comment lines start with a hash
//! 0\thost-a\twww.example.com\t93.184.216.34
//! 0\thost-b\twww.example.com\t93.184.216.34
//! 1\thost-a\tevil.test\t198.51.100.9,198.51.100.10
//! ";
//! let mut collector = LogCollector::new();
//! collector.ingest_reader(log.as_bytes()).unwrap();
//! assert_eq!(collector.machine_count(), 2);
//! let day0 = collector.day(segugio_model::Day(0)).unwrap();
//! assert_eq!(day0.queries.len(), 2);
//! ```

#![warn(missing_docs)]
// Library code returns typed errors; a panic site needs a reasoned
// `#[expect(clippy::…, reason = "…")]`, which fails the build once stale.
// Hash-set/map iteration order differs per process, so it must not reach
// ordered output; a site whose order provably cannot matter is an
// `#[expect]` too — a plain `#[allow]` is denied.
// Parsers read attacker-shaped input, so lossy `as` casts are denied too.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::undocumented_unsafe_blocks,
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap,
    clippy::cast_precision_loss
)]

pub mod collector;
pub mod error;
pub mod export;
pub mod parser;
pub mod quarantine;
pub mod state;

pub use collector::{IngestedDay, LogCollector};
pub use error::{IngestError, ParseLogError};
pub use export::export_day;
pub use parser::{LogPosition, LogRecord};
pub use quarantine::{IngestStats, QuarantinePolicy};
