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
// Parsers read attacker-shaped input, so lossy `as` casts are denied too.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::undocumented_unsafe_blocks,
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
pub mod zeek;

pub use collector::{IngestedDay, LogCollector};
pub use error::{IngestError, ParseLogError};
pub use export::export_day;
pub use parser::LogRecord;
pub use quarantine::{IngestStats, QuarantinePolicy};
pub use zeek::{ZeekReader, ZeekStats};
