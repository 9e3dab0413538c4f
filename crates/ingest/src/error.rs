//! Ingestion errors.

use std::error::Error;
use std::fmt;

use segugio_model::ParseDomainError;

/// Returned when a log line cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLogError {
    line: u64,
    kind: ParseLogErrorKind,
}

/// What went wrong on the line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseLogErrorKind {
    /// Fewer than four tab-separated fields.
    MissingField(&'static str),
    /// The day field was not a non-negative integer.
    BadDay(String),
    /// The client id was empty.
    EmptyClient,
    /// The qname failed domain-name validation.
    BadDomain(ParseDomainError),
    /// An address failed dotted-quad parsing.
    BadIp(String),
}

impl ParseLogError {
    pub(crate) fn new(line: u64, kind: ParseLogErrorKind) -> Self {
        ParseLogError { line, kind }
    }

    /// The same error `lines` lines further down: a block's lines are
    /// numbered from its start until the block finds its place in the log.
    pub(crate) fn lines_down(mut self, lines: u64) -> Self {
        self.line = self.line.saturating_add(lines);
        self
    }

    /// 1-based line number the error occurred on.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// The failure kind.
    pub fn kind(&self) -> &ParseLogErrorKind {
        &self.kind
    }
}

impl fmt::Display for ParseLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "log line {}: ", self.line)?;
        match &self.kind {
            ParseLogErrorKind::MissingField(name) => write!(f, "missing field `{name}`"),
            ParseLogErrorKind::BadDay(s) => write!(f, "invalid day index `{s}`"),
            ParseLogErrorKind::EmptyClient => write!(f, "empty client id"),
            ParseLogErrorKind::BadDomain(e) => write!(f, "invalid qname: {e}"),
            ParseLogErrorKind::BadIp(s) => write!(f, "invalid ip address `{s}`"),
        }
    }
}

impl Error for ParseLogError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.kind {
            ParseLogErrorKind::BadDomain(e) => Some(e),
            _ => None,
        }
    }
}

/// Errors from reader-level ingestion
/// ([`LogCollector::ingest_reader`](crate::LogCollector::ingest_reader)
/// and [`LogCollector::ingest_quarantined`](crate::LogCollector::ingest_quarantined)).
#[derive(Debug)]
pub enum IngestError {
    /// A line failed to parse (fail-fast mode only; quarantined ingestion
    /// counts these instead).
    Parse(ParseLogError),
    /// Reading failed at the given line with a transport-level error.
    Io {
        /// 1-based line number where reading failed.
        line: u64,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// Quarantined ingestion rejected the whole file as too noisy; nothing
    /// was committed to the collector.
    QuarantineExceeded {
        /// Error lines counted across every kind.
        errors: u64,
        /// Lines considered for ingestion (records + errors).
        considered: u64,
        /// The policy threshold that was exceeded.
        max_error_rate: f64,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Parse(e) => write!(f, "{e}"),
            IngestError::Io { line, source } => {
                write!(f, "log line {line}: i/o error: {source}")
            }
            IngestError::QuarantineExceeded {
                errors,
                considered,
                max_error_rate,
            } => write!(
                f,
                "quarantine exceeded: {errors} damaged lines out of {considered} \
                 (error rate above {max_error_rate}); file rejected, nothing ingested"
            ),
        }
    }
}

impl Error for IngestError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IngestError::Parse(e) => Some(e),
            IngestError::Io { source, .. } => Some(source),
            IngestError::QuarantineExceeded { .. } => None,
        }
    }
}
