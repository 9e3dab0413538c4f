//! Quarantined ingestion: per-kind error accounting with a noisy-file
//! threshold.
//!
//! Live resolver logs are never clean — torn writes, rotated fragments,
//! invalid UTF-8 and garbled fields are routine. The fail-fast
//! [`LogCollector::ingest_reader`](crate::LogCollector::ingest_reader) is
//! right for curated fixtures, but in a deployment one bad line must not
//! abort a day. Quarantined ingestion instead *counts* every failure by
//! kind and commits the file's records only if the error rate stays under a
//! [`QuarantinePolicy`] threshold. Past the threshold the whole file is
//! rejected with a typed
//! [`IngestError::QuarantineExceeded`](crate::IngestError::QuarantineExceeded)
//! and **nothing** is ingested — a file that noisy is more likely to be
//! mis-formatted or truncated mid-stream than merely dirty, and partially
//! ingesting it would poison the behavior graph silently.

/// Per-kind line accounting from one quarantined ingestion pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Records parsed and (if under threshold) committed.
    pub ingested: u64,
    /// Blank lines and `#` comments — not counted as errors.
    pub skipped_comments: u64,
    /// Lines with fewer than the required tab-separated fields.
    pub missing_field: u64,
    /// Lines whose day field was not a non-negative integer.
    pub bad_day: u64,
    /// Lines with an empty client identifier.
    pub bad_client: u64,
    /// Lines whose qname failed domain-name validation.
    pub bad_domain: u64,
    /// Lines with an unparsable IP address.
    pub bad_ip: u64,
    /// Lines that were not valid UTF-8 (or otherwise unreadable data).
    pub bad_encoding: u64,
}

impl IngestStats {
    /// Total error lines across every kind (comments excluded).
    pub fn errors(&self) -> u64 {
        self.missing_field
            + self.bad_day
            + self.bad_client
            + self.bad_domain
            + self.bad_ip
            + self.bad_encoding
    }

    /// Lines that were candidates for ingestion: records plus errors
    /// (comments and blanks are not candidates).
    pub fn considered(&self) -> u64 {
        self.ingested + self.errors()
    }

    /// Fraction of considered lines that errored; `0.0` on an empty file.
    #[expect(
        clippy::cast_precision_loss,
        reason = "line counts stay far below 2^52 so the f64 casts are exact"
    )]
    pub fn error_rate(&self) -> f64 {
        let considered = self.considered();
        if considered == 0 {
            return 0.0;
        }
        self.errors() as f64 / considered as f64
    }

    /// Adds another pass's counts to these.
    pub(crate) fn add(&mut self, other: &IngestStats) {
        self.ingested += other.ingested;
        self.skipped_comments += other.skipped_comments;
        self.missing_field += other.missing_field;
        self.bad_day += other.bad_day;
        self.bad_client += other.bad_client;
        self.bad_domain += other.bad_domain;
        self.bad_ip += other.bad_ip;
        self.bad_encoding += other.bad_encoding;
    }

    /// Records one parse failure under its kind.
    pub(crate) fn note_parse(&mut self, kind: &crate::error::ParseLogErrorKind) {
        use crate::error::ParseLogErrorKind as K;
        match kind {
            K::MissingField(_) => self.missing_field += 1,
            K::BadDay(_) => self.bad_day += 1,
            K::EmptyClient => self.bad_client += 1,
            K::BadDomain(_) => self.bad_domain += 1,
            K::BadIp(_) => self.bad_ip += 1,
        }
    }
}

/// When to reject a noisy file outright instead of skipping its bad lines.
///
/// Both conditions must hold for rejection: at least
/// [`min_errors`](Self::min_errors) failures (so one typo in a ten-line
/// fixture does not quarantine it) *and* an error rate above
/// [`max_error_rate`](Self::max_error_rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantinePolicy {
    /// Maximum tolerated `errors / (ingested + errors)` ratio.
    pub max_error_rate: f64,
    /// Minimum absolute error count before the rate is even consulted.
    pub min_errors: u64,
}

impl Default for QuarantinePolicy {
    /// Tolerate up to 5% damaged lines, and never quarantine on fewer than
    /// 8 absolute failures.
    fn default() -> Self {
        QuarantinePolicy {
            max_error_rate: 0.05,
            min_errors: 8,
        }
    }
}

impl QuarantinePolicy {
    /// Whether raw counts exceed the policy.
    #[expect(
        clippy::cast_precision_loss,
        reason = "line counts stay far below 2^52 so the f64 casts are exact"
    )]
    pub fn exceeded_counts(&self, errors: u64, considered: u64) -> bool {
        if errors < self.min_errors || considered == 0 {
            return false;
        }
        (errors as f64 / considered as f64) > self.max_error_rate
    }

    /// Whether a stats record exceeds the policy.
    pub fn exceeded(&self, stats: &IngestStats) -> bool {
        self.exceeded_counts(stats.errors(), stats.considered())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_rate_handles_empty_and_mixed() {
        let mut s = IngestStats::default();
        assert_eq!(s.error_rate(), 0.0);
        s.ingested = 90;
        s.bad_day = 6;
        s.bad_encoding = 4;
        assert_eq!(s.errors(), 10);
        assert_eq!(s.considered(), 100);
        assert!((s.error_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn policy_needs_both_rate_and_count() {
        let p = QuarantinePolicy::default();
        // High rate but too few absolute errors: tolerated.
        assert!(!p.exceeded_counts(3, 4));
        // Many errors but low rate: tolerated.
        assert!(!p.exceeded_counts(10, 1000));
        // Both: quarantined.
        assert!(p.exceeded_counts(10, 100));
    }
}
