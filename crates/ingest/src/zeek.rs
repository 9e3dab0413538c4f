//! Zeek (Bro) `dns.log` ingestion.
//!
//! Zeek is the monitoring stack most likely to already be watching an
//! ISP's resolver link, and its TSV `dns.log` carries everything Segugio
//! needs: timestamp, client address, qname and the answer set. This parser
//! reads the `#fields` header to locate columns (so reordered or extended
//! logs keep working), keeps `A`-type `NOERROR` responses with at least
//! one IPv4 answer, and converts timestamps to day indices.
//!
//! # Example
//!
//! ```
//! use segugio_ingest::zeek::ZeekReader;
//! use segugio_ingest::LogCollector;
//!
//! let log = "\
//! #separator \\x09
//! #fields\tts\tuid\tid.orig_h\tid.resp_h\tquery\tqtype_name\trcode_name\tanswers
//! 86400.5\tC1\t10.0.0.1\t8.8.8.8\twww.example.com\tA\tNOERROR\t93.184.216.34
//! 86401.0\tC2\t10.0.0.2\t8.8.8.8\twww.example.com\tAAAA\tNOERROR\t2606:2800::1
//! ";
//! let mut collector = LogCollector::new();
//! let reader = ZeekReader::new();
//! let stats = reader.ingest(log.as_bytes(), &mut collector).unwrap();
//! assert_eq!(stats.ingested, 1); // the AAAA record is skipped
//! assert_eq!(collector.machine_count(), 1);
//! ```

use std::collections::HashMap;
use std::io::Read;

use segugio_model::{Day, DomainName, Ipv4, ParseDomainError};

use crate::collector::LogCollector;
use crate::error::IngestError;
use crate::parser::{scan_lines, Line, LogPosition, LogRecord};
use crate::quarantine::QuarantinePolicy;

/// What a Zeek ingestion pass did, with "benign filter" separated from
/// "corrupt input" so quarantine thresholds can tell a healthy log full of
/// AAAA lookups apart from a damaged one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZeekStats {
    /// Records ingested (A-type, NOERROR, with usable qname and client).
    pub ingested: usize,
    /// Healthy lines filtered by design: non-A qtypes and non-NOERROR
    /// rcodes.
    pub skipped_non_a: usize,
    /// Comment (`#...`) and blank lines.
    pub skipped_headers: usize,
    /// Damaged lines: unparsable timestamps, out-of-range days, missing
    /// clients, invalid qnames, invalid UTF-8.
    pub errors: usize,
}

impl ZeekStats {
    /// Everything that was not ingested, across all kinds.
    pub fn skipped(&self) -> usize {
        self.skipped_non_a + self.skipped_headers + self.errors
    }
}

/// What one data line amounted to, before its qname is looked at.
enum LineOutcome<'a> {
    /// In scope; the IPv4 answers are in the caller's scratch.
    Record {
        day: Day,
        client: &'a str,
        qname: &'a str,
    },
    /// Healthy but out of scope (non-A, non-NOERROR).
    Filtered,
    /// Damaged (bad timestamp, missing client, ...).
    Damaged,
}

/// Configurable Zeek `dns.log` reader.
#[derive(Debug, Clone)]
pub struct ZeekReader {
    /// Unix timestamp of "day 0"; defaults to 0 (days = `ts / 86400`).
    epoch: f64,
}

impl Default for ZeekReader {
    fn default() -> Self {
        ZeekReader { epoch: 0.0 }
    }
}

impl ZeekReader {
    /// A reader with day 0 at the Unix epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the Unix timestamp that maps to day 0 (use the first day of
    /// your capture so day indices stay small).
    pub fn with_epoch(epoch: f64) -> Self {
        ZeekReader { epoch }
    }

    /// Parses a Zeek `dns.log` stream into `collector`.
    ///
    /// Damaged *data* lines are counted in [`ZeekStats::errors`] rather
    /// than failing the whole file — Zeek logs routinely contain `-`
    /// fields — and filtered non-A/non-NOERROR lines are counted
    /// separately in [`ZeekStats::skipped_non_a`].
    ///
    /// # Errors
    ///
    /// [`IngestError::BadHeader`] when the stream has no `#fields` header
    /// before data or the header lacks a required column, and
    /// [`IngestError::Io`] when reading fails (invalid UTF-8 is counted as
    /// a line error, not a failure).
    pub fn ingest<R: Read>(
        &self,
        reader: R,
        collector: &mut LogCollector,
    ) -> Result<ZeekStats, IngestError> {
        // Zeek logs rotate by file, so a day has no place in "the" log to
        // resume from: every record stands at the top.
        self.ingest_with(reader, |day, client, qname, ips| {
            collector.ingest_fields(day, client, qname, ips, LogPosition::START)
        })
    }

    /// Parses a Zeek `dns.log` stream in quarantine mode: like
    /// [`ingest`](Self::ingest), but the records are committed to
    /// `collector` only if line damage stays under `policy` — otherwise
    /// the whole file is rejected with
    /// [`IngestError::QuarantineExceeded`] and nothing is ingested.
    /// Filtered non-A/non-NOERROR lines never count against the policy.
    pub fn ingest_quarantined<R: Read>(
        &self,
        reader: R,
        collector: &mut LogCollector,
        policy: &QuarantinePolicy,
    ) -> Result<ZeekStats, IngestError> {
        // All-or-nothing needs the records staged, hence owned.
        let mut parsed: Vec<LogRecord> = Vec::new();
        let stats = self.ingest_with(reader, |day, client, qname, ips| {
            parsed.push(LogRecord {
                day,
                client: client.to_owned(),
                qname: DomainName::parse(qname)?,
                ips: ips.to_vec(),
            });
            Ok(())
        })?;
        let errors = u64::try_from(stats.errors).map_or(u64::MAX, |n| n);
        let considered = u64::try_from(stats.ingested + stats.errors).map_or(u64::MAX, |n| n);
        if policy.exceeded_counts(errors, considered) {
            return Err(IngestError::QuarantineExceeded {
                errors,
                considered,
                max_error_rate: policy.max_error_rate,
            });
        }
        for record in parsed {
            collector.ingest(record);
        }
        Ok(stats)
    }

    /// Shared reader loop; `sink` receives the day, client, raw qname and
    /// IPv4 answers of each in-scope line, borrowed from it, and says
    /// whether the qname is a domain name.
    fn ingest_with<R: Read>(
        &self,
        reader: R,
        mut sink: impl FnMut(Day, &str, &str, &[Ipv4]) -> Result<(), ParseDomainError>,
    ) -> Result<ZeekStats, IngestError> {
        let mut stats = ZeekStats::default();
        let mut columns: Option<Columns> = None;
        let mut ips = Vec::new();
        scan_lines(reader, LogPosition::START, |at, line| {
            let line = match line {
                // Non-UTF-8 bytes are line damage; the stream continues.
                Line::BadEncoding => {
                    stats.errors += 1;
                    return Ok(());
                }
                // Zeek's own notion of a comment decides below.
                Line::Skipped(line) | Line::Payload(line) => line,
            };
            if let Some(rest) = line.strip_prefix("#fields") {
                columns =
                    Some(
                        Columns::from_header(rest).map_err(|message| IngestError::BadHeader {
                            line: at.line_number(),
                            message,
                        })?,
                    );
                return Ok(());
            }
            if line.starts_with('#') || line.trim().is_empty() {
                stats.skipped_headers += 1;
                return Ok(());
            }
            let Some(cols) = &columns else {
                return Err(IngestError::BadHeader {
                    line: at.line_number(),
                    message: "data before #fields header in dns.log".to_owned(),
                });
            };
            match self.parse_line(line, cols, &mut ips) {
                LineOutcome::Record { day, client, qname } => {
                    match sink(day, client, qname, &ips) {
                        Ok(()) => stats.ingested += 1,
                        // An invalid qname is line damage too.
                        Err(_) => stats.errors += 1,
                    }
                }
                LineOutcome::Filtered => stats.skipped_non_a += 1,
                LineOutcome::Damaged => stats.errors += 1,
            }
            Ok(())
        })?;
        Ok(stats)
    }

    /// Splits one data line, leaving the IPv4 answers of an in-scope one
    /// in `ips`.
    fn parse_line<'a>(
        &self,
        line: &'a str,
        cols: &Columns,
        ips: &mut Vec<Ipv4>,
    ) -> LineOutcome<'a> {
        let wanted = [
            Some(cols.ts),
            Some(cols.orig_h),
            Some(cols.query),
            cols.qtype_name,
            cols.rcode_name,
            cols.answers,
        ];
        let mut found = [None; 6];
        for (index, field) in line.split('\t').enumerate() {
            for (slot, want) in found.iter_mut().zip(wanted) {
                if want == Some(index) {
                    *slot = Some(field);
                }
            }
        }
        // A line with fewer fields than the header reads as unset ones.
        let [ts, client, query, qtype, rcode, answers] = found.map(|f| f.unwrap_or("-"));

        // Keep only successful A lookups: anything else is a healthy
        // filter, not damage.
        if cols.qtype_name.is_some() && qtype != "A" {
            return LineOutcome::Filtered;
        }
        if cols.rcode_name.is_some() && rcode != "NOERROR" {
            return LineOutcome::Filtered;
        }
        let Ok(ts) = ts.parse::<f64>() else {
            return LineOutcome::Damaged;
        };
        let days = (ts - self.epoch) / 86_400.0;
        // Reject records before the epoch or past the day-index range, so
        // the float-to-int truncation below cannot wrap or saturate.
        if !(0.0..f64::from(u32::MAX)).contains(&days) {
            return LineOutcome::Damaged;
        }
        if client == "-" || client.is_empty() {
            return LineOutcome::Damaged;
        }
        ips.clear();
        if cols.answers.is_some() {
            ips.extend(answers.split(',').filter_map(parse_ipv4));
        }
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "truncation toward zero is the intended day bucketing and the range is checked above"
        )]
        let day = Day(days as u32);
        LineOutcome::Record {
            day,
            client,
            qname: query,
        }
    }
}

#[derive(Debug, Clone)]
struct Columns {
    ts: usize,
    orig_h: usize,
    query: usize,
    qtype_name: Option<usize>,
    rcode_name: Option<usize>,
    answers: Option<usize>,
}

impl Columns {
    fn from_header(rest: &str) -> Result<Self, String> {
        let names: Vec<&str> = rest.split('\t').filter(|s| !s.is_empty()).collect();
        let index: HashMap<&str, usize> = names.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let need = |name: &str| -> Result<usize, String> {
            index
                .get(name)
                .copied()
                .ok_or_else(|| format!("dns.log #fields header lacks `{name}`"))
        };
        Ok(Columns {
            ts: need("ts")?,
            orig_h: need("id.orig_h")?,
            query: need("query")?,
            qtype_name: index.get("qtype_name").copied(),
            rcode_name: index.get("rcode_name").copied(),
            answers: index.get("answers").copied(),
        })
    }
}

fn parse_ipv4(s: &str) -> Option<Ipv4> {
    let mut octets = [0u8; 4];
    let mut parts = s.trim().split('.');
    for octet in &mut octets {
        *octet = parts.next()?.parse().ok()?;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(Ipv4::from(octets))
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str =
        "#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tquery\tqtype_name\trcode_name\tanswers";

    fn log(lines: &[&str]) -> String {
        let mut s = String::from("#separator \\x09\n");
        s.push_str(HEADER);
        s.push('\n');
        for l in lines {
            s.push_str(l);
            s.push('\n');
        }
        s
    }

    #[test]
    fn parses_a_records_and_skips_others() {
        let text = log(&[
            "86400.5\tC1\t10.0.0.1\t5353\t8.8.8.8\twww.example.com\tA\tNOERROR\t1.2.3.4,5.6.7.8",
            "86401.0\tC2\t10.0.0.2\t5353\t8.8.8.8\twww.example.com\tAAAA\tNOERROR\t2606:2800::1",
            "86402.0\tC3\t10.0.0.3\t5353\t8.8.8.8\tmissing.example\tA\tNXDOMAIN\t-",
            "#close\t2026-01-01",
        ]);
        let mut c = LogCollector::new();
        let stats = ZeekReader::new().ingest(text.as_bytes(), &mut c).unwrap();
        assert_eq!(stats.ingested, 1);
        // AAAA + NXDOMAIN are healthy filters; #separator + #close are headers.
        assert_eq!(stats.skipped_non_a, 2);
        assert_eq!(stats.skipped_headers, 2);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.skipped(), 4);
        let day = c.day(Day(1)).expect("ts 86400 is day 1");
        assert_eq!(day.queries.len(), 1);
        let (_, ips) = &day.resolutions[0];
        assert_eq!(ips.len(), 2);
    }

    #[test]
    fn epoch_offsets_days() {
        let text =
            log(&["1000086400.0\tC1\t10.0.0.1\t1\t8.8.8.8\ta.example.com\tA\tNOERROR\t1.1.1.1"]);
        let mut c = LogCollector::new();
        ZeekReader::with_epoch(1_000_000_000.0)
            .ingest(text.as_bytes(), &mut c)
            .unwrap();
        assert!(c.day(Day(1)).is_some());
        // Timestamps before the epoch are skipped, not wrapped.
        let mut c2 = LogCollector::new();
        let stats = ZeekReader::with_epoch(2_000_000_000.0)
            .ingest(text.as_bytes(), &mut c2)
            .unwrap();
        assert_eq!(stats.ingested, 0);
    }

    #[test]
    fn reordered_columns_work() {
        let text = "\
#fields\tquery\tts\tid.orig_h\tanswers\tqtype_name\trcode_name
b.example.org\t86400.0\t10.1.1.1\t9.9.9.9\tA\tNOERROR
";
        let mut c = LogCollector::new();
        let stats = ZeekReader::new().ingest(text.as_bytes(), &mut c).unwrap();
        assert_eq!(stats.ingested, 1);
        assert!(c.table().get_str("b.example.org").is_some());
    }

    #[test]
    fn missing_header_or_columns_error() {
        let mut c = LogCollector::new();
        assert!(ZeekReader::new()
            .ingest("1\t2\t3\n".as_bytes(), &mut c)
            .is_err());
        assert!(ZeekReader::new()
            .ingest("#fields\tts\tquery\n".as_bytes(), &mut c)
            .is_err());
    }

    #[test]
    fn malformed_data_lines_are_skipped_not_fatal() {
        let text = log(&[
            "not-a-ts\tC1\t10.0.0.1\t1\t8.8.8.8\ta.example.com\tA\tNOERROR\t1.1.1.1",
            "86400.0\tC1\t-\t1\t8.8.8.8\ta.example.com\tA\tNOERROR\t1.1.1.1",
            "86400.0\tC1\t10.0.0.1\t1\t8.8.8.8\tnot a domain\tA\tNOERROR\t1.1.1.1",
        ]);
        let mut c = LogCollector::new();
        let stats = ZeekReader::new().ingest(text.as_bytes(), &mut c).unwrap();
        assert_eq!(stats.ingested, 0);
        assert_eq!(stats.errors, 3); // bad ts, `-` client, invalid qname
        assert_eq!(stats.skipped_headers, 1); // the #separator line
        assert_eq!(stats.skipped_non_a, 0);
    }

    #[test]
    fn quarantined_zeek_rejects_noisy_file() {
        let mut bad_lines: Vec<String> = Vec::new();
        for i in 0..10 {
            bad_lines.push(format!(
                "not-a-ts\tC{i}\t10.0.0.{i}\t1\t8.8.8.8\ta.example.com\tA\tNOERROR\t1.1.1.1"
            ));
        }
        bad_lines.push(
            "86400.0\tC1\t10.0.0.1\t1\t8.8.8.8\tgood.example.com\tA\tNOERROR\t1.1.1.1".to_owned(),
        );
        let refs: Vec<&str> = bad_lines.iter().map(String::as_str).collect();
        let text = log(&refs);
        let mut c = LogCollector::new();
        let err = ZeekReader::new()
            .ingest_quarantined(
                text.as_bytes(),
                &mut c,
                &crate::quarantine::QuarantinePolicy::default(),
            )
            .unwrap_err();
        assert!(matches!(err, IngestError::QuarantineExceeded { .. }));
        // All-or-nothing: even the good record was withheld.
        assert_eq!(c.machine_count(), 0);
    }

    #[test]
    fn quarantined_zeek_ignores_benign_filters() {
        // A log dominated by AAAA lookups is healthy, not quarantinable.
        let mut lines: Vec<String> = Vec::new();
        for i in 0..50 {
            lines.push(format!(
                "86400.0\tC{i}\t10.0.0.1\t1\t8.8.8.8\ta.example.com\tAAAA\tNOERROR\t::1"
            ));
        }
        lines.push(
            "86400.0\tC1\t10.0.0.1\t1\t8.8.8.8\tgood.example.com\tA\tNOERROR\t1.1.1.1".to_owned(),
        );
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let text = log(&refs);
        let mut c = LogCollector::new();
        let stats = ZeekReader::new()
            .ingest_quarantined(
                text.as_bytes(),
                &mut c,
                &crate::quarantine::QuarantinePolicy::default(),
            )
            .unwrap();
        assert_eq!(stats.ingested, 1);
        assert_eq!(stats.skipped_non_a, 50);
        assert_eq!(c.machine_count(), 1);
    }
}
