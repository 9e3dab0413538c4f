//! Accumulating parsed logs into pipeline inputs.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};

use segugio_graph::EdgeRuns;
use segugio_model::{Day, DomainId, DomainTable, Ipv4, MachineId};
use segugio_pdns::{ActivityStore, PassiveDns};

use crate::error::IngestError;
use crate::parser::LogRecord;
use crate::quarantine::{IngestStats, QuarantinePolicy};

/// One ingested day, ready for `segugio_core::SnapshotInput`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestedDay {
    /// `(machine, domain)` query observations, sorted and duplicate-free.
    pub queries: Vec<(MachineId, DomainId)>,
    /// Per-domain resolved IPs observed that day, duplicate-free per domain.
    pub resolutions: Vec<(DomainId, Vec<Ipv4>)>,
}

/// Accumulates multi-day DNS logs into the structures Segugio consumes:
/// an interned [`DomainTable`], per-day query/resolution lists, and the
/// [`ActivityStore`] / [`PassiveDns`] history stores.
///
/// Client identifiers are interned to dense [`MachineId`]s in first-seen
/// order; the mapping is exposed via [`LogCollector::machine_name`].
#[derive(Debug, Clone, Default)]
pub struct LogCollector {
    table: DomainTable,
    activity: ActivityStore,
    pdns: PassiveDns,
    machines: Vec<String>,
    machine_ids: HashMap<String, MachineId>,
    days: BTreeMap<u32, DayAccumulator>,
    // `None` = [`EdgeRuns`] default capacity.
    run_capacity: Option<usize>,
}

#[derive(Debug, Clone, Default)]
struct DayAccumulator {
    // Fixed-capacity sorted runs, spilled to scratch above the cap, so a
    // paper-scale day never holds all query observations in one `Vec`.
    queries: EdgeRuns,
    // Ordered so `LogCollector::day` emits resolutions deterministically.
    // IPs accumulate with duplicates and are deduped once at finalization
    // (the old per-record `contains` scan was O(n²) per domain).
    resolutions: BTreeMap<DomainId, Vec<Ipv4>>,
}

impl DayAccumulator {
    fn with_run_capacity(capacity: Option<usize>) -> Self {
        Self {
            queries: capacity.map_or_else(EdgeRuns::new, EdgeRuns::with_run_capacity),
            resolutions: BTreeMap::new(),
        }
    }
}

impl LogCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty collector whose per-day query accumulators seal
    /// (and spill to a scratch file) every `capacity` observations,
    /// bounding resident memory for arbitrarily large days.
    pub fn with_run_capacity(capacity: usize) -> Self {
        Self {
            run_capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// Ingests one parsed record.
    pub fn ingest(&mut self, record: LogRecord) {
        let machine = self.intern_machine(&record.client);
        let domain = self.table.intern(&record.qname);
        let e2ld = self.table.e2ld_of(domain);
        self.activity.record(domain, e2ld, record.day);
        for &ip in &record.ips {
            self.pdns.record(domain, ip, record.day);
        }
        let capacity = self.run_capacity;
        let acc = self
            .days
            .entry(record.day.0)
            .or_insert_with(|| DayAccumulator::with_run_capacity(capacity));
        acc.queries.push(machine, domain);
        if !record.ips.is_empty() {
            let ips = acc.resolutions.entry(domain).or_default();
            ips.extend_from_slice(&record.ips);
        }
    }

    /// Parses and ingests every line of a reader (`#` comments and blank
    /// lines are skipped).
    ///
    /// # Errors
    ///
    /// Returns the first parse or I/O failure, with its line number;
    /// everything before the failing line has been ingested.
    pub fn ingest_reader<R: Read>(&mut self, reader: R) -> Result<usize, IngestError> {
        let mut ingested = 0usize;
        for (idx, line) in BufReader::new(reader).lines().enumerate() {
            let line_no = u64::try_from(idx).map_or(u64::MAX, |n| n.saturating_add(1));
            let line = line.map_err(|e| IngestError::Io {
                line: line_no,
                source: e,
            })?;
            if line.trim().is_empty() || line.trim_start().starts_with('#') {
                continue;
            }
            // Only strip the carriage return: a trailing tab is significant
            // (it delimits an empty IP list).
            let payload = line.trim_end_matches('\r');
            self.ingest(LogRecord::parse(payload, line_no).map_err(IngestError::Parse)?);
            ingested += 1;
        }
        Ok(ingested)
    }

    /// Parses a reader in quarantine mode: damaged lines are counted by
    /// kind instead of aborting the file, and the records are committed
    /// only if the damage stays under `policy`.
    ///
    /// This is the deployment-facing twin of
    /// [`ingest_reader`](Self::ingest_reader): real feeds carry torn
    /// writes, invalid UTF-8 and garbled fields, and one bad line must not
    /// lose a day. Commit is all-or-nothing — when the policy is exceeded
    /// the collector is left exactly as it was, so a mis-formatted or
    /// truncated file can never half-poison the behavior graph.
    ///
    /// # Errors
    ///
    /// [`IngestError::QuarantineExceeded`] when the file is too noisy
    /// (nothing ingested), or [`IngestError::Io`] on a transport-level read
    /// failure (invalid UTF-8 is *data* damage and is counted, not fatal).
    pub fn ingest_quarantined<R: Read>(
        &mut self,
        reader: R,
        policy: &QuarantinePolicy,
    ) -> Result<IngestStats, IngestError> {
        let mut stats = IngestStats::default();
        let mut parsed: Vec<LogRecord> = Vec::new();
        for (idx, line) in BufReader::new(reader).lines().enumerate() {
            let line_no = u64::try_from(idx).map_or(u64::MAX, |n| n.saturating_add(1));
            let line = match line {
                Ok(line) => line,
                // `lines()` yields `InvalidData` for non-UTF-8 bytes but
                // the stream stays usable: count and move on.
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    stats.bad_encoding += 1;
                    continue;
                }
                Err(e) => {
                    return Err(IngestError::Io {
                        line: line_no,
                        source: e,
                    })
                }
            };
            if line.trim().is_empty() || line.trim_start().starts_with('#') {
                stats.skipped_comments += 1;
                continue;
            }
            let payload = line.trim_end_matches('\r');
            match LogRecord::parse(payload, line_no) {
                Ok(record) => parsed.push(record),
                Err(e) => stats.note_parse(e.kind()),
            }
        }
        stats.ingested = u64::try_from(parsed.len()).map_or(u64::MAX, |n| n);
        if policy.exceeded(&stats) {
            return Err(IngestError::QuarantineExceeded {
                errors: stats.errors(),
                considered: stats.considered(),
                max_error_rate: policy.max_error_rate,
            });
        }
        for record in parsed {
            self.ingest(record);
        }
        Ok(stats)
    }

    fn intern_machine(&mut self, client: &str) -> MachineId {
        if let Some(&id) = self.machine_ids.get(client) {
            return id;
        }
        let next = u32::try_from(self.machines.len());
        #[expect(
            clippy::expect_used,
            reason = "exhausting the 32-bit machine-id space cannot be recovered mid-ingest; aborting is the only sane response"
        )]
        let id = MachineId(next.expect("more than u32::MAX client machines"));
        self.machines.push(client.to_owned());
        self.machine_ids.insert(client.to_owned(), id);
        id
    }

    /// The interned domain table.
    pub fn table(&self) -> &DomainTable {
        &self.table
    }

    /// The accumulated activity store (feature group F2 input).
    pub fn activity(&self) -> &ActivityStore {
        &self.activity
    }

    /// The accumulated passive-DNS store (feature group F3 input).
    pub fn pdns(&self) -> &PassiveDns {
        &self.pdns
    }

    /// Number of distinct client machines seen.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// The original client identifier behind a [`MachineId`].
    pub fn machine_name(&self, id: MachineId) -> Option<&str> {
        self.machines.get(id.index()).map(|s| s.as_str())
    }

    /// The [`MachineId`] for a client identifier, if seen.
    pub fn machine_id(&self, client: &str) -> Option<MachineId> {
        self.machine_ids.get(client).copied()
    }

    /// Days with ingested traffic, ascending.
    pub fn days(&self) -> Vec<Day> {
        self.days.keys().map(|&d| Day(d)).collect()
    }

    /// The ingested traffic of `day`, if any, as snapshot-ready lists.
    ///
    /// Convenience wrapper over [`try_day`](Self::try_day) that also maps a
    /// scratch-file read failure (possible only once a day has spilled past
    /// the run capacity) to `None`; callers that must distinguish "no
    /// traffic" from "scratch read failed" should use `try_day`.
    pub fn day(&self, day: Day) -> Option<IngestedDay> {
        self.try_day(day).ok().flatten()
    }

    /// The ingested traffic of `day`, if any, as snapshot-ready lists.
    ///
    /// Queries come back sorted and deduplicated (the downstream graph
    /// builder deduplicates anyway, so nothing pipeline-visible is lost);
    /// per-domain IP lists are deduplicated here, once, instead of per
    /// ingested record.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from re-reading query runs that were spilled
    /// to the scratch file.
    pub fn try_day(&self, day: Day) -> std::io::Result<Option<IngestedDay>> {
        let Some(acc) = self.days.get(&day.0) else {
            return Ok(None);
        };
        let queries = acc.queries.collect_merged()?;
        let resolutions = acc
            .resolutions
            .iter()
            .map(|(&d, ips)| {
                let mut ips = ips.clone();
                ips.sort_unstable();
                ips.dedup();
                (d, ips)
            })
            .collect();
        Ok(Some(IngestedDay {
            queries,
            resolutions,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# comment line
0\thost-a\twww.example.com\t93.184.216.34

0\thost-b\twww.example.com\t93.184.216.34
0\thost-a\tmail.example.com\t93.184.216.35
1\thost-a\tevil.test\t198.51.100.9,198.51.100.10
";

    fn collected() -> LogCollector {
        let mut c = LogCollector::new();
        let n = c.ingest_reader(SAMPLE.as_bytes()).unwrap();
        assert_eq!(n, 4);
        c
    }

    #[test]
    fn machines_and_domains_are_interned() {
        let c = collected();
        assert_eq!(c.machine_count(), 2);
        assert_eq!(c.machine_name(MachineId(0)), Some("host-a"));
        assert_eq!(c.machine_id("host-b"), Some(MachineId(1)));
        assert_eq!(c.machine_id("missing"), None);
        assert_eq!(c.table().len(), 3);
    }

    #[test]
    fn days_are_separated() {
        let c = collected();
        assert_eq!(c.days(), vec![Day(0), Day(1)]);
        let d0 = c.day(Day(0)).unwrap();
        assert_eq!(d0.queries.len(), 3);
        assert_eq!(d0.resolutions.len(), 2);
        let d1 = c.day(Day(1)).unwrap();
        assert_eq!(d1.queries.len(), 1);
        let (_, ips) = &d1.resolutions[0];
        assert_eq!(ips.len(), 2);
        assert!(c.day(Day(7)).is_none());
    }

    #[test]
    fn duplicate_ips_are_deduped_at_finalization() {
        let c = collected();
        let d0 = c.day(Day(0)).unwrap();
        // www.example.com resolved to the same IP in two records; the
        // finalized list carries it once.
        let www = c.table().get_str("www.example.com").unwrap();
        let (_, ips) = d0.resolutions.iter().find(|(d, _)| *d == www).unwrap();
        assert_eq!(ips, &vec![Ipv4::from_octets(93, 184, 216, 34)]);
    }

    #[test]
    fn spilled_days_match_resident_days() {
        // Capacity 2 forces day 0 (three observations) through the
        // seal-and-spill path; output must be identical either way.
        let mut resident = LogCollector::new();
        let mut spilled = LogCollector::with_run_capacity(2);
        resident.ingest_reader(SAMPLE.as_bytes()).unwrap();
        spilled.ingest_reader(SAMPLE.as_bytes()).unwrap();
        assert_eq!(resident.days(), spilled.days());
        for day in resident.days() {
            assert_eq!(
                resident.try_day(day).unwrap(),
                spilled.try_day(day).unwrap()
            );
        }
    }

    #[test]
    fn history_stores_accumulate() {
        let c = collected();
        let www = c.table().get_str("www.example.com").unwrap();
        assert!(c.activity().fqd_active_on(www, Day(0)));
        assert!(!c.activity().fqd_active_on(www, Day(1)));
        assert_eq!(
            c.pdns().resolved_ips(www, Day(1).lookback(5)),
            vec![Ipv4::from_octets(93, 184, 216, 34)]
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let mut c = LogCollector::new();
        let err = c
            .ingest_reader("0\ta\texample.com\t1.1.1.1\nnot-a-line\n".as_bytes())
            .unwrap_err();
        match err {
            IngestError::Parse(e) => assert_eq!(e.line(), 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        // The good line before the failure was ingested.
        assert_eq!(c.machine_count(), 1);
    }

    #[test]
    fn quarantine_tolerates_sparse_damage() {
        let mut c = LogCollector::new();
        let mut text = String::from("# header\n");
        for i in 0..100 {
            text.push_str(&format!("0\thost-{i}\twww.example.com\t1.2.3.4\n"));
        }
        text.push_str("0\thost-x\n"); // truncated: qname and ips fields lost
        text.push_str("not-a-day\thost-x\twww.example.com\t1.2.3.4\n");
        let stats = c
            .ingest_quarantined(text.as_bytes(), &QuarantinePolicy::default())
            .unwrap();
        assert_eq!(stats.ingested, 100);
        assert_eq!(stats.missing_field, 1);
        assert_eq!(stats.bad_day, 1);
        assert_eq!(stats.skipped_comments, 1);
        assert_eq!(stats.errors(), 2);
        assert_eq!(c.machine_count(), 100);
    }

    #[test]
    fn quarantine_rejects_noisy_file_without_ingesting() {
        let mut c = LogCollector::new();
        let mut text = String::new();
        for i in 0..10 {
            text.push_str(&format!("0\thost-{i}\twww.example.com\t1.2.3.4\n"));
        }
        for _ in 0..10 {
            text.push_str("completely broken\n");
        }
        let err = c
            .ingest_quarantined(text.as_bytes(), &QuarantinePolicy::default())
            .unwrap_err();
        match err {
            IngestError::QuarantineExceeded {
                errors, considered, ..
            } => {
                assert_eq!(errors, 10);
                assert_eq!(considered, 20);
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // All-or-nothing: the collector is untouched.
        assert_eq!(c.machine_count(), 0);
        assert!(c.days().is_empty());
    }

    #[test]
    fn quarantine_counts_invalid_utf8_and_continues() {
        let mut c = LogCollector::new();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"0\thost-a\twww.example.com\t1.2.3.4\n");
        bytes.extend_from_slice(b"0\thost-\xFF\tbroken\t\n");
        bytes.extend_from_slice(b"0\thost-b\twww.example.com\t1.2.3.4\n");
        let stats = c
            .ingest_quarantined(bytes.as_slice(), &QuarantinePolicy::default())
            .unwrap();
        assert_eq!(stats.ingested, 2);
        assert_eq!(stats.bad_encoding, 1);
        assert_eq!(c.machine_count(), 2);
    }
}
