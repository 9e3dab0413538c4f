//! Accumulating parsed logs into pipeline inputs.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom};

use segugio_graph::EdgeRuns;
use segugio_model::{Day, DomainId, DomainName, DomainTable, Ipv4, MachineId};
use segugio_pdns::{ActivityStore, PassiveDns};

use crate::error::{IngestError, ParseLogError};
use crate::parser::{scan_lines, Line, LogPosition, LogRecord, RawRecord, Scanned};
use crate::quarantine::{IngestStats, QuarantinePolicy};
use crate::state::LogGuard;

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
///
/// A resolver log repeats itself — millions of lines name a few tens of
/// thousands of domains and clients — so every step looks an id up first
/// and allocates, validates or touches a history store only for what it
/// has not seen: a repeated line costs two hash probes, one dense-`Vec`
/// memo check and one query-edge push.
///
/// # Continuing an append-only log
///
/// Everything a read of the log builds except the traffic itself — names
/// and their ids, machine names, both history stores, the days seen and
/// where each first appears, how far the log was read and a fingerprint
/// of the bytes just before that point — is the collector's *durable
/// state*: [`state_bytes`](Self::state_bytes) writes it as the
/// front-end section of a checkpoint container,
/// [`from_state_bytes`](Self::from_state_bytes) rebuilds a collector with
/// the same ids from it, [`resume_log`](Self::resume_log) checks that
/// state against the log as it is now and says where to read on, and
/// [`ingest_reader_from`](Self::ingest_reader_from) reads on from there.
/// A daily run then costs the new day, not the age of the log.
#[derive(Debug, Clone, Default)]
pub struct LogCollector {
    pub(crate) table: DomainTable,
    pub(crate) activity: ActivityStore,
    pub(crate) pdns: PassiveDns,
    pub(crate) machines: Vec<String>,
    machine_ids: HashMap<String, MachineId>,
    pub(crate) days: BTreeMap<u32, DayAccumulator>,
    // `None` = [`EdgeRuns`] default capacity.
    run_capacity: Option<usize>,
    // Dense by `DomainId`.
    seen: Vec<Seen>,
    // Days up to this one feed ids and history but retain no traffic.
    covered_through: Option<Day>,
    // How far the last successful reader pass got, and the fingerprint of
    // the bytes just before that point — `None` when that pass read a
    // stream it could not seek back in.
    pub(crate) consumed: LogPosition,
    pub(crate) guard: Option<LogGuard>,
}

/// First-seen memo of one domain: what the history stores already hold
/// for it on the last day it was logged.
///
/// A memo hit implies the stores have the fact; a miss goes to the stores,
/// whose updates are idempotent. So the memo only saves work — a log whose
/// days interleave resets it more often, nothing else.
#[derive(Debug, Clone, Default)]
struct Seen {
    day: Option<Day>,
    // Sorted; the IPs already recorded for `day`.
    ips: Vec<Ipv4>,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct DayAccumulator {
    // Fixed-capacity sorted runs, spilled to scratch above the cap, so a
    // paper-scale day never holds all query observations in one `Vec`.
    queries: EdgeRuns,
    // Ordered so `LogCollector::day` emits resolutions deterministically.
    // The memo keeps repeats out while a log's days arrive in order;
    // whatever an interleaved log lets through is deduped once at
    // finalization.
    resolutions: BTreeMap<DomainId, Vec<Ipv4>>,
    // The line the day first appeared on; the top of the log for a day
    // that did not come through a reader pass.
    pub(crate) first_at: LogPosition,
}

impl DayAccumulator {
    pub(crate) fn new(capacity: Option<usize>, first_at: LogPosition) -> Self {
        Self {
            queries: capacity.map_or_else(EdgeRuns::new, EdgeRuns::with_run_capacity),
            resolutions: BTreeMap::new(),
            first_at,
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

    /// Creates an empty collector for a run that resumes after
    /// `last_covered`, the last day its checkpoint already accounts for.
    ///
    /// An append-only log still holds the covered days, and they must be
    /// read: domain and machine ids are assigned in first-seen order, and
    /// the activity and passive-DNS history reach back over them. But the
    /// resumed run never asks for their traffic, so days up to and
    /// including `last_covered` retain no query edges and no resolutions —
    /// they are listed by [`days`](Self::days), and [`day`](Self::day)
    /// returns `None` for them.
    ///
    /// This is the resume of a run that has nothing but the log. One that
    /// kept the [state](Self::state_bytes) of its last read does not
    /// read the covered days at all: see [`resume_log`](Self::resume_log).
    pub fn resuming_after(last_covered: Day) -> Self {
        Self {
            covered_through: Some(last_covered),
            ..Self::default()
        }
    }

    /// Ingests one parsed record.
    pub fn ingest(&mut self, record: LogRecord) {
        let machine = self.intern_machine(&record.client);
        let domain = self.table.intern(&record.qname);
        self.commit(record.day, machine, domain, &record.ips, LogPosition::START);
    }

    /// Parses and ingests one payload line without building an owned
    /// record; `ips` is the caller's scratch for the line's IP list.
    fn ingest_line(
        &mut self,
        payload: &str,
        at: LogPosition,
        ips: &mut Vec<Ipv4>,
    ) -> Result<(), ParseLogError> {
        let raw = RawRecord::split(payload, at.line_number())?;
        // The IPs are parsed before the qname is interned, so a line that
        // fails leaves no trace in the table.
        if let Err(ip_error) = raw.parse_ips(ips) {
            // A bad qname outranks a bad IP list (field order).
            DomainName::parse(raw.qname).map_err(|e| raw.bad_domain(e))?;
            return Err(ip_error);
        }
        // Every id is looked up before anything is allocated; nothing is
        // touched when the qname is new and invalid.
        let domain = self
            .table
            .intern_str(raw.qname)
            .map_err(|e| raw.bad_domain(e))?;
        let machine = self.intern_machine(raw.client);
        self.commit(raw.day, machine, domain, ips, at);
        Ok(())
    }

    /// The id-level update every record shape ends in; `at` is the line
    /// the record stands on.
    fn commit(
        &mut self,
        day: Day,
        machine: MachineId,
        domain: DomainId,
        ips: &[Ipv4],
        at: LogPosition,
    ) {
        let capacity = self.run_capacity;
        let acc = self
            .days
            .entry(day.0)
            .or_insert_with(|| DayAccumulator::new(capacity, at));
        let retained = self.covered_through.is_none_or(|last| day > last);
        if retained {
            acc.queries.push(machine, domain);
        }
        if self.seen.len() <= domain.index() {
            self.seen.resize_with(self.table.len(), Seen::default);
        }
        let seen = &mut self.seen[domain.index()];
        if seen.day != Some(day) {
            seen.day = Some(day);
            seen.ips.clear();
            self.activity
                .record(domain, self.table.e2ld_of(domain), day);
        }
        for &ip in ips {
            if let Err(pos) = seen.ips.binary_search(&ip) {
                seen.ips.insert(pos, ip);
                self.pdns.record(domain, ip, day);
                if retained {
                    acc.resolutions.entry(domain).or_default().push(ip);
                }
            }
        }
    }

    /// Parses and ingests every line of a stream read from its first byte
    /// (`#` comments and blank lines are skipped). This is
    /// [`ingest_reader_from`](Self::ingest_reader_from) the top of the
    /// log, for a reader that cannot seek: it moves
    /// [`consumed`](Self::consumed) like that one but leaves no
    /// fingerprint, so [state](Self::state_bytes) taken after it resumes
    /// by reading its log again.
    ///
    /// # Errors
    ///
    /// Returns the first parse or I/O failure, with its line number;
    /// everything before the failing line has been ingested.
    pub fn ingest_reader<R: Read>(&mut self, reader: R) -> Result<usize, IngestError> {
        let (ingested, scanned) = self.ingest_lines(reader, LogPosition::START)?;
        self.consumed = scanned.end;
        self.guard = None;
        Ok(ingested)
    }

    /// Parses and ingests every line of `log` from `start` on. This is
    /// the one read path: a first run is the [top](LogPosition::START) of
    /// the log into an empty collector, a later run is the place
    /// [`resume_log`](Self::resume_log) names into a
    /// [decoded](Self::from_state_bytes) one. Line numbers in errors count
    /// from the top of the log either way.
    ///
    /// A pass that succeeds moves [`consumed`](Self::consumed) to the end
    /// of the last line that ended in a newline, and reads the bytes
    /// before that point back to fingerprint them. A final line without a
    /// newline is ingested like any other, but the next pass starts on it
    /// again: every update is idempotent, and only its IP list can have
    /// been cut short — a line that parses has its client and qname whole.
    ///
    /// # Errors
    ///
    /// Returns the first parse or I/O failure, with its line number;
    /// everything before the failing line has been ingested, and
    /// `consumed` stays where it was.
    pub fn ingest_reader_from<R: Read + Seek>(
        &mut self,
        log: &mut R,
        start: LogPosition,
    ) -> Result<usize, IngestError> {
        let io = |at: LogPosition, source| IngestError::Io {
            line: at.line_number(),
            source,
        };
        log.seek(SeekFrom::Start(start.offset))
            .map_err(|e| io(start, e))?;
        let (ingested, scanned) = self.ingest_lines(&mut *log, start)?;
        // A pass that counted no line leaves the fingerprint of the bytes
        // before `start` standing.
        if scanned.end != start || self.guard.is_none() {
            let guard = LogGuard::take(log, scanned.end.offset, scanned.last_line_bytes)
                .map_err(|e| io(scanned.end, e))?;
            self.guard = Some(guard);
        }
        self.consumed = scanned.end;
        Ok(ingested)
    }

    /// The line loop behind both readers.
    fn ingest_lines<R: Read>(
        &mut self,
        reader: R,
        start: LogPosition,
    ) -> Result<(usize, Scanned), IngestError> {
        let mut ingested = 0usize;
        let mut ips = Vec::new();
        let scanned = scan_lines(reader, start, |at, line| {
            match line {
                Line::BadEncoding => {
                    return Err(IngestError::Io {
                        line: at.line_number(),
                        source: std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "stream did not contain valid UTF-8",
                        ),
                    })
                }
                Line::Skipped => {}
                Line::Payload(payload) => {
                    self.ingest_line(payload, at, &mut ips)
                        .map_err(IngestError::Parse)?;
                    ingested += 1;
                }
            }
            Ok(())
        })?;
        Ok((ingested, scanned))
    }

    /// How far the last successful reader pass got: the end of the last
    /// newline-terminated line it consumed.
    pub fn consumed(&self) -> LogPosition {
        self.consumed
    }

    /// Prepares a [decoded](Self::from_state_bytes) collector to read on in
    /// `log` for a run that resumes after `last_covered`, and says where.
    ///
    /// When the bytes before [`consumed`](Self::consumed) still carry the
    /// stored fingerprint, the log is the one the state was built from,
    /// possibly longer: reading resumes at the first line of any day after
    /// `last_covered` (the traffic of those days is not part of the state
    /// and has to be read again, as after a killed backfill) or, when
    /// there is none, where the last pass stopped — `true` is returned
    /// beside the place. Lines of covered days met on the way feed the
    /// history again, which changes nothing, and retain no traffic, as in
    /// a collector [resuming after](Self::resuming_after) that day.
    ///
    /// Otherwise the log was rotated, truncated or edited underneath the
    /// state (or the state has no fingerprint to tell). What the state
    /// says about *where* things are is dropped —
    /// the days listed, their offsets, `consumed` — and reading restarts
    /// at the top, `false` beside it; names keep their ids and the history
    /// its reach, so state keyed by those ids elsewhere stays valid.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from seeking or reading `log`.
    pub fn resume_log<R: Read + Seek>(
        &mut self,
        log: &mut R,
        last_covered: Option<Day>,
    ) -> std::io::Result<(LogPosition, bool)> {
        self.covered_through = last_covered;
        let unchanged = match self.guard {
            Some(guard) => guard.matches(log, self.consumed.offset)?,
            None => false,
        };
        let start = if unchanged {
            self.days
                .iter()
                .filter(|(&day, _)| last_covered.is_none_or(|last| Day(day) > last))
                .map(|(_, acc)| acc.first_at)
                .fold(self.consumed, LogPosition::min)
        } else {
            self.days.clear();
            self.consumed = LogPosition::START;
            self.guard = None;
            LogPosition::START
        };
        Ok((start, unchanged))
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
    /// truncated file can never half-poison the behavior graph. That is
    /// why this mode stages owned records where the strict one streams.
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
        scan_lines(reader, LogPosition::START, |at, line| {
            match line {
                Line::BadEncoding => stats.bad_encoding += 1,
                Line::Skipped => stats.skipped_comments += 1,
                Line::Payload(payload) => match LogRecord::parse(payload, at.line_number()) {
                    Ok(record) => parsed.push(record),
                    Err(e) => stats.note_parse(e.kind()),
                },
            }
            Ok(())
        })?;
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

    pub(crate) fn intern_machine(&mut self, client: &str) -> MachineId {
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

    /// Days the logs read so far carry traffic for, ascending — read by
    /// this collector or by the one whose [state](Self::from_state_bytes) it
    /// was decoded from.
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

    /// The ingested traffic of `day`, if any, as snapshot-ready lists;
    /// `None` for a day nothing was logged on, and for one a
    /// [resumed run](Self::resuming_after) kept only the history of.
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
        if self.covered_through.is_some_and(|last| day <= last) {
            return Ok(None);
        }
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
    fn resumed_collector_keeps_ids_and_history_but_not_covered_traffic() {
        let full = collected();
        let mut resumed = LogCollector::resuming_after(Day(0));
        assert_eq!(resumed.ingest_reader(SAMPLE.as_bytes()).unwrap(), 4);

        // Ids are assigned in first-seen order over the whole log.
        assert_eq!(resumed.table().len(), full.table().len());
        for id in full.table().ids() {
            assert_eq!(resumed.table().name(id), full.table().name(id));
            assert_eq!(resumed.table().e2ld_of(id), full.table().e2ld_of(id));
        }
        assert_eq!(resumed.machine_count(), full.machine_count());
        for m in 0..2 {
            assert_eq!(
                resumed.machine_name(MachineId(m)),
                full.machine_name(MachineId(m))
            );
        }
        // History reaches back over the covered day.
        assert_eq!(resumed.pdns().len(), full.pdns().len());
        for id in full.table().ids() {
            for day in [Day(0), Day(1)] {
                assert_eq!(
                    resumed.activity().fqd_active_on(id, day),
                    full.activity().fqd_active_on(id, day)
                );
                assert_eq!(
                    resumed.pdns().records_of(id, day.next().lookback(1)),
                    full.pdns().records_of(id, day.next().lookback(1))
                );
            }
        }
        // Covered traffic is listed but not retained; the rest is whole.
        assert_eq!(resumed.days(), full.days());
        assert_eq!(resumed.try_day(Day(0)).unwrap(), None);
        assert_eq!(resumed.day(Day(1)), full.day(Day(1)));
    }

    #[test]
    fn repeated_and_interleaved_lines_change_nothing() {
        // Two answers alternating across clients, a day that comes back
        // after another one, mixed-case and dotted spellings: the stores
        // must hold each fact once.
        let text = "\
3\ta\tcdn.example.com\t10.0.0.1
3\tb\tCDN.Example.COM.\t10.0.0.2
3\tc\tcdn.example.com\t10.0.0.1,10.0.0.2
4\ta\tcdn.example.com\t10.0.0.1
3\td\tcdn.example.com\t10.0.0.2
3\td\tcdn.example.com\t10.0.0.2
";
        let mut c = LogCollector::new();
        assert_eq!(c.ingest_reader(text.as_bytes()).unwrap(), 6);
        assert_eq!(c.table().len(), 1);
        let cdn = c.table().get_str("cdn.example.com").unwrap();
        assert_eq!(c.pdns().len(), 3);
        assert_eq!(c.pdns().records_on(Day(3)).len(), 2);
        let d3 = c.day(Day(3)).unwrap();
        assert_eq!(d3.queries.len(), 4);
        assert_eq!(
            d3.resolutions,
            vec![(
                cdn,
                vec![
                    Ipv4::from_octets(10, 0, 0, 1),
                    Ipv4::from_octets(10, 0, 0, 2)
                ]
            )]
        );
        assert!(c.activity().fqd_active_on(cdn, Day(3)));
        assert!(c.activity().fqd_active_on(cdn, Day(4)));
    }

    #[test]
    fn failed_line_leaves_no_trace() {
        // The qname is new and valid, the IP is not: nothing of the line
        // may reach the table, and the qname error outranks the IP error
        // when both are bad.
        let mut c = LogCollector::new();
        let err = c
            .ingest_reader("0\ta\tnew.example.com\t1.2.3.999\n".as_bytes())
            .unwrap_err();
        assert!(matches!(
            err,
            IngestError::Parse(ref e) if matches!(e.kind(), crate::error::ParseLogErrorKind::BadIp(_))
        ));
        assert!(c.table().is_empty());
        assert_eq!(c.machine_count(), 0);
        let err = c
            .ingest_reader("0\ta\tnot a domain\t1.2.3.999\n".as_bytes())
            .unwrap_err();
        assert!(matches!(
            err,
            IngestError::Parse(ref e) if matches!(e.kind(), crate::error::ParseLogErrorKind::BadDomain(_))
        ));
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
