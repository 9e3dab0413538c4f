//! Property-based tests: arbitrary well-formed logs survive the
//! export → ingest round trip with nothing lost or invented, the streamed
//! line path builds exactly the collector the owned-record reference
//! builds, a collector decoded from its state and read on from the resume
//! point equals one pass over the whole log, the Zeek and TSV readers
//! build equal collectors from the same records, and the parsers and the
//! state decoder never panic on hostile bytes (non-UTF-8, oversized lines,
//! garbled headers, truncated state) — they fail typed or quarantine.

use proptest::prelude::*;

use segugio_ingest::error::ParseLogErrorKind;
use segugio_ingest::{
    export_day, IngestError, IngestStats, LogCollector, LogPosition, LogRecord, ParseLogError,
    QuarantinePolicy, ZeekReader,
};
use segugio_model::{Day, DomainName, DomainTable, Ipv4, MachineId};

fn label() -> impl Strategy<Value = String> {
    "[a-z]{1,8}"
}

fn name() -> impl Strategy<Value = String> {
    proptest::collection::vec(label(), 1..4).prop_map(|l| l.join("."))
}

proptest! {
    /// Every parsed record reproduces the encoded fields exactly.
    #[test]
    fn record_round_trips_through_text(
        day in 0u32..1000,
        client in "[a-z0-9-]{1,12}",
        qname in name(),
        ips in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..4),
    ) {
        let ips: Vec<Ipv4> = ips
            .iter()
            .map(|&(a, b)| Ipv4::from_octets(10, 0, a, b))
            .collect();
        let mut dedup = ips.clone();
        dedup.sort_unstable();
        dedup.dedup();
        let line = format!(
            "{day}\t{client}\t{qname}\t{}",
            ips.iter().map(|ip| ip.to_string()).collect::<Vec<_>>().join(",")
        );
        let record = LogRecord::parse(&line, 1).expect("constructed line is valid");
        prop_assert_eq!(record.day, Day(day));
        prop_assert_eq!(record.client.as_str(), client.as_str());
        prop_assert_eq!(record.qname.as_str(), qname.as_str());
        prop_assert_eq!(&record.ips, &ips);
    }

    /// Export → ingest preserves the distinct query-edge set, machine
    /// count and distinct domains, for arbitrary traffic shapes.
    #[test]
    fn export_ingest_preserves_structure(
        edges in proptest::collection::vec((0u32..8, 0usize..6), 1..60),
        names in proptest::collection::vec(name(), 6..7),
    ) {
        let mut table = DomainTable::new();
        let ids: Vec<_> = names
            .iter()
            .map(|n| table.intern(&DomainName::parse(n).unwrap()))
            .collect();
        let queries: Vec<(MachineId, _)> = edges
            .iter()
            .map(|&(m, d)| (MachineId(m), ids[d]))
            .collect();
        let text = export_day(&table, 3, &queries, &[]);
        let mut collector = LogCollector::new();
        let n = collector.ingest_reader(text.as_bytes()).unwrap();
        prop_assert_eq!(n, queries.len());

        let distinct_machines: std::collections::HashSet<u32> =
            edges.iter().map(|&(m, _)| m).collect();
        prop_assert_eq!(collector.machine_count(), distinct_machines.len());
        let distinct_domains: std::collections::HashSet<usize> =
            edges.iter().map(|&(_, d)| d).collect();
        // Domains dedup by *name*; names may collide in the strategy.
        let distinct_names: std::collections::HashSet<&str> = distinct_domains
            .iter()
            .map(|&d| names[d].as_str())
            .collect();
        prop_assert_eq!(collector.table().len(), distinct_names.len());
        // The collector finalizes each day sorted and deduplicated, so the
        // expected count is the number of distinct (machine, domain-name)
        // edges — domains dedup by name here too.
        let distinct_edges: std::collections::HashSet<(u32, &str)> = edges
            .iter()
            .map(|&(m, d)| (m, names[d].as_str()))
            .collect();
        let day = collector.day(Day(3)).unwrap();
        prop_assert_eq!(day.queries.len(), distinct_edges.len());
    }
}

/// Bytes hostile to a line-oriented TSV parser: either raw arbitrary
/// bytes (non-UTF-8 sequences included) or text assembled from the
/// characters the parsers treat as structure (tabs, newlines, digits,
/// dots, commas, comments) so the interesting branches are actually hit.
fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<u8>(),
        proptest::collection::vec(any::<u8>(), 0..2048),
        "[0-9a-z.\t\n,# -]{1,256}",
    )
        .prop_map(|(pick, raw, text)| match pick % 3 {
            0 => raw,
            1 => text.into_bytes(),
            _ => {
                // One oversized line: strip newlines and double the text
                // until it dwarfs any sane log line.
                let mut line: Vec<u8> = text.into_bytes();
                line.retain(|&b| b != b'\n');
                line.push(b'x');
                while line.len() < 4096 {
                    let chunk = line.clone();
                    line.extend_from_slice(&chunk);
                }
                line
            }
        })
}

proptest! {
    /// `LogRecord::parse` returns Ok or a typed error on any input line,
    /// including oversized and structure-heavy ones — never panics.
    #[test]
    fn log_record_parse_never_panics(bytes in hostile_bytes()) {
        let text = String::from_utf8_lossy(&bytes);
        for (i, line) in text.lines().enumerate() {
            let _ = LogRecord::parse(line, i as u64 + 1);
        }
    }

    /// Strict ingest on arbitrary bytes either succeeds or fails typed.
    #[test]
    fn ingest_reader_never_panics(bytes in hostile_bytes()) {
        let mut collector = LogCollector::new();
        let _ = collector.ingest_reader(bytes.as_slice());
    }

    /// Quarantined ingest never panics, and a rejected file leaves the
    /// collector exactly as empty as it started (all-or-nothing).
    #[test]
    fn ingest_quarantined_is_all_or_nothing(bytes in hostile_bytes()) {
        let mut collector = LogCollector::new();
        let policy = QuarantinePolicy::default();
        match collector.ingest_quarantined(bytes.as_slice(), &policy) {
            Ok(stats) => {
                let ingested = usize::try_from(stats.ingested).unwrap_or(usize::MAX);
                prop_assert!(collector.days().len() <= ingested);
            }
            Err(IngestError::QuarantineExceeded { .. }) => {
                prop_assert_eq!(collector.machine_count(), 0);
                prop_assert!(collector.days().is_empty());
            }
            Err(_) => {}
        }
    }

    /// The Zeek reader — including its private `#fields` header parser —
    /// survives arbitrary bytes without panicking.
    #[test]
    fn zeek_ingest_never_panics(bytes in hostile_bytes()) {
        let mut collector = LogCollector::new();
        let _ = ZeekReader::new().ingest(bytes.as_slice(), &mut collector);
        let mut collector = LogCollector::new();
        let _ = ZeekReader::new().ingest_quarantined(
            bytes.as_slice(),
            &mut collector,
            &QuarantinePolicy::default(),
        );
    }

    /// Fuzzes the `#fields` header line directly: arbitrary column names
    /// (unicode, duplicates, empties) followed by fuzzed data rows must
    /// parse, error typed, or quarantine — never panic.
    #[test]
    fn zeek_header_parser_never_panics(
        columns in proptest::collection::vec("[\t -~]{0,24}", 0..12),
        rows in proptest::collection::vec("[\t -~]{0,64}", 0..8),
    ) {
        let mut log = String::from("#fields");
        for col in &columns {
            log.push('\t');
            log.push_str(col);
        }
        log.push('\n');
        for row in &rows {
            log.push_str(row);
            log.push('\n');
        }
        let mut collector = LogCollector::new();
        let _ = ZeekReader::new().ingest(log.as_bytes(), &mut collector);
    }
}

/// The owned-record reference for one reader pass: every line of `bytes`
/// through `LogRecord::parse`, the way the line loop classifies them.
enum RefLine {
    BadEncoding,
    Skipped,
    Parsed(Result<LogRecord, ParseLogError>),
}

fn reference_lines(bytes: &[u8]) -> Vec<RefLine> {
    let mut chunks: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    // A final newline ends the last line; it does not start another.
    if chunks.last().is_some_and(|c| c.is_empty()) {
        chunks.pop();
    }
    chunks
        .iter()
        .enumerate()
        .map(|(i, chunk)| match std::str::from_utf8(chunk) {
            Err(_) => RefLine::BadEncoding,
            Ok(line) if line.trim().is_empty() || line.trim_start().starts_with('#') => {
                RefLine::Skipped
            }
            Ok(line) => {
                RefLine::Parsed(LogRecord::parse(line.trim_end_matches('\r'), i as u64 + 1))
            }
        })
        .collect()
}

/// Everything a collector exposes, compared field by field.
fn assert_same_collector(got: &LogCollector, want: &LogCollector) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.table().len(), want.table().len());
    prop_assert_eq!(got.table().e2ld_count(), want.table().e2ld_count());
    for id in want.table().ids() {
        prop_assert_eq!(got.table().name(id), want.table().name(id));
        prop_assert_eq!(got.table().e2ld_of(id), want.table().e2ld_of(id));
    }
    prop_assert_eq!(got.machine_count(), want.machine_count());
    for m in 0..want.machine_count() as u32 {
        prop_assert_eq!(
            got.machine_name(MachineId(m)),
            want.machine_name(MachineId(m))
        );
    }
    prop_assert_eq!(got.days(), want.days());
    prop_assert_eq!(got.pdns().len(), want.pdns().len());
    prop_assert_eq!(
        got.activity().tracked_fqds(),
        want.activity().tracked_fqds()
    );
    for day in want.days() {
        prop_assert_eq!(got.try_day(day).unwrap(), want.try_day(day).unwrap());
        let mut got_on = got.pdns().records_on(day).to_vec();
        let mut want_on = want.pdns().records_on(day).to_vec();
        got_on.sort_unstable();
        want_on.sort_unstable();
        prop_assert_eq!(got_on, want_on);
        for id in want.table().ids() {
            prop_assert_eq!(
                got.activity().fqd_active_on(id, day),
                want.activity().fqd_active_on(id, day)
            );
            let window = day.lookback(3);
            prop_assert_eq!(
                got.pdns().resolved_ips(id, window),
                want.pdns().resolved_ips(id, window)
            );
            let e2ld = want.table().e2ld_of(id);
            prop_assert_eq!(
                got.activity().e2ld_active_days(e2ld, window),
                want.activity().e2ld_active_days(e2ld, window)
            );
        }
    }
    Ok(())
}

/// The collector against plain sets built from the records themselves —
/// the owned reference shares the collector's id-level commit, so only a
/// model that does not can vouch for the first-seen memo.
fn assert_matches_naive_model(
    collector: &LogCollector,
    records: &[LogRecord],
) -> Result<(), TestCaseError> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut triples: BTreeSet<(String, Ipv4, Day)> = BTreeSet::new();
    let mut active: BTreeSet<(String, Day)> = BTreeSet::new();
    let mut queries: BTreeMap<Day, BTreeSet<(String, String)>> = BTreeMap::new();
    let mut answers: BTreeMap<Day, BTreeMap<String, BTreeSet<Ipv4>>> = BTreeMap::new();
    for r in records {
        let name = r.qname.as_str().to_owned();
        active.insert((name.clone(), r.day));
        queries
            .entry(r.day)
            .or_default()
            .insert((r.client.clone(), name.clone()));
        answers.entry(r.day).or_default();
        for &ip in &r.ips {
            triples.insert((name.clone(), ip, r.day));
            answers
                .entry(r.day)
                .or_default()
                .entry(name.clone())
                .or_default()
                .insert(ip);
        }
    }
    let table = collector.table();
    prop_assert_eq!(collector.pdns().len(), triples.len());
    prop_assert_eq!(
        collector.days(),
        queries.keys().copied().collect::<Vec<_>>()
    );
    for (&day, edges) in &queries {
        let stored: BTreeSet<(String, Ipv4, Day)> = collector
            .pdns()
            .records_on(day)
            .iter()
            .map(|&(d, ip)| (table.name(d).as_str().to_owned(), ip, day))
            .collect();
        prop_assert_eq!(stored.len(), collector.pdns().records_on(day).len());
        let expected: BTreeSet<_> = triples.iter().filter(|t| t.2 == day).cloned().collect();
        prop_assert_eq!(stored, expected);

        let traffic = collector.try_day(day).unwrap().expect("a listed day");
        let got_edges: BTreeSet<(String, String)> = traffic
            .queries
            .iter()
            .map(|&(m, d)| {
                let client = collector.machine_name(m).expect("a known machine");
                (client.to_owned(), table.name(d).as_str().to_owned())
            })
            .collect();
        prop_assert_eq!(got_edges.len(), traffic.queries.len());
        prop_assert_eq!(&got_edges, edges);
        let got_answers: BTreeMap<String, BTreeSet<Ipv4>> = traffic
            .resolutions
            .iter()
            .map(|(d, ips)| {
                (
                    table.name(*d).as_str().to_owned(),
                    ips.iter().copied().collect(),
                )
            })
            .collect();
        prop_assert_eq!(got_answers.len(), traffic.resolutions.len());
        prop_assert_eq!(&got_answers, &answers[&day]);
        for (_, ips) in &traffic.resolutions {
            prop_assert!(
                ips.windows(2).all(|w| w[0] < w[1]),
                "sorted, duplicate-free"
            );
        }
        for id in table.ids() {
            let name = table.name(id).as_str().to_owned();
            prop_assert_eq!(
                collector.activity().fqd_active_on(id, day),
                active.contains(&(name, day))
            );
        }
    }
    Ok(())
}

fn note(stats: &mut IngestStats, kind: &ParseLogErrorKind) {
    match kind {
        ParseLogErrorKind::MissingField(_) => stats.missing_field += 1,
        ParseLogErrorKind::BadDay(_) => stats.bad_day += 1,
        ParseLogErrorKind::EmptyClient => stats.bad_client += 1,
        ParseLogErrorKind::BadDomain(_) => stats.bad_domain += 1,
        ParseLogErrorKind::BadIp(_) => stats.bad_ip += 1,
    }
}

/// One record over a small vocabulary, so the same name recurs under
/// different spellings, answers alternate and days come out of order.
#[derive(Debug, Clone)]
struct Observation {
    day: u32,
    client: u32,
    qname: String,
    ips: Vec<String>,
}

fn observation() -> impl Strategy<Value = Observation> {
    (
        (0u32..4, 0u32..5, 0usize..5, 0u8..5),
        proptest::collection::vec(0u8..4, 0..4),
    )
        .prop_map(|((day, client, name, spelling), ips)| {
            let base = [
                "www.example.com",
                "cdn.example.com",
                "a.b.bbc.co.uk",
                "evil.dyndns.org",
                "x.test",
            ][name];
            let qname = match spelling {
                0 => base.to_owned(),
                1 => base.to_ascii_uppercase(),
                2 => format!("{base}."),
                3 => base
                    .chars()
                    .enumerate()
                    .map(|(i, c)| {
                        if i % 2 == 0 {
                            c.to_ascii_uppercase()
                        } else {
                            c
                        }
                    })
                    .collect(),
                _ => format!("{}.", base.to_ascii_uppercase()),
            };
            Observation {
                day,
                client,
                qname,
                ips: ips.iter().map(|i| format!("10.0.0.{i}")).collect(),
            }
        })
}

/// One line of a generated log: mostly [`observation`]s; now and then a
/// blank or a comment.
fn log_line() -> impl Strategy<Value = String> {
    (0u8..15, observation(), any::<bool>()).prop_map(|(pick, o, crlf)| {
        let end = if crlf { "\r" } else { "" };
        match pick {
            0 => String::new(),
            1 => "   ".to_owned(),
            2 => "# a comment".to_owned(),
            _ => format!(
                "{}\thost-{}\t{}\t{}{end}",
                o.day,
                o.client,
                o.qname,
                o.ips.join(",")
            ),
        }
    })
}

/// A well-formed log with every repetition pattern the memo must see
/// through; `true` repeats the line before it.
fn repetitive_log() -> impl Strategy<Value = String> {
    proptest::collection::vec((log_line(), any::<bool>()), 0..60).prop_map(|lines| {
        let mut text = String::new();
        let mut previous = String::new();
        for (line, repeat) in lines {
            let line = if repeat { previous } else { line };
            text.push_str(&line);
            text.push('\n');
            previous = line;
        }
        text
    })
}

/// Mostly valid lines with each kind of damage mixed in, so that the
/// ingest and the error branches both run within one file.
fn damaged_log() -> impl Strategy<Value = Vec<u8>> {
    let line = (0u8..16, log_line()).prop_map(|(pick, line)| match pick {
        0 => b"3\thost-1".to_vec(),
        1 => b"x\thost-1\twww.example.com\t10.0.0.1".to_vec(),
        2 => b"3\t \twww.example.com\t10.0.0.1".to_vec(),
        3 => b"3\thost-1\tnot a domain\t10.0.0.999".to_vec(),
        4 => b"3\thost-1\tnew.example.org\t10.0.0.999".to_vec(),
        5 => b"3\thost-1\tnew.example.org".to_vec(),
        6 => b"3\thost-\xFF\twww.example.com\t10.0.0.1".to_vec(),
        _ => line.into_bytes(),
    });
    (proptest::collection::vec(line, 0..40), any::<bool>()).prop_map(|(lines, final_newline)| {
        let mut bytes = lines.join(&b'\n');
        if final_newline {
            bytes.push(b'\n');
        }
        bytes
    })
}

/// Either flavour of bad input: raw hostile bytes or a damaged log.
fn bad_input() -> impl Strategy<Value = Vec<u8>> {
    (any::<bool>(), hostile_bytes(), damaged_log())
        .prop_map(|(raw, hostile, damaged)| if raw { hostile } else { damaged })
}

proptest! {
    /// The streamed path (`ingest_reader`: borrowed fields, lookup before
    /// allocate, first-seen memo) builds the collector the owned
    /// reference builds, and a resumed collector differs from it only in
    /// the traffic it does not retain.
    #[test]
    fn streamed_ingest_matches_owned_reference(text in repetitive_log(), covered in 0u32..4) {
        let mut reference = LogCollector::new();
        let mut records = Vec::new();
        for line in reference_lines(text.as_bytes()) {
            if let RefLine::Parsed(record) = line {
                let record = record.expect("generated lines are valid");
                reference.ingest(record.clone());
                records.push(record);
            }
        }
        let expected = records.len();
        let mut streamed = LogCollector::new();
        prop_assert_eq!(streamed.ingest_reader(text.as_bytes()).unwrap(), expected);
        assert_same_collector(&streamed, &reference)?;
        assert_matches_naive_model(&streamed, &records)?;

        let mut resumed = LogCollector::resuming_after(Day(covered));
        prop_assert_eq!(resumed.ingest_reader(text.as_bytes()).unwrap(), expected);
        prop_assert_eq!(resumed.days(), reference.days());
        for day in reference.days() {
            let kept = if day > Day(covered) { reference.try_day(day).unwrap() } else { None };
            prop_assert_eq!(resumed.try_day(day).unwrap(), kept);
        }
        prop_assert_eq!(resumed.pdns().len(), reference.pdns().len());
        for id in reference.table().ids() {
            prop_assert_eq!(resumed.table().name(id), reference.table().name(id));
            prop_assert_eq!(
                resumed.pdns().resolved_ips(id, Day(3).lookback(4)),
                reference.pdns().resolved_ips(id, Day(3).lookback(4))
            );
            prop_assert_eq!(
                resumed.activity().fqd_active_days(id, Day(3).lookback(4)),
                reference.activity().fqd_active_days(id, Day(3).lookback(4))
            );
        }
    }

    /// Strict ingest stops where the reference stops, with the same
    /// error, having ingested exactly the lines before it.
    #[test]
    fn strict_ingest_fails_where_the_reference_fails(
        bytes in bad_input(),
    ) {
        let mut reference = LogCollector::new();
        let mut expected: Result<usize, (u64, Option<ParseLogError>)> = Ok(0);
        for (i, line) in reference_lines(&bytes).into_iter().enumerate() {
            let line_no = i as u64 + 1;
            match line {
                RefLine::Skipped => {}
                RefLine::BadEncoding => {
                    expected = Err((line_no, None));
                    break;
                }
                RefLine::Parsed(Err(e)) => {
                    expected = Err((line_no, Some(e)));
                    break;
                }
                RefLine::Parsed(Ok(record)) => {
                    reference.ingest(record);
                    expected = expected.map(|n| n + 1);
                }
            }
        }
        let mut streamed = LogCollector::new();
        let got = match streamed.ingest_reader(bytes.as_slice()) {
            Ok(n) => Ok(n),
            Err(IngestError::Parse(e)) => Err((e.line(), Some(e))),
            Err(IngestError::Io { line, source }) => {
                prop_assert_eq!(source.kind(), std::io::ErrorKind::InvalidData);
                Err((line, None))
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected {other}"))),
        };
        prop_assert_eq!(got, expected);
        assert_same_collector(&streamed, &reference)?;
    }

    /// Quarantined ingest counts every line under the kind the reference
    /// parser names, commits exactly the good records when the file
    /// passes, and nothing at all when it does not.
    #[test]
    fn quarantined_ingest_counts_what_the_reference_counts(
        bytes in bad_input(),
    ) {
        let mut reference = LogCollector::new();
        let mut stats = IngestStats::default();
        for line in reference_lines(&bytes) {
            match line {
                RefLine::Skipped => stats.skipped_comments += 1,
                RefLine::BadEncoding => stats.bad_encoding += 1,
                RefLine::Parsed(Err(e)) => note(&mut stats, e.kind()),
                RefLine::Parsed(Ok(record)) => {
                    reference.ingest(record);
                    stats.ingested += 1;
                }
            }
        }
        let policy = QuarantinePolicy::default();
        let mut collector = LogCollector::new();
        match collector.ingest_quarantined(bytes.as_slice(), &policy) {
            Ok(got) => {
                prop_assert!(!policy.exceeded(&stats));
                prop_assert_eq!(got, stats);
                assert_same_collector(&collector, &reference)?;
            }
            Err(IngestError::QuarantineExceeded { errors, considered, .. }) => {
                prop_assert!(policy.exceeded(&stats));
                prop_assert_eq!((errors, considered), (stats.errors(), stats.considered()));
                assert_same_collector(&collector, &LogCollector::new())?;
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected {other}"))),
        }
    }
}

/// `None` or an index below `n`, evenly.
fn maybe_index(n: usize) -> impl Strategy<Value = Option<usize>> {
    (any::<bool>(), 0..n).prop_map(|(some, i)| some.then_some(i))
}

/// A collector that read `text` from the top, or resumed, as a file is
/// read: seekable, so the pass leaves a fingerprint.
fn read_whole(mut collector: LogCollector, text: &str) -> LogCollector {
    let mut log = std::io::Cursor::new(text.as_bytes());
    collector
        .ingest_reader_from(&mut log, LogPosition::START)
        .unwrap();
    collector
}

proptest! {
    /// Stop anywhere, save the state, come back: for every line boundary
    /// the log could have ended at when the state was taken and every
    /// last covered day, decoding the state and reading on from the
    /// resume point builds what one resumed pass over the whole log
    /// builds — names and ids, machines, history in log order, the day
    /// list with where each day starts, the fingerprint, and the traffic
    /// of every uncovered day.
    #[test]
    fn resuming_from_saved_state_equals_one_pass(text in repetitive_log()) {
        let boundaries: Vec<usize> = std::iter::once(0)
            .chain(text.match_indices('\n').map(|(at, _)| at + 1))
            .collect();
        for covered in (0..4).map(Day) {
            let whole = read_whole(LogCollector::resuming_after(covered), &text);
            let want = whole.encode_state();

            for &split in &boundaries {
                let before = read_whole(LogCollector::new(), &text[..split]);
                prop_assert_eq!(before.consumed().offset, split as u64);
                let state = before.encode_state();
                let mut resumed = LogCollector::decode_state(&state).unwrap();
                prop_assert_eq!(resumed.encode_state(), state, "decode → encode");

                let mut log = std::io::Cursor::new(text.as_bytes());
                let (start, unchanged) = resumed.resume_log(&mut log, Some(covered)).unwrap();
                prop_assert!(unchanged, "the log only grew");
                prop_assert!(start.offset <= split as u64);
                resumed.ingest_reader_from(&mut log, start).unwrap();

                assert_same_collector(&resumed, &whole)?;
                for day in whole.days() {
                    prop_assert_eq!(
                        resumed.pdns().records_on(day),
                        whole.pdns().records_on(day),
                        "log order"
                    );
                }
                prop_assert_eq!(resumed.encode_state(), want.as_str());
            }
        }
    }

    /// A log that is not the one the state was taken from — a line gone,
    /// so every later byte moved, or a byte edited in place — is read
    /// from the top into the decoded collector: nothing the old log
    /// taught is lost, known names keep their ids, and the day list is
    /// the new log's.
    #[test]
    fn a_changed_log_is_reread_under_the_old_ids(
        text in repetitive_log(),
        drop_line in maybe_index(60),
        covered in 0u32..4,
    ) {
        let old = read_whole(LogCollector::new(), &text);
        let changed: String = match drop_line {
            Some(nth) => {
                let lines: Vec<&str> = text.split_inclusive('\n').collect();
                let gone = nth % lines.len().max(1);
                let kept = lines.iter().enumerate().filter(|&(i, _)| i != gone);
                kept.map(|(_, line)| *line).collect()
            }
            // Same length, same lines, one client spelled differently.
            None => match text.rfind("host-") {
                Some(at) => format!("{}hosT-{}", &text[..at], &text[at + 5..]),
                None => text.clone(),
            },
        };

        let mut resumed = LogCollector::decode_state(&old.encode_state()).unwrap();
        let mut log = std::io::Cursor::new(changed.as_bytes());
        let (start, unchanged) = resumed.resume_log(&mut log, Some(Day(covered))).unwrap();
        prop_assert_eq!(unchanged, changed == text);
        if unchanged {
            return Ok(());
        }
        prop_assert_eq!(start.offset, 0);
        resumed.ingest_reader_from(&mut log, start).unwrap();

        let fresh = read_whole(LogCollector::resuming_after(Day(covered)), &changed);
        prop_assert_eq!(resumed.days(), fresh.days());
        for day in fresh.days() {
            prop_assert_eq!(resumed.try_day(day).unwrap().is_some(), day > Day(covered));
        }
        for id in old.table().ids() {
            prop_assert_eq!(resumed.table().name(id), old.table().name(id));
        }
        prop_assert_eq!(resumed.table().len(), old.table().len());
        prop_assert_eq!(resumed.pdns().len(), old.pdns().len());
        // Per name, the traffic is the fresh read's.
        for day in fresh.days() {
            let names = |c: &LogCollector| -> Option<Vec<(String, String)>> {
                let traffic = c.try_day(day).unwrap()?;
                let mut edges: Vec<(String, String)> = traffic
                    .queries
                    .iter()
                    .map(|&(m, d)| {
                        (
                            c.machine_name(m).unwrap().to_owned(),
                            c.table().name(d).as_str().to_owned(),
                        )
                    })
                    .collect();
                edges.sort();
                Some(edges)
            };
            prop_assert_eq!(names(&resumed), names(&fresh));
        }
    }

    /// The state decoder is total: arbitrary bytes and every strict
    /// prefix of a valid state fail typed, never panic.
    #[test]
    fn decode_state_never_panics(bytes in hostile_bytes(), text in repetitive_log()) {
        let _ = LogCollector::decode_state(&String::from_utf8_lossy(&bytes));

        let state = read_whole(LogCollector::new(), &text).encode_state();
        for cut in (0..state.len()).filter(|&cut| state.is_char_boundary(cut)) {
            prop_assert!(LogCollector::decode_state(&state[..cut]).is_err(), "prefix {}", cut);
        }
        // Valid up to the last line, then hostile.
        let mut spliced = state.trim_end_matches("end-frontend\n").to_owned();
        spliced.push_str(&String::from_utf8_lossy(&bytes));
        let _ = LogCollector::decode_state(&spliced);
    }

    /// The same observations written as a Zeek `dns.log` and as the TSV
    /// format build equal collectors: both readers end in the same
    /// borrowed-field commit.
    #[test]
    fn zeek_and_tsv_readers_build_equal_collectors(
        observations in proptest::collection::vec(observation(), 0..60),
    ) {
        let mut tsv = String::new();
        let mut zeek = String::from(
            "#separator \\x09\n#fields\tts\tuid\tid.orig_h\tquery\tqtype_name\trcode_name\tanswers\n",
        );
        for (i, o) in observations.iter().enumerate() {
            tsv.push_str(&format!(
                "{}\thost-{}\t{}\t{}\n",
                o.day, o.client, o.qname, o.ips.join(",")
            ));
            let answers = if o.ips.is_empty() { "-".to_owned() } else { o.ips.join(",") };
            zeek.push_str(&format!(
                "{}.25\tC{i}\thost-{}\t{}\tA\tNOERROR\t{answers}\n",
                u64::from(o.day) * 86_400 + 17,
                o.client,
                o.qname,
            ));
            // What the Zeek reader filters must leave no trace.
            zeek.push_str(&format!(
                "{}.25\tD{i}\thost-9\tother.example.net\tAAAA\tNOERROR\t::1\n",
                u64::from(o.day) * 86_400 + 18,
            ));
        }
        let mut from_tsv = LogCollector::new();
        prop_assert_eq!(from_tsv.ingest_reader(tsv.as_bytes()).unwrap(), observations.len());
        let mut from_zeek = LogCollector::new();
        let stats = ZeekReader::new().ingest(zeek.as_bytes(), &mut from_zeek).unwrap();
        prop_assert_eq!(stats.ingested, observations.len());
        prop_assert_eq!(stats.skipped_non_a, observations.len());
        prop_assert_eq!(stats.errors, 0);
        assert_same_collector(&from_zeek, &from_tsv)?;
        for day in from_tsv.days() {
            prop_assert_eq!(
                from_zeek.pdns().records_on(day),
                from_tsv.pdns().records_on(day)
            );
        }
    }
}
