//! The collector's durable state: what a read of the log builds, minus
//! the traffic, as the front-end section a checkpoint generation carries.
//! The byte layout is the `FRONT_END` payload written down in
//! [`segugio_model::container`]: the read position and its fingerprint,
//! the domain and machine names in id order, where each day starts, the
//! activity bitmaps and the pDNS records.
//!
//! Names are written in id order and decoded by interning them in that
//! order, so every [`DomainId`], `E2ldId` and `MachineId` comes out
//! equal by construction; the stores are rebuilt by replaying their
//! records, so they hold what they held. Decoding reads attacker-shaped
//! bytes (a checkpoint directory is a file system away from anyone): every
//! malformation is a typed [`DecodeError`], nothing is allocated from a
//! declared count, and the work done is bounded by the length of the
//! bytes. The section's frame has checked their length and checksum
//! before they get here; a version change of the container refuses the
//! whole generation before then.

use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom};

use segugio_model::container::{DecodeError, Reader, Writer};
use segugio_model::{Day, DomainId, DomainName, Ipv4};
use segugio_pdns::PassiveDns;

use crate::collector::{DayAccumulator, LogCollector};
use crate::parser::LogPosition;

/// Fingerprint of the last bytes a reader pass consumed: how many, and an
/// FNV-1a hash of them.
///
/// The offset says where reading stopped; this says the bytes before that
/// offset are still the ones that were read. An append-only log keeps
/// them; a log that was rotated, truncated or edited in the window does
/// not. The window is read back from the log once a pass is over, so the
/// line loop pays nothing for it — and a stream that cannot seek has no
/// fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LogGuard {
    len: u64,
    hash: u64,
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl LogGuard {
    /// Bytes the window spans: fewer when the log is shorter, more when
    /// the last line alone is longer.
    const WINDOW_BYTES: u64 = 4096;

    /// Fingerprints the bytes of `log` before offset `end`, where a pass
    /// stopped behind a last line of `last_line_bytes`.
    pub(crate) fn take<R: Read + Seek>(
        log: &mut R,
        end: u64,
        last_line_bytes: u64,
    ) -> std::io::Result<LogGuard> {
        let len = last_line_bytes.max(Self::WINDOW_BYTES).min(end);
        let hash = hash_before(log, end, len)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "log shrank while it was being read",
            )
        })?;
        Ok(LogGuard { len, hash })
    }

    /// Whether the bytes of `log` before offset `end` still carry this
    /// fingerprint. A log that ends before `end` does not.
    pub(crate) fn matches<R: Read + Seek>(&self, log: &mut R, end: u64) -> std::io::Result<bool> {
        Ok(hash_before(log, end, self.len)? == Some(self.hash))
    }
}

/// FNV-1a of the `len` bytes of `log` that end at offset `end`; `None`
/// when the log does not hold them. `len` may come from decoded state: the
/// bytes go through a fixed buffer, whatever it claims.
fn hash_before<R: Read + Seek>(log: &mut R, end: u64, len: u64) -> std::io::Result<Option<u64>> {
    let Some(from) = end.checked_sub(len) else {
        return Ok(None);
    };
    log.seek(SeekFrom::Start(from))?;
    let mut hash = FNV_BASIS;
    let mut left = len;
    let mut chunk = [0u8; 4096];
    while left > 0 {
        let want = usize::try_from(left).map_or(chunk.len(), |n| n.min(chunk.len()));
        match log.read_exact(&mut chunk[..want]) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        for &byte in &chunk[..want] {
            hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        left -= u64::try_from(want).unwrap_or(left);
    }
    Ok(Some(hash))
}

/// How many pDNS records the rest of `r` holds for each of `domains`
/// domains, as far as it reads as pDNS days; a record naming another
/// domain is left to the decoder to refuse.
fn pdns_per_domain(mut r: Reader<'_>, domains: usize) -> Vec<u32> {
    let mut counts = vec![0u32; domains];
    let Ok(days) = r.count("pdns day count") else {
        return counts;
    };
    for _ in 0..days {
        let (Ok(_), Ok(records)) = (r.get::<u32>("pdns day"), r.count("pdns record count")) else {
            break;
        };
        for _ in 0..records {
            let (Ok(domain), Ok(_)) = (r.get::<u32>("pdns domain"), r.get::<u32>("pdns ip")) else {
                return counts;
            };
            if let Some(count) = usize::try_from(domain).ok().and_then(|d| counts.get_mut(d)) {
                *count = count.saturating_add(1);
            }
        }
    }
    counts
}

/// Every pDNS record, by day ascending and within a day by
/// `(domain, ip)`. The store walks its records `(domain, day, ip)`-
/// ascending, so dealing them out to their days in that order keeps it
/// within each day; each day's list is sized from a first walk.
fn pdns_days(pdns: &PassiveDns) -> BTreeMap<Day, Vec<(DomainId, Ipv4)>> {
    let mut counts: BTreeMap<Day, usize> = BTreeMap::new();
    for (_, day, _) in pdns.records() {
        *counts.entry(day).or_default() += 1;
    }
    let mut days: BTreeMap<Day, Vec<(DomainId, Ipv4)>> = counts
        .into_iter()
        .map(|(day, n)| (day, Vec::with_capacity(n)))
        .collect();
    for (domain, day, ip) in pdns.records() {
        if let Some(records) = days.get_mut(&day) {
            records.push((domain, ip));
        }
    }
    days
}

/// Ids must come strictly ascending: `next` after `previous`.
fn ascending(previous: &mut Option<u32>, next: u32, what: &str) -> Result<(), DecodeError> {
    if previous.is_some_and(|p| p >= next) {
        return Err(DecodeError::new(format!("{what} {next} out of order")));
    }
    *previous = Some(next);
    Ok(())
}

impl LogCollector {
    /// The collector's durable state — see the
    /// [module documentation](crate::state) for what it holds and
    /// [`LogCollector`] for what it is for. The traffic of the days read
    /// is not part of it. A decoded collector gives back the bytes it was
    /// decoded from.
    pub fn state_bytes(&self) -> Vec<u8> {
        let names: usize = self
            .table
            .ids()
            .map(|d| self.table.name(d).as_str().len() + 4)
            .sum();
        let machines: usize = self.machines.iter().map(|m| m.len() + 4).sum();
        let history = 24 * self.recorder.activity.tracked_fqds() + 8 * self.recorder.pdns.len();
        let mut w =
            Writer::with_capacity(names + machines + history + 20 * self.recorder.days.len() + 64);

        let LogPosition { offset, lines } = self.consumed;
        w.put(offset);
        w.put(lines);
        w.flag(self.guard.is_some());
        if let Some(LogGuard { len, hash }) = self.guard {
            w.put(len);
            w.put(hash);
        }

        w.count(self.table.len());
        for id in self.table.ids() {
            w.str(self.table.name(id).as_str());
        }
        w.count(self.machines.len());
        for name in &self.machines {
            w.str(name);
        }
        w.count(self.recorder.days.len());
        for (&day, acc) in &self.recorder.days {
            w.put(day);
            w.put(acc.first_at.offset);
            w.put(acc.first_at.lines);
        }

        w.count(self.recorder.activity.tracked_fqds());
        let mut words: Vec<u64> = Vec::new();
        for id in self.table.ids() {
            let mut days = self.recorder.activity.fqd_days(id).peekable();
            let Some(first) = days.peek() else {
                continue;
            };
            let skipped = first.0 / 64;
            words.clear();
            for day in days {
                let word = day.index() / 64 - skipped as usize;
                if words.len() <= word {
                    words.resize(word + 1, 0);
                }
                words[word] |= 1 << (day.index() % 64);
            }
            w.put(id.0);
            w.put(skipped);
            w.array(&words);
        }

        let days = pdns_days(&self.recorder.pdns);
        w.count(days.len());
        for (day, records) in &days {
            w.put(day.0);
            w.count(records.len());
            for &(domain, ip) in records {
                w.put(domain.0);
                w.put(ip.0);
            }
        }
        w.into_bytes()
    }

    /// Rebuilds a collector from [`state_bytes`](Self::state_bytes): the
    /// same ids for the same names, the same history, the days listed —
    /// with no traffic, which [`resume_log`](Self::resume_log) and
    /// [`ingest_reader_from`](Self::ingest_reader_from) read back for the
    /// days a run still needs.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for anything but the state this version writes.
    pub fn from_state_bytes(bytes: &[u8]) -> Result<LogCollector, DecodeError> {
        let mut r = Reader::new(bytes);
        let mut collector = LogCollector::new();
        collector.consumed = LogPosition {
            offset: r.get("consumed offset")?,
            lines: r.get("consumed line count")?,
        };
        if r.flag("guard")? {
            collector.guard = Some(LogGuard {
                len: r.get("guard window")?,
                hash: r.get("guard hash")?,
            });
        }

        // Every name takes at least its length and one byte: the bytes
        // left bound the room made, whatever the count says.
        let domains = r.count("domain count")?;
        collector.table.reserve(domains.min(r.remaining() / 5));
        for index in 0..domains {
            let name = r.str("domain name")?;
            // A name that is already there, or is spelled some other way
            // than the table spells it, would shift every id after it.
            let parsed = DomainName::parse(name)
                .map_err(|e| DecodeError::new(format!("domain {index}: {e}")))?;
            let canonical = parsed.as_str() == name;
            if !canonical || collector.table.intern_owned(parsed).index() != index {
                return Err(DecodeError::new(format!(
                    "domain {index} {name:?} repeats or is not in canonical spelling"
                )));
            }
        }
        let machines = r.count("machine count")?;
        collector.reserve_machines(machines.min(r.remaining() / 4));
        for index in 0..machines {
            let name = r.str("machine name")?;
            if collector.intern_machine(name.to_owned()).index() != index {
                return Err(DecodeError::new(format!(
                    "machine {index} {name:?} repeats"
                )));
            }
        }

        let mut previous = None;
        for _ in 0..r.count("day count")? {
            let day: u32 = r.get("day")?;
            ascending(&mut previous, day, "day")?;
            let first_at = LogPosition {
                offset: r.get("day offset")?,
                lines: r.get("day line count")?,
            };
            collector
                .recorder
                .days
                .insert(day, DayAccumulator::new(first_at));
        }

        let domains = collector.table.len();
        let known = |id: u32, what: &str| {
            if usize::try_from(id).is_ok_and(|i| i < domains) {
                Ok(DomainId(id))
            } else {
                Err(DecodeError::new(format!(
                    "{what} names domain {id}, the table holds {domains}"
                )))
            }
        };
        // Each domain's days a word at a time, through one buffer.
        let mut words: Vec<u64> = Vec::new();
        let mut previous = None;
        for _ in 0..r.count("activity count")? {
            let id: u32 = r.get("activity domain")?;
            ascending(&mut previous, id, "activity domain")?;
            let domain = known(id, "activity")?;
            let skipped: u32 = r.get("skipped word count")?;
            words.clear();
            for _ in 0..r.count("activity words")? {
                words.push(r.get("activity word")?);
            }
            let Some(last) = words.iter().rposition(|&word| word != 0) else {
                continue;
            };
            // The last day set is the top bit of the last word set; every
            // day must fit a `u32`.
            let last_word =
                u64::try_from(last).map_or(u64::MAX, |w| w.saturating_add(u64::from(skipped)));
            let last_day = last_word
                .saturating_mul(64)
                .saturating_add(63 - u64::from(words[last].leading_zeros()));
            let (Ok(first_word), true) =
                (usize::try_from(skipped), last_day <= u64::from(u32::MAX))
            else {
                return Err(DecodeError::new(format!(
                    "activity of domain {id} past the last day"
                )));
            };
            let e2ld = collector.table.e2ld_of(domain);
            collector
                .recorder
                .activity
                .record_words(domain, e2ld, first_word, &words);
        }

        // Each domain's list is sized once, from a first pass over the
        // records; the second decodes them, errors included.
        collector
            .recorder
            .pdns
            .reserve_per_domain(&pdns_per_domain(r.clone(), domains));
        // A day's records may come in any order; the store sorts them.
        let mut previous = None;
        for _ in 0..r.count("pdns day count")? {
            let day: u32 = r.get("pdns day")?;
            ascending(&mut previous, day, "pdns day")?;
            for _ in 0..r.count("pdns record count")? {
                let domain = known(r.get("pdns domain")?, "pdns")?;
                let ip: u32 = r.get("pdns ip")?;
                collector.recorder.pdns.record(domain, Ipv4(ip), Day(day));
            }
        }
        r.finish("front-end state")?;
        Ok(collector)
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor as IoCursor;

    use super::*;
    use crate::parser::LogRecord;
    use segugio_model::{DomainName, MachineId};

    const LOG: &str = "\
# resolver log
3\thost-a\twww.example.com\t93.184.216.34
3\thost-b\tcdn.example.com\t10.0.0.1,10.0.0.2
4\thost-a\tevil.test\t198.51.100.9
70\thost-c\twww.example.com\t93.184.216.34
";

    fn collected(text: &str) -> LogCollector {
        let mut c = LogCollector::new();
        c.ingest_reader_from(&mut IoCursor::new(text.as_bytes()), LogPosition::START)
            .unwrap();
        c
    }

    #[test]
    fn state_round_trips_to_the_same_text_and_the_same_ids() {
        let original = collected(LOG);
        let bytes = original.state_bytes();
        let decoded = LogCollector::from_state_bytes(&bytes).unwrap();
        assert_eq!(decoded.state_bytes(), bytes);

        assert_eq!(decoded.table().len(), 3);
        for id in original.table().ids() {
            assert_eq!(decoded.table().name(id), original.table().name(id));
            assert_eq!(decoded.table().e2ld_of(id), original.table().e2ld_of(id));
        }
        assert_eq!(decoded.machine_id("host-c"), original.machine_id("host-c"));
        assert_eq!(decoded.days(), original.days());
        assert_eq!(decoded.consumed(), original.consumed());
        assert_eq!(
            decoded.consumed(),
            LogPosition {
                offset: LOG.len() as u64,
                lines: 5
            }
        );
        let www = original.table().get_str("www.example.com").unwrap();
        assert!(decoded.activity().fqd_active_on(www, Day(70)));
        assert_eq!(decoded.pdns().len(), original.pdns().len());
        // The traffic is not part of the state.
        assert!(decoded.day(Day(3)).unwrap().queries.is_empty());
    }

    #[test]
    fn pdns_days_in_log_order_decode_to_the_canonical_state() {
        // Day 2's records come in log order — (b, .9), (b, .7), (a, .3) —
        // as the day-major copy of earlier builds wrote them; the state
        // writes them by (domain, ip).
        let log = "\
1\thost-a\ta.example.com\t10.0.0.1
1\thost-a\tb.example.com\t10.0.0.5
2\thost-b\tb.example.com\t10.0.0.9,10.0.0.7
2\thost-a\ta.example.com\t10.0.0.3
";
        let canonical = collected(log).state_bytes();
        let (a, b, ip) = (0u32, 1u32, |n| Ipv4::from_octets(10, 0, 0, n).0);
        let days = [
            (1u32, vec![(a, ip(1)), (b, ip(5))]),
            (2, vec![(b, ip(9)), (b, ip(7)), (a, ip(3))]),
        ];
        let mut pdns = Writer::new();
        pdns.count(days.len());
        for (day, records) in &days {
            pdns.put(*day);
            pdns.count(records.len());
            for &(domain, ip) in records {
                pdns.put(domain);
                pdns.put(ip);
            }
        }
        let pdns = pdns.into_bytes();
        let head = &canonical[..canonical.len() - pdns.len()];
        let in_log_order = [head, &pdns[..]].concat();
        assert_ne!(in_log_order, canonical);

        let from_log_order = LogCollector::from_state_bytes(&in_log_order).unwrap();
        let from_canonical = LogCollector::from_state_bytes(&canonical).unwrap();
        assert_eq!(from_log_order.state_bytes(), canonical);
        assert_eq!(
            from_log_order.pdns().records().collect::<Vec<_>>(),
            from_canonical.pdns().records().collect::<Vec<_>>()
        );
        assert_eq!(from_log_order.pdns().domain_count(), 2);
    }

    #[test]
    fn a_record_on_the_last_day_is_written() {
        // Straight into the store: a logged line would also mark the day
        // in the activity bitmaps, which span every day before it.
        let mut c = collected(LOG);
        let www = c.table().get_str("www.example.com").unwrap();
        let ip = Ipv4::from_octets(10, 0, 0, 1);
        c.recorder.pdns.record(www, ip, Day(u32::MAX));
        let bytes = c.state_bytes();
        let decoded = LogCollector::from_state_bytes(&bytes).unwrap();
        assert_eq!(decoded.state_bytes(), bytes);
        let records: Vec<_> = decoded.pdns().records().collect();
        assert_eq!(records, c.pdns().records().collect::<Vec<_>>());
        assert!(records.contains(&(www, Day(u32::MAX), ip)));
    }

    #[test]
    fn any_client_spelling_survives() {
        let mut c = LogCollector::new();
        for client in [
            "with space",
            "caf\u{e9}",
            "a\rb",
            "two\nlines",
            "7 digits first",
        ] {
            c.ingest(LogRecord {
                day: Day(1),
                client: client.to_owned(),
                qname: DomainName::parse("example.com").unwrap(),
                ips: Vec::new(),
            });
        }
        let bytes = c.state_bytes();
        let decoded = LogCollector::from_state_bytes(&bytes).unwrap();
        assert_eq!(decoded.state_bytes(), bytes);
        for m in 0..5 {
            assert_eq!(
                decoded.machine_name(MachineId(m)),
                c.machine_name(MachineId(m))
            );
        }
    }

    #[test]
    fn damage_is_a_typed_error() {
        let bytes = collected(LOG).state_bytes();
        for cut in 0..bytes.len() {
            assert!(
                LogCollector::from_state_bytes(&bytes[..cut]).is_err(),
                "{cut}"
            );
        }
        // The last pDNS record's domain, pointed past the table.
        let mut out_of_range = bytes.clone();
        let at = bytes.len() - 8;
        out_of_range[at..at + 4].copy_from_slice(&9u32.to_le_bytes());
        let error = LogCollector::from_state_bytes(&out_of_range).unwrap_err();
        assert!(error.to_string().contains("names domain 9"), "{error}");
        let mut repeated = bytes.clone();
        let cdn = bytes.windows(15).position(|w| w == b"cdn.example.com");
        repeated[cdn.unwrap()..][..15].copy_from_slice(b"www.example.com");
        assert!(LogCollector::from_state_bytes(&repeated).is_err());
        let trailing = [&bytes[..], b"x"].concat();
        assert!(LogCollector::from_state_bytes(&trailing).is_err());
    }

    #[test]
    fn activity_past_the_last_day_is_refused() {
        let mut c = LogCollector::new();
        c.ingest(LogRecord {
            day: Day(1),
            client: "m".to_owned(),
            qname: DomainName::parse("a.com").unwrap(),
            ips: Vec::new(),
        });
        let mut bytes = c.state_bytes();
        // The state ends in one activity entry — domain, skipped words,
        // one word — and an empty pDNS day count.
        let skipped = bytes.len() - 4 - 8 - 4 - 4;
        assert_eq!(bytes[skipped..skipped + 4], 0u32.to_le_bytes());
        assert_eq!(bytes[skipped + 8..skipped + 16], 2u64.to_le_bytes());
        bytes[skipped..skipped + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let error = LogCollector::from_state_bytes(&bytes).unwrap_err();
        assert!(error.to_string().contains("past the last day"), "{error}");
    }

    #[test]
    fn guard_tells_an_appended_log_from_a_changed_one() {
        let mut c = LogCollector::from_state_bytes(&collected(LOG).state_bytes()).unwrap();
        let grown = format!("{LOG}71\thost-a\tnew.example.org\t10.9.9.9\n");
        let (start, unchanged) = c
            .resume_log(&mut IoCursor::new(grown.as_bytes()), Some(Day(70)))
            .unwrap();
        assert!(unchanged);
        assert_eq!(start, c.consumed());

        // One byte edited inside the window, same length.
        let edited = grown.replacen("host-b", "host-x", 1);
        let mut c = LogCollector::from_state_bytes(&collected(LOG).state_bytes()).unwrap();
        let (start, unchanged) = c
            .resume_log(&mut IoCursor::new(edited.as_bytes()), Some(Day(70)))
            .unwrap();
        assert!(!unchanged);
        assert_eq!(start, LogPosition::START);
        assert!(c.days().is_empty(), "the old log's day list is dropped");
        assert_eq!(c.table().len(), 3, "names keep their ids");

        // Truncated below the stored offset.
        let mut c = LogCollector::from_state_bytes(&collected(LOG).state_bytes()).unwrap();
        let short = &LOG[..LOG.len() - 10];
        let (start, unchanged) = c
            .resume_log(&mut IoCursor::new(short.as_bytes()), Some(Day(70)))
            .unwrap();
        assert!(!unchanged);
        assert_eq!(start, LogPosition::START);
    }

    #[test]
    fn a_stream_that_cannot_seek_leaves_no_fingerprint_to_trust() {
        let mut c = LogCollector::new();
        c.ingest_reader(LOG.as_bytes()).unwrap();
        assert_eq!(c.consumed().offset, LOG.len() as u64);
        assert_eq!(c.guard, None);
        let state = c.state_bytes();
        let mut decoded = LogCollector::from_state_bytes(&state).unwrap();
        assert_eq!(decoded.state_bytes(), state);
        let (start, unchanged) = decoded
            .resume_log(&mut IoCursor::new(LOG.as_bytes()), Some(Day(3)))
            .unwrap();
        assert!(!unchanged, "nothing vouches for the log");
        assert_eq!(start, LogPosition::START);
    }

    #[test]
    fn resume_starts_at_the_first_uncovered_day() {
        let mut c = LogCollector::from_state_bytes(&collected(LOG).state_bytes()).unwrap();
        let (start, unchanged) = c
            .resume_log(&mut IoCursor::new(LOG.as_bytes()), Some(Day(3)))
            .unwrap();
        assert!(unchanged);
        let day4 = LOG.find("4\thost-a").unwrap() as u64;
        assert_eq!(
            start,
            LogPosition {
                offset: day4,
                lines: 3
            }
        );
        let mut log = IoCursor::new(LOG.as_bytes());
        assert_eq!(c.ingest_reader_from(&mut log, start).unwrap(), 2);

        let mut whole = LogCollector::resuming_after(Day(3));
        whole
            .ingest_reader_from(&mut log, LogPosition::START)
            .unwrap();
        for day in [Day(3), Day(4), Day(70)] {
            assert_eq!(c.try_day(day).unwrap(), whole.try_day(day).unwrap());
        }
        assert_eq!(c.state_bytes(), whole.state_bytes());
    }

    #[test]
    fn errors_after_a_seek_count_lines_from_the_top() {
        let mut c = LogCollector::from_state_bytes(&collected(LOG).state_bytes()).unwrap();
        let start = c.consumed();
        let grown = format!("{LOG}71\thost-a\tok.example.org\t1.1.1.1\nbroken\n");
        let error = c
            .ingest_reader_from(&mut IoCursor::new(grown.as_bytes()), start)
            .unwrap_err();
        match error {
            crate::IngestError::Parse(e) => assert_eq!(e.line(), 7),
            other => panic!("expected a parse error, got {other:?}"),
        }
        assert_eq!(c.consumed(), start, "a failed pass does not move the mark");
    }

    #[test]
    fn an_unterminated_last_line_is_read_but_not_marked_consumed() {
        let cut = LOG.trim_end_matches('\n');
        let c = collected(cut);
        assert_eq!(c.days(), vec![Day(3), Day(4), Day(70)], "the line counts");
        let last_line = LOG.find("70\thost-c").unwrap() as u64;
        assert_eq!(
            c.consumed(),
            LogPosition {
                offset: last_line,
                lines: 4
            }
        );

        // Overnight the line is completed and a day follows.
        let grown = format!("{LOG}71\thost-a\tevil.test\t198.51.100.9\n");
        let mut resumed = LogCollector::from_state_bytes(&c.state_bytes()).unwrap();
        let mut log = IoCursor::new(grown.as_bytes());
        let (start, unchanged) = resumed.resume_log(&mut log, Some(Day(70))).unwrap();
        assert!(unchanged);
        assert_eq!(start.offset, last_line);
        assert_eq!(resumed.ingest_reader_from(&mut log, start).unwrap(), 2);
        let mut whole = LogCollector::resuming_after(Day(70));
        whole
            .ingest_reader_from(&mut log, LogPosition::START)
            .unwrap();
        assert_eq!(resumed.state_bytes(), whole.state_bytes());
        assert_eq!(
            resumed.try_day(Day(71)).unwrap(),
            whole.try_day(Day(71)).unwrap()
        );
    }

    #[test]
    fn a_long_last_line_is_inside_the_guard_whole() {
        let long = format!(
            "5\thost-a\texample.com\t{}\n",
            vec!["10.0.0.1"; 2000].join(",")
        );
        assert!(long.len() as u64 > 2 * LogGuard::WINDOW_BYTES);
        let text = format!("{LOG}{long}");
        let c = collected(&text);
        assert_eq!(c.guard.unwrap().len, long.len() as u64);
        // An edit at the far end of that line is seen.
        let edited = text.replacen("5\thost-a", "5\thost-b", 1);
        let mut decoded = LogCollector::from_state_bytes(&c.state_bytes()).unwrap();
        let (_, unchanged) = decoded
            .resume_log(&mut IoCursor::new(edited.as_bytes()), None)
            .unwrap();
        assert!(!unchanged);
    }
}
