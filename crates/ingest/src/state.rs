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

use std::io::{Read, Seek, SeekFrom};

use segugio_model::container::{DecodeError, Reader, Writer};
use segugio_model::{Day, DomainId, Ipv4};

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
        let history = 24 * self.activity.tracked_fqds() + 8 * self.pdns.len();
        let mut w = Writer::with_capacity(names + machines + history + 20 * self.days.len() + 64);

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
        w.count(self.days.len());
        for (&day, acc) in &self.days {
            w.put(day);
            w.put(acc.first_at.offset);
            w.put(acc.first_at.lines);
        }

        w.count(self.activity.tracked_fqds());
        let mut words: Vec<u64> = Vec::new();
        for id in self.table.ids() {
            let mut days = self.activity.fqd_days(id).peekable();
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

        w.count(self.pdns.days().count());
        for day in self.pdns.days() {
            let records = self.pdns.records_on(day);
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

        for index in 0..r.count("domain count")? {
            let name = r.str("domain name")?;
            // A name that is already there, or is spelled some other way
            // than the table spells it, would shift every id after it.
            let id = collector
                .table
                .intern_str(name)
                .map_err(|e| DecodeError::new(format!("domain {index}: {e}")))?;
            if id.index() != index || collector.table.name(id).as_str() != name {
                return Err(DecodeError::new(format!(
                    "domain {index} {name:?} repeats or is not in canonical spelling"
                )));
            }
        }
        for index in 0..r.count("machine count")? {
            let name = r.str("machine name")?;
            if collector.intern_machine(name).index() != index {
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
                .days
                .insert(day, DayAccumulator::new(None, first_at));
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
        let mut previous = None;
        for _ in 0..r.count("activity count")? {
            let id: u32 = r.get("activity domain")?;
            ascending(&mut previous, id, "activity domain")?;
            let domain = known(id, "activity")?;
            let e2ld = collector.table.e2ld_of(domain);
            let skipped: u32 = r.get("skipped word count")?;
            let words = r.count("activity words")?;
            for word in (u64::from(skipped)..).take(words) {
                let bits: u64 = r.get("activity word")?;
                for bit in (0..64u64).filter(|bit| bits & (1 << bit) != 0) {
                    let day = u32::try_from(word * 64 + bit).map_err(|_| {
                        DecodeError::new(format!("activity of domain {id} past the last day"))
                    })?;
                    collector.activity.record(domain, e2ld, Day(day));
                }
            }
        }

        let mut previous = None;
        for _ in 0..r.count("pdns day count")? {
            let day: u32 = r.get("pdns day")?;
            ascending(&mut previous, day, "pdns day")?;
            for _ in 0..r.count("pdns record count")? {
                let domain = known(r.get("pdns domain")?, "pdns")?;
                let ip: u32 = r.get("pdns ip")?;
                collector.pdns.record(domain, Ipv4(ip), Day(day));
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
