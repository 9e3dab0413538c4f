//! The collector's durable state as text: what a read of the log builds,
//! minus the traffic, in a form a checkpoint can carry.
//!
//! ```text
//! segugio-frontend v1
//! consumed <offset> <lines>
//! guard <window-bytes> <fnv1a64-hex>      or: guard none
//! domains <n>
//! <name>                                  n lines, in id order
//! machines <n>
//! <name-bytes> <name>                     n lines, in id order
//! days <n>
//! <day> <first-offset> <first-lines>      n lines, ascending
//! activity <n>
//! <domain-id> <skipped-words> <hex64>...  n lines, ascending; 64 days a word
//! pdns <n>
//! <day> <records> <domain-id> <ip-hex>... n lines, ascending; log order within
//! end-frontend
//! ```
//!
//! Names are written in id order and decoded by interning them in that
//! order, so every [`DomainId`], `E2ldId` and `MachineId` comes out
//! equal by construction; the stores are rebuilt by replaying their
//! records, so they hold what they held. Decoding reads attacker-shaped
//! bytes (a checkpoint directory is a file system away from anyone): every
//! malformation is a typed [`DecodeStateError`], nothing is allocated from
//! a declared count, and the work done is bounded by the length of the
//! text.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::io::{Read, Seek, SeekFrom};
use std::str::FromStr;

use segugio_model::{Day, DomainId, Ipv4};

use crate::collector::{DayAccumulator, LogCollector};
use crate::parser::LogPosition;

const HEADER: &str = "segugio-frontend v1";
const FOOTER: &str = "end-frontend";

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
/// when the log does not hold them. `len` may come from state text: the
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

/// Returned when state text cannot be decoded: written by another version,
/// truncated, or not state text at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeStateError {
    message: String,
}

impl DecodeStateError {
    fn new(message: impl Into<String>) -> Self {
        DecodeStateError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "front-end state: {}", self.message)
    }
}

impl Error for DecodeStateError {}

/// Walks state text front to back.
struct Cursor<'a> {
    rest: &'a str,
}

type Tokens<'a> = std::str::SplitAsciiWhitespace<'a>;

impl<'a> Cursor<'a> {
    /// The next line, which must end in `\n`.
    fn line(&mut self, what: &str) -> Result<&'a str, DecodeStateError> {
        let (line, rest) = self
            .rest
            .split_once('\n')
            .ok_or_else(|| DecodeStateError::new(format!("text ends before {what}")))?;
        self.rest = rest;
        Ok(line)
    }

    /// The tokens of the next line, after its leading `keyword`.
    fn keyword_line(&mut self, keyword: &str) -> Result<Tokens<'a>, DecodeStateError> {
        let line = self.line(&format!("the {keyword} line"))?;
        let mut tokens = line.split_ascii_whitespace();
        if tokens.next() != Some(keyword) {
            return Err(DecodeStateError::new(format!(
                "expected a {keyword} line, found {line:?}"
            )));
        }
        Ok(tokens)
    }

    /// A `<keyword> <n>` line: the count of lines in the block it opens.
    fn block(&mut self, keyword: &str) -> Result<u64, DecodeStateError> {
        let mut tokens = self.keyword_line(keyword)?;
        let count = number(&mut tokens, keyword)?;
        end_of_line(tokens, keyword)?;
        Ok(count)
    }

    /// The next `bytes` bytes, which must end on a character boundary and
    /// be followed by `\n`.
    fn counted(&mut self, bytes: usize, what: &str) -> Result<&'a str, DecodeStateError> {
        let bad = || DecodeStateError::new(format!("{what} runs past its declared length"));
        let text = self.rest.get(..bytes).ok_or_else(bad)?;
        self.rest = self
            .rest
            .get(bytes..)
            .and_then(|rest| rest.strip_prefix('\n'))
            .ok_or_else(bad)?;
        Ok(text)
    }
}

fn number<T: FromStr>(tokens: &mut Tokens<'_>, what: &str) -> Result<T, DecodeStateError> {
    let token = tokens
        .next()
        .ok_or_else(|| DecodeStateError::new(format!("missing {what}")))?;
    token
        .parse()
        .map_err(|_| DecodeStateError::new(format!("bad {what} {token:?}")))
}

fn hex(tokens: &mut Tokens<'_>, what: &str) -> Result<u64, DecodeStateError> {
    let token = tokens
        .next()
        .ok_or_else(|| DecodeStateError::new(format!("missing {what}")))?;
    u64::from_str_radix(token, 16)
        .map_err(|_| DecodeStateError::new(format!("bad {what} {token:?}")))
}

fn end_of_line(mut tokens: Tokens<'_>, what: &str) -> Result<(), DecodeStateError> {
    match tokens.next() {
        None => Ok(()),
        Some(extra) => Err(DecodeStateError::new(format!(
            "trailing token {extra:?} on a {what} line"
        ))),
    }
}

/// Ids must come strictly ascending: `next` after `previous`.
fn ascending(previous: &mut Option<u32>, next: u32, what: &str) -> Result<(), DecodeStateError> {
    if previous.is_some_and(|p| p >= next) {
        return Err(DecodeStateError::new(format!("{what} {next} out of order")));
    }
    *previous = Some(next);
    Ok(())
}

impl LogCollector {
    /// Writes the collector's durable state — see the
    /// [module documentation](crate::state) for the format and
    /// [`LogCollector`] for what it is for. The traffic of the days read
    /// is not part of it. Encoding a decoded collector gives the text it
    /// was decoded from.
    pub fn encode_state(&self) -> String {
        let names: usize = self
            .table
            .ids()
            .map(|d| self.table.name(d).as_str().len() + 1)
            .sum();
        let machines: usize = self.machines.iter().map(|m| m.len() + 8).sum();
        let history = 24 * self.activity.tracked_fqds() + 16 * self.pdns.len();
        let mut out =
            String::with_capacity(names + machines + history + 32 * self.days.len() + 256);

        let _ = writeln!(out, "{HEADER}");
        let LogPosition { offset, lines } = self.consumed;
        let _ = writeln!(out, "consumed {offset} {lines}");
        match self.guard {
            Some(LogGuard { len, hash }) => {
                let _ = writeln!(out, "guard {len} {hash:016x}");
            }
            None => out.push_str("guard none\n"),
        }

        let _ = writeln!(out, "domains {}", self.table.len());
        for id in self.table.ids() {
            out.push_str(self.table.name(id).as_str());
            out.push('\n');
        }
        let _ = writeln!(out, "machines {}", self.machines.len());
        for name in &self.machines {
            let _ = writeln!(out, "{} {name}", name.len());
        }
        let _ = writeln!(out, "days {}", self.days.len());
        for (day, acc) in &self.days {
            let LogPosition { offset, lines } = acc.first_at;
            let _ = writeln!(out, "{day} {offset} {lines}");
        }

        let _ = writeln!(out, "activity {}", self.activity.tracked_fqds());
        let mut words: Vec<u64> = Vec::new();
        for id in self.table.ids() {
            let mut days = self.activity.fqd_days(id).peekable();
            let Some(first) = days.peek() else {
                continue;
            };
            let skipped = first.index() / 64;
            words.clear();
            for day in days {
                let word = day.index() / 64 - skipped;
                if words.len() <= word {
                    words.resize(word + 1, 0);
                }
                words[word] |= 1 << (day.index() % 64);
            }
            let _ = write!(out, "{} {skipped}", id.0);
            for word in &words {
                let _ = write!(out, " {word:x}");
            }
            out.push('\n');
        }

        let _ = writeln!(out, "pdns {}", self.pdns.days().count());
        for day in self.pdns.days() {
            let records = self.pdns.records_on(day);
            let _ = write!(out, "{} {}", day.0, records.len());
            for &(domain, ip) in records {
                let _ = write!(out, " {} {:x}", domain.0, ip.0);
            }
            out.push('\n');
        }
        let _ = writeln!(out, "{FOOTER}");
        out
    }

    /// Rebuilds a collector from [`encode_state`](Self::encode_state)
    /// text: the same ids for the same names, the same history, the days
    /// listed — with no traffic, which [`resume_log`](Self::resume_log)
    /// and [`ingest_reader_from`](Self::ingest_reader_from) read back for
    /// the days a run still needs.
    ///
    /// # Errors
    ///
    /// [`DecodeStateError`] for anything but well-formed text of this
    /// version.
    pub fn decode_state(text: &str) -> Result<LogCollector, DecodeStateError> {
        let mut cursor = Cursor { rest: text };
        let header = cursor.line("the header")?;
        if header != HEADER {
            return Err(DecodeStateError::new(format!(
                "not written by this version (expected {HEADER:?}, found {header:?})"
            )));
        }
        let mut collector = LogCollector::new();

        let mut tokens = cursor.keyword_line("consumed")?;
        collector.consumed = LogPosition {
            offset: number(&mut tokens, "consumed offset")?,
            lines: number(&mut tokens, "consumed line count")?,
        };
        end_of_line(tokens, "consumed")?;
        let mut tokens = cursor.keyword_line("guard")?;
        collector.guard = if tokens.clone().eq(["none"]) {
            None
        } else {
            let guard = LogGuard {
                len: number(&mut tokens, "guard window")?,
                hash: hex(&mut tokens, "guard hash")?,
            };
            end_of_line(tokens, "guard")?;
            Some(guard)
        };

        for index in 0..cursor.block("domains")? {
            let name = cursor.line("a domain name")?;
            // A name that is already there, or is spelled some other way
            // than the table spells it, would shift every id after it.
            let id = collector
                .table
                .intern_str(name)
                .map_err(|e| DecodeStateError::new(format!("domain {index}: {e}")))?;
            if u64::from(id.0) != index || collector.table.name(id).as_str() != name {
                return Err(DecodeStateError::new(format!(
                    "domain {index} {name:?} repeats or is not in canonical spelling"
                )));
            }
        }
        for index in 0..cursor.block("machines")? {
            let line = cursor.rest;
            let (bytes, _) = line
                .split_once(' ')
                .ok_or_else(|| DecodeStateError::new(format!("machine {index}: no length")))?;
            cursor.rest = &line[bytes.len() + 1..];
            let bytes: usize = bytes
                .parse()
                .map_err(|_| DecodeStateError::new(format!("machine {index}: bad length")))?;
            let name = cursor.counted(bytes, "a machine name")?;
            if u64::from(collector.intern_machine(name).0) != index {
                return Err(DecodeStateError::new(format!(
                    "machine {index} {name:?} repeats"
                )));
            }
        }

        let mut previous = None;
        for _ in 0..cursor.block("days")? {
            let mut tokens = cursor.line("a day")?.split_ascii_whitespace();
            let day: u32 = number(&mut tokens, "day")?;
            ascending(&mut previous, day, "day")?;
            let first_at = LogPosition {
                offset: number(&mut tokens, "day offset")?,
                lines: number(&mut tokens, "day line count")?,
            };
            end_of_line(tokens, "day")?;
            collector
                .days
                .insert(day, DayAccumulator::new(None, first_at));
        }

        let domains = collector.table.len();
        let known = |id: u32, what: &str| {
            if usize::try_from(id).is_ok_and(|i| i < domains) {
                Ok(DomainId(id))
            } else {
                Err(DecodeStateError::new(format!(
                    "{what} names domain {id}, the table holds {domains}"
                )))
            }
        };
        let mut previous = None;
        for _ in 0..cursor.block("activity")? {
            let mut tokens = cursor.line("an activity line")?.split_ascii_whitespace();
            let id: u32 = number(&mut tokens, "activity domain id")?;
            ascending(&mut previous, id, "activity domain")?;
            let domain = known(id, "activity")?;
            let e2ld = collector.table.e2ld_of(domain);
            let skipped: u32 = number(&mut tokens, "skipped word count")?;
            for (word, token) in (u64::from(skipped)..).zip(tokens) {
                let bits = u64::from_str_radix(token, 16)
                    .map_err(|_| DecodeStateError::new(format!("bad activity word {token:?}")))?;
                for bit in (0..64u64).filter(|bit| bits & (1 << bit) != 0) {
                    let day = u32::try_from(word * 64 + bit).map_err(|_| {
                        DecodeStateError::new(format!("activity of domain {id} past the last day"))
                    })?;
                    collector.activity.record(domain, e2ld, Day(day));
                }
            }
        }

        let mut previous = None;
        for _ in 0..cursor.block("pdns")? {
            let mut tokens = cursor.line("a pdns day")?.split_ascii_whitespace();
            let day: u32 = number(&mut tokens, "pdns day")?;
            ascending(&mut previous, day, "pdns day")?;
            let records: u64 = number(&mut tokens, "pdns record count")?;
            for _ in 0..records {
                let domain = known(number(&mut tokens, "pdns domain id")?, "pdns")?;
                let ip = u32::try_from(hex(&mut tokens, "pdns ip")?)
                    .map_err(|_| DecodeStateError::new("pdns ip wider than 32 bits"))?;
                collector.pdns.record(domain, Ipv4(ip), Day(day));
            }
            end_of_line(tokens, "pdns")?;
        }

        if cursor.line("the footer")? != FOOTER || !cursor.rest.is_empty() {
            return Err(DecodeStateError::new(format!(
                "text does not end in {FOOTER:?}"
            )));
        }
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
        let text = original.encode_state();
        let decoded = LogCollector::decode_state(&text).unwrap();
        assert_eq!(decoded.encode_state(), text);

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
        let text = c.encode_state();
        let decoded = LogCollector::decode_state(&text).unwrap();
        assert_eq!(decoded.encode_state(), text);
        for m in 0..5 {
            assert_eq!(
                decoded.machine_name(MachineId(m)),
                c.machine_name(MachineId(m))
            );
        }
    }

    #[test]
    fn other_versions_and_damage_are_typed_errors() {
        let text = collected(LOG).encode_state();
        let future = text.replacen("segugio-frontend v1", "segugio-frontend v2", 1);
        let error = LogCollector::decode_state(&future).unwrap_err();
        assert!(error.to_string().contains("version"), "{error}");

        for cut in 0..text.len() {
            if text.is_char_boundary(cut) {
                assert!(LogCollector::decode_state(&text[..cut]).is_err(), "{cut}");
            }
        }
        let out_of_range = text.replacen("\n1 0 8\n", "\n9 0 8\n", 1);
        assert_ne!(out_of_range, text);
        assert!(LogCollector::decode_state(&out_of_range).is_err());
        let repeated = text.replacen("cdn.example.com", "www.example.com", 1);
        assert!(LogCollector::decode_state(&repeated).is_err());
        let trailing = format!("{text}x");
        assert!(LogCollector::decode_state(&trailing).is_err());
    }

    #[test]
    fn guard_tells_an_appended_log_from_a_changed_one() {
        let mut c = LogCollector::decode_state(&collected(LOG).encode_state()).unwrap();
        let grown = format!("{LOG}71\thost-a\tnew.example.org\t10.9.9.9\n");
        let (start, unchanged) = c
            .resume_log(&mut IoCursor::new(grown.as_bytes()), Some(Day(70)))
            .unwrap();
        assert!(unchanged);
        assert_eq!(start, c.consumed());

        // One byte edited inside the window, same length.
        let edited = grown.replacen("host-b", "host-x", 1);
        let mut c = LogCollector::decode_state(&collected(LOG).encode_state()).unwrap();
        let (start, unchanged) = c
            .resume_log(&mut IoCursor::new(edited.as_bytes()), Some(Day(70)))
            .unwrap();
        assert!(!unchanged);
        assert_eq!(start, LogPosition::START);
        assert!(c.days().is_empty(), "the old log's day list is dropped");
        assert_eq!(c.table().len(), 3, "names keep their ids");

        // Truncated below the stored offset.
        let mut c = LogCollector::decode_state(&collected(LOG).encode_state()).unwrap();
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
        let state = c.encode_state();
        assert!(state.contains("\nguard none\n"), "{state}");
        let mut decoded = LogCollector::decode_state(&state).unwrap();
        assert_eq!(decoded.encode_state(), state);
        let (start, unchanged) = decoded
            .resume_log(&mut IoCursor::new(LOG.as_bytes()), Some(Day(3)))
            .unwrap();
        assert!(!unchanged, "nothing vouches for the log");
        assert_eq!(start, LogPosition::START);
    }

    #[test]
    fn resume_starts_at_the_first_uncovered_day() {
        let mut c = LogCollector::decode_state(&collected(LOG).encode_state()).unwrap();
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
        assert_eq!(c.encode_state(), whole.encode_state());
    }

    #[test]
    fn errors_after_a_seek_count_lines_from_the_top() {
        let mut c = LogCollector::decode_state(&collected(LOG).encode_state()).unwrap();
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
        let mut resumed = LogCollector::decode_state(&c.encode_state()).unwrap();
        let mut log = IoCursor::new(grown.as_bytes());
        let (start, unchanged) = resumed.resume_log(&mut log, Some(Day(70))).unwrap();
        assert!(unchanged);
        assert_eq!(start.offset, last_line);
        assert_eq!(resumed.ingest_reader_from(&mut log, start).unwrap(), 2);
        let mut whole = LogCollector::resuming_after(Day(70));
        whole
            .ingest_reader_from(&mut log, LogPosition::START)
            .unwrap();
        assert_eq!(resumed.encode_state(), whole.encode_state());
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
        let mut decoded = LogCollector::decode_state(&c.encode_state()).unwrap();
        let (_, unchanged) = decoded
            .resume_log(&mut IoCursor::new(edited.as_bytes()), None)
            .unwrap();
        assert!(!unchanged);
    }
}
