//! Line-level parsing of the TSV log format: the one line loop and the
//! one field parser every reader mode shares.

use std::io::{BufRead, BufReader, Read};

use segugio_model::{Day, DomainName, Ipv4, ParseDomainError};

use crate::error::{IngestError, ParseLogError, ParseLogErrorKind};

/// One parsed log line: a client's query and the answer's resolved IPs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Day index of the observation.
    pub day: Day,
    /// Stable client identifier (opaque).
    pub client: String,
    /// The queried domain.
    pub qname: DomainName,
    /// Resolved addresses from the authoritative answer.
    pub ips: Vec<Ipv4>,
}

impl LogRecord {
    /// Parses one log line (`line_no` is used in error messages only).
    ///
    /// # Errors
    ///
    /// Returns [`ParseLogError`] when the line has missing fields, a bad
    /// day index, an empty client id, an invalid domain, or an invalid IP.
    pub fn parse(line: &str, line_no: u64) -> Result<Self, ParseLogError> {
        let raw = RawRecord::split(line, line_no)?;
        let qname = DomainName::parse(raw.qname).map_err(|e| raw.bad_domain(e))?;
        let mut ips = Vec::new();
        raw.parse_ips(&mut ips)?;
        Ok(LogRecord {
            day: raw.day,
            client: raw.client.to_owned(),
            qname,
            ips,
        })
    }
}

/// A log line split into its fields, borrowing the line: the day is
/// parsed and the client checked, the qname is still a raw spelling and
/// the IP list still text.
///
/// A line's errors are reported in field order — day, client, qname,
/// IPs — so a caller validates [`qname`](Self::qname) before it reports
/// what [`parse_ips`](Self::parse_ips) returned.
#[derive(Debug)]
pub(crate) struct RawRecord<'a> {
    pub(crate) day: Day,
    pub(crate) client: &'a str,
    pub(crate) qname: &'a str,
    ips_field: Option<&'a str>,
    line_no: u64,
}

impl<'a> RawRecord<'a> {
    /// Splits one line on tabs and interprets the day and client fields.
    pub(crate) fn split(line: &'a str, line_no: u64) -> Result<Self, ParseLogError> {
        let missing = |name| ParseLogError::new(line_no, ParseLogErrorKind::MissingField(name));
        let mut fields = SplitByte::new(line, b'\t');
        let day = fields.next().ok_or_else(|| missing("day"))?;
        let day = trim(day)
            .parse::<u32>()
            .map_err(|_| ParseLogError::new(line_no, ParseLogErrorKind::BadDay(day.to_owned())))?;
        let client = trim(fields.next().ok_or_else(|| missing("client"))?);
        if client.is_empty() {
            return Err(ParseLogError::new(line_no, ParseLogErrorKind::EmptyClient));
        }
        let qname = trim(fields.next().ok_or_else(|| missing("qname"))?);
        Ok(RawRecord {
            day: Day(day),
            client,
            qname,
            ips_field: fields.next(),
            line_no,
        })
    }

    /// This line's "invalid qname" error.
    pub(crate) fn bad_domain(&self, error: ParseDomainError) -> ParseLogError {
        ParseLogError::new(self.line_no, ParseLogErrorKind::BadDomain(error))
    }

    /// Parses the IP list into `out`, replacing what it held.
    pub(crate) fn parse_ips(&self, out: &mut Vec<Ipv4>) -> Result<(), ParseLogError> {
        out.clear();
        let field = self.ips_field.ok_or_else(|| {
            ParseLogError::new(self.line_no, ParseLogErrorKind::MissingField("ips"))
        })?;
        for part in SplitByte::new(trim(field), b',') {
            if part.is_empty() {
                continue;
            }
            let ip = match parse_canonical_ip(part.as_bytes()) {
                Some(ip) => ip,
                None => parse_ip(part, self.line_no)?,
            };
            out.push(ip);
        }
        Ok(())
    }
}

/// `str::split` on one ASCII byte. The fields of a log line are a few
/// bytes long, where a plain byte scan beats the set-up of the general
/// pattern searcher several times over.
struct SplitByte<'a> {
    rest: Option<&'a str>,
    separator: u8,
}

impl<'a> SplitByte<'a> {
    fn new(text: &'a str, separator: u8) -> Self {
        debug_assert!(separator.is_ascii());
        SplitByte {
            rest: Some(text),
            separator,
        }
    }
}

impl<'a> Iterator for SplitByte<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.rest?;
        // An ASCII byte is never part of a longer UTF-8 sequence, so
        // `split_at` lands on a character boundary.
        match rest.bytes().position(|b| b == self.separator) {
            Some(at) => {
                let (field, tail) = rest.split_at(at);
                self.rest = tail.get(1..);
                Some(field)
            }
            None => self.rest.take(),
        }
    }
}

/// `str::trim`, skipping its scan from both ends when the field visibly
/// has nothing to trim — nearly always.
fn trim(field: &str) -> &str {
    let bytes = field.as_bytes();
    match (bytes.first(), bytes.last()) {
        (Some(first), Some(last)) if first.is_ascii_graphic() && last.is_ascii_graphic() => field,
        _ => field.trim(),
    }
}

/// Parses a dotted quad in the spelling resolvers write — four runs of
/// digits, nothing else. `None` decides nothing: [`parse_ip`] then
/// accepts or rejects the rarer spellings (sign, padding).
fn parse_canonical_ip(s: &[u8]) -> Option<Ipv4> {
    let mut octets = [0u8; 4];
    let mut at = 0;
    for (k, octet) in octets.iter_mut().enumerate() {
        if k > 0 {
            if s.get(at) != Some(&b'.') {
                return None;
            }
            at += 1;
        }
        let mut value: Option<u8> = None;
        while let Some(digit) = s.get(at).filter(|b| b.is_ascii_digit()) {
            let so_far = value.unwrap_or(0).checked_mul(10)?;
            value = Some(so_far.checked_add(digit - b'0')?);
            at += 1;
        }
        *octet = value?;
    }
    (at == s.len()).then(|| Ipv4::from(octets))
}

fn parse_ip(s: &str, line_no: u64) -> Result<Ipv4, ParseLogError> {
    let bad = || ParseLogError::new(line_no, ParseLogErrorKind::BadIp(s.to_owned()));
    let mut octets = [0u8; 4];
    let mut parts = s.trim().split('.');
    for octet in &mut octets {
        let p = parts.next().ok_or_else(bad)?;
        *octet = p.parse::<u8>().map_err(|_| bad())?;
    }
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok(Ipv4::from(octets))
}

/// A place in a log: how many bytes and how many lines come before it.
///
/// The line loop counts both as it reads, so a later run can seek to a
/// place and still number its lines from the top of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct LogPosition {
    /// Bytes before this place.
    pub offset: u64,
    /// Lines before this place.
    pub lines: u64,
}

impl LogPosition {
    /// The first byte of a log.
    pub const START: LogPosition = LogPosition {
        offset: 0,
        lines: 0,
    };

    /// The 1-based number of the line that starts here.
    pub fn line_number(self) -> u64 {
        self.lines.saturating_add(1)
    }
}

/// What the line loop found on one line of a reader.
#[derive(Debug)]
pub(crate) enum Line<'a> {
    /// The line's bytes are not valid UTF-8.
    BadEncoding,
    /// A blank line or a `#` comment, line terminator stripped.
    Skipped,
    /// A candidate record, line terminator stripped. Only `\n` and `\r`
    /// are stripped: a trailing tab is significant (it delimits an empty
    /// IP list).
    Payload(&'a str),
}

/// What one pass of the line loop leaves behind.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scanned {
    /// The end of the last line that ended in `\n`. A final line without
    /// one is handed to the callback like any other but is not counted
    /// here: the writer may still be in the middle of it, so the next
    /// pass has to read it again from its first byte.
    pub(crate) end: LogPosition,
    /// Bytes of that last line, terminator included; 0 when the pass
    /// counted no line.
    pub(crate) last_line_bytes: u64,
}

// Large enough that a read syscall is paid once per ~1,400 lines.
const READ_BUFFER_BYTES: usize = 64 * 1024;

/// Hands every line of `reader` to `on_line` with the place it starts at,
/// counting from `start` (where the caller has positioned `reader`) and
/// reading into one reused buffer. UTF-8 is checked per line, so damaged
/// bytes cost that line only and the stream stays usable.
///
/// # Errors
///
/// [`IngestError::Io`] with the line number when reading fails, or the
/// first error `on_line` returns.
pub(crate) fn scan_lines<R: Read>(
    reader: R,
    start: LogPosition,
    mut on_line: impl FnMut(LogPosition, Line<'_>) -> Result<(), IngestError>,
) -> Result<Scanned, IngestError> {
    let mut reader = BufReader::with_capacity(READ_BUFFER_BYTES, reader);
    let mut buf = Vec::new();
    let mut scanned = Scanned {
        end: start,
        last_line_bytes: 0,
    };
    loop {
        buf.clear();
        let at = scanned.end;
        let read = reader
            .read_until(b'\n', &mut buf)
            .map_err(|source| IngestError::Io {
                line: at.line_number(),
                source,
            })?;
        if read == 0 {
            return Ok(scanned);
        }
        let line = match std::str::from_utf8(&buf) {
            Err(_) => Line::BadEncoding,
            Ok(text) => {
                let payload = text
                    .strip_suffix('\n')
                    .unwrap_or(text)
                    .trim_end_matches('\r');
                let content = payload.trim_start();
                if content.is_empty() || content.starts_with('#') {
                    Line::Skipped
                } else {
                    Line::Payload(payload)
                }
            }
        };
        on_line(at, line)?;
        if buf.last() != Some(&b'\n') {
            return Ok(scanned);
        }
        let read = u64::try_from(read).unwrap_or(u64::MAX);
        scanned = Scanned {
            end: LogPosition {
                offset: at.offset.saturating_add(read),
                lines: at.lines.saturating_add(1),
            },
            last_line_bytes: read,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ParseLogErrorKind;

    #[test]
    fn parses_a_full_line() {
        let r = LogRecord::parse("3\thost-1\tWWW.Example.COM\t1.2.3.4,5.6.7.8", 1).unwrap();
        assert_eq!(r.day, Day(3));
        assert_eq!(r.client, "host-1");
        assert_eq!(r.qname.as_str(), "www.example.com");
        assert_eq!(
            r.ips,
            vec![Ipv4::from_octets(1, 2, 3, 4), Ipv4::from_octets(5, 6, 7, 8)]
        );
    }

    #[test]
    fn allows_empty_ip_list() {
        let r = LogRecord::parse("0\tc\texample.com\t", 1).unwrap();
        assert!(r.ips.is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            LogRecord::parse("x\tc\texample.com\t1.2.3.4", 9)
                .unwrap_err()
                .kind(),
            ParseLogErrorKind::BadDay(_)
        ));
        assert!(matches!(
            LogRecord::parse("1\t\texample.com\t1.2.3.4", 9)
                .unwrap_err()
                .kind(),
            ParseLogErrorKind::EmptyClient
        ));
        assert!(matches!(
            LogRecord::parse("1\tc\tnot a domain\t1.2.3.4", 9)
                .unwrap_err()
                .kind(),
            ParseLogErrorKind::BadDomain(_)
        ));
        assert!(matches!(
            LogRecord::parse("1\tc\texample.com\t999.1.1.1", 9)
                .unwrap_err()
                .kind(),
            ParseLogErrorKind::BadIp(_)
        ));
        assert!(matches!(
            LogRecord::parse("1\tc\texample.com\t1.2.3.4.5", 9)
                .unwrap_err()
                .kind(),
            ParseLogErrorKind::BadIp(_)
        ));
        let err = LogRecord::parse("1\tc", 9).unwrap_err();
        assert_eq!(err.line(), 9);
        assert!(matches!(
            err.kind(),
            ParseLogErrorKind::MissingField("qname")
        ));
    }

    #[test]
    fn byte_split_and_trim_match_the_std_versions() {
        for text in [
            "",
            "\t",
            "a",
            "a\tb",
            "\ta\t\tb\t",
            "caf\u{e9}\t\u{2003}x\t",
        ] {
            let fast: Vec<&str> = SplitByte::new(text, b'\t').collect();
            let std: Vec<&str> = text.split('\t').collect();
            assert_eq!(fast, std, "{text:?}");
        }
        for field in [
            "",
            " ",
            "a",
            " a",
            "a ",
            "\u{2003}a\u{2003}",
            "\u{e9}",
            "a\u{a0}",
        ] {
            assert_eq!(trim(field), field.trim(), "{field:?}");
        }
    }

    #[test]
    fn canonical_ip_parser_agrees_with_the_general_one() {
        for text in [
            "1.2.3.4",
            "0.0.0.0",
            "255.255.255.255",
            "001.02.3.0004",
            "256.1.1.1",
            "1.2.3",
            "1.2.3.4.5",
            "1..3.4",
            "1.2.3.4.",
            ".1.2.3",
            "+1.2.3.4",
            "-1.2.3.4",
            " 1.2.3.4",
            "1.2.3.4 ",
            "1.2.3.x",
            "",
        ] {
            let general = parse_ip(text, 1).ok();
            if let Some(ip) = parse_canonical_ip(text.as_bytes()) {
                assert_eq!(Some(ip), general, "{text:?}");
            }
            let record = LogRecord::parse(&format!("0\tc\texample.com\t{text}"), 1);
            match general {
                Some(ip) => assert_eq!(record.unwrap().ips, vec![ip], "{text:?}"),
                None if text.is_empty() => assert!(record.unwrap().ips.is_empty()),
                None => assert!(record.is_err(), "{text:?}"),
            }
        }
        // The plain spelling must take the fast route.
        assert!(parse_canonical_ip(b"93.184.216.34").is_some());
    }

    #[test]
    fn error_display_mentions_line() {
        let err = LogRecord::parse("bad", 42).unwrap_err();
        assert!(err.to_string().contains("line 42"));
    }
}
