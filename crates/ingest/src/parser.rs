//! Line-level parsing of the TSV log format: the block cutter, the one
//! line loop and the one field parser every reader mode shares.

use std::io::Read;

use segugio_model::{Day, DomainName, Ipv4, ParseDomainError};

use crate::error::{ParseLogError, ParseLogErrorKind};

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

    /// [`split`](Self::split) for a line the line loop has already found
    /// the tabs of. A line of plain fields — a day of digits, client and
    /// qname with nothing to trim — is cut at those tabs; any other goes
    /// through `split`, so the fields and errors are that function's.
    pub(crate) fn split_at_tabs(
        line: &'a str,
        tabs: &Tabs,
        line_no: u64,
    ) -> Result<Self, ParseLogError> {
        match Self::plain(line, tabs, line_no) {
            Some(raw) => Ok(raw),
            None => Self::split(line, line_no),
        }
    }

    fn plain(line: &'a str, tabs: &Tabs, line_no: u64) -> Option<Self> {
        let [day_end, client_end, qname_end, fourth] = tabs.at;
        let ips_end = match tabs.count {
            4 => fourth,
            3 => line.len(),
            _ => return None,
        };
        let day = line.as_bytes().get(..day_end)?;
        // Nine digits always fit a `u32`.
        if day.is_empty() || day.len() > 9 || !day.iter().all(u8::is_ascii_digit) {
            return None;
        }
        let day = day
            .iter()
            .fold(0u32, |value, digit| value * 10 + u32::from(digit - b'0'));
        let untrimmed = |field: &str| {
            let bytes = field.as_bytes();
            matches!((bytes.first(), bytes.last()), (Some(first), Some(last))
                if first.is_ascii_graphic() && last.is_ascii_graphic())
        };
        let client = line.get(day_end + 1..client_end).filter(|f| untrimmed(f))?;
        let qname = line
            .get(client_end + 1..qname_end)
            .filter(|f| untrimmed(f))?;
        Some(RawRecord {
            day: Day(day),
            client,
            qname,
            ips_field: Some(line.get(qname_end + 1..ips_end)?),
            line_no,
        })
    }

    /// This line's "invalid qname" error.
    pub(crate) fn bad_domain(&self, error: ParseDomainError) -> ParseLogError {
        ParseLogError::new(self.line_no, ParseLogErrorKind::BadDomain(error))
    }

    /// Parses the IP list onto the end of `out`; on an error, some of the
    /// list may have been appended.
    pub(crate) fn parse_ips(&self, out: &mut Vec<Ipv4>) -> Result<(), ParseLogError> {
        let field = self.ips_field.ok_or_else(|| {
            ParseLogError::new(self.line_no, ParseLogErrorKind::MissingField("ips"))
        })?;
        let start = out.len();
        if parse_canonical_list(field.as_bytes(), out) {
            return Ok(());
        }
        out.truncate(start);
        for part in SplitByte::new(trim(field), b',') {
            if !part.is_empty() {
                out.push(parse_ip(part, self.line_no)?);
            }
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

/// Parses an IP list in the spelling resolvers write — dotted quads of
/// digit runs, joined by single commas, nothing else — onto `out`, in one
/// pass over its bytes. `false` decides nothing (and may leave part of the
/// list appended): the general route then accepts or rejects the rarer
/// spellings (signs, padding, empty entries).
fn parse_canonical_list(field: &[u8], out: &mut Vec<Ipv4>) -> bool {
    let mut octets = [0u8; 4];
    let mut k = 0;
    let mut value = 0u8;
    let mut digits = false;
    for &b in field {
        match b {
            b'0'..=b'9' => {
                let Some(next) = value.checked_mul(10).and_then(|v| v.checked_add(b - b'0')) else {
                    return false;
                };
                value = next;
                digits = true;
            }
            b'.' | b',' if digits => {
                let Some(octet) = octets.get_mut(k) else {
                    return false;
                };
                *octet = value;
                k += 1;
                value = 0;
                digits = false;
                if b == b',' {
                    if k != 4 {
                        return false;
                    }
                    out.push(Ipv4::from(octets));
                    k = 0;
                } else if k == 4 {
                    return false;
                }
            }
            _ => return false,
        }
    }
    match (k, digits) {
        (0, false) => field.is_empty(),
        (3, true) => {
            octets[3] = value;
            out.push(Ipv4::from(octets));
            true
        }
        _ => false,
    }
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

/// What the line loop found on one line of a block.
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

/// Where the first tabs of a line are — enough to cut its four fields
/// without a second pass over them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tabs {
    at: [usize; 4],
    count: usize,
}

/// One line of a block, as the line loop hands it on.
#[derive(Debug)]
pub(crate) struct BlockLine<'a> {
    /// 0-based index of the line in its block.
    pub(crate) index: u64,
    /// Offset of the line's first byte in its block.
    pub(crate) start: usize,
    /// Bytes of the line, `\n` included when it has one.
    pub(crate) len: usize,
    /// Whether the line ends in `\n`. Only the last line of a stream can
    /// lack one, and the writer may still be in the middle of it.
    pub(crate) terminated: bool,
    pub(crate) line: Line<'a>,
    pub(crate) tabs: Tabs,
}

/// The one line loop: every line of a block of whole lines, classified,
/// with its tabs found in the same pass that finds its end.
///
/// UTF-8 is checked once for the whole block; only a block that fails
/// goes back to checking line by line, so damaged bytes cost the line
/// they are on and nothing else.
pub(crate) struct BlockLines<'a> {
    block: &'a [u8],
    // The whole block, when it is valid UTF-8.
    text: Option<&'a str>,
    at: usize,
    index: u64,
}

impl<'a> BlockLines<'a> {
    pub(crate) fn new(block: &'a [u8]) -> Self {
        BlockLines {
            block,
            text: std::str::from_utf8(block).ok(),
            at: 0,
            index: 0,
        }
    }
}

impl<'a> Iterator for BlockLines<'a> {
    type Item = BlockLine<'a>;

    fn next(&mut self) -> Option<BlockLine<'a>> {
        let start = self.at;
        let rest = self.block.get(start..).filter(|rest| !rest.is_empty())?;
        let (end, tabs) = scan_line(rest);
        let terminated = end < rest.len();
        let len = end + usize::from(terminated);
        // A `\n` is never part of a longer UTF-8 sequence, so the line's
        // ends are character boundaries of a valid block.
        let text = match self.text {
            Some(text) => text.get(start..start + end),
            None => rest
                .get(..end)
                .and_then(|raw| std::str::from_utf8(raw).ok()),
        };
        let line = match text {
            None => Line::BadEncoding,
            Some(text) => classify(text),
        };
        let found = BlockLine {
            index: self.index,
            start,
            len,
            terminated,
            line,
            tabs,
        };
        self.at = start + len;
        self.index += 1;
        Some(found)
    }
}

/// The end of the line at the head of `bytes` (the index of its `\n`, or
/// the length when it has none) and its first tabs, in one pass.
///
/// The pass reads eight bytes at a time and stops only on the bytes that
/// are a tab or a newline — a handful per line.
fn scan_line(bytes: &[u8]) -> (usize, Tabs) {
    let mut tabs = Tabs::default();
    let mut words = bytes.chunks_exact(8);
    let mut base = 0;
    for word in words.by_ref() {
        let word = u64::from_le_bytes(word.try_into().unwrap_or([0; 8]));
        let mut hits = zero_bytes(word ^ NEWLINES) | zero_bytes(word ^ TABS);
        while hits != 0 {
            let i = base + (hits.trailing_zeros() / 8) as usize;
            if bytes.get(i) == Some(&b'\n') {
                return (i, tabs);
            }
            tabs.note(i);
            hits &= hits - 1;
        }
        base += 8;
    }
    for (i, &b) in words.remainder().iter().enumerate() {
        match b {
            b'\n' => return (base + i, tabs),
            b'\t' => tabs.note(base + i),
            _ => {}
        }
    }
    (bytes.len(), tabs)
}

const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
const TABS: u64 = u64::from_ne_bytes([b'\t'; 8]);
const LOW_SEVEN: u64 = u64::from_ne_bytes([0x7f; 8]);

/// The high bit of every byte of `word` that is zero, and no other bit:
/// `(b & 0x7f) + 0x7f` sets a byte's high bit for any nonzero low seven
/// bits and cannot carry into the next byte.
fn zero_bytes(word: u64) -> u64 {
    !(((word & LOW_SEVEN) + LOW_SEVEN) | word | LOW_SEVEN)
}

impl Tabs {
    fn note(&mut self, at: usize) {
        if let Some(slot) = self.at.get_mut(self.count) {
            *slot = at;
            self.count += 1;
        }
    }
}

/// A line's kind, `\n` already stripped.
fn classify(text: &str) -> Line<'_> {
    let payload = if text.ends_with('\r') {
        text.trim_end_matches('\r')
    } else {
        text
    };
    let plain_start = payload
        .as_bytes()
        .first()
        .is_some_and(|&b| b.is_ascii_graphic() && b != b'#');
    if plain_start {
        return Line::Payload(payload);
    }
    let content = payload.trim_start();
    if content.is_empty() || content.starts_with('#') {
        Line::Skipped
    } else {
        Line::Payload(payload)
    }
}

/// Cuts a stream into blocks of whole lines, each about a target size,
/// for the line loop to walk.
///
/// A block ends at the last `\n` in the bytes read; what follows it opens
/// the next block. A line longer than the target makes its block longer,
/// never cut. The last block of a stream may end in a line without `\n`.
/// A read error ends the stream after the whole lines read before it; the
/// line it struck is dropped and [`take_error`](Self::take_error) returns
/// the error.
pub(crate) struct BlockCutter<R> {
    reader: R,
    // The head of a line the previous block could not hold.
    carry: Vec<u8>,
    eof: bool,
    error: Option<std::io::Error>,
}

// Read at least this much per call when a line outgrows its block.
const MIN_READ_BYTES: usize = 64 * 1024;

impl<R: Read> BlockCutter<R> {
    pub(crate) fn new(reader: R) -> Self {
        BlockCutter {
            reader,
            carry: Vec::new(),
            eof: false,
            error: None,
        }
    }

    /// Fills one block of `blocks` after another, in stream order, and
    /// says how many it filled — fewer than all only at the end of the
    /// stream.
    pub(crate) fn fill(&mut self, blocks: &mut [Vec<u8>], target: usize) -> usize {
        let mut filled = 0;
        for block in blocks.iter_mut() {
            if !self.next_block(block, target) {
                break;
            }
            filled += 1;
        }
        filled
    }

    /// Replaces `block` with the next block; `false` when the stream has
    /// nothing left.
    fn next_block(&mut self, block: &mut Vec<u8>, target: usize) -> bool {
        block.clear();
        block.append(&mut self.carry);
        let target = target.max(1);
        // Where the search for a `\n` resumes: the carry holds none.
        let mut searched = block.len();
        loop {
            if block.len() >= target || self.eof || self.error.is_some() {
                let cut = block
                    .get(searched..)
                    .and_then(|fresh| fresh.iter().rposition(|&b| b == b'\n'))
                    .map(|at| searched + at + 1);
                match cut {
                    Some(cut) => {
                        if let Some(tail) = block.get(cut..) {
                            self.carry.extend_from_slice(tail);
                        }
                        block.truncate(cut);
                        return true;
                    }
                    // The stream's last line, without `\n`.
                    None if self.eof => return !block.is_empty(),
                    // The line a read error struck.
                    None if self.error.is_some() => {
                        block.clear();
                        return false;
                    }
                    // One line longer than the target: read on.
                    None => searched = block.len(),
                }
            }
            let filled = block.len();
            let room = target.saturating_sub(filled).max(MIN_READ_BYTES);
            block.resize(filled + room, 0);
            let read = block
                .get_mut(filled..)
                .map_or(Ok(0), |space| self.reader.read(space));
            match read {
                Ok(0) => {
                    block.truncate(filled);
                    self.eof = true;
                }
                Ok(n) => block.truncate(filled + n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => block.truncate(filled),
                Err(e) => {
                    block.truncate(filled);
                    self.error = Some(e);
                }
            }
        }
    }

    /// The read error that ended the stream, if one did.
    pub(crate) fn take_error(&mut self) -> Option<std::io::Error> {
        self.error.take()
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
    fn line_scan_finds_what_a_byte_loop_finds() {
        let texts = [
            "",
            "\n",
            "a",
            "0\thost\twww.example.com\t1.2.3.4\n",
            "0\thost\twww.example.com\t1.2.3.4\tx\ty\n\t\n",
            "\t\t\t\t\t\t\t\t\t\t",
            "0123456\t89abcdef\n",
            "caf\u{e9}\tx\r\n",
            "\u{2003}\u{2003}\t\u{0}\u{b}\u{8}\u{89}\n",
        ];
        for text in texts {
            for from in 0..text.len() {
                let bytes = &text.as_bytes()[from..];
                let end = bytes
                    .iter()
                    .position(|&b| b == b'\n')
                    .unwrap_or(bytes.len());
                let tabs: Vec<usize> = bytes[..end]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &b)| b == b'\t')
                    .map(|(i, _)| i)
                    .take(4)
                    .collect();
                let (got_end, got) = scan_line(bytes);
                assert_eq!(got_end, end, "{text:?} from {from}");
                assert_eq!(&got.at[..got.count], &tabs[..], "{text:?} from {from}");
            }
        }
    }

    #[test]
    fn tab_split_agrees_with_the_general_split() {
        for line in [
            "3\thost-1\twww.example.com\t1.2.3.4",
            "3\thost-1\twww.example.com\t1.2.3.4\textra",
            "3\thost-1\twww.example.com\t",
            "3\thost-1\twww.example.com",
            "+3\thost-1\tx.com\t",
            "0003\thost-1\tx.com\t",
            "4294967295\th\tx.com\t",
            "4294967296\th\tx.com\t",
            " 3\t host \t x.com \t 1.2.3.4 ",
            "3\t\tx.com\t",
            "3\th\t\t",
            "\t\t\t",
            "3\tcaf\u{e9}\tx.com\t",
            "3\th\u{2003}\tx.com\t",
        ] {
            let (_, tabs) = scan_line(line.as_bytes());
            let fast = RawRecord::split_at_tabs(line, &tabs, 7);
            let general = RawRecord::split(line, 7);
            match (fast, general) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        (a.day, a.client, a.qname, a.ips_field),
                        (b.day, b.client, b.qname, b.ips_field),
                        "{line:?}"
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{line:?}"),
                (a, b) => panic!("{line:?}: {a:?} against {b:?}"),
            }
        }
    }

    #[test]
    fn blocks_are_whole_lines_whatever_the_target() {
        let text = "a\nbb\n\nccc\r\nlonger line here\nlast";
        for target in 1..text.len() + 2 {
            let mut cutter = BlockCutter::new(text.as_bytes());
            let mut blocks = vec![Vec::new(); 3];
            let mut joined = Vec::new();
            loop {
                let filled = cutter.fill(&mut blocks, target);
                for block in &blocks[..filled] {
                    assert!(!block.is_empty());
                    let whole = block.last() == Some(&b'\n');
                    // Only the stream's end may be an unterminated line.
                    assert!(whole || joined.len() + block.len() == text.len());
                    joined.extend_from_slice(block);
                }
                if filled < blocks.len() {
                    break;
                }
            }
            assert_eq!(joined, text.as_bytes(), "target {target}");
            assert!(cutter.take_error().is_none());
        }
    }

    /// A reader that fails after handing out its bytes.
    struct FailsAfter<'a>(&'a [u8]);

    impl Read for FailsAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::Error::other("disk gone"));
            }
            let n = buf.len().min(self.0.len()).min(3);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_read_error_drops_the_line_it_struck() {
        let mut cutter = BlockCutter::new(FailsAfter(b"one\ntwo\nthr"));
        let mut blocks = vec![Vec::new(); 4];
        let filled = cutter.fill(&mut blocks, 5);
        let read: Vec<u8> = blocks[..filled].concat();
        assert_eq!(read, b"one\ntwo\n");
        assert!(cutter.take_error().is_some());
    }

    #[test]
    fn canonical_list_parser_agrees_with_the_general_one() {
        let quads = [
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
        ];
        let mut lists: Vec<String> = quads.iter().map(|q| q.to_string()).collect();
        for a in quads {
            for b in ["1.2.3.4", "", "9.9.9.999", "5.6.7.8,"] {
                lists.push(format!("{a},{b}"));
            }
        }
        for text in &lists {
            let general: Result<Vec<Ipv4>, _> = text
                .split(',')
                .filter(|p| !p.is_empty())
                .map(|p| parse_ip(p, 1))
                .collect();
            let mut fast = vec![Ipv4::from_octets(9, 9, 9, 9)];
            if parse_canonical_list(text.as_bytes(), &mut fast) {
                assert_eq!(Ok(fast[1..].to_vec()), general, "{text:?}");
            }
            let record = LogRecord::parse(&format!("0\tc\texample.com\t{text}"), 1);
            match general {
                Ok(ips) => assert_eq!(record.unwrap().ips, ips, "{text:?}"),
                Err(_) => assert!(record.is_err(), "{text:?}"),
            }
        }
        // The plain spellings must take the fast route.
        let mut out = Vec::new();
        assert!(parse_canonical_list(b"93.184.216.34,10.0.0.1", &mut out));
        assert_eq!(out.len(), 2);
        assert!(parse_canonical_list(b"", &mut out));
    }

    #[test]
    fn error_display_mentions_line() {
        let err = LogRecord::parse("bad", 42).unwrap_err();
        assert!(err.to_string().contains("line 42"));
    }
}
