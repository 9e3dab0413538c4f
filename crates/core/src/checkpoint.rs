//! Durable checkpoint/restore for [`Tracker`]: crash-safe cross-day state.
//!
//! A production Segugio deployment is a months-long process whose value is
//! cumulative — flagged domains wait days for blacklist confirmation, and
//! the stale-model fallback needs the last trained model. This module
//! makes that state survive process death:
//!
//! - a **versioned, checksummed text codec** ([`Tracker::save_to_string`] /
//!   [`Tracker::load_from_str`]) in the same hand-rolled line-oriented
//!   style as [`SegugioModel::save_to_string`](crate::SegugioModel): a
//!   header `segugio-checkpoint v1 <payload-bytes> <crc32-hex>` whose
//!   length field catches truncation and torn tails and whose CRC-32
//!   catches bit rot, followed by the tracker payload `tracker v2` —
//!   flag/confirmation maps, day counters, and the retained model with
//!   its calibrated threshold embedded verbatim. Nothing derived is
//!   saved: each day's snapshot, abuse index included, is built from that
//!   day's inputs and the pDNS store, so a resumed tracker needs no more;
//! - an **opaque front-end section** behind the tracker's text, inside
//!   the same payload and so under the same length and checksum: whatever
//!   the program feeding the tracker [attached](Tracker::attach_front_end)
//!   — for the log reader, the names behind the domain ids every map
//!   above is keyed by, and how far the log was read — framed as
//!   `front-end <bytes>\n` and the bytes. Ids and the state they key thus
//!   live and die in one generation: a fallback to an older generation
//!   takes the older ids with it. This crate never looks inside (it must
//!   not depend on the front end), a tracker with nothing attached writes
//!   the tracker's text alone, and a section its owner can no longer
//!   decode costs the owner a re-read, never the tracker state beside it;
//! - **atomic generation files** ([`Tracker::save_checkpoint`]): each save
//!   writes `checkpoint-<day>.seg` through the shared temp-file + fsync +
//!   rename helper [`write_atomic`] (a crash at any byte leaves either the
//!   old generation or a dead `.tmp`, never a half-written live file) and
//!   prunes to the last *K* generations;
//! - **generation-fallback resume** ([`Tracker::resume`]): generations are
//!   tried newest-first; each corrupt one is skipped with a typed
//!   [`Degradation::CheckpointDiscarded`] record, an older successful load
//!   adds [`Degradation::RestoredFromCheckpoint`], and when nothing is
//!   loadable the tracker starts from scratch carrying only the discard
//!   records. The records surface at the front of the next
//!   [`DayReport`](crate::DayReport)'s degradation list.
//!
//! A resume from an intact newest generation is **bit-for-bit** equivalent
//! to never having stopped: the chaos suite in `segugio-eval` kills a
//! deployment at every injected crash point and asserts the resumed
//! `DayReport` stream equals the uninterrupted one.

use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use segugio_model::Day;

use crate::model::SegugioModel;
use crate::tracker::{Degradation, RetainedModel, Tracker};

/// How many checkpoint generations [`Tracker::save_checkpoint`] keeps by
/// default.
pub const DEFAULT_KEEP_GENERATIONS: usize = 3;

/// A typed checkpoint failure: parse errors, checksum mismatches, and the
/// IO failures of saving/resuming. Carries an optional causal chain, like
/// [`segugio_ml::ParseModelError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    message: String,
    source: Option<Box<CheckpointError>>,
}

impl CheckpointError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        CheckpointError {
            message: message.into(),
            source: None,
        }
    }

    pub(crate) fn context(self, message: impl Into<String>) -> Self {
        CheckpointError {
            message: message.into(),
            source: Some(Box::new(self)),
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)?;
        if let Some(source) = &self.source {
            write!(f, ": {source}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source.as_deref().map(|e| e as _)
    }
}

impl From<String> for CheckpointError {
    fn from(message: String) -> Self {
        CheckpointError::new(message)
    }
}

impl From<&str> for CheckpointError {
    fn from(message: &str) -> Self {
        CheckpointError::new(message)
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven. Hand-rolled so
/// the checkpoint layer stays dependency-free like the rest of the codec.
///
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
/// advances a byte that has `k` more bytes behind it, so eight bytes fold
/// into the state with eight independent lookups (slicing-by-8). Every
/// save and every resume checksums a whole generation — megabytes — and
/// the byte loop was a third of a save.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let before = tables[k - 1][i];
            tables[k][i] = tables[0][(before & 0xFF) as usize] ^ (before >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The CRC-32 checksum embedded in (and verified against) the checkpoint
/// header.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_of(&[bytes])
}

/// [`crc32`] of the concatenation of `parts`, without concatenating them.
fn crc32_of(parts: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        let mut eights = part.chunks_exact(8);
        for eight in &mut eights {
            let lo = c ^ u32::from_le_bytes([eight[0], eight[1], eight[2], eight[3]]);
            let hi = u32::from_le_bytes([eight[4], eight[5], eight[6], eight[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in eights.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    c ^ 0xFFFF_FFFF
}

/// A checkpoint document, in the order its pieces are written: the header
/// line, then the payload it describes — the tracker's text and, when a
/// front-end section is attached, its frame line and the section.
struct Document<'a> {
    header: String,
    payload: String,
    frame: String,
    section: &'a str,
}

impl Document<'_> {
    fn parts(&self) -> [&str; 4] {
        [&self.header, &self.payload, &self.frame, self.section]
    }
}

/// The last line of the tracker's own part of the payload; what follows
/// it, if anything, is the front-end section.
const END_TRACKER: &[u8] = b"\nend-tracker\n";

/// Splits a payload into the tracker's text and the front-end section
/// behind it: `front-end <bytes>\n` and exactly that many bytes. A payload
/// without that frame comes back whole, for the tracker parser to accept
/// or refuse as it always has.
fn split_front_end(payload: &[u8]) -> Result<(&[u8], Option<&str>), CheckpointError> {
    let Some(end) = payload
        .windows(END_TRACKER.len())
        .position(|w| w == END_TRACKER)
        .map(|at| at + END_TRACKER.len())
    else {
        return Ok((payload, None));
    };
    let (tracker, rest) = payload.split_at(end);
    let Some(frame) = rest.strip_prefix(b"front-end ") else {
        return Ok((payload, None));
    };
    let newline = frame
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| CheckpointError::new("unterminated front-end line"))?;
    let declared: usize = std::str::from_utf8(&frame[..newline])
        .ok()
        .and_then(|token| token.parse().ok())
        .ok_or_else(|| CheckpointError::new("bad front-end section length"))?;
    let section = &frame[newline + 1..];
    if section.len() != declared {
        return Err(CheckpointError::new(format!(
            "front-end section length mismatch: declared {declared} bytes, found {}",
            section.len()
        )));
    }
    let section = std::str::from_utf8(section)
        .map_err(|e| CheckpointError::new(format!("front-end section is not UTF-8: {e}")))?;
    Ok((tracker, Some(section)))
}

/// What an atomic write attempt did — [`write_atomic_with_kill`] reports
/// whether the injected crash fired before the rename committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The bytes were fully written, fsynced, and renamed into place.
    Committed,
    /// The injected kill fired mid-write: a partial `.tmp` file was left
    /// behind and the destination path was never touched.
    KilledMidWrite,
}

/// Atomically replaces `path` with `bytes`: write to a sibling `.tmp`
/// file, fsync it, rename over the destination, then fsync the directory.
/// A crash at any point leaves either the previous file intact or a dead
/// `.tmp`; readers never observe a torn live file.
///
/// This is the **only sanctioned write path** for durable state — the
/// workspace `clippy.toml` disallows `fs::write`, `File::create` and
/// `OpenOptions::new` everywhere else.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    write_atomic_impl(path, &[bytes], None).map(|_| ())
}

/// [`write_atomic`] with a deterministic crash injected after
/// `kill_after_bytes` bytes of the temp file have been written (clamped to
/// the payload length, so a large value models a crash after the write but
/// *before* the rename). Returns [`WriteOutcome::KilledMidWrite`] without
/// touching the destination — exactly the on-disk state a real mid-write
/// `SIGKILL` leaves. The chaos suite drives this with seeded offsets from
/// `FaultInjector`.
pub fn write_atomic_with_kill(
    path: &Path,
    bytes: &[u8],
    kill_after_bytes: u64,
) -> Result<WriteOutcome, CheckpointError> {
    write_atomic_impl(path, &[bytes], Some(kill_after_bytes))
}

/// The file's content is the concatenation of `parts`, written one after
/// the other: a checkpoint's pieces go out from where they lie.
#[expect(
    clippy::disallowed_methods,
    reason = "the sanctioned atomic writer: creates only the .tmp sibling it renames"
)]
fn write_atomic_impl(
    path: &Path,
    parts: &[&[u8]],
    kill_after: Option<u64>,
) -> Result<WriteOutcome, CheckpointError> {
    let display = path.display();
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    let mut file = File::create(&tmp)
        .map_err(|e| CheckpointError::new(format!("creating {}: {e}", tmp.display())))?;
    let mut left = kill_after.map(|kill| usize::try_from(kill).unwrap_or(usize::MAX));
    for part in parts {
        let part = &part[..left.map_or(part.len(), |left| left.min(part.len()))];
        file.write_all(part)
            .map_err(|e| CheckpointError::new(format!("writing {}: {e}", tmp.display())))?;
        left = left.map(|left| left - part.len());
    }
    if kill_after.is_some() {
        let _ = file.sync_all();
        return Ok(WriteOutcome::KilledMidWrite);
    }
    file.sync_all()
        .map_err(|e| CheckpointError::new(format!("fsyncing {}: {e}", tmp.display())))?;
    drop(file);
    fs::rename(&tmp, path)
        .map_err(|e| CheckpointError::new(format!("renaming into {display}: {e}")))?;
    // Make the rename itself durable. Directory fsync is best-effort: some
    // filesystems refuse it, and the rename is already atomic either way.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(WriteOutcome::Committed)
}

/// Lists checkpoint generations in `dir`, newest day first.
fn list_generations(dir: &Path) -> Result<Vec<(Day, PathBuf)>, CheckpointError> {
    let entries = fs::read_dir(dir)
        .map_err(|e| CheckpointError::new(format!("reading {}: {e}", dir.display())))?;
    let mut generations = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| CheckpointError::new(format!("reading {}: {e}", dir.display())))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(day) = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".seg"))
            .and_then(|day| day.parse::<u32>().ok())
        else {
            continue;
        };
        generations.push((Day(day), entry.path()));
    }
    generations.sort_by_key(|&(day, _)| std::cmp::Reverse(day));
    Ok(generations)
}

fn next_line<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<&'a str, CheckpointError> {
    lines.next().ok_or_else(|| {
        CheckpointError::new(format!("unexpected end of checkpoint: missing {what}"))
    })
}

fn field<T: FromStr>(
    parts: &mut std::str::SplitAsciiWhitespace<'_>,
    what: &str,
) -> Result<T, CheckpointError>
where
    T::Err: fmt::Display,
{
    let token = parts
        .next()
        .ok_or_else(|| CheckpointError::new(format!("missing {what}")))?;
    token
        .parse()
        .map_err(|e| CheckpointError::new(format!("bad {what} {token:?}: {e}")))
}

fn f32_bits(
    parts: &mut std::str::SplitAsciiWhitespace<'_>,
    what: &str,
) -> Result<f32, CheckpointError> {
    let token = parts
        .next()
        .ok_or_else(|| CheckpointError::new(format!("missing {what}")))?;
    let bits = u32::from_str_radix(token, 16)
        .map_err(|e| CheckpointError::new(format!("bad {what} {token:?}: {e}")))?;
    Ok(f32::from_bits(bits))
}

fn end_of_line(
    parts: &mut std::str::SplitAsciiWhitespace<'_>,
    what: &str,
) -> Result<(), CheckpointError> {
    match parts.next() {
        None => Ok(()),
        Some(extra) => Err(CheckpointError::new(format!(
            "trailing token {extra:?} on {what} line"
        ))),
    }
}

impl Tracker {
    /// Serializes the complete tracker state as a self-validating text
    /// document: `segugio-checkpoint v1 <payload-bytes> <crc32-hex>`
    /// followed by the payload. [`load_from_str`](Self::load_from_str) of
    /// the result reproduces this exact string — save→load→save is a
    /// byte-identical fixed point.
    ///
    /// An [attached](Self::attach_front_end) front-end section follows the
    /// tracker's text inside the same payload, under the same length and
    /// checksum, framed as `front-end <bytes>\n` and the bytes; with
    /// nothing attached the document is the tracker's text alone.
    pub fn save_to_string(&self) -> String {
        self.document().parts().concat()
    }

    /// The checkpoint document in pieces. The section is megabytes and
    /// the same for every save of a run: it is checksummed where it lies,
    /// and [`save_checkpoint`](Self::save_checkpoint) writes it from
    /// there.
    fn document(&self) -> Document<'_> {
        let mut payload = String::new();
        self.write_payload(&mut payload);
        let section = self.front_end.as_deref().unwrap_or_default();
        let frame = match &self.front_end {
            Some(section) => format!("front-end {}\n", section.len()),
            None => String::new(),
        };
        let len = payload.len() + frame.len() + section.len();
        let crc = crc32_of(&[payload.as_bytes(), frame.as_bytes(), section.as_bytes()]);
        Document {
            header: format!("segugio-checkpoint v1 {len} {crc:08x}\n"),
            payload,
            frame,
            section,
        }
    }

    fn write_payload(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push_str("tracker v2\n");
        let _ = write!(out, "flagged {}", self.flagged.len());
        for (&domain, &day) in &self.flagged {
            let _ = write!(out, " {} {}", domain.0, day.0);
        }
        out.push('\n');
        let _ = write!(out, "confirmed {}", self.confirmed.len());
        for (&domain, &(flagged_on, confirmed_on)) in &self.confirmed {
            let _ = write!(out, " {} {} {}", domain.0, flagged_on.0, confirmed_on.0);
        }
        out.push('\n');
        let _ = writeln!(out, "days-processed {}", self.days_processed);
        match self.last_day {
            Some(day) => {
                let _ = writeln!(out, "last-day 1 {}", day.0);
            }
            None => out.push_str("last-day 0\n"),
        }
        let _ = write!(out, "pending {}", self.pending_degradation.len());
        for record in &self.pending_degradation {
            match record {
                Degradation::StaleModel { trained_on } => {
                    let _ = write!(out, " S {}", trained_on.0);
                }
                Degradation::MaskedIpFeatures => out.push_str(" F"),
                Degradation::RestoredFromCheckpoint { day } => {
                    let _ = write!(out, " R {}", day.0);
                }
                Degradation::CheckpointDiscarded { day } => {
                    let _ = write!(out, " D {}", day.0);
                }
                Degradation::LogReread { ids_restored } => {
                    let _ = write!(out, " L {}", u8::from(*ids_restored));
                }
            }
        }
        out.push('\n');
        match &self.last_model {
            Some(retained) => {
                let text = retained.model.save_to_string();
                let _ = writeln!(
                    out,
                    "model 1 {:08x} {} {}",
                    retained.threshold.to_bits(),
                    retained.trained_on.0,
                    text.lines().count()
                );
                out.push_str(&text);
                if !text.ends_with('\n') {
                    out.push('\n');
                }
            }
            None => out.push_str("model 0\n"),
        }
        out.push_str("end-tracker\n");
    }

    /// Parses a checkpoint document produced by
    /// [`save_to_string`](Self::save_to_string), verifying the header's
    /// payload length (catches truncation and torn tails) and CRC-32
    /// (catches bit flips) before touching the payload. Never panics on
    /// hostile input — every malformation is a typed [`CheckpointError`].
    pub fn load_from_str(text: &str) -> Result<Tracker, CheckpointError> {
        Self::load_from_bytes(text.as_bytes())
    }

    /// [`load_from_str`](Self::load_from_str) over raw file bytes: the
    /// header is validated before the payload is required to be UTF-8, so
    /// a bit-flipped or torn file fails the checksum, not a decode step.
    pub fn load_from_bytes(bytes: &[u8]) -> Result<Tracker, CheckpointError> {
        let newline = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| CheckpointError::new("missing checkpoint header line"))?;
        let header = std::str::from_utf8(&bytes[..newline])
            .map_err(|e| CheckpointError::new(format!("checkpoint header is not UTF-8: {e}")))?;
        let mut parts = header.split_ascii_whitespace();
        match (parts.next(), parts.next()) {
            (Some("segugio-checkpoint"), Some("v1")) => {}
            _ => {
                return Err(CheckpointError::new(format!(
                    "bad checkpoint header: {header:?}"
                )))
            }
        }
        let declared_len: usize = field(&mut parts, "payload length")?;
        let declared_crc_token = parts
            .next()
            .ok_or_else(|| CheckpointError::new("missing checksum"))?;
        let declared_crc = u32::from_str_radix(declared_crc_token, 16).map_err(|e| {
            CheckpointError::new(format!("bad checksum {declared_crc_token:?}: {e}"))
        })?;
        end_of_line(&mut parts, "header")?;
        let payload = &bytes[newline + 1..];
        if payload.len() != declared_len {
            return Err(CheckpointError::new(format!(
                "payload length mismatch: header declares {declared_len} bytes, found {} (torn or truncated write)",
                payload.len()
            )));
        }
        let actual_crc = crc32(payload);
        if actual_crc != declared_crc {
            return Err(CheckpointError::new(format!(
                "checksum mismatch: header declares {declared_crc:08x}, payload hashes to {actual_crc:08x}"
            )));
        }
        let (payload, front_end) =
            split_front_end(payload).map_err(|e| e.context("parsing checkpoint payload"))?;
        let payload = std::str::from_utf8(payload)
            .map_err(|e| CheckpointError::new(format!("checkpoint payload is not UTF-8: {e}")))?;
        let mut tracker =
            Self::parse_payload(payload).map_err(|e| e.context("parsing checkpoint payload"))?;
        tracker.front_end = front_end.map(str::to_owned);
        Ok(tracker)
    }

    fn parse_payload(payload: &str) -> Result<Tracker, CheckpointError> {
        use segugio_model::DomainId;
        let mut lines = payload.lines();
        let header = next_line(&mut lines, "tracker header")?;
        // `tracker v1` carried an engine block before `end-tracker`: refused
        // here, not mis-parsed, and the caller discards the generation.
        if header != "tracker v2" {
            return Err(CheckpointError::new(format!(
                "bad tracker header: {header:?}"
            )));
        }

        let line = next_line(&mut lines, "flagged line")?;
        let mut parts = line.split_ascii_whitespace();
        if parts.next() != Some("flagged") {
            return Err(CheckpointError::new(format!("bad flagged line: {line:?}")));
        }
        let count: usize = field(&mut parts, "flagged count")?;
        let mut flagged = std::collections::BTreeMap::new();
        for _ in 0..count {
            let domain: u32 = field(&mut parts, "flagged domain id")?;
            let day: u32 = field(&mut parts, "flagged day")?;
            if flagged.insert(DomainId(domain), Day(day)).is_some() {
                return Err(CheckpointError::new(format!(
                    "duplicate flagged domain {domain}"
                )));
            }
        }
        end_of_line(&mut parts, "flagged")?;

        let line = next_line(&mut lines, "confirmed line")?;
        let mut parts = line.split_ascii_whitespace();
        if parts.next() != Some("confirmed") {
            return Err(CheckpointError::new(format!(
                "bad confirmed line: {line:?}"
            )));
        }
        let count: usize = field(&mut parts, "confirmed count")?;
        let mut confirmed = std::collections::BTreeMap::new();
        for _ in 0..count {
            let domain: u32 = field(&mut parts, "confirmed domain id")?;
            let flagged_on: u32 = field(&mut parts, "confirmed flag day")?;
            let confirmed_on: u32 = field(&mut parts, "confirmed confirm day")?;
            if confirmed
                .insert(DomainId(domain), (Day(flagged_on), Day(confirmed_on)))
                .is_some()
            {
                return Err(CheckpointError::new(format!(
                    "duplicate confirmed domain {domain}"
                )));
            }
        }
        end_of_line(&mut parts, "confirmed")?;

        let line = next_line(&mut lines, "days-processed line")?;
        let mut parts = line.split_ascii_whitespace();
        if parts.next() != Some("days-processed") {
            return Err(CheckpointError::new(format!(
                "bad days-processed line: {line:?}"
            )));
        }
        let days_processed: usize = field(&mut parts, "days-processed count")?;
        end_of_line(&mut parts, "days-processed")?;

        let line = next_line(&mut lines, "last-day line")?;
        let mut parts = line.split_ascii_whitespace();
        if parts.next() != Some("last-day") {
            return Err(CheckpointError::new(format!("bad last-day line: {line:?}")));
        }
        let last_day = match parts.next() {
            Some("0") => None,
            Some("1") => Some(Day(field(&mut parts, "last day")?)),
            other => {
                return Err(CheckpointError::new(format!(
                    "bad last-day marker: {other:?}"
                )))
            }
        };
        end_of_line(&mut parts, "last-day")?;

        let line = next_line(&mut lines, "pending line")?;
        let mut parts = line.split_ascii_whitespace();
        if parts.next() != Some("pending") {
            return Err(CheckpointError::new(format!("bad pending line: {line:?}")));
        }
        let count: usize = field(&mut parts, "pending count")?;
        let mut pending_degradation = Vec::new();
        for _ in 0..count {
            let record = match parts.next() {
                Some("S") => Degradation::StaleModel {
                    trained_on: Day(field(&mut parts, "stale-model day")?),
                },
                Some("F") => Degradation::MaskedIpFeatures,
                Some("R") => Degradation::RestoredFromCheckpoint {
                    day: Day(field(&mut parts, "restored-from day")?),
                },
                Some("D") => Degradation::CheckpointDiscarded {
                    day: Day(field(&mut parts, "discarded day")?),
                },
                Some("L") => Degradation::LogReread {
                    ids_restored: match parts.next() {
                        Some("0") => false,
                        Some("1") => true,
                        other => {
                            return Err(CheckpointError::new(format!(
                                "bad log-reread marker: {other:?}"
                            )))
                        }
                    },
                },
                other => {
                    return Err(CheckpointError::new(format!(
                        "bad pending record tag: {other:?}"
                    )))
                }
            };
            pending_degradation.push(record);
        }
        end_of_line(&mut parts, "pending")?;

        let line = next_line(&mut lines, "model line")?;
        let mut parts = line.split_ascii_whitespace();
        if parts.next() != Some("model") {
            return Err(CheckpointError::new(format!("bad model line: {line:?}")));
        }
        let last_model = match parts.next() {
            Some("0") => {
                end_of_line(&mut parts, "model")?;
                None
            }
            Some("1") => {
                let threshold = f32_bits(&mut parts, "model threshold")?;
                let trained_on = Day(field(&mut parts, "model training day")?);
                let line_count: usize = field(&mut parts, "model line count")?;
                end_of_line(&mut parts, "model")?;
                let mut text = String::new();
                for _ in 0..line_count {
                    text.push_str(next_line(&mut lines, "embedded model line")?);
                    text.push('\n');
                }
                let model = SegugioModel::load_from_str(&text)
                    .map_err(|e| CheckpointError::new(format!("embedded model: {e}")))?;
                Some(RetainedModel {
                    model,
                    threshold,
                    trained_on,
                })
            }
            other => return Err(CheckpointError::new(format!("bad model marker: {other:?}"))),
        };

        match lines.next() {
            Some("end-tracker") => {}
            other => {
                return Err(CheckpointError::new(format!(
                    "missing end-tracker, got {other:?}"
                )))
            }
        }
        if let Some(extra) = lines.next() {
            return Err(CheckpointError::new(format!(
                "trailing content after end-tracker: {extra:?}"
            )));
        }

        Ok(Tracker {
            flagged,
            confirmed,
            days_processed,
            last_model,
            last_day,
            pending_degradation,
            score_buf: Default::default(),
            front_end: None,
        })
    }

    /// Writes the current state as generation file `checkpoint-<day>.seg`
    /// in `dir` (created if absent) through the atomic temp+fsync+rename
    /// path, then prunes to the newest `keep` generations. Returns the
    /// path written.
    ///
    /// # Errors
    ///
    /// Fails if no day has been processed yet (there is nothing to name
    /// the generation after) or on IO failure; the previous generations
    /// are untouched in either case.
    pub fn save_checkpoint(&self, dir: &Path, keep: usize) -> Result<PathBuf, CheckpointError> {
        let day = self.last_day.ok_or_else(|| {
            CheckpointError::new("no processed day to checkpoint: the tracker is empty")
        })?;
        fs::create_dir_all(dir)
            .map_err(|e| CheckpointError::new(format!("creating {}: {e}", dir.display())))?;
        let path = dir.join(format!("checkpoint-{}.seg", day.0));
        write_atomic_impl(&path, &self.document().parts().map(str::as_bytes), None)
            .map_err(|e| e.context(format!("saving checkpoint for day {}", day.0)))?;
        for (_, old) in list_generations(dir)?.into_iter().skip(keep.max(1)) {
            fs::remove_file(&old)
                .map_err(|e| CheckpointError::new(format!("pruning {}: {e}", old.display())))?;
        }
        Ok(path)
    }

    /// [`save_checkpoint`](Self::save_checkpoint) with a deterministic
    /// crash injected after `kill_after_bytes` of the temp file: the
    /// destination generation is never touched and no pruning runs,
    /// exactly as if the process had died mid-write. For the chaos suite.
    pub fn save_checkpoint_killed(
        &self,
        dir: &Path,
        kill_after_bytes: u64,
    ) -> Result<WriteOutcome, CheckpointError> {
        let day = self.last_day.ok_or_else(|| {
            CheckpointError::new("no processed day to checkpoint: the tracker is empty")
        })?;
        fs::create_dir_all(dir)
            .map_err(|e| CheckpointError::new(format!("creating {}: {e}", dir.display())))?;
        let path = dir.join(format!("checkpoint-{}.seg", day.0));
        write_atomic_impl(
            &path,
            &self.document().parts().map(str::as_bytes),
            Some(kill_after_bytes),
        )
    }

    /// Restores a tracker from the newest loadable generation in `dir`.
    ///
    /// Generations are tried newest-first. A generation that fails to
    /// read, checksum, or parse is skipped with a
    /// [`Degradation::CheckpointDiscarded`] record; a successful load of
    /// anything *other than* the newest generation additionally records
    /// [`Degradation::RestoredFromCheckpoint`]. If no generation is
    /// loadable (or the directory doesn't exist yet) a fresh tracker is
    /// returned, carrying only the discard records. All records surface at
    /// the front of the next successful [`DayReport`](crate::DayReport)'s
    /// degradation list.
    ///
    /// Restoring from an intact newest generation emits **no** records:
    /// the resumed tracker's reports are bit-for-bit those of the one that
    /// was saved.
    ///
    /// # Errors
    ///
    /// Only unrecoverable environment failures error — the directory
    /// exists but cannot be listed. Corrupt checkpoint *contents* never
    /// error; they degrade.
    pub fn resume(dir: &Path) -> Result<Tracker, CheckpointError> {
        if !dir.exists() {
            return Ok(Tracker::new());
        }
        let generations =
            list_generations(dir).map_err(|e| e.context("resuming from checkpoint directory"))?;
        let mut discarded: Vec<Degradation> = Vec::new();
        for (i, (day, path)) in generations.iter().enumerate() {
            let loaded = fs::read(path)
                .map_err(|e| CheckpointError::new(format!("reading {}: {e}", path.display())))
                .and_then(|bytes| Tracker::load_from_bytes(&bytes));
            match loaded {
                Ok(mut tracker) => {
                    if i > 0 {
                        tracker.pending_degradation.extend(discarded);
                        tracker
                            .pending_degradation
                            .push(Degradation::RestoredFromCheckpoint { day: *day });
                    }
                    return Ok(tracker);
                }
                Err(_) => discarded.push(Degradation::CheckpointDiscarded { day: *day }),
            }
        }
        let mut fresh = Tracker::new();
        fresh.pending_degradation = discarded;
        Ok(fresh)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests plant torn and hostile files on purpose"
)]
#[expect(
    clippy::disallowed_types,
    reason = "a temp-dir name counter; no result depends on which test draws which number"
)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotInput;
    use crate::tracker::TrackerConfig;
    use segugio_traffic::{IspConfig, IspNetwork};
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A unique scratch directory per test, cleaned up on drop.
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU32 = AtomicU32::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("segugio-ckpt-{}-{tag}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            ScratchDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn run_days(isp: &mut IspNetwork, tracker: &mut Tracker, config: &TrackerConfig, n: usize) {
        for _ in 0..n {
            let traffic = isp.next_day();
            let input = SnapshotInput {
                day: traffic.day,
                queries: &traffic.queries,
                resolutions: &traffic.resolutions,
                table: isp.table(),
                pdns: isp.pdns(),
                blacklist: isp.commercial_blacklist(),
                whitelist: isp.whitelist(),
                hidden: None,
            };
            tracker
                .process_day(&input, isp.activity(), config)
                .expect("warmed-up fixture seeds both classes");
        }
    }

    #[test]
    fn empty_tracker_round_trips_as_fixed_point() {
        let tracker = Tracker::new();
        let text = tracker.save_to_string();
        let loaded = Tracker::load_from_str(&text).expect("valid checkpoint");
        assert_eq!(loaded.save_to_string(), text, "save→load→save fixed point");
        assert_eq!(loaded.days_processed(), 0);
        assert_eq!(loaded.last_day(), None);
    }

    #[test]
    #[cfg_attr(miri, ignore = "multi-day ISP simulation is too slow under Miri")]
    fn warm_tracker_round_trips_and_continues_identically() {
        let mut isp_a = IspNetwork::new(IspConfig::tiny(55));
        let mut isp_b = IspNetwork::new(IspConfig::tiny(55));
        isp_a.warm_up(16);
        isp_b.warm_up(16);
        let config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };
        let mut original = Tracker::new();
        run_days(&mut isp_a, &mut original, &config, 3);

        // Round trip is a byte fixed point, and the text is tracker facts
        // and a model: no graph, rolling-index or feature-cache section.
        let text = original.save_to_string();
        for line in text.lines() {
            assert!(
                !["graph v1", "rolling", "cache"]
                    .iter()
                    .any(|section| line.starts_with(section)),
                "derived state in a checkpoint: {line:?}"
            );
        }
        let mut resumed = Tracker::load_from_str(&text).expect("valid checkpoint");
        assert_eq!(resumed.save_to_string(), text);
        assert_eq!(resumed.days_processed(), original.days_processed());
        assert_eq!(resumed.last_day(), original.last_day());

        // Both trackers process the same further days identically: the
        // resumed one's abuse index bootstraps from the pDNS store, the
        // uninterrupted one's has been rolling since day one.
        let mut replay = Tracker::new();
        run_days(&mut isp_b, &mut replay, &config, 3);
        for _ in 0..2 {
            let ta = isp_a.next_day();
            let tb = isp_b.next_day();
            let ia = SnapshotInput {
                day: ta.day,
                queries: &ta.queries,
                resolutions: &ta.resolutions,
                table: isp_a.table(),
                pdns: isp_a.pdns(),
                blacklist: isp_a.commercial_blacklist(),
                whitelist: isp_a.whitelist(),
                hidden: None,
            };
            let ib = SnapshotInput {
                day: tb.day,
                queries: &tb.queries,
                resolutions: &tb.resolutions,
                table: isp_b.table(),
                pdns: isp_b.pdns(),
                blacklist: isp_b.commercial_blacklist(),
                whitelist: isp_b.whitelist(),
                hidden: None,
            };
            let ra = resumed
                .process_day(&ia, isp_a.activity(), &config)
                .expect("seeds present");
            let rb = replay
                .process_day(&ib, isp_b.activity(), &config)
                .expect("seeds present");
            assert_eq!(ra, rb, "resumed and uninterrupted reports diverged");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "filesystem checkpoints are not available under Miri")]
    fn corrupt_newest_generation_falls_back_with_records() {
        let scratch = ScratchDir::new("fallback");
        let mut isp = IspNetwork::new(IspConfig::tiny(55));
        isp.warm_up(16);
        let config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };
        let mut tracker = Tracker::new();
        run_days(&mut isp, &mut tracker, &config, 1);
        tracker.save_checkpoint(scratch.path(), 3).expect("save 1");
        let good_day = tracker.last_day().expect("processed");
        run_days(&mut isp, &mut tracker, &config, 1);
        let newest = tracker.save_checkpoint(scratch.path(), 3).expect("save 2");
        let bad_day = tracker.last_day().expect("processed");

        // Flip one bit in the newest generation.
        let mut bytes = fs::read(&newest).expect("read newest");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&newest, &bytes).expect("corrupt newest");

        let resumed = Tracker::resume(scratch.path()).expect("resume degrades, not errors");
        assert_eq!(resumed.last_day(), Some(good_day));
        assert_eq!(
            resumed.pending_degradation,
            vec![
                Degradation::CheckpointDiscarded { day: bad_day },
                Degradation::RestoredFromCheckpoint { day: good_day },
            ]
        );

        // The records surface at the front of the next report.
        let mut resumed = resumed;
        let traffic = isp.next_day();
        let input = SnapshotInput {
            day: traffic.day,
            queries: &traffic.queries,
            resolutions: &traffic.resolutions,
            table: isp.table(),
            pdns: isp.pdns(),
            blacklist: isp.commercial_blacklist(),
            whitelist: isp.whitelist(),
            hidden: None,
        };
        let report = resumed
            .process_day(&input, isp.activity(), &config)
            .expect("seeds present");
        assert_eq!(
            &report.degradation[..2],
            &[
                Degradation::CheckpointDiscarded { day: bad_day },
                Degradation::RestoredFromCheckpoint { day: good_day },
            ]
        );
        assert!(resumed.pending_degradation.is_empty(), "records drained");
    }

    #[test]
    #[cfg_attr(miri, ignore = "filesystem checkpoints are not available under Miri")]
    fn all_generations_corrupt_degrades_to_fresh() {
        let scratch = ScratchDir::new("fresh");
        fs::create_dir_all(scratch.path()).expect("mkdir");
        fs::write(scratch.path().join("checkpoint-4.seg"), b"garbage").expect("seed garbage");
        fs::write(scratch.path().join("checkpoint-7.seg"), b"more garbage").expect("seed garbage");
        let resumed = Tracker::resume(scratch.path()).expect("degrades to fresh");
        assert_eq!(resumed.days_processed(), 0);
        assert_eq!(resumed.last_day(), None);
        assert_eq!(
            resumed.pending_degradation,
            vec![
                Degradation::CheckpointDiscarded { day: Day(7) },
                Degradation::CheckpointDiscarded { day: Day(4) },
            ]
        );
    }

    /// A generation from when the payload carried an engine block (`engine
    /// v1` with the unpruned graph, `engine v2` with the rolling index and
    /// feature cache, both under `tracker v1`) is refused by the header
    /// check, not mis-parsed: resume discards it and rebuilds.
    #[test]
    #[cfg_attr(miri, ignore = "filesystem checkpoints are not available under Miri")]
    fn engine_v1_generation_is_discarded_not_misparsed() {
        let current = Tracker::new().save_to_string();
        let (_, payload) = current.split_once('\n').expect("header line");
        assert_eq!(payload.matches("tracker v2\n").count(), 1);
        assert_eq!(payload.matches("end-tracker\n").count(), 1);
        let rolling = "rolling v2 no-window\ndomains 0\nend-rolling\nprev 0\nend-engine\n";
        for (tag, engine) in [
            ("engine-v1", format!("engine v1\ndelta 0\n{rolling}")),
            ("engine-v2", format!("engine v2\n{rolling}")),
        ] {
            let payload = payload
                .replace("tracker v2\n", "tracker v1\n")
                .replace("end-tracker\n", &format!("{engine}end-tracker\n"));
            let old = framed(payload.as_bytes());
            let error = Tracker::load_from_bytes(&old).expect_err("tracker v1 must be refused");
            assert!(
                error.to_string().contains("bad tracker header"),
                "{tag}: {error}"
            );

            let scratch = ScratchDir::new(tag);
            fs::create_dir_all(scratch.path()).expect("mkdir");
            fs::write(scratch.path().join("checkpoint-4.seg"), old).expect("seed old generation");
            let resumed = Tracker::resume(scratch.path()).expect("degrades to fresh");
            assert_eq!(
                resumed.pending_degradation,
                vec![Degradation::CheckpointDiscarded { day: Day(4) }],
                "{tag}"
            );
        }
    }

    /// A generation written before the forest layout changed embeds a
    /// `segugio-model v1` model. Resume discards it like any generation it
    /// cannot read and falls back to the one before.
    #[test]
    #[cfg_attr(miri, ignore = "filesystem checkpoints are not available under Miri")]
    fn generation_embedding_a_v1_model_is_discarded() {
        let scratch = ScratchDir::new("model-v1");
        let mut isp = IspNetwork::new(IspConfig::tiny(55));
        isp.warm_up(16);
        let config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };
        let mut tracker = Tracker::new();
        run_days(&mut isp, &mut tracker, &config, 1);
        tracker.save_checkpoint(scratch.path(), 3).expect("save 1");
        let good_day = tracker.last_day().expect("processed");
        run_days(&mut isp, &mut tracker, &config, 1);
        let newest = tracker.save_checkpoint(scratch.path(), 3).expect("save 2");
        let bad_day = tracker.last_day().expect("processed");

        // Swap the newest generation's model for a v1 one: the old header
        // and a forest in the old arena layout.
        let text = fs::read_to_string(&newest).expect("read newest");
        let (_, payload) = text.split_once('\n').expect("header line");
        let (before, rest) = payload.split_once("\nmodel 1 ").expect("a retained model");
        let (model_line, rest) = rest.split_once('\n').expect("model line");
        let fields: Vec<&str> = model_line.split(' ').collect();
        let count: usize = fields[2].parse().expect("model line count");
        let after: String = rest.lines().skip(count).map(|l| format!("{l}\n")).collect();
        let v1 = "segugio-model v1\nfeatures 14 150\ncolumns 0 1\n\
                  forest 1\ntree 2 3\nS 0 0.5 1 2\nL 0.1\nL 0.9\n";
        let payload = format!(
            "{before}\nmodel 1 {} {} {}\n{v1}{after}",
            fields[0],
            fields[1],
            v1.lines().count()
        );
        let old = framed(payload.as_bytes());
        let error = Tracker::load_from_bytes(&old).expect_err("a v1 model must be refused");
        assert!(error.to_string().contains("embedded model"), "{error}");
        fs::write(&newest, old).expect("plant the v1 generation");

        let resumed = Tracker::resume(scratch.path()).expect("resume degrades, not errors");
        assert_eq!(resumed.last_day(), Some(good_day));
        assert_eq!(
            resumed.pending_degradation,
            vec![
                Degradation::CheckpointDiscarded { day: bad_day },
                Degradation::RestoredFromCheckpoint { day: good_day },
            ]
        );
    }

    /// Puts `payload` under a header with the right length and CRC.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let header = format!(
            "segugio-checkpoint v1 {} {:08x}\n",
            payload.len(),
            crc32(payload)
        );
        [header.as_bytes(), payload].concat()
    }

    #[test]
    #[cfg_attr(miri, ignore = "filesystem checkpoints are not available under Miri")]
    fn front_end_section_rides_every_generation_and_comes_back_verbatim() {
        let scratch = ScratchDir::new("front-end");
        let mut isp = IspNetwork::new(IspConfig::tiny(55));
        isp.warm_up(16);
        let config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };
        let mut tracker = Tracker::new();
        run_days(&mut isp, &mut tracker, &config, 1);
        let bare = tracker.save_to_string();
        assert!(
            bare.ends_with("end-tracker\n"),
            "nothing attached, no frame"
        );

        // Opaque means opaque: the payload's own terminator inside.
        let section = "any text\nend-tracker\nfront-end 9\ncaf\u{e9}";
        tracker.attach_front_end(section.to_owned());
        tracker.note_degradation(Degradation::LogReread { ids_restored: true });
        tracker.note_degradation(Degradation::LogReread {
            ids_restored: false,
        });
        tracker.save_checkpoint(scratch.path(), 3).expect("save 1");
        run_days(&mut isp, &mut tracker, &config, 1);
        tracker.save_checkpoint(scratch.path(), 3).expect("save 2");

        for (_, path) in list_generations(scratch.path()).expect("list") {
            let text = fs::read_to_string(path).expect("read generation");
            let mut loaded = Tracker::load_from_str(&text).expect("valid generation");
            assert_eq!(loaded.save_to_string(), text, "save→load→save fixed point");
            assert_eq!(loaded.take_front_end().as_deref(), Some(section));
        }
        let mut resumed = Tracker::resume(scratch.path()).expect("resume");
        assert_eq!(resumed.last_day(), tracker.last_day());
        assert!(resumed.pending_degradation.is_empty(), "drained by day 2");
        assert_eq!(resumed.take_front_end().as_deref(), Some(section));

        // Until a day drains them, the notes are saved with their tags.
        let mut waiting = Tracker::new();
        waiting.note_degradation(Degradation::LogReread { ids_restored: true });
        waiting.note_degradation(Degradation::LogReread {
            ids_restored: false,
        });
        let loaded = Tracker::load_from_str(&waiting.save_to_string()).expect("valid");
        assert_eq!(loaded.pending_degradation, waiting.pending_degradation);
    }

    #[test]
    fn crc32_is_the_ieee_checksum_however_the_bytes_are_cut() {
        // The check value every CRC-32/IEEE implementation publishes.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Eight bytes at a time, a tail at a time, and across parts that
        // end anywhere: always the value the byte-at-a-time loop gives.
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 31 + i / 7) as u8).collect();
        let bytewise = |bytes: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        };
        for len in 0..64 {
            assert_eq!(crc32(&bytes[..len]), bytewise(&bytes[..len]), "{len}");
        }
        for cut in [0, 1, 7, 8, 9, 500, 993, 1000] {
            let (a, b) = bytes.split_at(cut);
            assert_eq!(crc32_of(&[a, &[], b]), bytewise(&bytes), "cut at {cut}");
        }
    }

    #[test]
    fn mangled_front_end_frames_are_typed_errors() {
        let bare = Tracker::new().save_to_string();
        let (_, payload) = bare.split_once('\n').expect("header line");
        for (tail, complaint) in [
            ("front-end 5\nabc", "length mismatch"),
            ("front-end 2\nabc", "length mismatch"),
            ("front-end x\nabc", "bad front-end section length"),
            ("front-end 3", "unterminated front-end line"),
            // Not a frame at all: the tracker parser's old complaint.
            ("back-end 3\nabc", "trailing content after end-tracker"),
        ] {
            let error = Tracker::load_from_bytes(&framed(format!("{payload}{tail}").as_bytes()))
                .expect_err("a mangled frame must be refused");
            assert!(error.to_string().contains(complaint), "{tail:?}: {error}");
        }
        let not_text = [payload.as_bytes(), b"front-end 2\n", &[0xC3, 0x28]].concat();
        let error = Tracker::load_from_bytes(&framed(&not_text)).expect_err("not UTF-8");
        assert!(error.to_string().contains("not UTF-8"), "{error}");
    }

    #[test]
    #[cfg_attr(miri, ignore = "filesystem checkpoints are not available under Miri")]
    fn missing_directory_resumes_fresh_without_records() {
        let scratch = ScratchDir::new("missing");
        let resumed = Tracker::resume(scratch.path()).expect("fresh start");
        assert_eq!(resumed.days_processed(), 0);
        assert!(resumed.pending_degradation.is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore = "filesystem checkpoints are not available under Miri")]
    fn killed_write_leaves_only_a_dead_tmp() {
        let scratch = ScratchDir::new("killed");
        let mut isp = IspNetwork::new(IspConfig::tiny(55));
        isp.warm_up(16);
        let config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };
        let mut tracker = Tracker::new();
        run_days(&mut isp, &mut tracker, &config, 1);
        let outcome = tracker
            .save_checkpoint_killed(scratch.path(), 100)
            .expect("kill injection");
        assert_eq!(outcome, WriteOutcome::KilledMidWrite);
        let day = tracker.last_day().expect("processed").0;
        assert!(!scratch
            .path()
            .join(format!("checkpoint-{day}.seg"))
            .exists());
        assert!(scratch
            .path()
            .join(format!("checkpoint-{day}.seg.tmp"))
            .exists());
        // The torn tmp is invisible to resume.
        let resumed = Tracker::resume(scratch.path()).expect("fresh");
        assert_eq!(resumed.days_processed(), 0);
        assert!(resumed.pending_degradation.is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore = "filesystem checkpoints are not available under Miri")]
    fn retention_prunes_to_newest_k() {
        let scratch = ScratchDir::new("retention");
        let mut isp = IspNetwork::new(IspConfig::tiny(55));
        isp.warm_up(16);
        let config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };
        let mut tracker = Tracker::new();
        let mut days = Vec::new();
        for _ in 0..5 {
            run_days(&mut isp, &mut tracker, &config, 1);
            tracker.save_checkpoint(scratch.path(), 2).expect("save");
            days.push(tracker.last_day().expect("processed").0);
        }
        let kept = list_generations(scratch.path()).expect("list");
        let kept_days: Vec<u32> = kept.iter().map(|(d, _)| d.0).collect();
        assert_eq!(kept_days, vec![days[4], days[3]], "newest two survive");
    }

    #[test]
    fn hostile_inputs_are_typed_errors() {
        for bad in [
            "",
            "segugio-checkpoint v1",
            "segugio-checkpoint v1 10 zzzzzzzz\nx",
            "segugio-checkpoint v2 0 00000000\n",
            "segugio-checkpoint v1 5 00000000\nab",
            "segugio-checkpoint v1 2 00000000\nab",
            "not a checkpoint at all\n",
        ] {
            assert!(
                Tracker::load_from_str(bad).is_err(),
                "input {bad:?} must be a typed error"
            );
        }
        // A valid document with one flipped payload bit fails the CRC.
        let good = Tracker::new().save_to_string();
        let mut bytes = good.clone().into_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = Tracker::load_from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "got: {err}");
    }
}
