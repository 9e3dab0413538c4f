//! The one byte layout of everything Segugio persists: model files,
//! checkpoint generations, and the log front-end's state inside them.
//!
//! # The container
//!
//! ```text
//! file     magic "segugio\0"   8 bytes
//!          version             u32   (VERSION)
//!          section count       u32
//!          section...
//! section  tag                 4 bytes, ASCII
//!          payload length      u64
//!          CRC-32 of payload   u32   (IEEE, as `crc32`)
//!          payload             `length` bytes
//! ```
//!
//! Every integer is fixed-width little-endian; an `f32` or `f64` is its
//! IEEE bits as a `u32` or `u64`, so NaN payloads and `-0.0` survive. In
//! a payload, a *string* is a `u32` byte length and the UTF-8 bytes, an
//! *array* a `u32` element count and the elements back to back, and a
//! *flag* a `u8` that is 0 or 1. [`decode`] checks the magic and version,
//! then each section's length against the bytes left and its CRC against
//! its payload, and refuses trailing bytes — all before any field of any
//! payload is read. A payload reader ([`Reader`]) must consume its payload
//! exactly.
//!
//! A version bump makes every older file a typed error: an old checkpoint
//! generation is discarded (a log re-read for the front end), an old model
//! file must be retrained. Nothing is ever parsed under the wrong layout.
//!
//! # Sections
//!
//! A **model file** is one [`MODEL`] section. A **checkpoint generation**
//! is a [`TRACKER`] section, then a [`MODEL`] section when the tracker
//! retains a model, then a [`FRONT_END`] section when the program feeding
//! the tracker attached one. Payloads, field by field:
//!
//! ```text
//! MODEL      activity days u32, abuse window days u32,
//!            columns: array<u32>, backend kind u8, then one of
//!   0 forest     row width u32, roots: array<u32>, split feature:
//!                array<u16>, threshold (leaf probability): array<f32>,
//!                left child (u32::MAX on a leaf): array<u32>
//!   1 logistic   weights: array<f64>, bias f64, mean: array<f64>,
//!                inv_std: array<f64>
//!   2            retired (gradient boosting); refused like any unknown kind
//! TRACKER    flagged: u32 n, n × (domain u32, day u32), ascending;
//!            confirmed: u32 n, n × (domain u32, flagged on u32,
//!            confirmed on u32), ascending; days processed u64;
//!            last day: flag, then day u32 if set; pending records:
//!            u32 n, n × (kind u8, value u32) — kind 0 stale model (day),
//!            1 masked IP features (0), 2 restored (day), 3 discarded
//!            (day), 4 log re-read (ids restored 0/1); retained model:
//!            flag, then threshold f32 and training day u32 if set
//! FRONT_END  consumed offset u64, consumed lines u64; guard: flag, then
//!            window bytes u64 and FNV-1a u64 if set; domains: u32 n,
//!            n strings in id order; machines: u32 n, n strings in id
//!            order; days: u32 n, n × (day u32, first offset u64, first
//!            line u64), ascending; activity: u32 n, n × (domain u32,
//!            skipped words u32, days: array<u64> bitmap words),
//!            ascending; pdns: u32 n, n × (day u32, records u32 m,
//!            m × (domain u32, ip u32)), days ascending, log order within
//! ```
//!
//! The tracker writes the front-end section as the bytes it was handed
//! and never reads them; `segugio-ingest` writes and reads that payload.
//! Decoding is total over hostile bytes: every malformation is a typed
//! [`DecodeError`], the work done is bounded by the input's length, and
//! nothing is allocated from a declared count before the bytes behind it
//! have been seen.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// The first eight bytes of every container.
pub const MAGIC: &[u8; 8] = b"segugio\0";

/// The layout version this build writes and reads.
pub const VERSION: u32 = 1;

/// A section's four-byte ASCII tag.
pub type Tag = [u8; 4];

/// A trained model: feature windows, columns and the backend's arrays.
pub const MODEL: Tag = *b"MODL";
/// A tracker's cross-day facts.
pub const TRACKER: Tag = *b"TRAK";
/// The log front-end's state, opaque to the tracker.
pub const FRONT_END: Tag = *b"FEND";

/// Returned when bytes are not a container this build can read, or a
/// payload does not hold what its section promises. Errors chain: an
/// outer layer adds [`context`](Self::context), and the chain is walkable
/// through [`Error::source`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    message: String,
    source: Option<Box<DecodeError>>,
}

impl DecodeError {
    /// An error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        DecodeError {
            message: message.into(),
            source: None,
        }
    }

    /// Wraps this error in an outer layer of context, keeping `self` as
    /// the [`Error::source`].
    #[must_use]
    pub fn context(self, message: impl Into<String>) -> Self {
        DecodeError {
            message: message.into(),
            source: Some(Box::new(self)),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)?;
        if let Some(source) = &self.source {
            write!(f, ": {source}")?;
        }
        Ok(())
    }
}

impl Error for DecodeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.source.as_deref().map(|e| e as _)
    }
}

/// The pieces of a container holding `sections`, in write order: the
/// header, then each section's frame and its payload, borrowed where it
/// lies. Concatenated, they are the file.
pub fn pieces<'a>(sections: &[(Tag, &'a [u8])]) -> Vec<Cow<'a, [u8]>> {
    let mut header = Writer::new();
    header.bytes.extend_from_slice(MAGIC);
    header.put(VERSION);
    header.count(sections.len());
    let mut pieces = vec![Cow::Owned(header.into_bytes())];
    for &(tag, payload) in sections {
        let mut frame = Writer::new();
        frame.bytes.extend_from_slice(&tag);
        frame.put(payload.len() as u64);
        frame.put(crc32(payload));
        pieces.push(Cow::Owned(frame.into_bytes()));
        pieces.push(Cow::Borrowed(payload));
    }
    pieces
}

/// A container holding `sections`, in order.
pub fn encode(sections: &[(Tag, &[u8])]) -> Vec<u8> {
    pieces(sections).concat()
}

/// The sections of a container, in order, each one's length and CRC
/// verified. Nothing in a payload has been read yet.
///
/// # Errors
///
/// [`DecodeError`] on a wrong magic or version, a section running past
/// the end, a CRC mismatch, a missing section, or trailing bytes.
pub fn decode(bytes: &[u8]) -> Result<Vec<(Tag, &[u8])>, DecodeError> {
    let mut r = Reader::new(bytes);
    if r.take(MAGIC.len(), "magic")? != MAGIC {
        return Err(DecodeError::new("not a segugio container"));
    }
    let version: u32 = r.get("version")?;
    if version != VERSION {
        return Err(DecodeError::new(format!(
            "container version {version}; this build reads version {VERSION}"
        )));
    }
    let count = r.count("section count")?;
    // Each pass consumes a frame or fails, so the loop is bounded by the
    // input whatever the count claims.
    let mut sections = Vec::new();
    for index in 0..count {
        let at = format!("section {index} of {count}");
        let mut tag: Tag = [0; 4];
        tag.copy_from_slice(r.take(4, &at)?);
        let len: u64 = r.get(&at)?;
        let crc: u32 = r.get(&at)?;
        let at = format!("{at} ({})", String::from_utf8_lossy(&tag));
        // A length past the end is a torn or truncated file.
        let payload = r.take(usize::try_from(len).unwrap_or(usize::MAX), &at)?;
        let actual = crc32(payload);
        if actual != crc {
            return Err(DecodeError::new(format!(
                "{at}: checksum mismatch: frame declares {crc:08x}, payload hashes to {actual:08x}"
            )));
        }
        sections.push((tag, payload));
    }
    r.finish("container")?;
    Ok(sections)
}

/// A value with a fixed-width little-endian encoding.
pub trait Scalar: Copy {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Appends the encoding to `out`.
    fn put(self, out: &mut Vec<u8>);
    /// Decodes from exactly [`WIDTH`](Self::WIDTH) bytes.
    fn get(bytes: &[u8]) -> Self;
}

macro_rules! scalar {
    ($($t:ty => $width:literal, $to:expr, $from:expr;)*) => {$(
        impl Scalar for $t {
            const WIDTH: usize = $width;
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&$to(self).to_le_bytes());
            }
            fn get(bytes: &[u8]) -> Self {
                let mut le = [0u8; $width];
                le.copy_from_slice(bytes);
                $from(le)
            }
        }
    )*};
}

scalar! {
    u8 => 1, |v: u8| v, u8::from_le_bytes;
    u16 => 2, |v: u16| v, u16::from_le_bytes;
    u32 => 4, |v: u32| v, u32::from_le_bytes;
    u64 => 8, |v: u64| v, u64::from_le_bytes;
    f32 => 4, f32::to_bits, |le| f32::from_bits(u32::from_le_bytes(le));
    f64 => 8, f64::to_bits, |le| f64::from_bits(u64::from_le_bytes(le));
}

/// Builds a section payload.
#[derive(Debug, Default)]
pub struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty payload with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            bytes: Vec::with_capacity(bytes),
        }
    }

    /// Appends one fixed-width value.
    pub fn put<T: Scalar>(&mut self, value: T) {
        value.put(&mut self.bytes);
    }

    /// Appends a count as a `u32`.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX`: no count this workspace writes comes near.
    pub fn count(&mut self, n: usize) {
        let n = u32::try_from(n);
        assert!(n.is_ok(), "count exceeds the container's u32 range");
        self.put(n.unwrap_or(u32::MAX));
    }

    /// Appends a flag: 1 for `true`, 0 for `false`.
    pub fn flag(&mut self, set: bool) {
        self.put(u8::from(set));
    }

    /// Appends a string: its byte length, then its bytes.
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// Appends an array: its element count, then the elements.
    pub fn array<T: Scalar>(&mut self, items: &[T]) {
        self.count(items.len());
        self.bytes.reserve(items.len() * T::WIDTH);
        for &item in items {
            item.put(&mut self.bytes);
        }
    }

    /// The payload written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads a section payload front to back. Every read names what it
/// reads, for the error when the bytes run out or do not fit.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        Reader { rest: payload }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DecodeError> {
        if n > self.rest.len() {
            return Err(DecodeError::new(format!(
                "{what}: needs {n} bytes, {} remain",
                self.rest.len()
            )));
        }
        let (taken, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(taken)
    }

    /// One fixed-width value.
    pub fn get<T: Scalar>(&mut self, what: &str) -> Result<T, DecodeError> {
        self.take(T::WIDTH, what).map(T::get)
    }

    /// A `u32` count.
    pub fn count(&mut self, what: &str) -> Result<usize, DecodeError> {
        let n: u32 = self.get(what)?;
        usize::try_from(n).map_err(|_| DecodeError::new(format!("{what}: {n} overflows")))
    }

    /// A flag: 0 or 1, nothing else.
    pub fn flag(&mut self, what: &str) -> Result<bool, DecodeError> {
        match self.get::<u8>(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::new(format!("{what}: flag {other}"))),
        }
    }

    /// A string.
    pub fn str(&mut self, what: &str) -> Result<&'a str, DecodeError> {
        let len = self.count(what)?;
        std::str::from_utf8(self.take(len, what)?)
            .map_err(|e| DecodeError::new(format!("{what}: {e}")))
    }

    /// An array. Its count is checked against the bytes left before
    /// anything is allocated.
    pub fn array<T: Scalar>(&mut self, what: &str) -> Result<Vec<T>, DecodeError> {
        let n = self.count(what)?;
        let bytes = n
            .checked_mul(T::WIDTH)
            .filter(|&bytes| bytes <= self.rest.len())
            .ok_or_else(|| {
                DecodeError::new(format!(
                    "{what}: {n} elements do not fit in the {} bytes left",
                    self.rest.len()
                ))
            })?;
        let elements = self.take(bytes, what)?.chunks_exact(T::WIDTH);
        Ok(elements.map(T::get).collect())
    }

    /// Ends the payload: every byte must have been read.
    pub fn finish(self, what: &str) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::new(format!(
                "{what}: {} trailing bytes",
                self.rest.len()
            )))
        }
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven, as every
/// section's frame carries it.
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

/// The CRC-32/IEEE checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut eights = bytes.chunks_exact(8);
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
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_is_the_ieee_checksum_at_every_length() {
        // The check value every CRC-32/IEEE implementation publishes.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Eight bytes at a time and a tail at a time: always the value the
        // byte-at-a-time loop gives.
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 31 + i / 7) as u8).collect();
        let bytewise = |bytes: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        };
        for len in (0..64).chain([500, 993, 1000]) {
            assert_eq!(crc32(&bytes[..len]), bytewise(&bytes[..len]), "{len}");
        }
    }

    fn sample() -> Vec<u8> {
        let mut w = Writer::new();
        w.put(7u32);
        w.put(-0.0f32);
        w.put(f64::NAN);
        w.flag(true);
        w.str("caf\u{e9}");
        w.array(&[1u16, 2, 65535]);
        w.array::<u64>(&[]);
        let payload = w.into_bytes();
        encode(&[(MODEL, &payload), (FRONT_END, b"")])
    }

    #[test]
    fn fields_come_back_bit_for_bit() {
        let bytes = sample();
        let sections = decode(&bytes).unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!((sections[0].0, sections[1]), (MODEL, (FRONT_END, &b""[..])));
        let mut r = Reader::new(sections[0].1);
        assert_eq!(r.get::<u32>("a").unwrap(), 7);
        assert_eq!(r.get::<f32>("b").unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.get::<f64>("c").unwrap().to_bits(), f64::NAN.to_bits());
        assert!(r.flag("d").unwrap());
        assert_eq!(r.str("e").unwrap(), "caf\u{e9}");
        assert_eq!(r.array::<u16>("f").unwrap(), [1, 2, 65535]);
        assert_eq!(r.array::<u64>("g").unwrap().len(), 0);
        r.finish("sample").unwrap();
        assert_eq!(encode(&sections), bytes, "decode → encode is the identity");
    }

    #[test]
    fn damage_anywhere_is_a_typed_error() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        // A flipped tag is left to the reader expecting another tag.
        let tags = |bytes: &[u8]| -> Vec<Tag> {
            decode(bytes).map_or(Vec::new(), |s| s.iter().map(|&(tag, _)| tag).collect())
        };
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x20;
            assert_ne!(tags(&flipped), [MODEL, FRONT_END], "flip at {at}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_err());
        let error = decode(b"segugio-model v2\n").unwrap_err();
        assert!(
            error.to_string().contains("not a segugio container"),
            "{error}"
        );
        let mut future = bytes;
        future[8] = 2;
        let error = decode(&future).unwrap_err();
        assert!(error.to_string().contains("version 2"), "{error}");
    }

    #[test]
    fn payload_reads_are_bounded_by_the_bytes() {
        // An array claiming u32::MAX elements of eight bytes each.
        let mut w = Writer::new();
        w.put(u32::MAX);
        let payload = w.into_bytes();
        let mut r = Reader::new(&payload);
        assert!(r.array::<u64>("huge").is_err());
        assert!(Reader::new(&[2]).flag("flag").is_err());
        assert!(Reader::new(&[1, 0, 0, 0, 0xFF]).str("name").is_err());
        assert!(Reader::new(&[0]).finish("tail").is_err());
    }

    #[test]
    fn context_builds_a_source_chain() {
        let inner = DecodeError::new("split feature out of range");
        let outer = inner.clone().context("model section");
        assert_eq!(
            outer.to_string(),
            "model section: split feature out of range"
        );
        let source = outer.source().expect("the inner error is the source");
        assert_eq!(source.to_string(), inner.to_string());
        assert!(source.source().is_none());
    }
}
