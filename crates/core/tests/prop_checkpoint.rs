//! Property-based tests for the checkpoint codec, mirroring
//! `crates/ml/tests/prop_persist.rs`.
//!
//! Two groups:
//!
//! 1. **Hostile input** — token soup biased toward the checkpoint grammar
//!    must never panic, hang, or over-allocate: every malformation is a
//!    typed [`CheckpointError`]. The soup is fed both raw (exercising the
//!    header/length/CRC layer) and wrapped in a *valid* header with a
//!    correct length and checksum (reaching the payload parser, which the
//!    checksum would otherwise shield from almost every random input).
//! 2. **Fixed point** — a structurally valid checkpoint document with
//!    adversarial contents (NaN/±inf thresholds, arbitrary flag maps and
//!    pending records, an embedded trained model) parses, and save→load→
//!    save is **byte-identical** — thresholds round-trip through `to_bits`
//!    hex, so even NaN payloads survive exactly.
//!
//! [`CheckpointError`]: segugio_core::CheckpointError

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

use proptest::prelude::*;

use segugio_core::{crc32, Segugio, SegugioConfig, Tracker, FEATURE_COUNT};
use segugio_ml::Dataset;

// ---------------------------------------------------------------------------
// Group 1: hostile input.

/// Tokens biased toward the checkpoint grammar so generated soup reaches
/// deep parser states (map loops, the embedded model) instead of dying at
/// the first line. `engine`, `rolling`, `cache` and `graph` name sections
/// the payload no longer has: words the parser must refuse.
fn token() -> impl Strategy<Value = String> {
    (0u32..28, 0u32..40, -2.0f32..2.0).prop_map(|(kind, n, x)| match kind {
        0 => "segugio-checkpoint".to_string(),
        1 => "v1".to_string(),
        2 => "tracker".to_string(),
        3 => "flagged".to_string(),
        4 => "confirmed".to_string(),
        5 => "days-processed".to_string(),
        6 => "last-day".to_string(),
        7 => "pending".to_string(),
        8 => "model".to_string(),
        9 => "engine".to_string(),
        10 => "delta".to_string(),
        11 => "prev".to_string(),
        12 => "cache".to_string(),
        13 => "rolling".to_string(),
        14 => "graph".to_string(),
        15 => "end-tracker".to_string(),
        16 => "end-engine".to_string(),
        17 => ["S", "F", "R", "D", "c", "d", "M", "B", "U"][(n % 9) as usize].to_string(),
        // Newlines are weighted up: every parser is line-oriented.
        18..=21 => "\n".to_string(),
        // Parses as usize but would be a ~1 TiB allocation if any reader
        // trusted it for `Vec::with_capacity`.
        22 => "68719476736".to_string(),
        // Overflows usize on 64-bit: must surface as a malformed field.
        23 => "99999999999999999999".to_string(),
        24 => format!("{:08x}", n.wrapping_mul(0x9E37_79B9)),
        25 => format!("{x}"),
        26 => format!("-{n}"),
        _ => n.to_string(),
    })
}

fn hostile_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(token(), 0..150).prop_map(|tokens| tokens.join(" "))
}

/// Wraps arbitrary payload text in a header whose length and CRC are
/// *correct*, so the payload parser actually runs.
fn with_valid_header(payload: &str) -> String {
    format!(
        "segugio-checkpoint v1 {} {:08x}\n{payload}",
        payload.len(),
        crc32(payload.as_bytes())
    )
}

// ---------------------------------------------------------------------------
// Group 2: fixed point.

/// f32 values weighted toward the edge cases the text format must keep.
fn weird_f32() -> impl Strategy<Value = f32> {
    (0u32..12, -1e6f32..1e6).prop_map(|(kind, v)| match kind {
        6 => f32::NAN,
        7 => f32::INFINITY,
        8 => f32::NEG_INFINITY,
        9 => -0.0,
        10 => f32::MIN_POSITIVE,
        _ => v,
    })
}

/// A model trained once on a handcrafted two-class fixture; its exact
/// serialized text is embedded in generated checkpoints.
fn model_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut data = Dataset::new(FEATURE_COUNT);
        for i in 0..24u32 {
            let mut row = [0.0f32; FEATURE_COUNT];
            row[0] = i as f32;
            row[1] = (i % 5) as f32 * 0.7;
            row[2] = if i % 2 == 0 { 3.0 } else { -1.5 };
            data.push(&row, i % 2 == 0);
        }
        let model = Segugio::train_prepared(&data, &SegugioConfig::default())
            .expect("handcrafted fixture has both classes");
        model.save_to_string()
    })
}

/// One pending-degradation record: (tag index, day).
fn pending_records() -> impl Strategy<Value = Vec<(u8, u32)>> {
    proptest::collection::vec((0u8..4, 0u32..5000), 0..6)
}

/// A sorted unique-key map, built through `vec` since the vendored
/// proptest subset has no `btree_map` strategy.
fn flag_map(lo: u32, hi: u32) -> impl Strategy<Value = BTreeMap<u32, u32>> {
    proptest::collection::vec((lo..hi, 0u32..5000), 0..20)
        .prop_map(|pairs| pairs.into_iter().collect())
}

fn confirm_map() -> impl Strategy<Value = BTreeMap<u32, (u32, u32)>> {
    proptest::collection::vec((10_000u32..20_000, (0u32..5000, 0u32..5000)), 0..20)
        .prop_map(|pairs| pairs.into_iter().collect())
}

/// `Option` via a coin flip — the vendored subset has no `option::of`.
fn maybe<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(some, v)| some.then_some(v))
}

/// Renders a valid checkpoint document in the codec's exact layout from
/// generated contents. The payload matches `Tracker::save_to_string`'s
/// formatting byte for byte, so a parse → re-save must reproduce it.
fn render_checkpoint(
    flagged: &BTreeMap<u32, u32>,
    confirmed: &BTreeMap<u32, (u32, u32)>,
    days_processed: usize,
    last_day: Option<u32>,
    pending: &[(u8, u32)],
    model: Option<f32>,
    trained_on: u32,
) -> String {
    let mut p = String::new();
    p.push_str("tracker v2\n");
    let _ = write!(p, "flagged {}", flagged.len());
    for (d, day) in flagged {
        let _ = write!(p, " {d} {day}");
    }
    p.push('\n');
    let _ = write!(p, "confirmed {}", confirmed.len());
    for (d, (f, c)) in confirmed {
        let _ = write!(p, " {d} {f} {c}");
    }
    p.push('\n');
    let _ = writeln!(p, "days-processed {days_processed}");
    match last_day {
        Some(d) => {
            let _ = writeln!(p, "last-day 1 {d}");
        }
        None => p.push_str("last-day 0\n"),
    }
    let _ = write!(p, "pending {}", pending.len());
    for &(tag, day) in pending {
        match tag {
            0 => {
                let _ = write!(p, " S {day}");
            }
            1 => p.push_str(" F"),
            2 => {
                let _ = write!(p, " R {day}");
            }
            _ => {
                let _ = write!(p, " D {day}");
            }
        }
    }
    p.push('\n');
    match model {
        Some(threshold) => {
            let text = model_text();
            let _ = writeln!(
                p,
                "model 1 {:08x} {trained_on} {}",
                threshold.to_bits(),
                text.lines().count()
            );
            p.push_str(text);
            if !text.ends_with('\n') {
                p.push('\n');
            }
        }
        None => p.push_str("model 0\n"),
    }
    p.push_str("end-tracker\n");
    with_valid_header(&p)
}

proptest! {
    /// Raw token soup never panics the loader: the header, length and
    /// checksum layers reject it with a typed error (or, astronomically
    /// unlikely, it parses — which is also fine).
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn raw_soup_is_rejected_or_parses(text in hostile_text()) {
        match Tracker::load_from_str(&text) {
            Ok(tracker) => {
                // Whatever parses must re-save and re-load stably.
                let saved = tracker.save_to_string();
                prop_assert!(Tracker::load_from_str(&saved).is_ok());
            }
            Err(e) => {
                // Typed errors always render a nonempty message.
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    /// Soup wrapped in a *valid* header — correct length and CRC — reaches
    /// the payload parser, which must be equally total: typed error or a
    /// stable tracker, never a panic, hang, or giant allocation.
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn checksummed_soup_is_rejected_or_parses(payload in hostile_text()) {
        let doc = with_valid_header(&payload);
        match Tracker::load_from_str(&doc) {
            Ok(tracker) => {
                let saved = tracker.save_to_string();
                prop_assert!(Tracker::load_from_str(&saved).is_ok());
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// A structurally valid document with adversarial contents parses, and
    /// save→load→save is a byte-identical fixed point — including NaN and
    /// ±inf thresholds, which round-trip through `to_bits` hex exactly.
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn valid_documents_are_a_byte_fixed_point(
        flagged in flag_map(0, 10_000),
        confirmed in confirm_map(),
        days_processed in 0usize..4000,
        last_day in maybe(0u32..5000),
        pending in pending_records(),
        model in (maybe(weird_f32()), 0u32..5000),
    ) {
        let (threshold, trained_on) = model;
        let doc = render_checkpoint(
            &flagged, &confirmed, days_processed, last_day, &pending, threshold, trained_on,
        );
        let tracker = Tracker::load_from_str(&doc).expect("structurally valid checkpoint parses");
        prop_assert_eq!(tracker.days_processed(), days_processed);
        prop_assert_eq!(tracker.last_day().map(|d| d.0), last_day);
        prop_assert_eq!(tracker.pending().count(), flagged.len());

        // The hand-rendered document IS the codec's output format.
        let saved = tracker.save_to_string();
        prop_assert_eq!(&saved, &doc, "save(load(doc)) must equal doc byte-for-byte");

        // And the loop is closed: load(save(·)) → save is still identical.
        let reloaded = Tracker::load_from_str(&saved).expect("round-tripped checkpoint parses");
        prop_assert_eq!(reloaded.save_to_string(), saved);
    }

    /// Corrupting any single byte of a valid document is always detected:
    /// the header length/CRC layers make the loader fail with a typed
    /// error rather than silently accepting damaged state. (Flips inside
    /// the CRC's own hex digits are detected as a header/CRC mismatch
    /// too.)
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn single_byte_corruption_is_always_detected(
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let doc = render_checkpoint(
            &BTreeMap::from([(7u32, 3u32)]),
            &BTreeMap::new(),
            5,
            Some(9),
            &[(2, 4)],
            Some(0.25),
            3,
        );
        let mut bytes = doc.clone().into_bytes();
        let i = (at % bytes.len() as u64) as usize;
        bytes[i] ^= flip;
        if bytes == doc.as_bytes() {
            return Ok(()); // the flip was a no-op (can't happen with flip != 0)
        }
        prop_assert!(
            Tracker::load_from_bytes(&bytes).is_err(),
            "flipping byte {i} by {flip:#04x} went undetected"
        );
    }
}

// ---------------------------------------------------------------------------
// Group 3: the front-end section.

/// Section text hostile to the framing around it: the payload's own
/// keywords and terminator lines, a frame line inside the section,
/// multi-byte characters, no final newline.
fn section_text() -> impl Strategy<Value = String> {
    let piece = (0u32..8, "[ -~\n]{0,40}").prop_map(|(kind, text)| match kind {
        0 => "\nend-tracker\n".to_string(),
        1 => "front-end 3\nabc".to_string(),
        2 => "segugio-checkpoint v1 0 00000000\n".to_string(),
        3 => "caf\u{e9} \u{2028}\u{1f980}".to_string(),
        _ => text,
    });
    proptest::collection::vec(piece, 0..6).prop_map(|pieces| pieces.concat())
}

proptest! {
    /// Whatever the front end attaches comes back byte for byte, under
    /// the same header length and checksum, and save→load→save stays a
    /// fixed point; with nothing attached the document is exactly the
    /// tracker's own.
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn an_attached_section_rides_the_fixed_point(
        flagged in flag_map(0, 10_000),
        last_day in maybe(0u32..5000),
        pending in pending_records(),
        section in section_text(),
    ) {
        let bare = render_checkpoint(
            &flagged, &BTreeMap::new(), 3, last_day, &pending, Some(0.5), 2,
        );
        let mut tracker = Tracker::load_from_str(&bare).expect("valid checkpoint parses");
        tracker.attach_front_end(section.clone());
        let saved = tracker.save_to_string();
        prop_assert!(saved.ends_with(&section));

        let mut reloaded = Tracker::load_from_str(&saved).expect("framed checkpoint parses");
        prop_assert_eq!(reloaded.save_to_string(), saved.as_str());
        prop_assert_eq!(reloaded.take_front_end(), Some(section));
        prop_assert_eq!(reloaded.save_to_string(), bare, "detached: the tracker's text alone");

        // Any strict prefix of the framed document is refused whole.
        let cut = saved.len() - 1 - (flagged.len() % saved.len().min(64));
        prop_assert!(Tracker::load_from_bytes(&saved.as_bytes()[..cut]).is_err());
    }
}
