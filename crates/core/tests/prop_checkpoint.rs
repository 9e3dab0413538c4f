//! Property-based tests for checkpoint generations and model files,
//! mirroring `crates/ml/tests/prop_persist.rs`.
//!
//! Four groups:
//!
//! 1. **Hostile input** — byte soup biased toward the container's grammar
//!    (the magic, the version, section tags, small counts and flags) must
//!    never panic, hang, or over-allocate: every malformation is a typed
//!    [`DecodeError`]. The soup is fed both raw (exercising the magic,
//!    frame and CRC layer) and as the payloads of correctly framed
//!    sections (reaching the payload readers, which the checksum would
//!    otherwise shield from almost every random input).
//! 2. **Fixed point** — a structurally valid generation with adversarial
//!    contents (NaN/±inf thresholds, arbitrary flag maps and pending
//!    records, an embedded trained model) decodes, and save→load→save is
//!    **byte-identical** — thresholds travel as their bits, so even NaN
//!    payloads survive exactly.
//! 3. **Damage** — any single corrupted byte, and any strict prefix, of a
//!    valid generation or model file is a typed error.
//! 4. **The front-end section** — whatever is attached rides the fixed
//!    point verbatim.
//!
//! [`DecodeError`]: segugio_model::container::DecodeError

use std::collections::BTreeMap;
use std::sync::OnceLock;

use proptest::prelude::*;

use segugio_core::{Segugio, SegugioConfig, SegugioModel, Tracker, FEATURE_COUNT};
use segugio_ml::Dataset;
use segugio_model::container::{self, Writer, FRONT_END, MAGIC, MODEL, TRACKER, VERSION};

// ---------------------------------------------------------------------------
// Group 1: hostile input.

/// Byte pieces biased toward the container grammar, so generated soup
/// reaches deep reader states (map loops, the model's arrays) instead of
/// dying at the first field.
fn piece() -> impl Strategy<Value = Vec<u8>> {
    (0u32..12, 0u32..40, any::<u8>()).prop_map(|(kind, n, byte)| match kind {
        0 => MAGIC.to_vec(),
        1 => VERSION.to_le_bytes().to_vec(),
        2 => [TRACKER, MODEL, FRONT_END][(n % 3) as usize].to_vec(),
        // Small counts and flags.
        3..=5 => (n % 4).to_le_bytes().to_vec(),
        6 => vec![(n % 3) as u8],
        // A count that would be a giant allocation if any reader trusted
        // it.
        7 => u32::MAX.to_le_bytes().to_vec(),
        8 => u64::from(n).to_le_bytes().to_vec(),
        9 => f32::NAN.to_bits().to_le_bytes().to_vec(),
        _ => vec![byte],
    })
}

fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(piece(), 0..60).prop_map(|pieces| pieces.concat())
}

// ---------------------------------------------------------------------------
// Group 2: fixed point.

/// f32 values weighted toward the edge cases the bytes must keep.
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

/// A model trained once on a handcrafted two-class fixture: its model
/// file, and the `MODEL` section payload generated generations embed.
fn model_file() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
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
        model.to_bytes()
    })
}

fn model_payload() -> &'static [u8] {
    let sections = container::decode(model_file()).expect("a model file decodes");
    sections[0].1
}

/// One pending-degradation record: (kind, value).
fn pending_records() -> impl Strategy<Value = Vec<(u8, u32)>> {
    proptest::collection::vec((0u8..5, 0u32..5000), 0..6).prop_map(|records| {
        records
            .into_iter()
            .map(|(kind, day)| match kind {
                1 => (1, 0),
                4 => (4, day % 2),
                _ => (kind, day),
            })
            .collect()
    })
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

/// Renders a valid generation from generated contents, field by field in
/// the `TRACKER` layout `segugio_model::container` documents, so a
/// decode → re-save must reproduce it.
fn render_generation(
    flagged: &BTreeMap<u32, u32>,
    confirmed: &BTreeMap<u32, (u32, u32)>,
    days_processed: usize,
    last_day: Option<u32>,
    pending: &[(u8, u32)],
    model: Option<f32>,
    trained_on: u32,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.count(flagged.len());
    for (&domain, &day) in flagged {
        w.put(domain);
        w.put(day);
    }
    w.count(confirmed.len());
    for (&domain, &(flagged_on, confirmed_on)) in confirmed {
        w.put(domain);
        w.put(flagged_on);
        w.put(confirmed_on);
    }
    w.put(days_processed as u64);
    w.flag(last_day.is_some());
    if let Some(day) = last_day {
        w.put(day);
    }
    w.count(pending.len());
    for &(kind, value) in pending {
        w.put(kind);
        w.put(value);
    }
    w.flag(model.is_some());
    if let Some(threshold) = model {
        w.put(threshold);
        w.put(trained_on);
    }
    let tracker = w.into_bytes();
    let mut sections = vec![(TRACKER, tracker.as_slice())];
    if model.is_some() {
        sections.push((MODEL, model_payload()));
    }
    container::encode(&sections)
}

proptest! {
    /// Raw soup never panics the loaders: the magic, frame and checksum
    /// layers reject it with a typed error (or, astronomically unlikely,
    /// it decodes — which is also fine).
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn raw_soup_is_rejected_or_parses(bytes in hostile_bytes()) {
        match Tracker::from_bytes(&bytes) {
            Ok(tracker) => {
                // Whatever decodes must re-save and re-load stably.
                prop_assert!(Tracker::from_bytes(&tracker.to_bytes()).is_ok());
            }
            // Typed errors always render a nonempty message.
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        if let Err(e) = SegugioModel::from_bytes(&bytes) {
            prop_assert!(!e.to_string().is_empty());
        }
    }

    /// Soup framed as *valid* sections — correct lengths and CRCs —
    /// reaches the payload readers, which must be equally total: typed
    /// error or a stable tracker, never a panic, hang, or giant
    /// allocation.
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn checksummed_soup_is_rejected_or_parses(
        tracker in hostile_bytes(),
        model in hostile_bytes(),
        with_model in any::<bool>(),
    ) {
        let mut sections = vec![(TRACKER, tracker.as_slice())];
        if with_model {
            sections.push((MODEL, model.as_slice()));
        }
        match Tracker::from_bytes(&container::encode(&sections)) {
            Ok(tracker) => prop_assert!(Tracker::from_bytes(&tracker.to_bytes()).is_ok()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        if let Ok(model) = SegugioModel::from_bytes(&container::encode(&[(MODEL, &model)])) {
            prop_assert!(SegugioModel::from_bytes(&model.to_bytes()).is_ok());
        }
    }

    /// A structurally valid generation with adversarial contents decodes,
    /// and save→load→save is a byte-identical fixed point — including NaN
    /// and ±inf thresholds, which travel as their bits.
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn valid_generations_are_a_byte_fixed_point(
        flagged in flag_map(0, 10_000),
        confirmed in confirm_map(),
        days_processed in 0usize..4000,
        last_day in maybe(0u32..5000),
        pending in pending_records(),
        model in (maybe(weird_f32()), 0u32..5000),
    ) {
        let (threshold, trained_on) = model;
        let doc = render_generation(
            &flagged, &confirmed, days_processed, last_day, &pending, threshold, trained_on,
        );
        let tracker = Tracker::from_bytes(&doc).expect("structurally valid generation decodes");
        prop_assert_eq!(tracker.days_processed(), days_processed);
        prop_assert_eq!(tracker.last_day().map(|d| d.0), last_day);
        prop_assert_eq!(tracker.pending().count(), flagged.len());
        prop_assert_eq!(tracker.noted_degradations().len(), pending.len());

        // The hand-rendered generation IS the codec's output format.
        let saved = tracker.to_bytes();
        prop_assert_eq!(&saved, &doc, "save(load(doc)) must equal doc byte-for-byte");

        // And the loop is closed: load(save(·)) → save is still identical.
        let reloaded = Tracker::from_bytes(&saved).expect("round-tripped generation decodes");
        prop_assert_eq!(reloaded.to_bytes(), saved);
    }

    /// Corrupting any single byte of a valid generation or model file is
    /// always detected: the frame's length and CRC, the magic and version,
    /// and the section order make the loader fail with a typed error
    /// rather than silently accept damaged state.
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn single_byte_corruption_is_always_detected(
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let doc = render_generation(
            &BTreeMap::from([(7u32, 3u32)]),
            &BTreeMap::new(),
            5,
            Some(9),
            &[(2, 4)],
            Some(0.25),
            3,
        );
        let mut bytes = doc.clone();
        let i = (at % bytes.len() as u64) as usize;
        bytes[i] ^= flip;
        prop_assert!(
            Tracker::from_bytes(&bytes).is_err(),
            "flipping byte {i} by {flip:#04x} went undetected"
        );
        let mut model = model_file().to_vec();
        let i = (at % model.len() as u64) as usize;
        model[i] ^= flip;
        prop_assert!(
            SegugioModel::from_bytes(&model).is_err(),
            "flipping model byte {i} by {flip:#04x} went undetected"
        );
    }

    /// Every strict prefix of a valid model file or generation is a typed
    /// error, never a panic: no section boundary is a place a file may
    /// end.
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn every_strict_prefix_is_a_typed_error(
        cut in any::<u64>(),
        flagged in flag_map(0, 10_000),
        section in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut tracker = Tracker::from_bytes(&render_generation(
            &flagged, &BTreeMap::new(), 3, Some(4), &[], Some(0.5), 2,
        ))
        .expect("valid generation decodes");
        tracker.attach_front_end(section);
        for whole in [tracker.to_bytes(), model_file().to_vec()] {
            let cut = (cut % whole.len() as u64) as usize;
            prop_assert!(Tracker::from_bytes(&whole[..cut]).is_err(), "prefix {cut}");
            prop_assert!(SegugioModel::from_bytes(&whole[..cut]).is_err(), "prefix {cut}");
        }
    }
}

// ---------------------------------------------------------------------------
// Group 4: the front-end section.

/// Section bytes hostile to the framing around it: a whole container, the
/// magic, tags, and bytes that are not text.
fn section_bytes() -> impl Strategy<Value = Vec<u8>> {
    let piece = (0u32..6, proptest::collection::vec(any::<u8>(), 0..40)).prop_map(
        |(kind, bytes)| match kind {
            0 => Tracker::new().to_bytes(),
            1 => MAGIC.to_vec(),
            2 => [TRACKER, FRONT_END].concat(),
            _ => bytes,
        },
    );
    proptest::collection::vec(piece, 0..6).prop_map(|pieces| pieces.concat())
}

proptest! {
    /// Whatever the front end attaches comes back byte for byte, under its
    /// own frame and checksum, and save→load→save stays a fixed point;
    /// with nothing attached the generation is exactly the tracker's own.
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn an_attached_section_rides_the_fixed_point(
        flagged in flag_map(0, 10_000),
        last_day in maybe(0u32..5000),
        pending in pending_records(),
        section in section_bytes(),
    ) {
        let bare = render_generation(
            &flagged, &BTreeMap::new(), 3, last_day, &pending, Some(0.5), 2,
        );
        let mut tracker = Tracker::from_bytes(&bare).expect("valid generation decodes");
        tracker.attach_front_end(section.clone());
        let saved = tracker.to_bytes();
        prop_assert!(saved.ends_with(&section));

        let mut reloaded = Tracker::from_bytes(&saved).expect("framed generation decodes");
        prop_assert_eq!(&reloaded.to_bytes(), &saved);
        prop_assert_eq!(reloaded.take_front_end(), Some(section));
        prop_assert_eq!(reloaded.to_bytes(), bare, "detached: the tracker's sections alone");

        // Any strict prefix of the framed generation is refused whole.
        let cut = saved.len() - 1 - (flagged.len() % saved.len().min(64));
        prop_assert!(Tracker::from_bytes(&saved[..cut]).is_err());
    }
}
