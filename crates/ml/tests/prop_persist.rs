//! Property-based tests for model persistence and blocked scoring.
//!
//! Three groups:
//!
//! 1. **Hostile input** — grammar-biased token soup fed to the
//!    `read_text` parsers must either parse or return a typed
//!    [`ParseModelError`]; it must never panic, hang, or over-allocate.
//!    Whatever parses must also `score()` to completion (the topology
//!    validation at parse time is what makes traversal termination safe
//!    to promise), and a parsed forest writes back text that reads again.
//! 2. **Round-trips** — randomly shaped forests whose thresholds and leaf
//!    probabilities include NaN, infinities and `-0.0` must round-trip
//!    through the text format bit-for-bit (NaN-aware: Display collapses
//!    NaN payloads to the one canonical quiet NaN the parser returns).
//! 3. **Blocked scoring** — [`RandomForest::score_rows`] scores random
//!    trained forests bit-identically to per-row `score()`.
//!
//! [`ParseModelError`]: segugio_ml::ParseModelError

use proptest::prelude::*;

use segugio_ml::{Classifier, Dataset, ForestConfig, GradientBoosting, RandomForest};

// ---------------------------------------------------------------------------
// Group 1: hostile input.

/// Tokens biased toward the persistence grammar so generated soup reaches
/// deep parser states (node loops, child validation, topology checks)
/// instead of dying at the first header.
fn token() -> impl Strategy<Value = String> {
    (0u32..20, 0u32..40, -2.0f32..2.0).prop_map(|(kind, n, x)| match kind {
        0 => "tree".to_string(),
        1 => "forest".to_string(),
        2 => "boosting".to_string(),
        3 => "rtree".to_string(),
        4 => "logistic".to_string(),
        5 => "L".to_string(),
        6 => "S".to_string(),
        7 => "NaN".to_string(),
        8 => "inf".to_string(),
        9 => "-inf".to_string(),
        // Newlines are weighted up: the parsers are line-oriented, so soup
        // without line breaks never leaves the header.
        10..=13 => "\n".to_string(),
        // Parses as usize but would be a ~1 TiB allocation if the readers
        // trusted it for `Vec::with_capacity`.
        14 => "68719476736".to_string(),
        // Overflows usize on 64-bit: must surface as a malformed field.
        15 => "99999999999999999999".to_string(),
        16 => format!("{x}"),
        17 => format!("-{n}"),
        _ => n.to_string(),
    })
}

fn hostile_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(token(), 0..150).prop_map(|tokens| tokens.join(" "))
}

// ---------------------------------------------------------------------------
// Group 2: round-trips.

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

/// A structurally valid tree with adversarial float payloads.
#[derive(Debug, Clone)]
enum Shape {
    Leaf(f32),
    Split(u16, f32, Box<Shape>, Box<Shape>),
}

const SHAPE_FEATURES: u16 = 5;

/// Decodes a flat spec stream into a tree: odd kinds split (until the
/// stream or the depth budget runs out), even kinds stop at a leaf.
fn build_shape(spec: &[(u8, u16, f32)], pos: &mut usize, depth: usize) -> Shape {
    let (kind, feature, value) = spec.get(*pos).copied().unwrap_or((0, 0, 0.5));
    *pos += 1;
    if depth >= 6 || kind % 2 == 0 {
        Shape::Leaf(value)
    } else {
        let left = Box::new(build_shape(spec, pos, depth + 1));
        let right = Box::new(build_shape(spec, pos, depth + 1));
        Shape::Split(feature % SHAPE_FEATURES, value, left, right)
    }
}

fn shapes() -> impl Strategy<Value = Vec<Shape>> {
    let shape = proptest::collection::vec((any::<u8>(), any::<u16>(), weird_f32()), 1..80)
        .prop_map(|spec| build_shape(&spec, &mut 0, 0));
    proptest::collection::vec(shape, 1..4)
}

/// Writes `shape` into node slot `at` of `lines`, the way the grower lays
/// a tree out: a split's children are appended as a pair, and the left
/// subtree is laid out before the right one.
fn emit(shape: &Shape, at: usize, lines: &mut Vec<String>) {
    match shape {
        Shape::Leaf(p) => lines[at] = format!("L {p}"),
        Shape::Split(feature, threshold, left, right) => {
            let pair = lines.len();
            lines.resize(pair + 2, String::new());
            lines[at] = format!("S {feature} {threshold} {pair}");
            emit(left, pair, lines);
            emit(right, pair + 1, lines);
        }
    }
}

fn forest_text(shapes: &[Shape]) -> String {
    let mut text = format!("forest {} {}\n", shapes.len(), SHAPE_FEATURES);
    for shape in shapes {
        let mut lines = vec![String::new()];
        emit(shape, 0, &mut lines);
        text.push_str(&format!("tree {}\n{}\n", lines.len(), lines.join("\n")));
    }
    text
}

fn bits_match(a: f32, b: f32) -> bool {
    if a.is_nan() {
        b.is_nan()
    } else {
        a.to_bits() == b.to_bits()
    }
}

// ---------------------------------------------------------------------------
// Group 3: blocked scoring.

fn labeled_rows() -> impl Strategy<Value = Vec<(Vec<f32>, bool)>> {
    proptest::collection::vec(
        (proptest::collection::vec(-50.0f32..50.0, 4), any::<bool>()),
        8..60,
    )
    .prop_filter("need both classes", |rows| {
        rows.iter().any(|(_, l)| *l) && rows.iter().any(|(_, l)| !*l)
    })
}

proptest! {
    /// Token soup never panics or hangs any of the parsers, and whatever
    /// parses can be traversed: `score()` terminates because parse-time
    /// validation rejected every child placed before its parent.
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn hostile_text_is_rejected_or_usable(text in hostile_text()) {
        if let Ok(forest) = RandomForest::read_text(&mut text.lines()) {
            let row = vec![0.25f32; forest.n_features()];
            let score = forest.score(&row);
            // What parsed writes back as text that parses to the same.
            let mut written = String::new();
            forest.write_text(&mut written);
            let again = RandomForest::read_text(&mut written.lines())
                .expect("written forest parses");
            prop_assert!(bits_match(again.score(&row), score));
        }
        if let Ok(boosting) = GradientBoosting::read_text(&mut text.lines()) {
            // The format carries no arity header, so score with the widest
            // row a u16 split feature can reference.
            let row = vec![0.25f32; u16::MAX as usize + 1];
            prop_assert!(boosting.n_features() <= row.len());
            let _ = boosting.score(&row);
        }
    }

    /// Structurally valid forests with NaN / ±inf / -0.0 payloads parse,
    /// and one write/read cycle is a fixed point: the re-serialized text
    /// is byte-identical and scores are bit-identical (NaN-aware).
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn nonfinite_payloads_round_trip(
        shapes in shapes(),
        probe in proptest::collection::vec(-10.0f32..10.0, SHAPE_FEATURES as usize),
    ) {
        let text1 = forest_text(&shapes);
        let forest1 = RandomForest::read_text(&mut text1.lines())
            .expect("structurally valid forest parses");
        let mut text2 = String::new();
        forest1.write_text(&mut text2);
        prop_assert_eq!(&text1, &text2, "write is the identity on parsed text");
        let forest2 = RandomForest::read_text(&mut text2.lines())
            .expect("round-tripped forest parses");
        prop_assert_eq!(forest1.node_count(), forest2.node_count());
        prop_assert!(
            bits_match(forest1.score(&probe), forest2.score(&probe)),
            "scores diverged after round-trip"
        );
    }

    /// Blocked scoring reproduces per-row scoring bit-for-bit on random
    /// trained forests (cycled past the 64-row block so block boundaries
    /// and the ragged tail run).
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn blocked_scoring_matches_per_row_on_random_forests(
        rows in labeled_rows(),
        n_trees in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut data = Dataset::new(4);
        for (x, y) in &rows {
            data.push(x, *y);
        }
        let forest = RandomForest::fit(
            &data,
            &ForestConfig { n_trees, seed, ..Default::default() },
        );
        let blocked_rows: Vec<[f32; 4]> = rows
            .iter()
            .cycle()
            .take(150)
            .map(|(x, _)| [x[0], x[1], x[2], x[3]])
            .collect();
        let mut out = vec![0.0f32; blocked_rows.len()];
        forest.score_rows(&blocked_rows, &mut out);
        for (row, &blocked) in blocked_rows.iter().zip(&out) {
            prop_assert_eq!(blocked.to_bits(), forest.score(row).to_bits());
        }
    }
}
