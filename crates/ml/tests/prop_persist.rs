//! Property-based tests for model parts and blocked scoring.
//!
//! Three groups:
//!
//! 1. **Hostile input** — arrays biased toward almost-trees fed to
//!    `RandomForest::from_parts` must either load or return a typed
//!    [`ParseModelError`]; they must never panic, hang, or over-allocate.
//!    Whatever loads must also `score()` to completion (the topology
//!    validation at load time is what makes traversal termination safe to
//!    promise), and a loaded forest's parts load again to the same scorer.
//! 2. **Round-trips** — randomly shaped forests whose thresholds and leaf
//!    probabilities include NaN, infinities and `-0.0` must round-trip
//!    through their parts bit-for-bit.
//! 3. **Blocked scoring** — [`RandomForest::score_rows`] scores random
//!    trained forests bit-identically to per-row `score()`.
//!
//! [`ParseModelError`]: segugio_ml::ParseModelError

use proptest::prelude::*;

use segugio_ml::{Classifier, Dataset, ForestConfig, ForestParts, RandomForest};

// ---------------------------------------------------------------------------
// Group 1: hostile input.

/// A node id biased toward small in-range values, with the leaf marker
/// and out-of-range ids mixed in.
fn node_id() -> impl Strategy<Value = u32> {
    (0u32..10, 0u32..12).prop_map(|(kind, n)| match kind {
        0..=2 => u32::MAX,
        3 => u32::MAX - 1,
        4 => 1 << 31,
        _ => n,
    })
}

/// Arrays of nearly equal lengths, so most cases reach the tree checks.
fn hostile_forest() -> impl Strategy<Value = ForestParts> {
    (
        0usize..8,
        proptest::collection::vec(node_id(), 0..4),
        proptest::collection::vec((0u16..9, weird_f32(), node_id()), 0..14),
        0u8..8,
    )
        .prop_map(|(n_features, roots, nodes, ragged)| {
            let mut parts = ForestParts {
                n_features,
                roots,
                feature_idx: nodes.iter().map(|n| n.0).collect(),
                threshold: nodes.iter().map(|n| n.1).collect(),
                children: nodes.iter().map(|n| n.2).collect(),
            };
            if ragged == 0 {
                parts.threshold.push(0.5);
            }
            parts
        })
}

// ---------------------------------------------------------------------------
// Group 2: round-trips.

/// f32 values weighted toward the edge cases the parts must keep.
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

/// Writes `shape` into node slot `at` of `parts`, the way the grower lays
/// a tree out: a split's children are appended as a pair, and the left
/// subtree is laid out before the right one.
fn emit(shape: &Shape, at: usize, parts: &mut ForestParts) {
    let pair = parts.children.len();
    let (feature, threshold, child) = match shape {
        Shape::Leaf(p) => (0, *p, u32::MAX),
        Shape::Split(feature, threshold, ..) => (*feature, *threshold, pair as u32),
    };
    parts.feature_idx[at] = feature;
    parts.threshold[at] = threshold;
    parts.children[at] = child;
    if let Shape::Split(_, _, left, right) = shape {
        parts.feature_idx.resize(pair + 2, 0);
        parts.threshold.resize(pair + 2, 0.0);
        parts.children.resize(pair + 2, u32::MAX);
        emit(left, pair, parts);
        emit(right, pair + 1, parts);
    }
}

fn forest_parts(shapes: &[Shape]) -> ForestParts {
    let mut parts = ForestParts {
        n_features: SHAPE_FEATURES as usize,
        roots: Vec::new(),
        feature_idx: Vec::new(),
        threshold: Vec::new(),
        children: Vec::new(),
    };
    for shape in shapes {
        let root = parts.children.len();
        parts.roots.push(root as u32);
        parts.feature_idx.push(0);
        parts.threshold.push(0.0);
        parts.children.push(u32::MAX);
        emit(shape, root, &mut parts);
    }
    parts
}

/// Equal arrays, thresholds compared by their bits.
fn same_parts(a: &ForestParts, b: &ForestParts) -> bool {
    let bits = |p: &ForestParts| p.threshold.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    (a.n_features, &a.roots, &a.feature_idx, &a.children, bits(a))
        == (b.n_features, &b.roots, &b.feature_idx, &b.children, bits(b))
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
    /// Hostile arrays never panic or hang the constructor, and whatever
    /// loads can be traversed: `score()` terminates because load-time
    /// validation rejected every child placed before its parent.
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn hostile_parts_are_rejected_or_usable(
        forest in hostile_forest(),
    ) {
        if let Ok(loaded) = RandomForest::from_parts(forest.clone()) {
            let row = vec![0.25f32; loaded.n_features()];
            let score = loaded.score(&row);
            // What loaded hands back its parts unchanged, and they load to
            // the same scorer.
            let parts = loaded.to_parts();
            prop_assert!(same_parts(&parts, &forest));
            let again = RandomForest::from_parts(parts).expect("loaded parts load again");
            prop_assert!(bits_match(again.score(&row), score));
        }
    }

    /// Structurally valid forests with NaN / ±inf / -0.0 payloads load,
    /// and their parts come back bit for bit: a save → load → save of the
    /// arrays is a fixed point, and scores are bit-identical (NaN-aware).
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn nonfinite_payloads_round_trip(
        shapes in shapes(),
        probe in proptest::collection::vec(-10.0f32..10.0, SHAPE_FEATURES as usize),
    ) {
        let parts1 = forest_parts(&shapes);
        let forest1 = RandomForest::from_parts(parts1.clone())
            .expect("structurally valid forest loads");
        let parts2 = forest1.to_parts();
        prop_assert!(same_parts(&parts1, &parts2), "parts bit for bit");
        let forest2 = RandomForest::from_parts(parts2).expect("round-tripped forest loads");
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
