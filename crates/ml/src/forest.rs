//! Bagged random forests.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::tree::{grow_tree, TreeConfig};
use crate::{Classifier, ParseModelError};

/// How each tree's training sample is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BootstrapMode {
    /// Classic bagging: `n` draws with replacement from all rows.
    #[default]
    Standard,
    /// Class-balanced bagging: each tree sees an equal number of positive
    /// and negative draws (with replacement), `2 * min(n_pos, n_neg)` total.
    /// This keeps trees sensitive to the rare malware class when negatives
    /// outnumber positives by orders of magnitude, as in ISP traffic.
    Balanced,
    /// No resampling: every tree sees the full dataset (only feature
    /// subsampling differs between trees).
    None,
}

/// Hyperparameters for [`RandomForest::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree CART parameters. When `tree.mtry` is `None`, it is set to
    /// `ceil(sqrt(n_features))` at fit time, the usual forest default.
    pub tree: TreeConfig,
    /// Bootstrap strategy.
    pub bootstrap: BootstrapMode,
    /// RNG seed; each tree derives an independent stream from it.
    pub seed: u64,
    /// Number of worker threads (0 = all available cores).
    pub threads: usize,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            tree: TreeConfig {
                max_depth: 24,
                min_samples_split: 4,
                min_samples_leaf: 2,
                mtry: None,
            },
            bootstrap: BootstrapMode::Balanced,
            seed: 0xD05_5E66,
            threads: 0,
        }
    }
}

/// Sentinel in [`RandomForest`]'s `children` array flagging a leaf node.
pub(crate) const LEAF: u32 = u32::MAX;

/// Row-block width for [`RandomForest::score_rows`]: 64 rows of 11
/// features is ~2.8 KiB, comfortably inside L1 alongside the hot node
/// arrays.
const SCORE_BLOCK: usize = 64;

/// A trained random forest; the malware score of a sample is the mean of the
/// per-tree leaf probabilities.
///
/// Every tree lives in three parallel node arrays: a `u16` split feature,
/// an `f32` threshold (the leaf probability on a leaf) and a `u32` left
/// child (the right child is always `left + 1`; `u32::MAX` flags a leaf).
/// The grower writes these arrays directly, one contiguous run of nodes
/// per tree with each split's children appended as a pair in depth-first
/// order, and the same arrays are walked for scoring and, as
/// [`ForestParts`], persisted.
///
/// # Example
///
/// ```
/// use segugio_ml::{Classifier, Dataset, ForestConfig, RandomForest};
///
/// let mut data = Dataset::new(1);
/// for i in 0..100 {
///     data.push(&[i as f32], i >= 50);
/// }
/// let forest = RandomForest::fit(&data, &ForestConfig { n_trees: 10, ..Default::default() });
/// assert!(forest.score(&[80.0]) > 0.8);
/// assert!(forest.score(&[10.0]) < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    /// Per-node split feature (row column); 0 on leaves.
    pub(crate) feature_idx: Vec<u16>,
    /// Per-node split threshold; the leaf probability on leaves.
    pub(crate) threshold: Vec<f32>,
    /// Per-node left-child index, or [`LEAF`].
    pub(crate) children: Vec<u32>,
    /// Root node of each tree, in tree order; a tree's nodes run from its
    /// root to the next root.
    pub(crate) roots: Vec<u32>,
    /// Width of the feature rows this forest scores.
    n_features: usize,
}

/// A forest's node arrays, as [`RandomForest::to_parts`] copies them out
/// and [`RandomForest::from_parts`] checks them back in.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestParts {
    /// Width of the feature rows the forest scores.
    pub n_features: usize,
    /// First node of each tree; a tree's nodes run to the next root.
    pub roots: Vec<u32>,
    /// Per-node split feature; 0 on leaves.
    pub feature_idx: Vec<u16>,
    /// Per-node split threshold; the leaf probability on leaves.
    pub threshold: Vec<f32>,
    /// Per-node left child (the right one is the next node), or
    /// `u32::MAX` on a leaf.
    pub children: Vec<u32>,
}

/// The name the benchmark harness under `benchmark/` uses for the scorer.
#[doc(hidden)]
pub type FlatForest = RandomForest;

impl RandomForest {
    /// Trains a forest.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `config.n_trees` is zero.
    pub fn fit(data: &Dataset, config: &ForestConfig) -> Self {
        assert!(!data.is_empty(), "cannot fit a forest on an empty dataset");
        assert!(config.n_trees > 0, "forest needs at least one tree");

        let mut tree_config = config.tree.clone();
        if tree_config.mtry.is_none() {
            tree_config.mtry = Some((data.n_features() as f64).sqrt().ceil() as usize);
        }

        let n_threads = if config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.threads
        }
        .min(config.n_trees);
        let tree_config = &tree_config;
        let rows = &ClassRows::of(data);
        if n_threads <= 1 {
            return Self::grow_run(data, tree_config, config, rows, 0..config.n_trees);
        }

        // One contiguous run of trees per worker, each grown into its own
        // node arrays, joined in tree order.
        let per_worker = config.n_trees.div_ceil(n_threads);
        let joined = crossbeam::thread::scope(|scope| {
            let workers: Vec<_> = (0..config.n_trees)
                .step_by(per_worker)
                .map(|first| {
                    let run = first..(first + per_worker).min(config.n_trees);
                    scope.spawn(move |_| Self::grow_run(data, tree_config, config, rows, run))
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| worker.join())
                .collect::<Result<Vec<_>, _>>()
        });
        let parts = match joined {
            Ok(Ok(parts)) => parts,
            Ok(Err(payload)) | Err(payload) => std::panic::resume_unwind(payload),
        };
        let mut forest = Self::empty(data.n_features());
        for part in &parts {
            forest.append(part);
        }
        forest
    }

    /// A forest with no trees, for rows of `n_features` columns.
    pub(crate) fn empty(n_features: usize) -> Self {
        RandomForest {
            feature_idx: Vec::new(),
            threshold: Vec::new(),
            children: Vec::new(),
            roots: Vec::new(),
            n_features,
        }
    }

    /// Grows the trees numbered `trees`, in order, into a fresh forest.
    fn grow_run(
        data: &Dataset,
        tree_config: &TreeConfig,
        config: &ForestConfig,
        rows: &ClassRows,
        trees: Range<usize>,
    ) -> Self {
        let mut part = Self::empty(data.n_features());
        for tree_index in trees {
            // Independent deterministic stream per tree.
            let mut rng = StdRng::seed_from_u64(
                config
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(tree_index as u64),
            );
            let indices = rows.draw(config.bootstrap, &mut rng);
            grow_tree(&mut part, data, &indices, tree_config, &mut rng);
        }
        part
    }

    /// Appends `other`'s trees after this forest's, rebasing its node ids.
    fn append(&mut self, other: &RandomForest) {
        let base = self.push_leaves(other.node_count());
        let at = base as usize;
        self.feature_idx[at..].copy_from_slice(&other.feature_idx);
        self.threshold[at..].copy_from_slice(&other.threshold);
        for (slot, &child) in self.children[at..].iter_mut().zip(&other.children) {
            if child != LEAF {
                *slot = child + base;
            }
        }
        self.roots
            .extend(other.roots.iter().map(|&root| root + base));
    }

    /// Appends `count` leaf nodes and returns the first one's id.
    pub(crate) fn push_leaves(&mut self, count: usize) -> u32 {
        let at = self.children.len();
        assert!(
            at + count < LEAF as usize,
            "forest too large for u32 node ids"
        );
        self.feature_idx.resize(at + count, 0);
        self.threshold.resize(at + count, 0.0);
        self.children.resize(at + count, LEAF);
        at as u32
    }

    /// Rewrites every split feature `f` to `columns[f]` and widens the
    /// forest to rows of `width` columns. A forest trained on a column
    /// subset then scores full rows with no per-row projection.
    ///
    /// # Panics
    ///
    /// Panics if `columns` does not cover the forest's arity, maps out of
    /// `width`, or `width` exceeds the `u16` feature range.
    pub fn remap_columns(&mut self, columns: &[usize], width: usize) {
        assert_eq!(
            columns.len(),
            self.n_features,
            "column map must cover the forest's arity"
        );
        assert!(
            columns.iter().all(|&c| c < width),
            "column map must stay inside the row width"
        );
        assert!(width <= u16::MAX as usize + 1, "row width exceeds u16");
        for (feature, &child) in self.feature_idx.iter_mut().zip(&self.children) {
            if child != LEAF {
                *feature = columns[*feature as usize] as u16;
            }
        }
        self.n_features = width;
    }

    /// A clone of `forest`: the benchmark harness builds its scorer with
    /// this call.
    #[doc(hidden)]
    pub fn from_forest(forest: &RandomForest) -> Self {
        forest.clone()
    }

    /// The node arrays, copied out for a writer to persist.
    pub fn to_parts(&self) -> ForestParts {
        ForestParts {
            n_features: self.n_features,
            roots: self.roots.clone(),
            feature_idx: self.feature_idx.clone(),
            threshold: self.threshold.clone(),
            children: self.children.clone(),
        }
    }

    /// A forest from node arrays a reader decoded.
    ///
    /// # Errors
    ///
    /// [`ParseModelError`] unless the arrays form trees: they agree in
    /// length; there is a tree, each has nodes, the first starts at node 0
    /// and the others follow in order; node ids fit a `u32`; the row width
    /// is in the `u16` feature range and every feature below it; and each
    /// split's child pair comes after the split and inside its tree, every
    /// node but a root being some split's child exactly once.
    /// Parent-before-child rules out cycles, so every forest that loads
    /// can be walked to a leaf.
    pub fn from_parts(parts: ForestParts) -> Result<Self, ParseModelError> {
        let ForestParts {
            n_features,
            roots,
            feature_idx,
            threshold,
            children,
        } = parts;
        let n = children.len();
        let fail = |message: &str| Err(ParseModelError::new(message));
        if feature_idx.len() != n || threshold.len() != n {
            return fail("node arrays differ in length");
        }
        if n >= LEAF as usize {
            return fail("forest too large for u32 node ids");
        }
        if n_features == 0 || n_features > u16::MAX as usize + 1 {
            return fail("forest feature count out of range");
        }
        if feature_idx.iter().any(|&f| usize::from(f) >= n_features) {
            return fail("split feature out of range");
        }
        if roots.first() != Some(&0) {
            return fail("forest must contain trees, the first at node 0");
        }
        let mut reached = vec![false; n];
        for (tree, &root) in roots.iter().enumerate() {
            let start = root as usize;
            let end = roots.get(tree + 1).map_or(n, |&next| next as usize);
            if start >= end || end > n {
                return fail("tree must have nodes, trees in order");
            }
            for (i, &child) in children.iter().enumerate().take(end).skip(start) {
                if child == LEAF {
                    continue;
                }
                let left = child as usize;
                if left <= i {
                    return fail("child does not come after its parent");
                }
                if left + 1 >= end {
                    return fail("node child index out of range");
                }
                if reached[left] || reached[left + 1] {
                    return fail("node is the child of two splits");
                }
                reached[left] = true;
                reached[left + 1] = true;
            }
            // The root is nobody's child; every other node must be somebody's.
            if reached[start + 1..end].contains(&false) {
                return fail("unreachable nodes");
            }
        }
        Ok(RandomForest {
            feature_idx,
            threshold,
            children,
            roots,
            n_features,
        })
    }

    /// Number of trees.
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// Total node count across all trees.
    pub fn node_count(&self) -> usize {
        self.children.len()
    }

    /// Width of the feature rows this forest scores.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    #[inline]
    fn walk(&self, root: u32, row: &[f32]) -> f32 {
        let mut i = root as usize;
        loop {
            let child = self.children[i];
            if child == LEAF {
                return self.threshold[i];
            }
            let go_left = row[self.feature_idx[i] as usize] <= self.threshold[i];
            i = child as usize + usize::from(!go_left);
        }
    }

    /// Scores one block of rows, trees outer / rows inner, accumulating
    /// into `out` in tree order (the per-row summation order).
    fn score_block<const W: usize>(&self, rows: &[[f32; W]], out: &mut [f32]) {
        for s in out.iter_mut() {
            *s = 0.0;
        }
        for &root in &self.roots {
            for (row, s) in rows.iter().zip(out.iter_mut()) {
                *s += self.walk(root, row);
            }
        }
        let n_trees = self.roots.len() as f32;
        for s in out.iter_mut() {
            *s /= n_trees;
        }
    }

    /// Scores `rows` into `out` in 64-row blocks, trees
    /// outer / rows inner, so each block stays cache-resident while every
    /// tree walks it. Scores are bit-for-bit those of
    /// [`score`](Classifier::score): per row, leaf probabilities add up in
    /// tree order with the same final division.
    ///
    /// # Panics
    ///
    /// Panics if `W` is not the forest's row width or the slices disagree
    /// in length.
    pub fn score_rows<const W: usize>(&self, rows: &[[f32; W]], out: &mut [f32]) {
        assert_eq!(W, self.n_features, "feature arity mismatch");
        assert_eq!(rows.len(), out.len(), "rows and output disagree");
        for (rows, out) in rows.chunks(SCORE_BLOCK).zip(out.chunks_mut(SCORE_BLOCK)) {
            self.score_block(rows, out);
        }
    }
}

impl Classifier for RandomForest {
    fn score(&self, features: &[f32]) -> f32 {
        assert_eq!(features.len(), self.n_features, "feature arity mismatch");
        let mut sum = 0.0f32;
        for &root in &self.roots {
            sum += self.walk(root, features);
        }
        sum / self.roots.len() as f32
    }
}

/// Row indices of each class, split once per fit: every tree's bootstrap
/// draws from the same lists.
struct ClassRows {
    pos: Vec<u32>,
    neg: Vec<u32>,
}

impl ClassRows {
    fn of(data: &Dataset) -> Self {
        let (pos, neg) = (0..data.len() as u32).partition(|&i| data.label(i as usize));
        ClassRows { pos, neg }
    }

    /// Draws one tree's training sample.
    fn draw<R: Rng>(&self, mode: BootstrapMode, rng: &mut R) -> Vec<u32> {
        let (pos, neg) = (&self.pos, &self.neg);
        let n = pos.len() + neg.len();
        match mode {
            BootstrapMode::None => (0..n as u32).collect(),
            BootstrapMode::Balanced if !pos.is_empty() && !neg.is_empty() => {
                let per_class = pos.len().min(neg.len());
                let mut out = Vec::with_capacity(per_class * 2);
                for _ in 0..per_class {
                    out.push(pos[rng.gen_range(0..pos.len())]);
                    out.push(neg[rng.gen_range(0..neg.len())]);
                }
                out
            }
            // Standard bagging, also the balanced mode's fallback on
            // single-class data.
            BootstrapMode::Standard | BootstrapMode::Balanced => {
                (0..n).map(|_| rng.gen_range(0..n) as u32).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable(n: usize) -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..n {
            let x = i as f32 / n as f32;
            d.push(&[x, (i % 7) as f32], x >= 0.5);
        }
        d
    }

    fn fit(data: &Dataset, n_trees: usize) -> RandomForest {
        RandomForest::fit(
            data,
            &ForestConfig {
                n_trees,
                ..ForestConfig::default()
            },
        )
    }

    /// 240 noisy 5-feature rows from a fixed xorshift stream.
    fn golden_data() -> Dataset {
        let mut data = Dataset::new(5);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        for _ in 0..240 {
            let row: Vec<f32> = (0..5).map(|_| next()).collect();
            let noise = next();
            let label = row[0] + 0.5 * row[2] - 0.3 * row[4] + 0.4 * noise > 0.8;
            data.push(&row, label);
        }
        data
    }

    /// The grower, the bootstrap and the per-tree RNG streams are pinned:
    /// node count and score bits (every 15th row) recorded from the arena
    /// grower this one replaced. Any change to a single draw, split or
    /// leaf estimate moves them.
    #[test]
    fn fit_is_pinned_to_golden_scores() {
        const GOLDEN: [u32; 16] = [
            0x3e85_4d54,
            0x3f7a_d9a7,
            0x3f76_d595,
            0x3d0c_4849,
            0x3f2b_5859,
            0x3f78_441e,
            0x3d0e_782c,
            0x3f7b_40cc,
            0x3d55_88ed,
            0x3c85_6aec,
            0x3f4d_44b4,
            0x3f7b_9ce4,
            0x3ceb_3299,
            0x3f52_2c0b,
            0x3f1e_fd6c,
            0x3c85_6aec,
        ];
        let data = golden_data();
        assert_eq!(data.positive_count(), 114);
        for threads in [1, 2] {
            let config = ForestConfig {
                n_trees: 9,
                seed: 33,
                threads,
                ..ForestConfig::default()
            };
            let forest = RandomForest::fit(&data, &config);
            assert_eq!(forest.node_count(), 347, "threads {threads}");
            let bits: Vec<u32> = (0..data.len())
                .step_by(15)
                .map(|i| forest.score(data.row(i)).to_bits())
                .collect();
            assert_eq!(bits, GOLDEN, "threads {threads}");
        }
    }

    #[test]
    fn forest_learns_separable_data() {
        let f = fit(&separable(200), 20);
        assert_eq!(f.tree_count(), 20);
        assert!(f.score(&[0.9, 0.0]) > 0.9);
        assert!(f.score(&[0.1, 0.0]) < 0.1);
    }

    #[test]
    fn parallel_matches_serial() {
        // 8 trees over 3 workers: runs of 3, 3 and 2 trees.
        let data = separable(100);
        let forest = |threads| {
            RandomForest::fit(
                &data,
                &ForestConfig {
                    n_trees: 8,
                    threads,
                    ..ForestConfig::default()
                },
            )
        };
        let serial = forest(1).to_parts();
        for threads in [3, 4] {
            assert_eq!(serial, forest(threads).to_parts(), "threads {threads}");
        }
    }

    #[test]
    fn balanced_bootstrap_handles_imbalance() {
        // 5 positives vs 500 negatives; balanced mode must still rank
        // positives above negatives.
        let mut d = Dataset::new(1);
        for i in 0..500 {
            d.push(&[(i % 50) as f32], false);
        }
        for _ in 0..5 {
            d.push(&[100.0], true);
        }
        let f = RandomForest::fit(
            &d,
            &ForestConfig {
                n_trees: 15,
                bootstrap: BootstrapMode::Balanced,
                ..ForestConfig::default()
            },
        );
        assert!(f.score(&[100.0]) > f.score(&[10.0]));
        assert!(f.score(&[100.0]) > 0.8);
    }

    #[test]
    fn single_class_data_degrades_gracefully() {
        let mut d = Dataset::new(1);
        for i in 0..20 {
            d.push(&[i as f32], false);
        }
        assert!(fit(&d, 3).score(&[5.0]) < 0.1);
    }

    /// One tree over rows of `n_features`, from `(feature, threshold,
    /// left)` nodes; `LEAF` marks a leaf whose threshold is its probability.
    fn one_tree(n_features: usize, nodes: &[(u16, f32, u32)]) -> ForestParts {
        ForestParts {
            n_features,
            roots: vec![0],
            feature_idx: nodes.iter().map(|n| n.0).collect(),
            threshold: nodes.iter().map(|n| n.1).collect(),
            children: nodes.iter().map(|n| n.2).collect(),
        }
    }

    #[test]
    fn parts_round_trip() {
        let data = separable(80);
        let f = fit(&data, 6);
        let f2 = RandomForest::from_parts(f.to_parts()).unwrap();
        assert_eq!(f2.tree_count(), 6);
        assert_eq!(f2.to_parts(), f.to_parts());
        for i in 0..data.len() {
            assert_eq!(
                f.score(data.row(i)).to_bits(),
                f2.score(data.row(i)).to_bits()
            );
        }
    }

    #[test]
    fn from_parts_rejects_garbage() {
        let leaf = (0, 0.5, LEAF);
        let mut no_trees = one_tree(2, &[leaf]);
        no_trees.roots.clear();
        let mut ragged = one_tree(2, &[leaf]);
        ragged.threshold.push(0.5);
        let mut empty_tree = one_tree(2, &[leaf]);
        empty_tree.roots.push(0);
        let mut past_end = one_tree(2, &[leaf]);
        past_end.roots.push(5);
        for parts in [
            no_trees,
            ragged,
            empty_tree,
            past_end,
            one_tree(0, &[leaf]),
            one_tree(65537, &[leaf]),
            one_tree(2, &[]),
            one_tree(2, &[(9, 1.0, 1), leaf, leaf]),
        ] {
            assert!(
                RandomForest::from_parts(parts.clone()).is_err(),
                "{parts:?}"
            );
        }
    }

    #[test]
    fn from_parts_rejects_non_trees() {
        let leaf = |p: f32| (0, p, LEAF);
        for nodes in [
            // Self-loop: a child at or before its parent.
            vec![(0, 0.5, 0), leaf(0.2), leaf(0.8)],
            // Back-edge to the root from a later split.
            vec![(0, 0.5, 1), leaf(0.2), (1, 0.5, 0), leaf(0.1), leaf(0.9)],
            // Pair out of range.
            vec![(0, 0.5, 2), leaf(0.2), leaf(0.8)],
            // Shared child: node 2 is in both pairs.
            vec![(0, 0.5, 1), (1, 0.5, 2), leaf(0.2), leaf(0.1), leaf(0.9)],
            // Orphans: nodes 3 and 4 are nobody's children.
            vec![(0, 0.5, 1), leaf(0.2), leaf(0.8), leaf(0.1), leaf(0.9)],
        ] {
            assert!(
                RandomForest::from_parts(one_tree(2, &nodes)).is_err(),
                "{nodes:?}"
            );
        }
        // A pair may not reach into the next tree.
        let mut two = one_tree(2, &[(0, 0.5, 1), leaf(0.2), leaf(0.8)]);
        two.roots.push(2);
        assert!(RandomForest::from_parts(two).is_err());
        // Pairs need not be in depth-first order: a breadth-first layout
        // is a tree too.
        let bfs = [
            (0, 0.5, 1),
            (1, 0.5, 5),
            (1, 0.5, 3),
            leaf(0.3),
            leaf(0.4),
            leaf(0.1),
            leaf(0.2),
        ];
        let f = RandomForest::from_parts(one_tree(2, &bfs)).unwrap();
        assert_eq!(f.score(&[0.0, 0.0]), 0.1);
        assert_eq!(f.score(&[0.0, 1.0]), 0.2);
        assert_eq!(f.score(&[1.0, 0.0]), 0.3);
        assert_eq!(f.score(&[1.0, 1.0]), 0.4);
    }

    #[test]
    fn path_shaped_trees_load_and_score() {
        // A comb: each split's left child is a leaf and its right child the
        // next split. Validation and scoring are iterative, so depth is
        // bounded only by the node count, not by the call stack.
        let depth = 100_000u32;
        let mut nodes = Vec::new();
        for i in 0..depth {
            nodes.push((0, i as f32, 2 * i + 1));
            nodes.push((0, 0.25, LEAF));
        }
        nodes.push((0, 0.75, LEAF));
        let f = RandomForest::from_parts(one_tree(1, &nodes)).unwrap();
        // Always greater than every threshold: walks the full comb.
        assert_eq!(f.score(&[1e9]), 0.75);
        assert_eq!(f.score(&[-1.0]), 0.25);
    }

    #[test]
    fn blocked_scoring_matches_per_row() {
        let mut data = Dataset::new(3);
        for i in 0..200 {
            let x = i as f32 / 200.0;
            data.push(&[x, (i % 7) as f32, (i % 3) as f32], x >= 0.5);
        }
        let forest = fit(&data, 9);
        // 150 rows: two full blocks plus a ragged tail.
        let rows: Vec<[f32; 3]> = (0..150)
            .map(|i| {
                let r = data.row(i);
                [r[0], r[1], r[2]]
            })
            .collect();
        let mut out = vec![0.0f32; rows.len()];
        forest.score_rows(&rows, &mut out);
        for (row, &s) in rows.iter().zip(&out) {
            assert_eq!(s.to_bits(), forest.score(row).to_bits());
        }
    }

    #[test]
    fn remapped_forest_scores_wide_rows_without_projection() {
        // Train on a 2-column projection [2, 0] of 5-wide rows.
        let wide: Vec<[f32; 5]> = (0..120)
            .map(|i| {
                let x = i as f32 / 120.0;
                [x, 99.0, (i % 5) as f32, -1.0, 7.0]
            })
            .collect();
        let mut data = Dataset::new(2);
        for row in &wide {
            data.push(&[row[2], row[0]], row[0] >= 0.5);
        }
        let narrow = fit(&data, 7);
        let mut remapped = narrow.clone();
        remapped.remap_columns(&[2, 0], 5);
        assert_eq!(remapped.n_features(), 5);
        for (i, row) in wide.iter().enumerate() {
            assert_eq!(
                remapped.score(row).to_bits(),
                narrow.score(&[row[2], row[0]]).to_bits(),
                "row {i} diverged"
            );
        }
    }

    #[test]
    #[should_panic(expected = "feature arity mismatch")]
    fn wrong_width_is_rejected() {
        let mut data = Dataset::new(3);
        for i in 0..40 {
            data.push(&[i as f32, 0.0, 1.0], i >= 20);
        }
        fit(&data, 2).score(&[0.5, 1.0]);
    }

    #[test]
    fn score_all_matches_score() {
        let data = separable(60);
        let f = fit(&data, 5);
        let all = f.score_all(&data);
        assert_eq!(all.len(), data.len());
        for i in [0usize, 10, 59] {
            assert_eq!(all[i], f.score(data.row(i)));
        }
    }
}
