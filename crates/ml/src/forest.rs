//! Bagged random forests.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::persist::{self, ParseModelError};
use crate::tree::{grow_tree, TreeConfig};
use crate::Classifier;

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
/// order, and the same arrays are walked for scoring and written to disk.
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

    /// Serializes the forest into the line-oriented persistence format:
    /// a `forest <trees> <features>` header, then per tree a `tree <nodes>`
    /// line and its nodes in array order, `S <feature> <threshold> <left>`
    /// or `L <probability>`, with `left` counted from the tree's root.
    pub fn write_text(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "forest {} {}", self.roots.len(), self.n_features);
        for tree in 0..self.roots.len() {
            let nodes = self.tree_nodes(tree);
            let root = nodes.start as u32;
            let _ = writeln!(out, "tree {}", nodes.len());
            for i in nodes {
                let (feature, threshold) = (self.feature_idx[i], self.threshold[i]);
                match self.children[i] {
                    LEAF => {
                        let _ = writeln!(out, "L {threshold}");
                    }
                    left => {
                        let _ = writeln!(out, "S {feature} {threshold} {}", left - root);
                    }
                }
            }
        }
    }

    /// Reads a forest from the persistence format.
    ///
    /// # Errors
    ///
    /// Returns [`ParseModelError`] on malformed input: a wrong header or
    /// node count, a split feature outside the row width, or child links
    /// that do not form a tree — each split's pair must come after it and
    /// inside the tree, and every node but the root must be some split's
    /// child exactly once. Parent-before-child rules out cycles, so every
    /// forest that parses can be walked to a leaf.
    pub fn read_text<'a>(
        lines: &mut impl Iterator<Item = &'a str>,
    ) -> Result<Self, ParseModelError> {
        let header = persist::next_line(lines, "forest header")?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("forest") {
            return Err(ParseModelError::new("expected `forest` header"));
        }
        let n_trees: usize = persist::field(parts.next(), "forest tree count")?;
        let n_features: usize = persist::field(parts.next(), "forest feature count")?;
        if n_trees == 0 {
            return Err(ParseModelError::new("forest must contain trees"));
        }
        if n_features == 0 || n_features > u16::MAX as usize + 1 {
            return Err(ParseModelError::new("forest feature count out of range"));
        }
        let mut forest = Self::empty(n_features);
        let mut reached = Vec::new();
        for _ in 0..n_trees {
            forest
                .read_tree(lines, &mut reached)
                .map_err(|e| e.context("tree"))?;
        }
        Ok(forest)
    }

    /// Reads one `tree` block and appends it; `reached` is scratch for the
    /// one-parent-per-node check.
    fn read_tree<'a>(
        &mut self,
        lines: &mut impl Iterator<Item = &'a str>,
        reached: &mut Vec<bool>,
    ) -> Result<(), ParseModelError> {
        let header = persist::next_line(lines, "tree header")?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("tree") {
            return Err(ParseModelError::new("expected `tree` header"));
        }
        let n_nodes: usize = persist::field(parts.next(), "tree node count")?;
        if n_nodes == 0 {
            return Err(ParseModelError::new("tree must have nodes"));
        }
        if self.children.len() + n_nodes >= LEAF as usize {
            return Err(ParseModelError::new("forest too large for u32 node ids"));
        }
        let root = self.children.len() as u32;
        self.roots.push(root);
        for i in 0..n_nodes {
            let line = persist::next_line(lines, "tree node")?;
            let mut parts = line.split_whitespace();
            let (feature, threshold, child) = match parts.next() {
                Some("L") => (0, persist::field(parts.next(), "leaf probability")?, LEAF),
                Some("S") => {
                    let feature: u16 = persist::field(parts.next(), "split feature")?;
                    let threshold = persist::field(parts.next(), "split threshold")?;
                    let left: usize = persist::field(parts.next(), "split left child")?;
                    if feature as usize >= self.n_features {
                        return Err(ParseModelError::new("split feature out of range"));
                    }
                    if left <= i {
                        return Err(ParseModelError::new("child does not come after its parent"));
                    }
                    if left + 1 >= n_nodes {
                        return Err(ParseModelError::new("node child index out of range"));
                    }
                    (feature, threshold, root + left as u32)
                }
                _ => {
                    return Err(ParseModelError::new(
                        "expected node line `L ...` or `S ...`",
                    ))
                }
            };
            if parts.next().is_some() {
                return Err(ParseModelError::new("trailing field on node line"));
            }
            self.feature_idx.push(feature);
            self.threshold.push(threshold);
            self.children.push(child);
        }
        // Sized only now: `n_nodes` lines have actually been read.
        reached.clear();
        reached.resize(n_nodes, false);
        for &child in &self.children[root as usize..] {
            if child != LEAF {
                let left = (child - root) as usize;
                if reached[left] || reached[left + 1] {
                    return Err(ParseModelError::new("node is the child of two splits"));
                }
                reached[left] = true;
                reached[left + 1] = true;
            }
        }
        // The root is nobody's child; every other node must be somebody's.
        if reached[1..].contains(&false) {
            return Err(ParseModelError::new("unreachable nodes"));
        }
        Ok(())
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

    /// The node ids of tree `tree`.
    fn tree_nodes(&self, tree: usize) -> Range<usize> {
        let start = self.roots[tree] as usize;
        let end = self
            .roots
            .get(tree + 1)
            .map_or(self.children.len(), |&next| next as usize);
        start..end
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
        let mut serial = String::new();
        forest(1).write_text(&mut serial);
        for threads in [3, 4] {
            let mut parallel = String::new();
            forest(threads).write_text(&mut parallel);
            assert_eq!(serial, parallel, "threads {threads}");
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

    #[test]
    fn forest_text_round_trip() {
        let data = separable(80);
        let f = fit(&data, 6);
        let mut text = String::new();
        f.write_text(&mut text);
        let f2 = RandomForest::read_text(&mut text.lines()).unwrap();
        assert_eq!(f2.tree_count(), 6);
        assert_eq!(f2.node_count(), f.node_count());
        let mut text2 = String::new();
        f2.write_text(&mut text2);
        assert_eq!(text, text2);
        for i in 0..data.len() {
            assert_eq!(
                f.score(data.row(i)).to_bits(),
                f2.score(data.row(i)).to_bits()
            );
        }
    }

    #[test]
    fn read_text_rejects_garbage() {
        for text in [
            "nope",
            "forest 0 2",
            // v1: no feature count on the forest line, two per tree line.
            "forest 1\ntree 2 1\nL 0.5",
            "forest 1 0\ntree 1\nL 0.5",
            "forest 1 65537\ntree 1\nL 0.5",
            "forest 1 2\ntree 1\nX 1",
            "forest 1 2\ntree 2\nL 0.5",
            "forest 1 2\ntree 3\nS 9 1.0 1\nL 0.5\nL 0.5",
            // v1 split lines carry the right child too.
            "forest 1 2\ntree 3\nS 0 1.0 1 2\nL 0.5\nL 0.5",
            "forest 2 2\ntree 1\nL 0.5",
        ] {
            assert!(
                RandomForest::read_text(&mut text.lines()).is_err(),
                "{text:?}"
            );
        }
    }

    #[test]
    fn read_text_rejects_non_trees() {
        for text in [
            // Self-loop: a child at or before its parent.
            "forest 1 2\ntree 3\nS 0 0.5 0\nL 0.2\nL 0.8",
            // Back-edge to the root from a later split.
            "forest 1 2\ntree 5\nS 0 0.5 1\nL 0.2\nS 1 0.5 0\nL 0.1\nL 0.9",
            // Pair out of range.
            "forest 1 2\ntree 3\nS 0 0.5 2\nL 0.2\nL 0.8",
            // Shared child: node 2 is in both pairs.
            "forest 1 2\ntree 5\nS 0 0.5 1\nS 1 0.5 2\nL 0.2\nL 0.1\nL 0.9",
            // Orphans: nodes 3 and 4 are nobody's children.
            "forest 1 2\ntree 5\nS 0 0.5 1\nL 0.2\nL 0.8\nL 0.1\nL 0.9",
        ] {
            assert!(
                RandomForest::read_text(&mut text.lines()).is_err(),
                "{text:?}"
            );
        }
        // Pairs need not be in depth-first order: a breadth-first layout
        // is a tree too.
        let bfs = "forest 1 2\ntree 7\nS 0 0.5 1\nS 1 0.5 5\nS 1 0.5 3\n\
                   L 0.3\nL 0.4\nL 0.1\nL 0.2";
        let f = RandomForest::read_text(&mut bfs.lines()).unwrap();
        assert_eq!(f.score(&[0.0, 0.0]), 0.1);
        assert_eq!(f.score(&[0.0, 1.0]), 0.2);
        assert_eq!(f.score(&[1.0, 0.0]), 0.3);
        assert_eq!(f.score(&[1.0, 1.0]), 0.4);
    }

    #[test]
    fn path_shaped_trees_parse_and_score() {
        // A comb: each split's left child is a leaf and its right child the
        // next split. Parsing and scoring are iterative, so depth is
        // bounded only by the node count, not by the call stack.
        let depth = 100_000;
        let mut text = format!("forest 1 1\ntree {}\n", 2 * depth + 1);
        for i in 0..depth {
            text.push_str(&format!("S 0 {i} {}\nL 0.25\n", 2 * i + 1));
        }
        text.push_str("L 0.75\n");
        let f = RandomForest::read_text(&mut text.lines()).unwrap();
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
