//! The CART grower: Gini-impurity classification trees, written straight
//! into a [`RandomForest`]'s node arrays.
//!
//! Training uses pre-sorted feature columns (the classic presort CART
//! layout): every feature column is sorted once up front, and split search
//! walks each node's range in sorted order instead of re-sorting its
//! candidates. Splitting stably partitions every column's segment, so both
//! children inherit sorted segments and the per-node cost drops from
//! `O(k · m log m)` sorting to a linear scan.
//!
//! Growth is depth-first: a node that splits appends its two children as
//! an adjacent pair, then grows the left subtree completely before the
//! right one. Every split search therefore draws from the tree's RNG in
//! depth-first preorder.

use std::ops::Range;

use rand::seq::index::sample as sample_indices;
use rand::Rng;

use crate::dataset::Dataset;
use crate::forest::RandomForest;

/// Per-tree CART hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root is depth 0).
    pub max_depth: usize,
    /// Do not split nodes with fewer samples than this.
    pub min_samples_split: usize,
    /// Each child of a split must keep at least this many samples.
    pub min_samples_leaf: usize,
    /// Number of features considered at each split; `None` means all.
    /// Random forests typically use `sqrt(n_features)`.
    pub mtry: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 24,
            min_samples_split: 2,
            min_samples_leaf: 1,
            mtry: None,
        }
    }
}

/// Grows one tree over the rows of `data` selected by `indices` (repeats
/// allowed, as produced by bootstrap sampling) and appends it to `forest`:
/// its root goes to the end of the node arrays and of the root list.
///
/// # Panics
///
/// Panics if `indices` is empty.
pub(crate) fn grow_tree<R: Rng>(
    forest: &mut RandomForest,
    data: &Dataset,
    indices: &[u32],
    config: &TreeConfig,
    rng: &mut R,
) {
    assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
    let root = forest.push_leaves(1);
    forest.roots.push(root);
    let mut columns = SortedColumns::new(data, indices);
    grow(forest, root, &mut columns, 0..indices.len(), 0, config, rng);
}

/// Grows the subtree at `node` (already appended as a leaf) over the
/// positions `span` of `columns`.
fn grow<R: Rng>(
    forest: &mut RandomForest,
    node: u32,
    columns: &mut SortedColumns,
    span: Range<usize>,
    depth: usize,
    config: &TreeConfig,
    rng: &mut R,
) {
    let (lo, hi) = (span.start, span.end);
    let n = hi - lo;
    let pos = columns.positives(lo, hi);
    let split = if depth >= config.max_depth || n < config.min_samples_split || pos == 0 || pos == n
    {
        None
    } else {
        best_split(columns, lo, hi, pos, config, rng)
    };
    let at = node as usize;
    let Some(split) = split else {
        // Laplace-smoothed leaf estimate: keeps large pure leaves more
        // confident than tiny ones, which gives the forest's averaged
        // score a much finer ranking resolution at the extremes (the
        // low-FP operating points live there).
        forest.threshold[at] = (pos as f32 + 1.0) / (n as f32 + 2.0);
        return;
    };

    // Partition every column's segment around the threshold; both
    // children keep sorted segments.
    let mid = columns.partition(lo, hi, split.feature as usize, split.threshold);
    debug_assert!(mid > lo && mid < hi, "split must separate samples");

    let left = forest.push_leaves(2);
    forest.feature_idx[at] = split.feature;
    forest.threshold[at] = split.threshold;
    forest.children[at] = left;
    grow(forest, left, columns, lo..mid, depth + 1, config, rng);
    grow(forest, left + 1, columns, mid..hi, depth + 1, config, rng);
}

#[derive(Debug, Clone, Copy)]
struct SplitCandidate {
    feature: u16,
    threshold: f32,
    gain: f64,
}

/// Finds the best Gini split over `lo..hi`, scanning each candidate
/// feature's pre-sorted segment. Feature subsampling consumes `rng` exactly
/// as often as the previous per-node-sort implementation did, so trained
/// trees are bit-for-bit unchanged.
fn best_split<R: Rng>(
    columns: &SortedColumns,
    lo: usize,
    hi: usize,
    total_pos: usize,
    config: &TreeConfig,
    rng: &mut R,
) -> Option<SplitCandidate> {
    let n_features = columns.n_features;
    let mtry = config.mtry.unwrap_or(n_features).clamp(1, n_features);
    let features: Vec<usize> = if mtry == n_features {
        (0..n_features).collect()
    } else {
        sample_indices(rng, n_features, mtry).into_vec()
    };

    let n = hi - lo;
    let parent_gini = gini(total_pos, n);

    let mut best: Option<SplitCandidate> = None;
    for &f in &features {
        let (order, vals) = columns.feature(f, lo, hi);
        let mut left_pos = 0usize;
        for k in 0..n - 1 {
            let p = order[k] as usize;
            if columns.labels[p] {
                left_pos += 1;
            }
            let left_n = k + 1;
            // Can only split between distinct values.
            let v = vals[p];
            let v_next = vals[order[k + 1] as usize];
            if v == v_next {
                continue;
            }
            let right_n = n - left_n;
            if left_n < config.min_samples_leaf || right_n < config.min_samples_leaf {
                continue;
            }
            let right_pos = total_pos - left_pos;
            let weighted = (left_n as f64 * gini(left_pos, left_n)
                + right_n as f64 * gini(right_pos, right_n))
                / n as f64;
            // Zero-gain splits are accepted (best-effort, like CART on
            // XOR-shaped data): recursion still terminates because both
            // children are non-empty and depth is bounded.
            let gain = parent_gini - weighted;
            if gain > -1e-12 && best.as_ref().is_none_or(|b| gain > b.gain) {
                let threshold = midpoint(v, v_next);
                best = Some(SplitCandidate {
                    feature: f as u16,
                    threshold,
                    gain,
                });
            }
        }
    }
    best
}

/// Pre-sorted, column-major training workspace.
///
/// Positions `0..n` name the bootstrap draws (`indices[p]`), so repeated
/// rows become distinct positions with identical values. For every feature
/// the workspace keeps each node's positions in ascending value order;
/// splitting stably partitions each feature's segment, so both children
/// inherit sorted segments without re-sorting. Gain scans only evaluate
/// boundaries between distinct values, where label prefix counts are
/// invariant to how the unstable up-front sort ordered equal values — the
/// chosen splits are bit-for-bit those of the per-node-sort implementation.
struct SortedColumns {
    /// Label per position.
    labels: Vec<bool>,
    /// Column-major values: `vals[f * n + p]` is feature `f` at position `p`.
    vals: Vec<f32>,
    /// Per-feature position orders: `order[f * n + lo..f * n + hi]` holds
    /// the current node's positions sorted by feature `f`.
    order: Vec<u32>,
    /// Scratch for the right-hand side of the stable partition.
    scratch: Vec<u32>,
    /// Per-position split side for the node currently being partitioned.
    goes_left: Vec<bool>,
    n: usize,
    n_features: usize,
}

impl SortedColumns {
    fn new(data: &Dataset, indices: &[u32]) -> Self {
        let n = indices.len();
        let n_features = data.n_features();
        let labels: Vec<bool> = indices.iter().map(|&i| data.label(i as usize)).collect();
        let mut vals = vec![0.0f32; n_features * n];
        for (p, &i) in indices.iter().enumerate() {
            for (f, &v) in data.row(i as usize).iter().enumerate() {
                vals[f * n + p] = v;
            }
        }
        let mut order = vec![0u32; n_features * n];
        for f in 0..n_features {
            let col = &mut order[f * n..(f + 1) * n];
            for (p, slot) in col.iter_mut().enumerate() {
                *slot = p as u32;
            }
            let v = &vals[f * n..(f + 1) * n];
            col.sort_unstable_by(|&a, &b| v[a as usize].total_cmp(&v[b as usize]));
        }
        SortedColumns {
            labels,
            vals,
            order,
            scratch: vec![0; n],
            goes_left: vec![false; n],
            n,
            n_features,
        }
    }

    /// Positive-label count among the positions of `lo..hi`.
    fn positives(&self, lo: usize, hi: usize) -> usize {
        // Every feature's segment holds the same position set; read
        // feature 0's (offset 0).
        self.order[lo..hi]
            .iter()
            .filter(|&&p| self.labels[p as usize])
            .count()
    }

    /// Feature `f`'s sorted positions for `lo..hi`, plus its full value
    /// column (indexed by position).
    fn feature(&self, f: usize, lo: usize, hi: usize) -> (&[u32], &[f32]) {
        (
            &self.order[f * self.n + lo..f * self.n + hi],
            &self.vals[f * self.n..(f + 1) * self.n],
        )
    }

    /// Stably partitions every feature's `lo..hi` segment around
    /// `vals[feature] <= threshold`; returns the first right-side index.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f32) -> usize {
        let base = feature * self.n;
        for k in lo..hi {
            // Feature 0's segment (offset 0) names the node's position set.
            let p = self.order[k] as usize;
            self.goes_left[p] = self.vals[base + p] <= threshold;
        }
        let mut mid = lo;
        for f in 0..self.n_features {
            let start = f * self.n + lo;
            let end = f * self.n + hi;
            let mut left = start;
            let mut right = 0usize;
            for k in start..end {
                let p = self.order[k];
                if self.goes_left[p as usize] {
                    // In-place prefix compaction: `left <= k`, so the slot
                    // written was already read.
                    self.order[left] = p;
                    left += 1;
                } else {
                    self.scratch[right] = p;
                    right += 1;
                }
            }
            self.order[left..end].copy_from_slice(&self.scratch[..right]);
            debug_assert!(f == 0 || mid == lo + (left - start), "segments agree");
            mid = lo + (left - start);
        }
        mid
    }
}

fn gini(pos: usize, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let p = pos as f64 / n as f64;
    2.0 * p * (1.0 - p)
}

/// Midpoint that is guaranteed to satisfy `lo <= mid < hi` under f32
/// rounding (falls back to `lo` when the values are adjacent floats).
fn midpoint(lo: f32, hi: f32) -> f32 {
    let mid = lo + (hi - lo) * 0.5;
    if mid >= hi {
        lo
    } else {
        mid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Classifier;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One tree grown over `indices` (every row when `None`), as a
    /// one-tree forest.
    fn grow_one(data: &Dataset, indices: Option<&[u32]>, config: &TreeConfig) -> RandomForest {
        let all: Vec<u32> = (0..data.len() as u32).collect();
        let mut forest = RandomForest::empty(data.n_features());
        let mut rng = StdRng::seed_from_u64(42);
        grow_tree(&mut forest, data, indices.unwrap_or(&all), config, &mut rng);
        forest
    }

    #[test]
    fn pure_data_yields_single_leaf() {
        let mut d = Dataset::new(2);
        for i in 0..10 {
            d.push(&[i as f32, 0.0], true);
        }
        let t = grow_one(&d, None, &TreeConfig::default());
        assert_eq!(t.node_count(), 1);
        // Laplace-smoothed pure leaf: (10+1)/(10+2).
        assert!(t.score(&[3.0, 0.0]) > 0.9);
    }

    #[test]
    fn separable_data_splits_perfectly() {
        let mut d = Dataset::new(2);
        for i in 0..20 {
            d.push(&[i as f32, (i % 3) as f32], i >= 10);
        }
        let t = grow_one(&d, None, &TreeConfig::default());
        assert!(t.score(&[2.0, 1.0]) < 0.1);
        assert!(t.score(&[15.0, 1.0]) > 0.9);
    }

    #[test]
    fn xor_needs_depth_two() {
        let mut d = Dataset::new(2);
        for _ in 0..5 {
            d.push(&[0.0, 0.0], false);
            d.push(&[1.0, 1.0], false);
            d.push(&[0.0, 1.0], true);
            d.push(&[1.0, 0.0], true);
        }
        let t = grow_one(&d, None, &TreeConfig::default());
        // A root split plus a split under each child: at least 7 nodes.
        assert!(t.node_count() >= 7);
        assert!(t.score(&[0.0, 1.0]) > 0.8);
        assert!(t.score(&[1.0, 1.0]) < 0.2);
    }

    #[test]
    fn max_depth_zero_is_a_prior_leaf() {
        let mut d = Dataset::new(1);
        d.push(&[0.0], true);
        d.push(&[1.0], false);
        d.push(&[2.0], false);
        d.push(&[3.0], false);
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let t = grow_one(&d, None, &cfg);
        assert_eq!(t.node_count(), 1);
        // Smoothed prior: (1+1)/(4+2).
        assert!((t.score(&[9.0]) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let mut d = Dataset::new(1);
        // One positive outlier; a leaf of size 1 would isolate it.
        d.push(&[100.0], true);
        for i in 0..9 {
            d.push(&[i as f32], false);
        }
        let cfg = TreeConfig {
            min_samples_leaf: 3,
            ..TreeConfig::default()
        };
        let t = grow_one(&d, None, &cfg);
        // The outlier cannot be isolated; every leaf has >= 3 samples, so no
        // leaf is pure-positive.
        assert!(t.score(&[100.0]) < 1.0);
    }

    #[test]
    fn grows_on_bootstrap_indices() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push(&[i as f32], i >= 5);
        }
        // Bootstrap containing only negatives.
        let t = grow_one(&d, Some(&[0, 1, 2, 0, 1]), &TreeConfig::default());
        assert!(t.score(&[9.0]) < 0.2);
    }

    #[test]
    fn children_are_adjacent_pairs_in_depth_first_order() {
        let mut d = Dataset::new(2);
        for i in 0..90 {
            d.push(&[(i % 13) as f32, (i % 7) as f32], (i * 7919) % 5 < 2);
        }
        let mut forest = grow_one(&d, None, &TreeConfig::default());
        let mut rng = StdRng::seed_from_u64(9);
        let all: Vec<u32> = (0..d.len() as u32).collect();
        grow_tree(&mut forest, &d, &all, &TreeConfig::default(), &mut rng);
        assert_eq!(forest.tree_count(), 2);
        // The k-th split in depth-first preorder (left subtree first) owns
        // the k-th pair after its tree's root.
        for &root in &forest.roots {
            let mut next_pair = root + 1;
            let mut stack = vec![root];
            while let Some(i) = stack.pop() {
                let left = forest.children[i as usize];
                if left == crate::forest::LEAF {
                    continue;
                }
                assert_eq!(left, next_pair, "split {i}");
                next_pair += 2;
                stack.push(left + 1);
                stack.push(left);
            }
        }
        assert!(forest.node_count() > 9, "the fixture must split");
    }

    #[test]
    fn sorted_partition_keeps_column_order() {
        let mut d = Dataset::new(2);
        for i in 0..12 {
            d.push(&[(i % 4) as f32, (11 - i) as f32], i % 2 == 0);
        }
        let indices: Vec<u32> = (0..12).collect();
        let mut cols = SortedColumns::new(&d, &indices);
        let mid = cols.partition(0, 12, 0, 1.5);
        assert!(mid > 0 && mid < 12);
        for f in 0..2 {
            for (lo, hi) in [(0, mid), (mid, 12)] {
                let (order, vals) = cols.feature(f, lo, hi);
                assert!(order
                    .windows(2)
                    .all(|w| vals[w[0] as usize] <= vals[w[1] as usize]));
            }
        }
        // The left side took exactly the positions with feature 0 <= 1.5.
        let (order, vals) = cols.feature(0, 0, mid);
        assert!(order.iter().all(|&p| vals[p as usize] <= 1.5));
    }

    #[test]
    fn midpoint_never_reaches_hi() {
        let lo = 1.0f32;
        let hi = lo + f32::EPSILON;
        let m = midpoint(lo, hi);
        assert!(m >= lo && m < hi);
    }
}
