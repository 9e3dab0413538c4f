//! Gradient-boosted regression trees (logistic loss).
//!
//! A third classifier backend beyond the paper's Random Forest and
//! logistic regression. Boosting often squeezes out a little more ranking
//! quality at the same tree budget, at the cost of sequential training —
//! the `ablations` bench compares the backends.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::{Classifier, ParseModelError};

/// Hyperparameters for [`GradientBoosting::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct BoostingConfig {
    /// Number of boosting rounds (trees).
    pub n_rounds: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Maximum depth of each regression tree (kept shallow, as usual for
    /// boosting).
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Fraction of rows sampled (without replacement) per round
    /// (stochastic gradient boosting); 1.0 disables subsampling.
    pub subsample: f64,
    /// RNG seed for row subsampling.
    pub seed: u64,
}

impl Default for BoostingConfig {
    fn default() -> Self {
        BoostingConfig {
            n_rounds: 100,
            learning_rate: 0.15,
            max_depth: 4,
            min_samples_leaf: 4,
            subsample: 0.8,
            seed: 0xB005,
        }
    }
}

/// Marks a leaf in a [`BoostingParts`] child array.
const LEAF: u32 = u32::MAX;

/// A boosted model's regression trees as flat node arrays: what a
/// [`GradientBoosting`] holds and walks, [`GradientBoosting::to_parts`]
/// copies out and [`GradientBoosting::from_parts`] checks back in. Child
/// ids count from their tree's root.
#[derive(Debug, Clone, PartialEq)]
pub struct BoostingParts {
    /// Log-odds prior.
    pub base: f64,
    /// Shrinkage applied to each tree's output.
    pub learning_rate: f64,
    /// First node of each tree; a tree's nodes run to the next root.
    pub roots: Vec<u32>,
    /// Per-node split feature; 0 on leaves.
    pub feature: Vec<u16>,
    /// Per-node split threshold; 0 on leaves.
    pub threshold: Vec<f32>,
    /// Per-node left child, or `u32::MAX` on a leaf.
    pub left: Vec<u32>,
    /// Per-node right child, or `u32::MAX` on a leaf.
    pub right: Vec<u32>,
    /// Per-node leaf value; 0 on splits.
    pub value: Vec<f64>,
}

impl BoostingParts {
    /// The leaf value the tree rooted at node `root` gives `x`.
    fn predict(&self, root: usize, x: &[f32]) -> f64 {
        let mut i = root;
        loop {
            let child = match self.left[i] {
                LEAF => return self.value[i],
                left if x[self.feature[i] as usize] <= self.threshold[i] => left,
                _ => self.right[i],
            };
            i = root + child as usize;
        }
    }

    /// Appends a leaf to the tree rooted at node `root`; returns its id in
    /// that tree.
    fn push_leaf(&mut self, root: usize, value: f64) -> u32 {
        self.feature.push(0);
        self.threshold.push(0.0);
        self.left.push(LEAF);
        self.right.push(LEAF);
        self.value.push(value);
        (self.left.len() - 1 - root) as u32
    }
}

/// A trained gradient-boosted model producing `P(positive)` via the
/// logistic link.
///
/// # Example
///
/// ```
/// use segugio_ml::{BoostingConfig, Classifier, Dataset, GradientBoosting};
///
/// let mut data = Dataset::new(1);
/// for i in 0..100 {
///     data.push(&[i as f32], i >= 50);
/// }
/// let model = GradientBoosting::fit(&data, &BoostingConfig {
///     n_rounds: 20,
///     ..Default::default()
/// });
/// assert!(model.score(&[90.0]) > 0.9);
/// assert!(model.score(&[5.0]) < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    nodes: BoostingParts,
}

impl GradientBoosting {
    /// Trains with logistic-loss gradient boosting.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or single-class.
    pub fn fit(data: &Dataset, config: &BoostingConfig) -> Self {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let n = data.len();
        let pos = data.positive_count();
        assert!(
            pos > 0 && pos < n,
            "boosting requires both classes in the training data"
        );
        // Log-odds prior.
        let p0 = pos as f64 / n as f64;
        let base = (p0 / (1.0 - p0)).ln();

        let mut margins = vec![base; n];
        let mut nodes = BoostingParts {
            base,
            learning_rate: config.learning_rate,
            roots: Vec::with_capacity(config.n_rounds),
            feature: Vec::new(),
            threshold: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            value: Vec::new(),
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut residuals = vec![0.0f64; n];
        let mut hessians = vec![0.0f64; n];
        for _ in 0..config.n_rounds {
            // Negative gradient of logistic loss: y - p; hessian p(1-p).
            for i in 0..n {
                let p = sigmoid(margins[i]);
                let y = if data.label(i) { 1.0 } else { 0.0 };
                residuals[i] = y - p;
                hessians[i] = (p * (1.0 - p)).max(1e-6);
            }
            // Row subsample.
            let mut rows: Vec<u32> = if config.subsample >= 1.0 {
                (0..n as u32).collect()
            } else {
                (0..n as u32)
                    .filter(|_| rng.gen::<f64>() < config.subsample)
                    .collect()
            };
            if rows.is_empty() {
                continue;
            }
            let root = nodes.left.len();
            nodes.roots.push(root as u32);
            grow(
                &mut nodes, root, data, &residuals, &hessians, &mut rows, 0, config,
            );
            // Update margins with the shrunken tree output.
            for (i, margin) in margins.iter_mut().enumerate() {
                *margin += config.learning_rate * nodes.predict(root, data.row(i));
            }
        }
        GradientBoosting { nodes }
    }

    /// Minimum feature-row width this model can score: one past the
    /// highest feature index any split references.
    ///
    /// The parts carry no row width, so a loader that knows the expected
    /// width should check it against this bound — scoring a narrower row
    /// would index out of bounds.
    pub fn n_features(&self) -> usize {
        let nodes = &self.nodes;
        let splits = nodes.feature.iter().zip(&nodes.left);
        splits
            .filter(|&(_, &left)| left != LEAF)
            .map(|(&feature, _)| feature as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// The trees' node arrays, copied out for a writer to persist.
    pub fn to_parts(&self) -> BoostingParts {
        self.nodes.clone()
    }

    /// A model from node arrays a reader decoded.
    ///
    /// # Errors
    ///
    /// [`ParseModelError`] unless the arrays agree in length and form
    /// trees: each tree has nodes, the first starts at node 0 and the
    /// others follow in order, every child is inside its tree, and every
    /// node is reached from its root exactly once.
    pub fn from_parts(parts: BoostingParts) -> Result<Self, ParseModelError> {
        let n = parts.left.len();
        let lengths = [
            parts.feature.len(),
            parts.threshold.len(),
            parts.right.len(),
            parts.value.len(),
        ];
        if lengths != [n; 4] {
            return Err(ParseModelError::new("boosting arrays differ in length"));
        }
        if parts.roots.first().map_or(n != 0, |&first| first != 0) {
            return Err(ParseModelError::new("the first rtree must start at node 0"));
        }
        for (tree, &root) in parts.roots.iter().enumerate() {
            let start = root as usize;
            let end = parts.roots.get(tree + 1).map_or(n, |&next| next as usize);
            if start >= end || end > n {
                return Err(ParseModelError::new(
                    "rtree must have nodes, rtrees in order",
                ));
            }
            validate_topology(&parts.left[start..end], &parts.right[start..end])?;
        }
        Ok(GradientBoosting { nodes: parts })
    }
}

impl Classifier for GradientBoosting {
    fn score(&self, features: &[f32]) -> f32 {
        let nodes = &self.nodes;
        let mut margin = nodes.base;
        for &root in &nodes.roots {
            margin += nodes.learning_rate * nodes.predict(root as usize, features);
        }
        sigmoid(margin) as f32
    }
}

/// Grows a variance-reducing regression subtree over `rows` into the tree
/// rooted at node `root`; returns the subtree's id in that tree. Leaf
/// values are Newton steps for the logistic loss: `Σ grad / Σ hess`,
/// clipped for stability.
#[expect(
    clippy::too_many_arguments,
    reason = "the recursion's state: the tree, the rows and their gradients"
)]
fn grow(
    nodes: &mut BoostingParts,
    root: usize,
    data: &Dataset,
    targets: &[f64],
    hessians: &[f64],
    rows: &mut [u32],
    depth: usize,
    config: &BoostingConfig,
) -> u32 {
    let n = rows.len();
    let sum: f64 = rows.iter().map(|&i| targets[i as usize]).sum();
    let hess_sum: f64 = rows.iter().map(|&i| hessians[i as usize]).sum();
    let leaf_value = (sum / hess_sum.max(1e-9)).clamp(-4.0, 4.0);

    if depth >= config.max_depth || n < 2 * config.min_samples_leaf {
        return nodes.push_leaf(root, leaf_value);
    }

    // Best variance-reduction split across all features.
    let mut best: Option<(u16, f32, f64)> = None;
    let k = data.n_features();
    let mut column: Vec<(f32, f64)> = Vec::with_capacity(n);
    for f in 0..k {
        column.clear();
        column.extend(
            rows.iter()
                .map(|&i| (data.row(i as usize)[f], targets[i as usize])),
        );
        column.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut left_sum = 0.0f64;
        for j in 0..n - 1 {
            left_sum += column[j].1;
            if column[j].0 == column[j + 1].0 {
                continue;
            }
            let left_n = j + 1;
            let right_n = n - left_n;
            if left_n < config.min_samples_leaf || right_n < config.min_samples_leaf {
                continue;
            }
            let right_sum = sum - left_sum;
            // SSE reduction is equivalent to maximizing
            // left_sum²/left_n + right_sum²/right_n.
            let gain = left_sum * left_sum / left_n as f64 + right_sum * right_sum / right_n as f64;
            if best.is_none_or(|(_, _, g)| gain > g) {
                let mid = column[j].0 + (column[j + 1].0 - column[j].0) * 0.5;
                let threshold = if mid >= column[j + 1].0 {
                    column[j].0
                } else {
                    mid
                };
                best = Some((f as u16, threshold, gain));
            }
        }
    }
    let Some((feature, threshold, _)) = best else {
        return nodes.push_leaf(root, leaf_value);
    };

    let mid = partition(rows, |&i| {
        data.row(i as usize)[feature as usize] <= threshold
    });
    debug_assert!(mid > 0 && mid < n);
    let node = nodes.push_leaf(root, 0.0);
    let (l, r) = rows.split_at_mut(mid);
    let left = grow(nodes, root, data, targets, hessians, l, depth + 1, config);
    let right = grow(nodes, root, data, targets, hessians, r, depth + 1, config);
    let at = root + node as usize;
    nodes.feature[at] = feature;
    nodes.threshold[at] = threshold;
    (nodes.left[at], nodes.right[at]) = (left, right);
    node
}

/// Checks that every node of one tree's child arrays is reachable from
/// node 0 exactly once. Rejects children out of range, cycles (a split
/// that is its own child would make scoring loop forever), shared
/// children, and orphaned nodes.
fn validate_topology(left: &[u32], right: &[u32]) -> Result<(), ParseModelError> {
    let mut seen = vec![false; left.len()];
    let mut stack = vec![0u32];
    while let Some(i) = stack.pop() {
        let i = i as usize;
        let Some(slot) = seen.get_mut(i) else {
            return Err(ParseModelError::new("rtree child index out of range"));
        };
        if *slot {
            return Err(ParseModelError::new(
                "node reachable more than once (cycle or shared child)",
            ));
        }
        *slot = true;
        if left[i] != LEAF {
            stack.extend([left[i], right[i]]);
        }
    }
    if seen.contains(&false) {
        return Err(ParseModelError::new("unreachable nodes"));
    }
    Ok(())
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn partition<T, F: Fn(&T) -> bool>(slice: &mut [T], pred: F) -> usize {
    let mut store = 0;
    for i in 0..slice.len() {
        if pred(&slice[i]) {
            slice.swap(store, i);
            store += 1;
        }
    }
    store
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

    #[test]
    fn boosting_learns_separable_data() {
        let data = separable(200);
        let m = GradientBoosting::fit(
            &data,
            &BoostingConfig {
                n_rounds: 30,
                ..BoostingConfig::default()
            },
        );
        assert_eq!(m.nodes.roots.len(), 30, "one tree per boosting round");
        assert!(m.score(&[0.9, 0.0]) > 0.9);
        assert!(m.score(&[0.1, 0.0]) < 0.1);
    }

    #[test]
    fn boosting_handles_xor() {
        let mut d = Dataset::new(2);
        for _ in 0..25 {
            d.push(&[0.0, 0.0], false);
            d.push(&[1.0, 1.0], false);
            d.push(&[0.0, 1.0], true);
            d.push(&[1.0, 0.0], true);
        }
        let m = GradientBoosting::fit(
            &d,
            &BoostingConfig {
                n_rounds: 40,
                subsample: 1.0,
                ..BoostingConfig::default()
            },
        );
        assert!(m.score(&[0.0, 1.0]) > 0.8);
        assert!(m.score(&[1.0, 1.0]) < 0.2);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = separable(100);
        let cfg = BoostingConfig::default();
        let a = GradientBoosting::fit(&data, &cfg);
        let b = GradientBoosting::fit(&data, &cfg);
        for x in [0.2f32, 0.7] {
            assert_eq!(a.score(&[x, 1.0]), b.score(&[x, 1.0]));
        }
    }

    #[test]
    fn scores_stay_probabilities() {
        let data = separable(60);
        let m = GradientBoosting::fit(&data, &BoostingConfig::default());
        for i in 0..data.len() {
            let s = m.score(data.row(i));
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_panics() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push(&[i as f32], false);
        }
        GradientBoosting::fit(&d, &BoostingConfig::default());
    }

    #[test]
    fn boosting_parts_round_trip() {
        let data = separable(80);
        let m = GradientBoosting::fit(
            &data,
            &BoostingConfig {
                n_rounds: 8,
                ..BoostingConfig::default()
            },
        );
        let m2 = GradientBoosting::from_parts(m.to_parts()).unwrap();
        assert_eq!(m2.to_parts(), m.to_parts());
        for i in 0..data.len() {
            assert_eq!(m.score(data.row(i)), m2.score(data.row(i)));
        }
    }

    /// One rtree from `(feature, threshold, left, right, value)` nodes.
    fn one_rtree(nodes: &[(u16, f32, u32, u32, f64)]) -> BoostingParts {
        BoostingParts {
            base: 0.0,
            learning_rate: 0.1,
            roots: vec![0],
            feature: nodes.iter().map(|n| n.0).collect(),
            threshold: nodes.iter().map(|n| n.1).collect(),
            left: nodes.iter().map(|n| n.2).collect(),
            right: nodes.iter().map(|n| n.3).collect(),
            value: nodes.iter().map(|n| n.4).collect(),
        }
    }

    #[test]
    fn from_parts_rejects_cyclic_empty_and_orphaned_rtrees() {
        let leaf = |v: f64| (0, 0.0, LEAF, LEAF, v);
        for nodes in [
            // Self-loop: used to load, then `predict` looped forever.
            vec![(0, 0.5, 0, 0, 0.0)],
            // Zero-node rtree: `predict` would index out of bounds.
            vec![],
            // Child out of range.
            vec![(0, 0.5, 1, 7, 0.0), leaf(0.2)],
            // Orphaned node.
            vec![(0, 0.5, 1, 2, 0.0), leaf(0.2), leaf(0.8), leaf(0.9)],
        ] {
            assert!(
                GradientBoosting::from_parts(one_rtree(&nodes)).is_err(),
                "{nodes:?}"
            );
        }
        let mut ragged = one_rtree(&[leaf(0.2)]);
        ragged.value.push(0.0);
        assert!(GradientBoosting::from_parts(ragged).is_err());
        let split = [(0, 0.5, 2, 1, 0.0), leaf(0.8), leaf(0.2)];
        let m = GradientBoosting::from_parts(one_rtree(&split)).unwrap();
        assert!(m.score(&[0.0]) < m.score(&[1.0]));
    }

    #[test]
    fn imbalanced_data_still_ranks() {
        let mut d = Dataset::new(1);
        for i in 0..300 {
            d.push(&[(i % 40) as f32], false);
        }
        for _ in 0..6 {
            d.push(&[90.0], true);
        }
        let m = GradientBoosting::fit(&d, &BoostingConfig::default());
        assert!(m.score(&[90.0]) > m.score(&[10.0]));
    }
}
