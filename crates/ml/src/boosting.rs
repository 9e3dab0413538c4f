//! Gradient-boosted regression trees (logistic loss).
//!
//! A third classifier backend beyond the paper's Random Forest and
//! logistic regression. Boosting often squeezes out a little more ranking
//! quality at the same tree budget, at the cost of sequential training —
//! the `ablations` bench compares the backends.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::persist::{self, ParseModelError};
use crate::Classifier;

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

/// A regression tree node (arena storage, like the classification CART).
#[derive(Debug, Clone)]
enum RNode {
    Leaf {
        value: f64,
    },
    Split {
        feature: u16,
        threshold: f32,
        left: u32,
        right: u32,
    },
}

#[derive(Debug, Clone)]
struct RegressionTree {
    nodes: Vec<RNode>,
}

impl RegressionTree {
    fn predict(&self, x: &[f32]) -> f64 {
        let mut i = 0u32;
        loop {
            match self.nodes[i as usize] {
                RNode::Leaf { value } => return value,
                RNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[feature as usize] <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
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
    base: f64,
    learning_rate: f64,
    trees: Vec<RegressionTree>,
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
        let mut trees = Vec::with_capacity(config.n_rounds);
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
            let rows: Vec<u32> = if config.subsample >= 1.0 {
                (0..n as u32).collect()
            } else {
                (0..n as u32)
                    .filter(|_| rng.gen::<f64>() < config.subsample)
                    .collect()
            };
            if rows.is_empty() {
                continue;
            }
            let mut tree = RegressionTree { nodes: Vec::new() };
            let mut work = rows.clone();
            grow(&mut tree, data, &residuals, &hessians, &mut work, 0, config);
            // Update margins with the shrunken tree output.
            for (i, margin) in margins.iter_mut().enumerate() {
                *margin += config.learning_rate * tree.predict(data.row(i));
            }
            trees.push(tree);
        }
        GradientBoosting {
            base,
            learning_rate: config.learning_rate,
            trees,
        }
    }

    /// Minimum feature-row width this model can score: one past the
    /// highest feature index any split references.
    ///
    /// The boosting format does not carry an arity header, so a loader
    /// that knows the expected row width should check it against this
    /// bound — scoring a narrower row would index out of bounds.
    pub fn n_features(&self) -> usize {
        self.trees
            .iter()
            .flat_map(|t| &t.nodes)
            .map(|node| match *node {
                RNode::Leaf { .. } => 0,
                RNode::Split { feature, .. } => feature as usize + 1,
            })
            .max()
            .unwrap_or(0)
    }

    /// Serializes the model into the line-oriented persistence format.
    pub fn write_text(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "boosting {} {} {}",
            self.trees.len(),
            self.base,
            self.learning_rate
        );
        for tree in &self.trees {
            let _ = writeln!(out, "rtree {}", tree.nodes.len());
            for node in &tree.nodes {
                match *node {
                    RNode::Leaf { value } => {
                        let _ = writeln!(out, "L {value}");
                    }
                    RNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        let _ = writeln!(out, "S {feature} {threshold} {left} {right}");
                    }
                }
            }
        }
    }

    /// Reads a model from the persistence format.
    ///
    /// # Errors
    ///
    /// Returns [`ParseModelError`] on malformed input.
    pub fn read_text<'a>(
        lines: &mut impl Iterator<Item = &'a str>,
    ) -> Result<Self, ParseModelError> {
        let header = persist::next_line(lines, "boosting header")?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("boosting") {
            return Err(ParseModelError::new("expected `boosting` header"));
        }
        let n: usize = persist::field(parts.next(), "boosting round count")?;
        let base: f64 = persist::field(parts.next(), "boosting base")?;
        let learning_rate: f64 = persist::field(parts.next(), "boosting learning rate")?;
        // Caps below keep a hostile header's claimed counts from driving a
        // giant up-front allocation; the loops still error on missing lines.
        let mut trees = Vec::with_capacity(n.min(1 << 12));
        for _ in 0..n {
            let th = persist::next_line(lines, "rtree header")?;
            let mut parts = th.split_whitespace();
            if parts.next() != Some("rtree") {
                return Err(ParseModelError::new("expected `rtree` header"));
            }
            let n_nodes: usize = persist::field(parts.next(), "rtree node count")?;
            if n_nodes == 0 {
                return Err(ParseModelError::new("rtree must have nodes"));
            }
            let mut nodes = Vec::with_capacity(n_nodes.min(1 << 16));
            for _ in 0..n_nodes {
                let line = persist::next_line(lines, "rtree node")?;
                let mut parts = line.split_whitespace();
                match parts.next() {
                    Some("L") => nodes.push(RNode::Leaf {
                        value: persist::field(parts.next(), "leaf value")?,
                    }),
                    Some("S") => nodes.push(RNode::Split {
                        feature: persist::field(parts.next(), "split feature")?,
                        threshold: persist::field(parts.next(), "split threshold")?,
                        left: persist::field(parts.next(), "split left")?,
                        right: persist::field(parts.next(), "split right")?,
                    }),
                    _ => return Err(ParseModelError::new("expected rtree node line")),
                }
            }
            for node in &nodes {
                if let RNode::Split { left, right, .. } = *node {
                    if left as usize >= nodes.len() || right as usize >= nodes.len() {
                        return Err(ParseModelError::new("rtree child index out of range"));
                    }
                }
            }
            crate::tree::validate_topology(&nodes, |node| match *node {
                RNode::Leaf { .. } => None,
                RNode::Split { left, right, .. } => Some((left, right)),
            })
            .map_err(|e| e.context("rtree"))?;
            trees.push(RegressionTree { nodes });
        }
        Ok(GradientBoosting {
            base,
            learning_rate,
            trees,
        })
    }
}

impl Classifier for GradientBoosting {
    fn score(&self, features: &[f32]) -> f32 {
        let mut margin = self.base;
        for tree in &self.trees {
            margin += self.learning_rate * tree.predict(features);
        }
        sigmoid(margin) as f32
    }
}

/// Grows a variance-reducing regression subtree over `rows`; returns the
/// node id. Leaf values are Newton steps for the logistic loss:
/// `Σ grad / Σ hess`, clipped for stability.
fn grow(
    tree: &mut RegressionTree,
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
        tree.nodes.push(RNode::Leaf { value: leaf_value });
        return (tree.nodes.len() - 1) as u32;
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
        tree.nodes.push(RNode::Leaf { value: leaf_value });
        return (tree.nodes.len() - 1) as u32;
    };

    let mid = partition(rows, |&i| {
        data.row(i as usize)[feature as usize] <= threshold
    });
    debug_assert!(mid > 0 && mid < n);
    let node_idx = tree.nodes.len() as u32;
    tree.nodes.push(RNode::Leaf { value: 0.0 });
    let (l, r) = rows.split_at_mut(mid);
    let left = grow(tree, data, targets, hessians, l, depth + 1, config);
    let right = grow(tree, data, targets, hessians, r, depth + 1, config);
    tree.nodes[node_idx as usize] = RNode::Split {
        feature,
        threshold,
        left,
        right,
    };
    node_idx
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
        assert_eq!(m.trees.len(), 30, "one tree per boosting round");
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
    fn boosting_text_round_trip() {
        let data = separable(80);
        let m = GradientBoosting::fit(
            &data,
            &BoostingConfig {
                n_rounds: 8,
                ..BoostingConfig::default()
            },
        );
        let mut text = String::new();
        m.write_text(&mut text);
        let m2 = GradientBoosting::read_text(&mut text.lines()).unwrap();
        for i in 0..data.len() {
            assert_eq!(m.score(data.row(i)), m2.score(data.row(i)));
        }
        assert!(GradientBoosting::read_text(&mut "garbage".lines()).is_err());
    }

    #[test]
    fn read_text_rejects_cyclic_and_empty_rtrees() {
        // Self-loop: used to parse, then `predict` looped forever.
        assert!(GradientBoosting::read_text(
            &mut "boosting 1 0.0 0.1\nrtree 1\nS 0 0.5 0 0".lines()
        )
        .is_err());
        // Zero-node rtree: `predict` would index out of bounds.
        assert!(GradientBoosting::read_text(&mut "boosting 1 0.0 0.1\nrtree 0".lines()).is_err());
        // Orphaned node.
        assert!(GradientBoosting::read_text(
            &mut "boosting 1 0.0 0.1\nrtree 4\nS 0 0.5 1 2\nL 0.2\nL 0.8\nL 0.9".lines()
        )
        .is_err());
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
