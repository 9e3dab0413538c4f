//! L2-regularized logistic regression trained with mini-batch SGD on
//! standardized features (the paper's liblinear alternative \[10\]).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::{Classifier, ParseModelError};

/// Hyperparameters for [`LogisticRegression::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Initial learning rate (decays as `eta / (1 + t * decay)`).
    pub learning_rate: f64,
    /// Learning-rate decay per update.
    pub decay: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Weight multiplier applied to positive samples' gradient, to
    /// counteract class imbalance. `None` derives `n_neg / n_pos`.
    pub positive_weight: Option<f64>,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        LogisticConfig {
            epochs: 30,
            learning_rate: 0.3,
            decay: 1e-4,
            l2: 1e-6,
            positive_weight: None,
            seed: 0x10615,
        }
    }
}

/// A logistic model's arrays, as [`LogisticRegression::to_parts`] copies
/// them out and [`LogisticRegression::from_parts`] checks them back in.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticParts {
    /// Weights in standardized feature space, one per column.
    pub weights: Vec<f64>,
    /// The intercept.
    pub bias: f64,
    /// Per-column mean subtracted before weighting.
    pub mean: Vec<f64>,
    /// Per-column inverse standard deviation (0 for a constant column).
    pub inv_std: Vec<f64>,
}

/// A trained logistic-regression scorer.
///
/// Features are standardized internally (per-column mean/std estimated at
/// fit time), so callers pass raw feature vectors.
///
/// # Example
///
/// ```
/// use segugio_ml::{Classifier, Dataset, LogisticConfig, LogisticRegression};
///
/// let mut data = Dataset::new(1);
/// for i in 0..100 {
///     data.push(&[i as f32], i >= 50);
/// }
/// let model = LogisticRegression::fit(&data, &LogisticConfig::default());
/// assert!(model.score(&[90.0]) > 0.9);
/// assert!(model.score(&[5.0]) < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
    mean: Vec<f64>,
    inv_std: Vec<f64>,
}

impl LogisticRegression {
    /// Trains the model.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(data: &Dataset, config: &LogisticConfig) -> Self {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let n = data.len();
        let k = data.n_features();

        // Standardization statistics.
        let mut mean = vec![0.0f64; k];
        for i in 0..n {
            for (j, &v) in data.row(i).iter().enumerate() {
                mean[j] += v as f64;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut var = vec![0.0f64; k];
        for i in 0..n {
            for (j, &v) in data.row(i).iter().enumerate() {
                let d = v as f64 - mean[j];
                var[j] += d * d;
            }
        }
        let inv_std: Vec<f64> = var
            .iter()
            .map(|&v| {
                let s = (v / n as f64).sqrt();
                if s > 1e-12 {
                    1.0 / s
                } else {
                    0.0
                }
            })
            .collect();

        let n_pos = data.positive_count();
        let n_neg = n - n_pos;
        let pos_weight = config.positive_weight.unwrap_or_else(|| {
            if n_pos == 0 {
                1.0
            } else {
                (n_neg as f64 / n_pos as f64).max(1.0)
            }
        });

        let mut weights = vec![0.0f64; k];
        let mut bias = 0.0f64;
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut t = 0u64;
        let mut z = vec![0.0f64; k];
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let row = data.row(i);
                for (j, zj) in z.iter_mut().enumerate() {
                    *zj = (row[j] as f64 - mean[j]) * inv_std[j];
                }
                let margin = bias + dot(&weights, &z);
                let p = sigmoid(margin);
                let y = if data.label(i) { 1.0 } else { 0.0 };
                let w_sample = if data.label(i) { pos_weight } else { 1.0 };
                let eta = config.learning_rate / (1.0 + t as f64 * config.decay);
                let grad = (p - y) * w_sample;
                for j in 0..k {
                    weights[j] -= eta * (grad * z[j] + config.l2 * weights[j]);
                }
                bias -= eta * grad;
                t += 1;
            }
        }
        LogisticRegression {
            weights,
            bias,
            mean,
            inv_std,
        }
    }

    /// The fitted arrays, copied out for a writer to persist.
    pub fn to_parts(&self) -> LogisticParts {
        LogisticParts {
            weights: self.weights.clone(),
            bias: self.bias,
            mean: self.mean.clone(),
            inv_std: self.inv_std.clone(),
        }
    }

    /// A model from arrays a reader decoded.
    ///
    /// # Errors
    ///
    /// [`ParseModelError`] when the arrays differ in length.
    pub fn from_parts(parts: LogisticParts) -> Result<Self, ParseModelError> {
        let LogisticParts {
            weights,
            bias,
            mean,
            inv_std,
        } = parts;
        if mean.len() != weights.len() || inv_std.len() != weights.len() {
            return Err(ParseModelError::new("logistic arrays differ in length"));
        }
        Ok(LogisticRegression {
            weights,
            bias,
            mean,
            inv_std,
        })
    }
}

impl Classifier for LogisticRegression {
    fn score(&self, features: &[f32]) -> f32 {
        assert_eq!(features.len(), self.weights.len(), "feature arity mismatch");
        let mut margin = self.bias;
        for (j, &x) in features.iter().enumerate() {
            margin += self.weights[j] * (x as f64 - self.mean[j]) * self.inv_std[j];
        }
        sigmoid(margin) as f32
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_linear_boundary() {
        let mut d = Dataset::new(2);
        for i in 0..200 {
            let x = (i % 20) as f32;
            let y = (i / 20) as f32;
            d.push(&[x, y], x + y > 14.0);
        }
        let m = LogisticRegression::fit(&d, &LogisticConfig::default());
        assert!(m.score(&[19.0, 9.0]) > 0.9);
        assert!(m.score(&[0.0, 0.0]) < 0.1);
    }

    #[test]
    fn constant_feature_is_ignored() {
        let mut d = Dataset::new(2);
        for i in 0..100 {
            d.push(&[5.0, i as f32], i >= 50);
        }
        let m = LogisticRegression::fit(&d, &LogisticConfig::default());
        // Constant column gets zero inv_std; no NaN anywhere.
        assert!(m.score(&[5.0, 99.0]).is_finite());
        assert!(m.score(&[5.0, 99.0]) > 0.9);
    }

    #[test]
    fn class_weighting_lifts_rare_positives() {
        let mut d = Dataset::new(1);
        for i in 0..500 {
            d.push(&[(i % 40) as f32], false);
        }
        for _ in 0..5 {
            d.push(&[90.0], true);
        }
        let m = LogisticRegression::fit(&d, &LogisticConfig::default());
        assert!(m.score(&[90.0]) > m.score(&[5.0]));
    }

    #[test]
    fn logistic_parts_round_trip() {
        let mut d = Dataset::new(2);
        for i in 0..80 {
            d.push(&[i as f32, (i % 9) as f32], i >= 40);
        }
        let m = LogisticRegression::fit(&d, &LogisticConfig::default());
        let m2 = LogisticRegression::from_parts(m.to_parts()).unwrap();
        assert_eq!(m2.to_parts(), m.to_parts());
        for i in 0..d.len() {
            assert_eq!(m.score(d.row(i)), m2.score(d.row(i)));
        }
        let mut short = m.to_parts();
        short.mean.pop();
        assert!(LogisticRegression::from_parts(short).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut d = Dataset::new(1);
        for i in 0..50 {
            d.push(&[i as f32], i >= 25);
        }
        let cfg = LogisticConfig::default();
        let a = LogisticRegression::fit(&d, &cfg);
        let b = LogisticRegression::fit(&d, &cfg);
        assert_eq!(a.score(&[30.0]), b.score(&[30.0]));
        assert_eq!(a.to_parts(), b.to_parts());
    }
}
