//! From-scratch statistical-learning substrate for Segugio.
//!
//! The paper trains its behavior-based classifier with Random Forest [9] or
//! Logistic Regression (liblinear) [10] and reports ROC trade-offs at very
//! low false-positive rates. Offline, no suitable Rust ML crates are
//! available, so this crate implements the required pieces directly:
//!
//! - [`Dataset`] — dense row-major feature matrix with boolean targets;
//! - [`RandomForest`] — bagged CART trees (Gini impurity, depth/leaf
//!   limits, per-node feature subsampling, optional class-balanced
//!   bootstrap), grown in parallel straight into one struct-of-arrays node
//!   store that is also what blocked batch scoring walks and what the text
//!   codec persists;
//! - [`LogisticRegression`] — L2-regularized SGD on standardized features;
//! - [`RocCurve`] — exact ROC from scored samples, with `TPR @ FPR`,
//!   threshold selection, AUC and partial AUC;
//! - [`folds`] — stratified k-fold and grouped ("family-balanced") k-fold
//!   splitters used by the cross-malware-family experiments.
//!
//! Everything is deterministic given a seed.

#![warn(missing_docs)]
// Library code returns typed errors; a panic site needs a reasoned
// `#[expect(clippy::…, reason = "…")]`, which fails the build once stale.
// Hash-set/map iteration order differs per process, so it must not reach
// ordered output; a site whose order provably cannot matter is an
// `#[expect]` too — a plain `#[allow]` is denied.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::undocumented_unsafe_blocks,
    clippy::iter_over_hash_type,
    clippy::allow_attributes
)]
pub mod boosting;
pub mod dataset;
pub mod eval;
pub mod folds;
pub mod forest;
pub mod importance;
pub mod logistic;
pub mod persist;
pub mod tree;

pub use boosting::{BoostingConfig, GradientBoosting};
pub use dataset::Dataset;
pub use eval::RocCurve;
#[doc(hidden)]
pub use forest::FlatForest;
pub use forest::{BootstrapMode, ForestConfig, RandomForest};
pub use importance::{permutation_importance, permutation_importance_by};
pub use logistic::{LogisticConfig, LogisticRegression};
pub use persist::ParseModelError;
pub use tree::TreeConfig;

/// A trained binary scorer: maps a feature vector to a malware score in
/// `[0, 1]`.
pub trait Classifier: Send + Sync {
    /// Scores one sample. Higher means more likely positive (malware).
    fn score(&self, features: &[f32]) -> f32;

    /// Scores a whole dataset, in row order.
    fn score_all(&self, data: &Dataset) -> Vec<f32> {
        (0..data.len()).map(|i| self.score(data.row(i))).collect()
    }
}
