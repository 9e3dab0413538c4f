//! From-scratch statistical-learning substrate for Segugio.
//!
//! The paper trains its behavior-based classifier with Random Forest [9] or
//! Logistic Regression (liblinear) [10] and reports ROC trade-offs at very
//! low false-positive rates. Offline, no suitable Rust ML crates are
//! available, so this crate implements the required pieces directly:
//!
//! - [`Dataset`] — dense row-major feature matrix with boolean targets;
//! - [`DecisionTree`] — CART with Gini impurity, depth/leaf limits, and
//!   per-node feature subsampling;
//! - [`RandomForest`] — bagged trees with optional class-balanced bootstrap,
//!   trained in parallel with `crossbeam` scoped threads;
//! - [`FlatForest`] — a trained forest re-packed into breadth-ordered
//!   struct-of-arrays node storage for cache-friendly blocked batch scoring;
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
pub mod flat;
pub mod folds;
pub mod forest;
pub mod importance;
pub mod logistic;
pub mod persist;
pub mod tree;

pub use boosting::{BoostingConfig, GradientBoosting};
pub use dataset::Dataset;
pub use eval::RocCurve;
pub use flat::FlatForest;
pub use forest::{BootstrapMode, ForestConfig, OobEstimate, RandomForest};
pub use importance::{permutation_importance, permutation_importance_by};
pub use logistic::{LogisticConfig, LogisticRegression};
pub use persist::ParseModelError;
pub use tree::{DecisionTree, TreeConfig};

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
