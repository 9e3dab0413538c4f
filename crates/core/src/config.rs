//! Top-level Segugio configuration.

use segugio_graph::PruneConfig;
use segugio_ml::{ForestConfig, LogisticConfig};

use crate::features::FeatureConfig;

/// Which statistical classifier backs the model (paper Section II-A3:
/// "e.g., using Random Forest, Logistic Regression, etc.").
#[derive(Debug, Clone, PartialEq)]
pub enum ClassifierKind {
    /// Bagged random forest (the default).
    Forest(ForestConfig),
    /// L2-regularized logistic regression.
    Logistic(LogisticConfig),
}

impl Default for ClassifierKind {
    fn default() -> Self {
        ClassifierKind::Forest(ForestConfig::default())
    }
}

/// Fallback behavior when a day's inputs are degraded.
///
/// A live feed loses inputs in two recoverable ways: a day may have no
/// trainable seeds (blacklist update stalled, or traffic too thin), and the
/// passive-DNS feed may blank out. The paper justifies a graceful answer to
/// both — trained models stay accurate across days and weeks (the Fig. 6
/// cross-day result), and the feature groups are separable (the Sec. III
/// ablation trains usefully on F1+F2 without the IP-abuse group F3). The
/// defaults enable both fallbacks; on clean inputs neither condition ever
/// fires, so enabling them costs nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthPolicy {
    /// On a day with no trainable seeds, score with the most recent
    /// successfully trained model (and its calibrated threshold) instead of
    /// returning [`TrackerError::InsufficientSeeds`](crate::TrackerError).
    pub stale_model_on_insufficient_seeds: bool,
    /// Maximum age, in days, a retained model may be reused at. Past this
    /// the day errors as if no model were retained (Fig. 6 shows accuracy
    /// decaying slowly but not indefinitely).
    pub max_model_age_days: u32,
    /// On a day whose pDNS abuse window is empty, train and score on
    /// feature groups F1+F2 with the IP-abuse columns (F3) masked, instead
    /// of feeding the model all-empty abuse features.
    pub mask_ip_features_on_blank_pdns: bool,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            stale_model_on_insufficient_seeds: true,
            max_model_age_days: 7,
            mask_ip_features_on_blank_pdns: true,
        }
    }
}

/// Everything Segugio needs to build snapshots, train and detect.
#[derive(Debug, Clone, PartialEq)]
pub struct SegugioConfig {
    /// Feature-measurement windows.
    pub features: FeatureConfig,
    /// Graph-pruning thresholds (R1–R4).
    pub prune: PruneConfig,
    /// Classifier backend and hyperparameters.
    pub classifier: ClassifierKind,
    /// Feature columns used by the model; `None` means all 11. The
    /// ablation experiments set this to a group's complement.
    pub feature_columns: Option<Vec<usize>>,
    /// When set, machines querying at least this many known malware domains
    /// are removed before pruning — the Section VI heuristic against
    /// security scanners that probe blacklisted names. `None` disables the
    /// filter (the paper's default deployments did not need it).
    pub probe_filter: Option<u32>,
    /// Worker threads for the per-day hot path (training-set extraction,
    /// forest training, unknown-domain scoring, and the abuse index built
    /// beside labeling and pruning). `None` uses every available core;
    /// `Some(1)` forces the exact serial path. Output is bit-for-bit
    /// identical at every setting. Graph building ignores it: its one
    /// worker seals [`EdgeRuns`](segugio_graph::EdgeRuns) as a fixed
    /// pipeline stage.
    pub parallelism: Option<usize>,
    /// Retired — nothing reads it; remove with the `trace` binary's
    /// reference-route setting in the next `[benchmark]` PR.
    #[doc(hidden)]
    pub chunk_run_capacity: Option<usize>,
    /// Retired — nothing reads it; remove with the `trace` binary's
    /// reference-route setting in the next `[benchmark]` PR.
    #[doc(hidden)]
    pub incremental: bool,
    /// Fallbacks for degraded days (no seeds, blank pDNS window). See
    /// [`HealthPolicy`].
    pub health: HealthPolicy,
}

impl Default for SegugioConfig {
    fn default() -> Self {
        SegugioConfig {
            features: FeatureConfig::default(),
            prune: PruneConfig::default(),
            classifier: ClassifierKind::default(),
            feature_columns: None,
            probe_filter: None,
            parallelism: None,
            chunk_run_capacity: None,
            incremental: true,
            health: HealthPolicy::default(),
        }
    }
}

impl SegugioConfig {
    /// A configuration that excludes one feature group (the paper's "No
    /// machine" / "No activity" / "No IP" ablations).
    pub fn without_group(group: crate::features::FeatureGroup) -> Self {
        SegugioConfig {
            feature_columns: Some(group.complement_columns()),
            ..SegugioConfig::default()
        }
    }

    /// The concrete worker count the [`parallelism`](Self::parallelism)
    /// knob resolves to on this machine.
    pub fn effective_parallelism(&self) -> usize {
        crate::parallel::resolve_parallelism(self.parallelism)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureGroup;

    #[test]
    fn default_uses_forest_and_all_features() {
        let c = SegugioConfig::default();
        assert!(matches!(c.classifier, ClassifierKind::Forest(_)));
        assert!(c.feature_columns.is_none());
    }

    #[test]
    fn ablation_excludes_group() {
        let c = SegugioConfig::without_group(FeatureGroup::IpAbuse);
        assert_eq!(c.feature_columns, Some(vec![0, 1, 2, 3, 4, 5, 6]));
    }
}
