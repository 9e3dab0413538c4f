//! DESIGN §6: the design-choice ablations — forest size, classifier
//! backend, pruning on/off and the activity window — the knobs a
//! deployment would actually tune.
//!
//! Every row trains on day `w` and tests on day `w + 13` of one ISP1
//! scenario, against one held-out split. The forest-size and backend rows
//! vary [`SegugioConfig::default`]; the pruning and window rows vary the
//! scale's own configuration. Fig. 7's feature-group ablation is
//! [`super::ablation`].

use std::fmt;

use segugio_core::{ClassifierKind, FeatureConfig, SegugioConfig};
use segugio_ml::ForestConfig;

use crate::protocol::{select_test_split, train_and_eval, EvalOutcome};
use crate::report::pct;
use crate::scenario::Scenario;

use super::Scale;

/// Seed of the held-out split every row is tested against.
const SPLIT_SEED: u64 = 11;

/// Detection quality of one variant at the 1 % FP operating point.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    /// TPR at 1 % FP.
    pub tpr: f64,
    /// Partial AUC over the 0–1 % FP range.
    pub pauc: f64,
}

impl Accuracy {
    fn of(outcome: &EvalOutcome) -> Self {
        Accuracy {
            tpr: outcome.tpr_at_fpr(0.01),
            pauc: outcome.roc.partial_auc(0.01),
        }
    }
}

/// One pruning row: the test day's graph size and the detection it buys.
#[derive(Debug, Clone, Copy)]
pub struct PruningRow {
    /// `"pruned"` (the default rules) or `"unpruned"`.
    pub name: &'static str,
    /// Domain nodes left on the test day.
    pub domains: usize,
    /// Edges left on the test day.
    pub edges: usize,
    /// Detection quality under this pruning.
    pub accuracy: Accuracy,
}

/// The design-choice ablation report.
#[derive(Debug, Clone)]
pub struct DesignAblationsReport {
    /// Trees in the forest (10, 40, 100, 200) and the accuracy each buys.
    pub forest_sizes: Vec<(usize, Accuracy)>,
    /// Random forest vs logistic regression.
    pub backends: Vec<(&'static str, Accuracy)>,
    /// Pruning with the default rules, then switched off.
    pub pruning: Vec<PruningRow>,
    /// Activity window `n` in days (3, 7, 14, 28) and the accuracy it buys.
    pub windows: Vec<(u32, Accuracy)>,
}

impl fmt::Display for DesignAblationsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ABLATION: forest size vs TPR@1%FP")?;
        for (trees, a) in &self.forest_sizes {
            writeln!(
                f,
                "  {trees:>4} trees: TPR@1%FP {}  pAUC(1%) {:.4}",
                pct(a.tpr),
                a.pauc
            )?;
        }
        writeln!(f, "\nABLATION: classifier backend vs TPR@1%FP")?;
        for (name, a) in &self.backends {
            writeln!(
                f,
                "  {name:>20}: TPR@1%FP {}  pAUC(1%) {:.4}",
                pct(a.tpr),
                a.pauc
            )?;
        }
        writeln!(f, "\nABLATION: pruning on/off (accuracy + graph size)")?;
        for row in &self.pruning {
            writeln!(
                f,
                "  {:>9}: domains {:>6}  edges {:>8}  TPR@1%FP {}",
                row.name,
                row.domains,
                row.edges,
                pct(row.accuracy.tpr)
            )?;
        }
        writeln!(f, "\nABLATION: activity window n (days) vs TPR@1%FP")?;
        for (n, a) in &self.windows {
            writeln!(f, "  n = {n:>2}: TPR@1%FP {}", pct(a.tpr))?;
        }
        Ok(())
    }
}

/// Runs the four sweeps on an ISP1 cross-day pair.
pub fn run(scale: &Scale) -> DesignAblationsReport {
    let w = scale.warmup;
    let scenario = Scenario::run(scale.isp1.clone(), w, &[w, w + 13]);
    let bl = scenario.isp().commercial_blacklist().clone();
    let split = select_test_split(
        &scenario,
        w + 13,
        &bl,
        scale.frac_test_malware,
        scale.frac_test_benign,
        SPLIT_SEED,
    );
    let eval = |config: &SegugioConfig| {
        train_and_eval(&scenario, w, &scenario, w + 13, &split, config, &bl, &bl)
    };

    let forest_sizes = [10usize, 40, 100, 200]
        .into_iter()
        .map(|trees| {
            let config = SegugioConfig {
                classifier: ClassifierKind::Forest(ForestConfig {
                    n_trees: trees,
                    ..ForestConfig::default()
                }),
                ..SegugioConfig::default()
            };
            (trees, Accuracy::of(&eval(&config)))
        })
        .collect();

    let backends = [
        (
            "random forest",
            ClassifierKind::Forest(ForestConfig::default()),
        ),
        (
            "logistic regression",
            ClassifierKind::Logistic(Default::default()),
        ),
    ]
    .into_iter()
    .map(|(name, classifier)| {
        let config = SegugioConfig {
            classifier,
            ..SegugioConfig::default()
        };
        (name, Accuracy::of(&eval(&config)))
    })
    .collect();

    let pruning = [("pruned", 1.0 / 3.0, 5usize), ("unpruned", 2.0, 0)]
        .into_iter()
        .map(|(name, popular, min_degree)| {
            let mut config = scale.config.clone();
            config.prune.popular_fraction = popular;
            config.prune.min_machine_degree = min_degree;
            let snap = scenario.snapshot(w + 13, &config, &bl, None);
            PruningRow {
                name,
                domains: snap.graph.domain_count(),
                edges: snap.graph.edge_count(),
                accuracy: Accuracy::of(&eval(&config)),
            }
        })
        .collect();

    let windows = [3u32, 7, 14, 28]
        .into_iter()
        .map(|n| {
            let config = SegugioConfig {
                features: FeatureConfig {
                    activity_days: n,
                    ..FeatureConfig::default()
                },
                ..scale.config.clone()
            };
            (n, Accuracy::of(&eval(&config)))
        })
        .collect();

    DesignAblationsReport {
        forest_sizes,
        backends,
        pruning,
        windows,
    }
}
