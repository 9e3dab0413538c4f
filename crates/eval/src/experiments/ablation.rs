//! E5: Fig. 7 — feature analysis by removing one feature group at a time.
//!
//! The paper's findings to reproduce: "No IP" still reaches >80% TPs below
//! 0.2% FPs (the IP-abuse features help but are not critical), while "No
//! machine" causes a noticeable TP drop at FP rates below 0.5% (the machine
//! behavior features are what buys high detection at low FP).

use std::fmt;

use segugio_core::{measure_day, FeatureGroup, Segugio, SegugioConfig, FEATURE_NAMES};
use segugio_model::Label;

use crate::protocol::{select_test_split, train_and_eval, EvalOutcome};
use crate::report::{low_fpr_grid, pct, pct2, render_table};
use crate::scenario::Scenario;

use super::Scale;

/// One ROC line of Fig. 7.
#[derive(Debug, Clone)]
pub struct AblationCase {
    /// `"All features"`, `"No machine"`, `"No activity"` or `"No IP"`.
    pub name: String,
    /// Evaluation outcome under this feature configuration.
    pub outcome: EvalOutcome,
}

/// The Fig. 7 report.
#[derive(Debug, Clone)]
pub struct AblationReport {
    /// The four lines (all features + three leave-one-group-out).
    pub cases: Vec<AblationCase>,
    /// Permutation importance of each of the 11 features on the training
    /// day (AUC drop when the column is shuffled) — finer-grained than the
    /// group-level ablation.
    pub importances: Vec<(String, f64)>,
}

impl AblationReport {
    /// The outcome of a named case.
    pub fn case(&self, name: &str) -> Option<&AblationCase> {
        self.cases.iter().find(|c| c.name == name)
    }
}

impl fmt::Display for AblationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FIG 7: Feature analysis (leave-one-group-out)")?;
        let grid = low_fpr_grid();
        let rows: Vec<Vec<String>> = self
            .cases
            .iter()
            .map(|c| {
                let mut row = vec![c.name.clone()];
                row.extend(grid.iter().map(|&g| pct(c.outcome.tpr_at_fpr(g))));
                row.push(format!("{:.4}", c.outcome.roc.partial_auc(0.01)));
                row
            })
            .collect();
        let mut headers: Vec<String> = vec!["features".to_owned()];
        headers.extend(grid.iter().map(|&g| format!("TPR@{}", pct2(g))));
        headers.push("pAUC(1%)".to_owned());
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        f.write_str(&render_table(&header_refs, &rows))?;
        writeln!(f)?;
        writeln!(f, "Permutation importance (AUC drop per shuffled feature):")?;
        let rows: Vec<Vec<String>> = self
            .importances
            .iter()
            .map(|(name, imp)| vec![name.clone(), format!("{imp:+.4}")])
            .collect();
        f.write_str(&render_table(&["feature", "importance"], &rows))
    }
}

/// Runs the four-way ablation on an ISP1 cross-day pair.
pub fn run(scale: &Scale) -> AblationReport {
    let w = scale.warmup;
    let scenario = Scenario::run(scale.isp1.clone(), w, &[w, w + 13]);
    let bl = scenario.isp().commercial_blacklist().clone();
    let split = select_test_split(
        &scenario,
        w + 13,
        &bl,
        scale.frac_test_malware,
        scale.frac_test_benign,
        scale.seed,
    );

    let configs: Vec<(String, SegugioConfig)> = vec![
        ("All features".to_owned(), scale.config.clone()),
        (
            "No machine".to_owned(),
            with_columns(&scale.config, FeatureGroup::MachineBehavior),
        ),
        (
            "No activity".to_owned(),
            with_columns(&scale.config, FeatureGroup::DomainActivity),
        ),
        (
            "No IP".to_owned(),
            with_columns(&scale.config, FeatureGroup::IpAbuse),
        ),
    ];

    let cases = configs
        .into_iter()
        .map(|(name, config)| AblationCase {
            name,
            outcome: train_and_eval(&scenario, w, &scenario, w + 13, &split, &config, &bl, &bl),
        })
        .collect();

    // Per-feature permutation importance on the training day.
    let train_snap = scenario.snapshot(w, &scale.config, &bl, None);
    let train_set = measure_day(
        &train_snap,
        scenario.isp().activity(),
        scale.config.features,
        scale.config.parallelism,
        |label| label != Label::Unknown,
    )
    .train;
    let model = Segugio::train_prepared(&train_set, &scale.config)
        .expect("training day seeds both classes");
    let scorer = FullVectorScorer { model };
    // Full AUC saturates on the training day; measure the drop in the
    // low-FP operating range instead.
    let imp = segugio_ml::permutation_importance_by(&scorer, &train_set, scale.seed, |roc| {
        roc.partial_auc(0.05)
    });
    let mut importances: Vec<(String, f64)> = FEATURE_NAMES
        .iter()
        .map(|n| n.to_string())
        .zip(imp)
        .collect();
    importances.sort_by(|a, b| b.1.total_cmp(&a.1));

    AblationReport { cases, importances }
}

/// Adapter: scores full 11-feature rows through a `SegugioModel`.
struct FullVectorScorer {
    model: segugio_core::SegugioModel,
}

impl segugio_ml::Classifier for FullVectorScorer {
    fn score(&self, features: &[f32]) -> f32 {
        self.model.score_features(features)
    }
}

fn with_columns(base: &SegugioConfig, drop: FeatureGroup) -> SegugioConfig {
    SegugioConfig {
        feature_columns: Some(drop.complement_columns()),
        ..base.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_ablation_orders_cases() {
        let report = run(&Scale::tiny());
        assert_eq!(report.cases.len(), 4);
        let all = report
            .case("All features")
            .unwrap()
            .outcome
            .roc
            .partial_auc(0.05);
        for case in &report.cases {
            let p = case.outcome.roc.partial_auc(0.05);
            // All-features should never be dramatically worse than any
            // ablated variant (small-sample noise allowed).
            assert!(p <= all + 0.15, "{} pAUC {p} vs all {all}", case.name);
        }
        assert!(report.to_string().contains("FIG 7"));
    }
}
