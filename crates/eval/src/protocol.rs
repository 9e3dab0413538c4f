//! The train/test evaluation protocol of Section IV-A.
//!
//! The invariant enforced here is the paper's: *no ground-truth information
//! about test domains is ever used during training or feature measurement.*
//! Test domains are hidden in both the training-day and test-day graphs, so
//! they (a) contribute no labeled training rows, (b) do not make machines
//! "known infected" or "known benign", and (c) are measured and scored
//! through the exact path a truly-unknown domain takes.

use std::collections::{BTreeSet, HashSet};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use segugio_core::{Detection, Segugio, SegugioConfig, SegugioModel};
use segugio_ml::RocCurve;
use segugio_model::{Blacklist, Day, DomainId};

use crate::scenario::Scenario;

/// A held-out test set of known domains.
#[derive(Debug, Clone, Default)]
pub struct TestSplit {
    /// Held-out known malware-control domains (ordered for deterministic
    /// iteration wherever callers walk the split).
    pub malware: BTreeSet<DomainId>,
    /// Held-out known benign domains.
    pub benign: BTreeSet<DomainId>,
}

impl TestSplit {
    /// The union of both sides, for use as a hidden set.
    pub fn hidden(&self) -> HashSet<DomainId> {
        self.malware.union(&self.benign).copied().collect()
    }

    /// Whether `d` is in either side.
    pub fn contains(&self, d: DomainId) -> bool {
        self.malware.contains(&d) || self.benign.contains(&d)
    }
}

/// Selects a test split from the domains observed on `day`:
/// `frac_malware` of the blacklisted (as of `day`) domains seen in traffic
/// and `frac_benign` of the whitelisted ones.
pub fn select_test_split(
    scenario: &Scenario,
    day: u32,
    blacklist: &Blacklist,
    frac_malware: f64,
    frac_benign: f64,
    seed: u64,
) -> TestSplit {
    let mut rng = StdRng::seed_from_u64(seed);
    let table = scenario.isp().table();
    let whitelist = scenario.isp().whitelist();
    let mut seen: Vec<DomainId> = scenario
        .capture(day)
        .queries
        .iter()
        .map(|&(_, d)| d)
        .collect();
    seen.sort_unstable();
    seen.dedup();

    let truth = scenario.isp().truth();
    let mut malware: Vec<DomainId> = Vec::new();
    let mut benign: Vec<DomainId> = Vec::new();
    for d in seen {
        if blacklist.contains_as_of(d, Day(day)) {
            malware.push(d);
        } else if whitelist.contains(table.e2ld_of(d)) && !truth.is_malicious(d) {
            // The e2ld whitelist covers free-hosting zones that malware
            // families abuse for C2 subdomains. A not-yet-blacklisted C2
            // name under such a zone must not enter the benign side: the
            // simulator knows it is malicious, and counting a correct
            // detection of it as a false positive contaminates the ROC.
            benign.push(d);
        }
    }
    malware.shuffle(&mut rng);
    benign.shuffle(&mut rng);
    malware.truncate((malware.len() as f64 * frac_malware).round() as usize);
    benign.truncate((benign.len() as f64 * frac_benign).round() as usize);
    TestSplit {
        malware: malware.into_iter().collect(),
        benign: benign.into_iter().collect(),
    }
}

/// The outcome of one train/test experiment.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// ROC over the held-out test domains.
    pub roc: RocCurve,
    /// `(domain, score, is_malware)` for every scored test domain.
    pub scores: Vec<(DomainId, f32, bool)>,
    /// Test malware domains present (and scored) in the test graph.
    pub tested_malware: usize,
    /// Test benign domains present (and scored) in the test graph.
    pub tested_benign: usize,
}

impl EvalOutcome {
    /// TPR at the given FPR (convenience passthrough).
    pub fn tpr_at_fpr(&self, fpr: f64) -> f64 {
        self.roc.tpr_at_fpr(fpr)
    }
}

/// Trains on `train_scenario@train_day` and evaluates on
/// `test_scenario@test_day` over `split` (already selected on the test
/// day). The scenarios may be the same network (cross-day) or different
/// ones (cross-network).
///
/// `blacklist_train` / `blacklist_test` are usually the same commercial
/// list; the public-blacklist experiments pass different ones.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors the experiment's natural arity"
)]
pub fn train_and_eval(
    train_scenario: &Scenario,
    train_day: u32,
    test_scenario: &Scenario,
    test_day: u32,
    split: &TestSplit,
    config: &SegugioConfig,
    blacklist_train: &Blacklist,
    blacklist_test: &Blacklist,
) -> EvalOutcome {
    let hidden = split.hidden();
    // Train with test domains hidden (they may appear on the training day
    // too — the paper hides them there as well).
    let train_snap = train_scenario.snapshot(train_day, config, blacklist_train, Some(&hidden));
    let model = Segugio::train(&train_snap, train_scenario.isp().activity(), config)
        .expect("training day seeds both classes");
    eval_model(
        &model,
        test_scenario,
        test_day,
        split,
        config,
        blacklist_test,
    )
}

/// Scores an already-trained model over a test split.
pub fn eval_model(
    model: &SegugioModel,
    test_scenario: &Scenario,
    test_day: u32,
    split: &TestSplit,
    config: &SegugioConfig,
    blacklist_test: &Blacklist,
) -> EvalOutcome {
    let hidden = split.hidden();
    let test_snap = test_scenario.snapshot(test_day, config, blacklist_test, Some(&hidden));
    // Score all unknown domains of the test graph, keep the test ones.
    let detections = model.score_unknown(&test_snap, test_scenario.isp().activity());
    outcome_over(&detections, split)
}

/// The outcome over `split` of a scored day: every detection of a test
/// domain, in the order given (descending score, as scoring sorts them).
pub(crate) fn outcome_over(detections: &[Detection], split: &TestSplit) -> EvalOutcome {
    let mut scores = Vec::new();
    let mut score_col = Vec::new();
    let mut label_col = Vec::new();
    let mut tested_malware = 0usize;
    let mut tested_benign = 0usize;
    for det in detections {
        let is_malware = if split.malware.contains(&det.domain) {
            tested_malware += 1;
            true
        } else if split.benign.contains(&det.domain) {
            tested_benign += 1;
            false
        } else {
            continue;
        };
        scores.push((det.domain, det.score, is_malware));
        score_col.push(det.score);
        label_col.push(is_malware);
    }
    let roc = RocCurve::from_scores(&score_col, &label_col);
    EvalOutcome {
        roc,
        scores,
        tested_malware,
        tested_benign,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segugio_traffic::IspConfig;

    fn scenario() -> Scenario {
        Scenario::run(IspConfig::tiny(21), 14, &[14, 16])
    }

    #[test]
    fn split_selects_known_domains_only() {
        let s = scenario();
        let bl = s.isp().commercial_blacklist();
        let split = select_test_split(&s, 16, bl, 0.5, 0.5, 7);
        assert!(!split.malware.is_empty());
        assert!(!split.benign.is_empty());
        let table = s.isp().table();
        for &d in &split.malware {
            assert!(bl.contains_as_of(d, Day(16)));
        }
        for &d in &split.benign {
            assert!(s.isp().whitelist().contains(table.e2ld_of(d)));
        }
        assert_eq!(
            split.hidden().len(),
            split.malware.len() + split.benign.len()
        );
    }

    #[test]
    fn split_is_deterministic() {
        let s = scenario();
        let bl = s.isp().commercial_blacklist();
        let a = select_test_split(&s, 16, bl, 0.5, 0.5, 7);
        let b = select_test_split(&s, 16, bl, 0.5, 0.5, 7);
        assert_eq!(a.malware, b.malware);
        assert_eq!(a.benign, b.benign);
    }

    #[test]
    fn train_and_eval_produces_sane_roc() {
        let s = scenario();
        let bl = s.isp().commercial_blacklist().clone();
        let split = select_test_split(&s, 16, &bl, 0.5, 0.3, 9);
        let mut config = SegugioConfig::default();
        if let segugio_core::ClassifierKind::Forest(f) = &mut config.classifier {
            f.n_trees = 20;
        }
        let out = train_and_eval(&s, 14, &s, 16, &split, &config, &bl, &bl);
        assert!(out.tested_malware > 0, "some malware domains scored");
        assert!(out.tested_benign > 0);
        // Even the tiny scenario should separate far better than chance.
        assert!(
            out.roc.auc() > 0.7,
            "AUC {} too low for a working detector",
            out.roc.auc()
        );
    }
}
