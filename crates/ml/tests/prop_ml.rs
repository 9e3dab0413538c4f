//! Property-based tests for the ML substrate.

use proptest::prelude::*;

use segugio_ml::folds::{fold_split, grouped_kfold, stratified_kfold};
use segugio_ml::{
    BootstrapMode, Classifier, Dataset, ForestConfig, RandomForest, RocCurve, TreeConfig,
};

fn labeled_scores() -> impl Strategy<Value = (Vec<f32>, Vec<bool>)> {
    proptest::collection::vec((0.0f32..1.0, any::<bool>()), 2..200).prop_filter_map(
        "need both classes",
        |pairs| {
            let scores: Vec<f32> = pairs.iter().map(|&(s, _)| s).collect();
            let labels: Vec<bool> = pairs.iter().map(|&(_, l)| l).collect();
            (labels.iter().any(|&l| l) && labels.iter().any(|&l| !l)).then_some((scores, labels))
        },
    )
}

proptest! {
    /// ROC curves are monotone in both axes, bounded in [0,1], start at
    /// (0,0) and end at (1,1); AUC is within [0,1]; tpr_at_fpr is monotone
    /// in the FPR budget.
    #[test]
    fn roc_invariants((scores, labels) in labeled_scores()) {
        let roc = RocCurve::from_scores(&scores, &labels);
        let pts = roc.points();
        prop_assert_eq!(pts[0].0, 0.0);
        prop_assert_eq!(pts[0].1, 0.0);
        let last = pts[pts.len() - 1];
        prop_assert!((last.0 - 1.0).abs() < 1e-9);
        prop_assert!((last.1 - 1.0).abs() < 1e-9);
        for w in pts.windows(2) {
            prop_assert!(w[1].0 >= w[0].0);
            prop_assert!(w[1].1 >= w[0].1);
        }
        let auc = roc.auc();
        prop_assert!((0.0..=1.0).contains(&auc));
        let mut prev = 0.0;
        for fpr in [0.0, 0.01, 0.1, 0.5, 1.0] {
            let tpr = roc.tpr_at_fpr(fpr);
            prop_assert!(tpr >= prev - 1e-12);
            prop_assert!((0.0..=1.0).contains(&tpr));
            prev = tpr;
        }
    }

    /// A classifier that scores positives strictly above negatives has a
    /// perfect ROC.
    #[test]
    fn separated_scores_give_auc_one(
        n_pos in 1usize..50,
        n_neg in 1usize..50,
        gap in 0.01f32..0.5,
    ) {
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_pos {
            scores.push(0.5 + gap + i as f32 * 1e-4);
            labels.push(true);
        }
        for i in 0..n_neg {
            scores.push(0.5 - gap - i as f32 * 1e-4);
            labels.push(false);
        }
        let roc = RocCurve::from_scores(&scores, &labels);
        prop_assert!((roc.auc() - 1.0).abs() < 1e-9);
        prop_assert!((roc.tpr_at_fpr(0.0) - 1.0).abs() < 1e-9);
    }

    /// Tree and forest scores are always within [0, 1], for any data.
    #[test]
    fn scores_are_probabilities(
        rows in proptest::collection::vec(
            (proptest::collection::vec(-100.0f32..100.0, 3), any::<bool>()),
            4..80
        )
    ) {
        prop_assume!(rows.iter().any(|(_, l)| *l) && rows.iter().any(|(_, l)| !*l));
        let mut data = Dataset::new(3);
        for (x, y) in &rows {
            data.push(x, *y);
        }
        // One unbagged tree over every row and feature: a single CART.
        let tree = RandomForest::fit(&data, &ForestConfig {
            n_trees: 1,
            tree: TreeConfig { mtry: Some(3), ..TreeConfig::default() },
            bootstrap: BootstrapMode::None,
            ..Default::default()
        });
        let forest = RandomForest::fit(&data, &ForestConfig { n_trees: 5, ..Default::default() });
        for (x, _) in &rows {
            let t = tree.score(x);
            let f = forest.score(x);
            prop_assert!((0.0..=1.0).contains(&t), "tree score {t}");
            prop_assert!((0.0..=1.0).contains(&f), "forest score {f}");
        }
    }

    /// Stratified folds cover every sample exactly once and balance the
    /// positives across folds within one.
    #[test]
    fn stratified_folds_partition(
        labels in proptest::collection::vec(any::<bool>(), 10..200),
        k in 2usize..6,
        seed in any::<u64>(),
    ) {
        let fold = stratified_kfold(&labels, k, seed);
        prop_assert_eq!(fold.len(), labels.len());
        prop_assert!(fold.iter().all(|&f| f < k));
        let pos_total = labels.iter().filter(|&&l| l).count();
        let mut pos_per_fold = vec![0usize; k];
        for (i, &f) in fold.iter().enumerate() {
            if labels[i] {
                pos_per_fold[f] += 1;
            }
        }
        let lo = pos_total / k;
        let hi = pos_total.div_ceil(k);
        for &p in &pos_per_fold {
            prop_assert!((lo..=hi).contains(&p), "positives per fold {p} not in {lo}..={hi}");
        }
        // fold_split partitions.
        let (train, test) = fold_split(&fold, 0);
        prop_assert_eq!(train.len() + test.len(), labels.len());
    }

    /// Grouped folds never split a group.
    #[test]
    fn grouped_folds_keep_groups(
        groups in proptest::collection::vec(0u32..12, 5..100),
        k in 2usize..5,
        seed in any::<u64>(),
    ) {
        let fold = grouped_kfold(&groups, k, seed);
        prop_assert_eq!(fold.len(), groups.len());
        for g in 0..12u32 {
            let folds: std::collections::HashSet<usize> = groups
                .iter()
                .zip(&fold)
                .filter(|&(&gg, _)| gg == g)
                .map(|(_, &f)| f)
                .collect();
            prop_assert!(folds.len() <= 1, "group {g} split across {folds:?}");
        }
    }
}
