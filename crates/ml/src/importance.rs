//! Permutation feature importance.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::eval::RocCurve;
use crate::Classifier;

/// Measures permutation importance: for each feature column, the drop in
/// `metric` (e.g. ROC AUC, or partial AUC at the low-FP operating range,
/// where full AUC saturates) when that column's values are shuffled across
/// samples. Larger drops mean the model leans harder on the feature.
///
/// Returns one importance per column (may be slightly negative for
/// irrelevant features, from shuffle noise).
///
/// # Panics
///
/// Panics if `data` is empty or contains only one class.
///
/// # Example
///
/// ```
/// use segugio_ml::{permutation_importance_by, Dataset, ForestConfig, RandomForest};
///
/// let mut data = Dataset::new(2);
/// for i in 0..100 {
///     // Column 0 decides the label; column 1 is noise.
///     data.push(&[i as f32, (i % 7) as f32], i >= 50);
/// }
/// let forest = RandomForest::fit(&data, &ForestConfig { n_trees: 10, ..Default::default() });
/// let imp = permutation_importance_by(&forest, &data, 1, |roc| roc.auc());
/// assert!(imp[0] > imp[1]);
/// ```
pub fn permutation_importance_by<C, M>(model: &C, data: &Dataset, seed: u64, metric: M) -> Vec<f64>
where
    C: Classifier,
    M: Fn(&RocCurve) -> f64,
{
    assert!(!data.is_empty(), "need samples to measure importance");
    let baseline_scores = model.score_all(data);
    let baseline = metric(&RocCurve::from_scores(&baseline_scores, data.labels()));

    let n = data.len();
    let k = data.n_features();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut importances = Vec::with_capacity(k);
    let mut row_buf = vec![0.0f32; k];
    for col in 0..k {
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut rng);
        let mut scores = Vec::with_capacity(n);
        for (i, &src) in perm.iter().enumerate() {
            row_buf.copy_from_slice(data.row(i));
            row_buf[col] = data.row(src)[col];
            scores.push(model.score(&row_buf));
        }
        let shuffled = metric(&RocCurve::from_scores(&scores, data.labels()));
        importances.push(baseline - shuffled);
    }
    importances
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{ForestConfig, RandomForest};

    fn model_and_data() -> (RandomForest, Dataset) {
        let mut data = Dataset::new(3);
        for i in 0..200 {
            let x = i as f32 / 200.0;
            // Column 1 is the signal; 0 and 2 are noise.
            data.push(&[(i % 13) as f32, x, (i % 5) as f32], x >= 0.5);
        }
        let forest = RandomForest::fit(
            &data,
            &ForestConfig {
                n_trees: 15,
                ..ForestConfig::default()
            },
        );
        (forest, data)
    }

    #[test]
    fn signal_column_dominates() {
        let (forest, data) = model_and_data();
        let imp = permutation_importance_by(&forest, &data, 7, RocCurve::auc);
        assert_eq!(imp.len(), 3);
        assert!(imp[1] > imp[0], "signal {} vs noise {}", imp[1], imp[0]);
        assert!(imp[1] > imp[2]);
        assert!(imp[1] > 0.2, "signal importance {}", imp[1]);
    }

    #[test]
    fn importance_is_deterministic() {
        let (forest, data) = model_and_data();
        assert_eq!(
            permutation_importance_by(&forest, &data, 3, RocCurve::auc),
            permutation_importance_by(&forest, &data, 3, RocCurve::auc)
        );
    }
}
