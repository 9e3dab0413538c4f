//! ROC analysis at the low-FP operating points the paper reports.

/// An exact ROC curve computed from scored samples.
///
/// Ties in score are handled correctly: all samples sharing a score enter
/// the curve together, so no operating point "splits" a tie.
///
/// # Example
///
/// ```
/// use segugio_ml::RocCurve;
///
/// let scores = [0.9, 0.8, 0.7, 0.3, 0.2, 0.1];
/// let labels = [true, true, false, true, false, false];
/// let roc = RocCurve::from_scores(&scores, &labels);
/// assert!(roc.auc() > 0.7);
/// assert!((roc.tpr_at_fpr(0.5) - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct RocCurve {
    /// `(fpr, tpr, threshold)` points, fpr ascending, starting at (0,0) and
    /// ending at (1,1).
    points: Vec<(f64, f64, f32)>,
    n_pos: usize,
    n_neg: usize,
}

impl RocCurve {
    /// Builds the curve from parallel score/label slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, are empty, or contain only one
    /// class.
    pub fn from_scores(scores: &[f32], labels: &[bool]) -> Self {
        assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
        assert!(!scores.is_empty(), "cannot build a ROC from no samples");
        let n_pos = labels.iter().filter(|&&l| l).count();
        let n_neg = labels.len() - n_pos;
        assert!(n_pos > 0, "ROC requires at least one positive sample");
        assert!(n_neg > 0, "ROC requires at least one negative sample");

        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_unstable_by(|&a, &b| scores[b].total_cmp(&scores[a]));

        let mut points = Vec::with_capacity(scores.len() + 1);
        points.push((0.0, 0.0, f32::INFINITY));
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut i = 0;
        while i < order.len() {
            let s = scores[order[i]];
            // Consume the whole tie group.
            while i < order.len() && scores[order[i]] == s {
                if labels[order[i]] {
                    tp += 1;
                } else {
                    fp += 1;
                }
                i += 1;
            }
            points.push((fp as f64 / n_neg as f64, tp as f64 / n_pos as f64, s));
        }
        RocCurve {
            points,
            n_pos,
            n_neg,
        }
    }

    /// Curve points `(fpr, tpr, threshold)`, fpr ascending.
    pub fn points(&self) -> &[(f64, f64, f32)] {
        &self.points
    }

    /// Number of positive samples behind the curve.
    pub fn positive_count(&self) -> usize {
        self.n_pos
    }

    /// Number of negative samples behind the curve.
    pub fn negative_count(&self) -> usize {
        self.n_neg
    }

    /// The highest TPR achievable with FPR ≤ `max_fpr`.
    pub fn tpr_at_fpr(&self, max_fpr: f64) -> f64 {
        self.points
            .iter()
            .take_while(|&&(fpr, _, _)| fpr <= max_fpr + 1e-12)
            .map(|&(_, tpr, _)| tpr)
            .fold(0.0, f64::max)
    }

    /// The score threshold realizing [`RocCurve::tpr_at_fpr`]: the smallest
    /// threshold whose FPR stays ≤ `max_fpr`. Classify as positive when
    /// `score >= threshold`.
    pub fn threshold_for_fpr(&self, max_fpr: f64) -> f32 {
        let mut best = f32::INFINITY;
        for &(fpr, _, thr) in &self.points {
            if fpr <= max_fpr + 1e-12 {
                best = thr;
            } else {
                break;
            }
        }
        best
    }

    /// Area under the full curve (trapezoidal).
    pub fn auc(&self) -> f64 {
        self.partial_auc(1.0) // full range
    }

    /// Area under the curve restricted to `fpr ∈ [0, max_fpr]`, normalized
    /// by `max_fpr` so a perfect classifier scores 1.0.
    ///
    /// # Panics
    ///
    /// Panics if `max_fpr` is not in `(0, 1]`.
    pub fn partial_auc(&self, max_fpr: f64) -> f64 {
        assert!(max_fpr > 0.0 && max_fpr <= 1.0, "max_fpr must be in (0, 1]");
        let mut area = 0.0;
        for w in self.points.windows(2) {
            let (x0, y0, _) = w[0];
            let (x1, y1, _) = w[1];
            if x0 >= max_fpr {
                break;
            }
            let (x1c, y1c) = if x1 > max_fpr {
                // Linear interpolation at the cut.
                let t = (max_fpr - x0) / (x1 - x0);
                (max_fpr, y0 + t * (y1 - y0))
            } else {
                (x1, y1)
            };
            area += (x1c - x0) * (y0 + y1c) * 0.5;
        }
        area / max_fpr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier() {
        let scores = [0.9, 0.8, 0.1, 0.2];
        let labels = [true, true, false, false];
        let roc = RocCurve::from_scores(&scores, &labels);
        assert!((roc.auc() - 1.0).abs() < 1e-9);
        assert!((roc.tpr_at_fpr(0.0) - 1.0).abs() < 1e-9);
        assert!((roc.partial_auc(0.1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn random_classifier_auc_half() {
        // Alternating labels with identical scores → chance performance.
        let scores = [0.5f32; 100];
        let labels: Vec<bool> = (0..100).map(|i| i % 2 == 0).collect();
        let roc = RocCurve::from_scores(&scores, &labels);
        assert!((roc.auc() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn inverted_classifier_auc_zero() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [true, true, false, false];
        let roc = RocCurve::from_scores(&scores, &labels);
        assert!(roc.auc() < 1e-9);
        assert_eq!(roc.tpr_at_fpr(0.4), 0.0);
    }

    #[test]
    fn ties_enter_together() {
        // Two positives and two negatives all tied: the only operating
        // points are (0,0) and (1,1).
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [true, false, true, false];
        let roc = RocCurve::from_scores(&scores, &labels);
        assert_eq!(roc.points().len(), 2);
        assert_eq!(roc.tpr_at_fpr(0.5), 0.0);
    }

    #[test]
    fn threshold_selection() {
        let scores = [0.9, 0.7, 0.6, 0.4, 0.3, 0.1];
        let labels = [true, true, false, true, false, false];
        let roc = RocCurve::from_scores(&scores, &labels);
        // (true positives, false positives) among scores at or above `thr`.
        let flagged = |thr: f32| {
            let (mut tp, mut fp) = (0, 0);
            for (&s, &l) in scores.iter().zip(&labels) {
                if s >= thr && l {
                    tp += 1;
                } else if s >= thr {
                    fp += 1;
                }
            }
            (tp, fp)
        };
        assert_eq!(flagged(roc.threshold_for_fpr(0.0)), (2, 0));
        assert_eq!(flagged(roc.threshold_for_fpr(0.34)), (3, 1));
    }

    #[test]
    fn partial_auc_interpolates() {
        let scores = [0.9, 0.8, 0.7, 0.6];
        let labels = [true, false, true, false];
        let roc = RocCurve::from_scores(&scores, &labels);
        let p = roc.partial_auc(0.25);
        assert!(p > 0.0 && p <= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one positive")]
    fn single_class_panics() {
        RocCurve::from_scores(&[0.5, 0.4], &[false, false]);
    }
}
