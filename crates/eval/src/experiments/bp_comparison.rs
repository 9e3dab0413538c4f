//! E13: the Section I pilot comparison against loopy belief propagation
//! (Manadhata et al. [6], run on GraphLab in the paper).
//!
//! Both systems consume the same labeled day graph with the same test
//! domains hidden. Expected shapes: Segugio is substantially more accurate
//! at low FP rates (the paper measured ≈45% better on average) and its
//! classification pass is much faster than BP's edge-sweeping iterations
//! (minutes versus tens of hours at ISP scale).

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

use segugio_baselines::{cooccurrence_scores, BeliefConfig, BeliefPropagation};
use segugio_core::{ScoreBuffer, Segugio};
use segugio_ml::RocCurve;
use segugio_model::DomainId;

use crate::protocol::select_test_split;
use crate::report::{pct, pct2, render_table};
use crate::scenario::Scenario;

use super::Scale;

/// One compared system.
#[derive(Debug, Clone)]
pub struct BpCase {
    /// System name.
    pub name: String,
    /// ROC over the shared test split.
    pub roc: RocCurve,
    /// Wall-clock of the scoring phase in milliseconds.
    pub score_ms: f64,
}

/// The comparison report.
#[derive(Debug, Clone)]
pub struct BpReport {
    /// Segugio, loopy BP and the co-occurrence heuristic.
    pub cases: Vec<BpCase>,
}

impl BpReport {
    /// The case by name.
    pub fn case(&self, name: &str) -> Option<&BpCase> {
        self.cases.iter().find(|c| c.name == name)
    }
}

impl fmt::Display for BpReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "PILOT: Segugio vs loopy BP vs co-occurrence")?;
        let rows: Vec<Vec<String>> = self
            .cases
            .iter()
            .map(|c| {
                vec![
                    c.name.clone(),
                    pct(c.roc.tpr_at_fpr(0.001)),
                    pct(c.roc.tpr_at_fpr(0.01)),
                    format!("{:.4}", c.roc.partial_auc(0.01)),
                    format!("{:.1}", c.score_ms),
                ]
            })
            .collect();
        f.write_str(&render_table(
            &[
                "system",
                &format!("TPR@{}", pct2(0.001)),
                &format!("TPR@{}", pct2(0.01)),
                "pAUC(1%)",
                "score ms",
            ],
            &rows,
        ))
    }
}

/// Runs the three systems on one ISP1 cross-day pair.
#[expect(
    clippy::disallowed_methods,
    reason = "score_ms is a reported measurement, not part of the deterministic result"
)]
pub fn run(scale: &Scale) -> BpReport {
    let w = scale.warmup;
    let scenario = Scenario::run(scale.isp1.clone(), w, &[w, w + 13]);
    let bl = scenario.isp().commercial_blacklist().clone();
    let split = select_test_split(
        &scenario,
        w + 13,
        &bl,
        scale.frac_test_malware,
        scale.frac_test_benign,
        scale.seed + 31,
    );
    let hidden = split.hidden();
    let test_snap = scenario.snapshot(w + 13, &scale.config, &bl, Some(&hidden));
    let activity = scenario.isp().activity();

    let mut cases = Vec::new();

    // --- Segugio ---
    let train_snap = scenario.snapshot(w, &scale.config, &bl, Some(&hidden));
    let model = Segugio::train(&train_snap, activity, &scale.config)
        .expect("training day seeds both classes");
    let mut buf = ScoreBuffer::new();
    let t = Instant::now();
    model.score_unknown_with(&test_snap, activity, &mut buf);
    let seg_ms = t.elapsed().as_secs_f64() * 1e3;
    let seg: BTreeMap<DomainId, f32> = buf
        .detections()
        .iter()
        .map(|d| (d.domain, d.score))
        .collect();
    cases.push(case_from("Segugio", &seg, &split, seg_ms));

    // --- Loopy BP ---
    let bp = BeliefPropagation::new(BeliefConfig::default());
    let t = Instant::now();
    let bp_scores: BTreeMap<DomainId, f32> =
        bp.score_unknown(&test_snap.graph).into_iter().collect();
    let bp_ms = t.elapsed().as_secs_f64() * 1e3;
    cases.push(case_from("Loopy BP", &bp_scores, &split, bp_ms));

    // --- Co-occurrence ---
    let t = Instant::now();
    let co: BTreeMap<DomainId, f32> = cooccurrence_scores(&test_snap.graph).into_iter().collect();
    let co_ms = t.elapsed().as_secs_f64() * 1e3;
    cases.push(case_from("Co-occurrence", &co, &split, co_ms));

    BpReport { cases }
}

fn case_from(
    name: &str,
    scores: &BTreeMap<DomainId, f32>,
    split: &crate::protocol::TestSplit,
    ms: f64,
) -> BpCase {
    let mut s = Vec::new();
    let mut l = Vec::new();
    for (&d, &score) in scores {
        if split.malware.contains(&d) {
            s.push(score);
            l.push(true);
        } else if split.benign.contains(&d) {
            s.push(score);
            l.push(false);
        }
    }
    BpCase {
        name: name.to_owned(),
        roc: RocCurve::from_scores(&s, &l),
        score_ms: ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_bp_comparison_runs_all_systems() {
        let report = run(&Scale::tiny());
        assert_eq!(report.cases.len(), 3);
        let seg = report.case("Segugio").unwrap();
        let bp = report.case("Loopy BP").unwrap();
        // Segugio should match or beat BP in the low-FP regime (the paper's
        // headline finding), with slack for tiny-sample noise.
        assert!(
            seg.roc.partial_auc(0.05) + 0.1 >= bp.roc.partial_auc(0.05),
            "segugio {} vs bp {}",
            seg.roc.partial_auc(0.05),
            bp.roc.partial_auc(0.05)
        );
        assert!(report.to_string().contains("PILOT"));
    }
}
