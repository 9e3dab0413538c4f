//! E7: Table III — analysis of Segugio's false positives.
//!
//! At a detection threshold tuned for ≈0.05% FPs (and >90% TPs), the paper
//! breaks down the whitelisted domains counted as false positives: how many
//! FQDs versus distinct e2LDs (many FPs share a free-hosting e2LD), the
//! contribution of the ten heaviest e2LDs, the feature patterns behind the
//! mistakes (>90% infected queriers, previously abused IPs, very recent
//! activity), and how many were in fact contacted by real malware in a
//! sandbox — i.e., not mistakes at all.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use segugio_core::{measure_day, ScoreBuffer, Segugio};
use segugio_model::psl;
use segugio_model::{DomainId, Label};

use crate::protocol::{outcome_over, select_test_split};
use crate::report::{count, pct, render_table};
use crate::scenario::Scenario;

use super::Scale;

/// Table III for one test experiment.
#[derive(Debug, Clone)]
pub struct FpBreakdown {
    /// Case name.
    pub name: String,
    /// Operating threshold used.
    pub threshold: f32,
    /// Realized TPR on the test split.
    pub tpr: f64,
    /// Realized FPR.
    pub fpr: f64,
    /// Distinct false-positive FQDs.
    pub fqds: usize,
    /// Distinct e2LDs among the FPs.
    pub e2lds: usize,
    /// FPs contributed by the ten heaviest e2LDs.
    pub top10_contribution: usize,
    /// FPs under known "free registration" e2LDs (Fig. 9 pattern).
    pub free_hosting_fps: usize,
    /// FPs whose querier population was >90% known-infected.
    pub high_infected_fraction: usize,
    /// FPs resolving to previously-abused IP space.
    pub past_abused_ips: usize,
    /// FPs active ≤ 3 days.
    pub recently_active: usize,
    /// FPs with sandbox evidence of malware communication.
    pub sandbox_evidence: usize,
}

/// The full Table III report (one breakdown per case).
#[derive(Debug, Clone)]
pub struct FpAnalysisReport {
    /// Per-case breakdowns.
    pub cases: Vec<FpBreakdown>,
}

impl fmt::Display for FpAnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TABLE III: Analysis of Segugio's FPs")?;
        let rows: Vec<Vec<String>> = self
            .cases
            .iter()
            .map(|c| {
                let share = |n: usize| {
                    if c.fqds == 0 {
                        "0 (0.0%)".to_owned()
                    } else {
                        format!("{} ({})", count(n), pct(n as f64 / c.fqds as f64))
                    }
                };
                vec![
                    c.name.clone(),
                    format!("{} / {}", pct(c.tpr), pct(c.fpr)),
                    count(c.fqds),
                    count(c.e2lds),
                    share(c.top10_contribution),
                    share(c.free_hosting_fps),
                    share(c.high_infected_fraction),
                    share(c.past_abused_ips),
                    share(c.recently_active),
                    share(c.sandbox_evidence),
                ]
            })
            .collect();
        f.write_str(&render_table(
            &[
                "Test Experiment",
                "TPR/FPR",
                "FQDs",
                "e2LDs",
                "top-10 e2LDs",
                "free-hosting",
                ">90% infected",
                "abused IPs",
                "active<=3d",
                "sandbox",
            ],
            &rows,
        ))
    }
}

/// Runs the FP analysis on the paper's three cases.
pub fn run(scale: &Scale, target_fpr: f64) -> FpAnalysisReport {
    let w = scale.warmup;
    let isp1 = Scenario::run(scale.isp1.clone(), w, &[w, w + 13]);
    let isp2 = Scenario::run(scale.isp2.clone(), w, &[w, w + 15]);
    let cases = vec![
        analyze_case(
            "(a) ISP1 cross-day",
            &isp1,
            w,
            &isp1,
            w + 13,
            scale,
            target_fpr,
        ),
        analyze_case(
            "(b) ISP2 cross-day",
            &isp2,
            w,
            &isp2,
            w + 15,
            scale,
            target_fpr,
        ),
        analyze_case(
            "(c) ISP1-ISP2 cross-network",
            &isp1,
            w,
            &isp2,
            w + 15,
            scale,
            target_fpr,
        ),
    ];
    FpAnalysisReport { cases }
}

/// Trains on `train@train_day`, tests on `test@test_day`, thresholds at
/// `target_fpr`, and dissects the resulting false positives.
pub fn analyze_case(
    name: &str,
    train: &Scenario,
    train_day: u32,
    test: &Scenario,
    test_day: u32,
    scale: &Scale,
    target_fpr: f64,
) -> FpBreakdown {
    let bl_train = train.isp().commercial_blacklist();
    let bl_test = test.isp().commercial_blacklist();
    let split = select_test_split(
        test,
        test_day,
        bl_test,
        scale.frac_test_malware,
        scale.frac_test_benign,
        scale.seed + 77,
    );
    let hidden = split.hidden();

    let train_snap = train.snapshot(train_day, &scale.config, bl_train, Some(&hidden));
    let model = Segugio::train(&train_snap, train.isp().activity(), &scale.config)
        .expect("training day seeds both classes");

    // Measure the test day's unknowns once: the same rows are scored here
    // and dissected for each false positive below.
    let test_snap = test.snapshot(test_day, &scale.config, bl_test, Some(&hidden));
    let measured = measure_day(
        &test_snap,
        test.isp().activity(),
        model.feature_config(),
        scale.config.parallelism,
        Label::is_unknown,
    );
    let mut buf = ScoreBuffer::new();
    model.score_rows_with(&measured.unknown_ids, &measured.unknown_rows, &mut buf);

    let out = outcome_over(buf.detections(), &split);
    let threshold = out.roc.threshold_for_fpr(target_fpr);

    // The FP set: benign test domains at or above the threshold.
    let fps: BTreeSet<DomainId> = out
        .scores
        .iter()
        .filter(|&&(_, s, m)| !m && s >= threshold)
        .map(|&(d, _, _)| d)
        .collect();
    let tp = out
        .scores
        .iter()
        .filter(|&&(_, s, m)| m && s >= threshold)
        .count();
    let (n_mal, n_ben) = (out.tested_malware, out.tested_benign);

    // Per-FP feature dissection, on the rows each FP was scored on.
    let table = test.isp().table();
    let truth = test.isp().truth();
    let mut e2ld_count: HashMap<u32, usize> = HashMap::new();
    let mut high_infected = 0usize;
    let mut abused = 0usize;
    let mut recent = 0usize;
    let mut sandbox = 0usize;
    let mut free_hosting = 0usize;
    for (&d, f) in measured.unknown_ids.iter().zip(&measured.unknown_rows) {
        if !fps.contains(&d) {
            continue;
        }
        let e2ld = table.e2ld_of(d);
        *e2ld_count.entry(e2ld.0).or_insert(0) += 1;
        if psl::is_known_free_hosting(table.e2ld_str(e2ld)) {
            free_hosting += 1;
        }
        if truth.sandbox_queried(d) {
            sandbox += 1;
        }
        if f[0] > 0.9 {
            high_infected += 1;
        }
        if f[7] > 0.0 {
            abused += 1;
        }
        if f[3] <= 3.0 {
            recent += 1;
        }
    }
    let mut by_weight: Vec<usize> = e2ld_count.values().copied().collect();
    by_weight.sort_unstable_by(|a, b| b.cmp(a));
    let top10: usize = by_weight.iter().take(10).sum();

    FpBreakdown {
        name: name.to_owned(),
        threshold,
        tpr: if n_mal == 0 {
            0.0
        } else {
            tp as f64 / n_mal as f64
        },
        fpr: if n_ben == 0 {
            0.0
        } else {
            fps.len() as f64 / n_ben as f64
        },
        fqds: fps.len(),
        e2lds: e2ld_count.len(),
        top10_contribution: top10,
        free_hosting_fps: free_hosting,
        high_infected_fraction: high_infected,
        past_abused_ips: abused,
        recently_active: recent,
        sandbox_evidence: sandbox,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_fp_analysis_is_consistent() {
        let scale = Scale::tiny();
        let w = scale.warmup;
        let s = Scenario::run(scale.isp1.clone(), w, &[w, w + 13]);
        // Use a permissive FPR so some FPs exist to dissect.
        let b = analyze_case("tiny", &s, w, &s, w + 13, &scale, 0.02);
        assert!(b.fpr <= 0.05, "fpr {} beyond requested budget", b.fpr);
        assert!(b.e2lds <= b.fqds);
        assert!(b.top10_contribution <= b.fqds);
        assert!(b.high_infected_fraction <= b.fqds);
        assert!(b.sandbox_evidence <= b.fqds);
        let report = FpAnalysisReport { cases: vec![b] };
        assert!(report.to_string().contains("TABLE III"));
    }
}
