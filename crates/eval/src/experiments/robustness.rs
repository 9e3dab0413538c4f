//! Section VI robustness studies: DHCP churn, scanner noise (with the
//! anti-probing heuristic), and infected-machine enumeration.
//!
//! These are the paper's discussed-but-unplotted limitations, turned into
//! measurable experiments:
//!
//! - **DHCP churn** — when source addresses are used as machine
//!   identifiers, lease churn splits a machine's behavior across ids;
//!   the paper notes ISPs can correlate DHCP logs to avoid this. The sweep
//!   quantifies how much accuracy the correlation buys.
//! - **Scanner noise** — monitoring clients that probe blacklisted names
//!   would be labeled "infected" and drag benign domains' infected-querier
//!   fractions up. The paper filtered such clients with heuristics; here
//!   the heuristic is `probe_filter` (drop machines querying ≥ N known
//!   malware domains — real infections practically never exceed twenty,
//!   Fig. 3).
//! - **Infection enumeration** — "Segugio can detect both malware-control
//!   domains and the infected machines that query them at the same time":
//!   precision/recall of the machine set implicated by detections.

use std::fmt;

use segugio_core::{Segugio, SegugioConfig};
use segugio_traffic::IspConfig;

use crate::protocol::{eval_model, select_test_split, train_and_eval};
use crate::report::{pct, render_table};
use crate::scenario::Scenario;

use super::Scale;

/// One robustness sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Description of the condition, e.g. `"churn 20%"`.
    pub condition: String,
    /// TPR at 1% FP under that condition.
    pub tpr_at_1pct: f64,
    /// Partial AUC in the 1% FP range.
    pub pauc: f64,
}

/// Precision/recall of infected-machine enumeration.
#[derive(Debug, Clone, Copy)]
pub struct InfectionEnumeration {
    /// Machines implicated by the detections.
    pub implicated: usize,
    /// Implicated machines that are truly infected.
    pub true_positives: usize,
    /// Truly infected machines present in the day's pruned graph.
    pub infected_in_graph: usize,
}

impl InfectionEnumeration {
    /// Fraction of implicated machines that are truly infected.
    pub fn precision(&self) -> f64 {
        if self.implicated == 0 {
            0.0
        } else {
            self.true_positives as f64 / self.implicated as f64
        }
    }

    /// Fraction of the graph's truly infected machines that were implicated.
    pub fn recall(&self) -> f64 {
        if self.infected_in_graph == 0 {
            0.0
        } else {
            self.true_positives as f64 / self.infected_in_graph as f64
        }
    }
}

/// The Section VI robustness report.
#[derive(Debug, Clone)]
pub struct RobustnessReport {
    /// DHCP-churn sweep.
    pub churn: Vec<SweepPoint>,
    /// Scanner-noise sweep (with/without the probing filter).
    pub scanners: Vec<SweepPoint>,
    /// Machine-enumeration quality at a 0.1%-FP operating point.
    pub enumeration: InfectionEnumeration,
}

impl fmt::Display for RobustnessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SECTION VI: robustness studies")?;
        let rows: Vec<Vec<String>> = self
            .churn
            .iter()
            .chain(self.scanners.iter())
            .map(|p| {
                vec![
                    p.condition.clone(),
                    pct(p.tpr_at_1pct),
                    format!("{:.4}", p.pauc),
                ]
            })
            .collect();
        f.write_str(&render_table(&["condition", "TPR@1%FP", "pAUC(1%)"], &rows))?;
        writeln!(f)?;
        writeln!(
            f,
            "infection enumeration: {} machines implicated, precision {}, recall {}",
            self.enumeration.implicated,
            pct(self.enumeration.precision()),
            pct(self.enumeration.recall())
        )
    }
}

/// Runs all three robustness studies at the given scale.
pub fn run(scale: &Scale) -> RobustnessReport {
    RobustnessReport {
        churn: churn_sweep(scale, &[0.0, 0.2, 0.5]),
        scanners: scanner_sweep(scale, 0.003),
        // A tight operating point: at looser FP budgets a single popular
        // false-positive domain implicates thousands of machines.
        enumeration: enumeration_quality(scale, 0.001),
    }
}

/// Accuracy under increasing DHCP identifier churn.
pub fn churn_sweep(scale: &Scale, rates: &[f64]) -> Vec<SweepPoint> {
    let w = scale.warmup;
    rates
        .iter()
        .map(|&rate| {
            let cfg = IspConfig {
                name: format!("churn-{rate}"),
                dhcp_churn: rate,
                ..scale.isp1.clone()
            };
            let scenario = Scenario::run(cfg, w, &[w, w + 13]);
            let bl = scenario.isp().commercial_blacklist().clone();
            let split = select_test_split(
                &scenario,
                w + 13,
                &bl,
                scale.frac_test_malware,
                scale.frac_test_benign,
                scale.seed + 90,
            );
            let out = train_and_eval(
                &scenario,
                w,
                &scenario,
                w + 13,
                &split,
                &scale.config,
                &bl,
                &bl,
            );
            SweepPoint {
                condition: format!("DHCP churn {}", pct(rate)),
                tpr_at_1pct: out.tpr_at_fpr(0.01),
                pauc: out.roc.partial_auc(0.01),
            }
        })
        .collect()
}

/// Accuracy with scanner clients present, with and without the probing
/// filter.
pub fn scanner_sweep(scale: &Scale, scanner_fraction: f64) -> Vec<SweepPoint> {
    let w = scale.warmup;
    let cfg = IspConfig {
        name: "with-scanners".to_owned(),
        scanner_fraction,
        ..scale.isp1.clone()
    };
    let scenario = Scenario::run(cfg, w, &[w, w + 13]);
    let bl = scenario.isp().commercial_blacklist().clone();
    let split = select_test_split(
        &scenario,
        w + 13,
        &bl,
        scale.frac_test_malware,
        scale.frac_test_benign,
        scale.seed + 91,
    );
    let mut out = Vec::new();
    // The threshold sits above anything a real (even triple-) infection
    // queries per day — Fig. 3 caps around twenty per family.
    for (name, filter) in [
        ("scanners, no filter", None),
        ("scanners, probe filter", Some(40)),
    ] {
        let config = SegugioConfig {
            probe_filter: filter,
            ..scale.config.clone()
        };
        let o = train_and_eval(&scenario, w, &scenario, w + 13, &split, &config, &bl, &bl);
        out.push(SweepPoint {
            condition: name.to_owned(),
            tpr_at_1pct: o.tpr_at_fpr(0.01),
            pauc: o.roc.partial_auc(0.01),
        });
    }
    out
}

/// Precision/recall of the machine set implicated by detections at a
/// `target_fpr` operating point.
pub fn enumeration_quality(scale: &Scale, target_fpr: f64) -> InfectionEnumeration {
    let w = scale.warmup;
    let scenario = Scenario::run(scale.isp1.clone(), w, &[w, w + 13]);
    let bl = scenario.isp().commercial_blacklist().clone();
    let split = select_test_split(
        &scenario,
        w + 13,
        &bl,
        scale.frac_test_malware,
        scale.frac_test_benign,
        scale.seed + 92,
    );
    let hidden = split.hidden();
    let train_snap = scenario.snapshot(w, &scale.config, &bl, Some(&hidden));
    let model = Segugio::train(&train_snap, scenario.isp().activity(), &scale.config)
        .expect("training day seeds both classes");

    // Threshold from the held-out validation ROC, then deploy: score the
    // unhidden day and cut the sorted detections at the threshold.
    let out = eval_model(&model, &scenario, w + 13, &split, &scale.config, &bl);
    let threshold = out.roc.threshold_for_fpr(target_fpr);
    let snap = scenario.snapshot(w + 13, &scale.config, &bl, None);
    let detections = model.score_unknown(&snap, scenario.isp().activity());
    let flagged = detections.partition_point(|d| d.score >= threshold);
    let implicated = snap.implicated_machines(&detections[..flagged]);

    let isp = scenario.isp();
    let truth = isp.truth();
    let true_positives = implicated
        .iter()
        .filter(|&&m| truth.is_infected(isp.canonical_machine(m)))
        .count();
    let infected_in_graph = snap
        .graph
        .machine_indices()
        .filter(|&m| truth.is_infected(isp.canonical_machine(snap.graph.machine_id(m))))
        .count();
    InfectionEnumeration {
        implicated: implicated.len(),
        true_positives,
        infected_in_graph,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_robustness_report() {
        let scale = Scale::tiny();
        let report = run(&scale);
        assert_eq!(report.churn.len(), 3);
        assert_eq!(report.scanners.len(), 2);
        // Zero churn should be at least as good as heavy churn, with wide
        // slack for tiny-scale noise.
        assert!(report.churn[0].pauc + 0.25 >= report.churn[2].pauc);
        // Enumeration finds real infections with usable precision.
        let e = report.enumeration;
        assert!(e.implicated > 0);
        assert!(e.precision() > 0.5, "precision {}", e.precision());
        assert!(e.recall() > 0.2, "recall {}", e.recall());
        assert!(report.to_string().contains("SECTION VI"));
    }
}
