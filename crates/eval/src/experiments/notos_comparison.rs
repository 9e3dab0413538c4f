//! E12: Fig. 12 + Table IV — comparison with the Notos domain-reputation
//! system.
//!
//! Protocol (paper Section V): both systems are trained with ground truth
//! known up to `t_train`; Notos gets a blacklist superset and the top-100K
//! popular whitelist; Segugio is restricted to the same top-100K whitelist
//! for fairness. Both are tested 24 days later on the *new* confirmed
//! malware-control domains blacklisted in `(t_train, t_test]`, with FPs
//! counted over whitelisted domains excluded from training. Expected
//! shapes: Notos needs a very large FP budget to detect roughly half of
//! the new domains (reject option caps its TPs); Segugio detects most of
//! them within a sub-1% FP budget.

use std::collections::HashSet;
use std::fmt;

use segugio_baselines::{Notos, NotosConfig};
use segugio_core::{ScoreBuffer, Segugio};
use segugio_ml::RocCurve;
use segugio_model::{Blacklist, Day, DomainId, Label};
use segugio_pdns::AbuseIndex;

use crate::report::{count, pct, render_table};
use crate::scenario::Scenario;

use super::Scale;

/// Notos's Table IV FP breakdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct NotosFpBreakdown {
    /// All Notos FPs at the TP-maximizing threshold.
    pub total: usize,
    /// FPs with sandbox evidence of malware queries (not really FPs).
    pub queried_by_malware: usize,
    /// FPs resolving to IPs previously used by malware.
    pub malware_ips: usize,
    /// FPs resolving into /24s previously used by malware.
    pub malware_prefixes: usize,
    /// FPs with no discernible evidence — potential reputation FPs.
    pub no_evidence: usize,
}

/// The Fig. 12 + Table IV report for one network.
#[derive(Debug, Clone)]
pub struct NotosCase {
    /// Network name.
    pub name: String,
    /// New blacklisted domains observed at test time (the TP ground truth).
    pub new_domains: usize,
    /// Domains Notos rejected (no pDNS history).
    pub notos_rejected: usize,
    /// Notos ROC (rejections scored below every threshold).
    pub notos_roc: RocCurve,
    /// Segugio ROC on the same test set.
    pub segugio_roc: RocCurve,
    /// Table IV breakdown of Notos's FPs.
    pub breakdown: NotosFpBreakdown,
}

/// The full comparison report.
#[derive(Debug, Clone)]
pub struct NotosReport {
    /// One case per network.
    pub cases: Vec<NotosCase>,
}

impl fmt::Display for NotosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FIG 12: Notos vs Segugio on newly blacklisted domains")?;
        let rows: Vec<Vec<String>> = self
            .cases
            .iter()
            .flat_map(|c| {
                vec![
                    vec![
                        format!("{} Notos", c.name),
                        count(c.new_domains),
                        pct(c.notos_roc.tpr_at_fpr(0.05)),
                        pct(c.notos_roc.tpr_at_fpr(0.2)),
                        pct(c.notos_roc.tpr_at_fpr(1.0)),
                    ],
                    vec![
                        format!("{} Segugio", c.name),
                        count(c.new_domains),
                        pct(c.segugio_roc.tpr_at_fpr(0.007)),
                        pct(c.segugio_roc.tpr_at_fpr(0.01)),
                        pct(c.segugio_roc.tpr_at_fpr(0.03)),
                    ],
                ]
            })
            .collect();
        f.write_str(&render_table(
            &["system", "new domains", "TPR@lo", "TPR@mid", "TPR@hi"],
            &rows,
        ))?;
        writeln!(f)?;
        writeln!(f, "TABLE IV: Break-down of Notos's FPs")?;
        let rows: Vec<Vec<String>> = self
            .cases
            .iter()
            .map(|c| {
                let b = c.breakdown;
                let share = |n: usize| {
                    if b.total == 0 {
                        "0".to_owned()
                    } else {
                        format!("{} ({})", count(n), pct(n as f64 / b.total as f64))
                    }
                };
                vec![
                    c.name.clone(),
                    count(b.total),
                    share(b.queried_by_malware),
                    share(b.malware_ips),
                    share(b.malware_prefixes),
                    share(b.no_evidence),
                ]
            })
            .collect();
        f.write_str(&render_table(
            &[
                "network",
                "all FPs",
                "queried by malware",
                "malware IPs",
                "malware /24s",
                "no evidence",
            ],
            &rows,
        ))?;
        writeln!(f)?;
        for c in &self.cases {
            writeln!(
                f,
                "{}: Notos rejected {} of {} new domains (reject option)",
                c.name, c.notos_rejected, c.new_domains
            )?;
        }
        Ok(())
    }
}

/// Runs the comparison on both networks with a `gap`-day train/test gap
/// (paper: 24).
pub fn run(scale: &Scale, gap: u32) -> NotosReport {
    let mut cases = Vec::new();
    for isp_cfg in [scale.isp1.clone(), scale.isp2.clone()] {
        let name = isp_cfg.name.clone();
        if let Some(case) = run_case(&name, isp_cfg, scale, gap) {
            cases.push(case);
        }
    }
    NotosReport { cases }
}

fn run_case(
    name: &str,
    isp_cfg: segugio_traffic::IspConfig,
    scale: &Scale,
    gap: u32,
) -> Option<NotosCase> {
    let w = scale.warmup;
    let t_train = w;
    let t_test = w + gap;
    let scenario = Scenario::run(isp_cfg, w, &[t_train, t_test]);
    let isp = scenario.isp();
    let commercial = isp.commercial_blacklist();

    // Ground truth *known at training time*.
    let bl_train: Blacklist = commercial
        .iter()
        .filter(|&(_, added)| added <= Day(t_train))
        .collect();
    // Notos's blacklist is a superset: commercial ∪ public (as of t_train).
    let mut bl_notos = bl_train.clone();
    bl_notos.extend(
        isp.public_blacklist()
            .iter()
            .filter(|&(_, added)| added <= Day(t_train)),
    );
    // Top-100K-style whitelist (half of the stable whitelist at our scale).
    let wl_top = isp.whitelist().top_n(isp.whitelist().len() / 2);

    // --- Train both systems at t_train. ---
    let notos_cfg = NotosConfig::default();
    let notos = Notos::train(
        Day(t_train),
        isp.table(),
        isp.pdns(),
        &bl_notos,
        &wl_top,
        &notos_cfg,
    );
    let train_snap = scenario.snapshot_with(t_train, &scale.config, &bl_train, &wl_top, None);
    let segugio = Segugio::train(&train_snap, isp.activity(), &scale.config)
        .expect("training day seeds both classes");

    // --- Test ground truth. ---
    let mut seen: Vec<DomainId> = scenario
        .capture(t_test)
        .queries
        .iter()
        .map(|&(_, d)| d)
        .collect();
    seen.sort_unstable();
    seen.dedup();
    let table = isp.table();
    let positives: Vec<DomainId> = seen
        .iter()
        .filter(|&&d| {
            commercial
                .added_on(d)
                .is_some_and(|a| a > Day(t_train) && a <= Day(t_test))
        })
        .copied()
        .collect();
    // Negatives: whitelisted domains *not* in the training whitelist.
    let negatives: Vec<DomainId> = seen
        .iter()
        .filter(|&&d| {
            let e = table.e2ld_of(d);
            isp.whitelist().contains(e) && !wl_top.contains(e) && !commercial.contains(d)
        })
        .copied()
        .collect();
    if positives.is_empty() || negatives.is_empty() {
        return None;
    }

    // --- Score with Segugio. The deployed system keeps consuming blacklist
    //     updates, so the test graph is labeled with the blacklist as of
    //     t_test — but the *new* domains under evaluation are hidden, so
    //     they are measured and scored through the unknown-domain path. ---
    let hidden: HashSet<DomainId> = positives.iter().copied().collect();
    let bl_at_test: Blacklist = commercial
        .iter()
        .filter(|&(_, added)| added <= Day(t_test))
        .collect();
    let test_snap =
        scenario.snapshot_with(t_test, &scale.config, &bl_at_test, &wl_top, Some(&hidden));
    let mut buf = ScoreBuffer::new();
    segugio.score_unknown_with(&test_snap, isp.activity(), &mut buf);
    let seg_score: std::collections::HashMap<DomainId, f32> = buf
        .detections()
        .iter()
        .map(|d| (d.domain, d.score))
        .collect();

    // --- Score with Notos. ---
    let abuse = AbuseIndex::build(
        isp.pdns(),
        Day(t_test).lookback_exclusive(notos_cfg.history_days),
        |d| {
            if bl_notos.contains(d) {
                Label::Malware
            } else {
                Label::Unknown
            }
        },
    );
    let mut notos_rejected = 0usize;
    let mut notos_scores = Vec::new();
    let mut seg_scores = Vec::new();
    let mut labels = Vec::new();
    let pos_set: HashSet<DomainId> = positives.iter().copied().collect();
    for &d in positives.iter().chain(negatives.iter()) {
        let is_pos = pos_set.contains(&d);
        let ns = notos
            .score(d, Day(t_test), table, isp.pdns(), &abuse)
            .unwrap_or_else(|| {
                if is_pos {
                    notos_rejected += 1;
                }
                -1.0 // rejected: below every threshold
            });
        notos_scores.push(ns);
        seg_scores.push(seg_score.get(&d).copied().unwrap_or(0.0));
        labels.push(is_pos);
    }
    let notos_roc = RocCurve::from_scores(&notos_scores, &labels);
    let segugio_roc = RocCurve::from_scores(&seg_scores, &labels);

    // --- Table IV: dissect Notos FPs at its TP-maximizing threshold. ---
    let best_pos_score = notos_scores
        .iter()
        .zip(&labels)
        .filter(|&(&s, &l)| l && s >= 0.0)
        .map(|(&s, _)| s)
        .fold(f32::INFINITY, f32::min);
    let mut breakdown = NotosFpBreakdown::default();
    if best_pos_score.is_finite() {
        let truth = isp.truth();
        for ((&s, &l), &d) in notos_scores
            .iter()
            .zip(&labels)
            .zip(positives.iter().chain(negatives.iter()))
        {
            if l || s < best_pos_score {
                continue;
            }
            breakdown.total += 1;
            let ips = isp
                .pdns()
                .resolved_ips(d, Day(t_test).lookback_exclusive(notos_cfg.history_days));
            let has_mal_ip = ips.iter().any(|&ip| abuse.is_malware_ip(ip));
            let has_mal_pfx = ips.iter().any(|&ip| abuse.is_malware_prefix(ip.prefix24()));
            if truth.sandbox_queried(d) {
                breakdown.queried_by_malware += 1;
            } else if has_mal_ip {
                breakdown.malware_ips += 1;
            } else if has_mal_pfx {
                breakdown.malware_prefixes += 1;
            } else {
                breakdown.no_evidence += 1;
            }
        }
    }

    Some(NotosCase {
        name: name.to_owned(),
        new_domains: positives.len(),
        notos_rejected,
        notos_roc,
        segugio_roc,
        breakdown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_notos_comparison_has_expected_structure() {
        // The tiny network only has ~20 "new" test domains, far too few for
        // stable ordering assertions — those run at `Scale::small` in the
        // integration suite. Here we check the structural invariants.
        let report = run(&Scale::tiny(), 14);
        assert!(!report.cases.is_empty(), "no case produced test domains");
        for case in &report.cases {
            assert!(case.new_domains > 0);
            // Segugio must still beat chance on the new domains.
            assert!(case.segugio_roc.auc() > 0.5, "{} auc", case.name);
        }
        // The reject option must be exercised somewhere: some new domains
        // have histories too young for a reputation, capping Notos's TPs.
        let rejected: usize = report.cases.iter().map(|c| c.notos_rejected).sum();
        assert!(rejected > 0, "expected some Notos rejections");
        assert!(report.to_string().contains("TABLE IV"));
    }
}
