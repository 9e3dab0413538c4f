//! E10: Fig. 11 — early detection of malware-control domains.
//!
//! For each of four consecutive days per network, Segugio is trained, its
//! threshold set for ≤0.1% FPs, and every still-`unknown` domain scored.
//! Each detected domain is then checked against the commercial blacklist
//! for the following 35 days; the histogram of (blacklist day − detection
//! day) shows how many days of head start Segugio buys (paper: 38 domains
//! over 8 days of monitoring, many blacklisted weeks later).

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use segugio_core::Segugio;
use segugio_model::{Day, DomainId};

use crate::protocol::{outcome_over, select_test_split};
use crate::report::render_table;
use crate::scenario::Scenario;

use super::Scale;

/// One early-detected domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EarlyHit {
    /// The detected domain.
    pub domain: DomainId,
    /// Day Segugio flagged it.
    pub detected_on: Day,
    /// Day it later appeared on the blacklist.
    pub blacklisted_on: Day,
}

impl EarlyHit {
    /// The head start in days.
    pub fn gap(&self) -> u32 {
        self.blacklisted_on.days_since(self.detected_on)
    }
}

/// The Fig. 11 report.
#[derive(Debug, Clone)]
pub struct EarlyDetectionReport {
    /// All early-detected domains across monitored days and networks.
    pub hits: Vec<EarlyHit>,
    /// Number of monitored days.
    pub monitored_days: usize,
    /// How far ahead the blacklist was scanned.
    pub lookahead_days: u32,
}

impl EarlyDetectionReport {
    /// Histogram over the gap in days: `hist[g]` = detections blacklisted
    /// `g` days after Segugio flagged them.
    pub fn gap_histogram(&self) -> Vec<usize> {
        let max = self.hits.iter().map(|h| h.gap()).max().unwrap_or(0) as usize;
        let mut hist = vec![0usize; max + 1];
        for h in &self.hits {
            hist[h.gap() as usize] += 1;
        }
        hist
    }

    /// Mean head start in days.
    pub fn mean_gap(&self) -> f64 {
        if self.hits.is_empty() {
            return 0.0;
        }
        self.hits.iter().map(|h| h.gap() as f64).sum::<f64>() / self.hits.len() as f64
    }
}

impl fmt::Display for EarlyDetectionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FIG 11: Early detection — {} domains detected before blacklisting \
             over {} monitored days (paper: 38); mean head start {:.1} days",
            self.hits.len(),
            self.monitored_days,
            self.mean_gap()
        )?;
        let hist = self.gap_histogram();
        let rows: Vec<Vec<String>> = hist
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(g, &n)| vec![format!("{g} days"), "#".repeat(n), n.to_string()])
            .collect();
        f.write_str(&render_table(&["gap", "histogram", "count"], &rows))
    }
}

/// Runs early detection over `days_per_isp` consecutive days on both
/// networks.
pub fn run(
    scale: &Scale,
    days_per_isp: u32,
    lookahead: u32,
    target_fpr: f64,
) -> EarlyDetectionReport {
    let mut hits = Vec::new();
    let mut monitored = 0usize;
    for isp_cfg in [scale.isp1.clone(), scale.isp2.clone()] {
        let w = scale.warmup;
        let days: Vec<u32> = (w..w + days_per_isp).collect();
        let scenario = Scenario::run(isp_cfg, w, &days);
        for &day in &days {
            monitored += 1;
            hits.extend(detect_day(&scenario, day, scale, lookahead, target_fpr));
        }
    }
    EarlyDetectionReport {
        hits,
        monitored_days: monitored,
        lookahead_days: lookahead,
    }
}

/// Detects unknown domains on one day and returns those that the blacklist
/// confirmed within the lookahead window.
pub fn detect_day(
    scenario: &Scenario,
    day: u32,
    scale: &Scale,
    lookahead: u32,
    target_fpr: f64,
) -> Vec<EarlyHit> {
    let bl = scenario.isp().commercial_blacklist();

    // Threshold calibration: hold out a validation split, train with it
    // hidden, and read the threshold off the validation ROC.
    let val = select_test_split(scenario, day, bl, 0.5, 0.4, scale.seed + day as u64);
    let hidden = val.hidden();
    let train_snap = scenario.snapshot(day, &scale.config, bl, Some(&hidden));
    let model = Segugio::train(&train_snap, scenario.isp().activity(), &scale.config)
        .expect("training day seeds both classes");

    // Validation scoring runs on the hidden-split snapshot the model
    // trained on.
    let scored = model.score_unknown(&train_snap, scenario.isp().activity());
    let validation = outcome_over(&scored, &val);
    if validation.tested_malware == 0 || validation.tested_benign == 0 {
        return Vec::new();
    }
    let threshold = validation.roc.threshold_for_fpr(target_fpr);

    // Deployment: score everything still unknown on the *unhidden* day and
    // cut the sorted detections at the threshold.
    let snap = scenario.snapshot(day, &scale.config, bl, None);
    let detections = model.score_unknown(&snap, scenario.isp().activity());
    let flagged = detections.partition_point(|d| d.score >= threshold);

    // Keep detections that the blacklist later confirms.
    let mut seen: HashSet<DomainId> = HashSet::new();
    let mut hits = Vec::new();
    // Ordered map: the loop below iterates it into `hits`.
    let mut dedup: BTreeMap<DomainId, Day> = BTreeMap::new();
    for det in &detections[..flagged] {
        if !seen.insert(det.domain) {
            continue;
        }
        if let Some(added) = bl.added_on(det.domain) {
            if added > Day(day) && added <= Day(day + lookahead) {
                dedup.entry(det.domain).or_insert(added);
            }
        }
    }
    for (domain, added) in dedup {
        hits.push(EarlyHit {
            domain,
            detected_on: Day(day),
            blacklisted_on: added,
        });
    }
    hits.sort_by_key(|h| (h.detected_on, h.domain));
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_early_detection_finds_head_starts() {
        let scale = Scale::tiny();
        // Permissive FPR target on the tiny network so detections exist.
        let report = run(&scale, 2, 35, 0.01);
        assert_eq!(report.monitored_days, 4);
        // Agility + blacklist lag guarantee that *some* not-yet-blacklisted
        // control domains are live on any given day; the detector should
        // catch a few before the blacklist does.
        assert!(
            !report.hits.is_empty(),
            "expected at least one early detection"
        );
        for h in &report.hits {
            assert!(h.blacklisted_on > h.detected_on);
            assert!(h.gap() <= 35);
        }
        assert!(report.mean_gap() >= 1.0);
        assert!(report.to_string().contains("FIG 11"));
    }
}
