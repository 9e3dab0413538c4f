//! E1–E3: Table I (dataset statistics), Fig. 3 (control domains queried per
//! infected machine) and the Section III pruning statistics.

use std::fmt;

use segugio_core::SegugioConfig;
use segugio_graph::PruneStats;
use segugio_model::Day;
use segugio_traffic::IspConfig;

use crate::report::{count, pct, render_table};
use crate::scenario::Scenario;

/// One Table I row: a day of traffic from one network.
#[derive(Debug, Clone)]
pub struct DatasetRow {
    /// Network name.
    pub source: String,
    /// Observation day.
    pub day: Day,
    /// Total distinct domains.
    pub domains_total: usize,
    /// Domains labeled benign (whitelisted e2LD).
    pub domains_benign: usize,
    /// Domains labeled malware (blacklisted FQD).
    pub domains_malware: usize,
    /// Total distinct machines.
    pub machines_total: usize,
    /// Machines labeled malware (query a blacklisted domain).
    pub machines_malware: usize,
    /// Total edges.
    pub edges: usize,
    /// Pruning outcome for the day.
    pub prune: PruneStats,
    /// Fig. 3 histogram: `dist[k]` = number of infected machines that
    /// queried exactly `k+1` known malware-control domains (capped at 20+).
    pub infection_histogram: Vec<usize>,
}

/// The full Table I + Fig. 3 + pruning report.
#[derive(Debug, Clone)]
pub struct DatasetReport {
    /// One row per (network, day).
    pub rows: Vec<DatasetRow>,
}

impl DatasetReport {
    /// Fraction of infected machines querying more than one control domain,
    /// pooled over all rows (the paper: ≈ 70%).
    pub fn multi_domain_fraction(&self) -> f64 {
        let mut more = 0usize;
        let mut total = 0usize;
        for row in &self.rows {
            total += row.infection_histogram.iter().sum::<usize>();
            more += row.infection_histogram.iter().skip(1).sum::<usize>();
        }
        if total == 0 {
            0.0
        } else {
            more as f64 / total as f64
        }
    }

    /// Mean pruning reductions `(domains, machines, edges)` (paper:
    /// 26.55%, 13.85%, 26.59%).
    pub fn mean_reductions(&self) -> (f64, f64, f64) {
        let n = self.rows.len().max(1) as f64;
        let mut d = 0.0;
        let mut m = 0.0;
        let mut e = 0.0;
        for row in &self.rows {
            d += row.prune.domain_reduction();
            m += row.prune.machine_reduction();
            e += row.prune.edge_reduction();
        }
        (d / n, m / n, e / n)
    }
}

impl fmt::Display for DatasetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TABLE I: Experiment data (before graph pruning)")?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}, {}", r.source, r.day),
                    count(r.domains_total),
                    count(r.domains_benign),
                    count(r.domains_malware),
                    count(r.machines_total),
                    count(r.machines_malware),
                    count(r.edges),
                ]
            })
            .collect();
        f.write_str(&render_table(
            &[
                "Traffic Source",
                "Domains",
                "Benign",
                "Malware",
                "Machines",
                "Mal.Machines",
                "Edges",
            ],
            &rows,
        ))?;
        writeln!(f)?;
        writeln!(
            f,
            "FIG 3: {} of infected machines query more than one control domain",
            pct(self.multi_domain_fraction())
        )?;
        let (d, m, e) = self.mean_reductions();
        writeln!(
            f,
            "PRUNING: domains -{}, machines -{}, edges -{} (paper: -26.55%, -13.85%, -26.59%)",
            pct(d),
            pct(m),
            pct(e)
        )
    }
}

/// Builds the report over `days` captured days per network.
pub fn run(
    isp_configs: &[IspConfig],
    warmup: u32,
    days: &[u32],
    config: &SegugioConfig,
) -> DatasetReport {
    let mut rows = Vec::new();
    for isp_cfg in isp_configs {
        let scenario = Scenario::run(isp_cfg.clone(), warmup, days);
        for &day in days {
            rows.push(day_row(&scenario, day, config));
        }
    }
    DatasetReport { rows }
}

/// Builds one Table I row from an already-simulated scenario.
pub fn day_row(scenario: &Scenario, day: u32, config: &SegugioConfig) -> DatasetRow {
    let snap = scenario.snapshot_commercial(day, config);
    let (mal_d, ben_d, _) = snap.unpruned_domain_labels;
    let (mal_m, _, _) = snap.unpruned_machine_labels;

    // Fig. 3: count known-malware domains queried per machine, before
    // pruning, from the raw capture (so proxies/inactive don't distort).
    let bl = scenario.isp().commercial_blacklist();
    let mut per_machine: std::collections::HashMap<u32, std::collections::HashSet<u32>> =
        std::collections::HashMap::new();
    for &(m, d) in &scenario.capture(day).queries {
        if bl.contains_as_of(d, Day(day)) {
            per_machine.entry(m.0).or_default().insert(d.0);
        }
    }
    let mut histogram = vec![0usize; 20];
    #[expect(
        clippy::iter_over_hash_type,
        reason = "histogram increments commute; iteration order cannot change the result"
    )]
    for set in per_machine.values() {
        let k = set.len().min(20);
        histogram[k - 1] += 1;
    }

    DatasetRow {
        source: scenario.isp().config().name.clone(),
        day: Day(day),
        domains_total: snap.unpruned_counts.1,
        domains_benign: ben_d,
        domains_malware: mal_d,
        machines_total: snap.unpruned_counts.0,
        machines_malware: mal_m,
        edges: snap.unpruned_counts.2,
        prune: snap.prune_stats,
        infection_histogram: histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn tiny_dataset_report_has_paper_shapes() {
        let s = Scale::tiny();
        let report = run(
            std::slice::from_ref(&s.isp1),
            s.warmup,
            &[s.warmup],
            &s.config,
        );
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert!(row.domains_total > 100);
        assert!(row.domains_malware > 0);
        assert!(row.domains_benign > 0);
        assert!(row.machines_malware > 0);
        assert!(row.edges > row.machines_total);
        // Fig. 3 shape: most infected machines query more than one control
        // domain, and essentially none query more than twenty.
        let frac = report.multi_domain_fraction();
        assert!(frac > 0.5, "multi-domain fraction {frac} too low");
        // Pruning removed something on every axis.
        let (d, m, e) = report.mean_reductions();
        assert!(d > 0.0 && m > 0.0 && e > 0.0);
        // Display renders.
        let text = report.to_string();
        assert!(text.contains("TABLE I"));
        assert!(text.contains("FIG 3"));
    }
}
