//! E11: Section IV-G — Segugio's training and classification wall-clock.
//!
//! The paper reports ≈60 minutes for the learning phase (graph building,
//! annotation, labeling, pruning, training) on a full ISP day and ≈3
//! minutes for measuring and classifying all unknown domains. At our
//! scaled-down population the absolute numbers shrink by orders of
//! magnitude; the *shape* to reproduce is that classification is much
//! cheaper than learning, and that both are minutes-not-hours grade even
//! scaled back up.

use std::fmt;
use std::time::Instant;

use segugio_core::{ScoreBuffer, Segugio};

use crate::report::render_table;
use crate::scenario::Scenario;

use super::Scale;

/// Timing of one day's pipeline.
#[derive(Debug, Clone, Copy)]
pub struct DayTiming {
    /// Day index.
    pub day: u32,
    /// Graph build + annotate + label + prune + abuse index (ms).
    pub snapshot_ms: f64,
    /// Training-set preparation + classifier training (ms).
    pub train_ms: f64,
    /// Feature measurement + scoring of all unknown domains (ms).
    pub classify_ms: f64,
    /// Unknown domains scored.
    pub unknown_domains: usize,
    /// Edges in the pruned graph.
    pub edges: usize,
}

/// The Section IV-G report.
#[derive(Debug, Clone)]
pub struct PerformanceReport {
    /// Per-day timings.
    pub days: Vec<DayTiming>,
}

impl PerformanceReport {
    /// Mean `(snapshot, train, classify)` in milliseconds.
    pub fn means(&self) -> (f64, f64, f64) {
        let n = self.days.len().max(1) as f64;
        let mut s = 0.0;
        let mut t = 0.0;
        let mut c = 0.0;
        for d in &self.days {
            s += d.snapshot_ms;
            t += d.train_ms;
            c += d.classify_ms;
        }
        (s / n, t / n, c / n)
    }
}

impl fmt::Display for PerformanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SECTION IV-G: per-day pipeline wall-clock")?;
        let rows: Vec<Vec<String>> = self
            .days
            .iter()
            .map(|d| {
                vec![
                    format!("day {}", d.day),
                    format!("{:.1}", d.snapshot_ms),
                    format!("{:.1}", d.train_ms),
                    format!("{:.1}", d.classify_ms),
                    d.unknown_domains.to_string(),
                    d.edges.to_string(),
                ]
            })
            .collect();
        f.write_str(&render_table(
            &[
                "day",
                "snapshot ms",
                "train ms",
                "classify ms",
                "unknown",
                "edges",
            ],
            &rows,
        ))?;
        let (s, t, c) = self.means();
        writeln!(
            f,
            "mean: learning (snapshot+train) {:.1} ms, classification {:.1} ms \
             (paper: ~60 min learning vs ~3 min classification at 80-200x scale)",
            s + t,
            c
        )
    }
}

/// Times the pipeline across `n_days` consecutive days of ISP1.
#[expect(
    clippy::disallowed_methods,
    reason = "reporting wall-clock timings is this experiment's purpose; they never feed the detector"
)]
pub fn run(scale: &Scale, n_days: u32) -> PerformanceReport {
    let w = scale.warmup;
    let days: Vec<u32> = (w..w + n_days).collect();
    let scenario = Scenario::run(scale.isp1.clone(), w, &days);
    let bl = scenario.isp().commercial_blacklist();
    let mut out = Vec::new();
    // One scoring scratch across all timed days: the classify timing then
    // measures steady-state scoring, not buffer growth.
    let mut buf = ScoreBuffer::new();
    for &day in &days {
        let t0 = Instant::now();
        let snap = scenario.snapshot(day, &scale.config, bl, None);
        let snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let model = Segugio::train(&snap, scenario.isp().activity(), &scale.config)
            .expect("training day seeds both classes");
        let train_ms = t1.elapsed().as_secs_f64() * 1e3;

        let t2 = Instant::now();
        model.score_unknown_with(&snap, scenario.isp().activity(), &mut buf);
        let classify_ms = t2.elapsed().as_secs_f64() * 1e3;

        out.push(DayTiming {
            day,
            snapshot_ms,
            train_ms,
            classify_ms,
            unknown_domains: buf.detections().len(),
            edges: snap.graph.edge_count(),
        });
    }
    PerformanceReport { days: out }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_performance_report() {
        let report = run(&Scale::tiny(), 2);
        assert_eq!(report.days.len(), 2);
        for d in &report.days {
            assert!(d.unknown_domains > 0);
            assert!(d.snapshot_ms >= 0.0 && d.train_ms > 0.0 && d.classify_ms > 0.0);
        }
        assert!(report.to_string().contains("SECTION IV-G"));
    }
}
