//! ISP deployment loop: the workflow a network operator would run.
//!
//! Each morning the previous day's DNS traffic is handed to a [`Tracker`],
//! which summarizes it into a behavior graph, retrains the classifier on
//! the current blacklist knowledge, calibrates the operating threshold and
//! reports the unknown domains at or above it, together with the machines
//! that queried them (candidate infections to remediate).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example isp_deployment
//! ```

use segugio_core::{SegugioConfig, SnapshotInput, Tracker, TrackerConfig};
use segugio_traffic::{IspConfig, IspNetwork};

fn main() {
    let mut isp = IspNetwork::new(IspConfig::small(17));
    isp.warm_up(20);
    // `parallelism: None` fans the daily pipeline (feature measurement,
    // forest training, scoring) over every available core; reports are
    // identical to a `Some(1)` serial run. The threshold keeps known-benign
    // mistakes on the training day below 0.5 %.
    let config = TrackerConfig {
        segugio: SegugioConfig {
            parallelism: None,
            ..SegugioConfig::default()
        },
        target_fpr: 0.005,
    };
    let mut tracker = Tracker::new();

    for _ in 0..4 {
        let traffic = isp.next_day();
        let input = SnapshotInput {
            day: traffic.day,
            queries: &traffic.queries,
            resolutions: &traffic.resolutions,
            table: isp.table(),
            pdns: isp.pdns(),
            blacklist: isp.commercial_blacklist(),
            whitelist: isp.whitelist(),
            hidden: None,
        };
        let report = tracker
            .process_day(&input, isp.activity(), &config)
            .expect("warmed-up simulation seeds both classes");

        let detections = &report.all_detections;
        let confirmed = detections
            .iter()
            .filter(|d| isp.truth().is_malicious(d.domain))
            .count();
        println!(
            "day {:>2}: {:>3} domains flagged (threshold {:.2}), {:>3} truly \
             malicious, {:>3} machines implicated",
            report.day.0,
            detections.len(),
            report.threshold,
            confirmed,
            report.implicated_machines.len(),
        );
        for det in detections.iter().take(5) {
            println!(
                "        {:<44} score {:.3}",
                isp.table().name(det.domain).as_str(),
                det.score
            );
        }
    }
}
