//! Quickstart: simulate a small ISP, train Segugio on one day of DNS
//! traffic, and rank the unknown domains of the next day by malware score.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use segugio_core::{DaySnapshot, Segugio, SegugioConfig, SnapshotInput};
use segugio_traffic::{IspConfig, IspNetwork};

fn main() {
    // A ~3k-machine network with 20 days of history (passive DNS + domain
    // activity) accumulated before the first observed day.
    let mut isp = IspNetwork::new(IspConfig::small(7));
    isp.warm_up(20);

    let config = SegugioConfig::default();

    // Day 20: build the machine-domain behavior graph, label it from the
    // blacklist/whitelist, prune it, and train the behavior classifier.
    let train_day = isp.next_day();
    let input = SnapshotInput {
        day: train_day.day,
        queries: &train_day.queries,
        resolutions: &train_day.resolutions,
        table: isp.table(),
        pdns: isp.pdns(),
        blacklist: isp.commercial_blacklist(),
        whitelist: isp.whitelist(),
        hidden: None,
    };
    let snapshot = DaySnapshot::build(&input, &config);
    println!(
        "train day {}: {} machines, {} domains, {} edges after pruning",
        snapshot.day().0,
        snapshot.graph.machine_count(),
        snapshot.graph.domain_count(),
        snapshot.graph.edge_count(),
    );
    let model = Segugio::train(&snapshot, isp.activity(), &config)
        .expect("training day seeds both classes");

    // Day 21: score every still-unknown domain.
    let test_day = isp.next_day();
    let input = SnapshotInput {
        day: test_day.day,
        queries: &test_day.queries,
        resolutions: &test_day.resolutions,
        table: isp.table(),
        pdns: isp.pdns(),
        blacklist: isp.commercial_blacklist(),
        whitelist: isp.whitelist(),
        hidden: None,
    };
    let snapshot = DaySnapshot::build(&input, &config);
    let detections = model.score_unknown(&snapshot, isp.activity());

    println!(
        "\ntop 15 unknown domains by malware score (day {}):",
        test_day.day.0
    );
    println!("{:<40} {:>7}  ground truth", "domain", "score");
    for det in detections.iter().take(15) {
        let name = isp.table().name(det.domain);
        let truth = if isp.truth().is_malicious(det.domain) {
            "malware-control"
        } else {
            "benign"
        };
        println!("{:<40} {:>7.3}  {}", name.as_str(), det.score, truth);
    }

    let top20_hits = detections
        .iter()
        .take(20)
        .filter(|d| isp.truth().is_malicious(d.domain))
        .count();
    println!("\n{top20_hits} of the top 20 are confirmed malware-control domains");
}
