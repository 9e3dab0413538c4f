//! Real-log workflow: how a deployment would feed its *own* resolver logs
//! into Segugio.
//!
//! The example exports two days of simulated traffic into the TSV log
//! format (stand-in for your resolver's logs), parses them back with
//! `segugio-ingest` — exactly what you would do with real data — and runs
//! training + detection on the ingested structures.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example ingest_logs
//! ```

use segugio_core::{DaySnapshot, Segugio, SegugioConfig, SnapshotInput};
use segugio_ingest::{export_day, LogCollector};
use segugio_traffic::{IspConfig, IspNetwork};

fn main() {
    // --- Produce "real" logs (your resolver would write these). ---
    let mut isp = IspNetwork::new(IspConfig::small(31));
    isp.warm_up(18);
    let mut log_text = String::new();
    for _ in 0..2 {
        let day = isp.next_day();
        log_text.push_str(&export_day(
            isp.table(),
            day.day.0,
            &day.queries,
            &day.resolutions,
        ));
    }
    println!(
        "exported {} log lines ({} MiB)",
        log_text.lines().count(),
        log_text.len() / (1 << 20)
    );

    // --- Ingest them, as a deployment would. ---
    let mut collector = LogCollector::new();
    let ingested = collector
        .ingest_reader(log_text.as_bytes())
        .expect("well-formed log");
    println!(
        "ingested {ingested} records: {} machines, {} domains, days {:?}",
        collector.machine_count(),
        collector.table().len(),
        collector.days().iter().map(|d| d.0).collect::<Vec<_>>()
    );

    // Ground-truth seeds. With real data these come from your blacklist
    // feed and whitelist; here we map the simulator's lists onto the
    // collector's interned table by name.
    let mut blacklist = segugio_model::Blacklist::new();
    for (domain, added) in isp.commercial_blacklist().iter() {
        let name = isp.table().name(domain);
        if let Some(id) = collector.table().get(name) {
            blacklist.insert(id, added);
        }
    }
    let mut whitelist = segugio_model::Whitelist::new();
    for e2ld in isp.whitelist().iter() {
        if let Some(id) = collector.table().e2ld_id(isp.table().e2ld_str(e2ld)) {
            whitelist.insert(id);
        }
    }

    // --- Train on the first ingested day, detect on the second. ---
    let days = collector.days();
    let config = SegugioConfig::default();
    let train = collector.day(days[0]).unwrap();
    let input = SnapshotInput {
        day: days[0],
        queries: &train.queries,
        resolutions: &train.resolutions,
        table: collector.table(),
        pdns: collector.pdns(),
        blacklist: &blacklist,
        whitelist: &whitelist,
        hidden: None,
    };
    let snapshot = DaySnapshot::build(&input, &config);
    let model = Segugio::train(&snapshot, collector.activity(), &config)
        .expect("training day seeds both classes");

    let test = collector.day(days[1]).unwrap();
    let input = SnapshotInput {
        day: days[1],
        queries: &test.queries,
        resolutions: &test.resolutions,
        table: collector.table(),
        pdns: collector.pdns(),
        blacklist: &blacklist,
        whitelist: &whitelist,
        hidden: None,
    };
    let snapshot = DaySnapshot::build(&input, &config);
    let detections = model.score_unknown(&snapshot, collector.activity());
    println!("\ntop 10 detections from ingested logs:");
    for det in detections.iter().take(10) {
        println!(
            "  {:<44} score {:.3}",
            collector.table().name(det.domain).as_str(),
            det.score
        );
    }
}
