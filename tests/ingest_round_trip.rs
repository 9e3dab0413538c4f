//! Integration: the real-data path (export → ingest → detect) produces the
//! same detection quality as the in-memory path.

use segugio_core::{DaySnapshot, Segugio, SegugioConfig, SnapshotInput};
use segugio_ingest::{export_day, LogCollector};
use segugio_model::{Blacklist, Whitelist};
use segugio_traffic::{IspConfig, IspNetwork};

#[test]
fn exported_logs_reproduce_in_memory_detections() {
    let mut isp = IspNetwork::new(IspConfig::tiny(77));
    isp.warm_up(16);
    let day = isp.next_day();

    // --- In-memory path. ---
    let config = SegugioConfig::default();
    let input = SnapshotInput {
        day: day.day,
        queries: &day.queries,
        resolutions: &day.resolutions,
        table: isp.table(),
        pdns: isp.pdns(),
        blacklist: isp.commercial_blacklist(),
        whitelist: isp.whitelist(),
        hidden: None,
    };
    let snapshot = DaySnapshot::build(&input, &config);

    // --- Round-tripped path. ---
    let text = export_day(isp.table(), day.day.0, &day.queries, &day.resolutions);
    let mut collector = LogCollector::new();
    collector.ingest_reader(text.as_bytes()).unwrap();
    let ingested = collector.day(day.day).unwrap();

    // Remap the seed lists onto the collector's table by name.
    let mut blacklist = Blacklist::new();
    for (d, added) in isp.commercial_blacklist().iter() {
        if let Some(id) = collector.table().get(isp.table().name(d)) {
            blacklist.insert(id, added);
        }
    }
    let mut whitelist = Whitelist::new();
    for e in isp.whitelist().iter() {
        if let Some(id) = collector.table().e2ld_id(isp.table().e2ld_str(e)) {
            whitelist.insert(id);
        }
    }
    let input = SnapshotInput {
        day: day.day,
        queries: &ingested.queries,
        resolutions: &ingested.resolutions,
        table: collector.table(),
        pdns: collector.pdns(),
        blacklist: &blacklist,
        whitelist: &whitelist,
        hidden: None,
    };
    let snapshot2 = DaySnapshot::build(&input, &config);

    // Same graph shape (ids differ; counts must match exactly).
    assert_eq!(snapshot2.unpruned_counts, snapshot.unpruned_counts);
    assert_eq!(
        snapshot2.unpruned_domain_labels,
        snapshot.unpruned_domain_labels
    );
    assert_eq!(
        snapshot2.graph.machine_count(),
        snapshot.graph.machine_count()
    );
    assert_eq!(
        snapshot2.graph.domain_count(),
        snapshot.graph.domain_count()
    );
    assert_eq!(snapshot2.graph.edge_count(), snapshot.graph.edge_count());

    // Same detections by *name* (the ingested side only has the one day of
    // history, so compare the F1-driven ranking: top-decile overlap).
    let model = Segugio::train(&snapshot, isp.activity(), &config)
        .expect("training day seeds both classes");
    let model2 = Segugio::train(&snapshot2, collector.activity(), &config)
        .expect("training day seeds both classes");
    let top: std::collections::HashSet<String> = model
        .score_unknown(&snapshot, isp.activity())
        .iter()
        .take(20)
        .map(|d| isp.table().name(d.domain).as_str().to_owned())
        .collect();
    let top2: std::collections::HashSet<String> = model2
        .score_unknown(&snapshot2, collector.activity())
        .iter()
        .take(20)
        .map(|d| collector.table().name(d.domain).as_str().to_owned())
        .collect();
    let overlap = top.intersection(&top2).count();
    assert!(
        overlap >= 10,
        "top-20 detections should largely agree across paths, got {overlap}/20"
    );
}
