//! The parallel pipeline's contract: output is bit-for-bit identical at
//! every `parallelism` setting — serial `Some(1)`, pinned `Some(2)` /
//! `Some(4)`, and the auto default — across snapshot building (in memory,
//! and from edge runs sealed on their worker thread), training, and
//! scoring, and across a multi-day [`Tracker`] deployment.

use segugio_core::{
    measure_day, DayReport, DaySnapshot, ScoreBuffer, Segugio, SegugioConfig, SnapshotInput,
    Tracker, TrackerConfig,
};
use segugio_graph::EdgeRuns;
use segugio_traffic::{IspConfig, IspNetwork};

/// What [`run_day`] returns: model file, detections, training rows, scores.
type DayRun = (Vec<u8>, Vec<(u32, f32)>, usize, Vec<f32>);

/// One full day: snapshot → measured rows → model → detections, at a given
/// parallelism. Returns the serialized model, every scored detection (from
/// the measured rows and from the snapshot), the training-row count and the
/// training rows' scores.
fn run_day(parallelism: Option<usize>) -> DayRun {
    let mut isp = IspNetwork::new(IspConfig::tiny(77));
    isp.warm_up(16);
    let traffic = isp.next_day();
    let config = SegugioConfig {
        parallelism,
        ..SegugioConfig::default()
    };
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
    let snapshot = DaySnapshot::build(&input, &config);
    let day = measure_day(
        &snapshot,
        isp.activity(),
        config.features,
        config.parallelism,
        |_| true,
    );
    let model = Segugio::train_prepared(&day.train, &config).expect("fixture seeds both classes");
    let mut buf = ScoreBuffer::new();
    model.score_rows_with(&day.unknown_ids, &day.unknown_rows, &mut buf);
    assert_eq!(
        buf.detections(),
        model.score_unknown(&snapshot, isp.activity())
    );
    let detections = buf
        .detections()
        .iter()
        .map(|d| (d.domain.0, d.score))
        .collect();
    let train_scores: Vec<f32> = (0..day.train.len())
        .map(|i| model.score_features(day.train.row(i)))
        .collect();
    (
        model.to_bytes(),
        detections,
        day.train_ids.len(),
        train_scores,
    )
}

#[test]
fn parallel_pipeline_is_bit_identical_to_serial() {
    let (serial_model, serial_detections, serial_rows, serial_scores) = run_day(Some(1));
    assert!(
        !serial_detections.is_empty(),
        "fixture must score something"
    );
    assert!(serial_rows > 0, "fixture must have known training domains");

    for knob in [Some(2), Some(4), None] {
        let (model, detections, rows, scores) = run_day(knob);
        assert_eq!(rows, serial_rows, "training rows differ at {knob:?}");
        assert_eq!(
            model, serial_model,
            "trained model differs from serial at {knob:?}"
        );
        assert_eq!(
            scores, serial_scores,
            "trained-model scores differ from serial at {knob:?}"
        );
        assert_eq!(
            detections, serial_detections,
            "detections differ from serial at {knob:?}"
        );
    }
}

/// Every field of two snapshots, through the graph's public accessors.
fn assert_same_snapshot(got: &DaySnapshot, want: &DaySnapshot, what: &str) {
    let (g, w) = (&got.graph, &want.graph);
    assert_eq!(g.day(), w.day(), "{what}: day");
    assert_eq!(g.machine_count(), w.machine_count(), "{what}: machines");
    assert_eq!(g.domain_count(), w.domain_count(), "{what}: domains");
    assert_eq!(g.edge_count(), w.edge_count(), "{what}: edges");
    for m in w.machine_indices() {
        assert_eq!(g.machine_id(m), w.machine_id(m), "{what}: machine id");
        assert_eq!(
            g.machine_label(m),
            w.machine_label(m),
            "{what}: machine label"
        );
        assert_eq!(
            g.machine_malware_degree(m),
            w.machine_malware_degree(m),
            "{what}: malware degree"
        );
        assert!(
            g.domains_of(m).eq(w.domains_of(m)),
            "{what}: machine adjacency"
        );
    }
    for d in w.domain_indices() {
        assert_eq!(g.domain_id(d), w.domain_id(d), "{what}: domain id");
        assert_eq!(g.domain_e2ld(d), w.domain_e2ld(d), "{what}: e2LD");
        assert_eq!(g.domain_ips(d), w.domain_ips(d), "{what}: resolved IPs");
        assert_eq!(g.domain_degree(d), w.domain_degree(d), "{what}: degree");
        assert_eq!(g.domain_label(d), w.domain_label(d), "{what}: domain label");
    }
    assert!(got.abuse == want.abuse, "{what}: abuse index");
    assert_eq!(got.prune_stats, want.prune_stats, "{what}: prune stats");
    assert_eq!(got.unpruned_counts, want.unpruned_counts, "{what}");
    assert_eq!(got.unpruned_domain_labels, want.unpruned_domain_labels);
    assert_eq!(got.unpruned_machine_labels, want.unpruned_machine_labels);
}

/// The in-memory build at every width, and the runs-based build at every
/// width with a run capacity that seals dozens of runs (each on the seal
/// worker, beside the next one filling), equal the serial in-memory build.
#[test]
fn snapshot_build_is_identical_at_any_parallelism() {
    let mut isp = IspNetwork::new(IspConfig::tiny(78));
    isp.warm_up(12);
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
    let at = |threads| SegugioConfig {
        parallelism: Some(threads),
        ..SegugioConfig::default()
    };
    let serial = DaySnapshot::build(&input, &at(1));
    for threads in [2usize, 4, 8] {
        let parallel = DaySnapshot::build(&input, &at(threads));
        assert_same_snapshot(&parallel, &serial, &format!("in memory at {threads}"));
    }
    // The tiny day's ~9k observations seal in 36 runs.
    let run_capacity = 256;
    assert!(traffic.queries.len() >= 24 * run_capacity);
    for threads in [1usize, 2, 4, 8] {
        let mut runs = EdgeRuns::with_run_capacity(run_capacity);
        runs.extend(traffic.queries.iter().copied());
        let streamed = DaySnapshot::build_from_runs(&input, &runs, &at(threads))
            .expect("the scratch file reads back");
        assert_same_snapshot(&streamed, &serial, &format!("from runs at {threads}"));
    }
}

/// Runs a full multi-day deployment at one width and returns every day's
/// report. Identical configs generate identical traffic, so two runs are
/// comparable input-for-input.
fn run_tracker(cfg: &IspConfig, days: usize, parallelism: Option<usize>) -> Vec<DayReport> {
    let mut isp = IspNetwork::new(cfg.clone());
    isp.warm_up(16);
    let mut tracker = Tracker::new();
    let mut config = TrackerConfig {
        target_fpr: 0.02,
        ..TrackerConfig::default()
    };
    config.segugio.parallelism = parallelism;
    let mut reports = Vec::with_capacity(days);
    for _ in 0..days {
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
        reports.push(
            tracker
                .process_day(&input, isp.activity(), &config)
                .expect("warmed-up fixture seeds both classes"),
        );
    }
    reports
}

/// Eight consecutive tracked days at widths 1, 2, 4 and 8 match the serial
/// reference report-for-report.
#[test]
fn eight_day_reports_match_at_every_width() {
    let cfg = IspConfig::tiny(90);
    let reference = run_tracker(&cfg, 8, Some(1));
    assert!(
        reference.iter().any(|r| !r.new_detections.is_empty()),
        "reference run must detect something for the comparison to mean anything"
    );
    for width in [1usize, 2, 4, 8] {
        assert_eq!(
            run_tracker(&cfg, 8, Some(width)),
            reference,
            "reports diverged at width {width}"
        );
    }
}
