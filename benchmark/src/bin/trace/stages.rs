//! The stages of one day, each called from outside as its own span, and
//! the sub-layer functions a stage hides, replayed standalone on the same
//! inputs as `replayed` child spans. Shared by every traced workload.

use segugio_benchmark::span::Recorder;
use segugio_core::{
    ClassifierKind, DayFeatures, DaySnapshot, Detection, IncrementalEngine, ScoreBuffer, Segugio,
    SegugioModel, SnapshotInput, TrackerConfig,
};
use segugio_graph::labeling::apply_labels_with;
use segugio_graph::{BehaviorGraph, GraphBuilder};
use segugio_ml::{FlatForest, RandomForest, RocCurve};
use segugio_model::{Label, MachineId};
use segugio_pdns::{AbuseIndex, ActivityStore};

/// `GraphBuilder::build` the way `DaySnapshot::build` drives it: the
/// in-memory route every other constructor must equal.
pub fn build_in_memory(input: &SnapshotInput<'_>, workers: usize) -> BehaviorGraph {
    let mut builder = GraphBuilder::new(input.day);
    builder.set_parallelism(workers);
    builder.add_queries(input.queries.iter().copied());
    for (domain, ips) in input.resolutions {
        builder.set_e2ld(*domain, input.table.e2ld_of(*domain));
        for &ip in ips {
            builder.add_resolution(*domain, ip);
        }
    }
    for &(_, domain) in input.queries {
        builder.set_e2ld(domain, input.table.e2ld_of(domain));
    }
    builder.build()
}

/// Replays what `core.snapshot` does after the CSR exists — abuse index,
/// labeling, pruning — as child spans, and assembles the snapshot they
/// amount to. `window_records` is the pDNS window's size.
pub fn replay_snapshot_finish(
    rec: &mut Recorder,
    parent: u32,
    mut graph: BehaviorGraph,
    input: &SnapshotInput<'_>,
    config: &TrackerConfig,
) -> (DaySnapshot, u64) {
    let window = input
        .day
        .lookback_exclusive(config.segugio.features.abuse_window_days);
    let window_records = input.pdns.records_in(window).count() as u64;
    let (abuse, id) = rec.span("pdns.abuse_build", Some(parent), true, || {
        AbuseIndex::build(input.pdns, window, |d| input.seed_label(d))
    });
    rec.set_items(id, window_records);

    let edges_in = graph.edge_count() as u64;
    let ((), id) = rec.span("graph.label", Some(parent), true, || {
        apply_labels_with(&mut graph, |domain, e2ld| {
            if input.blacklist.contains_as_of(domain, input.day) {
                Label::Malware
            } else if input.whitelist.contains(e2ld) {
                Label::Benign
            } else {
                Label::Unknown
            }
        })
    });
    rec.set_items(id, edges_in);
    let unpruned_counts = (
        graph.machine_count(),
        graph.domain_count(),
        graph.edge_count(),
    );
    let unpruned_domain_labels = graph.domain_label_counts();
    let unpruned_machine_labels = graph.machine_label_counts();
    let ((graph, prune_stats), id) = rec.span("graph.prune", Some(parent), true, || {
        graph.prune(&config.segugio.prune)
    });
    rec.set_items(id, edges_in);
    let snapshot = DaySnapshot {
        graph,
        abuse,
        prune_stats,
        unpruned_counts,
        unpruned_domain_labels,
        unpruned_machine_labels,
    };
    (snapshot, window_records)
}

/// What the scoring half of a day produced.
pub struct Scored {
    pub features: DayFeatures,
    pub model: SegugioModel,
    pub threshold: f32,
    /// Detections at or above `threshold`.
    pub flagged: Vec<Detection>,
    /// Span ids of the four stages: features, train, calibrate, score.
    pub stage_ids: [u32; 4],
}

/// Features → train → calibrate → score through the public functions
/// `Tracker::process_day` itself calls, one span each under `parent`.
pub fn score_stages(
    rec: &mut Recorder,
    parent: u32,
    engine: &mut IncrementalEngine,
    snapshot: &DaySnapshot,
    activity: &ActivityStore,
    config: &TrackerConfig,
    buf: &mut ScoreBuffer,
) -> Result<Scored, String> {
    let (features, s_features) = rec.span("core.features", Some(parent), false, || {
        engine.measure_day(snapshot, activity, &config.segugio)
    });
    rec.set_items(
        s_features,
        (features.train.len() + features.unknown_rows.len()) as u64,
    );
    let (model, s_train) = rec.span("core.train", Some(parent), false, || {
        Segugio::train_prepared(&features.train, &config.segugio)
    });
    rec.set_items(s_train, features.train.len() as u64);
    let model = model.map_err(|e| e.to_string())?;
    let (threshold, s_calibrate) = rec.span("core.calibrate", Some(parent), false, || {
        model.score_dataset_with(&features.train, buf);
        RocCurve::from_scores(buf.scores(), features.train.labels())
            .threshold_for_fpr(config.target_fpr)
    });
    rec.set_items(s_calibrate, features.train.len() as u64);
    let ((), s_score) = rec.span("core.score", Some(parent), false, || {
        model.score_rows_with(&features.unknown_ids, &features.unknown_rows, buf)
    });
    rec.set_items(s_score, features.unknown_rows.len() as u64);
    let flagged = buf
        .detections()
        .iter()
        .filter(|d| d.score >= threshold)
        .copied()
        .collect();
    Ok(Scored {
        features,
        model,
        threshold,
        flagged,
        stage_ids: [s_features, s_train, s_calibrate, s_score],
    })
}

/// Counts the `ml` replays report.
#[derive(Debug, Clone, Copy, Default)]
pub struct MlCounts {
    pub forest_nodes: u64,
    /// Allocations of one steady-state single-thread scoring pass.
    pub score_allocs: u64,
}

/// Replays the `ml` calls hidden inside train, calibrate and score.
/// `serial_buf` persists across days so the serial scoring pass runs in
/// the steady state the zero-allocation claim is about.
pub fn replay_ml(
    rec: &mut Recorder,
    scored: &Scored,
    config: &TrackerConfig,
    serial_buf: &mut ScoreBuffer,
) -> MlCounts {
    let [_, s_train, s_calibrate, s_score] = scored.stage_ids;
    let features = &scored.features;
    let mut counts = MlCounts::default();
    if let ClassifierKind::Forest(forest_config) = &config.segugio.classifier {
        let (forest, id) = rec.span("ml.forest_fit", Some(s_train), true, || {
            RandomForest::fit(&features.train, forest_config)
        });
        rec.set_items(id, features.train.len() as u64);
        let (flat, id) = rec.span("ml.flat_pack", Some(s_train), true, || {
            FlatForest::from_forest(&forest)
        });
        counts.forest_nodes = flat.node_count() as u64;
        rec.set_items(id, counts.forest_nodes);
        let mut scores = vec![0.0f32; features.unknown_rows.len()];
        let ((), id) = rec.span("ml.flat_score", Some(s_score), true, || {
            flat.score_rows(&features.unknown_rows, &mut scores)
        });
        rec.set_items(id, scores.len() as u64);
    }

    let serial = scored.model.clone().with_parallelism(Some(1));
    serial.score_dataset_with(&features.train, serial_buf);
    let (_, id) = rec.span("ml.roc", Some(s_calibrate), true, || {
        RocCurve::from_scores(serial_buf.scores(), features.train.labels())
    });
    rec.set_items(id, features.train.len() as u64);
    // First pass sizes the buffer, second is the steady state.
    serial.score_rows_with(&features.unknown_ids, &features.unknown_rows, serial_buf);
    let ((), id) = rec.span("core.score_serial", Some(s_score), true, || {
        serial.score_rows_with(&features.unknown_ids, &features.unknown_rows, serial_buf)
    });
    rec.set_items(id, features.unknown_rows.len() as u64);
    counts.score_allocs = rec.get(id).allocs;
    counts
}

/// Machines that queried any flagged domain.
pub fn implicated_machines(graph: &BehaviorGraph, flagged: &[Detection]) -> usize {
    let mut machines: Vec<MachineId> = flagged
        .iter()
        .filter_map(|det| graph.domain_idx(det.domain))
        .flat_map(|idx| graph.machines_of(idx).map(|m| graph.machine_id(m)))
        .collect();
    machines.sort_unstable();
    machines.dedup();
    machines.len()
}
