//! `stream-1m` traced: the spilled-runs route with one span per call, then
//! the same day again through the in-memory builder, which must agree.

use segugio_benchmark::report::Outcome;
use segugio_benchmark::span::Recorder;
use segugio_benchmark::workload::{build_world, Digest, Quality, StreamSpec};
use segugio_core::{
    DaySnapshot, Detection, IncrementalEngine, ScoreBuffer, Segugio, SnapshotInput, TrackerConfig,
};
use segugio_graph::{EdgeRuns, GraphBuilder};
use segugio_ml::RocCurve;
use segugio_model::{DomainId, MachineId};

use crate::stages::{build_in_memory, replay_ml, replay_snapshot_finish, score_stages};

pub fn trace_stream(spec: &StreamSpec, rec: &mut Recorder, outcome: &mut Outcome) {
    let config = TrackerConfig::default();
    let (mut world, s_world) = rec.span("traffic.world_build", None, false, || {
        build_world(&spec.isp, spec.warm_up)
    });
    outcome.set_metric("traffic.world_build_s", rec.get(s_world).seconds());

    // The generator streams machine chunks; each chunk's pushes are a
    // child span, so the generator's own time is the parent's self time.
    // The day is also kept whole for the in-memory route below.
    let mut runs = EdgeRuns::with_run_capacity(spec.run_capacity);
    let mut queries: Vec<(MachineId, DomainId)> = Vec::new();
    let s_gen = rec.open("traffic.day_gen", None, false);
    let (day, resolutions) = world.next_day_streamed(spec.chunk_machines, |chunk| {
        let id = rec.open("graph.runs_push", Some(s_gen), false);
        for &(machine, domain) in chunk {
            runs.push(machine, domain);
        }
        rec.close(id, chunk.len() as u64);
        queries.extend_from_slice(chunk);
    });
    rec.close(s_gen, runs.observations());
    let push_s: f64 = rec
        .seconds_by_day("graph.runs_push")
        .iter()
        .map(|d| d.1)
        .sum();
    outcome.set_metric("traffic.day_gen_s", rec.self_time_ns(s_gen) as f64 / 1e9);
    outcome.set_metric("graph.runs_push_s", push_s);
    outcome.set_metric("graph.runs_spilled", runs.spilled_runs() as f64);
    outcome.set_metric("graph.runs_spilled_bytes", runs.spilled_bytes() as f64);
    outcome.note_num("observations", runs.observations() as f64);

    let input = SnapshotInput {
        day,
        queries: &queries,
        resolutions: &resolutions,
        table: world.table(),
        pdns: world.pdns(),
        blacklist: world.commercial_blacklist(),
        whitelist: world.whitelist(),
        hidden: None,
    };

    // The route `bench` measures: first whole, as the untraced baseline…
    outcome.attempted += 1;
    let (composed, s_whole) = rec.span("core.composed_day", None, false, || {
        let snapshot = DaySnapshot::build_from_runs(&input, &runs, &config.segugio)
            .map_err(|e| e.to_string())?;
        let mut engine = IncrementalEngine::new();
        let features = engine.measure_day(&snapshot, world.activity(), &config.segugio);
        let model =
            Segugio::train_prepared(&features.train, &config.segugio).map_err(|e| e.to_string())?;
        let mut buf = ScoreBuffer::new();
        model.score_dataset_with(&features.train, &mut buf);
        let threshold = RocCurve::from_scores(buf.scores(), features.train.labels())
            .threshold_for_fpr(config.target_fpr);
        model.score_rows_with(&features.unknown_ids, &features.unknown_rows, &mut buf);
        let mut digest = Digest::default();
        let flagged: Vec<Detection> = buf
            .detections()
            .iter()
            .filter(|d| d.score >= threshold)
            .copied()
            .collect();
        digest.day(threshold, &flagged, &[], 0);
        Ok::<Digest, String>(digest)
    });

    // …then again with one span per call.
    let staged = rec.open("core.staged_day", None, false);
    let s_snapshot = rec.open("core.snapshot", Some(staged), false);
    let (graph, s_csr) = rec.span("graph.csr_from_runs", Some(s_snapshot), false, || {
        GraphBuilder::from_runs(day, &runs, &resolutions, |d| world.table().e2ld_of(d))
    });
    rec.set_items(s_csr, runs.observations());
    drop(runs);
    let graph = match graph {
        Ok(graph) => graph,
        Err(error) => {
            outcome.failed += 1;
            eprintln!("merging the spilled runs failed: {error}");
            return;
        }
    };
    let edges = graph.edge_count() as u64;
    let (snapshot, _) = rec.span("core.snapshot_finish", Some(s_snapshot), false, || {
        DaySnapshot::from_unpruned_graph(graph, &input, &config.segugio)
    });
    rec.close(s_snapshot, edges);
    let mut buf = ScoreBuffer::new();
    let scored = score_stages(
        rec,
        staged,
        &mut IncrementalEngine::new(),
        &snapshot,
        world.activity(),
        &config,
        &mut buf,
    );
    rec.close(staged, edges);
    let scored = match scored {
        Ok(scored) => scored,
        Err(error) => {
            outcome.failed += 1;
            eprintln!("the day failed: {error}");
            return;
        }
    };
    let mut digest = Digest::default();
    digest.day(scored.threshold, &scored.flagged, &[], 0);
    outcome.report_digest = digest.value();
    outcome.check(
        "staged-day-equals-composed-day",
        composed.as_ref() == Ok(&digest),
        format!("{composed:?} vs {digest:?}"),
    );
    let mut quality = Quality::default();
    quality.add_day(&input, world.truth(), &scored.flagged);
    let ml = replay_ml(rec, &scored, &config, &mut ScoreBuffer::new());

    // The same day through `GraphBuilder::build`, then abuse index,
    // labeling and pruning replayed on it: the snapshot, and every
    // detection made from it, must come out the same.
    let workers = config.segugio.effective_parallelism();
    let (unpruned, id) = rec.span("graph.csr_build", Some(s_snapshot), true, || {
        build_in_memory(&input, workers)
    });
    rec.set_items(id, queries.len() as u64);
    let (in_memory, window_records) =
        replay_snapshot_finish(rec, s_snapshot, unpruned, &input, &config);
    outcome.check(
        "in-memory-build-gives-the-same-snapshot",
        in_memory.prune_stats == snapshot.prune_stats
            && in_memory.unpruned_counts == snapshot.unpruned_counts,
        format!("{:?}", snapshot.unpruned_counts),
    );
    let rescored = score_stages(
        rec,
        // Recorded under the replayed CSR build, apart from the staged day.
        id,
        &mut IncrementalEngine::new(),
        &in_memory,
        world.activity(),
        &config,
        &mut ScoreBuffer::new(),
    );
    let mut in_memory_digest = Digest::default();
    if let Ok(rescored) = &rescored {
        in_memory_digest.day(rescored.threshold, &rescored.flagged, &[], 0);
    }
    outcome.check(
        "in-memory-build-gives-the-same-detections",
        rescored.is_ok() && in_memory_digest == digest,
        format!(
            "{} flagged, digest {:08x}",
            scored.flagged.len(),
            digest.value()
        ),
    );
    outcome.check(
        "steady-state-scoring-does-not-allocate",
        ml.score_allocs == 0,
        format!("{} allocations", ml.score_allocs),
    );

    let stage = |name: &str| {
        rec.spans()
            .iter()
            .find(|s| s.name == name && s.parent == Some(staged))
            .expect("every stage of the staged day was recorded")
    };
    for (metric, span) in [
        ("core.snapshot_s", "core.snapshot"),
        ("core.features_s", "core.features"),
        ("core.train_s", "core.train"),
        ("core.calibrate_s", "core.calibrate"),
        ("core.score_s", "core.score"),
    ] {
        outcome.set_metric(metric, stage(span).seconds());
    }
    for name in ["core.snapshot", "core.features", "core.train", "core.score"] {
        outcome.set_metric(&format!("{name}.allocs"), stage(name).allocs as f64);
        outcome.set_metric(&format!("{name}.peak_bytes"), stage(name).peak_bytes as f64);
    }
    let replay = |name: &str| {
        rec.spans()
            .iter()
            .find(|s| s.name == name && s.replayed)
            .map_or(0.0, |s| s.seconds())
    };
    outcome.set_metric("graph.csr_from_runs_s", rec.get(s_csr).seconds());
    outcome.set_metric("graph.csr_build_s", replay("graph.csr_build"));
    outcome.set_metric("graph.label_s", replay("graph.label"));
    outcome.set_metric("graph.prune_s", replay("graph.prune"));
    outcome.set_metric("pdns.abuse_build_s", replay("pdns.abuse_build"));
    outcome.set_metric("ml.forest_fit_s", replay("ml.forest_fit"));
    outcome.set_metric("ml.flat_pack_s", replay("ml.flat_pack"));
    outcome.set_metric("ml.roc_s", replay("ml.roc"));
    outcome.set_metric("pdns.window_records", window_records as f64);
    let prune = snapshot.prune_stats;
    outcome.set_metric("graph.edges_in", prune.edges_before as f64);
    outcome.set_metric("graph.edges_kept", prune.edges_after as f64);
    outcome.set_metric("graph.prune_r1_machines", prune.r1_inactive_machines as f64);
    outcome.set_metric("graph.prune_r2_machines", prune.r2_proxy_machines as f64);
    outcome.set_metric(
        "graph.prune_r3_domains",
        prune.r3_single_machine_domains as f64,
    );
    outcome.set_metric("graph.prune_r4_domains", prune.r4_popular_domains as f64);
    let features = &scored.features;
    let unknown_rows = features.unknown_rows.len() as f64;
    outcome.set_metric(
        "core.feature_rows",
        unknown_rows + features.train.len() as f64,
    );
    outcome.set_metric(
        "core.score_domains_per_s",
        unknown_rows / stage("core.score").seconds(),
    );
    outcome.set_metric("core.score_allocs", ml.score_allocs as f64);
    if replay("ml.flat_score") > 0.0 {
        outcome.set_metric(
            "ml.flat_score_rows_per_s",
            unknown_rows / replay("ml.flat_score"),
        );
    }
    outcome.set_metric("ml.train_rows", features.train.len() as f64);
    outcome.set_metric("ml.train_positives", features.train.positive_count() as f64);
    outcome.set_metric("ml.forest_nodes", ml.forest_nodes as f64);
    outcome.set_metric("core.detect_tpr", quality.detect_tpr());
    outcome.set_metric("core.detect_fpr", quality.detect_fpr());

    // The composed day is the pushes plus the whole call; the staged day
    // replaces the whole call with its five stages.
    let whole_s = rec.get(s_whole).seconds();
    let stages_s: f64 = [
        "core.snapshot",
        "core.features",
        "core.train",
        "core.calibrate",
        "core.score",
    ]
    .iter()
    .map(|s| stage(s).seconds())
    .sum();
    outcome.set_metric("trace.coverage", stages_s / whole_s);
    outcome.set_metric("trace.overhead_ratio", rec.get(staged).seconds() / whole_s);
    outcome.note_num("day_wall_s", push_s + whole_s);
}
