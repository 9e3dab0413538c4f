//! Per-layer measurement: the counting allocator installed, one span per
//! call into a layer's public function, spans written out at exit. This
//! binary is the only part of the harness that names per-layer internals
//! (`GraphBuilder`, `DeltaBuilder`, `RollingAbuseIndex`, `RandomForest`,
//! `FlatForest`, …): a later change that removes one may break `trace`,
//! never `bench`.

mod logs;
mod stages;
mod stream;
mod tracked;

use std::process::ExitCode;

use segugio_alloc_probe::CountingAlloc;
use segugio_benchmark::logs::WorkDir;
use segugio_benchmark::report::{out_dir, Args, Outcome};
use segugio_benchmark::span::Recorder;
use segugio_benchmark::workload::{spec, Scale, Spec, TrackDays, TrackSpec};

use crate::tracked::{Feeds, TrackedLoop};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(&argv).and_then(|mut args| {
        args.trace = true;
        let out = out_dir().map_err(|e| format!("preparing out/: {e}"))?;
        let (outcome, rec) = run(&args, Scale::Full)?;
        rec.write_jsonl(
            &args.workload,
            &out.join(format!("trace-{}.jsonl", args.workload)),
        )
        .and_then(|()| outcome.emit())
        .map_err(|e| format!("writing the result: {e}"))?;
        Ok(outcome.correct())
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("trace: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args, scale: Scale) -> Result<(Outcome, Recorder), String> {
    let spec = spec(&args.workload, scale, args.seed).ok_or("unknown workload")?;
    let mut outcome = Outcome::new(args, "counting");
    let mut rec = Recorder::default();
    match spec {
        Spec::Track(spec) => trace_track(&spec, &mut rec, &mut outcome)
            .map_err(|e| format!("checkpoint dir: {e}"))?,
        Spec::Stream(spec) => stream::trace_stream(&spec, &mut rec, &mut outcome),
        Spec::Logs(spec) => logs::trace_logs(&spec, &mut rec, &mut outcome)
            .map_err(|e| format!("logs-cron: {e}"))?,
    }
    outcome.set_metric("trace.peak_live_bytes", rec.peak_live_bytes as f64);
    Ok((outcome, rec))
}

/// `track-churn` / `track-steady`: one cold and four warm days, each run
/// whole, staged and by the simplest route.
fn trace_track(spec: &TrackSpec, rec: &mut Recorder, outcome: &mut Outcome) -> std::io::Result<()> {
    const WARM_DAYS: usize = 4;
    let (mut days, s_world) = rec.span("traffic.world_build", None, false, || TrackDays::new(spec));
    outcome.set_metric("traffic.world_build_s", rec.get(s_world).seconds());
    let mut tracked = TrackedLoop::new();
    let warm_days = WARM_DAYS.min(spec.max_warm_days);
    for i in 0..=warm_days {
        rec.set_day(i as u32);
        let (day, _) = rec.span("traffic.day_gen", None, false, || days.generate_day());
        let feeds = Feeds::of_world(days.world());
        tracked.day(rec, outcome, &feeds, &day, i == warm_days);
    }
    let gen_s: Vec<f64> = rec
        .seconds_by_day("traffic.day_gen")
        .iter()
        .map(|d| d.1)
        .collect();
    outcome.set_metric(
        "traffic.day_gen_s",
        segugio_benchmark::workload::median(&gen_s),
    );
    let work = WorkDir::create("trace")?;
    tracked.checkpoint(rec, outcome, &work.path().join("checkpoints"));
    let coverage = tracked.finish(rec, outcome);
    // The stages are `process_day`'s whole computation — the digests prove
    // it — so coverage should read 0.95 or more. But it compares two
    // separately timed executions, which differ by ±10 % on a shared host:
    // only a reading far below that fails the run.
    outcome.check(
        "stage-spans-cover-the-day",
        coverage >= 0.8,
        format!("coverage {coverage:.4} (expected >= 0.95)"),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use segugio_benchmark::logs::segugio_bin_built_for_tests;
    use segugio_benchmark::report::PER_LAYER;
    use std::sync::Mutex;

    /// The allocation counters are process-wide: traced runs take turns.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

    /// Runs `workload` traced at smoke scale: its checks pass and every
    /// per-layer name is emitted. Returns the metrics by name.
    fn smoke(workload: &str) -> impl Fn(&str) -> f64 {
        let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let args = Args {
            workload: workload.to_owned(),
            seed: 5,
            seconds: 0.5,
            trace: true,
        };
        let (outcome, rec) = run(&args, Scale::Smoke).expect("the workload runs");
        assert!(outcome.correct(), "{:#?}", outcome.checks);
        assert!(!rec.spans().is_empty());
        let metrics = outcome.metrics();
        let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, declared);
        move |name| {
            metrics
                .iter()
                .find(|m| m.0 == name)
                .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
                .2
        }
    }

    const EVERY_TRACKED_DAY: [&str; 12] = [
        "graph.csr_build_s",
        "graph.delta_advance_s",
        "graph.prune_s",
        "graph.edges_in",
        "pdns.abuse_build_s",
        "pdns.rolling_advance_s",
        "core.snapshot_s",
        "core.features_s",
        "core.train_s",
        "core.serial_day_s",
        "core.checkpoint_bytes",
        "ml.forest_nodes",
    ];

    #[test]
    fn track_churn_traced_at_smoke_scale() {
        let metric = smoke("track-churn");
        for name in EVERY_TRACKED_DAY {
            assert!(metric(name) > 0.0, "{name}");
        }
        assert!(metric("graph.delta_new_edge_fraction") > 0.4);
        assert!(metric("core.feature_cache_hit_ratio") < 0.05);
        assert!(metric("trace.coverage") > 0.5);
        assert_eq!(metric("ingest.lines"), 0.0);
        assert_eq!(metric("graph.runs_spilled"), 0.0);
    }

    #[test]
    fn track_steady_traced_at_smoke_scale() {
        let metric = smoke("track-steady");
        assert!((metric("graph.delta_new_edge_fraction") - 0.10).abs() < 0.01);
        assert!(metric("core.feature_cache_hit_ratio") > 0.0);
        assert!(metric("core.checkpoint_restore_s") > 0.0);
    }

    #[test]
    fn stream_traced_at_smoke_scale() {
        let metric = smoke("stream-1m");
        for name in [
            "graph.runs_push_s",
            "graph.runs_spilled",
            "graph.csr_from_runs_s",
            "graph.csr_build_s",
            "pdns.abuse_build_s",
            "core.features_s",
            "trace.overhead_ratio",
        ] {
            assert!(metric(name) > 0.0, "{name}");
        }
        assert_eq!(metric("core.score_allocs"), 0.0);
        assert_eq!(metric("graph.delta_advance_s"), 0.0);
        assert_eq!(metric("core.checkpoint_bytes"), 0.0);
    }

    #[test]
    fn logs_cron_traced_at_smoke_scale() {
        segugio_bin_built_for_tests().expect("the segugio binary builds");
        let metric = smoke("logs-cron");
        for name in EVERY_TRACKED_DAY {
            assert!(metric(name) > 0.0, "{name}");
        }
        assert!(metric("ingest.lines") > 0.0 && metric("ingest.read_s") > 0.0);
        assert_eq!(metric("ingest.rejected_lines"), 0.0);
        assert!(metric("ingest.day_materialize_s") > 0.0);
        assert!(metric("graph.persist_read_s") > 0.0);
    }
}
