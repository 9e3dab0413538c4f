//! End-to-end measurement: system allocator, no spans, durable surface
//! only. `bench --workload W --seed N --seconds S` runs one workload;
//! `bench agree A B` compares two result files.

use std::process::ExitCode;

use segugio_benchmark::json::Json;
use segugio_benchmark::logs::{
    copy_dir, newest_checkpoint_bytes, run_track, segugio_bin, ChildRun, LogFiles, WorkDir,
};
use segugio_benchmark::report::{out_dir, peak_rss_bytes, Args, Outcome};
use segugio_benchmark::workload::{
    build_world, median, quartile_spread, snapshot_input, spec, timed, Digest, LogsSpec, Quality,
    Scale, Spec, StreamSpec, TrackDays, TrackSpec, MIN_WARM_DAYS,
};
use segugio_core::{
    DaySnapshot, Detection, IncrementalEngine, ScoreBuffer, Segugio, SnapshotInput, Tracker,
    TrackerConfig,
};
use segugio_graph::EdgeRuns;
use segugio_ml::RocCurve;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().is_some_and(|a| a == "agree") {
        agree(&argv[1..])
    } else {
        Args::parse(&argv).and_then(|args| {
            if args.trace {
                return Err("--trace 1 is the `trace` binary's job (run.sh picks it)".to_owned());
            }
            out_dir().map_err(|e| format!("preparing out/: {e}"))?;
            let outcome = run(&args, Scale::Full)?;
            outcome
                .emit()
                .map_err(|e| format!("writing the result: {e}"))?;
            Ok(outcome.correct())
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args, scale: Scale) -> Result<Outcome, String> {
    let spec = spec(&args.workload, scale, args.seed).ok_or("unknown workload")?;
    let mut outcome = Outcome::new(args, "system");
    match spec {
        Spec::Track(spec) => run_track_days(&spec, args.seconds, &mut outcome),
        Spec::Stream(spec) => run_stream(&spec, &mut outcome),
        Spec::Logs(spec) => {
            run_logs(&spec, args.seconds, &mut outcome).map_err(|e| format!("logs-cron: {e}"))?
        }
    }
    Ok(outcome)
}

fn own_peak_rss() -> f64 {
    peak_rss_bytes(std::process::id()).unwrap_or(0) as f64
}

/// `track-churn` / `track-steady`: a closed loop, one day at a time. The
/// cold day fills the tracker's cross-day state and is charged to set-up;
/// warm days are measured until `seconds` of them have run.
fn run_track_days(spec: &TrackSpec, seconds: f64, outcome: &mut Outcome) {
    let (mut days, mut setup_s) = timed(|| TrackDays::new(spec));
    let config = TrackerConfig::default();
    let mut tracker = Tracker::new();
    let mut digest = Digest::default();
    let mut quality = Quality::default();
    let mut warm_walls = Vec::new();
    let mut warm_rates = Vec::new();
    let mut observations = 0u64;
    let mut cold_day_wall_s = 0.0;
    let mut last = None;

    for i in 0..=spec.max_warm_days {
        let measured: f64 = warm_walls.iter().sum();
        if i > MIN_WARM_DAYS && measured >= seconds {
            break;
        }
        let (day, gen_s) = timed(|| days.generate_day());
        setup_s += gen_s;
        let input = snapshot_input(days.world(), &day);
        let (result, wall_s) =
            timed(|| tracker.process_day(&input, days.world().activity(), &config));
        outcome.attempted += 1;
        if i == 0 {
            cold_day_wall_s = wall_s;
            setup_s += wall_s;
        } else {
            warm_walls.push(wall_s);
            warm_rates.push(day.queries.len() as f64 / wall_s);
            observations += day.queries.len() as u64;
        }
        match result {
            Ok(report) => {
                if report.is_degraded() {
                    outcome.failed += 1;
                    eprintln!("{}: degraded {:?}", report.day, report.degradation);
                }
                digest.day_report(&report);
                if i > 0 {
                    quality.add_day(&input, days.world().truth(), &report.all_detections);
                }
                last = Some((day, report));
            }
            Err(error) => {
                outcome.failed += 1;
                eprintln!("day {i} failed: {error}");
            }
        }
    }
    let peak_rss = own_peak_rss();

    // The last warm day went through delta graph, rolling index and
    // feature cache. A tracker that has seen nothing builds the same day
    // from scratch and must flag the same domains with the same scores.
    if let Some((day, report)) = &last {
        let input = snapshot_input(days.world(), day);
        let scratch = Tracker::new().process_day(&input, days.world().activity(), &config);
        let same = scratch.as_ref().is_ok_and(|s| {
            s.threshold.to_bits() == report.threshold.to_bits()
                && same_detections(&s.all_detections, &report.all_detections)
        });
        outcome.check(
            "warm-day-equals-cold-build",
            same,
            format!("{}: {} detections", report.day, report.all_detections.len()),
        );
    }
    outcome.check(
        "detection-beats-chance",
        quality.detect_tpr() > quality.detect_fpr(),
        format!(
            "tpr {:.4} fpr {:.5}",
            quality.detect_tpr(),
            quality.detect_fpr()
        ),
    );

    outcome.set_metric("setup_s", setup_s);
    outcome.set_metric("day_wall_s", median(&warm_walls));
    outcome.set_metric("obs_per_s", median(&warm_rates));
    outcome.set_metric("peak_rss_bytes", peak_rss);
    outcome.note_num("day_wall_s.n", warm_walls.len() as f64);
    outcome.note_num("cold_day_wall_s", cold_day_wall_s);
    outcome.note_num("observations", observations as f64);
    outcome.note_num("detect_tpr", quality.detect_tpr());
    outcome.note_num("detect_fpr", quality.detect_fpr());
    outcome.note_num("unknown_malicious_present", quality.malicious as f64);
    outcome.note_num("unknown_benign_present", quality.benign as f64);
    outcome.report_digest = digest.value();
}

fn same_detections(a: &[Detection], b: &[Detection]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.domain == y.domain && x.score.to_bits() == y.score.to_bits())
}

/// `stream-1m`: one composed day. The generator hands machine chunks to
/// the edge runs; only the pushes are on the clock, timed per chunk.
fn run_stream(spec: &StreamSpec, outcome: &mut Outcome) {
    let (mut world, mut setup_s) = timed(|| build_world(&spec.isp, spec.warm_up));
    let config = TrackerConfig::default();
    let mut runs = EdgeRuns::with_run_capacity(spec.run_capacity);
    let mut push_s = 0.0;
    let ((day, resolutions), streamed_s) = timed(|| {
        world.next_day_streamed(spec.chunk_machines, |chunk| {
            let start = segugio_benchmark::clock();
            for &(machine, domain) in chunk {
                runs.push(machine, domain);
            }
            push_s += start.elapsed().as_secs_f64();
        })
    });
    setup_s += streamed_s - push_s;
    let observations = runs.observations();
    let input = SnapshotInput {
        day,
        queries: &[],
        resolutions: &resolutions,
        table: world.table(),
        pdns: world.pdns(),
        blacklist: world.commercial_blacklist(),
        whitelist: world.whitelist(),
        hidden: None,
    };

    outcome.attempted += 1;
    let start = segugio_benchmark::clock();
    let built = DaySnapshot::build_from_runs(&input, &runs, &config.segugio);
    drop(runs);
    let scored = built.map_err(|e| e.to_string()).and_then(|snapshot| {
        let mut engine = IncrementalEngine::new();
        let features = engine.measure_day(&snapshot, world.activity(), &config.segugio);
        let model =
            Segugio::train_prepared(&features.train, &config.segugio).map_err(|e| e.to_string())?;
        let mut buf = ScoreBuffer::new();
        model.score_dataset_with(&features.train, &mut buf);
        let threshold = RocCurve::from_scores(buf.scores(), features.train.labels())
            .threshold_for_fpr(config.target_fpr);
        model.score_rows_with(&features.unknown_ids, &features.unknown_rows, &mut buf);
        Ok((snapshot, threshold, buf))
    });
    let day_wall_s = push_s + start.elapsed().as_secs_f64();
    let peak_rss = own_peak_rss();

    match scored {
        Ok((snapshot, threshold, buf)) => {
            let flagged: Vec<Detection> = buf
                .detections()
                .iter()
                .filter(|d| d.score >= threshold)
                .copied()
                .collect();
            let mut digest = Digest::default();
            digest.day(threshold, &flagged, &[], 0);
            outcome.report_digest = digest.value();
            let mut quality = Quality::default();
            quality.add_day(&input, world.truth(), &flagged);

            // The generator resolves each distinct queried domain once, so
            // its resolution list is an independent count of the CSR's
            // domain side.
            let (machines, domains, edges) = snapshot.unpruned_counts;
            outcome.check(
                "csr-matches-the-generated-day",
                domains == resolutions.len()
                    && machines <= spec.isp.machines
                    && edges as u64 <= observations
                    && edges >= domains
                    && snapshot.prune_stats.edges_before == edges,
                format!("{machines} machines, {domains} domains, {edges} edges"),
            );
            outcome.check(
                "detection-beats-chance",
                quality.detect_tpr() > quality.detect_fpr(),
                format!(
                    "tpr {:.4} fpr {:.5}",
                    quality.detect_tpr(),
                    quality.detect_fpr()
                ),
            );
            outcome.note_num("unpruned_edges", edges as f64);
            outcome.note_num("detect_tpr", quality.detect_tpr());
            outcome.note_num("detect_fpr", quality.detect_fpr());
        }
        Err(error) => {
            outcome.failed += 1;
            eprintln!("the day failed: {error}");
        }
    }

    outcome.set_metric("setup_s", setup_s);
    outcome.set_metric("day_wall_s", day_wall_s);
    outcome.set_metric("obs_per_s", observations as f64 / day_wall_s);
    outcome.set_metric("peak_rss_bytes", peak_rss);
    outcome.note_num("day_wall_s.n", 1.0);
    outcome.note_num("runs_push_s", push_s);
    outcome.note_num("observations", observations as f64);
}

/// `logs-cron`: what an operator's cron runs. One backfill of a fresh
/// checkpoint directory from the log without its last day; then the log
/// gains that day and the morning job — resume, skip, one warm day, save —
/// runs up to `max_mornings` times, each on its own copy of the backfilled
/// directory, until `seconds` have been measured.
fn run_logs(spec: &LogsSpec, seconds: f64, outcome: &mut Outcome) -> std::io::Result<()> {
    let bin = segugio_bin()?;
    let work = WorkDir::create("bench")?;
    let (exported, mut setup_s) = timed(|| LogFiles::export(spec, work.path()));
    let (files, _world) = exported?;

    let backfilled = work.path().join("checkpoints-backfilled");
    let backfill = run_track(&bin, &files, Some(&backfilled))?;
    let (appended, append_s) = timed(|| files.append_last_day());
    appended?;
    setup_s += append_s;
    let mut mornings: Vec<ChildRun> = Vec::new();
    let mut checkpoint_bytes = 0;
    for rep in 0..spec.max_mornings {
        let measured = backfill.wall_s + mornings.iter().map(|r| r.wall_s).sum::<f64>();
        if rep > 0 && measured >= seconds {
            break;
        }
        let checkpoints = work.path().join(format!("checkpoints-{rep}"));
        let (copied, copy_s) = timed(|| copy_dir(&backfilled, &checkpoints));
        copied?;
        setup_s += copy_s;
        mornings.push(run_track(&bin, &files, Some(&checkpoints))?);
        checkpoint_bytes = newest_checkpoint_bytes(&checkpoints).unwrap_or(0);
        std::fs::remove_dir_all(&checkpoints)?;
    }
    outcome.attempted += 1 + mornings.len() as u64;
    for run in std::iter::once(&backfill).chain(&mornings) {
        if !run.success {
            outcome.failed += 1;
            eprintln!("segugio track failed:\n{}", run.stderr);
        }
    }

    let backfilled_days = spec.days - 1;
    outcome.check(
        "backfill-tracks-every-day",
        backfill
            .summary()
            .starts_with(&format!("tracked {backfilled_days} day(s)"))
            && backfill.day_lines().len() == backfilled_days as usize,
        backfill.summary().to_owned(),
    );
    outcome.check(
        "morning-resumes-and-tracks-one-day",
        mornings
            .iter()
            .all(|r| r.summary().starts_with("tracked 1 day(s)") && r.day_lines().len() == 1),
        mornings[0].summary().to_owned(),
    );
    outcome.check(
        "mornings-print-the-same-day",
        mornings.iter().all(|r| r.stdout == mornings[0].stdout),
        format!("{} morning run(s)", mornings.len()),
    );
    outcome.check(
        "checkpoint-written",
        checkpoint_bytes > 0,
        format!("{checkpoint_bytes} bytes"),
    );
    let mut digest = Digest::default();
    digest.fold_output(&backfill.stdout);
    digest.fold_output(&mornings[0].stdout);
    outcome.report_digest = digest.value();

    let morning_walls: Vec<f64> = mornings.iter().map(|r| r.wall_s).collect();
    let morning_wall_s = median(&morning_walls);
    // One backfill and one typical morning: seven saves, one resume.
    let lines = files.prefix_lines + files.all_lines;
    let peak_rss = mornings
        .iter()
        .map(|r| r.peak_rss_bytes)
        .fold(backfill.peak_rss_bytes, u64::max);
    outcome.set_metric("setup_s", setup_s);
    outcome.set_metric("day_wall_s", morning_wall_s);
    outcome.set_metric(
        "obs_per_s",
        lines as f64 / (backfill.wall_s + morning_wall_s),
    );
    outcome.set_metric("peak_rss_bytes", peak_rss as f64);
    outcome.note_num("day_wall_s.n", morning_walls.len() as f64);
    outcome.note_num("morning_wall_s", morning_wall_s);
    outcome.note_num("backfill_wall_s", backfill.wall_s);
    outcome.note_num("checkpoint_bytes", checkpoint_bytes as f64);
    outcome.note_num("observations", lines as f64);
    Ok(())
}

/// One row of `BENCHMARK.json`'s `end_to_end` list.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_bounds() -> Result<Vec<Bound>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text)?;
    let rows = json
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    rows.iter()
        .map(|row| {
            Some(Bound {
                name: row.get("name")?.as_str()?.to_owned(),
                lower_is_better: row.get("better")?.as_str()? == "lower",
                bound: row.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Bound>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end row".to_owned())
}

/// The untraced records of a result file.
fn read_records(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut records = Json::parse_stream(&text).map_err(|e| format!("{path}: {e}"))?;
    records.retain(|r| r.get("traced").and_then(Json::as_bool) == Some(false));
    Ok(records)
}

fn of_workload<'a>(records: &'a [Json], workload: &'a str) -> impl Iterator<Item = &'a Json> {
    records
        .iter()
        .filter(move |r| r.get("workload").and_then(Json::as_str) == Some(workload))
}

/// Values that must repeat exactly for a seed, whatever the host does.
fn exact_values(record: &Json) -> Vec<(String, String)> {
    let mut out = Vec::new();
    if let Some(digest) = record.get("report_digest").and_then(Json::as_str) {
        out.push(("report_digest".to_owned(), digest.to_owned()));
    }
    for name in ["detect_tpr", "detect_fpr", "checkpoint_bytes"] {
        if let Some(value) = record.get("info").and_then(|i| i.get(name)) {
            out.push((name.to_owned(), value.to_line()));
        }
    }
    if let Some(value) = record.get("failed_ops") {
        out.push(("failed_ops".to_owned(), value.to_line()));
    }
    out
}

/// `bench agree A B`: one row per (workload, end-to-end metric) with both
/// medians, their ratio and a verdict against the metric's bound, then one
/// row per value that must repeat exactly. `Ok(false)` when any row is
/// `worse`, `missing` or `differs`.
fn agree(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: bench agree A.jsonl B.jsonl".to_owned());
    };
    let bounds = read_bounds()?;
    let (a, b) = (read_records(a)?, read_records(b)?);
    let mut agreed = true;
    println!(
        "{:<13} {:<16} {:>3} {:>16} {:>3} {:>16} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "nA", "median A", "nB", "median B", "B/A", "spread", "bound"
    );
    for workload in segugio_benchmark::report::WORKLOADS {
        for bound in &bounds {
            let values = |records: &[Json]| -> Vec<f64> {
                of_workload(records, workload)
                    .filter_map(|r| r.get("metrics")?.get(&bound.name)?.get("value")?.as_f64())
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<13} {:<16} missing from one side", bound.name);
                agreed = false;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse_by = if bound.lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let spread = [(&va, ma), (&vb, mb)]
                .into_iter()
                .filter_map(|(v, m)| Some(quartile_spread(v)? / m))
                .fold(0.0, f64::max);
            let verdict = if spread > bound.bound {
                "unresolved"
            } else if worse_by > bound.bound {
                agreed = false;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{workload:<13} {:<16} {:>3} {ma:>16.6} {:>3} {mb:>16.6} {:>8.4} {spread:>7.4} {:>7.4}  {verdict}",
                bound.name,
                va.len(),
                vb.len(),
                mb / ma,
                bound.bound
            );
        }
        for ra in of_workload(&a, workload) {
            let seed = ra.get("seed").and_then(Json::as_f64);
            let Some(rb) =
                of_workload(&b, workload).find(|r| r.get("seed").and_then(Json::as_f64) == seed)
            else {
                continue;
            };
            let (ea, eb) = (exact_values(ra), exact_values(rb));
            for ((name, x), (_, y)) in ea.iter().zip(&eb) {
                let verdict = if x == y { "same" } else { "differs" };
                agreed &= x == y;
                println!(
                    "{workload:<13} {name:<16} seed {:<6} {x:>16} {y:>16}  {verdict}",
                    seed.unwrap_or(0.0)
                );
            }
            if ea.len() != eb.len() {
                println!("{workload:<13} exact values    differ in kind");
                agreed = false;
            }
        }
    }
    Ok(agreed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use segugio_benchmark::logs::segugio_bin_built_for_tests;
    use segugio_benchmark::report::{Env, END_TO_END, WORKLOADS};

    fn sample_args(workload: &str) -> Args {
        Args {
            workload: workload.to_owned(),
            seed: 5,
            seconds: 0.5,
            trace: false,
        }
    }

    /// Runs `workload` at smoke scale: its checks pass and the result
    /// object carries every end-to-end metric, none of them zero.
    fn smoke(workload: &str) -> Outcome {
        let outcome = run(&sample_args(workload), Scale::Smoke).expect("the workload runs");
        assert!(outcome.correct(), "{:#?}", outcome.checks);
        assert!(!outcome.checks.is_empty() && outcome.attempted >= 1);
        let parsed = Json::parse(&outcome.contract_json().to_line()).expect("valid JSON");
        let metrics = parsed
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics");
        let names: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, declared);
        for (name, entry) in metrics {
            let value = entry.get("value").and_then(Json::as_f64).expect("a number");
            assert!(value > 0.0, "{name} is {value}");
        }
        outcome
    }

    #[test]
    fn track_churn_checks_pass_at_smoke_scale() {
        let outcome = smoke("track-churn");
        assert!(outcome.info.iter().any(|(name, _)| name == "detect_tpr"));
    }

    #[test]
    fn track_steady_checks_pass_at_smoke_scale() {
        smoke("track-steady");
    }

    #[test]
    fn stream_checks_pass_at_smoke_scale() {
        smoke("stream-1m");
    }

    #[test]
    fn logs_cron_checks_pass_at_smoke_scale_and_leave_nothing_behind() {
        segugio_bin_built_for_tests().expect("the segugio binary builds");
        let outcome = smoke("logs-cron");
        assert!(outcome
            .info
            .iter()
            .any(|(name, _)| name == "checkpoint_bytes"));
        let leftovers: Vec<_> = std::fs::read_dir(out_dir().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("work-bench-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    /// A result file with one run per `day_wall_s` value for every workload.
    fn result_file(name: &str, day_walls: &[f64], digest: u32) -> String {
        let env = Env::of_host();
        let mut text = String::new();
        for workload in WORKLOADS {
            for (seed, &wall) in day_walls.iter().enumerate() {
                let mut outcome = Outcome::new(
                    &Args {
                        seed: seed as u64,
                        ..sample_args(workload)
                    },
                    "system",
                );
                outcome.set_metric("setup_s", 2.0);
                outcome.set_metric("day_wall_s", wall);
                outcome.set_metric("obs_per_s", 1000.0 / wall);
                outcome.set_metric("peak_rss_bytes", 1e9);
                outcome.report_digest = digest;
                text.push_str(&outcome.record_json(&env).to_line());
                text.push('\n');
            }
        }
        let path = out_dir().unwrap().join("tmp").join(name);
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn agree_separates_ok_worse_and_unresolved() {
        let base = result_file("agree-base.jsonl", &[1.00, 1.01, 0.99, 1.00], 7);
        let same = result_file("agree-same.jsonl", &[1.02, 1.03, 1.01, 1.02], 7);
        let slow = result_file("agree-slow.jsonl", &[2.00, 2.01, 1.99, 2.00], 7);
        let noisy = result_file("agree-noisy.jsonl", &[0.80, 3.20, 1.00, 2.40], 7);
        let other = result_file("agree-other.jsonl", &[1.00, 1.01, 0.99, 1.00], 8);
        let agree = |a: &str, b: &str| agree(&[a.to_owned(), b.to_owned()]).unwrap();
        assert!(agree(&base, &same), "2 % slower is inside every bound");
        assert!(!agree(&base, &slow), "twice as slow is worse");
        assert!(
            agree(&base, &noisy),
            "a spread wider than the bound is unresolved, not worse"
        );
        assert!(
            !agree(&base, &other),
            "a digest that does not repeat differs"
        );
        assert!(super::agree(std::slice::from_ref(&base)).is_err());
        for path in [base, same, slow, noisy, other] {
            std::fs::remove_file(path).unwrap();
        }
    }
}
