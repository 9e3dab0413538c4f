//! `logs-cron` traced: the ingest layer called directly on the exported
//! log, the ingested days through the traced tracking loop, and the real
//! `segugio` binary run checkpointed and uncheckpointed, which must agree.

use std::fs::File;

use segugio_benchmark::logs::{run_track, segugio_bin, LogFiles, WorkDir};
use segugio_benchmark::report::Outcome;
use segugio_benchmark::span::Recorder;
use segugio_benchmark::workload::{median, LogsSpec};
use segugio_ingest::LogCollector;
use segugio_model::{Blacklist, Day, Whitelist};
use segugio_traffic::DayTraffic;

use crate::tracked::{Feeds, TrackedLoop};

pub fn trace_logs(
    spec: &LogsSpec,
    rec: &mut Recorder,
    outcome: &mut Outcome,
) -> std::io::Result<()> {
    let bin = segugio_bin()?;
    let work = WorkDir::create("trace")?;
    let (files, world) = LogFiles::export(spec, work.path())?;
    outcome.set_metric("traffic.world_build_s", files.world_build_s);
    outcome.set_metric("traffic.day_gen_s", median(&files.day_gen_s));

    // The ingest layer, as `segugio track` drives it.
    let mut collector = LogCollector::new();
    files.append_last_day()?;
    let log = File::open(&files.log)?;
    outcome.attempted += 1;
    let (ingested, s_read) = rec.span("ingest.read", None, false, || collector.ingest_reader(log));
    let lines = match ingested {
        Ok(lines) => lines as u64,
        Err(error) => {
            outcome.failed += 1;
            eprintln!("ingest failed: {error}");
            return Ok(());
        }
    };
    rec.set_items(s_read, lines);
    let read = rec.get(s_read).clone();
    outcome.set_metric("ingest.read_s", read.seconds());
    outcome.set_metric("ingest.lines", lines as f64);
    outcome.set_metric("ingest.lines_per_s", lines as f64 / read.seconds());
    // `ingest_reader` stops at the first damaged line: success means none.
    outcome.set_metric("ingest.rejected_lines", (files.all_lines - lines) as f64);
    outcome.set_metric("ingest.allocs_per_line", read.allocs as f64 / lines as f64);
    outcome.set_metric("ingest.read.allocs", read.allocs as f64);
    outcome.set_metric("ingest.read.peak_bytes", read.peak_bytes as f64);

    let mut days: Vec<DayTraffic> = Vec::new();
    for day in collector.days() {
        let (ingested, id) = rec.span("ingest.day_materialize", None, false, || collector.day(day));
        let ingested = ingested.unwrap_or_default();
        rec.set_items(id, ingested.queries.len() as u64);
        days.push(DayTraffic {
            day,
            queries: ingested.queries,
            resolutions: ingested.resolutions,
        });
    }
    let materialize_s: f64 = rec
        .seconds_by_day("ingest.day_materialize")
        .iter()
        .map(|d| d.1)
        .sum();
    outcome.set_metric("ingest.day_materialize_s", materialize_s);

    // The seed lists, moved onto the collector's ids by name — what the
    // binary does with its sidecar files.
    let mut blacklist = Blacklist::new();
    for (domain, added) in world.commercial_blacklist().iter() {
        if let Some(id) = collector.table().get(world.table().name(domain)) {
            blacklist.insert(id, added);
        }
    }
    let mut whitelist = Whitelist::new();
    for e2ld in world.whitelist().iter() {
        if let Some(id) = collector.table().e2ld_id(world.table().e2ld_str(e2ld)) {
            whitelist.insert(id);
        }
    }
    let feeds = Feeds {
        table: collector.table(),
        pdns: collector.pdns(),
        activity: collector.activity(),
        blacklist: &blacklist,
        whitelist: &whitelist,
        truth: None,
    };
    let mut tracked = TrackedLoop::new();
    for (i, day) in days.iter().enumerate() {
        tracked.day(rec, outcome, &feeds, day, i + 1 == days.len());
    }
    tracked.checkpoint(rec, outcome, &work.path().join("checkpoints-inproc"));
    tracked.finish(rec, outcome);

    // The binary: backfill, morning, and the whole log without checkpoints.
    let checkpoints = work.path().join("checkpoints");
    files.truncate_to_prefix()?;
    let backfill = run_track(&bin, &files, Some(&checkpoints))?;
    files.append_last_day()?;
    let morning = run_track(&bin, &files, Some(&checkpoints))?;
    let whole = run_track(&bin, &files, None)?;
    outcome.attempted += 3;
    outcome.failed += [&backfill, &morning, &whole]
        .iter()
        .filter(|r| !r.success)
        .count() as u64;
    let last_day: Day = days.last().map_or(Day(0), |d| d.day);
    let mut resumed_lines = backfill.day_lines();
    resumed_lines.extend(morning.day_lines());
    outcome.check(
        "resumed-run-equals-uncheckpointed-run",
        morning.summary().starts_with("tracked 1 day(s)")
            && morning.summary().split_once(':').map(|s| s.1)
                == whole.summary().split_once(':').map(|s| s.1)
            && resumed_lines == whole.day_lines()
            && !whole.day_lines().is_empty(),
        format!("{last_day}: {}", morning.summary()),
    );
    outcome.note_num("backfill_wall_s", backfill.wall_s);
    outcome.note_num("morning_wall_s", morning.wall_s);
    outcome.note_num("uncheckpointed_wall_s", whole.wall_s);
    outcome.note_num("ingest_share_of_morning", read.seconds() / morning.wall_s);
    Ok(())
}
