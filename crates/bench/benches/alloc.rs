//! Steady-state allocation-count bench behind `BENCH_alloc.json`.
//!
//! Installs [`segugio_alloc_probe::CountingAlloc`] as the global
//! allocator, runs one warm-up ISP day through the tracker's pipeline,
//! then brackets each phase of the *second* (steady-state) day with
//! [`segugio_alloc_probe::measure`]:
//!
//! - **snapshot_build**: [`DaySnapshot::build`] — graph build, abuse index
//!   over the pDNS window, labeling and pruning;
//! - **features**: the one pass measuring every domain's 11 features —
//!   no row is carried over from the day before;
//! - **train**: [`Segugio::train_prepared`] on the rows `features`
//!   measured — the forest fit, as the tracker pays it;
//! - **calibrate**: [`calibrate`] over the training scores;
//! - **score**: the reused-[`ScoreBuffer`] scoring hot path, which must
//!   perform **zero** heap operations once warm;
//! - **ingest_warm**: the same day exported as log text and read by a
//!   [`LogCollector`] that has seen it before — every name, client and
//!   answer is known, so the line path may grow its buffers and nothing
//!   else. A per-line allocation creeping back shows here as tens of
//!   thousands, not tens;
//! - **ingest_resume**: what a morning run pays before its first new
//!   line — that collector's saved state decoded into a fresh one, the
//!   log checked against it, and a tail of no lines read. The count
//!   follows the names and history the state holds, never the lines of
//!   the log behind it.
//!
//! Prints the JSON recorded in `BENCH_alloc.json`; set `SEGUGIO_BENCH_OUT`
//! to also write it to a file and `SEGUGIO_BENCH_SCALE=ci` for the reduced
//! population CI runs at. Scoring parallelism is pinned to one thread so
//! every count is exactly attributable to its phase.
//!
//! The run then checks itself against `crates/bench/alloc-budget.toml`
//! and fails on a phase over its ceiling, a measured phase with no entry
//! (unbudgeted), an entry naming no measured phase (stale), or a missing
//! budget file.

use std::collections::BTreeMap;
use std::path::Path;

use segugio_alloc_probe::{measure, CountingAlloc, PhaseCounts};
use segugio_bench::parse_section;
use segugio_core::{
    calibrate, measure_day, DaySnapshot, ScoreBuffer, Segugio, SegugioConfig, SnapshotInput,
};
use segugio_ingest::{export_day, LogCollector, LogPosition};
use segugio_traffic::{IspConfig, IspNetwork};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The tracker's default deployment FP budget (`TrackerConfig::default`).
const TARGET_FPR: f64 = 0.005;

fn main() {
    let ci = std::env::var("SEGUGIO_BENCH_SCALE").is_ok_and(|s| s == "ci");
    let machines = if ci { 2_000 } else { 10_000 };
    let config = SegugioConfig {
        // One worker: exact single-thread phase attribution, and the
        // serial scoring path is bit-for-bit the parallel one.
        parallelism: Some(1),
        ..SegugioConfig::default()
    };

    let isp_cfg = IspConfig {
        name: format!("alloc-{machines}"),
        machines,
        ..IspConfig::small(77)
    };
    let mut isp = IspNetwork::new(isp_cfg);
    isp.warm_up(15);

    let mut buf = ScoreBuffer::new();

    // --- Warm day: run every phase once so the score buffer is at
    //     steady-state capacity. ---
    {
        let day = isp.next_day();
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
        let snap = DaySnapshot::build(&input, &config);
        let features = measure_day(
            &snap,
            isp.activity(),
            config.features,
            config.parallelism,
            |_| true,
        );
        let model = Segugio::train_prepared(&features.train, &config)
            .expect("warmed-up fixture seeds both classes");
        std::hint::black_box(calibrate(&model, &features.train, TARGET_FPR, &mut buf));
        model.score_rows_with(&features.unknown_ids, &features.unknown_rows, &mut buf);
    }

    // --- Steady-state day: bracket each phase with the probe. ---
    let mut phases: BTreeMap<&'static str, PhaseCounts> = BTreeMap::new();
    let day = isp.next_day();
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
    let (snap, c) = measure(|| DaySnapshot::build(&input, &config));
    phases.insert("snapshot_build", c);

    let (features, c) = measure(|| {
        measure_day(
            &snap,
            isp.activity(),
            config.features,
            config.parallelism,
            |_| true,
        )
    });
    phases.insert("features", c);
    assert!(
        !features.unknown_rows.is_empty(),
        "steady-state day must surface unknown domains"
    );

    let (model, c) = measure(|| {
        Segugio::train_prepared(&features.train, &config)
            .expect("warmed-up fixture seeds both classes")
    });
    phases.insert("train", c);

    let (threshold, c) = measure(|| calibrate(&model, &features.train, TARGET_FPR, &mut buf));
    phases.insert("calibrate", c);
    std::hint::black_box(threshold);

    // One warm pass sizes the buffer to this day's row count; the second,
    // measured pass is the steady state the budget pins at zero.
    model.score_rows_with(&features.unknown_ids, &features.unknown_rows, &mut buf);
    let (n, c) = measure(|| {
        model.score_rows_with(&features.unknown_ids, &features.unknown_rows, &mut buf);
        buf.detections().len()
    });
    phases.insert("score", c);
    std::hint::black_box(n);
    assert_eq!(
        (c.allocs, c.frees),
        (0, 0),
        "steady-state scoring must not touch the allocator: {c:?}"
    );

    // The day as a resolver would have logged it, read twice: the first
    // pass interns and records, the measured one only recognises.
    let log = export_day(isp.table(), day.day.0, &day.queries, &day.resolutions);
    let mut log = std::io::Cursor::new(log.as_bytes());
    let mut collector = LogCollector::new();
    let lines = collector
        .ingest_reader_from(&mut log, LogPosition::START)
        .expect("exported log is well-formed");
    let (again, c) = measure(|| collector.ingest_reader_from(&mut log, LogPosition::START));
    phases.insert("ingest_warm", c);
    assert_eq!(again.expect("exported log is well-formed"), lines);
    assert_eq!(lines, day.queries.len());

    // The next morning, nothing appended yet: decode, check, seek, read.
    let state = collector.encode_state();
    let (read, c) = measure(|| {
        let mut resumed = LogCollector::decode_state(&state).expect("own state decodes");
        let (start, unchanged) = resumed
            .resume_log(&mut log, Some(day.day))
            .expect("an in-memory log reads");
        assert!(unchanged, "the log is the one the state was taken from");
        let read = resumed.ingest_reader_from(&mut log, start);
        // Dropped outside the region: the phase is the restore.
        (resumed, read)
    });
    phases.insert("ingest_resume", c);
    assert_eq!(read.1.expect("nothing left to misparse"), 0);
    assert_eq!(read.0.table().len(), collector.table().len());

    // --- Report. ---
    let mut body = String::new();
    for (i, (name, c)) in phases.iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        body.push_str(&format!(
            "{sep}    \"{name}\": {{\"allocs\": {}, \"frees\": {}, \"bytes\": {}, \"peak_bytes\": {}}}",
            c.allocs, c.frees, c.bytes, c.peak_bytes
        ));
    }
    let json = format!("{{\n  \"machines\": {machines},\n  \"phases\": {{\n{body}\n  }}\n}}");
    println!("{json}");
    if let Ok(path) = std::env::var("SEGUGIO_BENCH_OUT") {
        std::fs::write(&path, format!("{json}\n")).expect("write SEGUGIO_BENCH_OUT");
    }

    // --- Enforce the checked-in budget: every measured phase within its
    //     ceiling, every phase budgeted, every entry a measured phase. ---
    let budget_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("alloc-budget.toml");
    let text = std::fs::read_to_string(&budget_path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", budget_path.display()));
    let budget = parse_section(&text, "alloc-budget");
    let mut drift = Vec::new();
    for (name, c) in &phases {
        match budget.get(*name) {
            Some(&ceiling) if c.allocs > ceiling => drift.push(format!(
                "phase `{name}`: {} allocations exceed the budgeted {ceiling}",
                c.allocs
            )),
            Some(_) => {}
            None => drift.push(format!("phase `{name}` is measured but unbudgeted")),
        }
    }
    for name in budget.keys() {
        if !phases.contains_key(name.as_str()) {
            drift.push(format!("budget entry `{name}` is stale: no such phase"));
        }
    }
    assert!(
        drift.is_empty(),
        "alloc budget drift against {}:\n  {}",
        budget_path.display(),
        drift.join("\n  ")
    );
    eprintln!("alloc budget respected: {}", budget_path.display());
}
