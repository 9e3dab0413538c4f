//! Paper-scale day bench behind `BENCH_scale.json`.
//!
//! Runs ONE full ISP day at the paper's deployment scale (1M machines,
//! tens of millions of query events) end to end — streamed generation →
//! chunk-run accumulation → snapshot (the counting-sort CSR build that
//! labels and prunes as it goes, and the abuse index) → features → train
//! → calibrate → score — and records per-phase wall time
//! plus [`segugio_alloc_probe`] counters. `peak_bytes` (the high-water
//! mark of live heap bytes) is the RSS proxy: the point of the chunked
//! pipeline is that it is bounded by the configured run capacity and the
//! CSR output, not by the day's raw query-event count.
//!
//! Prints the JSON recorded in `BENCH_scale.json`; set `SEGUGIO_BENCH_OUT`
//! to also write it to a file. `SEGUGIO_BENCH_SCALE=ci` runs a reduced
//! population (CI gates the same memory ceiling at that scale). The
//! checked-in ceilings live in `crates/bench/scale-ceiling.toml`; the run
//! fails if its overall peak exceeds the mode's ceiling, and if that
//! ceiling is missing or not a plain integer.

use std::path::Path;
use std::time::Instant;

use segugio_alloc_probe::{measure, CountingAlloc, PhaseCounts};
use segugio_bench::CeilingSection;
use segugio_core::{
    calibrate, measure_day, DaySnapshot, ScoreBuffer, Segugio, SegugioConfig, SnapshotInput,
};
use segugio_graph::{EdgeRuns, DEFAULT_RUN_CAPACITY};
use segugio_traffic::{IspConfig, IspNetwork};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The tracker's default deployment FP budget (`TrackerConfig::default`).
const TARGET_FPR: f64 = 0.005;

/// Machines generated per streamed chunk: large enough to amortize the
/// per-chunk flush, small enough that a chunk is megabytes, not gigabytes.
const CHUNK_MACHINES: usize = 16_384;

fn main() {
    let ci = std::env::var("SEGUGIO_BENCH_SCALE").is_ok_and(|s| s == "ci");
    let mode = if ci { "ci" } else { "full" };
    let isp_cfg = if ci {
        // Same proportions as the paper preset, shrunk so the job fits a
        // CI runner's minutes; the memory ceiling gates at this scale.
        IspConfig {
            name: "scale-ci".to_owned(),
            machines: 50_000,
            benign_e2lds: 12_000,
            tail_pool: 100_000,
            ..IspConfig::paper(83)
        }
    } else {
        IspConfig::paper(83)
    };
    let machines = isp_cfg.machines;
    // The CI day (2.0M observations) would fit one default run; a smaller
    // capacity makes it seal and spill 7 runs, as the full day spills 9.
    let run_capacity = if ci { 256 << 10 } else { DEFAULT_RUN_CAPACITY };
    let config = SegugioConfig {
        // One worker: exact single-thread phase attribution.
        parallelism: Some(1),
        ..SegugioConfig::default()
    };

    let mut phases: Vec<(&'static str, u128, PhaseCounts)> = Vec::new();
    let bracket = |name: &'static str, phases: &mut Vec<_>, f: &mut dyn FnMut()| {
        let t = Instant::now();
        let ((), c) = measure(f);
        let wall = t.elapsed().as_millis();
        eprintln!(
            "phase {name}: {wall} ms, {} allocs, peak {} MiB",
            c.allocs,
            c.peak_bytes >> 20
        );
        phases.push((name, wall, c));
    };

    // --- World build + history warm-up (part of the day's real cost:
    //     the generator's state is the stand-in for the ISP's feed). ---
    let mut isp = None;
    bracket("world_build", &mut phases, &mut || {
        let mut w = IspNetwork::new(isp_cfg.clone());
        w.warm_up(15);
        isp = Some(w);
    });
    let mut isp = isp.expect("world_build phase ran");

    // --- Streamed generation into chunk runs: no full query-event buffer
    //     ever exists; sealed runs spill to the scratch file. ---
    let mut runs = EdgeRuns::with_run_capacity(run_capacity);
    let mut day_out = None;
    bracket("generate_ingest", &mut phases, &mut || {
        let (day, resolutions) = isp.next_day_streamed(CHUNK_MACHINES, |chunk| {
            for &(m, d) in chunk {
                runs.push(m, d);
            }
        });
        day_out = Some((day, resolutions));
    });
    let (day, resolutions) = day_out.expect("generate_ingest phase ran");
    let observations = runs.observations();
    let (spilled_runs, spilled_bytes) = (runs.spilled_runs(), runs.spilled_bytes());
    assert!(
        spilled_runs > 0,
        "the day must take the spill route: {observations} observations at {run_capacity} pairs per run"
    );

    // --- The snapshot, as the day builds it: the CSR grouped from the
    //     runs, labeled and pruned in the same passes, and the abuse
    //     index. ---
    let input = SnapshotInput {
        day,
        queries: &[],
        resolutions: &resolutions,
        table: isp.table(),
        pdns: isp.pdns(),
        blacklist: isp.commercial_blacklist(),
        whitelist: isp.whitelist(),
        hidden: None,
    };
    let mut snap_out = None;
    bracket("snapshot", &mut phases, &mut || {
        let snap =
            DaySnapshot::build_from_runs(&input, &runs, &config).expect("scratch-file replay");
        snap_out = Some(snap);
    });
    let snap = snap_out.expect("snapshot phase ran");
    let (unpruned_machines, _, unpruned_edges) = snap.unpruned_counts;
    drop(runs); // the runs (and their scratch file) are dead past the snapshot

    // --- Features, training, calibration, scoring (alloc.rs phases). ---
    let mut features_out = None;
    bracket("features", &mut phases, &mut || {
        features_out = Some(measure_day(
            &snap,
            isp.activity(),
            config.features,
            config.parallelism,
            |_| true,
        ));
    });
    let features = features_out.expect("features phase ran");
    assert!(
        !features.unknown_rows.is_empty(),
        "a paper-scale day must surface unknown domains"
    );

    let mut trained = None;
    bracket("train", &mut phases, &mut || {
        trained = Some(
            Segugio::train_prepared(&features.train, &config)
                .expect("paper-scale day seeds both classes"),
        );
    });
    let model = trained.expect("train phase ran");

    let mut buf = ScoreBuffer::new();
    bracket("calibrate", &mut phases, &mut || {
        std::hint::black_box(calibrate(&model, &features.train, TARGET_FPR, &mut buf));
    });

    // One warm pass sizes the buffer; the measured pass is steady state.
    model.score_rows_with(&features.unknown_ids, &features.unknown_rows, &mut buf);
    bracket("score", &mut phases, &mut || {
        model.score_rows_with(&features.unknown_ids, &features.unknown_rows, &mut buf);
        std::hint::black_box(buf.detections().len());
    });
    let score_counts = phases.last().expect("score phase recorded").2;
    assert_eq!(
        (score_counts.allocs, score_counts.frees),
        (0, 0),
        "steady-state scoring must not touch the allocator: {score_counts:?}"
    );

    let overall_peak = phases
        .iter()
        .map(|&(_, _, c)| c.peak_bytes)
        .max()
        .unwrap_or(0);

    // --- Report. ---
    let mut body = String::new();
    for (i, (name, wall_ms, c)) in phases.iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        body.push_str(&format!(
            "{sep}    \"{name}\": {{\"wall_ms\": {wall_ms}, \"allocs\": {}, \"frees\": {}, \"bytes\": {}, \"peak_bytes\": {}}}",
            c.allocs, c.frees, c.bytes, c.peak_bytes
        ));
    }
    let json = format!(
        "{{\n  \"mode\": \"{mode}\",\n  \"machines\": {machines},\n  \
         \"run_capacity_pairs\": {run_capacity},\n  \"observations\": {observations},\n  \
         \"spilled_runs\": {spilled_runs},\n  \"spilled_bytes\": {spilled_bytes},\n  \
         \"unpruned_machines\": {unpruned_machines},\n  \
         \"unpruned_edges\": {unpruned_edges},\n  \"peak_bytes\": {overall_peak},\n  \
         \"phases\": {{\n{body}\n  }}\n}}"
    );
    println!("{json}");
    if let Ok(path) = std::env::var("SEGUGIO_BENCH_OUT") {
        std::fs::write(&path, format!("{json}\n")).expect("write SEGUGIO_BENCH_OUT");
    }

    if !ci {
        assert!(
            machines >= 1_000_000,
            "full mode must run the paper-scale (>=1M machine) day"
        );
    }

    // --- Enforce the checked-in peak-memory ceiling. ---
    let ceiling_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scale-ceiling.toml");
    let ceiling = CeilingSection::read(&ceiling_path, "peak_bytes")
        .and_then(|ceilings| ceilings.check(mode, overall_peak))
        .unwrap_or_else(|e| panic!("peak live bytes: {e}"));
    eprintln!(
        "peak {overall_peak} bytes within `{mode}` ceiling {ceiling} ({})",
        ceiling_path.display()
    );
}
