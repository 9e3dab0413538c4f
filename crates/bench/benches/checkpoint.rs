//! Checkpoint durability bench behind `BENCH_checkpoint.json`.
//!
//! Runs a multi-day tracker deployment at 10k machines with per-day
//! checkpointing, then measures the two recovery-path costs in steady
//! state: save latency (serialize → temp → fsync → rename → prune) and
//! restore latency (`Tracker::resume` from the newest generation),
//! together with on-disk generation size and [`segugio_alloc_probe`]
//! counters per phase. A final parity pass re-saves the resumed tracker
//! and asserts the bytes match the generation it was restored from —
//! the bit-for-bit recovery contract, checked here at bench scale.
//!
//! Prints the JSON recorded in `BENCH_checkpoint.json`; set
//! `SEGUGIO_BENCH_OUT` to also write it to a file.
//! `SEGUGIO_BENCH_SCALE=ci` runs a reduced population. The checked-in
//! ceilings live in `crates/bench/checkpoint-ceiling.toml`; the run
//! fails if the newest generation's on-disk bytes or the per-iteration
//! save/restore allocation counts exceed the mode's ceilings, and if a
//! ceiling is missing or not a plain integer.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use segugio_alloc_probe::{measure, CountingAlloc, PhaseCounts};
use segugio_bench::CeilingSection;
use segugio_core::{Tracker, TrackerConfig};
use segugio_traffic::{DayTraffic, IspConfig, IspNetwork};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Checkpoint generations retained, as in the chaos suite.
const KEEP: usize = 3;
/// Steady-state save iterations (each is a full atomic write + prune).
const SAVE_ITERS: u32 = 16;
/// Steady-state restore iterations (each parses the newest generation).
const RESTORE_ITERS: u32 = 16;

/// A scratch directory under the system temp dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("segugio-bench-ckpt-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let ci = std::env::var("SEGUGIO_BENCH_SCALE").is_ok_and(|s| s == "ci");
    let mode = if ci { "ci" } else { "full" };
    let (isp_cfg, days) = if ci {
        (IspConfig::small(83), 4u32)
    } else {
        (
            IspConfig {
                name: "checkpoint-10k".to_owned(),
                machines: 10_000,
                benign_e2lds: 4_000,
                tail_pool: 60_000,
                ..IspConfig::small(83)
            },
            6u32,
        )
    };
    let machines = isp_cfg.machines;
    let mut config = TrackerConfig {
        // The chaos suite's deployment FP budget: small populations must
        // still seed both classes so every day trains and checkpoints.
        target_fpr: 0.02,
        ..TrackerConfig::default()
    };
    // One worker: exact single-thread phase attribution.
    config.segugio.parallelism = Some(1);

    let scratch = ScratchDir::new(mode);
    let dir = scratch.path().join("generations");

    let mut phases: Vec<(&'static str, u128, PhaseCounts)> = Vec::new();
    let bracket = |name: &'static str, phases: &mut Vec<_>, f: &mut dyn FnMut()| {
        let t = Instant::now();
        let ((), c) = measure(f);
        let wall = t.elapsed().as_millis();
        eprintln!(
            "phase {name}: {wall} ms, {} allocs, peak {} KiB",
            c.allocs,
            c.peak_bytes >> 10
        );
        phases.push((name, wall, c));
    };

    // --- World build + history warm-up. ---
    let mut isp = None;
    bracket("world_build", &mut phases, &mut || {
        let mut w = IspNetwork::new(isp_cfg.clone());
        w.warm_up(16);
        isp = Some(w);
    });
    let mut isp = isp.expect("world_build phase ran");

    // --- Deployment: process each day, checkpointing at the real
    //     per-day cadence (serialize + atomic write + prune). ---
    let mut tracker = Tracker::new();
    bracket("deploy", &mut phases, &mut || {
        for _ in 0..days {
            let traffic: DayTraffic = isp.next_day();
            let input = segugio_core::SnapshotInput {
                day: traffic.day,
                queries: &traffic.queries,
                resolutions: &traffic.resolutions,
                table: isp.table(),
                pdns: isp.pdns(),
                blacklist: isp.commercial_blacklist(),
                whitelist: isp.whitelist(),
                hidden: None,
            };
            let report = tracker
                .process_day(&input, isp.activity(), &config)
                .expect("bench day processes");
            std::hint::black_box(report.threshold);
            tracker
                .save_checkpoint(&dir, KEEP)
                .expect("per-day checkpoint");
        }
    });
    let last_day = tracker.last_day().expect("deployment processed days");
    let newest = dir.join(format!("checkpoint-{}.seg", last_day.0));

    // --- Steady-state save: repeated full checkpoint writes of the
    //     final day's state (same generation, overwritten atomically). ---
    bracket("save", &mut phases, &mut || {
        for _ in 0..SAVE_ITERS {
            let path = tracker
                .save_checkpoint(&dir, KEEP)
                .expect("steady-state save");
            std::hint::black_box(&path);
        }
    });
    let save_counts = phases.last().expect("save phase recorded").2;

    // --- Steady-state restore: resume from the newest generation. ---
    bracket("restore", &mut phases, &mut || {
        for _ in 0..RESTORE_ITERS {
            let resumed = Tracker::resume(&dir).expect("steady-state restore");
            std::hint::black_box(resumed.days_processed());
        }
    });
    let restore_counts = phases.last().expect("restore phase recorded").2;

    // --- Recovery parity: a resumed tracker re-saves bit-for-bit. ---
    let resumed = Tracker::resume(&dir).expect("parity restore");
    assert_eq!(resumed.last_day(), tracker.last_day());
    assert_eq!(resumed.days_processed(), tracker.days_processed());
    let parity_dir = scratch.path().join("parity");
    let resaved = resumed
        .save_checkpoint(&parity_dir, 1)
        .expect("parity re-save");
    assert_eq!(
        fs::read(&resaved).expect("read re-saved generation"),
        fs::read(&newest).expect("read newest generation"),
        "a resumed tracker must re-serialize bit-for-bit"
    );

    let checkpoint_bytes = fs::metadata(&newest).expect("newest generation").len();
    let dir_bytes: u64 = fs::read_dir(&dir)
        .expect("list generations")
        .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
        .sum();
    let save_allocs_per_iter = save_counts.allocs.div_ceil(SAVE_ITERS as u64);
    let restore_allocs_per_iter = restore_counts.allocs.div_ceil(RESTORE_ITERS as u64);

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
        "{{\n  \"mode\": \"{mode}\",\n  \"machines\": {machines},\n  \"days\": {days},\n  \
         \"keep_generations\": {KEEP},\n  \"save_iters\": {SAVE_ITERS},\n  \
         \"restore_iters\": {RESTORE_ITERS},\n  \"checkpoint_bytes\": {checkpoint_bytes},\n  \
         \"dir_bytes\": {dir_bytes},\n  \"save_allocs_per_iter\": {save_allocs_per_iter},\n  \
         \"restore_allocs_per_iter\": {restore_allocs_per_iter},\n  \
         \"phases\": {{\n{body}\n  }}\n}}"
    );
    println!("{json}");
    if let Ok(path) = std::env::var("SEGUGIO_BENCH_OUT") {
        fs::write(&path, format!("{json}\n")).expect("write SEGUGIO_BENCH_OUT");
    }

    // --- Enforce the checked-in shrink-only ceilings. ---
    let ceiling_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("checkpoint-ceiling.toml");
    for (section, value) in [
        ("checkpoint_bytes", checkpoint_bytes),
        ("save_allocs", save_allocs_per_iter),
        ("restore_allocs", restore_allocs_per_iter),
    ] {
        let ceiling = CeilingSection::read(&ceiling_path, section)
            .and_then(|ceilings| ceilings.check(mode, value))
            .unwrap_or_else(|e| panic!("{e}"));
        eprintln!("{section} {value} within `{mode}` ceiling {ceiling}");
    }
}
