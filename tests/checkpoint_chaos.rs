//! Kill-resume parity: a deployment killed at *every* injected crash
//! point and resumed from its checkpoints produces a `DayReport` stream
//! bit-for-bit identical to the uninterrupted run — across 3 seeds and
//! scoring widths 1/2/4. Corrupted generations (torn tail, bit flip,
//! truncation, deletion — the `FaultInjector`'s checkpoint fault kinds)
//! degrade to an older generation or a from-scratch rebuild with typed
//! `Degradation` records, and never panic.
#![expect(
    clippy::disallowed_methods,
    reason = "tests plant torn and hostile files on purpose"
)]
#![expect(
    clippy::disallowed_types,
    reason = "a temp-dir name counter; no result depends on which test draws which number"
)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use segugio_core::{
    write_atomic_with_kill, DayReport, Degradation, SnapshotInput, Tracker, TrackerConfig,
    WriteOutcome,
};
use segugio_model::Day;
use segugio_traffic::{
    CheckpointFault, DayTraffic, FaultConfig, FaultInjector, IspConfig, IspNetwork,
};

/// Chaos seeds used by this suite and by the CI `chaos` job. Keep at
/// least three.
const CHAOS_SEEDS: [u64; 3] = [101, 202, 303];
/// Scoring widths the parity contract is checked at.
const WIDTHS: [usize; 3] = [1, 2, 4];
/// Deployment length, in days.
const DAYS: usize = 10;
/// Checkpoint generations retained, so fallback always has an older one.
const KEEP: usize = 3;

/// A unique scratch directory per use, cleaned up on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("segugio-chaos-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
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

fn tracker_config(width: usize) -> TrackerConfig {
    let mut config = TrackerConfig {
        target_fpr: 0.02,
        ..TrackerConfig::default()
    };
    config.segugio.parallelism = Some(width);
    config
}

fn input_for<'a>(isp: &'a IspNetwork, traffic: &'a DayTraffic) -> SnapshotInput<'a> {
    SnapshotInput {
        day: traffic.day,
        queries: &traffic.queries,
        resolutions: &traffic.resolutions,
        table: isp.table(),
        pdns: isp.pdns(),
        blacklist: isp.commercial_blacklist(),
        whitelist: isp.whitelist(),
        hidden: None,
    }
}

/// The full on-disk state of a checkpoint directory, filename → bytes.
fn dir_listing(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("list checkpoint dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, fs::read(entry.path()).expect("read generation"));
    }
    out
}

/// Recreates a recorded checkpoint directory state in a fresh location.
fn materialize(listing: &BTreeMap<String, Vec<u8>>, dir: &Path) {
    for (name, bytes) in listing {
        fs::write(dir.join(name), bytes).expect("materialize generation");
    }
}

/// The uninterrupted reference run: every day is processed and
/// checkpointed, and the exact on-disk state after each day's save is
/// recorded so any crash instant can be reconstructed later.
struct Baseline {
    reports: Vec<DayReport>,
    /// The checkpoint document each day's save wrote.
    docs: Vec<Vec<u8>>,
    /// Checkpoint-directory contents right after each day's save+prune.
    listings: Vec<BTreeMap<String, Vec<u8>>>,
}

fn run_baseline(cfg: &IspConfig, width: usize) -> Baseline {
    let scratch = ScratchDir::new("baseline");
    let mut isp = IspNetwork::new(cfg.clone());
    isp.warm_up(16);
    let mut tracker = Tracker::new();
    let config = tracker_config(width);
    let mut baseline = Baseline {
        reports: Vec::new(),
        docs: Vec::new(),
        listings: Vec::new(),
    };
    for _ in 0..DAYS {
        let traffic = isp.next_day();
        let input = input_for(&isp, &traffic);
        let report = tracker
            .process_day(&input, isp.activity(), &config)
            .expect("clean warmed-up fixture seeds both classes");
        baseline.reports.push(report);
        tracker
            .save_checkpoint(scratch.path(), KEEP)
            .expect("checkpoint save");
        baseline.docs.push(tracker.to_bytes());
        baseline.listings.push(dir_listing(scratch.path()));
    }
    baseline
}

/// Resumes from `dir` and drives the rest of the deployment: traffic is
/// regenerated from the same seed, days at or before the restored
/// `last_day` are skipped (already processed before the crash), and every
/// later day's report is returned.
fn resume_and_finish(cfg: &IspConfig, width: usize, dir: &Path) -> (Tracker, Vec<DayReport>) {
    let mut tracker = Tracker::resume(dir).expect("resume never errors on corrupt contents");
    let restored = tracker.last_day();
    let mut isp = IspNetwork::new(cfg.clone());
    isp.warm_up(16);
    let config = tracker_config(width);
    let mut reports = Vec::new();
    for _ in 0..DAYS {
        let traffic = isp.next_day();
        if restored.is_some_and(|last| traffic.day <= last) {
            continue;
        }
        let input = input_for(&isp, &traffic);
        let report = tracker
            .process_day(&input, isp.activity(), &config)
            .expect("resumed day must process");
        reports.push(report);
    }
    (tracker, reports)
}

/// Crash after each day's checkpoint committed (the phase boundary): the
/// resumed stream must continue bit-for-bit where the baseline left off.
#[test]
fn kill_at_every_day_boundary_resumes_bit_for_bit() {
    for seed in CHAOS_SEEDS {
        let cfg = IspConfig::tiny(seed);
        let reference = run_baseline(&cfg, WIDTHS[0]);
        for width in WIDTHS {
            let baseline = if width == WIDTHS[0] {
                &reference
            } else {
                // Width must not change a single reported byte.
                let other = run_baseline(&cfg, width);
                assert_eq!(
                    other.reports, reference.reports,
                    "seed {seed}: width {width} diverged from width {}",
                    WIDTHS[0]
                );
                &reference
            };
            for kill_after in 0..DAYS {
                let scratch = ScratchDir::new("boundary");
                materialize(&baseline.listings[kill_after], scratch.path());
                let (tracker, resumed) = resume_and_finish(&cfg, width, scratch.path());
                assert_eq!(
                    tracker.days_processed(),
                    DAYS,
                    "seed {seed} width {width} kill@{kill_after}: wrong day count"
                );
                assert_eq!(
                    resumed,
                    baseline.reports[kill_after + 1..],
                    "seed {seed} width {width} kill@{kill_after}: resumed stream diverged"
                );
            }
        }
    }
}

/// Crash *during* a checkpoint write, at a seeded byte offset: the torn
/// temp file is invisible to resume, the previous generation is restored
/// cleanly, and the interrupted day is replayed bit-for-bit.
#[test]
fn kill_mid_write_replays_the_interrupted_day() {
    for seed in CHAOS_SEEDS {
        let cfg = IspConfig::tiny(seed);
        let injector = FaultInjector::new(FaultConfig {
            kill_mid_checkpoint: 1.0,
            ..FaultConfig::disabled(seed)
        });
        for width in WIDTHS {
            let baseline = run_baseline(&cfg, width);
            for killed_day in 1..DAYS {
                let scratch = ScratchDir::new("midwrite");
                // On-disk state the instant the crash hit: yesterday's
                // generations, plus the torn temp of today's write.
                materialize(&baseline.listings[killed_day - 1], scratch.path());
                let day = baseline.reports[killed_day].day;
                let doc = &baseline.docs[killed_day];
                let offset = injector
                    .checkpoint_faults_for(day)
                    .kill_mid_write
                    .expect("kill probability is 1")
                    % doc.len() as u64;
                let target = scratch.path().join(format!("checkpoint-{}.seg", day.0));
                let outcome = write_atomic_with_kill(&target, doc, offset)
                    .expect("kill injection writes the tmp");
                assert_eq!(outcome, WriteOutcome::KilledMidWrite);
                assert!(!target.exists(), "the live generation must not appear");

                let (_, resumed) = resume_and_finish(&cfg, width, scratch.path());
                assert_eq!(
                    resumed,
                    baseline.reports[killed_day..],
                    "seed {seed} width {width} mid-write kill@{killed_day}: replay diverged"
                );
                assert!(
                    resumed[0].degradation == baseline.reports[killed_day].degradation,
                    "a clean fallback to yesterday's generation emits no extra records"
                );
            }
        }
    }
}

/// Every `CheckpointFault` kind applied to the newest generation: resume
/// falls back (to the older generation, or transparently replays for a
/// deleted file), emits exactly the typed records, and the rest of the
/// stream stays bit-for-bit.
#[test]
fn corrupted_newest_generation_falls_back_with_typed_records() {
    for seed in CHAOS_SEEDS {
        let cfg = IspConfig::tiny(seed);
        let baseline = run_baseline(&cfg, 1);
        let crash_after = DAYS / 2;
        let newest_day = baseline.reports[crash_after].day;
        let previous_day = baseline.reports[crash_after - 1].day;
        let injector = FaultInjector::new(FaultConfig {
            corrupt_checkpoint: 1.0,
            ..FaultConfig::disabled(seed)
        });
        let drawn = injector
            .checkpoint_faults_for(newest_day)
            .corruption
            .expect("corruption probability is 1");
        // Cover the drawn fault and every kind, with seeded offsets.
        let (offset, bit) = match drawn {
            CheckpointFault::TornTail { keep } | CheckpointFault::Truncate { keep } => (keep, 3),
            CheckpointFault::BitFlip { byte, bit } => (byte, bit),
            CheckpointFault::DeleteNewest => (12_345, 5),
        };
        let kinds = [
            CheckpointFault::TornTail { keep: offset },
            CheckpointFault::BitFlip { byte: offset, bit },
            CheckpointFault::Truncate { keep: offset },
            CheckpointFault::DeleteNewest,
        ];
        for fault in kinds {
            let scratch = ScratchDir::new("corrupt");
            materialize(&baseline.listings[crash_after], scratch.path());
            let newest = scratch
                .path()
                .join(format!("checkpoint-{}.seg", newest_day.0));
            let bytes = fs::read(&newest).expect("newest generation");
            match fault.apply(&bytes) {
                Some(damaged) => fs::write(&newest, damaged).expect("damage newest"),
                None => fs::remove_file(&newest).expect("delete newest"),
            }

            let (_, mut resumed) = resume_and_finish(&cfg, 1, scratch.path());
            assert_eq!(
                resumed.len(),
                DAYS - crash_after,
                "seed {seed} {fault:?}: the interrupted day is replayed"
            );
            if fault == CheckpointFault::DeleteNewest {
                // A deleted file is indistinguishable from never-written:
                // clean fallback, no records.
                assert_eq!(
                    resumed,
                    baseline.reports[crash_after..],
                    "seed {seed} delete: replay diverged"
                );
            } else {
                // Typed records lead the first report; everything else is
                // bit-for-bit the baseline.
                let expected = [
                    Degradation::CheckpointDiscarded { day: newest_day },
                    Degradation::RestoredFromCheckpoint { day: previous_day },
                ];
                assert_eq!(
                    &resumed[0].degradation[..2],
                    &expected,
                    "seed {seed} {fault:?}: missing typed fallback records"
                );
                let mut first = resumed[0].clone();
                first.degradation.drain(..2);
                resumed[0] = first;
                assert_eq!(
                    resumed,
                    baseline.reports[crash_after..],
                    "seed {seed} {fault:?}: stream diverged beyond the records"
                );
            }
        }
    }
}

/// When *every* generation is corrupt the tracker rebuilds from scratch:
/// all days are reprocessed, the first report carries one discard record
/// per generation, and the stream still equals the baseline bit-for-bit.
#[test]
fn all_generations_corrupt_rebuilds_from_scratch() {
    let seed = CHAOS_SEEDS[0];
    let cfg = IspConfig::tiny(seed);
    let baseline = run_baseline(&cfg, 1);
    let crash_after = DAYS / 2;
    let scratch = ScratchDir::new("total-loss");
    materialize(&baseline.listings[crash_after], scratch.path());
    let mut damaged_days = Vec::new();
    for (name, bytes) in &baseline.listings[crash_after] {
        let day: u32 = name
            .trim_start_matches("checkpoint-")
            .trim_end_matches(".seg")
            .parse()
            .expect("generation filename");
        damaged_days.push(Day(day));
        let torn = CheckpointFault::Truncate { keep: 17 }
            .apply(bytes)
            .expect("truncation keeps bytes");
        fs::write(scratch.path().join(name), torn).expect("damage generation");
    }
    damaged_days.sort_by(|a, b| b.cmp(a));

    let (tracker, mut resumed) = resume_and_finish(&cfg, 1, scratch.path());
    assert_eq!(resumed.len(), DAYS, "every day is reprocessed from scratch");
    assert_eq!(tracker.days_processed(), DAYS);
    let expected: Vec<Degradation> = damaged_days
        .iter()
        .map(|&day| Degradation::CheckpointDiscarded { day })
        .collect();
    assert_eq!(
        &resumed[0].degradation[..expected.len()],
        &expected[..],
        "one discard record per generation, newest first"
    );
    let mut first = resumed[0].clone();
    first.degradation.drain(..expected.len());
    resumed[0] = first;
    assert_eq!(
        resumed, baseline.reports,
        "the from-scratch rebuild equals the baseline bit-for-bit"
    );
}
