//! End-to-end exit-code contract for the `segugio` binary.
//!
//! The CLI documents a table mapping failure kinds to distinct exit codes
//! (0 success, 2 usage, 3 I/O, 4 ingest, 5 model parse, 6 data,
//! 7 checkpoint). Deployment scripts branch on these, so each row is
//! pinned here by driving the real binary with `CARGO_BIN_EXE_segugio`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU32, Ordering};

/// Unique scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("segugio-cli-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).expect("creating scratch dir");
        ScratchDir(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn segugio(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_segugio"))
        .args(args)
        .output()
        .expect("running the segugio binary")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("binary exited with a code")
}

/// Simulates a small corpus into `dir` and returns the log-file path; the
/// `.blacklist` / `.whitelist` sidecars sit next to it.
fn simulate_corpus(dir: &ScratchDir, days: u32) -> PathBuf {
    let logs = dir.file("corpus.tsv");
    let out = segugio(&[
        "simulate",
        "--out",
        logs.to_str().unwrap(),
        "--days",
        &days.to_string(),
        "--seed",
        "7",
    ]);
    assert_eq!(exit_code(&out), 0, "simulate failed: {out:?}");
    logs
}

/// Track flags for a simulated corpus (logs + sidecars).
fn track_args(logs: &Path) -> Vec<String> {
    let logs = logs.to_str().unwrap();
    vec![
        "track".to_owned(),
        "--logs".to_owned(),
        logs.to_owned(),
        "--blacklist".to_owned(),
        format!("{logs}.blacklist"),
        "--whitelist".to_owned(),
        format!("{logs}.whitelist"),
    ]
}

#[test]
fn help_and_success_exit_zero() {
    let out = segugio(&["--help"]);
    assert_eq!(exit_code(&out), 0);
    let usage = String::from_utf8_lossy(&out.stdout);
    assert!(
        usage.contains("--checkpoint-dir"),
        "usage documents the flag"
    );
}

#[test]
fn usage_errors_exit_2() {
    let out = segugio(&["frobnicate"]);
    assert_eq!(exit_code(&out), 2, "unknown command");

    let out = segugio(&["track", "--no-such-flag", "x"]);
    assert_eq!(exit_code(&out), 2, "unknown flag");

    let out = segugio(&["experiment", "no-such-experiment"]);
    assert_eq!(exit_code(&out), 2, "unknown experiment");
}

#[test]
fn io_errors_exit_3() {
    let scratch = ScratchDir::new("io");
    let missing = scratch.file("does-not-exist.tsv");
    // Sidecar paths don't matter: opening the log file fails first.
    let args = track_args(&missing);
    let out = segugio(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(exit_code(&out), 3, "missing log file: {out:?}");
}

#[test]
fn ingest_errors_exit_4() {
    let scratch = ScratchDir::new("ingest");
    let logs = scratch.file("garbage.tsv");
    fs::write(&logs, "this is not\ta resolver log\nat all\n").unwrap();
    fs::write(scratch.file("garbage.tsv.blacklist"), "").unwrap();
    fs::write(scratch.file("garbage.tsv.whitelist"), "").unwrap();
    let args = track_args(&logs);
    let out = segugio(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(exit_code(&out), 4, "malformed logs: {out:?}");
}

#[test]
fn model_parse_errors_exit_5() {
    let scratch = ScratchDir::new("model");
    let logs = simulate_corpus(&scratch, 1);
    let model = scratch.file("corrupt.model");
    fs::write(&model, "segugio-model v999 nonsense\n").unwrap();
    let logs_s = logs.to_str().unwrap();
    let out = segugio(&[
        "detect",
        "--logs",
        logs_s,
        "--blacklist",
        &format!("{logs_s}.blacklist"),
        "--whitelist",
        &format!("{logs_s}.whitelist"),
        "--model",
        model.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 5, "corrupt model file: {out:?}");
}

#[test]
fn data_errors_exit_6() {
    let scratch = ScratchDir::new("data");
    let logs = scratch.file("empty.tsv");
    fs::write(&logs, "").unwrap();
    fs::write(scratch.file("empty.tsv.blacklist"), "").unwrap();
    fs::write(scratch.file("empty.tsv.whitelist"), "").unwrap();
    let args = track_args(&logs);
    let out = segugio(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(exit_code(&out), 6, "empty logs have no traffic: {out:?}");
}

#[test]
fn unusable_checkpoint_dir_exits_7() {
    let scratch = ScratchDir::new("ckpt-bad");
    // A regular file where the checkpoint directory should be: resume
    // cannot list generations, which is the unrecoverable case. Resume
    // runs before ingest (resume-on-start), so the log paths are never
    // touched.
    let not_a_dir = scratch.file("file-not-dir");
    fs::write(&not_a_dir, "occupied").unwrap();
    let mut args = track_args(&scratch.file("unused.tsv"));
    args.push("--checkpoint-dir".to_owned());
    args.push(not_a_dir.to_str().unwrap().to_owned());
    let out = segugio(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(exit_code(&out), 7, "file as checkpoint dir: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checkpoint"),
        "error names the checkpoint subsystem: {stderr}"
    );
}

#[test]
fn track_checkpoints_then_resumes_cleanly() {
    let scratch = ScratchDir::new("ckpt-ok");
    let logs = simulate_corpus(&scratch, 3);
    let ckpt_dir = scratch.file("checkpoints");
    let mut args = track_args(&logs);
    args.push("--checkpoint-dir".to_owned());
    args.push(ckpt_dir.to_str().unwrap().to_owned());
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();

    // First run: processes every day and leaves generation files behind.
    let out = segugio(&argv);
    assert_eq!(exit_code(&out), 0, "first track run: {out:?}");
    let generations: Vec<String> = fs::read_dir(&ckpt_dir)
        .expect("checkpoint dir exists after the run")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        generations
            .iter()
            .any(|name| name.starts_with("checkpoint-") && name.ends_with(".seg")),
        "generation files written: {generations:?}"
    );
    assert!(
        !generations.iter().any(|name| name.ends_with(".tmp")),
        "no torn temp files left behind: {generations:?}"
    );

    // Second run over the same logs: every day is already covered by the
    // restored checkpoint, so it resumes and processes nothing.
    let out = segugio(&argv);
    assert_eq!(exit_code(&out), 0, "resumed track run: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("resumed from checkpoint"),
        "second run announces the resume: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("tracked 0 day(s)"),
        "no day is replayed after a clean resume: {stdout}"
    );
}

#[test]
fn morning_run_on_a_grown_log_equals_the_uncheckpointed_run() {
    let scratch = ScratchDir::new("ckpt-morning");
    let whole = simulate_corpus(&scratch, 4);
    let text = fs::read_to_string(&whole).expect("reading the simulated log");
    let day_of = |line: &str| line.split('\t').next().unwrap().parse::<u32>().unwrap();
    let last_day = text.lines().map(day_of).max().expect("a non-empty log");
    let prefix: Vec<&str> = text.lines().filter(|l| day_of(l) < last_day).collect();

    // The resolver's append-only log, before the last day is written.
    let growing = scratch.file("growing.tsv");
    fs::write(&growing, prefix.join("\n") + "\n").unwrap();
    for sidecar in ["blacklist", "whitelist"] {
        fs::copy(
            format!("{}.{sidecar}", whole.display()),
            format!("{}.{sidecar}", growing.display()),
        )
        .unwrap();
    }
    let mut args = track_args(&growing);
    args.push("--checkpoint-dir".to_owned());
    args.push(scratch.file("checkpoints").to_str().unwrap().to_owned());
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let backfill = segugio(&argv);
    assert_eq!(exit_code(&backfill), 0, "backfill: {backfill:?}");

    // Overnight the log gains a day; the morning run resumes, reads the
    // covered days for their ids and history only, and tracks the new one.
    fs::write(&growing, text.as_bytes()).unwrap();
    let morning = segugio(&argv);
    assert_eq!(exit_code(&morning), 0, "morning: {morning:?}");

    let whole_args = track_args(&whole);
    let whole_argv: Vec<&str> = whole_args.iter().map(String::as_str).collect();
    let uncheckpointed = segugio(&whole_argv);
    assert_eq!(exit_code(&uncheckpointed), 0, "whole: {uncheckpointed:?}");

    let stdout = |out: &Output| String::from_utf8_lossy(&out.stdout).into_owned();
    let day_lines = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with("day "))
            .map(str::to_owned)
            .collect()
    };
    let totals = |text: &str| -> String {
        let summary = text.lines().find(|l| l.starts_with("tracked ")).unwrap();
        summary.split_once(':').unwrap().1.to_owned()
    };
    let (backfill, morning, uncheckpointed) =
        (stdout(&backfill), stdout(&morning), stdout(&uncheckpointed));
    assert!(morning.contains("tracked 1 day(s)"), "{morning}");
    assert_eq!(day_lines(&morning).len(), 1, "{morning}");
    assert_eq!(day_lines(&uncheckpointed).len(), 4);
    let mut resumed = day_lines(&backfill);
    resumed.extend(day_lines(&morning));
    assert_eq!(resumed, day_lines(&uncheckpointed));
    assert_eq!(totals(&morning), totals(&uncheckpointed));
}
