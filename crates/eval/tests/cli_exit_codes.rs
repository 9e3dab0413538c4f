//! End-to-end exit-code contract for the `segugio` binary.
//!
//! The CLI documents a table mapping failure kinds to distinct exit codes
//! (0 success, 2 usage, 3 I/O, 4 ingest, 5 model parse, 6 data,
//! 7 checkpoint). Deployment scripts branch on these, so each row is
//! pinned here by driving the real binary with `CARGO_BIN_EXE_segugio`.
#![expect(
    clippy::disallowed_methods,
    reason = "tests write the logs, models and checkpoints they feed the binary"
)]
#![expect(
    clippy::disallowed_types,
    reason = "a temp-dir name counter; no result depends on which test draws which number"
)]

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
fn train_save_replaces_an_existing_model_atomically() {
    let scratch = ScratchDir::new("train-save");
    let logs = simulate_corpus(&scratch, 1);
    let logs_s = logs.to_str().unwrap();
    let (bl, wl) = (format!("{logs_s}.blacklist"), format!("{logs_s}.whitelist"));
    let model = scratch.file("model.txt");
    let model_s = model.to_str().unwrap();
    let train = || {
        segugio(&[
            "train",
            "--logs",
            logs_s,
            "--blacklist",
            &bl,
            "--whitelist",
            &wl,
            "--save",
            model_s,
        ])
    };

    let out = train();
    assert_eq!(exit_code(&out), 0, "first save: {out:?}");
    let first = fs::read(&model).expect("the saved model");
    // The second save goes over the first: rename, not overwrite in place.
    let out = train();
    assert_eq!(exit_code(&out), 0, "save over an existing model: {out:?}");
    assert_eq!(
        fs::read(&model).unwrap(),
        first,
        "training is deterministic"
    );
    let siblings: Vec<String> = fs::read_dir(&scratch.0)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        !siblings.iter().any(|name| name.ends_with(".tmp")),
        "no temp file left behind: {siblings:?}"
    );

    let out = segugio(&[
        "detect",
        "--logs",
        logs_s,
        "--blacklist",
        &bl,
        "--whitelist",
        &wl,
        "--model",
        model_s,
    ]);
    assert_eq!(exit_code(&out), 0, "the replaced model parses: {out:?}");
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

/// The `day N: …` lines of a run's stdout.
fn day_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with("day "))
        .map(str::to_owned)
        .collect()
}

/// The `P flagged pending, C confirmed` half of the closing line.
fn totals(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout
        .lines()
        .find(|l| l.starts_with("tracked "))
        .unwrap_or_else(|| panic!("no summary line: {out:?}"));
    summary.split_once(':').unwrap().1.to_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A cron deployment after its backfill: the simulated log without its
/// last day was tracked into `checkpoints`, and `reference` is what one
/// uncheckpointed run over the whole log prints.
struct Cron {
    scratch: ScratchDir,
    /// The days the backfill saw, and the day the morning run is for.
    prefix: String,
    last_day: String,
    reference: Output,
}

impl Cron {
    /// `prefix_of` shapes the log the backfill sees from the text of the
    /// days before the last.
    fn backfilled(tag: &str, prefix_of: impl Fn(&str) -> String) -> Cron {
        let scratch = ScratchDir::new(tag);
        let whole = simulate_corpus(&scratch, 4);
        let text = fs::read_to_string(&whole).expect("reading the simulated log");
        let day_of = |line: &str| line.split('\t').next().unwrap().parse::<u32>().unwrap();
        let last = text.lines().map(day_of).max().expect("a non-empty log");
        let cut: usize = text
            .split_inclusive('\n')
            .take_while(|l| day_of(l) < last)
            .map(str::len)
            .sum();
        for sidecar in ["blacklist", "whitelist"] {
            fs::copy(
                format!("{}.{sidecar}", whole.display()),
                scratch.file(&format!("growing.tsv.{sidecar}")),
            )
            .unwrap();
        }
        let whole_args = track_args(&whole);
        let reference = segugio(&whole_args.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(exit_code(&reference), 0, "whole: {reference:?}");
        assert_eq!(day_lines(&reference).len(), 4);

        let cron = Cron {
            prefix: prefix_of(&text[..cut]),
            last_day: text[cut..].to_owned(),
            scratch,
            reference,
        };
        let backfill = cron.track("checkpoints", cron.prefix.as_bytes());
        assert_eq!(exit_code(&backfill), 0, "backfill: {backfill:?}");
        assert_eq!(day_lines(&backfill), day_lines(&cron.reference)[..3]);
        cron
    }

    /// Runs `segugio track` on a log holding `log`, checkpointing into
    /// the scratch directory `checkpoints`.
    fn track(&self, checkpoints: &str, log: &[u8]) -> Output {
        let growing = self.scratch.file("growing.tsv");
        fs::write(&growing, log).unwrap();
        let mut args = track_args(&growing);
        args.push("--checkpoint-dir".to_owned());
        args.push(self.scratch.file(checkpoints).to_str().unwrap().to_owned());
        segugio(&args.iter().map(String::as_str).collect::<Vec<_>>())
    }

    /// A morning run on `log`, from a copy of the backfilled checkpoints
    /// that `prepare` may first tamper with.
    fn morning(&self, name: &str, log: &[u8], prepare: impl Fn(&Path)) -> Output {
        let checkpoints = self.scratch.file(name);
        fs::create_dir_all(&checkpoints).unwrap();
        for entry in fs::read_dir(self.scratch.file("checkpoints")).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), checkpoints.join(entry.file_name())).unwrap();
        }
        prepare(&checkpoints);
        self.track(name, log)
    }

    fn grown(&self) -> Vec<u8> {
        [self.prefix.as_bytes(), self.last_day.as_bytes()].concat()
    }
}

/// Rewrites the newest generation in `dir`: `edit` maps its payload, and
/// the header is made to fit the result again.
fn rewrite_newest_generation(dir: &Path, edit: impl Fn(&str) -> String) {
    let newest = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .max_by_key(|p| {
            let name = p.file_name().unwrap().to_str().unwrap().to_owned();
            let day = name.strip_prefix("checkpoint-").unwrap();
            day.strip_suffix(".seg").unwrap().parse::<u32>().unwrap()
        })
        .expect("a generation");
    let text = fs::read_to_string(&newest).unwrap();
    let payload = edit(text.split_once('\n').expect("a header line").1);
    let header = format!(
        "segugio-checkpoint v1 {} {:08x}\n",
        payload.len(),
        segugio_core::crc32(payload.as_bytes())
    );
    fs::write(&newest, header + &payload).unwrap();
}

#[test]
fn morning_reads_on_from_the_checkpoint_and_degrades_typed_when_it_cannot() {
    // The closing comment puts bytes that ingest ignores inside the
    // guard window, for the edit below.
    let cron = Cron::backfilled("ckpt-degrade", |days| format!("{days}# end of day\n"));
    let reference_last = day_lines(&cron.reference)[3].clone();
    let new_records = cron.last_day.lines().count();

    // The healthy morning: seek, read the new day, nothing to report.
    let morning = cron.morning("grown", &cron.grown(), |_| {});
    assert_eq!(exit_code(&morning), 0, "{morning:?}");
    let log = stderr(&morning);
    assert!(
        log.contains(&format!("resumed log at byte {} ", cron.prefix.len())),
        "{log}"
    );
    assert!(
        log.contains(&format!("ingested {new_records} records")),
        "{log}"
    );
    assert_eq!(day_lines(&morning), std::slice::from_ref(&reference_last));
    assert_eq!(totals(&morning), totals(&cron.reference));
    // Run again on the unchanged log: nothing to read, nothing to track.
    let again = cron.track("grown", &cron.grown());
    assert_eq!(exit_code(&again), 0, "{again:?}");
    assert!(stderr(&again).contains("ingested 0 records"), "{again:?}");
    assert!(String::from_utf8_lossy(&again.stdout).contains("tracked 0 day(s)"));

    // Every way the log or the section can fail to be continued: exit 0,
    // the fallback named on the day line and on stderr, and the day and
    // the totals of the run that never stopped.
    let half: usize = {
        let lines = cron.prefix.split_inclusive('\n');
        let lengths: Vec<usize> = lines.map(str::len).collect();
        lengths[..lengths.len() / 2].iter().sum()
    };
    let truncated = [&cron.prefix.as_bytes()[..half], cron.last_day.as_bytes()].concat();
    let edited = String::from_utf8(cron.grown())
        .unwrap()
        .replace("# end of day\n", "# end of dax\n");
    let future = |dir: &Path| {
        rewrite_newest_generation(dir, |payload| {
            assert!(payload.contains("\nsegugio-frontend v1\n"));
            payload.replace("\nsegugio-frontend v1\n", "\nsegugio-frontend v9\n")
        })
    };
    let parent_written = |dir: &Path| {
        rewrite_newest_generation(dir, |payload| {
            let end = payload.find("\nend-tracker\n").unwrap() + "\nend-tracker\n".len();
            assert!(payload[end..].starts_with("front-end "));
            payload[..end].to_owned()
        })
    };
    let untouched = |_: &Path| {};
    /// A name, the log the morning finds, what happened to the
    /// checkpoints overnight, and the ids the fallback runs under.
    type Scenario<'a> = (&'a str, Vec<u8>, &'a dyn Fn(&Path), &'a str);
    let scenarios: [Scenario<'_>; 5] = [
        ("truncated", truncated, &untouched, "ids-restored"),
        ("edited", edited.into_bytes(), &untouched, "ids-restored"),
        (
            "rotated",
            cron.last_day.clone().into_bytes(),
            &untouched,
            "ids-restored",
        ),
        ("future-version", cron.grown(), &future, "ids-from-log"),
        (
            "parent-written",
            cron.grown(),
            &parent_written,
            "ids-from-log",
        ),
    ];
    for (name, log, prepare, ids) in scenarios {
        let morning = cron.morning(name, &log, prepare);
        assert_eq!(exit_code(&morning), 0, "{name}: {morning:?}");
        let said = stderr(&morning);
        assert!(
            said.contains("resumed from checkpoint: 3 days processed"),
            "{name}: the tracker state is kept: {said}"
        );
        assert!(said.contains("warning: "), "{name}: {said}");
        assert!(!said.contains("resumed log at byte"), "{name}: {said}");
        assert_eq!(
            day_lines(&morning),
            [format!("{reference_last}  (log-reread[{ids}])")],
            "{name}"
        );
        assert_eq!(totals(&morning), totals(&cron.reference), "{name}");
        assert!(
            String::from_utf8_lossy(&morning.stdout).contains("tracked 1 day(s)"),
            "{name}"
        );
    }

    // A damaged line behind the seek is still numbered from the top.
    let damaged = [cron.prefix.as_bytes(), b"not-a-line\n"].concat();
    let morning = cron.morning("damaged", &damaged, |_| {});
    assert_eq!(exit_code(&morning), 4, "{morning:?}");
    let line = cron.prefix.lines().count() + 1;
    assert!(
        stderr(&morning).contains(&format!("log line {line}:")),
        "{morning:?}"
    );
}

#[test]
fn a_last_line_still_being_written_is_read_again_once_complete() {
    // The backfill runs while the resolver is mid-line: the log's final
    // newline has not been written yet.
    let cron = Cron::backfilled("ckpt-midline", |days| {
        days.strip_suffix('\n').unwrap().to_owned()
    });
    let completed = [cron.prefix.as_bytes(), b"\n", cron.last_day.as_bytes()].concat();
    let morning = cron.morning("completed", &completed, |_| {});
    assert_eq!(exit_code(&morning), 0, "{morning:?}");
    // Reading resumes at the first byte of that line, not behind it.
    let line_start = cron.prefix.rfind('\n').unwrap() + 1;
    let log = stderr(&morning);
    assert!(
        log.contains(&format!("resumed log at byte {line_start} ")),
        "{log}"
    );
    assert!(
        log.contains(&format!(
            "ingested {} records",
            cron.last_day.lines().count() + 1
        )),
        "{log}"
    );
    assert_eq!(day_lines(&morning), day_lines(&cron.reference)[3..]);
    assert_eq!(totals(&morning), totals(&cron.reference));
}
