//! `segugio` — command-line front end.
//!
//! ```text
//! segugio experiment <name> [--scale tiny|small|paper]
//!     run a reproduction experiment and print its table/figure
//!     names: dataset, crossday, ablation, crossfamily, fp-analysis,
//!            public-blacklist, early-detection, performance, notos,
//!            bp, robustness, seed-sensitivity, design-ablations, all
//!
//! segugio simulate --out FILE [--machines N] [--days D] [--seed S]
//!     generate synthetic resolver logs (TSV) plus ground-truth sidecar
//!     files FILE.blacklist / FILE.whitelist
//!
//! segugio train --logs FILE --blacklist FILE --whitelist FILE
//!               --save FILE [--day D]
//!     train on one day of ingested logs and persist the model
//!
//! segugio detect --logs FILE --blacklist FILE --whitelist FILE
//!                [--model FILE] [--train-day D] [--test-day D] [--top N]
//!     ingest resolver logs and rank the unknown domains of a day, either
//!     training in place or deploying a previously saved model (the
//!     cross-network story: train at one ISP, ship the model to another)
//!
//! segugio track --logs FILE --blacklist FILE --whitelist FILE
//!               [--checkpoint-dir DIR] [--keep K]
//!     run the multi-day deployment loop over every day in the logs,
//!     retraining each morning and reconciling flags against the
//!     blacklist. With --checkpoint-dir the tracker state is durably
//!     checkpointed after every day (atomic write, last-K generations)
//!     and resumed on start: days already covered by the restored
//!     checkpoint are skipped, so a killed run can simply be re-run
//! ```
//!
//! # What a resumed `track` reads
//!
//! Each generation carries, beside the tracker, the log reader's own state
//! (`LogCollector::state_bytes`: names and ids, history, where each day
//! starts, how far the log was read, a fingerprint of the bytes before
//! that point). A resumed run decodes it, checks the fingerprint against
//! `--logs`, seeks to the first line of the first day the checkpoint does
//! not cover — the end of what was read, on an ordinary morning — and
//! ingests from there: its cost is the new day's, whatever the age of the
//! log, and run again on an unchanged log it reads no line at all. When
//! the log is no longer the one the state was taken from (rotated,
//! truncated, edited) it is read from byte 0 *into the decoded state*, so
//! names keep the ids the tracker's flags are keyed by; when there is no
//! state to decode (a generation written before there was one) the log is
//! read from byte 0 into an empty collector, as every resumed run used
//! to; and when no generation decodes at all (damaged, or written by
//! another version) the whole log is tracked again. Each detour is said
//! on stderr and tagged on the next day line (`log-reread[ids-restored]`,
//! `log-reread[ids-from-log]` for the last two); none fails the run.
//!
//! # Exit codes
//!
//! Failures map to distinct exit codes by kind, so deployment scripts can
//! tell a typo from a corrupt feed:
//!
//! | code | meaning                                             |
//! |------|-----------------------------------------------------|
//! | 0    | success                                             |
//! | 2    | usage error (bad command, flag, or value)           |
//! | 3    | I/O error (file missing/unreadable/unwritable)      |
//! | 4    | ingest error (a malformed log line, a read failure) |
//! | 5    | model parse error (corrupt/incompatible model file) |
//! | 6    | data error (no traffic, insufficient seeds)         |
//! | 7    | checkpoint error (unusable dir, unwritable state)   |
//!
//! A *corrupt* checkpoint generation is not an error: resume falls back
//! generation by generation (recording the fallback in the day report) and
//! rebuilds from scratch if nothing is loadable. Exit 7 is reserved for
//! unrecoverable conditions — the checkpoint directory cannot be listed or
//! a new checkpoint cannot be written.

// Hash-set/map iteration order differs per process, so it must not reach
// ordered output; a site whose order provably cannot matter is an
// `#[expect(clippy::…, reason = "…")]` — a plain `#[allow]` is denied.
#![deny(clippy::iter_over_hash_type, clippy::allow_attributes)]

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use segugio_core::{
    write_atomic, CheckpointError, DayOutcome, DaySnapshot, Degradation, Segugio, SegugioConfig,
    SnapshotInput, Tracker, TrackerConfig, TrainError, DEFAULT_KEEP_GENERATIONS,
};
use segugio_eval::experiments::{
    ablation, bp_comparison, crossday, crossfamily, dataset, design_ablations, early_detection,
    fp_analysis, notos_comparison, performance, public_blacklist, robustness, seed_sensitivity,
    Scale,
};
use segugio_ingest::{export_day, IngestError, IngestedDay, LogCollector, LogPosition};
use segugio_model::container::DecodeError;
use segugio_model::{Blacklist, Day, DomainName, Whitelist};
use segugio_traffic::{IspConfig, IspNetwork};

/// Typed CLI failure; each variant owns one exit code.
#[derive(Debug)]
enum CliError {
    /// Bad command line: unknown command, flag, or malformed value.
    Usage(String),
    /// A file could not be opened, read, or written.
    Io {
        what: String,
        source: std::io::Error,
    },
    /// Resolver logs failed to ingest: a line did not parse or the read
    /// failed. The CLI reads fail-fast, so the first bad line ends it.
    Ingest(IngestError),
    /// A persisted model file failed to decode.
    Model(DecodeError),
    /// The inputs parsed but cannot support the requested operation
    /// (no traffic, missing day, insufficient training seeds).
    Data(String),
    /// The checkpoint directory is unusable or a checkpoint could not be
    /// written. Corrupt generations are *not* this: resume degrades
    /// through them and rebuilds from scratch if it must.
    Checkpoint(CheckpointError),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    fn io(what: impl Into<String>, source: std::io::Error) -> Self {
        CliError::Io {
            what: what.into(),
            source,
        }
    }

    fn data(msg: impl Into<String>) -> Self {
        CliError::Data(msg.into())
    }

    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Usage(_) => ExitCode::from(2),
            CliError::Io { .. } => ExitCode::from(3),
            CliError::Ingest(_) => ExitCode::from(4),
            CliError::Model(_) => ExitCode::from(5),
            CliError::Data(_) => ExitCode::from(6),
            CliError::Checkpoint(_) => ExitCode::from(7),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io { what, source } => write!(f, "{what}: {source}"),
            CliError::Ingest(e) => write!(f, "ingesting logs: {e}"),
            CliError::Model(e) => write!(f, "loading model: {e}"),
            CliError::Data(msg) => write!(f, "{msg}"),
            CliError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            CliError::Ingest(e) => Some(e),
            CliError::Model(e) => Some(e),
            CliError::Checkpoint(e) => Some(e),
            CliError::Usage(_) | CliError::Data(_) => None,
        }
    }
}

impl From<IngestError> for CliError {
    fn from(e: IngestError) -> Self {
        CliError::Ingest(e)
    }
}

impl From<DecodeError> for CliError {
    fn from(e: DecodeError) -> Self {
        CliError::Model(e)
    }
}

impl From<TrainError> for CliError {
    fn from(e: TrainError) -> Self {
        CliError::Data(e.to_string())
    }
}

impl From<CheckpointError> for CliError {
    fn from(e: CheckpointError) -> Self {
        CliError::Checkpoint(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("experiment") => cmd_experiment(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("detect") => cmd_detect(&args[1..]),
        Some("track") => cmd_track(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(CliError::usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            err.exit_code()
        }
    }
}

const USAGE: &str = "\
segugio — behavior-based tracking of malware-control domains

USAGE:
  segugio experiment <name> [--scale tiny|small|paper]
  segugio simulate --out FILE [--machines N] [--days D] [--seed S]
  segugio train --logs FILE --blacklist FILE --whitelist FILE
                --save FILE [--day D]
  segugio detect --logs FILE --blacklist FILE --whitelist FILE
                 [--model FILE] [--train-day D] [--test-day D] [--top N]
  segugio track --logs FILE --blacklist FILE --whitelist FILE
                [--checkpoint-dir DIR] [--keep K]

Experiments: dataset crossday ablation crossfamily fp-analysis
             public-blacklist early-detection performance notos bp
             robustness seed-sensitivity design-ablations all
";

/// Parses `--key value` flags into a map, rejecting unknown keys.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, CliError> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| CliError::usage(format!("expected a --flag, got `{}`", args[i])))?;
        if !allowed.contains(&key) {
            return Err(CliError::usage(format!("unknown flag `--{key}`")));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError::usage(format!("flag --{key} needs a value")))?;
        flags.insert(key.to_owned(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn scale_by_name(name: &str) -> Result<Scale, CliError> {
    match name {
        "tiny" => Ok(Scale::tiny()),
        "small" => Ok(Scale::small()),
        "paper" => Ok(Scale::paper()),
        other => Err(CliError::usage(format!(
            "unknown scale `{other}` (tiny|small|paper)"
        ))),
    }
}

fn cmd_experiment(args: &[String]) -> Result<(), CliError> {
    let name = args
        .first()
        .ok_or_else(|| CliError::usage(format!("experiment name required\n\n{USAGE}")))?
        .clone();
    let flags = parse_flags(&args[1..], &["scale"])?;
    let scale = scale_by_name(flags.get("scale").map(String::as_str).unwrap_or("small"))?;

    let run_one = |name: &str, scale: &Scale| -> Result<(), CliError> {
        match name {
            "dataset" => {
                let days = [scale.warmup, scale.warmup + 5];
                println!(
                    "{}",
                    dataset::run(
                        &[scale.isp1.clone(), scale.isp2.clone()],
                        scale.warmup,
                        &days,
                        &scale.config
                    )
                );
            }
            "crossday" => println!("{}", crossday::run(scale)),
            "ablation" => println!("{}", ablation::run(scale)),
            "crossfamily" => println!("{}", crossfamily::run(scale, 5)),
            "fp-analysis" => println!("{}", fp_analysis::run(scale, 0.0005)),
            "public-blacklist" => println!("{}", public_blacklist::run(scale)),
            "early-detection" => {
                println!("{}", early_detection::run(scale, 4, 35, 0.005));
            }
            "performance" => println!("{}", performance::run(scale, 4)),
            "notos" => println!("{}", notos_comparison::run(scale, 24)),
            "bp" => println!("{}", bp_comparison::run(scale)),
            "robustness" => println!("{}", robustness::run(scale)),
            "seed-sensitivity" => {
                println!(
                    "{}",
                    seed_sensitivity::run(scale, &[0.1, 0.25, 0.5, 0.75, 1.0])
                );
            }
            "design-ablations" => println!("{}", design_ablations::run(scale)),
            other => {
                return Err(CliError::usage(format!(
                    "unknown experiment `{other}`\n\n{USAGE}"
                )))
            }
        }
        Ok(())
    };

    if name == "all" {
        for exp in [
            "dataset",
            "crossday",
            "ablation",
            "crossfamily",
            "fp-analysis",
            "public-blacklist",
            "early-detection",
            "performance",
            "notos",
            "bp",
            "robustness",
            "seed-sensitivity",
            "design-ablations",
        ] {
            println!("==================== {exp} ====================");
            run_one(exp, &scale)?;
            println!();
        }
        Ok(())
    } else {
        run_one(&name, &scale)
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "regenerable synthetic output, not durable state: a torn file is rerun, not recovered"
)]
fn cmd_simulate(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(args, &["out", "machines", "days", "seed", "warmup"])?;
    let out = flags
        .get("out")
        .ok_or_else(|| CliError::usage("--out FILE is required"))?;
    let machines: usize = parse_or(&flags, "machines", 3_000)?;
    let days: u32 = parse_or(&flags, "days", 2)?;
    let seed: u64 = parse_or(&flags, "seed", 7)?;
    let warmup: u32 = parse_or(&flags, "warmup", 18)?;

    let mut isp = IspNetwork::new(IspConfig {
        name: "simulated".to_owned(),
        machines,
        ..IspConfig::small(seed)
    });
    isp.warm_up(warmup);
    // Each day goes to the file as it is generated: the log is never
    // held whole.
    let writing = |e| CliError::io(format!("writing {out}"), e);
    let mut log = BufWriter::new(fs::File::create(out).map_err(writing)?);
    let mut lines = 0;
    for _ in 0..days {
        let day = isp.next_day();
        let text = export_day(isp.table(), day.day.0, &day.queries, &day.resolutions);
        log.write_all(text.as_bytes()).map_err(writing)?;
        lines += day.queries.len();
    }
    log.flush().map_err(writing)?;

    // Ground-truth sidecars in the formats `segugio detect` reads.
    let mut bl = String::new();
    for (d, added) in isp.commercial_blacklist().iter() {
        bl.push_str(&format!("{}\t{}\n", isp.table().name(d), added.0));
    }
    fs::write(format!("{out}.blacklist"), bl)
        .map_err(|e| CliError::io(format!("writing {out}.blacklist"), e))?;
    let mut wl = String::new();
    for e in isp.whitelist().iter() {
        wl.push_str(isp.table().e2ld_str(e));
        wl.push('\n');
    }
    fs::write(format!("{out}.whitelist"), wl)
        .map_err(|e| CliError::io(format!("writing {out}.whitelist"), e))?;

    println!("wrote {lines} log lines to {out} (+ {out}.blacklist, {out}.whitelist)");
    Ok(())
}

/// What a restored checkpoint knows about the log: the last day it
/// covers and the front-end state saved beside the tracker, if any.
struct LogResume {
    covered: Day,
    section: Option<Vec<u8>>,
}

/// Reads `--logs` through the one read path, `ingest_reader_from`: from
/// the top into an empty collector (a first run, or `train` / `detect`),
/// or from where the checkpoint's front-end state says the last run
/// stopped, into the collector decoded from that state.
///
/// The second is what keeps a morning run's cost to the new day. It needs
/// the log to still be the one the state was built from; when it is not
/// (rotated, truncated, edited), the log is read from the top into the
/// decoded collector, so names keep the ids the tracker's state is keyed
/// by. With no state to decode the collector starts empty and the whole
/// log is read for ids and history, as before there was any. Both detours
/// come back as the [`Degradation`] to note.
///
/// The log is parsed `width` blocks at a time: the pipeline's resolved
/// parallelism, so the front end uses the cores the day's stages use.
fn read_log(
    logs_path: &str,
    resume: Option<LogResume>,
    width: usize,
) -> Result<(LogCollector, Option<Degradation>), CliError> {
    let mut file =
        fs::File::open(logs_path).map_err(|e| CliError::io(format!("opening {logs_path}"), e))?;
    let mut degraded = None;
    let (mut collector, start) = match resume {
        None => (LogCollector::new(), LogPosition::START),
        Some(LogResume { covered, section }) => {
            match section.as_deref().map(LogCollector::from_state_bytes) {
                Some(Ok(mut collector)) => {
                    let (start, unchanged) = collector
                        .resume_log(&mut file, Some(covered))
                        .map_err(|e| CliError::io(format!("reading {logs_path}"), e))?;
                    if unchanged {
                        eprintln!(
                            "resumed log at byte {} (line {})",
                            start.offset,
                            start.line_number()
                        );
                    } else {
                        eprintln!(
                            "warning: {logs_path} is not the log the checkpoint was taken from \
                             (rotated, truncated or edited); reading it from byte 0 under the \
                             checkpoint's ids"
                        );
                        degraded = Some(Degradation::LogReread { ids_restored: true });
                    }
                    (collector, start)
                }
                undecodable => {
                    let why = match undecodable {
                        Some(Err(e)) => format!("front-end state: {e}"),
                        _ => "the checkpoint carries no front-end state".to_owned(),
                    };
                    eprintln!("warning: {why}; reading the log from byte 0");
                    degraded = Some(Degradation::LogReread {
                        ids_restored: false,
                    });
                    (LogCollector::resuming_after(covered), LogPosition::START)
                }
            }
        }
    };
    collector.set_read_width(width);
    let n = collector.ingest_reader_from(&mut file, start)?;
    eprintln!(
        "ingested {n} records: {} machines, days {:?}",
        collector.machine_count(),
        collector.days().iter().map(|d| d.0).collect::<Vec<_>>()
    );
    Ok((collector, degraded))
}

/// Shared by `train` and `detect`: the whole log, and the seed lists
/// remapped onto its table.
fn load_inputs(
    flags: &HashMap<String, String>,
    config: &SegugioConfig,
) -> Result<(LogCollector, Blacklist, Whitelist), CliError> {
    let paths = InputPaths::from_flags(flags)?;
    let (collector, _) = read_log(paths.logs, None, config.effective_parallelism())?;
    let (blacklist, whitelist) = load_seed_lists(&paths, &collector)?;
    Ok((collector, blacklist, whitelist))
}

/// The three input files every log-reading command requires.
struct InputPaths<'a> {
    logs: &'a str,
    blacklist: &'a str,
    whitelist: &'a str,
}

impl<'a> InputPaths<'a> {
    fn from_flags(flags: &'a HashMap<String, String>) -> Result<Self, CliError> {
        let required = |key: &str| {
            flags
                .get(key)
                .map(String::as_str)
                .ok_or_else(|| CliError::usage(format!("--{key} FILE is required")))
        };
        Ok(InputPaths {
            logs: required("logs")?,
            blacklist: required("blacklist")?,
            whitelist: required("whitelist")?,
        })
    }
}

/// Reads the seed lists and remaps them onto the collector's table.
fn load_seed_lists(
    paths: &InputPaths<'_>,
    collector: &LogCollector,
) -> Result<(Blacklist, Whitelist), CliError> {
    let (bl_path, wl_path) = (paths.blacklist, paths.whitelist);

    let mut blacklist = Blacklist::new();
    let bl_text =
        fs::read_to_string(bl_path).map_err(|e| CliError::io(format!("reading {bl_path}"), e))?;
    for (i, line) in bl_text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, added_field) = match line.split_once('\t') {
            Some((name, rest)) => (name, rest),
            None => (line, "0"),
        };
        let added: u32 = added_field
            .parse()
            .map_err(|_| CliError::data(format!("{bl_path}:{}: bad day index", i + 1)))?;
        let parsed = DomainName::parse(name)
            .map_err(|e| CliError::data(format!("{bl_path}:{}: {e}", i + 1)))?;
        if let Some(id) = collector.table().get(&parsed) {
            blacklist.insert(id, Day(added));
        }
    }
    let mut whitelist = Whitelist::new();
    let wl_text =
        fs::read_to_string(wl_path).map_err(|e| CliError::io(format!("reading {wl_path}"), e))?;
    for line in wl_text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(id) = collector.table().e2ld_id(line) {
            whitelist.insert(id);
        }
    }
    eprintln!(
        "matched {} blacklist entries and {} whitelist e2LDs against the logs",
        blacklist.len(),
        whitelist.len()
    );
    Ok((blacklist, whitelist))
}

fn cmd_train(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(args, &["logs", "blacklist", "whitelist", "save", "day"])?;
    let save = flags
        .get("save")
        .ok_or_else(|| CliError::usage("--save FILE is required"))?
        .clone();
    let config = SegugioConfig::default();
    let (collector, blacklist, whitelist) = load_inputs(&flags, &config)?;
    let days = collector.days();
    let day = match flags.get("day") {
        Some(d) => Day(d.parse().map_err(|_| CliError::usage("bad --day"))?),
        None => *days
            .first()
            .ok_or_else(|| CliError::data("log file contains no traffic"))?,
    };
    let train = day_traffic(collector.try_day(day), day)?;
    let input = SnapshotInput {
        day,
        queries: &train.queries,
        resolutions: &train.resolutions,
        table: collector.table(),
        pdns: collector.pdns(),
        blacklist: &blacklist,
        whitelist: &whitelist,
        hidden: None,
    };
    let snapshot = DaySnapshot::build(&input, &config);
    let model = Segugio::train(&snapshot, collector.activity(), &config)?;
    // Atomic: a crash mid-save leaves the previous model, never a torn one.
    write_atomic(Path::new(&save), &model.to_bytes())
        .map_err(|e| CliError::io(format!("writing {save}"), std::io::Error::other(e)))?;
    println!("trained on {day} and saved the model to {save}");
    Ok(())
}

fn cmd_detect(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(
        args,
        &[
            "logs",
            "blacklist",
            "whitelist",
            "model",
            "train-day",
            "test-day",
            "top",
        ],
    )?;
    let top: usize = parse_or(&flags, "top", 20)?;
    let config = SegugioConfig::default();
    let (collector, blacklist, whitelist) = load_inputs(&flags, &config)?;
    let days = collector.days();
    let test_day = match flags.get("test-day") {
        Some(d) => Day(d.parse().map_err(|_| CliError::usage("bad --test-day"))?),
        None => *days
            .last()
            .ok_or_else(|| CliError::data("log file contains no traffic"))?,
    };

    let model = match flags.get("model") {
        Some(path) => {
            // Deploy a previously trained (possibly cross-network) model.
            let bytes = fs::read(path).map_err(|e| CliError::io(format!("reading {path}"), e))?;
            let model = segugio_core::SegugioModel::from_bytes(&bytes)?;
            eprintln!("loaded model from {path}; testing on {test_day}");
            model
        }
        None => {
            let train_day = match flags.get("train-day") {
                Some(d) => Day(d.parse().map_err(|_| CliError::usage("bad --train-day"))?),
                None => *days
                    .first()
                    .ok_or_else(|| CliError::data("log file contains no traffic"))?,
            };
            eprintln!("training on {train_day}, testing on {test_day}");
            let train = day_traffic(collector.try_day(train_day), train_day)?;
            let input = SnapshotInput {
                day: train_day,
                queries: &train.queries,
                resolutions: &train.resolutions,
                table: collector.table(),
                pdns: collector.pdns(),
                blacklist: &blacklist,
                whitelist: &whitelist,
                hidden: None,
            };
            let snapshot = DaySnapshot::build(&input, &config);
            Segugio::train(&snapshot, collector.activity(), &config)?
        }
    };

    let test = day_traffic(collector.try_day(test_day), test_day)?;
    let input = SnapshotInput {
        day: test_day,
        queries: &test.queries,
        resolutions: &test.resolutions,
        table: collector.table(),
        pdns: collector.pdns(),
        blacklist: &blacklist,
        whitelist: &whitelist,
        hidden: None,
    };
    let snapshot = DaySnapshot::build(&input, &config);
    let detections = model.score_unknown(&snapshot, collector.activity());

    println!("score\tdomain\tqueriers");
    for det in detections.iter().take(top) {
        let queriers = snapshot
            .graph
            .domain_idx(det.domain)
            .map(|d| snapshot.graph.domain_degree(d))
            .unwrap_or(0);
        println!(
            "{:.4}\t{}\t{queriers}",
            det.score,
            collector.table().name(det.domain)
        );
    }
    Ok(())
}

/// One word per fallback for the per-day operator log.
fn describe_degradation(d: &Degradation) -> String {
    match d {
        Degradation::StaleModel { trained_on } => format!("stale-model[{trained_on}]"),
        Degradation::MaskedIpFeatures => "masked-ip-features".to_owned(),
        Degradation::RestoredFromCheckpoint { day } => {
            format!("restored-from-checkpoint[{day}]")
        }
        Degradation::CheckpointDiscarded { day } => format!("checkpoint-discarded[{day}]"),
        Degradation::LogReread { ids_restored: true } => "log-reread[ids-restored]".to_owned(),
        Degradation::LogReread {
            ids_restored: false,
        } => "log-reread[ids-from-log]".to_owned(),
    }
}

/// The traffic `try_day` found for `day`. A scratch run that cannot be
/// read back is an I/O failure, not a day without traffic.
fn day_traffic(
    found: std::io::Result<Option<IngestedDay>>,
    day: Day,
) -> Result<IngestedDay, CliError> {
    found
        .map_err(|e| CliError::io(format!("re-reading the spilled traffic of {day}"), e))?
        .ok_or_else(|| CliError::data(format!("no traffic on {day}")))
}

fn cmd_track(args: &[String]) -> Result<(), CliError> {
    let flags = parse_flags(
        args,
        &["logs", "blacklist", "whitelist", "checkpoint-dir", "keep"],
    )?;
    let keep: usize = parse_or(&flags, "keep", DEFAULT_KEEP_GENERATIONS)?;
    let checkpoint_dir = flags.get("checkpoint-dir").map(PathBuf::from);
    let paths = InputPaths::from_flags(&flags)?;

    // Resume before touching the logs: a killed run restarts from its
    // latest good checkpoint generation (falling back through corrupt
    // ones) and only replays the days the checkpoint does not cover.
    let mut tracker = match &checkpoint_dir {
        Some(dir) => {
            let mut tracker = Tracker::resume(dir)?;
            if let Some(day) = tracker.last_day() {
                eprintln!(
                    "resumed from checkpoint: {} days processed, last {day}",
                    tracker.days_processed()
                );
            } else if !tracker.noted_degradations().is_empty() {
                // Every generation was discarded — damaged, or written by
                // another version: the whole log is tracked again.
                eprintln!(
                    "warning: no checkpoint generation in {} could be read; reading the log from byte 0",
                    dir.display()
                );
                tracker.note_degradation(Degradation::LogReread {
                    ids_restored: false,
                });
            }
            tracker
        }
        None => Tracker::new(),
    };

    // Read on in the log from where the checkpoint stopped, not from its
    // first byte: the front-end state saved beside the tracker holds
    // everything the covered days contributed but their traffic.
    let resume = tracker.last_day().map(|covered| LogResume {
        covered,
        section: tracker.take_front_end(),
    });
    let config = TrackerConfig::default();
    let (collector, degraded) =
        read_log(paths.logs, resume, config.segugio.effective_parallelism())?;
    if let Some(record) = degraded {
        tracker.note_degradation(record);
    }
    let (blacklist, whitelist) = load_seed_lists(&paths, &collector)?;
    let days = collector.days();
    if days.is_empty() {
        return Err(CliError::data("log file contains no traffic"));
    }
    if checkpoint_dir.is_some() {
        // Encoded once; every generation this run saves carries it.
        tracker.attach_front_end(collector.state_bytes());
    }

    let mut processed = 0usize;
    for &day in &days {
        if tracker.last_day().is_some_and(|last| day <= last) {
            continue; // already covered by the restored checkpoint
        }
        let traffic = day_traffic(collector.try_day(day), day)?;
        let input = SnapshotInput {
            day,
            queries: &traffic.queries,
            resolutions: &traffic.resolutions,
            table: collector.table(),
            pdns: collector.pdns(),
            blacklist: &blacklist,
            whitelist: &whitelist,
            hidden: None,
        };
        match tracker.process_day_outcome(&input, collector.activity(), &config) {
            DayOutcome::Processed(report) => {
                processed += 1;
                let notes = if report.degradation.is_empty() {
                    String::new()
                } else {
                    let words: Vec<String> = report
                        .degradation
                        .iter()
                        .map(describe_degradation)
                        .collect();
                    format!("  ({})", words.join(" "))
                };
                println!(
                    "{day}: {} new, {} re-detected, {} confirmed, threshold {:.4}{notes}",
                    report.new_detections.len(),
                    report.all_detections.len() - report.new_detections.len(),
                    report.confirmed.len(),
                    report.threshold,
                );
                if let Some(dir) = &checkpoint_dir {
                    tracker.save_checkpoint(dir, keep)?;
                }
            }
            DayOutcome::Skipped { day, error } => eprintln!("skipped {day}: {error}"),
        }
    }

    println!(
        "tracked {processed} day(s): {} flagged pending, {} confirmed",
        tracker.pending().count(),
        tracker.confirmations().count()
    );
    Ok(())
}

fn parse_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage(format!("bad value for --{key}: `{v}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scratch_read_failure_is_an_io_error_not_a_day_without_traffic() {
        let failed = day_traffic(Err(std::io::Error::other("scratch disk died")), Day(7));
        let error = failed.expect_err("an unreadable run is a failure");
        assert!(matches!(error, CliError::Io { .. }), "{error:?}");
        assert_eq!(error.exit_code(), ExitCode::from(3));
        assert!(error.to_string().contains("day 7"), "{error}");

        let absent = day_traffic(Ok(None), Day(7)).expect_err("no traffic");
        assert!(matches!(absent, CliError::Data(_)), "{absent:?}");
        assert_eq!(absent.exit_code(), ExitCode::from(6));
        assert!(day_traffic(Ok(Some(IngestedDay::default())), Day(7)).is_ok());
    }
}
