//! What a run prints and records: the declared metric names, the result
//! object, the environment it ran in, and the process's peak RSS.

use std::path::PathBuf;
use std::process::Command;

use segugio_core::TrackerConfig;

use crate::json::Json;

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] = ["track-churn", "track-steady", "stream-1m", "logs-cron"];

/// End-to-end metrics `(name, unit)`: what `bench` prints for every
/// workload. `BENCHMARK.json` carries the same list with directions and
/// bounds; a self-test keeps the two equal.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("day_wall_s", "s"),
    ("obs_per_s", "1/s"),
    ("peak_rss_bytes", "bytes"),
];

/// Per-layer metrics `(name, unit)`: what `trace` prints for every
/// workload. A layer a workload's route never enters reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traffic.world_build_s", "s"),
    ("traffic.day_gen_s", "s"),
    ("ingest.read_s", "s"),
    ("ingest.lines", "count"),
    ("ingest.lines_per_s", "1/s"),
    ("ingest.rejected_lines", "count"),
    ("ingest.allocs_per_line", "count"),
    ("ingest.day_materialize_s", "s"),
    ("graph.runs_push_s", "s"),
    ("graph.runs_spilled", "count"),
    ("graph.runs_spilled_bytes", "bytes"),
    ("graph.csr_from_runs_s", "s"),
    ("graph.csr_build_s", "s"),
    ("graph.delta_advance_s", "s"),
    ("graph.delta_new_edge_fraction", "ratio"),
    ("graph.label_s", "s"),
    ("graph.prune_s", "s"),
    ("graph.edges_in", "count"),
    ("graph.edges_kept", "count"),
    ("graph.prune_r1_machines", "count"),
    ("graph.prune_r2_machines", "count"),
    ("graph.prune_r3_domains", "count"),
    ("graph.prune_r4_domains", "count"),
    ("graph.persist_write_s", "s"),
    ("graph.persist_read_s", "s"),
    ("pdns.abuse_build_s", "s"),
    ("pdns.window_records", "count"),
    ("pdns.rolling_advance_s", "s"),
    ("pdns.rolling_touched", "count"),
    ("core.snapshot_s", "s"),
    ("core.features_s", "s"),
    ("core.feature_rows", "count"),
    ("core.feature_cache_hit_ratio", "ratio"),
    ("core.train_s", "s"),
    ("core.calibrate_s", "s"),
    ("core.score_s", "s"),
    ("core.score_domains_per_s", "1/s"),
    ("core.score_allocs", "count"),
    ("core.tracker_residual_s", "s"),
    ("core.checkpoint_save_s", "s"),
    ("core.checkpoint_save_allocs", "count"),
    ("core.checkpoint_restore_s", "s"),
    ("core.checkpoint_restore_allocs", "count"),
    ("core.checkpoint_bytes", "bytes"),
    ("core.serial_day_s", "s"),
    ("core.parallel_speedup", "ratio"),
    ("core.detect_tpr", "ratio"),
    ("core.detect_fpr", "ratio"),
    ("ml.forest_fit_s", "s"),
    ("ml.flat_pack_s", "s"),
    ("ml.flat_score_rows_per_s", "1/s"),
    ("ml.roc_s", "s"),
    ("ml.train_rows", "count"),
    ("ml.train_positives", "count"),
    ("ml.forest_nodes", "count"),
    ("core.snapshot.allocs", "count"),
    ("core.snapshot.peak_bytes", "bytes"),
    ("core.features.allocs", "count"),
    ("core.features.peak_bytes", "bytes"),
    ("core.train.allocs", "count"),
    ("core.train.peak_bytes", "bytes"),
    ("core.score.allocs", "count"),
    ("core.score.peak_bytes", "bytes"),
    ("ingest.read.allocs", "count"),
    ("ingest.read.peak_bytes", "bytes"),
    ("trace.peak_live_bytes", "bytes"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The command line both binaries take.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W [--seed N] [--seconds S] [--trace 0|1]`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 83,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let bad = || format!("bad value for {flag}: `{value}`");
            match flag.as_str() {
                "--workload" => out.workload = value.to_owned(),
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    out.trace = match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&out.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got `{}`",
                out.workload
            ));
        }
        if !(out.seconds > 0.0 && out.seconds.is_finite()) {
            return Err("--seconds must be positive".to_owned());
        }
        Ok(out)
    }
}

/// One correctness check: a failure is a failed operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub args: Args,
    /// Which allocator the binary installed: `system` or `counting`.
    pub allocator: &'static str,
    /// Operations attempted (days, child runs) — checks are added on top.
    pub attempted: u64,
    /// Operations that failed — failed checks are added on top.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Declared metrics: every name of [`END_TO_END`] or [`PER_LAYER`].
    metrics: Vec<(&'static str, &'static str, Option<f64>)>,
    /// Informational values printed beside the metrics (sample counts,
    /// input sizes, workload-specific numbers the contract has no slot for).
    pub info: Vec<(String, f64)>,
    pub report_digest: u32,
}

impl Outcome {
    pub fn new(args: &Args, allocator: &'static str) -> Outcome {
        let declared = if args.trace { PER_LAYER } else { END_TO_END };
        Outcome {
            args: args.clone(),
            allocator,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: declared.iter().map(|&(n, u)| (n, u, None)).collect(),
            info: Vec::new(),
            report_digest: 0,
        }
    }

    /// Sets a declared metric; naming an undeclared one is a harness bug.
    pub fn set_metric(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        let slot = self
            .metrics
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        slot.2 = Some(value);
    }

    pub fn note_num(&mut self, name: &str, value: f64) {
        self.info.push((name.to_owned(), value));
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        if !passed {
            eprintln!("CHECK FAILED {name}: {detail}");
        }
        self.checks.push(Check {
            name: name.to_owned(),
            passed,
            detail,
        });
    }

    pub fn attempted_ops(&self) -> u64 {
        self.attempted + self.checks.len() as u64
    }

    pub fn failed_ops(&self) -> u64 {
        self.failed + self.checks.iter().filter(|c| !c.passed).count() as u64
    }

    pub fn correct(&self) -> bool {
        self.failed_ops() == 0
    }

    /// `(name, unit, value)` in declared order. An end-to-end metric must
    /// have been set; an unset per-layer metric is a layer the workload
    /// never enters and reads 0.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        self.metrics
            .iter()
            .map(|&(name, unit, value)| match value {
                Some(v) => (name, unit, v),
                None if self.args.trace => (name, unit, 0.0),
                None => panic!("end-to-end metric {name} was never measured"),
            })
            .collect()
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics()
                .into_iter()
                .map(|(name, unit, value)| {
                    let entry = Json::Obj(vec![
                        ("value".to_owned(), Json::Num(value)),
                        ("unit".to_owned(), Json::Str(unit.to_owned())),
                    ]);
                    (name.to_owned(), entry)
                })
                .collect(),
        )
    }

    /// The object the contract asks for as the last line of stdout.
    pub fn contract_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(self.correct())),
            (
                "attempted".to_owned(),
                Json::Num(self.attempted_ops() as f64),
            ),
            ("failed".to_owned(), Json::Num(self.failed_ops() as f64)),
            ("metrics".to_owned(), self.metrics_json()),
        ])
    }

    /// The full record appended to `out/results.jsonl`.
    pub fn record_json(&self, env: &Env) -> Json {
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("name".to_owned(), Json::Str(c.name.clone())),
                    ("passed".to_owned(), Json::Bool(c.passed)),
                    ("detail".to_owned(), Json::Str(c.detail.clone())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".to_owned(), Json::Str(self.args.workload.clone())),
            ("seed".to_owned(), Json::Num(self.args.seed as f64)),
            ("seconds".to_owned(), Json::Num(self.args.seconds)),
            ("traced".to_owned(), Json::Bool(self.args.trace)),
            ("correct".to_owned(), Json::Bool(self.correct())),
            (
                "attempted_ops".to_owned(),
                Json::Num(self.attempted_ops() as f64),
            ),
            ("failed_ops".to_owned(), Json::Num(self.failed_ops() as f64)),
            (
                "report_digest".to_owned(),
                Json::Str(format!("{:08x}", self.report_digest)),
            ),
            ("metrics".to_owned(), self.metrics_json()),
            (
                "info".to_owned(),
                Json::Obj(
                    self.info
                        .iter()
                        .map(|(name, value)| (name.clone(), Json::Num(*value)))
                        .collect(),
                ),
            ),
            ("checks".to_owned(), Json::Arr(checks)),
            ("env".to_owned(), env.json(self.allocator)),
        ])
    }

    /// Prints every metric by name with its unit, appends the full record
    /// to `out/results.jsonl`, and prints the contract object last.
    pub fn emit(&self) -> std::io::Result<()> {
        use std::io::Write as _;
        let env = Env::of_host();
        let kind = if self.args.trace { "trace" } else { "bench" };
        println!(
            "== {kind} {} seed={} seconds={} allocator={} workers={} ==",
            self.args.workload, self.args.seed, self.args.seconds, self.allocator, env.workers
        );
        for (name, unit, value) in self.metrics() {
            println!("{name:<34} {value:>18.6} {unit}");
        }
        for (name, value) in &self.info {
            println!("  {name:<32} {value}");
        }
        for c in &self.checks {
            let verdict = if c.passed { "ok" } else { "FAILED" };
            println!("  check {:<26} {verdict}  {}", c.name, c.detail);
        }
        println!(
            "report_digest {:08x}  failed_ops {} of attempted_ops {}",
            self.report_digest,
            self.failed_ops(),
            self.attempted_ops()
        );
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out_dir()?.join("results.jsonl"))?;
        writeln!(file, "{}", self.record_json(&env).to_line())?;
        println!("{}", self.contract_json().to_line());
        Ok(())
    }
}

/// Where a result was measured, so a one-thread recording can never pass
/// for a parallel one.
#[derive(Debug, Clone)]
pub struct Env {
    pub nproc: String,
    pub available_parallelism: usize,
    /// What `parallelism: None` resolves to in the system under test.
    pub workers: usize,
    pub rustc: String,
    pub git_commit: String,
}

impl Env {
    pub fn of_host() -> Env {
        let run = |program: &str, args: &[&str]| {
            Command::new(program)
                .args(args)
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
                .unwrap_or_else(|| "unknown".to_owned())
        };
        Env {
            nproc: run("nproc", &[]),
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers: TrackerConfig::default().segugio.effective_parallelism(),
            rustc: run("rustc", &["-V"]),
            git_commit: run("git", &["rev-parse", "HEAD"]),
        }
    }

    fn json(&self, allocator: &str) -> Json {
        Json::Obj(vec![
            ("nproc".to_owned(), Json::Str(self.nproc.clone())),
            (
                "available_parallelism".to_owned(),
                Json::Num(self.available_parallelism as f64),
            ),
            ("workers".to_owned(), Json::Num(self.workers as f64)),
            ("rustc".to_owned(), Json::Str(self.rustc.clone())),
            ("git_commit".to_owned(), Json::Str(self.git_commit.clone())),
            ("allocator".to_owned(), Json::Str(allocator.to_owned())),
        ])
    }
}

/// `benchmark/out`, created on first use. Scratch files of the system
/// under test (spilled edge runs) are redirected here too, so a run writes
/// nothing outside its checkout.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp)?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(dir)
}

/// Peak resident set size of process `pid` in bytes (`VmHWM`), if the
/// process is still there.
pub fn peak_rss_bytes(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_args(trace: bool) -> Args {
        Args {
            workload: "track-churn".to_owned(),
            seed: 1,
            seconds: 1.0,
            trace,
        }
    }

    #[test]
    fn parses_the_driver_command_line() {
        let argv: Vec<String> = "--workload logs-cron --seed 7 --seconds 12 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let a = Args::parse(&argv).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("logs-cron", 7, true)
        );
        assert!(Args::parse(&["--workload".to_owned(), "nope".to_owned()]).is_err());
        assert!(Args::parse(&["--seed".to_owned()]).is_err());
    }

    #[test]
    fn vm_hwm_is_read_in_bytes() {
        assert_eq!(
            parse_vm_hwm("Name:\tx\nVmHWM:\t  778692 kB\n"),
            Some(778_692 * 1024)
        );
        assert!(peak_rss_bytes(std::process::id()).unwrap() > 0);
    }

    #[test]
    fn contract_object_has_exactly_the_four_keys() {
        let mut o = Outcome::new(&sample_args(false), "system");
        for &(name, _) in END_TO_END {
            o.set_metric(name, 1.5);
        }
        o.attempted = 3;
        o.check("x", true, String::new());
        let line = o.contract_json().to_line();
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(4.0));
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn a_failed_check_is_a_failed_op() {
        let mut o = Outcome::new(&sample_args(true), "counting");
        o.check("digest", false, "differs".to_owned());
        assert_eq!(o.failed_ops(), 1);
        assert!(!o.correct());
        // Unset per-layer metrics read 0 in a traced run.
        assert!(o.metrics().iter().all(|&(_, _, v)| v == 0.0));
    }

    #[test]
    fn declared_names_equal_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        let json = Json::parse(&text).expect("BENCHMARK.json is valid JSON");
        let pairs = |key: &str, second: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|row| {
                    let field = |k| {
                        row.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_owned()
                    };
                    (field("name"), field(second))
                })
                .collect()
        };
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(pairs("end_to_end", "unit"), owned(END_TO_END));
        assert_eq!(pairs("per_layer", "unit"), owned(PER_LAYER));
        let workloads: Vec<String> = pairs("workloads", "why").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        assert!(pairs("workloads", "why")
            .iter()
            .all(|w| !w.1.is_empty() && w.1.len() <= 200));
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in WORKLOADS {
            assert!(seen.insert(w), "{w} collides with a metric name");
        }
    }
}
