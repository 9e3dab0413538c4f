//! `xtask` — workspace automation for the Segugio repo.
//!
//! Two tasks share one static-analysis engine:
//!
//! * `lint` — enforce the invariants no compiler-integrated gate covers:
//!   hash-order determinism and parallel-closure discipline (see
//!   [`rules`]), crate layering (see [`layering`]), atomic persistence
//!   (see [`persistence`]), and the hygiene of the suppressions themselves.
//! * `audit` — emit the same pass, plus the runtime allocation-budget
//!   ratchet (see [`allocbudget`]), as a deterministic machine-readable
//!   report (see [`audit`]), uploaded as a CI artifact on every run.
//!
//! ```text
//! cargo run -p xtask -- lint  [--list] [--rules D1,P1,…] [--root DIR]
//! cargo run -p xtask -- audit [--json] [--out FILE] [--rules D1,P1,…] [--root DIR]
//! ```
//!
//! Both tasks share one exit-code table (pinned by integration test):
//! `0` clean, `1` violations, `2` usage, `3` I/O.

pub mod allocbudget;
pub mod audit;
pub mod config;
pub mod layering;
pub mod persistence;
pub mod rules;
pub mod scan;
pub mod workspace;

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

pub use rules::Suppression;
use rules::{TreeChecks, Violation};

/// Exit code: no findings.
pub const EXIT_CLEAN: i32 = 0;
/// Exit code: lint findings or (audit) allocation-budget drift.
pub const EXIT_VIOLATIONS: i32 = 1;
/// Exit code: unknown task, flag, or malformed value.
pub const EXIT_USAGE: i32 = 2;
/// Exit code: unreadable tree/config or unwritable output.
pub const EXIT_IO: i32 = 3;

const USAGE: &str = "\
xtask — workspace automation for the Segugio repo

USAGE:
    cargo run -p xtask -- <TASK> [OPTIONS]

TASKS:
    lint     enforce the determinism/concurrency/layering/persistence rules
             (D1 P1 P2 A1 S1 W1; configured by crates/xtask/xtask.toml)
    audit    emit the same pass, plus the allocation-budget ratchet, as a
             deterministic JSON report (segugio-audit/5)
    help     print this message

COMMON OPTIONS (lint and audit):
    --root DIR         workspace root to scan (default: this workspace)
    --rules A,B,…      enable only the named rules (default: all)

LINT OPTIONS:
    --list             print every violation, not just the per-rule counts

AUDIT OPTIONS:
    --json             print the JSON report to stdout
    --out FILE         also write the JSON report to FILE

EXIT CODES (shared by lint and audit):
    0    clean — no findings
    1    violations — any lint finding; for audit also any
         allocation-budget drift ([alloc-budget] vs BENCH_alloc.json)
    2    usage — unknown task, flag, or malformed value
    3    io — unreadable tree or config, or unwritable output
";

/// Options shared by `lint` and `audit`, plus each task's own flags.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Enabled rules.
    pub rules: BTreeSet<String>,
    /// `lint`: print every violation, not just the per-rule counts.
    pub list: bool,
    /// `audit`: print the JSON report to stdout.
    pub json: bool,
    /// `audit`: also write the JSON report to this path.
    pub out: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            root: workspace::workspace_root(),
            rules: rules::ALL_RULES.iter().map(|s| s.to_string()).collect(),
            list: false,
            json: false,
            out: None,
        }
    }
}

/// Parses a `--rules` list into a validated rule set.
fn parse_rules(list: &str) -> Result<BTreeSet<String>, String> {
    let mut selected = BTreeSet::new();
    for rule in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if !rules::ALL_RULES.contains(&rule) {
            return Err(format!(
                "unknown rule `{rule}` (known: {})",
                rules::ALL_RULES.join(", ")
            ));
        }
        selected.insert(rule.to_owned());
    }
    if selected.is_empty() {
        return Err("--rules selected no rules".to_owned());
    }
    Ok(selected)
}

impl Options {
    /// Parses the arguments of `task` (`"lint"` or `"audit"`).
    ///
    /// # Errors
    ///
    /// Returns a usage message on flags the task does not take or
    /// malformed values.
    pub fn parse(task: &str, args: &[String]) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{arg} needs a value"))
            };
            match (task, arg.as_str()) {
                (_, "--root") => opts.root = PathBuf::from(value()?),
                (_, "--rules") => opts.rules = parse_rules(&value()?)?,
                ("lint", "--list") => opts.list = true,
                ("audit", "--json") => opts.json = true,
                ("audit", "--out") => opts.out = Some(PathBuf::from(value()?)),
                (_, other) => return Err(format!("unknown {task} flag `{other}`")),
            }
        }
        Ok(opts)
    }
}

/// The full result of a lint pass over a tree.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Every (unsuppressed) violation found, sorted.
    pub violations: Vec<Violation>,
    /// Every judged allow-comment site in non-test code, with usage state.
    pub suppressions: Vec<Suppression>,
}

impl LintReport {
    /// Number of violations of `rule`.
    pub fn count(&self, rule: &str) -> usize {
        self.violations.iter().filter(|v| v.rule == rule).count()
    }
}

/// Lints every workspace source file under `root` with the given rules.
///
/// A1 and S1 run only when their section of `crates/xtask/xtask.toml`
/// exists; trees without it (synthetic test trees) skip them silently.
///
/// # Errors
///
/// Returns an I/O error message if the tree or the config cannot be read.
pub fn lint_tree(root: &Path, enabled: &BTreeSet<String>) -> Result<LintReport, String> {
    let checks = TreeChecks {
        layering: layering::load(root)?.filter(|_| enabled.contains("A1")),
        persistence: persistence::load(root)?.filter(|_| enabled.contains("S1")),
    };
    let files = workspace::rust_files(root)?;
    let mut violations = Vec::new();
    let mut suppressions = Vec::new();
    if let Some(dag) = &checks.layering {
        violations.extend(layering::check_manifests(root, dag)?);
    }
    for rel in &files {
        let src =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))?;
        let lint =
            rules::lint_file_full(&rules::classify(rel), &scan::scan(&src), enabled, &checks);
        violations.extend(lint.violations);
        suppressions.extend(lint.suppressions);
    }
    violations.sort();
    suppressions.sort();
    Ok(LintReport {
        files_scanned: files.len(),
        violations,
        suppressions,
    })
}

/// Runs the `lint` subcommand end to end, printing to stdout.
/// Returns the process exit code.
pub fn run_lint(opts: &Options) -> i32 {
    let report = match lint_tree(&opts.root, &opts.rules) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_IO;
        }
    };
    print_summary(&report, &opts.rules);
    if opts.list {
        for v in &report.violations {
            println!("{}:{}: {} {}", v.file, v.line, v.rule, v.message);
        }
    }
    if report.violations.is_empty() {
        println!("\nOK: no violations");
        EXIT_CLEAN
    } else {
        println!(
            "\n{} violations (`--list` prints each site): fix them, or add\n\
             `// segugio-lint: allow(RULE, reason)` where the pattern is genuinely safe.",
            report.violations.len()
        );
        EXIT_VIOLATIONS
    }
}

/// Runs the `audit` subcommand end to end. Returns the process exit code.
pub fn run_audit(opts: &Options) -> i32 {
    let (report, alloc) = match lint_tree(&opts.root, &opts.rules)
        .and_then(|report| allocbudget::evaluate(&opts.root).map(|alloc| (report, alloc)))
    {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_IO;
        }
    };
    let json = audit::render_json(&report, &opts.rules, &alloc);

    if let Some(out_path) = &opts.out {
        if let Err(e) = fs::write(out_path, &json) {
            eprintln!("error: cannot write {}: {e}", out_path.display());
            return EXIT_IO;
        }
    }
    if opts.json {
        print!("{json}");
    } else {
        print_summary(&report, &opts.rules);
        let stale = report.suppressions.iter().filter(|s| !s.used).count();
        println!(
            "  suppressions: {} total, {} stale",
            report.suppressions.len(),
            stale
        );
        match (&alloc.budget, &alloc.measured) {
            (Some(b), Some(_)) => {
                println!(
                    "  alloc budget: {} phases, {} over, {} stale, {} unbudgeted",
                    b.phases.len(),
                    alloc.drift.over.len(),
                    alloc.drift.stale.len(),
                    alloc.drift.unbudgeted.len()
                );
            }
            (Some(b), None) => {
                println!(
                    "  alloc budget: {} phases, unmeasured (run the alloc bench with \
                     SEGUGIO_BENCH_OUT=BENCH_alloc.json to check)",
                    b.phases.len()
                );
            }
            _ => {}
        }
        if let Some(out_path) = &opts.out {
            println!("wrote {}", out_path.display());
        }
    }
    if report.violations.is_empty() && alloc.is_clean() {
        EXIT_CLEAN
    } else {
        EXIT_VIOLATIONS
    }
}

/// Prints the per-rule violation summary table.
fn print_summary(report: &LintReport, enabled: &BTreeSet<String>) {
    println!("segugio-lint: scanned {} files", report.files_scanned);
    println!("  {:<6} {:>10}", "rule", "violations");
    for rule in rules::ALL_RULES {
        if enabled.contains(*rule) {
            println!("  {:<6} {:>10}", rule, report.count(rule));
        }
    }
}

/// Top-level CLI entry: dispatches subcommands. Returns the exit code.
pub fn run(args: &[String]) -> i32 {
    let task = args.first().map(String::as_str);
    match task {
        Some(task @ ("lint" | "audit")) => match Options::parse(task, &args[1..]) {
            Ok(opts) if task == "lint" => run_lint(&opts),
            Ok(opts) => run_audit(&opts),
            Err(e) => {
                eprintln!("error: {e}");
                eprint!("{USAGE}");
                EXIT_USAGE
            }
        },
        Some("help" | "--help" | "-h") => {
            print!("{USAGE}");
            EXIT_CLEAN
        }
        Some(other) => {
            eprintln!("error: unknown task `{other}` (available: lint, audit, help)");
            EXIT_USAGE
        }
        None => {
            eprint!("{USAGE}");
            EXIT_USAGE
        }
    }
}
