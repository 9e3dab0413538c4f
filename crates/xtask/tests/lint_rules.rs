//! Integration tests for the linter: each rule fires exactly on its
//! fixture, the committed tree is violation-free, and the CLI exit codes
//! behave end to end on an injected-violation tree.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use xtask::rules::{classify, lint_file, ALL_RULES};
use xtask::scan::scan;
use xtask::workspace::workspace_root;
use xtask::{lint_tree, run_lint, Options};

fn all_rules() -> BTreeSet<String> {
    ALL_RULES.iter().map(|s| s.to_string()).collect()
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints a fixture as though it lived at `as_path`, returning `(rule, line)`
/// pairs in report order.
fn fire(name: &str, as_path: &str) -> Vec<(&'static str, u32)> {
    lint_file(&classify(as_path), &scan(&fixture(name)), &all_rules())
        .into_iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

#[test]
fn d1_fixture_fires_exactly() {
    // Line 5: `m.keys()` collected into an ordered Vec with no sort.
    // Line 11: `for … in m` observing hash order directly.
    // The sorted and commutative functions must not fire.
    assert_eq!(
        fire("d1.rs", "crates/eval/src/d1.rs"),
        vec![("D1", 5), ("D1", 11)]
    );
}

#[test]
fn allow_comments_suppress_with_reasons() {
    assert_eq!(fire("allows.rs", "crates/core/src/allows.rs"), vec![]);
    // The same code without its allow comments must fire — proving the
    // comments (not the patterns) are what suppresses.
    let stripped: String = fixture("allows.rs")
        .lines()
        .filter(|l| !l.trim_start().starts_with("// segugio-lint:"))
        .map(|l| format!("{l}\n"))
        .collect();
    let fired = lint_file(
        &classify("crates/core/src/allows.rs"),
        &scan(&stripped),
        &all_rules(),
    );
    let rules: Vec<&str> = fired.iter().map(|v| v.rule).collect();
    assert_eq!(rules, vec!["D1", "P1"], "{fired:?}");
}

#[test]
fn p1_fixture_fires_exactly() {
    // borrow_mut inside the closure, a Relaxed atomic op, and a push on a
    // captured Vec; the disjoint per-index slot pattern must not fire.
    assert_eq!(
        fire("p1.rs", "crates/core/src/p1.rs"),
        vec![("P1", 8), ("P1", 17), ("P1", 26)]
    );
}

#[test]
fn p2_fixture_fires_exactly() {
    // Shared float accumulators fire P2 (both literal-inferred and
    // annotated); the integer accumulator is a plain P1 capture mutation;
    // the ordered-buffer serial reduce is the sanctioned pattern.
    assert_eq!(
        fire("p2.rs", "crates/core/src/p2.rs"),
        vec![("P2", 9), ("P2", 18), ("P1", 27)]
    );
}

#[test]
fn w1_fixture_fires_exactly() {
    // The allow that suppresses nothing fires, and so do the two naming no
    // rule (a retired family, a typo); the live D1 allow and the prose
    // quoting the `allow(RULE, …)` syntax are spared.
    assert_eq!(
        fire("w1.rs", "crates/core/src/w1.rs"),
        vec![("W1", 15), ("W1", 25), ("W1", 26)]
    );
}

#[test]
fn clean_fixture_is_silent_everywhere() {
    for path in [
        "crates/core/src/clean.rs",
        "crates/ingest/src/clean.rs",
        "crates/eval/src/clean.rs",
        "suite/clean.rs",
    ] {
        assert_eq!(fire("clean.rs", path), vec![], "path {path}");
    }
}

/// The committed tree must be violation-free — in particular (the W1
/// unknown-rule case) no comment naming a retired family survives — and
/// carries exactly one reasoned suppression, live.
#[test]
fn committed_tree_is_clean_with_only_live_d1_p1_suppressions() {
    let report = lint_tree(&workspace_root(), &all_rules()).unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let sites: Vec<(&str, &str, bool)> = report
        .suppressions
        .iter()
        .map(|s| (s.file.as_str(), s.rule.as_str(), s.used))
        .collect();
    assert_eq!(
        sites,
        vec![("crates/eval/src/experiments/dataset.rs", "D1", true)]
    );
}

// --- end-to-end exit codes on a synthetic tree ---------------------------

const CLEAN_LIB: &str = "pub fn f() -> u32 { 7 }\n";
const ONE_VIOLATION: &str = "pub fn keys(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {
    m.keys().copied().collect()
}
";

fn synthetic_tree(name: &str, lib_src: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    let src = root.join("crates/core/src");
    fs::create_dir_all(&src).unwrap();
    fs::write(src.join("lib.rs"), lib_src).unwrap();
    root
}

fn opts(root: &Path) -> Options {
    Options {
        root: root.to_path_buf(),
        ..Options::default()
    }
}

// --- the shared exit-code table, pinned through the real binary ----------

fn xtask(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("spawn xtask")
}

#[test]
fn exit_code_table_is_pinned_end_to_end() {
    let root = synthetic_tree("exit-table", CLEAN_LIB);
    let root_str = root.to_str().unwrap();

    // 0 clean — for lint and audit alike.
    assert_eq!(xtask(&["lint", "--root", root_str]).status.code(), Some(0));
    assert_eq!(xtask(&["audit", "--root", root_str]).status.code(), Some(0));

    // help documents the table and exits 0.
    let help = xtask(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let text = String::from_utf8_lossy(&help.stdout);
    for needle in [
        "EXIT CODES",
        "0    clean",
        "1    violations",
        "2    usage",
        "3    io",
    ] {
        assert!(text.contains(needle), "help is missing `{needle}`:\n{text}");
    }

    // 1 violations — and `--list` names the site; disabling the one
    // firing rule is clean again.
    fs::write(root.join("crates/core/src/lib.rs"), ONE_VIOLATION).unwrap();
    let listed = xtask(&["lint", "--list", "--root", root_str]);
    assert_eq!(listed.status.code(), Some(1));
    let text = String::from_utf8_lossy(&listed.stdout);
    assert!(text.contains("crates/core/src/lib.rs:2: D1 "), "{text}");
    assert_eq!(xtask(&["audit", "--root", root_str]).status.code(), Some(1));
    assert_eq!(
        xtask(&["lint", "--rules", "P1,W1", "--root", root_str])
            .status
            .code(),
        Some(0)
    );

    // 2 usage — unknown task, unknown or retired flag, a flag of the
    // other task, retired or malformed rule names.
    assert_eq!(xtask(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(xtask(&["lint", "--bogus"]).status.code(), Some(2));
    assert_eq!(xtask(&["lint", "--strict"]).status.code(), Some(2));
    assert_eq!(xtask(&["lint", "--json"]).status.code(), Some(2));
    assert_eq!(xtask(&["audit", "--list"]).status.code(), Some(2));
    assert_eq!(xtask(&["audit", "--rules", "Z9"]).status.code(), Some(2));
    assert_eq!(xtask(&["audit", "--rules", "H4"]).status.code(), Some(2));
    assert_eq!(xtask(&["audit", "--root"]).status.code(), Some(2));
    assert_eq!(xtask(&[]).status.code(), Some(2));

    // 3 io — unreadable tree.
    let missing = root.join("no-such-dir");
    let missing = missing.to_str().unwrap();
    assert_eq!(xtask(&["lint", "--root", missing]).status.code(), Some(3));
    assert_eq!(xtask(&["audit", "--root", missing]).status.code(), Some(3));
}

// --- audit: deterministic JSON report ------------------------------------

#[test]
fn audit_json_is_byte_identical_across_runs() {
    let root = workspace_root();
    let root_str = root.to_str().unwrap();
    let a = xtask(&["audit", "--json", "--root", root_str]);
    let b = xtask(&["audit", "--json", "--root", root_str]);
    assert_eq!(
        a.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&a.stderr)
    );
    assert_eq!(a.stdout, b.stdout, "audit --json must be deterministic");
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("\"schema\": \"segugio-audit/5\""), "{text}");
    assert!(text.contains("\"clean\": true"), "{text}");
}

#[test]
fn audit_out_writes_the_report_file() {
    let root = synthetic_tree("audit-out", CLEAN_LIB);
    let out_path = root.join("audit.json");
    let status = xtask(&[
        "audit",
        "--root",
        root.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert_eq!(status.status.code(), Some(0));
    let json = fs::read_to_string(&out_path).unwrap();
    assert!(json.contains("\"files_scanned\": 1"), "{json}");
}

// --- A1 end to end: a deliberate layering violation ----------------------

/// Builds a tree whose `graph` crate illegally reaches up into `eval`,
/// both in its manifest and in source.
fn layered_tree(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/xtask")).unwrap();
    fs::write(
        root.join("crates/xtask/xtask.toml"),
        "[layering]\neval = \"model graph\"\ngraph = \"model\"\nmodel = \"\"\n",
    )
    .unwrap();
    for (krate, deps) in [
        ("model", ""),
        ("eval", "segugio-model = { path = \"../model\" }\n"),
        (
            "graph",
            "segugio-model = { path = \"../model\" }\nsegugio-eval = { path = \"../eval\" }\n",
        ),
    ] {
        let dir = root.join("crates").join(krate);
        fs::create_dir_all(dir.join("src")).unwrap();
        fs::write(
            dir.join("Cargo.toml"),
            format!("[package]\nname = \"segugio-{krate}\"\n\n[dependencies]\n{deps}"),
        )
        .unwrap();
        fs::write(dir.join("src/lib.rs"), "pub fn f() -> u32 { 7 }\n").unwrap();
    }
    fs::write(
        root.join("crates/graph/src/lib.rs"),
        "use segugio_eval::f;\npub fn g() -> u32 { f() }\n",
    )
    .unwrap();
    root
}

#[test]
fn layering_violations_fire_in_manifest_and_source() {
    let root = layered_tree("layering-e2e");
    let report = lint_tree(&root, &all_rules()).unwrap();
    let fired: Vec<(&str, &str, u32)> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.file.as_str(), v.line))
        .collect();
    assert_eq!(
        fired,
        vec![
            ("A1", "crates/graph/Cargo.toml", 6),
            ("A1", "crates/graph/src/lib.rs", 1),
        ],
        "{:?}",
        report.violations
    );
    assert_eq!(run_lint(&opts(&root)), 1);
}

#[test]
fn undeclared_crates_must_join_the_dag() {
    let root = layered_tree("layering-undeclared");
    let dir = root.join("crates/rogue");
    fs::create_dir_all(dir.join("src")).unwrap();
    fs::write(
        dir.join("Cargo.toml"),
        "[package]\nname = \"segugio-rogue\"\n",
    )
    .unwrap();
    fs::write(dir.join("src/lib.rs"), "pub fn f() -> u32 { 7 }\n").unwrap();
    let report = lint_tree(&root, &all_rules()).unwrap();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "A1" && v.file == "crates/rogue/Cargo.toml" && v.line == 1),
        "{:?}",
        report.violations
    );
}

#[test]
fn stale_a1_allows_fire_w1_at_tree_level() {
    let root = layered_tree("layering-stale-allow");
    // Legal edge (eval -> model) carrying a pointless A1 allow: the allow
    // suppresses nothing, so W1 must flag it even though A1 itself only
    // runs at tree level.
    fs::write(
        root.join("crates/eval/src/lib.rs"),
        "// segugio-lint: allow(A1, this edge is legal so this comment is stale)\nuse segugio_model::f;\npub fn g() -> u32 { f() }\n",
    )
    .unwrap();
    // Make the graph crate legal so only the stale allow remains.
    fs::write(
        root.join("crates/graph/Cargo.toml"),
        "[package]\nname = \"segugio-graph\"\n\n[dependencies]\nsegugio-model = { path = \"../model\" }\n",
    )
    .unwrap();
    fs::write(
        root.join("crates/graph/src/lib.rs"),
        "pub fn f() -> u32 { 7 }\n",
    )
    .unwrap();
    let report = lint_tree(&root, &all_rules()).unwrap();
    let fired: Vec<(&str, &str, u32)> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.file.as_str(), v.line))
        .collect();
    assert_eq!(
        fired,
        vec![("W1", "crates/eval/src/lib.rs", 1)],
        "{:?}",
        report.violations
    );
    // And the suppression inventory reports it as unused.
    let stale: Vec<_> = report.suppressions.iter().filter(|s| !s.used).collect();
    assert_eq!(stale.len(), 1, "{:?}", report.suppressions);
    assert_eq!(stale[0].rule, "A1");
}
