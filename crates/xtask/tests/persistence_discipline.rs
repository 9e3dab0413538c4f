//! Integration tests for the atomic-persistence layer: S1 fires exactly
//! on its fixture, sanctioned writer functions stay exempt, the audit
//! JSON carries exact S1 counts with tree-level W1 accounting for its
//! allows, and the committed tree keeps every checkpoint write on the
//! shared atomic path.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use xtask::lint_tree;
use xtask::persistence;
use xtask::rules::{classify, ALL_RULES};
use xtask::scan::scan;
use xtask::workspace::workspace_root;

fn all_rules() -> BTreeSet<String> {
    ALL_RULES.iter().map(|s| s.to_string()).collect()
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs the S1 checker over a fixture as though it lived at `as_path`,
/// with `fns` sanctioned, returning `(rule, line)` pairs.
fn fire_s1(name: &str, as_path: &str, fns: &str) -> Vec<(&'static str, u32)> {
    let p = persistence::parse(&format!("[persistence]\n\"{as_path}\" = \"{fns}\"\n"))
        .unwrap()
        .unwrap();
    let mut out = Vec::new();
    let mut used = BTreeSet::new();
    persistence::check_source(
        &classify(as_path),
        &scan(&fixture(name)),
        &p,
        &mut out,
        &mut used,
    );
    out.into_iter().map(|v| (v.rule, v.line)).collect()
}

#[test]
fn s1_fixture_fires_exactly() {
    // save_direct: fs::write, File::create, OpenOptions::new (lines
    // 9–11). atomic_write is sanctioned, load only reads, and the test
    // module is exempt.
    assert_eq!(
        fire_s1("s1.rs", "crates/core/src/s1.rs", "atomic_write"),
        vec![("S1", 9), ("S1", 10), ("S1", 11)]
    );
}

#[test]
fn unsanctioning_the_writer_makes_its_body_fire_too() {
    // With a different fn sanctioned, atomic_write's own File::create
    // (line 16) becomes a finding — the exemption is the declaration, not
    // the name.
    let fired = fire_s1("s1.rs", "crates/core/src/s1.rs", "other");
    assert_eq!(fired, vec![("S1", 9), ("S1", 10), ("S1", 11), ("S1", 16)]);
}

#[test]
fn undeclared_files_and_test_files_are_exempt() {
    let p = persistence::parse("[persistence]\n\"crates/core/src/other.rs\" = \"atomic\"\n")
        .unwrap()
        .unwrap();
    let mut out = Vec::new();
    let mut used = BTreeSet::new();
    persistence::check_source(
        &classify("crates/core/src/s1.rs"),
        &scan(&fixture("s1.rs")),
        &p,
        &mut out,
        &mut used,
    );
    assert!(out.is_empty(), "undeclared file fired: {out:?}");
    assert_eq!(
        fire_s1("s1.rs", "crates/core/tests/s1.rs", "atomic_write"),
        vec![]
    );
}

// --- end to end through the real binary -----------------------------------

fn xtask(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("spawn xtask")
}

/// A synthetic tree whose one library file is a declared persistence
/// module writing checkpoints directly.
fn persist_tree(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/core/src")).unwrap();
    fs::create_dir_all(root.join("crates/xtask")).unwrap();
    fs::write(
        root.join("crates/xtask/xtask.toml"),
        "[persistence]\n\"crates/core/src/lib.rs\" = \"atomic_write\"\n",
    )
    .unwrap();
    fs::write(root.join("crates/core/src/lib.rs"), fixture("s1.rs")).unwrap();
    root
}

#[test]
fn audit_json_carries_exact_s1_counts() {
    let root = persist_tree("s1-audit");
    let out = xtask(&["audit", "--json", "--root", root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "S1 violations must fail audit");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"schema\": \"segugio-audit/5\""), "{json}");
    assert!(json.contains("\"clean\": false"), "{json}");
    assert!(
        json.contains(
            "\"S1\": {\"violations\": 3, \"suppressions_used\": 0, \"suppressions_stale\": 0}"
        ),
        "{json}"
    );
    assert!(
        json.contains("{\"rule\": \"S1\", \"file\": \"crates/core/src/lib.rs\", \"line\": 9,"),
        "{json}"
    );
}

#[test]
fn live_s1_suppressions_count_and_stale_ones_fire_w1() {
    let root = persist_tree("s1-suppress");
    let src = fixture("s1.rs")
        .replace(
            "    let _ = fs::write(path, bytes);",
            "    // segugio-lint: allow(S1, lock file is advisory, torn content is fine)\n    let _ = fs::write(path, bytes);",
        )
        .replace(
            "    let _ = fs::rename(&tmp, path);",
            "    // segugio-lint: allow(S1, sanctioned body cannot fire so this is stale)\n    let _ = fs::rename(&tmp, path);",
        );
    fs::write(root.join("crates/core/src/lib.rs"), src).unwrap();
    let out = xtask(&["audit", "--json", "--root", root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.contains(
            "\"S1\": {\"violations\": 2, \"suppressions_used\": 1, \"suppressions_stale\": 1}"
        ),
        "{json}"
    );
    // The stale S1 allow is itself a W1 violation.
    assert!(json.contains("\"W1\": {\"violations\": 1,"), "{json}");
    assert!(json.contains("matches no S1 finding"), "{json}");
}

#[test]
fn trees_without_a_persistence_config_skip_s1() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("s1-unconfigured");
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/core/src")).unwrap();
    fs::write(root.join("crates/core/src/lib.rs"), fixture("s1.rs")).unwrap();
    let report = lint_tree(&root, &all_rules()).unwrap();
    assert!(
        report.violations.iter().all(|v| v.rule != "S1"),
        "{:?}",
        report.violations
    );
}

/// The committed tree declares the checkpoint module and must be S1-clean:
/// every write in `crates/core/src/checkpoint.rs` routes through the
/// sanctioned atomic writer, with nothing suppressed.
#[test]
fn committed_checkpoint_module_is_s1_clean() {
    let root = workspace_root();
    let declared = persistence::load(&root)
        .unwrap()
        .expect("[persistence] in crates/xtask/xtask.toml is checked in");
    assert!(
        declared
            .sanctioned("crates/core/src/checkpoint.rs")
            .is_some(),
        "the checkpoint module must be declared: {declared:?}"
    );
    let report = lint_tree(&root, &all_rules()).unwrap();
    let s1: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "S1")
        .collect();
    assert!(s1.is_empty(), "raw checkpoint writes in the tree: {s1:?}");
    let s1_allows: Vec<_> = report
        .suppressions
        .iter()
        .filter(|s| s.rule == "S1")
        .collect();
    assert!(
        s1_allows.is_empty(),
        "the atomic-write discipline must hold without suppressions: {s1_allows:?}"
    );
}
