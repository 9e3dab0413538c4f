//! Integration tests for the runtime allocation-budget ratchet — the
//! measured gate behind the hot-path allocation discipline: `audit` fails
//! on every drift class, and the committed budget matches the committed
//! measurement.

use std::fs;
use std::path::{Path, PathBuf};

fn xtask(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("spawn xtask")
}

// --- the allocation-budget ratchet, end to end ----------------------------

const CLEAN_LIB: &str = "pub fn f() -> u32 { 7 }\n";

fn budget_tree(name: &str, budget: Option<&str>, measured: Option<&str>) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/core/src")).unwrap();
    fs::create_dir_all(root.join("crates/xtask")).unwrap();
    fs::write(root.join("crates/core/src/lib.rs"), CLEAN_LIB).unwrap();
    if let Some(text) = budget {
        fs::write(root.join("crates/xtask/xtask.toml"), text).unwrap();
    }
    if let Some(text) = measured {
        fs::write(root.join("BENCH_alloc.json"), text).unwrap();
    }
    root
}

fn phase(name: &str, allocs: u64) -> String {
    format!("\"{name}\": {{\"allocs\": {allocs}, \"frees\": 0, \"bytes\": 64, \"peak_bytes\": 64}}")
}

fn measurement(phases: &[(&str, u64)]) -> String {
    let body: Vec<String> = phases.iter().map(|&(n, a)| phase(n, a)).collect();
    format!(
        "{{\"machines\": 100, \"phases\": {{{}}}}}\n",
        body.join(", ")
    )
}

#[test]
fn alloc_budget_respected_is_clean() {
    let root = budget_tree(
        "alloc-clean",
        Some("[alloc-budget]\n\"score\" = 0\n\"train\" = 10\n"),
        Some(&measurement(&[("score", 0), ("train", 7)])),
    );
    let out = xtask(&["audit", "--json", "--root", root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"budget_present\": true"), "{json}");
    assert!(json.contains("\"measured\": true"), "{json}");
    assert!(
        json.contains("{\"phase\": \"score\", \"budget\": 0, \"allocs\": 0,"),
        "{json}"
    );
}

#[test]
fn alloc_budget_over_ceiling_fails() {
    let root = budget_tree(
        "alloc-over",
        Some("[alloc-budget]\n\"score\" = 0\n"),
        Some(&measurement(&[("score", 3)])),
    );
    let out = xtask(&["audit", "--json", "--root", root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "allocs over budget must fail");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"clean\": false"), "{json}");
    assert!(
        json.contains("{\"phase\": \"score\", \"budget\": 0, \"measured\": 3}"),
        "{json}"
    );
}

#[test]
fn alloc_budget_stale_entry_fails() {
    // A budgeted phase the bench no longer measures: the phase was renamed
    // or removed, so the entry must be tightened out of the budget.
    let root = budget_tree(
        "alloc-stale",
        Some("[alloc-budget]\n\"score\" = 0\n\"gone\" = 5\n"),
        Some(&measurement(&[("score", 0)])),
    );
    let out = xtask(&["audit", "--json", "--root", root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stale budget entry must fail");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"stale\": [\"gone\"]"), "{json}");
}

#[test]
fn alloc_unbudgeted_phase_fails() {
    // Every measured warm-day phase must carry a documented ceiling.
    let root = budget_tree(
        "alloc-unbudgeted",
        Some("[alloc-budget]\n\"score\" = 0\n"),
        Some(&measurement(&[("score", 0), ("extra", 2)])),
    );
    let out = xtask(&["audit", "--json", "--root", root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.contains("{\"phase\": \"extra\", \"measured\": 2}"),
        "{json}"
    );
}

#[test]
fn alloc_budget_without_measurement_stays_clean() {
    // Most local runs never produce BENCH_alloc.json (the bench takes
    // minutes); an unmeasured budget must not fail the audit.
    let root = budget_tree(
        "alloc-unmeasured",
        Some("[alloc-budget]\n\"score\" = 0\n"),
        None,
    );
    let out = xtask(&["audit", "--json", "--root", root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"budget_present\": true"), "{json}");
    assert!(json.contains("\"measured\": false"), "{json}");
    assert!(json.contains("\"clean\": true"), "{json}");
}

#[test]
fn malformed_budget_or_measurement_is_io_error() {
    let root = budget_tree("alloc-bad-budget", Some("\"score\" = 0\n"), None);
    assert_eq!(
        xtask(&["audit", "--root", root.to_str().unwrap()])
            .status
            .code(),
        Some(3),
        "an entry outside any section is an I/O-class failure"
    );
    let root = budget_tree(
        "alloc-bad-measure",
        Some("[alloc-budget]\n\"score\" = 0\n"),
        Some("{\"machines\": 1}\n"),
    );
    assert_eq!(
        xtask(&["audit", "--root", root.to_str().unwrap()])
            .status
            .code(),
        Some(3),
        "measurement without phases is an I/O-class failure"
    );
}

#[test]
fn committed_budget_matches_the_committed_measurement() {
    // The checked-in BENCH_alloc.json must respect the checked-in budget,
    // the score phase must be pinned at exactly zero, and every measured
    // phase must carry a ceiling.
    let root = xtask::workspace::workspace_root();
    let budget = xtask::allocbudget::load(&root)
        .unwrap()
        .expect("[alloc-budget] in crates/xtask/xtask.toml is checked in");
    assert_eq!(
        budget.phases.get("score"),
        Some(&0),
        "steady-state scoring must be budgeted at zero allocations"
    );
    let measured = xtask::allocbudget::load_measured(&root)
        .unwrap()
        .expect("BENCH_alloc.json is checked in");
    let drift = xtask::allocbudget::compare(&budget, &measured);
    assert!(drift.is_clean(), "committed alloc state drifted: {drift:?}");
    let score = measured.phases.get("score").expect("score phase measured");
    assert_eq!(
        (score.allocs, score.frees),
        (0, 0),
        "score phase: {score:?}"
    );
}
