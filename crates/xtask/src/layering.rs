//! A1 — crate-layering enforcement.
//!
//! The workspace is layered: parsing and data-model crates at the bottom,
//! the detection engine above them, evaluation and benchmarking on top.
//! The allowed dependency DAG is checked in as the `[layering]` section of
//! `crates/xtask/xtask.toml` and enforced from two directions:
//!
//! 1. **Manifest edges** — every `segugio-*` entry in a crate's
//!    `[dependencies]` section must be an allowed edge
//!    (`[dev-dependencies]` are exempt: tests may reach across layers).
//! 2. **Source edges** — every `segugio_*` path mention in a crate's
//!    non-test `src/` code must be an allowed edge, catching `use`
//!    statements that sneak in ahead of the manifest (or macro-side
//!    couplings the manifest never shows).
//!
//! A crate that is missing from the DAG entirely is itself a violation, so
//! new crates must declare their layer when they are born.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::config;
use crate::rules::{FileClass, Violation};
use crate::scan::ScannedFile;

/// The allowed dependency DAG: crate short name -> allowed dep short names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Layering {
    /// `graph -> {model}`-style adjacency, by crate short name.
    pub allowed: BTreeMap<String, BTreeSet<String>>,
}

impl Layering {
    /// Whether `krate` may depend on `dep`.
    pub fn permits(&self, krate: &str, dep: &str) -> bool {
        self.allowed
            .get(krate)
            .is_some_and(|deps| deps.contains(dep))
    }

    /// Whether `krate` is declared in the DAG at all.
    pub fn declares(&self, krate: &str) -> bool {
        self.allowed.contains_key(krate)
    }
}

/// Parses the `[layering]` section of `xtask.toml`: `name = "dep dep …"`
/// entries. `Ok(None)` when the section is absent.
///
/// # Errors
///
/// Returns a message naming the offending line on malformed input.
pub fn parse(text: &str) -> Result<Option<Layering>, String> {
    let Some(entries) = config::section(text, "layering")? else {
        return Ok(None);
    };
    let mut layering = Layering::default();
    for entry in entries {
        if entry.key.is_empty() {
            return Err(format!("line {}: empty crate name", entry.line));
        }
        let deps = config::unquote(entry.value, entry.line, "dep list")?;
        let set: BTreeSet<String> = deps.split_whitespace().map(str::to_owned).collect();
        if layering.allowed.insert(entry.key.to_owned(), set).is_some() {
            return Err(format!(
                "line {}: duplicate crate `{}`",
                entry.line, entry.key
            ));
        }
    }
    Ok(Some(layering))
}

/// Loads the `[layering]` section of `<root>/crates/xtask/xtask.toml`.
/// Returns `Ok(None)` when the file or the section does not exist — trees
/// without a DAG (synthetic test trees) simply skip A1.
///
/// # Errors
///
/// Returns a message when the file exists but cannot be read or parsed.
pub fn load(root: &Path) -> Result<Option<Layering>, String> {
    config::load(root, parse)
}

/// The crate short name owning a workspace-relative source path, for paths
/// of the form `crates/<name>/src/…`.
pub fn crate_of_source(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

/// Checks every `crates/*/Cargo.toml` `[dependencies]` section against the
/// DAG. Violations anchor at the manifest line declaring the bad edge.
///
/// # Errors
///
/// Returns a message if the crates directory cannot be read.
pub fn check_manifests(root: &Path, layering: &Layering) -> Result<Vec<Violation>, String> {
    let crates_dir = root.join("crates");
    let mut names: Vec<String> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|entry| {
            let entry = entry.ok()?;
            entry
                .path()
                .is_dir()
                .then(|| entry.file_name().to_string_lossy().into_owned())
        })
        .collect();
    names.sort();

    let mut out = Vec::new();
    for name in names {
        let manifest = crates_dir.join(&name).join("Cargo.toml");
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue; // not a crate directory
        };
        let rel = format!("crates/{name}/Cargo.toml");
        if !layering.declares(&name) {
            out.push(Violation {
                file: rel,
                line: 1,
                rule: "A1",
                message: format!(
                    "crate `{name}` is not declared in crates/xtask/xtask.toml; add it to the [layering] DAG"
                ),
            });
            continue;
        }
        let mut in_dependencies = false;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if let Some(section) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                in_dependencies = section.trim() == "dependencies";
                continue;
            }
            if !in_dependencies {
                continue;
            }
            // Package names use hyphens where crate directories (and the
            // DAG keys) use underscores: `segugio-alloc-probe` lives in
            // `crates/alloc_probe`.
            let Some(dep) = line.strip_prefix("segugio-").map(|rest| {
                rest.split(['.', ' ', '='])
                    .next()
                    .unwrap_or("")
                    .replace('-', "_")
            }) else {
                continue;
            };
            if !dep.is_empty() && !layering.permits(&name, &dep) {
                out.push(Violation {
                    file: rel.clone(),
                    line: u32::try_from(idx + 1).unwrap_or(u32::MAX),
                    rule: "A1",
                    message: format!(
                        "crate `{name}` must not depend on `segugio-{dep}` (edge absent from the layering DAG)"
                    ),
                });
            }
        }
    }
    Ok(out)
}

/// Checks one scanned source file's `segugio_*` path mentions against the
/// DAG. Only non-test code under `crates/<name>/src/` is in scope; one
/// violation is reported per (file, dep) at its first mention. Allow
/// comments that suppress an edge are recorded in `used` for W1.
pub fn check_source(
    class: &FileClass,
    scanned: &ScannedFile,
    layering: &Layering,
    out: &mut Vec<Violation>,
    used: &mut BTreeSet<(u32, String)>,
) {
    let Some(krate) = crate_of_source(&class.path) else {
        return;
    };
    if class.is_test || !layering.declares(krate) {
        return;
    }
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for (i, tok) in scanned.tokens.iter().enumerate() {
        let Some(dep) = tok.text.strip_prefix("segugio_") else {
            continue;
        };
        // Only path usage (`segugio_x::…`) is a dependency edge; plain
        // identifiers like a `segugio_roc` field are not crate references.
        if scanned.tokens.get(i + 1).map(|t| t.text.as_str()) != Some("::") {
            continue;
        }
        if dep.is_empty() || dep == krate || seen.contains(dep) || scanned.is_test_line(tok.line) {
            continue;
        }
        if layering.permits(krate, dep) {
            continue;
        }
        if let Some(allow_line) = scanned.allow_line("A1", tok.line) {
            used.insert((allow_line, "A1".to_owned()));
            continue;
        }
        seen.insert(dep);
        out.push(Violation {
            file: class.path.clone(),
            line: tok.line,
            rule: "A1",
            message: format!(
                "`segugio_{dep}` used from crate `{krate}`: edge absent from the layering DAG (crates/xtask/xtask.toml)"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::classify;
    use crate::scan::scan;

    fn dag(text: &str) -> Layering {
        parse(text).unwrap().unwrap()
    }

    #[test]
    fn parse_round_trips_the_adjacency() {
        let l = dag("[layering]\nmodel = \"\"\ngraph = \"model\"\ncore = \"model graph\"\n");
        assert!(l.permits("graph", "model"));
        assert!(!l.permits("graph", "core"));
        assert!(l.declares("model"));
        assert!(!l.declares("eval"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("model = \"\"").is_err(), "entry before section");
        assert!(parse("[layering]\nmodel = bare").is_err(), "unquoted list");
        assert!(
            parse("[layering]\nmodel = \"\"\nmodel = \"\"").is_err(),
            "duplicate crate"
        );
    }

    #[test]
    fn crate_of_source_only_matches_lib_paths() {
        assert_eq!(
            crate_of_source("crates/graph/src/builder.rs"),
            Some("graph")
        );
        assert_eq!(crate_of_source("crates/graph/tests/prop.rs"), None);
        assert_eq!(crate_of_source("suite/lib.rs"), None);
    }

    #[test]
    fn source_mentions_outside_the_dag_are_flagged() {
        let l = dag("[layering]\ngraph = \"model\"\n");
        let src = "use segugio_model::Day;\nuse segugio_eval::Report;\n";
        let mut out = Vec::new();
        let mut used = BTreeSet::new();
        check_source(
            &classify("crates/graph/src/x.rs"),
            &scan(src),
            &l,
            &mut out,
            &mut used,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "A1");
        assert_eq!(out[0].line, 2);
        assert!(out[0].message.contains("segugio_eval"));
        assert!(used.is_empty());
    }

    #[test]
    fn allow_comments_suppress_and_are_recorded_as_used() {
        let l = dag("[layering]\ngraph = \"model\"\n");
        let src = "// segugio-lint: allow(A1, transitional edge, tracked in the migration issue)\nuse segugio_eval::Report;\n";
        let mut out = Vec::new();
        let mut used = BTreeSet::new();
        check_source(
            &classify("crates/graph/src/x.rs"),
            &scan(src),
            &l,
            &mut out,
            &mut used,
        );
        assert!(out.is_empty(), "{out:?}");
        assert!(used.contains(&(1, "A1".to_owned())), "{used:?}");
    }

    #[test]
    fn plain_identifiers_are_not_dependency_edges() {
        let l = dag("[layering]\ngraph = \"model\"\n");
        let src = "struct S { segugio_eval: f64 }\nfn f(s: &S) -> f64 { s.segugio_eval }\n";
        let mut out = Vec::new();
        check_source(
            &classify("crates/graph/src/x.rs"),
            &scan(src),
            &l,
            &mut out,
            &mut BTreeSet::new(),
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_code_may_reach_across_layers() {
        let l = dag("[layering]\ngraph = \"model\"\n");
        let src = "#[cfg(test)]\nmod tests {\n    use segugio_eval::Report;\n}\n";
        let mut out = Vec::new();
        check_source(
            &classify("crates/graph/src/x.rs"),
            &scan(src),
            &l,
            &mut out,
            &mut BTreeSet::new(),
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
