//! S family — atomic-persistence discipline.
//!
//! Checkpoint state must never be written with a bare `fs::write` or
//! `File::create`: a crash mid-write leaves a torn file that the next
//! resume has to treat as corruption, and a rename-free write can destroy
//! the only good generation. The repo's sanctioned path is the shared
//! atomic writer in `crates/core/src/checkpoint.rs` (temp file + fsync +
//! rename), and this rule keeps every declared persistence module on it.
//!
//! The `[persistence]` section of the checked-in `crates/xtask/xtask.toml`
//! declares the persistence modules — `"crates/<c>/src/<f>.rs" = "fn fn …"`
//! entries, where the fn list names the *sanctioned writer functions*
//! allowed to touch the filesystem directly. One rule fires:
//!
//! * **S1** — a raw write entry point (`fs::write`, `File::create`,
//!   `OpenOptions::new`) in a declared persistence module *outside* its
//!   sanctioned writer functions: route the write through the shared
//!   atomic helper instead.
//!
//! S1 is suppressible with a reasoned allow comment (the same
//! `segugio-lint` syntax as every other family), tracked by W1.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::config;
use crate::rules::{FileClass, Violation};
use crate::scan::{matching_close, ScannedFile, Token};

/// The declared persistence modules: workspace-relative file -> sanctioned
/// writer function names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Persistence {
    /// `"crates/core/src/checkpoint.rs" -> {write_atomic, …}`-style map.
    pub persist: BTreeMap<String, BTreeSet<String>>,
}

impl Persistence {
    /// The sanctioned writer names declared for `path`, if any.
    pub fn sanctioned(&self, path: &str) -> Option<&BTreeSet<String>> {
        self.persist.get(path)
    }
}

/// Parses the `[persistence]` section of `xtask.toml`: `"file" = "fn fn …"`
/// entries. `Ok(None)` when the section is absent.
///
/// # Errors
///
/// Returns a message naming the offending line on malformed input.
pub fn parse(text: &str) -> Result<Option<Persistence>, String> {
    let Some(entries) = config::section(text, "persistence")? else {
        return Ok(None);
    };
    let mut persistence = Persistence::default();
    for entry in entries {
        let file = config::unquote(entry.key, entry.line, "file path")?;
        let fns = config::unquote(entry.value, entry.line, "fn list")?;
        let set: BTreeSet<String> = fns.split_whitespace().map(str::to_owned).collect();
        if set.is_empty() {
            return Err(format!("line {}: empty fn list for `{file}`", entry.line));
        }
        if persistence.persist.insert(file.to_owned(), set).is_some() {
            return Err(format!("line {}: duplicate file `{file}`", entry.line));
        }
    }
    Ok(Some(persistence))
}

/// Loads the `[persistence]` section of `<root>/crates/xtask/xtask.toml`.
/// Returns `Ok(None)` when the file or the section does not exist — trees
/// without declared persistence modules (synthetic test trees) simply
/// skip S1.
///
/// # Errors
///
/// Returns a message when the file exists but cannot be read or parsed.
pub fn load(root: &Path) -> Result<Option<Persistence>, String> {
    config::load(root, parse)
}

/// Token index ranges (half-open) of the bodies of the named functions.
/// For each `fn <name>` whose name is sanctioned, the body is the brace
/// group after the signature (skipping balanced `(…)`/`[…]` groups, so
/// parenthesized bounds in generics and the parameter list itself do not
/// confuse the walk).
fn sanctioned_bodies(tokens: &[Token], names: &BTreeSet<String>) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str());
    for i in 0..tokens.len() {
        if tokens[i].text != "fn" {
            continue;
        }
        if text(i + 1).filter(|n| names.contains(*n)).is_none() {
            continue;
        }
        let mut j = i + 2;
        let open = loop {
            match text(j) {
                Some("(") | Some("[") => j = matching_close(tokens, j) + 1,
                Some("{") => break Some(j),
                Some(";") | None => break None, // trait method declaration
                _ => j += 1,
            }
        };
        let Some(open) = open else { continue };
        out.push((open + 1, matching_close(tokens, open)));
    }
    out
}

/// The raw write entry points S1 watches: `(qualifier, method)` pairs
/// matched as `qualifier :: method` in the token stream.
const RAW_WRITES: &[(&str, &str)] = &[("fs", "write"), ("File", "create"), ("OpenOptions", "new")];

/// Runs S1 over one scanned source file. Only declared persistence modules
/// are in scope; raw write entry points inside the sanctioned writer
/// functions are the implementation of the atomic path and do not fire.
/// Suppressions are recorded in `used` for W1.
pub fn check_source(
    class: &FileClass,
    scanned: &ScannedFile,
    persistence: &Persistence,
    out: &mut Vec<Violation>,
    used: &mut BTreeSet<(u32, String)>,
) {
    let Some(names) = persistence.sanctioned(&class.path) else {
        return;
    };
    if class.is_test {
        return;
    }
    let tokens = &scanned.tokens;
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str());
    let sanctioned = sanctioned_bodies(tokens, names);
    let in_sanctioned = |k: usize| sanctioned.iter().any(|&(a, b)| a <= k && k < b);
    for (k, tok) in tokens.iter().enumerate() {
        let t = tok.text.as_str();
        let Some((qual, _)) = RAW_WRITES.iter().find(|(q, m)| {
            *m == t && k >= 2 && text(k - 1) == Some("::") && text(k - 2) == Some(*q)
        }) else {
            continue;
        };
        if in_sanctioned(k) {
            continue;
        }
        if crate::rules::suppressed(class, scanned, "S1", tok.line, used) {
            continue;
        }
        out.push(Violation {
            file: class.path.clone(),
            line: tok.line,
            rule: "S1",
            message: format!(
                "`{qual}::{t}` writes checkpoint state directly in a declared persistence module; route it through the sanctioned atomic writer (temp file + fsync + rename) — declared: {}",
                names.iter().cloned().collect::<Vec<_>>().join(", ")
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::classify;
    use crate::scan::scan;

    fn persist(text: &str) -> Persistence {
        parse(text).unwrap().unwrap()
    }

    fn check(path: &str, src: &str, p: &Persistence) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut used = BTreeSet::new();
        check_source(&classify(path), &scan(src), p, &mut out, &mut used);
        out.sort();
        out
    }

    #[test]
    fn parse_round_trips_persistence_modules() {
        let p = persist("[persistence]\n\"crates/core/src/checkpoint.rs\" = \"write_atomic\"\n");
        assert_eq!(
            p.sanctioned("crates/core/src/checkpoint.rs")
                .map(|s| s.len()),
            Some(1)
        );
        assert!(p.sanctioned("crates/core/src/model.rs").is_none());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("\"f\" = \"g\"").is_err(), "entry before section");
        assert!(parse("[persistence]\nf = \"g\"").is_err(), "unquoted file");
        assert!(
            parse("[persistence]\n\"f\" = bare").is_err(),
            "unquoted fn list"
        );
        assert!(
            parse("[persistence]\n\"f\" = \"\"").is_err(),
            "empty fn list"
        );
        assert!(
            parse("[persistence]\n\"f\" = \"g\"\n\"f\" = \"h\"").is_err(),
            "duplicate file"
        );
    }

    #[test]
    fn raw_writes_fire_outside_sanctioned_fns() {
        let p = persist("[persistence]\n\"crates/core/src/ckpt.rs\" = \"atomic\"\n");
        let src = "
fn save(path: &Path, bytes: &[u8]) {
    fs::write(path, bytes);
    let f = File::create(path);
    let o = OpenOptions::new();
}
fn atomic(path: &Path, bytes: &[u8]) {
    let f = File::create(path); // the sanctioned implementation
}";
        let v = check("crates/core/src/ckpt.rs", src, &p);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "S1"), "{v:?}");
        assert_eq!((v[0].line, v[1].line, v[2].line), (3, 4, 5));
    }

    #[test]
    fn undeclared_files_are_out_of_scope() {
        let p = persist("[persistence]\n\"crates/core/src/ckpt.rs\" = \"atomic\"\n");
        let src = "fn save(path: &Path) { fs::write(path, b\"x\"); }";
        assert!(check("crates/core/src/other.rs", src, &p).is_empty());
    }

    #[test]
    fn fully_qualified_paths_still_fire() {
        let p = persist("[persistence]\n\"crates/core/src/ckpt.rs\" = \"atomic\"\n");
        let src = "fn save(path: &Path) { std::fs::write(path, b\"x\"); }";
        let v = check("crates/core/src/ckpt.rs", src, &p);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "S1");
    }

    #[test]
    fn test_code_in_declared_files_is_exempt() {
        let p = persist("[persistence]\n\"crates/core/src/ckpt.rs\" = \"atomic\"\n");
        let src = "
fn lib() {}
#[cfg(test)]
mod tests {
    fn seed(path: &Path) { fs::write(path, b\"fixture\"); }
}";
        assert!(check("crates/core/src/ckpt.rs", src, &p).is_empty());
    }

    #[test]
    fn allows_suppress_and_are_recorded_as_used() {
        let p = persist("[persistence]\n\"crates/core/src/ckpt.rs\" = \"atomic\"\n");
        let src = "
fn save(path: &Path, bytes: &[u8]) {
    // segugio-lint: allow(S1, lock file is advisory, torn content is fine)
    fs::write(path, bytes);
}";
        let mut out = Vec::new();
        let mut used = BTreeSet::new();
        check_source(
            &classify("crates/core/src/ckpt.rs"),
            &scan(src),
            &p,
            &mut out,
            &mut used,
        );
        assert!(out.is_empty(), "{out:?}");
        assert!(used.contains(&(3, "S1".to_owned())), "{used:?}");
    }

    #[test]
    fn reads_never_fire() {
        let p = persist("[persistence]\n\"crates/core/src/ckpt.rs\" = \"atomic\"\n");
        let src = "
fn load(path: &Path) -> Vec<u8> {
    let meta = fs::metadata(path);
    let f = File::open(path);
    fs::read(path).unwrap_or_default()
}";
        assert!(check("crates/core/src/ckpt.rs", src, &p).is_empty());
    }
}
