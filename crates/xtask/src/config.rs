//! The one checked-in config, `crates/xtask/xtask.toml`.
//!
//! A deliberately tiny TOML subset, parsed without any external
//! dependency: `[section]` headers holding `key = value` entries and `#`
//! comments. Each check reads its own section ([`crate::layering`],
//! [`crate::persistence`], [`crate::allocbudget`]); a tree without the
//! file, or without a section, skips that check (synthetic test trees).

use std::fs;
use std::path::Path;

/// Workspace-relative path of the config file.
pub const PATH: &str = "crates/xtask/xtask.toml";

/// Every section a check reads; any other header is a typo.
const SECTIONS: &[&str] = &["layering", "persistence", "alloc-budget"];

/// One `key = value` entry: both sides trimmed, quotes still on.
#[derive(Debug, Clone, Copy)]
pub struct Entry<'a> {
    /// 1-based line in the config text.
    pub line: usize,
    /// Left of the `=`.
    pub key: &'a str,
    /// Right of the `=`.
    pub value: &'a str,
}

/// The entries of `[name]`, or `None` when the text has no such section.
///
/// # Errors
///
/// Returns a message naming the offending line on an unknown section, an
/// entry before any section, or a line that is not `key = value`.
pub fn section<'a>(text: &'a str, name: &str) -> Result<Option<Vec<Entry<'a>>>, String> {
    let mut current = None;
    let mut found: Option<Vec<Entry<'a>>> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let header = header.trim();
            if !SECTIONS.contains(&header) {
                return Err(format!(
                    "line {}: unknown section `[{header}]` (known: {})",
                    idx + 1,
                    SECTIONS.join(", ")
                ));
            }
            if header == name {
                found.get_or_insert_with(Vec::new);
            }
            current = Some(header);
            continue;
        }
        let Some(current) = current else {
            return Err(format!("line {}: entry before any [section]", idx + 1));
        };
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {}: expected `key = value`", idx + 1));
        };
        if current == name {
            found.get_or_insert_with(Vec::new).push(Entry {
                line: idx + 1,
                key: key.trim(),
                value: value.trim(),
            });
        }
    }
    Ok(found)
}

/// Strips the double quotes `what` must carry.
///
/// # Errors
///
/// Returns a message naming `line` when `raw` is not double-quoted.
pub fn unquote<'a>(raw: &'a str, line: usize, what: &str) -> Result<&'a str, String> {
    raw.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("line {line}: {what} must be double-quoted"))
}

/// Reads `<root>/crates/xtask/xtask.toml` through one check's `parse`.
/// Returns `Ok(None)` when the file (or, per `parse`, the section) is
/// absent.
///
/// # Errors
///
/// Returns a message when the file exists but cannot be read or parsed.
pub fn load<T>(
    root: &Path,
    parse: fn(&str) -> Result<Option<T>, String>,
) -> Result<Option<T>, String> {
    let path = root.join(PATH);
    if !path.exists() {
        return Ok(None);
    }
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_are_split_and_absent_ones_are_none() {
        let text = "# c\n[layering]\nmodel = \"\"\n[alloc-budget]\n\"score\" = 0\n";
        let layering = section(text, "layering").unwrap().unwrap();
        assert_eq!(layering.len(), 1);
        assert_eq!(
            (layering[0].line, layering[0].key, layering[0].value),
            (3, "model", "\"\"")
        );
        assert_eq!(section(text, "alloc-budget").unwrap().unwrap().len(), 1);
        assert!(section(text, "persistence").unwrap().is_none());
        assert!(section("[persistence]\n", "persistence")
            .unwrap()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn malformed_text_is_rejected_whichever_section_is_asked_for() {
        for name in SECTIONS {
            assert!(
                section("model = \"\"", name).is_err(),
                "entry before section"
            );
            assert!(section("[layers]\n", name).is_err(), "unknown section");
            assert!(section("[layering]\nmodel\n", name).is_err(), "no `=`");
        }
        assert!(unquote("bare", 1, "x").is_err());
        assert_eq!(unquote("\"a b\"", 1, "x"), Ok("a b"));
    }
}
