//! The release-mode gates: `alloc` (per-phase allocation counts), `scale`
//! (the peak live heap of a paper-scale day) and `checkpoint` (generation
//! size and save/restore allocations). Each bench target measures its
//! run, prints the JSON recorded in its `BENCH_*.json`, and fails if a
//! number exceeds its entry in a checked-in ceiling file read by
//! [`CeilingSection`].
//!
//! The paper's tables and figures are printed by `segugio experiment
//! <name>`, not here.

use std::collections::BTreeMap;
use std::path::Path;

/// One `[section]` of a checked-in ceiling file (`alloc-budget.toml`,
/// `scale-ceiling.toml`, `checkpoint-ceiling.toml`): a tiny TOML subset of
/// `#` comments, `[section]` headers and `key = integer` lines with bare
/// or quoted keys.
///
/// Reading fails closed: a file that cannot be read, a section that is
/// not there, a line in it that is not `key = integer`, and (at
/// [`check`](Self::check)) a key that is not there are errors naming the
/// file, the section, the key and the line — never a gate that passes
/// unchecked.
#[derive(Debug, Clone)]
pub struct CeilingSection {
    file: String,
    name: String,
    /// 1-based line of the `[section]` header.
    header_line: usize,
    /// Each key's ceiling and its 1-based line.
    entries: BTreeMap<String, (u64, usize)>,
}

impl CeilingSection {
    /// Reads `[section]` of the ceiling file at `path`.
    pub fn read(path: &Path, section: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading ceiling file {}: {e}", path.display()))?;
        Self::parse(&path.display().to_string(), &text, section)
    }

    /// Parses `[section]` out of `text`; `file` names it in errors.
    fn parse(file: &str, text: &str, section: &str) -> Result<Self, String> {
        let mut header_line = None;
        let mut entries = BTreeMap::new();
        let mut in_section = false;
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                in_section = name.trim() == section;
                if in_section {
                    header_line.get_or_insert(line_no);
                }
                continue;
            }
            if !in_section {
                continue;
            }
            let parsed = line.split_once('=').and_then(|(key, value)| {
                let value = value.trim().parse::<u64>().ok()?;
                Some((key.trim().trim_matches('"').to_owned(), value))
            });
            let (key, value) = parsed.ok_or_else(|| {
                format!("{file}:{line_no}: [{section}] `{line}` is not `key = integer`")
            })?;
            entries.insert(key, (value, line_no));
        }
        let header_line = header_line.ok_or_else(|| format!("{file}: no [{section}] section"))?;
        Ok(CeilingSection {
            file: file.to_owned(),
            name: section.to_owned(),
            header_line,
            entries,
        })
    }

    /// The keys the section names, in order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Checks `value` against `key`'s ceiling and returns the ceiling;
    /// a missing key or a value above the ceiling is the error.
    pub fn check(&self, key: &str, value: u64) -> Result<u64, String> {
        let (file, section) = (&self.file, &self.name);
        let &(ceiling, line) = self.entries.get(key).ok_or_else(|| {
            format!(
                "{file}:{}: no `{key}` entry under [{section}]",
                self.header_line
            )
        })?;
        if value > ceiling {
            return Err(format!(
                "{file}:{line}: [{section}] `{key}`: {value} exceeds the ceiling {ceiling}"
            ));
        }
        Ok(ceiling)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "\
# comment
[peak_bytes]
\"full\" = 1280000000
ci = 147000000

[other]
\"ci\" = 5
";

    fn section(name: &str) -> Result<CeilingSection, String> {
        CeilingSection::parse("ceiling.toml", FILE, name)
    }

    #[test]
    fn reads_bare_and_quoted_keys_of_one_section() {
        let s = section("peak_bytes").unwrap();
        assert_eq!(s.keys().collect::<Vec<_>>(), ["ci", "full"]);
        assert_eq!(s.check("ci", 147_000_000), Ok(147_000_000));
        assert_eq!(s.check("full", 0), Ok(1_280_000_000));
        assert_eq!(section("other").unwrap().check("ci", 5), Ok(5));
    }

    #[test]
    fn missing_file_is_an_error() {
        let e = CeilingSection::read(Path::new("no/such/ceiling.toml"), "peak_bytes").unwrap_err();
        assert!(e.contains("no/such/ceiling.toml"), "{e}");
    }

    #[test]
    fn missing_section_is_an_error() {
        let e = section("save_allocs").unwrap_err();
        assert_eq!(e, "ceiling.toml: no [save_allocs] section");
    }

    #[test]
    fn missing_key_is_an_error() {
        let e = section("other").unwrap().check("full", 1).unwrap_err();
        assert_eq!(e, "ceiling.toml:6: no `full` entry under [other]");
    }

    #[test]
    fn non_integer_value_is_an_error() {
        for value in ["147_000_000", "-1", "1.5", ""] {
            let text = format!("[peak_bytes]\n\"ci\" = {value}\n");
            let e = CeilingSection::parse("scale-ceiling.toml", &text, "peak_bytes").unwrap_err();
            assert!(
                e.starts_with("scale-ceiling.toml:2: [peak_bytes] `\"ci\" ="),
                "{e}"
            );
        }
        let e = CeilingSection::parse("c.toml", "[s]\nci\n", "s").unwrap_err();
        assert_eq!(e, "c.toml:2: [s] `ci` is not `key = integer`");
    }

    #[test]
    fn value_over_its_ceiling_is_an_error() {
        let e = section("peak_bytes")
            .unwrap()
            .check("ci", 147_000_001)
            .unwrap_err();
        assert_eq!(
            e,
            "ceiling.toml:4: [peak_bytes] `ci`: 147000001 exceeds the ceiling 147000000"
        );
    }
}
