//! A lightweight Rust token scanner.
//!
//! The linter does not need a full parser: its rules match short token
//! sequences (`SystemTime :: now`, `.` `unwrap` `(`, `ident : HashMap`).
//! This scanner strips comments, string/char literals and whitespace, and
//! yields identifier/symbol tokens tagged with their 1-based line number.
//! It additionally extracts:
//!
//! - `// segugio-lint: allow(RULE, reason)` suppression comments (a
//!   directive is a comment that *starts* with the marker; prose that
//!   merely quotes the syntax is not one),
//! - the line ranges covered by `#[cfg(test)]` / `#[test]` items, so rules
//!   can skip unit-test code embedded in library files, and
//! - [`parallel_regions`]: the closure bodies handed to `parallel_map*` /
//!   `scope.spawn(…)`, with the identifiers they bind locally, so the
//!   concurrency rules (P1/P2) can tell captured state from worker-local
//!   state without a full parser.

use std::collections::{BTreeMap, BTreeSet};

/// One scanned token: its text and the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token text (identifier, number, `::`, or a single symbol).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

/// The scan result for one source file.
#[derive(Debug, Clone, Default)]
pub struct ScannedFile {
    /// Comment- and literal-free token stream.
    pub tokens: Vec<Token>,
    /// `line -> rules` suppressed by an allow comment on that line.
    pub allows: BTreeMap<u32, BTreeSet<String>>,
    /// Inclusive line ranges belonging to `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: Vec<(u32, u32)>,
}

impl ScannedFile {
    /// Whether `line` falls inside an embedded test item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// Whether `rule` is suppressed at `line` (an allow comment on the
    /// violating line itself or on the line directly above it).
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allow_line(rule, line).is_some()
    }

    /// The line of the allow comment suppressing `rule` at `line`, if any —
    /// the violating line itself or the line directly above it. Rules use
    /// this to record *which* suppression fired, so W1 can flag the ones
    /// that never do.
    pub fn allow_line(&self, rule: &str, line: u32) -> Option<u32> {
        [line, line.saturating_sub(1)]
            .into_iter()
            .find(|l| self.allows.get(l).is_some_and(|rules| rules.contains(rule)))
    }
}

/// Scans Rust source text into a [`ScannedFile`].
pub fn scan(src: &str) -> ScannedFile {
    let bytes = src.as_bytes();
    let mut out = ScannedFile::default();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < bytes.len() {
        let c = bytes[i];
        if c == b'\n' {
            line += 1;
            i += 1;
        } else if c.is_ascii_whitespace() {
            i += 1;
        } else if c == b'/' && bytes.get(i + 1) == Some(&b'/') {
            let start = i;
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            record_allow(&src[start..i], line, &mut out.allows);
        } else if c == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let start_line = line;
            let start = i;
            let mut depth = 1usize;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            record_allow(&src[start..i], start_line, &mut out.allows);
        } else if c == b'"' {
            i = skip_string(bytes, i + 1, &mut line);
        } else if c == b'\'' {
            i = skip_char_or_lifetime(bytes, i);
        } else if let Some(next) = try_skip_prefixed_string(bytes, i, &mut line) {
            i = next;
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.tokens.push(Token {
                text: src[start..i].to_owned(),
                line,
            });
        } else if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            // Fractional / exponent part: only cross a `.` when a digit
            // follows, so `x.0.iter()` keeps its dots as separate tokens.
            if i < bytes.len()
                && bytes[i] == b'.'
                && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
            {
                i += 1;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
            }
            out.tokens.push(Token {
                text: src[start..i].to_owned(),
                line,
            });
        } else if c == b':' && bytes.get(i + 1) == Some(&b':') {
            out.tokens.push(Token {
                text: "::".to_owned(),
                line,
            });
            i += 2;
        } else {
            out.tokens.push(Token {
                text: (c as char).to_string(),
                line,
            });
            i += 1;
        }
    }

    out.test_ranges = test_ranges(&out.tokens);
    out
}

/// Skips a `"…"` body starting *after* the opening quote; returns the index
/// past the closing quote.
fn skip_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a char literal (`'x'`, `'\n'`) or a lifetime (`'a`, `'static`),
/// starting at the `'`.
fn skip_char_or_lifetime(bytes: &[u8], i: usize) -> usize {
    if bytes.get(i + 1) == Some(&b'\\') {
        // Escaped char literal: consume to the closing quote.
        let mut j = i + 2;
        while j < bytes.len() {
            if bytes[j] == b'\\' {
                j += 2;
            } else if bytes[j] == b'\'' {
                return j + 1;
            } else {
                j += 1;
            }
        }
        j
    } else if bytes.get(i + 2) == Some(&b'\'') && bytes.get(i + 1) != Some(&b'\'') {
        i + 3 // simple char literal 'x'
    } else {
        // Lifetime: consume the identifier, no closing quote.
        let mut j = i + 1;
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        j
    }
}

/// Handles raw/byte string prefixes (`r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`).
/// Returns the index past the literal, or `None` if `i` is not at one.
fn try_skip_prefixed_string(bytes: &[u8], i: usize, line: &mut u32) -> Option<usize> {
    let (raw, mut j) = match bytes[i] {
        b'r' => (true, i + 1),
        b'b' if bytes.get(i + 1) == Some(&b'r') => (true, i + 2),
        b'b' => (false, i + 1),
        _ => return None,
    };
    if raw {
        let mut hashes = 0usize;
        while bytes.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if bytes.get(j) != Some(&b'"') {
            return None;
        }
        j += 1;
        // Raw string: no escapes; ends at `"` followed by `hashes` hashes.
        while j < bytes.len() {
            if bytes[j] == b'\n' {
                *line += 1;
                j += 1;
            } else if bytes[j] == b'"'
                && bytes[j + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&b| b == b'#')
                    .count()
                    == hashes
            {
                return Some(j + 1 + hashes);
            } else {
                j += 1;
            }
        }
        Some(j)
    } else {
        if bytes.get(j) != Some(&b'"') {
            return None;
        }
        Some(skip_string(bytes, j + 1, line))
    }
}

/// Extracts `segugio-lint: allow(RULE, reason)` directives from a comment
/// that starts with the marker (several may be chained in one comment).
/// Comments that mention the syntax mid-sentence are prose, not directives.
fn record_allow(comment: &str, line: u32, allows: &mut BTreeMap<u32, BTreeSet<String>>) {
    let mut rest = comment.trim_start_matches(['/', '*', '!']).trim_start();
    while let Some(after) = rest.strip_prefix("segugio-lint:") {
        let Some(args) = after.trim_start().strip_prefix("allow(") else {
            return;
        };
        let Some(end) = args.find(')') else { return };
        let rule = args[..end].split(',').next().unwrap_or("").trim();
        if !rule.is_empty() {
            allows.entry(line).or_default().insert(rule.to_owned());
        }
        rest = args[end + 1..].trim_start();
    }
}

/// Finds the inclusive line ranges of items annotated `#[cfg(test)]` (with
/// `test` anywhere in the cfg predicate) or `#[test]`.
fn test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str());
    let mut i = 0usize;
    while i < tokens.len() {
        if text(i) != Some("#") || text(i + 1) != Some("[") {
            i += 1;
            continue;
        }
        let is_test_attr = if text(i + 2) == Some("test") && text(i + 3) == Some("]") {
            true
        } else if text(i + 2) == Some("cfg") && text(i + 3) == Some("(") {
            // Scan the balanced cfg(...) predicate for a `test` ident.
            let mut depth = 1usize;
            let mut j = i + 4;
            let mut found = false;
            while j < tokens.len() && depth > 0 {
                match tokens[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "test" => found = true,
                    _ => {}
                }
                j += 1;
            }
            found
        } else {
            false
        };
        if !is_test_attr {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Skip to the item body: the first `{` before any top-level `;`
        // (a `mod foo;` or `use` item has no body to skip).
        let mut j = i + 2;
        while j < tokens.len() && text(j) != Some("{") && text(j) != Some(";") {
            j += 1;
        }
        if text(j) == Some("{") {
            let mut depth = 1usize;
            j += 1;
            while j < tokens.len() && depth > 0 {
                match tokens[j].text.as_str() {
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            let end_line = tokens.get(j.saturating_sub(1)).map_or(u32::MAX, |t| t.line);
            ranges.push((start_line, end_line));
            i = j;
        } else {
            i = j + 1;
        }
    }
    ranges
}

// --- parallel-closure tracker --------------------------------------------

/// A closure body that runs on a worker thread: the argument of a
/// `parallel_map*` call or of a scoped `*.spawn(…)`.
#[derive(Debug, Clone)]
pub struct ParallelRegion {
    /// Line of the triggering call.
    pub line: u32,
    /// The triggering callee (`parallel_map_indexed`, `spawn`).
    pub trigger: String,
    /// Token index range (half-open) of the closure body.
    pub body: (usize, usize),
    /// Identifiers bound *inside* the region: closure parameters, `let` /
    /// `for` pattern bindings, `mut` pattern bindings, and the parameters
    /// of nested closures. Anything else the body names is captured.
    pub locals: BTreeSet<String>,
}

/// Keywords and primitives that can never be capture bindings.
fn is_binding_ident(s: &str) -> bool {
    s.chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && !matches!(
            s,
            "mut"
                | "ref"
                | "let"
                | "for"
                | "in"
                | "if"
                | "else"
                | "while"
                | "match"
                | "move"
                | "return"
                | "break"
                | "continue"
                | "fn"
                | "as"
                | "use"
                | "self"
                | "Self"
                | "true"
                | "false"
                | "loop"
                | "where"
                | "impl"
                | "dyn"
        )
}

/// Index of the token matching the opener at `open` (`(`/`[`/`{`), or the
/// end of the stream if unbalanced.
pub(crate) fn matching_close(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

/// Tries to parse a closure parameter list starting at the `|` at `bar`.
/// Returns the bound identifiers and the index just past the closing `|`.
/// Aborts (returns `None`) on tokens a parameter pattern cannot contain —
/// that `|` was a bitwise-or or a pattern alternative, not a closure.
fn parse_closure_params(
    tokens: &[Token],
    bar: usize,
    limit: usize,
) -> Option<(BTreeSet<String>, usize)> {
    let mut params = BTreeSet::new();
    let mut j = bar + 1;
    // Parameter lists are short; a runaway scan means this was not one.
    let fence = (bar + 48).min(limit);
    while j < fence {
        let t = tokens[j].text.as_str();
        match t {
            "|" => return Some((params, j + 1)),
            "(" | ")" | "," | "&" | ":" | "_" | "<" | ">" | "::" | "[" | "]" => {}
            _ if is_binding_ident(t) || t == "mut" || t == "ref" => {}
            _ => return None,
        }
        if is_binding_ident(t) {
            params.insert(t.to_owned());
        }
        j += 1;
    }
    None
}

/// Collects the identifiers bound inside a closure body: `let` and `for`
/// patterns, `mut` pattern bindings (covers match arms like
/// `Some(mut x) => …`), and nested closure parameters.
fn collect_locals(tokens: &[Token], start: usize, end: usize, locals: &mut BTreeSet<String>) {
    let mut k = start;
    while k < end {
        match tokens[k].text.as_str() {
            "let" => {
                // Bindings up to the `=` (or `;` for `let x;`). Type
                // annotations after `:` contribute harmless extra names.
                let mut j = k + 1;
                while j < end && j < k + 32 {
                    match tokens[j].text.as_str() {
                        "=" | ";" => break,
                        t if is_binding_ident(t) => {
                            locals.insert(t.to_owned());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                k = j;
            }
            "for" => {
                let mut j = k + 1;
                while j < end && j < k + 32 && tokens[j].text != "in" {
                    if is_binding_ident(&tokens[j].text) {
                        locals.insert(tokens[j].text.clone());
                    }
                    j += 1;
                }
                k = j;
            }
            "mut" => {
                if let Some(t) = tokens.get(k + 1) {
                    if is_binding_ident(&t.text) {
                        locals.insert(t.text.clone());
                    }
                }
                k += 1;
            }
            "|" => {
                if let Some((params, next)) = parse_closure_params(tokens, k, end) {
                    locals.extend(params);
                    k = next;
                } else {
                    k += 1;
                }
            }
            _ => k += 1,
        }
    }
}

/// Finds every parallel-closure region in a token stream.
///
/// Triggers are calls to an identifier starting with `parallel_map` and
/// method calls `.spawn(…)` (scoped threads — `crossbeam::thread::scope`
/// and `std::thread::scope` both hand work to workers through `spawn`).
/// The region is the closure argument's body; calls that pass a plain
/// function instead of a closure yield no region.
pub fn parallel_regions(tokens: &[Token]) -> Vec<ParallelRegion> {
    let mut out = Vec::new();
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str());
    for i in 0..tokens.len() {
        let t = tokens[i].text.as_str();
        let is_pm = t.starts_with("parallel_map");
        let is_spawn = t == "spawn" && i >= 1 && text(i - 1) == Some(".");
        if !(is_pm || is_spawn) || text(i + 1) != Some("(") {
            continue;
        }
        let call_end = matching_close(tokens, i + 1);
        // Locate the closure argument: the first parseable `|…|` list.
        let mut j = i + 2;
        let parsed = loop {
            if j >= call_end {
                break None;
            }
            if tokens[j].text == "|" {
                if let Some(p) = parse_closure_params(tokens, j, call_end) {
                    break Some(p);
                }
            }
            j += 1;
        };
        let Some((params, after_params)) = parsed else {
            continue;
        };
        let body = if text(after_params) == Some("{") {
            (after_params + 1, matching_close(tokens, after_params))
        } else {
            (after_params, call_end)
        };
        let mut locals = params;
        collect_locals(tokens, body.0, body.1, &mut locals);
        out.push(ParallelRegion {
            line: tokens[i].line,
            trigger: t.to_owned(),
            body,
            locals,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        scan(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn strips_comments_and_strings() {
        let toks = texts("let x = \"HashMap\"; // HashMap\n/* HashMap */ y");
        assert_eq!(toks, vec!["let", "x", "=", ";", "y"]);
    }

    #[test]
    fn raw_and_byte_strings_are_skipped() {
        let toks = texts(r##"let s = r#"unwrap()"#; let b = b"panic"; z"##);
        assert_eq!(toks, vec!["let", "s", "=", ";", "let", "b", "=", ";", "z"]);
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let toks = texts("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks.contains(&"str".to_owned()));
        assert!(toks.contains(&"char".to_owned()));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let s = scan("a\nb\n\"x\ny\"\nc");
        let c = s.tokens.iter().find(|t| t.text == "c").unwrap();
        assert_eq!(c.line, 5);
    }

    #[test]
    fn allow_comments_are_recorded() {
        let s = scan("foo(); // segugio-lint: allow(D1, values feed a set)\n");
        assert!(s.is_allowed("D1", 1));
        assert!(s.is_allowed("D1", 2), "allow covers the following line");
        assert!(!s.is_allowed("D2", 1));
    }

    #[test]
    fn only_comments_starting_with_the_marker_are_directives() {
        let s = scan(
            "// The syntax is `segugio-lint: allow(D1, reason)`.
             //! segugio-lint: allow(P1, a) segugio-lint: allow(P2, b)
             /* segugio-lint: allow(S1, block comments count) */
",
        );
        assert!(!s.is_allowed("D1", 1), "quoted syntax is prose");
        assert!(s.is_allowed("P1", 2) && s.is_allowed("P2", 2), "chained");
        assert!(s.is_allowed("S1", 3));
    }

    #[test]
    fn cfg_test_ranges_cover_mod_bodies() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n";
        let s = scan(src);
        assert!(!s.is_test_line(1));
        assert!(s.is_test_line(3));
        assert!(s.is_test_line(4));
        assert!(!s.is_test_line(6));
    }

    #[test]
    fn cfg_all_test_is_detected() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod tests { fn t() {} }\nfn l() {}\n";
        let s = scan(src);
        assert!(s.is_test_line(2));
        assert!(!s.is_test_line(3));
    }

    #[test]
    fn parallel_regions_track_closure_locals() {
        let src = "
fn f(xs: &[u64], threads: usize) -> Vec<u64> {
    parallel_map_indexed(xs.len(), threads, |i| {
        let double = xs[i] * 2;
        double
    })
}";
        let regions = parallel_regions(&scan(src).tokens);
        assert_eq!(regions.len(), 1, "{regions:?}");
        assert_eq!(regions[0].trigger, "parallel_map_indexed");
        assert!(regions[0].locals.contains("i"));
        assert!(regions[0].locals.contains("double"));
        assert!(!regions[0].locals.contains("xs"), "xs is captured");
    }

    #[test]
    fn spawn_regions_cover_for_and_mut_bindings() {
        let src = "
fn f() {
    scope.spawn(move |_| {
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = Some(base + k);
        }
        match x { Some(mut row) => row = 3, None => {} }
    });
}";
        let regions = parallel_regions(&scan(src).tokens);
        assert_eq!(regions.len(), 1, "{regions:?}");
        for local in ["k", "slot", "row"] {
            assert!(regions[0].locals.contains(local), "missing local {local}");
        }
        assert!(!regions[0].locals.contains("out"));
        assert!(!regions[0].locals.contains("base"));
    }

    #[test]
    fn function_arguments_yield_no_region() {
        let src = "fn f() { parallel_map_indexed(n, t, square) }";
        assert!(parallel_regions(&scan(src).tokens).is_empty());
    }

    #[test]
    fn bare_test_attr_is_detected() {
        let src = "#[test]\nfn t() {\n    x.unwrap();\n}\nfn lib() {}\n";
        let s = scan(src);
        assert!(s.is_test_line(3));
        assert!(!s.is_test_line(5));
    }
}
