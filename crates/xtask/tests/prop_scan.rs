//! Property tests for the scanner on hostile Rust: raw strings, nested
//! block comments, byte strings, and comment markers inside literals must
//! never panic the tokenizer, leak literal contents into the token stream,
//! or conjure phantom rule firings out of string data.

use std::collections::BTreeSet;

use proptest::prelude::*;
use xtask::rules::{classify, lint_file, ALL_RULES};
use xtask::scan::scan;

fn all_rules() -> BTreeSet<String> {
    ALL_RULES.iter().map(|s| s.to_string()).collect()
}

/// Fragments a literal payload is assembled from: rule trigger words,
/// comment markers, escapes, and whitespace. The placeholder is replaced
/// by a generated word.
const FRAGMENTS: &[&str] = &[
    "HashMap",
    "borrow_mut()",
    "Relaxed",
    "parallel_map(n, t, |i| total += x[i])",
    "segugio_eval::x",
    "// segugio-lint: allow(D1, not real)",
    "/*",
    "*/",
    "\\\"",
    "\n",
    "'",
    " ",
    "<word>",
];

/// A payload spec: fragment indices plus the word substituted for the
/// placeholder.
type PayloadSpec = Vec<(usize, String)>;

fn payload(spec: &PayloadSpec) -> String {
    spec.iter()
        .map(|(i, word)| {
            let frag = FRAGMENTS[i % FRAGMENTS.len()];
            if frag == "<word>" {
                word.clone()
            } else {
                frag.to_owned()
            }
        })
        .collect()
}

/// Renders one hostile snippet: a literal or comment wrapping the payload,
/// or a fragment of ordinary code, selected by `kind`.
fn snippet(kind: usize, spec: &PayloadSpec) -> String {
    let p = payload(spec);
    // Raw strings close at `"#`, block comments at `*/`: strip the
    // sequences that would end the literal early so the wrapper stays
    // well-formed and everything inside is genuinely literal content.
    let raw = p.replace(['#', '"'], "");
    let blk = p.replace("*/", "").replace("/*", "");
    let esc = p.replace('\\', "\\\\").replace('"', "\\\"");
    match kind % 10 {
        0 => format!("let s = \"{esc}\";\n"),
        1 => format!("let s = r#\"{raw}\"#;\n"),
        2 => format!("let s = r##\"{raw}\"##;\n"),
        3 => format!("let b = b\"{esc}\";\n"),
        4 => format!("/* {blk} */\n"),
        5 => format!("/* outer /* {blk} */ still a comment */\n"),
        6 => format!("// {}\n", p.replace('\n', " ")),
        7 => "fn f<'a>(x: &'a str) -> usize { x.len() }\n".to_owned(),
        8 => "let c = 'x';\n".to_owned(),
        _ => format!("let n = {}u64;\n", p.len()),
    }
}

/// A whole-source spec: one (kind, payload) pair per snippet.
type SourceSpec = Vec<(usize, PayloadSpec)>;

fn render(spec: &SourceSpec) -> String {
    let body: String = spec.iter().map(|(k, p)| snippet(*k, p)).collect();
    format!("pub fn hostile() {{\n{body}}}\n")
}

fn source_spec() -> impl Strategy<Value = SourceSpec> {
    proptest::collection::vec(
        (
            0usize..10,
            proptest::collection::vec((0usize..FRAGMENTS.len(), "[a-z]{1,8}"), 0..6),
        ),
        0..12,
    )
}

proptest! {
    /// The scanner must survive any hostile source without panicking, and
    /// nothing that lives inside a string/byte/raw-string literal may
    /// surface as a token.
    #[test]
    fn scanner_never_panics_and_literals_never_leak(spec in source_spec()) {
        let src = render(&spec);
        let scanned = scan(&src);
        let lines = src.lines().count().max(1);
        for tok in &scanned.tokens {
            prop_assert!(
                !tok.text.contains('"'),
                "literal delimiter leaked into token {:?} in:\n{}",
                tok.text,
                src
            );
            let line = usize::try_from(tok.line).unwrap();
            prop_assert!(
                (1..=lines).contains(&line),
                "token line {} out of range 1..={} in:\n{}",
                line,
                lines,
                src
            );
        }
    }

    /// Trigger words inside literals and comments must not fire any rule:
    /// the only real code is a clean function wrapper. (Allow directives
    /// are honored even in generated comments, so a stale one may fire W1;
    /// everything else must stay silent.)
    #[test]
    fn literals_and_comments_never_fire_rules(spec in source_spec()) {
        let src = render(&spec);
        let fired = lint_file(&classify("crates/core/src/hostile.rs"), &scan(&src), &all_rules());
        for v in &fired {
            prop_assert_eq!(v.rule, "W1", "phantom firing {:?} in:\n{}", v, src);
        }
    }

    /// Completely arbitrary text (not even valid Rust) must never panic
    /// the scanner.
    #[test]
    fn arbitrary_text_never_panics(src in "[ -~\n\t]{0,400}") {
        let _ = scan(&src);
    }
}
