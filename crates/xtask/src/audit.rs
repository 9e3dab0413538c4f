//! `audit` — the machine-readable lint report.
//!
//! `cargo run -p xtask -- audit --json` emits one JSON document describing
//! the full static-analysis state of the tree: per-rule violation and
//! suppression counts, every finding, every suppression (with whether it
//! is live or stale), and the allocation-budget state. CI uploads it as an
//! artifact on every run so lint state is diffable across commits without
//! re-running anything.
//!
//! The output is **deterministic**: objects are emitted in fixed key
//! order, arrays in the linter's sorted order, and nothing (no timestamps,
//! no absolute paths, no durations) varies across runs on the same tree.
//! The JSON writer is hand-rolled over `String` — like the rest of xtask
//! it takes no external dependency.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::allocbudget::AllocState;
use crate::{rules, LintReport};

/// The current audit schema id. v5 dropped the `baseline` and `callgraph`
/// sections and the per-rule `baselined` count along with the machinery
/// they reported on.
pub const SCHEMA: &str = "segugio-audit/5";

/// Escapes a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the full audit JSON document.
pub fn render_json(report: &LintReport, enabled: &BTreeSet<String>, alloc: &AllocState) -> String {
    let clean = report.violations.is_empty() && alloc.is_clean();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(out, "  \"clean\": {clean},");

    // Per-rule summary, in ALL_RULES report order.
    out.push_str("  \"rules\": {\n");
    let mut first = true;
    for rule in rules::ALL_RULES {
        if !enabled.contains(*rule) {
            continue;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let current = report.count(rule);
        let used = report
            .suppressions
            .iter()
            .filter(|s| s.rule == *rule && s.used)
            .count();
        let stale = report
            .suppressions
            .iter()
            .filter(|s| s.rule == *rule && !s.used)
            .count();
        let _ = write!(
            out,
            "    \"{rule}\": {{\"violations\": {current}, \"suppressions_used\": {used}, \"suppressions_stale\": {stale}}}"
        );
    }
    out.push_str("\n  },\n");

    // Every unsuppressed finding, in the linter's sorted order.
    out.push_str("  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            v.rule,
            escape(&v.file),
            v.line,
            escape(&v.message)
        );
    }
    if report.violations.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }

    // Every suppression site, live or stale.
    out.push_str("  \"suppressions\": [");
    for (i, s) in report.suppressions.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"used\": {}}}",
            escape(&s.file),
            s.line,
            s.rule,
            s.used
        );
    }
    if report.suppressions.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }

    // Allocation-budget state: what the warm day measured against its ceilings.
    render_alloc(&mut out, alloc);
    out.push_str("}\n");
    out
}

/// Renders the `alloc` section: budget/measurement presence, the measured
/// per-phase counts with their ceilings, and the three drift classes.
fn render_alloc(out: &mut String, alloc: &AllocState) {
    out.push_str("  \"alloc\": {\n");
    let _ = writeln!(out, "    \"budget_present\": {},", alloc.budget.is_some());
    let _ = writeln!(out, "    \"measured\": {},", alloc.measured.is_some());
    let _ = writeln!(out, "    \"clean\": {},", alloc.is_clean());
    out.push_str("    \"phases\": [");
    let mut first = true;
    if let Some(measured) = &alloc.measured {
        for (phase, counts) in &measured.phases {
            let sep = if first { "\n" } else { ",\n" };
            first = false;
            let budget = alloc
                .budget
                .as_ref()
                .and_then(|b| b.phases.get(phase))
                .map_or("null".to_owned(), |n| n.to_string());
            let _ = write!(
                out,
                "{sep}      {{\"phase\": \"{}\", \"budget\": {budget}, \"allocs\": {}, \"frees\": {}, \"bytes\": {}, \"peak_bytes\": {}}}",
                escape(phase),
                counts.allocs,
                counts.frees,
                counts.bytes,
                counts.peak_bytes
            );
        }
    }
    out.push_str(if first { "],\n" } else { "\n    ],\n" });

    out.push_str("    \"over\": [");
    for (i, (phase, budget, measured)) in alloc.drift.over.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"phase\": \"{}\", \"budget\": {budget}, \"measured\": {measured}}}",
            escape(phase)
        );
    }
    out.push_str("],\n    \"stale\": [");
    for (i, phase) in alloc.drift.stale.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\"", escape(phase));
    }
    out.push_str("],\n    \"unbudgeted\": [");
    for (i, (phase, measured)) in alloc.drift.unbudgeted.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"phase\": \"{}\", \"measured\": {measured}}}",
            escape(phase)
        );
    }
    out.push_str("]\n  }\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Violation;
    use crate::Suppression;

    fn enabled() -> BTreeSet<String> {
        rules::ALL_RULES.iter().map(|s| s.to_string()).collect()
    }

    fn empty_report() -> LintReport {
        LintReport {
            files_scanned: 0,
            violations: Vec::new(),
            suppressions: Vec::new(),
        }
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let report = LintReport {
            files_scanned: 2,
            violations: vec![Violation {
                file: "crates/core/src/lib.rs".to_owned(),
                line: 3,
                rule: "P1",
                message: "uses \"quotes\" and\nnewline".to_owned(),
            }],
            suppressions: vec![Suppression {
                file: "crates/core/src/lib.rs".to_owned(),
                line: 9,
                rule: "D1".to_owned(),
                used: true,
            }],
        };
        let alloc = AllocState::default();
        let a = render_json(&report, &enabled(), &alloc);
        let b = render_json(&report, &enabled(), &alloc);
        assert_eq!(a, b, "byte-identical across runs");
        assert!(a.contains("\"schema\": \"segugio-audit/5\""), "{a}");
        assert!(a.contains("\\\"quotes\\\""), "{a}");
        assert!(a.contains("\\n"), "{a}");
        assert!(a.contains("\"clean\": false"));
        assert!(a.contains("\"P1\": {\"violations\": 1,"), "{a}");
        assert!(a.contains("\"suppressions_used\": 1"));
    }

    #[test]
    fn empty_report_renders_empty_arrays() {
        let json = render_json(&empty_report(), &enabled(), &AllocState::default());
        assert!(json.contains("\"violations\": [],"), "{json}");
        assert!(json.contains("\"clean\": true"), "{json}");
        assert!(json.contains("\"budget_present\": false"), "{json}");
    }

    #[test]
    fn alloc_drift_marks_the_report_unclean() {
        let budget = crate::allocbudget::parse("[alloc-budget]\n\"score\" = 0\n")
            .unwrap()
            .unwrap();
        let measured = crate::allocbudget::parse_measured(
            r#"{"machines": 1, "phases": {"score": {"allocs": 9, "frees": 0, "bytes": 1, "peak_bytes": 1}}}"#,
        )
        .unwrap();
        let drift = crate::allocbudget::compare(&budget, &measured);
        let alloc = AllocState {
            budget: Some(budget),
            measured: Some(measured),
            drift,
        };
        let json = render_json(&empty_report(), &enabled(), &alloc);
        assert!(json.contains("\"clean\": false"), "{json}");
        assert!(
            json.contains("{\"phase\": \"score\", \"budget\": 0, \"measured\": 9}"),
            "{json}"
        );
        assert!(
            json.contains("\"phase\": \"score\", \"budget\": 0, \"allocs\": 9"),
            "{json}"
        );
    }
}
