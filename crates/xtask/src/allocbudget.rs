//! The runtime allocation-budget ratchet.
//!
//! Hot-path allocation discipline is enforced by measurement, not by
//! syntax. The counting-allocator bench (`crates/bench/benches/alloc.rs`,
//! built on `segugio-alloc-probe`) runs a steady-state warm ISP day and
//! writes per-phase allocation counts to `BENCH_alloc.json` at the
//! workspace root; the `[alloc-budget]` section of
//! `crates/xtask/xtask.toml` is the checked-in ceiling for each phase. The
//! budget may only shrink:
//!
//! * a measured phase **over** its budget is drift (the audit fails),
//! * a measured phase **absent** from the budget is drift (every warm-day
//!   phase must carry a documented ceiling),
//! * a budget phase absent from the measurement is **stale** (the phase
//!   was renamed or removed — tighten the budget), also a failure.
//!
//! When `BENCH_alloc.json` is absent (most local runs — the bench takes
//! minutes), the audit reports the budget as unmeasured and stays clean;
//! CI's `alloc-audit` job always produces the measurement first.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::config;

/// Per-phase allocation counts as measured by the counting allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounts {
    /// Heap allocations (alloc + alloc_zeroed + growing reallocs).
    pub allocs: u64,
    /// Heap frees.
    pub frees: u64,
    /// Total bytes requested.
    pub bytes: u64,
    /// Peak live bytes during the phase.
    pub peak_bytes: u64,
}

/// The checked-in ceiling: phase name -> max steady-state allocations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// `"score" -> 0`-style map.
    pub phases: BTreeMap<String, u64>,
}

/// Parses the `[alloc-budget]` section of `xtask.toml`: `"phase" = count`
/// entries. `Ok(None)` when the section is absent.
///
/// # Errors
///
/// Returns a message naming the offending line on malformed input.
pub fn parse(text: &str) -> Result<Option<Budget>, String> {
    let Some(entries) = config::section(text, "alloc-budget")? else {
        return Ok(None);
    };
    let mut budget = Budget::default();
    for entry in entries {
        let phase = config::unquote(entry.key, entry.line, "phase name")?;
        let count: u64 = entry
            .value
            .parse()
            .map_err(|_| format!("line {}: count must be a non-negative integer", entry.line))?;
        if budget.phases.insert(phase.to_owned(), count).is_some() {
            return Err(format!("line {}: duplicate phase `{phase}`", entry.line));
        }
    }
    Ok(Some(budget))
}

/// Loads the `[alloc-budget]` section of `<root>/crates/xtask/xtask.toml`.
/// Returns `Ok(None)` when the file or the section does not exist — trees
/// without a budget (synthetic test trees) skip the allocation check.
///
/// # Errors
///
/// Returns a message when the file exists but cannot be read or parsed.
pub fn load(root: &Path) -> Result<Option<Budget>, String> {
    config::load(root, parse)
}

/// The measurement written by the counting-allocator bench.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Measured {
    /// Simulated machine population of the run.
    pub machines: u64,
    /// Phase name -> measured counts.
    pub phases: BTreeMap<String, PhaseCounts>,
}

/// Reads one `"key": <integer>` pair from `s`, returning the value.
fn json_u64(s: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\"");
    let at = s.find(&needle)? + needle.len();
    let rest = s[at..].trim_start().strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Parses `BENCH_alloc.json`. The bench writes a fixed shape —
/// `{"machines": N, "phases": {"name": {"allocs": N, "frees": N,
/// "bytes": N, "peak_bytes": N}, …}}` — and this scanner accepts any
/// whitespace variation of it.
///
/// # Errors
///
/// Returns a message when a required key is missing or malformed.
pub fn parse_measured(text: &str) -> Result<Measured, String> {
    let mut measured = Measured {
        machines: json_u64(text, "machines").ok_or("missing `machines` count")?,
        phases: BTreeMap::new(),
    };
    let phases_at = text.find("\"phases\"").ok_or("missing `phases` object")?;
    let mut rest = &text[phases_at + "\"phases\"".len()..];
    rest = rest
        .trim_start()
        .strip_prefix(':')
        .ok_or("malformed `phases` object")?
        .trim_start()
        .strip_prefix('{')
        .ok_or("malformed `phases` object")?;
    loop {
        let trimmed = rest.trim_start().trim_start_matches(',').trim_start();
        if trimmed.starts_with('}') || trimmed.is_empty() {
            break;
        }
        let name_start = trimmed
            .strip_prefix('"')
            .ok_or("phase name must be quoted")?;
        let name_end = name_start.find('"').ok_or("unterminated phase name")?;
        let name = &name_start[..name_end];
        let after = name_start[name_end + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or("phase entry missing `:`")?
            .trim_start();
        let body_end = after.find('}').ok_or("unterminated phase object")?;
        let body = &after[..body_end];
        let counts = PhaseCounts {
            allocs: json_u64(body, "allocs")
                .ok_or_else(|| format!("phase `{name}`: missing allocs"))?,
            frees: json_u64(body, "frees")
                .ok_or_else(|| format!("phase `{name}`: missing frees"))?,
            bytes: json_u64(body, "bytes")
                .ok_or_else(|| format!("phase `{name}`: missing bytes"))?,
            peak_bytes: json_u64(body, "peak_bytes")
                .ok_or_else(|| format!("phase `{name}`: missing peak_bytes"))?,
        };
        if measured.phases.insert(name.to_owned(), counts).is_some() {
            return Err(format!("duplicate phase `{name}`"));
        }
        rest = &after[body_end + 1..];
    }
    Ok(measured)
}

/// Loads `<root>/BENCH_alloc.json`. Returns `Ok(None)` when absent — the
/// audit then reports the budget as unmeasured.
///
/// # Errors
///
/// Returns a message when the file exists but cannot be read or parsed.
pub fn load_measured(root: &Path) -> Result<Option<Measured>, String> {
    let path = root.join("BENCH_alloc.json");
    if !path.exists() {
        return Ok(None);
    }
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_measured(&text)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Drift between the checked-in budget and the measurement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocDrift {
    /// `(phase, budget, measured)` for phases over their ceiling.
    pub over: Vec<(String, u64, u64)>,
    /// Budget phases absent from the measurement (tighten the budget).
    pub stale: Vec<String>,
    /// `(phase, measured)` for measured phases with no budget entry.
    pub unbudgeted: Vec<(String, u64)>,
}

impl AllocDrift {
    /// Whether the measurement respects the budget exactly.
    pub fn is_clean(&self) -> bool {
        self.over.is_empty() && self.stale.is_empty() && self.unbudgeted.is_empty()
    }
}

/// Compares a measurement against the budget.
pub fn compare(budget: &Budget, measured: &Measured) -> AllocDrift {
    let mut drift = AllocDrift::default();
    for (phase, &ceiling) in &budget.phases {
        match measured.phases.get(phase) {
            Some(counts) if counts.allocs > ceiling => {
                drift.over.push((phase.clone(), ceiling, counts.allocs));
            }
            Some(_) => {}
            None => drift.stale.push(phase.clone()),
        }
    }
    for (phase, counts) in &measured.phases {
        if !budget.phases.contains_key(phase) {
            drift.unbudgeted.push((phase.clone(), counts.allocs));
        }
    }
    drift
}

/// The full allocation-budget state of a tree, as the audit reports it.
#[derive(Debug, Clone, Default)]
pub struct AllocState {
    /// The checked-in budget, when present.
    pub budget: Option<Budget>,
    /// The bench measurement, when present.
    pub measured: Option<Measured>,
    /// Drift (empty unless both files are present).
    pub drift: AllocDrift,
}

impl AllocState {
    /// Clean means: no budget at all, a budget that is not yet measured,
    /// or a measurement with zero drift.
    pub fn is_clean(&self) -> bool {
        self.drift.is_clean()
    }
}

/// Evaluates the allocation-budget state for a tree.
///
/// # Errors
///
/// Returns a message when either file exists but cannot be read or parsed.
pub fn evaluate(root: &Path) -> Result<AllocState, String> {
    let budget = load(root)?;
    let measured = load_measured(root)?;
    let drift = match (&budget, &measured) {
        (Some(b), Some(m)) => compare(b, m),
        _ => AllocDrift::default(),
    };
    Ok(AllocState {
        budget,
        measured,
        drift,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(text: &str) -> Budget {
        parse(text).unwrap().unwrap()
    }

    #[test]
    fn parse_round_trips_the_budget() {
        let b = budget("# warm-day ceilings\n[alloc-budget]\n\"score\" = 0\n\"train\" = 1200\n");
        assert_eq!(b.phases.get("score"), Some(&0));
        assert_eq!(b.phases.get("train"), Some(&1200));
    }

    #[test]
    fn parse_rejects_malformed_budgets() {
        assert!(parse("\"score\" = 0").is_err(), "entry before section");
        assert!(
            parse("[alloc-budget]\nscore = 0").is_err(),
            "unquoted phase"
        );
        assert!(
            parse("[alloc-budget]\n\"score\" = many").is_err(),
            "non-integer"
        );
        assert!(
            parse("[alloc-budget]\n\"score\" = 0\n\"score\" = 1").is_err(),
            "duplicate phase"
        );
    }

    #[test]
    fn measured_json_round_trips() {
        let json = r#"{
  "machines": 10000,
  "phases": {
    "score": {"allocs": 0, "frees": 0, "bytes": 0, "peak_bytes": 0},
    "train": {"allocs": 12, "frees": 7, "bytes": 4096, "peak_bytes": 2048}
  }
}"#;
        let m = parse_measured(json).unwrap();
        assert_eq!(m.machines, 10000);
        assert_eq!(m.phases["score"].allocs, 0);
        assert_eq!(m.phases["train"].bytes, 4096);
        assert_eq!(m.phases["train"].peak_bytes, 2048);
    }

    #[test]
    fn compare_finds_over_stale_and_unbudgeted() {
        let budget = budget("[alloc-budget]\n\"score\" = 0\n\"gone\" = 5\n\"train\" = 10\n");
        let measured = parse_measured(
            r#"{"machines": 1, "phases": {
                "score": {"allocs": 3, "frees": 0, "bytes": 1, "peak_bytes": 1},
                "train": {"allocs": 10, "frees": 0, "bytes": 1, "peak_bytes": 1},
                "extra": {"allocs": 2, "frees": 0, "bytes": 1, "peak_bytes": 1}}}"#,
        )
        .unwrap();
        let drift = compare(&budget, &measured);
        assert_eq!(drift.over, vec![("score".to_owned(), 0, 3)]);
        assert_eq!(drift.stale, vec!["gone".to_owned()]);
        assert_eq!(drift.unbudgeted, vec![("extra".to_owned(), 2)]);
        assert!(!drift.is_clean());
    }

    #[test]
    fn exact_budget_match_is_clean() {
        let budget = budget("[alloc-budget]\n\"score\" = 0\n");
        let measured = parse_measured(
            r#"{"machines": 1, "phases": {"score": {"allocs": 0, "frees": 0, "bytes": 0, "peak_bytes": 0}}}"#,
        )
        .unwrap();
        assert!(compare(&budget, &measured).is_clean());
    }
}
