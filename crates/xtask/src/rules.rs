//! The lint rules: the six families no cheaper sound mechanism covers.
//!
//! | Rule | Scope                         | What it catches                          |
//! |------|-------------------------------|------------------------------------------|
//! | D1   | all non-test code             | `HashMap`/`HashSet` iteration order escaping into ordered output |
//! | P1   | all non-test code             | parallel closures capturing interior-mutable state (`RefCell`/`Cell`), relaxed atomics, or mutating captured bindings |
//! | P2   | all non-test code             | floating-point accumulation into a captured binding inside a parallel closure (FP addition is non-associative) |
//! | A1   | crate manifests + lib code    | crate-dependency edges outside the layering DAG (`[layering]` in `crates/xtask/xtask.toml`) |
//! | S1   | persistence modules (`[persistence]`) | raw write entry points (`fs::write`, `File::create`, `OpenOptions::new`) outside the sanctioned atomic-writer functions |
//! | W1   | all non-test code             | `segugio-lint: allow(…)` comments that suppress no finding or name no rule |
//!
//! Everything else the linter once policed is enforced by the compiler
//! toolchain instead (see DESIGN.md "Static enforcement"): panics and lossy
//! casts by `clippy` lints denied in the library crates, clock/entropy
//! reads by the root `clippy.toml` `disallowed-methods` list, unsafe
//! hygiene by `clippy::undocumented_unsafe_blocks`, and hot-path
//! allocation by the measured budget ([`crate::allocbudget`]).
//!
//! Each rule except W1 can be suppressed at a site with
//! `// segugio-lint: allow(RULE, reason)` on the violating line or the line
//! above it (W1 exists precisely to flag suppressions that have gone
//! stale, so it cannot itself be suppressed).

use std::collections::BTreeSet;

use crate::layering::{self, Layering};
use crate::persistence::{self, Persistence};
use crate::scan::{ScannedFile, Token};

/// All known rule ids, in report order.
pub const ALL_RULES: &[&str] = &["D1", "P1", "P2", "A1", "S1", "W1"];

/// How a file participates in linting, derived from its workspace-relative
/// path (see [`classify`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileClass {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Test/bench/example code: no rule applies.
    pub is_test: bool,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(path: &str) -> FileClass {
    let is_test = path
        .split('/')
        .any(|c| matches!(c, "tests" | "benches" | "examples" | "fixtures"));
    FileClass {
        path: path.to_owned(),
        is_test,
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Human-readable description of the site.
    pub message: String,
}

/// Methods whose results expose a hash container's iteration order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Tokens that make a statement order-insensitive: an explicit sort, a
/// collect into an unordered or self-sorting container, or a commutative
/// terminal.
const ORDER_INSENSITIVE: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "sum",
    "product",
    "count",
    "len",
    "min",
    "max",
    "all",
    "any",
    "is_empty",
];

/// One `segugio-lint: allow(…)` comment in non-test code, and whether it
/// suppressed anything in this pass.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Suppression {
    /// Workspace-relative file holding the comment.
    pub file: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// The rule it names.
    pub rule: String,
    /// Whether it suppressed at least one finding (stale when `false`).
    pub used: bool,
}

/// The config-driven checks active in a pass: a tree without the config
/// section (or a run with the rule disabled) leaves the check out, and
/// its allow comments unjudged.
#[derive(Debug, Clone, Default)]
pub struct TreeChecks {
    /// The layering DAG, when A1 runs.
    pub layering: Option<Layering>,
    /// The declared persistence modules, when S1 runs.
    pub persistence: Option<Persistence>,
}

/// The full per-file lint result: findings plus every judged allow comment.
#[derive(Debug, Clone, Default)]
pub struct FileLint {
    /// Unsuppressed findings, sorted and deduplicated.
    pub violations: Vec<Violation>,
    /// Allow comments naming a rule that ran, live or stale.
    pub suppressions: Vec<Suppression>,
}

/// Runs every enabled rule over one scanned file.
pub fn lint_file_full(
    class: &FileClass,
    scanned: &ScannedFile,
    rules: &BTreeSet<String>,
    checks: &TreeChecks,
) -> FileLint {
    let mut out = Vec::new();
    let mut used = BTreeSet::new();
    if rules.contains("D1") {
        rule_d1(class, scanned, &mut out, &mut used);
    }
    if rules.contains("P1") || rules.contains("P2") {
        rule_p1_p2(class, scanned, rules, &mut out, &mut used);
    }
    if let Some(dag) = &checks.layering {
        layering::check_source(class, scanned, dag, &mut out, &mut used);
    }
    if let Some(persist) = &checks.persistence {
        persistence::check_source(class, scanned, persist, &mut out, &mut used);
    }
    let suppressions = rule_w1(class, scanned, rules, checks, &used, &mut out);
    out.sort();
    out.dedup();
    FileLint {
        violations: out,
        suppressions,
    }
}

/// Runs the token rules (no config-driven check) over one scanned file,
/// returning the findings.
pub fn lint_file(
    class: &FileClass,
    scanned: &ScannedFile,
    rules: &BTreeSet<String>,
) -> Vec<Violation> {
    lint_file_full(class, scanned, rules, &TreeChecks::default()).violations
}

/// Shared per-site filter: test code and allow comments. A suppression via
/// an allow comment is recorded in `used` so W1 can spot stale allows.
pub(crate) fn suppressed(
    class: &FileClass,
    scanned: &ScannedFile,
    rule: &str,
    line: u32,
    used: &mut BTreeSet<(u32, String)>,
) -> bool {
    if class.is_test || scanned.is_test_line(line) {
        return true;
    }
    if let Some(allow_line) = scanned.allow_line(rule, line) {
        used.insert((allow_line, rule.to_owned()));
        return true;
    }
    false
}

fn push(
    out: &mut Vec<Violation>,
    class: &FileClass,
    rule: &'static str,
    line: u32,
    message: String,
) {
    out.push(Violation {
        file: class.path.clone(),
        line,
        rule,
        message,
    });
}

// --- D1: hash-order iteration flowing into ordered output ----------------

/// Identifiers declared (let binding, field, or parameter) with a
/// `HashMap`/`HashSet` type, collected file-wide.
fn hash_typed_idents(tokens: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str());
    for i in 0..tokens.len() {
        let t = &tokens[i].text;
        // `name: [&] [mut] [std::collections::] [Option<&] HashMap<…>` —
        // covers struct fields, fn parameters, and typed let bindings.
        if is_ident(t) && text(i + 1) == Some(":") {
            let window = tokens[i + 2..].iter().take(8);
            if window
                .take_while(|t| !matches!(t.text.as_str(), "," | ";" | ")" | "=" | "{"))
                .any(|t| t.text == "HashMap" || t.text == "HashSet")
            {
                names.insert(t.clone());
            }
        }
        // `let [mut] name = <expr containing HashMap/HashSet> ;`
        if t == "let" {
            let mut j = i + 1;
            if text(j) == Some("mut") {
                j += 1;
            }
            let Some(name) = text(j).filter(|s| is_ident(s)).map(str::to_owned) else {
                continue;
            };
            if text(j + 1) != Some("=") {
                continue; // typed lets are handled by the `name :` arm
            }
            // Only depth-0 mentions count: `HashMap::new()` or a collect
            // turbofish marks the binding, but a HashMap buried inside a
            // struct literal or `vec![…]` does not make the binding itself
            // a hash container.
            let mut depth = 0i32;
            for t in &tokens[j + 2..] {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth <= 0 => break,
                    "HashMap" | "HashSet" if depth == 0 => {
                        names.insert(name.clone());
                        break;
                    }
                    _ => {}
                }
                if depth < 0 {
                    break;
                }
            }
        }
    }
    names
}

fn is_ident(s: &str) -> bool {
    s.chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && !matches!(
            s,
            "let"
                | "mut"
                | "fn"
                | "for"
                | "in"
                | "if"
                | "else"
                | "match"
                | "while"
                | "loop"
                | "return"
                | "pub"
                | "use"
                | "mod"
                | "impl"
                | "struct"
                | "enum"
                | "as"
                | "self"
        )
}

/// The token span of the statement containing index `i`: back to the
/// previous `;`/`{`/`}`, forward through balanced brackets to the closing
/// `;` (or the end of the enclosing block).
fn statement_span(tokens: &[Token], i: usize) -> (usize, usize) {
    let mut start = i;
    while start > 0 && !matches!(tokens[start - 1].text.as_str(), ";" | "{" | "}") {
        start -= 1;
    }
    let mut end = i;
    let mut depth = 0i32;
    while end < tokens.len() {
        match tokens[end].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            ";" if depth <= 0 => break,
            _ => {}
        }
        end += 1;
    }
    (start, end.min(tokens.len()))
}

/// Whether the statement right after token `end` applies an explicit sort —
/// the common `collect()` … `sort_unstable()` two-step, which restores a
/// deterministic order before anything observes it. Only applies when the
/// flagged statement actually ended at a `;` (otherwise `end` is a block
/// boundary and the following tokens belong to unrelated code).
fn next_statement_sorts(tokens: &[Token], end: usize) -> bool {
    if tokens.get(end).map(|t| t.text.as_str()) != Some(";") {
        return false;
    }
    let mut depth = 0i32;
    for t in tokens.iter().skip(end + 1) {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" | "}" if depth <= 0 => return false,
            "{" | "}" => {}
            ";" if depth <= 0 => return false,
            s if s.starts_with("sort") => return true,
            _ => {}
        }
        if depth < 0 {
            return false;
        }
    }
    false
}

fn rule_d1(
    class: &FileClass,
    scanned: &ScannedFile,
    out: &mut Vec<Violation>,
    used: &mut BTreeSet<(u32, String)>,
) {
    let tokens = &scanned.tokens;
    let hashed = hash_typed_idents(tokens);
    if hashed.is_empty() {
        return;
    }
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str());

    for i in 0..tokens.len() {
        // Pattern A: `<hash ident> . <iter method> (`.
        if HASH_ITER_METHODS.contains(&tokens[i].text.as_str())
            && text(i + 1) == Some("(")
            && i >= 2
            && text(i - 1) == Some(".")
            && hashed.contains(&tokens[i - 2].text)
        {
            let line = tokens[i].line;
            let (start, end) = statement_span(tokens, i);
            // Inside a `for` header the statement heuristic does not apply:
            // the loop body observes the order directly.
            let in_for_header = tokens[start..i].iter().any(|t| t.text == "for");
            let exempt = !in_for_header
                && (tokens[start..end]
                    .iter()
                    .any(|t| ORDER_INSENSITIVE.contains(&t.text.as_str()))
                    || next_statement_sorts(tokens, end));
            // Exemption is decided before suppression so that an allow on
            // an already-exempt site counts as unused (W1 flags it).
            if exempt || suppressed(class, scanned, "D1", line, used) {
                continue;
            }
            push(
                out,
                class,
                "D1",
                line,
                format!(
                    "`{}.{}()` iterates a hash container in arbitrary order; use a BTreeMap/BTreeSet, sort the result, or collect into an unordered container",
                    tokens[i - 2].text, tokens[i].text
                ),
            );
            continue;
        }
        // Pattern B: `for <pat> in [&][mut] <hash ident> {`.
        if tokens[i].text == "for" {
            // Find `in` before the loop body's `{`.
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "in" if depth == 0 => break,
                    "{" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if text(j) != Some("in") {
                continue;
            }
            // Header expression: from `in` to the body `{` at depth 0.
            let mut k = j + 1;
            let mut depth = 0i32;
            while k < tokens.len() {
                match tokens[k].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let header = &tokens[j + 1..k.min(tokens.len())];
            // Direct iteration over the container itself (`for x in &map`,
            // `for x in self.map`); method calls in the header are covered
            // by pattern A, and anything more complex (ranges, slices,
            // arithmetic) is not hash iteration.
            let stripped: Vec<&Token> = header
                .iter()
                .filter(|t| !matches!(t.text.as_str(), "&" | "mut"))
                .collect();
            let direct = match stripped.as_slice() {
                [only] => Some(*only),
                [obj, dot, field] if obj.text == "self" && dot.text == "." => Some(*field),
                _ => None,
            };
            if let Some(hit) = direct.filter(|t| hashed.contains(&t.text)) {
                let line = hit.line;
                if !suppressed(class, scanned, "D1", line, used) {
                    push(
                        out,
                        class,
                        "D1",
                        line,
                        format!(
                            "`for … in {}` iterates a hash container in arbitrary order; use a BTreeMap/BTreeSet or sort first",
                            hit.text
                        ),
                    );
                }
            }
        }
    }
}

// --- P1/P2: parallel-closure safety --------------------------------------

/// Tokens that mean interior-mutable shared state inside a worker closure.
const INTERIOR_MUTABLE: &[&str] = &["RefCell", "Cell", "borrow_mut", "UnsafeCell"];

/// Mutating methods a worker must not call on captured state.
const MUTATING_METHODS: &[&str] = &[
    "push", "push_str", "insert", "extend", "append", "remove", "clear", "truncate", "pop",
    "drain", "retain",
];

/// Compound-assignment operator heads (`op` in `x op= e`).
const COMPOUND_OPS: &[&str] = &["+", "-", "*", "/", "%", "^", "&", "|"];

/// Identifiers declared file-wide with a floating-point type: `name: f32`,
/// `name: f64`, or `let [mut] name = <float literal>`.
fn float_typed_idents(tokens: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str());
    let is_float_literal = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_digit())
            && (s.contains('.') || s.ends_with("f32") || s.ends_with("f64"))
    };
    for (i, tok) in tokens.iter().enumerate() {
        let t = &tok.text;
        if is_ident(t)
            && text(i + 1) == Some(":")
            && matches!(text(i + 2), Some("f32") | Some("f64"))
        {
            names.insert(t.clone());
        }
        if t == "let" {
            let mut j = i + 1;
            if text(j) == Some("mut") {
                j += 1;
            }
            let Some(name) = text(j).filter(|s| is_ident(s)).map(str::to_owned) else {
                continue;
            };
            if text(j + 1) == Some("=") && text(j + 2).is_some_and(is_float_literal) {
                names.insert(name);
            }
        }
    }
    names
}

/// P1 — parallel closures must not capture interior-mutable state, use
/// relaxed atomic orderings, or mutate captured bindings. P2 — the one
/// race the 1-thread parity suites can never catch: floating-point
/// accumulation into shared state, where even a *data-race-free* reduction
/// changes the result because FP addition is not associative. Mutations of
/// float-typed captures fire P2; everything else fires P1.
fn rule_p1_p2(
    class: &FileClass,
    scanned: &ScannedFile,
    rules: &BTreeSet<String>,
    out: &mut Vec<Violation>,
    used: &mut BTreeSet<(u32, String)>,
) {
    if class.is_test {
        return;
    }
    let tokens = &scanned.tokens;
    let floats = float_typed_idents(tokens);
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str());
    for region in crate::scan::parallel_regions(tokens) {
        if scanned.is_test_line(region.line) {
            continue;
        }
        let (lo, hi) = region.body;
        for (k, tok) in tokens
            .iter()
            .enumerate()
            .take(hi.min(tokens.len()))
            .skip(lo)
        {
            let t = tok.text.as_str();
            let line = tok.line;
            // Interior mutability and relaxed atomics: shared state a
            // worker could observe or mutate in a schedule-dependent way.
            if rules.contains("P1") {
                if INTERIOR_MUTABLE.contains(&t) {
                    if !suppressed(class, scanned, "P1", line, used) {
                        push(
                            out,
                            class,
                            "P1",
                            line,
                            format!(
                                "`{t}` inside a parallel closure (trigger `{}`); workers must communicate only through their disjoint per-index output",
                                region.trigger
                            ),
                        );
                    }
                    continue;
                }
                if t == "Relaxed" {
                    if !suppressed(class, scanned, "P1", line, used) {
                        push(
                            out,
                            class,
                            "P1",
                            line,
                            format!(
                                "relaxed atomic ordering inside a parallel closure (trigger `{}`); Relaxed gives no cross-thread ordering — use the ordered per-index buffer, or justify why the schedule cannot leak into the result",
                                region.trigger
                            ),
                        );
                    }
                    continue;
                }
            }
            // Mutation of a captured binding.
            if !is_ident(t) || region.locals.contains(t) {
                continue;
            }
            let compound = text(k + 1).is_some_and(|op| COMPOUND_OPS.contains(&op))
                && text(k + 2) == Some("=")
                && text(k + 3) != Some("=");
            let plain = text(k + 1) == Some("=")
                && !matches!(text(k + 2), Some("=") | Some(">"))
                && (k == 0
                    || !matches!(
                        text(k - 1),
                        Some("=")
                            | Some("<")
                            | Some(">")
                            | Some("!")
                            | Some("let")
                            | Some(".")
                            | Some("mut")
                    ));
            let method_mut = text(k + 1) == Some(".")
                && text(k + 2).is_some_and(|m| MUTATING_METHODS.contains(&m))
                && text(k + 3) == Some("(");
            if !(compound || plain || method_mut) {
                continue;
            }
            let arithmetic =
                compound && matches!(text(k + 1), Some("+") | Some("-") | Some("*") | Some("/"));
            if arithmetic && floats.contains(t) {
                if rules.contains("P2") && !suppressed(class, scanned, "P2", line, used) {
                    push(
                        out,
                        class,
                        "P2",
                        line,
                        format!(
                            "floating-point accumulation into captured `{t}` inside a parallel closure; FP addition is not associative, so even a race-free shared reduce is schedule-dependent — write per-index values into an ordered buffer and reduce serially"
                        ),
                    );
                }
            } else if rules.contains("P1") && !suppressed(class, scanned, "P1", line, used) {
                push(
                    out,
                    class,
                    "P1",
                    line,
                    format!(
                        "parallel closure mutates captured `{t}`; workers must write only through their own disjoint per-index slot"
                    ),
                );
            }
        }
    }
}

// --- W1: unused suppressions ----------------------------------------------

/// An allow comment that suppresses nothing is itself a violation: stale
/// allows otherwise accumulate and hide real regressions at the same site
/// later. So is one naming no known rule — a typo, or a family that has
/// been retired — which would otherwise linger forever. Allows naming a
/// rule that did not run in this pass (disabled, or its config section is
/// absent) are not judged. Returns every judged allow with its usage.
fn rule_w1(
    class: &FileClass,
    scanned: &ScannedFile,
    enabled: &BTreeSet<String>,
    checks: &TreeChecks,
    used: &BTreeSet<(u32, String)>,
    out: &mut Vec<Violation>,
) -> Vec<Suppression> {
    let mut suppressions = Vec::new();
    if class.is_test {
        return suppressions;
    }
    let w1 = enabled.contains("W1");
    for (&line, rules) in &scanned.allows {
        if scanned.is_test_line(line) {
            continue;
        }
        for rule in rules {
            if !ALL_RULES.contains(&rule.as_str()) {
                if w1 {
                    push(
                        out,
                        class,
                        "W1",
                        line,
                        format!(
                            "unknown rule: `allow({rule})` names no segugio-lint rule (known: {}); delete the comment — retired families are clippy lints, suppressed with `#[expect(clippy::…, reason = \"…\")]`",
                            ALL_RULES.join(", ")
                        ),
                    );
                }
                continue;
            }
            let ran = match rule.as_str() {
                "A1" => checks.layering.is_some(),
                "S1" => checks.persistence.is_some(),
                _ => enabled.contains(rule),
            };
            if !ran {
                continue;
            }
            let is_used = used.contains(&(line, rule.clone()));
            suppressions.push(Suppression {
                file: class.path.clone(),
                line,
                rule: rule.clone(),
                used: is_used,
            });
            if w1 && !is_used {
                push(
                    out,
                    class,
                    "W1",
                    line,
                    format!(
                        "unused suppression: `allow({rule})` matches no {rule} finding on this or the next line; delete the stale comment"
                    ),
                );
            }
        }
    }
    suppressions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn run(path: &str, src: &str) -> Vec<Violation> {
        let rules: BTreeSet<String> = ALL_RULES.iter().map(|s| s.to_string()).collect();
        lint_file(&classify(path), &scan(src), &rules)
    }

    #[test]
    fn classify_paths() {
        assert!(classify("crates/graph/tests/prop_builder.rs").is_test);
        assert!(classify("crates/bench/benches/perf_timing.rs").is_test);
        assert!(classify("examples/demo.rs").is_test);
        assert!(!classify("crates/ml/src/tree.rs").is_test);
    }

    #[test]
    fn d1_flags_unsorted_iteration_and_honors_sorts() {
        let src = "
fn f(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {
    let v: Vec<u32> = m.values().copied().collect();
    v
}
fn g(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {
    let mut v: Vec<u32> = m.values().copied().collect();
    v.sort_unstable();
    v
}";
        let v = run("crates/eval/src/x.rs", src);
        // f leaks hash order into an ordered Vec; g's collect-then-sort
        // restores a deterministic order and is exempt.
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "D1");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn d1_exempts_single_statement_sort_and_unordered_sinks() {
        let src = "
fn f(m: &std::collections::HashMap<u32, u32>) -> usize {
    let total: usize = m.values().map(|&v| v as usize).sum();
    let other: std::collections::HashSet<u32> = m.keys().copied().collect();
    total + other.len()
}";
        assert!(run("crates/eval/src/x.rs", src).is_empty());
    }

    #[test]
    fn d1_flags_for_loops_over_hash_containers() {
        let src = "
fn f() {
    let mut m = std::collections::HashMap::new();
    m.insert(1u32, 2u32);
    for (k, v) in &m {
        println!(\"{k} {v}\");
    }
}";
        let v = run("suite/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "D1");
    }

    #[test]
    fn p1_flags_interior_mutability_and_relaxed_atomics() {
        let src = "
fn f(xs: &[u64], cell: &std::cell::RefCell<u64>, n: &AtomicUsize) -> Vec<u64> {
    parallel_map_indexed(xs.len(), 4, |i| {
        *cell.borrow_mut() += xs[i];
        n.fetch_add(1, Ordering::Relaxed);
        xs[i]
    })
}";
        let v = run("crates/core/src/x.rs", src);
        let rules: Vec<&str> = v.iter().map(|x| x.rule).collect();
        assert!(rules.iter().all(|r| *r == "P1"), "{v:?}");
        // borrow_mut inside the closure + Relaxed; the RefCell in the
        // signature sits outside the parallel region and is fine.
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn p1_flags_captured_mutation_but_not_locals() {
        let src = "
fn f(out: &mut Vec<u64>, xs: &[u64]) {
    scope.spawn(move |_| {
        let mut acc = 0u64;
        for (k, slot) in chunk.iter_mut().enumerate() {
            acc += 1;
            *slot = Some(k);
        }
        out.push(acc);
    });
}";
        let v = run("crates/graph/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "P1");
        assert!(v[0].message.contains("out"), "{v:?}");
    }

    #[test]
    fn p2_flags_shared_float_accumulator() {
        let src = "
fn f(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    parallel_map_indexed(xs.len(), 4, |i| {
        total += xs[i];
    });
    total
}";
        let v = run("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "P2");
    }

    #[test]
    fn p_rules_ignore_the_sanctioned_per_index_pattern() {
        let src = "
fn f(xs: &[f64], threads: usize) -> f64 {
    let parts = parallel_map_indexed(xs.len(), threads, |i| xs[i] * 2.0);
    parts.iter().sum()
}";
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn w1_flags_stale_allows_and_spares_used_ones() {
        let src = "
fn f(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {
    // segugio-lint: allow(D1, deliberately unordered probe output)
    m.keys().copied().collect()
}
fn g() -> u32 {
    // segugio-lint: allow(P1, nothing here runs on a worker)
    7
}";
        let v = run("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "W1");
        assert_eq!(v[0].line, 7);
        assert!(v[0].message.contains("allow(P1)"), "{v:?}");
    }

    #[test]
    fn w1_flags_allows_naming_no_known_rule() {
        // A typo, or a family that was retired: neither may linger, and
        // neither depends on which rules this run enabled.
        let src = "
fn g() -> u32 {
    // segugio-lint: allow(D2, retired family)
    // segugio-lint: allow(d1, typo)
    7
}";
        let only_w1: BTreeSet<String> = ["W1".to_owned()].into_iter().collect();
        let v = lint_file(&classify("crates/core/src/x.rs"), &scan(src), &only_w1);
        let fired: Vec<(&str, u32)> = v.iter().map(|x| (x.rule, x.line)).collect();
        assert_eq!(fired, vec![("W1", 3), ("W1", 4)], "{v:?}");
        assert!(v[0].message.contains("unknown rule: `allow(D2)`"), "{v:?}");
    }

    #[test]
    fn w1_ignores_doc_text_and_disabled_rules() {
        // Doc text quoting the syntax is prose, not a directive; an allow
        // for a rule not enabled in this run is not judged.
        let src = "
//! Suppress with `// segugio-lint: allow(RULE, reason)` comments.
fn g() -> u32 {
    // segugio-lint: allow(D1, stale but D1 is disabled in this run)
    7
}";
        let only_w1: BTreeSet<String> = ["W1".to_owned()].into_iter().collect();
        let v = lint_file(&classify("crates/core/src/x.rs"), &scan(src), &only_w1);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allow_comments_suppress() {
        let src = "
fn f(m: &std::collections::HashMap<u32, u32>) -> usize {
    let mut n = 0;
    // segugio-lint: allow(D1, increment is order-insensitive)
    for (_, v) in m { n += *v as usize; }
    n
}";
        assert!(run("crates/eval/src/x.rs", src).is_empty());
    }
}
