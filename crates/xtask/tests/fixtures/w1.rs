//! W1 fixture: allow comments that suppress nothing, or name no rule, are
//! themselves findings.
use std::collections::HashMap;

pub fn live_allow(m: &HashMap<u32, u32>) -> u64 {
    let mut n = 0u64;
    // segugio-lint: allow(D1, summation commutes so iteration order cannot matter)
    for (_, v) in m {
        n += u64::from(*v);
    }
    n
}

pub fn stale_allow() -> u32 {
    // segugio-lint: allow(P1, nothing on the next line runs on a worker)
    7
}

pub fn doc_text_is_ignored() -> u32 {
    // The syntax is `segugio-lint: allow(RULE, reason)` — not a directive.
    9
}

pub fn retired_or_misspelled_rules_cannot_linger() -> u32 {
    // segugio-lint: allow(H4, the hot-path family was retired)
    // segugio-lint: allow(d1, rule names are case-sensitive)
    11
}
