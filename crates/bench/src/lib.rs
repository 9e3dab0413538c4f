//! Shared setup for the table/figure benchmarks.
//!
//! Every bench target regenerates one artifact of the paper's evaluation
//! (printed to stdout before sampling begins) and then times the
//! computational kernel behind it with Criterion. Absolute numbers live in
//! `EXPERIMENTS.md`; run `cargo bench --workspace` to refresh them.

use std::collections::BTreeMap;

use segugio_eval::experiments::Scale;

/// The scale benches run at: the `ISP1`/`ISP2` presets (tens of thousands
/// of machines — the paper's deployments scaled down ~80–130×).
pub fn bench_scale() -> Scale {
    Scale::paper()
}

/// A reduced scale for the kernels sampled many times by Criterion.
pub fn kernel_scale() -> Scale {
    Scale::small()
}

/// The `key = count` entries of one `[section]` of a checked-in ceiling
/// file (`alloc-budget.toml`, `scale-ceiling.toml`,
/// `checkpoint-ceiling.toml`): a tiny TOML subset of `#` comments,
/// `[section]` headers and bare or quoted keys. A value that is not a
/// non-negative integer is skipped, so its key reads as missing.
pub fn parse_section(text: &str, section: &str) -> BTreeMap<String, u64> {
    let mut entries = BTreeMap::new();
    let mut in_section = false;
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            in_section = name.trim() == section;
            continue;
        }
        if !in_section {
            continue;
        }
        if let Some((name, value)) = line.split_once('=') {
            let key = name.trim().trim_matches('"');
            if let Ok(v) = value.trim().parse::<u64>() {
                entries.insert(key.to_owned(), v);
            }
        }
    }
    entries
}
