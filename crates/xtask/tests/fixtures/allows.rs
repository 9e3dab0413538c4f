//! Allow-comment fixture: every would-be violation carries a reason.
use std::collections::HashMap;

pub fn histogram(m: &HashMap<u32, u32>) -> u64 {
    let mut n = 0u64;
    // segugio-lint: allow(D1, summation commutes so iteration order cannot matter)
    for (_, v) in m {
        n += u64::from(*v);
    }
    n
}

pub fn tally(xs: &[u64], threads: usize) -> u64 {
    let mut hits = 0u64;
    parallel_map_indexed(xs.len(), threads, |i| {
        // segugio-lint: allow(P1, fixture: a serial stand-in runs the closure in index order)
        hits += xs[i];
    });
    hits
}
