//! Deterministic fork-join helpers for the per-day hot path.
//!
//! Training-set extraction and unknown-domain scoring are embarrassingly
//! parallel: every domain's feature vector depends only on the immutable
//! snapshot. The helpers here chunk an index range over scoped worker
//! threads and merge results **in index order**, so the output is
//! bit-for-bit identical to the serial loop no matter how many workers run
//! or how their execution interleaves.

/// Resolves a `parallelism` knob to a concrete worker count.
///
/// `None` means "use every available core"; `Some(n)` pins the count
/// (clamped to at least 1). `Some(1)` is the exact serial path: neither
/// these helpers nor the snapshot's abuse-index overlap spawn a thread.
/// The one thread it does not govern is `EdgeRuns`'s seal worker in
/// `segugio-graph`, a fixed stage of edge accumulation whose result does
/// not depend on when it runs.
pub fn resolve_parallelism(knob: Option<usize>) -> usize {
    match knob {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Maps `f` over `0..len` on `threads` workers, returning the results in
/// index order.
///
/// The range is split into `threads` contiguous chunks; each worker fills
/// its own disjoint slice of the output, so no synchronization is needed
/// beyond the final join and the merged vector equals the serial
/// `(0..len).map(f).collect()` exactly.
pub fn parallel_map_indexed<R, F>(len: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.min(len).max(1);
    if threads == 1 {
        return (0..len).map(f).collect();
    }
    let chunk = len.div_ceil(threads);
    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    let joined = crossbeam::thread::scope(|scope| {
        for (w, out) in slots.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move |_| {
                let base = w * chunk;
                for (k, slot) in out.iter_mut().enumerate() {
                    *slot = Some(f(base + k));
                }
            });
        }
    });
    if let Err(payload) = joined {
        // A worker panicked; propagate the original panic untouched.
        std::panic::resume_unwind(payload);
    }
    // Each worker fills its whole disjoint chunk, so every slot is Some
    // once the scope joins cleanly.
    let merged: Vec<R> = slots.into_iter().flatten().collect();
    debug_assert_eq!(
        merged.len(),
        len,
        "every index filled by exactly one worker"
    );
    merged
}

/// Fills `out` on `threads` workers, handing each worker one contiguous
/// chunk as `fill(base_index, chunk)`.
///
/// The blocked-scoring counterpart of [`parallel_map_indexed`]: the caller
/// owns the output storage (a reusable buffer), so repeated calls allocate
/// nothing, and a worker can process its chunk in cache-sized blocks
/// instead of one index at a time. Chunk boundaries only affect which
/// worker computes an element, never its value, so the result equals the
/// serial `fill(0, out)` exactly.
pub fn parallel_map_fill<T, F>(out: &mut [T], threads: usize, fill: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = out.len();
    let threads = threads.min(len).max(1);
    if threads == 1 {
        fill(0, out);
        return;
    }
    let chunk = len.div_ceil(threads);
    let joined = crossbeam::thread::scope(|scope| {
        for (w, slice) in out.chunks_mut(chunk).enumerate() {
            let fill = &fill;
            scope.spawn(move |_| {
                fill(w * chunk, slice);
            });
        }
    });
    if let Err(payload) = joined {
        // A worker panicked; propagate the original panic untouched.
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_clamps_and_defaults() {
        assert_eq!(resolve_parallelism(Some(0)), 1);
        assert_eq!(resolve_parallelism(Some(3)), 3);
        assert!(resolve_parallelism(None) >= 1);
    }

    #[test]
    fn map_is_index_ordered_at_any_width() {
        let serial: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 97, 200] {
            let par = parallel_map_indexed(97, threads, |i| i * i);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_tiny_ranges() {
        assert!(parallel_map_indexed(0, 4, |i| i).is_empty());
        assert_eq!(parallel_map_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn fill_matches_serial_at_any_width() {
        let mut serial = vec![0usize; 97];
        parallel_map_fill(&mut serial, 1, |base, out| {
            for (k, s) in out.iter_mut().enumerate() {
                *s = (base + k) * (base + k);
            }
        });
        for threads in [2, 3, 8, 97, 200] {
            let mut par = vec![0usize; 97];
            parallel_map_fill(&mut par, threads, |base, out| {
                for (k, s) in out.iter_mut().enumerate() {
                    *s = (base + k) * (base + k);
                }
            });
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn fill_handles_empty_output() {
        let mut empty: Vec<usize> = Vec::new();
        parallel_map_fill(&mut empty, 4, |_, out| {
            assert!(out.is_empty());
        });
    }
}
