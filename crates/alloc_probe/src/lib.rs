//! Counting global allocator for steady-state allocation audits.
//!
//! [`CountingAlloc`] wraps [`System`] and tallies every heap operation in
//! four process-global counters: allocation count, free count, cumulative
//! allocated bytes, and the high-water mark of live bytes. A bench
//! installs it with `#[global_allocator]`, brackets each phase of a run
//! with [`measure`], and records the per-phase [`PhaseCounts`] deltas —
//! `crates/bench/benches/alloc.rs` writes them into `BENCH_alloc.json`
//! and asserts each one against `crates/bench/alloc-budget.toml`.
//!
//! The probe is deliberately dependency-free: it must be linkable from
//! any bench without dragging the engine in, and its own bookkeeping
//! never allocates (plain atomics only), so bracketing a region cannot
//! perturb the counts it reports.
//!
//! Counter updates use `Relaxed` ordering. The counters are independent
//! monotone tallies — no update is ever lost, and no rule orders one
//! counter against another. Exact phase attribution additionally needs
//! the measured region to run on the bracketing thread with no
//! concurrent allocator traffic; the alloc bench guarantees that by
//! forcing scoring parallelism to one.

#![deny(clippy::undocumented_unsafe_blocks)]
#![expect(
    clippy::disallowed_types,
    reason = "process-global counters are the probe's purpose; no pipeline result reads them"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] that forwards to [`System`] and counts.
///
/// Install with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: segugio_alloc_probe::CountingAlloc = segugio_alloc_probe::CountingAlloc;
/// ```
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn on_free(size: usize) {
    FREES.fetch_add(1, Relaxed);
    LIVE.fetch_sub(size as u64, Relaxed);
}

// SAFETY: every method forwards the caller's layout/pointer to `System`
// unchanged, so `System`'s contract is met exactly when the caller met ours.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc` — forwarded unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    // SAFETY: same contract as `System::alloc_zeroed` — forwarded unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    // SAFETY: same contract as `System::dealloc` — forwarded unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr`/`layout` are the caller's, forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System::realloc` — forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, forwarded
        // unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A grow-or-move counts as one free of the old block plus one
            // allocation of the new one, whatever the system allocator
            // did internally: what the budget ratchets is allocator
            // traffic, and a realloc in a hot path is exactly the
            // buffer-growth churn the discipline exists to surface.
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// A point-in-time reading of the global counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Allocations since process start.
    pub allocs: u64,
    /// Frees since process start.
    pub frees: u64,
    /// Cumulative bytes allocated since process start.
    pub bytes: u64,
    /// Bytes currently live.
    pub live: u64,
    /// High-water mark of `live` since process start (or the last
    /// [`reset_peak`]).
    pub peak: u64,
}

/// Reads all counters. Never allocates.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        frees: FREES.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Resets the high-water mark to the current live-byte count, so the next
/// [`snapshot`] reads the peak *since this call*.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Allocator traffic attributed to one measured region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseCounts {
    /// Heap allocations performed inside the region.
    pub allocs: u64,
    /// Heap frees performed inside the region.
    pub frees: u64,
    /// Bytes allocated inside the region (cumulative, not net).
    pub bytes: u64,
    /// Peak live bytes observed during the region.
    pub peak_bytes: u64,
}

/// Runs `f` and returns its result together with the allocator traffic it
/// generated.
///
/// The bracketing itself allocates nothing, so an `f` that performs zero
/// heap operations reports exactly zero — the property the steady-state
/// scoring budget asserts. Deltas are exact when no other thread touches
/// the allocator while `f` runs.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, PhaseCounts) {
    reset_peak();
    let start = snapshot();
    let out = f();
    let end = snapshot();
    (
        out,
        PhaseCounts {
            allocs: end.allocs - start.allocs,
            frees: end.frees - start.frees,
            bytes: end.bytes - start.bytes,
            peak_bytes: end.peak,
        },
    )
}

#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    // The unit tests share the process-global counters with the test
    // harness, so they assert lower bounds and invariants; the exact-zero
    // steady-state property is asserted in crates/bench/benches/alloc.rs,
    // where the probe owns the whole process.

    /// Held by every test for its whole body: a sibling freeing its
    /// buffers on another thread moves `live` and the peak under a test
    /// that is comparing two reads of them.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn counters() -> std::sync::MutexGuard<'static, ()> {
        // A sibling that failed an assertion poisoned nothing worth
        // protecting: the guard holds no data.
        COUNTERS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn measure_counts_an_allocation_and_its_free() {
        let _serial = counters();
        let (_, c) = measure(|| {
            let v: Vec<u8> = Vec::with_capacity(4096);
            drop(v);
        });
        assert!(c.allocs >= 1, "allocs {}", c.allocs);
        assert!(c.frees >= 1, "frees {}", c.frees);
        assert!(c.bytes >= 4096, "bytes {}", c.bytes);
        assert!(c.peak_bytes >= 4096, "peak {}", c.peak_bytes);
    }

    #[test]
    fn leaked_allocation_raises_live() {
        let _serial = counters();
        // Large against anything the harness itself may free between the
        // two reads (it prints results on its own thread).
        const HELD: u64 = 1 << 20;
        let before = snapshot();
        let v: Vec<u8> = Vec::with_capacity(HELD as usize);
        let after = snapshot();
        assert!(
            after.live >= before.live + HELD / 2,
            "live {} -> {}",
            before.live,
            after.live
        );
        drop(v);
    }

    #[test]
    fn realloc_growth_is_counted_as_traffic() {
        let _serial = counters();
        let (_, c) = measure(|| {
            let mut v: Vec<u8> = Vec::with_capacity(16);
            // Force at least one grow-in-place-or-move.
            for i in 0..4096u32 {
                v.push(i as u8);
            }
            drop(v);
        });
        assert!(c.allocs >= 2, "growth must re-allocate: {}", c.allocs);
        assert!(c.bytes >= 4096 + 16, "bytes {}", c.bytes);
    }

    #[test]
    fn peak_resets_to_live() {
        let _serial = counters();
        let held: Vec<u8> = Vec::with_capacity(2048);
        let (_, c) = measure(|| ());
        // The empty region's peak is whatever was live going in — never
        // less than the buffer we are still holding.
        assert!(c.peak_bytes >= 2048, "peak {}", c.peak_bytes);
        drop(held);
    }

    #[test]
    fn snapshot_is_monotone_in_traffic() {
        let _serial = counters();
        let a = snapshot();
        let v: Vec<u64> = (0..128).collect();
        let b = snapshot();
        assert!(b.allocs > a.allocs);
        assert!(b.bytes > a.bytes);
        assert!(b.frees >= a.frees);
        drop(v);
    }
}
