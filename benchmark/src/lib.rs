//! The one benchmark for the Segugio day.
//!
//! Two binaries share this library: `bench` measures the end-to-end
//! metrics with the system allocator and no spans; `trace` installs the
//! counting allocator and records one span per call into a layer. This
//! library and `bench` use only the durable surface of the system under
//! test (`Tracker`, `TrackerConfig`, `SnapshotInput`, `IspNetwork`,
//! `EdgeRuns`, `DaySnapshot::build_from_runs`, `IncrementalEngine`,
//! `Segugio::train_prepared`, `SegugioModel` scoring, `RocCurve`,
//! `export_day`, the `segugio` binary); only `trace` names per-layer
//! internals, so a later change that removes one of those can break
//! `trace` but never `bench`.

pub mod json;
pub mod logs;
pub mod report;
pub mod span;
pub mod workload;

/// The one place the harness reads the clock. The repository's determinism
/// lint bans clock reads outside `crates/bench`; measuring wall time is this
/// package's purpose too.
pub fn clock() -> std::time::Instant {
    // segugio-lint: allow(D2, measuring wall time is what the benchmark is for)
    std::time::Instant::now()
}
