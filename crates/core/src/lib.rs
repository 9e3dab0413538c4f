//! Segugio — behavior-based tracking of malware-control domains.
//!
//! This crate is the paper's primary contribution: given one day of DNS
//! traffic summarized as a labeled machine–domain behavior graph (built by
//! `segugio-graph` from `segugio-traffic` or any other source), plus the
//! history stores from `segugio-pdns`, it
//!
//! 1. builds the labeled, pruned day graph ([`DaySnapshot::build`]);
//! 2. measures **11 statistical features** per domain in three groups —
//!    machine behavior (F1), domain activity (F2) and IP abuse (F3) — in one
//!    pass, hiding each known domain's label while it is measured so it
//!    becomes an honest training row ([`measure_day`], paper Fig. 5);
//! 3. trains a statistical classifier (Random Forest by default, logistic
//!    regression as the alternative) into a [`SegugioModel`]
//!    ([`Segugio::train_prepared`]);
//! 4. picks the operating threshold on the training rows' scores for a
//!    target false-positive rate ([`calibrate`]);
//! 5. scores every still-`unknown` domain of a (possibly different) day's
//!    graph ([`SegugioModel::score_rows_with`]) and reports those at or
//!    above the threshold, together with the machines that queried them
//!    ([`DaySnapshot::implicated_machines`]).
//!
//! [`Tracker::process_day`] runs these stages for one day of a deployment.
//!
//! # Quick start
//!
//! ```
//! use segugio_core::{DaySnapshot, Segugio, SegugioConfig, SnapshotInput};
//! use segugio_traffic::{IspConfig, IspNetwork};
//!
//! // Simulate a small ISP with history.
//! let mut isp = IspNetwork::new(IspConfig::tiny(42));
//! isp.warm_up(15);
//! let train_day = isp.next_day();
//!
//! // Build the labeled day snapshot and train.
//! let config = SegugioConfig::default();
//! let input = SnapshotInput {
//!     day: train_day.day,
//!     queries: &train_day.queries,
//!     resolutions: &train_day.resolutions,
//!     table: isp.table(),
//!     pdns: isp.pdns(),
//!     blacklist: isp.commercial_blacklist(),
//!     whitelist: isp.whitelist(),
//!     hidden: None,
//! };
//! let snapshot = DaySnapshot::build(&input, &config);
//! let model = Segugio::train(&snapshot, isp.activity(), &config)
//!     .expect("the warmed-up fixture seeds both classes");
//!
//! // Detect on the next day.
//! let test_day = isp.next_day();
//! let input2 = SnapshotInput {
//!     day: test_day.day,
//!     queries: &test_day.queries,
//!     resolutions: &test_day.resolutions,
//!     table: isp.table(),
//!     pdns: isp.pdns(),
//!     blacklist: isp.commercial_blacklist(),
//!     whitelist: isp.whitelist(),
//!     hidden: None,
//! };
//! let snapshot2 = DaySnapshot::build(&input2, &config);
//! let detections = model.score_unknown(&snapshot2, isp.activity());
//! assert!(!detections.is_empty());
//! ```

#![warn(missing_docs)]
// Library code returns typed errors; a panic site needs a reasoned
// `#[expect(clippy::…, reason = "…")]`, which fails the build once stale.
// Hash-set/map iteration order differs per process, so it must not reach
// ordered output; a site whose order provably cannot matter is an
// `#[expect]` too — a plain `#[allow]` is denied.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::undocumented_unsafe_blocks,
    clippy::iter_over_hash_type,
    clippy::allow_attributes
)]
pub mod checkpoint;
pub mod config;
pub mod error;
pub mod features;
pub mod model;
pub mod parallel;
pub mod snapshot;
pub mod tracker;
pub mod trainer;

pub use checkpoint::{
    write_atomic, write_atomic_with_kill, CheckpointError, WriteOutcome, DEFAULT_KEEP_GENERATIONS,
};
pub use config::{ClassifierKind, HealthPolicy, SegugioConfig};
pub use error::{TrackerError, TrainError};
pub use features::{FeatureConfig, FeatureExtractor, FeatureGroup, FEATURE_COUNT, FEATURE_NAMES};
pub use model::{calibrate, Detection, ScoreBuffer, SegugioModel};
pub use segugio_model::container::crc32;
pub use snapshot::{DaySnapshot, SnapshotInput};
pub use tracker::{DayOutcome, DayReport, Degradation, Tracker, TrackerConfig};
#[doc(hidden)]
pub use trainer::IncrementalEngine;
pub use trainer::{measure_day, DayFeatures, Segugio};
