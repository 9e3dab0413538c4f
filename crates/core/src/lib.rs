//! Segugio — behavior-based tracking of malware-control domains.
//!
//! This crate is the paper's primary contribution: given one day of DNS
//! traffic summarized as a labeled machine–domain behavior graph (built by
//! `segugio-graph` from `segugio-traffic` or any other source), plus the
//! history stores from `segugio-pdns`, it
//!
//! 1. measures **11 statistical features** per domain in three groups —
//!    machine behavior (F1), domain activity (F2) and IP abuse (F3)
//!    ([`features`]);
//! 2. prepares a **training set** from the known benign/malware domains by
//!    temporarily *hiding* each domain's label while its features are
//!    measured ([`trainer`], paper Fig. 5);
//! 3. trains a statistical classifier (Random Forest by default, logistic
//!    regression as the alternative) and wraps it in a [`SegugioModel`];
//! 4. scores every still-`unknown` domain of a (possibly different) day's
//!    graph and reports those above a tunable threshold, together with the
//!    infected machines implied by the detections ([`Detector`]).
//!
//! # Quick start
//!
//! ```
//! use segugio_core::{Segugio, SegugioConfig, SnapshotInput};
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
//! let snapshot = Segugio::build_snapshot(&input, &config);
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
//! let snapshot2 = Segugio::build_snapshot(&input2, &config);
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
pub mod incremental;
pub mod model;
pub mod parallel;
pub mod snapshot;
pub mod tracker;
pub mod trainer;

pub use checkpoint::{
    crc32, write_atomic, write_atomic_with_kill, CheckpointError, WriteOutcome,
    DEFAULT_KEEP_GENERATIONS,
};
pub use config::{ClassifierKind, HealthPolicy, SegugioConfig};
pub use error::{TrackerError, TrainError};
pub use features::{FeatureConfig, FeatureExtractor, FeatureGroup, FEATURE_COUNT, FEATURE_NAMES};
pub use incremental::{DayFeatures, IncrementalEngine};
pub use model::{Detection, Detector, ScoreBuffer, SegugioModel};
pub use snapshot::{DaySnapshot, SnapshotInput};
pub use tracker::{DayOutcome, DayReport, Degradation, Tracker, TrackerConfig};
pub use trainer::{build_training_set, Segugio};
