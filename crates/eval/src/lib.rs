//! Experiment harness reproducing the paper's evaluation.
//!
//! Each module under [`experiments`] regenerates one table or figure of the
//! paper on the synthetic ISP substrate, using the exact protocol the paper
//! describes (test-domain ground truth hidden during labeling and feature
//! measurement; blacklists consulted only "as of" each day; family-held-out
//! folds for the cross-family tests; and so on).
//!
//! | experiment | paper artifact |
//! |---|---|
//! | [`experiments::dataset`] | Table I, Fig. 3, Section III pruning stats |
//! | [`experiments::crossday`] | Table II + Fig. 6 (cross-day / cross-network ROC) |
//! | [`experiments::ablation`] | Fig. 7 (feature-group ablation) |
//! | [`experiments::crossfamily`] | Fig. 8 (previously unseen families) |
//! | [`experiments::fp_analysis`] | Table III (FP breakdown) |
//! | [`experiments::public_blacklist`] | Fig. 10 + Section IV-E cross-blacklist |
//! | [`experiments::early_detection`] | Fig. 11 (detection vs blacklist lag) |
//! | [`experiments::performance`] | Section IV-G (training/test wall-clock) |
//! | [`experiments::notos_comparison`] | Fig. 12 + Table IV |
//! | [`experiments::bp_comparison`] | Section I loopy-BP pilot comparison |
//! | [`experiments::robustness`] | Section VI: DHCP churn, scanner noise, infection enumeration |
//! | [`experiments::seed_sensitivity`] | extension: blacklist-coverage sweep |
//! | [`experiments::design_ablations`] | DESIGN §6: forest size, backend, pruning, activity window |

#![warn(missing_docs)]
// Hash-set/map iteration order differs per process, so it must not reach
// ordered output; a site whose order provably cannot matter is an
// `#[expect(clippy::…, reason = "…")]` — a plain `#[allow]` is denied.
#![deny(clippy::iter_over_hash_type, clippy::allow_attributes)]
pub mod experiments;
pub mod protocol;
pub mod report;
pub mod scenario;

pub use protocol::{EvalOutcome, TestSplit};
pub use scenario::Scenario;
