//! Cross-day incremental state: the rolling abuse index.
//!
//! Consecutive days overlap in one input that is expensive to rebuild: the
//! pDNS abuse window shifts by a single day. [`IncrementalEngine`] advances
//! the IP-abuse index with [`RollingAbuseIndex`] — ingesting the entering
//! day, evicting the leaving one — instead of rescanning `W` days of pDNS
//! history, and stays **bit-for-bit identical** to the from-scratch
//! path. Nothing else is carried: the day's graph is rebuilt every morning
//! and every domain's 11 features are measured from scratch, as in the
//! paper — merging against yesterday's graph and caching yesterday's rows
//! each cost more than they saved (DESIGN.md §5.7 has the numbers).
//!
//! The engine is not checkpointed: a fresh or resumed engine bootstraps
//! its index from the pDNS store on its first day, which equals the rolled
//! index by the same parity the scratch path is held to.

use segugio_graph::{DomainIdx, HiddenLabelView};
use segugio_ml::Dataset;
use segugio_model::{DomainId, Label};
use segugio_pdns::{ActivityStore, RollingAbuseIndex};

use crate::config::SegugioConfig;
use crate::features::{FeatureExtractor, FEATURE_COUNT};
use crate::parallel::parallel_map_indexed;
use crate::snapshot::{build_unpruned_graph, finish_snapshot, DaySnapshot, SnapshotInput};

/// The day's measured features, split the way the tracking loop consumes
/// them.
#[derive(Debug, Clone)]
pub struct DayFeatures {
    /// Labeled training rows, one per known domain in domain-index order —
    /// identical to what [`build_training_set`](crate::build_training_set)
    /// returns.
    pub train: Dataset,
    /// External ids of the training rows, in row order.
    pub train_ids: Vec<DomainId>,
    /// External ids of the unknown domains, in domain-index order.
    pub unknown_ids: Vec<DomainId>,
    /// Feature rows of the unknown domains, parallel to `unknown_ids`.
    pub unknown_rows: Vec<[f32; FEATURE_COUNT]>,
    /// Always 0: no row is carried over from an earlier day. Kept for the
    /// benchmark's `core.feature_cache_hit_ratio` until that metric goes.
    #[doc(hidden)]
    pub reused: usize,
}

/// Carries the abuse index from one day to the next.
///
/// Use [`build_snapshot`](Self::build_snapshot) once per day, in ascending
/// day order; its output equals [`DaySnapshot::build`] on the same input.
/// [`Tracker`](crate::Tracker) switches between the two on the
/// [`SegugioConfig::incremental`] knob.
#[derive(Debug, Clone, Default)]
pub struct IncrementalEngine {
    rolling: RollingAbuseIndex,
}

impl IncrementalEngine {
    /// Creates an engine with no prior-day state; the first day it sees
    /// ingests the whole abuse window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds `input.day`'s snapshot, advancing the rolling abuse index.
    /// Output equals [`DaySnapshot::build`] on the same input, bit for bit.
    pub fn build_snapshot(
        &mut self,
        input: &SnapshotInput<'_>,
        config: &SegugioConfig,
    ) -> DaySnapshot {
        let unpruned = build_unpruned_graph(input, config);
        let window = input
            .day
            .lookback_exclusive(config.features.abuse_window_days);
        self.rolling
            .advance(input.pdns, window, |d| input.seed_label(d));
        // The snapshot owns its abuse index while the rolling copy keeps
        // advancing: one O(index) copy per day.
        finish_snapshot(unpruned, self.rolling.index().clone(), input, config)
    }

    /// Measures every domain of the day's pruned graph in one pass: known
    /// domains under the label-hiding view into the training set, unknown
    /// domains as they stand into the scoring candidates, both in
    /// domain-index order — the rows
    /// [`build_training_set`](crate::build_training_set) and
    /// [`score_unknown`](crate::SegugioModel::score_unknown) would measure.
    /// Reads no engine state; any snapshot will do.
    pub fn measure_day(
        &mut self,
        snapshot: &DaySnapshot,
        activity: &ActivityStore,
        config: &SegugioConfig,
    ) -> DayFeatures {
        let graph = &snapshot.graph;
        let extractor = FeatureExtractor::new(graph, activity, &snapshot.abuse, config.features);
        let rows: Vec<[f32; FEATURE_COUNT]> =
            parallel_map_indexed(graph.domain_count(), config.effective_parallelism(), |i| {
                let d = DomainIdx(i as u32);
                if graph.domain_label(d) == Label::Unknown {
                    extractor.measure(d)
                } else {
                    extractor.measure_hidden(&HiddenLabelView::new(graph, d))
                }
            });

        let (malware, benign, unknown) = graph.domain_label_counts();
        let mut features = DayFeatures {
            train: Dataset::new(FEATURE_COUNT),
            train_ids: Vec::with_capacity(malware + benign),
            unknown_ids: Vec::with_capacity(unknown),
            unknown_rows: Vec::with_capacity(unknown),
            reused: 0,
        };
        for (d, row) in graph.domain_indices().zip(&rows) {
            let label = graph.domain_label(d);
            let id = graph.domain_id(d);
            if label == Label::Unknown {
                features.unknown_ids.push(id);
                features.unknown_rows.push(*row);
            } else {
                features.train.push(row, label == Label::Malware);
                features.train_ids.push(id);
            }
        }
        features
    }

    /// Drops the rolling abuse index, returning the engine to its
    /// just-constructed state: the next day's index is built from the whole
    /// window, exactly like a fresh engine's first day.
    ///
    /// Required whenever the pDNS feed the engine has been advancing
    /// against is no longer trustworthy — e.g. a blanked-then-restored
    /// feed: [`RollingAbuseIndex`] evicts leaving days by re-reading them
    /// from the *current* feed, so state carried across an inconsistent
    /// feed would silently diverge from the from-scratch path. A reset is
    /// always parity-safe.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureGroup;
    use crate::trainer::{build_training_set, Segugio};
    use segugio_traffic::{IspConfig, IspNetwork};

    /// The engine's snapshot and per-day features must equal the
    /// from-scratch path exactly, day after day, and scoring its rows must
    /// equal scoring from the snapshot.
    #[test]
    #[cfg_attr(miri, ignore = "multi-day ISP simulation is too slow under Miri")]
    fn engine_matches_scratch_path() {
        let mut isp = IspNetwork::new(IspConfig::tiny(77));
        isp.warm_up(16);
        let config = SegugioConfig::default();
        let masked = SegugioConfig::without_group(FeatureGroup::IpAbuse);
        let mut engine = IncrementalEngine::new();
        for _ in 0..5 {
            let traffic = isp.next_day();
            let input = SnapshotInput {
                day: traffic.day,
                queries: &traffic.queries,
                resolutions: &traffic.resolutions,
                table: isp.table(),
                pdns: isp.pdns(),
                blacklist: isp.commercial_blacklist(),
                whitelist: isp.whitelist(),
                hidden: None,
            };
            let scratch = DaySnapshot::build(&input, &config);
            let inc = engine.build_snapshot(&input, &config);
            assert_eq!(inc.abuse, scratch.abuse, "abuse index must match");
            assert_eq!(inc.prune_stats, scratch.prune_stats);
            assert_eq!(inc.unpruned_counts, scratch.unpruned_counts);
            assert_eq!(
                inc.graph.domain_label_counts(),
                scratch.graph.domain_label_counts()
            );

            let (scratch_train, scratch_ids) =
                build_training_set(&scratch, isp.activity(), &config);
            let features = engine.measure_day(&inc, isp.activity(), &config);
            assert_eq!(features.train_ids, scratch_ids);
            assert_eq!(features.train.len(), scratch_train.len());
            for i in 0..scratch_train.len() {
                assert_eq!(
                    features.train.row(i),
                    scratch_train.row(i),
                    "training row {i} diverged"
                );
                assert_eq!(features.train.label(i), scratch_train.label(i));
            }
            // Unknown rows equal a direct measurement.
            let extractor = FeatureExtractor::new(
                &scratch.graph,
                isp.activity(),
                &scratch.abuse,
                config.features,
            );
            for (id, row) in features.unknown_ids.iter().zip(&features.unknown_rows) {
                let d = scratch.graph.domain_idx(*id).expect("unknown in graph");
                assert_eq!(row, &extractor.measure(d), "unknown row for {id}");
            }

            // The tracker scores these rows; a stale-model day re-measures
            // from the snapshot. Also under a blank-pDNS day's column mask.
            for cfg in [&config, &masked] {
                let model = Segugio::train_prepared(&features.train, cfg).expect("seeds");
                assert_eq!(
                    model.score_rows(&features.unknown_ids, &features.unknown_rows),
                    model.score_unknown(&scratch, isp.activity())
                );
            }
        }
    }
}
