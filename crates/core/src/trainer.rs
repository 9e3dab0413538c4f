//! Training-set preparation and model training (paper Section II-A3).

use segugio_graph::{DomainIdx, HiddenLabelView};
use segugio_ml::{Dataset, ForestConfig, GradientBoosting, LogisticRegression, RandomForest};
use segugio_model::{DomainId, Label};
use segugio_pdns::ActivityStore;

use crate::config::{ClassifierKind, SegugioConfig};
use crate::error::TrainError;
use crate::features::{FeatureExtractor, FEATURE_COUNT};
use crate::model::{ModelBackend, SegugioModel};
use crate::parallel::parallel_map_indexed;
use crate::snapshot::{DaySnapshot, SnapshotInput};

/// Builds the labeled training set from a day snapshot.
///
/// For every domain whose label is known (malware or benign), the label is
/// *hidden* (cascading to the machines that depended on it, Fig. 5), the 11
/// features are measured under the hidden view, and the feature vector is
/// emitted with the domain's true label. Returns the dataset and the domain
/// ids in row order.
pub fn build_training_set(
    snapshot: &DaySnapshot,
    activity: &ActivityStore,
    config: &SegugioConfig,
) -> (Dataset, Vec<DomainId>) {
    let extractor =
        FeatureExtractor::new(&snapshot.graph, activity, &snapshot.abuse, config.features);
    let known: Vec<_> = snapshot
        .graph
        .domain_indices()
        .filter_map(|d| {
            let label = snapshot.graph.domain_label(d);
            (label != Label::Unknown).then_some((d, label))
        })
        .collect();
    // Feature measurement per known domain is independent of every other
    // domain; fan out over workers and merge rows back in domain-index
    // order so the dataset is identical at any parallelism.
    let rows = parallel_map_indexed(known.len(), config.effective_parallelism(), |i| {
        let view = HiddenLabelView::new(&snapshot.graph, known[i].0);
        extractor.measure_hidden(&view)
    });
    let mut data = Dataset::new(FEATURE_COUNT);
    let mut ids = Vec::with_capacity(known.len());
    for (&(d, label), features) in known.iter().zip(&rows) {
        data.push(features, label == Label::Malware);
        ids.push(snapshot.graph.domain_id(d));
    }
    (data, ids)
}

/// The day's measured features, split the way the tracking loop consumes
/// them.
#[derive(Debug, Clone)]
pub struct DayFeatures {
    /// Labeled training rows, one per known domain in domain-index order —
    /// identical to what [`build_training_set`] returns.
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

/// Measures every domain of the day's pruned graph in one pass: known
/// domains under the label-hiding view into the training set, unknown
/// domains as they stand into the scoring candidates, both in domain-index
/// order — the rows [`build_training_set`] and
/// [`score_unknown`](crate::SegugioModel::score_unknown) would measure.
pub fn measure_day(
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

/// Retired — remove with the `trace` binary's and `bench` binary's calls
/// in the next `[benchmark]` PR. Stateless: `build_snapshot` is
/// [`DaySnapshot::build`], `measure_day` is [`measure_day`], `reset` does
/// nothing.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct IncrementalEngine;

#[doc(hidden)]
impl IncrementalEngine {
    pub fn new() -> Self {
        IncrementalEngine
    }
    pub fn build_snapshot(
        &mut self,
        input: &SnapshotInput<'_>,
        config: &SegugioConfig,
    ) -> DaySnapshot {
        DaySnapshot::build(input, config)
    }
    pub fn measure_day(
        &mut self,
        snapshot: &DaySnapshot,
        activity: &ActivityStore,
        config: &SegugioConfig,
    ) -> DayFeatures {
        measure_day(snapshot, activity, config)
    }
    pub fn reset(&mut self) {}
}

/// The Segugio system facade: snapshot building and model training.
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segugio;

impl Segugio {
    /// Builds a labeled, pruned [`DaySnapshot`] from raw day inputs.
    pub fn build_snapshot(input: &SnapshotInput<'_>, config: &SegugioConfig) -> DaySnapshot {
        DaySnapshot::build(input, config)
    }

    /// Trains a [`SegugioModel`] on the known domains of `snapshot`.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InsufficientSeeds`] if the snapshot contains no
    /// known malware or no known benign domains (there is nothing to learn
    /// from).
    pub fn train(
        snapshot: &DaySnapshot,
        activity: &ActivityStore,
        config: &SegugioConfig,
    ) -> Result<SegugioModel, TrainError> {
        let (full, _ids) = build_training_set(snapshot, activity, config);
        Self::train_prepared(&full, config)
    }

    /// Trains on an already-extracted training set, with the same error as
    /// [`Segugio::train`]. Callers that also need the training set (e.g. for
    /// threshold calibration) extract it once and pass it here instead of
    /// paying the feature measurement twice.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InsufficientSeeds`] if `full` has no positive
    /// or no negative rows.
    pub fn train_prepared(
        full: &Dataset,
        config: &SegugioConfig,
    ) -> Result<SegugioModel, TrainError> {
        if full.positive_count() == 0 || full.negative_count() == 0 {
            return Err(TrainError::InsufficientSeeds {
                malware: full.positive_count(),
                benign: full.negative_count(),
            });
        }
        Ok(Self::train_on(full, config))
    }

    /// Trains a model directly on a prepared training set (used by the
    /// evaluation harness for cross-fold experiments).
    pub fn train_on(full: &Dataset, config: &SegugioConfig) -> SegugioModel {
        let columns = config
            .feature_columns
            .clone()
            .unwrap_or_else(|| (0..FEATURE_COUNT).collect());
        let projected = if columns.len() == FEATURE_COUNT {
            full.clone()
        } else {
            full.project(&columns)
        };
        let backend = match &config.classifier {
            ClassifierKind::Forest(cfg) => {
                // The pipeline-wide knob overrides the forest's own thread
                // heuristic so one setting governs the whole hot path; a
                // forest config with explicit threads still wins when the
                // pipeline knob is unset.
                let fit_cfg;
                let cfg = if let Some(n) = config.parallelism {
                    fit_cfg = ForestConfig {
                        threads: n.max(1),
                        ..cfg.clone()
                    };
                    &fit_cfg
                } else {
                    cfg
                };
                ModelBackend::Forest(RandomForest::fit(&projected, cfg))
            }
            ClassifierKind::Logistic(cfg) => {
                ModelBackend::Logistic(LogisticRegression::fit(&projected, cfg))
            }
            ClassifierKind::Boosting(cfg) => {
                ModelBackend::Boosting(GradientBoosting::fit(&projected, cfg))
            }
        };
        SegugioModel::new(backend, columns, config.features).with_parallelism(config.parallelism)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureGroup;
    use segugio_model::{Blacklist, Day, DomainName, DomainTable, Ipv4, MachineId, Whitelist};
    use segugio_pdns::PassiveDns;
    use segugio_traffic::{IspConfig, IspNetwork};

    /// A minimal but learnable world: 30 machines, 6 benign domains queried
    /// by everyone, 2 malware domains queried by a 6-machine infected
    /// cluster.
    fn fixture() -> (DaySnapshot, ActivityStore, SegugioConfig) {
        let mut table = DomainTable::new();
        let benign: Vec<DomainId> = (0..6)
            .map(|i| table.intern(&DomainName::parse(&format!("site{i}.example")).unwrap()))
            .collect();
        let mal: Vec<DomainId> = (0..2)
            .map(|i| table.intern(&DomainName::parse(&format!("c2x{i}.example")).unwrap()))
            .collect();

        let mut whitelist = Whitelist::new();
        for &b in &benign {
            whitelist.insert(table.e2ld_of(b));
        }
        let mut blacklist = Blacklist::new();
        for &m in &mal {
            blacklist.insert(m, Day(0));
        }

        let mut queries = Vec::new();
        for machine in 0..30u32 {
            for &b in &benign {
                queries.push((MachineId(machine), b));
            }
            if machine < 6 {
                for &m in &mal {
                    queries.push((MachineId(machine), m));
                }
            }
        }
        let mut resolutions = Vec::new();
        let mut pdns = PassiveDns::new();
        let mut activity = ActivityStore::new();
        for (k, &d) in benign.iter().chain(mal.iter()).enumerate() {
            let ip = Ipv4::from_octets(10, 0, 0, k as u8);
            resolutions.push((d, vec![ip]));
            for day in 0..10 {
                pdns.record(d, ip, Day(day));
                activity.record(d, table.e2ld_of(d), Day(day));
            }
        }

        let mut config = SegugioConfig::default();
        config.prune.min_machine_degree = 2;
        // Every machine queries every benign domain in this fixture, so the
        // too-popular rule R4 would empty it; disable R4 here.
        config.prune.popular_fraction = 2.0;
        if let ClassifierKind::Forest(f) = &mut config.classifier {
            f.n_trees = 15;
        }
        let input = SnapshotInput {
            day: Day(9),
            queries: &queries,
            resolutions: &resolutions,
            table: &table,
            pdns: &pdns,
            blacklist: &blacklist,
            whitelist: &whitelist,
            hidden: None,
        };
        let snap = Segugio::build_snapshot(&input, &config);
        (snap, activity, config)
    }

    #[test]
    fn one_sided_training_set_is_a_typed_error() {
        let (snap, activity, config) = fixture();
        let (full, _) = build_training_set(&snap, &activity, &config);
        // Rebuild a dataset with only the malware rows.
        let mut one_sided = Dataset::new(FEATURE_COUNT);
        for i in 0..full.len() {
            if full.label(i) {
                one_sided.push(full.row(i), true);
            }
        }
        let err = Segugio::train_prepared(&one_sided, &config).unwrap_err();
        assert_eq!(
            err,
            crate::error::TrainError::InsufficientSeeds {
                malware: 2,
                benign: 0
            }
        );
    }

    #[test]
    fn training_set_has_all_known_domains() {
        let (snap, activity, config) = fixture();
        let (data, ids) = build_training_set(&snap, &activity, &config);
        assert_eq!(data.len(), 8, "6 benign + 2 malware domains");
        assert_eq!(data.positive_count(), 2);
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn hidden_features_do_not_leak_self_label() {
        let (snap, activity, config) = fixture();
        let (data, ids) = build_training_set(&snap, &activity, &config);
        // For malware rows, the infected fraction (feature 0) must be below
        // 1.0 when the machines' only malware evidence is sibling domains —
        // here each infected machine queries *both* malware domains, so
        // hiding one leaves the other and m stays 1.0. The benign rows must
        // see m = 0.
        for (i, id) in ids.iter().enumerate() {
            let row = data.row(i);
            if data.label(i) {
                assert!(row[0] > 0.9, "cluster still known-infected via sibling");
            } else {
                // Benign sites are browsed by infected machines too, but the
                // infected fraction stays at the base rate (6 of 30).
                assert!((row[0] - 0.2).abs() < 1e-6, "benign domain {id:?}");
            }
        }
    }

    #[test]
    fn trained_model_separates_fixture() {
        let (snap, activity, config) = fixture();
        let model = Segugio::train(&snap, &activity, &config).expect("fixture has both classes");
        let (data, _) = build_training_set(&snap, &activity, &config);
        for i in 0..data.len() {
            let score = model.score_features(data.row(i));
            if data.label(i) {
                assert!(score > 0.5, "malware row scored {score}");
            } else {
                assert!(score < 0.5, "benign row scored {score}");
            }
        }
    }

    #[test]
    fn logistic_backend_also_works() {
        let (snap, activity, mut config) = fixture();
        config.classifier = ClassifierKind::Logistic(Default::default());
        let model = Segugio::train(&snap, &activity, &config).expect("fixture has both classes");
        let (data, _) = build_training_set(&snap, &activity, &config);
        let pos: Vec<f32> = (0..data.len())
            .filter(|&i| data.label(i))
            .map(|i| model.score_features(data.row(i)))
            .collect();
        let neg: Vec<f32> = (0..data.len())
            .filter(|&i| !data.label(i))
            .map(|i| model.score_features(data.row(i)))
            .collect();
        let min_pos = pos.iter().copied().fold(f32::INFINITY, f32::min);
        let max_neg = neg.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!(min_pos > max_neg, "logistic model must rank malware higher");
    }

    #[test]
    fn boosting_backend_also_works() {
        let (snap, activity, mut config) = fixture();
        // The fixture has only 8 training rows; allow tiny leaves.
        config.classifier = ClassifierKind::Boosting(segugio_ml::BoostingConfig {
            n_rounds: 25,
            min_samples_leaf: 1,
            subsample: 1.0,
            ..Default::default()
        });
        let model = Segugio::train(&snap, &activity, &config).expect("fixture has both classes");
        let (data, _) = build_training_set(&snap, &activity, &config);
        let pos: Vec<f32> = (0..data.len())
            .filter(|&i| data.label(i))
            .map(|i| model.score_features(data.row(i)))
            .collect();
        let neg: Vec<f32> = (0..data.len())
            .filter(|&i| !data.label(i))
            .map(|i| model.score_features(data.row(i)))
            .collect();
        let min_pos = pos.iter().copied().fold(f32::INFINITY, f32::min);
        let max_neg = neg.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!(min_pos > max_neg, "boosting must rank malware higher");
        // And it persists.
        let text = model.save_to_string();
        let loaded = crate::model::SegugioModel::load_from_str(&text).unwrap();
        assert_eq!(
            loaded.score_features(data.row(0)),
            model.score_features(data.row(0))
        );
    }

    #[test]
    fn ablated_model_uses_projected_columns() {
        let (snap, activity, mut config) = fixture();
        config.feature_columns = Some(crate::features::FeatureGroup::IpAbuse.complement_columns());
        let model = Segugio::train(&snap, &activity, &config).expect("fixture has both classes");
        // Scoring still takes the full 11-feature vector.
        let (data, _) = build_training_set(&snap, &activity, &config);
        let s = model.score_features(data.row(0));
        assert!(s.is_finite());
    }

    /// `measure_day`'s rows equal the training set and a direct measurement
    /// of each unknown domain, day after day, and scoring its rows equals
    /// scoring from the snapshot.
    #[test]
    #[cfg_attr(miri, ignore = "multi-day ISP simulation is too slow under Miri")]
    fn measure_day_matches_training_set_and_scoring() {
        let mut isp = IspNetwork::new(IspConfig::tiny(77));
        isp.warm_up(16);
        let config = SegugioConfig::default();
        let masked = SegugioConfig::without_group(FeatureGroup::IpAbuse);
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
            let snap = DaySnapshot::build(&input, &config);
            let (train, train_ids) = build_training_set(&snap, isp.activity(), &config);
            let features = measure_day(&snap, isp.activity(), &config);
            assert_eq!(features.train_ids, train_ids);
            assert_eq!(features.train.len(), train.len());
            for i in 0..train.len() {
                assert_eq!(features.train.row(i), train.row(i), "training row {i}");
                assert_eq!(features.train.label(i), train.label(i));
            }
            // Unknown rows equal a direct measurement.
            let extractor =
                FeatureExtractor::new(&snap.graph, isp.activity(), &snap.abuse, config.features);
            for (id, row) in features.unknown_ids.iter().zip(&features.unknown_rows) {
                let d = snap.graph.domain_idx(*id).expect("unknown in graph");
                assert_eq!(row, &extractor.measure(d), "unknown row for {id}");
            }

            // The tracker scores these rows; a stale-model day re-measures
            // from the snapshot. Also under a blank-pDNS day's column mask.
            for cfg in [&config, &masked] {
                let model = Segugio::train_prepared(&features.train, cfg).expect("seeds");
                assert_eq!(
                    model.score_rows(&features.unknown_ids, &features.unknown_rows),
                    model.score_unknown(&snap, isp.activity())
                );
            }
        }
    }
}
