//! Feature measurement and model training (paper Section II-A3).

use segugio_graph::DomainIdx;
use segugio_ml::{Dataset, ForestConfig, GradientBoosting, LogisticRegression, RandomForest};
use segugio_model::{DomainId, Label};
use segugio_pdns::ActivityStore;

use crate::config::{ClassifierKind, SegugioConfig};
use crate::error::TrainError;
use crate::features::{FeatureConfig, FeatureExtractor, FEATURE_COUNT};
use crate::model::{ModelBackend, SegugioModel};
use crate::parallel::{parallel_map_indexed, resolve_parallelism};
use crate::snapshot::{DaySnapshot, SnapshotInput};

/// The day's measured features, split the way training and scoring consume
/// them.
#[derive(Debug, Clone)]
pub struct DayFeatures {
    /// Labeled training rows, one per measured known domain in
    /// domain-index order.
    pub train: Dataset,
    /// External ids of the training rows, in row order.
    pub train_ids: Vec<DomainId>,
    /// External ids of the measured unknown domains, in domain-index order.
    pub unknown_ids: Vec<DomainId>,
    /// Feature rows of the unknown domains, parallel to `unknown_ids`.
    pub unknown_rows: Vec<[f32; FEATURE_COUNT]>,
    /// Always 0: no row is carried over from an earlier day. Kept for the
    /// benchmark's `core.feature_cache_hit_ratio` until that metric goes.
    #[doc(hidden)]
    pub reused: usize,
}

/// Measures the 11 features of every domain of the day's pruned graph whose
/// label `measure` selects, in one pass over `parallelism` workers.
///
/// A known domain is measured with its label *hidden* (cascading to the
/// machines that depended on it, Fig. 5) and becomes a training row with
/// its true label; an unknown domain is measured as it stands and becomes a
/// scoring row. Both keep domain-index order, so the result is identical at
/// any parallelism. The tracker's training day selects every label,
/// [`Segugio::train`] the known ones, and
/// [`SegugioModel::score_unknown`] the unknown ones.
pub fn measure_day(
    snapshot: &DaySnapshot,
    activity: &ActivityStore,
    features: FeatureConfig,
    parallelism: Option<usize>,
    measure: impl Fn(Label) -> bool,
) -> DayFeatures {
    let graph = &snapshot.graph;
    let extractor = FeatureExtractor::new(graph, activity, &snapshot.abuse, features);
    // Sized for every domain up front: one allocation, not one per doubling.
    let mut selected: Vec<DomainIdx> = Vec::with_capacity(graph.domain_count());
    selected.extend(
        graph
            .domain_indices()
            .filter(|&d| measure(graph.domain_label(d))),
    );
    let rows = parallel_map_indexed(selected.len(), resolve_parallelism(parallelism), |i| {
        extractor.measure(selected[i])
    });

    let unknown = selected
        .iter()
        .filter(|&&d| graph.domain_label(d) == Label::Unknown)
        .count();
    let mut day = DayFeatures {
        train: Dataset::new(FEATURE_COUNT),
        train_ids: Vec::with_capacity(selected.len() - unknown),
        unknown_ids: Vec::with_capacity(unknown),
        unknown_rows: Vec::with_capacity(unknown),
        reused: 0,
    };
    for (&d, row) in selected.iter().zip(&rows) {
        let label = graph.domain_label(d);
        let id = graph.domain_id(d);
        if label == Label::Unknown {
            day.unknown_ids.push(id);
            day.unknown_rows.push(*row);
        } else {
            day.train.push(row, label == Label::Malware);
            day.train_ids.push(id);
        }
    }
    day
}

/// Retired — remove with the `trace` binary's and `bench` binary's calls
/// in the next `[benchmark]` PR. Stateless: `build_snapshot` is
/// [`DaySnapshot::build`], `measure_day` is [`measure_day`] over every
/// label, `reset` does nothing.
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
        measure_day(
            snapshot,
            activity,
            config.features,
            config.parallelism,
            |_| true,
        )
    }
    pub fn reset(&mut self) {}
}

/// The Segugio training facade.
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segugio;

impl Segugio {
    /// Trains a [`SegugioModel`] on the known domains of `snapshot`:
    /// [`measure_day`] over the known labels, then
    /// [`train_prepared`](Self::train_prepared).
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
        let known = measure_day(
            snapshot,
            activity,
            config.features,
            config.parallelism,
            |label| label != Label::Unknown,
        );
        Self::train_prepared(&known.train, config)
    }

    /// Trains on an already-measured training set, with the same error as
    /// [`Segugio::train`]. Callers that also need the training set (for
    /// [`calibrate`](crate::calibrate), or permutation importance) measure
    /// it once and pass it here.
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
                let mut forest = RandomForest::fit(&projected, cfg);
                forest.remap_columns(&columns, FEATURE_COUNT);
                ModelBackend::Forest(forest)
            }
            ClassifierKind::Logistic(cfg) => {
                ModelBackend::Logistic(LogisticRegression::fit(&projected, cfg))
            }
            ClassifierKind::Boosting(cfg) => {
                ModelBackend::Boosting(GradientBoosting::fit(&projected, cfg))
            }
        };
        Ok(SegugioModel::new(backend, columns, config.features)
            .with_parallelism(config.parallelism))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureGroup;
    use crate::model::Detection;
    use segugio_graph::HiddenLabelView;
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
        let snap = DaySnapshot::build(&input, &config);
        (snap, activity, config)
    }

    /// The fixture's training set: every known domain, label hidden.
    fn training_set(snap: &DaySnapshot, activity: &ActivityStore) -> Dataset {
        let known = |label: Label| label != Label::Unknown;
        measure_day(snap, activity, FeatureConfig::default(), None, known).train
    }

    #[test]
    fn one_sided_training_set_is_a_typed_error() {
        let (snap, activity, config) = fixture();
        let full = training_set(&snap, &activity);
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
        let day = measure_day(&snap, &activity, config.features, None, |_| true);
        assert_eq!(day.train.len(), 8, "6 benign + 2 malware domains");
        assert_eq!(day.train.positive_count(), 2);
        assert_eq!(day.train_ids.len(), 8);
    }

    #[test]
    fn hidden_features_do_not_leak_self_label() {
        let (snap, activity, config) = fixture();
        let day = measure_day(&snap, &activity, config.features, None, |_| true);
        // For malware rows, the infected fraction (feature 0) must be below
        // 1.0 when the machines' only malware evidence is sibling domains —
        // here each infected machine queries *both* malware domains, so
        // hiding one leaves the other and m stays 1.0. The benign rows must
        // see m = 0.
        for (i, id) in day.train_ids.iter().enumerate() {
            let row = day.train.row(i);
            if day.train.label(i) {
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
        let data = training_set(&snap, &activity);
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
        let data = training_set(&snap, &activity);
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
        let data = training_set(&snap, &activity);
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
        let loaded = crate::model::SegugioModel::from_bytes(&model.to_bytes()).unwrap();
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
        let data = training_set(&snap, &activity);
        let s = model.score_features(data.row(0));
        assert!(s.is_finite());
    }

    /// Every row `measure_day` emits equals the extractor's measurement of
    /// that domain for every label selection at widths 1 and 4, day after
    /// day, and its F1 columns equal an independent oracle: each querier's
    /// label under the label-hiding view of the domain, one domain at a
    /// time. `score_rows` equals a per-row `score_features` followed by the
    /// (score desc, id) sort.
    #[test]
    #[cfg_attr(miri, ignore = "multi-day ISP simulation is too slow under Miri")]
    fn measure_day_matches_the_extractor_and_scoring() {
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
            let graph = &snap.graph;
            let extractor =
                FeatureExtractor::new(graph, isp.activity(), &snap.abuse, config.features);
            // Each domain's queriers: the machines whose lists name it.
            let mut queriers = vec![Vec::new(); graph.domain_count()];
            for m in graph.machine_indices() {
                for d in graph.domains_of(m) {
                    queriers[d.index()].push(m);
                }
            }
            // The oracle, one domain at a time in domain-index order:
            // (id, row, is malware) per known domain, (id, row) per unknown.
            let mut known = Vec::new();
            let mut unknown = Vec::new();
            for d in graph.domain_indices() {
                let (id, label) = (graph.domain_id(d), graph.domain_label(d));
                let row = extractor.measure(d);
                let view = HiddenLabelView::new(graph, d);
                let (mut infected, mut unknowns) = (0u32, 0u32);
                for &m in &queriers[d.index()] {
                    match view.machine_label(m) {
                        Label::Malware => infected += 1,
                        Label::Unknown => unknowns += 1,
                        Label::Benign => {}
                    }
                }
                let total = queriers[d.index()].len() as f32;
                let f1 = [infected as f32 / total, unknowns as f32 / total, total];
                assert_eq!(row[..3], f1, "{id:?}, {label:?}");
                if label == Label::Unknown {
                    unknown.push((id, row));
                } else {
                    known.push((id, row.to_vec(), label == Label::Malware));
                }
            }
            // Selections: all labels, known only, unknown only.
            for (with_known, with_unknown) in [(true, true), (true, false), (false, true)] {
                let select = |l: Label| {
                    if l == Label::Unknown {
                        with_unknown
                    } else {
                        with_known
                    }
                };
                for width in [1, 4] {
                    let day =
                        measure_day(&snap, isp.activity(), config.features, Some(width), select);
                    let got_known: Vec<_> = (0..day.train.len())
                        .map(|i| {
                            (
                                day.train_ids[i],
                                day.train.row(i).to_vec(),
                                day.train.label(i),
                            )
                        })
                        .collect();
                    let got_unknown: Vec<_> = day
                        .unknown_ids
                        .iter()
                        .copied()
                        .zip(day.unknown_rows)
                        .collect();
                    let case = format!("known {with_known}, unknown {with_unknown}, width {width}");
                    assert_eq!(
                        got_known,
                        if with_known { &known[..] } else { &[] },
                        "{case}"
                    );
                    assert_eq!(
                        got_unknown,
                        if with_unknown { &unknown[..] } else { &[] },
                        "{case}"
                    );
                }
            }

            // Scoring the rows equals scoring each one and sorting, also
            // under a blank-pDNS day's column mask; the snapshot route
            // (a stale-model day) equals both.
            let day = measure_day(&snap, isp.activity(), config.features, None, |_| true);
            for cfg in [&config, &masked] {
                let model = Segugio::train_prepared(&day.train, cfg).expect("seeds");
                let mut want: Vec<Detection> = day
                    .unknown_ids
                    .iter()
                    .zip(&day.unknown_rows)
                    .map(|(&domain, row)| Detection {
                        domain,
                        score: model.score_features(row),
                    })
                    .collect();
                want.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.domain.cmp(&b.domain)));
                let mut buf = crate::model::ScoreBuffer::new();
                model.score_rows_with(&day.unknown_ids, &day.unknown_rows, &mut buf);
                assert_eq!(buf.detections(), want);
                assert_eq!(model.score_unknown(&snap, isp.activity()), want);
            }
        }
    }
}
