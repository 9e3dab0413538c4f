//! The trained model, its scorer and the threshold calibrator.

use segugio_ml::{
    Classifier, Dataset, GradientBoosting, LogisticRegression, ParseModelError, RandomForest,
    RocCurve,
};
use segugio_model::{DomainId, Label};
use segugio_pdns::ActivityStore;

use crate::features::{FeatureConfig, FEATURE_COUNT};
use crate::snapshot::DaySnapshot;
use crate::trainer::measure_day;

/// The classifier behind a [`SegugioModel`].
#[derive(Debug, Clone)]
pub enum ModelBackend {
    /// Random forest, its split features remapped onto full feature rows
    /// ([`RandomForest::remap_columns`]).
    Forest(RandomForest),
    /// Logistic regression.
    Logistic(LogisticRegression),
    /// Gradient-boosted trees.
    Boosting(GradientBoosting),
}

impl ModelBackend {
    fn score(&self, features: &[f32]) -> f32 {
        match self {
            ModelBackend::Forest(f) => f.score(features),
            ModelBackend::Logistic(l) => l.score(features),
            ModelBackend::Boosting(b) => b.score(features),
        }
    }
}

/// A domain scored above (or below) the detection threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// The scored domain.
    pub domain: DomainId,
    /// Its malware score in `[0, 1]`.
    pub score: f32,
}

/// Reusable scoring scratch for the bulk entry points.
///
/// Holds the per-row score column and the assembled detections, so a
/// long-running deployment (the [`Tracker`](crate::Tracker)'s daily loop)
/// scores each day with zero heap allocations once the buffer has grown to
/// the network's candidate count.
#[derive(Debug, Clone, Default)]
pub struct ScoreBuffer {
    scores: Vec<f32>,
    detections: Vec<Detection>,
}

impl ScoreBuffer {
    /// An empty buffer; capacity grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Detections from the most recent scoring call, sorted by descending
    /// score with the domain id as tie-break.
    pub fn detections(&self) -> &[Detection] {
        &self.detections
    }

    /// The raw score column from the most recent scoring call, in row
    /// order — what
    /// [`score_dataset_with`](SegugioModel::score_dataset_with) fills for
    /// threshold calibration.
    pub fn scores(&self) -> &[f32] {
        &self.scores
    }
}

/// A trained Segugio classifier: feature projection + scorer.
///
/// Models are intentionally self-contained — they carry the feature windows
/// and column projection they were trained with — so a model trained on one
/// network can be deployed on another (the paper's cross-network result).
/// A forest backend has the projection baked into its split features and
/// scores full rows directly; the other backends project each row.
#[derive(Debug, Clone)]
pub struct SegugioModel {
    backend: ModelBackend,
    columns: Vec<usize>,
    features: FeatureConfig,
    /// Worker threads for bulk scoring; not persisted — a deployment
    /// property of this process, not of the trained model.
    parallelism: Option<usize>,
}

impl SegugioModel {
    pub(crate) fn new(backend: ModelBackend, columns: Vec<usize>, features: FeatureConfig) -> Self {
        debug_assert!(
            !matches!(&backend, ModelBackend::Forest(f) if f.n_features() != FEATURE_COUNT),
            "a forest backend scores full rows"
        );
        SegugioModel {
            backend,
            columns,
            features,
            parallelism: None,
        }
    }

    /// Sets the worker-thread count used by the bulk scoring entry points
    /// (and by [`score_unknown`](Self::score_unknown)'s measuring pass):
    /// `None` uses every available core, `Some(1)` forces the serial path.
    /// Scores are bit-for-bit identical at every setting. Models from
    /// [`load_from_str`](Self::load_from_str) default to `None`.
    #[must_use]
    pub fn with_parallelism(mut self, knob: Option<usize>) -> Self {
        self.parallelism = knob;
        self
    }

    /// The feature windows the model was trained with.
    pub fn feature_config(&self) -> FeatureConfig {
        self.features
    }

    /// The feature columns the model consumes (out of the full 11).
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Serializes the model to the versioned text persistence format, so a
    /// model trained on one network can be shipped to another (the paper's
    /// cross-network deployment).
    pub fn save_to_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "segugio-model v2");
        let _ = writeln!(
            out,
            "features {} {}",
            self.features.activity_days, self.features.abuse_window_days
        );
        let cols: Vec<String> = self.columns.iter().map(usize::to_string).collect();
        let _ = writeln!(out, "columns {}", cols.join(" "));
        match &self.backend {
            ModelBackend::Forest(f) => f.write_text(&mut out),
            ModelBackend::Logistic(l) => l.write_text(&mut out),
            ModelBackend::Boosting(b) => b.write_text(&mut out),
        }
        out
    }

    /// Loads a model saved with [`SegugioModel::save_to_string`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseModelError`] on version mismatch (a `v1` file
    /// included: its forest layout is no longer read, so retrain) or
    /// malformed content, including a backend whose arity disagrees with
    /// the `columns` line.
    pub fn load_from_str(text: &str) -> Result<Self, ParseModelError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| ParseModelError::new("empty model file"))?;
        match header.trim() {
            "segugio-model v2" => {}
            "segugio-model v1" => {
                return Err(ParseModelError::new(
                    "segugio-model v1 is no longer read; retrain and save the model again",
                ))
            }
            _ => return Err(ParseModelError::new("unsupported model version header")),
        }
        let feat = lines
            .next()
            .ok_or_else(|| ParseModelError::new("missing features line"))?;
        let mut parts = feat.split_whitespace();
        if parts.next() != Some("features") {
            return Err(ParseModelError::new("expected `features` line"));
        }
        let activity_days: u32 = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| ParseModelError::new("malformed activity window"))?;
        let abuse_window_days: u32 = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| ParseModelError::new("malformed abuse window"))?;
        let cols_line = lines
            .next()
            .ok_or_else(|| ParseModelError::new("missing columns line"))?;
        let mut parts = cols_line.split_whitespace();
        if parts.next() != Some("columns") {
            return Err(ParseModelError::new("expected `columns` line"));
        }
        let columns: Vec<usize> = parts
            .map(|p| {
                p.parse::<usize>()
                    .map_err(|_| ParseModelError::new("malformed column index"))
            })
            .collect::<Result<_, _>>()?;
        if columns.is_empty() || columns.iter().any(|&c| c >= FEATURE_COUNT) {
            return Err(ParseModelError::new("invalid feature columns"));
        }
        // Peek the backend header without consuming it.
        let mut peek = lines.clone();
        let backend_header = peek
            .next()
            .ok_or_else(|| ParseModelError::new("missing backend"))?;
        let backend = if backend_header.starts_with("forest") {
            ModelBackend::Forest(
                segugio_ml::RandomForest::read_text(&mut lines)
                    .map_err(|e| e.context("reading forest backend"))?,
            )
        } else if backend_header.starts_with("logistic") {
            ModelBackend::Logistic(
                segugio_ml::LogisticRegression::read_text(&mut lines)
                    .map_err(|e| e.context("reading logistic backend"))?,
            )
        } else if backend_header.starts_with("boosting") {
            ModelBackend::Boosting(
                segugio_ml::GradientBoosting::read_text(&mut lines)
                    .map_err(|e| e.context("reading boosting backend"))?,
            )
        } else {
            return Err(ParseModelError::new("unknown backend header"));
        };
        // A backend whose arity disagrees with the rows it will be handed
        // would index a row out of bounds at scoring time; reject it at
        // load instead.
        let arity_error = match &backend {
            ModelBackend::Forest(f) if f.n_features() != FEATURE_COUNT => {
                Some("forest does not score full feature rows")
            }
            ModelBackend::Logistic(l) if l.weights().len() != columns.len() => {
                Some("logistic feature count does not match columns line")
            }
            // The boosting format carries no arity header, so bound-check
            // its split features against the column projection here.
            ModelBackend::Boosting(b) if b.n_features() > columns.len() => {
                Some("boosting backend references features beyond columns line")
            }
            _ => None,
        };
        if let Some(message) = arity_error {
            return Err(ParseModelError::new(message));
        }
        Ok(SegugioModel::new(
            backend,
            columns,
            FeatureConfig {
                activity_days,
                abuse_window_days,
            },
        ))
    }

    /// Scores a full 11-feature vector (projection applied internally).
    pub fn score_features(&self, features: &[f32]) -> f32 {
        debug_assert_eq!(features.len(), FEATURE_COUNT);
        if matches!(self.backend, ModelBackend::Forest(_)) || self.columns.len() == FEATURE_COUNT {
            // A forest has the column remap baked into its nodes.
            self.backend.score(features)
        } else {
            // Stack-array projection for the non-forest backends: the
            // projection is at most the full row, so no heap traffic.
            let mut projected = [0.0f32; FEATURE_COUNT];
            for (slot, &c) in projected.iter_mut().zip(&self.columns) {
                *slot = features[c];
            }
            self.backend.score(&projected[..self.columns.len()])
        }
    }

    /// Measures and scores every *unknown* domain in `snapshot`, returning
    /// detections sorted by descending score.
    pub fn score_unknown(
        &self,
        snapshot: &DaySnapshot,
        activity: &ActivityStore,
    ) -> Vec<Detection> {
        let mut buf = ScoreBuffer::new();
        self.score_unknown_with(snapshot, activity, &mut buf);
        buf.detections
    }

    /// [`score_unknown`](Self::score_unknown) into a reusable buffer:
    /// [`measure_day`] over the unknown labels, with the model's own
    /// feature windows, then [`score_rows_with`](Self::score_rows_with).
    pub fn score_unknown_with(
        &self,
        snapshot: &DaySnapshot,
        activity: &ActivityStore,
        buf: &mut ScoreBuffer,
    ) {
        let day = measure_day(
            snapshot,
            activity,
            self.features,
            self.parallelism,
            Label::is_unknown,
        );
        self.score_rows_with(&day.unknown_ids, &day.unknown_rows, buf);
    }

    /// Scores pre-measured feature rows (`ids[i]`'s row is `rows[i]`) into
    /// `buf`, whose [`detections`](ScoreBuffer::detections) are then
    /// sorted by descending score, domain id as the tie-break. The rows are
    /// already contiguous, so the forest path hands each worker's chunk
    /// straight to the forest's blocked scorer — no copies at all.
    pub fn score_rows_with(
        &self,
        ids: &[DomainId],
        rows: &[[f32; FEATURE_COUNT]],
        buf: &mut ScoreBuffer,
    ) {
        debug_assert_eq!(ids.len(), rows.len());
        let n = ids.len().min(rows.len());
        let threads = crate::parallel::resolve_parallelism(self.parallelism);
        buf.scores.clear();
        buf.scores.resize(n, 0.0);
        match &self.backend {
            ModelBackend::Forest(forest) => {
                crate::parallel::parallel_map_fill(&mut buf.scores, threads, |base, out| {
                    forest.score_rows(&rows[base..base + out.len()], out);
                });
            }
            _ => {
                crate::parallel::parallel_map_fill(&mut buf.scores, threads, |base, out| {
                    for (k, s) in out.iter_mut().enumerate() {
                        *s = self.score_features(&rows[base + k]);
                    }
                });
            }
        }
        buf.detections.clear();
        buf.detections.extend(
            ids.iter()
                .take(n)
                .zip(&buf.scores)
                .map(|(&domain, &score)| Detection { domain, score }),
        );
        // Unstable sort: equal sort keys mean byte-identical `Detection`
        // values (score *and* domain equal), so the order is still fully
        // deterministic — and the stable sort's merge scratch would be the
        // last allocation on this path.
        buf.detections
            .sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.domain.cmp(&b.domain)));
    }

    /// Scores every row of a prepared training dataset into the buffer's
    /// score column (no detections are assembled — dataset rows carry
    /// hidden labels, not domain ids). [`calibrate`] scores the training
    /// set here and reads the column back via [`ScoreBuffer::scores`]. Row
    /// order is preserved and scores are bit-for-bit identical at any
    /// parallelism.
    pub fn score_dataset_with(&self, data: &Dataset, buf: &mut ScoreBuffer) {
        let threads = crate::parallel::resolve_parallelism(self.parallelism);
        buf.scores.clear();
        buf.scores.resize(data.len(), 0.0);
        crate::parallel::parallel_map_fill(&mut buf.scores, threads, |base, out| {
            for (k, s) in out.iter_mut().enumerate() {
                *s = self.score_features(data.row(base + k));
            }
        });
    }
}

/// Picks the day's operating threshold: the score at which the training
/// rows' hidden-label scores under `model` reach `target_fpr` false
/// positives. The training set comes from [`measure_day`], so each known
/// domain is scored as if it were unknown (§IV-G). The buffer's score
/// column is transient here; the day's scoring pass overwrites it.
pub fn calibrate(
    model: &SegugioModel,
    train: &Dataset,
    target_fpr: f64,
    buf: &mut ScoreBuffer,
) -> f32 {
    model.score_dataset_with(train, buf);
    RocCurve::from_scores(buf.scores(), train.labels()).threshold_for_fpr(target_fpr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SegugioConfig;
    use crate::snapshot::SnapshotInput;
    use crate::trainer::Segugio;
    use segugio_model::{Blacklist, Day, DomainName, DomainTable, Ipv4, MachineId, Whitelist};
    use segugio_pdns::PassiveDns;

    /// World with a *held-out* malware domain (never blacklisted) queried by
    /// the infected cluster — the model should find it.
    fn fixture() -> (DaySnapshot, ActivityStore, SegugioConfig, DomainId) {
        let mut table = DomainTable::new();
        let benign: Vec<DomainId> = (0..8)
            .map(|i| table.intern(&DomainName::parse(&format!("site{i}.example")).unwrap()))
            .collect();
        let known_mal: Vec<DomainId> = (0..2)
            .map(|i| table.intern(&DomainName::parse(&format!("c2x{i}.example")).unwrap()))
            .collect();
        let unknown_mal = table.intern(&DomainName::parse("freshc2.example").unwrap());

        let mut whitelist = Whitelist::new();
        for &b in &benign {
            whitelist.insert(table.e2ld_of(b));
        }
        let mut blacklist = Blacklist::new();
        for &m in &known_mal {
            blacklist.insert(m, Day(0));
        }

        let mut queries = Vec::new();
        for machine in 0..40u32 {
            for &b in &benign {
                queries.push((MachineId(machine), b));
            }
            if machine < 8 {
                for &m in &known_mal {
                    queries.push((MachineId(machine), m));
                }
                queries.push((MachineId(machine), unknown_mal));
            }
        }
        let mut resolutions = Vec::new();
        let mut pdns = PassiveDns::new();
        let mut activity = ActivityStore::new();
        for (k, &d) in benign.iter().enumerate() {
            let ip = Ipv4::from_octets(10, 0, 0, k as u8);
            resolutions.push((d, vec![ip]));
            for day in 0..15 {
                pdns.record(d, ip, Day(day));
                activity.record(d, table.e2ld_of(d), Day(day));
            }
        }
        // Malware lives in a shared abused prefix; the fresh domain is young.
        for (k, &d) in known_mal.iter().enumerate() {
            let ip = Ipv4::from_octets(45, 0, 0, k as u8);
            resolutions.push((d, vec![ip]));
            for day in 5..15 {
                pdns.record(d, ip, Day(day));
                activity.record(d, table.e2ld_of(d), Day(day));
            }
        }
        let fresh_ip = Ipv4::from_octets(45, 0, 0, 200);
        resolutions.push((unknown_mal, vec![fresh_ip]));
        for day in 13..15 {
            pdns.record(unknown_mal, fresh_ip, Day(day));
            activity.record(unknown_mal, table.e2ld_of(unknown_mal), Day(day));
        }

        let mut config = SegugioConfig::default();
        config.prune.min_machine_degree = 2;
        // Every machine queries every benign domain in this fixture, so the
        // too-popular rule R4 would empty it; disable R4 here.
        config.prune.popular_fraction = 2.0;
        if let crate::config::ClassifierKind::Forest(f) = &mut config.classifier {
            f.n_trees = 15;
        }
        let input = SnapshotInput {
            day: Day(14),
            queries: &queries,
            resolutions: &resolutions,
            table: &table,
            pdns: &pdns,
            blacklist: &blacklist,
            whitelist: &whitelist,
            hidden: None,
        };
        let snap = DaySnapshot::build(&input, &config);
        (snap, activity, config, unknown_mal)
    }

    #[test]
    fn detector_finds_fresh_control_domain() {
        let (snap, activity, config, unknown_mal) = fixture();
        let model = Segugio::train(&snap, &activity, &config).expect("fixture has both classes");
        let detections = model.score_unknown(&snap, &activity);
        assert!(!detections.is_empty());
        // The fresh C&C domain must be the top-scored unknown domain.
        assert_eq!(detections[0].domain, unknown_mal);
        assert!(detections[0].score > 0.5);
    }

    /// The unknown domains scoring at or above `threshold`: the sorted
    /// detections cut at the threshold.
    fn flagged(
        model: &SegugioModel,
        snap: &DaySnapshot,
        activity: &ActivityStore,
        threshold: f32,
    ) -> Vec<Detection> {
        let mut detections = model.score_unknown(snap, activity);
        let keep = detections.partition_point(|d| d.score >= threshold);
        detections.truncate(keep);
        detections
    }

    #[test]
    fn threshold_cut_keeps_only_scores_at_or_above() {
        let (snap, activity, config, unknown_mal) = fixture();
        let model = Segugio::train(&snap, &activity, &config).expect("fixture has both classes");
        let hits = flagged(&model, &snap, &activity, 0.5);
        assert!(hits.iter().any(|d| d.domain == unknown_mal));
        assert!(hits.iter().all(|d| d.score >= 0.5));
    }

    #[test]
    fn implicated_machines_cover_the_cluster() {
        let (snap, activity, config, unknown_mal) = fixture();
        let model = Segugio::train(&snap, &activity, &config).expect("fixture has both classes");
        let hits: Vec<Detection> = flagged(&model, &snap, &activity, 0.5)
            .into_iter()
            .filter(|d| d.domain == unknown_mal)
            .collect();
        let machines = snap.implicated_machines(&hits);
        assert_eq!(machines.len(), 8, "all eight infected machines implied");
        assert!(machines.iter().all(|m| m.0 < 8));
    }

    #[test]
    fn model_persistence_round_trip() {
        let (snap, activity, config, _) = fixture();
        let model = Segugio::train(&snap, &activity, &config).expect("fixture has both classes");
        let text = model.save_to_string();
        let loaded = SegugioModel::load_from_str(&text).unwrap();
        assert_eq!(loaded.columns(), model.columns());
        assert_eq!(loaded.feature_config(), model.feature_config());
        // Identical scores on identical inputs.
        let a = model.score_unknown(&snap, &activity);
        let b = loaded.score_unknown(&snap, &activity);
        assert_eq!(a, b);
        // Rejects garbage.
        assert!(SegugioModel::load_from_str("").is_err());
        assert!(SegugioModel::load_from_str("segugio-model v99").is_err());
        assert!(SegugioModel::load_from_str(
            "segugio-model v2
features 14 150
columns 0 1
bogus"
        )
        .is_err());
        // A v1 file (its forest in the old arena layout) is refused, typed.
        let v1 = "segugio-model v1\nfeatures 14 150\ncolumns 0 1\n\
                  forest 1\ntree 2 3\nS 0 0.5 1 2\nL 0.1\nL 0.9\n";
        let error = SegugioModel::load_from_str(v1).expect_err("v1 is refused");
        assert!(error.to_string().contains("v1"), "{error}");
        // A backend whose arity disagrees with the columns line is refused
        // at load, not at the first scored row.
        let logistic = "segugio-model v2\nfeatures 14 150\ncolumns 0 1\nlogistic 3\n\
                        weights 1 1 1\nbias 0\nmean 0 0 0\ninv_std 1 1 1\n";
        let error = SegugioModel::load_from_str(logistic).expect_err("arity mismatch");
        assert!(error.to_string().contains("match columns"), "{error}");
        let matching = logistic
            .replace("logistic 3", "logistic 2")
            .replace(" 1 1 1", " 1 1")
            .replace(" 0 0 0", " 0 0");
        let model = SegugioModel::load_from_str(&matching).expect("matching arity loads");
        assert!(model.score_features(&[0.0; FEATURE_COUNT]).is_finite());
        let narrow_forest = "segugio-model v2\nfeatures 14 150\ncolumns 0 1\n\
                             forest 1 2\ntree 1\nL 0.5\n";
        assert!(SegugioModel::load_from_str(narrow_forest).is_err());
    }

    #[test]
    fn detections_are_sorted_desc() {
        let (snap, activity, config, _) = fixture();
        let model = Segugio::train(&snap, &activity, &config).expect("fixture has both classes");
        let detections = model.score_unknown(&snap, &activity);
        for w in detections.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
