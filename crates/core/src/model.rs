//! The trained model and the detector.

use segugio_ml::{
    Classifier, FlatForest, GradientBoosting, LogisticRegression, RandomForest, RocCurve,
};
use segugio_model::{DomainId, Label, MachineId};
use segugio_pdns::ActivityStore;

use crate::features::{FeatureConfig, FeatureExtractor, FEATURE_COUNT};
use crate::snapshot::DaySnapshot;

/// The classifier behind a [`SegugioModel`].
#[derive(Debug, Clone)]
pub enum ModelBackend {
    /// Random forest.
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
/// Holds the candidate list, the per-candidate score column, and the
/// assembled detections, so a long-running deployment (the
/// [`Tracker`](crate::Tracker)'s daily loop) scores each day with zero
/// heap allocations once the buffer has grown to the network's candidate
/// count.
#[derive(Debug, Clone, Default)]
pub struct ScoreBuffer {
    scores: Vec<f32>,
    detections: Vec<Detection>,
    candidates: Vec<segugio_graph::DomainIdx>,
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

    /// The raw score column from the most recent scoring call, in
    /// candidate (or dataset-row) order — what
    /// [`score_dataset_with`](SegugioModel::score_dataset_with) fills for
    /// threshold calibration.
    pub fn scores(&self) -> &[f32] {
        &self.scores
    }

    /// Moves the detections out (the buffer keeps its score column).
    pub fn take_detections(&mut self) -> Vec<Detection> {
        std::mem::take(&mut self.detections)
    }
}

/// A trained Segugio classifier: feature projection + scorer.
///
/// Models are intentionally self-contained — they carry the feature windows
/// and column projection they were trained with — so a model trained on one
/// network can be deployed on another (the paper's cross-network result).
#[derive(Debug, Clone)]
pub struct SegugioModel {
    backend: ModelBackend,
    columns: Vec<usize>,
    features: FeatureConfig,
    /// Worker threads for bulk scoring; not persisted — a deployment
    /// property of this process, not of the trained model.
    parallelism: Option<usize>,
    /// Breadth-ordered struct-of-arrays repack of a forest backend, with
    /// the column projection baked into the node feature indices. Built at
    /// construction/load; `None` for non-forest backends. Scores are
    /// bit-for-bit identical to walking the arena.
    flat: Option<FlatForest>,
}

impl SegugioModel {
    pub(crate) fn new(backend: ModelBackend, columns: Vec<usize>, features: FeatureConfig) -> Self {
        let flat = match &backend {
            ModelBackend::Forest(f) => {
                debug_assert_eq!(
                    f.n_features(),
                    columns.len(),
                    "trainer projects consistently"
                );
                Some(FlatForest::from_forest_mapped(f, &columns, FEATURE_COUNT))
            }
            _ => None,
        };
        SegugioModel {
            backend,
            columns,
            features,
            parallelism: None,
            flat,
        }
    }

    /// Sets the worker-thread count used by the bulk scoring entry points
    /// ([`score_unknown`](Self::score_unknown) /
    /// [`score_where`](Self::score_where)): `None` uses every available
    /// core, `Some(1)` forces the serial path. Scores are bit-for-bit
    /// identical at every setting. Models from
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
        let _ = writeln!(out, "segugio-model v1");
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
    /// Returns [`segugio_ml::ParseModelError`] on version mismatch or
    /// malformed content.
    pub fn load_from_str(text: &str) -> Result<Self, segugio_ml::ParseModelError> {
        use segugio_ml::ParseModelError;
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| ParseModelError::new("empty model file"))?;
        if header.trim() != "segugio-model v1" {
            return Err(ParseModelError::new("unsupported model version header"));
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
        if let ModelBackend::Forest(f) = &backend {
            // A forest whose arity disagrees with the column projection
            // would index a projected row out of bounds at scoring time;
            // reject it at load instead.
            if f.n_features() != columns.len() {
                return Err(ParseModelError::new(
                    "forest feature count does not match columns line",
                ));
            }
        }
        if let ModelBackend::Boosting(b) = &backend {
            // The boosting format carries no arity header, so bound-check
            // its split features against the column projection here.
            if b.n_features() > columns.len() {
                return Err(ParseModelError::new(
                    "boosting backend references features beyond columns line",
                ));
            }
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
        if let Some(flat) = &self.flat {
            // Column remap is baked into the flat nodes: no projection.
            return flat.score(features);
        }
        if self.columns.len() == FEATURE_COUNT {
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
        self.score_where(snapshot, activity, |label| label == Label::Unknown)
    }

    /// [`score_unknown`](Self::score_unknown) into a reusable buffer.
    pub fn score_unknown_with(
        &self,
        snapshot: &DaySnapshot,
        activity: &ActivityStore,
        buf: &mut ScoreBuffer,
    ) {
        self.score_where_with(snapshot, activity, |label| label == Label::Unknown, buf);
    }

    /// Measures and scores every domain whose label satisfies `pred`.
    pub fn score_where<F>(
        &self,
        snapshot: &DaySnapshot,
        activity: &ActivityStore,
        pred: F,
    ) -> Vec<Detection>
    where
        F: Fn(Label) -> bool,
    {
        let mut buf = ScoreBuffer::new();
        self.score_where_with(snapshot, activity, pred, &mut buf);
        buf.take_detections()
    }

    /// [`score_where`](Self::score_where) into a reusable buffer: the
    /// sorted detections land in `buf` and no intermediate vectors are
    /// allocated once the buffer has warmed up.
    ///
    /// With a forest backend, candidates are measured and scored in
    /// [`SCORE_BLOCK`](segugio_ml::flat::SCORE_BLOCK)-row blocks so the
    /// feature rows stay in cache while every tree walks them. Scores are
    /// bit-for-bit identical to the per-row path at any parallelism.
    pub fn score_where_with<F>(
        &self,
        snapshot: &DaySnapshot,
        activity: &ActivityStore,
        pred: F,
        buf: &mut ScoreBuffer,
    ) where
        F: Fn(Label) -> bool,
    {
        let extractor =
            FeatureExtractor::new(&snapshot.graph, activity, &snapshot.abuse, self.features);
        // The candidate list, score column, and detections all live in the
        // reusable buffer: a warmed-up buffer makes the whole pass
        // allocation-free. Destructure so the three columns can be
        // borrowed independently across the worker closure.
        let ScoreBuffer {
            scores,
            detections,
            candidates,
        } = buf;
        candidates.clear();
        candidates.extend(
            snapshot
                .graph
                .domain_indices()
                .filter(|&d| pred(snapshot.graph.domain_label(d))),
        );
        // Each candidate is measured and scored independently; chunk over
        // workers filling disjoint slices of the score column, then sort —
        // the result is identical at any parallelism.
        let threads = crate::parallel::resolve_parallelism(self.parallelism);
        scores.clear();
        scores.resize(candidates.len(), 0.0);
        const BLOCK: usize = segugio_ml::flat::SCORE_BLOCK;
        match &self.flat {
            Some(flat) => {
                crate::parallel::parallel_map_fill(scores, threads, |base, out| {
                    let mut block = [[0.0f32; FEATURE_COUNT]; BLOCK];
                    let mut done = 0usize;
                    while done < out.len() {
                        let take = (out.len() - done).min(BLOCK);
                        for (k, row) in block[..take].iter_mut().enumerate() {
                            *row = extractor.measure(candidates[base + done + k]);
                        }
                        flat.score_block(&block[..take], &mut out[done..done + take]);
                        done += take;
                    }
                });
            }
            None => {
                crate::parallel::parallel_map_fill(scores, threads, |base, out| {
                    for (k, s) in out.iter_mut().enumerate() {
                        *s = self.score_features(&extractor.measure(candidates[base + k]));
                    }
                });
            }
        }
        detections.clear();
        detections.extend(
            candidates
                .iter()
                .zip(scores.iter())
                .map(|(&d, &score)| Detection {
                    domain: snapshot.graph.domain_id(d),
                    score,
                }),
        );
        // Unstable sort: equal sort keys mean byte-identical `Detection`
        // values (score *and* domain equal), so the order is still fully
        // deterministic — and no sort scratch is allocated.
        detections
            .sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.domain.cmp(&b.domain)));
    }

    /// Scores pre-measured feature rows and returns detections sorted
    /// exactly like [`score_where`](Self::score_where) (descending score,
    /// domain id as the tie-break).
    ///
    /// [`measure_day`](crate::measure_day) measures the day's rows in one
    /// pass and the tracker hands the unknowns' here; with identical rows
    /// the result is bit-for-bit what `score_where` would produce.
    pub fn score_rows(&self, ids: &[DomainId], rows: &[[f32; FEATURE_COUNT]]) -> Vec<Detection> {
        let mut buf = ScoreBuffer::new();
        self.score_rows_with(ids, rows, &mut buf);
        buf.take_detections()
    }

    /// [`score_rows`](Self::score_rows) into a reusable buffer. The rows
    /// are already contiguous, so the forest path hands each worker's chunk
    /// straight to the flat forest's blocked scorer — no copies at all.
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
        match &self.flat {
            Some(flat) => {
                crate::parallel::parallel_map_fill(&mut buf.scores, threads, |base, out| {
                    flat.score_rows(&rows[base..base + out.len()], out);
                });
            }
            None => {
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
        // Unstable for the same reason as `score_where_with`: ties are
        // byte-identical detections, and the stable sort's merge scratch
        // is the last allocation on this path.
        buf.detections
            .sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.domain.cmp(&b.domain)));
    }

    /// Scores every row of a prepared training dataset into the buffer's
    /// score column (no detections are assembled — dataset rows carry
    /// hidden labels, not domain ids). This is the threshold-calibration
    /// entry point: the [`Tracker`](crate::Tracker) scores the training
    /// set here every morning and reads the column back via
    /// [`ScoreBuffer::scores`]. Row order is preserved and scores are
    /// bit-for-bit identical at any parallelism.
    pub fn score_dataset_with(&self, data: &segugio_ml::Dataset, buf: &mut ScoreBuffer) {
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

/// A model plus an operating threshold: the deployed detector.
///
/// The threshold is typically chosen on training-day scores for a target
/// false-positive rate via [`RocCurve::threshold_for_fpr`].
#[derive(Debug, Clone)]
pub struct Detector {
    model: SegugioModel,
    threshold: f32,
}

impl Detector {
    /// Wraps a model with a fixed detection threshold.
    pub fn new(model: SegugioModel, threshold: f32) -> Self {
        Detector { model, threshold }
    }

    /// Chooses the threshold from a ROC curve at the target FPR.
    pub fn with_target_fpr(model: SegugioModel, roc: &RocCurve, target_fpr: f64) -> Self {
        let threshold = roc.threshold_for_fpr(target_fpr);
        Detector { model, threshold }
    }

    /// The wrapped model.
    pub fn model(&self) -> &SegugioModel {
        &self.model
    }

    /// The operating threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Scores the unknown domains of `snapshot` and returns those at or
    /// above the threshold (sorted by descending score).
    pub fn detect(&self, snapshot: &DaySnapshot, activity: &ActivityStore) -> Vec<Detection> {
        let mut buf = ScoreBuffer::new();
        self.detect_with(snapshot, activity, &mut buf);
        buf.take_detections()
    }

    /// [`detect`](Self::detect) into a reusable buffer: after the call,
    /// [`ScoreBuffer::detections`] holds exactly the at-or-above-threshold
    /// detections (sorted by descending score) and nothing was allocated
    /// once the buffer has warmed up. Returns the detection count.
    ///
    /// The detections are sorted by descending score, so the threshold cut
    /// is a truncation, not a filter pass.
    pub fn detect_with(
        &self,
        snapshot: &DaySnapshot,
        activity: &ActivityStore,
        buf: &mut ScoreBuffer,
    ) -> usize {
        self.model.score_unknown_with(snapshot, activity, buf);
        let keep = buf
            .detections
            .partition_point(|d| d.score >= self.threshold);
        buf.detections.truncate(keep);
        keep
    }

    /// The machines implied infected by a set of detections: every machine
    /// that queried at least one detected domain (Section VI: "Segugio can
    /// detect both malware-control domains and the infected machines that
    /// query them at the same time").
    pub fn implied_infections(
        &self,
        snapshot: &DaySnapshot,
        detections: &[Detection],
    ) -> Vec<MachineId> {
        let mut machines = Vec::new();
        for det in detections {
            if let Some(d) = snapshot.graph.domain_idx(det.domain) {
                machines.extend(
                    snapshot
                        .graph
                        .machines_of(d)
                        .map(|m| snapshot.graph.machine_id(m)),
                );
            }
        }
        machines.sort_unstable();
        machines.dedup();
        machines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SegugioConfig;
    use crate::snapshot::SnapshotInput;
    use crate::trainer::Segugio;
    use segugio_model::{Blacklist, Day, DomainName, DomainTable, Ipv4, Whitelist};
    use segugio_pdns::PassiveDns;

    /// World with a *held-out* malware domain (never blacklisted) queried by
    /// the infected cluster — the detector should find it.
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
        let snap = Segugio::build_snapshot(&input, &config);
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

    #[test]
    fn detector_threshold_filters() {
        let (snap, activity, config, unknown_mal) = fixture();
        let model = Segugio::train(&snap, &activity, &config).expect("fixture has both classes");
        let det = Detector::new(model, 0.5);
        let hits = det.detect(&snap, &activity);
        assert!(hits.iter().any(|d| d.domain == unknown_mal));
        assert!(hits.iter().all(|d| d.score >= 0.5));
    }

    #[test]
    fn implied_infections_cover_the_cluster() {
        let (snap, activity, config, unknown_mal) = fixture();
        let model = Segugio::train(&snap, &activity, &config).expect("fixture has both classes");
        let det = Detector::new(model, 0.5);
        let hits: Vec<Detection> = det
            .detect(&snap, &activity)
            .into_iter()
            .filter(|d| d.domain == unknown_mal)
            .collect();
        let machines = det.implied_infections(&snap, &hits);
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
            "segugio-model v1
features 14 150
columns 0 1
bogus"
        )
        .is_err());
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
