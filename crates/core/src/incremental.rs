//! Cross-day incremental state: a rolling abuse index and a dirty-set
//! feature cache.
//!
//! A production deployment processes consecutive days whose inputs overlap
//! almost entirely: the pDNS abuse window shifts by a single day, and the
//! vast majority of domains end up with exactly the same feature vector as
//! yesterday. [`IncrementalEngine`] exploits both kinds of overlap while
//! staying **bit-for-bit identical** to the from-scratch path (the day's
//! graph itself is rebuilt every morning — one counting-sort pass is
//! cheaper than merging against yesterday's):
//!
//! 1. the IP-abuse index is advanced by
//!    [`RollingAbuseIndex`](segugio_pdns::RollingAbuseIndex) — ingesting
//!    the entering day, evicting the leaving one — instead of rescanning
//!    `W` days of pDNS history;
//! 2. per-domain feature vectors are cached and reused when nothing that
//!    feeds them changed (the *dirty set* is derived from graph and
//!    abuse-index deltas); only the activity columns (F2), whose lookback
//!    window moves every day, are always recomputed.
//!
//! The equality argument, per feature group: F1 depends only on the
//! querier set and the (possibly hidden-view) labels of those queriers —
//! both checked. F3 depends only on the domain's resolved IPs and the
//! abuse-index entries for those IPs — the IP set is checked for equality
//! and the abuse entries for membership in the day's touched set. F2 is
//! recomputed outright. Anything not provably clean is re-measured.

use std::collections::BTreeMap;

use segugio_graph::{BehaviorGraph, DomainIdx, HiddenLabelView};
use segugio_ml::Dataset;
use segugio_model::{DomainId, Label};
use segugio_pdns::{AbuseDelta, ActivityStore, RollingAbuseIndex};

use crate::config::SegugioConfig;
use crate::features::{FeatureExtractor, FEATURE_COUNT};
use crate::parallel::parallel_map_indexed;
use crate::snapshot::{build_unpruned_graph, finish_snapshot, DaySnapshot, SnapshotInput};

/// One cached per-domain measurement from the previous day.
#[derive(Debug, Clone)]
struct CacheEntry {
    /// The label the domain had when the row was measured — a label flip
    /// changes both the measurement mode (hidden vs. plain) and the row's
    /// destination (training set vs. scoring candidates).
    label: Label,
    features: [f32; FEATURE_COUNT],
}

/// Everything remembered about the previous processed day.
#[derive(Debug, Clone)]
struct PrevDay {
    /// The previous day's *pruned, labeled* graph — the graph features were
    /// measured on.
    pruned: BehaviorGraph,
    /// Feature rows measured on that graph, keyed by external domain id.
    cache: BTreeMap<DomainId, CacheEntry>,
}

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
    /// How many rows reused yesterday's cached F1/F3 columns instead of a
    /// full re-measurement — the cache hit count, for telemetry.
    pub reused: usize,
}

/// Carries abuse-index and feature state from one day to the next.
///
/// Use [`build_snapshot`](Self::build_snapshot) then
/// [`measure_day`](Self::measure_day) once per day, in ascending day order.
/// Both are drop-in replacements for the from-scratch path
/// ([`DaySnapshot::build`] + [`build_training_set`](crate::build_training_set)
/// / [`score_unknown`](crate::SegugioModel::score_unknown)) with identical
/// outputs; [`Tracker`](crate::Tracker) switches between the two paths on
/// the [`SegugioConfig::incremental`] knob.
#[derive(Debug, Clone, Default)]
pub struct IncrementalEngine {
    rolling: RollingAbuseIndex,
    /// IPs/prefixes whose abuse-index entries changed in the latest
    /// [`build_snapshot`](Self::build_snapshot) advance.
    touched: AbuseDelta,
    prev: Option<PrevDay>,
    /// Dirty-set scratch (per-machine changed flags), reused across days.
    machine_changed: Vec<bool>,
    /// Dirty-set scratch (per-domain reusable cached rows), reused across
    /// days.
    reuse: Vec<Option<[f32; FEATURE_COUNT]>>,
}

impl IncrementalEngine {
    /// Creates an engine with no prior-day state; the first day it sees
    /// ingests the whole abuse window and measures every domain.
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
        self.touched = self
            .rolling
            .advance(input.pdns, window, |d| input.seed_label(d));
        // The snapshot owns its abuse index while the rolling copy keeps
        // advancing: one O(index) copy per day.
        finish_snapshot(unpruned, self.rolling.index().clone(), input, config)
    }

    /// Measures every domain of the day's pruned graph, reusing yesterday's
    /// cached rows for domains whose inputs provably did not change.
    ///
    /// `snapshot` must be the value the immediately preceding
    /// [`build_snapshot`](Self::build_snapshot) call returned — the dirty
    /// set compares it against the previous day and against the abuse
    /// entries touched by that same advance.
    pub fn measure_day(
        &mut self,
        snapshot: &DaySnapshot,
        activity: &ActivityStore,
        config: &SegugioConfig,
    ) -> DayFeatures {
        let graph = &snapshot.graph;
        let extractor = FeatureExtractor::new(graph, activity, &snapshot.abuse, config.features);

        // The dirty-set columns live in reusable engine scratch; the
        // destructuring lets the closures below borrow the read-only fields
        // while the scratch columns are filled.
        let IncrementalEngine {
            prev,
            touched,
            machine_changed,
            reuse,
            ..
        } = self;

        // A machine's contribution to any feature is its label and — under
        // the hidden-label view — its malware degree; a machine absent
        // yesterday is trivially changed.
        machine_changed.clear();
        match prev.as_ref() {
            None => machine_changed.resize(graph.machine_count(), true),
            Some(prev) => machine_changed.extend(graph.machine_indices().map(|m| {
                match prev.pruned.machine_idx(graph.machine_id(m)) {
                    None => true,
                    Some(pm) => {
                        prev.pruned.machine_label(pm) != graph.machine_label(m)
                            || prev.pruned.machine_malware_degree(pm)
                                != graph.machine_malware_degree(m)
                    }
                }
            })),
        }
        let machine_changed = &*machine_changed;
        let prev_day = prev.as_ref();
        let touched = &*touched;

        // Per domain: the cached row, if every input to its F1/F3 columns
        // is provably unchanged since it was measured.
        let clean_row = |d: DomainIdx| -> Option<[f32; FEATURE_COUNT]> {
            let prev = prev_day?;
            let id = graph.domain_id(d);
            let entry = prev.cache.get(&id)?;
            if entry.label != graph.domain_label(d) {
                return None;
            }
            let pd = prev.pruned.domain_idx(id)?;
            if prev.pruned.domain_degree(pd) != graph.domain_degree(d) {
                return None;
            }
            // Same querier machines, none of them changed.
            let mut prev_queriers = prev.pruned.machines_of(pd);
            for m in graph.machines_of(d) {
                let pm = prev_queriers.next()?;
                if prev.pruned.machine_id(pm) != graph.machine_id(m) || machine_changed[m.index()] {
                    return None;
                }
            }
            // Same resolved IPs, none with a changed abuse entry.
            if prev.pruned.domain_ips(pd) != graph.domain_ips(d) {
                return None;
            }
            for &ip in graph.domain_ips(d) {
                if touched.ips.contains(&ip) || touched.prefixes.contains(&ip.prefix24()) {
                    return None;
                }
            }
            Some(entry.features)
        };
        reuse.clear();
        reuse.extend(graph.domain_indices().map(clean_row));
        let reuse = &*reuse;
        let reused = reuse.iter().filter(|r| r.is_some()).count();

        // Measure (or refresh) every domain in index order. Reused rows
        // only recompute the activity columns — the lookback window moved.
        let rows: Vec<[f32; FEATURE_COUNT]> =
            parallel_map_indexed(graph.domain_count(), config.effective_parallelism(), |i| {
                let d = DomainIdx(i as u32);
                match reuse[i] {
                    Some(mut features) => {
                        extractor.measure_activity(d, &mut features);
                        features
                    }
                    None => {
                        if graph.domain_label(d) == Label::Unknown {
                            extractor.measure(d)
                        } else {
                            let view = HiddenLabelView::new(graph, d);
                            extractor.measure_hidden(&view)
                        }
                    }
                }
            });

        // Split rows exactly the way the from-scratch path does: knowns in
        // domain-index order into the training set, unknowns in domain-index
        // order as scoring candidates. Refill the cache for tomorrow.
        let mut train = Dataset::new(FEATURE_COUNT);
        let mut train_ids = Vec::new();
        let mut unknown_ids = Vec::new();
        let mut unknown_rows = Vec::new();
        let mut cache = BTreeMap::new();
        for (i, row) in rows.iter().enumerate() {
            let d = DomainIdx(i as u32);
            let label = graph.domain_label(d);
            let id = graph.domain_id(d);
            if label == Label::Unknown {
                unknown_ids.push(id);
                unknown_rows.push(*row);
            } else {
                train.push(row, label == Label::Malware);
                train_ids.push(id);
            }
            cache.insert(
                id,
                CacheEntry {
                    label,
                    features: *row,
                },
            );
        }
        self.prev = Some(PrevDay {
            // The cache owns yesterday's pruned graph to diff tomorrow's
            // against: one O(graph) copy per day.
            pruned: graph.clone(),
            cache,
        });
        DayFeatures {
            train,
            train_ids,
            unknown_ids,
            unknown_rows,
            reused,
        }
    }

    /// Drops the feature cache and previous-day graph. The rolling abuse
    /// index keeps advancing — it tracks the pDNS window, not the
    /// measurement state.
    ///
    /// Must be called whenever a day's snapshot was built but its features
    /// were *not* measured (e.g. the day had no trainable seeds): the next
    /// `measure_day` would otherwise diff against a stale day while
    /// `touched` only covers the latest single-day advance.
    pub fn reset_cache(&mut self) {
        self.prev = None;
    }

    /// Drops *all* cross-day state — rolling abuse index, touched set and
    /// feature cache — returning the engine to its just-constructed state.
    /// The next day is built from scratch, exactly like a fresh engine's
    /// first day.
    ///
    /// Required whenever the pDNS feed the engine has been advancing
    /// against is no longer trustworthy — e.g. a blanked-then-restored
    /// feed: [`RollingAbuseIndex`](segugio_pdns::RollingAbuseIndex) evicts
    /// leaving days by re-reading them from the *current* feed, so state
    /// carried across an inconsistent feed would silently diverge from the
    /// from-scratch path. A full reset is always parity-safe.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Serializes the engine's durable cross-day state — the rolling
    /// abuse window and the previous-day feature cache — as versioned
    /// text, appended to `out`. The single-advance `touched` set and the
    /// dirty-set scratch columns are deliberately skipped: the next
    /// [`build_snapshot`](Self::build_snapshot) overwrites all of them
    /// before anything reads them, so a resumed engine is parity-identical
    /// to one that never stopped.
    pub(crate) fn write_text(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push_str("engine v2\n");
        self.rolling.write_text(out);
        match &self.prev {
            Some(prev) => {
                out.push_str("prev 1\n");
                segugio_graph::write_graph(&prev.pruned, out);
                let _ = writeln!(out, "cache {}", prev.cache.len());
                for (id, entry) in &prev.cache {
                    let label = match entry.label {
                        Label::Malware => 'M',
                        Label::Benign => 'B',
                        Label::Unknown => 'U',
                    };
                    let _ = write!(out, "c {} {label}", id.0);
                    for f in &entry.features {
                        let _ = write!(out, " {:08x}", f.to_bits());
                    }
                    out.push('\n');
                }
            }
            None => out.push_str("prev 0\n"),
        }
        out.push_str("end-engine\n");
    }

    /// Parses the state [`write_text`](Self::write_text) produced,
    /// consuming lines through `end-engine`; scratch state starts empty.
    pub(crate) fn read_text<'a>(lines: &mut impl Iterator<Item = &'a str>) -> Result<Self, String> {
        let header = lines.next().ok_or("missing engine header")?;
        // A v1 section carries a delta marker and an unpruned-graph block
        // before the rolling index; refusing the header keeps it from
        // being mis-parsed (the caller discards the generation).
        if header != "engine v2" {
            return Err(format!("bad engine header: {header:?}"));
        }
        let rolling = RollingAbuseIndex::read_text(lines)?;
        let prev = match lines.next() {
            Some("prev 0") => None,
            Some("prev 1") => {
                let pruned = segugio_graph::read_graph(lines)?;
                let cache_line = lines.next().ok_or("missing cache header")?;
                let count: usize = cache_line
                    .strip_prefix("cache ")
                    .ok_or_else(|| format!("bad cache header: {cache_line:?}"))?
                    .parse()
                    .map_err(|e| format!("bad cache count: {e}"))?;
                let mut cache = BTreeMap::new();
                for _ in 0..count {
                    let line = lines.next().ok_or("truncated cache section")?;
                    let mut parts = line.split_ascii_whitespace();
                    if parts.next() != Some("c") {
                        return Err(format!("bad cache line: {line:?}"));
                    }
                    let id: u32 = parts
                        .next()
                        .ok_or("cache line missing domain id")?
                        .parse()
                        .map_err(|e| format!("bad cache domain id: {e}"))?;
                    let label = match parts.next() {
                        Some("M") => Label::Malware,
                        Some("B") => Label::Benign,
                        Some("U") => Label::Unknown,
                        other => return Err(format!("bad cache label: {other:?}")),
                    };
                    let mut features = [0.0f32; FEATURE_COUNT];
                    for slot in &mut features {
                        let bits = parts.next().ok_or("cache line missing feature column")?;
                        let bits = u32::from_str_radix(bits, 16)
                            .map_err(|e| format!("bad feature bits: {e}"))?;
                        *slot = f32::from_bits(bits);
                    }
                    if parts.next().is_some() {
                        return Err(format!("trailing tokens on cache line: {line:?}"));
                    }
                    let dup = cache.insert(DomainId(id), CacheEntry { label, features });
                    if dup.is_some() {
                        return Err(format!("duplicate cache entry for domain {id}"));
                    }
                }
                Some(PrevDay { pruned, cache })
            }
            other => return Err(format!("bad prev marker: {other:?}")),
        };
        match lines.next() {
            Some("end-engine") => {}
            other => return Err(format!("missing end-engine, got {other:?}")),
        }
        Ok(IncrementalEngine {
            rolling,
            touched: AbuseDelta::default(),
            prev,
            machine_changed: Vec::new(),
            reuse: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::build_training_set;
    use segugio_traffic::{IspConfig, IspNetwork};

    /// The engine's snapshot and per-day features must equal the
    /// from-scratch path exactly, day after day.
    #[test]
    #[cfg_attr(miri, ignore = "multi-day ISP simulation is too slow under Miri")]
    fn engine_matches_scratch_path() {
        let mut isp = IspNetwork::new(IspConfig::tiny(77));
        isp.warm_up(16);
        let config = SegugioConfig::default();
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
        }
    }

    /// After `reset_cache` the next day re-measures everything — and still
    /// matches the scratch path.
    #[test]
    #[cfg_attr(miri, ignore = "multi-day ISP simulation is too slow under Miri")]
    fn reset_cache_recovers() {
        let mut isp = IspNetwork::new(IspConfig::tiny(78));
        isp.warm_up(16);
        let config = SegugioConfig::default();
        let mut engine = IncrementalEngine::new();
        for day in 0..4 {
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
            let inc = engine.build_snapshot(&input, &config);
            if day == 1 {
                // Simulate a skipped day: snapshot built, features not
                // measured.
                engine.reset_cache();
                continue;
            }
            let scratch = DaySnapshot::build(&input, &config);
            let (scratch_train, scratch_ids) =
                build_training_set(&scratch, isp.activity(), &config);
            let features = engine.measure_day(&inc, isp.activity(), &config);
            assert_eq!(features.train_ids, scratch_ids);
            for i in 0..scratch_train.len() {
                assert_eq!(features.train.row(i), scratch_train.row(i));
            }
        }
    }
}
