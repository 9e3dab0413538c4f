//! Multi-day tracking: the deployment loop as a library type.
//!
//! Segugio's goal is to *track* infections day over day — retrain each
//! morning on the latest blacklist knowledge, calibrate an operating
//! threshold, report new detections, and record when the blacklist later
//! confirms them. [`Tracker`] packages that loop (the `isp_deployment`
//! example and the Fig. 11 experiment are both instances of it).
//!
//! Every day is built and measured from that day's inputs alone — graph,
//! pruning, the abuse index over the pDNS window, and all 11 features per
//! domain — as in the paper. Nothing a snapshot depends on is carried
//! between days: the tracker keeps its flag/confirmation timeline and the
//! last trained model (for the stale-model fallback).

use std::collections::BTreeMap;

use segugio_model::{Day, DomainId, MachineId};
use segugio_pdns::ActivityStore;

use crate::config::SegugioConfig;
use crate::error::{TrackerError, TrainError};
use crate::features::{FeatureGroup, FEATURE_COUNT};
use crate::model::{calibrate, Detection, ScoreBuffer, SegugioModel};
use crate::snapshot::{DaySnapshot, SnapshotInput};
use crate::trainer::{measure_day, Segugio};

/// Tracker configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerConfig {
    /// Pipeline configuration used every day: pruning, feature windows,
    /// classifier, parallelism and the health policy.
    pub segugio: SegugioConfig,
    /// Target false-positive rate for the daily threshold, calibrated on
    /// the training-day known domains via their hidden-label scores.
    pub target_fpr: f64,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            segugio: SegugioConfig::default(),
            target_fpr: 0.005,
        }
    }
}

/// Which [`HealthPolicy`](crate::HealthPolicy) fallback fired on a day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// The day had no trainable seeds; it was scored with the most recent
    /// retained model (and its threshold) instead of a fresh one.
    StaleModel {
        /// The day the reused model was trained on.
        trained_on: Day,
    },
    /// The day's pDNS abuse window was blank; the model was trained and
    /// scored with the IP-abuse feature group (F3) masked.
    MaskedIpFeatures,
    /// The tracker was restored from a durable checkpoint generation older
    /// than the newest one (the newer generations failed validation and
    /// were discarded). Recorded in the first report after the resume.
    RestoredFromCheckpoint {
        /// The day of the generation the state was restored from.
        day: Day,
    },
    /// A checkpoint generation failed validation during resume and was
    /// skipped. One record per discarded generation, newest first; if no
    /// generation was loadable the tracker started from scratch.
    CheckpointDiscarded {
        /// The day of the discarded generation.
        day: Day,
    },
    /// The front end could not read the log on from where the restored
    /// checkpoint left it, and read it again from its first byte.
    /// [Noted](Tracker::note_degradation) by the front end before the
    /// first day of the run.
    LogReread {
        /// `true`: the log no longer matched what the checkpoint recorded
        /// of it (rotated, truncated or edited), and was read into the
        /// front-end state the checkpoint carries — domain and machine
        /// ids are still the ones this tracker's state is keyed by.
        /// `false`: the checkpoint carried no front-end state this
        /// version can decode, so ids were assigned afresh from the log
        /// as found; they match the tracker's only if the log's old lines
        /// are unchanged.
        ids_restored: bool,
    },
}

/// One day's tracking outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DayReport {
    /// The processed day.
    pub day: Day,
    /// Domains newly flagged today (not flagged on any earlier day).
    pub new_detections: Vec<Detection>,
    /// All domains at/above threshold today, including re-detections.
    pub all_detections: Vec<Detection>,
    /// Machines implicated by today's detections.
    pub implicated_machines: Vec<MachineId>,
    /// Previously flagged domains that entered the blacklist today —
    /// confirmations of earlier detections, with the original flag day.
    pub confirmed: Vec<(DomainId, Day)>,
    /// The threshold used.
    pub threshold: f32,
    /// Fallbacks that fired on this day; empty on a healthy day.
    pub degradation: Vec<Degradation>,
}

impl DayReport {
    /// Whether any fallback fired on this day.
    pub fn is_degraded(&self) -> bool {
        !self.degradation.is_empty()
    }
}

/// The outcome of feeding one day to a tracker: a report (possibly
/// degraded) or a typed skip. Deployment drivers collect these so an
/// operator can audit exactly which day fell back to what.
#[derive(Debug, Clone, PartialEq)]
pub enum DayOutcome {
    /// The day was processed; see [`DayReport::degradation`] for any
    /// fallbacks that fired.
    Processed(DayReport),
    /// The day could not be processed and was skipped; tracker state is
    /// unchanged.
    Skipped {
        /// The skipped day.
        day: Day,
        /// Why it was skipped.
        error: TrackerError,
    },
}

impl DayOutcome {
    /// The report, if the day was processed.
    pub fn report(&self) -> Option<&DayReport> {
        match self {
            DayOutcome::Processed(report) => Some(report),
            DayOutcome::Skipped { .. } => None,
        }
    }
}

/// A successfully trained model retained for stale-model fallback scoring.
#[derive(Debug, Clone)]
pub(crate) struct RetainedModel {
    pub(crate) model: SegugioModel,
    pub(crate) threshold: f32,
    pub(crate) trained_on: Day,
}

/// Tracks malware-control domains across days.
///
/// Feed one [`SnapshotInput`] per day (ascending); each call retrains on
/// the day's known labels, scores the unknowns, and reconciles earlier
/// flags against today's blacklist.
#[derive(Debug, Clone, Default)]
pub struct Tracker {
    /// Day each still-unconfirmed flagged domain was first detected.
    /// Ordered so [`Tracker::pending`] iterates deterministically.
    pub(crate) flagged: BTreeMap<DomainId, Day>,
    /// Confirmed detections: domain → (flagged day, confirmed day).
    pub(crate) confirmed: BTreeMap<DomainId, (Day, Day)>,
    pub(crate) days_processed: usize,
    /// The most recent successfully trained model, for stale-model
    /// fallback scoring on seedless days.
    pub(crate) last_model: Option<RetainedModel>,
    /// The most recent successfully processed day, enforcing ascending
    /// delivery.
    pub(crate) last_day: Option<Day>,
    /// Degradation records produced outside a processed day (checkpoint
    /// resume fallbacks); drained into the front of the next
    /// [`DayReport::degradation`] so the operator log carries them.
    pub(crate) pending_degradation: Vec<Degradation>,
    /// Reusable scoring scratch: the daily scoring pass fills this instead
    /// of allocating fresh score/detection vectors every day.
    pub(crate) score_buf: ScoreBuffer,
    /// What the front end asked to have saved beside the tracker state:
    /// opaque here, carried verbatim by every checkpoint.
    pub(crate) front_end: Option<Vec<u8>>,
}

impl Tracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of days processed so far.
    pub fn days_processed(&self) -> usize {
        self.days_processed
    }

    /// The most recent successfully processed day, if any. After a
    /// [`Tracker::resume`](crate::checkpoint) this is the day of the
    /// restored checkpoint generation — the caller should continue with
    /// the first later day.
    pub fn last_day(&self) -> Option<Day> {
        self.last_day
    }

    /// Domains currently flagged but not yet blacklist-confirmed, with
    /// their first-detection day.
    pub fn pending(&self) -> impl Iterator<Item = (DomainId, Day)> + '_ {
        self.flagged.iter().map(|(&d, &day)| (d, day))
    }

    /// Confirmed detections: `(domain, flagged_day, confirmed_day)`.
    pub fn confirmations(&self) -> impl Iterator<Item = (DomainId, Day, Day)> + '_ {
        self.confirmed.iter().map(|(&d, &(f, c))| (d, f, c))
    }

    /// Attaches the front end's own state — for a log reader, the names
    /// behind the ids this tracker's state is keyed by and how far the
    /// log was read — to be written, as is, into every checkpoint saved
    /// from now on, so that ids and the state they key share one
    /// generation and one checksum. The tracker never looks inside.
    pub fn attach_front_end(&mut self, section: Vec<u8>) {
        self.front_end = Some(section);
    }

    /// Takes back what the restored checkpoint carried for the front end,
    /// if anything.
    pub fn take_front_end(&mut self) -> Option<Vec<u8>> {
        self.front_end.take()
    }

    /// The fallback records waiting for the next report: what
    /// [`resume`](Self::resume) discarded or restored, then what was
    /// [noted](Self::note_degradation).
    pub fn noted_degradations(&self) -> &[Degradation] {
        &self.pending_degradation
    }

    /// Records a fallback taken outside a processed day; it surfaces, after
    /// any checkpoint-resume records, at the front of the next
    /// [`DayReport::degradation`].
    pub fn note_degradation(&mut self, record: Degradation) {
        self.pending_degradation.push(record);
    }

    /// Processes one day of traffic.
    ///
    /// Degraded inputs are handled per the configured
    /// [`HealthPolicy`](crate::HealthPolicy): a day with no trainable
    /// seeds is scored with the most recent retained model, and a day with
    /// a blank pDNS abuse window is trained/scored with the IP-abuse
    /// feature group masked. Every fallback that fired is recorded in
    /// [`DayReport::degradation`].
    ///
    /// # Errors
    ///
    /// Returns [`TrackerError::InsufficientSeeds`] if the day's graph has
    /// no known malware or no known benign domains to train on and no
    /// usable retained model exists (fallback disabled, never trained, or
    /// older than the policy's maximum age), and
    /// [`TrackerError::NonMonotonicDay`] if `input.day` is not strictly
    /// after the last processed day. Either way the tracker's
    /// flag/confirmation state and day counter are left exactly as they
    /// were; the caller can skip the day and continue.
    pub fn process_day(
        &mut self,
        input: &SnapshotInput<'_>,
        activity: &ActivityStore,
        config: &TrackerConfig,
    ) -> Result<DayReport, TrackerError> {
        let day = input.day;
        let health = &config.segugio.health;
        let mut degradation = Vec::new();

        // 0. Days must arrive strictly ascending — an out-of-order day
        //    would corrupt the flag/confirmation timeline.
        if let Some(last) = self.last_day {
            if day <= last {
                return Err(TrackerError::NonMonotonicDay { last, got: day });
            }
        }

        // 1. Probe the day's pDNS abuse window. A blank window means the
        //    feed is out: the F3 features would be measured against
        //    nothing.
        let window = day.lookback_exclusive(config.segugio.features.abuse_window_days);
        let pdns_blank = input.pdns.records_in(window).next().is_none();
        let effective = if pdns_blank && health.mask_ip_features_on_blank_pdns {
            let configured: Vec<usize> = config
                .segugio
                .feature_columns
                .clone()
                .unwrap_or_else(|| (0..FEATURE_COUNT).collect());
            let masked: Vec<usize> = configured
                .iter()
                .copied()
                .filter(|c| !FeatureGroup::IpAbuse.columns().contains(c))
                .collect();
            // Only mask when something is actually removed and a usable
            // column set remains.
            if masked.len() != configured.len() && !masked.is_empty() {
                degradation.push(Degradation::MaskedIpFeatures);
                let mut cfg = config.segugio.clone();
                cfg.feature_columns = Some(masked);
                Some(cfg)
            } else {
                None
            }
        } else {
            None
        };
        let train_config = effective.as_ref().unwrap_or(&config.segugio);

        // 2. Build today's snapshot.
        let snapshot = DaySnapshot::build(input, &config.segugio);

        // 3. Seed check *before* mutating any tracker state, so a
        //    no-training-data day is fully skippable. With the stale-model
        //    fallback enabled and a fresh-enough retained model, the day
        //    is scored instead of skipped.
        let (malware, benign, _) = snapshot.graph.domain_label_counts();
        let stale = if malware == 0 || benign == 0 {
            let Some(retained) = health
                .stale_model_on_insufficient_seeds
                .then_some(self.last_model.as_ref())
                .flatten()
                .filter(|m| day.0.saturating_sub(m.trained_on.0) <= health.max_model_age_days)
            else {
                return Err(TrackerError::InsufficientSeeds {
                    day,
                    malware,
                    benign,
                });
            };
            Some(retained)
        } else {
            None
        };

        // 4. Reconcile: blacklist confirmations of earlier flags.
        let mut confirmed_today = Vec::new();
        self.flagged.retain(|&domain, &mut flagged_on| {
            if input.blacklist.contains_as_of(domain, day) {
                confirmed_today.push((domain, flagged_on));
                self.confirmed.insert(domain, (flagged_on, day));
                false
            } else {
                true
            }
        });
        confirmed_today.sort_by_key(|&(d, _)| d);

        // 5. Measure features, train on today's knowledge, and calibrate
        //    the threshold on the known domains' hidden-label scores. One
        //    pass measures every domain: the training set serves training
        //    and calibration, and the unknowns' rows are in hand to score.
        //    On a stale-model day there is nothing to train or calibrate:
        //    the retained model and its threshold score today's unknowns
        //    (the Fig. 6 cross-day result is what makes that meaningful).
        let (retain, threshold) = if let Some(retained) = stale {
            degradation.push(Degradation::StaleModel {
                trained_on: retained.trained_on,
            });
            retained
                .model
                .score_unknown_with(&snapshot, activity, &mut self.score_buf);
            (None, retained.threshold)
        } else {
            let features = measure_day(
                &snapshot,
                activity,
                train_config.features,
                train_config.parallelism,
                |_| true,
            );
            let model = Segugio::train_prepared(&features.train, train_config).map_err(
                |TrainError::InsufficientSeeds { malware, benign }| {
                    TrackerError::InsufficientSeeds {
                        day,
                        malware,
                        benign,
                    }
                },
            )?;
            let threshold = calibrate(
                &model,
                &features.train,
                config.target_fpr,
                &mut self.score_buf,
            );
            model.score_rows_with(
                &features.unknown_ids,
                &features.unknown_rows,
                &mut self.score_buf,
            );
            (Some(model), threshold)
        };

        // 6. Detect. The scored detections live in the reusable buffer;
        //    only those at/above threshold are copied out into the report.
        let all_detections: Vec<Detection> = self
            .score_buf
            .detections()
            .iter()
            .filter(|d| d.score >= threshold)
            .copied()
            .collect();
        let mut new_detections = Vec::new();
        for det in &all_detections {
            if !self.flagged.contains_key(&det.domain) && !self.confirmed.contains_key(&det.domain)
            {
                self.flagged.insert(det.domain, day);
                new_detections.push(*det);
            }
        }

        // 7. Implicated machines.
        let implicated = snapshot.implicated_machines(&all_detections);

        // A freshly trained model is retained for stale-model fallback on
        // later seedless days; a reused stale model is *not* re-retained
        // (its training day, and hence its age, is unchanged).
        if let Some(model) = retain {
            self.last_model = Some(RetainedModel {
                model,
                threshold,
                trained_on: day,
            });
        }
        self.last_day = Some(day);
        self.days_processed += 1;
        // Checkpoint-resume records (restored-from / discarded-generation)
        // were produced before any day ran; surface them at the front of
        // the first successful report so the operator log carries them.
        if !self.pending_degradation.is_empty() {
            let mut carried = std::mem::take(&mut self.pending_degradation);
            carried.extend(degradation);
            degradation = carried;
        }
        Ok(DayReport {
            day,
            new_detections,
            all_detections,
            implicated_machines: implicated,
            confirmed: confirmed_today,
            threshold,
            degradation,
        })
    }

    /// Processes one day, folding the error path into a [`DayOutcome`]
    /// instead of a `Result` — the shape deployment drivers log.
    pub fn process_day_outcome(
        &mut self,
        input: &SnapshotInput<'_>,
        activity: &ActivityStore,
        config: &TrackerConfig,
    ) -> DayOutcome {
        match self.process_day(input, activity, config) {
            Ok(report) => DayOutcome::Processed(report),
            Err(error) => DayOutcome::Skipped {
                day: input.day,
                error,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segugio_traffic::{IspConfig, IspNetwork};

    #[test]
    #[cfg_attr(miri, ignore = "multi-day ISP simulation is too slow under Miri")]
    fn tracker_flags_and_confirms_across_days() {
        let mut isp = IspNetwork::new(IspConfig::tiny(55));
        isp.warm_up(16);
        let mut tracker = Tracker::new();
        let config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };

        let mut total_new = 0usize;
        let mut total_confirmed = 0usize;
        for _ in 0..6 {
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
            let report = tracker
                .process_day(&input, isp.activity(), &config)
                .expect("warmed-up fixture seeds both classes");
            assert_eq!(report.day, traffic.day);
            total_new += report.new_detections.len();
            total_confirmed += report.confirmed.len();
            // New detections are a subset of all detections.
            for det in &report.new_detections {
                assert!(report.all_detections.contains(det));
            }
            // Confirmations must predate the confirming day.
            for &(_, flagged_on) in &report.confirmed {
                assert!(flagged_on < report.day);
            }
        }
        assert_eq!(tracker.days_processed(), 6);
        assert!(total_new > 0, "tracker must flag something over six days");
        // With lagged blacklisting and agility, some flags get confirmed.
        assert!(
            total_confirmed > 0,
            "expected blacklist confirmations of earlier flags"
        );
        // Confirmed + pending partition the flag space.
        let pending = tracker.pending().count();
        let confirmed = tracker.confirmations().count();
        assert_eq!(confirmed, total_confirmed);
        assert!(pending > 0 || total_new == total_confirmed);
    }

    #[test]
    #[cfg_attr(miri, ignore = "multi-day ISP simulation is too slow under Miri")]
    fn tracker_never_reflags_confirmed_domains() {
        let mut isp = IspNetwork::new(IspConfig::tiny(56));
        isp.warm_up(16);
        let mut tracker = Tracker::new();
        let config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };
        let mut seen_new: std::collections::HashSet<DomainId> = Default::default();
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
            let report = tracker
                .process_day(&input, isp.activity(), &config)
                .expect("warmed-up fixture seeds both classes");
            for det in &report.new_detections {
                assert!(
                    seen_new.insert(det.domain),
                    "domain {} flagged as new twice",
                    det.domain
                );
            }
        }
    }

    /// A seedless day with a fresh retained model is scored with it, and
    /// the report records the stale-model degradation.
    #[test]
    #[cfg_attr(miri, ignore = "multi-day ISP simulation is too slow under Miri")]
    fn stale_model_scores_seedless_day() {
        use segugio_model::Blacklist;

        let mut isp = IspNetwork::new(IspConfig::tiny(55));
        isp.warm_up(16);
        let mut tracker = Tracker::new();
        let config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };

        // Two healthy days to retain a model.
        let mut last_threshold = 0.0f32;
        let mut last_day = Day(0);
        for _ in 0..2 {
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
            let report = tracker
                .process_day(&input, isp.activity(), &config)
                .expect("healthy day");
            assert!(report.degradation.is_empty());
            last_threshold = report.threshold;
            last_day = report.day;
        }

        // Day three arrives with an empty blacklist: no malware seeds.
        let empty_blacklist = Blacklist::new();
        let traffic = isp.next_day();
        let input = SnapshotInput {
            day: traffic.day,
            queries: &traffic.queries,
            resolutions: &traffic.resolutions,
            table: isp.table(),
            pdns: isp.pdns(),
            blacklist: &empty_blacklist,
            whitelist: isp.whitelist(),
            hidden: None,
        };
        let report = tracker
            .process_day(&input, isp.activity(), &config)
            .expect("stale-model fallback must score the day");
        assert_eq!(
            report.degradation,
            vec![Degradation::StaleModel {
                trained_on: last_day
            }]
        );
        assert_eq!(report.threshold, last_threshold, "threshold is reused");
        assert_eq!(tracker.days_processed(), 3);

        // With the fallback disabled the same day is a typed error.
        let mut strict = config.clone();
        strict.segugio.health.stale_model_on_insufficient_seeds = false;
        let mut tracker2 = Tracker::new();
        let healthy = SnapshotInput {
            blacklist: isp.commercial_blacklist(),
            ..input
        };
        tracker2
            .process_day(&healthy, isp.activity(), &strict)
            .expect("healthy day trains");
        let traffic = isp.next_day();
        let input = SnapshotInput {
            day: traffic.day,
            queries: &traffic.queries,
            resolutions: &traffic.resolutions,
            table: isp.table(),
            pdns: isp.pdns(),
            blacklist: &empty_blacklist,
            whitelist: isp.whitelist(),
            hidden: None,
        };
        let err = tracker2
            .process_day(&input, isp.activity(), &strict)
            .unwrap_err();
        assert!(matches!(err, TrackerError::InsufficientSeeds { .. }));
    }

    /// A retained model past its maximum age is not reused.
    #[test]
    #[cfg_attr(miri, ignore = "multi-day ISP simulation is too slow under Miri")]
    fn stale_model_expires_past_max_age() {
        use segugio_model::Blacklist;

        let mut isp = IspNetwork::new(IspConfig::tiny(57));
        isp.warm_up(16);
        let mut config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };
        config.segugio.health.max_model_age_days = 2;
        let mut tracker = Tracker::new();

        let traffic = isp.next_day();
        let trained_day = traffic.day;
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
        tracker
            .process_day(&input, isp.activity(), &config)
            .expect("healthy day trains");

        // Skip far ahead: a seedless day 5 days later is out of range.
        let empty_blacklist = Blacklist::new();
        for _ in 0..4 {
            isp.next_day();
        }
        let traffic = isp.next_day();
        assert!(traffic.day.0 - trained_day.0 > 2);
        let input = SnapshotInput {
            day: traffic.day,
            queries: &traffic.queries,
            resolutions: &traffic.resolutions,
            table: isp.table(),
            pdns: isp.pdns(),
            blacklist: &empty_blacklist,
            whitelist: isp.whitelist(),
            hidden: None,
        };
        let err = tracker
            .process_day(&input, isp.activity(), &config)
            .unwrap_err();
        assert!(matches!(err, TrackerError::InsufficientSeeds { .. }));
    }

    /// A blank pDNS window masks the F3 feature group and records it.
    #[test]
    #[cfg_attr(miri, ignore = "multi-day ISP simulation is too slow under Miri")]
    fn blank_pdns_day_masks_ip_features() {
        use segugio_pdns::PassiveDns;

        let mut isp = IspNetwork::new(IspConfig::tiny(55));
        isp.warm_up(16);
        let mut tracker = Tracker::new();
        let config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };

        let blank = PassiveDns::new();
        let traffic = isp.next_day();
        let input = SnapshotInput {
            day: traffic.day,
            queries: &traffic.queries,
            resolutions: &traffic.resolutions,
            table: isp.table(),
            pdns: &blank,
            blacklist: isp.commercial_blacklist(),
            whitelist: isp.whitelist(),
            hidden: None,
        };
        let report = tracker
            .process_day(&input, isp.activity(), &config)
            .expect("F1+F2 are enough to train");
        assert_eq!(report.degradation, vec![Degradation::MaskedIpFeatures]);

        // The next day, with the feed restored, is healthy again.
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
        let report = tracker
            .process_day(&input, isp.activity(), &config)
            .expect("restored day");
        assert!(report.degradation.is_empty());
    }

    /// Out-of-order days are a typed error that leaves state untouched.
    #[test]
    fn non_monotonic_day_is_rejected() {
        let mut isp = IspNetwork::new(IspConfig::tiny(55));
        isp.warm_up(16);
        let mut tracker = Tracker::new();
        let config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };
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
        let report = tracker
            .process_day(&input, isp.activity(), &config)
            .expect("first delivery works");
        // Re-delivering the same day is rejected.
        let err = tracker
            .process_day(&input, isp.activity(), &config)
            .unwrap_err();
        assert_eq!(
            err,
            TrackerError::NonMonotonicDay {
                last: report.day,
                got: report.day,
            }
        );
        assert_eq!(tracker.days_processed(), 1);

        // The outcome wrapper records the skip.
        let outcome = tracker.process_day_outcome(&input, isp.activity(), &config);
        assert_eq!(
            outcome,
            DayOutcome::Skipped {
                day: report.day,
                error: err,
            }
        );
        assert!(outcome.report().is_none());
    }

    /// A day without both seed classes is a typed, skippable error that
    /// leaves the tracker untouched.
    #[test]
    fn seedless_day_is_a_typed_error() {
        use segugio_model::{Blacklist, DomainTable, Whitelist};
        use segugio_pdns::PassiveDns;

        let table = DomainTable::new();
        let blacklist = Blacklist::new();
        let whitelist = Whitelist::new();
        let pdns = PassiveDns::new();
        let activity = ActivityStore::new();
        let input = SnapshotInput {
            day: Day(3),
            queries: &[],
            resolutions: &[],
            table: &table,
            pdns: &pdns,
            blacklist: &blacklist,
            whitelist: &whitelist,
            hidden: None,
        };
        let mut tracker = Tracker::new();
        let err = tracker
            .process_day(&input, &activity, &TrackerConfig::default())
            .unwrap_err();
        assert_eq!(
            err,
            TrackerError::InsufficientSeeds {
                day: Day(3),
                malware: 0,
                benign: 0,
            }
        );
        assert_eq!(tracker.days_processed(), 0);
        assert_eq!(tracker.pending().count(), 0);
    }
}
