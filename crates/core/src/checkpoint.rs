//! Durable checkpoint/restore for [`Tracker`]: crash-safe cross-day state.
//!
//! A production Segugio deployment is a months-long process whose value is
//! cumulative — flagged domains wait days for blacklist confirmation, and
//! the stale-model fallback needs the last trained model. This module
//! makes that state survive process death:
//!
//! - **generations in the one container** ([`Tracker::to_bytes`] /
//!   [`Tracker::from_bytes`]): a [`TRACKER`] section — flag and
//!   confirmation maps, day counters, pending fallback records, and the
//!   retained model's calibrated threshold and training day — then the
//!   retained model as a [`MODEL`] section, the same payload a model file
//!   holds. Every section carries its length and a CRC-32, checked before
//!   any field is read; the byte layout is written down once, in
//!   [`segugio_model::container`]. Nothing derived is saved: each day's
//!   snapshot, abuse index included, is built from that day's inputs and
//!   the pDNS store, so a resumed tracker needs no more;
//! - an **opaque [`FRONT_END`] section** last: whatever the program
//!   feeding the tracker [attached](Tracker::attach_front_end) — for the
//!   log reader, the names behind the domain ids every map above is keyed
//!   by, and how far the log was read. Ids and the state they key thus
//!   live and die in one generation: a fallback to an older generation
//!   takes the older ids with it. This crate frames the section and never
//!   looks inside (it must not depend on the front end), a tracker with
//!   nothing attached writes no such section, and a section its owner can
//!   no longer decode costs the owner a re-read, never the tracker state
//!   beside it;
//! - **atomic generation files** ([`Tracker::save_checkpoint`]): each save
//!   writes `checkpoint-<day>.seg` through the shared temp-file + fsync +
//!   rename helper [`write_atomic`] (a crash at any byte leaves either the
//!   old generation or a dead `.tmp`, never a half-written live file) and
//!   prunes to the last *K* generations;
//! - **generation-fallback resume** ([`Tracker::resume`]): generations are
//!   tried newest-first; each corrupt one is skipped with a typed
//!   [`Degradation::CheckpointDiscarded`] record, an older successful load
//!   adds [`Degradation::RestoredFromCheckpoint`], and when nothing is
//!   loadable the tracker starts from scratch carrying only the discard
//!   records. The records surface at the front of the next
//!   [`DayReport`](crate::DayReport)'s degradation list.
//!
//! A resume from an intact newest generation is **bit-for-bit** equivalent
//! to never having stopped: the chaos suite in `segugio-eval` kills a
//! deployment at every injected crash point and asserts the resumed
//! `DayReport` stream equals the uninterrupted one.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use segugio_model::container::{self, DecodeError, Reader, Tag, Writer, FRONT_END, MODEL, TRACKER};
use segugio_model::{Day, DomainId};

use crate::model::SegugioModel;
use crate::tracker::{Degradation, RetainedModel, Tracker};

/// How many checkpoint generations [`Tracker::save_checkpoint`] keeps by
/// default.
pub const DEFAULT_KEEP_GENERATIONS: usize = 3;

/// A typed checkpoint failure: the IO failures of saving and resuming.
/// Carries an optional causal chain. (A generation that does not decode is
/// a [`DecodeError`], and [`Tracker::resume`] degrades past it.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    message: String,
    source: Option<Box<CheckpointError>>,
}

impl CheckpointError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        CheckpointError {
            message: message.into(),
            source: None,
        }
    }

    pub(crate) fn context(self, message: impl Into<String>) -> Self {
        CheckpointError {
            message: message.into(),
            source: Some(Box::new(self)),
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)?;
        if let Some(source) = &self.source {
            write!(f, ": {source}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source.as_deref().map(|e| e as _)
    }
}

/// What an atomic write attempt did — [`write_atomic_with_kill`] reports
/// whether the injected crash fired before the rename committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The bytes were fully written, fsynced, and renamed into place.
    Committed,
    /// The injected kill fired mid-write: a partial `.tmp` file was left
    /// behind and the destination path was never touched.
    KilledMidWrite,
}

/// Atomically replaces `path` with `bytes`: write to a sibling `.tmp`
/// file, fsync it, rename over the destination, then fsync the directory.
/// A crash at any point leaves either the previous file intact or a dead
/// `.tmp`; readers never observe a torn live file.
///
/// This is the **only sanctioned write path** for durable state — the
/// workspace `clippy.toml` disallows `fs::write`, `File::create` and
/// `OpenOptions::new` everywhere else.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    write_atomic_impl(path, &[bytes], None).map(|_| ())
}

/// [`write_atomic`] with a deterministic crash injected after
/// `kill_after_bytes` bytes of the temp file have been written (clamped to
/// the payload length, so a large value models a crash after the write but
/// *before* the rename). Returns [`WriteOutcome::KilledMidWrite`] without
/// touching the destination — exactly the on-disk state a real mid-write
/// `SIGKILL` leaves. The chaos suite drives this with seeded offsets from
/// `FaultInjector`.
pub fn write_atomic_with_kill(
    path: &Path,
    bytes: &[u8],
    kill_after_bytes: u64,
) -> Result<WriteOutcome, CheckpointError> {
    write_atomic_impl(path, &[bytes], Some(kill_after_bytes))
}

/// The file's content is the concatenation of `parts`, written one after
/// the other: a checkpoint's pieces go out from where they lie.
#[expect(
    clippy::disallowed_methods,
    reason = "the sanctioned atomic writer: creates only the .tmp sibling it renames"
)]
fn write_atomic_impl(
    path: &Path,
    parts: &[&[u8]],
    kill_after: Option<u64>,
) -> Result<WriteOutcome, CheckpointError> {
    let display = path.display();
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    let mut file = File::create(&tmp)
        .map_err(|e| CheckpointError::new(format!("creating {}: {e}", tmp.display())))?;
    let mut left = kill_after.map(|kill| usize::try_from(kill).unwrap_or(usize::MAX));
    for part in parts {
        let part = &part[..left.map_or(part.len(), |left| left.min(part.len()))];
        file.write_all(part)
            .map_err(|e| CheckpointError::new(format!("writing {}: {e}", tmp.display())))?;
        left = left.map(|left| left - part.len());
    }
    if kill_after.is_some() {
        let _ = file.sync_all();
        return Ok(WriteOutcome::KilledMidWrite);
    }
    file.sync_all()
        .map_err(|e| CheckpointError::new(format!("fsyncing {}: {e}", tmp.display())))?;
    drop(file);
    fs::rename(&tmp, path)
        .map_err(|e| CheckpointError::new(format!("renaming into {display}: {e}")))?;
    // Make the rename itself durable. Directory fsync is best-effort: some
    // filesystems refuse it, and the rename is already atomic either way.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(WriteOutcome::Committed)
}

/// Lists checkpoint generations in `dir`, newest day first.
fn list_generations(dir: &Path) -> Result<Vec<(Day, PathBuf)>, CheckpointError> {
    let entries = fs::read_dir(dir)
        .map_err(|e| CheckpointError::new(format!("reading {}: {e}", dir.display())))?;
    let mut generations = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| CheckpointError::new(format!("reading {}: {e}", dir.display())))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(day) = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".seg"))
            .and_then(|day| day.parse::<u32>().ok())
        else {
            continue;
        };
        generations.push((Day(day), entry.path()));
    }
    generations.sort_by_key(|&(day, _)| std::cmp::Reverse(day));
    Ok(generations)
}

impl Tracker {
    /// The complete tracker state as a checkpoint generation: a [container]
    /// holding the [`TRACKER`] section, the retained model's [`MODEL`]
    /// section if there is one, and the [attached](Self::attach_front_end)
    /// [`FRONT_END`] section if there is one.
    /// [`from_bytes`](Self::from_bytes) of the result saves back to these
    /// exact bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.with_pieces(|pieces| pieces.concat())
    }

    /// Hands `write` the generation in pieces. The front-end section is
    /// megabytes and the same for every save of a run: it is checksummed
    /// and written from where it lies.
    fn with_pieces<T>(&self, write: impl FnOnce(&[&[u8]]) -> T) -> T {
        let tracker = self.section();
        let model = self.last_model.as_ref().map(|kept| kept.model.section());
        let mut sections = vec![(TRACKER, tracker.as_slice())];
        sections.extend(model.as_deref().map(|model| (MODEL, model)));
        sections.extend(
            self.front_end
                .as_deref()
                .map(|section| (FRONT_END, section)),
        );
        let pieces = container::pieces(&sections);
        let pieces: Vec<&[u8]> = pieces.iter().map(AsRef::as_ref).collect();
        write(&pieces)
    }

    /// The [`TRACKER`] section payload.
    fn section(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(
            64 + 8 * self.flagged.len()
                + 12 * self.confirmed.len()
                + 5 * self.pending_degradation.len(),
        );
        w.count(self.flagged.len());
        for (&domain, &day) in &self.flagged {
            w.put(domain.0);
            w.put(day.0);
        }
        w.count(self.confirmed.len());
        for (&domain, &(flagged_on, confirmed_on)) in &self.confirmed {
            w.put(domain.0);
            w.put(flagged_on.0);
            w.put(confirmed_on.0);
        }
        w.put(self.days_processed as u64);
        w.flag(self.last_day.is_some());
        if let Some(day) = self.last_day {
            w.put(day.0);
        }
        w.count(self.pending_degradation.len());
        for record in &self.pending_degradation {
            let (kind, value) = match *record {
                Degradation::StaleModel { trained_on } => (0u8, trained_on.0),
                Degradation::MaskedIpFeatures => (1, 0),
                Degradation::RestoredFromCheckpoint { day } => (2, day.0),
                Degradation::CheckpointDiscarded { day } => (3, day.0),
                Degradation::LogReread { ids_restored } => (4, u32::from(ids_restored)),
            };
            w.put(kind);
            w.put(value);
        }
        w.flag(self.last_model.is_some());
        if let Some(kept) = &self.last_model {
            w.put(kept.threshold);
            w.put(kept.trained_on.0);
        }
        w.into_bytes()
    }

    /// Reads a generation written by [`to_bytes`](Self::to_bytes). Every
    /// section's length and CRC-32 are verified before any field is read,
    /// so a torn, truncated or bit-flipped file fails the frame, not a
    /// field. Never panics on hostile input.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for anything but a generation of this version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Tracker, DecodeError> {
        let mut sections = container::decode(bytes)?.into_iter().peekable();
        let mut next = |tag: Tag| sections.next_if(|&(t, _)| t == tag).map(|(_, p)| p);
        let (tracker, model, front_end) = (next(TRACKER), next(MODEL), next(FRONT_END));
        if let Some((tag, _)) = sections.next() {
            return Err(DecodeError::new(format!(
                "unexpected {} section",
                String::from_utf8_lossy(&tag)
            )));
        }
        let tracker = tracker.ok_or_else(|| DecodeError::new("no tracker section"))?;
        let mut tracker =
            Self::from_section(tracker, model).map_err(|e| e.context("tracker section"))?;
        tracker.front_end = front_end.map(<[u8]>::to_vec);
        Ok(tracker)
    }

    /// Reads a [`TRACKER`] section payload and the retained model's
    /// section beside it.
    fn from_section(payload: &[u8], model: Option<&[u8]>) -> Result<Tracker, DecodeError> {
        let mut r = Reader::new(payload);
        let mut flagged = BTreeMap::new();
        for _ in 0..r.count("flagged count")? {
            let domain = DomainId(r.get("flagged domain")?);
            if flagged.insert(domain, Day(r.get("flagged day")?)).is_some() {
                return Err(DecodeError::new(format!(
                    "duplicate flagged domain {}",
                    domain.0
                )));
            }
        }
        let mut confirmed = BTreeMap::new();
        for _ in 0..r.count("confirmed count")? {
            let domain = DomainId(r.get("confirmed domain")?);
            let days = (Day(r.get("flag day")?), Day(r.get("confirmation day")?));
            if confirmed.insert(domain, days).is_some() {
                return Err(DecodeError::new(format!(
                    "duplicate confirmed domain {}",
                    domain.0
                )));
            }
        }
        let days_processed = r.get::<u64>("days processed")?;
        let days_processed = usize::try_from(days_processed)
            .map_err(|_| DecodeError::new(format!("{days_processed} days processed")))?;
        let last_day = match r.flag("last day")? {
            true => Some(Day(r.get("last day")?)),
            false => None,
        };
        let mut pending_degradation = Vec::new();
        for _ in 0..r.count("pending count")? {
            let kind: u8 = r.get("pending record kind")?;
            let value: u32 = r.get("pending record value")?;
            pending_degradation.push(match (kind, value) {
                (0, day) => Degradation::StaleModel {
                    trained_on: Day(day),
                },
                (1, 0) => Degradation::MaskedIpFeatures,
                (2, day) => Degradation::RestoredFromCheckpoint { day: Day(day) },
                (3, day) => Degradation::CheckpointDiscarded { day: Day(day) },
                (4, 0 | 1) => Degradation::LogReread {
                    ids_restored: value == 1,
                },
                _ => {
                    return Err(DecodeError::new(format!(
                        "bad pending record: kind {kind}, value {value}"
                    )))
                }
            });
        }
        let retained = match r.flag("retained model")? {
            true => Some((r.get("model threshold")?, Day(r.get("model training day")?))),
            false => None,
        };
        r.finish("tracker section")?;
        let last_model = match (retained, model) {
            (Some((threshold, trained_on)), Some(model)) => Some(RetainedModel {
                model: SegugioModel::from_section(model).map_err(|e| e.context("model section"))?,
                threshold,
                trained_on,
            }),
            (None, None) => None,
            _ => {
                return Err(DecodeError::new(
                    "the tracker's retained model and the model section disagree",
                ))
            }
        };
        Ok(Tracker {
            flagged,
            confirmed,
            days_processed,
            last_model,
            last_day,
            pending_degradation,
            score_buf: Default::default(),
            front_end: None,
        })
    }

    /// Writes the current state as generation file `checkpoint-<day>.seg`
    /// in `dir` (created if absent) through the atomic temp+fsync+rename
    /// path, then prunes to the newest `keep` generations. Returns the
    /// path written.
    ///
    /// # Errors
    ///
    /// Fails if no day has been processed yet (there is nothing to name
    /// the generation after) or on IO failure; the previous generations
    /// are untouched in either case.
    pub fn save_checkpoint(&self, dir: &Path, keep: usize) -> Result<PathBuf, CheckpointError> {
        let day = self.last_day.ok_or_else(|| {
            CheckpointError::new("no processed day to checkpoint: the tracker is empty")
        })?;
        fs::create_dir_all(dir)
            .map_err(|e| CheckpointError::new(format!("creating {}: {e}", dir.display())))?;
        let path = dir.join(format!("checkpoint-{}.seg", day.0));
        self.with_pieces(|pieces| write_atomic_impl(&path, pieces, None))
            .map_err(|e| e.context(format!("saving checkpoint for day {}", day.0)))?;
        for (_, old) in list_generations(dir)?.into_iter().skip(keep.max(1)) {
            fs::remove_file(&old)
                .map_err(|e| CheckpointError::new(format!("pruning {}: {e}", old.display())))?;
        }
        Ok(path)
    }

    /// Restores a tracker from the newest loadable generation in `dir`.
    ///
    /// Generations are tried newest-first. A generation that fails to
    /// read, checksum, or parse is skipped with a
    /// [`Degradation::CheckpointDiscarded`] record; a successful load of
    /// anything *other than* the newest generation additionally records
    /// [`Degradation::RestoredFromCheckpoint`]. If no generation is
    /// loadable (or the directory doesn't exist yet) a fresh tracker is
    /// returned, carrying only the discard records. All records surface at
    /// the front of the next successful [`DayReport`](crate::DayReport)'s
    /// degradation list.
    ///
    /// Restoring from an intact newest generation emits **no** records:
    /// the resumed tracker's reports are bit-for-bit those of the one that
    /// was saved.
    ///
    /// # Errors
    ///
    /// Only unrecoverable environment failures error — the directory
    /// exists but cannot be listed. Corrupt checkpoint *contents* never
    /// error; they degrade.
    pub fn resume(dir: &Path) -> Result<Tracker, CheckpointError> {
        if !dir.exists() {
            return Ok(Tracker::new());
        }
        let generations =
            list_generations(dir).map_err(|e| e.context("resuming from checkpoint directory"))?;
        let mut discarded: Vec<Degradation> = Vec::new();
        for (i, (day, path)) in generations.iter().enumerate() {
            let loaded = fs::read(path)
                .ok()
                .and_then(|bytes| Tracker::from_bytes(&bytes).ok());
            match loaded {
                Some(mut tracker) => {
                    if i > 0 {
                        tracker.pending_degradation.extend(discarded);
                        tracker
                            .pending_degradation
                            .push(Degradation::RestoredFromCheckpoint { day: *day });
                    }
                    return Ok(tracker);
                }
                None => discarded.push(Degradation::CheckpointDiscarded { day: *day }),
            }
        }
        let mut fresh = Tracker::new();
        fresh.pending_degradation = discarded;
        Ok(fresh)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests plant torn and hostile files on purpose"
)]
#[expect(
    clippy::disallowed_types,
    reason = "a temp-dir name counter; no result depends on which test draws which number"
)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotInput;
    use crate::tracker::TrackerConfig;
    use segugio_traffic::{IspConfig, IspNetwork};
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A unique scratch directory per test, cleaned up on drop.
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU32 = AtomicU32::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("segugio-ckpt-{}-{tag}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            ScratchDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn run_days(isp: &mut IspNetwork, tracker: &mut Tracker, config: &TrackerConfig, n: usize) {
        for _ in 0..n {
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
            tracker
                .process_day(&input, isp.activity(), config)
                .expect("warmed-up fixture seeds both classes");
        }
    }

    /// The tags of a generation's sections, in order.
    fn tags(bytes: &[u8]) -> Vec<Tag> {
        let sections = container::decode(bytes).expect("a valid container");
        sections.iter().map(|&(tag, _)| tag).collect()
    }

    #[test]
    fn empty_tracker_round_trips_as_fixed_point() {
        let tracker = Tracker::new();
        let bytes = tracker.to_bytes();
        assert_eq!(tags(&bytes), [TRACKER], "no model, nothing attached");
        let loaded = Tracker::from_bytes(&bytes).expect("valid checkpoint");
        assert_eq!(loaded.to_bytes(), bytes, "save→load→save fixed point");
        assert_eq!(loaded.days_processed(), 0);
        assert_eq!(loaded.last_day(), None);
    }

    #[test]
    #[cfg_attr(miri, ignore = "multi-day ISP simulation is too slow under Miri")]
    fn warm_tracker_round_trips_and_continues_identically() {
        let mut isp_a = IspNetwork::new(IspConfig::tiny(55));
        let mut isp_b = IspNetwork::new(IspConfig::tiny(55));
        isp_a.warm_up(16);
        isp_b.warm_up(16);
        let config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };
        let mut original = Tracker::new();
        run_days(&mut isp_a, &mut original, &config, 3);

        // Round trip is a byte fixed point, and the generation is tracker
        // facts and a model: no graph, rolling-index or feature-cache
        // section.
        let bytes = original.to_bytes();
        assert_eq!(tags(&bytes), [TRACKER, MODEL]);
        let mut resumed = Tracker::from_bytes(&bytes).expect("valid checkpoint");
        assert_eq!(resumed.to_bytes(), bytes);
        assert_eq!(resumed.days_processed(), original.days_processed());
        assert_eq!(resumed.last_day(), original.last_day());

        // Both trackers process the same further days identically: the
        // resumed one's abuse index bootstraps from the pDNS store, the
        // uninterrupted one's has been rolling since day one.
        let mut replay = Tracker::new();
        run_days(&mut isp_b, &mut replay, &config, 3);
        for _ in 0..2 {
            let ta = isp_a.next_day();
            let tb = isp_b.next_day();
            let ia = SnapshotInput {
                day: ta.day,
                queries: &ta.queries,
                resolutions: &ta.resolutions,
                table: isp_a.table(),
                pdns: isp_a.pdns(),
                blacklist: isp_a.commercial_blacklist(),
                whitelist: isp_a.whitelist(),
                hidden: None,
            };
            let ib = SnapshotInput {
                day: tb.day,
                queries: &tb.queries,
                resolutions: &tb.resolutions,
                table: isp_b.table(),
                pdns: isp_b.pdns(),
                blacklist: isp_b.commercial_blacklist(),
                whitelist: isp_b.whitelist(),
                hidden: None,
            };
            let ra = resumed
                .process_day(&ia, isp_a.activity(), &config)
                .expect("seeds present");
            let rb = replay
                .process_day(&ib, isp_b.activity(), &config)
                .expect("seeds present");
            assert_eq!(ra, rb, "resumed and uninterrupted reports diverged");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "filesystem checkpoints are not available under Miri")]
    fn corrupt_newest_generation_falls_back_with_records() {
        let scratch = ScratchDir::new("fallback");
        let mut isp = IspNetwork::new(IspConfig::tiny(55));
        isp.warm_up(16);
        let config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };
        let mut tracker = Tracker::new();
        run_days(&mut isp, &mut tracker, &config, 1);
        tracker.save_checkpoint(scratch.path(), 3).expect("save 1");
        let good_day = tracker.last_day().expect("processed");
        run_days(&mut isp, &mut tracker, &config, 1);
        let newest = tracker.save_checkpoint(scratch.path(), 3).expect("save 2");
        let bad_day = tracker.last_day().expect("processed");

        // Flip one bit in the newest generation.
        let mut bytes = fs::read(&newest).expect("read newest");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&newest, &bytes).expect("corrupt newest");

        let resumed = Tracker::resume(scratch.path()).expect("resume degrades, not errors");
        assert_eq!(resumed.last_day(), Some(good_day));
        assert_eq!(
            resumed.pending_degradation,
            vec![
                Degradation::CheckpointDiscarded { day: bad_day },
                Degradation::RestoredFromCheckpoint { day: good_day },
            ]
        );

        // The records surface at the front of the next report.
        let mut resumed = resumed;
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
        let report = resumed
            .process_day(&input, isp.activity(), &config)
            .expect("seeds present");
        assert_eq!(
            &report.degradation[..2],
            &[
                Degradation::CheckpointDiscarded { day: bad_day },
                Degradation::RestoredFromCheckpoint { day: good_day },
            ]
        );
        assert!(resumed.pending_degradation.is_empty(), "records drained");
    }

    #[test]
    #[cfg_attr(miri, ignore = "filesystem checkpoints are not available under Miri")]
    fn all_generations_corrupt_degrades_to_fresh() {
        let scratch = ScratchDir::new("fresh");
        fs::create_dir_all(scratch.path()).expect("mkdir");
        fs::write(scratch.path().join("checkpoint-4.seg"), b"garbage").expect("seed garbage");
        fs::write(scratch.path().join("checkpoint-7.seg"), b"more garbage").expect("seed garbage");
        let resumed = Tracker::resume(scratch.path()).expect("degrades to fresh");
        assert_eq!(resumed.days_processed(), 0);
        assert_eq!(resumed.last_day(), None);
        assert_eq!(
            resumed.pending_degradation,
            vec![
                Degradation::CheckpointDiscarded { day: Day(7) },
                Degradation::CheckpointDiscarded { day: Day(4) },
            ]
        );
    }

    /// A generation of the text format before the container — here a
    /// literal `segugio-checkpoint v1` file with a correct header — a
    /// generation from a later container version and one whose retained
    /// model is of the retired backend kind 2 are refused, not mis-parsed:
    /// resume discards them and falls back to the generation before.
    #[test]
    #[cfg_attr(miri, ignore = "filesystem checkpoints are not available under Miri")]
    fn other_format_generations_are_discarded_not_misparsed() {
        let payload = "tracker v2\nflagged 1 12 5\nconfirmed 0\ndays-processed 6\n\
                       last-day 1 5\npending 0\nmodel 0\nend-tracker\n";
        let parent = format!(
            "segugio-checkpoint v1 {} {:08x}\n{payload}",
            payload.len(),
            container::crc32(payload.as_bytes())
        );
        let mut future = Tracker::new().to_bytes();
        future[8] = 2;
        let mut state = Tracker::new();
        state.last_day = Some(Day(4));
        state.days_processed = 5;
        let mut tracker = state.section();
        // Set the retained-model flag, then its threshold and training day.
        let last = tracker.len() - 1;
        tracker[last] = 1;
        tracker.extend_from_slice(&[0; 8]);
        // A model of the retired backend kind 2, one leaf in its layout.
        let mut model = Writer::new();
        model.put(14u32);
        model.put(150u32);
        model.array(&[0u32, 1]);
        model.put(2u8);
        model.put(0.0f64);
        model.put(0.1f64);
        model.array(&[0u32]);
        model.array(&[0u16]);
        model.array(&[0.0f32]);
        model.array(&[u32::MAX]);
        model.array(&[u32::MAX]);
        model.array(&[0.0f64]);
        let retired = container::encode(&[(TRACKER, &tracker), (MODEL, &model.into_bytes())]);

        let scratch = ScratchDir::new("other-format");
        fs::create_dir_all(scratch.path()).expect("mkdir");
        let mut kept = Tracker::new();
        kept.last_day = Some(Day(3));
        kept.days_processed = 4;
        fs::write(scratch.path().join("checkpoint-3.seg"), kept.to_bytes()).expect("seed");
        fs::write(scratch.path().join("checkpoint-4.seg"), retired).expect("seed retired");
        fs::write(scratch.path().join("checkpoint-5.seg"), parent).expect("seed parent");
        fs::write(scratch.path().join("checkpoint-6.seg"), future).expect("seed future");
        let resumed = Tracker::resume(scratch.path()).expect("resume degrades, not errors");
        assert_eq!(resumed.last_day(), Some(Day(3)));
        assert_eq!(
            resumed.pending_degradation,
            vec![
                Degradation::CheckpointDiscarded { day: Day(6) },
                Degradation::CheckpointDiscarded { day: Day(5) },
                Degradation::CheckpointDiscarded { day: Day(4) },
                Degradation::RestoredFromCheckpoint { day: Day(3) },
            ]
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "filesystem checkpoints are not available under Miri")]
    fn front_end_section_rides_every_generation_and_comes_back_verbatim() {
        let scratch = ScratchDir::new("front-end");
        let mut isp = IspNetwork::new(IspConfig::tiny(55));
        isp.warm_up(16);
        let config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };
        let mut tracker = Tracker::new();
        run_days(&mut isp, &mut tracker, &config, 1);
        assert_eq!(
            tags(&tracker.to_bytes()),
            [TRACKER, MODEL],
            "nothing attached"
        );

        // Opaque means opaque: another container inside, and bytes that
        // are not text.
        let section = [Tracker::new().to_bytes(), vec![0xC3, 0x28, 0xFF]].concat();
        tracker.attach_front_end(section.clone());
        tracker.note_degradation(Degradation::LogReread { ids_restored: true });
        tracker.note_degradation(Degradation::LogReread {
            ids_restored: false,
        });
        tracker.save_checkpoint(scratch.path(), 3).expect("save 1");
        run_days(&mut isp, &mut tracker, &config, 1);
        tracker.save_checkpoint(scratch.path(), 3).expect("save 2");

        for (_, path) in list_generations(scratch.path()).expect("list") {
            let bytes = fs::read(path).expect("read generation");
            assert_eq!(tags(&bytes), [TRACKER, MODEL, FRONT_END]);
            let mut loaded = Tracker::from_bytes(&bytes).expect("valid generation");
            assert_eq!(loaded.to_bytes(), bytes, "save→load→save fixed point");
            assert_eq!(loaded.take_front_end().as_deref(), Some(&section[..]));
        }
        let mut resumed = Tracker::resume(scratch.path()).expect("resume");
        assert_eq!(resumed.last_day(), tracker.last_day());
        assert!(resumed.pending_degradation.is_empty(), "drained by day 2");
        assert_eq!(resumed.take_front_end(), Some(section));

        // Until a day drains them, the notes are saved with their kinds.
        let mut waiting = Tracker::new();
        waiting.note_degradation(Degradation::LogReread { ids_restored: true });
        waiting.note_degradation(Degradation::LogReread {
            ids_restored: false,
        });
        let loaded = Tracker::from_bytes(&waiting.to_bytes()).expect("valid");
        assert_eq!(loaded.pending_degradation, waiting.pending_degradation);
    }

    #[test]
    fn sections_out_of_place_are_typed_errors() {
        let tracker = Tracker::new().section();
        let mut retained = Tracker::new().section();
        // Flip the retained-model flag: the tracker now expects a model.
        let last = retained.len() - 1;
        retained[last] = 1;
        retained.extend_from_slice(&[0; 8]);
        for (sections, complaint) in [
            (
                vec![(FRONT_END, &b"x"[..]), (TRACKER, &tracker)],
                "unexpected TRAK",
            ),
            (
                vec![(TRACKER, &tracker), (TRACKER, &tracker)],
                "unexpected TRAK",
            ),
            (
                vec![(TRACKER, &tracker), (*b"GRPH", &b""[..])],
                "unexpected GRPH",
            ),
            (vec![(MODEL, &b""[..])], "no tracker section"),
            (vec![], "no tracker section"),
            (vec![(TRACKER, &retained)], "disagree"),
            (
                vec![(TRACKER, &tracker[..tracker.len() - 1])],
                "needs 1 bytes",
            ),
        ] {
            let error = Tracker::from_bytes(&container::encode(&sections))
                .expect_err("a misplaced section must be refused");
            assert!(
                error.to_string().contains(complaint),
                "{complaint}: {error}"
            );
        }
        let trailing = [tracker.as_slice(), &[0]].concat();
        let error = Tracker::from_bytes(&container::encode(&[(TRACKER, &trailing)])).unwrap_err();
        assert!(error.to_string().contains("trailing"), "{error}");
    }

    #[test]
    #[cfg_attr(miri, ignore = "filesystem checkpoints are not available under Miri")]
    fn missing_directory_resumes_fresh_without_records() {
        let scratch = ScratchDir::new("missing");
        let resumed = Tracker::resume(scratch.path()).expect("fresh start");
        assert_eq!(resumed.days_processed(), 0);
        assert!(resumed.pending_degradation.is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore = "filesystem checkpoints are not available under Miri")]
    fn killed_write_leaves_only_a_dead_tmp() {
        let scratch = ScratchDir::new("killed");
        let mut isp = IspNetwork::new(IspConfig::tiny(55));
        isp.warm_up(16);
        let config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };
        let mut tracker = Tracker::new();
        run_days(&mut isp, &mut tracker, &config, 1);
        fs::create_dir_all(scratch.path()).expect("mkdir");
        let day = tracker.last_day().expect("processed").0;
        let path = scratch.path().join(format!("checkpoint-{day}.seg"));
        let outcome =
            write_atomic_with_kill(&path, &tracker.to_bytes(), 100).expect("kill injection");
        assert_eq!(outcome, WriteOutcome::KilledMidWrite);
        assert!(!path.exists());
        assert!(scratch
            .path()
            .join(format!("checkpoint-{day}.seg.tmp"))
            .exists());
        // The torn tmp is invisible to resume.
        let resumed = Tracker::resume(scratch.path()).expect("fresh");
        assert_eq!(resumed.days_processed(), 0);
        assert!(resumed.pending_degradation.is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore = "filesystem checkpoints are not available under Miri")]
    fn retention_prunes_to_newest_k() {
        let scratch = ScratchDir::new("retention");
        let mut isp = IspNetwork::new(IspConfig::tiny(55));
        isp.warm_up(16);
        let config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };
        let mut tracker = Tracker::new();
        let mut days = Vec::new();
        for _ in 0..5 {
            run_days(&mut isp, &mut tracker, &config, 1);
            tracker.save_checkpoint(scratch.path(), 2).expect("save");
            days.push(tracker.last_day().expect("processed").0);
        }
        let kept = list_generations(scratch.path()).expect("list");
        let kept_days: Vec<u32> = kept.iter().map(|(d, _)| d.0).collect();
        assert_eq!(kept_days, vec![days[4], days[3]], "newest two survive");
    }

    #[test]
    fn hostile_inputs_are_typed_errors() {
        let good = Tracker::new().to_bytes();
        for bad in [
            &b""[..],
            b"segugio-checkpoint v1",
            b"segugio-checkpoint v1 5 00000000\nab",
            b"not a checkpoint at all\n",
            &good[..good.len() - 1],
        ] {
            assert!(
                Tracker::from_bytes(bad).is_err(),
                "input {bad:?} must be a typed error"
            );
        }
        // A valid generation with one flipped payload bit fails the CRC.
        let mut bytes = good;
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = Tracker::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "got: {err}");
    }
}
