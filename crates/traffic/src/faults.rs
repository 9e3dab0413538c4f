//! Deterministic fault injection for degraded-mode testing.
//!
//! A live ISP feed is never as clean as the simulator's output: log files
//! arrive with corrupt or truncated lines, whole days of traffic go missing
//! when a tap drops, the passive-DNS feed lags or blanks out, and blacklist
//! updates stall. [`FaultInjector`] reproduces exactly those failure modes
//! against generated traffic so the pipeline's quarantine/fallback paths
//! ([`segugio_ingest`'s quarantined ingest and `segugio_core`'s
//! `HealthPolicy`]) can be driven end to end.
//!
//! Every decision is a pure function of `(config.seed, day)` — independent
//! per-day RNG streams derived with SplitMix64 — so a chaos run is
//! bit-for-bit replayable from its seed alone, regardless of how many days
//! are processed or in what order the injector's methods are called. The
//! module deliberately uses no entropy or clock source (the root
//! `clippy.toml` `disallowed-methods` list).
//!
//! # Example
//!
//! ```
//! use segugio_model::Day;
//! use segugio_traffic::{FaultConfig, FaultInjector};
//!
//! let injector = FaultInjector::new(FaultConfig::chaos(7));
//! let a = injector.faults_for(Day(3));
//! let b = injector.faults_for(Day(3));
//! assert_eq!(a, b, "same seed + day => same faults");
//!
//! let clean = FaultInjector::new(FaultConfig::disabled(7));
//! assert!(!clean.faults_for(Day(3)).any());
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use segugio_model::{Blacklist, Day};

/// Per-day RNG stream tags, so line-level and day-level decisions never
/// perturb each other.
const STREAM_DAY: u64 = 0x01;
const STREAM_LINES: u64 = 0x02;
const STREAM_CHECKPOINT: u64 = 0x03;

/// Probabilities and magnitudes for every fault class the injector can
/// apply. All probabilities are per day (day-level faults) or per line
/// (line-level faults); zero disables the class.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Master seed; identical configs replay identical fault schedules.
    pub seed: u64,
    /// Probability that a day's traffic never arrives (tap outage).
    pub drop_day: f64,
    /// Probability that the passive-DNS feed is blank on a day (the
    /// pipeline sees an empty pDNS database).
    pub blank_pdns: f64,
    /// Probability that the blacklist feed is stale on a day: entries
    /// added within the last [`blacklist_delay_days`](Self::blacklist_delay_days)
    /// days have not yet been delivered.
    pub stale_blacklist: f64,
    /// How many days of blacklist additions are withheld when the stale
    /// fault fires.
    pub blacklist_delay_days: u32,
    /// Probability that two adjacent days are delivered in swapped order.
    pub swap_adjacent_days: f64,
    /// Per-line probability that a rendered log line is corrupted in place
    /// (field garbled, delimiter broken, or invalid bytes injected).
    pub corrupt_line: f64,
    /// Per-line probability that a rendered log line is truncated.
    pub truncate_line: f64,
    /// Per-line probability that a rendered log line is emitted twice.
    pub duplicate_line: f64,
    /// Probability that the day's checkpoint save is killed mid-write
    /// (the process dies after a seeded byte count of the temp file).
    pub kill_mid_checkpoint: f64,
    /// Probability that the newest on-disk checkpoint generation is
    /// damaged after the day's save — torn tail, bit flip, truncation,
    /// or outright deletion, drawn uniformly.
    pub corrupt_checkpoint: f64,
}

impl FaultConfig {
    /// A configuration in which every fault class is off: the injector is
    /// an exact pass-through. Used by parity tests.
    pub fn disabled(seed: u64) -> Self {
        FaultConfig {
            seed,
            drop_day: 0.0,
            blank_pdns: 0.0,
            stale_blacklist: 0.0,
            blacklist_delay_days: 0,
            swap_adjacent_days: 0.0,
            corrupt_line: 0.0,
            truncate_line: 0.0,
            duplicate_line: 0.0,
            kill_mid_checkpoint: 0.0,
            corrupt_checkpoint: 0.0,
        }
    }

    /// A representative chaos mix: occasional day-level outages plus a low
    /// but steady rate of line damage — roughly what a season of real feed
    /// operations looks like, compressed.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            drop_day: 0.10,
            blank_pdns: 0.10,
            stale_blacklist: 0.15,
            blacklist_delay_days: 3,
            swap_adjacent_days: 0.05,
            corrupt_line: 0.01,
            truncate_line: 0.005,
            duplicate_line: 0.01,
            kill_mid_checkpoint: 0.10,
            corrupt_checkpoint: 0.10,
        }
    }
}

/// The day-level faults the injector chose for one day.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DayFaults {
    /// The day's traffic never arrives; the deployment must skip it.
    pub drop_day: bool,
    /// The passive-DNS feed is blank; F3 inputs are missing.
    pub blank_pdns: bool,
    /// The blacklist feed is stale; recent additions are withheld.
    pub stale_blacklist: bool,
}

impl DayFaults {
    /// Whether any day-level fault fires.
    pub fn any(&self) -> bool {
        self.drop_day || self.blank_pdns || self.stale_blacklist
    }
}

/// One kind of damage to an on-disk checkpoint generation. Offsets are
/// raw seeded `u64`s reduced modulo the file length at
/// [`apply`](Self::apply) time, so one drawn fault is valid for any file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointFault {
    /// The file's tail is torn off at a seeded offset and replaced with
    /// garbage bytes — the classic half-flushed-page crash signature.
    TornTail {
        /// Seeded byte offset; reduced modulo the file length.
        keep: u64,
    },
    /// A single bit flips at a seeded position — silent media corruption.
    BitFlip {
        /// Seeded byte offset; reduced modulo the file length.
        byte: u64,
        /// Bit index within the byte (0–7).
        bit: u8,
    },
    /// The file is cut short at a seeded offset with nothing appended.
    Truncate {
        /// Seeded byte offset; reduced modulo the file length.
        keep: u64,
    },
    /// The newest generation file disappears entirely.
    DeleteNewest,
}

impl CheckpointFault {
    /// The damaged rendition of a checkpoint file's bytes, or `None` when
    /// the fault deletes the file. Pure and deterministic: same fault +
    /// same bytes → same damage. Never panics, including on empty input.
    pub fn apply(&self, bytes: &[u8]) -> Option<Vec<u8>> {
        let len = bytes.len() as u64;
        match *self {
            CheckpointFault::TornTail { keep } => {
                let keep = if len == 0 { 0 } else { (keep % len) as usize };
                let mut v = bytes[..keep].to_vec();
                v.extend_from_slice(b"\xC3\x28@@torn-checkpoint");
                Some(v)
            }
            CheckpointFault::BitFlip { byte, bit } => {
                let mut v = bytes.to_vec();
                if len > 0 {
                    v[(byte % len) as usize] ^= 1 << (bit & 7);
                }
                Some(v)
            }
            CheckpointFault::Truncate { keep } => {
                let keep = if len == 0 { 0 } else { (keep % len) as usize };
                Some(bytes[..keep].to_vec())
            }
            CheckpointFault::DeleteNewest => None,
        }
    }
}

/// The checkpoint-layer faults the injector chose for one day.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointFaults {
    /// If set, the day's checkpoint save dies after this many bytes of
    /// the temp file (callers reduce modulo the document length — the
    /// write never commits either way).
    pub kill_mid_write: Option<u64>,
    /// If set, the newest generation is damaged after the day's save.
    pub corruption: Option<CheckpointFault>,
}

impl CheckpointFaults {
    /// Whether any checkpoint-layer fault fires.
    pub fn any(&self) -> bool {
        self.kill_mid_write.is_some() || self.corruption.is_some()
    }
}

/// Deterministic chaos source for multi-day deployments.
///
/// Day-level decisions come from [`faults_for`](Self::faults_for); log text
/// is damaged with [`corrupt_log`](Self::corrupt_log); stale blacklist
/// views come from [`delayed_blacklist`](Self::delayed_blacklist); and
/// [`delivery_order`](Self::delivery_order) reorders a day sequence the way
/// an out-of-order feed would.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    cfg: FaultConfig,
}

impl FaultInjector {
    /// Creates an injector over a fault configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// An RNG stream unique to `(seed, day, stream)`. SplitMix64 over the
    /// three inputs decorrelates adjacent days and streams.
    fn rng_for(&self, day: Day, stream: u64) -> StdRng {
        let mut state = self
            .cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(day.0))
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(stream);
        // One extra SplitMix64-style scramble so small day deltas do not
        // produce correlated xoshiro seeds.
        state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        StdRng::seed_from_u64(state ^ (state >> 31))
    }

    /// The day-level faults for `day` — a pure function of the seed and the
    /// day, stable across calls and call orders.
    pub fn faults_for(&self, day: Day) -> DayFaults {
        let mut rng = self.rng_for(day, STREAM_DAY);
        // Draw every class unconditionally so one probability change does
        // not shift the draws of the others.
        let drop_day = rng.gen_bool(self.cfg.drop_day);
        let blank_pdns = rng.gen_bool(self.cfg.blank_pdns);
        let stale_blacklist = rng.gen_bool(self.cfg.stale_blacklist);
        DayFaults {
            drop_day,
            blank_pdns,
            stale_blacklist,
        }
    }

    /// The checkpoint-layer faults for `day` — a pure function of the
    /// seed and the day, on its own RNG stream so the PR-4 line/day fault
    /// draws are untouched by the new classes.
    pub fn checkpoint_faults_for(&self, day: Day) -> CheckpointFaults {
        let mut rng = self.rng_for(day, STREAM_CHECKPOINT);
        // Draw every class (and every magnitude) unconditionally so one
        // probability change does not shift the draws of the others.
        let kill = rng.gen_bool(self.cfg.kill_mid_checkpoint);
        let kill_offset: u64 = rng.gen();
        let corrupt = rng.gen_bool(self.cfg.corrupt_checkpoint);
        let kind = rng.gen_range(0u32..4);
        let offset: u64 = rng.gen();
        let bit = rng.gen_range(0u8..8);
        CheckpointFaults {
            kill_mid_write: kill.then_some(kill_offset),
            corruption: corrupt.then_some(match kind {
                0 => CheckpointFault::TornTail { keep: offset },
                1 => CheckpointFault::BitFlip { byte: offset, bit },
                2 => CheckpointFault::Truncate { keep: offset },
                _ => CheckpointFault::DeleteNewest,
            }),
        }
    }

    /// The blacklist as the deployment sees it on `day`: if the stale
    /// fault fires, entries added in the last
    /// [`blacklist_delay_days`](FaultConfig::blacklist_delay_days) days are
    /// pushed past `day` (the update simply has not arrived yet); otherwise
    /// a clean copy.
    pub fn delayed_blacklist(&self, blacklist: &Blacklist, day: Day) -> Blacklist {
        let faults = self.faults_for(day);
        let mut out = Blacklist::new();
        let horizon = day.0.saturating_sub(self.cfg.blacklist_delay_days);
        for (domain, added) in blacklist.iter() {
            let seen = if faults.stale_blacklist && added.0 > horizon {
                // Withheld: the entry becomes visible only after the feed
                // catches up.
                Day(added.0.saturating_add(self.cfg.blacklist_delay_days))
            } else {
                added
            };
            out.insert(domain, seen);
        }
        out
    }

    /// Applies line-level damage to a rendered TSV log for `day`, returning
    /// raw bytes (corruption may inject invalid UTF-8, as real feeds do).
    ///
    /// Damage kinds: duplicated lines, truncated lines, garbled fields,
    /// tab-delimiter loss, oversized junk lines and non-UTF-8 bytes — each
    /// drawn per line from the day's own RNG stream.
    pub fn corrupt_log(&self, day: Day, log: &str) -> Vec<u8> {
        let mut rng = self.rng_for(day, STREAM_LINES);
        let mut out = Vec::with_capacity(log.len() + log.len() / 16);
        for line in log.lines() {
            if rng.gen_bool(self.cfg.duplicate_line) {
                out.extend_from_slice(line.as_bytes());
                out.push(b'\n');
            }
            if rng.gen_bool(self.cfg.truncate_line) && !line.is_empty() {
                let cut = rng.gen_range(0..line.len());
                out.extend_from_slice(&line.as_bytes()[..cut]);
                out.push(b'\n');
                continue;
            }
            if rng.gen_bool(self.cfg.corrupt_line) {
                out.extend_from_slice(&Self::garble(line, &mut rng));
                out.push(b'\n');
                continue;
            }
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
        out
    }

    /// One corrupted rendition of a line.
    fn garble(line: &str, rng: &mut StdRng) -> Vec<u8> {
        let bytes = line.as_bytes();
        match rng.gen_range(0u32..5) {
            // Overwrite a byte with invalid UTF-8.
            0 if !bytes.is_empty() => {
                let mut v = bytes.to_vec();
                let at = rng.gen_range(0..v.len());
                v[at] = 0xFF;
                v
            }
            // Replace tabs with spaces: fields merge, the parser sees too
            // few columns.
            1 => line.replace('\t', " ").into_bytes(),
            // Garble the leading (day) field.
            2 => {
                let mut v = b"not-a-day".to_vec();
                if let Some(rest) = line.find('\t') {
                    v.extend_from_slice(&bytes[rest..]);
                }
                v
            }
            // An oversized junk line (stress for line buffers).
            3 => {
                let len = rng.gen_range(512..2048usize);
                let mut v = Vec::with_capacity(len);
                for _ in 0..len {
                    v.push(b'a' + (rng.gen_range(0u32..26) as u8));
                }
                v
            }
            // Drop a suffix *and* append garbage — a torn write.
            _ => {
                let keep = if bytes.is_empty() {
                    0
                } else {
                    rng.gen_range(0..bytes.len())
                };
                let mut v = bytes[..keep].to_vec();
                v.extend_from_slice(b"\xC3\x28@@torn");
                v
            }
        }
    }

    /// The order in which a sequence of days is delivered: adjacent pairs
    /// are swapped with
    /// [`swap_adjacent_days`](FaultConfig::swap_adjacent_days) probability
    /// (drawn from the pair's first day), modeling an out-of-order feed.
    pub fn delivery_order(&self, days: &[Day]) -> Vec<Day> {
        let mut out = days.to_vec();
        let mut i = 0;
        while i + 1 < out.len() {
            let mut rng = self.rng_for(out[i], STREAM_DAY.wrapping_add(0x10));
            if rng.gen_bool(self.cfg.swap_adjacent_days) {
                out.swap(i, i + 1);
                i += 2; // a swapped pair is final; no overlapping swaps
            } else {
                i += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_are_deterministic_and_replayable() {
        let a = FaultInjector::new(FaultConfig::chaos(11));
        let b = FaultInjector::new(FaultConfig::chaos(11));
        for d in 0..200 {
            assert_eq!(a.faults_for(Day(d)), b.faults_for(Day(d)));
        }
        // Call order must not matter.
        let forward: Vec<DayFaults> = (0..50).map(|d| a.faults_for(Day(d))).collect();
        let backward: Vec<DayFaults> = (0..50).rev().map(|d| a.faults_for(Day(d))).collect();
        let backward: Vec<DayFaults> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultInjector::new(FaultConfig::chaos(1));
        let b = FaultInjector::new(FaultConfig::chaos(2));
        let fa: Vec<DayFaults> = (0..100).map(|d| a.faults_for(Day(d))).collect();
        let fb: Vec<DayFaults> = (0..100).map(|d| b.faults_for(Day(d))).collect();
        assert_ne!(fa, fb, "seeds 1 and 2 should disagree somewhere");
    }

    #[test]
    fn disabled_injector_is_a_pass_through() {
        let inj = FaultInjector::new(FaultConfig::disabled(9));
        for d in 0..100 {
            assert!(!inj.faults_for(Day(d)).any());
        }
        let log = "0\thost-a\twww.example.com\t93.184.216.34\n";
        assert_eq!(inj.corrupt_log(Day(0), log), log.as_bytes());
        let days: Vec<Day> = (0..10).map(Day).collect();
        assert_eq!(inj.delivery_order(&days), days);
        let mut bl = Blacklist::new();
        bl.insert(segugio_model::DomainId(3), Day(5));
        let seen = inj.delayed_blacklist(&bl, Day(6));
        assert_eq!(seen.added_on(segugio_model::DomainId(3)), Some(Day(5)));
    }

    #[test]
    fn chaos_actually_fires_every_class() {
        let inj = FaultInjector::new(FaultConfig::chaos(3));
        let mut drop_day = 0;
        let mut blank = 0;
        let mut stale = 0;
        for d in 0..400 {
            let f = inj.faults_for(Day(d));
            drop_day += usize::from(f.drop_day);
            blank += usize::from(f.blank_pdns);
            stale += usize::from(f.stale_blacklist);
        }
        assert!(drop_day > 0, "drop_day never fired in 400 days");
        assert!(blank > 0, "blank_pdns never fired in 400 days");
        assert!(stale > 0, "stale_blacklist never fired in 400 days");
    }

    #[test]
    fn corrupt_log_damages_some_lines_deterministically() {
        let inj = FaultInjector::new(FaultConfig::chaos(5));
        let mut log = String::new();
        for i in 0..500 {
            log.push_str(&format!("0\thost-{i}\twww.example.com\t10.0.0.1\n"));
        }
        let a = inj.corrupt_log(Day(2), &log);
        let b = inj.corrupt_log(Day(2), &log);
        assert_eq!(a, b, "line damage must replay exactly");
        assert_ne!(a, log.as_bytes(), "chaos config must damage something");
        // Damage on one day is independent of damage on another.
        let c = inj.corrupt_log(Day(3), &log);
        assert_ne!(a, c, "per-day streams should differ");
    }

    #[test]
    fn delayed_blacklist_withholds_recent_entries() {
        let cfg = FaultConfig {
            stale_blacklist: 1.0,
            blacklist_delay_days: 3,
            ..FaultConfig::disabled(8)
        };
        let inj = FaultInjector::new(cfg);
        let mut bl = Blacklist::new();
        let old = segugio_model::DomainId(1);
        let fresh = segugio_model::DomainId(2);
        bl.insert(old, Day(2));
        bl.insert(fresh, Day(10));
        let seen = inj.delayed_blacklist(&bl, Day(11));
        // The old entry is through; the fresh one is pushed past today.
        assert!(seen.contains_as_of(old, Day(11)));
        assert!(!seen.contains_as_of(fresh, Day(11)));
        assert!(seen.contains_as_of(fresh, Day(13)));
    }

    #[test]
    fn checkpoint_faults_are_deterministic_and_decorrelated() {
        let a = FaultInjector::new(FaultConfig::chaos(11));
        let b = FaultInjector::new(FaultConfig::chaos(11));
        for d in 0..200 {
            assert_eq!(
                a.checkpoint_faults_for(Day(d)),
                b.checkpoint_faults_for(Day(d))
            );
        }
        // The new stream must not perturb the PR-4 day/line draws: an
        // injector that never asks for checkpoint faults sees identical
        // day faults.
        let fa: Vec<DayFaults> = (0..100).map(|d| a.faults_for(Day(d))).collect();
        for d in 0..100 {
            let _ = a.checkpoint_faults_for(Day(d));
        }
        let fb: Vec<DayFaults> = (0..100).map(|d| a.faults_for(Day(d))).collect();
        assert_eq!(fa, fb, "checkpoint draws must not move day-fault draws");
    }

    #[test]
    fn disabled_config_never_fires_checkpoint_faults() {
        let inj = FaultInjector::new(FaultConfig::disabled(9));
        for d in 0..200 {
            assert!(!inj.checkpoint_faults_for(Day(d)).any());
        }
    }

    #[test]
    fn chaos_fires_every_checkpoint_fault_kind() {
        let inj = FaultInjector::new(FaultConfig::chaos(3));
        let mut kills = 0usize;
        let mut kinds = [0usize; 4];
        for d in 0..2000 {
            let f = inj.checkpoint_faults_for(Day(d));
            kills += usize::from(f.kill_mid_write.is_some());
            match f.corruption {
                Some(CheckpointFault::TornTail { .. }) => kinds[0] += 1,
                Some(CheckpointFault::BitFlip { .. }) => kinds[1] += 1,
                Some(CheckpointFault::Truncate { .. }) => kinds[2] += 1,
                Some(CheckpointFault::DeleteNewest) => kinds[3] += 1,
                None => {}
            }
        }
        assert!(kills > 0, "mid-write kill never fired in 2000 days");
        for (i, count) in kinds.iter().enumerate() {
            assert!(*count > 0, "corruption kind {i} never fired in 2000 days");
        }
    }

    #[test]
    fn checkpoint_fault_appliers_are_total_and_deterministic() {
        let faults = [
            CheckpointFault::TornTail { keep: 7 },
            CheckpointFault::BitFlip {
                byte: 12345,
                bit: 3,
            },
            CheckpointFault::Truncate { keep: u64::MAX },
            CheckpointFault::DeleteNewest,
        ];
        let doc = b"segugio-checkpoint v1 4 00000000\nbody";
        for fault in faults {
            // Never panics, even on empty input.
            let _ = fault.apply(b"");
            let a = fault.apply(doc);
            let b = fault.apply(doc);
            assert_eq!(a, b, "{fault:?} must replay exactly");
            if fault == CheckpointFault::DeleteNewest {
                assert!(a.is_none());
            } else {
                assert_ne!(
                    a.as_deref(),
                    Some(&doc[..]),
                    "{fault:?} must damage the doc"
                );
            }
        }
        // Bit flip flips exactly one bit.
        let flipped = CheckpointFault::BitFlip { byte: 0, bit: 0 }
            .apply(doc)
            .expect("bytes back");
        let diff: u32 = doc
            .iter()
            .zip(&flipped)
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn delivery_order_swaps_only_adjacent_pairs() {
        let cfg = FaultConfig {
            swap_adjacent_days: 1.0,
            ..FaultConfig::disabled(4)
        };
        let inj = FaultInjector::new(cfg);
        let days: Vec<Day> = (0..6).map(Day).collect();
        let order = inj.delivery_order(&days);
        // With p = 1 every non-overlapping pair swaps: 1,0,3,2,5,4.
        assert_eq!(order, vec![Day(1), Day(0), Day(3), Day(2), Day(5), Day(4)]);
        // The multiset of days is preserved.
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, days);
    }
}
