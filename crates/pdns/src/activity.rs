//! Per-day domain activity tracking (feature group F2 substrate).

use segugio_model::{Day, DayWindow, DomainId, E2ldId};

/// A growable bitset over day indices.
#[derive(Debug, Clone, Default)]
struct DayBitmap {
    words: Vec<u64>,
}

/// The `(word, mask)` position of `day` in a [`DayBitmap`].
fn bit(day: Day) -> (usize, u64) {
    (day.index() / 64, 1 << (day.index() % 64))
}

/// The bitmap at `i`, growing `bitmaps` to reach it.
fn slot(bitmaps: &mut Vec<DayBitmap>, i: usize) -> &mut DayBitmap {
    if i >= bitmaps.len() {
        bitmaps.resize_with(i + 1, DayBitmap::default);
    }
    &mut bitmaps[i]
}

impl DayBitmap {
    /// Sets a pre-computed `(word, mask)` position — the bulk-append path
    /// hoists the day → bit translation out of its per-record loop.
    fn set_word(&mut self, w: usize, mask: u64) {
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= mask;
    }

    fn get(&self, day: Day) -> bool {
        let (w, mask) = bit(day);
        self.words.get(w).is_some_and(|word| word & mask != 0)
    }

    fn count_in(&self, window: DayWindow) -> u32 {
        window.iter().filter(|&d| self.get(d)).count() as u32
    }

    /// Length of the run of consecutive active days ending at `day`,
    /// looking back at most `n` days (so the result is in `0..=n`).
    fn streak_ending(&self, day: Day, n: u32) -> u32 {
        let mut streak = 0;
        let mut d = day;
        while streak < n && self.get(d) {
            streak += 1;
            if d == Day(0) {
                break;
            }
            d = d.prev();
        }
        streak
    }
}

/// Records which days each FQD and e2LD was actively queried.
///
/// Bitmaps are indexed by [`DomainId::index`] and [`E2ldId::index`], so ids
/// must come from a [`DomainTable`](segugio_model::DomainTable): dense,
/// starting at zero. Memory is proportional to the largest id recorded, not
/// to the number of domains with activity.
///
/// # Example
///
/// ```
/// use segugio_model::{Day, DomainId, E2ldId};
/// use segugio_pdns::ActivityStore;
///
/// let mut store = ActivityStore::new();
/// store.record(DomainId(1), E2ldId(0), Day(3));
/// store.record(DomainId(1), E2ldId(0), Day(4));
/// assert_eq!(store.fqd_active_days(DomainId(1), Day(4).lookback(14)), 2);
/// assert_eq!(store.fqd_streak_ending(DomainId(1), Day(4), 14), 2);
/// assert_eq!(store.fqd_streak_ending(DomainId(1), Day(5), 14), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ActivityStore {
    // Indexed by id; an id never recorded holds an empty bitmap.
    fqd: Vec<DayBitmap>,
    e2ld: Vec<DayBitmap>,
    tracked_fqds: usize,
}

impl ActivityStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `fqd` (whose e2LD is `e2ld`) was queried on `day`.
    pub fn record(&mut self, fqd: DomainId, e2ld: E2ldId, day: Day) {
        let (w, mask) = bit(day);
        // Set the day's bit in both bitmaps, growing either store to reach
        // its id.
        let fqd = slot(&mut self.fqd, fqd.index());
        if fqd.words.is_empty() {
            self.tracked_fqds += 1;
        }
        fqd.set_word(w, mask);
        slot(&mut self.e2ld, e2ld.index()).set_word(w, mask);
    }

    /// Whether `fqd` was seen active on `day`.
    pub fn fqd_active_on(&self, fqd: DomainId, day: Day) -> bool {
        self.fqd.get(fqd.index()).is_some_and(|b| b.get(day))
    }

    /// Number of days in `window` on which `fqd` was active.
    pub fn fqd_active_days(&self, fqd: DomainId, window: DayWindow) -> u32 {
        self.fqd.get(fqd.index()).map_or(0, |b| b.count_in(window))
    }

    /// Length of the consecutive-active-day run for `fqd` ending at `day`,
    /// capped at `n`.
    pub fn fqd_streak_ending(&self, fqd: DomainId, day: Day, n: u32) -> u32 {
        self.fqd
            .get(fqd.index())
            .map_or(0, |b| b.streak_ending(day, n))
    }

    /// Number of days in `window` on which the e2LD was active.
    pub fn e2ld_active_days(&self, e2ld: E2ldId, window: DayWindow) -> u32 {
        self.e2ld
            .get(e2ld.index())
            .map_or(0, |b| b.count_in(window))
    }

    /// Length of the consecutive-active-day run for the e2LD ending at
    /// `day`, capped at `n`.
    pub fn e2ld_streak_ending(&self, e2ld: E2ldId, day: Day, n: u32) -> u32 {
        self.e2ld
            .get(e2ld.index())
            .map_or(0, |b| b.streak_ending(day, n))
    }

    /// Estimates the first day `fqd` was ever seen, if any.
    pub fn fqd_first_seen(&self, fqd: DomainId) -> Option<Day> {
        let bitmap = self.fqd.get(fqd.index())?;
        for (w, &word) in bitmap.words.iter().enumerate() {
            if word != 0 {
                return Some(Day((w * 64 + word.trailing_zeros() as usize) as u32));
            }
        }
        None
    }

    /// Number of FQDs with any recorded activity.
    pub fn tracked_fqds(&self) -> usize {
        self.tracked_fqds
    }

    /// Every day `fqd` was seen active on, ascending — what a front end
    /// persists to rebuild the store by [`record`](Self::record) (an
    /// e2LD's days are the union of its FQDs').
    pub fn fqd_days(&self, fqd: DomainId) -> impl Iterator<Item = Day> + '_ {
        let words = self.fqd.get(fqd.index()).map_or(&[][..], |b| &b.words);
        words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64usize)
                .filter(move |b| word & (1 << b) != 0)
                .map(move |b| Day((w * 64 + b) as u32))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_basics() {
        let mut b = DayBitmap::default();
        for day in [Day(0), Day(63), Day(64)] {
            let (w, mask) = bit(day);
            b.set_word(w, mask);
        }
        assert!(b.get(Day(0)));
        assert!(b.get(Day(63)));
        assert!(b.get(Day(64)));
        assert!(!b.get(Day(1)));
        assert!(!b.get(Day(1000)));
    }

    #[test]
    fn active_days_in_window() {
        let mut s = ActivityStore::new();
        for d in [1, 2, 5, 9] {
            s.record(DomainId(0), E2ldId(0), Day(d));
        }
        assert_eq!(s.fqd_active_days(DomainId(0), Day(9).lookback(14)), 4);
        assert_eq!(s.fqd_active_days(DomainId(0), Day(9).lookback(5)), 2);
        assert_eq!(s.fqd_active_days(DomainId(1), Day(9).lookback(14)), 0);
    }

    #[test]
    fn streaks() {
        let mut s = ActivityStore::new();
        for d in [3, 4, 5, 7, 8] {
            s.record(DomainId(0), E2ldId(0), Day(d));
        }
        assert_eq!(s.fqd_streak_ending(DomainId(0), Day(5), 14), 3);
        assert_eq!(s.fqd_streak_ending(DomainId(0), Day(8), 14), 2);
        assert_eq!(s.fqd_streak_ending(DomainId(0), Day(6), 14), 0);
        // Cap at n.
        assert_eq!(s.fqd_streak_ending(DomainId(0), Day(5), 2), 2);
    }

    #[test]
    fn streak_saturates_at_epoch() {
        let mut s = ActivityStore::new();
        s.record(DomainId(0), E2ldId(0), Day(0));
        s.record(DomainId(0), E2ldId(0), Day(1));
        assert_eq!(s.fqd_streak_ending(DomainId(0), Day(1), 14), 2);
    }

    #[test]
    fn e2ld_aggregates_across_fqds() {
        let mut s = ActivityStore::new();
        s.record(DomainId(0), E2ldId(7), Day(1));
        s.record(DomainId(1), E2ldId(7), Day(2));
        assert_eq!(s.e2ld_active_days(E2ldId(7), Day(2).lookback(14)), 2);
        assert_eq!(s.e2ld_streak_ending(E2ldId(7), Day(2), 14), 2);
    }

    #[test]
    fn fqd_days_lists_every_active_day_in_order() {
        let mut s = ActivityStore::new();
        for d in [70, 0, 63, 64, 70] {
            s.record(DomainId(0), E2ldId(0), Day(d));
        }
        let days: Vec<Day> = s.fqd_days(DomainId(0)).collect();
        assert_eq!(days, vec![Day(0), Day(63), Day(64), Day(70)]);
        assert_eq!(s.fqd_days(DomainId(9)).count(), 0);
    }

    #[test]
    fn first_seen() {
        let mut s = ActivityStore::new();
        s.record(DomainId(0), E2ldId(0), Day(70));
        s.record(DomainId(0), E2ldId(0), Day(65));
        assert_eq!(s.fqd_first_seen(DomainId(0)), Some(Day(65)));
        assert_eq!(s.fqd_first_seen(DomainId(9)), None);
    }
}
