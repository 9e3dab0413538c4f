//! Scenario driving: simulate an ISP across days, capturing the days the
//! experiments need.

use std::collections::{BTreeMap, HashSet};

use segugio_core::{DaySnapshot, SegugioConfig, SnapshotInput};
use segugio_model::{Blacklist, Day, DomainId};
use segugio_traffic::{DayTraffic, IspConfig, IspNetwork};

/// A simulated network with a set of fully-captured days.
///
/// Days not in the capture set are advanced in light mode (history
/// accumulates, no query log), which is how train/test gaps of 13–18 days
/// stay cheap.
///
/// # Example
///
/// ```
/// use segugio_eval::Scenario;
/// use segugio_traffic::IspConfig;
///
/// let s = Scenario::run(IspConfig::tiny(1), 12, &[12, 14]);
/// assert!(s.capture(12).query_count() > 0);
/// assert!(s.capture(14).query_count() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    isp: IspNetwork,
    captures: BTreeMap<u32, DayTraffic>,
}

impl Scenario {
    /// Simulates from day 0: light warm-up until `warmup`, then advances to
    /// each day in `capture_days` (ascending), fully simulating exactly
    /// those.
    ///
    /// # Panics
    ///
    /// Panics if `capture_days` is not strictly ascending or starts before
    /// `warmup`.
    pub fn run(config: IspConfig, warmup: u32, capture_days: &[u32]) -> Self {
        let mut isp = IspNetwork::new(config);
        isp.warm_up(warmup);
        let mut captures = BTreeMap::new();
        for &day in capture_days {
            let now = isp.today().0;
            assert!(day >= now, "capture days must be ascending from warmup");
            isp.warm_up(day - now);
            let traffic = isp.next_day();
            debug_assert_eq!(traffic.day, Day(day));
            captures.insert(day, traffic);
        }
        Scenario { isp, captures }
    }

    /// The underlying network.
    pub fn isp(&self) -> &IspNetwork {
        &self.isp
    }

    /// The captured traffic of `day`.
    ///
    /// # Panics
    ///
    /// Panics if `day` was not captured.
    pub fn capture(&self, day: u32) -> &DayTraffic {
        self.captures
            .get(&day)
            .unwrap_or_else(|| panic!("day {day} was not captured"))
    }

    /// Days captured, ascending.
    pub fn captured_days(&self) -> Vec<u32> {
        self.captures.keys().copied().collect()
    }

    /// Builds the labeled, pruned snapshot of a captured day, using
    /// `blacklist` for malware seeds (pass the network's commercial or
    /// public list) and hiding `hidden` domains' ground truth.
    pub fn snapshot(
        &self,
        day: u32,
        config: &SegugioConfig,
        blacklist: &Blacklist,
        hidden: Option<&HashSet<DomainId>>,
    ) -> DaySnapshot {
        self.snapshot_with(day, config, blacklist, self.isp.whitelist(), hidden)
    }

    /// Like [`Scenario::snapshot`] but with an explicit whitelist (the
    /// Notos comparison labels with a top-100K-style restricted whitelist).
    pub fn snapshot_with(
        &self,
        day: u32,
        config: &SegugioConfig,
        blacklist: &Blacklist,
        whitelist: &segugio_model::Whitelist,
        hidden: Option<&HashSet<DomainId>>,
    ) -> DaySnapshot {
        let traffic = self.capture(day);
        let input = SnapshotInput {
            day: traffic.day,
            queries: &traffic.queries,
            resolutions: &traffic.resolutions,
            table: self.isp.table(),
            pdns: self.isp.pdns(),
            blacklist,
            whitelist,
            hidden,
        };
        DaySnapshot::build(&input, config)
    }

    /// Convenience: snapshot labeled with the commercial blacklist and no
    /// hidden set.
    pub fn snapshot_commercial(&self, day: u32, config: &SegugioConfig) -> DaySnapshot {
        self.snapshot(day, config, self.isp.commercial_blacklist(), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_requested_days_only() {
        let s = Scenario::run(IspConfig::tiny(2), 10, &[10, 13]);
        assert_eq!(s.captured_days(), vec![10, 13]);
        assert_eq!(s.capture(10).day, Day(10));
        assert_eq!(s.capture(13).day, Day(13));
        assert_eq!(s.isp().today(), Day(14));
    }

    #[test]
    #[should_panic(expected = "was not captured")]
    fn uncaptured_day_panics() {
        let s = Scenario::run(IspConfig::tiny(2), 5, &[5]);
        s.capture(4);
    }

    #[test]
    fn snapshot_builds_from_capture() {
        let s = Scenario::run(IspConfig::tiny(3), 12, &[12]);
        let snap = s.snapshot_commercial(12, &SegugioConfig::default());
        assert!(snap.graph.domain_count() > 50);
        assert!(snap.unpruned_counts.1 > snap.graph.domain_count());
        let (mal, ben, unk) = snap.graph.domain_label_counts();
        assert!(mal > 0, "some known malware domains in the graph");
        assert!(ben > 0);
        assert!(unk > 0);
    }
}
