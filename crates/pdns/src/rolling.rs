//! Rolling window maintenance of the IP-abuse index.
//!
//! [`AbuseIndex::build`] scans every pDNS record inside the `W`-day window,
//! which at ISP scale means re-reading five months of archive every morning.
//! [`RollingAbuseIndex`] maintains the identical index incrementally:
//! advancing the window from `[d − W, d)` to `[d − W + 1, d + 1)` ingests
//! the records of the entering day and evicts the records of the leaving
//! day, with per-IP / per-prefix counters that are removed when they
//! decrement to zero — so the resulting [`AbuseIndex`] compares equal to a
//! from-scratch build of the same window under the same labeling.
//!
//! Because domain labels evolve between days (blacklists grow), every
//! advance first re-consults `label_of` for all domains still inside the
//! window and moves their contributions between the malware/unknown
//! structures when the label changed.

use std::collections::{BTreeMap, BTreeSet};

use segugio_model::{DayWindow, DomainId, Ipv4, Label, Prefix24};

use crate::abuse::AbuseIndex;
use crate::store::PassiveDns;

/// The IP space an [`advance`](RollingAbuseIndex::advance) touched:
/// conservative supersets of the IPs and /24 prefixes whose abuse answers
/// may differ from the previous window.
///
/// Any IP-level change also marks the enclosing prefix, so a consumer that
/// caches per-domain answers can invalidate on
/// `ips.contains(ip) || prefixes.contains(ip.prefix24())`.
///
/// Retired: the feature cache that consumed it is gone and nothing under
/// `crates/` reads it — remove the tracking with `pdns.rolling_touched` in
/// the next `[benchmark]` PR.
#[doc(hidden)]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbuseDelta {
    /// IPs whose `is_malware_ip` / `unknown_domains_on_ip` answers may have
    /// changed.
    pub ips: BTreeSet<Ipv4>,
    /// Prefixes whose `is_malware_prefix` / `unknown_domains_on_prefix`
    /// answers may have changed.
    pub prefixes: BTreeSet<Prefix24>,
}

impl AbuseDelta {
    /// Whether the advance left every abuse answer unchanged.
    pub fn is_empty(&self) -> bool {
        self.ips.is_empty() && self.prefixes.is_empty()
    }

    fn touch(&mut self, ip: Ipv4) {
        self.ips.insert(ip);
        self.prefixes.insert(ip.prefix24());
    }
}

/// Per-domain window state: the label last applied and, per resolved IP,
/// how many in-window days carry a `(domain, ip)` record.
#[derive(Debug, Clone)]
struct DomainState {
    label: Label,
    ips: BTreeMap<Ipv4, u32>,
}

/// An [`AbuseIndex`] kept current across consecutive day windows by delta
/// ingestion/eviction instead of full rebuilds.
///
/// # Example
///
/// ```
/// use segugio_model::{Day, DayWindow, DomainId, Ipv4, Label};
/// use segugio_pdns::{AbuseIndex, PassiveDns, RollingAbuseIndex};
///
/// let mut pdns = PassiveDns::new();
/// pdns.record(DomainId(0), Ipv4::from_octets(203, 0, 113, 9), Day(3));
/// let label = |d: DomainId| if d == DomainId(0) { Label::Malware } else { Label::Unknown };
///
/// let mut rolling = RollingAbuseIndex::new();
/// rolling.advance(&pdns, DayWindow::new(Day(0), Day(10)), label);
/// assert_eq!(
///     rolling.index(),
///     &AbuseIndex::build(&pdns, DayWindow::new(Day(0), Day(10)), label)
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct RollingAbuseIndex {
    index: AbuseIndex,
    window: Option<DayWindow>,
    domains: BTreeMap<DomainId, DomainState>,
    // Distinct in-window (malware-domain, ip) contributions per IP/prefix;
    // the index's malware sets hold exactly the keys with nonzero count.
    malware_ip_refs: BTreeMap<Ipv4, u32>,
    malware_prefix_refs: BTreeMap<Prefix24, u32>,
    /// Relabel worklist scratch, reused across advances so the daily
    /// relabel pass allocates nothing once warmed up.
    relabel_scratch: Vec<(DomainId, Label, Label)>,
}

impl RollingAbuseIndex {
    /// Creates an empty rolling index covering no window.
    pub fn new() -> Self {
        Self::default()
    }

    /// The maintained index, equal to `AbuseIndex::build` over the window
    /// of the most recent [`advance`](Self::advance).
    pub fn index(&self) -> &AbuseIndex {
        &self.index
    }

    /// The window the index currently covers, if any advance has run.
    pub fn window(&self) -> Option<DayWindow> {
        self.window
    }

    /// Moves the index to `new_window`, relabeling tracked domains with
    /// `label_of`, evicting the days that left the window and ingesting the
    /// days that entered it. Returns the touched IP space.
    ///
    /// The first call (and any non-monotone move, where either window bound
    /// steps backwards) bootstraps by ingesting the whole window; monotone
    /// daily advances do O(changed records) work instead of O(window).
    pub fn advance<F>(
        &mut self,
        pdns: &PassiveDns,
        new_window: DayWindow,
        label_of: F,
    ) -> AbuseDelta
    where
        F: Fn(DomainId) -> Label,
    {
        let mut delta = AbuseDelta::default();
        match self.window {
            Some(old) if new_window.start() >= old.start() && new_window.end() >= old.end() => {
                // 1. Relabel: a domain still in the window may have entered
                //    the blacklist since yesterday; move its contributions.
                //    The worklist lives in a reusable scratch vector, and
                //    each relabeled domain's IP map is taken out of its
                //    state (and put back) rather than copied, so the pass
                //    itself allocates nothing.
                let mut relabels = std::mem::take(&mut self.relabel_scratch);
                relabels.clear();
                relabels.extend(self.domains.iter().filter_map(|(&dom, state)| {
                    let new_label = label_of(dom);
                    (new_label != state.label).then_some((dom, state.label, new_label))
                }));
                for &(dom, old_label, new_label) in &relabels {
                    let Some(state) = self.domains.get_mut(&dom) else {
                        continue;
                    };
                    state.label = new_label;
                    let ips = std::mem::take(&mut state.ips);
                    for &ip in ips.keys() {
                        // add_pair/remove_pair only touch the index and the
                        // refcount maps, never `domains`, so the taken map
                        // can be restored to the same entry afterwards.
                        self.remove_pair(old_label, ip, &mut delta);
                        self.add_pair(new_label, ip, &mut delta);
                    }
                    if let Some(state) = self.domains.get_mut(&dom) {
                        state.ips = ips;
                    }
                }
                self.relabel_scratch = relabels;
                // 2. Evict the days that left: [old.start, min(old.end, new.start)).
                let leaving = DayWindow::new(old.start(), old.end().min(new_window.start()));
                for day in leaving.iter() {
                    for &(dom, ip) in pdns.records_on(day) {
                        self.remove_record(dom, ip, &mut delta);
                    }
                }
                // 3. Ingest the days that entered: [max(old.end, new.start), new.end).
                let entering = DayWindow::new(old.end().max(new_window.start()), new_window.end());
                for day in entering.iter() {
                    for &(dom, ip) in pdns.records_on(day) {
                        self.add_record(dom, ip, &label_of, &mut delta);
                    }
                }
            }
            #[expect(
                clippy::iter_over_hash_type,
                reason = "the loops below only insert into AbuseDelta's unordered touched sets"
            )]
            _ => {
                // Bootstrap (or a window moving backwards): rebuild. Every
                // previously-covered IP is touched — conservatively mark the
                // old state plus everything ingested.
                for &ip in self.index.unknown_ip_domains.keys() {
                    delta.touch(ip);
                }
                for &ip in &self.index.malware_ips {
                    delta.touch(ip);
                }
                for &prefix in &self.index.malware_prefixes {
                    delta.prefixes.insert(prefix);
                }
                for &prefix in self.index.unknown_prefix_domains.keys() {
                    delta.prefixes.insert(prefix);
                }
                self.index = AbuseIndex::default();
                self.domains.clear();
                self.malware_ip_refs.clear();
                self.malware_prefix_refs.clear();
                for day in new_window.iter() {
                    for &(dom, ip) in pdns.records_on(day) {
                        self.add_record(dom, ip, &label_of, &mut delta);
                    }
                }
            }
        }
        self.window = Some(new_window);
        delta
    }

    /// Adds one `(domain, ip)` day record. The first in-window record of a
    /// pair contributes to the index under the domain's current label.
    fn add_record<F>(&mut self, dom: DomainId, ip: Ipv4, label_of: &F, delta: &mut AbuseDelta)
    where
        F: Fn(DomainId) -> Label,
    {
        let (label, first) = {
            let state = self.domains.entry(dom).or_insert_with(|| DomainState {
                label: label_of(dom),
                ips: BTreeMap::new(),
            });
            let count = state.ips.entry(ip).or_insert(0);
            *count += 1;
            (state.label, *count == 1)
        };
        if first {
            self.add_pair(label, ip, delta);
        }
    }

    /// Removes one `(domain, ip)` day record; the pair's contribution is
    /// withdrawn when its last in-window record leaves.
    fn remove_record(&mut self, dom: DomainId, ip: Ipv4, delta: &mut AbuseDelta) {
        let mut evicted_pair = None;
        if let Some(state) = self.domains.get_mut(&dom) {
            if let Some(count) = state.ips.get_mut(&ip) {
                *count = count.saturating_sub(1);
                if *count == 0 {
                    state.ips.remove(&ip);
                    evicted_pair = Some(state.label);
                }
            }
            if state.ips.is_empty() {
                self.domains.remove(&dom);
            }
        }
        if let Some(label) = evicted_pair {
            self.remove_pair(label, ip, delta);
        }
    }

    /// Registers a distinct `(domain, ip)` pair's contribution under `label`.
    fn add_pair(&mut self, label: Label, ip: Ipv4, delta: &mut AbuseDelta) {
        match label {
            Label::Malware => {
                let refs = self.malware_ip_refs.entry(ip).or_insert(0);
                *refs += 1;
                if *refs == 1 {
                    self.index.malware_ips.insert(ip);
                }
                let prefix = ip.prefix24();
                let refs = self.malware_prefix_refs.entry(prefix).or_insert(0);
                *refs += 1;
                if *refs == 1 {
                    self.index.malware_prefixes.insert(prefix);
                }
                delta.touch(ip);
            }
            Label::Unknown => {
                *self.index.unknown_ip_domains.entry(ip).or_insert(0) += 1;
                *self
                    .index
                    .unknown_prefix_domains
                    .entry(ip.prefix24())
                    .or_insert(0) += 1;
                delta.touch(ip);
            }
            // Benign history contributes nothing to the index.
            Label::Benign => {}
        }
    }

    /// Withdraws a distinct `(domain, ip)` pair's contribution under
    /// `label`, removing counters that reach zero.
    fn remove_pair(&mut self, label: Label, ip: Ipv4, delta: &mut AbuseDelta) {
        match label {
            Label::Malware => {
                if let Some(refs) = self.malware_ip_refs.get_mut(&ip) {
                    *refs = refs.saturating_sub(1);
                    if *refs == 0 {
                        self.malware_ip_refs.remove(&ip);
                        self.index.malware_ips.remove(&ip);
                    }
                }
                let prefix = ip.prefix24();
                if let Some(refs) = self.malware_prefix_refs.get_mut(&prefix) {
                    *refs = refs.saturating_sub(1);
                    if *refs == 0 {
                        self.malware_prefix_refs.remove(&prefix);
                        self.index.malware_prefixes.remove(&prefix);
                    }
                }
                delta.touch(ip);
            }
            Label::Unknown => {
                if let Some(count) = self.index.unknown_ip_domains.get_mut(&ip) {
                    *count = count.saturating_sub(1);
                    if *count == 0 {
                        self.index.unknown_ip_domains.remove(&ip);
                    }
                }
                let prefix = ip.prefix24();
                if let Some(count) = self.index.unknown_prefix_domains.get_mut(&prefix) {
                    *count = count.saturating_sub(1);
                    if *count == 0 {
                        self.index.unknown_prefix_domains.remove(&prefix);
                    }
                }
                delta.touch(ip);
            }
            Label::Benign => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segugio_model::Day;

    fn ip(a: u8, d: u8) -> Ipv4 {
        Ipv4::from_octets(10, a, 0, d)
    }

    /// Labels evolving with the day horizon: domain 0 is always malware,
    /// domain 1 becomes malware once `horizon >= 6`, domain 3 is benign.
    fn label_at(horizon: u32) -> impl Fn(DomainId) -> Label {
        move |d: DomainId| match d.0 {
            0 => Label::Malware,
            1 if horizon >= 6 => Label::Malware,
            3 => Label::Benign,
            _ => Label::Unknown,
        }
    }

    fn sample_pdns() -> PassiveDns {
        let mut pdns = PassiveDns::new();
        pdns.record(DomainId(0), ip(1, 1), Day(0));
        pdns.record(DomainId(0), ip(1, 1), Day(2));
        pdns.record(DomainId(1), ip(2, 5), Day(1));
        pdns.record(DomainId(2), ip(2, 5), Day(3));
        pdns.record(DomainId(3), ip(3, 9), Day(2));
        pdns.record(DomainId(2), ip(1, 7), Day(5));
        pdns.record(DomainId(0), ip(4, 4), Day(6));
        pdns.record(DomainId(1), ip(2, 5), Day(7));
        pdns.record(DomainId(4), ip(2, 6), Day(8));
        pdns
    }

    #[test]
    fn rolling_matches_scratch_across_advances() {
        let pdns = sample_pdns();
        let mut rolling = RollingAbuseIndex::new();
        for horizon in 3..=12u32 {
            let window = Day(horizon).lookback_exclusive(5);
            rolling.advance(&pdns, window, label_at(horizon));
            let scratch = AbuseIndex::build(&pdns, window, label_at(horizon));
            assert_eq!(rolling.index(), &scratch, "window {window}");
            assert_eq!(rolling.window(), Some(window));
        }
    }

    #[test]
    fn relabel_moves_contributions() {
        let pdns = sample_pdns();
        let mut rolling = RollingAbuseIndex::new();
        let w5 = Day(5).lookback_exclusive(5);
        rolling.advance(&pdns, w5, label_at(5));
        // Domain 1's ip(2,5) counts as unknown before day 6.
        assert!(!rolling.index().is_malware_ip(ip(2, 5)));
        assert_eq!(rolling.index().unknown_domains_on_ip(ip(2, 5)), 2);
        let w6 = Day(6).lookback_exclusive(5);
        let delta = rolling.advance(&pdns, w6, label_at(6));
        // Now domain 1 is blacklisted: its contribution flips to malware.
        assert!(rolling.index().is_malware_ip(ip(2, 5)));
        assert_eq!(rolling.index().unknown_domains_on_ip(ip(2, 5)), 1);
        assert!(delta.ips.contains(&ip(2, 5)));
        assert_eq!(rolling.index(), &AbuseIndex::build(&pdns, w6, label_at(6)));
    }

    #[test]
    fn eviction_removes_zeroed_counters() {
        let pdns = sample_pdns();
        let mut rolling = RollingAbuseIndex::new();
        rolling.advance(&pdns, DayWindow::new(Day(0), Day(3)), label_at(3));
        assert!(rolling.index().is_malware_ip(ip(1, 1)));
        // Slide past all of domain 0's ip(1,1) records.
        let late = DayWindow::new(Day(3), Day(6));
        let delta = rolling.advance(&pdns, late, label_at(6));
        assert!(!rolling.index().is_malware_ip(ip(1, 1)));
        assert!(delta.ips.contains(&ip(1, 1)));
        assert_eq!(
            rolling.index(),
            &AbuseIndex::build(&pdns, late, label_at(6))
        );
    }

    #[test]
    fn quiet_advance_reports_empty_delta() {
        let mut pdns = PassiveDns::new();
        pdns.record(DomainId(0), ip(1, 1), Day(0));
        let mut rolling = RollingAbuseIndex::new();
        rolling.advance(&pdns, DayWindow::new(Day(1), Day(4)), label_at(4));
        // Nothing enters, nothing leaves, nothing relabels.
        let delta = rolling.advance(&pdns, DayWindow::new(Day(2), Day(5)), label_at(5));
        assert!(delta.is_empty());
    }

    #[test]
    fn backwards_window_rebuilds() {
        let pdns = sample_pdns();
        let mut rolling = RollingAbuseIndex::new();
        rolling.advance(&pdns, DayWindow::new(Day(4), Day(9)), label_at(9));
        let back = DayWindow::new(Day(0), Day(5));
        let delta = rolling.advance(&pdns, back, label_at(5));
        assert_eq!(
            rolling.index(),
            &AbuseIndex::build(&pdns, back, label_at(5))
        );
        assert!(!delta.is_empty(), "rebuild touches the covered IP space");
    }

    #[test]
    fn disjoint_jump_forward_matches_scratch() {
        let pdns = sample_pdns();
        let mut rolling = RollingAbuseIndex::new();
        rolling.advance(&pdns, DayWindow::new(Day(0), Day(3)), label_at(3));
        // Jump far ahead: the windows do not even overlap.
        let far = DayWindow::new(Day(6), Day(9));
        rolling.advance(&pdns, far, label_at(9));
        assert_eq!(rolling.index(), &AbuseIndex::build(&pdns, far, label_at(9)));
    }
}
