//! Historical domain-to-IP resolution store.

use segugio_model::{Day, DayWindow, DomainId, Ipv4};

/// A passive-DNS database: the history of authoritative domain→IP
/// resolutions observed over time.
///
/// The store is append-only and day-granular, mirroring how a pDNS archive
/// accumulates. It keeps each record once, in its domain's list, and each
/// list sorted by `(day, ip)`: window queries are range scans, and a
/// day-major view (what a front end's saved state writes) is one pass
/// over [`records`](Self::records).
///
/// Records are indexed by [`DomainId::index`], so domain ids must come from
/// a [`DomainTable`](segugio_model::DomainTable): dense, starting at zero.
/// Memory is proportional to the largest id recorded, not to the number of
/// domains with history: an id near `u32::MAX` would ask for ~100 GB.
///
/// # Example
///
/// ```
/// use segugio_model::{Day, DomainId, Ipv4};
/// use segugio_pdns::PassiveDns;
///
/// let mut pdns = PassiveDns::new();
/// let ip = Ipv4::from_octets(192, 0, 2, 1);
/// pdns.record(DomainId(4), ip, Day(10));
/// let ips = pdns.resolved_ips(DomainId(4), Day(12).lookback(5));
/// assert_eq!(ips, vec![ip]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PassiveDns {
    // Per-domain records, indexed by id; an id without history holds an
    // empty list. Walking it in index order is ascending-id order.
    by_domain: Vec<Vec<(Day, Ipv4)>>,
    records: usize,
    domains: usize,
}

impl PassiveDns {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `domain` resolved to `ip` on `day`.
    ///
    /// Duplicate `(domain, ip, day)` records are collapsed, whatever order
    /// they arrive in: per-domain entries are kept strictly `(day, ip)`-
    /// sorted, so a repeat is found by binary search.
    pub fn record(&mut self, domain: DomainId, ip: Ipv4, day: Day) {
        let i = domain.index();
        if i >= self.by_domain.len() {
            self.by_domain.resize_with(i + 1, Vec::new);
        }
        let entries = &mut self.by_domain[i];
        if entries.is_empty() {
            self.domains += 1;
        }
        // Fast path: appends arrive in day order from the generator.
        let pos = if entries.last().is_none_or(|&last| last < (day, ip)) {
            entries.len()
        } else {
            match entries.binary_search(&(day, ip)) {
                Ok(_) => return,
                Err(pos) => pos,
            }
        };
        entries.insert(pos, (day, ip));
        self.records += 1;
    }

    /// Makes room for `additional[i]` more records of domain `i`, so that
    /// a replay of known records grows each domain's list once.
    pub fn reserve_per_domain(&mut self, additional: &[u32]) {
        if additional.len() > self.by_domain.len() {
            self.by_domain.resize_with(additional.len(), Vec::new);
        }
        for (entries, &n) in self.by_domain.iter_mut().zip(additional) {
            entries.reserve(n as usize);
        }
    }

    /// The per-domain records inside `window`, as a day-sorted slice.
    ///
    /// Per-domain entries are kept `(day, ip)`-sorted, so the window
    /// boundaries are found by binary search and the result borrows the
    /// store — no per-call allocation.
    pub fn records_of(&self, domain: DomainId, window: DayWindow) -> &[(Day, Ipv4)] {
        let Some(entries) = self.by_domain.get(domain.index()) else {
            return &[];
        };
        let lo = entries.partition_point(|&(d, _)| d < window.start());
        let hi = entries.partition_point(|&(d, _)| d < window.end());
        &entries[lo..hi]
    }

    /// Each domain with records inside `window`, by ascending id, with its
    /// [`records_of`](Self::records_of) slice.
    pub(crate) fn domains_in(
        &self,
        window: DayWindow,
    ) -> impl Iterator<Item = (DomainId, &[(Day, Ipv4)])> + '_ {
        (0..self.by_domain.len() as u32)
            .map(move |i| (DomainId(i), self.records_of(DomainId(i), window)))
            .filter(|(_, records)| !records.is_empty())
    }

    /// All distinct IPs `domain` resolved to within `window`.
    pub fn resolved_ips(&self, domain: DomainId, window: DayWindow) -> Vec<Ipv4> {
        let mut ips: Vec<Ipv4> = self
            .records_of(domain, window)
            .iter()
            .map(|&(_, ip)| ip)
            .collect();
        ips.sort_unstable();
        ips.dedup();
        ips
    }

    /// The earliest day `domain` resolved within `window`, if any.
    ///
    /// Per-domain records are kept day-sorted, so this is a binary search of
    /// that domain's entries only — reputation systems use it to implement
    /// "history too young" reject rules cheaply.
    pub fn first_seen_in(&self, domain: DomainId, window: DayWindow) -> Option<Day> {
        self.records_of(domain, window).first().map(|&(d, _)| d)
    }

    /// Whether the store has any record for `domain`, in any window.
    ///
    /// Used by reputation baselines with a *reject option*: a domain with no
    /// pDNS history cannot be scored.
    pub fn has_history(&self, domain: DomainId) -> bool {
        self.by_domain
            .get(domain.index())
            .is_some_and(|entries| !entries.is_empty())
    }

    /// Iterates over `(domain, day, ip)` records restricted to `window`,
    /// by ascending domain id, then day.
    pub fn records_in(
        &self,
        window: DayWindow,
    ) -> impl Iterator<Item = (DomainId, Day, Ipv4)> + '_ {
        self.domains_in(window)
            .flat_map(|(dom, records)| records.iter().map(move |&(d, ip)| (dom, d, ip)))
    }

    /// Iterates over every `(domain, day, ip)` record, by ascending domain
    /// id, then day, then IP — whatever its day, `u32::MAX` included,
    /// which no [`DayWindow`] reaches.
    pub fn records(&self) -> impl Iterator<Item = (DomainId, Day, Ipv4)> + '_ {
        (0u32..)
            .zip(&self.by_domain)
            .flat_map(|(i, entries)| entries.iter().map(move |&(d, ip)| (DomainId(i), d, ip)))
    }

    /// Total number of stored records.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Number of distinct domains with history.
    pub fn domain_count(&self) -> usize {
        self.domains
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(n: u8) -> Ipv4 {
        Ipv4::from_octets(10, 0, 0, n)
    }

    #[test]
    fn record_and_query_window() {
        let mut p = PassiveDns::new();
        p.record(DomainId(1), ip(1), Day(1));
        p.record(DomainId(1), ip(2), Day(5));
        p.record(DomainId(1), ip(3), Day(20));
        let ips = p.resolved_ips(DomainId(1), segugio_model::DayWindow::new(Day(0), Day(10)));
        assert_eq!(ips, vec![ip(1), ip(2)]);
    }

    #[test]
    fn duplicates_collapse() {
        let mut p = PassiveDns::new();
        p.record(DomainId(1), ip(1), Day(3));
        p.record(DomainId(1), ip(1), Day(3));
        assert_eq!(p.len(), 1);
        // Out-of-order duplicate also collapses.
        p.record(DomainId(1), ip(9), Day(8));
        p.record(DomainId(1), ip(1), Day(3));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn alternating_answers_are_stored_once() {
        // Two IPs seen by many clients arrive a,b,a,b,…; comparing with
        // the last entry alone re-pushed both forever.
        let mut p = PassiveDns::new();
        for _ in 0..50 {
            p.record(DomainId(1), ip(1), Day(3));
            p.record(DomainId(1), ip(2), Day(3));
        }
        assert_eq!(p.len(), 2);
        assert_eq!(p.records_of(DomainId(1), Day(3).lookback(1)).len(), 2);
    }

    #[test]
    fn out_of_order_inserts_are_sorted() {
        let mut p = PassiveDns::new();
        p.record(DomainId(1), ip(5), Day(9));
        p.record(DomainId(1), ip(1), Day(2));
        let ips = p.resolved_ips(DomainId(1), Day(9).lookback(14));
        assert_eq!(ips, vec![ip(1), ip(5)]);
    }

    #[test]
    fn history_flag() {
        let mut p = PassiveDns::new();
        assert!(!p.has_history(DomainId(1)));
        p.record(DomainId(1), ip(1), Day(0));
        assert!(p.has_history(DomainId(1)));
    }

    #[test]
    fn first_seen_respects_window() {
        let mut p = PassiveDns::new();
        p.record(DomainId(1), ip(1), Day(8));
        p.record(DomainId(1), ip(2), Day(3));
        p.record(DomainId(1), ip(3), Day(12));
        let w = segugio_model::DayWindow::new(Day(5), Day(20));
        assert_eq!(p.first_seen_in(DomainId(1), w), Some(Day(8)));
        let all = segugio_model::DayWindow::new(Day(0), Day(20));
        assert_eq!(p.first_seen_in(DomainId(1), all), Some(Day(3)));
        assert_eq!(p.first_seen_in(DomainId(9), all), None);
        let none = segugio_model::DayWindow::new(Day(15), Day(20));
        assert_eq!(p.first_seen_in(DomainId(1), none), None);
    }

    #[test]
    fn sliced_records_match_windows() {
        let mut p = PassiveDns::new();
        p.record(DomainId(1), ip(1), Day(1));
        p.record(DomainId(1), ip(2), Day(4));
        p.record(DomainId(1), ip(3), Day(4));
        p.record(DomainId(1), ip(4), Day(9));
        let w = segugio_model::DayWindow::new(Day(2), Day(9));
        assert_eq!(
            p.records_of(DomainId(1), w),
            &[(Day(4), ip(2)), (Day(4), ip(3))]
        );
        assert!(p.records_of(DomainId(7), w).is_empty());
        // Empty window yields nothing.
        let empty = segugio_model::DayWindow::new(Day(4), Day(4));
        assert!(p.records_of(DomainId(1), empty).is_empty());
    }

    #[test]
    fn records_in_window() {
        let mut p = PassiveDns::new();
        p.record(DomainId(1), ip(1), Day(1));
        p.record(DomainId(2), ip(2), Day(4));
        p.record(DomainId(3), ip(3), Day(9));
        let window = segugio_model::DayWindow::new(Day(0), Day(5));
        let mut got: Vec<_> = p.records_in(window).collect();
        got.sort();
        assert_eq!(
            got,
            vec![(DomainId(1), Day(1), ip(1)), (DomainId(2), Day(4), ip(2))]
        );
    }

    #[test]
    fn every_record_is_walked_whatever_its_day() {
        let mut p = PassiveDns::new();
        p.record(DomainId(2), ip(1), Day(u32::MAX));
        p.record(DomainId(0), ip(4), Day(9));
        p.record(DomainId(2), ip(2), Day(0));
        p.record(DomainId(0), ip(3), Day(9));
        assert_eq!(
            p.records().collect::<Vec<_>>(),
            vec![
                (DomainId(0), Day(9), ip(3)),
                (DomainId(0), Day(9), ip(4)),
                (DomainId(2), Day(0), ip(2)),
                (DomainId(2), Day(u32::MAX), ip(1)),
            ]
        );
    }
}
