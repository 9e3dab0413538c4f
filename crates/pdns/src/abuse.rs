//! IP-abuse index over a passive-DNS window (feature group F3 substrate).

use std::collections::{HashMap, HashSet};

use segugio_model::{DayWindow, DomainId, Ipv4, Label, Prefix24};

use crate::store::PassiveDns;

/// A window-scoped index answering the feature-group-F3 questions:
///
/// - was this IP (or its /24) pointed to by a *known malware* domain during
///   the lookback window `W`?
/// - how many *unknown* domains used this IP (or its /24) during `W`?
///
/// Built once per evaluation day from the [`PassiveDns`] store and a
/// domain-labeling function (the labels known *as of* that day — the index
/// must never peek at future ground truth).
///
/// # Example
///
/// ```
/// use segugio_model::{Day, DayWindow, DomainId, Ipv4, Label};
/// use segugio_pdns::{AbuseIndex, PassiveDns};
///
/// let mut pdns = PassiveDns::new();
/// let bad_ip = Ipv4::from_octets(203, 0, 113, 9);
/// pdns.record(DomainId(0), bad_ip, Day(3));
/// let idx = AbuseIndex::build(&pdns, DayWindow::new(Day(0), Day(10)), |d| {
///     if d == DomainId(0) { Label::Malware } else { Label::Unknown }
/// });
/// assert!(idx.is_malware_ip(bad_ip));
/// assert!(idx.is_malware_prefix(bad_ip.prefix24()));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbuseIndex {
    // Visible to `rolling`, which maintains the same structures by
    // ingesting/evicting one day at a time instead of rebuilding.
    pub(crate) malware_ips: HashSet<Ipv4>,
    pub(crate) malware_prefixes: HashSet<Prefix24>,
    pub(crate) unknown_ip_domains: HashMap<Ipv4, u32>,
    pub(crate) unknown_prefix_domains: HashMap<Prefix24, u32>,
}

impl AbuseIndex {
    /// Builds the index from all pDNS records inside `window`, labeling each
    /// historical domain with `label_of`.
    ///
    /// Walks the store one domain at a time: `label_of` runs once per domain
    /// with window records, and an unknown domain's IPs are deduplicated
    /// within that domain, so each distinct `(domain, ip)` counts once: the
    /// index a per-record walk builds.
    pub fn build<F>(pdns: &PassiveDns, window: DayWindow, label_of: F) -> Self
    where
        F: Fn(DomainId) -> Label,
    {
        let mut idx = AbuseIndex::default();
        let mut ips: Vec<Ipv4> = Vec::new();
        for (domain, records) in pdns.domains_in(window) {
            match label_of(domain) {
                Label::Malware => {
                    for &(_, ip) in records {
                        idx.malware_ips.insert(ip);
                        idx.malware_prefixes.insert(ip.prefix24());
                    }
                }
                Label::Unknown => {
                    ips.clear();
                    ips.extend(records.iter().map(|&(_, ip)| ip));
                    ips.sort_unstable();
                    ips.dedup();
                    for &ip in &ips {
                        *idx.unknown_ip_domains.entry(ip).or_insert(0) += 1;
                        *idx.unknown_prefix_domains.entry(ip.prefix24()).or_insert(0) += 1;
                    }
                }
                Label::Benign => {}
            }
        }
        idx
    }

    /// Whether `ip` was pointed to by a known malware domain in the window.
    pub fn is_malware_ip(&self, ip: Ipv4) -> bool {
        self.malware_ips.contains(&ip)
    }

    /// Whether any IP in `prefix` was pointed to by a known malware domain.
    pub fn is_malware_prefix(&self, prefix: Prefix24) -> bool {
        self.malware_prefixes.contains(&prefix)
    }

    /// Number of distinct unknown domains that used `ip` in the window.
    pub fn unknown_domains_on_ip(&self, ip: Ipv4) -> u32 {
        self.unknown_ip_domains.get(&ip).copied().unwrap_or(0)
    }

    /// Number of distinct unknown-domain/IP pairs inside `prefix`.
    pub fn unknown_domains_on_prefix(&self, prefix: Prefix24) -> u32 {
        self.unknown_prefix_domains
            .get(&prefix)
            .copied()
            .unwrap_or(0)
    }

    /// Number of IPs with malware history in the window.
    pub fn malware_ip_count(&self) -> usize {
        self.malware_ips.len()
    }

    /// Number of /24s with malware history in the window.
    pub fn malware_prefix_count(&self) -> usize {
        self.malware_prefixes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segugio_model::Day;

    fn ip(a: u8, d: u8) -> Ipv4 {
        Ipv4::from_octets(10, a, 0, d)
    }

    fn build_sample() -> AbuseIndex {
        let mut pdns = PassiveDns::new();
        // Malware domain 0 on 10.1.0.1.
        pdns.record(DomainId(0), ip(1, 1), Day(2));
        // Unknown domains 1 and 2 share 10.2.0.5.
        pdns.record(DomainId(1), ip(2, 5), Day(3));
        pdns.record(DomainId(2), ip(2, 5), Day(4));
        // Benign domain 3 on 10.3.0.9 — must not contribute.
        pdns.record(DomainId(3), ip(3, 9), Day(4));
        // Outside the window: malware domain 0 on 10.4.0.4.
        pdns.record(DomainId(0), ip(4, 4), Day(30));
        AbuseIndex::build(&pdns, DayWindow::new(Day(0), Day(10)), |d| match d.0 {
            0 => Label::Malware,
            3 => Label::Benign,
            _ => Label::Unknown,
        })
    }

    #[test]
    fn malware_ip_and_prefix() {
        let idx = build_sample();
        assert!(idx.is_malware_ip(ip(1, 1)));
        assert!(idx.is_malware_prefix(ip(1, 1).prefix24()));
        assert!(idx.is_malware_prefix(ip(1, 200).prefix24())); // same /24
        assert!(!idx.is_malware_ip(ip(1, 200)));
        // Outside window must not register.
        assert!(!idx.is_malware_ip(ip(4, 4)));
        assert_eq!(idx.malware_ip_count(), 1);
        assert_eq!(idx.malware_prefix_count(), 1);
    }

    #[test]
    fn unknown_counts_are_per_distinct_domain() {
        let idx = build_sample();
        assert_eq!(idx.unknown_domains_on_ip(ip(2, 5)), 2);
        assert_eq!(idx.unknown_domains_on_prefix(ip(2, 5).prefix24()), 2);
        assert_eq!(idx.unknown_domains_on_ip(ip(9, 9)), 0);
    }

    #[test]
    fn benign_history_is_ignored() {
        let idx = build_sample();
        assert!(!idx.is_malware_ip(ip(3, 9)));
        assert_eq!(idx.unknown_domains_on_ip(ip(3, 9)), 0);
    }

    #[test]
    fn repeat_resolutions_count_once() {
        let mut pdns = PassiveDns::new();
        pdns.record(DomainId(1), ip(2, 5), Day(1));
        pdns.record(DomainId(1), ip(2, 5), Day(2));
        pdns.record(DomainId(1), ip(2, 5), Day(3));
        let idx = AbuseIndex::build(&pdns, DayWindow::new(Day(0), Day(10)), |_| Label::Unknown);
        assert_eq!(idx.unknown_domains_on_ip(ip(2, 5)), 1);
    }
}
