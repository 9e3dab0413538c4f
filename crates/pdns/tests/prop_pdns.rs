//! Property-based tests for the passive-DNS substrate, checked against
//! naive reference implementations.

use std::collections::HashSet;

use proptest::prelude::*;

use segugio_model::{Day, DayWindow, DomainId, E2ldId, Ipv4, Label};
use segugio_pdns::{AbuseIndex, ActivityStore, PassiveDns};

proptest! {
    /// ActivityStore window counts match a naive set-based model.
    #[test]
    fn activity_matches_naive(
        events in proptest::collection::vec((0u32..5, 0u32..40), 0..200),
        probe_day in 0u32..45,
        n in 1u32..20,
    ) {
        let mut store = ActivityStore::new();
        let mut naive: HashSet<(u32, u32)> = HashSet::new();
        for &(dom, day) in &events {
            store.record(DomainId(dom), E2ldId(dom), Day(day));
            naive.insert((dom, day));
        }
        for dom in 0..5u32 {
            let window = Day(probe_day).lookback(n);
            let expected = window
                .iter()
                .filter(|d| naive.contains(&(dom, d.0)))
                .count() as u32;
            prop_assert_eq!(store.fqd_active_days(DomainId(dom), window), expected);
            prop_assert_eq!(store.e2ld_active_days(E2ldId(dom), window), expected);

            // Naive streak.
            let mut streak = 0;
            let mut d = probe_day;
            while streak < n && naive.contains(&(dom, d)) {
                streak += 1;
                if d == 0 { break; }
                d -= 1;
            }
            prop_assert_eq!(store.fqd_streak_ending(DomainId(dom), Day(probe_day), n), streak);
        }
    }

    /// PassiveDns matches a naive set of `(domain, ip, day)` triples,
    /// regardless of the order records arrive in: every triple is stored
    /// exactly once, in both the per-domain and the per-day view.
    #[test]
    fn pdns_matches_naive(
        records in proptest::collection::vec((0u32..4, 0u8..6, 0u32..30), 0..150),
        start in 0u32..30,
        len in 0u32..30,
    ) {
        let mut pdns = PassiveDns::new();
        for &(dom, ip, day) in &records {
            pdns.record(DomainId(dom), Ipv4::from_octets(10, 0, 0, ip), Day(day));
        }
        let distinct: HashSet<(u32, u8, u32)> = records.iter().copied().collect();
        prop_assert_eq!(pdns.len(), distinct.len());
        prop_assert_eq!(pdns.records_in(DayWindow::new(Day(0), Day(30))).count(), distinct.len());
        for day in 0..30u32 {
            let on_day = pdns.records_on(Day(day));
            let unique: HashSet<(DomainId, Ipv4)> = on_day.iter().copied().collect();
            prop_assert_eq!(unique.len(), on_day.len(), "duplicate record on day {}", day);
            let expected = distinct.iter().filter(|&&(_, _, d)| d == day).count();
            prop_assert_eq!(on_day.len(), expected);
        }
        let window = DayWindow::new(Day(start), Day(start + len));
        for dom in 0..4u32 {
            let mut expected: Vec<Ipv4> = records
                .iter()
                .filter(|&&(d, _, day)| d == dom && window.contains(Day(day)))
                .map(|&(_, ip, _)| Ipv4::from_octets(10, 0, 0, ip))
                .collect();
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(pdns.resolved_ips(DomainId(dom), window), expected);
        }
    }

    /// AbuseIndex: an IP is a malware IP iff some malware-labeled domain
    /// resolved to it inside the window.
    #[test]
    fn abuse_index_matches_naive(
        records in proptest::collection::vec((0u32..6, 0u8..8, 0u32..20), 0..150),
        malware_mod in 2u32..5,
    ) {
        let mut pdns = PassiveDns::new();
        for &(dom, ip, day) in &records {
            pdns.record(DomainId(dom), Ipv4::from_octets(10, ip % 2, 0, ip), Day(day));
        }
        let window = DayWindow::new(Day(5), Day(15));
        let label = |d: DomainId| if d.0.is_multiple_of(malware_mod) { Label::Malware } else { Label::Unknown };
        let idx = AbuseIndex::build(&pdns, window, label);
        for ip_octet in 0..8u8 {
            let ip = Ipv4::from_octets(10, ip_octet % 2, 0, ip_octet);
            let expected_mal = records.iter().any(|&(d, i, day)| {
                i == ip_octet && window.contains(Day(day)) && label(DomainId(d)).is_malware()
            });
            prop_assert_eq!(idx.is_malware_ip(ip), expected_mal);
            let expected_unknown: HashSet<u32> = records
                .iter()
                .filter(|&&(d, i, day)| {
                    i == ip_octet && window.contains(Day(day)) && label(DomainId(d)).is_unknown()
                })
                .map(|&(d, _, _)| d)
                .collect();
            prop_assert_eq!(idx.unknown_domains_on_ip(ip), expected_unknown.len() as u32);
        }
    }
}
