//! Property-based tests for the passive-DNS substrate, checked against
//! naive reference implementations.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use segugio_model::{Day, DayWindow, DomainId, E2ldId, Ipv4, Label, Prefix24};
use segugio_pdns::{AbuseIndex, ActivityStore, PassiveDns};

/// Domain ids for the dense-store models: a few small, some straddling a
/// 64-bit word, and a few far apart, so the id-indexed columns grow past
/// long runs of ids that never get a record.
const SPARSE_IDS: [u32; 8] = [0, 1, 5, 63, 64, 700, 4_099, 20_000];

/// The ids each model test probes: every id either regime records, plus
/// ids that never get a record (inside and past the columns).
const PROBE_IDS: [u32; 12] = [0, 1, 2, 3, 4, 5, 63, 64, 700, 4_099, 20_000, 25_000];

fn sparse_id() -> impl Strategy<Value = u32> {
    (0..SPARSE_IDS.len()).prop_map(|k| SPARSE_IDS[k])
}

/// `(domain, ip octet, day)` records and a window `(start, len)`, in one
/// of two regimes per case. Dense: four ids over 30 days, so most
/// triples repeat. Sparse: the ids in `SPARSE_IDS` over 140 days.
fn pdns_case() -> impl Strategy<Value = (Vec<(u32, u8, u32)>, u32, u32)> {
    use proptest::collection::vec;
    let dense = (vec((0u32..4, 0u8..6, 0u32..30), 0..150), 0u32..30, 0u32..30);
    let sparse = (
        vec((sparse_id(), 0u8..4, 0u32..140), 0..120),
        0u32..140,
        0u32..140,
    );
    (any::<bool>(), dense, sparse).prop_map(|(is_dense, d, s)| if is_dense { d } else { s })
}

/// `(domain, day)` events, a probe day and a streak cap `n`, in one of
/// two regimes per case. Dense: five ids over 40 days, so most days are
/// active and streaks often reach the cap. Sparse: the ids in
/// `SPARSE_IDS` over 140 days.
fn activity_case() -> impl Strategy<Value = (Vec<(u32, u32)>, u32, u32)> {
    use proptest::collection::vec;
    let dense = (vec((0u32..5, 0u32..40), 0..200), 0u32..45, 1u32..20);
    let sparse = (vec((sparse_id(), 0u32..140), 0..120), 0u32..145, 1u32..80);
    (any::<bool>(), dense, sparse).prop_map(|(is_dense, d, s)| if is_dense { d } else { s })
}

proptest! {
    /// The id-indexed PassiveDns against a plain `BTreeMap` model, fed
    /// out of order, with duplicates and with dense or sparse ids: the
    /// per-domain and per-day views, the order `records_in` walks, and
    /// the counters.
    #[test]
    fn pdns_matches_btreemap_model((records, start, len) in pdns_case()) {
        let mut pdns = PassiveDns::new();
        let mut model: BTreeMap<u32, BTreeSet<(Day, Ipv4)>> = BTreeMap::new();
        // Each day's records in the order they first arrived.
        let mut by_day: BTreeMap<Day, Vec<(DomainId, Ipv4)>> = BTreeMap::new();
        for &(dom, ip, day) in &records {
            let (ip, day) = (Ipv4::from_octets(10, 0, 0, ip), Day(day));
            pdns.record(DomainId(dom), ip, day);
            if model.entry(dom).or_default().insert((day, ip)) {
                by_day.entry(day).or_default().push((DomainId(dom), ip));
            }
        }
        prop_assert_eq!(pdns.len(), model.values().map(BTreeSet::len).sum::<usize>());
        prop_assert_eq!(pdns.domain_count(), model.len());
        prop_assert_eq!(pdns.days().collect::<Vec<_>>(), by_day.keys().copied().collect::<Vec<_>>());
        for (&day, want) in &by_day {
            prop_assert_eq!(pdns.records_on(day), want.as_slice());
        }
        let window = DayWindow::new(Day(start), Day(start + len));
        for id in PROBE_IDS {
            let want: Vec<(Day, Ipv4)> = model
                .get(&id)
                .into_iter()
                .flatten()
                .copied()
                .filter(|&(d, _)| window.contains(d))
                .collect();
            prop_assert_eq!(pdns.records_of(DomainId(id), window), want.as_slice());
            prop_assert_eq!(pdns.has_history(DomainId(id)), model.contains_key(&id));
            let mut ips: Vec<Ipv4> = want.iter().map(|&(_, ip)| ip).collect();
            ips.sort_unstable();
            ips.dedup();
            prop_assert_eq!(pdns.resolved_ips(DomainId(id), window), ips);
        }
        // Ascending id, then day: one domain's window slice after another.
        let walk: Vec<(DomainId, Day, Ipv4)> = model
            .iter()
            .flat_map(|(&id, entries)| entries.iter().map(move |&(d, ip)| (DomainId(id), d, ip)))
            .filter(|&(_, d, _)| window.contains(d))
            .collect();
        prop_assert_eq!(pdns.records_in(window).collect::<Vec<_>>(), walk);
    }

    /// The id-indexed ActivityStore against a plain `BTreeMap` model, fed
    /// out of order, with duplicates and with dense or sparse ids: per-FQD
    /// days, window counts and streaks, and e2LD counts over the union of
    /// the two FQDs that share each e2LD.
    #[test]
    fn activity_matches_btreemap_model((events, probe_day, n) in activity_case()) {
        let mut store = ActivityStore::new();
        let mut model: BTreeMap<u32, BTreeSet<Day>> = BTreeMap::new();
        for &(dom, day) in &events {
            store.record(DomainId(dom), E2ldId(dom / 2), Day(day));
            model.entry(dom).or_default().insert(Day(day));
        }
        prop_assert_eq!(store.tracked_fqds(), model.len());
        let window = Day(probe_day).lookback(n);
        let streak = |days: &BTreeSet<Day>| {
            let mut streak = 0;
            let mut d = probe_day;
            while streak < n && days.contains(&Day(d)) {
                streak += 1;
                if d == 0 { break; }
                d -= 1;
            }
            streak
        };
        for id in PROBE_IDS {
            let days = model.get(&id).cloned().unwrap_or_default();
            let fqd = DomainId(id);
            prop_assert_eq!(store.fqd_days(fqd).collect::<Vec<_>>(), days.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(store.fqd_first_seen(fqd), days.first().copied());
            let in_window = days.iter().filter(|&&d| window.contains(d)).count() as u32;
            prop_assert_eq!(store.fqd_active_days(fqd, window), in_window);
            prop_assert_eq!(store.fqd_streak_ending(fqd, Day(probe_day), n), streak(&days));
            let e2ld_days: BTreeSet<Day> = model
                .range(id / 2 * 2..=id / 2 * 2 + 1)
                .flat_map(|(_, days)| days.iter().copied())
                .collect();
            let e2ld = E2ldId(id / 2);
            let in_window = e2ld_days.iter().filter(|&&d| window.contains(d)).count() as u32;
            prop_assert_eq!(store.e2ld_active_days(e2ld, window), in_window);
            prop_assert_eq!(store.e2ld_streak_ending(e2ld, Day(probe_day), n), streak(&e2ld_days));
        }
    }

    /// The whole AbuseIndex against a `BTreeMap`/`BTreeSet` model, over the
    /// dense and sparse regimes of `pdns_case`, out of order and with
    /// duplicates: malware IPs and /24s, and the distinct unknown domains
    /// per IP and unknown (domain, IP) pairs per /24. Benign history
    /// contributes nothing. Every IP and /24 the case can name is probed,
    /// and the malware counts rule out extra entries.
    #[test]
    fn abuse_index_matches_naive((records, start, len) in pdns_case(), salt in 0u32..3) {
        // Three /24s, several IPs in each.
        let ip_of = |octet: u8| Ipv4::from_octets(10, octet % 3, 0, octet);
        let label = |d: DomainId| match (d.0 + salt) % 3 {
            0 => Label::Malware,
            1 => Label::Benign,
            _ => Label::Unknown,
        };
        let mut pdns = PassiveDns::new();
        for &(dom, octet, day) in &records {
            pdns.record(DomainId(dom), ip_of(octet), Day(day));
        }
        let window = DayWindow::new(Day(start), Day(start + len));
        let idx = AbuseIndex::build(&pdns, window, label);

        let mut malware_ips: BTreeSet<Ipv4> = BTreeSet::new();
        let mut malware_prefixes: BTreeSet<Prefix24> = BTreeSet::new();
        let mut unknown_ip: BTreeMap<Ipv4, BTreeSet<u32>> = BTreeMap::new();
        let mut unknown_prefix: BTreeMap<Prefix24, BTreeSet<(u32, Ipv4)>> = BTreeMap::new();
        for &(dom, octet, day) in &records {
            let ip = ip_of(octet);
            if !window.contains(Day(day)) {
                continue;
            }
            match label(DomainId(dom)) {
                Label::Malware => {
                    malware_ips.insert(ip);
                    malware_prefixes.insert(ip.prefix24());
                }
                Label::Unknown => {
                    unknown_ip.entry(ip).or_default().insert(dom);
                    unknown_prefix.entry(ip.prefix24()).or_default().insert((dom, ip));
                }
                Label::Benign => {}
            }
        }
        prop_assert_eq!(idx.malware_ip_count(), malware_ips.len());
        prop_assert_eq!(idx.malware_prefix_count(), malware_prefixes.len());
        // Octets 0..6 are every IP either regime records; 7 is never used.
        for ip in (0..6u8).chain([7]).map(ip_of).chain([Ipv4::from_octets(10, 9, 0, 1)]) {
            let prefix = ip.prefix24();
            prop_assert_eq!(idx.is_malware_ip(ip), malware_ips.contains(&ip));
            prop_assert_eq!(idx.is_malware_prefix(prefix), malware_prefixes.contains(&prefix));
            prop_assert_eq!(
                idx.unknown_domains_on_ip(ip) as usize,
                unknown_ip.get(&ip).map_or(0, BTreeSet::len)
            );
            prop_assert_eq!(
                idx.unknown_domains_on_prefix(prefix) as usize,
                unknown_prefix.get(&prefix).map_or(0, BTreeSet::len)
            );
        }
    }
}
