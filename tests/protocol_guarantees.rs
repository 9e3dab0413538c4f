//! Guarantees of the evaluation protocol: no ground-truth leakage, and no
//! time travel. These are the properties that make the reported numbers
//! trustworthy.

use std::collections::HashSet;

use segugio_core::{measure_day, DaySnapshot, SegugioConfig, SnapshotInput};
use segugio_eval::protocol::select_test_split;
use segugio_eval::Scenario;
use segugio_model::{Blacklist, Day, DomainName, DomainTable, Ipv4, Label, MachineId, Whitelist};
use segugio_pdns::PassiveDns;
use segugio_traffic::IspConfig;

#[test]
fn hidden_test_domains_never_reach_the_training_set() {
    let scenario = Scenario::run(IspConfig::tiny(61), 16, &[16]);
    let bl = scenario.isp().commercial_blacklist().clone();
    let split = select_test_split(&scenario, 16, &bl, 0.6, 0.4, 3);
    let hidden = split.hidden();
    let config = SegugioConfig::default();
    let snap = scenario.snapshot(16, &config, &bl, Some(&hidden));

    // 1. Training rows exclude every hidden domain.
    let day = measure_day(
        &snap,
        scenario.isp().activity(),
        config.features,
        config.parallelism,
        |_| true,
    );
    let train_ids: HashSet<_> = day.train_ids.into_iter().collect();
    for d in &hidden {
        assert!(
            !train_ids.contains(d),
            "hidden domain {d} leaked into the training set"
        );
    }

    // 2. Hidden domains surviving pruning are labeled unknown.
    for &d in &hidden {
        if let Some(idx) = snap.graph.domain_idx(d) {
            assert_eq!(snap.graph.domain_label(idx), Label::Unknown);
        }
    }

    // 3. No machine is labeled malware *solely* because of a hidden domain:
    //    every malware-labeled machine queries a non-hidden blacklisted
    //    domain.
    for m in snap.graph.machine_indices() {
        if snap.graph.machine_label(m) == Label::Malware {
            let has_visible_evidence = snap.graph.domains_of(m).any(|d| {
                let id = snap.graph.domain_id(d);
                bl.contains_as_of(id, Day(16)) && !hidden.contains(&id)
            });
            assert!(
                has_visible_evidence,
                "machine labeled malware without visible blacklist evidence"
            );
        }
    }
}

#[test]
fn future_records_never_influence_an_earlier_snapshot() {
    // Build a minimal world by hand with pDNS records both before and
    // after the snapshot day; the abuse index must only see the past.
    let mut table = DomainTable::new();
    let mal = table.intern(&DomainName::parse("evil.example").unwrap());
    let unknown = table.intern(&DomainName::parse("maybe.example").unwrap());
    let probe = table.intern(&DomainName::parse("probe.example").unwrap());

    let bad_ip = Ipv4::from_octets(45, 0, 0, 1);
    let future_ip = Ipv4::from_octets(45, 0, 0, 2);
    let mut pdns = PassiveDns::new();
    // Past: the malware domain used bad_ip.
    pdns.record(mal, bad_ip, Day(3));
    // Future (after the snapshot day): it also used future_ip.
    pdns.record(mal, future_ip, Day(20));

    let mut blacklist = Blacklist::new();
    blacklist.insert(mal, Day(1));
    // A second blacklist entry added *after* the snapshot day.
    blacklist.insert(unknown, Day(25));
    let whitelist = Whitelist::new();

    // `probe` resolves to both IPs on the snapshot day.
    let queries = vec![
        (MachineId(0), probe),
        (MachineId(1), probe),
        (MachineId(0), mal),
        (MachineId(1), mal),
        (MachineId(0), unknown),
        (MachineId(1), unknown),
    ];
    let resolutions = vec![(probe, vec![bad_ip, future_ip])];
    let mut config = SegugioConfig::default();
    config.prune.min_machine_degree = 0;
    config.prune.popular_fraction = 2.0;
    let input = SnapshotInput {
        day: Day(10),
        queries: &queries,
        resolutions: &resolutions,
        table: &table,
        pdns: &pdns,
        blacklist: &blacklist,
        whitelist: &whitelist,
        hidden: None,
    };
    let snap = DaySnapshot::build(&input, &config);

    // The abuse index saw the past record only.
    assert!(snap.abuse.is_malware_ip(bad_ip));
    assert!(
        !snap.abuse.is_malware_ip(future_ip),
        "a record from day 20 leaked into the day-10 abuse index"
    );

    // A domain blacklisted on day 25 is unknown on day 10.
    let u = snap.graph.domain_idx(unknown).unwrap();
    assert_eq!(snap.graph.domain_label(u), Label::Unknown);
    let m = snap.graph.domain_idx(mal).unwrap();
    assert_eq!(snap.graph.domain_label(m), Label::Malware);
}
