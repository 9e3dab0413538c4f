//! Property test for pruning: a deliberately naive R1–R4 oracle,
//! transcribed from the paper's Section II-A2 over `BTreeMap` / `BTreeSet`,
//! against `BehaviorGraph::prune`.
//!
//! Graphs are random, with random blacklist / whitelist labels and several
//! domains per e2LD, so machines routinely query two domains of the same
//! e2LD — the case where R4 must count the machine once for the e2LD, not
//! once per domain. `PruneStats` and the surviving edge set must be equal.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use segugio_graph::labeling::apply_seed_labels;
use segugio_graph::{GraphBuilder, PruneConfig, PruneStats};
use segugio_model::{Day, DomainId, E2ldId, MachineId};

/// One random day: the edge set, each domain's e2LD and the blacklist.
struct Day0 {
    edges: BTreeSet<(u32, u32)>,
    e2ld: BTreeMap<u32, u32>,
    blacklist: BTreeSet<u32>,
}

/// R1–R4 as the paper states them, plus the implementation's three
/// documented choices: θ_d is the nearest-rank percentile of the machine
/// degrees (at least 1) and R2 applies only when θ_d exceeds R1's degree
/// bound; R4 is tested before R3; a known-malware domain left with no
/// kept querier is dropped without being counted.
fn oracle(day: &Day0, config: &PruneConfig) -> (PruneStats, BTreeSet<(u32, u32)>) {
    let mut domains_of: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut machines_of: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for &(m, d) in &day.edges {
        domains_of.entry(m).or_default().insert(d);
        machines_of.entry(d).or_default().insert(m);
    }
    let mut stats = PruneStats {
        machines_before: domains_of.len(),
        domains_before: machines_of.len(),
        edges_before: day.edges.len(),
        ..PruneStats::default()
    };

    // θ_d: the `proxy_percentile` of the machine-degree distribution.
    let mut degrees: Vec<usize> = domains_of.values().map(BTreeSet::len).collect();
    degrees.sort();
    let theta_d = if degrees.is_empty() {
        1
    } else {
        let rank = ((degrees.len() as f64 - 1.0) * config.proxy_percentile).round() as usize;
        degrees[rank].max(1)
    };
    stats.theta_d = theta_d;

    // R2 (proxies), then R1 (inactive, unless infected: a querier of a
    // blacklisted domain).
    let mut kept_machines: BTreeSet<u32> = BTreeSet::new();
    for (&m, domains) in &domains_of {
        let infected = domains.iter().any(|d| day.blacklist.contains(d));
        if domains.len() > theta_d && theta_d > config.min_machine_degree {
            stats.r2_proxy_machines += 1;
        } else if domains.len() <= config.min_machine_degree && !infected {
            stats.r1_inactive_machines += 1;
        } else {
            kept_machines.insert(m);
        }
    }
    let kept_queriers = |d: u32| -> BTreeSet<u32> {
        machines_of[&d]
            .intersection(&kept_machines)
            .copied()
            .collect()
    };

    // θ_m, and the e2LDs queried by at least θ_m distinct kept machines.
    let theta_m = (domains_of.len() as f64 * config.popular_fraction).ceil() as usize;
    stats.theta_m = theta_m;
    let mut e2ld_queriers: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for &d in machines_of.keys() {
        e2ld_queriers
            .entry(day.e2ld[&d])
            .or_default()
            .extend(kept_queriers(d));
    }

    // R4 (popular e2LD), then R3 (single querier, unless malware).
    let mut kept_domains: BTreeSet<u32> = BTreeSet::new();
    for &d in machines_of.keys() {
        let queriers = kept_queriers(d).len();
        if theta_m > 0 && e2ld_queriers[&day.e2ld[&d]].len() >= theta_m {
            stats.r4_popular_domains += 1;
        } else if queriers <= 1 && !day.blacklist.contains(&d) {
            stats.r3_single_machine_domains += 1;
        } else if queriers > 0 {
            kept_domains.insert(d);
        }
    }

    let surviving: BTreeSet<(u32, u32)> = day
        .edges
        .iter()
        .filter(|(m, d)| kept_machines.contains(m) && kept_domains.contains(d))
        .copied()
        .collect();
    stats.machines_after = surviving.iter().map(|e| e.0).collect::<BTreeSet<_>>().len();
    stats.domains_after = surviving.iter().map(|e| e.1).collect::<BTreeSet<_>>().len();
    stats.edges_after = surviving.len();
    (stats, surviving)
}

proptest! {
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn prune_matches_the_naive_oracle(
        edges in proptest::collection::vec((0u32..30, 0u32..40), 0..500),
        e2ld_count in 1u32..8,
        blacklist in proptest::collection::vec(0u32..40, 0..8),
        whitelist in proptest::collection::vec(0u32..8, 0..4),
        (min_machine_degree, proxy_percentile, popular_fraction) in
            (0usize..8, 0.5f64..1.0, 0.05f64..0.7),
    ) {
        // Domains d and d + e2ld_count share an e2LD: every e2LD groups
        // several domains.
        let e2ld: BTreeMap<u32, u32> = (0..40).map(|d| (d, d % e2ld_count)).collect();
        let edges: BTreeSet<(u32, u32)> = edges.into_iter().collect();
        let blacklist: BTreeSet<u32> = blacklist.into_iter().collect();
        let mut b = GraphBuilder::new(Day(0));
        for &(m, d) in &edges {
            b.add_query(MachineId(m), DomainId(d));
            b.set_e2ld(DomainId(d), E2ldId(e2ld[&d]));
        }
        let mut g = b.build();
        apply_seed_labels(
            &mut g,
            |d| blacklist.contains(&d.0),
            |e| whitelist.contains(&e.0),
        );
        let config = PruneConfig { min_machine_degree, proxy_percentile, popular_fraction };

        let (pruned, stats) = g.prune(&config);
        let day = Day0 { edges, e2ld, blacklist };
        let (want_stats, want_edges) = oracle(&day, &config);
        prop_assert_eq!(stats, want_stats);
        let got_edges: BTreeSet<(u32, u32)> = pruned
            .machine_indices()
            .flat_map(|m| {
                let pruned = &pruned;
                pruned
                    .domains_of(m)
                    .map(move |d| (pruned.machine_id(m).0, pruned.domain_id(d).0))
            })
            .collect();
        prop_assert_eq!(got_edges, want_edges);
    }
}
