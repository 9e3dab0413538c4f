//! Property test for pruning: a deliberately naive R1–R4 oracle,
//! transcribed from the paper's Section II-A2 over `BTreeMap` / `BTreeSet`,
//! against `BehaviorGraph::prune`, and the same for the probe filter.
//!
//! Graphs are random, with random blacklist / whitelist labels, random
//! resolutions and several domains per e2LD, so machines routinely query
//! two domains of the same e2LD — the case where R4 must count the machine
//! once for the e2LD, not once per domain. `PruneStats` must be equal, and
//! the compacted graph must validate and say, through its public API,
//! exactly what a naive model of the surviving edges says: each machine's
//! domains, label and malware degree, and each domain's degree, e2LD, IPs
//! and label. The querier index behind `machines_of`, built before pruning,
//! must describe the pruned graph after it.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use segugio_graph::labeling::apply_seed_labels;
use segugio_graph::{BehaviorGraph, GraphBuilder, PruneConfig, PruneStats};
use segugio_model::{Day, DomainId, E2ldId, Ipv4, Label, MachineId};

/// One random day: the edge set, each domain's e2LD and IPs, and the
/// blacklist (domains) and whitelist (e2LDs).
#[derive(Debug, Clone)]
struct Day0 {
    edges: BTreeSet<(u32, u32)>,
    e2ld: BTreeMap<u32, u32>,
    ips: BTreeMap<u32, BTreeSet<Ipv4>>,
    blacklist: BTreeSet<u32>,
    whitelist: BTreeSet<u32>,
}

impl Day0 {
    fn label(&self, d: u32) -> Label {
        if self.blacklist.contains(&d) {
            Label::Malware
        } else if self.whitelist.contains(&self.e2ld[&d]) {
            Label::Benign
        } else {
            Label::Unknown
        }
    }

    fn graph(&self) -> BehaviorGraph {
        let mut b = GraphBuilder::new(Day(0));
        for &(m, d) in &self.edges {
            b.add_query(MachineId(m), DomainId(d));
            b.set_e2ld(DomainId(d), E2ldId(self.e2ld[&d]));
        }
        for (&d, ips) in &self.ips {
            for &ip in ips {
                b.add_resolution(DomainId(d), ip);
            }
        }
        let mut g = b.build();
        apply_seed_labels(
            &mut g,
            |d| self.blacklist.contains(&d.0),
            |e| self.whitelist.contains(&e.0),
        );
        g
    }
}

/// Domains d and d + e2ld_count share an e2LD: every e2LD groups several
/// domains. Resolutions name queried and unqueried domains alike.
fn day_case() -> impl Strategy<Value = Day0> {
    use proptest::collection::vec;
    (
        vec((0u32..30, 0u32..40), 0..500),
        1u32..8,
        vec((0u32..40, 0u8..6), 0..120),
        vec(0u32..40, 0..8),
        vec(0u32..8, 0..4),
    )
        .prop_map(|(edges, e2ld_count, resolutions, blacklist, whitelist)| {
            let mut ips: BTreeMap<u32, BTreeSet<Ipv4>> = BTreeMap::new();
            for (d, octet) in resolutions {
                ips.entry(d)
                    .or_default()
                    .insert(Ipv4::from_octets(10, 0, d as u8, octet));
            }
            Day0 {
                edges: edges.into_iter().collect(),
                e2ld: (0..40).map(|d| (d, d % e2ld_count)).collect(),
                ips,
                blacklist: blacklist.into_iter().collect(),
                whitelist: whitelist.into_iter().collect(),
            }
        })
}

/// Everything a graph says, keyed by external id: per machine its domains,
/// label and malware degree; per domain its degree, e2LD, IPs and label.
type MachineView = BTreeMap<u32, (Vec<u32>, Label, u32)>;
type DomainView = BTreeMap<u32, (usize, u32, Vec<Ipv4>, Label)>;

fn view_of(g: &BehaviorGraph) -> (MachineView, DomainView) {
    let machines = g
        .machine_indices()
        .map(|m| {
            let domains = g.domains_of(m).map(|d| g.domain_id(d).0).collect();
            let row = (domains, g.machine_label(m), g.machine_malware_degree(m));
            (g.machine_id(m).0, row)
        })
        .collect();
    let domains = g
        .domain_indices()
        .map(|d| {
            let row = (
                g.domain_degree(d),
                g.domain_e2ld(d).0,
                g.domain_ips(d).to_vec(),
                g.domain_label(d),
            );
            (g.domain_id(d).0, row)
        })
        .collect();
    (machines, domains)
}

/// The same view, derived naively from an edge set and the day's labels:
/// a machine is malware if it queried a malware domain, benign if every
/// domain it queried is benign, else unknown.
fn naive_view(edges: &BTreeSet<(u32, u32)>, day: &Day0) -> (MachineView, DomainView) {
    let mut domains_of: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let mut machines_of: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &(m, d) in edges {
        domains_of.entry(m).or_default().push(d);
        machines_of.entry(d).or_default().push(m);
    }
    let machines = domains_of
        .into_iter()
        .map(|(m, domains)| {
            let labels: Vec<Label> = domains.iter().map(|&d| day.label(d)).collect();
            let malware = labels.iter().filter(|l| l.is_malware()).count() as u32;
            let label = if malware > 0 {
                Label::Malware
            } else if labels.iter().all(|l| l.is_benign()) {
                Label::Benign
            } else {
                Label::Unknown
            };
            (m, (domains, label, malware))
        })
        .collect();
    let domains = machines_of
        .into_iter()
        .map(|(d, machines)| {
            let ips = day.ips.get(&d).into_iter().flatten().copied().collect();
            (d, (machines.len(), day.e2ld[&d], ips, day.label(d)))
        })
        .collect();
    (machines, domains)
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
        day in day_case(),
        (min_machine_degree, proxy_percentile, popular_fraction) in
            (0usize..8, 0.5f64..1.0, 0.05f64..0.7),
    ) {
        let config = PruneConfig { min_machine_degree, proxy_percentile, popular_fraction };
        let graph = day.graph();
        // Builds the lazy querier index, which pruning must not leave stale.
        let before: usize = graph.domain_indices().map(|d| graph.machines_of(d).count()).sum();
        prop_assert_eq!(before, day.edges.len());
        let (pruned, stats) = graph.prune(&config);
        let (want_stats, want_edges) = oracle(&day, &config);
        prop_assert_eq!(stats, want_stats);
        prop_assert_eq!(pruned.validate(), Ok(()));
        prop_assert_eq!(view_of(&pruned), naive_view(&want_edges, &day));
        let mut want_queriers: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for &(m, d) in &want_edges {
            want_queriers.entry(d).or_default().push(m);
        }
        let got_queriers: BTreeMap<u32, Vec<u32>> = pruned
            .domain_indices()
            .map(|d| {
                let queriers = pruned.machines_of(d).map(|m| pruned.machine_id(m).0);
                (pruned.domain_id(d).0, queriers.collect())
            })
            .collect();
        prop_assert_eq!(got_queriers, want_queriers);
    }

    /// The probe filter drops every machine that queried at least
    /// `max_malware_degree` blacklisted domains, and nothing else.
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn probe_filter_matches_the_naive_oracle(
        day in day_case(),
        max_malware_degree in 0u32..5,
    ) {
        let mut malware_degree: BTreeMap<u32, u32> = BTreeMap::new();
        for &(m, d) in &day.edges {
            *malware_degree.entry(m).or_default() += u32::from(day.blacklist.contains(&d));
        }
        let probing = |m: &u32| malware_degree[m] >= max_malware_degree;
        let want_edges: BTreeSet<(u32, u32)> =
            day.edges.iter().copied().filter(|(m, _)| !probing(m)).collect();
        let (filtered, removed) = day.graph().without_probing_machines(max_malware_degree);
        prop_assert_eq!(removed, malware_degree.keys().filter(|m| probing(m)).count());
        prop_assert_eq!(filtered.validate(), Ok(()));
        prop_assert_eq!(view_of(&filtered), naive_view(&want_edges, &day));
    }
}
