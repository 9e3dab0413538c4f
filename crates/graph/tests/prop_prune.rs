//! Property tests for pruning: a deliberately naive oracle of the probe
//! filter and R1–R4, transcribed from the paper's Sections II-A2 and VI
//! over `BTreeMap` / `BTreeSet`, against the fused build that labels and
//! prunes as it builds the CSR, and against the shims that feed an
//! unpruned graph back through it.
//!
//! Graphs are random, with random blacklist / whitelist labels, a random
//! hidden set, random resolutions and several domains per e2LD, so
//! machines routinely query two domains of the same e2LD — the case where
//! R4 must count the machine once for the e2LD, not once per domain.
//! `PruneStats` and the totals before pruning must be equal, and the
//! pruned graph must validate and say, through its public API, exactly
//! what a naive model of the surviving edges says: each machine's
//! domains, label and malware degree, and each domain's degree, e2LD, IPs
//! and label.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use segugio_graph::labeling::apply_labels_with;
use segugio_graph::{
    BehaviorGraph, DayRules, EdgeRuns, GraphBuilder, PruneConfig, PruneStats, PrunedDay,
};
use segugio_model::{Day, DomainId, E2ldId, Ipv4, Label, MachineId};

/// One random day: the edge set, each domain's e2LD and IPs, the
/// blacklist (domains), the whitelist (e2LDs) and the hidden domains.
#[derive(Debug, Clone)]
struct Day0 {
    edges: BTreeSet<(u32, u32)>,
    e2ld: BTreeMap<u32, u32>,
    ips: BTreeMap<u32, BTreeSet<Ipv4>>,
    blacklist: BTreeSet<u32>,
    whitelist: BTreeSet<u32>,
    hidden: BTreeSet<u32>,
}

impl Day0 {
    /// Hidden first, then the blacklist, then the whitelist by e2LD.
    fn label(&self, d: u32) -> Label {
        if self.hidden.contains(&d) {
            Label::Unknown
        } else if self.blacklist.contains(&d) {
            Label::Malware
        } else if self.whitelist.contains(&self.e2ld[&d]) {
            Label::Benign
        } else {
            Label::Unknown
        }
    }

    fn queries(&self) -> Vec<(MachineId, DomainId)> {
        let edges = self.edges.iter();
        edges.map(|&(m, d)| (MachineId(m), DomainId(d))).collect()
    }

    fn resolutions(&self) -> Vec<(DomainId, Vec<Ipv4>)> {
        let ips = self.ips.iter();
        ips.map(|(&d, ips)| (DomainId(d), ips.iter().copied().collect()))
            .collect()
    }

    fn e2ld_of(&self, d: DomainId) -> E2ldId {
        E2ldId(self.e2ld[&d.0])
    }

    /// The unpruned graph, labeled.
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
        apply_labels_with(&mut g, |d, _| self.label(d.0));
        g
    }

    /// The fused build over the query list.
    fn pruned(&self, rules: DayRules<'_>) -> PrunedDay {
        let (queries, resolutions) = (self.queries(), self.resolutions());
        let e2ld_of = |d| self.e2ld_of(d);
        let label_of = |d: DomainId, _| self.label(d.0);
        GraphBuilder::pruned_from_queries(Day(0), &queries, &resolutions, e2ld_of, label_of, rules)
    }

    /// The fused build over edge runs small enough to spill.
    fn pruned_from_runs(&self, rules: DayRules<'_>) -> PrunedDay {
        let mut runs = EdgeRuns::with_run_capacity(16);
        runs.extend(self.queries());
        let e2ld_of = |d| self.e2ld_of(d);
        let label_of = |d: DomainId, _| self.label(d.0);
        GraphBuilder::pruned_from_runs(Day(0), &runs, &self.resolutions(), e2ld_of, label_of, rules)
            .expect("replaying sealed runs succeeds")
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
        vec(0u32..40, 0..4),
    )
        .prop_map(
            |(edges, e2ld_count, resolutions, blacklist, whitelist, hidden)| {
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
                    hidden: hidden.into_iter().collect(),
                }
            },
        )
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

/// A machine is malware if it queried a malware domain, benign if every
/// domain it queried is benign, else unknown; with its malware degree.
fn naive_machine_label(domains: &[u32], day: &Day0) -> (Label, u32) {
    let labels: Vec<Label> = domains.iter().map(|&d| day.label(d)).collect();
    let malware = labels.iter().filter(|l| l.is_malware()).count() as u32;
    let label = if malware > 0 {
        Label::Malware
    } else if labels.iter().all(|l| l.is_benign()) {
        Label::Benign
    } else {
        Label::Unknown
    };
    (label, malware)
}

/// The same view, derived naively from an edge set and the day's labels.
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
            let (label, malware) = naive_machine_label(&domains, day);
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

/// `(malware, benign, unknown)` counts.
fn counts(labels: impl Iterator<Item = Label>) -> (usize, usize, usize) {
    labels.fold((0, 0, 0), |(m, b, u), l| match l {
        Label::Malware => (m + 1, b, u),
        Label::Benign => (m, b + 1, u),
        Label::Unknown => (m, b, u + 1),
    })
}

/// What the oracle says of one day: the stats, the surviving edges and
/// the unpruned `(machines, domains, edges)` and label counts.
struct Oracle {
    stats: PruneStats,
    surviving: BTreeSet<(u32, u32)>,
    unpruned_counts: (usize, usize, usize),
    unpruned_domain_labels: (usize, usize, usize),
    unpruned_machine_labels: (usize, usize, usize),
}

/// The probe filter, then R1–R4 as the paper states them, plus the
/// implementation's three documented choices: θ_d is the nearest-rank
/// percentile of the machine degrees (at least 1) and R2 applies only
/// when θ_d exceeds R1's degree bound; R4 is tested before R3; a
/// known-malware domain left with no kept querier is dropped without
/// being counted. The filter drops every machine that queried at least
/// `probe_filter` malware domains, and R1–R4 then see only the rest.
fn oracle(day: &Day0, config: &PruneConfig, probe_filter: Option<u32>) -> Oracle {
    let mut all_domains_of: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &(m, d) in &day.edges {
        all_domains_of.entry(m).or_default().push(d);
    }
    let queried: BTreeSet<u32> = day.edges.iter().map(|e| e.1).collect();
    let probing = |m: &u32| {
        let malware = naive_machine_label(&all_domains_of[m], day).1;
        probe_filter.is_some_and(|max| malware >= max)
    };
    let edges: BTreeSet<(u32, u32)> = day
        .edges
        .iter()
        .copied()
        .filter(|(m, _)| !probing(m))
        .collect();

    let mut domains_of: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut machines_of: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for &(m, d) in &edges {
        domains_of.entry(m).or_default().insert(d);
        machines_of.entry(d).or_default().insert(m);
    }
    let mut stats = PruneStats {
        machines_before: domains_of.len(),
        domains_before: machines_of.len(),
        edges_before: edges.len(),
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
    // domain labeled malware).
    let mut kept_machines: BTreeSet<u32> = BTreeSet::new();
    for (&m, domains) in &domains_of {
        let infected = domains.iter().any(|&d| day.label(d).is_malware());
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
        } else if queriers <= 1 && !day.label(d).is_malware() {
            stats.r3_single_machine_domains += 1;
        } else if queriers > 0 {
            kept_domains.insert(d);
        }
    }

    let surviving: BTreeSet<(u32, u32)> = edges
        .iter()
        .filter(|(m, d)| kept_machines.contains(m) && kept_domains.contains(d))
        .copied()
        .collect();
    stats.machines_after = surviving.iter().map(|e| e.0).collect::<BTreeSet<_>>().len();
    stats.domains_after = surviving.iter().map(|e| e.1).collect::<BTreeSet<_>>().len();
    stats.edges_after = surviving.len();
    let machine_labels = all_domains_of
        .values()
        .map(|domains| naive_machine_label(domains, day).0);
    Oracle {
        stats,
        surviving,
        unpruned_counts: (all_domains_of.len(), queried.len(), day.edges.len()),
        unpruned_domain_labels: counts(queried.iter().map(|&d| day.label(d))),
        unpruned_machine_labels: counts(machine_labels),
    }
}

/// `built` says what the oracle says.
fn check(built: &PrunedDay, want: &Oracle, day: &Day0) -> Result<(), TestCaseError> {
    prop_assert_eq!(built.stats, want.stats);
    prop_assert_eq!(built.graph.validate(), Ok(()));
    prop_assert_eq!(view_of(&built.graph), naive_view(&want.surviving, day));
    prop_assert_eq!(built.unpruned_counts, want.unpruned_counts);
    prop_assert_eq!(built.unpruned_domain_labels, want.unpruned_domain_labels);
    prop_assert_eq!(built.unpruned_machine_labels, want.unpruned_machine_labels);
    Ok(())
}

fn prune_config() -> impl Strategy<Value = PruneConfig> {
    (0usize..8, 0.5f64..1.0, 0.05f64..0.7).prop_map(
        |(min_machine_degree, proxy_percentile, popular_fraction)| PruneConfig {
            min_machine_degree,
            proxy_percentile,
            popular_fraction,
        },
    )
}

proptest! {
    /// The `prune` shim over a labeled unpruned graph: R1–R4 alone.
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn prune_matches_the_naive_oracle(day in day_case(), config in prune_config()) {
        let (pruned, stats) = day.graph().prune(&config);
        let want = oracle(&day, &config, None);
        prop_assert_eq!(stats, want.stats);
        prop_assert_eq!(pruned.validate(), Ok(()));
        prop_assert_eq!(view_of(&pruned), naive_view(&want.surviving, &day));
    }

    /// The fused build with the probe filter composed with R1–R4, at any
    /// width: θ_d and θ_m over the non-probers, `PruneStats::*_before`
    /// after the filter, the totals before both, and the pruned graph
    /// itself. The query-list entry, the run entry and the shim over an
    /// unpruned labeled graph all agree with the filter-then-prune oracle.
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn fused_build_matches_filter_then_prune(
        day in day_case(),
        config in prune_config(),
        (filtering, max_malware_degree) in (any::<bool>(), 0u32..5),
        workers in 1usize..5,
    ) {
        let probe_filter = filtering.then_some(max_malware_degree);
        let rules = DayRules { prune: &config, probe_filter, workers };
        let want = oracle(&day, &config, probe_filter);
        check(&day.pruned(rules), &want, &day)?;
        check(&day.pruned_from_runs(rules), &want, &day)?;
        check(&day.graph().pruned(rules), &want, &day)?;
    }
}
