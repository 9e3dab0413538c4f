//! Conservative graph pruning (paper Section II-A2, rules R1–R4).
//!
//! - **R1** — drop "inactive" machines that query ≤ `min_machine_degree`
//!   domains, *except* machines already labeled malware (they may query a
//!   tiny set of control domains and still help detection).
//! - **R2** — drop proxy/forwarder machines whose degree is at or above the
//!   `proxy_percentile` of the machine-degree distribution (θ_d).
//! - **R3** — drop domains queried by only one machine, *except* known
//!   malware domains.
//! - **R4** — drop domains whose e2LD is queried by at least
//!   `popular_fraction` of all machines in the network (θ_m): such
//!   very-popular domains are overwhelmingly unlikely to be malware-control.
//!
//! The rules need only each machine's bucket size and label, one label
//! per domain and per-domain counts, so the CSR constructor decides them
//! as it builds ([`GraphBuilder::pruned_from_runs`],
//! [`GraphBuilder::pruned_from_queries`]): the unpruned graph of a day is
//! never materialised.
//!
//! [`GraphBuilder::pruned_from_runs`]: crate::GraphBuilder::pruned_from_runs
//! [`GraphBuilder::pruned_from_queries`]: crate::GraphBuilder::pruned_from_queries

use crate::builder::{annotate, fuse};
use crate::graph::BehaviorGraph;

/// Tunable thresholds of R1–R4.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneConfig {
    /// R1: machines with degree ≤ this are dropped (paper: 5).
    pub min_machine_degree: usize,
    /// R2: percentile (in `[0,1]`) of the degree distribution above which
    /// machines are treated as proxies (paper: 0.9999).
    pub proxy_percentile: f64,
    /// R4: fraction (in `[0,1]`) of all machines above which an e2LD is "too
    /// popular" (paper: 1/3).
    pub popular_fraction: f64,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig {
            min_machine_degree: 5,
            proxy_percentile: 0.9999,
            popular_fraction: 1.0 / 3.0,
        }
    }
}

/// What pruning removed, and the thresholds it derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneStats {
    /// Node/edge counts before pruning.
    pub machines_before: usize,
    /// Domain count before pruning.
    pub domains_before: usize,
    /// Edge count before pruning.
    pub edges_before: usize,
    /// Node/edge counts after pruning.
    pub machines_after: usize,
    /// Domain count after pruning.
    pub domains_after: usize,
    /// Edge count after pruning.
    pub edges_after: usize,
    /// Machines removed by R1 (inactive).
    pub r1_inactive_machines: usize,
    /// Machines removed by R2 (proxies), with derived θ_d.
    pub r2_proxy_machines: usize,
    /// The derived proxy-degree threshold θ_d.
    pub theta_d: usize,
    /// Domains removed by R3 (single querier).
    pub r3_single_machine_domains: usize,
    /// Domains removed by R4 (too popular), with derived θ_m.
    pub r4_popular_domains: usize,
    /// The derived popularity threshold θ_m (machines).
    pub theta_m: usize,
}

impl PruneStats {
    /// Fractional reduction of domain nodes, in `[0,1]`.
    pub fn domain_reduction(&self) -> f64 {
        reduction(self.domains_before, self.domains_after)
    }

    /// Fractional reduction of machine nodes, in `[0,1]`.
    pub fn machine_reduction(&self) -> f64 {
        reduction(self.machines_before, self.machines_after)
    }

    /// Fractional reduction of edges, in `[0,1]`.
    pub fn edge_reduction(&self) -> f64 {
        reduction(self.edges_before, self.edges_after)
    }
}

fn reduction(before: usize, after: usize) -> f64 {
    if before == 0 {
        0.0
    } else {
        (before - after) as f64 / before as f64
    }
}

/// What the fused build applies besides labeling: the optional probe
/// filter, then R1–R4.
#[derive(Debug, Clone, Copy)]
pub struct DayRules<'a> {
    /// R1–R4's thresholds.
    pub prune: &'a PruneConfig,
    /// Drops every machine that queried at least this many known-malware
    /// domains, before R1–R4: θ_d, θ_m and the counts before pruning are
    /// over the machines it keeps, and a domain only probers queried is
    /// not in the graph R1–R4 see.
    ///
    /// Such machines look like security scanners or blacklist probers.
    /// Real infections query a handful of control domains per day (Fig. 3:
    /// practically never more than twenty), while monitoring clients probe
    /// *hundreds* of blacklisted names. The paper mentions using heuristics
    /// to verify the filtered graphs contained no such clients (Section
    /// VI); this is that heuristic, for deployments expecting probers.
    pub probe_filter: Option<u32>,
    /// Threads for the build's passes over the edges (at least one). The
    /// result does not depend on it.
    pub workers: usize,
}

/// A day built labeled and pruned, with what the build counted before the
/// probe filter and pruning (the paper's Table I counts).
#[derive(Debug, Clone)]
pub struct PrunedDay {
    /// The labeled, pruned graph.
    pub graph: BehaviorGraph,
    /// What the probe filter kept and pruning removed.
    pub stats: PruneStats,
    /// `(machines, domains, edges)` before the probe filter and pruning.
    pub unpruned_counts: (usize, usize, usize),
    /// Domain label counts before the probe filter and pruning, as
    /// `(malware, benign, unknown)`.
    pub unpruned_domain_labels: (usize, usize, usize),
    /// Machine label counts before the probe filter and pruning, as
    /// `(malware, benign, unknown)`.
    pub unpruned_machine_labels: (usize, usize, usize),
}

impl BehaviorGraph {
    /// Applies R1–R4 to this graph under its current labels; see
    /// [`pruned`](Self::pruned).
    #[doc(hidden)]
    pub fn prune(self, config: &PruneConfig) -> (BehaviorGraph, PruneStats) {
        let rules = DayRules {
            prune: config,
            probe_filter: None,
            workers: 1,
        };
        let day = self.pruned(rules);
        (day.graph, day.stats)
    }

    /// Feeds this graph's adjacency, already grouped by machine, and its
    /// current labels back through the fused build's rules: what
    /// [`GraphBuilder::pruned_from_queries`](crate::GraphBuilder::pruned_from_queries)
    /// returns for the same edges labeled the same way. For callers that
    /// hold an unpruned graph; the day pipeline never builds one.
    #[doc(hidden)]
    pub fn pruned(self, rules: DayRules<'_>) -> PrunedDay {
        let BehaviorGraph {
            day,
            machines,
            domains,
            domain_e2ld,
            ip_off,
            ip_pool,
            m_off,
            m_adj,
            domain_labels,
            domain_degree,
            machine_labels,
            machine_malware_degree,
            queriers,
        } = self;
        drop((
            domain_degree,
            machine_labels,
            machine_malware_degree,
            queriers,
        ));
        let mut built = fuse(
            day,
            &m_off[1..],
            m_adj,
            domains.len(),
            |k| domain_e2ld[k as usize],
            |k, _| domain_labels[k as usize],
            Some(rules),
        );
        let ip_pairs = domains
            .iter()
            .zip(ip_off.windows(2))
            .flat_map(|(&d, span)| {
                let ips = &ip_pool[span[0] as usize..span[1] as usize];
                ips.iter().map(move |&ip| (d, ip))
            });
        let (machine, domain) = (|s: u32| machines[s as usize], |k: u32| domains[k as usize]);
        annotate(&mut built.graph, machine, domain, ip_pairs);
        built
    }
}

/// The value at `pct` (in `[0,1]`) of the sorted distribution, selected in
/// O(n) without sorting; `data` is reordered in place.
pub(crate) fn percentile(data: &mut [usize], pct: f64) -> usize {
    if data.is_empty() {
        return 0;
    }
    let rank = ((data.len() as f64 - 1.0) * pct.clamp(0.0, 1.0)).round() as usize;
    *data.select_nth_unstable(rank).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::DomainIdx;
    use crate::labeling::apply_seed_labels;
    use segugio_model::{Day, DomainId, E2ldId, Ipv4, Label, MachineId};

    /// Builds a graph with:
    /// - machines 0..10 querying 8 ordinary domains each (active, kept)
    /// - machine 90: queries 2 domains only (inactive → R1) but one is malware? no
    /// - machine 91: labeled malware, queries only malware domain 500 and 501
    /// - machine 92: proxy querying everything
    /// - domain 600: queried by one machine only (R3)
    /// - domain 700 (e2LD 7): queried by everyone (R4)
    fn sample() -> BehaviorGraph {
        let mut b = GraphBuilder::new(Day(0));
        for m in 0..10u32 {
            for d in 0..8u32 {
                b.add_query(MachineId(m), DomainId(d));
                b.set_e2ld(DomainId(d), E2ldId(d));
            }
            // Popular domain 700 queried by all machines.
            b.add_query(MachineId(m), DomainId(700));
        }
        b.set_e2ld(DomainId(700), E2ldId(7));
        // Inactive benign machine 90.
        b.add_query(MachineId(90), DomainId(0));
        b.add_query(MachineId(90), DomainId(1));
        // Inactive infected machine 91 queries malware domains 500, 501.
        b.add_query(MachineId(91), DomainId(500));
        b.add_query(MachineId(91), DomainId(501));
        b.set_e2ld(DomainId(500), E2ldId(500));
        b.set_e2ld(DomainId(501), E2ldId(501));
        // Second querier for 500/501 so they survive with a querier even if
        // machine 91 mattered; machine 5 is infected too.
        b.add_query(MachineId(5), DomainId(500));
        b.add_query(MachineId(5), DomainId(501));
        // Domain 600 queried by exactly one active machine.
        b.add_query(MachineId(3), DomainId(600));
        b.set_e2ld(DomainId(600), E2ldId(600));
        // Proxy machine 92 queries a huge set of unique domains.
        for d in 1000..1400u32 {
            b.add_query(MachineId(92), DomainId(d));
            b.set_e2ld(DomainId(d), E2ldId(d));
        }
        let mut g = b.build();
        apply_seed_labels(
            &mut g,
            |d| d == DomainId(500) || d == DomainId(501),
            |_| false,
        );
        g
    }

    fn config() -> PruneConfig {
        PruneConfig {
            min_machine_degree: 5,
            proxy_percentile: 0.95,
            popular_fraction: 1.0 / 3.0,
        }
    }

    #[test]
    fn r1_drops_inactive_benign_but_keeps_infected() {
        let g = sample();
        let (p, stats) = g.prune(&config());
        assert!(
            p.machine_idx(MachineId(90)).is_none(),
            "inactive benign dropped"
        );
        assert!(
            p.machine_idx(MachineId(91)).is_some(),
            "infected low-degree kept"
        );
        assert!(stats.r1_inactive_machines >= 1);
    }

    #[test]
    fn r2_drops_proxies() {
        let g = sample();
        let (p, stats) = g.prune(&config());
        assert!(p.machine_idx(MachineId(92)).is_none(), "proxy dropped");
        assert!(stats.r2_proxy_machines >= 1);
        assert!(stats.theta_d > 5);
    }

    #[test]
    fn r3_drops_single_querier_domains_but_keeps_malware() {
        let g = sample();
        let (p, stats) = g.prune(&config());
        assert!(
            p.domain_idx(DomainId(600)).is_none(),
            "single-querier dropped"
        );
        assert!(p.domain_idx(DomainId(500)).is_some(), "malware domain kept");
        assert!(stats.r3_single_machine_domains >= 1);
    }

    #[test]
    fn r4_drops_popular_e2lds() {
        let g = sample();
        let (p, stats) = g.prune(&config());
        assert!(
            p.domain_idx(DomainId(700)).is_none(),
            "popular domain dropped"
        );
        assert!(stats.r4_popular_domains >= 1);
    }

    #[test]
    fn labels_survive_pruning() {
        let g = sample();
        let (p, _) = g.prune(&config());
        let d500 = p.domain_idx(DomainId(500)).unwrap();
        assert_eq!(p.domain_label(d500), Label::Malware);
        let m91 = p.machine_idx(MachineId(91)).unwrap();
        assert_eq!(p.machine_label(m91), Label::Malware);
        assert_eq!(p.machine_malware_degree(m91), 2);
    }

    #[test]
    fn stats_are_consistent() {
        let g = sample();
        let (p, stats) = g.prune(&config());
        assert_eq!(stats.machines_after, p.machine_count());
        assert_eq!(stats.domains_after, p.domain_count());
        assert_eq!(stats.edges_after, p.edge_count());
        assert!(stats.domain_reduction() > 0.0);
        assert!(stats.machine_reduction() > 0.0);
        assert!(stats.edge_reduction() > 0.0);
    }

    /// The fused build over `queries`, with every IP of `ips` and the
    /// sentinel e2LDs, labeled by `label_of`.
    fn fused(
        queries: &[(MachineId, DomainId)],
        e2ld: impl Fn(DomainId) -> E2ldId,
        label_of: impl Fn(DomainId, E2ldId) -> Label,
        rules: DayRules<'_>,
    ) -> PrunedDay {
        let ips: Vec<(DomainId, Vec<Ipv4>)> = (0..8u32)
            .map(|d| (DomainId(d), (0..d % 3).map(|k| ip(d, k)).collect()))
            .collect();
        GraphBuilder::pruned_from_queries(Day(4), queries, &ips, e2ld, label_of, rules)
    }

    fn ip(d: u32, k: u32) -> Ipv4 {
        Ipv4::from_octets(10, 0, d as u8, k as u8)
    }

    #[test]
    fn probing_machines_are_removed() {
        // 40 malware domains, each with two ordinary victims, and an
        // ordinary infected machine querying 3 of them.
        let mut queries = Vec::new();
        for d in 0..40u32 {
            queries.push((MachineId(0), DomainId(d)));
            queries.push((MachineId(1), DomainId(d)));
        }
        for d in 0..3u32 {
            queries.push((MachineId(2), DomainId(d)));
        }
        let config = PruneConfig {
            min_machine_degree: 0,
            proxy_percentile: 1.0,
            popular_fraction: 2.0,
        };
        let rules = |probe_filter| DayRules {
            prune: &config,
            probe_filter,
            workers: 1,
        };
        let malware = |_, _| Label::Malware;
        // Machines 0 and 1 query 40 known malware domains: probers. The
        // counts before pruning are over machine 2 alone.
        let day = fused(&queries, |d| E2ldId(d.0), malware, rules(Some(21)));
        assert!(day.graph.machine_idx(MachineId(0)).is_none());
        assert!(day.graph.machine_idx(MachineId(2)).is_some());
        assert_eq!(day.unpruned_counts, (3, 40, 83));
        assert_eq!(day.unpruned_machine_labels, (3, 0, 0));
        let stats = day.stats;
        assert_eq!((stats.machines_before, stats.domains_before), (1, 3));
        assert_eq!((stats.edges_before, stats.edges_after), (3, 3));
        // No probe filter: all three stay.
        let day = fused(&queries, |d| E2ldId(d.0), malware, rules(None));
        assert_eq!(day.graph.machine_count(), 3);
        assert_eq!(day.stats.machines_before, 3);
    }

    /// The fused build, every rule firing and domain 3's blacklisting
    /// hidden, equals an unpruned build of the edges the rules keep,
    /// labeled the same way, at any width.
    #[test]
    fn fused_build_equals_a_build_of_the_survivors() {
        // Machines 0..5 query e2LD 10's domains 0, 1 and 2 (R4 at θ_m =
        // 5); 0 and 1 query hidden domain 3, 2 and 3 whitelisted domain 4;
        // machine 4 alone queries malware domain 5 (kept by R3's
        // exception) and domain 6 (R3); machine 5 queries only domain 7
        // (R1, and then R3).
        let mut edges: Vec<(u32, u32)> = (0..5).flat_map(|m| (0..3).map(move |d| (m, d))).collect();
        edges.extend([(0, 3), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 7)]);
        let queries: Vec<_> = edges
            .iter()
            .map(|&(m, d)| (MachineId(m), DomainId(d)))
            .collect();
        let e2ld = |d: DomainId| E2ldId(if d.0 < 3 { 10 } else { 8 + d.0 });
        let label_of = |d: DomainId, e: E2ldId| match (d.0, e.0) {
            (3, _) => Label::Unknown,
            (5, _) => Label::Malware,
            (_, 12) => Label::Benign,
            _ => Label::Unknown,
        };
        let config = PruneConfig {
            min_machine_degree: 1,
            proxy_percentile: 1.0,
            popular_fraction: 0.8,
        };
        let survivors = [(0, 3), (1, 3), (2, 4), (3, 4), (4, 5)];
        let mut b = GraphBuilder::new(Day(4));
        for (m, d) in survivors {
            b.add_query(MachineId(m), DomainId(d));
            b.set_e2ld(DomainId(d), e2ld(DomainId(d)));
            for k in 0..d % 3 {
                b.add_resolution(DomainId(d), ip(d, k));
            }
        }
        let mut want = b.build();
        crate::labeling::apply_labels_with(&mut want, label_of);
        for workers in 1..=3 {
            let rules = DayRules {
                prune: &config,
                probe_filter: None,
                workers,
            };
            let day = fused(&queries, e2ld, label_of, rules);
            assert_eq!(format!("{:?}", day.graph), format!("{want:?}"));
            let stats = day.stats;
            assert_eq!(
                (stats.r1_inactive_machines, stats.r2_proxy_machines),
                (1, 0)
            );
            assert_eq!(
                (stats.r3_single_machine_domains, stats.r4_popular_domains),
                (2, 3)
            );
            assert_eq!((stats.theta_d, stats.theta_m), (5, 5));
            assert_eq!((stats.edges_before, stats.edges_after), (22, 5));
            assert_eq!(day.unpruned_counts, (6, 8, 22));
            assert_eq!(day.unpruned_domain_labels, (1, 1, 6));
            assert_eq!(day.unpruned_machine_labels, (1, 0, 5));
        }
        assert_eq!(want.domain_ips(DomainIdx(1)), &[ip(4, 0)]);
    }

    #[test]
    fn percentile_helper() {
        let mut v = vec![1, 2, 3, 4, 100];
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        assert_eq!(percentile(&mut v, 0.5), 3);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }
}
