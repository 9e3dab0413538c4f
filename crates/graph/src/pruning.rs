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

use std::sync::OnceLock;

use segugio_model::Label;

use crate::graph::BehaviorGraph;
use crate::labeling;

/// Tunable thresholds for [`BehaviorGraph::prune`].
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

impl BehaviorGraph {
    /// Applies pruning rules R1–R4 and returns the pruned graph (labels
    /// preserved and machine labels re-propagated) plus statistics.
    ///
    /// Machine rules (R1, R2) are evaluated on the input graph; domain rules
    /// (R3, R4) are evaluated on the machine-filtered subgraph, which is the
    /// conservative order (a domain never loses its known-malware survivors).
    ///
    /// Consumes the graph and compacts it in place, so no second graph is
    /// allocated; clone first to keep the unpruned one. The result equals a
    /// rebuild from the surviving edges: nodes keep their ids, annotations
    /// and domain labels, nodes left with no edge are dropped, and both
    /// remaps are monotone, so every list stays ascending.
    pub fn prune(self, config: &PruneConfig) -> (BehaviorGraph, PruneStats) {
        let mut stats = PruneStats {
            machines_before: self.machine_count(),
            domains_before: self.domain_count(),
            edges_before: self.edge_count(),
            ..PruneStats::default()
        };

        // θ_d from the degree distribution.
        let mut degrees: Vec<usize> = (0..self.machine_count())
            .map(|mi| (self.m_off[mi + 1] - self.m_off[mi]) as usize)
            .collect();
        let theta_d = percentile(&mut degrees, config.proxy_percentile).max(1);
        stats.theta_d = theta_d;

        let mut keep_machine = vec![true; self.machine_count()];
        for (mi, keep) in keep_machine.iter_mut().enumerate() {
            let deg = (self.m_off[mi + 1] - self.m_off[mi]) as usize;
            if deg > theta_d && theta_d > config.min_machine_degree {
                *keep = false;
                stats.r2_proxy_machines += 1;
            } else if deg <= config.min_machine_degree && self.machine_labels[mi] != Label::Malware
            {
                *keep = false;
                stats.r1_inactive_machines += 1;
            }
        }

        // R3: each domain's degree over kept machines.
        let mut kept_domain_degree = self.kept_degrees(&keep_machine);

        // R4: each e2LD's count of distinct kept machines. Domains are
        // grouped by e2LD (sorted by `(e2ld, domain)`, no hash maps), and a
        // group's kept degree bounds that count, so only the groups it lets
        // reach θ_m are candidates. One pass over the kept machines counts
        // a machine once per candidate it queries by stamping the candidate
        // with the machine: no sort, no dedup. Any other edge costs one
        // lookup.
        let theta_m = ((self.machine_count() as f64) * config.popular_fraction).ceil() as usize;
        stats.theta_m = theta_m;
        let mut by_e2ld: Vec<(u32, u32)> = (0..self.domain_count() as u32)
            .map(|di| (self.domain_e2ld[di as usize].0, di))
            .collect();
        by_e2ld.sort_unstable();
        let mut candidate_of = vec![u32::MAX; self.domain_count()];
        let mut candidates = 0u32;
        for group in by_e2ld.chunk_by(|a, b| a.0 == b.0) {
            let bound = group
                .iter()
                .map(|&(_, di)| kept_domain_degree[di as usize] as usize);
            if theta_m > 0 && bound.sum::<usize>() >= theta_m {
                for &(_, di) in group {
                    candidate_of[di as usize] = candidates;
                }
                candidates += 1;
            }
        }
        drop(by_e2ld);
        let mut distinct = vec![0usize; candidates as usize];
        if candidates > 0 {
            let mut stamp = vec![u32::MAX; candidates as usize];
            for (mi, span) in self.m_off.windows(2).enumerate() {
                if !keep_machine[mi] {
                    continue;
                }
                for &di in &self.m_adj[span[0] as usize..span[1] as usize] {
                    let c = candidate_of[di as usize];
                    if c != u32::MAX && stamp[c as usize] != mi as u32 {
                        stamp[c as usize] = mi as u32;
                        distinct[c as usize] += 1;
                    }
                }
            }
        }

        // A dropped domain's degree becomes 0. So does, already, a
        // known-malware domain whose every querier was pruned: it can no
        // longer contribute evidence and is dropped too.
        for (di, degree) in kept_domain_degree.iter_mut().enumerate() {
            let c = candidate_of[di];
            if c != u32::MAX && distinct[c as usize] >= theta_m {
                *degree = 0;
                stats.r4_popular_domains += 1;
            } else if *degree <= 1 && self.domain_labels[di] != Label::Malware {
                *degree = 0;
                stats.r3_single_machine_domains += 1;
            }
        }

        let pruned = self.compact(&keep_machine, &kept_domain_degree);

        stats.machines_after = pruned.machine_count();
        stats.domains_after = pruned.domain_count();
        stats.edges_after = pruned.edge_count();
        (pruned, stats)
    }
}

impl BehaviorGraph {
    /// Removes machines that look like security scanners / blacklist
    /// probers: machines querying at least `max_malware_degree` known
    /// malware domains in one day.
    ///
    /// Real infections query a handful of control domains per day (Fig. 3:
    /// practically never more than twenty), while monitoring clients probe
    /// *hundreds* of blacklisted names. The paper mentions using heuristics
    /// to verify the filtered graphs contained no such clients (Section
    /// VI); this is that heuristic, applied before feature measurement when
    /// a deployment expects probing clients.
    ///
    /// Consumes the graph: returned as is when no machine probes, otherwise
    /// compacted in place as by [`prune`](Self::prune), dropping each domain
    /// left with no querier.
    pub fn without_probing_machines(self, max_malware_degree: u32) -> (BehaviorGraph, usize) {
        let keep_machine: Vec<bool> = self
            .machine_malware_degree
            .iter()
            .map(|&degree| degree < max_malware_degree)
            .collect();
        let removed = keep_machine.iter().filter(|&&keep| !keep).count();
        if removed == 0 {
            return (self, 0);
        }
        // A domain survives with every non-prober that queried it, and every
        // non-prober keeps all its edges.
        let kept_degree = self.kept_degrees(&keep_machine);
        (self.compact(&keep_machine, &kept_degree), removed)
    }

    /// Each domain's degree over the kept machines, in one pass over their
    /// lists.
    fn kept_degrees(&self, keep_machine: &[bool]) -> Vec<u32> {
        let mut degree = vec![0u32; self.domain_count()];
        for (span, _) in self
            .m_off
            .windows(2)
            .zip(keep_machine)
            .filter(|(_, &keep)| keep)
        {
            for &di in &self.m_adj[span[0] as usize..span[1] as usize] {
                degree[di as usize] += 1;
            }
        }
        degree
    }

    /// Compacts the graph in place to the edges between kept machines and
    /// kept domains, dropping each machine left with no edge. A domain is
    /// kept when its `kept_degree` is not 0, and then keeps every edge to a
    /// kept machine, `kept_degree` of them, so the domain side is settled
    /// before any edge is read. Every write lands at or behind its read
    /// cursor, so all vectors are reused.
    fn compact(mut self, keep_machine: &[bool], kept_degree: &[u32]) -> BehaviorGraph {
        // Domain columns. `ip_off[kept]` is always already rewritten (it
        // starts at 0), and `ip_off[di + 1]` is read before any write to it.
        let mut d_remap = vec![u32::MAX; self.domains.len()];
        let mut kept = 0;
        let mut lo = 0;
        for (di, &degree) in kept_degree.iter().enumerate() {
            let hi = self.ip_off[di + 1] as usize;
            if degree > 0 {
                d_remap[di] = kept as u32;
                self.domains[kept] = self.domains[di];
                self.domain_e2ld[kept] = self.domain_e2ld[di];
                self.domain_labels[kept] = self.domain_labels[di];
                self.domain_degree[kept] = degree;
                let start = self.ip_off[kept] as usize;
                self.ip_pool.copy_within(lo..hi, start);
                self.ip_off[kept + 1] = (start + hi - lo) as u32;
                kept += 1;
            }
            lo = hi;
        }
        self.domains.truncate(kept);
        self.domain_e2ld.truncate(kept);
        self.domain_labels.truncate(kept);
        self.domain_degree.truncate(kept);
        self.ip_off.truncate(kept + 1);
        self.ip_pool.truncate(self.ip_off[kept] as usize);

        // Machine side, with the same cursor discipline on `m_off`.
        let mut m_remap = vec![u32::MAX; self.machines.len()];
        let mut kept = 0;
        let mut lo = 0;
        for (mi, &keep) in keep_machine.iter().enumerate() {
            let hi = self.m_off[mi + 1] as usize;
            let start = self.m_off[kept] as usize;
            let mut end = start;
            if keep {
                for pos in lo..hi {
                    let d = d_remap[self.m_adj[pos] as usize];
                    if d != u32::MAX {
                        self.m_adj[end] = d;
                        end += 1;
                    }
                }
            }
            if end > start {
                m_remap[mi] = kept as u32;
                self.machines[kept] = self.machines[mi];
                (self.machine_labels[kept], self.machine_malware_degree[kept]) =
                    labeling::machine_label(&self.m_adj[start..end], &self.domain_labels);
                self.m_off[kept + 1] = end as u32;
                kept += 1;
            }
            lo = hi;
        }
        self.machines.truncate(kept);
        self.machine_labels.truncate(kept);
        self.machine_malware_degree.truncate(kept);
        self.m_off.truncate(kept + 1);
        self.m_adj.truncate(self.m_off[kept] as usize);

        // The adjacency is the graph's bulk: give the pruned tail back.
        self.m_adj.shrink_to_fit();
        self.queriers = OnceLock::new();

        #[cfg(debug_assertions)]
        if let Err(violation) = self.validate() {
            unreachable!("in-place compaction produced an invalid graph: {violation}");
        }
        self
    }
}

/// The value at `pct` (in `[0,1]`) of the sorted distribution, selected in
/// O(n) without sorting; `data` is reordered in place.
fn percentile(data: &mut [usize], pct: f64) -> usize {
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
    use segugio_model::{Day, DomainId, E2ldId, Ipv4, MachineId};

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

    #[test]
    fn probing_machines_are_removed() {
        let mut b = GraphBuilder::new(Day(0));
        // 40 malware domains, each with two ordinary victims.
        for d in 0..40u32 {
            b.add_query(MachineId(0), DomainId(d));
            b.add_query(MachineId(1), DomainId(d));
            b.set_e2ld(DomainId(d), E2ldId(d));
        }
        // An ordinary infected machine querying 3 of them.
        for d in 0..3u32 {
            b.add_query(MachineId(2), DomainId(d));
        }
        let mut g = b.build();
        apply_seed_labels(&mut g, |_| true, |_| false);
        // Machines 0 and 1 query 40 known malware domains: probers.
        let (filtered, removed) = g.without_probing_machines(21);
        assert_eq!(removed, 2);
        assert!(filtered.machine_idx(MachineId(0)).is_none());
        assert!(filtered.machine_idx(MachineId(2)).is_some());
        // No probers: graph unchanged.
        let before = format!("{filtered:?}");
        let (same, zero) = filtered.without_probing_machines(21);
        assert_eq!(zero, 0);
        assert_eq!(format!("{same:?}"), before);
    }

    /// In-place compaction dropping machines and domains at the front, in
    /// the middle and at the end, one kept machine left with no edge, and
    /// domains with zero, one and two IPs: equal to a rebuild from the
    /// surviving edges.
    #[test]
    fn compaction_equals_a_rebuild_of_the_survivors() {
        let ip = |d: u32, k: u32| Ipv4::from_octets(10, 0, d as u8, k as u8);
        let build = |edges: &[(u32, u32)]| {
            let mut b = GraphBuilder::new(Day(4));
            for &(m, d) in edges {
                b.add_query(MachineId(m), DomainId(d));
                b.set_e2ld(DomainId(d), E2ldId(d % 3));
                for k in 0..(d + 1) % 3 {
                    b.add_resolution(DomainId(d), ip(d, k));
                }
            }
            let mut g = b.build();
            apply_seed_labels(&mut g, |d| d == DomainId(3), |e| e == E2ldId(1));
            g
        };
        // Machines 0..5 query domains 0..5; machine 5 queries only domain 5.
        let mut edges: Vec<(u32, u32)> = (0..5).flat_map(|m| (0..5).map(move |d| (m, d))).collect();
        edges.push((5, 5));
        let keep_machine = [false, true, false, true, false, true];
        let keep_domain = [false, true, false, true, true, false];
        let survivors: Vec<(u32, u32)> = edges
            .iter()
            .copied()
            .filter(|&(m, d)| keep_machine[m as usize] && keep_domain[d as usize])
            .collect();
        let graph = build(&edges);
        let mut kept_degree = graph.kept_degrees(&keep_machine);
        for (degree, &keep) in kept_degree.iter_mut().zip(&keep_domain) {
            if !keep {
                *degree = 0;
            }
        }
        let compacted = graph.compact(&keep_machine, &kept_degree);
        assert_eq!(format!("{compacted:?}"), format!("{:?}", build(&survivors)));
        assert_eq!(compacted.machine_count(), 2);
        assert_eq!(compacted.domain_ips(DomainIdx(2)), &[ip(4, 0), ip(4, 1)]);
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
