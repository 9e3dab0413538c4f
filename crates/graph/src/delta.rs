//! Day-over-day incremental graph construction.
//!
//! Consecutive days of ISP traffic share most of their edges: the same
//! machines query mostly the same domains. [`DeltaBuilder`] exploits that
//! overlap by carrying yesterday's frozen [`BehaviorGraph`] — whose node
//! lists and CSR arrays are already sorted — and building today's graph
//! with one classification pass over today's raw queries plus sorted
//! merges, instead of re-sorting the full edge list from scratch.
//!
//! The output is **bit-for-bit identical** to what
//! [`GraphBuilder`](crate::GraphBuilder) produces from the same day's
//! input: same node order, same CSR layout, same annotations, labels reset
//! to [`Label::Unknown`]. Downstream labeling/pruning/feature code cannot
//! observe which path built the graph.

use segugio_model::{Day, DomainId, E2ldId, Ipv4, Label, MachineId};

use crate::graph::BehaviorGraph;

/// Builds each day's graph as a delta against the previous day's.
///
/// Seed it with the first day's graph (built by
/// [`GraphBuilder`](crate::GraphBuilder)), then call
/// [`advance`](Self::advance) once per subsequent day.
///
/// # Example
///
/// ```
/// use segugio_graph::{DeltaBuilder, GraphBuilder};
/// use segugio_model::{Day, DomainId, E2ldId, MachineId};
///
/// let mut b = GraphBuilder::new(Day(0));
/// b.add_query(MachineId(1), DomainId(7));
/// let day0 = b.build();
/// let mut delta = DeltaBuilder::new(&day0);
/// // Day 1: machine 1 keeps querying domain 7, machine 2 appears.
/// let day1 = delta.advance(
///     Day(1),
///     &[(MachineId(1), DomainId(7)), (MachineId(2), DomainId(7))],
///     &[],
///     |d| E2ldId(d.0),
/// );
/// assert_eq!(day1.edge_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaBuilder {
    prev: BehaviorGraph,
    scratch: DeltaScratch,
}

/// Per-day transient state of [`DeltaBuilder::advance`], kept on the
/// builder so consecutive days reuse the same heap blocks instead of
/// reallocating O(edges) of scratch every morning.
#[derive(Debug, Clone, Default)]
struct DeltaScratch {
    /// Which positions of yesterday's machine-CSR survived into today.
    seen: Vec<bool>,
    /// Today's genuinely new edges, sorted and deduped.
    added: Vec<(MachineId, DomainId)>,
    /// Domain column of `added`, re-sorted by domain.
    add_domains: Vec<DomainId>,
    /// Flattened, sorted, deduped `(domain, ip)` resolution pairs.
    pairs: Vec<(DomainId, Ipv4)>,
    /// Per-domain scatter cursor for the domain-CSR fill.
    cursor: Vec<u32>,
    /// Surviving-edge degree per old machine / domain (step 2).
    kept_m_deg: Vec<u32>,
    kept_d_deg: Vec<u32>,
    /// Added-edge degree per old machine / domain (step 3).
    add_m_deg: Vec<u32>,
    add_d_deg: Vec<u32>,
    /// Machines / `(domain, degree)` pairs appearing for the first time
    /// today (step 3).
    new_machines: Vec<MachineId>,
    new_domains: Vec<(DomainId, u32)>,
    /// Old→next domain index remap, `u32::MAX` for dropped domains
    /// (step 4).
    remap_d: Vec<u32>,
    /// Per next machine: its index in yesterday's machine list, or
    /// `u32::MAX` when new (step 4).
    m_prev_idx: Vec<u32>,
    /// Merged (surviving + added) degree per next domain (step 4).
    d_deg_next: Vec<u32>,
}

impl DeltaBuilder {
    /// Starts delta construction from `initial`, typically the first day's
    /// from-scratch graph.
    pub fn new(initial: &BehaviorGraph) -> Self {
        DeltaBuilder {
            prev: initial.clone(),
            scratch: DeltaScratch::default(),
        }
    }

    /// The graph the next [`advance`](Self::advance) will diff against.
    pub fn prev(&self) -> &BehaviorGraph {
        &self.prev
    }

    /// Builds `day`'s graph from raw `queries` and per-domain `resolutions`,
    /// reusing yesterday's sorted structure for every edge that persists.
    ///
    /// `e2ld_of` must assign the same e2LD a `GraphBuilder` caller would via
    /// [`set_e2ld`](crate::GraphBuilder::set_e2ld); it is consulted for
    /// every domain appearing in `queries`. Resolutions of domains that were
    /// not queried today are ignored, exactly as `GraphBuilder` drops
    /// annotations for domains outside the edge list.
    pub fn advance<F>(
        &mut self,
        day: Day,
        queries: &[(MachineId, DomainId)],
        resolutions: &[(DomainId, Vec<Ipv4>)],
        e2ld_of: F,
    ) -> BehaviorGraph
    where
        F: Fn(DomainId) -> E2ldId,
    {
        let DeltaBuilder { prev, scratch } = self;
        let prev = &*prev;
        let nm = prev.machines.len();
        let nd = prev.domains.len();
        let ne = prev.m_adj.len();

        // 1. Classify today's queries against yesterday's edge set: an edge
        //    that already existed marks its position in the old machine-CSR
        //    as still live; everything else is a genuinely new edge.
        let seen = &mut scratch.seen;
        seen.clear();
        seen.resize(ne, false);
        let added = &mut scratch.added;
        added.clear();
        for &(m, d) in queries {
            let (Ok(mi), Ok(di)) = (
                prev.machines.binary_search(&m),
                prev.domains.binary_search(&d),
            ) else {
                added.push((m, d));
                continue;
            };
            let lo = prev.m_off[mi] as usize;
            let hi = prev.m_off[mi + 1] as usize;
            match prev.m_adj[lo..hi].binary_search(&(di as u32)) {
                Ok(pos) => seen[lo + pos] = true,
                Err(_) => added.push((m, d)),
            }
        }
        added.sort_unstable();
        added.dedup();

        // 2. Surviving-edge degrees per old node.
        let kept_m_deg = &mut scratch.kept_m_deg;
        kept_m_deg.clear();
        kept_m_deg.resize(nm, 0);
        let kept_d_deg = &mut scratch.kept_d_deg;
        kept_d_deg.clear();
        kept_d_deg.resize(nd, 0);
        let mut kept_edges = 0usize;
        for (mi, deg) in kept_m_deg.iter_mut().enumerate() {
            for pos in prev.m_off[mi] as usize..prev.m_off[mi + 1] as usize {
                if seen[pos] {
                    *deg += 1;
                    kept_d_deg[prev.m_adj[pos] as usize] += 1;
                    kept_edges += 1;
                }
            }
        }

        // 3. Added-edge degrees, split between old nodes and brand-new ones.
        //    `added` is sorted by machine, so machine runs are contiguous and
        //    `new_machines` comes out sorted.
        let add_m_deg = &mut scratch.add_m_deg;
        add_m_deg.clear();
        add_m_deg.resize(nm, 0);
        let new_machines = &mut scratch.new_machines;
        new_machines.clear();
        let mut i = 0;
        while i < added.len() {
            let m = added[i].0;
            let mut j = i;
            while j < added.len() && added[j].0 == m {
                j += 1;
            }
            match prev.machines.binary_search(&m) {
                Ok(mi) => add_m_deg[mi] += (j - i) as u32,
                Err(_) => new_machines.push(m),
            }
            i = j;
        }
        let add_domains = &mut scratch.add_domains;
        add_domains.clear();
        add_domains.extend(added.iter().map(|&(_, d)| d));
        add_domains.sort_unstable();
        let add_d_deg = &mut scratch.add_d_deg;
        add_d_deg.clear();
        add_d_deg.resize(nd, 0);
        let new_domains = &mut scratch.new_domains;
        new_domains.clear();
        let mut i = 0;
        while i < add_domains.len() {
            let d = add_domains[i];
            let mut j = i;
            while j < add_domains.len() && add_domains[j] == d {
                j += 1;
            }
            match prev.domains.binary_search(&d) {
                Ok(di) => add_d_deg[di] += (j - i) as u32,
                Err(_) => new_domains.push((d, (j - i) as u32)),
            }
            i = j;
        }

        // 4. Merge old (still-connected) and new node lists. Both inputs are
        //    sorted and disjoint, so each output list is sorted and the
        //    old→new index remaps are monotone — exactly the order a scratch
        //    sort of today's edges would produce.
        let mut machines_next: Vec<MachineId> = Vec::with_capacity(nm + new_machines.len());
        // For each next machine: its index in `prev.machines`, or u32::MAX
        // if it is new today.
        let m_prev_idx = &mut scratch.m_prev_idx;
        m_prev_idx.clear();
        let (mut pi, mut ni) = (0usize, 0usize);
        while pi < nm || ni < new_machines.len() {
            let take_prev =
                ni >= new_machines.len() || (pi < nm && prev.machines[pi] < new_machines[ni]);
            if take_prev {
                if kept_m_deg[pi] + add_m_deg[pi] > 0 {
                    machines_next.push(prev.machines[pi]);
                    m_prev_idx.push(pi as u32);
                }
                pi += 1;
            } else {
                machines_next.push(new_machines[ni]);
                m_prev_idx.push(u32::MAX);
                ni += 1;
            }
        }

        let mut domains_next: Vec<DomainId> = Vec::with_capacity(nd + new_domains.len());
        let remap_d = &mut scratch.remap_d;
        remap_d.clear();
        remap_d.resize(nd, u32::MAX);
        // Degree of each next domain (surviving + added edges).
        let d_deg_next = &mut scratch.d_deg_next;
        d_deg_next.clear();
        let (mut pi, mut ni) = (0usize, 0usize);
        while pi < nd || ni < new_domains.len() {
            let take_prev =
                ni >= new_domains.len() || (pi < nd && prev.domains[pi] < new_domains[ni].0);
            if take_prev {
                let deg = kept_d_deg[pi] + add_d_deg[pi];
                if deg > 0 {
                    remap_d[pi] = domains_next.len() as u32;
                    domains_next.push(prev.domains[pi]);
                    d_deg_next.push(deg);
                }
                pi += 1;
            } else {
                domains_next.push(new_domains[ni].0);
                d_deg_next.push(new_domains[ni].1);
                ni += 1;
            }
        }
        let resolve_domain = |d: DomainId| -> u32 {
            match domains_next.binary_search(&d) {
                Ok(idx) => idx as u32,
                Err(_) => unreachable!("added-edge domain missing from merged domain list"),
            }
        };

        // 5. Machine CSR: per machine, merge its surviving old neighbors
        //    (already ascending after the monotone remap) with its run of
        //    added edges (ascending, disjoint from the survivors).
        let total_edges = kept_edges + added.len();
        let mut m_off_next: Vec<u32> = Vec::with_capacity(machines_next.len() + 1);
        m_off_next.push(0);
        let mut m_adj_next: Vec<u32> = Vec::with_capacity(total_edges);
        let mut ac = 0usize;
        for (next_i, &m) in machines_next.iter().enumerate() {
            let run_start = ac;
            while ac < added.len() && added[ac].0 == m {
                ac += 1;
            }
            let mut add_pos = run_start;
            match m_prev_idx[next_i] {
                u32::MAX => {
                    for &(_, d) in &added[add_pos..ac] {
                        m_adj_next.push(resolve_domain(d));
                    }
                }
                prev_mi => {
                    let mi = prev_mi as usize;
                    let mut prev_pos = prev.m_off[mi] as usize;
                    let prev_hi = prev.m_off[mi + 1] as usize;
                    loop {
                        while prev_pos < prev_hi && !seen[prev_pos] {
                            prev_pos += 1;
                        }
                        match (prev_pos < prev_hi, add_pos < ac) {
                            (false, false) => break,
                            (true, false) => {
                                m_adj_next.push(remap_d[prev.m_adj[prev_pos] as usize]);
                                prev_pos += 1;
                            }
                            (false, true) => {
                                m_adj_next.push(resolve_domain(added[add_pos].1));
                                add_pos += 1;
                            }
                            (true, true) => {
                                let pv = remap_d[prev.m_adj[prev_pos] as usize];
                                let av = resolve_domain(added[add_pos].1);
                                if pv < av {
                                    m_adj_next.push(pv);
                                    prev_pos += 1;
                                } else {
                                    m_adj_next.push(av);
                                    add_pos += 1;
                                }
                            }
                        }
                    }
                }
            }
            m_off_next.push(m_adj_next.len() as u32);
        }

        // 6. Domain CSR: prefix-sum the merged degrees, then scatter by
        //    walking machines in ascending order — each domain's querier
        //    list comes out sorted without a per-domain sort pass.
        let mut d_off_next: Vec<u32> = vec![0; domains_next.len() + 1];
        for (i, &deg) in d_deg_next.iter().enumerate() {
            d_off_next[i + 1] = d_off_next[i] + deg;
        }
        let cursor = &mut scratch.cursor;
        cursor.clear();
        cursor.extend_from_slice(&d_off_next[..domains_next.len()]);
        let mut d_adj_next: Vec<u32> = vec![0; total_edges];
        for next_m in 0..machines_next.len() {
            let lo = m_off_next[next_m] as usize;
            let hi = m_off_next[next_m + 1] as usize;
            for &dn in &m_adj_next[lo..hi] {
                d_adj_next[cursor[dn as usize] as usize] = next_m as u32;
                cursor[dn as usize] += 1;
            }
        }

        // 7. Annotations come from *today's* observations only, mirroring
        //    the scratch builder (per-domain sorted, deduped IP sets).
        let pairs = &mut scratch.pairs;
        pairs.clear();
        pairs.extend(
            resolutions
                .iter()
                .flat_map(|(d, ips)| ips.iter().map(move |&ip| (*d, ip))),
        );
        pairs.sort_unstable();
        pairs.dedup();
        let mut ip_off: Vec<u32> = Vec::with_capacity(domains_next.len() + 1);
        ip_off.push(0);
        let mut ip_pool: Vec<Ipv4> = Vec::with_capacity(pairs.len());
        let mut pc = 0usize;
        for &d in &domains_next {
            while pc < pairs.len() && pairs[pc].0 < d {
                pc += 1;
            }
            while pc < pairs.len() && pairs[pc].0 == d {
                ip_pool.push(pairs[pc].1);
                pc += 1;
            }
            ip_off.push(ip_pool.len() as u32);
        }
        let domain_e2ld: Vec<E2ldId> = domains_next.iter().map(|&d| e2ld_of(d)).collect();

        let n_m = machines_next.len();
        let n_d = domains_next.len();
        let graph = BehaviorGraph {
            day,
            machines: machines_next,
            domains: domains_next,
            domain_e2ld,
            ip_off,
            ip_pool,
            m_off: m_off_next,
            m_adj: m_adj_next,
            d_off: d_off_next,
            d_adj: d_adj_next,
            domain_labels: vec![Label::Unknown; n_d],
            machine_labels: vec![Label::Unknown; n_m],
            machine_malware_degree: vec![0; n_m],
        };
        #[cfg(debug_assertions)]
        if let Err(violation) = graph.validate() {
            unreachable!("delta builder produced an invalid graph: {violation}");
        }
        // The builder keeps today's graph to diff tomorrow against while the
        // caller owns the return: one O(graph) copy per day.
        self.prev = graph.clone();
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use proptest::prelude::*;

    /// Builds the same day from scratch so delta output can be compared.
    fn scratch(
        day: Day,
        queries: &[(MachineId, DomainId)],
        resolutions: &[(DomainId, Vec<Ipv4>)],
    ) -> BehaviorGraph {
        let mut b = GraphBuilder::new(day);
        b.add_queries(queries.iter().copied());
        for (d, ips) in resolutions {
            b.set_e2ld(*d, E2ldId(d.0 / 2));
            for &ip in ips {
                b.add_resolution(*d, ip);
            }
        }
        for &(_, d) in queries {
            b.set_e2ld(d, E2ldId(d.0 / 2));
        }
        b.build()
    }

    fn assert_same(a: &BehaviorGraph, b: &BehaviorGraph) {
        assert_eq!(a.day, b.day);
        assert_eq!(a.machines, b.machines);
        assert_eq!(a.domains, b.domains);
        assert_eq!(a.domain_e2ld, b.domain_e2ld);
        assert_eq!(a.ip_off, b.ip_off);
        assert_eq!(a.ip_pool, b.ip_pool);
        assert_eq!(a.m_off, b.m_off);
        assert_eq!(a.m_adj, b.m_adj);
        assert_eq!(a.d_off, b.d_off);
        assert_eq!(a.d_adj, b.d_adj);
        assert_eq!(a.domain_labels, b.domain_labels);
        assert_eq!(a.machine_labels, b.machine_labels);
        assert_eq!(a.machine_malware_degree, b.machine_malware_degree);
    }

    #[test]
    fn advance_matches_scratch_on_handwritten_days() {
        let days: Vec<Vec<(u32, u32)>> = vec![
            // Day 0: a small clique.
            vec![(1, 10), (1, 11), (2, 10), (2, 12)],
            // Day 1: one edge dropped, one added, one new machine + domain.
            vec![(1, 10), (1, 11), (2, 12), (2, 13), (5, 99)],
            // Day 2: everything churns away except one edge.
            vec![(5, 99), (7, 3)],
            // Day 3: empty day.
            vec![],
            // Day 4: everything returns.
            vec![(1, 10), (1, 11), (2, 10), (2, 12), (5, 99)],
        ];
        let to_queries = |day: &[(u32, u32)]| -> Vec<(MachineId, DomainId)> {
            day.iter()
                .map(|&(m, d)| (MachineId(m), DomainId(d)))
                .collect()
        };
        let q0 = to_queries(&days[0]);
        let first = scratch(Day(0), &q0, &[]);
        let mut delta = DeltaBuilder::new(&first);
        for (i, day) in days.iter().enumerate().skip(1) {
            let q = to_queries(day);
            let incremental = delta.advance(Day(i as u32), &q, &[], |d| E2ldId(d.0 / 2));
            assert_same(&incremental, &scratch(Day(i as u32), &q, &[]));
        }
    }

    #[test]
    fn resolutions_annotate_only_queried_domains() {
        let q0 = vec![(MachineId(1), DomainId(4))];
        let mut delta = DeltaBuilder::new(&scratch(Day(0), &q0, &[]));
        let q1 = vec![(MachineId(1), DomainId(4)), (MachineId(1), DomainId(5))];
        let ip = |n| Ipv4::from_octets(10, 0, 0, n);
        let res = vec![
            (DomainId(4), vec![ip(2), ip(1), ip(2)]),
            // Never queried today: dropped, like GraphBuilder's ips map.
            (DomainId(77), vec![ip(9)]),
        ];
        let g = delta.advance(Day(1), &q1, &res, |d| E2ldId(d.0 / 2));
        assert_same(&g, &scratch(Day(1), &q1, &res));
        let d4 = g.domain_idx(DomainId(4)).unwrap();
        assert_eq!(g.domain_ips(d4), &[ip(1), ip(2)]);
        assert!(g.domain_idx(DomainId(77)).is_none());
    }

    #[test]
    fn repeated_advances_keep_matching() {
        // Deterministic pseudo-random multi-day churn without rand: a simple
        // LCG drives which edges exist each day.
        let mut state = 0x2545F491u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut prev_queries: Vec<(MachineId, DomainId)> = Vec::new();
        let mut delta: Option<DeltaBuilder> = None;
        for day in 0..12u32 {
            let mut queries: Vec<(MachineId, DomainId)> = Vec::new();
            // ~70% of yesterday's edges persist.
            for &e in &prev_queries {
                if next() % 10 < 7 {
                    queries.push(e);
                }
            }
            // A handful of fresh edges, possibly duplicating survivors.
            for _ in 0..(next() % 20) {
                queries.push((MachineId(next() % 15), DomainId(next() % 40)));
            }
            let reference = scratch(Day(day), &queries, &[]);
            match delta.as_mut() {
                None => delta = Some(DeltaBuilder::new(&reference)),
                Some(d) => {
                    let g = d.advance(Day(day), &queries, &[], |d| E2ldId(d.0 / 2));
                    assert_same(&g, &reference);
                }
            }
            prev_queries = queries;
        }
    }

    proptest! {
        #[test]
        #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
        fn advance_always_matches_scratch(
            day_edges in proptest::collection::vec(
                proptest::collection::vec((0u32..12, 0u32..25), 0..60),
                2..6,
            ),
        ) {
            let to_queries = |day: &Vec<(u32, u32)>| -> Vec<(MachineId, DomainId)> {
                day.iter().map(|&(m, d)| (MachineId(m), DomainId(d))).collect()
            };
            let q0 = to_queries(&day_edges[0]);
            let mut delta = DeltaBuilder::new(&scratch(Day(0), &q0, &[]));
            for (i, day) in day_edges.iter().enumerate().skip(1) {
                let q = to_queries(day);
                let g = delta.advance(Day(i as u32), &q, &[], |d| E2ldId(d.0 / 2));
                assert_same(&g, &scratch(Day(i as u32), &q, &[]));
            }
        }
    }
}
