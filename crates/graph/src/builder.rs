//! Construction of a [`BehaviorGraph`]: one counting-sort CSR constructor
//! behind every entry point.
//!
//! Whatever the source — an in-memory query list or spilled [`EdgeRuns`]
//! — the day's `(machine, domain)` pairs reach `csr_from_pairs` in any
//! order, with repeats (as loose pairs or as runs already grouped by
//! machine), and that function is the only code in this crate that turns
//! edges into CSR arrays.

use std::collections::HashMap;
use std::sync::OnceLock;

use segugio_model::{Day, DomainId, E2ldId, Ipv4, Label, MachineId};

use crate::graph::BehaviorGraph;
use crate::runs::{group_by_machine, machine_span, Stored};
use crate::EdgeRuns;

/// Accumulates one day of `(machine, domain)` query observations plus the
/// per-domain annotations, then freezes them into a [`BehaviorGraph`].
///
/// Duplicate queries of the same pair are collapsed (the graph is a set of
/// edges, not a multigraph). Unannotated domains get an empty IP set and,
/// if no e2LD was registered, a sentinel e2LD equal to their own id — the
/// builder is forgiving so tests can construct minimal graphs.
///
/// # Example
///
/// ```
/// use segugio_graph::GraphBuilder;
/// use segugio_model::{Day, DomainId, MachineId};
///
/// let mut b = GraphBuilder::new(Day(5));
/// b.add_query(MachineId(1), DomainId(9));
/// b.add_query(MachineId(1), DomainId(9)); // duplicate, collapsed
/// let g = b.build();
/// assert_eq!(g.edge_count(), 1);
/// assert_eq!(g.day(), Day(5));
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    day: Day,
    edges: Vec<(MachineId, DomainId)>,
    e2ld: HashMap<DomainId, E2ldId>,
    ips: Vec<(DomainId, Ipv4)>,
}

/// Builds from an in-memory query list, which reads without failing.
///
/// # Panics
///
/// If the list holds more than `u32::MAX` pairs, which the CSR's `u32`
/// offsets cannot index.
#[expect(
    clippy::panic,
    reason = "a list past u32::MAX pairs breaks the CSR's offset type, not a runtime condition"
)]
fn csr_from_queries<F: Fn(DomainId) -> E2ldId>(
    day: Day,
    queries: &[(MachineId, DomainId)],
    ip_pairs: Vec<(DomainId, Ipv4)>,
    e2ld_of: F,
) -> BehaviorGraph {
    match csr_from_pairs(day, machine_span(queries), queries, ip_pairs, e2ld_of) {
        Ok(graph) => graph,
        Err(err) => panic!("building a CSR from {} query pairs: {err}", queries.len()),
    }
}

/// Flattens per-domain resolution lists into `(domain, ip)` pairs.
fn flatten(resolutions: &[(DomainId, Vec<Ipv4>)]) -> Vec<(DomainId, Ipv4)> {
    let mut pairs = Vec::with_capacity(resolutions.iter().map(|(_, ips)| ips.len()).sum());
    for (d, ips) in resolutions {
        pairs.extend(ips.iter().map(|&ip| (*d, ip)));
    }
    pairs
}

/// The crate's only pairs → CSR constructor: a counting sort by machine.
///
/// `stored` holds the day's pairs in any order and with repeats, machine
/// ids within `machines_span` (`None` for no pairs). [`group_by_machine`]
/// builds the machine side. A counter over the domain id span then gives
/// each queried domain its degree and its dense rank, in ascending raw-id
/// order, and `m_adj` is remapped to ranks in place, so every list stays
/// ascending.
///
/// `e2ld_of` is consulted once per queried domain; `ip_pairs` may arrive
/// in any order with repeats, and pairs of unqueried domains are dropped.
fn csr_from_pairs<S, F>(
    day: Day,
    machines_span: Option<(u32, u32)>,
    stored: &S,
    mut ip_pairs: Vec<(DomainId, Ipv4)>,
    e2ld_of: F,
) -> std::io::Result<BehaviorGraph>
where
    S: Stored + ?Sized,
    F: Fn(DomainId) -> E2ldId,
{
    let (m_lo, (ends, mut m_adj, domain_span)) = match machines_span {
        Some(span) => (span.0, group_by_machine(span, stored)?),
        None => (0, (Vec::new(), Vec::new(), None)),
    };
    // Machines with a non-empty bucket, in ascending id order.
    let mut machines: Vec<MachineId> = Vec::new();
    let mut m_off: Vec<u32> = vec![0];
    let mut prev = 0u32;
    for (i, &end) in ends.iter().enumerate() {
        if end > prev {
            machines.push(MachineId(m_lo + i as u32));
            m_off.push(end);
            prev = end;
        }
    }
    drop(ends);
    // Repeats were dropped in place; give the unused tail back.
    m_adj.shrink_to_fit();

    // Dense domain ranks in ascending raw-id order, with their degrees;
    // the degree array, indexed by raw id minus the smallest, is reused as
    // the raw-id -> rank map.
    let (d_lo, d_hi) = domain_span.unwrap_or((0, 0));
    let mut d_rank = vec![0u32; domain_span.map_or(0, |_| (d_hi - d_lo) as usize + 1)];
    for &d in &m_adj {
        d_rank[(d - d_lo) as usize] += 1;
    }
    let mut domains: Vec<DomainId> = Vec::new();
    let mut domain_degree: Vec<u32> = Vec::new();
    for (i, slot) in d_rank.iter_mut().enumerate() {
        let deg = *slot;
        if deg > 0 {
            *slot = domains.len() as u32;
            domains.push(DomainId(d_lo + i as u32));
            domain_degree.push(deg);
        }
    }

    // Remap the machine adjacency to dense domain ranks in place.
    for slot in &mut m_adj {
        *slot = d_rank[(*slot - d_lo) as usize];
    }
    drop(d_rank);

    // Annotations: e2LD per queried domain, and a flat IP pool of
    // per-domain sorted deduped segments delimited by `ip_off` (one
    // backing allocation instead of one boxed slice per domain).
    let domain_e2ld: Vec<E2ldId> = domains.iter().map(|&d| e2ld_of(d)).collect();
    ip_pairs.sort_unstable();
    ip_pairs.dedup();
    let mut ip_off: Vec<u32> = Vec::with_capacity(domains.len() + 1);
    ip_off.push(0);
    let mut ip_pool: Vec<Ipv4> = Vec::with_capacity(ip_pairs.len());
    let mut pc = 0usize;
    for &d in &domains {
        while pc < ip_pairs.len() && ip_pairs[pc].0 < d {
            pc += 1;
        }
        while pc < ip_pairs.len() && ip_pairs[pc].0 == d {
            ip_pool.push(ip_pairs[pc].1);
            pc += 1;
        }
        ip_off.push(ip_pool.len() as u32);
    }

    let n_m = machines.len();
    let n_d = domains.len();
    let graph = BehaviorGraph {
        day,
        machines,
        domains,
        domain_e2ld,
        ip_off,
        ip_pool,
        m_off,
        m_adj,
        domain_degree,
        domain_labels: vec![Label::Unknown; n_d],
        machine_labels: vec![Label::Unknown; n_m],
        machine_malware_degree: vec![0; n_m],
        queriers: OnceLock::new(),
    };
    // Every structural invariant is checked on debug builds (tests,
    // proptests); release builds skip the O(edges) pass.
    #[cfg(debug_assertions)]
    if let Err(violation) = graph.validate() {
        unreachable!("constructor produced an invalid graph: {violation}");
    }
    Ok(graph)
}

impl GraphBuilder {
    /// Starts a builder for the given observation day.
    pub fn new(day: Day) -> Self {
        GraphBuilder {
            day,
            edges: Vec::new(),
            e2ld: HashMap::new(),
            ips: Vec::new(),
        }
    }

    /// Retired no-op (graph building is serial) — remove with the call in
    /// `benchmark/`'s `stages.rs` in the next `[benchmark]` PR.
    #[doc(hidden)]
    pub fn set_parallelism(&mut self, _threads: usize) {}

    /// Records that `machine` queried `domain`.
    pub fn add_query(&mut self, machine: MachineId, domain: DomainId) {
        self.edges.push((machine, domain));
    }

    /// Records several queries at once.
    pub fn add_queries<I: IntoIterator<Item = (MachineId, DomainId)>>(&mut self, queries: I) {
        self.edges.extend(queries);
    }

    /// Annotates `domain` with its e2LD id.
    pub fn set_e2ld(&mut self, domain: DomainId, e2ld: E2ldId) {
        self.e2ld.insert(domain, e2ld);
    }

    /// Adds a resolved IP to `domain`'s annotation.
    pub fn add_resolution(&mut self, domain: DomainId, ip: Ipv4) {
        self.ips.push((domain, ip));
    }

    /// Number of recorded (possibly duplicate) query observations.
    pub fn query_count(&self) -> usize {
        self.edges.len()
    }

    /// Freezes the builder into an immutable graph. All labels start as
    /// [`Label::Unknown`].
    pub fn build(self) -> BehaviorGraph {
        let GraphBuilder {
            day,
            edges,
            e2ld,
            ips,
        } = self;
        csr_from_queries(day, &edges, ips, |d| {
            e2ld.get(&d).copied().unwrap_or(E2ldId(d.0))
        })
    }

    /// Builds a day's graph from a borrowed query list (any order,
    /// duplicates welcome) without per-domain builder calls: `e2ld_of`
    /// must return the annotation for every queried domain — including the
    /// [sentinel](GraphBuilder) `E2ldId(d.0)` for domains
    /// [`build`](Self::build) would leave unannotated — and `resolutions`
    /// holds the `(domain, ips)` pairs that would have gone through
    /// [`add_resolution`](Self::add_resolution). Identical to `build` on
    /// the same observations.
    pub fn from_queries<F>(
        day: Day,
        queries: &[(MachineId, DomainId)],
        resolutions: &[(DomainId, Vec<Ipv4>)],
        e2ld_of: F,
    ) -> BehaviorGraph
    where
        F: Fn(DomainId) -> E2ldId,
    {
        csr_from_queries(day, queries, flatten(resolutions), e2ld_of)
    }

    /// Builds a day's graph from accumulated [`EdgeRuns`], for
    /// paper-scale days: the sealed runs are read twice in their grouped
    /// form (heads only to count, then each machine's domain slice), so
    /// peak memory is the output CSR plus the counting arrays, never a
    /// second copy of the observations. Same contract and same output as
    /// [`from_queries`](Self::from_queries) over the pushed observations.
    ///
    /// # Errors
    ///
    /// Errors surface only from reading back spilled runs, or as
    /// [`std::io::ErrorKind::InvalidData`] past `u32::MAX` stored pairs;
    /// the accumulator is untouched, so callers with the query list still
    /// in memory can fall back to [`from_queries`](Self::from_queries).
    pub fn from_runs<F>(
        day: Day,
        runs: &EdgeRuns,
        resolutions: &[(DomainId, Vec<Ipv4>)],
        e2ld_of: F,
    ) -> std::io::Result<BehaviorGraph>
    where
        F: Fn(DomainId) -> E2ldId,
    {
        csr_from_pairs(
            day,
            runs.machine_span(),
            runs,
            flatten(resolutions),
            e2ld_of,
        )
    }
}

/// Retired — remove with `graph.delta_advance_s` in the next `[benchmark]`
/// PR. Stateless; `advance` is [`GraphBuilder::from_queries`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct DeltaBuilder;

#[doc(hidden)]
impl DeltaBuilder {
    pub fn new(_initial: &BehaviorGraph) -> Self {
        DeltaBuilder
    }
    pub fn advance<F: Fn(DomainId) -> E2ldId>(
        &mut self,
        day: Day,
        queries: &[(MachineId, DomainId)],
        resolutions: &[(DomainId, Vec<Ipv4>)],
        e2ld_of: F,
    ) -> BehaviorGraph {
        GraphBuilder::from_queries(day, queries, resolutions, e2ld_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(Day(0)).build();
        assert_eq!(g.machine_count(), 0);
        assert_eq!(g.domain_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut b = GraphBuilder::new(Day(0));
        for _ in 0..5 {
            b.add_query(MachineId(1), DomainId(2));
        }
        assert_eq!(b.query_count(), 5);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn annotations_dedup_and_default() {
        let mut b = GraphBuilder::new(Day(0));
        b.add_query(MachineId(1), DomainId(2));
        b.add_query(MachineId(1), DomainId(3));
        let ip = Ipv4::from_octets(1, 2, 3, 4);
        b.add_resolution(DomainId(2), ip);
        b.add_resolution(DomainId(2), ip);
        b.set_e2ld(DomainId(2), E2ldId(77));
        let g = b.build();
        let d2 = g.domain_idx(DomainId(2)).unwrap();
        let d3 = g.domain_idx(DomainId(3)).unwrap();
        assert_eq!(g.domain_ips(d2), &[ip]);
        assert!(g.domain_ips(d3).is_empty());
        assert_eq!(g.domain_e2ld(d2), E2ldId(77));
        // Sentinel e2LD for unannotated domain.
        assert_eq!(g.domain_e2ld(d3), E2ldId(3));
    }

    /// Every stored field must match — the entry points' contract is
    /// bit-for-bit, not just observational.
    fn assert_identical(a: &BehaviorGraph, b: &BehaviorGraph) {
        assert_eq!(a.day, b.day);
        assert_eq!(a.machines, b.machines);
        assert_eq!(a.domains, b.domains);
        assert_eq!(a.domain_e2ld, b.domain_e2ld);
        assert_eq!(a.ip_off, b.ip_off);
        assert_eq!(a.ip_pool, b.ip_pool);
        assert_eq!(a.m_off, b.m_off);
        assert_eq!(a.m_adj, b.m_adj);
        assert_eq!(a.domain_degree, b.domain_degree);
        assert_eq!(a.domain_labels, b.domain_labels);
        assert_eq!(a.machine_labels, b.machine_labels);
        assert_eq!(a.machine_malware_degree, b.machine_malware_degree);
    }

    /// Builds the same observations through the accumulating builder, the
    /// borrowed-query entry and the streamed run entry (at `run_capacity`,
    /// tiny values forcing spill), checks bit-for-bit identity, and checks
    /// the edges and IPs against plain sets.
    fn check_entry_points_agree(
        queries: &[(MachineId, DomainId)],
        resolutions: &[(DomainId, Vec<Ipv4>)],
        e2ld: &[(DomainId, E2ldId)],
        run_capacity: usize,
    ) {
        let mut b = GraphBuilder::new(Day(3));
        b.add_queries(queries.iter().copied());
        for (d, ips) in resolutions {
            for &ip in ips {
                b.add_resolution(*d, ip);
            }
        }
        for &(d, e) in e2ld {
            b.set_e2ld(d, e);
        }
        let reference = b.build();
        let r = &reference;
        let edges: Vec<_> = r
            .machine_indices()
            .flat_map(|m| {
                r.domains_of(m)
                    .map(move |d| (r.machine_id(m), r.domain_id(d)))
            })
            .collect();
        assert!(edges
            .iter()
            .eq(&queries.iter().copied().collect::<BTreeSet<_>>()));
        for d in r.domain_indices() {
            let ips = resolutions.iter().filter(|(rd, _)| *rd == r.domain_id(d));
            let ips: BTreeSet<Ipv4> = ips.flat_map(|(_, ips)| ips.iter().copied()).collect();
            assert!(r.domain_ips(d).iter().eq(&ips));
        }

        // Last entry wins, mirroring repeated `set_e2ld` overwrites.
        let e2ld_of = |d: DomainId| {
            e2ld.iter()
                .rev()
                .find(|&&(dd, _)| dd == d)
                .map_or(E2ldId(d.0), |&(_, e)| e)
        };
        let borrowed = GraphBuilder::from_queries(Day(3), queries, resolutions, e2ld_of);
        assert_identical(&reference, &borrowed);

        let mut runs = crate::EdgeRuns::with_run_capacity(run_capacity);
        runs.extend(queries.iter().copied());
        let streamed = GraphBuilder::from_runs(Day(3), &runs, resolutions, e2ld_of)
            .expect("in-memory or spilled replay must succeed");
        streamed.validate().expect("streamed graph must validate");
        assert_identical(&reference, &streamed);
    }

    #[test]
    fn entry_points_agree_on_handwritten_day() {
        let ip = |a: u8| Ipv4::from_octets(10, 0, 0, a);
        let queries = [
            (MachineId(7), DomainId(2)),
            (MachineId(1), DomainId(9)),
            (MachineId(7), DomainId(2)), // duplicate
            (MachineId(1), DomainId(2)),
            (MachineId(3), DomainId(40)),
            (MachineId(7), DomainId(9)),
        ];
        let resolutions = vec![
            (DomainId(2), vec![ip(4), ip(1), ip(4)]),
            (DomainId(9), vec![ip(9)]),
            (DomainId(77), vec![ip(5)]), // never queried: dropped by both
        ];
        let e2ld = [(DomainId(2), E2ldId(100)), (DomainId(9), E2ldId(100))];
        // Capacity 2 forces several sealed (spilled) runs; a huge capacity
        // exercises the single-open-run path.
        for cap in [2, 1 << 20] {
            check_entry_points_agree(&queries, &resolutions, &e2ld, cap);
        }
    }

    #[test]
    fn from_runs_empty_is_empty() {
        let runs = crate::EdgeRuns::new();
        let g = GraphBuilder::from_runs(Day(8), &runs, &[], |d| E2ldId(d.0)).expect("empty");
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.day(), Day(8));
        g.validate().expect("empty graph validates");
    }

    use proptest::prelude::*;

    proptest! {
        /// Random edge sets, annotations and run capacities (1..8 forces
        /// heavy spilling), with ids from 0 or clustered just under
        /// `u32::MAX` (counting arrays span the ids present, not
        /// `0..=max`): every entry point must produce the same graph, bit
        /// for bit, it must match the set oracle and be structurally valid.
        #[test]
        #[cfg_attr(miri, ignore = "spill-file proptest volume is too slow under Miri")]
        fn entry_points_always_agree(
            queries in proptest::collection::vec((0u32..24, 0u32..32), 0..200),
            resolved in proptest::collection::vec((0u32..40, proptest::collection::vec(0u32..50, 0..4)), 0..12),
            e2lds in proptest::collection::vec((0u32..32, 0u32..6), 0..10),
            run_capacity in 1usize..8,
            near_max in any::<bool>(),
        ) {
            let id = |x: u32| if near_max { u32::MAX - x } else { x };
            let queries: Vec<(MachineId, DomainId)> = queries
                .into_iter()
                .map(|(m, d)| (MachineId(id(m)), DomainId(id(d))))
                .collect();
            let resolutions: Vec<(DomainId, Vec<Ipv4>)> = resolved
                .into_iter()
                .map(|(d, ips)| (DomainId(id(d)), ips.into_iter().map(Ipv4).collect()))
                .collect();
            let e2ld: Vec<(DomainId, E2ldId)> = e2lds
                .into_iter()
                .map(|(d, e)| (DomainId(id(d)), E2ldId(e)))
                .collect();
            check_entry_points_agree(&queries, &resolutions, &e2ld, run_capacity);
        }
    }
}
