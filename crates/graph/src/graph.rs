//! The compact bipartite graph representation.

use std::sync::OnceLock;

use segugio_model::{Day, DomainId, E2ldId, Ipv4, Label, MachineId};

/// Internal dense index of a machine node within one [`BehaviorGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineIdx(pub u32);

impl MachineIdx {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Internal dense index of a domain node within one [`BehaviorGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainIdx(pub u32);

impl DomainIdx {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One day of "who is querying what", with domain annotations and node
/// labels.
///
/// Edges are stored once, as a CSR from each machine to the domains it
/// queried, ascending. The domain side keeps only each domain's degree:
/// every per-domain count the pipeline needs (F1, R3, R4, implicated
/// machines) is one pass over the machine lists scattering into
/// per-domain counters.
///
/// Build with [`GraphBuilder`](crate::GraphBuilder): the day pipeline
/// builds it labeled and pruned in one go
/// ([`GraphBuilder::pruned_from_runs`](crate::GraphBuilder::pruned_from_runs),
/// [`pruned_from_queries`](crate::GraphBuilder::pruned_from_queries));
/// an unpruned graph can be labeled with
/// [`labeling::apply_seed_labels`](crate::labeling::apply_seed_labels).
#[derive(Debug, Clone)]
pub struct BehaviorGraph {
    pub(crate) day: Day,
    // External identities, one per internal index.
    pub(crate) machines: Vec<MachineId>,
    pub(crate) domains: Vec<DomainId>,
    // Domain annotations. The resolved-IP sets live in one flat pool
    // (`ip_pool`) with per-domain segment boundaries in `ip_off` — the
    // same offsets-into-flat-storage shape as the CSR adjacency, so a
    // million-domain graph costs two allocations here instead of one
    // boxed slice per domain.
    pub(crate) domain_e2ld: Vec<E2ldId>,
    pub(crate) ip_off: Vec<u32>,
    pub(crate) ip_pool: Vec<Ipv4>,
    // CSR adjacency, machine -> domains.
    pub(crate) m_off: Vec<u32>,
    pub(crate) m_adj: Vec<u32>,
    // Per domain: the number of machines that queried it.
    pub(crate) domain_degree: Vec<u32>,
    // Labels.
    pub(crate) domain_labels: Vec<Label>,
    pub(crate) machine_labels: Vec<Label>,
    /// Per machine: number of adjacent domains currently labeled malware.
    pub(crate) machine_malware_degree: Vec<u32>,
    /// [`machines_of`](Self::machines_of)'s querier index, as domain
    /// offsets and machine indices, built on its first call; any change to
    /// the edges must reset it.
    pub(crate) queriers: OnceLock<(Vec<u32>, Vec<u32>)>,
}

impl BehaviorGraph {
    /// The observation day this graph summarizes.
    pub fn day(&self) -> Day {
        self.day
    }

    /// Number of machine nodes.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Number of domain nodes.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.m_adj.len()
    }

    /// Iterates over all machine indices.
    pub fn machine_indices(&self) -> impl Iterator<Item = MachineIdx> {
        (0..self.machines.len() as u32).map(MachineIdx)
    }

    /// Iterates over all domain indices.
    pub fn domain_indices(&self) -> impl Iterator<Item = DomainIdx> {
        (0..self.domains.len() as u32).map(DomainIdx)
    }

    /// The external id of machine `m`.
    pub fn machine_id(&self, m: MachineIdx) -> MachineId {
        self.machines[m.index()]
    }

    /// The external id of domain `d`.
    pub fn domain_id(&self, d: DomainIdx) -> DomainId {
        self.domains[d.index()]
    }

    /// Finds the internal index of an external domain id, if present.
    pub fn domain_idx(&self, id: DomainId) -> Option<DomainIdx> {
        self.domains
            .binary_search(&id)
            .ok()
            .map(|i| DomainIdx(i as u32))
    }

    /// Finds the internal index of an external machine id, if present.
    pub fn machine_idx(&self, id: MachineId) -> Option<MachineIdx> {
        self.machines
            .binary_search(&id)
            .ok()
            .map(|i| MachineIdx(i as u32))
    }

    /// The e2LD annotation of domain `d`.
    pub fn domain_e2ld(&self, d: DomainIdx) -> E2ldId {
        self.domain_e2ld[d.index()]
    }

    /// The resolved-IP annotation of domain `d` (the IPs it mapped to during
    /// the observation day).
    pub fn domain_ips(&self, d: DomainIdx) -> &[Ipv4] {
        let lo = self.ip_off[d.index()] as usize;
        let hi = self.ip_off[d.index() + 1] as usize;
        &self.ip_pool[lo..hi]
    }

    /// The domains queried by machine `m`.
    pub fn domains_of(&self, m: MachineIdx) -> impl Iterator<Item = DomainIdx> + '_ {
        let lo = self.m_off[m.index()] as usize;
        let hi = self.m_off[m.index() + 1] as usize;
        self.m_adj[lo..hi].iter().map(|&d| DomainIdx(d))
    }

    /// The machines that queried domain `d`, ascending.
    ///
    /// A tool and test convenience, not part of the day pipeline, which
    /// never pays for it: the graph stores only the machine side, so the
    /// first call builds a querier index of every domain in O(edges)
    /// (4 B per edge) and keeps it; later calls are O(degree).
    pub fn machines_of(&self, d: DomainIdx) -> impl Iterator<Item = MachineIdx> + '_ {
        let (off, adj) = self.queriers.get_or_init(|| self.querier_index());
        let lo = off[d.index()] as usize;
        let hi = off[d.index() + 1] as usize;
        adj[lo..hi].iter().map(|&m| MachineIdx(m))
    }

    /// Every domain's queriers, ascending: offsets by prefix sum over the
    /// degrees, then one scatter over the machines in order.
    fn querier_index(&self) -> (Vec<u32>, Vec<u32>) {
        let mut off = Vec::with_capacity(self.domain_degree.len() + 1);
        off.push(0u32);
        for &degree in &self.domain_degree {
            off.push(off[off.len() - 1] + degree);
        }
        let mut cursor = off[..self.domain_degree.len()].to_vec();
        let mut adj = vec![0u32; self.m_adj.len()];
        for (m, span) in self.m_off.windows(2).enumerate() {
            for &d in &self.m_adj[span[0] as usize..span[1] as usize] {
                adj[cursor[d as usize] as usize] = m as u32;
                cursor[d as usize] += 1;
            }
        }
        (off, adj)
    }

    /// Degree of machine `m` (number of distinct domains it queried).
    pub fn machine_degree(&self, m: MachineIdx) -> usize {
        (self.m_off[m.index() + 1] - self.m_off[m.index()]) as usize
    }

    /// Degree of domain `d` (number of distinct machines that queried it).
    pub fn domain_degree(&self, d: DomainIdx) -> usize {
        self.domain_degree[d.index()] as usize
    }

    /// The current label of domain `d`.
    pub fn domain_label(&self, d: DomainIdx) -> Label {
        self.domain_labels[d.index()]
    }

    /// The current label of machine `m`.
    pub fn machine_label(&self, m: MachineIdx) -> Label {
        self.machine_labels[m.index()]
    }

    /// Number of adjacent known-malware domains for machine `m`.
    ///
    /// This is the quantity that makes label hiding O(degree): a machine
    /// labeled malware *only because of* a single blacklisted domain `d`
    /// reverts to unknown when `d`'s label is hidden.
    pub fn machine_malware_degree(&self, m: MachineIdx) -> u32 {
        self.machine_malware_degree[m.index()]
    }

    /// Counts domains per label, as `(malware, benign, unknown)`.
    pub fn domain_label_counts(&self) -> (usize, usize, usize) {
        label_counts(&self.domain_labels)
    }

    /// Counts machines per label, as `(malware, benign, unknown)`.
    pub fn machine_label_counts(&self) -> (usize, usize, usize) {
        label_counts(&self.machine_labels)
    }
}

fn label_counts(labels: &[Label]) -> (usize, usize, usize) {
    let mut counts = (0, 0, 0);
    for &l in labels {
        tally(&mut counts, l);
    }
    counts
}

/// Adds one `label` to `(malware, benign, unknown)` counts.
pub(crate) fn tally(counts: &mut (usize, usize, usize), label: Label) {
    match label {
        Label::Malware => counts.0 += 1,
        Label::Benign => counts.1 += 1,
        Label::Unknown => counts.2 += 1,
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use segugio_model::{Day, DomainId, E2ldId, MachineId};

    #[test]
    fn adjacency_round_trip() {
        let mut b = GraphBuilder::new(Day(0));
        b.add_query(MachineId(10), DomainId(100));
        b.add_query(MachineId(10), DomainId(200));
        b.add_query(MachineId(20), DomainId(200));
        b.set_e2ld(DomainId(100), E2ldId(1));
        b.set_e2ld(DomainId(200), E2ldId(2));
        let g = b.build();

        assert_eq!(g.machine_count(), 2);
        assert_eq!(g.domain_count(), 2);
        assert_eq!(g.edge_count(), 3);

        let m10 = g.machine_idx(MachineId(10)).unwrap();
        let d200 = g.domain_idx(DomainId(200)).unwrap();
        assert_eq!(g.machine_degree(m10), 2);
        assert_eq!(g.domain_degree(d200), 2);
        let queried: Vec<_> = g.domains_of(m10).map(|d| g.domain_id(d)).collect();
        assert_eq!(queried, vec![DomainId(100), DomainId(200)]);
        let queriers: Vec<_> = g.machines_of(d200).map(|m| g.machine_id(m)).collect();
        assert_eq!(queriers, vec![MachineId(10), MachineId(20)]);
    }
}
