//! Structural validation of the CSR bipartite representation.
//!
//! [`BehaviorGraph::validate`] checks every representation invariant the
//! rest of the crate relies on — sorted node id vectors, a well-formed
//! machine-side CSR with in-bounds sorted adjacency, domain degrees that
//! agree with it, no edgeless node, machine labels and malware degrees
//! that follow from the edges, and consistent annotation/label vector
//! lengths. The builder runs it under `debug_assertions` after every
//! build, and the property tests run it against arbitrary inputs;
//! production paths can call it after deserializing or hand-assembling a
//! graph.

use crate::graph::BehaviorGraph;
use crate::labeling;

impl BehaviorGraph {
    /// Checks every structural invariant of the representation.
    ///
    /// Verified invariants:
    ///
    /// - `machines` and `domains` are strictly ascending (binary-search
    ///   lookup and dense-index assignment depend on this);
    /// - every annotation vector (`domain_e2ld`, `domain_labels`,
    ///   `machine_labels`, `machine_malware_degree`) has exactly one entry
    ///   per node, and the flat IP pool offsets (`ip_off`) have `n + 1`
    ///   nondecreasing entries starting at 0 and ending at the pool length;
    /// - the machine-side CSR offset array has `n + 1` entries, starts at
    ///   0, is nondecreasing, and ends at the edge count; every adjacency
    ///   entry is in bounds, and each machine's domain list is strictly
    ///   ascending (sorted, duplicate-free);
    /// - no machine and no domain is edgeless;
    /// - `domain_degree[d]` equals the number of machine lists naming `d`
    ///   (so the degrees sum to the edge count);
    /// - each machine's label and `machine_malware_degree` equal
    ///   [`labeling`]'s derivation from its list and the domain labels.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let n_m = self.machines.len();
        let n_d = self.domains.len();

        check_strictly_ascending(&self.machines, "machines")?;
        check_strictly_ascending(&self.domains, "domains")?;

        check_len("domain_e2ld", self.domain_e2ld.len(), n_d)?;
        check_len("ip_off", self.ip_off.len(), n_d + 1)?;
        if self.ip_off.first() != Some(&0) {
            return Err("ip_off must start at 0".to_owned());
        }
        if self.ip_off.windows(2).any(|w| w[0] > w[1]) {
            return Err("ip_off offsets decrease".to_owned());
        }
        if self.ip_off.last().map(|&o| o as usize) != Some(self.ip_pool.len()) {
            return Err(format!(
                "last ip_off {:?} != ip_pool length {}",
                self.ip_off.last(),
                self.ip_pool.len()
            ));
        }
        check_len("domain_labels", self.domain_labels.len(), n_d)?;
        check_len("machine_labels", self.machine_labels.len(), n_m)?;
        check_len(
            "machine_malware_degree",
            self.machine_malware_degree.len(),
            n_m,
        )?;

        check_len("domain_degree", self.domain_degree.len(), n_d)?;
        check_csr("m_off/m_adj", &self.m_off, &self.m_adj, n_m, n_d)?;

        let mut degree = vec![0u32; n_d];
        for (mi, span) in self.m_off.windows(2).enumerate() {
            let domains = &self.m_adj[span[0] as usize..span[1] as usize];
            if domains.is_empty() {
                return Err(format!("machine {mi} has no edge"));
            }
            for &di in domains {
                degree[di as usize] += 1;
            }
            // Labels and the malware-degree cache follow from the edges.
            let (label, malware_degree) =
                labeling::machine_label(domains, |d| self.domain_labels[d as usize]);
            let cached = self.machine_malware_degree[mi];
            if cached != malware_degree {
                return Err(format!(
                    "machine {mi}: cached malware degree {cached} != actual {malware_degree}"
                ));
            }
            if self.machine_labels[mi] != label {
                return Err(format!(
                    "machine {mi}: label {:?} != {label:?} derived from its domains",
                    self.machine_labels[mi]
                ));
            }
        }
        for (di, (&stored, &counted)) in self.domain_degree.iter().zip(&degree).enumerate() {
            if counted == 0 {
                return Err(format!("domain {di} has no edge"));
            }
            if stored != counted {
                return Err(format!(
                    "domain {di}: stored degree {stored} != {counted} machine lists naming it"
                ));
            }
        }

        Ok(())
    }
}

fn check_len(name: &str, got: usize, want: usize) -> Result<(), String> {
    if got != want {
        return Err(format!("{name} has {got} entries, expected {want}"));
    }
    Ok(())
}

fn check_strictly_ascending<T: Ord + Copy + std::fmt::Debug>(
    xs: &[T],
    name: &str,
) -> Result<(), String> {
    for w in xs.windows(2) {
        if w[0] >= w[1] {
            return Err(format!(
                "{name} not strictly ascending: {:?} then {:?}",
                w[0], w[1]
            ));
        }
    }
    Ok(())
}

/// Checks one CSR direction: offsets shape, bounds, and per-node ordering.
fn check_csr(
    name: &str,
    off: &[u32],
    adj: &[u32],
    n_nodes: usize,
    n_other: usize,
) -> Result<(), String> {
    if off.len() != n_nodes + 1 {
        return Err(format!(
            "{name}: offset array has {} entries, expected {}",
            off.len(),
            n_nodes + 1
        ));
    }
    if off.first() != Some(&0) {
        return Err(format!("{name}: offsets must start at 0"));
    }
    if off.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("{name}: offsets decrease"));
    }
    if off.last().map(|&o| o as usize) != Some(adj.len()) {
        return Err(format!(
            "{name}: last offset {:?} != adjacency length {}",
            off.last(),
            adj.len()
        ));
    }
    for node in 0..n_nodes {
        let lo = off[node] as usize;
        let hi = off[node + 1] as usize;
        let list = &adj[lo..hi];
        if let Some(&bad) = list.iter().find(|&&x| x as usize >= n_other) {
            return Err(format!(
                "{name}: node {node} has out-of-bounds neighbor {bad} (only {n_other} exist)"
            ));
        }
        if list.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!(
                "{name}: node {node} adjacency not strictly ascending"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::graph::BehaviorGraph;
    use segugio_model::{Day, DomainId, E2ldId, Label, MachineId};

    fn sample() -> BehaviorGraph {
        let mut b = GraphBuilder::new(Day(3));
        b.add_query(MachineId(10), DomainId(100));
        b.add_query(MachineId(10), DomainId(200));
        b.add_query(MachineId(20), DomainId(200));
        b.add_query(MachineId(30), DomainId(100));
        b.build()
    }

    #[test]
    fn built_graphs_validate() {
        assert_eq!(sample().validate(), Ok(()));
        assert_eq!(GraphBuilder::new(Day(0)).build().validate(), Ok(()));
    }

    #[test]
    fn detects_unsorted_node_ids() {
        let mut g = sample();
        g.machines.swap(0, 1);
        let err = g.validate().unwrap_err();
        assert!(err.contains("machines not strictly ascending"), "{err}");
    }

    #[test]
    fn detects_annotation_length_mismatch() {
        let mut g = sample();
        g.domain_e2ld.pop();
        let err = g.validate().unwrap_err();
        assert!(err.contains("domain_e2ld"), "{err}");
    }

    #[test]
    fn detects_ip_pool_corruption() {
        let mut g = sample();
        g.ip_off.pop();
        let err = g.validate().unwrap_err();
        assert!(err.contains("ip_off"), "{err}");

        let mut g = sample();
        *g.ip_off.last_mut().unwrap() += 1;
        let err = g.validate().unwrap_err();
        assert!(err.contains("ip_pool"), "{err}");
    }

    #[test]
    fn detects_offset_corruption() {
        let mut g = sample();
        g.m_off[1] = g.m_off[2] + 1;
        let err = g.validate().unwrap_err();
        assert!(err.contains("offsets"), "{err}");

        let mut g = sample();
        *g.m_off.last_mut().unwrap() += 1;
        let err = g.validate().unwrap_err();
        assert!(err.contains("last offset"), "{err}");
    }

    #[test]
    fn detects_out_of_bounds_neighbor() {
        let mut g = sample();
        g.m_adj[0] = 99;
        let err = g.validate().unwrap_err();
        assert!(err.contains("out-of-bounds"), "{err}");
    }

    #[test]
    fn detects_unsorted_adjacency() {
        let mut g = sample();
        // Machine 10 queried domains {100, 200}; reverse its list.
        g.m_adj.swap(0, 1);
        let err = g.validate().unwrap_err();
        assert!(err.contains("not strictly ascending"), "{err}");
    }

    #[test]
    fn detects_stale_domain_degree() {
        let mut g = sample();
        // Rewire machine 30's single edge from domain 100 to domain 200
        // without touching the degrees: lists stay sorted and in bounds.
        let last = g.m_adj.len() - 1;
        g.m_adj[last] = 1;
        let err = g.validate().unwrap_err();
        assert!(err.contains("stored degree"), "{err}");
    }

    #[test]
    fn detects_edgeless_domain() {
        let mut g = sample();
        // Domain 300 is named by no machine list and claims no querier.
        g.domains.push(DomainId(300));
        g.domain_e2ld.push(E2ldId(300));
        g.ip_off.push(*g.ip_off.last().unwrap());
        g.domain_labels.push(Label::Unknown);
        g.domain_degree.push(0);
        let err = g.validate().unwrap_err();
        assert!(err.contains("domain 2 has no edge"), "{err}");
    }

    #[test]
    fn detects_edgeless_machine() {
        let mut g = sample();
        g.machines.push(MachineId(40));
        g.m_off.push(*g.m_off.last().unwrap());
        g.machine_labels.push(Label::Unknown);
        g.machine_malware_degree.push(0);
        let err = g.validate().unwrap_err();
        assert!(err.contains("machine 3 has no edge"), "{err}");
    }

    #[test]
    fn detects_stale_machine_label() {
        let mut g = sample();
        g.machine_labels[0] = Label::Benign;
        let err = g.validate().unwrap_err();
        assert!(err.contains("derived from its domains"), "{err}");
    }

    #[test]
    fn detects_stale_malware_degree() {
        let mut g = sample();
        g.domain_labels[0] = Label::Malware;
        let err = g.validate().unwrap_err();
        assert!(err.contains("malware degree"), "{err}");
    }
}
