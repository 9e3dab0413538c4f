//! Structural validation of the CSR bipartite representation.
//!
//! [`BehaviorGraph::validate`] checks every representation invariant the
//! rest of the crate relies on — sorted node id vectors, well-formed CSR
//! offset arrays, in-bounds sorted adjacency, edge symmetry between the two
//! directions, and consistent annotation/label vector lengths. The builder
//! runs it under `debug_assertions` after every build, and the property
//! tests run it against arbitrary inputs; production paths can call it
//! after deserializing or hand-assembling a graph.

use segugio_model::Label;

use crate::graph::BehaviorGraph;

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
    /// - both CSR offset arrays have `n + 1` entries, start at 0, are
    ///   nondecreasing, and end at the edge count;
    /// - both adjacency arrays have the same length (each edge appears in
    ///   both directions), all entries are in bounds, and each node's
    ///   neighbor list is strictly ascending (sorted, duplicate-free);
    /// - the two directions describe the same edge set: every `(m, d)` edge
    ///   of the machine CSR is present in domain `d`'s machine list;
    /// - `machine_malware_degree[m]` equals the number of `m`'s neighbors
    ///   currently labeled [`Label::Malware`].
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

        if self.m_adj.len() != self.d_adj.len() {
            return Err(format!(
                "edge-count asymmetry: {} machine-side edges vs {} domain-side edges",
                self.m_adj.len(),
                self.d_adj.len()
            ));
        }
        check_csr("m_off/m_adj", &self.m_off, &self.m_adj, n_m, n_d)?;
        check_csr("d_off/d_adj", &self.d_off, &self.d_adj, n_d, n_m)?;

        // Edge symmetry: each machine-side edge must exist on the domain
        // side. Both adjacency arrays have equal length and per-node lists
        // are strictly ascending, so one-directional containment implies
        // the edge sets are identical.
        for mi in 0..n_m {
            let lo = self.m_off[mi] as usize;
            let hi = self.m_off[mi + 1] as usize;
            for &di in &self.m_adj[lo..hi] {
                let d_lo = self.d_off[di as usize] as usize;
                let d_hi = self.d_off[di as usize + 1] as usize;
                if self.d_adj[d_lo..d_hi].binary_search(&u32_from(mi)).is_err() {
                    return Err(format!(
                        "edge asymmetry: machine {mi} -> domain {di} has no reverse edge"
                    ));
                }
            }
        }

        // Malware-degree cache consistency.
        for mi in 0..n_m {
            let lo = self.m_off[mi] as usize;
            let hi = self.m_off[mi + 1] as usize;
            let actual = self.m_adj[lo..hi]
                .iter()
                .filter(|&&di| self.domain_labels[di as usize] == Label::Malware)
                .count();
            let cached = self.machine_malware_degree[mi] as usize;
            if cached != actual {
                return Err(format!(
                    "machine {mi}: cached malware degree {cached} != actual {actual}"
                ));
            }
        }

        Ok(())
    }
}

/// `usize` node index to the `u32` stored in adjacency arrays. Node counts
/// are bounded by the `u32` id space by construction; saturate rather than
/// panic if that is ever violated (the comparison will then fail loudly).
fn u32_from(i: usize) -> u32 {
    u32::try_from(i).unwrap_or(u32::MAX)
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
    use segugio_model::{Day, DomainId, Label, MachineId};

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
        *g.d_off.last_mut().unwrap() += 1;
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
    fn detects_edge_asymmetry() {
        let mut g = sample();
        // Rewire machine 30's single edge from domain 100 to domain 200
        // without touching the domain-side CSR. Lengths still agree.
        let last = g.m_adj.len() - 1;
        g.m_adj[last] = 1;
        // Keep the domain-side edge count identical (it already is), so
        // only the symmetry check can catch this.
        let err = g.validate().unwrap_err();
        assert!(err.contains("asymmetry"), "{err}");
    }

    #[test]
    fn detects_stale_malware_degree() {
        let mut g = sample();
        g.domain_labels[0] = Label::Malware;
        let err = g.validate().unwrap_err();
        assert!(err.contains("malware degree"), "{err}");
    }
}
