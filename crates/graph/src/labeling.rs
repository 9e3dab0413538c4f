//! Seed-label application and machine-label propagation.
//!
//! Domains are labeled *malware* when their full FQD matches the C&C
//! blacklist, *benign* when their e2LD matches the popularity whitelist,
//! else *unknown*. Machine labels are then derived (paper Section II-A1):
//! a machine that queries any malware domain is *malware* (infected); a
//! machine that queries exclusively benign domains is *benign*; everything
//! else is *unknown*.

use segugio_model::{DomainId, E2ldId, Label};

use crate::graph::BehaviorGraph;

/// Applies seed labels from membership predicates and propagates machine
/// labels.
///
/// `in_blacklist` is consulted with the external [`DomainId`] of each domain
/// node; `in_whitelist` with its e2LD. Blacklist wins over whitelist (a
/// blacklisted FQD under a whitelisted e2LD is malware — this is exactly the
/// "abused free-hosting subdomain" case from Section IV-D).
pub fn apply_seed_labels<B, W>(graph: &mut BehaviorGraph, in_blacklist: B, in_whitelist: W)
where
    B: Fn(DomainId) -> bool,
    W: Fn(E2ldId) -> bool,
{
    apply_labels_with(graph, |id, e2ld| {
        if in_blacklist(id) {
            Label::Malware
        } else if in_whitelist(e2ld) {
            Label::Benign
        } else {
            Label::Unknown
        }
    });
}

/// Applies an arbitrary domain-labeling function and propagates machine
/// labels.
///
/// This is the generalized entry point used by the evaluation protocol: to
/// hide the ground truth of a *test* set, the labeling function returns
/// [`Label::Unknown`] for test domains even when the blacklist or whitelist
/// would label them — which automatically also relabels the machines whose
/// status depended on those domains, exactly as the paper's Section IV-A
/// prescribes.
pub fn apply_labels_with<F>(graph: &mut BehaviorGraph, label_of: F)
where
    F: Fn(DomainId, E2ldId) -> Label,
{
    for i in 0..graph.domains.len() {
        graph.domain_labels[i] = label_of(graph.domains[i], graph.domain_e2ld[i]);
    }
    for mi in 0..graph.machines.len() {
        let lo = graph.m_off[mi] as usize;
        let hi = graph.m_off[mi + 1] as usize;
        (graph.machine_labels[mi], graph.machine_malware_degree[mi]) =
            machine_label(&graph.m_adj[lo..hi], &graph.domain_labels);
    }
}

/// The label and malware degree of a machine that queried `domains`
/// (indices into `domain_labels`).
pub(crate) fn machine_label(domains: &[u32], domain_labels: &[Label]) -> (Label, u32) {
    let mut malware_degree = 0u32;
    let mut all_benign = true;
    for &di in domains {
        match domain_labels[di as usize] {
            Label::Malware => {
                malware_degree += 1;
                all_benign = false;
            }
            Label::Unknown => all_benign = false,
            Label::Benign => {}
        }
    }
    let label = if malware_degree > 0 {
        Label::Malware
    } else if all_benign && !domains.is_empty() {
        Label::Benign
    } else {
        Label::Unknown
    };
    (label, malware_degree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use segugio_model::{Day, MachineId};

    /// Machines: 1 queries {10 mal, 20 wl}; 2 queries {20 wl}; 3 queries
    /// {20 wl, 30 unknown}.
    fn sample() -> BehaviorGraph {
        let mut b = GraphBuilder::new(Day(0));
        b.add_query(MachineId(1), DomainId(10));
        b.add_query(MachineId(1), DomainId(20));
        b.add_query(MachineId(2), DomainId(20));
        b.add_query(MachineId(3), DomainId(20));
        b.add_query(MachineId(3), DomainId(30));
        b.set_e2ld(DomainId(10), E2ldId(10));
        b.set_e2ld(DomainId(20), E2ldId(20));
        b.set_e2ld(DomainId(30), E2ldId(30));
        let mut g = b.build();
        apply_seed_labels(&mut g, |d| d == DomainId(10), |e| e == E2ldId(20));
        g
    }

    #[test]
    fn domain_labels() {
        let g = sample();
        assert_eq!(
            g.domain_label(g.domain_idx(DomainId(10)).unwrap()),
            Label::Malware
        );
        assert_eq!(
            g.domain_label(g.domain_idx(DomainId(20)).unwrap()),
            Label::Benign
        );
        assert_eq!(
            g.domain_label(g.domain_idx(DomainId(30)).unwrap()),
            Label::Unknown
        );
        assert_eq!(g.domain_label_counts(), (1, 1, 1));
    }

    #[test]
    fn machine_labels_propagate() {
        let g = sample();
        assert_eq!(
            g.machine_label(g.machine_idx(MachineId(1)).unwrap()),
            Label::Malware
        );
        assert_eq!(
            g.machine_label(g.machine_idx(MachineId(2)).unwrap()),
            Label::Benign
        );
        assert_eq!(
            g.machine_label(g.machine_idx(MachineId(3)).unwrap()),
            Label::Unknown
        );
        assert_eq!(g.machine_label_counts(), (1, 1, 1));
    }

    #[test]
    fn malware_degree_counts() {
        let g = sample();
        assert_eq!(
            g.machine_malware_degree(g.machine_idx(MachineId(1)).unwrap()),
            1
        );
        assert_eq!(
            g.machine_malware_degree(g.machine_idx(MachineId(2)).unwrap()),
            0
        );
    }

    #[test]
    fn blacklist_beats_whitelist() {
        let mut b = GraphBuilder::new(Day(0));
        b.add_query(MachineId(1), DomainId(10));
        b.set_e2ld(DomainId(10), E2ldId(20));
        let mut g = b.build();
        // Domain 10 is blacklisted AND its e2LD is whitelisted.
        apply_seed_labels(&mut g, |d| d == DomainId(10), |e| e == E2ldId(20));
        assert_eq!(
            g.domain_label(g.domain_idx(DomainId(10)).unwrap()),
            Label::Malware
        );
    }
}
