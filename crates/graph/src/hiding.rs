//! Label hiding for training-set preparation (paper Section II-A3, Fig. 5).
//!
//! Segugio's features are defined for *unknown* domains. To measure features
//! for a domain whose ground truth is known (so the feature vector can be
//! labeled and used for training), that domain's label must be temporarily
//! hidden — and the hiding must cascade to machines: a machine labeled
//! malware *only because* it queried the hidden domain reverts to unknown,
//! and a machine labeled benign that queried the hidden (benign) domain also
//! reverts to unknown, because from its point of view it now queries an
//! unknown domain.
//!
//! For a querier of the hidden domain the effective label is the O(1) rule
//! [`querier_label`], from the machine's label, its precomputed malware
//! degree and the hidden domain's label. Feature measurement applies it to
//! every edge of a known domain in one pass over the machine side.
//! [`HiddenLabelView`] applies it to one hidden domain without rebuilding
//! the graph; for an arbitrary machine,
//! [`machine_label`](HiddenLabelView::machine_label) first binary-searches
//! the machine's adjacency for the hidden domain.

use segugio_model::Label;

use crate::graph::{BehaviorGraph, DomainIdx, MachineIdx};

/// The effective label of a machine that queried a domain whose label
/// `hidden` is hidden, from the machine's own `label` and `malware_degree`:
/// - machine was malware, the hidden domain was its *only* known malware
///   domain → unknown;
/// - machine was benign and the hidden (benign) domain is now unknown →
///   unknown;
/// - otherwise unchanged.
pub fn querier_label(label: Label, malware_degree: u32, hidden: Label) -> Label {
    match (label, hidden) {
        (Label::Malware, Label::Malware) if malware_degree == 1 => Label::Unknown,
        (Label::Benign, _) => Label::Unknown,
        (label, _) => label,
    }
}

/// A read-only view of a [`BehaviorGraph`] in which one domain's label (and
/// its consequences for machine labels) is hidden.
///
/// # Example
///
/// ```
/// use segugio_graph::{GraphBuilder, HiddenLabelView};
/// use segugio_graph::labeling::apply_seed_labels;
/// use segugio_model::{Day, DomainId, Label, MachineId};
///
/// let mut b = GraphBuilder::new(Day(0));
/// b.add_query(MachineId(1), DomainId(10)); // 10 is malware
/// b.add_query(MachineId(1), DomainId(11));
/// let mut g = b.build();
/// apply_seed_labels(&mut g, |d| d == DomainId(10), |_| false);
///
/// let d10 = g.domain_idx(DomainId(10)).unwrap();
/// let m1 = g.machine_idx(MachineId(1)).unwrap();
/// assert_eq!(g.machine_label(m1), Label::Malware);
///
/// let view = HiddenLabelView::new(&g, d10);
/// // With d10 hidden, machine 1 queries no known malware domain.
/// assert_eq!(view.machine_label(m1), Label::Unknown);
/// assert_eq!(view.domain_label(d10), Label::Unknown);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HiddenLabelView<'g> {
    graph: &'g BehaviorGraph,
    hidden: DomainIdx,
    hidden_original: Label,
}

impl<'g> HiddenLabelView<'g> {
    /// Creates a view hiding `domain`'s label.
    pub fn new(graph: &'g BehaviorGraph, domain: DomainIdx) -> Self {
        HiddenLabelView {
            graph,
            hidden: domain,
            hidden_original: graph.domain_label(domain),
        }
    }

    /// The effective label of `d` under hiding.
    pub fn domain_label(&self, d: DomainIdx) -> Label {
        if d == self.hidden {
            Label::Unknown
        } else {
            self.graph.domain_label(d)
        }
    }

    /// The effective label of any machine `m` under hiding: unchanged
    /// unless `m` queried the hidden domain (one binary search of its
    /// adjacency), else [`querier_label`](Self::querier_label).
    pub fn machine_label(&self, m: MachineIdx) -> Label {
        if self.queried_hidden(m) {
            self.querier_label(m)
        } else {
            self.graph.machine_label(m)
        }
    }

    /// The effective label of `m`, which must be a querier of the hidden
    /// domain: the O(1) rule [`querier_label`](crate::hiding::querier_label).
    ///
    /// For a machine that did not query the hidden domain the answer is
    /// meaningless; use [`machine_label`](Self::machine_label).
    pub fn querier_label(&self, m: MachineIdx) -> Label {
        debug_assert!(self.queried_hidden(m), "{m:?} is not a querier");
        querier_label(
            self.graph.machine_label(m),
            self.graph.machine_malware_degree(m),
            self.hidden_original,
        )
    }

    fn queried_hidden(&self, m: MachineIdx) -> bool {
        // Adjacency lists are sorted by internal domain index.
        let lo = self.graph.m_off[m.index()] as usize;
        let hi = self.graph.m_off[m.index() + 1] as usize;
        self.graph.m_adj[lo..hi]
            .binary_search(&self.hidden.0)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::labeling::apply_seed_labels;
    use segugio_model::{Day, DomainId, E2ldId, MachineId};

    /// Machines:
    /// - 1 queries malware {10} and benign {20}    (single infection)
    /// - 2 queries malware {10, 11} and benign {20} (double infection)
    /// - 3 queries benign {20} only
    /// - 4 queries benign {20} and unknown {30}
    fn sample() -> BehaviorGraph {
        let mut b = GraphBuilder::new(Day(0));
        b.add_query(MachineId(1), DomainId(10));
        b.add_query(MachineId(1), DomainId(20));
        b.add_query(MachineId(2), DomainId(10));
        b.add_query(MachineId(2), DomainId(11));
        b.add_query(MachineId(2), DomainId(20));
        b.add_query(MachineId(3), DomainId(20));
        b.add_query(MachineId(4), DomainId(20));
        b.add_query(MachineId(4), DomainId(30));
        for d in [10u32, 11, 20, 30] {
            b.set_e2ld(DomainId(d), E2ldId(d));
        }
        let mut g = b.build();
        apply_seed_labels(
            &mut g,
            |d| d == DomainId(10) || d == DomainId(11),
            |e| e == E2ldId(20),
        );
        g
    }

    #[test]
    fn hiding_malware_domain_cascades_to_single_infection() {
        let g = sample();
        let view = HiddenLabelView::new(&g, g.domain_idx(DomainId(10)).unwrap());
        let m1 = g.machine_idx(MachineId(1)).unwrap();
        let m2 = g.machine_idx(MachineId(2)).unwrap();
        // Machine 1's only malware domain was hidden → unknown.
        assert_eq!(view.machine_label(m1), Label::Unknown);
        // Machine 2 still queries malware domain 11 → stays malware.
        assert_eq!(view.machine_label(m2), Label::Malware);
        assert_eq!(view.hidden_original, Label::Malware);
    }

    #[test]
    fn hiding_benign_domain_cascades_to_benign_machines() {
        let g = sample();
        let view = HiddenLabelView::new(&g, g.domain_idx(DomainId(20)).unwrap());
        let m3 = g.machine_idx(MachineId(3)).unwrap();
        let m4 = g.machine_idx(MachineId(4)).unwrap();
        let m2 = g.machine_idx(MachineId(2)).unwrap();
        // Machine 3 queried only the hidden benign domain → unknown now.
        assert_eq!(view.machine_label(m3), Label::Unknown);
        // Machine 4 was already unknown → unchanged.
        assert_eq!(view.machine_label(m4), Label::Unknown);
        // Machine 2 is malware → unchanged by hiding a benign domain.
        assert_eq!(view.machine_label(m2), Label::Malware);
    }

    #[test]
    fn machines_not_querying_hidden_domain_are_unaffected() {
        let g = sample();
        let view = HiddenLabelView::new(&g, g.domain_idx(DomainId(30)).unwrap());
        for (m, expect) in [
            (MachineId(1), Label::Malware),
            (MachineId(2), Label::Malware),
            (MachineId(3), Label::Benign),
        ] {
            assert_eq!(view.machine_label(g.machine_idx(m).unwrap()), expect);
        }
    }

    #[test]
    fn hidden_domain_reads_unknown() {
        let g = sample();
        let d10 = g.domain_idx(DomainId(10)).unwrap();
        let d11 = g.domain_idx(DomainId(11)).unwrap();
        let view = HiddenLabelView::new(&g, d10);
        assert_eq!(view.domain_label(d10), Label::Unknown);
        assert_eq!(view.domain_label(d11), Label::Malware);
    }
}
