//! Cross-crate property-based tests: invariants that must hold for *any*
//! input, checked with proptest-generated data.

use proptest::prelude::*;

use segugio_graph::labeling::apply_seed_labels;
use segugio_graph::{GraphBuilder, PruneConfig};
use segugio_model::{Day, DomainId, E2ldId, Label, MachineId};

proptest! {
    /// Graph building: adjacency is symmetric — m lists d iff d lists m —
    /// and edge counts agree in both directions.
    #[test]
    fn graph_adjacency_is_symmetric(
        edges in proptest::collection::vec((0u32..40, 0u32..60), 1..300)
    ) {
        let mut b = GraphBuilder::new(Day(0));
        for &(m, d) in &edges {
            b.add_query(MachineId(m), DomainId(d));
        }
        let g = b.build();
        let forward: usize = g.machine_indices().map(|m| g.domains_of(m).count()).sum();
        let backward: usize = g.domain_indices().map(|d| g.machines_of(d).count()).sum();
        prop_assert_eq!(forward, g.edge_count());
        prop_assert_eq!(backward, g.edge_count());
        for m in g.machine_indices() {
            for d in g.domains_of(m) {
                prop_assert!(g.machines_of(d).any(|mm| mm == m));
            }
        }
    }

    /// Pruning never increases any count, and the stats always reconcile
    /// with the returned graph.
    #[test]
    fn pruning_is_monotone(
        edges in proptest::collection::vec((0u32..30, 0u32..50), 1..400),
        malware_mod in 2u32..20,
        min_deg in 0usize..6,
    ) {
        let mut b = GraphBuilder::new(Day(0));
        for &(m, d) in &edges {
            b.add_query(MachineId(m), DomainId(d));
            b.set_e2ld(DomainId(d), E2ldId(d));
        }
        let mut g = b.build();
        apply_seed_labels(&mut g, |d| d.0 % malware_mod == 0, |e| e.0 % 7 == 1);
        let config = PruneConfig {
            min_machine_degree: min_deg,
            proxy_percentile: 0.99,
            popular_fraction: 0.5,
        };
        let (pruned, stats) = g.clone().prune(&config);
        prop_assert!(pruned.machine_count() <= g.machine_count());
        prop_assert!(pruned.domain_count() <= g.domain_count());
        prop_assert!(pruned.edge_count() <= g.edge_count());
        prop_assert_eq!(stats.machines_after, pruned.machine_count());
        prop_assert_eq!(stats.domains_after, pruned.domain_count());
        prop_assert_eq!(stats.edges_after, pruned.edge_count());
        // Labels survive: every kept domain keeps its seed label.
        for d in pruned.domain_indices() {
            let id = pruned.domain_id(d);
            let expected = if id.0 % malware_mod == 0 {
                Label::Malware
            } else if pruned.domain_e2ld(d).0 % 7 == 1 {
                Label::Benign
            } else {
                Label::Unknown
            };
            prop_assert_eq!(pruned.domain_label(d), expected);
        }
    }

    /// Machine labels are a pure function of adjacent domain labels.
    #[test]
    fn machine_labels_follow_domains(
        edges in proptest::collection::vec((0u32..20, 0u32..40), 1..200),
        malware_mod in 2u32..10,
        benign_mod in 2u32..10,
    ) {
        let mut b = GraphBuilder::new(Day(0));
        for &(m, d) in &edges {
            b.add_query(MachineId(m), DomainId(d));
            b.set_e2ld(DomainId(d), E2ldId(d));
        }
        let mut g = b.build();
        apply_seed_labels(
            &mut g,
            |d| d.0 % malware_mod == 0,
            |e| e.0 % benign_mod == 1,
        );
        for m in g.machine_indices() {
            let labels: Vec<Label> = g.domains_of(m).map(|d| g.domain_label(d)).collect();
            let expected = if labels.iter().any(|l| l.is_malware()) {
                Label::Malware
            } else if labels.iter().all(|l| l.is_benign()) {
                Label::Benign
            } else {
                Label::Unknown
            };
            prop_assert_eq!(g.machine_label(m), expected);
            let malware_degree = labels.iter().filter(|l| l.is_malware()).count() as u32;
            prop_assert_eq!(g.machine_malware_degree(m), malware_degree);
        }
    }

    /// Label hiding: hiding a domain never changes machines that did not
    /// query it, and the hidden domain always reads unknown.
    #[test]
    fn hiding_is_local(
        edges in proptest::collection::vec((0u32..15, 0u32..25), 1..150),
        malware_mod in 2u32..8,
    ) {
        let mut b = GraphBuilder::new(Day(0));
        for &(m, d) in &edges {
            b.add_query(MachineId(m), DomainId(d));
            b.set_e2ld(DomainId(d), E2ldId(d));
        }
        let mut g = b.build();
        apply_seed_labels(&mut g, |d| d.0 % malware_mod == 0, |e| e.0 % 5 == 1);
        for hidden in g.domain_indices() {
            let view = segugio_graph::HiddenLabelView::new(&g, hidden);
            prop_assert!(view.domain_label(hidden).is_unknown());
            for m in g.machine_indices() {
                let queried = g.domains_of(m).any(|d| d == hidden);
                if !queried {
                    prop_assert_eq!(view.machine_label(m), g.machine_label(m));
                }
            }
            // The O(1) rule feature measurement uses for queriers agrees
            // with the searching one.
            for m in g.machines_of(hidden) {
                prop_assert_eq!(view.querier_label(m), view.machine_label(m));
            }
        }
    }
}
