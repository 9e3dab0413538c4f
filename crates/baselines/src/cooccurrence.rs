//! Query co-occurrence scoring (Sato et al., LEET 2010 [21]).
//!
//! A domain is scored by how strongly its querier population co-occurs
//! with known-malicious queries: `score(d) = |queriers of d that also
//! query a known malware domain| / |queriers of d|`. This is essentially
//! Segugio's F1 `m` feature used alone, without the domain-activity or
//! IP-abuse evidence and without a trained classifier — the paper notes it
//! "suffers from a large number of false positives, even at a fairly low
//! true positive rate".

use segugio_graph::BehaviorGraph;
use segugio_model::{DomainId, Label};

/// Scores every `unknown` domain of `graph` by malware co-occurrence,
/// sorted by descending score (ties broken by domain id). The infected
/// queriers are counted in one pass over the machine side.
pub fn cooccurrence_scores(graph: &BehaviorGraph) -> Vec<(DomainId, f32)> {
    let mut infected = vec![0u32; graph.domain_count()];
    for m in graph.machine_indices() {
        if graph.machine_label(m) == Label::Malware {
            for d in graph.domains_of(m) {
                infected[d.index()] += 1;
            }
        }
    }
    let mut out: Vec<(DomainId, f32)> = graph
        .domain_indices()
        .filter(|&d| graph.domain_label(d) == Label::Unknown)
        .map(|d| {
            let score = infected[d.index()] as f32 / graph.domain_degree(d) as f32;
            (graph.domain_id(d), score)
        })
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use segugio_graph::labeling::apply_seed_labels;
    use segugio_graph::GraphBuilder;
    use segugio_model::{Day, E2ldId, MachineId};

    #[test]
    fn scores_by_infected_fraction() {
        let mut b = GraphBuilder::new(Day(0));
        // Machines 0,1 infected via domain 1; machine 2 clean.
        b.add_query(MachineId(0), DomainId(1));
        b.add_query(MachineId(1), DomainId(1));
        // Unknown domain 10 queried by both infected machines.
        b.add_query(MachineId(0), DomainId(10));
        b.add_query(MachineId(1), DomainId(10));
        // Unknown domain 20 queried by one infected + one clean machine.
        b.add_query(MachineId(1), DomainId(20));
        b.add_query(MachineId(2), DomainId(20));
        for d in [1u32, 10, 20] {
            b.set_e2ld(DomainId(d), E2ldId(d));
        }
        let mut g = b.build();
        apply_seed_labels(&mut g, |d| d == DomainId(1), |_| false);

        let scores = cooccurrence_scores(&g);
        assert_eq!(scores.len(), 2);
        assert_eq!(scores[0], (DomainId(10), 1.0));
        assert_eq!(scores[1], (DomainId(20), 0.5));
    }

    #[test]
    fn empty_graph_gives_no_scores() {
        let g = GraphBuilder::new(Day(0)).build();
        assert!(cooccurrence_scores(&g).is_empty());
    }
}
