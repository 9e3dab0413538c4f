//! Loopy belief propagation over the machine–domain bipartite graph
//! (Manadhata et al., ESORICS 2014 \[6\]; Polonium \[17\] on files).
//!
//! Each node carries a two-state (benign/malware) marginal. Seed labels set
//! node potentials; a homophilic edge potential couples neighbors; messages
//! are iterated synchronously until the fixed iteration budget is spent.
//! The output score of an unknown domain is its malware belief.
//!
//! The paper's pilot comparison found this approach both substantially less
//! accurate at low FP rates (~45% worse on average) and orders of magnitude
//! slower than Segugio's feature-based classification; the
//! `bp_comparison` bench reproduces that shape.

use segugio_graph::BehaviorGraph;
use segugio_model::{DomainId, Label};

/// Belief-propagation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BeliefConfig {
    /// Number of synchronous message-passing iterations.
    pub iterations: usize,
    /// Homophily strength ε: the edge potential is
    /// `[[0.5+ε, 0.5-ε], [0.5-ε, 0.5+ε]]` (Polonium uses a small ε).
    pub epsilon: f64,
    /// Node-potential confidence for seeded (known) nodes.
    pub seed_confidence: f64,
}

impl Default for BeliefConfig {
    fn default() -> Self {
        BeliefConfig {
            iterations: 8,
            epsilon: 0.02,
            seed_confidence: 0.99,
        }
    }
}

/// The loopy-BP runner.
#[derive(Debug, Clone)]
pub struct BeliefPropagation {
    config: BeliefConfig,
}

impl BeliefPropagation {
    /// Creates a runner with the given parameters.
    pub fn new(config: BeliefConfig) -> Self {
        BeliefPropagation { config }
    }

    /// Runs BP on `graph` and returns `(domain, malware_belief)` for every
    /// domain labeled `unknown`, sorted by descending belief.
    pub fn score_unknown(&self, graph: &BehaviorGraph) -> Vec<(DomainId, f32)> {
        let beliefs = self.run(graph);
        let mut out: Vec<(DomainId, f32)> = graph
            .domain_indices()
            .filter(|&d| graph.domain_label(d) == Label::Unknown)
            .map(|d| (graph.domain_id(d), beliefs[d.index()] as f32))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Runs BP and returns the malware belief of *every* domain node,
    /// indexed by internal domain index.
    pub fn run(&self, graph: &BehaviorGraph) -> Vec<f64> {
        let c = self.config.seed_confidence;
        let eps = self.config.epsilon;
        let n_d = graph.domain_count();

        // Node potentials φ(x) = [P(benign), P(malware)].
        let phi = |label: Label| -> [f64; 2] {
            match label {
                Label::Benign => [c, 1.0 - c],
                Label::Malware => [1.0 - c, c],
                Label::Unknown => [0.5, 0.5],
            }
        };
        let d_phi: Vec<[f64; 2]> = graph
            .domain_indices()
            .map(|d| phi(graph.domain_label(d)))
            .collect();
        let m_phi: Vec<[f64; 2]> = graph
            .machine_indices()
            .map(|m| phi(graph.machine_label(m)))
            .collect();

        // Messages live on edges, one per direction. Edge order follows the
        // machine→domain CSR.
        let e = graph.edge_count();
        let mut msg_md = vec![[0.5f64; 2]; e]; // machine -> domain
        let mut msg_dm = vec![[0.5f64; 2]; e]; // domain -> machine

        // Map each machine-CSR edge slot to the domain's CSR slot for the
        // reverse direction (so belief aggregation per node is a scan).
        // Build per-domain incoming edge lists: (machine_csr_slot).
        let mut domain_in: Vec<Vec<u32>> = vec![Vec::new(); n_d];
        let mut machine_slot_of_edge: Vec<u32> = Vec::with_capacity(e);
        {
            let mut slot = 0u32;
            for m in graph.machine_indices() {
                for d in graph.domains_of(m) {
                    domain_in[d.index()].push(slot);
                    machine_slot_of_edge.push(m.0);
                    slot += 1;
                }
            }
        }

        let edge_apply = |m: [f64; 2]| -> [f64; 2] {
            // ψ · m with ψ = [[0.5+ε, 0.5-ε], [0.5-ε, 0.5+ε]]
            let a = (0.5 + eps) * m[0] + (0.5 - eps) * m[1];
            let b = (0.5 - eps) * m[0] + (0.5 + eps) * m[1];
            normalize([a, b])
        };

        for _ in 0..self.config.iterations {
            // Domain beliefs-excluding-one ≈ product of incoming messages.
            // Compute full products first (in log space is safer but the
            // graphs here are shallow; use normalized products).
            let mut d_prod: Vec<[f64; 2]> = d_phi.clone();
            for (prod, incoming) in d_prod.iter_mut().zip(&domain_in) {
                for &slot in incoming {
                    let m = msg_md[slot as usize];
                    *prod = normalize([prod[0] * m[0], prod[1] * m[1]]);
                }
            }
            let mut m_prod: Vec<[f64; 2]> = m_phi.clone();
            {
                let mut slot = 0usize;
                for (m, prod) in m_prod.iter_mut().enumerate() {
                    let deg = graph.machine_degree(segugio_graph::MachineIdx(m as u32));
                    for _ in 0..deg {
                        let msg = msg_dm[slot];
                        *prod = normalize([prod[0] * msg[0], prod[1] * msg[1]]);
                        slot += 1;
                    }
                }
            }

            // New messages: cavity = prod / incoming (with guard), then ψ.
            let mut new_md = msg_md.clone();
            let mut new_dm = msg_dm.clone();
            let mut slot = 0usize;
            for (m, prod) in m_prod.iter().enumerate() {
                let deg = graph.machine_degree(segugio_graph::MachineIdx(m as u32));
                for _ in 0..deg {
                    let cavity = divide(*prod, msg_dm[slot]);
                    new_md[slot] = edge_apply(cavity);
                    slot += 1;
                }
            }
            for d in 0..n_d {
                for &s in &domain_in[d] {
                    let cavity = divide(d_prod[d], msg_md[s as usize]);
                    new_dm[s as usize] = edge_apply(cavity);
                }
            }
            msg_md = new_md;
            msg_dm = new_dm;
        }

        // Final beliefs.
        let mut beliefs = vec![0.0f64; n_d];
        for d in 0..n_d {
            let mut b = d_phi[d];
            for &slot in &domain_in[d] {
                let m = msg_md[slot as usize];
                b = normalize([b[0] * m[0], b[1] * m[1]]);
            }
            beliefs[d] = b[1];
        }
        beliefs
    }
}

fn normalize(v: [f64; 2]) -> [f64; 2] {
    let s = v[0] + v[1];
    if s <= 0.0 || !s.is_finite() {
        [0.5, 0.5]
    } else {
        [v[0] / s, v[1] / s]
    }
}

fn divide(prod: [f64; 2], msg: [f64; 2]) -> [f64; 2] {
    let a = if msg[0] > 1e-12 {
        prod[0] / msg[0]
    } else {
        prod[0]
    };
    let b = if msg[1] > 1e-12 {
        prod[1] / msg[1]
    } else {
        prod[1]
    };
    normalize([a, b])
}

#[cfg(test)]
mod tests {
    use super::*;
    use segugio_graph::labeling::apply_seed_labels;
    use segugio_graph::GraphBuilder;
    use segugio_model::{Day, E2ldId, MachineId};

    /// 4 infected machines query malware {1} and unknown {10};
    /// 4 clean machines query benign {2} and unknown {20}.
    fn polarized() -> BehaviorGraph {
        let mut b = GraphBuilder::new(Day(0));
        for m in 0..4u32 {
            b.add_query(MachineId(m), DomainId(1));
            b.add_query(MachineId(m), DomainId(10));
            b.add_query(MachineId(m), DomainId(2));
        }
        for m in 4..8u32 {
            b.add_query(MachineId(m), DomainId(2));
            b.add_query(MachineId(m), DomainId(20));
        }
        for d in [1u32, 2, 10, 20] {
            b.set_e2ld(DomainId(d), E2ldId(d));
        }
        let mut g = b.build();
        apply_seed_labels(&mut g, |d| d == DomainId(1), |e| e == E2ldId(2));
        g
    }

    #[test]
    fn bp_ranks_infected_cluster_domain_higher() {
        let g = polarized();
        let bp = BeliefPropagation::new(BeliefConfig::default());
        let scores = bp.score_unknown(&g);
        assert_eq!(scores.len(), 2);
        assert_eq!(
            scores[0].0,
            DomainId(10),
            "domain of infected cluster first"
        );
        assert!(scores[0].1 > scores[1].1);
    }

    #[test]
    fn beliefs_are_probabilities() {
        let g = polarized();
        let bp = BeliefPropagation::new(BeliefConfig::default());
        for b in bp.run(&g) {
            assert!((0.0..=1.0).contains(&b), "belief {b} out of range");
        }
    }

    #[test]
    fn seeded_domains_keep_their_polarity() {
        let g = polarized();
        let bp = BeliefPropagation::new(BeliefConfig::default());
        let beliefs = bp.run(&g);
        let d1 = g.domain_idx(DomainId(1)).unwrap();
        let d2 = g.domain_idx(DomainId(2)).unwrap();
        assert!(beliefs[d1.index()] > 0.9, "seed malware stays malware");
        assert!(beliefs[d2.index()] < 0.1, "seed benign stays benign");
    }

    #[test]
    fn zero_iterations_returns_priors() {
        let g = polarized();
        let bp = BeliefPropagation::new(BeliefConfig {
            iterations: 0,
            ..BeliefConfig::default()
        });
        let beliefs = bp.run(&g);
        let d10 = g.domain_idx(DomainId(10)).unwrap();
        assert!((beliefs[d10.index()] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn helper_math() {
        assert_eq!(normalize([2.0, 2.0]), [0.5, 0.5]);
        assert_eq!(normalize([0.0, 0.0]), [0.5, 0.5]);
        let d = divide([0.5, 0.5], [0.25, 0.75]);
        assert!(d[0] > d[1]);
    }
}
