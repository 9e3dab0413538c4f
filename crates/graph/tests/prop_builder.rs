//! Property tests for graph construction: one set-based oracle, applied to
//! every entry point that feeds the crate's single CSR constructor —
//! `GraphBuilder::build`, the closure-annotated `GraphBuilder::from_queries`
//! that `segugio-core` uses, and `GraphBuilder::from_runs` at a run capacity
//! small enough that runs seal, spill and merge. Under duplicate-heavy
//! random streams the machine-side CSR must match the deduplicated edge
//! set, each domain's degree its querier count, annotations must match a
//! `BTreeMap`/`BTreeSet` model, and `validate()` must accept the graph.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use segugio_graph::{BehaviorGraph, EdgeRuns, GraphBuilder};
use segugio_model::{Day, DomainId, E2ldId, Ipv4, Label, MachineId};

/// One day's raw observations, as every entry point receives them.
struct Observations {
    queries: Vec<(MachineId, DomainId)>,
    resolutions: Vec<(DomainId, Vec<Ipv4>)>,
    /// Last entry wins, like repeated `set_e2ld` calls.
    e2ld: BTreeMap<DomainId, E2ldId>,
}

impl Observations {
    /// The e2LD contract of the closure-annotated entries: the registered
    /// id, or the sentinel for an unannotated domain.
    fn e2ld_of(&self, d: DomainId) -> E2ldId {
        self.e2ld.get(&d).copied().unwrap_or(E2ldId(d.0))
    }
}

/// An entry point under test: observations in, graph out.
type Entry = fn(&Observations) -> BehaviorGraph;

fn via_build(obs: &Observations) -> BehaviorGraph {
    let mut b = GraphBuilder::new(Day(3));
    for &(m, d) in &obs.queries {
        b.add_query(m, d);
    }
    for (d, ips) in &obs.resolutions {
        for &ip in ips {
            b.add_resolution(*d, ip);
        }
    }
    for (&d, &e) in &obs.e2ld {
        b.set_e2ld(d, e);
    }
    b.build()
}

fn via_from_queries(obs: &Observations) -> BehaviorGraph {
    GraphBuilder::from_queries(Day(3), &obs.queries, &obs.resolutions, |d| obs.e2ld_of(d))
}

fn via_from_runs(obs: &Observations) -> BehaviorGraph {
    // Capacity 64 against up to 3000 observations: dozens of sealed runs.
    let mut runs = EdgeRuns::with_run_capacity(64);
    runs.extend(obs.queries.iter().copied());
    GraphBuilder::from_runs(Day(3), &runs, &obs.resolutions, |d| obs.e2ld_of(d))
        .expect("replaying sealed runs succeeds")
}

const ENTRIES: [(&str, Entry); 3] = [
    ("build", via_build),
    ("from_queries", via_from_queries),
    ("from_runs", via_from_runs),
];

/// Checks `g` against plain sets and maps built from the observations.
fn check_against_oracle(name: &str, g: &BehaviorGraph, obs: &Observations) -> Result<(), String> {
    let fail = |what: String| Err(format!("{name}: {what}"));
    let edges: BTreeSet<(u32, u32)> = obs.queries.iter().map(|&(m, d)| (m.0, d.0)).collect();
    let machines: BTreeSet<u32> = edges.iter().map(|&(m, _)| m).collect();
    let domains: BTreeSet<u32> = edges.iter().map(|&(_, d)| d).collect();
    let mut ips: BTreeMap<u32, BTreeSet<Ipv4>> = BTreeMap::new();
    for (d, list) in &obs.resolutions {
        ips.entry(d.0).or_default().extend(list.iter().copied());
    }

    if g.day() != Day(3) || g.edge_count() != edges.len() {
        return fail(format!("day {:?}, {} edges", g.day(), g.edge_count()));
    }
    let got_machines: Vec<u32> = g.machine_indices().map(|m| g.machine_id(m).0).collect();
    if got_machines != machines.iter().copied().collect::<Vec<_>>() {
        return fail(format!("machine ids {got_machines:?}"));
    }
    let got_domains: Vec<u32> = g.domain_indices().map(|d| g.domain_id(d).0).collect();
    if got_domains != domains.iter().copied().collect::<Vec<_>>() {
        return fail(format!("domain ids {got_domains:?}"));
    }

    // Each machine lists exactly its reference edges, ascending.
    for m in g.machine_indices() {
        let mid = g.machine_id(m).0;
        let got: Vec<u32> = g.domains_of(m).map(|d| g.domain_id(d).0).collect();
        let want: Vec<u32> = edges
            .range((mid, 0)..=(mid, u32::MAX))
            .map(|e| e.1)
            .collect();
        if got != want {
            return fail(format!("machine {mid} adjacency {got:?}, want {want:?}"));
        }
        if g.machine_label(m) != Label::Unknown {
            return fail(format!("machine {mid} starts labeled"));
        }
    }
    for d in g.domain_indices() {
        let id = g.domain_id(d);
        let want = edges.iter().filter(|e| e.1 == id.0).count();
        if g.domain_degree(d) != want {
            return fail(format!(
                "domain {id} degree {}, want {want}",
                g.domain_degree(d)
            ));
        }
        // Annotations: registered e2LD or the sentinel; sorted, deduped IPs.
        if g.domain_e2ld(d) != obs.e2ld_of(id) {
            return fail(format!("domain {id} e2ld {:?}", g.domain_e2ld(d)));
        }
        let want_ips: Vec<Ipv4> = ips
            .get(&id.0)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default();
        if g.domain_ips(d) != want_ips.as_slice() {
            return fail(format!("domain {id} ips {:?}", g.domain_ips(d)));
        }
        if g.domain_label(d) != Label::Unknown {
            return fail(format!("domain {id} starts labeled"));
        }
    }
    // Resolutions of unqueried domains are dropped: the pool holds the
    // queried domains' IPs and nothing else.
    let pooled: usize = g.domain_indices().map(|d| g.domain_ips(d).len()).sum();
    let want_pooled: usize = domains
        .iter()
        .map(|d| ips.get(d).map_or(0, BTreeSet::len))
        .sum();
    if pooled != want_pooled {
        return fail(format!("{pooled} pooled ips, want {want_pooled}"));
    }
    match g.validate() {
        Ok(()) => Ok(()),
        Err(violation) => fail(format!("validate: {violation}")),
    }
}

proptest! {
    /// Duplicate-heavy streams (few distinct machines/domains, many raw
    /// pairs) with partial, repeated and unqueried-domain annotations:
    /// every entry point matches the set-based oracle.
    #[test]
    #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
    fn every_entry_point_matches_the_set_oracle(
        edges in proptest::collection::vec((0u32..40, 0u32..60), 0..3000),
        resolved in proptest::collection::vec(
            (0u32..70, proptest::collection::vec(0u32..50, 0..5)),
            0..40,
        ),
        e2lds in proptest::collection::vec((0u32..70, 0u32..9), 0..40),
    ) {
        let obs = Observations {
            queries: edges.into_iter().map(|(m, d)| (MachineId(m), DomainId(d))).collect(),
            resolutions: resolved
                .into_iter()
                .map(|(d, ips)| (DomainId(d), ips.into_iter().map(Ipv4).collect()))
                .collect(),
            e2ld: e2lds.into_iter().map(|(d, e)| (DomainId(d), E2ldId(e))).collect(),
        };
        for (name, entry) in ENTRIES {
            let g = entry(&obs);
            prop_assert_eq!(check_against_oracle(name, &g, &obs), Ok(()));
        }
    }
}
