//! One labeled, pruned day of traffic, ready for feature measurement.

use std::collections::HashSet;

use segugio_graph::labeling::apply_labels_with;
use segugio_graph::{BehaviorGraph, DayRules, EdgeRuns, GraphBuilder, PruneStats, PrunedDay};
use segugio_model::{
    Blacklist, Day, DomainId, DomainTable, E2ldId, Ipv4, Label, MachineId, Whitelist,
};
use segugio_pdns::{AbuseIndex, PassiveDns};

use crate::config::SegugioConfig;
use crate::model::Detection;

/// The raw ingredients of a day snapshot.
///
/// The query log and resolutions come from the monitoring point (in this
/// reproduction, `segugio_traffic::DayTraffic`); the blacklist/whitelist are
/// the ground-truth seeds *known as of that day*; `hidden` optionally names
/// domains whose ground truth must be concealed (the test sets of the
/// evaluation protocol, Section IV-A).
#[derive(Debug, Clone, Copy)]
pub struct SnapshotInput<'a> {
    /// The observation day.
    pub day: Day,
    /// `(machine, domain)` query observations.
    pub queries: &'a [(MachineId, DomainId)],
    /// Per-domain resolved IPs for the day.
    pub resolutions: &'a [(DomainId, Vec<Ipv4>)],
    /// The domain interner shared with the traffic source.
    pub table: &'a DomainTable,
    /// Passive-DNS history (for the IP-abuse index).
    pub pdns: &'a PassiveDns,
    /// The C&C blacklist; only entries added on or before `day` are used.
    pub blacklist: &'a Blacklist,
    /// The popularity whitelist (e2LD level).
    pub whitelist: &'a Whitelist,
    /// Domains whose ground truth is hidden (labeled `unknown` no matter
    /// what the seed lists say).
    pub hidden: Option<&'a HashSet<DomainId>>,
}

impl<'a> SnapshotInput<'a> {
    /// Returns the label the seed lists assign to `domain` on this day,
    /// honoring the hidden set.
    pub fn seed_label(&self, domain: DomainId) -> Label {
        self.label(domain, self.table.e2ld_of(domain))
    }

    /// [`seed_label`](Self::seed_label) of `domain`, whose e2LD is `e2ld`.
    fn label(&self, domain: DomainId, e2ld: E2ldId) -> Label {
        if self.hidden.is_some_and(|h| h.contains(&domain)) {
            Label::Unknown
        } else if self.blacklist.contains_as_of(domain, self.day) {
            Label::Malware
        } else if self.whitelist.contains(e2ld) {
            Label::Benign
        } else {
            Label::Unknown
        }
    }
}

/// The probe filter and R1–R4 as `config` sets them, at its parallelism.
fn day_rules(config: &SegugioConfig) -> DayRules<'_> {
    DayRules {
        prune: &config.prune,
        probe_filter: config.probe_filter,
        workers: config.effective_parallelism(),
    }
}

/// A labeled, pruned behavior graph plus the abuse index scoped to its day.
#[derive(Debug, Clone)]
pub struct DaySnapshot {
    /// The pruned, labeled graph.
    pub graph: BehaviorGraph,
    /// The IP-abuse index over the `W`-day window preceding the day.
    pub abuse: AbuseIndex,
    /// What pruning removed.
    pub prune_stats: PruneStats,
    /// Graph statistics *before* pruning, as `(machines, domains, edges)` —
    /// the paper's Table I counts.
    pub unpruned_counts: (usize, usize, usize),
    /// Domain label counts before pruning `(malware, benign, unknown)`.
    pub unpruned_domain_labels: (usize, usize, usize),
    /// Machine label counts before pruning `(malware, benign, unknown)`.
    pub unpruned_machine_labels: (usize, usize, usize),
}

impl DaySnapshot {
    /// The snapshot's observation day.
    pub fn day(&self) -> Day {
        self.graph.day()
    }

    /// The machines implicated by `detections`: every machine of the pruned
    /// graph that queried at least one detected domain, ascending (Section
    /// VI: "Segugio can detect both malware-control domains and the
    /// infected machines that query them at the same time"). One pass over
    /// the machine side against a bitmap of the detected domains.
    pub fn implicated_machines(&self, detections: &[Detection]) -> Vec<MachineId> {
        let graph = &self.graph;
        let mut detected = vec![false; graph.domain_count()];
        for d in detections
            .iter()
            .filter_map(|det| graph.domain_idx(det.domain))
        {
            detected[d.index()] = true;
        }
        graph
            .machine_indices()
            .filter(|&m| graph.domains_of(m).any(|d| detected[d.index()]))
            .map(|m| graph.machine_id(m))
            .collect()
    }

    /// Builds the snapshot: the graph, annotated, labeled and pruned as it
    /// is built (the unpruned graph never exists), and the abuse index.
    pub fn build(input: &SnapshotInput<'_>, config: &SegugioConfig) -> Self {
        let (built, abuse) = Self::beside_abuse(input, config, || {
            let (e2ld_of, label_of) = (|d| input.table.e2ld_of(d), |d, e| input.label(d, e));
            let (day, queries, resolutions) = (input.day, input.queries, input.resolutions);
            let rules = day_rules(config);
            GraphBuilder::pruned_from_queries(day, queries, resolutions, e2ld_of, label_of, rules)
        });
        Self::from_parts(built, abuse)
    }

    /// Builds the snapshot from an already-accumulated chunk-run edge set,
    /// grouping the runs' pairs by machine without merging them or ever
    /// holding the raw observations in one buffer. `input.queries` is
    /// ignored (it may be empty); the query edges come from `runs`.
    ///
    /// Bit-for-bit identical to [`build`](Self::build) over the same edge
    /// set; beyond the output graph, memory is bounded by the run
    /// capacity, not the observation count.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from re-reading runs spilled to the scratch
    /// file.
    pub fn build_from_runs(
        input: &SnapshotInput<'_>,
        runs: &EdgeRuns,
        config: &SegugioConfig,
    ) -> std::io::Result<Self> {
        let (built, abuse) = Self::beside_abuse(input, config, || {
            let (e2ld_of, label_of) = (|d| input.table.e2ld_of(d), |d, e| input.label(d, e));
            let (day, resolutions, rules) = (input.day, input.resolutions, day_rules(config));
            GraphBuilder::pruned_from_runs(day, runs, resolutions, e2ld_of, label_of, rules)
        });
        Ok(Self::from_parts(built?, abuse))
    }

    /// Finishes a snapshot around an unpruned graph built elsewhere:
    /// feeds its edges back through the fused build's labeling, probe
    /// filter and pruning ([`BehaviorGraph::pruned`]), beside the abuse
    /// index. Equal to [`build`](Self::build) over the same edges.
    #[doc(hidden)]
    pub fn from_unpruned_graph(
        graph: BehaviorGraph,
        input: &SnapshotInput<'_>,
        config: &SegugioConfig,
    ) -> Self {
        let (built, abuse) = Self::beside_abuse(input, config, || {
            let mut graph = graph;
            apply_labels_with(&mut graph, |d, e2ld| input.label(d, e2ld));
            graph.pruned(day_rules(config))
        });
        Self::from_parts(built, abuse)
    }

    fn from_parts(built: PrunedDay, abuse: AbuseIndex) -> Self {
        DaySnapshot {
            graph: built.graph,
            abuse,
            prune_stats: built.stats,
            unpruned_counts: built.unpruned_counts,
            unpruned_domain_labels: built.unpruned_domain_labels,
            unpruned_machine_labels: built.unpruned_machine_labels,
        }
    }

    /// Runs `build` and builds the abuse index over the `W` days
    /// preceding the snapshot day, labeled with the same (hidden-aware)
    /// seed labels. The index reads only the pDNS store and the seed
    /// labels, never the graph, so with more than one worker
    /// ([`effective_parallelism`](SegugioConfig::effective_parallelism))
    /// it is built on a second thread, started before `build`.
    fn beside_abuse<T>(
        input: &SnapshotInput<'_>,
        config: &SegugioConfig,
        build: impl FnOnce() -> T,
    ) -> (T, AbuseIndex) {
        let window = input
            .day
            .lookback_exclusive(config.features.abuse_window_days);
        let build_abuse = || AbuseIndex::build(input.pdns, window, |d| input.seed_label(d));
        if config.effective_parallelism() == 1 {
            let built = build();
            return (built, build_abuse());
        }
        std::thread::scope(|scope| {
            let worker = scope.spawn(build_abuse);
            let built = build();
            let abuse = worker
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            (built, abuse)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segugio_model::DomainName;

    fn table_with(names: &[&str]) -> (DomainTable, Vec<DomainId>) {
        let mut t = DomainTable::new();
        let ids = names
            .iter()
            .map(|n| t.intern(&DomainName::parse(n).unwrap()))
            .collect();
        (t, ids)
    }

    #[test]
    fn seed_label_respects_hidden_set() {
        let (table, ids) = table_with(&["evil.example", "www.good.example"]);
        let mut blacklist = Blacklist::new();
        blacklist.insert(ids[0], Day(1));
        let mut whitelist = Whitelist::new();
        whitelist.insert(table.e2ld_of(ids[1]));
        let hidden: HashSet<DomainId> = [ids[0]].into_iter().collect();
        let pdns = PassiveDns::new();

        let base = SnapshotInput {
            day: Day(5),
            queries: &[],
            resolutions: &[],
            table: &table,
            pdns: &pdns,
            blacklist: &blacklist,
            whitelist: &whitelist,
            hidden: None,
        };
        assert_eq!(base.seed_label(ids[0]), Label::Malware);
        assert_eq!(base.seed_label(ids[1]), Label::Benign);

        let hiding = SnapshotInput {
            hidden: Some(&hidden),
            ..base
        };
        assert_eq!(hiding.seed_label(ids[0]), Label::Unknown);
        assert_eq!(hiding.seed_label(ids[1]), Label::Benign);

        // Blacklist entries from the future are not yet known.
        let early = SnapshotInput {
            day: Day(0),
            ..base
        };
        assert_eq!(early.seed_label(ids[0]), Label::Unknown);
    }

    #[test]
    fn probe_filter_removes_scanners() {
        let (table, ids) = table_with(&[
            "evil0.example",
            "evil1.example",
            "evil2.example",
            "evil3.example",
        ]);
        let mut blacklist = Blacklist::new();
        for &d in &ids {
            blacklist.insert(d, Day(0));
        }
        let whitelist = Whitelist::new();
        let pdns = PassiveDns::new();
        // Machine 0 probes all four blacklisted domains; machines 1-3 are
        // ordinary victims querying one each (plus each other for degree).
        let mut queries = vec![];
        for &d in &ids {
            queries.push((MachineId(0), d));
        }
        for m in 1..=3u32 {
            queries.push((MachineId(m), ids[0]));
            queries.push((MachineId(m), ids[1]));
        }
        let mut config = SegugioConfig {
            probe_filter: Some(3),
            ..SegugioConfig::default()
        };
        config.prune.min_machine_degree = 0;
        config.prune.popular_fraction = 2.0;
        let input = SnapshotInput {
            day: Day(1),
            queries: &queries,
            resolutions: &[],
            table: &table,
            pdns: &pdns,
            blacklist: &blacklist,
            whitelist: &whitelist,
            hidden: None,
        };
        let snap = DaySnapshot::build(&input, &config);
        assert!(
            snap.graph.machine_idx(MachineId(0)).is_none(),
            "prober removed"
        );
        assert!(snap.graph.machine_idx(MachineId(1)).is_some());
    }

    #[test]
    fn chunked_paths_match_in_memory_build() {
        let (table, ids) = table_with(&["evil.example", "www.good.example", "other.example"]);
        let mut blacklist = Blacklist::new();
        blacklist.insert(ids[0], Day(0));
        let mut whitelist = Whitelist::new();
        whitelist.insert(table.e2ld_of(ids[1]));
        let pdns = PassiveDns::new();
        let mut queries = Vec::new();
        for m in 0..6u32 {
            for d in &ids {
                queries.push((MachineId(m), *d));
            }
        }
        let resolutions: Vec<(DomainId, Vec<Ipv4>)> = ids
            .iter()
            .map(|&d| (d, vec![Ipv4::from_octets(10, 0, 0, d.0 as u8)]))
            .collect();
        let input = SnapshotInput {
            day: Day(3),
            queries: &queries,
            resolutions: &resolutions,
            table: &table,
            pdns: &pdns,
            blacklist: &blacklist,
            whitelist: &whitelist,
            hidden: None,
        };
        let mut config = SegugioConfig::default();
        config.prune.min_machine_degree = 2;
        config.prune.popular_fraction = 2.0;
        let reference = DaySnapshot::build(&input, &config);

        // Capacity 4 forces several sealed (spilled) runs out of 18 edges.
        let mut runs = EdgeRuns::with_run_capacity(4);
        runs.extend(queries.iter().copied());
        let empty_queries = SnapshotInput {
            queries: &[],
            ..input
        };
        let via_runs = DaySnapshot::build_from_runs(&empty_queries, &runs, &config).unwrap();

        assert_eq!(
            format!("{:?}", reference.graph),
            format!("{:?}", via_runs.graph)
        );
        assert_eq!(reference.unpruned_counts, via_runs.unpruned_counts);
        assert_eq!(
            format!("{:?}", reference.prune_stats),
            format!("{:?}", via_runs.prune_stats)
        );
    }

    #[test]
    fn build_labels_and_prunes() {
        let (table, ids) = table_with(&[
            "evil.example",
            "www.good.example",
            "other.example",
            "second.example",
        ]);
        let mut blacklist = Blacklist::new();
        blacklist.insert(ids[0], Day(0));
        let mut whitelist = Whitelist::new();
        whitelist.insert(table.e2ld_of(ids[1]));
        let pdns = PassiveDns::new();

        // 8 machines, each querying all 4 domains; the config below relaxes
        // R1's degree threshold so they survive pruning.
        let mut queries = Vec::new();
        for m in 0..8u32 {
            for d in &ids {
                queries.push((MachineId(m), *d));
            }
        }
        let resolutions: Vec<(DomainId, Vec<Ipv4>)> = ids
            .iter()
            .map(|&d| (d, vec![Ipv4::from_octets(10, 0, 0, d.0 as u8)]))
            .collect();
        let input = SnapshotInput {
            day: Day(3),
            queries: &queries,
            resolutions: &resolutions,
            table: &table,
            pdns: &pdns,
            blacklist: &blacklist,
            whitelist: &whitelist,
            hidden: None,
        };
        let mut config = SegugioConfig::default();
        // 4 domains per machine would all be pruned by R1's default (<=5);
        // relax for this small fixture.
        config.prune.min_machine_degree = 2;
        // Every machine queries every benign domain in this fixture, so the
        // too-popular rule R4 would empty it; disable R4 here.
        config.prune.popular_fraction = 2.0;
        let snap = DaySnapshot::build(&input, &config);
        assert_eq!(snap.unpruned_counts.0, 8);
        assert_eq!(snap.unpruned_counts.1, 4);
        assert_eq!(snap.unpruned_domain_labels.0, 1, "one malware domain");
        assert_eq!(snap.unpruned_domain_labels.1, 1, "one benign domain");
        let d0 = snap.graph.domain_idx(ids[0]).unwrap();
        assert_eq!(snap.graph.domain_label(d0), Label::Malware);
        // All machines query the malware domain → all labeled malware.
        assert_eq!(snap.unpruned_machine_labels.0, 8);
    }
}
