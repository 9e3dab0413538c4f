//! The 11 statistical domain features (paper Section II-A3).
//!
//! | # | group | feature |
//! |---|-------|---------|
//! | 0 | F1 machine behavior | fraction of known-infected queriers `m = |I|/|S|` |
//! | 1 | F1 machine behavior | fraction of unknown queriers `u = |U|/|S|` |
//! | 2 | F1 machine behavior | total querier count `t = |S|` |
//! | 3 | F2 domain activity | FQD active days in the past `n` days |
//! | 4 | F2 domain activity | FQD consecutive-day streak ending today |
//! | 5 | F2 domain activity | e2LD active days in the past `n` days |
//! | 6 | F2 domain activity | e2LD consecutive-day streak ending today |
//! | 7 | F3 IP abuse | fraction of resolved IPs previously used by known malware domains |
//! | 8 | F3 IP abuse | fraction of resolved /24s previously used by known malware domains |
//! | 9 | F3 IP abuse | resolved IPs used by unknown domains in the window |
//! | 10 | F3 IP abuse | resolved /24s used by unknown domains in the window |

use segugio_graph::hiding::querier_label;
use segugio_graph::{BehaviorGraph, DomainIdx};
use segugio_model::Label;
use segugio_pdns::{AbuseIndex, ActivityStore};

/// Number of features per domain.
pub const FEATURE_COUNT: usize = 11;

/// Human-readable feature names, indexed like the feature vector.
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "f1.infected_fraction",
    "f1.unknown_fraction",
    "f1.total_machines",
    "f2.fqd_active_days",
    "f2.fqd_streak",
    "f2.e2ld_active_days",
    "f2.e2ld_streak",
    "f3.malware_ip_fraction",
    "f3.malware_prefix_fraction",
    "f3.unknown_ips",
    "f3.unknown_prefixes",
];

/// The three feature groups, used by the ablation experiments (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureGroup {
    /// F1 — who queries the domain.
    MachineBehavior,
    /// F2 — how long and how consistently the domain has been active.
    DomainActivity,
    /// F3 — whether its resolved IP space was previously abused.
    IpAbuse,
}

impl FeatureGroup {
    /// The feature-vector columns belonging to this group.
    pub fn columns(self) -> &'static [usize] {
        match self {
            FeatureGroup::MachineBehavior => &[0, 1, 2],
            FeatureGroup::DomainActivity => &[3, 4, 5, 6],
            FeatureGroup::IpAbuse => &[7, 8, 9, 10],
        }
    }

    /// All groups.
    pub fn all() -> [FeatureGroup; 3] {
        [
            FeatureGroup::MachineBehavior,
            FeatureGroup::DomainActivity,
            FeatureGroup::IpAbuse,
        ]
    }

    /// The columns remaining when this group is *removed* — the "No X"
    /// configurations of the feature analysis.
    pub fn complement_columns(self) -> Vec<usize> {
        let drop = self.columns();
        (0..FEATURE_COUNT).filter(|c| !drop.contains(c)).collect()
    }
}

/// Feature-measurement parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureConfig {
    /// Domain-activity lookback `n` in days (paper: 14).
    pub activity_days: u32,
    /// IP-abuse lookback `W` in days (paper: 5 months ≈ 150).
    pub abuse_window_days: u32,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            activity_days: 14,
            abuse_window_days: 150,
        }
    }
}

/// Measures feature vectors for domains of one day snapshot.
#[derive(Debug, Clone)]
pub struct FeatureExtractor<'a> {
    graph: &'a BehaviorGraph,
    activity: &'a ActivityStore,
    abuse: &'a AbuseIndex,
    config: FeatureConfig,
    /// F1's infected and unknown querier counts per domain.
    queriers: Vec<[u32; 2]>,
}

impl<'a> FeatureExtractor<'a> {
    /// Creates an extractor over one day's labeled graph and its history
    /// stores, counting every domain's F1 queriers in one pass over the
    /// machine side.
    pub fn new(
        graph: &'a BehaviorGraph,
        activity: &'a ActivityStore,
        abuse: &'a AbuseIndex,
        config: FeatureConfig,
    ) -> Self {
        FeatureExtractor {
            graph,
            activity,
            abuse,
            config,
            queriers: querier_counts(graph),
        }
    }

    /// The features of domain `d`. An unknown (to-be-classified) domain is
    /// measured with the graph's labels as they stand; a known (training)
    /// domain with its own label hidden, cascading to the machines that
    /// depended on it, so its ground truth cannot leak into the vector.
    pub fn measure(&self, d: DomainIdx) -> [f32; FEATURE_COUNT] {
        let mut out = [0.0f32; FEATURE_COUNT];

        // --- F1: machine behavior ---
        let [infected, unknown] = self.queriers[d.index()];
        let total = self.graph.domain_degree(d) as u32;
        if total > 0 {
            out[0] = infected as f32 / total as f32;
            out[1] = unknown as f32 / total as f32;
        }
        out[2] = total as f32;

        // --- F2: domain activity ---
        let day = self.graph.day();
        let n = self.config.activity_days;
        let window = day.lookback(n);
        let id = self.graph.domain_id(d);
        let e2ld = self.graph.domain_e2ld(d);
        out[3] = self.activity.fqd_active_days(id, window) as f32;
        out[4] = self.activity.fqd_streak_ending(id, day, n) as f32;
        out[5] = self.activity.e2ld_active_days(e2ld, window) as f32;
        out[6] = self.activity.e2ld_streak_ending(e2ld, day, n) as f32;

        // --- F3: IP abuse ---
        let ips = self.graph.domain_ips(d);
        if !ips.is_empty() {
            let mut mal_ip = 0u32;
            let mut mal_pfx = 0u32;
            let mut unk_ip = 0u32;
            let mut unk_pfx = 0u32;
            for &ip in ips {
                if self.abuse.is_malware_ip(ip) {
                    mal_ip += 1;
                }
                if self.abuse.is_malware_prefix(ip.prefix24()) {
                    mal_pfx += 1;
                }
                if self.abuse.unknown_domains_on_ip(ip) > 0 {
                    unk_ip += 1;
                }
                if self.abuse.unknown_domains_on_prefix(ip.prefix24()) > 0 {
                    unk_pfx += 1;
                }
            }
            let k = ips.len() as f32;
            out[7] = mal_ip as f32 / k;
            out[8] = mal_pfx as f32 / k;
            out[9] = unk_ip as f32;
            out[10] = unk_pfx as f32;
        }

        out
    }
}

/// Each domain's infected and unknown queriers, from one pass over every
/// edge `(m, d)`: `m` counts with its graph label when `d` is unknown, and
/// with the hidden-label rule [`querier_label`] when `d` is known.
fn querier_counts(graph: &BehaviorGraph) -> Vec<[u32; 2]> {
    let mut counts = vec![[0u32; 2]; graph.domain_count()];
    for m in graph.machine_indices() {
        let (label, malware_degree) = (graph.machine_label(m), graph.machine_malware_degree(m));
        for d in graph.domains_of(m) {
            let seen = match graph.domain_label(d) {
                Label::Unknown => label,
                known => querier_label(label, malware_degree, known),
            };
            match seen {
                Label::Malware => counts[d.index()][0] += 1,
                Label::Unknown => counts[d.index()][1] += 1,
                Label::Benign => {}
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use segugio_graph::labeling::apply_seed_labels;
    use segugio_graph::GraphBuilder;
    use segugio_model::{Day, DayWindow, DomainId, E2ldId, Ipv4, MachineId};
    use segugio_pdns::PassiveDns;

    /// Unknown domain 30 queried by {M1 (malware), M2 (malware), M3
    /// (unknown), M4 (benign)}; resolved to one abused IP and one clean IP.
    fn setup() -> (BehaviorGraph, ActivityStore, AbuseIndex) {
        let mut b = GraphBuilder::new(Day(20));
        // Known malware domain 10 makes M1, M2 malware.
        b.add_query(MachineId(1), DomainId(10));
        b.add_query(MachineId(2), DomainId(10));
        // Benign domain 20.
        for m in 1..=4 {
            b.add_query(MachineId(m), DomainId(20));
        }
        // Unknown domain 31 makes M3 unknown.
        b.add_query(MachineId(3), DomainId(31));
        // Target unknown domain 30 queried by all four.
        for m in 1..=4 {
            b.add_query(MachineId(m), DomainId(30));
        }
        for d in [10u32, 20, 30, 31] {
            b.set_e2ld(DomainId(d), E2ldId(d));
        }
        let abused = Ipv4::from_octets(45, 0, 0, 9);
        let clean = Ipv4::from_octets(16, 0, 0, 9);
        b.add_resolution(DomainId(30), abused);
        b.add_resolution(DomainId(30), clean);
        let mut g = b.build();
        apply_seed_labels(&mut g, |d| d == DomainId(10), |e| e == E2ldId(20));

        let mut act = ActivityStore::new();
        // Domain 30 active days 18..=20 (streak 3), e2LD same.
        for day in 18..=20 {
            act.record(DomainId(30), E2ldId(30), Day(day));
        }
        // Plus an isolated active day outside the streak.
        act.record(DomainId(30), E2ldId(30), Day(10));

        let mut pdns = PassiveDns::new();
        // The abused IP was used by known-malware domain 10 historically.
        pdns.record(DomainId(10), abused, Day(5));
        // An unknown domain 99 also used the abused IP's /24.
        pdns.record(DomainId(99), Ipv4::from_octets(45, 0, 0, 77), Day(6));
        let abuse = AbuseIndex::build(&pdns, DayWindow::new(Day(0), Day(20)), |d| {
            if d == DomainId(10) {
                Label::Malware
            } else {
                Label::Unknown
            }
        });
        (g, act, abuse)
    }

    #[test]
    fn f1_machine_behavior() {
        let (g, act, abuse) = setup();
        let ex = FeatureExtractor::new(&g, &act, &abuse, FeatureConfig::default());
        let d30 = g.domain_idx(DomainId(30)).unwrap();
        let f = ex.measure(d30);
        assert!((f[0] - 0.5).abs() < 1e-6, "2 of 4 queriers infected");
        // M4 queries the unknown target domain, so it cannot be labeled
        // benign: for an unknown domain, u is always 1 - m.
        assert!((f[1] - 0.5).abs() < 1e-6, "2 of 4 queriers unknown");
        assert_eq!(f[2], 4.0);
    }

    #[test]
    fn f2_domain_activity() {
        let (g, act, abuse) = setup();
        let ex = FeatureExtractor::new(&g, &act, &abuse, FeatureConfig::default());
        let d30 = g.domain_idx(DomainId(30)).unwrap();
        let f = ex.measure(d30);
        assert_eq!(f[3], 4.0, "active days 10,18,19,20 inside 14-day lookback");
        assert_eq!(f[4], 3.0, "streak 18..20");
        assert_eq!(f[5], 4.0);
        assert_eq!(f[6], 3.0);
    }

    #[test]
    fn f3_ip_abuse() {
        let (g, act, abuse) = setup();
        let ex = FeatureExtractor::new(&g, &act, &abuse, FeatureConfig::default());
        let d30 = g.domain_idx(DomainId(30)).unwrap();
        let f = ex.measure(d30);
        assert!((f[7] - 0.5).abs() < 1e-6, "1 of 2 IPs malware-abused");
        assert!((f[8] - 0.5).abs() < 1e-6, "1 of 2 prefixes malware-abused");
        assert_eq!(f[9], 0.0, "no resolved IP used by unknown domains");
        assert_eq!(f[10], 1.0, "the abused /24 also hosted an unknown domain");
    }

    #[test]
    fn hidden_measurement_drops_self_contribution() {
        let (g, act, abuse) = setup();
        let ex = FeatureExtractor::new(&g, &act, &abuse, FeatureConfig::default());
        let d10 = g.domain_idx(DomainId(10)).unwrap();
        // Both queriers of d10 are malware only because of d10 itself:
        // hidden, M1 and M2 lose their only malware domain.
        let hid = ex.measure(d10);
        assert_eq!(hid[0], 0.0);
        assert_eq!(hid[1], 1.0, "both queriers become unknown");
    }

    #[test]
    fn degenerate_domain_without_ips_or_activity() {
        let (g, act, abuse) = setup();
        let ex = FeatureExtractor::new(&g, &act, &abuse, FeatureConfig::default());
        let d31 = g.domain_idx(DomainId(31)).unwrap();
        let f = ex.measure(d31);
        assert_eq!(f[2], 1.0);
        assert_eq!(f[3], 0.0);
        assert_eq!(f[7], 0.0);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn group_columns_partition_the_vector() {
        let mut all: Vec<usize> = FeatureGroup::all()
            .iter()
            .flat_map(|g| g.columns().iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..FEATURE_COUNT).collect::<Vec<_>>());
        assert_eq!(
            FeatureGroup::MachineBehavior.complement_columns(),
            vec![3, 4, 5, 6, 7, 8, 9, 10]
        );
        assert_eq!(FEATURE_NAMES.len(), FEATURE_COUNT);
    }
}
