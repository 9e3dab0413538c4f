//! Workload generation: sizes, the generated world, the low-churn replay,
//! and what both binaries need to judge a day's output (digest, detection
//! quality). The generator is workload, never system under test: every
//! second spent here is charged to `setup_s`.

use segugio_core::{crc32, DayReport, Detection, SnapshotInput};
use segugio_model::{Day, DomainId, Ipv4, Label, MachineId};
use segugio_traffic::{DayTraffic, GroundTruth, IspConfig, IspNetwork};

/// `Full` is what `BENCHMARK.json` measures; `Smoke` is the same code on a
/// 2 k-machine world, for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// `track-churn` / `track-steady`: one world, one `Tracker`, a closed loop
/// of days.
#[derive(Debug, Clone)]
pub struct TrackSpec {
    pub isp: IspConfig,
    pub warm_up: u32,
    /// Low-churn replay instead of the generator's default traffic.
    pub steady: bool,
    /// Warm days measured when `--seconds` allows; never fewer than
    /// [`MIN_WARM_DAYS`].
    pub max_warm_days: usize,
}

/// Warm days a `track-*` run measures whatever `--seconds` says: a median
/// needs three.
pub const MIN_WARM_DAYS: usize = 3;

/// `stream-1m`: one composed day through spilled edge runs.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    pub isp: IspConfig,
    pub warm_up: u32,
    pub chunk_machines: usize,
    pub run_capacity: usize,
}

/// `logs-cron`: exported logs driven through the `segugio` binary.
#[derive(Debug, Clone)]
pub struct LogsSpec {
    pub isp: IspConfig,
    pub warm_up: u32,
    pub days: u32,
    /// Morning runs measured when `--seconds` allows; at least one.
    pub max_mornings: usize,
}

#[derive(Debug, Clone)]
pub enum Spec {
    Track(TrackSpec),
    Stream(StreamSpec),
    Logs(LogsSpec),
}

/// The inputs of `workload` at `scale`, or `None` for an unknown name.
/// Sizes were fixed on the 2-core reference host so that the 92 runs the
/// driver makes fit its hour; see `README.md`.
pub fn spec(workload: &str, scale: Scale, seed: u64) -> Option<Spec> {
    let full = scale == Scale::Full;
    let smoke_isp = IspConfig {
        machines: 2_000,
        ..IspConfig::small(seed)
    };
    let track = |steady| {
        Spec::Track(TrackSpec {
            isp: if full {
                IspConfig {
                    machines: 200_000,
                    benign_e2lds: 27_000,
                    tail_pool: 120_000,
                    ..IspConfig::paper(seed)
                }
            } else {
                smoke_isp.clone()
            },
            warm_up: 15,
            steady,
            max_warm_days: if full { 4 } else { 3 },
        })
    };
    match workload {
        "track-churn" => Some(track(false)),
        "track-steady" => Some(track(true)),
        "stream-1m" => Some(Spec::Stream(StreamSpec {
            isp: if full {
                IspConfig::paper(seed)
            } else {
                smoke_isp.clone()
            },
            warm_up: 15,
            chunk_machines: if full { 16_384 } else { 256 },
            // Smoke days are ~60 k observations: a small capacity keeps
            // the spill-and-merge route under test there too.
            run_capacity: if full {
                segugio_graph::DEFAULT_RUN_CAPACITY
            } else {
                8_192
            },
        })),
        "logs-cron" => Some(Spec::Logs(LogsSpec {
            isp: if full {
                IspConfig {
                    machines: 20_000,
                    ..IspConfig::small(seed)
                }
            } else {
                smoke_isp.clone()
            },
            warm_up: 18,
            days: 8,
            max_mornings: if full { 3 } else { 2 },
        })),
        _ => None,
    }
}

/// Runs `f` and returns its value with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = crate::clock();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Builds the world and advances its history stores.
pub fn build_world(isp: &IspConfig, warm_up: u32) -> IspNetwork {
    let mut world = IspNetwork::new(isp.clone());
    world.warm_up(warm_up);
    world
}

/// The day as the detector sees it.
pub fn snapshot_input<'a>(world: &'a IspNetwork, day: &'a DayTraffic) -> SnapshotInput<'a> {
    SnapshotInput {
        day: day.day,
        queries: &day.queries,
        resolutions: &day.resolutions,
        table: world.table(),
        pdns: world.pdns(),
        blacklist: world.commercial_blacklist(),
        whitelist: world.whitelist(),
        hidden: None,
    }
}

type Edge = (MachineId, DomainId);

/// The lazily generated days of a `track-*` workload.
pub struct TrackDays {
    world: IspNetwork,
    steady: bool,
    /// Yesterday's replayed day, on `track-steady`.
    prev: Option<SteadyDay>,
    t: usize,
}

struct SteadyDay {
    edges: Vec<Edge>,
    resolutions: Vec<(DomainId, Vec<Ipv4>)>,
}

impl TrackDays {
    pub fn new(spec: &TrackSpec) -> TrackDays {
        TrackDays {
            world: build_world(&spec.isp, spec.warm_up),
            steady: spec.steady,
            prev: None,
            t: 0,
        }
    }

    pub fn world(&self) -> &IspNetwork {
        &self.world
    }

    /// Generates the next day. On `track-steady`, day 0 is the generator's
    /// day (deduplicated) and each later day is [`steady_edges`] of the
    /// previous one, with resolutions carried forward for the edges that
    /// were kept.
    pub fn generate_day(&mut self) -> DayTraffic {
        let mut real = self.world.next_day();
        let t = self.t;
        self.t += 1;
        if !self.steady {
            return real;
        }
        let real_edges = sorted_distinct(std::mem::take(&mut real.queries));
        let day = match self.prev.take() {
            None => DayTraffic {
                queries: real_edges,
                ..real
            },
            Some(prev) => {
                let queries = steady_edges(&prev.edges, &real_edges, t);
                let resolutions = carry_resolutions(&queries, real.resolutions, prev.resolutions);
                DayTraffic {
                    day: real.day,
                    queries,
                    resolutions,
                }
            }
        };
        self.prev = Some(SteadyDay {
            edges: day.queries.clone(),
            resolutions: day.resolutions.clone(),
        });
        day
    }
}

/// Distinct edges in ascending order.
pub fn sorted_distinct(mut edges: Vec<Edge>) -> Vec<Edge> {
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Day `t` of the low-churn replay: `prev` minus a rotating tenth, plus the
/// same count of edges that are new in the generator's day `real` (spread
/// evenly over its machines). Both inputs and the result are sorted and
/// distinct, and every id comes from the generator's tables.
pub fn steady_edges(prev: &[Edge], real: &[Edge], t: usize) -> Vec<Edge> {
    let mut today: Vec<Edge> = prev
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 10 != t % 10)
        .map(|(_, &e)| e)
        .collect();
    let dropped = prev.len() - today.len();

    // `real \ prev` by a merge walk over the two sorted lists.
    let mut fresh = Vec::new();
    let mut p = prev.iter().peekable();
    for &e in real {
        while p.next_if(|&&q| q < e).is_some() {}
        if p.peek() != Some(&&e) {
            fresh.push(e);
        }
    }
    let take = dropped.min(fresh.len());
    today.extend((0..take).map(|k| fresh[k * fresh.len() / take]));
    today.sort_unstable();
    today
}

/// Fraction of `today`'s distinct edges absent from `prev` (both sorted).
pub fn new_edge_fraction(prev: &[Edge], today: &[Edge]) -> f64 {
    if today.is_empty() {
        return 0.0;
    }
    let mut p = prev.iter().peekable();
    let mut fresh = 0usize;
    for &e in today {
        while p.next_if(|&&q| q < e).is_some() {}
        if p.peek() != Some(&&e) {
            fresh += 1;
        }
    }
    fresh as f64 / today.len() as f64
}

/// Resolutions for a replayed day: today's real answer where the domain
/// resolved today, yesterday's answer for a kept edge whose domain did
/// not, and nothing for domains no edge names.
fn carry_resolutions(
    edges: &[Edge],
    real: Vec<(DomainId, Vec<Ipv4>)>,
    prev: Vec<(DomainId, Vec<Ipv4>)>,
) -> Vec<(DomainId, Vec<Ipv4>)> {
    let mut queried: Vec<bool> = Vec::new();
    for &(_, d) in edges {
        if d.index() >= queried.len() {
            queried.resize(d.index() + 1, false);
        }
        queried[d.index()] = true;
    }
    let mut out = Vec::new();
    let mut prev = prev.into_iter().peekable();
    for entry in real {
        while let Some(old) = prev.next_if(|old| old.0 < entry.0) {
            out.push(old);
        }
        prev.next_if(|old| old.0 == entry.0);
        out.push(entry);
    }
    out.extend(prev);
    out.retain(|(d, _)| queried.get(d.index()).copied().unwrap_or(false));
    out
}

/// CRC-32 chain over each day's threshold bits, detections sorted by
/// `(domain, score bits)`, confirmations and implicated-machine count.
/// Two routes computed the same days iff their digests are equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest(u32);

impl Digest {
    pub fn value(self) -> u32 {
        self.0
    }

    pub fn day(
        &mut self,
        threshold: f32,
        detections: &[Detection],
        confirmed: &[(DomainId, Day)],
        implicated: usize,
    ) {
        let mut sorted: Vec<(u32, u32)> = detections
            .iter()
            .map(|d| (d.domain.0, d.score.to_bits()))
            .collect();
        sorted.sort_unstable();
        let mut bytes = Vec::with_capacity(24 + 8 * (sorted.len() + confirmed.len()));
        bytes.extend_from_slice(&self.0.to_le_bytes());
        bytes.extend_from_slice(&threshold.to_bits().to_le_bytes());
        bytes.extend_from_slice(&(sorted.len() as u64).to_le_bytes());
        for (domain, score) in sorted {
            bytes.extend_from_slice(&domain.to_le_bytes());
            bytes.extend_from_slice(&score.to_le_bytes());
        }
        for &(domain, flagged_on) in confirmed {
            bytes.extend_from_slice(&domain.0.to_le_bytes());
            bytes.extend_from_slice(&flagged_on.0.to_le_bytes());
        }
        bytes.extend_from_slice(&(implicated as u64).to_le_bytes());
        self.0 = crc32(&bytes);
    }

    pub fn day_report(&mut self, report: &DayReport) {
        self.day(
            report.threshold,
            &report.all_detections,
            &report.confirmed,
            report.implicated_machines.len(),
        );
    }

    /// Folds arbitrary text in (the `segugio` binary's output).
    pub fn fold_output(&mut self, text: &str) {
        let mut bytes = self.0.to_le_bytes().to_vec();
        bytes.extend_from_slice(text.as_bytes());
        self.0 = crc32(&bytes);
    }
}

/// Detection quality against the generator's ground truth, over the
/// unknown domains present in the judged days: a domain is present when it
/// was queried that day and unknown when the day's seed lists do not label
/// it — pruned domains count, since an operator never sees them flagged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    pub malicious: u64,
    pub malicious_flagged: u64,
    pub benign: u64,
    pub benign_flagged: u64,
}

impl Quality {
    /// `flagged` are the day's detections at or above its threshold.
    pub fn add_day(
        &mut self,
        input: &SnapshotInput<'_>,
        truth: &GroundTruth,
        flagged: &[Detection],
    ) {
        let mut is_flagged: Vec<bool> = Vec::new();
        for det in flagged {
            let i = det.domain.index();
            if i >= is_flagged.len() {
                is_flagged.resize(i + 1, false);
            }
            is_flagged[i] = true;
        }
        // The generator resolves every queried domain: the resolution list
        // is the day's distinct domains.
        for &(domain, _) in input.resolutions {
            if input.seed_label(domain) != Label::Unknown {
                continue;
            }
            let hit = is_flagged.get(domain.index()).copied().unwrap_or(false);
            if truth.is_malicious(domain) {
                self.malicious += 1;
                self.malicious_flagged += u64::from(hit);
            } else {
                self.benign += 1;
                self.benign_flagged += u64::from(hit);
            }
        }
    }

    pub fn detect_tpr(&self) -> f64 {
        ratio(self.malicious_flagged, self.malicious)
    }

    pub fn detect_fpr(&self) -> f64 {
        ratio(self.benign_flagged, self.benign)
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them — the spread the driver
/// computes. Needs at least two values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m % 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(quartile(3) - quartile(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs
            .iter()
            .map(|&(m, d)| (MachineId(m), DomainId(d)))
            .collect()
    }

    #[test]
    fn steady_day_swaps_a_tenth_for_new_edges() {
        let prev: Vec<Edge> = (0..1000)
            .map(|i| (MachineId(i / 10), DomainId(i % 10)))
            .collect();
        // The real day shares half of `prev` and brings 800 new edges.
        let real = sorted_distinct(
            (0..500)
                .map(|i| (MachineId(i / 10), DomainId(i % 10)))
                .chain((0..800).map(|i| (MachineId(i / 8), DomainId(100 + i % 8))))
                .collect(),
        );
        let today = steady_edges(&prev, &real, 3);
        assert_eq!(today.len(), prev.len());
        assert!(today.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!((new_edge_fraction(&prev, &today) - 0.10).abs() < 1e-9);
        // Every edge comes from one of the two inputs.
        assert!(today
            .iter()
            .all(|e| prev.binary_search(e).is_ok() || real.binary_search(e).is_ok()));
        // The picks span the real day's machines instead of its first few.
        let newest = today.iter().filter(|e| e.1 .0 >= 100).map(|e| e.0 .0).max();
        assert!(newest.unwrap() > 80);
    }

    #[test]
    fn smoke_replay_churns_a_tenth_with_known_ids() {
        let Some(Spec::Track(steady)) = spec("track-steady", Scale::Smoke, 11) else {
            panic!("track-steady is a track workload");
        };
        let mut days = TrackDays::new(&steady);
        let mut prev = sorted_distinct(days.generate_day().queries);
        for _ in 0..3 {
            let day = days.generate_day();
            assert_eq!(day.queries, sorted_distinct(day.queries.clone()));
            let fraction = new_edge_fraction(&prev, &day.queries);
            assert!(
                (fraction - 0.10).abs() < 0.01,
                "new-edge fraction {fraction}"
            );
            let table = days.world().table();
            assert!(day
                .queries
                .iter()
                .all(|&(m, d)| m.index() < steady.isp.machines && d.index() < table.len()));
            // Every queried domain resolves, and nothing else is listed.
            let mut queried: Vec<DomainId> = day.queries.iter().map(|e| e.1).collect();
            queried.sort_unstable();
            queried.dedup();
            let resolved: Vec<DomainId> = day.resolutions.iter().map(|r| r.0).collect();
            assert_eq!(resolved, queried);
            prev = day.queries;
        }
        // The generator's own traffic churns far more.
        let Some(Spec::Track(churn)) = spec("track-churn", Scale::Smoke, 11) else {
            panic!("track-churn is a track workload");
        };
        let mut days = TrackDays::new(&churn);
        let first = sorted_distinct(days.generate_day().queries);
        let second = sorted_distinct(days.generate_day().queries);
        assert!(new_edge_fraction(&first, &second) > 0.4);
    }

    #[test]
    fn resolutions_follow_the_edges() {
        let ip = |n| vec![Ipv4::from_octets(10, 0, 0, n)];
        let today = edges(&[(0, 1), (0, 2), (1, 4)]);
        let real = vec![(DomainId(2), ip(22)), (DomainId(3), ip(33))];
        let prev = vec![
            (DomainId(1), ip(1)),
            (DomainId(2), ip(2)),
            (DomainId(5), ip(5)),
        ];
        let carried = carry_resolutions(&today, real, prev);
        // 1 is carried, 2 takes today's answer, 3 and 5 are not queried,
        // 4 never resolved.
        assert_eq!(carried, vec![(DomainId(1), ip(1)), (DomainId(2), ip(22))]);
    }

    #[test]
    fn digest_ignores_order_and_sees_one_ulp() {
        let det = |d, s: f32| Detection {
            domain: DomainId(d),
            score: s,
        };
        let of = |dets: &[Detection]| {
            let mut digest = Digest::default();
            digest.day(0.5, dets, &[(DomainId(9), Day(3))], 7);
            digest.value()
        };
        let base = of(&[det(1, 0.9), det(2, 0.8), det(3, 0.7)]);
        assert_eq!(base, of(&[det(3, 0.7), det(1, 0.9), det(2, 0.8)]));
        let nudged = f32::from_bits(0.8f32.to_bits() + 1);
        assert_ne!(base, of(&[det(1, 0.9), det(2, nudged), det(3, 0.7)]));
        // The chain also sees day order.
        let mut ab = Digest::default();
        ab.day(0.1, &[det(1, 0.9)], &[], 1);
        ab.day(0.2, &[det(2, 0.9)], &[], 1);
        let mut ba = Digest::default();
        ba.day(0.2, &[det(2, 0.9)], &[], 1);
        ba.day(0.1, &[det(1, 0.9)], &[], 1);
        assert_ne!(ab, ba);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((quartile_spread(&[16.0, 1.0, 4.0, 2.0, 8.0]).unwrap() - 10.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
