//! Construction of a [`BehaviorGraph`]: one counting-sort CSR constructor
//! behind every entry point, which labels and prunes the day as it builds.
//!
//! Whatever the source — an in-memory query list or spilled [`EdgeRuns`]
//! — the day's `(machine, domain)` pairs reach `build_day` in any order,
//! with repeats (as loose pairs or as runs already grouped by machine).
//! `group_by_machine` buckets them by machine, and `fuse` then counts and
//! labels the domains, decides the probe filter and R1–R4 from bucket
//! sizes, labels and per-domain counts, and writes the pruned, remapped
//! adjacency in place. The unpruned graph is never materialised; without
//! rules, the same passes keep every edge.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

use segugio_model::{Day, DomainId, E2ldId, Ipv4, Label, MachineId};

use crate::graph::{tally, BehaviorGraph};
use crate::labeling::{derived_label, machine_label};
use crate::pruning::{percentile, DayRules, PruneStats, PrunedDay};
use crate::runs::{group_by_machine, machine_span, Stored};
use crate::EdgeRuns;

/// Accumulates one day of `(machine, domain)` query observations plus the
/// per-domain annotations, then freezes them into a [`BehaviorGraph`].
///
/// Duplicate queries of the same pair are collapsed (the graph is a set of
/// edges, not a multigraph). Unannotated domains get an empty IP set and,
/// if no e2LD was registered, a sentinel e2LD equal to their own id — the
/// builder is forgiving so tests can construct minimal graphs.
///
/// # Example
///
/// ```
/// use segugio_graph::GraphBuilder;
/// use segugio_model::{Day, DomainId, MachineId};
///
/// let mut b = GraphBuilder::new(Day(5));
/// b.add_query(MachineId(1), DomainId(9));
/// b.add_query(MachineId(1), DomainId(9)); // duplicate, collapsed
/// let g = b.build();
/// assert_eq!(g.edge_count(), 1);
/// assert_eq!(g.day(), Day(5));
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    day: Day,
    edges: Vec<(MachineId, DomainId)>,
    e2ld: HashMap<DomainId, E2ldId>,
    ips: Vec<(DomainId, Ipv4)>,
}

/// Flattens per-domain resolution lists into `(domain, ip)` pairs.
fn flatten(resolutions: &[(DomainId, Vec<Ipv4>)]) -> Vec<(DomainId, Ipv4)> {
    let mut pairs = Vec::with_capacity(resolutions.iter().map(|(_, ips)| ips.len()).sum());
    for (d, ips) in resolutions {
        pairs.extend(ips.iter().map(|&ip| (*d, ip)));
    }
    pairs
}

/// Builds from an in-memory query list, which reads without failing.
///
/// # Panics
///
/// If the list holds more than `u32::MAX` pairs, which the CSR's `u32`
/// offsets cannot index.
#[expect(
    clippy::panic,
    reason = "a list past u32::MAX pairs breaks the CSR's offset type, not a runtime condition"
)]
fn from_query_list(
    day: Day,
    queries: &[(MachineId, DomainId)],
    ip_pairs: Vec<(DomainId, Ipv4)>,
    e2ld_of: impl Fn(DomainId) -> E2ldId,
    label_of: impl Fn(DomainId, E2ldId) -> Label,
    rules: Option<DayRules<'_>>,
) -> PrunedDay {
    let span = machine_span(queries);
    match build_day(day, span, queries, ip_pairs, e2ld_of, label_of, rules) {
        Ok(built) => built,
        Err(err) => panic!("building a CSR from {} query pairs: {err}", queries.len()),
    }
}

/// The crate's only pairs → CSR constructor.
///
/// `stored` holds the day's pairs in any order and with repeats, machine
/// ids within `machines_span` (`None` for no pairs). [`group_by_machine`]
/// buckets them by machine as raw domain ids, [`fuse`] labels, prunes
/// under `rules` and ranks them, and [`annotate`] gives the survivors
/// their ids and IPs. `e2ld_of` and `label_of` are consulted once per
/// queried domain; `ip_pairs` may arrive in any order with repeats.
fn build_day<S: Stored + ?Sized>(
    day: Day,
    machines_span: Option<(u32, u32)>,
    stored: &S,
    mut ip_pairs: Vec<(DomainId, Ipv4)>,
    e2ld_of: impl Fn(DomainId) -> E2ldId,
    label_of: impl Fn(DomainId, E2ldId) -> Label,
    rules: Option<DayRules<'_>>,
) -> std::io::Result<PrunedDay> {
    let (m_lo, (ends, mut column, domain_span)) = match machines_span {
        Some(span) => (span.0, group_by_machine(span, stored)?),
        None => (0, (Vec::new(), Vec::new(), None)),
    };
    // Repeats were dropped in place; give the unused tail back.
    column.shrink_to_fit();
    // Keys are domain ids less the smallest, so every per-key array
    // spans only the ids present.
    let d_lo = domain_span.map_or(0, |(lo, _)| lo);
    let keys = domain_span.map_or(0, |(lo, hi)| (hi - lo) as usize + 1);
    if d_lo > 0 {
        column.iter_mut().for_each(|id| *id -= d_lo);
    }
    let mut built = fuse(
        day,
        &ends,
        column,
        keys,
        |k| e2ld_of(DomainId(d_lo + k)),
        |k, e2ld| label_of(DomainId(d_lo + k), e2ld),
        rules,
    );
    ip_pairs.sort_unstable();
    ip_pairs.dedup();
    let (machine, domain) = (|s| MachineId(m_lo + s), |k| DomainId(d_lo + k));
    annotate(&mut built.graph, machine, domain, ip_pairs);
    Ok(built)
}

/// A domain key's tag is its label's code in the low two bits, and flags.
/// In the graph R1–R4 see: queried by a machine the probe filter keeps.
const SEEN: u8 = 1 << 2;
/// In an e2LD group R4 drops.
const POPULAR: u8 = 1 << 3;
/// In an R4 candidate group whose distinct kept queriers are stamped.
const STAMPED: u8 = 1 << 4;
/// Kept by R1–R4.
const SURVIVES: u8 = 1 << 5;

fn tag_label(tag: u8) -> Label {
    match tag & 3 {
        0 => Label::Malware,
        1 => Label::Benign,
        _ => Label::Unknown,
    }
}

/// Runs `work` on up to `workers` contiguous slot ranges of about equal
/// edge counts, each with its own stretch of `column` (its slots' edges)
/// and the buffers `init` allocated for it on this thread (so that no
/// worker's allocator arena keeps memory once the day is built): the
/// first range on this thread, the others on scoped threads. Returns the
/// results in range order.
fn in_ranges<B: Send, T: Send>(
    ends: &[u32],
    column: &mut [u32],
    workers: usize,
    init: impl Fn(&Range<usize>) -> B,
    work: impl Fn(Range<usize>, &mut [u32], B) -> T + Sync,
) -> Vec<T> {
    let total = column.len();
    let (mut parts, mut rest, mut lo, mut done) = (Vec::new(), column, 0, 0);
    for i in 1..=workers {
        let hi = match i == workers {
            true => ends.len(),
            false => ends.partition_point(|&end| end as usize <= total * i / workers),
        };
        if hi > lo {
            let end = ends[hi - 1] as usize;
            let (stretch, tail) = std::mem::take(&mut rest).split_at_mut(end - done);
            parts.push((init(&(lo..hi)), lo..hi, stretch));
            (rest, lo, done) = (tail, hi, end);
        }
    }
    std::thread::scope(|scope| {
        let (work, mut parts) = (&work, parts.into_iter());
        let first = parts.next();
        let others: Vec<_> = parts
            .map(|(b, r, c)| scope.spawn(move || work(r, c, b)))
            .collect();
        let mut results: Vec<T> = first.into_iter().map(|(b, r, c)| work(r, c, b)).collect();
        for other in others {
            let result = other.join();
            results.push(result.unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        results
    })
}

/// Each key's degree: one count per range of [`in_ranges`], summed.
fn degrees(ends: &[u32], column: &mut [u32], keys: usize, workers: usize) -> Vec<u32> {
    let count = |_: Range<usize>, stretch: &mut [u32], mut degree: Vec<u32>| {
        stretch.iter().for_each(|&k| degree[k as usize] += 1);
        degree
    };
    let parts = in_ranges(ends, column, workers, |_| vec![0u32; keys], count);
    let mut parts = parts.into_iter();
    let mut sum = parts.next().unwrap_or_else(|| vec![0; keys]);
    for part in parts {
        sum.iter_mut()
            .zip(part)
            .for_each(|(total, count)| *total += count);
    }
    sum
}

/// What pass 3 writes over one range of slots, whose stretch of the column
/// starts at `base`: its kept machines with their ends in the stretch
/// (from 0), labels and malware degrees, and the labels before pruning of
/// all its machines.
#[derive(Default)]
struct Written {
    base: usize,
    machines: Vec<MachineId>,
    ends: Vec<u32>,
    labels: Vec<Label>,
    malware: Vec<u32>,
    unpruned_labels: (usize, usize, usize),
}

/// A key's rank, survival and label code packed in one word.
trait Packed: Copy + Send + Sync {
    fn pack(rank: u32, tag: u8) -> Self;
    /// The rank, 1 if the key survives (else 0), and the label's code.
    fn unpack(self) -> (u32, u32, u8);
}

impl Packed for u32 {
    fn pack(rank: u32, tag: u8) -> Self {
        rank << 3 | u32::from(tag & SURVIVES != 0) << 2 | u32::from(tag & 3)
    }
    fn unpack(self) -> (u32, u32, u8) {
        (self >> 3, self >> 2 & 1, self as u8 & 3)
    }
}

impl Packed for u64 {
    fn pack(rank: u32, tag: u8) -> Self {
        u64::from(rank) << 3 | u64::from(u32::pack(0, tag))
    }
    fn unpack(self) -> (u32, u32, u8) {
        ((self >> 3) as u32, (self >> 2 & 1) as u32, self as u8 & 3)
    }
}

/// Pass 3's write, over the ranges of [`in_ranges`]: each kept machine's
/// surviving keys become their ranks in place (a write never passes its
/// read), and every machine's labels before and after pruning are counted
/// from the same words.
fn write_ranks<P: Packed>(
    ends: &[u32],
    column: &mut [u32],
    keep: &[bool],
    (rank, tags): (Vec<u32>, Vec<u8>),
    workers: usize,
) -> Vec<Written> {
    let words: Vec<P> = rank
        .iter()
        .zip(&tags)
        .map(|(&r, &t)| P::pack(r, t))
        .collect();
    drop((rank, tags));
    let start_of = |s: usize| s.checked_sub(1).map_or(0, |s| ends[s] as usize);
    let init = |slots: &Range<usize>| {
        let kept = slots.clone().filter(|&s| keep[s]).count();
        let mut ends = Vec::with_capacity(kept + 1);
        ends.push(0);
        Written {
            base: start_of(slots.start),
            machines: Vec::with_capacity(kept),
            ends,
            labels: Vec::with_capacity(kept),
            malware: Vec::with_capacity(kept),
            unpruned_labels: (0, 0, 0),
        }
    };
    in_ranges(ends, column, workers, init, |slots, stretch, mut part| {
        let mut end = 0;
        for s in slots.filter(|&s| start_of(s) < ends[s] as usize) {
            let (start, reads) = (end, start_of(s) - part.base..ends[s] as usize - part.base);
            // Each key read is written at `end`, which a kept machine's
            // surviving key passes; labels are counted alongside. No
            // branch per key: survival and labels are unpredictable.
            let kept_machine = u32::from(keep[s]);
            let (mut malware, mut benign, mut kept_malware, mut kept_benign) = (0, 0, 0, 0);
            for read in reads.clone() {
                let (r, survives, label) = words[stretch[read] as usize].unpack();
                let survives = survives & kept_machine;
                stretch[end] = r;
                end += survives as usize;
                let is_malware = u32::from(label == Label::Malware as u8);
                let is_benign = u32::from(label == Label::Benign as u8);
                (malware, benign) = (malware + is_malware, benign + is_benign);
                kept_malware += is_malware & survives;
                kept_benign += is_benign & survives;
            }
            let label = derived_label(malware, benign as usize, reads.len());
            tally(&mut part.unpruned_labels, label);
            if end > start {
                part.machines.push(MachineId(s as u32));
                part.ends.push(end as u32);
                let label = derived_label(kept_malware, kept_benign as usize, end - start);
                part.labels.push(label);
                part.malware.push(kept_malware);
            }
        }
        part
    })
}

/// Labels, prunes and ranks one day grouped by machine.
///
/// `ends[s]` is where slot `s`'s ascending distinct domain keys end in
/// `column` (each starts where the previous ends); keys are below `keys`,
/// and ascending keys are ascending domain ids. The graph comes back with
/// `MachineId(slot)` and `DomainId(key)` as its ids and no IPs, for
/// [`annotate`] to finish. Two passes read every edge, with one lookup
/// into a per-key array each; between them, only dropped machines' edges
/// are read again:
///
/// 1. **Count** each key's degree; then label each queried key, once.
/// 2. **Machines.** The probe filter, then R2 and R1, decide each machine
///    from its bucket's size and (filter and R1 only) its label; θ_d, θ_m
///    and the counts before pruning are over the machines the filter
///    keeps. A dropped machine is taken off its keys' degrees, which end
///    as kept degrees. An e2LD group whose degrees reach θ_m before R1 and
///    R2 is popular (R4) if its largest kept degree still does, and not if
///    their sum falls short; a group in between has its distinct kept
///    queriers counted in one more pass over the kept machines.
/// 3. **Write.** R4 and R3 decide each queried key, the survivors are
///    ranked in ascending order, and [`write_ranks`] writes each kept
///    machine's surviving keys as ranks.
///
/// The edge passes split the slots into the rules' `workers` ranges
/// ([`in_ranges`]); counts are summed and pass 3's stretches moved
/// together in order, so the result does not depend on the width.
pub(crate) fn fuse(
    day: Day,
    ends: &[u32],
    mut column: Vec<u32>,
    keys: usize,
    e2ld_of: impl Fn(u32) -> E2ldId,
    label_of: impl Fn(u32, E2ldId) -> Label,
    rules: Option<DayRules<'_>>,
) -> PrunedDay {
    let start_of = |s: usize| s.checked_sub(1).map_or(0, |s| ends[s] as usize);
    let bucket = |s: usize| start_of(s)..ends[s] as usize;
    let workers = rules.map_or(1, |r| r.workers.max(1));

    // Pass 1.
    let mut degree = degrees(ends, &mut column, keys, workers);
    let queried_count = degree.iter().filter(|&&deg| deg > 0).count();
    let (mut tags, mut queried) = (vec![0u8; keys], Vec::with_capacity(queried_count));
    let mut unpruned_domain_labels = (0, 0, 0);
    for (k, _) in degree.iter().enumerate().filter(|(_, &deg)| deg > 0) {
        let e2ld = e2ld_of(k as u32);
        let label = label_of(k as u32, e2ld);
        tags[k] = label as u8 | SEEN;
        tally(&mut unpruned_domain_labels, label);
        queried.push((k as u32, e2ld));
    }
    let mut keep: Vec<bool> = (0..ends.len()).map(|s| !bucket(s).is_empty()).collect();
    let machine_count = keep.iter().filter(|&&kept| kept).count();
    let unpruned_counts = (machine_count, queried.len(), column.len());

    // Pass 2. `keep` marks the machines pass 3 writes.
    let mut stats = PruneStats::default();
    if let Some(DayRules {
        prune: config,
        probe_filter,
        ..
    }) = rules
    {
        let label_of_slot = |tags: &[u8], s: usize| {
            machine_label(&column[bucket(s)], |k| tag_label(tags[k as usize]))
        };
        // Dropping a machine takes it from its keys' degrees, which then
        // count the queriers still kept.
        let unquery = |degree: &mut [u32], s: usize| {
            column[bucket(s)]
                .iter()
                .for_each(|&k| degree[k as usize] -= 1);
        };
        if let Some(max) = probe_filter {
            for (s, keep) in keep.iter_mut().enumerate().filter(|(_, keep)| **keep) {
                if label_of_slot(&tags, s).1 >= max {
                    *keep = false;
                    unquery(&mut degree, s);
                }
            }
            for &(k, _) in &queried {
                if degree[k as usize] == 0 {
                    tags[k as usize] &= !SEEN;
                }
            }
        }
        let mut sizes = Vec::with_capacity(machine_count);
        sizes.extend(
            (0..ends.len())
                .filter(|&s| keep[s])
                .map(|s| bucket(s).len()),
        );
        (stats.machines_before, stats.edges_before) = (sizes.len(), sizes.iter().sum());
        let theta_d = percentile(&mut sizes, config.proxy_percentile).max(1);
        let theta_m = ((sizes.len() as f64) * config.popular_fraction).ceil() as usize;
        (stats.theta_d, stats.theta_m) = (theta_d, theta_m);
        drop(sizes);

        // R4's candidates: domains grouped by e2LD (sorted by `(e2ld, key)`,
        // no hash maps) whose degrees now reach θ_m. A group's degrees
        // bound its distinct queriers, now and after R1 and R2.
        let mut by_e2ld: Vec<u64> = queried
            .iter()
            .map(|&(k, e2ld)| u64::from(e2ld.0) << 32 | u64::from(k))
            .collect();
        by_e2ld.sort_unstable();
        let (key, same_e2ld) = (
            |e: &u64| *e as u32 as usize,
            |a: &u64, b: &u64| a >> 32 == b >> 32,
        );
        let bound = |group: &[u64], degree: &[u32]| {
            let degrees = group.iter().map(|e| degree[key(e)] as usize);
            degrees.fold((0, 0), |(largest, sum), d| (largest.max(d), sum + d))
        };
        let mut candidates = Vec::new();
        for group in by_e2ld.chunk_by(same_e2ld) {
            if theta_m > 0 && bound(group, &degree).1 >= theta_m {
                candidates.extend_from_slice(group);
            }
        }
        drop(by_e2ld);

        for (s, keep) in keep.iter_mut().enumerate().filter(|(_, keep)| **keep) {
            let size = bucket(s).len();
            let r2 = size > theta_d && theta_d > config.min_machine_degree;
            let r1 = !r2
                && size <= config.min_machine_degree
                && label_of_slot(&tags, s).0 != Label::Malware;
            if r1 || r2 {
                stats.r1_inactive_machines += usize::from(r1);
                stats.r2_proxy_machines += usize::from(r2);
                *keep = false;
                unquery(&mut degree, s);
            }
        }
        let mut undecided = Vec::new();
        for group in candidates.chunk_by(same_e2ld) {
            let (largest, sum) = bound(group, &degree);
            if largest >= theta_m {
                group.iter().for_each(|e| tags[key(e)] |= POPULAR);
            } else if sum >= theta_m {
                undecided.push(group);
            }
        }
        if !undecided.is_empty() {
            // A group counts a kept machine once: stamped with the last.
            let mut group_of = vec![0u32; keys];
            for (g, group) in undecided.iter().enumerate() {
                for e in group.iter() {
                    (group_of[key(e)], tags[key(e)]) = (g as u32, tags[key(e)] | STAMPED);
                }
            }
            let mut stamped = vec![(u32::MAX, 0usize); undecided.len()];
            for s in (0..ends.len()).filter(|&s| keep[s]) {
                let domains = column[bucket(s)].iter();
                for &k in domains.filter(|&&k| tags[k as usize] & STAMPED != 0) {
                    let (stamp, count) = &mut stamped[group_of[k as usize] as usize];
                    if *stamp != s as u32 {
                        (*stamp, *count) = (s as u32, *count + 1);
                    }
                }
            }
            for (group, (_, count)) in undecided.iter().zip(stamped) {
                if count >= theta_m {
                    group.iter().for_each(|e| tags[key(e)] |= POPULAR);
                }
            }
        }
    }

    // Pass 3: R4 and R3 decide each queried key; `degree` then becomes
    // each survivor's rank, and `u32::MAX` for a dropped key.
    let mut survivors = 0;
    for &(k, _) in &queried {
        let (kept, tag) = (degree[k as usize], &mut tags[k as usize]);
        let popular = *tag & POPULAR != 0;
        let single = kept <= 1 && tag_label(*tag) != Label::Malware;
        if rules.is_some() && *tag & SEEN != 0 {
            stats.domains_before += 1;
            stats.r4_popular_domains += usize::from(popular);
            stats.r3_single_machine_domains += usize::from(!popular && single);
        }
        // A known-malware domain left with no kept querier goes too.
        if rules.is_none() || !popular && !single && kept > 0 {
            (*tag, survivors) = (*tag | SURVIVES, survivors + 1);
        }
    }
    let mut domains = Vec::with_capacity(survivors);
    let mut domain_e2ld = Vec::with_capacity(survivors);
    let mut domain_labels = Vec::with_capacity(survivors);
    let mut domain_degree = Vec::with_capacity(survivors);
    for (k, e2ld) in queried {
        let (slot, tag) = (&mut degree[k as usize], tags[k as usize]);
        *slot = if tag & SURVIVES == 0 {
            u32::MAX
        } else {
            domains.push(DomainId(k));
            domain_e2ld.push(e2ld);
            domain_labels.push(tag_label(tag));
            domain_degree.push(*slot);
            domains.len() as u32 - 1
        };
    }
    // One word per key holds its rank, survival and label (4 bytes up to
    // 2^29 survivors): pass 3 then reads one word per edge.
    let written = if survivors < 1 << 29 {
        write_ranks::<u32>(ends, &mut column, &keep, (degree, tags), workers)
    } else {
        write_ranks::<u64>(ends, &mut column, &keep, (degree, tags), workers)
    };
    // Move the stretches together, in order.
    let mut parts = written.into_iter();
    let mut out = parts.next().unwrap_or_else(|| Written {
        ends: vec![0],
        ..Written::default()
    });
    let mut end = out.ends[out.ends.len() - 1] as usize;
    for mut part in parts {
        let len = part.ends[part.ends.len() - 1] as usize;
        column.copy_within(part.base..part.base + len, end);
        out.ends
            .extend(part.ends[1..].iter().map(|&e| e + end as u32));
        out.machines.append(&mut part.machines);
        out.labels.append(&mut part.labels);
        out.malware.append(&mut part.malware);
        let ((m, b, u), labels) = (part.unpruned_labels, &mut out.unpruned_labels);
        (*labels, end) = ((labels.0 + m, labels.1 + b, labels.2 + u), end + len);
    }
    column.truncate(end);
    column.shrink_to_fit();
    if rules.is_some() {
        stats.machines_after = out.machines.len();
        stats.domains_after = domains.len();
        stats.edges_after = end;
    }
    let graph = BehaviorGraph {
        day,
        machines: out.machines,
        ip_off: vec![0; domains.len() + 1],
        domains,
        domain_e2ld,
        ip_pool: Vec::new(),
        m_off: out.ends,
        m_adj: column,
        domain_degree,
        domain_labels,
        machine_labels: out.labels,
        machine_malware_degree: out.malware,
        queriers: OnceLock::new(),
    };
    PrunedDay {
        graph,
        stats,
        unpruned_counts,
        unpruned_domain_labels,
        unpruned_machine_labels: out.unpruned_labels,
    }
}

/// Finishes a graph from [`fuse`]: maps its slots and keys to machine and
/// domain ids (both monotone) and gives each domain its IPs from
/// `ip_pairs`, ascending and deduplicated, as one flat pool delimited by
/// `ip_off`; pairs of other domains are dropped.
pub(crate) fn annotate(
    graph: &mut BehaviorGraph,
    machine: impl Fn(u32) -> MachineId,
    domain: impl Fn(u32) -> DomainId,
    ip_pairs: impl IntoIterator<Item = (DomainId, Ipv4)>,
) {
    for m in &mut graph.machines {
        *m = machine(m.0);
    }
    for d in &mut graph.domains {
        *d = domain(d.0);
    }
    let mut ips = ip_pairs.into_iter().peekable();
    graph.ip_pool.reserve(ips.size_hint().0);
    for (i, &d) in graph.domains.iter().enumerate() {
        while let Some((id, ip)) = ips.next_if(|&(id, _)| id <= d) {
            if id == d {
                graph.ip_pool.push(ip);
            }
        }
        graph.ip_off[i + 1] = graph.ip_pool.len() as u32;
    }
    // Every structural invariant is checked on debug builds (tests,
    // proptests); release builds skip the O(edges) pass.
    #[cfg(debug_assertions)]
    if let Err(violation) = graph.validate() {
        unreachable!("constructor produced an invalid graph: {violation}");
    }
}

impl GraphBuilder {
    /// Starts a builder for the given observation day.
    pub fn new(day: Day) -> Self {
        GraphBuilder {
            day,
            edges: Vec::new(),
            e2ld: HashMap::new(),
            ips: Vec::new(),
        }
    }

    /// Retired no-op (the builder is serial; a day's width is
    /// [`DayRules::workers`]) — remove with the call in `benchmark/`'s
    /// `stages.rs` in the next `[benchmark]` PR.
    #[doc(hidden)]
    pub fn set_parallelism(&mut self, _threads: usize) {}

    /// Records that `machine` queried `domain`.
    pub fn add_query(&mut self, machine: MachineId, domain: DomainId) {
        self.edges.push((machine, domain));
    }

    /// Records several queries at once.
    pub fn add_queries<I: IntoIterator<Item = (MachineId, DomainId)>>(&mut self, queries: I) {
        self.edges.extend(queries);
    }

    /// Annotates `domain` with its e2LD id.
    pub fn set_e2ld(&mut self, domain: DomainId, e2ld: E2ldId) {
        self.e2ld.insert(domain, e2ld);
    }

    /// Adds a resolved IP to `domain`'s annotation.
    pub fn add_resolution(&mut self, domain: DomainId, ip: Ipv4) {
        self.ips.push((domain, ip));
    }

    /// Number of recorded (possibly duplicate) query observations.
    pub fn query_count(&self) -> usize {
        self.edges.len()
    }

    /// Freezes the builder into an immutable graph. All labels start as
    /// [`Label::Unknown`].
    pub fn build(self) -> BehaviorGraph {
        let GraphBuilder {
            day,
            edges,
            e2ld,
            ips,
        } = self;
        let e2ld_of = |d: DomainId| e2ld.get(&d).copied().unwrap_or(E2ldId(d.0));
        from_query_list(day, &edges, ips, e2ld_of, unlabeled, None).graph
    }

    /// Builds a day's graph from a borrowed query list (any order,
    /// duplicates welcome) without per-domain builder calls: `e2ld_of`
    /// must return the annotation for every queried domain — including the
    /// [sentinel](GraphBuilder) `E2ldId(d.0)` for domains
    /// [`build`](Self::build) would leave unannotated — and `resolutions`
    /// holds the `(domain, ips)` pairs that would have gone through
    /// [`add_resolution`](Self::add_resolution). Identical to `build` on
    /// the same observations.
    pub fn from_queries<F>(
        day: Day,
        queries: &[(MachineId, DomainId)],
        resolutions: &[(DomainId, Vec<Ipv4>)],
        e2ld_of: F,
    ) -> BehaviorGraph
    where
        F: Fn(DomainId) -> E2ldId,
    {
        from_query_list(day, queries, flatten(resolutions), e2ld_of, unlabeled, None).graph
    }

    /// Builds a day's graph from accumulated [`EdgeRuns`], for
    /// paper-scale days: the sealed runs are read twice in their grouped
    /// form (heads only to count, then each machine's domain slice), so
    /// peak memory is the output CSR plus the counting arrays, never a
    /// second copy of the observations. Same contract and same output as
    /// [`from_queries`](Self::from_queries) over the pushed observations.
    ///
    /// # Errors
    ///
    /// Errors surface only from reading back spilled runs, or as
    /// [`std::io::ErrorKind::InvalidData`] past `u32::MAX` stored pairs;
    /// the accumulator is untouched, so callers with the query list still
    /// in memory can fall back to [`from_queries`](Self::from_queries).
    pub fn from_runs<F>(
        day: Day,
        runs: &EdgeRuns,
        resolutions: &[(DomainId, Vec<Ipv4>)],
        e2ld_of: F,
    ) -> std::io::Result<BehaviorGraph>
    where
        F: Fn(DomainId) -> E2ldId,
    {
        let (span, ips) = (runs.machine_span(), flatten(resolutions));
        Ok(build_day(day, span, runs, ips, e2ld_of, unlabeled, None)?.graph)
    }

    /// [`from_queries`](Self::from_queries), labeled and pruned in the
    /// same passes: each queried domain is labeled `label_of(id, e2ld)`,
    /// machines follow their domains ([`labeling`](crate::labeling)'s
    /// rule), and `rules` applies the probe filter, then R1–R4. Equal, bit
    /// for bit, to building unpruned, labeling, and pruning the result.
    pub fn pruned_from_queries<F, L>(
        day: Day,
        queries: &[(MachineId, DomainId)],
        resolutions: &[(DomainId, Vec<Ipv4>)],
        e2ld_of: F,
        label_of: L,
        rules: DayRules<'_>,
    ) -> PrunedDay
    where
        F: Fn(DomainId) -> E2ldId,
        L: Fn(DomainId, E2ldId) -> Label,
    {
        let ips = flatten(resolutions);
        from_query_list(day, queries, ips, e2ld_of, label_of, Some(rules))
    }

    /// [`from_runs`](Self::from_runs), labeled and pruned in the same
    /// passes, as by [`pruned_from_queries`](Self::pruned_from_queries).
    ///
    /// # Errors
    ///
    /// As [`from_runs`](Self::from_runs).
    pub fn pruned_from_runs<F, L>(
        day: Day,
        runs: &EdgeRuns,
        resolutions: &[(DomainId, Vec<Ipv4>)],
        e2ld_of: F,
        label_of: L,
        rules: DayRules<'_>,
    ) -> std::io::Result<PrunedDay>
    where
        F: Fn(DomainId) -> E2ldId,
        L: Fn(DomainId, E2ldId) -> Label,
    {
        let (span, ips) = (runs.machine_span(), flatten(resolutions));
        build_day(day, span, runs, ips, e2ld_of, label_of, Some(rules))
    }
}

/// The unpruned build's labeling: every domain unknown.
fn unlabeled(_: DomainId, _: E2ldId) -> Label {
    Label::Unknown
}

/// Retired — remove with `graph.delta_advance_s` in the next `[benchmark]`
/// PR. Stateless; `advance` is [`GraphBuilder::from_queries`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct DeltaBuilder;

#[doc(hidden)]
impl DeltaBuilder {
    pub fn new(_initial: &BehaviorGraph) -> Self {
        DeltaBuilder
    }
    pub fn advance<F: Fn(DomainId) -> E2ldId>(
        &mut self,
        day: Day,
        queries: &[(MachineId, DomainId)],
        resolutions: &[(DomainId, Vec<Ipv4>)],
        e2ld_of: F,
    ) -> BehaviorGraph {
        GraphBuilder::from_queries(day, queries, resolutions, e2ld_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(Day(0)).build();
        assert_eq!(g.machine_count(), 0);
        assert_eq!(g.domain_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut b = GraphBuilder::new(Day(0));
        for _ in 0..5 {
            b.add_query(MachineId(1), DomainId(2));
        }
        assert_eq!(b.query_count(), 5);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn annotations_dedup_and_default() {
        let mut b = GraphBuilder::new(Day(0));
        b.add_query(MachineId(1), DomainId(2));
        b.add_query(MachineId(1), DomainId(3));
        let ip = Ipv4::from_octets(1, 2, 3, 4);
        b.add_resolution(DomainId(2), ip);
        b.add_resolution(DomainId(2), ip);
        b.set_e2ld(DomainId(2), E2ldId(77));
        let g = b.build();
        let d2 = g.domain_idx(DomainId(2)).unwrap();
        let d3 = g.domain_idx(DomainId(3)).unwrap();
        assert_eq!(g.domain_ips(d2), &[ip]);
        assert!(g.domain_ips(d3).is_empty());
        assert_eq!(g.domain_e2ld(d2), E2ldId(77));
        // Sentinel e2LD for unannotated domain.
        assert_eq!(g.domain_e2ld(d3), E2ldId(3));
    }

    /// Every stored field must match — the entry points' contract is
    /// bit-for-bit, not just observational.
    fn assert_identical(a: &BehaviorGraph, b: &BehaviorGraph) {
        assert_eq!(a.day, b.day);
        assert_eq!(a.machines, b.machines);
        assert_eq!(a.domains, b.domains);
        assert_eq!(a.domain_e2ld, b.domain_e2ld);
        assert_eq!(a.ip_off, b.ip_off);
        assert_eq!(a.ip_pool, b.ip_pool);
        assert_eq!(a.m_off, b.m_off);
        assert_eq!(a.m_adj, b.m_adj);
        assert_eq!(a.domain_degree, b.domain_degree);
        assert_eq!(a.domain_labels, b.domain_labels);
        assert_eq!(a.machine_labels, b.machine_labels);
        assert_eq!(a.machine_malware_degree, b.machine_malware_degree);
    }

    /// Builds the same observations through the accumulating builder, the
    /// borrowed-query entry and the streamed run entry (at `run_capacity`,
    /// tiny values forcing spill), checks bit-for-bit identity, and checks
    /// the edges and IPs against plain sets.
    fn check_entry_points_agree(
        queries: &[(MachineId, DomainId)],
        resolutions: &[(DomainId, Vec<Ipv4>)],
        e2ld: &[(DomainId, E2ldId)],
        run_capacity: usize,
    ) {
        let mut b = GraphBuilder::new(Day(3));
        b.add_queries(queries.iter().copied());
        for (d, ips) in resolutions {
            for &ip in ips {
                b.add_resolution(*d, ip);
            }
        }
        for &(d, e) in e2ld {
            b.set_e2ld(d, e);
        }
        let reference = b.build();
        let r = &reference;
        let edges: Vec<_> = r
            .machine_indices()
            .flat_map(|m| {
                r.domains_of(m)
                    .map(move |d| (r.machine_id(m), r.domain_id(d)))
            })
            .collect();
        assert!(edges
            .iter()
            .eq(&queries.iter().copied().collect::<BTreeSet<_>>()));
        for d in r.domain_indices() {
            let ips = resolutions.iter().filter(|(rd, _)| *rd == r.domain_id(d));
            let ips: BTreeSet<Ipv4> = ips.flat_map(|(_, ips)| ips.iter().copied()).collect();
            assert!(r.domain_ips(d).iter().eq(&ips));
        }

        // Last entry wins, mirroring repeated `set_e2ld` overwrites.
        let e2ld_of = |d: DomainId| {
            e2ld.iter()
                .rev()
                .find(|&&(dd, _)| dd == d)
                .map_or(E2ldId(d.0), |&(_, e)| e)
        };
        let borrowed = GraphBuilder::from_queries(Day(3), queries, resolutions, e2ld_of);
        assert_identical(&reference, &borrowed);

        let mut runs = crate::EdgeRuns::with_run_capacity(run_capacity);
        runs.extend(queries.iter().copied());
        let streamed = GraphBuilder::from_runs(Day(3), &runs, resolutions, e2ld_of)
            .expect("in-memory or spilled replay must succeed");
        streamed.validate().expect("streamed graph must validate");
        assert_identical(&reference, &streamed);
    }

    #[test]
    fn entry_points_agree_on_handwritten_day() {
        let ip = |a: u8| Ipv4::from_octets(10, 0, 0, a);
        let queries = [
            (MachineId(7), DomainId(2)),
            (MachineId(1), DomainId(9)),
            (MachineId(7), DomainId(2)), // duplicate
            (MachineId(1), DomainId(2)),
            (MachineId(3), DomainId(40)),
            (MachineId(7), DomainId(9)),
        ];
        let resolutions = vec![
            (DomainId(2), vec![ip(4), ip(1), ip(4)]),
            (DomainId(9), vec![ip(9)]),
            (DomainId(77), vec![ip(5)]), // never queried: dropped by both
        ];
        let e2ld = [(DomainId(2), E2ldId(100)), (DomainId(9), E2ldId(100))];
        // Capacity 2 forces several sealed (spilled) runs; a huge capacity
        // exercises the single-open-run path.
        for cap in [2, 1 << 20] {
            check_entry_points_agree(&queries, &resolutions, &e2ld, cap);
        }
    }

    #[test]
    fn from_runs_empty_is_empty() {
        let runs = crate::EdgeRuns::new();
        let g = GraphBuilder::from_runs(Day(8), &runs, &[], |d| E2ldId(d.0)).expect("empty");
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.day(), Day(8));
        g.validate().expect("empty graph validates");
    }

    /// Both word widths of pass 3 carry rank, survival and label, and
    /// write the same ranks and labels.
    #[test]
    fn packed_words_agree() {
        for tag in [0, 1, 2, SURVIVES, SURVIVES | POPULAR | 2] {
            for rank in [0, 7, (1 << 29) - 1] {
                let want = (rank, u32::from(tag & SURVIVES != 0), tag & 3);
                assert_eq!(u32::pack(rank, tag).unpack(), want);
                assert_eq!(u64::pack(rank, tag).unpack(), want);
            }
            assert_eq!(u64::pack(u32::MAX, tag).unpack().0, u32::MAX);
        }
        // Slots 0 and 2 kept, slot 1 dropped; key 1 dropped, key 3 malware.
        let (ends, keep) = ([3u32, 5, 8], [true, false, true]);
        let rank = [0, u32::MAX, 1, 2];
        let tags = [1 | SURVIVES, 1, 2 | SURVIVES, SURVIVES];
        let column = vec![0u32, 1, 3, 0, 2, 1, 2, 3];
        // What each range wrote: its machines and the ranks it kept.
        let written = |wide: bool, workers: usize| {
            let (mut column, words) = (column.clone(), (rank.to_vec(), tags.to_vec()));
            let parts = match wide {
                false => write_ranks::<u32>(&ends, &mut column, &keep, words, workers),
                true => write_ranks::<u64>(&ends, &mut column, &keep, words, workers),
            };
            let parts = parts.into_iter().map(|p| {
                let kept = &column[p.base..p.base + p.ends[p.ends.len() - 1] as usize];
                let labels = (p.labels, p.malware, p.unpruned_labels);
                (p.machines, p.ends, labels, kept.to_vec())
            });
            parts.collect::<Vec<_>>()
        };
        for workers in 1..=3 {
            let narrow = written(false, workers);
            assert_eq!(narrow, written(true, workers));
            let ranks: Vec<u32> = narrow.into_iter().flat_map(|p| p.3).collect();
            assert_eq!(ranks, [0, 2, 1, 2]);
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Random edge sets, annotations and run capacities (1..8 forces
        /// heavy spilling), with ids from 0 or clustered just under
        /// `u32::MAX` (counting arrays span the ids present, not
        /// `0..=max`): every entry point must produce the same graph, bit
        /// for bit, it must match the set oracle and be structurally valid.
        #[test]
        #[cfg_attr(miri, ignore = "spill-file proptest volume is too slow under Miri")]
        fn entry_points_always_agree(
            queries in proptest::collection::vec((0u32..24, 0u32..32), 0..200),
            resolved in proptest::collection::vec((0u32..40, proptest::collection::vec(0u32..50, 0..4)), 0..12),
            e2lds in proptest::collection::vec((0u32..32, 0u32..6), 0..10),
            run_capacity in 1usize..8,
            near_max in any::<bool>(),
        ) {
            let id = |x: u32| if near_max { u32::MAX - x } else { x };
            let queries: Vec<(MachineId, DomainId)> = queries
                .into_iter()
                .map(|(m, d)| (MachineId(id(m)), DomainId(id(d))))
                .collect();
            let resolutions: Vec<(DomainId, Vec<Ipv4>)> = resolved
                .into_iter()
                .map(|(d, ips)| (DomainId(id(d)), ips.into_iter().map(Ipv4).collect()))
                .collect();
            let e2ld: Vec<(DomainId, E2ldId)> = e2lds
                .into_iter()
                .map(|(d, e)| (DomainId(id(d)), E2ldId(e)))
                .collect();
            check_entry_points_agree(&queries, &resolutions, &e2ld, run_capacity);
        }
    }
}
