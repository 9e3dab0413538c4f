//! Bounded-memory edge accumulation, and the grouping kernel every CSR
//! build runs on.
//!
//! A paper-scale day observes hundreds of millions of machine↔domain
//! query pairs. [`EdgeRuns`] keeps one fixed-capacity *run* of them in
//! RAM; when it fills, [`group_by_machine`] deduplicates it and it is
//! appended to an anonymous scratch file as little-endian `u32` pairs.
//! Nothing is ever merged: the kernel takes pairs in any order, so the CSR
//! constructor ([`GraphBuilder::from_runs`](crate::GraphBuilder::from_runs))
//! runs it over two replays of every stored pair, read back a slice at a
//! time, whatever the number of runs.
//!
//! The scratch file is unlinked right after creation, so the OS reclaims
//! it when the value is dropped, even on abnormal exit. If the scratch
//! disk fails, sealed runs stay in memory: accumulation never loses data;
//! only replay surfaces I/O errors.

use std::convert::Infallible;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::sync::atomic::Ordering;

use segugio_model::{DomainId, MachineId};

/// Default per-run pair capacity: 4Mi pairs ≈ 32 MiB resident. A
/// paper-scale day of ~320M observations seals ~80 runs; since runs are
/// replayed unmerged, their number adds no work per edge.
pub const DEFAULT_RUN_CAPACITY: usize = 4 << 20;

/// Pairs per read (and write) of the scratch file: 64 KiB of I/O buffer.
const CHUNK_PAIRS: usize = 8 << 10;

/// Bytes per serialized pair: two little-endian `u32`s.
const PAIR_BYTES: usize = 8;

/// The callback a replay hands its pairs to, a slice at a time.
pub(crate) type PairSink<'a> = dyn FnMut(&[(MachineId, DomainId)]) + 'a;

/// What [`group_by_machine`] leaves for machines `lo..=hi`: `ends[i]` is
/// where machine `lo + i`'s list ends in the domain column (it starts
/// where the previous one ends), the column holds each machine's
/// ascending distinct raw domain ids, and the last field is the smallest
/// and largest domain id.
pub(crate) type Grouped = (Vec<u32>, Vec<u32>, Option<(u32, u32)>);

/// Monotonic discriminator for scratch-file names within one process.
#[expect(
    clippy::disallowed_types,
    reason = "names a file only; no result depends on which thread draws which number"
)]
static SCRATCH_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The unlinked scratch file: `bytes` of sealed runs from offset 0.
#[derive(Debug)]
struct Spill {
    file: File,
    runs: usize,
    bytes: u64,
}

/// Fixed-capacity deduplicated edge runs, spillable to disk.
///
/// Push every `(machine, domain)` query observation of a day (duplicates
/// welcome), then hand the whole value to
/// [`GraphBuilder::from_runs`](crate::GraphBuilder::from_runs), or
/// [`collect_merged`](Self::collect_merged) the deduplicated edge list.
pub struct EdgeRuns {
    capacity: usize,
    /// The one mutable in-RAM run; in push order until sealed.
    current: Vec<(MachineId, DomainId)>,
    /// Sealed deduped runs kept in memory (spill disabled by a failed
    /// scratch-file open, or a failed append).
    resident: Vec<Vec<(MachineId, DomainId)>>,
    spill: Option<Spill>,
    /// Total observations pushed (pre-dedup), for telemetry.
    observations: u64,
    /// Smallest and largest raw machine id pushed: the grouping kernel's
    /// span.
    machine_span: Option<(u32, u32)>,
}

impl EdgeRuns {
    /// An empty accumulator with [`DEFAULT_RUN_CAPACITY`].
    pub fn new() -> Self {
        Self::with_run_capacity(DEFAULT_RUN_CAPACITY)
    }

    /// An empty accumulator sealing runs at `capacity` pairs (minimum 1).
    /// Tiny capacities force the spill path — useful in tests.
    pub fn with_run_capacity(capacity: usize) -> Self {
        EdgeRuns {
            capacity: capacity.max(1),
            current: Vec::new(),
            resident: Vec::new(),
            spill: None,
            observations: 0,
            machine_span: None,
        }
    }

    /// The per-run pair capacity this accumulator seals at.
    pub fn run_capacity(&self) -> usize {
        self.capacity
    }

    /// Total observations pushed so far (before any deduplication).
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.observations == 0
    }

    /// Number of sealed runs (resident + spilled), excluding the open one.
    pub fn sealed_runs(&self) -> usize {
        self.resident.len() + self.spilled_runs()
    }

    /// Number of sealed runs that live in the scratch file.
    pub fn spilled_runs(&self) -> usize {
        self.spill.as_ref().map_or(0, |s| s.runs)
    }

    /// Bytes currently held by the scratch file.
    pub fn spilled_bytes(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.bytes)
    }

    /// Smallest and largest raw machine ids pushed, or `None` when empty.
    pub(crate) fn machine_span(&self) -> Option<(u32, u32)> {
        self.machine_span
    }

    /// Records one query observation. Never fails: if the scratch disk is
    /// unusable the sealed run stays resident in memory instead.
    pub fn push(&mut self, machine: MachineId, domain: DomainId) {
        if self.current.len() >= self.capacity {
            self.seal();
        }
        self.current.push((machine, domain));
        self.observations += 1;
        let m = machine.0;
        self.machine_span = Some(
            self.machine_span
                .map_or((m, m), |(lo, hi)| (lo.min(m), hi.max(m))),
        );
    }

    /// Records a batch of observations (see [`push`](Self::push)).
    pub fn extend<I: IntoIterator<Item = (MachineId, DomainId)>>(&mut self, pairs: I) {
        for (m, d) in pairs {
            self.push(m, d);
        }
    }

    /// Drops all accumulated edges (and the scratch file), keeping the
    /// run capacity and the current buffer's allocation for reuse.
    pub fn clear(&mut self) {
        self.current.clear();
        self.resident.clear();
        self.spill = None;
        self.observations = 0;
        self.machine_span = None;
    }

    /// Groups and dedups the open run, then moves it out of RAM (spill
    /// file first, resident list as the no-disk fallback).
    fn seal(&mut self) {
        let Some(span) = machine_span(&self.current) else {
            return;
        };
        let Ok((ends, column, _)) = group_by_machine(span, replay_slice(&self.current));
        self.current.clear();
        self.current.extend(grouped_pairs(span.0, &ends, &column));
        match self.try_spill_current() {
            Ok(()) => self.current.clear(),
            Err(_) => {
                let full = std::mem::take(&mut self.current);
                self.current = Vec::with_capacity(full.capacity());
                self.resident.push(full);
            }
        }
    }

    /// Appends the (deduped) open run to the scratch file.
    fn try_spill_current(&mut self) -> io::Result<()> {
        if self.spill.is_none() {
            self.spill = Some(Spill {
                file: create_scratch_file()?,
                runs: 0,
                bytes: 0,
            });
        }
        // The `?` early-returns leave `bytes`/`runs` unrecorded, so a torn
        // append is overwritten by the next successful one.
        let Some(spill) = self.spill.as_mut() else {
            return Err(io::Error::other("spill state vanished"));
        };
        spill.file.seek(SeekFrom::Start(spill.bytes))?;
        let mut buf = Vec::with_capacity(PAIR_BYTES * CHUNK_PAIRS.min(self.current.len()));
        for chunk in self.current.chunks(CHUNK_PAIRS) {
            buf.clear();
            for &(m, d) in chunk {
                buf.extend_from_slice(&m.0.to_le_bytes());
                buf.extend_from_slice(&d.0.to_le_bytes());
            }
            spill.file.write_all(&buf)?;
        }
        spill.runs += 1;
        spill.bytes += (self.current.len() * PAIR_BYTES) as u64;
        Ok(())
    }

    /// Hands every stored pair to `f` a slice at a time, in no particular
    /// order: the resident runs, the scratch file read back in chunks, and
    /// the open run. Repeats across runs (and within the open run) are
    /// passed on.
    pub(crate) fn replay(&self, f: &mut PairSink<'_>) -> io::Result<()> {
        for run in &self.resident {
            f(run);
        }
        if let Some(spill) = &self.spill {
            let mut file = &spill.file;
            file.seek(SeekFrom::Start(0))?;
            let mut bytes = vec![0u8; PAIR_BYTES * CHUNK_PAIRS];
            let mut pairs = Vec::with_capacity(CHUNK_PAIRS);
            let mut left = spill.bytes;
            while left > 0 {
                let n = left.min(bytes.len() as u64) as usize;
                file.read_exact(&mut bytes[..n])?;
                pairs.clear();
                pairs.extend(bytes[..n].chunks_exact(PAIR_BYTES).map(|p| {
                    let word = |i: usize| u32::from_le_bytes([p[i], p[i + 1], p[i + 2], p[i + 3]]);
                    (MachineId(word(0)), DomainId(word(4)))
                }));
                f(&pairs);
                left -= n as u64;
            }
        }
        f(&self.current);
        Ok(())
    }

    /// Collects the deduplicated edge list, ascending by `(machine,
    /// domain)` — the exact edge set the in-memory builder would see.
    /// Intended for tests and small days; at paper scale, build with
    /// [`GraphBuilder::from_runs`](crate::GraphBuilder::from_runs).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading back the scratch file.
    pub fn collect_merged(&self) -> io::Result<Vec<(MachineId, DomainId)>> {
        let Some(span) = self.machine_span() else {
            return Ok(Vec::new());
        };
        let (ends, column, _) = group_by_machine(span, |f| self.replay(f))?;
        Ok(grouped_pairs(span.0, &ends, &column).collect())
    }

    /// Copies the accumulated state, duplicating the scratch file.
    ///
    /// Unlike [`Clone`], a scratch-disk failure is surfaced instead of
    /// panicking.
    pub fn try_clone(&self) -> io::Result<Self> {
        let spill = match &self.spill {
            None => None,
            Some(spill) => {
                let mut file = create_scratch_file()?;
                let mut src = &spill.file;
                src.seek(SeekFrom::Start(0))?;
                let copied = io::copy(&mut src.take(spill.bytes), &mut file)?;
                if copied != spill.bytes {
                    return Err(io::Error::other("scratch file truncated during clone"));
                }
                Some(Spill { file, ..*spill })
            }
        };
        Ok(EdgeRuns {
            capacity: self.capacity,
            current: self.current.clone(),
            resident: self.resident.clone(),
            spill,
            observations: self.observations,
            machine_span: self.machine_span,
        })
    }
}

impl Default for EdgeRuns {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for EdgeRuns {
    #[expect(
        clippy::panic,
        reason = "Clone cannot surface io errors; failing to copy the scratch file means the scratch disk died mid-operation"
    )]
    fn clone(&self) -> Self {
        match self.try_clone() {
            Ok(copy) => copy,
            Err(err) => panic!("cloning spilled edge runs: {err}"),
        }
    }
}

impl std::fmt::Debug for EdgeRuns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeRuns")
            .field("capacity", &self.capacity)
            .field("observations", &self.observations)
            .field("open_pairs", &self.current.len())
            .field("resident_runs", &self.resident.len())
            .field("spilled_runs", &self.spilled_runs())
            .field("spilled_bytes", &self.spilled_bytes())
            .finish()
    }
}

/// Two accumulators are equal when they hold the same deduplicated edge
/// set (run boundaries and spill placement are storage details). Replay
/// errors compare unequal rather than panicking.
impl PartialEq for EdgeRuns {
    fn eq(&self, other: &Self) -> bool {
        if self.observations != other.observations {
            return false;
        }
        match (self.collect_merged(), other.collect_merged()) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        }
    }
}

/// Smallest and largest raw machine ids in `pairs`, `None` when empty.
pub(crate) fn machine_span(pairs: &[(MachineId, DomainId)]) -> Option<(u32, u32)> {
    let mut ids = pairs.iter().map(|&(m, _)| m.0);
    let first = ids.next()?;
    Some(ids.fold((first, first), |(lo, hi), m| (lo.min(m), hi.max(m))))
}

/// Groups `(machine, domain)` pairs by machine: the one kernel behind
/// sealing a run and building a CSR.
///
/// `replay` hands the same pairs (any order, repeats welcome, machine ids
/// in `lo..=hi`) to its callback a slice at a time, twice: once to count
/// each machine's pairs over the id span, once to scatter their domains
/// into per-machine buckets. Each bucket is then sorted, deduplicated and
/// compacted in place.
pub(crate) fn group_by_machine<E>(
    (lo, hi): (u32, u32),
    mut replay: impl FnMut(&mut PairSink<'_>) -> Result<(), E>,
) -> Result<Grouped, E> {
    let mut ends = vec![0u32; (hi - lo) as usize + 1];
    replay(&mut |pairs| {
        for &(m, _) in pairs {
            ends[(m.0 - lo) as usize] += 1;
        }
    })?;
    // Prefix sum to bucket starts; the scatter advances each to its end.
    let mut total = 0u32;
    for slot in ends.iter_mut() {
        let count = *slot;
        *slot = total;
        total += count;
    }
    let mut column = vec![0u32; total as usize];
    replay(&mut |pairs| {
        for &(m, d) in pairs {
            let slot = &mut ends[(m.0 - lo) as usize];
            column[*slot as usize] = d.0;
            *slot += 1;
        }
    })?;

    // Sort and dedup each bucket, moving it down to `kept`; a bucket never
    // starts before `kept`, so nothing unread is overwritten.
    let mut domains: Option<(u32, u32)> = None;
    let mut start = 0usize;
    let mut kept = 0usize;
    for end in ends.iter_mut() {
        let stop = *end as usize;
        column[start..stop].sort_unstable();
        if stop > start {
            let (first, last) = (column[start], column[stop - 1]);
            domains = Some(domains.map_or((first, last), |(a, b)| (a.min(first), b.max(last))));
            column[kept] = first;
            kept += 1;
            for i in start + 1..stop {
                if column[i] != column[kept - 1] {
                    column[kept] = column[i];
                    kept += 1;
                }
            }
        }
        start = stop;
        *end = kept as u32;
    }
    column.truncate(kept);
    Ok((ends, column, domains))
}

/// The replay of one in-memory slice, which cannot fail.
pub(crate) fn replay_slice(
    pairs: &[(MachineId, DomainId)],
) -> impl FnMut(&mut PairSink<'_>) -> Result<(), Infallible> + '_ {
    move |f| {
        f(pairs);
        Ok(())
    }
}

/// The pairs of a [`group_by_machine`] result over a span starting at
/// `lo`, ascending by `(machine, domain)`.
pub(crate) fn grouped_pairs<'a>(
    lo: u32,
    ends: &'a [u32],
    column: &'a [u32],
) -> impl Iterator<Item = (MachineId, DomainId)> + 'a {
    let starts = std::iter::once(0).chain(ends.iter().copied());
    ends.iter()
        .zip(starts)
        .enumerate()
        .flat_map(move |(i, (&end, start))| {
            let machine = MachineId(lo + i as u32);
            column[start as usize..end as usize]
                .iter()
                .map(move |&d| (machine, DomainId(d)))
        })
}

/// Creates an unlinked (anonymous) scratch file in the system temp
/// directory. The name embeds the process id and a process-global
/// sequence number; `create_new` guards against collisions with leftovers
/// from other processes, retrying on the next sequence number.
#[expect(
    clippy::disallowed_methods,
    reason = "an unlinked spill file, never durable state: nothing survives a crash to tear"
)]
fn create_scratch_file() -> io::Result<File> {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let mut last_err = io::Error::other("no scratch-file attempt made");
    for _ in 0..16 {
        let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("segugio-edge-runs-{pid}-{seq}.bin"));
        match OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(file) => {
                // Unlink immediately: the kernel keeps the data reachable
                // through the open descriptor and reclaims it on drop.
                let _ = std::fs::remove_file(&path);
                return Ok(file);
            }
            Err(err) if err.kind() == io::ErrorKind::AlreadyExists => last_err = err,
            Err(err) => return Err(err),
        }
    }
    Err(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use segugio_model::{Day, E2ldId};

    fn pair(m: u32, d: u32) -> (MachineId, DomainId) {
        (MachineId(m), DomainId(d))
    }

    /// The reference semantics: sort + dedup of everything pushed.
    fn reference(pairs: &[(MachineId, DomainId)]) -> Vec<(MachineId, DomainId)> {
        let mut all = pairs.to_vec();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// The kernel over one slice, flattened back into pairs.
    fn kernel(pairs: &[(MachineId, DomainId)]) -> Vec<(MachineId, DomainId)> {
        let Some(span) = machine_span(pairs) else {
            return Vec::new();
        };
        let Ok((ends, column, _)) = group_by_machine(span, replay_slice(pairs));
        grouped_pairs(span.0, &ends, &column).collect()
    }

    /// `from_runs` builds the CSR `from_queries` builds over the pushes.
    fn assert_builds_like_queries(runs: &EdgeRuns, queries: &[(MachineId, DomainId)]) {
        let csr = |g: crate::BehaviorGraph| (g.machines, g.m_off, g.m_adj, g.domains, g.d_adj);
        let want = GraphBuilder::from_queries(Day(1), queries, &[], |d| E2ldId(d.0));
        let got = GraphBuilder::from_runs(Day(1), runs, &[], |d| E2ldId(d.0)).expect("replay");
        assert_eq!(csr(got), csr(want));
    }

    /// Small enough for Miri: interleaved machines, repeats within and
    /// across buckets, an empty bucket inside the span, ids at `u32::MAX`.
    #[test]
    fn kernel_groups_sorts_and_dedups_in_place() {
        let pushed = [7, 3, 5, 9, 7, 1, 5, 9, 9, 4, 7, 3, 5, 2, 9, 4];
        let pushed: Vec<_> = pushed.chunks(2).map(|p| pair(p[0], p[1])).collect();
        assert_eq!(kernel(&pushed), reference(&pushed));
        let top = [(u32::MAX, u32::MAX), (u32::MAX - 2, 0), (u32::MAX, 1)].map(|(m, d)| pair(m, d));
        assert_eq!(kernel(&top), reference(&top));
        assert_eq!(kernel(&[]), vec![]);
    }

    #[test]
    fn empty_runs_merge_to_nothing() {
        let runs = EdgeRuns::new();
        assert!(runs.is_empty());
        assert_eq!(runs.machine_span(), None);
        assert_eq!(runs.collect_merged().expect("merge"), vec![]);
    }

    #[test]
    fn clear_resets_and_accumulator_is_reusable() {
        let mut runs = EdgeRuns::with_run_capacity(2);
        runs.extend([pair(5, 5), pair(4, 4), pair(3, 3)]);
        assert!(runs.sealed_runs() >= 1);
        runs.clear();
        assert!(runs.is_empty());
        assert_eq!(runs.machine_span(), None);
        assert_eq!(runs.collect_merged().expect("merge"), vec![]);
        assert_builds_like_queries(&runs, &[]);
        // A narrower machine span than before the clear, sealed again.
        let pushed = [pair(2, 9), pair(2, 9), pair(1, 8), pair(2, 7), pair(1, 8)];
        runs.extend(pushed);
        assert!(runs.sealed_runs() >= 1);
        assert_eq!(runs.collect_merged().expect("merge"), reference(&pushed));
        assert_builds_like_queries(&runs, &pushed);
    }

    #[test]
    fn clone_duplicates_spilled_state() {
        let mut runs = EdgeRuns::with_run_capacity(3);
        let mut pushed: Vec<_> = (0..40u32).map(|i| pair(i % 7, i % 11)).collect();
        runs.extend(pushed.iter().copied());
        assert!(runs.spilled_runs() > 0, "spill path must engage: {runs:?}");
        let mut copy = runs.try_clone().expect("clone");
        assert_eq!(copy.collect_merged().expect("merge"), reference(&pushed));
        assert_eq!(copy, runs);
        assert_builds_like_queries(&copy, &pushed);
        // Diverging after the clone keeps the copies independent, and the
        // copy keeps sealing into its own scratch file.
        runs.push(MachineId(100), DomainId(100));
        assert_ne!(copy, runs);
        let more: Vec<_> = (0..20u32).map(|i| pair(i % 5 + 3, i % 4)).collect();
        copy.extend(more.iter().copied());
        pushed.extend(more);
        assert_builds_like_queries(&copy, &pushed);
    }

    use proptest::prelude::*;

    proptest! {
        /// The kernel is `sort_unstable` + `dedup` on pairs in log order
        /// (machines interleaved, repeats likely): many machines, one,
        /// a sparse span, or ids just under `u32::MAX`. So is an
        /// accumulator sealing (and spilling) at any capacity, replay
        /// after replay.
        #[test]
        #[cfg_attr(miri, ignore = "proptest case volume is too slow under Miri")]
        fn kernel_equals_sort_and_dedup(
            raw in proptest::collection::vec((0u32..5000, 0u32..60), 0..300),
            shape in 0u8..4,
            run_capacity in 1usize..64,
        ) {
            let pairs: Vec<_> = raw
                .into_iter()
                .map(|(m, d)| match shape {
                    0 => pair(m % 40, d),
                    1 => pair(7, d),
                    2 => pair(m, d % 8),
                    _ => pair(u32::MAX - m % 24, u32::MAX - d % 32),
                })
                .collect();
            let want = reference(&pairs);
            prop_assert_eq!(kernel(&pairs), want);
            let mut runs = EdgeRuns::with_run_capacity(run_capacity);
            runs.extend(pairs.iter().copied());
            prop_assert_eq!(runs.observations(), pairs.len() as u64);
            prop_assert_eq!(runs.sealed_runs(), pairs.len().saturating_sub(1) / run_capacity);
            prop_assert_eq!(runs.spilled_runs(), runs.sealed_runs());
            prop_assert!(runs.spilled_bytes() <= (runs.sealed_runs() * run_capacity * PAIR_BYTES) as u64);
            prop_assert_eq!(runs.collect_merged().expect("merge"), want);
            prop_assert_eq!(runs.collect_merged().expect("merge"), want);
        }
    }
}
