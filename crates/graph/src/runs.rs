//! Bounded-memory edge accumulation: fixed-capacity sorted runs with a
//! binary scratch-file spill.
//!
//! A paper-scale day observes hundreds of millions of machine↔domain
//! query pairs — far too many to buffer in one `Vec` the way
//! [`GraphBuilder::add_queries`](crate::GraphBuilder::add_queries) expects.
//! [`EdgeRuns`] accepts the pairs one at a time and keeps only a single
//! *run* (a fixed-capacity buffer) in RAM: when the buffer fills it is
//! sorted, deduplicated and appended to an anonymous temporary file as
//! little-endian `u32` pairs. The merged, globally deduplicated,
//! ascending edge stream is replayed on demand by a k-way merge over the
//! sealed runs — which is exactly the shape the streamed counting-sort
//! builder ([`GraphBuilder::from_runs`](crate::GraphBuilder::from_runs))
//! consumes, in a single replay. Peak memory is `O(run capacity + runs ×
//! refill buffer)`, independent of the day's edge count.
//!
//! The scratch file is unlinked immediately after creation (classic
//! anonymous-tempfile idiom), so the kernel reclaims it when the value is
//! dropped even on abnormal exit. If the scratch disk fails, sealing
//! falls back to keeping the run in memory — accumulation never loses
//! data; only replay ([`for_each_merged`](EdgeRuns::for_each_merged))
//! surfaces I/O errors.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use segugio_model::{DomainId, MachineId};

/// Default per-run pair capacity: 4Mi pairs ≈ 32 MiB resident, which at
/// the paper's ~320M-edge days means ~80 sealed runs on disk.
pub const DEFAULT_RUN_CAPACITY: usize = 4 << 20;

/// Pairs decoded per spilled-run refill during the merge (64 KiB per
/// active run cursor).
const REFILL_PAIRS: usize = 8 << 10;

/// Bytes per serialized pair: two little-endian `u32`s.
const PAIR_BYTES: usize = 8;

/// Monotonic discriminator for scratch-file names within one process.
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// One sealed run inside the spill file: byte offset and pair count.
#[derive(Debug, Clone, Copy)]
struct SpilledRun {
    offset: u64,
    pairs: u64,
}

/// The unlinked scratch file and the directory of runs inside it.
#[derive(Debug)]
struct Spill {
    file: File,
    runs: Vec<SpilledRun>,
    bytes: u64,
}

/// Fixed-capacity sorted+deduplicated edge runs, spillable to disk.
///
/// Push every `(machine, domain)` query observation of a day (duplicates
/// welcome), then replay the merged ascending deduplicated edge stream
/// with [`for_each_merged`](Self::for_each_merged) — or hand the whole
/// value to [`GraphBuilder::from_runs`](crate::GraphBuilder::from_runs).
pub struct EdgeRuns {
    capacity: usize,
    /// The one mutable in-RAM run; unsorted until sealed.
    current: Vec<(MachineId, DomainId)>,
    /// Sealed sorted+deduped runs kept in memory (spill disabled by a
    /// failed scratch-file open, or a failed append).
    resident: Vec<Vec<(MachineId, DomainId)>>,
    spill: Option<Spill>,
    /// Total observations pushed (pre-dedup), for telemetry.
    observations: u64,
    /// Largest raw ids seen, for sizing counting-sort arrays.
    max_machine: u32,
    max_domain: u32,
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
            max_machine: 0,
            max_domain: 0,
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
        self.resident.len() + self.spill.as_ref().map_or(0, |s| s.runs.len())
    }

    /// Number of sealed runs that live in the scratch file.
    pub fn spilled_runs(&self) -> usize {
        self.spill.as_ref().map_or(0, |s| s.runs.len())
    }

    /// Bytes currently held by the scratch file.
    pub fn spilled_bytes(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.bytes)
    }

    /// Largest `(machine, domain)` raw ids pushed, or `None` when empty.
    pub fn max_ids(&self) -> Option<(u32, u32)> {
        if self.is_empty() {
            None
        } else {
            Some((self.max_machine, self.max_domain))
        }
    }

    /// An upper bound on the merged stream's length: every sealed run's
    /// pairs plus the open run's. Exact unless runs share pairs or the open
    /// run holds duplicates.
    pub(crate) fn pair_bound(&self) -> usize {
        let spilled = self
            .spill
            .as_ref()
            .map_or(0, |s| s.runs.iter().map(|r| r.pairs as usize).sum());
        let resident: usize = self.resident.iter().map(Vec::len).sum();
        spilled + resident + self.current.len()
    }

    /// Records one query observation. Never fails: if the scratch disk is
    /// unusable the sealed run stays resident in memory instead.
    pub fn push(&mut self, machine: MachineId, domain: DomainId) {
        if self.current.len() >= self.capacity {
            self.seal();
        }
        self.current.push((machine, domain));
        self.observations += 1;
        self.max_machine = self.max_machine.max(machine.0);
        self.max_domain = self.max_domain.max(domain.0);
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
        self.max_machine = 0;
        self.max_domain = 0;
    }

    /// Sorts and dedups the open run, then moves it out of RAM (spill
    /// file first, resident list as the no-disk fallback).
    fn seal(&mut self) {
        self.current.sort_unstable();
        self.current.dedup();
        if self.current.is_empty() {
            return;
        }
        match self.try_spill_current() {
            Ok(()) => self.current.clear(),
            Err(_) => {
                let full = std::mem::take(&mut self.current);
                self.current = Vec::with_capacity(full.capacity());
                self.resident.push(full);
            }
        }
    }

    /// Appends the (sorted, deduped) open run to the scratch file.
    fn try_spill_current(&mut self) -> io::Result<()> {
        if self.spill.is_none() {
            self.spill = Some(Spill {
                file: create_scratch_file()?,
                runs: Vec::new(),
                bytes: 0,
            });
        }
        // The `?` early-returns leave `bytes`/`runs` unrecorded, so a torn
        // append is overwritten by the next successful one.
        let Some(spill) = self.spill.as_mut() else {
            return Err(io::Error::other("spill state vanished"));
        };
        spill.file.seek(SeekFrom::Start(spill.bytes))?;
        let mut buf = Vec::with_capacity(PAIR_BYTES * REFILL_PAIRS.min(self.current.len()));
        for chunk in self.current.chunks(REFILL_PAIRS) {
            buf.clear();
            for &(m, d) in chunk {
                buf.extend_from_slice(&m.0.to_le_bytes());
                buf.extend_from_slice(&d.0.to_le_bytes());
            }
            spill.file.write_all(&buf)?;
        }
        spill.runs.push(SpilledRun {
            offset: spill.bytes,
            pairs: self.current.len() as u64,
        });
        spill.bytes += (self.current.len() * PAIR_BYTES) as u64;
        Ok(())
    }

    /// Streams the merged, globally deduplicated edge list in ascending
    /// `(machine, domain)` order — the exact order and multiplicity
    /// [`GraphBuilder::build`](crate::GraphBuilder::build) produces after
    /// its own sort+dedup.
    ///
    /// The accumulator is not consumed; the stream can be replayed, though
    /// the counting-sort builder needs it only once.
    pub fn for_each_merged<F>(&self, mut f: F) -> io::Result<()>
    where
        F: FnMut(MachineId, DomainId),
    {
        // Sort a copy of the open run so replay leaves `self` untouched.
        let mut tail = Vec::with_capacity(self.current.len());
        tail.extend_from_slice(&self.current);
        tail.sort_unstable();
        tail.dedup();

        let mut sources: Vec<MergeSource<'_>> = Vec::with_capacity(self.sealed_runs() + 1);
        for run in &self.resident {
            sources.push(MergeSource::resident(run));
        }
        if let Some(spill) = &self.spill {
            for run in &spill.runs {
                sources.push(MergeSource::spilled(&spill.file, *run));
            }
        }
        sources.push(MergeSource::resident(&tail));

        // Min-heap of (next pair, source index); sources are individually
        // sorted and deduped, so global dedup is a compare with the last
        // emitted pair.
        let mut heap: BinaryHeap<Reverse<((u32, u32), usize)>> =
            BinaryHeap::with_capacity(sources.len());
        for (i, src) in sources.iter_mut().enumerate() {
            if let Some(pair) = src.next()? {
                heap.push(Reverse((pair, i)));
            }
        }
        let mut last: Option<(u32, u32)> = None;
        while let Some(Reverse((pair, i))) = heap.pop() {
            if last != Some(pair) {
                f(MachineId(pair.0), DomainId(pair.1));
                last = Some(pair);
            }
            if let Some(next) = sources[i].next()? {
                heap.push(Reverse((next, i)));
            }
        }
        Ok(())
    }

    /// Collects the merged stream into one `Vec` — the exact edge list the
    /// in-memory builder would have sorted. Intended for tests and small
    /// days; at paper scale, stream with
    /// [`for_each_merged`](Self::for_each_merged) instead.
    pub fn collect_merged(&self) -> io::Result<Vec<(MachineId, DomainId)>> {
        let mut out = Vec::new();
        self.for_each_merged(|m, d| out.push((m, d)))?;
        Ok(out)
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
                Some(Spill {
                    file,
                    runs: spill.runs.clone(),
                    bytes: spill.bytes,
                })
            }
        };
        Ok(EdgeRuns {
            capacity: self.capacity,
            current: self.current.clone(),
            resident: self.resident.clone(),
            spill,
            observations: self.observations,
            max_machine: self.max_machine,
            max_domain: self.max_domain,
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

/// Two accumulators are equal when they hold the same merged edge set
/// (run boundaries and spill placement are storage details). Replay
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

/// Creates an unlinked (anonymous) scratch file in the system temp
/// directory. The name embeds the process id and a process-global
/// sequence number; `create_new` guards against collisions with leftovers
/// from other processes, retrying on the next sequence number.
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

/// One cursor of the k-way merge: either a resident slice or a buffered
/// window into a spilled run.
enum MergeSource<'a> {
    Resident {
        rest: &'a [(MachineId, DomainId)],
    },
    Spilled {
        file: &'a File,
        /// Byte offset of the next unread pair in the file.
        next_offset: u64,
        /// Pairs not yet handed out (buffered ones included).
        remaining: u64,
        buf: Vec<u8>,
        /// Read position within `buf`.
        pos: usize,
    },
}

impl<'a> MergeSource<'a> {
    fn resident(run: &'a [(MachineId, DomainId)]) -> Self {
        MergeSource::Resident { rest: run }
    }

    fn spilled(file: &'a File, run: SpilledRun) -> Self {
        MergeSource::Spilled {
            file,
            next_offset: run.offset,
            remaining: run.pairs,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// The next pair of this source, or `None` when exhausted.
    fn next(&mut self) -> io::Result<Option<(u32, u32)>> {
        match self {
            MergeSource::Resident { rest } => match rest.split_first() {
                None => Ok(None),
                Some((&(m, d), tail)) => {
                    *rest = tail;
                    Ok(Some((m.0, d.0)))
                }
            },
            MergeSource::Spilled {
                file,
                next_offset,
                remaining,
                buf,
                pos,
            } => {
                if *pos >= buf.len() {
                    if *remaining == 0 {
                        return Ok(None);
                    }
                    let pairs = (*remaining).min(REFILL_PAIRS as u64) as usize;
                    buf.resize(pairs * PAIR_BYTES, 0);
                    let mut at = *file;
                    at.seek(SeekFrom::Start(*next_offset))?;
                    at.read_exact(buf)?;
                    *next_offset += buf.len() as u64;
                    *remaining -= pairs as u64;
                    *pos = 0;
                }
                let m =
                    u32::from_le_bytes([buf[*pos], buf[*pos + 1], buf[*pos + 2], buf[*pos + 3]]);
                let d = u32::from_le_bytes([
                    buf[*pos + 4],
                    buf[*pos + 5],
                    buf[*pos + 6],
                    buf[*pos + 7],
                ]);
                *pos += PAIR_BYTES;
                Ok(Some((m, d)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn empty_runs_merge_to_nothing() {
        let runs = EdgeRuns::new();
        assert!(runs.is_empty());
        assert_eq!(runs.max_ids(), None);
        assert_eq!(runs.collect_merged().expect("merge"), vec![]);
    }

    #[test]
    fn single_run_sorts_and_dedups() {
        let mut runs = EdgeRuns::new();
        let pushed = [pair(3, 1), pair(1, 2), pair(3, 1), pair(1, 1), pair(1, 2)];
        runs.extend(pushed);
        assert_eq!(runs.observations(), 5);
        assert_eq!(runs.sealed_runs(), 0, "capacity not reached");
        assert_eq!(runs.collect_merged().expect("merge"), reference(&pushed));
        assert_eq!(runs.max_ids(), Some((3, 2)));
    }

    #[test]
    fn tiny_capacity_forces_spill_and_merges_identically() {
        let mut runs = EdgeRuns::with_run_capacity(4);
        // Deterministic LCG so duplicates appear within and across runs.
        let mut state = 1u64;
        let mut pushed = Vec::new();
        for _ in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let m = ((state >> 33) % 17) as u32;
            let d = ((state >> 12) % 23) as u32;
            pushed.push(pair(m, d));
        }
        runs.extend(pushed.iter().copied());
        assert!(
            runs.spilled_runs() >= 2 || runs.sealed_runs() >= 2,
            "300 pushes at capacity 4 must seal many runs: {runs:?}"
        );
        if runs.spilled_runs() > 0 {
            assert_eq!(
                runs.spilled_bytes(),
                (runs
                    .spill
                    .as_ref()
                    .map_or(0, |s| s.runs.iter().map(|r| r.pairs).sum::<u64>()))
                    * PAIR_BYTES as u64
            );
        }
        assert_eq!(runs.collect_merged().expect("merge"), reference(&pushed));
        // Replay must be repeatable: it does not consume the accumulator.
        assert!(runs.pair_bound() >= runs.collect_merged().expect("merge").len());
        assert_eq!(runs.collect_merged().expect("merge"), reference(&pushed));
    }

    #[test]
    fn clear_resets_and_accumulator_is_reusable() {
        let mut runs = EdgeRuns::with_run_capacity(2);
        runs.extend([pair(5, 5), pair(4, 4), pair(3, 3)]);
        assert!(runs.sealed_runs() >= 1);
        runs.clear();
        assert!(runs.is_empty());
        assert_eq!(runs.max_ids(), None);
        assert_eq!(runs.collect_merged().expect("merge"), vec![]);
        runs.extend([pair(2, 9), pair(2, 9), pair(1, 8)]);
        assert_eq!(
            runs.collect_merged().expect("merge"),
            vec![pair(1, 8), pair(2, 9)]
        );
    }

    #[test]
    fn clone_duplicates_spilled_state() {
        let mut runs = EdgeRuns::with_run_capacity(3);
        let pushed: Vec<_> = (0..40u32).map(|i| pair(i % 7, i % 11)).collect();
        runs.extend(pushed.iter().copied());
        assert!(runs.spilled_runs() > 0, "spill path must engage: {runs:?}");
        let copy = runs.clone();
        assert_eq!(copy.collect_merged().expect("merge"), reference(&pushed));
        assert_eq!(copy, runs);
        // Diverging after the clone keeps the copies independent.
        runs.push(MachineId(100), DomainId(100));
        assert_ne!(copy, runs);
    }
}
