//! Bounded-memory edge accumulation, and the grouping kernel every CSR
//! build runs on.
//!
//! A paper-scale day observes hundreds of millions of machine↔domain
//! query pairs. [`EdgeRuns`] keeps one fixed-capacity *run* of them in
//! RAM; when it fills, `group_by_machine` deduplicates it by machine and
//! it is appended to an anonymous scratch file in the grouped form the
//! kernel leaves: one *head* per machine present (its gap from the
//! previous head's machine and its count, as LEB128 varints), then every
//! machine's ascending distinct domain ids as one column of little-endian
//! `u32`s — about 4 B per stored pair. Nothing is ever merged or decoded
//! back into pairs: the CSR constructor
//! ([`GraphBuilder::from_runs`](crate::GraphBuilder::from_runs)) runs the
//! same kernel over the runs, whose count pass reads only the heads and
//! whose scatter pass copies each head's slice of the column into its
//! machine's bucket, whatever the number of runs.
//!
//! A full run is sealed on a worker thread while pushes fill the next
//! one: the worker groups it, spills it and drops its pairs, so at most
//! two runs' pairs are resident — the open one and the one in flight.
//! Only one run is ever in flight; the next seal, and every reader of
//! the value, first waits for it. Where it lands does not depend on when
//! the worker finishes, so every result equals sealing on the pushing
//! thread.
//!
//! The scratch file is unlinked right after creation, so the OS reclaims
//! it when the value is dropped, even on abnormal exit. If the scratch
//! disk fails, sealed runs stay in memory in the same grouped form:
//! accumulation never loses data; only reading back surfaces I/O errors.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver};
use std::sync::OnceLock;
use std::thread::{self, JoinHandle};

use segugio_model::{DomainId, MachineId};

/// Default per-run pair capacity: 4Mi pairs, 32 MiB per run buffer and
/// at most two resident (the open run and the one being sealed). A
/// paper-scale day of ~320M observations seals ~80 runs; since runs are
/// read back unmerged, their number adds no work per edge.
pub const DEFAULT_RUN_CAPACITY: usize = 4 << 20;

/// Bytes per read (and write) of a spilled domain column: 16Ki ids.
const CHUNK_BYTES: usize = 64 << 10;

/// Bytes per spilled domain id: one little-endian `u32`.
const ID_BYTES: usize = 4;

/// What [`group_by_machine`] leaves for machines `lo..=hi`: `ends[i]` is
/// where machine `lo + i`'s list ends in the domain column (it starts
/// where the previous one ends), the column holds each machine's
/// ascending distinct raw domain ids, and the last field is the smallest
/// and largest domain id.
pub(crate) type Grouped = (Vec<u32>, Vec<u32>, Option<(u32, u32)>);

/// A piece of the stored pairs, as the kernel's count pass reads them.
pub(crate) enum Counted<'a> {
    /// Loose pairs: any order, repeats welcome.
    Pairs(&'a [(MachineId, DomainId)]),
    /// A grouped run's head: this many stored domain ids of this machine.
    Head(u32, u32),
}

/// A piece of the stored pairs, as the kernel's scatter pass reads them.
pub(crate) enum Scattered<'a> {
    /// Loose pairs: any order, repeats welcome.
    Pairs(&'a [(MachineId, DomainId)]),
    /// A grouped run's domain ids of one machine: a head's slice of the
    /// column, or part of it where the slice straddles a read chunk.
    Domains(u32, &'a [u32]),
}

/// Where [`group_by_machine`] reads a day's stored pairs, twice.
///
/// Both passes must hand over the same pairs: per machine, the ids
/// scattered add up to the count counted. Their order is free.
pub(crate) trait Stored {
    /// Hands every stored pair to `sink` for counting, a piece at a time.
    fn count(&self, sink: impl FnMut(Counted<'_>)) -> io::Result<()>;
    /// Hands every stored pair to `sink` again, for scattering.
    fn scatter(&self, sink: impl FnMut(Scattered<'_>)) -> io::Result<()>;
}

/// A query slice, or an open run, is loose pairs in both passes.
impl Stored for [(MachineId, DomainId)] {
    fn count(&self, mut sink: impl FnMut(Counted<'_>)) -> io::Result<()> {
        sink(Counted::Pairs(self));
        Ok(())
    }

    fn scatter(&self, mut sink: impl FnMut(Scattered<'_>)) -> io::Result<()> {
        sink(Scattered::Pairs(self));
        Ok(())
    }
}

/// Monotonic discriminator for scratch-file names within one process.
#[expect(
    clippy::disallowed_types,
    reason = "names a file only; no result depends on which thread draws which number"
)]
static SCRATCH_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// One sealed run: the machines it holds and where its heads and domain
/// column live.
#[derive(Debug, Clone)]
struct Run {
    /// Smallest and largest machine id present. The first head's gap is
    /// from `first`, and no head passes `last`.
    first: u32,
    last: u32,
    /// Length of the encoded heads in bytes.
    head_bytes: usize,
    /// Length of the domain column in ids: the run's stored pairs.
    ids: usize,
    place: Place,
}

impl Run {
    /// Bytes the run takes in the scratch file, or 0 when resident.
    fn spilled_bytes(&self) -> u64 {
        match self.place {
            Place::Spilled(_) => (self.head_bytes + self.ids * ID_BYTES) as u64,
            Place::Resident { .. } => 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Place {
    /// At this offset of the scratch file: the heads, then the column.
    Spilled(u64),
    /// In memory, because the scratch file could not take it.
    Resident { heads: Vec<u8>, column: Vec<u32> },
}

/// A full run a worker thread is sealing while the next one fills.
struct InFlight {
    /// The sealed run, once a reader has waited for it.
    landed: OnceLock<Run>,
    /// The worker's sealed run, or its panic.
    result: Receiver<thread::Result<Run>>,
    /// Joined on drop, so no worker outlives its run.
    worker: Option<JoinHandle<()>>,
}

impl InFlight {
    /// Runs `seal` on a new worker thread.
    fn spawn(seal: impl FnOnce() -> Run + Send + 'static) -> Self {
        let (done, result) = mpsc::channel();
        let worker = thread::spawn(move || {
            // `Drop` joins the worker before the receiver goes, so the
            // send cannot fail.
            let _ = done.send(panic::catch_unwind(AssertUnwindSafe(seal)));
        });
        InFlight {
            landed: OnceLock::new(),
            result,
            worker: Some(worker),
        }
    }

    /// The sealed run, waiting for the worker if it is still sealing.
    /// A worker panic resumes on the caller.
    fn run(&self) -> &Run {
        self.landed.get_or_init(|| self.wait())
    }

    /// The sealed run, by value.
    fn into_run(mut self) -> Run {
        match self.landed.take() {
            Some(run) => run,
            None => self.wait(),
        }
    }

    /// Receives the worker's run; its panic resumes here.
    #[expect(
        clippy::panic,
        reason = "a reader already resumed the worker's panic; its run is lost and no result may be built without it"
    )]
    fn wait(&self) -> Run {
        match self.result.recv() {
            Ok(Ok(run)) => run,
            Ok(Err(payload)) => panic::resume_unwind(payload),
            Err(_) => panic!("edge runs: the seal worker panicked and its run is lost"),
        }
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            // A panic was caught on the worker and lives in `result`.
            let _ = worker.join();
        }
    }
}

/// Fixed-capacity deduplicated edge runs, spillable to disk.
///
/// Push every `(machine, domain)` query observation of a day (duplicates
/// welcome), then hand the whole value to
/// [`GraphBuilder::from_runs`](crate::GraphBuilder::from_runs), or
/// [`collect_merged`](Self::collect_merged) the deduplicated edge list.
///
/// The value is `Send` but not `Sync`: its readers take `&self` and may
/// have to wait for the run a worker is sealing.
pub struct EdgeRuns {
    capacity: usize,
    /// The one mutable in-RAM run; in push order until sealed.
    current: Vec<(MachineId, DomainId)>,
    /// Sealed runs in seal order, spilled or (after a scratch-file
    /// failure) resident; the one in flight follows them.
    sealed: Vec<Run>,
    in_flight: Option<InFlight>,
    /// The unlinked scratch file the spilled runs fill from offset 0.
    spill: Option<File>,
    /// Total observations pushed (pre-dedup), for telemetry.
    observations: u64,
}

impl EdgeRuns {
    /// An empty accumulator with [`DEFAULT_RUN_CAPACITY`].
    pub fn new() -> Self {
        Self::with_run_capacity(DEFAULT_RUN_CAPACITY)
    }

    /// An empty accumulator sealing runs at `capacity` pairs (at least 1,
    /// at most `u32::MAX`). Tiny capacities force the spill path — useful
    /// in tests.
    pub fn with_run_capacity(capacity: usize) -> Self {
        EdgeRuns {
            capacity: capacity.clamp(1, u32::MAX as usize),
            current: Vec::new(),
            sealed: Vec::new(),
            in_flight: None,
            spill: None,
            observations: 0,
        }
    }

    /// Total observations pushed so far (before any deduplication).
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.observations == 0
    }

    /// Number of sealed runs that live in the scratch file.
    pub fn spilled_runs(&self) -> usize {
        self.runs()
            .filter(|run| matches!(run.place, Place::Spilled(_)))
            .count()
    }

    /// Bytes currently held by the scratch file.
    pub fn spilled_bytes(&self) -> u64 {
        self.runs().map(Run::spilled_bytes).sum()
    }

    /// Every sealed run in seal order, the one in flight last once its
    /// worker has finished it.
    fn runs(&self) -> impl Iterator<Item = &Run> {
        self.sealed
            .iter()
            .chain(self.in_flight.as_ref().map(InFlight::run))
    }

    /// Smallest and largest raw machine ids pushed, or `None` when empty:
    /// the sealed runs' recorded spans and a scan of the open run.
    pub(crate) fn machine_span(&self) -> Option<(u32, u32)> {
        self.runs()
            .map(|run| (run.first, run.last))
            .chain(machine_span(&self.current))
            .reduce(|(lo, hi), (a, b)| (lo.min(a), hi.max(b)))
    }

    /// Records one query observation. No I/O error fails it: if the
    /// scratch disk is unusable the sealed run stays resident in memory
    /// instead.
    pub fn push(&mut self, machine: MachineId, domain: DomainId) {
        if self.current.len() >= self.capacity {
            self.seal();
        }
        self.current.push((machine, domain));
        self.observations += 1;
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
        self.sealed.clear();
        self.in_flight = None;
        self.spill = None;
        self.observations = 0;
    }

    /// Hands the open run to a worker that groups, dedups and spills it
    /// (resident in grouped form as the no-disk fallback), after the run
    /// in flight before it has landed. Pushes continue into a new buffer.
    fn seal(&mut self) {
        let Some(span) = machine_span(&self.current) else {
            return;
        };
        if let Some(previous) = self.in_flight.take() {
            self.sealed.push(previous.into_run());
        }
        if self.spill.is_none() {
            self.spill = create_scratch_file().ok();
        }
        // The worker writes through its own handle, after the last run
        // spilled: a failed append is recorded nowhere, so the next one
        // overwrites it.
        let file = self.spill.as_ref().and_then(|file| file.try_clone().ok());
        let offset = self.spilled_bytes();
        let pairs = std::mem::take(&mut self.current);
        self.in_flight = Some(InFlight::spawn(move || seal_run(span, pairs, file, offset)));
    }

    /// A sealed run's encoded heads: in memory, or read from the scratch
    /// file into `buf`.
    fn heads<'a>(&'a self, run: &'a Run, buf: &'a mut Vec<u8>) -> io::Result<&'a [u8]> {
        match &run.place {
            Place::Resident { heads, .. } => Ok(heads),
            Place::Spilled(offset) => {
                let mut file = self.spill_file()?;
                buf.resize(run.head_bytes, 0);
                file.seek(SeekFrom::Start(*offset))?;
                file.read_exact(buf)?;
                Ok(buf)
            }
        }
    }

    /// The scratch file every spilled run lives in.
    fn spill_file(&self) -> io::Result<&File> {
        self.spill
            .as_ref()
            .ok_or_else(|| corrupt("a spilled run without its scratch file"))
    }

    /// Collects the deduplicated edge list, ascending by `(machine,
    /// domain)` — the exact edge set the in-memory builder would see.
    /// Intended for tests and small days; at paper scale, build with
    /// [`GraphBuilder::from_runs`](crate::GraphBuilder::from_runs).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading back the scratch file, and
    /// [`io::ErrorKind::InvalidData`] past `u32::MAX` stored pairs.
    pub fn collect_merged(&self) -> io::Result<Vec<(MachineId, DomainId)>> {
        let Some(span) = self.machine_span() else {
            return Ok(Vec::new());
        };
        let (ends, column, _) = group_by_machine(span, self)?;
        Ok(grouped_pairs(span.0, &ends, &column).collect())
    }

    /// Copies the accumulated state, duplicating the scratch file; the
    /// run in flight lands in both first.
    fn try_clone(&self) -> io::Result<Self> {
        let sealed: Vec<Run> = self.runs().cloned().collect();
        let spill = match self.spill.as_ref() {
            None => None,
            Some(mut src) => {
                let bytes = self.spilled_bytes();
                let mut file = create_scratch_file()?;
                src.seek(SeekFrom::Start(0))?;
                let copied = io::copy(&mut src.take(bytes), &mut file)?;
                if copied != bytes {
                    return Err(io::Error::other("scratch file truncated during clone"));
                }
                Some(file)
            }
        };
        Ok(EdgeRuns {
            capacity: self.capacity,
            current: self.current.clone(),
            sealed,
            in_flight: None,
            spill,
            observations: self.observations,
        })
    }

    /// Number of sealed runs (resident + spilled, in flight or landed),
    /// excluding the open one.
    #[cfg(test)]
    fn sealed_runs(&self) -> usize {
        self.runs().count()
    }

    /// Stored pairs over all sealed runs: the ids their columns hold.
    #[cfg(test)]
    fn sealed_ids_total(&self) -> usize {
        self.runs().map(|run| run.ids).sum()
    }
}

/// Seals a full run: groups and dedups `pairs` (machine ids in `span`),
/// drops them, then appends the grouped run to `file` at `offset`, or
/// keeps it resident when there is no file or the append fails.
fn seal_run(
    (first, last): (u32, u32),
    pairs: Vec<(MachineId, DomainId)>,
    file: Option<File>,
    offset: u64,
) -> Run {
    let (ends, column) = match group_by_machine((first, last), pairs.as_slice()) {
        Ok((ends, column, _)) => (ends, column),
        Err(err) => unreachable!("a run of at most u32::MAX pairs always groups: {err}"),
    };
    drop(pairs);
    let heads = encode_heads(first, &ends);
    drop(ends);
    let (head_bytes, ids) = (heads.len(), column.len());
    let place = match file.map(|file| spill_at(file, offset, &heads, &column)) {
        Some(Ok(())) => Place::Spilled(offset),
        _ => Place::Resident { heads, column },
    };
    Run {
        first,
        last,
        head_bytes,
        ids,
        place,
    }
}

/// Writes one grouped run at `offset` of the scratch file: the heads,
/// then the column as little-endian ids.
fn spill_at(mut file: File, offset: u64, heads: &[u8], column: &[u32]) -> io::Result<()> {
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(heads)?;
    let mut buf = vec![0u8; CHUNK_BYTES.min(column.len() * ID_BYTES)];
    for ids in column.chunks(CHUNK_BYTES / ID_BYTES) {
        let bytes = &mut buf[..ids.len() * ID_BYTES];
        for (le, &d) in bytes.chunks_exact_mut(ID_BYTES).zip(ids) {
            le.copy_from_slice(&d.to_le_bytes());
        }
        file.write_all(bytes)?;
    }
    Ok(())
}

/// Sealed runs head by head (count) or slice by slice (scatter), then the
/// open run as loose pairs.
impl Stored for EdgeRuns {
    fn count(&self, mut sink: impl FnMut(Counted<'_>)) -> io::Result<()> {
        let mut buf = Vec::new();
        for run in self.runs() {
            for_each_head(run, self.heads(run, &mut buf)?, |machine, count| {
                sink(Counted::Head(machine, count));
                Ok(())
            })?;
        }
        sink(Counted::Pairs(&self.current));
        Ok(())
    }

    fn scatter(&self, mut sink: impl FnMut(Scattered<'_>)) -> io::Result<()> {
        let mut buf = Vec::new();
        let mut chunk = Column::default();
        for run in self.runs() {
            let heads = self.heads(run, &mut buf)?;
            match &run.place {
                Place::Resident { column, .. } => {
                    let mut at = 0usize;
                    for_each_head(run, heads, |machine, count| {
                        let ids = &column[at..at + count as usize];
                        sink(Scattered::Domains(machine, ids));
                        at += ids.len();
                        Ok(())
                    })?;
                }
                Place::Spilled(offset) => {
                    let start = offset + run.head_bytes as u64;
                    chunk.start(self.spill_file()?, start, run.ids * ID_BYTES);
                    for_each_head(run, heads, |machine, count| {
                        let mut left = count as usize;
                        while left > 0 {
                            let ids = chunk.take(left)?;
                            sink(Scattered::Domains(machine, ids));
                            left -= ids.len();
                        }
                        Ok(())
                    })?;
                }
            }
        }
        sink(Scattered::Pairs(&self.current));
        Ok(())
    }
}

/// A spilled domain column read front to back, a chunk at a time.
#[derive(Default)]
struct Column<'f> {
    file: Option<&'f File>,
    /// Next file offset to read, and bytes of the column left there.
    next: u64,
    left: usize,
    bytes: Vec<u8>,
    /// The current chunk's ids, and how many are handed out.
    ids: Vec<u32>,
    taken: usize,
}

impl<'f> Column<'f> {
    /// Points the reader at a column of `len` bytes from `offset`.
    fn start(&mut self, file: &'f File, offset: u64, len: usize) {
        self.file = Some(file);
        self.next = offset;
        self.left = len;
        self.ids.clear();
        self.taken = 0;
    }

    /// The next ids of the column, at most `max` (and at least one while
    /// the column lasts), reading the next chunk when this one is spent.
    fn take(&mut self, max: usize) -> io::Result<&[u32]> {
        if self.taken == self.ids.len() {
            let n = self.left.min(CHUNK_BYTES);
            let Some(mut file) = self.file.filter(|_| n > 0) else {
                return Err(corrupt("heads count past the end of their column"));
            };
            self.bytes.resize(n, 0);
            file.seek(SeekFrom::Start(self.next))?;
            file.read_exact(&mut self.bytes)?;
            self.next += n as u64;
            self.left -= n;
            self.ids.clear();
            self.ids.extend(
                self.bytes
                    .chunks_exact(ID_BYTES)
                    .map(|le| u32::from_le_bytes([le[0], le[1], le[2], le[3]])),
            );
            self.taken = 0;
        }
        let from = self.taken;
        self.taken = self.ids.len().min(from + max);
        Ok(&self.ids[from..self.taken])
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
            .field("sealed_runs", &self.runs().count())
            .field("spilled_runs", &self.spilled_runs())
            .field("spilled_bytes", &self.spilled_bytes())
            .finish()
    }
}

/// Appends one head: the machine's gap from the previous head's machine,
/// shifted left one bit with the low bit set when it holds a single
/// domain id, as a LEB128 varint; then, unless it holds one, its count.
///
/// A single-id head within 2^27 machines of the previous one takes at most
/// 4 B, and any other head at most 5 B plus its count's varint, so a run
/// spills at most 8 B per stored pair unless a machine seen once in it
/// lies 2^27 or more ids past the run's previous machine.
fn encode_head(out: &mut Vec<u8>, gap: u32, count: u32) {
    let single = count == 1;
    put_varint(out, u64::from(gap) << 1 | u64::from(single));
    if !single {
        put_varint(out, u64::from(count));
    }
}

/// Decodes the head at the front of `bytes`: `(gap, count, bytes used)`,
/// or `None` when `bytes` ends inside it or it is malformed.
fn decode_head(bytes: &[u8]) -> Option<(u32, u32, usize)> {
    let mut at = 0;
    let word = get_varint(bytes, &mut at)?;
    let gap = u32::try_from(word >> 1).ok()?;
    let count = if word & 1 == 1 {
        1
    } else {
        u32::try_from(get_varint(bytes, &mut at)?).ok()?
    };
    Some((gap, count, at))
}

/// The heads of a [`group_by_machine`] result over a span starting at
/// `lo`: one per machine with a non-empty bucket.
fn encode_heads(lo: u32, ends: &[u32]) -> Vec<u8> {
    let mut heads = Vec::new();
    let (mut machine, mut start) = (lo, 0u32);
    for (i, &end) in ends.iter().enumerate() {
        if end > start {
            let next = lo + i as u32;
            encode_head(&mut heads, next - machine, end - start);
            (machine, start) = (next, end);
        }
    }
    heads
}

/// Hands each of `run`'s heads to `f` as `(machine, count)`, checking that
/// they stay within the run's machines and count up to its column.
fn for_each_head(
    run: &Run,
    heads: &[u8],
    mut f: impl FnMut(u32, u32) -> io::Result<()>,
) -> io::Result<()> {
    let mut machine = run.first;
    let (mut at, mut ids) = (0usize, 0usize);
    while at < heads.len() {
        let (gap, count, used) = decode_head(&heads[at..]).ok_or_else(|| corrupt("a head"))?;
        at += used;
        ids += count as usize;
        machine = machine
            .checked_add(gap)
            .filter(|&m| m <= run.last && ids <= run.ids)
            .ok_or_else(|| corrupt("a head past its run"))?;
        f(machine, count)?;
    }
    if ids != run.ids {
        return Err(corrupt("heads that do not add up to their column"));
    }
    Ok(())
}

fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// A LEB128 varint of at most 5 bytes (35 bits) at `bytes[*at..]`.
fn get_varint(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    for shift in (0..35).step_by(7) {
        let byte = *bytes.get(*at)?;
        *at += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return Some(value);
        }
    }
    None
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("edge runs: {what} does not decode"),
    )
}

/// Smallest and largest raw machine ids in `pairs`, `None` when empty.
pub(crate) fn machine_span(pairs: &[(MachineId, DomainId)]) -> Option<(u32, u32)> {
    let mut ids = pairs.iter().map(|&(m, _)| m.0);
    let first = ids.next()?;
    Some(ids.fold((first, first), |(lo, hi), m| (lo.min(m), hi.max(m))))
}

/// Groups stored pairs by machine: the one kernel behind sealing a run
/// and building a CSR.
///
/// `stored` (machine ids in `lo..=hi`) is read twice. The count pass adds
/// up each machine's pairs over the id span: one per loose pair, a whole
/// head at a time for a grouped run. The scatter pass moves their domains
/// into per-machine buckets: loose pairs one by one, a grouped run's
/// slices with one copy each. Each bucket is then sorted, deduplicated
/// and compacted in place, so duplicates that span two runs meet in it.
///
/// # Errors
///
/// `stored`'s own errors, and [`io::ErrorKind::InvalidData`] when the
/// pairs counted pass `u32::MAX`: that is found in the count pass, before
/// the column is allocated.
pub(crate) fn group_by_machine<S: Stored + ?Sized>(
    (lo, hi): (u32, u32),
    stored: &S,
) -> io::Result<Grouped> {
    let mut ends = vec![0u32; (hi - lo) as usize + 1];
    // `None` once the count passes `u32::MAX`. No bucket holds more pairs
    // than the total, so the per-bucket additions cannot wrap.
    let mut total = Some(0u32);
    stored.count(|piece| {
        let Some(sum) = total else {
            return;
        };
        match piece {
            Counted::Pairs(pairs) => {
                total = u32::try_from(pairs.len())
                    .ok()
                    .and_then(|n| sum.checked_add(n));
                if total.is_some() {
                    for &(m, _) in pairs {
                        ends[(m.0 - lo) as usize] += 1;
                    }
                }
            }
            Counted::Head(m, n) => {
                total = sum.checked_add(n);
                if total.is_some() {
                    ends[(m - lo) as usize] += n;
                }
            }
        }
    })?;
    let Some(total) = total else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "more than u32::MAX stored pairs: the column's offsets are u32",
        ));
    };
    // Prefix sum to bucket starts; the scatter advances each to its end.
    let mut sum = 0u32;
    for slot in ends.iter_mut() {
        let count = *slot;
        *slot = sum;
        sum += count;
    }
    let mut column = vec![0u32; total as usize];
    stored.scatter(|piece| match piece {
        Scattered::Pairs(pairs) => {
            for &(m, d) in pairs {
                let slot = &mut ends[(m.0 - lo) as usize];
                column[*slot as usize] = d.0;
                *slot += 1;
            }
        }
        Scattered::Domains(m, ids) => {
            let slot = &mut ends[(m - lo) as usize];
            let at = *slot as usize;
            column[at..at + ids.len()].copy_from_slice(ids);
            *slot += ids.len() as u32;
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
    use std::cell::Cell;

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
        let (ends, column, _) = group_by_machine(span, pairs).expect("a slice groups");
        grouped_pairs(span.0, &ends, &column).collect()
    }

    /// `from_runs` builds the CSR `from_queries` builds over the pushes.
    fn assert_builds_like_queries(runs: &EdgeRuns, queries: &[(MachineId, DomainId)]) {
        let csr =
            |g: crate::BehaviorGraph| (g.machines, g.m_off, g.m_adj, g.domains, g.domain_degree);
        let want = GraphBuilder::from_queries(Day(1), queries, &[], |d| E2ldId(d.0));
        let got = GraphBuilder::from_runs(Day(1), runs, &[], |d| E2ldId(d.0)).expect("replay");
        assert_eq!(csr(got), csr(want));
    }

    /// What the sealed runs hold in grouped form, spilled or not: heads
    /// plus 4 B per stored pair. Under Miri, whose isolation fails the
    /// scratch-file open, the runs stay resident and nothing spills.
    fn grouped_bytes(runs: &EdgeRuns) -> u64 {
        let bytes = runs
            .runs()
            .map(|run| (run.head_bytes + run.ids * ID_BYTES) as u64)
            .sum();
        assert!(runs.spilled_bytes() == bytes || runs.spilled_runs() == 0);
        bytes
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

    /// No file I/O, so Miri runs it: heads at the varint lengths' edges,
    /// gaps of 2^28 and more, ids at `u32::MAX`, counts of 1 and past one
    /// byte; then truncated and over-long heads.
    #[test]
    fn head_codec_round_trips_at_the_edges() {
        let heads = [
            (0, 1),
            (1, 1),
            ((1 << 27) - 1, 1),
            (1 << 27, 1),
            (1 << 28, 2),
            (u32::MAX - (1 << 29), 128),
        ];
        let mut bytes = Vec::new();
        let mut lens = Vec::new();
        for &(gap, count) in &heads {
            let before = bytes.len();
            encode_head(&mut bytes, gap, count);
            lens.push(bytes.len() - before);
        }
        // A single-id head within 2^27 ids costs at most 4 B; past that, 5.
        assert_eq!(lens, [1, 1, 4, 5, 6, 7]);
        let run = Run {
            first: 0,
            last: u32::MAX,
            head_bytes: bytes.len(),
            ids: heads.iter().map(|&(_, n)| n as usize).sum(),
            place: Place::Resident {
                heads: Vec::new(),
                column: Vec::new(),
            },
        };
        let mut seen = Vec::new();
        for_each_head(&run, &bytes, |m, n| {
            seen.push((m, n));
            Ok(())
        })
        .expect("decodes");
        let mut machine = 0u32;
        let want: Vec<_> = heads
            .iter()
            .map(|&(gap, n)| {
                machine += gap;
                (machine, n)
            })
            .collect();
        assert_eq!(seen, want);
        assert_eq!(seen.last(), Some(&(u32::MAX, 128)));
        assert_eq!(decode_head(&[0x80 | 3, 0x80 | 1]), None);
        assert_eq!(decode_head(&[0xff, 0xff, 0xff, 0xff, 0xff, 0x01]), None);
        // A count of u32::MAX, and a gap one past u32::MAX.
        let mut big = Vec::new();
        encode_head(&mut big, u32::MAX, u32::MAX);
        assert_eq!(decode_head(&big), Some((u32::MAX, u32::MAX, 10)));
        let mut over = Vec::new();
        put_varint(&mut over, 1 << 33);
        assert_eq!(decode_head(&over), None);
        // Heads that pass the run's last machine, or its column, are refused.
        let short = Run { ids: 1, ..run };
        let err = for_each_head(&short, &bytes, |_, _| Ok(())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A grouped source whose heads add up past `u32::MAX`, alone or with
    /// loose pairs, is refused by the count pass, so the kernel never
    /// reaches the column allocation (16 GiB here) or the scatter pass.
    #[test]
    fn overflowing_heads_fail_in_the_count_pass() {
        struct Overflowing {
            heads: [(u32, u32); 2],
            pairs: Vec<(MachineId, DomainId)>,
            scattered: Cell<bool>,
        }
        impl Stored for Overflowing {
            fn count(&self, mut sink: impl FnMut(Counted<'_>)) -> io::Result<()> {
                for &(m, n) in &self.heads {
                    sink(Counted::Head(m, n));
                }
                sink(Counted::Pairs(&self.pairs));
                Ok(())
            }
            fn scatter(&self, _sink: impl FnMut(Scattered<'_>)) -> io::Result<()> {
                self.scattered.set(true);
                Ok(())
            }
        }
        for (heads, pairs) in [
            ([(0, u32::MAX), (1, 1)], vec![]),
            ([(0, u32::MAX - 1), (1, 1)], vec![pair(2, 0)]),
        ] {
            let source = Overflowing {
                heads,
                pairs,
                scattered: Cell::new(false),
            };
            let err = group_by_machine((0, 2), &source).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(!source.scattered.get(), "the scatter pass must not run");
        }
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
        assert!(
            cfg!(miri) || runs.spilled_runs() > 0,
            "spill path must engage: {runs:?}"
        );
        let mut copy = runs.clone();
        assert_eq!(copy.collect_merged().expect("merge"), reference(&pushed));
        assert_eq!(copy.observations(), runs.observations());
        assert_builds_like_queries(&copy, &pushed);
        // Diverging after the clone keeps the copies independent, and the
        // copy keeps sealing into its own scratch file.
        runs.push(MachineId(100), DomainId(100));
        assert_eq!(copy.collect_merged().expect("merge"), reference(&pushed));
        let more: Vec<_> = (0..20u32).map(|i| pair(i % 5 + 3, i % 4)).collect();
        copy.extend(more.iter().copied());
        pushed.extend(more);
        assert_builds_like_queries(&copy, &pushed);
        assert_eq!(runs.observations(), 41);
        assert!(runs
            .collect_merged()
            .expect("merge")
            .contains(&pair(100, 100)));
    }

    /// Reads (merge and CSR build) with a seal in flight, then pushes more
    /// (the next seal lands the read run) and reads again.
    #[test]
    fn reads_wait_for_the_run_in_flight() {
        let mut pushed: Vec<_> = (0..2000u32).map(|i| pair(i * 7 % 300, i % 90)).collect();
        let mut runs = EdgeRuns::with_run_capacity(1500);
        runs.extend(pushed.iter().copied());
        assert!(runs.in_flight.is_some() && runs.sealed.is_empty());
        assert_eq!(runs.collect_merged().expect("merge"), reference(&pushed));
        assert_builds_like_queries(&runs, &pushed);
        let more: Vec<_> = (0..1500u32).map(|i| pair(i % 400 + 100, i % 70)).collect();
        runs.extend(more.iter().copied());
        pushed.extend(more);
        assert!(runs.in_flight.is_some() && runs.sealed.len() == 1);
        assert_eq!(runs.sealed_runs(), 2);
        assert_eq!(runs.collect_merged().expect("merge"), reference(&pushed));
        assert_builds_like_queries(&runs, &pushed);
    }

    /// A clone taken with a spilled run in flight holds that run's bytes in
    /// its own scratch file, and outlives the original.
    #[test]
    fn clone_copies_the_run_in_flight() {
        let pushed: Vec<_> = (0..900u32).map(|i| pair(i % 50, i % 13)).collect();
        let mut runs = EdgeRuns::with_run_capacity(400);
        runs.extend(pushed.iter().copied());
        assert!(runs.in_flight.is_some() && runs.sealed.len() == 1);
        let copy = runs.clone();
        assert!(copy.in_flight.is_none() && copy.sealed.len() == 2);
        assert_eq!(copy.spilled_runs(), runs.spilled_runs());
        assert_eq!(copy.spilled_bytes(), runs.spilled_bytes());
        assert!(cfg!(miri) || copy.spilled_runs() == 2, "{copy:?}");
        drop(runs);
        assert_eq!(copy.collect_merged().expect("merge"), reference(&pushed));
        assert_builds_like_queries(&copy, &pushed);
    }

    /// Right after the last push the run in flight already counts as
    /// spilled, as the benchmark's trace reads it.
    #[test]
    fn spill_counts_include_the_run_in_flight() {
        let capacity = 16;
        let pushed: Vec<_> = (0..9 * capacity as u32 + 1)
            .map(|i| pair(i % 37, i % 11))
            .collect();
        let mut runs = EdgeRuns::with_run_capacity(capacity);
        runs.extend(pushed.iter().copied());
        assert!(runs.in_flight.is_some());
        let spilled = if cfg!(miri) { 0 } else { 9 };
        assert_eq!(runs.spilled_runs(), spilled);
        assert_eq!(runs.sealed_runs(), 9);
        let bytes = grouped_bytes(&runs);
        assert_eq!(runs.spilled_bytes(), if cfg!(miri) { 0 } else { bytes });
        assert_eq!(format!("{runs:?}").matches("sealed_runs: 9").count(), 1);
    }

    /// Dropping the accumulator with a seal in flight waits for the
    /// worker: nothing it holds outlives the drop. The pass does not
    /// depend on timing; the worker's sleep only keeps a drop that did
    /// not join from finishing after the worker.
    #[test]
    fn drop_joins_the_seal_worker() {
        let mut runs = EdgeRuns::with_run_capacity(8);
        let pushed: Vec<_> = (0..9u32).map(|i| pair(i, i)).collect();
        runs.extend(pushed.iter().copied());
        assert!(runs.in_flight.is_some());
        let held = std::sync::Arc::new(());
        let on_worker = std::sync::Arc::clone(&held);
        runs.in_flight = Some(InFlight::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(on_worker);
            seal_run((0, 7), pushed[..8].to_vec(), None, 0)
        }));
        drop(runs);
        assert_eq!(std::sync::Arc::strong_count(&held), 1);
    }

    /// A worker's panic resumes on the reader that waits for it, and any
    /// later reader panics too instead of waiting forever.
    #[test]
    fn a_seal_worker_panic_reaches_its_readers() {
        let flight = InFlight::spawn(|| panic!("seal failed"));
        let read = || panic::catch_unwind(AssertUnwindSafe(|| flight.run().ids));
        let payload = read().unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"seal failed"));
        assert!(read().is_err());
    }

    /// One machine stores more distinct domains in a run than a column
    /// read chunk holds, so its slice straddles chunk boundaries; the same
    /// machine recurs in the open run with overlapping domains.
    #[test]
    fn spilled_slice_straddles_read_chunks() {
        let chunk_ids = CHUNK_BYTES / ID_BYTES;
        let mut pushed: Vec<_> = (0..3000u32).map(|i| pair(i % 1000, i / 1000)).collect();
        pushed.extend((0..chunk_ids as u32 + 4000).map(|d| pair(1000, d * 3 % 50_000)));
        pushed.extend((0..3000u32).map(|i| pair(1001 + i % 7, i)));
        pushed.extend((0..5000u32).map(|d| pair(1000, d * 7)));
        let mut runs = EdgeRuns::with_run_capacity(pushed.len() - 4000);
        runs.extend(pushed.iter().copied());
        assert_eq!(runs.sealed_runs(), 1);
        assert!(cfg!(miri) || runs.spilled_runs() == 1, "{runs:?}");
        assert_eq!(runs.collect_merged().expect("merge"), reference(&pushed));
        assert_builds_like_queries(&runs, &pushed);
        // At a small capacity its domains spread over many runs.
        let mut all = EdgeRuns::with_run_capacity(1000);
        all.extend(pushed.iter().copied());
        assert_eq!(all.collect_merged().expect("merge"), reference(&pushed));
    }

    /// A machine-ordered run (each machine's queries together, as the
    /// generator emits them) spills at most 4.5 B per stored pair, and an
    /// interleaved one with a single pair per machine at most 8 B.
    #[test]
    fn grouped_runs_spill_at_most_the_bytes_per_pair_they_promise() {
        let ordered: Vec<_> = (0..4000u32).map(|i| pair(i / 8, i % 8 * 31)).collect();
        let mut runs = EdgeRuns::with_run_capacity(ordered.len());
        runs.extend(ordered.iter().copied());
        runs.push(MachineId(0), DomainId(0));
        let per_pair = grouped_bytes(&runs) as f64 / runs.sealed_ids_total() as f64;
        assert!(per_pair <= 4.5, "{per_pair} B per pair");

        for stride in [1, 100] {
            let interleaved: Vec<_> = (0..3000u32).map(|i| pair(i * stride, i)).collect();
            let mut runs = EdgeRuns::with_run_capacity(interleaved.len());
            runs.extend(interleaved.iter().copied());
            runs.push(MachineId(0), DomainId(0));
            let bytes = grouped_bytes(&runs);
            assert_eq!(runs.sealed_ids_total(), interleaved.len());
            assert!(
                bytes <= 8 * interleaved.len() as u64,
                "stride {stride}: {bytes} B"
            );
            assert_eq!(
                runs.collect_merged().expect("merge"),
                reference(&interleaved)
            );
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// The kernel is `sort_unstable` + `dedup` on pairs in log order
        /// (machines interleaved, repeats likely): many machines, one,
        /// a sparse span, or ids just under `u32::MAX`. So is an
        /// accumulator sealing (and spilling) at any capacity, replay
        /// after replay, at most 8 B per stored pair.
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
            prop_assert_eq!(kernel(&pairs), want.clone());
            let mut runs = EdgeRuns::with_run_capacity(run_capacity);
            runs.extend(pairs.iter().copied());
            prop_assert_eq!(runs.observations(), pairs.len() as u64);
            prop_assert_eq!(runs.sealed_runs(), pairs.len().saturating_sub(1) / run_capacity);
            prop_assert_eq!(runs.spilled_runs(), runs.sealed_runs());
            prop_assert!(runs.spilled_bytes() <= 8 * runs.sealed_ids_total() as u64);
            prop_assert_eq!(runs.collect_merged().expect("merge"), want.clone());
            prop_assert_eq!(runs.collect_merged().expect("merge"), want);
        }
    }
}
