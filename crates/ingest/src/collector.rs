//! Accumulating parsed logs into pipeline inputs.
//!
//! Every reader pass goes through one block pipeline. The cutter
//! (`parser::BlockCutter`) hands out blocks of whole lines, `width` of
//! them at a time — a *group*. Workers walk each block with the one line
//! loop (`parser::BlockLines`), parse its lines and look their clients
//! and names up in the table as it stood when the group began; a line
//! whose client or name the table does not hold carries it as a miss. The calling thread then interns the group's misses in line
//! order, so every id is the one a line-by-line read assigns, and records
//! the group's lines in line order while the workers parse the next group.
//! The table is only read while workers run and only written between
//! groups, so scoped threads and two phases are all the synchronisation
//! there is.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom};

use segugio_graph::EdgeRuns;
use segugio_model::{Day, DomainId, DomainName, DomainTable, Ipv4, MachineId};
use segugio_pdns::{ActivityStore, PassiveDns};

use crate::error::{IngestError, ParseLogError};
use crate::parser::{BlockCutter, BlockLine, BlockLines, Line, LogPosition, LogRecord, RawRecord};
use crate::quarantine::{IngestStats, QuarantinePolicy};
use crate::state::LogGuard;

/// One ingested day, ready for `segugio_core::SnapshotInput`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestedDay {
    /// `(machine, domain)` query observations, sorted and duplicate-free.
    pub queries: Vec<(MachineId, DomainId)>,
    /// Per-domain resolved IPs observed that day, duplicate-free per domain.
    pub resolutions: Vec<(DomainId, Vec<Ipv4>)>,
}

/// Accumulates multi-day DNS logs into the structures Segugio consumes:
/// an interned [`DomainTable`], per-day query/resolution lists, and the
/// [`ActivityStore`] / [`PassiveDns`] history stores.
///
/// Client identifiers are interned to dense [`MachineId`]s in first-seen
/// order; the mapping is exposed via [`LogCollector::machine_name`].
///
/// A resolver log repeats itself — millions of lines name a few tens of
/// thousands of domains and clients — so every step looks an id up first
/// and allocates, validates or touches a history store only for what it
/// has not seen. A repeated line costs one pass over its bytes to find its
/// end and its fields, a name probe (a client that repeats the line
/// before's costs a byte comparison), and, once recorded, one dense-`Vec`
/// memo check and one query-edge push.
///
/// # Reading on several threads
///
/// [`set_read_width`](Self::set_read_width) sets how many blocks of the
/// log are parsed at once, each on its own scoped thread; at width 1 (the
/// default) the same kernel runs on the calling thread and none is
/// spawned. Every id, every store, every error and every byte of
/// [state](Self::state_bytes) comes out the same at every width.
///
/// # Continuing an append-only log
///
/// Everything a read of the log builds except the traffic itself — names
/// and their ids, machine names, both history stores, the days seen and
/// where each first appears, how far the log was read and a fingerprint
/// of the bytes just before that point — is the collector's *durable
/// state*: [`state_bytes`](Self::state_bytes) writes it as the
/// front-end section of a checkpoint container,
/// [`from_state_bytes`](Self::from_state_bytes) rebuilds a collector with
/// the same ids from it, [`resume_log`](Self::resume_log) checks that
/// state against the log as it is now and says where to read on, and
/// [`ingest_reader_from`](Self::ingest_reader_from) reads on from there.
/// A daily run then costs the new day, not the age of the log.
#[derive(Debug, Clone, Default)]
pub struct LogCollector {
    pub(crate) table: DomainTable,
    pub(crate) machines: Vec<String>,
    machine_ids: HashMap<String, MachineId>,
    // Everything a group's lines are recorded into: written while the
    // next group's workers read the table and the machine ids.
    pub(crate) recorder: Recorder,
    // How far the last successful reader pass got, and the fingerprint of
    // the bytes just before that point — `None` when that pass read a
    // stream it could not seek back in.
    pub(crate) consumed: LogPosition,
    pub(crate) guard: Option<LogGuard>,
    // Blocks parsed at once; 0 reads as 1.
    width: usize,
    // `None` = [`block_bytes`] at `width`.
    block_bytes: Option<usize>,
}

/// The stores a committed line updates.
#[derive(Debug, Clone, Default)]
pub(crate) struct Recorder {
    pub(crate) activity: ActivityStore,
    pub(crate) pdns: PassiveDns,
    pub(crate) days: BTreeMap<u32, DayAccumulator>,
    // Dense by `DomainId`.
    seen: Vec<Seen>,
    // Days up to this one feed ids and history but retain no traffic.
    covered_through: Option<Day>,
}

/// First-seen memo of one domain: what the history stores already hold
/// for it on the last day it was logged.
///
/// A memo hit implies the stores have the fact; a miss goes to the stores,
/// whose updates are idempotent. So the memo only saves work — a log whose
/// days interleave resets it more often, nothing else.
#[derive(Debug, Clone, Default)]
struct Seen {
    day: Option<Day>,
    // Sorted; the IPs already recorded for `day`.
    ips: Vec<Ipv4>,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct DayAccumulator {
    // Fixed-capacity sorted runs, spilled to scratch above the cap, so a
    // paper-scale day never holds all query observations in one `Vec`.
    queries: EdgeRuns,
    // Ordered so `LogCollector::day` emits resolutions deterministically.
    // The memo keeps repeats out while a log's days arrive in order;
    // whatever an interleaved log lets through is deduped once at
    // finalization.
    resolutions: BTreeMap<DomainId, Vec<Ipv4>>,
    // The line the day first appeared on; the top of the log for a day
    // that did not come through a reader pass.
    pub(crate) first_at: LogPosition,
}

impl DayAccumulator {
    pub(crate) fn new(first_at: LogPosition) -> Self {
        Self {
            queries: EdgeRuns::new(),
            resolutions: BTreeMap::new(),
            first_at,
        }
    }
}

/// Block size up to width 4: large enough that a group's thread spawns
/// and hand-offs are paid once per ~20,000 lines.
const BLOCK_BYTES: usize = 1 << 20;
/// What one group's blocks may hold together at any width. The per-line
/// records of two groups come to about as much again, so a read keeps
/// about 8 MiB in flight.
const GROUP_BYTES: usize = 4 << 20;

/// The block size a read cuts at `width`.
fn block_bytes(width: usize) -> usize {
    BLOCK_BYTES.min(GROUP_BYTES / width.max(1))
}

/// What a pass of the line loop leaves behind.
#[derive(Debug, Clone, Copy)]
struct Scanned {
    /// The end of the last line that ended in `\n`. A final line without
    /// one is ingested like any other but is not counted here: the writer
    /// may still be in the middle of it, so the next pass has to read it
    /// again from its first byte.
    end: LogPosition,
    /// Bytes of that last line, terminator included; 0 when the pass
    /// counted no line.
    last_line_bytes: u64,
}

/// One payload line of a block, parsed and looked up: 16 bytes, its day
/// in the run of [`DayStart`] it is in, its IPs in the block's shared pool.
#[derive(Debug, Clone, Copy)]
struct Parsed {
    // Ids; a miss holds a placeholder until its group is settled.
    machine: u32,
    domain: u32,
    // The line's IPs end here in the pool; they start where the previous
    // line's end.
    ips_end: usize,
}

/// A line on which a new run of one day starts within its block.
#[derive(Debug, Clone, Copy)]
struct DayStart {
    // Index into the block's records.
    record: usize,
    day: Day,
    // Where the line starts, relative to the block.
    offset: usize,
    line: u64,
}

/// A name the table did not hold when the block's group began.
#[derive(Debug)]
enum Missed {
    Domain(DomainName),
    Machine(String),
    // The client of the machine miss before it in the block.
    SameMachine,
}

#[derive(Debug)]
struct Miss {
    record: usize,
    missed: Missed,
}

/// Why a block's line loop stopped: a line that does not parse, or one
/// that is not UTF-8.
#[derive(Debug)]
enum Fault {
    Parse(ParseLogError),
    BadEncoding { line: u64 },
}

/// What a worker made of one block.
#[derive(Debug, Default)]
struct ParsedBlock {
    records: Vec<Parsed>,
    ips: Vec<Ipv4>,
    day_starts: Vec<DayStart>,
    misses: Vec<Miss>,
    // `\n`-terminated lines, the bytes through the last of them, and that
    // line's length.
    lines: u64,
    terminated: usize,
    last_line_bytes: usize,
    // Set when the loop stopped early: every record before the failing
    // line stands, and no miss of that line was noted.
    fault: Option<Fault>,
    // The block's place in the log, once its group is settled.
    base: LogPosition,
}

/// How one line's client was found: an id, or the miss noted for it.
#[derive(Debug, Clone, Copy)]
enum Client {
    Known(MachineId),
    Missed,
}

impl ParsedBlock {
    fn clear(&mut self) {
        self.records.clear();
        self.ips.clear();
        self.day_starts.clear();
        self.misses.clear();
        self.lines = 0;
        self.terminated = 0;
        self.last_line_bytes = 0;
        self.fault = None;
    }

    /// The strict kernel: parses and looks up every line of `block`
    /// against `table` and `machine_ids`, stopping at the first line that
    /// fails. Lines are numbered from the block's start.
    fn parse(
        &mut self,
        block: &[u8],
        table: &DomainTable,
        machine_ids: &HashMap<String, MachineId>,
    ) {
        self.clear();
        // A line holds at least this many bytes of log, in practice, and
        // names fewer than two IPs for each 16 of them.
        self.records.reserve(block.len() / 32);
        self.ips.reserve(block.len() / 8);
        let mut previous_client: Option<(&str, Client)> = None;
        for line in BlockLines::new(block) {
            let outcome = match line.line {
                Line::Skipped => Ok(()),
                Line::BadEncoding => Err(Fault::BadEncoding { line: line.index }),
                Line::Payload(payload) => self
                    .parse_payload(payload, &line, table, machine_ids, &mut previous_client)
                    .map_err(Fault::Parse),
            };
            if let Err(fault) = outcome {
                self.fault = Some(fault);
                return;
            }
            self.count(&line);
        }
    }

    fn count(&mut self, line: &BlockLine<'_>) {
        if line.terminated {
            self.lines += 1;
            self.terminated = line.start + line.len;
            self.last_line_bytes = line.len;
        }
    }

    /// One payload line, checked in the order a line-by-line read checks
    /// it: fields, then IPs (a bad qname outranks a bad IP list), then the
    /// qname. A line that fails notes no miss.
    fn parse_payload<'b>(
        &mut self,
        payload: &'b str,
        line: &BlockLine<'_>,
        table: &DomainTable,
        machine_ids: &HashMap<String, MachineId>,
        previous_client: &mut Option<(&'b str, Client)>,
    ) -> Result<(), ParseLogError> {
        let raw = RawRecord::split_at_tabs(payload, &line.tabs, line.index + 1)?;
        let ips_from = self.ips.len();
        if let Err(ip_error) = raw.parse_ips(&mut self.ips) {
            self.ips.truncate(ips_from);
            DomainName::parse(raw.qname).map_err(|e| raw.bad_domain(e))?;
            return Err(ip_error);
        }
        let record = self.records.len();
        let domain = match table.get_str(raw.qname) {
            Some(id) => id.0,
            None => match DomainName::parse(raw.qname) {
                Ok(name) => {
                    self.misses.push(Miss {
                        record,
                        missed: Missed::Domain(name),
                    });
                    0
                }
                Err(e) => {
                    self.ips.truncate(ips_from);
                    return Err(raw.bad_domain(e));
                }
            },
        };
        let machine = match *previous_client {
            Some((spelling, Client::Known(id))) if spelling == raw.client => id.0,
            Some((spelling, Client::Missed)) if spelling == raw.client => {
                self.misses.push(Miss {
                    record,
                    missed: Missed::SameMachine,
                });
                0
            }
            _ => match machine_ids.get(raw.client) {
                Some(&id) => {
                    *previous_client = Some((raw.client, Client::Known(id)));
                    id.0
                }
                None => {
                    self.misses.push(Miss {
                        record,
                        missed: Missed::Machine(raw.client.to_owned()),
                    });
                    *previous_client = Some((raw.client, Client::Missed));
                    0
                }
            },
        };
        self.push(record, &raw, line, machine, domain);
        Ok(())
    }

    fn push(
        &mut self,
        record: usize,
        raw: &RawRecord<'_>,
        line: &BlockLine<'_>,
        machine: u32,
        domain: u32,
    ) {
        if self.day_starts.last().map(|start| start.day) != Some(raw.day) {
            self.day_starts.push(DayStart {
                record,
                day: raw.day,
                offset: line.start,
                line: line.index,
            });
        }
        self.records.push(Parsed {
            machine,
            domain,
            ips_end: self.ips.len(),
        });
    }
}

/// Runs `parse` on every block, each on a scoped worker of its own while
/// `alongside` runs on the calling thread — or all of it on the calling
/// thread, spawning nothing, at width 1.
fn parse_group<T: Send>(
    blocks: &[Vec<u8>],
    outs: &mut [T],
    width: usize,
    parse: impl Fn(&[u8], &mut T) + Sync,
    alongside: impl FnOnce(),
) {
    if width <= 1 {
        alongside();
        for (block, out) in blocks.iter().zip(outs.iter_mut()) {
            parse(block, out);
        }
        return;
    }
    std::thread::scope(|scope| {
        let parse = &parse;
        for (block, out) in blocks.iter().zip(outs.iter_mut()) {
            scope.spawn(move || parse(block, out));
        }
        alongside();
    });
}

impl LogCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty collector for a run that resumes after
    /// `last_covered`, the last day its checkpoint already accounts for.
    ///
    /// An append-only log still holds the covered days, and they must be
    /// read: domain and machine ids are assigned in first-seen order, and
    /// the activity and passive-DNS history reach back over them. But the
    /// resumed run never asks for their traffic, so days up to and
    /// including `last_covered` retain no query edges and no resolutions —
    /// they are listed by [`days`](Self::days), and [`day`](Self::day)
    /// returns `None` for them.
    ///
    /// This is the resume of a run that has nothing but the log. One that
    /// kept the [state](Self::state_bytes) of its last read does not
    /// read the covered days at all: see [`resume_log`](Self::resume_log).
    pub fn resuming_after(last_covered: Day) -> Self {
        let mut collector = Self::default();
        collector.recorder.covered_through = Some(last_covered);
        collector
    }

    /// Sets how many blocks of a log every later reader pass parses at
    /// once, each on a scoped thread of its own, while the calling thread
    /// records the blocks before them; 0 reads as 1. At width 1, the
    /// default, nothing is spawned. The width changes how fast a log is
    /// read, nothing it builds.
    pub fn set_read_width(&mut self, width: usize) {
        self.width = width.max(1);
    }

    /// Sets the size of the blocks a reader pass cuts the log into; lines
    /// are never split, so a block holds at least one line whatever the
    /// size. The default is 1 MiB, less above width 4, so that a read
    /// keeps about 8 MiB of log in flight. Like the width, the size
    /// changes nothing a read builds.
    pub fn set_block_bytes(&mut self, bytes: usize) {
        self.block_bytes = Some(bytes.max(1));
    }

    /// Ingests one parsed record.
    pub fn ingest(&mut self, record: LogRecord) {
        let machine = self.intern_machine(record.client);
        let domain = self.table.intern(&record.qname);
        self.recorder.commit_run(
            &self.table,
            record.day,
            LogPosition::START,
            std::iter::once((machine, domain, record.ips.as_slice())),
        );
    }

    /// Parses and ingests every line of a stream read from its first byte
    /// (`#` comments and blank lines are skipped). This is
    /// [`ingest_reader_from`](Self::ingest_reader_from) the top of the
    /// log, for a reader that cannot seek: it moves
    /// [`consumed`](Self::consumed) like that one but leaves no
    /// fingerprint, so [state](Self::state_bytes) taken after it resumes
    /// by reading its log again.
    ///
    /// # Errors
    ///
    /// Returns the first parse or I/O failure, with its line number;
    /// everything before the failing line has been ingested.
    pub fn ingest_reader<R: Read>(&mut self, reader: R) -> Result<usize, IngestError> {
        let (ingested, scanned) = self.read_blocks(reader, LogPosition::START)?;
        self.consumed = scanned.end;
        self.guard = None;
        Ok(ingested)
    }

    /// Parses and ingests every line of `log` from `start` on. This is
    /// the one read path: a first run is the [top](LogPosition::START) of
    /// the log into an empty collector, a later run is the place
    /// [`resume_log`](Self::resume_log) names into a
    /// [decoded](Self::from_state_bytes) one. Line numbers in errors count
    /// from the top of the log either way.
    ///
    /// A pass that succeeds moves [`consumed`](Self::consumed) to the end
    /// of the last line that ended in a newline, and reads the bytes
    /// before that point back to fingerprint them. A final line without a
    /// newline is ingested like any other, but the next pass starts on it
    /// again: every update is idempotent, and only its IP list can have
    /// been cut short — a line that parses has its client and qname whole.
    ///
    /// # Errors
    ///
    /// Returns the first parse or I/O failure, with its line number;
    /// everything before the failing line has been ingested, and
    /// `consumed` stays where it was.
    pub fn ingest_reader_from<R: Read + Seek>(
        &mut self,
        log: &mut R,
        start: LogPosition,
    ) -> Result<usize, IngestError> {
        let io = |at: LogPosition, source| IngestError::Io {
            line: at.line_number(),
            source,
        };
        log.seek(SeekFrom::Start(start.offset))
            .map_err(|e| io(start, e))?;
        let (ingested, scanned) = self.read_blocks(&mut *log, start)?;
        // A pass that counted no line leaves the fingerprint of the bytes
        // before `start` standing.
        if scanned.end != start || self.guard.is_none() {
            let guard = LogGuard::take(log, scanned.end.offset, scanned.last_line_bytes)
                .map_err(|e| io(scanned.end, e))?;
            self.guard = Some(guard);
        }
        self.consumed = scanned.end;
        Ok(ingested)
    }

    /// The block pipeline behind both strict readers (see the
    /// [module documentation](self)): `reader` is positioned at `start`.
    fn read_blocks<R: Read>(
        &mut self,
        reader: R,
        start: LogPosition,
    ) -> Result<(usize, Scanned), IngestError> {
        let width = self.width.max(1);
        let target = self.block_bytes.unwrap_or_else(|| block_bytes(width));
        let mut cutter = BlockCutter::new(reader);
        let mut blocks: Vec<Vec<u8>> = (0..width).map(|_| Vec::new()).collect();
        let lanes = |n: usize| (0..n).map(|_| ParsedBlock::default()).collect::<Vec<_>>();
        // A serial read records each group before it parses the next into
        // the same records; only a wider read needs a second set.
        let mut settling = lanes(if width == 1 { 0 } else { width });
        let mut parsing = lanes(width);
        let mut scanned = Scanned {
            end: start,
            last_line_bytes: 0,
        };
        let mut ingested = 0usize;

        let mut filled = cutter.fill(&mut blocks, target);
        let (table, machine_ids) = (&self.table, &self.machine_ids);
        let kernel = |block: &[u8], out: &mut ParsedBlock| out.parse(block, table, machine_ids);
        parse_group(&blocks[..filled], &mut parsing, width, kernel, || {});
        loop {
            std::mem::swap(&mut settling, &mut parsing);
            let group = filled;
            if let Err((kept, fault)) = self.settle(&mut settling[..group], &mut scanned) {
                for block in &settling[..kept] {
                    self.recorder.commit_block(&self.table, block);
                }
                return Err(fault);
            }
            if group == 0 {
                // A read error ends the stream on the line after the last
                // whole one.
                return match cutter.take_error() {
                    Some(source) => Err(IngestError::Io {
                        line: scanned.end.line_number(),
                        source,
                    }),
                    None => Ok((ingested, scanned)),
                };
            }
            // The group's records no longer need its bytes: the next group
            // is read into them and parsed while the group is recorded.
            filled = cutter.fill(&mut blocks, target);
            let (table, machine_ids, recorder) =
                (&self.table, &self.machine_ids, &mut self.recorder);
            let kernel = |block: &[u8], out: &mut ParsedBlock| out.parse(block, table, machine_ids);
            let mut record = || {
                for block in &settling[..group] {
                    ingested += recorder.commit_block(table, block);
                }
            };
            if width == 1 {
                record();
                std::mem::swap(&mut settling, &mut parsing);
                parse_group(&blocks[..filled], &mut parsing, width, kernel, || {});
            } else {
                parse_group(&blocks[..filled], &mut parsing, width, kernel, record);
            }
        }
    }

    /// Places a parsed group in the log and interns its misses in line
    /// order, patching their ids into the records. Stops at the first
    /// block that faulted: `Err` says how many blocks to record — the
    /// faulted one's records are all before its failing line — and the
    /// error to return after them.
    fn settle(
        &mut self,
        group: &mut [ParsedBlock],
        scanned: &mut Scanned,
    ) -> Result<(), (usize, IngestError)> {
        for (i, block) in group.iter_mut().enumerate() {
            // Every block but the stream's last ends in `\n`.
            block.base = scanned.end;
            let mut last_machine = MachineId(0);
            for miss in block.misses.drain(..) {
                let Some(record) = block.records.get_mut(miss.record) else {
                    continue;
                };
                match miss.missed {
                    Missed::Domain(name) => record.domain = self.table.intern_owned(name).0,
                    Missed::Machine(client) => {
                        last_machine = self.intern_machine(client);
                        record.machine = last_machine.0;
                    }
                    Missed::SameMachine => record.machine = last_machine.0,
                }
            }
            let lines = block.base.lines;
            match block.fault.take() {
                Some(Fault::Parse(e)) => {
                    return Err((i + 1, IngestError::Parse(e.lines_down(lines))));
                }
                Some(Fault::BadEncoding { line }) => {
                    let source = std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "stream did not contain valid UTF-8",
                    );
                    let line = lines.saturating_add(line).saturating_add(1);
                    return Err((i + 1, IngestError::Io { line, source }));
                }
                None => {}
            }
            let offset = |bytes: usize| u64::try_from(bytes).map_or(u64::MAX, |b| b);
            if block.lines > 0 {
                *scanned = Scanned {
                    end: LogPosition {
                        offset: block.base.offset.saturating_add(offset(block.terminated)),
                        lines: block.base.lines.saturating_add(block.lines),
                    },
                    last_line_bytes: offset(block.last_line_bytes),
                };
            }
        }
        Ok(())
    }

    /// How far the last successful reader pass got: the end of the last
    /// newline-terminated line it consumed.
    pub fn consumed(&self) -> LogPosition {
        self.consumed
    }

    /// Prepares a [decoded](Self::from_state_bytes) collector to read on in
    /// `log` for a run that resumes after `last_covered`, and says where.
    ///
    /// When the bytes before [`consumed`](Self::consumed) still carry the
    /// stored fingerprint, the log is the one the state was built from,
    /// possibly longer: reading resumes at the first line of any day after
    /// `last_covered` (the traffic of those days is not part of the state
    /// and has to be read again, as after a killed backfill) or, when
    /// there is none, where the last pass stopped — `true` is returned
    /// beside the place. Lines of covered days met on the way feed the
    /// history again, which changes nothing, and retain no traffic, as in
    /// a collector [resuming after](Self::resuming_after) that day.
    ///
    /// Otherwise the log was rotated, truncated or edited underneath the
    /// state (or the state has no fingerprint to tell). What the state
    /// says about *where* things are is dropped —
    /// the days listed, their offsets, `consumed` — and reading restarts
    /// at the top, `false` beside it; names keep their ids and the history
    /// its reach, so state keyed by those ids elsewhere stays valid.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from seeking or reading `log`.
    pub fn resume_log<R: Read + Seek>(
        &mut self,
        log: &mut R,
        last_covered: Option<Day>,
    ) -> std::io::Result<(LogPosition, bool)> {
        self.recorder.covered_through = last_covered;
        let unchanged = match self.guard {
            Some(guard) => guard.matches(log, self.consumed.offset)?,
            None => false,
        };
        let start = if unchanged {
            self.recorder
                .days
                .iter()
                .filter(|(&day, _)| last_covered.is_none_or(|last| Day(day) > last))
                .map(|(_, acc)| acc.first_at)
                .fold(self.consumed, LogPosition::min)
        } else {
            self.recorder.days.clear();
            self.consumed = LogPosition::START;
            self.guard = None;
            LogPosition::START
        };
        Ok((start, unchanged))
    }

    /// Parses a reader in quarantine mode: damaged lines are counted by
    /// kind instead of aborting the file, and the records are committed
    /// only if the damage stays under `policy`.
    ///
    /// This is the deployment-facing twin of
    /// [`ingest_reader`](Self::ingest_reader): real feeds carry torn
    /// writes, invalid UTF-8 and garbled fields, and one bad line must not
    /// lose a day. Commit is all-or-nothing — when the policy is exceeded
    /// the collector is left exactly as it was, so a mis-formatted or
    /// truncated file can never half-poison the behavior graph. That is
    /// why this mode stages owned records where the strict one streams.
    ///
    /// # Errors
    ///
    /// [`IngestError::QuarantineExceeded`] when the file is too noisy
    /// (nothing ingested), or [`IngestError::Io`] on a transport-level read
    /// failure (invalid UTF-8 is *data* damage and is counted, not fatal).
    pub fn ingest_quarantined<R: Read>(
        &mut self,
        reader: R,
        policy: &QuarantinePolicy,
    ) -> Result<IngestStats, IngestError> {
        let width = self.width.max(1);
        let target = self.block_bytes.unwrap_or_else(|| block_bytes(width));
        let mut cutter = BlockCutter::new(reader);
        let mut blocks: Vec<Vec<u8>> = (0..width).map(|_| Vec::new()).collect();
        let mut staged: Vec<Staged> = (0..width).map(|_| Staged::default()).collect();
        let mut stats = IngestStats::default();
        let mut parsed: Vec<LogRecord> = Vec::new();
        let mut lines = 0u64;
        loop {
            let filled = cutter.fill(&mut blocks, target);
            if filled == 0 {
                break;
            }
            parse_group(&blocks[..filled], &mut staged, width, Staged::parse, || {});
            for block in &mut staged[..filled] {
                stats.add(&block.stats);
                parsed.append(&mut block.records);
                lines = lines.saturating_add(block.lines);
            }
        }
        if let Some(source) = cutter.take_error() {
            return Err(IngestError::Io {
                line: lines.saturating_add(1),
                source,
            });
        }
        stats.ingested = u64::try_from(parsed.len()).map_or(u64::MAX, |n| n);
        if policy.exceeded(&stats) {
            return Err(IngestError::QuarantineExceeded {
                errors: stats.errors(),
                considered: stats.considered(),
                max_error_rate: policy.max_error_rate,
            });
        }
        for record in parsed {
            self.ingest(record);
        }
        Ok(stats)
    }

    /// Makes room for `additional` more clients.
    pub(crate) fn reserve_machines(&mut self, additional: usize) {
        self.machines.reserve(additional);
        self.machine_ids.reserve(additional);
    }

    pub(crate) fn intern_machine(&mut self, client: String) -> MachineId {
        if let Some(&id) = self.machine_ids.get(&client) {
            return id;
        }
        let next = u32::try_from(self.machines.len());
        #[expect(
            clippy::expect_used,
            reason = "exhausting the 32-bit machine-id space cannot be recovered mid-ingest; aborting is the only sane response"
        )]
        let id = MachineId(next.expect("more than u32::MAX client machines"));
        self.machines.push(client.clone());
        self.machine_ids.insert(client, id);
        id
    }

    /// The interned domain table.
    pub fn table(&self) -> &DomainTable {
        &self.table
    }

    /// The accumulated activity store (feature group F2 input).
    pub fn activity(&self) -> &ActivityStore {
        &self.recorder.activity
    }

    /// The accumulated passive-DNS store (feature group F3 input).
    pub fn pdns(&self) -> &PassiveDns {
        &self.recorder.pdns
    }

    /// Number of distinct client machines seen.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// The original client identifier behind a [`MachineId`].
    pub fn machine_name(&self, id: MachineId) -> Option<&str> {
        self.machines.get(id.index()).map(|s| s.as_str())
    }

    /// The [`MachineId`] for a client identifier, if seen.
    pub fn machine_id(&self, client: &str) -> Option<MachineId> {
        self.machine_ids.get(client).copied()
    }

    /// Days the logs read so far carry traffic for, ascending — read by
    /// this collector or by the one whose [state](Self::from_state_bytes) it
    /// was decoded from.
    pub fn days(&self) -> Vec<Day> {
        self.recorder.days.keys().map(|&d| Day(d)).collect()
    }

    /// The ingested traffic of `day`, if any, as snapshot-ready lists.
    ///
    /// Convenience wrapper over [`try_day`](Self::try_day) that also maps a
    /// scratch-file read failure (possible only once a day has spilled past
    /// the run capacity) to `None`; callers that must distinguish "no
    /// traffic" from "scratch read failed" should use `try_day`.
    pub fn day(&self, day: Day) -> Option<IngestedDay> {
        self.try_day(day).ok().flatten()
    }

    /// The ingested traffic of `day`, if any, as snapshot-ready lists;
    /// `None` for a day nothing was logged on, and for one a
    /// [resumed run](Self::resuming_after) kept only the history of.
    ///
    /// Queries come back sorted and deduplicated (the downstream graph
    /// builder deduplicates anyway, so nothing pipeline-visible is lost);
    /// per-domain IP lists are deduplicated here, once, instead of per
    /// ingested record.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from re-reading query runs that were spilled
    /// to the scratch file.
    pub fn try_day(&self, day: Day) -> std::io::Result<Option<IngestedDay>> {
        if self
            .recorder
            .covered_through
            .is_some_and(|last| day <= last)
        {
            return Ok(None);
        }
        let Some(acc) = self.recorder.days.get(&day.0) else {
            return Ok(None);
        };
        let queries = acc.queries.collect_merged()?;
        let resolutions = acc
            .resolutions
            .iter()
            .map(|(&d, ips)| {
                let mut ips = ips.clone();
                ips.sort_unstable();
                ips.dedup();
                (d, ips)
            })
            .collect();
        Ok(Some(IngestedDay {
            queries,
            resolutions,
        }))
    }
}

impl Recorder {
    /// Records one block's lines, in line order; returns how many.
    fn commit_block(&mut self, table: &DomainTable, block: &ParsedBlock) -> usize {
        let mut committed = 0;
        let mut ips_from = 0;
        let mut starts = block.day_starts.iter().peekable();
        while let Some(start) = starts.next() {
            let end = starts
                .peek()
                .map_or(block.records.len(), |next| next.record);
            let Some(run) = block.records.get(start.record..end) else {
                continue;
            };
            let at = LogPosition {
                offset: block
                    .base
                    .offset
                    .saturating_add(u64::try_from(start.offset).map_or(u64::MAX, |o| o)),
                lines: block.base.lines.saturating_add(start.line),
            };
            let lines = run.iter().map(|parsed| {
                let ips = block.ips.get(ips_from..parsed.ips_end).unwrap_or(&[]);
                ips_from = parsed.ips_end;
                (MachineId(parsed.machine), DomainId(parsed.domain), ips)
            });
            committed += self.commit_run(table, start.day, at, lines);
        }
        committed
    }

    /// Records a run of lines of one `day`, the first of which stands at
    /// `at`; returns how many.
    fn commit_run<'r>(
        &mut self,
        table: &DomainTable,
        day: Day,
        at: LogPosition,
        lines: impl Iterator<Item = (MachineId, DomainId, &'r [Ipv4])>,
    ) -> usize {
        let acc = self
            .days
            .entry(day.0)
            .or_insert_with(|| DayAccumulator::new(at));
        let retained = self.covered_through.is_none_or(|last| day > last);
        let mut committed = 0;
        for (machine, domain, ips) in lines {
            committed += 1;
            if retained {
                acc.queries.push(machine, domain);
            }
            if self.seen.len() <= domain.index() {
                self.seen.resize_with(table.len(), Seen::default);
            }
            let Some(seen) = self.seen.get_mut(domain.index()) else {
                continue;
            };
            if seen.day != Some(day) {
                seen.day = Some(day);
                seen.ips.clear();
                self.activity.record(domain, table.e2ld_of(domain), day);
            }
            for &ip in ips {
                if let Err(pos) = seen.ips.binary_search(&ip) {
                    seen.ips.insert(pos, ip);
                    self.pdns.record(domain, ip, day);
                    if retained {
                        acc.resolutions.entry(domain).or_default().push(ip);
                    }
                }
            }
        }
        committed
    }
}

/// What a quarantined read made of one block: its good records and its
/// counts, the damage recorded, not raised.
#[derive(Debug, Default)]
struct Staged {
    records: Vec<LogRecord>,
    stats: IngestStats,
    lines: u64,
}

impl Staged {
    fn parse(block: &[u8], out: &mut Staged) {
        out.records.clear();
        out.stats = IngestStats::default();
        out.lines = 0;
        for line in BlockLines::new(block) {
            match line.line {
                Line::BadEncoding => out.stats.bad_encoding += 1,
                Line::Skipped => out.stats.skipped_comments += 1,
                Line::Payload(payload) => match LogRecord::parse(payload, line.index + 1) {
                    Ok(record) => out.records.push(record),
                    Err(e) => out.stats.note_parse(e.kind()),
                },
            }
            out.lines += u64::from(line.terminated);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# comment line
0\thost-a\twww.example.com\t93.184.216.34

0\thost-b\twww.example.com\t93.184.216.34
0\thost-a\tmail.example.com\t93.184.216.35
1\thost-a\tevil.test\t198.51.100.9,198.51.100.10
";

    fn collected() -> LogCollector {
        let mut c = LogCollector::new();
        let n = c.ingest_reader(SAMPLE.as_bytes()).unwrap();
        assert_eq!(n, 4);
        c
    }

    #[test]
    fn machines_and_domains_are_interned() {
        let c = collected();
        assert_eq!(c.machine_count(), 2);
        assert_eq!(c.machine_name(MachineId(0)), Some("host-a"));
        assert_eq!(c.machine_id("host-b"), Some(MachineId(1)));
        assert_eq!(c.machine_id("missing"), None);
        assert_eq!(c.table().len(), 3);
    }

    #[test]
    fn days_are_separated() {
        let c = collected();
        assert_eq!(c.days(), vec![Day(0), Day(1)]);
        let d0 = c.day(Day(0)).unwrap();
        assert_eq!(d0.queries.len(), 3);
        assert_eq!(d0.resolutions.len(), 2);
        let d1 = c.day(Day(1)).unwrap();
        assert_eq!(d1.queries.len(), 1);
        let (_, ips) = &d1.resolutions[0];
        assert_eq!(ips.len(), 2);
        assert!(c.day(Day(7)).is_none());
    }

    #[test]
    fn duplicate_ips_are_deduped_at_finalization() {
        let c = collected();
        let d0 = c.day(Day(0)).unwrap();
        // www.example.com resolved to the same IP in two records; the
        // finalized list carries it once.
        let www = c.table().get_str("www.example.com").unwrap();
        let (_, ips) = d0.resolutions.iter().find(|(d, _)| *d == www).unwrap();
        assert_eq!(ips, &vec![Ipv4::from_octets(93, 184, 216, 34)]);
    }

    #[test]
    fn resumed_collector_keeps_ids_and_history_but_not_covered_traffic() {
        let full = collected();
        let mut resumed = LogCollector::resuming_after(Day(0));
        assert_eq!(resumed.ingest_reader(SAMPLE.as_bytes()).unwrap(), 4);

        // Ids are assigned in first-seen order over the whole log.
        assert_eq!(resumed.table().len(), full.table().len());
        for id in full.table().ids() {
            assert_eq!(resumed.table().name(id), full.table().name(id));
            assert_eq!(resumed.table().e2ld_of(id), full.table().e2ld_of(id));
        }
        assert_eq!(resumed.machine_count(), full.machine_count());
        for m in 0..2 {
            assert_eq!(
                resumed.machine_name(MachineId(m)),
                full.machine_name(MachineId(m))
            );
        }
        // History reaches back over the covered day.
        assert_eq!(resumed.pdns().len(), full.pdns().len());
        for id in full.table().ids() {
            for day in [Day(0), Day(1)] {
                assert_eq!(
                    resumed.activity().fqd_active_on(id, day),
                    full.activity().fqd_active_on(id, day)
                );
                assert_eq!(
                    resumed.pdns().records_of(id, day.next().lookback(1)),
                    full.pdns().records_of(id, day.next().lookback(1))
                );
            }
        }
        // Covered traffic is listed but not retained; the rest is whole.
        assert_eq!(resumed.days(), full.days());
        assert_eq!(resumed.try_day(Day(0)).unwrap(), None);
        assert_eq!(resumed.day(Day(1)), full.day(Day(1)));
    }

    #[test]
    fn repeated_and_interleaved_lines_change_nothing() {
        // Two answers alternating across clients, a day that comes back
        // after another one, mixed-case and dotted spellings: the stores
        // must hold each fact once.
        let text = "\
3\ta\tcdn.example.com\t10.0.0.1
3\tb\tCDN.Example.COM.\t10.0.0.2
3\tc\tcdn.example.com\t10.0.0.1,10.0.0.2
4\ta\tcdn.example.com\t10.0.0.1
3\td\tcdn.example.com\t10.0.0.2
3\td\tcdn.example.com\t10.0.0.2
";
        let mut c = LogCollector::new();
        assert_eq!(c.ingest_reader(text.as_bytes()).unwrap(), 6);
        assert_eq!(c.table().len(), 1);
        let cdn = c.table().get_str("cdn.example.com").unwrap();
        assert_eq!(c.pdns().len(), 3);
        assert_eq!(c.pdns().records_of(cdn, Day(3).lookback(1)).len(), 2);
        let d3 = c.day(Day(3)).unwrap();
        assert_eq!(d3.queries.len(), 4);
        assert_eq!(
            d3.resolutions,
            vec![(
                cdn,
                vec![
                    Ipv4::from_octets(10, 0, 0, 1),
                    Ipv4::from_octets(10, 0, 0, 2)
                ]
            )]
        );
        assert!(c.activity().fqd_active_on(cdn, Day(3)));
        assert!(c.activity().fqd_active_on(cdn, Day(4)));
    }

    #[test]
    fn failed_line_leaves_no_trace() {
        // The qname is new and valid, the IP is not: nothing of the line
        // may reach the table, and the qname error outranks the IP error
        // when both are bad.
        let mut c = LogCollector::new();
        let err = c
            .ingest_reader("0\ta\tnew.example.com\t1.2.3.999\n".as_bytes())
            .unwrap_err();
        assert!(matches!(
            err,
            IngestError::Parse(ref e) if matches!(e.kind(), crate::error::ParseLogErrorKind::BadIp(_))
        ));
        assert!(c.table().is_empty());
        assert_eq!(c.machine_count(), 0);
        let err = c
            .ingest_reader("0\ta\tnot a domain\t1.2.3.999\n".as_bytes())
            .unwrap_err();
        assert!(matches!(
            err,
            IngestError::Parse(ref e) if matches!(e.kind(), crate::error::ParseLogErrorKind::BadDomain(_))
        ));
    }

    #[test]
    fn history_stores_accumulate() {
        let c = collected();
        let www = c.table().get_str("www.example.com").unwrap();
        assert!(c.activity().fqd_active_on(www, Day(0)));
        assert!(!c.activity().fqd_active_on(www, Day(1)));
        assert_eq!(
            c.pdns().resolved_ips(www, Day(1).lookback(5)),
            vec![Ipv4::from_octets(93, 184, 216, 34)]
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let mut c = LogCollector::new();
        let err = c
            .ingest_reader("0\ta\texample.com\t1.1.1.1\nnot-a-line\n".as_bytes())
            .unwrap_err();
        match err {
            IngestError::Parse(e) => assert_eq!(e.line(), 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        // The good line before the failure was ingested.
        assert_eq!(c.machine_count(), 1);
    }

    /// A reader that fails once its bytes are handed out.
    struct FailsAfter<'a>(&'a [u8]);

    impl Read for FailsAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::Error::other("disk gone"));
            }
            let n = buf.len().min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_read_error_names_the_line_it_struck_at_every_width() {
        let text = b"0\ta\tx.com\t1.1.1.1\n0\tb\ty.com\t1.1.1.2\n0\tc\tz.c";
        for width in [1, 2, 3] {
            for block in [1, 7, 1 << 20] {
                let mut c = LogCollector::new();
                c.set_read_width(width);
                c.set_block_bytes(block);
                match c.ingest_reader(FailsAfter(text)) {
                    Err(IngestError::Io { line, .. }) => assert_eq!(line, 3),
                    other => panic!("expected an i/o error, got {other:?}"),
                }
                // The whole lines before it were ingested.
                assert_eq!(c.machine_count(), 2, "width {width}, block {block}");
                let quarantined =
                    c.ingest_quarantined(FailsAfter(text), &QuarantinePolicy::default());
                assert!(matches!(quarantined, Err(IngestError::Io { line: 3, .. })));
            }
        }
    }

    #[test]
    fn quarantine_tolerates_sparse_damage() {
        let mut c = LogCollector::new();
        let mut text = String::from("# header\n");
        for i in 0..100 {
            text.push_str(&format!("0\thost-{i}\twww.example.com\t1.2.3.4\n"));
        }
        text.push_str("0\thost-x\n"); // truncated: qname and ips fields lost
        text.push_str("not-a-day\thost-x\twww.example.com\t1.2.3.4\n");
        let stats = c
            .ingest_quarantined(text.as_bytes(), &QuarantinePolicy::default())
            .unwrap();
        assert_eq!(stats.ingested, 100);
        assert_eq!(stats.missing_field, 1);
        assert_eq!(stats.bad_day, 1);
        assert_eq!(stats.skipped_comments, 1);
        assert_eq!(stats.errors(), 2);
        assert_eq!(c.machine_count(), 100);
    }

    #[test]
    fn quarantine_rejects_noisy_file_without_ingesting() {
        let mut c = LogCollector::new();
        let mut text = String::new();
        for i in 0..10 {
            text.push_str(&format!("0\thost-{i}\twww.example.com\t1.2.3.4\n"));
        }
        for _ in 0..10 {
            text.push_str("completely broken\n");
        }
        let err = c
            .ingest_quarantined(text.as_bytes(), &QuarantinePolicy::default())
            .unwrap_err();
        match err {
            IngestError::QuarantineExceeded {
                errors, considered, ..
            } => {
                assert_eq!(errors, 10);
                assert_eq!(considered, 20);
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // All-or-nothing: the collector is untouched.
        assert_eq!(c.machine_count(), 0);
        assert!(c.days().is_empty());
    }

    #[test]
    fn quarantine_counts_invalid_utf8_and_continues() {
        let mut c = LogCollector::new();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"0\thost-a\twww.example.com\t1.2.3.4\n");
        bytes.extend_from_slice(b"0\thost-\xFF\tbroken\t\n");
        bytes.extend_from_slice(b"0\thost-b\twww.example.com\t1.2.3.4\n");
        let stats = c
            .ingest_quarantined(bytes.as_slice(), &QuarantinePolicy::default())
            .unwrap();
        assert_eq!(stats.ingested, 2);
        assert_eq!(stats.bad_encoding, 1);
        assert_eq!(c.machine_count(), 2);
    }
}
