//! Spans recorded from outside the layers: one per call into a layer's
//! public function, kept in memory and written out when the run ends.
//!
//! Allocation columns read the counters of `segugio_alloc_probe`; they are
//! zero unless the binary installed `CountingAlloc` (only `trace` does).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use segugio_alloc_probe::{reset_peak, snapshot};

/// One timed call. `parent` is the stage the call belongs to. A `replayed`
/// span did not run inside its parent's interval: it is a sub-layer
/// function the stage hides, run again standalone on the same inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub day: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
    pub peak_bytes: u64,
    pub items: u64,
    pub replayed: bool,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans opened and not yet closed, innermost last.
    open: Vec<u32>,
    day: u32,
    /// Highest live-byte mark seen in any span.
    pub peak_live_bytes: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: crate::clock(),
            // Reserved up front so recording a span inside a measured
            // region does not itself allocate.
            spans: Vec::with_capacity(4096),
            open: Vec::with_capacity(16),
            day: 0,
            peak_live_bytes: 0,
        }
    }
}

impl Recorder {
    /// Day index stamped on the spans that follow.
    pub fn set_day(&mut self, day: u32) {
        self.day = day;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The probe has one global high-water mark. Before it is reset for a
    /// new span, and when a span closes, every span still open takes what
    /// the mark has reached.
    fn fold_peak(&mut self) {
        let peak = snapshot().peak;
        self.peak_live_bytes = self.peak_live_bytes.max(peak);
        for &id in &self.open {
            let span = &mut self.spans[id as usize];
            span.peak_bytes = span.peak_bytes.max(peak);
        }
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u32>, replayed: bool) -> u32 {
        self.fold_peak();
        reset_peak();
        let id = self.spans.len() as u32;
        let at = snapshot();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            day: self.day,
            name,
            start_ns: now,
            end_ns: now,
            // Holds the counter readings at open until `close` turns them
            // into deltas.
            allocs: at.allocs,
            bytes: at.bytes,
            peak_bytes: 0,
            items: 0,
            replayed,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: u32, items: u64) {
        let now = self.now_ns();
        let at = snapshot();
        assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.fold_peak();
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.allocs = at.allocs - span.allocs;
        span.bytes = at.bytes - span.bytes;
        span.items = items;
    }

    /// Times `f` as one span and returns its value with the span's id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        replayed: bool,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let id = self.open(name, parent, replayed);
        let value = f();
        self.close(id, 0);
        (value, id)
    }

    pub fn set_items(&mut self, id: u32, items: u64) {
        self.spans[id as usize].items = items;
    }

    pub fn get(&self, id: u32) -> &Span {
        &self.spans[id as usize]
    }

    /// A span's duration minus its children's, never below zero. Exact for
    /// children that ran inside the span; approximate for replayed ones,
    /// which re-run work the span already did.
    pub fn self_time_ns(&self, id: u32) -> u64 {
        let own = self.get(id);
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (own.end_ns - own.start_ns).saturating_sub(children)
    }

    /// `(day, seconds)` of every span called `name`, one entry per day
    /// (a name recorded several times in a day is summed).
    pub fn seconds_by_day(&self, name: &str) -> Vec<(u32, f64)> {
        let mut out: Vec<(u32, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match out.iter_mut().find(|(day, _)| *day == s.day) {
                Some((_, total)) => *total += s.seconds(),
                None => out.push((s.day, s.seconds())),
            }
        }
        out
    }

    /// One JSON object per span.
    pub fn write_jsonl(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {}, \"parent\": {parent}, \"workload\": \"{workload}\", \"day\": {}, \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \
                 \"allocs\": {}, \"bytes\": {}, \"peak_bytes\": {}, \"items\": {}, \
                 \"replayed\": {}}}",
                s.id,
                s.day,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_time_ns(s.id),
                s.allocs,
                s.bytes,
                s.peak_bytes,
                s.items,
                s.replayed
            );
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64, replayed: bool) -> Span {
        Span {
            id,
            parent,
            day: 0,
            name: "x",
            start_ns,
            end_ns,
            allocs: 0,
            bytes: 0,
            peak_bytes: 0,
            items: 0,
            replayed,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_never_goes_negative() {
        let spans = vec![
            span(0, None, 0, 100, false),
            span(1, Some(0), 10, 40, false),
            // A replayed child ran after its parent closed.
            span(2, Some(0), 200, 225, true),
            span(3, Some(1), 12, 20, false),
            span(4, None, 300, 310, false),
            span(5, Some(4), 400, 450, true),
        ];
        let rec = Recorder {
            spans,
            ..Recorder::default()
        };
        assert_eq!(rec.self_time_ns(0), 100 - 30 - 25);
        assert_eq!(rec.self_time_ns(1), 30 - 8);
        assert_eq!(rec.self_time_ns(3), 8);
        assert_eq!(rec.self_time_ns(4), 0, "a replay longer than its stage");
    }

    #[test]
    fn nesting_is_recorded_and_written_as_json() {
        let mut rec = Recorder::default();
        rec.set_day(2);
        let outer = rec.open("core.snapshot", None, false);
        let ((), inner) = rec.span("graph.prune", Some(outer), false, || {
            std::hint::black_box(vec![0u8; 1 << 16]);
        });
        rec.close(outer, 7);
        let (_, replay) = rec.span("graph.label", Some(outer), true, || ());
        assert_eq!(rec.get(inner).parent, Some(outer));
        assert!(rec.get(replay).replayed);
        assert!(rec.get(outer).start_ns <= rec.get(inner).start_ns);
        assert!(rec.get(inner).end_ns <= rec.get(outer).end_ns);
        assert_eq!(rec.get(outer).items, 7);
        assert_eq!(rec.seconds_by_day("graph.prune").len(), 1);

        let path = std::env::temp_dir().join(format!("spans-{}.jsonl", std::process::id()));
        rec.write_jsonl("track-churn", &path).unwrap();
        let lines = Json::parse_stream(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[2].get("replayed").unwrap().as_bool(), Some(true));
        assert_eq!(lines[0].get("day").unwrap().as_f64(), Some(2.0));
    }
}
