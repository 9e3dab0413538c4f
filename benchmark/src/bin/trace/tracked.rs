//! The traced tracking loop behind `track-churn`, `track-steady` and the
//! in-process half of `logs-cron`. Each day runs three ways on the same
//! inputs: `Tracker::process_day` whole (the untraced baseline), the same
//! day staged through the public stage functions with one span each, and
//! the simplest route (one thread, nothing incremental) as the reference.
//! All three must agree on the day's digest.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use segugio_benchmark::report::Outcome;
use segugio_benchmark::span::{Recorder, Span};
use segugio_benchmark::workload::{median, new_edge_fraction, sorted_distinct, Digest, Quality};
use segugio_core::{
    DayReport, Detection, IncrementalEngine, ScoreBuffer, SnapshotInput, Tracker, TrackerConfig,
};
use segugio_graph::{read_graph, write_graph, DeltaBuilder, PruneStats};
use segugio_model::{Blacklist, Day, DomainId, DomainTable, MachineId, Whitelist};
use segugio_pdns::{ActivityStore, PassiveDns, RollingAbuseIndex};
use segugio_traffic::{DayTraffic, GroundTruth, IspNetwork};

use crate::stages::{
    build_in_memory, implicated_machines, replay_ml, replay_snapshot_finish, score_stages,
};

/// What a day's pipeline reads besides its traffic.
#[derive(Clone, Copy)]
pub struct Feeds<'a> {
    pub table: &'a DomainTable,
    pub pdns: &'a PassiveDns,
    pub activity: &'a ActivityStore,
    pub blacklist: &'a Blacklist,
    pub whitelist: &'a Whitelist,
    /// The generator's oracle, when domain ids are the generator's.
    pub truth: Option<&'a GroundTruth>,
}

impl<'a> Feeds<'a> {
    pub fn of_world(world: &'a IspNetwork) -> Feeds<'a> {
        Feeds {
            table: world.table(),
            pdns: world.pdns(),
            activity: world.activity(),
            blacklist: world.commercial_blacklist(),
            whitelist: world.whitelist(),
            truth: Some(world.truth()),
        }
    }

    pub fn input(&self, day: &'a DayTraffic) -> SnapshotInput<'a> {
        SnapshotInput {
            day: day.day,
            queries: &day.queries,
            resolutions: &day.resolutions,
            table: self.table,
            pdns: self.pdns,
            blacklist: self.blacklist,
            whitelist: self.whitelist,
            hidden: None,
        }
    }
}

/// Facts of one staged day that no span carries.
#[derive(Debug, Clone, Copy, Default)]
struct DayFacts {
    new_edge_fraction: f64,
    prune: PruneStats,
    window_records: u64,
    rolling_touched: u64,
    feature_rows: u64,
    reused_rows: u64,
    unknown_rows: u64,
    train_rows: u64,
    train_positives: u64,
    forest_nodes: u64,
    score_allocs: u64,
}

pub struct TrackedLoop {
    config: TrackerConfig,
    serial_config: TrackerConfig,
    tracker: Tracker,
    serial: Tracker,
    // The staged route's own cross-day state.
    engine: IncrementalEngine,
    buf: ScoreBuffer,
    flagged: BTreeMap<DomainId, Day>,
    confirmed: BTreeSet<DomainId>,
    // Replay instances, kept in step with the engine's hidden ones.
    delta: Option<DeltaBuilder>,
    rolling: RollingAbuseIndex,
    prev_edges: Vec<(MachineId, DomainId)>,
    serial_buf: ScoreBuffer,
    // One digest chain per route.
    whole: Digest,
    staged: Digest,
    reference: Digest,
    quality: Quality,
    /// Staged days, as `(day index, facts)`; a degraded day is not staged.
    facts: Vec<(u32, DayFacts)>,
    days: u32,
}

impl TrackedLoop {
    pub fn new() -> TrackedLoop {
        let config = TrackerConfig::default();
        let mut serial_config = config.clone();
        serial_config.segugio.parallelism = Some(1);
        serial_config.segugio.incremental = false;
        serial_config.segugio.chunk_run_capacity = None;
        TrackedLoop {
            config,
            serial_config,
            tracker: Tracker::new(),
            serial: Tracker::new(),
            engine: IncrementalEngine::new(),
            buf: ScoreBuffer::new(),
            flagged: BTreeMap::new(),
            confirmed: BTreeSet::new(),
            delta: None,
            rolling: RollingAbuseIndex::default(),
            prev_edges: Vec::new(),
            serial_buf: ScoreBuffer::new(),
            whole: Digest::default(),
            staged: Digest::default(),
            reference: Digest::default(),
            quality: Quality::default(),
            facts: Vec::new(),
            days: 0,
        }
    }

    /// The tracker's reconcile step on the staged route's own flag state:
    /// earlier flags the blacklist confirms today, then today's new flags.
    fn reconcile(
        &mut self,
        input: &SnapshotInput<'_>,
        flagged: &[Detection],
    ) -> Vec<(DomainId, Day)> {
        let mut confirmed_today = Vec::new();
        self.flagged.retain(|&domain, &mut flagged_on| {
            let confirmed = input.blacklist.contains_as_of(domain, input.day);
            if confirmed {
                confirmed_today.push((domain, flagged_on));
            }
            !confirmed
        });
        self.confirmed.extend(confirmed_today.iter().map(|c| c.0));
        for det in flagged {
            if !self.confirmed.contains(&det.domain) {
                self.flagged.entry(det.domain).or_insert(input.day);
            }
        }
        confirmed_today
    }

    /// Runs one day all three ways and records its spans. `persist` also
    /// replays the CSR text codec on the day's unpruned graph.
    pub fn day(
        &mut self,
        rec: &mut Recorder,
        outcome: &mut Outcome,
        feeds: &Feeds<'_>,
        traffic: &DayTraffic,
        persist: bool,
    ) {
        let index = self.days;
        self.days += 1;
        rec.set_day(index);
        let input = feeds.input(traffic);

        // 1. The untraced baseline.
        outcome.attempted += 1;
        let (report, _) = rec.span("core.process_day", None, false, || {
            self.tracker
                .process_day(&input, feeds.activity, &self.config)
        });
        let report: DayReport = match report {
            Ok(report) => report,
            Err(error) => {
                outcome.failed += 1;
                eprintln!("day {index} failed: {error}");
                return;
            }
        };
        self.whole.day_report(&report);
        if let (Some(truth), true) = (feeds.truth, index > 0) {
            self.quality.add_day(&input, truth, &report.all_detections);
        }

        // 2. The same day, staged. A degraded day takes a fallback route
        //    inside `process_day` (and resets the engine): it is not
        //    decomposed, and the staged state adopts its report.
        if report.is_degraded() {
            eprintln!("day {index} ({}) is degraded: not staged", report.day);
            self.engine.reset();
            self.reconcile(&input, &report.all_detections);
            self.staged.day_report(&report);
        } else {
            self.staged_day(rec, outcome, feeds, &input, index, persist);
        }

        // 3. The simplest route.
        let (reference, id) = rec.span("core.serial_day", None, true, || {
            self.serial
                .process_day(&input, feeds.activity, &self.serial_config)
        });
        rec.set_items(id, traffic.queries.len() as u64);
        match reference {
            Ok(reference) => self.reference.day_report(&reference),
            Err(error) => eprintln!("day {index}: reference route failed: {error}"),
        }
        if !(self.whole == self.staged && self.whole == self.reference) {
            eprintln!(
                "day {index}: process_day {:08x}, staged {:08x}, simplest route {:08x}",
                self.whole.value(),
                self.staged.value(),
                self.reference.value()
            );
        }
    }

    fn staged_day(
        &mut self,
        rec: &mut Recorder,
        outcome: &mut Outcome,
        feeds: &Feeds<'_>,
        input: &SnapshotInput<'_>,
        index: u32,
        persist: bool,
    ) {
        let mut facts = DayFacts::default();
        let staged = rec.open("core.staged_day", None, false);
        let (snapshot, s_snapshot) = rec.span("core.snapshot", Some(staged), false, || {
            self.engine.build_snapshot(input, &self.config.segugio)
        });
        rec.set_items(s_snapshot, input.queries.len() as u64);
        let scored = score_stages(
            rec,
            staged,
            &mut self.engine,
            &snapshot,
            feeds.activity,
            &self.config,
            &mut self.buf,
        );
        rec.close(staged, input.queries.len() as u64);
        let scored = match scored {
            Ok(scored) => scored,
            Err(error) => {
                outcome.failed += 1;
                eprintln!("day {index}: staged route failed: {error}");
                return;
            }
        };
        let confirmed = self.reconcile(input, &scored.flagged);
        let implicated = implicated_machines(&snapshot.graph, &scored.flagged);
        self.staged
            .day(scored.threshold, &scored.flagged, &confirmed, implicated);

        // Replays under `core.snapshot`: the CSR both ways, then abuse
        // index, labeling and pruning on the in-memory build.
        let workers = self.config.segugio.effective_parallelism();
        let (unpruned, id) = rec.span("graph.csr_build", Some(s_snapshot), true, || {
            build_in_memory(input, workers)
        });
        rec.set_items(id, input.queries.len() as u64);
        let edges = sorted_distinct(input.queries.to_vec());
        facts.new_edge_fraction = new_edge_fraction(&self.prev_edges, &edges);
        self.prev_edges = edges;
        match &mut self.delta {
            None => self.delta = Some(DeltaBuilder::new(&unpruned)),
            Some(delta) => {
                let (advanced, id) =
                    rec.span("graph.delta_advance", Some(s_snapshot), true, || {
                        delta.advance(input.day, input.queries, input.resolutions, |d| {
                            input.table.e2ld_of(d)
                        })
                    });
                rec.set_items(id, input.queries.len() as u64);
                if advanced.edge_count() != unpruned.edge_count() {
                    outcome.check(
                        &format!("day-{index}-delta-equals-build"),
                        false,
                        format!(
                            "{} vs {} edges",
                            advanced.edge_count(),
                            unpruned.edge_count()
                        ),
                    );
                }
            }
        }
        let window = input
            .day
            .lookback_exclusive(self.config.segugio.features.abuse_window_days);
        let (touched, _) = rec.span("pdns.rolling_advance", Some(s_snapshot), true, || {
            self.rolling
                .advance(input.pdns, window, |d| input.seed_label(d))
        });
        facts.rolling_touched = (touched.ips.len() + touched.prefixes.len()) as u64;
        if persist {
            let mut text = String::new();
            let ((), id) = rec.span("graph.persist_write", None, true, || {
                write_graph(&unpruned, &mut text)
            });
            rec.set_items(id, text.len() as u64);
            let (read, id) = rec.span("graph.persist_read", None, true, || {
                read_graph(&mut text.lines())
            });
            rec.set_items(id, text.len() as u64);
            outcome.check(
                "persisted-graph-reads-back",
                read.is_ok_and(|g| g.edge_count() == unpruned.edge_count()),
                format!("{} bytes of text", text.len()),
            );
        }
        let (replayed, window_records) =
            replay_snapshot_finish(rec, s_snapshot, unpruned, input, &self.config);
        if replayed.prune_stats != snapshot.prune_stats {
            outcome.check(
                &format!("day-{index}-replayed-prune-equals-stage"),
                false,
                format!("{:?} vs {:?}", replayed.prune_stats, snapshot.prune_stats),
            );
        }
        facts.prune = snapshot.prune_stats;
        facts.window_records = window_records;

        let ml = replay_ml(rec, &scored, &self.config, &mut self.serial_buf);
        facts.forest_nodes = ml.forest_nodes;
        facts.score_allocs = ml.score_allocs;
        facts.unknown_rows = scored.features.unknown_rows.len() as u64;
        facts.train_rows = scored.features.train.len() as u64;
        facts.train_positives = scored.features.train.positive_count() as u64;
        facts.feature_rows = facts.unknown_rows + facts.train_rows;
        facts.reused_rows = scored.features.reused as u64;
        self.facts.push((index, facts));
    }

    /// Saves and restores the tracker once, as spans, and checks the
    /// restored tracker is the saved one.
    pub fn checkpoint(&mut self, rec: &mut Recorder, outcome: &mut Outcome, dir: &Path) {
        outcome.attempted += 2;
        let (saved, s_save) = rec.span("core.checkpoint_save", None, false, || {
            self.tracker.save_checkpoint(dir, 3)
        });
        let bytes = match saved {
            Ok(path) => std::fs::metadata(path).map_or(0, |m| m.len()),
            Err(error) => {
                outcome.failed += 1;
                eprintln!("checkpoint save failed: {error}");
                return;
            }
        };
        rec.set_items(s_save, bytes);
        let (restored, s_restore) = rec.span("core.checkpoint_restore", None, false, || {
            Tracker::resume(dir)
        });
        rec.set_items(s_restore, bytes);
        outcome.check(
            "checkpoint-restores-the-tracker",
            restored.is_ok_and(|t| {
                t.last_day() == self.tracker.last_day()
                    && t.days_processed() == self.tracker.days_processed()
                    && t.pending().eq(self.tracker.pending())
                    && t.confirmations().eq(self.tracker.confirmations())
            }),
            format!("{bytes} bytes"),
        );
        outcome.set_metric("core.checkpoint_save_s", rec.get(s_save).seconds());
        outcome.set_metric("core.checkpoint_save_allocs", rec.get(s_save).allocs as f64);
        outcome.set_metric("core.checkpoint_restore_s", rec.get(s_restore).seconds());
        outcome.set_metric(
            "core.checkpoint_restore_allocs",
            rec.get(s_restore).allocs as f64,
        );
        outcome.set_metric("core.checkpoint_bytes", bytes as f64);
    }

    /// Turns the recorded days into the per-layer metrics. Per-day values
    /// are medians over the warm staged days (all staged days when there
    /// is no warm one). Returns `trace.coverage`.
    pub fn finish(&self, rec: &Recorder, outcome: &mut Outcome) -> f64 {
        outcome.check(
            "all-routes-agree-on-every-day",
            self.whole == self.staged && self.whole == self.reference,
            format!("{} days, digest {:08x}", self.days, self.whole.value()),
        );
        outcome.report_digest = self.whole.value();
        let first_staged = self.facts.first().map_or(0, |f| f.0);
        let warm: Vec<u32> = {
            let later: Vec<u32> = self
                .facts
                .iter()
                .map(|f| f.0)
                .filter(|&d| d > first_staged)
                .collect();
            if later.is_empty() {
                self.facts.iter().map(|f| f.0).collect()
            } else {
                later
            }
        };
        if warm.is_empty() {
            outcome.check(
                "some-day-was-staged",
                false,
                "every day was degraded".to_owned(),
            );
            return 0.0;
        }
        let spans_of = |name: &str| -> Vec<&Span> {
            rec.spans()
                .iter()
                .filter(|s| s.name == name && warm.contains(&s.day))
                .collect()
        };
        let median_s = |name: &str| -> Option<f64> {
            let v: Vec<f64> = spans_of(name).iter().map(|s| s.seconds()).collect();
            (!v.is_empty()).then(|| median(&v))
        };
        let total_s = |name: &str| -> f64 { spans_of(name).iter().map(|s| s.seconds()).sum() };
        for (metric, span) in [
            ("graph.csr_build_s", "graph.csr_build"),
            ("graph.delta_advance_s", "graph.delta_advance"),
            ("graph.label_s", "graph.label"),
            ("graph.prune_s", "graph.prune"),
            ("pdns.abuse_build_s", "pdns.abuse_build"),
            ("pdns.rolling_advance_s", "pdns.rolling_advance"),
            ("core.snapshot_s", "core.snapshot"),
            ("core.features_s", "core.features"),
            ("core.train_s", "core.train"),
            ("core.calibrate_s", "core.calibrate"),
            ("core.score_s", "core.score"),
            ("core.serial_day_s", "core.serial_day"),
            ("ml.forest_fit_s", "ml.forest_fit"),
            ("ml.flat_pack_s", "ml.flat_pack"),
            ("ml.roc_s", "ml.roc"),
        ] {
            if let Some(seconds) = median_s(span) {
                outcome.set_metric(metric, seconds);
            }
        }
        // The codec replay ran on one day only, whichever it was.
        for (metric, span) in [
            ("graph.persist_write_s", "graph.persist_write"),
            ("graph.persist_read_s", "graph.persist_read"),
        ] {
            if let Some(s) = rec.spans().iter().find(|s| s.name == span) {
                outcome.set_metric(metric, s.seconds());
            }
        }
        for stage in ["core.snapshot", "core.features", "core.train", "core.score"] {
            let spans = spans_of(stage);
            let allocs: Vec<f64> = spans.iter().map(|s| s.allocs as f64).collect();
            outcome.set_metric(&format!("{stage}.allocs"), median(&allocs));
            let peak = spans.iter().map(|s| s.peak_bytes).max().unwrap_or(0);
            outcome.set_metric(&format!("{stage}.peak_bytes"), peak as f64);
        }

        let facts: Vec<&DayFacts> = self
            .facts
            .iter()
            .filter(|f| warm.contains(&f.0))
            .map(|f| &f.1)
            .collect();
        let median_of = |pick: fn(&DayFacts) -> f64| -> f64 {
            median(&facts.iter().map(|f| pick(f)).collect::<Vec<f64>>())
        };
        outcome.set_metric(
            "graph.delta_new_edge_fraction",
            median_of(|f| f.new_edge_fraction),
        );
        outcome.set_metric("graph.edges_in", median_of(|f| f.prune.edges_before as f64));
        outcome.set_metric(
            "graph.edges_kept",
            median_of(|f| f.prune.edges_after as f64),
        );
        outcome.set_metric(
            "graph.prune_r1_machines",
            median_of(|f| f.prune.r1_inactive_machines as f64),
        );
        outcome.set_metric(
            "graph.prune_r2_machines",
            median_of(|f| f.prune.r2_proxy_machines as f64),
        );
        outcome.set_metric(
            "graph.prune_r3_domains",
            median_of(|f| f.prune.r3_single_machine_domains as f64),
        );
        outcome.set_metric(
            "graph.prune_r4_domains",
            median_of(|f| f.prune.r4_popular_domains as f64),
        );
        outcome.set_metric(
            "pdns.window_records",
            median_of(|f| f.window_records as f64),
        );
        outcome.set_metric(
            "pdns.rolling_touched",
            median_of(|f| f.rolling_touched as f64),
        );
        outcome.set_metric("core.feature_rows", median_of(|f| f.feature_rows as f64));
        let (reused, rows) = facts
            .iter()
            .fold((0, 0), |(r, n), f| (r + f.reused_rows, n + f.feature_rows));
        outcome.set_metric(
            "core.feature_cache_hit_ratio",
            reused as f64 / rows.max(1) as f64,
        );
        outcome.set_metric("core.score_allocs", median_of(|f| f.score_allocs as f64));
        outcome.set_metric("ml.train_rows", median_of(|f| f.train_rows as f64));
        outcome.set_metric(
            "ml.train_positives",
            median_of(|f| f.train_positives as f64),
        );
        outcome.set_metric("ml.forest_nodes", median_of(|f| f.forest_nodes as f64));
        let unknown_rows: u64 = facts.iter().map(|f| f.unknown_rows).sum();
        outcome.set_metric(
            "core.score_domains_per_s",
            unknown_rows as f64 / total_s("core.score"),
        );
        if total_s("ml.flat_score") > 0.0 {
            outcome.set_metric(
                "ml.flat_score_rows_per_s",
                unknown_rows as f64 / total_s("ml.flat_score"),
            );
        }
        outcome.set_metric("core.detect_tpr", self.quality.detect_tpr());
        outcome.set_metric("core.detect_fpr", self.quality.detect_fpr());

        // How much of `process_day` the five stage spans explain, and what
        // the staged day costs beside it.
        let whole_s = total_s("core.process_day");
        let stages_s: f64 = [
            "core.snapshot",
            "core.features",
            "core.train",
            "core.calibrate",
            "core.score",
        ]
        .iter()
        .map(|s| total_s(s))
        .sum();
        outcome.set_metric("trace.coverage", stages_s / whole_s);
        outcome.set_metric("trace.overhead_ratio", total_s("core.staged_day") / whole_s);
        outcome.set_metric(
            "core.tracker_residual_s",
            (whole_s - stages_s) / warm.len() as f64,
        );
        if let (Some(serial), Some(whole)) =
            (median_s("core.serial_day"), median_s("core.process_day"))
        {
            outcome.set_metric("core.parallel_speedup", serial / whole);
            outcome.note_num("process_day_s", whole);
        }
        outcome.note_num("staged_warm_days", warm.len() as f64);
        stages_s / whole_s
    }
}
