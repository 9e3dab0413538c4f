//! Chaos contract: multi-day deployments driven through the deterministic
//! fault injector complete without panics, degrade only where a fault
//! actually fired, and — with the injector disabled — are bit-for-bit
//! identical to the clean path.

use segugio_core::{
    DayOutcome, DayReport, Degradation, SnapshotInput, Tracker, TrackerConfig, TrackerError,
};
use segugio_ingest::{IngestError, LogCollector, QuarantinePolicy};
use segugio_model::{Blacklist, Day};
use segugio_pdns::PassiveDns;
use segugio_traffic::{FaultConfig, FaultInjector, IspConfig, IspNetwork};

/// What happened to one generated day in a chaos deployment.
#[derive(Debug, Clone, PartialEq)]
enum ChaosDay {
    /// The day's traffic never arrived (tap outage).
    NeverDelivered(Day),
    /// The day reached the tracker; here is its outcome.
    Delivered(DayOutcome),
}

/// Runs a full deployment with per-day faults drawn from `faults`.
///
/// Identical `(cfg, faults)` pairs replay identical runs; with
/// [`FaultConfig::disabled`] the inputs equal the clean path exactly.
fn run_chaos(cfg: &IspConfig, days: usize, faults: FaultConfig) -> Vec<ChaosDay> {
    let mut isp = IspNetwork::new(cfg.clone());
    isp.warm_up(16);
    let injector = FaultInjector::new(faults);
    let mut tracker = Tracker::new();
    let mut config = TrackerConfig {
        target_fpr: 0.02,
        ..TrackerConfig::default()
    };
    config.segugio.parallelism = Some(1);
    let blank = PassiveDns::new();
    let mut outcomes = Vec::with_capacity(days);
    for _ in 0..days {
        let traffic = isp.next_day();
        let f = injector.faults_for(traffic.day);
        if f.drop_day {
            outcomes.push(ChaosDay::NeverDelivered(traffic.day));
            continue;
        }
        let delayed;
        let blacklist = if f.stale_blacklist {
            delayed = injector.delayed_blacklist(isp.commercial_blacklist(), traffic.day);
            &delayed
        } else {
            isp.commercial_blacklist()
        };
        let pdns = if f.blank_pdns { &blank } else { isp.pdns() };
        let input = SnapshotInput {
            day: traffic.day,
            queries: &traffic.queries,
            resolutions: &traffic.resolutions,
            table: isp.table(),
            pdns,
            blacklist,
            whitelist: isp.whitelist(),
            hidden: None,
        };
        outcomes.push(ChaosDay::Delivered(tracker.process_day_outcome(
            &input,
            isp.activity(),
            &config,
        )));
    }
    outcomes
}

/// Runs the plain clean deployment (no injector anywhere in the loop).
fn run_clean(cfg: &IspConfig, days: usize) -> Vec<DayReport> {
    let mut isp = IspNetwork::new(cfg.clone());
    isp.warm_up(16);
    let mut tracker = Tracker::new();
    let mut config = TrackerConfig {
        target_fpr: 0.02,
        ..TrackerConfig::default()
    };
    config.segugio.parallelism = Some(1);
    let mut reports = Vec::with_capacity(days);
    for _ in 0..days {
        let traffic = isp.next_day();
        let input = SnapshotInput {
            day: traffic.day,
            queries: &traffic.queries,
            resolutions: &traffic.resolutions,
            table: isp.table(),
            pdns: isp.pdns(),
            blacklist: isp.commercial_blacklist(),
            whitelist: isp.whitelist(),
            hidden: None,
        };
        reports.push(
            tracker
                .process_day(&input, isp.activity(), &config)
                .expect("clean warmed-up fixture seeds both classes"),
        );
    }
    reports
}

/// Chaos seeds used by this suite and by the CI `chaos` job. Keep at
/// least three.
const CHAOS_SEEDS: [u64; 3] = [101, 202, 303];

/// Ten chaotic days at every seed: no panics, and every skip is typed.
#[test]
fn chaos_deployments_complete_at_every_seed() {
    let mut eventful_days = 0usize;
    for seed in CHAOS_SEEDS {
        let chaos = run_chaos(&IspConfig::tiny(90), 10, FaultConfig::chaos(seed));
        assert_eq!(chaos.len(), 10);
        for day in &chaos {
            match day {
                ChaosDay::NeverDelivered(_) => eventful_days += 1,
                ChaosDay::Delivered(DayOutcome::Skipped { error, .. }) => {
                    assert!(
                        matches!(
                            error,
                            TrackerError::InsufficientSeeds { .. }
                                | TrackerError::NonMonotonicDay { .. }
                        ),
                        "unexpected skip reason under seed {seed}: {error}"
                    );
                    eventful_days += 1;
                }
                ChaosDay::Delivered(DayOutcome::Processed(report)) => {
                    eventful_days += usize::from(report.is_degraded());
                }
            }
        }
    }
    // The contract is only meaningful if chaos actually happened.
    assert!(
        eventful_days > 0,
        "no fault fired across {} seeds — the chaos config is inert",
        CHAOS_SEEDS.len()
    );
}

/// With the injector disabled the chaos harness is a pass-through: reports
/// are bit-for-bit identical to a deployment that never saw the injector.
#[test]
fn disabled_injector_is_bit_for_bit_clean() {
    let cfg = IspConfig::tiny(90);
    let clean = run_clean(&cfg, 8);
    let chaos = run_chaos(&cfg, 8, FaultConfig::disabled(99));
    let unwrapped: Vec<DayReport> = chaos
        .into_iter()
        .map(|day| match day {
            ChaosDay::Delivered(DayOutcome::Processed(report)) => report,
            other => panic!("disabled injector must deliver every day, got {other:?}"),
        })
        .collect();
    assert_eq!(unwrapped, clean);
    assert!(
        unwrapped.iter().all(|r| r.degradation.is_empty()),
        "no fallback may fire on clean inputs"
    );
}

/// Monotonic degradation: days before the first fault are untouched by the
/// faults that come later — their reports equal the clean run's exactly.
#[test]
fn faults_do_not_reach_back_to_clean_days() {
    for seed in CHAOS_SEEDS {
        let cfg = IspConfig::tiny(90);
        let faults = FaultConfig::chaos(seed);
        let injector = FaultInjector::new(faults.clone());
        let clean = run_clean(&cfg, 10);
        let chaos = run_chaos(&cfg, 10, faults);
        let first_fault = clean
            .iter()
            .position(|r| injector.faults_for(r.day).any())
            .unwrap_or(clean.len());
        for i in 0..first_fault {
            assert_eq!(
                ChaosDay::Delivered(DayOutcome::Processed(clean[i].clone())),
                chaos[i],
                "pre-fault day {i} diverged under seed {seed}"
            );
        }
    }
}

/// The acceptance scenario: a deployment with exactly one seedless day and
/// one pDNS-blank day completes end to end, and the reports record exactly
/// which fallback fired on which day.
#[test]
fn seedless_and_blank_pdns_days_fall_back_exactly_once_each() {
    const SEEDLESS: usize = 2;
    const BLANK: usize = 4;
    let cfg = IspConfig::tiny(90);
    let reports = {
        let mut isp = IspNetwork::new(cfg);
        isp.warm_up(16);
        let mut tracker = Tracker::new();
        let mut config = TrackerConfig {
            target_fpr: 0.02,
            ..TrackerConfig::default()
        };
        config.segugio.parallelism = Some(1);
        let empty_blacklist = Blacklist::new();
        let blank_pdns = PassiveDns::new();
        let mut reports = Vec::new();
        for i in 0..7 {
            let traffic = isp.next_day();
            let input = SnapshotInput {
                day: traffic.day,
                queries: &traffic.queries,
                resolutions: &traffic.resolutions,
                table: isp.table(),
                pdns: if i == BLANK { &blank_pdns } else { isp.pdns() },
                blacklist: if i == SEEDLESS {
                    &empty_blacklist
                } else {
                    isp.commercial_blacklist()
                },
                whitelist: isp.whitelist(),
                hidden: None,
            };
            reports.push(
                tracker
                    .process_day(&input, isp.activity(), &config)
                    .expect("every day must complete under the health policy"),
            );
        }
        reports
    };
    assert_eq!(reports.len(), 7, "the deployment completed end to end");
    for (i, report) in reports.iter().enumerate() {
        match i {
            SEEDLESS => assert_eq!(
                report.degradation,
                vec![Degradation::StaleModel {
                    trained_on: reports[SEEDLESS - 1].day
                }],
                "the seedless day is scored with yesterday's model"
            ),
            BLANK => assert_eq!(
                report.degradation,
                vec![Degradation::MaskedIpFeatures],
                "the blank-pDNS day trains on F1+F2"
            ),
            _ => assert!(
                report.degradation.is_empty(),
                "day {i} must not degrade: {:?}",
                report.degradation
            ),
        }
    }
    // The stale-model day reuses yesterday's calibrated threshold.
    assert_eq!(reports[SEEDLESS].threshold, reports[SEEDLESS - 1].threshold);
}

/// Out-of-order delivery (the injector's day-swap fault) is rejected as a
/// typed skip and the tracker keeps going on the days that are in order.
#[test]
fn swapped_days_skip_typed_and_recover() {
    let cfg = IspConfig::tiny(90);
    let injector = FaultInjector::new(FaultConfig {
        swap_adjacent_days: 1.0,
        ..FaultConfig::disabled(4)
    });
    let mut isp = IspNetwork::new(cfg);
    isp.warm_up(16);
    let mut tracker = Tracker::new();
    let config = TrackerConfig {
        target_fpr: 0.02,
        ..TrackerConfig::default()
    };
    // Generate four days up front, then deliver in injector order:
    // 1,0,3,2 — each pair's second element arrives out of order.
    let traffic: Vec<_> = (0..4).map(|_| isp.next_day()).collect();
    let days: Vec<Day> = traffic.iter().map(|t| t.day).collect();
    let order = injector.delivery_order(&days);
    assert_ne!(order, days, "the fault must actually reorder");
    let mut processed = 0;
    let mut skipped = 0;
    for day in order {
        let t = traffic
            .iter()
            .find(|t| t.day == day)
            .expect("order is a permutation");
        let input = SnapshotInput {
            day: t.day,
            queries: &t.queries,
            resolutions: &t.resolutions,
            table: isp.table(),
            pdns: isp.pdns(),
            blacklist: isp.commercial_blacklist(),
            whitelist: isp.whitelist(),
            hidden: None,
        };
        match tracker.process_day_outcome(&input, isp.activity(), &config) {
            DayOutcome::Processed(_) => processed += 1,
            DayOutcome::Skipped { error, .. } => {
                assert!(matches!(error, TrackerError::NonMonotonicDay { .. }));
                skipped += 1;
            }
        }
    }
    // 1,0,3,2: days 1 and 3 process; 0 and 2 arrive late and are skipped.
    assert_eq!(processed, 2);
    assert_eq!(skipped, 2);
    assert_eq!(tracker.days_processed(), 2);
}

/// Line-level chaos drains into the quarantine layer: a corrupted export
/// either ingests with the damage counted by kind, or is rejected as a
/// whole with nothing committed — never a panic, never a half-poisoned
/// collector.
#[test]
fn corrupted_logs_quarantine_instead_of_poisoning() {
    let mut isp = IspNetwork::new(IspConfig::tiny(90));
    isp.warm_up(16);
    let traffic = isp.next_day();
    let text = segugio_ingest::export_day(
        isp.table(),
        traffic.day.0,
        &traffic.queries,
        &traffic.resolutions,
    );
    for seed in CHAOS_SEEDS {
        // Heavy line damage so both quarantine verdicts occur across seeds.
        let injector = FaultInjector::new(FaultConfig {
            corrupt_line: 0.2,
            truncate_line: 0.1,
            duplicate_line: 0.05,
            ..FaultConfig::disabled(seed)
        });
        let corrupted = injector.corrupt_log(traffic.day, &text);
        let mut collector = LogCollector::new();
        match collector.ingest_quarantined(corrupted.as_slice(), &QuarantinePolicy::default()) {
            Ok(stats) => {
                assert!(stats.ingested > 0, "seed {seed}: something must survive");
                assert!(
                    stats.errors() > 0,
                    "seed {seed}: this much damage must be visible in the stats"
                );
            }
            Err(IngestError::QuarantineExceeded {
                errors, considered, ..
            }) => {
                assert!(errors > 0 && considered >= errors);
                assert_eq!(
                    collector.machine_count(),
                    0,
                    "seed {seed}: rejection must commit nothing"
                );
            }
            Err(other) => panic!("seed {seed}: unexpected ingest error: {other}"),
        }
    }
}
