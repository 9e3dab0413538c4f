//! Shape checks for the reproduced tables/figures at `small` scale: the
//! quantities the paper reports must land in the right regimes.

use segugio_core::SegugioConfig;
use segugio_eval::experiments::{dataset, design_ablations, Scale};
use segugio_traffic::IspConfig;

#[test]
fn dataset_statistics_match_paper_shapes() {
    let config = SegugioConfig::default();
    let report = dataset::run(&[IspConfig::small(515)], 20, &[20, 21], &config);
    assert_eq!(report.rows.len(), 2);

    // Fig. 3: ~70% of infected machines query more than one control domain.
    let frac = report.multi_domain_fraction();
    assert!(
        (0.5..=0.95).contains(&frac),
        "multi-domain fraction {frac:.2} outside the paper-shaped band"
    );
    // Nobody queries more than ~20 control domains in a day.
    for row in &report.rows {
        assert_eq!(row.infection_histogram.len(), 20);
        let tail = row.infection_histogram[19];
        let total: usize = row.infection_histogram.iter().sum();
        assert!(
            (tail as f64) < 0.05 * total as f64,
            "20+-domain tail too heavy: {tail}/{total}"
        );
    }

    // Pruning reductions in the right regime (paper: domains -26.6%,
    // machines -13.9%, edges -26.6%; the synthetic world is allowed a wide
    // band, but pruning must neither no-op nor devastate the graph).
    let (d, m, e) = report.mean_reductions();
    assert!((0.08..=0.75).contains(&d), "domain reduction {d:.3}");
    assert!((0.03..=0.40).contains(&m), "machine reduction {m:.3}");
    assert!((0.02..=0.60).contains(&e), "edge reduction {e:.3}");
}

#[test]
fn performance_classification_is_cheaper_than_learning() {
    let scale = Scale::small();
    let report = segugio_eval::experiments::performance::run(&scale, 2);
    let (snapshot_ms, train_ms, classify_ms) = report.means();
    // Section IV-G shape: the learning phase (graph + training) dominates;
    // classifying all unknown domains is the cheap part.
    assert!(
        classify_ms < snapshot_ms + train_ms,
        "classify {classify_ms:.1}ms should be cheaper than learning \
         {:.1}ms",
        snapshot_ms + train_ms
    );
    for day in &report.days {
        assert!(day.unknown_domains > 100);
    }
}

#[test]
fn design_ablations_cover_every_knob() {
    let report = design_ablations::run(&Scale::tiny());
    assert_eq!(report.forest_sizes.len(), 4);
    assert_eq!(report.backends.len(), 2);
    assert_eq!(report.pruning.len(), 2);
    assert_eq!(report.windows.len(), 4);

    let accuracies = report
        .forest_sizes
        .iter()
        .map(|(_, a)| a)
        .chain(report.backends.iter().map(|(_, a)| a))
        .chain(report.pruning.iter().map(|row| &row.accuracy))
        .chain(report.windows.iter().map(|(_, a)| a));
    for a in accuracies {
        assert!((0.0..=1.0).contains(&a.tpr), "TPR {} outside [0, 1]", a.tpr);
    }

    let [pruned, unpruned] = [&report.pruning[0], &report.pruning[1]];
    assert_eq!((pruned.name, unpruned.name), ("pruned", "unpruned"));
    assert!(
        pruned.domains < unpruned.domains,
        "pruning kept {} of {} domains",
        pruned.domains,
        unpruned.domains
    );
    assert!(
        pruned.edges < unpruned.edges,
        "pruning kept {} of {} edges",
        pruned.edges,
        unpruned.edges
    );
}
