//! Design-choice ablations called out in DESIGN.md: forest size, pruning
//! on/off, and the feature-window sweeps — the knobs a deployment would
//! actually tune.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use segugio_bench::kernel_scale;
use segugio_core::{ClassifierKind, FeatureConfig, SegugioConfig};
use segugio_eval::protocol::{select_test_split, train_and_eval};
use segugio_eval::report::pct;
use segugio_eval::Scenario;
use segugio_ml::ForestConfig;

fn bench(c: &mut Criterion) {
    let scale = kernel_scale();
    let w = scale.warmup;
    let scenario = Scenario::run(scale.isp1.clone(), w, &[w, w + 13]);
    let bl = scenario.isp().commercial_blacklist().clone();
    let split = select_test_split(&scenario, w + 13, &bl, 0.5, 0.5, 11);

    // --- Forest-size accuracy/latency ablation ---
    println!("\nABLATION: forest size vs TPR@1%FP");
    for trees in [10usize, 40, 100, 200] {
        let config = SegugioConfig {
            classifier: ClassifierKind::Forest(ForestConfig {
                n_trees: trees,
                ..ForestConfig::default()
            }),
            ..SegugioConfig::default()
        };
        let out = train_and_eval(&scenario, w, &scenario, w + 13, &split, &config, &bl, &bl);
        println!(
            "  {trees:>4} trees: TPR@1%FP {}  pAUC(1%) {:.4}",
            pct(out.tpr_at_fpr(0.01)),
            out.roc.partial_auc(0.01)
        );
    }

    // --- Classifier backend comparison ---
    println!("\nABLATION: classifier backend vs TPR@1%FP");
    let backends: Vec<(&str, ClassifierKind)> = vec![
        (
            "random forest",
            ClassifierKind::Forest(ForestConfig::default()),
        ),
        (
            "logistic regression",
            ClassifierKind::Logistic(Default::default()),
        ),
    ];
    for (name, classifier) in backends {
        let config = SegugioConfig {
            classifier,
            ..SegugioConfig::default()
        };
        let out = train_and_eval(&scenario, w, &scenario, w + 13, &split, &config, &bl, &bl);
        println!(
            "  {name:>20}: TPR@1%FP {}  pAUC(1%) {:.4}",
            pct(out.tpr_at_fpr(0.01)),
            out.roc.partial_auc(0.01)
        );
    }

    // --- Pruning on/off ablation ---
    println!("\nABLATION: pruning on/off (accuracy + graph size)");
    for (name, popular, min_deg) in [("pruned", 1.0 / 3.0, 5usize), ("unpruned", 2.0, 0)] {
        let mut config = scale.config.clone();
        config.prune.popular_fraction = popular;
        config.prune.min_machine_degree = min_deg;
        let snap = scenario.snapshot(w + 13, &config, &bl, None);
        let out = train_and_eval(&scenario, w, &scenario, w + 13, &split, &config, &bl, &bl);
        println!(
            "  {name:>9}: domains {:>6}  edges {:>8}  TPR@1%FP {}",
            snap.graph.domain_count(),
            snap.graph.edge_count(),
            pct(out.tpr_at_fpr(0.01))
        );
    }

    // --- Activity-window sweep ---
    println!("\nABLATION: activity window n (days) vs TPR@1%FP");
    for n in [3u32, 7, 14, 28] {
        let config = SegugioConfig {
            features: FeatureConfig {
                activity_days: n,
                ..FeatureConfig::default()
            },
            ..scale.config.clone()
        };
        let out = train_and_eval(&scenario, w, &scenario, w + 13, &split, &config, &bl, &bl);
        println!("  n = {n:>2}: TPR@1%FP {}", pct(out.tpr_at_fpr(0.01)));
    }
    println!();

    // Criterion kernel: forest size vs training latency.
    let snap = scenario.snapshot(w, &scale.config, &bl, None);
    let activity = scenario.isp().activity();
    let mut group = c.benchmark_group("ablation/forest_size_train");
    group.sample_size(10);
    for trees in [10usize, 40, 100] {
        let config = SegugioConfig {
            classifier: ClassifierKind::Forest(ForestConfig {
                n_trees: trees,
                ..ForestConfig::default()
            }),
            ..SegugioConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(trees), &trees, |b, _| {
            b.iter(|| segugio_core::Segugio::train(&snap, activity, &config))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
