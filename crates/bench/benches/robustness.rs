//! Section VI robustness studies: DHCP churn, scanner noise (with the
//! anti-probing heuristic), and infection enumeration; benchmarks the
//! scanner-filter kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use segugio_bench::{bench_scale, kernel_scale};
use segugio_eval::experiments::robustness;
use segugio_eval::Scenario;

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let report = robustness::run(&scale);
    println!("\n{report}\n");

    let small = kernel_scale();
    let w = small.warmup;
    let scenario = Scenario::run(small.isp1.clone(), w, &[w]);
    let snap = scenario.snapshot_commercial(w, &small.config);
    // The filter consumes its graph and the vendored criterion has only
    // `iter`, so each iteration times a clone of the graph too.
    c.bench_function("robustness/probe_filter", |b| {
        b.iter(|| snap.graph.clone().without_probing_machines(25))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
