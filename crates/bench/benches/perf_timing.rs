//! E11: regenerates the Section IV-G performance table and benchmarks the
//! pipeline phases across network scales (throughput ablation), plus a
//! serial-vs-parallel comparison (the tracked number is the benchmark's
//! `core.parallel_speedup`; see `benchmark/README.md`).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use segugio_bench::bench_scale;
use segugio_core::{Segugio, SegugioConfig};
use segugio_eval::experiments::performance;
use segugio_eval::Scenario;
use segugio_traffic::IspConfig;

/// Median wall-clock seconds over `n` runs of `f`.
fn median_secs<F: FnMut()>(n: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times snapshot build, training, and scoring of one day at the given
/// pipeline parallelism. Returns `(build, train, score)` median seconds.
fn phase_times(scenario: &Scenario, config: &SegugioConfig, runs: usize) -> (f64, f64, f64) {
    let activity = scenario.isp().activity();
    let build = median_secs(runs, || {
        std::hint::black_box(scenario.snapshot_commercial(20, config));
    });
    let snap = scenario.snapshot_commercial(20, config);
    let train = median_secs(runs, || {
        std::hint::black_box(Segugio::train(&snap, activity, config).is_ok());
    });
    let model = Segugio::train(&snap, activity, config).expect("training day seeds both classes");
    let score = median_secs(runs, || {
        std::hint::black_box(model.score_unknown(&snap, activity));
    });
    (build, train, score)
}

/// Serial (`Some(1)`) vs auto (`None`) pipeline comparison, printed as
/// JSON.
fn bench_parallel(scale_config: &SegugioConfig) {
    let machines = 10_000usize;
    let cfg = IspConfig {
        name: format!("parallel-{machines}"),
        machines,
        ..IspConfig::small(77)
    };
    let scenario = Scenario::run(cfg, 20, &[20]);
    let serial_cfg = SegugioConfig {
        parallelism: Some(1),
        ..scale_config.clone()
    };
    let auto_cfg = SegugioConfig {
        parallelism: None,
        ..scale_config.clone()
    };
    let runs = 5;
    let (sb, st, ss) = phase_times(&scenario, &serial_cfg, runs);
    let (pb, pt, ps) = phase_times(&scenario, &auto_cfg, runs);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\n  \"host_threads\": {threads},\n  \"machines\": {machines},\n  \
         \"runs\": {runs},\n  \
         \"serial_s\": {{\"snapshot_build\": {sb:.4}, \"train\": {st:.4}, \"score\": {ss:.4}}},\n  \
         \"parallel_s\": {{\"snapshot_build\": {pb:.4}, \"train\": {pt:.4}, \"score\": {ps:.4}}},\n  \
         \"speedup\": {{\"snapshot_build\": {:.2}, \"train\": {:.2}, \"score\": {:.2}, \
         \"pipeline\": {:.2}}}\n}}",
        sb / pb,
        st / pt,
        ss / ps,
        (sb + st + ss) / (pb + pt + ps),
    );
}

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let report = performance::run(&scale, 4);
    println!("\n{report}\n");

    bench_parallel(&scale.config);

    // Scale sweep: how the learning and classification phases grow with the
    // machine population.
    let mut group = c.benchmark_group("perf/scale_sweep");
    group.sample_size(10);
    for machines in [2_000usize, 5_000, 10_000] {
        let cfg = IspConfig {
            name: format!("sweep-{machines}"),
            machines,
            ..IspConfig::small(77)
        };
        let scenario = Scenario::run(cfg, 20, &[20]);
        let snap = scenario.snapshot_commercial(20, &scale.config);
        let activity = scenario.isp().activity();
        group.bench_with_input(BenchmarkId::new("train", machines), &machines, |b, _| {
            b.iter(|| Segugio::train(&snap, activity, &scale.config))
        });
        let model = Segugio::train(&snap, activity, &scale.config)
            .expect("training day seeds both classes");
        group.bench_with_input(BenchmarkId::new("classify", machines), &machines, |b, _| {
            b.iter(|| model.score_unknown(&snap, activity))
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
