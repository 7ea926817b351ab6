//! Criterion: batched elect campaigns on the 10k-rep small-graph grid —
//! batched (the default) vs one run per batch (`--batch-size 1`).
//!
//! **Gate (≥1.5×, alongside the cache.rs/classify.rs gates):** the
//! `batch_campaign/batched` benchmark must run at least 1.5× faster than
//! `batch_campaign/one_per_worker` on the grid below: path:8 + star:8 ×
//! arith-stride-1 tags × span 4 × Beeping × 5000 reps = 10 000 runs.
//! Small graphs make the per-run fixed costs (per-run schedule-cache
//! lookups, repeated simulations of the same draw) the dominant term —
//! exactly what the batch path amortizes: one cache lookup per distinct
//! fingerprint per batch, and within-batch execution sharing for
//! duplicate draws (arith tags over span 4 redraw a handful of distinct
//! configurations per cell, so most members of a 16-run batch copy a
//! representative's bit-identical shape instead of re-simulating it).
//! Every simulation runs through the worker's one `SimWorkspace` either
//! way. Measured (release, 2 worker threads, 2-vCPU Linux VM):
//! one_per_worker ≈ 35–37 ms/iter (≈3.6 µs/run), batched ≈ 7.1–8.0
//! ms/iter (≈0.75 µs/run) — ≈4.6–4.9×.
//! Regressions below 1.5× mean a batch-path fixed cost grew
//! (per-member allocation, lost dedupe or sharing).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use radio_bench::campaign::{
    BatchConfig, CacheConfig, CampaignRunner, CampaignSpec, FamilySpec, Phase, TagStrategy,
};
use radio_sim::{parallel, ModelKind, RunOpts};

/// The gate grid: 2 families × 1 strategy × 1 size × 1 span × 1 model ×
/// 5000 reps = 10 000 runs, every graph n = 8 (so the
/// one-cache-lookup-per-fingerprint dedupe and the execution sharing
/// engage on every batch).
fn small_graph_spec(batch: BatchConfig) -> CampaignSpec {
    CampaignSpec {
        phase: Phase::Elect,
        families: vec![FamilySpec::Path, FamilySpec::Star],
        tags: vec![TagStrategy::Arith { stride: 1 }],
        sizes: vec![8],
        spans: vec![4],
        models: vec![ModelKind::Beeping],
        reps: 5_000,
        seed: 0xBA7C4E,
        opts: RunOpts::default(),
        cache: CacheConfig::default(),
        batch,
    }
}

fn bench_batch_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_campaign");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(3000));
    let runs = small_graph_spec(BatchConfig::default()).total_runs() as u64;
    group.throughput(Throughput::Elements(runs));
    let threads = parallel::default_threads();

    // `--batch-size 1`: one run per batch — every run pays its own cache
    // lookup and engine dispatch, with no within-batch dedupe or sharing.
    group.bench_function("one_per_worker", |b| {
        b.iter(|| {
            let mut runner = CampaignRunner::new(small_graph_spec(BatchConfig::with_size(1)), 1);
            runner.run_to_completion(threads);
            runner.aggregates().map(|(_, a)| a.runs).sum::<u64>()
        })
    });

    // The default: batches of `BatchConfig::DEFAULT_SIZE`.
    group.bench_function("batched", |b| {
        b.iter(|| {
            let mut runner = CampaignRunner::new(small_graph_spec(BatchConfig::default()), 1);
            runner.run_to_completion(threads);
            runner.aggregates().map(|(_, a)| a.runs).sum::<u64>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_batch_campaign);
criterion_main!(benches);
