//! Criterion: the fused batch engine on the 10k-rep small-graph elect
//! campaign — batched (the default) vs one run per batch
//! (`--batch-size 1`) —
//! plus the engine-only fused-vs-sequential comparison the campaign
//! numbers decompose into.
//!
//! **Gate (≥1.5×, alongside the cache.rs/classify.rs gates):** the
//! `batch_campaign/batched` benchmark must run at least 1.5× faster than
//! `batch_campaign/one_per_worker` on the grid below: path:8 + star:8 ×
//! arith-stride-1 tags × span 4 × Beeping × 5000 reps = 10 000 runs.
//! Small graphs make the per-run fixed costs (workspace dispatch,
//! per-run schedule-cache lookups, metric materialization) the dominant
//! term — exactly what the batch path amortizes: one cache lookup per
//! distinct fingerprint per batch, the `u64`-bitset observation fast
//! path for Beeping, materialization-free `MemberView` metrics, and
//! within-batch execution sharing for duplicate draws (arith tags over
//! span 4 redraw a handful of distinct configurations per cell, so most
//! members of a 16-run batch copy a representative's bit-identical
//! shape instead of re-simulating it). Measured (release, 2 worker
//! threads, 2-vCPU Linux VM): one_per_worker ≈ 42–49 ms/iter
//! (≈4.4 µs/run), batched ≈ 8.6–10.3 ms/iter (≈0.95 µs/run) — ≈4.6×.
//! Regressions below 1.5×
//! mean a batch-path fixed cost grew (per-member allocation, lost
//! dedupe) or the fast path stopped engaging.
//!
//! `batch_engine_only` isolates the engine itself — `run_batch_fused`
//! vs `run_batch` on identical configuration slices, no campaign layer,
//! no dedupe — so a campaign-level regression can be attributed to the
//! engine or to the metrics layer by comparing the two groups. This
//! group is *ungated* and close to parity by design (locally ≈2.9 vs
//! ≈3.2 ms/iter, fused ~9% slower on fully distinct configs): with
//! every member distinct and full Executions materialized, the fused
//! loop's extra bookkeeping is all cost and no amortization. The
//! campaign-level win comes from what the batch boundary *enables* —
//! lookup dedupe, execution sharing, materialization-free metrics —
//! which is exactly why the gate lives on the campaign group.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use radio_bench::campaign::{
    BatchConfig, CacheConfig, CampaignRunner, CampaignSpec, FamilySpec, Phase, TagStrategy,
};
use radio_graph::Configuration;
use radio_sim::drip::WaitThenTransmitFactory;
use radio_sim::{parallel, ModelKind, Msg, RunOpts};

/// The gate grid: 2 families × 1 strategy × 1 size × 1 span × 1 model ×
/// 5000 reps = 10 000 runs, every graph n = 8 (so the Beeping bitset
/// fast path and the one-cache-lookup-per-fingerprint dedupe both
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

    // The default: fused batches of `BatchConfig::DEFAULT_SIZE`.
    group.bench_function("batched", |b| {
        b.iter(|| {
            let mut runner = CampaignRunner::new(small_graph_spec(BatchConfig::default()), 1);
            runner.run_to_completion(threads);
            runner.aggregates().map(|(_, a)| a.runs).sum::<u64>()
        })
    });
    group.finish();
}

fn bench_batch_engine_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_engine_only");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(3000));

    // 1024 distinct 8-node stars (rotated tag vectors — no duplicate
    // fingerprints, so nothing for sharing to collapse: this measures
    // the engine's own per-run overhead, not the dedupe).
    let configs: Vec<Configuration> = (0..1024u64)
        .map(|i| {
            let graph = FamilySpec::Star.build(8, 0).unwrap();
            let tags: Vec<u64> = (0..8).map(|v| (v + i) % 8).collect();
            Configuration::new(graph, tags).unwrap()
        })
        .collect();
    let factory = WaitThenTransmitFactory {
        wait: 1,
        msg: Msg(3),
        lifetime: 12,
    };
    group.throughput(Throughput::Elements(configs.len() as u64));

    group.bench_function("one_per_worker", |b| {
        b.iter(|| {
            parallel::run_batch(&configs, &factory, ModelKind::Beeping, RunOpts::default()).len()
        })
    });
    group.bench_function("fused", |b| {
        b.iter(|| {
            parallel::run_batch_fused(
                &configs,
                &factory,
                ModelKind::Beeping,
                RunOpts::default(),
                BatchConfig::DEFAULT_SIZE,
            )
            .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_batch_campaign, bench_batch_engine_only);
criterion_main!(benches);
