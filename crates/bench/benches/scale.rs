//! Criterion: the million-node scale path, plus its hard gates.
//!
//! Before any sampling runs, this bench *asserts* the scale-path
//! contract at n = 10⁵:
//!
//! 1. CSR-direct generation ([`FamilySpec::build_csr`]) is ≥ 1.5× faster
//!    than the legacy `Graph` → [`Csr::from_graph`] route, with
//!    byte-identical CSR output (offsets + targets);
//! 2. campaign rows are pinned bit for bit between the two construction
//!    routes: every drawn configuration compares equal and the elect
//!    workload produces identical deterministic row fields.
//!
//! A regression in either trips the assertion and fails `cargo bench
//! --bench scale` outright — the timings below are the diagnostic, not
//! the gate.

use std::time::Instant;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use radio_graph::{Csr, FamilySpec};

/// Gate size: large enough that the per-node `to_vec` + sort of the
/// legacy route dominates, small enough to keep the gate under a second.
const GATE_N: usize = 100_000;
const GATE_SPEEDUP: f64 = 1.5;
const GATE_SEED: u64 = 9;

/// One deterministic and one seed-streamed (two-pass count-then-fill)
/// family: the routes differ most where the legacy path materializes
/// adjacency lists it immediately throws away.
const GATE_FAMILIES: [FamilySpec; 2] = [FamilySpec::Path, FamilySpec::RandomTree];

fn best_ns<T>(passes: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let started = Instant::now();
        std::hint::black_box(f());
        best = best.min(started.elapsed().as_nanos() as f64);
    }
    best
}

fn gate_generation_speedup() {
    for family in GATE_FAMILIES {
        let direct = family.build_csr(GATE_N, GATE_SEED).unwrap();
        let legacy = Csr::from_graph(&family.build(GATE_N, GATE_SEED).unwrap());
        assert_eq!(
            direct, legacy,
            "{family}: CSR-direct and Graph routes must agree byte for byte"
        );
        let t_direct = best_ns(5, || family.build_csr(GATE_N, GATE_SEED).unwrap());
        let t_legacy = best_ns(5, || {
            Csr::from_graph(&family.build(GATE_N, GATE_SEED).unwrap())
        });
        let speedup = t_legacy / t_direct;
        eprintln!(
            "scale gate: {family} n={GATE_N}: csr-direct {:.2} ms, graph route {:.2} ms — {speedup:.2}×",
            t_direct / 1e6,
            t_legacy / 1e6,
        );
        assert!(
            speedup >= GATE_SPEEDUP,
            "{family}: CSR-direct generation regressed to {speedup:.2}× the legacy \
             route at n={GATE_N} (gate: ≥ {GATE_SPEEDUP}×)"
        );
    }
}

fn gate_rows_bit_for_bit() {
    use radio_bench::campaign::{
        election_metrics_batched, BatchConfig, CacheConfig, CampaignSpec, CampaignWorkspace, Phase,
        TagStrategy,
    };
    use radio_sim::{ModelKind, RunOpts};

    let spec = CampaignSpec {
        phase: Phase::Elect,
        families: vec![
            FamilySpec::Path,
            FamilySpec::Star,
            FamilySpec::RandomTree,
            FamilySpec::Gnp { ppm: None },
        ],
        tags: vec![TagStrategy::Arith { stride: 1 }, TagStrategy::Uniform],
        sizes: vec![16, 33],
        spans: vec![5],
        models: vec![ModelKind::NoCollisionDetection],
        reps: 3,
        seed: 42,
        opts: RunOpts::default(),
        cache: CacheConfig::default(),
        batch: BatchConfig::default(),
    };
    spec.validate().expect("gate spec is realizable");
    let mut ws_direct = CampaignWorkspace::new();
    let mut ws_legacy = CampaignWorkspace::new();
    for cell in spec.cells() {
        for rep in 0..spec.reps {
            let direct = spec.configuration(&cell, rep);
            let legacy = spec.configuration_via_graph(&cell, rep);
            assert_eq!(
                direct, legacy,
                "{cell} rep {rep}: construction routes drew different configurations"
            );
            let a = election_metrics_batched(&mut ws_direct, &[direct], cell.model, spec.opts)[0];
            let b = election_metrics_batched(&mut ws_legacy, &[legacy], cell.model, spec.opts)[0];
            // The deterministic row prefix — everything except the
            // measured tail (wall_ns, mem_hw).
            assert_eq!(
                (
                    a.feasible,
                    a.elected,
                    a.simulated,
                    a.aborted,
                    a.rounds,
                    a.transmissions,
                    a.rounds_stepped,
                    a.rounds_leapt,
                    a.cache_hit,
                    a.cache_miss,
                ),
                (
                    b.feasible,
                    b.elected,
                    b.simulated,
                    b.aborted,
                    b.rounds,
                    b.transmissions,
                    b.rounds_stepped,
                    b.rounds_leapt,
                    b.cache_hit,
                    b.cache_miss,
                ),
                "{cell} rep {rep}: row fields diverge between construction routes"
            );
        }
    }
    eprintln!(
        "scale gate: {} runs bit-identical between CSR-direct and Graph routes",
        spec.total_runs()
    );
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale/generate");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1500));
    for family in GATE_FAMILIES {
        for n in [10_000usize, 100_000] {
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("{family}/csr_direct"), n),
                &n,
                |b, &n| b.iter(|| family.build_csr(n, GATE_SEED).unwrap()),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{family}/graph_route"), n),
                &n,
                |b, &n| b.iter(|| Csr::from_graph(&family.build(n, GATE_SEED).unwrap())),
            );
        }
    }
    group.finish();
}

fn bench_streaming_elect(c: &mut Criterion) {
    use radio_graph::{tags::TagStrategy, Configuration};
    use radio_sim::{ModelKind, RunOpts, SimWorkspace};

    // Full elect pipeline (CSR-direct build → classify+compile →
    // streaming length-only simulation) on a 10⁵-node star: the per-node
    // cost the million-node path scales from.
    let n = 100_000usize;
    let csr = FamilySpec::Star.build_csr(n, GATE_SEED).unwrap();
    let tags = TagStrategy::Extremes.draw(n, 3, &mut radio_util::rng::rng_from(GATE_SEED));
    let config = Configuration::from_csr(csr, tags).unwrap();
    let mut group = c.benchmark_group("scale/elect");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(2000));
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("star/len_only/100000", |b| {
        let mut sim = SimWorkspace::new();
        b.iter(|| {
            let compiled = anon_radio::solve(&config).unwrap();
            compiled
                .run_in(
                    &mut sim,
                    &config,
                    ModelKind::NoCollisionDetection,
                    RunOpts::default(),
                )
                .unwrap()
                .leader
        })
    });
    group.finish();
}

criterion_group!(benches, bench_generation, bench_streaming_elect);

fn main() {
    gate_generation_speedup();
    gate_rows_bit_for_bit();
    benches();
}
