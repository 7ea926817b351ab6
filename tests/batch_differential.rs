//! Differential suite for the fused batch engine: batched ≡ sequential
//! bit for bit, across the family zoo × all three channel models ×
//! leap/step (and traced) × batch sizes {1, 3, 16, ragged last batch} —
//! every output compared: leader verdicts, rounds, the stepped/leapt
//! split, histories, wake/done rounds, stats, and traces. Plus the
//! campaign-level pin: batched elect rows match a sequential per-run
//! fold exactly up to the measured tail.

use anon_radio::campaign::{
    cell_row, BatchConfig, CampaignRunner, CampaignSpec, CellAggregate, FamilySpec, Phase,
    RunMetrics, TagStrategy,
};
use anon_radio::CompiledElection;
use radio_classifier::ClassifierWorkspace;
use radio_graph::{Configuration, NodeId};
use radio_sim::drip::WaitThenTransmitFactory;
use radio_sim::{
    BatchRun, BatchWorkspace, DripFactory, Execution, ModelKind, Msg, RunOpts, SimWorkspace,
};

/// The zoo: one member per family shape, deterministic tags (no RNG —
/// the point is engine coverage, not draw coverage, which the campaign
/// test below supplies).
fn zoo() -> Vec<Configuration> {
    let specs: [(&str, usize); 7] = [
        ("path", 6),
        ("star", 7),
        ("cycle", 5),
        ("torus:3x3", 9),
        ("hypercube:3", 8),
        ("barbell:3+1", 7),
        ("binary-tree", 10),
    ];
    specs
        .iter()
        .enumerate()
        .map(|(i, &(spec, n))| {
            let family: FamilySpec = spec.parse().unwrap();
            let graph = family.build(n, 0xD1FF + i as u64).unwrap();
            let tags: Vec<u64> = (0..n as u64).map(|v| (v * 3 + i as u64) % 7).collect();
            Configuration::new(graph, tags).unwrap()
        })
        .collect()
}

fn assert_identical(a: &Execution, b: &Execution, ctx: &str) {
    assert_eq!(a.histories, b.histories, "{ctx}: histories");
    assert_eq!(a.wake_round, b.wake_round, "{ctx}: wake rounds");
    assert_eq!(a.done_round, b.done_round, "{ctx}: done rounds");
    assert_eq!(a.rounds, b.rounds, "{ctx}: rounds");
    assert_eq!(a.rounds_stepped, b.rounds_stepped, "{ctx}: stepped split");
    assert_eq!(a.rounds_leapt, b.rounds_leapt, "{ctx}: leapt split");
    assert_eq!(a.stats, b.stats, "{ctx}: stats");
    assert_eq!(a.trace, b.trace, "{ctx}: traces");
}

/// The full matrix with a simple transmitting DRIP: every batched
/// execution must be bit-identical to the sequential workspace's,
/// whatever the batch composition.
#[test]
fn batched_executions_match_sequential_across_the_matrix() {
    let zoo = zoo();
    let factory = WaitThenTransmitFactory {
        wait: 1,
        msg: Msg(5),
        lifetime: 12,
    };
    let mut seq = SimWorkspace::new();
    let mut batch = BatchWorkspace::new();
    for model in ModelKind::ALL {
        for opts in [
            RunOpts::default(),
            RunOpts::default().no_leap(),
            RunOpts::default().traced(),
            RunOpts::default().no_leap().traced(),
        ] {
            let want: Vec<Execution> = zoo
                .iter()
                .map(|config| seq.run_kind(model, config, &factory, opts).unwrap())
                .collect();
            // 1 = degenerate batches, 3 and 16 split the 7-member zoo
            // raggedly (16 > zoo, one undersized batch; 3 leaves a
            // 1-member last batch), 7 = one full batch.
            for batch_size in [1usize, 3, 7, 16] {
                let mut got: Vec<Execution> = Vec::new();
                for chunk in zoo.chunks(batch_size) {
                    let runs: Vec<BatchRun<'_>> = chunk
                        .iter()
                        .map(|config| BatchRun {
                            config,
                            factory: &factory as &dyn DripFactory,
                        })
                        .collect();
                    got.extend(
                        batch
                            .run_kind(model, &runs, opts)
                            .into_iter()
                            .map(|r| r.unwrap()),
                    );
                }
                for (i, (a, b)) in want.iter().zip(&got).enumerate() {
                    assert_identical(
                        a,
                        b,
                        &format!("{model:?} leap={} member {i} bs={batch_size}", opts.leap),
                    );
                }
            }
        }
    }
}

/// The same matrix through the *real* election pipeline: compiled
/// canonical DRIPs, leader verdicts included. Feasible zoo members run
/// under every model and batch size; the elected leader set must match
/// the sequential path's exactly.
#[test]
fn batched_elections_agree_on_leaders_and_shape() {
    let zoo = zoo();
    let mut cls = ClassifierWorkspace::new();
    let compiled: Vec<CompiledElection> = zoo
        .iter()
        .map(|c| CompiledElection::compile_in(&mut cls, c))
        .collect();
    let members: Vec<(usize, &Configuration, &CompiledElection)> = zoo
        .iter()
        .zip(&compiled)
        .enumerate()
        .filter(|(_, (_, c))| c.feasible())
        .map(|(i, (config, c))| (i, config, c))
        .collect();
    assert!(
        members.len() >= 2,
        "zoo must keep multiple feasible members"
    );
    let mut seq = SimWorkspace::new();
    let mut batch = BatchWorkspace::new();
    for model in ModelKind::ALL {
        for opts in [RunOpts::default(), RunOpts::default().no_leap()] {
            let factories: Vec<_> = members.iter().map(|(_, _, c)| c.factory()).collect();
            let want: Vec<Execution> = members
                .iter()
                .zip(&factories)
                .map(|((_, config, _), f)| seq.run_kind(model, config, f, opts).unwrap())
                .collect();
            for batch_size in [1usize, 3, 16] {
                let mut got: Vec<Execution> = Vec::new();
                for (chunk, fchunk) in members.chunks(batch_size).zip(factories.chunks(batch_size))
                {
                    let runs: Vec<BatchRun<'_>> = chunk
                        .iter()
                        .zip(fchunk)
                        .map(|((_, config, _), f)| BatchRun {
                            config,
                            factory: f as &dyn DripFactory,
                        })
                        .collect();
                    got.extend(
                        batch
                            .run_kind(model, &runs, opts)
                            .into_iter()
                            .map(|r| r.unwrap()),
                    );
                }
                for (k, ((i, config, c), (a, b))) in
                    members.iter().zip(want.iter().zip(&got)).enumerate()
                {
                    let ctx = format!("member {i} {model:?} bs={batch_size} (#{k})");
                    assert_identical(a, b, &ctx);
                    let decision = c.decision();
                    let leaders_seq: Vec<NodeId> = (0..config.size() as NodeId)
                        .filter(|&v| decision.is_leader(a.history(v)))
                        .collect();
                    let leaders_batch: Vec<NodeId> = (0..config.size() as NodeId)
                        .filter(|&v| decision.is_leader(b.history(v)))
                        .collect();
                    assert_eq!(leaders_seq, leaders_batch, "{ctx}: leader sets");
                }
            }
        }
    }
}

/// The independent sequential reference for elect rows: every run drawn
/// positionally, compiled through [`CompiledElection::compile_in`],
/// simulated on its own through one [`SimWorkspace`] with the histories
/// materialized, judged by the decision function, and folded into a
/// [`CellAggregate`] — no batching, dedupe, cache or campaign runner
/// involved. Feasible runs that elect under the paper's model also agree
/// with [`CompiledElection::run_in`].
fn sequential_rows(spec: &CampaignSpec) -> Vec<String> {
    let mut cls = ClassifierWorkspace::new();
    let mut sim = SimWorkspace::new();
    spec.cells()
        .iter()
        .map(|cell| {
            let mut agg = CellAggregate::default();
            for rep in 0..spec.reps {
                let config = spec.configuration(cell, rep);
                let compiled = CompiledElection::compile_in(&mut cls, &config);
                let mut m = RunMetrics {
                    feasible: compiled.feasible(),
                    ..RunMetrics::default()
                };
                if m.feasible {
                    match sim.run_kind(cell.model, &config, &compiled.factory(), spec.opts) {
                        Ok(ex) => {
                            let decision = compiled.decision();
                            let leaders: Vec<NodeId> = (0..config.size() as NodeId)
                                .filter(|&v| decision.is_leader(ex.history(v)))
                                .collect();
                            m.elected = leaders == [compiled.predicted_leader()];
                            m.simulated = true;
                            m.rounds = ex.rounds;
                            m.transmissions = ex.stats.transmissions;
                            m.rounds_stepped = ex.rounds_stepped;
                            m.rounds_leapt = ex.rounds_leapt;
                        }
                        Err(_) => m.aborted = true,
                    }
                    if m.elected && cell.model == ModelKind::NoCollisionDetection {
                        let report = compiled
                            .run_in(&mut sim, &config, cell.model, spec.opts)
                            .unwrap();
                        assert_eq!(report.leader, compiled.predicted_leader(), "{cell}");
                        assert_eq!(report.transmissions, m.transmissions, "{cell}");
                        assert_eq!(report.rounds_stepped, m.rounds_stepped, "{cell}");
                        assert_eq!(report.rounds_leapt, m.rounds_leapt, "{cell}");
                    }
                }
                agg.fold(&m);
            }
            cell_row(spec.phase, cell, &agg).to_jsonl()
        })
        .collect()
}

/// Campaign-level pin: elect-phase JSONL rows at every batch size (the
/// default, ragged sizes, one run per batch) equal the sequential fold
/// after the measured tail, across shard/thread geometries.
#[test]
fn campaign_rows_unchanged_batch_on_vs_off() {
    let spec = |batch: BatchConfig| CampaignSpec {
        phase: Phase::Elect,
        families: vec![
            FamilySpec::Path,
            FamilySpec::Star,
            "torus:3x3".parse().unwrap(),
            "barbell:3+1".parse().unwrap(),
        ],
        tags: vec![TagStrategy::Uniform, TagStrategy::Arith { stride: 2 }],
        sizes: vec![6],
        spans: vec![3],
        models: ModelKind::ALL.to_vec(),
        reps: 5,
        seed: 0xBA7C4,
        opts: RunOpts::default(),
        cache: anon_radio::cache::CacheConfig::default(),
        batch,
    };
    let strip = |rows: Vec<String>| -> Vec<String> {
        rows.into_iter()
            .map(|row| row.split(",\"wall_ns\"").next().unwrap().to_string())
            .collect()
    };
    let run = |batch: BatchConfig, shards: usize, threads: usize| -> Vec<String> {
        let mut runner = CampaignRunner::new(spec(batch), shards);
        runner.run_to_completion(threads);
        strip(runner.jsonl_rows())
    };
    let sequential = strip(sequential_rows(&spec(BatchConfig::default())));
    assert!(
        sequential.iter().any(|row| !row.contains("\"elected\":0,")),
        "the grid must elect somewhere"
    );
    assert_eq!(
        run(BatchConfig::default(), 4, 2),
        sequential,
        "default size"
    );
    // ragged: 3 does not divide reps = 5, so every cell ends with a
    // 2-member last batch; 1 is the degenerate one-run-per-batch case
    assert_eq!(run(BatchConfig::with_size(3), 4, 2), sequential, "size 3");
    assert_eq!(run(BatchConfig::with_size(1), 4, 2), sequential, "size 1");
    // geometry invariance holds on the batched path too
    assert_eq!(run(BatchConfig::default(), 1, 1), sequential, "1 shard");
    assert_eq!(run(BatchConfig::with_size(3), 7, 3), sequential, "7 shards");
}
