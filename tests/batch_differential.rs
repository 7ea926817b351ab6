//! Campaign-level pin for batched elect campaigns: rows at every batch
//! size (compile dedupe and execution sharing inside a batch) match a
//! sequential per-run fold exactly up to the measured tail.

use anon_radio::campaign::{
    cell_row, BatchConfig, CampaignRunner, CampaignSpec, CellAggregate, FamilySpec, Phase,
    RunMetrics, TagStrategy,
};
use anon_radio::CompiledElection;
use radio_classifier::ClassifierWorkspace;
use radio_graph::NodeId;
use radio_sim::{ModelKind, RunOpts, SimWorkspace};

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
