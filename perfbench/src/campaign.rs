//! `campaign-distinct` and `classify-sweep`: whole campaigns through
//! `CampaignRunner`, shard by shard, then `jsonl_rows`.
//!
//! Each operation runs the same campaign (root seed = `--seed`) with a
//! fresh runner, so every operation must fold identical rows. The traced
//! run adds one single-threaded replay of the campaign's configurations
//! through the layers' public calls (`build_csr`, `draw`, `from_csr`,
//! then `ScheduleCache::compile_in` or `classify_with_sink`), which is
//! what attributes the campaign's time to `graph`, `classify`, `compile`
//! and `cache`; the fused batch engine itself is only visible as
//! `campaign.shard_ns`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use anon_radio::cache::config_fingerprint;
use anon_radio::campaign::{CampaignRunner, CampaignSpec, CellKey, Phase};
use anon_radio::{CacheLookup, CanonicalSchedule, CompiledElection, ScheduleCache};
use radio_classifier::{ClassifierWorkspace, Engine, ListsSink};
use radio_graph::{Configuration, FamilySpec, TagStrategy};
use radio_sim::ModelKind;
use radio_util::rng::{derive, derive_index, rng_from, DEFAULT_ROOT_SEED};

use crate::report::{mean, median, EndToEnd, Report};
use crate::trace::Tracer;
use crate::{check_persisted, measure, timed_setup, Args, SETUP_REPS};

pub struct CampaignWorkload {
    phase: Phase,
    families: &'static str,
    size: usize,
    span: u64,
    tags: &'static str,
    /// All three channel models, or the single default one.
    all_models: bool,
    reps: usize,
    /// Repetitions per cell of the fixed warm-up campaign set-up runs.
    warm_reps: usize,
    shards: usize,
}

pub const DISTINCT: CampaignWorkload = CampaignWorkload {
    phase: Phase::Elect,
    families: "path,star,random-tree,gnp,grid:8x8,hypercube:6",
    size: 64,
    span: 16,
    tags: "uniform,clustered,extremes",
    all_models: true,
    reps: 600,
    warm_reps: 16,
    shards: 27,
};

pub const SWEEP: CampaignWorkload = CampaignWorkload {
    phase: Phase::Classify,
    families: "path,random-tree,gnp,grid:64x64,caterpillar:64x63",
    size: 4096,
    span: 64,
    tags: "uniform,clustered,extremes",
    all_models: false,
    reps: 4,
    warm_reps: 1,
    shards: 15,
};

const MIN_OPS: u64 = 2;

impl CampaignWorkload {
    fn spec(&self, seed: u64, reps: usize) -> CampaignSpec {
        let families = self
            .families
            .split(',')
            .map(|f| f.parse::<FamilySpec>().expect("workload family parses"))
            .collect();
        let mut spec = CampaignSpec::new(families, vec![self.size], vec![self.span], seed);
        spec.phase = self.phase;
        spec.tags = self
            .tags
            .split(',')
            .map(|t| {
                t.parse::<TagStrategy>()
                    .expect("workload tag strategy parses")
            })
            .collect();
        if !self.all_models {
            spec.models = vec![ModelKind::default()];
        }
        spec.reps = reps;
        spec
    }
}

/// What one campaign must reproduce exactly: the row prefix before
/// `wall_ns` (as a digest) and the fold's counters. The cache hit/miss
/// split depends on worker interleaving, so only lookups are compared.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counters {
    runs: u64,
    feasible: u64,
    elected: u64,
    aborted: u64,
    cache_lookups: u64,
    row_prefix_digest: u64,
}

struct Campaigned {
    wall: Duration,
    shard_walls: Vec<f64>,
    encode: Duration,
    row_bytes: usize,
    counters: Counters,
    /// Per cell: (feasible runs, mean classifier iterations).
    cells: Vec<(u64, Option<f64>)>,
}

/// FNV-1a, for a digest that is stable across processes.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn campaign_once(
    spec: &CampaignSpec,
    shards: usize,
    threads: usize,
    tr: &mut Tracer,
    op: u64,
) -> Campaigned {
    let start = Instant::now();
    let root = tr.begin("campaign", op);
    let mut runner = CampaignRunner::new(spec.clone(), shards);
    let mut shard_walls = Vec::with_capacity(shards);
    while !runner.is_done() {
        let t = Instant::now();
        let s = tr.begin("campaign.shard", op);
        runner.run_next_shard(threads);
        tr.end(s);
        shard_walls.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let s = tr.begin("row.jsonl_rows", op);
    let rows = runner.jsonl_rows();
    tr.end(s);
    let encode = t.elapsed();
    tr.end(root);
    let wall = start.elapsed();

    let mut digest = 0xcbf2_9ce4_8422_2325;
    for row in &rows {
        let prefix = row.split(",\"wall_ns\"").next().unwrap_or(row);
        digest = fnv1a(fnv1a(digest, prefix.as_bytes()), b"\n");
    }
    let mut counters = Counters {
        runs: 0,
        feasible: 0,
        elected: 0,
        aborted: 0,
        cache_lookups: runner.cache_stats().map_or(0, |s| s.lookups()),
        row_prefix_digest: digest,
    };
    let mut cells = Vec::new();
    for (_, agg) in runner.aggregates() {
        counters.runs += agg.runs;
        counters.feasible += agg.feasible;
        counters.elected += agg.elected;
        counters.aborted += agg.aborted;
        cells.push((agg.feasible, agg.iterations.mean()));
    }
    Campaigned {
        wall,
        shard_walls,
        encode,
        row_bytes: rows.iter().map(|r| r.len() + 1).sum(),
        counters,
        cells,
    }
}

pub fn run(w: &CampaignWorkload, args: &Args) -> Report {
    let mut report = Report::default();
    let threads = radio_sim::parallel::default_threads();
    let spec = w.spec(args.seed, w.reps);
    if let Err(e) = spec.validate() {
        report.check(false, || format!("invalid campaign spec: {e}"));
        return report;
    }
    eprintln!(
        "perfbench: {} runs in {} cells, {} shards, {threads} worker threads",
        spec.total_runs(),
        spec.cells().len(),
        w.shards
    );
    let origin = Instant::now();

    // Set-up: one small campaign over the same grid with a fixed seed,
    // which starts the worker threads and sizes their workspaces.
    let warm = w.spec(DEFAULT_ROOT_SEED, w.warm_reps);
    let ((), setup_s) = timed_setup(SETUP_REPS, || {
        let mut runner = CampaignRunner::new(warm.clone(), w.shards);
        runner.run_to_completion(threads);
        std::hint::black_box(runner.jsonl_rows());
    });

    let mut tr = Tracer::new(false, origin);
    let mut untraced: Vec<Campaigned> = Vec::new();
    let mut traced: Vec<Campaigned> = Vec::new();
    let peak_bytes = measure(args.seconds, MIN_OPS, |op| {
        let trace_this = args.trace && op % 2 == 1;
        tr.set_enabled(trace_this);
        let done = campaign_once(&spec, w.shards, threads, &mut tr, op);
        report.check(done.counters.aborted == 0, || {
            format!("{} runs hit the round limit", done.counters.aborted)
        });
        eprintln!(
            "perfbench: op {op}{}: {:.3} s for {} runs ({} feasible, {} elected, {} cache lookups)",
            if trace_this { " (traced)" } else { "" },
            done.wall.as_secs_f64(),
            done.counters.runs,
            done.counters.feasible,
            done.counters.elected,
            done.counters.cache_lookups
        );
        if trace_this {
            &mut traced
        } else {
            &mut untraced
        }
        .push(done);
    });

    let all: Vec<&Campaigned> = untraced.iter().chain(&traced).collect();
    let first = all[0];
    for c in &all[1..] {
        report.check(c.counters == first.counters, || {
            format!(
                "campaign counters differ between operations:\n  {:?}\n  {:?}",
                first.counters, c.counters
            )
        });
    }
    check_persisted(&mut report, args, &format!("{:?}", first.counters));

    // Seconds a worker spends per configuration.
    let elect_s = |v: &[Campaigned]| {
        v.iter()
            .map(|c| c.wall.as_secs_f64() * threads as f64 / c.counters.runs.max(1) as f64)
            .collect::<Vec<_>>()
    };
    if args.trace {
        let mut tr_replay = Tracer::new(true, origin);
        let st = replay(&mut report, &spec, &first.cells, &mut tr_replay);
        layer_metrics(&mut report, &tr, &tr_replay, &st, &traced);
        report.set(
            "trace.overhead_s",
            median(&elect_s(&traced)) - median(&elect_s(&untraced)),
        );
        let path = args
            .state_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        for (t, suffix) in [(&tr, ""), (&tr_replay, ".replay")] {
            let path = path.with_extension(format!("jsonl{suffix}"));
            if let Err(e) = t.write_jsonl(&path) {
                eprintln!("perfbench: could not write {}: {e}", path.display());
            }
        }
    } else {
        let per_s = |count: &dyn Fn(&Campaigned) -> usize| {
            untraced
                .iter()
                .map(|c| count(c) as f64 / c.wall.as_secs_f64())
                .collect()
        };
        report.end_to_end(EndToEnd {
            elect_s: elect_s(&untraced),
            runs_per_s: per_s(&|c| c.counters.runs as usize),
            jobs_per_s: per_s(&|c| c.shard_walls.len()),
            job_ms: untraced
                .iter()
                .flat_map(|c| c.shard_walls.iter().map(|s| s * 1e3))
                .collect(),
            setup_s,
            peak_bytes,
        });
    }
    report
}

/// Rebuilds `spec.configuration(cell, rep)` call by call, so each layer
/// gets its own span.
fn configuration(
    spec: &CampaignSpec,
    cell: &CellKey,
    rep: usize,
    tr: &mut Tracer,
    op: u64,
) -> Configuration {
    let base = derive_index(
        derive_index(derive(spec.seed, &cell.family.to_string()), cell.n as u64),
        cell.span,
    );
    let s = tr.begin("graph.build_csr", op);
    let csr = cell
        .family
        .build_csr(cell.n, derive_index(derive(base, "graph"), rep as u64))
        .expect("validated spec");
    tr.end(s);
    let tag_stream = match cell.tags {
        TagStrategy::Uniform => derive(base, "tags"),
        other => derive(base, &format!("tags/{other}")),
    };
    let s = tr.begin("graph.tags", op);
    let tags = cell.tags.draw(
        cell.n,
        cell.span,
        &mut rng_from(derive_index(tag_stream, rep as u64)),
    );
    tr.end(s);
    let s = tr.begin("graph.from_csr", op);
    let config = Configuration::from_csr(csr, tags).expect("families build connected graphs");
    tr.end(s);
    config
}

#[derive(Default)]
struct ReplayStats {
    configs: u64,
    edges: u64,
    n: u64,
    iterations: Vec<f64>,
    classes: Vec<f64>,
    phases: Vec<f64>,
    rounds_bound: Vec<f64>,
    hit_ns: Vec<f64>,
    miss_ns: Vec<f64>,
    classifier_mem: u64,
    cache: Option<anon_radio::CacheStats>,
}

/// One single-threaded pass over the campaign's configurations through
/// the layers' public calls, checked against the campaign's own fold.
fn replay(
    report: &mut Report,
    spec: &CampaignSpec,
    cells_folded: &[(u64, Option<f64>)],
    tr: &mut Tracer,
) -> ReplayStats {
    let cache = ScheduleCache::new(spec.cache.capacity);
    let mut classifier = ClassifierWorkspace::new();
    let mut st = ReplayStats::default();
    let cells = spec.cells();
    for (ci, cell) in cells.iter().enumerate() {
        let mut feasible = 0u64;
        let mut iterations = Vec::new();
        for rep in 0..spec.reps {
            let op = (ci * spec.reps + rep) as u64;
            let config = configuration(spec, cell, rep, tr, op);
            if rep == 0 {
                let same = config_fingerprint(&config)
                    == config_fingerprint(&spec.configuration(cell, rep));
                report.check(same, || {
                    format!("replayed configuration differs from the campaign's ({cell} rep 0)")
                });
            }
            st.configs += 1;
            st.edges += config.csr().edge_count() as u64;
            st.n += config.size() as u64;
            match spec.phase {
                Phase::Elect => {
                    let t = Instant::now();
                    let s = tr.begin("cache.compile_in", op);
                    let (cached, lookup) = cache.compile_in(&mut classifier, &config);
                    tr.end(s);
                    let ns = t.elapsed().as_nanos() as f64;
                    if lookup != CacheLookup::Miss {
                        st.hit_ns.push(ns);
                        continue;
                    }
                    st.miss_ns.push(ns);
                    // A miss classified and compiled; redo both as the
                    // traced composition to split that cost, and prove
                    // the composition compiles what the cache stored.
                    let s = tr.begin("classify", op);
                    let mut sink = ListsSink::default();
                    let summary = classifier.classify_with_sink(&config, Engine::Fast, &mut sink);
                    tr.end(s);
                    let s = tr.begin("compile", op);
                    let lists = sink.into_lists(config.span(), summary.leader_class);
                    let composed = CompiledElection::from_parts(
                        summary,
                        Arc::new(CanonicalSchedule::from_lists(lists)),
                    );
                    tr.end(s);
                    report.check(
                        composed.summary() == cached.summary()
                            && composed.schedule().lists == cached.schedule().lists,
                        || format!("traced composition differs from ScheduleCache::compile_in ({cell} rep {rep})"),
                    );
                    st.iterations.push(summary.iterations as f64);
                    st.classes.push(f64::from(summary.num_classes));
                    st.phases.push(composed.schedule().phases() as f64);
                    st.rounds_bound.push(composed.rounds_bound() as f64);
                }
                Phase::Classify => {
                    let s = tr.begin("classify", op);
                    let summary = classifier.classify_with_sink(&config, Engine::Fast, &mut ());
                    tr.end(s);
                    feasible += u64::from(summary.feasible);
                    iterations.push(summary.iterations as f64);
                    st.iterations.push(summary.iterations as f64);
                    st.classes.push(f64::from(summary.num_classes));
                }
            }
        }
        if spec.phase == Phase::Classify {
            let (folded_feasible, folded_iterations) = cells_folded[ci];
            let same_iterations = folded_iterations
                .is_some_and(|m| (m - mean(&iterations)).abs() <= 1e-9 * m.max(1.0));
            report.check(folded_feasible == feasible && same_iterations, || {
                format!("replayed decisions differ from the campaign's row for {cell}")
            });
        }
    }
    st.classifier_mem = classifier.mem_bytes();
    st.cache = (spec.phase == Phase::Elect).then(|| cache.stats());
    st
}

fn layer_metrics(
    report: &mut Report,
    tr: &Tracer,
    tr_replay: &Tracer,
    st: &ReplayStats,
    traced: &[Campaigned],
) {
    let self_ns = tr_replay.self_ns();
    let counts = tr_replay.counts();
    let per_call = |name: &str| {
        self_ns.get(name).copied().unwrap_or(0) as f64
            / counts.get(name).copied().unwrap_or(1) as f64
    };
    {
        let configs = st.configs.max(1) as f64;
        report.set("graph.gen_ns", per_call("graph.build_csr"));
        report.set("graph.tags_ns", per_call("graph.tags"));
        report.set("graph.config_ns", per_call("graph.from_csr"));
        report.set("graph.edges", st.edges as f64 / configs);
        report.set(
            "graph.csr_bytes",
            (4 * (st.n + st.configs) + 8 * st.edges) as f64 / configs,
        );
        report.set("classify.ns", per_call("classify"));
        report.set("classify.iterations", mean(&st.iterations));
        report.set("classify.classes", mean(&st.classes));
        report.set("classify.mem_bytes", st.classifier_mem as f64);
        report.set("compile.ns", per_call("compile"));
        report.set("compile.phases", mean(&st.phases));
        report.set("compile.rounds_bound", mean(&st.rounds_bound));
        if let Some(stats) = st.cache {
            report.set("cache.lookups", stats.lookups() as f64);
            report.set(
                "cache.hit_ratio",
                stats.hits as f64 / stats.lookups().max(1) as f64,
            );
            report.set("cache.evictions", stats.evictions as f64);
        }
        report.set("cache.hit_ns", mean(&st.hit_ns));
        report.set("cache.miss_ns", mean(&st.miss_ns));
    }
    let Some(last) = traced.last() else { return };
    let shard_ns: Vec<f64> = traced
        .iter()
        .flat_map(|c| c.shard_walls.iter().map(|s| s * 1e9))
        .collect();
    report.set("campaign.shard_ns", median(&shard_ns));
    report.set("campaign.runs", last.counters.runs as f64);
    report.set("campaign.feasible", last.counters.feasible as f64);
    report.set("campaign.elected", last.counters.elected as f64);
    report.set("campaign.aborted", last.counters.aborted as f64);
    report.set(
        "row.encode_ns",
        mean(
            &traced
                .iter()
                .map(|c| c.encode.as_nanos() as f64)
                .collect::<Vec<_>>(),
        ),
    );
    report.set("row.bytes", last.row_bytes as f64);
    let campaign_self = tr.self_ns();
    report.set(
        "trace.unattributed_ns",
        campaign_self.get("campaign").copied().unwrap_or(0) as f64 / traced.len() as f64,
    );
    report.set("trace.spans", (tr.len() + tr_replay.len()) as f64);
}
