//! `path-elect` and `tree-elect`: one large configuration, elected again
//! and again, from `build_csr` to a validated report.
//!
//! The draw is the one `anon-radio elect --family <f> --size <n> --span 3
//! --seed <s>` makes, so any run can be reproduced with the CLI. The
//! untraced run compiles through `CompiledElection::compile_in`; the
//! traced run alternates that with the traced composition
//! (`classify_with_sink` → `into_lists` → `from_lists` → `from_parts`),
//! and every operation's counters must be identical.

use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anon_radio::{CanonicalSchedule, CompiledElection};
use radio_classifier::{ClassifierWorkspace, Engine, ListsSink};
use radio_graph::{Configuration, FamilySpec, TagStrategy};
use radio_sim::{ModelKind, RunOpts, SimWorkspace};
use radio_util::rng::{derive, derive_index, rng_from, DEFAULT_ROOT_SEED};

use crate::report::{mean, median, EndToEnd, Report};
use crate::trace::Tracer;
use crate::{check_persisted, measure, timed_setup, Args, SETUP_REPS};

pub struct ElectWorkload {
    family: &'static str,
    n: usize,
    span: u64,
    /// The workload's shape: draws compiling to another phase count are a
    /// different workload (their round counts differ by an order of
    /// magnitude) and are reported, not timed.
    phases: usize,
    /// Size of the fixed warm-up election that set-up runs.
    warm_n: usize,
    /// Size of the small draw cross-checked against the CLI.
    cli_n: usize,
}

impl ElectWorkload {
    fn family(&self) -> FamilySpec {
        self.family.parse().expect("workload family parses")
    }
}

pub const PATH: ElectWorkload = ElectWorkload {
    family: "path",
    n: 100_000,
    span: 3,
    phases: 3,
    warm_n: 8192,
    cli_n: 2000,
};

pub const TREE: ElectWorkload = ElectWorkload {
    family: "random-tree",
    n: 1_000_000,
    span: 3,
    phases: 2,
    warm_n: 65_536,
    cli_n: 2000,
};

/// Candidate draws tried by the shape guard before giving up.
const MAX_DRAWS: u64 = 32;

/// Operations per run at least, so counters can be compared within it.
const MIN_OPS: u64 = 2;

/// Everything an election must reproduce exactly, run after run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counters {
    feasible: bool,
    iterations: usize,
    classes: u32,
    phases: usize,
    rounds_bound: u64,
    leader: Option<u32>,
    completion_round: u64,
    transmissions: u64,
    rounds_stepped: u64,
    rounds_leapt: u64,
}

struct Elected {
    wall: Duration,
    counters: Counters,
    n: usize,
    edges: usize,
}

struct Workspaces {
    classifier: ClassifierWorkspace,
    sim: SimWorkspace,
}

impl Workspaces {
    fn new() -> Workspaces {
        Workspaces {
            classifier: ClassifierWorkspace::new(),
            sim: SimWorkspace::new(),
        }
    }
}

fn draw(family: FamilySpec, n: usize, span: u64, seed: u64) -> Result<Configuration, String> {
    let csr = family
        .build_csr(n, derive(seed, "graph"))
        .map_err(|e| e.to_string())?;
    let tags = TagStrategy::Uniform.draw(n, span, &mut rng_from(derive(seed, "tags")));
    Configuration::from_csr(csr, tags).map_err(|e| e.to_string())
}

/// One election from `build_csr` to a validated report. With the tracer
/// enabled the classify + compile step runs as the traced composition,
/// one span per public call; otherwise as `CompiledElection::compile_in`.
fn elect_once(
    family: FamilySpec,
    n: usize,
    span: u64,
    seed: u64,
    ws: &mut Workspaces,
    tr: &mut Tracer,
    op: u64,
) -> Result<Elected, String> {
    let start = Instant::now();
    let root = tr.begin("elect", op);
    let s = tr.begin("graph.build_csr", op);
    let csr = family
        .build_csr(n, derive(seed, "graph"))
        .map_err(|e| e.to_string())?;
    tr.end(s);
    let edges = csr.edge_count();
    let s = tr.begin("graph.tags", op);
    let tags = TagStrategy::Uniform.draw(n, span, &mut rng_from(derive(seed, "tags")));
    tr.end(s);
    let s = tr.begin("graph.from_csr", op);
    let config = Configuration::from_csr(csr, tags).map_err(|e| e.to_string())?;
    tr.end(s);
    let compiled = if tr.enabled() {
        let s = tr.begin("classify", op);
        let mut sink = ListsSink::default();
        let summary = ws
            .classifier
            .classify_with_sink(&config, Engine::Fast, &mut sink);
        tr.end(s);
        let s = tr.begin("compile", op);
        let lists = sink.into_lists(config.span(), summary.leader_class);
        let schedule = CanonicalSchedule::from_lists(lists);
        let compiled = CompiledElection::from_parts(summary, Arc::new(schedule));
        tr.end(s);
        compiled
    } else {
        CompiledElection::compile_in(&mut ws.classifier, &config)
    };
    let summary = compiled.summary();
    let mut counters = Counters {
        feasible: summary.feasible,
        iterations: summary.iterations,
        classes: summary.num_classes,
        phases: compiled.schedule().phases(),
        rounds_bound: compiled.rounds_bound(),
        leader: None,
        completion_round: 0,
        transmissions: 0,
        rounds_stepped: 0,
        rounds_leapt: 0,
    };
    if summary.feasible {
        let s = tr.begin("sim", op);
        let report = compiled
            .run_in(
                &mut ws.sim,
                &config,
                ModelKind::default(),
                RunOpts::default(),
            )
            .map_err(|e| format!("election failed: {e}"))?;
        tr.end(s);
        counters.leader = Some(report.leader);
        counters.completion_round = report.completion_round;
        counters.transmissions = report.transmissions;
        counters.rounds_stepped = report.rounds_stepped;
        counters.rounds_leapt = report.rounds_leapt;
    }
    tr.end(root);
    Ok(Elected {
        wall: start.elapsed(),
        counters,
        n,
        edges,
    })
}

/// The shape guard: the first candidate draw (the seed itself, then
/// seeds derived from it) whose schedule has the workload's phase count.
pub fn pick_draw(w: &ElectWorkload, seed: u64) -> Result<u64, String> {
    let family = w.family();
    let mut ws = Workspaces::new();
    for k in 0..MAX_DRAWS {
        let candidate = if k == 0 { seed } else { derive_index(seed, k) };
        let config = draw(family, w.n, w.span, candidate)?;
        let compiled = CompiledElection::compile_in(&mut ws.classifier, &config);
        let phases = compiled.schedule().phases();
        if compiled.feasible() && phases == w.phases {
            return Ok(candidate);
        }
        eprintln!(
            "perfbench: shape guard: `anon-radio elect --family {} --size {} --span {} --seed {candidate}` \
             compiles to {phases} phases (feasible: {}, rounds bound {}); that is workload \
             {}-elect/{phases}-phase, not this one — drawing again",
            w.family,
            w.n,
            w.span,
            compiled.feasible(),
            compiled.rounds_bound(),
            w.family
        );
    }
    Err(format!(
        "no draw with {} phases in {MAX_DRAWS} candidates",
        w.phases
    ))
}

/// Runs the shape guard in a child process, so the candidates it
/// compiles leave no trace in this process's peak memory.
fn guard_in_child(args: &Args) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--guard-only",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the shape guard: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("the shape guard failed ({})", output.status));
    }
    stdout
        .trim()
        .parse()
        .map_err(|e| format!("bad shape guard output `{}`: {e}", stdout.trim()))
}

/// Runs the CLI on a small draw and compares its result line with the
/// same election run here.
fn check_cli(report: &mut Report, w: &ElectWorkload, family: FamilySpec, seed: u64, args: &Args) {
    let Some(cli) = &args.cli else {
        report.check(false, || {
            "no --cli given for the CLI cross-check".to_string()
        });
        return;
    };
    let mut ws = Workspaces::new();
    let mut off = Tracer::new(false, Instant::now());
    let here = elect_once(family, w.cli_n, w.span, seed, &mut ws, &mut off, 0);
    let output = Command::new(cli)
        .args(["elect", "--family", w.family])
        .args([
            "--size",
            &w.cli_n.to_string(),
            "--span",
            &w.span.to_string(),
        ])
        .args(["--seed", &seed.to_string()])
        .output();
    let (here, output) = match (here, output) {
        (Ok(here), Ok(output)) => (here, output),
        (Err(e), _) => return report.check(false, || format!("CLI cross-check draw: {e}")),
        (_, Err(e)) => return report.check(false, || format!("cannot run the CLI: {e}")),
    };
    let c = here.counters;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let expected = match c.leader {
        Some(leader) => format!(
            "model: {} | leader: v{leader} | phases: {} | local rounds: {} | done by global round {} | \
             transmissions: {} | engine: {} stepped + {} leapt",
            ModelKind::default(),
            c.phases,
            c.rounds_bound,
            c.completion_round,
            c.transmissions,
            c.rounds_stepped,
            c.rounds_leapt
        ),
        None => String::new(), // infeasible: the CLI reports an error and prints nothing
    };
    report.check(stdout.trim_end() == expected, || {
        format!(
            "CLI line differs on {} n={} seed {seed}:\n  cli  {}\n  here {expected}",
            w.family,
            w.cli_n,
            stdout.trim_end()
        )
    });
}

pub fn run(w: &ElectWorkload, args: &Args) -> Report {
    let mut report = Report::default();
    let family = w.family();
    let origin = Instant::now();

    let seed = match guard_in_child(args) {
        Ok(seed) => seed,
        Err(e) => {
            report.check(false, || e);
            return report;
        }
    };

    // Set-up: fresh workspaces warmed by one fixed small election.
    let (mut ws, setup_s) = timed_setup(SETUP_REPS, || {
        let mut ws = Workspaces::new();
        let mut off = Tracer::new(false, origin);
        let warm = elect_once(
            family,
            w.warm_n,
            w.span,
            DEFAULT_ROOT_SEED,
            &mut ws,
            &mut off,
            0,
        );
        report.op(warm.map(|_| ()));
        ws
    });

    let mut tr = Tracer::new(false, origin);
    let mut untraced: Vec<Elected> = Vec::new();
    let mut traced: Vec<Elected> = Vec::new();
    let peak_bytes = measure(args.seconds, MIN_OPS, |op| {
        // The traced run alternates untraced and traced operations so the
        // tracing overhead is measured on the same draw.
        let trace_this = args.trace && op % 2 == 1;
        tr.set_enabled(trace_this);
        if let Some(done) = report.op(elect_once(family, w.n, w.span, seed, &mut ws, &mut tr, op)) {
            eprintln!(
                "perfbench: op {op}{}: elect_s {:.4} | compile.phases {} | sim.rounds_stepped {}",
                if trace_this { " (traced)" } else { "" },
                done.wall.as_secs_f64(),
                done.counters.phases,
                done.counters.rounds_stepped
            );
            if trace_this {
                &mut traced
            } else {
                &mut untraced
            }
            .push(done);
        }
    });

    let all: Vec<&Elected> = untraced.iter().chain(&traced).collect();
    if let Some(first) = all.first() {
        for e in &all[1..] {
            report.check(e.counters == first.counters, || {
                format!(
                    "counters differ between operations:\n  {:?}\n  {:?}",
                    first.counters, e.counters
                )
            });
        }
        check_persisted(&mut report, args, &format!("{:?}", first.counters));
    }
    check_cli(&mut report, w, family, seed, args);

    let secs = |v: &[Elected]| v.iter().map(|e| e.wall.as_secs_f64()).collect::<Vec<_>>();
    if args.trace {
        layer_metrics(&mut report, &tr, &traced, &ws);
        report.set(
            "trace.overhead_s",
            median(&secs(&traced)) - median(&secs(&untraced)),
        );
        let path = args
            .state_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    } else {
        let walls = secs(&untraced);
        let per_s: Vec<f64> = walls.iter().map(|s| 1.0 / s).collect();
        report.end_to_end(EndToEnd {
            runs_per_s: per_s.clone(),
            jobs_per_s: per_s,
            job_ms: walls.iter().map(|s| s * 1e3).collect(),
            elect_s: walls,
            setup_s,
            peak_bytes,
        });
    }
    report
}

fn layer_metrics(report: &mut Report, tr: &Tracer, traced: &[Elected], ws: &Workspaces) {
    let Some(last) = traced.last() else { return };
    let ops = traced.len() as f64;
    let self_ns = tr.self_ns();
    let per_op = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / ops;
    let c = &last.counters;
    let node_rounds = c.rounds_stepped as f64 * last.n as f64;
    report.set("graph.gen_ns", per_op("graph.build_csr"));
    report.set("graph.tags_ns", per_op("graph.tags"));
    report.set("graph.config_ns", per_op("graph.from_csr"));
    report.set("graph.edges", last.edges as f64);
    report.set(
        "graph.csr_bytes",
        (4 * (last.n + 1) + 8 * last.edges) as f64,
    );
    report.set("classify.ns", per_op("classify"));
    report.set("classify.iterations", c.iterations as f64);
    report.set("classify.classes", c.classes as f64);
    report.set("classify.mem_bytes", ws.classifier.mem_bytes() as f64);
    report.set("compile.ns", per_op("compile"));
    report.set("compile.phases", c.phases as f64);
    report.set("compile.rounds_bound", c.rounds_bound as f64);
    report.set("sim.ns", per_op("sim"));
    report.set("sim.rounds_stepped", c.rounds_stepped as f64);
    report.set("sim.rounds_leapt", c.rounds_leapt as f64);
    report.set("sim.transmissions", c.transmissions as f64);
    report.set("sim.mem_bytes", ws.sim.mem_bytes() as f64);
    report.set("sim.node_rounds", node_rounds);
    report.set(
        "sim.ns_per_node_round",
        per_op("sim") / node_rounds.max(1.0),
    );
    report.set("trace.unattributed_ns", per_op("elect"));
    report.set("trace.spans", tr.len() as f64);
    eprintln!(
        "perfbench: traced elect_s {:.4} over {} op(s): sim {:.1}% | classify {:.1}% | compile {:.1}% | graph {:.1}%",
        mean(&traced.iter().map(|e| e.wall.as_secs_f64()).collect::<Vec<_>>()),
        traced.len(),
        share(&self_ns, &["sim"]),
        share(&self_ns, &["classify"]),
        share(&self_ns, &["compile"]),
        share(&self_ns, &["graph.build_csr", "graph.tags", "graph.from_csr"]),
    );
}

fn share(self_ns: &std::collections::BTreeMap<&'static str, u64>, names: &[&str]) -> f64 {
    let total: u64 = self_ns.values().sum();
    let part: u64 = names.iter().filter_map(|n| self_ns.get(n)).sum();
    100.0 * part as f64 / total.max(1) as f64
}
