//! Metric names, failure accounting and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by the untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("elect_s", "s"),
    ("runs_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, printed by the traced run: `(name, unit)`. A layer
/// a workload does not call reports 0 (see README.md for which layers
/// each workload exercises).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_ns", "ns"),
    ("graph.tags_ns", "ns"),
    ("graph.config_ns", "ns"),
    ("graph.edges", "count"),
    ("graph.csr_bytes", "bytes"),
    ("classify.ns", "ns"),
    ("classify.iterations", "count"),
    ("classify.classes", "count"),
    ("classify.mem_bytes", "bytes"),
    ("compile.ns", "ns"),
    ("compile.phases", "count"),
    ("compile.rounds_bound", "rounds"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.hit_ns", "ns"),
    ("cache.miss_ns", "ns"),
    ("sim.ns", "ns"),
    ("sim.rounds_stepped", "rounds"),
    ("sim.rounds_leapt", "rounds"),
    ("sim.transmissions", "count"),
    ("sim.mem_bytes", "bytes"),
    ("sim.node_rounds", "count"),
    ("sim.ns_per_node_round", "ns"),
    ("campaign.shard_ns", "ns"),
    ("campaign.runs", "count"),
    ("campaign.feasible", "count"),
    ("campaign.elected", "count"),
    ("campaign.aborted", "count"),
    ("row.encode_ns", "ns"),
    ("row.bytes", "bytes"),
    ("serve.elect_ms", "ms"),
    ("serve.classify_ms", "ms"),
    ("serve.cell_ms", "ms"),
    ("serve.exact_hits", "count"),
    ("serve.misses", "count"),
    ("serve.error_replies", "count"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_ns", "ns"),
    ("trace.spans", "count"),
];

/// Latency recorded for a job that failed or was refused: it counts as
/// missing any latency limit.
pub const MISSED_MS: f64 = 1e9;

/// The untraced run's measurements, reduced to the end-to-end metrics.
pub struct EndToEnd {
    /// Per-operation seconds whose median is `elect_s`.
    pub elect_s: Vec<f64>,
    /// Configurations elected or decided per second, one sample per
    /// operation (or per second of a served run); the median is reported.
    pub runs_per_s: Vec<f64>,
    /// Jobs per second, sampled like `runs_per_s`.
    pub jobs_per_s: Vec<f64>,
    /// Per-job latency, send (or call) to reply.
    pub job_ms: Vec<f64>,
    /// One entry per repetition of the workload's set-up.
    pub setup_s: Vec<f64>,
    /// Peak resident memory of a process that set up and ran the
    /// workload's operation once (later operations only add allocator
    /// fragmentation that differs from run to run).
    pub peak_bytes: u64,
}

#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one operation or output check; a failure is logged.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            eprintln!("perfbench: FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    /// Counts one operation whose outcome is a `Result`.
    pub fn op<T>(&mut self, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(value) => {
                self.check(true, String::new);
                Some(value)
            }
            Err(msg) => {
                self.check(false, || msg);
                None
            }
        }
    }

    /// Adds `n` operations that all succeeded (jobs checked in bulk).
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().chain(END_TO_END).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn end_to_end(&mut self, e: EndToEnd) {
        self.set("elect_s", median(&e.elect_s));
        self.set("runs_per_s", median(&e.runs_per_s));
        self.set("jobs_per_s", median(&e.jobs_per_s));
        self.set("job_p50_ms", median(&e.job_ms));
        self.set("job_p99_ms", quantile(&e.job_ms, 0.99));
        self.set("peak_rss_mib", e.peak_bytes as f64 / (1u64 << 20) as f64);
        self.set("setup_s", median(&e.setup_s));
        eprintln!(
            "perfbench: {} ops, {} jobs, set-up seconds {:?}",
            e.elect_s.len(),
            e.job_ms.len(),
            e.setup_s
        );
    }

    /// Prints the result object as the last line of standard output:
    /// every end-to-end metric untraced, every per-layer metric traced.
    pub fn print(mut self, traced: bool) {
        let ok = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        self.metrics.insert("ok_frac", ok);
        let names = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { MISSED_MS };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Nearest-rank quantile (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    radio_util::stats::quantile(samples, q).unwrap_or(0.0)
}
