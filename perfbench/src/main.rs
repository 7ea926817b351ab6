//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --cli <anon-radio binary> --state-dir <dir>
//! ```
//!
//! Runs one named workload for `--seconds`, checks its outputs, and
//! prints one JSON result line last on standard output: the end-to-end
//! metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). `perfbench/run.py` builds this binary and the CLI and
//! is the entry point; see `perfbench/README.md`.

mod campaign;
mod elect;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::Report;

pub const WORKLOADS: &[&str] = &[
    "path-elect",
    "tree-elect",
    "campaign-distinct",
    "classify-sweep",
    "serve-repeat",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// The `anon-radio` CLI, for the elect cross-check.
    pub cli: Option<PathBuf>,
    /// Where counters persist across runs of the same code and traces
    /// are written.
    pub state_dir: PathBuf,
    /// Only run the `*-elect` shape guard and print the chosen draw seed.
    pub guard_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut cli = None;
    let mut state_dir = PathBuf::from(".");
    let mut guard_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--cli" => cli = Some(PathBuf::from(value()?)),
            "--state-dir" => state_dir = PathBuf::from(value()?),
            "--guard-only" => guard_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        cli,
        state_dir,
        guard_only,
    })
}

/// Runs at least `min_ops` operations, and more while the next one is
/// expected (at the mean duration so far) to end within `seconds`. `op`
/// gets the operation index. Returns the process's peak resident bytes
/// after the first operation.
pub fn measure(seconds: Duration, min_ops: u64, mut op: impl FnMut(u64)) -> u64 {
    let start = Instant::now();
    let mut peak = 0;
    let mut i = 0;
    while i < min_ops || start.elapsed().mul_f64((i + 1) as f64 / i as f64) <= seconds {
        op(i);
        if i == 0 {
            peak = radio_util::mem::peak_rss_bytes().unwrap_or(0);
        }
        i += 1;
    }
    peak
}

/// Times `reps` repetitions of a set-up step; the last one's product is
/// kept for the measured run.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take()); // free the previous product before building the next
        let start = Instant::now();
        let value = setup();
        times.push(start.elapsed().as_secs_f64());
        kept = Some(value);
    }
    (kept.expect("at least one set-up"), times)
}

/// Set-up repetitions per run; their median is `setup_s`.
pub const SETUP_REPS: usize = 5;

/// Compares this run's deterministic counters with the ones an earlier
/// run of the same workload and seed left in the state directory, and
/// stores them when none exist yet. `run.py` names the state directory
/// after a hash of the sources, so only runs of the same code compare.
pub fn check_persisted(report: &mut Report, args: &Args, counters: &str) {
    let path = args
        .state_dir
        .join(format!("counters-{}-{}.txt", args.workload, args.seed));
    match std::fs::read_to_string(&path) {
        Ok(earlier) => report.check(earlier == counters, || {
            format!(
                "counters differ from an earlier run of this seed:\n  earlier {earlier}\n  now     {counters}"
            )
        }),
        Err(_) => {
            if let Err(e) = std::fs::write(&path, counters) {
                eprintln!("perfbench: could not store counters at {}: {e}", path.display());
            }
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.state_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.state_dir.display());
        std::process::exit(2);
    }
    if args.guard_only {
        let workload = match args.workload.as_str() {
            "path-elect" => &elect::PATH,
            "tree-elect" => &elect::TREE,
            _ => {
                eprintln!("perfbench: --guard-only applies to the elect workloads");
                std::process::exit(2);
            }
        };
        match elect::pick_draw(workload, args.seed) {
            Ok(seed) => println!("{seed}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let report = match args.workload.as_str() {
        "path-elect" => elect::run(&elect::PATH, &args),
        "tree-elect" => elect::run(&elect::TREE, &args),
        "campaign-distinct" => campaign::run(&campaign::DISTINCT, &args),
        "classify-sweep" => campaign::run(&campaign::SWEEP, &args),
        "serve-repeat" => serve::run(&args),
        _ => unreachable!("validated by parse_args"),
    };
    report.print(args.trace);
}
