//! `serve-repeat`: a closed loop of clients against `serve_tcp`.
//!
//! Each of the connections sends its next job only after the previous
//! reply arrived. Jobs are drawn from a small pool of shapes (elect,
//! classify and campaign-cell jobs), so after set-up warms the server
//! the schedule cache answers most elect jobs with exact hits. Every
//! reply is checked against the same job computed here through the
//! library: elect replies against `CompiledElection::run_in`, classify
//! replies against the classifier, cell replies against `run_cell`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use anon_radio::campaign::{cell_row, run_cell, CampaignWorkspace};
use anon_radio::serve::{JobKind, JobRequest};
use anon_radio::{serve_tcp, CacheConfig, CompiledElection, ScheduleCache, ServeOptions};
use radio_classifier::ClassifierWorkspace;
use radio_graph::Configuration;
use radio_sim::{ModelKind, RunOpts, SimWorkspace};
use radio_util::rng::{derive_index, splitmix64, DEFAULT_ROOT_SEED};

use crate::report::{median, EndToEnd, Report, MISSED_MS};
use crate::trace::Tracer;
use crate::{check_persisted, Args, SETUP_REPS};

// The pool sizes and the job mix below are assumptions: no record of real
// serve traffic exists. README.md ("Serve traffic is assumed") gives the
// reasoning and the hit ratio they produce.

/// Client connections, one per core of the machine the suite targets.
const CONNECTIONS: u64 = 2;
const ELECT_FAMILIES: [&str; 4] = ["path", "star", "random-tree", "gnp"];
const ELECT_ITEMS: u64 = 12;
const CLASSIFY_FAMILIES: [&str; 3] = ["path", "random-tree", "gnp"];
const CLASSIFY_ITEMS: u64 = 6;
const CELL_FAMILIES: [&str; 2] = ["path", "random-tree"];
const CELL_ITEMS: u64 = 4;
const CELL_REPS: u64 = 4;
/// Consecutive replies per throughput sample.
const THROUGHPUT_CHUNK: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Elect,
    Classify,
    Cell,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Elect => "serve.elect",
            Kind::Classify => "serve.classify",
            Kind::Cell => "serve.cell",
        }
    }
}

struct Item {
    kind: Kind,
    /// The request's fields after `{"id":N,`.
    fields: String,
    /// The part of the reply that must come back verbatim.
    expect: String,
    /// Configurations elected or decided by the job.
    runs: u64,
    /// The drawn configuration (elect jobs), for the cache replay.
    config: Option<Configuration>,
}

struct Pool {
    items: Vec<Item>,
    elect: Vec<usize>,
    classify: Vec<usize>,
    cell: Vec<usize>,
}

impl Pool {
    fn build(seed: u64) -> Result<Pool, String> {
        let mut pool = Pool {
            items: Vec::new(),
            elect: Vec::new(),
            classify: Vec::new(),
            cell: Vec::new(),
        };
        let mut classifier = ClassifierWorkspace::new();
        let mut sim = SimWorkspace::new();
        for i in 0..ELECT_ITEMS {
            let family = ELECT_FAMILIES[i as usize % ELECT_FAMILIES.len()];
            let s = derive_index(derive_index(seed, 1), i);
            let fields = format!(
                "\"op\":\"elect\",\"family\":\"{family}\",\"n\":64,\"span\":8,\"seed\":{s}}}"
            );
            let config = drawn_config(&fields)?;
            let compiled = CompiledElection::compile_in(&mut classifier, &config);
            let expect = if compiled.feasible() {
                let model = ModelKind::default();
                let r = compiled
                    .run_in(&mut sim, &config, model, RunOpts::default())
                    .map_err(|e| format!("pool election failed: {e}"))?;
                format!(
                    "\"feasible\":true,\"model\":\"{model}\",\"leader\":{},\"phases\":{},\"rounds_local\":{},\
                     \"completion_round\":{},\"transmissions\":{},\"rounds_stepped\":{},\"rounds_leapt\":{},\"cache\":",
                    r.leader, r.phases, r.rounds_local, r.completion_round, r.transmissions, r.rounds_stepped, r.rounds_leapt
                )
            } else {
                format!(
                    "\"feasible\":false,\"iterations\":{},\"cache\":",
                    compiled.summary().iterations
                )
            };
            pool.push(Kind::Elect, fields, expect, 1, Some(config));
        }
        for i in 0..CLASSIFY_ITEMS {
            let family = CLASSIFY_FAMILIES[i as usize % CLASSIFY_FAMILIES.len()];
            let s = derive_index(derive_index(seed, 2), i);
            let fields = format!(
                "\"op\":\"classify\",\"family\":\"{family}\",\"n\":128,\"span\":8,\"seed\":{s}}}"
            );
            let summary = classifier.summarize_in(&drawn_config(&fields)?);
            let leader = summary.leader.map_or("null".to_string(), |l| l.to_string());
            let expect = format!(
                "\"feasible\":{},\"iterations\":{},\"classes\":{},\"leader\":{leader},\"relabels\":{}}}",
                summary.feasible, summary.iterations, summary.num_classes, summary.relabels
            );
            pool.push(Kind::Classify, fields, expect, 1, None);
        }
        for i in 0..CELL_ITEMS {
            let family = CELL_FAMILIES[i as usize % CELL_FAMILIES.len()];
            let s = derive_index(derive_index(seed, 3), i);
            let fields = format!(
                "\"op\":\"campaign-cell\",\"phase\":\"elect\",\"family\":\"{family}\",\"n\":32,\"span\":8,\
                 \"reps\":{CELL_REPS},\"seed\":{s}}}"
            );
            let JobKind::CampaignCell(job) = parse(&fields)?.kind else {
                return Err("not a campaign-cell job".to_string());
            };
            let spec = job.spec(true);
            spec.validate()?;
            let cell = spec.cells()[0];
            let mut ws = CampaignWorkspace::with_cache(Some(Arc::new(ScheduleCache::default())));
            let row = cell_row(spec.phase, &cell, &run_cell(&mut ws, &spec, &cell)).to_jsonl();
            let prefix = row.split(",\"wall_ns\"").next().unwrap_or(&row);
            let expect = format!("\"reps\":{CELL_REPS},\"row\":{prefix},\"wall_ns\"");
            pool.push(Kind::Cell, fields, expect, CELL_REPS, None);
        }
        Ok(pool)
    }

    fn push(
        &mut self,
        kind: Kind,
        fields: String,
        expect: String,
        runs: u64,
        config: Option<Configuration>,
    ) {
        let index = self.items.len();
        match kind {
            Kind::Elect => self.elect.push(index),
            Kind::Classify => self.classify.push(index),
            Kind::Cell => self.cell.push(index),
        }
        self.items.push(Item {
            kind,
            fields,
            expect,
            runs,
            config,
        });
    }

    /// Job `j` of connection `c`: 70% elect, 20% classify, 10% cell (an
    /// assumed mix).
    fn job(&self, seed: u64, c: u64, j: u64) -> usize {
        let r = splitmix64(derive_index(derive_index(seed, 100 + c), j));
        let of = match r % 10 {
            0..=6 => &self.elect,
            7 | 8 => &self.classify,
            _ => &self.cell,
        };
        of[(r >> 16) as usize % of.len()]
    }
}

fn parse(fields: &str) -> Result<JobRequest, String> {
    JobRequest::parse(&format!("{{{fields}")).map_err(|e| e.message)
}

/// The configuration the server draws for an elect or classify job.
fn drawn_config(fields: &str) -> Result<Configuration, String> {
    match parse(fields)?.kind {
        JobKind::Elect(job) | JobKind::Classify(job) => job.configuration(),
        _ => Err("not a one-shot job".to_string()),
    }
}

struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    sent: u64,
}

impl Connection {
    fn open(addr: SocketAddr) -> Result<Connection, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection {
            writer: stream,
            reader,
            sent: 0,
        })
    }

    /// Sends one line and waits for its reply.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.sent += 1;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed before the reply".to_string()),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A running server with its client connections.
struct Session {
    server: JoinHandle<std::io::Result<()>>,
    conns: Vec<Connection>,
}

impl Session {
    /// Starts `serve_tcp` on a loopback port, connects the clients and
    /// sends every pool item once.
    fn start(pool: &Pool, threads: usize) -> Result<Session, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let opts = ServeOptions {
            threads,
            queue: 16,
            cache: CacheConfig::default(),
        };
        let server = std::thread::spawn(move || serve_tcp(listener, &opts));
        let mut session = Session {
            server,
            conns: Vec::new(),
        };
        for _ in 0..CONNECTIONS {
            session.conns.push(Connection::open(addr)?);
        }
        for item in &pool.items {
            session.send(item)?;
        }
        Ok(session)
    }

    /// Sends `item` on the connection that has sent the fewest jobs and
    /// checks the reply.
    fn send(&mut self, item: &Item) -> Result<(), String> {
        let conn = self
            .conns
            .iter_mut()
            .min_by_key(|c| c.sent)
            .expect("connected");
        let id = conn.sent;
        let reply = conn.call(&format!("{{\"id\":{id},{}", item.fields))?;
        check_reply(item, id, &reply)
    }

    /// Shuts the server down and joins it; returns the job count the
    /// shutdown acknowledgement reports for the first connection.
    fn stop(mut self) -> Result<u64, String> {
        let reply = self.conns[0].call("{\"op\":\"shutdown\"}")?;
        let jobs = field(&reply, "jobs").and_then(|v| v.parse().ok());
        self.conns.clear();
        match self.server.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(format!("serve_tcp failed: {e}")),
            Err(_) => return Err("the server thread panicked".to_string()),
        }
        jobs.ok_or_else(|| format!("bad shutdown acknowledgement: {reply}"))
    }
}

/// The value of a top-level `"name":value` field of a flat reply.
fn field<'a>(reply: &'a str, name: &str) -> Option<&'a str> {
    let start = reply.find(&format!("\"{name}\":"))? + name.len() + 3;
    let rest = &reply[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn check_reply(item: &Item, id: u64, reply: &str) -> Result<(), String> {
    let op = match item.kind {
        Kind::Elect => "elect",
        Kind::Classify => "classify",
        Kind::Cell => "campaign-cell",
    };
    let head = format!("{{\"ok\":true,\"id\":{id},\"op\":\"{op}\",");
    if reply.starts_with(&head) && reply.contains(&item.expect) {
        Ok(())
    } else {
        Err(format!(
            "reply to job {id} ({}) differs:\n  got      {reply}\n  expected {head}…{}…",
            item.fields, item.expect
        ))
    }
}

struct Job {
    item: usize,
    /// Send to reply; `MISSED_MS` when the job failed.
    ms: f64,
    ok: bool,
    traced: bool,
    sent: Instant,
    replied: Instant,
}

#[derive(Default)]
struct ClientLog {
    jobs: Vec<Job>,
    exact_hits: u64,
    misses: u64,
    error_replies: u64,
    failures: Vec<String>,
}

fn client(
    conn: &mut Connection,
    pool: &Pool,
    seed: u64,
    c: u64,
    until: Instant,
    trace: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut j = 0u64;
    while Instant::now() < until {
        let index = pool.job(seed, c, j);
        let item = &pool.items[index];
        let traced = trace && j % 2 == 1;
        j += 1;
        let id = conn.sent;
        let line = format!("{{\"id\":{id},{}", item.fields);
        let start = Instant::now();
        let reply = conn.call(&line);
        let end = Instant::now();
        let ms = (end - start).as_secs_f64() * 1e3;
        let (ok, gone) = match reply {
            Ok(reply) => {
                if reply.starts_with("{\"ok\":false") {
                    log.error_replies += 1;
                }
                match field(&reply, "cache") {
                    Some("\"exact-hit\"") => log.exact_hits += 1,
                    Some("\"miss\"") => log.misses += 1,
                    _ => {}
                }
                match check_reply(item, id, &reply) {
                    Ok(()) => (true, false),
                    Err(e) => {
                        log.failures.push(e);
                        (false, false)
                    }
                }
            }
            Err(e) => {
                log.failures.push(format!("job {id}: {e}"));
                (false, true)
            }
        };
        log.jobs.push(Job {
            item: index,
            ms: if ok { ms } else { MISSED_MS },
            ok,
            traced,
            sent: start,
            replied: end,
        });
        if gone {
            break; // the connection is gone
        }
    }
    log
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let threads = radio_sim::parallel::default_threads();
    let pool = match Pool::build(args.seed) {
        Ok(pool) => pool,
        Err(e) => {
            report.check(false, || format!("building the job pool: {e}"));
            return report;
        }
    };
    // The pool's expected replies are the run's deterministic counters.
    let expected: Vec<&str> = pool.items.iter().map(|i| i.expect.as_str()).collect();
    check_persisted(&mut report, args, &expected.join("\n"));
    // The set-up pool is fixed, so set-up does the same work every seed.
    let warm_pool = match Pool::build(DEFAULT_ROOT_SEED) {
        Ok(pool) => pool,
        Err(e) => {
            report.check(false, || format!("building the warm-up pool: {e}"));
            return report;
        }
    };

    // Set-up: start the server, connect, send the warm-up pool. Repeated,
    // timed; the last session is kept and then sent the run's own pool
    // once, so its schedules are cached before measuring.
    let mut setup_s = Vec::new();
    let mut session = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = session.take() {
            report.op(Session::stop(previous).map(|_| ()));
        }
        let start = Instant::now();
        let started = Session::start(&warm_pool, threads);
        setup_s.push(start.elapsed().as_secs_f64());
        session = report.op(started);
        if session.is_none() {
            return report;
        }
    }
    let mut session = session.expect("set-up succeeded");
    for item in &pool.items {
        report.op(session.send(item));
    }
    // Read after set-up and the pool pass, as the other workloads read it
    // after set-up and their first operation: not after the client loop,
    // whose length would change it.
    let peak_bytes = radio_util::mem::peak_rss_bytes().unwrap_or(0);

    let origin = Instant::now();
    let until = origin + args.seconds;
    let pool_ref = &pool;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = session
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || client(conn, pool_ref, args.seed, c as u64, until, args.trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let sent_first = session.conns[0].sent;
    match session.stop() {
        Ok(acked) => report.check(acked == sent_first, || {
            format!("the server acknowledged {acked} jobs on connection 0, the client sent {sent_first}")
        }),
        Err(e) => report.check(false, || e),
    }

    let mut job_ms = Vec::new();
    let mut replies: Vec<(Instant, u64)> = Vec::new();
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let mut traced_elect = Vec::new();
    let mut untraced_elect = Vec::new();
    let mut tr = Tracer::new(args.trace, origin);
    let mut op = 0u64;
    for log in &logs {
        for msg in &log.failures {
            report.check(false, || msg.clone());
        }
        let ok = log.jobs.iter().filter(|j| j.ok).count() as u64;
        report.passed(ok);
        for job in &log.jobs {
            let item = &pool.items[job.item];
            job_ms.push(job.ms);
            if job.ok {
                replies.push((job.replied, item.runs));
            }
            by_kind[item.kind as usize].push(job.ms);
            if item.kind == Kind::Elect {
                if job.traced {
                    &mut traced_elect
                } else {
                    &mut untraced_elect
                }
                .push(job.ms / 1e3);
            }
            if job.traced {
                tr.record(item.kind.span(), op, job.sent, job.replied);
            }
            op += 1;
        }
    }
    // Throughput over each run of THROUGHPUT_CHUNK consecutive replies.
    replies.sort_by_key(|r| r.0);
    let (mut jobs_per_s, mut runs_per_s) = (Vec::new(), Vec::new());
    for chunk in replies
        .windows(THROUGHPUT_CHUNK + 1)
        .step_by(THROUGHPUT_CHUNK)
    {
        let seconds = (chunk[THROUGHPUT_CHUNK].0 - chunk[0].0).as_secs_f64();
        let runs: u64 = chunk[1..].iter().map(|r| r.1).sum();
        jobs_per_s.push(THROUGHPUT_CHUNK as f64 / seconds);
        runs_per_s.push(runs as f64 / seconds);
    }
    eprintln!(
        "perfbench: {} jobs over {CONNECTIONS} connections, {threads} server workers, {:.0} jobs/s",
        job_ms.len(),
        median(&jobs_per_s)
    );

    if args.trace {
        report.set("serve.elect_ms", median(&by_kind[Kind::Elect as usize]));
        report.set(
            "serve.classify_ms",
            median(&by_kind[Kind::Classify as usize]),
        );
        report.set("serve.cell_ms", median(&by_kind[Kind::Cell as usize]));
        report.set(
            "serve.exact_hits",
            logs.iter().map(|l| l.exact_hits).sum::<u64>() as f64,
        );
        report.set(
            "serve.misses",
            logs.iter().map(|l| l.misses).sum::<u64>() as f64,
        );
        report.set(
            "serve.error_replies",
            logs.iter().map(|l| l.error_replies).sum::<u64>() as f64,
        );
        report.set(
            "trace.overhead_s",
            median(&traced_elect) - median(&untraced_elect),
        );
        cache_replay(&mut report, &pool, &logs, &mut tr);
        report.set("trace.spans", tr.len() as f64);
        let path = args
            .state_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    } else {
        report.end_to_end(EndToEnd {
            elect_s: by_kind[Kind::Elect as usize]
                .iter()
                .map(|ms| ms / 1e3)
                .collect(),
            runs_per_s,
            jobs_per_s,
            job_ms,
            setup_s,
            peak_bytes,
        });
    }
    report
}

/// Replays the run's elect jobs, in order, through a fresh
/// `ScheduleCache::compile_in` with the server's capacity: the cache
/// layer timed from outside on the workload's own stream.
fn cache_replay(report: &mut Report, pool: &Pool, logs: &[ClientLog], tr: &mut Tracer) {
    let cache = ScheduleCache::new(CacheConfig::default().capacity);
    let mut classifier = ClassifierWorkspace::new();
    let (mut hit_ns, mut miss_ns) = (Vec::new(), Vec::new());
    // Set-up sent the pool once, then the clients sent their jobs.
    let sent = logs
        .iter()
        .flat_map(|log| log.jobs.iter().map(|job| &pool.items[job.item]));
    for (op, item) in pool.items.iter().chain(sent).enumerate() {
        let Some(config) = &item.config else { continue };
        let start = Instant::now();
        let s = tr.begin("cache.compile_in", op as u64);
        let (_, lookup) = cache.compile_in(&mut classifier, config);
        tr.end(s);
        let ns = start.elapsed().as_nanos() as f64;
        if lookup.is_hit() {
            &mut hit_ns
        } else {
            &mut miss_ns
        }
        .push(ns);
    }
    let stats = cache.stats();
    report.set("cache.lookups", stats.lookups() as f64);
    report.set(
        "cache.hit_ratio",
        stats.hits as f64 / stats.lookups().max(1) as f64,
    );
    report.set("cache.evictions", stats.evictions as f64);
    report.set("cache.hit_ns", crate::report::mean(&hit_ns));
    report.set("cache.miss_ns", crate::report::mean(&miss_ns));
}
