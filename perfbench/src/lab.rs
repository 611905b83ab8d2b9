//! The lab workload: `POST /run` round trips against a fresh in-process
//! `pdc_lab` server, driven over its HTTP API in a closed loop.
//!
//! A run starts an in-process server with an empty in-memory cache and
//! sends the seeded request sequence from `clients` threads, each waiting
//! for its reply before sending the next, until the measuring time is
//! used up. The load is cut into windows of [`WINDOW`] requests; the
//! clients drain between windows, so each window's cache counters are a
//! pure function of the requests issued so far, and the benchmark checks
//! them exactly against `GET /stats`.

use crate::spans::Tracer;
use crate::sys::PhaseClock;
use crate::{median, mix64, percentile, Metric};
use pdc_bench::lab::{identity_request, Zipf};
use pdc_cluster::Placement;
use pdc_lab::api::{RunRequest, ServerStats};
use pdc_lab::runner::{self, RunResult};
use pdc_lab::{http, identity, Artifacts, LabConfig, LabHandle, ResultCache};
use pdc_modules::{module1, module2, module3, module6, module7};
use pdc_mpi::{CancelToken, CheckMode, Comm, ProfContext, World, WorldConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests per counting window; the first window on a cold server is one
/// classroom session.
pub const WINDOW: usize = 1000;
/// Distinct identities in the lab-zipf popularity table.
const IDENTITIES: usize = 64;
/// Zipf exponent of the lab-zipf popularity table.
const ZIPF_S: f64 = 1.1;
/// In traced runs, every client sends a `GET /healthz` before every
/// `HEALTHZ_EVERY`-th request.
const HEALTHZ_EVERY: usize = 8;
/// Requests replayed through the runner in the traced ledger.
const MAX_REPLAYS: usize = 200;
/// Client timeout for one request.
const TIMEOUT: Duration = Duration::from_secs(60);

/// The seeded request sequence of a run: Zipf draws over the classroom
/// table. Request `i` is a pure function of `(seed, i)`; which client
/// sends it does not matter.
pub struct Requests {
    seed: u64,
    zipf: Zipf,
}

impl Requests {
    /// The sequence under `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            zipf: Zipf::new(IDENTITIES, ZIPF_S),
        }
    }

    /// Request `i` of the sequence.
    pub fn get(&self, i: usize) -> RunRequest {
        let draw = mix64(self.seed ^ mix64(i as u64));
        let u = (draw >> 11) as f64 / (1u64 << 53) as f64;
        identity_request(self.zipf.sample(u))
    }
}

/// Closed-loop clients for this box: at most two, and never more than
/// the box has cores.
pub fn clients() -> usize {
    crate::sys::nproc().clamp(1, 2)
}

/// The server for `clients` clients: one executor per client, and an HTTP
/// worker per client plus two for `/stats` and `/healthz`.
pub fn server_config(clients: usize) -> LabConfig {
    LabConfig {
        executors: clients,
        http_workers: clients + 2,
        ..LabConfig::default()
    }
}

/// Run `op(i)` for `i = 0, 1, ...` from `clients` threads in a closed
/// loop until `n` operations were issued or `deadline` passed. Indices
/// are handed out in order, so the issued set is always a prefix of the
/// sequence, whatever the client count. Returns `(i, result)` sorted by
/// `i`.
pub fn drive<R: Send>(
    clients: usize,
    n: usize,
    deadline: Instant,
    op: impl Fn(usize) -> R + Sync,
) -> Vec<(usize, R)> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..clients.max(1) {
            s.spawn(|| {
                let mut local = Vec::new();
                while Instant::now() < deadline {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, op(i)));
                }
                out.lock().expect("results poisoned").extend(local);
            });
        }
    });
    let mut out = out.into_inner().expect("results poisoned");
    out.sort_by_key(|(i, _)| *i);
    out
}

/// One `POST /run` as the client saw it.
struct Sample {
    rtt_s: f64,
    reply: Result<String, String>,
}

/// Cache counters of one window, from `GET /stats` deltas.
#[derive(Debug, Clone, Default)]
pub struct WindowCounts {
    /// Requests the window issued.
    pub issued: u64,
    /// Identities among them the server had not been asked for before:
    /// the misses its cache must take.
    pub first_seen: u64,
    /// `GET /stats` delta over the window.
    pub delta: ServerStats,
}

/// What a load run measured.
#[derive(Default)]
pub struct LoadStats {
    /// Wall seconds of each set-up (request generation, server start,
    /// first `/healthz`).
    pub setups: Vec<f64>,
    /// Round-trip times of completed requests, ms.
    pub lat_ms: Vec<f64>,
    /// Wall and CPU time inside the timed phases.
    pub clock: PhaseClock,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed (transport error, non-200, a `failed` body,
    /// or a body that failed its check).
    pub failed: u64,
    /// Problems found: failed requests and counter mismatches.
    pub problems: Vec<String>,
    /// Per-window counters.
    pub windows: Vec<WindowCounts>,
    /// The first [`WINDOW`] completed requests with their round-trip time
    /// and reply body, in issue order.
    pub completed: Vec<(RunRequest, f64, String)>,
    /// Outcome of the known-defect probe, one line per request.
    pub known_defect: Vec<String>,
    /// Known-defect probe requests that failed.
    pub known_defect_failed: u64,
}

impl LoadStats {
    fn problem(&mut self, msg: String) {
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }
}

fn server_stats(addr: SocketAddr) -> Result<ServerStats, String> {
    let resp = http::request(addr, "GET", "/stats", "", TIMEOUT)?;
    serde_json::from_str(&resp.body).map_err(|e| format!("bad /stats body: {e:?}"))
}

fn delta(a: &ServerStats, b: &ServerStats) -> ServerStats {
    ServerStats {
        submitted: b.submitted - a.submitted,
        done: b.done - a.done,
        failed: b.failed - a.failed,
        timed_out: b.timed_out - a.timed_out,
        cache_hits: b.cache_hits - a.cache_hits,
        cache_misses: b.cache_misses - a.cache_misses,
        coalesced: b.coalesced - a.coalesced,
        runs_executed: b.runs_executed - a.runs_executed,
        preemptions: b.preemptions - a.preemptions,
        waiting: b.waiting,
        running: b.running,
    }
}

/// Check a `POST /run` reply body against its request.
fn check_body(req: &RunRequest, body: &str) -> Result<(), String> {
    let r: RunResult = serde_json::from_str(body).map_err(|e| format!("unparsable body: {e:?}"))?;
    if r.status != "done" {
        return Err(format!(
            "status {}: {}",
            r.status,
            r.error.unwrap_or_default()
        ));
    }
    if (r.module.as_str(), r.size, r.ranks, r.seed)
        != (
            req.module.as_str(),
            req.size,
            req.ranks,
            req.seed_or_default(),
        )
    {
        return Err(format!("reply is for another request: {body}"));
    }
    if r.values.len() as u64 != req.ranks || r.values.iter().any(|v| !v.is_finite()) {
        return Err(format!("expected {} finite values: {body}", req.ranks));
    }
    if !(r.sim_time.is_finite() && r.sim_time > 0.0) {
        return Err(format!("non-positive sim time: {body}"));
    }
    if req.module == "sort" {
        // Each rank reports how many keys it kept, or -1 when its bucket
        // came out unordered; the kept counts conserve the input.
        let per_rank = (req.size / req.ranks).max(1);
        let kept: f64 = r.values.iter().sum();
        if r.values.iter().any(|&v| v < 0.0) || kept != (per_rank * req.ranks) as f64 {
            return Err(format!("sort lost or misordered keys: {body}"));
        }
    }
    Ok(())
}

/// Send `sort` requests on 32 and 64 ranks, which fail on the current
/// code: `runner.rs` runs Module 3 with `Histogram { bins: 16 }`, and
/// `module3::histogram_splitters` asserts `bins >= p`. Record how each
/// came back.
fn probe_known_defect(addr: SocketAddr, stats: &mut LoadStats) {
    for ranks in [32, 64] {
        let req = RunRequest::new("sort", 4096, ranks);
        let body = serde_json::to_string(&req).expect("serialize request");
        let line = match http::request(addr, "POST", "/run", &body, TIMEOUT) {
            Ok(resp) => match check_body(&req, &resp.body) {
                Ok(()) => format!("sort size=4096 ranks={ranks}: HTTP {} done", resp.status),
                Err(e) => {
                    stats.known_defect_failed += 1;
                    format!("sort size=4096 ranks={ranks}: HTTP {} {e}", resp.status)
                }
            },
            Err(e) => {
                stats.known_defect_failed += 1;
                format!("sort size=4096 ranks={ranks}: {e}")
            }
        };
        stats.known_defect.push(line);
    }
}

/// `server`, once it has answered a `GET /healthz`.
fn answers_healthz(server: LabHandle) -> Result<LabHandle, String> {
    http::request(server.addr(), "GET", "/healthz", "", TIMEOUT)
        .map_err(|e| format!("server did not answer /healthz: {e}"))?;
    Ok(server)
}

fn window_batch(reqs: &Requests, lo: usize, len: usize) -> Vec<(RunRequest, String)> {
    (lo..lo + len)
        .map(|i| {
            let req = reqs.get(i);
            let body = serde_json::to_string(&req).expect("serialize request");
            (req, body)
        })
        .collect()
}

/// Send `reqs` from `clients` clients for `seconds`, in windows of
/// `window_len` requests (at most `max_windows`). The clients drain
/// between windows, so each window's `GET /stats` delta is exact. One
/// server serves the whole run.
pub fn load(
    reqs: &Requests,
    clients: usize,
    seconds: f64,
    window_len: usize,
    max_windows: usize,
    tracer: &Tracer,
) -> LoadStats {
    let mut st = LoadStats::default();
    // Set-up, repeated: generate the first window's requests and start a
    // server, which returns listening. Its first `/healthz` is checked
    // outside the timed set-up: that round trip either beats the accept
    // thread's first poll (~0.3 ms) or waits out its 2 ms sleep, and the
    // share of each flips with the host's load, so a median over it
    // jumps between the two. The last server is kept.
    let mut server: Option<LabHandle> = None;
    let mut batch = Vec::new();
    while crate::more_setups(&st.setups) {
        let t0 = Instant::now();
        batch = window_batch(reqs, 0, window_len);
        let started = pdc_lab::start(server_config(clients)).map_err(|e| format!("start: {e}"));
        let setup_s = t0.elapsed().as_secs_f64();
        match started.and_then(answers_healthz) {
            Ok(s) => {
                st.setups.push(setup_s);
                if let Some(mut old) = server.replace(s) {
                    old.shutdown();
                }
            }
            Err(e) => {
                st.problem(e);
                return st;
            }
        }
    }
    let mut server = server.expect("set up at least once");
    probe_known_defect(server.addr(), &mut st);

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // Reply bodies by identity: repeated identities must get the same bytes.
    let mut bodies: BTreeMap<u64, String> = BTreeMap::new();
    // Identities the current server has already been asked for.
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    for window in 0..max_windows {
        if window > 0 {
            if Instant::now() >= deadline {
                break;
            }
            batch = window_batch(reqs, window * window_len, window_len);
        }
        let lo = window * window_len;
        let addr = server.addr();
        let before = server_stats(addr);
        let results = st.clock.measure(|| {
            drive(clients, batch.len(), deadline, |i| {
                if tracer.enabled() && i % HEALTHZ_EVERY == 0 {
                    tracer
                        .span("lab.http.healthz", 0, (lo + i) as u64, |_| {
                            http::request(addr, "GET", "/healthz", "", TIMEOUT).map(|r| r.status)
                        })
                        .ok();
                }
                let t = Instant::now();
                let reply = tracer.span("lab.client.post_run", 0, (lo + i) as u64, |_| {
                    http::request(addr, "POST", "/run", &batch[i].1, TIMEOUT)
                });
                let rtt_s = t.elapsed().as_secs_f64();
                let reply = reply.and_then(|resp| {
                    if resp.status == 200 {
                        Ok(resp.body)
                    } else {
                        Err(format!("HTTP {}: {}", resp.status, resp.body))
                    }
                });
                Sample { rtt_s, reply }
            })
        });
        let after = server_stats(addr);

        let mut first_seen = 0u64;
        for (i, sample) in &results {
            let req = &batch[*i].0;
            let key = identity::job_key(req);
            if seen.insert(key) {
                first_seen += 1;
            }
            st.attempted += 1;
            let verdict = sample.reply.clone().and_then(|body| {
                check_body(req, &body)?;
                match bodies.get(&key) {
                    Some(first) if *first != body => {
                        Err("repeated identity got different bytes".to_string())
                    }
                    Some(_) => Ok(()),
                    None => {
                        bodies.insert(key, body.clone());
                        Ok(())
                    }
                }?;
                Ok(body)
            });
            match verdict {
                Ok(body) => {
                    st.lat_ms.push(sample.rtt_s * 1e3);
                    // The ledger needs one window's worth; keeping every
                    // body would grow this process's RSS with run length.
                    if st.completed.len() < WINDOW {
                        st.completed.push((req.clone(), sample.rtt_s, body));
                    }
                }
                Err(e) => {
                    st.failed += 1;
                    st.problem(format!("request {} ({}): {e}", lo + i, batch[*i].1));
                }
            }
        }
        let counts = match (before, after) {
            (Ok(b), Ok(a)) => WindowCounts {
                issued: results.len() as u64,
                first_seen,
                delta: delta(&b, &a),
            },
            (Err(e), _) | (_, Err(e)) => {
                st.problem(format!("window {window}: /stats unreachable: {e}"));
                continue;
            }
        };
        let d = &counts.delta;
        let served = d.cache_hits + d.coalesced;
        if d.cache_misses != counts.first_seen
            || d.runs_executed != counts.first_seen
            || served != counts.issued - counts.first_seen
            || d.failed != 0
            || d.timed_out != 0
        {
            st.problem(format!(
                "window {window}: counters off: issued {} new identities {} but /stats delta {:?}",
                counts.issued, counts.first_seen, d
            ));
        }
        st.windows.push(counts);
    }
    server.shutdown();
    st
}

/// The world a lab job runs, mirroring `runner::execute` step by step so
/// each step can be timed on its own, in spans under `parent`.
fn replay_steps(req: &RunRequest, tracer: &Tracer, op: u64, parent: u64) {
    let ranks = req.ranks as usize;
    let cfg = WorldConfig::virtual_ranks(ranks, req.workers_or_default())
        .with_sched_seed(req.seed_or_default())
        .with_tracing()
        .with_check(CheckMode::Record)
        .with_cancel(CancelToken::new());
    let ctx = ProfContext {
        machine: cfg.machine.clone(),
        placement: Placement::new(
            cfg.size,
            cfg.nodes_used,
            cfg.machine.cores_per_node,
            cfg.placement_policy,
        ),
        eager_threshold: cfg.eager_threshold,
    };
    let per_rank = ((req.size as usize) / ranks).max(1);
    let seed = req.seed_or_default();
    let (outcome, logs) = tracer.span("lab.runner.world", parent, op, |_| {
        match req.module.as_str() {
            "ring" => World::run_with_check(cfg, move |comm: &mut Comm| {
                Ok(module1::ring_step(comm, module1::RingVariant::Nonblocking)? as f64)
            }),
            "distance" => {
                let points = pdc_datagen::uniform_points(req.size as usize, 4, 0.0, 1.0, seed);
                World::run_with_check(cfg, move |comm: &mut Comm| {
                    module2::distance_matrix_rank(comm, &points, module2::Access::RowWise)
                })
            }
            "sort" => World::run_with_check(cfg, move |comm: &mut Comm| {
                let (kept, ordered) = module3::distribution_sort_rank(
                    comm,
                    per_rank,
                    module3::InputDist::Uniform,
                    module3::BucketStrategy::Histogram { bins: 16 },
                    seed,
                )?;
                Ok(if ordered { kept as f64 } else { -1.0 })
            }),
            "stencil" => World::run_with_check(cfg, move |comm: &mut Comm| {
                let field =
                    module6::stencil_rank(comm, per_rank, 8, module6::HaloVariant::Overlapped)?;
                Ok(field.iter().sum::<f64>())
            }),
            "topk" => World::run_with_check(cfg, move |comm: &mut Comm| {
                let top = module7::top_k_rank(
                    comm,
                    per_rank,
                    16.min(per_rank),
                    module7::TopKStrategy::TreeMerge,
                    seed,
                )?;
                Ok(top.iter().sum::<f64>())
            }),
            other => panic!("the benchmark sends no '{other}' requests"),
        }
    });
    tracer.span("check.analyze", parent, op, |_| {
        pdc_check::analyze(&outcome, &logs)
    });
    if let Ok(out) = &outcome {
        tracer.span("prof.profile", parent, op, |_| {
            pdc_prof::Profile::from_run(out, &ctx)
        });
        tracer.span("prof.trace_json", parent, op, |_| {
            pdc_prof::enriched_chrome_json(&out.traces, &out.phases)
        });
    }
}

/// Round trips of the floor: a std `TcpListener` that answers each
/// connection with a fixed reply and no work, over the same
/// one-request-per-connection pattern the lab uses.
fn loopback_floor(tracer: &Tracer, n: usize) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("loopback addr");
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..n {
                let (mut conn, _) = listener.accept().expect("accept");
                let _ = http::read_request(&mut conn);
                http::json(&mut conn, 200, "OK", &[], "{\"ok\":true}");
            }
        });
        for i in 0..n {
            tracer.span("lab.http.loopback", 0, i as u64, |_| {
                http::request(addr, "GET", "/healthz", "", TIMEOUT).expect("loopback reply")
            });
        }
    });
}

/// `http::read_request` on requests already written into a loopback
/// connection, so only the parse is timed.
fn parse_cost(tracer: &Tracer, bodies: &[String]) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind parse pair");
    let addr = listener.local_addr().expect("parse addr");
    for (i, body) in bodies.iter().enumerate() {
        let mut client = TcpStream::connect(addr).expect("connect parse pair");
        let head = format!(
            "POST /run HTTP/1.1\r\nHost: lab\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        std::io::Write::write_all(&mut client, head.as_bytes()).expect("write request");
        let (mut conn, _) = listener.accept().expect("accept parse pair");
        let parsed = tracer.span("lab.http.parse", 0, i as u64, |_| {
            http::read_request(&mut conn)
        });
        assert_eq!(parsed.expect("parse").body, body.as_bytes());
    }
}

/// The lab layers' ledger from a traced load. `st` must come from a load
/// run with `tracer` enabled. A replayed `runner::execute` whose result
/// differs from the body the server sent is added to `problems`.
pub fn ledger(st: &LoadStats, tracer: &Tracer, out: &mut Vec<Metric>, problems: &mut Vec<String>) {
    // Replay sample: each identity once, first occurrence first.
    let mut seen = BTreeSet::new();
    let sample: Vec<&(RunRequest, f64, String)> = st
        .completed
        .iter()
        .filter(|(req, _, _)| seen.insert(identity::job_key(req)))
        .take(MAX_REPLAYS)
        .collect();
    let bodies: Vec<String> = st
        .completed
        .iter()
        .map(|(req, _, _)| serde_json::to_string(req).expect("serialize request"))
        .collect();

    loopback_floor(tracer, 200);
    parse_cost(tracer, &bodies[..bodies.len().min(200)]);
    for (i, body) in bodies.iter().enumerate() {
        let req = tracer.span("lab.api.decode", 0, i as u64, |_| {
            serde_json::from_str::<RunRequest>(body).expect("decode own request")
        });
        tracer.span("lab.identity.key", 0, i as u64, |_| identity::job_key(&req));
    }

    let cache = ResultCache::new(None);
    let mut artifacts: Vec<(u64, Artifacts)> = Vec::new();
    let mut artifact_bytes = Vec::new();
    let mut residual_ms = Vec::new();
    let healthz_p50_s = median(&tracer.secs("lab.http.healthz"));
    for (op, (req, rtt_s, served)) in sample.iter().enumerate() {
        let op = op as u64;
        let t = Instant::now();
        let exec = tracer.span("lab.runner.execute", 0, op, |_| {
            runner::execute(req, CancelToken::new())
        });
        let exec_s = t.elapsed().as_secs_f64();
        tracer.span("lab.runner.replay", 0, op, |id| {
            replay_steps(req, tracer, op, id)
        });
        let a = exec.artifacts;
        if a.result != *served {
            problems.push(format!(
                "runner::execute replay of {req:?} differs from the served body"
            ));
        }
        artifact_bytes
            .push((a.result.len() + a.profile.len() + a.report.len() + a.trace.len()) as f64);
        artifacts.push((identity::job_key(req), a));
        residual_ms.push((rtt_s - healthz_p50_s - exec_s) * 1e3);
    }
    for (i, (key, art)) in artifacts.into_iter().enumerate() {
        tracer.span("lab.cache.fill", 0, i as u64, |_| {
            let _ = cache.claim(key);
            cache.fill(key, art)
        });
    }
    for (i, (req, _, _)) in sample.iter().enumerate() {
        let key = identity::job_key(req);
        tracer.span("lab.cache.peek", 0, i as u64, |_| cache.peek(key));
    }

    let ms = |name: &str| median(&tracer.secs(name)) * 1e3;
    let us = |name: &str| median(&tracer.secs(name)) * 1e6;
    let exec_ms: Vec<f64> = tracer
        .secs("lab.runner.execute")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let first = st.windows.first().cloned().unwrap_or_default();
    let d = &first.delta;
    let issued = first.issued.max(1) as f64;
    out.extend([
        Metric::new("lab.http.healthz_p50_ms", healthz_p50_s * 1e3, "ms"),
        Metric::new("lab.http.loopback_p50_ms", ms("lab.http.loopback"), "ms"),
        Metric::new("lab.http.parse_us", us("lab.http.parse"), "us"),
        Metric::new("lab.api.decode_us", us("lab.api.decode"), "us"),
        Metric::new("lab.identity.key_us", us("lab.identity.key"), "us"),
        Metric::new(
            "lab.cache.hit_rate",
            (d.cache_hits + d.coalesced) as f64 / issued,
            "ratio",
        ),
        Metric::new("lab.cache.hits", d.cache_hits as f64, "count"),
        Metric::new("lab.cache.misses", d.cache_misses as f64, "count"),
        Metric::new("lab.cache.coalesced", d.coalesced as f64, "count"),
        Metric::new("lab.server.runs_executed", d.runs_executed as f64, "count"),
        Metric::new("lab.cache.peek_us", us("lab.cache.peek"), "us"),
        Metric::new("lab.cache.fill_us", us("lab.cache.fill"), "us"),
        Metric::new(
            "lab.runner.execute_p50_ms",
            percentile(&exec_ms, 0.50),
            "ms",
        ),
        Metric::new(
            "lab.runner.execute_p99_ms",
            percentile(&exec_ms, 0.99),
            "ms",
        ),
        Metric::new("lab.runner.world_ms", ms("lab.runner.world"), "ms"),
        Metric::new("check.analyze_ms", ms("check.analyze"), "ms"),
        Metric::new("prof.profile_ms", ms("prof.profile"), "ms"),
        Metric::new("prof.trace_json_ms", ms("prof.trace_json"), "ms"),
        Metric::new("lab.runner.artifact_bytes", median(&artifact_bytes), "B"),
        Metric::new("lab.server.residual_p50_ms", median(&residual_ms), "ms"),
        Metric::new(
            "lab.known_defect.failed",
            st.known_defect_failed as f64,
            "count",
        ),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issued(clients: usize, seed: u64) -> Vec<String> {
        let reqs = Requests::new(seed);
        let far = Instant::now() + Duration::from_secs(600);
        drive(clients, 300, far, |i| {
            serde_json::to_string(&reqs.get(i)).expect("json")
        })
        .into_iter()
        .map(|(_, body)| body)
        .collect()
    }

    #[test]
    fn the_request_sequence_depends_on_the_seed_not_the_client_count() {
        let one = issued(1, 7);
        assert_eq!(one.len(), 300);
        assert_eq!(one, issued(2, 7), "2 clients");
        assert_eq!(one, issued(8, 7), "8 clients");
        assert_ne!(one, issued(1, 8), "the seed matters");
    }
}
