//! The lab server: accept loop, HTTP worker pool, executor pool,
//! deadline watchdog, and the glue between the fair-share queue
//! ([`pdc_cluster::tenant`]), the result cache ([`crate::cache`]), and
//! the runner ([`crate::runner`]).
//!
//! ## Threading layout
//!
//! * one **accept** thread — non-blocking accept, feeds connections to a
//!   channel, exits on drain;
//! * `http_workers` **HTTP** threads — parse a request, route it, write
//!   the response; a synchronous `/run` blocks its worker until the job
//!   is terminal (or its deadline passes — never forever);
//! * `executors` **executor** threads — the machine's "slots". Each
//!   loops: ask the fair-share queue for the best admissible job, run it
//!   with a fresh [`CancelToken`], retire or requeue it;
//! * one **watchdog** thread — kills running jobs past their wall-clock
//!   deadline (typed `timed_out`, with the checker's diagnosis in the
//!   artifacts) and expires queued jobs that never got a slot.
//!
//! ## Preemption
//!
//! Submission checks [`FairShare::preemption_victim`]: when every slot
//! is busy and the incoming job outranks the weakest running job by the
//! configured margin, the victim's token is cancelled with a
//! `preempted:` reason. Its executor observes
//! [`Error::Cancelled`](pdc_mpi::Error::Cancelled), requeues the job
//! (aging credit intact) and picks the best job again — usually the
//! challenger. Preempted runs restart from scratch;
//! determinism makes that safe, and the result cache means the lost
//! work is at most one run of the job.

use crate::api::{
    Artifacts, CacheDisposition, JobInfo, JobStatus, RunRequest, ServerStats, TenantDoc,
};
use crate::cache::{Claim, ResultCache};
use crate::http::{self, Request};
use crate::identity::{job_key, key_hex};
use crate::runner;
use pdc_cluster::tenant::{FairShare, FairShareConfig, TenantPolicy};
use pdc_mpi::CancelToken;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Server configuration (see the `pdc_lab` binary for the CLI).
#[derive(Debug, Clone)]
pub struct LabConfig {
    /// Bind address, e.g. `127.0.0.1:7070` (`:0` picks a free port).
    pub addr: String,
    /// Executor slots (concurrent module runs).
    pub executors: usize,
    /// HTTP worker threads (each synchronous `/run` occupies one).
    pub http_workers: usize,
    /// Cache persistence directory; `None` keeps the cache in memory.
    pub cache_dir: Option<PathBuf>,
    /// Default per-job wall-clock deadline in milliseconds.
    pub deadline_ms: u64,
    /// Fair-share policy knobs.
    pub fair: FairShareConfig,
}

impl Default for LabConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            executors: 2,
            http_workers: 16,
            cache_dir: None,
            deadline_ms: 30_000,
            fair: FairShareConfig::default(),
        }
    }
}

#[derive(Debug, Clone)]
struct JobEntry {
    request: RunRequest,
    status: JobStatus,
    /// Cache identity, for cacheable (virtual-backend) jobs.
    key: Option<u64>,
    /// True when this job owns the cache's in-flight entry for `key`
    /// and must fill or abandon it.
    owner: bool,
    /// True for an async job riding an identical in-flight owner: it is
    /// never scheduled; the owner's completion resolves it.
    linked: bool,
    /// Cancellation handle of the current execution attempt.
    cancel: Option<CancelToken>,
    tenant: String,
    error: Option<String>,
    artifacts: Option<Arc<Artifacts>>,
    deadline: Instant,
    preemptions: u64,
}

struct LabState {
    fair: FairShare,
    jobs: BTreeMap<u64, JobEntry>,
}

struct Shared {
    state: Mutex<LabState>,
    /// Executors wait here for runnable jobs.
    work_cv: Condvar,
    /// HTTP threads wait here for job completion.
    done_cv: Condvar,
    cache: ResultCache,
    draining: AtomicBool,
    epoch: Instant,
    deadline_ms: u64,
    executors: usize,
    // Counters for /stats.
    submitted: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    timed_out: AtomicU64,
    runs_executed: AtomicU64,
}

fn lock_state<'a>(shared: &'a Shared) -> MutexGuard<'a, LabState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn stats(&self) -> ServerStats {
        let st = lock_state(self);
        ServerStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            done: self.done.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            cache_hits: self.cache.counters.hits.load(Ordering::Relaxed),
            cache_misses: self.cache.counters.misses.load(Ordering::Relaxed),
            coalesced: self.cache.counters.coalesced.load(Ordering::Relaxed),
            runs_executed: self.runs_executed.load(Ordering::Relaxed),
            preemptions: st.fair.preemption_count(),
            waiting: st.fair.waiting_len() as u64,
            running: st.fair.running_len() as u64,
        }
    }
}

/// A running lab server. Dropping the handle drains and joins it.
pub struct LabHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    executor_threads: Vec<std::thread::JoinHandle<()>>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    http_threads: Vec<std::thread::JoinHandle<()>>,
    watchdog_thread: Option<std::thread::JoinHandle<()>>,
    stop_accept: Arc<AtomicBool>,
    stop_watchdog: Arc<AtomicBool>,
}

impl LabHandle {
    /// The actual bound address (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Has a drain been requested (SIGTERM handler or `POST /shutdown`)?
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Request a drain without blocking: stop accepting work; in-flight
    /// jobs and responses complete.
    pub fn trigger_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
        self.shared.done_cv.notify_all();
    }

    /// Server counters (same numbers as `GET /stats`).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Drain and join every thread, in dependency order: executors
    /// first (they empty the queue — the watchdog stays alive so a
    /// deadline kill can still unwedge them), then the accept loop and
    /// HTTP workers (clients can poll `/jobs` and `/stats` for as long
    /// as jobs are finishing), the watchdog last. Idempotent.
    pub fn shutdown(&mut self) {
        self.trigger_drain();
        for t in self.executor_threads.drain(..) {
            let _ = t.join();
        }
        self.stop_accept.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // The accept thread dropped the channel sender; workers drain
        // what's queued and exit.
        for t in self.http_threads.drain(..) {
            let _ = t.join();
        }
        self.stop_watchdog.store(true, Ordering::SeqCst);
        if let Some(t) = self.watchdog_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for LabHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind and launch the server. Returns once every thread is up.
pub fn start(config: LabConfig) -> std::io::Result<LabHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let shared = Arc::new(Shared {
        state: Mutex::new(LabState {
            fair: FairShare::new(config.fair),
            jobs: BTreeMap::new(),
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        cache: ResultCache::new(config.cache_dir.clone()),
        draining: AtomicBool::new(false),
        epoch: Instant::now(),
        deadline_ms: config.deadline_ms,
        executors: config.executors.max(1),
        submitted: AtomicU64::new(0),
        done: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        timed_out: AtomicU64::new(0),
        runs_executed: AtomicU64::new(0),
    });
    let stop_accept = Arc::new(AtomicBool::new(false));
    let stop_watchdog = Arc::new(AtomicBool::new(false));

    // Accept loop.
    let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = channel();
    let accept_thread = {
        let stop = Arc::clone(&stop_accept);
        Some(
            std::thread::Builder::new()
                .name("lab-accept".into())
                .spawn(move || accept_loop(listener, tx, &stop))
                .expect("spawn accept thread"),
        )
    };

    // HTTP workers share the receiver.
    let rx = Arc::new(Mutex::new(rx));
    let mut http_threads = Vec::new();
    for i in 0..config.http_workers.max(1) {
        let rx = Arc::clone(&rx);
        let shared = Arc::clone(&shared);
        http_threads.push(
            std::thread::Builder::new()
                .name(format!("lab-http-{i}"))
                .spawn(move || loop {
                    let conn = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                    match conn {
                        Ok(mut stream) => handle_connection(&shared, &mut stream),
                        Err(_) => return, // accept loop gone: drain done
                    }
                })
                .expect("spawn http worker"),
        );
    }

    // Executors.
    let mut executor_threads = Vec::new();
    for i in 0..shared.executors {
        let shared = Arc::clone(&shared);
        executor_threads.push(
            std::thread::Builder::new()
                .name(format!("lab-exec-{i}"))
                .spawn(move || executor_loop(&shared))
                .expect("spawn executor"),
        );
    }

    // Deadline watchdog.
    let watchdog_thread = {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop_watchdog);
        Some(
            std::thread::Builder::new()
                .name("lab-watchdog".into())
                .spawn(move || watchdog_loop(&shared, &stop))
                .expect("spawn watchdog"),
        )
    };

    Ok(LabHandle {
        addr,
        shared,
        executor_threads,
        accept_thread,
        http_threads,
        watchdog_thread,
        stop_accept,
        stop_watchdog,
    })
}

/// Accept until told to stop. Draining does NOT stop the accept loop —
/// clients poll job status and stats while the queue empties; the
/// submit handlers refuse new work with 503 instead.
fn accept_loop(listener: TcpListener, tx: Sender<TcpStream>, stop: &AtomicBool) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return; // drops tx; HTTP workers drain the channel and exit
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                if tx.send(stream).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

// ---------------------------------------------------------------------------
// Executors

fn executor_loop(shared: &Shared) {
    loop {
        // Claim the best admissible job, or exit once draining finds the
        // queue empty.
        let claimed = {
            let mut st = lock_state(shared);
            loop {
                let now = shared.now();
                if let Some(id) = st.fair.pick(now) {
                    let token = CancelToken::new();
                    let entry = st.jobs.get_mut(&id).expect("picked job has an entry");
                    entry.status = JobStatus::Running;
                    entry.cancel = Some(token.clone());
                    break Some((id, entry.request.clone(), token));
                }
                if shared.draining.load(Ordering::SeqCst) && st.fair.waiting_len() == 0 {
                    break None;
                }
                st = shared
                    .work_cv
                    .wait_timeout(st, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        let Some((id, request, token)) = claimed else {
            return;
        };

        shared.runs_executed.fetch_add(1, Ordering::Relaxed);
        let outcome = runner::execute(&request, token);
        retire(shared, id, outcome);
    }
}

/// Fold an execution outcome back into the job table, cache, and queue.
fn retire(shared: &Shared, id: u64, outcome: runner::ExecOutcome) {
    let mut st = lock_state(shared);
    let now = shared.now();

    // Did the watchdog force-mark this job terminal while the runner was
    // still unwinding? Its public state (status, counter, cache abandon)
    // is already settled; this retire only reclaims the worker slot.
    let force_marked = st.jobs.get(&id).is_some_and(|e| e.status.is_terminal());

    // Preempted: requeue from scratch (aging credit survives inside the
    // fair-share queue) and let the executor pick again.
    if let Some(reason) = &outcome.cancelled {
        if reason.starts_with("preempted:") && !force_marked {
            st.fair.preempted(id, now);
            if let Some(entry) = st.jobs.get_mut(&id) {
                entry.status = JobStatus::Queued;
                entry.cancel = None;
                entry.preemptions += 1;
            }
            drop(st);
            shared.work_cv.notify_all();
            return;
        }
    }

    st.fair.finish(id, now);
    let entry = st.jobs.get_mut(&id).expect("retiring job has an entry");
    let status = if force_marked {
        entry.status
    } else if outcome.cancelled.is_some() {
        JobStatus::TimedOut
    } else {
        outcome.status
    };
    if !force_marked {
        entry.status = status;
        entry.error = outcome.artifacts.error.clone().or(outcome.cancelled);
    }
    let key = entry.key;
    let owner = entry.owner;

    // A force-marked owner's cache slot was already abandoned; never
    // fill it afterwards (the caller was told to retry, not promised
    // this result).
    let art = if owner && outcome.cacheable && !force_marked {
        shared
            .cache
            .fill(key.expect("owners have a key"), outcome.artifacts)
    } else {
        if let Some(k) = key {
            if owner && !force_marked {
                shared.cache.abandon(k);
            }
        }
        Arc::new(outcome.artifacts)
    };
    if entry.artifacts.is_none() {
        entry.artifacts = Some(Arc::clone(&art));
    }
    let err = entry.error.clone();

    // Resolve async jobs linked to this identity.
    if let Some(k) = key {
        if owner {
            for linked in st
                .jobs
                .values_mut()
                .filter(|j| j.linked && j.key == Some(k))
            {
                linked.status = status;
                linked.artifacts = Some(Arc::clone(&art));
                linked.error = err.clone();
                bump_terminal_counter(shared, status);
            }
        }
    }
    if !force_marked {
        bump_terminal_counter(shared, status);
    }
    drop(st);
    shared.done_cv.notify_all();
    shared.work_cv.notify_all();
}

fn bump_terminal_counter(shared: &Shared, status: JobStatus) {
    let counter = match status {
        JobStatus::Done => &shared.done,
        JobStatus::Failed => &shared.failed,
        JobStatus::TimedOut => &shared.timed_out,
        _ => return,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Watchdog

/// How long after its deadline a cancelled-but-still-running job may
/// keep unwinding before the watchdog force-marks it `timed_out`. The
/// cancel token is cooperative — the runner observes it at its next
/// blocking call — so on a loaded host the unwind can outlast a caller's
/// synchronous wait budget (deadline + 2 s); the grace stays under that
/// so the caller always sees a terminal state *with* the counters and
/// cache already settled.
const FORCE_MARK_GRACE: Duration = Duration::from_millis(1_000);

fn watchdog_loop(shared: &Shared, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        {
            let mut st = lock_state(shared);
            let wall = Instant::now();
            let mut expired_queued: Vec<u64> = Vec::new();
            let mut overdue_running: Vec<u64> = Vec::new();
            for (&id, entry) in st.jobs.iter() {
                if entry.status.is_terminal() || entry.linked || wall < entry.deadline {
                    continue;
                }
                match entry.status {
                    JobStatus::Running => {
                        // Kill the run; the executor turns the typed
                        // cancellation into `timed_out` + diagnosis.
                        if let Some(token) = &entry.cancel {
                            token.cancel(&format!(
                                "deadline: job {id} exceeded its wall-clock budget; \
                                 killed by the lab watchdog"
                            ));
                        }
                        if wall >= entry.deadline + FORCE_MARK_GRACE {
                            overdue_running.push(id);
                        }
                    }
                    JobStatus::Queued => expired_queued.push(id),
                    _ => {}
                }
            }
            // Past deadline + grace and still unwinding: settle the
            // job's public state now (status, counter, coalesced
            // waiters) instead of waiting on the runner. `retire` sees
            // the terminal status later and leaves it alone.
            for id in overdue_running {
                let entry = st.jobs.get_mut(&id).expect("overdue job has an entry");
                entry.status = JobStatus::TimedOut;
                entry.error = Some(format!(
                    "deadline: job {id} exceeded its wall-clock budget; killed by \
                     the lab watchdog (runner still unwinding past the grace period)"
                ));
                if entry.owner {
                    if let Some(k) = entry.key {
                        shared.cache.abandon(k);
                    }
                }
                shared.timed_out.fetch_add(1, Ordering::Relaxed);
            }
            for id in expired_queued {
                st.fair.cancel_waiting(id);
                let entry = st.jobs.get_mut(&id).expect("expired job has an entry");
                entry.status = JobStatus::TimedOut;
                entry.error = Some(format!(
                    "deadline: job {id} spent its whole wall-clock budget queued \
                     (cluster saturated or tenant over quota)"
                ));
                if entry.owner {
                    if let Some(k) = entry.key {
                        shared.cache.abandon(k);
                    }
                }
                shared.timed_out.fetch_add(1, Ordering::Relaxed);
            }
        }
        shared.done_cv.notify_all();
        std::thread::sleep(Duration::from_millis(20));
    }
}

// ---------------------------------------------------------------------------
// Submission

struct Submission {
    job_id: Option<u64>,
    disposition: CacheDisposition,
    key: Option<u64>,
    /// Ready artifacts when the submission was a cache hit.
    hit: Option<Arc<Artifacts>>,
}

/// Register a job (sync and async paths share this). For a cache hit no
/// job is scheduled; for an in-flight duplicate, `link_async` decides
/// whether to register a linked async job (`POST /jobs`) or none at all
/// (`POST /run` — the HTTP thread waits on the cache directly).
fn submit(shared: &Shared, request: &RunRequest, link_async: bool) -> Submission {
    shared.submitted.fetch_add(1, Ordering::Relaxed);
    let cacheable = request.backend_or_default() == "virtual";
    let deadline_ms = request.deadline_ms.unwrap_or(shared.deadline_ms);
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);

    let (disposition, key, owner) = if cacheable {
        let key = job_key(request);
        match shared.cache.claim(key) {
            Claim::Hit(art) => {
                let job_id = if link_async {
                    Some(register_terminal(shared, request, key, &art))
                } else {
                    None
                };
                return Submission {
                    job_id,
                    disposition: CacheDisposition::Hit,
                    key: Some(key),
                    hit: Some(art),
                };
            }
            Claim::InFlight => {
                let job_id = if link_async {
                    Some(register_linked(shared, request, key, deadline))
                } else {
                    None
                };
                return Submission {
                    job_id,
                    disposition: CacheDisposition::Coalesced,
                    key: Some(key),
                    hit: None,
                };
            }
            Claim::Owner => (CacheDisposition::Miss, Some(key), true),
        }
    } else {
        (CacheDisposition::Uncached, None, false)
    };

    let tenant = request.tenant_or_default().to_string();
    let priority = request.priority.unwrap_or(0);
    let mut st = lock_state(shared);
    let now = shared.now();
    let id = st.fair.submit(tenant.clone(), priority, now);
    st.jobs.insert(
        id,
        JobEntry {
            request: request.clone(),
            status: JobStatus::Queued,
            key,
            owner,
            linked: false,
            cancel: None,
            tenant,
            error: None,
            artifacts: None,
            deadline,
            preemptions: 0,
        },
    );
    // Preemption check: only when no free slot exists.
    if st.fair.running_len() >= shared.executors {
        if let Some((victim, challenger)) = st.fair.preemption_victim(now) {
            if let Some(victim_entry) = st.jobs.get(&victim) {
                if victim_entry.status == JobStatus::Running {
                    if let Some(token) = &victim_entry.cancel {
                        token.cancel(&format!(
                            "preempted: displaced by higher-priority job {challenger}"
                        ));
                    }
                }
            }
        }
    }
    drop(st);
    shared.work_cv.notify_all();
    Submission {
        job_id: Some(id),
        disposition,
        key,
        hit: None,
    }
}

/// An async job answered straight from the cache: terminal on arrival.
fn register_terminal(shared: &Shared, request: &RunRequest, key: u64, art: &Arc<Artifacts>) -> u64 {
    let mut st = lock_state(shared);
    let now = shared.now();
    // Reserve an id through the queue without scheduling anything.
    let id = st
        .fair
        .submit(request.tenant_or_default().to_string(), 0, now);
    st.fair.cancel_waiting(id);
    let status = if art.status == "done" {
        JobStatus::Done
    } else {
        JobStatus::Failed
    };
    st.jobs.insert(
        id,
        JobEntry {
            request: request.clone(),
            status,
            key: Some(key),
            owner: false,
            linked: false,
            cancel: None,
            tenant: request.tenant_or_default().to_string(),
            error: art.error.clone(),
            artifacts: Some(Arc::clone(art)),
            deadline: Instant::now(),
            preemptions: 0,
        },
    );
    id
}

/// An async job coalesced onto an identical in-flight owner.
fn register_linked(shared: &Shared, request: &RunRequest, key: u64, deadline: Instant) -> u64 {
    let mut st = lock_state(shared);
    let now = shared.now();
    let id = st
        .fair
        .submit(request.tenant_or_default().to_string(), 0, now);
    st.fair.cancel_waiting(id);
    st.jobs.insert(
        id,
        JobEntry {
            request: request.clone(),
            status: JobStatus::Queued,
            key: Some(key),
            owner: false,
            linked: true,
            cancel: None,
            tenant: request.tenant_or_default().to_string(),
            error: None,
            artifacts: None,
            deadline,
            preemptions: 0,
        },
    );
    id
}

// ---------------------------------------------------------------------------
// HTTP routing

fn handle_connection(shared: &Shared, stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let request = match http::read_request(stream) {
        Ok(r) => r,
        Err(msg) => {
            http::error(stream, 400, "Bad Request", &msg);
            return;
        }
    };
    route(shared, stream, &request);
}

fn route(shared: &Shared, stream: &mut TcpStream, req: &Request) {
    let path = req.path.trim_end_matches('/');
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => http::json(stream, 200, "OK", &[], "{\"ok\":true}"),
        ("GET", "/stats") => {
            let body = serde_json::to_string(&shared.stats()).unwrap_or_default();
            http::json(stream, 200, "OK", &[], &body);
        }
        ("POST", "/run") => handle_run(shared, stream, &req.body),
        ("POST", "/jobs") => handle_async_submit(shared, stream, &req.body),
        ("POST", "/shutdown") => {
            http::json(stream, 200, "OK", &[], "{\"draining\":true}");
            shared.draining.store(true, Ordering::SeqCst);
            shared.work_cv.notify_all();
            shared.done_cv.notify_all();
        }
        ("GET", _) if path.starts_with("/jobs/") => handle_job_get(shared, stream, path),
        ("PUT", _) if path.starts_with("/tenants/") => {
            handle_tenant_put(shared, stream, path, &req.body)
        }
        _ => http::error(
            stream,
            404,
            "Not Found",
            &format!("no route for {} {path}", req.method),
        ),
    }
}

fn parse_request_body(body: &[u8]) -> Result<RunRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    serde_json::from_str::<RunRequest>(text).map_err(|e| format!("bad request body: {e:?}"))
}

fn observability_headers(
    disposition: CacheDisposition,
    job_id: Option<u64>,
    key: Option<u64>,
    status: Option<&str>,
) -> Vec<(String, String)> {
    let mut headers = vec![("X-Pdc-Cache".to_string(), disposition.as_str().to_string())];
    if let Some(id) = job_id {
        headers.push(("X-Pdc-Job".to_string(), id.to_string()));
    }
    if let Some(k) = key {
        headers.push(("X-Pdc-Key".to_string(), key_hex(k)));
    }
    if let Some(s) = status {
        headers.push(("X-Pdc-Status".to_string(), s.to_string()));
    }
    headers
}

/// `POST /run`: submit and wait. The response body is the `result`
/// artifact — byte-identical for every request sharing an identity, no
/// matter whether it ran, hit the cache, or coalesced.
fn handle_run(shared: &Shared, stream: &mut TcpStream, body: &[u8]) {
    if shared.draining.load(Ordering::SeqCst) {
        http::error(stream, 503, "Service Unavailable", "server is draining");
        return;
    }
    let request = match parse_request_body(body) {
        Ok(r) => r,
        Err(msg) => {
            http::error(stream, 400, "Bad Request", &msg);
            return;
        }
    };
    if let Some(msg) = runner::validate(&request) {
        shared.submitted.fetch_add(1, Ordering::Relaxed);
        http::error(stream, 400, "Bad Request", &msg);
        return;
    }
    let deadline_ms = request.deadline_ms.unwrap_or(shared.deadline_ms);
    let wait_budget = Duration::from_millis(deadline_ms.saturating_add(2_000));
    let sub = submit(shared, &request, false);

    match sub.disposition {
        CacheDisposition::Hit => {
            let art = sub.hit.expect("hit carries artifacts");
            let headers =
                observability_headers(CacheDisposition::Hit, None, sub.key, Some(&art.status));
            http::json(stream, 200, "OK", &headers, &art.result);
        }
        CacheDisposition::Coalesced => {
            match shared
                .cache
                .wait(sub.key.expect("coalesced has a key"), wait_budget)
            {
                Ok(Some(art)) => {
                    let headers = observability_headers(
                        CacheDisposition::Coalesced,
                        None,
                        sub.key,
                        Some(&art.status),
                    );
                    http::json(stream, 200, "OK", &headers, &art.result);
                }
                Ok(None) => http::error(
                    stream,
                    504,
                    "Gateway Timeout",
                    "the in-flight job owning this identity was killed before finishing; retry",
                ),
                Err(crate::cache::WaitTimeout) => http::error(
                    stream,
                    504,
                    "Gateway Timeout",
                    "deadline passed while waiting for the identical in-flight job",
                ),
            }
        }
        CacheDisposition::Miss | CacheDisposition::Uncached => {
            let id = sub.job_id.expect("scheduled submission has a job id");
            match wait_terminal(shared, id, wait_budget) {
                Some((status, Some(art), _)) => {
                    let headers = observability_headers(
                        sub.disposition,
                        Some(id),
                        sub.key,
                        Some(status.as_str()),
                    );
                    let code = if status == JobStatus::TimedOut {
                        504
                    } else {
                        200
                    };
                    let reason = if code == 200 { "OK" } else { "Gateway Timeout" };
                    http::json(stream, code, reason, &headers, &art.result);
                }
                Some((status, None, error)) => {
                    let msg = error.unwrap_or_else(|| "job finished without artifacts".into());
                    let headers = observability_headers(
                        sub.disposition,
                        Some(id),
                        sub.key,
                        Some(status.as_str()),
                    );
                    let code = if status == JobStatus::TimedOut {
                        504
                    } else {
                        500
                    };
                    http::error_with(stream, code, "Job Error", &headers, &msg);
                }
                None => {
                    // The watchdog should have forced a terminal state;
                    // from the caller's side this is still a timeout.
                    let headers = observability_headers(
                        sub.disposition,
                        Some(id),
                        sub.key,
                        Some(JobStatus::TimedOut.as_str()),
                    );
                    http::error_with(
                        stream,
                        504,
                        "Gateway Timeout",
                        &headers,
                        "job did not reach a terminal state within its deadline",
                    );
                }
            }
        }
    }
}

/// Block until job `id` is terminal (the watchdog guarantees progress).
fn wait_terminal(
    shared: &Shared,
    id: u64,
    budget: Duration,
) -> Option<(JobStatus, Option<Arc<Artifacts>>, Option<String>)> {
    let deadline = Instant::now() + budget;
    let mut st = lock_state(shared);
    loop {
        match st.jobs.get(&id) {
            Some(entry) if entry.status.is_terminal() => {
                return Some((entry.status, entry.artifacts.clone(), entry.error.clone()));
            }
            Some(_) => {}
            None => return None,
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return None;
        }
        st = shared
            .done_cv
            .wait_timeout(st, left)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
}

/// `POST /jobs`: submit without waiting; poll `GET /jobs/<id>`.
fn handle_async_submit(shared: &Shared, stream: &mut TcpStream, body: &[u8]) {
    if shared.draining.load(Ordering::SeqCst) {
        http::error(stream, 503, "Service Unavailable", "server is draining");
        return;
    }
    let request = match parse_request_body(body) {
        Ok(r) => r,
        Err(msg) => {
            http::error(stream, 400, "Bad Request", &msg);
            return;
        }
    };
    if let Some(msg) = runner::validate(&request) {
        shared.submitted.fetch_add(1, Ordering::Relaxed);
        http::error(stream, 400, "Bad Request", &msg);
        return;
    }
    let sub = submit(shared, &request, true);
    let id = sub.job_id.expect("async submissions always register a job");
    let key = sub
        .key
        .map(|k| format!("\"{}\"", key_hex(k)))
        .unwrap_or_else(|| "null".into());
    let body = format!(
        "{{\"job_id\":{id},\"cache\":\"{}\",\"key\":{key}}}",
        sub.disposition.as_str()
    );
    let headers = observability_headers(sub.disposition, Some(id), sub.key, None);
    http::json(stream, 202, "Accepted", &headers, &body);
}

/// `GET /jobs/<id>` and `GET /jobs/<id>/<artifact>`.
fn handle_job_get(shared: &Shared, stream: &mut TcpStream, path: &str) {
    let rest = &path["/jobs/".len()..];
    let (id_part, artifact) = match rest.split_once('/') {
        Some((id, artifact)) => (id, Some(artifact)),
        None => (rest, None),
    };
    let Ok(id) = id_part.parse::<u64>() else {
        http::error(stream, 400, "Bad Request", "job id must be an integer");
        return;
    };
    let snapshot = {
        let st = lock_state(shared);
        st.jobs.get(&id).cloned()
    };
    let Some(entry) = snapshot else {
        http::error(stream, 404, "Not Found", &format!("no job {id}"));
        return;
    };
    match artifact {
        None => {
            let info = JobInfo {
                job_id: id,
                status: entry.status.as_str().to_string(),
                tenant: entry.tenant.clone(),
                key: entry.key.map(key_hex),
                error: entry.error.clone(),
                preemptions: entry.preemptions,
            };
            let body = serde_json::to_string(&info).unwrap_or_default();
            http::json(stream, 200, "OK", &[], &body);
        }
        Some(name) => {
            let Some(art) = &entry.artifacts else {
                http::json(
                    stream,
                    202,
                    "Accepted",
                    &[],
                    &format!("{{\"status\":\"{}\"}}", entry.status.as_str()),
                );
                return;
            };
            let body = match name {
                "result" => &art.result,
                "profile" => &art.profile,
                "report" => &art.report,
                "trace" => &art.trace,
                _ => {
                    http::error(
                        stream,
                        404,
                        "Not Found",
                        "artifact must be result, profile, report, or trace",
                    );
                    return;
                }
            };
            http::json(stream, 200, "OK", &[], body);
        }
    }
}

/// `PUT /tenants/<name>`: install a tenant policy.
fn handle_tenant_put(shared: &Shared, stream: &mut TcpStream, path: &str, body: &[u8]) {
    let name = &path["/tenants/".len()..];
    if name.is_empty() || name.contains('/') {
        http::error(
            stream,
            400,
            "Bad Request",
            "tenant name must be a single segment",
        );
        return;
    }
    let doc: TenantDoc = match std::str::from_utf8(body)
        .ok()
        .and_then(|t| serde_json::from_str(t).ok())
    {
        Some(d) => d,
        None => {
            http::error(stream, 400, "Bad Request", "bad tenant policy body");
            return;
        }
    };
    let defaults = TenantPolicy::default();
    let policy = TenantPolicy {
        weight: doc.weight.unwrap_or(defaults.weight),
        priority: doc.priority.unwrap_or(defaults.priority),
        max_running: doc
            .max_running
            .map(|m| m as usize)
            .unwrap_or(defaults.max_running),
    };
    if policy.weight <= 0.0 {
        http::error(stream, 400, "Bad Request", "tenant weight must be positive");
        return;
    }
    lock_state(shared).fair.set_policy(name, policy);
    http::json(
        stream,
        200,
        "OK",
        &[],
        &format!("{{\"tenant\":\"{name}\"}}"),
    );
}
