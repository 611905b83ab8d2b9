//! Wire types of the lab server's JSON API (see `docs/lab.md`).
//!
//! Everything here is a plain serde struct with `Option` fields for
//! request knobs, so a minimal request is just
//! `{"module":"stencil","size":1024,"ranks":8}`. Enumerations are
//! carried as strings on the wire (`status`, `backend`, `cache`) to keep
//! the HTTP surface stable and greppable.

use pdc_mpi::FaultPlan;
use serde::{Deserialize, Serialize};

/// A run request (`POST /run` or `POST /jobs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRequest {
    /// Which pedagogic module to run: `ring`, `distance`, `sort`,
    /// `stencil`, or `topk`.
    pub module: String,
    /// Problem size (total elements / points across all ranks).
    pub size: u64,
    /// World size in MPI ranks.
    pub ranks: u64,
    /// Accepted for compatibility with older clients; selects nothing
    /// (the event engine behind `virtual` runs is single-threaded) and is
    /// not part of the job's identity.
    pub workers: Option<u64>,
    /// Deterministic seed for data generation and the event engine's
    /// schedule (default 0).
    pub seed: Option<u64>,
    /// `virtual` (default; seeded event engine, deterministic,
    /// cacheable) or `thread` (OS-scheduled, never cached). `proc` is
    /// rejected: the server is itself multi-threaded.
    pub backend: Option<String>,
    /// Deterministic fault-injection plan; `None` runs a perfect machine.
    pub fault_plan: Option<FaultPlan>,
    /// Tenant the job is accounted to (default `anon`).
    pub tenant: Option<String>,
    /// Per-job priority boost on top of the tenant's base priority.
    pub priority: Option<i64>,
    /// Wall-clock deadline for the job in milliseconds (default: the
    /// server's `--deadline-ms`). Jobs past the deadline are killed and
    /// reported as `timed_out` — never a hung request.
    pub deadline_ms: Option<u64>,
}

impl RunRequest {
    /// A minimal request with every optional knob at its default.
    pub fn new(module: impl Into<String>, size: u64, ranks: u64) -> Self {
        Self {
            module: module.into(),
            size,
            ranks,
            workers: None,
            seed: None,
            backend: None,
            fault_plan: None,
            tenant: None,
            priority: None,
            deadline_ms: None,
        }
    }

    /// Effective backend string (`virtual` unless overridden).
    pub fn backend_or_default(&self) -> &str {
        self.backend.as_deref().unwrap_or("virtual")
    }

    /// Effective worker count (see [`RunRequest::workers`]).
    pub fn workers_or_default(&self) -> usize {
        self.workers.unwrap_or(4).max(1) as usize
    }

    /// Effective seed.
    pub fn seed_or_default(&self) -> u64 {
        self.seed.unwrap_or(0)
    }

    /// Effective tenant name.
    pub fn tenant_or_default(&self) -> &str {
        self.tenant.as_deref().unwrap_or("anon")
    }
}

/// Terminal and in-flight states of a lab job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the fair-share queue (includes requeued preemptees).
    Queued,
    /// Executing on a worker slot.
    Running,
    /// Finished; artifacts are available.
    Done,
    /// The run returned a deterministic error (deadlock, injected fault,
    /// invalid request); the diagnosis rides in the artifacts.
    Failed,
    /// Killed at its wall-clock deadline (deadlocked or over quota); the
    /// kill reason and checker diagnosis ride in the artifacts.
    TimedOut,
}

impl JobStatus {
    /// Wire string for the status (`queued`, `running`, `done`,
    /// `failed`, `timed_out`).
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::TimedOut => "timed_out",
        }
    }

    /// Has the job reached a terminal state?
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed | JobStatus::TimedOut
        )
    }
}

/// How a request met the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Identity already cached: artifacts served without running.
    Hit,
    /// First sighting of this identity: the request ran the job.
    Miss,
    /// An identical job was already in flight: this request waited for
    /// it instead of running its own.
    Coalesced,
    /// The request is not cacheable (thread backend).
    Uncached,
}

impl CacheDisposition {
    /// Wire string (`hit` / `miss` / `coalesced` / `uncached`).
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Coalesced => "coalesced",
            CacheDisposition::Uncached => "uncached",
        }
    }
}

/// Status document for `GET /jobs/<id>`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobInfo {
    /// Server-assigned job id.
    pub job_id: u64,
    /// Wire status string (see [`JobStatus::as_str`]).
    pub status: String,
    /// Tenant the job is accounted to.
    pub tenant: String,
    /// Cache identity key (hex), absent for uncached jobs.
    pub key: Option<String>,
    /// Error message for `failed` / `timed_out` jobs.
    pub error: Option<String>,
    /// Times the job was preempted and requeued.
    pub preemptions: u64,
}

/// Tenant policy document for `PUT /tenants/<name>` (all fields
/// optional; omitted fields keep the default).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantDoc {
    /// Fair-share weight (default 1.0).
    pub weight: Option<f64>,
    /// Base priority for the tenant's jobs (default 0).
    pub priority: Option<i64>,
    /// Max concurrently running jobs (default unlimited).
    pub max_running: Option<u64>,
}

/// Server counters for `GET /stats`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Jobs accepted (cache hits included).
    pub submitted: u64,
    /// Jobs that reached `done`.
    pub done: u64,
    /// Jobs that reached `failed`.
    pub failed: u64,
    /// Jobs that reached `timed_out`.
    pub timed_out: u64,
    /// Requests served straight from the cache.
    pub cache_hits: u64,
    /// Requests that ran because their identity was not cached.
    pub cache_misses: u64,
    /// Requests that waited on an identical in-flight job.
    pub coalesced: u64,
    /// Module executions actually performed (the coalescing proof:
    /// duplicates share one execution).
    pub runs_executed: u64,
    /// Preemptions performed by the fair-share scheduler.
    pub preemptions: u64,
    /// Jobs currently waiting in the queue.
    pub waiting: u64,
    /// Jobs currently executing.
    pub running: u64,
}

/// The bundle of artifacts one executed job produces. Every field is
/// the exact byte string served over HTTP — for deterministic
/// (virtual-backend) jobs the whole bundle is byte-identical across
/// re-runs, which is what makes content-addressed caching sound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Artifacts {
    /// Terminal status the execution reached (`done` / `failed`).
    pub status: String,
    /// Error rendered from the run outcome, if it failed.
    pub error: Option<String>,
    /// Module results summary JSON (`GET /jobs/<id>/result`, and the
    /// body of a `POST /run` response).
    pub result: String,
    /// pdc-prof Profile JSON (`GET /jobs/<id>/profile`).
    pub profile: String,
    /// pdc-check Report JSON (`GET /jobs/<id>/report`).
    pub report: String,
    /// Enriched Chrome trace JSON (`GET /jobs/<id>/trace`).
    pub trace: String,
}
