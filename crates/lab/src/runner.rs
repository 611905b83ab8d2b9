//! Executes one lab job: dispatches the requested module onto the pdc
//! runtime with tracing and checker instrumentation enabled, then folds
//! the run into the four artifacts the API serves (results, Profile,
//! Report, Chrome trace).
//!
//! Every module is written once, as a step program ([`LabJob`]). The
//! `virtual` backend runs it on the event engine; the `thread` backend
//! drives the same body thread-per-rank.
//!
//! Determinism contract: on the `virtual` backend every byte of every
//! artifact is a pure function of the request — the event engine replays
//! bit-identically for a fixed `(program, size, seed)`, data generation
//! is seeded, the simulated clock never reads wall time, and nothing
//! wall-clock-dependent (e.g. `RunOutput::wall_time`) is serialized. That
//! is what lets the cache serve byte-identical answers without
//! re-running.

use crate::api::{Artifacts, JobStatus, RunRequest};
use pdc_check::analyze;
use pdc_datagen::Dataset;
use pdc_modules::{module1, module2, module3, module6, module7};
use pdc_mpi::{
    drive, CancelToken, CheckEvent, CheckMode, Comm, Error, ProfContext, Result, RunOutput,
    StepComm, StepFuture, StepProgram, World, WorldConfig,
};
use pdc_prof::{enriched_chrome_json, Profile};
use serde::{Deserialize, Serialize};

/// Hard ceilings protecting the shared server from runaway requests.
pub const MAX_RANKS: u64 = 128;
/// Max problem size (total elements) a request may ask for.
pub const MAX_SIZE: u64 = 1 << 20;

/// What one execution produced.
pub struct ExecOutcome {
    /// Terminal status of the execution. [`JobStatus::TimedOut`] is
    /// never produced here — the server maps a cancellation to it.
    pub status: JobStatus,
    /// Cancellation reason when the run was killed from outside
    /// ([`Error::Cancelled`]); the server distinguishes deadline kills
    /// from preemptions by this string.
    pub cancelled: Option<String>,
    /// The artifact bundle (always present; failures carry a diagnosis).
    pub artifacts: Artifacts,
    /// Whether the outcome is a pure function of the request and may be
    /// cached. False for the thread backend and for cancelled runs.
    pub cacheable: bool,
}

/// The `result` artifact: a compact, deterministic run summary. No
/// wall-clock fields — see the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Module that ran.
    pub module: String,
    /// Problem size requested.
    pub size: u64,
    /// World size in ranks.
    pub ranks: u64,
    /// Seed used.
    pub seed: u64,
    /// Backend used (`virtual` / `thread`).
    pub backend: String,
    /// `done` or `failed`.
    pub status: String,
    /// Error rendered from the run outcome, if any.
    pub error: Option<String>,
    /// Simulated makespan in seconds (0 when the run failed).
    pub sim_time: f64,
    /// Total bytes physically sent by all ranks.
    pub bytes_sent: u64,
    /// Per-rank scalar results (module-specific reduction).
    pub values: Vec<f64>,
}

/// Validate a request against the server's ceilings. Returns a
/// human-readable rejection, or `None` when the request is runnable.
pub fn validate(req: &RunRequest) -> Option<String> {
    let known = ["ring", "distance", "sort", "stencil", "topk"];
    if !known.contains(&req.module.as_str()) {
        return Some(format!(
            "unknown module '{}' (expected one of {})",
            req.module,
            known.join(", ")
        ));
    }
    match req.backend_or_default() {
        "virtual" | "thread" => {}
        "proc" => {
            return Some(
                "backend 'proc' is not available in the lab server: process worlds need to own \
                 the process, and the server is multi-threaded — use 'virtual' or 'thread'"
                    .into(),
            )
        }
        other => return Some(format!("unknown backend '{other}'")),
    }
    if req.ranks == 0 || req.ranks > MAX_RANKS {
        return Some(format!("ranks must be in 1..={MAX_RANKS}"));
    }
    if req.size == 0 || req.size > MAX_SIZE {
        return Some(format!("size must be in 1..={MAX_SIZE}"));
    }
    None
}

fn world_config(req: &RunRequest, cancel: CancelToken) -> WorldConfig {
    let mut cfg = WorldConfig::new(req.ranks as usize)
        .with_sched_seed(req.seed_or_default())
        .with_tracing()
        .with_check(CheckMode::Record)
        .with_cancel(cancel);
    if let Some(plan) = &req.fault_plan {
        cfg = cfg.with_faults(plan.clone());
    }
    cfg
}

/// Run the job to completion (or cancellation) and assemble artifacts.
pub fn execute(req: &RunRequest, cancel: CancelToken) -> ExecOutcome {
    if let Some(reason) = validate(req) {
        return rejected(req, reason);
    }
    let cfg = world_config(req, cancel);
    let ctx = ProfContext::from_config(&cfg);

    let job = LabJob::new(req);
    let (outcome, logs) = if req.backend_or_default() == "virtual" {
        World::run_event_with_check(cfg, &job)
    } else {
        World::run_with_check(cfg, |comm: &mut Comm| drive(comm, |sc| job.build(sc)))
    };
    assemble(req, &ctx, outcome, logs)
}

/// A validated request as a step program: the module's step body, with
/// each rank's result folded to one scalar.
struct LabJob {
    module: String,
    per_rank: usize,
    seed: u64,
    /// The shared dataset every rank reads (`distance` only).
    points: Option<Dataset>,
}

impl LabJob {
    fn new(req: &RunRequest) -> Self {
        let seed = req.seed_or_default();
        // Every rank reads the shared dataset, as the course module
        // prescribes; the per-request size is the point count.
        let points = (req.module == "distance")
            .then(|| pdc_datagen::uniform_points(req.size as usize, 4, 0.0, 1.0, seed));
        LabJob {
            module: req.module.clone(),
            per_rank: ((req.size / req.ranks) as usize).max(1),
            seed,
            points,
        }
    }
}

impl StepProgram<f64> for LabJob {
    fn build<'c, 'w: 'c>(&'c self, sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<f64>> {
        let (per_rank, seed) = (self.per_rank, self.seed);
        match self.module.as_str() {
            "ring" => Box::pin(async move {
                let v = module1::ring_exchange_step(sc, module1::RingVariant::Nonblocking).await?;
                Ok(v as f64)
            }),
            "distance" => {
                let points = self.points.as_ref().expect("distance jobs carry points");
                Box::pin(module2::distance_matrix_step(
                    sc,
                    points,
                    module2::Access::RowWise,
                ))
            }
            "sort" => Box::pin(async move {
                let (kept, ordered) = module3::distribution_sort_step(
                    sc,
                    per_rank,
                    module3::InputDist::Uniform,
                    module3::BucketStrategy::Histogram { bins: 16 },
                    seed,
                )
                .await?;
                // A run that finished but failed its own ordering check
                // is a wrong answer, not a crash; encode it as a sentinel.
                Ok(if ordered { kept as f64 } else { -1.0 })
            }),
            "stencil" => Box::pin(async move {
                let mut sc = sc;
                let variant = module6::HaloVariant::Overlapped;
                let field = module6::stencil_step(&mut sc, per_rank, 8, variant).await?;
                Ok(field.iter().sum::<f64>())
            }),
            "topk" => Box::pin(async move {
                let (k, strategy) = (16.min(per_rank), module7::TopKStrategy::TreeMerge);
                let top = module7::top_k_step(sc, per_rank, k, strategy, seed).await?;
                Ok(top.iter().sum::<f64>())
            }),
            _ => unreachable!("validated before the job is built"),
        }
    }
}

fn rejected(req: &RunRequest, reason: String) -> ExecOutcome {
    let result = RunResult {
        module: req.module.clone(),
        size: req.size,
        ranks: req.ranks,
        seed: req.seed_or_default(),
        backend: req.backend_or_default().to_string(),
        status: "failed".into(),
        error: Some(reason.clone()),
        sim_time: 0.0,
        bytes_sent: 0,
        values: Vec::new(),
    };
    ExecOutcome {
        status: JobStatus::Failed,
        cancelled: None,
        artifacts: Artifacts {
            status: "failed".into(),
            error: Some(reason),
            result: serde_json::to_string(&result).unwrap_or_default(),
            profile: "null".into(),
            report: "null".into(),
            trace: "[]".into(),
        },
        cacheable: true,
    }
}

fn assemble(
    req: &RunRequest,
    ctx: &ProfContext,
    outcome: Result<RunOutput<f64>>,
    logs: Vec<Vec<CheckEvent>>,
) -> ExecOutcome {
    let report = analyze(&outcome, &logs);
    // The logs are the largest record of a run (one event per message);
    // free them before the artifacts are rendered, so the two never
    // occupy memory at the same time.
    drop(logs);
    let report_json = serde_json::to_string(&report).unwrap_or_else(|_| "null".into());
    let mut result = RunResult {
        module: req.module.clone(),
        size: req.size,
        ranks: req.ranks,
        seed: req.seed_or_default(),
        backend: req.backend_or_default().to_string(),
        status: "done".into(),
        error: None,
        sim_time: 0.0,
        bytes_sent: 0,
        values: Vec::new(),
    };
    match outcome {
        Ok(out) => {
            result.sim_time = out.sim_time;
            result.bytes_sent = out.total_bytes_sent();
            result.values = out.values.clone();
            let profile = Profile::from_run(&out, ctx);
            let artifacts = Artifacts {
                status: "done".into(),
                error: None,
                result: serde_json::to_string(&result).unwrap_or_default(),
                profile: serde_json::to_string(&profile).unwrap_or_else(|_| "null".into()),
                report: report_json,
                trace: enriched_chrome_json(&out.traces, &out.phases),
            };
            ExecOutcome {
                status: JobStatus::Done,
                cancelled: None,
                artifacts,
                cacheable: req.backend_or_default() == "virtual",
            }
        }
        Err(err) => {
            let cancelled = match &err {
                Error::Cancelled(reason) => Some(reason.clone()),
                _ => None,
            };
            let rendered = err.to_string();
            result.status = "failed".into();
            result.error = Some(rendered.clone());
            let artifacts = Artifacts {
                status: "failed".into(),
                error: Some(rendered),
                result: serde_json::to_string(&result).unwrap_or_default(),
                profile: "null".into(),
                report: report_json,
                trace: "[]".into(),
            };
            ExecOutcome {
                status: JobStatus::Failed,
                cacheable: cancelled.is_none() && req.backend_or_default() == "virtual",
                cancelled,
                artifacts,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_nonsense() {
        assert!(validate(&RunRequest::new("warp-drive", 64, 4)).is_some());
        assert!(validate(&RunRequest::new("stencil", 64, 0)).is_some());
        assert!(validate(&RunRequest::new("stencil", 0, 4)).is_some());
        let mut proc = RunRequest::new("stencil", 64, 4);
        proc.backend = Some("proc".into());
        let msg = validate(&proc).expect("proc rejected");
        assert!(msg.contains("proc"), "{msg}");
        assert!(validate(&RunRequest::new("stencil", 64, 4)).is_none());
    }

    #[test]
    fn virtual_runs_are_byte_identical() {
        let req = RunRequest::new("stencil", 256, 8);
        let a = execute(&req, CancelToken::new());
        let b = execute(&req, CancelToken::new());
        assert_eq!(a.status, JobStatus::Done);
        assert!(a.cacheable);
        assert_eq!(a.artifacts, b.artifacts, "same request, same bytes");
    }

    #[test]
    fn different_seeds_differ() {
        let base = RunRequest::new("sort", 512, 4);
        let mut other = base.clone();
        other.seed = Some(7);
        let a = execute(&base, CancelToken::new());
        let b = execute(&other, CancelToken::new());
        assert_eq!(a.status, JobStatus::Done);
        assert_eq!(b.status, JobStatus::Done);
        assert_ne!(
            a.artifacts.result, b.artifacts.result,
            "seed feeds data generation"
        );
    }

    #[test]
    fn every_module_runs_on_the_virtual_backend() {
        for module in ["ring", "distance", "sort", "stencil", "topk"] {
            let size = if module == "distance" { 64 } else { 256 };
            let out = execute(&RunRequest::new(module, size, 4), CancelToken::new());
            assert_eq!(
                out.status,
                JobStatus::Done,
                "{module}: {:?}",
                out.artifacts.error
            );
            assert!(out.artifacts.result.contains("\"sim_time\""));
            assert!(out.artifacts.profile.len() > 2, "{module} profile");
            assert!(out.artifacts.trace.starts_with('['), "{module} trace");
        }
    }

    #[test]
    fn pre_cancelled_execution_reports_cancellation() {
        let token = CancelToken::new();
        token.cancel("deadline exceeded (test)");
        let out = execute(&RunRequest::new("stencil", 256, 8), token);
        assert_eq!(out.status, JobStatus::Failed);
        assert!(!out.cacheable, "cancelled runs must not be cached");
        let reason = out.cancelled.expect("cancellation surfaced");
        assert!(reason.contains("deadline"), "{reason}");
    }
}
