//! World bootstrap: spawn one thread per rank, run the closure, collect
//! results, statistics, and simulated times.

use crate::check::{CheckEvent, CheckMode, DeadlockInfo};
use crate::comm::{Comm, RankReport};
use crate::error::{Error, Result};
use crate::fault::{ActiveFaults, FaultPlan};
use crate::mailbox::{watchdog, Mailbox, Progress};
use crate::sched::{Scheduler, VirtualRanks};
use crate::stats::CommStats;
use crate::trace::{CollSpan, PhaseSpan, Timeline};
use crate::transport::{ThreadTransport, Transport, VirtualTransport, WorldWiring};
use crate::tune::{TuningTable, WorldTuning};
use pdc_cluster::{CostModel, MachineModel, Placement, PlacementPolicy};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Stack size for virtual-rank threads. Module bodies keep their working
/// sets on the heap, so 512 KiB is plenty — and it is what lets a
/// 4096-rank world fit in a CI container's address space.
const VIRTUAL_RANK_STACK: usize = 512 * 1024;

/// The `PDC_MPI_*` environment overrides, read and parsed exactly once
/// per process. Reading at every `WorldConfig::new` made the overrides
/// leak between tests in the same binary: a test that set
/// `PDC_MPI_EAGER_THRESHOLD` could silently reconfigure a concurrently
/// running world mid-flight. The snapshot pins the whole process to the
/// environment it launched with; explicit builder calls still win.
#[derive(Debug, Clone)]
struct EnvSnapshot {
    eager_threshold: usize,
    watchdog: Option<Duration>,
    sched_seed: u64,
    tuning: Option<Arc<TuningTable>>,
}

static ENV_SNAPSHOT: Mutex<Option<EnvSnapshot>> = Mutex::new(None);

impl EnvSnapshot {
    /// The process-wide snapshot, reading the environment on first use.
    /// A malformed variable panics *without* filling the slot, so a
    /// corrected environment is re-read on the next call — this is what
    /// lets the override tests probe several bad values in one process.
    fn get() -> EnvSnapshot {
        let mut slot = ENV_SNAPSHOT.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(snap) = slot.as_ref() {
            return snap.clone();
        }
        let snap = Self::read();
        *slot = Some(snap.clone());
        snap
    }

    fn read() -> EnvSnapshot {
        let eager_threshold = match std::env::var("PDC_MPI_EAGER_THRESHOLD") {
            Ok(v) => v.trim().parse::<usize>().unwrap_or_else(|_| {
                panic!("PDC_MPI_EAGER_THRESHOLD must be a byte count, got {v:?}")
            }),
            Err(std::env::VarError::NotPresent) => usize::MAX,
            Err(e) => panic!("PDC_MPI_EAGER_THRESHOLD is not valid unicode: {e}"),
        };
        let watchdog = match std::env::var("PDC_MPI_WATCHDOG_MS") {
            Ok(v) => match v.trim().parse::<u64>() {
                Ok(0) => None,
                Ok(ms) => Some(Duration::from_millis(ms)),
                Err(_) => {
                    panic!("PDC_MPI_WATCHDOG_MS must be a millisecond count, got {v:?}")
                }
            },
            Err(std::env::VarError::NotPresent) => Some(Duration::from_millis(100)),
            Err(e) => panic!("PDC_MPI_WATCHDOG_MS is not valid unicode: {e}"),
        };
        let sched_seed = match std::env::var("PDC_MPI_SCHED_SEED") {
            Ok(v) => v.trim().parse::<u64>().unwrap_or_else(|_| {
                panic!("PDC_MPI_SCHED_SEED must be an unsigned integer, got {v:?}")
            }),
            Err(std::env::VarError::NotPresent) => 0,
            Err(e) => panic!("PDC_MPI_SCHED_SEED is not valid unicode: {e}"),
        };
        let tuning = match std::env::var("PDC_MPI_TUNE_FILE") {
            Ok(v) => {
                let path = std::path::PathBuf::from(v.trim());
                let table = TuningTable::load(&path)
                    .unwrap_or_else(|e| panic!("PDC_MPI_TUNE_FILE {v:?} did not load: {e}"));
                Some(Arc::new(table))
            }
            Err(std::env::VarError::NotPresent) => None,
            Err(e) => panic!("PDC_MPI_TUNE_FILE is not valid unicode: {e}"),
        };
        EnvSnapshot {
            eager_threshold,
            watchdog,
            sched_seed,
            tuning,
        }
    }
}

/// Discard the process-wide environment snapshot so the next
/// [`WorldConfig::new`] re-reads the `PDC_MPI_*` variables. Test-only
/// hook — production code has no reason to re-read a mutated
/// environment mid-process.
#[doc(hidden)]
pub fn refresh_env_overrides() {
    *ENV_SNAPSHOT.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// A handle that cancels a running world from *outside* — the mechanism
/// behind job deadlines and scheduler preemption in long-running services
/// (see `pdc-lab`). Cloning shares the token; cancelling any clone
/// cancels every world the token is attached to
/// ([`WorldConfig::with_cancel`]).
///
/// Cancellation is cooperative at the runtime's blocking points: every
/// blocked primitive (receives, rendezvous waits, collectives, `agree`,
/// the finalize wait) returns [`Error::Cancelled`] immediately, exactly
/// like the watchdog's poison wake. A rank in a pure compute loop is only
/// observed at its next communication call. Cancelling before the world
/// starts makes the run fail at the first blocking call; cancelling after
/// it finished is a no-op. Not supported on the multi-process backend
/// ([`World::run_proc`] ignores it — a process-kill plays that role
/// there).
#[derive(Clone, Default)]
pub struct CancelToken(Arc<CancelInner>);

/// One world a token is wired into: its progress state and, for
/// virtual-rank worlds, the cooperative scheduler (whose parked ranks a
/// condvar wake cannot reach).
type WiredWorld = (Arc<Progress>, Option<Arc<Scheduler>>);

#[derive(Default)]
struct CancelInner {
    reason: Mutex<Option<String>>,
    /// Every live world the token is attached to.
    wired: Mutex<Vec<WiredWorld>>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Has [`CancelToken::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.0
            .reason
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// The stored cancellation reason, if any.
    pub fn reason(&self) -> Option<String> {
        self.0
            .reason
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Cancel every attached world: blocked primitives return
    /// [`Error::Cancelled`] carrying `reason`. The first call wins;
    /// repeat calls keep the original reason but still poke any world
    /// attached since.
    pub fn cancel(&self, reason: &str) {
        let reason = {
            let mut slot = self.0.reason.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(reason.to_string());
            }
            slot.clone().expect("just stored")
        };
        let wired: Vec<_> = self
            .0
            .wired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        for (progress, sched) in wired {
            progress.cancel(&reason);
            if let Some(s) = sched {
                s.interrupt();
            }
        }
    }

    /// Attach a world's progress state (and virtual scheduler, if any).
    /// Fires immediately when the token was cancelled before the world
    /// launched.
    pub(crate) fn attach(&self, progress: Arc<Progress>, sched: Option<Arc<Scheduler>>) {
        self.0
            .wired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((Arc::clone(&progress), sched.clone()));
        if let Some(reason) = self.reason() {
            progress.cancel(&reason);
            if let Some(s) = sched {
                s.interrupt();
            }
        }
    }
}

/// Configuration for a world launch.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of ranks.
    pub size: usize,
    /// Payloads strictly larger than this many bytes use the rendezvous
    /// protocol for `send`. Default: everything is eager (buffered), like
    /// typical MPI defaults for small messages. Set it to 0 to make every
    /// `send` synchronous — the classic way to expose the blocking-ring
    /// deadlock of Module 1.
    pub eager_threshold: usize,
    /// Hardware the simulated clock charges against.
    pub machine: MachineModel,
    /// Nodes to spread the ranks over (block placement). Must be within
    /// the machine's node count.
    pub nodes_used: usize,
    /// Rank→node distribution policy.
    pub placement_policy: PlacementPolicy,
    /// Watchdog sampling interval; `None` disables deadlock detection.
    pub watchdog: Option<Duration>,
    /// Record per-rank execution traces (see [`crate::trace`]).
    pub tracing: bool,
    /// Correctness-checker instrumentation (see [`crate::check`]). `Off`
    /// costs nothing; `Record` logs per-rank communication events for
    /// offline analysis; `Perturb` additionally randomises wildcard
    /// message delivery to expose message races.
    pub check: CheckMode,
    /// Deterministic fault-injection plan (see [`FaultPlan`] and
    /// `docs/faults.md`); `None` runs on a perfect machine.
    pub faults: Option<FaultPlan>,
    /// Rank virtualisation: `None` (the default) spawns one OS thread
    /// per rank and lets the kernel schedule them; `Some` multiplexes
    /// the ranks onto a bounded batch under the seeded deterministic
    /// cooperative scheduler (see [`crate::sched`] and
    /// `docs/scheduler.md`). Virtual worlds replace the wall-clock
    /// watchdog with exact deadlock detection.
    pub sched: Option<VirtualRanks>,
    /// Collective tuning table consulted for algorithm selection (see
    /// [`crate::tune`] and `docs/collectives.md`). `None` (the default)
    /// runs every collective with the flat seed algorithm, so untuned
    /// runs are bit-identical to earlier releases.
    pub tuning: Option<Arc<TuningTable>>,
    /// External cancellation handle (see [`CancelToken`]); `None` (the
    /// default) means only the watchdog or the fault plan can interrupt
    /// the run.
    pub cancel: Option<CancelToken>,
}

impl WorldConfig {
    /// A world of `size` ranks on a single simulated cluster node.
    ///
    /// Defaults: every `send` is eager (threshold `usize::MAX`) and the
    /// deadlock watchdog samples every 100 ms. Both can be overridden
    /// without code changes — handy for benchmarking protocol regimes:
    ///
    /// * `PDC_MPI_EAGER_THRESHOLD` — eager/rendezvous switch-over in
    ///   bytes (`0` makes every send synchronous);
    /// * `PDC_MPI_WATCHDOG_MS` — watchdog sampling interval in
    ///   milliseconds (`0` disables deadlock detection);
    /// * `PDC_MPI_TUNE_FILE` — path to a collective tuning table
    ///   (`TUNING_mpi.json`, see `docs/collectives.md`); unset runs the
    ///   flat seed algorithms.
    ///
    /// A malformed override *panics*, naming the offending value — a
    /// benchmark launched with a typo'd threshold must not silently
    /// measure the default regime. The environment is snapshotted on
    /// first use and reused for the rest of the process, so overrides
    /// cannot leak between tests sharing a binary; explicit builder
    /// calls ([`WorldConfig::with_eager_threshold`],
    /// [`WorldConfig::with_watchdog`], [`WorldConfig::with_sched_seed`],
    /// [`WorldConfig::with_tuning`]) always override the environment.
    ///
    /// # Panics
    /// Panics if `size` is 0, or if an environment override is set to a
    /// value that does not parse.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "a world needs at least one rank");
        let mut machine = MachineModel::cluster_node();
        // Let any requested size fit on one node; the model stays otherwise
        // identical. (Real clusters would spill to more nodes — use
        // `on_nodes` to model that explicitly.)
        machine.cores_per_node = machine.cores_per_node.max(size);
        let env = EnvSnapshot::get();
        Self {
            size,
            eager_threshold: env.eager_threshold,
            machine,
            nodes_used: 1,
            placement_policy: PlacementPolicy::Block,
            watchdog: env.watchdog,
            tracing: false,
            check: CheckMode::Off,
            faults: None,
            sched: None,
            tuning: env.tuning,
            cancel: None,
        }
    }

    /// A virtual-rank world: `n` logical ranks multiplexed onto batches
    /// of at most `workers` concurrently-running ranks, scheduled by the
    /// seeded deterministic run queue (`docs/scheduler.md`). The seed
    /// defaults to 0 and is overridable via `PDC_MPI_SCHED_SEED` (or
    /// [`WorldConfig::with_sched_seed`]); the same
    /// `(program, n, workers, seed)` replays the same interleaving
    /// bit-identically. Each rank still owns a (small-stack) thread, so
    /// 4096-rank worlds are practical; the watchdog thread is replaced
    /// by the scheduler's exact deadlock detection.
    ///
    /// # Panics
    /// Panics if `n` or `workers` is 0, or if `PDC_MPI_SCHED_SEED` is
    /// set to a value that does not parse.
    pub fn virtual_ranks(n: usize, workers: usize) -> Self {
        Self::new(n).with_virtual(workers)
    }

    /// Switch an existing config to the virtual-rank backend (builder
    /// style); see [`WorldConfig::virtual_ranks`].
    ///
    /// # Panics
    /// Panics if `workers` is 0 or `PDC_MPI_SCHED_SEED` does not parse.
    pub fn with_virtual(mut self, workers: usize) -> Self {
        assert!(
            workers > 0,
            "a virtual-rank world needs at least one worker"
        );
        let seed = EnvSnapshot::get().sched_seed;
        self.sched = Some(VirtualRanks { workers, seed });
        self
    }

    /// Pin the scheduling seed of a virtual-rank world (builder style),
    /// overriding `PDC_MPI_SCHED_SEED`. No-op hint until
    /// [`WorldConfig::with_virtual`] enables the backend — call it after.
    ///
    /// # Panics
    /// Panics if the config is not virtual yet.
    pub fn with_sched_seed(mut self, seed: u64) -> Self {
        let v = self
            .sched
            .as_mut()
            .expect("with_sched_seed requires a virtual-rank config (call with_virtual first)");
        v.seed = seed;
        self
    }

    /// Spread the ranks over `nodes` nodes of a multi-node machine
    /// (builder style).
    ///
    /// # Panics
    /// Panics if the ranks do not fit.
    pub fn on_nodes(mut self, nodes: usize) -> Self {
        let mut machine = MachineModel::cluster(nodes);
        let needed = self.size.div_ceil(nodes);
        machine.cores_per_node = machine.cores_per_node.max(needed);
        self.machine = machine;
        self.nodes_used = nodes;
        self
    }

    /// Use a custom machine model (builder style).
    pub fn with_machine(mut self, machine: MachineModel, nodes_used: usize) -> Self {
        self.machine = machine;
        self.nodes_used = nodes_used;
        self
    }

    /// Set the eager/rendezvous threshold in bytes (builder style).
    pub fn with_eager_threshold(mut self, bytes: usize) -> Self {
        self.eager_threshold = bytes;
        self
    }

    /// Set or disable the deadlock watchdog (builder style).
    pub fn with_watchdog(mut self, interval: Option<Duration>) -> Self {
        self.watchdog = interval;
        self
    }

    /// Set the rank→node distribution policy (builder style). Only
    /// meaningful with more than one node.
    pub fn with_policy(mut self, policy: PlacementPolicy) -> Self {
        self.placement_policy = policy;
        self
    }

    /// Record per-rank execution traces (builder style); retrieve them
    /// from [`RunOutput::traces`] and render with
    /// [`crate::trace::render_timeline`].
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Enable correctness-checker instrumentation (builder style). Use
    /// [`World::run_with_check`] to retrieve the recorded event logs.
    pub fn with_check(mut self, mode: CheckMode) -> Self {
        self.check = mode;
        self
    }

    /// Install a deterministic fault-injection plan (builder style). See
    /// [`FaultPlan`] for the model and `docs/faults.md` for the fault
    /// clinic it powers.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Install a collective tuning table (builder style), overriding
    /// `PDC_MPI_TUNE_FILE`. Collectives then select algorithms via
    /// [`crate::tune::resolve`]; selection is a pure function of
    /// `(table, op, bytes, topology)`, so tuned runs stay deterministic.
    pub fn with_tuning(mut self, table: TuningTable) -> Self {
        self.tuning = Some(Arc::new(table));
        self
    }

    /// Drop any tuning table (builder style) — including one injected by
    /// `PDC_MPI_TUNE_FILE` — forcing the flat seed algorithms.
    pub fn without_tuning(mut self) -> Self {
        self.tuning = None;
        self
    }

    /// Attach an external cancellation handle (builder style): cancelling
    /// the token makes every blocked primitive return
    /// [`Error::Cancelled`]. See [`CancelToken`] for semantics; ignored
    /// by the multi-process backend.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Everything a finished world reports.
#[derive(Debug)]
pub struct RunOutput<T> {
    /// Per-rank closure return values, indexed by rank.
    pub values: Vec<T>,
    /// Per-rank communication statistics, indexed by rank.
    pub stats: Vec<CommStats>,
    /// Simulated makespan: the maximum final clock over all ranks, seconds.
    pub sim_time: f64,
    /// Real wall-clock duration of the run.
    pub wall_time: Duration,
    /// Per-rank execution traces (empty unless
    /// [`WorldConfig::with_tracing`] was set).
    pub traces: Vec<Timeline>,
    /// Per-rank named profiling phases (empty unless tracing was on and
    /// the program called [`Comm::phase_begin`]).
    pub phases: Vec<Vec<PhaseSpan>>,
    /// Per-rank world-collective entry events in call order (empty unless
    /// tracing was on). The `k`-th entry on every rank is the same
    /// collective, so pdc-prof compares entry times across ranks.
    pub colls: Vec<Vec<CollSpan>>,
    /// The deterministic scheduler's resume order — one rank id per
    /// scheduling decision (empty unless the world ran with
    /// [`WorldConfig::virtual_ranks`]). Same config and seed ⇒ identical
    /// trace; the schedule-exploration tests pin this.
    pub sched_trace: Vec<u32>,
}

impl<T> RunOutput<T> {
    /// Aggregate statistics over all ranks.
    pub fn total_stats(&self) -> CommStats {
        let mut total = CommStats::new();
        for s in &self.stats {
            total.merge(s);
        }
        total
    }

    /// Total bytes physically sent by all ranks.
    pub fn total_bytes_sent(&self) -> u64 {
        self.stats.iter().map(|s| s.bytes_sent).sum()
    }
}

/// The machine context a profiler needs to turn a traced run into
/// attributed verdicts: which hardware the clock charged against and where
/// each rank lived. Returned by [`World::run_with_profile`] so pdc-prof
/// never has to reconstruct the cost model from a config.
#[derive(Debug, Clone)]
pub struct ProfContext {
    /// Hardware model the simulated clock charged against.
    pub machine: MachineModel,
    /// Rank→node placement the run used.
    pub placement: Placement,
    /// Eager/rendezvous switch-over in bytes.
    pub eager_threshold: usize,
}

/// Entry point to the runtime.
pub struct World;

impl World {
    /// Launch `cfg.size` ranks, each running `f`, and wait for all of them.
    ///
    /// Each rank executes on its own OS thread with a private address space
    /// (nothing is shared except messages). Returns per-rank values and
    /// statistics, or the first error any rank produced. A panic in one
    /// rank is contained and reported as [`Error::RankPanicked`].
    pub fn run<T, F>(cfg: WorldConfig, f: F) -> Result<RunOutput<T>>
    where
        T: Send,
        F: Fn(&mut Comm) -> Result<T> + Send + Sync,
    {
        Self::run_inner(cfg, f).0
    }

    /// Like [`World::run`], but also returns the per-rank checker event
    /// logs (indexed by rank; empty unless [`WorldConfig::with_check`]
    /// enabled instrumentation). The logs are returned even when the run
    /// itself fails — a deadlocked or crashed run is exactly when the
    /// checker has the most to say.
    pub fn run_with_check<T, F>(
        cfg: WorldConfig,
        f: F,
    ) -> (Result<RunOutput<T>>, Vec<Vec<CheckEvent>>)
    where
        T: Send,
        F: Fn(&mut Comm) -> Result<T> + Send + Sync,
    {
        Self::run_inner(cfg, f)
    }

    /// Like [`World::run`], but forces tracing on and also returns the
    /// [`ProfContext`] (machine model + placement) the run executed under
    /// — the hook pdc-prof's `profile_world` builds on, mirroring
    /// [`World::run_with_check`] for the correctness checker. The context
    /// is returned even when the run fails.
    pub fn run_with_profile<T, F>(mut cfg: WorldConfig, f: F) -> (Result<RunOutput<T>>, ProfContext)
    where
        T: Send,
        F: Fn(&mut Comm) -> Result<T> + Send + Sync,
    {
        cfg.tracing = true;
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
        (Self::run_inner(cfg, f).0, ctx)
    }

    /// Like [`World::run`], but each rank is a real OS **process**, not a
    /// thread — `mpirun` semantics. The calling process hosts rank 0 and
    /// re-executes its own binary once per remaining rank (SPMD: every
    /// process runs `main` from the top and the k-th `run_proc` call in
    /// program order is the k-th world everywhere), so `run_proc`
    /// requires a deterministic program order — call it from `main` or a
    /// `harness = false` test, never from parallel libtest threads. Rank
    /// values cross process boundaries, hence the `Serialize +
    /// DeserializeOwned` bound.
    ///
    /// Differences from the in-process backends, both documented in
    /// `docs/backends.md`: `cfg.watchdog` is ignored (no process can
    /// observe global progress, so wall-clock deadlock detection is
    /// impossible — a stuck world fails a hard internal deadline
    /// instead), and per-rank traces/phases/colls are not collected
    /// across the wire ([`RunOutput::traces`] et al. come back empty).
    /// Fault injection, the checker, statistics, and the simulated clock
    /// all work unchanged.
    ///
    /// # Panics
    /// Panics if `cfg.sched` is set (virtual ranks are an in-process
    /// backend), if worlds of different sizes are launched from one
    /// binary, or if peer processes cannot be reached within the
    /// internal deadlines.
    pub fn run_proc<T, F>(cfg: WorldConfig, f: F) -> Result<RunOutput<T>>
    where
        T: serde::Serialize + serde::Deserialize + Send,
        F: Fn(&mut Comm) -> Result<T> + Send + Sync,
    {
        crate::transport::proc::run_proc_inner(cfg, f).0
    }

    /// [`World::run_proc`] + [`World::run_with_check`]: multi-process
    /// backend, returning every rank's checker event log alongside the
    /// result. Rank 1+'s logs crossed a process boundary to get here —
    /// which is exactly what makes this the interesting backend to check.
    pub fn run_proc_with_check<T, F>(
        cfg: WorldConfig,
        f: F,
    ) -> (Result<RunOutput<T>>, Vec<Vec<CheckEvent>>)
    where
        T: serde::Serialize + serde::Deserialize + Send,
        F: Fn(&mut Comm) -> Result<T> + Send + Sync,
    {
        crate::transport::proc::run_proc_inner(cfg, f)
    }

    fn run_inner<T, F>(cfg: WorldConfig, f: F) -> (Result<RunOutput<T>>, Vec<Vec<CheckEvent>>)
    where
        T: Send,
        F: Fn(&mut Comm) -> Result<T> + Send + Sync,
    {
        assert!(cfg.size > 0, "a world needs at least one rank");
        let placement = Placement::new(
            cfg.size,
            cfg.nodes_used,
            cfg.machine.cores_per_node,
            cfg.placement_policy,
        );
        let cost = Arc::new(CostModel::new(cfg.machine.clone(), placement));
        let progress = Arc::new(Progress::new(cfg.size));
        // Virtual-rank backend: build the deterministic scheduler. Worlds
        // with a fault plan serialise to one worker — failure
        // notifications mutate shared progress state mid-batch, and a
        // single-worker batch is the schedule under which that stays a
        // deterministic function of the seed.
        let sched = cfg.sched.map(|v| {
            let workers = if cfg.faults.is_some() { 1 } else { v.workers };
            let s = Scheduler::new(cfg.size, workers, v.seed);
            s.attach_progress(Arc::clone(&progress));
            s
        });
        // Wire the cancellation token to this world before any rank runs,
        // so a pre-cancelled token fails the first blocking call instead
        // of racing the launch.
        if let Some(token) = &cfg.cancel {
            token.attach(Arc::clone(&progress), sched.clone());
        }
        // Resolve the crash schedule against the placement once; every
        // rank shares the same view of who dies when.
        let faults = cfg.faults.as_ref().map(|plan| ActiveFaults {
            plan: Arc::new(plan.clone()),
            crash_at: Arc::new(plan.resolve_crashes(cfg.size, |r| cost.placement().node_of(r))),
        });

        // Both in-process engines share the channel-mesh wiring; what
        // differs is how sends behave on a virtual-rank thread (see
        // `crate::transport`). The multi-process engine enters through
        // [`World::run_proc`] instead — it hosts one rank per process, so
        // it cannot share this scoped-thread bootstrap.
        let transport: Box<dyn Transport> = if cfg.sched.is_some() {
            Box::new(VirtualTransport)
        } else {
            Box::new(ThreadTransport)
        };
        let WorldWiring { outboxes, inboxes } = transport.open(cfg.size, &progress);
        let tuning = WorldTuning::bind(cfg.tuning.as_ref(), cost.placement());

        let started = Instant::now();
        type RankOutcome<T> = (Result<T>, RankReport);
        let mut slots: Vec<Option<RankOutcome<T>>> = (0..cfg.size).map(|_| None).collect();

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(cfg.size);
            for (rank, rx) in inboxes {
                let outboxes = &outboxes;
                let progress = &progress;
                let cost = Arc::clone(&cost);
                let f = &f;
                let eager = cfg.eager_threshold;
                let tracing = cfg.tracing;
                let check = cfg.check;
                let faults = faults.clone();
                let sched = sched.clone();
                let tuning = tuning.clone();
                let body = move || {
                    // Bind this thread to the cooperative scheduler first
                    // (the guard drops last, retiring the rank after
                    // mark_done and the finalize wait have run).
                    let _sched_guard = sched.as_ref().map(|s| s.enter(rank));
                    let progress: &Progress = progress;
                    let mut comm = Comm::new(
                        rank,
                        outboxes,
                        progress,
                        Mailbox::new(rx),
                        cost,
                        eager,
                        tracing,
                        check,
                        faults,
                        tuning,
                    );
                    let value = match catch_unwind(AssertUnwindSafe(|| f(&mut comm))) {
                        Ok(result) => result,
                        Err(_) => Err(Error::RankPanicked(rank)),
                    };
                    progress.mark_done(rank);
                    if check.is_on() {
                        // The finalize-time leak check drains this rank's
                        // mailbox; wait until every rank has finished so
                        // all in-flight sends have landed first. (Blocked
                        // ranks are released by the watchdog's — or the
                        // scheduler's — poison, so this terminates even
                        // on deadlocked runs.)
                        progress.wait_all_done();
                    }
                    (value, comm.into_report())
                };
                if cfg.sched.is_some() {
                    // Thousands of logical ranks: small stacks keep the
                    // address-space footprint bounded (the module bodies
                    // heap-allocate their data).
                    handles.push(
                        std::thread::Builder::new()
                            .name(format!("vrank{rank}"))
                            .stack_size(VIRTUAL_RANK_STACK)
                            .spawn_scoped(scope, body)
                            .expect("spawn virtual rank thread"),
                    );
                } else {
                    handles.push(scope.spawn(body));
                }
            }
            // Virtual worlds never start the wall-clock watchdog: the
            // scheduler detects deadlock exactly (empty run queue with
            // unfinished ranks), with zero timing sensitivity.
            if let Some(interval) = cfg.watchdog {
                if sched.is_none() {
                    let progress = &progress;
                    scope.spawn(move || watchdog(progress, interval));
                }
            }
            for (rank, handle) in handles.into_iter().enumerate() {
                let outcome = handle.join().unwrap_or_else(|_| {
                    (
                        Err(Error::RankPanicked(rank)),
                        RankReport {
                            stats: CommStats::new(),
                            clock: 0.0,
                            trace: Vec::new(),
                            check_log: Vec::new(),
                            phases: Vec::new(),
                            colls: Vec::new(),
                        },
                    )
                });
                slots[rank] = Some(outcome);
            }
            // Unblock the watchdog promptly if it is still sleeping: setting
            // done to size makes its next sample exit. (Already true here.)
        });
        transport.finalize(&progress);
        let sched_trace = sched.as_ref().map(|s| s.take_trace()).unwrap_or_default();

        let mut values = Vec::with_capacity(cfg.size);
        let mut stats = Vec::with_capacity(cfg.size);
        let mut traces = Vec::with_capacity(cfg.size);
        let mut events = Vec::with_capacity(cfg.size);
        let mut phases = Vec::with_capacity(cfg.size);
        let mut colls = Vec::with_capacity(cfg.size);
        let mut sim_time = 0.0f64;
        let mut first_error: Option<Error> = None;
        let mut deadlock: Option<DeadlockInfo> = None;
        for slot in slots {
            let (value, report) = slot.expect("every rank produced a slot");
            sim_time = sim_time.max(report.clock);
            stats.push(report.stats);
            traces.push(report.trace);
            events.push(report.check_log);
            phases.push(report.phases);
            colls.push(report.colls);
            match value {
                Ok(v) => values.push(v),
                // Every deadlocked rank carries the same watchdog analysis;
                // keep the first non-empty one.
                Err(Error::Deadlock(info)) => {
                    if deadlock.as_ref().is_none_or(|d| d.is_empty()) {
                        deadlock = Some(info);
                    }
                }
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_error {
            return (Err(e), events);
        }
        if let Some(info) = deadlock {
            return (Err(Error::Deadlock(info)), events);
        }
        (
            Ok(RunOutput {
                values,
                stats,
                sim_time,
                wall_time: started.elapsed(),
                traces,
                phases,
                colls,
                sched_trace,
            }),
            events,
        )
    }

    /// Convenience: run with the default single-node configuration.
    pub fn run_simple<T, F>(size: usize, f: F) -> Result<RunOutput<T>>
    where
        T: Send,
        F: Fn(&mut Comm) -> Result<T> + Send + Sync,
    {
        Self::run(WorldConfig::new(size), f)
    }
}
