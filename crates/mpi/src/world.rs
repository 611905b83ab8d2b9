//! World bootstrap: spawn one thread per rank, run the closure, collect
//! results, statistics, and simulated times — plus the setup and the
//! result fold every backend shares.

use crate::check::{CheckEvent, CheckMode, DeadlockInfo};
use crate::comm::{Comm, RankReport};
use crate::error::{Error, Result};
use crate::fault::{ActiveFaults, FaultPlan};
use crate::mailbox::{watchdog, Progress};
use crate::stats::CommStats;
use crate::trace::{CollSpan, PhaseSpan, Timeline};
use crate::transport::{channel_mesh, Link};
use crate::tune::{TuningTable, WorldTuning};
use pdc_cluster::{CostModel, MachineModel, Placement, PlacementPolicy};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
/// it finished is a no-op. On the event backend the engine observes the
/// cancellation after the rank it is running yields. Not supported on the
/// multi-process backend ([`World::run_proc`] ignores it — a process-kill
/// plays that role there).
#[derive(Clone, Default)]
pub struct CancelToken(Arc<CancelInner>);

#[derive(Default)]
struct CancelInner {
    reason: Mutex<Option<String>>,
    /// The progress state of every live world the token is attached to.
    wired: Mutex<Vec<Arc<Progress>>>,
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
        for progress in wired {
            progress.cancel(&reason);
        }
    }

    /// Attach a world's progress state. Fires immediately when the token
    /// was cancelled before the world launched.
    pub(crate) fn attach(&self, progress: Arc<Progress>) {
        self.0
            .wired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&progress));
        if let Some(reason) = self.reason() {
            progress.cancel(&reason);
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
    /// Scheduling seed of the event engine ([`World::run_event`], see
    /// `docs/scheduler.md`): the tie-break among equal-time wakes, so the
    /// same seed replays the same resume order bit-identically. The
    /// default 0 runs it in program order. Blocking closures
    /// ([`World::run`]) always run thread-per-rank and ignore it.
    pub sched_seed: u64,
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
            sched_seed: 0,
            tuning: env.tuning,
            cancel: None,
        }
    }

    /// A seeded world of `n` virtual ranks, for the event engine: run a
    /// [`StepProgram`](crate::StepProgram) on it with
    /// [`World::run_event`], where every rank is a state machine of about
    /// a kilobyte, so 10^5–10^6 ranks fit in one process. The seed
    /// defaults to 0 and is overridable via `PDC_MPI_SCHED_SEED` (or
    /// [`WorldConfig::with_sched_seed`]); the same `(program, n, seed)`
    /// replays the same resume order bit-identically, and a deadlock is
    /// detected exactly (`docs/scheduler.md`).
    ///
    /// `workers` is accepted for compatibility and selects nothing: the
    /// event engine is single-threaded. A blocking closure run under this
    /// config ([`World::run`], [`World::run_with_check`]) runs
    /// thread-per-rank under the wall-clock watchdog, exactly as under
    /// [`WorldConfig::new`]; only step programs are seeded.
    ///
    /// # Panics
    /// Panics if `n` is 0, or if `PDC_MPI_SCHED_SEED` is set to a value
    /// that does not parse.
    pub fn virtual_ranks(n: usize, workers: usize) -> Self {
        let _ = workers;
        Self::new(n).with_sched_seed(EnvSnapshot::get().sched_seed)
    }

    /// The rank→node placement this config launches with.
    pub(crate) fn placement(&self) -> Placement {
        Placement::new(
            self.size,
            self.nodes_used,
            self.machine.cores_per_node,
            self.placement_policy,
        )
    }

    /// Pin the event engine's scheduling seed (builder style), overriding
    /// `PDC_MPI_SCHED_SEED`. See [`WorldConfig::virtual_ranks`].
    pub fn with_sched_seed(mut self, seed: u64) -> Self {
        self.sched_seed = seed;
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
    /// The event engine's resume order — one rank id per heap pop (empty
    /// on every other backend). Same program, config, and seed ⇒
    /// identical trace; the schedule-exploration tests pin this.
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
/// each rank lived. Built from the run's config
/// ([`ProfContext::from_config`]), so pdc-prof never has to reconstruct
/// the cost model itself.
#[derive(Debug, Clone)]
pub struct ProfContext {
    /// Hardware model the simulated clock charged against.
    pub machine: MachineModel,
    /// Rank→node placement the run used.
    pub placement: Placement,
    /// Eager/rendezvous switch-over in bytes.
    pub eager_threshold: usize,
}

impl ProfContext {
    /// The context a world launched under `cfg` runs in.
    pub fn from_config(cfg: &WorldConfig) -> Self {
        ProfContext {
            machine: cfg.machine.clone(),
            placement: cfg.placement(),
            eager_threshold: cfg.eager_threshold,
        }
    }
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
    /// One difference from the in-process backends, documented in
    /// `docs/backends.md`: `cfg.watchdog` is ignored (no process can
    /// observe global progress, so wall-clock deadlock detection is
    /// impossible — a stuck world fails a hard internal deadline
    /// instead). Fault injection, the checker, tracing, statistics, and
    /// the simulated clock all work unchanged: every rank's report,
    /// trace included, crosses the wire in its result frame.
    ///
    /// # Panics
    /// Panics if worlds of different sizes are launched from one binary,
    /// or if peer processes cannot be reached within the internal
    /// deadlines.
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
        let setup = WorldSetup::new(&cfg);
        let (outboxes, inboxes) = channel_mesh(cfg.size, &setup.progress);

        let started = Instant::now();
        let outcomes: Vec<(Result<T>, RankReport)> = std::thread::scope(|scope| {
            let handles: Vec<_> = inboxes
                .into_iter()
                .enumerate()
                .map(|(rank, inbox)| {
                    let (setup, outboxes, f) = (&setup, &outboxes, &f);
                    scope.spawn(move || setup.run_rank(rank, Link::Chan { outboxes, inbox }, f))
                })
                .collect();
            if let Some(interval) = cfg.watchdog {
                let progress = &setup.progress;
                scope.spawn(move || watchdog(progress, interval));
            }
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, handle)| {
                    handle
                        .join()
                        .unwrap_or_else(|_| (Err(Error::RankPanicked(rank)), RankReport::default()))
                })
                .collect()
        });
        fold_outcomes(outcomes.into_iter(), started, Vec::new())
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

/// What every backend builds from a [`WorldConfig`] before any rank runs:
/// the cost model over the placement, the shared progress state (with the
/// cancellation token attached, so a pre-cancelled token fails the first
/// blocking call instead of racing the launch), the crash schedule
/// resolved against the placement once, and the bound tuning table.
pub(crate) struct WorldSetup {
    pub progress: Arc<Progress>,
    pub check: CheckMode,
    pub cost: Arc<CostModel>,
    pub faults: Option<ActiveFaults>,
    pub tuning: Option<Arc<WorldTuning>>,
    pub eager_threshold: usize,
    pub tracing: bool,
}

impl WorldSetup {
    /// # Panics
    /// Panics if `cfg.size` is 0.
    pub(crate) fn new(cfg: &WorldConfig) -> Self {
        assert!(cfg.size > 0, "a world needs at least one rank");
        let cost = Arc::new(CostModel::new(cfg.machine.clone(), cfg.placement()));
        let progress = Arc::new(Progress::new(cfg.size));
        if let Some(token) = &cfg.cancel {
            token.attach(Arc::clone(&progress));
        }
        let faults = cfg.faults.as_ref().map(|plan| ActiveFaults {
            plan: Arc::new(plan.clone()),
            crash_at: Arc::new(plan.resolve_crashes(cfg.size, |r| cost.placement().node_of(r))),
        });
        let tuning = WorldTuning::bind(cfg.tuning.as_ref(), cost.placement());
        WorldSetup {
            progress,
            check: cfg.check,
            cost,
            faults,
            tuning,
            eager_threshold: cfg.eager_threshold,
            tracing: cfg.tracing,
        }
    }

    /// Run `f` as rank `rank` of a blocking backend (thread or proc): build
    /// its communicator over `link`, contain a panic as
    /// [`Error::RankPanicked`], mark the rank done, refuse the rendezvous
    /// envelopes it holds, and hand back its result with its report. The
    /// refusals come after the mark: a rendezvous envelope that arrives
    /// later is not refused here, and its sender, checking for a finished
    /// partner after sending, sees this rank done instead (on the proc
    /// backend, where that news travels as a frame, the reader thread
    /// refuses such an envelope). With checking on, the rank then waits
    /// for every rank to finish, so all in-flight sends have landed before
    /// the finalize-time leak check drains its mailbox (blocked ranks are
    /// released by the watchdog's poison, so this terminates even on
    /// deadlocked runs; on the proc backend, peers' `Done` frames feed the
    /// same count).
    pub(crate) fn run_rank<T>(
        &self,
        rank: usize,
        link: Link<'_>,
        f: impl FnOnce(&mut Comm) -> Result<T>,
    ) -> (Result<T>, RankReport) {
        let mut comm = Comm::new(self, rank, link);
        let value = match catch_unwind(AssertUnwindSafe(|| f(&mut comm))) {
            Ok(result) => result,
            Err(_) => Err(Error::RankPanicked(rank)),
        };
        self.progress.mark_done(rank);
        comm.refuse_rendezvous();
        if self.check.is_on() {
            self.progress.wait_all_done();
        }
        (value, comm.into_report())
    }
}

/// Fold every rank's outcome and report, in rank order, into the world's
/// result and its per-rank checker logs (returned even when the run
/// fails). The first error that is not a deadlock wins; otherwise the
/// first deadlock whose analysis is non-empty (every deadlocked rank
/// carries the same analysis, but a rank released by a bare poison
/// carries an empty one).
pub(crate) fn fold_outcomes<T>(
    outcomes: impl ExactSizeIterator<Item = (Result<T>, RankReport)>,
    started: Instant,
    sched_trace: Vec<u32>,
) -> (Result<RunOutput<T>>, Vec<Vec<CheckEvent>>) {
    let size = outcomes.len();
    let mut values = Vec::with_capacity(size);
    let mut traces = Vec::with_capacity(size);
    let mut events = Vec::with_capacity(size);
    let mut phases = Vec::with_capacity(size);
    let mut colls = Vec::with_capacity(size);
    let mut sim_time = 0.0f64;
    let mut first_error: Option<Error> = None;
    let mut deadlock: Option<DeadlockInfo> = None;
    // Collected, not pushed: when `outcomes` drains a vector (the event
    // engine's communicators), the statistics reuse its buffer in place
    // instead of allocating a second per-rank array at peak memory.
    let mut stats: Vec<CommStats> = outcomes
        .map(|(value, report)| {
            sim_time = sim_time.max(report.clock);
            traces.push(report.observed.trace);
            events.push(report.observed.check_log);
            phases.push(report.observed.phases);
            colls.push(report.observed.colls);
            match value {
                Ok(v) => values.push(v),
                Err(Error::Deadlock(info)) => {
                    if deadlock.as_ref().is_none_or(|d| d.is_empty()) {
                        deadlock = Some(info);
                    }
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
            report.stats
        })
        .collect();
    stats.shrink_to_fit();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{BlockedOp, CallSite, WaitTarget};

    fn report() -> RankReport {
        RankReport::default()
    }

    fn analysis() -> DeadlockInfo {
        DeadlockInfo {
            blocked: vec![BlockedOp {
                rank: 1,
                op: "recv",
                waiting_on: WaitTarget::Rank(0),
                detail: "tag 0".into(),
                site: CallSite::here(),
            }],
            cycle: Vec::new(),
        }
    }

    #[test]
    fn fold_keeps_the_first_non_empty_deadlock_analysis() {
        let outcomes: Vec<(Result<u8>, RankReport)> = vec![
            (Ok(1), report()),
            (Err(Error::Deadlock(DeadlockInfo::default())), report()),
            (Err(Error::Deadlock(analysis())), report()),
            (Err(Error::Deadlock(DeadlockInfo::default())), report()),
        ];
        let (result, logs) = fold_outcomes(outcomes.into_iter(), Instant::now(), Vec::new());
        assert_eq!(logs.len(), 4);
        match result {
            Err(Error::Deadlock(info)) => assert_eq!(info, analysis()),
            other => panic!("expected the non-empty deadlock, got {other:?}"),
        }
    }

    #[test]
    fn fold_prefers_the_first_other_error_over_a_deadlock() {
        let outcomes: Vec<(Result<u8>, RankReport)> = vec![
            (Err(Error::Deadlock(analysis())), report()),
            (Err(Error::RankPanicked(1)), report()),
            (Err(Error::RankPanicked(2)), report()),
        ];
        let (result, _) = fold_outcomes(outcomes.into_iter(), Instant::now(), Vec::new());
        assert!(matches!(result, Err(Error::RankPanicked(1))), "{result:?}");
    }
}
