//! OSU-style wall-clock microbenchmarks for the `pdc-mpi` runtime.
//!
//! Unlike the simulated-clock experiments (which charge the α–β model),
//! these measure *real* wall time of the runtime hot path: point-to-point
//! latency, one-way bandwidth, and collective completion times per payload
//! size. The `mpi-micro` binary front-end emits `BENCH_mpi.json` so the
//! repository carries a perf trajectory across PRs.
//!
//! The shapes follow the OSU microbenchmark suite: ping-pong latency is
//! half the round-trip, bandwidth streams a window of eager sends before
//! one acknowledgement, collectives are timed per iteration between
//! barriers on rank 0.

use pdc_mpi::{
    Comm, FaultPlan, Op, Result, RetryPolicy, RunOutput, SourceSel, StepComm, StepFuture,
    StepProgram, TuningTable, World, WorldConfig,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Transport backend a benchmark point runs on (`--backend`). The
/// simulated-clock and per-layer cells always run on the event engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// One OS thread per rank in this process (the default engine).
    #[default]
    Thread,
    /// One OS *process* per rank over Unix-domain sockets
    /// (`World::run_proc`) — real `mpirun`-style execution.
    Proc,
}

impl Backend {
    /// Stable lowercase name (the `backend` field of `BENCH_mpi.json`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Thread => "thread",
            Backend::Proc => "proc",
        }
    }

    /// Parse a `--backend` argument.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "thread" => Some(Backend::Thread),
            "proc" => Some(Backend::Proc),
            _ => None,
        }
    }
}

/// One benchmark point: a primitive at a payload size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MicroResult {
    /// Benchmark name (`pingpong`, `pingpong_rdv`, `bw`, `bcast`, …).
    pub bench: String,
    /// World size the benchmark ran with.
    pub ranks: usize,
    /// Per-message payload in bytes (per-rank contribution for
    /// collectives).
    pub payload_bytes: usize,
    /// Timed iterations (after warmup).
    pub iters: usize,
    /// Median time per operation, microseconds of wall clock.
    pub p50_us: f64,
    /// 95th-percentile time per operation, microseconds.
    pub p95_us: f64,
    /// Mean time per operation, microseconds.
    pub mean_us: f64,
    /// Payload throughput derived from the median: `payload_bytes`
    /// moved per `p50_us` (one-way for ping-pong, per-rank contribution
    /// for collectives), in MB/s. Set for every payload-carrying bench;
    /// `null` only for payload-less points.
    pub mb_per_s: Option<f64>,
    /// Injected message-drop rate the point ran under (`--drop-rate`,
    /// repaired by the default retry policy); `null` = fault-free.
    /// Appended to the `BENCH_mpi.json` schema — older artifacts without
    /// the field still parse (missing → `null` → `None`).
    pub drop_rate: Option<f64>,
    /// Scheduling seed of the event engine the point ran on (see
    /// `docs/scheduler.md`); `null` for the wall-clock points of the
    /// thread and proc backends. Appended to the schema exactly like
    /// `drop_rate` — older artifacts still parse.
    pub sched_seed: Option<u64>,
    /// Transport backend the point ran on: `"event"` or `"proc"` (the
    /// `--backend` flag); `null` = the default in-process thread engine
    /// (also what every pre-backend artifact measured). Appended to the schema
    /// exactly like `drop_rate` — older artifacts still parse, and
    /// `scripts/bench_gate` exempts `"proc"` points from its thresholds
    /// (real-OS-process timings include fork/socket costs).
    pub backend: Option<String>,
    /// Engine memory per virtual rank in bytes (state machine + comm +
    /// wait cell), measured by the stackless event backend's
    /// [`pdc_mpi::EventMemStats`]; `null` for every other backend.
    /// Appended to the schema exactly like `drop_rate` — older artifacts
    /// still parse (missing → `null` → `None`).
    pub bytes_per_rank: Option<u64>,
    /// Runtime layer a per-layer cell isolates (`"mailbox"`); `null` for
    /// end-to-end points. Appended to the schema exactly like
    /// `drop_rate` — older artifacts still parse (missing → `null`).
    pub layer: Option<String>,
}

/// A full suite run: every `MicroResult` plus run metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MicroSuite {
    /// Suite identifier for downstream tooling.
    pub suite: String,
    /// `quick` (CI smoke) or `full`.
    pub mode: String,
    /// All benchmark points, in execution order.
    pub results: Vec<MicroResult>,
}

/// Iteration budget per benchmark family.
#[derive(Debug, Clone, Copy)]
pub struct MicroConfig {
    /// Timed round-trips per ping-pong point.
    pub lat_iters: usize,
    /// Messages per bandwidth window.
    pub bw_window: usize,
    /// Timed windows per bandwidth point.
    pub bw_reps: usize,
    /// Timed iterations per small-payload collective point.
    pub coll_iters: usize,
    /// Timed iterations per large-payload (≥ 1 MiB) collective point.
    pub coll_iters_large: usize,
    /// Message-drop rate to inject into every point (with the default
    /// retry policy repairing the losses); `None` = fault-free.
    pub drop_rate: Option<f64>,
    /// World size for the collective points (`--ranks`).
    pub coll_ranks: usize,
    /// Transport backend for every wall-clock point (`--backend`).
    /// `Proc` runs each world as real OS processes: every world in the
    /// suite then shares one size (`coll_ranks` — a `run_proc`
    /// constraint), the p2p points idle their extra ranks, and the
    /// event-engine cells are skipped (they are in-process worlds, and
    /// the simulated clock is identical on every backend).
    pub backend: Backend,
}

impl MicroConfig {
    /// CI smoke budget: seconds, not minutes.
    pub fn quick() -> Self {
        Self {
            lat_iters: 200,
            bw_window: 32,
            bw_reps: 10,
            coll_iters: 20,
            coll_iters_large: 5,
            drop_rate: None,
            coll_ranks: COLL_RANKS,
            backend: Backend::Thread,
        }
    }

    /// Full budget for recorded `BENCH_mpi.json` trajectories.
    pub fn full() -> Self {
        Self {
            lat_iters: 2000,
            bw_window: 64,
            bw_reps: 40,
            coll_iters: 100,
            coll_iters_large: 20,
            drop_rate: None,
            coll_ranks: COLL_RANKS,
            backend: Backend::Thread,
        }
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Runtime regime a wall-clock benchmark point executes under: an
/// optional injected drop rate and the transport backend. `Default` is
/// the plain thread-per-rank, fault-free regime.
#[derive(Debug, Clone, Copy)]
pub struct PointMode {
    /// Message-drop rate (repaired by the default retry policy).
    pub drop_rate: Option<f64>,
    /// Transport backend the point's world runs on.
    pub backend: Backend,
    /// World size for the two-rank p2p points. 2 on the in-process
    /// backends; on `Proc` it is the suite-wide uniform size (extra
    /// ranks idle) because every `run_proc` world in one binary must
    /// share one size.
    pub p2p_ranks: usize,
}

impl Default for PointMode {
    fn default() -> Self {
        Self {
            drop_rate: None,
            backend: Backend::Thread,
            p2p_ranks: 2,
        }
    }
}

impl PointMode {
    fn from_config(cfg: &MicroConfig) -> Self {
        Self {
            drop_rate: cfg.drop_rate,
            backend: cfg.backend,
            p2p_ranks: match cfg.backend {
                Backend::Proc => cfg.coll_ranks,
                _ => 2,
            },
        }
    }

    /// The `backend` field a result under this mode records: `null` for
    /// the historical thread default, the backend name otherwise.
    fn backend_field(&self) -> Option<String> {
        match self.backend {
            Backend::Thread => None,
            b => Some(b.name().to_string()),
        }
    }
}

/// Run one benchmark world on the mode's backend — real OS processes for
/// [`Backend::Proc`], threads otherwise — with a drops-only fault plan
/// (repaired by the default retry policy) when the mode asks for one.
fn run_point<T, F>(cfg: WorldConfig, mode: PointMode, f: F) -> Result<RunOutput<T>>
where
    T: serde::Serialize + serde::Deserialize + Send,
    F: Fn(&mut Comm) -> Result<T> + Send + Sync,
{
    let cfg = match mode.drop_rate {
        Some(p) => cfg.with_faults(
            FaultPlan::seeded(0xB5)
                .with_drop_rate(p)
                .with_retry(RetryPolicy::default()),
        ),
        None => cfg,
    };
    match mode.backend {
        Backend::Proc => World::run_proc(cfg, f),
        _ => World::run(cfg, f),
    }
}

fn summarize(
    bench: &str,
    ranks: usize,
    payload_bytes: usize,
    mut samples_us: Vec<f64>,
    bytes_per_op: Option<usize>,
    mode: PointMode,
) -> MicroResult {
    samples_us.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let mean = samples_us.iter().sum::<f64>() / samples_us.len().max(1) as f64;
    let p50 = percentile(&samples_us, 0.50);
    let p95 = percentile(&samples_us, 0.95);
    MicroResult {
        bench: bench.to_string(),
        ranks,
        payload_bytes,
        iters: samples_us.len(),
        p50_us: p50,
        p95_us: p95,
        mean_us: mean,
        mb_per_s: bytes_per_op.map(|b| b as f64 / p50),
        drop_rate: mode.drop_rate,
        sched_seed: None,
        backend: mode.backend_field(),
        bytes_per_rank: None,
        layer: None,
    }
}

/// Ping-pong latency between two ranks: half the round-trip per sample.
/// `eager` selects the buffered protocol (threshold above the payload) or
/// the rendezvous protocol (threshold 0). Worlds larger than 2 (the
/// proc backend's uniform size) idle ranks 2+.
pub fn pingpong(bytes: usize, iters: usize, eager: bool, mode: PointMode) -> Result<MicroResult> {
    let ranks = mode.p2p_ranks;
    let cfg = WorldConfig::new(ranks).with_eager_threshold(if eager { usize::MAX } else { 0 });
    let warmup = (iters / 10).max(4);
    let out = run_point(cfg, mode, move |comm| {
        if comm.rank() >= 2 {
            return Ok(Vec::new());
        }
        let payload = vec![0u8; bytes];
        let mut samples = Vec::with_capacity(iters);
        for i in 0..warmup + iters {
            if comm.rank() == 0 {
                let t = Instant::now();
                comm.send(&payload, 1, 7)?;
                let _ = comm.recv::<u8>(1, 7)?;
                if i >= warmup {
                    samples.push(t.elapsed().as_secs_f64() * 1e6 / 2.0);
                }
            } else {
                let (echo, _) = comm.recv::<u8>(0, 7)?;
                comm.send(&echo, 0, 7)?;
            }
        }
        Ok(samples)
    })?;
    Ok(summarize(
        if eager { "pingpong" } else { "pingpong_rdv" },
        ranks,
        bytes,
        out.values.into_iter().next().expect("rank 0 samples"),
        // p50 is the one-way time, so the payload crosses once per p50.
        Some(bytes),
        mode,
    ))
}

/// One-way bandwidth: rank 0 streams a window of eager sends, rank 1
/// acknowledges the whole window; each sample is one window. Worlds
/// larger than 2 (the proc backend's uniform size) idle ranks 2+.
pub fn bandwidth(bytes: usize, window: usize, reps: usize, mode: PointMode) -> Result<MicroResult> {
    let ranks = mode.p2p_ranks;
    let out = run_point(WorldConfig::new(ranks), mode, move |comm| {
        if comm.rank() >= 2 {
            return Ok(Vec::new());
        }
        let payload = vec![0u8; bytes];
        let mut samples = Vec::with_capacity(reps);
        for rep in 0..reps + 1 {
            if comm.rank() == 0 {
                let t = Instant::now();
                for _ in 0..window {
                    comm.send(&payload, 1, 9)?;
                }
                let _ = comm.recv::<u8>(1, 10)?;
                if rep > 0 {
                    // Per-message time within the window.
                    samples.push(t.elapsed().as_secs_f64() * 1e6 / window as f64);
                }
            } else {
                for _ in 0..window {
                    let _ = comm.recv::<u8>(0, 9)?;
                }
                comm.send(&[1u8], 0, 10)?;
            }
        }
        Ok(samples)
    })?;
    Ok(summarize(
        "bw",
        ranks,
        bytes,
        out.values.into_iter().next().expect("rank 0 samples"),
        Some(bytes),
        mode,
    ))
}

/// Which collective a [`collective`] point exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coll {
    /// Binomial-tree broadcast from rank 0.
    Bcast,
    /// Ring allgather (per-rank contribution of `bytes`).
    Allgather,
    /// Reduce-to-0 + broadcast allreduce (sum).
    Allreduce,
    /// Full personalized exchange (per-destination chunk of `bytes`).
    Alltoall,
}

impl Coll {
    fn name(self) -> &'static str {
        match self {
            Coll::Bcast => "bcast",
            Coll::Allgather => "allgather",
            Coll::Allreduce => "allreduce",
            Coll::Alltoall => "alltoall",
        }
    }
}

/// Time one collective at a per-rank payload of `bytes` on `ranks` ranks.
/// Iterations are separated by barriers; rank 0's per-iteration times are
/// the samples.
pub fn collective(
    which: Coll,
    ranks: usize,
    bytes: usize,
    iters: usize,
    mode: PointMode,
) -> Result<MicroResult> {
    let warmup = (iters / 10).max(2);
    let out = run_point(WorldConfig::new(ranks), mode, move |comm| {
        let elems = (bytes / 8).max(1);
        let data = vec![1.0f64; elems];
        let all2all = vec![1.0f64; elems * comm.size()];
        let mut samples = Vec::with_capacity(iters);
        for i in 0..warmup + iters {
            comm.barrier()?;
            let t = Instant::now();
            match which {
                Coll::Bcast => {
                    let root_data = if comm.rank() == 0 {
                        Some(&data[..])
                    } else {
                        None
                    };
                    let _ = comm.bcast(root_data, 0)?;
                }
                Coll::Allgather => {
                    let _ = comm.allgather(&data)?;
                }
                Coll::Allreduce => {
                    let _ = comm.allreduce(&data, Op::Sum)?;
                }
                Coll::Alltoall => {
                    let _ = comm.alltoall(&all2all)?;
                }
            }
            if comm.rank() == 0 && i >= warmup {
                samples.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        Ok(samples)
    })?;
    Ok(summarize(
        which.name(),
        ranks,
        bytes,
        out.values.into_iter().next().expect("rank 0 samples"),
        // Per-rank contribution per operation.
        Some(bytes),
        mode,
    ))
}

/// Topologies of the simulated-clock collective sweep: (ranks, nodes).
/// Multi-node, so the node-aware and pipelined algorithms have an
/// inter-node network to win on; matches `pdc_mpi::tune::TUNE_TOPOS`.
pub const SIM_TOPOS: [(usize, usize); 2] = [(32, 4), (64, 8)];

/// Per-rank payload sizes of the simulated-clock collective sweep.
pub const SIM_SIZES: [usize; 2] = [65_536, 1 << 20];

/// Iterations per simulated-clock cell (the clock is deterministic; this
/// only smooths per-iteration constants).
const SIM_ITERS: usize = 3;

/// Step program behind [`collective_sim`]: [`SIM_ITERS`] back-to-back
/// calls of one collective at a per-rank payload of `bytes`.
struct CollSim {
    which: Coll,
    bytes: usize,
}

impl StepProgram<()> for CollSim {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<()>> {
        Box::pin(async move {
            let elems = (self.bytes / 8).max(1);
            let data = vec![1.0f64; elems];
            let all2all = vec![1.0f64; elems * sc.size()];
            for _ in 0..SIM_ITERS {
                match self.which {
                    Coll::Bcast => {
                        let root_data = (sc.rank() == 0).then_some(&data[..]);
                        sc.bcast(root_data, 0).await?;
                    }
                    Coll::Allgather => {
                        sc.allgather(&data).await?;
                    }
                    Coll::Allreduce => {
                        sc.allreduce(&data, Op::Sum).await?;
                    }
                    Coll::Alltoall => {
                        sc.alltoall(&all2all).await?;
                    }
                }
            }
            Ok(())
        })
    }
}

/// One simulated-clock collective cell: `which` at a per-rank payload of
/// `bytes` on `ranks` ranks over `nodes` nodes, on the event engine at
/// seed 0. With `table = None` the cell pins the seed flat algorithm
/// (named `<coll>_sim[flat]`); with a tuning table it pins tuned
/// selection (`<coll>_sim[auto]`). Deterministic: the reported p50 is
/// exact simulated time, so the bench gate can hold these cells to a
/// much tighter threshold than the wall-clock points.
pub fn collective_sim(
    which: Coll,
    ranks: usize,
    nodes: usize,
    bytes: usize,
    table: Option<&TuningTable>,
) -> Result<MicroResult> {
    let mut cfg = WorldConfig::new(ranks)
        .on_nodes(nodes)
        .with_sched_seed(0)
        // Pin the regime: the flat cells must not silently pick up a
        // table from PDC_MPI_TUNE_FILE.
        .without_tuning();
    if let Some(t) = table {
        cfg = cfg.with_tuning(t.clone());
    }
    let out = World::run_event(cfg, &CollSim { which, bytes })?;
    let us = out.sim_time * 1e6 / SIM_ITERS as f64;
    Ok(MicroResult {
        bench: format!(
            "{}_sim[{}]",
            which.name(),
            if table.is_some() { "auto" } else { "flat" }
        ),
        ranks,
        payload_bytes: bytes,
        iters: SIM_ITERS,
        p50_us: us,
        p95_us: us,
        mean_us: us,
        mb_per_s: Some(bytes as f64 / us),
        drop_rate: None,
        sched_seed: Some(0),
        backend: Some("event".to_string()),
        bytes_per_rank: None,
        layer: None,
    })
}

/// Posted-queue depths of the mailbox-match cells.
pub const MAILBOX_DEPTHS: [usize; 3] = [1, 32, 1024];

/// Step program behind [`mailbox_match`]: each round, ranks `1..=depth`
/// post one 8-byte message to rank 0 and everyone meets at a barrier, so
/// rank 0 holds `depth` unmatched messages; rank 0 then times receiving
/// all of them (the drain of its channel included), and a second barrier
/// closes the round. Exact-source receives take the sources in reverse
/// arrival order, the worst case for a queue scan.
struct MailboxDrain {
    rounds: usize,
    wildcard: bool,
}

/// Untimed rounds before [`MailboxDrain`] records samples.
const MAILBOX_WARMUP: usize = 2;

impl StepProgram<Vec<f64>> for MailboxDrain {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<Vec<f64>>> {
        Box::pin(async move {
            const TAG: u32 = 5;
            let depth = sc.size() - 1;
            let mut buf = [0u64];
            let mut samples = Vec::with_capacity(self.rounds);
            for round in 0..MAILBOX_WARMUP + self.rounds {
                if sc.rank() != 0 {
                    sc.send(&[round as u64], 0, TAG).await?;
                }
                sc.barrier().await?;
                if sc.rank() == 0 {
                    let t = Instant::now();
                    for i in 0..depth {
                        let src = if self.wildcard {
                            SourceSel::Any
                        } else {
                            SourceSel::Rank(depth - i)
                        };
                        sc.recv_into(&mut buf, src, TAG).await?;
                    }
                    if round >= MAILBOX_WARMUP {
                        samples.push(t.elapsed().as_secs_f64() * 1e6 / depth as f64);
                    }
                }
                sc.barrier().await?;
            }
            Ok(samples)
        })
    }
}

/// Mailbox-match cell (`layer: "mailbox"`): wall time per matched
/// receive on a rank holding `depth` pending messages from `depth`
/// distinct sources, by exact source (`mailbox_match[exact]`) or
/// `ANY_SOURCE` (`mailbox_match[any]`). Runs on the single-threaded
/// event engine (seed 0), which is what makes a 1025-rank world cheap
/// and keeps thread scheduling out of the number; `ranks` is
/// `depth + 1`.
pub fn mailbox_match(depth: usize, wildcard: bool, rounds: usize) -> Result<MicroResult> {
    let cfg = WorldConfig::new(depth + 1)
        .with_sched_seed(0)
        .with_eager_threshold(usize::MAX);
    let out = World::run_event(cfg, &MailboxDrain { rounds, wildcard })?;
    let samples = out.values.into_iter().next().expect("rank 0 samples");
    let name = if wildcard { "any" } else { "exact" };
    let mut r = summarize(
        &format!("mailbox_match[{name}]"),
        depth + 1,
        8,
        samples,
        Some(8),
        PointMode::default(),
    );
    r.sched_seed = Some(0);
    r.backend = Some("event".to_string());
    r.layer = Some("mailbox".to_string());
    Ok(r)
}

/// Payload sizes for the latency sweep, bytes.
pub const LAT_SIZES: [usize; 4] = [8, 1024, 65_536, 1 << 20];

/// Payload sizes for the collective sweep, bytes per rank.
pub const COLL_SIZES: [usize; 3] = [1024, 65_536, 1 << 20];

/// World size used for collective points.
pub const COLL_RANKS: usize = 8;

/// Run the whole suite with the given budget. `tuning` feeds the
/// simulated-clock collective sweep: every sweep cell is measured with
/// the seed flat algorithms, and — when a table is supplied — measured
/// again with tuned selection, so the suite pins the flat-vs-tuned gap
/// as first-class data points.
pub fn run_suite(cfg: MicroConfig, mode: &str, tuning: Option<&TuningTable>) -> Result<MicroSuite> {
    let point_mode = PointMode::from_config(&cfg);
    let mut results = Vec::new();
    for &bytes in &LAT_SIZES {
        // Large rendezvous payloads pay a blocking handshake per message;
        // scale the iteration budget down so the point stays cheap.
        let iters = if bytes >= 1 << 20 {
            (cfg.lat_iters / 10).max(10)
        } else {
            cfg.lat_iters
        };
        results.push(pingpong(bytes, iters, true, point_mode)?);
        results.push(pingpong(bytes, iters, false, point_mode)?);
    }
    for &bytes in &[65_536usize, 1 << 20] {
        results.push(bandwidth(bytes, cfg.bw_window, cfg.bw_reps, point_mode)?);
    }
    for which in [
        Coll::Bcast,
        Coll::Allgather,
        Coll::Allreduce,
        Coll::Alltoall,
    ] {
        for &bytes in &COLL_SIZES {
            let iters = if bytes >= 1 << 20 {
                cfg.coll_iters_large
            } else {
                cfg.coll_iters
            };
            results.push(collective(which, cfg.coll_ranks, bytes, iters, point_mode)?);
        }
    }
    // The simulated-clock sweep prices the α–β model, which is identical
    // on every transport; it runs on the in-process event engine, so
    // `--backend proc` skips it.
    if cfg.backend != Backend::Proc {
        for which in [Coll::Bcast, Coll::Allreduce] {
            for &(ranks, nodes) in &SIM_TOPOS {
                for &bytes in &SIM_SIZES {
                    results.push(collective_sim(which, ranks, nodes, bytes, None)?);
                    if let Some(t) = tuning {
                        results.push(collective_sim(which, ranks, nodes, bytes, Some(t))?);
                    }
                }
            }
        }
    }
    // Per-layer cells: mailbox matching at several queue depths. They run
    // on the in-process event engine, so `--backend proc` skips them.
    if cfg.backend != Backend::Proc {
        for &depth in &MAILBOX_DEPTHS {
            for wildcard in [false, true] {
                results.push(mailbox_match(depth, wildcard, cfg.coll_iters)?);
            }
        }
    }
    Ok(MicroSuite {
        suite: "pdc-mpi-micro".to_string(),
        mode: mode.to_string(),
        results,
    })
}

impl MicroSuite {
    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>5} {:>10} {:>7} {:>12} {:>12} {:>12} {:>10}\n",
            "bench", "ranks", "bytes", "iters", "p50 (µs)", "p95 (µs)", "mean (µs)", "MB/s"
        ));
        for r in &self.results {
            out.push_str(&format!(
                "{:<14} {:>5} {:>10} {:>7} {:>12.2} {:>12.2} {:>12.2} {:>10}\n",
                r.bench,
                r.ranks,
                r.payload_bytes,
                r.iters,
                r.p50_us,
                r.p95_us,
                r.mean_us,
                r.mb_per_s
                    .map(|b| format!("{b:.0}"))
                    .unwrap_or_else(|| "-".to_string()),
            ));
        }
        out
    }

    /// Sanity ceilings for CI: generous absolute bounds that only a real
    /// regression (not scheduler noise) can break, plus the tuned-vs-flat
    /// gate over the simulated collective sweep. Returns the offending
    /// points.
    pub fn regression_markers(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for r in &self.results {
            if r.bench.contains("_sim[") {
                // Simulated time is deterministic, so the ceiling can be
                // tight: ~1.5× the measured seed flat numbers.
                let ceiling_us = if r.payload_bytes >= 1 << 20 {
                    1_500.0
                } else {
                    150.0
                };
                if r.p50_us > ceiling_us {
                    bad.push(format!(
                        "{} @ {} B, {} ranks: sim p50 {:.1} µs exceeds ceiling {:.0} µs",
                        r.bench, r.payload_bytes, r.ranks, r.p50_us, ceiling_us
                    ));
                }
                continue;
            }
            // Lossy points pay retransmissions by design, seeded
            // event-engine cells time one layer rather than a transport,
            // and multi-process points pay fork/socket costs that vary
            // with machine load; only the default fault-free thread-mode
            // points defend the trajectory.
            if r.drop_rate.is_some() || r.sched_seed.is_some() || r.backend.is_some() {
                continue;
            }
            // Ceilings are ~50× the post-optimization numbers on a
            // single-core CI container.
            let ceiling_us = match (r.bench.as_str(), r.payload_bytes) {
                ("pingpong", b) if b <= 1024 => 2_000.0,
                ("pingpong" | "pingpong_rdv", _) => 20_000.0,
                ("bw", _) => 20_000.0,
                (_, b) if b < 1 << 20 => 50_000.0,
                _ => 500_000.0,
            };
            if r.p50_us > ceiling_us {
                bad.push(format!(
                    "{} @ {} B: p50 {:.1} µs exceeds ceiling {:.0} µs",
                    r.bench, r.payload_bytes, r.p50_us, ceiling_us
                ));
            }
        }
        bad.extend(self.tuned_sweep_markers());
        bad
    }

    /// Gate on the point of the tuning table: when the suite carries
    /// tuned (`_sim[auto]`) cells, at least two of them must beat their
    /// flat twin by ≥2× on simulated p50, and none may regress past 1.25×
    /// (the header broadcast a tuned bcast pays on cells where the table
    /// still picks flat is well inside that).
    fn tuned_sweep_markers(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let mut auto_cells = 0usize;
        let mut wins = 0usize;
        for auto in &self.results {
            let Some(stem) = auto.bench.strip_suffix("_sim[auto]") else {
                continue;
            };
            auto_cells += 1;
            let flat_name = format!("{stem}_sim[flat]");
            let Some(flat) = self.results.iter().find(|f| {
                f.bench == flat_name
                    && f.ranks == auto.ranks
                    && f.payload_bytes == auto.payload_bytes
            }) else {
                bad.push(format!(
                    "{} @ {} B, {} ranks: no flat twin to compare against",
                    auto.bench, auto.payload_bytes, auto.ranks
                ));
                continue;
            };
            if auto.p50_us > flat.p50_us * 1.25 {
                bad.push(format!(
                    "{} @ {} B, {} ranks: tuned p50 {:.1} µs regresses past flat {:.1} µs",
                    auto.bench, auto.payload_bytes, auto.ranks, auto.p50_us, flat.p50_us
                ));
            }
            if flat.p50_us >= 2.0 * auto.p50_us {
                wins += 1;
            }
        }
        if auto_cells > 0 && wins < 2 {
            bad.push(format!(
                "tuned collective sweep holds only {wins} ≥2× win(s) over flat (need 2)"
            ));
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn old_bench_json_without_drop_rate_still_parses() {
        // The committed BENCH_mpi.json trajectories predate the
        // `drop_rate` field; appending it must not orphan them.
        let old = r#"{
            "bench": "pingpong", "ranks": 2, "payload_bytes": 8,
            "iters": 100, "p50_us": 1.0, "p95_us": 2.0, "mean_us": 1.2,
            "mb_per_s": null
        }"#;
        let r: MicroResult = serde_json::from_str(old).expect("old schema parses");
        assert_eq!(r.drop_rate, None);
        assert_eq!(r.sched_seed, None);
        assert_eq!(r.backend, None);
        assert_eq!(r.bench, "pingpong");
    }

    fn sim_point(bench: &str, p50_us: f64) -> MicroResult {
        MicroResult {
            bench: bench.into(),
            ranks: 32,
            payload_bytes: 1 << 20,
            iters: 3,
            p50_us,
            p95_us: p50_us,
            mean_us: p50_us,
            mb_per_s: Some((1 << 20) as f64 / p50_us),
            drop_rate: None,
            sched_seed: Some(0),
            backend: None,
            bytes_per_rank: None,
            layer: None,
        }
    }

    #[test]
    fn tuned_sweep_gate_requires_two_wins() {
        let mut suite = MicroSuite {
            suite: "test".into(),
            mode: "quick".into(),
            results: vec![
                sim_point("bcast_sim[flat]", 400.0),
                sim_point("bcast_sim[auto]", 150.0),
                sim_point("allreduce_sim[flat]", 700.0),
                sim_point("allreduce_sim[auto]", 600.0),
            ],
        };
        // Only one ≥2× win: the gate trips.
        let markers = suite.regression_markers();
        assert!(
            markers.iter().any(|m| m.contains("≥2× win")),
            "expected a win-count marker, got {markers:?}"
        );
        // Second win: clean.
        suite.results[3].p50_us = 300.0;
        assert!(suite.regression_markers().is_empty());
        // A tuned cell regressing past 1.25× its flat twin trips the gate
        // even with enough wins elsewhere.
        suite.results[3].p50_us = 900.0;
        suite.results.push(sim_point("gather_sim[flat]", 400.0));
        suite.results.push(sim_point("gather_sim[auto]", 100.0));
        let markers = suite.regression_markers();
        assert!(
            markers.iter().any(|m| m.contains("regresses past flat")),
            "expected a regression marker, got {markers:?}"
        );
        // Flat-only suites (no table supplied) never trip the gate.
        suite.results.retain(|r| !r.bench.contains("[auto]"));
        assert!(suite.regression_markers().is_empty());
    }

    #[test]
    fn lossy_points_are_exempt_from_regression_ceilings() {
        let slow_but_lossy = MicroResult {
            bench: "pingpong".into(),
            ranks: 2,
            payload_bytes: 8,
            iters: 1,
            p50_us: 1e9,
            p95_us: 1e9,
            mean_us: 1e9,
            mb_per_s: None,
            drop_rate: Some(0.2),
            sched_seed: None,
            backend: None,
            bytes_per_rank: None,
            layer: None,
        };
        let slow_but_virtual = MicroResult {
            drop_rate: None,
            sched_seed: Some(3),
            ..slow_but_lossy.clone()
        };
        let slow_but_proc = MicroResult {
            drop_rate: None,
            backend: Some("proc".into()),
            ..slow_but_lossy.clone()
        };
        let suite = MicroSuite {
            suite: "pdc-mpi-micro".into(),
            mode: "quick".into(),
            results: vec![slow_but_lossy, slow_but_virtual, slow_but_proc],
        };
        assert!(suite.regression_markers().is_empty());
    }
}
