//! # pdc-prof — a perf/Scalasca-style profiler for the pdc runtime
//!
//! The paper's Module A2 puts Linux `perf` in front of students so the
//! *reason* a kernel stops scaling — the memory bus, not the ALUs —
//! becomes measurable. This crate is that substrate for the simulated
//! cluster: it consumes the simulated clock, the per-rank
//! [`Timeline`](pdc_mpi::Timeline) spans, the named phase markers, and
//! the per-comm transfer statistics, and produces one serialisable
//! [`Profile`] per run containing:
//!
//! * a **hardware-counter model** per rank and per named phase — flops,
//!   DRAM bytes, effective bandwidth, message counts/volume, compute vs
//!   wait time — with a **roofline verdict** per kernel phase
//!   (compute-bound vs bandwidth-bound, and *which* ceiling:
//!   `core_mem_bw` or the saturated `node_mem_bw / sharers`);
//! * **Scalasca-style wait-state analysis**: late-sender and
//!   late-receiver on point-to-point traffic, arrival imbalance on
//!   collectives, each blamed on a culprit rank;
//! * a **critical path** through the rank/message dependency graph with
//!   per-phase blame percentages;
//! * a human [`render`] (flat profile + top wait-states + critical
//!   path), an enriched Chrome trace ([`enriched_chrome_json`]), and the
//!   `mpi_prof` binary producing `PROF_modules.json`.
//!
//! ## Usage
//!
//! ```
//! use pdc_prof::profile_world;
//! use pdc_mpi::WorldConfig;
//!
//! let profiled = profile_world(WorldConfig::new(4), |comm| {
//!     comm.phase_begin("kernel");
//!     comm.charge_kernel(1e6, 8e6);
//!     comm.phase_end();
//!     comm.barrier()
//! })
//! .expect("run succeeds");
//! println!("{}", pdc_prof::render(&profiled.profile));
//! assert!(profiled.profile.kernel("kernel").is_some());
//! ```
//!
//! The machine context comes from the run's own config
//! ([`ProfContext::from_config`](pdc_mpi::ProfContext::from_config)) —
//! see `docs/profiling.md` for the counter model, the wait-state
//! definitions, and a worked late-sender diagnosis.

#![warn(missing_docs)]

pub mod chrome;
pub mod clinic;
mod counters;
mod critical;
mod profile;
mod render;
mod waitstate;

pub use chrome::enriched_chrome_json;
pub use counters::{Bound, KernelVerdict, PhaseCounters, PhaseRank, RankCounters, UNPHASED};
pub use critical::{CriticalPath, PathSegment, PhaseBlame};
pub use profile::{Profile, ProtocolTotals};
pub use render::render;
pub use waitstate::{WaitKind, WaitState};

use pdc_mpi::{Comm, ProfContext, Result, RunOutput, World, WorldConfig};

/// A profiled execution: the world's ordinary output plus its diagnosis.
#[derive(Debug)]
pub struct Profiled<T> {
    /// What [`World::run`] would have returned.
    pub output: RunOutput<T>,
    /// The profiler's diagnosis of the run.
    pub profile: Profile,
}

impl<T> Profiled<T> {
    /// Per-rank values, for callers that only need the answer.
    pub fn values(self) -> Vec<T> {
        self.output.values
    }
}

/// Run `f` under the profiler: tracing is forced on, and the trace is
/// analysed into a [`Profile`]. Fails if the run itself fails (a
/// deadlocked or crashed run has no meaningful performance profile —
/// diagnose it with pdc-check first).
pub fn profile_world<T, F>(cfg: WorldConfig, f: F) -> Result<Profiled<T>>
where
    T: Send,
    F: Fn(&mut Comm) -> Result<T> + Send + Sync,
{
    let cfg = cfg.with_tracing();
    let ctx = ProfContext::from_config(&cfg);
    let output = World::run(cfg, f)?;
    let profile = Profile::from_run(&output, &ctx);
    Ok(Profiled { output, profile })
}

/// Named entry point mirroring `World`: `ProfiledWorld::run` is
/// [`profile_world`].
pub struct ProfiledWorld;

impl ProfiledWorld {
    /// See [`profile_world`].
    pub fn run<T, F>(cfg: WorldConfig, f: F) -> Result<Profiled<T>>
    where
        T: Send,
        F: Fn(&mut Comm) -> Result<T> + Send + Sync,
    {
        profile_world(cfg, f)
    }
}
