//! # pdc-mpi — a thread-backed message-passing runtime with MPI semantics
//!
//! The paper's pedagogic modules teach distributed-memory computing with
//! MPI on a cluster. This crate is the reproduction's substrate for that:
//! a runtime in which each *rank* is an OS thread with a private address
//! space (state crosses rank boundaries only inside messages), exposing
//! the MPI primitives the modules use:
//!
//! * point-to-point: [`Comm::send`], [`Comm::recv`], [`Comm::isend`],
//!   [`Comm::irecv`], [`Comm::wait_send`]/[`Comm::wait_recv`],
//!   [`Comm::ssend`], [`Comm::sendrecv`], [`Comm::probe`],
//!   [`Comm::get_count`], with `ANY_SOURCE`/`ANY_TAG` wildcards and MPI
//!   matching order;
//! * collectives: [`Comm::barrier`], [`Comm::bcast`], [`Comm::scatter`],
//!   [`Comm::scatterv`], [`Comm::gather`], [`Comm::gatherv`],
//!   [`Comm::allgather`], [`Comm::reduce`], [`Comm::allreduce`],
//!   [`Comm::alltoall`], [`Comm::alltoallv`];
//! * eager vs rendezvous protocols (so blocking-send deadlock is real and
//!   demonstrable) with a watchdog that detects deadlock and reports it as
//!   an error instead of hanging the test suite;
//! * per-rank instrumentation ([`CommStats`]) counting calls, messages,
//!   and bytes — the data behind the paper's Table II;
//! * a simulated clock driven by [`pdc_cluster::CostModel`] so scaling
//!   experiments are deterministic and independent of the host machine.
//!
//! ## Simulation fidelity
//!
//! The clock is a conservative discrete-event simulation riding on real
//! thread execution: a receive advances the receiver to the matched
//! message's arrival time. For programs whose matching structure is
//! independent of wall-clock interleaving (fixed partners, collectives,
//! `ANY_SOURCE` fan-ins where all sends precede the receives) the simulated
//! time is exact and deterministic. One pattern is approximate: a *stateful
//! service loop* over `ANY_SOURCE` (e.g. a master handing out tasks) serves
//! requests in wall-clock arrival order, which can ratchet the server's
//! clock ahead of a logically-earlier request. Wildcard matching therefore
//! prefers the pending message with the smallest simulated send time, and
//! paced examples (see `examples/task_farm.rs`) show how to keep real and
//! simulated order aligned when timing such patterns.
//!
//! ## Quick example
//!
//! ```
//! use pdc_mpi::{World, Op};
//!
//! let out = World::run_simple(4, |comm| {
//!     let mine = [comm.rank() as u64 + 1];
//!     let total = comm.allreduce(&mine, Op::Sum)?;
//!     Ok(total[0])
//! })
//! .expect("world runs");
//! assert_eq!(out.values, vec![10, 10, 10, 10]);
//! ```

#![warn(missing_docs)]

pub(crate) mod chan;
pub mod check;
pub(crate) mod coll;
pub mod comm;
pub mod datatype;
pub mod envelope;
pub mod error;
pub mod event;
pub mod fault;
pub mod mailbox;
pub(crate) mod observe;
pub mod reduce;
pub mod stats;
pub mod step;
pub mod subcomm;
pub mod topology;
pub mod trace;
pub mod transport;
pub mod tune;
pub(crate) mod wait;
pub mod world;

pub use check::{BlockedOp, CallSite, CheckEvent, CheckMode, DeadlockInfo, WaitTarget};
pub use comm::{Comm, RecvRequest, SendRequest};
pub use datatype::{Datatype, Loc};
pub use envelope::{SourceSel, Status, TagSel};
pub use error::{Error, Result};
pub use event::EventMemStats;
pub use fault::{CrashEvent, FaultPlan, RetryPolicy};
pub use reduce::{Op, Reducible};
pub use stats::{AlgoVolume, CommStats, Primitive, ProtocolVolume};
pub use step::{drive, RankStep, StepComm, StepFuture, StepProgram};
pub use subcomm::SubComm;
pub use topology::{dims_create, CartTopology};
pub use trace::{
    render_timeline, to_chrome_json, CollSpan, PhaseSpan, Span, SpanKind, Timeline, TimelineSummary,
};
pub use transport::proc::is_proc_child;
pub use tune::{CollAlgo, CollKind, PlacementLayout, SizeClass, TuningTable};
pub use world::{CancelToken, ProfContext, RunOutput, World, WorldConfig};

/// Wildcard source (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: SourceSel = SourceSel::Any;
/// Wildcard tag (`MPI_ANY_TAG`).
pub const ANY_TAG: TagSel = TagSel::Any;
