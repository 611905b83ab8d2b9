//! The wait core: the four points at which a rank can wait, and the only
//! code in the runtime that knows how a rank waits.
//!
//! Every primitive and collective is written once, as `async` code over
//! a [`StepComm`](crate::StepComm), and suspends only by awaiting one of
//! the [`Waiter`]'s four waits:
//!
//! | wait            | completes when                                     |
//! |-----------------|----------------------------------------------------|
//! | [`Waiter::recv`]  | a message matching the spec is in the mailbox    |
//! | [`Waiter::ack`]   | the rendezvous partner started the matching receive |
//! | [`Waiter::probe`] | a matching user message is in the mailbox (kept) |
//! | [`Waiter::agree`] | every rank entered the agreement, failed, or finished |
//!
//! A [`Waiter::Blocking`] rank (thread and proc backends) waits
//! by blocking its thread inside the mailbox, ack channel, or agreement
//! condvar, so its futures complete on their first poll. A
//! [`Waiter::Event`] rank (the event backend) parks its state machine on
//! its [`WaitCell`] and leaves the wake to the discrete-event engine.
//! Either way the same completion code runs (`finish_recv`/`finish_ack`),
//! so the observable effects are identical.
//!
//! A wait that cannot complete at once registers what it needs with the
//! shared progress state as a plain-data [`PendingOp`] (rank, primitive,
//! call site, and the match spec or destination and tag). Nothing is
//! formatted and nothing is allocated: the deadlock explanation's text is
//! rendered from these records only when a deadlock is reported.

use crate::chan::{Receiver, TryRecvError};
use crate::check::{CallSite, PendingOn, PendingOp};
use crate::comm::Comm;
use crate::envelope::{Envelope, MatchSpec, Status};
use crate::error::{Error, Result};
use crate::step::RankStep;
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

/// Per-rank wait state shared between a parked state machine and the
/// event engine. A few bytes per rank — this *is* the "stack" of a parked
/// virtual rank on the event backend.
pub(crate) struct WaitCell {
    /// The rank is suspended and needs an external wake to make progress.
    pub parked: bool,
    /// The rank is already in the engine's run heap (dedups wakes).
    pub queued: bool,
    /// Simulated time at which the rank parked; its resume priority.
    pub now: f64,
    /// Which blocking point the rank is suspended at.
    pub waiting: RankStep,
}

impl WaitCell {
    pub(crate) fn new() -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(WaitCell {
            parked: false,
            queued: false,
            now: 0.0,
            waiting: RankStep::Ready,
        }))
    }
}

/// Wake hints the waits push for the engine: completing a receive
/// releases a rendezvous sender (`wake`); parking in `agree` registers
/// for the progress-change requeue list; entering `agree` is itself a
/// progress change other agree-waiters must observe.
#[derive(Default)]
pub(crate) struct Hints {
    /// Ranks to requeue because an action just unblocked them.
    pub wake: Vec<usize>,
    /// Ranks parked in `agree`, requeued on any progress change.
    pub agree_parked: Vec<usize>,
    /// Set when a rank entered an agreement generation this poll.
    pub agree_entered: bool,
}

/// Everything an event-mode rank needs to suspend: its wait cell and the
/// shared hint lists.
pub(crate) struct EventCtx {
    pub cell: Rc<RefCell<WaitCell>>,
    pub hints: Rc<RefCell<Hints>>,
}

/// How a rank waits: by blocking its thread, or by parking its state
/// machine on the event engine.
pub(crate) enum Waiter {
    Blocking,
    Event(EventCtx),
}

/// Future that suspends exactly once; the rank is already marked parked
/// on its wait cell, and the engine re-polls it after a wake.
struct Park {
    yielded: bool,
}

impl Future for Park {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            Poll::Pending
        }
    }
}

/// Park the calling rank at `step`, priced at simulated time `now`.
fn park(ctx: &EventCtx, now: f64, step: RankStep) -> Park {
    let mut cell = ctx.cell.borrow_mut();
    cell.now = now;
    cell.waiting = step;
    cell.parked = true;
    Park { yielded: false }
}

impl Waiter {
    /// Wait for a message matching `spec` and complete its receive
    /// (clock, stats, rendezvous release). `user` names the primitive and
    /// call site of a user-level receive for deadlock explanations.
    pub(crate) async fn recv(
        &self,
        comm: &mut Comm<'_>,
        spec: &MatchSpec,
        user: Option<&(&'static str, CallSite)>,
    ) -> Result<Envelope> {
        let user = user.copied();
        let ctx = match self {
            Waiter::Blocking => return comm.transport_recv(spec, user),
            Waiter::Event(ctx) => ctx,
        };
        // Completing a match releases a rendezvous sender, so the
        // sender's rank is pushed as a wake hint for the engine.
        if let Some(env) = comm.try_transport_recv(spec)? {
            ctx.hints.borrow_mut().wake.push(env.src);
            return Ok(env);
        }
        let step = match spec {
            MatchSpec::User(..) => RankStep::Recv,
            MatchSpec::Internal(..) => RankStep::Collective,
        };
        let target = spec.source_rank();
        let acked = comm.acked_failures();
        let op = comm.pending_recv(spec, user);
        let progress = comm.progress();
        let _guard = progress.enter_blocked_as(op);
        loop {
            if progress.should_stop(target, acked) {
                return Err(progress.stop_error(target, acked));
            }
            park(ctx, comm.sim_time(), step).await;
            if let Some(env) = comm.try_transport_recv(spec)? {
                ctx.hints.borrow_mut().wake.push(env.src);
                return Ok(env);
            }
        }
    }

    /// Wait for the rendezvous partner of a send to `dst` with `tag` to
    /// start the matching receive, advancing the clock to the acknowledged
    /// time. `what` and `site` name the blocked call for the wait-for
    /// graph.
    pub(crate) async fn ack(
        &self,
        comm: &mut Comm<'_>,
        ack: Receiver<f64>,
        dst: usize,
        tag: u32,
        what: &'static str,
        site: &CallSite,
    ) -> Result<()> {
        let op = PendingOp {
            rank: comm.rank(),
            op: what,
            site: *site,
            on: PendingOn::Send { dest: dst, tag },
        };
        let ctx = match self {
            Waiter::Blocking => return comm.await_ack(ack, dst, op),
            Waiter::Event(ctx) => ctx,
        };
        let before = comm.sim_time();
        let acked = comm.acked_failures();
        let progress = comm.progress();
        let _guard = progress.enter_blocked_as(op);
        loop {
            match ack.try_recv() {
                Ok(t) => {
                    comm.finish_ack(t, dst, before);
                    return Ok(());
                }
                Err(TryRecvError::Empty) => {
                    if progress.should_stop(Some(dst), acked) {
                        return Err(progress.stop_error(Some(dst), acked));
                    }
                    park(ctx, comm.sim_time(), RankStep::RendezvousAck).await;
                }
                Err(TryRecvError::Disconnected) => {
                    return Err(if progress.should_stop(Some(dst), acked) {
                        progress.stop_error(Some(dst), acked)
                    } else {
                        Error::WorldShutDown
                    });
                }
            }
        }
    }

    /// Wait until a user message matching `spec` is in the mailbox and
    /// return its status without receiving it.
    pub(crate) async fn probe(
        &self,
        comm: &mut Comm<'_>,
        spec: &MatchSpec,
        site: &CallSite,
    ) -> Result<Status> {
        let target = spec.source_rank();
        let acked = comm.acked_failures();
        let progress = comm.progress();
        let op = comm.pending_recv(spec, Some(("probe", *site)));
        let ctx = match self {
            Waiter::Blocking => return comm.probe_blocking(spec, op),
            Waiter::Event(ctx) => ctx,
        };
        if let Some(st) = comm.peek(spec) {
            return Ok(st);
        }
        let _guard = progress.enter_blocked_as(op);
        loop {
            if progress.should_stop(target, acked) {
                return Err(progress.stop_error(target, acked));
            }
            park(ctx, comm.sim_time(), RankStep::Recv).await;
            if let Some(st) = comm.peek(spec) {
                return Ok(st);
            }
        }
    }

    /// Wait until every world rank has entered this failure agreement,
    /// failed, or finished; returns the agreed failed set and the failure
    /// epoch it covers.
    pub(crate) async fn agree(
        &self,
        comm: &mut Comm<'_>,
        op: PendingOp,
    ) -> Result<(Vec<(usize, f64)>, u64)> {
        let rank = comm.rank();
        let progress = comm.progress();
        let _guard = progress.enter_blocked_as(op);
        let ctx = match self {
            Waiter::Blocking => return progress.agree(rank),
            Waiter::Event(ctx) => ctx,
        };
        let my_gen = progress.agree_enter(rank);
        ctx.hints.borrow_mut().agree_entered = true;
        loop {
            if let Some(agreed) = progress.agree_poll(my_gen) {
                return Ok(agreed);
            }
            if progress.is_poisoned() {
                return Err(progress.deadlock_error());
            }
            ctx.hints.borrow_mut().agree_parked.push(rank);
            park(ctx, comm.sim_time(), RankStep::Agree).await;
        }
    }
}
