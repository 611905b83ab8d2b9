//! The wait core: the four points at which a rank can wait, and the only
//! code in the runtime that knows how a rank waits.
//!
//! Every primitive and collective is written once, as `async` code over
//! a [`StepComm`](crate::StepComm), and suspends only by awaiting one of
//! the [`Waiter`]'s four waits:
//!
//! | wait              | completes when                                      | a blocking rank parks on | stops on |
//! |-------------------|-----------------------------------------------------|--------------------------|----------|
//! | [`Waiter::recv`]  | a message matching the spec is in the mailbox       | its channel inbox        | poison, a failed source, an unacknowledged failure |
//! | [`Waiter::ack`]   | the rendezvous partner's ack of the send arrived    | its channel inbox        | as `recv` from the destination; a refusal or a finished destination ends it with `WorldShutDown` |
//! | [`Waiter::probe`] | a matching user message is in the mailbox (kept)    | its channel inbox        | as `recv` |
//! | [`Waiter::agree`] | every rank entered the agreement, failed, or finished | the agreement condvar  | poison |
//!
//! All four run one loop ([`Waiter::wait_for`]): try to complete; on the
//! first miss, register what the rank waits for with the shared progress
//! state as a plain-data [`PendingOp`] (rank, primitive, call site, and
//! the match spec or destination and tag); then park, and try again. A
//! park ends in one of three ways: woken (try again), stopped (report
//! the stop error), or the channel closed (one last try, then the stop
//! error or [`Error::WorldShutDown`]). Nothing is formatted and nothing
//! is allocated on the way: the deadlock explanation's text is rendered
//! from the registered records only when a deadlock is reported.
//!
//! Only the park differs by backend:
//!
//! * a [`Waiter::Blocking`] rank (thread and proc backends) blocks its
//!   thread on the channel or condvar in the table, with a short
//!   yield-spin first on a channel. The stop condition is evaluated under
//!   that lock, so a message that already arrived wins over a concurrent
//!   poison, and no wake is lost. Its futures complete on their first
//!   poll;
//! * a [`Waiter::Event`] rank (the event backend) checks the stop
//!   condition, marks itself parked on its [`WaitCell`], and yields to the
//!   discrete-event engine, which re-polls it after a wake. Its channels
//!   never close.
//!
//! An acknowledgement is an envelope like any other, so a rendezvous
//! sender is woken by its arrival on every backend. The event engine
//! also takes wake hints for agreements, which a blocking rank's condvar
//! does not need: an agreement resolves on progress state, not on a
//! message, and entering one is a progress change for the ranks parked
//! in it.

use crate::chan::WaitError;
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

/// Wake hints the waits push for the engine: parking in `agree`
/// registers for the progress-change requeue list; entering `agree` is
/// itself a progress change other agree-waiters must observe.
#[derive(Default)]
pub(crate) struct Hints {
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

/// What a wait parks on, which also fixes what stops it early.
#[derive(Clone, Copy)]
enum ParkOn {
    /// The rank's channel inbox: a receive or probe from `from` (`None`
    /// for any source), or a rendezvous send's ack from `from`, reported
    /// to the event engine as `step`.
    Inbox { from: Option<usize>, step: RankStep },
    /// The resolution of agreement generation `gen`.
    Agree(u64),
}

impl ParkOn {
    /// The blocking point an event rank parked here reports.
    fn step(self) -> RankStep {
        match self {
            ParkOn::Inbox { step, .. } => step,
            ParkOn::Agree(_) => RankStep::Agree,
        }
    }

    /// The awaited peer of a wait that failures stop: a receive, probe
    /// or ack wait stops on poison, its peer's failure, or a failure this
    /// rank has not acknowledged. `None` for an agreement, which only
    /// poison stops: agreeing is how a rank acknowledges failures.
    fn peer(self) -> Option<Option<usize>> {
        match self {
            ParkOn::Inbox { from, .. } => Some(from),
            ParkOn::Agree(_) => None,
        }
    }

    /// Should a wait parked here stop?
    fn stopped(self, comm: &Comm<'_>) -> bool {
        match self.peer() {
            Some(peer) => comm.progress().should_stop(peer, comm.acked_failures()),
            None => comm.progress().is_poisoned(),
        }
    }

    /// The error a stopped wait reports.
    fn stop_error(self, comm: &Comm<'_>) -> Error {
        match self.peer() {
            Some(peer) => comm.progress().stop_error(peer, comm.acked_failures()),
            None => comm.progress().deadlock_error(),
        }
    }

    /// The error of a wait whose channel closed with nothing to take, or
    /// whose rendezvous partner refused the send: the failure or deadlock
    /// behind it when there is one, else the world is shutting down.
    fn closed_error(self, comm: &Comm<'_>) -> Error {
        if self.stopped(comm) {
            self.stop_error(comm)
        } else {
            Error::WorldShutDown
        }
    }
}

/// One park: already over (every blocking park, and an event park that
/// found its stop condition), or one suspension of an event rank, which
/// the engine ends by re-polling it.
enum Park {
    Over(std::result::Result<(), WaitError>),
    Yield,
}

impl Future for Park {
    type Output = std::result::Result<(), WaitError>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        match *self {
            Park::Over(done) => Poll::Ready(done),
            Park::Yield => {
                *self = Park::Over(Ok(()));
                Poll::Pending
            }
        }
    }
}

impl Waiter {
    /// Wait for a message matching `spec` and complete its receive
    /// (clock, stats, rendezvous release). `user` names the primitive and
    /// call site of a user-level receive for deadlock explanations.
    pub(crate) fn recv<'a, 'w>(
        &'a self,
        comm: &'a mut Comm<'w>,
        spec: &'a MatchSpec,
        user: Option<&'a (&'static str, CallSite)>,
    ) -> impl Future<Output = Result<Envelope>> + use<'a, 'w> {
        let step = match spec {
            MatchSpec::User(..) => RankStep::Recv,
            MatchSpec::Internal(..) | MatchSpec::Ack(..) => RankStep::Collective,
        };
        let on = ParkOn::Inbox {
            from: spec.source_rank(),
            step,
        };
        self.wait_for(
            comm,
            on,
            move |c| c.pending_recv(spec, user.copied()),
            move |c| c.try_transport_recv(spec),
        )
    }

    /// Wait for `dst`'s ack of this rank's rendezvous envelope `seq`
    /// (a send with `tag`), advancing the clock to the acknowledged match
    /// time. A refusal, or a partner that finished without answering,
    /// ends the wait with the closed-inbox error. `what` and `site` name
    /// the blocked call for the wait-for graph.
    pub(crate) fn ack<'a, 'w>(
        &'a self,
        comm: &'a mut Comm<'w>,
        seq: u64,
        dst: usize,
        tag: u32,
        what: &'static str,
        site: &'a CallSite,
    ) -> impl Future<Output = Result<()>> + use<'a, 'w> {
        let on = ParkOn::Inbox {
            from: Some(dst),
            step: RankStep::RendezvousAck,
        };
        self.wait_for(
            comm,
            on,
            move |c| PendingOp {
                rank: c.rank(),
                op: what,
                site: *site,
                on: PendingOn::Send { dest: dst, tag },
            },
            move |c| {
                // A finished partner answered everything it ever will
                // before it was marked done, so look once more after
                // seeing it done, and only then give up.
                let finished = c.progress().is_done(dst);
                match c.take_ack(dst, seq) {
                    Some(Some(t)) => {
                        c.finish_ack(t, dst);
                        Ok(Some(()))
                    }
                    None if !finished => Ok(None),
                    // Refused, or the partner finished without answering.
                    _ => Err(on.closed_error(c)),
                }
            },
        )
    }

    /// Wait until a user message matching `spec` is in the mailbox and
    /// return its status without receiving it.
    pub(crate) fn probe<'a, 'w>(
        &'a self,
        comm: &'a mut Comm<'w>,
        spec: &'a MatchSpec,
        site: &'a CallSite,
    ) -> impl Future<Output = Result<Status>> + use<'a, 'w> {
        let on = ParkOn::Inbox {
            from: spec.source_rank(),
            step: RankStep::Recv,
        };
        self.wait_for(
            comm,
            on,
            move |c| c.pending_recv(spec, Some(("probe", *site))),
            move |c| Ok(c.peek(spec)),
        )
    }

    /// Enter a failure agreement and wait until every world rank has
    /// entered it, failed, or finished; returns the agreed failed set and
    /// the failure epoch it covers. The rank enters when the wait is
    /// created, before its first poll.
    pub(crate) fn agree<'a, 'w>(
        &'a self,
        comm: &'a mut Comm<'w>,
        site: CallSite,
    ) -> impl Future<Output = Result<(Vec<(usize, f64)>, u64)>> + use<'a, 'w> {
        let gen = comm.progress().agree_enter(comm.rank());
        if let Waiter::Event(ctx) = self {
            ctx.hints.borrow_mut().agree_entered = true;
        }
        self.wait_for(
            comm,
            ParkOn::Agree(gen),
            move |c| PendingOp {
                rank: c.rank(),
                op: "agree",
                site,
                on: PendingOn::Agree,
            },
            move |c| Ok(c.progress().agree_poll(gen)),
        )
    }

    /// The one wait loop: `attempt` to complete; on the first miss
    /// register the blocked operation `op` (unregistered when the wait
    /// ends, however it ends); then park on `on` until woken, stopped, or
    /// the channel closed, and attempt again.
    ///
    /// An `async` block rather than an `async fn`: the block holds each
    /// argument once, where an `async fn` would hold it twice for the
    /// whole wait — on the event engine that is per-rank memory.
    #[allow(clippy::manual_async_fn)]
    fn wait_for<'a, 'w, R, O, A>(
        &'a self,
        comm: &'a mut Comm<'w>,
        on: ParkOn,
        op: O,
        mut attempt: A,
    ) -> impl Future<Output = Result<R>> + use<'a, 'w, R, O, A>
    where
        O: FnOnce(&Comm<'w>) -> PendingOp,
        A: FnMut(&mut Comm<'w>) -> Result<Option<R>>,
    {
        async move {
            if let Some(done) = attempt(comm)? {
                return Ok(done);
            }
            let _guard = comm.progress().enter_blocked_as(op(comm));
            loop {
                match self.park(comm, on).await {
                    Ok(()) => {}
                    Err(WaitError::Stopped) => return Err(on.stop_error(comm)),
                    // One last try takes whatever arrived before the close.
                    Err(WaitError::Disconnected) => {
                        return attempt(comm)?.ok_or_else(|| on.closed_error(comm));
                    }
                }
                if let Some(done) = attempt(comm)? {
                    return Ok(done);
                }
            }
        }
    }

    /// Park the rank on `on` until woken, stopped, or the channel closed —
    /// the only step of a wait that differs between backends.
    fn park(&self, comm: &Comm<'_>, on: ParkOn) -> Park {
        let ctx = match self {
            Waiter::Blocking => {
                let stopped = || on.stopped(comm);
                return Park::Over(match on {
                    ParkOn::Inbox { .. } => comm.inbox().wait_or_stop(stopped),
                    ParkOn::Agree(gen) => comm.progress().agree_wait(gen, stopped),
                });
            }
            Waiter::Event(ctx) => ctx,
        };
        if on.stopped(comm) {
            return Park::Over(Err(WaitError::Stopped));
        }
        if let ParkOn::Agree(_) = on {
            // An agreement resolves on progress state, not on a message:
            // the engine requeues these ranks on every progress change.
            ctx.hints.borrow_mut().agree_parked.push(comm.rank());
        }
        let mut cell = ctx.cell.borrow_mut();
        cell.now = comm.sim_time();
        cell.waiting = on.step();
        cell.parked = true;
        Park::Yield
    }
}

/// A thread-backend world for unit tests: the shared setup and channel
/// mesh, with each rank's communicator built on the calling thread (an
/// event-capable `Comm` is not `Send`).
#[cfg(test)]
pub(crate) struct TestWorld {
    setup: crate::world::WorldSetup,
    pub outboxes: crate::transport::Outboxes,
    inboxes: std::sync::Mutex<Vec<Option<crate::chan::Receiver<Envelope>>>>,
}

#[cfg(test)]
impl TestWorld {
    pub(crate) fn new(size: usize) -> Self {
        let setup = crate::world::WorldSetup::new(&crate::WorldConfig::new(size));
        let (outboxes, inboxes) = crate::transport::channel_mesh(size, &setup.progress);
        TestWorld {
            setup,
            outboxes,
            inboxes: std::sync::Mutex::new(inboxes.into_iter().map(Some).collect()),
        }
    }

    pub(crate) fn progress(&self) -> &crate::mailbox::Progress {
        &self.setup.progress
    }

    /// Rank `rank`'s communicator over its own inbox, which it takes.
    pub(crate) fn comm(&self, rank: usize) -> Comm<'_> {
        let inbox = self.inboxes.lock().expect("inbox table")[rank]
            .take()
            .expect("one communicator per rank");
        self.comm_with(rank, inbox)
    }

    /// Rank `rank`'s communicator over `inbox` instead of its own.
    pub(crate) fn comm_with(
        &self,
        rank: usize,
        inbox: crate::chan::Receiver<Envelope>,
    ) -> Comm<'_> {
        let link = crate::transport::Link::Chan {
            outboxes: &self.outboxes,
            inbox,
        };
        Comm::new(&self.setup, rank, link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan::channel;
    use crate::check::DeadlockInfo;
    use crate::envelope::{MsgClass, SourceSel, TagSel};
    use crate::step::block_on;
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    fn env(src: usize, tag: u32, val: i32) -> Envelope {
        Envelope {
            src,
            class: MsgClass::User(tag),
            type_name: "i32",
            type_size: 4,
            payload: crate::datatype::encode_slice(&[val]),
            send_time: 0.0,
            seq: 0,
            rendezvous: false,
        }
    }

    fn spec(src: SourceSel) -> MatchSpec {
        MatchSpec::User(src, TagSel::Any)
    }

    fn recv(comm: &mut Comm<'_>, spec: MatchSpec) -> Result<Envelope> {
        block_on(Waiter::Blocking.recv(comm, &spec, None))
    }

    fn probe(comm: &mut Comm<'_>, spec: MatchSpec) -> Result<Status> {
        block_on(Waiter::Blocking.probe(comm, &spec, &CallSite::here()))
    }

    fn ack(comm: &mut Comm<'_>, seq: u64) -> Result<()> {
        let site = CallSite::here();
        block_on(Waiter::Blocking.ack(comm, seq, 1, 0, "ssend", &site))
    }

    /// An event wake, not the channel's 50 ms backstop.
    const PROMPT: Duration = Duration::from_millis(45);

    #[test]
    fn blocked_recv_wakes_on_delivery() {
        let w = TestWorld::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                w.outboxes[0].send(env(1, 3, 42)).expect("inbox open");
            });
            let mut comm = w.comm(0);
            let got = recv(
                &mut comm,
                MatchSpec::User(SourceSel::Rank(1), TagSel::Tag(3)),
            )
            .expect("arrives");
            assert_eq!(crate::datatype::decode_vec::<i32>(&got.payload), vec![42]);
        });
    }

    #[test]
    fn poisoned_world_stops_a_recv() {
        let w = TestWorld::new(1);
        w.progress().poisoned.store(true, Ordering::SeqCst);
        let err = recv(&mut w.comm(0), spec(SourceSel::Any)).expect_err("poisoned");
        assert!(matches!(err, Error::Deadlock(_)), "{err:?}");
    }

    #[test]
    fn poison_mid_wait_wakes_via_registered_waker() {
        let w = TestWorld::new(1);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                w.progress().poison(DeadlockInfo::default());
            });
            let t = Instant::now();
            let err = recv(&mut w.comm(0), spec(SourceSel::Any)).expect_err("poisoned");
            assert!(matches!(err, Error::Deadlock(_)), "{err:?}");
            assert!(t.elapsed() < PROMPT, "{:?}", t.elapsed());
        });
    }

    #[test]
    fn closed_inbox_is_shutdown_not_hang() {
        let w = TestWorld::new(1);
        for use_probe in [false, true] {
            let (tx, rx) = channel::<Envelope>();
            drop(tx);
            let mut comm = w.comm_with(0, rx);
            let err = if use_probe {
                probe(&mut comm, spec(SourceSel::Any)).map(|_| ())
            } else {
                recv(&mut comm, spec(SourceSel::Any)).map(|_| ())
            };
            assert_eq!(err, Err(Error::WorldShutDown), "probe: {use_probe}");
        }
    }

    #[test]
    fn probe_does_not_consume() {
        let w = TestWorld::new(5);
        let mut comm = w.comm(0);
        w.outboxes[0].send(env(4, 8, 5)).expect("inbox open");
        let peeked = probe(&mut comm, spec(SourceSel::Any)).expect("pending");
        assert_eq!(peeked.source, 4);
        let got = recv(&mut comm, spec(SourceSel::Any)).expect("still consumable");
        assert_eq!(got.src, 4);
    }

    #[test]
    fn failed_exact_source_aborts_recv_with_rank_failed() {
        let w = TestWorld::new(2);
        w.progress().mark_failed(1, 0.5);
        let mut comm = w.comm(0);
        // Acknowledged: the abort is the awaited peer's failure alone.
        comm.ack_failures(1);
        assert_eq!(
            recv(&mut comm, spec(SourceSel::Rank(1))).expect_err("peer failed"),
            Error::RankFailed { rank: 1, at: 0.5 }
        );
    }

    #[test]
    fn unacked_failure_aborts_wildcard_recv_until_acknowledged() {
        let w = TestWorld::new(3);
        w.progress().mark_failed(2, 0.25);
        let mut comm = w.comm(0);
        // Epoch 1 not yet acknowledged: the wait aborts and names the
        // failed rank.
        assert_eq!(
            recv(&mut comm, spec(SourceSel::Any)).expect_err("unacked failure"),
            Error::RankFailed { rank: 2, at: 0.25 }
        );
        // After acknowledging epoch 1, a wildcard wait from a live peer
        // proceeds normally.
        comm.ack_failures(1);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                w.outboxes[0].send(env(1, 3, 9)).expect("inbox open");
            });
            assert_eq!(recv(&mut comm, spec(SourceSel::Any)).expect("lives").src, 1);
        });
    }

    #[test]
    fn mark_failed_wakes_blocked_receiver_immediately() {
        let w = TestWorld::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                w.progress().mark_failed(1, 1.0);
            });
            let t = Instant::now();
            assert_eq!(
                recv(&mut w.comm(0), spec(SourceSel::Rank(1))).expect_err("peer fails mid-wait"),
                Error::RankFailed { rank: 1, at: 1.0 }
            );
            assert!(t.elapsed() < PROMPT, "{:?}", t.elapsed());
        });
    }

    #[test]
    fn ack_wait_completes_on_its_ack_and_fails_on_a_refusal_or_a_finished_partner() {
        let w = TestWorld::new(2);
        let mut comm = w.comm(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                // Another send's ack first: it must not end the wait.
                w.outboxes[0]
                    .send(Envelope::ack(1, 4, Some(9.0)))
                    .expect("inbox open");
                w.outboxes[0]
                    .send(Envelope::ack(1, 3, Some(2.5)))
                    .expect("inbox open");
            });
            ack(&mut comm, 3).expect("acknowledged");
        });
        assert_eq!(comm.sim_time(), 2.5, "the clock advances to the match");
        w.outboxes[0]
            .send(Envelope::ack(1, 5, None))
            .expect("inbox open");
        assert_eq!(ack(&mut comm, 5), Err(Error::WorldShutDown), "refused");
        // Rank 1 finished without answering envelope 6.
        w.progress().mark_done(1);
        assert_eq!(ack(&mut comm, 6), Err(Error::WorldShutDown), "finished");
        // An ack sent before the partner finished still completes the send.
        ack(&mut comm, 4).expect("answered before rank 1 finished");
        assert_eq!(comm.sim_time(), 9.0);
    }
}
