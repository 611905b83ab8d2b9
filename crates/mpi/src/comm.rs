//! The communicator: every primitive a rank can invoke.
//!
//! A [`Comm`] is handed to each rank's closure by
//! [`World::run`](crate::world::World::run). It plays the role of
//! `MPI_COMM_WORLD`: it knows the rank, the world size, the rank→node
//! placement, and exposes point-to-point and collective operations with MPI
//! semantics.
//!
//! ## Protocols
//!
//! User sends below the configured *eager threshold* are buffered and
//! complete immediately; above it they use a rendezvous protocol and block
//! until the matching receive runs — exactly the behaviour that turns a
//! naive blocking ring exchange into a deadlock (Module 1, activity 2).
//! Internal messages generated by collectives are always eager, so the
//! collectives themselves cannot deadlock.
//!
//! ## Simulated time
//!
//! Every rank carries a simulated clock. Message costs follow the α–β model
//! of [`pdc_cluster::CostModel`]; computation is charged explicitly through
//! [`Comm::charge_flops`] / [`Comm::charge_mem`] / [`Comm::charge_kernel`].
//! Receives advance the receiver's clock to the message arrival time, which
//! propagates synchronization waits exactly like a conservative
//! discrete-event simulation.

use crate::chan::Receiver;
use crate::check::{CallSite, CheckEvent, PendingOp};
use crate::coll::{self, Fold, Scope};
use crate::datatype::{decode_vec, encode_slice, Datatype};
use crate::envelope::{Envelope, MatchSpec, MsgClass, SourceSel, Status, TagSel};
use crate::error::{Error, Result};
use crate::fault::{ActiveFaults, Fate};
use crate::mailbox::{Mailbox, Progress};
use crate::observe::{Obs, Observed, Observer};
use crate::reduce::{Op, Reducible};
use crate::stats::{CommStats, Primitive};
use crate::step::{block_on, StepComm};
use crate::trace::{Span, SpanKind};
use crate::transport::Link;
use crate::tune::{CollAlgo, WorldTuning};
use crate::world::WorldSetup;
use bytes::Bytes;
use pdc_cluster::CostModel;
use std::marker::PhantomData;
use std::sync::Arc;

/// Rounds per collective reserved in the internal tag space.
const COLL_TAG_STRIDE: u64 = 1024;

/// Handle to the world, owned by one rank for the duration of its closure.
pub struct Comm<'w> {
    rank: usize,
    size: usize,
    /// Where this rank's sends go and its arrivals come from.
    link: Link<'w>,
    progress: &'w Progress,
    mailbox: Mailbox,
    cost: Arc<CostModel>,
    stats: CommStats,
    now: f64,
    eager_threshold: usize,
    coll_seq: u64,
    ctx_counter: u64,
    /// Trace, phases, collective spans and check log (`None` when tracing
    /// and checking are both off).
    observer: Option<Box<Observer>>,
    /// Per-rank send sequence counter, stamped on every envelope.
    send_seq: u64,
    /// Name and user call site of the collective currently executing, so
    /// a blocked internal receive can name the user's collective call in
    /// deadlock explanations.
    coll_site: Option<(&'static str, CallSite)>,
    /// Fault plan plus resolved crash schedule (`None` = perfect machine).
    faults: Option<ActiveFaults>,
    /// Simulated time at which this rank is scheduled to crash; cleared
    /// once the crash has been enacted.
    crash_at: Option<f64>,
    /// Highest failure epoch this rank has acknowledged via [`Comm::agree`].
    /// Wildcard receives abort on failures above this epoch (ULFM
    /// semantics); acknowledged failures no longer interrupt progress.
    acked_failures: u64,
    /// Collective tuning table (`None` = untuned: every collective runs
    /// the seed flat algorithm, with no selection bookkeeping at all).
    tuning: Option<Arc<WorldTuning>>,
    /// Algorithm of the collective currently executing, when selection is
    /// active. Internal transport spans and per-algorithm stats are
    /// labeled with it; `None` on the untuned fast path so untuned traces
    /// stay bit-identical to the seed runtime.
    coll_algo: Option<CollAlgo>,
}

// Every rank pays this; the instruments cost one pointer of it.
const _: () = assert!(std::mem::size_of::<Comm>() <= 632);

/// Everything one rank's communicator hands back at finalize time (the
/// default: a rank that never ran). A rank process ships it whole.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub(crate) struct RankReport {
    pub stats: CommStats,
    pub clock: f64,
    pub observed: Observed,
}

/// Handle for a pending nonblocking send (`MPI_Isend`). Complete it with
/// [`Comm::wait_send`].
#[must_use = "a nonblocking send must be completed with wait_send"]
pub struct SendRequest {
    /// Sequence number of a rendezvous envelope, whose acknowledgement
    /// completes the request; `None` for an eager send.
    pub(crate) ack: Option<u64>,
    pub(crate) dest: usize,
    pub(crate) tag: u32,
    pub(crate) id: Option<u64>,
}

/// Handle for a pending nonblocking receive (`MPI_Irecv`). Complete it with
/// [`Comm::wait_recv`].
///
/// Matching happens at completion time; this is a documented simplification
/// relative to MPI, which matches at post time. The pedagogic modules never
/// depend on post-time matching.
#[must_use = "a nonblocking receive must be completed with wait_recv"]
pub struct RecvRequest<T: Datatype> {
    src: SourceSel,
    tag: TagSel,
    id: Option<u64>,
    _elem: PhantomData<fn() -> T>,
}

impl<T: Datatype> RecvRequest<T> {
    /// Decompose into the match spec and checker request id.
    pub(crate) fn into_spec(self) -> (MatchSpec, Option<u64>) {
        (MatchSpec::User(self.src, self.tag), self.id)
    }
}

impl<'w> Comm<'w> {
    /// Rank `rank`'s communicator in the world `setup` describes, sending
    /// and receiving over `link`.
    pub(crate) fn new(setup: &'w WorldSetup, rank: usize, link: Link<'w>) -> Self {
        let size = link.size();
        let faults = setup.faults.clone();
        let mut mailbox = Mailbox::new();
        if let Some(seed) = setup.check.perturb_seed() {
            // Decorrelate the per-rank delivery streams.
            mailbox.set_perturb(seed ^ (rank as u64).wrapping_mul(0x9E3779B97F4A7C15));
        }
        let crash_at = faults.as_ref().and_then(|f| f.crash_at[rank]);
        if faults.as_ref().is_some_and(|f| f.plan.duplicate_rate > 0.0) {
            // Injected duplicates reuse the original sequence number; the
            // mailbox filters the second copy like a real transport would.
            mailbox.enable_dedup();
        }
        Self {
            rank,
            size,
            link,
            progress: &setup.progress,
            mailbox,
            cost: Arc::clone(&setup.cost),
            stats: CommStats::new(),
            now: 0.0,
            eager_threshold: setup.eager_threshold,
            coll_seq: 0,
            ctx_counter: 1,
            observer: Observer::new(setup.tracing, setup.check.is_on()),
            send_seq: 0,
            coll_site: None,
            faults,
            crash_at,
            acked_failures: 0,
            tuning: setup.tuning.clone(),
            coll_algo: None,
        }
    }

    /// Fold a completed operation into the statistics and the observer.
    fn observe(&mut self, obs: Obs) {
        self.stats.fold(&obs);
        if let Some(observer) = &mut self.observer {
            observer.observe(&obs);
        }
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Node hosting this rank under the world's placement.
    pub fn node(&self) -> usize {
        self.cost.placement().node_of(self.rank)
    }

    /// The cost model (placement + machine) this world runs under.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Current simulated time on this rank, seconds.
    pub fn sim_time(&self) -> f64 {
        self.now
    }

    /// Snapshot of this rank's communication statistics so far.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Consume the communicator, yielding final statistics, clock and
    /// observations. With checking on, any message still sitting in the
    /// mailbox becomes a [`CheckEvent::Leftover`] record — the
    /// finalize-time leak check. Phases left open (early return through
    /// `?`) are closed at the final clock.
    pub(crate) fn into_report(mut self) -> RankReport {
        let observed = self.observer.take().map_or_else(Observed::default, |o| {
            o.finish(self.now, || {
                self.admit_arrivals();
                self.mailbox.drain_all()
            })
        });
        RankReport {
            stats: self.stats,
            clock: self.now,
            observed,
        }
    }

    // ------------------------------------------------------------------
    // Named phases (profiling)
    // ------------------------------------------------------------------

    /// Open a named profiling phase at the current simulated time. Phases
    /// nest; pdc-prof attributes each traced span to the innermost phase
    /// containing its start. No-op when tracing is off.
    pub fn phase_begin(&mut self, name: &str) {
        if let Some(observer) = &mut self.observer {
            observer.phase_begin(name, self.now);
        }
    }

    /// Close the innermost open phase at the current simulated time.
    /// No-op when tracing is off or no phase is open.
    pub fn phase_end(&mut self) {
        if let Some(observer) = &mut self.observer {
            observer.phase_end(self.now);
        }
    }

    /// Run `f` inside a named phase (begin/end bracketing, exception-free
    /// path only — an early `?` return inside `f` leaves the phase to be
    /// closed by finalize).
    pub fn with_phase<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.phase_begin(name);
        let r = f(self);
        self.phase_end();
        r
    }

    /// Note entry into collective `name`: remember its call site for
    /// deadlock explanations, and hand the entry (logged as `event`) on.
    pub(crate) fn record_coll(
        &mut self,
        name: &'static str,
        world: bool,
        site: CallSite,
        event: impl FnOnce() -> CheckEvent,
    ) {
        self.coll_site = Some((name, site));
        if let Some(observer) = &mut self.observer {
            observer.collective(name, world, self.now, event);
        }
    }

    /// Log a completed user-level receive of `env` under `spec` (no-op
    /// when checking is off).
    pub(crate) fn record_user_recv<T: Datatype>(
        &mut self,
        env: &Envelope,
        spec: &MatchSpec,
        site: CallSite,
    ) {
        let (Some(observer), MatchSpec::User(s, t), MsgClass::User(tag)) =
            (&mut self.observer, spec, env.class)
        else {
            return;
        };
        let candidates = self.mailbox.last_candidates();
        observer.check(|| CheckEvent::RecvCompleted {
            src: env.src,
            tag,
            wildcard_src: matches!(s, SourceSel::Any),
            wildcard_tag: matches!(t, TagSel::Any),
            candidates,
            expected_type: T::NAME,
            found_type: env.type_name,
            count: env.payload.len() / env.type_size.max(1),
            sender_seq: env.seq,
            site,
        });
    }

    /// Log a new nonblocking request; its id when checking is on.
    fn request_created(&mut self, kind: &'static str, site: CallSite) -> Option<u64> {
        self.observer.as_mut()?.request_created(kind, site)
    }

    /// Log the completion of request `id` (`None` when checking is off).
    pub(crate) fn request_completed(&mut self, id: Option<u64>) {
        if let (Some(id), Some(observer)) = (id, &mut self.observer) {
            observer.check(|| CheckEvent::RequestCompleted { id });
        }
    }

    // ------------------------------------------------------------------
    // Simulated computation charging
    // ------------------------------------------------------------------

    /// Charge `flops` floating-point operations to the simulated clock.
    pub fn charge_flops(&mut self, flops: f64) {
        self.charge_kernel(flops, 0.0);
    }

    /// Charge `bytes` of DRAM traffic to the simulated clock (bandwidth is
    /// shared with the other ranks on this node).
    pub fn charge_mem(&mut self, bytes: f64) {
        self.charge_kernel(0.0, bytes);
    }

    /// Charge a kernel with both compute and memory demands; the cost is
    /// the roofline max of the two.
    pub fn charge_kernel(&mut self, flops: f64, bytes: f64) {
        let before = self.now;
        let dt = self.cost.kernel_time(self.rank, flops, bytes);
        self.now += dt;
        let mut span = Span::basic(SpanKind::Compute, before, self.now, self.rank, 0);
        span.flops = flops;
        span.mem_bytes = bytes;
        self.observe(Obs::new(span, dt));
    }

    // ------------------------------------------------------------------
    // Transport (shared by user primitives and collectives)
    // ------------------------------------------------------------------

    pub(crate) fn validate_rank(&self, rank: usize, what: &str) -> Result<()> {
        if rank >= self.size {
            return Err(Error::InvalidArgument(format!(
                "{what} rank {rank} out of range for world of size {}",
                self.size
            )));
        }
        Ok(())
    }

    /// Log an injected fault into the check log (no-op when checking is
    /// off). pdc-check separates these from genuine defects.
    fn record_fault(&mut self, kind: &'static str, dst: usize, seq: u64) {
        if let Some(observer) = &mut self.observer {
            observer.check(|| CheckEvent::FaultInjected {
                kind,
                src: self.rank,
                dst,
                seq,
                at: self.now,
            });
        }
    }

    /// Enact this rank's scheduled crash if its simulated time has come.
    ///
    /// Crashes fire at the rank's next interaction with the transport at or
    /// after the scheduled time: the rank marks itself failed (waking every
    /// peer blocked on it), logs the event, and unwinds its closure with
    /// [`Error::RankFailed`] — the moral equivalent of the process dying.
    pub(crate) fn enact_crash(&mut self) -> Result<()> {
        let Some(at) = self.crash_at else {
            return Ok(());
        };
        if self.now < at {
            return Ok(());
        }
        self.crash_at = None;
        let rank = self.rank;
        let now = self.now;
        self.record_fault("crash", rank, 0);
        self.progress.mark_failed(rank, now);
        Err(Error::RankFailed { rank, at: now })
    }

    /// Typed send: encode, log the checker event, and hand the payload to
    /// [`Comm::transport_send_raw`].
    pub(crate) fn transport_send<T: Datatype>(
        &mut self,
        data: &[T],
        dst: usize,
        class: MsgClass,
        synchronous: bool,
        site: CallSite,
    ) -> Result<Option<u64>> {
        // Crash before the checker sees a posted send: a message from a
        // dead rank must not exist in any log.
        self.enact_crash()?;
        if let MsgClass::User(tag) = class {
            // `transport_send_raw` stamps the envelope with the current
            // counter value, so log the same seq here.
            if let Some(observer) = &mut self.observer {
                observer.check(|| CheckEvent::SendPosted {
                    dst,
                    tag,
                    count: data.len(),
                    type_name: T::NAME,
                    synchronous,
                    seq: self.send_seq,
                    site,
                });
            }
        }
        self.transport_send_raw(
            encode_slice(data),
            T::NAME,
            T::SIZE,
            dst,
            class,
            synchronous,
        )
    }

    /// Enqueue a pre-encoded payload at `dst`, charging sender-side
    /// overhead. The payload is refcounted ([`Bytes`]), so forwarding an
    /// already-received buffer (collective interior nodes) shares it
    /// instead of copying. Returns the envelope's sequence number when
    /// `synchronous`: its acknowledgement completes the send.
    fn transport_send_raw(
        &mut self,
        payload: Bytes,
        type_name: &'static str,
        type_size: usize,
        dst: usize,
        class: MsgClass,
        synchronous: bool,
    ) -> Result<Option<u64>> {
        self.enact_crash()?;
        let seq = self.send_seq;
        self.send_seq += 1;
        // Postal model: the sender is occupied for the software overhead
        // plus the per-byte injection gap; the wire latency is paid on the
        // receiver side at match time.
        let before = self.now;
        let payload_len = payload.len();
        let occupied =
            self.cost.send_overhead() + self.cost.sender_gap(self.rank, dst, payload_len);
        self.now += occupied;
        let mut charged = occupied;
        let mut attempts: u32 = 1;

        // Fault plan: decide this transmission's fate. Drops retransmit
        // under the retry policy — each retransmission pays an ack-timeout
        // backoff plus the sender-side injection cost again — or, without a
        // policy, silently vanish (the receiver's hang is then reported as
        // a deadlock). Duplicates enqueue a second copy with the same
        // sequence number; delays push the departure time back.
        let mut duplicate = false;
        let mut extra_delay = 0.0;
        let mut vanished = false;
        let mut lost = None;
        let plan = self.faults.as_ref().map(|f| Arc::clone(&f.plan));
        if let Some(plan) = plan {
            loop {
                match plan.fate(self.rank, dst, seq, attempts - 1) {
                    Fate::Deliver => break,
                    Fate::Duplicate => {
                        duplicate = true;
                        self.record_fault("duplicate", dst, seq);
                        break;
                    }
                    Fate::Delay(d) => {
                        extra_delay = d;
                        self.record_fault("delay", dst, seq);
                        break;
                    }
                    Fate::Drop => {
                        self.record_fault("drop", dst, seq);
                        let Some(policy) = &plan.retry else {
                            vanished = true;
                            break;
                        };
                        if attempts >= policy.max_attempts {
                            self.record_fault("lost", dst, seq);
                            lost = Some(policy.max_attempts);
                            break;
                        }
                        let wait = policy.timeout_s * policy.backoff.powi(attempts as i32 - 1);
                        self.now += wait + occupied;
                        charged += wait + occupied;
                        attempts += 1;
                    }
                }
            }
        }
        let mut span = Span::basic(SpanKind::Send, before, self.now, dst, payload_len);
        span.internal = matches!(class, MsgClass::Internal(_));
        span.seq = Some(seq);
        if span.internal {
            span.algo = self.coll_algo;
        }
        let obs = Obs {
            synchronous,
            attempts,
            ..Obs::new(span, charged)
        };
        if let Some(attempts) = lost {
            // Every copy went out but the send never completed: no span.
            self.stats.fold(&obs);
            return Err(Error::MessageLost { dst, attempts });
        }
        self.observe(obs);

        let ack = synchronous.then_some(seq);
        if vanished {
            // Skip the enqueue entirely. A rendezvous sender waits for an
            // ack that never comes, exactly as a real lost handshake would.
            return Ok(ack);
        }
        let env = Envelope {
            src: self.rank,
            class,
            type_name,
            type_size,
            payload,
            send_time: self.now + extra_delay,
            seq,
            rendezvous: synchronous,
        };
        // The copy shares the refcounted payload and asks for no answer.
        let dup = duplicate.then(|| Envelope {
            rendezvous: false,
            ..env.clone()
        });
        if self.link.send(dst, env).is_err() {
            // The peer can no longer receive. Eager traffic to a gone peer
            // is fire-and-forget, as on a real network; a rendezvous
            // sender learns the outcome in its ack wait.
            return Ok(ack);
        }
        if let Some(dup) = dup {
            let _ = self.link.send(dst, dup);
        }
        Ok(ack)
    }

    /// Describe a blocked receive/probe for the wait-for graph. `user`
    /// names the primitive and its call site for user-level receives;
    /// internal receives are attributed to the enclosing collective.
    pub(crate) fn pending_recv(
        &self,
        spec: &MatchSpec,
        user: Option<(&'static str, CallSite)>,
    ) -> PendingOp {
        PendingOp::recv(self.rank, *spec, user, self.coll_site)
    }

    /// Non-blocking matched receive: admit every arrival, take the
    /// envelope `spec` matches if one is here, and complete its receive.
    /// The wait core tries this before and after every park.
    pub(crate) fn try_transport_recv(&mut self, spec: &MatchSpec) -> Result<Option<Envelope>> {
        self.enact_crash()?;
        Ok(self.match_now(spec).map(|env| self.finish_recv(env)))
    }

    /// Completion half of a matched receive: advance the clock to the
    /// message's arrival, release a rendezvous sender, and record
    /// stats/spans.
    fn finish_recv(&mut self, env: Envelope) -> Envelope {
        let before = self.now;
        // The message left the sender at `send_time` (gap already paid
        // there); it is visible here one wire latency later.
        let arrival = self
            .now
            .max(env.send_time + self.cost.message_latency(env.src, self.rank));
        if env.rendezvous {
            // Release the sender with the match-time clock.
            self.send_ack(&env, Some(arrival));
        }
        self.now = arrival;
        let (src, len) = (env.src, env.payload.len());
        let mut span = Span::basic(SpanKind::Recv, before, self.now, src, len);
        span.internal = matches!(env.class, MsgClass::Internal(_));
        span.seq = Some(env.seq);
        span.sent_at = Some(env.send_time);
        if span.internal {
            span.algo = self.coll_algo;
        }
        self.observe(Obs::new(span, self.now - before));
        env
    }

    /// Answer the rendezvous envelope `env` with `matched_at` (`None`
    /// refuses it). Acknowledgements are free: no simulated cost, no
    /// stats, spans or check events, and no fault plan; one to a peer
    /// that can no longer receive is dropped.
    fn send_ack(&self, env: &Envelope, matched_at: Option<f64>) {
        let ack = Envelope::ack(self.rank, env.seq, matched_at);
        let _ = self.link.send(env.src, ack);
    }

    /// Admit every arrival and take `dst`'s answer to this rank's
    /// rendezvous envelope `seq`: `Some(Some(t))` when `dst` matched it
    /// at time `t`, `Some(None)` when it refused it.
    pub(crate) fn take_ack(&mut self, dst: usize, seq: u64) -> Option<Option<f64>> {
        self.match_now(&MatchSpec::Ack(dst, seq))
            .map(|ack| ack.matched_at())
    }

    /// Completion half of a rendezvous ack wait: advance the clock to the
    /// acknowledged match time `t` and record the wait span.
    pub(crate) fn finish_ack(&mut self, t: f64, dst: usize) {
        let before = self.now;
        self.now = self.now.max(t);
        let mut span = Span::basic(SpanKind::Send, before, self.now, dst, 0);
        span.rdv_wait = true;
        self.observe(Obs::new(span, self.now - before));
    }

    pub(crate) fn decode_user_payload<T: Datatype>(
        &self,
        env: &Envelope,
    ) -> Result<(Vec<T>, Status)> {
        let status = Status::of(env);
        env.ensure_type::<T>()?;
        Ok((decode_vec(&env.payload), status))
    }

    // ------------------------------------------------------------------
    // Point-to-point
    //
    // The blocking primitives are one-poll wrappers over their single
    // async implementation on `StepComm` (see `crate::step`).
    // ------------------------------------------------------------------

    /// `MPI_Send`: blocking send. Eager (buffered) when the payload is at or
    /// below the world's eager threshold; rendezvous (blocks for the
    /// matching receive) above it.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn send<T: Datatype>(&mut self, data: &[T], dest: usize, tag: u32) -> Result<()> {
        block_on(StepComm::blocking(self).send_at(data, dest, tag, CallSite::here()))
    }

    /// `MPI_Ssend`: synchronous send — always rendezvous, regardless of
    /// size. Completes only once the matching receive has started.
    ///
    /// # Errors
    /// Returns [`Error::InvalidArgument`] for a self-send, which can never
    /// complete synchronously on a single thread.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn ssend<T: Datatype>(&mut self, data: &[T], dest: usize, tag: u32) -> Result<()> {
        block_on(StepComm::blocking(self).ssend_at(data, dest, tag, CallSite::here()))
    }

    /// `MPI_Recv`: blocking receive into a freshly allocated vector.
    /// Accepts rank numbers, [`SourceSel::Any`], tag numbers, or
    /// [`TagSel::Any`].
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn recv<T: Datatype>(
        &mut self,
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> Result<(Vec<T>, Status)> {
        let site = CallSite::here();
        block_on(StepComm::blocking(self).recv_at(src.into(), tag.into(), site))
    }

    /// `MPI_Recv` into a caller-provided buffer. Returns the status; fails
    /// with [`Error::Truncated`] if the message exceeds the buffer. The
    /// payload is decoded straight into `buf` — no intermediate vector.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn recv_into<T: Datatype>(
        &mut self,
        buf: &mut [T],
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> Result<Status> {
        let site = CallSite::here();
        block_on(StepComm::blocking(self).recv_into_at(buf, src.into(), tag.into(), site))
    }

    /// `MPI_Isend`: nonblocking send. The data is captured immediately; the
    /// returned request must be completed with [`Comm::wait_send`].
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn isend<T: Datatype>(&mut self, data: &[T], dest: usize, tag: u32) -> Result<SendRequest> {
        self.isend_at(data, dest, tag, CallSite::here())
    }

    /// [`Comm::isend`] with an explicit call site (for `StepComm`).
    pub(crate) fn isend_at<T: Datatype>(
        &mut self,
        data: &[T],
        dest: usize,
        tag: u32,
        site: CallSite,
    ) -> Result<SendRequest> {
        self.validate_rank(dest, "destination")?;
        self.stats.record_call(Primitive::Isend);
        let synchronous = data.len() * T::SIZE > self.eager_threshold && dest != self.rank;
        let ack = self.transport_send(data, dest, MsgClass::User(tag), synchronous, site)?;
        let id = self.request_created("isend", site);
        Ok(SendRequest { ack, dest, tag, id })
    }

    /// `MPI_Irecv`: nonblocking receive. Matching occurs at
    /// [`Comm::wait_recv`] time.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn irecv<T: Datatype>(
        &mut self,
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> Result<RecvRequest<T>> {
        let site = CallSite::here();
        let (src, tag) = (src.into(), tag.into());
        if let SourceSel::Rank(r) = src {
            self.validate_rank(r, "source")?;
        }
        self.stats.record_call(Primitive::Irecv);
        let id = self.request_created("irecv", site);
        Ok(RecvRequest {
            src,
            tag,
            id,
            _elem: PhantomData,
        })
    }

    /// `MPI_Wait` on a send request.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn wait_send(&mut self, req: SendRequest) -> Result<()> {
        block_on(StepComm::blocking(self).wait_send_at(req, CallSite::here()))
    }

    /// `MPI_Waitall` on a batch of send requests.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn wait_all_sends(&mut self, reqs: Vec<SendRequest>) -> Result<()> {
        block_on(StepComm::blocking(self).wait_all_sends_at(reqs, CallSite::here()))
    }

    /// `MPI_Wait` on a receive request, yielding the data and status.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn wait_recv<T: Datatype>(&mut self, req: RecvRequest<T>) -> Result<(Vec<T>, Status)> {
        block_on(StepComm::blocking(self).wait_recv_at(req, CallSite::here()))
    }

    /// `MPI_Test` on a receive request: returns the data if a matching
    /// message has already arrived, or gives the request back.
    #[allow(clippy::type_complexity)]
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn test_recv<T: Datatype>(
        &mut self,
        req: RecvRequest<T>,
    ) -> Result<std::result::Result<(Vec<T>, Status), RecvRequest<T>>> {
        let site = CallSite::here();
        let spec = MatchSpec::User(req.src, req.tag);
        match self.match_now(&spec) {
            Some(env) => {
                let env = self.finish_recv(env);
                self.record_user_recv::<T>(&env, &spec, site);
                self.request_completed(req.id);
                self.decode_user_payload(&env).map(Ok)
            }
            None => Ok(Err(req)),
        }
    }

    /// `MPI_Sendrecv`: simultaneous send and receive that can never
    /// deadlock (the send side is always buffered).
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn sendrecv<T: Datatype, U: Datatype>(
        &mut self,
        senddata: &[T],
        dest: usize,
        sendtag: u32,
        src: impl Into<SourceSel>,
        recvtag: impl Into<TagSel>,
    ) -> Result<(Vec<U>, Status)> {
        let site = CallSite::here();
        let recv = MatchSpec::User(src.into(), recvtag.into());
        block_on(StepComm::blocking(self).sendrecv_at(senddata, dest, sendtag, recv, site))
    }

    /// `MPI_Probe`: block until a matching message is available and return
    /// its status without receiving it.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn probe(&mut self, src: impl Into<SourceSel>, tag: impl Into<TagSel>) -> Result<Status> {
        let site = CallSite::here();
        block_on(StepComm::blocking(self).probe_at(src.into(), tag.into(), site))
    }

    /// `MPI_Iprobe`: non-blocking probe — the status of an already-arrived
    /// matching message, or `None` without waiting.
    #[must_use = "communication can fail; check the Result"]
    pub fn iprobe(
        &mut self,
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> Result<Option<Status>> {
        self.stats.record_call(Primitive::Iprobe);
        let spec = MatchSpec::User(src.into(), tag.into());
        Ok(self.peek(&spec))
    }

    /// `MPI_Get_count`: element count of a received message.
    #[must_use = "communication can fail; check the Result"]
    pub fn get_count<T: Datatype>(&mut self, status: &Status) -> Result<usize> {
        self.stats.record_call(Primitive::GetCount);
        status.count::<T>()
    }

    // ------------------------------------------------------------------
    // Collective plumbing (the algorithms live in `crate::coll`)
    // ------------------------------------------------------------------

    /// Allocate the internal tag base for the next collective. All ranks
    /// must invoke collectives in the same order (an MPI requirement).
    pub(crate) fn next_coll_base(&mut self) -> u64 {
        let base = self.coll_seq * COLL_TAG_STRIDE;
        self.coll_seq += 1;
        base
    }

    /// Allocate a fresh context id for a derived communicator. All ranks
    /// derive communicators through the same sequence of collective split
    /// calls, so the counters agree wherever it matters (any pair of ranks
    /// sharing two communicators has witnessed the same allocations).
    pub(crate) fn next_sub_ctx(&mut self) -> u64 {
        let ctx = self.ctx_counter;
        self.ctx_counter += 1;
        ctx
    }

    pub(crate) fn record(&mut self, p: Primitive) {
        self.stats.record_call(p);
    }

    /// The world's collective tuning table (`None` = untuned: every
    /// collective runs the seed flat algorithm with no selection
    /// bookkeeping).
    pub(crate) fn tuning(&self) -> Option<&WorldTuning> {
        self.tuning.as_deref()
    }

    /// Enter a selected-algorithm region: label subsequent internal
    /// transport spans and per-algorithm stats, and (for world
    /// collectives under tracing) stamp the current [`CollSpan`].
    pub(crate) fn begin_algo(&mut self, algo: CollAlgo, world: bool) {
        self.coll_algo = Some(algo);
        self.stats.record_algo_call(algo);
        if let (true, Some(observer)) = (world, &mut self.observer) {
            observer.collective_algo(algo);
        }
    }

    pub(crate) fn end_algo(&mut self) {
        self.coll_algo = None;
    }

    pub(crate) fn coll_send<T: Datatype>(
        &mut self,
        data: &[T],
        dst: usize,
        tag: u64,
    ) -> Result<()> {
        self.coll_send_bytes(encode_slice(data), T::NAME, T::SIZE, dst, tag)
    }

    /// Forward a pre-encoded payload inside a collective. The refcounted
    /// buffer is shared with the envelope, not copied — an interior tree
    /// or ring node relays a received block at zero cost per hop.
    pub(crate) fn coll_send_bytes(
        &mut self,
        payload: Bytes,
        type_name: &'static str,
        type_size: usize,
        dst: usize,
        tag: u64,
    ) -> Result<()> {
        if dst == self.rank {
            return Err(Error::InvalidArgument(
                "internal collective self-send".into(),
            ));
        }
        // Internal messages are always eager: collectives cannot deadlock.
        self.transport_send_raw(
            payload,
            type_name,
            type_size,
            dst,
            MsgClass::Internal(tag),
            false,
        )?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Collectives
    //
    // One-poll wrappers over the async algorithms in `crate::coll`.
    // ------------------------------------------------------------------

    /// `MPI_Barrier`: dissemination barrier; completes once every rank has
    /// entered.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn barrier(&mut self) -> Result<()> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("barrier");
        block_on(coll::barrier(step, scope, site))
    }

    /// `MPI_Bcast`: binomial-tree broadcast. The root passes `Some(data)`;
    /// every rank (including the root) receives the broadcast data back.
    ///
    /// With a tuning table installed the broadcast may instead run
    /// hierarchically or pipelined; the root announces the selected
    /// algorithm and the element count in a tiny header broadcast first,
    /// since only the root knows the payload size.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn bcast<T: Datatype>(&mut self, data: Option<&[T]>, root: usize) -> Result<Vec<T>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("bcast");
        block_on(coll::bcast(step, scope, data, root, site))
    }

    /// `MPI_Scatter`: the root splits `data` into `size` equal chunks and
    /// sends chunk `i` to rank `i`. Every rank returns its chunk.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn scatter<T: Datatype>(&mut self, data: Option<&[T]>, root: usize) -> Result<Vec<T>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("scatter");
        block_on(coll::scatter(step, scope, data, None, root, false, site))
    }

    /// `MPI_Scatterv`: like scatter but with per-rank counts supplied by
    /// the root.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn scatterv<T: Datatype>(
        &mut self,
        data: Option<&[T]>,
        counts: Option<&[usize]>,
        root: usize,
    ) -> Result<Vec<T>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("scatterv");
        block_on(coll::scatter(step, scope, data, counts, root, true, site))
    }

    /// `MPI_Gather`: inverse of scatter; every rank contributes an
    /// equal-length slice, the root returns the concatenation in rank
    /// order, other ranks return `None`.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn gather<T: Datatype>(&mut self, data: &[T], root: usize) -> Result<Option<Vec<T>>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("gather");
        block_on(coll::gather(step, scope, data, root, site))
    }

    /// `MPI_Gatherv`: gather with per-rank lengths preserved; the root
    /// returns one vector per rank.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn gatherv<T: Datatype>(&mut self, data: &[T], root: usize) -> Result<Option<Vec<Vec<T>>>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("gatherv");
        block_on(coll::gatherv(step, scope, data, root, site))
    }

    /// `MPI_Allgather` (ring algorithm): every rank contributes an
    /// equal-length slice and receives the rank-ordered concatenation.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn allgather<T: Datatype>(&mut self, data: &[T]) -> Result<Vec<T>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("allgather");
        block_on(coll::allgather(step, scope, data, site))
    }

    /// `MPI_Allgatherv`: every rank contributes a slice of arbitrary
    /// length; every rank receives all contributions, in rank order.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn allgatherv<T: Datatype>(&mut self, data: &[T]) -> Result<Vec<Vec<T>>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("allgatherv");
        block_on(coll::allgatherv(step, scope, data, site))
    }

    /// `MPI_Reduce` with a custom associative+commutative combiner
    /// (`MPI_Op_create` analogue). Binomial tree toward the root; a
    /// custom combiner's re-association exactness is unknowable, so the
    /// hierarchical variant is never selected for it.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn reduce_with<T: Datatype, F: Fn(&T, &T) -> T>(
        &mut self,
        data: &[T],
        root: usize,
        combine: F,
    ) -> Result<Option<Vec<T>>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("reduce");
        let fold = Fold::custom(combine);
        block_on(coll::reduce(step, scope, data, root, fold, site))
    }

    /// `MPI_Reduce` with a built-in operator.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn reduce<T: Datatype + Reducible>(
        &mut self,
        data: &[T],
        op: Op,
        root: usize,
    ) -> Result<Option<Vec<T>>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("reduce");
        let fold = coll::builtin(op);
        block_on(coll::reduce(step, scope, data, root, fold, site))
    }

    /// `MPI_Allreduce` with a custom combiner: reduce to rank 0, then
    /// broadcast the result. Never hierarchical (see
    /// [`Comm::reduce_with`]).
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn allreduce_with<T: Datatype, F: Fn(&T, &T) -> T>(
        &mut self,
        data: &[T],
        combine: F,
    ) -> Result<Vec<T>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("allreduce");
        let fold = Fold::custom(combine);
        block_on(coll::allreduce(step, scope, data, fold, site))
    }

    /// `MPI_Allreduce` with a built-in operator.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn allreduce<T: Datatype + Reducible>(&mut self, data: &[T], op: Op) -> Result<Vec<T>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("allreduce");
        let fold = coll::builtin(op);
        block_on(coll::allreduce(step, scope, data, fold, site))
    }

    /// `MPI_Alltoall`: `data` holds `size` equal chunks; chunk `i` goes to
    /// rank `i`. Returns the `size` chunks received, in rank order.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn alltoall<T: Datatype>(&mut self, data: &[T]) -> Result<Vec<T>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("alltoall");
        block_on(coll::alltoall(step, scope, data, site))
    }

    /// `MPI_Alltoallv`: `data[i]` goes to rank `i` (arbitrary lengths);
    /// returns `out[j]` = the block rank `j` sent here.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn alltoallv<T: Datatype>(&mut self, data: Vec<Vec<T>>) -> Result<Vec<Vec<T>>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("alltoallv");
        block_on(coll::alltoallv(step, scope, data, site))
    }

    /// `MPI_Scan`: inclusive prefix reduction — rank `r` receives the
    /// combination of contributions from ranks `0..=r` (Hillis–Steele,
    /// `log p` rounds).
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn scan<T: Datatype + Reducible>(&mut self, data: &[T], op: Op) -> Result<Vec<T>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("scan");
        let fold = coll::builtin(op);
        block_on(coll::scan(step, scope, data, fold, site))
    }

    /// `MPI_Scan` with a custom associative combiner.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn scan_with<T: Datatype, F: Fn(&T, &T) -> T>(
        &mut self,
        data: &[T],
        combine: F,
    ) -> Result<Vec<T>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("scan");
        let fold = Fold::custom(combine);
        block_on(coll::scan(step, scope, data, fold, site))
    }

    /// `MPI_Exscan`: exclusive prefix reduction — rank `r` receives the
    /// combination of ranks `0..r`; rank 0 receives `None`.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn exscan<T: Datatype + Reducible>(
        &mut self,
        data: &[T],
        op: Op,
    ) -> Result<Option<Vec<T>>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::world("exscan");
        let fold = coll::builtin(op);
        block_on(coll::exscan(step, scope, data, fold, site))
    }

    /// `MPI_Reduce_scatter_block`: elementwise reduction of equal-length
    /// contributions, with block `i` of the result delivered to rank `i`.
    /// `data.len()` must be `size × block` for a uniform block length.
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn reduce_scatter_block<T: Datatype + Reducible>(
        &mut self,
        data: &[T],
        op: Op,
    ) -> Result<Vec<T>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let (scope, fold) = (Scope::world("reduce_scatter_block"), coll::builtin(op));
        block_on(coll::reduce_scatter_block(step, scope, data, fold, site))
    }

    // ------------------------------------------------------------------
    // Fault tolerance (ULFM-style recovery)
    // ------------------------------------------------------------------

    /// Ranks known to have failed so far, with their simulated failure
    /// times. Local knowledge only — use [`Comm::agree`] for a consistent
    /// collective view.
    pub fn failed_ranks(&self) -> Vec<(usize, f64)> {
        self.progress.failed_ranks()
    }

    /// `MPIX_Comm_agree` analogue: every *live* rank must call this; it
    /// returns the agreed set of failed ranks (with simulated failure
    /// times), identical on all callers.
    ///
    /// Agreeing also *acknowledges* the failures
    /// (`MPIX_Comm_failure_ack`): after it returns, communication between
    /// survivors works again — only a *new* failure, or an operation that
    /// directly depends on a dead rank, raises
    /// [`Error::RankFailed`] afterwards.
    ///
    /// # Errors
    /// Returns the deadlock's explanation if the world is torn down while
    /// waiting (e.g. some survivor never calls `agree`).
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn agree(&mut self) -> Result<Vec<(usize, f64)>> {
        block_on(StepComm::blocking(self).agree_at(CallSite::here()))
    }

    // ------------------------------------------------------------------
    // Wait-core access (crate-internal)
    // ------------------------------------------------------------------

    /// The shared progress tracker (the wait core needs it alongside
    /// `&mut self` borrows; the `'w` lifetime outlives any borrow of the
    /// `Comm` itself).
    pub(crate) fn progress(&self) -> &'w Progress {
        self.progress
    }

    /// Failure epoch this rank has acknowledged via [`Comm::agree`].
    pub(crate) fn acked_failures(&self) -> u64 {
        self.acked_failures
    }

    /// Raise the acknowledged failure epoch (agreement completion).
    pub(crate) fn ack_failures(&mut self, epoch: u64) {
        self.acked_failures = self.acked_failures.max(epoch);
    }

    /// The world's eager/rendezvous cutover in bytes.
    pub(crate) fn eager_threshold(&self) -> usize {
        self.eager_threshold
    }

    /// Admit every envelope waiting in this rank's inbox into its
    /// mailbox. An agreement does this before it parks: a blocking park on
    /// the inbox returns at once while anything is queued there.
    pub(crate) fn admit_arrivals(&mut self) {
        self.link.collect(self.rank, &mut self.mailbox);
    }

    /// Admit every arrival, then take the envelope `spec` matches, if
    /// one is here.
    fn match_now(&mut self, spec: &MatchSpec) -> Option<Envelope> {
        self.admit_arrivals();
        self.mailbox.try_match(spec)
    }

    /// This rank's body has finished: admit every arrival and refuse each
    /// pending rendezvous envelope, so its sender stops waiting. The
    /// envelopes stay for the leak check.
    pub(crate) fn refuse_rendezvous(&mut self) {
        self.admit_arrivals();
        for env in self.mailbox.pending().filter(|env| env.rendezvous) {
            self.send_ack(env, None);
        }
    }

    /// Admit every arrival, then report the user envelope `spec` would
    /// match, without consuming it.
    pub(crate) fn peek(&mut self, spec: &MatchSpec) -> Option<Status> {
        self.admit_arrivals();
        self.mailbox.peek_matching(spec)
    }

    /// This rank's mailbox, for tests that drive a wait over a mailbox
    /// they filled themselves.
    #[cfg(test)]
    pub(crate) fn mailbox_mut(&mut self) -> &mut Mailbox {
        &mut self.mailbox
    }

    /// The channel inbox a blocking rank parks on (thread and proc
    /// backends only).
    pub(crate) fn inbox(&self) -> &Receiver<Envelope> {
        self.link.inbox()
    }
}
