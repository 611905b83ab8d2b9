//! Resumable (stackless) rank programs, and the one implementation of
//! every blocking primitive.
//!
//! A *step program* is a rank body written against [`StepComm`] instead of
//! [`Comm`]: every potentially blocking primitive is `async`, so the
//! compiler turns the body into an explicit state machine whose
//! suspension points are exactly the runtime's blocking points (the
//! [`RankStep`] continuations: receive, rendezvous ack, collective
//! interior receive, failure agreement).
//!
//! Each primitive and collective is implemented exactly once, as `async`
//! code over a [`StepComm`] (point-to-point here, collectives in
//! `coll.rs`), and waits only in the wait core (`wait.rs`). That one
//! implementation serves every backend:
//!
//! * **Thread / proc backends** wait by blocking the rank's thread, so
//!   every future completes on its first poll. The blocking
//!   [`Comm`] methods are one-poll wrappers over these futures, and
//!   [`drive`] runs a whole step program the same way.
//! * **The event backend** ([`World::run_event`](crate::World::run_event))
//!   builds one state machine per rank whose waits park on a wait cell;
//!   a binary-heap discrete-event engine resumes them (see
//!   `docs/scheduler.md`). Per-rank cost is the state machine plus a
//!   mailbox — about a kilobyte, not a thread stack — which is what lets
//!   `mpi_scale` sweep 10^5–10^6 virtual ranks in one process. It is the
//!   seeded backend: every deterministic, replayable run of a module is a
//!   step program on this engine.
//!
//! Because the algorithms are shared, the event backend runs the tuned
//! (hierarchical and chunked) collectives a tuning table selects exactly
//! as the other backends do. The conformance suite
//! (`tests/event_conformance.rs`) pins results, sim clocks, `CommStats`,
//! and checker logs byte-identical across backends.

use crate::check::CallSite;
use crate::coll::{self, Scope};
use crate::comm::{Comm, RecvRequest, SendRequest};
use crate::datatype::{decode_into, Datatype};
use crate::envelope::{Envelope, MatchSpec, MsgClass, SourceSel, Status, TagSel};
use crate::error::{Error, Result};
use crate::reduce::{Op, Reducible};
use crate::stats::{CommStats, Primitive};
use crate::topology::CartTopology;
use crate::wait::{WaitCell, Waiter};
use pdc_cluster::CostModel;
use std::cell::RefCell;
use std::future::Future;
use std::pin::{pin, Pin};
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// The boxed, rank-local future a step program compiles to. Not `Send`:
/// the event engine is single-threaded, and the blocking shim polls on
/// the rank's own thread.
pub type StepFuture<'c, T> = Pin<Box<dyn Future<Output = T> + 'c>>;

/// A rank body in resumable form: something that, handed a [`StepComm`],
/// yields the rank's state machine. Implement it on a struct owning the
/// program's inputs; `build` borrows them for the future's lifetime.
///
/// ```ignore
/// struct Ring;
/// impl StepProgram<u64> for Ring {
///     fn build<'c, 'w: 'c>(&'c self, sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<u64>> {
///         Box::pin(ring_step(sc))
///     }
/// }
/// ```
pub trait StepProgram<T> {
    /// Instantiate the rank body for one rank's communicator.
    fn build<'c, 'w: 'c>(&'c self, sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<T>>;
}

/// The blocking points a resumable rank body can suspend at — the
/// continuation tag the event engine sees when a rank parks. Purely
/// observational (diagnostics and the scheduler docs); the actual
/// continuation state lives in the compiler-generated future.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankStep {
    /// Not suspended: runnable or running.
    Ready,
    /// Waiting for a matching user message (recv / wait_recv / probe).
    Recv,
    /// Rendezvous sender waiting for the matching receive to start.
    RendezvousAck,
    /// Waiting inside a collective for an internal tree/ring message.
    Collective,
    /// Waiting in `agree` for every rank to enter, fail, or finish.
    Agree,
    /// Completed; waiting for the world to finish (finalize barrier).
    Finalize,
}

/// Poll a blocking-mode future once, pinned on the stack. Its waits
/// block the thread, so the single poll runs it to completion.
///
/// # Panics
/// Panics if the future suspends, which a blocking-mode future never
/// does — it would indicate an `await` on a foreign future inside a rank
/// body.
pub(crate) fn block_on<F: Future>(fut: F) -> F::Output {
    let mut cx = Context::from_waker(Waker::noop());
    match pin!(fut).poll(&mut cx) {
        Poll::Ready(v) => v,
        Poll::Pending => unreachable!(
            "a blocking-mode step program suspended; rank bodies must only await StepComm primitives"
        ),
    }
}

/// Run a step program to completion in blocking mode on `comm` — the
/// shim that lets the thread and proc backends execute a
/// resumable rank body unchanged. The single poll never suspends: every
/// blocking-mode wait completes synchronously on the rank's thread.
///
/// # Panics
/// Panics if the future suspends, which a blocking-mode [`StepComm`]
/// never does — it would indicate an `await` on a foreign future inside
/// a rank body.
pub fn drive<'c, 'w, T>(
    comm: &'c mut Comm<'w>,
    build: impl FnOnce(StepComm<'c, 'w>) -> StepFuture<'c, T>,
) -> T {
    block_on(build(StepComm::blocking(comm)))
}

/// The communicator handed to a resumable rank body. Mirrors the
/// [`Comm`] surface the teaching modules use; potentially blocking
/// primitives are `async` and must be `.await`ed.
pub struct StepComm<'c, 'w: 'c> {
    pub(crate) comm: &'c mut Comm<'w>,
    pub(crate) wait: Waiter,
}

impl Drop for StepComm<'_, '_> {
    /// An event rank's body is over once its communicator goes: refuse
    /// the rendezvous envelopes still pending here, as a finished thread
    /// rank does. This also runs while a panicking rank unwinds; the
    /// engine's queues are never borrowed across a poll.
    fn drop(&mut self) {
        if let Waiter::Event(_) = self.wait {
            self.comm.refuse_rendezvous();
        }
    }
}

impl<'c, 'w: 'c> StepComm<'c, 'w> {
    /// Blocking-mode constructor: the futures complete on their first
    /// poll (see [`block_on`]).
    pub(crate) fn blocking(comm: &'c mut Comm<'w>) -> Self {
        StepComm {
            comm,
            wait: Waiter::Blocking,
        }
    }

    /// Event-mode constructor, used by the event engine: the rank parks
    /// on `cell`.
    pub(crate) fn event(comm: &'c mut Comm<'w>, cell: Rc<RefCell<WaitCell>>) -> Self {
        StepComm {
            comm,
            wait: Waiter::Event(cell),
        }
    }

    // ------------------------------------------------------------------
    // Synchronous pass-throughs
    // ------------------------------------------------------------------

    /// This rank's id. See [`Comm::rank`].
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Number of ranks in the world. See [`Comm::size`].
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// Node hosting this rank. See [`Comm::node`].
    pub fn node(&self) -> usize {
        self.comm.node()
    }

    /// Current simulated time, seconds. See [`Comm::sim_time`].
    pub fn sim_time(&self) -> f64 {
        self.comm.sim_time()
    }

    /// Statistics snapshot. See [`Comm::stats`].
    pub fn stats(&self) -> &CommStats {
        self.comm.stats()
    }

    /// The cost model the clock charges against. See [`Comm::cost_model`].
    pub fn cost_model(&self) -> &CostModel {
        self.comm.cost_model()
    }

    /// Charge compute flops to the simulated clock. See
    /// [`Comm::charge_flops`].
    pub fn charge_flops(&mut self, flops: f64) {
        self.comm.charge_flops(flops);
    }

    /// Charge DRAM traffic to the simulated clock. See
    /// [`Comm::charge_mem`].
    pub fn charge_mem(&mut self, bytes: f64) {
        self.comm.charge_mem(bytes);
    }

    /// Charge a roofline kernel to the simulated clock. See
    /// [`Comm::charge_kernel`].
    pub fn charge_kernel(&mut self, flops: f64, bytes: f64) {
        self.comm.charge_kernel(flops, bytes);
    }

    /// Open a named profiling phase. See [`Comm::phase_begin`].
    pub fn phase_begin(&mut self, name: &str) {
        self.comm.phase_begin(name);
    }

    /// Close the innermost open phase. See [`Comm::phase_end`].
    pub fn phase_end(&mut self) {
        self.comm.phase_end();
    }

    /// `MPI_Cart_create` over the whole world. See [`Comm::cart`].
    #[must_use = "the topology can be invalid; check the Result"]
    pub fn cart(&self, dims: &[usize], periodic: &[bool]) -> Result<CartTopology> {
        self.comm.cart(dims, periodic)
    }

    /// Locally known failed ranks. See [`Comm::failed_ranks`].
    pub fn failed_ranks(&self) -> Vec<(usize, f64)> {
        self.comm.failed_ranks()
    }

    /// `MPI_Isend` — nonblocking, hence synchronous in every mode. See
    /// [`Comm::isend`].
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn isend<T: Datatype>(&mut self, data: &[T], dest: usize, tag: u32) -> Result<SendRequest> {
        self.comm.isend_at(data, dest, tag, CallSite::here())
    }

    /// `MPI_Irecv`. See [`Comm::irecv`].
    #[track_caller]
    #[must_use = "communication can fail; check the Result"]
    pub fn irecv<T: Datatype>(
        &mut self,
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> Result<RecvRequest<T>> {
        self.comm.irecv(src, tag)
    }

    /// `MPI_Iprobe`. See [`Comm::iprobe`].
    #[must_use = "communication can fail; check the Result"]
    pub fn iprobe(
        &mut self,
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> Result<Option<Status>> {
        self.comm.iprobe(src, tag)
    }

    /// `MPI_Get_count`. See [`Comm::get_count`].
    #[must_use = "communication can fail; check the Result"]
    pub fn get_count<T: Datatype>(&mut self, status: &Status) -> Result<usize> {
        self.comm.get_count::<T>(status)
    }

    // ------------------------------------------------------------------
    // Point-to-point (async)
    // ------------------------------------------------------------------

    /// `MPI_Send`. See [`Comm::send`].
    #[track_caller]
    pub fn send<'a, T: Datatype>(
        &'a mut self,
        data: &'a [T],
        dest: usize,
        tag: u32,
    ) -> impl Future<Output = Result<()>> + use<'a, 'c, 'w, T> {
        self.send_at(data, dest, tag, CallSite::here())
    }

    /// `MPI_Ssend`. See [`Comm::ssend`].
    #[track_caller]
    pub fn ssend<'a, T: Datatype>(
        &'a mut self,
        data: &'a [T],
        dest: usize,
        tag: u32,
    ) -> impl Future<Output = Result<()>> + use<'a, 'c, 'w, T> {
        self.ssend_at(data, dest, tag, CallSite::here())
    }

    /// `MPI_Recv` into a fresh vector. See [`Comm::recv`].
    #[track_caller]
    pub fn recv<'a, T: Datatype, S: Into<SourceSel>, G: Into<TagSel>>(
        &'a mut self,
        src: S,
        tag: G,
    ) -> impl Future<Output = Result<(Vec<T>, Status)>> + use<'a, 'c, 'w, T, S, G> {
        self.recv_at(src.into(), tag.into(), CallSite::here())
    }

    /// `MPI_Recv` into a caller buffer. See [`Comm::recv_into`].
    #[track_caller]
    pub fn recv_into<'a, T: Datatype, S: Into<SourceSel>, G: Into<TagSel>>(
        &'a mut self,
        buf: &'a mut [T],
        src: S,
        tag: G,
    ) -> impl Future<Output = Result<Status>> + use<'a, 'c, 'w, T, S, G> {
        self.recv_into_at(buf, src.into(), tag.into(), CallSite::here())
    }

    /// `MPI_Sendrecv`. See [`Comm::sendrecv`].
    #[track_caller]
    pub fn sendrecv<'a, T: Datatype, U: Datatype, S: Into<SourceSel>, G: Into<TagSel>>(
        &'a mut self,
        senddata: &'a [T],
        dest: usize,
        sendtag: u32,
        src: S,
        recvtag: G,
    ) -> impl Future<Output = Result<(Vec<U>, Status)>> + use<'a, 'c, 'w, T, U, S, G> {
        let recv = MatchSpec::User(src.into(), recvtag.into());
        self.sendrecv_at(senddata, dest, sendtag, recv, CallSite::here())
    }

    /// `MPI_Wait` on a send request. See [`Comm::wait_send`].
    #[track_caller]
    pub fn wait_send<'a>(
        &'a mut self,
        req: SendRequest,
    ) -> impl Future<Output = Result<()>> + use<'a, 'c, 'w> {
        self.wait_send_at(req, CallSite::here())
    }

    /// `MPI_Waitall` on send requests. See [`Comm::wait_all_sends`].
    #[track_caller]
    pub fn wait_all_sends<'a>(
        &'a mut self,
        reqs: Vec<SendRequest>,
    ) -> impl Future<Output = Result<()>> + use<'a, 'c, 'w> {
        self.wait_all_sends_at(reqs, CallSite::here())
    }

    /// `MPI_Wait` on a receive request. See [`Comm::wait_recv`].
    #[track_caller]
    pub fn wait_recv<'a, T: Datatype>(
        &'a mut self,
        req: RecvRequest<T>,
    ) -> impl Future<Output = Result<(Vec<T>, Status)>> + use<'a, 'c, 'w, T> {
        self.wait_recv_at(req, CallSite::here())
    }

    /// `MPI_Probe`. See [`Comm::probe`].
    #[track_caller]
    pub fn probe<'a, S: Into<SourceSel>, G: Into<TagSel>>(
        &'a mut self,
        src: S,
        tag: G,
    ) -> impl Future<Output = Result<Status>> + use<'a, 'c, 'w, S, G> {
        self.probe_at(src.into(), tag.into(), CallSite::here())
    }

    // ------------------------------------------------------------------
    // Collectives (async)
    // ------------------------------------------------------------------

    /// `MPI_Barrier`. See [`Comm::barrier`].
    #[track_caller]
    pub fn barrier<'a>(&'a mut self) -> impl Future<Output = Result<()>> + use<'a, 'c, 'w> {
        coll::barrier(self, Scope::world("barrier"), CallSite::here())
    }

    /// `MPI_Bcast`. See [`Comm::bcast`].
    #[track_caller]
    pub fn bcast<'a, T: Datatype>(
        &'a mut self,
        data: Option<&'a [T]>,
        root: usize,
    ) -> impl Future<Output = Result<Vec<T>>> + use<'a, 'c, 'w, T> {
        let site = CallSite::here();
        coll::bcast(self, Scope::world("bcast"), data, root, site)
    }

    /// `MPI_Scatter`. See [`Comm::scatter`].
    #[track_caller]
    pub fn scatter<'a, T: Datatype>(
        &'a mut self,
        data: Option<&'a [T]>,
        root: usize,
    ) -> impl Future<Output = Result<Vec<T>>> + use<'a, 'c, 'w, T> {
        let site = CallSite::here();
        coll::scatter(self, Scope::world("scatter"), data, None, root, false, site)
    }

    /// `MPI_Scatterv`. See [`Comm::scatterv`].
    #[track_caller]
    pub fn scatterv<'a, T: Datatype>(
        &'a mut self,
        data: Option<&'a [T]>,
        counts: Option<&'a [usize]>,
        root: usize,
    ) -> impl Future<Output = Result<Vec<T>>> + use<'a, 'c, 'w, T> {
        let site = CallSite::here();
        coll::scatter(
            self,
            Scope::world("scatterv"),
            data,
            counts,
            root,
            true,
            site,
        )
    }

    /// `MPI_Gather`. See [`Comm::gather`].
    #[track_caller]
    pub fn gather<'a, T: Datatype>(
        &'a mut self,
        data: &'a [T],
        root: usize,
    ) -> impl Future<Output = Result<Option<Vec<T>>>> + use<'a, 'c, 'w, T> {
        coll::gather(self, Scope::world("gather"), data, root, CallSite::here())
    }

    /// `MPI_Gatherv`. See [`Comm::gatherv`].
    #[track_caller]
    pub fn gatherv<'a, T: Datatype>(
        &'a mut self,
        data: &'a [T],
        root: usize,
    ) -> impl Future<Output = Result<Option<Vec<Vec<T>>>>> + use<'a, 'c, 'w, T> {
        coll::gatherv(self, Scope::world("gatherv"), data, root, CallSite::here())
    }

    /// `MPI_Allgather` (ring). See [`Comm::allgather`].
    #[track_caller]
    pub fn allgather<'a, T: Datatype>(
        &'a mut self,
        data: &'a [T],
    ) -> impl Future<Output = Result<Vec<T>>> + use<'a, 'c, 'w, T> {
        coll::allgather(self, Scope::world("allgather"), data, CallSite::here())
    }

    /// `MPI_Allgatherv`. See [`Comm::allgatherv`].
    #[track_caller]
    pub fn allgatherv<'a, T: Datatype>(
        &'a mut self,
        data: &'a [T],
    ) -> impl Future<Output = Result<Vec<Vec<T>>>> + use<'a, 'c, 'w, T> {
        coll::allgatherv(self, Scope::world("allgatherv"), data, CallSite::here())
    }

    /// `MPI_Alltoall`. See [`Comm::alltoall`].
    #[track_caller]
    pub fn alltoall<'a, T: Datatype>(
        &'a mut self,
        data: &'a [T],
    ) -> impl Future<Output = Result<Vec<T>>> + use<'a, 'c, 'w, T> {
        coll::alltoall(self, Scope::world("alltoall"), data, CallSite::here())
    }

    /// `MPI_Alltoallv`. See [`Comm::alltoallv`].
    #[track_caller]
    pub fn alltoallv<'a, T: Datatype>(
        &'a mut self,
        data: Vec<Vec<T>>,
    ) -> impl Future<Output = Result<Vec<Vec<T>>>> + use<'a, 'c, 'w, T> {
        coll::alltoallv(self, Scope::world("alltoallv"), data, CallSite::here())
    }

    /// `MPI_Reduce` with a built-in operator. See [`Comm::reduce`].
    #[track_caller]
    pub fn reduce<'a, T: Datatype + Reducible>(
        &'a mut self,
        data: &'a [T],
        op: Op,
        root: usize,
    ) -> impl Future<Output = Result<Option<Vec<T>>>> + use<'a, 'c, 'w, T> {
        let (scope, fold, site) = (Scope::world("reduce"), coll::builtin(op), CallSite::here());
        coll::reduce(self, scope, data, root, fold, site)
    }

    /// `MPI_Allreduce` with a built-in operator. See [`Comm::allreduce`].
    #[track_caller]
    pub fn allreduce<'a, T: Datatype + Reducible>(
        &'a mut self,
        data: &'a [T],
        op: Op,
    ) -> impl Future<Output = Result<Vec<T>>> + use<'a, 'c, 'w, T> {
        let (scope, fold, site) = (
            Scope::world("allreduce"),
            coll::builtin(op),
            CallSite::here(),
        );
        coll::allreduce(self, scope, data, fold, site)
    }

    /// `MPIX_Comm_agree` analogue. See [`Comm::agree`].
    #[track_caller]
    pub fn agree<'a>(
        &'a mut self,
    ) -> impl Future<Output = Result<Vec<(usize, f64)>>> + use<'a, 'c, 'w> {
        self.agree_at(CallSite::here())
    }

    // ------------------------------------------------------------------
    // The one implementation of each blocking primitive
    // ------------------------------------------------------------------

    pub(crate) async fn send_at<T: Datatype>(
        &mut self,
        data: &[T],
        dest: usize,
        tag: u32,
        site: CallSite,
    ) -> Result<()> {
        self.comm.validate_rank(dest, "destination")?;
        self.comm.record(Primitive::Send);
        let synchronous =
            data.len() * T::SIZE > self.comm.eager_threshold() && dest != self.comm.rank();
        let ack = self
            .comm
            .transport_send(data, dest, MsgClass::User(tag), synchronous, site)?;
        if let Some(seq) = ack {
            let what = "send(rendezvous)";
            self.wait
                .ack(self.comm, seq, dest, tag, what, &site)
                .await?;
        }
        Ok(())
    }

    pub(crate) async fn ssend_at<T: Datatype>(
        &mut self,
        data: &[T],
        dest: usize,
        tag: u32,
        site: CallSite,
    ) -> Result<()> {
        self.comm.validate_rank(dest, "destination")?;
        if dest == self.comm.rank() {
            return Err(Error::InvalidArgument(
                "ssend to self would block forever".into(),
            ));
        }
        self.comm.record(Primitive::Ssend);
        let seq = self
            .comm
            .transport_send(data, dest, MsgClass::User(tag), true, site)?
            .expect("a synchronous send is acknowledged");
        self.wait
            .ack(self.comm, seq, dest, tag, "ssend", &site)
            .await
    }

    /// Wait for a user message matching `spec` and log the completed
    /// receive; `user` names the primitive and its call site for deadlock
    /// explanations.
    async fn recv_user<T: Datatype>(
        &mut self,
        spec: MatchSpec,
        user: (&'static str, CallSite),
    ) -> Result<Envelope> {
        let env = self.wait.recv(self.comm, &spec, Some(&user)).await?;
        self.comm.record_user_recv::<T>(&env, &spec, user.1);
        Ok(env)
    }

    pub(crate) async fn recv_at<T: Datatype>(
        &mut self,
        src: SourceSel,
        tag: TagSel,
        site: CallSite,
    ) -> Result<(Vec<T>, Status)> {
        if let SourceSel::Rank(r) = src {
            self.comm.validate_rank(r, "source")?;
        }
        self.comm.record(Primitive::Recv);
        let env = self
            .recv_user::<T>(MatchSpec::User(src, tag), ("recv", site))
            .await?;
        self.comm.decode_user_payload(&env)
    }

    pub(crate) async fn recv_into_at<T: Datatype>(
        &mut self,
        buf: &mut [T],
        src: SourceSel,
        tag: TagSel,
        site: CallSite,
    ) -> Result<Status> {
        if let SourceSel::Rank(r) = src {
            self.comm.validate_rank(r, "source")?;
        }
        self.comm.record(Primitive::Recv);
        let env = self
            .recv_user::<T>(MatchSpec::User(src, tag), ("recv", site))
            .await?;
        let status = Status::of(&env);
        env.ensure_type::<T>()?;
        if env.payload.len() > buf.len() * T::SIZE {
            return Err(Error::Truncated {
                message_bytes: status.bytes,
                buffer_bytes: buf.len() * T::SIZE,
            });
        }
        decode_into(&env.payload, buf);
        Ok(status)
    }

    pub(crate) async fn sendrecv_at<T: Datatype, U: Datatype>(
        &mut self,
        senddata: &[T],
        dest: usize,
        sendtag: u32,
        recv: MatchSpec,
        site: CallSite,
    ) -> Result<(Vec<U>, Status)> {
        self.comm.validate_rank(dest, "destination")?;
        self.comm.record(Primitive::Sendrecv);
        // Buffered send regardless of the eager threshold: MPI_Sendrecv
        // guarantees progress.
        self.comm
            .transport_send(senddata, dest, MsgClass::User(sendtag), false, site)?;
        let env = self.recv_user::<U>(recv, ("sendrecv", site)).await?;
        self.comm.decode_user_payload(&env)
    }

    pub(crate) async fn wait_send_at(&mut self, req: SendRequest, site: CallSite) -> Result<()> {
        self.comm.record(Primitive::Wait);
        if let Some(seq) = req.ack {
            let (dest, tag) = (req.dest, req.tag);
            self.wait
                .ack(self.comm, seq, dest, tag, "wait_send", &site)
                .await?;
        }
        self.comm.request_completed(req.id);
        Ok(())
    }

    /// One `site` covers every request of the batch.
    pub(crate) async fn wait_all_sends_at(
        &mut self,
        reqs: Vec<SendRequest>,
        site: CallSite,
    ) -> Result<()> {
        for req in reqs {
            self.wait_send_at(req, site).await?;
        }
        Ok(())
    }

    pub(crate) async fn wait_recv_at<T: Datatype>(
        &mut self,
        req: RecvRequest<T>,
        site: CallSite,
    ) -> Result<(Vec<T>, Status)> {
        self.comm.record(Primitive::Wait);
        let (spec, id) = req.into_spec();
        let env = self.recv_user::<T>(spec, ("wait_recv", site)).await?;
        self.comm.request_completed(id);
        self.comm.decode_user_payload(&env)
    }

    pub(crate) async fn probe_at(
        &mut self,
        src: SourceSel,
        tag: TagSel,
        site: CallSite,
    ) -> Result<Status> {
        self.comm.enact_crash()?;
        self.comm.record(Primitive::Probe);
        let spec = MatchSpec::User(src, tag);
        self.wait.probe(self.comm, &spec, &site).await
    }

    pub(crate) async fn agree_at(&mut self, site: CallSite) -> Result<Vec<(usize, f64)>> {
        self.comm.enact_crash()?;
        let (failed, epoch) = self.wait.agree(self.comm, site).await?;
        self.comm.ack_failures(epoch);
        Ok(failed)
    }
}
