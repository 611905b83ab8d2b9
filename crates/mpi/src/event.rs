//! The stackless event backend: a discrete-event engine for resumable
//! rank programs ([`StepProgram`]).
//!
//! Instead of one OS thread per rank, every
//! rank is a compiler-generated state machine plus a few bytes of wait
//! state (`WaitCell`); a single binary heap of runnable ranks drives
//! them. The engine does O(events) work — a rank is polled only when
//! seeded, woken by a delivery (a rendezvous acknowledgement is one),
//! broadcast to on failure/poison, or, parked in `agree`, requeued when an
//! agreement generation resolves — never O(ranks) polling per step.
//! That is what scales Modules 2/3/6 to 10^5–10^6 virtual ranks in one
//! process (see `docs/scheduler.md` and `mpi_scale --ranks N`).
//!
//! Determinism: the resume order is a pure function of `(program, size,
//! seed)`. The heap orders by `(simulated park time, sequence key,
//! rank)`; with seed 0 the sequence key is the wake counter (program
//! order), with a nonzero seed it is a splitmix64 hash of the counter, a
//! bijection that perturbs the service order among equal-time wakes while
//! staying fully reproducible. This makes the engine the runtime's seeded
//! backend: `sched_explore` sweeps its seeds over all eight modules, and
//! `PDC_MPI_SCHED_SEED` picks the seed of [`WorldConfig::virtual_ranks`]
//! worlds.
//!
//! Delivery is single-threaded too. The engine owns one inbox queue per
//! rank (`EventMesh`): a send pushes the envelope onto the
//! destination's queue and records the destination on a plain dirty
//! list, and the receiving rank's mailbox takes the queue whole the next
//! time it matches. No channel, lock, or condvar sits on the path, and
//! nothing per rank is registered with the shared progress state.
//!
//! Deadlock is detected exactly, with no wall-clock sampling: an empty
//! heap with unfinished ranks means nobody can ever run again, so the
//! engine snapshots the blocked-operation table, poisons the world with
//! the same [`DeadlockInfo`](crate::DeadlockInfo) analysis a thread world
//! builds, and wakes everyone to report it.

use crate::check::CheckEvent;
use crate::comm::Comm;
use crate::envelope::Envelope;
use crate::error::{Error, Result};
use crate::mailbox::Mailbox;
use crate::step::{RankStep, StepComm, StepFuture, StepProgram};
use crate::transport::Link;
use crate::wait::WaitCell;
use crate::world::{fold_outcomes, RunOutput, World, WorldConfig, WorldSetup};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// Per-rank memory footprint of an event-backend world, measured after
/// the rank state machines are built. This is the number the 10^5–10^6
/// rank sweeps hinge on: a parked virtual rank costs a 512 KiB stack,
/// an event rank costs `bytes_per_rank` (typically a few hundred bytes
/// of future plus the communicator and mailbox).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EventMemStats {
    /// World size the measurement covers.
    pub ranks: usize,
    /// Total bytes of compiler-generated rank state machines.
    pub future_bytes: usize,
    /// Total bytes of communicator state: `size_of::<Comm>()` per rank,
    /// and no heap, since a communicator allocates nothing at set-up
    /// (what its mailbox holds later is workload dependent).
    pub comm_bytes: usize,
    /// Total bytes of engine wait state (wait cells).
    pub cell_bytes: usize,
    /// `(future_bytes + comm_bytes + cell_bytes) / ranks`.
    pub bytes_per_rank: usize,
    /// Number of rank resumes (heap pops that polled a state machine).
    pub events: u64,
}

/// The event engine's delivery path: one inbox queue per rank, and the
/// destinations written to since the engine last looked, in send order.
/// Plain cells, not locks: the engine and every rank it resumes share
/// one thread, which is also why an event-rank [`Comm`] is not `Send`.
pub(crate) struct EventMesh {
    inboxes: Vec<RefCell<Vec<Envelope>>>,
    dirty: RefCell<Vec<usize>>,
}

impl EventMesh {
    pub(crate) fn new(size: usize) -> Self {
        EventMesh {
            inboxes: (0..size).map(|_| RefCell::default()).collect(),
            dirty: RefCell::default(),
        }
    }

    /// Number of ranks.
    pub(crate) fn size(&self) -> usize {
        self.inboxes.len()
    }

    /// Queue `env` for rank `dst` and mark `dst` for a wake. Every send
    /// is recorded, so the engine sees exactly the wakes the program's
    /// sends imply.
    pub(crate) fn push(&self, dst: usize, env: Envelope) {
        self.inboxes[dst].borrow_mut().push(env);
        self.dirty.borrow_mut().push(dst);
    }

    /// Admit rank `rank`'s queued envelopes into its mailbox. The queue's
    /// buffer goes with them, so a burst is never held twice.
    pub(crate) fn collect(&self, rank: usize, mailbox: &mut Mailbox) {
        let batch = {
            let mut inbox = self.inboxes[rank].borrow_mut();
            if inbox.is_empty() {
                return;
            }
            std::mem::take(&mut *inbox)
        };
        mailbox.admit(batch);
    }
}

/// splitmix64 finalizer: a bijective mix used to derive seeded heap keys.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Heap sequence key for the `counter`-th wake: program order under seed
/// 0, a seeded bijection otherwise.
fn seq_key(seed: u64, counter: u64) -> u64 {
    if seed == 0 {
        counter
    } else {
        splitmix64(seed ^ counter)
    }
}

/// Requeue a parked rank. `queued` dedups concurrent wake reasons; the
/// rank re-enters the heap at the simulated time it parked at.
fn wake_rank(
    cells: &[Rc<RefCell<WaitCell>>],
    heap: &mut BinaryHeap<Reverse<(u64, u64, usize)>>,
    counter: &mut u64,
    seed: u64,
    rank: usize,
) {
    let mut cell = cells[rank].borrow_mut();
    if cell.parked && !cell.queued {
        cell.queued = true;
        let key = seq_key(seed, *counter);
        *counter += 1;
        heap.push(Reverse((cell.now.to_bits(), key, rank)));
    }
}

impl World {
    /// Run a resumable program on the event backend. See the module docs;
    /// results, statistics, and check logs are byte-identical to
    /// [`World::run`] for the same program driven with
    /// [`drive`](crate::drive) (`tests/event_conformance.rs` is the
    /// contract).
    ///
    /// The scheduling seed is taken from
    /// [`WorldConfig::virtual_ranks`](crate::WorldConfig) /
    /// [`with_sched_seed`](crate::WorldConfig::with_sched_seed) when set;
    /// a plain config runs in program order (seed 0). The engine detects
    /// deadlock exactly, when its heap is empty.
    ///
    /// Collective tuning tables ([`WorldConfig::tuning`]) are honoured
    /// exactly as on the other backends: every backend runs the same
    /// collective implementations, so a tuned run selects the same
    /// hierarchical or chunked algorithms and produces the same results,
    /// clock, and statistics.
    ///
    /// # Errors
    /// Anything a rank body returns, plus [`Error::Deadlock`] with the
    /// same analysis the thread backend produces.
    pub fn run_event<T, P>(cfg: WorldConfig, program: &P) -> Result<RunOutput<T>>
    where
        P: StepProgram<T> + ?Sized,
    {
        run_event_inner(cfg, program).0
    }

    /// [`World::run_event`] returning the per-rank check-event logs even
    /// when the run fails — the event-backend analogue of
    /// [`World::run_with_check`].
    pub fn run_event_with_check<T, P>(
        cfg: WorldConfig,
        program: &P,
    ) -> (Result<RunOutput<T>>, Vec<Vec<CheckEvent>>)
    where
        P: StepProgram<T> + ?Sized,
    {
        let (result, events, _) = run_event_inner(cfg, program);
        (result, events)
    }

    /// [`World::run_event`] plus the engine's memory accounting — what
    /// `mpi_scale` reports as `bytes_per_rank`.
    pub fn run_event_with_mem<T, P>(
        cfg: WorldConfig,
        program: &P,
    ) -> (Result<RunOutput<T>>, EventMemStats)
    where
        P: StepProgram<T> + ?Sized,
    {
        let (result, _, mem) = run_event_inner(cfg, program);
        (result, mem)
    }
}

/// The engine proper. Single-threaded: builds the queues and one state
/// machine per rank, then pops `(time, key, rank)` off the heap and polls
/// until every rank completed.
fn run_event_inner<T, P>(
    cfg: WorldConfig,
    program: &P,
) -> (Result<RunOutput<T>>, Vec<Vec<CheckEvent>>, EventMemStats)
where
    P: StepProgram<T> + ?Sized,
{
    let setup = WorldSetup::new(&cfg, false);
    let size = cfg.size;
    let progress = &setup.progress;
    let seed = cfg.sched_seed;

    let mesh = EventMesh::new(size);
    let started = Instant::now();
    let mut comms: Vec<Comm> = (0..size)
        .map(|rank| Comm::new(&setup, rank, Link::Event(&mesh)))
        .collect();

    let cells: Vec<Rc<RefCell<WaitCell>>> = (0..size).map(|_| WaitCell::new()).collect();
    let mut futures: Vec<Option<StepFuture<'_, Result<T>>>> = comms
        .iter_mut()
        .zip(&cells)
        .map(|(comm, cell)| Some(program.build(StepComm::event(comm, Rc::clone(cell)))))
        .collect();

    let future_bytes: usize = futures
        .iter()
        .flatten()
        .map(|f| std::mem::size_of_val(&**f))
        .sum();
    let comm_bytes = size * std::mem::size_of::<Comm>();
    let cell_bytes = size * std::mem::size_of::<WaitCell>();
    let mut mem = EventMemStats {
        ranks: size,
        future_bytes,
        comm_bytes,
        cell_bytes,
        bytes_per_rank: (future_bytes + comm_bytes + cell_bytes) / size,
        events: 0,
    };

    // Seed the heap: every rank runnable at t=0, in rank order under the
    // seed's key function.
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::with_capacity(size);
    let mut counter: u64 = 0;
    for (rank, cell) in cells.iter().enumerate() {
        cell.borrow_mut().queued = true;
        let key = seq_key(seed, counter);
        counter += 1;
        heap.push(Reverse((0f64.to_bits(), key, rank)));
    }

    let mut outcomes: Vec<Option<Result<T>>> = (0..size).map(|_| None).collect();
    let mut sched_trace: Vec<u32> = Vec::new();
    let mut done = 0usize;
    let mut last_epoch = progress.failure_epoch();
    let mut last_agreed = progress.agreements();
    let mut woke_after_poison = false;
    let waker = Waker::noop();
    let mut cx = Context::from_waker(waker);

    while done < size {
        let Some(Reverse((_, _, rank))) = heap.pop() else {
            // Nobody can run again on their own: either a genuine
            // deadlock, or the world is already poisoned and some ranks
            // still have not observed it.
            if !woke_after_poison {
                // The thread backend's analysis, exactly.
                progress.declare_deadlock();
                woke_after_poison = true;
                for rank in 0..size {
                    wake_rank(&cells, &mut heap, &mut counter, seed, rank);
                }
                continue;
            }
            // Already woke everyone under poison and the heap drained
            // again with unfinished ranks. Every primitive reports
            // poison on its next poll, so this cannot happen for
            // step-program blocking points; it guards against a future
            // that pends without parking. Fail the stragglers rather
            // than spin.
            for (rank, slot) in outcomes.iter_mut().enumerate() {
                if slot.is_none() {
                    *slot = Some(Err(progress.deadlock_error()));
                    futures[rank] = None;
                    progress.mark_done(rank);
                }
            }
            break;
        };
        {
            let mut cell = cells[rank].borrow_mut();
            cell.queued = false;
            cell.parked = false;
            cell.waiting = RankStep::Ready;
        }
        let Some(fut) = futures[rank].as_mut() else {
            continue;
        };
        sched_trace.push(rank as u32);
        mem.events += 1;
        let mut finished = false;
        match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
            Ok(Poll::Ready(result)) => {
                outcomes[rank] = Some(result);
                finished = true;
            }
            Ok(Poll::Pending) => {
                debug_assert!(
                    cells[rank].borrow().parked,
                    "a pending event-mode rank must be parked on its wait cell"
                );
            }
            Err(_) => {
                outcomes[rank] = Some(Err(Error::RankPanicked(rank)));
                finished = true;
            }
        }
        if finished {
            futures[rank] = None;
            progress.mark_done(rank);
            done += 1;
        }

        // Wake processing, in a fixed order so the schedule is a pure
        // function of the seed: failure/poison broadcasts, message
        // deliveries (rendezvous acknowledgements among them), then
        // resolved agreements, which requeue the ranks parked in `agree`
        // in rank order.
        let epoch = progress.failure_epoch();
        if epoch != last_epoch || (progress.is_poisoned() && !woke_after_poison) {
            last_epoch = epoch;
            woke_after_poison = progress.is_poisoned();
            for r in 0..size {
                wake_rank(&cells, &mut heap, &mut counter, seed, r);
            }
        }
        // A rendezvous send to a rank that already finished needs no
        // answer: its sender sees the rank done in its ack wait.
        for dst in mesh.dirty.borrow_mut().drain(..) {
            wake_rank(&cells, &mut heap, &mut counter, seed, dst);
        }
        let agreed = progress.agreements();
        if agreed != last_agreed {
            last_agreed = agreed;
            for (r, cell) in cells.iter().enumerate() {
                if cell.borrow().waiting == RankStep::Agree {
                    wake_rank(&cells, &mut heap, &mut counter, seed, r);
                }
            }
        }
    }

    drop(futures);

    // Communicators first: `fold_outcomes` collects the statistics into
    // their buffer, in place.
    let outcomes = comms.into_iter().zip(outcomes).map(|(comm, outcome)| {
        let outcome = outcome.expect("every rank produced an outcome");
        (outcome, comm.into_report())
    });
    let (result, check_logs) = fold_outcomes(outcomes, started, sched_trace);
    (result, check_logs, mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{MatchSpec, MsgClass, SourceSel, TagSel};

    fn env(src: usize, seq: u64) -> Envelope {
        Envelope {
            src,
            class: MsgClass::User(0),
            type_name: "u8",
            type_size: 1,
            payload: bytes::Bytes::copy_from_slice(&[seq as u8]),
            send_time: 0.0,
            seq,
            rendezvous: false,
        }
    }

    #[test]
    fn every_send_is_recorded_for_a_wake_in_send_order() {
        let mesh = EventMesh::new(3);
        mesh.push(2, env(0, 0));
        mesh.push(1, env(0, 1));
        mesh.push(2, env(1, 0));
        let dirty: Vec<usize> = mesh.dirty.borrow_mut().drain(..).collect();
        assert_eq!(dirty, vec![2, 1, 2], "one entry per send, duplicates kept");
        assert!(mesh.dirty.borrow().is_empty());
        assert_eq!(mesh.inboxes[2].borrow().len(), 2);
    }

    #[test]
    fn collect_admits_the_queue_in_arrival_order_and_empties_it() {
        let mesh = EventMesh::new(2);
        let mut mailbox = Mailbox::new();
        mesh.collect(1, &mut mailbox);
        assert!(
            mailbox.drain_all().is_empty(),
            "an empty queue admits nothing"
        );
        for seq in 0..40 {
            mesh.push(1, env(0, seq));
        }
        mesh.collect(1, &mut mailbox);
        assert!(mesh.inboxes[1].borrow().is_empty());
        assert_eq!(
            mesh.inboxes[1].borrow().capacity(),
            0,
            "the queue's buffer went to the mailbox"
        );
        let from0 = MatchSpec::User(SourceSel::Rank(0), TagSel::Any);
        for seq in 0..40 {
            let got = mailbox.try_match(&from0).expect("queued");
            assert_eq!(got.seq, seq);
        }
        assert!(mailbox.try_match(&from0).is_none());
    }
}
