//! Per-rank mailboxes, message matching, and the deadlock watchdog's shared
//! progress state.
//!
//! Each rank owns a [`Mailbox`]: the pending queue of messages that
//! arrived but have not matched a receive yet (MPI's "unexpected message
//! queue"). Its communicator feeds it from the rank's inbox — a condvar
//! channel on the thread and proc backends, an engine-owned queue on the
//! event engine. Matching follows MPI's rules:
//! messages from the same (source, tag) pair are matched in send order;
//! wildcards take the earliest-arrived match.
//!
//! [`Progress`] is the shared state the watchdog samples to detect
//! deadlock: if every live rank is blocked and no envelope has moved since
//! the previous sample, the program cannot progress and the world is
//! poisoned — every blocked primitive then returns [`Error::Deadlock`].
//! Blocked primitives do not poll for poison: the watchdog wakes every
//! registered channel ([`Progress::register_waker`]) immediately after
//! setting the flag, so a poisoned world unblocks in microseconds, not
//! at the next poll tick.

use crate::chan::{Receiver, WaitError, Wake};
use crate::check::{BlockedOp, DeadlockInfo, PendingOp};
use crate::envelope::{Envelope, MatchSpec, MsgClass, SourceSel, Status, TagSel};
use crate::error::Error;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError, Weak};
use std::time::{Duration, Instant};

/// Shared world state used for progress tracking and deadlock detection.
#[derive(Debug)]
pub struct Progress {
    /// Envelopes enqueued or matched by thread and proc ranks since the
    /// world started; any movement counts as progress. Only the watchdog
    /// reads it, so event-engine ranks do not count.
    pub deliveries: AtomicU64,
    /// Ranks currently blocked inside a primitive.
    pub blocked: AtomicUsize,
    /// Ranks that have finished their closure (successfully or not).
    pub done: AtomicUsize,
    /// Set by the watchdog when deadlock is detected; every blocked
    /// primitive observes it and errors out.
    pub poisoned: AtomicBool,
    /// World size.
    pub size: usize,
    /// What each blocked rank is waiting for, indexed by rank, as plain
    /// data. Registered by [`Progress::enter_blocked_as`]; the watchdog
    /// and the event engine render it ([`Progress::blocked_snapshot`]) to
    /// explain a deadlock instead of merely timing it out.
    pending: Mutex<Vec<Option<PendingOp>>>,
    /// The watchdog's explanation, written immediately before poisoning.
    deadlock: Mutex<Option<DeadlockInfo>>,
    /// External-cancellation reason ([`Progress::cancel`]). When set, a
    /// poisoned world's blocked primitives report [`Error::Cancelled`]
    /// instead of a deadlock — the world was killed from outside, not
    /// stuck.
    cancelled: Mutex<Option<String>>,
    /// Wake handles of every channel a rank may block on (its inbox).
    /// [`Progress::poison`] wakes them all so blocked primitives observe
    /// the flag immediately.
    wakers: Mutex<Vec<Weak<dyn Wake>>>,
    /// Completion signal: notified by [`Progress::mark_done`] and by
    /// [`Progress::poison`], waited on by the watchdog (to exit promptly)
    /// and by the finalize-time leak check. The mutex counts the threads
    /// parked on the condvar, so a completion with nobody waiting (every
    /// rank of an event-engine world) makes no futex call.
    done_sync: Mutex<usize>,
    done_cv: Condvar,
    /// Crashed ranks → simulated failure time. Written by
    /// [`Progress::mark_failed`] when an injected crash fires.
    failed: Mutex<BTreeMap<usize, f64>>,
    /// Bumped once per newly failed rank. Blocked primitives compare it
    /// against the epoch their rank last *acknowledged*
    /// ([`Comm::agree`](crate::Comm::agree)): an unacknowledged failure
    /// aborts the wait with a typed `RankFailed` error (ULFM semantics)
    /// instead of leaving the rank to hang until the watchdog fires.
    epoch: AtomicU64,
    /// Which ranks have finished their closure, indexed by rank. The
    /// agreement protocol counts a finished rank as implicitly
    /// participating, so survivors' agreement cannot hang on a
    /// rank that already exited.
    done_ranks: Mutex<BTreeSet<usize>>,
    /// Agreement-cell state ([`Progress::agree_enter`]).
    agree: Mutex<AgreeState>,
    agree_cv: Condvar,
    /// Cross-process mirror hook: a transport whose ranks span several
    /// processes installs one so local `mark_failed` / `mark_done` /
    /// agreement entries are broadcast to every peer process. `None` for
    /// in-process worlds (zero overhead on those paths).
    notifier: Mutex<Option<std::sync::Arc<dyn ProgressNotifier>>>,
}

/// Hook a multi-process transport installs on [`Progress`] to mirror
/// progress events to peer processes. Called *after* the local state
/// change, with no progress locks held. Implementations must filter for
/// locally originated events (`rank == local rank`) to avoid echoing a
/// mirrored remote event back out.
pub(crate) trait ProgressNotifier: Send + Sync + std::fmt::Debug {
    /// `rank` entered agreement generation `generation`.
    fn on_agree_enter(&self, rank: usize, generation: u64);
    /// `rank` failed at simulated time `at`.
    fn on_failed(&self, rank: usize, at: f64);
    /// `rank` finished its closure.
    fn on_done(&self, rank: usize);
}

/// A resolved agreement generation: `(generation, failed snapshot,
/// failure epoch at resolution)`.
type AgreeOutcome = (u64, Vec<(usize, f64)>, u64);

/// State of the collective agreement cell: one generation resolves when
/// every world rank has either entered it, failed, or finished.
#[derive(Debug, Default)]
struct AgreeState {
    /// Current (unresolved) generation number.
    generation: u64,
    /// Ranks that entered the current generation.
    entered: BTreeSet<usize>,
    /// Most recently resolved generation. Waiters of that generation copy
    /// it out; it cannot be overwritten before they do, because the next
    /// generation needs every live rank — including them — to re-enter.
    resolved: Option<AgreeOutcome>,
    /// Threads parked on `agree_cv`; the agreement cell notifies only
    /// when this is nonzero (it is counted under the same lock, so no
    /// wakeup is lost).
    waiters: usize,
    /// Remote entries for generations this process has not reached yet.
    /// On a multi-process transport each process resolves generations
    /// locally from mirrored entries; a peer that races ahead can
    /// announce generation `g+1` before this process resolved `g`, so
    /// such entries are stashed and merged when their generation opens.
    future: BTreeMap<u64, BTreeSet<usize>>,
}

impl Progress {
    /// Fresh progress state for a world of `size` ranks.
    pub fn new(size: usize) -> Self {
        Self {
            deliveries: AtomicU64::new(0),
            blocked: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            size,
            pending: Mutex::new(vec![None; size]),
            deadlock: Mutex::new(None),
            cancelled: Mutex::new(None),
            wakers: Mutex::new(Vec::new()),
            done_sync: Mutex::new(0),
            done_cv: Condvar::new(),
            failed: Mutex::new(BTreeMap::new()),
            epoch: AtomicU64::new(0),
            done_ranks: Mutex::new(BTreeSet::new()),
            agree: Mutex::new(AgreeState::default()),
            agree_cv: Condvar::new(),
            notifier: Mutex::new(None),
        }
    }

    /// Install the cross-process mirror hook. Must happen before any rank
    /// runs (events fired earlier are not replayed).
    pub(crate) fn set_notifier(&self, notifier: std::sync::Arc<dyn ProgressNotifier>) {
        *self.notifier.lock().unwrap_or_else(PoisonError::into_inner) = Some(notifier);
    }

    fn notifier(&self) -> Option<std::sync::Arc<dyn ProgressNotifier>> {
        self.notifier
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Record envelope movement (enqueue or match).
    pub fn bump(&self) {
        self.deliveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Is the world poisoned?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Register a channel to be woken when the world is poisoned.
    pub fn register_waker(&self, waker: Weak<dyn Wake>) {
        self.wakers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(waker);
    }

    /// Poison the world with the watchdog's explanation and wake every
    /// blocked primitive immediately.
    pub fn poison(&self, info: DeadlockInfo) {
        if let Ok(mut slot) = self.deadlock.lock() {
            *slot = Some(info);
        }
        self.poisoned.store(true, Ordering::SeqCst);
        let wakers =
            std::mem::take(&mut *self.wakers.lock().unwrap_or_else(PoisonError::into_inner));
        for waker in &wakers {
            if let Some(w) = waker.upgrade() {
                w.wake_all();
            }
        }
        self.notify_agree();
        self.notify_done();
    }

    /// Cancel the world from outside (a deadline kill or a scheduler
    /// preemption): store `reason`, then poison exactly like the
    /// watchdog does, waking every blocked primitive immediately. Blocked
    /// primitives observe the stored reason and report
    /// [`Error::Cancelled`] instead of a deadlock. A world that is
    /// already poisoned (deadlocked, or cancelled earlier) keeps its
    /// first diagnosis — cancel is then a no-op.
    pub fn cancel(&self, reason: &str) {
        if self.is_poisoned() {
            return;
        }
        {
            let mut slot = self
                .cancelled
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if slot.is_none() {
                *slot = Some(reason.to_string());
            }
        }
        self.poison(DeadlockInfo::default());
    }

    /// Record that `rank` crashed at simulated time `at` (an injected
    /// fault firing). Bumps the failure epoch and wakes every blocked
    /// primitive so survivors observe the failure immediately — as a
    /// typed `RankFailed`, not a watchdog timeout.
    pub fn mark_failed(&self, rank: usize, at: f64) {
        let newly = {
            let mut failed = self.failed.lock().unwrap_or_else(PoisonError::into_inner);
            failed.insert(rank, at).is_none()
        };
        if !newly {
            return;
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // Clone (do not take — unlike poison, the world keeps running and
        // later waits must still be wakeable) and wake every channel.
        let wakers: Vec<Weak<dyn Wake>> = self
            .wakers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        for waker in &wakers {
            if let Some(w) = waker.upgrade() {
                w.wake_all();
            }
        }
        self.notify_agree();
        // Mirror to peer processes last, with no progress locks held (the
        // notifier frames onto sockets and must never nest under them).
        if let Some(n) = self.notifier() {
            n.on_failed(rank, at);
        }
    }

    /// Has `rank` finished its closure?
    pub(crate) fn is_done(&self, rank: usize) -> bool {
        self.done_ranks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(&rank)
    }

    /// Mirror of a peer process's agreement entry (the receiving side of
    /// [`ProgressNotifier::on_agree_enter`]). Entries are generation-
    /// stamped: a stale generation is ignored (its resolution already
    /// counted that rank via the failed/done sets), the current generation
    /// is entered directly, and a future generation — a peer racing ahead
    /// of this process — is stashed until [`Progress::try_resolve_agree`]
    /// opens it.
    pub(crate) fn remote_agree_enter(&self, rank: usize, generation: u64) {
        let mut st = self.agree.lock().unwrap_or_else(PoisonError::into_inner);
        match generation.cmp(&st.generation) {
            std::cmp::Ordering::Less => {}
            std::cmp::Ordering::Equal => {
                st.entered.insert(rank);
            }
            std::cmp::Ordering::Greater => {
                st.future.entry(generation).or_default().insert(rank);
            }
        }
        self.try_resolve_agree(&mut st);
        self.notify_agree_waiters(&st);
    }

    /// Count of failures observed so far. A blocked primitive whose rank
    /// acknowledged fewer failures than this must abort with `RankFailed`.
    pub fn failure_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// When did `rank` fail, if it did?
    pub fn failed_at(&self, rank: usize) -> Option<f64> {
        if self.failure_epoch() == 0 {
            return None;
        }
        self.failed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&rank)
            .copied()
    }

    /// The earliest failure (by simulated time, ties by rank), if any.
    pub fn first_failure(&self) -> Option<(usize, f64)> {
        self.failed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&r, &t)| (r, t))
            .min_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("finite failure times")
                    .then(a.0.cmp(&b.0))
            })
    }

    /// All failures so far, as `(rank, simulated time)` in rank order.
    pub fn failed_ranks(&self) -> Vec<(usize, f64)> {
        self.failed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&r, &t)| (r, t))
            .collect()
    }

    /// Stop condition for blocked waits: poisoned, the awaited peer
    /// (`target`) failed, or a failure this rank has not yet acknowledged
    /// occurred (`acked` is the rank's acknowledged epoch).
    pub fn should_stop(&self, target: Option<usize>, acked: u64) -> bool {
        if self.is_poisoned() {
            return true;
        }
        let epoch = self.failure_epoch();
        if epoch > acked {
            return true;
        }
        if epoch > 0 {
            if let Some(t) = target {
                return self
                    .failed
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .contains_key(&t);
            }
        }
        false
    }

    /// The error a wait aborted by [`Progress::should_stop`] reports:
    /// the awaited failed peer when there is one, else the earliest
    /// unacknowledged failure, else the watchdog's deadlock explanation.
    pub fn stop_error(&self, target: Option<usize>, acked: u64) -> Error {
        if let Some(t) = target {
            if let Some(at) = self.failed_at(t) {
                return Error::RankFailed { rank: t, at };
            }
        }
        if self.failure_epoch() > acked {
            if let Some((rank, at)) = self.first_failure() {
                return Error::RankFailed { rank, at };
            }
        }
        self.deadlock_error()
    }

    /// Enter collective failure agreement
    /// ([`Comm::agree`](crate::Comm::agree)'s engine): register `rank` in
    /// the current generation and return its number. The generation
    /// resolves once every world rank has entered it, failed, or finished;
    /// [`Progress::agree_poll`] then hands every participant the *same*
    /// snapshot of the failed set and the failure epoch it covers.
    pub fn agree_enter(&self, rank: usize) -> u64 {
        let my_gen = {
            let mut st = self.agree.lock().unwrap_or_else(PoisonError::into_inner);
            let my_gen = st.generation;
            st.entered.insert(rank);
            self.try_resolve_agree(&mut st);
            my_gen
        };
        // Mirror the entry with the agreement lock released: the notifier
        // frames onto sockets and must never nest under progress locks.
        if let Some(n) = self.notifier() {
            n.on_agree_enter(rank, my_gen);
        }
        my_gen
    }

    /// Non-blocking resolution check for agreement generation `my_gen`:
    /// the consistent failed-set snapshot and covered epoch once every
    /// rank is accounted for, else `None`.
    pub fn agree_poll(&self, my_gen: u64) -> Option<(Vec<(usize, f64)>, u64)> {
        let st = self.agree.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((gen, snapshot, epoch)) = &st.resolved {
            if *gen == my_gen {
                return Some((snapshot.clone(), *epoch));
            }
        }
        None
    }

    /// Block until agreement generation `gen` has resolved (`Ok`) or
    /// `stop` holds. `stop` is evaluated under the agreement lock, which
    /// every resolution and every poison notify takes too, so no wake is
    /// lost. The wait core parks thread and proc ranks here.
    pub(crate) fn agree_wait(
        &self,
        gen: u64,
        stop: impl Fn() -> bool,
    ) -> std::result::Result<(), WaitError> {
        let mut st = self.agree.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if st.resolved.as_ref().is_some_and(|r| r.0 == gen) {
                return Ok(());
            }
            if stop() {
                return Err(WaitError::Stopped);
            }
            st.waiters += 1;
            (st, _) = self
                .agree_cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            st.waiters -= 1;
        }
    }

    /// Re-check the agreement condition (a rank failed or finished) and
    /// wake agreement waiters.
    fn notify_agree(&self) {
        let mut st = self.agree.lock().unwrap_or_else(PoisonError::into_inner);
        self.try_resolve_agree(&mut st);
        self.notify_agree_waiters(&st);
    }

    /// With the agreement lock held: wake the threads parked in
    /// [`Progress::agree_wait`], if there are any.
    fn notify_agree_waiters(&self, st: &AgreeState) {
        if st.waiters > 0 {
            self.agree_cv.notify_all();
        }
    }

    /// With the agreement lock held: resolve the current generation if
    /// every rank is accounted for (entered, failed, or done). Loops:
    /// opening the next generation merges any stashed remote entries for
    /// it, which can cover *that* generation immediately — but only when
    /// this process has no local waiter of the resolved generation (a live
    /// local waiter is neither entered, failed, nor done in the next one),
    /// so a cascade never overwrites a `resolved` cell a waiter has yet to
    /// copy out.
    fn try_resolve_agree(&self, st: &mut AgreeState) {
        loop {
            if st.entered.is_empty() {
                return;
            }
            let resolved = {
                let failed = self.failed.lock().unwrap_or_else(PoisonError::into_inner);
                let done = self
                    .done_ranks
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let covered = (0..self.size).all(|r| {
                    st.entered.contains(&r) || failed.contains_key(&r) || done.contains(&r)
                });
                if !covered {
                    return;
                }
                let snapshot: Vec<(usize, f64)> = failed.iter().map(|(&r, &t)| (r, t)).collect();
                (st.generation, snapshot, self.failure_epoch())
            };
            st.resolved = Some(resolved);
            st.generation += 1;
            st.entered.clear();
            // The generation just opened may already have stashed remote
            // entries; merge them (and drop anything stale).
            if let Some(stash) = st.future.remove(&st.generation) {
                st.entered.extend(stash);
            }
            st.future.retain(|&g, _| g > st.generation);
            self.notify_agree_waiters(st);
        }
    }

    /// Record that one rank finished its closure, waking completion
    /// waiters (the watchdog and the finalize-time leak check) and
    /// agreement waiters (a finished rank participates implicitly).
    pub fn mark_done(&self, rank: usize) {
        self.done_ranks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(rank);
        self.done.fetch_add(1, Ordering::SeqCst);
        self.notify_agree();
        self.notify_done();
        // Mirror to peer processes last, with no progress locks held.
        if let Some(n) = self.notifier() {
            n.on_done(rank);
        }
    }

    /// Wake the threads parked on the completion condvar, if there are
    /// any. Waiters check their condition and count themselves under
    /// `done_sync`, so a notify skipped here is never one they needed.
    fn notify_done(&self) {
        let waiters = self
            .done_sync
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if *waiters > 0 {
            self.done_cv.notify_all();
        }
    }

    /// Have all ranks finished (or has the world been poisoned)?
    pub fn all_done(&self) -> bool {
        self.done.load(Ordering::SeqCst) == self.size
    }

    /// Block until every rank is done. Used by the finalize-time leak
    /// check so all in-flight sends have landed before mailboxes drain.
    /// (Blocked ranks are released by the watchdog's poison, so this
    /// terminates even on deadlocked runs.)
    pub fn wait_all_done(&self) {
        let mut guard = self
            .done_sync
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while !self.all_done() {
            *guard += 1;
            (guard, _) = self
                .done_cv
                .wait_timeout(guard, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            *guard -= 1;
        }
    }

    /// Sleep until `deadline`, returning early (true) as soon as the world
    /// completes or is poisoned. The watchdog paces its samples with this:
    /// spurious wakeups re-wait the remainder, so the sampling cadence is
    /// preserved while completion still wakes it immediately.
    fn wait_done_until(&self, deadline: Instant) -> bool {
        let mut guard = self
            .done_sync
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if self.all_done() || self.is_poisoned() {
                return true;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let remaining = remaining.max(Duration::from_micros(1));
            *guard += 1;
            (guard, _) = self
                .done_cv
                .wait_timeout(guard, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            *guard -= 1;
        }
    }

    /// RAII guard marking the current rank as blocked *in* `op`, so the
    /// watchdog can report the call and build the wait-for graph. `op`
    /// is plain data; nothing is formatted unless a deadlock is
    /// explained.
    pub(crate) fn enter_blocked_as(&self, op: PendingOp) -> BlockedGuard<'_> {
        let rank = op.rank;
        if let Ok(mut ops) = self.pending.lock() {
            if let Some(slot) = ops.get_mut(rank) {
                *slot = Some(op);
            }
        }
        // Register the op before the count: once `blocked` says the rank
        // is stuck, its slot is already filled.
        self.blocked.fetch_add(1, Ordering::SeqCst);
        BlockedGuard {
            progress: self,
            rank,
        }
    }

    /// Snapshot of every registered blocked operation (what each stuck
    /// rank is waiting for), rendered to text here and only here. The
    /// watchdog and the event engine's exact deadlock detection both
    /// build their [`DeadlockInfo`] from this.
    pub fn blocked_snapshot(&self) -> Vec<BlockedOp> {
        self.pending
            .lock()
            .map(|ops| ops.iter().flatten().map(PendingOp::render).collect())
            .unwrap_or_default()
    }

    /// The error blocked primitives return when the world is poisoned:
    /// [`Error::Cancelled`] when the poison came from
    /// [`Progress::cancel`], else deadlock, carrying the watchdog's
    /// explanation when one was stored.
    pub fn deadlock_error(&self) -> Error {
        if let Some(reason) = self
            .cancelled
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
        {
            return Error::Cancelled(reason);
        }
        let info = self
            .deadlock
            .lock()
            .ok()
            .and_then(|guard| guard.clone())
            .unwrap_or_default();
        Error::Deadlock(info)
    }
}

/// Guard that decrements the blocked count and clears the registered
/// operation on drop.
pub struct BlockedGuard<'a> {
    progress: &'a Progress,
    rank: usize,
}

impl Drop for BlockedGuard<'_> {
    fn drop(&mut self) {
        self.progress.blocked.fetch_sub(1, Ordering::SeqCst);
        if let Ok(mut ops) = self.progress.pending.lock() {
            if let Some(slot) = ops.get_mut(self.rank) {
                *slot = None;
            }
        }
    }
}

/// Watchdog loop body: runs until all ranks are done or deadlock is found.
///
/// Two consecutive samples, `interval` apart, in which (a) every not-done
/// rank is blocked, (b) at least one rank is blocked, and (c) no envelope
/// moved, constitute deadlock. Between samples the watchdog sleeps on the
/// completion condvar, so it exits the moment the last rank finishes; on
/// detecting deadlock it poisons the world, which wakes every blocked
/// primitive immediately.
pub fn watchdog(progress: &Progress, interval: Duration) {
    let mut prev_deliveries = u64::MAX;
    loop {
        let deadline = Instant::now() + interval;
        if progress.wait_done_until(deadline) {
            return;
        }
        let sample = WatchdogSample {
            done: progress.done.load(Ordering::SeqCst),
            blocked: progress.blocked.load(Ordering::SeqCst),
            deliveries: progress.deliveries.load(Ordering::SeqCst),
        };
        if stalled(progress.size, prev_deliveries, sample) {
            // Explain before poisoning: snapshot what every blocked rank
            // was waiting for and look for a wait-for cycle, so the error
            // the ranks observe names the calls instead of just timing
            // out.
            let blocked_ops = progress.blocked_snapshot();
            let info = DeadlockInfo {
                cycle: DeadlockInfo::find_cycle(&blocked_ops),
                blocked: blocked_ops,
            };
            progress.poison(info);
            return;
        }
        prev_deliveries = sample.deliveries;
    }
}

/// What the watchdog reads from [`Progress`] at one sample.
#[derive(Debug, Clone, Copy)]
struct WatchdogSample {
    done: usize,
    blocked: usize,
    deliveries: u64,
}

/// The watchdog's stall decision for a world of `size` ranks: every
/// not-done rank is blocked, at least one is, and no envelope moved since
/// the previous sample (`prev_deliveries`; `u64::MAX` before the first).
fn stalled(size: usize, prev_deliveries: u64, sample: WatchdogSample) -> bool {
    sample.blocked > 0
        && sample.blocked + sample.done == size
        && sample.deliveries == prev_deliveries
}

/// Live depth above which a mailbox also keeps an [`Index`]. At or below
/// it a scan of the store is as cheap as a lookup, so the event engine's
/// 10^5 shallow mailboxes carry no index, while the deep queues of a
/// 1024-rank all-to-all match without scanning.
const INDEX_DEPTH: usize = 32;

// A tombstone costs nothing: `Option<Envelope>` uses the envelope's niche,
// which also lets an arrival batch's buffer become the store in place.
const _: () = assert!(std::mem::size_of::<Option<Envelope>>() == std::mem::size_of::<Envelope>());
// Deep mailboxes hold about 10^6 envelopes in a 1024-rank Module 3 run.
const _: () = assert!(std::mem::size_of::<Envelope>() <= 96);

/// One rank's receive side. It holds no inbox of its own: the rank's
/// communicator admits arrivals ([`Mailbox::admit`], [`Mailbox::pull`])
/// before every match, and a blocked rank parks on the inbox itself.
#[derive(Debug, Default)]
pub struct Mailbox {
    /// Envelopes that arrived but have not matched a receive yet, in
    /// arrival order; `store[i]` has arrival number `base + i`. A matched
    /// envelope leaves a `None` tombstone, so matching never shifts the
    /// queue; leading and trailing tombstones are popped, and the store is
    /// compacted once tombstones outnumber live envelopes.
    store: VecDeque<Option<Envelope>>,
    base: u64,
    /// Live (`Some`) slots in `store`.
    live: usize,
    /// Side index, present while the mailbox has been deeper than
    /// [`INDEX_DEPTH`] since it last drained.
    index: Option<Box<Index>>,
    /// Matching candidates at the most recent successful `try_match` —
    /// more than one under a wildcard spec means the match was
    /// order-dependent (a message-race candidate).
    last_candidates: usize,
    /// Opt-in delivery modes; `None` (the default) costs one pointer.
    modes: Option<Box<Modes>>,
}

/// Delivery modes a world opts into at startup, boxed so the mailboxes
/// of a default world stay small.
#[derive(Debug, Default)]
struct Modes {
    /// xorshift64* state for perturbed wildcard delivery; `None` keeps the
    /// default (sim-earliest) rule.
    perturb: Option<u64>,
    /// `(src, seq)` pairs already admitted, when the fault plan may
    /// duplicate messages. A duplicated envelope reuses its original's
    /// sequence number, so the second copy is filtered here; channels are
    /// FIFO per sender, so the genuine copy always lands first. An
    /// acknowledgement carries the acknowledged envelope's sequence
    /// number, not its sender's, so acknowledgements bypass the filter.
    dedup: Option<HashSet<(usize, u64)>>,
}

/// Wildcard order key: `(send_time, src, seq)`, then arrival, so the
/// minimum is the envelope the unindexed scan would pick first.
type WildKey = (u64, usize, u64, u64);

fn wild_key(pos: u64, env: &Envelope) -> WildKey {
    // Order-preserving map of a finite f64 onto u64 (-0.0 folds onto 0.0,
    // which `partial_cmp` treats as equal).
    debug_assert!(env.send_time.is_finite(), "finite send times");
    let bits = (env.send_time + 0.0).to_bits();
    let t = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    (t, env.src, env.seq, pos)
}

/// End of a per-source chain, and "no predecessor" for its head.
const NIL: u64 = u64::MAX;

/// Multiplicative (Fx-style) hash for the index's small integer keys:
/// ranks and tags need no flood resistance, and SipHash would cost more
/// than the rest of a match.
#[derive(Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Side index of a deep mailbox, keyed by arrival number. Nothing in it
/// is allocated per envelope: its buffers grow with the deepest queue.
#[derive(Debug, Default)]
struct Index {
    /// `next[i]`: arrival number of the next live envelope from the same
    /// source as store slot `i`, or [`NIL`]. Kept parallel to the store.
    next: VecDeque<u64>,
    /// `src → (oldest, newest)` live arrival: one arrival-ordered chain
    /// per source, for exact-source user and internal matches.
    chains: IntMap<usize, (u64, u64)>,
    /// One wildcard-order heap per user tag.
    tags: IntMap<u32, TagHeap>,
    /// Live user envelopes over all tags.
    user_live: usize,
}

/// The wildcard order of one tag's live envelopes, as a min-heap with
/// lazy deletion: a matched envelope leaves its key behind, and queries
/// pop such stale tops. The heap is pruned once stale keys outnumber live
/// ones, so it never holds more than twice its live count.
#[derive(Debug, Default)]
struct TagHeap {
    heap: BinaryHeap<Reverse<WildKey>>,
    /// Live envelopes with this tag.
    live: usize,
}

/// Is `key` (from `tag`'s heap) still a live envelope of the store whose
/// first slot has arrival number `base`? Trailing arrival numbers are
/// reused, so the slot's envelope is compared, not just its presence.
fn is_live(store: &VecDeque<Option<Envelope>>, base: u64, tag: u32, key: &WildKey) -> bool {
    key.3
        .checked_sub(base)
        .and_then(|i| store.get(i as usize))
        .and_then(Option::as_ref)
        .is_some_and(|env| env.class == MsgClass::User(tag) && wild_key(key.3, env) == *key)
}

impl TagHeap {
    /// The wildcard-order minimum of this tag's live envelopes, popping
    /// stale keys off the top on the way.
    fn top(&mut self, store: &VecDeque<Option<Envelope>>, base: u64, tag: u32) -> Option<WildKey> {
        while let Some(Reverse(key)) = self.heap.peek() {
            if is_live(store, base, tag, key) {
                return Some(*key);
            }
            self.heap.pop();
        }
        None
    }

    /// Drop every stale key (and a key pushed twice for one envelope, when
    /// a reused arrival number met an identical envelope).
    fn prune(&mut self, store: &VecDeque<Option<Envelope>>, base: u64, tag: u32) {
        let mut keys = std::mem::take(&mut self.heap).into_vec();
        keys.retain(|Reverse(key)| is_live(store, base, tag, key));
        keys.sort_unstable();
        keys.dedup();
        self.heap = keys.into();
    }
}

impl Index {
    /// (Re)index every live envelope of `store`, whose first slot has
    /// arrival number `base`, keeping the buffers already allocated.
    fn rebuild(&mut self, store: &VecDeque<Option<Envelope>>, base: u64) {
        self.next.clear();
        self.chains.clear();
        for tag in self.tags.values_mut() {
            tag.heap.clear();
            tag.live = 0;
        }
        self.user_live = 0;
        for (i, slot) in store.iter().enumerate() {
            self.push(base, base + i as u64, slot.as_ref());
        }
        self.tags.retain(|_, tag| tag.live > 0);
    }

    /// Append store slot `pos`, holding `env` or a tombstone.
    fn push(&mut self, base: u64, pos: u64, env: Option<&Envelope>) {
        self.next.push_back(NIL);
        let Some(env) = env else {
            return;
        };
        match self.chains.entry(env.src) {
            Entry::Occupied(mut chain) => {
                let newest = &mut chain.get_mut().1;
                self.next[(*newest - base) as usize] = pos;
                *newest = pos;
            }
            Entry::Vacant(chain) => {
                chain.insert((pos, pos));
            }
        }
        if let MsgClass::User(tag) = env.class {
            let tag = self.tags.entry(tag).or_default();
            tag.heap.push(Reverse(wild_key(pos, env)));
            tag.live += 1;
            self.user_live += 1;
        }
    }

    /// The oldest envelope from `src` that `spec` matches, with its chain
    /// predecessor ([`NIL`] at the head).
    fn find_exact(
        &self,
        store: &VecDeque<Option<Envelope>>,
        base: u64,
        src: usize,
        spec: &MatchSpec,
    ) -> Option<Hit> {
        let (mut pos, _) = *self.chains.get(&src)?;
        let mut prev = NIL;
        while pos != NIL {
            let i = (pos - base) as usize;
            let env = store[i].as_ref().expect("chained slot is live");
            if spec.matches(env) {
                return Some(Hit {
                    pos,
                    prev: Some(prev),
                });
            }
            prev = pos;
            pos = self.next[i];
        }
        None
    }

    /// The wildcard-order minimum among live user envelopes with `tag`.
    fn find_wild(
        &mut self,
        store: &VecDeque<Option<Envelope>>,
        base: u64,
        tag: TagSel,
    ) -> Option<u64> {
        let key = match tag {
            TagSel::Tag(t) => self.tags.get_mut(&t)?.top(store, base, t),
            TagSel::Any => self
                .tags
                .iter_mut()
                .filter_map(|(&t, heap)| heap.top(store, base, t))
                .min(),
        };
        key.map(|key| key.3)
    }

    /// Unindex `env`, just taken out of store slot `hit.pos`.
    fn remove(&mut self, store: &VecDeque<Option<Envelope>>, base: u64, hit: Hit, env: &Envelope) {
        let at = |pos: u64| (pos - base) as usize;
        let chain = self
            .chains
            .get_mut(&env.src)
            .expect("live source has a chain");
        // A wildcard or perturbed match did not walk the chain: find the
        // predecessor (none, in the usual case of the chain's head).
        let prev = hit.prev.unwrap_or_else(|| {
            let (mut prev, mut pos) = (NIL, chain.0);
            while pos != hit.pos {
                prev = pos;
                pos = self.next[at(pos)];
            }
            prev
        });
        let next = self.next[at(hit.pos)];
        if prev != NIL {
            self.next[at(prev)] = next;
            if chain.1 == hit.pos {
                chain.1 = prev;
            }
        } else if next != NIL {
            chain.0 = next;
        } else {
            self.chains.remove(&env.src);
        }
        if let MsgClass::User(t) = env.class {
            self.user_live -= 1;
            let tag = self.tags.get_mut(&t).expect("live tag has a heap");
            tag.live -= 1;
            if tag.live == 0 {
                self.tags.remove(&t);
            } else if tag.heap.len() > 2 * tag.live {
                tag.prune(store, base, t);
            }
        }
    }
}

/// Where a match was found: the envelope's arrival number and, when an
/// indexed lookup walked its source chain, the chain predecessor.
#[derive(Debug, Clone, Copy)]
struct Hit {
    pos: u64,
    prev: Option<u64>,
}

impl Hit {
    fn at(pos: u64) -> Self {
        Hit { pos, prev: None }
    }
}

/// Is `spec` a user wildcard-source receive?
fn is_wildcard(spec: &MatchSpec) -> bool {
    matches!(spec, MatchSpec::User(SourceSel::Any, _))
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    fn modes(&mut self) -> &mut Modes {
        self.modes.get_or_insert_with(Box::default)
    }

    fn perturbed(&self) -> bool {
        self.modes.as_ref().is_some_and(|m| m.perturb.is_some())
    }

    /// Filter out duplicate deliveries (same sender, same sequence
    /// number). Enabled by worlds whose fault plan can duplicate
    /// messages; off by default so fault-free runs pay nothing.
    pub fn enable_dedup(&mut self) {
        self.modes().dedup = Some(HashSet::new());
    }

    /// Admit arrived envelopes into the store, minus duplicate copies the
    /// dedup filter has already seen. Into an empty store the batch's
    /// buffer is handed over in place, so a deep queue is never held
    /// twice (once in the inbox, once here).
    pub(crate) fn admit(&mut self, mut batch: Vec<Envelope>) {
        if let Some(seen) = self.modes.as_mut().and_then(|m| m.dedup.as_mut()) {
            batch.retain(|env| env.class == MsgClass::Ack || seen.insert((env.src, env.seq)));
        }
        if self.store.is_empty() {
            self.live = batch.len();
            self.store = batch.into_iter().map(Some).collect::<Vec<_>>().into();
        } else {
            for env in batch {
                let pos = self.base + self.store.len() as u64;
                if let Some(index) = &mut self.index {
                    index.push(self.base, pos, Some(&env));
                }
                self.store.push_back(Some(env));
                self.live += 1;
            }
        }
        if self.index.is_none() && self.live > INDEX_DEPTH {
            let mut index = Box::<Index>::default();
            index.rebuild(&self.store, self.base);
            self.index = Some(index);
        }
    }

    /// Live envelopes with their arrival numbers, in arrival order.
    fn live_slots(&self) -> impl Iterator<Item = (u64, &Envelope)> + '_ {
        let base = self.base;
        self.store
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| slot.as_ref().map(|env| (base + i as u64, env)))
    }

    fn slot(&self, pos: u64) -> &Envelope {
        self.store[(pos - self.base) as usize]
            .as_ref()
            .expect("matched slot is live")
    }

    /// Consume the envelope `hit` found. A drained mailbox releases its
    /// store buffer and index.
    fn take(&mut self, hit: Hit) -> Envelope {
        let env = self.store[(hit.pos - self.base) as usize]
            .take()
            .expect("matched slot is live");
        self.live -= 1;
        if self.live == 0 {
            self.store = VecDeque::new();
            self.index = None;
            return env;
        }
        if let Some(index) = &mut self.index {
            index.remove(&self.store, self.base, hit, &env);
        }
        while let Some(None) = self.store.front() {
            self.store.pop_front();
            self.base += 1;
            if let Some(index) = &mut self.index {
                index.next.pop_front();
            }
        }
        // Trailing arrival numbers are reused: the chains no longer reach
        // them, and the wildcard heaps check every key against its slot.
        while let Some(None) = self.store.back() {
            self.store.pop_back();
            if let Some(index) = &mut self.index {
                index.next.pop_back();
            }
        }
        // Amortised O(1): at least half the compacted slots are
        // tombstones, each left by one match.
        if self.store.len() > 2 * self.live + INDEX_DEPTH {
            self.store.retain(Option::is_some);
            // Arrival numbers changed.
            if let Some(index) = &mut self.index {
                index.rebuild(&self.store, self.base);
            }
        }
        env
    }

    /// Enable perturbed wildcard delivery ([`CheckMode::Perturb`]
    /// (crate::check::CheckMode::Perturb)): ties are broken
    /// pseudo-randomly instead of by simulated send time.
    pub fn set_perturb(&mut self, seed: u64) {
        // xorshift needs a nonzero state.
        self.modes().perturb = Some(seed | 1);
        // Warm the generator up: small neighbouring seeds otherwise share
        // their first few draws (the state diffuses slowly from low bits).
        for _ in 0..4 {
            self.next_perturb();
        }
    }

    /// Matching candidates in flight at the last successful match.
    pub fn last_candidates(&self) -> usize {
        self.last_candidates
    }

    fn next_perturb(&mut self) -> u64 {
        let state = self
            .modes
            .as_mut()
            .and_then(|m| m.perturb.as_mut())
            .expect("perturbation enabled");
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        state.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Drain the pending queue, in arrival order: the messages this rank
    /// never received. Called at finalize time by the leak check, after
    /// the communicator admitted whatever was still in the inbox.
    pub fn drain_all(&mut self) -> Vec<Envelope> {
        self.live = 0;
        self.index = None;
        std::mem::take(&mut self.store)
            .into_iter()
            .flatten()
            .collect()
    }

    /// The pending envelopes, in arrival order.
    pub(crate) fn pending(&self) -> impl Iterator<Item = &Envelope> + '_ {
        self.store.iter().flatten()
    }

    /// Move everything currently sitting in a channel inbox into the
    /// store (non-blocking, one lock).
    pub(crate) fn pull(&mut self, inbox: &Receiver<Envelope>) {
        let batch = inbox.take_all();
        if !batch.is_empty() {
            self.admit(batch.into());
        }
    }

    /// The envelope a match of `spec` takes: earliest arrival for exact
    /// sources, the deterministic `(send_time, src, seq)` minimum for
    /// wildcards — the same envelope an unperturbed
    /// [`Mailbox::try_match`] consumes and a peek reports, so
    /// probe-then-recv patterns observe one consistent choice on every
    /// backend.
    fn find(&mut self, spec: &MatchSpec) -> Option<Hit> {
        let Some(index) = &mut self.index else {
            let mut hits = self.live_slots().filter(|(_, env)| spec.matches(env));
            return if is_wildcard(spec) {
                hits.min_by_key(|&(pos, env)| wild_key(pos, env))
            } else {
                hits.next()
            }
            .map(|(pos, _)| Hit::at(pos));
        };
        match (spec, spec.source_rank()) {
            (MatchSpec::User(_, tag), None) => {
                index.find_wild(&self.store, self.base, *tag).map(Hit::at)
            }
            (_, Some(src)) => index.find_exact(&self.store, self.base, src, spec),
            (_, None) => unreachable!("internal receives and ack waits name their source"),
        }
    }

    /// Number of pending envelopes a wildcard `spec` could match.
    fn wildcard_candidates(&self, spec: &MatchSpec) -> usize {
        match (self.index.as_deref(), spec) {
            (Some(index), MatchSpec::User(_, TagSel::Any)) => index.user_live,
            (Some(index), MatchSpec::User(_, TagSel::Tag(t))) => {
                index.tags.get(t).map_or(0, |tag| tag.live)
            }
            _ => self
                .live_slots()
                .filter(|(_, env)| spec.matches(env))
                .count(),
        }
    }

    /// Non-blocking match attempt.
    ///
    /// Exact-source receives match the earliest *arrival* (channels are
    /// FIFO, so per-(src,tag) send order is preserved, as MPI requires).
    /// `ANY_SOURCE` receives match the pending envelope with the smallest
    /// *simulated send time*: MPI leaves wildcard choice unspecified, and
    /// picking the sim-earliest message keeps the simulated clock causal
    /// for master/worker patterns instead of letting wall-clock thread
    /// interleaving ratchet the receiver's clock forward. Equal send
    /// times are broken by `(src, seq)` — a pure function of the program
    /// rather than of arrival order, so every backend (thread, event,
    /// proc) resolves the tie identically.
    pub fn try_match(&mut self, spec: &MatchSpec) -> Option<Envelope> {
        let hit = if is_wildcard(spec) {
            let candidates = self.wildcard_candidates(spec);
            if candidates == 0 {
                return None;
            }
            self.last_candidates = candidates;
            if self.perturbed() && candidates > 1 {
                // Perturbed delivery: any candidate is a legal match under
                // MPI's wildcard rules; picking one pseudo-randomly
                // exposes order-dependent programs. The high half of the
                // xorshift* output is used — its low bits are weak. The
                // pick indexes the candidates in arrival order (a scan;
                // perturbation is a checking mode).
                let pick = (self.next_perturb() >> 33) as usize % candidates;
                let (pos, _) = self
                    .live_slots()
                    .filter(|(_, env)| spec.matches(env))
                    .nth(pick)
                    .expect("candidate count is exact");
                Hit::at(pos)
            } else {
                self.find(spec).expect("nonempty candidate set")
            }
        } else {
            let hit = self.find(spec)?;
            self.last_candidates = 1;
            hit
        };
        Some(self.take(hit))
    }

    /// Non-blocking peek: the status of the earliest satisfying user
    /// envelope, if one is already here (the analogue of `MPI_Iprobe`).
    /// Takes `&mut self` because an indexed lookup prunes stale wildcard
    /// keys on the way.
    pub fn peek_matching(&mut self, spec: &MatchSpec) -> Option<Status> {
        self.find(spec).map(|hit| Status::of(self.slot(hit.pos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan::channel;
    use crate::check::CallSite;
    use crate::datatype::encode_slice;
    use crate::envelope::{MsgClass, SourceSel, TagSel};
    use crate::step::block_on;
    use crate::wait::{TestWorld, Waiter};

    fn env(src: usize, tag: u32, val: i32) -> Envelope {
        Envelope {
            src,
            class: MsgClass::User(tag),
            type_name: "i32",
            type_size: 4,
            payload: encode_slice(&[val]),
            send_time: 0.0,
            seq: 0,
            rendezvous: false,
        }
    }

    #[test]
    fn messages_match_in_arrival_order() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new();
        tx.send(env(0, 1, 10)).expect("open channel");
        tx.send(env(0, 1, 20)).expect("open channel");
        mb.pull(&rx);
        let spec = MatchSpec::User(SourceSel::Rank(0), TagSel::Tag(1));
        let first = mb.try_match(&spec).expect("message pending");
        assert_eq!(crate::datatype::decode_vec::<i32>(&first.payload), vec![10]);
        let second = mb.try_match(&spec).expect("message pending");
        assert_eq!(
            crate::datatype::decode_vec::<i32>(&second.payload),
            vec![20]
        );
        assert!(mb.try_match(&spec).is_none());
    }

    #[test]
    fn non_matching_messages_stay_queued() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new();
        tx.send(env(0, 5, 1)).expect("open channel");
        tx.send(env(1, 7, 2)).expect("open channel");
        mb.pull(&rx);
        let spec = MatchSpec::User(SourceSel::Rank(1), TagSel::Any);
        let got = mb.try_match(&spec).expect("src-1 message");
        assert_eq!(got.src, 1);
        // The src-0 message is still there for later.
        let spec0 = MatchSpec::User(SourceSel::Any, TagSel::Tag(5));
        assert!(mb.try_match(&spec0).is_some());
    }

    #[test]
    fn wildcard_breaks_send_time_ties_by_src_then_seq() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new();
        // Equal send times: the pick must not depend on arrival order
        // (src 2 arrives first) — the (src, seq) tie-break chooses src 1
        // on every backend.
        tx.send(env(2, 9, 1)).expect("open channel");
        tx.send(env(1, 9, 2)).expect("open channel");
        mb.pull(&rx);
        let spec = MatchSpec::User(SourceSel::Any, TagSel::Any);
        assert_eq!(mb.try_match(&spec).expect("pending").src, 1);
        assert_eq!(mb.try_match(&spec).expect("pending").src, 2);
    }

    #[test]
    fn wildcard_prefers_sim_earliest_send_over_arrival_order() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new();
        let mut late = env(1, 9, 1);
        late.send_time = 5.0;
        tx.send(late).expect("open channel");
        tx.send(env(2, 9, 2)).expect("open channel");
        mb.pull(&rx);
        let spec = MatchSpec::User(SourceSel::Any, TagSel::Any);
        // send_time dominates the (src, seq) tie-break.
        assert_eq!(mb.try_match(&spec).expect("pending").src, 2);
    }

    #[test]
    fn watchdog_poisons_a_stuck_world() {
        let progress = Progress::new(2);
        // Both ranks report blocked; nothing moves.
        progress.blocked.store(2, Ordering::SeqCst);
        watchdog(&progress, Duration::from_millis(5));
        assert!(progress.is_poisoned());
    }

    #[test]
    fn watchdog_explains_registered_blocked_ops() {
        use crate::check::{CallSite, PendingOn};
        let progress = Progress::new(2);
        // Two ranks blocked on each other: a 2-cycle the watchdog should
        // name in its explanation.
        let guards: Vec<_> = (0..2)
            .map(|rank| {
                progress.enter_blocked_as(PendingOp {
                    rank,
                    op: "ssend",
                    site: CallSite {
                        file: "pair.rs",
                        line: 10 + rank as u32,
                    },
                    on: PendingOn::Send {
                        dest: 1 - rank,
                        tag: rank as u32,
                    },
                })
            })
            .collect();
        watchdog(&progress, Duration::from_millis(5));
        assert!(progress.is_poisoned());
        drop(guards);
        match progress.deadlock_error() {
            Error::Deadlock(info) => {
                assert_eq!(info.blocked.len(), 2);
                assert_eq!(info.cycle.len(), 2);
                let s = info.render();
                assert!(s.contains("pair.rs:10"), "{s}");
                assert!(s.contains("pair.rs:11"), "{s}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn wildcard_match_counts_candidates() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new();
        tx.send(env(1, 9, 1)).expect("open channel");
        tx.send(env(2, 9, 2)).expect("open channel");
        tx.send(env(3, 9, 3)).expect("open channel");
        mb.pull(&rx);
        let spec = MatchSpec::User(SourceSel::Any, TagSel::Any);
        mb.try_match(&spec).expect("pending");
        assert_eq!(mb.last_candidates(), 3);
        mb.try_match(&spec).expect("pending");
        assert_eq!(mb.last_candidates(), 2);
    }

    #[test]
    fn perturbed_delivery_is_deterministic_per_seed_and_legal() {
        let run = |seed: u64| -> Vec<usize> {
            let (tx, rx) = channel();
            let mut mb = Mailbox::new();
            mb.set_perturb(seed);
            for src in 0..4 {
                tx.send(env(src, 9, src as i32)).expect("open channel");
            }
            mb.pull(&rx);
            let spec = MatchSpec::User(SourceSel::Any, TagSel::Any);
            (0..4)
                .map(|_| mb.try_match(&spec).expect("pending").src)
                .collect()
        };
        let a = run(12345);
        let b = run(12345);
        assert_eq!(a, b, "same seed, same delivery order");
        // Every message is still delivered exactly once.
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn dedup_filters_second_copy_of_same_sequence_number() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new();
        mb.enable_dedup();
        let mut first = env(0, 1, 10);
        first.seq = 7;
        let mut dup = env(0, 1, 10);
        dup.seq = 7;
        let mut other = env(0, 1, 20);
        other.seq = 8;
        tx.send(first).expect("open channel");
        tx.send(dup).expect("open channel");
        tx.send(other).expect("open channel");
        // Rank 0's answer to this rank's envelope 7 reuses that number.
        tx.send(Envelope::ack(0, 7, Some(0.5)))
            .expect("open channel");
        mb.pull(&rx);
        let spec = MatchSpec::User(SourceSel::Rank(0), TagSel::Tag(1));
        assert!(mb.try_match(&spec).is_some());
        let second = mb.try_match(&spec).expect("distinct message");
        assert_eq!(second.seq, 8, "duplicate filtered, distinct seq kept");
        assert!(mb.try_match(&spec).is_none());
        let ack = mb
            .try_match(&MatchSpec::Ack(0, 7))
            .expect("acks bypass dedup");
        assert_eq!(ack.matched_at(), Some(0.5));
    }

    /// One blocking agreement, through the wait core.
    fn agree(comm: &mut crate::Comm<'_>) -> crate::Result<(Vec<(usize, f64)>, u64)> {
        block_on(Waiter::Blocking.agree(comm, CallSite::here()))
    }

    #[test]
    fn agree_resolves_over_entered_failed_and_done_ranks() {
        let w = TestWorld::new(4);
        w.progress().mark_failed(3, 0.75);
        w.progress().mark_done(2);
        std::thread::scope(|s| {
            let other = s.spawn(|| agree(&mut w.comm(1)).expect("resolves"));
            let (snapshot, epoch) = agree(&mut w.comm(0)).expect("resolves");
            assert_eq!(snapshot, vec![(3, 0.75)]);
            assert_eq!(epoch, 1);
            let theirs = other.join().expect("agree thread");
            assert_eq!(theirs, (snapshot, epoch), "same snapshot on every rank");
        });
    }

    #[test]
    fn agree_generations_stay_consistent_across_rounds() {
        let w = TestWorld::new(2);
        std::thread::scope(|s| {
            let other = s.spawn(|| {
                let mut comm = w.comm(1);
                (0..3)
                    .map(|_| agree(&mut comm).expect("resolves"))
                    .collect::<Vec<_>>()
            });
            let mut comm = w.comm(0);
            let mine: Vec<_> = (0..3)
                .map(|_| agree(&mut comm).expect("resolves"))
                .collect();
            assert_eq!(mine, other.join().expect("agree thread"), "every round");
            w.progress().mark_failed(1, 2.0);
            let (snapshot, epoch) = agree(&mut comm).expect("survivor resolves alone");
            assert_eq!(snapshot, vec![(1, 2.0)]);
            assert_eq!(epoch, 1);
        });
    }

    #[test]
    fn poison_unblocks_agree_waiters() {
        let w = TestWorld::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                w.progress().poison(DeadlockInfo::default());
            });
            // Rank 1 never enters: without the poison this would hang.
            assert!(matches!(
                agree(&mut w.comm(0)).expect_err("poisoned"),
                Error::Deadlock(_)
            ));
        });
    }

    /// Trials per wake-latency test.
    const WAKE_REPS: usize = 15;

    /// Median time from the trigger to the parked waiter's return, over
    /// [`WAKE_REPS`] trials. `trial` returns `(triggered, woke)`.
    fn median_wake(trial: impl Fn() -> (Instant, Instant)) -> Duration {
        let mut wakes: Vec<Duration> = (0..WAKE_REPS)
            .map(|_| {
                let (triggered, woke) = trial();
                woke.saturating_duration_since(triggered)
            })
            .collect();
        wakes.sort();
        wakes[WAKE_REPS / 2]
    }

    /// A wake that needs the 50 ms backstop tick fails this bound.
    const PROMPT: Duration = Duration::from_millis(10);

    #[test]
    fn last_mark_done_wakes_a_parked_wait_all_done() {
        use std::sync::Arc;
        let wake = median_wake(|| {
            let progress = Arc::new(Progress::new(2));
            progress.mark_done(0);
            let p = Arc::clone(&progress);
            let finisher = std::thread::spawn(move || {
                // Trigger only once the waiter is parked on the condvar.
                while *p.done_sync.lock().unwrap_or_else(PoisonError::into_inner) == 0 {
                    std::thread::yield_now();
                }
                let triggered = Instant::now();
                p.mark_done(1);
                triggered
            });
            progress.wait_all_done();
            let woke = Instant::now();
            (finisher.join().expect("finisher thread"), woke)
        });
        assert!(wake < PROMPT, "median wake {wake:?}");
    }

    #[test]
    fn last_agree_entry_wakes_a_parked_agree() {
        let wake = median_wake(|| {
            let w = TestWorld::new(2);
            std::thread::scope(|s| {
                let last = s.spawn(|| {
                    let mut comm = w.comm(1);
                    let waiters = || w.progress().agree.lock().map_or(0, |st| st.waiters);
                    while waiters() == 0 {
                        std::thread::yield_now();
                    }
                    let triggered = Instant::now();
                    agree(&mut comm).expect("the last entry resolves the agreement");
                    triggered
                });
                agree(&mut w.comm(0)).expect("agreement resolves");
                let woke = Instant::now();
                (last.join().expect("last entrant thread"), woke)
            })
        });
        assert!(wake < PROMPT, "median wake {wake:?}");
    }

    #[test]
    fn failed_rank_does_not_hold_up_watchdog_exit() {
        // A failed rank exits its closure and is marked done like any
        // other; the watchdog must treat the world as complete, not
        // deadlocked.
        let progress = Progress::new(2);
        progress.mark_failed(1, 0.5);
        progress.mark_done(1);
        progress.mark_done(0);
        watchdog(&progress, Duration::from_millis(5));
        assert!(!progress.is_poisoned());
    }

    #[test]
    fn watchdog_exits_when_world_completes() {
        let progress = Progress::new(2);
        progress.done.store(2, Ordering::SeqCst);
        watchdog(&progress, Duration::from_millis(5));
        assert!(!progress.is_poisoned());
    }

    #[test]
    fn watchdog_spares_a_progressing_world() {
        // One rank blocked, but an envelope moves between every pair of
        // samples: never a stall, however the samples fall in time.
        let mut prev = u64::MAX;
        for deliveries in 0..40 {
            let sample = WatchdogSample {
                done: 0,
                blocked: 1,
                deliveries,
            };
            assert!(!stalled(1, prev, sample), "sample {deliveries}");
            prev = deliveries;
        }
        // The same world once its envelopes stop moving is a stall...
        let stuck = WatchdogSample {
            done: 0,
            blocked: 1,
            deliveries: prev,
        };
        assert!(stalled(1, prev, stuck));
        // ...but only when every rank that is not done is blocked.
        assert!(!stalled(2, prev, stuck));
        let finished = WatchdogSample {
            done: 1,
            blocked: 0,
            ..stuck
        };
        assert!(!stalled(1, prev, finished));
    }

    /// Today's linear matcher, kept as the reference the indexed mailbox
    /// is checked against: one arrival-ordered queue, scanned and shifted
    /// on every match.
    struct LinearMailbox {
        pending: VecDeque<Envelope>,
        perturb: Option<u64>,
        last_candidates: usize,
        dedup: Option<HashSet<(usize, u64)>>,
    }

    impl LinearMailbox {
        fn admit(&mut self, env: Envelope) {
            if let Some(seen) = &mut self.dedup {
                if env.class != MsgClass::Ack && !seen.insert((env.src, env.seq)) {
                    return;
                }
            }
            self.pending.push_back(env);
        }

        fn next_perturb(&mut self) -> u64 {
            let state = self.perturb.as_mut().expect("perturbation enabled");
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            state.wrapping_mul(0x2545F4914F6CDD1D)
        }

        fn peek_idx(&self, spec: &MatchSpec) -> Option<usize> {
            if is_wildcard(spec) {
                self.pending
                    .iter()
                    .enumerate()
                    .filter(|(_, env)| spec.matches(env))
                    .min_by(|(_, a), (_, b)| {
                        a.send_time
                            .partial_cmp(&b.send_time)
                            .expect("finite send times")
                            .then(a.src.cmp(&b.src))
                            .then(a.seq.cmp(&b.seq))
                    })
                    .map(|(i, _)| i)
            } else {
                self.pending.iter().position(|env| spec.matches(env))
            }
        }

        fn try_match(&mut self, spec: &MatchSpec) -> Option<Envelope> {
            let idx = if is_wildcard(spec) {
                let candidates: Vec<usize> = self
                    .pending
                    .iter()
                    .enumerate()
                    .filter(|(_, env)| spec.matches(env))
                    .map(|(i, _)| i)
                    .collect();
                if candidates.is_empty() {
                    return None;
                }
                self.last_candidates = candidates.len();
                if self.perturb.is_some() && candidates.len() > 1 {
                    let pick = (self.next_perturb() >> 33) as usize % candidates.len();
                    candidates[pick]
                } else {
                    self.peek_idx(spec).expect("nonempty candidate set")
                }
            } else {
                let idx = self.pending.iter().position(|env| spec.matches(env))?;
                self.last_candidates = 1;
                idx
            };
            self.pending.remove(idx)
        }
    }

    /// What the differential test sends: `(src, class, send_time, seq)`.
    type Desc = (usize, MsgClass, f64, u64);

    fn make(d: Desc) -> Envelope {
        let (src, class, send_time, seq) = d;
        Envelope {
            src,
            class,
            type_name: "u64",
            type_size: 8,
            payload: encode_slice(&[seq]),
            send_time,
            seq,
            rendezvous: false,
        }
    }

    fn key(env: &Envelope) -> (usize, u64) {
        (env.src, env.seq)
    }

    fn random_spec(rng: &mut rand::rngs::StdRng, pending: &VecDeque<Envelope>) -> MatchSpec {
        use rand::Rng;
        // Half the specs are aimed at a pending envelope so deep queues
        // drain; the rest are arbitrary (and often miss).
        let aimed = (!pending.is_empty() && rng.gen::<bool>())
            .then(|| &pending[rng.gen_range(0..pending.len())]);
        let (src, class) = match aimed {
            Some(env) if env.class == MsgClass::Ack => return MatchSpec::Ack(env.src, env.seq),
            Some(env) => (env.src, env.class),
            None if rng.gen_range(0..4) == 0 => {
                (rng.gen_range(0..6), MsgClass::Internal(rng.gen_range(0..3)))
            }
            None => (rng.gen_range(0..6), MsgClass::User(rng.gen_range(0..3))),
        };
        match class {
            MsgClass::Ack => unreachable!("only aimed specs wait for acks"),
            MsgClass::Internal(tag) => MatchSpec::Internal(src, tag),
            MsgClass::User(tag) => MatchSpec::User(
                if rng.gen::<bool>() {
                    SourceSel::Any
                } else {
                    SourceSel::Rank(src)
                },
                if rng.gen_range(0..3) == 0 {
                    TagSel::Any
                } else {
                    TagSel::Tag(tag)
                },
            ),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 96 }))]
        #[test]
        fn indexed_matching_agrees_with_the_linear_reference(
            seed in proptest::prelude::any::<u64>(),
            perturb in proptest::prelude::any::<bool>(),
            dedup in proptest::prelude::any::<bool>()
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (tx, rx) = channel();
            let world = TestWorld::new(1);
            world.progress().poisoned.store(true, Ordering::SeqCst);
            let mut stopped = world.comm(0);
            let mut mb = Mailbox::new();
            let mut reference = LinearMailbox {
                pending: VecDeque::new(),
                perturb: None,
                last_candidates: 0,
                dedup: None,
            };
            if perturb {
                mb.set_perturb(seed);
                reference.perturb = mb.modes().perturb;
            }
            if dedup {
                mb.enable_dedup();
                reference.dedup = Some(HashSet::new());
            }
            let mut sent: Vec<Desc> = Vec::new();
            let mut next_seq = [0u64; 6];
            let mut deepest = 0;
            // Alternate filling and draining phases so the live depth
            // crosses the index threshold in both directions; the last
            // phase drains the mailbox completely.
            for phase in 0..6 {
                let fill = phase % 2 == 0;
                let (mut sends, burst) = (0, rng.gen_range(2 * INDEX_DEPTH..3 * INDEX_DEPTH));
                for step in 0.. {
                    if if fill { sends >= burst } else { step >= 60 } {
                        break;
                    }
                    if rng.gen_range(0..100) < if fill { 80 } else { 12 } {
                        // Resending an earlier envelope duplicates its
                        // sequence number (a fault-plan duplicate when
                        // dedup is on, a wildcard-key tie when it is off).
                        let d = if !sent.is_empty() && rng.gen_range(0..10) == 0 {
                            sent[rng.gen_range(0..sent.len())]
                        } else {
                            let src = rng.gen_range(0..6);
                            let class = match rng.gen_range(0..8) {
                                0 | 1 => MsgClass::Internal(rng.gen_range(0..3)),
                                2 => MsgClass::Ack,
                                _ => MsgClass::User(rng.gen_range(0..3)),
                            };
                            next_seq[src] += 1;
                            (src, class, rng.gen_range(0..4) as f64 * 0.5, next_seq[src])
                        };
                        sent.push(d);
                        sends += 1;
                        tx.send(make(d)).expect("open channel");
                        reference.admit(make(d));
                        continue;
                    }
                    mb.pull(&rx);
                    let spec = random_spec(&mut rng, &reference.pending);
                    let user = matches!(spec, MatchSpec::User(..));
                    match rng.gen_range(0..4) {
                        2 if user => {
                            let want = reference.peek_idx(&spec).map(|i| Status::of(&reference.pending[i]));
                            assert_eq!(mb.peek_matching(&spec), want, "{spec:?}");
                        }
                        3 if user => {
                            // A poisoned world turns "nothing matches" into
                            // an error instead of a wait.
                            let want = reference.peek_idx(&spec).map(|i| Status::of(&reference.pending[i]));
                            std::mem::swap(stopped.mailbox_mut(), &mut mb);
                            let site = CallSite::here();
                            let got = block_on(Waiter::Blocking.probe(&mut stopped, &spec, &site));
                            std::mem::swap(stopped.mailbox_mut(), &mut mb);
                            assert_eq!(got.ok(), want, "{spec:?}");
                        }
                        _ => match_both(&mut mb, &mut reference, &spec),
                    }
                    assert_eq!(
                        mb.modes.as_ref().and_then(|m| m.perturb),
                        reference.perturb,
                        "same perturbation draws"
                    );
                    assert_eq!(mb.live, reference.pending.len());
                    assert!(mb.index.is_some() || mb.live <= INDEX_DEPTH);
                    assert_index_consistent(&mb);
                    deepest = deepest.max(mb.live);
                }
            }
            assert!(deepest > INDEX_DEPTH, "the index was exercised");
            mb.pull(&rx);
            // Drain half the remainder by wildcard and every other envelope
            // of the rest by exact source, so drain_all meets tombstones.
            let any = MatchSpec::User(SourceSel::Any, TagSel::Any);
            for _ in 0..reference.pending.len() / 2 {
                match_both(&mut mb, &mut reference, &any);
            }
            let mut i = 0;
            while i < reference.pending.len() {
                let env = &reference.pending[i];
                let spec = match env.class {
                    MsgClass::Ack => MatchSpec::Ack(env.src, env.seq),
                    MsgClass::Internal(tag) => MatchSpec::Internal(env.src, tag),
                    MsgClass::User(tag) => MatchSpec::User(SourceSel::Rank(env.src), TagSel::Tag(tag)),
                };
                match_both(&mut mb, &mut reference, &spec);
                i += 1;
            }
            let left: Vec<_> = mb.drain_all().iter().map(key).collect();
            let want: Vec<_> = reference.pending.iter().map(key).collect();
            assert_eq!(left, want, "drain_all is arrival-ordered");
            assert!(mb.index.is_none() && mb.store.is_empty());
        }
    }

    /// One `try_match` on both matchers: same envelope, same candidates.
    fn match_both(mb: &mut Mailbox, reference: &mut LinearMailbox, spec: &MatchSpec) {
        let got = mb.try_match(spec);
        let want = reference.try_match(spec);
        assert_eq!(got.as_ref().map(key), want.as_ref().map(key), "{spec:?}");
        assert_eq!(mb.last_candidates(), reference.last_candidates);
    }

    /// Check the index against the store: each source chain walks that
    /// source's live envelopes in arrival order, each tag's live count is
    /// exact and its heap holds every one of them, and a heap's stale keys
    /// never outnumber its live ones.
    fn assert_index_consistent(mb: &Mailbox) {
        let Some(index) = mb.index.as_deref() else {
            return;
        };
        assert_eq!(index.next.len(), mb.store.len(), "links parallel the store");
        let mut by_src: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        let mut by_tag: BTreeMap<u32, Vec<WildKey>> = BTreeMap::new();
        for (pos, env) in mb.live_slots() {
            by_src.entry(env.src).or_default().push(pos);
            if let MsgClass::User(tag) = env.class {
                by_tag.entry(tag).or_default().push(wild_key(pos, env));
            }
        }
        assert_eq!(index.chains.len(), by_src.len());
        for (src, want) in &by_src {
            let (oldest, newest) = index.chains[src];
            let mut walked = Vec::new();
            let mut pos = oldest;
            while pos != NIL {
                walked.push(pos);
                pos = index.next[(pos - mb.base) as usize];
            }
            assert_eq!(&walked, want, "chain of source {src}");
            assert_eq!(Some(&newest), want.last());
        }
        assert_eq!(index.tags.len(), by_tag.len());
        assert_eq!(
            index.user_live,
            by_tag.values().map(Vec::len).sum::<usize>()
        );
        for (tag, keys) in &by_tag {
            let heap = &index.tags[tag];
            assert_eq!(heap.live, keys.len(), "live count of tag {tag}");
            let held: BTreeSet<WildKey> = heap.heap.iter().map(|Reverse(k)| *k).collect();
            assert!(
                keys.iter().all(|k| held.contains(k)),
                "tag {tag}'s heap holds its live keys"
            );
            assert!(
                heap.heap.len() <= 2 * heap.live,
                "tag {tag}: stale keys bounded by live ones"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 64 }))]
        /// The indexed cases the random walk above reaches only by chance,
        /// driven on purpose and checked against the reference and the
        /// index's own invariants after every step: an arrival number
        /// reused by a new (sometimes identical) envelope after a trailing
        /// match, wildcard receives over four tags, exact receives that
        /// skip earlier same-source envelopes (a mid-chain unlink), and a
        /// peek followed by the receive it announces.
        #[test]
        fn indexed_matching_reuses_arrivals_and_unlinks_mid_chain(
            seed in proptest::prelude::any::<u64>()
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (tx, rx) = channel();
            let mut mb = Mailbox::new();
            let mut reference = LinearMailbox {
                pending: VecDeque::new(),
                perturb: None,
                last_candidates: 0,
                dedup: None,
            };
            // Sources 0..3 carry long mixed-tag chains; source 3 sends only
            // the envelopes a reuse step matches at once.
            const REUSE_SRC: usize = 3;
            let mut next_seq = [0u64; 4];
            let mut fresh = |rng: &mut rand::rngs::StdRng, src: usize, user: bool| -> Desc {
                next_seq[src] += 1;
                let class = if user {
                    MsgClass::User(rng.gen_range(0..4))
                } else {
                    MsgClass::Internal(rng.gen_range(0..2))
                };
                (src, class, rng.gen_range(0..4) as f64 * 0.5, next_seq[src])
            };
            let deliver = |mb: &mut Mailbox, reference: &mut LinearMailbox, d: Desc| {
                tx.send(make(d)).expect("open channel");
                reference.admit(make(d));
                mb.pull(&rx);
            };
            let (mut reused, mut mid_chain, mut peeked, mut tags) = (0, 0, 0, 0);
            for _ in 0..400 {
                let depth = reference.pending.len();
                let op = if depth < 2 * INDEX_DEPTH { 0 } else { rng.gen_range(0..6) };
                match op {
                    0 => {
                        let (src, user) = (rng.gen_range(0..REUSE_SRC), rng.gen_range(0..5) > 0);
                        let d = fresh(&mut rng, src, user);
                        deliver(&mut mb, &mut reference, d);
                    }
                    1 => {
                        // Match the newest arrival, then admit into its
                        // freed trailing slot: half the time an identical
                        // copy, whose wildcard key equals the stale one.
                        let d = fresh(&mut rng, REUSE_SRC, true);
                        deliver(&mut mb, &mut reference, d);
                        let end = mb.base + mb.store.len() as u64;
                        let MsgClass::User(tag) = d.1 else { unreachable!("user class") };
                        let spec = MatchSpec::User(SourceSel::Rank(REUSE_SRC), TagSel::Tag(tag));
                        match_both(&mut mb, &mut reference, &spec);
                        let again = if rng.gen::<bool>() { d } else { fresh(&mut rng, 0, true) };
                        deliver(&mut mb, &mut reference, again);
                        if mb.index.is_some() && mb.base + mb.store.len() as u64 == end {
                            reused += 1;
                        }
                    }
                    2 => {
                        tags = tags.max(mb.index.as_ref().map_or(0, |i| i.tags.len()));
                        let tag = if rng.gen::<bool>() { TagSel::Any } else { TagSel::Tag(rng.gen_range(0..4)) };
                        match_both(&mut mb, &mut reference, &MatchSpec::User(SourceSel::Any, tag));
                    }
                    3 => {
                        // Aim at a pending envelope by source and class.
                        let i = rng.gen_range(0..depth);
                        let env = &reference.pending[i];
                        let skips = reference.pending.iter().take(i).any(|e| e.src == env.src);
                        if skips && mb.index.is_some() {
                            mid_chain += 1;
                        }
                        let spec = match env.class {
                            MsgClass::Ack => MatchSpec::Ack(env.src, env.seq),
                            MsgClass::Internal(tag) => MatchSpec::Internal(env.src, tag),
                            MsgClass::User(tag) => MatchSpec::User(SourceSel::Rank(env.src), TagSel::Tag(tag)),
                        };
                        match_both(&mut mb, &mut reference, &spec);
                    }
                    _ => {
                        let spec = match random_spec(&mut rng, &reference.pending) {
                            MatchSpec::Internal(src, _) | MatchSpec::Ack(src, _) => {
                                MatchSpec::User(SourceSel::Rank(src), TagSel::Any)
                            }
                            user => user,
                        };
                        let want = reference.peek_idx(&spec).map(|i| Status::of(&reference.pending[i]));
                        assert_eq!(mb.peek_matching(&spec), want, "{spec:?}");
                        peeked += usize::from(want.is_some());
                        match_both(&mut mb, &mut reference, &spec);
                    }
                }
                assert_eq!(mb.live, reference.pending.len());
                assert_index_consistent(&mb);
            }
            assert!(reused > 0, "an arrival number was reused while indexed");
            assert!(mid_chain > 0, "an exact match skipped same-source envelopes");
            assert!(peeked > 0, "a peek found the envelope its receive took");
            assert!(tags >= 3, "wildcards ran over three or more tags");
        }
    }

    #[test]
    fn drained_deep_mailbox_releases_index_and_store() {
        let (tx, rx) = channel();
        let mut mb = Mailbox::new();
        let depth = 4 * INDEX_DEPTH as u64;
        for seq in 0..depth {
            tx.send(make((seq as usize % 7, MsgClass::User(0), seq as f64, seq)))
                .expect("open channel");
        }
        mb.pull(&rx);
        let any = MatchSpec::User(SourceSel::Any, TagSel::Tag(0));
        assert_eq!(mb.peek_matching(&any).expect("pending").source, 0);
        assert!(mb.index.is_some(), "deep mailbox is indexed");
        assert!(mb.store.capacity() >= depth as usize);
        for seq in 0..depth {
            let src = MatchSpec::User(SourceSel::Rank(seq as usize % 7), TagSel::Any);
            assert_eq!(mb.try_match(&src).expect("pending").seq, seq);
        }
        assert!(mb.index.is_none(), "index dropped on drain");
        assert_eq!(mb.store.capacity(), 0, "store buffer released on drain");
    }
}
