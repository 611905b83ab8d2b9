//! Event-driven channels for rank inboxes.
//!
//! The progress engine used to spin in 1 ms `recv_timeout` loops: every
//! blocked primitive woke a thousand times a second just to re-check the
//! world's poison flag, and on a loaded host (or a single-core CI
//! container) those wakeups steal cycles from the rank that could actually
//! run. This channel replaces polling with condvar wakeups:
//!
//! * a send locks the queue, pushes, and notifies the receiver if it is
//!   parked on the condvar — the receiver observes the message one wakeup
//!   later, not one poll tick later, and a receiver that is not waiting
//!   costs the sender no futex syscall;
//! * the world's progress state calls [`Wake::wake_all`] on every
//!   registered channel when it poisons the world, marks a rank failed,
//!   or resolves an agreement generation, so blocked primitives observe
//!   the change *immediately* (it is re-checked under the queue lock, so
//!   the wakeup cannot be lost);
//! * dropping the last sender notifies a parked receiver too, turning an
//!   abandoned wait into [`WaitError::Disconnected`] rather than a hang;
//!   with no receiver parked the drop costs no futex syscall either.
//!
//! On a thread world a receiver parked with nothing to take leaves the
//! world's [`Movers`] count, and each of these wakes puts it back under
//! the queue lock before notifying.
//!
//! A long backstop timeout ([`BACKSTOP`]) bounds the damage of any missed
//! wakeup to tens of milliseconds; it is a safety net, never the wakeup
//! path, and a wake by it changes nothing in the count.
//!
//! Every operation acts on the channel at once: a send pushes, a sender
//! drop decrements, a receive pops. A blocked wait takes nothing: it
//! returns once a message is queued and leaves the taking to the caller
//! (the wait core, `wait.rs`). Message delivery uses these channels
//! on the thread and proc backends only; the event engine delivers
//! through its own single-threaded queues (`event.rs`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::time::Duration;

/// Safety-net re-check period for blocked waits. Orders of magnitude
/// longer than any expected wait; the condvar signal is the real wakeup.
pub(crate) const BACKSTOP: Duration = Duration::from_millis(50);

/// Scheduler-yield iterations before a blocked wait parks on the
/// condvar. Covers the common "reply is one context switch away" case.
const SPIN_YIELDS: usize = 3;

/// Something that can wake every thread blocked on it
/// ([`crate::mailbox::Progress`] calls this after poisoning the world,
/// marking a rank failed, or resolving an agreement generation).
pub trait Wake: Send + Sync {
    /// Wake all blocked waiters so they re-check their stop condition.
    fn wake_all(&self);
}

/// A thread world's count of ranks that can still move, from the world
/// size. A rank leaves it when it parks with nothing to take, or when it
/// finishes; whatever wakes a parked rank puts it back, under the lock the
/// park checked, first. Zero with a rank unfinished is a deadlock. Every
/// update is an `AcqRel` read-modify-write of the one counter, so the rank
/// that empties it has acquired every earlier leave, and with it each
/// parked rank's registered blocked operation.
#[derive(Debug)]
pub(crate) struct Movers(AtomicUsize);

impl Movers {
    pub(crate) fn new(size: usize) -> Self {
        Movers(AtomicUsize::new(size))
    }

    /// Put `n` parked ranks back in the count.
    pub(crate) fn enter(&self, n: usize) {
        self.0.fetch_add(n, Ordering::AcqRel);
    }

    /// Take one rank out of the count; true when it was the last that
    /// could move.
    pub(crate) fn leave(&self) -> bool {
        self.0.fetch_sub(1, Ordering::AcqRel) == 1
    }

    #[cfg(test)]
    pub(crate) fn count(&self) -> usize {
        self.0.load(Ordering::Acquire)
    }
}

#[derive(Debug)]
struct State<T: Send + 'static> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
    /// Receivers parked on the condvar; a send notifies only when nonzero.
    parked: usize,
    /// The receiver parked and left the world's [`Movers`] count; whoever
    /// wakes it puts it back.
    out: bool,
}

impl<T: Send + 'static> State<T> {
    /// A wake reached a parked receiver: put it back in the count.
    fn recount(&mut self, movers: Option<&Movers>) {
        if std::mem::take(&mut self.out) {
            if let Some(m) = movers {
                m.enter(1);
            }
        }
    }
}

struct Inner<T: Send + 'static> {
    state: Mutex<State<T>>,
    cv: Condvar,
    /// The world's count of ranks that can move; `None` off thread worlds.
    movers: Option<Arc<Movers>>,
}

impl<T: Send + 'static> std::fmt::Debug for Inner<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner").finish_non_exhaustive()
    }
}

impl<T: Send + 'static> Inner<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // A rank can panic (contained by the world's catch_unwind) while
        // peers still use the channel; poisoned locks stay usable.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Send + 'static> Wake for Inner<T> {
    fn wake_all(&self) {
        // Taking the queue lock orders this notify after any in-progress
        // "check stop flag, then wait" sequence, so the wakeup is never
        // lost.
        let mut state = self.lock();
        state.recount(self.movers.as_deref());
        self.cv.notify_all();
    }
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// All senders disconnected and the channel is drained.
    Disconnected,
}

/// Why [`Receiver::wait_or_stop`] returned without a queued message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitError {
    /// All senders disconnected and the channel is drained.
    Disconnected,
    /// The stop condition became true before a message arrived.
    Stopped,
    /// Parking would take the world's [`Movers`] count to zero: a
    /// deadlock, which the (still counted) waiter declares.
    Stalled,
}

/// Error returned by [`Sender::send`] when the receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Sending half: cloneable, usable through a shared reference.
#[derive(Debug)]
pub struct Sender<T: Send + 'static>(Arc<Inner<T>>);

impl<T: Send + 'static> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T: Send + 'static> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.senders -= 1;
        if state.senders == 0 && state.parked > 0 {
            // Turn an abandoned wait into Disconnected. A receiver that
            // is not parked sees `senders == 0` under the lock before it
            // would park, so it needs no wakeup.
            state.recount(self.0.movers.as_deref());
            self.0.cv.notify_all();
        }
    }
}

impl<T: Send + 'static> Sender<T> {
    /// Enqueue a message and wake the receiver.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.0.lock();
        if !state.receiver_alive {
            return Err(SendError(value));
        }
        state.queue.push_back(value);
        if state.parked > 0 {
            state.recount(self.0.movers.as_deref());
            self.0.cv.notify_one();
        }
        Ok(())
    }
}

/// Receiving half (single consumer).
#[derive(Debug)]
pub struct Receiver<T: Send + 'static>(Arc<Inner<T>>);

impl<T: Send + 'static> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.receiver_alive = false;
        // Drop queued messages now rather than with the last sender:
        // nobody will take them.
        state.queue.clear();
    }
}

impl<T: Send + 'static> Receiver<T> {
    /// Pop a message if one is already queued.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.0.lock();
        match state.queue.pop_front() {
            Some(v) => Ok(v),
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Take every queued message at once (non-blocking, one lock). The
    /// channel's buffer goes with them, so a burst is not held twice.
    pub fn take_all(&self) -> VecDeque<T> {
        let mut state = self.0.lock();
        if state.queue.is_empty() {
            return VecDeque::new();
        }
        std::mem::take(&mut state.queue)
    }

    /// Block until a message is queued, every sender disconnects, or
    /// `stop` becomes true, taking nothing: the caller takes what arrived
    /// ([`Receiver::try_recv`], [`Receiver::take_all`]). A queued message
    /// wins over a concurrent stop. `stop` is evaluated under the channel
    /// lock and re-evaluated on every wakeup, pairing with
    /// [`Wake::wake_all`]: whoever flips the stop condition and then wakes
    /// this channel is guaranteed to be observed.
    pub fn wait_or_stop(&self, stop: impl Fn() -> bool) -> Result<(), WaitError> {
        // Yield-spin briefly before parking: in a tight message exchange
        // the peer usually produces the reply within one scheduler
        // quantum, and a sched_yield round is cheaper than a futex sleep
        // plus the wake latency on the other side. The spin re-locks per
        // iteration, so it observes stop/disconnect just like the wait
        // loop, and it is short enough not to starve peers when many
        // ranks block at once (collectives on few cores).
        for _ in 0..SPIN_YIELDS {
            if let Some(done) = ready(&self.0.lock(), &stop) {
                return done;
            }
            std::thread::yield_now();
        }
        let movers = self.0.movers.as_deref();
        let mut state = self.0.lock();
        loop {
            if let Some(done) = ready(&state, &stop) {
                // Only a backstop wake finds the receiver still out.
                state.recount(movers);
                return done;
            }
            if let Some(m) = movers.filter(|_| !state.out) {
                if m.leave() {
                    m.enter(1);
                    return Err(WaitError::Stalled);
                }
                state.out = true;
            }
            state.parked += 1;
            (state, _) = self
                .0
                .cv
                .wait_timeout(state, BACKSTOP)
                .unwrap_or_else(PoisonError::into_inner);
            state.parked -= 1;
        }
    }

    /// A weak wake handle for [`crate::mailbox::Progress`]'s wake
    /// broadcast. Weak, so finished channels don't accumulate.
    pub fn waker(&self) -> Weak<dyn Wake>
    where
        T: 'static,
    {
        let strong: Arc<dyn Wake> = Arc::clone(&self.0) as Arc<dyn Wake>;
        Arc::downgrade(&strong)
    }
}

/// With the channel lock held: how a wait ends now, if it does — a
/// queued message first, then the stop condition, then disconnection.
fn ready<T: Send + 'static>(
    state: &State<T>,
    stop: &impl Fn() -> bool,
) -> Option<Result<(), WaitError>> {
    if !state.queue.is_empty() {
        Some(Ok(()))
    } else if stop() {
        Some(Err(WaitError::Stopped))
    } else if state.senders == 0 {
        Some(Err(WaitError::Disconnected))
    } else {
        None
    }
}

/// Create an unbounded event-driven channel.
pub fn channel<T: Send + 'static>() -> (Sender<T>, Receiver<T>) {
    counted_channel(None)
}

/// [`channel`] whose parked receiver is out of `movers`, if given.
pub(crate) fn counted_channel<T: Send + 'static>(
    movers: Option<Arc<Movers>>,
) -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
            parked: 0,
            out: false,
        }),
        cv: Condvar::new(),
        movers,
    });
    (Sender(Arc::clone(&inner)), Receiver(inner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    #[test]
    fn roundtrip_and_disconnect() {
        let (tx, rx) = channel();
        tx.send(7).expect("receiver alive");
        assert_eq!(rx.try_recv(), Ok(7));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_after_receiver_drop_fails() {
        let (tx, rx) = channel();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
    }

    #[test]
    fn recv_wakes_on_delivery_not_backstop() {
        let (tx, rx) = channel();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            tx.send(42).expect("receiver alive");
        });
        let t = Instant::now();
        assert_eq!(rx.wait_or_stop(|| false), Ok(()));
        assert_eq!(rx.try_recv(), Ok(42));
        // Event wakeup, not the 50 ms backstop tick.
        assert!(t.elapsed() < BACKSTOP, "took {:?}", t.elapsed());
        handle.join().expect("sender thread");
    }

    #[test]
    fn wake_all_makes_stop_observable_immediately() {
        let (tx, rx) = channel::<u8>();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let waker = rx.waker();
        let waiter = std::thread::spawn(move || {
            let t = Instant::now();
            let r = rx.wait_or_stop(|| stop2.load(Ordering::Relaxed));
            (r, t.elapsed())
        });
        std::thread::sleep(Duration::from_millis(5));
        stop.store(true, Ordering::Relaxed);
        waker.upgrade().expect("receiver alive").wake_all();
        let (r, waited) = waiter.join().expect("waiter thread");
        assert_eq!(r, Err(WaitError::Stopped));
        assert!(
            waited < BACKSTOP,
            "woke via signal, not backstop: {waited:?}"
        );
        drop(tx);
    }

    #[test]
    fn queued_message_beats_stop() {
        let (tx, rx) = channel();
        tx.send(1).expect("receiver alive");
        assert_eq!(rx.wait_or_stop(|| true), Ok(()));
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.wait_or_stop(|| true), Err(WaitError::Stopped));
    }

    #[test]
    fn disconnect_wakes_blocked_receiver() {
        // The last sender drops only once the receiver is parked on the
        // condvar, so each trial exercises the drop's notify; a lost
        // wakeup would show as the 50 ms backstop.
        let mut wakes: Vec<Duration> = (0..15)
            .map(|_| {
                let (tx, rx) = channel::<u8>();
                drop(tx.clone());
                let dropper = std::thread::spawn(move || {
                    while tx.0.lock().parked == 0 {
                        std::thread::yield_now();
                    }
                    let dropped = Instant::now();
                    drop(tx);
                    dropped
                });
                assert_eq!(rx.wait_or_stop(|| false), Err(WaitError::Disconnected));
                let woke = Instant::now();
                woke.saturating_duration_since(dropper.join().expect("dropper thread"))
            })
            .collect();
        wakes.sort();
        let median = wakes[wakes.len() / 2];
        assert!(median < BACKSTOP / 5, "median wake {median:?}");
    }

    #[test]
    fn a_parked_receiver_is_out_of_the_count_until_a_send_wakes_it() {
        let movers = Arc::new(Movers::new(2));
        let (tx, rx) = counted_channel(Some(Arc::clone(&movers)));
        std::thread::scope(|s| {
            let sender = s.spawn(|| {
                while movers.count() == 2 {
                    std::thread::yield_now();
                }
                // Past a backstop wake, which changes nothing.
                std::thread::sleep(BACKSTOP * 2);
                assert_eq!(movers.count(), 1, "the parked receiver stays out");
                tx.send(5).expect("receiver alive");
            });
            assert_eq!(rx.wait_or_stop(|| false), Ok(()));
            sender.join().expect("sender thread");
        });
        assert_eq!(rx.try_recv(), Ok(5));
        assert_eq!(movers.count(), 2, "the send put the receiver back");
    }

    #[test]
    fn the_park_that_empties_the_count_is_stalled_and_back_in_it() {
        let movers = Arc::new(Movers::new(1));
        let (_tx, rx) = counted_channel::<u8>(Some(Arc::clone(&movers)));
        assert_eq!(rx.wait_or_stop(|| false), Err(WaitError::Stalled));
        assert_eq!(movers.count(), 1);
        // A stop that holds ends the wait before it parks.
        assert_eq!(rx.wait_or_stop(|| true), Err(WaitError::Stopped));
        assert_eq!(movers.count(), 1);
    }
}
