//! Transports: how envelopes move between ranks.
//!
//! The same `Comm` primitives — and therefore the eight module rank
//! bodies, pdc-check event logging, pdc-prof counters, and the fault
//! layer — run unchanged over three backends, which differ only in how an
//! envelope reaches the destination rank's inbox:
//!
//! * **thread** — the default: every rank is an OS thread in one
//!   process, and [`channel_mesh`] gives each rank a condvar channel
//!   (`chan.rs`) as its inbox; the outboxes are the channels' senders.
//! * **event** ([`World::run_event`](crate::World::run_event)) builds no
//!   channels: it runs every rank on one thread and owns one plain inbox
//!   queue per rank, and a send records its destination so the engine
//!   can requeue a parked receiver. It is the seeded, deterministic
//!   backend.
//! * **proc** (`proc::ProcTransport`, via
//!   [`World::run_proc`](crate::World::run_proc)) — real multi-OS-process
//!   ranks over Unix-domain sockets with length-prefixed frames (see
//!   [`wire`]), a dedicated send thread per peer, and typed peer-death
//!   detection feeding the ULFM `agree`/`shrink` path.
//!
//! The contract, piece by piece:
//!
//! * **send** — [`Outbox::send`] delivers one [`Envelope`] toward a
//!   destination rank, failing (with the envelope dropped) when the
//!   destination can no longer receive. A rendezvous acknowledgement is
//!   an envelope too, so data and acks share this one path;
//! * **receive** — matching stays in [`Mailbox`](crate::mailbox::Mailbox),
//!   which the rank's communicator feeds from its inbox ([`Link`]); a
//!   transport only has to feed that inbox;
//! * **wait** — a blocked rank waits only in the wait core (`wait.rs`):
//!   on the thread and proc backends it parks on its channel inbox, on
//!   the event engine it yields to the engine. The inboxes are registered
//!   with [`Progress::register_waker`] before any rank runs, so poison and
//!   failure broadcasts reach parked ranks immediately;
//! * **teardown** — the in-process backends have nothing to drain
//!   (dropping the outboxes closes the channels); the proc backend
//!   flushes and closes its socket mesh once every rank reported;
//! * **failure surfacing** — crashes flow through
//!   [`Progress::mark_failed`]; the proc backend mirrors them with a
//!   [`ProgressNotifier`](crate::mailbox::Progress) so every process
//!   observes the same typed `RankFailed`, not a hang.

pub mod proc;
pub(crate) mod wire;

use crate::chan::{channel, Receiver, Sender};
use crate::envelope::Envelope;
use crate::event::EventMesh;
use crate::mailbox::{Mailbox, Progress};

/// Delivery failure: the destination rank can no longer receive (its
/// closure finished, the world is tearing down, or its process died). The
/// envelope is dropped — eager traffic to a gone peer is fire-and-forget,
/// exactly like a real network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendFailed;

/// One rank's handle for delivering envelopes to a destination rank.
///
/// In-process backends implement this directly on the condvar-channel
/// sender; the multi-process backend frames the envelope onto a per-peer
/// socket instead.
pub trait Outbox: Send + Sync {
    /// Deliver `env` to the destination this outbox leads to.
    fn send(&self, env: Envelope) -> std::result::Result<(), SendFailed>;
}

impl Outbox for Sender<Envelope> {
    fn send(&self, env: Envelope) -> std::result::Result<(), SendFailed> {
        Sender::send(self, env).map_err(|_| SendFailed)
    }
}

/// Sender handles to every rank's mailbox, indexed by destination rank.
/// Shared by reference between all ranks a process hosts.
pub type Outboxes = Vec<Box<dyn Outbox>>;

/// How one rank's communicator moves envelopes: through the shared
/// outboxes and its own channel inbox (thread and proc backends), or
/// through the event engine's single-threaded queues.
pub(crate) enum Link<'w> {
    /// Condvar-channel or socket delivery; the inbox is this rank's own,
    /// and dropping it closes the rank to further sends.
    Chan {
        outboxes: &'w Outboxes,
        inbox: Receiver<Envelope>,
    },
    /// The event engine's queues, which outlive every rank.
    Event(&'w EventMesh),
}

// Two words either way: as much as an outbox-row reference plus a
// channel receiver, so the event variant costs a `Comm` nothing.
const _: () = assert!(std::mem::size_of::<Link<'static>>() == 2 * std::mem::size_of::<usize>());

impl Link<'_> {
    /// Number of ranks the link reaches.
    pub(crate) fn size(&self) -> usize {
        match self {
            Link::Chan { outboxes, .. } => outboxes.len(),
            Link::Event(mesh) => mesh.size(),
        }
    }

    /// Deliver `env` to rank `dst`. Event delivery cannot fail: the
    /// engine's queues outlive every rank.
    pub(crate) fn send(&self, dst: usize, env: Envelope) -> std::result::Result<(), SendFailed> {
        match self {
            Link::Chan { outboxes, .. } => outboxes[dst].send(env),
            Link::Event(mesh) => {
                mesh.push(dst, env);
                Ok(())
            }
        }
    }

    /// Admit everything waiting in `rank`'s inbox into its mailbox.
    pub(crate) fn collect(&self, rank: usize, mailbox: &mut Mailbox) {
        match self {
            Link::Chan { inbox, .. } => mailbox.pull(inbox),
            Link::Event(mesh) => mesh.collect(rank, mailbox),
        }
    }

    /// The channel inbox a blocking wait parks on.
    ///
    /// # Panics
    /// Panics on an event link: event ranks park on the engine, never on
    /// a channel.
    pub(crate) fn inbox(&self) -> &Receiver<Envelope> {
        match self {
            Link::Chan { inbox, .. } => inbox,
            Link::Event(_) => unreachable!("event ranks never block on a channel"),
        }
    }
}

/// The thread backend's mesh for a world of `size` ranks: one condvar
/// channel per rank, returned as the shared outbox row and every rank's
/// inbox, in rank order. Every inbox is registered with `progress` before
/// any rank starts, so the watchdog can wake all parked receivers the
/// instant it detects deadlock.
pub(crate) fn channel_mesh(
    size: usize,
    progress: &Progress,
) -> (Outboxes, Vec<Receiver<Envelope>>) {
    let mut outboxes: Outboxes = Vec::with_capacity(size);
    let mut inboxes = Vec::with_capacity(size);
    for _ in 0..size {
        let (tx, rx) = channel();
        progress.register_waker(rx.waker());
        outboxes.push(Box::new(tx) as Box<dyn Outbox>);
        inboxes.push(rx);
    }
    (outboxes, inboxes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::MsgClass;

    fn env(src: usize) -> Envelope {
        Envelope {
            src,
            class: MsgClass::User(0),
            type_name: "u8",
            type_size: 1,
            payload: bytes::Bytes::copy_from_slice(&[1, 2, 3]),
            send_time: 0.0,
            seq: 0,
            rendezvous: false,
        }
    }

    #[test]
    fn channel_outbox_delivers_and_reports_gone_receiver() {
        let progress = Progress::new(2);
        let (outboxes, mut inboxes) = channel_mesh(2, &progress);
        assert_eq!(outboxes.len(), 2);
        assert_eq!(inboxes.len(), 2);
        outboxes[1].send(env(0)).expect("receiver alive");
        assert_eq!(inboxes[1].try_recv().expect("delivered").src, 0);
        inboxes.truncate(1);
        assert_eq!(outboxes[1].send(env(0)), Err(SendFailed));
    }
}
