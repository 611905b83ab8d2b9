//! Pluggable transports: how envelopes move between ranks.
//!
//! The runtime's message path was born around in-process condvar channels
//! (`chan.rs`): an outbox per destination rank, a mailbox per receiver,
//! and the shared [`Progress`] state for wakeups, finalize, and failure
//! surfacing. This module extracts that contract behind two traits so the
//! same `Comm` primitives — and therefore the eight module rank bodies,
//! pdc-check event logging, pdc-prof counters, and the fault layer — run
//! unchanged over every backend:
//!
//! * [`ThreadTransport`] — the default engine: every rank is an OS thread
//!   in one process, outboxes are condvar-channel senders. Zero behaviour
//!   change relative to the pre-trait runtime.
//! * The event engine ([`World::run_event`](crate::World::run_event))
//!   builds no channels: it runs every rank on one thread and owns one
//!   plain inbox queue per rank, and a send records its destination so
//!   the engine can requeue a parked receiver. It is the seeded,
//!   deterministic backend.
//! * [`proc::ProcTransport`] (via [`World::run_proc`](crate::World::run_proc))
//!   — real multi-OS-process ranks over Unix-domain sockets with
//!   length-prefixed frames (see [`wire`]), a dedicated send thread per
//!   peer, and typed peer-death detection feeding the ULFM
//!   `agree`/`shrink` path.
//!
//! The contract, piece by piece:
//!
//! * **send** — [`Outbox::send`] delivers one [`Envelope`] toward a
//!   destination rank, failing (with the envelope dropped) when the
//!   destination can no longer receive;
//! * **poll** — receive-side matching stays in
//!   [`Mailbox`](crate::mailbox::Mailbox), which the rank's communicator
//!   feeds from its inbox ([`Link`]); a transport only has to feed that
//!   inbox;
//! * **wakeup registration** — channels are registered with
//!   [`Progress::register_waker`] at `open` time so poison and failure
//!   broadcasts reach blocked receivers immediately;
//! * **finalize/drain** — [`Transport::finalize`] runs after every
//!   locally hosted rank has completed (the proc backend tears down its
//!   socket mesh here; the in-process backends have nothing to do);
//! * **failure surfacing** — crashes flow through
//!   [`Progress::mark_failed`]; cross-process transports mirror them with
//!   a [`ProgressNotifier`](crate::mailbox::Progress) so every process
//!   observes the same typed `RankFailed`, not a hang.

pub mod proc;
pub(crate) mod wire;

use crate::chan::{channel, Receiver, Sender};
use crate::envelope::Envelope;
use crate::event::EventMesh;
use crate::mailbox::{Mailbox, Progress};
use std::sync::Arc;

/// Delivery failure: the destination rank can no longer receive (its
/// closure finished, the world is tearing down, or its process died). The
/// envelope is dropped — eager traffic to a crashed peer is
/// fire-and-forget, exactly like a real network.
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

/// The wiring a transport hands back for the ranks this process hosts:
/// one shared outbox row (an entry per destination world rank) and the
/// inbox endpoint of every locally hosted rank.
pub struct WorldWiring {
    /// One outbox per destination world rank.
    pub outboxes: Outboxes,
    /// `(rank, inbox)` for each rank hosted in this process — all of them
    /// for the in-process backends, exactly one for the proc backend.
    pub inboxes: Vec<(usize, Receiver<Envelope>)>,
}

/// A message-movement engine for one world.
///
/// `open` builds the mesh and registers wakers; the world bootstrap then
/// runs rank bodies against the returned wiring; `finalize` runs once
/// every locally hosted rank has completed.
pub trait Transport {
    /// Backend name, for diagnostics and benchmark records.
    fn name(&self) -> &'static str;

    /// Open the mesh for a world of `size` ranks, registering every inbox
    /// with `progress` for the poison/failure broadcast.
    fn open(&self, size: usize, progress: &Arc<Progress>) -> WorldWiring;

    /// Tear down after all locally hosted ranks completed. In-process
    /// backends have nothing to drain (dropping the wiring closes the
    /// channels); the proc backend flushes and closes its socket mesh.
    fn finalize(&self, progress: &Arc<Progress>) {
        let _ = progress;
    }
}

/// The default engine: one OS thread per rank, condvar-channel outboxes,
/// kernel scheduling. Semantically identical to the pre-trait runtime.
#[derive(Debug, Default, Clone, Copy)]
pub struct ThreadTransport;

impl Transport for ThreadTransport {
    fn name(&self) -> &'static str {
        "thread"
    }

    /// Builds one condvar channel per rank and registers every inbox for
    /// the poison broadcast.
    fn open(&self, size: usize, progress: &Arc<Progress>) -> WorldWiring {
        let mut outboxes: Outboxes = Vec::with_capacity(size);
        let mut inboxes = Vec::with_capacity(size);
        for rank in 0..size {
            let (tx, rx) = channel();
            // Register every inbox before any rank starts: the watchdog
            // can then wake all blocked receivers the instant it detects
            // deadlock.
            progress.register_waker(rx.waker());
            outboxes.push(Box::new(tx) as Box<dyn Outbox>);
            inboxes.push((rank, rx));
        }
        WorldWiring { outboxes, inboxes }
    }
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
            ack: None,
        }
    }

    #[test]
    fn channel_outbox_delivers_and_reports_gone_receiver() {
        let progress = Arc::new(Progress::new(2));
        let wiring = ThreadTransport.open(2, &progress);
        assert_eq!(wiring.outboxes.len(), 2);
        assert_eq!(wiring.inboxes.len(), 2);
        wiring.outboxes[1].send(env(0)).expect("receiver alive");
        let (_, rx1) = &wiring.inboxes[1];
        assert_eq!(rx1.try_recv().expect("delivered").src, 0);
        drop(wiring.inboxes);
        assert_eq!(wiring.outboxes[1].send(env(0)), Err(SendFailed));
    }

    #[test]
    fn backends_report_their_names() {
        assert_eq!(ThreadTransport.name(), "thread");
    }
}
