//! The multi-process backend: every rank is a real OS process.
//!
//! [`World::run_proc`](crate::World::run_proc) runs a world SPMD-style,
//! like `mpirun`: the launching process hosts rank 0 and re-executes its
//! own binary once per remaining rank (`PDC_MPI_PROC_RANK`/`SIZE`/`DIR`
//! in the child environment). Every process runs the same `main` from the
//! top — in-process worlds executed before the `run_proc` call simply
//! re-run in each child — and the k-th `run_proc` call in program order
//! is the k-th world in every process. That lockstep is the whole
//! protocol, so `run_proc` requires a deterministic program order: call
//! it from `main` or a `harness = false` test, never from parallel
//! libtest threads.
//!
//! The mesh is one Unix-domain socket per rank pair. Rank `r` listens on
//! `w{world}_r{r}.sock`, connects to every lower rank (retrying until the
//! peer has bound), and accepts from every higher rank; a `Hello` frame
//! identifies the connecting side. Per peer, a dedicated writer thread
//! drains a frame queue onto the socket — senders never block on peer
//! sockets — and a reader thread dispatches incoming frames: envelopes
//! (rendezvous acknowledgements among them) to the local inbox, and
//! progress mirrors (`Frame::Done`, `Frame::Failed`, `Frame::AgreeEnter`)
//! into the local [`Progress`] via the same entry points the fault layer
//! already uses. Peer death is typed: a socket EOF from a process that
//! never reported its result is `Progress::mark_failed`, so survivors
//! observe [`Error::RankFailed`] and the ULFM
//! `agree`/`shrink` path works unchanged — no hang.
//!
//! Two deliberate weakenings versus the in-process backends, both
//! documented in `docs/backends.md`: a deadlock is not detected (no
//! process observes every rank), and the agreement
//! snapshot is consistent only because a crashed rank's `Failed` frame
//! precedes its `Done` frame on the same FIFO socket.

use crate::chan;
use crate::check::CheckEvent;
use crate::comm::{Comm, RankReport};
use crate::envelope::Envelope;
use crate::error::{Error, Result};
use crate::mailbox::{Progress, ProgressNotifier};
use crate::transport::wire::{read_frame, write_frame, Frame, RankResult, RankValue};
use crate::transport::{Link, Outbox, Outboxes, SendFailed};
use crate::world::{fold_outcomes, RunOutput, WorldConfig, WorldSetup};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, BufReader, BufWriter, Read, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Retry pacing while waiting for a peer to bind its listener.
const CONNECT_RETRY: Duration = Duration::from_millis(2);
/// Hard deadline for building the socket mesh.
const MESH_DEADLINE: Duration = Duration::from_secs(120);
/// Hard deadline for collecting every rank's result. Deadlocks are not
/// detected on this backend, so a world that never completes fails loudly
/// here instead of hanging CI forever.
const RESULT_DEADLINE: Duration = Duration::from_secs(120);

/// Is this process a spawned rank process (not the launching parent)?
///
/// Binaries that print reports or write artifact files should guard that
/// output with this — every rank process re-runs `main`, and only the
/// parent's copy of the output is wanted.
pub fn is_proc_child() -> bool {
    std::env::var_os("PDC_MPI_PROC_RANK").is_some()
}

/// Frame-level debug tracing (`PDC_MPI_PROC_TRACE=1`): every frame
/// entering or leaving this process is logged to stderr. Checked once
/// per process.
fn frame_trace() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("PDC_MPI_PROC_TRACE").is_some())
}

/// Worlds launched so far in this process; pairs the k-th `run_proc`
/// call here with the k-th in every peer process.
static WORLD_COUNTER: AtomicU32 = AtomicU32::new(0);

/// Parent-side state shared by every proc world in the process: the
/// socket directory and the children, spawned once at the first world.
struct ProcProcesses {
    dir: PathBuf,
    size: usize,
    children: Vec<Child>,
}

static PROCESSES: Mutex<Option<ProcProcesses>> = Mutex::new(None);

/// Resolve this process's rank and the socket directory, spawning the
/// rank processes if this is the parent's first proc world.
fn proc_identity(size: usize) -> (usize, PathBuf) {
    if let Ok(rank) = std::env::var("PDC_MPI_PROC_RANK") {
        let rank: usize = rank.parse().expect("PDC_MPI_PROC_RANK is a rank index");
        let child_size: usize = std::env::var("PDC_MPI_PROC_SIZE")
            .expect("PDC_MPI_PROC_SIZE set alongside PDC_MPI_PROC_RANK")
            .parse()
            .expect("PDC_MPI_PROC_SIZE is a world size");
        assert_eq!(
            child_size, size,
            "run_proc world size diverged between parent and child: the \
             program order of run_proc calls must be deterministic"
        );
        let dir = PathBuf::from(
            std::env::var_os("PDC_MPI_PROC_DIR").expect("PDC_MPI_PROC_DIR set for rank processes"),
        );
        return (rank, dir);
    }
    let mut slot = PROCESSES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(state) = slot.as_mut() {
        assert_eq!(
            state.size, size,
            "every run_proc world in one binary must use the same size \
             (the rank processes were spawned for {} ranks)",
            state.size
        );
        // Opportunistic reaping keeps finished children from lingering as
        // zombies across long parent runs.
        for child in &mut state.children {
            let _ = child.try_wait();
        }
        return (0, state.dir.clone());
    }
    let dir = std::env::temp_dir().join(format!("pdc-mpi-proc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create proc socket directory");
    let exe = std::env::current_exe().expect("current executable resolvable");
    let inherit_stdout =
        std::env::var_os("PDC_MPI_PROC_STDOUT").is_some_and(|v| v.to_string_lossy() == "inherit");
    let children = (1..size)
        .map(|rank| {
            let mut cmd = Command::new(&exe);
            cmd.args(std::env::args().skip(1))
                .env("PDC_MPI_PROC_RANK", rank.to_string())
                .env("PDC_MPI_PROC_SIZE", size.to_string())
                .env("PDC_MPI_PROC_DIR", &dir);
            // Children re-run main: silence their copy of stdout so
            // reports and JSON artifacts are emitted once, by the parent.
            // Stderr stays inherited — a child panic must be visible.
            if !inherit_stdout {
                cmd.stdout(Stdio::null());
            }
            cmd.spawn().expect("spawn rank process")
        })
        .collect();
    *slot = Some(ProcProcesses {
        dir: dir.clone(),
        size,
        children,
    });
    (0, dir)
}

/// State shared between the local rank, its outboxes, the notifier, and
/// the per-peer reader/writer threads.
#[derive(Debug)]
struct Shared {
    /// Frame queue to each peer (`None` at the local rank's own index).
    peer_tx: Vec<Option<chan::Sender<Frame>>>,
    /// Every rank's final report, local and remote.
    results: Mutex<BTreeMap<usize, RankResult>>,
    results_cv: Condvar,
}

impl Shared {
    fn broadcast(&self, frame: Frame) {
        for tx in self.peer_tx.iter().flatten() {
            let _ = tx.send(frame.clone());
        }
    }

    fn store_result(&self, res: RankResult) {
        self.results
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(res.rank, res);
        self.results_cv.notify_all();
    }

    fn has_result(&self, rank: usize) -> bool {
        self.results
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(&rank)
    }

    /// Broadcast the local rank's result and remember it locally.
    fn publish_result(&self, res: RankResult) {
        self.broadcast(Frame::Result(Box::new(res.clone())));
        self.store_result(res);
    }

    /// Every rank's report, by rank. Call after
    /// [`ProcTransport::await_results`].
    fn take_results(&self) -> BTreeMap<usize, RankResult> {
        std::mem::take(&mut *self.results.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// One connected peer: its frame queue plus the threads and socket that
/// service it.
struct Peer {
    stream: UnixStream,
    writer: std::thread::JoinHandle<()>,
    reader: std::thread::JoinHandle<()>,
}

/// This process's end of the socket mesh, torn down by
/// [`Mesh::finalize`].
struct Mesh {
    peers: Vec<Option<Peer>>,
    shutdown: Arc<AtomicBool>,
    sock_path: PathBuf,
}

impl Mesh {
    /// Tear down once every rank reported: writers drain their queues,
    /// then the sockets close and the readers exit.
    fn finalize(self) {
        // Writers drain their queues, then exit on the flag; only then is
        // the socket shut down, which unblocks the readers.
        self.shutdown.store(true, Ordering::Relaxed);
        let mut streams = Vec::new();
        let mut readers = Vec::new();
        for peer in self.peers.into_iter().flatten() {
            let _ = peer.writer.join();
            streams.push(peer.stream);
            readers.push(peer.reader);
        }
        for stream in &streams {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for reader in readers {
            let _ = reader.join();
        }
        let _ = std::fs::remove_file(&self.sock_path);
    }
}

/// Mirrors locally originated progress events to every peer process.
#[derive(Debug)]
struct ProcNotifier {
    rank: usize,
    shared: Arc<Shared>,
}

impl ProgressNotifier for ProcNotifier {
    fn on_agree_enter(&self, rank: usize, generation: u64) {
        if rank == self.rank {
            self.shared
                .broadcast(Frame::AgreeEnter { rank, generation });
        }
    }

    fn on_failed(&self, rank: usize, at: f64) {
        if rank == self.rank {
            self.shared.broadcast(Frame::Failed { rank, at });
        }
    }

    fn on_done(&self, rank: usize) {
        if rank == self.rank {
            self.shared.broadcast(Frame::Done { rank });
        }
    }
}

/// Outbox toward one remote rank: frames the envelope onto that peer's
/// queue.
struct ProcOutbox {
    dst: usize,
    shared: Arc<Shared>,
    progress: Arc<Progress>,
}

impl Outbox for ProcOutbox {
    fn send(&self, env: Envelope) -> std::result::Result<(), SendFailed> {
        // A peer known to be finished receives nothing more, as a
        // finished in-process rank's closed inbox does: the envelope is
        // dropped here instead of on the far side of the socket.
        if self.progress.is_done(self.dst) {
            return Err(SendFailed);
        }
        let Some(tx) = self.shared.peer_tx[self.dst].as_ref() else {
            return Err(SendFailed);
        };
        if frame_trace() {
            eprintln!(
                "[pdc-mpi proc] out dst={} src={} class={:?} seq={} len={}",
                self.dst,
                env.src,
                env.class,
                env.seq,
                env.payload.len()
            );
        }
        tx.send(Frame::Env(env)).map_err(|_| SendFailed)
    }
}

/// Read the first frame of a connection accepted by rank `me`'s listener:
/// the dialling peer's `Hello`, which must name a rank above `me` (only
/// higher ranks dial a listener) and inside a world of `size`. Returns
/// the peer's rank, or a typed [`io::ErrorKind::InvalidData`] /
/// [`io::ErrorKind::UnexpectedEof`] error for anything else.
fn read_hello<R: Read>(r: &mut R, me: usize, size: usize) -> io::Result<usize> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    match read_frame(r)? {
        Some(Frame::Hello { rank }) if rank > me && rank < size => Ok(rank),
        Some(Frame::Hello { rank }) => Err(invalid(format!(
            "Hello from rank {rank}; only ranks {}..{size} dial rank {me}",
            me + 1
        ))),
        Some(other) => Err(invalid(format!("expected Hello, got {other:?}"))),
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed the connection before its Hello",
        )),
    }
}

/// The multi-process transport for one world: built around this process's
/// rank and opened against the world's [`Progress`]
/// ([`ProcTransport::open`]), which yields the shared state and the socket
/// mesh the rest of the world's life runs on.
pub(crate) struct ProcTransport {
    rank: usize,
    size: usize,
    world: u32,
    dir: PathBuf,
}

impl ProcTransport {
    fn new(rank: usize, size: usize, world: u32, dir: PathBuf) -> Self {
        Self {
            rank,
            size,
            world,
            dir,
        }
    }

    fn sock_path(&self, rank: usize) -> PathBuf {
        self.dir.join(format!("w{}_r{}.sock", self.world, rank))
    }

    /// Connect the full socket mesh: bind own listener, dial every lower
    /// rank (they may not have bound yet — retry), accept every higher
    /// rank, identified by its `Hello`.
    fn connect_mesh(&self) -> Vec<Option<UnixStream>> {
        let own = self.sock_path(self.rank);
        let _ = std::fs::remove_file(&own);
        let listener = UnixListener::bind(&own).expect("bind rank socket");
        let deadline = Instant::now() + MESH_DEADLINE;
        let mut streams: Vec<Option<UnixStream>> = (0..self.size).map(|_| None).collect();
        for (peer, slot) in streams.iter_mut().enumerate().take(self.rank) {
            let path = self.dir.join(format!("w{}_r{peer}.sock", self.world));
            let stream = loop {
                match UnixStream::connect(&path) {
                    Ok(s) => break s,
                    Err(e) => {
                        assert!(
                            Instant::now() < deadline,
                            "rank {} could not reach rank {peer}'s socket within {:?}: {e}",
                            self.rank,
                            MESH_DEADLINE
                        );
                        std::thread::sleep(CONNECT_RETRY);
                    }
                }
            };
            let mut hello = BufWriter::new(stream.try_clone().expect("clone socket"));
            write_frame(&mut hello, &Frame::Hello { rank: self.rank }).expect("send hello");
            hello.flush().expect("flush hello");
            *slot = Some(stream);
        }
        for _ in self.rank + 1..self.size {
            let (stream, _) = listener.accept().expect("accept peer connection");
            // Read the Hello UNBUFFERED: a BufReader here would read ahead
            // and swallow any data frames the peer raced onto the socket
            // right behind its Hello — bytes that would vanish when the
            // temporary reader is dropped. `read_frame` never reads past
            // the frame, so it consumes exactly one.
            let rank = read_hello(&mut (&stream), self.rank, self.size)
                .unwrap_or_else(|e| panic!("rank {}: bad mesh handshake: {e}", self.rank));
            streams[rank] = Some(stream);
        }
        streams
    }

    /// Block until every rank's result is in or its process is known
    /// dead. Panics after [`RESULT_DEADLINE`] — this backend detects no
    /// deadlock, and failing loudly beats hanging a test suite.
    fn await_results(&self, shared: &Shared, progress: &Progress) {
        let deadline = Instant::now() + RESULT_DEADLINE;
        let mut results = shared
            .results
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            let all =
                (0..self.size).all(|r| results.contains_key(&r) || progress.failed_at(r).is_some());
            if all {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "rank {}: peer results missing after {:?} (got {:?} of {}); \
                 the proc backend has no deadlock detection — check the \
                 program with the thread backend",
                self.rank,
                RESULT_DEADLINE,
                results.keys().collect::<Vec<_>>(),
                self.size
            );
            (results, _) = shared
                .results_cv
                .wait_timeout(results, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Build the socket mesh, start every peer's reader and writer
    /// threads, and install the progress mirror. Returns the shared state,
    /// the mesh, the outbox row (a local channel for this rank, a socket
    /// route for every peer) and this rank's inbox, registered for the
    /// progress wakes.
    fn open(
        &self,
        progress: &Arc<Progress>,
    ) -> (Arc<Shared>, Mesh, Outboxes, chan::Receiver<Envelope>) {
        let streams = self.connect_mesh();
        // One frame queue per connected peer; the writer thread owns the
        // receiving half, everything else clones the sender out of
        // `Shared::peer_tx`.
        let mut peer_chans: Vec<Option<(chan::Sender<Frame>, chan::Receiver<Frame>)>> =
            streams.iter().map(|_| None).collect();
        for (peer, s) in streams.iter().enumerate() {
            if s.is_some() {
                peer_chans[peer] = Some(chan::channel());
            }
        }
        let shared = Arc::new(Shared {
            peer_tx: peer_chans
                .iter()
                .map(|c| c.as_ref().map(|(tx, _)| tx.clone()))
                .collect(),
            results: Mutex::new(BTreeMap::new()),
            results_cv: Condvar::new(),
        });
        progress.set_notifier(Arc::new(ProcNotifier {
            rank: self.rank,
            shared: Arc::clone(&shared),
        }));

        let (inbox_tx, inbox_rx) = chan::channel::<Envelope>();
        progress.register_waker(inbox_rx.waker());

        let shutdown = Arc::new(AtomicBool::new(false));
        let mut peers: Vec<Option<Peer>> = (0..self.size).map(|_| None).collect();
        for (peer, stream) in streams.into_iter().enumerate() {
            let Some(stream) = stream else { continue };
            let (_, frame_rx) = peer_chans[peer].take().expect("channel for live peer");
            let writer = {
                let stream = stream.try_clone().expect("clone socket");
                let stop = Arc::clone(&shutdown);
                std::thread::Builder::new()
                    .name(format!("pdcproc-w{}-to{}", self.world, peer))
                    .spawn(move || {
                        let mut out = BufWriter::new(stream);
                        // Drains queued frames before honouring the stop
                        // flag (a queued frame wins over the stop), so
                        // finalize never cuts off a peer mid-protocol.
                        while frame_rx
                            .wait_or_stop(|| stop.load(Ordering::Relaxed))
                            .is_ok()
                        {
                            while let Ok(frame) = frame_rx.try_recv() {
                                if write_frame(&mut out, &frame)
                                    .and_then(|()| out.flush())
                                    .is_err()
                                {
                                    return; // peer socket gone; reader reports it
                                }
                            }
                        }
                    })
                    .expect("spawn peer writer")
            };
            let reader = {
                let stream = stream.try_clone().expect("clone socket");
                let shared = Arc::clone(&shared);
                let progress = Arc::clone(progress);
                let inbox_tx = inbox_tx.clone();
                let back = shared.peer_tx[peer].clone().expect("live peer queue");
                let me = self.rank;
                std::thread::Builder::new()
                    .name(format!("pdcproc-w{}-from{}", self.world, peer))
                    .spawn(move || {
                        let mut input = BufReader::new(stream);
                        loop {
                            let frame = match read_frame(&mut input) {
                                Ok(Some(frame)) => frame,
                                // Clean EOF or a torn connection: either
                                // way the peer process is gone. If it
                                // never reported a result, that is a
                                // typed rank failure, not a hang.
                                Ok(None) | Err(_) => {
                                    if !shared.has_result(peer) {
                                        progress.mark_failed(peer, 0.0);
                                    }
                                    shared.results_cv.notify_all();
                                    return;
                                }
                            };
                            if frame_trace() {
                                eprintln!("[pdc-mpi proc] in peer={peer} frame={frame:?}");
                            }
                            match frame {
                                Frame::Env(env) => {
                                    let (rendezvous, seq) = (env.rendezvous, env.seq);
                                    // The local mailbox may already be
                                    // gone during teardown; late eager
                                    // traffic is dropped like on a real
                                    // network.
                                    let _ = inbox_tx.send(env);
                                    // The local rank refuses the
                                    // rendezvous envelopes it holds once
                                    // it is done. One landing after that
                                    // is refused here: its sender may have
                                    // looked for this rank's `Done` frame
                                    // before it arrived, and nothing else
                                    // would answer.
                                    if rendezvous && progress.is_done(me) {
                                        let refusal = Envelope::ack(me, seq, None);
                                        let _ = back.send(Frame::Env(refusal));
                                    }
                                }
                                Frame::Done { rank } => progress.mark_done(rank),
                                Frame::Failed { rank, at } => {
                                    progress.mark_failed(rank, at);
                                    shared.results_cv.notify_all();
                                }
                                Frame::AgreeEnter { rank, generation } => {
                                    progress.remote_agree_enter(rank, generation);
                                }
                                Frame::Result(res) => shared.store_result(*res),
                                Frame::Hello { .. } => {} // handshake only
                            }
                        }
                    })
                    .expect("spawn peer reader")
            };
            peers[peer] = Some(Peer {
                stream,
                writer,
                reader,
            });
        }
        let mesh = Mesh {
            peers,
            shutdown,
            sock_path: self.sock_path(self.rank),
        };

        let outboxes: Outboxes = (0..self.size)
            .map(|dst| {
                if dst == self.rank {
                    Box::new(inbox_tx.clone()) as Box<dyn Outbox>
                } else {
                    Box::new(ProcOutbox {
                        dst,
                        shared: Arc::clone(&shared),
                        progress: Arc::clone(progress),
                    }) as Box<dyn Outbox>
                }
            })
            .collect();
        (shared, mesh, outboxes, inbox_rx)
    }
}

/// The engine behind [`World::run_proc`](crate::World::run_proc): run the
/// local rank on this thread against a [`ProcTransport`] mesh, then merge
/// every process's published result into one [`RunOutput`] — each process
/// returns the same world view, SPMD-style.
pub(crate) fn run_proc_inner<T, F>(
    cfg: WorldConfig,
    f: F,
) -> (Result<RunOutput<T>>, Vec<Vec<CheckEvent>>)
where
    T: Serialize + Deserialize + Send,
    F: Fn(&mut Comm) -> Result<T> + Send + Sync,
{
    let mut cfg = cfg;
    // Cancellation is not supported across processes (a process kill
    // plays that role); see `CancelToken`.
    cfg.cancel = None;
    let setup = WorldSetup::new(&cfg, false);
    let progress = &setup.progress;
    let (rank, dir) = proc_identity(cfg.size);
    let world = WORLD_COUNTER.fetch_add(1, Ordering::SeqCst);
    let transport = ProcTransport::new(rank, cfg.size, world, dir);
    let (shared, mesh, outboxes, inbox) = transport.open(progress);

    let started = Instant::now();
    // No deadlock detection here: this process cannot count the ranks of
    // *other* processes that can move (see docs/backends.md).
    // `await_results` bounds the damage with a hard deadline.
    let link = Link::Chan {
        outboxes: &outboxes,
        inbox,
    };
    let (value, report) = setup.run_rank(rank, link, &f);
    let value = match value {
        Ok(v) => RankValue::Ok(v.to_value()),
        Err(e) => RankValue::Err(e),
    };
    shared.publish_result(RankResult {
        rank,
        value,
        report,
    });
    transport.await_results(&shared, progress);
    mesh.finalize();

    let mut results = shared.take_results();
    let outcomes = (0..cfg.size).map(|r| {
        let res = results.remove(&r).unwrap_or_else(|| RankResult {
            rank: r,
            // The rank's process died before reporting: synthesize the
            // typed failure every backend surfaces for a dead peer.
            value: RankValue::Err(Error::RankFailed {
                rank: r,
                at: progress.failed_at(r).unwrap_or(0.0),
            }),
            report: RankReport::default(),
        });
        let value = match res.value {
            RankValue::Ok(v) => {
                Ok(T::from_value(&v).expect("run_proc result deserializes on every rank"))
            }
            RankValue::Err(e) => Err(e),
        };
        (value, res.report)
    });
    fold_outcomes(outcomes, started, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(frames: &[Frame]) -> Vec<u8> {
        let mut buf = Vec::new();
        for frame in frames {
            write_frame(&mut buf, frame).expect("encode");
        }
        buf
    }

    #[test]
    fn handshake_accepts_a_hello_from_a_higher_rank() {
        let bytes = frames(&[Frame::Hello { rank: 3 }, Frame::Done { rank: 3 }]);
        let mut cursor = &bytes[..];
        assert_eq!(read_hello(&mut cursor, 1, 4).expect("valid hello"), 3);
        assert!(
            matches!(read_frame(&mut cursor), Ok(Some(Frame::Done { rank: 3 }))),
            "the frame behind the Hello is left unread"
        );
    }

    #[test]
    fn handshake_rejects_a_frame_that_is_not_hello() {
        let bytes = frames(&[Frame::Done { rank: 2 }]);
        let err = read_hello(&mut &bytes[..], 0, 4).expect_err("not a Hello");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("expected Hello"), "{err}");
    }

    #[test]
    fn handshake_rejects_a_hello_from_an_impossible_rank() {
        for rank in [0, 2, 9] {
            let bytes = frames(&[Frame::Hello { rank }]);
            let err = read_hello(&mut &bytes[..], 2, 4).expect_err("rank out of range");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        let err = read_hello(&mut &[][..], 2, 4).expect_err("closed before Hello");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
