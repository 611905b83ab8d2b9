//! The `Comm` API surface the analyzer models: every tracked method with
//! the argument positions of its payload, peer, tag, root, and operator.
//! Mirrors the signatures in `crates/mpi/src/comm.rs`.

/// What a tracked method does, for the walker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Eager point-to-point send (completes locally).
    Send,
    /// Synchronous send — blocks until the receiver posts a match.
    Ssend,
    /// Nonblocking send producing a `SendRequest`.
    Isend,
    /// Blocking receive.
    Recv,
    /// Nonblocking receive producing a `RecvRequest`.
    Irecv,
    /// Probe — evidence the rank consumes messages of this (src, tag).
    Probe,
    /// Combined send+recv (never deadlocks against itself).
    Sendrecv,
    /// Completes requests named in its argument.
    Wait,
    /// Collective — must be called by every rank in aligned order.
    Collective,
}

/// Static description of one tracked method.
#[derive(Debug, Clone, Copy)]
pub struct OpSpec {
    pub name: &'static str,
    pub class: OpClass,
    /// Argument index of the payload (element-type source), if any.
    pub data: Option<usize>,
    /// Argument index of the peer rank (dest for sends, src for recvs).
    pub peer: Option<usize>,
    /// Argument index of the tag.
    pub tag: Option<usize>,
    /// Argument index of the root rank (collectives).
    pub root: Option<usize>,
    /// Argument index of the reduction operator (collectives).
    pub op: Option<usize>,
}

const fn spec(
    name: &'static str,
    class: OpClass,
    data: Option<usize>,
    peer: Option<usize>,
    tag: Option<usize>,
    root: Option<usize>,
    op: Option<usize>,
) -> OpSpec {
    OpSpec {
        name,
        class,
        data,
        peer,
        tag,
        root,
        op,
    }
}

/// Every method the analyzer models. `sendrecv` carries the send roles
/// here; the walker derives the recv half from fixed positions (3, 4).
pub const SPECS: &[OpSpec] = &[
    spec("send", OpClass::Send, Some(0), Some(1), Some(2), None, None),
    spec(
        "ssend",
        OpClass::Ssend,
        Some(0),
        Some(1),
        Some(2),
        None,
        None,
    ),
    spec(
        "isend",
        OpClass::Isend,
        Some(0),
        Some(1),
        Some(2),
        None,
        None,
    ),
    spec("recv", OpClass::Recv, None, Some(0), Some(1), None, None),
    spec("irecv", OpClass::Irecv, None, Some(0), Some(1), None, None),
    spec(
        "recv_into",
        OpClass::Recv,
        Some(0),
        Some(1),
        Some(2),
        None,
        None,
    ),
    spec(
        "sendrecv",
        OpClass::Sendrecv,
        Some(0),
        Some(1),
        Some(2),
        None,
        None,
    ),
    spec("probe", OpClass::Probe, None, Some(0), Some(1), None, None),
    spec("iprobe", OpClass::Probe, None, Some(0), Some(1), None, None),
    spec("wait_send", OpClass::Wait, None, None, None, None, None),
    spec("wait_recv", OpClass::Wait, None, None, None, None, None),
    spec(
        "wait_all_sends",
        OpClass::Wait,
        None,
        None,
        None,
        None,
        None,
    ),
    spec("test_recv", OpClass::Wait, None, None, None, None, None),
    spec("barrier", OpClass::Collective, None, None, None, None, None),
    spec(
        "bcast",
        OpClass::Collective,
        Some(0),
        None,
        None,
        Some(1),
        None,
    ),
    spec(
        "scatter",
        OpClass::Collective,
        Some(0),
        None,
        None,
        Some(1),
        None,
    ),
    spec(
        "scatterv",
        OpClass::Collective,
        Some(0),
        None,
        None,
        Some(2),
        None,
    ),
    spec(
        "gather",
        OpClass::Collective,
        Some(0),
        None,
        None,
        Some(1),
        None,
    ),
    spec(
        "gatherv",
        OpClass::Collective,
        Some(0),
        None,
        None,
        Some(1),
        None,
    ),
    spec(
        "allgather",
        OpClass::Collective,
        Some(0),
        None,
        None,
        None,
        None,
    ),
    spec(
        "allgatherv",
        OpClass::Collective,
        Some(0),
        None,
        None,
        None,
        None,
    ),
    spec(
        "reduce",
        OpClass::Collective,
        Some(0),
        None,
        None,
        Some(2),
        Some(1),
    ),
    spec(
        "reduce_with",
        OpClass::Collective,
        Some(0),
        None,
        None,
        Some(1),
        None,
    ),
    spec(
        "allreduce",
        OpClass::Collective,
        Some(0),
        None,
        None,
        None,
        Some(1),
    ),
    spec(
        "allreduce_with",
        OpClass::Collective,
        Some(0),
        None,
        None,
        None,
        None,
    ),
    spec(
        "alltoall",
        OpClass::Collective,
        Some(0),
        None,
        None,
        None,
        None,
    ),
    spec(
        "alltoallv",
        OpClass::Collective,
        Some(0),
        None,
        None,
        None,
        None,
    ),
    spec(
        "scan",
        OpClass::Collective,
        Some(0),
        None,
        None,
        None,
        Some(1),
    ),
    spec(
        "scan_with",
        OpClass::Collective,
        Some(0),
        None,
        None,
        None,
        None,
    ),
    spec(
        "exscan",
        OpClass::Collective,
        Some(0),
        None,
        None,
        None,
        Some(1),
    ),
    spec(
        "reduce_scatter_block",
        OpClass::Collective,
        Some(0),
        None,
        None,
        None,
        Some(1),
    ),
    spec("agree", OpClass::Collective, None, None, None, None, None),
    spec("split", OpClass::Collective, None, None, None, None, None),
    spec("shrink", OpClass::Collective, None, None, None, None, None),
];

/// Resolve a tracked method.
pub fn lookup(name: &str) -> Option<&'static OpSpec> {
    SPECS.iter().find(|s| s.name == name)
}

pub fn is_tracked(name: &str) -> bool {
    lookup(name).is_some()
}
