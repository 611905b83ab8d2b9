//! Per-rank communication instrumentation.
//!
//! Every public primitive invocation is counted; collectives additionally
//! account the point-to-point traffic they generate. The transport folds
//! each completed operation in once, as an [`Obs`]. The counters feed two
//! reproduction artifacts: **Table II** (which MPI primitives each module
//! uses) via [`CommStats::used_primitives`], and the communication-volume
//! reasoning of Modules 3 and 5 via the byte counters.

use crate::observe::Obs;
use crate::trace::SpanKind;
use crate::tune::CollAlgo;

/// Every user-facing primitive the runtime exposes, named after its MPI
/// counterpart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Primitive {
    Send,
    Recv,
    Isend,
    Irecv,
    Wait,
    Sendrecv,
    Ssend,
    Probe,
    Iprobe,
    GetCount,
    Barrier,
    Bcast,
    Scatter,
    Scatterv,
    Gather,
    Gatherv,
    Allgather,
    Allgatherv,
    Reduce,
    Allreduce,
    Alltoall,
    Alltoallv,
    Scan,
    Exscan,
    ReduceScatter,
    CommSplit,
}

impl Primitive {
    /// All primitives, in display order (the order of Table II plus the
    /// extras the runtime offers).
    pub const ALL: [Primitive; 26] = [
        Primitive::Send,
        Primitive::Recv,
        Primitive::Isend,
        Primitive::Irecv,
        Primitive::Wait,
        Primitive::Sendrecv,
        Primitive::Ssend,
        Primitive::Probe,
        Primitive::Iprobe,
        Primitive::GetCount,
        Primitive::Barrier,
        Primitive::Bcast,
        Primitive::Scatter,
        Primitive::Scatterv,
        Primitive::Gather,
        Primitive::Gatherv,
        Primitive::Allgather,
        Primitive::Allgatherv,
        Primitive::Reduce,
        Primitive::Allreduce,
        Primitive::Alltoall,
        Primitive::Alltoallv,
        Primitive::Scan,
        Primitive::Exscan,
        Primitive::ReduceScatter,
        Primitive::CommSplit,
    ];

    /// The `MPI_*` spelling, for reports that mirror the paper's tables.
    pub fn mpi_name(self) -> &'static str {
        match self {
            Primitive::Send => "MPI_Send",
            Primitive::Recv => "MPI_Recv",
            Primitive::Isend => "MPI_Isend",
            Primitive::Irecv => "MPI_Irecv",
            Primitive::Wait => "MPI_Wait",
            Primitive::Sendrecv => "MPI_Sendrecv",
            Primitive::Ssend => "MPI_Ssend",
            Primitive::Probe => "MPI_Probe",
            Primitive::Iprobe => "MPI_Iprobe",
            Primitive::GetCount => "MPI_Get_count",
            Primitive::Barrier => "MPI_Barrier",
            Primitive::Bcast => "MPI_Bcast",
            Primitive::Scatter => "MPI_Scatter",
            Primitive::Scatterv => "MPI_Scatterv",
            Primitive::Gather => "MPI_Gather",
            Primitive::Gatherv => "MPI_Gatherv",
            Primitive::Allgather => "MPI_Allgather",
            Primitive::Allgatherv => "MPI_Allgatherv",
            Primitive::Reduce => "MPI_Reduce",
            Primitive::Allreduce => "MPI_Allreduce",
            Primitive::Alltoall => "MPI_Alltoall",
            Primitive::Alltoallv => "MPI_Alltoallv",
            Primitive::Scan => "MPI_Scan",
            Primitive::Exscan => "MPI_Exscan",
            Primitive::ReduceScatter => "MPI_Reduce_scatter_block",
            Primitive::CommSplit => "MPI_Comm_split",
        }
    }
}

// `CommStats` indexes its call counters by discriminant, which is the
// position in `ALL` only while `ALL` lists the variants in declaration
// order.
const _: () = {
    let mut i = 0;
    while i < Primitive::ALL.len() {
        assert!(Primitive::ALL[i] as usize == i);
        i += 1;
    }
};

/// Cumulative transfer volume split by transport protocol. Eager sends
/// are buffered and complete immediately; rendezvous sends (payload above
/// the eager threshold) block until the matching receive. Retransmissions
/// under a fault plan count each physical copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ProtocolVolume {
    /// Messages sent eagerly (including every collective-internal hop).
    pub eager_msgs: u64,
    /// Bytes sent eagerly.
    pub eager_bytes: u64,
    /// Messages sent under the rendezvous protocol.
    pub rendezvous_msgs: u64,
    /// Bytes sent under the rendezvous protocol.
    pub rendezvous_bytes: u64,
}

impl ProtocolVolume {
    /// Total messages regardless of protocol.
    pub fn total_msgs(&self) -> u64 {
        self.eager_msgs + self.rendezvous_msgs
    }

    /// Total bytes regardless of protocol.
    pub fn total_bytes(&self) -> u64 {
        self.eager_bytes + self.rendezvous_bytes
    }
}

/// Collective traffic attributed to one [`CollAlgo`]. Counted only while
/// algorithm selection is active (a tuning table installed) — untuned
/// runs route everything through the seed flat algorithm without
/// labelling, exactly as before. pdc-prof uses this to
/// attribute protocol volume to the algorithm that generated it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AlgoVolume {
    /// Collective invocations that resolved to this algorithm.
    pub calls: u64,
    /// Collective-internal messages this algorithm sent.
    pub msgs: u64,
    /// Collective-internal bytes this algorithm sent.
    pub bytes: u64,
}

/// Snapshot of one rank's communication activity: plain data, no heap.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CommStats {
    /// Invocations per primitive, indexed by discriminant.
    calls: [u64; Primitive::ALL.len()],
    protocol: ProtocolVolume,
    /// Per-algorithm collective traffic, indexed by [`CollAlgo::index`].
    algo_volume: [AlgoVolume; 3],
    /// Point-to-point messages physically sent (including those generated
    /// inside collectives).
    pub msgs_sent: u64,
    /// Bytes physically sent.
    pub bytes_sent: u64,
    /// Messages physically received.
    pub msgs_received: u64,
    /// Bytes physically received.
    pub bytes_received: u64,
    /// Simulated seconds this rank spent inside communication primitives
    /// (transfer + synchronization wait).
    pub sim_comm_time: f64,
    /// Simulated seconds this rank spent in explicitly charged computation.
    pub sim_compute_time: f64,
}

impl CommStats {
    /// Fresh, all-zero statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one invocation of `p`.
    pub fn record_call(&mut self, p: Primitive) {
        self.calls[p as usize] += 1;
    }

    /// Number of times `p` was invoked.
    pub fn calls(&self, p: Primitive) -> u64 {
        self.calls[p as usize]
    }

    /// Cumulative sent volume split eager vs rendezvous. pdc-prof reads
    /// this instead of re-deriving protocol traffic from traces.
    pub fn protocol_volume(&self) -> ProtocolVolume {
        self.protocol
    }

    /// Fold one completed operation in. A send counts each of its
    /// physical copies (retransmissions included) and its collective
    /// traffic once.
    #[inline]
    pub(crate) fn fold(&mut self, obs: &Obs) {
        let span = &obs.span;
        if span.kind == SpanKind::Compute {
            self.sim_compute_time += obs.charged;
            return;
        }
        self.sim_comm_time += obs.charged;
        let bytes = span.bytes as u64;
        if span.kind == SpanKind::Recv {
            self.msgs_received += 1;
            self.bytes_received += bytes;
        } else if !span.rdv_wait {
            let copies = u64::from(obs.attempts);
            self.msgs_sent += copies;
            self.bytes_sent += copies * bytes;
            if obs.synchronous {
                self.protocol.rendezvous_msgs += copies;
                self.protocol.rendezvous_bytes += copies * bytes;
            } else {
                self.protocol.eager_msgs += copies;
                self.protocol.eager_bytes += copies * bytes;
            }
            if let Some(algo) = span.algo {
                let v = &mut self.algo_volume[algo.index()];
                v.msgs += 1;
                v.bytes += bytes;
            }
        }
    }

    /// Collective traffic attributed to `algo` (see [`AlgoVolume`]).
    pub fn algo_volume(&self, algo: CollAlgo) -> AlgoVolume {
        self.algo_volume[algo.index()]
    }

    /// Count one collective invocation that resolved to `algo`.
    pub(crate) fn record_algo_call(&mut self, algo: CollAlgo) {
        self.algo_volume[algo.index()].calls += 1;
    }

    /// The set of primitives invoked at least once, in display order.
    pub fn used_primitives(&self) -> Vec<Primitive> {
        Primitive::ALL
            .iter()
            .copied()
            .filter(|&p| self.calls(p) > 0)
            .collect()
    }

    /// Merge another rank's statistics into this one (for world-level
    /// aggregation).
    pub fn merge(&mut self, other: &CommStats) {
        for (mine, theirs) in self.calls.iter_mut().zip(&other.calls) {
            *mine += theirs;
        }
        self.protocol.eager_msgs += other.protocol.eager_msgs;
        self.protocol.eager_bytes += other.protocol.eager_bytes;
        self.protocol.rendezvous_msgs += other.protocol.rendezvous_msgs;
        self.protocol.rendezvous_bytes += other.protocol.rendezvous_bytes;
        for (mine, theirs) in self.algo_volume.iter_mut().zip(&other.algo_volume) {
            mine.calls += theirs.calls;
            mine.msgs += theirs.msgs;
            mine.bytes += theirs.bytes;
        }
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_received += other.msgs_received;
        self.bytes_received += other.bytes_received;
        self.sim_comm_time += other.sim_comm_time;
        self.sim_compute_time += other.sim_compute_time;
    }

    /// Fraction of simulated time spent communicating (0 when nothing was
    /// charged at all).
    pub fn comm_fraction(&self) -> f64 {
        let total = self.sim_comm_time + self.sim_compute_time;
        if total <= 0.0 {
            0.0
        } else {
            self.sim_comm_time / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One send of `bytes` in `attempts` physical copies.
    fn send(bytes: usize, synchronous: bool, attempts: u32, algo: Option<CollAlgo>) -> Obs {
        let span = crate::trace::Span {
            algo,
            ..crate::trace::Span::basic(SpanKind::Send, 0.0, 1.0, 1, bytes)
        };
        Obs {
            synchronous,
            attempts,
            ..Obs::new(span, 1.0)
        }
    }

    #[test]
    fn counters_start_zero_and_accumulate() {
        let mut s = CommStats::new();
        assert_eq!(s.calls(Primitive::Send), 0);
        s.record_call(Primitive::Send);
        s.record_call(Primitive::Send);
        s.record_call(Primitive::Reduce);
        assert_eq!(s.calls(Primitive::Send), 2);
        assert_eq!(s.calls(Primitive::Reduce), 1);
        assert_eq!(
            s.used_primitives(),
            vec![Primitive::Send, Primitive::Reduce]
        );
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = CommStats::new();
        a.record_call(Primitive::Bcast);
        a.bytes_sent = 100;
        a.sim_comm_time = 1.0;
        let mut b = CommStats::new();
        b.record_call(Primitive::Bcast);
        b.record_call(Primitive::Recv);
        b.bytes_sent = 50;
        b.sim_compute_time = 2.0;
        a.merge(&b);
        assert_eq!(a.calls(Primitive::Bcast), 2);
        assert_eq!(a.calls(Primitive::Recv), 1);
        assert_eq!(a.bytes_sent, 150);
        assert!((a.comm_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn protocol_volume_accumulates_and_merges() {
        let mut a = CommStats::new();
        a.fold(&send(100, false, 1, None));
        a.fold(&send(4096, true, 1, None));
        let mut b = CommStats::new();
        b.fold(&send(50, false, 1, None));
        a.merge(&b);
        let v = a.protocol_volume();
        assert_eq!(v.eager_msgs, 2);
        assert_eq!(v.eager_bytes, 150);
        assert_eq!(v.rendezvous_msgs, 1);
        assert_eq!(v.rendezvous_bytes, 4096);
        assert_eq!(v.total_msgs(), 3);
        assert_eq!(v.total_bytes(), 4246);
    }

    #[test]
    fn algo_volume_accumulates_and_merges() {
        let mut a = CommStats::new();
        a.record_algo_call(CollAlgo::Chunked);
        a.fold(&send(1024, false, 1, Some(CollAlgo::Chunked)));
        a.fold(&send(1024, false, 1, Some(CollAlgo::Chunked)));
        let mut b = CommStats::new();
        b.record_algo_call(CollAlgo::Chunked);
        b.fold(&send(8, false, 1, Some(CollAlgo::Chunked)));
        b.record_algo_call(CollAlgo::Flat);
        a.merge(&b);
        let c = a.algo_volume(CollAlgo::Chunked);
        assert_eq!((c.calls, c.msgs, c.bytes), (2, 3, 2056));
        assert_eq!(a.algo_volume(CollAlgo::Flat).calls, 1);
        assert_eq!(a.algo_volume(CollAlgo::Hierarchical), AlgoVolume::default());
    }

    #[test]
    fn a_retransmitted_send_counts_every_copy_and_its_algorithm_traffic_once() {
        let mut s = CommStats::new();
        s.fold(&send(64, true, 3, Some(CollAlgo::Flat)));
        assert_eq!((s.msgs_sent, s.bytes_sent), (3, 192));
        let v = s.protocol_volume();
        assert_eq!((v.rendezvous_msgs, v.rendezvous_bytes), (3, 192));
        let a = s.algo_volume(CollAlgo::Flat);
        assert_eq!((a.msgs, a.bytes), (1, 64));
        assert_eq!(s.sim_comm_time, 1.0);
    }

    #[test]
    fn calls_serialize_as_one_counter_per_primitive() {
        let mut s = CommStats::new();
        s.record_call(Primitive::CommSplit);
        let json = serde_json::to_string(&s).unwrap();
        let zeros = vec!["0"; Primitive::ALL.len() - 1].join(",");
        assert!(json.contains(&format!("[{zeros},1]")), "{json}");
        let back: CommStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn mpi_names_cover_all_primitives() {
        for p in Primitive::ALL {
            assert!(p.mpi_name().starts_with("MPI_"));
        }
    }

    #[test]
    fn comm_fraction_of_idle_rank_is_zero() {
        assert_eq!(CommStats::new().comm_fraction(), 0.0);
    }
}
