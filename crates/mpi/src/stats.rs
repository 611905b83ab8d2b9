//! Per-rank communication instrumentation.
//!
//! Every public primitive invocation is counted; collectives additionally
//! account the point-to-point traffic they generate. The counters feed two
//! reproduction artifacts: **Table II** (which MPI primitives each module
//! uses) via [`CommStats::used_primitives`], and the communication-volume
//! reasoning of Modules 3 and 5 via the byte counters.

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

    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&p| p == self)
            .expect("ALL is exhaustive")
    }
}

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

/// Snapshot of one rank's communication activity.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CommStats {
    calls: Vec<u64>,
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
        Self {
            calls: vec![0; Primitive::ALL.len()],
            ..Self::default()
        }
    }

    /// Record one invocation of `p`.
    pub fn record_call(&mut self, p: Primitive) {
        if self.calls.is_empty() {
            self.calls = vec![0; Primitive::ALL.len()];
        }
        self.calls[p.index()] += 1;
    }

    /// Number of times `p` was invoked.
    pub fn calls(&self, p: Primitive) -> u64 {
        self.calls.get(p.index()).copied().unwrap_or(0)
    }

    /// Cumulative sent volume split eager vs rendezvous. pdc-prof reads
    /// this instead of re-deriving protocol traffic from traces.
    pub fn protocol_volume(&self) -> ProtocolVolume {
        self.protocol
    }

    /// Account one physical transmission of `bytes` under the given
    /// protocol (called by the transport for every enqueued copy,
    /// including retransmissions).
    pub(crate) fn record_transmission(&mut self, bytes: usize, synchronous: bool) {
        if synchronous {
            self.protocol.rendezvous_msgs += 1;
            self.protocol.rendezvous_bytes += bytes as u64;
        } else {
            self.protocol.eager_msgs += 1;
            self.protocol.eager_bytes += bytes as u64;
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

    /// Attribute one collective-internal message of `bytes` to `algo`.
    pub(crate) fn record_algo_traffic(&mut self, algo: CollAlgo, bytes: usize) {
        let v = &mut self.algo_volume[algo.index()];
        v.msgs += 1;
        v.bytes += bytes as u64;
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
        if self.calls.is_empty() {
            self.calls = vec![0; Primitive::ALL.len()];
        }
        for (i, c) in other.calls.iter().enumerate() {
            self.calls[i] += c;
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
        a.record_transmission(100, false);
        a.record_transmission(4096, true);
        let mut b = CommStats::new();
        b.record_transmission(50, false);
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
        a.record_algo_traffic(CollAlgo::Chunked, 1024);
        a.record_algo_traffic(CollAlgo::Chunked, 1024);
        let mut b = CommStats::new();
        b.record_algo_call(CollAlgo::Chunked);
        b.record_algo_traffic(CollAlgo::Chunked, 8);
        b.record_algo_call(CollAlgo::Flat);
        a.merge(&b);
        let c = a.algo_volume(CollAlgo::Chunked);
        assert_eq!((c.calls, c.msgs, c.bytes), (2, 3, 2056));
        assert_eq!(a.algo_volume(CollAlgo::Flat).calls, 1);
        assert_eq!(a.algo_volume(CollAlgo::Hierarchical), AlgoVolume::default());
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
