//! Collective algorithm selection and autotuning.
//!
//! Every collective in [`Comm`](crate::Comm) can run under more than one
//! algorithm ([`CollAlgo`]): the original flat binomial tree / ring, a
//! hierarchical node-aware variant (per-node leaders exchange over the
//! postal inter-node network, members fan out over the intra-node bus),
//! and a pipelined variant that streams fixed-size chunks through the
//! tree so interior ranks forward chunk *k* while receiving *k+1*.
//!
//! Which algorithm runs is a **pure function** of
//! `(tuning table, collective kind, payload bytes, ranks, nodes,
//! placement layout)` — see [`resolve`] — so a tuned run replays
//! bit-identically under
//! pdc-sched: no wall-clock feedback, no per-call state. By default no
//! table is loaded and every collective keeps the seed flat algorithm;
//! selection activates only when a table is installed
//! ([`crate::WorldConfig::with_tuning`] or `PDC_MPI_TUNE_FILE`). The
//! table is the only way to choose an algorithm: to force one, install
//! [`TuningTable::forcing`].
//!
//! The [`autotune`] entry point measures algorithm × size-class ×
//! (ranks, nodes) cells on the simulated clock, each candidate a step
//! program on the event engine under a forcing table (deterministic and
//! host-independent: collectives match exact sources only), and produces a
//! [`TuningTable`] that `mpi_tune` persists as JSON (`TUNING_mpi.json`
//! at the repo root is the checked-in table for the CI machine class).
//! `docs/collectives.md` walks through the format and the selection
//! rules.

use crate::error::Result;
use crate::reduce::Op;
use crate::step::{StepComm, StepFuture, StepProgram};
use crate::world::{World, WorldConfig};
use pdc_cluster::{Placement, PlacementPolicy};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Chunk granularity of the pipelined reduction, in bytes; payloads
/// below twice this stay unchunked ([`applicable`]).
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Chunk granularity of the pipelined chain broadcast, in bytes. Finer
/// than [`CHUNK_BYTES`]: a chain's fill time grows with the participant
/// count, so it amortises over more, smaller chunks.
pub const BCAST_CHUNK_BYTES: usize = 16 * 1024;

/// Upper bound on pipeline depth: chunk tags live in a dedicated slice of
/// the per-collective tag stride, and gigantic payloads gain nothing from
/// more in-flight chunks than this.
pub const MAX_CHUNKS: usize = 64;

/// Format version of the tables [`autotune`] writes.
const TABLE_VERSION: u32 = 2;

/// Machine class the checked-in table was tuned for: the
/// `MachineModel::cluster` postal model (0.5 µs / 20 GB/s intra-node,
/// 2 µs / 10 GB/s inter-node, 0.2 µs send overhead).
pub const CI_MACHINE_CLASS: &str = "pdc-cluster-v1";

/// A collective algorithm. `Flat` is always the algorithm the seed
/// runtime shipped with (binomial tree for bcast/reduce, ring for
/// allgather, dissemination for barrier, skewed eager exchange for
/// alltoall).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollAlgo {
    /// The seed algorithm: one fixed tree/ring, topology-blind.
    Flat,
    /// Node-aware: per-node leaders run the inter-node exchange over the
    /// postal model; members fan in/out over the shared intra-node bus.
    Hierarchical,
    /// Pipelined: the payload streams in fixed-size chunks. Reductions
    /// stream through the *same* flat tree with the *same* fold order —
    /// byte-identical results, including floating-point reductions —
    /// while broadcasts (pure data movement) stream down a chain, so
    /// every rank forwards the payload exactly once instead of the root
    /// serialising log₂(p) full copies.
    Chunked,
}

impl CollAlgo {
    /// All algorithms, in tie-break preference order (`Flat` first: when
    /// measurements tie, keep the seed behaviour).
    pub const ALL: [CollAlgo; 3] = [CollAlgo::Flat, CollAlgo::Hierarchical, CollAlgo::Chunked];

    /// Stable lowercase name (used in span labels and bench cell names).
    pub fn name(self) -> &'static str {
        match self {
            CollAlgo::Flat => "flat",
            CollAlgo::Hierarchical => "hier",
            CollAlgo::Chunked => "chunked",
        }
    }

    /// Dense index for per-algorithm accounting arrays.
    pub fn index(self) -> usize {
        match self {
            CollAlgo::Flat => 0,
            CollAlgo::Hierarchical => 1,
            CollAlgo::Chunked => 2,
        }
    }

    /// Wire id for the bcast algorithm header (root → non-roots).
    pub(crate) fn wire_id(self) -> u64 {
        self.index() as u64
    }

    /// Inverse of [`CollAlgo::wire_id`].
    pub(crate) fn from_wire_id(id: u64) -> Option<CollAlgo> {
        CollAlgo::ALL.get(id as usize).copied()
    }
}

/// Which collective a tuning cell (or a selection query) is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum CollKind {
    Barrier,
    Bcast,
    Reduce,
    Allreduce,
    Gather,
    Allgather,
    Allgatherv,
    Alltoall,
}

impl CollKind {
    /// All kinds the tuner covers.
    pub const ALL: [CollKind; 8] = [
        CollKind::Barrier,
        CollKind::Bcast,
        CollKind::Reduce,
        CollKind::Allreduce,
        CollKind::Gather,
        CollKind::Allgather,
        CollKind::Allgatherv,
        CollKind::Alltoall,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            CollKind::Barrier => "barrier",
            CollKind::Bcast => "bcast",
            CollKind::Reduce => "reduce",
            CollKind::Allreduce => "allreduce",
            CollKind::Gather => "gather",
            CollKind::Allgather => "allgather",
            CollKind::Allgatherv => "allgatherv",
            CollKind::Alltoall => "alltoall",
        }
    }
}

/// Message-size class a tuning cell covers. Selection buckets the payload
/// (bytes of the *root/per-rank* buffer, 0 for barrier and the
/// variable-length collectives) so one table row serves a band of sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SizeClass {
    /// ≤ 4 KiB — latency-bound.
    Tiny,
    /// ≤ 64 KiB — around the chunk size.
    Small,
    /// ≤ 1 MiB — bandwidth-bound, pipelinable.
    Large,
    /// > 1 MiB.
    Huge,
}

impl SizeClass {
    /// All classes, smallest first.
    pub const ALL: [SizeClass; 4] = [
        SizeClass::Tiny,
        SizeClass::Small,
        SizeClass::Large,
        SizeClass::Huge,
    ];

    /// Bucket a payload size.
    pub fn of(bytes: usize) -> SizeClass {
        if bytes <= 4 * 1024 {
            SizeClass::Tiny
        } else if bytes <= 64 * 1024 {
            SizeClass::Small
        } else if bytes <= 1024 * 1024 {
            SizeClass::Large
        } else {
            SizeClass::Huge
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            SizeClass::Tiny => "tiny",
            SizeClass::Small => "small",
            SizeClass::Large => "large",
            SizeClass::Huge => "huge",
        }
    }
}

/// Shape of the rank→node map a tuning cell was measured under (and the
/// third axis of every selection query, next to ranks and nodes).
///
/// The hierarchical algorithms derive their leader groups from the
/// *actual* placement (`Placement::node_of`), so they stay correct under
/// any rank→node map — but their measured cost does not transfer: a flat
/// binomial tree whose near neighbours are node-local under `Block`
/// placement crosses the inter-node network on almost every edge under
/// `RoundRobin`. A table trained only on block placement therefore
/// mispredicts scattered worlds, which is why cells carry this key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacementLayout {
    /// Every node's ranks are one contiguous run in rank order (the
    /// `PlacementPolicy::Block` shape, and the degenerate single-node
    /// case).
    Blocked,
    /// At least one node's ranks are interleaved with another's (the
    /// `PlacementPolicy::RoundRobin` shape).
    Scattered,
}

impl PlacementLayout {
    /// Both layouts, blocked first (the historical, pre-layout key).
    pub const ALL: [PlacementLayout; 2] = [PlacementLayout::Blocked, PlacementLayout::Scattered];

    /// Stable lowercase name (bench cell names, tuner output).
    pub fn name(self) -> &'static str {
        match self {
            PlacementLayout::Blocked => "blocked",
            PlacementLayout::Scattered => "scattered",
        }
    }

    /// Classify a whole-world placement: walk ranks in order and ask
    /// whether any node reappears after the walk has left it.
    pub fn of_placement(placement: &Placement) -> PlacementLayout {
        Self::of_nodes((0..placement.n_ranks()).map(|r| placement.node_of(r)))
    }

    /// Classify a sub-communicator: the walk order is the member list
    /// (sub-rank order), the node map is the world placement's.
    pub fn of_members(placement: &Placement, members: &[usize]) -> PlacementLayout {
        Self::of_nodes(members.iter().map(|&r| placement.node_of(r)))
    }

    /// `Blocked` iff every node's ranks form one contiguous run of the
    /// walk; a node seen again after the walk moved off it means the
    /// ranks are interleaved.
    fn of_nodes(nodes: impl Iterator<Item = usize>) -> PlacementLayout {
        let mut seen: Vec<usize> = Vec::new();
        for node in nodes {
            match seen.last() {
                Some(&last) if last == node => {}
                _ if seen.contains(&node) => return PlacementLayout::Scattered,
                _ => seen.push(node),
            }
        }
        PlacementLayout::Blocked
    }

    /// The placement policy that produces this layout (used by the tuner
    /// to build measurement worlds).
    pub fn policy(self) -> PlacementPolicy {
        match self {
            PlacementLayout::Blocked => PlacementPolicy::Block,
            PlacementLayout::Scattered => PlacementPolicy::RoundRobin,
        }
    }
}

/// Simulated time one algorithm took in one tuning cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgoTime {
    /// The algorithm measured.
    pub algo: CollAlgo,
    /// Simulated microseconds per operation (mean over the cell's iters).
    pub sim_us: f64,
}

/// One measured cell: the winning algorithm for a
/// (kind, size class, ranks, nodes, layout) point, with the full
/// measurement so students can inspect *why* it won.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TuneCell {
    /// Collective measured.
    pub kind: CollKind,
    /// Payload bucket measured.
    pub size_class: SizeClass,
    /// World size.
    pub ranks: usize,
    /// Nodes the ranks were placed over.
    pub nodes: usize,
    /// Rank→node shape the measurement world used.
    pub layout: PlacementLayout,
    /// Payload bytes actually benchmarked (representative of the class).
    pub probe_bytes: usize,
    /// The fastest algorithm (ties keep `Flat`).
    pub best: CollAlgo,
    /// Every applicable algorithm's measured time, slowest last.
    pub measured: Vec<AlgoTime>,
}

// Hand-written (the derive cannot default a field): v1 tables predate the
// layout key and were always measured under block placement, so a missing
// `layout` member reads as `Blocked` instead of failing the whole load.
impl serde::Deserialize for TuneCell {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        Ok(TuneCell {
            kind: serde::Deserialize::from_value(v.field("kind"))?,
            size_class: serde::Deserialize::from_value(v.field("size_class"))?,
            ranks: serde::Deserialize::from_value(v.field("ranks"))?,
            nodes: serde::Deserialize::from_value(v.field("nodes"))?,
            layout: Option::<PlacementLayout>::from_value(v.field("layout"))?
                .unwrap_or(PlacementLayout::Blocked),
            probe_bytes: serde::Deserialize::from_value(v.field("probe_bytes"))?,
            best: serde::Deserialize::from_value(v.field("best"))?,
            measured: serde::Deserialize::from_value(v.field("measured"))?,
        })
    }
}

/// A tuning table bound to one world: the world's placement layout is
/// classified once, when the world starts, instead of by an O(ranks) walk
/// on every rank's every collective call.
pub(crate) struct WorldTuning {
    pub(crate) table: Arc<TuningTable>,
    pub(crate) world_layout: PlacementLayout,
}

impl WorldTuning {
    /// Bind `table` (if any) to a world placed by `placement`.
    pub(crate) fn bind(
        table: Option<&Arc<TuningTable>>,
        placement: &Placement,
    ) -> Option<Arc<WorldTuning>> {
        table.map(|table| {
            Arc::new(WorldTuning {
                table: Arc::clone(table),
                world_layout: PlacementLayout::of_placement(placement),
            })
        })
    }
}

/// A persisted set of tuning cells for one machine class. Consulted by
/// every collective call site via [`resolve`]; see `docs/collectives.md`
/// for the on-disk format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningTable {
    /// Machine class the cells were measured on (see [`CI_MACHINE_CLASS`]).
    pub machine_class: String,
    /// Format version (bump on schema changes). v1 cells had no
    /// `layout` member — they load as [`PlacementLayout::Blocked`],
    /// which is what every v1 measurement world actually was.
    pub version: u32,
    /// Measured cells, in tuner order.
    pub cells: Vec<TuneCell>,
}

impl TuningTable {
    /// Look up the best algorithm for a query point.
    ///
    /// Exact `(kind, size class, ranks, nodes, layout)` matches win;
    /// otherwise the nearest cell of the same kind and size class is
    /// used, preferring cells of the *same layout* at any topology
    /// distance over layout-mismatched ones (a block-trained cell says
    /// nothing about a scattered world), with distance measured on the
    /// log scale of (ranks, nodes) — a 48-rank query resolves to the
    /// 32- or 64-rank cell, never to an 8-rank one. Ties prefer the
    /// smaller topology. Returns `None` when no cell of the kind+class
    /// exists at all (callers then fall back to [`fallback_algo`]).
    /// Pure: same table + query ⇒ same answer.
    pub fn lookup(
        &self,
        kind: CollKind,
        class: SizeClass,
        ranks: usize,
        nodes: usize,
        layout: PlacementLayout,
    ) -> Option<CollAlgo> {
        let mut best: Option<(bool, f64, usize, usize, CollAlgo)> = None;
        for cell in &self.cells {
            if cell.kind != kind || cell.size_class != class {
                continue;
            }
            if cell.ranks == ranks && cell.nodes == nodes && cell.layout == layout {
                return Some(cell.best);
            }
            let mismatch = cell.layout != layout;
            let d = log_dist(ranks, cell.ranks) + log_dist(nodes, cell.nodes);
            let key = (mismatch, d, cell.ranks, cell.nodes, cell.best);
            let better = match &best {
                None => true,
                Some((bm, bd, br, bn, _)) => {
                    (mismatch, d) < (*bm, *bd)
                        || ((mismatch, d) == (*bm, *bd) && (cell.ranks, cell.nodes) < (*br, *bn))
                }
            };
            if better {
                best = Some(key);
            }
        }
        best.map(|(_, _, _, _, algo)| algo)
    }

    /// A table that selects `algo` for `kind` at every size class, for
    /// each `(kind, algo)` of `picks`: one cell per pick and class. It
    /// holds no topology, because [`TuningTable::lookup`] falls back to
    /// the nearest cell of the same kind and class, and there is exactly
    /// one. Kinds without a pick resolve through [`fallback_algo`], and
    /// selection still clamps every pick to what applies ([`constrain`]).
    pub fn forcing(picks: &[(CollKind, CollAlgo)]) -> TuningTable {
        let cells = picks
            .iter()
            .flat_map(|&(kind, best)| {
                SizeClass::ALL.map(|size_class| TuneCell {
                    kind,
                    size_class,
                    ranks: 0,
                    nodes: 0,
                    layout: PlacementLayout::Blocked,
                    probe_bytes: 0,
                    best,
                    measured: Vec::new(),
                })
            })
            .collect();
        TuningTable {
            machine_class: "forced".into(),
            version: TABLE_VERSION,
            cells,
        }
    }

    /// Serialize to pretty JSON (the on-disk format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("tuning table serializes")
    }

    /// Parse the on-disk format.
    pub fn from_json(s: &str) -> std::result::Result<TuningTable, String> {
        serde_json::from_str(s).map_err(|e| format!("malformed tuning table: {e}"))
    }

    /// Load a table from a file.
    pub fn load(path: &std::path::Path) -> std::result::Result<TuningTable, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read tuning table {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Write the table to a file (pretty JSON, trailing newline).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }
}

/// |ln(a/b)| with zero-guarding — the log-scale distance used by
/// [`TuningTable::lookup`].
fn log_dist(a: usize, b: usize) -> f64 {
    let (a, b) = (a.max(1) as f64, b.max(1) as f64);
    (a.ln() - b.ln()).abs()
}

/// Can `algo` run this collective at all on this topology/payload?
/// (Independent of element type; the reduce-family additionally gates
/// `Hierarchical` on [`crate::Reducible::exact_reassoc`] at the call
/// site, downgrading via [`constrain`]'s chain.)
pub fn applicable(
    algo: CollAlgo,
    kind: CollKind,
    bytes: usize,
    ranks: usize,
    nodes: usize,
) -> bool {
    match algo {
        CollAlgo::Flat => true,
        // Leader-based exchange needs ≥ 2 nodes and some node with ≥ 2
        // ranks; otherwise it degenerates to (a slower bookkeeping of)
        // the flat algorithm.
        CollAlgo::Hierarchical => nodes >= 2 && ranks > nodes,
        // Pipelining needs a payload worth splitting and a tree to
        // stream through. Only the rooted tree collectives pipeline.
        CollAlgo::Chunked => {
            matches!(
                kind,
                CollKind::Bcast | CollKind::Reduce | CollKind::Allreduce
            ) && ranks >= 2
                && bytes >= 2 * CHUNK_BYTES
        }
    }
}

/// Clamp a requested algorithm to an applicable one, walking the
/// deterministic downgrade chain `Hierarchical → Chunked → Flat`.
pub fn constrain(
    algo: CollAlgo,
    kind: CollKind,
    bytes: usize,
    ranks: usize,
    nodes: usize,
) -> CollAlgo {
    if applicable(algo, kind, bytes, ranks, nodes) {
        return algo;
    }
    if algo == CollAlgo::Hierarchical && applicable(CollAlgo::Chunked, kind, bytes, ranks, nodes) {
        return CollAlgo::Chunked;
    }
    CollAlgo::Flat
}

/// The deterministic fallback heuristic used when no table cell matches:
/// pipeline large rooted payloads, go node-aware on multi-node worlds,
/// otherwise keep the seed algorithm. Pure function of its arguments.
pub fn fallback_algo(kind: CollKind, bytes: usize, ranks: usize, nodes: usize) -> CollAlgo {
    if applicable(CollAlgo::Chunked, kind, bytes, ranks, nodes) {
        CollAlgo::Chunked
    } else if applicable(CollAlgo::Hierarchical, kind, bytes, ranks, nodes) {
        CollAlgo::Hierarchical
    } else {
        CollAlgo::Flat
    }
}

/// Resolve the algorithm for one collective call. Pure function of
/// `(table, kind, bytes, ranks, nodes, layout)`: the tuning table's
/// choice ([`TuningTable::lookup`]), else [`fallback_algo`]'s, clamped to
/// applicability ([`constrain`]).
///
/// With `table = None` this *always* returns [`CollAlgo::Flat`] —
/// untuned runs keep the seed behaviour exactly.
pub fn resolve(
    table: Option<&TuningTable>,
    kind: CollKind,
    bytes: usize,
    ranks: usize,
    nodes: usize,
    layout: PlacementLayout,
) -> CollAlgo {
    let Some(table) = table else {
        return CollAlgo::Flat;
    };
    let want = table
        .lookup(kind, SizeClass::of(bytes), ranks, nodes, layout)
        .unwrap_or_else(|| fallback_algo(kind, bytes, ranks, nodes));
    constrain(want, kind, bytes, ranks, nodes)
}

/// Topologies the tuner measures: (ranks, nodes). Matches the bench
/// suite's collective-sweep cells.
pub const TUNE_TOPOS: [(usize, usize); 3] = [(8, 1), (32, 4), (64, 8)];

/// Per-rank payload sizes probed for the payload-carrying collectives,
/// one per interesting [`SizeClass`].
pub const TUNE_SIZES: [usize; 3] = [1024, 64 * 1024, 1024 * 1024];

/// Iterations per (cell, algorithm) measurement. The clock is simulated
/// and deterministic, so this only smooths per-iteration constants.
pub const TUNE_ITERS: usize = 3;

/// Measure one (kind, bytes, topology, layout, algorithm) point:
/// simulated microseconds per operation, on an event-engine world placed
/// under the layout's policy and forced to `algo` by
/// [`TuningTable::forcing`].
///
/// # Errors
/// Propagates any runtime error from the measurement world.
pub fn measure(
    kind: CollKind,
    bytes: usize,
    ranks: usize,
    nodes: usize,
    layout: PlacementLayout,
    algo: CollAlgo,
) -> Result<f64> {
    let cfg = WorldConfig::new(ranks)
        .on_nodes(nodes)
        .with_policy(layout.policy())
        .with_tuning(TuningTable::forcing(&[(kind, algo)]));
    let probe = Probe {
        kind,
        elems: (bytes / 8).max(1),
    };
    let out = World::run_event(cfg, &probe)?;
    Ok(out.sim_time * 1e6 / TUNE_ITERS as f64)
}

/// The step program [`measure`] times: [`TUNE_ITERS`] operations of
/// `kind`, with `elems` u64 elements of per-rank payload.
struct Probe {
    kind: CollKind,
    elems: usize,
}

impl StepProgram<()> for Probe {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<()>> {
        let (kind, elems) = (self.kind, self.elems);
        Box::pin(async move {
            let (rank, p) = (sc.rank(), sc.size());
            // Each rank builds its payload once, outside the timed loop:
            // the simulated clock never sees it, so rebuilding it per
            // iteration would only churn the allocator.
            let data: Vec<u64> = match kind {
                CollKind::Barrier => Vec::new(),
                CollKind::Bcast if rank == 0 => vec![7; elems],
                CollKind::Bcast => Vec::new(),
                CollKind::Reduce | CollKind::Allreduce => vec![rank as u64 + 1; elems],
                CollKind::Gather | CollKind::Allgather => vec![rank as u64; elems],
                // Variable-length blocks: selection for allgatherv is
                // topology-only (bytes = 0), so probe with small ragged
                // blocks regardless of the cell's nominal size.
                CollKind::Allgatherv => vec![rank as u64; 24 + (rank % 3) * 8],
                CollKind::Alltoall => (0..elems * p).map(|i| i as u64).collect(),
            };
            for _ in 0..TUNE_ITERS {
                match kind {
                    CollKind::Barrier => sc.barrier().await?,
                    CollKind::Bcast => {
                        sc.bcast((rank == 0).then_some(&data[..]), 0).await?;
                    }
                    CollKind::Reduce => {
                        sc.reduce(&data, Op::Sum, 0).await?;
                    }
                    CollKind::Allreduce => {
                        sc.allreduce(&data, Op::Sum).await?;
                    }
                    CollKind::Gather => {
                        sc.gather(&data, 0).await?;
                    }
                    CollKind::Allgather => {
                        sc.allgather(&data).await?;
                    }
                    CollKind::Allgatherv => {
                        sc.allgatherv(&data).await?;
                    }
                    CollKind::Alltoall => {
                        sc.alltoall(&data).await?;
                    }
                }
            }
            Ok(())
        })
    }
}

/// Payload sizes probed for one kind. Barrier and allgatherv are
/// payload-less from selection's point of view; the all-to-*
/// collectives cap the per-rank block at 64 KiB (a 1 MiB block × 64
/// ranks would be a 4 GiB cell — outside the teaching envelope).
fn probe_sizes(kind: CollKind) -> &'static [usize] {
    match kind {
        CollKind::Barrier | CollKind::Allgatherv => &[0],
        CollKind::Gather | CollKind::Allgather | CollKind::Alltoall => &TUNE_SIZES[..2],
        CollKind::Bcast | CollKind::Reduce | CollKind::Allreduce => &TUNE_SIZES[..],
    }
}

/// Layouts the tuner measures for a topology: single-node worlds have
/// only the degenerate blocked shape (round-robin over one node IS block
/// placement); multi-node worlds get a cell per layout.
pub fn tune_layouts(nodes: usize) -> &'static [PlacementLayout] {
    if nodes >= 2 {
        &PlacementLayout::ALL
    } else {
        &PlacementLayout::ALL[..1]
    }
}

/// Benchmark every (kind × size class × topology × layout × applicable
/// algorithm) cell on the simulated clock and return the winning table.
/// Deterministic: the simulated clock of a collective does not depend
/// on thread interleaving (every receive names its source), so
/// re-running on any host reproduces the same table bit-for-bit
/// (`mpi_tune --check` relies on this).
///
/// `progress` is called once per finished cell with (done, total).
///
/// # Errors
/// Propagates the first measurement-world failure.
pub fn autotune(mut progress: impl FnMut(usize, usize)) -> Result<TuningTable> {
    let mut points: Vec<(CollKind, usize, usize, usize, PlacementLayout)> = Vec::new();
    for kind in CollKind::ALL {
        for &bytes in probe_sizes(kind) {
            for (ranks, nodes) in TUNE_TOPOS {
                for &layout in tune_layouts(nodes) {
                    points.push((kind, bytes, ranks, nodes, layout));
                }
            }
        }
    }
    let total = points.len();
    let mut cells = Vec::with_capacity(total);
    for (done, (kind, bytes, ranks, nodes, layout)) in points.into_iter().enumerate() {
        let mut measured = Vec::new();
        for algo in CollAlgo::ALL {
            if !applicable(algo, kind, bytes, ranks, nodes) {
                continue;
            }
            let sim_us = measure(kind, bytes, ranks, nodes, layout, algo)?;
            measured.push(AlgoTime { algo, sim_us });
        }
        // Winner: strictly fastest; ties keep the earliest entry in
        // `CollAlgo::ALL` order, i.e. Flat.
        let best = measured
            .iter()
            .min_by(|a, b| {
                a.sim_us
                    .partial_cmp(&b.sim_us)
                    .expect("sim times are finite")
            })
            .expect("flat is always applicable")
            .algo;
        cells.push(TuneCell {
            kind,
            size_class: SizeClass::of(bytes),
            ranks,
            nodes,
            layout,
            probe_bytes: bytes,
            best,
            measured,
        });
        progress(done + 1, total);
    }
    Ok(TuningTable {
        machine_class: CI_MACHINE_CLASS.to_string(),
        version: TABLE_VERSION,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(
        kind: CollKind,
        class: SizeClass,
        ranks: usize,
        nodes: usize,
        layout: PlacementLayout,
        best: CollAlgo,
    ) -> TuneCell {
        TuneCell {
            kind,
            size_class: class,
            ranks,
            nodes,
            layout,
            probe_bytes: 0,
            best,
            measured: Vec::new(),
        }
    }

    #[test]
    fn untuned_is_always_flat() {
        for kind in CollKind::ALL {
            for bytes in [0, 1024, 1 << 20, 1 << 24] {
                for layout in PlacementLayout::ALL {
                    assert_eq!(resolve(None, kind, bytes, 64, 8, layout), CollAlgo::Flat);
                }
            }
        }
    }

    #[test]
    fn forced_picks_are_clamped_to_applicability() {
        let forced = |kind, algo, bytes, ranks, nodes| {
            let t = TuningTable::forcing(&[(kind, algo)]);
            resolve(
                Some(&t),
                kind,
                bytes,
                ranks,
                nodes,
                PlacementLayout::Blocked,
            )
        };
        // Hierarchical on a single node downgrades (to Chunked for a
        // large bcast, to Flat for a barrier).
        assert_eq!(
            forced(CollKind::Bcast, CollAlgo::Hierarchical, 1 << 20, 8, 1),
            CollAlgo::Chunked
        );
        assert_eq!(
            forced(CollKind::Barrier, CollAlgo::Hierarchical, 0, 8, 1),
            CollAlgo::Flat
        );
        // Chunked below two chunks of payload downgrades to Flat.
        assert_eq!(
            forced(CollKind::Bcast, CollAlgo::Chunked, 1024, 8, 1),
            CollAlgo::Flat
        );
        // Chunked never applies to the non-rooted collectives.
        assert_eq!(
            forced(CollKind::Allgather, CollAlgo::Chunked, 1 << 20, 8, 1),
            CollAlgo::Flat
        );
        // Applicable picks stick.
        assert_eq!(
            forced(CollKind::Allreduce, CollAlgo::Chunked, 1 << 20, 32, 4),
            CollAlgo::Chunked
        );
    }

    #[test]
    fn table_lookup_prefers_exact_then_nearest() {
        let b = PlacementLayout::Blocked;
        let t = TuningTable {
            machine_class: CI_MACHINE_CLASS.into(),
            version: 2,
            cells: vec![
                cell(
                    CollKind::Bcast,
                    SizeClass::Large,
                    8,
                    1,
                    b,
                    CollAlgo::Chunked,
                ),
                cell(
                    CollKind::Bcast,
                    SizeClass::Large,
                    64,
                    8,
                    b,
                    CollAlgo::Hierarchical,
                ),
            ],
        };
        // Exact match.
        assert_eq!(
            t.lookup(CollKind::Bcast, SizeClass::Large, 64, 8, b),
            Some(CollAlgo::Hierarchical)
        );
        // 48 ranks / 6 nodes is nearer (log scale) to 64/8 than to 8/1.
        assert_eq!(
            t.lookup(CollKind::Bcast, SizeClass::Large, 48, 6, b),
            Some(CollAlgo::Hierarchical)
        );
        // Missing kind+class → None (resolve then uses the heuristic).
        assert_eq!(t.lookup(CollKind::Barrier, SizeClass::Tiny, 64, 8, b), None);
    }

    #[test]
    fn lookup_keys_on_layout_before_topology_distance() {
        let t = TuningTable {
            machine_class: CI_MACHINE_CLASS.into(),
            version: 2,
            cells: vec![
                cell(
                    CollKind::Allreduce,
                    SizeClass::Large,
                    32,
                    4,
                    PlacementLayout::Blocked,
                    CollAlgo::Hierarchical,
                ),
                cell(
                    CollKind::Allreduce,
                    SizeClass::Large,
                    32,
                    4,
                    PlacementLayout::Scattered,
                    CollAlgo::Chunked,
                ),
            ],
        };
        // Same (kind, class, ranks, nodes) — the layout picks the cell.
        assert_eq!(
            t.lookup(
                CollKind::Allreduce,
                SizeClass::Large,
                32,
                4,
                PlacementLayout::Blocked
            ),
            Some(CollAlgo::Hierarchical)
        );
        assert_eq!(
            t.lookup(
                CollKind::Allreduce,
                SizeClass::Large,
                32,
                4,
                PlacementLayout::Scattered
            ),
            Some(CollAlgo::Chunked)
        );
        // Nearest-match: a same-layout cell at topology distance beats a
        // layout-mismatched cell at the exact topology.
        assert_eq!(
            t.lookup(
                CollKind::Allreduce,
                SizeClass::Large,
                64,
                8,
                PlacementLayout::Scattered
            ),
            Some(CollAlgo::Chunked)
        );
    }

    #[test]
    fn selection_differs_between_block_and_round_robin() {
        // The bug this key fixes: at identical (op, bytes, ranks, nodes),
        // the placement policy alone must be able to flip the selected
        // algorithm. Layouts are derived from real placements through
        // `Placement::node_of`, exactly as the collective dispatch does.
        let t = TuningTable {
            machine_class: CI_MACHINE_CLASS.into(),
            version: 2,
            cells: vec![
                cell(
                    CollKind::Allreduce,
                    SizeClass::Large,
                    32,
                    4,
                    PlacementLayout::Blocked,
                    CollAlgo::Hierarchical,
                ),
                cell(
                    CollKind::Allreduce,
                    SizeClass::Large,
                    32,
                    4,
                    PlacementLayout::Scattered,
                    CollAlgo::Chunked,
                ),
            ],
        };
        let pick = |policy| {
            let p = Placement::new(32, 4, 8, policy);
            let layout = PlacementLayout::of_placement(&p);
            resolve(Some(&t), CollKind::Allreduce, 1 << 20, 32, 4, layout)
        };
        assert_eq!(pick(PlacementPolicy::Block), CollAlgo::Hierarchical);
        assert_eq!(pick(PlacementPolicy::RoundRobin), CollAlgo::Chunked);
    }

    #[test]
    fn layouts_derive_from_node_maps() {
        let block = Placement::new(32, 4, 8, PlacementPolicy::Block);
        let rr = Placement::new(32, 4, 8, PlacementPolicy::RoundRobin);
        let single = Placement::single_node(8, 32);
        assert_eq!(
            PlacementLayout::of_placement(&block),
            PlacementLayout::Blocked
        );
        assert_eq!(
            PlacementLayout::of_placement(&rr),
            PlacementLayout::Scattered
        );
        // One node: round-robin and block coincide — always Blocked.
        assert_eq!(
            PlacementLayout::of_placement(&single),
            PlacementLayout::Blocked
        );
        assert_eq!(
            PlacementLayout::of_placement(&Placement::new(8, 1, 32, PlacementPolicy::RoundRobin)),
            PlacementLayout::Blocked
        );
        // Sub-communicators classify over the member walk: the even
        // world ranks of a round-robin placement sit on nodes
        // 0,2,0,2,… — scattered; a node-aligned member list is blocked.
        assert_eq!(
            PlacementLayout::of_members(&rr, &[0, 2, 4, 6]),
            PlacementLayout::Scattered
        );
        assert_eq!(
            PlacementLayout::of_members(&rr, &[0, 4, 1, 5]),
            PlacementLayout::Blocked
        );
        assert_eq!(
            PlacementLayout::of_members(&block, &[0, 1, 8, 9]),
            PlacementLayout::Blocked
        );
    }

    #[test]
    fn v1_tables_without_layout_load_as_blocked() {
        let v1 = r#"{
            "machine_class": "pdc-cluster-v1",
            "version": 1,
            "cells": [{
                "kind": "Bcast",
                "size_class": "Large",
                "ranks": 32,
                "nodes": 4,
                "probe_bytes": 1048576,
                "best": "Chunked",
                "measured": [{"algo": "Chunked", "sim_us": 3.5}]
            }]
        }"#;
        let t = TuningTable::from_json(v1).expect("v1 table still parses");
        assert_eq!(t.cells[0].layout, PlacementLayout::Blocked);
        assert_eq!(
            t.lookup(
                CollKind::Bcast,
                SizeClass::Large,
                32,
                4,
                PlacementLayout::Blocked
            ),
            Some(CollAlgo::Chunked)
        );
    }

    #[test]
    fn size_classes_bucket_as_documented() {
        assert_eq!(SizeClass::of(0), SizeClass::Tiny);
        assert_eq!(SizeClass::of(4096), SizeClass::Tiny);
        assert_eq!(SizeClass::of(4097), SizeClass::Small);
        assert_eq!(SizeClass::of(65536), SizeClass::Small);
        assert_eq!(SizeClass::of(1 << 20), SizeClass::Large);
        assert_eq!(SizeClass::of((1 << 20) + 1), SizeClass::Huge);
    }

    #[test]
    fn table_roundtrips_through_json() {
        let t = TuningTable {
            machine_class: CI_MACHINE_CLASS.into(),
            version: 2,
            cells: vec![TuneCell {
                kind: CollKind::Allreduce,
                size_class: SizeClass::Large,
                ranks: 32,
                nodes: 4,
                layout: PlacementLayout::Scattered,
                probe_bytes: 1 << 20,
                best: CollAlgo::Chunked,
                measured: vec![
                    AlgoTime {
                        algo: CollAlgo::Flat,
                        sim_us: 9.5,
                    },
                    AlgoTime {
                        algo: CollAlgo::Chunked,
                        sim_us: 3.25,
                    },
                ],
            }],
        };
        let parsed = TuningTable::from_json(&t.to_json()).expect("roundtrip parses");
        assert_eq!(parsed, t);
        assert!(TuningTable::from_json("{\"nope\": 1}").is_err());
    }

    #[test]
    fn fallback_matches_postal_model_intuition() {
        // Large rooted payload → pipeline.
        assert_eq!(
            fallback_algo(CollKind::Bcast, 1 << 20, 64, 8),
            CollAlgo::Chunked
        );
        // Small payload on a multi-node world → node-aware.
        assert_eq!(
            fallback_algo(CollKind::Barrier, 0, 64, 8),
            CollAlgo::Hierarchical
        );
        // Single node, small payload → the seed algorithm.
        assert_eq!(
            fallback_algo(CollKind::Allgather, 1024, 8, 1),
            CollAlgo::Flat
        );
    }
}
