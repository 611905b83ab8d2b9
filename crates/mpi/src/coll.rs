//! Collective algorithms and their dispatch, each written exactly once.
//!
//! Every algorithm shape is one `async fn` over a participant [`Group`]
//! and a [`StepComm`], and suspends only in the wait core
//! ([`Waiter`](crate::wait::Waiter)). The world communicator, every
//! [`SubComm`], and every backend run the same code: the blocking
//! [`Comm`] methods poll these futures once on the rank's thread, and the
//! event backend parks them between polls.
//!
//! The flat shapes are the seed algorithms: dissemination barrier,
//! binomial broadcast and reduction, ring allgather, linear
//! scatter/gather, the skewed all-to-all exchange and the Hillis–Steele
//! scan. On a multi-node cluster the postal model makes inter-node hops
//! 4× the latency and half the bandwidth of intra-node hops, so two
//! refinements pay off:
//!
//! * **Chunked** (pipelined) variants stream a large payload as
//!   fixed-size chunks. The chunked *reduction* streams up the *same*
//!   tree as the flat algorithm with the *same* per-element fold order,
//!   so it is *bit-identical* to the flat reduction for every operator
//!   and element type, floats included. The chunked *broadcast* is pure
//!   data movement, so it is free to use the bandwidth-optimal shape
//!   instead: a pipelined chain, on which every rank forwards the
//!   payload exactly once — the flat binomial root serialises log₂(p)
//!   full copies through its send gap, which is what dominates large
//!   broadcasts under the postal model.
//! * **Hierarchical** (node-aware) variants elect one *leader* per node,
//!   move data over the expensive inter-node links only between leaders,
//!   and fan in/out within each node over the cheap intra-node links.
//!   Hierarchical reductions re-associate the fold, so dispatch gates
//!   them on [`Reducible::exact_reassoc`] (see `tune::constrain`). Their
//!   phases reuse the flat shapes over the leaders and over each node's
//!   members.
//!
//! Dispatch ([`Scope`], `select`) logs the call, allocates its tag base,
//! and picks the algorithm. With no tuning table it runs the flat shape
//! with no selection bookkeeping at all, so untuned traces, stats and
//! check logs stay bit-identical to the seed runtime. The tuned
//! variants' futures are boxed where they are selected, so they do not
//! grow the state machine of a rank that never runs them.
//!
//! ## Tag budget (offsets within one 1024-tag collective base)
//!
//! | range      | user                                             |
//! |------------|--------------------------------------------------|
//! | `0..64`    | flat tree and barrier rounds; chunked bcast chunk `c` |
//! | `0..1024`  | chunked reduce: `c*16 + round` (`c<64, round<16`)|
//! | `300..364` | hierarchical inter-node tree, bit `b`            |
//! | `330..394` | hierarchical inter-node ring, round `k % 64`     |
//! | `430..494` | hierarchical leader barrier, round `r`           |
//! | `460`      | hierarchical leader→leader bundle                |
//! | `512..576` | second phase of a flat composite (allreduce bcast, exscan shift, reduce-scatter) |
//! | `700`      | intra-node fan-in to the leader                  |
//! | `701`      | intra-node barrier release                       |
//! | `702`      | intra-node per-member result delivery            |
//! | `710..774` | intra-node tree, bit `b`                         |
//! | `960..1024`| bcast algorithm/size header                      |
//!
//! A single collective never uses two overlapping ranges, and tuned
//! composites (chunked/hierarchical allreduce) allocate two bases, one
//! per phase.

use crate::check::CallSite;
use crate::comm::Comm;
use crate::datatype::{decode_extend, decode_vec, encode_slice, Datatype};
use crate::envelope::{Envelope, MatchSpec};
use crate::error::{Error, Result};
use crate::reduce::{fold_into, Op, Reducible};
use crate::stats::Primitive;
use crate::step::StepComm;
use crate::subcomm::SubComm;
use crate::tune::{
    self, CollAlgo, CollKind, PlacementLayout, WorldTuning, BCAST_CHUNK_BYTES, CHUNK_BYTES,
    MAX_CHUNKS,
};
use bytes::Bytes;
use pdc_cluster::Placement;
use std::collections::{BTreeMap, BTreeSet};
use std::future::Future;

const T_SECOND_PHASE: u64 = 512;
const T_INTER_TREE: u64 = 300;
const T_INTER_RING: u64 = 330;
const T_INTER_BARRIER: u64 = 430;
const T_INTER_BUNDLE: u64 = 460;
const T_INTRA_FANIN: u64 = 700;
const T_INTRA_RELEASE: u64 = 701;
const T_INTRA_RESULT: u64 = 702;
const T_INTRA_TREE: u64 = 710;
const T_HEADER: u64 = 960;

/// Elements per reduction-pipeline chunk for a `count`-element payload:
/// at least [`CHUNK_BYTES`] worth, grown so the chunk count never
/// exceeds [`MAX_CHUNKS`] (the tag budget per collective).
fn chunk_elems<T: Datatype>(count: usize) -> usize {
    let per_chunk = (CHUNK_BYTES / T::SIZE.max(1)).max(1);
    per_chunk.max(count.div_ceil(MAX_CHUNKS))
}

/// Elements per chain-broadcast chunk: finer grained
/// ([`BCAST_CHUNK_BYTES`]) because the chain's fill time scales with the
/// participant count.
fn bcast_chunk_elems<T: Datatype>(count: usize) -> usize {
    let per_chunk = (BCAST_CHUNK_BYTES / T::SIZE.max(1)).max(1);
    per_chunk.max(count.div_ceil(MAX_CHUNKS))
}

fn n_chunks(count: usize, chunk: usize) -> usize {
    count.div_ceil(chunk).max(1)
}

fn length_mismatch(what: &str) -> Error {
    Error::InvalidArgument(format!("{what} contributions differ in length"))
}

// ---------------------------------------------------------------------
// Participants, communicator scope, reduction operators
// ---------------------------------------------------------------------

/// The participants of one collective, by position: the whole world
/// (position `i` is rank `i`, so no member list is ever built) or an
/// explicit list of world ranks (a sub-communicator, the ranks of one
/// node, the node leaders).
#[derive(Clone, Copy)]
struct Group<'g> {
    members: Members<'g>,
    /// This rank's position.
    me: usize,
}

#[derive(Clone, Copy)]
enum Members<'g> {
    /// The world of this many ranks.
    World(usize),
    List(&'g [usize]),
}

impl<'g> Group<'g> {
    fn world(comm: &Comm) -> Group<'static> {
        Group {
            members: Members::World(comm.size()),
            me: comm.rank(),
        }
    }

    fn of(members: &'g [usize], me: usize) -> Group<'g> {
        Group {
            members: Members::List(members),
            me,
        }
    }

    fn len(&self) -> usize {
        match self.members {
            Members::World(n) => n,
            Members::List(m) => m.len(),
        }
    }

    /// World rank of position `i`.
    fn rank(&self, i: usize) -> usize {
        match self.members {
            Members::World(_) => i,
            Members::List(m) => m[i],
        }
    }
}

/// The communicator a collective call runs on — the world or a
/// sub-communicator — and the name the call is logged under.
pub(crate) struct Scope<'s> {
    name: &'static str,
    sub: Option<&'s mut SubComm>,
}

impl<'s> Scope<'s> {
    pub(crate) fn world(name: &'static str) -> Self {
        Scope { name, sub: None }
    }

    pub(crate) fn sub(sub: &'s mut SubComm, name: &'static str) -> Self {
        Scope {
            name,
            sub: Some(sub),
        }
    }

    /// Log entry into the collective: check log, trace, and the call site
    /// a blocked internal receive is attributed to.
    fn enter(
        &self,
        comm: &mut Comm,
        root: Option<usize>,
        op: Option<Op>,
        count: Option<usize>,
        type_name: &'static str,
        site: CallSite,
    ) {
        match &self.sub {
            None => comm.record_coll(self.name, root, op, count, type_name, site),
            Some(sub) => comm.record_sub_coll(
                self.name,
                sub.ctx(),
                sub.members(),
                root,
                op,
                count,
                type_name,
                site,
            ),
        }
    }

    fn validate_root(&self, comm: &Comm, root: usize) -> Result<()> {
        match &self.sub {
            None => comm.validate_rank(root, "root"),
            Some(sub) => sub.validate_root(root),
        }
    }

    /// Allocate the internal tag base of the next collective.
    fn next_base(&mut self, comm: &mut Comm) -> u64 {
        match &mut self.sub {
            None => comm.next_coll_base(),
            Some(sub) => sub.next_base(),
        }
    }

    fn group(&self, comm: &Comm) -> Group<'_> {
        match &self.sub {
            None => Group::world(comm),
            Some(sub) => Group::of(sub.members(), sub.rank()),
        }
    }

    /// Position of this rank within the communicator.
    fn me(&self, comm: &Comm) -> usize {
        self.sub.as_ref().map_or(comm.rank(), |sub| sub.rank())
    }

    /// Enter the selected algorithm's region (see [`Comm::begin_algo`]);
    /// nothing on the untuned path (`None`).
    fn begin(&self, comm: &mut Comm, algo: Option<CollAlgo>) {
        if let Some(algo) = algo {
            comm.begin_algo(algo, self.sub.is_none());
        }
    }
}

/// Select the algorithm for one collective over `g`. `None` on an
/// untuned world: the caller then runs the flat shape with no selection
/// bookkeeping.
fn select(comm: &Comm, g: &Group, kind: CollKind, bytes: usize, exact: bool) -> Option<CollAlgo> {
    let tuning = comm.tuning()?;
    Some(select_tuned(comm, tuning, g, kind, bytes, exact))
}

/// The algorithm for one collective over `g` of a world tuned by
/// `tuning`: the pure function [`tune::resolve`] of the table and the
/// group's own size, node spread and layout, identical on every
/// participant. A fold that does not re-associate exactly
/// (`exact = false`) never runs `Hierarchical`; it downgrades along
/// `Chunked → Flat`, both of which keep the flat fold order.
fn select_tuned(
    comm: &Comm,
    tuning: &WorldTuning,
    g: &Group,
    kind: CollKind,
    bytes: usize,
    exact: bool,
) -> CollAlgo {
    let placement = comm.cost_model().placement();
    let (nodes, layout) = match g.members {
        // The world's layout is classified once per world.
        Members::World(_) => (placement.nodes_used(), tuning.world_layout),
        Members::List(m) => (
            HierTopo::n_nodes(placement, m),
            PlacementLayout::of_members(placement, m),
        ),
    };
    let algo = tune::resolve(Some(&tuning.table), kind, bytes, g.len(), nodes, layout);
    if algo == CollAlgo::Hierarchical && !exact {
        tune::constrain(CollAlgo::Chunked, kind, bytes, g.len(), nodes)
    } else {
        algo
    }
}

/// A reduction operator: a built-in [`Op`] (logged, checked against the
/// element type, re-associated only where exact) or a custom combiner,
/// whose algebra is opaque and so is never re-associated.
pub(crate) struct Fold<F> {
    op: Option<Op>,
    /// The element type does not define `op`.
    unsupported: bool,
    /// Any re-association of the fold gives bit-identical results.
    exact: bool,
    combine: F,
}

impl<F> Fold<F> {
    pub(crate) fn custom(combine: F) -> Self {
        Fold {
            op: None,
            unsupported: false,
            exact: false,
            combine,
        }
    }

    /// Reject an operator the element type does not define — before any
    /// communication, so every rank fails uniformly with
    /// [`Error::InvalidOp`] instead of one rank failing mid-tree and
    /// stranding its peers.
    fn check<T: Datatype>(&self) -> Result<()> {
        match self.op {
            Some(op) if self.unsupported => Err(Error::InvalidOp {
                op,
                type_name: T::NAME,
            }),
            _ => Ok(()),
        }
    }
}

/// The [`Fold`] of a built-in operator on `T`.
pub(crate) fn builtin<T: Reducible>(op: Op) -> Fold<impl Fn(&T, &T) -> T> {
    Fold {
        op: Some(op),
        unsupported: !T::supports(op),
        exact: T::exact_reassoc(op),
        combine: move |a: &T, b: &T| T::reduce(op, *a, *b),
    }
}

// ---------------------------------------------------------------------
// Internal messages
// ---------------------------------------------------------------------

impl StepComm<'_, '_> {
    /// Receive a collective-internal envelope without decoding it, after
    /// checking its element type against `T`. Interior nodes forward the
    /// payload as-is; only the final consumer decodes.
    async fn coll_recv_raw<T: Datatype>(&mut self, src: usize, tag: u64) -> Result<Envelope> {
        let spec = MatchSpec::Internal(src, tag);
        let env = self.wait.recv(self.comm, &spec, None).await?;
        env.ensure_type::<T>()?;
        Ok(env)
    }
}

// ---------------------------------------------------------------------
// Flat shapes
// ---------------------------------------------------------------------

/// Dissemination barrier: in round `r` signal position `me + 2^r` and
/// wait for `me - 2^r`; done once every position has been heard from.
async fn dissemination_barrier(sc: &mut StepComm<'_, '_>, g: &Group<'_>, base: u64) -> Result<()> {
    let p = g.len();
    let mut round = 0u64;
    let mut dist = 1usize;
    while dist < p {
        let to = g.rank((g.me + dist) % p);
        let from = g.rank((g.me + p - dist) % p);
        sc.comm.coll_send::<u8>(&[], to, base + round)?;
        sc.coll_recv_raw::<u8>(from, base + round).await?;
        dist <<= 1;
        round += 1;
    }
    Ok(())
}

/// Binomial-tree broadcast of an encoded payload from position `root`;
/// returns the payload this rank ends up holding. The root encodes once,
/// interior nodes forward the refcounted buffer they received without
/// decoding it, and only the final consumer decodes.
async fn tree_bcast<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    g: &Group<'_>,
    root: usize,
    base: u64,
    mut payload: Bytes,
) -> Result<Bytes> {
    let p = g.len();
    let vrank = (g.me + p - root) % p;
    // Receive phase: non-roots take the payload from their tree parent.
    let mut mask = 1usize;
    let mut recv_bit = 0u64;
    while mask < p {
        if vrank & mask != 0 {
            let parent = g.rank((vrank - mask + root) % p);
            payload = sc
                .coll_recv_raw::<T>(parent, base + recv_bit)
                .await?
                .payload;
            break;
        }
        mask <<= 1;
        recv_bit += 1;
    }
    if vrank == 0 {
        mask = p.next_power_of_two();
    }
    // Send phase: forward to children at decreasing bit positions.
    let mut bit = mask >> 1;
    while bit > 0 {
        if vrank + bit < p {
            let child = g.rank((vrank + bit + root) % p);
            let tag = base + bit.trailing_zeros() as u64;
            sc.comm
                .coll_send_bytes(payload.clone(), T::NAME, T::SIZE, child, tag)?;
        }
        bit >>= 1;
    }
    Ok(payload)
}

/// Binomial-tree reduction toward position `root`; returns `Some` only at
/// the root. Children are folded in round order, which fixes the fold
/// order every other reduction variant reproduces.
async fn tree_reduce<T: Datatype, F: Fn(&T, &T) -> T>(
    sc: &mut StepComm<'_, '_>,
    g: &Group<'_>,
    root: usize,
    base: u64,
    data: &[T],
    combine: &F,
) -> Result<Option<Vec<T>>> {
    let p = g.len();
    let vrank = (g.me + p - root) % p;
    let mut acc = data.to_vec();
    let mut mask = 1usize;
    let mut round = 0u64;
    while mask < p {
        if vrank & mask != 0 {
            let parent = g.rank((vrank - mask + root) % p);
            sc.comm.coll_send(&acc, parent, base + round)?;
            return Ok(None);
        }
        let child = vrank + mask;
        if child < p {
            let src = g.rank((child + root) % p);
            let env = sc.coll_recv_raw::<T>(src, base + round).await?;
            let part: Vec<T> = decode_vec(&env.payload);
            if part.len() != acc.len() {
                return Err(length_mismatch("reduce"));
            }
            fold_into(&mut acc, &part, combine);
        }
        mask <<= 1;
        round += 1;
    }
    Ok(Some(acc))
}

/// Ring allgather of encoded blocks, starting from this position's own
/// block `mine`. In round `k` each position forwards block `me - k` to
/// the right and receives block `me - k - 1` from the left (tag
/// `tag(k)`), rejecting a block whose byte length differs from
/// `expect(block)` when that is given. Every hop forwards the refcounted
/// payload it received; nothing is decoded here. Returns every position's
/// block.
///
/// `mine` goes into the block table before the rounds start, so the
/// suspended rounds hold the table alone, not the table and the argument
/// (which an `async fn` would keep for the whole call).
fn ring_allgather<'s, 'c, 'w, 'g, T, G, E>(
    sc: &'s mut StepComm<'c, 'w>,
    g: &'s Group<'g>,
    mine: Bytes,
    tag: G,
    expect: E,
) -> impl Future<Output = Result<Vec<Option<Bytes>>>> + use<'s, 'c, 'w, 'g, T, G, E>
where
    T: Datatype,
    G: Fn(usize) -> u64,
    E: Fn(usize) -> Option<usize>,
{
    let mut blocks: Vec<Option<Bytes>> = vec![None; g.len()];
    blocks[g.me] = Some(mine);
    async move {
        let (p, me) = (g.len(), g.me);
        let right = g.rank((me + 1) % p);
        let left = g.rank((me + p - 1) % p);
        for k in 0..p.saturating_sub(1) {
            let send_block = (me + p - k) % p;
            let payload = blocks[send_block]
                .clone()
                .expect("block held from previous round");
            sc.comm
                .coll_send_bytes(payload, T::NAME, T::SIZE, right, tag(k))?;
            let recv_block = (me + p - k - 1) % p;
            let env = sc.coll_recv_raw::<T>(left, tag(k)).await?;
            if expect(recv_block).is_some_and(|n| env.payload.len() != n) {
                return Err(length_mismatch("allgather"));
            }
            blocks[recv_block] = Some(env.payload);
        }
        Ok(blocks)
    }
}

/// Linear scatter from position `root`: the root sends position `i` its
/// slice — `counts[i]` elements, or an equal share when `counts` is
/// `None` — and keeps its own; everyone else receives one message.
/// `data` (and `counts`) are validated by the caller at the root.
async fn linear_scatter<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    g: &Group<'_>,
    root: usize,
    base: u64,
    data: Option<&[T]>,
    counts: Option<&[usize]>,
) -> Result<Vec<T>> {
    if g.me != root {
        let env = sc.coll_recv_raw::<T>(g.rank(root), base).await?;
        return Ok(decode_vec(&env.payload));
    }
    let data = data.expect("root data validated by the caller");
    let mut own = Vec::new();
    let mut offset = 0;
    for i in 0..g.len() {
        let count = counts.map_or(data.len() / g.len(), |c| c[i]);
        let slice = &data[offset..offset + count];
        offset += count;
        if i == root {
            own = slice.to_vec();
        } else {
            sc.comm.coll_send(slice, g.rank(i), base)?;
        }
    }
    Ok(own)
}

/// Linear gather to position `root`: the root receives every position's
/// block in position order; with `equal`, a block whose length differs
/// from the root's own is rejected as it arrives.
async fn linear_gather<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    g: &Group<'_>,
    root: usize,
    base: u64,
    data: &[T],
    equal: bool,
) -> Result<Option<Vec<Vec<T>>>> {
    if g.me != root {
        sc.comm.coll_send(data, g.rank(root), base)?;
        return Ok(None);
    }
    let mut out = Vec::with_capacity(g.len());
    for i in 0..g.len() {
        let part = if i == root {
            data.to_vec()
        } else {
            decode_vec(&sc.coll_recv_raw::<T>(g.rank(i), base).await?.payload)
        };
        if equal && part.len() != data.len() {
            return Err(length_mismatch("gather"));
        }
        out.push(part);
    }
    Ok(Some(out))
}

/// Skewed all-to-all exchange: eager-send every other position its block
/// (destinations `me + 1, me + 2, …`, skewed to avoid hot spots), then
/// receive one block from each (`me - 1, me - 2, …`). Returns the
/// received encoded blocks by source position; this rank's own slot
/// stays `None`.
async fn skewed_exchange<'d, T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    g: &Group<'_>,
    base: u64,
    block: impl Fn(usize) -> &'d [T],
    expect: Option<usize>,
) -> Result<Vec<Option<Bytes>>> {
    let (p, me) = (g.len(), g.me);
    for offset in 1..p {
        let dst = (me + offset) % p;
        sc.comm.coll_send(block(dst), g.rank(dst), base)?;
    }
    let mut blocks: Vec<Option<Bytes>> = vec![None; p];
    for offset in 1..p {
        let src = (me + p - offset) % p;
        let env = sc.coll_recv_raw::<T>(g.rank(src), base).await?;
        if expect.is_some_and(|n| env.payload.len() != n) {
            return Err(length_mismatch("alltoall"));
        }
        blocks[src] = Some(env.payload);
    }
    Ok(blocks)
}

/// Hillis–Steele inclusive prefix scan (`log p` rounds): position `r`
/// ends with the combination of positions `0..=r`, the left operand
/// always combined on the left so non-commutative combiners work.
async fn prefix_scan<T: Datatype, F: Fn(&T, &T) -> T>(
    sc: &mut StepComm<'_, '_>,
    g: &Group<'_>,
    base: u64,
    data: &[T],
    combine: &F,
) -> Result<Vec<T>> {
    let (p, me) = (g.len(), g.me);
    let mut acc = data.to_vec();
    let mut dist = 1usize;
    let mut round = 0u64;
    while dist < p {
        // Ship the current prefix right before folding from the left, so
        // each round uses the previous round's values.
        if me + dist < p {
            sc.comm.coll_send(&acc, g.rank(me + dist), base + round)?;
        }
        if me >= dist {
            let env = sc
                .coll_recv_raw::<T>(g.rank(me - dist), base + round)
                .await?;
            let part: Vec<T> = decode_vec(&env.payload);
            if part.len() != acc.len() {
                return Err(length_mismatch("scan"));
            }
            for (a, b) in acc.iter_mut().zip(&part) {
                *a = combine(b, a);
            }
        }
        dist <<= 1;
        round += 1;
    }
    Ok(acc)
}

/// A block of a completed ring allgather.
fn circulated(block: &Option<Bytes>) -> &Bytes {
    block.as_ref().expect("all blocks circulated")
}

// ---------------------------------------------------------------------
// Chunked (pipelined) shapes
// ---------------------------------------------------------------------

/// Pipelined chain broadcast: positions form a chain in position order
/// starting at the root, and the payload streams down it as
/// [`bcast_chunk_elems`]-sized chunks (tag `base + c`). Every rank
/// forwards each chunk once, so no rank's send gap carries more than one
/// copy of the payload — the flat binomial root carries log₂(p). Every
/// position must know `count` (the dispatch's header broadcast
/// guarantees it); `root_data` is `Some` exactly at the root.
async fn chunked_bcast<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    g: &Group<'_>,
    root_data: Option<&[T]>,
    root: usize,
    count: usize,
    base: u64,
) -> Result<Vec<T>> {
    let (p, me) = (g.len(), g.me);
    let chain_idx = (me + p - root) % p;
    let chunk = bcast_chunk_elems::<T>(count);
    let nchunks = n_chunks(count, chunk);
    let prev = (chain_idx != 0).then(|| g.rank((me + p - 1) % p));
    let next = (chain_idx + 1 < p).then(|| g.rank((me + 1) % p));
    let mut out: Vec<T> = Vec::with_capacity(count);
    for c in 0..nchunks {
        let lo = c * chunk;
        let hi = (lo + chunk).min(count);
        let payload = match (prev, root_data) {
            (None, Some(d)) => encode_slice(&d[lo..hi]),
            (Some(src), _) => {
                let env = sc.coll_recv_raw::<T>(src, base + c as u64).await?;
                if env.payload.len() != (hi - lo) * T::SIZE {
                    return Err(Error::InvalidArgument("bcast chunk length mismatch".into()));
                }
                env.payload
            }
            (None, None) => unreachable!("root data validated by the dispatch"),
        };
        // Forward chunk `c` before receiving chunk `c+1`: the chain
        // overlaps its downstream send with the upstream stream.
        if let Some(nx) = next {
            sc.comm
                .coll_send_bytes(payload.clone(), T::NAME, T::SIZE, nx, base + c as u64)?;
        }
        if root_data.is_none() {
            decode_extend(&payload, &mut out);
        }
    }
    Ok(root_data.map_or(out, <[T]>::to_vec))
}

/// Pipelined binomial-tree reduction: the same tree and the same
/// per-element fold order as [`tree_reduce`], with the accumulator
/// streamed upward chunk by chunk (tag `base + c*16 + round`).
/// Bit-identical to the flat reduction for every operator and element
/// type. Returns `Some` only at `root`.
async fn chunked_reduce<T: Datatype, F: Fn(&T, &T) -> T>(
    sc: &mut StepComm<'_, '_>,
    g: &Group<'_>,
    data: &[T],
    root: usize,
    base: u64,
    combine: &F,
) -> Result<Option<Vec<T>>> {
    let p = g.len();
    debug_assert!(p <= 1 << 16, "chunked reduce round tags need log2(p) < 16");
    let vrank = (g.me + p - root) % p;
    let count = data.len();
    let chunk = chunk_elems::<T>(count);
    let nchunks = n_chunks(count, chunk);
    // Flat tree, precomputed: children are the rounds where this rank
    // receives; `parent` is the round where it sends and stops.
    let mut children: Vec<(usize, u64)> = Vec::new();
    let mut parent: Option<(usize, u64)> = None;
    let mut mask = 1usize;
    let mut round = 0u64;
    while mask < p {
        if vrank & mask != 0 {
            parent = Some((g.rank((vrank - mask + root) % p), round));
            break;
        }
        let child = vrank + mask;
        if child < p {
            children.push((g.rank((child + root) % p), round));
        }
        mask <<= 1;
        round += 1;
    }
    let mut acc = data.to_vec();
    for c in 0..nchunks {
        let lo = c * chunk;
        let hi = (lo + chunk).min(count);
        // Fold children in round order — exactly the flat fold order,
        // restricted to this chunk's elements.
        for &(child, r) in &children {
            let env = sc
                .coll_recv_raw::<T>(child, base + c as u64 * 16 + r)
                .await?;
            let part: Vec<T> = decode_vec(&env.payload);
            if part.len() != hi - lo {
                return Err(length_mismatch("reduce"));
            }
            fold_into(&mut acc[lo..hi], &part, combine);
        }
        // Stream chunk `c` upward while children are still producing
        // chunk `c+1`.
        if let Some((up, r)) = parent {
            sc.comm
                .coll_send(&acc[lo..hi], up, base + c as u64 * 16 + r)?;
        }
    }
    Ok(parent.is_none().then_some(acc))
}

// ---------------------------------------------------------------------
// Hierarchical (node-aware) shapes
// ---------------------------------------------------------------------

/// Node-grouped view of a [`Group`]. Positions are grouped by hosting
/// node; groups are ordered by node id and positions ascend within a
/// group. Each group has one *leader*: its first position, except the
/// root's group, whose leader is the root itself (so the root never
/// relays through another rank).
struct HierTopo {
    groups: Vec<Vec<usize>>,
    leaders: Vec<usize>,
    my_group: usize,
}

impl HierTopo {
    fn build(comm: &Comm, g: &Group, root: usize) -> HierTopo {
        let placement = comm.cost_model().placement();
        let mut by_node: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for pos in 0..g.len() {
            by_node
                .entry(placement.node_of(g.rank(pos)))
                .or_default()
                .push(pos);
        }
        let root_node = placement.node_of(g.rank(root));
        let my_node = placement.node_of(g.rank(g.me));
        let mut groups = Vec::with_capacity(by_node.len());
        let mut leaders = Vec::with_capacity(by_node.len());
        let mut my_group = 0;
        for (node, group) in by_node {
            if node == my_node {
                my_group = groups.len();
            }
            leaders.push(if node == root_node { root } else { group[0] });
            groups.push(group);
        }
        HierTopo {
            groups,
            leaders,
            my_group,
        }
    }

    /// Number of distinct nodes hosting `members`.
    fn n_nodes(placement: &Placement, members: &[usize]) -> usize {
        members
            .iter()
            .map(|&r| placement.node_of(r))
            .collect::<BTreeSet<_>>()
            .len()
    }

    fn my_leader(&self) -> usize {
        self.leaders[self.my_group]
    }

    /// World ranks of the leaders, in group order.
    fn leaders_world(&self, g: &Group) -> Vec<usize> {
        self.leaders.iter().map(|&p| g.rank(p)).collect()
    }

    /// World ranks of my group's members, in position order.
    fn group_world(&self, g: &Group) -> Vec<usize> {
        self.groups[self.my_group]
            .iter()
            .map(|&p| g.rank(p))
            .collect()
    }

    /// Index of position `pos` within my group.
    fn idx_in_group(&self, pos: usize) -> usize {
        self.groups[self.my_group]
            .iter()
            .position(|&p| p == pos)
            .expect("position belongs to this group")
    }

    /// `(group, index-within-group)` for every position.
    fn locate_all(&self, n: usize) -> Vec<(usize, usize)> {
        let mut loc = vec![(0usize, 0usize); n];
        for (g, group) in self.groups.iter().enumerate() {
            for (i, &pos) in group.iter().enumerate() {
                loc[pos] = (g, i);
            }
        }
        loc
    }

    /// Index of the root's group (the root is always its group's leader).
    fn root_group(&self, root: usize) -> usize {
        self.leaders
            .iter()
            .position(|&p| p == root)
            .expect("root leads its own group")
    }
}

/// Intra-node fan-in: non-leaders send `data` to their node leader and
/// get `None`; the leader gets every group member's encoded block in
/// position order (its own included), each rejected when its byte length
/// differs from `expect`.
async fn fan_in<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    g: &Group<'_>,
    topo: &HierTopo,
    data: &[T],
    base: u64,
    expect: Option<usize>,
    what: &str,
) -> Result<Option<Vec<Bytes>>> {
    let leader = topo.my_leader();
    if g.me != leader {
        sc.comm
            .coll_send(data, g.rank(leader), base + T_INTRA_FANIN)?;
        return Ok(None);
    }
    let mine = &topo.groups[topo.my_group];
    let mut rows = Vec::with_capacity(mine.len());
    for &pos in mine {
        if pos == g.me {
            rows.push(encode_slice(data));
            continue;
        }
        let env = sc
            .coll_recv_raw::<T>(g.rank(pos), base + T_INTRA_FANIN)
            .await?;
        if expect.is_some_and(|n| env.payload.len() != n) {
            return Err(length_mismatch(what));
        }
        rows.push(env.payload);
    }
    Ok(Some(rows))
}

fn concat(blocks: &[Bytes]) -> Vec<u8> {
    let mut out = Vec::with_capacity(blocks.iter().map(|b| b.len()).sum());
    for b in blocks {
        out.extend_from_slice(b);
    }
    out
}

/// Broadcast `payload` from my node's leader to the rest of my node over
/// the intra-node binomial tree.
async fn intra_bcast<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    g: &Group<'_>,
    topo: &HierTopo,
    base: u64,
    payload: Bytes,
) -> Result<Bytes> {
    let members = topo.group_world(g);
    let node = Group::of(&members, topo.idx_in_group(g.me));
    let root = topo.idx_in_group(topo.my_leader());
    tree_bcast::<T>(sc, &node, root, base + T_INTRA_TREE, payload).await
}

/// Node-aware barrier: intra-node fan-in to each leader, dissemination
/// barrier among leaders over the inter-node links, intra-node release.
async fn hier_barrier(sc: &mut StepComm<'_, '_>, g: &Group<'_>, base: u64) -> Result<()> {
    let topo = HierTopo::build(sc.comm, g, 0);
    let leader = topo.my_leader();
    if fan_in::<u8>(sc, g, &topo, &[], base, None, "barrier")
        .await?
        .is_none()
    {
        sc.coll_recv_raw::<u8>(g.rank(leader), base + T_INTRA_RELEASE)
            .await?;
        return Ok(());
    }
    let leaders = topo.leaders_world(g);
    let leader_group = Group::of(&leaders, topo.my_group);
    dissemination_barrier(sc, &leader_group, base + T_INTER_BARRIER).await?;
    for &pos in &topo.groups[topo.my_group] {
        if pos != g.me {
            sc.comm
                .coll_send::<u8>(&[], g.rank(pos), base + T_INTRA_RELEASE)?;
        }
    }
    Ok(())
}

/// Node-aware broadcast: one inter-node binomial tree over the leaders,
/// then an intra-node binomial tree inside each group. The payload
/// crosses each inter-node link exactly once.
async fn hier_bcast<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    g: &Group<'_>,
    root_data: Option<&[T]>,
    root: usize,
    base: u64,
) -> Result<Vec<T>> {
    let topo = HierTopo::build(sc.comm, g, root);
    let mut payload = root_data.map_or_else(Bytes::new, encode_slice);
    if g.me == topo.my_leader() {
        let leaders = topo.leaders_world(g);
        let leader_group = Group::of(&leaders, topo.my_group);
        let root_g = topo.root_group(root);
        payload = tree_bcast::<T>(sc, &leader_group, root_g, base + T_INTER_TREE, payload).await?;
    }
    let payload = intra_bcast::<T>(sc, g, &topo, base, payload).await?;
    Ok(root_data.map_or_else(|| decode_vec(&payload), <[T]>::to_vec))
}

/// Node-aware reduction: intra-node tree to each leader, inter-node tree
/// over the leaders to the root. Re-associates the fold, so the dispatch
/// only selects this when the operator is exactly re-associable on the
/// element type. Returns `Some` only at `root`.
async fn hier_reduce<T: Datatype, F: Fn(&T, &T) -> T>(
    sc: &mut StepComm<'_, '_>,
    g: &Group<'_>,
    data: &[T],
    root: usize,
    base: u64,
    combine: &F,
) -> Result<Option<Vec<T>>> {
    let topo = HierTopo::build(sc.comm, g, root);
    let members = topo.group_world(g);
    let node = Group::of(&members, topo.idx_in_group(g.me));
    let node_root = topo.idx_in_group(topo.my_leader());
    let local = tree_reduce(sc, &node, node_root, base + T_INTRA_TREE, data, combine).await?;
    let Some(local) = local else {
        return Ok(None);
    };
    let leaders = topo.leaders_world(g);
    let leader_group = Group::of(&leaders, topo.my_group);
    let root_g = topo.root_group(root);
    tree_reduce(
        sc,
        &leader_group,
        root_g,
        base + T_INTER_TREE,
        &local,
        combine,
    )
    .await
}

/// Node-aware gather: members send their block to the node leader, each
/// leader concatenates its group's blocks into one bundle, and only the
/// bundles cross the inter-node links to the root.
async fn hier_gather<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    g: &Group<'_>,
    data: &[T],
    root: usize,
    base: u64,
) -> Result<Option<Vec<T>>> {
    let topo = HierTopo::build(sc.comm, g, root);
    let blk = data.len() * T::SIZE;
    let Some(rows) = fan_in(sc, g, &topo, data, base, Some(blk), "gather").await? else {
        return Ok(None);
    };
    let bundle = Bytes::from(concat(&rows));
    if g.me != root {
        sc.comm.coll_send_bytes(
            bundle,
            T::NAME,
            T::SIZE,
            g.rank(root),
            base + T_INTER_BUNDLE,
        )?;
        return Ok(None);
    }
    // Root: take the other leaders' bundles and splice every block back
    // into position order.
    let mut bundles: Vec<Option<Bytes>> = vec![None; topo.groups.len()];
    bundles[topo.my_group] = Some(bundle);
    for (gi, grp) in topo.groups.iter().enumerate() {
        if gi == topo.my_group {
            continue;
        }
        let env = sc
            .coll_recv_raw::<T>(g.rank(topo.leaders[gi]), base + T_INTER_BUNDLE)
            .await?;
        if env.payload.len() != blk * grp.len() {
            return Err(length_mismatch("gather"));
        }
        bundles[gi] = Some(env.payload);
    }
    let mut out: Vec<T> = Vec::with_capacity(data.len() * g.len());
    for (gi, i) in topo.locate_all(g.len()) {
        let b = bundles[gi].as_ref().expect("all bundles received");
        decode_extend(&b[i * blk..(i + 1) * blk], &mut out);
    }
    Ok(Some(out))
}

/// Node-aware allgather: intra-node fan-in builds one bundle per node,
/// the bundles circulate over a ring of leaders, each leader splices the
/// full payload back into position order, and an intra-node tree
/// broadcast delivers it.
async fn hier_allgather<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    g: &Group<'_>,
    data: &[T],
    base: u64,
) -> Result<Vec<T>> {
    let topo = HierTopo::build(sc.comm, g, 0);
    let blk = data.len() * T::SIZE;
    let mut payload = Bytes::new();
    if let Some(rows) = fan_in(sc, g, &topo, data, base, Some(blk), "allgather").await? {
        let leaders = topo.leaders_world(g);
        let ring = Group::of(&leaders, topo.my_group);
        let mine = Bytes::from(concat(&rows));
        let tag = |k: usize| base + T_INTER_RING + (k as u64 % 64);
        let expect = |gi: usize| Some(blk * topo.groups[gi].len());
        let bundles = ring_allgather::<T, _, _>(sc, &ring, mine, tag, expect).await?;
        let mut full: Vec<u8> = Vec::with_capacity(blk * g.len());
        for (gi, i) in topo.locate_all(g.len()) {
            let b = circulated(&bundles[gi]);
            full.extend_from_slice(&b[i * blk..(i + 1) * blk]);
        }
        payload = Bytes::from(full);
    }
    let payload = intra_bcast::<T>(sc, g, &topo, base, payload).await?;
    Ok(decode_vec(&payload))
}

/// Split a framed buffer (`u64` little-endian length prefix per block)
/// into `expect` blocks.
fn split_frames(buf: &[u8], expect: usize) -> Result<Vec<&[u8]>> {
    let malformed = || Error::InvalidArgument("malformed allgatherv bundle".into());
    let mut out = Vec::with_capacity(expect);
    let mut off = 0usize;
    while off < buf.len() {
        let head = buf.get(off..off + 8).ok_or_else(malformed)?;
        let len = u64::from_le_bytes(head.try_into().expect("8 bytes")) as usize;
        off += 8;
        out.push(buf.get(off..off + len).ok_or_else(malformed)?);
        off += len;
    }
    if out.len() != expect {
        return Err(malformed());
    }
    Ok(out)
}

/// Append a length-framed block to `buf`.
fn push_frame(buf: &mut Vec<u8>, block: &[u8]) {
    buf.extend_from_slice(&(block.len() as u64).to_le_bytes());
    buf.extend_from_slice(block);
}

/// Node-aware allgatherv: like [`hier_allgather`] but with ragged
/// contributions carried in length-framed bundles (typed as `u8` on the
/// wire, since a framed bundle is not a whole number of `T`s).
async fn hier_allgatherv<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    g: &Group<'_>,
    data: &[T],
    base: u64,
) -> Result<Vec<Vec<T>>> {
    let topo = HierTopo::build(sc.comm, g, 0);
    let mut payload = Bytes::new();
    if let Some(rows) = fan_in(sc, g, &topo, data, base, None, "allgatherv").await? {
        let mut bundle: Vec<u8> = Vec::new();
        for row in &rows {
            push_frame(&mut bundle, row);
        }
        let leaders = topo.leaders_world(g);
        let ring = Group::of(&leaders, topo.my_group);
        let tag = |k: usize| base + T_INTER_RING + (k as u64 % 64);
        let bundles =
            ring_allgather::<u8, _, _>(sc, &ring, Bytes::from(bundle), tag, |_| None).await?;
        // Re-frame into position order.
        let mut frames: Vec<Vec<&[u8]>> = Vec::with_capacity(topo.groups.len());
        for (gi, grp) in topo.groups.iter().enumerate() {
            let b = circulated(&bundles[gi]);
            frames.push(split_frames(b, grp.len())?);
        }
        let mut full: Vec<u8> = Vec::new();
        for (gi, i) in topo.locate_all(g.len()) {
            push_frame(&mut full, frames[gi][i]);
        }
        payload = Bytes::from(full);
    }
    let payload = intra_bcast::<u8>(sc, g, &topo, base, payload).await?;
    let blocks = split_frames(&payload, g.len())?;
    Ok(blocks.into_iter().map(decode_vec::<T>).collect())
}

/// Node-aware alltoall: members hand their full outgoing row to the node
/// leader; leaders exchange one aggregated bundle per node pair (each
/// bundle laid out `[source member × destination member]`), then deliver
/// each member its assembled result row. Inter-node links carry one
/// message per node pair instead of one per rank pair.
async fn hier_alltoall<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    g: &Group<'_>,
    data: &[T],
    base: u64,
) -> Result<Vec<T>> {
    let n = g.len();
    debug_assert!(data.len().is_multiple_of(n), "caller checks divisibility");
    let blk = (data.len() / n) * T::SIZE;
    let topo = HierTopo::build(sc.comm, g, 0);
    let leader = topo.my_leader();
    let Some(rows) = fan_in(sc, g, &topo, data, base, Some(blk * n), "alltoall").await? else {
        let env = sc
            .coll_recv_raw::<T>(g.rank(leader), base + T_INTRA_RESULT)
            .await?;
        return Ok(decode_vec(&env.payload));
    };
    // One bundle per destination node: [my member i × their member j].
    let my_members = &topo.groups[topo.my_group];
    let m = my_members.len();
    let l = topo.groups.len();
    for off in 1..l {
        let d = (topo.my_group + off) % l;
        let dst_grp = &topo.groups[d];
        let mut bundle: Vec<u8> = Vec::with_capacity(m * dst_grp.len() * blk);
        for row in &rows {
            for &q in dst_grp {
                bundle.extend_from_slice(&row[q * blk..(q + 1) * blk]);
            }
        }
        sc.comm.coll_send_bytes(
            Bytes::from(bundle),
            T::NAME,
            T::SIZE,
            g.rank(topo.leaders[d]),
            base + T_INTER_BUNDLE,
        )?;
    }
    let mut bundles: Vec<Option<Bytes>> = vec![None; l];
    for off in 1..l {
        let gi = (topo.my_group + l - off) % l;
        let env = sc
            .coll_recv_raw::<T>(g.rank(topo.leaders[gi]), base + T_INTER_BUNDLE)
            .await?;
        if env.payload.len() != topo.groups[gi].len() * m * blk {
            return Err(length_mismatch("alltoall"));
        }
        bundles[gi] = Some(env.payload);
    }
    // Assemble and deliver each member's result row in position order.
    let loc = topo.locate_all(n);
    let mut own: Vec<u8> = Vec::new();
    for (j, &q) in my_members.iter().enumerate() {
        let mut res: Vec<u8> = Vec::with_capacity(blk * n);
        for &(gi, i) in &loc {
            if gi == topo.my_group {
                res.extend_from_slice(&rows[i][q * blk..(q + 1) * blk]);
            } else {
                let b = bundles[gi].as_ref().expect("all bundles received");
                let idx = i * m + j;
                res.extend_from_slice(&b[idx * blk..(idx + 1) * blk]);
            }
        }
        if q == g.me {
            own = res;
        } else {
            sc.comm.coll_send_bytes(
                Bytes::from(res),
                T::NAME,
                T::SIZE,
                g.rank(q),
                base + T_INTRA_RESULT,
            )?;
        }
    }
    Ok(decode_vec(&Bytes::from(own)))
}

// ---------------------------------------------------------------------
// Dispatch: the world and sub-communicator entry points
//
// Each entry point logs the call, allocates its tag base, selects an
// algorithm, and runs it. The flat shape has one call site, reached both
// untuned (`algo == None`, no selection bookkeeping) and when `Flat` is
// selected; the tuned shapes are boxed.
// ---------------------------------------------------------------------

/// `MPI_Barrier`: dissemination, or node-aware when selected.
pub(crate) async fn barrier(
    sc: &mut StepComm<'_, '_>,
    mut scope: Scope<'_>,
    site: CallSite,
) -> Result<()> {
    scope.enter(sc.comm, None, None, None, "-", site);
    sc.comm.record(Primitive::Barrier);
    let base = scope.next_base(sc.comm);
    let g = scope.group(sc.comm);
    let algo = select(sc.comm, &g, CollKind::Barrier, 0, true);
    scope.begin(sc.comm, algo);
    let r = match algo {
        Some(CollAlgo::Hierarchical) => Box::pin(hier_barrier(sc, &g, base)).await,
        _ => dissemination_barrier(sc, &g, base).await,
    };
    sc.comm.end_algo();
    r
}

/// `MPI_Bcast`. With a tuning table installed only the root knows the
/// payload size, so it makes the selection and announces the algorithm
/// and the element count in a header broadcast over the flat tree before
/// the payload moves.
pub(crate) async fn bcast<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    mut scope: Scope<'_>,
    data: Option<&[T]>,
    root: usize,
    site: CallSite,
) -> Result<Vec<T>> {
    let at_root = scope.me(sc.comm) == root;
    let count = if at_root { data.map(<[T]>::len) } else { None };
    scope.enter(sc.comm, Some(root), None, count, T::NAME, site);
    scope.validate_root(sc.comm, root)?;
    sc.comm.record(Primitive::Bcast);
    let base = scope.next_base(sc.comm);
    let root_data = match (at_root, data) {
        (true, None) => {
            let name = scope.name;
            return Err(Error::InvalidArgument(format!(
                "{name} root must supply the data"
            )));
        }
        (true, data) => data,
        (false, _) => None,
    };
    let g = scope.group(sc.comm);
    let (algo, count) = match sc.comm.tuning() {
        None => (None, 0),
        Some(tuning) => {
            let header = match root_data {
                Some(d) => {
                    let bytes = d.len() * T::SIZE;
                    let algo = select_tuned(sc.comm, tuning, &g, CollKind::Bcast, bytes, true);
                    encode_slice(&[algo.wire_id(), d.len() as u64])
                }
                None => Bytes::new(),
            };
            let header = tree_bcast::<u64>(sc, &g, root, base + T_HEADER, header).await?;
            let corrupt = || Error::InvalidArgument("corrupt bcast algorithm header".into());
            let [id, count] = decode_vec::<u64>(&header)[..] else {
                return Err(corrupt());
            };
            let algo = CollAlgo::from_wire_id(id).ok_or_else(corrupt)?;
            (Some(algo), count as usize)
        }
    };
    scope.begin(sc.comm, algo);
    let r = match algo {
        Some(CollAlgo::Chunked) => {
            Box::pin(chunked_bcast(sc, &g, root_data, root, count, base)).await
        }
        Some(CollAlgo::Hierarchical) => Box::pin(hier_bcast(sc, &g, root_data, root, base)).await,
        _ => {
            let payload = root_data.map_or_else(Bytes::new, encode_slice);
            tree_bcast::<T>(sc, &g, root, base, payload)
                .await
                .map(|payload| root_data.map_or_else(|| decode_vec(&payload), <[T]>::to_vec))
        }
    };
    sc.comm.end_algo();
    r
}

/// `MPI_Reduce`: binomial tree toward `root`, or its chunked or
/// node-aware variant when selected (the latter only for exact folds).
pub(crate) async fn reduce<T: Datatype, F: Fn(&T, &T) -> T>(
    sc: &mut StepComm<'_, '_>,
    mut scope: Scope<'_>,
    data: &[T],
    root: usize,
    fold: Fold<F>,
    site: CallSite,
) -> Result<Option<Vec<T>>> {
    scope.enter(
        sc.comm,
        Some(root),
        fold.op,
        Some(data.len()),
        T::NAME,
        site,
    );
    scope.validate_root(sc.comm, root)?;
    fold.check::<T>()?;
    sc.comm.record(Primitive::Reduce);
    let base = scope.next_base(sc.comm);
    let g = scope.group(sc.comm);
    let bytes = data.len() * T::SIZE;
    let algo = select(sc.comm, &g, CollKind::Reduce, bytes, fold.exact);
    scope.begin(sc.comm, algo);
    let combine = &fold.combine;
    let r = match algo {
        Some(CollAlgo::Chunked) => {
            Box::pin(chunked_reduce(sc, &g, data, root, base, combine)).await
        }
        Some(CollAlgo::Hierarchical) => {
            Box::pin(hier_reduce(sc, &g, data, root, base, combine)).await
        }
        _ => tree_reduce(sc, &g, root, base, data, combine).await,
    };
    sc.comm.end_algo();
    r
}

/// `MPI_Allreduce`: reduce to position 0, then broadcast from there. The
/// flat composite runs both phases under one tag base; the chunked and
/// node-aware composites allocate a second base for the broadcast.
pub(crate) async fn allreduce<T: Datatype, F: Fn(&T, &T) -> T>(
    sc: &mut StepComm<'_, '_>,
    mut scope: Scope<'_>,
    data: &[T],
    fold: Fold<F>,
    site: CallSite,
) -> Result<Vec<T>> {
    scope.enter(sc.comm, None, fold.op, Some(data.len()), T::NAME, site);
    fold.check::<T>()?;
    sc.comm.record(Primitive::Allreduce);
    let (kind, bytes) = (CollKind::Allreduce, data.len() * T::SIZE);
    let algo = select(sc.comm, &scope.group(sc.comm), kind, bytes, fold.exact);
    let base = scope.next_base(sc.comm);
    let bcast_base = match algo {
        Some(CollAlgo::Chunked | CollAlgo::Hierarchical) => scope.next_base(sc.comm),
        _ => base + T_SECOND_PHASE,
    };
    let g = scope.group(sc.comm);
    scope.begin(sc.comm, algo);
    let combine = &fold.combine;
    let r = match algo {
        Some(CollAlgo::Chunked) => {
            Box::pin(async {
                let reduced = chunked_reduce(sc, &g, data, 0, base, combine).await?;
                chunked_bcast(sc, &g, reduced.as_deref(), 0, data.len(), bcast_base).await
            })
            .await
        }
        Some(CollAlgo::Hierarchical) => {
            Box::pin(async {
                let reduced = hier_reduce(sc, &g, data, 0, base, combine).await?;
                hier_bcast(sc, &g, reduced.as_deref(), 0, bcast_base).await
            })
            .await
        }
        _ => match tree_reduce(sc, &g, 0, base, data, combine).await {
            Ok(reduced) => {
                let payload = reduced.as_deref().map_or_else(Bytes::new, encode_slice);
                tree_bcast::<T>(sc, &g, 0, bcast_base, payload)
                    .await
                    .map(|payload| reduced.unwrap_or_else(|| decode_vec(&payload)))
            }
            Err(e) => Err(e),
        },
    };
    sc.comm.end_algo();
    r
}

/// `MPI_Gather` (equal-length blocks): linear, or node-aware when
/// selected. Sub-communicator gathers are not tuned.
pub(crate) async fn gather<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    mut scope: Scope<'_>,
    data: &[T],
    root: usize,
    site: CallSite,
) -> Result<Option<Vec<T>>> {
    scope.enter(sc.comm, Some(root), None, Some(data.len()), T::NAME, site);
    scope.validate_root(sc.comm, root)?;
    sc.comm.record(Primitive::Gather);
    let base = scope.next_base(sc.comm);
    let g = scope.group(sc.comm);
    let bytes = data.len() * T::SIZE;
    let algo = match scope.sub {
        None => select(sc.comm, &g, CollKind::Gather, bytes, true),
        Some(_) => None,
    };
    scope.begin(sc.comm, algo);
    let r = match algo {
        Some(CollAlgo::Hierarchical) => Box::pin(hier_gather(sc, &g, data, root, base)).await,
        _ => linear_gather(sc, &g, root, base, data, true)
            .await
            .map(|blocks| blocks.map(|b| b.concat())),
    };
    sc.comm.end_algo();
    r
}

/// `MPI_Gatherv`: linear; the root keeps one block per position.
pub(crate) async fn gatherv<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    mut scope: Scope<'_>,
    data: &[T],
    root: usize,
    site: CallSite,
) -> Result<Option<Vec<Vec<T>>>> {
    scope.enter(sc.comm, Some(root), None, None, T::NAME, site);
    scope.validate_root(sc.comm, root)?;
    sc.comm.record(Primitive::Gatherv);
    let base = scope.next_base(sc.comm);
    linear_gather(sc, &scope.group(sc.comm), root, base, data, false).await
}

/// `MPI_Scatter` (`variable = false`: equal shares) and `MPI_Scatterv`
/// (`variable = true`: the root's `counts`).
pub(crate) async fn scatter<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    mut scope: Scope<'_>,
    data: Option<&[T]>,
    counts: Option<&[usize]>,
    root: usize,
    variable: bool,
    site: CallSite,
) -> Result<Vec<T>> {
    let at_root = scope.me(sc.comm) == root;
    let count = if at_root && !variable {
        data.map(<[T]>::len)
    } else {
        None
    };
    scope.enter(sc.comm, Some(root), None, count, T::NAME, site);
    scope.validate_root(sc.comm, root)?;
    sc.comm.record(if variable {
        Primitive::Scatterv
    } else {
        Primitive::Scatter
    });
    let base = scope.next_base(sc.comm);
    let g = scope.group(sc.comm);
    if at_root {
        let name = scope.name;
        let data = data
            .ok_or_else(|| Error::InvalidArgument(format!("{name} root must supply the data")))?;
        if variable {
            let counts = counts.ok_or_else(|| {
                Error::InvalidArgument(format!("{name} root must supply the counts"))
            })?;
            if counts.len() != g.len() || counts.iter().sum::<usize>() != data.len() {
                return Err(Error::InvalidArgument(format!(
                    "{name} counts {counts:?} do not partition {} elements over {} ranks",
                    data.len(),
                    g.len()
                )));
            }
        } else if !data.len().is_multiple_of(g.len()) {
            return Err(Error::InvalidArgument(format!(
                "{name} of {} elements does not divide evenly over {} ranks (use scatterv)",
                data.len(),
                g.len()
            )));
        }
    }
    linear_scatter(sc, &g, root, base, data, counts).await
}

/// `MPI_Allgather` (equal-length blocks): ring, or node-aware when
/// selected.
pub(crate) async fn allgather<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    mut scope: Scope<'_>,
    data: &[T],
    site: CallSite,
) -> Result<Vec<T>> {
    scope.enter(sc.comm, None, None, Some(data.len()), T::NAME, site);
    sc.comm.record(Primitive::Allgather);
    let base = scope.next_base(sc.comm);
    let g = scope.group(sc.comm);
    let blk = data.len() * T::SIZE;
    let algo = select(sc.comm, &g, CollKind::Allgather, blk, true);
    scope.begin(sc.comm, algo);
    let r = match algo {
        Some(CollAlgo::Hierarchical) => Box::pin(hier_allgather(sc, &g, data, base)).await,
        _ => {
            let tag = |k: usize| base + k as u64;
            let blocks =
                ring_allgather::<T, _, _>(sc, &g, encode_slice(data), tag, |_| Some(blk)).await;
            blocks.map(|blocks| {
                let mut out = Vec::with_capacity(data.len() * g.len());
                for b in &blocks {
                    decode_extend(circulated(b), &mut out);
                }
                out
            })
        }
    };
    sc.comm.end_algo();
    r
}

/// `MPI_Allgatherv`: ring of ragged blocks, or node-aware when selected.
/// Selection is topology-only (`bytes = 0`): contributions are ragged by
/// definition.
pub(crate) async fn allgatherv<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    mut scope: Scope<'_>,
    data: &[T],
    site: CallSite,
) -> Result<Vec<Vec<T>>> {
    scope.enter(sc.comm, None, None, None, T::NAME, site);
    sc.comm.record(Primitive::Allgatherv);
    let base = scope.next_base(sc.comm);
    let g = scope.group(sc.comm);
    let algo = select(sc.comm, &g, CollKind::Allgatherv, 0, true);
    scope.begin(sc.comm, algo);
    let r = match algo {
        Some(CollAlgo::Hierarchical) => Box::pin(hier_allgatherv(sc, &g, data, base)).await,
        _ => {
            let tag = |k: usize| base + k as u64;
            let blocks = ring_allgather::<T, _, _>(sc, &g, encode_slice(data), tag, |_| None).await;
            blocks.map(|blocks| blocks.iter().map(|b| decode_vec(circulated(b))).collect())
        }
    };
    sc.comm.end_algo();
    r
}

/// `MPI_Alltoall`: `data` holds one equal block per position. Skewed
/// exchange, or node-aware when selected; selection keys on the
/// per-destination block, matching the tuner's probe payloads.
pub(crate) async fn alltoall<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    mut scope: Scope<'_>,
    data: &[T],
    site: CallSite,
) -> Result<Vec<T>> {
    scope.enter(sc.comm, None, None, Some(data.len()), T::NAME, site);
    sc.comm.record(Primitive::Alltoall);
    let p = scope.group(sc.comm).len();
    if !data.len().is_multiple_of(p) {
        return Err(Error::InvalidArgument(format!(
            "alltoall of {} elements does not divide evenly over {p} ranks",
            data.len(),
        )));
    }
    let base = scope.next_base(sc.comm);
    let g = scope.group(sc.comm);
    let chunk = data.len() / p;
    let algo = select(sc.comm, &g, CollKind::Alltoall, chunk * T::SIZE, true);
    scope.begin(sc.comm, algo);
    let r = match algo {
        Some(CollAlgo::Hierarchical) => Box::pin(hier_alltoall(sc, &g, data, base)).await,
        _ => {
            // Send each outgoing slice straight from the input, then
            // decode each peer's block into place.
            let block = |i: usize| &data[i * chunk..(i + 1) * chunk];
            let blocks = skewed_exchange(sc, &g, base, block, Some(chunk * T::SIZE)).await;
            blocks.map(|blocks| {
                let mut out = Vec::with_capacity(data.len());
                for (i, b) in blocks.into_iter().enumerate() {
                    match b {
                        None => out.extend_from_slice(block(i)),
                        Some(b) => {
                            decode_extend(&b, &mut out);
                        }
                    }
                }
                out
            })
        }
    };
    sc.comm.end_algo();
    r
}

/// `MPI_Alltoallv`: `parts[i]` goes to position `i`; returns the block
/// each position sent here.
pub(crate) async fn alltoallv<T: Datatype>(
    sc: &mut StepComm<'_, '_>,
    mut scope: Scope<'_>,
    mut parts: Vec<Vec<T>>,
    site: CallSite,
) -> Result<Vec<Vec<T>>> {
    scope.enter(sc.comm, None, None, None, T::NAME, site);
    sc.comm.record(Primitive::Alltoallv);
    let p = scope.group(sc.comm).len();
    if parts.len() != p {
        return Err(Error::InvalidArgument(format!(
            "alltoallv needs one block per rank ({} given, {p} ranks)",
            parts.len(),
        )));
    }
    let base = scope.next_base(sc.comm);
    let g = scope.group(sc.comm);
    let blocks = skewed_exchange(sc, &g, base, |i| &parts[i][..], None).await?;
    let mut own = Some(std::mem::take(&mut parts[g.me]));
    Ok(blocks
        .into_iter()
        .map(|b| match b {
            Some(b) => decode_vec(&b),
            None => own.take().expect("one own block"),
        })
        .collect())
}

/// `MPI_Scan`: inclusive prefix reduction.
pub(crate) async fn scan<T: Datatype, F: Fn(&T, &T) -> T>(
    sc: &mut StepComm<'_, '_>,
    mut scope: Scope<'_>,
    data: &[T],
    fold: Fold<F>,
    site: CallSite,
) -> Result<Vec<T>> {
    scope.enter(sc.comm, None, fold.op, Some(data.len()), T::NAME, site);
    fold.check::<T>()?;
    sc.comm.record(Primitive::Scan);
    let base = scope.next_base(sc.comm);
    prefix_scan(sc, &scope.group(sc.comm), base, data, &fold.combine).await
}

/// `MPI_Exscan`: exclusive prefix reduction — the inclusive scan shifted
/// one position to the right; position 0 receives `None`.
pub(crate) async fn exscan<T: Datatype, F: Fn(&T, &T) -> T>(
    sc: &mut StepComm<'_, '_>,
    mut scope: Scope<'_>,
    data: &[T],
    fold: Fold<F>,
    site: CallSite,
) -> Result<Option<Vec<T>>> {
    scope.enter(sc.comm, None, fold.op, Some(data.len()), T::NAME, site);
    fold.check::<T>()?;
    sc.comm.record(Primitive::Exscan);
    let base = scope.next_base(sc.comm);
    let g = scope.group(sc.comm);
    let inclusive = prefix_scan(sc, &g, base, data, &fold.combine).await?;
    if g.me + 1 < g.len() {
        sc.comm
            .coll_send(&inclusive, g.rank(g.me + 1), base + T_SECOND_PHASE)?;
    }
    if g.me == 0 {
        return Ok(None);
    }
    let env = sc
        .coll_recv_raw::<T>(g.rank(g.me - 1), base + T_SECOND_PHASE)
        .await?;
    Ok(Some(decode_vec(&env.payload)))
}

/// `MPI_Reduce_scatter_block`: binomial reduction to position 0, then a
/// linear scatter of equal blocks from there.
pub(crate) async fn reduce_scatter_block<T: Datatype, F: Fn(&T, &T) -> T>(
    sc: &mut StepComm<'_, '_>,
    mut scope: Scope<'_>,
    data: &[T],
    fold: Fold<F>,
    site: CallSite,
) -> Result<Vec<T>> {
    scope.enter(sc.comm, None, fold.op, Some(data.len()), T::NAME, site);
    fold.check::<T>()?;
    sc.comm.record(Primitive::ReduceScatter);
    let p = scope.group(sc.comm).len();
    if !data.len().is_multiple_of(p) {
        return Err(Error::InvalidArgument(format!(
            "reduce_scatter_block of {} elements does not divide over {p} ranks",
            data.len(),
        )));
    }
    let base = scope.next_base(sc.comm);
    let g = scope.group(sc.comm);
    let reduced = tree_reduce(sc, &g, 0, base, data, &fold.combine).await?;
    linear_scatter(sc, &g, 0, base + T_SECOND_PHASE, reduced.as_deref(), None).await
}
