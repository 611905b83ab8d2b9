//! Derived communicators: the analogue of `MPI_Comm_split`.
//!
//! [`Comm::split`] partitions the world by *color* (ranks with the same
//! color form one sub-communicator) with ordering controlled by *key*
//! (ties broken by world rank), exactly like `MPI_Comm_split`. The
//! resulting [`SubComm`] is a passive descriptor — operations on it go
//! through the owning rank's [`Comm`] (`sub_barrier`, `sub_bcast`,
//! `sub_reduce`, `sub_allreduce`, `sub_gather`), which keeps the borrow
//! discipline simple and mirrors how MPI calls always take both a
//! communicator handle and execute on the calling process.
//!
//! Every sub-communicator carries a *context id* baked into its internal
//! message tags, so concurrent collectives on different communicators can
//! never cross-match — MPI's communicator-isolation guarantee.

use crate::check::CallSite;
use crate::coll::{self, Fold, Scope};
use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::error::{Error, Result};
use crate::reduce::{Op, Reducible};
use crate::stats::Primitive;
use crate::step::{block_on, StepComm};

/// Tag stride per collective on a sub-communicator (matches the world's).
const COLL_TAG_STRIDE: u64 = 1024;

/// A derived communicator produced by [`Comm::split`].
#[derive(Debug, Clone)]
pub struct SubComm {
    /// World ranks of the members, in sub-rank order.
    members: Vec<usize>,
    /// This rank's position within `members`.
    my_idx: usize,
    /// Context id isolating this communicator's internal tag space.
    ctx: u64,
    /// Collective sequence counter (advances identically on all members).
    seq: u64,
}

impl SubComm {
    /// This rank's id within the sub-communicator.
    pub fn rank(&self) -> usize {
        self.my_idx
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// World ranks of the members, in sub-rank order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Translate a sub-rank to a world rank.
    ///
    /// # Panics
    /// Panics on an out-of-range sub-rank.
    pub fn world_rank(&self, sub_rank: usize) -> usize {
        self.members[sub_rank]
    }

    /// Context id isolating this communicator's internal tag space.
    pub(crate) fn ctx(&self) -> u64 {
        self.ctx
    }

    pub(crate) fn next_base(&mut self) -> u64 {
        let base = (self.ctx << 40) | (self.seq * COLL_TAG_STRIDE);
        self.seq += 1;
        base
    }

    pub(crate) fn validate_root(&self, root: usize) -> Result<()> {
        if root >= self.size() {
            return Err(Error::InvalidArgument(format!(
                "root {root} out of range for sub-communicator of size {}",
                self.size()
            )));
        }
        Ok(())
    }
}

impl Comm<'_> {
    /// `MPI_Comm_split`: partition the world by `color`; member order
    /// within each partition follows `key` (ties by world rank). Must be
    /// called by every rank of the world.
    pub fn split(&mut self, color: u32, key: i64) -> Result<SubComm> {
        self.record(Primitive::CommSplit);
        // Exchange (color, key) triples; the allgather gives a consistent
        // global view on every rank.
        let mine = [color as i64, key, self.rank() as i64];
        let all = self.allgather(&mine)?;
        let mut members: Vec<(i64, usize)> = all
            .chunks_exact(3)
            .filter(|t| t[0] == color as i64)
            .map(|t| (t[1], t[2] as usize))
            .collect();
        members.sort_unstable();
        let members: Vec<usize> = members.into_iter().map(|(_, r)| r).collect();
        let my_idx = members
            .iter()
            .position(|&r| r == self.rank())
            .expect("caller is a member of its own color");
        let ctx = self.next_sub_ctx();
        Ok(SubComm {
            members,
            my_idx,
            ctx,
            seq: 0,
        })
    }

    /// `MPIX_Comm_shrink` analogue: agree on the failed ranks and build a
    /// sub-communicator of the survivors, in world-rank order.
    ///
    /// Every live rank must call this; the failures are acknowledged as a
    /// side effect (see [`Comm::agree`]), so collectives on the returned
    /// communicator run normally afterwards. The recovery idiom a module
    /// uses after catching [`Error::RankFailed`](crate::Error::RankFailed)
    /// from a collective is: `let survivors = comm.shrink()?;` then redo
    /// the lost work over `survivors`.
    #[track_caller]
    pub fn shrink(&mut self) -> Result<SubComm> {
        let failed = self.agree()?;
        let members: Vec<usize> = (0..self.size())
            .filter(|r| !failed.iter().any(|&(f, _)| f == *r))
            .collect();
        let my_idx = members
            .iter()
            .position(|&r| r == self.rank())
            .expect("a failed rank cannot call shrink");
        let ctx = self.next_sub_ctx();
        Ok(SubComm {
            members,
            my_idx,
            ctx,
            seq: 0,
        })
    }

    /// Barrier over a sub-communicator (dissemination).
    #[track_caller]
    pub fn sub_barrier(&mut self, sc: &mut SubComm) -> Result<()> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::sub(sc, "sub_barrier");
        block_on(coll::barrier(step, scope, site))
    }

    /// Broadcast over a sub-communicator. `root` is a *sub-rank*.
    #[track_caller]
    pub fn sub_bcast<T: Datatype>(
        &mut self,
        sc: &mut SubComm,
        data: Option<&[T]>,
        root: usize,
    ) -> Result<Vec<T>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::sub(sc, "sub_bcast");
        block_on(coll::bcast(step, scope, data, root, site))
    }

    /// Reduction over a sub-communicator with a custom combiner; the
    /// sub-rank `root` receives the result. A custom combiner's algebra
    /// is opaque, so hierarchical re-association is never assumed exact
    /// (see `tune::constrain`).
    #[track_caller]
    pub fn sub_reduce_with<T: Datatype, F: Fn(&T, &T) -> T>(
        &mut self,
        sc: &mut SubComm,
        data: &[T],
        root: usize,
        combine: F,
    ) -> Result<Option<Vec<T>>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::sub(sc, "sub_reduce");
        let fold = Fold::custom(combine);
        block_on(coll::reduce(step, scope, data, root, fold, site))
    }

    /// Reduction over a sub-communicator with a built-in operator.
    #[track_caller]
    pub fn sub_reduce<T: Datatype + Reducible>(
        &mut self,
        sc: &mut SubComm,
        data: &[T],
        op: Op,
        root: usize,
    ) -> Result<Option<Vec<T>>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::sub(sc, "sub_reduce");
        let fold = coll::builtin(op);
        block_on(coll::reduce(step, scope, data, root, fold, site))
    }

    /// Allreduce over a sub-communicator.
    #[track_caller]
    pub fn sub_allreduce<T: Datatype + Reducible>(
        &mut self,
        sc: &mut SubComm,
        data: &[T],
        op: Op,
    ) -> Result<Vec<T>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::sub(sc, "sub_allreduce");
        let fold = coll::builtin(op);
        block_on(coll::allreduce(step, scope, data, fold, site))
    }

    /// Gather equal-length contributions to sub-rank `root`.
    #[track_caller]
    pub fn sub_gather<T: Datatype>(
        &mut self,
        sc: &mut SubComm,
        data: &[T],
        root: usize,
    ) -> Result<Option<Vec<T>>> {
        let (step, site) = (&mut StepComm::blocking(self), CallSite::here());
        let scope = Scope::sub(sc, "sub_gather");
        block_on(coll::gather(step, scope, data, root, site))
    }
}
