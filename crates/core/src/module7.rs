//! Module 7 (extension): distributed top-k queries.
//!
//! The paper's future work calls for "modules with other data-intensive
//! algorithms so students have some choice" (§V), and its Module 3
//! motivation already cites top-k database queries [Ilyas et al.]. This
//! module answers a top-k query ("the k highest-scoring records") over
//! data distributed across ranks, with three strategies whose *answers are
//! identical* but whose communication volumes differ by orders of
//! magnitude:
//!
//! 1. [`TopKStrategy::GatherAll`] — ship every score to rank 0 and sort:
//!    `O(N)` words of traffic, the naive baseline.
//! 2. [`TopKStrategy::LocalPrune`] — each rank pre-selects its local
//!    top-k, then the root merges the `p·k` candidates: `O(p·k)`.
//! 3. [`TopKStrategy::TreeMerge`] — a reduction tree whose combiner merges
//!    two top-k lists: `O(k log p)` per rank, the scalable version built
//!    on a *custom reduction operator* (`reduce_with`).
//!
//! Learning outcomes exercised: 4, 8, 13 (communication volumes), 15.

use pdc_mpi::{drive, Comm, Result, StepComm, World, WorldConfig};
use serde::{Deserialize, Serialize};

/// Communication strategy for the distributed top-k.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopKStrategy {
    /// Gather every score to rank 0.
    GatherAll,
    /// Gather each rank's local top-k to rank 0.
    LocalPrune,
    /// Tree reduction with a top-k-merging combiner.
    TreeMerge,
}

/// Report of one distributed top-k run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopKReport {
    /// Records per rank.
    pub n_per_rank: usize,
    /// Ranks used.
    pub ranks: usize,
    /// k requested.
    pub k: usize,
    /// Strategy executed.
    pub strategy: TopKStrategy,
    /// The k highest scores, descending.
    pub top: Vec<f64>,
    /// Total bytes moved.
    pub comm_bytes: u64,
    /// Bytes received by rank 0 — the hot-spot measure that separates the
    /// tree merge (`O(k log p)`) from the flat gather (`O(p·k)`).
    pub root_recv_bytes: u64,
    /// Simulated makespan, seconds.
    pub sim_time: f64,
}

/// Deterministic per-rank scores (heavy-tailed, so the top is interesting).
pub fn local_scores(n: usize, rank: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(((rank * n + i) as u64).wrapping_mul(0xBF58476D1CE4E5B9));
            let u = ((x >> 11) as f64) / (1u64 << 53) as f64;
            // Pareto-ish tail.
            1.0 / (1.0 - u).powf(0.5)
        })
        .collect()
}

/// The k largest values of `scores`, descending (sequential reference).
pub fn top_k(scores: &[f64], k: usize) -> Vec<f64> {
    let mut v = scores.to_vec();
    v.sort_by(|a, b| b.partial_cmp(a).expect("finite scores"));
    v.truncate(k);
    v
}

/// Merge two descending top-k lists into one descending top-k list.
pub fn merge_top_k(a: &[f64], b: &[f64], k: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(k);
    let (mut i, mut j) = (0, 0);
    while out.len() < k && (i < a.len() || j < b.len()) {
        let take_a = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => x >= y,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_a {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out
}

/// Run the distributed top-k query.
///
/// # Panics
/// Panics if `k == 0`.
pub fn run_top_k(
    n_per_rank: usize,
    ranks: usize,
    k: usize,
    strategy: TopKStrategy,
    seed: u64,
) -> Result<TopKReport> {
    assert!(k > 0, "top-k needs k >= 1");
    let out = World::run(WorldConfig::new(ranks), move |comm| {
        top_k_rank(comm, n_per_rank, k, strategy, seed)
    })?;
    let top: Vec<f64> = out.values[0]
        .iter()
        .copied()
        .filter(|x| x.is_finite())
        .collect();
    Ok(TopKReport {
        n_per_rank,
        ranks,
        k,
        strategy,
        top,
        comm_bytes: out.total_bytes_sent(),
        root_recv_bytes: out.stats[0].bytes_received,
        sim_time: out.sim_time,
    })
}

/// One rank's share of the distributed top-k query: generate its local
/// scores deterministically from `seed`, apply `strategy`, and return the
/// broadcast global answer (`NEG_INFINITY`-padded when the data has fewer
/// than `k` records) — identical on every rank.
pub fn top_k_rank(
    comm: &mut Comm,
    n_per_rank: usize,
    k: usize,
    strategy: TopKStrategy,
    seed: u64,
) -> Result<Vec<f64>> {
    drive(comm, |sc| {
        Box::pin(top_k_step(sc, n_per_rank, k, strategy, seed))
    })
}

/// [`top_k_rank`] in resumable (step) form: the single source of truth
/// for the module's communication pattern.
pub async fn top_k_step(
    mut sc: StepComm<'_, '_>,
    n_per_rank: usize,
    k: usize,
    strategy: TopKStrategy,
    seed: u64,
) -> Result<Vec<f64>> {
    sc.phase_begin("local_select");
    let scores = local_scores(n_per_rank, sc.rank(), seed);
    // Local work: selection is an O(n log n) sort here (students may
    // improve it — outcome 15).
    let n = scores.len() as f64;
    sc.charge_kernel(4.0 * n * n.log2().max(1.0), 16.0 * n);
    sc.phase_end();

    sc.phase_begin("merge");
    let result: Option<Vec<f64>> = match strategy {
        TopKStrategy::GatherAll => {
            let all = sc.gather(&scores, 0).await?;
            Ok::<_, pdc_mpi::Error>(all.map(|all| top_k(&all, k)))
        }
        TopKStrategy::LocalPrune => {
            let local = top_k(&scores, k.min(n_per_rank));
            let cand = sc.gatherv(&local, 0).await?;
            Ok(cand.map(|blocks| {
                let flat: Vec<f64> = blocks.into_iter().flatten().collect();
                top_k(&flat, k)
            }))
        }
        TopKStrategy::TreeMerge => {
            // Pad to a fixed k so every tree message is the same shape.
            // (`reduce_with` folds elementwise and cannot express a
            // list merge, so students build the binomial tree from
            // point-to-point primitives — see `tree_merge`.)
            let mut local = top_k(&scores, k.min(n_per_rank));
            local.resize(k, f64::NEG_INFINITY);
            tree_merge(&mut sc, local, k).await
        }
    }?;
    sc.phase_end();
    // Broadcast the answer so every rank returns it (and so the result
    // is rank-count invariant to the caller).
    sc.phase_begin("bcast");
    let answer = sc.bcast(result.as_deref(), 0).await?;
    sc.phase_end();
    Ok(answer)
}

/// Binomial-tree merge of fixed-length descending lists toward rank 0,
/// built from point-to-point primitives (the "custom reduction" students
/// write by hand).
async fn tree_merge(
    sc: &mut StepComm<'_, '_>,
    mut acc: Vec<f64>,
    k: usize,
) -> Result<Option<Vec<f64>>> {
    const TAG: u32 = 77;
    let p = sc.size();
    let rank = sc.rank();
    let mut mask = 1usize;
    while mask < p {
        if rank & mask != 0 {
            sc.send(&acc, rank - mask, TAG).await?;
            return Ok(None);
        }
        let partner = rank + mask;
        if partner < p {
            let (part, _) = sc.recv::<f64, _, _>(partner, TAG).await?;
            acc = merge_top_k(&acc, &part, k);
            acc.resize(k, f64::NEG_INFINITY);
        }
        mask <<= 1;
    }
    Ok(Some(acc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_top_k_interleaves_descending_lists() {
        let a = vec![9.0, 5.0, 1.0];
        let b = vec![8.0, 6.0, 2.0];
        assert_eq!(merge_top_k(&a, &b, 4), vec![9.0, 8.0, 6.0, 5.0]);
        assert_eq!(merge_top_k(&a, &[], 2), vec![9.0, 5.0]);
        assert_eq!(merge_top_k(&[], &[], 3), Vec::<f64>::new());
    }

    #[test]
    fn all_strategies_agree_with_the_sequential_answer() {
        let (n_per, ranks, k, seed) = (2_000, 6, 25, 7);
        // Sequential reference over the concatenated data.
        let mut all = Vec::new();
        for r in 0..ranks {
            all.extend(local_scores(n_per, r, seed));
        }
        let reference = top_k(&all, k);
        for strategy in [
            TopKStrategy::GatherAll,
            TopKStrategy::LocalPrune,
            TopKStrategy::TreeMerge,
        ] {
            let rep = run_top_k(n_per, ranks, k, strategy, seed)
                .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
            assert_eq!(rep.top.len(), k, "{strategy:?}");
            for (a, b) in rep.top.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-12, "{strategy:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn communication_volume_ordering_matches_theory() {
        let (n_per, ranks, k, seed) = (10_000, 8, 16, 3);
        let gather = run_top_k(n_per, ranks, k, TopKStrategy::GatherAll, seed).expect("gather");
        let prune = run_top_k(n_per, ranks, k, TopKStrategy::LocalPrune, seed).expect("prune");
        let tree = run_top_k(n_per, ranks, k, TopKStrategy::TreeMerge, seed).expect("tree");
        assert!(
            gather.comm_bytes > 10 * prune.comm_bytes,
            "O(N) {} vs O(pk) {}",
            gather.comm_bytes,
            prune.comm_bytes
        );
        // Total traffic of prune and tree is comparable (every candidate
        // crosses the network once either way); the tree's win is the
        // root's receive load: log2(p) messages instead of p-1.
        assert!(
            prune.root_recv_bytes > tree.root_recv_bytes * 2,
            "root load: O(pk) {} vs O(k log p) {}",
            prune.root_recv_bytes,
            tree.root_recv_bytes
        );
    }

    #[test]
    fn k_larger_than_local_data_still_works() {
        let rep = run_top_k(3, 4, 10, TopKStrategy::TreeMerge, 1).expect("runs");
        assert_eq!(rep.top.len(), 10, "k=10 over 12 total records");
        assert!(rep.top.windows(2).all(|w| w[0] >= w[1]), "descending");
    }

    #[test]
    fn k_larger_than_global_data_returns_everything() {
        let rep = run_top_k(2, 3, 100, TopKStrategy::LocalPrune, 2).expect("runs");
        assert_eq!(rep.top.len(), 6);
    }

    #[test]
    fn single_rank_degenerates_to_local_sort() {
        let rep = run_top_k(100, 1, 5, TopKStrategy::TreeMerge, 9).expect("runs");
        let reference = top_k(&local_scores(100, 0, 9), 5);
        assert_eq!(rep.top, reference);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_is_rejected() {
        let _ = run_top_k(10, 2, 0, TopKStrategy::GatherAll, 0);
    }
}
