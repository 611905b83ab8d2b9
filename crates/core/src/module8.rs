//! Module 8 (extension): distributed similarity self-join.
//!
//! The paper's Module 2 motivation cites the similarity self-join
//! (Gowanlock & Karsin, JPDC 2019 — reference \[27\]): find all pairs of
//! points within distance ε. It is the natural "choice module" the future
//! work asks for — data-intensive, database-flavoured, and a showcase for
//! the communication patterns the earlier modules taught:
//!
//! * **Brute force**: every rank holds the whole dataset and tests its
//!   share of the N² pairs — compute-bound, embarrassingly parallel.
//! * **Grid join**: points are hashed into ε-wide cells and shuffled to
//!   cell owners with `alltoallv` (the Module 3 exchange pattern); each
//!   rank then joins its cells against the 3×3 cell neighbourhood,
//!   importing *halo cells* owned by other ranks (the Module 6 pattern).
//!   Work drops from O(N²) to O(N · neighbours).
//!
//! Both return the exact same pair count (boundary-inclusive, unordered
//! pairs, self-pairs excluded).

use pdc_datagen::Dataset;
use pdc_mpi::{drive, Comm, Op, Result, StepComm, World, WorldConfig};
use serde::{Deserialize, Serialize};

/// Join algorithm variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinMethod {
    /// Test all pairs.
    BruteForce,
    /// ε-grid binning with an `alltoallv` shuffle and neighbour-cell halos.
    Grid,
}

/// Report of one distributed self-join run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelfJoinReport {
    /// Points joined.
    pub n: usize,
    /// Join radius.
    pub epsilon: f64,
    /// Ranks used.
    pub ranks: usize,
    /// Method used.
    pub method: JoinMethod,
    /// Unordered pairs within ε (global).
    pub pairs: u64,
    /// Candidate pairs actually distance-tested (global).
    pub candidates: u64,
    /// Simulated makespan, seconds.
    pub sim_time: f64,
    /// Bytes moved (all ranks).
    pub comm_bytes: u64,
    /// Per-rank candidate counts — the grid's load-balance story under
    /// skewed data (hash partitioning balances *cells*, not *points*).
    pub rank_candidates: Vec<u64>,
}

/// Sequential reference: count unordered pairs within `epsilon` (2-d).
pub fn sequential_self_join(points: &Dataset, epsilon: f64) -> u64 {
    assert_eq!(points.dim(), 2, "the module works in 2-d");
    let eps2 = epsilon * epsilon;
    let n = points.len();
    let mut pairs = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            if points.dist2(i, j) <= eps2 {
                pairs += 1;
            }
        }
    }
    pairs
}

/// Cell coordinate of a point under an ε-wide grid.
fn cell_of(p: &[f64], epsilon: f64) -> (i64, i64) {
    (
        (p[0] / epsilon).floor() as i64,
        (p[1] / epsilon).floor() as i64,
    )
}

/// Owner rank of a cell (hash partitioning).
fn owner(cell: (i64, i64), ranks: usize) -> usize {
    let h = (cell.0 as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((cell.1 as u64).wrapping_mul(0xBF58476D1CE4E5B9));
    (h >> 33) as usize % ranks
}

/// Count pairs between two point sets with the convention that pairs are
/// unordered: within one set use `i < j`; across sets count each (a, b)
/// pair once (the caller guarantees the sets are disjoint).
fn count_pairs_within(
    a: &[[f64; 2]],
    b: Option<&[[f64; 2]]>,
    eps2: f64,
    candidates: &mut u64,
) -> u64 {
    let mut pairs = 0;
    match b {
        None => {
            for i in 0..a.len() {
                for j in (i + 1)..a.len() {
                    *candidates += 1;
                    let dx = a[i][0] - a[j][0];
                    let dy = a[i][1] - a[j][1];
                    if dx * dx + dy * dy <= eps2 {
                        pairs += 1;
                    }
                }
            }
        }
        Some(b) => {
            for pa in a {
                for pb in b {
                    *candidates += 1;
                    let dx = pa[0] - pb[0];
                    let dy = pa[1] - pb[1];
                    if dx * dx + dy * dy <= eps2 {
                        pairs += 1;
                    }
                }
            }
        }
    }
    pairs
}

fn brute_force_rank(sc: &StepComm<'_, '_>, points: &Dataset, eps2: f64) -> (u64, u64) {
    // Pair (i, j), i < j, is tested by the rank owning row i.
    let n = points.len();
    let p = sc.size();
    let r = sc.rank();
    let lo = r * n / p;
    let hi = (r + 1) * n / p;
    let mut pairs = 0u64;
    let mut candidates = 0u64;
    for i in lo..hi {
        for j in (i + 1)..n {
            candidates += 1;
            if points.dist2(i, j) <= eps2 {
                pairs += 1;
            }
        }
    }
    (pairs, candidates)
}

type CellKey = (i64, i64);

async fn grid_step(
    sc: &mut StepComm<'_, '_>,
    points: &Dataset,
    epsilon: f64,
) -> Result<(u64, u64)> {
    use std::collections::BTreeMap;
    let p = sc.size();
    let r = sc.rank();
    let n = points.len();
    let eps2 = epsilon * epsilon;

    // Each rank starts with a contiguous slice of the data (pre-distributed
    // input, as in Module 3) and shuffles points to their cell owners.
    // Message element: [cx, cy, x, y] as f64 quadruples.
    let lo = r * n / p;
    let hi = (r + 1) * n / p;
    let mut outgoing: Vec<Vec<f64>> = (0..p).map(|_| Vec::new()).collect();
    for i in lo..hi {
        let pt = points.point(i);
        let cell = cell_of(pt, epsilon);
        let dst = owner(cell, p);
        outgoing[dst].extend_from_slice(&[cell.0 as f64, cell.1 as f64, pt[0], pt[1]]);
    }
    let received = sc.alltoallv(outgoing).await?;

    // Bin the received points by cell.
    let mut cells: BTreeMap<CellKey, Vec<[f64; 2]>> = BTreeMap::new();
    for block in received {
        for q in block.chunks_exact(4) {
            cells
                .entry((q[0] as i64, q[1] as i64))
                .or_default()
                .push([q[2], q[3]]);
        }
    }

    // Halo exchange: for each owned cell, request the contents of the
    // neighbour cells owned elsewhere. With hash partitioning every rank
    // can compute every owner locally; we exchange *cell contents* via a
    // second alltoallv keyed by requesting rank.
    // A neighbour pair of cells is processed once: by the owner of the
    // lexicographically smaller cell. That owner needs the other cell's
    // points; the other owner ships them.
    let mut ship: Vec<Vec<f64>> = (0..p).map(|_| Vec::new()).collect();
    for (&cell, pts) in &cells {
        // For each of the 8 neighbours, if the neighbour cell is smaller
        // lexicographically, ITS owner processes the pair, so we ship our
        // cell there.
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let nb = (cell.0 + dx, cell.1 + dy);
                if nb < cell {
                    let dst = owner(nb, p);
                    if dst != r {
                        for q in pts {
                            ship[dst].extend_from_slice(&[
                                nb.0 as f64,
                                nb.1 as f64,
                                cell.0 as f64,
                                cell.1 as f64,
                                q[0],
                                q[1],
                            ]);
                        }
                    }
                }
            }
        }
    }
    let halos = sc.alltoallv(ship).await?;
    // halo entry: [processing_cell, source_cell, x, y] — bin by the pair.
    let mut halo_cells: BTreeMap<(CellKey, CellKey), Vec<[f64; 2]>> = BTreeMap::new();
    for block in halos {
        for q in block.chunks_exact(6) {
            let key = ((q[0] as i64, q[1] as i64), (q[2] as i64, q[3] as i64));
            halo_cells.entry(key).or_default().push([q[4], q[5]]);
        }
    }

    // Count: within each owned cell, plus owned-cell × larger-neighbour
    // pairs (locally owned neighbour or shipped halo).
    let mut pairs = 0u64;
    let mut candidates = 0u64;
    for (&cell, pts) in &cells {
        pairs += count_pairs_within(pts, None, eps2, &mut candidates);
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let nb = (cell.0 + dx, cell.1 + dy);
                // This rank processes the (cell, nb) pair iff cell < nb.
                if cell < nb {
                    if owner(nb, p) == r {
                        if let Some(nb_pts) = cells.get(&nb) {
                            pairs += count_pairs_within(pts, Some(nb_pts), eps2, &mut candidates);
                        }
                    } else if let Some(nb_pts) = halo_cells.get(&(cell, nb)) {
                        pairs += count_pairs_within(pts, Some(nb_pts), eps2, &mut candidates);
                    }
                }
            }
        }
    }
    Ok((pairs, candidates))
}

/// Run the distributed self-join.
pub fn run_self_join(
    points: &Dataset,
    epsilon: f64,
    ranks: usize,
    method: JoinMethod,
) -> Result<SelfJoinReport> {
    assert_eq!(points.dim(), 2, "the module works in 2-d");
    assert!(epsilon > 0.0, "join radius must be positive");
    let n = points.len();
    let points = points.clone();
    let out = World::run(WorldConfig::new(ranks), move |comm| {
        self_join_rank(comm, &points, epsilon, method)
    })?;
    Ok(SelfJoinReport {
        n,
        epsilon,
        ranks,
        method,
        pairs: out.values[0].0,
        candidates: out.values[0].1,
        sim_time: out.sim_time,
        comm_bytes: out.total_bytes_sent(),
        rank_candidates: out.values.iter().map(|&(_, _, c)| c).collect(),
    })
}

/// One rank's share of the distributed self-join over the replicated
/// `points`. Returns `(global_pairs, global_candidates, local_candidates)`
/// — the first two identical on every rank via the final allreduce.
pub fn self_join_rank(
    comm: &mut Comm,
    points: &Dataset,
    epsilon: f64,
    method: JoinMethod,
) -> Result<(u64, u64, u64)> {
    drive(comm, |sc| {
        Box::pin(self_join_step(sc, points, epsilon, method))
    })
}

/// [`self_join_rank`] in resumable (step) form: the single source of
/// truth for the module's communication pattern.
pub async fn self_join_step(
    mut sc: StepComm<'_, '_>,
    points: &Dataset,
    epsilon: f64,
    method: JoinMethod,
) -> Result<(u64, u64, u64)> {
    let eps2 = epsilon * epsilon;
    sc.phase_begin("join");
    let (pairs, candidates) = match method {
        JoinMethod::BruteForce => brute_force_rank(&sc, points, eps2),
        JoinMethod::Grid => grid_step(&mut sc, points, epsilon).await?,
    };
    // Charge: 5 flops per candidate test; grid pays its shuffles via
    // the traced messages automatically.
    sc.charge_kernel(candidates as f64 * 5.0, candidates as f64 * 8.0);
    sc.phase_end();
    sc.phase_begin("reduce");
    let totals = sc.allreduce(&[pairs, candidates], Op::Sum).await?;
    sc.phase_end();
    Ok((totals[0], totals[1], candidates))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_datagen::uniform_points;

    fn cloud(n: usize, seed: u64) -> Dataset {
        uniform_points(n, 2, 0.0, 100.0, seed)
    }

    #[test]
    fn sequential_reference_counts_hand_cases() {
        let pts = Dataset::from_flat(2, vec![0.0, 0.0, 1.0, 0.0, 5.0, 5.0, 1.5, 0.0]);
        // Pairs within 1.1: (0,1) and (1,3) [0.5 apart]. (0,3) is 1.5.
        assert_eq!(sequential_self_join(&pts, 1.1), 2);
        assert_eq!(sequential_self_join(&pts, 0.1), 0);
        assert_eq!(sequential_self_join(&pts, 100.0), 6, "all pairs");
    }

    #[test]
    fn both_methods_match_the_sequential_count() {
        let pts = cloud(800, 11);
        let eps = 3.0;
        let expected = sequential_self_join(&pts, eps);
        for method in [JoinMethod::BruteForce, JoinMethod::Grid] {
            for ranks in [1, 3, 4] {
                let rep = run_self_join(&pts, eps, ranks, method)
                    .unwrap_or_else(|e| panic!("{method:?} p={ranks}: {e}"));
                assert_eq!(rep.pairs, expected, "{method:?} p={ranks}");
            }
        }
    }

    #[test]
    fn grid_prunes_the_candidate_set() {
        let pts = cloud(3000, 5);
        let eps = 2.0;
        let bf = run_self_join(&pts, eps, 4, JoinMethod::BruteForce).expect("bf");
        let grid = run_self_join(&pts, eps, 4, JoinMethod::Grid).expect("grid");
        assert_eq!(bf.pairs, grid.pairs);
        assert!(
            grid.candidates * 20 < bf.candidates,
            "grid candidates {} vs brute {}",
            grid.candidates,
            bf.candidates
        );
        assert!(grid.sim_time < bf.sim_time, "pruning pays off in time too");
    }

    #[test]
    fn boundary_pairs_across_cells_are_found() {
        // Two points straddling a cell boundary at distance < eps.
        let pts = Dataset::from_flat(2, vec![0.95, 0.5, 1.05, 0.5]);
        for ranks in [1, 2, 5] {
            let rep = run_self_join(&pts, 1.0, ranks, JoinMethod::Grid)
                .unwrap_or_else(|e| panic!("p={ranks}: {e}"));
            assert_eq!(rep.pairs, 1, "p={ranks}");
        }
    }

    #[test]
    fn diagonal_neighbour_cells_are_joined() {
        // Points in diagonally adjacent cells.
        let pts = Dataset::from_flat(2, vec![0.99, 0.99, 1.01, 1.01]);
        let rep = run_self_join(&pts, 1.0, 4, JoinMethod::Grid).expect("runs");
        assert_eq!(rep.pairs, 1);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let one = Dataset::from_flat(2, vec![5.0, 5.0]);
        let rep = run_self_join(&one, 1.0, 3, JoinMethod::Grid).expect("runs");
        assert_eq!(rep.pairs, 0);
    }

    #[test]
    fn clustered_data_skews_the_grid_load() {
        use pdc_cluster::metrics::imbalance_factor;
        use pdc_datagen::gaussian_mixture;
        // Uniform data balances the hash-partitioned cells; tightly
        // clustered data concentrates candidates on few cell owners.
        let uniform = run_self_join(&cloud(4000, 3), 2.0, 8, JoinMethod::Grid).expect("uniform");
        let blobs = gaussian_mixture(4000, 2, 3, 100.0, 1.0, 3).points;
        let clustered = run_self_join(&blobs, 2.0, 8, JoinMethod::Grid).expect("clustered");
        let imb = |r: &SelfJoinReport| {
            imbalance_factor(
                &r.rank_candidates
                    .iter()
                    .map(|&c| c as f64 + 1.0)
                    .collect::<Vec<_>>(),
            )
        };
        assert!(
            imb(&clustered) > imb(&uniform),
            "clusters skew the join: {:.2} vs {:.2}",
            imb(&clustered),
            imb(&uniform)
        );
    }

    #[test]
    fn epsilon_controls_the_result_monotonically() {
        let pts = cloud(400, 9);
        let mut last = 0;
        for eps in [0.5, 1.0, 2.0, 4.0] {
            let rep = run_self_join(&pts, eps, 4, JoinMethod::Grid).expect("runs");
            assert!(rep.pairs >= last, "monotone in epsilon");
            last = rep.pairs;
        }
        assert!(last > 0);
    }
}
