//! Module 5: k-means clustering.
//!
//! Distributed Lloyd's algorithm over a 2-d dataset (paper §III-F): each
//! rank holds `N/p` points; every iteration assigns local points to the
//! nearest of `k` centroids (independent compute), then updates the
//! centroids from *global* knowledge (communication). Two communication
//! options are compared:
//!
//! * **Explicit assignment** — every rank ships its full point→centroid
//!   assignment (plus, on the first iteration, its points) to rank 0,
//!   which recomputes and re-broadcasts the centroids: `O(N/p)` words per
//!   rank per iteration.
//! * **Weighted means** — every rank reduces `k·(d+1)` partial sums
//!   (per-centroid coordinate totals + counts) with one `MPI_Allreduce`:
//!   `O(k·d)` words — *minimal communication*, the module's punchline.
//!
//! The module's performance question — when is the run compute- vs
//! communication-dominated? — is answered by the simulated time split as a
//! function of `k`. Learning outcomes 4, 8, 10–15 (Table I).

use pdc_datagen::Dataset;
use pdc_mpi::{drive, Comm, Error, FaultPlan, Op, Result, StepComm, World, WorldConfig};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Which centroid-update protocol to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommOption {
    /// Ship assignments (and points once) to rank 0; root recomputes.
    ExplicitAssignment,
    /// Allreduce per-centroid weighted sums.
    WeightedMeans,
}

/// Outcome of a distributed k-means run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansReport {
    /// Points clustered.
    pub n: usize,
    /// Clusters requested.
    pub k: usize,
    /// Ranks used.
    pub ranks: usize,
    /// Iterations until convergence (or the cap).
    pub iterations: usize,
    /// Final centroids (k × dim, row-major).
    pub centroids: Vec<f64>,
    /// Sum of squared distances of points to their centroids (inertia).
    pub inertia: f64,
    /// Simulated seconds spent in computation.
    pub compute_time: f64,
    /// Simulated seconds spent in communication.
    pub comm_time: f64,
    /// Simulated makespan.
    pub sim_time: f64,
    /// Total bytes moved.
    pub comm_bytes: u64,
    /// MPI primitives the run exercised (`MPI_*` names) — Table II data.
    pub primitives: Vec<String>,
}

/// Maximum Lloyd iterations before giving up on convergence.
pub const MAX_ITERS: usize = 200;

/// Sequential reference k-means (identical math, one address space).
/// Returns (centroids, assignments, iterations).
pub fn sequential_kmeans(points: &Dataset, k: usize, tol: f64) -> (Vec<f64>, Vec<usize>, usize) {
    let dim = points.dim();
    let mut centroids: Vec<f64> = (0..k.min(points.len()))
        .flat_map(|i| points.point(i).to_vec())
        .collect();
    let mut assign = vec![0usize; points.len()];
    for iter in 0..MAX_ITERS {
        // Assignment.
        for (i, a) in assign.iter_mut().enumerate() {
            *a = nearest_centroid(points.point(i), &centroids, dim).0;
        }
        // Update.
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0.0f64; k];
        for (i, &a) in assign.iter().enumerate() {
            counts[a] += 1.0;
            for (d, &x) in points.point(i).iter().enumerate() {
                sums[a * dim + d] += x;
            }
        }
        let new = finalize_centroids(&sums, &counts, &centroids, dim);
        let moved = max_move(&centroids, &new, dim);
        centroids = new;
        if moved <= tol {
            return (centroids, assign, iter + 1);
        }
    }
    (centroids, assign, MAX_ITERS)
}

fn nearest_centroid(p: &[f64], centroids: &[f64], dim: usize) -> (usize, f64) {
    let k = centroids.len() / dim;
    let mut best = (0usize, f64::INFINITY);
    for c in 0..k {
        let d2: f64 = p
            .iter()
            .zip(&centroids[c * dim..(c + 1) * dim])
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        if d2 < best.1 {
            best = (c, d2);
        }
    }
    best
}

/// New centroid positions from weighted sums; empty clusters keep their
/// previous position (the standard fix).
fn finalize_centroids(sums: &[f64], counts: &[f64], prev: &[f64], dim: usize) -> Vec<f64> {
    let k = counts.len();
    let mut out = vec![0.0f64; k * dim];
    for c in 0..k {
        if counts[c] > 0.0 {
            for d in 0..dim {
                out[c * dim + d] = sums[c * dim + d] / counts[c];
            }
        } else {
            out[c * dim..(c + 1) * dim].copy_from_slice(&prev[c * dim..(c + 1) * dim]);
        }
    }
    out
}

fn max_move(old: &[f64], new: &[f64], dim: usize) -> f64 {
    old.chunks_exact(dim)
        .zip(new.chunks_exact(dim))
        .map(|(a, b)| {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        })
        .fold(0.0, f64::max)
}

/// Per-iteration compute charge: `n_local` points × `k` centroids ×
/// (3 flops per dimension), streaming the local points once.
fn charge_assignment(sc: &mut StepComm<'_, '_>, n_local: usize, k: usize, dim: usize) {
    sc.charge_kernel(
        n_local as f64 * k as f64 * 3.0 * dim as f64,
        (n_local * dim * 8) as f64,
    );
}

/// Run distributed k-means.
///
/// Rank 0 owns the dataset and scatters contiguous blocks (`scatterv`);
/// initial centroids are the first `k` points, broadcast to all. Returns
/// the full report; centroids are bit-identical across comm options only
/// when the reduction orders match, so validation uses tolerances.
pub fn run_kmeans(
    points: &Dataset,
    k: usize,
    ranks: usize,
    option: CommOption,
    nodes: usize,
    tol: f64,
) -> Result<KMeansReport> {
    assert!(k > 0 && k <= points.len(), "need 1 <= k <= n");
    let n = points.len();
    let cfg = if nodes > 1 {
        WorldConfig::new(ranks).on_nodes(nodes)
    } else {
        WorldConfig::new(ranks)
    };
    let points = points.clone();
    let out = World::run(cfg, move |comm| kmeans_rank(comm, &points, k, option, tol))?;

    let (centroids, inertia, iterations) = out.values[0].clone();
    let primitives = crate::primitive_names(&out);
    let total = out.total_stats();
    Ok(KMeansReport {
        n,
        k,
        ranks,
        iterations,
        centroids,
        inertia,
        compute_time: total.sim_compute_time / ranks as f64,
        comm_time: total.sim_comm_time / ranks as f64,
        sim_time: out.sim_time,
        comm_bytes: total.bytes_sent,
        primitives,
    })
}

/// One rank's share of distributed k-means. Rank 0 must hold the full
/// dataset in `points` (other ranks only need its dimensionality and
/// first `k` points for the initial broadcast, which the root supplies).
/// Returns `(centroids, inertia, iterations)` — identical on every rank.
pub fn kmeans_rank(
    comm: &mut Comm,
    points: &Dataset,
    k: usize,
    option: CommOption,
    tol: f64,
) -> Result<(Vec<f64>, f64, usize)> {
    drive(comm, |sc| Box::pin(kmeans_step(sc, points, k, option, tol)))
}

/// [`kmeans_rank`] in resumable (step) form: the single source of truth
/// for the module's communication pattern.
pub async fn kmeans_step(
    mut sc: StepComm<'_, '_>,
    points: &Dataset,
    k: usize,
    option: CommOption,
    tol: f64,
) -> Result<(Vec<f64>, f64, usize)> {
    let dim = points.dim();
    let n = points.len();
    let p = sc.size();
    // Scatter contiguous point blocks.
    sc.phase_begin("scatter");
    let (flat, counts): (Option<Vec<f64>>, Option<Vec<usize>>) = if sc.rank() == 0 {
        let counts = (0..p)
            .map(|r| ((r + 1) * n / p - r * n / p) * dim)
            .collect();
        (Some(points.flat().to_vec()), Some(counts))
    } else {
        (None, None)
    };
    let local_flat = sc.scatterv(flat.as_deref(), counts.as_deref(), 0).await?;
    let local = Dataset::from_flat(dim, local_flat);
    let n_local = local.len();

    // Initial centroids: first k points, broadcast from root.
    let init: Option<Vec<f64>> = if sc.rank() == 0 {
        Some((0..k).flat_map(|i| points.point(i).to_vec()).collect())
    } else {
        None
    };
    let mut centroids = sc.bcast(init.as_deref(), 0).await?;
    sc.phase_end();

    let mut iterations = 0;
    for _ in 0..MAX_ITERS {
        iterations += 1;
        // Local assignment phase.
        sc.phase_begin("assign");
        let mut assign = vec![0u32; n_local];
        for (i, a) in assign.iter_mut().enumerate() {
            *a = nearest_centroid(local.point(i), &centroids, dim).0 as u32;
        }
        charge_assignment(&mut sc, n_local, k, dim);
        sc.phase_end();

        // Centroid update phase.
        sc.phase_begin("update");
        let new_centroids = match option {
            CommOption::WeightedMeans => {
                // Pack sums and counts into one buffer: k*(dim+1).
                let mut buf = vec![0.0f64; k * (dim + 1)];
                for (i, &a) in assign.iter().enumerate() {
                    let c = a as usize;
                    buf[k * dim + c] += 1.0;
                    for (d, &x) in local.point(i).iter().enumerate() {
                        buf[c * dim + d] += x;
                    }
                }
                let total = sc.allreduce(&buf, Op::Sum).await?;
                finalize_centroids(&total[..k * dim], &total[k * dim..], &centroids, dim)
            }
            CommOption::ExplicitAssignment => {
                // Ship full assignments and points to the root every
                // iteration (the deliberately expensive option).
                let parts = sc.gatherv(&assign, 0).await?;
                let pts = sc.gatherv(local.flat(), 0).await?;
                let updated: Option<Vec<f64>> = match (parts, pts) {
                    (Some(parts), Some(pts)) => {
                        let mut sums = vec![0.0f64; k * dim];
                        let mut counts = vec![0.0f64; k];
                        for (blk, pblk) in parts.iter().zip(&pts) {
                            for (i, &a) in blk.iter().enumerate() {
                                counts[a as usize] += 1.0;
                                for d in 0..dim {
                                    sums[a as usize * dim + d] += pblk[i * dim + d];
                                }
                            }
                        }
                        Some(finalize_centroids(&sums, &counts, &centroids, dim))
                    }
                    _ => None,
                };
                sc.bcast(updated.as_deref(), 0).await?
            }
        };
        sc.phase_end();
        let moved = max_move(&centroids, &new_centroids, dim);
        centroids = new_centroids;
        // Everyone computes the same `moved` from the same centroids,
        // so the loop exit is globally consistent.
        if moved <= tol {
            break;
        }
    }

    // Final inertia via reduce.
    sc.phase_begin("inertia");
    let local_inertia: f64 = (0..n_local)
        .map(|i| nearest_centroid(local.point(i), &centroids, dim).1)
        .sum();
    let inertia = sc.allreduce(&[local_inertia], Op::Sum).await?[0];
    sc.phase_end();
    Ok((centroids, inertia, iterations))
}

/// A k-means checkpoint: `(iterations_completed, centroids)` as of the
/// last `allreduce` boundary every rank crossed.
pub type KMeansCheckpoint = (usize, Vec<f64>);

/// Run distributed k-means (weighted-means protocol) under a
/// [`FaultPlan`], restarting from the last checkpoint whenever an
/// injected crash kills a rank.
///
/// The harness models application-level checkpoint/restart on top of
/// ULFM-style error reporting: [`kmeans_rank_ft`] checkpoints the
/// centroids after every `allreduce` (the collective boundary at which
/// they are globally replicated) into shared stable storage; when the
/// world dies with [`Error::RankFailed`], the failed rank's scheduled
/// crash is disarmed (its replacement rejoins) and the world relaunches,
/// resuming from the checkpoint instead of the initial centroids. Each
/// Lloyd iteration depends only on the centroids at its start, so the
/// restarted trajectory — and the final centroids — are bit-identical to
/// a fault-free run's.
///
/// Returns the usual report plus the number of restarts taken. Once
/// `max_restarts` is exhausted the last error is returned as-is.
pub fn run_kmeans_ft(
    points: &Dataset,
    k: usize,
    ranks: usize,
    tol: f64,
    mut plan: FaultPlan,
    max_restarts: usize,
) -> Result<(KMeansReport, usize)> {
    assert!(k > 0 && k <= points.len(), "need 1 <= k <= n");
    let n = points.len();
    let stable_store: Arc<Mutex<Option<KMeansCheckpoint>>> = Arc::new(Mutex::new(None));
    let mut restarts = 0;
    loop {
        // Snapshot the checkpoint once per launch so every rank resumes
        // from the same state regardless of thread start order.
        let resume = stable_store.lock().expect("checkpoint store").clone();
        let points = points.clone();
        let store = Arc::clone(&stable_store);
        let cfg = WorldConfig::new(ranks).with_faults(plan.clone());
        match World::run(cfg, move |comm| {
            kmeans_rank_ft(comm, &points, k, tol, resume.clone(), &store)
        }) {
            Ok(out) => {
                let (centroids, inertia, iterations) = out.values[0].clone();
                let primitives = crate::primitive_names(&out);
                let total = out.total_stats();
                return Ok((
                    KMeansReport {
                        n,
                        k,
                        ranks,
                        iterations,
                        centroids,
                        inertia,
                        compute_time: total.sim_compute_time / ranks as f64,
                        comm_time: total.sim_comm_time / ranks as f64,
                        sim_time: out.sim_time,
                        comm_bytes: total.bytes_sent,
                        primitives,
                    },
                    restarts,
                ));
            }
            Err(Error::RankFailed { rank, .. }) if restarts < max_restarts => {
                plan.disarm_crash(rank);
                restarts += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One rank's share of fault-tolerant k-means (weighted-means protocol
/// only — the minimal-communication option is the one worth hardening).
///
/// Identical math to [`kmeans_rank`] with two additions: after every
/// centroid `allreduce`, rank 0 writes `(iteration, centroids)` to
/// `stable_store` (safe as a checkpoint precisely because the allreduce
/// guarantees every rank holds these centroids — one writer suffices),
/// and a run handed a `resume` checkpoint skips the initial broadcast to
/// continue from the stored iteration. The data scatter is repeated on
/// restart: the dataset lives with rank 0, so redistribution is part of
/// recovery rather than checkpoint state.
pub fn kmeans_rank_ft(
    comm: &mut Comm,
    points: &Dataset,
    k: usize,
    tol: f64,
    resume: Option<KMeansCheckpoint>,
    stable_store: &Mutex<Option<KMeansCheckpoint>>,
) -> Result<(Vec<f64>, f64, usize)> {
    drive(comm, |sc| {
        Box::pin(kmeans_ft_step(sc, points, k, tol, resume, stable_store))
    })
}

/// [`kmeans_rank_ft`] in resumable (step) form: the single source of
/// truth for the fault-tolerant variant's communication pattern.
pub async fn kmeans_ft_step(
    mut sc: StepComm<'_, '_>,
    points: &Dataset,
    k: usize,
    tol: f64,
    resume: Option<KMeansCheckpoint>,
    stable_store: &Mutex<Option<KMeansCheckpoint>>,
) -> Result<(Vec<f64>, f64, usize)> {
    let dim = points.dim();
    let n = points.len();
    let p = sc.size();
    let (flat, counts): (Option<Vec<f64>>, Option<Vec<usize>>) = if sc.rank() == 0 {
        let counts = (0..p)
            .map(|r| ((r + 1) * n / p - r * n / p) * dim)
            .collect();
        (Some(points.flat().to_vec()), Some(counts))
    } else {
        (None, None)
    };
    let local_flat = sc.scatterv(flat.as_deref(), counts.as_deref(), 0).await?;
    let local = Dataset::from_flat(dim, local_flat);
    let n_local = local.len();

    let (start_iter, mut centroids) = match resume {
        Some((it, c)) => (it, c),
        None => {
            let init: Option<Vec<f64>> = if sc.rank() == 0 {
                Some((0..k).flat_map(|i| points.point(i).to_vec()).collect())
            } else {
                None
            };
            (0, sc.bcast(init.as_deref(), 0).await?)
        }
    };

    let mut iterations = start_iter;
    while iterations < MAX_ITERS {
        iterations += 1;
        let mut assign = vec![0u32; n_local];
        for (i, a) in assign.iter_mut().enumerate() {
            *a = nearest_centroid(local.point(i), &centroids, dim).0 as u32;
        }
        charge_assignment(&mut sc, n_local, k, dim);
        let mut buf = vec![0.0f64; k * (dim + 1)];
        for (i, &a) in assign.iter().enumerate() {
            let c = a as usize;
            buf[k * dim + c] += 1.0;
            for (d, &x) in local.point(i).iter().enumerate() {
                buf[c * dim + d] += x;
            }
        }
        let total = sc.allreduce(&buf, Op::Sum).await?;
        let new_centroids =
            finalize_centroids(&total[..k * dim], &total[k * dim..], &centroids, dim);
        let moved = max_move(&centroids, &new_centroids, dim);
        centroids = new_centroids;
        if sc.rank() == 0 {
            *stable_store.lock().expect("checkpoint store") = Some((iterations, centroids.clone()));
        }
        if moved <= tol {
            break;
        }
    }

    let local_inertia: f64 = (0..n_local)
        .map(|i| nearest_centroid(local.point(i), &centroids, dim).1)
        .sum();
    let inertia = sc.allreduce(&[local_inertia], Op::Sum).await?[0];
    Ok((centroids, inertia, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_datagen::gaussian_mixture;

    fn blobs(n: usize, k: usize, seed: u64) -> Dataset {
        gaussian_mixture(n, 2, k, 100.0, 1.0, seed).points
    }

    #[test]
    fn sequential_kmeans_recovers_separated_blobs() {
        let lm = gaussian_mixture(300, 2, 3, 100.0, 0.5, 8);
        let (centroids, assign, iters) = sequential_kmeans(&lm.points, 3, 1e-9);
        assert!(iters < MAX_ITERS, "must converge");
        // Every found centroid is close to some true center.
        for c in centroids.chunks_exact(2) {
            let nearest = (0..3)
                .map(|t| {
                    let tc = lm.centers.point(t);
                    ((c[0] - tc[0]).powi(2) + (c[1] - tc[1]).powi(2)).sqrt()
                })
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 5.0, "centroid {c:?} strayed {nearest}");
        }
        // Points sharing a true label share a cluster (sample a pair).
        assert_eq!(assign.len(), 300);
    }

    #[test]
    fn distributed_matches_sequential_inertia() {
        let pts = blobs(400, 4, 3);
        let (seq_centroids, _, _) = sequential_kmeans(&pts, 4, 1e-9);
        let seq_inertia: f64 = (0..pts.len())
            .map(|i| nearest_centroid(pts.point(i), &seq_centroids, 2).1)
            .sum();
        for option in [CommOption::WeightedMeans, CommOption::ExplicitAssignment] {
            for ranks in [1, 3, 4] {
                let rep = run_kmeans(&pts, 4, ranks, option, 1, 1e-9)
                    .unwrap_or_else(|e| panic!("{option:?} p={ranks}: {e}"));
                let rel = (rep.inertia - seq_inertia).abs() / seq_inertia.max(1e-12);
                assert!(
                    rel < 1e-6,
                    "{option:?} p={ranks}: inertia {} vs {}",
                    rep.inertia,
                    seq_inertia
                );
            }
        }
    }

    #[test]
    fn both_comm_options_agree_on_centroids() {
        let pts = blobs(600, 5, 17);
        let a = run_kmeans(&pts, 5, 4, CommOption::WeightedMeans, 1, 1e-9).expect("wm");
        let b = run_kmeans(&pts, 5, 4, CommOption::ExplicitAssignment, 1, 1e-9).expect("ea");
        assert_eq!(a.centroids.len(), b.centroids.len());
        for (x, y) in a.centroids.iter().zip(&b.centroids) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn weighted_means_moves_far_fewer_bytes() {
        // k=8 over 4 true blobs with exact convergence forces enough
        // iterations that the per-iteration traffic dominates the one-time
        // scatter common to both options.
        let pts = blobs(2000, 4, 5);
        let wm = run_kmeans(&pts, 8, 8, CommOption::WeightedMeans, 1, 0.0).expect("wm");
        let ea = run_kmeans(&pts, 8, 8, CommOption::ExplicitAssignment, 1, 0.0).expect("ea");
        assert_eq!(wm.iterations, ea.iterations, "same trajectory");
        assert!(
            wm.comm_bytes * 4 < ea.comm_bytes,
            "weighted means {} vs explicit {}",
            wm.comm_bytes,
            ea.comm_bytes
        );
    }

    #[test]
    fn large_k_is_compute_dominated_small_k_is_not() {
        // The module's headline performance lesson.
        let pts = blobs(4000, 2, 9);
        let small_k = run_kmeans(&pts, 2, 16, CommOption::WeightedMeans, 1, 0.0).expect("k=2");
        let large_k = run_kmeans(&pts, 100, 16, CommOption::WeightedMeans, 1, 0.0).expect("k=100");
        let frac = |r: &KMeansReport| r.compute_time / (r.compute_time + r.comm_time);
        assert!(
            frac(&large_k) > frac(&small_k),
            "compute fraction must grow with k: {} vs {}",
            frac(&large_k),
            frac(&small_k)
        );
        assert!(
            frac(&large_k) > 0.5,
            "k=100 should be compute-dominated: {}",
            frac(&large_k)
        );
    }

    #[test]
    fn multiple_nodes_do_not_help_at_low_k() {
        let pts = blobs(4000, 2, 21);
        let one = run_kmeans(&pts, 2, 16, CommOption::WeightedMeans, 1, 0.0).expect("1 node");
        let two = run_kmeans(&pts, 2, 16, CommOption::WeightedMeans, 2, 0.0).expect("2 nodes");
        assert!(
            two.sim_time > one.sim_time * 0.95,
            "low k: extra nodes only add network latency ({} vs {})",
            two.sim_time,
            one.sim_time
        );
    }

    #[test]
    fn kmeans_handles_k_equals_one_and_n() {
        let pts = blobs(50, 2, 2);
        let r1 = run_kmeans(&pts, 1, 3, CommOption::WeightedMeans, 1, 1e-9).expect("k=1");
        assert_eq!(r1.centroids.len(), 2);
        assert!(r1.iterations <= MAX_ITERS);
        let rn = run_kmeans(&pts, 50, 2, CommOption::WeightedMeans, 1, 1e-9).expect("k=n");
        assert!(rn.inertia < 1e-12, "k=n puts a centroid on every point");
    }

    #[test]
    fn kmeans_survives_a_mid_run_crash_via_checkpoint_restart() {
        let pts = blobs(400, 4, 3);
        let baseline =
            run_kmeans(&pts, 4, 4, CommOption::WeightedMeans, 1, 1e-9).expect("fault-free");
        // Crash rank 2 halfway through the fault-free makespan, i.e. in
        // the middle of the Lloyd iterations.
        let plan = FaultPlan::seeded(11).crash_rank(2, baseline.sim_time * 0.5);
        let (ft, restarts) = run_kmeans_ft(&pts, 4, 4, 1e-9, plan, 3).expect("ft run");
        assert_eq!(restarts, 1, "exactly one crash, exactly one restart");
        assert_eq!(
            ft.centroids, baseline.centroids,
            "restart from the checkpoint must replay the fault-free trajectory"
        );
        assert_eq!(ft.iterations, baseline.iterations);
        assert_eq!(ft.inertia, baseline.inertia);
    }

    #[test]
    fn kmeans_ft_without_faults_matches_plain_run() {
        let pts = blobs(200, 3, 6);
        let baseline =
            run_kmeans(&pts, 3, 3, CommOption::WeightedMeans, 1, 1e-9).expect("fault-free");
        let (ft, restarts) =
            run_kmeans_ft(&pts, 3, 3, 1e-9, FaultPlan::seeded(1), 0).expect("empty plan");
        assert_eq!(restarts, 0);
        assert_eq!(ft.centroids, baseline.centroids);
        assert_eq!(ft.inertia, baseline.inertia);
    }

    #[test]
    #[should_panic(expected = "1 <= k <= n")]
    fn zero_k_is_rejected() {
        let pts = blobs(10, 2, 1);
        let _ = run_kmeans(&pts, 0, 2, CommOption::WeightedMeans, 1, 1e-9);
    }
}
