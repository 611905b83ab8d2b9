//! Module 2: distance matrix.
//!
//! Students compute the N×N Euclidean distance matrix of N points in 90
//! dimensions (paper §III-C): scatter row ranges over the ranks, compute
//! local rows against the full dataset, and reduce a checksum. Two local
//! kernels are compared:
//!
//! * **row-wise** — for each local row, stream the entire dataset: the
//!   column points fall out of cache between rows once `N·d·8` exceeds it;
//! * **tiled** — iterate column *tiles* that fit in cache in the outer
//!   loop, reusing each tile across all local rows.
//!
//! The cache behaviour is measured with the `pdc-cachesim` tracer (the
//! `perf` substitute), and the simulated clock charges DRAM traffic from an
//! explicit reuse model, so tiled beats row-wise in simulated time exactly
//! as it does on hardware. Learning outcomes 4–8, 10, 11 (Table I).

use pdc_cachesim::{Hierarchy, Tracer};
use pdc_datagen::Dataset;
use pdc_mpi::{drive, Comm, Op, Result, StepComm, StepFuture, StepProgram, World, WorldConfig};
use serde::{Deserialize, Serialize};

/// Column-tile size (points per tile) used by the tiled kernel: 256 points
/// × 90 dims × 8 B = 180 KiB — comfortably inside a 1 MiB L2.
pub const DEFAULT_TILE: usize = 256;

/// Kernel variant of the local computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Access {
    /// Row-wise: stream all columns for each row.
    RowWise,
    /// Tiled: reuse cache-resident column tiles across rows.
    Tiled {
        /// Points per column tile.
        tile: usize,
    },
}

/// The "improve beyond the module" variant (outcome 15): exploit symmetry
/// — `d(i,j) = d(j,i)` — to compute only the upper triangle of the full
/// matrix and mirror it, halving the distance evaluations. Only meaningful
/// when one address space holds the whole matrix.
pub fn distance_matrix_symmetric(points: &Dataset) -> Vec<f64> {
    let n = points.len();
    let mut out = vec![0.0f64; n * n];
    for i in 0..n {
        let a = points.point(i);
        for j in (i + 1)..n {
            let d = euclidean(a, points.point(j));
            out[i * n + j] = d;
            out[j * n + i] = d;
        }
    }
    out
}

/// Compute rows `row_lo..row_hi` of the distance matrix of `points`,
/// row-major, using the requested access pattern. This is the sequential
/// kernel each rank runs on its assigned rows.
pub fn distance_rows(points: &Dataset, row_lo: usize, row_hi: usize, access: Access) -> Vec<f64> {
    assert!(
        row_lo <= row_hi && row_hi <= points.len(),
        "row range out of bounds"
    );
    let n = points.len();
    let rows = row_hi - row_lo;
    let mut out = vec![0.0f64; rows * n];
    match access {
        Access::RowWise => {
            for (ri, i) in (row_lo..row_hi).enumerate() {
                let a = points.point(i);
                for j in 0..n {
                    out[ri * n + j] = euclidean(a, points.point(j));
                }
            }
        }
        Access::Tiled { tile } => {
            assert!(tile > 0, "tile size must be positive");
            for j0 in (0..n).step_by(tile) {
                let j1 = (j0 + tile).min(n);
                for (ri, i) in (row_lo..row_hi).enumerate() {
                    let a = points.point(i);
                    for j in j0..j1 {
                        out[ri * n + j] = euclidean(a, points.point(j));
                    }
                }
            }
        }
    }
    out
}

#[inline]
fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc.sqrt()
}

/// Cache-miss measurement of one kernel run (the module's `perf` activity).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheReport {
    /// L1 data-cache miss rate.
    pub l1_miss_rate: f64,
    /// L2 miss rate.
    pub l2_miss_rate: f64,
    /// Lines fetched from DRAM.
    pub dram_lines: u64,
}

/// Trace the memory behaviour of the distance kernel through the cache
/// simulator. `n` is kept small by callers (the trace visits `n²·d`
/// addresses).
pub fn trace_distance_kernel(n: usize, dim: usize, access: Access) -> CacheReport {
    let mut t = Tracer::new(Hierarchy::typical());
    let pts = t.alloc(n * dim, 8);
    let out = t.alloc(n * n, 8);
    let row_block = |t: &mut Tracer, i: usize, j0: usize, j1: usize| {
        for j in j0..j1 {
            for d in 0..dim {
                t.read(pts.addr(i * dim + d), 8);
                t.read(pts.addr(j * dim + d), 8);
            }
            t.write(out.addr(i * n + j), 8);
        }
    };
    match access {
        Access::RowWise => {
            for i in 0..n {
                row_block(&mut t, i, 0, n);
            }
        }
        Access::Tiled { tile } => {
            for j0 in (0..n).step_by(tile) {
                let j1 = (j0 + tile).min(n);
                for i in 0..n {
                    row_block(&mut t, i, j0, j1);
                }
            }
        }
    }
    let r = t.report();
    CacheReport {
        l1_miss_rate: r.l1.miss_rate(),
        l2_miss_rate: r.l2.miss_rate(),
        dram_lines: r.dram_accesses,
    }
}

/// Render a [`CacheReport`] in the style of `perf stat` — what students see
/// when they run the module's performance-tool activity on the cluster.
pub fn render_perf_stat(label: &str, accesses: u64, report: &CacheReport) -> String {
    let l1_misses = (report.l1_miss_rate * accesses as f64) as u64;
    format!(
        " Performance counter stats for '{label}':

         {accesses:>16}      L1-dcache-loads
         {l1_misses:>16}      L1-dcache-load-misses     #  {:>6.2}% of all L1-dcache accesses
         {:>16}      LLC-load-misses           #  {:>6.2}% of all LL-cache accesses
",
        report.l1_miss_rate * 100.0,
        report.dram_lines,
        report.l2_miss_rate * 100.0,
    )
}

/// Analytic DRAM traffic (bytes) of one rank computing `rows` rows against
/// `n` columns of `dim`-d points. Row-wise re-streams the dataset once per
/// row (when it exceeds cache); tiling re-streams it once per *row tile* —
/// the `reuse` factor below. Validated against the cache simulator in the
/// tests.
pub fn model_dram_bytes(rows: usize, n: usize, dim: usize, access: Access) -> f64 {
    let dataset_bytes = (n * dim * 8) as f64;
    let output_bytes = (rows * n * 8) as f64;
    match access {
        Access::RowWise => rows as f64 * dataset_bytes + output_bytes,
        Access::Tiled { tile } => {
            // With column tiles resident, each row's points stream once per
            // tile pass: `n/tile` passes over the row block.
            let passes = (n as f64 / tile as f64).ceil().max(1.0);
            let row_bytes = (rows * dim * 8) as f64;
            dataset_bytes + passes * row_bytes + output_bytes
        }
    }
}

/// Pick a column-tile size so one tile of `dim`-d points occupies about
/// half the given cache level (leaving room for the row point and the
/// output line) — the automated answer to outcome 6's tile-size question.
pub fn auto_tile(cache_bytes: usize, dim: usize) -> usize {
    let point_bytes = dim * 8;
    (cache_bytes / 2 / point_bytes).clamp(1, 4096)
}

/// Flop count of the kernel: `rows·n·(3·dim + 1)` (sub, mul, add per
/// dimension plus a square root).
pub fn model_flops(rows: usize, n: usize, dim: usize) -> f64 {
    rows as f64 * n as f64 * (3.0 * dim as f64 + 1.0)
}

/// Report of a distributed distance-matrix run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistanceMatrixReport {
    /// Points in the dataset.
    pub n: usize,
    /// Ranks used.
    pub ranks: usize,
    /// Access pattern.
    pub access: Access,
    /// Simulated makespan, seconds.
    pub sim_time: f64,
    /// Sum of all matrix entries (validation checksum, reduced with
    /// `MPI_Reduce`).
    pub checksum: f64,
    /// Total bytes moved through messages.
    pub comm_bytes: u64,
    /// MPI primitives the run exercised (`MPI_*` names) — Table II data.
    pub primitives: Vec<String>,
}

/// Distributed distance matrix (the module's main program): every rank
/// reads the dataset, rank 0 scatters row-range assignments
/// (`MPI_Scatter`), every rank computes its block, and a checksum is
/// reduced back (`MPI_Reduce`). Simulated time reflects the analytic
/// roofline charge of the selected access pattern plus the measured
/// communication.
pub fn run_distance_matrix(
    points: &Dataset,
    ranks: usize,
    access: Access,
    nodes: usize,
) -> Result<DistanceMatrixReport> {
    let n = points.len();
    let cfg = if nodes > 1 {
        WorldConfig::new(ranks).on_nodes(nodes)
    } else {
        WorldConfig::new(ranks)
    };
    let points = points.clone();
    let out = World::run(cfg, move |comm| distance_matrix_rank(comm, &points, access))?;
    Ok(DistanceMatrixReport {
        n,
        ranks,
        access,
        sim_time: out.sim_time,
        checksum: out.values[0],
        comm_bytes: out.total_bytes_sent(),
        primitives: crate::primitive_names(&out),
    })
}

/// One rank's share of the distributed distance matrix: scatter of row
/// assignments, local kernel, checksum reduction. Exposed so harnesses
/// (e.g. the `pdc-check` correctness checker) can run the module's
/// communication pattern under instrumentation.
pub fn distance_matrix_rank(comm: &mut Comm, points: &Dataset, access: Access) -> Result<f64> {
    drive(comm, |sc| {
        Box::pin(distance_matrix_step(sc, points, access))
    })
}

/// [`distance_matrix_rank`] in resumable (step) form: the single source
/// of truth for the module's communication pattern. The thread and proc
/// backends drive it to completion in one poll; the event backend parks
/// it at each communication point.
pub async fn distance_matrix_step<'c, 'w: 'c>(
    mut sc: StepComm<'c, 'w>,
    points: &'c Dataset,
    access: Access,
) -> Result<f64> {
    // Every rank reads the dataset from the shared filesystem (the
    // captured clone stands in for that file), exactly as the course
    // module prescribes — so the only collectives are the scatter of
    // work assignments and the reduce of the checksum (Table II).
    let n = points.len();
    let dim = points.dim();

    // Row-range assignment via scatter of (lo, hi) pairs.
    sc.phase_begin("partition");
    let assignments: Option<Vec<u64>> = if sc.rank() == 0 {
        let p = sc.size();
        Some(
            (0..p)
                .flat_map(|r| {
                    let lo = r * n / p;
                    let hi = (r + 1) * n / p;
                    [lo as u64, hi as u64]
                })
                .collect(),
        )
    } else {
        None
    };
    let my = sc.scatter(assignments.as_deref(), 0).await?;
    let (lo, hi) = (my[0] as usize, my[1] as usize);
    sc.phase_end();

    // Local kernel + simulated charge. The "row_scan" phase is the
    // module's memory-bound scan kernel — the one the profiler must place
    // on the saturated node-bus ceiling at full node occupancy.
    sc.phase_begin("row_scan");
    let block = distance_rows(points, lo, hi, access);
    sc.charge_kernel(
        model_flops(hi - lo, n, dim),
        model_dram_bytes(hi - lo, n, dim, access),
    );
    sc.phase_end();

    // Checksum reduction.
    sc.phase_begin("reduce");
    let local_sum: f64 = block.iter().sum();
    let total = sc.reduce(&[local_sum], Op::Sum, 0).await?;
    sc.phase_end();
    Ok(total.map(|t| t[0]).unwrap_or(0.0))
}

/// The module as a [`StepProgram`]: run it on the stackless event
/// backend with `World::run_event(cfg, &DistanceMatrixProgram { .. })`.
pub struct DistanceMatrixProgram {
    /// The shared dataset (each rank reads it, as the module prescribes).
    pub points: Dataset,
    /// Memory-access pattern of the scan kernel.
    pub access: Access,
}

impl StepProgram<f64> for DistanceMatrixProgram {
    fn build<'c, 'w: 'c>(&'c self, sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<f64>> {
        Box::pin(distance_matrix_step(sc, &self.points, self.access))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_datagen::uniform_points;

    fn small() -> Dataset {
        uniform_points(64, 8, 0.0, 1.0, 1234)
    }

    #[test]
    fn tiled_and_rowwise_agree_bitwise() {
        let pts = small();
        let a = distance_rows(&pts, 0, 64, Access::RowWise);
        let b = distance_rows(&pts, 0, 64, Access::Tiled { tile: 7 });
        assert_eq!(a, b, "tiling only reorders independent writes");
    }

    #[test]
    fn distance_rows_matches_hand_computation() {
        let pts = Dataset::from_flat(2, vec![0.0, 0.0, 3.0, 4.0, 0.0, 1.0]);
        let m = distance_rows(&pts, 0, 3, Access::RowWise);
        let at = |i: usize, j: usize| m[i * 3 + j];
        assert!((at(0, 1) - 5.0).abs() < 1e-12);
        assert!((at(1, 0) - 5.0).abs() < 1e-12);
        assert!((at(0, 2) - 1.0).abs() < 1e-12);
        for i in 0..3 {
            assert_eq!(m[i * 3 + i], 0.0, "diagonal is zero");
        }
    }

    #[test]
    fn symmetric_kernel_matches_the_full_computation() {
        let pts = uniform_points(80, 12, 0.0, 1.0, 21);
        let full = distance_rows(&pts, 0, 80, Access::RowWise);
        let sym = distance_matrix_symmetric(&pts);
        assert_eq!(full.len(), sym.len());
        for (i, (a, b)) in full.iter().zip(&sym).enumerate() {
            assert!((a - b).abs() < 1e-12, "entry {i}: {a} vs {b}");
        }
    }

    #[test]
    fn row_range_extracts_the_right_block() {
        let pts = small();
        let full = distance_rows(&pts, 0, 64, Access::RowWise);
        let block = distance_rows(&pts, 16, 32, Access::RowWise);
        assert_eq!(block.len(), 16 * 64);
        assert_eq!(&full[16 * 64..32 * 64], &block[..]);
    }

    #[test]
    fn auto_tile_tracks_cache_capacity() {
        // 32 KiB L1 and 90-d points: roughly 22 points per tile.
        let t_l1 = auto_tile(32 * 1024, 90);
        assert!((16..=32).contains(&t_l1), "L1 tile {t_l1}");
        // 1 MiB L2: proportionally larger.
        let t_l2 = auto_tile(1024 * 1024, 90);
        assert!(t_l2 > 16 * t_l1 / 2, "L2 tile {t_l2}");
        assert_eq!(auto_tile(64, 90), 1, "clamped at 1");
    }

    #[test]
    fn auto_tile_beats_the_extremes_in_the_simulator() {
        let n = 200;
        let auto = auto_tile(32 * 1024, 90);
        let auto_rep = trace_distance_kernel(n, 90, Access::Tiled { tile: auto });
        let tiny = trace_distance_kernel(n, 90, Access::Tiled { tile: 1 });
        let row = trace_distance_kernel(n, 90, Access::RowWise);
        assert!(auto_rep.l1_miss_rate <= tiny.l1_miss_rate + 1e-9);
        assert!(auto_rep.l1_miss_rate < row.l1_miss_rate);
    }

    #[test]
    fn traced_miss_rate_is_lower_for_tiled() {
        // The module's perf activity, in simulation: with a dataset well
        // beyond L1 (200 points × 90 d × 8 B ≈ 144 KiB), tiling must cut
        // the L1 miss rate (a 32-point tile is ~23 KiB, cache-resident).
        let row = trace_distance_kernel(200, 90, Access::RowWise);
        let tiled = trace_distance_kernel(200, 90, Access::Tiled { tile: 32 });
        assert!(
            tiled.l1_miss_rate < row.l1_miss_rate * 0.9,
            "tiled {tiled:?} vs row-wise {row:?}"
        );
        assert!(tiled.dram_lines <= row.dram_lines);
    }

    #[test]
    fn perf_stat_rendering_mimics_the_tool() {
        let rep = trace_distance_kernel(64, 8, Access::RowWise);
        let accesses = 64u64 * 64 * (2 * 8 + 1);
        let s = render_perf_stat("distance_matrix_rowwise", accesses, &rep);
        assert!(s.contains("L1-dcache-loads"));
        assert!(s.contains("L1-dcache-load-misses"));
        assert!(s.contains("distance_matrix_rowwise"));
        assert!(s.contains('%'));
    }

    #[test]
    fn analytic_model_orders_variants_like_the_simulator() {
        let rows = 400;
        let n = 400;
        let dim = 90;
        let m_row = model_dram_bytes(rows, n, dim, Access::RowWise);
        let m_tiled = model_dram_bytes(rows, n, dim, Access::Tiled { tile: 256 });
        assert!(m_tiled < m_row, "model must favour tiling");
    }

    #[test]
    fn distributed_checksum_matches_sequential() {
        let pts = uniform_points(60, 12, 0.0, 1.0, 77);
        let seq: f64 = distance_rows(&pts, 0, 60, Access::RowWise).iter().sum();
        for ranks in [1, 3, 4] {
            let rep = run_distance_matrix(&pts, ranks, Access::RowWise, 1)
                .unwrap_or_else(|e| panic!("ranks={ranks}: {e}"));
            assert!(
                (rep.checksum - seq).abs() < 1e-6 * seq,
                "ranks={ranks}: {} vs {}",
                rep.checksum,
                seq
            );
        }
    }

    #[test]
    fn strong_scaling_is_near_linear() {
        // Compute-bound: simulated speedup at 8 ranks must be close to 8.
        // N is large enough that the broadcast cost is negligible next to
        // the O(N²·d) compute.
        let pts = uniform_points(512, 90, 0.0, 1.0, 5);
        let t1 = run_distance_matrix(&pts, 1, Access::RowWise, 1)
            .expect("p=1")
            .sim_time;
        let t8 = run_distance_matrix(&pts, 8, Access::RowWise, 1)
            .expect("p=8")
            .sim_time;
        let speedup = t1 / t8;
        assert!(
            speedup > 5.0,
            "speedup {speedup:.2} too low for compute-bound"
        );
    }

    #[test]
    fn tiled_is_faster_in_simulated_time() {
        let pts = uniform_points(96, 90, 0.0, 1.0, 6);
        let row = run_distance_matrix(&pts, 4, Access::RowWise, 1).expect("row");
        let tiled =
            run_distance_matrix(&pts, 4, Access::Tiled { tile: DEFAULT_TILE }, 1).expect("tiled");
        assert!(
            tiled.sim_time < row.sim_time,
            "tiled {} vs row-wise {}",
            tiled.sim_time,
            row.sim_time
        );
        assert!((tiled.checksum - row.checksum).abs() < 1e-9 * row.checksum.abs());
    }

    #[test]
    #[should_panic(expected = "row range")]
    fn bad_row_range_is_rejected() {
        let pts = small();
        let _ = distance_rows(&pts, 10, 100, Access::RowWise);
    }
}
