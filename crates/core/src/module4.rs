//! Module 4: range queries.
//!
//! Students answer 2-d range queries ("all asteroids with amplitude in
//! 0.2–1.0 and period in 30–100 h") over a dataset replicated on every
//! rank, with the query set partitioned across ranks (paper §III-E).
//!
//! * Activity 1: **brute force** — every query scans every point. The
//!   dataset stays cache-resident across queries, so the work is
//!   compute-bound and scales almost linearly.
//! * Activity 2: **R-tree** — the supplied index prunes the search; far
//!   fewer points are tested, but the traversal is pointer-chasing over a
//!   structure larger than cache: memory-bound, so *more efficient yet
//!   less scalable* — the module's central lesson.
//! * Activity 3: **resource allocation** — the same R-tree run placed on
//!   1 vs 2 nodes shows that aggregate memory bandwidth, not cores, is the
//!   binding resource.
//!
//! Learning outcomes 4, 8, 10–15 (Table I).

use pdc_datagen::Asteroid;
use pdc_mpi::{drive, Comm, Op, Result, StepComm, World, WorldConfig};
use pdc_spatial::{KdTree, QueryStats, RTree, Rect};
use serde::{Deserialize, Serialize};

/// Query-engine variant. The paper's module supplies an R-tree and names
/// kd-trees and quad-trees as the classic alternatives students may
/// explore (outcome 15); the kd-tree engine makes that exploration
/// runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Engine {
    /// Scan all points per query.
    BruteForce,
    /// Guttman R-tree (bulk-loaded) per rank.
    RTree,
    /// Median-split kd-tree per rank.
    KdTree,
}

/// Report of a distributed range-query run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RangeQueryReport {
    /// Points in the catalog.
    pub n_points: usize,
    /// Queries answered.
    pub n_queries: usize,
    /// Ranks used.
    pub ranks: usize,
    /// Nodes used.
    pub nodes: usize,
    /// Engine variant.
    pub engine: Engine,
    /// Total matches over all queries (reduced with `MPI_Reduce`).
    pub total_matches: u64,
    /// Simulated makespan, seconds.
    pub sim_time: f64,
    /// Candidate points tested across all ranks (work measure).
    pub points_tested: u64,
    /// MPI primitives the run exercised (`MPI_*` names) — Table II data.
    pub primitives: Vec<String>,
}

/// A rectangular query: `(low corner, high corner)`.
pub type QueryBox = ([f64; 2], [f64; 2]);

/// Sequential brute-force evaluation of one query (the reference kernel).
pub fn brute_force_query(catalog: &[Asteroid], lo: &[f64; 2], hi: &[f64; 2]) -> u64 {
    catalog
        .iter()
        .filter(|a| {
            a.amplitude >= lo[0] && a.amplitude <= hi[0] && a.period >= lo[1] && a.period <= hi[1]
        })
        .count() as u64
}

/// Estimated bytes of one R-tree node (entries × (rect + pointer)).
const NODE_BYTES: usize = 16 * (4 * 8 + 8);
/// Bytes of one indexed point entry.
const POINT_BYTES: usize = 2 * 8 + 4;
/// Estimated bytes of one kd-tree split node.
const KD_NODE_BYTES: usize = 4 * 8;

/// Run the distributed range-query workload.
///
/// The catalog is replicated on every rank (as the module prescribes);
/// the `queries` list is partitioned contiguously across ranks. Returns
/// the global match count and cost measures.
pub fn run_range_queries(
    catalog: &[Asteroid],
    queries: &[QueryBox],
    ranks: usize,
    engine: Engine,
    nodes: usize,
) -> Result<RangeQueryReport> {
    let cfg = if nodes > 1 {
        WorldConfig::new(ranks).on_nodes(nodes)
    } else {
        WorldConfig::new(ranks)
    };
    run_range_queries_cfg(catalog, queries, engine, cfg)
}

/// Like [`run_range_queries`] but on an explicit world configuration —
/// the hook for "what if the hardware changed?" studies (e.g.
/// [`MachineModel::fat_memory_node`]).
pub fn run_range_queries_cfg(
    catalog: &[Asteroid],
    queries: &[QueryBox],
    engine: Engine,
    cfg: WorldConfig,
) -> Result<RangeQueryReport> {
    let ranks = cfg.size;
    let nodes = cfg.nodes_used;
    let catalog = catalog.to_vec();
    let queries = queries.to_vec();
    let n_points = catalog.len();
    let n_queries = queries.len();
    let out = World::run(cfg, move |comm| {
        range_queries_rank(comm, &catalog, &queries, engine)
    })?;
    Ok(RangeQueryReport {
        n_points,
        n_queries,
        ranks,
        nodes,
        engine,
        total_matches: out.values[0].0,
        points_tested: out.values[0].1,
        sim_time: out.sim_time,
        primitives: crate::primitive_names(&out),
    })
}

/// One rank's share of the range-query workload: answer a contiguous
/// slice of `queries` against the replicated `catalog`, then reduce the
/// global match and work counts to rank 0. Returns
/// `(total_matches, points_tested)` on rank 0 and `(0, 0)` elsewhere.
pub fn range_queries_rank(
    comm: &mut Comm,
    catalog: &[Asteroid],
    queries: &[QueryBox],
    engine: Engine,
) -> Result<(u64, u64)> {
    drive(comm, |sc| {
        Box::pin(range_queries_step(sc, catalog, queries, engine))
    })
}

/// [`range_queries_rank`] in resumable (step) form: the single source of
/// truth for the module's communication pattern.
pub async fn range_queries_step(
    mut sc: StepComm<'_, '_>,
    catalog: &[Asteroid],
    queries: &[QueryBox],
    engine: Engine,
) -> Result<(u64, u64)> {
    let n_points = catalog.len();
    let n_queries = queries.len();
    let p = sc.size();
    let r = sc.rank();
    // Contiguous query partition (input data is pre-distributed per the
    // module; no initial communication needed).
    let q_lo = r * n_queries / p;
    let q_hi = (r + 1) * n_queries / p;
    let my_queries = &queries[q_lo..q_hi];

    sc.phase_begin("query_scan");
    let (matches, tested): (u64, u64) = match engine {
        Engine::BruteForce => {
            let mut m = 0u64;
            for (lo, hi) in my_queries {
                m += brute_force_query(catalog, lo, hi);
            }
            let tested = (my_queries.len() * n_points) as u64;
            // Compute-bound: 4 comparisons (≈4 flops) per point test;
            // the catalog (16 B/point) is streamed from DRAM once and
            // then served from cache across queries.
            sc.charge_kernel(tested as f64 * 4.0, (n_points * 16) as f64);
            (m, tested)
        }
        Engine::RTree => {
            let tree = RTree::bulk_load(
                catalog
                    .iter()
                    .enumerate()
                    .map(|(i, a)| (a.as_point(), i as u32))
                    .collect(),
            );
            let mut m = 0u64;
            let mut stats = QueryStats::default();
            for (lo, hi) in my_queries {
                let (hits, qs) = tree.range_query(&Rect::new(*lo, *hi));
                m += hits.len() as u64;
                stats.add(&qs);
            }
            // Memory-bound: every node visit and point test is a
            // dependent access into an out-of-cache structure.
            let bytes = stats.bytes_touched(NODE_BYTES, POINT_BYTES) as f64;
            let flops = stats.points_tested as f64 * 4.0;
            sc.charge_kernel(flops, bytes);
            (m, stats.points_tested)
        }
        Engine::KdTree => {
            let tree = KdTree::build(
                catalog
                    .iter()
                    .enumerate()
                    .map(|(i, a)| (a.as_point(), i as u32))
                    .collect(),
            );
            let mut m = 0u64;
            let mut stats = QueryStats::default();
            for (lo, hi) in my_queries {
                let (hits, qs) = tree.range_query(&Rect::new(*lo, *hi));
                m += hits.len() as u64;
                stats.add(&qs);
            }
            // Same memory-bound profile as the R-tree (pointer-chased
            // nodes), with smaller per-node footprints.
            let bytes = stats.bytes_touched(KD_NODE_BYTES, POINT_BYTES) as f64;
            let flops = stats.points_tested as f64 * 4.0;
            sc.charge_kernel(flops, bytes);
            (m, stats.points_tested)
        }
    };

    sc.phase_end();

    // Global result via MPI_Reduce (the module's required primitive).
    sc.phase_begin("reduce");
    let total = sc.reduce(&[matches], Op::Sum, 0).await?;
    let tested_total = sc.reduce(&[tested], Op::Sum, 0).await?;
    sc.phase_end();
    Ok((
        total.map(|t| t[0]).unwrap_or(0),
        tested_total.map(|t| t[0]).unwrap_or(0),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_datagen::{asteroid_catalog, random_range_queries};

    fn workload(n: usize, q: usize, frac: f64) -> (Vec<Asteroid>, Vec<QueryBox>) {
        (asteroid_catalog(n, 11), random_range_queries(q, frac, 12))
    }

    #[test]
    fn both_engines_count_the_same_matches() {
        let (cat, qs) = workload(3000, 40, 0.25);
        let bf = run_range_queries(&cat, &qs, 4, Engine::BruteForce, 1).expect("bf");
        let rt = run_range_queries(&cat, &qs, 4, Engine::RTree, 1).expect("rtree");
        let kd = run_range_queries(&cat, &qs, 4, Engine::KdTree, 1).expect("kdtree");
        assert_eq!(bf.total_matches, rt.total_matches);
        assert_eq!(rt.total_matches, kd.total_matches);
        assert!(bf.total_matches > 0, "workload must produce matches");
    }

    #[test]
    fn kdtree_engine_is_also_efficient_but_memory_bound() {
        let (cat, qs) = workload(100_000, 400, 0.05);
        let bf1 = run_range_queries(&cat, &qs, 1, Engine::BruteForce, 1).expect("bf1");
        let kd1 = run_range_queries(&cat, &qs, 1, Engine::KdTree, 1).expect("kd1");
        let bf16 = run_range_queries(&cat, &qs, 16, Engine::BruteForce, 1).expect("bf16");
        let kd16 = run_range_queries(&cat, &qs, 16, Engine::KdTree, 1).expect("kd16");
        assert!(kd1.sim_time < bf1.sim_time, "kd-tree wins absolute time");
        let bf_speedup = bf1.sim_time / bf16.sim_time;
        let kd_speedup = kd1.sim_time / kd16.sim_time;
        assert!(
            bf_speedup > kd_speedup,
            "brute force must out-scale the kd-tree: {bf_speedup:.1} vs {kd_speedup:.1}"
        );
    }

    #[test]
    fn match_count_is_rank_count_invariant() {
        let (cat, qs) = workload(2000, 30, 0.25);
        let counts: Vec<u64> = [1, 2, 5]
            .iter()
            .map(|&p| {
                run_range_queries(&cat, &qs, p, Engine::BruteForce, 1)
                    .expect("run")
                    .total_matches
            })
            .collect();
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
    }

    #[test]
    fn rtree_tests_far_fewer_points() {
        let (cat, qs) = workload(5000, 40, 0.15);
        let bf = run_range_queries(&cat, &qs, 2, Engine::BruteForce, 1).expect("bf");
        let rt = run_range_queries(&cat, &qs, 2, Engine::RTree, 1).expect("rtree");
        assert!(
            rt.points_tested * 2 < bf.points_tested,
            "R-tree pruning: {} vs {}",
            rt.points_tested,
            bf.points_tested
        );
    }

    #[test]
    fn rtree_is_faster_but_scales_worse() {
        // The module's core claim, on the simulated clock. Narrow queries
        // (0.05 of each log-domain) keep per-query match counts small, the
        // regime where indexing pays off.
        let (cat, qs) = workload(100_000, 400, 0.05);
        let time = |engine, p| {
            run_range_queries(&cat, &qs, p, engine, 1)
                .expect("run")
                .sim_time
        };
        let bf1 = time(Engine::BruteForce, 1);
        let bf16 = time(Engine::BruteForce, 16);
        let rt1 = time(Engine::RTree, 1);
        let rt16 = time(Engine::RTree, 16);
        // Efficiency: the R-tree wins outright...
        assert!(rt1 < bf1, "R-tree beats brute force at p=1: {rt1} vs {bf1}");
        assert!(rt16 < bf16, "and at p=16: {rt16} vs {bf16}");
        // ...but its speedup is worse.
        let bf_speedup = bf1 / bf16;
        let rt_speedup = rt1 / rt16;
        assert!(
            bf_speedup > rt_speedup * 1.2,
            "brute-force speedup {bf_speedup:.1} must exceed R-tree speedup {rt_speedup:.1}"
        );
    }

    #[test]
    fn two_nodes_help_the_memory_bound_rtree() {
        let (cat, qs) = workload(100_000, 400, 0.05);
        let one = run_range_queries(&cat, &qs, 16, Engine::RTree, 1).expect("1 node");
        let two = run_range_queries(&cat, &qs, 16, Engine::RTree, 2).expect("2 nodes");
        assert!(
            two.sim_time < one.sim_time,
            "2 nodes {} vs 1 node {}",
            two.sim_time,
            one.sim_time
        );
    }

    #[test]
    fn brute_force_query_boundary_semantics() {
        let cat = vec![
            Asteroid {
                amplitude: 0.5,
                period: 50.0,
            },
            Asteroid {
                amplitude: 0.2,
                period: 30.0,
            }, // on the boundary
            Asteroid {
                amplitude: 1.5,
                period: 50.0,
            }, // outside amplitude
        ];
        assert_eq!(brute_force_query(&cat, &[0.2, 30.0], &[1.0, 100.0]), 2);
    }

    #[test]
    fn empty_query_set_is_fine() {
        let (cat, _) = workload(100, 0, 0.25);
        let r = run_range_queries(&cat, &[], 3, Engine::RTree, 1).expect("empty");
        assert_eq!(r.total_matches, 0);
    }
}
