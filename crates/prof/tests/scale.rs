//! Scale acceptance: the event engine pushes the profiler's verdicts to
//! cluster scales no thread-per-rank run could reach. A 4096-rank
//! Module 2 sweep must complete on a CI container and keep the
//! node-bandwidth diagnosis of `docs/performance-model.md`: with 32 ranks
//! sharing each node bus, effective bandwidth per rank collapses to
//! `node_mem_bw / ranks_per_node`.

use pdc_datagen::uniform_points;
use pdc_modules::module2::{Access, DistanceMatrixProgram};
use pdc_mpi::{ProfContext, World, WorldConfig};
use pdc_prof::{Bound, Profile};

/// 4096 ranks on 128 simulated nodes (32 ranks per node), each a state
/// machine on the event engine. The strong-scaling shape of the paper's
/// memory-bound module survives the three-orders-of-magnitude jump.
#[test]
fn module2_at_4096_ranks_stays_node_bandwidth_bound() {
    let program = DistanceMatrixProgram {
        points: uniform_points(4096, 8, 0.0, 100.0, 42),
        access: Access::RowWise,
    };
    let cfg = WorldConfig::virtual_ranks(4096, 8)
        .with_sched_seed(0)
        .on_nodes(128)
        .with_tracing();
    let ranks_per_node = cfg.machine.cores_per_node as f64;
    assert_eq!(ranks_per_node, 32.0, "4096 ranks over 128 nodes");
    let node_bw = cfg.machine.node_mem_bw;
    let ctx = ProfContext::from_config(&cfg);
    let out = World::run_event(cfg, &program).expect("4096-rank module2 completes");
    let p = Profile::from_run(&out, &ctx);
    assert_eq!(p.placement.nodes_used(), 128);

    let k = p.kernel("row_scan").expect("row_scan kernel verdict");
    assert_eq!(
        k.bound,
        Bound::NodeBandwidth,
        "row scan stays bandwidth-bound on the saturated node bus: {k:?}"
    );
    let per_rank = node_bw / ranks_per_node;
    assert!(
        (k.ceiling - per_rank).abs() < 1e-3 * per_rank,
        "ceiling {} vs node_mem_bw/{ranks_per_node} = {per_rank}",
        k.ceiling
    );
    assert!(
        (k.effective_bandwidth - per_rank).abs() < 0.1 * per_rank,
        "effective bandwidth {} should sit at ~{per_rank}",
        k.effective_bandwidth
    );
}
