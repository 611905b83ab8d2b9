//! The failure clinic: deterministic fault injection against the runtime's
//! fault-tolerance machinery, end to end.
//!
//! Four stations:
//!
//! 1. a scheduled rank crash surfaces as a typed `RankFailed` error on
//!    every affected rank — ULFM semantics, not a deadlock report;
//! 2. survivors acknowledge the failure (`agree`), `shrink` to a
//!    communicator of the living, and finish the job without the casualty;
//! 3. a lossy network (dropped messages) is fully repaired by the
//!    ack/timeout/retry policy — results match a fault-free run exactly;
//! 4. k-means survives a mid-run crash by restarting from its last
//!    allreduce-boundary checkpoint, reproducing the fault-free centroids.
//!
//! ```text
//! cargo run --release --example failure_clinic
//! ```

use pdc_suite::check::check_world;
use pdc_suite::datagen::gaussian_mixture;
use pdc_suite::modules::module5::{run_kmeans, run_kmeans_ft, CommOption};
use pdc_suite::mpi::{Error, FaultPlan, Op, RetryPolicy, World, WorldConfig};

fn main() {
    println!("== station 1: a crash is a typed error, not a hang ==");
    let plan = FaultPlan::seeded(1).crash_rank(2, 0.0);
    let err = World::run(WorldConfig::new(4).with_faults(plan), |comm| {
        comm.allreduce(&[comm.rank() as u64], Op::Sum)
    })
    .expect_err("a rank died");
    println!("  world error: {err}\n");

    println!("== station 2: survivors agree, shrink, and continue ==");
    let plan = FaultPlan::seeded(2).crash_rank(2, 0.0);
    let out = World::run(WorldConfig::new(4).with_faults(plan), |comm| {
        let mine = [comm.rank() as u64];
        match comm.allreduce(&mine, Op::Sum) {
            Ok(v) => Ok(v[0]),
            Err(Error::RankFailed { rank, .. }) if rank == comm.rank() => Ok(u64::MAX),
            Err(Error::RankFailed { rank, at }) => {
                if comm.rank() == 0 {
                    println!("  rank 0 learned: rank {rank} failed at t={at:.6}s");
                }
                comm.agree()?;
                let mut sc = comm.shrink()?;
                Ok(comm.sub_allreduce(&mut sc, &mine, Op::Sum)?[0])
            }
            Err(e) => Err(e),
        }
    })
    .expect("survivors recover");
    println!(
        "  survivor sum over ranks 0,1,3: {} (casualty returned {:#x})\n",
        out.values[0], out.values[2]
    );

    println!("== station 3: drops + retry are invisible ==");
    let program = |comm: &mut pdc_suite::mpi::Comm| {
        let peer = comm.size() - 1 - comm.rank();
        let req = comm.isend(&[comm.rank() as u64 + 100], peer, 9)?;
        let (v, _) = comm.recv::<u64>(peer, 9)?;
        comm.wait_all_sends(vec![req])?;
        comm.allreduce(&v, Op::Sum)
    };
    let clean = World::run(WorldConfig::new(4), program).expect("fault-free");
    let lossy_plan = FaultPlan::seeded(3)
        .with_drop_rate(0.4)
        .with_retry(RetryPolicy::default());
    let checked = check_world(WorldConfig::new(4).with_faults(lossy_plan), program);
    let lossy = checked.result.expect("retry repairs the losses");
    println!(
        "  results identical: {}; simulated time {:.6}s clean vs {:.6}s lossy",
        clean.values == lossy.values,
        clean.sim_time,
        lossy.sim_time
    );
    println!("  what the checker saw:");
    for line in checked.report.render().lines() {
        println!("    {line}");
    }
    println!();

    println!("== station 4: k-means checkpoint/restart ==");
    let pts = gaussian_mixture(600, 2, 4, 100.0, 1.0, 11).points;
    let baseline = run_kmeans(&pts, 4, 4, CommOption::WeightedMeans, 1, 1e-9).expect("baseline");
    let crash = FaultPlan::seeded(4).crash_rank(1, baseline.sim_time * 0.5);
    let (ft, restarts) = run_kmeans_ft(&pts, 4, 4, 1e-9, crash, 3).expect("ft run");
    println!(
        "  baseline: {} iterations, inertia {:.3}",
        baseline.iterations, baseline.inertia
    );
    println!(
        "  with mid-run crash: {} restart(s), centroids identical: {}, inertia {:.3}",
        restarts,
        ft.centroids == baseline.centroids,
        ft.inertia
    );
    println!(
        "\nlesson: fault tolerance is a *protocol* — typed failure reporting,\n\
         acknowledged agreement, and checkpoints at collective boundaries —\n\
         not a property the runtime can bolt on for free."
    );
}
