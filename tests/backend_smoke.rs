//! Fast cross-backend smoke test: the thread and event backends run the
//! same Module 3 step program at a size where every mailbox indexes its
//! pending queue, and must agree byte for byte.
//!
//! At 48 ranks each rank's exchange leaves 47 messages pending after the
//! barrier, more than the depth at which a mailbox switches from scanning
//! its queue to an index. Wildcard probes and exact-source receives then
//! go through the index on both backends, so a matching difference shows
//! up here as a different result, simulated clock, or `CommStats`. The
//! crate-level `event_conformance` suite covers more sizes and programs.

use pdc_modules::module3::{BucketStrategy, DistributionSortProgram, InputDist};
use pdc_mpi::{drive, StepProgram, World, WorldConfig};

#[test]
fn module3_deep_mailboxes_are_thread_event_identical() {
    const RANKS: usize = 48;
    let program = DistributionSortProgram {
        n_per_rank: 40,
        dist: InputDist::Exponential,
        strategy: BucketStrategy::Histogram { bins: RANKS },
        seed: 11,
    };
    let thread = World::run(WorldConfig::new(RANKS), |comm| {
        drive(comm, |sc| program.build(sc))
    })
    .expect("thread backend runs");
    let event = World::run_event(
        WorldConfig::new(RANKS).with_virtual(2).with_sched_seed(0),
        &program,
    )
    .expect("event backend runs");

    assert!(thread.values.iter().all(|&(_, ordered)| ordered));
    let kept: usize = thread.values.iter().map(|&(n, _)| n).sum();
    assert_eq!(kept, 40 * RANKS, "the exchange conserves keys");
    assert_eq!(
        format!("{:?}", thread.values),
        format!("{:?}", event.values)
    );
    assert_eq!(thread.sim_time.to_bits(), event.sim_time.to_bits());
    assert_eq!(format!("{:?}", thread.stats), format!("{:?}", event.stats));
}
