//! Properties of the discrete-event engine itself: deterministic replay,
//! heap pop order, fairness, and exact deadlock analysis.
//!
//! Where `event_conformance` proves the engine matches the blocking
//! backends observationally, these tests pin the engine's *scheduling*
//! contract: selection is a pure function of `(program, size, seed)`,
//! equal-time wakes pop in a deterministic order, no rank starves, and an
//! empty heap with unfinished ranks reproduces the thread backend's
//! watchdog deadlock report.

use pdc_modules::module3::{BucketStrategy, DistributionSortProgram, InputDist};
use pdc_modules::module6::{HaloVariant, StencilProgram};
use pdc_mpi::{drive, Error, Result, StepComm, StepFuture, StepProgram, World, WorldConfig};

fn sort_program() -> DistributionSortProgram {
    DistributionSortProgram {
        n_per_rank: 40,
        dist: InputDist::Exponential,
        strategy: BucketStrategy::Histogram { bins: 16 },
        seed: 7,
    }
}

fn event_cfg(ranks: usize, seed: u64) -> WorldConfig {
    WorldConfig::new(ranks).with_sched_seed(seed)
}

/// Same `(program, size, seed)` ⇒ bit-identical resume trace,
/// results, and simulated clock. The engine has no hidden state: replay
/// is exact.
#[test]
fn same_seed_replays_the_identical_event_order() {
    let program = sort_program();
    for seed in [0, 3, 11] {
        let a = World::run_event(event_cfg(8, seed), &program).expect("first run");
        let b = World::run_event(event_cfg(8, seed), &program).expect("second run");
        assert_eq!(a.sched_trace, b.sched_trace, "seed {seed}: resume trace");
        assert_eq!(
            format!("{:?}", a.values),
            format!("{:?}", b.values),
            "seed {seed}: results"
        );
        assert_eq!(
            a.sim_time.to_bits(),
            b.sim_time.to_bits(),
            "seed {seed}: sim clock"
        );
    }
}

/// Seed 0 is the identity tie-break: wakes queued at the same timestamp
/// pop in program order. All ranks start queued at t=0, so the first
/// `size` resumes are exactly ranks 0, 1, ..., size-1.
#[test]
fn seed_zero_pops_equal_timestamps_in_program_order() {
    let program = StencilProgram {
        n_per_rank: 4,
        iters: 2,
        variant: HaloVariant::BlockingFirst,
    };
    let size = 6;
    let out = World::run_event(event_cfg(size, 0), &program).expect("stencil runs");
    let first: Vec<u32> = out.sched_trace.iter().take(size).copied().collect();
    let expected: Vec<u32> = (0..size as u32).collect();
    assert_eq!(first, expected, "t=0 wakes must pop in program order");
}

/// Different seeds may legally reorder equal-time wakes — but every rank
/// still runs to completion and appears in the trace (no starvation),
/// and the *results* stay identical across all 16 seeds.
#[test]
fn no_rank_starves_across_sixteen_seeds() {
    let program = sort_program();
    let size = 8;
    let baseline = World::run_event(event_cfg(size, 0), &program).expect("seed 0");
    for seed in 0..16u64 {
        let out = World::run_event(event_cfg(size, seed), &program)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for rank in 0..size as u32 {
            assert!(
                out.sched_trace.contains(&rank),
                "seed {seed}: rank {rank} never resumed"
            );
        }
        assert_eq!(
            format!("{:?}", out.values),
            format!("{:?}", baseline.values),
            "seed {seed}: schedule choice leaked into results"
        );
    }
}

/// Every rank receives from its successor; nobody sends. The heap drains
/// with unfinished ranks, and the engine must produce *exactly* the
/// thread backend watchdog's deadlock analysis: same blocked-operation
/// table, same wait-for cycle, same call sites.
struct CrossRecv;

impl StepProgram<u64> for CrossRecv {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<u64>> {
        Box::pin(async move {
            let peer = (sc.rank() + 1) % sc.size();
            let (data, _status) = sc.recv::<u64, _, _>(peer, 5).await?;
            Ok(data[0])
        })
    }
}

#[test]
fn empty_heap_reports_the_exact_watchdog_deadlock_analysis() {
    let event_err =
        World::run_event(event_cfg(3, 0), &CrossRecv).expect_err("a receive cycle must deadlock");
    let thread_err = World::run(event_cfg(3, 0), |comm| {
        drive(comm, |sc| CrossRecv.build(sc))
    })
    .expect_err("a receive cycle must deadlock");
    let (Error::Deadlock(event_info), Error::Deadlock(thread_info)) = (&event_err, &thread_err)
    else {
        panic!("expected Deadlock on both backends, got {event_err:?} / {thread_err:?}");
    };
    assert_eq!(
        format!("{event_info:?}"),
        format!("{thread_info:?}"),
        "event-engine deadlock analysis diverged from the watchdog's"
    );
    assert!(!event_info.cycle.is_empty(), "cycle must be identified");
}
