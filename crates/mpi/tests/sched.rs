//! Seeded worlds on the event engine: the determinism contract (same
//! seed ⇒ bit-identical resume order and results), seed exploration, no
//! starvation, exact deadlock detection, and where the seed comes from
//! (`PDC_MPI_SCHED_SEED`, overridden by the builder).

use pdc_mpi::{
    drive, Error, Op, Result, RunOutput, StepComm, StepFuture, StepProgram, World, WorldConfig,
};
use proptest::prelude::*;

/// A ring program: every rank sends to its right neighbour, receives from
/// its left, then allreduces the sum — enough traffic to exercise
/// parking, wakes, and collective trees.
struct Ring;

impl StepProgram<u64> for Ring {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<u64>> {
        Box::pin(async move {
            let (size, rank) = (sc.size(), sc.rank());
            let right = (rank + 1) % size;
            let left = (rank + size - 1) % size;
            sc.send(&[rank as u64], right, 0).await?;
            let (from_left, _) = sc.recv::<u64, _, _>(left, 0).await?;
            let total = sc.allreduce(&[from_left[0] + 1], Op::Sum).await?;
            Ok(total[0])
        })
    }
}

fn ring(cfg: WorldConfig) -> RunOutput<u64> {
    World::run_event(cfg, &Ring).expect("ring completes")
}

fn ring_on_threads(cfg: WorldConfig) -> RunOutput<u64> {
    World::run(cfg, |comm| drive(comm, |sc| Ring.build(sc))).expect("ring completes")
}

#[test]
fn seeded_world_runs_basic_collectives() {
    let out = ring(WorldConfig::virtual_ranks(64, 4).with_sched_seed(1));
    let expect: u64 = (0..64u64).map(|r| r + 1).sum();
    assert!(out.values.iter().all(|&v| v == expect));
    assert!(!out.sched_trace.is_empty(), "event runs record a trace");
}

#[test]
fn thread_mode_records_no_sched_trace() {
    let out = ring_on_threads(WorldConfig::virtual_ranks(8, 4).with_sched_seed(1));
    assert!(out.sched_trace.is_empty());
}

#[test]
fn event_and_thread_mode_agree() {
    let event = ring(WorldConfig::virtual_ranks(16, 2).with_sched_seed(5));
    let thread = ring_on_threads(WorldConfig::new(16));
    assert_eq!(event.values, thread.values);
    assert_eq!(event.sim_time.to_bits(), thread.sim_time.to_bits());
    assert_eq!(
        event.total_stats().bytes_sent,
        thread.total_stats().bytes_sent,
        "both backends move the same bytes"
    );
}

/// One rank sending to itself.
struct SelfSend;

impl StepProgram<u32> for SelfSend {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<u32>> {
        Box::pin(async move {
            sc.send(&[9u32], 0, 0).await?;
            let (v, _) = sc.recv::<u32, _, _>(0, 0).await?;
            Ok(v[0])
        })
    }
}

#[test]
fn single_rank_world_works() {
    let out = World::run_event(WorldConfig::virtual_ranks(1, 1), &SelfSend)
        .expect("self-send on the event engine");
    assert_eq!(out.values, vec![9]);
}

#[test]
fn many_ranks_complete() {
    // Far more ranks than a thread-per-rank world could time-slice.
    let out = ring(WorldConfig::virtual_ranks(4096, 2).with_sched_seed(3));
    let expect: u64 = (0..4096u64).map(|r| r + 1).sum();
    assert!(out.values.iter().all(|&v| v == expect));
}

#[test]
fn deadlock_is_detected_exactly() {
    // Rendezvous ring: every send is synchronous and precedes the
    // receive — the classic Module 1 deadlock. The engine detects it the
    // moment its heap empties; with the watchdog off there is no
    // wall-clock interval and no timing sensitivity.
    let cfg = WorldConfig::virtual_ranks(4, 2)
        .with_eager_threshold(0)
        .with_watchdog(None);
    let err = World::run_event(cfg, &Ring).expect_err("rendezvous ring deadlocks");
    match err {
        Error::Deadlock(info) => {
            assert_eq!(info.blocked.len(), 4, "{}", info.render());
            assert!(
                info.blocked.iter().all(|b| b.op == "send(rendezvous)"),
                "{}",
                info.render()
            );
            assert_eq!(info.cycle.len(), 4, "the ring is a wait-for cycle");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn same_seed_same_trace_and_results() {
    let a = ring(WorldConfig::virtual_ranks(24, 3).with_sched_seed(77));
    let b = ring(WorldConfig::virtual_ranks(24, 3).with_sched_seed(77));
    assert_eq!(a.sched_trace, b.sched_trace, "same seed ⇒ same schedule");
    assert_eq!(a.values, b.values);
    assert_eq!(a.sim_time, b.sim_time, "simulated clock is bit-identical");
}

#[test]
fn different_seeds_explore_different_schedules() {
    let traces: std::collections::HashSet<Vec<u32>> = (0..16u64)
        .map(|seed| ring(WorldConfig::virtual_ranks(12, 2).with_sched_seed(seed)).sched_trace)
        .collect();
    assert!(
        traces.len() > 1,
        "16 seeds over a 12-rank ring should produce more than one interleaving"
    );
}

#[test]
fn env_seed_is_read_and_builder_overrides_it() {
    // virtual_ranks() takes its seed from PDC_MPI_SCHED_SEED (0 when
    // unset); with_sched_seed pins it regardless of the environment, so
    // the determinism tests above cannot be perturbed by an ambient seed.
    let env_seed = std::env::var("PDC_MPI_SCHED_SEED")
        .map(|v| v.trim().parse::<u64>().expect("numeric seed"))
        .unwrap_or(0);
    let seeded = WorldConfig::virtual_ranks(4, 2);
    assert_eq!(seeded.sched_seed, env_seed);
    let pinned = WorldConfig::virtual_ranks(4, 2).with_sched_seed(123);
    assert_eq!(pinned.sched_seed, 123);
    let plain = WorldConfig::new(4).with_sched_seed(9);
    assert_eq!(plain.sched_seed, 9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same (size, seed) ⇒ identical resume order, twice over.
    #[test]
    fn prop_same_seed_identical_resume_order(
        size in 2usize..24,
        seed in 0u64..1_000,
    ) {
        let a = ring(WorldConfig::new(size).with_sched_seed(seed));
        let b = ring(WorldConfig::new(size).with_sched_seed(seed));
        prop_assert_eq!(a.sched_trace, b.sched_trace);
        prop_assert_eq!(a.values, b.values);
    }

    /// No starvation: every rank completes, so every rank was resumed —
    /// and the trace contains each rank at least once.
    #[test]
    fn prop_no_starvation_every_rank_scheduled(
        size in 2usize..32,
        seed in 0u64..1_000,
    ) {
        let out = ring(WorldConfig::new(size).with_sched_seed(seed));
        prop_assert_eq!(out.values.len(), size);
        for rank in 0..size as u32 {
            prop_assert!(
                out.sched_trace.contains(&rank),
                "rank {} never scheduled in {:?}", rank, out.sched_trace
            );
        }
    }

    /// The event engine and threads are observably equivalent: same
    /// values, same bytes on the wire, for arbitrary ring sizes.
    #[test]
    fn prop_event_matches_thread_mode(
        size in 2usize..16,
        seed in 0u64..1_000,
    ) {
        let event = ring(WorldConfig::new(size).with_sched_seed(seed));
        let thread = ring_on_threads(WorldConfig::new(size));
        prop_assert_eq!(event.values, thread.values);
        prop_assert_eq!(event.total_stats().bytes_sent, thread.total_stats().bytes_sent);
    }
}
