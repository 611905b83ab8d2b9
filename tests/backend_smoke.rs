//! Fast cross-backend smoke tests: the thread and event backends run the
//! same step programs and must agree byte for byte.
//!
//! Module 3 runs at a size where every mailbox indexes its pending queue.
//! At 48 ranks each rank's exchange leaves 47 messages pending after the
//! barrier, more than the depth at which a mailbox switches from scanning
//! its queue to an index. Wildcard probes and exact-source receives then
//! go through the index on both backends, so a matching difference shows
//! up here as a different result, simulated clock, or `CommStats`.
//!
//! A tour of every step-program collective runs on a two-node placement
//! under a tuning table that forces the chunked and hierarchical
//! algorithms, which both backends run from the same implementation.
//!
//! The tuner's checked-in measurements replay bit for bit on the event
//! engine, where `mpi_tune` now takes them.
//!
//! Module 7 runs the way an external harness replays a lab job: a
//! blocking closure under a seeded `virtual_ranks` config (which runs
//! thread-per-rank) against the same step body on the event engine.
//!
//! Payloads on either side of the inline limit of the payload type cross
//! point-to-point and collective paths, with and without injected
//! duplicates, and a message nobody receives reaches the finalize leak
//! check from the event engine's queue as it does from a thread's
//! channel.
//!
//! Every kind of wait — a receive, a rendezvous send's ack, a probe and
//! an agreement — ends in the same error on threads as on the event
//! engine when it cannot complete: a crashed peer's `RankFailed`, or the
//! same deadlock analysis. An eager send to a rank that already returned
//! succeeds on both, as fire-and-forget traffic to a gone peer.
//!
//! The crate-level `event_conformance` suite covers more sizes and
//! programs.

use bytes::INLINE_CAPACITY;
use pdc_check::{analyze, FindingKind};
use pdc_modules::module3::{BucketStrategy, DistributionSortProgram, InputDist};
use pdc_modules::module7::{top_k_rank, top_k_step, TopKStrategy};
use pdc_mpi::tune::measure;
use pdc_mpi::{
    drive, CheckEvent, CheckMode, CollAlgo, CollKind, Error, FaultPlan, Op, Result, SizeClass,
    StepComm, StepFuture, StepProgram, TuningTable, World, WorldConfig,
};
use std::path::Path;
use std::time::Duration;

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
    let event = World::run_event(WorldConfig::new(RANKS).with_sched_seed(0), &program)
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

/// Every collective a step program can call, with payloads large enough
/// for the chunked algorithms (256 KiB) and small enough to keep the test
/// fast. Returns a checksum of everything the rank received.
struct CollectiveTour;

impl StepProgram<u64> for CollectiveTour {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<u64>> {
        Box::pin(async move {
            const BIG: usize = 32 * 1024;
            let (rank, size) = (sc.rank(), sc.size());
            sc.barrier().await?;
            let block: Vec<f64> = (0..BIG).map(|i| (i * (rank + 1)) as f64 * 0.5).collect();
            let root_block = (rank == 1).then_some(&block[..]);
            let seen = sc.bcast(root_block, 1).await?;
            let all: Vec<u64> = (0..2 * size as u64).collect();
            let mine = sc.scatter((rank == 0).then_some(&all[..]), 0).await?;
            let ragged: Vec<u64> = (0..rank as u64).collect();
            let gathered = sc.gatherv(&ragged, size - 1).await?;
            let everyone = sc.allgather(&mine).await?;
            let summed = sc.reduce(&block, Op::Sum, 0).await?;
            let total = sc.allreduce(&[rank as u64 + 1], Op::Sum).await?;
            let mut check = seen.iter().map(|x| x.to_bits()).fold(0, u64::wrapping_add);
            check = check.wrapping_add(everyone.iter().sum::<u64>());
            check = check.wrapping_add(total[0]);
            for v in gathered.into_iter().flatten() {
                check = check.wrapping_add(v.iter().sum::<u64>());
            }
            for x in summed.into_iter().flatten() {
                check = check.wrapping_add(x.to_bits());
            }
            Ok(check)
        })
    }
}

#[test]
fn tuned_collectives_are_thread_event_identical() {
    const RANKS: usize = 8;
    let table = TuningTable::forcing(&[
        (CollKind::Barrier, CollAlgo::Hierarchical),
        (CollKind::Bcast, CollAlgo::Chunked),
        (CollKind::Allgather, CollAlgo::Hierarchical),
        (CollKind::Reduce, CollAlgo::Chunked),
        (CollKind::Allreduce, CollAlgo::Hierarchical),
    ]);
    let cfg = || {
        WorldConfig::new(RANKS)
            .on_nodes(2)
            .with_tuning(table.clone())
    };
    let thread = World::run(cfg(), |comm| drive(comm, |sc| CollectiveTour.build(sc)))
        .expect("thread backend runs");
    let event = World::run_event(cfg().with_sched_seed(0), &CollectiveTour)
        .expect("event backend runs the tuned collectives");

    assert_eq!(thread.values, event.values);
    assert_eq!(thread.sim_time.to_bits(), event.sim_time.to_bits());
    assert_eq!(format!("{:?}", thread.stats), format!("{:?}", event.stats));
    let total = event.total_stats();
    // One call per rank for each forced collective.
    let ranks = RANKS as u64;
    assert_eq!(total.algo_volume(CollAlgo::Chunked).calls, 2 * ranks);
    assert_eq!(total.algo_volume(CollAlgo::Hierarchical).calls, 3 * ranks);
}

/// `TUNING_mpi.json` records every candidate's simulated time. Each one
/// at 8 ranks, and at the tiny 32-rank/4-node cells of both placement
/// layouts, re-measures bit for bit with `tune::measure`.
#[test]
fn checked_in_tuning_times_remeasure_bit_identically() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("TUNING_mpi.json");
    let table = TuningTable::load(&path).expect("checked-in TUNING_mpi.json loads");
    let mut measured = 0;
    for cell in &table.cells {
        let tiny_multi_node =
            cell.size_class == SizeClass::Tiny && (cell.ranks, cell.nodes) == (32, 4);
        if cell.ranks != 8 && !tiny_multi_node {
            continue;
        }
        for t in &cell.measured {
            let (kind, bytes, layout) = (cell.kind, cell.probe_bytes, cell.layout);
            let sim_us = measure(kind, bytes, cell.ranks, cell.nodes, layout, t.algo)
                .expect("measurement world runs");
            assert_eq!(
                sim_us.to_bits(),
                t.sim_us.to_bits(),
                "{} {:?} {}r/{}n {} via {:?}: measured {sim_us} us, table has {} us",
                kind.name(),
                cell.size_class,
                cell.ranks,
                cell.nodes,
                layout.name(),
                t.algo,
                t.sim_us
            );
            measured += 1;
        }
    }
    assert_eq!(measured, 52, "the table has the cells this test covers");
}

/// Module 7's tree-merge top-k as a step program.
struct TopK;

const TOPK: (usize, usize, u64) = (300, 12, 5);

impl StepProgram<Vec<f64>> for TopK {
    fn build<'c, 'w: 'c>(&'c self, sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<Vec<f64>>> {
        let (n_per_rank, k, seed) = TOPK;
        Box::pin(top_k_step(sc, n_per_rank, k, TopKStrategy::TreeMerge, seed))
    }
}

fn render_logs(logs: &[Vec<CheckEvent>]) -> String {
    logs.iter().map(|log| format!("{log:?}\n")).collect()
}

#[test]
fn module7_blocking_replay_matches_the_event_engine() {
    const RANKS: usize = 12;
    let seeded = |seed| {
        WorldConfig::virtual_ranks(RANKS, 4)
            .with_sched_seed(seed)
            .with_check(CheckMode::Record)
    };
    let (n_per_rank, k, seed) = TOPK;
    let (thread, thread_logs) = World::run_with_check(seeded(3), |comm| {
        top_k_rank(comm, n_per_rank, k, TopKStrategy::TreeMerge, seed)
    });
    let thread = thread.expect("blocking closure runs thread-per-rank");
    let (event, event_logs) = World::run_event_with_check(seeded(3), &TopK);
    let event = event.expect("event engine runs the same body");

    assert!(
        thread.sched_trace.is_empty(),
        "threads keep no resume trace"
    );
    assert_eq!(thread.values, event.values);
    assert_eq!(thread.sim_time.to_bits(), event.sim_time.to_bits());
    assert_eq!(format!("{:?}", thread.stats), format!("{:?}", event.stats));
    assert_eq!(render_logs(&thread_logs), render_logs(&event_logs));

    let again = World::run_event(seeded(3), &TopK).expect("replay");
    assert_eq!(
        again.sched_trace, event.sched_trace,
        "same seed, same trace"
    );
    for other in [0, 7, 2026] {
        let out = World::run_event(seeded(other), &TopK).expect("other seed");
        assert_eq!(out.values, event.values, "seed {other} changed the answer");
    }
}

/// Payload sizes around the inline limit of the payload type: empty, one
/// and two words, the limit itself, one byte past it, and a page.
const BOUNDARY_SIZES: [usize; 6] = [0, 8, 16, INLINE_CAPACITY, INLINE_CAPACITY + 1, 4096];

/// `n` bytes that identify the sender and the operation.
fn pattern(n: usize, salt: usize) -> Vec<u8> {
    (0..n).map(|j| (j * 31 + salt * 7 + 1) as u8).collect()
}

/// Every boundary size through a ring send/recv, `bcast`, `allgather`
/// and `alltoallv`, checking each payload on arrival. Returns a checksum
/// of everything received.
struct InlineBoundary;

impl StepProgram<u64> for InlineBoundary {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<u64>> {
        Box::pin(async move {
            let (rank, size) = (sc.rank(), sc.size());
            let (right, left) = ((rank + 1) % size, (rank + size - 1) % size);
            let mut check = 0u64;
            let mut absorb = |bytes: &[u8]| {
                for &b in bytes {
                    check = check.wrapping_mul(31).wrapping_add(u64::from(b));
                }
            };
            for (op, &n) in BOUNDARY_SIZES.iter().enumerate() {
                let tag = op as u32;
                sc.send(&pattern(n, rank), right, tag).await?;
                let (got, _) = sc.recv::<u8, _, _>(left, tag).await?;
                assert_eq!(got, pattern(n, left), "{n} bytes from rank {left}");
                absorb(&got);

                let root = op % size;
                let mine = pattern(n, size + root);
                let got = sc.bcast((rank == root).then_some(&mine[..]), root).await?;
                assert_eq!(got, mine, "{n}-byte bcast from {root}");
                absorb(&got);

                let got = sc.allgather(&pattern(n, rank)).await?;
                let want: Vec<u8> = (0..size).flat_map(|r| pattern(n, r)).collect();
                assert_eq!(got, want, "{n}-byte allgather blocks");
                absorb(&got);

                let parts = (0..size).map(|dst| pattern(n, rank * size + dst)).collect();
                let got = sc.alltoallv(parts).await?;
                for (src, block) in got.iter().enumerate() {
                    assert_eq!(
                        *block,
                        pattern(n, src * size + rank),
                        "{n}-byte block from {src}"
                    );
                    absorb(block);
                }
            }
            Ok(check)
        })
    }
}

#[test]
fn payloads_across_the_inline_limit_are_thread_event_identical() {
    const RANKS: usize = 5;
    let plain = || WorldConfig::new(RANKS).with_check(CheckMode::Record);
    // Duplicates re-send the same payload value, so both representations
    // take the clone path; the receivers filter the second copies.
    let duplicating = || plain().with_faults(FaultPlan::seeded(17).with_duplicate_rate(0.3));
    for (name, cfg) in [
        ("plain", &plain as &dyn Fn() -> WorldConfig),
        ("duplicating", &duplicating),
    ] {
        let (thread, thread_logs) =
            World::run_with_check(cfg(), |comm| drive(comm, |sc| InlineBoundary.build(sc)));
        let thread = thread.expect("thread backend runs");
        let (event, event_logs) =
            World::run_event_with_check(cfg().with_sched_seed(0), &InlineBoundary);
        let event = event.expect("event backend runs");

        assert_eq!(thread.values, event.values, "{name}: results");
        assert_eq!(
            thread.sim_time.to_bits(),
            event.sim_time.to_bits(),
            "{name}: sim clock"
        );
        assert_eq!(
            format!("{:?}", thread.stats),
            format!("{:?}", event.stats),
            "{name}: stats"
        );
        assert_eq!(
            render_logs(&thread_logs),
            render_logs(&event_logs),
            "{name}: logs"
        );
        let duplicates = event_logs
            .iter()
            .flatten()
            .filter(|e| {
                matches!(
                    e,
                    CheckEvent::FaultInjected {
                        kind: "duplicate",
                        ..
                    }
                )
            })
            .count();
        assert_eq!(
            duplicates > 0,
            name == "duplicating",
            "{name}: {duplicates} duplicates"
        );
    }
}

/// Rank 0 sends rank 1 a small and a large message that nobody
/// receives. Rank 1 never communicates, so on the event engine it has
/// finished before they arrive and they are still in its queue at
/// finalize.
struct Unreceived;

impl StepProgram<()> for Unreceived {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<()>> {
        Box::pin(async move {
            if sc.rank() == 0 {
                // BUG: nobody ever receives these.
                sc.send(&[9.0f64, 9.0], 1, 42).await?;
                sc.send(&pattern(4096, 0), 1, 43).await?;
            }
            Ok(())
        })
    }
}

#[test]
fn an_unreceived_message_is_reported_at_finalize_on_both_backends() {
    let cfg = || WorldConfig::new(3).with_check(CheckMode::Record);
    let (thread, thread_logs) =
        World::run_with_check(cfg(), |comm| drive(comm, |sc| Unreceived.build(sc)));
    let (event, event_logs) = World::run_event_with_check(cfg().with_sched_seed(0), &Unreceived);
    let thread_report = analyze(&thread, &thread_logs);
    let event_report = analyze(&event, &event_logs);
    thread.expect("the program itself completes on threads");
    event.expect("the program itself completes on the event engine");

    assert_eq!(render_logs(&thread_logs), render_logs(&event_logs));
    assert_eq!(thread_report.render(), event_report.render());
    let unmatched: Vec<_> = event_report
        .violations
        .iter()
        .filter(|f| f.kind == FindingKind::UnmatchedSend)
        .collect();
    assert_eq!(unmatched.len(), 2, "{}", event_report.render());
    assert!(unmatched.iter().all(|f| f.ranks == vec![0, 1]));
    assert!(
        unmatched[0].message.contains("16 bytes"),
        "{}",
        unmatched[0].message
    );
    assert!(
        unmatched[1].message.contains("4096 bytes"),
        "{}",
        unmatched[1].message
    );
}

/// Programs in which one kind of wait can never complete.
#[derive(Debug, Clone, Copy)]
enum StuckWait {
    /// Rank 0 receives from rank 1, which crashes after computing.
    RecvFromCrashed,
    /// Rank 0's rendezvous send waits for rank 1, which waits for another
    /// tag.
    UnreceivedRendezvous,
    /// Rank 0 probes for a message rank 1 never sends; rank 1 waits for
    /// rank 0.
    UnansweredProbe,
    /// Rank 2 crashes and ranks 0 and 1 agree on it. Rank 1 then agrees
    /// again, alone, while rank 0 waits for a message from it.
    AgreeAfterCrash,
    /// Rank 0's rendezvous send waits for rank 1, which returns without
    /// receiving it.
    RendezvousToFinished,
    /// Rank 1 posts a send to rank 0 and returns; rank 0 receives it and
    /// then makes a rendezvous send to the finished rank 1.
    RendezvousAfterFinish,
}

impl StuckWait {
    fn config(self) -> WorldConfig {
        let cfg = WorldConfig::new(2)
            .with_eager_threshold(0)
            .with_watchdog(Some(Duration::from_millis(20)));
        match self {
            StuckWait::RecvFromCrashed => cfg.with_faults(FaultPlan::seeded(1).crash_rank(1, 0.0)),
            StuckWait::AgreeAfterCrash => WorldConfig::new(3)
                .with_watchdog(Some(Duration::from_millis(20)))
                .with_faults(FaultPlan::seeded(1).crash_rank(2, 0.0)),
            _ => cfg,
        }
    }

    /// The blocked operations a deadlocked run reports, by rank.
    fn blocked(self) -> Vec<(usize, &'static str)> {
        match self {
            StuckWait::RecvFromCrashed => Vec::new(),
            StuckWait::UnreceivedRendezvous => vec![(0, "send(rendezvous)"), (1, "recv")],
            StuckWait::UnansweredProbe => vec![(0, "probe"), (1, "recv")],
            StuckWait::AgreeAfterCrash => vec![(0, "recv"), (1, "agree")],
            StuckWait::RendezvousToFinished | StuckWait::RendezvousAfterFinish => Vec::new(),
        }
    }
}

impl StepProgram<()> for StuckWait {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<()>> {
        let this = *self;
        Box::pin(async move {
            let rank = sc.rank();
            match (this, rank) {
                (StuckWait::RecvFromCrashed, 0) => {
                    sc.recv::<u8, _, _>(1, 0).await?;
                }
                (StuckWait::RecvFromCrashed, _) => {
                    sc.charge_flops(1e6);
                    sc.send(&[1u8], 0, 0).await?;
                }
                (StuckWait::UnreceivedRendezvous, 0) => {
                    sc.send(&[0u8; 64], 1, 9).await?;
                }
                (StuckWait::UnansweredProbe, 0) => {
                    sc.probe(1, 2).await?;
                }
                (StuckWait::UnreceivedRendezvous | StuckWait::UnansweredProbe, _) => {
                    sc.recv::<u8, _, _>(0, 8).await?;
                }
                (StuckWait::AgreeAfterCrash, 2) => match sc.recv::<u8, _, _>(0, 1).await {
                    // The casualty: model process death.
                    Err(Error::RankFailed { rank: 2, .. }) => {}
                    other => panic!("rank 2 must crash, got {other:?}"),
                },
                (StuckWait::RendezvousToFinished, 0) => {
                    sc.send(&[0u8; 64], 1, 9).await?;
                }
                (StuckWait::RendezvousAfterFinish, 0) => {
                    sc.recv::<u8, _, _>(1, 3).await?;
                    sc.send(&[0u8; 64], 1, 9).await?;
                }
                (StuckWait::RendezvousAfterFinish, _) => {
                    // Not waited on, so rank 1 is done before rank 0 sends.
                    let _unwaited = sc.isend(&[1u8], 0, 3)?;
                }
                (StuckWait::RendezvousToFinished, _) => {}
                (StuckWait::AgreeAfterCrash, _) => {
                    assert_eq!(sc.agree().await?, vec![(2, 0.0)]);
                    if rank == 0 {
                        sc.recv::<u8, _, _>(1, 5).await?;
                    } else {
                        sc.agree().await?;
                    }
                }
            }
            Ok(())
        })
    }
}

#[test]
fn every_wait_aborts_alike_on_thread_and_event() {
    for stuck in [
        StuckWait::RecvFromCrashed,
        StuckWait::UnreceivedRendezvous,
        StuckWait::UnansweredProbe,
        StuckWait::AgreeAfterCrash,
        StuckWait::RendezvousToFinished,
        StuckWait::RendezvousAfterFinish,
    ] {
        let thread = World::run(stuck.config(), |comm| drive(comm, |sc| stuck.build(sc)))
            .expect_err("the wait cannot complete on threads");
        let event = World::run_event(stuck.config(), &stuck)
            .expect_err("the wait cannot complete on the event engine");
        assert_eq!(thread, event, "{stuck:?}: thread vs event");
        match event {
            Error::RankFailed { rank, at } => {
                assert!(
                    stuck.blocked().is_empty(),
                    "{stuck:?} failed instead: {event:?}"
                );
                assert_eq!(rank, 1, "{stuck:?}");
                assert!(at > 0.0, "{stuck:?}: the crash comes after computing");
            }
            Error::Deadlock(info) => {
                let blocked: Vec<_> = info.blocked.iter().map(|op| (op.rank, op.op)).collect();
                assert_eq!(blocked, stuck.blocked(), "{stuck:?}");
            }
            // The receiver is gone: it refused the envelope, or the sender
            // saw it finished.
            Error::WorldShutDown => assert!(
                matches!(
                    stuck,
                    StuckWait::RendezvousToFinished | StuckWait::RendezvousAfterFinish
                ),
                "{stuck:?} shut down instead"
            ),
            other => panic!("{stuck:?}: unexpected {other:?}"),
        }
    }
}

/// Rank 1 sends rank 0 one message and returns. Rank 0 receives it, waits
/// for rank 1's thread to exit, and sends rank 1 a small message that
/// nobody will receive.
struct EagerToFinished;

impl StepProgram<()> for EagerToFinished {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<()>> {
        Box::pin(async move {
            if sc.rank() == 0 {
                sc.recv::<u8, _, _>(1, 0).await?;
                // On the event engine rank 1 finished before this resume.
                std::thread::sleep(Duration::from_millis(50));
                sc.send(&[7u8; 4], 1, 1).await?;
            } else {
                sc.send(&[1u8], 0, 0).await?;
            }
            Ok(())
        })
    }
}

#[test]
fn an_eager_send_to_a_finished_rank_succeeds_on_thread_and_event() {
    World::run(WorldConfig::new(2), |comm| {
        drive(comm, |sc| EagerToFinished.build(sc))
    })
    .expect("fire-and-forget on threads");
    World::run_event(WorldConfig::new(2), &EagerToFinished)
        .expect("fire-and-forget on the event engine");
}
