//! External cancellation ([`CancelToken`]): the mechanism behind job
//! deadlines and preemption in the pdc-lab server. A cancelled world's
//! blocked primitives return a typed [`Error::Cancelled`] — never a hang,
//! and never a misreported deadlock.

use pdc_mpi::{CancelToken, Error, Op, Result, StepComm, StepFuture, StepProgram, WorldConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A program where rank 0 blocks forever on a message nobody sends
/// (everyone else waits in the final barrier-like allreduce path by
/// receiving too). Used to park the world so cancel must wake it.
fn block_forever(comm: &mut pdc_mpi::Comm) -> Result<u64> {
    let (data, _status) = comm.recv::<u64>(pdc_mpi::SourceSel::Any, pdc_mpi::TagSel::Any)?;
    Ok(data.iter().sum())
}

#[test]
fn cancel_unblocks_a_thread_world() {
    let token = CancelToken::new();
    let t2 = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        t2.cancel("deadline exceeded");
    });
    // Disable the watchdog so only the cancel can unblock the world.
    let cfg = WorldConfig::new(2)
        .with_watchdog(None)
        .with_cancel(token.clone());
    let out = pdc_mpi::World::run(cfg, block_forever);
    canceller.join().expect("canceller thread");
    match out {
        Err(Error::Cancelled(reason)) => assert!(reason.contains("deadline"), "{reason}"),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(token.is_cancelled());
}

/// A ring that passes tokens around forever: it never deadlocks and
/// never finishes, so only a cancel can stop it.
struct EndlessRing;

impl StepProgram<u64> for EndlessRing {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<u64>> {
        Box::pin(async move {
            let right = (sc.rank() + 1) % sc.size();
            let left = (sc.rank() + sc.size() - 1) % sc.size();
            loop {
                sc.send(&[sc.rank() as u64], right, 0).await?;
                sc.recv::<u64, _, _>(left, 0).await?;
            }
        })
    }
}

#[test]
fn cancel_stops_a_running_event_world() {
    let token = CancelToken::new();
    let t2 = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        t2.cancel("preempted by a higher-priority job");
    });
    // 8 ranks on the event engine, busy in an endless exchange: the
    // engine must observe the cancel from another thread and return a
    // typed error promptly.
    let cfg = WorldConfig::virtual_ranks(8, 2).with_cancel(token);
    let out = pdc_mpi::World::run_event(cfg, &EndlessRing);
    canceller.join().expect("canceller thread");
    match out {
        Err(Error::Cancelled(reason)) => {
            assert!(reason.contains("preempted"), "{reason}")
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn pre_cancelled_token_fails_the_first_blocking_call() {
    let token = CancelToken::new();
    token.cancel("never admitted");
    let cfg = WorldConfig::new(2).with_watchdog(None).with_cancel(token);
    let out = pdc_mpi::World::run(cfg, block_forever);
    match out {
        Err(Error::Cancelled(reason)) => assert_eq!(reason, "never admitted"),
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn completed_worlds_ignore_a_late_cancel() {
    let token = CancelToken::new();
    let cfg = WorldConfig::new(4).with_cancel(token.clone());
    let out = pdc_mpi::World::run(cfg, |comm| {
        let mine = [comm.rank() as u64];
        comm.allreduce(&mine, pdc_mpi::Op::Sum)
    })
    .expect("world completes before any cancel");
    assert_eq!(out.values[0][0], 6);
    token.cancel("too late");
    assert!(token.is_cancelled());
}

/// Every rank contributes `rank + 1` to one allreduce, counting builds.
struct CountedSum;

static BUILDS: AtomicUsize = AtomicUsize::new(0);

impl StepProgram<u64> for CountedSum {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<u64>> {
        BUILDS.fetch_add(1, Ordering::Relaxed);
        Box::pin(async move {
            let mine = [sc.rank() as u64 + 1];
            Ok(sc.allreduce(&mine, Op::Sum).await?[0])
        })
    }
}

#[test]
fn one_token_cancels_and_restart_succeeds() {
    // Preemption contract: a cancelled seeded job restarted from scratch
    // (fresh token) produces the full deterministic result.
    let token = CancelToken::new();
    token.cancel("preempted before start");
    let cfg = WorldConfig::virtual_ranks(4, 2).with_cancel(token);
    let cancelled = pdc_mpi::World::run_event(cfg, &CountedSum);
    assert!(
        matches!(cancelled, Err(Error::Cancelled(_))),
        "{cancelled:?}"
    );
    let retried = pdc_mpi::World::run_event(WorldConfig::virtual_ranks(4, 2), &CountedSum)
        .expect("restart from scratch succeeds");
    assert_eq!(retried.values, vec![10, 10, 10, 10]);
    assert!(
        BUILDS.load(Ordering::Relaxed) >= 8,
        "both launches built every rank"
    );
}
