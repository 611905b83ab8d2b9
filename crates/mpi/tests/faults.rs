//! Fault injection and fault tolerance: deterministic fault plans, the
//! ack/retry path for dropped messages, ULFM-style typed failure
//! reporting, and agree/shrink recovery.

use pdc_mpi::{
    Comm, Error, FaultPlan, Loc, Op, Result, RetryPolicy, SourceSel, World, WorldConfig,
};

/// A small program mixing point-to-point and collective traffic whose
/// per-rank result is independent of delivery timing: a ring exchange
/// (named sources), an allreduce, and a broadcast.
fn exchange_program(comm: &mut Comm) -> Result<Vec<u64>> {
    let p = comm.size();
    let me = comm.rank() as u64;
    let right = (comm.rank() + 1) % p;
    let left = (comm.rank() + p - 1) % p;
    let req = comm.isend(&[me * 10 + 1], right, 3)?;
    let (from_left, _) = comm.recv::<u64>(SourceSel::Rank(left), 3)?;
    comm.wait_all_sends(vec![req])?;
    let sum = comm.allreduce(&[me], Op::Sum)?[0];
    let seed: Option<Vec<u64>> = (comm.rank() == 0).then(|| vec![42]);
    let announced = comm.bcast(seed.as_deref(), 0)?[0];
    Ok(vec![from_left[0], sum, announced])
}

fn fault_free() -> Vec<Vec<u64>> {
    World::run(WorldConfig::new(4), exchange_program)
        .expect("fault-free run")
        .values
}

#[test]
fn drops_with_retry_match_fault_free_results() {
    let plan = FaultPlan::seeded(7)
        .with_drop_rate(0.3)
        .with_retry(RetryPolicy::default());
    let out = World::run(WorldConfig::new(4).with_faults(plan), exchange_program)
        .expect("lossy run with retry");
    assert_eq!(out.values, fault_free(), "retry must hide the drops");
}

#[test]
fn duplicates_and_delays_do_not_change_results() {
    let plan = FaultPlan::seeded(21)
        .with_duplicate_rate(0.5)
        .with_delay(0.5, 1e-4);
    let out = World::run(WorldConfig::new(4).with_faults(plan), exchange_program)
        .expect("duplicated+delayed run");
    assert_eq!(out.values, fault_free(), "dedup + reordering tolerance");
}

#[test]
fn a_seeded_plan_replays_bit_identically() {
    let plan = FaultPlan::seeded(99)
        .with_drop_rate(0.25)
        .with_duplicate_rate(0.25)
        .with_delay(0.25, 5e-5)
        .with_retry(RetryPolicy::default());
    let run = || {
        World::run(
            WorldConfig::new(4).with_faults(plan.clone()),
            exchange_program,
        )
        .expect("seeded faulty run")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.values, b.values);
    assert_eq!(
        a.sim_time.to_bits(),
        b.sim_time.to_bits(),
        "the injected schedule (and hence the clock) must replay exactly"
    );
    assert_eq!(a.total_bytes_sent(), b.total_bytes_sent());
}

#[test]
fn a_crash_surfaces_as_rank_failed_not_deadlock() {
    // Rank 1 dies at time zero; everyone else is stuck in the allreduce
    // it never joins. ULFM-style, that is a typed failure — not a hang,
    // and not a deadlock report.
    let cfg = WorldConfig::new(4).with_faults(FaultPlan::seeded(3).crash_rank(1, 0.0));
    let err = World::run(cfg, |comm| comm.allreduce(&[comm.rank() as u64], Op::Sum))
        .expect_err("the world lost a rank");
    match err {
        Error::RankFailed { rank, at } => {
            assert_eq!(rank, 1);
            assert_eq!(at, 0.0);
        }
        other => panic!("expected RankFailed, got: {other}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains("rank 1 failed at simulated time"),
        "pinned error text: {msg}"
    );
    assert!(!msg.contains("deadlock"), "must not claim deadlock: {msg}");
}

#[test]
fn exhausted_retries_surface_as_message_lost() {
    // Every attempt drops; nobody receives, so both ranks only send and
    // the retry path is exercised symmetrically.
    let plan = FaultPlan::seeded(13)
        .with_drop_rate(1.0)
        .with_retry(RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        });
    let err = World::run(WorldConfig::new(2).with_faults(plan), |comm| {
        let peer = 1 - comm.rank();
        comm.send(&[comm.rank() as u64], peer, 0)
    })
    .expect_err("all transmissions drop");
    match err {
        Error::MessageLost { attempts, .. } => assert_eq!(attempts, 3),
        other => panic!("expected MessageLost, got: {other}"),
    }
    assert!(
        err.to_string().contains("3 transmission attempt(s)"),
        "{err}"
    );
}

#[test]
fn survivors_agree_shrink_and_continue() {
    let cfg = WorldConfig::new(4).with_faults(FaultPlan::seeded(9).crash_rank(2, 0.0));
    let out = World::run(cfg, |comm| {
        let mine = [comm.rank() as u64];
        match comm.allreduce(&mine, Op::Sum) {
            Ok(v) => Ok(v[0]),
            Err(Error::RankFailed { rank, .. }) if rank == comm.rank() => {
                // This rank is the casualty; its "return value" models
                // process death.
                Ok(u64::MAX)
            }
            Err(Error::RankFailed { rank, .. }) => {
                // ULFM recovery: acknowledge the failure, shrink to the
                // survivors, and redo the collective among them.
                let failed = comm.agree()?;
                assert!(
                    failed.iter().any(|&(r, _)| r == rank),
                    "agree must report the dead rank"
                );
                let mut sc = comm.shrink()?;
                assert_eq!(sc.size(), 3);
                Ok(comm.sub_allreduce(&mut sc, &mine, Op::Sum)?[0])
            }
            Err(e) => Err(e),
        }
    })
    .expect("survivors recover");
    for rank in [0, 1, 3] {
        assert_eq!(out.values[rank], 4, "sum over survivors 0,1,3");
    }
    assert_eq!(out.values[2], u64::MAX);
}

#[test]
fn failed_ranks_are_queryable_after_agreement() {
    let cfg = WorldConfig::new(3).with_faults(FaultPlan::seeded(4).crash_rank(0, 0.0));
    let out = World::run(cfg, |comm| {
        if comm.rank() == 0 {
            return match comm.barrier() {
                Err(Error::RankFailed { rank: 0, .. }) => Ok(0),
                other => panic!("rank 0 must observe its own crash, got {other:?}"),
            };
        }
        match comm.barrier() {
            Err(Error::RankFailed { .. }) => {}
            other => panic!("survivors must see the failure, got {other:?}"),
        }
        comm.agree()?;
        let failed = comm.failed_ranks();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, 0);
        Ok(failed.len())
    })
    .expect("queryable failure state");
    assert_eq!(out.values[1], 1);
}

#[test]
fn invalid_op_on_loc_is_a_typed_error_not_a_stranded_world() {
    // MINLOC/MAXLOC pairs only reduce under Min/Max; Sum used to panic
    // inside the rank thread and strand the peers until they deadlocked.
    let err = World::run(WorldConfig::new(3), |comm| {
        let mine = [Loc::new(comm.rank() as f64, comm.rank() as u64)];
        comm.allreduce(&mine, Op::Sum)
    })
    .expect_err("Sum on Loc is invalid");
    match err {
        Error::InvalidOp { op, type_name } => {
            assert_eq!(type_name, "Loc");
            assert_eq!(format!("{op:?}"), "Sum");
        }
        other => panic!("expected InvalidOp, got: {other}"),
    }
    // The valid pairings still work.
    let out = World::run(WorldConfig::new(3), |comm| {
        let mine = [Loc::new(-(comm.rank() as f64), comm.rank() as u64)];
        comm.allreduce(&mine, Op::Min)
    })
    .expect("MINLOC works");
    assert_eq!(out.values[0][0].index, 2, "rank 2 holds the minimum");
}

#[test]
fn a_drops_only_plan_without_retry_strands_the_receiver_with_a_deadlock_report() {
    // Without a retry policy a dropped message simply never arrives; the
    // receiver blocks and the deadlock must still be explained.
    let plan = FaultPlan::seeded(2).with_drop_rate(1.0);
    let cfg = WorldConfig::new(2).with_faults(plan);
    let err = World::run(cfg, |comm| {
        if comm.rank() == 0 {
            comm.send(&[1u64], 1, 0)?;
            Ok(0)
        } else {
            Ok(comm.recv::<u64>(0, 0)?.0[0])
        }
    })
    .expect_err("the payload vanished");
    assert!(
        matches!(err, Error::Deadlock(_)),
        "an unprotected drop is a hang, not a typed failure: {err}"
    );
}
