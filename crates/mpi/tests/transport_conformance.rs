//! Cross-backend transport conformance suite.
//!
//! The same rank programs run on both [`Transport`] backends — thread
//! (default) and proc (real OS processes over Unix-domain sockets) — and
//! every observable output must agree:
//! returned values are byte-identical, per-rank checker logs are equal
//! event-for-event, and the ULFM fault path (`agree`/`shrink`) recovers
//! identically.
//!
//! # Why `harness = false`
//!
//! `World::run_proc` re-executes this binary once per rank (SPMD, like
//! `mpirun`). Every process must therefore reach the k-th `run_proc`
//! call in the same deterministic program order — libtest's parallel
//! test threads would break the lockstep pairing. The scenarios run
//! sequentially from `main`, all proc worlds use the same size, and the
//! fault scenario runs LAST so its recovery traffic can never bleed
//! into the byte-identity comparisons.
//!
//! [`Transport`]: pdc_mpi::Transport

use pdc_mpi::{is_proc_child, CheckMode, Comm, Error, FaultPlan, Op, Result, World, WorldConfig};

/// Every world in this binary — thread and proc alike — uses
/// this size: `run_proc` asserts a uniform size across the binary.
const SIZE: usize = 4;

fn base_cfg() -> WorldConfig {
    WorldConfig::new(SIZE)
}

/// Run `f` on both backends and assert the per-rank values agree
/// exactly. Returns the (shared) values for scenario-specific checks.
fn assert_backends_agree<T, F>(label: &str, cfg: impl Fn() -> WorldConfig, f: F) -> Vec<T>
where
    T: serde::Serialize + serde::Deserialize + Send + Clone + PartialEq + std::fmt::Debug,
    F: Fn(&mut Comm) -> Result<T> + Send + Sync,
{
    let thread = World::run(cfg(), &f)
        .unwrap_or_else(|e| panic!("{label}: thread backend failed: {e}"))
        .values;
    let proc = World::run_proc(cfg(), &f)
        .unwrap_or_else(|e| panic!("{label}: proc backend failed: {e}"))
        .values;
    assert_eq!(thread, proc, "{label}: thread vs proc values diverge");
    status(&format!("{label}: ok"));
    thread
}

/// Parent-only progress line (children share stderr; keep it quiet).
fn status(msg: &str) {
    if !is_proc_child() {
        eprintln!("[conformance] {msg}");
    }
}

/// Rendezvous point-to-point: eager threshold 0 forces the synchronous
/// protocol, so on the proc backend every payload crosses a socket and
/// completion requires a remote `Ack` frame. Pairs (0↔1, 2↔3) exchange
/// distinct f64 buffers; evens send first, odds receive first, so the
/// rendezvous handshake is exercised in both directions.
fn rendezvous_pairs(comm: &mut Comm) -> Result<Vec<f64>> {
    let rank = comm.rank();
    let partner = rank ^ 1;
    let mine: Vec<f64> = (0..32).map(|i| (rank * 32 + i) as f64 * 0.125).collect();
    let got = if rank % 2 == 0 {
        comm.ssend(&mine, partner, 3)?;
        comm.recv::<f64>(partner, 3)?.0
    } else {
        let got = comm.recv::<f64>(partner, 3)?.0;
        comm.ssend(&mine, partner, 3)?;
        got
    };
    assert_eq!(got.len(), 32);
    Ok(got)
}

/// Eager ring: small u64 payloads stay under the default eager
/// threshold, so the proc backend ships them as fire-and-forget `Env`
/// frames with no ack round-trip. Each rank forwards a running checksum
/// around the ring; the result folds in every hop, so a single corrupt
/// or reordered frame changes every downstream value.
fn eager_ring(comm: &mut Comm) -> Result<u64> {
    let (rank, size) = (comm.rank(), comm.size());
    let right = (rank + 1) % size;
    let left = (rank + size - 1) % size;
    let mut acc = rank as u64 + 1;
    for hop in 0..size {
        comm.send(&[acc], right, hop as u32)?;
        let (got, st) = comm.recv::<u64>(left, hop as u32)?;
        assert_eq!(st.source, left);
        acc = acc.wrapping_mul(31).wrapping_add(got[0]);
    }
    Ok(acc)
}

/// Collective mix: barrier, allreduce, bcast, gather, alltoall — the
/// primitives the teaching modules lean on — in one program, so frame
/// interleaving between internal collective rounds is exercised too.
#[allow(clippy::type_complexity)]
fn collective_mix(comm: &mut Comm) -> Result<(u64, Vec<f64>, Vec<i64>, Option<Vec<u64>>)> {
    let (rank, size) = (comm.rank(), comm.size());
    comm.barrier()?;
    let sum = comm.allreduce(&[rank as u64 + 1], Op::Sum)?[0];
    let root_data: Option<Vec<f64>> = (rank == 0).then(|| (0..8).map(|i| i as f64 / 4.0).collect());
    let bc = comm.bcast(root_data.as_deref(), 0)?;
    let scattered: Vec<i64> = (0..size).map(|i| (rank * 10 + i) as i64).collect();
    let transposed = comm.alltoall(&scattered)?;
    let gathered = comm.gather(&[sum * (rank as u64 + 1)], 0)?;
    Ok((sum, bc, transposed, gathered))
}

/// Checker conformance: the same program under `CheckMode::Record` must
/// produce event-for-event identical per-rank logs on every backend
/// (CheckEvent carries no wall-clock state, so full equality is exact).
fn checker_scenario() {
    let f = |comm: &mut Comm| -> Result<u64> {
        let (rank, size) = (comm.rank(), comm.size());
        let right = (rank + 1) % size;
        let left = (rank + size - 1) % size;
        comm.send(&[rank as u64; 4], right, 11)?;
        let (got, _) = comm.recv::<u64>(left, 11)?;
        let total = comm.allreduce(&[got[0]], Op::Sum)?;
        Ok(total[0])
    };
    let cfg = || base_cfg().with_check(CheckMode::Record);
    let (thread_res, thread_logs) = World::run_with_check(cfg(), f);
    let (proc_res, proc_logs) = World::run_proc_with_check(cfg(), f);
    let expect: Vec<u64> = vec![6; SIZE];
    assert_eq!(thread_res.expect("checker: thread").values, expect);
    assert_eq!(proc_res.expect("checker: proc").values, expect);
    for rank in 0..SIZE {
        assert!(
            !thread_logs[rank].is_empty(),
            "checker: rank {rank} recorded no events on thread backend"
        );
        assert_eq!(
            thread_logs[rank], proc_logs[rank],
            "checker: rank {rank} logs diverge between thread and proc"
        );
    }
    status("checker logs: ok");
}

/// ULFM fault conformance (LAST — see module docs): rank 2 crashes at
/// t=0; survivors observe a typed `RankFailed`, agree on the casualty
/// set, shrink to a 3-rank sub-communicator, and redo the reduction.
/// On the proc backend the crash is propagated by a `Failed` frame, not
/// by killing the OS process (the fault layer is simulation-level), and
/// recovery must land on the same values as the in-process backends.
fn fault_scenario() {
    let f = |comm: &mut Comm| -> Result<u64> {
        let mine = [comm.rank() as u64];
        match comm.allreduce(&mine, Op::Sum) {
            Ok(v) => Ok(v[0]),
            Err(Error::RankFailed { rank, .. }) if rank == comm.rank() => {
                // This rank is the casualty; its "return value" models
                // process death.
                Ok(u64::MAX)
            }
            Err(Error::RankFailed { rank, .. }) => {
                let failed = comm.agree()?;
                assert!(
                    failed.iter().any(|&(r, _)| r == rank),
                    "agree must report the dead rank"
                );
                let mut sc = comm.shrink()?;
                assert_eq!(sc.size(), SIZE - 1);
                Ok(comm.sub_allreduce(&mut sc, &mine, Op::Sum)?[0])
            }
            Err(e) => Err(e),
        }
    };
    let cfg = || base_cfg().with_faults(FaultPlan::seeded(9).crash_rank(2, 0.0));
    let values = assert_backends_agree("fault agree/shrink", cfg, f);
    for rank in [0, 1, 3] {
        assert_eq!(values[rank], 4, "sum over survivors 0,1,3");
    }
    assert_eq!(values[2], u64::MAX, "casualty sentinel");
}

fn main() {
    let rendezvous = assert_backends_agree("rendezvous p2p", base_cfg, rendezvous_pairs);
    for (rank, got) in rendezvous.iter().enumerate() {
        let partner = rank ^ 1;
        let expect: Vec<f64> = (0..32).map(|i| (partner * 32 + i) as f64 * 0.125).collect();
        assert_eq!(*got, expect, "rank {rank} payload");
    }
    // Same program, eager threshold 0: every send goes rendezvous, so on
    // the proc backend completion waits on a remote Ack frame.
    assert_backends_agree(
        "rendezvous p2p (forced, eager=0)",
        || base_cfg().with_eager_threshold(0),
        rendezvous_pairs,
    );
    assert_backends_agree("eager ring", base_cfg, eager_ring);
    assert_backends_agree("collective mix", base_cfg, collective_mix);
    checker_scenario();
    fault_scenario();
    if !is_proc_child() {
        println!("transport conformance: thread and proc backends agree");
    }
}
