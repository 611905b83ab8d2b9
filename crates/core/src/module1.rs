//! Module 1: MPI communication.
//!
//! Three activities (paper §III-B):
//!
//! 1. **Ping-pong** — two ranks bounce a message and measure round trips.
//! 2. **Ring** — every rank passes a token to its right neighbour. The
//!    naive blocking version deadlocks under the rendezvous protocol;
//!    the module contrasts three fixes (parity-shifted ordering,
//!    nonblocking sends, `sendrecv`).
//! 3. **Random communication** — each rank sends to a random set of peers;
//!    first *without* `MPI_ANY_SOURCE` (a counts-exchange protocol makes
//!    every receive exact) and then *with* it. Students compare
//!    programmability and the runtime's message statistics.
//!
//! Learning outcomes 1–3 and 11 of Table I.

use pdc_mpi::{drive, Comm, Op, Result, SourceSel, StepComm, World, WorldConfig};
use pdc_mpi::{ANY_SOURCE, ANY_TAG};
use serde::{Deserialize, Serialize};

/// Result of the ping-pong activity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PingPongReport {
    /// Round trips performed.
    pub rounds: usize,
    /// Message payload size, bytes.
    pub bytes: usize,
    /// Simulated seconds per round trip.
    pub sim_latency_per_round: f64,
}

/// Activity 1: `rounds` round trips of a `bytes`-sized message between
/// ranks 0 and 1 of a 2-rank world.
pub fn ping_pong(rounds: usize, bytes: usize) -> Result<PingPongReport> {
    let out = World::run_simple(2, move |comm| {
        let payload = vec![0u8; bytes];
        for r in 0..rounds {
            let tag = r as u32;
            if comm.rank() == 0 {
                comm.send(&payload, 1, tag)?;
                let _ = comm.recv::<u8>(1, tag)?;
            } else {
                let (ball, _) = comm.recv::<u8>(0, tag)?;
                comm.send(&ball, 0, tag)?;
            }
        }
        Ok(comm.sim_time())
    })?;
    Ok(PingPongReport {
        rounds,
        bytes,
        sim_latency_per_round: out.sim_time / rounds as f64,
    })
}

/// How the ring exchange orders its operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RingVariant {
    /// Everyone sends, then receives. Deadlocks when sends are synchronous.
    NaiveBlocking,
    /// Even ranks send first, odd ranks receive first: breaks the cycle.
    ParityShifted,
    /// `isend` + `recv` + `wait`: the nonblocking fix.
    Nonblocking,
    /// A single `sendrecv` call: the combined-primitive fix.
    SendRecv,
}

/// Activity 2: pass each rank's id one hop around the ring; every rank
/// returns the id it received from its left neighbour. `eager_threshold`
/// selects the protocol (0 forces rendezvous; `usize::MAX` is eager).
pub fn ring(size: usize, variant: RingVariant, eager_threshold: usize) -> Result<Vec<u64>> {
    let cfg = WorldConfig::new(size).with_eager_threshold(eager_threshold);
    let out = World::run(cfg, move |comm| ring_step(comm, variant))?;
    Ok(out.values)
}

/// [`ring_step`] in resumable (step) form: the one copy of the exchange.
pub async fn ring_exchange_step(mut sc: StepComm<'_, '_>, variant: RingVariant) -> Result<u64> {
    let p = sc.size();
    let right = (sc.rank() + 1) % p;
    let left = (sc.rank() + p - 1) % p;
    let token = [sc.rank() as u64];
    match variant {
        RingVariant::NaiveBlocking => {
            sc.send(&token, right, 0).await?;
            let (v, _) = sc.recv::<u64, _, _>(left, 0).await?;
            Ok(v[0])
        }
        RingVariant::ParityShifted => {
            if sc.rank().is_multiple_of(2) {
                sc.send(&token, right, 0).await?;
                let (v, _) = sc.recv::<u64, _, _>(left, 0).await?;
                Ok(v[0])
            } else {
                let (v, _) = sc.recv::<u64, _, _>(left, 0).await?;
                sc.send(&token, right, 0).await?;
                Ok(v[0])
            }
        }
        RingVariant::Nonblocking => {
            let req = sc.isend(&token, right, 0)?;
            let (v, _) = sc.recv::<u64, _, _>(left, 0).await?;
            sc.wait_send(req).await?;
            Ok(v[0])
        }
        RingVariant::SendRecv => {
            let (v, _) = sc
                .sendrecv::<u64, u64, _, _>(&token, right, 0, left, 0)
                .await?;
            Ok(v[0])
        }
    }
}

/// One ring exchange on an existing communicator (exposed so the audit and
/// the examples can reuse it).
pub fn ring_step(comm: &mut Comm, variant: RingVariant) -> Result<u64> {
    drive(comm, |sc| Box::pin(ring_exchange_step(sc, variant)))
}

/// Report of one random-communication run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomCommReport {
    /// Total user messages exchanged.
    pub messages: u64,
    /// Sum over ranks of values received (validates delivery).
    pub checksum: u64,
    /// Whether the implementation used the `ANY_SOURCE` wildcard.
    pub used_any_source: bool,
}

/// Deterministic pseudo-random destination list for `rank`: `fanout` peers.
fn destinations(rank: usize, size: usize, fanout: usize, seed: u64) -> Vec<usize> {
    (0..fanout)
        .map(|i| {
            let x = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(((rank * fanout + i) as u64).wrapping_mul(1442695040888963407));
            (x >> 33) as usize % size
        })
        .filter(|&d| d != rank)
        .collect()
}

/// Activity 3, hard version: random communication **without**
/// `ANY_SOURCE`. Protocol: an `alltoall` of per-destination counts tells
/// every rank exactly how many messages to expect from each peer, so all
/// receives name their source.
pub fn random_comm_without_any_source(
    size: usize,
    fanout: usize,
    seed: u64,
) -> Result<RandomCommReport> {
    let out = World::run_simple(size, move |comm| {
        random_comm_rank(comm, fanout, seed, false)
    })?;
    let messages: u64 = (0..size)
        .map(|r| destinations(r, size, fanout, seed).len() as u64)
        .sum();
    Ok(RandomCommReport {
        messages,
        checksum: out.values.iter().sum(),
        used_any_source: false,
    })
}

/// Activity 3, easy version: the same exchange **with** `ANY_SOURCE` — one
/// allreduce for the total incoming count, then wildcard receives.
pub fn random_comm_with_any_source(
    size: usize,
    fanout: usize,
    seed: u64,
) -> Result<RandomCommReport> {
    let out = World::run_simple(size, move |comm| random_comm_rank(comm, fanout, seed, true))?;
    let messages: u64 = (0..size)
        .map(|r| destinations(r, size, fanout, seed).len() as u64)
        .sum();
    Ok(RandomCommReport {
        messages,
        checksum: out.values.iter().sum(),
        used_any_source: true,
    })
}

/// One rank's share of the random-communication exercise: deterministic
/// pseudo-random destinations, nonblocking sends, and either exact
/// named-source receives (`use_any_source = false`, via an `alltoall` of
/// counts) or wildcard receives (`use_any_source = true`, via an
/// allreduce of the incoming totals). Returns the sum of received values.
pub fn random_comm_rank(
    comm: &mut Comm,
    fanout: usize,
    seed: u64,
    use_any_source: bool,
) -> Result<u64> {
    drive(comm, |sc| {
        Box::pin(random_comm_step(sc, fanout, seed, use_any_source))
    })
}

/// [`random_comm_rank`] in resumable (step) form: the single source of
/// truth for the exercise's communication pattern.
pub async fn random_comm_step(
    mut sc: StepComm<'_, '_>,
    fanout: usize,
    seed: u64,
    use_any_source: bool,
) -> Result<u64> {
    let dests = destinations(sc.rank(), sc.size(), fanout, seed);
    // Counts exchange: counts[d] = messages I will send to rank d.
    let mut counts = vec![0u64; sc.size()];
    for &d in &dests {
        counts[d] += 1;
    }
    if use_any_source {
        // Elementwise allreduce: slot r of the result is the number of
        // messages arriving at rank r.
        sc.phase_begin("counts");
        let incoming_total = sc.allreduce(&counts, Op::Sum).await?[sc.rank()];
        sc.phase_end();
        sc.phase_begin("exchange");
        let mut reqs = Vec::with_capacity(dests.len());
        for &d in &dests {
            reqs.push(sc.isend(&[sc.rank() as u64 + 1], d, 7)?);
        }
        let mut sum = 0u64;
        for _ in 0..incoming_total {
            let (v, _) = sc.recv::<u64, _, _>(ANY_SOURCE, ANY_TAG).await?;
            sum += v[0];
        }
        sc.wait_all_sends(reqs).await?;
        sc.phase_end();
        Ok(sum)
    } else {
        sc.phase_begin("counts");
        let incoming = sc.alltoall(&counts).await?;
        sc.phase_end();
        // Send phase (nonblocking so nobody stalls), then exact receives.
        sc.phase_begin("exchange");
        let mut reqs = Vec::with_capacity(dests.len());
        for &d in &dests {
            reqs.push(sc.isend(&[sc.rank() as u64 + 1], d, 7)?);
        }
        let mut sum = 0u64;
        for (src, &n) in incoming.iter().enumerate() {
            for _ in 0..n {
                let (v, st) = sc.recv::<u64, _, _>(SourceSel::Rank(src), 7).await?;
                debug_assert_eq!(st.source, src);
                sum += v[0];
            }
        }
        sc.wait_all_sends(reqs).await?;
        sc.phase_end();
        Ok(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_mpi::Error;
    use std::time::Duration;

    #[test]
    fn ping_pong_reports_positive_latency() {
        let r = ping_pong(20, 1024).expect("ping-pong");
        assert_eq!(r.rounds, 20);
        assert!(r.sim_latency_per_round > 0.0);
    }

    #[test]
    fn ping_pong_latency_grows_with_message_size() {
        let small = ping_pong(10, 64).expect("small");
        let large = ping_pong(10, 1 << 22).expect("large");
        assert!(large.sim_latency_per_round > small.sim_latency_per_round * 5.0);
    }

    #[test]
    fn all_ring_variants_agree_under_eager_protocol() {
        for variant in [
            RingVariant::NaiveBlocking,
            RingVariant::ParityShifted,
            RingVariant::Nonblocking,
            RingVariant::SendRecv,
        ] {
            let got =
                ring(6, variant, usize::MAX).unwrap_or_else(|e| panic!("{variant:?} failed: {e}"));
            for (rank, &v) in got.iter().enumerate() {
                assert_eq!(v as usize, (rank + 5) % 6, "{variant:?}");
            }
        }
    }

    #[test]
    fn naive_ring_deadlocks_under_rendezvous() {
        // The module's core lesson, as an executable fact.
        let cfg = WorldConfig::new(4)
            .with_eager_threshold(0)
            .with_watchdog(Some(Duration::from_millis(20)));
        let err = World::run(cfg, |comm| ring_step(comm, RingVariant::NaiveBlocking))
            .expect_err("must deadlock");
        let Error::Deadlock(info) = err else {
            panic!("expected a deadlock, got {err}");
        };
        // The watchdog explains the hang: all four ranks blocked in the
        // rendezvous send, forming a wait-for cycle around the ring.
        assert_eq!(info.blocked.len(), 4, "{}", info.render());
        assert_eq!(info.cycle.len(), 4, "{}", info.render());
        assert!(info.blocked.iter().all(|b| b.op == "send(rendezvous)"));
    }

    #[test]
    fn shifted_and_nonblocking_rings_survive_rendezvous() {
        for variant in [
            RingVariant::ParityShifted,
            RingVariant::Nonblocking,
            RingVariant::SendRecv,
        ] {
            let got =
                ring(4, variant, 0).unwrap_or_else(|e| panic!("{variant:?} under rendezvous: {e}"));
            assert_eq!(got.len(), 4);
        }
    }

    #[test]
    fn odd_sized_parity_ring_still_completes_eagerly() {
        // With an odd ring the parity trick leaves one even-even edge; the
        // eager protocol still completes it (students discover this).
        let got = ring(5, RingVariant::ParityShifted, usize::MAX).expect("odd ring");
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn random_comm_both_versions_agree() {
        let a = random_comm_without_any_source(8, 5, 42).expect("exact-source version");
        let b = random_comm_with_any_source(8, 5, 42).expect("wildcard version");
        assert_eq!(a.checksum, b.checksum, "same traffic, same checksum");
        assert_eq!(a.messages, b.messages);
        assert!(!a.used_any_source);
        assert!(b.used_any_source);
        assert!(a.messages > 0);
    }

    #[test]
    fn random_comm_checksum_counts_every_message() {
        // checksum = sum over messages of (sender+1).
        let seed = 7;
        let (size, fanout) = (6, 4);
        let expected: u64 = (0..size)
            .flat_map(|r| {
                destinations(r, size, fanout, seed)
                    .into_iter()
                    .map(move |_| r as u64 + 1)
            })
            .sum();
        let got = random_comm_with_any_source(size, fanout, seed).expect("run");
        assert_eq!(got.checksum, expected);
    }

    #[test]
    fn destinations_are_deterministic_and_never_self() {
        let d1 = destinations(3, 8, 10, 99);
        let d2 = destinations(3, 8, 10, 99);
        assert_eq!(d1, d2);
        assert!(d1.iter().all(|&d| d != 3 && d < 8));
    }
}
