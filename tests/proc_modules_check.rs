//! The eight teaching modules on the multi-process backend, under the
//! pdc-check correctness checker.
//!
//! This is the acceptance gate for [`pdc_mpi::World::run_proc`]: every
//! module's per-rank body runs with each rank in its own OS process
//! (real sockets, real process isolation) under `CheckMode::Record`, and
//! the analyzed report must come back with zero violations — exactly the
//! bar the thread backend clears in `tests/checker.rs`.
//!
//! A traced world observes on real processes what it observes on threads:
//! each rank's trace, phases and collective spans cross the wire whole.
//!
//! Rendezvous sends then run the way they do on the in-process backends:
//! a matched `ssend` completes, a rendezvous send to a rank that returned
//! without receiving it ends in `WorldShutDown` within seconds instead of
//! hanging, and an eager send to such a rank succeeds.
//!
//! `harness = false`: rank processes re-execute this binary (SPMD), so
//! every `run_proc` call must happen in deterministic program order,
//! which libtest's parallel test threads would break. All worlds use
//! size 4 — the proc backend requires one uniform size per binary.

use pdc_check::analyze;
use pdc_datagen::{asteroid_catalog, gaussian_mixture, random_range_queries, uniform_points};
use pdc_modules::module1::random_comm_rank;
use pdc_modules::module2::{distance_matrix_rank, Access};
use pdc_modules::module3::{distribution_sort_rank, BucketStrategy, InputDist};
use pdc_modules::module4::{range_queries_rank, Engine};
use pdc_modules::module5::{kmeans_rank, CommOption};
use pdc_modules::module6::{sequential_stencil, stencil_rank, HaloVariant};
use pdc_modules::module7::{local_scores, top_k, top_k_rank, TopKStrategy};
use pdc_modules::module8::{self_join_rank, sequential_self_join, JoinMethod};
use pdc_mpi::trace::to_chrome_json;
use pdc_mpi::{is_proc_child, CheckMode, Comm, Error, Op, Result, World, WorldConfig};
use std::time::{Duration, Instant};

const SIZE: usize = 4;

/// Run `f` on the proc backend under the checker; panic (with the
/// rendered report) on any violation; return the per-rank values.
fn check_proc<T, F>(what: &str, f: F) -> Vec<T>
where
    T: serde::Serialize + serde::Deserialize + Send,
    F: Fn(&mut Comm) -> Result<T> + Send + Sync,
{
    let cfg = WorldConfig::new(SIZE).with_check(CheckMode::Record);
    let (result, logs) = World::run_proc_with_check(cfg, f);
    let report = analyze(&result, &logs);
    assert!(
        report.is_clean(),
        "{what} must run clean on the proc backend:\n{}",
        report.render()
    );
    let values = result
        .unwrap_or_else(|e| panic!("{what} failed on the proc backend: {e}"))
        .values;
    if !is_proc_child() {
        eprintln!("[proc-check] {what}: clean");
    }
    values
}

fn main() {
    // Module 1: random communication, exact sources and ANY_SOURCE. The
    // wildcard variant is order-independent by construction — warnings
    // are fine, violations are not.
    let exact = check_proc("module 1 random communication (exact)", |comm| {
        random_comm_rank(comm, 3, 42, false)
    });
    let wild = check_proc("module 1 random communication (ANY_SOURCE)", |comm| {
        random_comm_rank(comm, 3, 42, true)
    });
    assert_eq!(
        exact.iter().sum::<u64>(),
        wild.iter().sum::<u64>(),
        "both protocols deliver the same data"
    );

    // Module 2: distance matrix. Same dataset in every rank process —
    // datagen is seeded, and each process re-derives it identically.
    let points = uniform_points(120, 2, 0.0, 100.0, 3);
    let values = check_proc("module 2 distance matrix", |comm| {
        distance_matrix_rank(comm, &points, Access::RowWise)
    });
    assert!(values[0].is_finite());

    // Module 3: distribution sort.
    let values = check_proc("module 3 distribution sort", |comm| {
        distribution_sort_rank(
            comm,
            200,
            InputDist::Exponential,
            BucketStrategy::Histogram { bins: 32 },
            7,
        )
    });
    assert!(values.iter().all(|&(_, sorted)| sorted));
    assert_eq!(values.iter().map(|&(n, _)| n).sum::<usize>(), 800);

    // Module 4: range queries.
    let catalog = asteroid_catalog(1500, 11);
    let queries = random_range_queries(24, 0.25, 12);
    let values = check_proc("module 4 range queries", |comm| {
        range_queries_rank(comm, &catalog, &queries, Engine::RTree)
    });
    assert!(values[0].0 > 0, "queries over a dense catalog find matches");

    // Module 5: k-means.
    let mix = gaussian_mixture(240, 2, 3, 100.0, 1.0, 5).points;
    let values = check_proc("module 5 k-means", |comm| {
        kmeans_rank(comm, &mix, 3, CommOption::WeightedMeans, 1e-9)
    });
    assert!(values[0].1.is_finite());

    // Module 6: 1-d stencil with overlapped halo exchange, reduced to a
    // checksum against the sequential reference.
    let reference: f64 = sequential_stencil(SIZE * 25, 12).iter().sum();
    let values = check_proc("module 6 stencil", |comm| {
        let u = stencil_rank(comm, 25, 12, HaloVariant::Overlapped)?;
        let local: f64 = u.iter().sum();
        let total = comm.reduce(&[local], Op::Sum, 0)?;
        Ok(total.map(|t| t[0]).unwrap_or(0.0))
    });
    assert!((values[0] - reference).abs() < 1e-9);

    // Module 7: top-k, tree-merge strategy.
    let (n_per, k, seed) = (500, 10, 9);
    let mut all = Vec::new();
    for r in 0..SIZE {
        all.extend(local_scores(n_per, r, seed));
    }
    let reference = top_k(&all, k);
    let values = check_proc("module 7 top-k", |comm| {
        top_k_rank(comm, n_per, k, TopKStrategy::TreeMerge, seed)
    });
    for (a, b) in values[0].iter().zip(&reference) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    // Module 8: distance-similarity self-join.
    let join_points = uniform_points(400, 2, 0.0, 100.0, 13);
    let expected = sequential_self_join(&join_points, 3.0);
    let values = check_proc("module 8 self-join", |comm| {
        self_join_rank(comm, &join_points, 3.0, JoinMethod::Grid)
    });
    assert_eq!(values[0].0, expected);

    traced_world_matches_threads();
    rendezvous_cases();

    if !is_proc_child() {
        println!("proc modules check: all eight modules run clean on real OS processes");
    }
}

/// Module 2 traced on processes and on threads. It has no wildcard
/// receive, so both backends observe the same run: the same Chrome trace,
/// phases and collective spans.
fn traced_world_matches_threads() {
    let points = uniform_points(120, 2, 0.0, 100.0, 3);
    let body = |comm: &mut Comm| distance_matrix_rank(comm, &points, Access::RowWise);
    let cfg = WorldConfig::new(SIZE).with_tracing();
    let procs = World::run_proc(cfg.clone(), body).expect("module 2 runs on processes");
    let threads = World::run(cfg, body).expect("module 2 runs on threads");
    assert!(
        procs.traces.iter().all(|t| !t.is_empty()),
        "every rank's trace crossed the wire"
    );
    assert_eq!(
        to_chrome_json(&procs.traces),
        to_chrome_json(&threads.traces)
    );
    assert_eq!(procs.phases, threads.phases);
    assert_eq!(procs.colls, threads.colls);
    if !is_proc_child() {
        eprintln!("[proc-check] traced module 2: same trace as threads");
    }
}

/// Run `f` on the proc backend with every user send of more than
/// `eager_threshold` bytes rendezvous, and return the world's outcome,
/// which must arrive within seconds.
fn run_timed(
    what: &str,
    eager_threshold: usize,
    f: impl Fn(&mut Comm) -> Result<()> + Send + Sync,
) -> Result<()> {
    let started = Instant::now();
    let cfg = WorldConfig::new(SIZE).with_eager_threshold(eager_threshold);
    let result = World::run_proc(cfg, |comm| f(comm).map(|()| true)).map(|_| ());
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "{what} took {:?}",
        started.elapsed()
    );
    if !is_proc_child() {
        eprintln!("[proc-check] {what}: {result:?}");
    }
    result
}

fn rendezvous_cases() {
    // Even ranks ssend to the next odd rank, which receives.
    let values = check_proc("matched ssend", |comm| {
        let rank = comm.rank();
        if rank % 2 == 0 {
            comm.ssend(&[rank as u64; 64], rank + 1, 4)?;
            Ok(0)
        } else {
            let (got, _) = comm.recv::<u64>(rank - 1, 4)?;
            Ok(got.iter().sum::<u64>())
        }
    });
    assert_eq!(values, vec![0, 0, 0, 64 * 2]);

    // Rank 1 returns without receiving rank 0's rendezvous send.
    let result = run_timed("rendezvous to a finished rank", 0, |comm| {
        if comm.rank() == 0 {
            comm.send(&[0u8; 64], 1, 9)?;
        }
        Ok(())
    });
    assert_eq!(result, Err(Error::WorldShutDown));

    // Rank 1 posts a send to rank 0 and returns; rank 0 receives it and
    // then makes a rendezvous send to the finished rank 1.
    let result = run_timed("rendezvous after the receiver finished", 0, |comm| {
        match comm.rank() {
            0 => {
                comm.recv::<u8>(1, 3)?;
                comm.send(&[0u8; 64], 1, 9)?;
            }
            1 => {
                let _unwaited = comm.isend(&[1u8], 0, 3)?;
            }
            _ => {}
        }
        Ok(())
    });
    assert_eq!(result, Err(Error::WorldShutDown));

    // The same, eager: fire-and-forget to a gone peer.
    let result = run_timed("eager send to a finished rank", 64, |comm| {
        match comm.rank() {
            0 => {
                comm.recv::<u8>(1, 3)?;
                std::thread::sleep(Duration::from_millis(50));
                comm.send(&[7u8; 4], 1, 9)?;
            }
            1 => comm.send(&[1u8], 0, 3)?,
            _ => {}
        }
        Ok(())
    });
    assert_eq!(result, Ok(()));
}
