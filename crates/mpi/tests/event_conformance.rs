//! Backend equivalence: the stackless event engine must be observationally
//! identical to the thread backend.
//!
//! Every scenario runs one [`StepProgram`] two ways — threads and the
//! discrete-event engine — through the *same* resumable body (the thread
//! backend drives it via [`drive`]), then asserts that
//! results, the simulated clock (bit-for-bit), per-rank [`CommStats`], and
//! the checker event logs are byte-identical. Modules 2, 3, and 6 are the
//! real course programs; the fault and cancellation scenarios cover the
//! failure paths the engine replaces; the tuned scenarios run every
//! collective under tuning tables that select the chunked and
//! hierarchical algorithms on multi-node layouts.

use pdc_datagen::uniform_points;
use pdc_modules::module2::{Access, DistanceMatrixProgram};
use pdc_modules::module3::{BucketStrategy, DistributionSortProgram, InputDist};
use pdc_modules::module6::{HaloVariant, StencilProgram};
use pdc_mpi::{
    drive, CancelToken, CheckEvent, CheckMode, CollAlgo, CollKind, Comm, Error, FaultPlan, Op,
    Result, StepComm, StepFuture, StepProgram, TuningTable, World, WorldConfig,
};

/// Sizes every module scenario sweeps (the ISSUE's {2, 5, 32}).
const SIZES: [usize; 3] = [2, 5, 32];

/// Render per-rank checker logs in a stable, diffable form.
fn render_log(events: &[Vec<CheckEvent>]) -> String {
    let mut out = String::new();
    for (rank, log) in events.iter().enumerate() {
        out.push_str(&format!("== rank {rank} ({} events)\n", log.len()));
        for e in log {
            out.push_str(&format!("{e:?}\n"));
        }
    }
    out
}

/// One backend's observable outcome, rendered for byte comparison.
struct Observed {
    values: String,
    sim_bits: Option<u64>,
    stats: String,
    log: String,
}

fn observe<T: std::fmt::Debug>(
    result: std::result::Result<pdc_mpi::RunOutput<T>, Error>,
    events: &[Vec<CheckEvent>],
) -> Observed {
    match result {
        Ok(out) => Observed {
            values: format!("{:?}", out.values),
            sim_bits: Some(out.sim_time.to_bits()),
            stats: format!("{:?}", out.stats),
            log: render_log(events),
        },
        Err(e) => Observed {
            values: format!("Err({e:?})"),
            sim_bits: None,
            stats: String::new(),
            log: render_log(events),
        },
    }
}

/// Run `program` on both backends and assert byte-identical
/// observables.
fn conform<T, P>(name: &str, ranks: usize, cfg: impl Fn() -> WorldConfig, program: &P)
where
    T: Send + std::fmt::Debug,
    P: StepProgram<T> + Sync,
{
    let body = |comm: &mut Comm| drive(comm, |sc| program.build(sc));
    let (thread_res, thread_ev) = World::run_with_check(cfg().with_check(CheckMode::Record), body);
    let (event_res, event_ev) = World::run_event_with_check(
        cfg().with_sched_seed(0).with_check(CheckMode::Record),
        program,
    );

    let thread = observe(thread_res, &thread_ev);
    let event = observe(event_res, &event_ev);

    let ctx = format!("{name} p={ranks}: thread vs event");
    assert_eq!(thread.values, event.values, "{ctx}: results");
    assert_eq!(thread.sim_bits, event.sim_bits, "{ctx}: sim clock");
    assert_eq!(thread.stats, event.stats, "{ctx}: CommStats");
    assert_eq!(thread.log, event.log, "{ctx}: checker event log");
}

#[test]
fn module2_distance_matrix_is_backend_identical() {
    let points = uniform_points(96, 4, 0.0, 100.0, 3);
    let program = DistanceMatrixProgram {
        points,
        access: Access::RowWise,
    };
    for ranks in SIZES {
        conform("module2", ranks, || WorldConfig::new(ranks), &program);
    }
}

#[test]
fn module3_distribution_sort_is_backend_identical() {
    // 64 ranks put 63 pending messages in every mailbox after the
    // exchange's barrier, past the depth at which mailboxes index their
    // queue, so indexed matching is held to the same observables.
    for ranks in SIZES.into_iter().chain([64]) {
        let program = DistributionSortProgram {
            n_per_rank: 60,
            dist: InputDist::Exponential,
            // The histogram strategy needs at least one bin per rank.
            strategy: BucketStrategy::Histogram {
                bins: ranks.max(32),
            },
            seed: 7,
        };
        conform("module3", ranks, || WorldConfig::new(ranks), &program);
    }
}

#[test]
fn module6_stencil_is_backend_identical() {
    for variant in [HaloVariant::BlockingFirst, HaloVariant::Overlapped] {
        let program = StencilProgram {
            n_per_rank: 6,
            iters: 4,
            variant,
        };
        for ranks in SIZES {
            conform(
                &format!("module6/{variant:?}"),
                ranks,
                || WorldConfig::new(ranks),
                &program,
            );
        }
    }
}

/// Rendezvous traffic (eager threshold zero) must take the ack path on
/// every backend — the wait state the event engine models explicitly.
#[test]
fn module6_rendezvous_halos_are_backend_identical() {
    let program = StencilProgram {
        n_per_rank: 5,
        iters: 3,
        variant: HaloVariant::BlockingFirst,
    };
    for ranks in [2, 5] {
        conform(
            "module6/rendezvous",
            ranks,
            || WorldConfig::new(ranks).with_eager_threshold(0),
            &program,
        );
    }
}

/// ULFM-style recovery: rank 2 crashes at time zero inside the allreduce;
/// the casualty observes its own death, survivors agree on the failed set.
/// Every backend must report the identical outcome.
struct FaultRecovery;

impl StepProgram<(u64, Vec<(usize, u64)>)> for FaultRecovery {
    fn build<'c, 'w: 'c>(
        &'c self,
        mut sc: StepComm<'c, 'w>,
    ) -> StepFuture<'c, Result<(u64, Vec<(usize, u64)>)>> {
        Box::pin(async move {
            let mine = [sc.rank() as u64];
            match sc.allreduce(&mine, Op::Sum).await {
                Ok(v) => Ok((v[0], Vec::new())),
                Err(Error::RankFailed { rank, .. }) if rank == sc.rank() => {
                    // This rank is the casualty; model process death.
                    Ok((u64::MAX, Vec::new()))
                }
                Err(Error::RankFailed { .. }) => {
                    let failed = sc.agree().await?;
                    let failed = failed
                        .into_iter()
                        .map(|(r, at)| (r, at.to_bits()))
                        .collect();
                    Ok((0, failed))
                }
                Err(e) => Err(e),
            }
        })
    }
}

#[test]
fn fault_plan_outcome_is_backend_identical() {
    conform(
        "fault/agree",
        5,
        || WorldConfig::new(5).with_faults(FaultPlan::seeded(9).crash_rank(2, 0.0)),
        &FaultRecovery,
    );
}

/// A pre-cancelled world: the first blocking call on every backend must
/// surface the same typed [`Error::Cancelled`].
struct BlockForever;

impl StepProgram<u64> for BlockForever {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<u64>> {
        Box::pin(async move {
            let (data, _status) = sc
                .recv::<u64, _, _>(pdc_mpi::SourceSel::Any, pdc_mpi::TagSel::Any)
                .await?;
            Ok(data.iter().sum())
        })
    }
}

#[test]
fn cancellation_outcome_is_backend_identical() {
    let cfg = || {
        let token = CancelToken::new();
        token.cancel("never admitted");
        WorldConfig::new(3).with_watchdog(None).with_cancel(token)
    };
    conform("cancel/pre-cancelled", 3, cfg, &BlockForever);
}

// ---------------------------------------------------------------------
// Tuned collectives: every backend runs the same algorithm
// implementations, so a tuning table selects the same hierarchical and
// chunked algorithms everywhere.
// ---------------------------------------------------------------------

/// Ranks and nodes of the tuned scenarios: a multi-node block layout
/// with uneven node occupancy at 12 ranks, and one of the tuner's own
/// topologies at 32.
const TUNED_LAYOUTS: [(usize, usize); 2] = [(12, 3), (32, 4)];

fn checked_in_table() -> TuningTable {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../TUNING_mpi.json");
    TuningTable::load(&path).expect("checked-in TUNING_mpi.json loads")
}

/// Every collective a step program can call, on payloads large enough to
/// pipeline (256 KiB), folding everything received into a checksum.
struct CollectiveTour;

impl StepProgram<u64> for CollectiveTour {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<u64>> {
        Box::pin(async move {
            const BIG: usize = 32 * 1024;
            let (rank, size) = (sc.rank(), sc.size());
            sc.barrier().await?;
            let floats: Vec<f64> = (0..BIG).map(|i| (i + rank) as f64 / 3.0).collect();
            let ints: Vec<u64> = (0..BIG as u64).map(|i| i ^ rank as u64).collect();
            let seen = sc.bcast((rank == 2).then_some(&floats[..]), 2).await?;
            let all: Vec<u64> = (0..3 * size as u64).collect();
            let mine = sc.scatter((rank == 1).then_some(&all[..]), 1).await?;
            let ragged: Vec<u64> = (0..rank as u64 % 4).collect();
            let gathered = sc.gatherv(&ragged, 0).await?;
            let everyone = sc.allgather(&mine).await?;
            let float_sum = sc.reduce(&floats, Op::Sum, size - 1).await?;
            let int_max = sc.reduce(&ints, Op::Max, 0).await?;
            let int_sum = sc.allreduce(&ints, Op::Sum).await?;
            let float_min = sc.allreduce(&floats[..4], Op::Min).await?;
            let mut check = seen.iter().map(|x| x.to_bits()).fold(0, u64::wrapping_add);
            let ints_seen = everyone.iter().chain(&int_sum);
            check = ints_seen.fold(check, |a, &b| a.wrapping_add(b));
            let floats_seen = float_sum.iter().flatten().chain(&float_min);
            check = floats_seen.fold(check, |a, b| a.wrapping_add(b.to_bits()));
            for v in gathered.iter().flatten().chain(&int_max) {
                check = v.iter().fold(check, |a, &b| a.wrapping_add(b));
            }
            Ok(check)
        })
    }
}

#[test]
fn collectives_under_forced_algorithms_are_backend_identical() {
    for (ranks, nodes) in TUNED_LAYOUTS {
        for algo in [CollAlgo::Chunked, CollAlgo::Hierarchical] {
            // Every kind forced; selection still clamps it to what applies.
            let table = TuningTable::forcing(&CollKind::ALL.map(|kind| (kind, algo)));
            let cfg = || {
                WorldConfig::new(ranks)
                    .on_nodes(nodes)
                    .with_tuning(table.clone())
            };
            conform(&format!("tour/{algo:?}"), ranks, cfg, &CollectiveTour);
            let out = World::run(cfg(), |comm| drive(comm, |sc| CollectiveTour.build(sc)))
                .expect("tour runs");
            assert!(
                out.total_stats().algo_volume(algo).calls > 0,
                "the table selected {algo:?}"
            );
        }
    }
}

#[test]
fn collectives_under_the_checked_in_table_are_backend_identical() {
    let table = checked_in_table();
    for (ranks, nodes) in TUNED_LAYOUTS {
        let cfg = || {
            WorldConfig::new(ranks)
                .on_nodes(nodes)
                .with_tuning(table.clone())
        };
        conform("tour/TUNING_mpi.json", ranks, cfg, &CollectiveTour);
    }
}

#[test]
fn modules_under_the_checked_in_table_are_backend_identical() {
    let table = checked_in_table();
    let points = uniform_points(96, 4, 0.0, 100.0, 3);
    let module2 = DistanceMatrixProgram {
        points,
        access: Access::RowWise,
    };
    let stencil = StencilProgram {
        n_per_rank: 6,
        iters: 4,
        variant: HaloVariant::Overlapped,
    };
    for (ranks, nodes) in TUNED_LAYOUTS {
        let cfg = || {
            WorldConfig::new(ranks)
                .on_nodes(nodes)
                .with_tuning(table.clone())
        };
        let sort = DistributionSortProgram {
            n_per_rank: 60,
            dist: InputDist::Exponential,
            strategy: BucketStrategy::Histogram { bins: ranks },
            seed: 7,
        };
        conform("module2/tuned", ranks, cfg, &module2);
        conform("module3/tuned", ranks, cfg, &sort);
        conform("module6/tuned", ranks, cfg, &stencil);
    }
}
