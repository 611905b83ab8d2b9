//! Schedule exploration: every core module's rank body, executed as a
//! step program on the event engine under 16 scheduling seeds.
//!
//! The event engine (`docs/scheduler.md`) makes every schedule it picks
//! reproducible from a seed: a nonzero seed permutes the service order
//! of equal-time wakes. This gate sweeps the seeds and asserts what the
//! modules promise:
//!
//! * **result determinism** — all eight module bodies return
//!   byte-identical values under every seed (wildcard receives included:
//!   their reductions are order-independent by construction);
//! * **zero new checker findings** — `pdc-check` comes back with no
//!   violations under any schedule, exactly as it does in thread mode
//!   (`tests/checker.rs`);
//! * **replay** — the same seed reproduces the same checker event log
//!   and resume trace bit-for-bit, and one seed of each is pinned as a
//!   golden file;
//! * **mode equality** — the event engine and thread-per-rank worlds
//!   return equal payloads for Modules 1/3/5.

use pdc_check::analyze;
use pdc_datagen::{
    asteroid_catalog, gaussian_mixture, random_range_queries, uniform_points, Asteroid, Dataset,
};
use pdc_modules::module1::{self, RingVariant};
use pdc_modules::module2::{self, Access, DistanceMatrixProgram};
use pdc_modules::module3::{BucketStrategy, DistributionSortProgram, InputDist};
use pdc_modules::module4::{self, Engine, QueryBox};
use pdc_modules::module5::{self, CommOption};
use pdc_modules::module6::{HaloVariant, StencilProgram};
use pdc_modules::module7::{self, TopKStrategy};
use pdc_modules::module8::{self, JoinMethod};
use pdc_mpi::{
    drive, CheckEvent, CheckMode, Result, StepComm, StepFuture, StepProgram, World, WorldConfig,
};

/// Seeds of the sweep.
const SEEDS: std::ops::Range<u64> = 0..16;

fn seeded_cfg(ranks: usize, seed: u64) -> WorldConfig {
    WorldConfig::virtual_ranks(ranks, 1).with_sched_seed(seed)
}

/// The sweep's module bodies, each owning its inputs. A rank's result is
/// rendered with `Debug`, so every module compares the same way.
enum Module {
    Ring(RingVariant),
    RandomComm { any_source: bool },
    Distance(Dataset),
    Sort(DistributionSortProgram),
    RangeQueries(Vec<Asteroid>, Vec<QueryBox>),
    KMeans(Dataset, CommOption),
    Stencil(StencilProgram),
    TopK,
    SelfJoin(Dataset),
}

impl StepProgram<String> for Module {
    fn build<'c, 'w: 'c>(&'c self, sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<String>> {
        Box::pin(async move {
            let rendered = match self {
                Module::Ring(variant) => {
                    format!("{:?}", module1::ring_exchange_step(sc, *variant).await?)
                }
                Module::RandomComm { any_source } => {
                    let sum = module1::random_comm_step(sc, 3, 42, *any_source).await?;
                    format!("{sum:?}")
                }
                Module::Distance(points) => {
                    let total = module2::distance_matrix_step(sc, points, Access::RowWise).await?;
                    format!("{total:?}")
                }
                Module::Sort(program) => format!("{:?}", program.build(sc).await?),
                Module::RangeQueries(catalog, queries) => {
                    let engine = Engine::KdTree;
                    let found = module4::range_queries_step(sc, catalog, queries, engine).await?;
                    format!("{found:?}")
                }
                Module::KMeans(points, option) => {
                    let fit = module5::kmeans_step(sc, points, 3, *option, 1e-9).await?;
                    format!("{fit:?}")
                }
                Module::Stencil(program) => format!("{:?}", program.build(sc).await?),
                Module::TopK => {
                    let strategy = TopKStrategy::TreeMerge;
                    format!("{:?}", module7::top_k_step(sc, 500, 10, strategy, 9).await?)
                }
                Module::SelfJoin(points) => {
                    let method = JoinMethod::Grid;
                    let joined = module8::self_join_step(sc, points, 3.0, method).await?;
                    format!("{joined:?}")
                }
            };
            Ok(rendered)
        })
    }
}

/// Run one module body under every seed through the checker; assert no
/// violations and byte-identical results across seeds.
fn sweep(name: &str, ranks: usize, program: &Module) {
    let mut first: Option<Vec<String>> = None;
    for seed in SEEDS {
        let cfg = seeded_cfg(ranks, seed).with_check(CheckMode::Record);
        let (result, logs) = World::run_event_with_check(cfg, program);
        let report = analyze(&result, &logs);
        assert!(
            report.is_clean(),
            "{name} seed {seed}: new checker findings under this schedule\n{}",
            report.render()
        );
        let values = result
            .unwrap_or_else(|e| panic!("{name} seed {seed}: run failed: {e}"))
            .values;
        match &first {
            None => first = Some(values),
            Some(first) => assert_eq!(
                first, &values,
                "{name} seed {seed}: results diverged from seed {}",
                SEEDS.start
            ),
        }
    }
}

#[test]
fn module1_random_comm_is_seed_invariant() {
    sweep("module1", 6, &Module::RandomComm { any_source: true });
}

#[test]
fn module2_distance_matrix_is_seed_invariant() {
    let points = uniform_points(120, 2, 0.0, 100.0, 3);
    sweep("module2", 4, &Module::Distance(points));
}

#[test]
fn module3_distribution_sort_is_seed_invariant() {
    let program = DistributionSortProgram {
        n_per_rank: 200,
        dist: InputDist::Exponential,
        strategy: BucketStrategy::Histogram { bins: 32 },
        seed: 7,
    };
    sweep("module3", 4, &Module::Sort(program));
}

#[test]
fn module4_range_queries_are_seed_invariant() {
    let catalog = asteroid_catalog(600, 11);
    let queries = random_range_queries(12, 0.25, 12);
    sweep("module4", 4, &Module::RangeQueries(catalog, queries));
}

#[test]
fn module5_kmeans_is_seed_invariant() {
    let points = gaussian_mixture(240, 2, 3, 100.0, 1.0, 5).points;
    sweep(
        "module5",
        4,
        &Module::KMeans(points, CommOption::WeightedMeans),
    );
}

#[test]
fn module6_stencil_is_seed_invariant() {
    let program = StencilProgram {
        n_per_rank: 25,
        iters: 12,
        variant: HaloVariant::Overlapped,
    };
    sweep("module6", 4, &Module::Stencil(program));
}

#[test]
fn module7_top_k_is_seed_invariant() {
    sweep("module7", 4, &Module::TopK);
}

#[test]
fn module8_self_join_is_seed_invariant() {
    let points = uniform_points(400, 2, 0.0, 100.0, 13);
    sweep("module8", 4, &Module::SelfJoin(points));
}

/// The same 16-seed sweep over the library's own [`StepProgram`] types,
/// run as shipped rather than through this file's [`Module`] wrapper:
/// every seed's tie-break permutation must leave the results
/// byte-identical.
fn event_sweep<T, P>(name: &str, ranks: usize, program: &P)
where
    T: Send + std::fmt::Debug,
    P: StepProgram<T> + ?Sized,
{
    let mut rendered: Option<String> = None;
    for seed in SEEDS {
        let out = World::run_event(seeded_cfg(ranks, seed), program)
            .unwrap_or_else(|e| panic!("{name} seed {seed}: event run failed: {e}"));
        let this = format!("{:?}", out.values);
        match &rendered {
            None => rendered = Some(this),
            Some(first) => assert_eq!(
                first, &this,
                "{name} seed {seed}: event-backend results diverged from seed {}",
                SEEDS.start
            ),
        }
    }
}

#[test]
fn module2_event_backend_is_seed_invariant() {
    let program = DistanceMatrixProgram {
        points: uniform_points(120, 2, 0.0, 100.0, 3),
        access: Access::RowWise,
    };
    event_sweep("module2/event", 4, &program);
}

#[test]
fn module3_event_backend_is_seed_invariant() {
    let program = DistributionSortProgram {
        n_per_rank: 200,
        dist: InputDist::Exponential,
        strategy: BucketStrategy::Histogram { bins: 32 },
        seed: 7,
    };
    event_sweep("module3/event", 4, &program);
}

#[test]
fn module6_event_backend_is_seed_invariant() {
    let program = StencilProgram {
        n_per_rank: 25,
        iters: 12,
        variant: HaloVariant::Overlapped,
    };
    event_sweep("module6/event", 4, &program);
}

/// Render per-rank checker event logs into a stable, diffable text form.
/// `CheckEvent` derives `Debug` but not `Serialize`; the golden file pins
/// the Debug rendering, one event per line, grouped by rank.
fn render_event_log(events: &[Vec<CheckEvent>]) -> String {
    let mut out = String::new();
    for (rank, log) in events.iter().enumerate() {
        out.push_str(&format!("== rank {rank} ({} events)\n", log.len()));
        for e in log {
            out.push_str(&format!("{e:?}\n"));
        }
    }
    out
}

fn golden_run() -> (Vec<String>, String) {
    let cfg = seeded_cfg(4, 7).with_check(CheckMode::Record);
    let program = Module::Ring(RingVariant::ParityShifted);
    let (result, events) = World::run_event_with_check(cfg, &program);
    let out = result.expect("golden ring runs");
    (out.values, render_event_log(&events))
}

/// Same seed ⇒ bit-identical event log, pinned against the committed
/// golden file. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test sched_explore golden` after an
/// intentional change to the modules or the checker's instrumentation.
#[test]
fn golden_event_log_replays_bit_identically() {
    let (values_a, log_a) = golden_run();
    let (values_b, log_b) = golden_run();
    assert_eq!(values_a, values_b, "same seed ⇒ same results");
    assert_eq!(log_a, log_b, "same seed ⇒ bit-identical event log");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/sched_event_log.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &log_a).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden event log missing — regenerate with \
         UPDATE_GOLDEN=1 cargo test --test sched_explore golden",
    );
    assert_eq!(
        golden, log_a,
        "event log diverged from the pinned schedule (seed 7); if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Render one event-engine run — Module 3's distribution sort at 64
/// ranks under seed 7 — as a diffable text log: results, the simulated
/// clock (bit-exact), and the full resume trace (the order the heap
/// popped rank wakes), 16 entries per line.
fn golden_event_run() -> String {
    let program = DistributionSortProgram {
        n_per_rank: 20,
        dist: InputDist::Exponential,
        strategy: BucketStrategy::Histogram { bins: 128 },
        seed: 7,
    };
    let out = World::run_event(seeded_cfg(64, 7), &program).expect("golden event run");
    let mut log = String::new();
    log.push_str("program: module3 distribution sort, 64 ranks, n_per_rank 20, sched seed 7\n");
    log.push_str(&format!("values: {:?}\n", out.values));
    log.push_str(&format!(
        "sim_time_bits: {:#018x}\n",
        out.sim_time.to_bits()
    ));
    log.push_str(&format!("resumes: {}\n", out.sched_trace.len()));
    log.push_str("trace:\n");
    for chunk in out.sched_trace.chunks(16) {
        let line: Vec<String> = chunk.iter().map(u32::to_string).collect();
        log.push_str(&line.join(" "));
        log.push('\n');
    }
    log
}

/// The event engine's schedule is a pure function of
/// `(program, size, seed)`: seed 7 at 64 ranks replays bit-identically,
/// pinned against a committed golden file. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test sched_explore golden` after an
/// intentional change to the engine or Module 3.
#[test]
fn golden_event_engine_trace_replays_bit_identically() {
    let log_a = golden_event_run();
    let log_b = golden_event_run();
    assert_eq!(log_a, log_b, "same seed ⇒ bit-identical event-engine trace");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/event_engine_log.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &log_a).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden event-engine log missing — regenerate with \
         UPDATE_GOLDEN=1 cargo test --test sched_explore golden",
    );
    assert_eq!(
        golden, log_a,
        "event-engine trace diverged from the pinned schedule (seed 7); \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Modules 1/3/5: the seeded event engine returns the same payloads as
/// thread mode.
#[test]
fn virtual_and_thread_mode_payloads_match() {
    fn both(name: &str, ranks: usize, program: &Module) {
        let event = World::run_event(seeded_cfg(ranks, 1), program).expect("event world");
        let thread = World::run(WorldConfig::new(ranks), |comm| {
            drive(comm, |sc| program.build(sc))
        })
        .expect("thread world");
        assert_eq!(event.values, thread.values, "{name}: backends disagree");
    }
    both("module1", 6, &Module::RandomComm { any_source: false });
    let sort = DistributionSortProgram {
        n_per_rank: 150,
        dist: InputDist::Uniform,
        strategy: BucketStrategy::EqualWidth,
        seed: 3,
    };
    both("module3", 4, &Module::Sort(sort));
    let points = gaussian_mixture(240, 2, 3, 100.0, 1.0, 5).points;
    both(
        "module5",
        4,
        &Module::KMeans(points, CommOption::ExplicitAssignment),
    );
}
