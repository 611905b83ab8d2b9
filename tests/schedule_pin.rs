//! Schedule pin: the event engine's exact behaviour on the library's own
//! step programs, reduced to one hash per run.
//!
//! Each case runs a shipped program type (Module 2's
//! `DistanceMatrixProgram`, Module 6's `StencilProgram`, Module 3's
//! `DistributionSortProgram`) on the event engine at seeds 0 and 7, and
//! hashes everything a change to the engine's wait or wake machinery could
//! move: the resume order (`sched_trace`), the bits of the simulated
//! makespan, the per-rank values, the number of resumes
//! (`EventMemStats.events`), and the world's message and byte counts.
//! Changes that only make waiting cheaper must leave every hash alone.
//!
//! The observation cases run the same programs with tracing and the
//! checker on, on the thread backend and on the event engine at seeds 0
//! and 7, and hash what the instruments recorded: the Chrome trace, the
//! phases, the collective spans, the check logs and per-rank statistics.
//! None of the three programs races on a wildcard, so all three runs
//! observe the same thing. One more case holds that the instruments
//! change nothing they observe.
//!
//! The Module 2 and Module 6 hashes were recorded before the wait state
//! became plain data. The Module 3 hashes were re-recorded when
//! rendezvous acknowledgements became envelopes: the engine stopped
//! resuming the sender of every matched envelope, which moved the resume
//! order and count while the clock, values and traffic stayed bit for
//! bit. After an intentional change to the schedule, rerun with
//! `cargo test --test schedule_pin -- --nocapture` and copy the printed
//! hashes here.

use pdc_datagen::uniform_points;
use pdc_modules::module2::{Access, DistanceMatrixProgram};
use pdc_modules::module3::{BucketStrategy, DistributionSortProgram, InputDist};
use pdc_modules::module6::{HaloVariant, StencilProgram};
use pdc_mpi::trace::to_chrome_json;
use pdc_mpi::{drive, CheckEvent, CheckMode, RunOutput, StepProgram, World, WorldConfig};

/// 64-bit FNV-1a: stable across Rust releases, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Run `program` on `ranks` ranks over two nodes at `seed` and hash the
/// run's schedule, clock, values, resume count and traffic.
fn pin<T, P>(program: &P, ranks: usize, seed: u64) -> u64
where
    T: std::fmt::Debug,
    P: StepProgram<T>,
{
    let cfg = WorldConfig::new(ranks).on_nodes(2).with_sched_seed(seed);
    let (result, mem) = World::run_event_with_mem(cfg, program);
    let out = result.expect("pinned program runs");
    let stats = out.total_stats();
    let mut h = Fnv::new();
    h.u64(out.sched_trace.len() as u64);
    for &rank in &out.sched_trace {
        h.bytes(&rank.to_le_bytes());
    }
    h.u64(out.sim_time.to_bits());
    h.bytes(format!("{:?}", out.values).as_bytes());
    h.u64(mem.events);
    h.u64(stats.msgs_sent);
    h.u64(stats.bytes_sent);
    h.u64(stats.msgs_received);
    h.u64(stats.bytes_received);
    h.0
}

/// Check the hashes of `program` at seeds 0 and 7 against `expected`.
fn check<T, P>(name: &str, program: &P, ranks: usize, expected: [u64; 2])
where
    T: std::fmt::Debug,
    P: StepProgram<T>,
{
    let got = [pin(program, ranks, 0), pin(program, ranks, 7)];
    println!("{name}: [{:#018x}, {:#018x}]", got[0], got[1]);
    assert_eq!(
        got, expected,
        "{name}: the event engine's schedule, clock, values or traffic moved"
    );
}

/// The three pinned programs.
fn module2() -> DistanceMatrixProgram {
    DistanceMatrixProgram {
        points: uniform_points(96, 2, 0.0, 100.0, 3),
        access: Access::RowWise,
    }
}

fn module6() -> StencilProgram {
    StencilProgram {
        n_per_rank: 16,
        iters: 8,
        variant: HaloVariant::BlockingFirst,
    }
}

fn module3() -> DistributionSortProgram {
    DistributionSortProgram {
        n_per_rank: 64,
        dist: InputDist::Exponential,
        strategy: BucketStrategy::Histogram { bins: 16 },
        seed: 11,
    }
}

#[test]
fn distance_matrix_schedule_is_pinned() {
    check(
        "module2",
        &module2(),
        24,
        [0xbd2961b084e8b4c9, 0xfd9a7df51e986282],
    );
}

#[test]
fn stencil_schedule_is_pinned() {
    check(
        "module6",
        &module6(),
        24,
        [0x91893598cf0011a1, 0x89143b110918f9a8],
    );
}

#[test]
fn distribution_sort_schedule_is_pinned() {
    check(
        "module3",
        &module3(),
        24,
        [0xcc1f9a9a3a25440d, 0x10efa812032fe917],
    );
}

/// Module 3 at 48 ranks: its bucket exchange leaves 47 envelopes pending
/// in every mailbox, past the matching index's depth threshold (32), so
/// this cell pins indexed matching where the 24-rank cell above only
/// ever scans.
#[test]
fn deep_mailbox_distribution_sort_schedule_is_pinned() {
    check(
        "module3-48",
        &module3(),
        48,
        [0xdb3d24c150aa4a92, 0x1b853958b6b27985],
    );
}

/// A world of `ranks` ranks over two nodes with every instrument on:
/// tracing and the checker's event log.
fn observed_cfg(ranks: usize) -> WorldConfig {
    WorldConfig::new(ranks)
        .on_nodes(2)
        .with_tracing()
        .with_check(CheckMode::Record)
}

/// Hash everything a run observed: the Chrome trace, the phases, the
/// collective spans, the rendered check logs and per-rank statistics.
fn observation_hash<T: std::fmt::Debug>(
    result: pdc_mpi::Result<RunOutput<T>>,
    logs: Vec<Vec<CheckEvent>>,
) -> u64 {
    let out = result.expect("pinned program runs");
    let mut h = Fnv::new();
    h.bytes(to_chrome_json(&out.traces).as_bytes());
    h.bytes(serde_json::to_string(&out.phases).unwrap().as_bytes());
    h.bytes(serde_json::to_string(&out.colls).unwrap().as_bytes());
    for log in &logs {
        h.u64(log.len() as u64);
        for event in log {
            h.bytes(serde_json::to_string(event).unwrap().as_bytes());
        }
    }
    for stats in &out.stats {
        h.bytes(serde_json::to_string(stats).unwrap().as_bytes());
    }
    h.0
}

/// `program`'s observation hash on the thread backend, through `drive`.
fn thread_observation<T, P>(program: &P, ranks: usize) -> u64
where
    T: std::fmt::Debug + Send,
    P: StepProgram<T> + Sync,
{
    let (result, logs) = World::run_with_check(observed_cfg(ranks), |comm| {
        drive(comm, |sc| program.build(sc))
    });
    observation_hash(result, logs)
}

/// `program`'s observation hash on the event engine at `seed`.
fn event_observation<T, P>(program: &P, ranks: usize, seed: u64) -> u64
where
    T: std::fmt::Debug,
    P: StepProgram<T>,
{
    let cfg = observed_cfg(ranks).with_sched_seed(seed);
    let (result, logs) = World::run_event_with_check(cfg, program);
    observation_hash(result, logs)
}

/// Check a program's observation hash on the thread backend and on the
/// event engine at seeds 0 and 7: a program without wildcard races
/// observes the same run on every backend and schedule.
fn check_observed<T, P>(name: &str, program: &P, ranks: usize, expected: u64)
where
    T: std::fmt::Debug + Send,
    P: StepProgram<T> + Sync,
{
    let got = [
        thread_observation(program, ranks),
        event_observation(program, ranks, 0),
        event_observation(program, ranks, 7),
    ];
    println!("{name} observed: {:#018x?}", got);
    assert_eq!(
        got, [expected; 3],
        "{name}: a trace, phase, collective span, check log or statistic moved \
         (thread, event seed 0, event seed 7)"
    );
}

#[test]
fn distance_matrix_observation_is_pinned() {
    check_observed("module2", &module2(), 24, 0xf765f87cc52a2467);
}

#[test]
fn stencil_observation_is_pinned() {
    check_observed("module6", &module6(), 24, 0x9702f5cc2315398e);
}

#[test]
fn distribution_sort_observation_is_pinned() {
    check_observed("module3", &module3(), 24, 0x25d84542bcb7d606);
}

/// Instruments observe; they never steer. The same program with tracing
/// and the checker on runs the same schedule to the same clock, values
/// and statistics as with both off.
#[test]
fn instruments_do_not_change_the_run() {
    fn same<T: std::fmt::Debug, P: StepProgram<T>>(name: &str, program: &P) {
        for seed in [0, 7] {
            let plain = WorldConfig::new(24).on_nodes(2).with_sched_seed(seed);
            let off = World::run_event(plain.clone(), program).expect("runs");
            let on =
                World::run_event(observed_cfg(24).with_sched_seed(seed), program).expect("runs");
            assert_eq!(
                off.sim_time.to_bits(),
                on.sim_time.to_bits(),
                "{name}: clock"
            );
            assert_eq!(
                format!("{:?}", off.values),
                format!("{:?}", on.values),
                "{name}: values"
            );
            assert_eq!(off.sched_trace, on.sched_trace, "{name}: schedule");
            assert_eq!(
                serde_json::to_string(&off.stats).unwrap(),
                serde_json::to_string(&on.stats).unwrap(),
                "{name}: statistics"
            );
            assert!(off.traces.iter().all(Vec::is_empty));
            assert!(on.traces.iter().any(|t| !t.is_empty()), "{name}: traced");
        }
    }
    same("module2", &module2());
    same("module6", &module6());
    same("module3", &module3());
}
