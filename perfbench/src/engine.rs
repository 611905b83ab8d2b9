//! The runtime workloads: world runs on the stackless event backend,
//! timed around `World::run_event_with_mem`.
//!
//! One operation is one pass over the workload's world runs:
//! `event-sweep` runs Module 2 and Module 6 at 10^5 virtual ranks,
//! `sort-exchange` runs Module 3 at 1024 ranks.
//!
//! Timed worlds run on the engine's program-order schedule (scheduling
//! seed 0), as `mpi_scale` and `BENCH_scale.json` do. A shuffled schedule
//! costs more or less depending on the seed, which would make the seed a
//! source of wall-time spread. `--seed` instead drives the shuffled
//! schedule of the set-up's warm-up worlds. The modules are
//! seed-invariant, so every world, shuffled or not, must reproduce the
//! simulated time and result recorded in [`RECORDED`].

use crate::spans::Tracer;
use crate::sys::PhaseClock;
use crate::{median, Metric};
use pdc_datagen::uniform_points;
use pdc_modules::module2::{Access, DistanceMatrixProgram};
use pdc_modules::module3::{BucketStrategy, DistributionSortProgram, InputDist};
use pdc_modules::module6::{HaloVariant, StencilProgram};
use pdc_mpi::datatype::{decode_vec, encode_slice};
use pdc_mpi::{EventMemStats, Result, RunOutput, World, WorldConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Module 2's shared dataset: points, dimensions, data seed.
const M2_POINTS: usize = 4096;
const M2_DIM: usize = 8;
const M2_DATA_SEED: u64 = 42;
/// Module 2 runs on a fixed 8-node allocation.
const M2_NODES: usize = 8;
/// Module 6: cells per rank and iterations (weak scaling).
const M6_CELLS: usize = 16;
const M6_ITERS: usize = 4;
/// Ranks per simulated node for Modules 3 and 6.
const RANKS_PER_NODE: usize = 32;
/// Module 3: total keys, data seed.
const M3_KEYS: usize = 1 << 18;
const M3_DATA_SEED: u64 = 7;
/// World sizes of the two workloads.
const SWEEP_RANKS: usize = 100_000;
const SORT_RANKS: usize = 1024;
/// Fewest operations a run measures, even when one outlasts `--seconds`.
const MIN_OPS: usize = 3;

/// The two runtime workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Modules 2 and 6 at 10^5 ranks.
    EventSweep,
    /// Module 3 at 1024 ranks.
    SortExchange,
}

/// Values a world run must reproduce, recorded from the event backend on
/// this code (simulated times are the `BENCH_scale.json` cells).
struct Expect {
    sim_us: f64,
    checksum: f64,
}

/// One world program of an operation, with its expected output when the
/// program runs at the workload's full size.
enum Program {
    M2(DistanceMatrixProgram),
    M6(StencilProgram),
    M3(DistributionSortProgram),
}

struct World1 {
    name: &'static str,
    ranks: usize,
    nodes: usize,
    program: Program,
    expect: Option<Expect>,
}

/// What one world run produced.
#[derive(Debug, Clone, PartialEq)]
struct Counters {
    pops: u64,
    bytes_per_rank: usize,
    msgs: u64,
    bytes: u64,
}

struct Ran {
    wall_s: f64,
    counters: Counters,
    check: std::result::Result<(), String>,
}

/// Simulated time (µs) and result checksum that each world must
/// reproduce, by program and rank count, recorded from the event backend
/// on this code. The 10^5-rank Module 2/6 and 1024-rank Module 3 values
/// are the event-backend and `scale_sort` cells of `BENCH_scale.json`;
/// the smaller worlds are the 1/10 scale reference and 1/100 scale
/// warm-up runs.
const RECORDED: [(&str, usize, f64, f64); 8] = [
    ("m2", 100_000, 57025.80399996315, 1892471126.0634704),
    ("m6", 100_000, 37.242480000000015, 140.56191359447627),
    ("m3", 1024, 2087.4516045475957, 262144.0),
    ("m2", 10_000, 5711.803200000009, 1892471126.0634704),
    ("m6", 10_000, 29.939680000000006, 263.8500075218126),
    ("m2", 1000, 2056.603600000001, 1892471126.0634704),
    ("m6", 1000, 20.53568, 69.51626377090494),
    ("m3", 10, 866.3815128117523, 262140.0),
];

fn world(name: &'static str, ranks: usize, nodes: usize, program: Program) -> World1 {
    let expect = RECORDED
        .iter()
        .find(|r| r.0 == name && r.1 == ranks)
        .map(|r| Expect {
            sim_us: r.2,
            checksum: r.3,
        });
    assert!(
        expect.is_some(),
        "no recorded output for {name} at {ranks} ranks"
    );
    World1 {
        name,
        ranks,
        nodes,
        program,
        expect,
    }
}

/// The world runs of one operation, at `1/scale` of the workload's rank
/// count (scale 1 is the workload itself; 10 and 100 are the reference
/// and warm-up runs).
fn worlds(sweep: Sweep, scale: usize) -> Vec<World1> {
    match sweep {
        Sweep::EventSweep => {
            let ranks = SWEEP_RANKS / scale;
            vec![
                world(
                    "m2",
                    ranks,
                    M2_NODES,
                    Program::M2(DistanceMatrixProgram {
                        points: uniform_points(M2_POINTS, M2_DIM, 0.0, 100.0, M2_DATA_SEED),
                        access: Access::RowWise,
                    }),
                ),
                world(
                    "m6",
                    ranks,
                    (ranks / RANKS_PER_NODE).max(1),
                    Program::M6(StencilProgram {
                        n_per_rank: M6_CELLS,
                        iters: M6_ITERS,
                        variant: HaloVariant::BlockingFirst,
                    }),
                ),
            ]
        }
        Sweep::SortExchange => {
            let ranks = SORT_RANKS / scale;
            vec![world(
                "m3",
                ranks,
                (ranks / RANKS_PER_NODE).max(1),
                Program::M3(DistributionSortProgram {
                    n_per_rank: M3_KEYS / ranks,
                    dist: InputDist::Uniform,
                    strategy: BucketStrategy::Histogram { bins: 4 * ranks },
                    seed: M3_DATA_SEED,
                }),
            )]
        }
    }
}

fn config(w: &World1, seed: u64) -> WorldConfig {
    // Collective tuning and the eager threshold are pinned, so the
    // simulated clock is an input of the benchmark, not a variable. The
    // worker count is irrelevant to the single-threaded event engine.
    WorldConfig::virtual_ranks(w.ranks, 1)
        .with_sched_seed(seed)
        .on_nodes(w.nodes)
        .with_eager_threshold(usize::MAX)
        .without_tuning()
}

fn counters<T>(out: &RunOutput<T>, mem: &EventMemStats) -> Counters {
    let total = out.total_stats();
    Counters {
        pops: mem.events,
        bytes_per_rank: mem.bytes_per_rank,
        msgs: total.msgs_sent,
        bytes: total.bytes_sent,
    }
}

fn verify<T>(
    w: &World1,
    out: &Result<RunOutput<T>>,
    checksum: impl Fn(&RunOutput<T>) -> std::result::Result<f64, String>,
) -> std::result::Result<(), String> {
    let out = out.as_ref().map_err(|e| format!("{}: {e}", w.name))?;
    let sum = checksum(out).map_err(|e| format!("{}: {e}", w.name))?;
    if let Some(expect) = &w.expect {
        let sim_us = out.sim_time * 1e6;
        if sim_us != expect.sim_us || sum != expect.checksum {
            return Err(format!(
                "{}: sim {sim_us} us, checksum {sum}; recorded {} us, {}",
                w.name, expect.sim_us, expect.checksum
            ));
        }
    }
    Ok(())
}

/// Run one world, timed around `World::run_event_with_mem` only, in a
/// span whose parent is `parent`.
fn run_world(w: &World1, seed: u64, tracer: &Tracer, op: u64, parent: u64) -> Ran {
    let cfg = config(w, seed);
    let t = Instant::now();
    let span = format!("mpi.world.{}", w.name);
    match &w.program {
        Program::M2(p) => {
            let (out, mem) = tracer.span(&span, parent, op, |_| World::run_event_with_mem(cfg, p));
            let wall_s = t.elapsed().as_secs_f64();
            let check = verify(w, &out, |o| Ok(o.values.iter().sum()));
            finish(wall_s, &out, &mem, check)
        }
        Program::M6(p) => {
            let (out, mem) = tracer.span(&span, parent, op, |_| World::run_event_with_mem(cfg, p));
            let wall_s = t.elapsed().as_secs_f64();
            let check = verify(w, &out, |o| {
                o.values[0]
                    .1
                    .ok_or_else(|| "rank 0 has no reduced sum".to_string())
            });
            finish(wall_s, &out, &mem, check)
        }
        Program::M3(p) => {
            let (out, mem) = tracer.span(&span, parent, op, |_| World::run_event_with_mem(cfg, p));
            let wall_s = t.elapsed().as_secs_f64();
            let check = verify(w, &out, |o| {
                if let Some(rank) = o.values.iter().position(|&(_, ordered)| !ordered) {
                    return Err(format!("rank {rank} is not ordered"));
                }
                let kept: usize = o.values.iter().map(|&(kept, _)| kept).sum();
                if kept != M3_KEYS / w.ranks * w.ranks {
                    return Err(format!("kept {kept} keys"));
                }
                Ok(kept as f64)
            });
            finish(wall_s, &out, &mem, check)
        }
    }
}

fn finish<T>(
    wall_s: f64,
    out: &Result<RunOutput<T>>,
    mem: &EventMemStats,
    check: std::result::Result<(), String>,
) -> Ran {
    let counters = match out {
        Ok(o) => counters(o, mem),
        Err(_) => Counters {
            pops: mem.events,
            bytes_per_rank: mem.bytes_per_rank,
            msgs: 0,
            bytes: 0,
        },
    };
    Ran {
        wall_s,
        counters,
        check,
    }
}

/// The same program on one rank: the plain single-threaded baseline.
fn serial_s(w: &World1) -> std::result::Result<f64, String> {
    let one = World1 {
        name: w.name,
        ranks: 1,
        nodes: 1,
        program: match &w.program {
            Program::M2(p) => Program::M2(DistanceMatrixProgram {
                points: p.points.clone(),
                access: p.access,
            }),
            Program::M6(p) => Program::M6(StencilProgram {
                n_per_rank: p.n_per_rank * w.ranks,
                ..*p
            }),
            Program::M3(p) => Program::M3(DistributionSortProgram {
                n_per_rank: p.n_per_rank * w.ranks,
                strategy: BucketStrategy::Histogram { bins: 4 },
                ..*p
            }),
        },
        expect: None,
    };
    let ran = run_world(&one, PROGRAM_ORDER, &Tracer::new(false), 0, 0);
    ran.check.map(|()| ran.wall_s)
}

/// What a runtime load measured.
#[derive(Default)]
pub struct EngineStats {
    /// Wall seconds of each set-up repetition.
    pub setups: Vec<f64>,
    /// Wall seconds of each operation.
    pub op_s: Vec<f64>,
    /// Wall seconds of each world run, by program name.
    pub world_s: BTreeMap<&'static str, Vec<f64>>,
    /// Wall and CPU time inside the timed phase.
    pub clock: PhaseClock,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output or counters were wrong.
    pub failed: u64,
    /// Problems found.
    pub problems: Vec<String>,
    /// Exact counters of the first operation, summed over its worlds.
    pub pops: u64,
    /// Largest per-rank engine footprint among the operation's worlds.
    pub bytes_per_rank: usize,
    /// Messages and bytes sent per operation.
    pub msgs: u64,
    /// Bytes sent per operation.
    pub bytes: u64,
    /// `datagen::uniform_points` wall seconds in each set-up.
    pub datagen_s: Vec<f64>,
    /// One-rank baseline of the operation (traced runs only).
    pub serial_s: Option<f64>,
}

/// Scheduling seed of the timed worlds: the engine's program order.
const PROGRAM_ORDER: u64 = 0;

/// Set up: generate the inputs and build the programs, then run the
/// operation at 1/100 scale, on a shuffled schedule drawn from `seed` and
/// the repetition `rep`, so lazy allocation and code paging are paid here
/// rather than by the first timed operation.
fn setup(sweep: Sweep, seed: u64, rep: u64, st: &mut EngineStats) -> Vec<World1> {
    let t = Instant::now();
    let d = Instant::now();
    black_box(uniform_points(M2_POINTS, M2_DIM, 0.0, 100.0, M2_DATA_SEED));
    st.datagen_s.push(d.elapsed().as_secs_f64());
    let ws = worlds(sweep, 1);
    let shuffled = crate::mix64(crate::mix64(seed) ^ rep) | 1;
    for w in worlds(sweep, 100) {
        if let Err(e) = run_world(&w, shuffled, &Tracer::new(false), 0, 0).check {
            st.problems
                .push(format!("warm-up on schedule seed {shuffled}: {e}"));
        }
    }
    st.setups.push(t.elapsed().as_secs_f64());
    ws
}

/// Run operations for `seconds` (at least [`MIN_OPS`]; `scale` > 1 runs
/// one small operation instead, see [`worlds`]).
pub fn load(sweep: Sweep, seed: u64, seconds: f64, scale: usize, tracer: &Tracer) -> EngineStats {
    let mut st = EngineStats::default();
    let ws = if scale == 1 {
        let mut ws = Vec::new();
        while crate::more_setups(&st.setups) {
            ws = setup(sweep, seed, st.setups.len() as u64, &mut st);
        }
        ws
    } else {
        worlds(sweep, scale)
    };
    let min_ops = if scale == 1 { MIN_OPS } else { 1 };
    let mut first: Option<Vec<Counters>> = None;
    let start = Instant::now();
    loop {
        let op = st.attempted;
        let ran: Vec<Ran> = st.clock.measure(|| {
            tracer.span("mpi.op", 0, op, |id| {
                ws.iter()
                    .map(|w| run_world(w, PROGRAM_ORDER, tracer, op, id))
                    .collect()
            })
        });
        st.attempted += 1;
        let op_s: f64 = ran.iter().map(|r| r.wall_s).sum();
        st.op_s.push(op_s);
        for (w, r) in ws.iter().zip(&ran) {
            st.world_s.entry(w.name).or_default().push(r.wall_s);
        }
        let counters: Vec<Counters> = ran.iter().map(|r| r.counters.clone()).collect();
        let mut problems: Vec<String> = ran.iter().filter_map(|r| r.check.clone().err()).collect();
        match &first {
            None => first = Some(counters),
            Some(c) if *c != counters => problems.push(format!(
                "op {op}: exact counters changed from {c:?} to {counters:?}"
            )),
            Some(_) => {}
        }
        if !problems.is_empty() {
            st.failed += 1;
            st.problems.extend(problems.into_iter().take(5));
        }
        let elapsed = start.elapsed().as_secs_f64();
        if st.op_s.len() >= min_ops && elapsed + op_s > seconds {
            break;
        }
    }
    let first = first.expect("at least one operation");
    st.pops = first.iter().map(|c| c.pops).sum();
    st.bytes_per_rank = first.iter().map(|c| c.bytes_per_rank).max().unwrap_or(0);
    st.msgs = first.iter().map(|c| c.msgs).sum();
    st.bytes = first.iter().map(|c| c.bytes).sum();
    if tracer.enabled() {
        match ws
            .iter()
            .map(serial_s)
            .sum::<std::result::Result<f64, String>>()
        {
            Ok(serial) => st.serial_s = Some(serial),
            Err(e) => st.problems.push(format!("one-rank baseline: {e}")),
        }
    }
    st
}

/// Throughput of `f` over `bytes` bytes per call, GB/s, timed for at
/// least 50 ms.
fn gbps(bytes: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    while calls < 1000 || t.elapsed().as_secs_f64() < 0.05 {
        f();
        calls += 1;
    }
    (bytes as u64 * calls) as f64 / t.elapsed().as_secs_f64() / 1e9
}

/// The runtime layers' ledger from a traced load.
pub fn ledger(st: &EngineStats, out: &mut Vec<Metric>) {
    let run_s = median(&st.op_s);
    // Codec at the workload's mean message payload (computed bytes: the
    // payload length times the calls made).
    let payload = (st.bytes / st.msgs.max(1)).max(8) as usize;
    let data: Vec<f64> = (0..payload / 8).map(|i| i as f64).collect();
    let bytes = data.len() * 8;
    let encoded = encode_slice(&data);
    let encode = gbps(bytes, || {
        black_box(encode_slice(black_box(&data[..])));
    });
    let decode = gbps(bytes, || {
        black_box(decode_vec::<f64>(black_box(&encoded[..])));
    });
    let datagen_ms = if st.datagen_s.is_empty() {
        let t = Instant::now();
        black_box(uniform_points(M2_POINTS, M2_DIM, 0.0, 100.0, M2_DATA_SEED));
        t.elapsed().as_secs_f64() * 1e3
    } else {
        median(&st.datagen_s) * 1e3
    };
    let serial = st.serial_s.unwrap_or(0.0);
    out.extend([
        Metric::new("mpi.event.pops", st.pops as f64, "count"),
        Metric::new("mpi.event.pops_per_s", st.pops as f64 / run_s, "1/s"),
        Metric::new("mpi.event.bytes_per_rank", st.bytes_per_rank as f64, "B"),
        Metric::new("mpi.comm.msgs_sent", st.msgs as f64, "count"),
        Metric::new("mpi.comm.bytes_sent", st.bytes as f64, "B"),
        Metric::new(
            "mpi.comm.us_per_msg",
            run_s * 1e6 / st.msgs.max(1) as f64,
            "us",
        ),
        Metric::new("mpi.datatype.encode_gbps", encode, "GB/s"),
        Metric::new("mpi.datatype.decode_gbps", decode, "GB/s"),
        Metric::new("core.serial_s", serial, "s"),
        Metric::new("mpi.overhead_s", run_s - serial, "s"),
        Metric::new("datagen.points_ms", datagen_ms, "ms"),
    ]);
}
