//! Algorithm-equivalence tests for the tuned collectives: every
//! [`CollAlgo`] variant must produce results *byte-identical* to the seed
//! flat algorithm — across operators, datatypes, rank counts, multi-node
//! placements, and scheduler seeds — and a tuning table must change only
//! the schedule, never the bytes. See `docs/collectives.md` for why each
//! variant can promise bit-equality (chunked reduces reuse the flat tree
//! and fold order; hierarchical reduces are gated on
//! `Reducible::exact_reassoc`).
//!
//! Every test chooses an algorithm the one way the runtime offers: a
//! tuning table, here one from [`TuningTable::forcing`]. The equivalence
//! tests run thread-per-rank at the default seed. The seed sweeps run as
//! step programs on the seeded event engine, where each seed permutes the
//! resume order.

use pdc_cluster::{Placement, PlacementPolicy};
use pdc_mpi::tune::{resolve, CollKind, PlacementLayout, SizeClass};
use pdc_mpi::{
    CollAlgo, Op, Reducible, Result, RunOutput, StepComm, StepFuture, StepProgram, TuningTable,
    World, WorldConfig,
};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// (ranks, nodes) placements: single node, uneven multi-node, and the
/// tuner's own topologies. 2–64 ranks.
const TOPOS: [(usize, usize); 6] = [(2, 1), (5, 2), (8, 4), (16, 4), (33, 8), (64, 8)];

/// Payload length in elements, sized so 8-byte types cross the chunking
/// threshold (2 × 64 KiB) with a remainder chunk.
const BIG: usize = 20_000;

/// Seeds of the event-engine sweeps.
const SEEDS: [u64; 3] = [0, 7, 2026];

/// An untuned test world.
fn world(ranks: usize, nodes: usize) -> WorldConfig {
    WorldConfig::new(ranks).on_nodes(nodes).without_tuning()
}

fn table() -> TuningTable {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../TUNING_mpi.json");
    TuningTable::load(&path).expect("checked-in TUNING_mpi.json loads")
}

/// Deterministic per-rank f64 payload with non-trivial mantissas, so any
/// re-association of a Sum would actually flip low bits.
fn f64_payload(rank: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((rank * 2654435761 + i * 40503 + 7) % 100_003) as f64 * 1.0e-3 + 1.0)
        .collect()
}

fn u64_payload(rank: usize, len: usize) -> Vec<u64> {
    (0..len)
        .map(|i| (rank as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ (i as u64) << 7)
        .collect()
}

fn i32_payload(rank: usize, len: usize) -> Vec<i32> {
    (0..len)
        .map(|i| ((rank * 31 + i * 17) as i32).wrapping_sub(5000))
        .collect()
}

/// One rank's allreduce results, floats as raw bits.
type AllreduceBits = (Vec<u64>, Vec<u64>, Vec<i32>);

/// Run one thread world where every rank allreduces the three payload
/// types with `algo` forced (or the seed flat path when `None`),
/// returning each rank's results as raw bits. Selection still clamps a
/// forced algorithm to what applies: a float `Sum` never reduces
/// hierarchically.
fn allreduce_bits(
    ranks: usize,
    nodes: usize,
    op: Op,
    algo: Option<CollAlgo>,
) -> Vec<AllreduceBits> {
    let cfg = match algo {
        None => world(ranks, nodes),
        Some(a) => {
            world(ranks, nodes).with_tuning(TuningTable::forcing(&[(CollKind::Allreduce, a)]))
        }
    };
    let out = World::run(cfg, move |comm| {
        let f = f64_payload(comm.rank(), BIG);
        let u = u64_payload(comm.rank(), BIG);
        let i = i32_payload(comm.rank(), 2 * BIG);
        let fr = comm.allreduce(&f, op)?;
        let ur = comm.allreduce(&u, op)?;
        let ir = comm.allreduce(&i, op)?;
        Ok((fr.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(), ur, ir))
    })
    .expect("world");
    out.values
}

#[test]
fn allreduce_algos_bitwise_match_flat_across_topologies() {
    for &(ranks, nodes) in &TOPOS {
        for op in [Op::Sum, Op::Prod, Op::Min, Op::Max] {
            let reference = allreduce_bits(ranks, nodes, op, None);
            for algo in [CollAlgo::Flat, CollAlgo::Chunked, CollAlgo::Hierarchical] {
                let got = allreduce_bits(ranks, nodes, op, Some(algo));
                assert_eq!(
                    got, reference,
                    "allreduce {op:?} via {algo:?} diverged from flat at {ranks}r/{nodes}n"
                );
            }
        }
    }
}

/// The three-payload `Sum` allreduce of [`allreduce_bits`] as a step
/// program, for the event engine.
struct AllreduceSum;

impl StepProgram<AllreduceBits> for AllreduceSum {
    fn build<'c, 'w: 'c>(
        &'c self,
        mut sc: StepComm<'c, 'w>,
    ) -> StepFuture<'c, Result<AllreduceBits>> {
        Box::pin(async move {
            let f = f64_payload(sc.rank(), BIG);
            let u = u64_payload(sc.rank(), BIG);
            let i = i32_payload(sc.rank(), 2 * BIG);
            let fr = sc.allreduce(&f, Op::Sum).await?;
            let ur = sc.allreduce(&u, Op::Sum).await?;
            let ir = sc.allreduce(&i, Op::Sum).await?;
            Ok((fr.iter().map(|x| x.to_bits()).collect(), ur, ir))
        })
    }
}

#[test]
fn allreduce_algos_bitwise_stable_under_sched_seeds() {
    let (ranks, nodes) = (16, 4);
    let reference = allreduce_bits(ranks, nodes, Op::Sum, None);
    for algo in [CollAlgo::Flat, CollAlgo::Chunked, CollAlgo::Hierarchical] {
        let table = TuningTable::forcing(&CollKind::ALL.map(|kind| (kind, algo)));
        let mut schedules = BTreeSet::new();
        for seed in 0..16u64 {
            let cfg = world(ranks, nodes)
                .with_sched_seed(seed)
                .with_tuning(table.clone());
            let out = World::run_event(cfg, &AllreduceSum).expect("event world");
            assert_eq!(
                out.values, reference,
                "allreduce Sum via {algo:?} diverged under sched seed {seed}"
            );
            assert!(
                out.total_stats().algo_volume(algo).calls > 0,
                "the table selected {algo:?} under seed {seed}"
            );
            schedules.insert(out.sched_trace);
        }
        assert!(
            schedules.len() > 1,
            "16 seeds should resume the {algo:?} allreduce in more than one order"
        );
    }
}

#[test]
fn bcast_and_reduce_algos_bitwise_match_flat() {
    // Non-zero root exercises the chain rotation in the pipelined bcast
    // and the vrank remapping in the chunked reduce.
    for &(ranks, nodes) in &[(5usize, 2usize), (16, 4), (64, 8)] {
        let root = 3 % ranks;
        let reference: Vec<(Vec<u64>, Option<Vec<u64>>)> =
            World::run(world(ranks, nodes), move |comm| {
                let f = f64_payload(comm.rank(), BIG);
                let seen = comm.bcast(
                    if comm.rank() == root {
                        Some(&f[..])
                    } else {
                        None
                    },
                    root,
                )?;
                let red = comm.reduce(&f, Op::Sum, root)?;
                Ok((
                    seen.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
                    red.map(|v| v.iter().map(|x| x.to_bits()).collect()),
                ))
            })
            .expect("world")
            .values;
        for algo in [CollAlgo::Flat, CollAlgo::Chunked, CollAlgo::Hierarchical] {
            let picks = [(CollKind::Bcast, algo), (CollKind::Reduce, algo)];
            let cfg = world(ranks, nodes).with_tuning(TuningTable::forcing(&picks));
            let got = World::run(cfg, move |comm| {
                let f = f64_payload(comm.rank(), BIG);
                let seen = comm.bcast(
                    if comm.rank() == root {
                        Some(&f[..])
                    } else {
                        None
                    },
                    root,
                )?;
                let red = comm.reduce(&f, Op::Sum, root)?;
                Ok((
                    seen.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
                    red.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()),
                ))
            })
            .expect("world")
            .values;
            assert_eq!(
                got, reference,
                "bcast/reduce via {algo:?} diverged from flat at {ranks}r/{nodes}n root {root}"
            );
        }
    }
}

#[test]
fn float_sum_never_runs_hierarchical_reduce() {
    // The re-association gate: a forced Hierarchical pick on a
    // non-exact (f64, Sum) reduce must downgrade to an algorithm that
    // preserves the flat fold order — verified here by bit-equality even
    // though hierarchical folding would give different low bits.
    assert!(!f64::exact_reassoc(Op::Sum));
    let flat = allreduce_bits(16, 4, Op::Sum, Some(CollAlgo::Flat));
    let hier = allreduce_bits(16, 4, Op::Sum, Some(CollAlgo::Hierarchical));
    assert_eq!(hier, flat);
}

/// The mixed-collective program used by the replay tests: every tuned
/// code path (bcast header, chunked chain, hierarchical barrier) in one
/// world.
struct Mixed;

impl StepProgram<Vec<u64>> for Mixed {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<Vec<u64>>> {
        Box::pin(async move {
            let rank = sc.rank();
            let f = f64_payload(rank, BIG);
            sc.barrier().await?;
            let b = sc.bcast((rank == 0).then_some(&f[..]), 0).await?;
            let s = sc.allreduce(&f, Op::Sum).await?;
            let g = sc.allgather(&[rank as u64]).await?;
            let mut bits: Vec<u64> = b.iter().chain(s.iter()).map(|x| x.to_bits()).collect();
            bits.extend(g);
            Ok(bits)
        })
    }
}

/// [`Mixed`] on the event engine at 32 ranks over 4 nodes.
fn run_mixed(seed: u64, t: Option<&TuningTable>) -> RunOutput<Vec<u64>> {
    let mut cfg = world(32, 4).with_sched_seed(seed);
    if let Some(t) = t {
        cfg = cfg.with_tuning(t.clone());
    }
    World::run_event(cfg, &Mixed).expect("event world")
}

#[test]
fn tuned_run_replays_bit_identically() {
    let t = table();
    let mut schedules = BTreeSet::new();
    for seed in SEEDS {
        let a = run_mixed(seed, Some(&t));
        let b = run_mixed(seed, Some(&t));
        assert!(
            !a.sched_trace.is_empty(),
            "the event engine records its resume order"
        );
        assert!(
            a.total_stats().algo_volume(CollAlgo::Hierarchical).calls > 0,
            "the checked-in table tunes the 32r/4n barrier"
        );
        assert_eq!(a.values, b.values, "tuned values drifted at seed {seed}");
        assert_eq!(
            a.sched_trace, b.sched_trace,
            "tuned schedule drifted at seed {seed}"
        );
        assert_eq!(
            a.sim_time.to_bits(),
            b.sim_time.to_bits(),
            "tuned sim clock drifted at seed {seed}"
        );
        schedules.insert(a.sched_trace);
    }
    assert_eq!(
        schedules.len(),
        SEEDS.len(),
        "each seed resumes the tuned run in its own order"
    );
}

#[test]
fn tuning_changes_schedule_not_bytes() {
    let t = table();
    let reference = run_mixed(0, None).values;
    for seed in SEEDS {
        let tuned = run_mixed(seed, Some(&t));
        let flat = run_mixed(seed, None);
        assert_eq!(
            tuned.values, reference,
            "a tuning table must never change results (seed {seed})"
        );
        assert_eq!(
            flat.values, reference,
            "flat results drifted at seed {seed}"
        );
        assert_ne!(
            tuned.sim_time.to_bits(),
            flat.sim_time.to_bits(),
            "the table changes the schedule's simulated time (seed {seed})"
        );
    }
}

#[test]
fn tuned_large_collectives_beat_flat_twofold_on_sim_clock() {
    // The acceptance cells from the tuned sweep (see BENCH_mpi.json and
    // docs/collectives.md): 1 MiB bcast at 64r/8n and 1 MiB allreduce at
    // 32r/4n must hold a ≥2× simulated-time win over the seed flat
    // algorithms.
    let t = Arc::new(table());
    let elems = (1 << 20) / 8;

    let bcast = |tab: Option<Arc<TuningTable>>| {
        let mut cfg = world(64, 8);
        if let Some(tab) = tab {
            cfg = cfg.with_tuning((*tab).clone());
        }
        World::run(cfg, move |comm| {
            let f = f64_payload(comm.rank(), elems);
            comm.bcast(if comm.rank() == 0 { Some(&f[..]) } else { None }, 0)?;
            Ok(())
        })
        .expect("world")
        .sim_time
    };
    let (flat, tuned) = (bcast(None), bcast(Some(t.clone())));
    assert!(
        flat >= 2.0 * tuned,
        "1 MiB bcast @ 64r/8n: flat {flat:.6e}s vs tuned {tuned:.6e}s — win below 2×"
    );

    let allreduce = |tab: Option<Arc<TuningTable>>| {
        let mut cfg = world(32, 4);
        if let Some(tab) = tab {
            cfg = cfg.with_tuning((*tab).clone());
        }
        World::run(cfg, move |comm| {
            let f = f64_payload(comm.rank(), elems);
            comm.allreduce(&f, Op::Sum)?;
            Ok(())
        })
        .expect("world")
        .sim_time
    };
    let (flat, tuned) = (allreduce(None), allreduce(Some(t)));
    assert!(
        flat >= 2.0 * tuned,
        "1 MiB allreduce @ 32r/4n: flat {flat:.6e}s vs tuned {tuned:.6e}s — win below 2×"
    );
}

#[test]
fn checked_in_table_selects_by_placement_policy() {
    // The tuning-table key regression (ISSUE 8): selection must be able
    // to differ between Block and RoundRobin placement at the very same
    // (op, bytes, ranks, nodes). The checked-in table measured both
    // layouts at 32r/4n, and on the CI machine class the node-aware
    // barrier only wins when each node's ranks are contiguous — under
    // round-robin the flat dissemination barrier is faster. Guarded
    // against drift by `mpi_tune --check`.
    let t = table();
    let pick = |policy| {
        let p = Placement::new(32, 4, 32, policy);
        let layout = PlacementLayout::of_placement(&p);
        resolve(Some(&t), CollKind::Barrier, 0, 32, 4, layout)
    };
    let blocked = pick(PlacementPolicy::Block);
    let scattered = pick(PlacementPolicy::RoundRobin);
    assert_eq!(blocked, CollAlgo::Hierarchical);
    assert_eq!(scattered, CollAlgo::Flat);
    assert_ne!(
        blocked, scattered,
        "placement policy must key the selection"
    );
    // And both size-32 layouts have dedicated cells: the lookup is
    // exact, not a nearest-neighbour fallback across layouts.
    for layout in PlacementLayout::ALL {
        assert!(t.cells.iter().any(|c| c.kind == CollKind::Barrier
            && c.size_class == SizeClass::Tiny
            && c.ranks == 32
            && c.nodes == 4
            && c.layout == layout));
    }
}

#[test]
fn subcomm_collectives_unchanged_by_tuning() {
    // Split 24r/4n into two colors (even/odd world ranks, interleaved
    // across nodes) and run the sub-collectives tuned and untuned: the
    // bytes must match bit-for-bit.
    let run = |t: Option<TuningTable>| {
        let mut cfg = world(24, 4);
        if let Some(t) = t {
            cfg = cfg.with_tuning(t);
        }
        World::run(cfg, move |comm| {
            let color = (comm.rank() % 2) as u32;
            let mut sc = comm.split(color, comm.rank() as i64)?;
            let f = f64_payload(comm.rank(), BIG);
            comm.sub_barrier(&mut sc)?;
            let root_data = if sc.rank() == 0 { Some(&f[..]) } else { None };
            let b = comm.sub_bcast(&mut sc, root_data, 0)?;
            let s = comm.sub_allreduce(&mut sc, &f, Op::Sum)?;
            let r = comm.sub_reduce(&mut sc, &f, Op::Max, 0)?;
            let mut bits: Vec<u64> = b.iter().chain(s.iter()).map(|x| x.to_bits()).collect();
            if let Some(r) = r {
                bits.extend(r.iter().map(|x| x.to_bits()));
            }
            Ok(bits)
        })
        .expect("world")
        .values
    };
    assert_eq!(run(Some(table())), run(None));
}
