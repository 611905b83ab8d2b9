//! Strong-scaling sweeps at virtual-rank scale (256–4096 ranks).
//!
//! The paper's Monsoon-cluster experiments stop where a thread-per-rank
//! runtime does — a few dozen ranks. The event engine
//! ([`pdc_mpi::event`]) runs every rank as a resumable state machine of
//! about a kilobyte on one thread, so these sweeps rerun Modules 2/3/6 at
//! cluster scale and reproduce the paper's strong-scaling *shapes*:
//!
//! * **Module 6** (1-D stencil, nodes scaled with ranks): while the
//!   per-rank slab is large the sweep is compute-dominated and speeds up
//!   ≈ linearly (256→1024); once slabs shrink to a few cache lines the
//!   α-dominated halo exchange takes over and the curve goes
//!   communication-limited (1024→4096);
//! * **Module 2** (distance matrix on a *fixed* 8-node allocation): the
//!   row scan is memory-bound, so once the eight node buses saturate,
//!   adding ranks stops helping — the curve flattens at the aggregate
//!   node-bandwidth ceiling;
//! * **Module 3** (distribution sort, nodes scaled with ranks): the
//!   exchange posts O(p²) messages, so past the compute-dominated regime
//!   strong scaling *reverses* — t(1024) > t(256) — the classic
//!   scaling-breakdown lesson the module teaches.
//!
//! Times are the *simulated* clock (α–β + roofline model), so a sweep is
//! bit-reproducible: the committed `BENCH_scale.json` baseline is exact,
//! and `scripts/bench_gate` gates on it without noise margins. Results
//! reuse the [`MicroResult`] schema (sim-time microseconds in the `p50`
//! slot) so the gate needs no second format.

use crate::micro::{MicroResult, MicroSuite};
use pdc_datagen::uniform_points;
use pdc_modules::module2::{Access, DistanceMatrixProgram};
use pdc_modules::module3::{BucketStrategy, DistributionSortProgram, InputDist};
use pdc_modules::module6::{stencil_step, HaloVariant, StencilProgram};
use pdc_mpi::{Result, StepComm, StepFuture, StepProgram, TuningTable, World, WorldConfig};

/// Rank counts of the sweep.
pub const SCALE_RANKS: [usize; 3] = [256, 1024, 4096];

/// Rank count of the stackless event-backend points (`--ranks`); the
/// discrete-event engine holds per-rank state in O(bytes), not an OS
/// thread stack, so 10^5–10^6 virtual ranks are practical. The committed
/// baseline uses 10^5; `EXPERIMENTS.md` shows the 10^6 repro.
pub const EVENT_RANKS: usize = 100_000;

/// Module 3's exchange posts one message per (rank, peer) pair — O(p²)
/// messages. At 4096 ranks that is ~17M in-flight envelopes; the sweep
/// caps the sort at 1024 ranks and says so, rather than silently
/// shrinking the input until the point is meaningless.
pub const SORT_MAX_RANKS: usize = 1024;

/// Ranks per simulated node when the allocation scales with the sweep.
pub const RANKS_PER_NODE: usize = 32;

/// Fixed node allocation for the memory-bound (flattening) sweep.
pub const FIXED_NODES: usize = 8;

/// Points in the Module 2 distance matrix (strong scaling: fixed input).
pub const M2_POINTS: usize = 4096;

/// Total elements sorted (strong scaling: fixed input).
pub const TOTAL_ELEMS: usize = 1 << 18;

/// Total stencil grid points — sized so the 256-rank slabs are big
/// enough for a compute-dominated (≈ linear) regime at the sweep's low
/// end.
pub const STENCIL_ELEMS: usize = 1 << 20;

/// Stencil sweeps per point.
pub const STENCIL_ITERS: usize = 16;

/// Scheduling parameters of a sweep run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Scheduling seed (`PDC_MPI_SCHED_SEED` semantics); the committed
    /// baseline uses 0.
    pub seed: u64,
    /// World size of the event-backend points (`--ranks`); the committed
    /// baseline uses [`EVENT_RANKS`].
    pub event_ranks: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            event_ranks: EVENT_RANKS,
        }
    }
}

fn virtual_cfg(ranks: usize, nodes: usize, cfg: ScaleConfig) -> WorldConfig {
    WorldConfig::new(ranks)
        .with_sched_seed(cfg.seed)
        .on_nodes(nodes)
}

/// Module 6's halo-exchange body alone (no checksum reduction), as the
/// strong-scaling points time it.
struct StencilSweep {
    n_per_rank: usize,
}

impl StepProgram<Vec<f64>> for StencilSweep {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<Vec<f64>>> {
        let n_per_rank = self.n_per_rank;
        Box::pin(async move {
            stencil_step(
                &mut sc,
                n_per_rank,
                STENCIL_ITERS,
                HaloVariant::BlockingFirst,
            )
            .await
        })
    }
}

/// Run `program` on `world` on the event engine and record its simulated
/// time and per-rank engine memory as the sweep point `bench`.
fn point<T, P: StepProgram<T>>(
    bench: &str,
    world: WorldConfig,
    payload_bytes: usize,
    program: &P,
    cfg: ScaleConfig,
) -> Result<MicroResult> {
    let ranks = world.size;
    let (result, mem) = World::run_event_with_mem(world, program);
    let us = result?.sim_time * 1e6;
    Ok(MicroResult {
        bench: bench.to_string(),
        ranks,
        payload_bytes,
        iters: 1,
        p50_us: us,
        p95_us: us,
        mean_us: us,
        mb_per_s: None,
        drop_rate: None,
        sched_seed: Some(cfg.seed),
        backend: Some("event".to_string()),
        bytes_per_rank: Some(mem.bytes_per_rank as u64),
        layer: None,
    })
}

fn module2_program() -> DistanceMatrixProgram {
    DistanceMatrixProgram {
        points: uniform_points(M2_POINTS, 8, 0.0, 100.0, 42),
        access: Access::RowWise,
    }
}

/// Module 2 at `ranks` ranks on the fixed [`FIXED_NODES`]-node
/// allocation: the memory-bound point of the sweep.
pub fn module2_point(ranks: usize, cfg: ScaleConfig) -> Result<MicroResult> {
    let world = virtual_cfg(ranks, FIXED_NODES, cfg);
    point(
        "scale_module2",
        world,
        M2_POINTS * 8 * 8,
        &module2_program(),
        cfg,
    )
}

/// Module 3 at `ranks` ranks, [`RANKS_PER_NODE`] per node: the
/// near-linear point of the sweep (fixed total input of
/// [`TOTAL_ELEMS`] elements).
pub fn sort_point(ranks: usize, cfg: ScaleConfig) -> Result<MicroResult> {
    let program = DistributionSortProgram {
        n_per_rank: TOTAL_ELEMS / ranks,
        dist: InputDist::Uniform,
        strategy: BucketStrategy::Histogram { bins: 4 * ranks },
        seed: 7,
    };
    let world = virtual_cfg(ranks, ranks / RANKS_PER_NODE, cfg);
    point("scale_sort", world, TOTAL_ELEMS * 8, &program, cfg)
}

/// Module 6 at `ranks` ranks, [`RANKS_PER_NODE`] per node: fixed
/// [`STENCIL_ELEMS`]-point grid, so per-rank slabs shrink with p while
/// the per-iteration halo latency does not — ≈ linear while
/// compute-dominated, communication-limited at the top of the sweep.
pub fn stencil_point(ranks: usize, cfg: ScaleConfig) -> Result<MicroResult> {
    let program = StencilSweep {
        n_per_rank: STENCIL_ELEMS / ranks,
    };
    let world = virtual_cfg(ranks, ranks / RANKS_PER_NODE, cfg);
    point("scale_stencil", world, STENCIL_ELEMS * 8, &program, cfg)
}

/// Module 2 at `cfg.event_ranks` virtual ranks: scatter of row
/// assignments, the row scan, one reduction. The engine's heap touches
/// O(events) state, so the sweep's memory is the per-rank footprint
/// reported in `bytes_per_rank` — not `ranks` OS thread stacks.
pub fn event_module2_point(cfg: ScaleConfig) -> Result<MicroResult> {
    let world = virtual_cfg(cfg.event_ranks, FIXED_NODES, cfg);
    let bench = "scale_module2_event";
    point(bench, world, M2_POINTS * 8 * 8, &module2_program(), cfg)
}

/// [`event_module2_point`] with the checked-in `TUNING_mpi.json`
/// installed: every collective goes through algorithm selection on the
/// event backend, as it does on the others.
pub fn event_module2_tuned_point(cfg: ScaleConfig) -> Result<MicroResult> {
    let table = TuningTable::from_json(include_str!("../../../TUNING_mpi.json"))
        .expect("checked-in TUNING_mpi.json parses");
    let world = virtual_cfg(cfg.event_ranks, FIXED_NODES, cfg).with_tuning(table);
    let bench = "scale_module2_event[auto]";
    point(bench, world, M2_POINTS * 8 * 8, &module2_program(), cfg)
}

/// Module 6 at `cfg.event_ranks` virtual ranks: per-iteration halo
/// isends, receives, and deferred waits — the densest park/resume
/// pattern of the three modules.
pub fn event_stencil_point(cfg: ScaleConfig) -> Result<MicroResult> {
    let ranks = cfg.event_ranks;
    // Fixed per-rank slab (weak scaling): a fixed total grid would
    // vanish under 10^5 ranks.
    let program = StencilProgram {
        n_per_rank: 16,
        iters: 4,
        variant: HaloVariant::BlockingFirst,
    };
    let world = virtual_cfg(ranks, (ranks / RANKS_PER_NODE).max(1), cfg);
    point("scale_stencil_event", world, ranks * 16 * 8, &program, cfg)
}

/// The full 256–4096-rank sweep (the sort capped at
/// [`SORT_MAX_RANKS`]; see there), plus the event-backend points at
/// [`ScaleConfig::event_ranks`], Module 2 both untuned and tuned.
pub fn run_scale_suite(cfg: ScaleConfig) -> Result<MicroSuite> {
    let mut results = Vec::new();
    for &ranks in &SCALE_RANKS {
        results.push(module2_point(ranks, cfg)?);
    }
    for &ranks in &SCALE_RANKS {
        if ranks <= SORT_MAX_RANKS {
            results.push(sort_point(ranks, cfg)?);
        }
    }
    for &ranks in &SCALE_RANKS {
        results.push(stencil_point(ranks, cfg)?);
    }
    results.push(event_module2_point(cfg)?);
    results.push(event_module2_tuned_point(cfg)?);
    results.push(event_stencil_point(cfg)?);
    Ok(MicroSuite {
        suite: "pdc-mpi-scale".to_string(),
        mode: "sim".to_string(),
        results,
    })
}

impl MicroSuite {
    /// The paper's strong-scaling shapes, asserted: the stencil is ≈
    /// linear while compute-dominated and comm-limited past that,
    /// memory-bound Module 2 flattens on its fixed allocation, and the
    /// sort's O(p²) exchange reverses its curve. Returns the violations.
    pub fn shape_markers(&self) -> Vec<String> {
        let t = |bench: &str, ranks: usize| {
            self.results
                .iter()
                .find(|r| r.bench == bench && r.ranks == ranks)
                .map(|r| r.p50_us)
        };
        let mut bad = Vec::new();
        if let (Some(small), Some(large)) = (t("scale_module2", 256), t("scale_module2", 4096)) {
            // 16× the ranks on the same eight buses: the curve must be
            // flat (memory-bound), i.e. nowhere near another 2× speedup.
            if small / large > 2.0 {
                bad.push(format!(
                    "module2 should flatten at the node-bandwidth ceiling: \
                     t(256)={small:.0}µs vs t(4096)={large:.0}µs"
                ));
            }
        }
        if let (Some(small), Some(large)) = (t("scale_sort", 256), t("scale_sort", 1024)) {
            // Fixed total input, 4× the ranks: the α-dominated O(p²)
            // exchange must have reversed the curve by 1024 ranks.
            if large < small {
                bad.push(format!(
                    "sort strong scaling should reverse under the O(p²) exchange: \
                     t(256)={small:.0}µs vs t(1024)={large:.0}µs"
                ));
            }
        }
        if let (Some(s256), Some(s1024), Some(s4096)) = (
            t("scale_stencil", 256),
            t("scale_stencil", 1024),
            t("scale_stencil", 4096),
        ) {
            // Compute-dominated regime: 4× ranks buys ≥ 2.5× (ideal 4×).
            let low_end = s256 / s1024;
            if low_end < 2.5 {
                bad.push(format!(
                    "stencil should be ≈ linear while compute-dominated: \
                     t(256)={s256:.0}µs vs t(1024)={s1024:.0}µs ({low_end:.2}×)"
                ));
            }
            // Comm-limited past that: total speedup well short of 16×.
            let total = s256 / s4096;
            if !(1.0..10.0).contains(&total) {
                bad.push(format!(
                    "stencil should go comm-limited at the top of the sweep: \
                     t(256)={s256:.0}µs vs t(4096)={s4096:.0}µs ({total:.2}×)"
                ));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_points_are_deterministic() {
        let cfg = ScaleConfig::default();
        let a = stencil_point(256, cfg).expect("stencil runs");
        let b = stencil_point(256, cfg).expect("stencil runs");
        assert_eq!(a.p50_us, b.p50_us, "simulated time is bit-identical");
    }

    #[test]
    fn shape_markers_flag_inverted_shapes() {
        let mk = |bench: &str, ranks: usize, us: f64| MicroResult {
            bench: bench.into(),
            ranks,
            payload_bytes: 0,
            iters: 1,
            p50_us: us,
            p95_us: us,
            mean_us: us,
            mb_per_s: None,
            drop_rate: None,
            sched_seed: Some(0),
            backend: None,
            bytes_per_rank: None,
            layer: None,
        };
        let suite = MicroSuite {
            suite: "pdc-mpi-scale".into(),
            mode: "sim".into(),
            results: vec![
                // Memory-bound curve that (wrongly) keeps speeding up.
                mk("scale_module2", 256, 4000.0),
                mk("scale_module2", 4096, 100.0),
                // Sort whose curve (wrongly) fails to reverse.
                mk("scale_sort", 256, 1000.0),
                mk("scale_sort", 1024, 900.0),
            ],
        };
        let bad = suite.shape_markers();
        assert_eq!(bad.len(), 2, "{bad:?}");
    }
}
