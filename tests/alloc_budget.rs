//! Allocation budgets of the event engine: its message path and its
//! per-rank set-up.
//!
//! Module 3's bucket exchange leaves one pending envelope per peer in
//! every mailbox, so each message crosses the deep-mailbox matching
//! index. The index must not allocate per envelope: its buffers grow with
//! the deepest queue and are reused. This test counts the heap
//! allocations a 256-rank run makes and holds them under a quarter per
//! message sent.
//!
//! It is its own test binary because it installs a counting global
//! allocator. The count is per thread, and the event engine runs every
//! rank on the calling thread, so other tests' threads cannot disturb it.

use pdc_modules::module3::{BucketStrategy, DistributionSortProgram, InputDist};
use pdc_mpi::{Result, StepComm, StepFuture, StepProgram, World, WorldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// New heap blocks allocated on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting `alloc` and `alloc_zeroed` calls per
/// thread. A `realloc` grows a buffer that already exists, so it is not
/// counted as a new allocation.
struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations per sent message the run may make.
const BUDGET: f64 = 0.25;

#[test]
fn distribution_sort_allocates_under_a_quarter_per_message() {
    let ranks = 256;
    let program = DistributionSortProgram {
        n_per_rank: 64,
        dist: InputDist::Uniform,
        strategy: BucketStrategy::Histogram { bins: 4 * ranks },
        seed: 7,
    };
    let cfg = WorldConfig::new(ranks)
        .on_nodes(ranks / 32)
        .with_eager_threshold(usize::MAX)
        .without_tuning();
    let before = ALLOCS.with(Cell::get);
    let out = World::run_event(cfg, &program).expect("the sort runs");
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(
        out.values.iter().all(|&(_, sorted)| sorted),
        "every slice is sorted"
    );
    let msgs = out.total_stats().msgs_sent;
    let per_msg = allocs as f64 / msgs as f64;
    println!("{allocs} allocations for {msgs} messages: {per_msg:.3} per message");
    assert!(
        per_msg < BUDGET,
        "{allocs} allocations for {msgs} messages is {per_msg:.3} per message, over {BUDGET}"
    );
}

/// A rank body that returns at once.
struct Idle;

impl StepProgram<()> for Idle {
    fn build<'c, 'w: 'c>(&'c self, _sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<()>> {
        Box::pin(async { Ok(()) })
    }
}

/// Heap allocations per rank an idle world may make: the rank's state
/// machine and its wait cell, plus the engine's per-world vectors spread
/// over the ranks. The communicator itself allocates nothing.
const SETUP_BUDGET: f64 = 2.2;

#[test]
fn an_idle_rank_allocates_only_its_future_and_wait_cell() {
    let ranks = 4096;
    let cfg = WorldConfig::new(ranks).without_tuning();
    let before = ALLOCS.with(Cell::get);
    World::run_event(cfg, &Idle).expect("the idle world runs");
    let allocs = ALLOCS.with(Cell::get) - before;
    let per_rank = allocs as f64 / ranks as f64;
    println!("{allocs} allocations for {ranks} idle ranks: {per_rank:.3} per rank");
    assert!(
        per_rank <= SETUP_BUDGET,
        "{allocs} allocations for {ranks} idle ranks is {per_rank:.3} per rank, over {SETUP_BUDGET}"
    );
}
