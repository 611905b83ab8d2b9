//! The lint clinic: the same defects, caught twice. `pdc-lint` reads
//! the *source* of a rank program and flags protocol bugs without ever
//! running it; `pdc-check` then executes the equivalent program and
//! confirms the diagnosis dynamically. Together they mirror the
//! MUST/ISP workflow: static screening first, dynamic verification
//! second.
//!
//! ```text
//! cargo run --release --example lint_clinic
//! ```

use pdc_suite::check::check_world;
use pdc_suite::lint::Linter;
use pdc_suite::mpi::{Comm, Result, WorldConfig};

/// The corpus sources are compiled *into this example as text* — they
/// are lint fodder, never built as Rust.
const SSEND_RING_SRC: &str = include_str!("../crates/lint/tests/corpus/ssend_ring.rs");
const MISALIGNED_BCAST_SRC: &str = include_str!("../crates/lint/tests/corpus/misaligned_bcast.rs");

fn cfg(size: usize) -> WorldConfig {
    WorldConfig::new(size)
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

fn lint_source(label: &str, src: &str) {
    let mut linter = Linter::new();
    linter.add_source(label, src);
    for report in linter.analyze_all() {
        print!("{}", report.render());
    }
}

/// Dynamic twin of `corpus/ssend_ring.rs`: every rank synchronous-sends
/// right before receiving from the left.
fn ssend_ring(comm: &mut Comm) -> Result<u64> {
    let rank = comm.rank();
    let size = comm.size();
    let right = (rank + 1) % size;
    let left = (rank + size - 1) % size;
    comm.ssend(&[rank as u64], right, 0)?;
    let (got, _status) = comm.recv::<u64>(left, 0)?;
    Ok(got[0])
}

/// Dynamic twin of `corpus/misaligned_bcast.rs`: rank 0 broadcasts from
/// root 0 while everyone else waits on root 1.
fn misaligned_bcast(comm: &mut Comm) -> Result<u64> {
    let seed = [7u64; 4];
    let got = if comm.rank() == 0 {
        comm.bcast(Some(&seed), 0)?
    } else {
        comm.bcast(None, 1)?
    };
    Ok(got.first().copied().unwrap_or(0))
}

fn main() {
    banner("1a. ssend ring — static lint (no execution)");
    lint_source("corpus/ssend_ring.rs", SSEND_RING_SRC);

    banner("1b. ssend ring — dynamic check (pdc-check)");
    let checked = check_world(cfg(3), ssend_ring);
    print!("{}", checked.report.render());

    banner("2a. misaligned bcast root — static lint (no execution)");
    lint_source("corpus/misaligned_bcast.rs", MISALIGNED_BCAST_SRC);

    banner("2b. misaligned bcast root — dynamic check (pdc-check)");
    let checked = check_world(cfg(3), misaligned_bcast);
    print!("{}", checked.report.render());

    println!(
        "\nlesson: the lint found both protocol bugs from the source alone —\n\
         before any rank ever ran — and the dynamic checker confirmed them\n\
         on a live schedule. Static analysis screens every path cheaply but\n\
         must approximate data-dependent behaviour; the checker is exact on\n\
         the schedules it sees. Use both (see docs/linting.md)."
    );
}
