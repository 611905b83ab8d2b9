//! The Module 1 deadlock clinic: the same ring-exchange program run under
//! the eager and rendezvous protocols, plus the three standard fixes.
//!
//! The runtime detects the classic hang the instant the last rank blocks
//! and reports it as an error, so the lesson is observable without
//! killing the process.
//!
//! ```text
//! cargo run --release --example deadlock_clinic
//! ```

use pdc_suite::modules::module1::{ring_step, RingVariant};
use pdc_suite::mpi::{Error, World, WorldConfig};

fn try_ring(variant: RingVariant, eager_threshold: usize) -> Result<Vec<u64>, Error> {
    let cfg = WorldConfig::new(4).with_eager_threshold(eager_threshold);
    World::run(cfg, move |comm| ring_step(comm, variant)).map(|out| out.values)
}

fn main() {
    println!("ring exchange on 4 ranks: everyone sends right, receives from the left\n");

    println!("eager protocol (messages are buffered):");
    match try_ring(RingVariant::NaiveBlocking, usize::MAX) {
        Ok(v) => println!("  naive blocking ring completed: {v:?}"),
        Err(e) => println!("  unexpected failure: {e}"),
    }

    println!("\nrendezvous protocol (every send waits for its receive):");
    match try_ring(RingVariant::NaiveBlocking, 0) {
        Ok(_) => println!("  naive blocking ring completed (?!)"),
        Err(Error::Deadlock(info)) => {
            println!("  naive blocking ring DEADLOCKED — detected when the last rank blocked");
            for line in info.render().lines() {
                println!("    {line}");
            }
        }
        Err(e) => println!("  unexpected failure: {e}"),
    }

    println!("\nthe three fixes, still under rendezvous:");
    for (name, variant) in [
        ("parity-shifted ordering", RingVariant::ParityShifted),
        ("nonblocking isend/wait ", RingVariant::Nonblocking),
        ("combined sendrecv      ", RingVariant::SendRecv),
    ] {
        match try_ring(variant, 0) {
            Ok(v) => println!("  {name}: completed: {v:?}"),
            Err(e) => println!("  {name}: failed: {e}"),
        }
    }

    println!(
        "\nlesson: whether `MPI_Send` blocks is a protocol decision, not a\n\
         program-text one — correct programs must not rely on buffering."
    );
}
