//! The correctness clinic: four deliberately buggy MPI programs run under
//! the `pdc-check` checker, which explains each defect the way MUST or
//! ISP would — mismatched collectives as a per-rank diff, a deadlock as a
//! wait-for cycle, a message race confirmed by perturbed re-execution,
//! and finalize-time leaks with the call sites that produced them.
//!
//! ```text
//! cargo run --release --example correctness_clinic
//! ```

use pdc_suite::check::{check_world, check_world_confirm};
use pdc_suite::mpi::{Comm, Op, Result, WorldConfig, ANY_SOURCE, ANY_TAG};

fn cfg(size: usize) -> WorldConfig {
    WorldConfig::new(size)
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Bug 1: rank 0 broadcasts while everyone else reduces. Both calls
/// happen to return, so only the checker notices.
fn mismatched_collectives(comm: &mut Comm) -> Result<()> {
    if comm.rank() == 0 {
        comm.bcast(Some(&[1.0f64]), 0)?;
    } else {
        comm.reduce(&[1.0f64], Op::Sum, 0)?;
    }
    Ok(())
}

/// Bug 2: a synchronous-send ring — every rank ssends right before
/// receiving from the left, so all of them block forever.
fn ssend_ring(comm: &mut Comm) -> Result<u64> {
    let right = (comm.rank() + 1) % comm.size();
    let left = (comm.rank() + comm.size() - 1) % comm.size();
    comm.ssend(&[comm.rank() as u64], right, 0)?;
    let (v, _) = comm.recv::<u64>(left, 0)?;
    Ok(v[0])
}

/// Bug 3: rank 0 combines two wildcard receives order-dependently
/// (`a*10 + b`), so the answer depends on which message matches first.
fn racy_fan_in(comm: &mut Comm) -> Result<u64> {
    if comm.rank() == 0 {
        comm.barrier()?;
        let (a, _) = comm.recv::<u64>(ANY_SOURCE, ANY_TAG)?;
        let (b, _) = comm.recv::<u64>(ANY_SOURCE, ANY_TAG)?;
        Ok(a[0] * 10 + b[0])
    } else {
        if comm.rank() == 1 {
            comm.charge_flops(1.0e9); // rank 1's send leaves later
        }
        comm.send(&[comm.rank() as u64], 0, 0)?;
        comm.barrier()?;
        Ok(0)
    }
}

/// Bug 4: a send nobody receives and an isend request dropped without a
/// wait — both invisible at runtime, both flagged at finalize.
fn leaky_finalize(comm: &mut Comm) -> Result<()> {
    if comm.rank() == 0 {
        comm.send(&[9.0f64, 9.0], 1, 42)?;
        let _dropped = comm.isend(&[1u8], 1, 43)?;
    }
    Ok(())
}

fn main() {
    banner("1. mismatched collectives");
    let checked = check_world(cfg(2), mismatched_collectives);
    print!("{}", checked.report.render());

    banner("2. synchronous-send ring deadlock");
    let checked = check_world(cfg(3), ssend_ring);
    print!("{}", checked.report.render());

    banner("3. message race (confirmed by perturbed delivery)");
    let checked = check_world_confirm(cfg(3), racy_fan_in, &(1..=16).collect::<Vec<u64>>());
    print!("{}", checked.report.render());

    banner("4. finalize-time leaks");
    let checked = check_world(cfg(2), leaky_finalize);
    print!("{}", checked.report.render());
    println!("\nthe same report, machine-readable:");
    println!("{}", checked.report.to_json());

    println!(
        "\nlesson: a parallel program that produces the right answer on one\n\
         run can still be wrong — correctness tools check the *protocol*,\n\
         not one lucky schedule."
    );
}
