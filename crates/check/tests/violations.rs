//! The checker against purpose-built failing programs: one test per
//! violation class, plus sanity checks that correct programs come back
//! clean.

use pdc_check::{check_world, check_world_confirm, FindingKind, Severity};
use pdc_mpi::{Op, WorldConfig, ANY_SOURCE, ANY_TAG};

fn cfg(size: usize) -> WorldConfig {
    WorldConfig::new(size)
}

#[test]
fn clean_program_reports_no_findings() {
    let checked = check_world(cfg(4), |comm| {
        let right = (comm.rank() + 1) % comm.size();
        let left = (comm.rank() + comm.size() - 1) % comm.size();
        let (got, _) = comm.sendrecv::<u64, u64>(&[comm.rank() as u64], right, 7, left, 7)?;
        let sum = comm.allreduce(&got, Op::Sum)?;
        comm.barrier()?;
        Ok(sum[0])
    });
    assert!(checked.report.is_clean(), "{}", checked.report.render());
    assert!(
        checked.report.warnings.is_empty(),
        "{}",
        checked.report.render()
    );
    let values = checked.result.expect("clean run succeeds").values;
    assert_eq!(values, vec![6, 6, 6, 6]);
}

#[test]
fn collective_name_mismatch_is_reported_with_per_rank_sites() {
    // Rank 0 enters a broadcast while rank 1 enters a reduction: the
    // classic mismatched-collective bug. Both happen to return (each
    // sends eagerly and never receives), so only the checker notices.
    let checked = check_world(cfg(2), |comm| {
        if comm.rank() == 0 {
            comm.bcast(Some(&[1.0f64]), 0)?;
        } else {
            comm.reduce(&[1.0f64], Op::Sum, 0)?;
        }
        Ok(())
    });
    let report = &checked.report;
    let finding = report
        .violations
        .iter()
        .find(|f| f.kind == FindingKind::CollectiveMismatch)
        .unwrap_or_else(|| panic!("collective mismatch detected\n{}", report.render()));
    // The diff names both calls and both call sites in this file.
    assert!(finding.message.contains("bcast"), "{}", finding.message);
    assert!(finding.message.contains("reduce"), "{}", finding.message);
    assert!(finding.message.contains("rank 0"), "{}", finding.message);
    assert!(finding.message.contains("rank 1"), "{}", finding.message);
    assert_eq!(finding.sites.len(), 2, "{}", report.render());
    for site in &finding.sites {
        assert!(site.contains("violations.rs"), "{site}");
    }
    // The stranded internal traffic corroborates as warnings.
    assert!(
        report
            .warnings
            .iter()
            .any(|w| w.kind == FindingKind::CollectiveMismatch),
        "{}",
        report.render()
    );
}

#[test]
fn collective_root_mismatch_is_reported() {
    let checked = check_world(cfg(2), |comm| {
        let root = comm.rank(); // BUG: roots must agree
        comm.bcast(Some(&[comm.rank() as u64]), root)?;
        Ok(())
    });
    let finding = checked
        .report
        .violations
        .iter()
        .find(|f| f.kind == FindingKind::CollectiveMismatch)
        .unwrap_or_else(|| panic!("root mismatch detected\n{}", checked.report.render()));
    assert!(finding.message.contains("root=0"), "{}", finding.message);
    assert!(finding.message.contains("root=1"), "{}", finding.message);
}

#[test]
fn collective_count_mismatch_is_reported() {
    let checked = check_world(cfg(2), |comm| {
        // BUG: gather requires equal contributions.
        let mine = vec![1.0f64; 1 + comm.rank()];
        let _ = comm.gather(&mine, 0);
        Ok(())
    });
    let finding = checked
        .report
        .violations
        .iter()
        .find(|f| f.kind == FindingKind::CollectiveMismatch)
        .unwrap_or_else(|| panic!("count mismatch detected\n{}", checked.report.render()));
    assert!(finding.message.contains("count=1"), "{}", finding.message);
    assert!(finding.message.contains("count=2"), "{}", finding.message);
}

#[test]
fn deadlock_is_explained_with_a_wait_for_cycle() {
    // Synchronous-send ring: every rank ssends right before receiving.
    let checked = check_world(cfg(3), |comm| {
        let right = (comm.rank() + 1) % comm.size();
        let left = (comm.rank() + comm.size() - 1) % comm.size();
        comm.ssend(&[comm.rank() as u64], right, 0)?;
        let (v, _) = comm.recv::<u64>(left, 0)?;
        Ok(v[0])
    });
    assert!(checked.result.is_err(), "ring must deadlock");
    let finding = checked
        .report
        .violations
        .iter()
        .find(|f| f.kind == FindingKind::Deadlock)
        .unwrap_or_else(|| panic!("deadlock reported\n{}", checked.report.render()));
    assert_eq!(finding.ranks, vec![0, 1, 2]);
    assert!(
        finding.message.contains("wait-for cycle"),
        "{}",
        finding.message
    );
    assert!(finding.message.contains("ssend"), "{}", finding.message);
    // Every blocked call points back into this test file.
    assert_eq!(finding.sites.len(), 3);
    for site in &finding.sites {
        assert!(site.contains("violations.rs"), "{site}");
    }
}

#[test]
fn confirmed_message_race_is_upgraded_to_violation() {
    // Ranks 1 and 2 both send to rank 0, which receives with ANY_SOURCE.
    // The barrier guarantees both messages are in flight before the first
    // receive, so the match is genuinely order-dependent; rank 1's send
    // carries a later simulated timestamp so the unperturbed baseline is
    // deterministic (rank 2 wins).
    let program = |comm: &mut pdc_mpi::Comm| -> pdc_mpi::Result<u64> {
        if comm.rank() == 0 {
            comm.barrier()?;
            let (a, _) = comm.recv::<u64>(ANY_SOURCE, ANY_TAG)?;
            let (b, _) = comm.recv::<u64>(ANY_SOURCE, ANY_TAG)?;
            Ok(a[0] * 10 + b[0])
        } else {
            if comm.rank() == 1 {
                comm.charge_flops(1.0e9);
            }
            comm.send(&[comm.rank() as u64], 0, 0)?;
            comm.barrier()?;
            Ok(0)
        }
    };
    let checked = check_world_confirm(cfg(3), program, &(1..=16).collect::<Vec<u64>>());
    let finding = checked
        .report
        .violations
        .iter()
        .find(|f| f.kind == FindingKind::MessageRace)
        .unwrap_or_else(|| panic!("race confirmed\n{}", checked.report.render()));
    assert_eq!(finding.severity, Severity::Error);
    assert!(finding.message.contains("CONFIRMED"), "{}", finding.message);
    assert!(finding.message.contains("in flight"), "{}", finding.message);
    assert_eq!(finding.sites.len(), 1);
    assert!(
        finding.sites[0].contains("violations.rs"),
        "{:?}",
        finding.sites
    );
}

#[test]
fn order_independent_wildcard_fan_in_stays_a_warning() {
    // Same shape, but the received values are summed: any delivery order
    // produces the same result, so perturbation cannot confirm a race.
    let program = |comm: &mut pdc_mpi::Comm| -> pdc_mpi::Result<u64> {
        if comm.rank() == 0 {
            comm.barrier()?;
            let (a, _) = comm.recv::<u64>(ANY_SOURCE, ANY_TAG)?;
            let (b, _) = comm.recv::<u64>(ANY_SOURCE, ANY_TAG)?;
            Ok(a[0] + b[0])
        } else {
            comm.send(&[comm.rank() as u64], 0, 0)?;
            comm.barrier()?;
            Ok(0)
        }
    };
    let checked = check_world_confirm(cfg(3), program, &[1, 2, 3, 4]);
    assert!(checked.report.is_clean(), "{}", checked.report.render());
    let warning = checked
        .report
        .warnings
        .iter()
        .find(|f| f.kind == FindingKind::MessageRace)
        .unwrap_or_else(|| panic!("candidate race noted\n{}", checked.report.render()));
    assert!(
        warning.message.contains("not confirmed"),
        "{}",
        warning.message
    );
}

#[test]
fn unmatched_send_and_request_leak_are_reported_at_finalize() {
    let checked = check_world(cfg(2), |comm| {
        if comm.rank() == 0 {
            // BUG: nobody ever receives this.
            comm.send(&[9.0f64, 9.0], 1, 42)?;
            // BUG: the request is dropped without a wait.
            let _req = comm.isend(&[1u8], 1, 43)?;
        }
        Ok(())
    });
    assert!(
        checked.result.is_ok(),
        "the program itself runs to completion"
    );
    let report = &checked.report;
    let unmatched = report
        .violations
        .iter()
        .find(|f| f.kind == FindingKind::UnmatchedSend && f.message.contains("tag 42"))
        .unwrap_or_else(|| panic!("unmatched send detected\n{}", report.render()));
    assert_eq!(unmatched.ranks, vec![0, 1]);
    assert!(
        unmatched.message.contains("16 bytes"),
        "{}",
        unmatched.message
    );
    assert!(
        unmatched.sites[0].contains("violations.rs"),
        "{:?}",
        unmatched.sites
    );
    let leak = report
        .violations
        .iter()
        .find(|f| f.kind == FindingKind::RequestLeak)
        .unwrap_or_else(|| panic!("request leak detected\n{}", report.render()));
    assert!(leak.message.contains("isend"), "{}", leak.message);
    // The leaked isend's payload is also an unmatched send.
    assert!(
        report
            .violations
            .iter()
            .any(|f| f.kind == FindingKind::UnmatchedSend && f.message.contains("tag 43")),
        "{}",
        report.render()
    );
}

#[test]
fn type_mismatch_is_reported_with_both_types() {
    let checked = check_world(cfg(2), |comm| {
        if comm.rank() == 0 {
            comm.send(&[1.0f64], 1, 0)?;
            Ok(0)
        } else {
            let (v, _) = comm.recv::<i32>(0, 0)?; // BUG: wrong element type
            Ok(v[0])
        }
    });
    assert!(checked.result.is_err(), "the runtime rejects the decode");
    let finding = checked
        .report
        .violations
        .iter()
        .find(|f| f.kind == FindingKind::TypeMismatch)
        .unwrap_or_else(|| panic!("type mismatch detected\n{}", checked.report.render()));
    assert!(finding.message.contains("f64"), "{}", finding.message);
    assert!(finding.message.contains("i32"), "{}", finding.message);
}

#[test]
fn sub_communicator_collectives_are_matched_per_communicator() {
    // Split 4 ranks into two halves. Both halves run a sub_allreduce —
    // but one member of the second half uses the wrong operator.
    let checked = check_world(cfg(4), |comm| {
        let mut half = comm.split((comm.rank() / 2) as u32, 0)?;
        let op = if comm.rank() == 3 { Op::Max } else { Op::Sum }; // BUG
        let _ = comm.sub_allreduce(&mut half, &[1.0f64], op);
        Ok(())
    });
    let finding = checked
        .report
        .violations
        .iter()
        .find(|f| f.kind == FindingKind::CollectiveMismatch)
        .unwrap_or_else(|| panic!("sub-comm mismatch detected\n{}", checked.report.render()));
    assert!(
        finding.message.contains("sub-communicator"),
        "{}",
        finding.message
    );
    assert!(finding.message.contains("op=Sum"), "{}", finding.message);
    assert!(finding.message.contains("op=Max"), "{}", finding.message);
    // Only the offending half is implicated.
    assert!(finding.message.contains("rank 2"), "{}", finding.message);
    assert!(!finding.message.contains("rank 0:"), "{}", finding.message);
}

#[test]
fn machine_readable_report_roundtrips() {
    let checked = check_world(cfg(2), |comm| {
        if comm.rank() == 0 {
            comm.send(&[1u8], 1, 5)?;
        }
        Ok(())
    });
    let json = checked.report.to_json();
    let parsed: pdc_check::Report = serde_json::from_str(&json).expect("report parses");
    assert_eq!(parsed, checked.report);
    assert!(json.contains("\"UnmatchedSend\""), "{json}");
}
