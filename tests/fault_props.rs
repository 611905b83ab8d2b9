//! Fault-tolerance properties across the modules: a drops-only fault plan
//! (no crashes) plus the retry policy must be *invisible* — every module
//! returns byte-identical results to its fault-free run, and the checker
//! must attribute the injected faults to the plan rather than report them
//! as application defects.

use pdc_check::check_world;
use pdc_datagen::gaussian_mixture;
use pdc_modules::module1::random_comm_rank;
use pdc_modules::module3::{distribution_sort_rank, BucketStrategy, InputDist};
use pdc_modules::module5::{kmeans_rank, CommOption};
use pdc_mpi::{FaultPlan, Op, RetryPolicy, WorldConfig};
use proptest::prelude::*;

/// A drops-only plan whose losses the retry policy must fully repair.
fn drops_only(seed: u64, drop_rate: f64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_drop_rate(drop_rate)
        .with_retry(RetryPolicy::default())
}

/// Run a module program fault-free and under the plan, both under the
/// checker; the values must match exactly and neither report may carry a
/// violation.
fn assert_drops_are_invisible<T, F>(what: &str, plan: FaultPlan, f: F)
where
    T: Send + PartialEq + std::fmt::Debug,
    F: Fn(&mut pdc_mpi::Comm) -> pdc_mpi::Result<T> + Send + Sync,
{
    let baseline = check_world(WorldConfig::new(4), &f);
    let faulty = check_world(WorldConfig::new(4).with_faults(plan), &f);
    let base_values = baseline.result.expect("fault-free run").values;
    let fault_values = faulty.result.expect("lossy run with retry").values;
    assert_eq!(
        base_values, fault_values,
        "{what}: drops+retry changed results"
    );
    assert!(
        baseline.report.is_clean(),
        "{what}: {}",
        baseline.report.render()
    );
    assert!(
        faulty.report.is_clean(),
        "{what}: injected drops misreported as defects\n{}",
        faulty.report.render()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn drops_with_retry_are_invisible_to_every_module(
        plan_seed in 0u64..1000,
        drop_rate in 0.05f64..0.4,
        data_seed in 0u64..100,
    ) {
        // Module 1: random communication with named receives.
        assert_drops_are_invisible(
            "module1",
            drops_only(plan_seed, drop_rate),
            move |comm| random_comm_rank(comm, 3, data_seed, false),
        );

        // Module 3: distribution sort (probe + wildcard exchange).
        assert_drops_are_invisible(
            "module3",
            drops_only(plan_seed, drop_rate),
            move |comm| {
                distribution_sort_rank(
                    comm,
                    300,
                    InputDist::Exponential,
                    BucketStrategy::Histogram { bins: 32 },
                    data_seed,
                )
            },
        );

        // Module 5: k-means (scatter, broadcast, allreduce).
        let pts = gaussian_mixture(200, 2, 3, 100.0, 1.0, data_seed).points;
        assert_drops_are_invisible(
            "module5",
            drops_only(plan_seed, drop_rate),
            move |comm| kmeans_rank(comm, &pts, 3, CommOption::WeightedMeans, 1e-6),
        );
    }
}

#[test]
fn injected_drops_land_in_the_report_fault_section() {
    // Total loss without retry: the sends demonstrably injected faults,
    // and the checker files them under `faults`, not violations.
    let plan = FaultPlan::seeded(8)
        .with_drop_rate(0.5)
        .with_retry(RetryPolicy::default());
    let checked = check_world(WorldConfig::new(4).with_faults(plan), |comm| {
        let peer = comm.size() - 1 - comm.rank();
        let req = comm.isend(&[comm.rank() as u64], peer, 1)?;
        let (v, _) = comm.recv::<u64>(peer, 1)?;
        comm.wait_all_sends(vec![req])?;
        comm.allreduce(&v, Op::Sum)
    });
    checked.result.expect("run succeeds");
    assert!(checked.report.is_clean(), "{}", checked.report.render());
    assert!(
        !checked.report.faults.is_empty(),
        "a 50% drop rate over this much traffic must inject something"
    );
    let rendered = checked.report.render();
    assert!(rendered.contains("injected"), "{rendered}");
    assert!(
        rendered.contains("deliberate, not an application defect"),
        "{rendered}"
    );
}

#[test]
fn a_crashed_rank_is_reported_as_a_fault_not_a_deadlock() {
    // The deadlock/poison audit, end to end: a rank that dies by plan and
    // peers that error out with `RankFailed` must never be written up as
    // a deadlock, and the crash lands in the report's fault section with
    // its schedule spelled out.
    let plan = FaultPlan::seeded(6).crash_rank(1, 0.0);
    let checked = check_world(WorldConfig::new(3).with_faults(plan), |comm| {
        comm.allreduce(&[comm.rank() as u64], Op::Sum)
    });
    match checked.result {
        Err(pdc_mpi::Error::RankFailed { rank, .. }) => assert_eq!(rank, 1),
        other => panic!("expected RankFailed, got {other:?}"),
    }
    assert!(
        checked.report.is_clean(),
        "injected crash misreported:\n{}",
        checked.report.render()
    );
    let rendered = checked.report.render();
    assert!(
        rendered.contains("rank 1 crashed at simulated time"),
        "pinned fault text: {rendered}"
    );
    assert!(
        rendered.contains("scheduled by the fault plan"),
        "pinned fault text: {rendered}"
    );
    assert!(
        !checked
            .report
            .violations
            .iter()
            .any(|f| f.kind == pdc_check::FindingKind::Deadlock),
        "a typed rank failure is not a deadlock:\n{rendered}"
    );
}
