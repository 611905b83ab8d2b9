//! `WorldConfig` environment overrides: valid values apply, malformed
//! values panic naming the offending value instead of being silently
//! ignored, the process snapshots the environment once (no leaking
//! between worlds), and explicit builder calls beat the environment.

use pdc_mpi::{World, WorldConfig};
use std::panic::catch_unwind;
use std::sync::Mutex;

/// Serializes the tests in this file: the process environment is global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with `pairs` set, forcing the runtime's snapshot to re-read
/// the mutated environment first and discarding it again afterwards so
/// the test's values cannot leak into other tests in this binary.
fn with_env<R>(pairs: &[(&str, &str)], f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (k, v) in pairs {
        std::env::set_var(k, v);
    }
    pdc_mpi::world::refresh_env_overrides();
    let out = f();
    for (k, _) in pairs {
        std::env::remove_var(k);
    }
    pdc_mpi::world::refresh_env_overrides();
    out
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic>".into())
}

#[test]
fn malformed_eager_threshold_panics_naming_the_value() {
    let msg = with_env(&[("PDC_MPI_EAGER_THRESHOLD", "banana")], || {
        panic_message(catch_unwind(|| WorldConfig::new(2)).expect_err("must panic"))
    });
    assert!(
        msg.contains("PDC_MPI_EAGER_THRESHOLD") && msg.contains("banana"),
        "the panic must name the variable and the offending value: {msg}"
    );
}

#[test]
fn well_formed_overrides_still_apply() {
    // A forced-rendezvous ring under an eager threshold of zero would
    // deadlock; a plain send/recv pair is protocol-agnostic and shows the
    // worlds still run with the override set.
    let out = with_env(&[("PDC_MPI_EAGER_THRESHOLD", "0")], || {
        World::run(WorldConfig::new(2), |comm| {
            if comm.rank() == 0 {
                comm.send(&[5u32], 1, 0)?;
                Ok(0)
            } else {
                Ok(comm.recv::<u32>(0, 0)?.0[0])
            }
        })
        .expect("overridden world runs")
    });
    assert_eq!(out.values[1], 5);
}

#[test]
fn snapshot_pins_the_environment_after_first_use() {
    // The first WorldConfig::new after a refresh snapshots the
    // environment; mutating a variable afterwards must not reconfigure
    // later worlds in the same process. (This is the leak that made
    // override tests order-dependent.)
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::remove_var("PDC_MPI_EAGER_THRESHOLD");
    pdc_mpi::world::refresh_env_overrides();
    let before = WorldConfig::new(2).eager_threshold;
    assert_eq!(before, usize::MAX, "unset variable yields the default");
    std::env::set_var("PDC_MPI_EAGER_THRESHOLD", "1234");
    let after = WorldConfig::new(2).eager_threshold;
    std::env::remove_var("PDC_MPI_EAGER_THRESHOLD");
    pdc_mpi::world::refresh_env_overrides();
    assert_eq!(
        after,
        usize::MAX,
        "a mid-process env mutation must not leak into later worlds"
    );
}

#[test]
fn builders_beat_the_environment_for_all_three_overrides() {
    let dir = std::env::temp_dir().join(format!("pdc_env_prec_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let table_path = dir.join("env_table.json");
    let env_table = pdc_mpi::tune::TuningTable {
        machine_class: "env-injected".into(),
        version: 1,
        cells: Vec::new(),
    };
    env_table.save(&table_path).expect("write tuning table");

    let cfg = with_env(
        &[
            ("PDC_MPI_EAGER_THRESHOLD", "4096"),
            ("PDC_MPI_SCHED_SEED", "99"),
            ("PDC_MPI_TUNE_FILE", table_path.to_str().unwrap()),
        ],
        || {
            WorldConfig::virtual_ranks(4, 2)
                .with_eager_threshold(64)
                .with_sched_seed(11)
                .with_tuning(pdc_mpi::tune::TuningTable {
                    machine_class: "builder-wins".into(),
                    version: 1,
                    cells: Vec::new(),
                })
        },
    );
    std::fs::remove_file(&table_path).ok();

    assert_eq!(cfg.eager_threshold, 64, "with_eager_threshold beats env");
    assert_eq!(cfg.sched_seed, 11, "with_sched_seed beats env");
    assert_eq!(
        cfg.tuning.expect("tuning table installed").machine_class,
        "builder-wins",
        "with_tuning beats env"
    );
}
