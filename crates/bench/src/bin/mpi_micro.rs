//! `mpi-micro` — OSU-style wall-clock microbenchmarks for `pdc-mpi`.
//!
//! ```text
//! mpi-micro                 full suite, human-readable table
//! mpi-micro --quick         CI smoke budget (seconds)
//! mpi-micro --json [PATH]   also write the suite as JSON (default
//!                           BENCH_mpi.json in the working directory)
//! mpi-micro --check         exit 1 if any point breaks its sanity ceiling
//! mpi-micro --drop-rate P   inject message drops at rate P (0 ≤ P < 1),
//!                           repaired by the default retry policy; each
//!                           result records the rate in its `drop_rate`
//!                           field (fault-free points carry `null`)
//! mpi-micro --ranks N       world size for the collective points
//!                           (default 8)
//! mpi-micro --tune-file F   load a collective tuning table (see
//!                           docs/collectives.md) and measure each cell
//!                           of the simulated collective sweep twice —
//!                           seed flat (`…_sim[flat]`) and tuned
//!                           selection (`…_sim[auto]`); --check then
//!                           also gates the tuned-vs-flat speedup
//! mpi-micro --backend B     transport backend of the wall-clock
//!                           points: thread (default) or proc (one OS
//!                           process per rank over Unix sockets; every
//!                           world uses the --ranks size, the event-engine
//!                           cells are skipped, and each result records
//!                           `"backend": "proc"` — exempt from the
//!                           bench-gate thresholds)
//! ```
//!
//! The simulated-clock sweep and the mailbox-layer cells always run on
//! the seeded event engine (seed 0) and record `"backend": "event"`.
//!
//! The JSON artifact (`BENCH_mpi.json`) records wall-clock p50/p95 per
//! primitive and payload size so later PRs have a perf trajectory to
//! defend.

use pdc_bench::micro::{run_suite, Backend, MicroConfig};
use pdc_mpi::TuningTable;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut json: Option<String> = None;
    let mut check = false;
    let mut drop_rate: Option<f64> = None;
    let mut ranks: Option<usize> = None;
    let mut tune_file: Option<String> = None;
    let mut backend = Backend::Thread;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--json" => {
                let path = match it.peek() {
                    Some(next) if !next.starts_with("--") => {
                        it.next().expect("peeked value").clone()
                    }
                    _ => "BENCH_mpi.json".to_string(),
                };
                json = Some(path);
            }
            "--drop-rate" => {
                let Some(value) = it.next() else {
                    eprintln!("--drop-rate needs a probability (e.g. --drop-rate 0.1)");
                    return ExitCode::FAILURE;
                };
                match value.parse::<f64>() {
                    Ok(p) if (0.0..1.0).contains(&p) => drop_rate = Some(p),
                    _ => {
                        eprintln!("--drop-rate must be in [0, 1), got {value:?}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--ranks" => {
                let Some(value) = it.next() else {
                    eprintln!("--ranks needs a world size (e.g. --ranks 256)");
                    return ExitCode::FAILURE;
                };
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => ranks = Some(n),
                    _ => {
                        eprintln!("--ranks must be a positive integer, got {value:?}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--tune-file" => {
                let Some(value) = it.next() else {
                    eprintln!("--tune-file needs a path (e.g. --tune-file TUNING_mpi.json)");
                    return ExitCode::FAILURE;
                };
                tune_file = Some(value.clone());
            }
            "--backend" => {
                let Some(value) = it.next() else {
                    eprintln!("--backend needs a name: thread or proc");
                    return ExitCode::FAILURE;
                };
                match Backend::parse(value) {
                    Some(b) => backend = b,
                    None => {
                        eprintln!("unknown backend {value:?} (expected thread or proc)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: mpi-micro [--quick] [--json [PATH]] [--check] [--drop-rate P] \
                     [--ranks N] [--tune-file F] [--backend B]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let (mut cfg, mode) = if quick {
        (MicroConfig::quick(), "quick")
    } else {
        (MicroConfig::full(), "full")
    };
    cfg.drop_rate = drop_rate;
    if let Some(n) = ranks {
        cfg.coll_ranks = n;
    }
    cfg.backend = backend;
    let tuning = match tune_file {
        Some(path) => match TuningTable::load(std::path::Path::new(&path)) {
            Ok(table) => Some(table),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let suite = match run_suite(cfg, mode, tuning.as_ref()) {
        Ok(suite) => suite,
        Err(e) => {
            eprintln!("microbenchmark run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Under --backend proc each rank re-executes this binary from the top
    // (SPMD); only the parent coordinator may emit reports or artifacts.
    if pdc_mpi::is_proc_child() {
        return ExitCode::SUCCESS;
    }
    print!("{}", suite.render());

    if let Some(path) = json {
        let body = serde_json::to_string_pretty(&suite).expect("serializable suite");
        if let Err(e) = std::fs::write(&path, body + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if check {
        let markers = suite.regression_markers();
        if !markers.is_empty() {
            for m in &markers {
                eprintln!("REGRESSION: {m}");
            }
            return ExitCode::FAILURE;
        }
        println!("regression check: all points within ceilings");
    }
    ExitCode::SUCCESS
}
