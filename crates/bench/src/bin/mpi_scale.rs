//! `mpi-scale` — strong-scaling sweeps at virtual-rank scale.
//!
//! ```text
//! mpi-scale                 256–4096-rank sweep, human-readable table
//! mpi-scale --json [PATH]   also write the suite as JSON (default
//!                           BENCH_scale.json in the working directory)
//! mpi-scale --check         exit 1 if any strong-scaling shape breaks
//! mpi-scale --sched-seed S  scheduling seed (default 0 — the baseline's)
//! mpi-scale --ranks N       world size of the stackless event-backend
//!                           points (default 100000; 1000000 works — see
//!                           EXPERIMENTS.md)
//! ```
//!
//! Every point runs on the event engine. Times are simulated (α–β +
//! roofline), so the sweep is bit-reproducible
//! and the committed `BENCH_scale.json` baseline is gated exactly by
//! `scripts/bench_gate`. See `docs/scheduler.md` and `EXPERIMENTS.md`.

use pdc_bench::scale::{run_scale_suite, ScaleConfig, SORT_MAX_RANKS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json: Option<String> = None;
    let mut check = false;
    let mut cfg = ScaleConfig::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--json" => {
                let path = match it.peek() {
                    Some(next) if !next.starts_with("--") => {
                        it.next().expect("peeked value").clone()
                    }
                    _ => "BENCH_scale.json".to_string(),
                };
                json = Some(path);
            }
            "--sched-seed" => {
                let Some(value) = it.next() else {
                    eprintln!("--sched-seed needs an unsigned integer");
                    return ExitCode::FAILURE;
                };
                match value.parse::<u64>() {
                    Ok(s) => cfg.seed = s,
                    Err(_) => {
                        eprintln!("--sched-seed must be an unsigned integer, got {value:?}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--ranks" => {
                let Some(value) = it.next() else {
                    eprintln!("--ranks needs a count (e.g. --ranks 100000)");
                    return ExitCode::FAILURE;
                };
                match value.parse::<usize>() {
                    Ok(n) if n >= 2 => cfg.event_ranks = n,
                    _ => {
                        eprintln!("--ranks must be an integer ≥ 2, got {value:?}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: mpi-scale [--json [PATH]] [--check] [--sched-seed S] [--ranks N]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    eprintln!("note: scale_sort capped at {SORT_MAX_RANKS} ranks (O(p²)-message exchange)");
    let suite = match run_scale_suite(cfg) {
        Ok(suite) => suite,
        Err(e) => {
            eprintln!("scale sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
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
        let markers = suite.shape_markers();
        if !markers.is_empty() {
            for m in &markers {
                eprintln!("SHAPE VIOLATION: {m}");
            }
            return ExitCode::FAILURE;
        }
        println!("shape check: strong-scaling curves match the paper's shapes");
    }
    ExitCode::SUCCESS
}
