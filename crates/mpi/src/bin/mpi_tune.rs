//! `mpi_tune` — measure the collective-algorithm tuning table and
//! persist it as `TUNING_mpi.json`.
//!
//! ```text
//! mpi_tune [--out PATH]        # retune and write the table (default)
//! mpi_tune --check [PATH]      # retune and diff against a checked-in table
//! mpi_tune --render [PATH]     # pretty-print a table as a winners grid
//! ```
//!
//! Each candidate runs as a step program on the event engine under a
//! table that forces it, and is timed on the simulated clock, so the
//! produced table is deterministic: `--check` re-runs the tuner and
//! fails (exit 1) if any cell differs from the file, in its winner or in
//! any algorithm's recorded time — the CI job that guards
//! `TUNING_mpi.json` against drifting out of sync with the runtime. See
//! `docs/collectives.md` for the selection rules the table feeds.

use pdc_mpi::tune::{autotune, tune_layouts, TuneCell, TUNE_TOPOS};
use pdc_mpi::TuningTable;
use std::io::Write;
use std::path::Path;

const DEFAULT_PATH: &str = "TUNING_mpi.json";

fn main() {
    let mut mode = Mode::Write;
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => mode = Mode::Check,
            "--render" => mode = Mode::Render,
            "--out" => path = Some(args.next().expect("--out needs a path")),
            "--help" | "-h" => {
                println!("usage: mpi_tune [--out PATH] | --check [PATH] | --render [PATH]");
                return;
            }
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    let path = path.unwrap_or_else(|| DEFAULT_PATH.to_string());
    let path = Path::new(&path);

    match mode {
        Mode::Render => {
            let table = load(path);
            render(&table);
        }
        Mode::Write => {
            let table = tune();
            table.save(path).unwrap_or_else(|e| {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            });
            render(&table);
            println!("wrote {} ({} cells)", path.display(), table.cells.len());
        }
        Mode::Check => {
            let on_disk = load(path);
            let fresh = tune();
            let mut drift = 0usize;
            for cell in &fresh.cells {
                let found = on_disk.cells.iter().find(|c| {
                    c.kind == cell.kind
                        && c.size_class == cell.size_class
                        && c.ranks == cell.ranks
                        && c.nodes == cell.nodes
                        && c.layout == cell.layout
                });
                match found {
                    None => {
                        println!(
                            "MISSING  {}  (fresh winner: {})",
                            label(cell),
                            cell.best.name()
                        );
                        drift += 1;
                    }
                    Some(c) if c != cell => {
                        println!("DRIFT    {}  {}", label(cell), difference(c, cell));
                        drift += 1;
                    }
                    Some(_) => {}
                }
            }
            if on_disk.cells.len() != fresh.cells.len() {
                println!(
                    "table has {} cells, tuner produced {}",
                    on_disk.cells.len(),
                    fresh.cells.len()
                );
                drift += 1;
            }
            if drift > 0 {
                eprintln!(
                    "{drift} cell(s) out of sync — re-run `mpi_tune --out {}`",
                    path.display()
                );
                std::process::exit(1);
            }
            println!(
                "{} is in sync ({} cells)",
                path.display(),
                fresh.cells.len()
            );
        }
    }
}

enum Mode {
    Write,
    Check,
    Render,
}

/// A cell's key, as a fixed-width row label.
fn label(cell: &TuneCell) -> String {
    format!(
        "{:<10} {:<5} {:>3}r/{:<2}n {:<9}",
        cell.kind.name(),
        cell.size_class.name(),
        cell.ranks,
        cell.nodes,
        cell.layout.name()
    )
}

/// How two cells of the same key differ: the winner, else the first
/// algorithm time that differs, else both cells in full.
fn difference(table: &TuneCell, tuner: &TuneCell) -> String {
    if table.best != tuner.best {
        return format!(
            "table says {}, tuner says {}",
            table.best.name(),
            tuner.best.name()
        );
    }
    let mut times = table.measured.iter().zip(&tuner.measured);
    if let Some((t, f)) = times.find(|(t, f)| t != f) {
        return format!(
            "table has {} {} us, tuner measured {} {} us",
            t.algo.name(),
            t.sim_us,
            f.algo.name(),
            f.sim_us
        );
    }
    format!("table has {table:?}, tuner has {tuner:?}")
}

fn load(path: &Path) -> TuningTable {
    TuningTable::load(path).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

fn tune() -> TuningTable {
    autotune(|done, total| {
        eprint!("\rtuning cell {done}/{total}");
        let _ = std::io::stderr().flush();
        if done == total {
            eprintln!();
        }
    })
    .unwrap_or_else(|e| {
        eprintln!("tuning world failed: {e}");
        std::process::exit(1);
    })
}

/// Winners grid: one row per (kind, size class), one column per
/// (topology, placement layout) the tuner measures.
fn render(table: &TuningTable) {
    println!(
        "machine class {} (v{}), {} cells",
        table.machine_class,
        table.version,
        table.cells.len()
    );
    let columns: Vec<(usize, usize, pdc_mpi::PlacementLayout)> = TUNE_TOPOS
        .iter()
        .flat_map(|&(r, n)| tune_layouts(n).iter().map(move |&l| (r, n, l)))
        .collect();
    print!("{:<10} {:<5}", "kind", "class");
    for &(r, n, l) in &columns {
        // Single-node columns have only the degenerate blocked layout;
        // drop the suffix there to keep the grid narrow.
        let label = if tune_layouts(n).len() > 1 {
            format!("{r}r/{n}n·{}", &l.name()[..4])
        } else {
            format!("{r}r/{n}n")
        };
        print!("  {label:>14}");
    }
    println!();
    let mut seen: Vec<(String, String)> = Vec::new();
    for cell in &table.cells {
        let key = (
            cell.kind.name().to_string(),
            cell.size_class.name().to_string(),
        );
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        print!("{:<10} {:<5}", cell.kind.name(), cell.size_class.name());
        for &(r, n, l) in &columns {
            let best = table
                .cells
                .iter()
                .find(|c| {
                    c.kind == cell.kind
                        && c.size_class == cell.size_class
                        && c.ranks == r
                        && c.nodes == n
                        && c.layout == l
                })
                .map(|c| c.best.name())
                .unwrap_or("-");
            print!("  {best:>14}");
        }
        println!();
    }
}
