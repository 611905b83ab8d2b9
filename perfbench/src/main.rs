//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <lab-zipf|event-sweep|sort-exchange>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in this process (so the peak
//! resident set is that workload's own), checks every output, prints a
//! human-readable report on lines starting with `#`, and prints one JSON
//! object as its last line: `correct`, `attempted`, `failed`, and the
//! metrics. `--trace 0` reports the end-to-end metrics. `--trace 1`
//! records spans around the benchmark's calls into each layer, writes
//! them to `perfbench/out/`, and reports the per-layer metrics, including
//! what the span recording added to each operation. Every traced run reports
//! every layer: the layers its workload does not cross are measured on a
//! small reference run of the other workload family. See
//! `perfbench/README.md` for what each metric should move.

mod engine;
mod lab;
mod spans;
mod sys;

use serde::Serialize;
use spans::Tracer;
use std::process::ExitCode;

/// Set-ups per run: at least `MIN_SETUPS`, then more while all of them
/// together took less than `SETUP_BUDGET_S`, up to `MAX_SETUPS`.
/// `setup_s` is their median. A lab set-up takes about 2 ms, so it gets
/// many repetitions.
const MIN_SETUPS: usize = 9;
const MAX_SETUPS: usize = 250;
const SETUP_BUDGET_S: f64 = 4.0;

/// Should a run set up once more, given the set-up times so far?
pub fn more_setups(setups: &[f64]) -> bool {
    setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric with its unit.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// splitmix64: the benchmark's only source of randomness.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `p` of `xs` (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A finished run: the verdict, the metrics, and report lines.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    report: Vec<String>,
}

/// The end-to-end metrics every workload reports. The tail is p90, not
/// p99: on lab-zipf the p99 round trip measures how much CPU steal the
/// host imposed during the run (3–11 ms across windows of one run), so it
/// cannot be held to a bound; it is printed in the report instead.
fn end_to_end(setups: &[f64], op_ms: &[f64], ops: usize, clock: &sys::PhaseClock) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", median(setups), "s"),
        Metric::new("latency_p50_ms", percentile(op_ms, 0.50), "ms"),
        Metric::new("latency_p90_ms", percentile(op_ms, 0.90), "ms"),
        Metric::new("throughput_ops", ops as f64 / clock.wall_s, "op/s"),
        Metric::new("cpu_ms_per_op", clock.cpu_s * 1e3 / ops.max(1) as f64, "ms"),
        Metric::new("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
    ]
}

/// Report line on the set-ups behind `setup_s`.
fn setup_line(setups: &[f64]) -> String {
    format!(
        "setup_s from {} set-ups: min {} median {} max {}",
        setups.len(),
        percentile(setups, 0.0),
        median(setups),
        percentile(setups, 1.0)
    )
}

/// What recording spans added to one operation, as a share of the median
/// operation: spans recorded per operation times the calibrated cost of
/// one span.
fn overhead_pct(spans: usize, ops: usize, op_median: f64) -> Metric {
    let per_op_s = spans as f64 / ops.max(1) as f64 * Tracer::cost_per_span_s();
    Metric::new(
        "bench.trace_overhead_pct",
        per_op_s / op_median * 100.0,
        "%",
    )
}

fn run_lab(args: &Args, tracer: &Tracer) -> Outcome {
    let clients = lab::clients();
    let server = lab::server_config(clients);
    let reqs = lab::Requests::new(args.seed);
    let mut report = vec![format!(
        "nproc {} clients {clients} server executors {} http_workers {} (in-memory cache; windows of {} requests)",
        sys::nproc(),
        server.executors,
        server.http_workers,
        lab::WINDOW
    )];
    let mut metrics = Vec::new();
    let st = lab::load(
        &reqs,
        clients,
        args.seconds,
        lab::WINDOW,
        usize::MAX,
        tracer,
    );
    let mut problems = st.problems.clone();
    report.push(setup_line(&st.setups));
    if args.trace {
        let rtt_s = median(&st.lat_ms) / 1e3;
        metrics.push(overhead_pct(tracer.len(), st.attempted as usize, rtt_s));
        lab::ledger(&st, tracer, &mut metrics, &mut problems);
        let mini = engine::load(engine::Sweep::EventSweep, args.seed, 0.0, 10, tracer);
        problems.extend(mini.problems.iter().cloned());
        engine::ledger(&mini, &mut metrics);
        report.push("runtime layers measured on event-sweep at 10^4 ranks".into());
    } else {
        metrics = end_to_end(&st.setups, &st.lat_ms, st.lat_ms.len(), &st.clock);
    }
    let served: u64 = st
        .windows
        .iter()
        .map(|w| w.delta.cache_hits + w.delta.coalesced)
        .sum();
    let misses: u64 = st.windows.iter().map(|w| w.delta.cache_misses).sum();
    report.push(format!(
        "{} windows, {} requests, hit rate {:.4}, misses {}",
        st.windows.len(),
        st.attempted,
        served as f64 / st.attempted.max(1) as f64,
        misses
    ));
    report.push(format!(
        "latency_p99_ms = {} ms ({} samples, {} beyond p99)",
        percentile(&st.lat_ms, 0.99),
        st.lat_ms.len(),
        st.lat_ms.len() / 100
    ));
    report.push(format!(
        "fail_frac = {} ratio ({} of {})",
        st.failed as f64 / st.attempted.max(1) as f64,
        st.failed,
        st.attempted
    ));
    for line in &st.known_defect {
        report.push(format!("known defect, outside the timed load: {line}"));
    }
    report.extend(problems.iter().map(|p| format!("FAILED: {p}")));
    Outcome {
        correct: problems.is_empty(),
        attempted: st.attempted,
        failed: st.failed,
        metrics,
        report,
    }
}

fn run_engine(sweep: engine::Sweep, args: &Args, tracer: &Tracer) -> Outcome {
    let mut report = vec![format!(
        "nproc {} (the event engine is single-threaded)",
        sys::nproc()
    )];
    let mut metrics = Vec::new();
    let st = engine::load(sweep, args.seed, args.seconds, 1, tracer);
    let mut problems = st.problems.clone();
    report.push(setup_line(&st.setups));
    let op_ms: Vec<f64> = st.op_s.iter().map(|s| s * 1e3).collect();
    if args.trace {
        metrics.push(overhead_pct(tracer.len(), st.op_s.len(), median(&st.op_s)));
        engine::ledger(&st, &mut metrics);
        let reqs = lab::Requests::new(args.seed);
        let mini = lab::load(&reqs, lab::clients(), 60.0, 300, 1, tracer);
        problems.extend(mini.problems.iter().cloned());
        lab::ledger(&mini, tracer, &mut metrics, &mut problems);
        report.push("lab layers measured on one lab-zipf window of 300 requests".into());
    } else {
        metrics = end_to_end(&st.setups, &op_ms, st.op_s.len(), &st.clock);
    }
    report.push(format!(
        "latency_p99_ms = {} ms ({} operations, so the slowest)",
        percentile(&op_ms, 0.99),
        op_ms.len()
    ));
    for (name, walls) in &st.world_s {
        report.push(format!(
            "run_s[{name}] = {} s (median of {walls:?})",
            median(walls)
        ));
    }
    report.push(format!(
        "{} operations; per operation: pops {} msgs {} bytes {} bytes/rank {}",
        st.attempted, st.pops, st.msgs, st.bytes, st.bytes_per_rank
    ));
    report.push(format!(
        "fail_frac = {} ratio ({} of {})",
        st.failed as f64 / st.attempted.max(1) as f64,
        st.failed,
        st.attempted
    ));
    report.extend(problems.iter().map(|p| format!("FAILED: {p}")));
    Outcome {
        correct: problems.is_empty(),
        attempted: st.attempted,
        failed: st.failed,
        metrics,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 500.0);
        assert_eq!(percentile(&xs, 0.99), 990.0, "ten samples lie beyond p99");
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.99), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}

#[derive(Serialize)]
struct MetricOut {
    value: f64,
    unit: String,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "lab-zipf" => run_lab(&args, &tracer),
        "event-sweep" => run_engine(engine::Sweep::EventSweep, &args, &tracer),
        "sort-exchange" => run_engine(engine::Sweep::SortExchange, &args, &tracer),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    for line in &outcome.report {
        println!("# {line}");
    }
    for m in &outcome.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.json",
            args.workload, args.seed
        ));
        match tracer.write(&path) {
            Ok(()) => println!("# {} spans written to {}", tracer.len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let metrics: std::collections::BTreeMap<String, MetricOut> = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                MetricOut {
                    value: m.value,
                    unit: m.unit.to_string(),
                },
            )
        })
        .collect();
    #[derive(Serialize)]
    struct Line {
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: std::collections::BTreeMap<String, MetricOut>,
    }
    let line = Line {
        correct: outcome.correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&line).expect("serialize result")
    );
    ExitCode::SUCCESS
}
