//! # pdc-check — a MUST-style MPI correctness checker
//!
//! MPI correctness tools such as MUST, ISP, and Marmot verify
//! *executions*: the runtime records what every rank actually did, and an
//! offline analysis flags behaviour that violates MPI semantics even when
//! the run appeared to succeed. This crate is that analysis layer for the
//! `pdc-mpi` runtime, covering four violation classes:
//!
//! * **collective matching** — every member of a communicator must issue
//!   the same sequence of collectives with compatible roots, operators,
//!   contribution counts, and element types; mismatches are reported as a
//!   per-rank call-site diff ([`FindingKind::CollectiveMismatch`]);
//! * **deadlock explanation** — a deadlocked run carries the runtime's
//!   wait-for graph and cycle ([`FindingKind::Deadlock`]);
//! * **message races** — `ANY_SOURCE`/`ANY_TAG` receives whose match was
//!   order-dependent (more than one candidate in flight), optionally
//!   *confirmed* by re-executing under perturbed delivery and comparing
//!   results ([`FindingKind::MessageRace`]);
//! * **leaks** — messages sent but never received, nonblocking requests
//!   never completed, and datatype mismatches, checked when every rank
//!   has finished ([`FindingKind::UnmatchedSend`],
//!   [`FindingKind::RequestLeak`], [`FindingKind::TypeMismatch`]);
//! * **fault attribution** — faults injected by a
//!   [`FaultPlan`](pdc_mpi::FaultPlan) (crashes, drops, duplicates,
//!   delays) are listed in a separate report section
//!   ([`FindingKind::InjectedFault`], [`Report::faults`]), and violations
//!   they plausibly explain are downgraded to annotated warnings — a
//!   fault-injection clinic must not report its own faults as bugs.
//!
//! ## Usage
//!
//! ```
//! use pdc_check::check_world;
//! use pdc_mpi::{Op, WorldConfig};
//!
//! let checked = check_world(WorldConfig::new(4), |comm| {
//!     let mine = [comm.rank() as u64];
//!     comm.allreduce(&mine, Op::Sum)
//! });
//! assert!(checked.report.is_clean(), "{}", checked.report.render());
//! ```
//!
//! Reports render for humans ([`Report::render`]) and machines
//! ([`Report::to_json`]); see `docs/checker.md` for worked examples of
//! each violation class.

#![warn(missing_docs)]

mod analysis;
mod report;

pub use analysis::analyze;
pub use report::{Finding, FindingKind, Report, Severity};

use pdc_mpi::{CheckMode, Comm, World, WorldConfig};

/// A checked execution: the world's ordinary outcome plus the checker's
/// verdict on it.
#[derive(Debug)]
pub struct Checked<T> {
    /// What [`World::run`] would have returned.
    pub result: pdc_mpi::Result<pdc_mpi::RunOutput<T>>,
    /// The checker's findings over the recorded execution.
    pub report: Report,
}

impl<T> Checked<T> {
    /// The per-rank values of a run that must both succeed and check
    /// clean — the common assertion in module tests.
    ///
    /// # Panics
    /// Panics (with the rendered report) if the run failed or any
    /// violation was found.
    pub fn expect_clean(self, what: &str) -> Vec<T> {
        match self.result {
            Ok(out) if self.report.is_clean() => out.values,
            Ok(_) => panic!("{what}: checker found violations\n{}", self.report.render()),
            Err(e) => panic!("{what}: run failed: {e}\n{}", self.report.render()),
        }
    }
}

/// Run `f` on a world with recording instrumentation and analyse the
/// execution. The configured [`CheckMode`] is overridden to `Record`.
pub fn check_world<T, F>(cfg: WorldConfig, f: F) -> Checked<T>
where
    T: Send,
    F: Fn(&mut Comm) -> pdc_mpi::Result<T> + Send + Sync,
{
    let (result, logs) = World::run_with_check(cfg.with_check(CheckMode::Record), f);
    let report = analyze(&result, &logs);
    Checked { result, report }
}

/// Like [`check_world`], but *confirm* message-race candidates by
/// re-executing under perturbed wildcard delivery with each seed and
/// comparing per-rank results against the recorded baseline. A candidate
/// race whose perturbation changes results (or breaks the run) is
/// upgraded from warning to violation; an unconfirmed candidate stays a
/// warning with a note.
pub fn check_world_confirm<T, F>(cfg: WorldConfig, f: F, seeds: &[u64]) -> Checked<T>
where
    T: Send + PartialEq,
    F: Fn(&mut Comm) -> pdc_mpi::Result<T> + Send + Sync,
{
    let (result, logs) = World::run_with_check(cfg.clone().with_check(CheckMode::Record), &f);
    let mut report = analyze(&result, &logs);

    let candidates: Vec<usize> = report
        .warnings
        .iter()
        .enumerate()
        .filter(|(_, w)| w.kind == FindingKind::MessageRace)
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return Checked { result, report };
    }

    let mut confirmation: Option<String> = None;
    for &seed in seeds {
        let (perturbed, _) =
            World::run_with_check::<T, _>(cfg.clone().with_check(CheckMode::Perturb(seed)), &f);
        match (&result, &perturbed) {
            (Ok(base), Ok(other)) if base.values != other.values => {
                confirmation = Some(format!(
                    "CONFIRMED: perturbed delivery (seed {seed}) changed per-rank results"
                ));
                break;
            }
            (Ok(_), Err(e)) => {
                confirmation = Some(format!(
                    "CONFIRMED: perturbed delivery (seed {seed}) broke the run: {e}"
                ));
                break;
            }
            _ => {}
        }
    }

    match confirmation {
        Some(note) => {
            // Drain the race warnings (in reverse so indices stay valid)
            // and re-file them as violations.
            for &i in candidates.iter().rev() {
                let mut f = report.warnings.remove(i);
                f.severity = Severity::Error;
                f.message.push('\n');
                f.message.push_str(&note);
                report.violations.push(f);
            }
        }
        None => {
            for &i in &candidates {
                report.warnings[i].message.push_str(&format!(
                    "\nnot confirmed: {} perturbed run(s) reproduced the baseline results",
                    seeds.len()
                ));
            }
        }
    }
    Checked { result, report }
}
