//! The checker's output: a machine-readable [`Report`] of findings with a
//! human rendering.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Classification of a finding — the four violation classes of the
/// checker, plus the runtime type check it piggybacks on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FindingKind {
    /// Ranks disagreed on the sequence of collective operations (name,
    /// root, operator, contribution count, or element type).
    CollectiveMismatch,
    /// The run deadlocked; the finding carries the runtime's wait-for
    /// analysis.
    Deadlock,
    /// A wildcard receive had more than one matching message in flight:
    /// its result depends on delivery order.
    MessageRace,
    /// A message was sent but never received.
    UnmatchedSend,
    /// A nonblocking request was created but never completed.
    RequestLeak,
    /// A receive's element type differed from the message's.
    TypeMismatch,
    /// A fault deliberately injected by the run's
    /// [`FaultPlan`](pdc_mpi::FaultPlan) — reported separately so injected
    /// failures are never mistaken for application defects.
    InjectedFault,
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FindingKind::CollectiveMismatch => "collective mismatch",
            FindingKind::Deadlock => "deadlock",
            FindingKind::MessageRace => "message race",
            FindingKind::UnmatchedSend => "unmatched send",
            FindingKind::RequestLeak => "request leak",
            FindingKind::TypeMismatch => "type mismatch",
            FindingKind::InjectedFault => "injected fault",
        };
        f.write_str(s)
    }
}

/// How certain the checker is that a finding is a genuine defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Severity {
    /// Definite violation of MPI semantics.
    Error,
    /// Suspicious but possibly benign (e.g. an order-dependent wildcard
    /// match whose perturbation has not been shown to change results, or
    /// leftovers in a run that already failed for another reason).
    Warning,
}

/// One finding in a report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// What class of defect this is.
    pub kind: FindingKind,
    /// Error or warning.
    pub severity: Severity,
    /// World ranks involved, sorted.
    pub ranks: Vec<usize>,
    /// Human explanation (possibly multi-line, e.g. a per-rank diff or a
    /// rendered wait-for cycle).
    pub message: String,
    /// Call sites involved, rendered as `file:line` (one per implicated
    /// call, ordered to match the message).
    pub sites: Vec<String>,
}

/// Everything the checker concluded about one execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Number of ranks in the checked world.
    pub world_size: usize,
    /// Definite violations (severity [`Severity::Error`]).
    pub violations: Vec<Finding>,
    /// Possible problems (severity [`Severity::Warning`]).
    pub warnings: Vec<Finding>,
    /// Faults injected by the run's fault plan
    /// ([`FindingKind::InjectedFault`]) — deliberate, not defects. Kept
    /// out of `violations`/`warnings` so fault-injection runs can still
    /// check clean.
    pub faults: Vec<Finding>,
}

impl Report {
    /// No violations found (warnings are allowed: a clean report may still
    /// carry advisory findings).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Add a finding to the matching list.
    pub fn push(&mut self, finding: Finding) {
        if finding.kind == FindingKind::InjectedFault {
            self.faults.push(finding);
            return;
        }
        match finding.severity {
            Severity::Error => self.violations.push(finding),
            Severity::Warning => self.warnings.push(finding),
        }
    }

    /// Machine-readable JSON rendering.
    ///
    /// # Panics
    /// Never panics: every report field serializes.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Human rendering: a verdict line followed by every finding.
    pub fn render(&self) -> String {
        let mut out = format!(
            "pdc-check: {} violation(s), {} warning(s)",
            self.violations.len(),
            self.warnings.len(),
        );
        if !self.faults.is_empty() {
            out.push_str(&format!(", {} injected fault(s)", self.faults.len()));
        }
        out.push_str(&format!(" over {} rank(s)\n", self.world_size));
        for (label, list) in [
            ("VIOLATION", &self.violations),
            ("warning", &self.warnings),
            ("injected", &self.faults),
        ] {
            for (i, f) in list.iter().enumerate() {
                out.push_str(&format!("{label} {} [{}]", i + 1, f.kind));
                if !f.ranks.is_empty() {
                    let ranks: Vec<String> = f.ranks.iter().map(|r| r.to_string()).collect();
                    out.push_str(&format!(" ranks {}", ranks.join(",")));
                }
                out.push('\n');
                for line in f.message.lines() {
                    out.push_str(&format!("  {line}\n"));
                }
                for site in &f.sites {
                    out.push_str(&format!("  at {site}\n"));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut report = Report {
            world_size: 4,
            ..Report::default()
        };
        report.push(Finding {
            kind: FindingKind::UnmatchedSend,
            severity: Severity::Error,
            ranks: vec![0, 3],
            message: "message from rank 0 never received".into(),
            sites: vec!["m.rs:10".into()],
        });
        report.push(Finding {
            kind: FindingKind::MessageRace,
            severity: Severity::Warning,
            ranks: vec![1],
            message: "2 candidates".into(),
            sites: vec![],
        });
        report.push(Finding {
            kind: FindingKind::InjectedFault,
            severity: Severity::Warning,
            ranks: vec![2],
            message: "rank 2 crashed at simulated time 0.5s".into(),
            sites: vec![],
        });
        report
    }

    #[test]
    fn push_routes_by_severity() {
        let r = sample();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.warnings.len(), 1);
        assert!(!r.is_clean());
        assert!(Report::default().is_clean());
    }

    #[test]
    fn injected_faults_live_in_their_own_section() {
        let r = sample();
        assert_eq!(r.faults.len(), 1);
        // Injected faults do not make a report dirty...
        let mut only_faults = Report {
            world_size: 2,
            ..Report::default()
        };
        only_faults.push(Finding {
            kind: FindingKind::InjectedFault,
            severity: Severity::Warning,
            ranks: vec![0],
            message: "drop".into(),
            sites: vec![],
        });
        assert!(only_faults.is_clean());
        // ...but they do render, with their own verdict clause.
        let s = r.render();
        assert!(s.contains("1 injected fault(s)"), "{s}");
        assert!(s.contains("injected 1 [injected fault] ranks 2"), "{s}");
    }

    #[test]
    fn render_mentions_kinds_ranks_and_sites() {
        let s = sample().render();
        assert!(s.contains("1 violation(s), 1 warning(s)"), "{s}");
        assert!(s.contains("unmatched send"), "{s}");
        assert!(s.contains("ranks 0,3"), "{s}");
        assert!(s.contains("at m.rs:10"), "{s}");
        assert!(s.contains("message race"), "{s}");
    }

    #[test]
    fn json_roundtrips() {
        let r = sample();
        let json = r.to_json();
        let back: Report = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, r);
        assert!(json.contains("\"UnmatchedSend\""), "{json}");
    }
}
