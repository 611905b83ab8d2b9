//! The analyses over recorded executions: collective matching, deadlock
//! explanation, message-race candidates, finalize-time leaks, and
//! injected-fault attribution.

use crate::report::{Finding, FindingKind, Report, Severity};
use pdc_mpi::{CheckEvent, Error, RunOutput};
use std::collections::{BTreeMap, BTreeSet};

/// Analyse one execution: the world's outcome plus the per-rank event
/// logs from [`pdc_mpi::World::run_with_check`].
pub fn analyze<T>(outcome: &pdc_mpi::Result<RunOutput<T>>, logs: &[Vec<CheckEvent>]) -> Report {
    let mut report = Report {
        world_size: logs.len(),
        ..Report::default()
    };
    // A failed run legitimately truncates logs and strands messages, so
    // most leak/length findings downgrade to warnings there; genuine
    // semantic mismatches (collective prefix divergence, type errors)
    // stay violations regardless.
    let completed = outcome.is_ok();
    if let Err(Error::Deadlock(info)) = outcome {
        let mut ranks: Vec<usize> = info.blocked.iter().map(|b| b.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        report.push(Finding {
            kind: FindingKind::Deadlock,
            severity: Severity::Error,
            ranks,
            message: if info.is_empty() {
                "the world deadlocked but captured no blocked operations".into()
            } else {
                info.render().trim_end().to_string()
            },
            sites: info.blocked.iter().map(|b| b.site.to_string()).collect(),
        });
    }
    check_collectives(logs, completed, &mut report);
    check_races(logs, &mut report);
    check_leaks(logs, completed, &mut report);
    let (crashed, lossy) = check_faults(logs, &mut report);
    attribute_to_faults(&mut report, &crashed, lossy);
    report
}

/// Summarise the faults the run's plan injected: one finding per crash,
/// one aggregate finding per message-fault kind. Returns the crashed
/// ranks and whether any message was dropped, for attribution.
fn check_faults(logs: &[Vec<CheckEvent>], report: &mut Report) -> (BTreeSet<usize>, bool) {
    let mut crashed = BTreeSet::new();
    // kind -> (ranks touched, event count).
    let mut by_kind: BTreeMap<&'static str, (BTreeSet<usize>, usize)> = BTreeMap::new();
    for (rank, log) in logs.iter().enumerate() {
        for ev in log {
            if let CheckEvent::FaultInjected {
                kind, src, dst, at, ..
            } = ev
            {
                if *kind == "crash" {
                    crashed.insert(rank);
                    report.push(Finding {
                        kind: FindingKind::InjectedFault,
                        severity: Severity::Warning,
                        ranks: vec![rank],
                        message: format!(
                            "rank {rank} crashed at simulated time {at:.6}s \
                             (scheduled by the fault plan)"
                        ),
                        sites: Vec::new(),
                    });
                } else {
                    let entry = by_kind.entry(kind).or_insert((BTreeSet::new(), 0));
                    entry.0.insert(*src);
                    entry.0.insert(*dst);
                    entry.1 += 1;
                }
            }
        }
    }
    let lossy = by_kind.contains_key("drop") || by_kind.contains_key("lost");
    for (kind, (ranks, count)) in by_kind {
        report.push(Finding {
            kind: FindingKind::InjectedFault,
            severity: Severity::Warning,
            ranks: ranks.into_iter().collect(),
            message: format!(
                "{count} message-{kind} event(s) injected by the fault plan \
                 (deliberate, not an application defect)"
            ),
            sites: Vec::new(),
        });
    }
    (crashed, lossy)
}

/// Downgrade violations that injected faults plausibly explain: a
/// deadlock under message loss or a crash, and stranded state (unmatched
/// sends, leaked requests, collective divergence) involving a crashed
/// rank. They stay visible as warnings, annotated — the checker's job in
/// a fault clinic is to separate injected failures from genuine defects,
/// not to hide either.
fn attribute_to_faults(report: &mut Report, crashed: &BTreeSet<usize>, lossy: bool) {
    if crashed.is_empty() && !lossy {
        return;
    }
    let mut keep = Vec::new();
    for mut f in std::mem::take(&mut report.violations) {
        let explained = match f.kind {
            FindingKind::Deadlock => lossy || !crashed.is_empty(),
            FindingKind::UnmatchedSend
            | FindingKind::RequestLeak
            | FindingKind::CollectiveMismatch => f.ranks.iter().any(|r| crashed.contains(r)),
            _ => false,
        };
        if explained {
            f.severity = Severity::Warning;
            f.message.push_str(
                "\nlikely fallout of an injected fault (see the injected section), \
                 not necessarily an application defect",
            );
            report.warnings.push(f);
        } else {
            keep.push(f);
        }
    }
    report.violations = keep;
}

/// A rank's view of one collective entry, flattened for comparison.
struct CollEntry {
    name: &'static str,
    root: Option<usize>,
    op: Option<pdc_mpi::Op>,
    count: Option<usize>,
    type_name: &'static str,
    site: String,
}

impl CollEntry {
    fn describe(&self) -> String {
        let mut s = format!("{}(", self.name);
        let mut parts = Vec::new();
        if let Some(r) = self.root {
            parts.push(format!("root={r}"));
        }
        if let Some(op) = self.op {
            parts.push(format!("op={op:?}"));
        }
        if let Some(c) = self.count {
            parts.push(format!("count={c}"));
        }
        parts.push(self.type_name.to_string());
        s.push_str(&parts.join(", "));
        s.push(')');
        s
    }

    /// Do two ranks' entries at the same position agree? Counts only
    /// conflict when both sides supplied one (non-root `bcast`/`scatter`
    /// participants and `*v` variants record `None`).
    fn compatible(&self, other: &Self) -> bool {
        self.name == other.name
            && self.root == other.root
            && self.op == other.op
            && self.type_name == other.type_name
            && match (self.count, other.count) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

/// Collective matching: on every communicator, all members must issue the
/// same sequence of collectives with compatible arguments.
fn check_collectives(logs: &[Vec<CheckEvent>], completed: bool, report: &mut Report) {
    // (ctx, members) -> rank -> that rank's collective entries on the
    // communicator, in program order. The member list is part of the key
    // because one `split` call creates several *disjoint* communicators
    // that share a ctx id (each rank allocates the id locally).
    type CommKey = (u64, Vec<usize>);
    let mut by_comm: BTreeMap<CommKey, BTreeMap<usize, Vec<CollEntry>>> = BTreeMap::new();
    for (rank, log) in logs.iter().enumerate() {
        for ev in log {
            if let CheckEvent::Collective {
                name,
                ctx,
                members,
                root,
                op,
                count,
                type_name,
                site,
            } = ev
            {
                let key = (*ctx, members.clone().unwrap_or_default());
                by_comm
                    .entry(key)
                    .or_default()
                    .entry(rank)
                    .or_default()
                    .push(CollEntry {
                        name,
                        root: *root,
                        op: *op,
                        count: *count,
                        type_name,
                        site: site.to_string(),
                    });
            }
        }
    }
    for ((ctx, members), by_rank) in &by_comm {
        // Expected participants: every world rank for the world
        // communicator, the recorded member list for a sub-communicator.
        let participants: Vec<usize> = if *ctx == 0 {
            (0..logs.len()).collect()
        } else {
            let mut set: BTreeSet<usize> = by_rank.keys().copied().collect();
            set.extend(members.iter().copied());
            set.into_iter().collect()
        };
        let len = |rank: usize| by_rank.get(&rank).map_or(0, Vec::len);
        let min_len = participants.iter().map(|&r| len(r)).min().unwrap_or(0);

        // Compare the common prefix position by position; one finding per
        // communicator (later mismatches are usually cascade noise).
        let mut diverged = false;
        // Position `i` is compared across *all* ranks' sequences at once,
        // so indexing, not iteration, is the natural shape here.
        #[allow(clippy::needless_range_loop)]
        'scan: for i in 0..min_len {
            let mut iter = participants.iter().map(|&r| (r, &by_rank[&r][i]));
            let (first_rank, first) = iter.next().expect("at least one participant");
            for (rank, entry) in iter {
                if !entry.compatible(first) {
                    let mut lines = vec![format!(
                        "collective #{} on {} diverges:",
                        i + 1,
                        ctx_name(*ctx, members)
                    )];
                    let mut sites = Vec::new();
                    for &r in &participants {
                        let e = &by_rank[&r][i];
                        lines.push(format!("  rank {r}: {} at {}", e.describe(), e.site));
                        sites.push(e.site.clone());
                    }
                    report.push(Finding {
                        kind: FindingKind::CollectiveMismatch,
                        severity: Severity::Error,
                        ranks: vec![first_rank, rank],
                        message: lines.join("\n"),
                        sites,
                    });
                    diverged = true;
                    break 'scan;
                }
            }
        }

        // Length disagreement is only meaningful when the run completed —
        // a deadlocked rank stops wherever it stops.
        if completed && !diverged {
            let max_len = participants.iter().map(|&r| len(r)).max().unwrap_or(0);
            if max_len != min_len {
                let counts: Vec<String> = participants
                    .iter()
                    .map(|&r| format!("rank {r}: {}", len(r)))
                    .collect();
                // Point at the first call the shorter ranks never made.
                let sites: Vec<String> = participants
                    .iter()
                    .filter_map(|&r| by_rank.get(&r).and_then(|s| s.get(min_len)))
                    .map(|e| e.site.clone())
                    .collect();
                report.push(Finding {
                    kind: FindingKind::CollectiveMismatch,
                    severity: Severity::Error,
                    ranks: participants.clone(),
                    message: format!(
                        "ranks disagree on the number of collectives on {} ({})",
                        ctx_name(*ctx, members),
                        counts.join(", ")
                    ),
                    sites,
                });
            }
        }
    }
}

fn ctx_name(ctx: u64, members: &[usize]) -> String {
    if ctx == 0 {
        "the world communicator".into()
    } else {
        let list: Vec<String> = members.iter().map(|r| r.to_string()).collect();
        format!("sub-communicator #{ctx} {{{}}}", list.join(","))
    }
}

/// Message-race candidates: wildcard receives whose match was
/// order-dependent (more than one matching message in flight). Reported
/// per receive site, as warnings until a perturbed re-execution confirms
/// the race changes results.
fn check_races(logs: &[Vec<CheckEvent>], report: &mut Report) {
    // site -> (receiving ranks, occurrences, max in-flight candidates).
    let mut by_site: BTreeMap<String, (BTreeSet<usize>, usize, usize)> = BTreeMap::new();
    for (rank, log) in logs.iter().enumerate() {
        for ev in log {
            if let CheckEvent::RecvCompleted {
                wildcard_src,
                wildcard_tag,
                candidates,
                site,
                ..
            } = ev
            {
                if (*wildcard_src || *wildcard_tag) && *candidates > 1 {
                    let entry = by_site
                        .entry(site.to_string())
                        .or_insert((BTreeSet::new(), 0, 0));
                    entry.0.insert(rank);
                    entry.1 += 1;
                    entry.2 = entry.2.max(*candidates);
                }
            }
        }
    }
    for (site, (ranks, occurrences, max_candidates)) in by_site {
        report.push(Finding {
            kind: FindingKind::MessageRace,
            severity: Severity::Warning,
            ranks: ranks.into_iter().collect(),
            message: format!(
                "wildcard receive is order-dependent: {occurrences} match(es) with up to \
                 {max_candidates} messages in flight; which message wins depends on delivery order"
            ),
            sites: vec![site],
        });
    }
}

/// Finalize-time leak check: unmatched sends, never-completed requests,
/// and datatype mismatches observed at receives.
fn check_leaks(logs: &[Vec<CheckEvent>], completed: bool, report: &mut Report) {
    let leak_severity = if completed {
        Severity::Error
    } else {
        // The run already failed; stranded state is expected fallout.
        Severity::Warning
    };
    for (rank, log) in logs.iter().enumerate() {
        // Requests created but never completed on this rank.
        let mut open: BTreeMap<u64, (&'static str, String)> = BTreeMap::new();
        for ev in log {
            match ev {
                CheckEvent::RequestCreated { id, kind, site } => {
                    open.insert(*id, (kind, site.to_string()));
                }
                CheckEvent::RequestCompleted { id } => {
                    open.remove(id);
                }
                CheckEvent::RecvCompleted {
                    src,
                    tag,
                    expected_type,
                    found_type,
                    site,
                    ..
                } if expected_type != found_type => {
                    report.push(Finding {
                        kind: FindingKind::TypeMismatch,
                        severity: Severity::Error,
                        ranks: vec![*src, rank],
                        message: format!(
                            "rank {rank} received {found_type} from rank {src} (tag {tag}) \
                             where {expected_type} was expected"
                        ),
                        sites: vec![site.to_string()],
                    });
                }
                CheckEvent::Leftover {
                    src,
                    user,
                    tag,
                    bytes,
                    seq,
                    type_name,
                } => {
                    if *user {
                        // Pair the stranded message back to the sender's
                        // posting site through its sequence number.
                        let posted = logs.get(*src).and_then(|slog| {
                            slog.iter().find_map(|e| match e {
                                CheckEvent::SendPosted {
                                    dst, seq: s, site, ..
                                } if *dst == rank && s == seq => Some(site.to_string()),
                                _ => None,
                            })
                        });
                        report.push(Finding {
                            kind: FindingKind::UnmatchedSend,
                            severity: leak_severity,
                            ranks: vec![*src, rank],
                            message: format!(
                                "message from rank {src} to rank {rank} (tag {tag}, {bytes} \
                                 bytes, {type_name}) was never received"
                            ),
                            sites: posted.into_iter().collect(),
                        });
                    } else if completed {
                        report.push(Finding {
                            kind: FindingKind::CollectiveMismatch,
                            severity: Severity::Warning,
                            ranks: vec![*src, rank],
                            message: format!(
                                "internal collective message from rank {src} (tag {tag:#x}, \
                                 {bytes} bytes, {type_name}) was stranded in rank {rank}'s \
                                 mailbox — a collective mismatch left traffic behind"
                            ),
                            sites: Vec::new(),
                        });
                    }
                }
                _ => {}
            }
        }
        for (id, (kind, site)) in open {
            report.push(Finding {
                kind: FindingKind::RequestLeak,
                severity: leak_severity,
                ranks: vec![rank],
                message: format!(
                    "rank {rank} {kind} request #{id} was never completed (missing wait/test)"
                ),
                sites: vec![site],
            });
        }
    }
}
