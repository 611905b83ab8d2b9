//! Scalasca-style wait-state analysis over the trace.
//!
//! Three classic patterns, each attributed to a *culprit* rank:
//!
//! * **late sender** — a receive was posted before the matching message
//!   even left its sender; the receiver's blocked time up to the send
//!   instant is charged to the sender;
//! * **late receiver** — a rendezvous send waited for its ack because
//!   the matching receive was posted late; the sender's blocked time is
//!   charged to the receiver;
//! * **arrival imbalance** — ranks entered the same collective at
//!   different times; every early arriver's wait up to the last arrival
//!   is charged to the straggler.
//!
//! Collective-internal point-to-point traffic is excluded from the
//! late-sender scan — its skew is exactly what arrival imbalance already
//! measures, and double-charging would inflate the totals.

use crate::counters::phase_at;
use pdc_mpi::{CollSpan, PhaseSpan, SpanKind, Timeline};
use serde::{Deserialize, Serialize};

/// Ignore waits shorter than this (simulated seconds): below send
/// overhead they are numerical noise, not program structure.
const MIN_WAIT: f64 = 1e-9;

/// The wait-state pattern classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WaitKind {
    /// Receiver blocked before the matching send was even issued.
    LateSender,
    /// Rendezvous sender blocked on a late matching receive.
    LateReceiver,
    /// Early arrivers idling at a collective behind the last rank in.
    ArrivalImbalance,
}

impl WaitKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            WaitKind::LateSender => "late-sender",
            WaitKind::LateReceiver => "late-receiver",
            WaitKind::ArrivalImbalance => "arrival-imbalance",
        }
    }
}

/// One aggregated wait-state: every occurrence of `kind` blamed on
/// `culprit` within `phase` (point-to-point) or collective `detail`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WaitState {
    /// Pattern class.
    pub kind: WaitKind,
    /// Rank the wait is charged to.
    pub culprit: usize,
    /// Phase of the waiting rank (point-to-point patterns) or
    /// [`crate::counters::UNPHASED`].
    pub phase: String,
    /// Total simulated seconds lost across all waiters and occurrences.
    pub total_wait: f64,
    /// Number of aggregated occurrences.
    pub occurrences: u64,
    /// Rank that lost the most time to this state.
    pub worst_waiter: usize,
    /// Extra context: peer description or collective name.
    pub detail: String,
}

struct Acc {
    state: WaitState,
    worst: f64,
}

fn accumulate(
    accs: &mut Vec<Acc>,
    kind: WaitKind,
    culprit: usize,
    phase: &str,
    detail: &str,
    waiter: usize,
    wait: f64,
) {
    if wait < MIN_WAIT {
        return;
    }
    let acc = match accs.iter_mut().find(|a| {
        a.state.kind == kind
            && a.state.culprit == culprit
            && a.state.phase == phase
            && a.state.detail == detail
    }) {
        Some(a) => a,
        None => {
            accs.push(Acc {
                state: WaitState {
                    kind,
                    culprit,
                    phase: phase.to_string(),
                    total_wait: 0.0,
                    occurrences: 0,
                    worst_waiter: waiter,
                    detail: detail.to_string(),
                },
                worst: 0.0,
            });
            accs.last_mut().expect("just pushed")
        }
    };
    acc.state.total_wait += wait;
    acc.state.occurrences += 1;
    if wait > acc.worst {
        acc.worst = wait;
        acc.state.worst_waiter = waiter;
    }
}

/// Run all three analyses; the result is sorted by descending total wait,
/// so `wait_states[0]` is the run's dominant wait-state.
pub(crate) fn analyze_waits(
    traces: &[Timeline],
    phases: &[Vec<PhaseSpan>],
    colls: &[Vec<CollSpan>],
) -> Vec<WaitState> {
    let mut accs: Vec<Acc> = Vec::new();

    // Point-to-point patterns, rank by rank.
    for (rank, trace) in traces.iter().enumerate() {
        let rank_phases = phases.get(rank).map_or(&[][..], |p| p.as_slice());
        for s in trace {
            match s.kind {
                SpanKind::Recv if !s.internal => {
                    if let Some(sent_at) = s.sent_at {
                        let wait = (sent_at - s.start).clamp(0.0, s.duration());
                        accumulate(
                            &mut accs,
                            WaitKind::LateSender,
                            s.peer,
                            phase_at(rank_phases, s.start),
                            &format!("recv from r{}", s.peer),
                            rank,
                            wait,
                        );
                    }
                }
                SpanKind::Send if s.rdv_wait => {
                    accumulate(
                        &mut accs,
                        WaitKind::LateReceiver,
                        s.peer,
                        phase_at(rank_phases, s.start),
                        &format!("rendezvous with r{}", s.peer),
                        rank,
                        s.duration(),
                    );
                }
                _ => {}
            }
        }
    }

    // Arrival imbalance: the k-th world collective is the same operation
    // on every rank, so entry-time spread at fixed k is pure imbalance.
    // Stop at the first ordinal where the ranks disagree (a failed or
    // diverged run) rather than comparing unrelated operations.
    if !colls.is_empty() {
        let rounds = colls.iter().map(|c| c.len()).min().unwrap_or(0);
        'rounds: for k in 0..rounds {
            let name = &colls[0][k].name;
            for c in colls {
                if &c[k].name != name {
                    break 'rounds;
                }
            }
            let last = colls
                .iter()
                .map(|c| c[k].enter)
                .fold(f64::NEG_INFINITY, f64::max);
            let culprit = colls
                .iter()
                .enumerate()
                .max_by(|a, b| a.1[k].enter.total_cmp(&b.1[k].enter))
                .map_or(0, |(r, _)| r);
            for (rank, c) in colls.iter().enumerate() {
                if rank == culprit {
                    continue;
                }
                let rank_phases = phases.get(rank).map_or(&[][..], |p| p.as_slice());
                accumulate(
                    &mut accs,
                    WaitKind::ArrivalImbalance,
                    culprit,
                    phase_at(rank_phases, c[k].enter),
                    name,
                    rank,
                    last - c[k].enter,
                );
            }
        }
    }

    let mut out: Vec<WaitState> = accs.into_iter().map(|a| a.state).collect();
    out.sort_by(|a, b| b.total_wait.total_cmp(&a.total_wait));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_mpi::Span;

    #[test]
    fn late_sender_blames_the_sender() {
        // Rank 0 posts a recv at t=0; rank 1 only sends at t=5.
        let mut recv = Span::basic(SpanKind::Recv, 0.0, 5.5, 1, 64);
        recv.seq = Some(0);
        recv.sent_at = Some(5.0);
        let traces = vec![vec![recv], Vec::new()];
        let states = analyze_waits(&traces, &[Vec::new(), Vec::new()], &[]);
        assert_eq!(states.len(), 1);
        assert_eq!(states[0].kind, WaitKind::LateSender);
        assert_eq!(states[0].culprit, 1);
        assert_eq!(states[0].worst_waiter, 0);
        assert!((states[0].total_wait - 5.0).abs() < 1e-12);
    }

    #[test]
    fn internal_recvs_do_not_produce_late_sender() {
        let mut recv = Span::basic(SpanKind::Recv, 0.0, 5.5, 1, 64);
        recv.seq = Some(0);
        recv.sent_at = Some(5.0);
        recv.internal = true;
        let traces = vec![vec![recv]];
        assert!(analyze_waits(&traces, &[Vec::new()], &[]).is_empty());
    }

    #[test]
    fn rendezvous_wait_is_late_receiver() {
        let mut send = Span::basic(SpanKind::Send, 1.0, 4.0, 2, 0);
        send.rdv_wait = true;
        let traces = vec![vec![send]];
        let states = analyze_waits(&traces, &[Vec::new()], &[]);
        assert_eq!(states[0].kind, WaitKind::LateReceiver);
        assert_eq!(states[0].culprit, 2);
        assert!((states[0].total_wait - 3.0).abs() < 1e-12);
    }

    #[test]
    fn arrival_imbalance_blames_last_arriver() {
        let colls = vec![
            vec![CollSpan {
                name: "allreduce".into(),
                seq: 0,
                enter: 1.0,
                algo: None,
            }],
            vec![CollSpan {
                name: "allreduce".into(),
                seq: 0,
                enter: 4.0,
                algo: None,
            }],
            vec![CollSpan {
                name: "allreduce".into(),
                seq: 0,
                enter: 2.0,
                algo: None,
            }],
        ];
        let traces = vec![Vec::new(); 3];
        let phases = vec![Vec::new(); 3];
        let states = analyze_waits(&traces, &phases, &colls);
        assert_eq!(states.len(), 1);
        let s = &states[0];
        assert_eq!(s.kind, WaitKind::ArrivalImbalance);
        assert_eq!(s.culprit, 1);
        assert_eq!(s.worst_waiter, 0, "rank 0 arrived earliest");
        assert!((s.total_wait - 5.0).abs() < 1e-12, "3 + 2 seconds lost");
        assert_eq!(s.detail, "allreduce");
    }
}
