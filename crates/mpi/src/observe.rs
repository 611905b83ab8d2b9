//! One observer per rank: every operation recorded once.
//!
//! A rank describes each completed operation once, as a plain-data
//! [`Obs`]. Its [`CommStats`](crate::CommStats) always folds it; the
//! rank's [`Observer`], present only when tracing or checking is on,
//! keeps its span, and owns every other record the instruments make:
//! phases, world-collective spans, the check log and its request ids.

use crate::check::{CallSite, CheckEvent};
use crate::envelope::{Envelope, MsgClass};
use crate::trace::{CollSpan, PhaseSpan, Span};
use crate::tune::CollAlgo;

/// One completed operation of a rank: a transmission, a receive, the
/// blocked part of a rendezvous send, or a compute charge, described by
/// the span it occupies on the rank's timeline.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Obs {
    pub span: Span,
    /// Simulated seconds the operation charges to the statistics.
    pub charged: f64,
    /// A send under the rendezvous protocol.
    pub synchronous: bool,
    /// Physical copies of a send: more than one when the fault plan
    /// dropped it and the retry policy sent it again.
    pub attempts: u32,
}

impl Obs {
    /// An operation that is not a send: `span`, charging `charged`.
    pub(crate) fn new(span: Span, charged: f64) -> Self {
        Obs {
            span,
            charged,
            synchronous: false,
            attempts: 1,
        }
    }
}

/// What a rank's observer recorded, handed back at finalize. Every field
/// is empty when its instrument was off.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub(crate) struct Observed {
    pub trace: Vec<Span>,
    pub phases: Vec<PhaseSpan>,
    pub colls: Vec<CollSpan>,
    pub check_log: Vec<CheckEvent>,
}

/// The optional sinks of one rank's observations.
#[derive(Default)]
pub(crate) struct Observer {
    tracing: bool,
    checking: bool,
    out: Observed,
    /// Open phases: `(name, start)` pairs, innermost last.
    open_phases: Vec<(String, f64)>,
    /// Next nonblocking-request id (checking only).
    next_req: u64,
}

impl Observer {
    /// An observer, or `None` when every instrument is off.
    pub(crate) fn new(tracing: bool, checking: bool) -> Option<Box<Self>> {
        (tracing || checking).then(|| {
            Box::new(Observer {
                tracing,
                checking,
                ..Observer::default()
            })
        })
    }

    /// Trace `obs` as its span (an empty span is dropped).
    pub(crate) fn observe(&mut self, obs: &Obs) {
        if self.tracing && obs.span.end > obs.span.start {
            self.out.trace.push(obs.span);
        }
    }

    /// Open a named phase at `now` (tracing only).
    pub(crate) fn phase_begin(&mut self, name: &str, now: f64) {
        if self.tracing {
            self.open_phases.push((name.to_string(), now));
        }
    }

    /// Close the innermost open phase at `now`, if any.
    pub(crate) fn phase_end(&mut self, now: f64) {
        if let Some((name, start)) = self.open_phases.pop() {
            self.out.phases.push(PhaseSpan {
                name,
                start,
                end: now,
            });
        }
    }

    /// Entry into collective `name` at `now`, logged as `event`. Only a
    /// `world` collective gets a [`CollSpan`]: a sub-communicator's `seq`
    /// would not line up across world ranks.
    pub(crate) fn collective(
        &mut self,
        name: &str,
        world: bool,
        now: f64,
        event: impl FnOnce() -> CheckEvent,
    ) {
        if self.tracing && world {
            self.out.colls.push(CollSpan {
                name: name.to_string(),
                seq: self.out.colls.len() as u64,
                enter: now,
                algo: None,
            });
        }
        self.check(event);
    }

    /// Stamp the latest world collective with its resolved algorithm.
    pub(crate) fn collective_algo(&mut self, algo: CollAlgo) {
        if let Some(c) = self.out.colls.last_mut() {
            c.algo = Some(algo);
        }
    }

    /// Append a check-only record (no-op when checking is off).
    pub(crate) fn check(&mut self, event: impl FnOnce() -> CheckEvent) {
        if self.checking {
            self.out.check_log.push(event());
        }
    }

    /// Log a new nonblocking request; its id, when checking is on.
    pub(crate) fn request_created(&mut self, kind: &'static str, site: CallSite) -> Option<u64> {
        let id = self.checking.then_some(self.next_req)?;
        self.next_req += 1;
        self.check(|| CheckEvent::RequestCreated { id, kind, site });
        Some(id)
    }

    /// Close the open phases at `now` and, when checking, log the program
    /// messages still `pending` — the leak check. An ack is not a message
    /// of the program: one that lands after its sender stopped waiting is
    /// dropped.
    pub(crate) fn finish(mut self, now: f64, pending: impl FnOnce() -> Vec<Envelope>) -> Observed {
        for env in self.checking.then(pending).unwrap_or_default() {
            let (user, tag) = match env.class {
                MsgClass::User(t) => (true, t as u64),
                MsgClass::Internal(t) => (false, t),
                MsgClass::Ack => continue,
            };
            self.out.check_log.push(CheckEvent::Leftover {
                src: env.src,
                user,
                tag,
                bytes: env.payload.len(),
                seq: env.seq,
                type_name: env.type_name,
            });
        }
        while !self.open_phases.is_empty() {
            self.phase_end(now);
        }
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanKind;

    #[test]
    fn no_instrument_means_no_observer() {
        assert!(Observer::new(false, false).is_none());
        assert!(Observer::new(true, false).is_some());
        assert!(Observer::new(false, true).is_some());
    }

    #[test]
    fn only_a_tracing_observer_keeps_spans_and_never_empty_ones() {
        let span = |start, end| Obs::new(Span::basic(SpanKind::Recv, start, end, 1, 8), 0.0);
        let mut traced = Observer::new(true, false).unwrap();
        traced.observe(&span(0.0, 1.0));
        traced.observe(&span(1.0, 1.0));
        assert_eq!(traced.finish(1.0, Vec::new).trace, [span(0.0, 1.0).span]);
        let mut checked = Observer::new(false, true).unwrap();
        checked.observe(&span(0.0, 1.0));
        assert!(checked.finish(1.0, Vec::new).trace.is_empty());
    }

    #[test]
    fn request_ids_count_only_while_checking() {
        let site = CallSite::here();
        let mut traced = Observer::new(true, false).unwrap();
        assert_eq!(traced.request_created("isend", site), None);
        let mut checked = Observer::new(false, true).unwrap();
        assert_eq!(checked.request_created("isend", site), Some(0));
        assert_eq!(checked.request_created("irecv", site), Some(1));
        assert_eq!(checked.finish(0.0, Vec::new).check_log.len(), 2);
    }

    #[test]
    fn finish_closes_open_phases_innermost_first() {
        let mut o = Observer::new(true, false).unwrap();
        o.phase_begin("outer", 0.0);
        o.phase_begin("inner", 1.0);
        let phases = o.finish(2.0, Vec::new).phases;
        let names: Vec<&str> = phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["inner", "outer"]);
        assert!(phases.iter().all(|p| p.end == 2.0));
    }
}
