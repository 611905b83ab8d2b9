//! Correctness-checking instrumentation: the runtime side of `pdc-check`.
//!
//! MPI correctness tools such as MUST and ISP verify *executions*: they
//! record what every rank actually did — which collectives it entered,
//! which messages it posted and matched, where it blocked — and analyse
//! the logs for violations the program text alone cannot reveal. This
//! module holds the recording half of that design:
//!
//! * [`CheckMode`] selects how much instrumentation a world carries
//!   (see [`WorldConfig::with_check`](crate::WorldConfig::with_check));
//! * [`CheckEvent`] is one record in a rank's log — a collective entry,
//!   a posted send, a completed receive, a nonblocking request, or a
//!   message still sitting in the mailbox at finalize time;
//! * [`BlockedOp`] and [`DeadlockInfo`] describe *why* a world
//!   deadlocked: every blocked primitive registers what it is waiting
//!   for (as plain data, rendered to text only when a deadlock is being
//!   explained), and the watchdog assembles those registrations into a
//!   wait-for graph with cycle detection before poisoning the world.
//!
//! The analyses themselves (collective matching, race and leak
//! detection) live in the `pdc-check` crate, which consumes the logs via
//! [`World::run_with_check`](crate::World::run_with_check).

use crate::envelope::{MatchSpec, SourceSel, TagSel};
use crate::reduce::Op;
use std::fmt;

/// How much verification instrumentation a world carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// No instrumentation (the default): zero overhead on the hot paths.
    #[default]
    Off,
    /// Record a per-rank [`CheckEvent`] log for offline analysis.
    Record,
    /// Record, and additionally *perturb* wildcard message delivery with
    /// the given seed: whenever an `ANY_SOURCE`/`ANY_TAG` receive has more
    /// than one matching message in flight, pick one pseudo-randomly
    /// instead of by the default (earliest simulated send time) rule.
    /// Re-running under different seeds and comparing results confirms
    /// whether a candidate message race actually changes the outcome.
    Perturb(u64),
}

impl CheckMode {
    /// Is any instrumentation active?
    pub fn is_on(self) -> bool {
        self != CheckMode::Off
    }

    /// The delivery-perturbation seed, when in [`CheckMode::Perturb`].
    pub fn perturb_seed(self) -> Option<u64> {
        match self {
            CheckMode::Perturb(seed) => Some(seed),
            _ => None,
        }
    }
}

/// Source location of a runtime call, captured through `#[track_caller]`
/// so reports can point at the user's line, not the runtime's.
///
/// Serializable so a rank process can ship its check log (and a deadlock
/// explanation) back to the parent; the `&'static str` fields come back
/// through the transport's intern cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CallSite {
    /// Source file (as compiled, e.g. `crates/core/src/module1.rs`).
    pub file: &'static str,
    /// 1-based line number.
    pub line: u32,
}

impl CallSite {
    /// The caller's location. Every public primitive is `#[track_caller]`,
    /// so the chain resolves to the outermost user call.
    #[track_caller]
    pub fn here() -> Self {
        let loc = std::panic::Location::caller();
        Self {
            file: loc.file(),
            line: loc.line(),
        }
    }
}

impl fmt::Display for CallSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// One record in a rank's check log.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum CheckEvent {
    /// The rank entered a collective operation.
    Collective {
        /// Primitive name (`"bcast"`, `"reduce"`, ...).
        name: &'static str,
        /// Communicator context id (0 = the world; sub-communicators get
        /// the id allocated at `split` time).
        ctx: u64,
        /// Members of the communicator in sub-rank order (`None` = all
        /// world ranks).
        members: Option<Vec<usize>>,
        /// Root world rank, for rooted collectives.
        root: Option<usize>,
        /// Built-in reduction operator, when one was supplied.
        op: Option<Op>,
        /// Contribution element count, when the collective requires it to
        /// agree across ranks (`None` for `*v` variants and non-root
        /// participants of `bcast`/`scatter`).
        count: Option<usize>,
        /// Element type name.
        type_name: &'static str,
        /// Where the rank called the collective.
        site: CallSite,
    },
    /// The rank posted a user-level send.
    SendPosted {
        /// Destination rank.
        dst: usize,
        /// User tag.
        tag: u32,
        /// Element count.
        count: usize,
        /// Element type name.
        type_name: &'static str,
        /// Whether the send used the rendezvous (synchronous) protocol.
        synchronous: bool,
        /// Per-sender sequence number stamped on the envelope.
        seq: u64,
        /// Where the rank posted the send.
        site: CallSite,
    },
    /// The rank completed a user-level receive (the match happened).
    RecvCompleted {
        /// Actual source rank of the matched message.
        src: usize,
        /// Actual tag of the matched message.
        tag: u32,
        /// Whether the receive used `ANY_SOURCE`.
        wildcard_src: bool,
        /// Whether the receive used `ANY_TAG`.
        wildcard_tag: bool,
        /// Matching messages in flight at match time. A wildcard receive
        /// with more than one candidate is order-dependent: a *message
        /// race* candidate.
        candidates: usize,
        /// Element type the receiver asked for.
        expected_type: &'static str,
        /// Element type the message carried.
        found_type: &'static str,
        /// Element count received.
        count: usize,
        /// The sender's sequence number (pairs with
        /// [`CheckEvent::SendPosted::seq`]).
        sender_seq: u64,
        /// Where the rank received.
        site: CallSite,
    },
    /// A nonblocking request was created (`isend`/`irecv`).
    RequestCreated {
        /// Per-rank request id.
        id: u64,
        /// `"isend"` or `"irecv"`.
        kind: &'static str,
        /// Where the request was posted.
        site: CallSite,
    },
    /// A nonblocking request was completed (`wait_send`/`wait_recv`/a
    /// successful `test_recv`).
    RequestCompleted {
        /// The id from the matching [`CheckEvent::RequestCreated`].
        id: u64,
    },
    /// The fault plan injected a fault on this rank. Recorded so the
    /// checker can separate *injected* faults from genuine defects: a
    /// deadlock or unmatched send downstream of an injected crash or drop
    /// is the fault plan at work, not a program bug.
    FaultInjected {
        /// Fault kind: `"crash"`, `"drop"`, `"duplicate"`, `"delay"`, or
        /// `"lost"` (retries exhausted).
        kind: &'static str,
        /// Sending rank (the crashed rank itself for `"crash"`).
        src: usize,
        /// Destination rank (the crashed rank itself for `"crash"`).
        dst: usize,
        /// The affected message's per-sender sequence number (0 for
        /// `"crash"`).
        seq: u64,
        /// Simulated time at which the fault fired.
        at: f64,
    },
    /// A message was still sitting in this rank's mailbox when its closure
    /// finished: an unmatched send.
    Leftover {
        /// Sending rank.
        src: usize,
        /// Whether this was a user message (`true`) or internal collective
        /// traffic (`false`, the signature of a collective mismatch).
        user: bool,
        /// User tag, or the internal collective tag.
        tag: u64,
        /// Payload size in bytes.
        bytes: usize,
        /// The sender's sequence number.
        seq: u64,
        /// Element type name carried.
        type_name: &'static str,
    },
}

/// What a blocked rank is waiting for. Edges of the wait-for graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WaitTarget {
    /// Waiting for a specific rank to act (send a message, or post the
    /// matching receive of a rendezvous send).
    Rank(usize),
    /// Waiting for *any* rank (`ANY_SOURCE` receive).
    AnyRank,
}

impl fmt::Display for WaitTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitTarget::Rank(r) => write!(f, "rank {r}"),
            WaitTarget::AnyRank => write!(f, "any rank"),
        }
    }
}

/// A blocked primitive, registered with the shared progress state so the
/// watchdog can explain a deadlock instead of merely timing it out.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BlockedOp {
    /// The blocked rank.
    pub rank: usize,
    /// Primitive name (`"recv"`, `"ssend"`, `"probe"`, ...).
    pub op: &'static str,
    /// Who must act for this rank to unblock.
    pub waiting_on: WaitTarget,
    /// Human detail: tag selectors, payload sizes.
    pub detail: String,
    /// Where the rank blocked.
    pub site: CallSite,
}

impl fmt::Display for BlockedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} {}({}) waiting on {} at {}",
            self.rank, self.op, self.detail, self.waiting_on, self.site
        )
    }
}

/// What a blocked primitive is waiting for, kept as plain data: a wait
/// registers one of these with the shared progress state at no
/// allocation, and [`PendingOp::render`] builds the [`BlockedOp`] text
/// only when a deadlock is being explained.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingOp {
    /// The blocked rank.
    pub rank: usize,
    /// Primitive name, as reported in [`BlockedOp::op`].
    pub op: &'static str,
    /// Where the rank blocked.
    pub site: CallSite,
    /// The message, acknowledgement, or agreement the rank needs.
    pub on: PendingOn,
}

/// The operand of a [`PendingOp`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum PendingOn {
    /// A receive or probe of a message matching this spec.
    Recv(MatchSpec),
    /// A rendezvous send to `dest` with `tag`, waiting for its ack.
    Send { dest: usize, tag: u32 },
    /// A failure agreement.
    Agree,
}

impl PendingOp {
    /// A blocked receive or probe. `coll_site` is the user collective
    /// the rank is inside (internal receives are attributed to it), and
    /// `user` names the primitive and call site of a user-level receive.
    pub(crate) fn recv(
        rank: usize,
        spec: MatchSpec,
        user: Option<(&'static str, CallSite)>,
        coll_site: Option<(&'static str, CallSite)>,
    ) -> Self {
        let (op, site) = match spec {
            // Internal receives belong to a collective: name the user's
            // collective call instead of the runtime's internals. (Ack
            // waits register as sends, never through here.)
            MatchSpec::Internal(..) | MatchSpec::Ack(..) => {
                coll_site.unwrap_or(("collective", CallSite::here()))
            }
            MatchSpec::User(..) => user.unwrap_or(("recv", CallSite::here())),
        };
        PendingOp {
            rank,
            op,
            site,
            on: PendingOn::Recv(spec),
        }
    }

    /// The description a deadlock report shows for this wait.
    pub(crate) fn render(&self) -> BlockedOp {
        let (waiting_on, detail) = match self.on {
            PendingOn::Recv(MatchSpec::User(src, tag)) => {
                let (waiting_on, src_s) = match src {
                    SourceSel::Rank(r) => (WaitTarget::Rank(r), format!("src={r}")),
                    SourceSel::Any => (WaitTarget::AnyRank, "src=ANY".to_string()),
                };
                let tag_s = match tag {
                    TagSel::Tag(t) => format!("tag={t}"),
                    TagSel::Any => "tag=ANY".to_string(),
                };
                (waiting_on, format!("{src_s}, {tag_s}"))
            }
            PendingOn::Recv(MatchSpec::Internal(src, _) | MatchSpec::Ack(src, _)) => {
                (WaitTarget::Rank(src), format!("from rank {src}"))
            }
            PendingOn::Send { dest, tag } => {
                (WaitTarget::Rank(dest), format!("to rank {dest}, tag {tag}"))
            }
            PendingOn::Agree => (WaitTarget::AnyRank, "failure agreement".to_string()),
        };
        BlockedOp {
            rank: self.rank,
            op: self.op,
            waiting_on,
            detail,
            site: self.site,
        }
    }
}

/// The watchdog's explanation of a deadlock: which ranks were blocked in
/// which calls, and the wait-for cycle if one exists.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct DeadlockInfo {
    /// Every operation that was blocked when the watchdog fired, in rank
    /// order.
    pub blocked: Vec<BlockedOp>,
    /// World ranks forming a wait-for cycle, in dependency order (rank
    /// `cycle[i]` waits on rank `cycle[i+1]`, and the last waits on the
    /// first). Empty when no cycle was found — e.g. a rank waiting on a
    /// peer that already finished.
    pub cycle: Vec<usize>,
}

impl DeadlockInfo {
    /// Does this carry any explanation beyond "the watchdog fired"?
    pub fn is_empty(&self) -> bool {
        self.blocked.is_empty() && self.cycle.is_empty()
    }

    /// Multi-line human rendering: the wait-for chain plus every blocked
    /// call with its site.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.cycle.is_empty() {
            out.push_str("wait-for cycle: ");
            for (i, &rank) in self.cycle.iter().enumerate() {
                if i > 0 {
                    out.push_str(" -> ");
                }
                match self.blocked.iter().find(|b| b.rank == rank) {
                    Some(b) => {
                        out.push_str(&format!("rank {rank} {}({})", b.op, b.detail));
                    }
                    None => out.push_str(&format!("rank {rank}")),
                }
            }
            out.push_str(&format!(" -> rank {}\n", self.cycle[0]));
        }
        if !self.blocked.is_empty() {
            out.push_str("blocked operations:\n");
            for b in &self.blocked {
                out.push_str(&format!("  {b}\n"));
            }
        }
        out
    }

    /// Find a wait-for cycle among blocked operations. A rank waiting on
    /// [`WaitTarget::AnyRank`] is treated as waiting on every other
    /// blocked rank (any of them could unblock it), matching how MUST
    /// handles `ANY_SOURCE` in its deadlock criterion.
    pub fn find_cycle(blocked: &[BlockedOp]) -> Vec<usize> {
        use std::collections::BTreeMap;
        let by_rank: BTreeMap<usize, &BlockedOp> = blocked.iter().map(|b| (b.rank, b)).collect();
        let successors = |rank: usize| -> Vec<usize> {
            match by_rank.get(&rank).map(|b| b.waiting_on) {
                Some(WaitTarget::Rank(p)) if by_rank.contains_key(&p) => vec![p],
                Some(WaitTarget::AnyRank) => {
                    by_rank.keys().copied().filter(|&r| r != rank).collect()
                }
                _ => Vec::new(),
            }
        };
        // Iterative DFS with the standard three colours; the first back
        // edge closes the reported cycle.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour: BTreeMap<usize, Colour> =
            by_rank.keys().map(|&r| (r, Colour::White)).collect();
        for &start in by_rank.keys() {
            if colour[&start] != Colour::White {
                continue;
            }
            // Path stack: (rank, remaining successors).
            let mut stack: Vec<(usize, Vec<usize>)> = vec![(start, successors(start))];
            colour.insert(start, Colour::Grey);
            while let Some((rank, succs)) = stack.last_mut() {
                let rank = *rank;
                match succs.pop() {
                    Some(next) => match colour[&next] {
                        Colour::White => {
                            colour.insert(next, Colour::Grey);
                            stack.push((next, successors(next)));
                        }
                        Colour::Grey => {
                            // Back edge: the cycle is the stack suffix
                            // starting at `next`.
                            let pos = stack
                                .iter()
                                .position(|(r, _)| *r == next)
                                .expect("grey rank is on the path");
                            return stack[pos..].iter().map(|(r, _)| *r).collect();
                        }
                        Colour::Black => {}
                    },
                    None => {
                        colour.insert(rank, Colour::Black);
                        stack.pop();
                    }
                }
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocked(rank: usize, target: WaitTarget) -> BlockedOp {
        BlockedOp {
            rank,
            op: "recv",
            waiting_on: target,
            detail: format!("tag {rank}"),
            site: CallSite {
                file: "test.rs",
                line: rank as u32 + 1,
            },
        }
    }

    #[test]
    fn ring_wait_produces_full_cycle() {
        let ops: Vec<BlockedOp> = (0..4)
            .map(|r| blocked(r, WaitTarget::Rank((r + 1) % 4)))
            .collect();
        let cycle = DeadlockInfo::find_cycle(&ops);
        assert_eq!(cycle.len(), 4);
        // Consecutive cycle entries follow wait edges.
        for w in cycle.windows(2) {
            assert_eq!(
                ops[w[0]].waiting_on,
                WaitTarget::Rank(w[1]),
                "cycle edge {w:?} is a wait edge"
            );
        }
    }

    #[test]
    fn chain_to_finished_rank_has_no_cycle() {
        // 0 waits on 1, 1 waits on 2, 2 is not blocked (it exited).
        let ops = vec![
            blocked(0, WaitTarget::Rank(1)),
            blocked(1, WaitTarget::Rank(2)),
        ];
        assert!(DeadlockInfo::find_cycle(&ops).is_empty());
    }

    #[test]
    fn any_source_closes_a_cycle() {
        // 0 waits on ANY, 1 waits on 0: 0 -> 1 -> 0.
        let ops = vec![
            blocked(0, WaitTarget::AnyRank),
            blocked(1, WaitTarget::Rank(0)),
        ];
        let cycle = DeadlockInfo::find_cycle(&ops);
        assert!(!cycle.is_empty());
    }

    #[test]
    fn render_names_every_blocked_rank() {
        let ops: Vec<BlockedOp> = (0..3)
            .map(|r| blocked(r, WaitTarget::Rank((r + 1) % 3)))
            .collect();
        let info = DeadlockInfo {
            cycle: DeadlockInfo::find_cycle(&ops),
            blocked: ops,
        };
        let s = info.render();
        assert!(s.contains("wait-for cycle"), "{s}");
        for r in 0..3 {
            assert!(s.contains(&format!("rank {r}")), "{s}");
        }
        assert!(s.contains("test.rs:1"), "{s}");
    }

    #[test]
    fn empty_info_renders_empty_and_reports_empty() {
        let info = DeadlockInfo::default();
        assert!(info.is_empty());
        assert!(info.render().is_empty());
    }

    /// The eager description a blocked receive or probe registered
    /// before descriptions were deferred, kept as the reference the
    /// deferred rendering must reproduce.
    fn eager_blocked_recv(
        rank: usize,
        coll_site: Option<(&'static str, CallSite)>,
        spec: &MatchSpec,
        user: Option<(&'static str, CallSite)>,
        fallback: CallSite,
    ) -> BlockedOp {
        let (op, site) = match spec {
            MatchSpec::Internal(..) | MatchSpec::Ack(..) => {
                coll_site.unwrap_or(("collective", fallback))
            }
            MatchSpec::User(..) => user.unwrap_or(("recv", fallback)),
        };
        let (waiting_on, detail) = match spec {
            MatchSpec::User(src, tag) => {
                let waiting_on = match src {
                    SourceSel::Rank(r) => WaitTarget::Rank(*r),
                    SourceSel::Any => WaitTarget::AnyRank,
                };
                let src_s = match src {
                    SourceSel::Rank(r) => format!("src={r}"),
                    SourceSel::Any => "src=ANY".to_string(),
                };
                let tag_s = match tag {
                    TagSel::Tag(t) => format!("tag={t}"),
                    TagSel::Any => "tag=ANY".to_string(),
                };
                (waiting_on, format!("{src_s}, {tag_s}"))
            }
            MatchSpec::Internal(src, _) | MatchSpec::Ack(src, _) => {
                (WaitTarget::Rank(*src), format!("from rank {src}"))
            }
        };
        BlockedOp {
            rank,
            op,
            waiting_on,
            detail,
            site,
        }
    }

    /// The eager description of a blocked rendezvous send.
    fn eager_blocked_send(
        rank: usize,
        op: &'static str,
        dest: usize,
        tag: u32,
        site: CallSite,
    ) -> BlockedOp {
        BlockedOp {
            rank,
            op,
            waiting_on: WaitTarget::Rank(dest),
            detail: format!("to rank {dest}, tag {tag}"),
            site,
        }
    }

    fn site(line: u32) -> CallSite {
        CallSite {
            file: "user.rs",
            line,
        }
    }

    #[test]
    fn deferred_descriptions_render_like_the_eager_ones() {
        let coll = Some(("allreduce", site(40)));
        let recvs = [
            (
                "exact recv",
                MatchSpec::User(SourceSel::Rank(3), TagSel::Tag(7)),
                Some(("recv", site(10))),
            ),
            (
                "ANY_SOURCE recv",
                MatchSpec::User(SourceSel::Any, TagSel::Tag(0)),
                Some(("recv", site(11))),
            ),
            (
                "ANY_TAG recv",
                MatchSpec::User(SourceSel::Rank(0), TagSel::Any),
                Some(("wait_recv", site(12))),
            ),
            (
                "wildcard probe",
                MatchSpec::User(SourceSel::Any, TagSel::Any),
                Some(("probe", site(13))),
            ),
            (
                "exact probe",
                MatchSpec::User(SourceSel::Rank(9), TagSel::Tag(u32::MAX)),
                Some(("probe", site(14))),
            ),
            (
                "internal recv in a collective",
                MatchSpec::Internal(5, 1 << 40),
                None,
            ),
            ("internal recv of rank 0", MatchSpec::Internal(0, 0), None),
        ];
        for (what, spec, user) in recvs {
            let deferred = PendingOp::recv(2, spec, user, coll).render();
            let eager = eager_blocked_recv(2, coll, &spec, user, site(0));
            assert_eq!(deferred, eager, "{what}");
            assert_eq!(deferred.to_string(), eager.to_string(), "{what}");
        }
        // Without a collective or user attribution both fall back to a
        // runtime-internal site; everything else still agrees.
        for spec in [
            MatchSpec::Internal(1, 3),
            MatchSpec::User(SourceSel::Any, TagSel::Tag(2)),
        ] {
            let deferred = PendingOp::recv(4, spec, None, None).render();
            let eager = eager_blocked_recv(4, None, &spec, None, deferred.site);
            assert_eq!(deferred, eager, "{spec:?}");
        }
        for (op, dest, tag) in [("send(rendezvous)", 1, 0), ("ssend", 0, u32::MAX)] {
            let deferred = PendingOp {
                rank: 6,
                op,
                site: site(20),
                on: PendingOn::Send { dest, tag },
            }
            .render();
            let eager = eager_blocked_send(6, op, dest, tag, site(20));
            assert_eq!(deferred, eager, "{op}");
            assert_eq!(deferred.to_string(), eager.to_string(), "{op}");
        }
        let agree = PendingOp {
            rank: 1,
            op: "agree",
            site: site(30),
            on: PendingOn::Agree,
        }
        .render();
        assert_eq!(
            agree,
            BlockedOp {
                rank: 1,
                op: "agree",
                waiting_on: WaitTarget::AnyRank,
                detail: "failure agreement".into(),
                site: site(30),
            }
        );
    }

    #[test]
    fn mode_queries() {
        assert!(!CheckMode::Off.is_on());
        assert!(CheckMode::Record.is_on());
        assert_eq!(CheckMode::Perturb(7).perturb_seed(), Some(7));
        assert_eq!(CheckMode::Record.perturb_seed(), None);
    }
}
