//! Error type for the message-passing runtime.

use crate::check::DeadlockInfo;
use std::fmt;

/// Errors surfaced by runtime primitives.
///
/// MPI reports errors through return codes; we use `Result` throughout. The
/// interesting variants for the pedagogic modules are [`Error::Deadlock`]
/// (Module 1's blocking-ring lesson, detected the instant no rank can move) and
/// [`Error::TypeMismatch`] / [`Error::Truncated`] (classic student bugs the
/// runtime turns into actionable diagnostics instead of garbage data).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Error {
    /// No rank can move and some rank is unfinished: the program has
    /// deadlocked (e.g. all ranks in a blocking ring `send`). Carries the
    /// explanation — which calls were blocked on
    /// which peers, and the wait-for cycle — when one was assembled (an
    /// empty [`DeadlockInfo`] renders just the headline).
    Deadlock(DeadlockInfo),
    /// A rank failed (an injected crash from a
    /// [`FaultPlan`](crate::FaultPlan)). Returned by the failed rank
    /// itself at its crash point, and — ULFM-style — by any operation on
    /// a surviving rank that depends on the dead one, instead of hanging
    /// until the world deadlocks. Survivors can acknowledge the failure
    /// with [`Comm::agree`](crate::Comm::agree) and continue among
    /// themselves (see [`Comm::shrink`](crate::Comm::shrink)).
    RankFailed {
        /// The world rank that failed.
        rank: usize,
        /// Simulated time (seconds) at which it failed.
        at: f64,
    },
    /// Every transmission attempt of a message was dropped by the fault
    /// plan and the [`RetryPolicy`](crate::RetryPolicy) ran out of
    /// retries.
    MessageLost {
        /// Destination rank of the lost message.
        dst: usize,
        /// Transmission attempts made (including the first).
        attempts: u32,
    },
    /// A built-in reduction operator is not defined for the element type
    /// (e.g. `Op::Sum` on [`Loc`](crate::Loc), which only supports
    /// `Min`/`Max` — MPI's `MINLOC`/`MAXLOC`).
    InvalidOp {
        /// The rejected operator, rendered via `Debug`.
        op: crate::reduce::Op,
        /// The element type that does not support it.
        type_name: &'static str,
    },
    /// A receive matched a message whose element type differs from the
    /// receiver's type parameter.
    TypeMismatch {
        /// Type the receiver asked for.
        expected: &'static str,
        /// Type the sender actually sent.
        found: &'static str,
    },
    /// A message arrived whose payload is not a whole number of elements of
    /// the receive type, or exceeds a bounded receive buffer.
    Truncated {
        /// Bytes in the matched message.
        message_bytes: usize,
        /// Capacity of the receive buffer in bytes.
        buffer_bytes: usize,
    },
    /// The world was cancelled from outside while this operation was
    /// blocked — a deadline kill or a scheduler preemption
    /// ([`CancelToken`](crate::CancelToken)). Carries the canceller's
    /// reason. Unlike [`Error::Deadlock`] the program was not stuck;
    /// determinism makes a cancelled run safe to restart from scratch.
    Cancelled(String),
    /// A rank's closure panicked; the panic was contained to that rank.
    RankPanicked(usize),
    /// Caller error: bad rank index, mismatched collective arguments, ...
    InvalidArgument(String),
    /// The world was torn down while an operation was in flight.
    WorldShutDown,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Deadlock(info) => {
                write!(
                    f,
                    "deadlock detected: every rank is blocked and no message has moved"
                )?;
                if !info.is_empty() {
                    write!(f, "\n{}", info.render().trim_end())?;
                }
                Ok(())
            }
            Error::TypeMismatch { expected, found } => {
                write!(
                    f,
                    "datatype mismatch: receiving {expected} but message holds {found}"
                )
            }
            Error::Truncated {
                message_bytes,
                buffer_bytes,
            } => write!(
                f,
                "message truncated: {message_bytes} bytes do not fit a {buffer_bytes}-byte buffer"
            ),
            Error::RankFailed { rank, at } => {
                write!(f, "rank {rank} failed at simulated time {at:.6}s")
            }
            Error::MessageLost { dst, attempts } => write!(
                f,
                "message to rank {dst} lost after {attempts} transmission attempt(s)"
            ),
            Error::InvalidOp { op, type_name } => write!(
                f,
                "reduction operator {op:?} is not defined for element type {type_name}"
            ),
            Error::Cancelled(reason) => write!(f, "run cancelled: {reason}"),
            Error::RankPanicked(r) => write!(f, "rank {r} panicked"),
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::WorldShutDown => write!(f, "world shut down during an operation"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias used across the runtime.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::TypeMismatch {
            expected: "f64",
            found: "i32",
        };
        let s = e.to_string();
        assert!(s.contains("f64") && s.contains("i32"));
        assert!(Error::Deadlock(DeadlockInfo::default())
            .to_string()
            .contains("deadlock"));
        assert!(Error::RankPanicked(3).to_string().contains('3'));
        let failed = Error::RankFailed { rank: 2, at: 0.5 }.to_string();
        assert!(
            failed.contains("rank 2") && failed.contains("failed"),
            "{failed}"
        );
        let lost = Error::MessageLost {
            dst: 1,
            attempts: 8,
        }
        .to_string();
        assert!(lost.contains("rank 1") && lost.contains('8'), "{lost}");
        let op = Error::InvalidOp {
            op: crate::reduce::Op::Sum,
            type_name: "Loc",
        }
        .to_string();
        assert!(op.contains("Sum") && op.contains("Loc"), "{op}");
    }

    #[test]
    fn deadlock_display_includes_explanation() {
        use crate::check::{BlockedOp, CallSite, WaitTarget};
        let info = DeadlockInfo {
            blocked: vec![BlockedOp {
                rank: 2,
                op: "ssend",
                waiting_on: WaitTarget::Rank(3),
                detail: "tag 0".into(),
                site: CallSite {
                    file: "ring.rs",
                    line: 9,
                },
            }],
            cycle: vec![2],
        };
        let s = Error::Deadlock(info).to_string();
        assert!(s.contains("deadlock detected"), "{s}");
        assert!(s.contains("rank 2 ssend(tag 0) waiting on rank 3"), "{s}");
        assert!(s.contains("ring.rs:9"), "{s}");
    }
}
