//! Wire-level message representation and matching keys.

use crate::datatype::{decode_into, encode_slice, Datatype};
use crate::error::{Error, Result};
use bytes::Bytes;

/// Source selector for receives: a specific rank or the wildcard
/// (`MPI_ANY_SOURCE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceSel {
    /// Match only messages from this rank.
    Rank(usize),
    /// Match a message from any rank (`MPI_ANY_SOURCE`).
    Any,
}

impl From<usize> for SourceSel {
    fn from(rank: usize) -> Self {
        SourceSel::Rank(rank)
    }
}

impl SourceSel {
    /// Does a message from `src` satisfy this selector?
    pub fn matches(self, src: usize) -> bool {
        match self {
            SourceSel::Rank(r) => r == src,
            SourceSel::Any => true,
        }
    }
}

/// Tag selector for receives: a specific tag or the wildcard
/// (`MPI_ANY_TAG`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    /// Match only this tag.
    Tag(u32),
    /// Match any tag (`MPI_ANY_TAG`).
    Any,
}

impl From<u32> for TagSel {
    fn from(tag: u32) -> Self {
        TagSel::Tag(tag)
    }
}

impl TagSel {
    /// Does a message with `tag` satisfy this selector?
    pub fn matches(self, tag: u32) -> bool {
        match self {
            TagSel::Tag(t) => t == tag,
            TagSel::Any => true,
        }
    }
}

/// Message class: user messages match user receives; internal messages are
/// generated by collectives and are invisible to user-level wildcards;
/// acknowledgements answer rendezvous envelopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgClass {
    /// Application message with a user tag.
    User(u32),
    /// Runtime-internal message (collective round), keyed by a 64-bit
    /// sequence tag so concurrent collectives can never cross-match.
    Internal(u64),
    /// Rendezvous acknowledgement (see `Envelope::ack`). Its `seq` is
    /// the acknowledged envelope's, not a sequence number of its own.
    Ack,
}

/// What a receive operation wants to match.
#[derive(Debug, Clone, Copy)]
pub enum MatchSpec {
    /// User receive: source and tag selectors.
    User(SourceSel, TagSel),
    /// Internal receive: exact source, exact internal tag.
    Internal(usize, u64),
    /// A rendezvous sender's ack wait: the acknowledgement from this
    /// source of the sender's envelope with this sequence number.
    Ack(usize, u64),
}

impl MatchSpec {
    /// The exact source rank this spec waits on, or `None` for a
    /// wildcard-source receive. Used by the progress engine to decide
    /// whether a crashed rank dooms the wait.
    pub fn source_rank(&self) -> Option<usize> {
        match *self {
            MatchSpec::User(SourceSel::Rank(r), _) => Some(r),
            MatchSpec::User(SourceSel::Any, _) => None,
            MatchSpec::Internal(src, _) | MatchSpec::Ack(src, _) => Some(src),
        }
    }

    /// Does `env` satisfy this spec?
    pub fn matches(&self, env: &Envelope) -> bool {
        match (*self, env.class) {
            (MatchSpec::User(src, tag), MsgClass::User(t)) => {
                src.matches(env.src) && tag.matches(t)
            }
            (MatchSpec::Internal(src, tag), MsgClass::Internal(t)) => src == env.src && tag == t,
            (MatchSpec::Ack(src, seq), MsgClass::Ack) => src == env.src && seq == env.seq,
            _ => false,
        }
    }
}

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// User or internal classification + tag.
    pub class: MsgClass,
    /// Element type name for runtime type checking.
    pub type_name: &'static str,
    /// Element size in bytes.
    pub type_size: usize,
    /// Encoded payload.
    pub payload: Bytes,
    /// Sender's simulated clock when the message left.
    pub send_time: f64,
    /// Per-sender sequence number (monotone across all of one rank's
    /// sends). The checker pairs sends with receives through it.
    pub seq: u64,
    /// The sender blocks until the receiver answers this envelope with
    /// an `Envelope::ack` (synchronous-send semantics).
    pub rendezvous: bool,
}

impl Envelope {
    /// `src`'s answer to the rendezvous envelope `seq` it received: the
    /// receiver's clock when it matched the envelope, or `None` when it
    /// finished without matching it (a refusal, sent as an empty
    /// payload). It travels to the sender like any other envelope.
    pub(crate) fn ack(src: usize, seq: u64, matched_at: Option<f64>) -> Envelope {
        Envelope {
            src,
            class: MsgClass::Ack,
            type_name: f64::NAME,
            type_size: f64::SIZE,
            payload: matched_at.map_or_else(Bytes::new, |t| encode_slice(&[t])),
            send_time: 0.0,
            seq,
            rendezvous: false,
        }
    }

    /// The match time an acknowledgement carries, or `None` for a
    /// refusal.
    pub(crate) fn matched_at(&self) -> Option<f64> {
        let mut t = [0.0f64];
        (!self.payload.is_empty()).then(|| {
            decode_into(&self.payload, &mut t);
            t[0]
        })
    }

    /// Check the payload's element type against `T`, the single gate every
    /// decode path goes through.
    pub fn ensure_type<T: crate::datatype::Datatype>(&self) -> Result<()> {
        if self.type_name != T::NAME || self.type_size != T::SIZE {
            return Err(Error::TypeMismatch {
                expected: T::NAME,
                found: self.type_name,
            });
        }
        Ok(())
    }
}

/// Receive status — the analogue of `MPI_Status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Actual source rank (useful after an `ANY_SOURCE` receive).
    pub source: usize,
    /// Actual tag (useful after an `ANY_TAG` receive).
    pub tag: u32,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Element type name carried by the message.
    pub type_name: &'static str,
    /// Element size carried by the message.
    pub type_size: usize,
}

impl Status {
    /// Build a status from an envelope.
    ///
    /// # Panics
    /// Panics on internal envelopes — statuses are a user-level concept.
    pub fn of(env: &Envelope) -> Self {
        let tag = match env.class {
            MsgClass::User(t) => t,
            MsgClass::Internal(_) | MsgClass::Ack => {
                panic!("runtime messages have no user status")
            }
        };
        Self {
            source: env.src,
            tag,
            bytes: env.payload.len(),
            type_name: env.type_name,
            type_size: env.type_size,
        }
    }

    /// Element count of the message interpreted as `T` — the analogue of
    /// `MPI_Get_count`. Fails on a type mismatch.
    pub fn count<T: crate::datatype::Datatype>(&self) -> Result<usize> {
        if self.type_name != T::NAME || self.type_size != T::SIZE {
            return Err(Error::TypeMismatch {
                expected: T::NAME,
                found: self.type_name,
            });
        }
        Ok(self.bytes / self.type_size.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::encode_slice;

    fn user_env(src: usize, tag: u32, n_f64: usize) -> Envelope {
        Envelope {
            src,
            class: MsgClass::User(tag),
            type_name: "f64",
            type_size: 8,
            payload: encode_slice(&vec![0.0f64; n_f64]),
            send_time: 0.0,
            seq: 0,
            rendezvous: false,
        }
    }

    #[test]
    fn selectors_match_as_mpi_wildcards() {
        assert!(SourceSel::Any.matches(5));
        assert!(SourceSel::Rank(5).matches(5));
        assert!(!SourceSel::Rank(5).matches(4));
        assert!(TagSel::Any.matches(9));
        assert!(TagSel::Tag(9).matches(9));
        assert!(!TagSel::Tag(9).matches(8));
    }

    #[test]
    fn user_spec_never_matches_internal_messages() {
        let mut env = user_env(2, 7, 1);
        env.class = MsgClass::Internal(42);
        let spec = MatchSpec::User(SourceSel::Any, TagSel::Any);
        assert!(!spec.matches(&env));
        let spec = MatchSpec::Internal(2, 42);
        assert!(spec.matches(&env));
        assert!(!MatchSpec::Internal(2, 41).matches(&env));
        assert!(!MatchSpec::Internal(1, 42).matches(&env));
    }

    #[test]
    fn an_ack_matches_only_its_source_and_sequence_number() {
        let ack = Envelope::ack(2, 9, Some(1.25));
        assert_eq!(ack.matched_at(), Some(1.25));
        assert!(MatchSpec::Ack(2, 9).matches(&ack));
        assert!(!MatchSpec::Ack(2, 8).matches(&ack));
        assert!(!MatchSpec::Ack(1, 9).matches(&ack));
        assert!(!MatchSpec::User(SourceSel::Any, TagSel::Any).matches(&ack));
        assert!(!MatchSpec::Ack(2, 0).matches(&user_env(2, 0, 1)));
        assert_eq!(Envelope::ack(2, 9, None).matched_at(), None, "a refusal");
    }

    #[test]
    fn status_reports_count() {
        let env = user_env(3, 7, 5);
        let st = Status::of(&env);
        assert_eq!(st.source, 3);
        assert_eq!(st.tag, 7);
        assert_eq!(st.count::<f64>().expect("same type"), 5);
        assert!(matches!(st.count::<i32>(), Err(Error::TypeMismatch { .. })));
    }
}
