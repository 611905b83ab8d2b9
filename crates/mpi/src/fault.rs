//! Deterministic fault injection: seeded plans for crashes and lossy links.
//!
//! Real clusters lose nodes and drop packets; a pedagogic substrate that
//! only ever models a perfect machine cannot teach fault tolerance. A
//! [`FaultPlan`] schedules *rank crashes*, *node failures*, and
//! per-message *drop / duplication / delay* faults against the simulated
//! clock, and the transport enacts them deterministically:
//!
//! * every message fault is decided by a pure hash of
//!   `(seed, src, dst, seq, attempt)` — the same seed replays the exact
//!   same faults, independent of thread scheduling;
//! * a crash fires the first time the doomed rank touches the runtime at
//!   or after its scheduled simulated time, and every *other* rank that
//!   subsequently depends on it observes a typed
//!   [`Error::RankFailed`](crate::Error::RankFailed) instead of hanging
//!   until the world deadlocks (ULFM-style error propagation);
//! * with a [`RetryPolicy`], dropped messages are retransmitted after a
//!   simulated timeout with exponential backoff, charging the retry cost
//!   to the sender's clock; without one, a dropped message silently
//!   vanishes and the resulting hang is reported as a deadlock.
//!
//! Plans are serialisable, so a failing scenario can be saved and
//! replayed bit-identically. See `docs/faults.md` for the full model and
//! [`WorldConfig::with_faults`](crate::WorldConfig::with_faults) for the
//! entry point.

use serde::{Deserialize, Serialize};

/// Retransmission policy for dropped messages.
///
/// All times are *simulated* seconds: a retry charges
/// `timeout_s * backoff^attempt` to the sender's clock before the
/// retransmission, modelling an ack-timeout protocol without burning wall
/// time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total transmission attempts, including the first. When all are
    /// dropped the send fails with
    /// [`Error::MessageLost`](crate::Error::MessageLost).
    pub max_attempts: u32,
    /// Simulated ack-timeout before the first retransmission, in seconds.
    pub timeout_s: f64,
    /// Timeout multiplier per further retransmission (exponential
    /// backoff).
    pub backoff: f64,
}

impl Default for RetryPolicy {
    /// Eight attempts, 100 µs initial timeout, doubling each round.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            timeout_s: 1e-4,
            backoff: 2.0,
        }
    }
}

/// A scheduled process-failure event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CrashEvent {
    /// One rank crashes at a simulated time.
    Rank {
        /// World rank that crashes.
        rank: usize,
        /// Simulated time (seconds) at which it crashes.
        at: f64,
    },
    /// Every rank placed on a node crashes at a simulated time.
    Node {
        /// Node index, as assigned by the world's `pdc_cluster` placement.
        node: usize,
        /// Simulated time (seconds) at which the node fails.
        at: f64,
    },
}

/// A seeded, serialisable schedule of faults for one world execution.
///
/// Construct with [`FaultPlan::seeded`] and the builder methods, then
/// install via [`WorldConfig::with_faults`](crate::WorldConfig::with_faults).
/// The default plan injects nothing.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the per-message fault hash.
    pub seed: u64,
    /// Scheduled rank/node crashes.
    pub crashes: Vec<CrashEvent>,
    /// Probability in `[0, 1]` that a message transmission is dropped.
    pub drop_rate: f64,
    /// Probability in `[0, 1]` that a delivered message is duplicated.
    pub duplicate_rate: f64,
    /// Probability in `[0, 1]` that a delivered message is delayed.
    pub delay_rate: f64,
    /// Extra simulated latency (seconds) added to a delayed message.
    pub delay_s: f64,
    /// Retransmission policy for drops; `None` means dropped messages
    /// simply vanish.
    pub retry: Option<RetryPolicy>,
}

/// Per-world fault state, resolved once at bootstrap and shared by every
/// rank's communicator: the plan plus the crash schedule resolved against
/// the world's placement.
#[derive(Debug, Clone)]
pub(crate) struct ActiveFaults {
    /// The user's plan.
    pub plan: std::sync::Arc<FaultPlan>,
    /// Earliest simulated crash time per rank (`None` = never crashes).
    pub crash_at: std::sync::Arc<Vec<Option<f64>>>,
}

/// The transport-level fate of one message transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Fate {
    /// Delivered normally.
    Deliver,
    /// Lost in transit.
    Drop,
    /// Delivered twice.
    Duplicate,
    /// Delivered after this much extra simulated latency.
    Delay(f64),
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

impl FaultPlan {
    /// A plan that injects nothing yet, with the given hash seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Schedule `rank` to crash at simulated time `at`.
    pub fn crash_rank(mut self, rank: usize, at: f64) -> Self {
        self.crashes.push(CrashEvent::Rank { rank, at });
        self
    }

    /// Schedule every rank on `node` to crash at simulated time `at`.
    pub fn crash_node(mut self, node: usize, at: f64) -> Self {
        self.crashes.push(CrashEvent::Node { node, at });
        self
    }

    /// Drop each message transmission with probability `p`.
    pub fn with_drop_rate(mut self, p: f64) -> Self {
        self.drop_rate = p;
        self
    }

    /// Duplicate each delivered message with probability `p`.
    pub fn with_duplicate_rate(mut self, p: f64) -> Self {
        self.duplicate_rate = p;
        self
    }

    /// Delay each delivered message by `delay_s` simulated seconds with
    /// probability `p`.
    pub fn with_delay(mut self, p: f64, delay_s: f64) -> Self {
        self.delay_rate = p;
        self.delay_s = delay_s;
        self
    }

    /// Retransmit dropped messages under `policy`.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Remove all scheduled crashes of `rank` — used by checkpoint/restart
    /// harnesses so a crash that already fired does not fire again on the
    /// restarted execution.
    pub fn disarm_crash(&mut self, rank: usize) {
        self.crashes
            .retain(|c| !matches!(c, CrashEvent::Rank { rank: r, .. } if *r == rank));
    }

    /// Remove all scheduled failures of `node`.
    pub fn disarm_node(&mut self, node: usize) {
        self.crashes
            .retain(|c| !matches!(c, CrashEvent::Node { node: n, .. } if *n == node));
    }

    /// Does this plan perturb messages at all (drop, duplicate or delay)?
    pub fn has_message_faults(&self) -> bool {
        self.drop_rate > 0.0 || self.duplicate_rate > 0.0 || self.delay_rate > 0.0
    }

    /// The fate of transmission `attempt` (0-based) of the message
    /// `(src, dst, seq)`. Pure function of the plan's seed and the
    /// arguments: replays are bit-identical regardless of scheduling.
    pub(crate) fn fate(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> Fate {
        if !self.has_message_faults() {
            return Fate::Deliver;
        }
        let mut h = splitmix64(self.seed);
        h = mix(h, src as u64);
        h = mix(h, dst as u64);
        h = mix(h, seq);
        h = mix(h, attempt as u64);
        // 53 uniform bits, exactly the double-precision mantissa.
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.drop_rate {
            Fate::Drop
        } else if u < self.drop_rate + self.duplicate_rate {
            Fate::Duplicate
        } else if u < self.drop_rate + self.duplicate_rate + self.delay_rate {
            Fate::Delay(self.delay_s)
        } else {
            Fate::Deliver
        }
    }

    /// Resolve the crash schedule against a placement: the earliest
    /// simulated time each rank dies (rank events plus node events via
    /// `node_of`), or `None` for ranks that never crash.
    pub(crate) fn resolve_crashes(
        &self,
        size: usize,
        node_of: impl Fn(usize) -> usize,
    ) -> Vec<Option<f64>> {
        let mut at: Vec<Option<f64>> = vec![None; size];
        let mut doom = |rank: usize, t: f64| {
            if rank < size {
                at[rank] = Some(match at[rank] {
                    Some(prev) => prev.min(t),
                    None => t,
                });
            }
        };
        for c in &self.crashes {
            match *c {
                CrashEvent::Rank { rank, at } => doom(rank, at),
                CrashEvent::Node { node, at } => {
                    for rank in 0..size {
                        if node_of(rank) == node {
                            doom(rank, at);
                        }
                    }
                }
            }
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fate_is_deterministic() {
        let plan = FaultPlan::seeded(42)
            .with_drop_rate(0.3)
            .with_delay(0.2, 1e-3);
        for seq in 0..50 {
            assert_eq!(plan.fate(0, 1, seq, 0), plan.fate(0, 1, seq, 0));
        }
    }

    #[test]
    fn fate_varies_with_attempt_and_seed() {
        let plan = FaultPlan::seeded(1).with_drop_rate(0.5);
        let other = FaultPlan::seeded(2).with_drop_rate(0.5);
        let differs_by_attempt = (0..64).any(|s| plan.fate(0, 1, s, 0) != plan.fate(0, 1, s, 1));
        let differs_by_seed = (0..64).any(|s| plan.fate(0, 1, s, 0) != other.fate(0, 1, s, 0));
        assert!(differs_by_attempt, "attempt number must reshuffle fates");
        assert!(differs_by_seed, "seed must reshuffle fates");
    }

    #[test]
    fn fate_rate_is_roughly_honoured() {
        let plan = FaultPlan::seeded(7).with_drop_rate(0.25);
        let drops = (0..4000u64)
            .filter(|&s| plan.fate(0, 1, s, 0) == Fate::Drop)
            .count();
        let rate = drops as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "observed drop rate {rate}");
    }

    #[test]
    fn zero_rates_always_deliver() {
        let plan = FaultPlan::seeded(9);
        assert!(!plan.has_message_faults());
        assert_eq!(plan.fate(3, 4, 17, 0), Fate::Deliver);
    }

    #[test]
    fn crash_resolution_takes_earliest_and_merges_node_events() {
        let plan = FaultPlan::seeded(0)
            .crash_rank(1, 0.5)
            .crash_rank(1, 0.2)
            .crash_node(0, 0.9);
        // Ranks 0 and 1 live on node 0; rank 2 on node 1.
        let at = plan.resolve_crashes(3, |r| if r < 2 { 0 } else { 1 });
        assert_eq!(at, vec![Some(0.9), Some(0.2), None]);
    }

    #[test]
    fn disarm_removes_only_the_named_rank() {
        let mut plan = FaultPlan::seeded(0).crash_rank(1, 0.5).crash_rank(2, 0.7);
        plan.disarm_crash(1);
        let at = plan.resolve_crashes(3, |_| 0);
        assert_eq!(at, vec![None, None, Some(0.7)]);
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan::seeded(11)
            .crash_rank(2, 0.25)
            .crash_node(1, 0.75)
            .with_drop_rate(0.1)
            .with_duplicate_rate(0.05)
            .with_delay(0.02, 2e-3)
            .with_retry(RetryPolicy::default());
        let json = serde_json::to_string(&plan).expect("serialises");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(plan, back);
    }
}
