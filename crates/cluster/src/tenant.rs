//! Multi-tenant fair-share scheduling for the performance-lab service.
//!
//! [`slurm`](crate::slurm) simulates a *batch* scheduler over simulated
//! seconds: the whole workload is known up front and the simulation runs
//! to completion. The lab server (`pdc-lab`) has the opposite shape —
//! jobs arrive over real time from many tenants (course sections, CI
//! bots, instructors) and must be admitted *online* into a fixed pool of
//! executor slots. This module provides that policy as a pure data
//! structure, decoupled from clocks and threads so it can be unit-tested
//! deterministically: the caller supplies `now` to every method.
//!
//! The policy is classic fair-share with aging and preemption:
//!
//! ```text
//! effective(job, now) = tenant.priority + job.priority
//!                     + aging_rate · (now − enqueued)
//!                     − usage(tenant, now) / tenant.weight
//! ```
//!
//! * **Fair share** — each tenant accrues decayed *usage* (slot-seconds,
//!   half-life [`FairShareConfig::usage_half_life`]); heavy users sink
//!   below light users of equal priority.
//! * **Aging** — waiting jobs gain priority linearly, which bounds
//!   starvation: a job deficit of Δ points is erased after
//!   Δ / `aging_rate` seconds of waiting.
//! * **Quotas** — [`TenantPolicy::max_running`] caps a tenant's
//!   concurrently running jobs regardless of priority.
//! * **Preemption** — when every slot is busy, a waiting job that
//!   outranks the weakest running job by more than
//!   [`FairShareConfig::preempt_margin`] evicts it. The victim is
//!   requeued with its *original* enqueue time (so its aging credit
//!   survives) and restarts from scratch — safe, because lab runs are
//!   deterministic.
//!
//! Ties break by submission sequence number, so every decision is a pure
//! function of the call history.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-tenant scheduling policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantPolicy {
    /// Fair-share weight: usage is divided by this before it is charged
    /// against priority. A weight-2 tenant may consume twice the
    /// resources of a weight-1 tenant before sinking to equal rank.
    pub weight: f64,
    /// Base priority added to every job from this tenant.
    pub priority: i64,
    /// Maximum concurrently *running* jobs (quota). Waiting jobs beyond
    /// the quota stay queued even when slots are free.
    pub max_running: usize,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        Self {
            weight: 1.0,
            priority: 0,
            max_running: usize::MAX,
        }
    }
}

/// Tuning knobs for the fair-share queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FairShareConfig {
    /// Priority points a waiting job gains per second (aging). Must be
    /// positive for the starvation bound to hold.
    pub aging_rate: f64,
    /// Half-life in seconds of the decayed per-tenant usage charge.
    pub usage_half_life: f64,
    /// A waiting job must outrank the weakest running job by more than
    /// this many points before it may preempt it. Hysteresis: prevents
    /// near-equal jobs from evicting each other back and forth.
    pub preempt_margin: f64,
}

impl Default for FairShareConfig {
    fn default() -> Self {
        Self {
            aging_rate: 1.0,
            usage_half_life: 60.0,
            preempt_margin: 10.0,
        }
    }
}

/// Identifier of a job inside a [`FairShare`] queue (assigned by
/// [`FairShare::submit`], unique per queue).
pub type JobId = u64;

#[derive(Debug, Clone)]
struct QueuedJob {
    id: JobId,
    tenant: String,
    priority: i64,
    /// First enqueue time; preserved across preemptions so aging credit
    /// accumulates from original submission.
    enqueued_at: f64,
}

#[derive(Debug, Clone)]
struct RunningJob {
    id: JobId,
    tenant: String,
    priority: i64,
    enqueued_at: f64,
    started_at: f64,
}

#[derive(Debug, Clone, Default)]
struct TenantUsage {
    /// Decayed slot-seconds, valid as of `as_of`.
    charge: f64,
    as_of: f64,
}

/// The online multi-tenant fair-share queue.
///
/// All methods take `now` (seconds, any monotonic epoch); the structure
/// never reads a clock, so identical call sequences yield identical
/// decisions.
#[derive(Debug, Clone)]
pub struct FairShare {
    config: FairShareConfig,
    policies: BTreeMap<String, TenantPolicy>,
    waiting: Vec<QueuedJob>,
    running: Vec<RunningJob>,
    usage: BTreeMap<String, TenantUsage>,
    next_id: JobId,
    /// Total preemptions performed (observability).
    preemptions: u64,
}

impl FairShare {
    /// An empty queue with the given knobs. Tenants not registered via
    /// [`FairShare::set_policy`] get [`TenantPolicy::default`].
    pub fn new(config: FairShareConfig) -> Self {
        assert!(
            config.aging_rate >= 0.0
                && config.usage_half_life > 0.0
                && config.preempt_margin >= 0.0,
            "fair-share knobs must be non-negative (half-life positive)"
        );
        Self {
            config,
            policies: BTreeMap::new(),
            waiting: Vec::new(),
            running: Vec::new(),
            usage: BTreeMap::new(),
            next_id: 0,
            preemptions: 0,
        }
    }

    /// Register (or replace) a tenant's policy.
    pub fn set_policy(&mut self, tenant: impl Into<String>, policy: TenantPolicy) {
        assert!(policy.weight > 0.0, "tenant weight must be positive");
        self.policies.insert(tenant.into(), policy);
    }

    fn policy(&self, tenant: &str) -> TenantPolicy {
        self.policies.get(tenant).cloned().unwrap_or_default()
    }

    /// Enqueue a job for `tenant` with a per-job priority boost. Returns
    /// the queue-assigned [`JobId`].
    pub fn submit(&mut self, tenant: impl Into<String>, priority: i64, now: f64) -> JobId {
        let id = self.next_id;
        self.next_id += 1;
        self.waiting.push(QueuedJob {
            id,
            tenant: tenant.into(),
            priority,
            enqueued_at: now,
        });
        id
    }

    /// Decayed usage charge for `tenant` as of `now`.
    pub fn usage(&self, tenant: &str, now: f64) -> f64 {
        match self.usage.get(tenant) {
            Some(u) => u.charge * self.decay(now - u.as_of),
            None => 0.0,
        }
    }

    fn decay(&self, dt: f64) -> f64 {
        if dt <= 0.0 {
            1.0
        } else {
            0.5f64.powf(dt / self.config.usage_half_life)
        }
    }

    fn charge_usage(&mut self, tenant: &str, slot_seconds: f64, now: f64) {
        let decayed = self.usage(tenant, now);
        self.usage.insert(
            tenant.to_string(),
            TenantUsage {
                charge: decayed + slot_seconds,
                as_of: now,
            },
        );
    }

    fn effective(&self, tenant: &str, priority: i64, enqueued_at: f64, now: f64) -> f64 {
        let policy = self.policy(tenant);
        (policy.priority + priority) as f64 + self.config.aging_rate * (now - enqueued_at).max(0.0)
            - self.usage(tenant, now) / policy.weight
    }

    /// Effective priority of a waiting job (`None` if the id is not
    /// waiting).
    pub fn effective_priority(&self, id: JobId, now: f64) -> Option<f64> {
        self.waiting
            .iter()
            .find(|j| j.id == id)
            .map(|j| self.effective(&j.tenant, j.priority, j.enqueued_at, now))
    }

    fn running_count(&self, tenant: &str) -> usize {
        self.running.iter().filter(|j| j.tenant == tenant).count()
    }

    /// Index into `waiting` of the best admissible job: highest effective
    /// priority among tenants under quota, ties to the earliest id.
    fn best_waiting(&self, now: f64) -> Option<usize> {
        let mut best: Option<(usize, f64, JobId)> = None;
        for (i, job) in self.waiting.iter().enumerate() {
            if self.running_count(&job.tenant) >= self.policy(&job.tenant).max_running {
                continue;
            }
            let eff = self.effective(&job.tenant, job.priority, job.enqueued_at, now);
            let better = match best {
                None => true,
                Some((_, best_eff, best_id)) => {
                    eff > best_eff || (eff == best_eff && job.id < best_id)
                }
            };
            if better {
                best = Some((i, eff, job.id));
            }
        }
        best.map(|(i, _, _)| i)
    }

    /// Admit the best waiting job into a free slot: marks it running and
    /// returns its id, or `None` when nothing is admissible (empty queue
    /// or all candidates over quota). Call once per free slot.
    pub fn pick(&mut self, now: f64) -> Option<JobId> {
        let i = self.best_waiting(now)?;
        let job = self.waiting.remove(i);
        let id = job.id;
        self.running.push(RunningJob {
            id: job.id,
            tenant: job.tenant,
            priority: job.priority,
            enqueued_at: job.enqueued_at,
            started_at: now,
        });
        Some(id)
    }

    /// When every slot is busy: should a waiting job evict a running one?
    ///
    /// Returns `(victim, challenger)` when the best admissible waiting
    /// job outranks the weakest running job by more than
    /// `preempt_margin`. Running jobs are ranked *without* aging (they
    /// are being served, not starved). Among equally weak victims the
    /// most recently started loses — it forfeits the least work.
    /// The caller is expected to cancel the victim's execution, then call
    /// [`FairShare::preempted`].
    pub fn preemption_victim(&self, now: f64) -> Option<(JobId, JobId)> {
        let challenger_idx = self.best_waiting(now)?;
        let challenger = &self.waiting[challenger_idx];
        let challenger_eff = self.effective(
            &challenger.tenant,
            challenger.priority,
            challenger.enqueued_at,
            now,
        );
        let victim = self
            .running
            .iter()
            .map(|j| {
                let policy = self.policy(&j.tenant);
                let eff = (policy.priority + j.priority) as f64
                    - self.usage(&j.tenant, now) / policy.weight;
                (j, eff)
            })
            .min_by(|(a, ea), (b, eb)| {
                ea.partial_cmp(eb)
                    .expect("finite priorities")
                    // Weakest first; among equals prefer the latest start
                    // (then the highest id) as the victim.
                    .then(b.started_at.partial_cmp(&a.started_at).expect("finite"))
                    .then(b.id.cmp(&a.id))
            })?;
        if challenger_eff > victim.1 + self.config.preempt_margin {
            Some((victim.0.id, challenger.id))
        } else {
            None
        }
    }

    /// Return a preempted job to the queue. Charges its tenant for the
    /// slot time consumed; the job keeps its original enqueue time so its
    /// aging credit survives the round trip.
    pub fn preempted(&mut self, id: JobId, now: f64) {
        let Some(i) = self.running.iter().position(|j| j.id == id) else {
            return;
        };
        let job = self.running.remove(i);
        self.charge_usage(&job.tenant, (now - job.started_at).max(0.0), now);
        self.preemptions += 1;
        self.waiting.push(QueuedJob {
            id: job.id,
            tenant: job.tenant,
            priority: job.priority,
            enqueued_at: job.enqueued_at,
        });
    }

    /// Retire a finished (or killed) running job, charging its tenant
    /// for the slot time consumed.
    pub fn finish(&mut self, id: JobId, now: f64) {
        let Some(i) = self.running.iter().position(|j| j.id == id) else {
            return;
        };
        let job = self.running.remove(i);
        self.charge_usage(&job.tenant, (now - job.started_at).max(0.0), now);
    }

    /// Remove a job that never ran (client gone, server draining).
    pub fn cancel_waiting(&mut self, id: JobId) {
        self.waiting.retain(|j| j.id != id);
    }

    /// Jobs currently waiting.
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Jobs currently marked running.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Total preemptions performed so far.
    pub fn preemption_count(&self) -> u64 {
        self.preemptions
    }

    /// Upper bound, in seconds, on how long a job submitted now with
    /// per-job priority `priority` can wait behind a steady stream of
    /// jobs whose effective priority never exceeds `rival_effective` —
    /// the starvation bound aging buys. Returns `None` when aging is
    /// disabled (zero rate ⇒ unbounded starvation is possible).
    pub fn starvation_bound(
        &self,
        tenant: &str,
        priority: i64,
        rival_effective: f64,
        now: f64,
    ) -> Option<f64> {
        if self.config.aging_rate <= 0.0 {
            return None;
        }
        let base = self.effective(tenant, priority, now, now);
        Some(((rival_effective - base) / self.config.aging_rate).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = TenantPolicy::default();
        assert_eq!(p.weight, 1.0);
        assert_eq!(p.priority, 0);
        assert_eq!(p.max_running, usize::MAX);
        let c = FairShareConfig::default();
        assert!(c.aging_rate > 0.0 && c.usage_half_life > 0.0);
    }

    #[test]
    fn usage_decays_with_half_life() {
        let mut fs = FairShare::new(FairShareConfig {
            usage_half_life: 10.0,
            ..FairShareConfig::default()
        });
        let id = fs.submit("alice", 0, 0.0);
        assert_eq!(fs.pick(0.0), Some(id));
        fs.finish(id, 8.0);
        assert!((fs.usage("alice", 8.0) - 8.0).abs() < 1e-12);
        assert!(
            (fs.usage("alice", 18.0) - 4.0).abs() < 1e-12,
            "one half-life"
        );
        assert_eq!(fs.usage("bob", 18.0), 0.0);
    }

    #[test]
    fn ties_break_by_submission_order() {
        let mut fs = FairShare::new(FairShareConfig::default());
        let a = fs.submit("alice", 0, 0.0);
        let b = fs.submit("bob", 0, 0.0);
        assert_eq!(
            fs.pick(0.0),
            Some(a),
            "equal priority: first submitted wins"
        );
        assert_eq!(fs.pick(0.0), Some(b));
        assert_eq!(fs.pick(0.0), None);
    }
}
