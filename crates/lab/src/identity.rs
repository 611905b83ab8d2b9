//! Content-addressed job identity.
//!
//! A lab job on the `virtual` backend is a pure function of its request:
//! the event engine replays bit-identically for a fixed
//! `(program, size, seed)`, data generation is seeded, and the
//! simulated clock never reads wall time. The cache key is therefore a
//! hash of every input that can influence the artifacts — including the
//! process-wide environment knobs (`PDC_MPI_EAGER_THRESHOLD`,
//! `PDC_MPI_TUNE_FILE`) that [`WorldConfig::new`] snapshots, so two
//! server processes launched under different regimes never share keys.
//!
//! The hash is FNV-1a over a canonical key=value rendering; we
//! deliberately avoid `DefaultHasher` (unstable across std releases —
//! the cache persists on disk across server restarts and rebuilds).

use crate::api::RunRequest;
use pdc_mpi::WorldConfig;

/// 64-bit FNV-1a. Stable, dependency-free, fast enough for keys.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical identity string for a request — every field that feeds
/// the execution, in a fixed order. Fields that do *not* affect the
/// artifacts (tenant, priority, deadline, and the `workers` knob, which
/// selects nothing) are deliberately excluded: two tenants asking the
/// same question share one cached answer. The leading version names the
/// engine generation behind cached runs (`v2`: the event engine).
pub fn canonical(req: &RunRequest) -> String {
    // Snapshot the same environment knobs the runner's WorldConfig will
    // see. A throwaway config is the cheapest faithful way to read them.
    let probe = WorldConfig::new(1);
    let tuning = match &probe.tuning {
        Some(table) => serde_json::to_string(table.as_ref()).unwrap_or_default(),
        None => String::new(),
    };
    let faults = match &req.fault_plan {
        Some(plan) => serde_json::to_string(plan).unwrap_or_default(),
        None => String::new(),
    };
    format!(
        "v2|module={}|size={}|ranks={}|seed={}|backend={}|faults={}|eager={}|tuning={:016x}",
        req.module,
        req.size,
        req.ranks,
        req.seed_or_default(),
        req.backend_or_default(),
        faults,
        probe.eager_threshold,
        fnv1a(tuning.as_bytes()),
    )
}

/// Content-addressed cache key for a request.
pub fn job_key(req: &RunRequest) -> u64 {
    fnv1a(canonical(req).as_bytes())
}

/// Render a key the way the HTTP API does (16 hex digits).
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn identity_ignores_tenant_deadline_and_workers() {
        let mut a = RunRequest::new("stencil", 1024, 8);
        let mut b = a.clone();
        a.tenant = Some("alice".into());
        a.priority = Some(5);
        a.deadline_ms = Some(1000);
        a.workers = Some(2);
        b.tenant = Some("bob".into());
        assert_eq!(job_key(&a), job_key(&b));
    }

    #[test]
    fn identity_separates_every_execution_knob() {
        let base = RunRequest::new("stencil", 1024, 8);
        let key = job_key(&base);
        let mut other = base.clone();
        other.seed = Some(1);
        assert_ne!(job_key(&other), key, "seed");
        let mut other = base.clone();
        other.size = 2048;
        assert_ne!(job_key(&other), key, "size");
        let mut other = base.clone();
        other.ranks = 16;
        assert_ne!(job_key(&other), key, "ranks");
        let mut other = base.clone();
        other.module = "sort".into();
        assert_ne!(job_key(&other), key, "module");
        let mut other = base.clone();
        other.fault_plan = Some(pdc_mpi::FaultPlan {
            drop_rate: 0.1,
            ..pdc_mpi::FaultPlan::default()
        });
        assert_ne!(job_key(&other), key, "fault plan");
    }
}
