//! Seeded defect: `misaligned_bcast.rs` as a resumable step body — the
//! broadcast root differs across a rank-conditional branch, so the
//! collective never matches. Never compiled; linted as text.
use pdc_mpi::{Op, StepComm};

pub async fn misaligned_bcast_step(mut sc: StepComm<'_, '_>) {
    let seed = [7u64; 4];
    let got = if sc.rank() == 0 {
        sc.bcast(Some(&seed), 0).await.unwrap()
    } else {
        sc.bcast(None, 1).await.unwrap()
    };
    let total = [got[0]];
    sc.allreduce(&total, Op::Sum).await.unwrap();
}
