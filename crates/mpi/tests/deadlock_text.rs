//! Deadlock explanations, word for word.
//!
//! A blocked wait registers what it needs as plain data, and the text of
//! the explanation is rendered only when a deadlock is reported. These
//! tests pin that text for every kind of wait — an exact, an
//! `ANY_SOURCE` and an `ANY_TAG` receive, a collective's internal
//! receive, a probe, and rendezvous sends — on the event engine (exact
//! detection on an empty heap) and on the thread backend (exact
//! detection when no rank can move).
//! Call sites are checked to point into this file and are then masked,
//! so the pinned text does not depend on line numbers.

use pdc_mpi::{
    drive, Error, Result, StepComm, StepFuture, StepProgram, World, WorldConfig, ANY_SOURCE,
    ANY_TAG,
};

/// Two-rank programs in which both ranks block for good.
#[derive(Debug, Clone, Copy)]
enum Stuck {
    /// Each rank receives from the other; nobody sends.
    ExactRecv,
    /// Rank 0 receives from any source, rank 1 from rank 0.
    AnySource,
    /// Rank 0 receives any tag from rank 1, rank 1 a fixed tag from 0.
    AnyTag,
    /// Rank 0 waits inside a broadcast rooted at rank 1, which receives.
    Collective,
    /// Both ranks probe: one exactly, one with both wildcards.
    Probe,
    /// A rendezvous send and a synchronous send, neither matched.
    Rendezvous,
}

impl StepProgram<()> for Stuck {
    fn build<'c, 'w: 'c>(&'c self, mut sc: StepComm<'c, 'w>) -> StepFuture<'c, Result<()>> {
        let this = *self;
        Box::pin(async move {
            let first = sc.rank() == 0;
            match this {
                Stuck::ExactRecv => {
                    let peer = 1 - sc.rank();
                    sc.recv::<u8, _, _>(peer, 5 + sc.rank() as u32).await?;
                }
                Stuck::AnySource if first => {
                    sc.recv::<u8, _, _>(ANY_SOURCE, 3).await?;
                }
                Stuck::AnySource => {
                    sc.recv::<u8, _, _>(0, 4).await?;
                }
                Stuck::AnyTag if first => {
                    sc.recv::<u8, _, _>(1, ANY_TAG).await?;
                }
                Stuck::AnyTag => {
                    sc.recv::<u8, _, _>(0, 1).await?;
                }
                Stuck::Collective if first => {
                    sc.bcast::<u8>(None, 1).await?;
                }
                Stuck::Collective => {
                    sc.recv::<u8, _, _>(0, 7).await?;
                }
                Stuck::Probe if first => {
                    sc.probe(1, 2).await?;
                }
                Stuck::Probe => {
                    sc.probe(ANY_SOURCE, ANY_TAG).await?;
                }
                Stuck::Rendezvous if first => {
                    sc.send(&[0u8; 64], 1, 9).await?;
                }
                Stuck::Rendezvous => {
                    sc.ssend(&[1u8], 0, 8).await?;
                }
            }
            Ok(())
        })
    }
}

fn cfg() -> WorldConfig {
    WorldConfig::new(2).with_eager_threshold(0)
}

/// The deadlock's rendering, with every call site checked to be in this
/// file and its line masked.
fn explain(err: Error) -> String {
    let Error::Deadlock(info) = err else {
        panic!("expected a deadlock, got {err:?}");
    };
    for op in &info.blocked {
        assert_eq!(op.site.file, file!(), "{op}");
    }
    let mut text = info.render();
    for op in &info.blocked {
        text = text.replace(&op.site.to_string(), "<site>");
    }
    text
}

fn check(program: Stuck, expected: &str) {
    let event = World::run_event(cfg(), &program).expect_err("the program deadlocks");
    assert_eq!(explain(event), expected, "{program:?} on the event engine");
    let thread = World::run(cfg(), |comm| drive(comm, |sc| program.build(sc)))
        .expect_err("the program deadlocks");
    assert_eq!(explain(thread), expected, "{program:?} on threads");
}

#[test]
fn exact_receives_explain_the_cycle() {
    check(
        Stuck::ExactRecv,
        "wait-for cycle: rank 0 recv(src=1, tag=5) -> rank 1 recv(src=0, tag=6) -> rank 0\n\
         blocked operations:\n  \
         rank 0 recv(src=1, tag=5) waiting on rank 1 at <site>\n  \
         rank 1 recv(src=0, tag=6) waiting on rank 0 at <site>\n",
    );
}

#[test]
fn any_source_receive_waits_on_any_rank() {
    check(
        Stuck::AnySource,
        "wait-for cycle: rank 0 recv(src=ANY, tag=3) -> rank 1 recv(src=0, tag=4) -> rank 0\n\
         blocked operations:\n  \
         rank 0 recv(src=ANY, tag=3) waiting on any rank at <site>\n  \
         rank 1 recv(src=0, tag=4) waiting on rank 0 at <site>\n",
    );
}

#[test]
fn any_tag_receive_names_the_wildcard() {
    check(
        Stuck::AnyTag,
        "wait-for cycle: rank 0 recv(src=1, tag=ANY) -> rank 1 recv(src=0, tag=1) -> rank 0\n\
         blocked operations:\n  \
         rank 0 recv(src=1, tag=ANY) waiting on rank 1 at <site>\n  \
         rank 1 recv(src=0, tag=1) waiting on rank 0 at <site>\n",
    );
}

#[test]
fn collective_receive_is_attributed_to_the_collective() {
    check(
        Stuck::Collective,
        "wait-for cycle: rank 0 bcast(from rank 1) -> rank 1 recv(src=0, tag=7) -> rank 0\n\
         blocked operations:\n  \
         rank 0 bcast(from rank 1) waiting on rank 1 at <site>\n  \
         rank 1 recv(src=0, tag=7) waiting on rank 0 at <site>\n",
    );
}

#[test]
fn probes_are_named_probe() {
    check(
        Stuck::Probe,
        "wait-for cycle: rank 0 probe(src=1, tag=2) -> rank 1 probe(src=ANY, tag=ANY) -> rank 0\n\
         blocked operations:\n  \
         rank 0 probe(src=1, tag=2) waiting on rank 1 at <site>\n  \
         rank 1 probe(src=ANY, tag=ANY) waiting on any rank at <site>\n",
    );
}

#[test]
fn rendezvous_sends_name_destination_and_tag() {
    check(
        Stuck::Rendezvous,
        "wait-for cycle: rank 0 send(rendezvous)(to rank 1, tag 9) -> rank 1 ssend(to rank 0, tag 8) -> rank 0\n\
         blocked operations:\n  \
         rank 0 send(rendezvous)(to rank 1, tag 9) waiting on rank 1 at <site>\n  \
         rank 1 ssend(to rank 0, tag 8) waiting on rank 0 at <site>\n",
    );
}
