//! Point-to-point semantics of the runtime: matching, wildcards, ordering,
//! protocols, deadlock detection, and error reporting.

use pdc_mpi::{
    Error, SourceSel, StepComm, StepFuture, StepProgram, World, WorldConfig, ANY_SOURCE, ANY_TAG,
};
use std::time::Duration;

#[test]
fn ping_pong_roundtrip() {
    let out = World::run_simple(2, |comm| {
        if comm.rank() == 0 {
            comm.send(&[1.5f64, 2.5], 1, 0)?;
            let (back, st) = comm.recv::<f64>(1, 1)?;
            assert_eq!(st.source, 1);
            Ok(back)
        } else {
            let (data, _) = comm.recv::<f64>(0, 0)?;
            let doubled: Vec<f64> = data.iter().map(|x| x * 2.0).collect();
            comm.send(&doubled, 0, 1)?;
            Ok(doubled)
        }
    })
    .expect("ping-pong completes");
    assert_eq!(out.values[0], vec![3.0, 5.0]);
}

#[test]
fn self_send_is_allowed_eagerly() {
    let out = World::run_simple(1, |comm| {
        comm.send(&[7i32], 0, 9)?;
        let (data, st) = comm.recv::<i32>(0, 9)?;
        assert_eq!(st.tag, 9);
        Ok(data[0])
    })
    .expect("self send");
    assert_eq!(out.values, vec![7]);
}

#[test]
fn messages_from_same_source_arrive_in_order() {
    let out = World::run_simple(2, |comm| {
        if comm.rank() == 0 {
            for i in 0..50i64 {
                comm.send(&[i], 1, 4)?;
            }
            Ok(Vec::new())
        } else {
            let mut got = Vec::new();
            for _ in 0..50 {
                let (v, _) = comm.recv::<i64>(0, 4)?;
                got.push(v[0]);
            }
            Ok(got)
        }
    })
    .expect("ordered stream");
    let expected: Vec<i64> = (0..50).collect();
    assert_eq!(out.values[1], expected);
}

#[test]
fn any_source_receives_from_everyone() {
    let size = 8;
    let out = World::run_simple(size, |comm| {
        if comm.rank() == 0 {
            let mut sum = 0u64;
            let mut sources = Vec::new();
            for _ in 1..comm.size() {
                let (v, st) = comm.recv::<u64>(ANY_SOURCE, ANY_TAG)?;
                sum += v[0];
                sources.push(st.source);
            }
            sources.sort_unstable();
            assert_eq!(sources, (1..comm.size()).collect::<Vec<_>>());
            Ok(sum)
        } else {
            comm.send(&[comm.rank() as u64], 0, comm.rank() as u32)?;
            Ok(0)
        }
    })
    .expect("fan-in");
    assert_eq!(out.values[0], (1..8).sum::<u64>());
}

#[test]
fn tags_disambiguate_messages() {
    let out = World::run_simple(2, |comm| {
        if comm.rank() == 0 {
            comm.send(&[1i32], 1, 10)?;
            comm.send(&[2i32], 1, 20)?;
            Ok(0)
        } else {
            // Receive the tag-20 message first even though it arrived second.
            let (b, _) = comm.recv::<i32>(0, 20)?;
            let (a, _) = comm.recv::<i32>(0, 10)?;
            assert_eq!((a[0], b[0]), (1, 2));
            Ok(a[0] + b[0])
        }
    })
    .expect("tag matching");
    assert_eq!(out.values[1], 3);
}

#[test]
fn isend_wait_completes() {
    let out = World::run_simple(2, |comm| {
        if comm.rank() == 0 {
            let reqs: Vec<_> = (0..10u32)
                .map(|i| comm.isend(&[i], 1, i))
                .collect::<Result<_, _>>()?;
            comm.wait_all_sends(reqs)?;
            Ok(0)
        } else {
            let mut total = 0;
            for i in 0..10u32 {
                let (v, _) = comm.recv::<u32>(0, i)?;
                total += v[0];
            }
            Ok(total)
        }
    })
    .expect("isend batch");
    assert_eq!(out.values[1], 45);
}

#[test]
fn irecv_wait_returns_data() {
    let out = World::run_simple(2, |comm| {
        if comm.rank() == 0 {
            comm.send(&[3.5f32], 1, 2)?;
            Ok(0.0)
        } else {
            let req = comm.irecv::<f32>(0, 2)?;
            let (v, st) = comm.wait_recv(req)?;
            assert_eq!(st.count::<f32>().expect("same type"), 1);
            Ok(v[0])
        }
    })
    .expect("irecv");
    assert_eq!(out.values[1], 3.5);
}

#[test]
fn test_recv_polls_without_blocking() {
    let out = World::run_simple(2, |comm| {
        if comm.rank() == 0 {
            std::thread::sleep(Duration::from_millis(30));
            comm.send(&[1u8], 1, 0)?;
            Ok(0u32)
        } else {
            let mut req = comm.irecv::<u8>(0, 0)?;
            let mut polls = 0u32;
            loop {
                match comm.test_recv(req)? {
                    Ok((_, _)) => break,
                    Err(r) => {
                        req = r;
                        polls += 1;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
            assert!(polls > 0, "message should not be instantly available");
            Ok(polls)
        }
    })
    .expect("test loop");
    assert!(out.values[1] > 0);
}

#[test]
fn test_recv_completes_like_a_blocking_recv() {
    use pdc_mpi::trace::SpanKind;
    // Rank 0 computes, then makes a rendezvous send; rank 1 takes it
    // with a blocking recv, or by polling test_recv.
    let run = |poll: bool| {
        let cfg = WorldConfig::new(2).with_eager_threshold(0).with_tracing();
        World::run(cfg, |comm| {
            if comm.rank() == 0 {
                comm.charge_flops(1e6);
                comm.send(&[1.5f64, 2.5], 1, 7)?;
            } else if poll {
                let mut req = comm.irecv::<f64>(0, 7)?;
                loop {
                    match comm.test_recv(req)? {
                        Ok(_) => break,
                        Err(r) => req = r,
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            } else {
                comm.recv::<f64>(0, 7)?;
            }
            Ok(comm.sim_time())
        })
        .expect("runs")
    };
    let (blocking, polled) = (run(false), run(true));
    let recvs = |out: &pdc_mpi::world::RunOutput<f64>| -> Vec<(f64, f64)> {
        let spans = out.traces[1].iter().filter(|s| s.kind == SpanKind::Recv);
        spans.map(|s| (s.start, s.end)).collect()
    };
    assert_eq!(recvs(&polled).len(), 1, "one Recv span");
    assert_eq!(recvs(&polled), recvs(&blocking));
    assert_eq!(
        polled.stats[1].sim_comm_time.to_bits(),
        blocking.stats[1].sim_comm_time.to_bits()
    );
    assert!(polled.stats[1].sim_comm_time > 0.0, "the receiver waited");
    // The rendezvous sender is released at the same match time.
    assert_eq!(polled.values, blocking.values);
}

#[test]
fn sendrecv_ring_shift_never_deadlocks() {
    // Even with rendezvous forced for ordinary sends, sendrecv must make
    // progress (its send side is buffered).
    let cfg = WorldConfig::new(6).with_eager_threshold(0);
    let out = World::run(cfg, |comm| {
        let right = (comm.rank() + 1) % comm.size();
        let left = (comm.rank() + comm.size() - 1) % comm.size();
        let (got, _) = comm.sendrecv::<u64, u64>(&[comm.rank() as u64], right, 0, left, 0)?;
        Ok(got[0])
    })
    .expect("sendrecv ring");
    for (rank, &v) in out.values.iter().enumerate() {
        assert_eq!(v as usize, (rank + 6 - 1) % 6);
    }
}

/// Everyone sends right, then receives from the left.
struct BlockingRing;

impl StepProgram<u64> for BlockingRing {
    fn build<'c, 'w: 'c>(
        &'c self,
        mut sc: StepComm<'c, 'w>,
    ) -> StepFuture<'c, pdc_mpi::Result<u64>> {
        Box::pin(async move {
            let right = (sc.rank() + 1) % sc.size();
            let left = (sc.rank() + sc.size() - 1) % sc.size();
            sc.send(&[sc.rank() as u64], right, 0).await?;
            let (v, _) = sc.recv::<u64, _, _>(left, 0).await?;
            Ok(v[0])
        })
    }
}

#[test]
fn blocking_ring_with_rendezvous_deadlocks_and_is_detected() {
    // Module 1's classic lesson: everyone sends right, then receives — with
    // synchronous sends this cycle can never complete. Run it on the
    // seeded event engine: deadlock is declared the moment its heap
    // empties, not after a wall-clock sampling interval — no dependence
    // on how fast the host happens to be.
    let cfg = WorldConfig::virtual_ranks(4, 2)
        .with_sched_seed(0)
        .with_eager_threshold(0);
    let err = World::run_event(cfg, &BlockingRing).expect_err("rendezvous ring must deadlock");
    let Error::Deadlock(info) = err else {
        panic!("expected a deadlock, got {err}");
    };
    // The deadlock report names every blocked rank, the call it was
    // blocked in, and the wait-for cycle over the ring.
    assert_eq!(info.blocked.len(), 4, "{}", info.render());
    assert_eq!(info.cycle.len(), 4, "{}", info.render());
    for b in &info.blocked {
        assert_eq!(b.op, "send(rendezvous)");
        assert!(b.site.file.ends_with("p2p.rs"), "site {}", b.site);
    }
    let rendered = info.render();
    for rank in 0..4 {
        assert!(rendered.contains(&format!("rank {rank}")), "{rendered}");
    }
}

#[test]
fn eager_ring_completes_where_rendezvous_deadlocks() {
    // The same program with buffered sends completes — the protocol, not
    // the program text, decides.
    let out = World::run_simple(4, |comm| {
        let right = (comm.rank() + 1) % comm.size();
        let left = (comm.rank() + comm.size() - 1) % comm.size();
        comm.send(&[comm.rank() as u64], right, 0)?;
        let (v, _) = comm.recv::<u64>(left, 0)?;
        Ok(v[0])
    })
    .expect("eager ring completes");
    assert_eq!(out.values[0], 3);
}

#[test]
fn ssend_synchronizes_with_the_receive() {
    let out = World::run_simple(2, |comm| {
        if comm.rank() == 0 {
            comm.ssend(&[1u8; 4], 1, 0)?;
            Ok(comm.sim_time())
        } else {
            // Delay the receive in simulated time via a compute charge.
            comm.charge_flops(16.0e9); // 1 second of simulated compute
            let (_, _) = comm.recv::<u8>(0, 0)?;
            Ok(comm.sim_time())
        }
    })
    .expect("ssend");
    // The sender cannot complete before the receiver entered recv at t≈1s.
    assert!(out.values[0] >= 1.0, "sender clock {} < 1s", out.values[0]);
}

/// Each rank waits for a message its peer never sends.
struct MutualRecv;

impl StepProgram<i32> for MutualRecv {
    fn build<'c, 'w: 'c>(
        &'c self,
        mut sc: StepComm<'c, 'w>,
    ) -> StepFuture<'c, pdc_mpi::Result<i32>> {
        Box::pin(async move {
            let peer = 1 - sc.rank();
            let (v, _) = sc.recv::<i32, _, _>(peer, 0).await?;
            Ok(v[0])
        })
    }
}

#[test]
fn missing_receive_is_reported_as_deadlock() {
    // Seeded event engine: exact detection, no timing sensitivity.
    let cfg = WorldConfig::virtual_ranks(2, 2).with_sched_seed(0);
    let err = World::run_event(cfg, &MutualRecv).expect_err("mutual recv deadlocks");
    let Error::Deadlock(info) = err else {
        panic!("expected a deadlock, got {err}");
    };
    // Both ranks are blocked in recv, each waiting on the other.
    assert_eq!(info.blocked.len(), 2, "{}", info.render());
    assert!(info.blocked.iter().all(|b| b.op == "recv"));
    assert_eq!(info.cycle.len(), 2, "{}", info.render());
}

#[test]
fn type_mismatch_is_detected() {
    let err = World::run_simple(2, |comm| {
        if comm.rank() == 0 {
            comm.send(&[1.0f64], 1, 0)?;
            Ok(0)
        } else {
            let (v, _) = comm.recv::<i32>(0, 0)?;
            Ok(v[0])
        }
    })
    .expect_err("f64 into i32 buffer");
    assert_eq!(
        err,
        Error::TypeMismatch {
            expected: "i32",
            found: "f64"
        }
    );
}

#[test]
fn array_type_confusion_is_detected() {
    // Regression: `[T; N]` used to advertise the constant name "array", so
    // a `recv::<[u32; 2]>` happily accepted a sent `[f32; 2]` (same byte
    // size) and reinterpreted the bits. The wire name now carries element
    // type and arity.
    let err = World::run_simple(2, |comm| {
        if comm.rank() == 0 {
            comm.send(&[[1.0f32, 2.0f32]], 1, 0)?;
            Ok(0)
        } else {
            let (v, _) = comm.recv::<[u32; 2]>(0, 0)?;
            Ok(v[0][0] as i32)
        }
    })
    .expect_err("[f32; 2] into [u32; 2] buffer");
    assert_eq!(
        err,
        Error::TypeMismatch {
            expected: "[u32; 2]",
            found: "[f32; 2]"
        }
    );
}

#[test]
fn array_arity_confusion_is_detected() {
    // Same element type, different arity: must also be rejected.
    let err = World::run_simple(2, |comm| {
        if comm.rank() == 0 {
            comm.send(&[[1u16, 2, 3, 4]], 1, 0)?;
            Ok(0)
        } else {
            let (v, _) = comm.recv::<[u16; 2]>(0, 0)?;
            Ok(v[0][0] as i32)
        }
    })
    .expect_err("[u16; 4] into [u16; 2] buffer");
    assert_eq!(
        err,
        Error::TypeMismatch {
            expected: "[u16; 2]",
            found: "[u16; 4]"
        }
    );
}

#[test]
fn recv_into_reports_truncation() {
    let err = World::run_simple(2, |comm| {
        if comm.rank() == 0 {
            comm.send(&[0u8; 100], 1, 0)?;
            Ok(0)
        } else {
            let mut buf = [0u8; 10];
            comm.recv_into(&mut buf, 0, 0)?;
            Ok(1)
        }
    })
    .expect_err("message larger than buffer");
    assert!(matches!(
        err,
        Error::Truncated {
            message_bytes: 100,
            buffer_bytes: 10
        }
    ));
}

#[test]
fn recv_into_accepts_fitting_message() {
    let out = World::run_simple(2, |comm| {
        if comm.rank() == 0 {
            comm.send(&[7i64, 8, 9], 1, 0)?;
            Ok(0)
        } else {
            let mut buf = [0i64; 8];
            let st = comm.recv_into(&mut buf, 0, 0)?;
            assert_eq!(st.count::<i64>().expect("type matches"), 3);
            Ok(buf[0] + buf[1] + buf[2])
        }
    })
    .expect("fits");
    assert_eq!(out.values[1], 24);
}

#[test]
fn probe_then_sized_receive() {
    // The MPI_Probe + MPI_Get_count idiom for unknown-size messages.
    let out = World::run_simple(2, |comm| {
        if comm.rank() == 0 {
            comm.send(&[2.5f64; 17], 1, 3)?;
            Ok(0)
        } else {
            let st = comm.probe(ANY_SOURCE, ANY_TAG)?;
            let n = comm.get_count::<f64>(&st)?;
            assert_eq!(n, 17);
            let (v, _) = comm.recv::<f64>(st.source, st.tag)?;
            Ok(v.len())
        }
    })
    .expect("probe");
    assert_eq!(out.values[1], 17);
}

#[test]
fn rank_panic_is_contained_and_reported() {
    let err = World::run_simple(3, |comm| {
        if comm.rank() == 1 {
            panic!("student bug");
        }
        Ok(comm.rank())
    })
    .expect_err("panic propagates as error");
    assert_eq!(err, Error::RankPanicked(1));
}

#[test]
fn invalid_destination_is_rejected() {
    let err = World::run_simple(2, |comm| {
        comm.send(&[1u8], 5, 0)?;
        Ok(0)
    })
    .expect_err("rank 5 does not exist");
    assert!(matches!(err, Error::InvalidArgument(_)));
}

#[test]
fn stats_count_primitives_and_bytes() {
    use pdc_mpi::Primitive;
    let out = World::run_simple(2, |comm| {
        if comm.rank() == 0 {
            comm.send(&[0u8; 64], 1, 0)?;
            comm.send(&[0u8; 64], 1, 0)?;
        } else {
            let _ = comm.recv::<u8>(0, 0)?;
            let _ = comm.recv::<u8>(0, 0)?;
        }
        Ok(())
    })
    .expect("stat run");
    assert_eq!(out.stats[0].calls(Primitive::Send), 2);
    assert_eq!(out.stats[0].bytes_sent, 128);
    assert_eq!(out.stats[1].calls(Primitive::Recv), 2);
    assert_eq!(out.stats[1].bytes_received, 128);
    assert_eq!(out.total_bytes_sent(), 128);
}

#[test]
fn source_selector_from_usize_matches_specific_rank() {
    let out = World::run_simple(3, |comm| {
        if comm.rank() == 0 {
            // Send from 1 and 2 arrive; rank 0 insists on rank 2 first.
            let (v2, _) = comm.recv::<u32>(SourceSel::Rank(2), ANY_TAG)?;
            let (v1, _) = comm.recv::<u32>(SourceSel::Rank(1), ANY_TAG)?;
            Ok(vec![v2[0], v1[0]])
        } else {
            comm.send(&[comm.rank() as u32 * 100], 0, 0)?;
            Ok(Vec::new())
        }
    })
    .expect("selective receive");
    assert_eq!(out.values[0], vec![200, 100]);
}
