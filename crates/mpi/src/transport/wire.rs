//! Length-prefixed framing for the multi-process backend.
//!
//! Every frame on a peer socket is `u32` little-endian body length,
//! one type byte, then the body. Data frames ([`Frame::Env`]) carry a
//! manually encoded envelope — data or a rendezvous acknowledgement —
//! whose payload bytes are exactly the `POD_LE` encoding from
//! [`crate::datatype`]: the same bytes an in-process rank would have
//! seen, so payloads are bit-identical across backends. Control frames
//! (results, failure notices,
//! agreement entries) are small and rare; their bodies are
//! `serde_json` for robustness over hand-rolled layouts.

use crate::comm::RankReport;
use crate::envelope::{Envelope, MsgClass};
use crate::error::Error;
use bytes::Bytes;
use std::collections::HashSet;
use std::io::{self, Read, Write};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Upper bound on a frame body: a sanity cap against corrupt length
/// prefixes, far above any legitimate module payload.
const MAX_FRAME: u32 = 1 << 30;

/// Longest type name an envelope frame may carry. Every built-in
/// [`Datatype`](crate::Datatype) name is at most 64 bytes.
const MAX_TYPE_NAME: usize = 256;
/// Distinct type names one process interns before it refuses new ones.
const MAX_TYPE_NAMES: usize = 4096;

/// Intern a decoded type name in the process-wide cache (see
/// [`intern_in`]).
fn intern(s: &str) -> io::Result<&'static str> {
    static CACHE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let cache = CACHE.get_or_init(Mutex::default);
    intern_in(&mut cache.lock().unwrap_or_else(PoisonError::into_inner), s)
}

/// Intern `s` in `cache`. A type name from a peer process has no static
/// backing, so it is leaked once per *distinct* string; the bounds on
/// name length and count keep a corrupt or hostile stream of new names
/// from growing the process without limit.
fn intern_in(cache: &mut HashSet<&'static str>, s: &str) -> io::Result<&'static str> {
    if let Some(&name) = cache.get(s) {
        return Ok(name);
    }
    if s.len() > MAX_TYPE_NAME || cache.len() >= MAX_TYPE_NAMES {
        return Err(bad("type name past the intern cache's bounds"));
    }
    let name: &'static str = Box::leak(s.into());
    cache.insert(name);
    Ok(name)
}

/// A rank closure's outcome as it crosses the wire. `std::Result` has no
/// (de)serialization impl in the vendored serde shim, so the two arms are
/// spelled out as a derive-friendly enum.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) enum RankValue {
    /// The closure's return value, already rendered to a value tree by
    /// the reporting rank.
    Ok(serde_json::Value),
    /// The closure's error.
    Err(Error),
}

/// What one rank process reports back when its closure finishes: the
/// body of a [`Frame::Result`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct RankResult {
    /// Reporting rank.
    pub rank: usize,
    /// The closure's return value or error.
    pub value: RankValue,
    /// The rank's statistics, final simulated clock and everything its
    /// observer recorded: trace, phases, collective spans and check log.
    pub report: RankReport,
}

/// One frame on a peer socket.
#[derive(Debug, Clone)]
pub(crate) enum Frame {
    /// Connection preamble: the connecting process's rank.
    Hello { rank: usize },
    /// A message envelope in flight (the data plane).
    Env(Envelope),
    /// `rank` finished its closure (mirrors `Progress::mark_done`).
    Done { rank: usize },
    /// `rank` crashed at simulated time `at` (mirrors
    /// `Progress::mark_failed`).
    Failed { rank: usize, at: f64 },
    /// `rank` entered agreement generation `generation` (mirrors
    /// `Progress::agree_enter`).
    AgreeEnter { rank: usize, generation: u64 },
    /// `rank`'s final report (value, stats, clock, observations).
    Result(Box<RankResult>),
}

const TY_HELLO: u8 = 0;
const TY_ENV: u8 = 1;
const TY_DONE: u8 = 3;
const TY_FAILED: u8 = 4;
const TY_AGREE: u8 = 5;
const TY_RESULT: u8 = 6;

/// Envelope class discriminants inside a [`Frame::Env`] body.
const CLASS_USER: u8 = 0;
const CLASS_INTERNAL: u8 = 1;
const CLASS_ACK: u8 = 2;

// --- primitive field encoding: everything little-endian ---

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, u32::try_from(s.len()).expect("string fits a frame"));
    buf.extend_from_slice(s.as_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, u32::try_from(b.len()).expect("payload fits a frame"));
    buf.extend_from_slice(b);
}

/// Cursor over a frame body with bounds-checked little-endian reads.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "truncated frame body"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> io::Result<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 string in frame"))
    }

    fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

fn json_body<T: serde::Serialize>(v: &T) -> Vec<u8> {
    serde_json::to_string(v)
        .expect("control frame serializes")
        .into_bytes()
}

fn from_json<T: serde::Deserialize>(body: &[u8]) -> io::Result<T> {
    let text = std::str::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 control frame"))?;
    serde_json::from_str(text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad control frame: {e}"),
        )
    })
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TY_HELLO,
            Frame::Env(_) => TY_ENV,
            Frame::Done { .. } => TY_DONE,
            Frame::Failed { .. } => TY_FAILED,
            Frame::AgreeEnter { .. } => TY_AGREE,
            Frame::Result(_) => TY_RESULT,
        }
    }

    fn body(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Frame::Hello { rank } => put_u64(&mut buf, *rank as u64),
            Frame::Env(env) => {
                buf.push(u8::from(env.rendezvous));
                put_u64(&mut buf, env.src as u64);
                match env.class {
                    MsgClass::User(tag) => {
                        buf.push(CLASS_USER);
                        put_u32(&mut buf, tag);
                    }
                    MsgClass::Internal(tag) => {
                        buf.push(CLASS_INTERNAL);
                        put_u64(&mut buf, tag);
                    }
                    MsgClass::Ack => buf.push(CLASS_ACK),
                }
                put_str(&mut buf, env.type_name);
                put_u64(&mut buf, env.type_size as u64);
                put_f64(&mut buf, env.send_time);
                put_u64(&mut buf, env.seq);
                put_bytes(&mut buf, &env.payload);
            }
            Frame::Done { rank } => put_u64(&mut buf, *rank as u64),
            Frame::Failed { rank, at } => {
                put_u64(&mut buf, *rank as u64);
                put_f64(&mut buf, *at);
            }
            Frame::AgreeEnter { rank, generation } => {
                put_u64(&mut buf, *rank as u64);
                put_u64(&mut buf, *generation);
            }
            Frame::Result(res) => buf = json_body(&**res),
        }
        buf
    }

    fn decode(ty: u8, body: &[u8]) -> io::Result<Frame> {
        let mut c = Cursor::new(body);
        Ok(match ty {
            TY_HELLO => Frame::Hello {
                rank: c.u64()? as usize,
            },
            TY_ENV => {
                let rendezvous = c.u8()? != 0;
                let src = c.u64()? as usize;
                let class = match c.u8()? {
                    CLASS_USER => MsgClass::User(c.u32()?),
                    CLASS_INTERNAL => MsgClass::Internal(c.u64()?),
                    CLASS_ACK => MsgClass::Ack,
                    _ => return Err(bad("unknown envelope class")),
                };
                let type_name = intern(c.str()?)?;
                let type_size = c.u64()? as usize;
                let send_time = c.f64()?;
                let seq = c.u64()?;
                let payload = Bytes::copy_from_slice(c.bytes()?);
                Frame::Env(Envelope {
                    src,
                    class,
                    type_name,
                    type_size,
                    payload,
                    send_time,
                    seq,
                    rendezvous,
                })
            }
            TY_DONE => Frame::Done {
                rank: c.u64()? as usize,
            },
            TY_FAILED => Frame::Failed {
                rank: c.u64()? as usize,
                at: c.f64()?,
            },
            TY_AGREE => Frame::AgreeEnter {
                rank: c.u64()? as usize,
                generation: c.u64()?,
            },
            TY_RESULT => Frame::Result(Box::new(from_json(body)?)),
            _ => return Err(bad("unknown frame type")),
        })
    }
}

/// Write one frame: length prefix, type byte, body.
pub(crate) fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let body = frame.body();
    let len = u32::try_from(body.len() + 1).map_err(|_| bad("frame too large"))?;
    if len > MAX_FRAME {
        return Err(bad("frame too large"));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[frame.type_byte()])?;
    w.write_all(&body)?;
    Ok(())
}

/// Read one frame. `Ok(None)` is a clean EOF *between* frames (the peer
/// closed its socket); EOF mid-frame is an error. Never reads past the
/// frame, and the body buffer grows only as bytes arrive, so a length
/// prefix announcing up to [`MAX_FRAME`] bytes allocates nothing it is
/// not sent.
pub(crate) fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > MAX_FRAME {
        return Err(bad("bad frame length"));
    }
    let mut body = Vec::new();
    r.take(u64::from(len)).read_to_end(&mut body)?;
    if body.len() != len as usize {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        ));
    }
    Frame::decode(body[0], &body[1..]).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).expect("encode");
        let mut cursor = &buf[..];
        let back = read_frame(&mut cursor).expect("decode").expect("one frame");
        assert!(cursor.is_empty(), "no trailing bytes");
        back
    }

    /// A reader that serves `data` and then EOF, recording the largest
    /// buffer it was ever asked to fill.
    struct Recording<'a> {
        data: &'a [u8],
        largest_read: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_read = self.largest_read.max(buf.len());
            self.data.read(buf)
        }
    }

    #[test]
    fn truncated_max_length_frame_fails_without_a_large_buffer() {
        let mut bytes = MAX_FRAME.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[TY_HELLO, 1, 2, 3]);
        let mut reader = Recording {
            data: &bytes,
            largest_read: 0,
        };
        let err = read_frame(&mut reader).expect_err("the frame is cut short");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            reader.largest_read <= 64 * 1024,
            "read into a {} byte buffer for 4 bytes of body",
            reader.largest_read
        );
    }

    #[test]
    fn interning_is_stable_and_pointer_equal() {
        let a = intern("f64").unwrap();
        let b = intern("f64").unwrap();
        assert!(std::ptr::eq(a, b), "same string interns to same pointer");
        assert_eq!(intern("i32").unwrap(), "i32");
    }

    #[test]
    fn the_intern_cache_stops_growing_at_its_cap() {
        let mut cache = HashSet::new();
        let long = "x".repeat(MAX_TYPE_NAME + 1);
        assert!(
            intern_in(&mut cache, &long).is_err(),
            "an over-long name is refused"
        );
        for i in 0..MAX_TYPE_NAMES {
            intern_in(&mut cache, &format!("t{i}")).expect("under the cap");
        }
        let err = intern_in(&mut cache, "one-too-many").expect_err("the cache is full");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(cache.len(), MAX_TYPE_NAMES);
        assert_eq!(
            intern_in(&mut cache, "t7").unwrap(),
            "t7",
            "known names still resolve"
        );
        assert_eq!(cache.len(), MAX_TYPE_NAMES);
    }

    fn round_trip_env(env: Envelope) -> Envelope {
        match round_trip(&Frame::Env(env)) {
            Frame::Env(back) => back,
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn envelope_frames_round_trip_bit_identically() {
        let payload = crate::datatype::encode_slice(&[1.5f64, -2.25, 0.0]);
        let back = round_trip_env(Envelope {
            src: 3,
            class: MsgClass::Internal(0xDEAD_BEEF_0001),
            type_name: "f64",
            type_size: 8,
            payload: payload.clone(),
            send_time: 0.125,
            seq: 42,
            rendezvous: true,
        });
        assert!(back.rendezvous);
        assert_eq!(back.src, 3);
        assert_eq!(back.class, MsgClass::Internal(0xDEAD_BEEF_0001));
        assert_eq!(back.type_name, "f64");
        assert_eq!(back.type_size, 8);
        assert_eq!(back.send_time, 0.125);
        assert_eq!(back.seq, 42);
        assert_eq!(
            back.payload, payload,
            "POD_LE payload bytes survive the wire"
        );
    }

    #[test]
    fn ack_frames_round_trip_with_their_match_time_or_refusal() {
        let back = round_trip_env(Envelope::ack(2, 9, Some(1.5)));
        assert_eq!((back.src, back.class, back.seq), (2, MsgClass::Ack, 9));
        assert!(!back.rendezvous);
        assert_eq!(back.matched_at(), Some(1.5));
        let refusal = round_trip_env(Envelope::ack(2, 10, None));
        assert_eq!((refusal.class, refusal.seq), (MsgClass::Ack, 10));
        assert_eq!(refusal.matched_at(), None);
    }

    #[test]
    fn control_frames_round_trip() {
        match round_trip(&Frame::Hello { rank: 7 }) {
            Frame::Hello { rank } => assert_eq!(rank, 7),
            other => panic!("wrong frame: {other:?}"),
        }
        match round_trip(&Frame::Failed { rank: 2, at: 0.75 }) {
            Frame::Failed { rank, at } => {
                assert_eq!(rank, 2);
                assert_eq!(at, 0.75);
            }
            other => panic!("wrong frame: {other:?}"),
        }
        match round_trip(&Frame::AgreeEnter {
            rank: 1,
            generation: 4,
        }) {
            Frame::AgreeEnter { rank, generation } => {
                assert_eq!(rank, 1);
                assert_eq!(generation, 4);
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn result_frames_carry_errors_stats_and_observations() {
        use crate::check::{CallSite, CheckEvent};
        use crate::trace::{CollSpan, PhaseSpan, Span, SpanKind};
        let mut report = RankReport {
            clock: 3.25,
            ..RankReport::default()
        };
        report.stats.record_call(crate::Primitive::Bcast);
        let observed = &mut report.observed;
        observed.trace.push(Span {
            seq: Some(7),
            sent_at: Some(0.1 + 0.2),
            ..Span::basic(SpanKind::Recv, 1e-7, 2.5e-6, 3, 40)
        });
        observed.phases.push(PhaseSpan {
            name: "exchange".into(),
            start: 0.0,
            end: 1.0 / 3.0,
        });
        observed.colls.push(CollSpan {
            name: "bcast".into(),
            seq: 0,
            enter: 0.0,
            algo: Some(crate::CollAlgo::Hierarchical),
        });
        observed.check_log.push(CheckEvent::RequestCreated {
            id: 0,
            kind: "isend",
            site: CallSite::here(),
        });
        let res = RankResult {
            rank: 1,
            value: RankValue::Err(Error::RankFailed { rank: 2, at: 0.5 }),
            report: report.clone(),
        };
        match round_trip(&Frame::Result(Box::new(res))) {
            Frame::Result(back) => {
                assert_eq!(back.rank, 1);
                assert_eq!(
                    back.value,
                    RankValue::Err(Error::RankFailed { rank: 2, at: 0.5 })
                );
                assert_eq!(back.report.clock, 3.25);
                assert_eq!(back.report.stats, report.stats);
                let (got, sent) = (&back.report.observed, &report.observed);
                assert_eq!(got.trace, sent.trace, "spans cross bit for bit");
                assert_eq!(got.phases, sent.phases);
                assert_eq!(got.colls, sent.colls);
                assert_eq!(got.check_log, sent.check_log);
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_none_truncated_frame_is_error() {
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).expect("clean eof").is_none());
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Done { rank: 0 }).expect("encode");
        let mut truncated = &buf[..buf.len() - 2];
        assert!(read_frame(&mut truncated).is_err(), "mid-frame EOF errors");
    }

    /// Characters that steer arbitrary bodies into the JSON decoder of
    /// result frames.
    const JSON_BYTES: &[u8] = b"{}[]\":,0123456789.-eE truefalsnul\\";

    /// The input a fuzz case feeds the reader. `shape` 0: the raw bytes.
    /// 1: one frame of type `ty` with the raw bytes as its body and a
    /// correct length (JSON-flavoured half the time). 2: the same with an
    /// arbitrary length prefix, up to and past [`MAX_FRAME`]. 3: a valid
    /// envelope frame of any class with one byte overwritten and its tail
    /// cut at an arbitrary point. 4: a well-formed envelope frame whose
    /// type name is longer than the intern cache accepts.
    fn fuzz_input(shape: u32, raw: &[u8], ty: u8, len: u32, at: usize) -> Vec<u8> {
        let framed = |len: u32, body: &[u8]| {
            let mut bytes = len.to_le_bytes().to_vec();
            bytes.push(ty);
            bytes.extend_from_slice(body);
            bytes
        };
        match shape {
            0 => raw.to_vec(),
            1 => {
                let body: Vec<u8> = if at.is_multiple_of(2) {
                    raw.iter()
                        .map(|&b| JSON_BYTES[b as usize % JSON_BYTES.len()])
                        .collect()
                } else {
                    raw.to_vec()
                };
                framed(body.len() as u32 + 1, &body)
            }
            2 => framed(len, raw),
            3 => {
                let class = match at % 3 {
                    0 => MsgClass::User(len),
                    1 => MsgClass::Internal(u64::from(len) << 20),
                    _ => MsgClass::Ack,
                };
                let env = Envelope {
                    src: at,
                    class,
                    type_name: "u8",
                    type_size: 1,
                    payload: Bytes::copy_from_slice(raw),
                    send_time: 0.5,
                    seq: u64::from(len),
                    rendezvous: at.is_multiple_of(2),
                };
                let mut bytes = Vec::new();
                write_frame(&mut bytes, &Frame::Env(env)).expect("encode");
                let i = at % bytes.len();
                bytes[i] = raw.first().copied().unwrap_or(ty);
                bytes.truncate(bytes.len() - (len as usize % 4) * (i % 3));
                bytes
            }
            _ => {
                let mut body = vec![u8::from(at.is_multiple_of(2))];
                put_u64(&mut body, at as u64);
                body.push(CLASS_USER);
                put_u32(&mut body, len);
                put_str(&mut body, &"x".repeat(MAX_TYPE_NAME + 1 + at % 64));
                put_u64(&mut body, 1);
                put_f64(&mut body, 0.5);
                put_u64(&mut body, u64::from(len));
                put_bytes(&mut body, raw);
                let mut bytes = (body.len() as u32 + 1).to_le_bytes().to_vec();
                bytes.push(TY_ENV);
                bytes.extend_from_slice(&body);
                bytes
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 2048 }))]
        /// Bytes from a peer process are untrusted: whatever arrives, the
        /// reader returns a frame, a clean EOF, or an error, without a
        /// panic, and never asks for a buffer sized by a length prefix
        /// instead of by the bytes that came.
        #[test]
        fn arbitrary_bytes_decode_to_a_frame_eof_or_error(
            shape in 0u32..5,
            raw in proptest::collection::vec(0u32..256, 0..96),
            ty in 0u32..8,
            len in proptest::prelude::any::<u32>(),
            at in 0usize..1024
        ) {
            let raw: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
            let input = fuzz_input(shape, &raw, ty as u8, len, at);
            let mut reader = Recording { data: &input, largest_read: 0 };
            let outcome = read_frame(&mut reader);
            proptest::prop_assert!(
                reader.largest_read <= 64 * 1024,
                "read into a {} byte buffer for {} bytes of input",
                reader.largest_read,
                input.len()
            );
            if shape == 4 {
                proptest::prop_assert!(outcome.is_err(), "an over-long type name decodes");
            } else if let Ok(Some(frame)) = outcome {
                // Whatever decoded re-encodes.
                write_frame(&mut Vec::new(), &frame).expect("a decoded frame encodes");
            }
        }
    }
}
