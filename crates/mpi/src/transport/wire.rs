//! Length-prefixed framing for the multi-process backend.
//!
//! Every frame on a peer socket is `u32` little-endian body length,
//! one type byte, then the body. Data frames ([`Frame::Env`]) carry a
//! manually encoded envelope whose payload bytes are exactly the
//! `POD_LE` encoding from [`crate::datatype`] — the same bytes an
//! in-process rank would have seen, so payloads are bit-identical
//! across backends. Control frames (results, failure notices,
//! agreement entries) are small and rare; their bodies are
//! `serde_json` for robustness over hand-rolled layouts.

use crate::check::CheckEvent;
use crate::envelope::{Envelope, MsgClass};
use crate::error::Error;
use crate::stats::CommStats;
use bytes::Bytes;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Upper bound on a frame body: a sanity cap against corrupt length
/// prefixes, far above any legitimate module payload.
const MAX_FRAME: u32 = 1 << 30;

/// Intern a string, returning a `&'static str` that lives for the rest
/// of the process. The runtime's type names, op names, and call sites
/// are `&'static str` in-process; a deserialized copy from a peer
/// process has no static backing, so it is leaked once per *distinct*
/// string — a bounded set (type names, source files) in practice.
pub(crate) fn intern(s: &str) -> &'static str {
    static CACHE: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(&interned) = cache.get(s) {
        return interned;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    cache.insert(s.to_owned(), leaked);
    leaked
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
    /// The rank's communication statistics.
    pub stats: CommStats,
    /// The rank's final simulated clock, seconds.
    pub clock: f64,
    /// The rank's checker event log (empty unless checking was on).
    pub check_log: Vec<CheckEvent>,
}

/// One frame on a peer socket.
#[derive(Debug, Clone)]
pub(crate) enum Frame {
    /// Connection preamble: the connecting process's rank.
    Hello { rank: usize },
    /// A message envelope in flight (the data plane).
    Env {
        /// The sender blocks on an ack for this envelope (rendezvous).
        needs_ack: bool,
        /// Sending rank.
        src: usize,
        /// User tag or internal collective tag.
        class: MsgClass,
        /// Element type name.
        type_name: &'static str,
        /// Element size in bytes.
        type_size: usize,
        /// Sender's simulated clock at send time.
        send_time: f64,
        /// Per-sender sequence number.
        seq: u64,
        /// `POD_LE` payload bytes.
        payload: Bytes,
    },
    /// Rendezvous acknowledgement for the sender's envelope `seq`,
    /// carrying the receiver's clock at match time.
    Ack { seq: u64, at: f64 },
    /// `rank` finished its closure (mirrors `Progress::mark_done`).
    Done { rank: usize },
    /// `rank` crashed at simulated time `at` (mirrors
    /// `Progress::mark_failed`).
    Failed { rank: usize, at: f64 },
    /// `rank` entered agreement generation `generation` (mirrors
    /// `Progress::agree`'s entry).
    AgreeEnter { rank: usize, generation: u64 },
    /// `rank`'s final report (value, stats, checker log).
    Result(RankResult),
}

const TY_HELLO: u8 = 0;
const TY_ENV: u8 = 1;
const TY_ACK: u8 = 2;
const TY_DONE: u8 = 3;
const TY_FAILED: u8 = 4;
const TY_AGREE: u8 = 5;
const TY_RESULT: u8 = 6;

/// Envelope class discriminants inside a [`Frame::Env`] body.
const CLASS_USER: u8 = 0;
const CLASS_INTERNAL: u8 = 1;

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
    /// Build the data-plane frame for an envelope. The ack path does not
    /// cross the wire — the sender keeps its ack channel locally, keyed
    /// by `seq`; the receiver's side is reconstructed as an
    /// [`AckHandle::Remote`](crate::envelope::AckHandle) callback.
    pub(crate) fn from_envelope(env: &Envelope) -> Frame {
        Frame::Env {
            needs_ack: env.ack.is_some(),
            src: env.src,
            class: env.class,
            type_name: env.type_name,
            type_size: env.type_size,
            send_time: env.send_time,
            seq: env.seq,
            payload: env.payload.clone(),
        }
    }

    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TY_HELLO,
            Frame::Env { .. } => TY_ENV,
            Frame::Ack { .. } => TY_ACK,
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
            Frame::Env {
                needs_ack,
                src,
                class,
                type_name,
                type_size,
                send_time,
                seq,
                payload,
            } => {
                buf.push(u8::from(*needs_ack));
                put_u64(&mut buf, *src as u64);
                match class {
                    MsgClass::User(tag) => {
                        buf.push(CLASS_USER);
                        put_u32(&mut buf, *tag);
                    }
                    MsgClass::Internal(tag) => {
                        buf.push(CLASS_INTERNAL);
                        put_u64(&mut buf, *tag);
                    }
                }
                put_str(&mut buf, type_name);
                put_u64(&mut buf, *type_size as u64);
                put_f64(&mut buf, *send_time);
                put_u64(&mut buf, *seq);
                put_bytes(&mut buf, payload);
            }
            Frame::Ack { seq, at } => {
                put_u64(&mut buf, *seq);
                put_f64(&mut buf, *at);
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
            Frame::Result(res) => buf = json_body(res),
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
                let needs_ack = c.u8()? != 0;
                let src = c.u64()? as usize;
                let class = match c.u8()? {
                    CLASS_USER => MsgClass::User(c.u32()?),
                    CLASS_INTERNAL => MsgClass::Internal(c.u64()?),
                    _ => return Err(bad("unknown envelope class")),
                };
                let type_name = intern(c.str()?);
                let type_size = c.u64()? as usize;
                let send_time = c.f64()?;
                let seq = c.u64()?;
                let payload = Bytes::copy_from_slice(c.bytes()?);
                Frame::Env {
                    needs_ack,
                    src,
                    class,
                    type_name,
                    type_size,
                    send_time,
                    seq,
                    payload,
                }
            }
            TY_ACK => Frame::Ack {
                seq: c.u64()?,
                at: c.f64()?,
            },
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
            TY_RESULT => Frame::Result(from_json(body)?),
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
        let a = intern("f64");
        let b = intern("f64");
        assert!(std::ptr::eq(a, b), "same string interns to same pointer");
        assert_eq!(intern("i32"), "i32");
    }

    #[test]
    fn envelope_frames_round_trip_bit_identically() {
        let payload = crate::datatype::encode_slice(&[1.5f64, -2.25, 0.0]);
        let frame = Frame::Env {
            needs_ack: true,
            src: 3,
            class: MsgClass::Internal(0xDEAD_BEEF_0001),
            type_name: intern("f64"),
            type_size: 8,
            send_time: 0.125,
            seq: 42,
            payload: payload.clone(),
        };
        match round_trip(&frame) {
            Frame::Env {
                needs_ack,
                src,
                class,
                type_name,
                type_size,
                send_time,
                seq,
                payload: back,
            } => {
                assert!(needs_ack);
                assert_eq!(src, 3);
                assert_eq!(class, MsgClass::Internal(0xDEAD_BEEF_0001));
                assert_eq!(type_name, "f64");
                assert_eq!(type_size, 8);
                assert_eq!(send_time, 0.125);
                assert_eq!(seq, 42);
                assert_eq!(back, payload, "POD_LE payload bytes survive the wire");
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn control_frames_round_trip() {
        match round_trip(&Frame::Hello { rank: 7 }) {
            Frame::Hello { rank } => assert_eq!(rank, 7),
            other => panic!("wrong frame: {other:?}"),
        }
        match round_trip(&Frame::Ack { seq: 9, at: 1.5 }) {
            Frame::Ack { seq, at } => {
                assert_eq!(seq, 9);
                assert_eq!(at, 1.5);
            }
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
    fn result_frames_carry_errors_and_stats() {
        let res = RankResult {
            rank: 1,
            value: RankValue::Err(Error::RankFailed { rank: 2, at: 0.5 }),
            stats: CommStats::new(),
            clock: 3.25,
            check_log: Vec::new(),
        };
        match round_trip(&Frame::Result(res)) {
            Frame::Result(back) => {
                assert_eq!(back.rank, 1);
                assert_eq!(
                    back.value,
                    RankValue::Err(Error::RankFailed { rank: 2, at: 0.5 })
                );
                assert_eq!(back.clock, 3.25);
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
}
