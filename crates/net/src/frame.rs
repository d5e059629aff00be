//! The `plasma-net` frame layer: versioned, length-prefixed messages.
//!
//! Every message between the coordinator and a `plasma-server` worker is
//! one frame:
//!
//! ```text
//! frame := len:u32be  body
//! body  := version:u8  kind:u8  payload
//! ```
//!
//! `len` counts the body (version byte included), big-endian like every
//! other integer on this wire (see the `wire` module). The version
//! byte is [`WIRE_VERSION`]; a reader that sees any other value fails with
//! `DecodeError::BadVersion` before touching the payload, which is what
//! lets the protocol evolve without silent misparses. `len` is capped at
//! [`MAX_FRAME_LEN`] so a corrupt or hostile prefix cannot make a reader
//! allocate gigabytes.
//!
//! Decoding is strict: unknown kinds, non-canonical booleans, and payloads
//! that do not consume exactly `len` bytes are all clean `DecodeError`s.
//! Strictness buys the round-trip property the `net_frame` fuzz target
//! checks — any byte string that decodes re-encodes to itself.
//!
//! The two data frames, nearly every frame a run writes, have one length
//! each, so they are encoded as one block and decoded at fixed offsets
//! (body offsets; the body starts after the length prefix):
//!
//! ```text
//! Deliver (31-byte body): version kind server@2:u32 actor@6:u64
//!                         bytes@14:u64 remote@22:bool delay_ns@23:u64
//! Execute (22-byte body): version kind server@2:u32 actor@6:u64
//!                         service_ns@14:u64
//! ```
//!
//! The bytes, and the errors a malformed body decodes to, are those of a
//! field-by-field cursor read, the way control frames are still read; a
//! differential test holds the two to each other.

use plasma_backend::{ControlQuery, ControlReply, Delivery, Execution, ServerReport};

use crate::wire::{put_u32, put_u64, DecodeError, Wire, WireCursor};

/// Protocol version stamped into (and required of) every frame, and
/// carried explicitly in the [`Frame::Hello`] handshake so a version
/// mismatch fails the handshake cleanly instead of surfacing as a
/// mid-stream decode error. Version 2 added the control-plane frames
/// (REPORT/QUERY/QREPLY/DECISION), the control counters in
/// [`WindowCounters`], and the Hello version field itself. Version 3
/// dropped the scale thresholds from QUERY and the scale votes from
/// QREPLY: the GEM computes its vote from the merged candidate rows.
/// Version 4 dropped the server-membership frames and their synchronous
/// retire round trip, and the reply counter from [`Frame::WindowAck`]: a
/// worker counts what its connection carries. Version 5 dropped the
/// DECISION frame and its counter in [`WindowCounters`]: the coordinator
/// enacts its own decisions, and no worker could act on one.
pub const WIRE_VERSION: u8 = 5;

/// Upper bound on a frame body. Control-plane frames scale with cluster
/// size (a query reply carries one 64-byte candidate row per in-scope
/// server), so the cap is sized for hundreds of servers; it exists to
/// bound allocation on garbage, not to constrain real traffic.
pub const MAX_FRAME_LEN: usize = 64 * 1024;

/// What one connection carried within the current profiling window: a
/// worker counts what it received, the coordinator what it sent, and a
/// window balances when the two agree field by field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowCounters {
    /// Deliveries carried.
    pub deliveries: u64,
    /// Services carried.
    pub executions: u64,
    /// Simulated service time carried, ns.
    pub busy_ns: u64,
    /// Injected (chaos link-degradation) transport delay, summed, ns.
    pub delay_ns_total: u64,
    /// Worst injected transport delay on one delivery, ns.
    pub delay_ns_max: u64,
    /// Deliveries that carried a nonzero injected delay.
    pub delayed: u64,
    /// LEM report rows carried.
    pub reports: u64,
    /// Control queries carried.
    pub queries: u64,
}

impl WindowCounters {
    /// Counts one coordinator → worker frame: both ends of a connection
    /// call this on the same frames, the coordinator as it writes them and
    /// the worker as it reads them. Marks and shutdown count nothing.
    pub(crate) fn count(&mut self, frame: &Frame) {
        match frame {
            Frame::Deliver { delay_ns, .. } => {
                self.deliveries += 1;
                if *delay_ns > 0 {
                    self.delayed += 1;
                    self.delay_ns_total += delay_ns;
                    self.delay_ns_max = self.delay_ns_max.max(*delay_ns);
                }
            }
            Frame::Execute { execution } => {
                self.executions += 1;
                self.busy_ns += execution.service_ns;
            }
            Frame::Report { .. } => self.reports += 1,
            Frame::Query { .. } => self.queries += 1,
            _ => {}
        }
    }

    /// Folds another connection's counters into this one.
    pub fn fold(&mut self, w: &WindowCounters) {
        self.deliveries += w.deliveries;
        self.executions += w.executions;
        self.busy_ns += w.busy_ns;
        self.delay_ns_total += w.delay_ns_total;
        self.delay_ns_max = self.delay_ns_max.max(w.delay_ns_max);
        self.delayed += w.delayed;
        self.reports += w.reports;
        self.queries += w.queries;
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.deliveries);
        put_u64(out, self.executions);
        put_u64(out, self.busy_ns);
        put_u64(out, self.delay_ns_total);
        put_u64(out, self.delay_ns_max);
        put_u64(out, self.delayed);
        put_u64(out, self.reports);
        put_u64(out, self.queries);
    }

    fn decode(c: &mut WireCursor<'_>) -> Result<Self, DecodeError> {
        Ok(WindowCounters {
            deliveries: c.u64()?,
            executions: c.u64()?,
            busy_ns: c.u64()?,
            delay_ns_total: c.u64()?,
            delay_ns_max: c.u64()?,
            delayed: c.u64()?,
            reports: c.u64()?,
            queries: c.u64()?,
        })
    }
}

/// Message kinds. Coordinator→worker kinds sit below `0x80`; worker→
/// coordinator replies sit at `0x80 |` their trigger, so a hex dump reads
/// as request/response pairs.
mod kind {
    pub const HELLO: u8 = 0x01;
    pub const DELIVER: u8 = 0x04;
    pub const EXECUTE: u8 = 0x05;
    pub const WINDOW_MARK: u8 = 0x06;
    pub const ROUND_MARK: u8 = 0x07;
    pub const SHUTDOWN: u8 = 0x08;
    pub const REPORT: u8 = 0x09;
    pub const QUERY: u8 = 0x0A;
    pub const WINDOW_ACK: u8 = 0x86;
    pub const ROUND_ACK: u8 = 0x87;
    pub const QREPLY: u8 = 0x8A;
}

/// Body length of a [`Frame::Deliver`].
const DELIVER_BODY: usize = 31;
/// Body length of a [`Frame::Execute`].
const EXECUTE_BODY: usize = 22;
/// Body offset of a `Deliver`'s `remote` byte: a body this long or
/// shorter ends before it.
const REMOTE_AT: usize = 22;

/// A data frame's bytes, length prefix included, with its header written
/// and its fields zero.
fn data_frame<const LEN: usize>(kind: u8) -> [u8; LEN] {
    let mut f = [0u8; LEN];
    f[..4].copy_from_slice(&((LEN - 4) as u32).to_be_bytes());
    f[4] = WIRE_VERSION;
    f[5] = kind;
    f
}

/// The big-endian `u32` at `at`.
fn u32_at<const N: usize>(b: &[u8; N], at: usize) -> u32 {
    let mut v = [0u8; 4];
    v.copy_from_slice(&b[at..at + 4]);
    u32::from_be_bytes(v)
}

/// The big-endian `u64` at `at`.
fn u64_at<const N: usize>(b: &[u8; N], at: usize) -> u64 {
    let mut v = [0u8; 8];
    v.copy_from_slice(&b[at..at + 8]);
    u64::from_be_bytes(v)
}

/// Appends a control frame of kind `k` whose payload `fields` writes,
/// backpatching its length.
fn control(out: &mut Vec<u8>, k: u8, fields: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    put_u32(out, 0);
    out.push(WIRE_VERSION);
    out.push(k);
    fields(out);
    let body = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&body.to_be_bytes());
}

/// `body` as a data frame's fixed-length body: [`DecodeError::Truncated`]
/// when shorter, [`DecodeError::Trailing`] when longer.
fn fixed_body<const N: usize>(body: &[u8]) -> Result<&[u8; N], DecodeError> {
    match body.first_chunk::<N>() {
        None => Err(DecodeError::Truncated),
        Some(_) if body.len() > N => Err(DecodeError::Trailing {
            consumed: N,
            announced: body.len(),
        }),
        Some(b) => Ok(b),
    }
}

/// One wire message. See the [module docs](self) for the byte layout.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Worker → coordinator, first frame on a fresh connection: which
    /// server group this worker process hosts and which protocol version
    /// it speaks. The coordinator validates `wire_version` before any
    /// other traffic — the negotiation half of the version handshake.
    Hello {
        /// The worker's group index.
        group: u32,
        /// The worker's [`WIRE_VERSION`].
        wire_version: u8,
    },
    /// Coordinator → worker: carry one message delivery. `delay_ns` is the
    /// injected chaos transport delay active when the frame was written
    /// (0 fault-free).
    Deliver {
        /// The delivery carriage record.
        delivery: Delivery,
        /// Injected transport delay, ns.
        delay_ns: u64,
    },
    /// Coordinator → worker: carry one message service.
    Execute {
        /// The execution carriage record.
        execution: Execution,
    },
    /// Coordinator → worker: FIFO window barrier; the worker replies
    /// [`Frame::WindowAck`] and resets its window counters.
    WindowMark {
        /// Snapshot generation the window closes for.
        generation: u64,
    },
    /// Coordinator → worker: FIFO round barrier; the worker replies
    /// [`Frame::RoundAck`].
    RoundMark {
        /// Elasticity round number.
        round: u64,
    },
    /// Coordinator → worker: drain and exit cleanly.
    Shutdown,
    /// Coordinator → worker: one server's LEM report row for a snapshot
    /// generation. The worker holds it verbatim and echoes it back in
    /// query replies.
    Report {
        /// Snapshot generation the row was published for.
        generation: u64,
        /// The report row (byte-exact snapshot copy).
        report: ServerReport,
    },
    /// Coordinator → worker: a GEM's control query; the worker replies
    /// [`Frame::QReply`] evaluated against the report rows it holds.
    Query {
        /// The query.
        query: ControlQuery,
    },
    /// Worker → coordinator: what the connection carried since the last
    /// mark, echoing the mark's generation.
    WindowAck {
        /// Echoed snapshot generation.
        generation: u64,
        /// The window's counters.
        counters: WindowCounters,
    },
    /// Worker → coordinator: round-barrier liveness ack.
    RoundAck {
        /// Echoed round number.
        round: u64,
    },
    /// Worker → coordinator: the answer to a [`Frame::Query`].
    QReply {
        /// The reply.
        reply: ControlReply,
    },
}

impl Frame {
    /// Appends the full length-prefixed encoding of this frame. A data
    /// frame is built as one fixed-size block and appended with one copy;
    /// a control frame is written field by field and its length
    /// backpatched.
    #[inline]
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Deliver { delivery, delay_ns } => {
                let mut f = data_frame::<{ 4 + DELIVER_BODY }>(kind::DELIVER);
                let body = &mut f[4..];
                body[2..6].copy_from_slice(&delivery.server.to_be_bytes());
                body[6..14].copy_from_slice(&delivery.actor.to_be_bytes());
                body[14..22].copy_from_slice(&delivery.bytes.to_be_bytes());
                body[REMOTE_AT] = u8::from(delivery.remote);
                body[23..31].copy_from_slice(&delay_ns.to_be_bytes());
                out.extend_from_slice(&f);
            }
            Frame::Execute { execution } => {
                let mut f = data_frame::<{ 4 + EXECUTE_BODY }>(kind::EXECUTE);
                let body = &mut f[4..];
                body[2..6].copy_from_slice(&execution.server.to_be_bytes());
                body[6..14].copy_from_slice(&execution.actor.to_be_bytes());
                body[14..22].copy_from_slice(&execution.service_ns.to_be_bytes());
                out.extend_from_slice(&f);
            }
            Frame::Hello {
                group,
                wire_version,
            } => control(out, kind::HELLO, |out| {
                put_u32(out, *group);
                out.push(*wire_version);
            }),
            Frame::WindowMark { generation } => {
                control(out, kind::WINDOW_MARK, |out| put_u64(out, *generation))
            }
            Frame::RoundMark { round } => {
                control(out, kind::ROUND_MARK, |out| put_u64(out, *round))
            }
            Frame::Shutdown => control(out, kind::SHUTDOWN, |_| {}),
            Frame::Report { generation, report } => control(out, kind::REPORT, |out| {
                put_u64(out, *generation);
                report.wire_encode(out);
            }),
            Frame::Query { query } => control(out, kind::QUERY, |out| query.wire_encode(out)),
            Frame::WindowAck {
                generation,
                counters,
            } => control(out, kind::WINDOW_ACK, |out| {
                put_u64(out, *generation);
                counters.encode(out);
            }),
            Frame::RoundAck { round } => control(out, kind::ROUND_ACK, |out| put_u64(out, *round)),
            Frame::QReply { reply } => control(out, kind::QREPLY, |out| reply.wire_encode(out)),
        }
    }

    /// The full encoding as a fresh buffer.
    pub fn encode_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode(&mut out);
        out
    }

    /// Tries to decode one frame from the front of `buf`.
    ///
    /// Returns `Ok(None)` when `buf` holds only a prefix of a frame (more
    /// bytes needed — the torn-read case), `Ok(Some((frame, consumed)))` on
    /// success, and a [`DecodeError`] on malformed input. Never panics and
    /// never reads past `buf`.
    ///
    /// The header is checked in a fixed order: a short length prefix is
    /// `Ok(None)`, then `Oversize`, a body under two bytes `Truncated`, a
    /// short body `Ok(None)`, then `BadVersion`, then `BadKind`. A data
    /// frame's body is then read at fixed offsets and fails exactly as the
    /// cursor would, field by field: a `Deliver` body that ends before its
    /// `remote` byte is `Truncated`, a `remote` byte other than 0 or 1 is
    /// `BadBool`, and only then is a short body `Truncated` or a long one
    /// `Trailing`.
    #[inline]
    pub fn decode_prefix(buf: &[u8]) -> Result<Option<(Frame, usize)>, DecodeError> {
        let Some((prefix, rest)) = buf.split_first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(DecodeError::Oversize(len as u64));
        }
        // A body needs at least its version and kind bytes.
        if len < 2 {
            return Err(DecodeError::Truncated);
        }
        let Some(body) = rest.get(..len) else {
            return Ok(None);
        };
        if body[0] != WIRE_VERSION {
            return Err(DecodeError::BadVersion(body[0]));
        }
        let frame = match body[1] {
            kind::DELIVER => {
                let remote = match body.get(REMOTE_AT) {
                    None => return Err(DecodeError::Truncated),
                    Some(0) => false,
                    Some(1) => true,
                    Some(&b) => return Err(DecodeError::BadBool(b)),
                };
                let b = fixed_body::<DELIVER_BODY>(body)?;
                Frame::Deliver {
                    delivery: Delivery {
                        server: u32_at(b, 2),
                        actor: u64_at(b, 6),
                        bytes: u64_at(b, 14),
                        remote,
                    },
                    delay_ns: u64_at(b, 23),
                }
            }
            kind::EXECUTE => {
                let b = fixed_body::<EXECUTE_BODY>(body)?;
                Frame::Execute {
                    execution: Execution {
                        server: u32_at(b, 2),
                        actor: u64_at(b, 6),
                        service_ns: u64_at(b, 14),
                    },
                }
            }
            k => Frame::decode_control(k, body)?,
        };
        Ok(Some((frame, 4 + len)))
    }

    /// Decodes a control frame's `body` of kind `k` field by field.
    fn decode_control(k: u8, body: &[u8]) -> Result<Frame, DecodeError> {
        let mut c = WireCursor::new(&body[2..]);
        let frame = match k {
            kind::HELLO => Frame::Hello {
                group: c.u32()?,
                wire_version: c.u8()?,
            },
            kind::WINDOW_MARK => Frame::WindowMark {
                generation: c.u64()?,
            },
            kind::ROUND_MARK => Frame::RoundMark { round: c.u64()? },
            kind::SHUTDOWN => Frame::Shutdown,
            kind::REPORT => Frame::Report {
                generation: c.u64()?,
                report: ServerReport::wire_decode(&mut c)?,
            },
            kind::QUERY => Frame::Query {
                query: ControlQuery::wire_decode(&mut c)?,
            },
            kind::WINDOW_ACK => Frame::WindowAck {
                generation: c.u64()?,
                counters: WindowCounters::decode(&mut c)?,
            },
            kind::ROUND_ACK => Frame::RoundAck { round: c.u64()? },
            kind::QREPLY => Frame::QReply {
                reply: ControlReply::wire_decode(&mut c)?,
            },
            other => return Err(DecodeError::BadKind(other)),
        };
        // The version and kind bytes count as consumed.
        let consumed = 2 + c.consumed();
        if consumed != body.len() {
            return Err(DecodeError::Trailing {
                consumed,
                announced: body.len(),
            });
        }
        Ok(frame)
    }
}

/// Reassembles frames from an arbitrarily torn byte stream.
///
/// Feed whatever the transport produced — single bytes, half a length
/// prefix, three frames at once — via [`FrameBuffer::extend`], then drain
/// complete frames with [`FrameBuffer::next`]. Both the worker loop and the
/// coordinator read side sit on one of these, so torn TCP reads can never
/// misframe a message.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuffer {
    /// An empty reassembly buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends raw transport bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, so long-lived streams
        // don't accrete an unbounded buffer.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, `Ok(None)` when more bytes are
    /// needed, or a [`DecodeError`] if the stream is malformed (after
    /// which the buffer is poisoned garbage — callers drop the
    /// connection). Deliberately named like `Iterator::next` (same pull
    /// shape) without implementing the trait, whose signature can't carry
    /// the tri-state result.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> Result<Option<Frame>, DecodeError> {
        match Frame::decode_prefix(&self.buf[self.pos..])? {
            None => Ok(None),
            Some((frame, consumed)) => {
                self.pos += consumed;
                Ok(Some(frame))
            }
        }
    }

    /// Bytes currently buffered and not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hello {
                group: 1,
                wire_version: WIRE_VERSION,
            },
            Frame::Deliver {
                delivery: Delivery {
                    server: 4,
                    actor: 99,
                    bytes: 512,
                    remote: true,
                },
                delay_ns: 1_500_000,
            },
            Frame::Execute {
                execution: Execution {
                    server: 4,
                    actor: 99,
                    service_ns: 42_000,
                },
            },
            Frame::Report {
                generation: 7,
                report: ServerReport {
                    server: 4,
                    vcpus: 2,
                    actor_count: 9,
                    mem_bytes: 1 << 31,
                    total_speed_bits: 1500.0_f64.to_bits(),
                    net_bps_bits: 1e9_f64.to_bits(),
                    cpu_bits: 0.625_f64.to_bits(),
                    mem_bits: 0.25_f64.to_bits(),
                    net_bits: 0.125_f64.to_bits(),
                },
            },
            Frame::Query {
                query: ControlQuery {
                    gem: 0,
                    round: 3,
                    generation: 7,
                    scope: vec![4, 6],
                },
            },
            Frame::QReply {
                reply: ControlReply {
                    gem: 0,
                    round: 3,
                    generation: 7,
                    candidates: vec![ServerReport {
                        server: 4,
                        vcpus: 2,
                        actor_count: 9,
                        mem_bytes: 1 << 31,
                        total_speed_bits: 1500.0_f64.to_bits(),
                        net_bps_bits: 1e9_f64.to_bits(),
                        cpu_bits: 0.125_f64.to_bits(),
                        mem_bits: 0.25_f64.to_bits(),
                        net_bits: 0.0_f64.to_bits(),
                    }],
                },
            },
            Frame::WindowMark { generation: 7 },
            Frame::WindowAck {
                generation: 7,
                counters: WindowCounters {
                    deliveries: 1,
                    executions: 1,
                    busy_ns: 42_000,
                    delay_ns_total: 1_500_000,
                    delay_ns_max: 1_500_000,
                    delayed: 1,
                    reports: 1,
                    queries: 1,
                },
            },
            Frame::RoundMark { round: 3 },
            Frame::RoundAck { round: 3 },
            Frame::Shutdown,
        ]
    }

    /// Both ends of a connection count with [`WindowCounters::count`], so a
    /// wrong rule would still balance every window; this pins what each
    /// field tallies. Only coordinator-to-worker payload frames count.
    #[test]
    fn count_tallies_each_field() {
        let mut frames = samples();
        let execute = frames[2].clone();
        let deliver = |delay_ns| Frame::Deliver {
            delivery: Delivery {
                server: 1,
                actor: 2,
                bytes: 64,
                remote: delay_ns > 0,
            },
            delay_ns,
        };
        frames.extend([deliver(0), deliver(500_000), execute]);
        let mut w = WindowCounters::default();
        for f in &frames {
            w.count(f);
        }
        assert_eq!(
            w,
            WindowCounters {
                deliveries: 3,
                executions: 2,
                busy_ns: 84_000,
                delay_ns_total: 2_000_000,
                delay_ns_max: 1_500_000,
                delayed: 2,
                reports: 1,
                queries: 1,
            }
        );
    }

    #[test]
    fn every_kind_round_trips_byte_exactly() {
        for f in samples() {
            let bytes = f.encode_vec();
            let (back, n) = Frame::decode_prefix(&bytes).unwrap().unwrap();
            assert_eq!(n, bytes.len(), "{f:?} must consume exactly its bytes");
            assert_eq!(back, f);
            assert_eq!(back.encode_vec(), bytes, "{f:?} re-encode must be stable");
        }
    }

    /// Split length prefixes and torn payloads: a frame fed one byte at a
    /// time yields `None` until the final byte, then the frame — never an
    /// error, never a hang.
    #[test]
    fn torn_reads_reassemble_at_every_split() {
        for f in samples() {
            let bytes = f.encode_vec();
            let mut fb = FrameBuffer::new();
            for (i, b) in bytes.iter().enumerate() {
                fb.extend(std::slice::from_ref(b));
                let got = fb.next().unwrap();
                if i + 1 < bytes.len() {
                    assert!(got.is_none(), "{f:?}: premature frame at byte {i}");
                } else {
                    assert_eq!(got.as_ref(), Some(&f));
                }
            }
        }
    }

    /// A short write (frame truncated mid-stream, connection gone) leaves
    /// the reader waiting for bytes, not panicking or misframing.
    #[test]
    fn short_writes_leave_the_buffer_pending() {
        let bytes = samples()[1].encode_vec();
        for cut in 0..bytes.len() {
            let mut fb = FrameBuffer::new();
            fb.extend(&bytes[..cut]);
            assert_eq!(fb.next().unwrap(), None, "cut at {cut}");
            assert_eq!(fb.pending(), cut);
        }
    }

    #[test]
    fn malformed_version_is_a_clean_error() {
        let mut bytes = Frame::Shutdown.encode_vec();
        bytes[4] = 9; // version byte sits right after the length prefix
        assert_eq!(
            Frame::decode_prefix(&bytes).unwrap_err(),
            DecodeError::BadVersion(9)
        );
    }

    /// A v1 worker's Hello (header version 1, no payload version byte)
    /// fails at the version check — before the kind or payload is touched
    /// — so a coordinator can turn it into a clean handshake error.
    #[test]
    fn old_version_hello_fails_before_payload_parse() {
        let mut v1_hello = Vec::new();
        put_u32(&mut v1_hello, 6); // version + kind + group:u32
        v1_hello.push(1); // wire version 1
        v1_hello.push(kind::HELLO);
        put_u32(&mut v1_hello, 3);
        assert_eq!(
            Frame::decode_prefix(&v1_hello).unwrap_err(),
            DecodeError::BadVersion(1)
        );
    }

    /// The Hello payload carries the version explicitly, so a decoded
    /// handshake exposes what the peer speaks.
    #[test]
    fn hello_carries_the_wire_version() {
        let bytes = Frame::Hello {
            group: 2,
            wire_version: WIRE_VERSION,
        }
        .encode_vec();
        match Frame::decode_prefix(&bytes).unwrap().unwrap().0 {
            Frame::Hello {
                group,
                wire_version,
            } => {
                assert_eq!((group, wire_version), (2, WIRE_VERSION));
            }
            other => panic!("expected Hello, got {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_oversize_and_trailing_are_clean_errors() {
        let mut bad_kind = Frame::Shutdown.encode_vec();
        bad_kind[5] = 0x7F;
        assert_eq!(
            Frame::decode_prefix(&bad_kind).unwrap_err(),
            DecodeError::BadKind(0x7F)
        );

        let mut oversize = Vec::new();
        put_u32(&mut oversize, (MAX_FRAME_LEN + 1) as u32);
        assert!(matches!(
            Frame::decode_prefix(&oversize).unwrap_err(),
            DecodeError::Oversize(_)
        ));

        // A Shutdown body with an extra byte announced and present.
        let mut trailing = Vec::new();
        put_u32(&mut trailing, 3);
        trailing.push(WIRE_VERSION);
        trailing.push(kind::SHUTDOWN);
        trailing.push(0xAA);
        assert!(matches!(
            Frame::decode_prefix(&trailing).unwrap_err(),
            DecodeError::Trailing { .. }
        ));
    }

    #[test]
    fn back_to_back_frames_pop_in_order() {
        let mut stream = Vec::new();
        for f in samples() {
            f.encode(&mut stream);
        }
        let mut fb = FrameBuffer::new();
        // Feed in ragged chunks to exercise the reassembly path.
        for chunk in stream.chunks(7) {
            fb.extend(chunk);
            // Interleave draining so the buffer compaction path runs too.
            while let Some(f) = fb.next().unwrap() {
                let _ = f;
            }
        }
        let mut fb2 = FrameBuffer::new();
        fb2.extend(&stream);
        let mut got = Vec::new();
        while let Some(f) = fb2.next().unwrap() {
            got.push(f);
        }
        assert_eq!(got, samples());
        assert_eq!(fb2.pending(), 0);
    }

    /// The fixed-offset data codec against the field-by-field cursor codec
    /// it replaced: the same bytes out, and the same frame, length or
    /// error back on every input.
    mod fixed_offsets {
        use super::*;
        use plasma_sim::rng::check_cases;
        use plasma_sim::DetRng;

        /// How data frames were encoded through the cursor codec.
        fn cursor_encode(frame: &Frame) -> Vec<u8> {
            let mut body = vec![WIRE_VERSION];
            match frame {
                Frame::Deliver { delivery, delay_ns } => {
                    body.push(kind::DELIVER);
                    delivery.wire_encode(&mut body);
                    put_u64(&mut body, *delay_ns);
                }
                Frame::Execute { execution } => {
                    body.push(kind::EXECUTE);
                    execution.wire_encode(&mut body);
                }
                other => unreachable!("{other:?} is not a data frame"),
            }
            let mut out = Vec::new();
            put_u32(&mut out, body.len() as u32);
            out.extend(body);
            out
        }

        /// How every frame was decoded through the cursor codec. Control
        /// kinds still are, so they go to `decode_control` directly.
        fn cursor_decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, DecodeError> {
            if buf.len() < 4 {
                return Ok(None);
            }
            let len = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
            if len > MAX_FRAME_LEN {
                return Err(DecodeError::Oversize(len as u64));
            }
            if len < 2 {
                return Err(DecodeError::Truncated);
            }
            if buf.len() < 4 + len {
                return Ok(None);
            }
            let body = &buf[4..4 + len];
            let mut c = WireCursor::new(body);
            let version = c.u8()?;
            if version != WIRE_VERSION {
                return Err(DecodeError::BadVersion(version));
            }
            let frame = match c.u8()? {
                kind::DELIVER => Frame::Deliver {
                    delivery: Delivery::wire_decode(&mut c)?,
                    delay_ns: c.u64()?,
                },
                kind::EXECUTE => Frame::Execute {
                    execution: Execution::wire_decode(&mut c)?,
                },
                k => return Frame::decode_control(k, body).map(|f| Some((f, 4 + len))),
            };
            if c.consumed() != body.len() {
                return Err(DecodeError::Trailing {
                    consumed: c.consumed(),
                    announced: body.len(),
                });
            }
            Ok(Some((frame, 4 + len)))
        }

        /// `decode_prefix` and `FrameBuffer::next` return exactly what the
        /// cursor codec returns on `buf`.
        fn agrees(buf: &[u8]) {
            let expected = cursor_decode(buf);
            assert_eq!(Frame::decode_prefix(buf), expected, "{buf:02x?}");
            let mut fb = FrameBuffer::new();
            fb.extend(buf);
            let popped = expected.clone().map(|o| o.map(|(frame, _)| frame));
            assert_eq!(fb.next(), popped, "FrameBuffer on {buf:02x?}");
            if let Ok(Some((_, consumed))) = expected {
                assert_eq!(fb.pending(), buf.len() - consumed, "{buf:02x?}");
            }
        }

        /// 0, 1, `MAX` or a uniform value.
        fn edge_u64(rng: &mut DetRng) -> u64 {
            match rng.below(4) {
                0 => 0,
                1 => 1,
                2 => u64::MAX,
                _ => rng.next_u64(),
            }
        }

        /// 0, 1, `MAX` or a uniform value.
        fn edge_u32(rng: &mut DetRng) -> u32 {
            match rng.below(4) {
                0 => 0,
                1 => 1,
                2 => u32::MAX,
                _ => rng.next_u64() as u32,
            }
        }

        /// A `Deliver` or an `Execute` with edge or uniform fields.
        fn arb_data_frame(rng: &mut DetRng) -> Frame {
            if rng.below(2) == 0 {
                Frame::Deliver {
                    delivery: Delivery {
                        server: edge_u32(rng),
                        actor: edge_u64(rng),
                        bytes: edge_u64(rng),
                        remote: rng.below(2) == 1,
                    },
                    delay_ns: edge_u64(rng),
                }
            } else {
                Frame::Execute {
                    execution: Execution {
                        server: edge_u32(rng),
                        actor: edge_u64(rng),
                        service_ns: edge_u64(rng),
                    },
                }
            }
        }

        /// `n` uniform bytes.
        fn bytes(rng: &mut DetRng, n: usize) -> Vec<u8> {
            (0..n).map(|_| rng.next_u64() as u8).collect()
        }

        #[test]
        fn data_frames_match_the_cursor_codec() {
            check_cases("data_frames_match_the_cursor_codec", 256, |rng| {
                let frame = arb_data_frame(rng);
                let wire = cursor_encode(&frame);
                let deliver = matches!(frame, Frame::Deliver { .. });

                // `encode` appends the cursor codec's bytes, which decode
                // back to the frame.
                let n = rng.index(8);
                let lead = bytes(rng, n);
                let mut out = lead.clone();
                frame.encode(&mut out);
                assert_eq!(out[..lead.len()], lead[..], "{frame:?}");
                assert_eq!(out[lead.len()..], wire[..], "{frame:?}");
                assert_eq!(
                    Frame::decode_prefix(&wire),
                    Ok(Some((frame.clone(), wire.len())))
                );
                agrees(&wire);

                // Every announced body length up to two past the real one,
                // with the bytes present (a next frame's bytes may follow)
                // and with too few; for a Deliver, once more with a bad
                // `remote` byte.
                let fixed = wire.len() - 4;
                let mut bodies = vec![wire[4..].to_vec()];
                if deliver {
                    let mut bad = wire[4..].to_vec();
                    bad[REMOTE_AT] = 2 + rng.below(254) as u8;
                    bodies.push(bad);
                }
                for mut body in bodies {
                    body.extend(bytes(rng, 2));
                    for announced in 0..=fixed + 2 {
                        let mut buf = (announced as u32).to_be_bytes().to_vec();
                        buf.extend(&body[..announced]);
                        agrees(&buf);
                        let mut followed = buf.clone();
                        let n = 1 + rng.index(8);
                        followed.extend(bytes(rng, n));
                        agrees(&followed);
                        agrees(&buf[..rng.index(buf.len())]);
                    }
                }

                // Every `remote` byte value.
                if deliver {
                    for remote in 0..=u8::MAX {
                        let mut buf = wire.clone();
                        buf[4 + REMOTE_AT] = remote;
                        agrees(&buf);
                    }
                }

                // A bad version, then another kind: the other data kind or
                // any byte.
                let mut buf = wire.clone();
                buf[4] = WIRE_VERSION ^ (1 + rng.below(255) as u8);
                agrees(&buf);
                let mut buf = wire.clone();
                buf[5] = match rng.below(2) {
                    0 if deliver => kind::EXECUTE,
                    0 => kind::DELIVER,
                    _ => rng.next_u64() as u8,
                };
                agrees(&buf);
            });
        }
    }
}
