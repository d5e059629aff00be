//! Field encoding for the control messages, and the layout rules every
//! field on the wire follows.
//!
//! Every delivery, execution and control message crosses the wire in a
//! hand-rolled binary layout. The types live in `plasma-backend`, below
//! the actor runtime; the control messages' byte layout lives here, a
//! field at a time through [`WireCursor`], beside the frame layer (length
//! prefix, version byte, message kinds) that wraps it, so one crate owns
//! every byte of the wire.
//!
//! Layout rules, chosen once and applied everywhere:
//!
//! - **One layout, two codecs**: a delivery or an execution has one
//!   length, so `frame` writes and reads its fields at fixed offsets
//!   instead of through the cursor. The bytes are the ones the cursor
//!   codec writes; that codec stays here under `cfg(test)` as the oracle
//!   of the fixed offsets.
//! - **Endianness is explicit**: every multi-byte integer is big-endian
//!   (network byte order). No host-order field ever touches the wire.
//! - **Fixed width**: `u8`/`u32`/`u64` only — no varints, no padding.
//! - **Canonical booleans**: exactly `0` or `1`; any other byte is a
//!   [`DecodeError::BadBool`]. This is what makes re-encoding a decoded
//!   value reproduce the input bytes exactly (the fuzz round-trip
//!   property).
//! - **No wire-level `serde`**: the format is hand-rolled for the same
//!   reason the BENCH JSON writer is — the byte layout is part of the
//!   protocol contract and must not change under us when a dependency
//!   changes its derive output.

use plasma_backend::{ControlQuery, ControlReply, ServerReport};
#[cfg(test)]
use plasma_backend::{Delivery, Execution};

/// Why a buffer failed to decode.
///
/// Every variant is a *clean* failure: decoders return these instead of
/// panicking or reading past the input, which is the property the
/// `net_frame` fuzz target drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value did.
    Truncated,
    /// A boolean byte was neither `0` nor `1`.
    BadBool(u8),
    /// A frame announced an unsupported protocol version.
    BadVersion(u8),
    /// A frame announced an unknown message kind.
    BadKind(u8),
    /// A frame announced a body longer than the protocol allows.
    Oversize(u64),
    /// A frame body had bytes left over after its payload decoded.
    Trailing {
        /// Bytes the payload consumed.
        consumed: usize,
        /// Bytes the frame header announced.
        announced: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated mid-value"),
            DecodeError::BadBool(b) => write!(f, "non-canonical boolean byte {b:#04x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown message kind {k:#04x}"),
            DecodeError::Oversize(n) => write!(f, "frame body of {n} bytes exceeds the cap"),
            DecodeError::Trailing {
                consumed,
                announced,
            } => write!(
                f,
                "frame body decoded {consumed} of {announced} announced bytes"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked reader over a wire buffer.
///
/// Reads advance a cursor and return [`DecodeError::Truncated`] instead of
/// slicing past the end — torn TCP reads and fuzzed garbage both land here.
#[derive(Debug)]
pub(crate) struct WireCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireCursor<'a> {
    /// Wraps a buffer with the cursor at the start.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        WireCursor { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn consumed(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u32`.
    pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a big-endian `u64`.
    pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a canonical boolean (`0` / `1` only).
    #[cfg(test)]
    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::BadBool(b)),
        }
    }
}

/// Appends a big-endian `u32`.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u64`.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// A carriage type's field layout on the wire.
pub(crate) trait Wire: Sized {
    /// Appends the wire encoding.
    fn wire_encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the cursor.
    fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, DecodeError>;
}

/// The cursor codec of the data frames' fields: `server:u32 actor:u64
/// bytes:u64 remote:bool` for a delivery, `server:u32 actor:u64
/// service_ns:u64` for an execution. `Frame` writes and reads the same
/// bytes at fixed offsets; this codec stays as the oracle that its
/// differential test holds the fixed offsets to.
#[cfg(test)]
impl Wire for Delivery {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.server);
        put_u64(out, self.actor);
        put_u64(out, self.bytes);
        out.push(self.remote as u8);
    }

    fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, DecodeError> {
        Ok(Delivery {
            server: c.u32()?,
            actor: c.u64()?,
            bytes: c.u64()?,
            remote: c.bool()?,
        })
    }
}

#[cfg(test)]
impl Wire for Execution {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.server);
        put_u64(out, self.actor);
        put_u64(out, self.service_ns);
    }

    fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, DecodeError> {
        Ok(Execution {
            server: c.u32()?,
            actor: c.u64()?,
            service_ns: c.u64()?,
        })
    }
}

/// Reads a `u32` element count and verifies the buffer can possibly hold
/// that many `item_len`-byte elements, so a corrupt count fails as a clean
/// [`DecodeError::Truncated`] instead of a giant allocation.
fn counted(c: &mut WireCursor<'_>, item_len: usize) -> Result<usize, DecodeError> {
    let n = c.u32()? as usize;
    if n.saturating_mul(item_len) > c.remaining() {
        return Err(DecodeError::Truncated);
    }
    Ok(n)
}

/// Wire size of an encoded [`ServerReport`], in bytes.
const REPORT_LEN: usize = 4 + 4 + 8 * 7;

/// `server:u32 vcpus:u32 actor_count:u64 mem_bytes:u64 total_speed:u64
/// net_bps:u64 cpu:u64 mem:u64 net:u64` (the trailing five are `f64` bit
/// patterns).
impl Wire for ServerReport {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.server);
        put_u32(out, self.vcpus);
        put_u64(out, self.actor_count);
        put_u64(out, self.mem_bytes);
        put_u64(out, self.total_speed_bits);
        put_u64(out, self.net_bps_bits);
        put_u64(out, self.cpu_bits);
        put_u64(out, self.mem_bits);
        put_u64(out, self.net_bits);
    }

    fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, DecodeError> {
        Ok(ServerReport {
            server: c.u32()?,
            vcpus: c.u32()?,
            actor_count: c.u64()?,
            mem_bytes: c.u64()?,
            total_speed_bits: c.u64()?,
            net_bps_bits: c.u64()?,
            cpu_bits: c.u64()?,
            mem_bits: c.u64()?,
            net_bits: c.u64()?,
        })
    }
}

/// `gem:u32 round:u64 generation:u64 n:u32 scope:[u32; n]`.
impl Wire for ControlQuery {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.gem);
        put_u64(out, self.round);
        put_u64(out, self.generation);
        put_u32(out, self.scope.len() as u32);
        for &s in &self.scope {
            put_u32(out, s);
        }
    }

    fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, DecodeError> {
        let gem = c.u32()?;
        let round = c.u64()?;
        let generation = c.u64()?;
        let n = counted(c, 4)?;
        let mut scope = Vec::with_capacity(n);
        for _ in 0..n {
            scope.push(c.u32()?);
        }
        Ok(ControlQuery {
            gem,
            round,
            generation,
            scope,
        })
    }
}

/// `gem:u32 round:u64 generation:u64 n:u32 candidates:[ServerReport; n]`.
impl Wire for ControlReply {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.gem);
        put_u64(out, self.round);
        put_u64(out, self.generation);
        put_u32(out, self.candidates.len() as u32);
        for cand in &self.candidates {
            cand.wire_encode(out);
        }
    }

    fn wire_decode(c: &mut WireCursor<'_>) -> Result<Self, DecodeError> {
        let gem = c.u32()?;
        let round = c.u64()?;
        let generation = c.u64()?;
        let n = counted(c, REPORT_LEN)?;
        let mut candidates = Vec::with_capacity(n);
        for _ in 0..n {
            candidates.push(ServerReport::wire_decode(c)?);
        }
        Ok(ControlReply {
            gem,
            round,
            generation,
            candidates,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_is_a_clean_error_at_every_split() {
        let d = Delivery {
            server: 1,
            actor: 2,
            bytes: 3,
            remote: false,
        };
        let mut buf = Vec::new();
        d.wire_encode(&mut buf);
        for cut in 0..buf.len() {
            let err = Delivery::wire_decode(&mut WireCursor::new(&buf[..cut]));
            assert_eq!(err.unwrap_err(), DecodeError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn non_canonical_bool_is_rejected() {
        let d = Delivery {
            server: 1,
            actor: 2,
            bytes: 3,
            remote: true,
        };
        let mut buf = Vec::new();
        d.wire_encode(&mut buf);
        *buf.last_mut().unwrap() = 2;
        assert_eq!(
            Delivery::wire_decode(&mut WireCursor::new(&buf)).unwrap_err(),
            DecodeError::BadBool(2)
        );
    }

    #[test]
    fn server_report_wire_len_is_exact() {
        let r = ServerReport {
            server: 9,
            vcpus: 4,
            actor_count: 17,
            mem_bytes: 1 << 34,
            total_speed_bits: 2000.0_f64.to_bits(),
            net_bps_bits: 1e10_f64.to_bits(),
            cpu_bits: 0.75_f64.to_bits(),
            mem_bits: 0.5_f64.to_bits(),
            net_bits: 0.25_f64.to_bits(),
        };
        let mut buf = Vec::new();
        r.wire_encode(&mut buf);
        assert_eq!(buf.len(), REPORT_LEN);
        assert_eq!(ServerReport::wire_decode(&mut WireCursor::new(&buf)), Ok(r));
    }

    #[test]
    fn corrupt_counts_fail_cleanly() {
        let q = ControlQuery {
            gem: 0,
            round: 1,
            generation: 2,
            scope: vec![1, 2, 3],
        };
        let mut buf = Vec::new();
        q.wire_encode(&mut buf);
        // Inflate the element count far past the buffer: the decoder must
        // reject it without attempting the allocation.
        let at = 4 + 8 * 2;
        buf[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            ControlQuery::wire_decode(&mut WireCursor::new(&buf)).unwrap_err(),
            DecodeError::Truncated
        );
    }

    mod control_props {
        use super::*;
        use plasma_sim::rng::check_cases;
        use plasma_sim::DetRng;

        /// A full-width `u32` field.
        fn u32s(rng: &mut DetRng) -> u32 {
            rng.next_u64() as u32
        }

        /// `0..max` values, each drawn by `draw`.
        fn vec_of<T>(rng: &mut DetRng, max: u64, draw: fn(&mut DetRng) -> T) -> Vec<T> {
            (0..rng.below(max)).map(|_| draw(rng)).collect()
        }

        /// A report row of arbitrary raw-bit fields, NaN payloads included.
        fn arb_report(rng: &mut DetRng) -> ServerReport {
            ServerReport {
                server: u32s(rng),
                vcpus: u32s(rng),
                actor_count: rng.next_u64(),
                mem_bytes: rng.next_u64(),
                total_speed_bits: rng.next_u64(),
                net_bps_bits: rng.next_u64(),
                cpu_bits: rng.next_u64(),
                mem_bits: rng.next_u64(),
                net_bits: rng.next_u64(),
            }
        }

        /// Decode∘encode is the identity and re-encoding reproduces the
        /// bytes — for arbitrary queries.
        #[test]
        fn query_round_trips() {
            check_cases("query_round_trips", 64, |rng| {
                let q = ControlQuery {
                    gem: u32s(rng),
                    round: rng.next_u64(),
                    generation: rng.next_u64(),
                    scope: vec_of(rng, 64, u32s),
                };
                let mut buf = Vec::new();
                q.wire_encode(&mut buf);
                let mut c = WireCursor::new(&buf);
                let back = ControlQuery::wire_decode(&mut c).unwrap();
                assert_eq!(c.consumed(), buf.len());
                assert_eq!(&back, &q);
                let mut again = Vec::new();
                back.wire_encode(&mut again);
                assert_eq!(again, buf);
            });
        }

        /// The same for replies, whose report rows carry arbitrary
        /// raw-bit floats, NaN payloads included.
        #[test]
        fn reply_round_trips() {
            check_cases("reply_round_trips", 64, |rng| {
                let r = ControlReply {
                    gem: u32s(rng),
                    round: rng.next_u64(),
                    generation: rng.next_u64(),
                    candidates: vec_of(rng, 32, arb_report),
                };
                let mut buf = Vec::new();
                r.wire_encode(&mut buf);
                let mut c = WireCursor::new(&buf);
                let back = ControlReply::wire_decode(&mut c).unwrap();
                assert_eq!(c.consumed(), buf.len());
                assert_eq!(&back, &r);
                let mut again = Vec::new();
                back.wire_encode(&mut again);
                assert_eq!(again, buf);
            });
        }

        /// Truncating an encoded reply at any byte fails cleanly.
        #[test]
        fn reply_truncation_is_clean() {
            check_cases("reply_truncation_is_clean", 64, |rng| {
                let r = ControlReply {
                    gem: 1,
                    round: 2,
                    generation: 3,
                    candidates: vec_of(rng, 8, arb_report),
                };
                let mut buf = Vec::new();
                r.wire_encode(&mut buf);
                let cut = (buf.len() as f64 * rng.next_f64()) as usize;
                assert!(cut < buf.len());
                let err = ControlReply::wire_decode(&mut WireCursor::new(&buf[..cut]));
                assert_eq!(err.unwrap_err(), DecodeError::Truncated);
            });
        }
    }
}
