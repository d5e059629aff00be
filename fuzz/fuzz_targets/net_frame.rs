//! Fuzz target: no byte stream may panic the wire-frame decoder.
//!
//! Feeds arbitrary bytes to `plasma-net`'s frame decoder two ways — the
//! whole buffer through `decode_prefix`, and byte-by-byte through a
//! [`FrameBuffer`] (the torn-read reassembly path the coordinator and
//! workers actually use) — and checks three properties:
//!
//! 1. **No panic**: every input decodes to frames or a clean `DecodeError`.
//! 2. **Round-trip stability**: any frame the decoder accepts re-encodes to
//!    exactly the bytes it was decoded from (strict decode means no
//!    tolerated trailing garbage, so `encode(decode(b)) == b` on the
//!    consumed prefix).
//! 3. **Reassembly equivalence**: the frames recovered from byte-at-a-time
//!    feeding match the frames recovered from the whole buffer, up to the
//!    first error.
//!
//! Runs on the shared driver in `plasma_fuzz`. Usage:
//!
//! ```text
//! net_frame [iterations] [seed]
//! net_frame gen-corpus      # (re)write the seed corpus and exit
//! ```
//!
//! Defaults: 20000 iterations (each one a decode pass over a mutated
//! stream), seed 0x4652 (ASCII "FR").

use std::path::Path;

use plasma_backend::{ControlQuery, ControlReply, Delivery, Execution, ServerReport};
use plasma_fuzz::{below, Target};
use plasma_net::{Frame, FrameBuffer, WindowCounters, WIRE_VERSION};

const TARGET: Target = Target {
    name: "net_frame",
    iterations: 20_000,
    seed: 0x4652,
    max_len: 1 << 12,
    // Overwrites one of the first six bytes. Headers live at small offsets,
    // so this concentrates damage on the length, version and kind fields.
    mutation: |out, state| {
        if !out.is_empty() {
            let i = below(state, out.len().min(6));
            out[i] = below(state, 256) as u8;
        }
    },
};

/// Decodes `bytes` as a whole-buffer frame stream: the exact frames, then
/// whether the stream ended in an error (vs. an incomplete tail).
fn decode_whole(bytes: &[u8]) -> (Vec<Frame>, bool) {
    let mut frames = Vec::new();
    let mut rest = bytes;
    loop {
        match Frame::decode_prefix(rest) {
            Ok(Some((frame, consumed))) => {
                // Property 2: strict decode means byte-exact re-encode.
                let reenc = frame.encode_vec();
                assert_eq!(
                    reenc,
                    &rest[..consumed],
                    "frame {frame:?} did not round-trip its own bytes"
                );
                frames.push(frame);
                rest = &rest[consumed..];
            }
            Ok(None) => return (frames, false),
            Err(_) => return (frames, true),
        }
    }
}

/// One fuzz execution over one byte stream.
fn run_one(bytes: &[u8]) {
    let (whole, whole_errored) = decode_whole(bytes);

    // Property 3: byte-at-a-time reassembly sees the same frames.
    let mut fb = FrameBuffer::new();
    let mut torn = Vec::new();
    let mut torn_errored = false;
    'feed: for &b in bytes {
        fb.extend(std::slice::from_ref(&b));
        loop {
            match fb.next() {
                Ok(Some(frame)) => torn.push(frame),
                Ok(None) => break,
                Err(_) => {
                    torn_errored = true;
                    break 'feed;
                }
            }
        }
    }
    assert_eq!(whole, torn, "torn reassembly diverged from whole-buffer");
    assert_eq!(whole_errored, torn_errored, "error position diverged");
}

/// Writes the seed corpus: one valid frame of every kind concatenated into
/// a conversation-shaped stream, plus deliberately-broken variants that
/// seed the mutator near the error paths.
fn gen_corpus(dir: &Path) {
    std::fs::create_dir_all(dir).expect("create corpus dir");
    let counters = WindowCounters {
        deliveries: 10,
        executions: 9,
        busy_ns: 9_000,
        delay_ns_total: 10_000,
        delay_ns_max: 5_000,
        delayed: 2,
        reports: 2,
        queries: 1,
    };
    let report = ServerReport {
        server: 1,
        vcpus: 4,
        actor_count: 12,
        mem_bytes: 1 << 30,
        total_speed_bits: 4.0f64.to_bits(),
        net_bps_bits: 1e9f64.to_bits(),
        cpu_bits: 0.85f64.to_bits(),
        mem_bits: 0.4f64.to_bits(),
        net_bits: 0.1f64.to_bits(),
    };
    let conversation = [
        Frame::Hello {
            group: 1,
            wire_version: WIRE_VERSION,
        },
        Frame::Deliver {
            delivery: Delivery {
                server: 0,
                actor: 7,
                bytes: 64,
                remote: false,
            },
            delay_ns: 0,
        },
        Frame::Deliver {
            delivery: Delivery {
                server: 1,
                actor: 8,
                bytes: 128,
                remote: true,
            },
            delay_ns: 5_000,
        },
        Frame::Execute {
            execution: Execution {
                server: 1,
                actor: 8,
                service_ns: 1_000,
            },
        },
        Frame::Report {
            generation: 3,
            report,
        },
        Frame::WindowMark { generation: 3 },
        Frame::WindowAck {
            generation: 3,
            counters,
        },
        Frame::Query {
            query: ControlQuery {
                gem: 0,
                round: 2,
                generation: 3,
                scope: vec![0, 1],
            },
        },
        Frame::QReply {
            reply: ControlReply {
                gem: 0,
                round: 2,
                generation: 3,
                candidates: vec![report],
            },
        },
        Frame::RoundMark { round: 2 },
        Frame::RoundAck { round: 2 },
        Frame::Shutdown,
    ];
    let mut stream = Vec::new();
    for f in &conversation {
        f.encode(&mut stream);
    }
    std::fs::write(dir.join("conversation.bin"), &stream).expect("write seed");

    // A truncated frame (torn mid-payload).
    let deliver = conversation[1].encode_vec();
    std::fs::write(dir.join("torn.bin"), &deliver[..deliver.len() - 3]).expect("write seed");

    // A bad version byte, then a valid frame that must never be reached.
    let mut bad_version = conversation[5].encode_vec();
    bad_version[4] = 0x7F;
    bad_version.extend_from_slice(&Frame::Shutdown.encode_vec());
    std::fs::write(dir.join("bad-version.bin"), &bad_version).expect("write seed");

    // An oversize length prefix.
    let mut oversize = Vec::new();
    oversize.extend_from_slice(&(1u32 << 20).to_be_bytes());
    oversize.extend_from_slice(&[1, 2, 3, 4]);
    std::fs::write(dir.join("oversize.bin"), &oversize).expect("write seed");

    // A length prefix announcing more payload than the kind carries.
    let mut trailing = Frame::Shutdown.encode_vec(); // len=2
    trailing[3] = 6; // claim 4 extra payload bytes
    trailing.extend_from_slice(&[0, 0, 0, 0]);
    std::fs::write(dir.join("trailing.bin"), &trailing).expect("write seed");

    // A Hello whose header version is current but whose negotiated
    // `wire_version` field disagrees — exercises the handshake-mismatch
    // path without tripping the frame decoder itself.
    let stale_hello = Frame::Hello {
        group: 0,
        wire_version: WIRE_VERSION.wrapping_sub(1),
    };
    std::fs::write(dir.join("stale-hello.bin"), stale_hello.encode_vec()).expect("write seed");

    println!("net_frame: corpus written to {}", dir.display());
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("gen-corpus") {
        gen_corpus(&plasma_fuzz::corpus_dir(TARGET.name));
        return;
    }
    plasma_fuzz::run(&TARGET, run_one);
}
