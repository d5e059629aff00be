//! The coordinator side: start workers, multiplex frames, barrier windows.
//!
//! `NetBackend` implements `ExecutionBackend` for both real carriers. At
//! launch it binds an ephemeral localhost listener, starts one worker per
//! server *group* — a `plasma-server` process under net, an OS thread
//! running the same [`worker::run`](crate::worker::run) loop under live —
//! and waits for each to connect and identify itself with a `Hello` frame.
//! Servers map onto groups by `server % groups`, so every server's frames
//! ride exactly one FIFO TCP connection — the ordering property the
//! exactly-once barrier argument needs — while one connection multiplexes
//! the carriage of many servers. Past launch the two hosts share every
//! line: the only fork is [`Host`], which checks for a worker that died
//! during launch and reaps workers at shutdown.
//!
//! Every frame is encoded straight into its connection's output buffer,
//! which goes to the socket in one write once it holds [`OUT_FLUSH`] bytes
//! and at every barrier and query, so carriage costs one syscall per
//! ~64 KiB rather than one per message, and one copy of each frame. The
//! coordinator tallies every frame it writes in one [`WindowCounters`], as
//! each worker does for what its connection reads. Barriers are
//! synchronous request/response: the coordinator buffers the mark behind
//! the window's frames, writes them out, then blocks (with a timeout) for
//! each worker's ack, sums the returned counters, and compares the sum
//! with its tally field by field — any loss or duplication is a
//! `window_mismatches` increment, and the runtime stops the run on it. A
//! query that some asked group leaves unanswered stops the run the same
//! way.
//!
//! Nothing a worker returns feeds back into logical scheduling: the wire is
//! a carrier and a measurement side-channel, which is why a same-seed run
//! serializes to byte-identical BENCH JSON under sim, live, and net.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use plasma_backend::{
    BackendKind, BackendStats, ControlQuery, ControlReply, Delivery, Execution, ExecutionBackend,
    ServerReport,
};

use crate::frame::{Frame, FrameBuffer, WindowCounters, WIRE_VERSION};
use crate::worker::WorkerExit;

/// How long launch waits for all workers to connect and hello.
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(20);
/// How long a barrier waits for one worker ack. Generous: a worker only
/// does counter arithmetic per frame.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);
/// How long shutdown waits for a worker process to exit before killing it.
/// Worker threads cannot be killed; closing their socket ends them.
const EXIT_TIMEOUT: Duration = Duration::from_secs(5);
/// Bytes a connection buffers before it writes them to its socket.
const OUT_FLUSH: usize = 64 * 1024;

/// Configuration for [`NetBackend::launch`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Worker groups to start (processes under [`NetBackend::launch`],
    /// threads under [`NetBackend::launch_threads`]); servers map onto
    /// them by `server % groups`. Must be at least 1.
    pub groups: u32,
    /// Path to the `plasma-server` binary. `None` resolves via
    /// [`locate_worker`] (the `PLASMA_SERVER_BIN` environment variable,
    /// then the directory of the current executable and its parent).
    pub worker_bin: Option<PathBuf>,
}

impl Default for NetConfig {
    /// Two groups — the smallest topology that actually crosses process
    /// boundaries between servers — with the worker binary auto-located.
    fn default() -> Self {
        NetConfig {
            groups: 2,
            worker_bin: None,
        }
    }
}

/// Finds the `plasma-server` worker binary.
///
/// Resolution order: the `PLASMA_SERVER_BIN` environment variable, then a
/// binary named `plasma-server` next to the current executable, then in
/// its parent directory (test binaries live in `target/<profile>/deps/`,
/// one level below the bins cargo builds for the same profile).
pub fn locate_worker() -> std::io::Result<PathBuf> {
    if let Ok(p) = std::env::var("PLASMA_SERVER_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("PLASMA_SERVER_BIN={} does not exist", p.display()),
        ));
    }
    let name = format!("plasma-server{}", std::env::consts::EXE_SUFFIX);
    let exe = std::env::current_exe()?;
    let mut dirs: Vec<&Path> = Vec::new();
    if let Some(d) = exe.parent() {
        dirs.push(d);
        if let Some(dd) = d.parent() {
            dirs.push(dd);
        }
    }
    for d in &dirs {
        let candidate = d.join(&name);
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        format!(
            "cannot find `{name}` near {} (build it with `cargo build -p plasma-net` \
             or point PLASMA_SERVER_BIN at it)",
            exe.display()
        ),
    ))
}

/// Rejects a topology with no worker group.
fn check_groups(groups: u32) -> std::io::Result<()> {
    if groups < 1 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("NetConfig.groups = {groups} is invalid: at least 1 worker group is required"),
        ));
    }
    Ok(())
}

/// Reads and validates a worker's `Hello` from `r`, returning the
/// announced group.
///
/// The negotiation half of the version handshake: a worker speaking a
/// different wire version fails here with a clean error naming both
/// versions — whether the mismatch surfaces as a `BadVersion` on the
/// frame header (older workers) or as a mismatched version field inside
/// the Hello payload itself. Leftover bytes stay in `fb` for the caller.
pub(crate) fn read_hello(r: &mut dyn Read, fb: &mut FrameBuffer) -> std::io::Result<u32> {
    let mut chunk = [0u8; 256];
    loop {
        match fb.next() {
            Ok(Some(Frame::Hello {
                group,
                wire_version,
            })) => {
                if wire_version != WIRE_VERSION {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "wire version mismatch in handshake: worker speaks \
                             v{wire_version}, coordinator speaks v{WIRE_VERSION}"
                        ),
                    ));
                }
                return Ok(group);
            }
            Ok(Some(other)) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("expected Hello, got {other:?}"),
                ));
            }
            Ok(None) => {}
            Err(e) => return Err(crate::worker::decode_failure(e)),
        }
        let n = r.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        fb.extend(&chunk[..n]);
    }
}

/// What runs one group's worker loop: a `plasma-server` child process
/// (net) or an OS thread of this process (live). Past launch both speak
/// the same frames over the same loopback connection; the host only
/// matters for noticing a worker that died during launch and for reaping.
enum Host {
    Process(Child),
    /// `None` once joined.
    Thread(Option<JoinHandle<std::io::Result<WorkerExit>>>),
}

impl Host {
    /// Why the worker has already ended, or `None` while it runs.
    fn exited(&mut self) -> Option<String> {
        match self {
            Host::Process(child) => child.try_wait().ok().flatten().map(|s| s.to_string()),
            Host::Thread(handle) => {
                if !handle.as_ref().is_some_and(JoinHandle::is_finished) {
                    return None;
                }
                Some(match handle.take().expect("finished handle").join() {
                    Ok(Ok(exit)) => format!("{exit:?}"),
                    Ok(Err(e)) => e.to_string(),
                    Err(_) => "worker thread panicked".to_string(),
                })
            }
        }
    }

    /// Waits for the worker to end. A process still running after `grace`
    /// is killed; a thread is joined (its socket must already be closed).
    fn reap(&mut self, grace: Duration) {
        match self {
            Host::Process(child) => {
                let deadline = Instant::now() + grace;
                while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(5));
                }
                let _ = child.kill();
                let _ = child.wait();
            }
            Host::Thread(handle) => {
                if let Some(h) = handle.take() {
                    let _ = h.join();
                }
            }
        }
    }

    fn pid(&self) -> u32 {
        match self {
            Host::Process(child) => child.id(),
            Host::Thread(_) => std::process::id(),
        }
    }
}

/// Accepts one connection per host until every group said hello, pairing
/// streams to groups by the Hello payload, not accept order.
fn accept_hellos(
    listener: &TcpListener,
    hosts: &mut [Host],
) -> std::io::Result<Vec<(TcpStream, FrameBuffer)>> {
    let deadline = Instant::now() + LAUNCH_TIMEOUT;
    let mut slots: Vec<Option<(TcpStream, FrameBuffer)>> = hosts.iter().map(|_| None).collect();
    let mut pending = hosts.len();
    while pending > 0 {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(ACK_TIMEOUT))?;
                let mut fb = FrameBuffer::new();
                let group = {
                    let mut rd = &stream;
                    read_hello(&mut rd, &mut fb)?
                };
                let slot = slots.get_mut(group as usize).ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("worker announced out-of-range group {group}"),
                    )
                })?;
                if slot.is_some() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("two workers announced group {group}"),
                    ));
                }
                *slot = Some((stream, fb));
                pending -= 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        format!("{pending} worker(s) never connected"),
                    ));
                }
                // A worker that died before connecting would hang the
                // accept loop to the deadline; fail fast instead.
                for host in hosts.iter_mut() {
                    if let Some(why) = host.exited() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::BrokenPipe,
                            format!("worker exited during launch: {why}"),
                        ));
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("all slots filled"))
        .collect())
}

/// One worker connection: its host plus its FIFO TCP stream.
struct Conn {
    host: Host,
    /// The socket: frames go out and replies come back on it.
    stream: TcpStream,
    /// Encoded frames not yet written to `stream`.
    out: Vec<u8>,
    /// Reply bytes read from `stream` and not yet decoded.
    rbuf: FrameBuffer,
    rchunk: Box<[u8; 16 * 1024]>,
    /// Cleared when a write/read fails; a dead conn fails barriers and
    /// queries instead of wedging them.
    alive: bool,
}

impl Conn {
    /// Writes everything in `out` to the socket. A failed write marks the
    /// conn dead; what it held is dropped either way.
    fn write_out(&mut self) {
        if self.alive && !self.out.is_empty() && self.stream.write_all(&self.out).is_err() {
            self.alive = false;
        }
        self.out.clear();
    }

    /// Reads one frame, blocking up to the stream's read timeout, and
    /// returns it with its encoded length in bytes.
    fn read_frame(&mut self) -> std::io::Result<(Frame, u64)> {
        loop {
            let before = self.rbuf.pending();
            match self.rbuf.next() {
                Ok(Some(f)) => return Ok((f, (before - self.rbuf.pending()) as u64)),
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ))
                }
            }
            let n = self.stream.read(&mut self.rchunk[..])?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.rbuf.extend(&self.rchunk[..n]);
        }
    }
}

/// The real carrier behind both `--backend net` and `--backend live`:
/// starts one worker per server group (a `plasma-server` process or a
/// thread), multiplexes carriage frames over per-group localhost TCP
/// connections, and verifies exactly-once carriage at window/round
/// barriers. See the `backend` module source for the full protocol
/// walkthrough.
pub struct NetBackend {
    kind: BackendKind,
    conns: Vec<Conn>,
    stats: BackendStats,
    /// What this window wrote to every connection: the tally the workers'
    /// acks must sum to.
    sent: WindowCounters,
    /// Injected chaos transport delay stamped onto remote deliveries, ns.
    link_delay_ns: u64,
    /// Frames written since the last fully-acked barrier.
    inflight: u64,
    shut: bool,
}

impl NetBackend {
    /// Spawns one `plasma-server` process per group and waits for all of
    /// them to connect and complete the Hello version handshake.
    pub fn launch(cfg: NetConfig) -> std::io::Result<NetBackend> {
        check_groups(cfg.groups)?;
        let bin = match &cfg.worker_bin {
            Some(p) => p.clone(),
            None => locate_worker()?,
        };
        Self::start(BackendKind::Net, cfg.groups, |addr, group| {
            Command::new(&bin)
                .arg("--connect")
                .arg(addr)
                .arg("--group")
                .arg(group.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map(Host::Process)
                .map_err(|e| {
                    std::io::Error::new(
                        e.kind(),
                        format!("spawning {} for group {group}: {e}", bin.display()),
                    )
                })
        })
    }

    /// Runs each group's [`worker::run`](crate::worker::run) loop on an OS
    /// thread of this process instead of a `plasma-server` process — the
    /// live carrier. It needs no worker binary; the loopback connection,
    /// handshake, framing and barriers are the process host's.
    pub fn launch_threads(groups: u32) -> std::io::Result<NetBackend> {
        check_groups(groups)?;
        Self::start(BackendKind::Live, groups, |addr, group| {
            let addr = addr.to_string();
            std::thread::Builder::new()
                .name(format!("plasma-group-{group}"))
                .spawn(move || crate::worker::run(&addr, group))
                .map(|h| Host::Thread(Some(h)))
        })
    }

    /// Binds the loopback listener, starts one worker per group with
    /// `spawn(addr, group)`, and completes every handshake.
    fn start(
        kind: BackendKind,
        groups: u32,
        mut spawn: impl FnMut(&str, u32) -> std::io::Result<Host>,
    ) -> std::io::Result<NetBackend> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        listener.set_nonblocking(true)?;
        let mut hosts: Vec<Host> = Vec::with_capacity(groups as usize);
        let accepted = (0..groups)
            .try_for_each(|group| {
                hosts.push(spawn(&addr, group)?);
                Ok(())
            })
            .and_then(|()| accept_hellos(&listener, &mut hosts));
        // Closing the listener first fails any worker still queued in its
        // backlog, so a failed launch can join its threads.
        drop(listener);
        let streams = match accepted {
            Ok(streams) => streams,
            Err(e) => {
                for host in &mut hosts {
                    host.reap(Duration::ZERO);
                }
                return Err(e);
            }
        };

        let mut conns = Vec::with_capacity(hosts.len());
        for (host, (stream, rbuf)) in hosts.into_iter().zip(streams) {
            conns.push(Conn {
                host,
                stream,
                // One data frame past the threshold never regrows it.
                out: Vec::with_capacity(OUT_FLUSH + 64),
                rbuf,
                rchunk: Box::new([0u8; 16 * 1024]),
                alive: true,
            });
        }
        let stats = BackendStats {
            workers_spawned: u64::from(groups),
            ..BackendStats::default()
        };
        Ok(NetBackend {
            kind,
            conns,
            stats,
            sent: WindowCounters::default(),
            link_delay_ns: 0,
            inflight: 0,
            shut: false,
        })
    }

    /// OS process ids hosting each group's worker: distinct `plasma-server`
    /// processes under net, this process under live.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.conns.iter().map(|c| c.host.pid()).collect()
    }

    /// Stops the carrier: sends every worker a `Shutdown`, closes the
    /// sockets and reaps the workers. Idempotent; dropping the backend
    /// calls it.
    pub fn shutdown(&mut self) {
        if self.shut {
            return;
        }
        self.shut = true;
        for g in 0..self.conns.len() {
            self.send(g, &Frame::Shutdown);
        }
        self.flush_all();
        for conn in &mut self.conns {
            // Closing our copies of the socket unblocks a worker stuck in
            // read even if the Shutdown frame never made it out.
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            conn.host.reap(EXIT_TIMEOUT);
        }
    }

    fn group_of(&self, server: u32) -> usize {
        (server as usize) % self.conns.len()
    }

    /// Encodes one frame into `group`'s output buffer, writing the buffer
    /// to the socket once it holds [`OUT_FLUSH`] bytes, and tallies it.
    /// Returns whether the frame was accepted (the conn was alive and any
    /// write succeeded).
    fn send(&mut self, group: usize, frame: &Frame) -> bool {
        let conn = &mut self.conns[group];
        if !conn.alive {
            return false;
        }
        let at = conn.out.len();
        frame.encode(&mut conn.out);
        let bytes = (conn.out.len() - at) as u64;
        if conn.out.len() >= OUT_FLUSH {
            conn.write_out();
            if !conn.alive {
                return false;
            }
        }
        self.sent.count(frame);
        self.stats.frames_sent += 1;
        self.stats.wire_bytes_sent += bytes;
        if matches!(frame, Frame::Report { .. } | Frame::Query { .. }) {
            self.stats.control_wire_bytes += bytes;
        }
        self.inflight += 1;
        self.stats.max_inflight_frames = self.stats.max_inflight_frames.max(self.inflight);
        true
    }

    /// Writes every connection's output buffer to its socket.
    fn flush_all(&mut self) {
        for conn in &mut self.conns {
            conn.write_out();
        }
    }

    /// Reads one reply frame from `group` and returns it with its encoded
    /// length, accounting received bytes. A failure (timeout, EOF,
    /// malformed frame) marks the conn dead.
    fn recv(&mut self, group: usize) -> Option<(Frame, u64)> {
        let conn = &mut self.conns[group];
        if !conn.alive {
            return None;
        }
        match conn.read_frame() {
            Ok((frame, bytes)) => {
                self.stats.frames_received += 1;
                self.stats.wire_bytes_received += bytes;
                Some((frame, bytes))
            }
            Err(_) => {
                conn.alive = false;
                None
            }
        }
    }

    /// Writes `mark` to every worker and reads one ack from each, which
    /// `ack` accepts or rejects. Returns whether every worker acked.
    fn barrier(&mut self, mark: &Frame, mut ack: impl FnMut(Frame) -> bool) -> bool {
        let mut complete = true;
        for g in 0..self.conns.len() {
            complete &= self.send(g, mark);
        }
        self.flush_all();
        for g in 0..self.conns.len() {
            complete &= self.recv(g).is_some_and(|(frame, _)| ack(frame));
        }
        if complete {
            self.inflight = 0;
        }
        complete
    }
}

impl ExecutionBackend for NetBackend {
    fn kind(&self) -> BackendKind {
        self.kind
    }

    fn transmit(&mut self, d: Delivery) {
        let delay_ns = if d.remote { self.link_delay_ns } else { 0 };
        let group = self.group_of(d.server);
        self.send(
            group,
            &Frame::Deliver {
                delivery: d,
                delay_ns,
            },
        );
        self.stats.deliveries += 1;
    }

    fn execute(&mut self, e: Execution) {
        let group = self.group_of(e.server);
        self.send(group, &Frame::Execute { execution: e });
        self.stats.executions += 1;
    }

    fn window_close(&mut self, generation: u64) -> bool {
        let mut sum = WindowCounters::default();
        let acked = self.barrier(&Frame::WindowMark { generation }, |ack| match ack {
            Frame::WindowAck {
                generation: echoed,
                counters,
            } if echoed == generation => {
                sum.fold(&counters);
                true
            }
            _ => false,
        });
        let sent = std::mem::take(&mut self.sent);
        let matched = acked && sum == sent;
        if !matched {
            self.stats.window_mismatches += 1;
        }
        // Injected chaos delay is the net transport's deterministic
        // latency side-channel (there is no shared wall clock between
        // processes to measure real one-way latency against).
        self.stats.channel_ns_total += sum.delay_ns_total;
        self.stats.channel_ns_max = self.stats.channel_ns_max.max(sum.delay_ns_max);
        self.stats.channel_samples += sum.delayed;
        matched
    }

    fn round_barrier(&mut self, round: u64) -> bool {
        let acked = self.barrier(
            &Frame::RoundMark { round },
            |ack| matches!(ack, Frame::RoundAck { round: echoed } if echoed == round),
        );
        if !acked {
            self.stats.window_mismatches += 1;
        }
        acked
    }

    fn link_delay(&mut self, extra_ns: u64) {
        self.link_delay_ns = extra_ns;
    }

    fn publish_report(&mut self, generation: u64, report: &ServerReport) {
        let group = self.group_of(report.server);
        self.send(
            group,
            &Frame::Report {
                generation,
                report: *report,
            },
        );
    }

    fn query(&mut self, query: &ControlQuery) -> Option<Vec<ControlReply>> {
        self.stats.control_queries += 1;
        // One copy of the query per group owning a scope server, in
        // ascending group order; QReplies are read back synchronously in
        // the same order. TCP FIFO plus one-reply-per-query makes the
        // pairing deterministic, so reply order never depends on worker
        // scheduling.
        let groups: BTreeSet<usize> = query.scope.iter().map(|&s| self.group_of(s)).collect();
        let frame = Frame::Query {
            query: query.clone(),
        };
        for &g in &groups {
            self.send(g, &frame);
        }
        self.flush_all();
        let mut replies = Vec::with_capacity(groups.len());
        let mut answered = true;
        for g in groups {
            // A group whose send failed is dead, so `recv` reads nothing.
            match self.recv(g) {
                Some((Frame::QReply { reply }, bytes))
                    if (reply.gem, reply.round, reply.generation)
                        == (query.gem, query.round, query.generation) =>
                {
                    self.stats.control_wire_bytes += bytes;
                    self.stats.control_replies += 1;
                    replies.push(reply);
                }
                _ => answered = false,
            }
        }
        answered.then_some(replies)
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }
}

impl Drop for NetBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn read_hello_accepts_matching_version() {
        let bytes = Frame::Hello {
            group: 3,
            wire_version: WIRE_VERSION,
        }
        .encode_vec();
        let mut r = Cursor::new(bytes);
        let mut fb = FrameBuffer::new();
        assert_eq!(read_hello(&mut r, &mut fb).unwrap(), 3);
    }

    #[test]
    fn read_hello_rejects_old_header_version() {
        // A v1 worker's Hello: header version 1, payload just the group
        // (v1 had no version field). v2, v3 and v4 workers' Hellos, byte
        // for byte what those `plasma-server`s send: header version, group
        // 9, and their own version field. All must fail as a named version
        // mismatch before any payload parsing.
        let mut v1 = vec![0, 0, 0, 6, 1, 0x01];
        v1.extend(9u32.to_be_bytes());
        let v2 = vec![0, 0, 0, 7, 2, 0x01, 0, 0, 0, 9, 2];
        let v3 = vec![0, 0, 0, 7, 3, 0x01, 0, 0, 0, 9, 3];
        let v4 = vec![0, 0, 0, 7, 4, 0x01, 0, 0, 0, 9, 4];
        for (bytes, old) in [(v1, "v1"), (v2, "v2"), (v3, "v3"), (v4, "v4")] {
            let mut r = Cursor::new(bytes);
            let mut fb = FrameBuffer::new();
            let err = read_hello(&mut r, &mut fb).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains("wire version mismatch")
                    && msg.contains(&format!("peer speaks {old},"))
                    && msg.contains(&format!("v{WIRE_VERSION}")),
                "got: {msg}"
            );
        }
    }

    #[test]
    fn read_hello_rejects_mismatched_hello_field() {
        // Header version matches but the Hello's announced version does
        // not — the negotiation field, not the codec, catches this one.
        let bytes = Frame::Hello {
            group: 0,
            wire_version: WIRE_VERSION + 1,
        }
        .encode_vec();
        let mut r = Cursor::new(bytes);
        let mut fb = FrameBuffer::new();
        let err = read_hello(&mut r, &mut fb).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err
            .to_string()
            .contains("wire version mismatch in handshake"));
    }

    #[test]
    fn read_hello_rejects_non_hello_frame() {
        let bytes = Frame::Shutdown.encode_vec();
        let mut r = Cursor::new(bytes);
        let mut fb = FrameBuffer::new();
        let err = read_hello(&mut r, &mut fb).unwrap_err();
        assert!(err.to_string().contains("expected Hello"));
    }

    #[test]
    fn zero_groups_is_rejected_at_launch() {
        let cfg = NetConfig {
            groups: 0,
            worker_bin: None,
        };
        for launched in [NetBackend::launch(cfg), NetBackend::launch_threads(0)] {
            let err = match launched {
                Err(e) => e,
                Ok(_) => panic!("groups = 0 must be rejected"),
            };
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains("at least 1 worker group"));
        }
    }
}
