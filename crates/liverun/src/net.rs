//! The one place `liverun` opens a server-side socket.
//!
//! Every live event loop in this crate (`amcastd`'s node loop,
//! `amcoordd`'s server loop) drives a sans-IO state machine and must obey
//! one rule: **state machines never touch a socket, loops never block on
//! one.** A loop that stalls in `connect` or `write` stops its own
//! heartbeats, which its peers read as a failure (§5.1) — a dead
//! neighbour would take the node down with it. The pieces here are what
//! keeps that rule: every socket lives on a thread of its own and talks
//! to the loop through a queue.
//!
//! * [`Listener`] — a bound port whose accept loop can be stopped (and
//!   the port released) from outside.
//! * [`read_frames`] — the body of a reader thread: socket reads →
//!   [`FrameBuf`] → decoded frames handed to a callback.
//! * [`FrameWriter`] — the write half of one accepted connection: a
//!   bounded queue drained by a writer thread that coalesces bursts into
//!   one `write_vectored`.
//! * [`PeerLinks`] — lazily dialled outgoing links to named peers, one
//!   writer thread each; connect retries and back-off happen there.
//! * [`call`] — a one-shot request/response exchange under a deadline,
//!   for the few places that need an answer before they can go on (boot
//!   catch-up, stats scrapes). Never called from a loop thread.
//! * [`free_port_block`] — localhost port reservation for tests and
//!   examples.

use std::collections::HashMap;
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use common::error::{Error, Result, WireError};
use common::ids::NodeId;
use common::obs::Counter;
use common::transport::{encode_frame, FrameBuf};
use common::wire::Wire;
use crossbeam::channel::{bounded, Receiver, Sender};

/// Frames a writer queue holds before it sheds.
const QUEUE_FRAMES: usize = 4096;

/// A listener whose accept loop can be stopped from outside.
pub(crate) struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` and hands every accepted connection to `on_conn` on
    /// a thread called `name`.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot bind or the thread cannot spawn.
    pub(crate) fn bind(
        addr: SocketAddr,
        name: String,
        mut on_conn: impl FnMut(TcpStream) + Send + 'static,
    ) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let join = std::thread::Builder::new().name(name).spawn(move || {
            for stream in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = stream else { break };
                on_conn(stream);
            }
        })?;
        Ok(Listener {
            addr,
            stop,
            join: Some(join),
        })
    }

    /// The bound address (the real port when bound to port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and releases the port: when this returns the same
    /// address can be bound again, in this process or another.
    pub(crate) fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Reads `T` frames off `stream` until it closes, breaks, or `on_frame`
/// returns `false` — the body of a per-connection reader thread.
///
/// # Errors
///
/// Fails on a corrupt stream (oversized length prefix, undecodable
/// body); every frame before the corruption was delivered, nothing of
/// the corrupt one is. The connection should be dropped.
pub(crate) fn read_frames<T: Wire>(
    mut stream: TcpStream,
    mut on_frame: impl FnMut(T) -> bool,
) -> std::result::Result<(), WireError> {
    let mut buf = FrameBuf::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return Ok(()),
            Ok(n) => {
                buf.extend(&chunk[..n]);
                while let Some(frame) = buf.try_next::<T>()? {
                    if !on_frame(frame) {
                        return Ok(());
                    }
                }
            }
        }
    }
}

/// Encodes `first` and whatever is queued behind it into `frames`, up to
/// `max_frames` frames or `max_bytes` bytes. Write coalescing: the burst
/// leaves in one `write_vectored` syscall — no added latency, no copy
/// into a staging buffer, and under load the per-frame write cost
/// amortizes across the burst.
fn gather<T: Wire>(
    first: T,
    rx: &Receiver<T>,
    frames: &mut Vec<Bytes>,
    max_frames: usize,
    max_bytes: usize,
) {
    frames.clear();
    frames.push(encode_frame(&first));
    let mut total = frames[0].len();
    while frames.len() < max_frames && total < max_bytes {
        let Ok(next) = rx.try_recv() else { break };
        let frame = encode_frame(&next);
        total += frame.len();
        frames.push(frame);
    }
}

/// Writes every frame fully with `write_vectored`, rebuilding the slice
/// list from the unwritten remainder after short writes (std's
/// `write_all_vectored` is unstable).
fn write_all_vectored(stream: &mut TcpStream, frames: &[Bytes]) -> std::io::Result<()> {
    let mut idx = 0;
    let mut off = 0;
    while idx < frames.len() {
        let slices: Vec<IoSlice> = std::iter::once(IoSlice::new(&frames[idx][off..]))
            .chain(frames[idx + 1..].iter().map(|f| IoSlice::new(f)))
            .collect();
        let mut n = match stream.write_vectored(&slices) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write frames",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while idx < frames.len() && n >= frames[idx].len() - off {
            n -= frames[idx].len() - off;
            idx += 1;
            off = 0;
        }
        off += n;
    }
    Ok(())
}

/// Write half of one accepted connection.
///
/// Replies must never block the loop that produces them: a client that
/// stops reading fills its TCP window and a blocking write would stall
/// the loop (and with it the node's heartbeats). Frames therefore go
/// through a bounded queue to a dedicated writer thread; when the queue
/// fills, [`FrameWriter::send`] says so and the frame is dropped — the
/// same semantics as the paper's UDP responses, which clients already
/// retry around.
pub(crate) struct FrameWriter<T> {
    tx: Sender<T>,
    depth: Arc<AtomicUsize>,
}

impl<T> Clone for FrameWriter<T> {
    fn clone(&self) -> Self {
        FrameWriter {
            tx: self.tx.clone(),
            depth: Arc::clone(&self.depth),
        }
    }
}

impl<T: Wire + Send + 'static> FrameWriter<T> {
    /// Takes over the write half of `stream`. The writer thread exits
    /// when every handle to the queue is gone or the socket breaks, and
    /// closes the *socket*, not just its fd: the connection's reader
    /// holds a clone, and the remote end must observe EOF when this half
    /// dies. `vectored` counts frames that left in multi-frame bursts.
    pub(crate) fn new(mut stream: TcpStream, vectored: Counter) -> Self {
        let (tx, rx) = bounded::<T>(QUEUE_FRAMES);
        let depth = Arc::new(AtomicUsize::new(0));
        let loop_depth = Arc::clone(&depth);
        std::thread::spawn(move || {
            let mut frames: Vec<Bytes> = Vec::new();
            while let Ok(first) = rx.recv() {
                gather(first, &rx, &mut frames, 64, usize::MAX);
                loop_depth.fetch_sub(frames.len(), Ordering::Relaxed);
                if frames.len() > 1 {
                    vectored.add(frames.len() as u64);
                }
                if write_all_vectored(&mut stream, &frames).is_err() {
                    break;
                }
            }
            let _ = stream.shutdown(std::net::Shutdown::Both);
        });
        FrameWriter { tx, depth }
    }

    /// Queues a frame; `false` when the queue is full (a stalled remote
    /// end) or the writer is gone, and the frame was dropped.
    pub(crate) fn send(&self, frame: T) -> bool {
        let queued = self.tx.try_send(frame).is_ok();
        if queued {
            self.depth.fetch_add(1, Ordering::Relaxed);
        }
        queued
    }

    /// Frames queued behind the writer thread.
    pub(crate) fn queued(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }
}

/// Outgoing links to a fixed set of peers.
///
/// Each peer gets, on first use, a dedicated writer thread owning the
/// socket, fed through a bounded queue; connect retries and back-off
/// happen on the writer thread, and when the queue is full (peer down,
/// backlog grown) frames are dropped — the protocols above absorb the
/// loss with TTL'd circulation, retries and failure detection.
pub(crate) struct PeerLinks<T> {
    name: String,
    addrs: HashMap<NodeId, SocketAddr>,
    links: HashMap<NodeId, Sender<T>>,
    vectored: Counter,
}

impl<T: Wire + Send + 'static> PeerLinks<T> {
    /// Links to the peers in `addrs`; writer threads are called
    /// `<name>-<peer>`. `vectored` counts frames that left in
    /// multi-frame bursts.
    pub(crate) fn new(name: String, addrs: HashMap<NodeId, SocketAddr>, vectored: Counter) -> Self {
        PeerLinks {
            name,
            addrs,
            links: HashMap::new(),
            vectored,
        }
    }

    /// Queues `frame` for `to` and returns at once. Frames to unknown
    /// peers and frames that find the queue full are dropped.
    pub(crate) fn send(&mut self, to: NodeId, frame: T) {
        let Some(addr) = self.addrs.get(&to).copied() else {
            return;
        };
        let link = self.links.entry(to).or_insert_with(|| {
            let (tx, rx) = bounded::<T>(QUEUE_FRAMES);
            let vectored = self.vectored.clone();
            std::thread::Builder::new()
                .name(format!("{}-{}", self.name, to.raw()))
                .spawn(move || peer_writer_loop(addr, rx, vectored))
                .expect("spawn peer writer");
            tx
        });
        let _ = link.try_send(frame);
    }
}

/// Owns the outgoing socket to one peer: connects (with back-off), writes
/// queued frames, reconnects once on a failed write. Exits when the
/// owning [`PeerLinks`] is dropped.
fn peer_writer_loop<T: Wire>(addr: SocketAddr, rx: Receiver<T>, vectored: Counter) {
    let mut conn: Option<TcpStream> = None;
    let mut ever_connected = false;
    let mut frames: Vec<Bytes> = Vec::new();
    loop {
        let Ok(first) = rx.recv() else { return };
        // The byte cap bounds how much a failed write can lose at once
        // (a dropped burst is healed by TTL'd circulation, retries and
        // the value-pull path, but smaller losses heal faster).
        gather(first, &rx, &mut frames, usize::MAX, 64 * 1024);
        if frames.len() > 1 {
            vectored.add(frames.len() as u64);
        }
        // (Re)connect if needed, then write; a failed write drops the
        // socket and retries once with a fresh connection.
        let mut attempts_left = 2;
        while attempts_left > 0 {
            if conn.is_none() {
                match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
                    Ok(s) => {
                        let _ = s.set_nodelay(true);
                        conn = Some(s);
                        ever_connected = true;
                    }
                    Err(_) if !ever_connected => {
                        // The peer has not come up yet (deployment still
                        // launching): HOLD the burst and keep trying —
                        // dropping first-hop Phase 2 traffic here would
                        // leave permanently undecided instances. The
                        // bounded queue sheds load if this goes on.
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    }
                    Err(_) => {
                        // Peer was up and died: drop the burst and back
                        // off; failure detection and gap healing take
                        // over (§5.1–5.2).
                        std::thread::sleep(Duration::from_millis(50));
                        break;
                    }
                }
            }
            if let Some(s) = conn.as_mut() {
                if write_all_vectored(s, &frames).is_ok() {
                    break;
                }
                conn = None;
                attempts_left -= 1;
            }
        }
    }
}

/// One request/response exchange: dials `addr`, sends `req`, and feeds
/// every `Resp` frame that arrives to `pick` until it returns `Some` —
/// all within `timeout`, connect included. Blocks its caller; loop
/// threads hand it to a helper thread.
///
/// # Errors
///
/// Fails if the peer is unreachable, closes the connection, sends a
/// corrupt frame, or `pick` accepts nothing before the deadline.
pub(crate) fn call<Req: Wire, Resp: Wire, R>(
    addr: SocketAddr,
    req: &Req,
    timeout: Duration,
    mut pick: impl FnMut(Resp) -> Option<R>,
) -> Result<R> {
    let deadline = Instant::now() + timeout;
    let mut stream = TcpStream::connect_timeout(&addr, timeout.max(Duration::from_millis(1)))?;
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(Some(timeout.max(Duration::from_millis(1))))?;
    stream.write_all(&encode_frame(req))?;
    let mut buf = FrameBuf::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(Error::Timeout("call: no reply before the deadline"));
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut chunk) {
            Ok(0) => return Err(Error::Timeout("call: connection closed")),
            Ok(n) => {
                buf.extend(&chunk[..n]);
                while let Some(resp) = buf.try_next::<Resp>()? {
                    if let Some(picked) = pick(resp) {
                        return Ok(picked);
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(Error::Io(e)),
        }
    }
}

/// First port [`free_port_block`] may hand out.
const FIRST_PORT: u32 = 10_240;

/// Where the next search starts; blocks handed out by one process never
/// overlap, so tests running on parallel threads cannot share a port.
static NEXT_PORT: Mutex<Option<u32>> = Mutex::new(None);

/// Finds `n` consecutive free localhost ports *below* the kernel's
/// ephemeral range and returns the first. Nothing allocates down there
/// on its own — neither port-0 binds nor the source ports of outgoing
/// connections — so a block found free stays free until its caller binds
/// it (plain port-0 reservation raced exactly there). Every port is
/// test-bound; the search starts at a pid-derived offset so concurrent
/// processes start far apart.
///
/// # Errors
///
/// Fails when no such block exists.
pub fn free_port_block(n: u16) -> std::io::Result<u16> {
    let ephemeral_low = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range")
        .ok()
        .and_then(|r| r.split_whitespace().next()?.parse::<u32>().ok())
        .unwrap_or(32_768);
    let n = u32::from(n.max(1));
    let span = ephemeral_low.saturating_sub(FIRST_PORT);
    let mut next = NEXT_PORT.lock().expect("port cursor lock");
    let start = next.unwrap_or_else(|| std::process::id().wrapping_mul(61) % span.max(1));
    for step in 0..span {
        let offset = (start + step) % span;
        if offset + n > span {
            continue; // a block never wraps around the end of the range
        }
        let base = FIRST_PORT + offset;
        if (base..base + n).all(|port| TcpListener::bind(("127.0.0.1", port as u16)).is_ok()) {
            *next = Some(offset + n);
            return Ok(base as u16);
        }
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::AddrNotAvailable,
        "no free port block below the ephemeral range",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::obs::Obs;

    fn counter() -> Counter {
        Obs::for_node(0).counter("test_vectored")
    }

    fn localhost(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    fn links_to(addr: SocketAddr) -> PeerLinks<Bytes> {
        let addrs = HashMap::from([(NodeId::new(1), addr)]);
        PeerLinks::new("test-link".into(), addrs, counter())
    }

    /// A listener that forwards every frame of every connection.
    fn frame_sink(addr: SocketAddr) -> (Listener, Receiver<Bytes>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let listener = Listener::bind(addr, "test-sink".into(), move |stream| {
            let tx = tx.clone();
            std::thread::spawn(move || read_frames(stream, |f: Bytes| tx.send(f).is_ok()));
        })
        .unwrap();
        (listener, rx)
    }

    #[test]
    fn send_to_a_peer_that_never_reads_does_not_block() {
        // The peer accepts and then sits on the connection: its receive
        // buffer and our send buffer fill, the writer thread blocks in
        // write, the queue fills — and `send` must keep returning.
        let (held_tx, held_rx) = crossbeam::channel::unbounded();
        let peer = Listener::bind(localhost(0), "test-mute".into(), move |stream| {
            let _ = held_tx.send(stream);
        })
        .unwrap();
        let mut links = links_to(peer.addr());
        let frame = Bytes::from(vec![7u8; 1024]);
        let started = Instant::now();
        for _ in 0..100_000 {
            links.send(NodeId::new(1), frame.clone());
        }
        let took = started.elapsed();
        // 100 MB through a socket nobody reads would never finish; shed
        // into a full queue it is a few tens of milliseconds.
        assert!(
            took < Duration::from_secs(5),
            "send blocked on the socket: {took:?}"
        );
        let conn = held_rx.recv_timeout(Duration::from_secs(5));
        assert!(conn.is_ok(), "the writer thread did connect");
        drop(links);
        drop(conn);
        peer.stop();
    }

    #[test]
    fn frames_are_held_until_the_first_connect_and_dropped_after_a_death() {
        let port = free_port_block(1).unwrap();
        let mut links = links_to(localhost(port));
        // Nobody listens yet: the frame waits on the writer thread.
        links.send(NodeId::new(1), Bytes::from_static(b"early"));
        std::thread::sleep(Duration::from_millis(100));
        let (sink, rx) = frame_sink(localhost(port));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Bytes::from_static(b"early"),
            "a frame sent before the peer bound is delivered once it binds"
        );

        // The peer dies: listener gone, accepted socket closed (the sink's
        // reader exits once its channel is dropped and a frame arrives,
        // or on the RST the closed listener's backlog produces).
        sink.stop();
        drop(rx);
        // Sends now hit a dead peer. The first may still land in the old
        // socket's buffer; keep sending until the writer has noticed and
        // gone through its drop-and-back-off path.
        for _ in 0..20 {
            links.send(NodeId::new(1), Bytes::from_static(b"lost"));
            std::thread::sleep(Duration::from_millis(20));
        }
        // Let the writer drain its queue against the dead address.
        std::thread::sleep(Duration::from_millis(300));

        // The peer comes back: only frames sent from now on arrive.
        let (sink, rx) = frame_sink(localhost(port));
        links.send(NodeId::new(1), Bytes::from_static(b"fresh"));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Bytes::from_static(b"fresh"),
            "frames to a peer that was up and died are dropped, not held"
        );
        drop(links);
        sink.stop();
    }

    #[test]
    fn stopped_listener_releases_its_port() {
        let addr = localhost(free_port_block(1).unwrap());
        for round in 0..3 {
            let listener = Listener::bind(addr, "test-rebind".into(), |_| {})
                .unwrap_or_else(|e| panic!("round {round}: rebind failed: {e}"));
            assert_eq!(listener.addr(), addr);
            listener.stop();
        }
    }

    #[test]
    fn corrupt_length_prefix_ends_the_reader_without_a_partial_frame() {
        let (frames_tx, frames_rx) = crossbeam::channel::unbounded();
        let (done_tx, done_rx) = crossbeam::channel::unbounded();
        let listener = Listener::bind(localhost(0), "test-corrupt".into(), move |stream| {
            let frames_tx = frames_tx.clone();
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                let end = read_frames(stream, |f: Bytes| frames_tx.send(f).is_ok());
                let _ = done_tx.send(end);
            });
        })
        .unwrap();
        let mut conn = TcpStream::connect(listener.addr()).unwrap();
        conn.write_all(&encode_frame(&Bytes::from_static(b"good")))
            .unwrap();
        // A ten-byte varint announcing a frame far above the length
        // limit, followed by bytes that must never surface as a frame.
        conn.write_all(&[0xff; 9]).unwrap();
        conn.write_all(&[0x01]).unwrap();
        conn.write_all(b"garbage that is not a frame").unwrap();
        let end = done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(end.is_err(), "the reader reports the corruption: {end:?}");
        let got: Vec<Bytes> = frames_rx.try_iter().collect();
        assert_eq!(got, vec![Bytes::from_static(b"good")]);
        listener.stop();
    }

    #[test]
    fn call_gives_up_at_its_deadline_against_a_silent_server() {
        let (held_tx, held_rx) = crossbeam::channel::unbounded();
        let server = Listener::bind(localhost(0), "test-silent".into(), move |stream| {
            let _ = held_tx.send(stream);
        })
        .unwrap();
        let started = Instant::now();
        let answer: Result<Bytes> = call(
            server.addr(),
            &Bytes::from_static(b"anyone?"),
            Duration::from_millis(300),
            Some,
        );
        let took = started.elapsed();
        assert!(matches!(answer, Err(Error::Timeout(_))), "{answer:?}");
        assert!(
            took >= Duration::from_millis(300) && took < Duration::from_secs(3),
            "deadline not honoured: {took:?}"
        );
        drop(held_rx);
        server.stop();
    }

    #[test]
    fn call_returns_the_first_picked_reply() {
        let server = Listener::bind(localhost(0), "test-echo".into(), |stream| {
            let writer = FrameWriter::new(stream.try_clone().unwrap(), counter());
            std::thread::spawn(move || {
                read_frames(stream, |f: Bytes| {
                    writer.send(Bytes::from_static(b"noise")) && writer.send(f)
                })
            });
        })
        .unwrap();
        let answer = call(
            server.addr(),
            &Bytes::from_static(b"ping"),
            Duration::from_secs(5),
            |r: Bytes| (r == Bytes::from_static(b"ping")).then_some(r),
        );
        assert_eq!(answer.unwrap(), Bytes::from_static(b"ping"));
        server.stop();
    }

    #[test]
    fn port_blocks_do_not_overlap() {
        let a = free_port_block(8).unwrap();
        let b = free_port_block(8).unwrap();
        assert!(a.abs_diff(b) >= 8, "blocks {a} and {b} overlap");
        assert!(u32::from(a) >= FIRST_PORT && u32::from(b) >= FIRST_PORT);
    }
}
