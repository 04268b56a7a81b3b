//! The one place `liverun` opens a socket, and the readiness loop every
//! live event loop waits in.
//!
//! Every live event loop in this crate (the node loop that `amcastd`
//! and `amcoordd` both run) and the network client obey one rule:
//! **state machines never touch a socket, and nothing sits on a socket
//! in a thread of its own.** A loop that stalls in `connect` or `write`
//! stops its own heartbeats, which its peers read as a failure (§5.1) —
//! a dead neighbour would take the node down with it. [`Net`] keeps that
//! rule by construction: every socket it owns is non-blocking, and the
//! thread that owns the `Net` waits on all of them in one
//! `epoll_pwait2(2)`, so a frame is read, handled and answered on one
//! thread with no hand-off. A turn's system calls cost what is ready,
//! not what is open: each socket joins the `Net`'s epoll set once, and a
//! turn reads or writes only the sockets that are ready or have frames
//! queued.
//!
//! * [`Net`] — the sockets of one loop: its listeners, the connections
//!   they accepted or it dialled (read until they would block, then
//!   split into [`Event::Frame`]s) and lazily dialled links to named
//!   peers, which are write-only unless given a reader (the coordination
//!   link). Every connection has a bounded outbound buffer that sheds
//!   when full, and write interest is armed only while a flush has left
//!   bytes behind; a turn's frames leave in one `write_vectored` per
//!   connection. On a geo deployment a link or an accepted connection
//!   may be shaped: what crosses it waits in a [`Pipe`] of
//!   [`crate::netem`] until its release time, and a turn never sleeps
//!   past the next one.
//! * [`Mailer`] — how another thread reaches a loop: a channel plus a
//!   wake-up socket in the loop's epoll set beside its network sockets.
//! * [`spawn_loop`] — starts a loop thread.
//! * [`call`] — a one-shot request/response exchange under a deadline,
//!   for the few places that need an answer before they can go on
//!   (stats scrapes). Never called from a loop thread.
//! * [`free_port_block`] — localhost port reservation for tests and
//!   examples.

use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::c_int;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use common::error::{Error, Result, WireError};
use common::obs::Counter;
use common::transport::{encode_frame, FrameBuf};
use common::wire::Wire;
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::netem::Pipe;

/// Frames a connection's outbound buffer (or a link's hold queue) keeps
/// before it sheds.
const QUEUE_FRAMES: usize = 4096;

/// Frames one `write_vectored` call carries at most.
const WRITE_BURST: usize = 64;

/// Pause before re-dialling a peer that has never answered (the
/// deployment is still launching)...
const DIAL_RETRY: Duration = Duration::from_millis(20);

/// ...and after a peer that was up has stopped answering.
const DIAL_BACKOFF: Duration = Duration::from_millis(50);

/// Ready sockets one wait reports at most; the rest stay ready for the
/// next.
const READY_MAX: usize = 256;

/// `epoll(7)`, declared by hand: std has no readiness wait and neither
/// `libc` nor `mio` is vendored. The wait is `epoll_pwait2` (Linux 5.11,
/// glibc 2.35) because its timeout is a `timespec`: a timer due in
/// 300 µs waits 300 µs, neither rounded up to a millisecond nor spun for.
mod sys {
    use std::os::raw::{c_int, c_long, c_void};

    /// `struct epoll_event`, which the kernel packs on x86-64.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CLOEXEC: c_int = 0o2_000_000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_MOD: c_int = 3;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_pwait2(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
}

/// A new, empty epoll set.
fn epoll_create() -> std::io::Result<OwnedFd> {
    // SAFETY: no pointers are passed.
    let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
    if fd < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // SAFETY: `fd` was just opened, and nothing else owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// Adds `fd` to `epoll` (`EPOLL_CTL_ADD`), or changes what it waits for
/// (`EPOLL_CTL_MOD`); its events carry `token`.
fn epoll_ctl(
    epoll: &OwnedFd,
    op: c_int,
    fd: RawFd,
    interest: u32,
    token: u64,
) -> std::io::Result<()> {
    let mut event = sys::EpollEvent {
        events: interest,
        data: token,
    };
    // SAFETY: `event` outlives the call, which only reads it.
    if unsafe { sys::epoll_ctl(epoll.as_raw_fd(), op, fd, &mut event) } < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// Waits until a socket in `epoll` is ready or `timeout` passes, and
/// returns how many of `ready` it filled.
fn epoll_wait(
    epoll: &OwnedFd,
    ready: &mut [sys::EpollEvent],
    timeout: Duration,
) -> std::io::Result<usize> {
    let ts = sys::Timespec {
        tv_sec: timeout.as_secs().min(3600) as _,
        tv_nsec: timeout.subsec_nanos() as _,
    };
    // SAFETY: `ready` is a live, exclusively borrowed array of
    // `ready.len()` events, `ts` outlives the call, and a null mask
    // leaves the thread's signal mask alone.
    let n = unsafe {
        sys::epoll_pwait2(
            epoll.as_raw_fd(),
            ready.as_mut_ptr(),
            ready.len() as _,
            &ts,
            std::ptr::null(),
        )
    };
    usize::try_from(n).map_err(|_| std::io::Error::last_os_error())
}

/// A connection's handle within its [`Net`], and its epoll token. Ids
/// count up from 1 and are never reused, so they stay below the tokens
/// reserved for the wake-up socket and the listeners.
pub(crate) type ConnId = u64;

/// The wake-up socket's token.
const WAKE: u64 = u64::MAX;

/// Listener `i`'s token is `LISTENER + i`.
const LISTENER: u64 = 1 << 63;

/// How a listened or dialled connection's bytes become [`Event::Frame`]s:
/// splits one decoded frame off its buffer.
pub(crate) type Reader<In> = fn(&mut FrameBuf) -> std::result::Result<Option<In>, WireError>;

/// What one [`Net::wait`] turn produced, in arrival order per connection.
pub(crate) enum Event<In, M> {
    /// The listener bound at the address accepted a connection.
    Accepted(ConnId, SocketAddr),
    /// What a listened or dialled connection delivered.
    Frame(ConnId, In),
    /// A connection with a reader is gone — the peer closed it, it broke,
    /// it sent a corrupt frame (every frame before it was delivered), or
    /// its shaping cut it. Not reported for [`Net::close`].
    Closed(ConnId),
    /// A link given a reader ([`Net::read_link`]) lost its connection or
    /// failed to dial; what it held is dropped. Not reported for
    /// [`Net::hang_up`].
    LinkDown(SocketAddr),
    /// A message another thread [`Mailer::post`]ed.
    Mail(M),
}

enum Mail<M> {
    Post(M),
    /// A dial helper's outcome.
    Dialed(SocketAddr, std::io::Result<TcpStream>),
}

/// The loop's end of its wake-up socket pair, shared by every [`Mailer`].
struct Wake {
    tx: UnixStream,
    /// A wake byte is in flight; the loop disarms before it drains.
    armed: AtomicBool,
}

/// Another thread's way into a loop — a node's shutdown, the dial
/// helper's result. Cheap to clone.
pub(crate) struct Mailer<M> {
    tx: Sender<Mail<M>>,
    wake: Arc<Wake>,
}

impl<M> Clone for Mailer<M> {
    fn clone(&self) -> Self {
        Mailer {
            tx: self.tx.clone(),
            wake: Arc::clone(&self.wake),
        }
    }
}

impl<M> Mailer<M> {
    /// Queues `msg` for the loop and wakes it; `false` once the loop has
    /// stopped.
    pub(crate) fn post(&self, msg: M) -> bool {
        self.deliver(Mail::Post(msg))
    }

    fn deliver(&self, mail: Mail<M>) -> bool {
        if self.tx.send(mail).is_err() {
            return false;
        }
        if !self.wake.armed.swap(true, Ordering::SeqCst) {
            let _ = (&self.wake.tx).write(&[1]);
        }
        true
    }
}

struct Conn<In> {
    stream: TcpStream,
    /// `None` on a link: whatever the peer says is discarded.
    reader: Option<Reader<In>>,
    /// What the epoll set waits on it for: reads, and writes while a
    /// flush has left bytes behind.
    interest: u32,
    rbuf: FrameBuf,
    out: VecDeque<Bytes>,
    /// Bytes of `out.front()` already written.
    sent: usize,
    /// The link this connection was dialled for.
    link: Option<SocketAddr>,
    /// An accepted connection's shaping: what it reads, then what it
    /// sends.
    pipes: Option<(Pipe, Pipe)>,
}

impl<In> Conn<In> {
    /// Turns `bit` of its interest on or off, with an `epoll_ctl` only
    /// when that changes it. A socket whose interest cannot change is
    /// shut down: a hang-up is reported whatever the interest, so the
    /// next turn reads its end and drops it, and the peer sees a close
    /// rather than a stall.
    fn watch(&mut self, epoll: &OwnedFd, id: ConnId, bit: u32, on: bool) {
        let interest = (self.interest & !bit) | if on { bit } else { 0 };
        if interest == self.interest {
            return;
        }
        let fd = self.stream.as_raw_fd();
        match epoll_ctl(epoll, sys::EPOLL_CTL_MOD, fd, interest, id) {
            Ok(()) => self.interest = interest,
            Err(_) => self.cut(),
        }
    }

    /// Shuts the socket down: a hang-up is reported whatever the
    /// interest, so the next turn reads its end and drops it.
    fn cut(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Splits every complete frame off the read buffer into `events`;
    /// `false` at a corrupt frame (every frame before it was delivered).
    fn decode<M>(&mut self, id: ConnId, events: &mut Vec<Event<In, M>>) -> bool {
        let Some(decode) = self.reader else {
            return true;
        };
        loop {
            match decode(&mut self.rbuf) {
                Ok(Some(frame)) => events.push(Event::Frame(id, frame)),
                Ok(None) => return true,
                Err(_) => return false,
            }
        }
    }
}

/// An outgoing link to one peer address.
#[derive(Default)]
struct Link {
    conn: Option<ConnId>,
    /// Frames waiting for a connection.
    held: VecDeque<Bytes>,
    /// The dial helper, while one is out.
    dial: Option<JoinHandle<()>>,
    /// The peer has answered at least once.
    ever: bool,
    /// No dial before this.
    retry_at: Option<Instant>,
    /// A shaped link's delay line, which frames pass before they queue.
    pipe: Option<Pipe>,
}

/// The sockets of one loop, all non-blocking, all waited on by the loop
/// thread itself in [`Net::wait`].
pub(crate) struct Net<In, M> {
    listeners: Vec<(TcpListener, SocketAddr, Reader<In>)>,
    conns: HashMap<ConnId, Conn<In>>,
    links: HashMap<SocketAddr, Link>,
    /// How the links given a reader are read; the rest discard what
    /// their peer says.
    link_readers: HashMap<SocketAddr, Reader<In>>,
    /// Every socket above and the wake-up socket, each added once; a
    /// closed socket leaves it by closing.
    epoll: OwnedFd,
    /// What one wait found ready.
    ready: Vec<sys::EpollEvent>,
    next_id: ConnId,
    rx: Receiver<Mail<M>>,
    mailer: Mailer<M>,
    wake_rx: UnixStream,
    /// Thread name of the dial helpers.
    dialer: String,
    /// Frames that left in a multi-frame write.
    vectored: Counter,
    chunk: Vec<u8>,
    /// The earliest release time of any pipe, while one holds bytes.
    release_at: Option<Instant>,
}

impl<In, M: Send + 'static> Net<In, M> {
    /// An empty set of sockets. Dial helpers are called `dialer`;
    /// `vectored` counts frames that left in multi-frame writes.
    ///
    /// # Errors
    ///
    /// Fails if the wake-up socket pair or the epoll set cannot be made,
    /// or the kernel cannot wait on it (`epoll_pwait2` is Linux ≥ 5.11).
    pub(crate) fn new(dialer: String, vectored: Counter) -> std::io::Result<Self> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let epoll = epoll_create()?;
        let wake_fd = wake_rx.as_raw_fd();
        epoll_ctl(&epoll, sys::EPOLL_CTL_ADD, wake_fd, sys::EPOLLIN, WAKE)?;
        let mut ready = vec![sys::EpollEvent { events: 0, data: 0 }; READY_MAX];
        epoll_wait(&epoll, &mut ready, Duration::ZERO)?;
        let (tx, rx) = unbounded();
        let wake = Arc::new(Wake {
            tx: wake_tx,
            armed: AtomicBool::new(false),
        });
        Ok(Net {
            listeners: Vec::new(),
            conns: HashMap::new(),
            links: HashMap::new(),
            link_readers: HashMap::new(),
            epoll,
            ready,
            next_id: 0,
            rx,
            mailer: Mailer { tx, wake },
            wake_rx,
            dialer,
            vectored,
            chunk: vec![0; 64 * 1024],
            release_at: None,
        })
    }

    /// Binds `addr` (also while the loop runs); accepted connections are
    /// read with `reader`. Returns the bound address, which
    /// [`Event::Accepted`] names; the `Net`'s drop releases the port.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot bind.
    pub(crate) fn listen(
        &mut self,
        addr: SocketAddr,
        reader: Reader<In>,
    ) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let token = LISTENER + self.listeners.len() as u64;
        let fd = listener.as_raw_fd();
        epoll_ctl(&self.epoll, sys::EPOLL_CTL_ADD, fd, sys::EPOLLIN, token)?;
        self.listeners.push((listener, addr, reader));
        Ok(addr)
    }

    /// Dials `addr` on the calling thread and adds the connection, read
    /// with `reader`. For owners that may wait up to `timeout` on a dial
    /// (the client, `call`); a node loop uses [`Net::send_to`].
    ///
    /// # Errors
    ///
    /// Fails if nothing answers at `addr`.
    pub(crate) fn connect(
        &mut self,
        addr: SocketAddr,
        reader: Reader<In>,
        timeout: Duration,
    ) -> std::io::Result<ConnId> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        self.add(stream, Some(reader), None, VecDeque::new())
    }

    /// A handle other threads post to this loop through.
    pub(crate) fn mailer(&self) -> Mailer<M> {
        self.mailer.clone()
    }

    /// Queues `frame` on a listened or dialled connection; `false` when
    /// the buffer is full (a stalled remote end) or the connection is
    /// gone, and the frame was dropped — the paper's UDP semantics, which
    /// clients already retry around. On a shaped connection the frame
    /// enters its pipe instead, and a cut link drops it and shuts the
    /// connection down.
    pub(crate) fn send<T: Wire>(&mut self, conn: ConnId, frame: &T) -> bool {
        let Some(c) = self.conns.get_mut(&conn) else {
            return false;
        };
        let Some((_, replies)) = &mut c.pipes else {
            return push(&mut c.out, || encode_frame(frame));
        };
        let Some(at) = replies.send(Instant::now(), encode_frame(frame)) else {
            c.cut();
            return false;
        };
        self.release_at = earliest(self.release_at, at);
        true
    }

    /// Shapes both directions of the accepted `conn`: what it reads
    /// passes `requests` before it is decoded, what it is sent passes
    /// `replies` before it queues. A link that refuses the connection
    /// closes it at once.
    pub(crate) fn shape(&mut self, conn: ConnId, requests: Pipe, replies: Pipe) {
        if !requests.admits() {
            return self.close(conn);
        }
        if let Some(c) = self.conns.get_mut(&conn) {
            c.pipes = Some((requests, replies));
        }
    }

    /// Shapes the link to `addr`: every frame [`Net::send_to`] queues for
    /// it passes `pipe` first.
    pub(crate) fn shape_link(&mut self, addr: SocketAddr, pipe: Pipe) {
        self.links.entry(addr).or_default().pipe = Some(pipe);
    }

    /// Queues `frame` for the peer at `addr`, dialling on first use. Until
    /// the peer's first connect frames are held (the deployment is still
    /// launching — dropping first-hop Phase 2 traffic would leave
    /// undecided instances); once a peer that was up has died they are
    /// dropped, and failure detection, TTL'd circulation and gap healing
    /// absorb the loss (§5.1–5.2). Either way the queue sheds when full.
    /// On a shaped link the frame enters its pipe first; a cut link drops
    /// it and hangs up, and does not dial for it.
    pub(crate) fn send_to<T: Wire>(&mut self, addr: SocketAddr, frame: &T) {
        let link = self.links.entry(addr).or_default();
        if let Some(pipe) = &mut link.pipe {
            match pipe.send(Instant::now(), encode_frame(frame)) {
                Some(at) => self.release_at = earliest(self.release_at, at),
                None => self.hang_up(addr),
            }
            return;
        }
        let queue = match link.conn.and_then(|id| self.conns.get_mut(&id)) {
            Some(c) => &mut c.out,
            None => &mut link.held,
        };
        push(queue, || encode_frame(frame));
    }

    /// Reads the link to `addr` with `reader` from its next connection
    /// on, reporting [`Event::LinkDown`] when a connection ends or a dial
    /// fails.
    pub(crate) fn read_link(&mut self, addr: SocketAddr, reader: Reader<In>) {
        self.link_readers.insert(addr, reader);
    }

    /// Closes the link to `addr`'s connection and drops what it holds.
    /// A dial in flight may still connect it.
    pub(crate) fn hang_up(&mut self, addr: SocketAddr) {
        if let Some(link) = self.links.get_mut(&addr) {
            link.held.clear();
            if let Some(id) = link.conn.take() {
                self.conns.remove(&id);
            }
        }
    }

    /// Frames queued on `conn` that have not left yet.
    pub(crate) fn queued(&self, conn: ConnId) -> usize {
        self.conns.get(&conn).map_or(0, |c| c.out.len())
    }

    /// Closes `conn` now; what it had queued is dropped.
    pub(crate) fn close(&mut self, conn: ConnId) {
        self.remove(conn);
    }

    /// One turn: writes what the last turn queued, waits until a socket
    /// is ready, the mailbox has mail, a pipe releases or `timeout`
    /// passes, then accepts, reads every ready connection until it would
    /// block, moves on what pipes release and appends what arrived to
    /// `events`.
    pub(crate) fn wait(&mut self, timeout: Duration, events: &mut Vec<Event<In, M>>) {
        // Answers on accepted connections leave before traffic on links:
        // a loopback write runs the receiver's stack inline, and the
        // reply is the last hop of a command the turn has finished.
        let mut pending: Vec<(bool, ConnId)> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.out.is_empty())
            .map(|(id, c)| (c.link.is_some(), *id))
            .collect();
        pending.sort_unstable();
        for (_, id) in pending {
            self.flush(id, events);
        }
        let mut timeout = self.dial(timeout);
        if let Some(at) = self.release_at {
            timeout = timeout.min(at.saturating_duration_since(Instant::now()));
        }

        // An interrupted wait reports nothing: the caller's next turn
        // retries.
        let ready = epoll_wait(&self.epoll, &mut self.ready, timeout).unwrap_or(0);
        for k in 0..ready {
            let (token, ready) = (self.ready[k].data, self.ready[k].events);
            match token {
                WAKE => {
                    // Armed posters write one byte between drains. The
                    // disarm precedes the drain below, so mail posted
                    // after the drain sees the flag down and wakes us.
                    let _ = (&self.wake_rx).read(&mut self.chunk);
                    self.mailer.wake.armed.store(false, Ordering::SeqCst);
                }
                LISTENER.. => self.accept((token - LISTENER) as usize, events),
                // A connection closed earlier in this batch is not found.
                id => {
                    if ready & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                        self.read(id, events);
                    }
                    if ready & sys::EPOLLOUT != 0 {
                        self.flush(id, events);
                    }
                }
            }
        }
        let now = Instant::now();
        if self.release_at.is_some_and(|at| at <= now) {
            self.release(now, events);
        }
        while let Ok(mail) = self.rx.try_recv() {
            match mail {
                Mail::Post(msg) => events.push(Event::Mail(msg)),
                Mail::Dialed(addr, dialed) => self.dialed(addr, dialed, events),
            }
        }
    }

    /// Starts a dial helper for every link holding frames whose retry
    /// time has come; returns `timeout` cut to the next retry time.
    fn dial(&mut self, mut timeout: Duration) -> Duration {
        let now = Instant::now();
        for (addr, link) in &mut self.links {
            if link.conn.is_some() || link.dial.is_some() || link.held.is_empty() {
                continue;
            }
            if let Some(at) = link.retry_at.filter(|at| *at > now) {
                timeout = timeout.min(at - now);
                continue;
            }
            let (mailer, addr) = (self.mailer.clone(), *addr);
            link.dial = std::thread::Builder::new()
                .name(self.dialer.clone())
                .spawn(move || {
                    let dialed = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
                    mailer.deliver(Mail::Dialed(addr, dialed));
                })
                .ok();
            if link.dial.is_none() {
                link.retry_at = Some(now + DIAL_BACKOFF);
            }
        }
        timeout
    }

    fn accept(&mut self, i: usize, events: &mut Vec<Event<In, M>>) {
        loop {
            let (listener, addr, reader) = &self.listeners[i];
            let (addr, reader) = (*addr, *reader);
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_ok() {
                let _ = stream.set_nodelay(true);
                if let Ok(id) = self.add(stream, Some(reader), None, VecDeque::new()) {
                    events.push(Event::Accepted(id, addr));
                }
            }
        }
    }

    /// Adds `stream` to the epoll set, waiting for reads; what `out`
    /// holds leaves at the start of the next turn.
    fn add(
        &mut self,
        stream: TcpStream,
        reader: Option<Reader<In>>,
        link: Option<SocketAddr>,
        out: VecDeque<Bytes>,
    ) -> std::io::Result<ConnId> {
        let id = self.next_id + 1;
        let fd = stream.as_raw_fd();
        epoll_ctl(&self.epoll, sys::EPOLL_CTL_ADD, fd, sys::EPOLLIN, id)?;
        self.next_id = id;
        let conn = Conn {
            stream,
            reader,
            interest: sys::EPOLLIN,
            rbuf: FrameBuf::new(),
            out,
            sent: 0,
            link,
            pipes: None,
        };
        self.conns.insert(id, conn);
        Ok(id)
    }

    /// Reads `id` until it would block, then splits off every complete
    /// frame. A short read means the socket is drained: no second read
    /// just to hear `EAGAIN` (whatever lands meanwhile wakes the next
    /// turn).
    fn read(&mut self, id: ConnId, events: &mut Vec<Event<In, M>>) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        let open = loop {
            match c.stream.read(&mut self.chunk) {
                Ok(0) => break false,
                Ok(n) => {
                    let read = &self.chunk[..n];
                    match &mut c.pipes {
                        // Requests wait in their pipe; a cut ends the
                        // connection.
                        Some((requests, _)) => {
                            match requests.send(Instant::now(), Bytes::copy_from_slice(read)) {
                                Some(at) => self.release_at = earliest(self.release_at, at),
                                None => break false,
                            }
                        }
                        None if c.reader.is_some() => c.rbuf.extend(read),
                        None => {}
                    }
                    if n < self.chunk.len() {
                        break true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break e.kind() == std::io::ErrorKind::WouldBlock,
            }
        };
        if !(open && c.decode(id, events)) {
            self.drop_conn(id, events);
        }
    }

    /// Writes what `id` has queued until the socket would block, and
    /// waits for it to be writable only while bytes are left behind.
    fn flush(&mut self, id: ConnId, events: &mut Vec<Event<In, M>>) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        while !c.out.is_empty() {
            let (written, burst) = {
                let slices: Vec<IoSlice> = c
                    .out
                    .iter()
                    .take(WRITE_BURST)
                    .enumerate()
                    .map(|(i, f)| IoSlice::new(if i == 0 { &f[c.sent..] } else { f }))
                    .collect();
                (c.stream.write_vectored(&slices), slices.len() > 1)
            };
            let mut n = match written {
                Ok(n) if n > 0 => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return c.watch(&self.epoll, id, sys::EPOLLOUT, true);
                }
                _ => return self.drop_conn(id, events),
            };
            let mut done = 0;
            while let Some(front) = c.out.front() {
                let left = front.len() - c.sent;
                if n < left {
                    c.sent += n;
                    break;
                }
                n -= left;
                c.sent = 0;
                c.out.pop_front();
                done += 1;
            }
            if burst {
                self.vectored.add(done);
            }
        }
        c.watch(&self.epoll, id, sys::EPOLLOUT, false);
    }

    /// Moves on what the pipes release by `now`: a link's frames onto its
    /// connection (or its hold queue, which dials), a connection's replies
    /// onto it and its requests into its reader. Notes when the next
    /// bytes are due.
    fn release(&mut self, now: Instant, events: &mut Vec<Event<In, M>>) {
        let mut next: Option<Instant> = None;
        let mut note = |at: Option<Instant>| {
            if let Some(at) = at {
                next = earliest(next, at);
            }
        };
        for link in self.links.values_mut() {
            let Some(pipe) = &mut link.pipe else {
                continue;
            };
            let queue = match link.conn.and_then(|id| self.conns.get_mut(&id)) {
                Some(c) => &mut c.out,
                None => &mut link.held,
            };
            while let Some(frame) = pipe.due(now) {
                push(queue, || frame);
            }
            note(pipe.next_release());
        }
        let mut corrupt = Vec::new();
        for (id, c) in &mut self.conns {
            let Some((requests, replies)) = &mut c.pipes else {
                continue;
            };
            while let Some(frame) = replies.due(now) {
                push(&mut c.out, || frame);
            }
            let mut read = false;
            while let Some(bytes) = requests.due(now) {
                c.rbuf.extend(&bytes);
                read = true;
            }
            note(requests.next_release());
            note(replies.next_release());
            if read && !c.decode(*id, events) {
                corrupt.push(*id);
            }
        }
        self.release_at = next;
        for id in corrupt {
            self.drop_conn(id, events);
        }
    }

    /// Forgets a connection that ended on its own, reporting it if it
    /// was read.
    fn drop_conn(&mut self, id: ConnId, events: &mut Vec<Event<In, M>>) {
        events.extend(self.remove(id));
    }

    /// Closes `id`; what its end reports, if it was read. A write-only
    /// link's unsent frames go back to its hold queue: a peer that
    /// restarted gets them on one fresh connection. A read link's are
    /// dropped, and it waits before dialling again.
    fn remove(&mut self, id: ConnId) -> Option<Event<In, M>> {
        let c = self.conns.remove(&id)?;
        let Some(addr) = c.link else {
            return c.reader.map(|_| Event::Closed(id));
        };
        let link = self.links.get_mut(&addr)?;
        link.conn = None;
        if !self.link_readers.contains_key(&addr) {
            link.held.extend(c.out);
            return None;
        }
        link.retry_at = Some(Instant::now() + DIAL_BACKOFF);
        Some(Event::LinkDown(addr))
    }

    fn dialed(
        &mut self,
        addr: SocketAddr,
        dialed: std::io::Result<TcpStream>,
        events: &mut Vec<Event<In, M>>,
    ) {
        let Some(link) = self.links.get_mut(&addr) else {
            return;
        };
        // The helper has handed its result over and is exiting.
        if let Some(helper) = link.dial.take() {
            let _ = helper.join();
        }
        let reader = self.link_readers.get(&addr).copied();
        let Ok(stream) = dialed.and_then(|s| s.set_nonblocking(true).map(|()| s)) else {
            let pause = if link.ever || reader.is_some() {
                link.held.clear();
                DIAL_BACKOFF
            } else {
                DIAL_RETRY
            };
            link.retry_at = Some(Instant::now() + pause);
            events.extend(reader.map(|_| Event::LinkDown(addr)));
            return;
        };
        let _ = stream.set_nodelay(true);
        link.ever = true;
        let held = std::mem::take(&mut link.held);
        // An epoll set out of room drops the connection and what it held.
        if let Ok(id) = self.add(stream, reader, Some(addr), held) {
            if let Some(link) = self.links.get_mut(&addr) {
                link.conn = Some(id);
            }
        }
    }
}

impl<In, M> Drop for Net<In, M> {
    /// Waits out dial helpers still connecting (a connect gives up after
    /// 250 ms), so a stopped loop leaves no thread behind.
    fn drop(&mut self) {
        for link in self.links.values_mut() {
            if let Some(helper) = link.dial.take() {
                let _ = helper.join();
            }
        }
    }
}

/// The earlier of `at` and a release time `or`, if there is one.
fn earliest(at: Option<Instant>, or: Instant) -> Option<Instant> {
    Some(at.map_or(or, |at| at.min(or)))
}

/// Queues what `bytes` makes onto `queue` unless it is full.
fn push(queue: &mut VecDeque<Bytes>, bytes: impl FnOnce() -> Bytes) -> bool {
    let room = queue.len() < QUEUE_FRAMES;
    if room {
        queue.push_back(bytes());
    }
    room
}

/// Starts a loop thread called `name`. Every thread between the wire and
/// a state machine is started in this module.
///
/// # Errors
///
/// Fails if the thread cannot spawn.
pub(crate) fn spawn_loop(
    name: String,
    body: impl FnOnce() + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(body)
}

/// One request/response exchange on a `Net` of its own: dials `addr`,
/// sends `req`, and feeds every `Resp` frame that arrives to `pick` until
/// it returns `Some` — all within `timeout`, connect included. Blocks its
/// caller; loop threads hand it to a helper thread.
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
    let mut net = Net::<Resp, ()>::new(String::new(), Counter::default())?;
    let replies: Reader<Resp> = |buf| buf.try_next();
    let conn = net.connect(addr, replies, timeout.max(Duration::from_millis(1)))?;
    net.send(conn, req);
    let mut events = Vec::new();
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(Error::Timeout("call: no reply before the deadline"));
        }
        net.wait(left, &mut events);
        for event in events.drain(..) {
            match event {
                Event::Frame(_, resp) => {
                    if let Some(picked) = pick(resp) {
                        return Ok(picked);
                    }
                }
                Event::Closed(_) => return Err(Error::Timeout("call: connection closed")),
                Event::Accepted(..) | Event::LinkDown(_) | Event::Mail(()) => {}
            }
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

    /// A loop's sockets whose connections carry raw `Bytes` frames.
    type TestNet = Net<Bytes, ()>;

    fn test_net<M: Send + 'static>() -> Net<Bytes, M> {
        Net::new(
            "test-dial".into(),
            Obs::for_node(0).counter("test_vectored"),
        )
        .unwrap()
    }

    fn bytes_frame(buf: &mut FrameBuf) -> std::result::Result<Option<Bytes>, WireError> {
        buf.try_next()
    }

    fn localhost(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    /// Runs `net`'s turns for `dur` (at least one), each waiting at most
    /// 5 ms.
    fn pump(net: &mut TestNet, dur: Duration) -> Vec<Event<Bytes, ()>> {
        let mut events = Vec::new();
        let end = Instant::now() + dur;
        loop {
            net.wait(Duration::from_millis(5), &mut events);
            if Instant::now() >= end {
                return events;
            }
        }
    }

    /// Reads what `stream` has and splits off every complete frame;
    /// `false` once it is closed.
    fn read_some(stream: &mut TcpStream, buf: &mut FrameBuf, out: &mut Vec<Bytes>) -> bool {
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => buf.extend(&chunk[..n]),
            Err(e) => return e.kind() == std::io::ErrorKind::WouldBlock,
        }
        while let Ok(Some(frame)) = buf.try_next() {
            out.push(frame);
        }
        true
    }

    /// A peer on plain std sockets: forwards every frame of every
    /// connection it accepts on `addr` until stopped, and stopping closes
    /// the port and every connection.
    struct Sink {
        stop: Arc<AtomicBool>,
        join: JoinHandle<()>,
    }

    impl Sink {
        fn start(addr: SocketAddr) -> (Sink, Receiver<Bytes>) {
            let listener = TcpListener::bind(addr).unwrap();
            listener.set_nonblocking(true).unwrap();
            let (tx, rx) = unbounded();
            let stop = Arc::new(AtomicBool::new(false));
            let stopped = Arc::clone(&stop);
            let join = std::thread::spawn(move || {
                let mut conns = Vec::new();
                while !stopped.load(Ordering::SeqCst) {
                    if let Ok((stream, _)) = listener.accept() {
                        stream.set_nonblocking(true).unwrap();
                        conns.push((stream, FrameBuf::new()));
                    }
                    let mut frames = Vec::new();
                    for (stream, buf) in &mut conns {
                        read_some(stream, buf, &mut frames);
                    }
                    for frame in frames {
                        let _ = tx.send(frame);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            (Sink { stop, join }, rx)
        }

        fn stop(self) {
            self.stop.store(true, Ordering::SeqCst);
            self.join.join().unwrap();
        }
    }

    /// Accepts one connection on `listener`, waiting at most five
    /// seconds.
    fn accept_within(listener: &TcpListener) -> Option<TcpStream> {
        listener.set_nonblocking(true).unwrap();
        let end = Instant::now() + Duration::from_secs(5);
        while Instant::now() < end {
            if let Ok((stream, _)) = listener.accept() {
                return Some(stream);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        None
    }

    /// Pumps `net` until `rx` yields a frame (or five seconds pass).
    fn pump_until_frame(net: &mut TestNet, rx: &Receiver<Bytes>) -> Option<Bytes> {
        let end = Instant::now() + Duration::from_secs(5);
        while Instant::now() < end {
            pump(net, Duration::ZERO);
            if let Ok(frame) = rx.try_recv() {
                return Some(frame);
            }
        }
        None
    }

    #[test]
    fn send_to_a_peer_that_never_reads_does_not_block() {
        // The peer accepts and then sits on the connection: its receive
        // buffer and our send buffer fill, the link's outbound buffer
        // fills and sheds — and neither `send_to` nor the loop's turns
        // may stall on the socket.
        let peer = TcpListener::bind(localhost(0)).unwrap();
        let peer_addr = peer.local_addr().unwrap();
        let mut net: TestNet = test_net();
        let frame = Bytes::from(vec![7u8; 1024]);
        let mut events = Vec::new();
        let started = Instant::now();
        let mut slowest_turn = Duration::ZERO;
        for i in 0..100_000 {
            net.send_to(peer_addr, &frame);
            if i % 1000 == 999 {
                // A timer 1 ms out: the turn must come back for it.
                let turn = Instant::now();
                net.wait(Duration::from_millis(1), &mut events);
                slowest_turn = slowest_turn.max(turn.elapsed());
            }
        }
        let took = started.elapsed();
        // 100 MB through a socket nobody reads would never finish; shed
        // into a full buffer it is a fraction of a second.
        assert!(
            took < Duration::from_secs(5),
            "send blocked on the socket: {took:?}"
        );
        let conn = accept_within(&peer);
        assert!(conn.is_some(), "the link did connect");
        for _ in 0..20 {
            let turn = Instant::now();
            net.wait(Duration::from_millis(5), &mut events);
            slowest_turn = slowest_turn.max(turn.elapsed());
        }
        assert!(
            slowest_turn < Duration::from_millis(500),
            "a turn overran its timer while the peer was stalled: {slowest_turn:?}"
        );
        assert!(net.queued(1) > 0 && net.queued(1) <= QUEUE_FRAMES);
        drop(net);
        drop(conn);
    }

    #[test]
    fn frames_are_held_until_the_first_connect_and_dropped_after_a_death() {
        let addr = localhost(free_port_block(1).unwrap());
        let mut net = test_net();
        // Nobody listens yet: the frame is held while dials fail.
        net.send_to(addr, &Bytes::from_static(b"early"));
        pump(&mut net, Duration::from_millis(100));
        let (sink, rx) = Sink::start(addr);
        assert_eq!(
            pump_until_frame(&mut net, &rx),
            Some(Bytes::from_static(b"early")),
            "a frame sent before the peer bound is delivered once it binds"
        );

        // The peer dies: its port and the accepted socket close.
        sink.stop();
        drop(rx);
        for _ in 0..20 {
            net.send_to(addr, &Bytes::from_static(b"lost"));
            pump(&mut net, Duration::from_millis(20));
        }
        // Let the link drain its hold queue against the dead address.
        pump(&mut net, Duration::from_millis(300));

        // The peer comes back: only frames sent from now on arrive.
        let (sink, rx) = Sink::start(addr);
        net.send_to(addr, &Bytes::from_static(b"fresh"));
        assert_eq!(
            pump_until_frame(&mut net, &rx),
            Some(Bytes::from_static(b"fresh")),
            "frames to a peer that was up and died are dropped, not held"
        );
        drop(net);
        sink.stop();
    }

    #[test]
    fn stopped_listener_releases_its_port() {
        // A listener added to a running loop accepts at once and lets go
        // of its port when the loop stops.
        let addr = localhost(free_port_block(1).unwrap());
        for round in 0..3 {
            // Mail: `Some(addr)` listens there, `None` stops the loop.
            let mut net = test_net::<Option<SocketAddr>>();
            let mailer = net.mailer();
            let (tx, rx) = unbounded();
            let join = spawn_loop("test-listen".into(), move || {
                let mut events = Vec::new();
                loop {
                    net.wait(Duration::from_secs(1), &mut events);
                    for event in events.drain(..) {
                        match event {
                            Event::Mail(Some(addr)) => {
                                let bound = net.listen(addr, bytes_frame);
                                tx.send(bound.map_err(|e| e.to_string())).unwrap();
                            }
                            Event::Mail(None) => return,
                            Event::Accepted(_, at) => tx.send(Ok(at)).unwrap(),
                            Event::Frame(..) | Event::Closed(_) | Event::LinkDown(_) => {}
                        }
                    }
                }
            })
            .unwrap();
            assert!(mailer.post(Some(addr)));
            let bound = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(
                bound.unwrap_or_else(|e| panic!("round {round}: rebind failed: {e}")),
                addr
            );
            let conn = TcpStream::connect(addr).unwrap();
            let accepted = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(accepted.unwrap(), addr, "accepted on the added listener");
            assert!(mailer.post(None));
            join.join().unwrap();
            drop(conn);
        }
    }

    #[test]
    fn stopped_loop_releases_both_ports() {
        let base = free_port_block(2).unwrap();
        let (a, b) = (localhost(base), localhost(base + 1));
        for round in 0..3 {
            let mut net: TestNet = test_net();
            for addr in [a, b] {
                let bound = net
                    .listen(addr, bytes_frame)
                    .unwrap_or_else(|e| panic!("round {round}: rebind failed: {e}"));
                assert_eq!(bound, addr);
            }
            let mailer = net.mailer();
            let (tx, rx) = unbounded();
            let join = spawn_loop("test-loop".into(), move || {
                let mut events = Vec::new();
                loop {
                    net.wait(Duration::from_secs(1), &mut events);
                    for event in events.drain(..) {
                        match event {
                            Event::Mail(()) => return,
                            Event::Frame(_, f) => tx.send(f).unwrap(),
                            Event::Accepted(..) | Event::Closed(_) | Event::LinkDown(_) => {}
                        }
                    }
                }
            })
            .unwrap();
            // A live connection on each port, served by the loop.
            let conns: Vec<TcpStream> = [a, b]
                .iter()
                .map(|addr| {
                    let mut c = TcpStream::connect(addr).unwrap();
                    c.write_all(&encode_frame(&Bytes::from_static(b"hi")))
                        .unwrap();
                    c
                })
                .collect();
            for _ in 0..2 {
                assert!(rx.recv_timeout(Duration::from_secs(5)).is_ok());
            }
            assert!(mailer.post(()));
            join.join().unwrap();
            assert!(!mailer.post(()), "a stopped loop takes no mail");
            drop(conns);
        }
    }

    #[test]
    fn corrupt_length_prefix_ends_the_reader_without_a_partial_frame() {
        let mut net = test_net();
        let addr = net.listen(localhost(0), bytes_frame).unwrap();
        let frame = |body: &'static [u8]| encode_frame(&Bytes::from_static(body));
        let mut bad = TcpStream::connect(addr).unwrap();
        let mut good = TcpStream::connect(addr).unwrap();
        good.write_all(&frame(b"a")).unwrap();
        bad.write_all(&frame(b"before")).unwrap();
        // A ten-byte varint announcing a frame far above the length
        // limit, followed by bytes that must never surface as a frame.
        bad.write_all(&[0xff; 9]).unwrap();
        bad.write_all(&[0x01]).unwrap();
        bad.write_all(b"garbage that is not a frame").unwrap();

        let mut frames: HashMap<ConnId, Vec<Bytes>> = HashMap::new();
        let mut closed = Vec::new();
        let mut sent_after = false;
        let end = Instant::now() + Duration::from_secs(5);
        while Instant::now() < end && frames.values().map(Vec::len).sum::<usize>() < 3 {
            for event in pump(&mut net, Duration::ZERO) {
                match event {
                    Event::Frame(id, f) => frames.entry(id).or_default().push(f),
                    Event::Closed(id) => closed.push(id),
                    Event::Accepted(..) | Event::LinkDown(_) | Event::Mail(()) => {}
                }
            }
            if !closed.is_empty() && !sent_after {
                // The other connection keeps flowing after the close.
                good.write_all(&frame(b"b")).unwrap();
                sent_after = true;
            }
        }
        let of = |body: &'static [u8]| {
            *frames
                .iter()
                .find(|(_, fs)| fs[0] == Bytes::from_static(body))
                .expect("connection delivered")
                .0
        };
        let (bad_id, good_id) = (of(b"before"), of(b"a"));
        assert_eq!(closed, vec![bad_id], "only the corrupt connection closes");
        assert_eq!(frames[&bad_id], vec![Bytes::from_static(b"before")]);
        assert_eq!(
            frames[&good_id],
            vec![Bytes::from_static(b"a"), Bytes::from_static(b"b")]
        );
    }

    #[test]
    fn call_gives_up_at_its_deadline_against_a_silent_server() {
        // The kernel completes the handshake; nobody ever answers.
        let server = TcpListener::bind(localhost(0)).unwrap();
        let started = Instant::now();
        let answer: Result<Bytes> = call(
            server.local_addr().unwrap(),
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
    }

    #[test]
    fn call_returns_the_first_picked_reply() {
        let server = TcpListener::bind(localhost(0)).unwrap();
        let addr = server.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut stream, _) = server.accept().unwrap();
            let mut buf = FrameBuf::new();
            let mut frames = Vec::new();
            while read_some(&mut stream, &mut buf, &mut frames) {
                for f in frames.drain(..) {
                    let _ = stream.write_all(&encode_frame(&Bytes::from_static(b"noise")));
                    let _ = stream.write_all(&encode_frame(&f));
                }
            }
        });
        let answer = call(
            addr,
            &Bytes::from_static(b"ping"),
            Duration::from_secs(5),
            |r: Bytes| (r == Bytes::from_static(b"ping")).then_some(r),
        );
        assert_eq!(answer.unwrap(), Bytes::from_static(b"ping"));
        echo.join().unwrap();
    }

    /// Connects `n` plain std peers to a listener on `net` and turns it
    /// until it has accepted them all; the peers and the ids they got,
    /// in accept order.
    fn accepted(net: &mut TestNet, n: usize) -> (Vec<TcpStream>, Vec<ConnId>) {
        let addr = net.listen(localhost(0), bytes_frame).unwrap();
        let (mut peers, mut ids) = (Vec::new(), Vec::new());
        let end = Instant::now() + Duration::from_secs(20);
        while peers.len() < n {
            // No more at once than the listen backlog holds.
            let batch = (n - peers.len()).min(64);
            peers.extend((0..batch).map(|_| TcpStream::connect(addr).unwrap()));
            while ids.len() < peers.len() {
                assert!(Instant::now() < end, "accepted {} of {n}", ids.len());
                for event in pump(net, Duration::ZERO) {
                    if let Event::Accepted(id, _) = event {
                        ids.push(id);
                    }
                }
            }
        }
        (peers, ids)
    }

    /// How long one `wait(50 ms)` with nothing to report takes.
    fn idle_wait(net: &mut TestNet) -> Duration {
        let mut events = Vec::new();
        let started = Instant::now();
        net.wait(Duration::from_millis(50), &mut events);
        let took = started.elapsed();
        assert!(events.is_empty(), "an idle turn reported something");
        took
    }

    #[test]
    fn write_interest_ends_when_a_backlog_drains() {
        let mut net: TestNet = test_net();
        let (mut peers, ids) = accepted(&mut net, 1);
        let (peer, id) = (&mut peers[0], ids[0]);
        // The peer does not read: the socket buffers fill, and frames
        // back up behind them.
        let frame = Bytes::from(vec![7u8; 64 * 1024]);
        let end = Instant::now() + Duration::from_secs(10);
        while net.queued(id) == 0 {
            assert!(Instant::now() < end, "the socket never backed up");
            net.send(id, &frame);
            net.wait(Duration::ZERO, &mut Vec::new());
        }
        // Now it reads everything, until the backlog has left.
        peer.set_nonblocking(true).unwrap();
        let mut chunk = vec![0u8; 1 << 20];
        let mut drain = |peer: &mut TcpStream| while peer.read(&mut chunk).is_ok_and(|n| n > 0) {};
        while net.queued(id) > 0 {
            assert!(Instant::now() < end, "the backlog never drained");
            drain(peer);
            net.wait(Duration::from_millis(5), &mut Vec::new());
        }
        drain(peer);
        let took = idle_wait(&mut net);
        assert!(took >= Duration::from_millis(40), "woke after {took:?}");
    }

    /// CPU time this thread has run for, as the scheduler counts it.
    fn thread_cpu() -> Duration {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap();
        let ns = stat.split_whitespace().next().unwrap().parse().unwrap();
        Duration::from_nanos(ns)
    }

    /// The median CPU time of a `Net` turn woken by one peer's ping, with
    /// `idle` more accepted connections that stay silent.
    fn cpu_per_ping_turn(idle: usize) -> Duration {
        const TURNS: usize = 300;
        let mut net: TestNet = test_net();
        let (mut peers, _) = accepted(&mut net, idle + 1);
        let mut pinger = peers.pop().unwrap();
        let pings = std::thread::spawn(move || {
            let ping = encode_frame(&Bytes::from_static(b"ping"));
            for _ in 0..TURNS {
                pinger.write_all(&ping).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // The scheduler adds a turn's time when the thread next sleeps,
        // so each reading after a wake-up closes the turn before it.
        let mut turns = Vec::new();
        let mut last = thread_cpu();
        while turns.len() < TURNS {
            net.wait(Duration::from_millis(20), &mut Vec::new());
            let now = thread_cpu();
            turns.push(now - last);
            last = now;
        }
        pings.join().unwrap();
        turns.sort_unstable();
        turns[TURNS / 2]
    }

    /// This process's soft limit on open descriptors.
    fn open_file_limit() -> usize {
        let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
        let soft = limits
            .lines()
            .find(|l| l.starts_with("Max open files"))
            .and_then(|l| l.split_whitespace().nth(3));
        match soft {
            Some("unlimited") => usize::MAX,
            soft => soft.and_then(|s| s.parse().ok()).unwrap_or(0),
        }
    }

    #[test]
    fn a_turn_costs_what_is_ready_not_what_is_open() {
        // Both ends of every idle connection live in this process, beside
        // the sockets of tests running alongside.
        const IDLE: usize = 400;
        let limit = open_file_limit();
        if limit < 2 * IDLE + 200 {
            eprintln!("skipped: {IDLE} idle connections need more than {limit} descriptors");
            return;
        }
        // A sibling test can inflate one measurement; a turn that pays for
        // every open socket fails every attempt.
        let mut tries = Vec::new();
        for _ in 0..3 {
            let alone = cpu_per_ping_turn(0);
            let beside_idle = cpu_per_ping_turn(IDLE);
            eprintln!("ping turn: {alone:?} alone, {beside_idle:?} beside {IDLE} idle connections");
            if beside_idle <= alone * 2 {
                return;
            }
            tries.push((alone, beside_idle));
        }
        panic!("a ping turn (alone, beside {IDLE} idle connections) cost {tries:?}");
    }

    #[test]
    fn port_blocks_do_not_overlap() {
        let a = free_port_block(8).unwrap();
        let b = free_port_block(8).unwrap();
        assert!(a.abs_diff(b) >= 8, "blocks {a} and {b} overlap");
        assert!(u32::from(a) >= FIRST_PORT && u32::from(b) >= FIRST_PORT);
    }
}
