//! Shared live-transport building blocks.
//!
//! The sans-IO protocol state machines ([`crate::process`]) are driven by
//! two very different runtimes: the discrete-event simulator and the live
//! OS-thread event loops of `liverun` (the node loop both `amcastd` and
//! `amcoordd` run). The live loops share a few
//! mechanical concerns, collected here so every one of them — and the
//! network clients on the other end — agrees on them (the sockets
//! themselves are `liverun::net`'s business):
//!
//! * [`WallClock`] — maps wall-clock `Instant`s onto the virtual
//!   [`SimTime`] axis the protocol code reasons in. All nodes of one
//!   deployment share an epoch so their `SimTime`s are comparable.
//! * [`PeerFrame`] — the length-delimited frame exchanged between peer
//!   nodes on TCP connections: sender id plus a [`Msg`].
//! * [`FrameBuf`] — reassembles length-delimited frames from the byte
//!   chunks a socket read loop produces.
//! * [`LinkPolicy`] and [`LinkShaper`] — the one link model: what a
//!   directed link does to the bytes sent over it. Both runtimes time
//!   their hops with it, the simulator on [`SimTime`] and the live
//!   netem pipes on `Instant`.

use std::ops::{Add, Sub};
use std::time::{Duration, Instant};

use bytes::{Buf, Bytes, BytesMut};

use crate::error::WireError;
use crate::ids::NodeId;
use crate::msg::Msg;
use crate::time::SimTime;
use crate::wire::{frame, Wire};
use crate::wire_frame;

/// Maps between wall-clock instants and the virtual [`SimTime`] axis.
///
/// Cheap to copy; every thread of a deployment carries the same epoch.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose `SimTime` zero is now.
    pub fn start() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// A clock anchored at an existing epoch (share one per deployment).
    pub fn at_epoch(epoch: Instant) -> Self {
        WallClock { epoch }
    }

    /// The shared epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.at(Instant::now())
    }

    /// The virtual time of wall-clock `instant` (zero before the epoch).
    pub fn at(&self, instant: Instant) -> SimTime {
        SimTime::from_nanos(instant.saturating_duration_since(self.epoch).as_nanos() as u64)
    }

    /// The wall-clock instant corresponding to virtual time `t`.
    pub fn instant_of(&self, t: SimTime) -> Instant {
        self.epoch + Duration::from_nanos(t.as_nanos())
    }
}

wire_frame! {
    /// One frame on a peer-to-peer live TCP connection: sender plus message.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct PeerFrame {
        /// The sending node.
        pub from: NodeId,
        /// The message.
        pub msg: Msg,
    }
}

/// Reassembles length-delimited [`Wire`] frames from socket reads,
/// zero-copy.
///
/// Each socket read becomes one owned [`Bytes`] segment; a frame whose
/// body lies within a single segment is handed to the decoder as a
/// refcounted *view* of that segment (no per-frame memcpy), which in turn
/// makes every [`bytes::Bytes`] payload decoded out of the frame — value
/// payloads in particular — share the original read buffer all the way to
/// application delivery. Only frames spanning a segment boundary are
/// stitched with a copy.
#[derive(Debug, Default)]
pub struct FrameBuf {
    segs: std::collections::VecDeque<Bytes>,
    len: usize,
}

impl FrameBuf {
    /// An empty reassembly buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds raw bytes read off a socket (one copy, to own the chunk).
    pub fn extend(&mut self, chunk: &[u8]) {
        self.push_bytes(Bytes::copy_from_slice(chunk));
    }

    /// Feeds an already-owned segment, zero-copy.
    pub fn push_bytes(&mut self, seg: Bytes) {
        if !seg.is_empty() {
            self.len += seg.len();
            self.segs.push_back(seg);
        }
    }

    /// Copies up to `dst.len()` buffered bytes into `dst` without
    /// consuming them; returns how many were available.
    fn peek_into(&self, dst: &mut [u8]) -> usize {
        let mut filled = 0;
        for seg in &self.segs {
            if filled == dst.len() {
                break;
            }
            let n = seg.len().min(dst.len() - filled);
            dst[filled..filled + n].copy_from_slice(&seg[..n]);
            filled += n;
        }
        filled
    }

    /// Drops `n` buffered bytes from the front.
    fn consume(&mut self, mut n: usize) {
        debug_assert!(n <= self.len);
        self.len -= n;
        while n > 0 {
            let front = self.segs.front_mut().expect("consume within len");
            if front.len() > n {
                front.advance(n);
                return;
            }
            n -= front.len();
            self.segs.pop_front();
        }
    }

    /// Removes the first `n` buffered bytes as one `Bytes`. Zero-copy
    /// when they lie within the front segment.
    fn take_bytes(&mut self, n: usize) -> Bytes {
        debug_assert!(n <= self.len);
        if n == 0 {
            // Zero-length frame: nothing to take (and the deque may be
            // empty if the header was the last buffered byte).
            return Bytes::new();
        }
        self.len -= n;
        let front = self.segs.front_mut().expect("take within len");
        if front.len() >= n {
            let body = front.split_to(n);
            if front.is_empty() {
                self.segs.pop_front();
            }
            return body;
        }
        // Frame spans segments: stitch once.
        let mut body = BytesMut::with_capacity(n);
        let mut left = n;
        while left > 0 {
            let front = self.segs.front_mut().expect("take within len");
            let take = front.len().min(left);
            body.extend_from_slice(&front[..take]);
            front.advance(take);
            if front.is_empty() {
                self.segs.pop_front();
            }
            left -= take;
        }
        body.freeze()
    }

    /// Splits one complete frame off the front, if present.
    ///
    /// # Errors
    ///
    /// Fails on oversized or undecodable frames (the connection should be
    /// dropped).
    pub fn try_next<T: Wire>(&mut self) -> Result<Option<T>, WireError> {
        let mut hdr = [0u8; 10];
        let avail = self.peek_into(&mut hdr);
        let Some((header, len)) = frame::header(&hdr[..avail], self.len)? else {
            return Ok(None);
        };
        self.consume(header);
        let mut body = self.take_bytes(len);
        let msg = T::decode(&mut body)?;
        Ok(Some(msg))
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Appends the framed encoding of `msg` to a scratch buffer and returns
/// the ready-to-write bytes.
pub fn encode_frame<T: Wire>(msg: &T) -> Bytes {
    let mut buf = BytesMut::new();
    frame::write(&mut buf, msg);
    buf.freeze()
}

/// Shaping policy for one *directed* network link.
///
/// The same policy type drives both worlds: the discrete-event simulator
/// times every hop with it (`simnet::Topology` holds one per site pair)
/// and the live node loops (`liverun::netem`) apply it to the frames they
/// send and the client bytes they receive, each through a [`LinkShaper`].
/// Delay is one-way; a symmetric RTT splits evenly across the two
/// directed links.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkPolicy {
    /// One-way propagation delay added to every chunk.
    pub delay: Duration,
    /// Proportional jitter in percent of `delay`: each chunk gets an
    /// extra uniform `[0, delay * jitter_pct / 100)` on top.
    pub jitter_pct: u32,
    /// Serialization bandwidth in bytes per second; `0` means unlimited.
    pub bytes_per_sec: u64,
    /// Percent probability that a chunk transfer kills the connection
    /// (loss surfaces as a TCP reset, forcing sender-side reconnect).
    pub loss_pct: u32,
    /// A blocked link delivers nothing until unblocked (directional
    /// partition; existing connections are cut, new ones refused).
    pub blocked: bool,
}

impl LinkPolicy {
    /// A policy that forwards everything untouched.
    pub fn unshaped() -> Self {
        LinkPolicy {
            delay: Duration::ZERO,
            jitter_pct: 0,
            bytes_per_sec: 0,
            loss_pct: 0,
            blocked: false,
        }
    }

    /// The same policy with `delay` scaled to `pct` percent (jitter
    /// scales implicitly, being proportional). Used by fast CI runs that
    /// keep the *shape* of a WAN (relative latencies) at a fraction of
    /// the wall-clock cost.
    pub fn scale_delay(mut self, pct: u64) -> Self {
        self.delay = Duration::from_nanos((self.delay.as_nanos() as u64).saturating_mul(pct) / 100);
        self
    }
}

impl Default for LinkPolicy {
    fn default() -> Self {
        Self::unshaped()
    }
}

/// What the shaper decided for one chunk of bytes, on the clock `T` the
/// shaper runs on.
#[derive(Clone, Copy, Debug)]
pub struct ShapeDecision<T = Instant> {
    /// Earliest instant the chunk may be written to the far side.
    pub release: T,
    /// Delay injected beyond `now` (propagation + jitter + queueing).
    pub delay: Duration,
    /// True when the bandwidth cap made this chunk queue behind earlier
    /// bytes still "on the wire".
    pub throttled: bool,
}

/// Sans-IO release-time calculator for one directed link.
///
/// Models a serialization clock (the link transmits at most
/// `bytes_per_sec`) followed by a propagation pipe (`delay` + jitter).
/// Release times are monotone — a later chunk never overtakes an earlier
/// one even when its jitter draw is smaller — so TCP byte order is
/// preserved. The caller supplies the jitter sample (`unit` in `[0, 1)`)
/// so this stays deterministic and testable.
///
/// `T` is the clock: `Instant` for a live pipe, [`SimTime`] for a
/// simulated hop.
#[derive(Debug)]
pub struct LinkShaper<T = Instant> {
    /// When the serialization clock frees up.
    busy_until: Option<T>,
    /// Release time handed out for the previous chunk (FIFO floor).
    prev_release: Option<T>,
}

impl<T> Default for LinkShaper<T> {
    fn default() -> Self {
        LinkShaper {
            busy_until: None,
            prev_release: None,
        }
    }
}

impl<T> LinkShaper<T>
where
    T: Copy + Ord + Add<Duration, Output = T> + Sub<Output = Duration>,
{
    /// A shaper with an idle wire.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes when a `bytes`-sized chunk read at `now` may be delivered
    /// under `policy`, with `unit` in `[0, 1)` driving the jitter draw.
    pub fn shape(
        &mut self,
        now: T,
        bytes: usize,
        policy: &LinkPolicy,
        unit: f64,
    ) -> ShapeDecision<T> {
        let start = match self.busy_until {
            Some(busy) if busy > now => busy,
            _ => now,
        };
        let throttled = start > now;
        let serialize = match policy.bytes_per_sec {
            0 => Duration::ZERO,
            rate => Duration::from_secs_f64(bytes as f64 / rate as f64),
        };
        let wire_free = start + serialize;
        self.busy_until = Some(wire_free);
        let jitter = policy
            .delay
            .mul_f64(policy.jitter_pct as f64 / 100.0 * unit.clamp(0.0, 1.0));
        let mut release = wire_free + policy.delay + jitter;
        if let Some(prev) = self.prev_release {
            release = release.max(prev);
        }
        self.prev_release = Some(release);
        ShapeDecision {
            release,
            delay: release - now,
            throttled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone_and_mappable() {
        let clock = WallClock::start();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
        let t = SimTime::from_millis(5);
        let i = clock.instant_of(t);
        assert!(i >= clock.epoch());
    }

    #[test]
    fn frame_buf_reassembles_peer_frames() {
        let frame = PeerFrame {
            from: NodeId::new(7),
            msg: Msg::Custom(1, Bytes::from_static(b"hello")),
        };
        let encoded = encode_frame(&frame);

        let mut rx = FrameBuf::new();
        // Feed one byte at a time; exactly one frame must come out.
        let mut got = Vec::new();
        for b in encoded {
            rx.extend(&[b]);
            while let Some(f) = rx.try_next::<PeerFrame>().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, vec![frame]);
        assert!(rx.is_empty());
    }

    #[test]
    fn frame_buf_handles_frames_spanning_segments() {
        // Three frames fed as awkwardly-split segments: one segment
        // holding one and a half frames, the rest arriving later.
        let msgs: Vec<Bytes> = (0..3).map(|i| Bytes::from(vec![i as u8; 700])).collect();
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&encode_frame(m));
        }
        let mut rx = FrameBuf::new();
        let mut got: Vec<Bytes> = Vec::new();
        for chunk in wire.chunks(1000) {
            rx.push_bytes(Bytes::copy_from_slice(chunk));
            while let Some(m) = rx.try_next::<Bytes>().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, msgs);
        assert!(rx.is_empty());
        assert_eq!(rx.len(), 0);
    }

    #[test]
    fn frame_buf_zero_length_frame_does_not_panic() {
        // A single 0x00 byte is a frame declaring length zero — a
        // malformed (or hostile) client must get a clean decode error or
        // empty frame, never a panic in the reader thread.
        let mut rx = FrameBuf::new();
        rx.push_bytes(Bytes::copy_from_slice(&[0x00]));
        // Bytes decodes an empty body as an error (missing length prefix);
        // either way the call must return, not panic.
        let _ = rx.try_next::<Msg>();
        assert!(rx.is_empty());
    }

    #[test]
    fn link_shaper_adds_one_way_delay() {
        let mut s = LinkShaper::new();
        let policy = LinkPolicy {
            delay: Duration::from_millis(40),
            ..LinkPolicy::unshaped()
        };
        let now = Instant::now();
        let d = s.shape(now, 1000, &policy, 0.0);
        assert_eq!(d.release, now + Duration::from_millis(40));
        assert!(!d.throttled);
    }

    #[test]
    fn link_shaper_serializes_at_bandwidth_and_reports_throttling() {
        let mut s = LinkShaper::new();
        let policy = LinkPolicy {
            bytes_per_sec: 1_000_000, // 1 MB/s: 10 KB takes 10 ms on the wire
            ..LinkPolicy::unshaped()
        };
        let now = Instant::now();
        let first = s.shape(now, 10_000, &policy, 0.0);
        assert_eq!(first.release, now + Duration::from_millis(10));
        assert!(!first.throttled, "idle wire: first chunk never queues");
        // Second chunk read at the same instant queues behind the first.
        let second = s.shape(now, 10_000, &policy, 0.0);
        assert_eq!(second.release, now + Duration::from_millis(20));
        assert!(second.throttled);
    }

    #[test]
    fn link_shaper_jitter_never_reorders() {
        let mut s = LinkShaper::new();
        let policy = LinkPolicy {
            delay: Duration::from_millis(10),
            jitter_pct: 50,
            ..LinkPolicy::unshaped()
        };
        let now = Instant::now();
        // First chunk draws maximal jitter, second draws none: the
        // second's release must not undercut the first's (FIFO floor).
        let first = s.shape(now, 100, &policy, 0.999);
        let second = s.shape(now + Duration::from_micros(1), 100, &policy, 0.0);
        assert!(second.release >= first.release);
        assert!(first.delay >= Duration::from_millis(14));
    }

    #[test]
    fn link_policy_scale_delay_keeps_shape() {
        let p = LinkPolicy {
            delay: Duration::from_millis(80),
            jitter_pct: 5,
            ..LinkPolicy::unshaped()
        };
        let scaled = p.scale_delay(25);
        assert_eq!(scaled.delay, Duration::from_millis(20));
        assert_eq!(scaled.jitter_pct, 5);
        assert_eq!(p.scale_delay(100), p);
    }

    #[test]
    fn frame_buf_single_segment_body_is_view() {
        // A frame wholly inside one segment must come out without
        // stitching; we can only observe correctness, so check contents
        // and that interleaved partial header feeds still work.
        let msg = Bytes::from(vec![9u8; 100]);
        let encoded = encode_frame(&msg);
        let mut rx = FrameBuf::new();
        rx.push_bytes(encoded.slice(..1)); // header split across segments
        assert!(rx.try_next::<Bytes>().unwrap().is_none());
        rx.push_bytes(encoded.slice(1..));
        assert_eq!(rx.try_next::<Bytes>().unwrap(), Some(msg));
    }
}
