//! Userspace per-link WAN shaping for live geo deployments.
//!
//! A geo deployment (one with `[[region]]` sections, see
//! [`crate::config::GeoSpec`]) places its nodes in named regions, and
//! every directed link between two regions has a policy: one-way delay,
//! proportional jitter, a bandwidth cap, probabilistic connection-killing
//! loss and a block (directional region partitions). The policies are
//! live: [`NetemControl`] changes them mid-run.
//!
//! A node loop shapes what it sends itself: its `Net` hands each frame
//! for a shaped link to that link's `Pipe`, which asks the sans-IO
//! [`LinkShaper`] for a release time under the link's *current* policy,
//! and the frame waits in the pipe until then. Release times are monotone
//! per pipe, so send order survives shaping. A peer link is shaped by its
//! sender, from the sender's region to the destination's. A client knows
//! no region, so each geo node also listens for clients once per region
//! ([`crate::Deployment::config_from`] hands out those addresses), and
//! shapes both directions of a connection accepted on region R's
//! listener: replies as it sends them, requests before it decodes them.
//!
//! Loss and partitions surface the way a WAN surfaces them: a lost frame
//! or a frame for a blocked link cuts the connection from the sending
//! side. A blocked peer link does not dial again until it heals, and a
//! blocked client link refuses the connection at accept.
//!
//! Shaping is observable from the outside (and asserted on in tests):
//! each pipe counts into its node's stats registry — `netem_delay_ms`
//! (cumulative injected delay), `netem_dropped` (loss kills, partition
//! cuts and refused connections) and `netem_throttled_bytes` (bytes that
//! queued behind the bandwidth cap), plus `netem_to_<region>_*`
//! per-destination variants — all visible via `amcast-cli stats`.

use std::collections::{HashMap, VecDeque};
use std::net::{IpAddr, SocketAddr};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use common::error::{Error, Result};
use common::ids::NodeId;
use common::obs::{Counter, Obs};
use common::transport::{LinkPolicy, LinkShaper, ShapeDecision};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::config::DeploymentConfig;

/// Region names interned to indices, and the live policy of each directed
/// link between them: what a pipe looks up per frame, without building
/// or hashing a name.
#[derive(Default)]
struct Links {
    names: Vec<String>,
    /// `set[from][to]`: the link's policy, once one was set.
    set: Vec<Vec<Option<LinkPolicy>>>,
}

impl Links {
    fn find(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// `name`'s index, interned on first use.
    fn intern(&mut self, name: &str) -> usize {
        if let Some(region) = self.find(name) {
            return region;
        }
        self.names.push(name.to_string());
        for row in &mut self.set {
            row.push(None);
        }
        self.set.push(vec![None; self.names.len()]);
        self.names.len() - 1
    }

    fn policy(&self, from: usize, to: usize) -> LinkPolicy {
        self.set[from][to].unwrap_or_else(LinkPolicy::unshaped)
    }
}

/// Shared mutable world state: placements, live policies and the client
/// listeners each node bound per region.
struct Shared {
    region_of: HashMap<NodeId, usize>,
    /// The declared regions, each of which every node listens for.
    regions: Vec<usize>,
    /// Where the coordination service lives (`coord_region`).
    coord_region: usize,
    links: Mutex<Links>,
    /// `(region, node)`: where `node` listens for clients in `region`.
    /// Kept across a restart, which binds the same addresses again.
    listeners: Mutex<HashMap<(usize, NodeId), SocketAddr>>,
}

impl Shared {
    fn links(&self) -> std::sync::MutexGuard<'_, Links> {
        self.links.lock().expect("netem lock")
    }

    fn policy(&self, from: usize, to: usize) -> LinkPolicy {
        self.links().policy(from, to)
    }
}

/// A geo deployment's policy table, and runtime control over it — how
/// scenarios degrade and heal the WAN mid-run. Cheap to clone; all clones
/// steer the same deployment, and every node loop of it shapes through
/// one.
#[derive(Clone)]
pub struct NetemControl {
    shared: Arc<Shared>,
}

impl NetemControl {
    /// The policy table of `config`, which must carry a geography.
    ///
    /// # Errors
    ///
    /// Fails when `config` has no `[[region]]` sections.
    pub fn new(config: &DeploymentConfig) -> Result<NetemControl> {
        let geo = config
            .geo
            .as_ref()
            .ok_or_else(|| Error::Config("netem needs [[region]] sections".into()))?;
        let mut links = Links::default();
        for (from, to, policy) in geo.links() {
            let (from, to) = (links.intern(from), links.intern(to));
            links.set[from][to] = Some(policy);
        }
        let regions = geo.regions.iter().map(|r| links.intern(&r.name)).collect();
        let region_of = config
            .nodes
            .iter()
            .filter_map(|n| geo.region_of(n.id).map(|r| (n.id, links.intern(r))))
            .collect();
        Ok(NetemControl {
            shared: Arc::new(Shared {
                region_of,
                regions,
                coord_region: links.intern(&geo.coord_region),
                links: Mutex::new(links),
                listeners: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// The current policy of the directed link `from` → `to`.
    pub fn policy(&self, from: &str, to: &str) -> LinkPolicy {
        let links = self.shared.links();
        match (links.find(from), links.find(to)) {
            (Some(from), Some(to)) => links.policy(from, to),
            _ => LinkPolicy::unshaped(),
        }
    }

    /// Partitions `region` off: both directions of every link between it
    /// and any *other* region block. Intra-region traffic keeps flowing.
    pub fn partition(&self, region: &str) {
        self.set_region_blocked(region, true);
    }

    /// Heals a [`NetemControl::partition`]: unblocks both directions of
    /// every link between `region` and the rest of the world.
    pub fn heal(&self, region: &str) {
        self.set_region_blocked(region, false);
    }

    fn set_region_blocked(&self, region: &str, blocked: bool) {
        let mut links = self.shared.links();
        let Some(region) = links.find(region) else {
            return;
        };
        for (from, row) in links.set.iter_mut().enumerate() {
            for (to, policy) in row.iter_mut().enumerate() {
                if (from == region) != (to == region) {
                    if let Some(policy) = policy {
                        policy.blocked = blocked;
                    }
                }
            }
        }
    }

    /// The region `node` was placed in ("" when unplaced).
    pub fn region_of(&self, node: NodeId) -> String {
        match self.shared.region_of.get(&node) {
            Some(region) => self.shared.links().names[*region].clone(),
            None => String::new(),
        }
    }

    /// Whether `node` and the coordination service hear each other: no
    /// direction between its region and `coord_region` is blocked. The
    /// paper's Zookeeper is reached over the same WAN as the rings, so a
    /// region cut off from it cannot keep evicting healthy members.
    /// Unplaced nodes always reach it.
    pub fn reaches_coordination(&self, node: NodeId) -> bool {
        let Some(&region) = self.shared.region_of.get(&node) else {
            return true;
        };
        let coord = self.shared.coord_region;
        !self.shared.policy(region, coord).blocked && !self.shared.policy(coord, region).blocked
    }

    /// Where `node` listens for clients in `region`; `None` for a region
    /// not declared or a node that never started.
    pub(crate) fn client_addr(&self, region: &str, node: NodeId) -> Option<SocketAddr> {
        let region = self.shared.links().find(region)?;
        let listeners = self.shared.listeners.lock().expect("netem lock");
        listeners.get(&(region, node)).copied()
    }

    /// Binds a placed `node`'s client listener for every declared region
    /// through `listen`: on the address an earlier start bound, or on a
    /// fresh port of `ip`. Returns the region each bound address serves.
    pub(crate) fn bind_client_listeners(
        &self,
        node: NodeId,
        ip: IpAddr,
        mut listen: impl FnMut(SocketAddr) -> std::io::Result<SocketAddr>,
    ) -> Result<HashMap<SocketAddr, usize>> {
        let mut listeners = self.shared.listeners.lock().expect("netem lock");
        let mut serves = HashMap::new();
        if !self.shared.region_of.contains_key(&node) {
            return Ok(serves);
        }
        for &region in &self.shared.regions {
            let addr = listeners.get(&(region, node)).copied();
            let bound = listen(addr.unwrap_or(SocketAddr::new(ip, 0)))?;
            listeners.insert((region, node), bound);
            serves.insert(bound, region);
        }
        Ok(serves)
    }

    /// The pipe `from` sends to its peer `to` through, counted in `obs`;
    /// `None` unless both are placed.
    pub(crate) fn peer_pipe(&self, from: NodeId, to: NodeId, obs: &Obs) -> Option<Pipe> {
        let region_of = &self.shared.region_of;
        let (from_region, to_region) = (*region_of.get(&from)?, *region_of.get(&to)?);
        let seed = u64::from(from.raw()) << 32 | u64::from(to.raw());
        Some(self.pipe(from_region, to_region, obs, seed))
    }

    /// The pipes of a client connection the placed `node` accepted on its
    /// listener for `region`: its requests, then its replies. A client has
    /// no registry of its own, so both count in `node`'s `obs`.
    pub(crate) fn client_pipes(
        &self,
        region: usize,
        node: NodeId,
        obs: &Obs,
        seed: u64,
    ) -> Option<(Pipe, Pipe)> {
        let home = *self.shared.region_of.get(&node)?;
        let requests = self.pipe(region, home, obs, seed);
        Some((requests, self.pipe(home, region, obs, !seed)))
    }

    fn pipe(&self, from: usize, to: usize, obs: &Obs, seed: u64) -> Pipe {
        let name = self.shared.links().names[to].clone();
        Pipe {
            shared: Arc::clone(&self.shared),
            from,
            to,
            shaper: LinkShaper::new(),
            rng: StdRng::seed_from_u64(seed),
            counters: PipeCounters::new(obs, &name),
            wire: VecDeque::new(),
        }
    }
}

/// Per-pipe stats sinks: the aggregate triple plus the
/// per-destination-region variants, all in the shaping node's registry.
struct PipeCounters {
    /// Injected delay not yet counted: less than a millisecond, carried
    /// over so that sub-millisecond delays add up rather than round away.
    carried: Duration,
    delay_ms: Counter,
    dropped: Counter,
    throttled: Counter,
    to_delay_ms: Counter,
    to_dropped: Counter,
    to_throttled: Counter,
}

impl PipeCounters {
    fn new(obs: &Obs, to_region: &str) -> PipeCounters {
        let slug = to_region.replace('-', "_");
        PipeCounters {
            carried: Duration::ZERO,
            delay_ms: obs.counter("netem_delay_ms"),
            dropped: obs.counter("netem_dropped"),
            throttled: obs.counter("netem_throttled_bytes"),
            to_delay_ms: obs.counter(&format!("netem_to_{slug}_delay_ms")),
            to_dropped: obs.counter(&format!("netem_to_{slug}_dropped")),
            to_throttled: obs.counter(&format!("netem_to_{slug}_throttled_bytes")),
        }
    }

    fn note(&mut self, d: &ShapeDecision, bytes: usize) {
        let delay = self.carried + d.delay;
        let ms = delay.as_millis() as u64;
        self.carried = delay - Duration::from_millis(ms);
        self.delay_ms.add(ms);
        self.to_delay_ms.add(ms);
        if d.throttled {
            self.throttled.add(bytes as u64);
            self.to_throttled.add(bytes as u64);
        }
    }

    fn drop_one(&self) {
        self.dropped.inc();
        self.to_dropped.inc();
    }
}

/// One shaped direction of one link: a delay line on the loop that sends
/// into it. What is in it waits for its release time; what comes out
/// leaves in the order it went in.
pub(crate) struct Pipe {
    shared: Arc<Shared>,
    /// The regions at either end, interned.
    from: usize,
    to: usize,
    shaper: LinkShaper,
    rng: StdRng,
    counters: PipeCounters,
    /// What is on the wire, in send order, with release times.
    wire: VecDeque<(Instant, Bytes)>,
}

impl Pipe {
    /// Whether a connection may open over the link: it is not blocked. A
    /// refused connection counts as dropped.
    pub(crate) fn admits(&self) -> bool {
        let blocked = self.shared.policy(self.from, self.to).blocked;
        if blocked {
            self.counters.drop_one();
        }
        !blocked
    }

    /// Puts `bytes` on the wire at `now` under the link's current policy
    /// and returns their release time. `None` when the link is blocked or
    /// the loss draw hits: they are dropped, with everything on the wire,
    /// and the sender cuts the connection.
    pub(crate) fn send(&mut self, now: Instant, bytes: Bytes) -> Option<Instant> {
        let policy = self.shared.policy(self.from, self.to);
        if policy.blocked
            || (policy.loss_pct > 0 && self.rng.random_range(0u32..100) < policy.loss_pct)
        {
            self.counters.drop_one();
            self.wire.clear();
            return None;
        }
        let d = self
            .shaper
            .shape(now, bytes.len(), &policy, self.rng.random::<f64>());
        self.counters.note(&d, bytes.len());
        self.wire.push_back((d.release, bytes));
        Some(d.release)
    }

    /// The next bytes whose release time has come by `now`.
    pub(crate) fn due(&mut self, now: Instant) -> Option<Bytes> {
        if self.wire.front()?.0 > now {
            return None;
        }
        self.wire.pop_front().map(|(_, bytes)| bytes)
    }

    /// When the next bytes are released, if any are on the wire.
    pub(crate) fn next_release(&self) -> Option<Instant> {
        self.wire.front().map(|(at, _)| *at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{free_port_block, generate_localhost_mrpstore, with_geo};
    use crate::net::Net;
    use common::transport::FrameBuf;
    use common::wire::client::{ClientMsg, ClientReply};
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A loop's sockets whose frames are raw `Bytes`.
    type TestNet = Net<Bytes, ()>;

    /// A two-node world with custom region names 40 ms apart; node 1's
    /// peer listener is played by the test itself. `link` adds keys to
    /// the left → right link.
    fn netem_with(link: &str) -> (NetemControl, DeploymentConfig) {
        let base = generate_localhost_mrpstore(1, 2, free_port_block(4).unwrap(), None);
        let mut doc = with_geo(&base, &[("left", &[0]), ("right", &[1])], 100);
        doc.push_str("\n[[link]]\nfrom = \"left\"\nto = \"right\"\nrtt_ms = 40\n");
        doc.push_str(link);
        let config = DeploymentConfig::parse(&doc).unwrap();
        (NetemControl::new(&config).unwrap(), config)
    }

    fn test_netem() -> (NetemControl, DeploymentConfig) {
        netem_with("")
    }

    /// Node 0's sockets, its link to node 1 shaped and counted in `obs`
    /// the way its node loop shapes it; and node 1's peer address.
    fn shaped_net(
        control: &NetemControl,
        config: &DeploymentConfig,
        obs: &Obs,
    ) -> (TestNet, SocketAddr) {
        let mut net = Net::new("test-dial".into(), Counter::default()).unwrap();
        let peer = config.nodes[1].peer_addr;
        let pipe = control.peer_pipe(NodeId::new(0), NodeId::new(1), obs);
        net.shape_link(peer, pipe.unwrap());
        (net, peer)
    }

    /// Node 1's peer listener, played by the test.
    fn target(config: &DeploymentConfig) -> TcpListener {
        let target = TcpListener::bind(config.nodes[1].peer_addr).unwrap();
        target.set_nonblocking(true).unwrap();
        target
    }

    /// Turns `net` until `done` yields, for at most five seconds.
    fn turn_until<T>(net: &mut TestNet, mut done: impl FnMut() -> Option<T>) -> Option<T> {
        let end = Instant::now() + Duration::from_secs(5);
        let mut events = Vec::new();
        while Instant::now() < end {
            if let Some(done) = done() {
                return Some(done);
            }
            net.wait(Duration::from_millis(1), &mut events);
        }
        None
    }

    /// Turns `net` until `target` accepts the link's connection.
    fn accept(net: &mut TestNet, target: &TcpListener) -> TcpStream {
        let (stream, _) = turn_until(net, || target.accept().ok()).expect("the link dialled");
        stream.set_nonblocking(true).unwrap();
        stream
    }

    /// Turns `net` until a whole frame has arrived on `stream`.
    fn frame(net: &mut TestNet, stream: &mut TcpStream, buf: &mut FrameBuf) -> Option<Bytes> {
        turn_until(net, || {
            let mut chunk = [0u8; 4096];
            if let Ok(n) = stream.read(&mut chunk) {
                buf.extend(&chunk[..n]);
            }
            buf.try_next().ok().flatten()
        })
    }

    #[test]
    fn relays_shape_and_count_delay() {
        let (control, config) = test_netem();
        let obs = Obs::for_node(0);
        let target = target(&config);
        let (mut net, peer) = shaped_net(&control, &config, &obs);

        let started = Instant::now();
        net.send_to(peer, &Bytes::from_static(b"ping"));
        let mut accepted = accept(&mut net, &target);
        let buf = frame(&mut net, &mut accepted, &mut FrameBuf::new()).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(&buf[..], b"ping");
        // One-way delay of the 40 ms RTT link, modulo jitter.
        assert!(
            elapsed >= Duration::from_millis(20),
            "arrived in {elapsed:?}"
        );
        let snap = obs.snapshot();
        assert!(snap.counter("netem_delay_ms").unwrap_or(0) >= 20);
        assert!(snap.counter("netem_to_right_delay_ms").unwrap_or(0) >= 20);
    }

    #[test]
    fn partition_cuts_and_heal_restores() {
        let (control, config) = test_netem();
        let obs = Obs::for_node(0);
        let target = target(&config);
        let (mut net, peer) = shaped_net(&control, &config, &obs);

        // Establish the link once.
        net.send_to(peer, &Bytes::from_static(b"hi"));
        let mut accepted = accept(&mut net, &target);
        let buf = frame(&mut net, &mut accepted, &mut FrameBuf::new());
        assert_eq!(buf.as_deref(), Some(&b"hi"[..]));

        control.partition("right");
        assert!(control.policy("left", "right").blocked);
        assert!(control.policy("right", "left").blocked);
        // The live connection is cut on the next frame...
        net.send_to(peer, &Bytes::from_static(b"xx"));
        accepted.set_nonblocking(false).unwrap();
        let mut probe = [0u8; 1];
        assert_eq!(accepted.read(&mut probe).unwrap_or(0), 0, "cut to EOF");
        // ...and the link does not dial again while it stays blocked.
        net.send_to(peer, &Bytes::from_static(b"yy"));
        let end = Instant::now() + Duration::from_millis(100);
        assert!(turn_until(&mut net, || (Instant::now() >= end).then_some(())).is_some());
        assert!(target.accept().is_err(), "a blocked link dialled");

        control.heal("right");
        assert!(!control.policy("left", "right").blocked);
        net.send_to(peer, &Bytes::from_static(b"ok"));
        let mut accepted = accept(&mut net, &target);
        let buf = frame(&mut net, &mut accepted, &mut FrameBuf::new());
        assert_eq!(buf.as_deref(), Some(&b"ok"[..]));

        let snap = obs.snapshot();
        assert!(snap.counter("netem_dropped").unwrap_or(0) >= 1);
    }

    /// Shaping fidelity: a thousand small frames through a link of 20 ms
    /// one way and 50 % jitter arrive in the order they were sent, and
    /// none before its release time — at least the link's one-way delay
    /// after it was sent.
    #[test]
    fn jittered_link_keeps_send_order_and_never_releases_early() {
        const FRAMES: u32 = 1000;
        let one_way = Duration::from_millis(20);
        let (control, config) = netem_with("jitter_pct = 50\n");
        let target = TcpListener::bind(config.nodes[1].peer_addr).unwrap();
        let (mut net, peer) = shaped_net(&control, &config, &Obs::for_node(0));
        let epoch = Instant::now();
        let done = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&done);
        // The sending loop: a frame every 200 µs, then turns until the
        // last one is read.
        let sender = std::thread::spawn(move || {
            let mut events = Vec::new();
            for seq in 0..FRAMES {
                let sent = epoch.elapsed().as_nanos() as u64;
                let mut frame = [0u8; 12];
                frame[..4].copy_from_slice(&seq.to_le_bytes());
                frame[4..].copy_from_slice(&sent.to_le_bytes());
                net.send_to(peer, &Bytes::copy_from_slice(&frame));
                let next = Instant::now() + Duration::from_micros(200);
                while let Some(left) = next.checked_duration_since(Instant::now()) {
                    net.wait(left, &mut events);
                }
            }
            while !stop.load(Ordering::SeqCst) {
                net.wait(Duration::from_millis(1), &mut events);
            }
        });
        let (mut accepted, _) = target.accept().unwrap();
        let (mut buf, mut chunk) = (FrameBuf::new(), [0u8; 4096]);
        let mut after_delay = Vec::new();
        for want in 0..FRAMES {
            let frame: Bytes = loop {
                if let Some(frame) = buf.try_next().unwrap() {
                    break frame;
                }
                let n = accepted.read(&mut chunk).unwrap();
                assert!(n > 0, "the link closed");
                buf.extend(&chunk[..n]);
            };
            let arrived = epoch.elapsed();
            let seq = u32::from_le_bytes(frame[..4].try_into().unwrap());
            let sent = Duration::from_nanos(u64::from_le_bytes(frame[4..].try_into().unwrap()));
            assert_eq!(seq, want, "frames arrive in send order");
            assert!(
                arrived >= sent + one_way,
                "frame {seq} arrived {:?} after it was sent",
                arrived - sent
            );
            after_delay.push(arrived - sent - one_way);
        }
        done.store(true, Ordering::SeqCst);
        sender.join().unwrap();
        after_delay.sort_unstable();
        let at = |q: usize| after_delay[(after_delay.len() - 1) * q / 100];
        // Jitter (up to 10 ms here) plus the loop's own lateness.
        eprintln!(
            "arrival after send + one-way delay: p50 {:?}, p99 {:?}",
            at(50),
            at(99)
        );
    }

    /// A client in a region with no node of its own reaches the node
    /// through the node's listener for that region: its requests and the
    /// node's replies each wait out the link's one-way delay, and both
    /// count against the node.
    #[test]
    fn a_region_listener_shapes_and_counts_both_directions_of_a_client() {
        let base = generate_localhost_mrpstore(1, 1, free_port_block(2).unwrap(), None);
        let mut doc = with_geo(&base, &[("left", &[0]), ("right", &[])], 100);
        doc.push_str("\n[[link]]\nfrom = \"left\"\nto = \"right\"\nrtt_ms = 40\n");
        let config = DeploymentConfig::parse(&doc).unwrap();
        let deployment = crate::Deployment::launch(config.clone()).unwrap();
        let plain = config.nodes[0].client_addr;
        let from_right = deployment.config_from("right").unwrap().nodes[0].client_addr;
        assert_ne!(from_right, plain);
        assert_eq!(
            deployment.config_from("nowhere").unwrap().nodes[0].client_addr,
            plain
        );

        let started = Instant::now();
        let ping = ClientMsg::Ping { token: 7 };
        let pong = crate::net::call(from_right, &ping, Duration::from_secs(5), |r| {
            matches!(r, ClientReply::Pong { token: 7 }).then_some(())
        });
        let elapsed = started.elapsed();
        assert!(pong.is_ok(), "{pong:?}");
        // 20 ms there and 20 ms back, modulo jitter.
        assert!(
            elapsed >= Duration::from_millis(40),
            "answered in {elapsed:?}"
        );
        // Requests count toward the node's region, replies toward the
        // client's.
        let snap = crate::fetch_stats(plain, Duration::from_secs(5)).unwrap();
        assert!(snap.counter("netem_to_left_delay_ms").unwrap_or(0) >= 20);
        assert!(snap.counter("netem_to_right_delay_ms").unwrap_or(0) >= 20);
        assert!(snap.counter("netem_delay_ms").unwrap_or(0) >= 40);
        deployment.shutdown();
    }
}
