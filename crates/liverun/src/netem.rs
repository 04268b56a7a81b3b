//! Userspace per-link network shaping for live deployments.
//!
//! A geo deployment (one with `[[region]]` sections, see
//! [`crate::config::GeoSpec`]) does not let its nodes talk to each other
//! directly: [`crate::Deployment`] interposes one tiny TCP relay on every
//! *directed* peer link (and, on demand, on client links), so a 6-node
//! loopback process experiences the paper's WAN — per-link one-way
//! delay, proportional jitter, bandwidth caps, probabilistic
//! connection-killing loss and directional region partitions — while
//! the nodes themselves keep speaking plain TCP to what they believe
//! are their peers.
//!
//! The mechanics per relayed connection: one shaping loop (a `net::Net`
//! on a thread of its own) owns every relay, and a connection accepted on
//! one is paired with a connection the loop dials to the real target;
//! bytes pass through undecoded. Each chunk read off either end consults
//! the *current* link policy (shared state, mutable at runtime through
//! [`NetemControl`]), asks the sans-IO [`LinkShaper`] for a release time
//! and waits in the loop's timer heap until then. Release times are
//! monotone per direction and the heap keeps push order among equals, so
//! TCP byte order survives shaping. Loss and partitions surface exactly
//! the way a WAN surfaces them: the connection dies and the sender's link
//! re-dials — against a blocked link the reconnect is cut at accept time.
//!
//! Shaping is observable from the outside (and asserted on in tests):
//! each relayed direction counts into the *sending* node's stats
//! registry — `netem_delay_ms` (cumulative injected delay),
//! `netem_dropped` (loss kills and partition cuts) and
//! `netem_throttled_bytes` (bytes that queued behind the bandwidth
//! cap), plus `netem_to_<region>_*` per-destination variants — all
//! visible via `amcast-cli stats`.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use common::error::{Error, Result};
use common::ids::NodeId;
use common::obs::{Counter, Obs};
use common::process::TimerHeap;
use common::transport::{LinkPolicy, LinkShaper, ShapeDecision};
use crossbeam::channel::{bounded, Sender};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::config::DeploymentConfig;
use crate::net::{spawn_loop, ConnId, Event, Mailer, Net, Reader};

/// Shaping granularity: also the quantum the bandwidth serialization
/// clock advances by (16 KiB at 1 Gbps ≈ 128 µs).
const CHUNK: usize = 16 * 1024;

/// Pause before re-dialling a target that has never answered.
const REDIAL: Duration = Duration::from_millis(20);

/// Region names interned to indices, and the live policy of each directed
/// link between them: what the shaping loop looks up per chunk, without
/// building or hashing a name.
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

    /// The policy of the link `from` → `to`, set unshaped if it was not.
    fn entry(&mut self, from: &str, to: &str) -> &mut LinkPolicy {
        let (from, to) = (self.intern(from), self.intern(to));
        self.set[from][to].get_or_insert_with(LinkPolicy::unshaped)
    }
}

/// Shared mutable world state: placements, live policies, stats sinks.
struct Shared {
    region_of: HashMap<NodeId, usize>,
    /// Where the coordination service lives (`coord_region`).
    coord_region: usize,
    links: Mutex<Links>,
    obs: Mutex<HashMap<NodeId, Obs>>,
}

impl Shared {
    fn links(&self) -> std::sync::MutexGuard<'_, Links> {
        self.links.lock().expect("netem lock")
    }

    fn policy(&self, from: usize, to: usize) -> LinkPolicy {
        self.links().policy(from, to)
    }

    /// `node`'s region; "" (interned) when unplaced.
    fn region(&self, node: NodeId) -> usize {
        match self.region_of.get(&node) {
            Some(region) => *region,
            None => self.links().intern(""),
        }
    }

    fn name(&self, region: usize) -> String {
        self.links().names[region].clone()
    }

    fn obs_of(&self, node: NodeId) -> Obs {
        self.obs
            .lock()
            .expect("netem lock")
            .get(&node)
            .cloned()
            .unwrap_or_else(|| Obs::for_node(node.raw()))
    }
}

/// Runtime control over a deployment's link policies — how scenarios
/// degrade and heal the WAN mid-run. Cheap to clone; all clones steer
/// the same deployment.
#[derive(Clone)]
pub struct NetemControl {
    shared: Arc<Shared>,
}

impl NetemControl {
    /// The current policy of the directed link `from` → `to`.
    pub fn policy(&self, from: &str, to: &str) -> LinkPolicy {
        let links = self.shared.links();
        match (links.find(from), links.find(to)) {
            (Some(from), Some(to)) => links.policy(from, to),
            _ => LinkPolicy::unshaped(),
        }
    }

    /// Replaces the policy of the directed link `from` → `to`. Existing
    /// connections pick the change up on their next chunk.
    pub fn set_link(&self, from: &str, to: &str, policy: LinkPolicy) {
        *self.shared.links().entry(from, to) = policy;
    }

    /// Blocks or unblocks the directed link `from` → `to` (asymmetric
    /// partitions: a region that can send but not hear, or vice versa).
    pub fn set_blocked(&self, from: &str, to: &str, blocked: bool) {
        self.shared.links().entry(from, to).blocked = blocked;
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
        self.shared.name(self.shared.region(node))
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
}

/// What reaches the shaping loop from other threads.
enum Mail {
    /// Open a relay listener and answer with its address.
    Open(Relay, Sender<Result<SocketAddr>>),
    /// Stop the loop, closing every relay and relayed connection.
    Stop,
}

/// The live shaping fabric of one deployment: one relay listener per
/// directed peer link plus lazily created client-side relays, all served
/// by one shaping loop.
pub struct Netem {
    shared: Arc<Shared>,
    peer_proxies: HashMap<(NodeId, NodeId), SocketAddr>,
    client_proxies: Mutex<HashMap<(String, NodeId), SocketAddr>>,
    client_targets: HashMap<NodeId, SocketAddr>,
    mailer: Mailer<Mail>,
    join: Mutex<Option<JoinHandle<()>>>,
}

impl Netem {
    /// Builds the fabric for `config` (which must carry a geography):
    /// binds one ephemeral relay listener per directed pair of placed
    /// nodes and starts the shaping loop. Nodes outside every region
    /// keep their direct links.
    ///
    /// # Errors
    ///
    /// Fails when `config` has no `[[region]]` sections, a relay
    /// listener cannot bind or the loop cannot start.
    pub fn start(config: &DeploymentConfig) -> Result<Netem> {
        let geo = config
            .geo
            .as_ref()
            .ok_or_else(|| Error::Config("netem needs [[region]] sections".into()))?;
        let mut links = Links::default();
        for (from, to, policy) in geo.links() {
            *links.entry(from, to) = policy;
        }
        let region_of = config
            .nodes
            .iter()
            .filter_map(|n| geo.region_of(n.id).map(|r| (n.id, links.intern(r))))
            .collect();
        let shared = Arc::new(Shared {
            region_of,
            coord_region: links.intern(&geo.coord_region),
            links: Mutex::new(links),
            obs: Mutex::new(HashMap::new()),
        });
        let mut shaper = Shaper {
            // Not a node's writer: `writer_vectored_frames` counts those.
            net: Net::new("amcast-netem-dial".into(), Counter::default())?,
            shared: Arc::clone(&shared),
            relays: HashMap::new(),
            ends: HashMap::new(),
            timers: TimerHeap::new(),
        };
        let mut peer_proxies = HashMap::new();
        for from in &config.nodes {
            for to in &config.nodes {
                if from.id == to.id
                    || !shared.region_of.contains_key(&from.id)
                    || !shared.region_of.contains_key(&to.id)
                {
                    continue;
                }
                let addr = shaper.open(Relay {
                    src: Some(from.id),
                    src_region: shared.region(from.id),
                    dst_region: shared.region(to.id),
                    dst: to.id,
                    target: to.peer_addr,
                    ever: false,
                })?;
                peer_proxies.insert((from.id, to.id), addr);
            }
        }
        let mailer = shaper.net.mailer();
        let join = spawn_loop("amcast-netem".into(), move || shaper.run())?;
        Ok(Netem {
            shared,
            peer_proxies,
            client_proxies: Mutex::new(HashMap::new()),
            client_targets: config.nodes.iter().map(|n| (n.id, n.client_addr)).collect(),
            mailer,
            join: Mutex::new(Some(join)),
        })
    }

    /// A runtime control handle for this fabric.
    pub fn control(&self) -> NetemControl {
        NetemControl {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Registers `node`'s stats registry: its relayed links count into
    /// these counters. Called by the deployment as it starts each node.
    pub fn attach_obs(&self, node: NodeId, obs: Obs) {
        self.shared
            .obs
            .lock()
            .expect("netem lock")
            .insert(node, obs);
    }

    /// The relay address node `from` should dial instead of `to`'s real
    /// peer address (`None` when the pair is unshaped).
    pub fn peer_addr(&self, from: NodeId, to: NodeId) -> Option<SocketAddr> {
        self.peer_proxies.get(&(from, to)).copied()
    }

    /// The relay address a client *in* `from_region` should use to reach
    /// `node`'s client listener; created on first use, by the running
    /// shaping loop. Both directions of the client link are shaped and
    /// counted against `node`.
    ///
    /// # Errors
    ///
    /// Fails for unknown nodes, when the relay cannot bind, or once the
    /// fabric has stopped.
    pub fn client_addr(&self, from_region: &str, node: NodeId) -> Result<SocketAddr> {
        let key = (from_region.to_string(), node);
        let mut proxies = self.client_proxies.lock().expect("netem lock");
        if let Some(addr) = proxies.get(&key) {
            return Ok(*addr);
        }
        let target = *self
            .client_targets
            .get(&node)
            .ok_or_else(|| Error::Config(format!("netem: unknown node {node}")))?;
        let relay = Relay {
            src: None,
            src_region: self.shared.links().intern(from_region),
            dst_region: self.shared.region(node),
            dst: node,
            target,
            ever: false,
        };
        // A stopped loop drops the mail, and with it the answer's sender.
        let (tx, rx) = bounded(1);
        self.mailer.post(Mail::Open(relay, tx));
        let stopped = Error::Config("netem: stopped".into());
        let addr = rx.recv().map_err(|_| stopped)??;
        proxies.insert(key, addr);
        Ok(addr)
    }

    /// Stops the shaping loop and joins it: every relay port is released
    /// and every relayed connection closed when this returns.
    pub fn stop(&self) {
        self.mailer.post(Mail::Stop);
        if let Some(join) = self.join.lock().expect("netem lock").take() {
            let _ = join.join();
        }
    }
}

/// Per-direction stats sinks: the aggregate triple plus the
/// per-destination-region variants, all in the sending side's registry.
struct PipeCounters {
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
            delay_ms: obs.counter("netem_delay_ms"),
            dropped: obs.counter("netem_dropped"),
            throttled: obs.counter("netem_throttled_bytes"),
            to_delay_ms: obs.counter(&format!("netem_to_{slug}_delay_ms")),
            to_dropped: obs.counter(&format!("netem_to_{slug}_dropped")),
            to_throttled: obs.counter(&format!("netem_to_{slug}_throttled_bytes")),
        }
    }

    fn note(&self, d: &ShapeDecision, bytes: usize) {
        let ms = d.delay.as_millis() as u64;
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

/// A relay listener: the `src` → `dst` link it shapes, and its target.
struct Relay {
    /// The sending node; `None` for a client, which has no registry of
    /// its own: both directions of its link count against `dst`.
    src: Option<NodeId>,
    /// The regions at either end, interned.
    src_region: usize,
    dst_region: usize,
    dst: NodeId,
    target: SocketAddr,
    /// The target has answered once: from now on a failed dial cuts the
    /// connection at once instead of retrying patiently (the deployment
    /// was launching) — the hold-then-drop of `net::Net::send_to`.
    ever: bool,
}

/// One end of a relayed connection — the sender's connection to the
/// relay or the loop's to the target — and the shaping of what it sends.
struct End {
    /// The other end, once the target has answered.
    peer: Option<ConnId>,
    /// Regions whose link policy applies, interned.
    from: usize,
    to: usize,
    shaper: LinkShaper,
    rng: StdRng,
    counters: PipeCounters,
}

impl End {
    /// The end `conn`, whose loss and jitter draws it also seeds.
    fn new(
        conn: ConnId,
        peer: Option<ConnId>,
        (from, to): (usize, usize),
        shared: &Shared,
        obs: &Obs,
    ) -> End {
        End {
            peer,
            counters: PipeCounters::new(obs, &shared.name(to)),
            from,
            to,
            shaper: LinkShaper::new(),
            rng: StdRng::seed_from_u64(conn),
        }
    }
}

/// A deadline in the shaping loop's timer heap.
enum Due {
    /// A chunk leaves on the connection; an empty one is the close of
    /// its sender, released behind everything that sender sent.
    Chunk(ConnId, Bytes),
    /// Dial again for a sender accepted on the relay.
    Redial(ConnId, SocketAddr),
}

/// The shaping loop: every relay and relayed connection, on one thread.
struct Shaper {
    net: Net<Bytes, Mail>,
    shared: Arc<Shared>,
    /// Relays by listener address.
    relays: HashMap<SocketAddr, Relay>,
    ends: HashMap<ConnId, End>,
    timers: TimerHeap<Instant, Due>,
}

impl Shaper {
    fn run(mut self) {
        let mut events = Vec::new();
        loop {
            let sleep = self.timers.sleep_for(Duration::from_secs(1));
            self.net.wait(sleep, &mut events);
            for event in events.drain(..) {
                match event {
                    Event::Accepted(conn, relay) => self.accepted(conn, relay),
                    Event::Frame(conn, bytes) => self.read(conn, bytes),
                    Event::Closed(conn) => self.ended(conn),
                    Event::LinkDown(_) => {}
                    Event::Mail(Mail::Open(relay, answer)) => {
                        let _ = answer.send(self.open(relay));
                    }
                    Event::Mail(Mail::Stop) => return,
                }
            }
            while let Some(due) = self.timers.pop_due(Instant::now()) {
                match due {
                    Due::Chunk(to, bytes) => self.release(to, bytes),
                    Due::Redial(conn, relay) => self.dial(conn, relay),
                }
            }
        }
    }

    /// Binds a relay listener on an ephemeral localhost port.
    fn open(&mut self, relay: Relay) -> Result<SocketAddr> {
        let any_port = SocketAddr::from(([127, 0, 0, 1], 0));
        let addr = self.net.listen(any_port, Reader::Raw(|bytes| bytes))?;
        self.relays.insert(addr, relay);
        Ok(addr)
    }

    fn accepted(&mut self, conn: ConnId, relay: SocketAddr) {
        let r = &self.relays[&relay];
        let obs = self.shared.obs_of(r.src.unwrap_or(r.dst));
        let regions = (r.src_region, r.dst_region);
        let end = End::new(conn, None, regions, &self.shared, &obs);
        self.ends.insert(conn, end);
        self.dial(conn, relay);
    }

    /// Dials the target for the sender `conn`, unless its link is
    /// blocked.
    fn dial(&mut self, conn: ConnId, relay: SocketAddr) {
        let (Some(sender), Some(r)) = (self.ends.get(&conn), self.relays.get_mut(&relay)) else {
            return;
        };
        if self.shared.policy(sender.from, sender.to).blocked {
            // Partitioned: cut the reconnect attempt at the door.
            sender.counters.drop_one();
        } else {
            let timeout = Duration::from_millis(250);
            match self.net.connect(r.target, Reader::Raw(|b| b), timeout) {
                Ok(target) => {
                    r.ever = true;
                    let regions = (sender.to, sender.from);
                    let obs = self.shared.obs_of(r.dst);
                    let end = End::new(target, Some(conn), regions, &self.shared, &obs);
                    self.ends.insert(target, end);
                    self.ends.get_mut(&conn).expect("the sender").peer = Some(target);
                    return self.net.pause(conn, false);
                }
                Err(_) if !r.ever => {
                    // The sender's bytes wait in its socket meanwhile.
                    self.net.pause(conn, true);
                    return self.timers.push_after(REDIAL, Due::Redial(conn, relay));
                }
                // The link worked before, so the target is down (killed
                // node): fail fast and let the sender back off.
                Err(_) => {}
            }
        }
        self.net.close(conn);
        self.ends.remove(&conn);
    }

    /// Shapes what `conn` sent: each chunk waits in the timer heap until
    /// its release time.
    fn read(&mut self, conn: ConnId, mut bytes: Bytes) {
        let Some(end) = self.ends.get_mut(&conn) else {
            return;
        };
        let Some(to) = end.peer else {
            return;
        };
        let policy = self.shared.policy(end.from, end.to);
        let now = Instant::now();
        while !bytes.is_empty() {
            if policy.blocked
                || (policy.loss_pct > 0 && end.rng.random_range(0u32..100) < policy.loss_pct)
            {
                // Kill the connection the way a WAN would: the sender
                // sees a reset and reconnects (into a closed door while
                // the link stays blocked).
                end.counters.drop_one();
                self.net.close(conn);
                return self.ended(conn);
            }
            let chunk = bytes.split_to(bytes.len().min(CHUNK));
            let d = end
                .shaper
                .shape(now, chunk.len(), &policy, end.rng.random::<f64>());
            end.counters.note(&d, chunk.len());
            self.timers.push_at(d.release, Due::Chunk(to, chunk));
        }
    }

    /// `conn` is gone: its close reaches its peer behind what it sent.
    fn ended(&mut self, conn: ConnId) {
        let Some(mut end) = self.ends.remove(&conn) else {
            return;
        };
        if let Some(peer) = end.peer {
            let d = end
                .shaper
                .shape(Instant::now(), 0, &LinkPolicy::unshaped(), 0.0);
            self.timers
                .push_at(d.release, Due::Chunk(peer, Bytes::new()));
        }
    }

    /// A chunk's release time has come: it leaves on `to`, if still there.
    fn release(&mut self, to: ConnId, bytes: Bytes) {
        if bytes.is_empty() {
            if self.ends.remove(&to).is_some() {
                self.net.close_after_flush(to);
            }
        } else if self.ends.contains_key(&to) && !self.net.send_bytes(to, bytes) {
            // `to` stopped reading, and a byte stream cannot shed: the
            // connection dies.
            self.net.close(to);
            self.ended(to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{generate_localhost_mrpstore, with_geo};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    /// A two-node world with custom region names 40 ms apart; node 1's
    /// peer listener is played by the test itself. `link` adds keys to
    /// the left → right link.
    fn netem_with(link: &str) -> (Netem, DeploymentConfig) {
        let base_port = crate::config::free_port_block(4).unwrap();
        let base = generate_localhost_mrpstore(1, 2, base_port, None);
        let mut doc = with_geo(&base, &[("left", &[0]), ("right", &[1])], 100);
        doc.push_str("\n[[link]]\nfrom = \"left\"\nto = \"right\"\nrtt_ms = 40\n");
        doc.push_str(link);
        let config = DeploymentConfig::parse(&doc).unwrap();
        let netem = Netem::start(&config).unwrap();
        (netem, config)
    }

    fn test_netem() -> (Netem, DeploymentConfig) {
        netem_with("")
    }

    #[test]
    fn relays_shape_and_count_delay() {
        let (netem, config) = test_netem();
        let obs = Obs::for_node(0);
        netem.attach_obs(NodeId::new(0), obs.clone());
        let target = TcpListener::bind(config.nodes[1].peer_addr).unwrap();
        let proxy = netem.peer_addr(NodeId::new(0), NodeId::new(1)).unwrap();
        assert_ne!(proxy, config.nodes[1].peer_addr);

        let mut sender = TcpStream::connect(proxy).unwrap();
        let started = Instant::now();
        sender.write_all(b"ping").unwrap();
        let (mut accepted, _) = target.accept().unwrap();
        let mut buf = [0u8; 4];
        accepted.read_exact(&mut buf).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(&buf, b"ping");
        // One-way delay of the 40 ms RTT link, modulo jitter.
        assert!(
            elapsed >= Duration::from_millis(20),
            "arrived in {elapsed:?}"
        );
        let snap = obs.snapshot();
        assert!(snap.counter("netem_delay_ms").unwrap_or(0) >= 20);
        assert!(snap.counter("netem_to_right_delay_ms").unwrap_or(0) >= 20);

        // The reverse direction counts against node 1 (attached late —
        // relays resolve the registry per connection).
        netem.stop();
    }

    #[test]
    fn partition_cuts_and_heal_restores() {
        let (netem, config) = test_netem();
        let obs = Obs::for_node(0);
        netem.attach_obs(NodeId::new(0), obs.clone());
        let target = TcpListener::bind(config.nodes[1].peer_addr).unwrap();
        let proxy = netem.peer_addr(NodeId::new(0), NodeId::new(1)).unwrap();
        let control = netem.control();

        // Establish the link once so the relay enters fail-fast mode.
        let mut sender = TcpStream::connect(proxy).unwrap();
        sender.write_all(b"hi").unwrap();
        let (mut accepted, _) = target.accept().unwrap();
        let mut buf = [0u8; 2];
        accepted.read_exact(&mut buf).unwrap();

        control.partition("right");
        assert!(control.policy("left", "right").blocked);
        assert!(control.policy("right", "left").blocked);
        // The live connection is cut on the next chunk...
        let _ = sender.write_all(b"xx");
        let mut probe = [0u8; 1];
        assert_eq!(accepted.read(&mut probe).unwrap_or(0), 0, "cut to EOF");
        // ...and reconnects die at the door.
        let mut again = TcpStream::connect(proxy).unwrap();
        let _ = again.write_all(b"yy");
        assert_eq!(again.read(&mut probe).unwrap_or(0), 0);

        control.heal("right");
        assert!(!control.policy("left", "right").blocked);
        let mut sender = TcpStream::connect(proxy).unwrap();
        sender.write_all(b"ok").unwrap();
        let (mut accepted, _) = target.accept().unwrap();
        accepted.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ok");

        let snap = obs.snapshot();
        assert!(snap.counter("netem_dropped").unwrap_or(0) >= 1);
        netem.stop();
    }

    /// Shaping fidelity: a thousand small writes through a link of 20 ms
    /// one way and 50 % jitter arrive in the order they were sent, and
    /// none before its release time — at least the link's one-way delay
    /// after it was sent.
    #[test]
    fn jittered_link_keeps_send_order_and_never_releases_early() {
        const FRAMES: u32 = 1000;
        let one_way = Duration::from_millis(20);
        let (netem, config) = netem_with("jitter_pct = 50\n");
        let target = TcpListener::bind(config.nodes[1].peer_addr).unwrap();
        let proxy = netem.peer_addr(NodeId::new(0), NodeId::new(1)).unwrap();
        let mut sender = TcpStream::connect(proxy).unwrap();
        sender.set_nodelay(true).unwrap();
        let epoch = Instant::now();
        let writer = std::thread::spawn(move || {
            for seq in 0..FRAMES {
                let sent = epoch.elapsed().as_nanos() as u64;
                let mut frame = [0u8; 12];
                frame[..4].copy_from_slice(&seq.to_le_bytes());
                frame[4..].copy_from_slice(&sent.to_le_bytes());
                sender.write_all(&frame).unwrap();
                std::thread::sleep(Duration::from_micros(200));
            }
            sender
        });
        let (mut accepted, _) = target.accept().unwrap();
        let mut after_delay = Vec::new();
        for want in 0..FRAMES {
            let mut frame = [0u8; 12];
            accepted.read_exact(&mut frame).unwrap();
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
        let _sender = writer.join().unwrap();
        after_delay.sort_unstable();
        let at = |q: usize| after_delay[(after_delay.len() - 1) * q / 100];
        // Jitter (up to 10 ms here) plus the loop's own lateness.
        eprintln!(
            "arrival after send + one-way delay: p50 {:?}, p99 {:?}",
            at(50),
            at(99)
        );
        netem.stop();
    }
}
